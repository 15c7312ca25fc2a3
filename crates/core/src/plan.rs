//! Compiled execution plans: per-layer kernel choice, fused epilogues and
//! arena inference.
//!
//! [`IntModel::compile`] lowers the interpreted node graph into an
//! [`ExecPlan`] — a flat step list that the serving hot path replays with
//! **zero steady-state heap allocations** (batched-matmul steps excepted;
//! see [`ExecPlan::steady_allocs`]):
//!
//! 1. **Kernel selection.** Every MAC node gets one kernel from a small
//!    menu, chosen from static properties of its weight — no timing at
//!    compile time, no configuration:
//!
//!    | node                         | kernel ([`ExecPlan::kernels`])       |
//!    |------------------------------|--------------------------------------|
//!    | `Linear`                     | `packed-gemm/i16`: 64-wide panel GEMM on `i16` operands |
//!    | `LinearSparse`, stored density ≥ [`DENSIFY_DENSITY`] | `packed-gemm/i16` on the densified weight |
//!    | `LinearSparse`, sparser      | `spmm`: skip-zero sparse product     |
//!    | `Conv2d`, one input and one output channel per group | `dwconv-direct`: per-channel direct kernel |
//!    | any other `Conv2d`           | `im2col-gemm/i16`: im2col into the arena's `i16` region + the GEMM's tile |
//!
//!    The graph stores dense weights only; the layout each kernel reads
//!    is built here, at compile time, and stores every code **once**, at
//!    the narrowest width that holds it: `i16` when every `|w| ≤
//!    i16::MAX` (every ≤ 8-bit weight, so every zoo weight), else `i32`
//!    — the `/i32` kernels. The two GEMM-shaped kernels share one
//!    register-tiled `MR × 64` tile (`t2c_tensor::packed`): the GEMM
//!    narrows each block of activation rows to `i16` once, and the conv
//!    writes its patch block straight to `i16`, with weight rows standing
//!    in for activation rows. The default x86-64 target has no 32-bit
//!    vector multiply (SSE2), so `i32 × i32` ran emulated; `i16`
//!    operands multiply natively. Per block, at run time, the tile also
//!    picks its accumulator lane (like the narrow-or-clamped choice, this
//!    is not a kernel of its own and `kernels()` does not name it): `i32`
//!    lanes, or — when `g = ⌊i16::MAX / (max|a| · max|w|)⌋ ≥ 3` — `i16`
//!    lanes summed over runs of `g` reduction steps and flushed into
//!    `i32` (the grouped chain, bit-identical for the reasons the
//!    `t2c_tensor::packed` docs give). Low-bit weights take it: the zoo
//!    MLP's 3-bit codes against its 8-bit activations run fc1 at `g = 85`
//!    and the head at `g = 64`; 4-bit conv weights against `u8`
//!    activations at `g ≥ 18`. The zoo's 8-bit CNN and ViT layers take it
//!    only for blocks whose activations stay within ±86; elsewhere `g ≤
//!    2` and they keep the `i32` lanes.
//!    The rules come from measurements on a 2-core Xeon host at one
//!    thread. The zoo CNNs have 1 (depthwise) to 32 output channels per
//!    group, so 64-wide packed panels for convs were 50–98% padding: the
//!    direct kernel runs the depthwise convs and the im2col GEMM the
//!    rest. With `i32` operands the fused steps ran at 3.4 GMAC/s (MLP
//!    fc1), 3.8 (ResNet 3×3 convs), 2.6 (MobileNet pointwise) and 1.9
//!    (ViT linears); with the narrow tile at 8.0, 5.4, 3.2 and 3.0
//!    (traced run of the deployment benchmark's `zoo-plan` workload).
//!    Per call at batch 1 the MLPs went from 8.7 to 4.4 µs, ResNet from
//!    192 to 124 µs, ViT from 241 to 154 µs and MobileNet from 149 to
//!    127 µs. The grouped chain then took the MLP's fc1 at batch 8 from
//!    40.2 to 19.8 µs (6.5 → 13.2 GMAC/s, the step run alone, best of
//!    2000 calls) and the MLPs' whole call from 4.6 to 2.5 µs at batch 1
//!    and from 35.7 to 18.8 µs at batch 8 (traced `zoo-plan`); at batch
//!    1 MobileNet (135 → 129 µs), ResNet (132 → 126 µs) and ViT (166 →
//!    158 µs) did not slow. The tile covers output widths that are not a
//!    multiple of 64 in power-of-two column chunks, so ViT's 16-wide
//!    patch grid and the 10-wide heads compute no padding columns. The sparse crossover
//!    is measured in [`DENSIFY_DENSITY`]'s docs; the narrow GEMM moved it
//!    from 0.25 to 0.125, so the 80%-pruned MLP now runs densified too;
//!    with low-bit weights the grouped chain moves it further down.
//! 2. **Fusion.** Each MAC node — which the interpreter runs as up to
//!    four full-tensor passes (MAC, channel bias, `MulQuant` requant +
//!    ReLU, optionally a following `GeluLut`) — becomes one fused step.
//!    The kernels of `t2c_tensor::fused` apply the whole epilogue as
//!    outputs leave the accumulator (per element for the GEMMs, per
//!    output-channel row in place for the convolutions), so the wide
//!    `i32` intermediate never materializes. Weights are laid out **once,
//!    at compile time** (the interpreter's dense path re-packs the weight
//!    on every call); sparse column indices and per-channel `Σ|w|` bounds
//!    are likewise precomputed. A `GeluLut` node is folded into its
//!    producer when it is the producer's sole consumer.
//! 3. **Liveness + arena.** A last-use pass computes, per node, the step
//!    after which its output is dead; a greedy best-fit allocator then
//!    assigns every output an offset in one shared scratch arena,
//!    returning freed intervals to a coalescing free list. The arena is
//!    sized at compile time ([`ExecPlan::arena_bytes`] per sample, plus an
//!    `i16` operand region, [`ExecPlan::scratch_bytes`], holding the
//!    larger of one (image, group) patch block of the largest convolution
//!    and the narrowed copy of the largest GEMM input) and reused across
//!    batches — [`Arena`] grows monotonically and never shrinks, so
//!    steady-state inference touches the allocator only when a larger
//!    batch arrives.
//!
//! # Bit-identity
//!
//! Plan execution is bit-identical to [`IntModel::run_quantized`] at any
//! `T2C_THREADS` setting, by composition of two arguments:
//!
//! * The fused kernels keep the per-output-element reduction order and
//!   per-MAC saturation chain of the interpreter's kernels, or take the
//!   narrow chain only for a block whose activations fit `i16` and whose
//!   `Σ|a| · max|w|` bound proves the clamp can never engage: every
//!   partial sum then stays inside the `i32` rails, and products of
//!   `i16` operands are exact in `i32`, so plain multiply-adds give the
//!   clamped chain's result. The grouped chain adds `i16` lanes only over
//!   runs of `g` steps with `g · max|a| · max|w| ≤ i16::MAX`, so no lane
//!   wraps and every run sum is exact (see `t2c_tensor::packed` and
//!   `t2c_tensor::fused`). Densifying a sparse weight only adds zero
//!   products, which change no partial sum.
//! * Every epilogue stage is the exact per-element scalar the interpreter
//!   applies tensor-wide — the same `saturating_add`/clamp channel bias,
//!   [`MulQuant::apply_scalar_relu`] requant and [`GeluLut::lookup`] —
//!   and the non-fused steps call the very same slice cores
//!   (`apply_into`, `max_pool_into`, …) that the interpreter's tensor
//!   wrappers delegate to.
//!
//! Plans are compiled **per sample shape**: batch-1 shapes are inferred
//! once and every slot offset scales linearly with the runtime batch,
//! which preserves interval disjointness (every zoo op's leading axis is
//! linear in the batch). The graph itself is untouched — lint,
//! error-bound certification, export and the accelerator simulator keep
//! operating on the `IntModel`, so their verdicts apply to the plan
//! verbatim.
//!
//! When profiling is enabled, compiling emits the `plan.arena_bytes`,
//! `plan.allocs_steady` and `plan.fused_nodes` gauges.

use t2c_tensor::ops::{Conv2dSpec, PoolSpec};
use t2c_tensor::{
    conv_gemm_fused_into, dwconv_fused_into, gemm_fused_into, spmm_fused_into, ConvWeight,
    PackedMat, SparseMat, Tensor, TensorError,
};

use crate::fixed::FixedScalar;
use crate::intmodel::{
    add_const_requant_scalar, add_requant_scalar, concat_token_into, global_avg_pool_into,
    max_pool_into, requant_scalar, take_token_into, IntModel, IntOp, LayerNormInt, Src,
};
use crate::lut::{GeluLut, SoftmaxLut};
use crate::mulquant::MulQuant;
use crate::qconfig::QuantSpec;
use crate::Result;

/// A reusable scratch buffer for plan execution. One arena per worker: it
/// grows monotonically to the largest `arena_words × batch` seen (plus
/// the plan's `i16` operand region, [`ExecPlan::scratch_bytes`]) and is
/// reused across batches, so steady-state inference allocates nothing.
#[derive(Debug, Default)]
pub struct Arena {
    buf: Vec<i32>,
    narrow: Vec<i16>,
}

impl Arena {
    /// An empty arena; the first [`ExecPlan::run_quantized_into`] call
    /// sizes it.
    pub fn new() -> Self {
        Arena::default()
    }

    /// Current capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.buf.len() * 4 + self.narrow.len() * 2
    }

    /// Grows (never shrinks) the buffers to at least `words` `i32` slot
    /// values and `narrow` `i16` operand values.
    fn ensure(&mut self, words: usize, narrow: usize) -> (&mut [i32], &mut [i16]) {
        if self.buf.len() < words {
            self.buf.resize(words, 0);
        }
        if self.narrow.len() < narrow {
            self.narrow.resize(narrow, 0);
        }
        (&mut self.buf[..words], &mut self.narrow[..narrow])
    }
}

/// The per-element tail of a fused MAC step: channel bias (saturating at
/// the i32 accumulator rails), `MulQuant` requant with optional ReLU, and
/// an optionally folded GELU table — each stage the exact scalar the
/// interpreter applies tensor-wide.
#[derive(Debug, Clone)]
struct Epilogue {
    bias: Option<Vec<i64>>,
    requant: Option<MulQuant>,
    relu: bool,
    lut: Option<GeluLut>,
}

impl Epilogue {
    #[inline]
    fn apply(&self, acc: i32, ch: usize) -> i32 {
        let mut v = [acc];
        self.apply_row(&mut v, ch);
        v[0]
    }

    /// Applies the epilogue in place to a run of accumulators that all
    /// belong to channel `ch`, one stage at a time (each stage's channel
    /// constants are looked up once per run).
    #[inline]
    fn apply_row(&self, row: &mut [i32], ch: usize) {
        if let Some(b) = self.bias.as_deref().filter(|b| !b.is_empty()) {
            let bv = b[ch.min(b.len() - 1)];
            for v in row.iter_mut() {
                *v = i64::from(*v)
                    .saturating_add(bv)
                    .clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32;
            }
        }
        if let Some(r) = &self.requant {
            r.apply_row_relu(row, ch, self.relu);
        }
        if let Some(l) = &self.lut {
            for v in row.iter_mut() {
                *v = l.lookup(*v);
            }
        }
    }

    /// Graph nodes this epilogue absorbs beyond the MAC node itself.
    fn folded(&self) -> usize {
        usize::from(self.lut.is_some())
    }
}

/// Where a node's output lives at execution time.
#[derive(Debug, Clone, Copy)]
enum SlotKind {
    /// An interval of the arena (offset/len are per-sample words, scaled
    /// by the runtime batch).
    Arena,
    /// The node's output *is* the quantized model input (`Quantize`).
    InputAlias,
    /// Never materialized (a folded node, or a node without a step).
    Dead,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    offset: usize,
    len: usize,
    kind: SlotKind,
}

/// One compiled step. `dst` is the graph node whose value the step
/// produces (for a fused producer+GELU pair, the GELU node); `in_dims`
/// fields hold batch-1 operand shapes whose leading axis scales with the
/// runtime batch.
#[derive(Debug, Clone)]
enum Step {
    /// A `Quantize` node: no work, the slot aliases the input.
    InputAlias { dst: usize },
    /// Raw data copy (`Flatten` — a reshape never moves values).
    Copy { src: Src, dst: usize },
    /// Fused dense (or densified sparse) linear: packed GEMM + epilogue.
    Gemm { src: Src, dst: usize, weight: PackedMat, epi: Epilogue },
    /// Fused sparse linear: skip-zero matmul + epilogue.
    Spmm { src: Src, dst: usize, weight: SparseMat, cols: Vec<u32>, epi: Epilogue },
    /// Fused depthwise convolution: direct per-channel kernel + epilogue.
    DwConv { src: Src, dst: usize, weight: ConvWeight, epi: Epilogue },
    /// Fused convolution: im2col into the arena scratch, weight-stationary
    /// GEMM + epilogue.
    ConvGemm { src: Src, dst: usize, weight: ConvWeight, epi: Epilogue },
    /// Residual add with per-branch rescale.
    AddRequant {
        a: Src,
        b: Src,
        dst: usize,
        m_a: FixedScalar,
        m_b: FixedScalar,
        out_spec: QuantSpec,
        relu: bool,
    },
    /// Pre-quantized constant add (position embeddings).
    AddConst { src: Src, dst: usize, value: Vec<i32>, m: FixedScalar, out_spec: QuantSpec },
    /// Integer max pooling.
    MaxPool { src: Src, dst: usize, spec: PoolSpec, in_dims: [usize; 4] },
    /// Global average pooling.
    GlobalAvgPool { src: Src, dst: usize, frac_bits: u8, in_dims: [usize; 4] },
    /// `[N, D, h, w] → [N, h·w, D]`.
    PatchToTokens { src: Src, dst: usize, in_dims: [usize; 4] },
    /// Class-token prepend.
    ConcatToken { src: Src, dst: usize, token: Vec<i32>, in_dims: [usize; 3] },
    /// Token extraction.
    TakeToken { src: Src, dst: usize, index: usize, in_dims: [usize; 3] },
    /// `[N, L, H·Dh] → [N·H, L, Dh]`.
    SplitHeads { src: Src, dst: usize, heads: usize, in_dims: [usize; 3] },
    /// `[N·H, L, Dh] → [N, L, H·Dh]`.
    MergeHeads { src: Src, dst: usize, heads: usize, in_dims: [usize; 3] },
    /// Elementwise rescale between grids.
    Requant { src: Src, dst: usize, m: FixedScalar, out_spec: QuantSpec },
    /// Integer LayerNorm over rows of `d`.
    LayerNorm { src: Src, dst: usize, ln: LayerNormInt, d: usize },
    /// LUT softmax over rows of `cols`.
    Softmax { src: Src, dst: usize, lut: SoftmaxLut, cols: usize },
    /// Standalone LUT GELU (one that could not be folded).
    Gelu { src: Src, dst: usize, lut: GeluLut },
    /// Batched-matmul fallback — reuses the interpreter's tensor kernel
    /// (allocates; counted in [`ExecPlan::steady_allocs`]).
    Bmm {
        a: Src,
        b: Src,
        dst: usize,
        transpose_rhs: bool,
        m: FixedScalar,
        out_spec: QuantSpec,
        a_dims: [usize; 3],
        b_dims: [usize; 3],
    },
}

impl Step {
    fn dst(&self) -> usize {
        match self {
            Step::InputAlias { dst }
            | Step::Copy { dst, .. }
            | Step::Gemm { dst, .. }
            | Step::Spmm { dst, .. }
            | Step::DwConv { dst, .. }
            | Step::ConvGemm { dst, .. }
            | Step::AddRequant { dst, .. }
            | Step::AddConst { dst, .. }
            | Step::MaxPool { dst, .. }
            | Step::GlobalAvgPool { dst, .. }
            | Step::PatchToTokens { dst, .. }
            | Step::ConcatToken { dst, .. }
            | Step::TakeToken { dst, .. }
            | Step::SplitHeads { dst, .. }
            | Step::MergeHeads { dst, .. }
            | Step::Requant { dst, .. }
            | Step::LayerNorm { dst, .. }
            | Step::Softmax { dst, .. }
            | Step::Gelu { dst, .. }
            | Step::Bmm { dst, .. } => *dst,
        }
    }

    /// Sources this step reads (for liveness).
    fn reads(&self) -> Vec<Src> {
        match self {
            Step::InputAlias { .. } => vec![],
            Step::Copy { src, .. }
            | Step::Gemm { src, .. }
            | Step::Spmm { src, .. }
            | Step::DwConv { src, .. }
            | Step::ConvGemm { src, .. }
            | Step::AddConst { src, .. }
            | Step::MaxPool { src, .. }
            | Step::GlobalAvgPool { src, .. }
            | Step::PatchToTokens { src, .. }
            | Step::ConcatToken { src, .. }
            | Step::TakeToken { src, .. }
            | Step::SplitHeads { src, .. }
            | Step::MergeHeads { src, .. }
            | Step::Requant { src, .. }
            | Step::LayerNorm { src, .. }
            | Step::Softmax { src, .. }
            | Step::Gelu { src, .. } => vec![*src],
            Step::AddRequant { a, b, .. } | Step::Bmm { a, b, .. } => vec![*a, *b],
        }
    }

    /// The kernel chosen for a MAC step (see the module docs' kernel
    /// menu), with the operand width of its tile; `None` for the other
    /// steps, which have no choice to make.
    fn kernel(&self) -> Option<&'static str> {
        match self {
            Step::Gemm { weight, .. } if weight.data.is_narrow() => Some("packed-gemm/i16"),
            Step::Gemm { .. } => Some("packed-gemm/i32"),
            Step::Spmm { .. } => Some("spmm"),
            Step::DwConv { .. } => Some("dwconv-direct"),
            Step::ConvGemm { weight, .. } if weight.is_narrow() => Some("im2col-gemm/i16"),
            Step::ConvGemm { .. } => Some("im2col-gemm/i32"),
            _ => None,
        }
    }
}

/// Stored density (stored slots over dense elements) at or above which a
/// `LinearSparse` layer is densified into the packed GEMM at compile
/// time; sparser layers keep the skip-zero `Spmm` kernel.
///
/// Measured on a `[128, 256]` weight (the zoo MLP's fc1 shape) with
/// random unstructured masks and int8-range activations, at one thread
/// on a 2-core Xeon host, through the fused entry points the plan calls
/// (`i16` packed GEMM vs skip-zero SpMM), with the zoo MLP's 3-bit codes
/// (`|w| ≤ 3`, which the GEMM runs on the grouped `i16`-lane chain at
/// `g = 85`) and with 8-bit codes (`|w| ≤ 127`, `i32` lanes). Each cell
/// is GEMM vs SpMM in µs, each figure the fastest of nine alternating
/// best-of-200 timings:
///
/// | stored density | 3-bit, batch 1 | 3-bit, batch 8 | 8-bit, batch 1 | 8-bit, batch 8 |
/// |------|------------|-------------|------------|-------------|
/// | 0.02 | 1.9 vs 1.0 | 19.1 vs 8.5 | 4.7 vs 1.1 | 34.6 vs 9.1 |
/// | 0.03 | 2.4 vs 1.6 | 14.2 vs 10.6 | 4.7 vs 1.6 | 27.1 vs 8.6 |
/// | 0.04 | 1.6 vs 1.4 | 11.8 vs 10.6 | 3.6 vs 1.5 | 28.1 vs 11.0 |
/// | 0.05 | 1.6 vs 1.6 | 12.2 vs 12.5 | 3.6 vs 1.6 | 28.1 vs 12.5 |
/// | 0.06 | 2.1 vs 2.5 | 12.2 vs 14.9 | 4.0 vs 2.4 | 28.2 vs 14.7 |
/// | 0.07 | 2.1 vs 2.5 | 12.2 vs 16.3 | 3.6 vs 2.1 | 27.1 vs 15.8 |
/// | 0.09 | 1.8 vs 3.2 | 12.2 vs 21.4 | 3.6 vs 2.8 | 28.2 vs 21.4 |
/// | 0.12 | 1.6 vs 3.5 | 11.8 vs 27.2 | 3.6 vs 3.6 | 28.2 vs 28.3 |
/// | 0.14 | 1.9 vs 4.8 | 14.3 vs 32.3 | 4.0 vs 5.0 | 26.2 vs 28.8 |
/// | 0.19 | 1.5 vs 5.7 | 11.8 vs 47.5 | 3.5 vs 6.0 | 26.2 vs 44.6 |
/// | 0.24 | 1.5 vs 6.6 | 11.0 vs 52.3 | 3.7 vs 7.8 | 26.3 vs 68.6 |
/// | 0.47 (2:4) | 1.8 vs 14.8 | 11.4 vs 100.7 | 3.5 vs 13.1 | 25.4 vs 97.5 |
///
/// The packed GEMM's cost does not depend on density; SpMM's grows with
/// it. With 8-bit codes they cross at about 0.12 at both batch sizes, as
/// before the grouped chain; with 3-bit codes the GEMM runs about 2.3×
/// faster and the crossover moves down to about 0.05. One constant cannot
/// follow both: it stays at the 8-bit crossover, so a low-bit layer with
/// a stored density in `[0.05, 0.125)` keeps SpMM at up to 2.3× the
/// densified GEMM's time (moving it to 0.05 would cost 8-bit layers in
/// that range as much). No zoo layer sits there: the 95%-pruned MLP
/// (≈ 0.05) is at the low-bit crossover and keeps SpMM, the 80%-pruned
/// one (≈ 0.2) runs densified. With the 32-bit GEMM the crossover sat at
/// 0.25.
pub const DENSIFY_DENSITY: f64 = 0.125;

/// A compiled, shape-specialized execution plan (see the module docs).
/// Built by [`IntModel::compile`]; the model graph itself is untouched,
/// so every static analysis of the `IntModel` applies to the plan
/// verbatim.
#[derive(Debug, Clone)]
pub struct ExecPlan {
    steps: Vec<Step>,
    slots: Vec<Slot>,
    arena_words: usize,
    /// Batch-independent `i16` values of the largest im2col patch block.
    scratch_words: usize,
    /// Per-sample `i16` values of the largest narrowed GEMM input.
    narrow_words: usize,
    input_dims1: Vec<usize>,
    out_dims1: Vec<usize>,
    out_node: usize,
    in_quant: Option<(f32, QuantSpec)>,
    fused_nodes: usize,
    steady_allocs: usize,
}

impl IntModel {
    /// Compiles the model for samples of shape `input_dims` (the leading
    /// axis is treated as the batch and normalized to 1): infers shapes
    /// statically, packs dense weights, fuses MAC epilogues, runs liveness
    /// and lays node outputs into a shared arena. The model is unchanged —
    /// keep using it for lint, certification, export and as the reference
    /// interpreter that defines the plan's semantics.
    ///
    /// # Errors
    ///
    /// Returns an error if the model is empty, [`IntModel::infer_shapes`]
    /// rejects the graph on the given shape (the error names the node), or
    /// a weight fails validation / packing.
    pub fn compile(&self, input_dims: &[usize]) -> Result<ExecPlan> {
        if self.nodes.is_empty() {
            return Err(TensorError::InvalidArgument("cannot compile an empty IntModel".into()));
        }
        if input_dims.is_empty() {
            return Err(TensorError::InvalidArgument(
                "plan input shape needs at least a batch axis".into(),
            ));
        }
        let mut dims1 = input_dims.to_vec();
        dims1[0] = 1;
        // Static shape inference doubles as full graph validation: arity,
        // references, ranks, extents and parameter lengths all fail here,
        // before any packing work, so no step below can index out of range.
        let shapes = self.infer_shapes(&dims1)?;
        let n = self.nodes.len();

        // Consumer census drives GELU folding: a LUT GELU whose operand
        // is a MAC node with no other reader merges into that node's
        // epilogue.
        let mut consumers = vec![0usize; n];
        for node in &self.nodes {
            for src in &node.inputs {
                if let Src::Node(id) = src {
                    consumers[*id] += 1;
                }
            }
        }
        let mut fold_dst: Vec<Option<usize>> = vec![None; n];
        let mut folded = vec![false; n];
        for (j, node) in self.nodes.iter().enumerate() {
            if !matches!(node.op, IntOp::GeluLut(_)) {
                continue;
            }
            let [Src::Node(i)] = node.inputs.as_slice() else { continue };
            if consumers[*i] != 1 {
                continue;
            }
            let mac = matches!(
                self.nodes[*i].op,
                IntOp::Linear { .. } | IntOp::LinearSparse { .. } | IntOp::Conv2d { .. }
            );
            if mac {
                fold_dst[*i] = Some(j);
                folded[j] = true;
            }
        }

        let shape_of = |src: &Src| -> &[usize] {
            match src {
                Src::Input => &dims1,
                Src::Node(id) => &shapes[*id],
            }
        };
        let geo4 = |src: &Src| -> [usize; 4] {
            let s = shape_of(src);
            [s[0], s[1], s[2], s[3]]
        };
        let geo3 = |src: &Src| -> [usize; 3] {
            let s = shape_of(src);
            [s[0], s[1], s[2]]
        };
        let lut_of = |i: usize| -> Option<GeluLut> {
            fold_dst[i].map(|j| match &self.nodes[j].op {
                IntOp::GeluLut(l) => l.clone(),
                _ => unreachable!("fold targets are GeluLut nodes"),
            })
        };

        let mut steps = Vec::with_capacity(n);
        let mut fused_nodes = 0usize;
        let mut steady_allocs = 0usize;
        let mut scratch_words = 0usize;
        let mut narrow_words = 0usize;
        for (i, node) in self.nodes.iter().enumerate() {
            if folded[i] {
                continue;
            }
            let dst = fold_dst[i].unwrap_or(i);
            // `infer_shapes` checked that every operand is listed.
            let operand = |idx: usize| node.inputs[idx];
            let step = match &node.op {
                IntOp::Quantize { .. } => Step::InputAlias { dst },
                IntOp::Linear { weight, bias, requant, relu, .. } => {
                    let epi = Epilogue {
                        bias: bias.clone(),
                        requant: requant.clone(),
                        relu: *relu,
                        lut: lut_of(i),
                    };
                    fused_nodes += 1 + epi.folded();
                    Step::Gemm {
                        src: operand(0),
                        dst,
                        weight: PackedMat::from_weight(weight)?,
                        epi,
                    }
                }
                IntOp::LinearSparse { weight, bias, requant, relu, .. } => {
                    weight.validate().map_err(|e| {
                        TensorError::InvalidArgument(format!(
                            "node {i} ({}) has an invalid sparse weight: {e}",
                            node.name
                        ))
                    })?;
                    let epi = Epilogue {
                        bias: bias.clone(),
                        requant: requant.clone(),
                        relu: *relu,
                        lut: lut_of(i),
                    };
                    fused_nodes += 1 + epi.folded();
                    let dense = weight.rows * weight.cols;
                    if weight.stored() as f64 >= DENSIFY_DENSITY * dense as f64 {
                        let weight = PackedMat::from_sparse(weight)?;
                        Step::Gemm { src: operand(0), dst, weight, epi }
                    } else {
                        Step::Spmm {
                            src: operand(0),
                            dst,
                            cols: weight.col_indices(),
                            weight: weight.clone(),
                            epi,
                        }
                    }
                }
                IntOp::Conv2d { weight, bias, spec, requant, relu, .. } => {
                    let epi = Epilogue {
                        bias: bias.clone(),
                        requant: Some(requant.clone()),
                        relu: *relu,
                        lut: lut_of(i),
                    };
                    fused_nodes += 1 + epi.folded();
                    let src = operand(0);
                    conv_step(src, dst, weight, *spec, geo4(&src), epi)?
                }
                IntOp::AddRequant { m_a, m_b, out_spec, relu } => Step::AddRequant {
                    a: operand(0),
                    b: operand(1),
                    dst,
                    m_a: *m_a,
                    m_b: *m_b,
                    out_spec: *out_spec,
                    relu: *relu,
                },
                IntOp::AddConstRequant { value, m, out_spec } => Step::AddConst {
                    src: operand(0),
                    dst,
                    value: value.as_slice().to_vec(),
                    m: *m,
                    out_spec: *out_spec,
                },
                IntOp::MaxPool2d { spec } => {
                    let src = operand(0);
                    Step::MaxPool { dst, spec: *spec, in_dims: geo4(&src), src }
                }
                IntOp::GlobalAvgPool { frac_bits } => {
                    let src = operand(0);
                    Step::GlobalAvgPool { dst, frac_bits: *frac_bits, in_dims: geo4(&src), src }
                }
                IntOp::Flatten => Step::Copy { src: operand(0), dst },
                IntOp::PatchToTokens => {
                    let src = operand(0);
                    Step::PatchToTokens { dst, in_dims: geo4(&src), src }
                }
                IntOp::ConcatToken { token } => {
                    let src = operand(0);
                    Step::ConcatToken {
                        dst,
                        token: token.as_slice().to_vec(),
                        in_dims: geo3(&src),
                        src,
                    }
                }
                IntOp::TakeToken { index } => {
                    let src = operand(0);
                    Step::TakeToken { dst, index: *index, in_dims: geo3(&src), src }
                }
                IntOp::SplitHeads { heads } => {
                    let src = operand(0);
                    Step::SplitHeads { dst, heads: *heads, in_dims: geo3(&src), src }
                }
                IntOp::MergeHeads { heads } => {
                    let src = operand(0);
                    Step::MergeHeads { dst, heads: *heads, in_dims: geo3(&src), src }
                }
                IntOp::BmmRequant { transpose_rhs, m, out_spec } => {
                    let (a, b) = (operand(0), operand(1));
                    Step::Bmm {
                        dst,
                        transpose_rhs: *transpose_rhs,
                        m: *m,
                        out_spec: *out_spec,
                        a_dims: geo3(&a),
                        b_dims: geo3(&b),
                        a,
                        b,
                    }
                }
                IntOp::Requant { m, out_spec } => {
                    Step::Requant { src: operand(0), dst, m: *m, out_spec: *out_spec }
                }
                IntOp::LayerNorm(ln) => {
                    let src = operand(0);
                    let d = *shape_of(&src).last().unwrap_or(&1);
                    Step::LayerNorm { src, dst, ln: ln.clone(), d }
                }
                IntOp::SoftmaxLut(lut) => {
                    let src = operand(0);
                    let cols = *shape_of(&src).last().unwrap_or(&1);
                    Step::Softmax { src, dst, lut: lut.clone(), cols }
                }
                IntOp::GeluLut(lut) => Step::Gelu { src: operand(0), dst, lut: lut.clone() },
            };
            match &step {
                Step::Bmm { .. } => steady_allocs += 1,
                Step::Gemm { src, .. } => {
                    narrow_words = narrow_words.max(shape_of(src).iter().product());
                }
                Step::ConvGemm { weight, .. } => {
                    scratch_words = scratch_words.max(weight.scratch_words());
                }
                _ => {}
            }
            steps.push(step);
        }

        // Liveness over steps: a node dies after the last step reading
        // it; the model output never dies.
        let out_node = n - 1;
        let mut last = vec![0usize; n];
        for (s, step) in steps.iter().enumerate() {
            last[step.dst()] = s;
            for src in step.reads() {
                if let Src::Node(id) = src {
                    last[id] = last[id].max(s);
                }
            }
        }
        last[out_node] = usize::MAX;

        // Greedy best-fit arena assignment. Intervals freed *strictly
        // before* the current step return to a coalescing free list, so a
        // step's destination can never land on one of its own operands.
        let mut slots = vec![Slot { offset: 0, len: 0, kind: SlotKind::Dead }; n];
        let mut free: Vec<(usize, usize)> = Vec::new();
        let mut released = vec![false; n];
        let mut arena_words = 0usize;
        for (s, step) in steps.iter().enumerate() {
            for node in 0..n {
                if !released[node] && matches!(slots[node].kind, SlotKind::Arena) && last[node] < s
                {
                    free_insert(&mut free, slots[node].offset, slots[node].len);
                    released[node] = true;
                }
            }
            let dst = step.dst();
            let len = shapes[dst].iter().product::<usize>();
            slots[dst] = if matches!(step, Step::InputAlias { .. }) {
                Slot { offset: 0, len, kind: SlotKind::InputAlias }
            } else {
                Slot {
                    offset: best_fit(&mut free, &mut arena_words, len),
                    len,
                    kind: SlotKind::Arena,
                }
            };
        }

        let in_quant = match self.nodes[0].op {
            IntOp::Quantize { scale, spec } => Some((scale, spec)),
            _ => None,
        };
        if t2c_obs::enabled() {
            t2c_obs::gauge_set("plan.arena_bytes", (arena_words * 4) as f64);
            t2c_obs::gauge_set("plan.allocs_steady", steady_allocs as f64);
            t2c_obs::gauge_set("plan.fused_nodes", fused_nodes as f64);
        }
        Ok(ExecPlan {
            steps,
            slots,
            arena_words,
            scratch_words,
            narrow_words,
            input_dims1: dims1,
            out_dims1: shapes[out_node].clone(),
            out_node,
            in_quant,
            fused_nodes,
            steady_allocs,
        })
    }
}

/// Selects the convolution kernel from the weight's static shape: the
/// direct kernel for depthwise convs, im2col + weight-stationary GEMM for
/// every other conv (module docs).
fn conv_step(
    src: Src,
    dst: usize,
    weight: &Tensor<i32>,
    spec: Conv2dSpec,
    in_dims: [usize; 4],
    epi: Epilogue,
) -> Result<Step> {
    let weight = ConvWeight::new(weight, spec, [in_dims[1], in_dims[2], in_dims[3]])?;
    Ok(if weight.is_depthwise() {
        Step::DwConv { src, dst, weight, epi }
    } else {
        Step::ConvGemm { src, dst, weight, epi }
    })
}

/// Returns `(offset, len)` intervals to an offset-sorted free list,
/// coalescing with adjacent neighbours.
fn free_insert(free: &mut Vec<(usize, usize)>, off: usize, len: usize) {
    if len == 0 {
        return;
    }
    let pos = free.partition_point(|&(o, _)| o < off);
    free.insert(pos, (off, len));
    if pos + 1 < free.len() && free[pos].0 + free[pos].1 == free[pos + 1].0 {
        free[pos].1 += free[pos + 1].1;
        free.remove(pos + 1);
    }
    if pos > 0 && free[pos - 1].0 + free[pos - 1].1 == free[pos].0 {
        free[pos - 1].1 += free[pos].1;
        free.remove(pos);
    }
}

/// Best-fit allocation: the smallest free interval that holds `len`
/// (lowest offset on ties), else fresh words at the arena's end.
fn best_fit(free: &mut Vec<(usize, usize)>, arena_words: &mut usize, len: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let mut best: Option<usize> = None;
    for (idx, &(_, flen)) in free.iter().enumerate() {
        if flen >= len && best.is_none_or(|b| flen < free[b].1) {
            best = Some(idx);
        }
    }
    match best {
        Some(idx) => {
            let (off, flen) = free[idx];
            if flen == len {
                free.remove(idx);
            } else {
                free[idx] = (off + len, flen - len);
            }
            off
        }
        None => {
            let off = *arena_words;
            *arena_words += len;
            off
        }
    }
}

impl ExecPlan {
    /// Number of graph nodes executed inside fused MAC steps (each MAC
    /// node plus any folded activation).
    pub fn fused_nodes(&self) -> usize {
        self.fused_nodes
    }

    /// Number of steps that still heap-allocate per execution (batched
    /// matmuls run the tensor kernel); 0 for MLP and CNN pipelines.
    pub fn steady_allocs(&self) -> usize {
        self.steady_allocs
    }

    /// Peak arena footprint per sample, in bytes. The runtime arena holds
    /// `arena_bytes() × batch` plus [`ExecPlan::scratch_bytes`].
    pub fn arena_bytes(&self) -> usize {
        self.arena_words * 4
    }

    /// The arena's `i16` operand region for a batch of `batch` samples, in
    /// bytes: the larger of one (image, group) patch block of the largest
    /// convolution and the narrowed copy of the largest GEMM input. Sized
    /// at compile time; steps use it one at a time.
    pub fn scratch_bytes(&self, batch: usize) -> usize {
        self.narrow_len(batch) * 2
    }

    fn narrow_len(&self, batch: usize) -> usize {
        self.scratch_words.max(self.narrow_words * batch)
    }

    /// The kernel chosen for each MAC step, in execution order, as
    /// `(graph node whose value the step produces, kernel name)`.
    pub fn kernels(&self) -> impl Iterator<Item = (usize, &'static str)> + '_ {
        self.steps.iter().filter_map(|s| s.kernel().map(|k| (s.dst(), k)))
    }

    /// The batch-1 input shape the plan was compiled for.
    pub fn input_dims(&self) -> &[usize] {
        &self.input_dims1
    }

    /// The output shape for a batch of `batch` samples.
    pub fn output_dims(&self, batch: usize) -> Vec<usize> {
        let mut dims = self.out_dims1.clone();
        if let Some(d0) = dims.first_mut() {
            *d0 *= batch;
        }
        dims
    }

    /// Validates a quantized input against the compiled sample shape and
    /// returns the batch size.
    fn batch_of(&self, dims: &[usize]) -> Result<usize> {
        if dims.len() != self.input_dims1.len()
            || dims[1..] != self.input_dims1[1..]
            || dims[0] == 0
        {
            return Err(TensorError::InvalidArgument(format!(
                "plan compiled for samples of {:?} cannot run input {dims:?}",
                self.input_dims1
            )));
        }
        Ok(dims[0])
    }

    /// Runs the plan on an already-quantized input, writing the flat
    /// output into `out` (cleared and refilled — reuse the same `Vec`
    /// across calls to keep the steady state allocation-free once its
    /// capacity has grown).
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape disagrees with the compiled
    /// sample shape.
    pub fn run_quantized_into(
        &self,
        x: &Tensor<i32>,
        arena: &mut Arena,
        out: &mut Vec<i32>,
    ) -> Result<()> {
        let bs = self.batch_of(x.dims())?;
        let xs = x.as_slice();
        let (buf, scratch) = arena.ensure(self.arena_words * bs, self.narrow_len(bs));
        for step in &self.steps {
            exec_step(step, &self.slots, xs, bs, buf, scratch)?;
        }
        out.clear();
        let slot = self.slots[self.out_node];
        match slot.kind {
            SlotKind::InputAlias => out.extend_from_slice(xs),
            SlotKind::Arena => {
                out.extend_from_slice(&buf[slot.offset * bs..(slot.offset + slot.len) * bs]);
            }
            SlotKind::Dead => {
                return Err(TensorError::InvalidArgument(
                    "plan output slot was never materialized".into(),
                ))
            }
        }
        Ok(())
    }

    /// Runs the plan on an already-quantized input — the convenience
    /// wrapper serve workers use (one allocation, for the output tensor).
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape disagrees with the compiled
    /// sample shape.
    pub fn run_quantized(&self, x: &Tensor<i32>, arena: &mut Arena) -> Result<Tensor<i32>> {
        let bs = self.batch_of(x.dims())?;
        let mut out = Vec::new();
        self.run_quantized_into(x, arena, &mut out)?;
        Tensor::from_vec(out, &self.output_dims(bs))
    }

    /// Runs the plan on a float input batch, quantizing through the
    /// model's leading `Quantize` node exactly like [`IntModel::run`].
    ///
    /// # Errors
    ///
    /// Returns an error if the model had no leading `Quantize` node or
    /// the input shape disagrees with the compiled sample shape.
    pub fn run(&self, x: &Tensor<f32>, arena: &mut Arena) -> Result<Tensor<i32>> {
        let Some((scale, spec)) = self.in_quant else {
            return Err(TensorError::InvalidArgument(
                "IntModel must start with a Quantize node".into(),
            ));
        };
        let q = x.map(|v| ((v / scale).round() as i32).clamp(spec.qmin(), spec.qmax()));
        self.run_quantized(&q, arena)
    }
}

/// Resolves a step operand to a slice: the model input, or its arena
/// interval re-anchored to the halves left / right of the mutably split
/// destination interval `[d0, d1)`.
#[allow(clippy::too_many_arguments)]
fn read_slice<'a>(
    slots: &[Slot],
    src: Src,
    xs: &'a [i32],
    left: &'a [i32],
    right: &'a [i32],
    d0: usize,
    d1: usize,
    bs: usize,
) -> Result<&'a [i32]> {
    match src {
        Src::Input => Ok(xs),
        Src::Node(id) => {
            let s = slots[id];
            match s.kind {
                SlotKind::InputAlias => Ok(xs),
                SlotKind::Dead => Err(TensorError::InvalidArgument(format!(
                    "plan step reads unmaterialized node {id}"
                ))),
                SlotKind::Arena => {
                    let (a, z) = (s.offset * bs, (s.offset + s.len) * bs);
                    // Live intervals are disjoint, so a source lies
                    // entirely on one side of the destination.
                    if z <= d0 {
                        Ok(&left[a..z])
                    } else {
                        Ok(&right[a - d1..z - d1])
                    }
                }
            }
        }
    }
}

fn scale4(mut d: [usize; 4], bs: usize) -> [usize; 4] {
    d[0] *= bs;
    d
}

fn scale3(mut d: [usize; 3], bs: usize) -> [usize; 3] {
    d[0] *= bs;
    d
}

/// Executes one step against the arena: the destination interval is
/// split out of `buf` mutably, operands resolve through [`read_slice`].
fn exec_step(
    step: &Step,
    slots: &[Slot],
    xs: &[i32],
    bs: usize,
    buf: &mut [i32],
    scratch: &mut [i16],
) -> Result<()> {
    if matches!(step, Step::InputAlias { .. }) {
        return Ok(()); // the input itself is the value
    }
    let slot = slots[step.dst()];
    let (d0, d1) = (slot.offset * bs, (slot.offset + slot.len) * bs);
    let (left, rest) = buf.split_at_mut(d0);
    let (dbuf, right) = rest.split_at_mut(d1 - d0);
    let (left, right) = (&*left, &*right);
    let rd = |src: Src| read_slice(slots, src, xs, left, right, d0, d1, bs);
    match step {
        Step::InputAlias { .. } => unreachable!("handled above"),
        Step::Copy { src, .. } => dbuf.copy_from_slice(rd(*src)?),
        Step::Gemm { src, weight, epi, .. } => {
            let x = rd(*src)?;
            let rows = x.len() / weight.k.max(1);
            gemm_fused_into(x, rows, weight, scratch, &|acc, ch| epi.apply(acc, ch), dbuf)?;
        }
        Step::Spmm { src, weight, cols, epi, .. } => {
            let x = rd(*src)?;
            let rows = x.len() / weight.cols.max(1);
            spmm_fused_into(x, rows, weight, cols, &|acc, ch| epi.apply(acc, ch), dbuf)?;
        }
        Step::DwConv { src, weight, epi, .. } => {
            dwconv_fused_into(rd(*src)?, weight, &|row, ch| epi.apply_row(row, ch), dbuf)?;
        }
        Step::ConvGemm { src, weight, epi, .. } => {
            let x = rd(*src)?;
            conv_gemm_fused_into(x, weight, scratch, &|row, ch| epi.apply_row(row, ch), dbuf)?;
        }
        Step::AddRequant { a, b, m_a, m_b, out_spec, relu, .. } => {
            let (av, bv) = (rd(*a)?, rd(*b)?);
            for (o, (&x, &y)) in dbuf.iter_mut().zip(av.iter().zip(bv)) {
                *o = add_requant_scalar(x, y, *m_a, *m_b, *out_spec, *relu);
            }
        }
        Step::AddConst { src, value, m, out_spec, .. } => {
            let x = rd(*src)?;
            let inner = value.len().max(1);
            for (i, (o, &v)) in dbuf.iter_mut().zip(x).enumerate() {
                *o = add_const_requant_scalar(v, value[i % inner], *m, *out_spec);
            }
        }
        Step::MaxPool { src, spec, in_dims, .. } => {
            max_pool_into(rd(*src)?, scale4(*in_dims, bs), *spec, dbuf);
        }
        Step::GlobalAvgPool { src, frac_bits, in_dims, .. } => {
            global_avg_pool_into(rd(*src)?, scale4(*in_dims, bs), *frac_bits, dbuf);
        }
        Step::PatchToTokens { src, in_dims, .. } => {
            let x = rd(*src)?;
            let [_, d, h, w] = *in_dims;
            let l = h * w;
            for img in 0..bs {
                for c in 0..d {
                    for t in 0..l {
                        dbuf[(img * l + t) * d + c] = x[(img * d + c) * l + t];
                    }
                }
            }
        }
        Step::ConcatToken { src, token, in_dims, .. } => {
            concat_token_into(rd(*src)?, scale3(*in_dims, bs), token, dbuf);
        }
        Step::TakeToken { src, index, in_dims, .. } => {
            take_token_into(rd(*src)?, scale3(*in_dims, bs), *index, dbuf);
        }
        Step::SplitHeads { src, heads, in_dims, .. } => {
            let x = rd(*src)?;
            let (heads, [_, l, d]) = (*heads, *in_dims);
            let dh = d / heads.max(1);
            for img in 0..bs {
                for hd in 0..heads {
                    for t in 0..l {
                        let obase = ((img * heads + hd) * l + t) * dh;
                        let ibase = (img * l + t) * d + hd * dh;
                        dbuf[obase..obase + dh].copy_from_slice(&x[ibase..ibase + dh]);
                    }
                }
            }
        }
        Step::MergeHeads { src, heads, in_dims, .. } => {
            let x = rd(*src)?;
            let (heads, [_, l, dh]) = (*heads, *in_dims);
            let d = heads * dh;
            for img in 0..bs {
                for hd in 0..heads {
                    for t in 0..l {
                        let obase = (img * l + t) * d + hd * dh;
                        let ibase = ((img * heads + hd) * l + t) * dh;
                        dbuf[obase..obase + dh].copy_from_slice(&x[ibase..ibase + dh]);
                    }
                }
            }
        }
        Step::Requant { src, m, out_spec, .. } => {
            for (o, &v) in dbuf.iter_mut().zip(rd(*src)?) {
                *o = requant_scalar(v, *m, *out_spec, false);
            }
        }
        Step::LayerNorm { src, ln, d, .. } => ln.apply_into(rd(*src)?, *d, dbuf),
        Step::Softmax { src, lut, cols, .. } => lut.apply_into(rd(*src)?, *cols, dbuf),
        Step::Gelu { src, lut, .. } => {
            for (o, &v) in dbuf.iter_mut().zip(rd(*src)?) {
                *o = lut.lookup(v);
            }
        }
        Step::Bmm { a, b, transpose_rhs, m, out_spec, a_dims, b_dims, .. } => {
            let (av, bv) = (rd(*a)?, rd(*b)?);
            let at = Tensor::from_vec(av.to_vec(), &scale3(*a_dims, bs))?;
            let bt = Tensor::from_vec(bv.to_vec(), &scale3(*b_dims, bs))?;
            let acc = if *transpose_rhs {
                let p = bt.permute(&[0, 2, 1])?;
                at.bmm_i(&p)?
            } else {
                at.bmm_i(&bt)?
            };
            for (o, &v) in dbuf.iter_mut().zip(acc.as_slice()) {
                *o = requant_scalar(v, *m, *out_spec, false);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::FixedPointFormat;
    use crate::zoo::{tiny_mlp, tiny_mlp_nm, tiny_mlp_pruned};
    use t2c_tensor::with_threads;

    fn float_batch(dims: &[usize], seed: usize) -> Tensor<f32> {
        Tensor::from_fn(dims, move |i| ((i * 31 + seed * 17) % 211) as f32 * 0.01 - 1.0)
    }

    #[test]
    fn plan_matches_interpreter_on_the_mlp_family() {
        for (tag, (model, dims)) in
            [("dense", tiny_mlp()), ("pruned", tiny_mlp_pruned(0.8)), ("nm", tiny_mlp_nm(2, 4))]
        {
            let plan = model.compile(&dims).unwrap();
            let mut arena = Arena::new();
            for batch in [1usize, 3] {
                let mut bdims = dims.clone();
                bdims[0] = batch;
                let x = float_batch(&bdims, batch);
                let want = model.run(&x).unwrap();
                let got = plan.run(&x, &mut arena).unwrap();
                assert_eq!(got.dims(), want.dims(), "{tag} batch {batch}");
                assert_eq!(got.as_slice(), want.as_slice(), "{tag} batch {batch}");
            }
        }
    }

    #[test]
    fn plan_is_thread_count_invariant() {
        let (model, dims) = tiny_mlp();
        let plan = model.compile(&dims).unwrap();
        let x = float_batch(&[4, dims[1]], 7);
        let want = with_threads(1, || model.run(&x).unwrap());
        for threads in [1usize, 4] {
            let got = with_threads(threads, || plan.run(&x, &mut Arena::new()).unwrap());
            assert_eq!(got.as_slice(), want.as_slice(), "threads {threads}");
        }
    }

    /// quantize → linear(+requant) → gelu → linear: the GELU must fold
    /// into fc1's epilogue and the step count must drop by one.
    fn gelu_model() -> (IntModel, Vec<usize>) {
        let spec8 = QuantSpec::signed(8);
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 0.05, spec: spec8 }, vec![]);
        let w1 = Tensor::from_fn(&[16, 12], |i| (i as i32 % 7) - 3);
        let rq = MulQuant::from_float(&[0.02], &[0.0], FixedPointFormat::int16_frac12(), spec8);
        m.push(
            "fc1",
            IntOp::Linear {
                weight: w1,
                bias: Some(vec![5; 16]),
                requant: Some(rq),
                relu: false,
                weight_spec: QuantSpec::signed(3),
            },
            vec![Src::Node(0)],
        );
        let lut = GeluLut::build(spec8, 0.02, spec8, 0.02);
        m.push("act", IntOp::GeluLut(lut), vec![Src::Node(1)]);
        let w2 = Tensor::from_fn(&[4, 16], |i| (i as i32 % 5) - 2);
        m.push(
            "head",
            IntOp::Linear {
                weight: w2,
                bias: None,
                requant: None,
                relu: false,
                weight_spec: QuantSpec::signed(3),
            },
            vec![Src::Node(2)],
        );
        (m, vec![1, 12])
    }

    #[test]
    fn gelu_folds_into_its_producer() {
        let (model, dims) = gelu_model();
        let plan = model.compile(&dims).unwrap();
        assert_eq!(plan.steps.len(), model.len() - 1, "gelu step must disappear");
        assert_eq!(plan.fused_nodes(), 3, "fc1 + folded gelu + head");
        assert_eq!(plan.steady_allocs(), 0);
        let x = float_batch(&[2, 12], 3);
        let want = model.run(&x).unwrap();
        let got = plan.run(&x, &mut Arena::new()).unwrap();
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn gelu_with_a_second_consumer_is_not_folded() {
        let (mut model, dims) = gelu_model();
        // A second reader of fc1 blocks the fold: requant fc1's output
        // alongside the GELU and mix the two back together.
        let spec8 = QuantSpec::signed(8);
        let one = FixedPointFormat::int16_frac12().quantize(1.0);
        let half = FixedPointFormat::int16_frac12().quantize(0.5);
        model.push("echo", IntOp::Requant { m: one, out_spec: spec8 }, vec![Src::Node(1)]);
        model.push(
            "mix",
            IntOp::AddRequant { m_a: half, m_b: half, out_spec: spec8, relu: false },
            vec![Src::Node(2), Src::Node(4)],
        );
        let plan = model.compile(&dims).unwrap();
        assert_eq!(plan.steps.len(), model.len(), "nothing may fold");
        let x = float_batch(&[2, 12], 11);
        let want = model.run(&x).unwrap();
        let got = plan.run(&x, &mut Arena::new()).unwrap();
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn dead_slots_are_recycled_by_later_steps() {
        // quantize → requant ×4: each link dies as soon as the next one
        // is written, so best-fit reuse needs two 12-word slots no matter
        // how long the chain grows (keep-all would need one per link).
        let spec8 = QuantSpec::signed(8);
        let one = FixedPointFormat::int16_frac12().quantize(1.0);
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 0.05, spec: spec8 }, vec![]);
        for k in 1..=4usize {
            m.push(
                format!("r{k}"),
                IntOp::Requant { m: one, out_spec: spec8 },
                vec![Src::Node(k - 1)],
            );
        }
        let plan = m.compile(&[1, 12]).unwrap();
        assert_eq!(plan.arena_bytes(), 2 * 12 * 4, "two live links at a time, not four");
        let x = float_batch(&[3, 12], 5);
        let want = m.run(&x).unwrap();
        let got = plan.run(&x, &mut Arena::new()).unwrap();
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn arena_is_sized_once_and_reused_across_calls() {
        let (model, dims) = tiny_mlp();
        let plan = model.compile(&dims).unwrap();
        // fc1 is still live while the head computes, so the arena holds
        // both; the quantize output costs nothing (it aliases the input).
        assert_eq!(plan.arena_bytes(), (128 + 10) * 4);
        let mut arena = Arena::new();
        let x = float_batch(&[2, dims[1]], 1).map(|v| (v / 0.05).round() as i32);
        let mut out = Vec::new();
        plan.run_quantized_into(&x, &mut arena, &mut out).unwrap();
        let cap = arena.capacity_bytes();
        assert_eq!(
            cap,
            plan.arena_bytes() * 2 + plan.scratch_bytes(2),
            "arena sized at batch × per-sample bytes plus the i16 operand region"
        );
        let first = out.clone();
        plan.run_quantized_into(&x, &mut arena, &mut out).unwrap();
        assert_eq!(out, first, "stale arena contents must not leak into a rerun");
        assert_eq!(arena.capacity_bytes(), cap, "steady-state reruns must not regrow the arena");
    }

    #[test]
    fn plan_reports_shapes_and_rejects_mismatched_inputs() {
        let (model, dims) = tiny_mlp();
        let plan = model.compile(&dims).unwrap();
        assert_eq!(plan.input_dims(), &[1, 256]);
        assert_eq!(plan.output_dims(5), vec![5, 10]);
        let bad = Tensor::<i32>::zeros(&[1, 255]);
        assert!(plan.run_quantized(&bad, &mut Arena::new()).is_err());
        assert!(IntModel::new().compile(&[1, 4]).is_err(), "empty model must not compile");
    }
}
