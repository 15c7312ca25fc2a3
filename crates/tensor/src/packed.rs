//! Panel-packed integer weights and the register-tiled saturating matmul.
//!
//! The serving hot path multiplies a fixed weight matrix against a stream
//! of small activation batches. [`PackedMat`] pre-transforms such a weight
//! **once, when an execution plan is compiled** into column-panel tiles so that every
//! subsequent [`matmul_i32_sat_packed`] call reads the weight in the exact
//! order the kernel consumes it — no per-call transpose, and each panel is
//! small enough to stay cache-resident while a block of output rows is
//! accumulated against it.
//!
//! # Layout
//!
//! A `[n, k]` weight (`n` output channels, `k` input features, row-major —
//! the orientation `IntOp::Linear` stores) is split into
//! `n.div_ceil(PANEL)` column panels of `PANEL` output channels each:
//!
//! ```text
//! dense weight W: [n, k] row-major      packed data, panel-major
//! ┌──────────── k ────────────┐
//! │ row 0   (output chan 0)   │         panel 0 = chans 0..P     [k × P]
//! │ row 1   (output chan 1)   │         panel 1 = chans P..2P    [k × P]
//! │ …                         │         …
//! └───────────────────────────┘         panel t, entry (p, j):
//!                                       data[t·k·P + p·P + j] = W[t·P + j, p]
//! ```
//!
//! Within a panel the `k` axis is outermost, so the kernel's inner loop
//! walks `PANEL` consecutive values and advancing the reduction index `p`
//! is a sequential read. Output channels past `n` in the last panel are
//! zero-filled; [`PackedMat::validate`] enforces that, and the kernel
//! neither computes nor copies out those columns.
//!
//! The codes are stored **once**, at the narrowest width that holds them
//! ([`Codes`]): `i16` when every `|w| ≤ i16::MAX` (every ≤ 8-bit
//! quantized weight), `i32` otherwise.
//!
//! # Bit-identity with the naive kernel
//!
//! [`matmul_i32_sat_packed`] is bit-identical to `Tensor::matmul_i`
//! against the unpacked transposed weight. The dense kernel clamps the
//! `i64` accumulator back into `i32` range after **every** MAC, in
//! ascending reduction order, so the running accumulator is always an
//! exact `i32` and a zero product is a no-op (`clamp(acc + 0) == acc`).
//! Each (block of up to 8 (`MR`) activation rows, panel) pair takes one of
//! three chains:
//!
//! * **narrow**: the rows' activations are narrowed to `i16` once per row
//!   block, and in the same pass each row's `S = Σ_p |a_p|` and the
//!   block's `max|a|` are taken. If every activation fits `i16` and `S ·
//!   max|w| ≤ i32::MAX` for every row (each panel stores its `max |w|`),
//!   every partial sum of every output element is bounded by that
//!   product, so the per-MAC clamp provably never engages: `clamp(x) ==
//!   x` at every step. Products of `i16` operands are exact in `i32`, so
//!   plain `i32` multiply-adds — which the compiler vectorizes, and which
//!   may be regrouped — give the clamped chain's result. The tile
//!   (`narrow_tile`) is written once, generic over operand width and
//!   accumulator lane, and is also the convolution kernels' product
//!   (`crate::fused`).
//! * **grouped**: the narrow chain's conditions hold and, in addition,
//!   `g = ⌊i16::MAX / (max|a| · max|w|)⌋` reaches `MIN_GROUP`. The same
//!   tile then sums each run of up to `g` consecutive reduction steps in
//!   `i16` lanes (8 per SSE2 vector op, no widening shuffle) and flushes
//!   the run's sums into the `i32` accumulators. Every partial sum inside
//!   a run is bounded by `g · max|a| · max|w| ≤ i16::MAX`, so no `i16`
//!   lane wraps and each run's sum is exact; every `i32` partial sum is
//!   still a prefix sum of exact products, bounded by `S · max|w| ≤
//!   i32::MAX` as in the narrow chain. So the result again equals the
//!   clamped chain's. Low-bit weights take it at realistic activation
//!   widths: the zoo MLP's 3-bit codes (`max|w| = 3`) against `s8`
//!   activations give `g = 85`.
//! * **clamped**: otherwise (activations past `i16`, or a bound that
//!   fails), the reference chain itself: `i64` accumulate and clamp after
//!   each MAC, `p` strictly ascending per output element.
//!
//! Tiles are disjoint [`crate::parallel`] units owned by exactly one
//! worker and the chain choice never changes a result, so results are
//! bit-identical at any thread count. Quantized serving weights (int8
//! codes against int8 activations) take the narrow chain at every
//! realistic reduction depth, and the grouped chain where a block's
//! activations stay below about 86 (`g ≥ 3` against `max|w| = 127`);
//! adversarial full-range inputs fall back to the clamped chain.

use std::ops::{Add, Mul};

use crate::ops::require_rank;
use crate::parallel::par_units2;
use crate::sparse::SparseMat;
use crate::{Result, Tensor, TensorError};

/// Panel width in output channels; matches the f32 kernel's cache-block
/// edge.
pub const PANEL: usize = crate::ops::BLOCK;

/// Reduction indices per block of the packing transpose.
const PACK_BLOCK: usize = 8;

/// Rows per tile: activation rows of a GEMM row block, or weight rows
/// (output channels) of a convolution. The narrow-or-clamped decision is
/// made once per block of `MR` rows.
pub(crate) const MR: usize = 8;

/// An integer operand width the tiles accept: `i16` or `i32`.
pub(crate) trait Code: Copy + Default + Into<i32> + Send + Sync {
    /// `v` at this width. Callers have checked that it fits.
    fn narrow(v: i32) -> Self;
}

impl Code for i16 {
    #[inline(always)]
    fn narrow(v: i32) -> Self {
        v as i16
    }
}

impl Code for i32 {
    #[inline(always)]
    fn narrow(v: i32) -> Self {
        v
    }
}

/// Integer weight codes, stored once at the narrowest width that holds
/// them all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Codes {
    /// Every code has `|w| ≤ i16::MAX`.
    I16(Vec<i16>),
    /// At least one code is wider than `i16`.
    I32(Vec<i32>),
}

impl Codes {
    /// Stores `vals` at the narrowest width that holds them.
    pub fn narrowest(vals: &[i32]) -> Self {
        if max_abs(vals) <= NARROW_MAX {
            Codes::I16(vals.iter().map(|&v| i16::narrow(v)).collect())
        } else {
            Codes::I32(vals.to_vec())
        }
    }

    /// Number of codes.
    pub fn len(&self) -> usize {
        match self {
            Codes::I16(v) => v.len(),
            Codes::I32(v) => v.len(),
        }
    }

    /// Whether no codes are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Code `i`, widened.
    pub fn get(&self, i: usize) -> i32 {
        match self {
            Codes::I16(v) => i32::from(v[i]),
            Codes::I32(v) => v[i],
        }
    }

    /// Whether the codes are stored as `i16`.
    pub fn is_narrow(&self) -> bool {
        matches!(self, Codes::I16(_))
    }

    /// `max |w|` of each row of `len` codes.
    pub(crate) fn row_max_abs(&self, len: usize) -> Vec<u32> {
        match self {
            Codes::I16(v) => v.chunks(len).map(max_abs16).collect(),
            Codes::I32(v) => v.chunks(len).map(max_abs).collect(),
        }
    }

    /// `max |w|` over the codes in `range`.
    fn max_abs(&self, range: std::ops::Range<usize>) -> u32 {
        match self {
            Codes::I16(v) => max_abs(&v[range]),
            Codes::I32(v) => max_abs(&v[range]),
        }
    }
}

/// The largest `|w|` stored as `i16`.
const NARROW_MAX: u32 = i16::MAX as u32;

/// A `[n, k]` integer weight packed into column-panel tiles (see the
/// module docs for the layout).
///
/// Fields are public so the lint/test layers can corrupt one; consumers
/// are expected to call [`PackedMat::validate`] before trusting the
/// structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedMat {
    /// Output channels (rows of the original weight).
    pub n: usize,
    /// Input features (columns of the original weight, the reduction dim).
    pub k: usize,
    /// `n.div_ceil(PANEL) * k * PANEL` codes, panel-major, at the
    /// narrowest width that holds them; entries past column `n` in the
    /// last panel are zero.
    pub data: Codes,
    /// Per-panel `max |w|`, the narrow chain's bound (see the module
    /// docs). One entry per panel; [`PackedMat::validate`] checks each
    /// against a recomputation, because an under-reported bound would let
    /// the unclamped chain overflow.
    pub panel_max: Vec<u32>,
}

/// Transposes `w` (`[n, k]`) into panel-major `data`, narrowing each code
/// to `T` (the caller has checked that every code fits).
fn pack_panels<T: Code>(w: &[i32], n: usize, k: usize) -> Vec<T> {
    let panels = n.div_ceil(PANEL);
    let mut data = vec![T::default(); panels * k * PANEL];
    for (t, panel) in data.chunks_exact_mut(k * PANEL).enumerate() {
        let cols = PANEL.min(n - t * PANEL);
        // Transposed in blocks of reduction indices, so the panel rows
        // being written stay cache-resident across the panel's columns.
        for p0 in (0..k).step_by(PACK_BLOCK) {
            let p1 = (p0 + PACK_BLOCK).min(k);
            for j in 0..cols {
                let wrow = &w[(t * PANEL + j) * k + p0..(t * PANEL + j) * k + p1];
                for (p, &wv) in (p0..p1).zip(wrow) {
                    panel[p * PANEL + j] = T::narrow(wv);
                }
            }
        }
    }
    data
}

/// Scatters the stored codes of `w` (dense columns `cols`) into zeroed
/// panel-major data, narrowing each to `T`.
fn scatter_panels<T: Code>(w: &SparseMat, cols: &[u32]) -> Vec<T> {
    let k = w.cols;
    let mut data = vec![T::default(); w.rows.div_ceil(PANEL) * k * PANEL];
    for (j, ends) in w.row_ptr.windows(2).enumerate() {
        let base = j / PANEL * k * PANEL + j % PANEL;
        let (s0, s1) = (ends[0] as usize, ends[1] as usize);
        for (&p, &v) in cols[s0..s1].iter().zip(&w.vals[s0..s1]) {
            if v != 0 {
                data[base + p as usize * PANEL] = T::narrow(v);
            }
        }
    }
    data
}

impl PackedMat {
    /// Packs a rank-2 `[n, k]` weight tensor (the `IntOp::Linear`
    /// orientation: one row per output channel), storing its codes as
    /// `i16` when every `|w| ≤ i16::MAX` and as `i32` otherwise.
    ///
    /// # Errors
    ///
    /// Returns an error if `weight` is not rank 2 or has a zero dimension.
    pub fn from_weight(weight: &Tensor<i32>) -> Result<Self> {
        require_rank(weight, 2, "PackedMat::from_weight")?;
        let (n, k) = (weight.dim(0), weight.dim(1));
        if n == 0 || k == 0 {
            return Err(TensorError::InvalidArgument(format!(
                "cannot pack a degenerate [{n}, {k}] weight"
            )));
        }
        let w = weight.as_slice();
        // Panel t holds output channels t·P..(t+1)·P: contiguous rows of
        // the dense weight, so its bound is read straight off them.
        let panel_max: Vec<u32> = w.chunks(PANEL * k).map(max_abs).collect();
        let data = if panel_max.iter().all(|&m| m <= NARROW_MAX) {
            Codes::I16(pack_panels(w, n, k))
        } else {
            Codes::I32(pack_panels(w, n, k))
        };
        Ok(PackedMat { n, k, data, panel_max })
    }

    /// Packs the dense equivalent of a sparse `[rows, cols]` weight
    /// without materializing it: stored codes are scattered straight into
    /// zeroed panels (zero slots, such as N:M padding, are left out), at
    /// the narrowest width that holds them.
    ///
    /// # Errors
    ///
    /// Returns an error if the weight has a zero dimension. The structure
    /// itself is trusted: call [`SparseMat::validate`] first.
    pub fn from_sparse(w: &SparseMat) -> Result<Self> {
        let (n, k) = (w.rows, w.cols);
        if n == 0 || k == 0 {
            return Err(TensorError::InvalidArgument(format!(
                "cannot pack a degenerate [{n}, {k}] weight"
            )));
        }
        let mut panel_max = vec![0u32; n.div_ceil(PANEL)];
        for (j, ends) in w.row_ptr.windows(2).enumerate() {
            let m = max_abs(&w.vals[ends[0] as usize..ends[1] as usize]);
            panel_max[j / PANEL] = panel_max[j / PANEL].max(m);
        }
        let cols = w.col_indices();
        let data = if panel_max.iter().all(|&m| m <= NARROW_MAX) {
            Codes::I16(scatter_panels(w, &cols))
        } else {
            Codes::I32(scatter_panels(w, &cols))
        };
        Ok(PackedMat { n, k, data, panel_max })
    }

    /// `i16` scratch values a product over `rows` activation rows needs
    /// (`crate::fused::gemm_fused_into`): one narrowed copy of the
    /// activations.
    pub fn scratch_words(&self, rows: usize) -> usize {
        rows * self.k
    }

    /// Number of column panels.
    pub fn panels(&self) -> usize {
        self.n.div_ceil(PANEL)
    }

    /// Elements of the original dense weight (padding excluded) — the
    /// count storage accounting and lint manifests use.
    pub fn logical_numel(&self) -> usize {
        self.n * self.k
    }

    /// Number of zero values in the logical weight. Assumes the padding
    /// invariant ([`PackedMat::validate`]) holds, so the structural zeros
    /// past column `n` can simply be subtracted out.
    pub fn count_zeros(&self) -> usize {
        let structural = self.panels() * self.k * PANEL - self.logical_numel();
        let zeros = match &self.data {
            Codes::I16(d) => d.iter().filter(|&&v| v == 0).count(),
            Codes::I32(d) => d.iter().filter(|&&v| v == 0).count(),
        };
        zeros - structural
    }

    /// Reconstructs the dense `[n, k]` weight, dropping the panel padding.
    ///
    /// # Errors
    ///
    /// Returns an error if the structure is invalid.
    pub fn unpack(&self) -> Result<Tensor<i32>> {
        self.validate()?;
        let (n, k) = (self.n, self.k);
        let mut out = vec![0i32; n * k];
        for (t, chans) in out.chunks_mut(PANEL * k).enumerate() {
            let base = t * k * PANEL;
            for (j, row) in chans.chunks_exact_mut(k).enumerate() {
                for (p, rv) in row.iter_mut().enumerate() {
                    *rv = self.data.get(base + p * PANEL + j);
                }
            }
        }
        Tensor::from_vec(out, &[n, k])
    }

    /// Checks the structural invariants: non-degenerate dimensions, the
    /// exact panel-padded length, zero fill past column `n` in the last
    /// panel, per-panel bounds that match the entries, and the storage
    /// width: `i16` storage only when every `|w| ≤ i16::MAX`, `i32`
    /// storage only when some code needs it (each weight is stored once,
    /// at its narrowest width).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] naming the first violated
    /// invariant.
    pub fn validate(&self) -> Result<()> {
        let (n, k) = (self.n, self.k);
        let bad = |what: String| -> Result<()> {
            Err(TensorError::InvalidArgument(format!("packed weight [{n}, {k}] {what}")))
        };
        if n == 0 || k == 0 {
            return bad("has a degenerate shape".into());
        }
        let expect = self.panels() * k * PANEL;
        if self.data.len() != expect {
            return bad(format!("stores {} values, expected {expect}", self.data.len()));
        }
        let tail = (self.panels() - 1) * k * PANEL;
        let cols = n - (self.panels() - 1) * PANEL;
        for p in 0..k {
            for j in cols..PANEL {
                if self.data.get(tail + p * PANEL + j) != 0 {
                    return bad(format!("has non-zero padding at panel entry ({p}, {j})"));
                }
            }
        }
        if self.panel_max.len() != self.panels() {
            return bad(format!(
                "stores {} panel bounds for {} panels",
                self.panel_max.len(),
                self.panels()
            ));
        }
        for (t, &m) in self.panel_max.iter().enumerate() {
            if m != self.data.max_abs(t * k * PANEL..(t + 1) * k * PANEL) {
                return bad(format!("panel {t} bound {m} disagrees with its entries"));
            }
        }
        let widest = self.panel_max.iter().copied().max().unwrap_or(0);
        if self.data.is_narrow() == (widest > NARROW_MAX) {
            return bad(format!(
                "stores codes up to |{widest}| as {}, not at the narrowest width",
                if self.data.is_narrow() { "i16" } else { "i32" }
            ));
        }
        Ok(())
    }
}

/// `max |v|` over a slice (`i32::MIN`-safe via `unsigned_abs`).
pub(crate) fn max_abs<T: Code>(vals: &[T]) -> u32 {
    vals.iter().map(|&v| v.into().unsigned_abs()).max().unwrap_or(0)
}

/// `max |v|` over `i16` values, from their extremes: a native vector
/// min/max even on the baseline SSE2 target, which has no 32-bit one.
fn max_abs16(vals: &[i16]) -> u32 {
    let (lo, hi) = vals.iter().fold((0i16, 0i16), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    u32::from(lo.unsigned_abs().max(hi.unsigned_abs()))
}

/// Whether a row with `Σ|a| = abs_sum` against codes with `max |w| =
/// max` keeps every partial sum within the `i32` rails.
pub(crate) fn saturation_free(abs_sum: u64, max: u64) -> bool {
    abs_sum.saturating_mul(max) <= i32::MAX as u64
}

/// Records call/MAC/byte counters for a packed product whose weight codes
/// take `wbytes` bytes each. One branch when profiling is disabled.
fn record_packed(op: &str, m: usize, k: usize, n: usize, wbytes: usize) {
    if t2c_obs::enabled() {
        let (m, k, n, wb) = (m as u64, k as u64, n as u64, wbytes as u64);
        t2c_obs::counter_add(&format!("{op}.calls"), 1);
        t2c_obs::counter_add(&format!("{op}.macs"), m * k * n);
        t2c_obs::counter_add(&format!("{op}.elements"), m * n);
        t2c_obs::counter_add(&format!("{op}.bytes"), (m * k + m * n) * 4 + k * n * wb);
    }
}

/// An accumulator lane of the shared tile: `i32`, or `i16` over groups
/// of reduction steps short enough that no lane wraps (the module docs'
/// grouped chain). The lanes use plain `+` and `*`: release builds emit
/// wrapping vector ops (`pmullw`/`paddw` for `i16`), and a lane that did
/// wrap would mean a broken bound, which debug builds trap.
pub(crate) trait Lane:
    Copy + Default + PartialEq + Add<Output = Self> + Mul<Output = Self> + Into<i32>
{
    /// Code `c` in this lane. Callers have checked that it fits.
    fn of<C: Code>(c: C) -> Self;
}

impl Lane for i16 {
    #[inline(always)]
    fn of<C: Code>(c: C) -> Self {
        c.into() as i16
    }
}

impl Lane for i32 {
    #[inline(always)]
    fn of<C: Code>(c: C) -> Self {
        c.into()
    }
}

/// The shortest reduction group for which the grouped chain pays: `i16`
/// lanes flushed into `i32` every `g < MIN_GROUP` steps do not beat the
/// `i32` lanes' single pass.
///
/// Measured on a 2-core Xeon host (default SSE2 target) at one thread
/// through [`crate::fused::gemm_fused_into`] on a `[128, 256]` weight
/// (the zoo MLP's fc1 shape) of ±1 codes, with activations at
/// `±⌊i16::MAX / g⌋` so that the group is exactly `g` steps long (the
/// `i32` row uses codes of ±2 against ±32767, `g = 0`). Each cell is the
/// fastest of five runs, each run the median of three best-of-200
/// timings. The tile as it was before the grouped chain existed measured
/// 3.37 and 26.1 µs in the same runs:
///
/// | chain          | batch 1 | batch 8 |
/// |----------------|---------|---------|
/// | `i32` lanes    | 3.29 µs | 25.4 µs |
/// | `i16`, `g = 1` | 4.82 µs | 37.7 µs |
/// | `i16`, `g = 2` | 3.33 µs | 25.9 µs |
/// | `i16`, `g = 3` | 2.84 µs | 21.2 µs |
/// | `i16`, `g = 4` | 2.69 µs | 20.7 µs |
/// | `i16`, `g = 8` | 1.96 µs | 14.2 µs |
/// | `i16`, `g = 16` | 1.68 µs | 12.5 µs |
/// | `i16`, `g = 85` (3-bit fc1) | 1.55 µs | 11.0 µs |
///
/// `g = 2` is a wash, `g ≥ 3` wins 15–20%, `g ≥ 8` about 1.7× and the
/// zoo MLP's `g = 85` 2.1–2.3×. It is a constant, not a setting.
const MIN_GROUP: usize = 3;

/// Reduction steps whose `i16` partial sums stay within `i16::MAX` for
/// operands bounded by `max_a` and `max_w`: `⌊i16::MAX / (max_a ·
/// max_w)⌋`, unbounded when either is 0.
pub(crate) fn group_len(max_a: u32, max_w: u32) -> usize {
    match u64::from(max_a) * u64::from(max_w) {
        0 => usize::MAX,
        prod => (i16::MAX as u64 / prod) as usize,
    }
}

/// The shared tile for the narrow and grouped chains: for each of `rows`
/// rows of `a` (`k` codes each, row stride `lda`), the `cols` products
/// against `b` (`k` rows of at least `cols` codes, row stride `ldb`),
/// handed out as `emit(row, j0, acc)` for the columns `j0..j0 +
/// acc.len()`. `g` is the block's [`group_len`]: when it reaches
/// [`MIN_GROUP`], each run of up to `g` reduction steps is summed in
/// `i16` lanes and flushed into the `i32` accumulators (the grouped
/// chain); otherwise the whole reduction is summed in `i32` lanes (the
/// narrow chain).
///
/// Columns go in power-of-two chunks of at most [`PANEL`], widest first,
/// so a width that is not a multiple of the panel (a 4×4 or 5×5 output
/// plane, a 10-channel head) pays for no padding columns. Each chunk is
/// a fixed-width array the compiler keeps in vector registers.
///
/// The caller guarantees that every partial sum stays within the `i32`
/// rails and that `g · max|a| · max|w| ≤ i16::MAX` (the module docs'
/// bounds); the products are then exact and the result equals the
/// clamped chain's.
#[allow(clippy::too_many_arguments)]
pub(crate) fn narrow_tile<A: Code, B: Code>(
    a: &[A],
    lda: usize,
    rows: usize,
    k: usize,
    b: &[B],
    ldb: usize,
    cols: usize,
    g: usize,
    emit: impl FnMut(usize, usize, &[i32]),
) {
    if g >= MIN_GROUP {
        columns::<i16, A, B>(a, lda, rows, k, b, ldb, cols, g, emit);
    } else {
        columns::<i32, A, B>(a, lda, rows, k, b, ldb, cols, k, emit);
    }
}

/// [`narrow_tile`] in lanes of `L`, summed over runs of `g` steps.
#[allow(clippy::too_many_arguments)]
fn columns<L: Lane, A: Code, B: Code>(
    a: &[A],
    lda: usize,
    rows: usize,
    k: usize,
    b: &[B],
    ldb: usize,
    cols: usize,
    g: usize,
    mut emit: impl FnMut(usize, usize, &[i32]),
) {
    let mut j0 = 0;
    while j0 < cols {
        let w = 1usize << (cols - j0).min(PANEL).ilog2();
        let (bj, mut e) = (&b[j0..], |r: usize, acc: &[i32]| emit(r, j0, acc));
        match w {
            64 => tile::<L, A, B, 64>(a, lda, rows, k, bj, ldb, g, &mut e),
            32 => tile::<L, A, B, 32>(a, lda, rows, k, bj, ldb, g, &mut e),
            16 => tile::<L, A, B, 16>(a, lda, rows, k, bj, ldb, g, &mut e),
            8 => tile::<L, A, B, 8>(a, lda, rows, k, bj, ldb, g, &mut e),
            4 => tile::<L, A, B, 4>(a, lda, rows, k, bj, ldb, g, &mut e),
            2 => tile::<L, A, B, 2>(a, lda, rows, k, bj, ldb, g, &mut e),
            _ => tile::<L, A, B, 1>(a, lda, rows, k, bj, ldb, g, &mut e),
        }
        j0 += w;
    }
}

/// One `rows × W` chunk of [`columns`]: each row's `W` accumulators
/// stay in registers across the whole reduction. A reduction that fits
/// one group (always, for `i32` lanes) is summed straight into them.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tile<L: Lane, A: Code, B: Code, const W: usize>(
    a: &[A],
    lda: usize,
    rows: usize,
    k: usize,
    b: &[B],
    ldb: usize,
    g: usize,
    emit: &mut impl FnMut(usize, &[i32]),
) {
    for r in 0..rows {
        let arow = &a[r * lda..r * lda + k];
        let acc: [i32; W] = if g >= k {
            group_sum::<L, A, B, W>(arow, 0, b, ldb).map(Into::into)
        } else {
            let mut acc = [0i32; W];
            for (q, group) in arow.chunks(g).enumerate() {
                let lanes = group_sum::<L, A, B, W>(group, q * g, b, ldb);
                for (o, v) in acc.iter_mut().zip(lanes) {
                    *o += v.into();
                }
            }
            acc
        };
        emit(r, &acc);
    }
}

/// `Σ_p a[p] · b[p0 + p][..W]` in lanes of `L`. Zero codes of `a` are
/// skipped (a zero product changes nothing).
#[inline(always)]
fn group_sum<L: Lane, A: Code, B: Code, const W: usize>(
    a: &[A],
    p0: usize,
    b: &[B],
    ldb: usize,
) -> [L; W] {
    let mut lanes = [L::default(); W];
    for (p, &av) in (p0..).zip(a) {
        let av = L::of(av);
        if av == L::default() {
            continue;
        }
        let brow: &[B; W] = b[p * ldb..p * ldb + W].try_into().expect("W columns");
        for (o, &bv) in lanes.iter_mut().zip(brow) {
            *o = *o + av * L::of(bv);
        }
    }
    lanes
}

/// The clamped reference chain for `rows` activation rows `a` (`k` each)
/// against the first `cols` columns of one `[k × PANEL]` panel: `i64`
/// accumulate and clamp after every MAC, `p` ascending per element.
fn clamped_tile<B: Code>(
    a: &[i32],
    rows: usize,
    k: usize,
    panel: &[B],
    cols: usize,
    mut emit: impl FnMut(usize, usize, &[i32]),
) {
    for r in 0..rows {
        let mut acc = [0i32; PANEL];
        for (p, &av) in a[r * k..(r + 1) * k].iter().enumerate() {
            if av == 0 {
                continue; // zero product: a saturation no-op
            }
            let av = i64::from(av);
            for (o, &bv) in acc.iter_mut().zip(&panel[p * PANEL..p * PANEL + cols]) {
                let sum = i64::from(*o) + av * i64::from(bv.into());
                *o = sum.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32;
            }
        }
        emit(r, 0, &acc[..cols]);
    }
}

/// Narrows `x` (rows of `k`) into `dst` and returns whether every value
/// fit `i16`, the largest row `Σ|a|` and, if every value fit, `max|a|` —
/// one pass. The extremes are taken over the narrowed `i16` values, a
/// native vector min/max even on the baseline SSE2 target.
fn narrow_rows(x: &[i32], dst: &mut [i16], k: usize) -> (bool, u64, u32) {
    let (mut fits, mut widest, mut lo, mut hi) = (true, 0u64, 0i16, 0i16);
    for (xr, dr) in x.chunks_exact(k).zip(dst.chunks_exact_mut(k)) {
        let mut sum = 0u64;
        for (d, &v) in dr.iter_mut().zip(xr) {
            *d = i16::narrow(v);
            fits &= i32::from(*d) == v;
            sum += u64::from(v.unsigned_abs());
            (lo, hi) = (lo.min(*d), hi.max(*d));
        }
        widest = widest.max(sum);
    }
    (fits, widest, u32::from(lo.unsigned_abs().max(hi.unsigned_abs())))
}

/// The packed product with a per-element epilogue: `[rows, w.k]`
/// activations `x` × `w` → `out[i·n + j] = epi(acc, j)`, narrowing the
/// activations into `scratch` (at least [`PackedMat::scratch_words`]
/// long).
/// Shapes are the caller's to check; the structure is trusted.
pub(crate) fn gemm_into<E>(
    x: &[i32],
    rows: usize,
    w: &PackedMat,
    scratch: &mut [i16],
    epi: &E,
    out: &mut [i32],
) where
    E: Fn(i32, usize) -> i32 + Sync,
{
    match &w.data {
        Codes::I16(d) => gemm_run(x, rows, w, d, scratch, epi, out),
        Codes::I32(d) => gemm_run(x, rows, w, d, scratch, epi, out),
    }
}

fn gemm_run<B: Code, E>(
    x: &[i32],
    rows: usize,
    w: &PackedMat,
    data: &[B],
    scratch: &mut [i16],
    epi: &E,
    out: &mut [i32],
) where
    E: Fn(i32, usize) -> i32 + Sync,
{
    let (n, k) = (w.n, w.k);
    let scratch = &mut scratch[..rows * k];
    // Workers own disjoint row runs of `out` and of the narrowed copy.
    par_units2(out, scratch, n, k, |row0, run, narrow| {
        let nrows = run.len() / n;
        for r0 in (0..nrows).step_by(MR) {
            let rblk = MR.min(nrows - r0);
            let xb = &x[(row0 + r0) * k..(row0 + r0 + rblk) * k];
            let ab = &mut narrow[r0 * k..(r0 + rblk) * k];
            let (fits, abs_sum, max_a) = narrow_rows(xb, ab, k);
            let ob = &mut run[r0 * n..(r0 + rblk) * n];
            for (t, panel) in data.chunks_exact(k * PANEL).enumerate() {
                let c0 = t * PANEL;
                let emit = |r: usize, j0: usize, acc: &[i32]| {
                    let dst = &mut ob[r * n + c0 + j0..r * n + c0 + j0 + acc.len()];
                    for (j, (o, &v)) in dst.iter_mut().zip(acc).enumerate() {
                        *o = epi(v, c0 + j0 + j);
                    }
                };
                let (cols, max_w) = (PANEL.min(n - c0), w.panel_max[t]);
                if fits && saturation_free(abs_sum, u64::from(max_w)) {
                    let g = group_len(max_a, max_w);
                    narrow_tile(ab, k, rblk, k, panel, PANEL, cols, g, emit);
                } else {
                    clamped_tile(xb, rblk, k, panel, cols, emit);
                }
            }
        }
    });
}

/// Packed integer matrix product: `[m, k]` activations × packed `[n, k]`
/// weight → `[m, n]`, with the same per-MAC i64→i32 saturation as
/// `Tensor::matmul_i` — bit-identical to
/// `x.matmul_i(&w.unpack()?.transpose()?)` at any thread count (see the
/// module docs).
///
/// Work is partitioned over row runs through [`crate::parallel`], each
/// owned by exactly one worker; within a run, blocks of 8 (`MR`) rows are
/// narrowed once and then swept across every panel.
///
/// # Errors
///
/// Returns an error if `x` is not rank 2, the reduction dimensions
/// disagree, or the packed structure is invalid.
pub fn matmul_i32_sat_packed(x: &Tensor<i32>, w: &PackedMat) -> Result<Tensor<i32>> {
    require_rank(x, 2, "matmul_i32_sat_packed")?;
    w.validate()?;
    let (m, k) = (x.dim(0), x.dim(1));
    if k != w.k {
        return Err(TensorError::ShapeMismatch {
            lhs: x.dims().to_vec(),
            rhs: vec![w.n, w.k],
            op: "matmul_i32_sat_packed",
        });
    }
    let n = w.n;
    let _t = t2c_obs::Timer::scoped("kernel.matmul_i32_packed.time_ns");
    let wbytes = if w.data.is_narrow() { 2 } else { 4 };
    record_packed("kernel.matmul_i32_packed", m, k, n, wbytes);
    let mut scratch = vec![0i16; w.scratch_words(m)];
    let mut out = vec![0i32; m * n];
    gemm_into(x.as_slice(), m, w, &mut scratch, &|acc, _| acc, &mut out);
    Tensor::from_vec(out, &[m, n])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::with_threads;
    use crate::Tensor;

    fn pseudo_i(dims: &[usize], seed: u64, span: i64) -> Tensor<i32> {
        Tensor::from_fn(dims, |i| {
            let h = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed);
            ((h >> 33) as i64 % span - span / 2) as i32
        })
    }

    fn dense_reference(x: &Tensor<i32>, w: &Tensor<i32>) -> Tensor<i32> {
        x.matmul_i(&w.transpose().unwrap()).unwrap()
    }

    #[test]
    fn pack_unpack_round_trips() {
        for (n, k) in [(1, 1), (10, 3), (64, 64), (65, 7), (130, 9)] {
            let w = pseudo_i(&[n, k], 5, 255);
            let packed = PackedMat::from_weight(&w).unwrap();
            packed.validate().unwrap();
            assert_eq!(packed.panels(), n.div_ceil(PANEL));
            assert_eq!(packed.logical_numel(), n * k);
            assert_eq!(packed.unpack().unwrap().as_slice(), w.as_slice());
        }
    }

    #[test]
    fn packed_matmul_matches_dense_across_shapes_and_threads() {
        // Shapes straddle the panel edge and the MR row-block edge.
        for (m, k, n) in [(1, 1, 1), (3, 5, 2), (8, 16, 64), (9, 17, 65), (23, 40, 130)] {
            let x = pseudo_i(&[m, k], 11, 255);
            let w = pseudo_i(&[n, k], 13, 255);
            let packed = PackedMat::from_weight(&w).unwrap();
            let expect = dense_reference(&x, &w);
            for threads in [1, 2, 8] {
                let got = with_threads(threads, || matmul_i32_sat_packed(&x, &packed).unwrap());
                assert_eq!(
                    got.as_slice(),
                    expect.as_slice(),
                    "m={m} k={k} n={n} threads={threads}"
                );
                assert_eq!(got.dims(), &[m, n]);
            }
        }
    }

    #[test]
    fn packed_matmul_saturates_identically_at_the_rails() {
        // Large magnitudes force the per-MAC clamp to engage mid-reduction;
        // interleaved zeros exercise the skip path.
        let x = Tensor::from_fn(&[4, 9], |i| match i % 4 {
            0 => i32::MAX,
            1 => 0,
            2 => i32::MIN,
            _ => (i as i32 % 89) - 44,
        });
        let w = Tensor::from_fn(&[70, 9], |i| match i % 3 {
            0 => i32::MAX / 2,
            1 => 0,
            _ => -(i as i32 % 97),
        });
        let packed = PackedMat::from_weight(&w).unwrap();
        let expect = dense_reference(&x, &w);
        for threads in [1, 4] {
            let got = with_threads(threads, || matmul_i32_sat_packed(&x, &packed).unwrap());
            assert_eq!(got.as_slice(), expect.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn validate_rejects_corrupted_structure() {
        let w = pseudo_i(&[65, 4], 3, 100);
        let good = PackedMat::from_weight(&w).unwrap();

        assert!(good.data.is_narrow(), "int8-range codes are stored as i16");
        let Codes::I16(codes) = &good.data else { unreachable!() };
        let corrupt = |codes: Vec<i16>| PackedMat { data: Codes::I16(codes), ..good.clone() };

        let mut short = codes.clone();
        short.pop();
        let truncated = corrupt(short);
        assert!(truncated.validate().is_err());

        let mut dirty = codes.clone();
        // Panel 1 holds columns 64..128; column 65 is padding for n = 65.
        *dirty.last_mut().unwrap() = 7;
        assert!(corrupt(dirty).validate().is_err());

        // An i16 code of -32768 (|w| past i16::MAX) with a bound that
        // honestly reports it: the storage width itself is invalid.
        let mut too_wide = corrupt(codes.clone());
        let Codes::I16(c) = &mut too_wide.data else { unreachable!() };
        c[0] = i16::MIN;
        too_wide.panel_max[0] = 32768;
        assert!(too_wide.validate().is_err());

        // The same codes widened to i32: not the narrowest width.
        let widened = PackedMat {
            data: Codes::I32(codes.iter().map(|&v| i32::from(v)).collect()),
            ..good.clone()
        };
        assert!(widened.validate().is_err());

        let mut lying_bound = good.clone();
        // An under-reported bound would wrongly license the unclamped
        // fast path; validate must reject it.
        lying_bound.panel_max[0] = 0;
        assert!(lying_bound.validate().is_err());

        let degenerate =
            PackedMat { n: 0, k: 4, data: Codes::I16(Vec::new()), panel_max: Vec::new() };
        assert!(degenerate.validate().is_err());
        assert!(matmul_i32_sat_packed(&pseudo_i(&[2, 4], 1, 10), &truncated).is_err());
    }

    #[test]
    fn sparse_weights_pack_like_their_dense_equivalent() {
        for (n, k) in [(1, 1), (10, 3), (65, 7), (130, 9)] {
            let w = Tensor::from_fn(&[n, k], |i| if i % 3 == 0 { (i as i32 % 11) - 5 } else { 0 });
            let sp = SparseMat::from_dense(&w).unwrap();
            assert_eq!(PackedMat::from_sparse(&sp).unwrap(), PackedMat::from_weight(&w).unwrap());
            let nm = SparseMat::from_dense_nm(&w, 2, 4).unwrap();
            let dense = PackedMat::from_weight(&nm.to_dense()).unwrap();
            assert_eq!(PackedMat::from_sparse(&nm).unwrap(), dense);
        }
        let wide = Tensor::from_fn(&[3, 4], |i| if i == 5 { -40_000 } else { 0 });
        let packed = PackedMat::from_sparse(&SparseMat::from_dense(&wide).unwrap()).unwrap();
        assert!(!packed.data.is_narrow());
        assert_eq!(packed.unpack().unwrap().as_slice(), wide.as_slice());
    }

    #[test]
    fn weights_past_i16_are_stored_as_i32() {
        for (edge, narrow) in [(32767, true), (-32767, true), (-32768, false), (32768, false)] {
            let w = Tensor::from_fn(&[3, 5], |i| if i == 7 { edge } else { (i as i32 % 5) - 2 });
            let packed = PackedMat::from_weight(&w).unwrap();
            assert_eq!(packed.data.is_narrow(), narrow, "edge code {edge}");
            packed.validate().unwrap();
            assert_eq!(packed.unpack().unwrap().as_slice(), w.as_slice());
            assert_eq!(Codes::narrowest(w.as_slice()).is_narrow(), narrow);
        }
    }

    #[test]
    fn group_len_keeps_every_group_within_i16() {
        assert_eq!(group_len(0, 127), usize::MAX, "zero activations never wrap");
        assert_eq!(group_len(128, 0), usize::MAX, "zero weights never wrap");
        assert_eq!(group_len(128, 3), 85, "3-bit fc1 against s8 activations");
        assert_eq!(group_len(255, 2), 64, "3-bit head against u8 activations");
        assert_eq!(group_len(128, 127), 2, "8-bit operands stay below MIN_GROUP");
        assert_eq!(group_len(32768, 1), 0, "-32768 against 1-bit weights");
        for (a, w) in [(1, 1), (128, 3), (217, 1), (4681, 7), (32767, 1)] {
            let (g, prod) = (group_len(a, w) as u64, u64::from(a) * u64::from(w));
            assert!(g * prod <= i16::MAX as u64 && (g + 1) * prod > i16::MAX as u64);
        }
    }

    #[test]
    fn packed_matmul_rejects_mismatched_inner_dim() {
        let w = pseudo_i(&[8, 5], 1, 10);
        let packed = PackedMat::from_weight(&w).unwrap();
        let x = pseudo_i(&[2, 6], 2, 10);
        assert!(matmul_i32_sat_packed(&x, &packed).is_err());
    }
}
