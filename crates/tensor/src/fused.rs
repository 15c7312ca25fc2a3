//! Fused integer kernels: MAC loops with a caller-supplied epilogue.
//!
//! Compiled execution plans (`t2c-core`'s `plan` module) collapse the
//! interpreter's `MAC → bias → requant → activation` node chain into a
//! single kernel call. The kernels write the **narrow** epilogue result
//! into the caller's buffer; the wide `i32` accumulator never
//! materializes as a separate tensor.
//!
//! * [`gemm_fused_into`] / [`spmm_fused_into`] — the cache-blocked
//!   [`crate::packed`] and skip-zero [`crate::sparse`] loops; each output
//!   element passes through `epi(acc, out_channel)` as it leaves the
//!   per-worker accumulator.
//! * [`dwconv_fused_into`] — direct depthwise convolution: reads each
//!   NCHW input plane in place (no im2col), tap by tap, accumulating the
//!   output plane in the destination.
//! * [`conv_gemm_fused_into`] — every other convolution: im2col of one
//!   (image, group) straight into an `i16` patch block in caller scratch,
//!   then a weight-stationary `[ocg, k] × [k, oh·ow]` product whose output
//!   rows are the destination's spatial-contiguous channel rows (the
//!   interpreter's orientation). 1×1 stride-1 unpadded convs skip the
//!   im2col: their input block already is the patch block, and is only
//!   narrow-copied.
//!
//! The convolution kernels accumulate whole output-channel rows in place
//! and then call `epi(row, out_channel)` to rewrite the row, so the
//! epilogue looks up its per-channel constants once per row.
//!
//! # Bit-identity
//!
//! The interpreter's kernels clamp the `i64` accumulator back into `i32`
//! after **every** MAC, in ascending reduction order; a zero product is a
//! no-op. The GEMM/SpMM kernels keep that chain for every output element
//! or take the narrow or grouped `i16` chain where it provably gives the
//! same result (see the `packed`/`sparse` module docs). The convolution
//! kernels visit each output element's reduction index `(ci, ki, kj)` in
//! ascending order too, skipping only zero weights and padding taps (zero
//! products). `im2col-gemm` chooses per block of 8 (`MR`)
//! output channels, and `dwconv-direct` per channel, between two chains:
//!
//! * **unclamped**: when `Σ|w|` of each output channel (computed when the
//!   weight is prepared) × `max|x|` over the input group (computed per
//!   call) is at most `i32::MAX`, every partial sum of every element of
//!   the row is bounded by it, so the per-MAC clamp provably never
//!   engages and plain `i32` multiply-adds (which the compiler
//!   vectorizes, and which may be regrouped) give the same result.
//!   `im2col-gemm` additionally needs the input group to fit `i16` (the
//!   patch block holds `i16`); it then runs the GEMM's narrow tile, with
//!   weight rows standing in for activation rows and patch-block columns
//!   for the panel. Weights are stored once at the narrowest width that
//!   holds them, so the `i16 × i16` products are exact in `i32`. When
//!   `g = ⌊i16::MAX / (max|w| · max|x|)⌋` — `max|w|` over the block's
//!   channels (computed when the weight is prepared, beside `Σ|w|`),
//!   `max|x|` the same per-call value — reaches the tile's measured
//!   minimum of 3, the tile runs its grouped form: runs of up to `g`
//!   reduction steps summed in `i16` lanes, each run flushed into `i32`.
//!   No run's partial sum passes `g · max|w| · max|x| ≤ i16::MAX`, so no
//!   lane wraps, and the flushed `i32` sums are prefix sums of exact
//!   products under the same `Σ|w| · max|x|` bound: the result is
//!   unchanged (`crate::packed` has the full argument). 4-bit weights
//!   (`max|w| ≤ 7`) against `u8` activations give `g ≥ 18`;
//! * **clamped `i64`**: otherwise, the reference chain itself, in
//!   ascending order, read directly from the input (no patch block).
//!
//! Every epilogue is a pure function of the finished accumulator and its
//! output channel — exactly what the interpreter's separate
//! bias/requant/LUT passes compute element-wise. Workers own disjoint
//! output units, so results are bit-identical to the unfused chain at any
//! thread count.
//!
//! # Trust contract
//!
//! These entry points check the shapes they are handed but — unlike the
//! public kernels — do **not** re-validate the packed/sparse weight
//! structure on every call: plans validate once at compile time, and
//! re-walking the weight per inference would defeat the point of the
//! fused path. A corrupted structure panics on an out-of-bounds index
//! (this crate forbids `unsafe`), it cannot read out of bounds.
//! [`ConvWeight`] keeps its fields private, so its `Σ|w|` bounds and
//! storage width always match its weights.
//!
//! Every kernel here performs **zero heap allocations** when the resolved
//! worker count is 1: accumulator tiles live on the stack, convolutions
//! accumulate in the destination, and the narrowed activations and the
//! im2col patch block live in caller-provided `i16` scratch.

use crate::ops::{require_rank, Conv2dSpec};
use crate::packed::{
    gemm_into, group_len, max_abs, narrow_tile, saturation_free, Code, Codes, PackedMat, MR,
};
use crate::parallel::par_units;
use crate::sparse::{spmm_rows, SparseMat, SPMM_BLOCK};
use crate::{Result, Tensor, TensorError};

/// Packed GEMM with fused epilogue: `[rows, w.k]` activations (`x`, row
/// major) × packed `[w.n, w.k]` weight, writing
/// `epi(acc[i][j], j)` into `out[i * w.n + j]`. The activations are
/// narrowed into `scratch`, which must hold at least
/// [`PackedMat::scratch_words`] values.
///
/// Bit-identical to [`crate::packed::matmul_i32_sat_packed`] followed by
/// an element-wise `epi` pass, at any thread count. Performs no heap
/// allocation when the resolved worker count is 1.
///
/// # Errors
///
/// Returns an error if `x` or `out` disagree with `rows` and the packed
/// dimensions, or `scratch` is too short.
pub fn gemm_fused_into<E>(
    x: &[i32],
    rows: usize,
    w: &PackedMat,
    scratch: &mut [i16],
    epi: &E,
    out: &mut [i32],
) -> Result<()>
where
    E: Fn(i32, usize) -> i32 + Sync,
{
    let (n, k) = (w.n, w.k);
    if x.len() != rows * k || out.len() != rows * n {
        return Err(TensorError::InvalidArgument(format!(
            "gemm_fused_into: {} activations / {} outputs do not form [{rows}, {k}] x [{n}, {k}]",
            x.len(),
            out.len()
        )));
    }
    if scratch.len() < w.scratch_words(rows) {
        return Err(TensorError::InvalidArgument(format!(
            "gemm_fused_into: {} scratch values, the narrowed activations need {}",
            scratch.len(),
            w.scratch_words(rows)
        )));
    }
    let _t = t2c_obs::Timer::scoped("kernel.gemm_fused.time_ns");
    record_fused("kernel.gemm_fused", rows, k, n);
    gemm_into(x, rows, w, scratch, epi, out);
    Ok(())
}

/// Sparse skip-zero matmul with fused epilogue: `[rows, w.cols]`
/// activations × compressed `[w.rows, w.cols]` weight, writing
/// `epi(acc[i][j], j)` into `out[i * w.rows + j]`.
///
/// `cols` must be `w.col_indices()` precomputed by the caller (plans do
/// this at compile time so the steady state allocates nothing).
/// Bit-identical to [`crate::sparse::matmul_sparse_i`] followed by an
/// element-wise `epi` pass, at any thread count.
///
/// # Errors
///
/// Returns an error if `x`, `cols` or `out` disagree with `rows` and the
/// sparse dimensions.
pub fn spmm_fused_into<E>(
    x: &[i32],
    rows: usize,
    w: &SparseMat,
    cols: &[u32],
    epi: &E,
    out: &mut [i32],
) -> Result<()>
where
    E: Fn(i32, usize) -> i32 + Sync,
{
    let (n_out, k) = (w.rows, w.cols);
    if x.len() != rows * k || out.len() != rows * n_out {
        return Err(TensorError::InvalidArgument(format!(
            "spmm_fused_into: {} activations / {} outputs do not form [{rows}, {k}] x [{n_out}, {k}]",
            x.len(),
            out.len()
        )));
    }
    if cols.len() != w.vals.len() {
        return Err(TensorError::InvalidArgument(format!(
            "spmm_fused_into: {} column indices for {} stored values",
            cols.len(),
            w.vals.len()
        )));
    }
    let _t = t2c_obs::Timer::scoped("kernel.spmm_fused.time_ns");
    record_fused("kernel.spmm_fused", rows, k, n_out);
    par_units(out, n_out.max(1), |row0, run| {
        let n = n_out.max(1);
        let nrows = run.len() / n;
        let mut r = 0;
        while r + SPMM_BLOCK <= nrows {
            for j in 0..n_out {
                let (start, end) = (w.row_ptr[j] as usize, w.row_ptr[j + 1] as usize);
                let acc = spmm_rows::<SPMM_BLOCK>(
                    x,
                    (row0 + r) * k,
                    k,
                    &cols[start..end],
                    &w.vals[start..end],
                );
                for (t, a) in acc.iter().enumerate() {
                    run[(r + t) * n + j] = epi(*a as i32, j);
                }
            }
            r += SPMM_BLOCK;
        }
        while r < nrows {
            for j in 0..n_out {
                let (start, end) = (w.row_ptr[j] as usize, w.row_ptr[j + 1] as usize);
                let acc =
                    spmm_rows::<1>(x, (row0 + r) * k, k, &cols[start..end], &w.vals[start..end]);
                run[r * n + j] = epi(acc[0] as i32, j);
            }
            r += 1;
        }
    });
    Ok(())
}

/// A dense `[oc, cg, kh, kw]` convolution weight prepared, for one input
/// sample shape, for the fused convolution kernels
/// ([`dwconv_fused_into`], [`conv_gemm_fused_into`]).
///
/// Besides the weight rows in their dense `[oc, cg·kh·kw]` flattening —
/// stored once, at the narrowest width that holds them ([`Codes`]) — it
/// keeps `Σ|w|` and `max|w|` per output channel: the compile-time halves
/// of the saturation-free bound and of the grouped chain's group length
/// (module docs). Fields are private so the bounds and the width always
/// match the weights.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvWeight {
    in_chw: [usize; 3],
    oc: usize,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
    oh: usize,
    ow: usize,
    rows: Codes,
    abs_sum: Vec<u64>,
    abs_max: Vec<u32>,
}

impl ConvWeight {
    /// Prepares `weight` for per-sample inputs of shape `in_chw`
    /// (`[C, H, W]`).
    ///
    /// # Errors
    ///
    /// Returns an error if `weight` or `in_chw` has a zero dimension, the
    /// weight is not rank 4, or it disagrees with the input channels,
    /// groups or spatial extent.
    pub fn new(weight: &Tensor<i32>, spec: Conv2dSpec, in_chw: [usize; 3]) -> Result<Self> {
        require_rank(weight, 4, "ConvWeight::new")?;
        let (oc, cg, kh, kw) = (weight.dim(0), weight.dim(1), weight.dim(2), weight.dim(3));
        let [c, h, w] = in_chw;
        let g = spec.groups;
        if oc == 0 || cg == 0 || g == 0 || c % g != 0 || oc % g != 0 || cg != c / g {
            return Err(TensorError::InvalidGeometry(format!(
                "conv weight [{oc}, {cg}, {kh}, {kw}] with {g} group(s) cannot read {c} channel(s)"
            )));
        }
        if h == 0 || w == 0 {
            return Err(TensorError::InvalidGeometry(format!("empty input plane {h}x{w}")));
        }
        let (oh, ow) = (spec.out_extent(h, kh)?, spec.out_extent(w, kw)?);
        let vals = weight.as_slice();
        let abs_sum: Vec<u64> = vals
            .chunks(cg * kh * kw)
            .map(|r| r.iter().map(|v| u64::from(v.unsigned_abs())).sum())
            .collect();
        // No code exceeds its row's Σ|w|: small sums settle the width
        // without a separate max pass.
        let rows = if abs_sum.iter().all(|&s| s <= i16::MAX as u64) {
            Codes::I16(vals.iter().map(|&v| v as i16).collect())
        } else {
            Codes::narrowest(vals)
        };
        let abs_max = rows.row_max_abs(cg * kh * kw);
        Ok(ConvWeight { in_chw, oc, kh, kw, spec, oh, ow, rows, abs_sum, abs_max })
    }

    /// One input and one output channel per group: the direct kernel's
    /// case.
    pub fn is_depthwise(&self) -> bool {
        self.spec.groups == self.in_chw[0] && self.spec.groups == self.oc
    }

    /// Whether the weight codes are stored as `i16` (every `|w| ≤
    /// i16::MAX`).
    pub fn is_narrow(&self) -> bool {
        self.rows.is_narrow()
    }

    /// `i16` scratch values [`conv_gemm_fused_into`] needs: one (image,
    /// group) patch block `[cg·kh·kw, oh·ow]` (for a 1×1, stride-1,
    /// unpadded conv, the narrowed input block itself).
    pub fn scratch_words(&self) -> usize {
        self.k() * self.l()
    }

    /// Output values per sample (`oc · oh · ow`).
    fn out_len(&self) -> usize {
        self.oc * self.l()
    }

    fn im2col_is_identity(&self) -> bool {
        self.kh == 1 && self.kw == 1 && self.spec.stride == 1 && self.spec.padding == 0
    }

    fn k(&self) -> usize {
        self.in_chw[0] / self.spec.groups * self.kh * self.kw
    }

    fn l(&self) -> usize {
        self.oh * self.ow
    }

    /// The batch `x` and `out` hold, if both are whole samples of it.
    fn batch(&self, x: &[i32], out: &[i32], op: &str) -> Result<usize> {
        let in_len: usize = self.in_chw.iter().product();
        let n = x.len() / in_len;
        if x.len() != n * in_len || out.len() != n * self.out_len() {
            return Err(TensorError::InvalidArgument(format!(
                "{op}: {} inputs / {} outputs are not whole samples of {:?} -> [{}, {}, {}]",
                x.len(),
                out.len(),
                self.in_chw,
                self.oc,
                self.oh,
                self.ow
            )));
        }
        Ok(n)
    }
}

/// One multiply-accumulate: the reference's clamped `i64` step, or the
/// plain `i32` step when the caller has proven the clamp never engages.
#[inline(always)]
fn mac<const CLAMP: bool>(acc: i32, w: i32, x: i32) -> i32 {
    if CLAMP {
        (i64::from(acc) + i64::from(w) * i64::from(x))
            .clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32
    } else {
        acc + w * x
    }
}

/// Output positions `o` of an axis whose input index
/// `o·stride + tap − padding` lands inside `[0, extent)`, as `lo..hi`.
fn valid_range(
    outs: usize,
    stride: usize,
    padding: usize,
    tap: usize,
    extent: usize,
) -> (usize, usize) {
    let lo = if padding > tap { (padding - tap).div_ceil(stride) } else { 0 };
    let hi = if extent + padding > tap {
        ((extent + padding - tap - 1) / stride + 1).min(outs)
    } else {
        0
    };
    (lo.min(hi), hi)
}

/// Calls `f(dst, src_start)` for every output row segment of one kernel
/// tap `(ki, kj)`: `dst` is the in-bounds run `oj0..oj1` of output row
/// `oi`, `src_start` the offset in the `[h, w]` plane of the input value
/// under its first element (later ones follow at the stride).
#[inline(always)]
fn for_tap_rows<T>(
    w: &ConvWeight,
    ki: usize,
    kj: usize,
    plane_out: &mut [T],
    mut f: impl FnMut(&mut [T], usize),
) {
    let [_, h, wd] = w.in_chw;
    let (s, pad) = (w.spec.stride, w.spec.padding);
    let (oi0, oi1) = valid_range(w.oh, s, pad, ki, h);
    let (oj0, oj1) = valid_range(w.ow, s, pad, kj, wd);
    if oj0 == oj1 {
        return;
    }
    for oi in oi0..oi1 {
        let start = (oi * s + ki - pad) * wd + oj0 * s + kj - pad;
        f(&mut plane_out[oi * w.ow + oj0..oi * w.ow + oj1], start);
    }
}

/// `dst[j] = mac(dst[j], wv, src[start + j·stride])` over `dst`.
#[inline(always)]
fn axpy_strided<const CLAMP: bool>(dst: &mut [i32], wv: i32, src: &[i32], start: usize, s: usize) {
    if s == 1 {
        let len = dst.len();
        for (o, &xv) in dst.iter_mut().zip(&src[start..start + len]) {
            *o = mac::<CLAMP>(*o, wv, xv);
        }
    } else {
        for (o, &xv) in dst.iter_mut().zip(src[start..].iter().step_by(s)) {
            *o = mac::<CLAMP>(*o, wv, xv);
        }
    }
}

/// One output row (plane) of a direct convolution, read in place from
/// the input group `xg` (`cg` planes): reduction index `(ci, ki, kj)`
/// outermost, so every output element sees it ascending. Zero weights and
/// padding taps (zero products) are skipped.
fn direct_row<A: Code, const CLAMP: bool>(
    w: &ConvWeight,
    wrow: &[A],
    xg: &[i32],
    orow: &mut [i32],
) {
    let plane = w.in_chw[1] * w.in_chw[2];
    let taps = w.kh * w.kw;
    orow.fill(0);
    for (xc, wc) in xg.chunks_exact(plane).zip(wrow.chunks_exact(taps)) {
        for ki in 0..w.kh {
            for kj in 0..w.kw {
                let wv: i32 = wc[ki * w.kw + kj].into();
                if wv == 0 {
                    continue; // zero product: a saturation no-op
                }
                for_tap_rows(w, ki, kj, orow, |dst, start| {
                    axpy_strided::<CLAMP>(dst, wv, xc, start, w.spec.stride);
                });
            }
        }
    }
}

/// Direct depthwise convolution with fused epilogue: `[N, C, H, W]` ⊛ a
/// depthwise `[C, 1, KH, KW]` weight into `out` in `[N, C, OH, OW]`
/// order. It reads the input planes in place (no im2col), accumulates
/// each output plane in `out` and then calls `epi(plane, c)` to rewrite
/// the plane's accumulators in place.
///
/// Bit-identical to [`crate::ops::conv2d_i32`] followed by an
/// element-wise `epi` pass, at any thread count. Performs no heap
/// allocation when the resolved worker count is 1.
///
/// # Errors
///
/// Returns an error if `w` is not depthwise or `x`/`out` are not whole
/// samples of its geometry.
pub fn dwconv_fused_into<E>(x: &[i32], w: &ConvWeight, epi: &E, out: &mut [i32]) -> Result<()>
where
    E: Fn(&mut [i32], usize) + Sync,
{
    if !w.is_depthwise() {
        return Err(TensorError::InvalidGeometry(format!(
            "dwconv_fused_into: {} group(s) over {} channel(s) is not depthwise",
            w.spec.groups, w.in_chw[0]
        )));
    }
    let n = w.batch(x, out, "dwconv_fused_into")?;
    let _t = t2c_obs::Timer::scoped("kernel.dwconv_fused.time_ns");
    record_fused("kernel.dwconv_fused", n * w.l(), w.kh * w.kw, w.in_chw[0]);
    match &w.rows {
        Codes::I16(rows) => dwconv_run(x, w, rows, epi, out),
        Codes::I32(rows) => dwconv_run(x, w, rows, epi, out),
    }
    Ok(())
}

fn dwconv_run<A: Code, E>(x: &[i32], w: &ConvWeight, rows: &[A], epi: &E, out: &mut [i32])
where
    E: Fn(&mut [i32], usize) + Sync,
{
    let [c, h, wd] = w.in_chw;
    let (l, taps) = (w.l(), w.kh * w.kw);
    // One unit per (image, channel) plane.
    par_units(out, l, |u0, run| {
        for (i, plane) in run.chunks_mut(l).enumerate() {
            let (u, ch) = (u0 + i, (u0 + i) % c);
            let xp = &x[u * h * wd..(u + 1) * h * wd];
            let tw = &rows[ch * taps..(ch + 1) * taps];
            if saturation_free(w.abs_sum[ch], u64::from(max_abs(xp))) {
                direct_row::<A, false>(w, tw, xp, plane);
            } else {
                direct_row::<A, true>(w, tw, xp, plane);
            }
            epi(plane, ch);
        }
    });
}

/// Whether every value of `xs` fits `i16`, and `max |x|` — one pass.
fn narrow_range(xs: &[i32]) -> (bool, u32) {
    let (lo, hi) = xs.iter().fold((0i32, 0i32), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let fits = lo >= i32::from(i16::MIN) && hi <= i32::from(i16::MAX);
    (fits, lo.unsigned_abs().max(hi.unsigned_abs()))
}

/// Unrolls one (image, group) input block `[cg, h, w]` into the `i16`
/// patch block `[cg·kh·kw, oh·ow]` (zero where the window covers
/// padding). Every input value fits `i16` (the caller checked).
fn im2col_group(w: &ConvWeight, xg: &[i32], cols: &mut [i16]) {
    if w.im2col_is_identity() {
        for (d, &v) in cols.iter_mut().zip(xg) {
            *d = i16::narrow(v);
        }
        return;
    }
    let [_, h, wd] = w.in_chw;
    let l = w.l();
    if w.spec.padding > 0 {
        cols.fill(0);
    }
    for (ci, xc) in xg.chunks_exact(h * wd).enumerate() {
        for ki in 0..w.kh {
            for kj in 0..w.kw {
                let row = &mut cols[((ci * w.kh + ki) * w.kw + kj) * l..][..l];
                for_tap_rows(w, ki, kj, row, |dst, start| {
                    let s = w.spec.stride;
                    if s == 1 {
                        let len = dst.len();
                        for (o, &xv) in dst.iter_mut().zip(&xc[start..start + len]) {
                            *o = i16::narrow(xv);
                        }
                    } else {
                        for (o, &xv) in dst.iter_mut().zip(xc[start..].iter().step_by(s)) {
                            *o = i16::narrow(xv);
                        }
                    }
                });
            }
        }
    }
}

/// Convolution as im2col + weight-stationary GEMM with fused epilogue:
/// `[N, C, H, W]` ⊛ `[OC, C/g, KH, KW]` into `out` in `[N, OC, OH, OW]`
/// order.
///
/// Per (image, group) the input block is unrolled into the `i16`
/// `scratch` (at least [`ConvWeight::scratch_words`] long), then each
/// block of 8 (`MR`) output channels is accumulated as `[MR, k] × [k,
/// oh·ow]` by the narrow tile (in its grouped `i16`-lane form where the
/// block's `max|w| · max|x|` allows) directly into its place in `out` —
/// the interpreter's orientation — and `epi(row, oc)` rewrites each row
/// in place. Blocks whose bound fails, and every block of an input group
/// that does not fit `i16` (no patch block is built then), run the
/// clamped chain directly from the input. Rows may run in parallel; the
/// patch block is shared read-only.
///
/// Bit-identical to [`crate::ops::conv2d_i32`] followed by an
/// element-wise `epi` pass, at any thread count. Performs no heap
/// allocation when the resolved worker count is 1.
///
/// # Errors
///
/// Returns an error if `x`/`out` are not whole samples of `w`'s geometry
/// or `scratch` is too short.
pub fn conv_gemm_fused_into<E>(
    x: &[i32],
    w: &ConvWeight,
    scratch: &mut [i16],
    epi: &E,
    out: &mut [i32],
) -> Result<()>
where
    E: Fn(&mut [i32], usize) + Sync,
{
    let n = w.batch(x, out, "conv_gemm_fused_into")?;
    if scratch.len() < w.scratch_words() {
        return Err(TensorError::InvalidArgument(format!(
            "conv_gemm_fused_into: {} scratch values, the patch block needs {}",
            scratch.len(),
            w.scratch_words()
        )));
    }
    let _t = t2c_obs::Timer::scoped("kernel.conv_gemm_fused.time_ns");
    record_fused("kernel.conv_gemm_fused", n * w.l(), w.k(), w.oc);
    match &w.rows {
        Codes::I16(rows) => conv_gemm_run(x, n, w, rows, scratch, epi, out),
        Codes::I32(rows) => conv_gemm_run(x, n, w, rows, scratch, epi, out),
    }
    Ok(())
}

fn conv_gemm_run<A: Code, E>(
    x: &[i32],
    n: usize,
    w: &ConvWeight,
    rows: &[A],
    scratch: &mut [i16],
    epi: &E,
    out: &mut [i32],
) where
    E: Fn(&mut [i32], usize) + Sync,
{
    let [c, h, wd] = w.in_chw;
    let g = w.spec.groups;
    let (cg, ocg, k, l) = (c / g, w.oc / g, w.k(), w.l());
    for img in 0..n {
        for grp in 0..g {
            let xg = &x[(img * c + grp * cg) * h * wd..][..cg * h * wd];
            let (fits, x_max) = narrow_range(xg);
            let cols = &mut scratch[..k * l];
            if fits {
                im2col_group(w, xg, cols);
            }
            let cols = &*cols;
            let wg = &rows[grp * ocg * k..(grp + 1) * ocg * k];
            let sums = &w.abs_sum[grp * ocg..(grp + 1) * ocg];
            let maxes = &w.abs_max[grp * ocg..(grp + 1) * ocg];
            let unit = &mut out[(img * w.oc + grp * ocg) * l..][..ocg * l];
            par_units(unit, l, |r0, run| {
                for (b, blk) in run.chunks_mut(MR * l).enumerate() {
                    let (o0, rb) = (r0 + b * MR, blk.len() / l);
                    let widest = sums[o0..o0 + rb].iter().copied().max().unwrap_or(0);
                    if fits && saturation_free(widest, u64::from(x_max)) {
                        let wb = &wg[o0 * k..];
                        let copy = |r: usize, j0: usize, acc: &[i32]| {
                            blk[r * l + j0..r * l + j0 + acc.len()].copy_from_slice(acc);
                        };
                        let w_max = maxes[o0..o0 + rb].iter().copied().max().unwrap_or(0);
                        let g = group_len(x_max, w_max);
                        narrow_tile(wb, k, rb, k, cols, l, l, g, copy);
                    } else {
                        for (r, orow) in blk.chunks_mut(l).enumerate() {
                            let wrow = &wg[(o0 + r) * k..(o0 + r + 1) * k];
                            direct_row::<A, true>(w, wrow, xg, orow);
                        }
                    }
                    for (r, orow) in blk.chunks_mut(l).enumerate() {
                        epi(orow, grp * ocg + o0 + r);
                    }
                }
            });
        }
    }
}

/// Records call/MAC counters for a fused product. One branch when
/// profiling is disabled.
fn record_fused(op: &str, m: usize, k: usize, n: usize) {
    if t2c_obs::enabled() {
        let (m, k, n) = (m as u64, k as u64, n as u64);
        t2c_obs::counter_add(&format!("{op}.calls"), 1);
        t2c_obs::counter_add(&format!("{op}.macs"), m * k * n);
        t2c_obs::counter_add(&format!("{op}.elements"), m * n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::matmul_i32_sat_packed;
    use crate::parallel::with_threads;
    use crate::sparse::matmul_sparse_i;
    use crate::Tensor;

    fn pseudo_i(dims: &[usize], seed: u64, span: i64) -> Tensor<i32> {
        Tensor::from_fn(dims, |i| {
            let h = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed);
            ((h >> 33) as i64 % span - span / 2) as i32
        })
    }

    /// A channel-dependent epilogue exercising bias, shift and clamp.
    fn epi(acc: i32, ch: usize) -> i32 {
        let v = i64::from(acc) + (ch as i64 % 7) - 3;
        let v = (v + 8) >> 4;
        v.clamp(-128, 127) as i32
    }

    #[test]
    fn fused_gemm_matches_unfused_plus_map() {
        for (m, k, n) in [(1, 1, 1), (3, 5, 2), (8, 16, 64), (9, 17, 65), (23, 40, 130)] {
            let x = pseudo_i(&[m, k], 11, 255);
            let w = pseudo_i(&[n, k], 13, 255);
            let packed = PackedMat::from_weight(&w).unwrap();
            let expect: Vec<i32> = matmul_i32_sat_packed(&x, &packed)
                .unwrap()
                .as_slice()
                .iter()
                .enumerate()
                .map(|(i, &v)| epi(v, i % n))
                .collect();
            for threads in [1, 2, 4] {
                let mut out = vec![0i32; m * n];
                with_threads(threads, || {
                    let mut scratch = vec![0i16; packed.scratch_words(m)];
                    gemm_fused_into(x.as_slice(), m, &packed, &mut scratch, &epi, &mut out)
                        .unwrap();
                });
                assert_eq!(out, expect, "m={m} k={k} n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn fused_gemm_saturates_identically_at_the_rails() {
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
        let expect: Vec<i32> = matmul_i32_sat_packed(&x, &packed)
            .unwrap()
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, &v)| epi(v, i % 70))
            .collect();
        for threads in [1, 4] {
            let mut out = vec![0i32; 4 * 70];
            with_threads(threads, || {
                let mut scratch = vec![0i16; packed.scratch_words(4)];
                gemm_fused_into(x.as_slice(), 4, &packed, &mut scratch, &epi, &mut out).unwrap();
            });
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn fused_spmm_matches_unfused_plus_map() {
        for (m, k, n) in [(1, 4, 3), (17, 33, 20), (32, 64, 48)] {
            let x = pseudo_i(&[m, k], 7, 255);
            let w = Tensor::from_fn(&[n, k], |i| if i % 3 == 0 { (i as i32 % 11) - 5 } else { 0 });
            let sp = SparseMat::from_dense(&w).unwrap();
            let cols = sp.col_indices();
            let expect: Vec<i32> = matmul_sparse_i(&x, &sp)
                .unwrap()
                .as_slice()
                .iter()
                .enumerate()
                .map(|(i, &v)| epi(v, i % n))
                .collect();
            for threads in [1, 2, 4] {
                let mut out = vec![0i32; m * n];
                with_threads(threads, || {
                    spmm_fused_into(x.as_slice(), m, &sp, &cols, &epi, &mut out).unwrap();
                });
                assert_eq!(out, expect, "m={m} k={k} n={n} threads={threads}");
            }
        }
    }

    /// `conv2d_i32` followed by an element-wise `epi` pass.
    fn conv_reference(x: &Tensor<i32>, w: &Tensor<i32>, spec: Conv2dSpec) -> Vec<i32> {
        let plain = crate::ops::conv2d_i32(x, w, None, spec).unwrap();
        let (oc, l) = (plain.dim(1), plain.dim(2) * plain.dim(3));
        plain.as_slice().iter().enumerate().map(|(i, &v)| epi(v, (i / l) % oc)).collect()
    }

    #[test]
    fn fused_convs_match_unfused_plus_map() {
        let cases = [
            ([2, 3, 7, 7], [5, 3, 3, 3], Conv2dSpec::new(1, 1)),
            ([1, 2, 8, 8], [3, 2, 3, 3], Conv2dSpec::new(2, 1)),
            ([2, 4, 6, 6], [6, 2, 1, 1], Conv2dSpec::new(1, 0).with_groups(2)),
            ([2, 4, 6, 6], [4, 1, 3, 3], Conv2dSpec::new(1, 1).with_groups(4)),
            ([1, 3, 9, 9], [3, 1, 5, 5], Conv2dSpec::new(3, 2).with_groups(3)),
        ];
        for (xd, wdim, spec) in cases {
            let x = pseudo_i(&xd, 31, 255);
            let w = pseudo_i(&wdim, 37, 255);
            let expect = conv_reference(&x, &w, spec);
            let row_epi =
                |row: &mut [i32], ch: usize| row.iter_mut().for_each(|v| *v = epi(*v, ch));
            let cw = ConvWeight::new(&w, spec, [xd[1], xd[2], xd[3]]).unwrap();
            assert_eq!(cw.out_len() * xd[0], expect.len());
            for threads in [1, 3] {
                let mut out = vec![0i32; expect.len()];
                let mut scratch = vec![0i16; cw.scratch_words()];
                with_threads(threads, || {
                    if cw.is_depthwise() {
                        dwconv_fused_into(x.as_slice(), &cw, &row_epi, &mut out).unwrap();
                    } else {
                        conv_gemm_fused_into(x.as_slice(), &cw, &mut scratch, &row_epi, &mut out)
                            .unwrap();
                    }
                });
                assert_eq!(out, expect, "{xd:?} ⊛ {wdim:?} {spec:?} threads={threads}");
            }
        }
    }

    #[test]
    fn fused_convs_reject_bad_geometry_and_buffers() {
        let w = pseudo_i(&[4, 2, 3, 3], 1, 20);
        let spec = Conv2dSpec::new(1, 1);
        assert!(ConvWeight::new(&w, spec, [3, 6, 6]).is_err(), "channel mismatch");
        assert!(ConvWeight::new(&w, spec.with_groups(3), [6, 6, 6]).is_err(), "groups");
        assert!(ConvWeight::new(&w, Conv2dSpec::new(1, 0), [2, 2, 2]).is_err(), "kernel > input");
        assert!(ConvWeight::new(&w, Conv2dSpec::new(1, 2), [2, 0, 6]).is_err(), "empty plane");
        let cw = ConvWeight::new(&w, spec, [2, 6, 6]).unwrap();
        let x = vec![0i32; 2 * 36];
        let mut out = vec![0i32; cw.out_len()];
        let mut scratch = vec![0i16; cw.scratch_words()];
        assert!(dwconv_fused_into(&x, &cw, &|_, _| (), &mut out).is_err(), "not depthwise");
        assert!(conv_gemm_fused_into(&x[1..], &cw, &mut scratch, &|_, _| (), &mut out).is_err());
        assert!(conv_gemm_fused_into(&x, &cw, &mut scratch[1..], &|_, _| (), &mut out).is_err());
        assert!(conv_gemm_fused_into(&x, &cw, &mut scratch, &|_, _| (), &mut out[1..]).is_err());
    }

    #[test]
    fn fused_entry_points_reject_bad_shapes() {
        let w = pseudo_i(&[8, 5], 1, 10);
        let packed = PackedMat::from_weight(&w).unwrap();
        let mut out = vec![0i32; 16];
        let mut scratch = [0i16; 10];
        // Activation length disagrees with rows * k.
        assert!(gemm_fused_into(&[0i32; 9], 2, &packed, &mut scratch, &|a, _| a, &mut out).is_err());
        // Output length disagrees with rows * n.
        let short_out = &mut [0i32; 3];
        assert!(
            gemm_fused_into(&[0i32; 10], 2, &packed, &mut scratch, &|a, _| a, short_out).is_err()
        );
        // Scratch too short for the narrowed activations.
        let short = &mut scratch[..9];
        assert!(gemm_fused_into(&[0i32; 10], 2, &packed, short, &|a, _| a, &mut out).is_err());

        let sp = SparseMat::from_dense(&w).unwrap();
        let cols = sp.col_indices();
        assert!(spmm_fused_into(&[0i32; 9], 2, &sp, &cols, &|a, _| a, &mut out).is_err());
        assert!(spmm_fused_into(&[0i32; 10], 2, &sp, &cols[1..], &|a, _| a, &mut out).is_err());
    }
}
