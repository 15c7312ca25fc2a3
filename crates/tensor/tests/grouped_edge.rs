//! The grouped `i16`-lane chain at its edges. Where a row block (GEMM)
//! or an output-channel block (convolution) takes the narrow chain, the
//! shared tile sums runs of up to `g = ⌊i16::MAX / (max|a| · max|w|)⌋`
//! reduction steps in `i16` lanes and flushes each run into the `i32`
//! accumulators, whenever `g` reaches the measured minimum of 3. Both
//! kernels must agree bit for bit with the naive saturating kernels when:
//!
//! * `g · max|a| · max|w|` sits exactly at `i16::MAX` (`32767 = 7 · 31 ·
//!   151`), just under it, or one activation step past it;
//! * rows (or input planes) of equal-signed extreme values against
//!   constant-sign weight rows fill whole groups with extreme products, so
//!   a group one step longer than `g` would wrap a lane;
//! * −32768 activations meet 1-bit weights (`g = 0`: no grouping);
//! * the reduction length is not a multiple of `g`;
//! * whole blocks are zero (`max|a| = 0`);
//! * a block's largest magnitude sits in any of its rows, not just the
//!   first;
//! * one call mixes grouped, narrow and clamped blocks, and 1-, 2-, 3- and
//!   4-bit weights (`max|w|` of 1, 1, 3 and 7);
//! * 1, 2 or 4 worker threads run the kernels.

use proptest::prelude::*;
use t2c_tensor::ops::{conv2d_i32, Conv2dSpec};
use t2c_tensor::{
    conv_gemm_fused_into, gemm_fused_into, matmul_i32_sat_packed, with_threads, ConvWeight,
    PackedMat, Tensor,
};

/// `max|w|` of symmetric `b`-bit weight codes, indexed by `b − 1`: 1-bit
/// codes are ±1, wider ones span `[−max, max]`.
const BITS_MAX: [i32; 4] = [1, 1, 3, 7];

/// Group lengths the amplitudes are sized for; 7, 31 and 151 divide
/// `i16::MAX`.
const GROUPS: [usize; 9] = [3, 4, 5, 7, 9, 16, 31, 64, 151];

fn hash(i: usize, seed: u64) -> u64 {
    (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed).rotate_right(29)
}

/// The largest activation magnitude whose products with `max_w` codes
/// keep `g` steps within `i16::MAX`.
fn edge(g: usize, max_w: i32) -> i32 {
    i16::MAX as i32 / (g as i32 * max_w)
}

/// One weight row of `len` `bits`-bit codes, by kind: 0 every code +max;
/// 1 every code −max; otherwise random codes, one of them at ±max.
fn weight_row(bits: usize, kind: u64, len: usize, seed: u64) -> Vec<i32> {
    let m = BITS_MAX[bits - 1];
    let peak = (seed % len as u64) as usize;
    (0..len)
        .map(|i| {
            let h = hash(i, seed);
            let sign = if h.is_multiple_of(2) { 1 } else { -1 };
            match kind {
                0 => m,
                1 => -m,
                _ if i == peak || bits == 1 => sign * m,
                _ => (h % (2 * m as u64 + 1)) as i32 - m,
            }
        })
        .collect()
}

/// One activation row (or input plane) of `len` values, by pattern: 0
/// every value +amp; 1 every value −amp; 2 random values in `[−amp,
/// amp]`, one of them at ±amp; 3 random values below amp / 3; 4 zeros.
fn act_row(pattern: u64, amp: i32, len: usize, seed: u64) -> Vec<i32> {
    let peak = (seed % len as u64) as usize;
    (0..len)
        .map(|i| {
            let h = hash(i, seed);
            let sign = if h.is_multiple_of(2) { 1 } else { -1 };
            match pattern {
                0 => amp,
                1 => -amp,
                2 if i == peak => sign * amp,
                2 => (h % (2 * amp as u64 + 1)) as i32 - amp,
                3 => (h % (amp as u64 / 3 + 1)) as i32 * sign,
                _ => 0,
            }
        })
        .collect()
}

/// A block's activations, by mode, sized against `g` and `max_w`: 0 at
/// the edge (`edge(g, max_w)`); 1 one step past it; 2 all zero; 3 int8
/// codes; 4 at the edge with one value past `i16` (clamped chain); 5
/// values of −32768 among random ones (`max|a| = 32768`). `rows` rows (or
/// planes) of `len`; one row, `peak`, carries the block's largest
/// magnitude as a run of equal signs, the others draw their patterns.
fn block(
    mode: u64,
    g: usize,
    max_w: i32,
    rows: usize,
    len: usize,
    uniform: bool,
    seed: u64,
) -> Vec<i32> {
    let amp = match mode {
        1 => edge(g, max_w) + 1,
        3 => 127,
        5 => 32767,
        _ => edge(g, max_w),
    };
    let peak = (seed % rows as u64) as usize;
    let run = hash(rows, seed) % 2;
    let mut out: Vec<i32> = (0..rows)
        .flat_map(|r| {
            let h = hash(r, seed ^ 0x5151);
            let pattern = match mode {
                2 => 4,
                _ if uniform || r == peak => run,
                _ => h % 5,
            };
            act_row(pattern, amp, len, h)
        })
        .collect();
    match mode {
        4 => {
            let i = (hash(7, seed) % out.len() as u64) as usize;
            out[i] = if seed.is_multiple_of(2) { 32768 } else { -32769 };
        }
        5 => {
            for (i, v) in out.iter_mut().enumerate() {
                if hash(i, seed).is_multiple_of(3) || i == 0 {
                    *v = -32768;
                }
            }
        }
        _ => {}
    }
    out
}

/// A channel-dependent epilogue: offset, rounding shift and clamp.
fn epi(acc: i32, ch: usize) -> i32 {
    let v = i64::from(acc) + (ch as i64 % 5) - 2;
    ((v + 64) >> 7).clamp(-1 << 20, 1 << 20) as i32
}

/// Checks the packed GEMM (plain and fused) against the naive saturating
/// product at 1, 2 and 4 threads.
fn check_gemm(x: &Tensor<i32>, w: &Tensor<i32>) {
    let (m, n) = (x.dim(0), w.dim(0));
    let packed = PackedMat::from_weight(w).unwrap();
    assert!(packed.data.is_narrow(), "low-bit codes are stored as i16");
    let reference = x.matmul_i(&w.transpose().unwrap()).unwrap();
    let expect: Vec<i32> =
        reference.as_slice().iter().enumerate().map(|(i, &v)| epi(v, i % n)).collect();
    for threads in [1usize, 2, 4] {
        let got = with_threads(threads, || matmul_i32_sat_packed(x, &packed)).unwrap();
        assert_eq!(
            got.as_slice(),
            reference.as_slice(),
            "{:?} x {:?} threads={}",
            x.dims(),
            w.dims(),
            threads
        );
        let mut out = vec![7i32; m * n];
        let mut scratch = vec![-3i16; packed.scratch_words(m)];
        with_threads(threads, || {
            gemm_fused_into(x.as_slice(), m, &packed, &mut scratch, &epi, &mut out)
        })
        .unwrap();
        assert_eq!(&out, &expect, "fused {:?} x {:?} threads={}", x.dims(), w.dims(), threads);
    }
}

/// Checks the im2col convolution against `conv2d_i32` plus an
/// element-wise epilogue at 1, 2 and 4 threads.
fn check_conv(x: &Tensor<i32>, wt: &Tensor<i32>, spec: Conv2dSpec) {
    let plain = conv2d_i32(x, wt, None, spec).unwrap();
    let (oc, l) = (plain.dim(1), plain.dim(2) * plain.dim(3));
    let expect: Vec<i32> =
        plain.as_slice().iter().enumerate().map(|(i, &v)| epi(v, (i / l) % oc)).collect();
    let cw = ConvWeight::new(wt, spec, [x.dim(1), x.dim(2), x.dim(3)]).unwrap();
    assert!(cw.is_narrow(), "low-bit codes are stored as i16");
    let row_epi = |row: &mut [i32], ch: usize| row.iter_mut().for_each(|v| *v = epi(*v, ch));
    for threads in [1usize, 2, 4] {
        let mut out = vec![13i32; expect.len()];
        let mut scratch = vec![-7i16; cw.scratch_words()];
        with_threads(threads, || {
            conv_gemm_fused_into(x.as_slice(), &cw, &mut scratch, &row_epi, &mut out)
        })
        .unwrap();
        assert_eq!(
            &out,
            &expect,
            "x={:?} w={:?} {:?} threads={}",
            x.dims(),
            wt.dims(),
            spec,
            threads
        );
    }
}

/// A `[n, k]` weight whose first panel holds `bits`-bit codes with a +max
/// row and a −max row first; later panels draw their own widths.
fn gemm_weight(n: usize, k: usize, bits: usize, seed: u64) -> Tensor<i32> {
    let wv: Vec<i32> = (0..n)
        .flat_map(|j| {
            let h = hash(j, seed);
            let b = if j < 64 { bits } else { (hash(j / 64, seed) % 4) as usize + 1 };
            let kind = if j < 2 { j as u64 } else { h % 3 };
            weight_row(b, kind, k, h)
        })
        .collect();
    Tensor::from_vec(wv, &[n, k]).unwrap()
}

/// A `[n, cg, ks, ks]` weight: channels draw their own widths and kinds,
/// so one 8-channel block mixes `max|w|` values in any position.
fn conv_weight(n: usize, cg: usize, ks: usize, seed: u64) -> Tensor<i32> {
    let wv: Vec<i32> = (0..n)
        .flat_map(|o| {
            let h = hash(o, seed);
            weight_row((h % 4) as usize + 1, (h >> 8) % 3, cg * ks * ks, h >> 16)
        })
        .collect();
    Tensor::from_vec(wv, &[n, cg, ks, ks]).unwrap()
}

#[test]
fn gemm_groups_at_exactly_i16_max_do_not_wrap() {
    // (bits, g, max|a|) with g · max|a| · max|w| = 32767 exactly; one
    // more step, or one more unit of magnitude, would pass it.
    for (bits, g, amp) in [(1, 7, 4681), (2, 31, 1057), (1, 151, 217), (4, 31, 151), (4, 151, 31)] {
        let mw = BITS_MAX[bits - 1];
        assert_eq!(g as i32 * amp * mw, i32::from(i16::MAX));
        for k in [g, 2 * g + 1, 3 * g - 1] {
            let w = gemm_weight(70, k, bits, g as u64);
            // Row block 0: runs of +amp, runs of −amp and random rows at
            // the edge; block 1: runs one step past it; block 2: zeros.
            let mut xv = Vec::new();
            for r in 0..8 {
                xv.extend(act_row(r % 3, amp, k, r));
            }
            for r in 0..8 {
                xv.extend(act_row(r % 2, amp + 1, k, r));
            }
            xv.extend(vec![0; 3 * k]);
            let x = Tensor::from_vec(xv, &[19, k]).unwrap();
            check_gemm(&x, &w);
        }
    }
}

#[test]
fn conv_groups_at_exactly_i16_max_do_not_wrap() {
    for (g, amp, cg, ks) in [(7u64, 4681, 1, 3), (31, 1057, 4, 3), (151, 217, 17, 3)] {
        // Every weight code is ±1: max|w| = 1 in every channel block.
        let wv: Vec<i32> =
            (0..10).flat_map(|o| weight_row(1, (o % 3) as u64, cg * ks * ks, o as u64)).collect();
        let wt = Tensor::from_vec(wv, &[10, cg, ks, ks]).unwrap();
        assert_eq!(g as i32 * amp, i32::from(i16::MAX));
        for (pattern, a) in [(0, amp), (1, amp), (2, amp), (0, amp + 1)] {
            let x = Tensor::from_vec(act_row(pattern, a, cg * 25, g), &[1, cg, 5, 5]).unwrap();
            check_conv(&x, &wt, Conv2dSpec::new(1, 1));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn packed_gemm_grouped_chain_is_bit_identical(
        m in 1usize..25,
        n in 1usize..140,
        gi in 0usize..GROUPS.len(),
        groups in 1usize..4,
        rem in any::<u64>(),
        bits in 1usize..5,
        modes in any::<u64>(),
        uniform in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let g = GROUPS[gi];
        // The reduction is 1–3 groups long plus a remainder, which is a
        // multiple of g only when rem draws 0.
        let k = groups * g + (rem % g as u64) as usize;
        let w = gemm_weight(n, k, bits, seed);
        let mw = BITS_MAX[bits - 1];
        // Each 8-row block draws its own mode, so one call mixes grouped,
        // narrow, clamped and all-zero blocks.
        let xv: Vec<i32> = (0..m.div_ceil(8))
            .flat_map(|b| {
                let rows = 8.min(m - 8 * b);
                block(hash(b, modes) % 6, g, mw, rows, k, uniform, seed ^ b as u64)
            })
            .collect();
        let x = Tensor::from_vec(xv, &[m, k]).unwrap();
        check_gemm(&x, &w);
    }

    #[test]
    fn im2col_gemm_grouped_chain_is_bit_identical(
        plane in 0usize..4,
        cg in 1usize..6,
        kernel3 in any::<bool>(),
        grouped in any::<bool>(),
        ocg in 1usize..21,
        batch2 in any::<bool>(),
        gi in 0usize..GROUPS.len(),
        modes in any::<u64>(),
        uniform in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (h, w) = [(1, 1), (3, 3), (4, 4), (5, 7)][plane];
        let (ks, pad) = if kernel3 { (3, 1) } else { (1, 0) };
        let groups = if grouped { 2 } else { 1 };
        let (c, oc) = (cg * groups, ocg * groups);
        let n = if batch2 { 2 } else { 1 };
        let wt = conv_weight(oc, cg, ks, seed);
        // Size each input group against its weights' largest code and a
        // group length that leaves room for one more step.
        let k = cg * ks * ks;
        let fitting: Vec<usize> = GROUPS.iter().copied().filter(|&g| g < k).collect();
        let g = if fitting.is_empty() { GROUPS[gi] } else { fitting[gi % fitting.len()] };
        let xv: Vec<i32> = (0..n * groups)
            .flat_map(|u| {
                let grp = u % groups;
                let wg = &wt.as_slice()[grp * ocg * k..(grp + 1) * ocg * k];
                let mw = wg.iter().map(|v| v.abs()).max().unwrap_or(1);
                block(hash(u, modes) % 6, g, mw, cg, h * w, uniform, seed ^ u as u64)
            })
            .collect();
        let x = Tensor::from_vec(xv, &[n, c, h, w]).unwrap();
        check_conv(&x, &wt, Conv2dSpec { stride: 1, padding: pad, groups });
    }
}
