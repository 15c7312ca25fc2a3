//! The narrow `i16` chain at its edges. The packed GEMM and the im2col
//! convolution take the narrow tile for a row block (GEMM) or an
//! output-channel block (convolution) only when its activations fit
//! `i16` and the `Σ|a| · max|w| ≤ i32::MAX` bound holds; everything else
//! runs the clamped `i64` reference chain. Both must agree bit for bit
//! with the naive saturating kernels when:
//!
//! * activations and weights sit at ±32767, −32768, 32768, −32769 and the
//!   `i32` rails (32768 and −32769 do not fit `i16`; two −32768 codes
//!   against 32767 weights just meet the bound, three miss it);
//! * row blocks and channel blocks mix eligible and ineligible rows, and
//!   grouped convolutions mix eligible and ineligible input groups;
//! * output planes have `oh·ow` ∈ {1, 16, 63, 64, 65} and the reduction
//!   length is odd;
//! * weights are wider than `i16` (they must be stored as `i32`);
//! * 1, 2 or 4 worker threads run the kernels.

use proptest::prelude::*;
use t2c_tensor::ops::{conv2d_i32, Conv2dSpec};
use t2c_tensor::{
    conv_gemm_fused_into, gemm_fused_into, matmul_i32_sat_packed, with_threads, ConvWeight,
    PackedMat, Tensor,
};

fn hash(i: usize, seed: u64) -> u64 {
    (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed).rotate_right(29)
}

fn small(h: u64) -> i32 {
    (h % 255) as i32 - 127
}

/// One activation row (or plane) of `len` values, by kind:
/// 0 small codes; 1 zeros with up to two ±32767/−32768 codes; 2 small
/// codes with one 32768; 3 every value at ±32767 or −32768; 4 the `i32`
/// rails mixed with zeros and small codes; 5 small codes with one −32769.
fn activations(kind: u64, len: usize, seed: u64) -> Vec<i32> {
    (0..len)
        .map(|i| {
            let h = hash(i, seed);
            match kind {
                0 => small(h),
                1 if i < 2 => [32767, -32768, -32767][(h % 3) as usize],
                1 => 0,
                2 if i == len / 2 => 32768,
                3 => [32767, -32767, -32768][(h % 3) as usize],
                4 => [i32::MAX, i32::MIN, 0, small(h)][(h % 4) as usize],
                5 if i == len - 1 => -32769,
                _ => small(h),
            }
        })
        .collect()
}

/// One weight row of `len` codes, by kind: 0 small codes; 1 small codes
/// and ±32767; 2 small codes with one 32768; 3 small codes with one
/// −32768; 4 the `i32` rails. Kinds 2–4 do not fit the `i16` storage.
fn weights(kind: u64, len: usize, seed: u64) -> Vec<i32> {
    (0..len)
        .map(|i| {
            let h = hash(i, seed);
            let code = (h % 15) as i32 - 7;
            match kind {
                1 => [code, 32767, -32767][(h % 3) as usize],
                2 if i == 0 => 32768,
                3 if i == 0 => -32768,
                4 => [i32::MAX, i32::MIN, 0, code][(h % 4) as usize],
                _ => code,
            }
        })
        .collect()
}

/// A channel-dependent epilogue: offset, rounding shift and clamp.
fn epi(acc: i32, ch: usize) -> i32 {
    let v = i64::from(acc) + (ch as i64 % 5) - 2;
    ((v + 64) >> 7).clamp(-1 << 20, 1 << 20) as i32
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn packed_gemm_is_bit_identical_at_the_i16_edge(
        m in 1usize..20,
        half_k in 0usize..35,
        n in 1usize..140,
        row_seed in any::<u64>(),
        weight_kind in 0u64..7,
        seed in any::<u64>(),
    ) {
        let k = 2 * half_k + 1;
        // Each row draws its own kind, so row blocks mix eligible and
        // ineligible rows; weights mostly draw one of the two i16 kinds.
        let xv: Vec<i32> = (0..m)
            .flat_map(|r| activations(hash(r, row_seed) % 6, k, seed ^ r as u64))
            .collect();
        let wkind = weight_kind.saturating_sub(2);
        let wv: Vec<i32> =
            (0..n).flat_map(|j| weights(wkind, k, seed.wrapping_add(j as u64 * 7919))).collect();
        let x = Tensor::from_vec(xv, &[m, k]).unwrap();
        let w = Tensor::from_vec(wv, &[n, k]).unwrap();
        let packed = PackedMat::from_weight(&w).unwrap();
        let fits = w.as_slice().iter().all(|v| v.unsigned_abs() <= 32767);
        prop_assert_eq!(packed.data.is_narrow(), fits);
        packed.validate().unwrap();

        let reference = x.matmul_i(&w.transpose().unwrap()).unwrap();
        let expect: Vec<i32> =
            reference.as_slice().iter().enumerate().map(|(i, &v)| epi(v, i % n)).collect();
        for threads in [1usize, 2, 4] {
            let got = with_threads(threads, || matmul_i32_sat_packed(&x, &packed)).unwrap();
            prop_assert_eq!(got.as_slice(), reference.as_slice(), "m={} k={} n={} threads={}", m, k, n, threads);
            let mut out = vec![7i32; m * n];
            // Scratch arrives dirty: in a plan it is shared by every step.
            let mut scratch = vec![-3i16; packed.scratch_words(m)];
            with_threads(threads, || {
                gemm_fused_into(x.as_slice(), m, &packed, &mut scratch, &epi, &mut out)
            })
            .unwrap();
            prop_assert_eq!(&out, &expect, "fused m={} k={} n={} threads={}", m, k, n, threads);
        }
    }

    #[test]
    fn im2col_gemm_is_bit_identical_at_the_i16_edge(
        plane in 0usize..5,
        c_half in 0usize..3,
        kernel3 in any::<bool>(),
        grouped in any::<bool>(),
        ocg in 1usize..20,
        batch3 in any::<bool>(),
        plane_seed in any::<u64>(),
        wide in 0u64..5,
        seed in any::<u64>(),
    ) {
        // "Same" padding keeps oh·ow = h·w at the listed extents; odd
        // channel counts and odd kernels make the reduction length odd.
        let (h, w) = [(1, 1), (4, 4), (7, 9), (8, 8), (5, 13)][plane];
        let (ks, pad) = if kernel3 { (3, 1) } else { (1, 0) };
        let groups = if grouped { 2 } else { 1 };
        let cg = 2 * c_half + 1;
        let (c, oc) = (cg * groups, ocg * groups);
        let n = if batch3 { 3 } else { 1 };
        // Per-plane input kinds: a grouped conv mixes eligible and
        // ineligible input groups.
        let xv: Vec<i32> = (0..n * c)
            .flat_map(|p| activations(hash(p, plane_seed) % 6, h * w, seed ^ p as u64))
            .collect();
        // Per-channel weight kinds: channel blocks mix small rows with
        // ±32767-heavy rows whose bound fails; `wide` adds one row past
        // i16, which moves the whole weight to i32 storage.
        let kk = cg * ks * ks;
        let wv: Vec<i32> = (0..oc)
            .flat_map(|o| {
                let kind = if o == 0 && wide > 1 { wide } else { hash(o, seed) % 2 };
                weights(kind, kk, seed.wrapping_add(o as u64 * 104_729))
            })
            .collect();
        let x = Tensor::from_vec(xv, &[n, c, h, w]).unwrap();
        let wt = Tensor::from_vec(wv, &[oc, cg, ks, ks]).unwrap();
        let spec = Conv2dSpec { stride: 1, padding: pad, groups };

        let plain = conv2d_i32(&x, &wt, None, spec).unwrap();
        let l = plain.dim(2) * plain.dim(3);
        prop_assert_eq!(l, h * w);
        let expect: Vec<i32> =
            plain.as_slice().iter().enumerate().map(|(i, &v)| epi(v, (i / l) % oc)).collect();

        let cw = ConvWeight::new(&wt, spec, [c, h, w]).unwrap();
        prop_assert_eq!(cw.is_narrow(), wt.as_slice().iter().all(|v| v.unsigned_abs() <= 32767));
        let row_epi = |row: &mut [i32], ch: usize| row.iter_mut().for_each(|v| *v = epi(*v, ch));
        for threads in [1usize, 2, 4] {
            let mut out = vec![13i32; expect.len()];
            let mut scratch = vec![-7i16; cw.scratch_words()];
            with_threads(threads, || {
                conv_gemm_fused_into(x.as_slice(), &cw, &mut scratch, &row_epi, &mut out)
            })
            .unwrap();
            prop_assert_eq!(
                &out, &expect,
                "x={:?} w={:?} {:?} threads={}", x.dims(), wt.dims(), spec, threads
            );
        }
    }
}
