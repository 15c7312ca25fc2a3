//! Differential test of the two fused convolution kernels — the direct
//! depthwise kernel and im2col + weight-stationary GEMM — against the
//! reference `ops::conv2d_i32` followed by an element-wise epilogue.
//!
//! Cases cover dense, depthwise and proper-divisor grouping, kernels 1–5,
//! strides 1–3, padding 0–2 and inputs no larger than the padded kernel
//! (so windows hang over every edge), at batch 1 and 3. A share of cases
//! put activations and weights at the `i32` rails, where the
//! saturation-free bound fails and the kernels must take the clamped
//! `i64` chain. Results must match bit for bit at 1, 2 and 4 threads.

use proptest::prelude::*;
use t2c_tensor::ops::{conv2d_i32, Conv2dSpec};
use t2c_tensor::{conv_gemm_fused_into, dwconv_fused_into, with_threads, ConvWeight, Tensor};

/// A channel-dependent epilogue: offset, rounding shift and clamp.
fn epi(acc: i32, ch: usize) -> i32 {
    let v = i64::from(acc) + (ch as i64 % 5) - 2;
    ((v + 64) >> 7).clamp(-300, 300) as i32
}

/// Deterministic values from `seed`: int8-range codes, or (with `rails`)
/// a mix of `i32::MIN`, `i32::MAX`, zero and small codes.
fn values(len: usize, seed: u64, rails: bool) -> Vec<i32> {
    (0..len as u64)
        .map(|i| {
            let h = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed) >> 29;
            let small = (h % 255) as i32 - 127;
            if !rails {
                return small;
            }
            match h % 4 {
                0 => i32::MAX,
                1 => i32::MIN,
                2 => 0,
                _ => small,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fused_convs_match_conv2d_i32_plus_epilogue(
        mode in 0u8..4,
        c_draw in 1usize..7,
        ocg_draw in 1usize..4,
        kh in 1usize..=5,
        kw in 1usize..=5,
        stride in 1usize..=3,
        padding in 0usize..=2,
        h_draw in 0usize..16,
        w_draw in 0usize..16,
        batch3 in any::<bool>(),
        rails in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // Grouping: dense, depthwise, a proper divisor of C, or a
        // depthwise multiplier (which the GEMM kernel takes).
        let (c, groups, ocg) = match mode {
            0 => (c_draw, 1, ocg_draw),
            1 => (c_draw, c_draw, 1),
            2 => {
                let (c, g) = if c_draw % 2 == 0 { (6, 3) } else { (4, 2) };
                (c, g, ocg_draw)
            }
            _ => (c_draw, c_draw, ocg_draw + 1),
        };
        // Spatial extent between the smallest input the kernel fits and
        // the padded kernel itself.
        let extent = |k: usize, draw: usize| {
            let lo = k.saturating_sub(2 * padding).max(1);
            lo + draw % (k + 2 * padding - lo + 1)
        };
        let (h, w) = (extent(kh, h_draw), extent(kw, w_draw));
        let n = if batch3 { 3 } else { 1 };
        let oc = groups * ocg;
        let x = Tensor::from_vec(values(n * c * h * w, seed, rails), &[n, c, h, w]).unwrap();
        let wt = Tensor::from_vec(
            values(oc * (c / groups) * kh * kw, seed ^ 0x5555, rails),
            &[oc, c / groups, kh, kw],
        )
        .unwrap();
        let spec = Conv2dSpec { stride, padding, groups };

        let plain = conv2d_i32(&x, &wt, None, spec).unwrap();
        let l = plain.dim(2) * plain.dim(3);
        let expect: Vec<i32> =
            plain.as_slice().iter().enumerate().map(|(i, &v)| epi(v, (i / l) % oc)).collect();

        let cw = ConvWeight::new(&wt, spec, [c, h, w]).unwrap();
        prop_assert_eq!(cw.is_depthwise(), groups == c && ocg == 1);
        let row_epi = |row: &mut [i32], ch: usize| row.iter_mut().for_each(|v| *v = epi(*v, ch));
        for threads in [1usize, 2, 4] {
            let mut out = vec![13i32; expect.len()];
            // Scratch arrives dirty: in a plan it is shared by every conv.
            let mut scratch = vec![-7i16; cw.scratch_words()];
            with_threads(threads, || {
                if cw.is_depthwise() {
                    dwconv_fused_into(x.as_slice(), &cw, &row_epi, &mut out)
                } else {
                    conv_gemm_fused_into(x.as_slice(), &cw, &mut scratch, &row_epi, &mut out)
                }
            })
            .unwrap();
            prop_assert_eq!(
                &out, &expect,
                "x={:?} w={:?} {:?} rails={} threads={}",
                x.dims(), wt.dims(), spec, rails, threads
            );
        }
    }
}
