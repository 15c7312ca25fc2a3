//! Bit-identity of the packed GEMM kernel against the naive saturating
//! kernel. Each (row block, panel) runs either the clamped chain — every
//! output element accumulates its k products in ascending order with the
//! per-MAC `i64 → i32` clamp — or the narrow `i16` chain, which only runs
//! where a bound proves the clamp never engages. Either way the results
//! must match the dense kernel bit for bit at every shape (including
//! shapes that are not multiples of the 64-wide panel) and at every
//! thread count. `narrow_edge.rs` probes the chain choice at the `i16`
//! edge.

use proptest::prelude::*;
use t2c_tensor::{matmul_i32_sat_packed, with_threads, PackedMat, Tensor};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_matmul_is_bit_identical_across_shapes_and_threads(
        m in 1usize..20,
        k in 1usize..70,
        n in 1usize..140,
        seed in any::<u64>(),
        // Large magnitudes so a fraction of cases drive the accumulator
        // through the saturating clamp mid-chain.
        big in any::<bool>(),
    ) {
        let scale: i32 = if big { 1 << 20 } else { 1 };
        let xv: Vec<i32> = (0..m * k)
            .map(|i| ((seed.wrapping_mul(i as u64 + 1).wrapping_mul(2_654_435_761) >> 16) as i32 % 1000) * scale)
            .collect();
        let wv: Vec<i32> = (0..n * k)
            .map(|i| ((seed.wrapping_mul(i as u64 + 7).wrapping_mul(2_246_822_519) >> 16) as i32 % 1000) * scale)
            .collect();
        let x = Tensor::from_vec(xv, &[m, k]).unwrap();
        let w = Tensor::from_vec(wv, &[n, k]).unwrap();
        let reference = x.matmul_i(&w.transpose().unwrap()).unwrap();
        let packed = PackedMat::from_weight(&w).unwrap();
        for threads in [1usize, 2, 4] {
            let got = with_threads(threads, || matmul_i32_sat_packed(&x, &packed)).unwrap();
            prop_assert_eq!(
                got.as_slice(), reference.as_slice(),
                "m={} k={} n={} threads={}", m, k, n, threads
            );
        }
    }
}
