//! End-to-end prepacking equivalence: `IntModel::prepack` converts every
//! dense linear into the cache-blocked panel representation, and the
//! packed graph must reproduce the dense graph's logits bit for bit on
//! every zoo model. Convolutions stay dense (compiled plans run them
//! through the direct and im2col kernels, which read the dense weight),
//! and sparse layers carry their own compressed encoding; both must be
//! left untouched.

use t2c_core::zoo;
use t2c_tensor::rng::TensorRng;
use t2c_tensor::{with_threads, Tensor};

fn random_input(dims: &[usize], seed: u64) -> Tensor<f32> {
    TensorRng::seed_from(seed).uniform(dims, -1.0, 1.0)
}

#[test]
fn prepacked_zoo_models_match_their_dense_twins_bit_for_bit() {
    for (tag, builder) in zoo::zoo() {
        let (dense, dims) = builder();
        let mut packed = dense.clone();
        let converted = packed.prepack();
        assert!(converted > 0, "{tag}: the zoo models all carry dense linear layers");
        let convs = |m: &t2c_core::IntModel, label: &str| {
            m.nodes.iter().filter(|n| n.op.label() == label).count()
        };
        assert_eq!(convs(&packed, "conv2d_int"), convs(&dense, "conv2d_int"), "{tag}: convs");
        assert_eq!(convs(&packed, "conv2d_packed"), 0, "{tag}: prepack must leave convs dense");
        // Weight accounting is a property of the logical tensor, not its
        // memory layout: prepacking must not move either metric.
        assert_eq!(dense.weight_bytes(), packed.weight_bytes(), "{tag}: weight_bytes drifted");
        let ws_dense = dense.weight_sparsity();
        let ws_packed = packed.weight_sparsity();
        assert!(
            (ws_dense - ws_packed).abs() < 1e-12,
            "{tag}: weight_sparsity drifted ({ws_dense} vs {ws_packed})"
        );
        for seed in [1u64, 2, 3] {
            let x = random_input(&dims, seed * 77 + 5);
            let want = dense.run(&x).expect("dense run");
            for threads in [1usize, 4] {
                let got = with_threads(threads, || packed.run(&x)).expect("packed run");
                assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "{tag}: packed logits diverge at seed {seed}, {threads} thread(s)"
                );
            }
        }
    }
}

#[test]
fn prepack_preserves_sparse_layers_and_their_outputs() {
    for (tag, (model, dims)) in
        [("pruned-0.8", zoo::tiny_mlp_pruned(0.8)), ("nm-2of4", zoo::tiny_mlp_nm(2, 4))]
    {
        let dense = model;
        let mut packed = dense.clone();
        packed.prepack();
        // The sparse layer must survive with its encoding intact; only the
        // remaining dense layers repack.
        let sparse_before = dense.nodes.iter().filter(|n| n.op.label() == "linear_sparse").count();
        let sparse_after = packed.nodes.iter().filter(|n| n.op.label() == "linear_sparse").count();
        assert!(sparse_before > 0, "{tag}: fixture must hold a sparse layer");
        assert_eq!(sparse_before, sparse_after, "{tag}: prepack must not touch sparse layers");
        let x = random_input(&dims, 42);
        let want = dense.run(&x).expect("dense run");
        let got = packed.run(&x).expect("packed run");
        assert_eq!(got.as_slice(), want.as_slice(), "{tag}: logits diverge after prepack");
    }
}
