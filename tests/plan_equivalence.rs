//! End-to-end execution-plan equivalence: `IntModel::compile` lowers a
//! graph into a fused, arena-backed [`t2c_core::ExecPlan`], and the plan
//! must reproduce the interpreter's logits bit for bit on every zoo model
//! — dense, pruned and N:M structured MLPs, the CNNs and the ViT — at any
//! worker count and batch size, including inputs at the `i32` rails. A
//! plan compiled from an export/import round-trip of the model must agree
//! as well: the serialized graph carries everything compilation needs.
//! The CNN plans must also run without a steady-state allocation, sparse
//! layers must pick the kernel their stored density calls for, and the
//! static shapes `compile` plans with must be the shapes the interpreter
//! actually produces. 4-bit twins of the CNNs and the ViT run the grouped
//! `i16`-lane chain through whole plans.

use t2c_core::intmodel::IntOp;
use t2c_core::{zoo, Arena, IntModel, QuantSpec};
use t2c_export::{read_intmodel, write_intmodel};
use t2c_tensor::rng::TensorRng;
use t2c_tensor::{with_threads, Tensor};

fn random_input(dims: &[usize], seed: u64) -> Tensor<f32> {
    TensorRng::seed_from(seed).uniform(dims, -1.0, 1.0)
}

fn batched(dims: &[usize], batch: usize) -> Vec<usize> {
    let mut d = dims.to_vec();
    d[0] = batch;
    d
}

/// Every variant of the MLP family the toolkit produces: dense, magnitude
/// pruned (densified and skip-zero) and N:M structured.
fn mlp_family() -> Vec<(String, IntModel, Vec<usize>)> {
    let mut out = Vec::new();
    let (dense, dims) = zoo::tiny_mlp();
    out.push(("mlp-dense".into(), dense, dims));
    let (pruned, dims) = zoo::tiny_mlp_pruned(0.8);
    out.push(("mlp-pruned-0.8".into(), pruned, dims));
    // Sparse enough to keep the skip-zero kernel (0.8 is densified).
    let (pruned, dims) = zoo::tiny_mlp_pruned(0.95);
    out.push(("mlp-pruned-0.95".into(), pruned, dims));
    let (nm, dims) = zoo::tiny_mlp_nm(2, 4);
    out.push(("mlp-nm-2of4".into(), nm, dims));
    out
}

#[test]
fn plans_match_the_interpreter_across_the_mlp_family_and_threads() {
    for (tag, model, dims) in mlp_family() {
        let plan = model.compile(&dims).unwrap_or_else(|e| panic!("{tag}: compile: {e}"));
        let mut arena = Arena::new();
        for (seed, batch) in [(1u64, 1usize), (2, 3), (3, 4)] {
            let x = random_input(&batched(&dims, batch), seed * 77 + 5);
            let want = model.run(&x).expect("interpreter run");
            for threads in [1usize, 4] {
                let got = with_threads(threads, || plan.run(&x, &mut arena)).expect("planned run");
                assert_eq!(
                    got.dims(),
                    want.dims(),
                    "{tag}: planned shape diverges at seed {seed}, {threads} thread(s)"
                );
                assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "{tag}: planned logits diverge at seed {seed}, {threads} thread(s)"
                );
            }
        }
    }
}

#[test]
fn plans_match_the_interpreter_on_every_zoo_model() {
    for (tag, builder) in zoo::zoo() {
        let (model, dims) = builder();
        let plan = model.compile(&dims).unwrap_or_else(|e| panic!("{tag}: compile: {e}"));
        assert!(plan.fused_nodes() > 0, "{tag}: zoo models all carry fusable conv/linear chains");
        let mut arena = Arena::new();
        for seed in [1u64, 2] {
            let x = random_input(&dims, seed * 77 + 5);
            let want = model.run(&x).expect("interpreter run");
            for threads in [1usize, 4] {
                let got = with_threads(threads, || plan.run(&x, &mut arena)).expect("planned run");
                assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "{tag}: planned logits diverge at seed {seed}, {threads} thread(s)"
                );
            }
        }
    }
}

#[test]
fn plans_survive_an_export_import_round_trip() {
    for (tag, model, dims) in mlp_family() {
        let bytes = write_intmodel(&model);
        let back = read_intmodel(&bytes).unwrap_or_else(|e| panic!("{tag}: read: {e}"));
        let plan = back.compile(&dims).unwrap_or_else(|e| panic!("{tag}: compile imported: {e}"));
        let mut arena = Arena::new();
        let x = random_input(&batched(&dims, 2), 99);
        let want = model.run(&x).expect("interpreter run");
        let got = plan.run(&x, &mut arena).expect("planned run on imported model");
        assert_eq!(got.as_slice(), want.as_slice(), "{tag}: round-tripped plan diverges");
    }
}

/// MobileNet and ResNet.
fn cnn_family() -> Vec<(String, IntModel, Vec<usize>)> {
    [("mobilenet-ptq", zoo::mobilenet_ptq()), ("resnet-qat", zoo::resnet_qat())]
        .into_iter()
        .map(|(tag, (model, dims))| (tag.to_string(), model, dims))
        .collect()
}

#[test]
fn cnn_plans_match_the_interpreter_across_batches_and_threads() {
    for (tag, model, dims) in cnn_family() {
        let plan = model.compile(&dims).unwrap_or_else(|e| panic!("{tag}: compile: {e}"));
        let mut arena = Arena::new();
        for (seed, batch) in [(1u64, 1usize), (2, 3), (3, 8)] {
            let x = random_input(&batched(&dims, batch), seed * 31 + 7);
            let want = model.run(&x).expect("interpreter run");
            for threads in [1usize, 2, 4] {
                let got = with_threads(threads, || plan.run(&x, &mut arena)).expect("planned run");
                assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "{tag}: planned logits diverge at batch {batch}, {threads} thread(s)"
                );
            }
        }
    }
}

/// Quantized codes mixing the `i32` rails, zero and grid values: the
/// first MAC layer's saturation-free bound fails, so its clamped chain runs.
fn rail_codes(dims: &[usize], seed: usize) -> Tensor<i32> {
    Tensor::from_fn(dims, |i| match (i * 7 + seed) % 5 {
        0 => i32::MAX,
        1 => i32::MIN,
        2 => 0,
        k => (i as i32 % 255) - 127 + k as i32,
    })
}

#[test]
fn rail_valued_inputs_match_through_run_quantized() {
    let mut models: Vec<(String, IntModel, Vec<usize>)> = cnn_family();
    models.extend(mlp_family());
    let (vit, vdims) = zoo::vit_ptq();
    models.push(("vit-ptq".into(), vit, vdims));
    for (tag, model, dims) in models {
        let plan = model.compile(&dims).unwrap_or_else(|e| panic!("{tag}: compile: {e}"));
        let mut arena = Arena::new();
        for batch in [1usize, 3] {
            let x = rail_codes(&batched(&dims, batch), batch);
            let want = model.run_quantized(&x).expect("interpreter run");
            for threads in [1usize, 2, 4] {
                let got = with_threads(threads, || plan.run_quantized(&x, &mut arena))
                    .expect("planned run");
                assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "{tag}: rail inputs diverge at batch {batch}, {threads} thread(s)"
                );
            }
        }
    }
}

/// `model` with every conv/linear weight code shifted from 8 to 4 bits
/// (`|w| ≤ 7`): products against 8-bit activations then fit 18 or more
/// reduction steps in an `i16` lane, so the plan's conv and linear tiles
/// take the grouped chain.
fn four_bit(mut model: IntModel) -> IntModel {
    for node in &mut model.nodes {
        if let IntOp::Conv2d { weight, weight_spec, .. }
        | IntOp::Linear { weight, weight_spec, .. } = &mut node.op
        {
            *weight = weight.map(|w| (w / 16).clamp(-7, 7));
            *weight_spec = QuantSpec::signed(4);
        }
    }
    model
}

/// 4-bit twins of MobileNet, ResNet and the ViT.
fn four_bit_family() -> Vec<(String, IntModel, Vec<usize>)> {
    let mut models = cnn_family();
    let (vit, vdims) = zoo::vit_ptq();
    models.push(("vit-ptq".into(), vit, vdims));
    models
        .into_iter()
        .map(|(tag, model, dims)| (format!("{tag}-w4"), four_bit(model), dims))
        .collect()
}

#[test]
fn four_bit_twins_match_run_quantized_across_batches_and_threads() {
    for (tag, model, dims) in four_bit_family() {
        let plan = model.compile(&dims).unwrap_or_else(|e| panic!("{tag}: compile: {e}"));
        let mut arena = Arena::new();
        for batch in [1usize, 3, 8] {
            let x = rail_codes(&batched(&dims, batch), batch).map(|v| v.clamp(-127, 127));
            let want = model.run_quantized(&x).expect("interpreter run");
            for threads in [1usize, 2, 4] {
                let got = with_threads(threads, || plan.run_quantized(&x, &mut arena))
                    .expect("planned run");
                assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "{tag}: planned logits diverge at batch {batch}, {threads} thread(s)"
                );
            }
        }
    }
}

#[test]
fn cnn_plans_need_no_steady_allocations() {
    for (tag, model, dims) in cnn_family() {
        let plan = model.compile(&dims).unwrap_or_else(|e| panic!("{tag}: compile: {e}"));
        assert_eq!(plan.steady_allocs(), 0, "{tag}: every CNN step must run in the arena");
        let kernels: Vec<&str> = plan.kernels().map(|(_, k)| k).collect();
        assert!(kernels.contains(&"im2col-gemm/i16"), "{tag}: {kernels:?}");
        if tag.starts_with("mobilenet") {
            assert!(kernels.contains(&"dwconv-direct"), "{tag}: {kernels:?}");
        }
    }
}

#[test]
fn sparse_layers_pick_their_kernel_by_stored_density() {
    for (tag, (model, dims), want) in [
        ("mlp-nm24", zoo::tiny_mlp_nm(2, 4), "packed-gemm/i16"),
        ("mlp-pruned80", zoo::tiny_mlp_pruned(0.8), "packed-gemm/i16"),
        ("mlp-pruned95", zoo::tiny_mlp_pruned(0.95), "spmm"),
    ] {
        let plan = model.compile(&dims).unwrap_or_else(|e| panic!("{tag}: compile: {e}"));
        let fc1 = model.nodes.iter().position(|n| n.name == "fc1").expect("fc1 node");
        let got = plan.kernels().find(|&(node, _)| node == fc1).map(|(_, k)| k);
        assert_eq!(got, Some(want), "{tag}: fc1 kernel");
    }
}

#[test]
fn static_shapes_match_the_executed_shapes_on_every_zoo_model() {
    let mut models: Vec<(String, IntModel, Vec<usize>)> = mlp_family();
    models.extend(cnn_family());
    let (vit, vdims) = zoo::vit_ptq();
    models.push(("vit-ptq".into(), vit, vdims));
    for (tag, model, dims) in models {
        for batch in [1usize, 3, 8] {
            let bdims = batched(&dims, batch);
            let shapes = model.infer_shapes(&bdims).unwrap_or_else(|e| panic!("{tag}: {e}"));
            let values = model.run_all(&random_input(&bdims, batch as u64)).expect("run_all");
            let executed: Vec<&[usize]> = values.iter().map(Tensor::dims).collect();
            assert_eq!(shapes, executed, "{tag}: static shapes diverge at batch {batch}");
        }
    }
}

#[test]
fn every_zoo_mac_tile_picks_the_i16_width() {
    for (tag, builder) in zoo::zoo() {
        let (model, dims) = builder();
        let plan = model.compile(&dims).unwrap_or_else(|e| panic!("{tag}: compile: {e}"));
        let kernels: Vec<&str> = plan.kernels().map(|(_, k)| k).collect();
        let tiles: Vec<&str> = kernels.iter().copied().filter(|k| k.contains("-gemm")).collect();
        assert!(!tiles.is_empty(), "{tag}: no GEMM-shaped step in {kernels:?}");
        assert!(
            tiles.iter().all(|k| k.ends_with("/i16")),
            "{tag}: zoo weights are <= 8-bit codes, every tile must run on i16: {kernels:?}"
        );
    }
}

#[test]
fn mlp_and_cnn_plans_run_in_an_arena_sized_at_compile_time() {
    let mut models = mlp_family();
    models.extend(cnn_family());
    for (tag, model, dims) in models {
        let plan = model.compile(&dims).unwrap_or_else(|e| panic!("{tag}: compile: {e}"));
        assert_eq!(plan.steady_allocs(), 0, "{tag}: every step must run in the arena");
        for batch in [1usize, 3, 8] {
            let mut arena = Arena::new();
            let mut out = Vec::new();
            let sized = plan.arena_bytes() * batch + plan.scratch_bytes(batch);
            for seed in 0..3u64 {
                let x =
                    rail_codes(&batched(&dims, batch), seed as usize).map(|v| v.clamp(-127, 127));
                plan.run_quantized_into(&x, &mut arena, &mut out).expect("planned run");
                assert_eq!(
                    arena.capacity_bytes(),
                    sized,
                    "{tag}: batch {batch} run {seed} grew the arena past its compiled size"
                );
            }
        }
    }
}
