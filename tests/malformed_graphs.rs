//! A corpus of malformed graphs, each a zoo model with one field broken.
//! `IntModel::compile` infers shapes statically, so every one of them must
//! be refused with an error naming the broken node — never a panic. The
//! lint gate must flag each one too (compile is never stricter than lint),
//! and serve admission must refuse them even without the lint gate.

use t2c_core::intmodel::{IntOp, Src};
use t2c_core::{zoo, IntModel};
use t2c_lint::{lint_model, Severity};
use t2c_serve::{AdmissionError, ModelRegistry};
use t2c_tensor::ops::PoolSpec;
use t2c_tensor::{SparseMat, Tensor};

/// One corpus entry: the broken model, its input shape, the index of the
/// broken node and the lint rule that must flag it.
struct Case {
    tag: &'static str,
    model: IntModel,
    dims: Vec<usize>,
    node: usize,
    rule: &'static str,
}

/// Applies `f` to a clone of `base` and wraps the result as a case.
fn case(
    tag: &'static str,
    base: &(IntModel, Vec<usize>),
    node: usize,
    rule: &'static str,
    f: impl FnOnce(&mut IntModel),
) -> Case {
    let mut model = base.0.clone();
    f(&mut model);
    Case { tag, model, dims: base.1.clone(), node, rule }
}

fn op(model: &mut IntModel, node: usize) -> &mut IntOp {
    &mut model.nodes[node].op
}

fn corpus() -> Vec<Case> {
    let mlp = zoo::tiny_mlp();
    let pruned = zoo::tiny_mlp_pruned(0.8);
    let mobilenet = zoo::mobilenet_ptq();
    let resnet = zoo::resnet_qat();
    let vit = zoo::vit_ptq();
    vec![
        case("dangling-src", &mlp, 2, "T2C002", |m| m.nodes[2].inputs = vec![Src::Node(9)]),
        case("missing-operand", &mlp, 1, "T2C004", |m| m.nodes[1].inputs.clear()),
        case("linear-in-dim", &mlp, 2, "T2C005", |m| {
            let IntOp::Linear { weight, .. } = op(m, 2) else { panic!("head is a linear") };
            *weight = Tensor::zeros(&[10, 127]);
        }),
        case("sparse-in-dim", &pruned, 1, "T2C005", |m| {
            let IntOp::LinearSparse { weight, .. } = op(m, 1) else { panic!("fc1 is sparse") };
            let dense = weight.to_dense();
            let cut = Tensor::from_fn(&[128, 255], |i| dense.as_slice()[i / 255 * 256 + i % 255]);
            *weight = SparseMat::from_dense(&cut).expect("rank-2 weight");
        }),
        case("wrong-rank", &mobilenet, 9, "T2C005", |m| m.nodes[9].inputs = vec![Src::Node(7)]),
        case("conv-groups", &mobilenet, 4, "T2C005", |m| {
            let IntOp::Conv2d { spec, .. } = op(m, 4) else { panic!("block1.dw is a conv") };
            spec.groups /= 2;
        }),
        case("conv-empty-output", &resnet, 7, "T2C005", |m| {
            let IntOp::Conv2d { weight, .. } = op(m, 7) else { panic!("block1.down is a conv") };
            *weight = Tensor::zeros(&[16, 8, 17, 17]);
        }),
        case("pool-window", &resnet, 9, "T2C005", |m| {
            *op(m, 9) = IntOp::MaxPool2d { spec: PoolSpec::new(32) };
        }),
        case("residual-shapes", &resnet, 8, "T2C005", |m| {
            m.nodes[8].inputs = vec![Src::Node(6), Src::Node(4)];
        }),
        case("concat-token-len", &vit, 3, "T2C005", |m| {
            *op(m, 3) = IntOp::ConcatToken { token: Tensor::zeros(&[31]) };
        }),
        case("add-const-len", &vit, 4, "T2C005", |m| {
            let IntOp::AddConstRequant { value, .. } = op(m, 4) else { panic!("pos embed") };
            *value = Tensor::zeros(&[1, 5]);
        }),
        case("layer-norm-short-gamma", &vit, 5, "T2C005", |m| {
            let IntOp::LayerNorm(ln) = op(m, 5) else { panic!("ln1 is a layer norm") };
            ln.gamma_m.pop();
        }),
        case("split-heads", &vit, 9, "T2C005", |m| *op(m, 9) = IntOp::SplitHeads { heads: 3 }),
        case("bmm-inner", &vit, 12, "T2C005", |m| {
            let IntOp::BmmRequant { transpose_rhs, .. } = op(m, 12) else { panic!("qk bmm") };
            *transpose_rhs = false;
        }),
        case("merge-heads", &vit, 15, "T2C005", |m| *op(m, 15) = IntOp::MergeHeads { heads: 3 }),
        case("take-token", &vit, 42, "T2C005", |m| *op(m, 42) = IntOp::TakeToken { index: 17 }),
    ]
}

#[test]
fn malformed_graphs_are_refused_by_compile_lint_and_admission() {
    let corpus = corpus();
    for c in &corpus {
        let name = &c.model.nodes[c.node].name;
        let err = c.model.compile(&c.dims).err().unwrap_or_else(|| panic!("{}: compiled", c.tag));
        let needle = format!("node {} ({name}, {})", c.node, c.model.nodes[c.node].op.label());
        assert!(format!("{err}").contains(&needle), "{}: `{err}` does not name {needle}", c.tag);

        let report = lint_model(&c.model, &c.dims, c.tag);
        assert!(
            report.diagnostics.iter().any(|d| {
                d.severity == Severity::Error && d.rule.id() == c.rule && d.node == Some(c.node)
            }),
            "{}: lint must flag node {} with {}:\n{}",
            c.tag,
            c.node,
            c.rule,
            report.to_text()
        );
    }

    // Skipping the lint gate does not skip compilation.
    let reg = ModelRegistry::new();
    let short_gamma = corpus.iter().find(|c| c.tag == "layer-norm-short-gamma").expect("case");
    let err = reg
        .admit_unchecked("vit-bad", short_gamma.model.clone(), &short_gamma.dims)
        .expect_err("a graph that cannot compile must not be admitted");
    let AdmissionError::BadModel(msg) = err else { panic!("expected BadModel, got {err:?}") };
    assert!(msg.contains("node 5 (ln1"), "rejection must name the node: {msg}");
    assert!(reg.is_empty(), "a refused model must not be registered");
}
