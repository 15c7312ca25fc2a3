//! Per-layer probes for the traced run: each times calls into one
//! layer's public API from outside, on the zoo models.
//!
//! * `core`/`tensor`: the interpreter and the compiled plan per model,
//!   batch and intra-op thread count; `IntModel::compile`; allocations
//!   and arena bytes per call; and each plan step in isolation.
//! * `lint`: `lint_model`, `certify_model`. `serve`: `ModelRegistry::admit`.
//!
//! **Per-step timings.** Each unary node is compiled on its own as a
//! one-node `IntModel` reading `Src::Input` and fed its real input: the
//! output of the interpreter on the node's prefix. Two-input steps
//! (`bmm_requant`, `add_requant`) and `merge_heads` cannot be isolated;
//! on the ViT they are reported as `rest` = whole plan − Σ isolated
//! steps. MACs and bytes moved per step are **computed** from tensor
//! shapes, not measured: MACs dense-equivalent (a pruned layer is
//! credited its dense MACs), bytes as input + weights + output at 4
//! bytes per stored `i32`.

use std::fmt::Write as _;

use torch2chip::core::intmodel::{IntNode, IntOp, Src};
use torch2chip::core::{with_threads, Arena, IntModel};
use torch2chip::lint::{certify_model, lint_model, ErrorBoundConfig};
use torch2chip::serve::ModelRegistry;
use torch2chip::tensor::Tensor;

use crate::alloc;
use crate::stats::{fastest, mean, now_ns, Rng};
use crate::trace::{SpanBuf, Tracer};
use crate::zoo::{self, ZooModel, NAMES};

/// Calls watched by the allocation odometer.
const ALLOC_CALLS: u64 = 20;
/// Batch of the per-step and allocation probes.
const STEP_BATCH: usize = 8;
/// Each timing repeats until both floors are met (or the cap is hit).
const MIN_REPS: usize = 5;
const MAX_REPS: usize = 400;
const MIN_NS: u64 = 100_000_000;

/// Step kinds reported per model, in metric order.
pub fn kinds(model: &str) -> &'static [&'static str] {
    match model {
        "mobilenet-ptq" => &["stem", "dwconv", "pwconv", "head"],
        "resnet-qat" => &["stem", "conv3x3", "conv1x1", "head"],
        "vit-ptq" => &["patch", "linear", "lut", "rest"],
        _ => &["fc1", "head"],
    }
}

/// The kinds whose steps do MACs (the ones with a GMAC/s figure).
fn mac_kinds(model: &str) -> &'static [&'static str] {
    match model {
        "vit-ptq" => &["patch", "linear"],
        m => kinds(m),
    }
}

/// Which reported kind a node's isolated step counts toward, if any.
fn kind_of(model: &str, node: &IntNode) -> Option<&'static str> {
    let label = node.op.label();
    let conv_k = match &node.op {
        IntOp::Conv2d { weight, spec, .. } => Some((weight.dim(2), spec.groups)),
        _ => None,
    };
    match model {
        "mobilenet-ptq" | "resnet-qat" => match (node.name.as_str(), label, conv_k) {
            ("stem", ..) => Some("stem"),
            ("global_avg_pool" | "head", ..) => Some("head"),
            (_, _, Some((_, g))) if g > 1 => Some("dwconv"),
            (_, _, Some(_)) if model == "mobilenet-ptq" => Some("pwconv"),
            (_, _, Some((3, _))) => Some("conv3x3"),
            (_, _, Some((1, _))) => Some("conv1x1"),
            _ => None,
        },
        "vit-ptq" => match label {
            "conv2d_int" | "patch_to_tokens" | "concat_token" | "add_const_requant" => {
                Some("patch")
            }
            "linear_int" => Some("linear"),
            "softmax_lut" | "gelu_lut" => Some("lut"),
            _ => None,
        },
        _ => match node.name.as_str() {
            "fc1" => Some("fc1"),
            "head" => Some("head"),
            _ => None,
        },
    }
}

/// Every per-layer metric, `(name, unit, better)`, in output order. The
/// per-layer list in `BENCHMARK.json` mirrors this.
pub fn per_layer_catalog() -> Vec<(String, &'static str, &'static str)> {
    let mut c: Vec<(String, &'static str, &'static str)> = Vec::new();
    for m in NAMES {
        for b in [1, 8] {
            c.push((format!("plan.{m}.b{b}.us"), "us", "lower"));
        }
        for b in [1, 8] {
            c.push((format!("plan.{m}.b{b}.t2.us"), "us", "lower"));
        }
        for b in [1, 8] {
            c.push((format!("interp.{m}.b{b}.us"), "us", "lower"));
        }
        for k in kinds(m) {
            c.push((format!("plan.{m}.{k}.us"), "us", "lower"));
        }
        for k in mac_kinds(m) {
            c.push((format!("plan.{m}.{k}.gmacs"), "GMAC/s", "higher"));
        }
        c.push((format!("plan.{m}.allocs_per_call"), "count", "lower"));
        c.push((format!("plan.{m}.arena_bytes"), "bytes", "lower"));
        c.push((format!("core.compile.{m}.us"), "us", "lower"));
        c.push((format!("serve.{m}.p50_ms"), "ms", "lower"));
    }
    for (n, u, b) in [
        ("plan.p99_ms", "ms", "lower"),
        ("serve.p99_ms", "ms", "lower"),
        ("serve.submit_us", "us", "lower"),
        ("serve.noncompute_p50_ms", "ms", "lower"),
        ("serve.mean_batch_rows", "rows", "higher"),
        ("serve.queue_depth_max", "count", "lower"),
        ("serve.rejected_busy", "count", "lower"),
        ("serve.deadline_exceeded", "count", "lower"),
        ("gen.late_p99_ms", "ms", "lower"),
        ("export.write_us", "us", "lower"),
        ("export.read_us", "us", "lower"),
        ("lint.analyze_us", "us", "lower"),
        ("lint.certify_us", "us", "lower"),
        ("serve.admit_us", "us", "lower"),
        ("cluster.update_us", "us", "lower"),
        ("wire.overhead_p50_us", "us", "lower"),
        ("cluster.retries", "count", "lower"),
        ("cluster.hedges", "count", "lower"),
        ("cluster.hedge_wins", "count", "lower"),
        ("cluster.balance", "ratio", "higher"),
        ("host.peak_gmacs", "GMAC/s", "higher"),
        ("trace.overhead_pct", "%", "lower"),
        ("trace.spans", "count", "lower"),
    ] {
        c.push((n.to_string(), u, b));
    }
    c
}

/// Fastest time of `f` in µs (as for the workloads' fixed computations,
/// see [`fastest`]), one span per call.
fn time_us<R>(buf: &mut SpanBuf<'_>, name: &'static str, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let mut times = Vec::new();
    let start = now_ns();
    while times.len() < MAX_REPS && (times.len() < MIN_REPS || now_ns() - start < MIN_NS) {
        let t0 = now_ns();
        let result = std::hint::black_box(f());
        let t1 = now_ns();
        drop(result);
        buf.record(name, 0, times.len() as u64, t0, t1);
        times.push((t1 - t0) as f64 / 1e3);
    }
    fastest(&times)
}

/// Fixed int8 dot product the host peak is measured with.
fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    a.iter().zip(b).map(|(&x, &y)| i32::from(x) * i32::from(y)).sum()
}

/// Host int8 MAC rate in GMAC/s: the best of 20 rounds of a fixed,
/// L1-resident dot-product loop on one thread. Context for reading each
/// step's GMAC/s as a share of what the core can do.
fn host_peak_gmacs() -> f64 {
    const LEN: usize = 4096;
    const DOTS: usize = 2000;
    let a: Vec<i8> = (0..LEN).map(|i| ((i * 7) % 255) as i8).collect();
    let b: Vec<i8> = (0..LEN).map(|i| ((i * 13) % 255) as i8).collect();
    (0..20)
        .map(|_| {
            let t0 = now_ns();
            let mut acc = 0i32;
            for _ in 0..DOTS {
                acc = acc.wrapping_add(dot_i8(std::hint::black_box(&a), std::hint::black_box(&b)));
            }
            std::hint::black_box(acc);
            (LEN * DOTS) as f64 / (now_ns() - t0) as f64
        })
        .fold(0.0, f64::max)
}

/// Shape-computed work of one node on its real input and output.
fn work(node: &IntNode, x: &Tensor<i32>, y: &Tensor<i32>) -> (f64, f64) {
    let (macs, weights) = match &node.op {
        IntOp::Conv2d { weight, spec, .. } => {
            let per_out = x.dim(1) / spec.groups * weight.dim(2) * weight.dim(3);
            (y.numel() * per_out, weight.numel())
        }
        IntOp::Linear { .. } | IntOp::LinearSparse { .. } => {
            let k = x.dim(x.rank() - 1);
            (y.numel() * k, k * y.dim(y.rank() - 1))
        }
        _ => (0, 0),
    };
    (macs as f64, 4.0 * (x.numel() + y.numel() + weights) as f64)
}

/// Runs every probe; returns the metrics and the per-step ledger text
/// (computed MACs and bytes, time, rate and share of the host peak).
pub fn run(seed: u64, tr: &Tracer) -> (Vec<(String, f64)>, String) {
    let zoo = zoo::build();
    let mut buf = tr.buf();
    let mut rng = Rng::new(seed, 5);
    let mut metrics = Vec::new();
    let peak = host_peak_gmacs();
    metrics.push(("host.peak_gmacs".to_string(), peak));
    let mut ledger = format!(
        "# host int8 dot-product peak {peak:.3} GMAC/s; MACs and bytes below are computed \
         from tensor shapes\n# model step kind macs bytes us gmacs share_of_peak\n"
    );
    let (mut lint_us, mut cert_us, mut admit_us) = (Vec::new(), Vec::new(), Vec::new());

    for m in &zoo {
        let plan = m.model.compile(&m.dims).expect("zoo model compiles");
        let mut arena = Arena::new();
        let mut out = Vec::new();
        let x1 = m.input(1, &mut rng);
        let x8 = m.input(STEP_BATCH, &mut rng);
        let name = m.name;
        for (b, x) in [(1, &x1), (8, &x8)] {
            let us = with_threads(1, || {
                time_us(&mut buf, "core.IntModel::run_quantized", || m.model.run_quantized(x))
            });
            metrics.push((format!("interp.{name}.b{b}.us"), us));
        }
        for (b, x) in [(1, &x1), (8, &x8)] {
            let us = with_threads(2, || {
                time_us(&mut buf, "core.ExecPlan::run_quantized_into", || {
                    plan.run_quantized_into(x, &mut arena, &mut out)
                })
            });
            metrics.push((format!("plan.{name}.b{b}.t2.us"), us));
        }

        let allocs = with_threads(1, || {
            for _ in 0..2 {
                plan.run_quantized_into(&x8, &mut arena, &mut out).expect("plan run");
            }
            let before = alloc::count();
            for _ in 0..ALLOC_CALLS {
                plan.run_quantized_into(&x8, &mut arena, &mut out).expect("plan run");
            }
            alloc::count() - before
        });
        metrics.push((format!("plan.{name}.allocs_per_call"), allocs as f64 / ALLOC_CALLS as f64));
        metrics.push((format!("plan.{name}.arena_bytes"), plan.arena_bytes() as f64));
        let us = time_us(&mut buf, "core.IntModel::compile", || m.model.compile(&m.dims));
        metrics.push((format!("core.compile.{name}.us"), us));

        let whole_us = with_threads(1, || {
            time_us(&mut buf, "core.ExecPlan::run_quantized_into", || {
                plan.run_quantized_into(&x8, &mut arena, &mut out)
            })
        });
        metrics.extend(steps(m, &x8, whole_us, peak, &mut buf, &mut ledger));

        lint_us.push(time_us(&mut buf, "lint.lint_model", || lint_model(&m.model, &m.dims, name)));
        cert_us.push(time_us(&mut buf, "lint.certify_model", || {
            certify_model(&m.model, &m.dims, ErrorBoundConfig::default(), name)
        }));
        admit_us.push(fastest_admit_us(m, &mut buf));
    }
    metrics.push(("lint.analyze_us".into(), mean(&lint_us)));
    metrics.push(("lint.certify_us".into(), mean(&cert_us)));
    metrics.push(("serve.admit_us".into(), mean(&admit_us)));
    (metrics, ledger)
}

/// Fastest `ModelRegistry::admit` time into a fresh registry, in µs.
fn fastest_admit_us(m: &ZooModel, buf: &mut SpanBuf<'_>) -> f64 {
    let times: Vec<f64> = (0..MIN_REPS)
        .map(|_| {
            let registry = ModelRegistry::new();
            let model = m.model.clone();
            let t0 = now_ns();
            registry.admit(m.name, model, &m.dims).expect("zoo model passes the gate");
            let t1 = now_ns();
            buf.record("serve.ModelRegistry::admit", 0, 0, t0, t1);
            (t1 - t0) as f64 / 1e3
        })
        .collect();
    fastest(&times)
}

/// Times every reportable unary step of `m` in isolation at batch 8 and
/// folds them into per-kind time and GMAC/s metrics.
fn steps(
    m: &ZooModel,
    x8: &Tensor<i32>,
    whole_us: f64,
    peak: f64,
    buf: &mut SpanBuf<'_>,
    ledger: &mut String,
) -> Vec<(String, f64)> {
    let Some(IntOp::Quantize { scale, .. }) = m.model.nodes.first().map(|n| &n.op) else {
        panic!("zoo model {} does not start with a Quantize node", m.name);
    };
    // `run_all` quantizes a float input; these floats quantize back to
    // exactly the seeded codes (checked below).
    let xf = x8.map(|q| q as f32 * scale);
    let values = m.model.run_all(&xf).expect("interpreter run_all");
    assert_eq!(values[0].as_slice(), x8.as_slice(), "input codes did not round-trip");

    let kinds = kinds(m.name);
    let mut time = vec![0.0f64; kinds.len()];
    let mut macs = vec![0.0f64; kinds.len()];
    for (i, node) in m.model.nodes.iter().enumerate() {
        let Some(kind) = kind_of(m.name, node) else { continue };
        let [Src::Node(src)] = node.inputs[..] else {
            panic!("{} step {} is not unary", m.name, node.name);
        };
        let x = &values[src];
        let mut one = IntModel::new();
        one.push(node.name.clone(), node.op.clone(), vec![Src::Input]);
        let plan = one.compile(x.dims()).expect("isolated step compiles");
        let mut arena = Arena::new();
        let mut out = Vec::new();
        let us = with_threads(1, || {
            time_us(buf, "core.ExecPlan::run_quantized_into", || {
                plan.run_quantized_into(x, &mut arena, &mut out)
            })
        });
        assert_eq!(out, values[i].as_slice(), "isolated {} step diverged", node.name);
        let (step_macs, bytes) = work(node, x, &values[i]);
        let k = kinds.iter().position(|&k| k == kind).expect("kind is reported");
        time[k] += us;
        macs[k] += step_macs;
        let gmacs = step_macs / (us * 1e3);
        let _ = writeln!(
            ledger,
            "{} {} {kind} {step_macs} {bytes} {us:.3} {gmacs:.4} {:.4}",
            m.name,
            node.name,
            gmacs / peak
        );
    }
    if let Some(k) = kinds.iter().position(|&k| k == "rest") {
        time[k] = whole_us - time.iter().sum::<f64>();
    }
    let mut metrics = Vec::new();
    for (k, kind) in kinds.iter().enumerate() {
        metrics.push((format!("plan.{}.{kind}.us", m.name), time[k]));
    }
    for kind in mac_kinds(m.name) {
        let k = kinds.iter().position(|x| x == kind).expect("MAC kind is a kind");
        metrics.push((format!("plan.{}.{kind}.gmacs", m.name), macs[k] / (time[k] * 1e3)));
    }
    let _ = writeln!(ledger, "{} whole-plan {whole_us:.3} us", m.name);
    metrics
}
