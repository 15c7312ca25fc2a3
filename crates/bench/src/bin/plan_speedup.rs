//! `plan-speedup` — the compiled-execution-plan deployment gate.
//!
//! Benchmarks [`t2c_core::ExecPlan`] (per-layer kernels with fused
//! epilogues + arena-backed intermediates, compiled once at admission)
//! against the plain `IntModel::run_quantized` interpreter on every zoo
//! model — the tiny MLP, its 80%-pruned and 2:4 variants, MobileNet,
//! ResNet and ViT — at batch 1 and 8, single-threaded, end to end. The
//! gate demands three properties at once:
//!
//! 1. **plan ≥ 1.0× the interpreter on every cell** — the compiled path
//!    may never be the slower way to serve a model — and ≥ 1.3× on the
//!    tiny MLP, the floor this gate held when it covered only that model;
//! 2. **zero steady-state heap allocations** on every model except ViT
//!    (whose batched-matmul steps still allocate; its count is reported)
//!    — measured for real with a counting global allocator wrapped around
//!    the system allocator: after warm-up calls size the arena and the
//!    output vector, repeated `run_quantized_into` calls at batch 1 and 8
//!    must not allocate a single time;
//! 3. **bit identity** — planned and interpreted logits agree exactly on
//!    every cell.
//!
//! Results land in `bench_results/plan_speedup.json`; exits non-zero when
//! any gate fails — `scripts/verify.sh` runs it as the plan gate.
//!
//! ```sh
//! cargo run --release -p t2c-bench --bin plan_speedup
//! ```

// The counting allocator is the measurement instrument for gate (2); a
// `GlobalAlloc` impl is necessarily unsafe.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use t2c_core::intmodel::IntOp;
use t2c_core::{zoo, Arena, ExecPlan, IntModel};
use t2c_tensor::{with_threads, Tensor};

/// System allocator with an allocation-event odometer. `alloc` and
/// `realloc` both count (a realloc that moves is exactly the kind of
/// hidden traffic the zero-alloc gate exists to catch); `dealloc` does
/// not — freeing is not acquiring.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Batch heights of the timed cells.
const BATCHES: [usize; 2] = [1, 8];
/// Timing repetitions per path and cell (median-of), interpreter and plan
/// interleaved so both see the same host load.
const REPS: usize = 11;
/// Each repetition runs enough calls to last at least this long.
const REP_NS: u128 = 2_000_000;
/// Steady-state iterations the allocation odometer watches per model.
const STEADY_ITERS: u64 = 100;
/// The deployment gate: planned end-to-end over interpreted, 1 thread,
/// on every cell.
const GATE_SPEEDUP: f64 = 1.0;
/// The tiny MLP's own floor, kept from when the gate covered only it.
const GATE_SPEEDUP_MLP: f64 = 1.3;
/// Models whose plans may still allocate (reported, not gated).
const ALLOCS_REPORTED_ONLY: [&str; 1] = ["vit-ptq"];

fn zoo_models() -> Vec<(&'static str, IntModel, Vec<usize>)> {
    let built = [
        ("tiny-mlp", zoo::tiny_mlp()),
        ("mlp-pruned80", zoo::tiny_mlp_pruned(0.8)),
        ("mlp-nm24", zoo::tiny_mlp_nm(2, 4)),
        ("mobilenet-ptq", zoo::mobilenet_ptq()),
        ("resnet-qat", zoo::resnet_qat()),
        ("vit-ptq", zoo::vit_ptq()),
    ];
    built.into_iter().map(|(name, (model, dims))| (name, model, dims)).collect()
}

/// A deterministic batch of codes spanning the model's input grid; both
/// paths treat the leading Quantize node as a pass-through on it.
fn input_codes(model: &IntModel, dims: &[usize], batch: usize) -> Tensor<i32> {
    let Some(IntOp::Quantize { spec, .. }) = model.nodes.first().map(|n| &n.op) else {
        panic!("zoo models start with a Quantize node");
    };
    let (lo, span) = (spec.qmin(), (spec.qmax() - spec.qmin() + 1) as usize);
    let mut d = dims.to_vec();
    d[0] = batch;
    Tensor::from_fn(&d, |i| lo + ((i * 37 + 11) % span) as i32)
}

/// Median per-call time of `interp` and `plan`, in ns, from interleaved
/// repetitions of calibrated length.
fn median_pair_ns(mut interp: impl FnMut(), mut plan: impl FnMut()) -> (u64, u64) {
    let calls_for = |f: &mut dyn FnMut()| {
        f();
        let t0 = Instant::now();
        f();
        (REP_NS / t0.elapsed().as_nanos().max(1)).clamp(1, 10_000) as u32 + 1
    };
    let (ni, np) = (calls_for(&mut interp), calls_for(&mut plan));
    let rep = |f: &mut dyn FnMut(), calls: u32| {
        let t0 = Instant::now();
        for _ in 0..calls {
            f();
        }
        u64::try_from(t0.elapsed().as_nanos() / u128::from(calls)).unwrap_or(u64::MAX)
    };
    let (mut ti, mut tp) = (Vec::with_capacity(REPS), Vec::with_capacity(REPS));
    for _ in 0..REPS {
        ti.push(rep(&mut interp, ni));
        tp.push(rep(&mut plan, np));
    }
    ti.sort_unstable();
    tp.sort_unstable();
    (ti[REPS / 2], tp[REPS / 2])
}

struct Cell {
    model: &'static str,
    batch: usize,
    unplanned_ns: u64,
    planned_ns: u64,
    bit_identical: bool,
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.unplanned_ns as f64 / self.planned_ns.max(1) as f64
    }

    fn floor(&self) -> f64 {
        if self.model == "tiny-mlp" {
            GATE_SPEEDUP_MLP
        } else {
            GATE_SPEEDUP
        }
    }
}

/// Allocations over [`STEADY_ITERS`] warm calls alternating batch 1 and 8.
fn steady_allocs(plan: &ExecPlan, inputs: &[Tensor<i32>]) -> u64 {
    let mut arena = Arena::new();
    let mut out = Vec::new();
    for x in inputs {
        plan.run_quantized_into(x, &mut arena, &mut out).expect("planned run");
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..STEADY_ITERS {
        let x = &inputs[i as usize % inputs.len()];
        plan.run_quantized_into(x, &mut arena, &mut out).expect("planned run");
        std::hint::black_box(&out);
    }
    ALLOCS.load(Ordering::Relaxed) - before
}

fn main() {
    let mut cells = Vec::new();
    let mut models_json = Vec::new();
    let mut allocs_ok = true;
    println!("| model | batch | interpreter µs | plan µs | speedup | bit-identical |");
    println!("|---|---|---|---|---|---|");
    for (name, model, dims) in zoo_models() {
        let plan = model.compile(&dims).expect("zoo model compiles");
        let inputs: Vec<Tensor<i32>> =
            BATCHES.iter().map(|&b| input_codes(&model, &dims, b)).collect();
        with_threads(1, || {
            let mut arena = Arena::new();
            let mut out: Vec<i32> = Vec::new();
            for (x, &batch) in inputs.iter().zip(&BATCHES) {
                let want = model.run_quantized(x).expect("interpreter run");
                plan.run_quantized_into(x, &mut arena, &mut out).expect("planned run");
                let bit_identical = want.as_slice() == out.as_slice();
                let (unplanned_ns, planned_ns) = median_pair_ns(
                    || {
                        std::hint::black_box(model.run_quantized(x).expect("interpreter run"));
                    },
                    || {
                        plan.run_quantized_into(x, &mut arena, &mut out).expect("planned run");
                        std::hint::black_box(&out);
                    },
                );
                let cell = Cell { model: name, batch, unplanned_ns, planned_ns, bit_identical };
                println!(
                    "| {name} | {batch} | {:.1} | {:.1} | {:.2}x | {} |",
                    unplanned_ns as f64 / 1e3,
                    planned_ns as f64 / 1e3,
                    cell.speedup(),
                    if bit_identical { "yes" } else { "MISMATCH" }
                );
                cells.push(cell);
            }
        });
        let steady = with_threads(1, || steady_allocs(&plan, &inputs));
        let gated = !ALLOCS_REPORTED_ONLY.contains(&name);
        allocs_ok &= !gated || steady == 0;
        let mut kernels: Vec<&str> = Vec::new();
        for (_, k) in plan.kernels() {
            if !kernels.contains(&k) {
                kernels.push(k);
            }
        }
        println!(
            "  {name}: steady allocs {steady} / {STEADY_ITERS} iters ({}), arena {} B/sample \
             + {} B i16 scratch at batch 1, kernels {}",
            if gated { "gated" } else { "reported" },
            plan.arena_bytes(),
            plan.scratch_bytes(1),
            kernels.join(", ")
        );
        let kernels_json: Vec<String> = kernels.iter().map(|k| format!("\"{k}\"")).collect();
        models_json.push(format!(
            "    {{\"model\": \"{name}\", \"steady_allocs\": {steady}, \"allocs_gated\": {gated}, \
             \"arena_bytes\": {}, \"scratch_bytes\": {}, \"fused_nodes\": {}, \
             \"kernels\": [{}]}}",
            plan.arena_bytes(),
            plan.scratch_bytes(1),
            plan.fused_nodes(),
            kernels_json.join(", ")
        ));
    }

    let min_speedup = cells.iter().map(Cell::speedup).fold(f64::INFINITY, f64::min);
    let bit_identical = cells.iter().all(|c| c.bit_identical);
    let floors_met = cells.iter().all(|c| c.speedup() >= c.floor());
    let pass = floors_met && bit_identical && allocs_ok;
    println!(
        "\nplan speedup: min {min_speedup:.2}x over {} cells (floor {GATE_SPEEDUP:.2}x, \
         {GATE_SPEEDUP_MLP:.2}x on tiny-mlp: {}), \
         steady allocs {}, {} — {}",
        cells.len(),
        if floors_met { "met" } else { "MISSED" },
        if allocs_ok { "0 on every gated model" } else { "NONZERO on a gated model" },
        if bit_identical { "bit-identical" } else { "MISMATCH" },
        if pass { "pass" } else { "FAIL" }
    );

    let mut cells_json = String::new();
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            cells_json,
            "{}    {{\"model\": \"{}\", \"batch\": {}, \"unplanned_ns\": {}, \"planned_ns\": {}, \
             \"speedup\": {:.3}, \"floor\": {}, \"bit_identical\": {}}}",
            if i == 0 { "" } else { ",\n" },
            c.model,
            c.batch,
            c.unplanned_ns,
            c.planned_ns,
            c.speedup(),
            c.floor(),
            c.bit_identical
        );
    }
    let created = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let json = format!(
        "{{\n  \"version\": 2,\n  \"bench\": \"plan_speedup\",\n  \"created_unix\": {created},\n  \
         \"threads\": 1,\n  \"steady_iters\": {STEADY_ITERS},\n  \"cells\": [\n{cells_json}\n  ],\n  \
         \"models\": [\n{}\n  ],\n  \"min_speedup\": {min_speedup:.3},\n  \
         \"bit_identical\": {bit_identical},\n  \"gate_speedup\": {GATE_SPEEDUP},\n  \
         \"gate_speedup_mlp\": {GATE_SPEEDUP_MLP},\n  \
         \"pass\": {pass}\n}}\n",
        models_json.join(",\n"),
    );
    std::fs::create_dir_all("bench_results").expect("create bench_results");
    let path = "bench_results/plan_speedup.json";
    std::fs::write(path, json).expect("write plan speedup report");
    println!("plan speedup report: {path}");
    if !pass {
        std::process::exit(1);
    }
}
