//! `zoo-plan`: offline batch inference. One thread, one intra-op
//! thread, repeated passes of `ExecPlan::run_quantized_into` over the six
//! zoo models at batch 1 and 8 with warm arenas and outputs. A cell's
//! cost is its fastest call (see [`crate::stats::fastest`]); its tail
//! comes from per-slice tails by [`tail_over_slices`].

use torch2chip::core::{Arena, ExecPlan};
use torch2chip::tensor::Tensor;

use crate::stats::{
    geomean, geomean_of_fastest, median, now_ns, tail, tail_over_slices, time_round_robin, Rng,
};
use crate::trace::Tracer;
use crate::zoo::{self, ZooModel, NAMES};
use crate::{sliced, Cfg, Outcome};

const BATCHES: [usize; 2] = [1, 8];
/// Seeded inputs per cell, cycled call by call.
const INPUTS: usize = 4;
/// Each pass gives every cell at least this much time (and one call), so
/// the µs-scale MLP cells gather as many samples as the ms-scale CNN ones
/// rather than one call per slow pass.
const CELL_SLICE_NS: u64 = 1_000_000;
/// Time per slice spent compiling the zoo for `deploy_ms`.
const DEPLOY_NS: u64 = 200_000_000;

/// One (model, batch) pair with its own warm arena and output vector.
/// Cells are model-major: cell `c` is model `c / 2` at `BATCHES[c % 2]`.
struct Cell {
    model: usize,
    batch: usize,
    arena: Arena,
    out: Vec<i32>,
}

struct Up {
    zoo: Vec<ZooModel>,
    plans: Vec<ExecPlan>,
    cells: Vec<Cell>,
}

/// Builds the zoo, compiles one plan per model and warms every cell's
/// arena and output with one call.
fn make() -> Up {
    let zoo = zoo::build();
    let plans: Vec<ExecPlan> =
        zoo.iter().map(|m| m.model.compile(&m.dims).expect("zoo model compiles")).collect();
    let mut cells = Vec::new();
    for model in 0..zoo.len() {
        for batch in BATCHES {
            let mut cell = Cell { model, batch, arena: Arena::new(), out: Vec::new() };
            let mut dims = zoo[model].dims.clone();
            dims[0] = batch;
            plans[model]
                .run_quantized_into(&Tensor::zeros(&dims), &mut cell.arena, &mut cell.out)
                .expect("warm-up call");
            cells.push(cell);
        }
    }
    Up { zoo, plans, cells }
}

/// Seeded inputs per cell with the reference interpreter's outputs.
type Data = (Vec<Vec<Tensor<i32>>>, Vec<Vec<Vec<i32>>>);

fn data(up: &Up, seed: u64) -> Data {
    let mut rng = Rng::new(seed, 2);
    let inputs: Vec<Vec<Tensor<i32>>> = up
        .cells
        .iter()
        .map(|c| (0..INPUTS).map(|_| up.zoo[c.model].input(c.batch, &mut rng)).collect())
        .collect();
    let refs = up
        .cells
        .iter()
        .zip(&inputs)
        .map(|(c, xs)| xs.iter().map(|x| up.zoo[c.model].reference(x)).collect())
        .collect();
    (inputs, refs)
}

pub fn run(cfg: &Cfg, tr: &Tracer) -> Outcome {
    let mut buf = tr.buf();
    let mut data_: Option<Data> = None;
    let cells = NAMES.len() * BATCHES.len();
    // Per cell: this slice's call times (ms), then per slice its median
    // and tail; the fastest call and the call count over the run. Only
    // one slice's samples are held, so peak RSS does not grow with the
    // number of calls a run gets through.
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); cells];
    let mut slice_meds: Vec<Vec<f64>> = vec![Vec::new(); cells];
    let mut slice_tails: Vec<Vec<(f64, f64, usize)>> = vec![Vec::new(); cells];
    let (mut best, mut calls) = (vec![f64::INFINITY; cells], vec![0usize; cells]);
    let mut compiles: Vec<Vec<f64>> = vec![Vec::new(); NAMES.len()];
    let (mut attempted, mut failed, mut pass) = (0u64, 0u64, 0usize);

    let setup_s = sliced(
        cfg,
        make,
        |up, _, seconds| {
            let (inputs, refs) = data_.get_or_insert_with(|| data(up, cfg.seed));
            let end = now_ns() + (seconds * 1e9) as u64;
            while now_ns() < end {
                let pass_span = buf.open();
                let pass_start = now_ns();
                for (ci, cell) in up.cells.iter_mut().enumerate() {
                    let plan = &up.plans[cell.model];
                    let slice_end = now_ns() + CELL_SLICE_NS;
                    let mut k = pass;
                    loop {
                        let x = &inputs[ci][k % INPUTS];
                        let t0 = now_ns();
                        let r = plan.run_quantized_into(x, &mut cell.arena, &mut cell.out);
                        let t1 = now_ns();
                        attempted += 1;
                        buf.record(
                            "core.ExecPlan::run_quantized_into",
                            pass_span,
                            attempted,
                            t0,
                            t1,
                        );
                        samples[ci].push((t1 - t0) as f64 / 1e6);
                        if r.is_err() || cell.out != refs[ci][k % INPUTS] {
                            failed += 1;
                        }
                        k += 1;
                        if t1 >= slice_end {
                            break;
                        }
                    }
                }
                buf.close(pass_span, "zoo.pass", 0, pass as u64, pass_start);
                pass += 1;
            }
            for (ci, s) in samples.iter_mut().enumerate() {
                best[ci] = s.iter().copied().fold(best[ci], f64::min);
                calls[ci] += s.len();
                slice_meds[ci].push(median(s));
                slice_tails[ci].push(tail(s));
                s.clear();
            }
            // `deploy_ms` here: making a model runnable on this path.
            time_round_robin(DEPLOY_NS, &mut compiles, |i| {
                let m = &up.zoo[i];
                let t0 = now_ns();
                let plan = m.model.compile(&m.dims).expect("zoo model compiles");
                let t1 = now_ns();
                std::hint::black_box(plan);
                buf.record("core.IntModel::compile", 0, 0, t0, t1);
                t1 - t0
            });
        },
        drop,
    );

    // Each cell's figures come from its own distribution: pooled, the
    // 12 cells' call times span three orders of magnitude.
    let tails: Vec<(f64, f64, usize)> =
        slice_tails.iter().zip(&calls).map(|(t, &n)| tail_over_slices(t, n)).collect();
    let sps: Vec<f64> =
        best.iter().enumerate().map(|(ci, b)| BATCHES[ci % 2] as f64 / (b / 1e3)).collect();
    let fewest = tails.iter().min_by_key(|t| t.2).copied().unwrap_or_default();

    let mut per_layer = Vec::new();
    for (ci, b) in best.iter().enumerate() {
        let (name, batch) = (NAMES[ci / 2], BATCHES[ci % 2]);
        println!(
            "zoo-plan: {name} b{batch} fastest {:.1} us, median over slices of the slice \
             median {:.1} us, {} calls",
            b * 1e3,
            median(&slice_meds[ci]) * 1e3,
            calls[ci]
        );
        if tr.on() {
            per_layer.push((format!("plan.{name}.b{batch}.us"), b * 1e3));
        }
    }
    let p99_ms = geomean(&tails.iter().map(|t| t.0).collect::<Vec<_>>());
    if tr.on() {
        per_layer.push(("plan.p99_ms".to_string(), p99_ms));
    }
    Outcome {
        attempted,
        failed,
        setup_s,
        latency_ms: geomean(&best),
        p99: (p99_ms, fewest.1, fewest.2),
        goodput_sps: geomean(&sps),
        deploy_ms: geomean_of_fastest(&compiles),
        per_layer,
        invalid: None,
    }
}
