//! Deployment-path benchmark for the toolkit: compiled plans offline
//! (`zoo-plan`), a batching server under open-loop arrivals
//! (`serve-open`) and a replicated cluster taking rolling updates beside
//! its reads (`rolling-update`). See `perfbench/README.md`.
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --latency-limit-ms 25 --workload serve-open --seed 1 --seconds 40 --trace 0
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics (from a traced run plus probes) with `--trace 1`.
//! A run whose open-loop generator fell behind its schedule is invalid:
//! it exits with code 3 and prints no result.

mod alloc;
mod probes;
mod rolling;
mod serve_open;
mod stats;
mod trace;
mod zoo;
mod zoo_plan;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use trace::Tracer;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Slices per workload run; `setup_s` is the median of their set-ups.
const SLICES: usize = 10;
/// Intra-op threads of every kernel call the workloads make: on a 2-core
/// host, 2 serving workers each fanning kernels out to 2 threads made
/// serve-open's p99 spread 65% between runs (13% at one thread). The
/// probes still time the plan at 2 threads.
const INTRA_OP_THREADS: usize = 1;
/// Share of `--seconds` given, in a traced run, to each workload other
/// than the named one (they supply the per-layer metrics of the layers
/// the named workload does not drive).
const SIDE_SHARE: f64 = 0.15;
/// Share of `--seconds` given, in a traced run, to the untraced run of the
/// named workload that the tracing overhead is measured against: at the
/// full length a traced run of 40 s took 132 s, too close to the 180 s
/// a run may take on a slow spell of the host.
const PLAIN_SHARE: f64 = 0.5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ZooPlan,
    ServeOpen,
    RollingUpdate,
}

const WORKLOADS: [(Workload, &str); 3] = [
    (Workload::ZooPlan, "zoo-plan"),
    (Workload::ServeOpen, "serve-open"),
    (Workload::RollingUpdate, "rolling-update"),
];

/// What every workload is given.
#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    /// Goodput counts requests answered correctly within this limit.
    pub latency_limit_ms: f64,
}

/// One workload run's end-to-end figures, plus its per-layer metrics
/// when it ran traced.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: f64,
    /// Zoo-plan: geometric mean over cells of the fastest call; the
    /// serving workloads: median latency.
    pub latency_ms: f64,
    /// `(value, percentile, samples)` — see [`stats::tail_over_slices`].
    pub p99: (f64, f64, usize),
    pub goodput_sps: f64,
    /// Geometric mean over models of the fastest deploy.
    pub deploy_ms: f64,
    pub per_layer: Vec<(String, f64)>,
    /// Why the run must not be scored, if it must not.
    pub invalid: Option<String>,
}

fn run_workload(w: Workload, cfg: &Cfg, tr: &Tracer) -> Outcome {
    match w {
        Workload::ZooPlan => zoo_plan::run(cfg, tr),
        Workload::ServeOpen => serve_open::run(cfg, tr),
        Workload::RollingUpdate => rolling::run(cfg, tr),
    }
}

/// Runs [`SLICES`] slices of the workload. Each sets up from scratch
/// (timed), runs `body` for its share of `--seconds`, and tears down.
/// Returns the median set-up time in seconds. Slicing spreads the set-up
/// samples, and every other measurement, over the whole run, so a slow
/// spell of the shared host lands in one slice instead of a whole figure.
pub fn sliced<S>(
    cfg: &Cfg,
    mut make: impl FnMut() -> S,
    mut body: impl FnMut(&mut S, usize, f64),
    mut tear_down: impl FnMut(S),
) -> f64 {
    let mut times = Vec::new();
    for slice in 0..SLICES {
        let t0 = stats::now_ns();
        let mut state = make();
        times.push((stats::now_ns() - t0) as f64 / 1e9);
        body(&mut state, slice, cfg.seconds / SLICES as f64);
        tear_down(state);
    }
    stats::median(&times)
}

/// Where runs leave packages and traces (ignored by git).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: Workload,
    trace: bool,
    cfg: Cfg,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|(_, n)| *n == name)
        .map(|(w, _)| *w)
        .ok_or(format!("unknown workload {name:?}"))?;
    let num = |flag: &str| -> Result<f64, String> {
        get(flag)?.parse::<f64>().map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = num("--seconds")?;
    let latency_limit_ms = num("--latency-limit-ms")?;
    if !(seconds > 0.0 && latency_limit_ms > 0.0) {
        return Err("--seconds and --latency-limit-ms must be positive".into());
    }
    Ok(Args {
        workload,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
        },
        cfg: Cfg {
            seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            seconds,
            latency_limit_ms,
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --latency-limit-ms <ms> --workload <zoo-plan|serve-open|\
                 rolling-update> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    stats::now_ns();
    torch2chip::core::set_num_threads(INTRA_OP_THREADS);
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir().display());
        return ExitCode::from(1);
    }
    let cfg = args.cfg;
    let name = WORKLOADS.iter().find(|(w, _)| *w == args.workload).map_or("?", |(_, n)| n);

    let (outcomes, metrics) = if args.trace {
        traced(args.workload, name, &cfg)
    } else {
        let o = run_workload(args.workload, &cfg, &Tracer::new(false));
        let metrics = vec![
            ("setup_s".to_string(), o.setup_s, "s"),
            ("peak_rss_mb".to_string(), peak_rss_mb(), "MiB"),
            ("latency_ms".to_string(), o.latency_ms, "ms"),
            ("goodput_sps".to_string(), o.goodput_sps, "samples/s"),
            ("deploy_ms".to_string(), o.deploy_ms, "ms"),
        ];
        println!(
            "{name}: latency_ms is the fastest call (zoo-plan, geometric mean over cells) or \
             the median over slices of each slice's median; {} samples",
            o.p99.2
        );
        // The tail is printed, not scored: it follows the shared host's
        // steal from one phase to the next (see perfbench/README.md).
        println!(
            "{name}: tail {:.4} ms (lower quartile over slices of each slice's p{:.2}; \
             per-layer plan.p99_ms / serve.p99_ms)",
            o.p99.0, o.p99.1
        );
        (vec![o], metrics)
    };

    if let Some(why) = outcomes.iter().find_map(|o| o.invalid.clone()) {
        eprintln!("perfbench: run invalid, not scored: {why}");
        return ExitCode::from(3);
    }
    if let Some((n, v, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: metric {n} is not finite ({v})");
        return ExitCode::from(1);
    }
    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    if attempted == 0 {
        eprintln!("perfbench: no operation was attempted");
        return ExitCode::from(1);
    }
    let correct = failed == 0;
    for (n, v, u) in &metrics {
        println!("{n} = {v} {u}");
    }
    println!(
        "{name}: attempted {attempted}, failed {attempted_failed} (failed_frac {frac})",
        attempted_failed = failed,
        frac = failed as f64 / attempted as f64
    );
    let mut json = String::new();
    for (n, v, u) in &metrics {
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(json, "{sep}\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{json}}}}}"
    );
    ExitCode::SUCCESS
}

/// The traced run: probes first (no server threads are alive, so the
/// allocation odometer is exact), then the named workload untraced (for
/// half the time) and traced, for the overhead, then the other workloads
/// traced for a shorter time.
fn traced(w: Workload, name: &str, cfg: &Cfg) -> (Vec<Outcome>, Vec<(String, f64, &'static str)>) {
    let tracer = Tracer::new(true);
    let (mut per_layer, ledger) = probes::run(cfg.seed, &tracer);

    let plain =
        run_workload(w, &Cfg { seconds: cfg.seconds * PLAIN_SHARE, ..*cfg }, &Tracer::new(false));
    let main = run_workload(w, cfg, &tracer);
    per_layer.push((
        "trace.overhead_pct".into(),
        100.0 * (main.latency_ms - plain.latency_ms) / plain.latency_ms,
    ));
    let side_cfg = Cfg { seconds: (cfg.seconds * SIDE_SHARE).max(1.0), ..*cfg };
    let mut outcomes = vec![plain, main];
    for (other, _) in WORKLOADS.iter().filter(|(o, _)| *o != w) {
        // A side run only feeds per-layer figures: a late generator there
        // shows in `gen.late_p99_ms` instead of voiding the run.
        let mut side = run_workload(*other, &side_cfg, &tracer);
        side.invalid = None;
        outcomes.push(side);
    }
    for o in &outcomes {
        per_layer.extend(o.per_layer.iter().cloned());
    }
    per_layer.push(("trace.spans".into(), tracer.len() as f64));

    let path = out_dir().join(format!("trace-{name}.txt"));
    if let Err(e) = std::fs::write(&path, format!("{ledger}{}", tracer.render())) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    } else {
        println!("trace and step ledger: {}", path.display());
    }

    let catalog = probes::per_layer_catalog();
    let mut metrics = Vec::with_capacity(catalog.len());
    for (metric, unit, _) in &catalog {
        match per_layer.iter().find(|(n, _)| n == metric) {
            Some((_, v)) => metrics.push((metric.clone(), *v, *unit)),
            None => panic!("per-layer metric {metric} was not measured"),
        }
    }
    assert_eq!(metrics.len(), per_layer.len(), "a per-layer metric is missing from the catalog");
    (outcomes, metrics)
}
