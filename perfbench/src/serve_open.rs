//! `serve-open`: open-loop Poisson arrivals at a fixed offered rate into
//! an in-process `t2c-serve` server (2 workers, batches of up to 8, a
//! 500 µs flush window). One thread submits on schedule; one thread
//! collects by polling, so a fast MLP reply is never charged for a slow
//! CNN reply queued ahead of it.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use torch2chip::core::Arena;
use torch2chip::serve::{
    BatchConfig, Handle, ModelRegistry, PendingResponse, ServeError, Server, ServerConfig,
    StatsSnapshot,
};

use crate::stats::{geomean_of_fastest, median, now_ns, per_slice, tail, time_round_robin, Rng};
use crate::trace::{SpanBuf, Tracer};
use crate::zoo::{self, InputPool, ZooModel, NAMES};
use crate::{sliced, Cfg, Outcome};

/// Offered load: far enough below saturation that a slow spell of the
/// shared host does not tip the server into a growing queue.
const RATE_RPS: f64 = 250.0;
const WORKERS: usize = 2;
const MAX_BATCH: usize = 8;
/// Flush window. With the 2 ms default, CNN requests of one model pair up
/// in a batch often enough that p99 sat at 6–15 ms and swung run to run.
const MAX_DELAY_NS: u64 = 500_000;
/// The run is invalid when the generator's lateness p99 exceeds this: a
/// stalled generator must not pass for a slow server.
const GEN_LATE_BOUND_MS: f64 = 10.0;
/// Collector sleep when a sweep finds nothing resolved.
const POLL: Duration = Duration::from_micros(100);
/// Requests still unresolved this long after the last send fail.
const DRAIN_LIMIT_NS: u64 = 5_000_000_000;
/// Time per slice spent admitting the zoo for `deploy_ms`.
const DEPLOY_NS: u64 = 200_000_000;
/// Interval between runtime stats polls in a traced run.
const STATS_EVERY_NS: u64 = 1_000_000;

struct Up {
    zoo: Vec<ZooModel>,
    server: Server,
}

fn make() -> Up {
    let zoo = zoo::build();
    let registry = Arc::new(ModelRegistry::new());
    for m in &zoo {
        registry.admit(m.name, m.model.clone(), &m.dims).expect("zoo model passes the lint gate");
    }
    let server = Server::start(
        registry,
        ServerConfig {
            batch: BatchConfig {
                max_batch: MAX_BATCH,
                max_delay_ns: MAX_DELAY_NS,
                ..BatchConfig::default()
            },
            workers: WORKERS,
            ..ServerConfig::default()
        },
    );
    Up { zoo, server }
}

/// One scheduled request.
#[derive(Clone, Copy)]
struct Arrival {
    due_offset_ns: u64,
    model: usize,
    input: usize,
}

fn schedule(seed: u64, slice: usize, seconds: f64) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, 100 + slice as u64);
    let horizon = (seconds * 1e9) as u64;
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.unit()).ln() / RATE_RPS * 1e9;
        if t as u64 >= horizon {
            return out;
        }
        out.push(Arrival {
            due_offset_ns: t as u64,
            model: zoo::pick_model(&mut rng),
            input: rng.below(zoo::POOL),
        });
    }
}

/// A sent request travelling from the submitter to the collector.
struct Sent {
    k: usize,
    due_ns: u64,
    span: u64,
    pending: Result<PendingResponse, ServeError>,
}

/// A resolved request.
struct Done {
    k: usize,
    latency_ns: u64,
    ok: bool,
}

pub fn run(cfg: &Cfg, tr: &Tracer) -> Outcome {
    let mut buf = tr.buf();
    let mut pool_: Option<InputPool> = None;
    // Per resolved request: (slice, model, latency ms, verdict).
    let mut resolved: Vec<(usize, usize, f64, bool)> = Vec::new();
    let (mut attempted, mut late_ms, mut submit_us) = (0u64, Vec::new(), Vec::new());
    let (mut queue_depth_max, mut stats) = (0u64, StatsSnapshot::default());
    let mut admits: Vec<Vec<f64>> = vec![Vec::new(); NAMES.len()];
    let mut noncompute_ms = Vec::new();

    let setup_s = sliced(
        cfg,
        make,
        |up, slice, seconds| {
            let pool: &InputPool = pool_.get_or_insert_with(|| InputPool::new(&up.zoo, cfg.seed));
            let arrivals = schedule(cfg.seed, slice, seconds);
            let handle = up.server.handle();
            let (tx, rx) = mpsc::channel::<Sent>();
            let start = now_ns() + 1_000_000;
            let (late, submit, (done, qmax)) = std::thread::scope(|s| {
                let submitter = s.spawn(|| submit_all(&handle, &arrivals, pool, start, tr, tx));
                let collector = s.spawn(|| collect(&handle, pool, &arrivals, rx, tr));
                let (late, submit) = submitter.join().expect("submitter thread panicked");
                (late, submit, collector.join().expect("collector thread panicked"))
            });
            attempted += arrivals.len() as u64;
            late_ms.extend(late);
            submit_us.extend(submit);
            queue_depth_max = queue_depth_max.max(qmax);
            let snap = up.server.stats();
            stats.batches += snap.batches;
            stats.batched_rows += snap.batched_rows;
            stats.rejected_busy += snap.rejected_busy;
            stats.deadline_exceeded += snap.deadline_exceeded;
            for d in &done {
                resolved.push((slice, arrivals[d.k].model, d.latency_ns as f64 / 1e6, d.ok));
            }
            if tr.on() {
                // Latency minus the same request's plan compute, replayed
                // on the admitted plan at the workers' thread count.
                let replay = replay_compute_ms(&up.server.registry(), pool, &mut buf);
                noncompute_ms.extend(done.iter().filter(|d| d.ok).map(|d| {
                    let a = arrivals[d.k];
                    d.latency_ns as f64 / 1e6 - replay[a.model][a.input]
                }));
            }
            // `deploy_ms` here: admission (lint, certify, prepack,
            // compile) into a fresh registry, off the serving window.
            time_round_robin(DEPLOY_NS, &mut admits, |i| {
                let m = &up.zoo[i];
                let registry = ModelRegistry::new();
                let model = m.model.clone();
                let t0 = now_ns();
                registry.admit(m.name, model, &m.dims).expect("zoo model passes the gate");
                let t1 = now_ns();
                buf.record("serve.ModelRegistry::admit", 0, 0, t0, t1);
                t1 - t0
            });
        },
        |up: Up| {
            up.server.shutdown();
        },
    );

    let ok: Vec<(usize, f64)> = resolved.iter().filter(|r| r.3).map(|r| (r.0, r.2)).collect();
    let failed = attempted - ok.len() as u64;
    let good = ok.iter().filter(|r| r.1 <= cfg.latency_limit_ms).count();
    let (latency_ms, p99) = per_slice(&ok);
    let (late_p99, _, _) = tail(&late_ms);
    println!(
        "serve-open: {attempted} requests at {RATE_RPS} req/s, generator lateness p99 \
         {late_p99:.3} ms (bound {GEN_LATE_BOUND_MS} ms)"
    );

    let mut per_layer = Vec::new();
    if tr.on() {
        for (mi, name) in NAMES.iter().enumerate() {
            let m: Vec<f64> = resolved.iter().filter(|r| r.3 && r.1 == mi).map(|r| r.2).collect();
            per_layer.push((format!("serve.{name}.p50_ms"), median(&m)));
        }
        per_layer.extend([
            ("serve.p99_ms".to_string(), p99.0),
            ("serve.submit_us".to_string(), median(&submit_us)),
            ("serve.noncompute_p50_ms".to_string(), median(&noncompute_ms)),
            ("serve.mean_batch_rows".to_string(), stats.mean_batch_rows()),
            ("serve.queue_depth_max".to_string(), queue_depth_max as f64),
            ("serve.rejected_busy".to_string(), stats.rejected_busy as f64),
            ("serve.deadline_exceeded".to_string(), stats.deadline_exceeded as f64),
            ("gen.late_p99_ms".to_string(), late_p99),
        ]);
    }
    Outcome {
        attempted,
        failed,
        setup_s,
        latency_ms,
        p99,
        goodput_sps: good as f64 / cfg.seconds,
        deploy_ms: geomean_of_fastest(&admits),
        per_layer,
        invalid: (late_p99 > GEN_LATE_BOUND_MS).then(|| {
            format!("generator lateness p99 {late_p99:.3} ms exceeds {GEN_LATE_BOUND_MS} ms")
        }),
    }
}

/// Sends every arrival at its scheduled time; returns the lateness of
/// each send (ms) and each `Handle::submit` call's duration (µs).
fn submit_all(
    handle: &Handle,
    arrivals: &[Arrival],
    pool: &InputPool,
    start: u64,
    tr: &Tracer,
    tx: mpsc::Sender<Sent>,
) -> (Vec<f64>, Vec<f64>) {
    let mut buf = tr.buf();
    let mut late = Vec::with_capacity(arrivals.len());
    let mut submit = Vec::with_capacity(arrivals.len());
    for (k, a) in arrivals.iter().enumerate() {
        let due_ns = start + a.due_offset_ns;
        let now = now_ns();
        if now < due_ns {
            std::thread::sleep(Duration::from_nanos(due_ns - now));
        }
        let input = pool.inputs[a.model][a.input].clone();
        let span = buf.open();
        let t0 = now_ns();
        let pending = handle.submit(NAMES[a.model], input);
        let t1 = now_ns();
        late.push((t0 - due_ns) as f64 / 1e6);
        submit.push((t1 - t0) as f64 / 1e3);
        buf.record("serve.Handle::submit", span, k as u64, t0, t1);
        if tx.send(Sent { k, due_ns, span, pending }).is_err() {
            break;
        }
    }
    (late, submit)
}

/// Polls every outstanding request without blocking on any one of them.
/// Returns the resolved requests and, when traced, the deepest admission
/// queue seen in the runtime stats.
fn collect(
    handle: &Handle,
    pool: &InputPool,
    arrivals: &[Arrival],
    rx: mpsc::Receiver<Sent>,
    tr: &Tracer,
) -> (Vec<Done>, u64) {
    let mut buf = tr.buf();
    let mut done = Vec::with_capacity(arrivals.len());
    let mut outstanding: Vec<(usize, u64, u64, PendingResponse)> = Vec::new();
    let mut sending = true;
    let mut drain_deadline = u64::MAX;
    let (mut queue_depth_max, mut last_stats) = (0u64, 0u64);
    loop {
        while sending {
            match rx.try_recv() {
                Ok(Sent { k, due_ns, span, pending: Ok(p) }) => {
                    outstanding.push((k, due_ns, span, p))
                }
                Ok(Sent { k, .. }) => done.push(Done { k, latency_ns: 0, ok: false }),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    sending = false;
                    drain_deadline = now_ns() + DRAIN_LIMIT_NS;
                }
            }
        }
        let mut progressed = false;
        let mut i = 0;
        while i < outstanding.len() {
            if let Some(result) = outstanding[i].3.wait_timeout(Duration::ZERO) {
                let now = now_ns();
                let (k, due_ns, span, _) = outstanding.swap_remove(i);
                let a = arrivals[k];
                let ok = result.is_ok_and(|y| y.as_slice() == pool.refs[a.model][a.input]);
                buf.close(span, "serve.request", 0, k as u64, due_ns);
                done.push(Done { k, latency_ns: now - due_ns, ok });
                progressed = true;
            } else {
                i += 1;
            }
        }
        let now = now_ns();
        if tr.on() && now - last_stats >= STATS_EVERY_NS {
            let snap = handle.stats();
            buf.record("serve.Handle::stats", 0, 0, now, now_ns());
            queue_depth_max = queue_depth_max.max(snap.queue_depth);
            last_stats = now;
        }
        if !sending && (outstanding.is_empty() || now > drain_deadline) {
            // Whatever is still outstanding never resolved: it fails.
            done.extend(outstanding.iter().map(|o| Done { k: o.0, latency_ns: 0, ok: false }));
            return (done, queue_depth_max);
        }
        if !progressed {
            std::thread::sleep(POLL);
        }
    }
}

/// Each pooled input's plan compute time (ms), replayed on the admitted
/// plan; median of three calls.
fn replay_compute_ms(
    registry: &ModelRegistry,
    pool: &InputPool,
    buf: &mut SpanBuf<'_>,
) -> Vec<Vec<f64>> {
    NAMES
        .iter()
        .zip(&pool.inputs)
        .map(|(name, xs)| {
            let admitted = registry.get(name).expect("model stays admitted");
            let plan = admitted.plan().expect("admission compiled a plan");
            let mut arena = Arena::new();
            let mut out = Vec::new();
            xs.iter()
                .map(|x| {
                    let times: Vec<f64> = (0..3)
                        .map(|_| {
                            let t0 = now_ns();
                            plan.run_quantized_into(x, &mut arena, &mut out).expect("replay");
                            let t1 = now_ns();
                            buf.record("core.ExecPlan::run_quantized_into", 0, 0, t0, t1);
                            (t1 - t0) as f64 / 1e6
                        })
                        .collect();
                    median(&times)
                })
                .collect()
        })
        .collect()
}
