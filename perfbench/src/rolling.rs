//! `rolling-update`: writes beside reads. An in-process `t2c-cluster`
//! (2 replicas, replication 2, 1 worker each) behind `serve_tcp_backend`
//! on loopback. One closed-loop `TcpClient` connection reads with the
//! serving model mix while one updater thread rolls the six models in
//! turn: `export_package` → `read_package` → `Cluster::update`.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use torch2chip::cluster::{Cluster, ClusterConfig, RouterConfig};
use torch2chip::export::{export_package, read_package};
use torch2chip::serve::{serve_tcp_backend, ServerConfig, TcpClient};

use crate::stats::{geomean_of_fastest, mean, median, now_ns, per_slice, Rng};
use crate::trace::{SpanBuf, Tracer};
use crate::zoo::{self, InputPool, ZooModel, NAMES};
use crate::{out_dir, sliced, Cfg, Outcome};

const REPLICAS: usize = 2;
const REPLICATION: usize = 2;
const WORKERS_PER_REPLICA: usize = 1;
/// One rollout starts every period: a fixed write rate, so a faster
/// admission path shows as less interference with the reads rather than
/// as more updates.
const UPDATE_PERIOD_NS: u64 = 100_000_000;

struct Up {
    zoo: Vec<ZooModel>,
    cluster: Cluster,
    stop: Arc<AtomicBool>,
    accept: JoinHandle<()>,
    client: TcpClient,
}

fn make() -> Up {
    let zoo = zoo::build();
    let cluster = Cluster::start(ClusterConfig {
        replicas: REPLICAS,
        router: RouterConfig { replication: REPLICATION, ..RouterConfig::default() },
        server: ServerConfig { workers: WORKERS_PER_REPLICA, ..ServerConfig::default() },
        ..ClusterConfig::default()
    });
    for m in &zoo {
        cluster.deploy(m.name, m.model.clone(), &m.dims).expect("zoo model deploys");
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    let stop = Arc::new(AtomicBool::new(false));
    let accept = serve_tcp_backend(Arc::new(cluster.clone()), listener, Arc::clone(&stop))
        .expect("start the TCP front-end");
    let client = TcpClient::connect(addr).expect("connect over loopback");
    Up { zoo, cluster, stop, accept, client }
}

fn tear_down(up: Up) {
    drop(up.client);
    up.stop.store(true, Ordering::Release);
    up.accept.join().expect("accept thread panicked");
    up.cluster.shutdown();
}

/// One read: which model and input it sent, its latency and verdict.
struct Read {
    model: usize,
    input: usize,
    latency_ns: u64,
    ok: bool,
}

/// One rollout's phases, in ns.
struct Rollout {
    model: usize,
    write_ns: u64,
    read_ns: u64,
    update_ns: u64,
    ok: bool,
}

pub fn run(cfg: &Cfg, tr: &Tracer) -> Outcome {
    let mut pool_: Option<InputPool> = None;
    let pkg_root = out_dir().join("pkg");
    let (mut reads, mut rollouts) = (Vec::new(), Vec::new());
    let mut wire_us = Vec::new();
    let (mut retries, mut hedges, mut hedge_wins, mut balance) = (0, 0, 0, Vec::new());

    let setup_s = sliced(
        cfg,
        make,
        |up, slice, seconds| {
            let pool: &InputPool = pool_.get_or_insert_with(|| InputPool::new(&up.zoo, cfg.seed));
            let end = now_ns() + (seconds * 1e9) as u64;
            let first = rollouts.len();
            let (r, u) = std::thread::scope(|s| {
                let client = &mut up.client;
                let seed = cfg.seed ^ ((slice as u64) << 32);
                let reader = s.spawn(move || read_loop(client, pool, seed, end, tr));
                let updater =
                    s.spawn(|| update_loop(&up.cluster, &up.zoo, &pkg_root, first, end, tr));
                (
                    reader.join().expect("reader thread panicked"),
                    updater.join().expect("updater thread panicked"),
                )
            });
            if tr.on() {
                let stats = up.cluster.stats();
                let completed: Vec<f64> =
                    up.cluster.replica_stats().iter().map(|(_, s)| s.completed as f64).collect();
                balance.push(
                    completed.iter().copied().fold(f64::INFINITY, f64::min)
                        / completed.iter().copied().fold(0.0, f64::max),
                );
                retries += stats.retries;
                hedges += stats.hedges;
                hedge_wins += stats.hedge_wins;
                // TCP latency minus the same request served in process.
                let mut buf = tr.buf();
                let replay = replay_in_process_ms(&up.cluster, pool, &mut buf);
                wire_us.extend(
                    r.iter()
                        .filter(|x| x.ok)
                        .map(|x| (x.latency_ns as f64 / 1e6 - replay[x.model][x.input]) * 1e3),
                );
            }
            reads.extend(r.into_iter().map(|x| (slice, x)));
            rollouts.extend(u);
        },
        tear_down,
    );

    let ok: Vec<(usize, f64)> =
        reads.iter().filter(|r| r.1.ok).map(|r| (r.0, r.1.latency_ns as f64 / 1e6)).collect();
    let attempted = (reads.len() + rollouts.len()) as u64;
    let failed = attempted - ok.len() as u64 - rollouts.iter().filter(|r| r.ok).count() as u64;
    let good = ok.iter().filter(|r| r.1 <= cfg.latency_limit_ms).count();
    let (latency_ms, p99) = per_slice(&ok);
    let per_model_ms = |f: &dyn Fn(&Rollout) -> u64| -> Vec<Vec<f64>> {
        (0..NAMES.len())
            .map(|mi| {
                rollouts
                    .iter()
                    .filter(|r| r.ok && r.model == mi)
                    .map(|r| f(r) as f64 / 1e6)
                    .collect()
            })
            .collect()
    };
    println!("rolling-update: {} reads, {} rollouts", reads.len(), rollouts.len());

    let mut per_layer = Vec::new();
    if tr.on() {
        let us = |f: &dyn Fn(&Rollout) -> u64| {
            mean(&per_model_ms(f).iter().map(|v| median(v)).collect::<Vec<_>>()) * 1e3
        };
        per_layer.extend([
            ("export.write_us".to_string(), us(&|r| r.write_ns)),
            ("export.read_us".to_string(), us(&|r| r.read_ns)),
            ("cluster.update_us".to_string(), us(&|r| r.update_ns)),
            ("wire.overhead_p50_us".to_string(), median(&wire_us)),
            ("cluster.retries".to_string(), retries as f64),
            ("cluster.hedges".to_string(), hedges as f64),
            ("cluster.hedge_wins".to_string(), hedge_wins as f64),
            ("cluster.balance".to_string(), mean(&balance)),
        ]);
    }
    Outcome {
        attempted,
        failed,
        setup_s,
        latency_ms,
        p99,
        goodput_sps: good as f64 / cfg.seconds,
        deploy_ms: geomean_of_fastest(&per_model_ms(&|r| r.write_ns + r.read_ns + r.update_ns)),
        per_layer,
        invalid: None,
    }
}

/// The closed-loop reader: one request at a time over one connection.
fn read_loop(
    client: &mut TcpClient,
    pool: &InputPool,
    seed: u64,
    end: u64,
    tr: &Tracer,
) -> Vec<Read> {
    let mut rng = Rng::new(seed, 4);
    let mut buf = tr.buf();
    let mut reads = Vec::new();
    while now_ns() < end {
        let (model, input) = (zoo::pick_model(&mut rng), rng.below(zoo::POOL));
        let t0 = now_ns();
        let result = client.infer(NAMES[model], &pool.inputs[model][input], 0);
        let t1 = now_ns();
        buf.record("serve.TcpClient::infer", 0, reads.len() as u64, t0, t1);
        let ok = result.is_ok_and(|y| y.as_slice() == pool.refs[model][input]);
        reads.push(Read { model, input, latency_ns: t1 - t0, ok });
    }
    reads
}

/// Rolls one model every [`UPDATE_PERIOD_NS`], cycling through the zoo
/// from model `first` (slices continue the cycle where the last stopped).
fn update_loop(
    cluster: &Cluster,
    zoo: &[ZooModel],
    root: &std::path::Path,
    first: usize,
    end: u64,
    tr: &Tracer,
) -> Vec<Rollout> {
    let mut buf = tr.buf();
    let mut rollouts = Vec::new();
    let mut next = now_ns();
    while next < end {
        let now = now_ns();
        if now < next {
            std::thread::sleep(Duration::from_nanos(next - now));
        }
        let model = (first + rollouts.len()) % zoo.len();
        let m = &zoo[model];
        let dir = root.join(m.name);
        let req = rollouts.len() as u64;
        let span = buf.open();
        let t0 = now_ns();
        let written = export_package(&m.model, &dir);
        let t1 = now_ns();
        let read = written.ok().and_then(|_| read_package(&dir).ok());
        let t2 = now_ns();
        let updated = read.map(|(model, _)| cluster.update(m.name, model));
        let t3 = now_ns();
        buf.record("export.export_package", span, req, t0, t1);
        buf.record("export.read_package", span, req, t1, t2);
        buf.record("cluster.Cluster::update", span, req, t2, t3);
        buf.close(span, "rollout", 0, req, t0);
        rollouts.push(Rollout {
            model,
            write_ns: t1 - t0,
            read_ns: t2 - t1,
            update_ns: t3 - t2,
            ok: matches!(updated, Some(Ok(()))),
        });
        next += UPDATE_PERIOD_NS;
    }
    rollouts
}

/// Each pooled input's latency through `Cluster::infer` in process (ms,
/// median of three), for the wire overhead.
fn replay_in_process_ms(
    cluster: &Cluster,
    pool: &InputPool,
    buf: &mut SpanBuf<'_>,
) -> Vec<Vec<f64>> {
    NAMES
        .iter()
        .zip(&pool.inputs)
        .map(|(name, xs)| {
            xs.iter()
                .map(|x| {
                    let times: Vec<f64> = (0..3)
                        .map(|_| {
                            let input = x.clone();
                            let t0 = now_ns();
                            cluster.infer(name, input).expect("in-process replay");
                            let t1 = now_ns();
                            buf.record("cluster.Cluster::infer", 0, 0, t0, t1);
                            (t1 - t0) as f64 / 1e6
                        })
                        .collect();
                    median(&times)
                })
                .collect()
        })
        .collect()
}
