//! # farm-bench — harnesses regenerating the paper's tables and figures
//!
//! Each binary in `src/bin/` reproduces one table or figure of the
//! evaluation (Section 5) at laptop scale and prints the corresponding rows
//! as CSV on stdout. Absolute numbers differ from the paper (the substrate
//! is an in-process simulated cluster, not a 90-machine RDMA testbed); the
//! *shapes* — which system wins, by roughly what factor, where the
//! crossovers are — are what the harnesses are meant to reproduce. Observed
//! results are recorded in `DESIGN.md` ("What the FaRMv1 baseline and
//! operation logging measured"); the tracked end-to-end and per-layer
//! numbers come from the `benchmark/` package (`benchmark/README.md`).
//!
//! This library crate holds the shared driver: closed-loop worker threads
//! executing TPC-C or YCSB against an [`Engine`], with throughput and
//! latency accounting.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use farm_core::{Engine, EngineConfig, NodeId, TxOptions};
use farm_kernel::ClusterConfig;
use farm_workloads::{TpccConfig, TpccDatabase, TpccOutcome, TpccTxKind, YcsbConfig, YcsbDatabase};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Result of one driver run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Committed transactions of the measured kind per second.
    pub throughput: f64,
    /// Total committed transactions (all kinds).
    pub committed: u64,
    /// Total aborted transactions.
    pub aborted: u64,
    /// Median latency of the measured kind, in microseconds.
    pub latency_p50_us: f64,
    /// 99th-percentile latency of the measured kind, in microseconds.
    pub latency_p99_us: f64,
    /// Mean commit-time uncertainty wait, in microseconds.
    pub mean_write_wait_us: f64,
    /// Abort rate in [0, 1].
    pub abort_rate: f64,
    /// Network messages per committed transaction (all verbs; batched
    /// commit-protocol messages count once however many objects they carry).
    pub msgs_per_commit: f64,
    /// Logical operations per committed transaction — the same traffic
    /// counted per object. `ops_per_commit / msgs_per_commit` is the mean
    /// batching factor the per-destination fan-out achieves.
    pub ops_per_commit: f64,
    /// Mean objects per LOCK batch over the run.
    pub lock_batch_size: f64,
    /// RDMA-read messages per logical read operation, counting local-bypass
    /// reads (which cost no message) in the denominator: 1.0 when every read
    /// is its own message, dropping below 1.0 as `read_many` / batched
    /// VALIDATE fold many reads into one doorbell-batched message and as the
    /// local-bypass fast path serves reads for free.
    pub msgs_per_read: f64,
    /// Mean objects per `read_many` batch over the run.
    pub read_batch_size: f64,
}

/// Read-message amortization: RDMA-read messages per logical read, where
/// logical reads are the metered read ops plus the `local_bypass_reads`
/// served without any message (see [`RunResult::msgs_per_read`]).
pub fn msgs_per_read(net_delta: &farm_net::NetStatsSnapshot, local_bypass_reads: u64) -> f64 {
    let reads = net_delta.ops(farm_net::Verb::RdmaRead) + local_bypass_reads;
    if reads == 0 {
        0.0
    } else {
        net_delta.count(farm_net::Verb::RdmaRead) as f64 / reads as f64
    }
}

/// Sums the per-node network statistics into one cluster-wide snapshot.
pub fn cluster_net_snapshot(engine: &Arc<Engine>) -> farm_net::NetStatsSnapshot {
    engine
        .nodes()
        .iter()
        .map(|n| n.handle().stats().snapshot())
        .fold(farm_net::NetStatsSnapshot::default(), |acc, s| {
            acc.merged(&s)
        })
}

/// Builds a default cluster configuration for benchmarks: `nodes` machines,
/// 3-way replication (or fewer on tiny clusters), background control thread
/// enabled.
pub fn bench_cluster(nodes: usize) -> ClusterConfig {
    ClusterConfig {
        nodes,
        replication: nodes.min(3),
        regions_per_node: 2,
        auto_control: true,
        control_interval: Duration::from_micros(500),
        ..ClusterConfig::default()
    }
}

/// Runs the full TPC-C mix with `threads` closed-loop worker threads spread
/// over the cluster for `duration`, measuring neworder throughput and
/// latency.
pub fn run_tpcc(
    engine: &Arc<Engine>,
    db: &Arc<TpccDatabase>,
    threads: usize,
    duration: Duration,
    opts: TxOptions,
) -> RunResult {
    let stop = Arc::new(AtomicBool::new(false));
    let committed = Arc::new(AtomicU64::new(0));
    let aborted = Arc::new(AtomicU64::new(0));
    let neworders = Arc::new(AtomicU64::new(0));
    let nodes = engine.nodes().len() as u32;
    let mut handles = Vec::new();
    let latencies: Arc<parking_lot::Mutex<Vec<u64>>> =
        Arc::new(parking_lot::Mutex::new(Vec::new()));
    for t in 0..threads {
        let db = Arc::clone(db);
        let stop = Arc::clone(&stop);
        let committed = Arc::clone(&committed);
        let aborted = Arc::clone(&aborted);
        let neworders = Arc::clone(&neworders);
        let latencies = Arc::clone(&latencies);
        handles.push(std::thread::spawn(move || {
            let node = NodeId(t as u32 % nodes);
            let mut rng = StdRng::seed_from_u64(0x5EED + t as u64);
            let mut local_lat = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let kind = TpccTxKind::sample(&mut rng);
                let start = Instant::now();
                match db.execute(node, kind, opts, &mut rng) {
                    Ok(TpccOutcome::Committed(k)) => {
                        committed.fetch_add(1, Ordering::Relaxed);
                        if k == TpccTxKind::NewOrder {
                            neworders.fetch_add(1, Ordering::Relaxed);
                            local_lat.push(start.elapsed().as_nanos() as u64);
                        }
                    }
                    Ok(TpccOutcome::Aborted(_)) => {
                        aborted.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        aborted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            latencies.lock().extend(local_lat);
        }));
    }
    let before = engine.aggregate_stats();
    let net_before = cluster_net_snapshot(engine);
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        let _ = h.join();
    }
    let after = engine.aggregate_stats();
    let delta = after.delta(&before);
    let net_delta = cluster_net_snapshot(engine).delta(&net_before);
    let mut lat = latencies.lock().clone();
    lat.sort_unstable();
    let pct = |p: f64| -> f64 {
        if lat.is_empty() {
            0.0
        } else {
            let idx = ((lat.len() - 1) as f64 * p) as usize;
            lat[idx] as f64 / 1_000.0
        }
    };
    let c = committed.load(Ordering::Relaxed);
    let a = aborted.load(Ordering::Relaxed);
    let commits = delta.commits().max(1);
    RunResult {
        throughput: neworders.load(Ordering::Relaxed) as f64 / duration.as_secs_f64(),
        committed: c,
        aborted: a,
        latency_p50_us: pct(0.5),
        latency_p99_us: pct(0.99),
        mean_write_wait_us: delta.mean_write_wait_ns() / 1_000.0,
        abort_rate: if c + a == 0 {
            0.0
        } else {
            a as f64 / (c + a) as f64
        },
        msgs_per_commit: net_delta.total_messages() as f64 / commits as f64,
        ops_per_commit: net_delta.total_ops() as f64 / commits as f64,
        lock_batch_size: delta.mean_lock_batch_size(),
        msgs_per_read: msgs_per_read(&net_delta, delta.read_local_bypass),
        read_batch_size: delta.mean_read_batch_size(),
    }
}

/// Runs a YCSB workload with `threads` closed-loop workers for `duration`,
/// returning keys-successfully-operated-on per second (the Figure 15 metric
/// counts every key of a completed scan).
pub fn run_ycsb(
    engine: &Arc<Engine>,
    db: &Arc<YcsbDatabase>,
    threads: usize,
    duration: Duration,
    opts: TxOptions,
) -> RunResult {
    let stop = Arc::new(AtomicBool::new(false));
    let keys_done = Arc::new(AtomicU64::new(0));
    let committed = Arc::new(AtomicU64::new(0));
    let aborted = Arc::new(AtomicU64::new(0));
    let nodes = engine.nodes().len() as u32;
    let mut handles = Vec::new();
    for t in 0..threads {
        let db = Arc::clone(db);
        let stop = Arc::clone(&stop);
        let keys_done = Arc::clone(&keys_done);
        let committed = Arc::clone(&committed);
        let aborted = Arc::clone(&aborted);
        handles.push(std::thread::spawn(move || {
            let node = NodeId(t as u32 % nodes);
            let mut rng = StdRng::seed_from_u64(0xFACE + t as u64);
            while !stop.load(Ordering::Relaxed) {
                let op = db.next_op(&mut rng);
                match db.execute(node, &op, opts) {
                    Ok(n) => {
                        keys_done.fetch_add(n as u64, Ordering::Relaxed);
                        committed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        aborted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }));
    }
    let before = engine.aggregate_stats();
    let net_before = cluster_net_snapshot(engine);
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        let _ = h.join();
    }
    let delta = engine.aggregate_stats().delta(&before);
    let net_delta = cluster_net_snapshot(engine).delta(&net_before);
    let c = committed.load(Ordering::Relaxed);
    let a = aborted.load(Ordering::Relaxed);
    let commits = delta.commits().max(1);
    RunResult {
        throughput: keys_done.load(Ordering::Relaxed) as f64 / duration.as_secs_f64(),
        committed: c,
        aborted: a,
        abort_rate: if c + a == 0 {
            0.0
        } else {
            a as f64 / (c + a) as f64
        },
        msgs_per_commit: net_delta.total_messages() as f64 / commits as f64,
        ops_per_commit: net_delta.total_ops() as f64 / commits as f64,
        lock_batch_size: delta.mean_lock_batch_size(),
        msgs_per_read: msgs_per_read(&net_delta, delta.read_local_bypass),
        read_batch_size: delta.mean_read_batch_size(),
        ..Default::default()
    }
}

/// Convenience: build cluster + engine + TPC-C database for a benchmark.
pub fn tpcc_setup(
    nodes: usize,
    engine_cfg: EngineConfig,
    tpcc_cfg: TpccConfig,
) -> (Arc<Engine>, Arc<TpccDatabase>) {
    let engine = Engine::start_cluster(bench_cluster(nodes), engine_cfg);
    let db = Arc::new(TpccDatabase::load(&engine, tpcc_cfg).expect("load TPC-C"));
    (engine, db)
}

/// Convenience: build cluster + engine + YCSB database for a benchmark.
pub fn ycsb_setup(
    nodes: usize,
    engine_cfg: EngineConfig,
    ycsb_cfg: YcsbConfig,
) -> (Arc<Engine>, Arc<YcsbDatabase>) {
    let engine = Engine::start_cluster(bench_cluster(nodes), engine_cfg);
    let db = Arc::new(YcsbDatabase::load(&engine, ycsb_cfg).expect("load YCSB"));
    (engine, db)
}

/// Standard small TPC-C sizing used by the figure harnesses.
pub fn small_tpcc() -> TpccConfig {
    TpccConfig {
        warehouses_per_node: 4,
        districts_per_warehouse: 8,
        customers_per_district: 32,
        items: 128,
    }
}

/// Reads a duration (seconds) override from the environment, falling back to
/// `default_secs`. All harnesses honor `FARM_BENCH_SECS` so CI can shorten
/// runs.
pub fn bench_duration(default_secs: f64) -> Duration {
    std::env::var("FARM_BENCH_SECS")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Duration::from_secs_f64)
        .unwrap_or_else(|| Duration::from_secs_f64(default_secs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tpcc_driver_produces_throughput() {
        let (engine, db) = tpcc_setup(3, EngineConfig::default(), small_tpcc());
        let result = run_tpcc(
            &engine,
            &db,
            2,
            Duration::from_millis(200),
            TxOptions::serializable(),
        );
        assert!(
            result.throughput > 0.0,
            "no neworders committed: {result:?}"
        );
        assert!(result.abort_rate < 0.5);
        engine.cluster().shutdown();
        engine.shutdown();
    }

    #[test]
    fn ycsb_driver_produces_throughput() {
        let (engine, db) = ycsb_setup(
            3,
            EngineConfig::multi_version(),
            YcsbConfig {
                keys: 500,
                value_size: 32,
                ..Default::default()
            },
        );
        let result = run_ycsb(
            &engine,
            &db,
            2,
            Duration::from_millis(200),
            TxOptions::serializable(),
        );
        assert!(result.throughput > 0.0);
        engine.cluster().shutdown();
        engine.shutdown();
    }

    #[test]
    fn bench_duration_env_override() {
        std::env::remove_var("FARM_BENCH_SECS");
        assert_eq!(bench_duration(1.5), Duration::from_secs_f64(1.5));
    }
}
