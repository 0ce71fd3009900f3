//! The clusters the workloads run on, and the system's own counters read
//! from outside: `EngineStatsSnapshot`, `NetStatsSnapshot`, the per-phase
//! histograms, `ClockStats` and the `EventLog`.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use farm_core::{Engine, EngineStatsSnapshot};
use farm_kernel::{ClusterConfig, EventKind};
use farm_memory::RegionConfig;
use farm_net::{NetStatsSnapshot, PhaseHistogramSnapshot, PhaseLabel, Verb};

use crate::metrics::Outcome;
use crate::ops::{KV_NODES, PIPELINE_NODES, RECOVERY_NODES};

/// Client threads of the `tpcc` and `ycsb_*` workloads: `min(2, nproc)`.
pub fn client_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Lease of the workloads that inject no fault. With the default 10 ms a
/// stall of the control thread on a busy shared host can make the
/// configuration manager suspect a live machine (seen once in ≈ 60 ten-second
/// runs on 2 CPUs); the run then measures an eviction nobody asked for.
/// Failure detection is `recovery`'s subject, and only there is the lease the
/// paper's.
const STEADY_LEASE: Duration = Duration::from_secs(1);

/// `tpcc` and `ycsb_*`: three machines, 3-way replication, two regions per
/// machine, background lease/clock-sync traffic every 500 µs.
pub fn kv_cluster() -> ClusterConfig {
    ClusterConfig {
        nodes: KV_NODES,
        replication: 3,
        regions_per_node: 2,
        auto_control: true,
        control_interval: Duration::from_micros(500),
        lease_expiry: STEADY_LEASE,
        ..ClusterConfig::default()
    }
}

/// `kv_pipeline_dc`: six machines so that a commit's primary and both
/// backups are all remote to the coordinator.
pub fn pipeline_cluster() -> ClusterConfig {
    ClusterConfig {
        nodes: PIPELINE_NODES,
        replication: 3,
        regions_per_node: 1,
        auto_control: true,
        control_interval: Duration::from_micros(500),
        lease_expiry: STEADY_LEASE,
        ..ClusterConfig::default()
    }
}

/// `recovery`: five machines with the paper's 10 ms lease. Regions are
/// small (the data is 240 accounts) so a fresh cluster per trial is cheap.
pub fn recovery_cluster() -> ClusterConfig {
    ClusterConfig {
        nodes: RECOVERY_NODES,
        replication: 3,
        regions_per_node: 2,
        auto_control: true,
        control_interval: Duration::from_micros(500),
        lease_expiry: Duration::from_millis(10),
        region: RegionConfig::small(),
        old_version_block_bytes: 4 * 1024,
        old_version_max_bytes: 1024 * 1024,
        rereplication_pace: Duration::ZERO,
        ..ClusterConfig::default()
    }
}

pub fn stop(engine: &Arc<Engine>) {
    engine.shutdown();
    engine.cluster().shutdown();
}

/// Peak resident set of this process in MB (`VmHWM`). When several
/// workloads run in one process (`run` without `--workload`) this is the
/// peak so far, earlier workloads included: engines are never freed (the
/// cluster and its recovery hooks hold each other), so compare it between
/// runs of the same shape only.
pub fn rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `Suspected` events in the cluster's log that name a node nobody killed.
/// Each is reported on stderr: a false suspicion evicts a live machine, and
/// whatever the run measured after it is a different system.
pub fn false_suspicions(engine: &Engine, victim: Option<farm_core::NodeId>) -> usize {
    let events = engine.cluster().events().snapshot();
    let falsely: Vec<_> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Suspected(n) if Some(n) != victim))
        .collect();
    for e in &falsely {
        eprintln!("FALSE SUSPICION: {:?} (nobody killed that machine)", e.kind);
    }
    falsely.len()
}

/// The system's counters at one instant, summed over machines.
pub struct Counters {
    pub at: Instant,
    pub engine: EngineStatsSnapshot,
    pub net: NetStatsSnapshot,
    pub phases: PhaseHistogramSnapshot,
    pub clock_syncs: u64,
}

impl Counters {
    pub fn read(engine: &Engine) -> Counters {
        let mut net = NetStatsSnapshot::default();
        let mut phases = PhaseHistogramSnapshot::default();
        let mut clock_syncs = 0;
        for node in engine.nodes() {
            let handle = node.handle();
            net = net.merged(&handle.stats().snapshot());
            phases = phases.merged(&handle.stats().phases().snapshot());
            clock_syncs += handle.clock().stats().syncs.load(Ordering::Relaxed);
        }
        Counters {
            at: Instant::now(),
            engine: engine.aggregate_stats(),
            net,
            phases,
            clock_syncs,
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// What every threaded workload does once its clients have stopped: count
/// false suspicions, derive the per-layer counts (a traced run passes the
/// counters at the two edges of its traced phase), settle the commit backlog
/// and check that nothing is left in it.
pub fn settle(out: &mut Outcome, engine: &Engine, traced: Option<(&Counters, &Counters)>) {
    out.set(
        "kernel.false_suspicions",
        false_suspicions(engine, None) as f64,
    );
    if let Some((before, after)) = traced {
        count_metrics(out, before, after);
        after_window_metrics(out, engine);
    }
    quiesce_checked(out, engine);
}

/// The count metrics every workload shares, from the counters' change over
/// the traced phase.
fn count_metrics(out: &mut Outcome, before: &Counters, after: &Counters) {
    let secs = after.at.duration_since(before.at).as_secs_f64();
    let e = after.engine.delta(&before.engine);
    let net = after.net.delta(&before.net);
    let phases = after.phases.delta(&before.phases);
    let commits = e.commits();
    let attempts = commits + e.aborts();

    out.set(
        "clock.write_wait_ns_per_commit",
        ratio(e.write_wait_ns, e.commits_rw),
    );
    out.set(
        "clock.write_wait_overlapped_share",
        ratio(e.write_wait_overlapped_ns, e.write_wait_ns),
    );
    out.set(
        "clock.syncs_per_s",
        (after.clock_syncs - before.clock_syncs) as f64 / secs,
    );

    out.set(
        "memory.oldver_allocs_per_commit",
        ratio(e.old_versions_allocated, e.commits_rw),
    );
    out.set(
        "memory.oldver_reads_per_ktx",
        1e3 * ratio(e.old_version_reads, commits),
    );
    out.set("memory.oldver_truncations", e.oldver_truncations as f64);

    // Lease renewals and clock sync ride the same per-node sinks, so these
    // include the control plane's share (2 RPCs per member per 500 µs).
    let bytes: u64 = [
        Verb::RdmaRead,
        Verb::RdmaWrite,
        Verb::HardwareAck,
        Verb::Rpc,
    ]
    .iter()
    .map(|&v| net.bytes(v))
    .sum();
    out.set("net.msgs_per_commit", ratio(net.total_messages(), commits));
    out.set("net.bytes_per_commit", ratio(bytes, commits));
    out.set(
        "net.ops_per_msg",
        ratio(net.total_ops(), net.total_messages()),
    );
    let reads = net.ops(Verb::RdmaRead) + e.read_local_bypass;
    out.set(
        "net.read_msgs_per_read",
        ratio(net.count(Verb::RdmaRead), reads),
    );
    out.set("net.local_bypass_share", ratio(e.read_local_bypass, reads));

    out.set(
        "core.tx.abort_exec_share",
        ratio(e.aborts_execution, attempts),
    );
    out.set("core.tx.abort_lock_share", ratio(e.aborts_lock, attempts));
    out.set(
        "core.tx.abort_validate_share",
        ratio(e.aborts_validation, attempts),
    );
    out.set("core.tx.read_batch_size", e.mean_read_batch_size());
    out.set(
        "core.tx.read_lock_retries_exhausted",
        e.read_lock_retries_exhausted as f64,
    );

    out.set("core.commit.lock_batch_size", e.mean_lock_batch_size());
    out.set(
        "core.commit.validate_batch_size",
        e.mean_validate_batch_size(),
    );
    out.set(
        "core.commit.unwinds_per_kcommit",
        1e3 * ratio(e.unwinds, e.commits_rw),
    );
    out.set(
        "core.commit.truncate_standalone_per_kcommit",
        1e3 * ratio(e.truncate_flushes, e.commits_rw),
    );
    // The engine's phase histograms have log2 buckets: each value is the
    // upper edge of the bucket that holds the median.
    for (name, label) in [
        ("core.commit.phase_lock_p50_us", PhaseLabel::Lock),
        (
            "core.commit.phase_write_ts_p50_us",
            PhaseLabel::AcquireWriteTs,
        ),
        ("core.commit.phase_validate_p50_us", PhaseLabel::Validate),
        (
            "core.commit.phase_backup_p50_us",
            PhaseLabel::ReplicateBackups,
        ),
    ] {
        out.set(name, phases.quantile_ns(label, 0.5) as f64 / 1e3);
    }

    out.set(
        "core.backlog.installs_bg_per_commit",
        ratio(e.installs_background, e.commits_rw),
    );
    out.set(
        "core.backlog.install_helps_per_kcommit",
        1e3 * ratio(e.install_helps, e.commits_rw),
    );
}

/// What is measured once the clients have stopped: the install backlog they
/// left, a timed drain of it, a timed GC pass, and old-version memory.
fn after_window_metrics(out: &mut Outcome, engine: &Engine) {
    let pending: usize = engine.nodes().iter().map(|n| n.pending_installs()).sum();
    out.set("core.backlog.pending_at_end", pending as f64);
    let t = Instant::now();
    let installs: usize = engine
        .nodes()
        .iter()
        .map(|n| n.drain_pending_installs())
        .sum();
    out.set(
        "core.backlog.drain_ns_per_install",
        ratio(t.elapsed().as_nanos() as u64, installs as u64),
    );
    let t = Instant::now();
    engine.collect_garbage_now();
    out.set("core.gc.collect_ns", t.elapsed().as_nanos() as f64);
    let oldver: usize = engine
        .nodes()
        .iter()
        .map(|n| n.handle().old_versions().allocated_bytes())
        .sum();
    out.set("memory.oldver_bytes_at_end", oldver as f64);
}

/// How long the backlog may take to settle once the clients have stopped.
const SETTLE_WITHIN: Duration = Duration::from_secs(2);

/// Quiesces until no machine holds a pending install or an untruncated
/// redo-log entry; a backlog that has not settled within [`SETTLE_WITHIN`]
/// is a violation.
///
/// One `Engine::quiesce` is not enough. The engine's background thread
/// drains installs every 2 ms, and `drain_pending_installs` takes the queue
/// (and counts it empty) before it applies what it took: a `quiesce` that
/// runs in that gap finds nothing to install, delivers the old truncation
/// watermark, and the commit the background thread then finishes keeps its
/// redo-log entries until the idle flusher comes by. Seen about once in a
/// thousand `recovery` trials.
pub fn quiesce_checked(out: &mut Outcome, engine: &Engine) {
    let started = Instant::now();
    let mut rounds = 0;
    loop {
        engine.quiesce();
        rounds += 1;
        let unsettled: Vec<String> = engine
            .nodes()
            .iter()
            .filter_map(|node| {
                let (pending, log) = (node.pending_installs(), node.backup_log_len());
                (pending != 0 || log != 0).then(|| {
                    format!(
                        "{:?} holds {pending} pending installs and {log} redo-log entries",
                        node.id()
                    )
                })
            })
            .collect();
        if unsettled.is_empty() {
            if rounds > 1 {
                eprintln!(
                    "backlog settled on quiesce round {rounds}, {:?} after the first",
                    started.elapsed()
                );
            }
            return;
        }
        if started.elapsed() >= SETTLE_WITHIN {
            for what in unsettled {
                out.violation(format!(
                    "{what} {SETTLE_WITHIN:?} and {rounds} quiesce rounds after the clients stopped"
                ));
            }
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}
