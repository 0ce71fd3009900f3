//! Reactor lifecycle tests: the deadline-heap reactor's edge cases (drop
//! with in-flight commits, depth backpressure, non-blocking poll,
//! intra-pipeline conflicts) and its cycle accounting.

use std::sync::Arc;
use std::time::{Duration, Instant};

use farm_core::{Engine, EngineConfig, NodeId, TxError};
use farm_kernel::ClusterConfig;
use farm_memory::{Addr, RegionId};
use farm_net::{LatencyModel, PhaseLabel};

/// A latency model scaled well above debug-build CPU costs, spinning (not
/// sleeping) so OS scheduling slack cannot blur timing-sensitive assertions.
fn spin_model() -> LatencyModel {
    LatencyModel {
        rdma_read_ns: 25_000,
        rdma_write_ns: 30_000,
        rpc_ns: 70_000,
        spin_threshold_ns: 300_000,
    }
}

/// A model with latencies far above any assertion margin (tens of ms,
/// slept): a call that returns in a few ms provably did not block on a
/// flight deadline.
fn huge_model() -> LatencyModel {
    LatencyModel {
        rdma_read_ns: 5_000_000,
        rdma_write_ns: 10_000_000,
        rpc_ns: 20_000_000,
        spin_threshold_ns: 20_000,
    }
}

fn engine_with(latency: LatencyModel) -> Arc<Engine> {
    let config = EngineConfig {
        latency,
        gc_interval: Duration::from_secs(3600),
        ..EngineConfig::default()
    };
    Engine::start_cluster(ClusterConfig::test(3), config)
}

fn remote_region(engine: &Arc<Engine>, coordinator: NodeId) -> RegionId {
    engine
        .cluster()
        .regions()
        .into_iter()
        .find(|&r| engine.cluster().primary_of(r) != Some(coordinator))
        .expect("multi-node cluster has a remote region")
}

fn alloc_pool(engine: &Arc<Engine>, node: NodeId, count: usize) -> Vec<Addr> {
    let coordinator = engine.node(node);
    let region = remote_region(engine, node);
    let mut setup = coordinator.begin();
    let addrs = (0..count)
        .map(|_| setup.alloc_in(region, vec![0u8; 16]).unwrap())
        .collect();
    setup.commit().unwrap();
    addrs
}

fn assert_unlocked_with(engine: &Arc<Engine>, addrs: &[Addr], value: u8) {
    let node = engine.node(NodeId(0));
    let mut check = node.begin();
    for &addr in addrs {
        assert_eq!(
            check.read(addr).unwrap()[0],
            value,
            "commit did not land (or left its primary lock held) at {addr:?}"
        );
    }
}

/// Dropping a pipeline with commits still in flight completes them: their
/// drivers hold primary locks, and the `Drop` drain releases every one —
/// later readers see the committed values, not a wedged lock.
#[test]
fn dropping_a_pipeline_completes_in_flight_commits() {
    let engine = engine_with(spin_model());
    let node = engine.node(NodeId(0));
    let addrs = alloc_pool(&engine, NodeId(0), 8);

    let mut pipeline = node.pipeline(8);
    for &addr in &addrs {
        let mut tx = node.begin();
        tx.overwrite(addr, vec![3u8; 16]).unwrap();
        pipeline.submit(tx);
    }
    assert!(
        pipeline.in_flight() > 0,
        "commits should still be in flight"
    );
    drop(pipeline);

    engine.quiesce();
    assert_unlocked_with(&engine, &addrs, 3);
    engine.shutdown();
}

/// `submit` past depth blocks until a slot frees: the in-flight count never
/// exceeds the configured depth, and the full submits collectively absorb
/// the flights' wait time (any single full submit may return quickly when
/// the flight it pumps has already expired, but the protocol's spin waits
/// have to be paid somewhere, and with the test thread doing nothing else
/// that somewhere is inside `submit`).
#[test]
fn submit_past_depth_blocks_until_a_slot_frees() {
    let engine = engine_with(spin_model());
    let node = engine.node(NodeId(0));
    let addrs = alloc_pool(&engine, NodeId(0), 6);

    let mut pipeline = node.pipeline(2);
    let mut over_depth_submits = 0u32;
    let mut full_submit_time = Duration::ZERO;
    for &addr in &addrs {
        let mut tx = node.begin();
        tx.overwrite(addr, vec![4u8; 16]).unwrap();
        let was_full = pipeline.in_flight() == 2;
        let start = Instant::now();
        pipeline.submit(tx);
        if was_full {
            over_depth_submits += 1;
            full_submit_time += start.elapsed();
        }
        assert!(pipeline.in_flight() <= 2, "depth bound violated");
    }
    assert!(over_depth_submits > 0, "test never filled the pipeline");
    assert!(
        full_submit_time >= Duration::from_micros(50),
        "submits into a full pipeline must wait out flight deadlines \
         (4 evicting submits over >=95us-critical-path commits spent only \
         {full_submit_time:?} blocked)"
    );
    let results = pipeline.drain();
    assert!(results.iter().all(|r| r.is_ok()));
    engine.shutdown();
}

/// `poll` makes progress without blocking: with flight times of tens of
/// milliseconds, each poll returns in a fraction of one flight — it never
/// sleeps to a deadline — yet repeated polling alone completes the commits.
#[test]
fn poll_makes_progress_without_blocking() {
    let engine = engine_with(huge_model());
    let node = engine.node(NodeId(0));
    let addrs = alloc_pool(&engine, NodeId(0), 2);

    let mut pipeline = node.pipeline(2);
    for &addr in &addrs {
        let mut tx = node.begin();
        tx.overwrite(addr, vec![5u8; 16]).unwrap();
        pipeline.submit(tx);
    }
    let mut results = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(20);
    while results.len() < 2 {
        assert!(
            Instant::now() < deadline,
            "poll never completed the commits"
        );
        let start = Instant::now();
        pipeline.poll();
        assert!(
            start.elapsed() < Duration::from_millis(4),
            "poll blocked on a flight deadline (flights are >= 5 ms here)"
        );
        results.extend(pipeline.take());
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(results.iter().all(|r| r.is_ok()));
    engine.shutdown();
}

/// Two pipelined transactions writing the same object are genuinely
/// concurrent committers: the later one aborts on the lock conflict with a
/// clean `TxError` — no deadlock, no wedged locks, and a retry commits.
#[test]
fn intra_pipeline_write_conflict_aborts_cleanly() {
    let engine = engine_with(spin_model());
    let node = engine.node(NodeId(0));
    let addrs = alloc_pool(&engine, NodeId(0), 1);
    let addr = addrs[0];

    let mut pipeline = node.pipeline(2);
    for value in [6u8, 7u8] {
        let mut tx = node.begin();
        tx.overwrite(addr, vec![value; 16]).unwrap();
        pipeline.submit(tx);
    }
    let results = pipeline.drain();
    assert_eq!(results.len(), 2);
    let oks = results.iter().filter(|r| r.is_ok()).count();
    let aborts = results
        .iter()
        .filter(|r| matches!(r, Err(TxError::Aborted(_))))
        .count();
    assert_eq!(
        (oks, aborts),
        (1, 1),
        "exactly one writer wins, the other aborts: {results:?}"
    );

    let mut retry = node.begin();
    retry.overwrite(addr, vec![8u8; 16]).unwrap();
    retry.commit().unwrap();
    engine.quiesce();
    assert_unlocked_with(&engine, &addrs, 8);
    engine.shutdown();
}

/// The reactor's cycle accounting: disjoint commits through one pipeline
/// record both issue work and deadline waits, every commit is counted, and
/// busy time is exactly the issue work, installs included — what
/// `kv_pipeline_dc` derives its `core.pipeline` serial fraction and CPU per
/// commit from.
#[test]
fn pipeline_timings_split_busy_and_wait() {
    const N: usize = 24;
    let engine = engine_with(spin_model());
    let node = engine.node(NodeId(0));
    let addrs = alloc_pool(&engine, NodeId(0), N);

    let mut pipeline = node.pipeline(4);
    for &addr in &addrs {
        let mut tx = node.begin();
        tx.overwrite(addr, vec![9u8; 16]).unwrap();
        pipeline.submit(tx);
    }
    let results = pipeline.drain();
    assert_eq!(results.len(), N);
    for r in &results {
        r.as_ref().expect("disjoint pipelined commits all succeed");
    }
    let t = pipeline.timings();
    assert_eq!(t.completed, N as u64);
    assert!(t.issue_ns > 0, "no issue work recorded");
    assert!(t.wait_ns > 0, "no deadline waits recorded");
    assert!(t.wakeups >= 1, "no deadline sleep taken");
    assert_eq!(t.busy_ns(), t.issue_ns);
    let s = t.serial_fraction();
    assert!(s > 0.0 && s < 1.0, "serial fraction {s} outside (0, 1)");

    engine.quiesce();
    assert_unlocked_with(&engine, &addrs, 9);
    engine.shutdown();
}

/// A reactor whose deadlines are always past never sleeps, so it has no
/// wakeup for any flight to coalesce into: sweeps that pop several expired
/// flights are not counted as coalesced.
#[test]
fn a_reactor_that_never_sleeps_coalesces_nothing() {
    const N: usize = 32;
    let one_ns = LatencyModel {
        rdma_read_ns: 1,
        rdma_write_ns: 1,
        rpc_ns: 1,
        ..LatencyModel::default()
    };
    let engine = engine_with(one_ns);
    let node = engine.node(NodeId(0));
    let addrs = alloc_pool(&engine, NodeId(0), N);

    let mut pipeline = node.pipeline(4);
    for &addr in &addrs {
        let mut tx = node.begin();
        tx.overwrite(addr, vec![10u8; 16]).unwrap();
        pipeline.submit(tx);
    }
    let results = pipeline.drain();
    assert!(results.iter().all(|r| r.is_ok()));
    let t = pipeline.timings();
    assert_eq!(t.completed, N as u64);
    assert_eq!((t.wakeups, t.coalesced), (0, 0), "{t:?}");
    engine.shutdown();
}

/// The phase histogram under datacenter latency, for synchronous and
/// pipelined commits alike: one LOCK and one COMMIT-BACKUP sample per
/// commit, and no remote flight recorded shorter than the model's verb
/// latency. Histogram buckets are powers of two, so "not shorter" is
/// checked against the lower edge of the bucket holding the latency.
#[test]
fn remote_phases_are_sampled_once_and_never_shorter_than_their_flight() {
    const N: usize = 16;
    let model = LatencyModel::datacenter();
    let engine = engine_with(model);
    let node = engine.node(NodeId(0));
    let addrs = alloc_pool(&engine, NodeId(0), 2 * N);
    let phases = || node.handle().stats().phases().snapshot();
    let before = phases();

    for &addr in &addrs[..N] {
        let mut tx = node.begin();
        tx.overwrite(addr, vec![11u8; 16]).unwrap();
        tx.commit().unwrap();
    }
    let mut pipeline = node.pipeline(4);
    for &addr in &addrs[N..] {
        let mut tx = node.begin();
        tx.overwrite(addr, vec![11u8; 16]).unwrap();
        pipeline.submit(tx);
    }
    assert!(pipeline.drain().iter().all(|r| r.is_ok()));

    let d = phases().delta(&before);
    // The smallest sample's bucket, as the upper edge `quantile_ns` reports,
    // must be at least the upper edge of the bucket holding `floor_ns`.
    let bucket_upper_edge = |ns: u64| 1u64 << (64 - ns.leading_zeros());
    for (phase, floor_ns) in [
        (PhaseLabel::Lock, model.rpc_ns),
        (PhaseLabel::ReplicateBackups, model.rdma_write_ns),
    ] {
        assert_eq!(d.count(phase), 2 * N as u64, "{phase:?} samples");
        let min = d.quantile_ns(phase, 0.0);
        assert!(
            min >= bucket_upper_edge(floor_ns),
            "a {phase:?} sample fell below {floor_ns} ns (bucket edge {min})"
        );
    }
    engine.shutdown();
}
