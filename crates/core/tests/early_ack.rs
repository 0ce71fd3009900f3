//! Early-ack commit lifecycle tests: `commit` returns at the durability
//! point (all COMMIT-BACKUP acks) with its COMMIT-PRIMARY installs already
//! applied — posted, never awaited — and the per-thread commit pipeline
//! keeps several transactions in their critical paths at once.

use std::sync::Arc;
use std::time::{Duration, Instant};

use farm_core::{Engine, EngineConfig, NodeId, TxError};
use farm_kernel::ClusterConfig;
use farm_memory::{Addr, RegionId};
use farm_net::LatencyModel;

/// An engine whose background thread (GC passes, idle truncation flushes)
/// cannot interfere with assertions about intermediate lifecycle states.
fn quiet_engine(config: EngineConfig) -> Arc<Engine> {
    let config = EngineConfig {
        gc_interval: Duration::from_secs(3600),
        ..config
    };
    Engine::start_cluster(ClusterConfig::test(3), config)
}

/// A region whose primary is NOT `coordinator`, so its LOCK/COMMIT messages
/// are remote.
fn remote_region(engine: &Arc<Engine>, coordinator: NodeId) -> RegionId {
    engine
        .cluster()
        .regions()
        .into_iter()
        .find(|&r| engine.cluster().primary_of(r) != Some(coordinator))
        .expect("multi-node cluster has a remote region")
}

fn slot_of(engine: &Arc<Engine>, addr: Addr) -> farm_memory::SlotRef {
    let primary = engine.cluster().primary_of(addr.region).unwrap();
    engine
        .cluster()
        .node(primary)
        .regions()
        .ensure(addr.region)
        .slot(addr)
        .unwrap()
}

/// A commit to a remote primary returns with its install applied: under
/// datacenter latency, with no `begin`, GC pass or truncation flush in
/// between, the primary's slot is unlocked and holds the new version. The
/// COMMIT-PRIMARY message is posted but never awaited, and the backups
/// still hold the redo record that truncation will apply later.
#[test]
fn a_commit_returns_with_its_remote_install_applied() {
    let engine = quiet_engine(EngineConfig {
        latency: LatencyModel::datacenter(),
        ..EngineConfig::default()
    });
    let coordinator = engine.node(NodeId(0));
    let region = remote_region(&engine, NodeId(0));

    let mut setup = coordinator.begin();
    let addr = setup.alloc_in(region, vec![0u8; 64]).unwrap();
    setup.commit().unwrap();

    let before = coordinator.stats();
    let mut tx = coordinator.begin();
    tx.write(addr, vec![0xABu8; 64]).unwrap();
    let write_ts = tx.commit().unwrap().write_ts.unwrap();

    let slot = slot_of(&engine, addr);
    let header = slot.header_snapshot();
    assert!(!header.locked, "the commit returned with its lock held");
    assert_eq!(header.ts, write_ts);
    assert_eq!(&slot.raw_data()[..], &[0xABu8; 64]);
    let stats = coordinator.stats().delta(&before);
    assert_eq!(stats.commits_rw, 1);
    assert_eq!(stats.primary_batches, 1, "COMMIT-PRIMARY was posted");
    assert_eq!(stats.installs_background, 1, "one destination installed");
    assert!(coordinator.truncation_watermark() >= write_ts);
    let backups = engine
        .cluster()
        .view()
        .placement
        .assignment(region)
        .unwrap()
        .backups
        .to_vec();
    assert!(!backups.is_empty());
    for backup in backups {
        assert_eq!(
            engine.node(backup).backup_log_len(),
            1,
            "{backup} should hold exactly the commit's redo record"
        );
    }
    engine.shutdown();
}

/// Concurrent read-modify-write increments on one shared counter from every
/// machine stay exact: each commit installs and unlocks before it returns,
/// and a reader or locker that meets a lock meets a commit in flight.
#[test]
fn concurrent_increments_stay_exact_under_helping() {
    let engine = quiet_engine(EngineConfig::default());
    let node0 = engine.node(NodeId(0));
    let mut setup = node0.begin();
    let counter = setup.alloc(0u64.to_le_bytes().to_vec()).unwrap();
    setup.commit().unwrap();

    const THREADS: usize = 4;
    const INCREMENTS: usize = 50;
    let committed: u64 = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let engine = Arc::clone(&engine);
            handles.push(scope.spawn(move || {
                let node = engine.node(NodeId(t as u32 % 3));
                let mut committed = 0u64;
                for _ in 0..INCREMENTS {
                    // Retry aborts (lock conflicts, validation failures):
                    // only successful commits count.
                    loop {
                        let mut tx = node.begin();
                        let current = match tx.read(counter) {
                            Ok(bytes) => u64::from_le_bytes(bytes[..8].try_into().unwrap()),
                            Err(_) => continue,
                        };
                        if tx
                            .write(counter, (current + 1).to_le_bytes().to_vec())
                            .is_err()
                        {
                            continue;
                        }
                        match tx.commit() {
                            Ok(_) => {
                                committed += 1;
                                break;
                            }
                            Err(TxError::Aborted(_)) => continue,
                            Err(e) => panic!("unexpected error: {e:?}"),
                        }
                    }
                }
                committed
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });

    assert_eq!(committed, (THREADS * INCREMENTS) as u64);
    engine.quiesce();
    let mut check = node0.begin();
    let value = u64::from_le_bytes(check.read(counter).unwrap()[..8].try_into().unwrap());
    assert_eq!(value, committed, "increments lost or duplicated");
    engine.shutdown();
}

/// Blind writes (`Transaction::overwrite`) lock at whatever version is
/// installed: no read on the execution path, no validation entry, and never
/// a `VersionChanged` abort — two back-to-back blind writers both commit,
/// the second locking at the version the first installed.
#[test]
fn blind_overwrite_commits_without_reading() {
    let engine = quiet_engine(EngineConfig::default());
    let node = engine.node(NodeId(0));
    let region = remote_region(&engine, NodeId(0));
    let mut setup = node.begin();
    let addr = setup.alloc_in(region, vec![0u8; 16]).unwrap();
    setup.commit().unwrap();

    let mut t1 = node.begin();
    t1.overwrite(addr, vec![1u8; 16]).unwrap();
    assert_eq!(t1.reads(), 0, "blind write performs no read");
    let ts1 = t1.commit().unwrap().write_ts.unwrap();

    // The second blind writer, from another machine, locks blind at t1's
    // version — no spurious abort.
    let reader_node = engine.node(NodeId(2));
    let mut t2 = reader_node.begin();
    t2.overwrite(addr, vec![2u8; 16]).unwrap();
    let ts2 = t2.commit().unwrap().write_ts.unwrap();
    assert!(ts2 > ts1);

    engine.quiesce();
    let mut check = node.begin();
    assert_eq!(check.read(addr).unwrap()[0], 2);

    // A blind write to a freed object still aborts: there is nothing to
    // overwrite.
    let mut free = node.begin();
    free.free(addr).unwrap();
    free.commit().unwrap();
    engine.quiesce();
    let mut stale = node.begin();
    stale.overwrite(addr, vec![3u8; 16]).unwrap();
    assert!(
        matches!(stale.commit(), Err(TxError::Aborted(_))),
        "blind write of a freed object must abort"
    );
    engine.shutdown();
}

#[test]
fn pipeline_commits_disjoint_transactions() {
    let engine = quiet_engine(EngineConfig::default());
    let node = engine.node(NodeId(0));
    let region = remote_region(&engine, NodeId(0));

    let mut setup = node.begin();
    let addrs: Vec<Addr> = (0..16)
        .map(|_| setup.alloc_in(region, vec![0u8; 16]).unwrap())
        .collect();
    setup.commit().unwrap();

    let before = node.stats();
    let mut pipeline = node.pipeline(4);
    for (i, &addr) in addrs.iter().enumerate() {
        let mut tx = node.begin();
        tx.write(addr, vec![i as u8 + 1; 16]).unwrap();
        pipeline.submit(tx);
        assert!(pipeline.in_flight() <= 4);
    }
    let results = pipeline.drain();
    assert_eq!(results.len(), 16);
    for r in &results {
        r.as_ref().expect("disjoint pipelined commits all succeed");
    }
    assert_eq!(node.stats().delta(&before).commits_rw, 16);

    engine.quiesce();
    let mut check = node.begin();
    for (i, &addr) in addrs.iter().enumerate() {
        assert_eq!(check.read(addr).unwrap()[0], i as u8 + 1);
    }
    engine.shutdown();
}

#[test]
fn pipeline_handles_read_only_and_aborting_transactions() {
    let engine = quiet_engine(EngineConfig::default());
    let node = engine.node(NodeId(0));
    let mut setup = node.begin();
    let addr = setup.alloc(vec![5u8; 16]).unwrap();
    setup.commit().unwrap();

    let mut pipeline = node.pipeline(2);
    // Read-only: resolved without entering the pipeline.
    let mut ro = node.begin();
    ro.read(addr).unwrap();
    pipeline.submit(ro);
    // A conflicting write: the transaction reads first (while unlocked),
    // then another committer's lock appears, so the pipelined commit aborts
    // on the lock conflict.
    let mut conflicted = node.begin();
    conflicted.read(addr).unwrap();
    let slot = slot_of(&engine, addr);
    let ts = slot.header_snapshot().ts;
    assert_eq!(
        slot.try_lock_at(ts),
        farm_memory::LockOutcome::Acquired,
        "manual foreign lock"
    );
    conflicted.write(addr, vec![6u8; 16]).unwrap();
    pipeline.submit(conflicted);
    let results = pipeline.drain();
    slot.unlock();
    assert_eq!(results.len(), 2);
    assert!(results[0].is_ok(), "read-only commit succeeds");
    assert!(
        matches!(results[1], Err(TxError::Aborted(_))),
        "conflicted pipelined commit aborts cleanly: {:?}",
        results[1]
    );
    // The abort unwound: a retry commits.
    let mut retry = node.begin();
    retry.write(addr, vec![7u8; 16]).unwrap();
    retry.commit().unwrap();
    engine.shutdown();
}

/// Under injected network latency, a depth-8 pipeline overlaps the
/// transactions' flight windows: committing N disjoint transactions takes a
/// fraction of the serial wall-clock. The latency model is scaled well above
/// debug-build CPU costs (and waits spin, so OS sleep slack cannot blur the
/// comparison) — the measured ratio is then dominated by flight overlap, not
/// by host speed.
#[test]
fn pipeline_overlaps_flight_windows_under_latency() {
    let config = EngineConfig {
        latency: LatencyModel {
            rdma_read_ns: 25_000,
            rdma_write_ns: 30_000,
            rpc_ns: 70_000,
            spin_threshold_ns: 300_000,
        },
        gc_interval: Duration::from_secs(3600),
        ..EngineConfig::default()
    };
    let engine = Engine::start_cluster(ClusterConfig::test(3), config);
    let node = engine.node(NodeId(0));
    let region = remote_region(&engine, NodeId(0));
    let mut setup = node.begin();
    let addrs: Vec<Addr> = (0..80)
        .map(|_| setup.alloc_in(region, vec![0u8; 16]).unwrap())
        .collect();
    setup.commit().unwrap();

    const N: usize = 40;
    // Serial: one synchronous commit at a time — pays `Σ phase latencies`
    // per transaction (~100 µs here).
    let start = Instant::now();
    for &addr in &addrs[..N] {
        let mut tx = node.begin();
        tx.overwrite(addr, vec![1u8; 16]).unwrap();
        tx.commit().unwrap();
    }
    let serial = start.elapsed();

    // Pipelined: up to 8 critical paths in flight on this one thread.
    let start = Instant::now();
    let mut pipeline = node.pipeline(8);
    for &addr in &addrs[N..2 * N] {
        let mut tx = node.begin();
        tx.overwrite(addr, vec![2u8; 16]).unwrap();
        pipeline.submit(tx);
    }
    let results = pipeline.drain();
    let pipelined = start.elapsed();
    assert!(results.iter().all(|r| r.is_ok()));

    assert!(
        pipelined < serial.mul_f64(0.75),
        "depth-8 pipeline did not overlap flight windows: serial {serial:?} vs pipelined {pipelined:?}"
    );
    engine.shutdown();
}
