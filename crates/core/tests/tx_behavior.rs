//! Behavioural tests of the FaRMv2 transaction engine: snapshot reads,
//! opacity, conflicts and multi-versioning.

use std::sync::Arc;

use farm_core::{AbortReason, Engine, EngineConfig, MvPolicy, NodeId, TxError, TxOptions};
use farm_kernel::ClusterConfig;

fn engine(config: EngineConfig) -> Arc<Engine> {
    Engine::start_cluster(ClusterConfig::test(3), config)
}

#[test]
fn alloc_read_write_roundtrip() {
    let engine = engine(EngineConfig::default());
    let node = engine.node(NodeId(0));
    let mut tx = node.begin();
    let addr = tx.alloc(b"hello".as_slice()).unwrap();
    let info = tx.commit().unwrap();
    assert!(info.write_ts.is_some());

    let mut tx = node.begin();
    assert_eq!(&tx.read(addr).unwrap()[..], b"hello");
    tx.write(addr, b"world".as_slice()).unwrap();
    tx.commit().unwrap();

    let mut tx = node.begin();
    assert_eq!(&tx.read(addr).unwrap()[..], b"world");
    // Read-only commit is a no-op and must succeed.
    let info = tx.commit().unwrap();
    assert!(info.write_ts.is_none());
    engine.shutdown();
}

#[test]
fn reads_from_any_node_see_committed_data() {
    let engine = engine(EngineConfig::default());
    let writer = engine.node(NodeId(0));
    let mut tx = writer.begin();
    let addr = tx.alloc(vec![42u8; 16]).unwrap();
    tx.commit().unwrap();
    for i in 0..3 {
        let node = engine.node(NodeId(i));
        let mut tx = node.begin();
        assert_eq!(tx.read(addr).unwrap()[0], 42, "node {i} read wrong value");
        tx.commit().unwrap();
    }
    engine.shutdown();
}

#[test]
fn own_writes_are_visible_before_commit() {
    let engine = engine(EngineConfig::default());
    let node = engine.node(NodeId(0));
    let mut setup = node.begin();
    let addr = setup.alloc(vec![1u8]).unwrap();
    setup.commit().unwrap();

    let mut tx = node.begin();
    tx.write(addr, vec![9u8]).unwrap();
    assert_eq!(
        tx.read(addr).unwrap()[0],
        9,
        "transaction must see its own write"
    );
    // But other transactions must not see it until commit (writes are
    // buffered, Section 3.1).
    let mut other = node.begin();
    assert_eq!(other.read(addr).unwrap()[0], 1);
    other.commit().unwrap();
    tx.commit().unwrap();
    engine.shutdown();
}

#[test]
fn write_write_conflict_aborts_one_transaction() {
    let engine = engine(EngineConfig::default());
    let node = engine.node(NodeId(0));
    let mut setup = node.begin();
    let addr = setup.alloc(vec![0u8]).unwrap();
    setup.commit().unwrap();

    let mut t1 = node.begin();
    let mut t2 = node.begin();
    t1.write(addr, vec![1u8]).unwrap();
    t2.write(addr, vec![2u8]).unwrap();
    let r1 = t1.commit();
    let r2 = t2.commit();
    // Exactly one must have succeeded: the second to lock/validate fails.
    assert!(
        r1.is_ok() ^ r2.is_ok(),
        "exactly one of two conflicting writers must commit: {r1:?} {r2:?}"
    );
    let stats = engine.aggregate_stats();
    assert_eq!(stats.commits_rw, 2); // setup + surviving writer
    assert!(stats.aborts() >= 1);
    engine.shutdown();
}

#[test]
fn read_validation_catches_concurrent_writer() {
    let engine = engine(EngineConfig::default());
    let node = engine.node(NodeId(0));
    let mut setup = node.begin();
    let a = setup.alloc(vec![0u8]).unwrap();
    let b = setup.alloc(vec![0u8]).unwrap();
    setup.commit().unwrap();

    // T reads a, then a concurrent transaction updates a, then T writes b.
    let mut t = node.begin();
    assert_eq!(t.read(a).unwrap()[0], 0);
    let mut w = node.begin();
    w.write(a, vec![7u8]).unwrap();
    w.commit().unwrap();
    t.write(b, vec![1u8]).unwrap();
    let err = t.commit().unwrap_err();
    assert!(
        matches!(err, TxError::Aborted(AbortReason::ValidationFailed(_))),
        "{err:?}"
    );
    engine.shutdown();
}

#[test]
fn snapshot_isolation_skips_validation_but_catches_write_conflicts() {
    let engine = engine(EngineConfig::default());
    let node = engine.node(NodeId(0));
    let mut setup = node.begin();
    let a = setup.alloc(vec![0u8]).unwrap();
    let b = setup.alloc(vec![0u8]).unwrap();
    setup.commit().unwrap();

    // Same pattern as above, but under SI the read of `a` is not validated,
    // so the transaction commits (write skew is allowed by SI).
    let mut t = node.begin_with(TxOptions::snapshot_isolation());
    assert_eq!(t.read(a).unwrap()[0], 0);
    let mut w = node.begin();
    w.write(a, vec![7u8]).unwrap();
    w.commit().unwrap();
    t.write(b, vec![1u8]).unwrap();
    t.commit()
        .expect("SI transaction without write conflicts must commit");

    // Write-write conflicts still abort under SI (first locker wins).
    let mut t1 = node.begin_with(TxOptions::snapshot_isolation());
    let mut t2 = node.begin_with(TxOptions::snapshot_isolation());
    t1.write(a, vec![1u8]).unwrap();
    t2.write(a, vec![2u8]).unwrap();
    let r1 = t1.commit();
    let r2 = t2.commit();
    assert!(r1.is_ok() ^ r2.is_ok());
    engine.shutdown();
}

#[test]
fn opacity_snapshot_reads_are_consistent_even_for_doomed_transactions() {
    // Two objects with the invariant x + y == 100. A reader that starts
    // before an update must see a consistent pair even if it will abort.
    let engine = engine(EngineConfig::multi_version());
    let node = engine.node(NodeId(0));
    let mut setup = node.begin();
    let x = setup.alloc(vec![60u8]).unwrap();
    let y = setup.alloc(vec![40u8]).unwrap();
    setup.commit().unwrap();

    for round in 0..20 {
        let mut reader = engine.node(NodeId(1)).begin();
        let vx = reader.read(x).unwrap()[0];
        // A concurrent writer moves 10 from x to y between the two reads.
        let mut writer = node.begin();
        let cur_x = writer.read(x).unwrap()[0];
        let cur_y = writer.read(y).unwrap()[0];
        writer.write(x, vec![cur_x - 1]).unwrap();
        writer.write(y, vec![cur_y + 1]).unwrap();
        writer.commit().unwrap();
        // The reader still sees the snapshot from before the write: the
        // invariant must hold for the values it observes, whatever happens
        // at commit time.
        let vy = reader.read(y).unwrap()[0];
        assert_eq!(
            vx as u32 + vy as u32,
            100,
            "opacity violated in round {round}"
        );
        let _ = reader.commit();
    }
    engine.shutdown();
}

#[test]
fn single_version_mode_aborts_readers_that_need_old_versions() {
    let engine = engine(EngineConfig::default()); // single-version FaRMv2
    let node = engine.node(NodeId(0));
    let mut setup = node.begin();
    let addr = setup.alloc(vec![1u8]).unwrap();
    setup.commit().unwrap();

    let mut reader = node.begin();
    // Reader takes its snapshot now...
    let mut writer = node.begin();
    writer.write(addr, vec![2u8]).unwrap();
    writer.commit().unwrap();
    // ...and then tries to read the object, whose head version is now newer
    // than the snapshot. Without old versions this aborts.
    let err = reader.read(addr).unwrap_err();
    assert!(
        matches!(err, TxError::Aborted(AbortReason::OldVersionUnavailable(_))),
        "{err:?}"
    );
    engine.shutdown();
}

#[test]
fn multi_version_mode_serves_readers_from_old_versions() {
    let engine = engine(EngineConfig::multi_version());
    let node = engine.node(NodeId(0));
    let mut setup = node.begin();
    let addr = setup.alloc(vec![1u8]).unwrap();
    setup.commit().unwrap();

    let mut reader = node.begin();
    let mut writer = node.begin();
    writer.write(addr, vec![2u8]).unwrap();
    writer.commit().unwrap();
    // The reader's snapshot predates the write; multi-versioning serves the
    // old value instead of aborting.
    assert_eq!(reader.read(addr).unwrap()[0], 1);
    reader.commit().unwrap();

    let stats = engine.aggregate_stats();
    assert!(stats.old_versions_allocated >= 1);
    assert!(stats.old_version_reads >= 1);
    engine.shutdown();
}

#[test]
fn eager_validation_aborts_writers_reading_old_versions() {
    let engine = engine(EngineConfig::multi_version());
    let node = engine.node(NodeId(0));
    let mut setup = node.begin();
    let addr = setup.alloc(vec![1u8]).unwrap();
    setup.commit().unwrap();

    let mut rw = node.begin_with(TxOptions {
        write_hint: true,
        ..TxOptions::serializable()
    });
    let mut writer = node.begin();
    writer.write(addr, vec![2u8]).unwrap();
    writer.commit().unwrap();
    // The hinted read-write transaction would fail validation anyway, so the
    // read aborts eagerly instead of returning the old version.
    let err = rw.read(addr).unwrap_err();
    assert!(
        matches!(err, TxError::Aborted(AbortReason::EagerValidation(_))),
        "{err:?}"
    );
    engine.shutdown();
}

#[test]
fn free_makes_object_unreadable_and_reusable() {
    let engine = engine(EngineConfig::default());
    let node = engine.node(NodeId(0));
    let mut setup = node.begin();
    let addr = setup.alloc(vec![5u8]).unwrap();
    setup.commit().unwrap();

    let mut tx = node.begin();
    tx.free(addr).unwrap();
    tx.commit().unwrap();

    let mut reader = node.begin();
    let err = reader.read(addr).unwrap_err();
    assert!(
        matches!(err, TxError::Aborted(AbortReason::BadAddress(_))),
        "{err:?}"
    );
    engine.shutdown();
}

#[test]
fn explicit_abort_discards_writes_and_allocations() {
    let engine = engine(EngineConfig::default());
    let node = engine.node(NodeId(0));
    let mut setup = node.begin();
    let addr = setup.alloc(vec![1u8]).unwrap();
    setup.commit().unwrap();

    let mut tx = node.begin();
    tx.write(addr, vec![9u8]).unwrap();
    let _fresh = tx.alloc(vec![0u8]).unwrap();
    let _ = tx.abort();

    let mut check = node.begin();
    assert_eq!(
        check.read(addr).unwrap()[0],
        1,
        "aborted write must not be visible"
    );
    check.commit().unwrap();
    engine.shutdown();
}

#[test]
fn mv_abort_policy_aborts_writers_when_old_version_memory_is_full() {
    let mut cluster_cfg = ClusterConfig::test(3);
    // Tiny old-version budget: a handful of versions exhaust it.
    cluster_cfg.old_version_block_bytes = 512;
    cluster_cfg.old_version_max_bytes = 1024;
    let engine = Engine::start_cluster(
        cluster_cfg,
        EngineConfig {
            mv_policy: Some(MvPolicy::Abort),
            ..EngineConfig::default()
        },
    );
    let node = engine.node(NodeId(0));
    let mut setup = node.begin();
    let addr = setup.alloc(vec![0u8; 64]).unwrap();
    setup.commit().unwrap();
    // Pin the GC safe point by keeping an old transaction open so memory
    // cannot be reclaimed.
    let _pin = node.begin();
    let mut failures = 0;
    for i in 0..64u8 {
        let mut tx = node.begin();
        if tx.write(addr, vec![i; 64]).is_err() {
            failures += 1;
            continue;
        }
        if tx.commit().is_err() {
            failures += 1;
        }
    }
    assert!(
        failures > 0,
        "old-version memory exhaustion must abort some writers"
    );
    assert!(engine.aggregate_stats().aborts_oldver_memory > 0);
    engine.shutdown();
}

#[test]
fn mv_truncate_policy_keeps_writers_running_and_aborts_readers_instead() {
    let mut cluster_cfg = ClusterConfig::test(3);
    cluster_cfg.old_version_block_bytes = 512;
    cluster_cfg.old_version_max_bytes = 1024;
    let engine = Engine::start_cluster(
        cluster_cfg,
        EngineConfig {
            mv_policy: Some(MvPolicy::Truncate),
            ..EngineConfig::default()
        },
    );
    let node = engine.node(NodeId(0));
    let mut setup = node.begin();
    let addr = setup.alloc(vec![0u8; 64]).unwrap();
    setup.commit().unwrap();
    let _pin = node.begin();
    for i in 0..64u8 {
        let mut tx = node.begin();
        tx.write(addr, vec![i; 64]).unwrap();
        tx.commit()
            .expect("MV-TRUNCATE writers must keep committing");
    }
    assert!(engine.aggregate_stats().oldver_truncations > 0);
    engine.shutdown();
}

#[test]
fn mv_block_policy_stalls_writers_until_the_pin_is_released() {
    let mut cluster_cfg = ClusterConfig::test(3);
    cluster_cfg.old_version_block_bytes = 512;
    cluster_cfg.old_version_max_bytes = 1024;
    let engine = Engine::start_cluster(
        cluster_cfg,
        EngineConfig {
            mv_policy: Some(MvPolicy::Block),
            ..EngineConfig::default()
        },
    );
    let node = engine.node(NodeId(0));
    let mut setup = node.begin();
    let addr = setup.alloc(vec![0u8; 64]).unwrap();
    setup.commit().unwrap();
    let pin = node.begin();
    let writer = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            let node = engine.node(NodeId(0));
            for i in 0..64u8 {
                let mut tx = node.begin();
                tx.write(addr, vec![i; 64]).unwrap();
                tx.commit()
                    .expect("MV-BLOCK writers must commit once the pin is released");
            }
        })
    };
    // The pin holds the GC safe point, so old-version memory fills and the
    // writer stalls inside its LOCK batch instead of aborting.
    while engine.aggregate_stats().oldver_blocks == 0 {
        if writer.is_finished() {
            writer.join().unwrap();
            panic!("the writer finished without ever blocking");
        }
        std::thread::yield_now();
    }
    drop(pin);
    // Each stalled allocation retries for up to 100 ms; advancing the safe
    // point lets its reclamation pass free the blocks the pin held.
    while !writer.is_finished() {
        engine.cluster().control_round();
        engine.collect_garbage_now();
        std::thread::yield_now();
    }
    writer.join().unwrap();
    assert!(engine.aggregate_stats().oldver_blocks > 0);
    engine.shutdown();
}

#[test]
fn non_strict_transactions_still_serialize_writes() {
    let engine = engine(EngineConfig::default());
    let node = engine.node(NodeId(0));
    let mut setup = node.begin();
    let addr = setup.alloc(vec![0u8]).unwrap();
    setup.commit().unwrap();
    for _ in 0..10 {
        let mut tx = node.begin_with(TxOptions::serializable_non_strict());
        let v = tx.read(addr).unwrap()[0];
        tx.write(addr, vec![v + 1]).unwrap();
        tx.commit().unwrap();
    }
    let mut check = node.begin();
    assert_eq!(check.read(addr).unwrap()[0], 10);
    check.commit().unwrap();
    engine.shutdown();
}

#[test]
fn concurrent_counter_increments_from_all_nodes_are_serializable() {
    let engine = engine(EngineConfig::default());
    let node0 = engine.node(NodeId(0));
    let mut setup = node0.begin();
    let addr = setup.alloc(vec![0u8, 0u8]).unwrap();
    setup.commit().unwrap();

    let per_thread = 30u16;
    let threads: Vec<_> = (0..3u32)
        .map(|n| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let node = engine.node(NodeId(n));
                let mut committed = 0u16;
                while committed < per_thread {
                    let mut tx = node.begin();
                    let cur = match tx.read(addr) {
                        Ok(b) => u16::from_le_bytes([b[0], b[1]]),
                        Err(_) => continue,
                    };
                    if tx.write(addr, (cur + 1).to_le_bytes().to_vec()).is_err() {
                        continue;
                    }
                    if tx.commit().is_ok() {
                        committed += 1;
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let mut check = node0.begin();
    let b = check.read(addr).unwrap();
    assert_eq!(u16::from_le_bytes([b[0], b[1]]), 3 * per_thread);
    check.commit().unwrap();
    engine.shutdown();
}

#[test]
fn a_strict_begin_defers_its_uncertainty_wait_to_the_first_read() {
    use std::sync::atomic::Ordering;

    let engine = engine(EngineConfig::default());
    let mut setup = engine.node(NodeId(0)).begin();
    let addr = setup.alloc(vec![1u8]).unwrap();
    setup.commit().unwrap();
    let node = engine.node(NodeId(1));
    let clock = node.handle().clock();
    let waits = || clock.stats().waits.load(Ordering::Relaxed);
    // No background control traffic: n1's interval widens at the drift
    // bound from this sync on, ≈ 0.5 ms after the sleep, so the wait at the
    // first read is never already over.
    engine.cluster().control_round();
    std::thread::sleep(std::time::Duration::from_millis(250));

    let before = waits();
    let mut tx = node.begin();
    assert_eq!(waits(), before, "begin waited");
    tx.read(addr).unwrap();
    assert_eq!(waits(), before + 1, "the first read did not wait");
    tx.read(addr).unwrap();
    let info = tx.commit().unwrap();
    assert_eq!(waits(), before + 1, "a second read or the commit waited");
    assert!(clock.time().unwrap().lower >= info.read_ts);

    // Dropped before its first read: the wait never runs.
    let before = waits();
    drop(node.begin());
    assert_eq!(waits(), before, "a dropped transaction waited");

    // Never read: the commit settles the snapshot before the write
    // timestamp is taken.
    let mut tx = node.begin();
    tx.overwrite(addr, vec![2u8]).unwrap();
    let info = tx.commit().unwrap();
    assert!(info.write_ts.unwrap() > info.read_ts);
    assert!(clock.time().unwrap().lower >= info.read_ts);
    engine.shutdown();
}
