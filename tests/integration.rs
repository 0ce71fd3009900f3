//! Cross-crate integration tests: transactions running through failures,
//! serializability under concurrency, and GC interacting with long-running
//! snapshots.

use std::sync::Arc;
use std::time::Duration;

use farm_repro::kernel::EventKind;
use farm_repro::{ClusterConfig, Engine, EngineConfig, NodeId, TxOptions};

#[test]
fn transactions_survive_a_cm_failure() {
    let mut cfg = ClusterConfig::test(4);
    cfg.auto_control = true;
    cfg.lease_expiry = Duration::from_millis(10);
    let engine = Engine::start_cluster(cfg, EngineConfig::default());
    let node3 = engine.node(NodeId(3));
    let mut tx = node3.begin();
    let addr = tx.alloc(vec![1u8]).unwrap();
    tx.commit().unwrap();

    // Kill the CM (node 0). The control thread detects it, fails over the
    // clock master and commits a new configuration.
    engine.cluster().kill(NodeId(0));
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while engine.cluster().current_config().epoch == 1 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        engine.cluster().current_config().epoch >= 2,
        "reconfiguration never happened"
    );
    let events = engine.cluster().events().snapshot();
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::ClockEnabled { .. })));

    // Transactions keep working after recovery, from a surviving node.
    let mut retries = 0;
    loop {
        let mut tx = node3.begin();
        if let Ok(()) = tx
            .read(addr)
            .and_then(|v| tx.write(addr, vec![v[0] + 1]).map(|_| ()))
        {
            if tx.commit().is_ok() {
                break;
            }
        }
        retries += 1;
        assert!(retries < 100, "could not commit after failover");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut check = node3.begin();
    assert_eq!(check.read(addr).unwrap()[0], 2);
    check.commit().unwrap();
    engine.shutdown();
    engine.cluster().shutdown();
}

#[test]
fn serializability_of_concurrent_increments_across_engines() {
    // Run the same concurrent counter workload under FaRMv2 and verify the
    // final value equals the number of successful commits (no lost updates),
    // which is the core serializability guarantee.
    for cfg in [EngineConfig::default(), EngineConfig::multi_version()] {
        let engine = Engine::start_cluster(ClusterConfig::test(3), cfg);
        let node0 = engine.node(NodeId(0));
        let mut setup = node0.begin();
        let addr = setup.alloc(0u64.to_le_bytes().to_vec()).unwrap();
        setup.commit().unwrap();
        let threads: Vec<_> = (0..3u32)
            .map(|n| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    let node = engine.node(NodeId(n));
                    let mut commits = 0u64;
                    for _ in 0..200 {
                        let mut tx = node.begin();
                        let Ok(v) = tx.read(addr) else { continue };
                        let cur = u64::from_le_bytes(v[..8].try_into().unwrap());
                        if tx.write(addr, (cur + 1).to_le_bytes().to_vec()).is_err() {
                            continue;
                        }
                        if tx.commit().is_ok() {
                            commits += 1;
                        }
                    }
                    commits
                })
            })
            .collect();
        let total_commits: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
        let mut check = engine.node(NodeId(1)).begin();
        let v = check.read(addr).unwrap();
        let value = u64::from_le_bytes(v[..8].try_into().unwrap());
        assert_eq!(value, total_commits, "lost update detected");
        check.commit().unwrap();
        engine.shutdown();
        engine.cluster().shutdown();
    }
}

#[test]
fn gc_reclaims_old_versions_once_snapshots_finish() {
    let mut cfg = ClusterConfig::test(3);
    cfg.auto_control = true;
    let engine = Engine::start_cluster(cfg, EngineConfig::multi_version());
    let node = engine.node(NodeId(0));
    let mut setup = node.begin();
    let addr = setup.alloc(vec![0u8; 64]).unwrap();
    setup.commit().unwrap();
    // Generate old versions.
    for i in 0..50u8 {
        let mut tx = node.begin();
        tx.write(addr, vec![i; 64]).unwrap();
        tx.commit().unwrap();
    }
    let allocated_before: usize = engine
        .cluster()
        .nodes()
        .iter()
        .map(|n| n.old_versions().allocated_bytes())
        .sum();
    assert!(allocated_before > 0, "no old-version memory was used");
    // With no active snapshots, the OAT advances and GC reclaims the blocks.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut recycled = 0;
    while std::time::Instant::now() < deadline {
        engine.collect_garbage_now();
        recycled = engine
            .cluster()
            .nodes()
            .iter()
            .map(|n| n.old_versions().block_counters().1)
            .sum::<u64>() as usize;
        if recycled > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(recycled > 0, "GC never reclaimed an old-version block");
    engine.shutdown();
    engine.cluster().shutdown();
}

#[test]
fn strictness_orders_transactions_across_nodes_in_real_time() {
    // If transaction A commits before transaction B starts (on different
    // machines), B's read timestamp must not be below A's write timestamp —
    // the strictness property the uncertainty wait buys.
    let engine = Engine::start_cluster(ClusterConfig::test(3), EngineConfig::default());
    let a = engine.node(NodeId(1));
    let b = engine.node(NodeId(2));
    let mut setup = engine.node(NodeId(0)).begin();
    let addr = setup.alloc(vec![0u8]).unwrap();
    setup.commit().unwrap();
    for i in 1..=20u8 {
        let mut writer = a.begin();
        writer.write(addr, vec![i]).unwrap();
        let info = writer.commit().unwrap();
        let wts = info.write_ts.unwrap();
        let mut reader = b.begin_with(TxOptions::serializable());
        assert!(
            reader.read_ts() >= wts,
            "strictness violated: read ts {} < preceding commit ts {}",
            reader.read_ts(),
            wts
        );
        assert_eq!(
            reader.read(addr).unwrap()[0],
            i,
            "reader missed a committed write"
        );
        reader.commit().unwrap();
    }
    engine.shutdown();
    engine.cluster().shutdown();
}
