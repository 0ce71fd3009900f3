//! Lazy (piggybacked) truncation tests: TRUNCATE is never a standalone
//! message under commit traffic, watermarks flush on idle and never regress,
//! an abort-unwind cannot lose an earlier transaction's truncate, and a
//! primary killed before its COMMIT-PRIMARY applies loses nothing — the
//! promoted backup replays its untruncated redo log.

use std::sync::Arc;
use std::time::Duration;

use farm_core::{Engine, EngineConfig, NodeId, TxError};
use farm_kernel::ClusterConfig;
use farm_memory::{Addr, RegionId};
use farm_net::{LatencyModel, Verb};

/// An engine whose background flusher cannot race the assertions.
fn quiet_engine(nodes: usize, config: EngineConfig) -> Arc<Engine> {
    let config = EngineConfig {
        gc_interval: Duration::from_secs(3600),
        ..config
    };
    Engine::start_cluster(ClusterConfig::test(nodes), config)
}

fn remote_region(engine: &Arc<Engine>, coordinator: NodeId) -> RegionId {
    engine
        .cluster()
        .regions()
        .into_iter()
        .find(|&r| engine.cluster().primary_of(r) != Some(coordinator))
        .expect("multi-node cluster has a remote region")
}

/// The current backups of `region`.
fn backups_of(engine: &Arc<Engine>, region: RegionId) -> Vec<NodeId> {
    let placement = &engine.cluster().view().placement;
    placement.assignment(region).unwrap().backups.to_vec()
}

/// The committed version visible at `node`'s replica of `addr`'s region
/// (0 when the replica has no slab/slot yet).
fn replica_ts(engine: &Arc<Engine>, node: NodeId, addr: Addr) -> u64 {
    engine
        .cluster()
        .node(node)
        .regions()
        .get(addr.region)
        .and_then(|r| r.slot(addr).ok())
        .map(|s| s.header_snapshot().ts)
        .unwrap_or(0)
}

#[test]
fn steady_traffic_piggybacks_every_truncation() {
    let engine = quiet_engine(3, EngineConfig::default());
    let node = engine.node(NodeId(0));
    let region = remote_region(&engine, NodeId(0));
    let backups = backups_of(&engine, region);
    assert!(!backups.is_empty());

    let mut setup = node.begin();
    let addr = setup.alloc_in(region, vec![0u8; 32]).unwrap();
    setup.commit().unwrap();

    let stats_before = node.stats();
    let net_before = node.handle().stats().snapshot();
    let mut last_ts = 0;
    for round in 1..=10u8 {
        // Each commit raises the watermark as it installs; the next
        // commit's LOCK verb piggybacks it.
        let mut tx = node.begin();
        tx.write(addr, vec![round; 32]).unwrap();
        last_ts = tx.commit().unwrap().write_ts.unwrap();
    }
    let stats = node.stats().delta(&stats_before);
    let net = node.handle().stats().snapshot().delta(&net_before);

    assert_eq!(stats.truncate_flushes, 0, "no standalone TRUNCATE messages");
    assert!(
        stats.truncations_piggybacked >= 9,
        "watermarks ride the LOCK verbs: {}",
        stats.truncations_piggybacked
    );
    // Every two-sided message of the window is a LOCK batch: truncation
    // added zero messages.
    assert_eq!(net.count(Verb::Rpc), stats.lock_batches);
    // Deliveries applied earlier rounds' records at the backups (the last
    // round's truncate is still pending — nothing has piggybacked it yet).
    for &backup in &backups {
        let ts = replica_ts(&engine, backup, addr);
        assert!(ts > 0 && ts < last_ts, "backup saw piggybacked truncations");
    }
    engine.shutdown();
}

#[test]
fn idle_watermarks_flush_and_never_regress() {
    // Fast background flusher: a 1 ms pass flushes a watermark that has
    // not moved since the previous pass.
    let config = EngineConfig {
        gc_interval: Duration::from_millis(1),
        ..EngineConfig::default()
    };
    let engine = Engine::start_cluster(ClusterConfig::test(3), config);
    let node = engine.node(NodeId(0));
    let region = remote_region(&engine, NodeId(0));
    let backups = backups_of(&engine, region);

    let mut setup = node.begin();
    let addr = setup.alloc_in(region, vec![0u8; 32]).unwrap();
    setup.commit().unwrap();
    let mut tx = node.begin();
    tx.write(addr, vec![9u8; 32]).unwrap();
    let write_ts = tx.commit().unwrap().write_ts.unwrap();
    let w1 = node.truncation_watermark();
    assert!(w1 >= write_ts, "watermark covers the installed commit");

    // Idle: no further verbs to piggyback on. The background flusher must
    // deliver the watermark on its own.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while std::time::Instant::now() < deadline {
        if backups.iter().all(|&b| node.delivered_truncation(b) >= w1) {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    for &backup in &backups {
        assert!(
            node.delivered_truncation(backup) >= w1,
            "idle flush never delivered to {backup}"
        );
        assert_eq!(replica_ts(&engine, backup, addr), write_ts);
    }
    assert!(node.stats().truncate_flushes >= 1, "flushes are counted");

    // Watermarks are monotone across further commits.
    let mut last = node.truncation_watermark();
    for round in 0..5u8 {
        let mut tx = node.begin();
        tx.write(addr, vec![round; 32]).unwrap();
        tx.commit().unwrap();
        let w = node.truncation_watermark();
        assert!(w >= last, "watermark regressed: {w} < {last}");
        last = w;
    }
    engine.shutdown();
}

#[test]
fn abort_unwind_does_not_lose_an_earlier_truncate() {
    let engine = quiet_engine(3, EngineConfig::default());
    let node0 = engine.node(NodeId(0));
    let node2 = engine.node(NodeId(2));
    let region = remote_region(&engine, NodeId(0));
    let backups = backups_of(&engine, region);

    let mut setup = node0.begin();
    let x = setup.alloc_in(region, vec![0u8; 32]).unwrap();
    let y = setup.alloc(vec![0u8; 16]).unwrap();
    setup.commit().unwrap();

    // T1 commits x and installs; its truncate is pending (watermark raised,
    // nothing delivered — no outgoing traffic since).
    let mut t1 = node0.begin();
    t1.write(x, vec![0x5Au8; 32]).unwrap();
    let t1_ts = t1.commit().unwrap().write_ts.unwrap();
    let w1 = node0.truncation_watermark();
    assert!(w1 >= t1_ts);

    // T2 (same coordinator) acquires a later write timestamp but fails
    // validation: its unwind must withdraw only its own reservation.
    let mut t2 = node0.begin();
    t2.read(y).unwrap();
    t2.write(x, vec![0x66u8; 32]).unwrap();
    let mut racer = node2.begin();
    racer.write(y, vec![1u8; 16]).unwrap();
    racer.commit().unwrap();
    let err = t2.commit().unwrap_err();
    assert!(
        matches!(err, TxError::Aborted(_)),
        "validation abort expected: {err:?}"
    );

    // The watermark never regressed, and T1's truncate still delivers: the
    // backups receive exactly T1's version.
    assert!(node0.truncation_watermark() >= w1, "watermark regressed");
    engine.quiesce();
    for &backup in &backups {
        assert_eq!(
            replica_ts(&engine, backup, x),
            t1_ts,
            "T1's truncate was lost at {backup}"
        );
    }
    engine.shutdown();
}

/// A primary dies after the commit locked it and before COMMIT-PRIMARY
/// applies there. The commit still reports success at the last
/// COMMIT-BACKUP ack and skips the dead primary's install, so the value
/// must survive through the promoted backup's redo log — and a reader must
/// never observe a torn install. A depth-1 pipeline under datacenter
/// latency parks the commit with its LOCK in flight, which places the kill
/// inside that window on every run.
#[test]
fn primary_killed_between_early_ack_and_install_loses_nothing() {
    let mut cluster_cfg = ClusterConfig::test(4);
    cluster_cfg.lease_expiry = Duration::from_millis(1);
    let config = EngineConfig {
        latency: LatencyModel::datacenter(),
        gc_interval: Duration::from_secs(3600),
        ..EngineConfig::default()
    };
    let engine = Engine::start(farm_core::Cluster::start(cluster_cfg), config);
    let node0 = engine.node(NodeId(0));

    // A region whose primary is node 1.
    let victim = NodeId(1);
    let view = engine.cluster().view();
    let region = view
        .placement
        .primaries_of(victim)
        .next()
        .expect("node 1 hosts a primary");
    let original_replicas = view.placement.assignment(region).unwrap().replicas();
    let mut setup = node0.begin();
    let addr = setup.alloc_in(region, vec![0x11u8; 64]).unwrap();
    let setup_ts = setup.commit().unwrap().write_ts.unwrap();
    engine.quiesce(); // baseline value mirrored everywhere

    // The measured transaction, parked with its LOCK in flight: the
    // primary holds the lock.
    let mut pipeline = node0.pipeline(1);
    let mut tx = node0.begin();
    tx.write(addr, vec![0xEEu8; 64]).unwrap();
    pipeline.submit(tx);
    assert_eq!(pipeline.in_flight(), 1, "the commit is on the wire");
    let old_slot = engine
        .cluster()
        .node(victim)
        .regions()
        .ensure(region)
        .slot(addr)
        .unwrap();
    assert!(old_slot.header_snapshot().locked, "LOCK already ran");

    // Kill the primary, then let the commit finish: every backup acks, so
    // it is durable, and the dead primary's install is skipped.
    engine.cluster().kill(victim);
    let results = pipeline.drain();
    let write_ts = results[0]
        .as_ref()
        .expect("durable at every backup")
        .write_ts
        .unwrap();
    assert_eq!(
        old_slot.header_snapshot().ts,
        setup_ts,
        "the dead primary installed"
    );
    assert!(node0.truncation_watermark() >= write_ts);

    // Reconfigure: a backup is promoted.
    std::thread::sleep(Duration::from_millis(3));
    for _ in 0..6 {
        engine.cluster().control_round();
    }
    let new_primary = engine.cluster().primary_of(region).unwrap();
    assert_ne!(new_primary, victim, "a backup was promoted");

    // The committed value is visible at the promoted primary — recovered
    // from its untruncated redo log — and is never torn: the payload is
    // whole and carries the transaction's write timestamp.
    let mut reader = node0.begin();
    let value = reader.read(addr).unwrap();
    assert_eq!(
        &value[..],
        &[0xEEu8; 64],
        "committed value lost or torn after primary failure"
    );
    assert_eq!(replica_ts(&engine, new_primary, addr), write_ts);
    drop(reader);

    // The truncation watermark brings the *other* surviving backup up to
    // date too.
    engine.quiesce();
    // Only the replicas that held the region at commit time carry the redo
    // log; a fresh re-replication backup catches up by paced copy instead.
    for &replica in original_replicas.iter().filter(|&&r| r != victim) {
        assert_eq!(
            replica_ts(&engine, replica, addr),
            write_ts,
            "surviving replica {replica} missed the committed write"
        );
    }
    engine.shutdown();
}

/// `Engine::quiesce` settles every backup log after a burst of commits,
/// while the engine's (almost continuously running) background thread
/// flushes truncation watermarks beside it: each round begins all its
/// transactions before committing any, and quiesce must leave no redo-log
/// entry behind.
#[test]
fn quiesce_is_a_barrier_against_the_background_drain() {
    const TXS_PER_ROUND: usize = 8;
    const WRITES_PER_TX: usize = 16;
    let config = EngineConfig {
        gc_interval: Duration::from_micros(10),
        ..EngineConfig::default()
    };
    let engine = Engine::start_cluster(ClusterConfig::test(3), config);
    let node = engine.node(NodeId(0));
    let regions = engine.cluster().regions();
    let mut setup = node.begin();
    let objects: Vec<Addr> = (0..TXS_PER_ROUND * WRITES_PER_TX)
        .map(|i| {
            setup
                .alloc_in(regions[i % regions.len()], vec![0u8; 16])
                .unwrap()
        })
        .collect();
    setup.commit().unwrap();
    engine.quiesce();

    for round in 0..1_000u32 {
        let txs: Vec<_> = objects
            .chunks(WRITES_PER_TX)
            .map(|addrs| {
                let mut tx = node.begin();
                for &a in addrs {
                    tx.overwrite(a, vec![round as u8; 16]).unwrap();
                }
                tx
            })
            .collect();
        for tx in txs {
            tx.commit().unwrap();
        }
        engine.quiesce();
        for n in engine.nodes() {
            assert_eq!(
                n.backup_log_len(),
                0,
                "round {round}: {:?} not settled after quiesce",
                n.id()
            );
        }
    }
    engine.shutdown();
}
