//! Integration tests of the batched, pipelined read path: `read_many`
//! message counts scale with the number of destination primaries (not keys),
//! the VALIDATE phase batches per primary exactly like LOCK, local-primary
//! reads bypass the network, a lone remote `read` is one message paying one
//! flight, locked/tombstoned slots inside one batch fall back per slot, and
//! batched reads stay snapshot-consistent under a concurrent committer.

use std::sync::Arc;
use std::time::{Duration, Instant};

use farm_core::{AbortReason, Engine, EngineConfig, NodeId, ParallelQuery, TxError};
use farm_kernel::ClusterConfig;
use farm_memory::{Addr, LockOutcome, RegionId};
use farm_net::{LatencyModel, Verb};
use proptest::prelude::*;

fn engine(config: EngineConfig) -> Arc<Engine> {
    Engine::start_cluster(ClusterConfig::test(3), config)
}

/// A region whose primary is (`want_local` =) / is not the given node.
fn region_with_primary(engine: &Arc<Engine>, node: NodeId, want_local: bool) -> RegionId {
    engine
        .cluster()
        .regions()
        .into_iter()
        .find(|&r| (engine.cluster().primary_of(r).unwrap() == node) == want_local)
        .expect("test placement spreads primaries")
}

fn alloc_in_region(engine: &Arc<Engine>, region: RegionId, count: usize) -> Vec<Addr> {
    let node = engine.node(NodeId(0));
    let mut tx = node.begin();
    let addrs = (0..count)
        .map(|i| tx.alloc_in(region, vec![i as u8; 32]).unwrap())
        .collect();
    tx.commit().unwrap();
    addrs
}

#[test]
fn read_many_of_k_remote_keys_on_one_primary_is_one_message() {
    let engine = engine(EngineConfig::default());
    let coordinator = NodeId(0);
    let remote = region_with_primary(&engine, coordinator, false);
    let addrs = alloc_in_region(&engine, remote, 8);

    let node = engine.node(coordinator);
    let mut tx = node.begin();
    let net_before = node.handle().stats().snapshot();
    let stats_before = node.stats();
    let values = tx.read_many(&addrs).unwrap();
    let net = node.handle().stats().snapshot().delta(&net_before);
    let stats = node.stats().delta(&stats_before);

    for (i, v) in values.iter().enumerate() {
        assert_eq!(&v[..], vec![i as u8; 32].as_slice());
    }
    // One doorbell-batched message carrying all 8 reads — O(1), not O(K).
    assert_eq!(net.count(Verb::RdmaRead), 1, "1 read message per primary");
    assert_eq!(net.ops(Verb::RdmaRead), 8, "8 logical reads in 1 message");
    assert_eq!(stats.read_batches, 1);
    assert_eq!(stats.read_batch_objects, 8);
    assert_eq!(stats.read_local_bypass, 0);
    tx.commit().unwrap();
    engine.shutdown();
}

#[test]
fn read_many_message_count_scales_with_primaries_not_keys() {
    let engine = engine(EngineConfig::default());
    let coordinator = NodeId(0);
    // Keys on every region in the cluster: one batch per distinct primary,
    // and the local primary's batch bypasses the network entirely.
    let mut addrs = Vec::new();
    for r in engine.cluster().regions() {
        addrs.extend(alloc_in_region(&engine, r, 4));
    }
    let remote_primaries: std::collections::HashSet<NodeId> = addrs
        .iter()
        .map(|a| engine.cluster().primary_of(a.region).unwrap())
        .filter(|&p| p != coordinator)
        .collect();

    let node = engine.node(coordinator);
    let mut tx = node.begin();
    let net_before = node.handle().stats().snapshot();
    let stats_before = node.stats();
    let values = tx.read_many(&addrs).unwrap();
    let net = node.handle().stats().snapshot().delta(&net_before);
    let stats = node.stats().delta(&stats_before);

    assert_eq!(values.len(), addrs.len());
    assert_eq!(
        net.count(Verb::RdmaRead),
        remote_primaries.len() as u64,
        "one message per remote primary"
    );
    assert_eq!(
        net.ops(Verb::RdmaRead),
        (addrs.len() - 4) as u64,
        "remote keys ride the batches"
    );
    assert_eq!(stats.read_local_bypass, 4, "local keys skip the network");
    tx.commit().unwrap();
    engine.shutdown();
}

#[test]
fn a_single_remote_read_is_one_message_paying_one_flight() {
    let latency = LatencyModel {
        rdma_read_ns: 200_000,
        ..LatencyModel::zero()
    };
    let engine = engine(EngineConfig {
        latency,
        ..EngineConfig::default()
    });
    let coordinator = NodeId(0);
    let remote = alloc_in_region(&engine, region_with_primary(&engine, coordinator, false), 1)[0];
    let local = alloc_in_region(&engine, region_with_primary(&engine, coordinator, true), 1)[0];

    let node = engine.node(coordinator);
    let mut tx = node.begin();
    let net_before = node.handle().stats().snapshot();
    let started = Instant::now();
    assert_eq!(&tx.read(remote).unwrap()[..], &[0u8; 32][..]);
    let elapsed = started.elapsed();
    let net = node.handle().stats().snapshot().delta(&net_before);
    assert!(
        elapsed >= Duration::from_micros(200),
        "read took {elapsed:?}"
    );
    assert_eq!(net.count(Verb::RdmaRead), 1, "one read message");
    assert_eq!(net.ops(Verb::RdmaRead), 1, "carrying one read");

    // The local primary's slot is a plain memory access: no message.
    let net_before = node.handle().stats().snapshot();
    let stats_before = node.stats();
    assert_eq!(&tx.read(local).unwrap()[..], &[0u8; 32][..]);
    let net = node.handle().stats().snapshot().delta(&net_before);
    assert_eq!(net.count(Verb::RdmaRead), 0);
    assert_eq!(node.stats().delta(&stats_before).read_local_bypass, 1);
    tx.commit().unwrap();
    engine.shutdown();
}

#[test]
fn validating_k_unwritten_reads_on_one_primary_is_one_message() {
    let engine = engine(EngineConfig::default());
    let coordinator = NodeId(0);
    let remote = region_with_primary(&engine, coordinator, false);
    let local = region_with_primary(&engine, coordinator, true);
    let read_addrs = alloc_in_region(&engine, remote, 6);
    let write_addr = alloc_in_region(&engine, local, 1)[0];

    let node = engine.node(coordinator);
    let mut tx = node.begin();
    let _ = tx.read_many(&read_addrs).unwrap();
    tx.write(write_addr, vec![9u8; 8]).unwrap();

    let net_before = node.handle().stats().snapshot();
    let stats_before = node.stats();
    tx.commit().unwrap();
    let net = node.handle().stats().snapshot().delta(&net_before);
    let stats = node.stats().delta(&stats_before);

    // The commit's only RDMA reads are VALIDATE header reads: 6 unwritten
    // read-set objects on one primary = exactly 1 message.
    assert_eq!(net.count(Verb::RdmaRead), 1, "1 VALIDATE message");
    assert_eq!(net.ops(Verb::RdmaRead), 6, "6 header reads in 1 message");
    assert_eq!(stats.validate_batches, 1);
    assert_eq!(stats.validate_batch_objects, 6);
    engine.shutdown();
}

#[test]
fn validate_batches_split_per_destination_primary() {
    let engine = engine(EngineConfig::default());
    let coordinator = NodeId(0);
    // Unwritten reads spread over every region: one VALIDATE batch per
    // distinct primary (including the coordinator's own, which is free).
    let mut read_addrs = Vec::new();
    let mut primaries = std::collections::HashSet::new();
    for r in engine.cluster().regions() {
        read_addrs.extend(alloc_in_region(&engine, r, 2));
        primaries.insert(engine.cluster().primary_of(r).unwrap());
    }
    let write_addr = alloc_in_region(&engine, read_addrs[0].region, 1)[0];

    let node = engine.node(coordinator);
    let mut tx = node.begin();
    let _ = tx.read_many(&read_addrs).unwrap();
    tx.write(write_addr, vec![1u8; 8]).unwrap();
    let stats_before = node.stats();
    tx.commit().unwrap();
    let stats = node.stats().delta(&stats_before);

    assert_eq!(stats.validate_batches, primaries.len() as u64);
    assert_eq!(stats.validate_batch_objects, read_addrs.len() as u64);
    engine.shutdown();
}

#[test]
fn read_many_handles_locked_and_tombstoned_slots_in_one_batch() {
    let mut config = EngineConfig::multi_version();
    config.read_lock_retries = 100_000; // generous budget for the held lock
    let engine = engine(config);
    let node = engine.node(NodeId(0));
    let region = engine.cluster().regions()[0];
    let addrs = alloc_in_region(&engine, region, 3);

    // Open the reader's snapshot first.
    let mut reader = node.begin();

    // Tombstone addrs[2] after the snapshot: the batch read must fall back
    // to the old-version chain and still return the pre-free value.
    let mut freeer = node.begin();
    freeer.free(addrs[2]).unwrap();
    freeer.commit().unwrap();

    // Hold addrs[1]'s commit lock from a foreign committer for a while: the
    // batch read must retry just that slot with backoff and then succeed.
    let primary = engine.cluster().primary_of(region).unwrap();
    let slot = engine
        .cluster()
        .node(primary)
        .regions()
        .get(region)
        .unwrap()
        .slot(addrs[1])
        .unwrap();
    let ts = slot.header_snapshot().ts;
    assert_eq!(slot.try_lock_at(ts), LockOutcome::Acquired);
    let unlocker = {
        let slot = slot.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            slot.unlock();
        })
    };

    let values = reader.read_many(&addrs).unwrap();
    unlocker.join().unwrap();
    assert_eq!(&values[0][..], vec![0u8; 32].as_slice());
    assert_eq!(&values[1][..], vec![1u8; 32].as_slice());
    assert_eq!(
        &values[2][..],
        vec![2u8; 32].as_slice(),
        "tombstoned slot resolved through the old-version chain"
    );
    reader.commit().unwrap();
    engine.shutdown();
}

#[test]
fn exhausted_lock_backoff_aborts_and_is_counted() {
    let config = EngineConfig {
        read_lock_retries: 3,
        ..Default::default()
    };
    let engine = engine(config);
    let node = engine.node(NodeId(0));
    let region = engine.cluster().regions()[0];
    let addrs = alloc_in_region(&engine, region, 2);

    let primary = engine.cluster().primary_of(region).unwrap();
    let slot = engine
        .cluster()
        .node(primary)
        .regions()
        .get(region)
        .unwrap()
        .slot(addrs[1])
        .unwrap();
    let ts = slot.header_snapshot().ts;
    assert_eq!(slot.try_lock_at(ts), LockOutcome::Acquired);

    // Single-object read path.
    let mut tx = node.begin();
    let err = tx.read(addrs[1]).unwrap_err();
    assert!(
        matches!(err, TxError::Aborted(AbortReason::ReadLockedObject(a)) if a == addrs[1]),
        "{err:?}"
    );
    // Batched read path: the healthy slot does not mask the locked one.
    let mut tx = node.begin();
    let err = tx.read_many(&addrs).unwrap_err();
    assert!(
        matches!(err, TxError::Aborted(AbortReason::ReadLockedObject(a)) if a == addrs[1]),
        "{err:?}"
    );
    assert_eq!(node.stats().read_lock_retries_exhausted, 2);
    slot.unlock();
    engine.shutdown();
}

#[test]
fn finished_query_snapshot_is_rejected_once_gc_passes() {
    let engine = engine(EngineConfig::multi_version());
    let node = engine.node(NodeId(0));
    let mut tx = node.begin();
    let addr = tx.alloc(vec![1u8; 8]).unwrap();
    tx.commit().unwrap();

    let query = ParallelQuery::start(&engine, NodeId(0));
    let pinned_ts = query.read_ts();
    // While the query is live its snapshot holds GC back, so slaves start.
    let values = query
        .map_nodes(&[NodeId(1), NodeId(2)], |_e, tx| {
            tx.read(addr).map(|b| b[0])
        })
        .unwrap();
    assert_eq!(values, vec![1, 1]);
    query.finish();

    // After finish the pin is gone: GC_local advances past the snapshot and
    // a late slave at the old timestamp is rejected (its old versions may
    // already be reclaimed).
    for _ in 0..4 {
        engine.cluster().control_round();
    }
    engine.collect_garbage_now();
    assert!(
        engine.node(NodeId(1)).handle().gc_local() > pinned_ts,
        "GC must advance once the query is finished"
    );
    let err = engine
        .node(NodeId(1))
        .begin_stale_readonly(pinned_ts)
        .unwrap_err();
    assert!(
        matches!(err, TxError::Aborted(AbortReason::SnapshotTooStale { .. })),
        "{err:?}"
    );
    engine.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `read_many` returns a snapshot-consistent view while a committer
    /// concurrently rewrites the same objects: every batch must observe all
    /// objects at one logical version (the writer keeps them equal).
    #[test]
    fn read_many_is_snapshot_consistent_under_concurrent_committer(
        rounds in 4u8..16,
        batch in 2usize..6,
    ) {
        let engine = Engine::start_cluster(
            ClusterConfig::test(3),
            EngineConfig::multi_version(),
        );
        let node0 = engine.node(NodeId(0));
        let regions = engine.cluster().regions();
        let mut setup = node0.begin();
        let addrs: Vec<Addr> = (0..batch)
            .map(|i| {
                setup
                    .alloc_in(regions[i % regions.len()], 0u64.to_le_bytes().to_vec())
                    .unwrap()
            })
            .collect();
        setup.commit().unwrap();
        let addrs = Arc::new(addrs);

        let writer = {
            let engine = Arc::clone(&engine);
            let addrs = Arc::clone(&addrs);
            std::thread::spawn(move || {
                let node = engine.node(NodeId(1));
                for v in 1..=rounds as u64 {
                    loop {
                        let mut tx = node.begin();
                        let ok = addrs
                            .iter()
                            .all(|&a| tx.write(a, v.to_le_bytes().to_vec()).is_ok());
                        if ok && tx.commit().is_ok() {
                            break;
                        }
                    }
                }
            })
        };
        let reader = {
            let engine = Arc::clone(&engine);
            let addrs = Arc::clone(&addrs);
            std::thread::spawn(move || {
                let node = engine.node(NodeId(2));
                for _ in 0..32 {
                    let mut tx = node.begin();
                    let Ok(values) = tx.read_many(&addrs) else {
                        continue; // retryable conflict; the snapshot held
                    };
                    let first = u64::from_le_bytes(values[0][..8].try_into().unwrap());
                    for v in &values {
                        let got = u64::from_le_bytes(v[..8].try_into().unwrap());
                        assert_eq!(got, first, "torn batch: {values:?}");
                    }
                    let _ = tx.commit();
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        engine.shutdown();
        engine.cluster().shutdown();
    }
}
