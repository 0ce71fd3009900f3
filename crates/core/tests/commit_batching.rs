//! Integration tests of the batched commit driver: message counts scale with
//! the number of **destination machines**, not the number of objects; abort
//! paths release every lock across every primary; multi-version frees
//! preserve history; concurrent committers neither deadlock nor lose
//! updates.

use std::sync::Arc;

use farm_core::{AbortReason, Engine, EngineConfig, NodeId, Transaction, TxError};
use farm_kernel::ClusterConfig;
use farm_memory::{Addr, LockOutcome, RegionId};
use farm_net::{NetStatsSnapshot, Verb};
use proptest::prelude::*;

fn engine(config: EngineConfig) -> Arc<Engine> {
    Engine::start_cluster(ClusterConfig::test(3), config)
}

/// Allocates `count` objects in the given region, committing the setup.
fn alloc_in_region(engine: &Arc<Engine>, region: RegionId, count: usize) -> Vec<Addr> {
    let node = engine.node(NodeId(0));
    let mut tx = node.begin();
    let addrs = (0..count)
        .map(|_| tx.alloc_in(region, vec![0u8; 32]).unwrap())
        .collect();
    tx.commit().unwrap();
    addrs
}

/// Runs `commit` on a K-object write-set transaction and returns the
/// coordinator's network-stats delta across just the commit call.
fn commit_delta(engine: &Arc<Engine>, coordinator: NodeId, addrs: &[Addr]) -> NetStatsSnapshot {
    let node = engine.node(coordinator);
    let mut tx = node.begin();
    for a in addrs {
        tx.write(*a, vec![7u8; 32]).unwrap();
    }
    let before = node.handle().stats().snapshot();
    tx.commit().unwrap();
    node.handle().stats().snapshot().delta(&before)
}

#[test]
fn k_writes_to_one_primary_issue_one_lock_message() {
    let engine = engine(EngineConfig::default());
    let region = engine.cluster().regions()[0];
    let addrs = alloc_in_region(&engine, region, 8);
    let coordinator = NodeId(0);

    let stats_before = engine.node(coordinator).stats();
    let delta = commit_delta(&engine, coordinator, &addrs);
    let stats = engine.node(coordinator).stats().delta(&stats_before);

    // One LOCK batch carrying all 8 writes — O(1) messages, not O(K).
    assert_eq!(
        stats.lock_batches, 1,
        "one destination primary => one LOCK message"
    );
    assert_eq!(stats.lock_batch_objects, 8);
    assert_eq!(
        stats.primary_batches, 1,
        "one COMMIT-PRIMARY install message"
    );
    assert_eq!(
        delta.count(Verb::Rpc),
        1 + stats.truncate_flushes,
        "LOCK + truncations"
    );
    assert_eq!(
        delta.ops(Verb::Rpc),
        8 + stats.truncate_flushes,
        "8 lock ops in 1 message"
    );
    // COMMIT-BACKUP and COMMIT-PRIMARY are one RDMA write per destination.
    let placement = &engine.cluster().view().placement;
    let backups = placement.assignment(region).unwrap().backups.len() as u64;
    assert_eq!(stats.backup_batches, backups);
    assert_eq!(delta.count(Verb::RdmaWrite), backups + 1);
    assert_eq!(delta.ops(Verb::RdmaWrite), (backups + 1) * 8);
    engine.shutdown();
}

#[test]
fn message_count_is_independent_of_write_set_size() {
    let engine = engine(EngineConfig::default());
    let region = engine.cluster().regions()[0];
    let addrs = alloc_in_region(&engine, region, 16);

    let d1 = commit_delta(&engine, NodeId(0), &addrs[..1]);
    let d16 = commit_delta(&engine, NodeId(0), &addrs);

    // Same number of messages whether the transaction writes 1 or 16
    // objects of the same primary...
    assert_eq!(
        d1.total_messages(),
        d16.total_messages(),
        "{d1:?} vs {d16:?}"
    );
    // ...while the logical operation and byte counts grow with K.
    assert!(d16.total_ops() > d1.total_ops());
    assert!(d16.bytes(Verb::Rpc) > d1.bytes(Verb::Rpc));
    engine.shutdown();
}

#[test]
fn writes_spread_over_primaries_issue_one_lock_message_each() {
    let engine = engine(EngineConfig::default());
    let regions = engine.cluster().regions();
    assert!(regions.len() >= 3);
    // Two objects in each of three regions with three distinct primaries.
    let mut addrs = Vec::new();
    let mut primaries = std::collections::HashSet::new();
    for &r in regions.iter().take(3) {
        primaries.insert(engine.cluster().primary_of(r).unwrap());
        addrs.extend(alloc_in_region(&engine, r, 2));
    }
    assert_eq!(primaries.len(), 3, "test cluster must spread primaries");

    let before = engine.node(NodeId(0)).stats();
    let _ = commit_delta(&engine, NodeId(0), &addrs);
    let stats = engine.node(NodeId(0)).stats().delta(&before);
    assert_eq!(
        stats.lock_batches, 3,
        "one LOCK message per destination primary"
    );
    assert_eq!(stats.lock_batch_objects, 6);
    assert_eq!(stats.primary_batches, 3);
    engine.shutdown();
}

#[test]
fn partial_lock_batch_failure_releases_locks_on_all_primaries() {
    let engine = engine(EngineConfig::default());
    let regions = engine.cluster().regions();
    let a = alloc_in_region(&engine, regions[0], 1)[0];
    let b = alloc_in_region(&engine, regions[1], 1)[0];
    // Global address order: `a` (region 0) locks before `b` (region 1).
    assert!(a < b);

    // Buffer both writes first (the implied reads must see unlocked
    // objects), then let a foreign committer take `b`'s lock before the
    // commit's LOCK phase runs.
    let node = engine.node(NodeId(0));
    let mut tx = node.begin();
    tx.write(a, vec![1u8]).unwrap();
    tx.write(b, vec![2u8]).unwrap();
    let primary_b = engine.cluster().primary_of(b.region).unwrap();
    let slot_b = engine
        .cluster()
        .node(primary_b)
        .regions()
        .get(b.region)
        .unwrap()
        .slot(b)
        .unwrap();
    let ts_b = slot_b.header_snapshot().ts;
    assert_eq!(slot_b.try_lock_at(ts_b), LockOutcome::Acquired);

    // The transaction locks `a` successfully, then fails on `b` — the
    // unwind must release `a` even though it sits on a different primary.
    let err = tx.commit().unwrap_err();
    assert!(
        matches!(err, TxError::Aborted(AbortReason::LockConflict(addr)) if addr == b),
        "{err:?}"
    );

    let primary_a = engine.cluster().primary_of(a.region).unwrap();
    let slot_a = engine
        .cluster()
        .node(primary_a)
        .regions()
        .get(a.region)
        .unwrap()
        .slot(a)
        .unwrap();
    assert!(
        !slot_a.header_snapshot().locked,
        "lock on first primary leaked after unwind"
    );
    // The foreign lock on `b` is untouched.
    assert!(slot_b.header_snapshot().locked);
    slot_b.unlock();

    let stats = engine.node(NodeId(0)).stats();
    assert_eq!(stats.unwinds, 1);
    assert_eq!(stats.aborts_lock, 1);

    // After the unwind, the same transaction succeeds.
    let mut retry = node.begin();
    retry.write(a, vec![1u8]).unwrap();
    retry.write(b, vec![2u8]).unwrap();
    retry.commit().unwrap();
    engine.shutdown();
}

#[test]
fn multi_version_free_preserves_history_for_snapshot_readers() {
    let engine = engine(EngineConfig::multi_version());
    let node = engine.node(NodeId(0));
    let mut setup = node.begin();
    let addr = setup.alloc(vec![42u8; 8]).unwrap();
    setup.commit().unwrap();

    // A reader opens its snapshot before the free...
    let mut reader = node.begin();
    // ...then the object is freed.
    let mut freeer = node.begin();
    freeer.free(addr).unwrap();
    freeer.commit().unwrap();
    // The reader still sees the pre-free value from the old-version chain —
    // identical to how an overwrite preserves history.
    assert_eq!(reader.read(addr).unwrap()[0], 42);
    reader.commit().unwrap();

    // A reader whose snapshot postdates the free observes the object as
    // gone.
    let mut late = node.begin();
    let err = late.read(addr).unwrap_err();
    assert!(
        matches!(err, TxError::Aborted(AbortReason::BadAddress(_))),
        "{err:?}"
    );
    engine.shutdown();
}

#[test]
fn tombstoned_slots_are_reclaimed_once_gc_passes() {
    let engine = engine(EngineConfig::multi_version());
    let node = engine.node(NodeId(0));
    let mut setup = node.begin();
    let addr = setup.alloc(vec![1u8; 8]).unwrap();
    setup.commit().unwrap();

    let primary = engine.cluster().primary_of(addr.region).unwrap();
    let region = engine
        .cluster()
        .node(primary)
        .regions()
        .get(addr.region)
        .unwrap();
    let (_, free_before) = region.occupancy();

    let mut tx = node.begin();
    tx.free(addr).unwrap();
    tx.commit().unwrap();
    assert_eq!(
        region.pending_tombstones(),
        1,
        "free leaves a tombstone behind"
    );

    // Advance the GC safe point past the free and sweep.
    for _ in 0..4 {
        engine.cluster().control_round();
    }
    engine.collect_garbage_now();
    assert_eq!(
        region.pending_tombstones(),
        0,
        "sweep reclaims the tombstone"
    );
    let (_, free_after) = region.occupancy();
    assert_eq!(
        free_after,
        free_before + 1,
        "slot returned to the allocator"
    );
    engine.shutdown();
}

#[test]
fn free_and_write_batches_share_the_lock_message() {
    let engine = engine(EngineConfig::multi_version());
    let region = engine.cluster().regions()[0];
    let addrs = alloc_in_region(&engine, region, 4);
    let node = engine.node(NodeId(0));

    let before = node.stats();
    let mut tx = node.begin();
    tx.write(addrs[0], vec![9u8; 8]).unwrap();
    tx.write(addrs[1], vec![9u8; 8]).unwrap();
    tx.free(addrs[2]).unwrap();
    tx.free(addrs[3]).unwrap();
    tx.commit().unwrap();
    let stats = node.stats().delta(&before);

    // Updates and frees ride the same per-destination LOCK batch, and the
    // frees made old-version copies exactly like the updates.
    assert_eq!(stats.lock_batches, 1);
    assert_eq!(stats.lock_batch_objects, 4);
    assert_eq!(
        stats.old_versions_allocated, 4,
        "frees copy history like writes"
    );
    engine.shutdown();
}

fn run_concurrent_history(config: EngineConfig, ops: &[(u8, u8, u8)]) {
    let engine = Engine::start_cluster(ClusterConfig::test(3), config);
    // Objects spread across every region => every commit is cross-primary.
    let regions = engine.cluster().regions();
    let node0 = engine.node(NodeId(0));
    let mut setup = node0.begin();
    let objects: Vec<Addr> = (0..6)
        .map(|i| {
            setup
                .alloc_in(regions[i % regions.len()], 0u64.to_le_bytes().to_vec())
                .unwrap()
        })
        .collect();
    setup.commit().unwrap();
    let objects = Arc::new(objects);

    let mut per_thread: Vec<Vec<(usize, u8)>> = vec![Vec::new(); 3];
    for &(t, o, d) in ops {
        per_thread[(t % 3) as usize].push(((o % 6) as usize, d));
    }
    let handles: Vec<_> = per_thread
        .into_iter()
        .enumerate()
        .map(|(t, thread_ops)| {
            let engine = Arc::clone(&engine);
            let objects = Arc::clone(&objects);
            std::thread::spawn(move || {
                let node = engine.node(NodeId(t as u32));
                let mut committed = vec![0u64; 6];
                for (o, d) in thread_ops {
                    for _attempt in 0..50 {
                        let mut tx = node.begin();
                        // Touch two objects per transaction so lock batches
                        // regularly span primaries.
                        let partner = (o + 1) % 6;
                        let Ok(v) = tx.read(objects[o]) else { continue };
                        let cur = u64::from_le_bytes(v[..8].try_into().unwrap());
                        if tx.read(objects[partner]).is_err() {
                            continue;
                        }
                        if tx
                            .write(objects[o], (cur + d as u64).to_le_bytes().to_vec())
                            .is_err()
                        {
                            continue;
                        }
                        if tx.commit().is_ok() {
                            committed[o] += d as u64;
                            break;
                        }
                    }
                }
                committed
            })
        })
        .collect();
    let mut totals = [0u64; 6];
    for h in handles {
        for (i, c) in h.join().unwrap().into_iter().enumerate() {
            totals[i] += c;
        }
    }
    let mut check = engine.node(NodeId(0)).begin();
    for (i, &expected) in totals.iter().enumerate() {
        let v = check.read(objects[i]).unwrap();
        assert_eq!(
            u64::from_le_bytes(v[..8].try_into().unwrap()),
            expected,
            "object {i}"
        );
    }
    check.commit().unwrap();
    engine.shutdown();
    engine.cluster().shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Concurrent cross-primary committers acquire their lock batches in the
    /// deterministic global address order: histories complete (no deadlock /
    /// livelock under the bounded retry budget) and no update is lost.
    #[test]
    fn concurrent_batched_committers_serialize(
        ops in prop::collection::vec((0u8..3, 0u8..6, 1u8..9), 1..24)
    ) {
        run_concurrent_history(EngineConfig::default(), &ops);
    }

    /// Same under multi-versioning, where frees and writes share batches and
    /// old-version copies happen inside LOCK processing.
    #[test]
    fn concurrent_batched_committers_serialize_mv(
        ops in prop::collection::vec((0u8..3, 0u8..6, 1u8..9), 1..24)
    ) {
        run_concurrent_history(EngineConfig::multi_version(), &ops);
    }
}

/// The commit-path phase loop must live in `commit/`, not `tx.rs`: the
/// transaction type only exposes the execution API plus `commit`, and the
/// driver's phases are observable through the per-phase statistics asserted
/// above. This test pins the module boundary via the public API surface.
#[test]
fn commit_driver_is_the_public_commit_surface() {
    // The driver and phases are exported types.
    fn assert_exists<T>() {}
    assert_exists::<farm_core::CommitDriver>();
    assert_exists::<farm_core::CommitPhase>();
    let _ = farm_core::CommitPhase::Lock;
    // Transaction has no public lock/validate/install entry points — only
    // the execution API. (Compile-time check by construction: the calls
    // below are the entire mutation surface.)
    let _ = |mut tx: Transaction, addr: Addr| {
        let _ = tx.read(addr);
        let _ = tx.write(addr, vec![0u8]);
        let _ = tx.free(addr);
        let _ = tx.commit();
    };
}

/// A transaction that only allocates and frees the same object produces a
/// plan with no region groups — only a cancelled allocation. The commit
/// must still return the pre-allocated slot to its slab (a leak here
/// exhausts the region under alloc+free churn).
#[test]
fn cancelled_alloc_with_no_other_intents_returns_its_slot() {
    let engine = engine(EngineConfig::default());
    // Use a region whose primary is NOT the coordinator, so the cancelled
    // allocation's primary has no other reason to appear in the commit
    // fan-out.
    let coordinator = NodeId(0);
    let region = engine
        .cluster()
        .regions()
        .into_iter()
        .find(|&r| engine.cluster().primary_of(r) != Some(coordinator))
        .unwrap();
    let primary = engine.cluster().primary_of(region).unwrap();
    let replica = engine.cluster().node(primary).regions().ensure(region);
    let node = engine.node(coordinator);
    // Warm up the slab so occupancy comparisons see a stable layout.
    let mut tx = node.begin();
    let keep = tx.alloc_in(region, vec![0u8; 16]).unwrap();
    tx.commit().unwrap();
    let (used_before, free_before) = replica.occupancy();
    for _ in 0..64 {
        let mut tx = node.begin();
        let addr = tx.alloc_in(region, vec![1u8; 16]).unwrap();
        tx.free(addr).unwrap();
        tx.commit().unwrap();
    }
    let (used_after, free_after) = replica.occupancy();
    assert_eq!(
        (used_before, free_before),
        (used_after, free_after),
        "alloc+free churn leaked cancelled-allocation slots"
    );
    // The kept object is untouched.
    let mut tx = node.begin();
    assert_eq!(tx.read(keep).unwrap().as_ref(), &[0u8; 16]);
    tx.commit().unwrap();
    engine.shutdown();
}

/// A cluster of three machines with `regions_per_node` regions each and no
/// background pass, so only the commit under test meters anything.
fn engine_with_regions(regions_per_node: usize) -> Arc<Engine> {
    let config = EngineConfig {
        gc_interval: std::time::Duration::from_secs(3600),
        ..EngineConfig::default()
    };
    let cluster = ClusterConfig {
        regions_per_node,
        ..ClusterConfig::test(3)
    };
    Engine::start_cluster(cluster, config)
}

/// The metering of one commit that mixes every intent kind over three
/// regions on two primaries whose backups overlap, pinned to the values the
/// per-phase destination lists produced before the plan computed one
/// destination table: the table must meter exactly the same messages.
#[test]
fn a_multi_region_commit_meters_as_before() {
    let engine = engine_with_regions(2);
    let coordinator = NodeId(0);
    let cluster = engine.cluster();
    // Regions 1 and 4 on n1 (backed up by n2 and n0), region 2 on n2
    // (backed up by n0 and n1): n0 backs up all three, n2 is a primary and
    // a backup.
    let regions = cluster.regions();
    let (r1, r2, r4) = (regions[1], regions[2], regions[4]);
    assert_eq!(cluster.primary_of(r1), Some(NodeId(1)));
    assert_eq!(cluster.primary_of(r4), Some(NodeId(1)));
    assert_eq!(cluster.primary_of(r2), Some(NodeId(2)));
    let a = alloc_in_region(&engine, r1, 2);
    let b = alloc_in_region(&engine, r4, 2);
    let c = alloc_in_region(&engine, r2, 2);
    engine.quiesce();

    let node = engine.node(coordinator);
    let mut tx = node.begin();
    tx.write(a[0], vec![1u8; 32]).unwrap();
    tx.overwrite(a[1], vec![2u8; 8]).unwrap();
    tx.write(b[0], vec![3u8; 16]).unwrap();
    tx.free(b[1]).unwrap();
    tx.alloc_in(r2, vec![4u8; 24]).unwrap();
    tx.write(c[0], vec![5u8; 48]).unwrap();
    tx.read(c[1]).unwrap(); // validated, not written
    let (net_before, stats_before) = (node.handle().stats().snapshot(), node.stats());
    tx.commit().unwrap();
    let net = node.handle().stats().snapshot().delta(&net_before);
    let stats = node.stats().delta(&stats_before);

    let metered: Vec<(u64, u64, u64)> = [
        Verb::RdmaRead,
        Verb::RdmaWrite,
        Verb::HardwareAck,
        Verb::Rpc,
    ]
    .into_iter()
    .map(|v| (net.count(v), net.ops(v), net.bytes(v)))
    .collect();
    assert_eq!(
        metered,
        [
            // VALIDATE: one 16-byte header read at n2.
            (1, 1, 16),
            // COMMIT-BACKUP to n0 (6 objects, 512 B), n1 (2, 200 B) and n2
            // (4, 312 B); COMMIT-PRIMARY to n1 (4, 312 B) and n2 (2, 200 B).
            (5, 18, 1_536),
            // The three COMMIT-BACKUP acks.
            (3, 3, 0),
            // LOCK to n1 (4 objects, 312 B) and n2 (1, 112 B).
            (2, 5, 424),
        ],
        "(count, ops, bytes) per verb"
    );
    assert_eq!(
        (
            stats.lock_batches,
            stats.lock_batch_objects,
            stats.validate_batches,
            stats.backup_batches,
            stats.primary_batches
        ),
        (2, 5, 1, 3, 2)
    );
    engine.shutdown();
}

/// The plan puts no cap on the number of region groups: a commit that
/// touches more than 64 regions commits and sends one LOCK per primary.
#[test]
fn a_commit_over_more_than_64_regions_sends_one_lock_per_primary() {
    let engine = engine_with_regions(24);
    let regions = engine.cluster().regions();
    assert!(regions.len() > 64);
    let addrs: Vec<Addr> = regions
        .iter()
        .map(|&r| alloc_in_region(&engine, r, 1)[0])
        .collect();
    engine.quiesce();

    let node = engine.node(NodeId(0));
    let before = node.stats();
    let delta = commit_delta(&engine, NodeId(0), &addrs);
    let stats = node.stats().delta(&before);
    assert_eq!(stats.lock_batches, 3, "one LOCK per primary");
    assert_eq!(stats.lock_batch_objects, regions.len() as u64);
    assert_eq!(stats.primary_batches, 3);
    assert_eq!(delta.count(Verb::Rpc), 3);
    assert_eq!(delta.ops(Verb::Rpc), regions.len() as u64);
    engine.quiesce();
    let mut check = node.begin();
    for &addr in &addrs {
        assert_eq!(&check.read(addr).unwrap()[..], &[7u8; 32]);
    }
    check.commit().unwrap();
    engine.shutdown();
}
