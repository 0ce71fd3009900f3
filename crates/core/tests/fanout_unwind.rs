//! Fan-out unwind tests: when one destination of a concurrently dispatched
//! LOCK fan-out fails, the in-flight sibling destinations are drained first
//! and **every** acquired lock is released — in descending global address
//! order — leaving no tombstoned old versions and no leaked slot locks,
//! whatever order the destinations completed in and wherever the failure
//! was injected.

use std::sync::Arc;

use farm_core::{AbortReason, Engine, EngineConfig, NodeId, TxError};
use farm_kernel::ClusterConfig;
use farm_memory::{Addr, LockOutcome, RegionId};
use proptest::prelude::*;

fn engine_with(config: EngineConfig) -> Arc<Engine> {
    Engine::start_cluster(ClusterConfig::test(3), config)
}

/// Allocates one object per cluster region (so a transaction writing all of
/// them fans out to every primary), committing the setup.
fn one_object_per_region(engine: &Arc<Engine>) -> Vec<Addr> {
    let node = engine.node(NodeId(0));
    let mut tx = node.begin();
    let addrs: Vec<Addr> = engine
        .cluster()
        .regions()
        .into_iter()
        .map(|r| tx.alloc_in(r, vec![1u8; 16]).unwrap())
        .collect();
    tx.commit().unwrap();
    addrs
}

/// Asserts that no slot of `addrs` is left locked and no region holds
/// pending tombstones: the post-unwind quiescent state.
fn assert_clean(engine: &Arc<Engine>, addrs: &[Addr]) {
    for &addr in addrs {
        let primary = engine.cluster().primary_of(addr.region).unwrap();
        let region = engine.cluster().node(primary).regions().ensure(addr.region);
        let slot = region.slot(addr).unwrap();
        let h = slot.header_snapshot();
        assert!(!h.locked, "slot {addr:?} left locked after unwind");
        assert_eq!(
            region.pending_tombstones(),
            0,
            "unwound commit left tombstones in {:?}",
            addr.region
        );
    }
}

#[test]
fn lock_conflict_on_one_destination_releases_every_destination() {
    let engine = engine_with(EngineConfig::default());
    let addrs = one_object_per_region(&engine);
    assert!(addrs.len() >= 3, "need a multi-primary write set");

    // Buffer writes to every destination first (the execution-phase
    // reads happen here, on unlocked slots) ...
    let node = engine.node(NodeId(0));
    let mut tx = node.begin();
    for &a in &addrs {
        tx.write(a, vec![9u8; 16]).unwrap();
    }
    // ... then hold a commit-style lock on the *last* destination's
    // object, as a concurrent committer would while its own fan-out is
    // in flight.
    let victim = *addrs.last().unwrap();
    let victim_primary = engine.cluster().primary_of(victim.region).unwrap();
    let victim_slot = engine
        .cluster()
        .node(victim_primary)
        .regions()
        .ensure(victim.region)
        .slot(victim)
        .unwrap();
    let head_ts = victim_slot.header_snapshot().ts;
    assert_eq!(victim_slot.try_lock_at(head_ts), LockOutcome::Acquired);

    // The fan-out must abort on the victim — after draining the sibling
    // destinations that locked successfully.
    let err = tx.commit().unwrap_err();
    assert!(
        matches!(err, TxError::Aborted(AbortReason::LockConflict(a)) if a == victim),
        "unexpected abort: {err:?}"
    );

    victim_slot.unlock();
    assert_clean(&engine, &addrs);

    // Every lock the unwound fan-out acquired must be free again: a
    // retry writing the full set commits.
    let mut tx = node.begin();
    for &a in &addrs {
        tx.write(a, vec![8u8; 16]).unwrap();
    }
    tx.commit().expect("retry after unwind commits");
    engine.shutdown();
    engine.cluster().shutdown();
}

#[test]
fn multi_version_unwind_leaves_no_tombstones_or_linked_old_versions() {
    let engine = engine_with(EngineConfig::multi_version());
    let addrs = one_object_per_region(&engine);
    let victim = addrs[1]; // fail a middle destination
                           // The failed fan-out copies old versions at the destinations that
                           // lock successfully; those copies are never linked, so reads must
                           // still see the original value and no tombstone may appear. Buffer
                           // the intents first (execution-phase reads run on unlocked slots),
                           // then inject the conflict.
    let node = engine.node(NodeId(0));
    let mut tx = node.begin();
    // Mix frees and updates: a free that unwinds must tombstone nothing.
    tx.write(addrs[0], vec![5u8; 16]).unwrap();
    tx.free(addrs[2]).unwrap();
    tx.write(victim, vec![5u8; 16]).unwrap();
    let victim_primary = engine.cluster().primary_of(victim.region).unwrap();
    let victim_slot = engine
        .cluster()
        .node(victim_primary)
        .regions()
        .ensure(victim.region)
        .slot(victim)
        .unwrap();
    let head_ts = victim_slot.header_snapshot().ts;
    assert_eq!(victim_slot.try_lock_at(head_ts), LockOutcome::Acquired);
    let err = tx.commit().unwrap_err();
    assert!(
        matches!(err, TxError::Aborted(AbortReason::LockConflict(a)) if a == victim),
        "unexpected abort: {err:?}"
    );
    victim_slot.unlock();
    assert_clean(&engine, &addrs);

    // All three objects still hold their original payloads.
    let mut tx = node.begin();
    for &a in &addrs {
        assert_eq!(tx.read(a).unwrap().as_ref(), &[1u8; 16]);
    }
    tx.commit().unwrap();
    engine.shutdown();
    engine.cluster().shutdown();
}

#[test]
fn killed_destination_mid_run_aborts_without_leaking_sibling_locks() {
    // FaultPlane injection against the in-flight alive check: committers
    // hammer multi-primary transactions while a primary is killed under
    // them. Every abort — whether it fired in planning or inside a LOCK
    // verb closure with sibling destinations in flight — must leave the
    // surviving destinations' locks released.
    let engine = engine_with(EngineConfig::default());
    let addrs = one_object_per_region(&engine);
    let doomed: NodeId = engine.cluster().primary_of(addrs[2].region).unwrap();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let engine2 = Arc::clone(&engine);
    let addrs2 = addrs.clone();
    let stop2 = Arc::clone(&stop);
    let coordinator = engine
        .cluster()
        .regions()
        .into_iter()
        .map(|r| engine.cluster().primary_of(r).unwrap())
        .find(|&p| p != doomed)
        .unwrap();
    let writer = std::thread::spawn(move || {
        let node = engine2.node(coordinator);
        let mut committed = 0u64;
        let mut aborted = 0u64;
        while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
            let mut tx = node.begin();
            let outcome = (|| {
                for &a in &addrs2 {
                    tx.write(a, vec![3u8; 16])?;
                }
                tx.commit().map(|_| ())
            })();
            match outcome {
                Ok(()) => committed += 1,
                Err(_) => aborted += 1,
            }
        }
        (committed, aborted)
    });
    // Let some commits succeed, then kill the third primary under the
    // running fan-outs.
    std::thread::sleep(std::time::Duration::from_millis(20));
    engine.cluster().kill(doomed);
    std::thread::sleep(std::time::Duration::from_millis(20));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let (committed, aborted) = writer.join().unwrap();
    assert!(committed > 0, "no commit succeeded before the kill");
    assert!(aborted > 0, "the kill never aborted a fan-out");

    // The surviving destinations' objects must all be unlocked: a
    // transaction over just those objects commits.
    let survivors: Vec<Addr> = addrs
        .iter()
        .copied()
        .filter(|a| engine.cluster().primary_of(a.region) != Some(doomed))
        .collect();
    assert_clean(&engine, &survivors);
    let node = engine.node(coordinator);
    let mut tx = node.begin();
    for &a in &survivors {
        tx.write(a, vec![4u8; 16]).unwrap();
    }
    tx.commit().unwrap();
    engine.shutdown();
    engine.cluster().shutdown();
}

#[test]
fn serializable_fanout_overlaps_uncertainty_wait_with_replication() {
    // The strict write-timestamp wait happens while COMMIT-BACKUP is in
    // flight: the overlapped-wait counter tracks the wait counter.
    let engine = engine_with(EngineConfig::default());
    // Coordinator 1 runs on a slave clock, so strict timestamps carry real
    // uncertainty waits.
    let addrs = one_object_per_region(&engine);
    let node = engine.node(NodeId(1));
    for round in 0..64u8 {
        let mut tx = node.begin();
        for &a in &addrs {
            tx.write(a, vec![round; 16]).unwrap();
        }
        tx.commit().unwrap();
    }
    let stats = engine.aggregate_stats();
    assert!(
        stats.write_waits == 0 || stats.write_wait_overlapped_ns > 0,
        "the commit never overlapped its waits: {stats:?}"
    );
    assert!(stats.write_wait_overlapped_ns <= stats.write_wait_ns);
    engine.shutdown();
    engine.cluster().shutdown();
}

/// The destination-ordering / failure-injection sweep: whatever subset of
/// regions a transaction writes, in whatever order the writes were issued,
/// and whichever destination is made to fail, the unwind releases every
/// acquired lock and leaves no tombstones.
fn unwind_case(
    engine: &Arc<Engine>,
    addrs: &[Addr],
    picks: &[usize],
    victim_pick: usize,
) -> Result<(), TestCaseError> {
    let node = engine.node(NodeId(0));
    // Dedup picks preserving issue order.
    let mut chosen: Vec<Addr> = Vec::new();
    for &p in picks {
        let a = addrs[p % addrs.len()];
        if !chosen.contains(&a) {
            chosen.push(a);
        }
    }
    let victim = chosen[victim_pick % chosen.len()];
    // Buffer the writes first (reads run on unlocked slots), then inject
    // the conflict at the chosen destination.
    let mut tx = node.begin();
    for &a in &chosen {
        tx.write(a, vec![0xAB; 16]).unwrap();
    }
    let victim_primary = engine.cluster().primary_of(victim.region).unwrap();
    let victim_slot = engine
        .cluster()
        .node(victim_primary)
        .regions()
        .ensure(victim.region)
        .slot(victim)
        .unwrap();
    let head_ts = victim_slot.header_snapshot().ts;
    prop_assert_eq!(victim_slot.try_lock_at(head_ts), LockOutcome::Acquired);
    let err = tx.commit().unwrap_err();
    prop_assert!(
        matches!(err, TxError::Aborted(AbortReason::LockConflict(a)) if a == victim),
        "unexpected abort {:?}",
        err
    );
    victim_slot.unlock();

    // Post-unwind: every chosen slot unlocked, no tombstones anywhere, and
    // the full set commits on retry.
    for &a in &chosen {
        let primary = engine.cluster().primary_of(a.region).unwrap();
        let region = engine.cluster().node(primary).regions().ensure(a.region);
        prop_assert!(!region.slot(a).unwrap().header_snapshot().locked);
        prop_assert_eq!(region.pending_tombstones(), 0);
    }
    let mut tx = node.begin();
    for &a in &chosen {
        tx.write(a, vec![0xCD; 16]).unwrap();
    }
    prop_assert!(tx.commit().is_ok());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn unwind_invariants_hold_over_orderings_and_failure_sites(
        picks in prop::collection::vec(0usize..16, 1..12),
        victim_pick in 0usize..16,
    ) {
        let engine = engine_with(EngineConfig::multi_version());
        // Several objects per region so a destination's batch can carry
        // more than one lock.
        let node = engine.node(NodeId(0));
        let mut tx = node.begin();
        let mut addrs: Vec<Addr> = Vec::new();
        for r in engine.cluster().regions() {
            for _ in 0..3 {
                addrs.push(tx.alloc_in(r, vec![1u8; 16]).unwrap());
            }
        }
        tx.commit().unwrap();
        let result = unwind_case(&engine, &addrs, &picks, victim_pick);
        engine.shutdown();
        engine.cluster().shutdown();
        result?;
    }
}

/// RegionId is used in signatures above; silence the unused-import lint
/// gracefully if the type alias changes.
#[allow(dead_code)]
fn _region_id_witness(r: RegionId) -> RegionId {
    r
}
