//! Concurrency tests for OAT / GC-safe-point advancement (Figure 9) under
//! multi-threaded begin/commit/finish — the paths the lock-free active-tx
//! slot table now serves without a node-global lock.
//!
//! Invariants checked:
//!
//! * The OAT a node reports, and the GC safe point derived from it, never
//!   exceed the read timestamp of any transaction that is live at the
//!   moment of observation (otherwise GC could reclaim versions a running
//!   transaction still needs).
//! * A pinned snapshot (a long-lived transaction) can still read its
//!   version of an object after concurrent writers overwrite it many times
//!   and GC passes run — old versions below a live read timestamp are never
//!   reclaimed.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use farm_core::{Engine, EngineConfig, MvPolicy, NodeId, TxOptions};
use farm_kernel::ClusterConfig;

/// Four worker threads churn transactions (read-only commits, read-write
/// commits, and drops) while the main thread drives control rounds and
/// samples: whenever a worker's published read timestamp is stable across a
/// sample, the node's OAT and GC safe point must not exceed it.
#[test]
fn oat_and_gc_safe_point_never_pass_a_live_transaction() {
    let engine = Engine::start_cluster(ClusterConfig::test(3), EngineConfig::multi_version());
    let node0 = engine.node(NodeId(0));
    let region = node0.home_region().expect("node 0 holds a primary");
    let mut tx = node0.begin();
    let addr = tx.alloc_in(region, vec![1u8; 16]).unwrap();
    tx.commit().unwrap();

    const WORKERS: usize = 4;
    let stop = Arc::new(AtomicBool::new(false));
    // One published read timestamp per worker; 0 = no transaction live.
    let live: Arc<Vec<AtomicU64>> = Arc::new((0..WORKERS).map(|_| AtomicU64::new(0)).collect());

    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let live = Arc::clone(&live);
            std::thread::spawn(move || {
                let node = engine.node(NodeId(w as u32 % 3));
                let mut i = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let mut tx = node.begin_with(TxOptions::serializable());
                    let outcome = match i % 3 {
                        0 => tx.read(addr).map(|_| ()),
                        1 => tx.write(addr, vec![w as u8; 16]),
                        _ => Ok(()), // drop without committing (abort path)
                    };
                    // A failed read or write has already aborted the
                    // transaction and withdrawn its registration, inside the
                    // op. One whose op succeeded stays registered until the
                    // commit or drop below: publish it for that window only
                    // (held across a yield so the sampler gets to see it),
                    // so a sampled non-zero slot implies a registration.
                    if outcome.is_ok() {
                        live[w].store(tx.read_ts(), Ordering::SeqCst);
                        std::thread::yield_now();
                        live[w].store(0, Ordering::SeqCst);
                        if i % 3 != 2 {
                            let _ = tx.commit();
                        }
                    }
                    i += 1;
                }
            })
        })
        .collect();

    let deadline = Instant::now() + Duration::from_millis(400);
    let mut samples = 0u64;
    while Instant::now() < deadline {
        engine.cluster().control_round();
        for w in 0..WORKERS {
            let node = engine.node(NodeId(w as u32 % 3));
            let ts1 = live[w].load(Ordering::SeqCst);
            let oat = node.handle().oat_local();
            let gc = node.handle().gc_safe_point();
            let ts2 = live[w].load(Ordering::SeqCst);
            // Only judge samples where the same transaction was provably
            // live across the whole observation window (timestamps are
            // nanosecond-unique, so ts1 == ts2 != 0 pins one registration).
            if ts1 != 0 && ts1 == ts2 {
                assert!(
                    oat <= ts1,
                    "OAT {oat} passed live transaction read_ts {ts1} (worker {w})"
                );
                assert!(
                    gc <= ts1,
                    "GC safe point {gc} passed live transaction read_ts {ts1} (worker {w})"
                );
                samples += 1;
            }
        }
    }
    stop.store(true, Ordering::SeqCst);
    for h in workers {
        h.join().unwrap();
    }
    assert!(samples > 0, "sampler never caught a live transaction");
    engine.shutdown();
}

/// A long-lived snapshot keeps reading its version while concurrent writers
/// overwrite the object and GC runs — the pinned read timestamp holds the
/// OAT (and therefore the GC safe point) back, so the version chain below it
/// survives every sweep.
#[test]
fn gc_never_reclaims_a_version_a_pinned_snapshot_can_read() {
    // MV-BLOCK: when old-version memory fills, writers stall or abort rather
    // than truncating history (MV-TRUNCATE deliberately sacrifices readers
    // under memory pressure, which is not the invariant under test — GC must
    // never reclaim below a live pin, however fast the writers churn).
    let config = EngineConfig {
        mv_policy: Some(MvPolicy::Block),
        ..EngineConfig::multi_version()
    };
    let engine = Engine::start_cluster(ClusterConfig::test(3), config);
    let node0 = engine.node(NodeId(0));
    let region = node0.home_region().expect("node 0 holds a primary");
    let mut tx = node0.begin();
    let addr = tx.alloc_in(region, vec![42u8; 16]).unwrap();
    tx.commit().unwrap();

    // Pin a snapshot that has observed value 42.
    let mut pinned = node0.begin();
    let snapshot_value = pinned.read(addr).unwrap();
    assert_eq!(snapshot_value[0], 42);

    // Writers on two other nodes overwrite the object concurrently while
    // control rounds advance the watermarks and GC sweeps run.
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (1..3u32)
        .map(|n| {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let node = engine.node(NodeId(n));
                let mut v = 0u8;
                while !stop.load(Ordering::SeqCst) {
                    let mut tx = node.begin();
                    if tx.write(addr, vec![v; 16]).is_ok() {
                        let _ = tx.commit();
                    }
                    v = v.wrapping_add(1);
                }
            })
        })
        .collect();

    let deadline = Instant::now() + Duration::from_millis(300);
    while Instant::now() < deadline {
        engine.cluster().control_round();
        engine.collect_garbage_now();
        std::thread::yield_now();
    }
    stop.store(true, Ordering::SeqCst);
    for h in writers {
        h.join().unwrap();
    }

    // After all that churn the pinned snapshot must still read its version:
    // GC was never allowed to reclaim history at or below its read_ts.
    let again = pinned
        .read(addr)
        .expect("pinned snapshot lost its version to GC");
    assert_eq!(again, snapshot_value, "snapshot read became inconsistent");
    pinned.commit().unwrap();

    // Once the pin is released the watermarks may advance past it and the
    // accumulated old versions become reclaimable.
    for _ in 0..4 {
        engine.cluster().control_round();
    }
    engine.collect_garbage_now();
    engine.shutdown();
}
