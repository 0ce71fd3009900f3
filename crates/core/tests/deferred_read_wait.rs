//! Opacity while strict read timestamps wait out their uncertainty late.
//!
//! A strict `begin` takes the interval's upper bound R without waiting; the
//! wait runs at the transaction's first snapshot read. A writer whose write
//! timestamp is ≤ R may still be committing when `begin` returns, so the
//! first read must not look at object data before R is in the past: if it
//! did, it could see an object before that writer locked it and a second
//! object after the writer installed it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use farm_core::{Addr, Engine, EngineConfig, NodeId, Transaction, TxError};
use farm_kernel::ClusterConfig;

fn value(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte value"))
}

/// Reads `x`, then `y`, as two separate reads: through `read`, or through
/// `read_many` when `batched`.
fn read_pair(tx: &mut Transaction, x: Addr, y: Addr, batched: bool) -> Result<(u64, u64), TxError> {
    if batched {
        let vx = value(&tx.read_many(&[x])?[0]);
        let vy = value(&tx.read_many(&[y])?[0]);
        Ok((vx, vy))
    } else {
        let vx = value(&tx.read(x)?);
        let vy = value(&tx.read(y)?);
        Ok((vx, vy))
    }
}

#[derive(Debug, Default)]
struct Tally {
    pairs: u64,
    aborts: u64,
    torn: u64,
    stale: u64,
}

#[test]
fn first_reads_wait_out_the_snapshot_before_touching_data() {
    let engine = Engine::start_cluster(ClusterConfig::test(3), EngineConfig::default());
    // Both objects live on n0, the clock master, which writes them.
    let master = engine.node(NodeId(0));
    let mut setup = master.begin();
    let x = setup.alloc(0u64.to_le_bytes().to_vec()).unwrap();
    let y = setup.alloc(0u64.to_le_bytes().to_vec()).unwrap();
    setup.commit().unwrap();
    engine.cluster().control_round();

    let stop = Arc::new(AtomicBool::new(false));
    // The last value whose commit was acked.
    let acked = Arc::new(AtomicU64::new(0));
    let writer = {
        let (engine, stop, acked) = (Arc::clone(&engine), Arc::clone(&stop), Arc::clone(&acked));
        std::thread::spawn(move || {
            let node = engine.node(NodeId(0));
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                i += 1;
                let mut tx = node.begin();
                tx.overwrite(x, i.to_le_bytes().to_vec()).unwrap();
                tx.overwrite(y, i.to_le_bytes().to_vec()).unwrap();
                if tx.commit().is_ok() {
                    acked.store(i, Ordering::SeqCst);
                }
            }
        })
    };
    let readers: Vec<_> = [NodeId(1), NodeId(2)]
        .into_iter()
        .map(|id| {
            let (engine, stop, acked) =
                (Arc::clone(&engine), Arc::clone(&stop), Arc::clone(&acked));
            std::thread::spawn(move || {
                let node = engine.node(id);
                let mut tally = Tally::default();
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    round += 1;
                    let floor = acked.load(Ordering::SeqCst);
                    let mut tx = node.begin();
                    match read_pair(&mut tx, x, y, round.is_multiple_of(2)) {
                        Ok((vx, vy)) => {
                            tally.pairs += 1;
                            tally.torn += u64::from(vx != vy);
                            tally.stale += u64::from(vx < floor);
                            // Half the readers commit, half are dropped.
                            if round % 4 < 2 {
                                tx.commit().unwrap();
                            }
                        }
                        Err(_) => tally.aborts += 1,
                    }
                }
                (id, tally)
            })
        })
        .collect();
    // Without background control traffic the readers' intervals widen
    // between these rounds, to tens of microseconds: long deferred waits.
    for _ in 0..10 {
        std::thread::sleep(Duration::from_millis(40));
        engine.cluster().control_round();
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    let tallies: Vec<_> = readers.into_iter().map(|r| r.join().unwrap()).collect();
    for (id, tally) in &tallies {
        eprintln!("reader on {id:?}: {tally:?}");
    }
    for (id, tally) in tallies {
        assert!(tally.pairs > 0, "reader on {id:?} read no pair: {tally:?}");
        assert_eq!(tally.torn, 0, "torn reads on {id:?}: {tally:?}");
        assert_eq!(tally.stale, 0, "stale reads on {id:?}: {tally:?}");
    }
    engine.shutdown();
}
