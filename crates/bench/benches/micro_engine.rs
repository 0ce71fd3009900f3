//! Criterion micro-benchmarks of the engine's node-local hot path — the
//! structures the lock-free refactor replaced:
//!
//! * `begin_finish`: one transaction begin + read-only commit, i.e. one
//!   registration CAS and one withdrawal store in the active-tx slot table
//!   (plus the clock read). Previously two `Mutex<BTreeMap>` critical
//!   sections.
//! * `begin_finish_threads/N`: the same cycle hammered from N concurrent
//!   threads on one node, reported per-transaction — flat scaling here is
//!   what lets coordinator threads scale.
//! * `oat_scan`: the wait-free oldest-active-timestamp minimum scan the GC
//!   watermark traffic performs every control round.
//! * `local_read`: a 1-key read-only transaction against a local primary —
//!   begin + wait-free slab-index lookup + finish.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use farm_core::{Addr, Engine, EngineConfig, NodeId};
use farm_kernel::ClusterConfig;

fn setup() -> (Arc<Engine>, Addr) {
    let engine = Engine::start_cluster(ClusterConfig::test(3), EngineConfig::default());
    let node = engine.node(NodeId(0));
    let region = node.home_region().expect("node 0 holds a primary");
    let mut tx = node.begin();
    let addr = tx.alloc_in(region, vec![7u8; 64]).unwrap();
    tx.commit().unwrap();
    (engine, addr)
}

fn bench_engine_hot_path(c: &mut Criterion) {
    let (engine, addr) = setup();
    let node = engine.node(NodeId(0));

    let mut group = c.benchmark_group("engine");
    group
        .measurement_time(Duration::from_millis(400))
        .sample_size(10);

    group.bench_function("begin_finish", |b| {
        b.iter(|| {
            let tx = node.begin();
            tx.commit().unwrap()
        })
    });

    group.bench_function("local_read", |b| {
        b.iter(|| {
            let mut tx = node.begin();
            let v = tx.read(addr).unwrap();
            tx.commit().unwrap();
            v
        })
    });

    group.bench_function("oat_scan", |b| {
        let handle = node.handle();
        b.iter(|| handle.oat_local())
    });

    for threads in [2usize, 4, 8] {
        group.bench_function(format!("begin_finish_threads/{threads}"), |b| {
            b.iter(|| {
                // One iteration = `threads` workers of 64 begin/finish cycles
                // each; per-cycle cost is this time / (threads * 64).
                std::thread::scope(|scope| {
                    for _ in 0..threads {
                        let node = engine.node(NodeId(0));
                        scope.spawn(move || {
                            for _ in 0..64 {
                                let tx = node.begin();
                                tx.commit().unwrap();
                            }
                        });
                    }
                })
            })
        });
    }
    group.finish();

    engine.shutdown();
    engine.cluster().shutdown();
}

criterion_group!(benches, bench_engine_hot_path);
criterion_main!(benches);
