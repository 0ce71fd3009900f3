//! Criterion micro-benchmark of the commit-pipeline reactor itself: pure
//! scheduler + protocol CPU per committed transaction at depths 1 / 8 / 32.
//!
//! The engine runs a zero-latency model, so drivers' completion deadlines
//! expire the moment they are issued: the reactor never sleeps, and the
//! measured time is submit + heap churn + phase issue + install drain —
//! the per-commit CPU that bounds a saturated pipeline. Throughput is reported per element (per commit), so
//! the depth-32 row directly shows what deeper pipelines cost in scheduler
//! overhead once flight time is out of the picture.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use farm_core::{Engine, EngineConfig, NodeId, TxOptions};
use farm_kernel::ClusterConfig;
use farm_net::LatencyModel;

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_advance");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    let config = EngineConfig {
        latency: LatencyModel {
            rdma_read_ns: 0,
            rdma_write_ns: 0,
            rpc_ns: 0,
            spin_threshold_ns: 0,
        },
        gc_interval: Duration::from_secs(3600),
        ..EngineConfig::default()
    };
    let engine = Engine::start_cluster(ClusterConfig::test(3), config);
    let node = engine.node(NodeId(0));
    let region = engine
        .cluster()
        .regions()
        .into_iter()
        .find(|&r| engine.cluster().primary_of(r) != Some(NodeId(0)))
        .expect("test cluster has a remote region");
    let mut setup = node.begin();
    let addrs: Vec<_> = (0..64)
        .map(|_| setup.alloc_in(region, vec![0u8; 64]).unwrap())
        .collect();
    setup.commit().unwrap();
    node.drain_pending_installs();
    let opts = TxOptions::serializable_non_strict();
    let payload = bytes::Bytes::from(vec![7u8; 64]);

    // Every row commits the same 32-transaction batch (depth 1 pumps them
    // one at a time, depth 32 keeps them all in flight), so the reported
    // times are directly comparable: divide by 32 for ns per commit.
    const BATCH: usize = 32;
    for depth in [1usize, 8, 32] {
        group.bench_function(format!("depth_{depth}_batch{BATCH}"), |b| {
            let mut pipeline = node.pipeline(depth);
            let mut i = 0usize;
            b.iter(|| {
                let mut done = 0usize;
                while done < BATCH {
                    for _ in 0..depth.min(BATCH - done) {
                        let mut tx = node.begin_with(opts);
                        tx.overwrite(addrs[i % addrs.len()], payload.clone())
                            .unwrap();
                        i += 1;
                        pipeline.submit(tx);
                    }
                    let results = pipeline.drain();
                    assert!(
                        results.iter().all(|r| r.is_ok()),
                        "disjoint zero-latency commits must not abort"
                    );
                    done += results.len();
                }
                // Install work is part of the per-commit CPU bill.
                node.drain_pending_installs();
                done
            })
        });
    }
    group.finish();
    engine.shutdown();
    engine.cluster().shutdown();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
