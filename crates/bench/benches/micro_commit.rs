//! Criterion micro-benchmarks of the commit protocol: read-only, single-
//! object-update and multi-object-update transactions.
//!
//! Besides latency, each configuration reports **messages per commit**
//! (from the batch-aware `NetStats` counters): the batched commit driver
//! sends one LOCK / COMMIT-PRIMARY message per destination machine, so the
//! multi-update workload's message count stays flat as the write set grows
//! while the logical-operation count scales with it.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use farm_core::{Engine, EngineConfig, NodeId};
use farm_kernel::ClusterConfig;

/// Runs `commits` transactions via `body` and prints the per-commit message
/// and operation counts measured on the coordinator.
fn report_messages_per_commit(
    label: &str,
    engine: &std::sync::Arc<Engine>,
    coordinator: NodeId,
    commits: u64,
    mut body: impl FnMut(),
) {
    let node = engine.node(coordinator);
    let before = node.handle().stats().snapshot();
    let stats_before = node.stats();
    for _ in 0..commits {
        body();
    }
    let delta = node.handle().stats().snapshot().delta(&before);
    let stats = node.stats().delta(&stats_before);
    println!(
        "commit-traffic {label:<28} {:>6.1} msgs/commit  {:>6.1} ops/commit  lock-batch {:>4.1}",
        delta.total_messages() as f64 / commits as f64,
        delta.total_ops() as f64 / commits as f64,
        stats.mean_lock_batch_size(),
    );
}

fn bench_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("commit");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    let name = "farmv2";
    let engine = Engine::start_cluster(ClusterConfig::test(3), EngineConfig::default());
    let node = engine.node(NodeId(0));
    let mut setup = node.begin();
    let addrs: Vec<_> = (0..8)
        .map(|_| setup.alloc(vec![0u8; 64]).unwrap())
        .collect();
    setup.commit().unwrap();

    group.bench_function(format!("{name}_read_only"), |b| {
        b.iter(|| {
            let mut tx = node.begin();
            tx.read(addrs[0]).unwrap();
            tx.commit().unwrap()
        })
    });
    group.bench_function(format!("{name}_single_update"), |b| {
        b.iter(|| {
            let mut tx = node.begin();
            tx.write(addrs[0], vec![1u8; 64]).unwrap();
            tx.commit().unwrap()
        })
    });
    group.bench_function(format!("{name}_multi_update"), |b| {
        b.iter(|| {
            let mut tx = node.begin();
            for a in &addrs {
                tx.write(*a, vec![2u8; 64]).unwrap();
            }
            tx.commit().unwrap()
        })
    });

    // Message-per-commit accounting for the same three shapes.
    report_messages_per_commit(
        &format!("{name}_single_update"),
        &engine,
        NodeId(0),
        100,
        || {
            let mut tx = node.begin();
            tx.write(addrs[0], vec![1u8; 64]).unwrap();
            tx.commit().unwrap();
        },
    );
    report_messages_per_commit(
        &format!("{name}_multi_update_8"),
        &engine,
        NodeId(0),
        100,
        || {
            let mut tx = node.begin();
            for a in &addrs {
                tx.write(*a, vec![2u8; 64]).unwrap();
            }
            tx.commit().unwrap();
        },
    );

    engine.shutdown();
    engine.cluster().shutdown();
    group.finish();
}

criterion_group!(benches, bench_commit);
criterion_main!(benches);
