//! Figure 15: throughput of a mixed scan/update workload as a function of
//! scan length, for single-version FaRMv2 (SV) and the three multi-version
//! policies (MV-BLOCK, MV-ABORT, MV-TRUNCATE) with bounded old-version
//! memory.

use farm_bench::{bench_cluster, bench_duration, run_ycsb};
use farm_core::{Engine, EngineConfig, MvPolicy, TxOptions};
use farm_workloads::{YcsbConfig, YcsbDatabase};
use std::sync::Arc;

fn main() {
    let duration = bench_duration(1.0);
    let systems = [
        ("SV", None),
        ("MV-BLOCK", Some(MvPolicy::Block)),
        ("MV-ABORT", Some(MvPolicy::Abort)),
        ("MV-TRUNCATE", Some(MvPolicy::Truncate)),
    ];
    println!("system,scan_length,keys_per_s,abort_rate,msgs_per_read");
    for scan_length in [1usize, 10, 100, 1000] {
        for (name, mv_policy) in systems {
            let mut cluster_cfg = bench_cluster(3);
            // Bounded old-version memory, as in the paper's 2 GB/server cap.
            cluster_cfg.old_version_max_bytes = 4 * 1024 * 1024;
            let engine = Engine::start_cluster(
                cluster_cfg,
                EngineConfig {
                    mv_policy,
                    ..EngineConfig::default()
                },
            );
            let db = Arc::new(
                YcsbDatabase::load(
                    &engine,
                    YcsbConfig {
                        keys: 4_000,
                        value_size: 64,
                        read_fraction: 0.5,
                        zipf_theta: 0.0,
                        scan_length,
                        multiget_size: 0,
                    },
                )
                .expect("load"),
            );
            let r = run_ycsb(&engine, &db, 6, duration, TxOptions::serializable());
            println!(
                "{name},{scan_length},{:.0},{:.4},{:.3}",
                r.throughput, r.abort_rate, r.msgs_per_read
            );
            engine.shutdown();
            engine.cluster().shutdown();
        }
    }
}
