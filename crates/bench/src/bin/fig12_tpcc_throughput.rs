//! Figure 12: TPC-C throughput of FaRMv2 under serializable/SI ×
//! strict/non-strict (single-version mode, as in the paper's default TPC-C
//! configuration).

use farm_bench::{bench_duration, run_tpcc, small_tpcc, tpcc_setup};
use farm_core::{EngineConfig, TxOptions};

fn main() {
    let nodes = 3;
    let threads = 6;
    let duration = bench_duration(2.0);
    println!("system,isolation,strict,neworders_per_s,abort_rate,p99_us");
    let configs: Vec<(&str, EngineConfig, TxOptions, &str, &str)> = vec![
        (
            "FaRMv2",
            EngineConfig::default(),
            TxOptions::serializable(),
            "serializable",
            "strict",
        ),
        (
            "FaRMv2",
            EngineConfig::default(),
            TxOptions::serializable_non_strict(),
            "serializable",
            "non-strict",
        ),
        (
            "FaRMv2",
            EngineConfig::default(),
            TxOptions::snapshot_isolation(),
            "si",
            "strict",
        ),
        (
            "FaRMv2",
            EngineConfig::default(),
            TxOptions::snapshot_isolation_non_strict(),
            "si",
            "non-strict",
        ),
    ];
    for (name, engine_cfg, opts, iso, strict) in configs {
        let (engine, db) = tpcc_setup(nodes, engine_cfg, small_tpcc());
        let r = run_tpcc(&engine, &db, threads, duration, opts);
        println!(
            "{name},{iso},{strict},{:.0},{:.5},{:.0}",
            r.throughput, r.abort_rate, r.latency_p99_us
        );
        engine.shutdown();
        engine.cluster().shutdown();
    }
}
