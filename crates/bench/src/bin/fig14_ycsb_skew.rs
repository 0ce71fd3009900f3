//! Figure 14: YCSB throughput (50/50 read/update) as a function of the Zipf
//! skew parameter θ, for FaRMv2 — plus a multiget variant whose reads fetch
//! 8 keys per transaction through the batched `read_many` path.
//!
//! Besides throughput, each row reports **messages per logical read**
//! (`msgs_per_read`): 1.0 when every read is its own metered message,
//! dropping below 1.0 as doorbell batching and the local-bypass fast path
//! fold reads together.

use farm_bench::{bench_duration, run_ycsb, ycsb_setup};
use farm_core::{EngineConfig, TxOptions};
use farm_workloads::YcsbConfig;

fn main() {
    let duration = bench_duration(1.5);
    println!("system,theta,ops_per_s,abort_rate,msgs_per_read");
    for (name, multiget) in [("FaRMv2", 0), ("FaRMv2-mget8", 8)] {
        for theta in [0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.99] {
            let (engine, db) = ycsb_setup(
                3,
                EngineConfig::default(),
                YcsbConfig {
                    keys: 5_000,
                    value_size: 64,
                    read_fraction: 0.5,
                    zipf_theta: theta,
                    scan_length: 0,
                    multiget_size: multiget,
                },
            );
            let r = run_ycsb(&engine, &db, 6, duration, TxOptions::serializable());
            println!(
                "{name},{theta},{:.0},{:.4},{:.3}",
                r.throughput, r.abort_rate, r.msgs_per_read
            );
            engine.shutdown();
            engine.cluster().shutdown();
        }
    }
}
