//! Figure 13: throughput vs latency of FaRMv2 neworder transactions,
//! generated by sweeping the offered concurrency. Also reports
//! the commit-protocol batching efficiency (messages per commit vs logical
//! operations per commit) now that the commit driver sends one message per
//! destination machine.

use farm_bench::{bench_duration, run_tpcc, small_tpcc, tpcc_setup};
use farm_core::{EngineConfig, TxOptions};

fn main() {
    let duration = bench_duration(1.5);
    println!(
        "system,threads,neworders_per_s,p50_us,p99_us,msgs_per_commit,ops_per_commit,lock_batch"
    );
    for threads in [1usize, 2, 4, 8, 12] {
        let (engine, db) = tpcc_setup(3, EngineConfig::default(), small_tpcc());
        let r = run_tpcc(&engine, &db, threads, duration, TxOptions::serializable());
        println!(
            "FaRMv2,{threads},{:.0},{:.0},{:.0},{:.1},{:.1},{:.2}",
            r.throughput,
            r.latency_p50_us,
            r.latency_p99_us,
            r.msgs_per_commit,
            r.ops_per_commit,
            r.lock_batch_size
        );
        engine.shutdown();
        engine.cluster().shutdown();
    }
}
