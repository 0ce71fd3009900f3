//! Running one workload from set-up to checked result.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::driver::PhaseResult;
use crate::metrics::Outcome;
use crate::ops::{Workload, YCSB_KEYS};
use crate::probes;
use crate::stats;
use crate::system;
use crate::trace::{self, Span};
use crate::workloads::{kv, pipeline, recovery, tpcc};

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub trace: bool,
}

/// A client retries an aborted operation at once, as a FaRM application
/// does. After a few tries it yields the CPU between attempts — on a host
/// with fewer cores than runnable threads the transaction holding the lock
/// may be waiting for this very core — and after [`RETRY_BUDGET`] it gives
/// up: the operation has failed.
const SPIN_ATTEMPTS: u32 = 8;
const RETRY_BUDGET: Duration = Duration::from_secs(1);

/// Whether an operation begun at `started`, aborted `attempts` times so far,
/// gets another attempt.
pub fn keep_trying(attempts: u32, started: Instant) -> bool {
    if attempts < SPIN_ATTEMPTS {
        return true;
    }
    std::thread::yield_now();
    started.elapsed() < RETRY_BUDGET
}

/// An untraced run sets the workload up at least this many times and
/// reports the median as `setup_s`; the last one is measured on. Set-ups of
/// a few milliseconds are repeated more often, since their median has to
/// hold to 25 % between sets of runs.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;

/// Where a traced run leaves its spans: `benchmark/out/` of the tree the
/// binary was built in, whatever the working directory.
pub fn trace_path(workload: Workload) -> PathBuf {
    PathBuf::from(format!(
        "{}/out/trace-{}.jsonl",
        env!("CARGO_MANIFEST_DIR"),
        workload.name()
    ))
}

pub fn write_trace(workload: Workload, spans: &[Vec<Span>]) {
    let path = trace_path(workload);
    match trace::write_jsonl(&path, spans) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        // The numbers stand without the file; say so and go on.
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Which per-layer metric the median self time of a span name feeds.
const SPAN_METRICS: [(&str, &str); 12] = [
    ("begin", "core.tx.begin_ns"),
    ("index.get", "index.btree_get_ns"),
    ("index.put", "index.btree_put_ns"),
    ("index.scan", "index.btree_scan_ns"),
    ("commit.ro", "core.commit.ro_ns"),
    ("commit.rw", "core.commit.rw_ns"),
    ("pipeline.submit", "core.pipeline.submit_ns"),
    ("tpcc.neworder", "workloads.tpcc_neworder_ns"),
    ("tpcc.payment", "workloads.tpcc_payment_ns"),
    ("tpcc.delivery", "workloads.tpcc_delivery_ns"),
    ("tpcc.orderstatus", "workloads.tpcc_orderstatus_ns"),
    ("tpcc.stocklevel", "workloads.tpcc_stocklevel_ns"),
];

/// Turns the measured phases of a threaded workload into metrics.
/// `rate_classes` are the op classes that count toward `commit_per_s`;
/// class 0 is the headline operation whose latency is reported.
pub fn report_phases(
    out: &mut Outcome,
    workload: Workload,
    reference: &PhaseResult,
    traced: Option<&PhaseResult>,
    rate_classes: &[usize],
    spans: &[Vec<Span>],
) {
    let rate = reference.rate(rate_classes);
    out.set("commit_per_s", rate);
    // The slices behind the median: a run the host disturbed shows here.
    let slices: Vec<String> = reference
        .slice_rates(rate_classes)
        .iter()
        .map(|r| format!("{r:.0}"))
        .collect();
    eprintln!("commits/s by time slice: {}", slices.join(" "));
    out.set_some("op_p50_us", reference.p50_us(0));
    if let Some((tail_us, percentile)) = reference.headline_tail_us() {
        out.set("op_tail_us", tail_us);
        out.set("tail_percentile", percentile);
    }
    let mut all = reference.stats().clone();
    out.set("failed_share", reference.failed_share());
    let done = (all.ops - all.failed).max(1);
    out.set("attempts_per_op", all.attempts as f64 / done as f64);
    if let Some(traced) = traced {
        all.ops += traced.stats().ops;
        all.failed += traced.stats().failed;
        if rate > 0.0 {
            out.set(
                "trace.overhead_share",
                1.0 - traced.rate(rate_classes) / rate,
            );
        }
        let summary = trace::summarize(spans);
        for (span, metric) in SPAN_METRICS {
            out.set_some(metric, summary.median_self_ns.get(span).copied());
        }
        out.set("trace.coverage", summary.coverage);
        out.set(
            "trace_samples",
            spans.iter().map(Vec::len).sum::<usize>() as f64,
        );
        write_trace(workload, spans);
    }
    out.attempted = all.ops;
    out.failed = all.failed;
}

/// Reports one op class's latency under ISSUE 11's names (traced runs).
pub fn report_latency(
    out: &mut Outcome,
    phase: &PhaseResult,
    class: usize,
    p50: &'static str,
    p99: &'static str,
) {
    out.set_some(p50, phase.p50_us(class));
    out.set_some(p99, phase.p99_us(class).map(|(us, _)| us));
}

/// Sets the workload up again, several times, after it has been measured,
/// and records the median set-up time (the first, measured-on set-up
/// included) as `setup_s`. Coming after the run keeps these throw-away
/// copies out of `rss_mb`.
fn time_setups<S>(out: &mut Outcome, first_s: f64, setup: impl Fn() -> S, teardown: impl Fn(&S)) {
    let mut times = vec![first_s];
    while times.len() < MIN_SETUPS
        || (times.len() < MAX_SETUPS && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let t = Instant::now();
        let sys = setup();
        times.push(t.elapsed().as_secs_f64());
        teardown(&sys);
    }
    out.set_some("setup_s", stats::median(&times));
}

/// Set-up, the measured run with its checks, peak memory, tear-down; then,
/// for an untraced run, the repeated set-ups.
fn measure<S>(
    out: &mut Outcome,
    traced: bool,
    setup: impl Fn() -> S,
    run: impl FnOnce(&S, &mut Outcome),
    teardown: impl Fn(&S),
) {
    let t = Instant::now();
    let sys = setup();
    let first_s = t.elapsed().as_secs_f64();
    run(&sys, out);
    out.set_some("rss_mb", system::rss_mb());
    teardown(&sys);
    drop(sys);
    if !traced {
        time_setups(out, first_s, setup, teardown);
    }
}

/// Runs one workload: set-up, warm-up, the measured window, the
/// correctness check; for a traced run also the layer probes and the span
/// file.
pub fn run_workload(workload: Workload, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let traced = args.trace;
    match workload {
        Workload::Tpcc => measure(
            &mut out,
            traced,
            tpcc::setup,
            |sys, out| tpcc::run(sys, args, epoch, out),
            |sys| system::stop(&sys.engine),
        ),
        Workload::YcsbC | Workload::YcsbADc | Workload::YcsbScanMv => measure(
            &mut out,
            traced,
            || kv::setup(workload, YCSB_KEYS),
            |sys, out| drop(kv::run(workload, sys, args, YCSB_KEYS, epoch, out)),
            |sys| system::stop(&sys.engine),
        ),
        Workload::KvPipelineDc => measure(
            &mut out,
            traced,
            pipeline::setup,
            |sys, out| pipeline::run(sys, args, epoch, out),
            |sys| system::stop(&sys.engine),
        ),
        // Every trial sets up a fresh cluster; the trials give `setup_s`.
        Workload::Recovery => {
            recovery::run(args, epoch, &mut out);
            out.set_some("rss_mb", system::rss_mb());
        }
    }
    if args.trace {
        probes::run(&mut out);
        out.set("violations", out.violations.len() as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use crate::ops::WORKLOADS;

    /// Every workload, both modes, for a fraction of a second: the checks
    /// pass and every declared metric of the mode is in the result.
    #[test]
    fn every_workload_reports_every_declared_metric() {
        for traced in [false, true] {
            for workload in WORKLOADS {
                let args = RunArgs {
                    seed: 3,
                    seconds: 0.3,
                    trace: traced,
                };
                let out = run_workload(workload, &args);
                assert!(out.correct(), "{}: {:?}", workload.name(), out.violations);
                assert!(out.attempted > 0, "{}", workload.name());
                let declared = out.declared(traced);
                let want = if traced {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                };
                assert_eq!(declared.len(), want);
                if !traced {
                    for (name, _, value) in declared {
                        assert!(value > 0.0, "{}: {name} = {value}", workload.name());
                    }
                } else {
                    for probe in [
                        "clock.get_ts_strict_ns",
                        "memory.lock_batch_ns",
                        "trace_samples",
                    ] {
                        assert!(out.values[probe] > 0.0, "{}: {probe}", workload.name());
                    }
                    assert!(trace_path(workload).exists());
                }
            }
        }
    }
}
