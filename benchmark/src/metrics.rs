//! The ledger: every metric the benchmark reports, declared once. The
//! end-to-end table and the names, units and directions of the per-layer
//! table are mirrored in `/BENCHMARK.json` (a test keeps them equal); the
//! layer, kind and "moves" prediction of each per-layer metric live only
//! here and in `ledger.json`, because `BENCHMARK.json` has no room for them.

use std::collections::BTreeMap;

use crate::ops::{Workload, WORKLOADS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}
use Better::{Higher, Lower};

/// A metric a user of the system would see; reported by every workload in
/// the untraced run. `bound` is the share of the parent's median by which it
/// may worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "commit_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        what: "Committed transactions per second of the workload's headline kind, median over the time slices of the window: tpcc = new-orders; ycsb_* = all transactions; kv_pipeline_dc = pipelined commits; recovery = client A's transfers before the kill (median over trials).",
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
        what: "Median latency of the headline operation, first attempt to commit, retries included: tpcc = new-order; ycsb_c = get; ycsb_a_dc = put; ycsb_scan_mv = 100-key scan; kv_pipeline_dc = submit to result; recovery = the outage, kill to the first 5 ms window at >= 90 % of client A's pre-kill rate (recover90, in us; median over trials; a trial that never gets there enters as the time it was watched for).",
    },
    EndToEnd {
        name: "op_tail_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
        what: "Tail latency of the headline operation: p90, or the highest percentile with at least ten samples beyond it where the sample is small (recovery, where the sample is the trials: about p85); taken per time slice, median over slices. p99 is reported per op type in the traced run.",
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.25,
        what: "Peak resident set of the benchmark process (VmHWM) at the end of the run.",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        what: "Cluster start plus data load, up to the point the workload could begin (warm-up excluded); set up several times per run, median.",
    },
];

/// How a per-layer number is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Median self time of spans the driver records around public calls.
    Span,
    /// Single-thread loop over a layer's public functions.
    Probe,
    /// Delta of the system's own counters over the traced window.
    Count,
    /// Measured by the driver in the untraced reference window of the
    /// traced run.
    Client,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Span => "span",
            Kind::Probe => "probe",
            Kind::Count => "count",
            Kind::Client => "client",
        }
    }
}
use Kind::{Client, Count, Probe, Span};

/// A metric of one layer; reported by every workload in the traced run
/// (0 where the layer does no work in that workload). No bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// Which end-to-end number this should move, on which workload: the
    /// prediction later issues check.
    pub moves: &'static str,
}

impl PerLayer {
    /// The crate or `core` module the metric belongs to; `client` for what
    /// the driver itself observes.
    pub fn layer(&self) -> &'static str {
        self.name
            .rsplit_once('.')
            .map_or("client", |(layer, _)| layer)
    }
}

const fn l(
    name: &'static str,
    unit: &'static str,
    better: Better,
    kind: Kind,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        kind,
        moves,
    }
}

const CLOCK_PROBE: &str =
    "op_p50_us and commit_per_s on ycsb_c; nothing on kv_pipeline_dc (non-strict)";
const CLOCK_COUNT: &str = "op_p50_us on ycsb_a_dc if the overlapped share drops below 1";
const MEM_READ: &str = "commit_per_s on ycsb_c; op_p50_us (scan) on ycsb_scan_mv";
const MEM_LOCK: &str = "commit_per_s on tpcc";
const MEM_OLDVER: &str = "update_p50_us on ycsb_scan_mv only";
const MEM_OLDVER_COUNT: &str = "rss_mb and op_tail_us on ycsb_scan_mv; zero elsewhere";
const NET_CPU: &str = "commit_per_s on tpcc and kv_pipeline_dc";
const NET_FLIGHTS: &str = "op_p50_us on ycsb_a_dc (flights); commit_per_s on tpcc (CPU)";
const INDEX: &str = "op_p50_us on ycsb_c and ycsb_scan_mv; little on kv_pipeline_dc (no index)";
const TX_ABORTS: &str = "failed_share on tpcc and ycsb_a_dc; op_p50_us on recovery";
const ACTIVE: &str = "commit_per_s on ycsb_c";
const COMMIT_SPAN: &str = "rw: op_p50_us on ycsb_a_dc, commit_per_s on tpcc; ro: ycsb_c";
const COMMIT_COUNT: &str =
    "phases sum to op_p50_us on ycsb_a_dc; batch sizes: commit_per_s on tpcc";
const RECOVERY_COUNT: &str = "op_p50_us on recovery";
const BACKLOG: &str = "commit_per_s on kv_pipeline_dc; failed_share and read_p99_us on ycsb_a_dc";
const GC: &str = "op_tail_us and rss_mb on ycsb_scan_mv";
const PIPELINE: &str = "commit_per_s on kv_pipeline_dc only";
const KERNEL: &str =
    "op_p50_us on recovery; a non-zero false_suspicions explains a throughput cliff anywhere";
const TPCC_SPANS: &str = "mix-weighted sum = client threads / workloads.tpcc_commit_per_s";
const TRACE: &str =
    "the ledger adds up when coverage >= 0.9; overhead bounds what tracing itself costs";
const CLIENT: &str =
    "what the contract's five end-to-end metrics cannot name per op type; measured untraced";

pub const PER_LAYER: [PerLayer; 92] = [
    // clock
    l("clock.get_ts_strict_ns", "ns", Lower, Probe, CLOCK_PROBE),
    l("clock.get_ts_nonstrict_ns", "ns", Lower, Probe, CLOCK_PROBE),
    l("clock.uncertainty_ns", "ns", Lower, Probe, CLOCK_PROBE),
    l(
        "clock.write_wait_ns_per_commit",
        "ns",
        Lower,
        Count,
        CLOCK_COUNT,
    ),
    l(
        "clock.write_wait_overlapped_share",
        "share",
        Higher,
        Count,
        CLOCK_COUNT,
    ),
    l("clock.syncs_per_s", "1/s", Higher, Count, CLOCK_COUNT),
    // memory
    l("memory.read_consistent_ns", "ns", Lower, Probe, MEM_READ),
    l(
        "memory.read_consistent_b16_ns",
        "ns",
        Lower,
        Probe,
        MEM_READ,
    ),
    l("memory.lock_batch_ns", "ns", Lower, Probe, MEM_LOCK),
    l("memory.lock_batch_b16_ns", "ns", Lower, Probe, MEM_LOCK),
    l("memory.alloc_free_ns", "ns", Lower, Probe, MEM_LOCK),
    l("memory.oldver_alloc_ns", "ns", Lower, Probe, MEM_OLDVER),
    l(
        "memory.oldver_allocs_per_commit",
        "count",
        Lower,
        Count,
        MEM_OLDVER_COUNT,
    ),
    l(
        "memory.oldver_reads_per_ktx",
        "count",
        Lower,
        Count,
        MEM_OLDVER_COUNT,
    ),
    l(
        "memory.oldver_bytes_at_end",
        "B",
        Lower,
        Count,
        MEM_OLDVER_COUNT,
    ),
    l(
        "memory.oldver_truncations",
        "count",
        Lower,
        Count,
        MEM_OLDVER_COUNT,
    ),
    // net
    l("net.completion_issue4_ns", "ns", Lower, Probe, NET_CPU),
    l("net.meter_record_ns", "ns", Lower, Probe, NET_CPU),
    l(
        "net.wait_overshoot_ns",
        "ns",
        Lower,
        Probe,
        "op_p50_us on ycsb_a_dc",
    ),
    l("net.msgs_per_commit", "count", Lower, Count, NET_FLIGHTS),
    l("net.bytes_per_commit", "B", Lower, Count, NET_FLIGHTS),
    l("net.ops_per_msg", "count", Higher, Count, NET_FLIGHTS),
    l("net.read_msgs_per_read", "count", Lower, Count, NET_FLIGHTS),
    l(
        "net.local_bypass_share",
        "share",
        Higher,
        Count,
        NET_FLIGHTS,
    ),
    // index
    l("index.btree_get_ns", "ns", Lower, Span, INDEX),
    l("index.btree_put_ns", "ns", Lower, Span, INDEX),
    l("index.btree_scan_ns", "ns", Lower, Span, INDEX),
    // core.tx
    l(
        "core.tx.begin_ns",
        "ns",
        Lower,
        Span,
        "commit_per_s on ycsb_c",
    ),
    l("core.tx.abort_exec_share", "share", Lower, Count, TX_ABORTS),
    l("core.tx.abort_lock_share", "share", Lower, Count, TX_ABORTS),
    l(
        "core.tx.abort_validate_share",
        "share",
        Lower,
        Count,
        TX_ABORTS,
    ),
    l("core.tx.read_batch_size", "count", Higher, Count, TX_ABORTS),
    l(
        "core.tx.read_lock_retries_exhausted",
        "count",
        Lower,
        Count,
        TX_ABORTS,
    ),
    l(
        "core.tx.retries_absorbed_per_trial",
        "count",
        Lower,
        Count,
        TX_ABORTS,
    ),
    // core.active
    l("core.active.register_ns", "ns", Lower, Probe, ACTIVE),
    l("core.active.oat_scan_ns", "ns", Lower, Probe, ACTIVE),
    // core.commit
    l("core.commit.ro_ns", "ns", Lower, Span, COMMIT_SPAN),
    l("core.commit.rw_ns", "ns", Lower, Span, COMMIT_SPAN),
    l(
        "core.commit.lock_batch_size",
        "count",
        Higher,
        Count,
        COMMIT_COUNT,
    ),
    l(
        "core.commit.validate_batch_size",
        "count",
        Higher,
        Count,
        COMMIT_COUNT,
    ),
    l(
        "core.commit.unwinds_per_kcommit",
        "count",
        Lower,
        Count,
        COMMIT_COUNT,
    ),
    l(
        "core.commit.truncate_standalone_per_kcommit",
        "count",
        Lower,
        Count,
        COMMIT_COUNT,
    ),
    l(
        "core.commit.phase_lock_p50_us",
        "us",
        Lower,
        Count,
        COMMIT_COUNT,
    ),
    l(
        "core.commit.phase_write_ts_p50_us",
        "us",
        Lower,
        Count,
        COMMIT_COUNT,
    ),
    l(
        "core.commit.phase_validate_p50_us",
        "us",
        Lower,
        Count,
        COMMIT_COUNT,
    ),
    l(
        "core.commit.phase_backup_p50_us",
        "us",
        Lower,
        Count,
        COMMIT_COUNT,
    ),
    l(
        "core.commit.orphans_forward_per_trial",
        "count",
        Lower,
        Count,
        RECOVERY_COUNT,
    ),
    l(
        "core.commit.orphans_back_per_trial",
        "count",
        Lower,
        Count,
        RECOVERY_COUNT,
    ),
    // core.backlog
    l(
        "core.backlog.drain_ns_per_install",
        "ns",
        Lower,
        Span,
        BACKLOG,
    ),
    l(
        "core.backlog.installs_bg_per_commit",
        "count",
        Lower,
        Count,
        BACKLOG,
    ),
    l(
        "core.backlog.install_helps_per_kcommit",
        "count",
        Lower,
        Count,
        BACKLOG,
    ),
    l(
        "core.backlog.pending_at_end",
        "count",
        Lower,
        Count,
        BACKLOG,
    ),
    // core.gc
    l("core.gc.collect_ns", "ns", Lower, Span, GC),
    // core.pipeline
    l("core.pipeline.submit_ns", "ns", Lower, Span, PIPELINE),
    l(
        "core.pipeline.serial_fraction",
        "share",
        Lower,
        Count,
        PIPELINE,
    ),
    l(
        "core.pipeline.cpu_us_per_commit",
        "us",
        Lower,
        Count,
        PIPELINE,
    ),
    l(
        "core.pipeline.wakeups_per_commit",
        "count",
        Lower,
        Count,
        PIPELINE,
    ),
    l(
        "core.pipeline.coalesced_per_wakeup",
        "count",
        Higher,
        Count,
        PIPELINE,
    ),
    // kernel
    l("kernel.control_round_ns", "ns", Lower, Probe, KERNEL),
    l("kernel.false_suspicions", "count", Lower, Count, KERNEL),
    l("kernel.kill_to_suspect_ms", "ms", Lower, Count, KERNEL),
    l("kernel.suspect_to_config_ms", "ms", Lower, Count, KERNEL),
    l("kernel.suspect_to_unblocked_ms", "ms", Lower, Count, KERNEL),
    l(
        "kernel.suspect_to_rereplicated_ms",
        "ms",
        Lower,
        Count,
        KERNEL,
    ),
    l("kernel.blackout_ms", "ms", Lower, Count, KERNEL),
    l(
        "kernel.backups_caught_up_per_trial",
        "count",
        Lower,
        Count,
        KERNEL,
    ),
    // workloads
    l("workloads.tpcc_neworder_ns", "ns", Lower, Span, TPCC_SPANS),
    l("workloads.tpcc_payment_ns", "ns", Lower, Span, TPCC_SPANS),
    l("workloads.tpcc_delivery_ns", "ns", Lower, Span, TPCC_SPANS),
    l(
        "workloads.tpcc_orderstatus_ns",
        "ns",
        Lower,
        Span,
        TPCC_SPANS,
    ),
    l(
        "workloads.tpcc_stocklevel_ns",
        "ns",
        Lower,
        Span,
        TPCC_SPANS,
    ),
    l(
        "workloads.tpcc_commit_per_s",
        "1/s",
        Higher,
        Count,
        TPCC_SPANS,
    ),
    // trace
    l("trace.coverage", "share", Higher, Span, TRACE),
    l("trace.overhead_share", "share", Lower, Span, TRACE),
    // What ISSUE 11 listed as end-to-end but the benchmark contract cannot
    // carry: an end-to-end metric there is reported by every workload, is
    // never 0 and has a relative bound, so per-op-type latencies, a share
    // that is 0 on ycsb_c and a count that must be 0 are tracked here.
    l("neworder_per_s", "1/s", Higher, Client, CLIENT),
    l("neworder_p50_us", "us", Lower, Client, CLIENT),
    l("neworder_p99_us", "us", Lower, Client, CLIENT),
    l("read_p50_us", "us", Lower, Client, CLIENT),
    l("read_p99_us", "us", Lower, Client, CLIENT),
    l("update_p50_us", "us", Lower, Client, CLIENT),
    l("update_p99_us", "us", Lower, Client, CLIENT),
    l("scan_p50_us", "us", Lower, Client, CLIENT),
    l("scan_p99_us", "us", Lower, Client, CLIENT),
    l("recover90_ms", "ms", Lower, Client, CLIENT),
    l("kill_to_first_commit_ms", "ms", Lower, Client, CLIENT),
    l(
        "unrecovered_trials",
        "count",
        Lower,
        Client,
        "trials whose client never got back to 90 % while watched; each enters op_p50_us/op_tail_us on recovery as the time it was watched for",
    ),
    l(
        "torn_trials",
        "count",
        Lower,
        Client,
        "recovery trials that ended with money created or destroyed (a seed bug, about 1 in 3 000); one per run is tolerated, more is a violation",
    ),
    l(
        "failed_share",
        "share",
        Lower,
        Client,
        "aborted attempts / attempts; the retries the client pays for",
    ),
    l(
        "attempts_per_op",
        "count",
        Lower,
        Client,
        "1 + retries per completed operation",
    ),
    l(
        "violations",
        "count",
        Lower,
        Client,
        "must be 0: the workload's correctness check",
    ),
    l(
        "trace_samples",
        "count",
        Higher,
        Client,
        "spans retained by the traced run (sample count behind the span medians)",
    ),
    l(
        "tail_percentile",
        "%",
        Higher,
        Client,
        "the percentile op_tail_us actually is on this workload (90 unless the sample is small)",
    ),
];

/// `run_seconds` of `/BENCHMARK.json`: ISSUE 11's 15 s window. The host's
/// slow spells last seconds (a third of a run's time slices 35 % down is
/// common), so the median over slices wants as long a window as the
/// acceptance driver's 136 runs leave room for: at ≈ 18 s a run they take
/// ≈ 41 min of its 57.
pub const RUN_SECONDS: u32 = 15;

fn quoted(s: &str) -> String {
    debug_assert!(!s.contains(['"', '\\', '\n']), "would need escaping: {s}");
    format!("\"{s}\"")
}

/// `/BENCHMARK.json`, generated so that it cannot drift from the tables
/// above (`farm-benchmark ledger --contract` prints it; a test compares).
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    let lines = |items: Vec<String>| items.join(",\n    ");
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        command.map(quoted).join(", "),
        lines(
            WORKLOADS
                .iter()
                .map(|w| format!("{{\"name\": {}, \"why\": {}}}", quoted(w.name()), quoted(w.why())))
                .collect()
        ),
        lines(
            END_TO_END
                .iter()
                .map(|m| format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    quoted(m.name),
                    quoted(m.unit),
                    quoted(m.better.name()),
                    m.bound
                ))
                .collect()
        ),
        lines(
            PER_LAYER
                .iter()
                .map(|m| format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    quoted(m.name),
                    quoted(m.unit),
                    quoted(m.better.name())
                ))
                .collect()
        ),
    )
}

/// `benchmark/ledger.json`: what ISSUE 11 wanted in `BENCHMARK.json` but the
/// contract's fixed key set has no room for — the host it was sized on, the
/// windows, the latency model, what each end-to-end metric means per
/// workload, and each per-layer metric's layer, kind and prediction.
pub fn ledger_json() -> String {
    let dc = farm_net::LatencyModel::datacenter();
    let lines = |items: Vec<String>| items.join(",\n    ");
    format!(
        "{{\n  \"sized_on\": {{\"nproc\": 2, \"client_threads\": \"min(2, nproc)\"}},\n  \
         \"seeds\": {{\"default\": 1, \"second\": 2}},\n  \
         \"windows\": {{\"run_seconds\": {RUN_SECONDS}, \"warmup_share_of_window\": \"2/15\", \
         \"throughput_slices\": 20, \"traced_run_split\": \"40 % untraced reference, 60 % traced\", \
         \"quick_seconds\": 1}},\n  \
         \"latency_model\": {{\"zero\": \"tpcc, ycsb_c, ycsb_scan_mv, recovery\", \
         \"datacenter\": {{\"workloads\": \"ycsb_a_dc, kv_pipeline_dc\", \"rdma_read_ns\": {}, \
         \"rdma_write_ns\": {}, \"rpc_ns\": {}, \"spin_threshold_ns\": {}}}}},\n  \
         \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        dc.rdma_read_ns,
        dc.rdma_write_ns,
        dc.rpc_ns,
        dc.spin_threshold_ns,
        lines(
            END_TO_END
                .iter()
                .map(|m| format!(
                    "{{\"name\": {}, \"bound\": {}, \"what\": {}}}",
                    quoted(m.name),
                    m.bound,
                    quoted(m.what)
                ))
                .collect()
        ),
        lines(
            PER_LAYER
                .iter()
                .map(|m| format!(
                    "{{\"name\": {}, \"layer\": {}, \"kind\": {}, \"moves\": {}}}",
                    quoted(m.name),
                    quoted(m.layer()),
                    quoted(m.kind.name()),
                    quoted(m.moves)
                ))
                .collect()
        ),
    )
}

/// One workload's result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that never succeeded (gave up, or a non-retryable error).
    pub failed: u64,
    /// What the workload's correctness check found wrong; must be empty.
    pub violations: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "undeclared metric {name}"
        );
        if value.is_finite() {
            self.values.insert(name, value);
        }
    }

    /// Records `value` when the measurement exists.
    pub fn set_some(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }

    pub fn violation(&mut self, what: String) {
        // A broken invariant usually breaks many times; keep the log bounded.
        if self.violations.len() < 32 {
            eprintln!("VIOLATION: {what}");
        }
        self.violations.push(what);
    }

    /// Takes over what the clients' own checks found.
    pub fn violations_of<'a>(&mut self, clients: impl IntoIterator<Item = &'a Vec<String>>) {
        for what in clients.into_iter().flatten() {
            self.violation(what.clone());
        }
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// `(name, unit, value)` of every metric of the mode, in declaration
    /// order. A per-layer metric a workload has no work for reads 0; a
    /// missing end-to-end metric is a bug in the benchmark.
    pub fn declared(&self, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
        if traced {
            PER_LAYER
                .iter()
                .map(|m| {
                    (
                        m.name,
                        m.unit,
                        self.values.get(m.name).copied().unwrap_or(0.0),
                    )
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let v = self.values.get(m.name).copied();
                    (
                        m.name,
                        m.unit,
                        v.unwrap_or_else(|| panic!("{} not measured", m.name)),
                    )
                })
                .collect()
        }
    }

    /// The one-line JSON object the benchmark contract asks for.
    pub fn contract_json(&self, traced: bool) -> String {
        let metrics: Vec<String> = self
            .declared(traced)
            .into_iter()
            .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable table of the same numbers.
    pub fn print_table(&self, workload: Workload, traced: bool) {
        println!(
            "## {} ({}): attempted {} failed {} violations {}",
            workload.name(),
            if traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed,
            self.violations.len()
        );
        for (name, unit, v) in self.declared(traced) {
            println!("{name:<44} {v:>16.4} {unit}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(ok_name(name), "bad name {name}");
            assert!(ok_unit(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn layers_come_from_the_names() {
        let by = |n: &str| PER_LAYER.iter().find(|m| m.name == n).unwrap().layer();
        assert_eq!(by("core.tx.begin_ns"), "core.tx");
        assert_eq!(by("clock.syncs_per_s"), "clock");
        assert_eq!(by("read_p50_us"), "client");
        // The 74 metrics of ISSUE 11's per-layer table, by layer.
        let count = |layer: &str| PER_LAYER.iter().filter(|m| m.layer() == layer).count();
        let issue = [
            ("clock", 6),
            ("memory", 10),
            ("net", 8),
            ("index", 3),
            ("core.tx", 7),
            ("core.active", 2),
            ("core.commit", 12),
            ("core.backlog", 4),
            ("core.gc", 1),
            ("core.pipeline", 5),
            ("kernel", 8),
            ("workloads", 6),
            ("trace", 2),
        ];
        for (layer, n) in issue {
            assert_eq!(count(layer), n, "{layer}");
        }
        assert_eq!(issue.iter().map(|(_, n)| n).sum::<usize>(), 74);
    }

    /// `/BENCHMARK.json` is what the acceptance driver reads and
    /// `ledger.json` what people read; both must say what this file says.
    /// Regenerate with `farm-benchmark ledger [--contract]`.
    #[test]
    fn benchmark_json_and_ledger_are_the_generated_ones() {
        let read = |rel: &str| {
            std::fs::read_to_string(format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"))).unwrap()
        };
        // `assert!`, not `assert_eq!`: a stale file should not print both
        // documents in full.
        assert!(
            read("../BENCHMARK.json") == benchmark_json(),
            "BENCHMARK.json is stale"
        );
        assert!(
            read("ledger.json") == ledger_json(),
            "benchmark/ledger.json is stale"
        );
    }

    #[test]
    fn generated_documents_are_valid_and_shaped_as_the_contract_says() {
        let doc = json::parse(&benchmark_json()).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let sizes = |key: &str| -> Vec<usize> {
            let items = doc.get(key).unwrap().as_array().unwrap();
            items.iter().map(|m| m.as_object().unwrap().len()).collect()
        };
        assert_eq!(sizes("workloads"), vec![2; WORKLOADS.len()]);
        assert_eq!(sizes("end_to_end"), vec![4; END_TO_END.len()]);
        assert_eq!(sizes("per_layer"), vec![3; PER_LAYER.len()]);
        assert!(benchmark_json().len() < 64 * 1024);
        assert!((8..=60).contains(&RUN_SECONDS));
        let ledger = json::parse(&ledger_json()).unwrap();
        assert_eq!(
            ledger.get("per_layer").unwrap().as_array().unwrap().len(),
            PER_LAYER.len()
        );
    }

    #[test]
    fn contract_json_carries_every_declared_metric() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        for m in &END_TO_END {
            o.set(m.name, 1.5);
        }
        o.set("clock.syncs_per_s", 2.25);
        o.set("trace.coverage", f64::NAN); // not finite: dropped, reads 0
        for traced in [false, true] {
            let doc = json::parse(&o.contract_json(traced)).unwrap();
            let keys: Vec<&str> = doc
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
            let metrics = doc.get("metrics").unwrap().as_object().unwrap();
            let want: Vec<&str> = if traced {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(got, want);
            for (_, m) in metrics {
                assert!(m.get("value").unwrap().as_f64().is_some());
                assert!(m.get("unit").unwrap().as_str().is_some());
            }
        }
        let traced = json::parse(&o.contract_json(true)).unwrap();
        let value = |n: &str| {
            traced
                .get("metrics")
                .unwrap()
                .get(n)
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
        };
        assert_eq!(value("clock.syncs_per_s"), Some(2.25));
        assert_eq!(value("trace.coverage"), Some(0.0));
        o.violation("x".into());
        assert!(o.contract_json(false).starts_with("{\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "rss_mb not measured")]
    fn a_missing_end_to_end_metric_is_a_bug() {
        let mut o = Outcome::default();
        o.set("commit_per_s", 1.0);
        o.set("op_p50_us", 1.0);
        o.set("op_tail_us", 1.0);
        o.contract_json(false);
    }
}
