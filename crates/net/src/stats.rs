//! Per-node network statistics: message counts, logical operations and bytes
//! by verb.
//!
//! Messages and operations are tracked separately because the commit
//! protocol batches per destination: a LOCK message carrying K writes for one
//! primary is **one** message (`count`) but **K** logical operations (`ops`).
//! The divergence of the two curves is exactly the batching win the paper's
//! coordinator gets from fanning out one message per machine rather than one
//! per object.

use std::sync::atomic::{AtomicU64, Ordering};

/// The kinds of network operations the protocol issues. The split mirrors
/// the cost discussion in Sections 3.2 and 4.2 of the paper: one-sided reads
/// and writes are served by the remote NIC; RPCs consume remote CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verb {
    /// One-sided RDMA read (object reads, read validation).
    RdmaRead,
    /// One-sided RDMA write (COMMIT-BACKUP, COMMIT-PRIMARY records, RPC
    /// transports in FaRM are also RDMA-write based, but we count those as
    /// `Rpc`).
    RdmaWrite,
    /// Hardware (NIC-level) acknowledgement awaited by the sender.
    HardwareAck,
    /// Two-sided message processed by the remote CPU (lock requests, lease
    /// renewals, clock synchronization, reconfiguration, truncation).
    Rpc,
}

const VERBS: [Verb; 4] = [
    Verb::RdmaRead,
    Verb::RdmaWrite,
    Verb::HardwareAck,
    Verb::Rpc,
];

fn verb_index(v: Verb) -> usize {
    match v {
        Verb::RdmaRead => 0,
        Verb::RdmaWrite => 1,
        Verb::HardwareAck => 2,
        Verb::Rpc => 3,
    }
}

/// Protocol phases whose wall-clock cost the engine reports per message
/// burst. The first four mirror the commit driver's state machine,
/// `InstallPrimary` times one destination's background install, and the
/// last covers the batched execution-phase read path. Keeping the label set
/// here (next to [`Verb`]) lets the fan-out vs serial cost of each phase be
/// observed from network statistics alone, without a profiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseLabel {
    /// Batched LOCK messages to the destination primaries.
    Lock,
    /// Write-timestamp acquisition (zero wall-clock when the uncertainty
    /// wait is deferred into [`PhaseLabel::ReplicateBackups`]).
    AcquireWriteTs,
    /// Batched read validation.
    Validate,
    /// COMMIT-BACKUP replication (absorbs the deferred uncertainty wait).
    ReplicateBackups,
    /// COMMIT-PRIMARY installs (one destination, drained or helped).
    InstallPrimary,
    /// The execution-phase `read_many` fan-out.
    ReadMany,
}

/// Every phase label, in recording order.
pub const PHASE_LABELS: [PhaseLabel; 6] = [
    PhaseLabel::Lock,
    PhaseLabel::AcquireWriteTs,
    PhaseLabel::Validate,
    PhaseLabel::ReplicateBackups,
    PhaseLabel::InstallPrimary,
    PhaseLabel::ReadMany,
];

const PHASES: usize = 6;

fn phase_index(p: PhaseLabel) -> usize {
    match p {
        PhaseLabel::Lock => 0,
        PhaseLabel::AcquireWriteTs => 1,
        PhaseLabel::Validate => 2,
        PhaseLabel::ReplicateBackups => 3,
        PhaseLabel::InstallPrimary => 4,
        PhaseLabel::ReadMany => 5,
    }
}

impl PhaseLabel {
    /// A short stable name for CSV/JSON reporting.
    pub fn name(self) -> &'static str {
        match self {
            PhaseLabel::Lock => "lock",
            PhaseLabel::AcquireWriteTs => "acquire_write_ts",
            PhaseLabel::Validate => "validate",
            PhaseLabel::ReplicateBackups => "replicate_backups",
            PhaseLabel::InstallPrimary => "install_primary",
            PhaseLabel::ReadMany => "read_many",
        }
    }
}

/// Wall-clock buckets per phase: log₂-spaced nanosecond buckets (bucket `b`
/// holds samples in `[2^(b-1), 2^b)`; bucket 0 holds 0–1 ns), enough to span
/// sub-microsecond local bypasses to multi-second stalls.
const BUCKETS: usize = 40;

/// A lock-free per-phase histogram of wall-clock nanoseconds.
///
/// Recording is two relaxed `fetch_add`s; quantiles are approximate (bucket
/// resolution is a factor of two) but the counts and total nanoseconds are
/// exact, so means are exact.
#[derive(Debug)]
pub struct PhaseHistogram {
    buckets: [[AtomicU64; BUCKETS]; PHASES],
    total_ns: [AtomicU64; PHASES],
    count: [AtomicU64; PHASES],
}

impl Default for PhaseHistogram {
    fn default() -> Self {
        PhaseHistogram {
            buckets: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            total_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            count: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

fn bucket_of(ns: u64) -> usize {
    (64 - ns.leading_zeros() as usize).min(BUCKETS - 1)
}

impl PhaseHistogram {
    /// Records one observation of `ns` wall-clock nanoseconds for `phase`.
    #[inline]
    pub fn record(&self, phase: PhaseLabel, ns: u64) {
        let p = phase_index(phase);
        self.buckets[p][bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.total_ns[p].fetch_add(ns, Ordering::Relaxed);
        self.count[p].fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a point-in-time copy (relaxed loads; for reporting).
    pub fn snapshot(&self) -> PhaseHistogramSnapshot {
        let mut snap = PhaseHistogramSnapshot::default();
        for p in 0..PHASES {
            for b in 0..BUCKETS {
                snap.buckets[p][b] = self.buckets[p][b].load(Ordering::Relaxed);
            }
            snap.total_ns[p] = self.total_ns[p].load(Ordering::Relaxed);
            snap.count[p] = self.count[p].load(Ordering::Relaxed);
        }
        snap
    }

    /// Resets all buckets (between benchmark intervals).
    pub fn reset(&self) {
        for p in 0..PHASES {
            for b in &self.buckets[p] {
                b.store(0, Ordering::Relaxed);
            }
            self.total_ns[p].store(0, Ordering::Relaxed);
            self.count[p].store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time copy of a [`PhaseHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseHistogramSnapshot {
    buckets: [[u64; BUCKETS]; PHASES],
    total_ns: [u64; PHASES],
    count: [u64; PHASES],
}

impl Default for PhaseHistogramSnapshot {
    fn default() -> Self {
        PhaseHistogramSnapshot {
            buckets: [[0; BUCKETS]; PHASES],
            total_ns: [0; PHASES],
            count: [0; PHASES],
        }
    }
}

impl PhaseHistogramSnapshot {
    /// Number of recorded observations for `phase`.
    pub fn count(&self, phase: PhaseLabel) -> u64 {
        self.count[phase_index(phase)]
    }

    /// Total recorded nanoseconds for `phase`.
    pub fn total_ns(&self, phase: PhaseLabel) -> u64 {
        self.total_ns[phase_index(phase)]
    }

    /// Exact mean wall-clock nanoseconds for `phase` (0.0 when idle).
    pub fn mean_ns(&self, phase: PhaseLabel) -> f64 {
        let p = phase_index(phase);
        if self.count[p] == 0 {
            0.0
        } else {
            self.total_ns[p] as f64 / self.count[p] as f64
        }
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`) in nanoseconds: the upper
    /// edge of the bucket holding the rank-`q` sample. Resolution is a
    /// factor of two; 0 when no samples were recorded.
    pub fn quantile_ns(&self, phase: PhaseLabel, q: f64) -> u64 {
        let p = phase_index(phase);
        let total = self.count[p];
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64 * q.clamp(0.0, 1.0)).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.buckets[p].iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if b == 0 { 1 } else { 1u64 << b };
            }
        }
        1u64 << (BUCKETS - 1)
    }

    /// Element-wise difference `self - earlier`, for per-interval reporting.
    pub fn delta(&self, earlier: &PhaseHistogramSnapshot) -> PhaseHistogramSnapshot {
        let mut out = PhaseHistogramSnapshot::default();
        for p in 0..PHASES {
            for b in 0..BUCKETS {
                out.buckets[p][b] = self.buckets[p][b].saturating_sub(earlier.buckets[p][b]);
            }
            out.total_ns[p] = self.total_ns[p].saturating_sub(earlier.total_ns[p]);
            out.count[p] = self.count[p].saturating_sub(earlier.count[p]);
        }
        out
    }

    /// Element-wise sum, for aggregating per-node histograms.
    pub fn merged(&self, other: &PhaseHistogramSnapshot) -> PhaseHistogramSnapshot {
        let mut out = PhaseHistogramSnapshot::default();
        for p in 0..PHASES {
            for b in 0..BUCKETS {
                out.buckets[p][b] = self.buckets[p][b] + other.buckets[p][b];
            }
            out.total_ns[p] = self.total_ns[p] + other.total_ns[p];
            out.count[p] = self.count[p] + other.count[p];
        }
        out
    }
}

/// Lock-free counters for one node (or for the whole cluster, depending on
/// where the instance is placed).
#[derive(Debug, Default)]
pub struct NetStats {
    counts: [AtomicU64; 4],
    ops: [AtomicU64; 4],
    bytes: [AtomicU64; 4],
    /// High-water mark of simultaneously in-flight verbs (reported by
    /// completion sets at drain time).
    max_inflight: AtomicU64,
    /// Per-phase wall-clock histogram fed by the engine's phase timers.
    phases: PhaseHistogram,
}

impl NetStats {
    /// Records one operation of kind `verb` carrying `bytes` payload bytes.
    #[inline]
    pub fn record(&self, verb: Verb, bytes: usize) {
        self.record_batch(verb, 1, bytes);
    }

    /// Records **one message** of kind `verb` carrying `ops` logical
    /// operations and `bytes` payload bytes in total. This is the batched
    /// form used by the commit driver: K writes destined to one primary are
    /// one message with `ops == K`.
    #[inline]
    pub fn record_batch(&self, verb: Verb, ops: u64, bytes: usize) {
        let i = verb_index(verb);
        self.counts[i].fetch_add(1, Ordering::Relaxed);
        self.ops[i].fetch_add(ops, Ordering::Relaxed);
        self.bytes[i].fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot of all counters (relaxed loads;
    /// intended for reporting, not for synchronization).
    pub fn snapshot(&self) -> NetStatsSnapshot {
        let mut snap = NetStatsSnapshot::default();
        for v in VERBS {
            let i = verb_index(v);
            snap.counts[i] = self.counts[i].load(Ordering::Relaxed);
            snap.ops[i] = self.ops[i].load(Ordering::Relaxed);
            snap.bytes[i] = self.bytes[i].load(Ordering::Relaxed);
        }
        snap
    }

    /// Resets all counters to zero (used between benchmark phases).
    pub fn reset(&self) {
        for i in 0..4 {
            self.counts[i].store(0, Ordering::Relaxed);
            self.ops[i].store(0, Ordering::Relaxed);
            self.bytes[i].store(0, Ordering::Relaxed);
        }
        self.max_inflight.store(0, Ordering::Relaxed);
        self.phases.reset();
    }

    /// Reports `n` verbs simultaneously in flight; keeps the high-water
    /// mark. Called by [`crate::CompletionSet`] when it drains.
    #[inline]
    pub fn note_inflight(&self, n: u64) {
        self.max_inflight.fetch_max(n, Ordering::Relaxed);
    }

    /// The largest number of simultaneously in-flight verbs observed.
    pub fn max_inflight(&self) -> u64 {
        self.max_inflight.load(Ordering::Relaxed)
    }

    /// The per-phase wall-clock histogram.
    pub fn phases(&self) -> &PhaseHistogram {
        &self.phases
    }
}

/// A point-in-time copy of [`NetStats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetStatsSnapshot {
    counts: [u64; 4],
    ops: [u64; 4],
    bytes: [u64; 4],
}

impl NetStatsSnapshot {
    /// Number of messages of the given verb.
    pub fn count(&self, verb: Verb) -> u64 {
        self.counts[verb_index(verb)]
    }

    /// Number of logical operations carried by messages of the given verb
    /// (equal to [`NetStatsSnapshot::count`] unless batching was used).
    pub fn ops(&self, verb: Verb) -> u64 {
        self.ops[verb_index(verb)]
    }

    /// Total payload bytes of the given verb.
    pub fn bytes(&self, verb: Verb) -> u64 {
        self.bytes[verb_index(verb)]
    }

    /// Total messages across all verbs.
    pub fn total_messages(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total logical operations across all verbs.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// Mean batch size of the given verb (operations per message; 1.0 when
    /// unbatched, 0.0 when idle).
    pub fn mean_batch(&self, verb: Verb) -> f64 {
        let i = verb_index(verb);
        if self.counts[i] == 0 {
            0.0
        } else {
            self.ops[i] as f64 / self.counts[i] as f64
        }
    }

    /// Element-wise difference `self - earlier`, for per-interval reporting.
    pub fn delta(&self, earlier: &NetStatsSnapshot) -> NetStatsSnapshot {
        let mut out = NetStatsSnapshot::default();
        for i in 0..4 {
            out.counts[i] = self.counts[i].saturating_sub(earlier.counts[i]);
            out.ops[i] = self.ops[i].saturating_sub(earlier.ops[i]);
            out.bytes[i] = self.bytes[i].saturating_sub(earlier.bytes[i]);
        }
        out
    }

    /// Element-wise sum, for aggregating per-node sinks into cluster totals.
    pub fn merged(&self, other: &NetStatsSnapshot) -> NetStatsSnapshot {
        let mut out = NetStatsSnapshot::default();
        for i in 0..4 {
            out.counts[i] = self.counts[i] + other.counts[i];
            out.ops[i] = self.ops[i] + other.ops[i];
            out.bytes[i] = self.bytes[i] + other.bytes[i];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let s = NetStats::default();
        s.record(Verb::Rpc, 100);
        s.record(Verb::Rpc, 50);
        s.record(Verb::RdmaRead, 64);
        let snap = s.snapshot();
        assert_eq!(snap.count(Verb::Rpc), 2);
        assert_eq!(snap.ops(Verb::Rpc), 2);
        assert_eq!(snap.bytes(Verb::Rpc), 150);
        assert_eq!(snap.count(Verb::RdmaRead), 1);
        assert_eq!(snap.total_messages(), 3);
        assert_eq!(snap.total_ops(), 3);
    }

    #[test]
    fn batched_records_diverge_messages_from_ops() {
        let s = NetStats::default();
        // One LOCK message carrying 8 writes.
        s.record_batch(Verb::Rpc, 8, 8 * 64);
        let snap = s.snapshot();
        assert_eq!(snap.count(Verb::Rpc), 1);
        assert_eq!(snap.ops(Verb::Rpc), 8);
        assert_eq!(snap.bytes(Verb::Rpc), 512);
        assert_eq!(snap.mean_batch(Verb::Rpc), 8.0);
        assert_eq!(snap.mean_batch(Verb::RdmaRead), 0.0);
    }

    #[test]
    fn delta_subtracts_earlier_snapshot() {
        let s = NetStats::default();
        s.record(Verb::RdmaWrite, 10);
        let a = s.snapshot();
        s.record_batch(Verb::RdmaWrite, 3, 20);
        s.record(Verb::HardwareAck, 0);
        let b = s.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.count(Verb::RdmaWrite), 1);
        assert_eq!(d.ops(Verb::RdmaWrite), 3);
        assert_eq!(d.bytes(Verb::RdmaWrite), 20);
        assert_eq!(d.count(Verb::HardwareAck), 1);
    }

    #[test]
    fn merged_sums_counters() {
        let s = NetStats::default();
        s.record_batch(Verb::Rpc, 4, 100);
        let a = s.snapshot();
        let m = a.merged(&a);
        assert_eq!(m.count(Verb::Rpc), 2);
        assert_eq!(m.ops(Verb::Rpc), 8);
        assert_eq!(m.bytes(Verb::Rpc), 200);
    }

    #[test]
    fn reset_zeroes_counters() {
        let s = NetStats::default();
        s.record_batch(Verb::Rpc, 5, 1);
        s.note_inflight(7);
        s.phases().record(PhaseLabel::Lock, 1_000);
        s.reset();
        assert_eq!(s.snapshot().total_messages(), 0);
        assert_eq!(s.snapshot().total_ops(), 0);
        assert_eq!(s.max_inflight(), 0);
        assert_eq!(s.phases().snapshot().count(PhaseLabel::Lock), 0);
    }

    #[test]
    fn inflight_high_water_mark() {
        let s = NetStats::default();
        s.note_inflight(3);
        s.note_inflight(9);
        s.note_inflight(5);
        assert_eq!(s.max_inflight(), 9);
    }

    #[test]
    fn phase_histogram_counts_means_and_quantiles() {
        let h = PhaseHistogram::default();
        for ns in [1_000u64, 2_000, 4_000, 1_000_000] {
            h.record(PhaseLabel::ReplicateBackups, ns);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(PhaseLabel::ReplicateBackups), 4);
        assert_eq!(snap.total_ns(PhaseLabel::ReplicateBackups), 1_007_000);
        assert!((snap.mean_ns(PhaseLabel::ReplicateBackups) - 251_750.0).abs() < 1.0);
        // The p50 bucket must bound 2 000 ns within a factor of two; the p99
        // bucket must bound the 1 ms outlier within a factor of two.
        let p50 = snap.quantile_ns(PhaseLabel::ReplicateBackups, 0.5);
        assert!((2_000..=4_096).contains(&p50), "p50 bucket {p50}");
        let p99 = snap.quantile_ns(PhaseLabel::ReplicateBackups, 0.99);
        assert!((1_000_000..=2_097_152).contains(&p99), "p99 bucket {p99}");
        // Untouched phases stay empty.
        assert_eq!(snap.count(PhaseLabel::Lock), 0);
        assert_eq!(snap.quantile_ns(PhaseLabel::Lock, 0.5), 0);
    }

    #[test]
    fn phase_histogram_delta_and_merge() {
        let h = PhaseHistogram::default();
        h.record(PhaseLabel::Lock, 100);
        let a = h.snapshot();
        h.record(PhaseLabel::Lock, 200);
        let b = h.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.count(PhaseLabel::Lock), 1);
        assert_eq!(d.total_ns(PhaseLabel::Lock), 200);
        let m = a.merged(&b);
        assert_eq!(m.count(PhaseLabel::Lock), 3);
        assert_eq!(m.total_ns(PhaseLabel::Lock), 400);
    }

    #[test]
    fn phase_labels_have_stable_names() {
        let names: std::collections::HashSet<&str> =
            PHASE_LABELS.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), PHASE_LABELS.len());
    }
}
