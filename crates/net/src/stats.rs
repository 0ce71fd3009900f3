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

impl Verb {
    /// Number of verbs (`Rpc` is the last); `verb as usize` indexes the
    /// per-verb arrays.
    const COUNT: usize = Verb::Rpc as usize + 1;
}

/// Protocol phases whose wall-clock cost the engine reports per message
/// burst. The first four mirror the commit driver's state machine,
/// `InstallPrimary` times one destination's COMMIT-PRIMARY install, and the
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
    /// COMMIT-PRIMARY installs (one destination, applied when the message
    /// is posted).
    InstallPrimary,
    /// The execution-phase `read_many` fan-out (absorbs what is left of a
    /// strict transaction's read-timestamp wait when it is the first read).
    ReadMany,
}

impl PhaseLabel {
    /// Number of phases (`ReadMany` is the last); `phase as usize` indexes
    /// the per-phase arrays.
    const COUNT: usize = PhaseLabel::ReadMany as usize + 1;
}

/// Wall-clock buckets per phase: log₂-spaced nanosecond buckets (bucket `b`
/// holds samples in `[2^(b-1), 2^b)`; bucket 0 holds 0–1 ns), enough to span
/// sub-microsecond local bypasses to multi-second stalls.
const BUCKETS: usize = 40;

/// Relaxed loads of every counter in `counters`.
fn load<const N: usize>(counters: &[AtomicU64; N]) -> [u64; N] {
    std::array::from_fn(|i| counters[i].load(Ordering::Relaxed))
}

/// `f` applied element by element to `a` and `b`.
fn zip<const N: usize>(a: &[u64; N], b: &[u64; N], f: impl Fn(u64, u64) -> u64) -> [u64; N] {
    std::array::from_fn(|i| f(a[i], b[i]))
}

/// A lock-free per-phase histogram of wall-clock nanoseconds.
///
/// Recording is two relaxed `fetch_add`s (the sample's bucket and the
/// phase's count); quantiles are approximate (bucket resolution is a factor
/// of two).
#[derive(Debug)]
pub struct PhaseHistogram {
    buckets: [[AtomicU64; BUCKETS]; PhaseLabel::COUNT],
    count: [AtomicU64; PhaseLabel::COUNT],
}

impl Default for PhaseHistogram {
    fn default() -> Self {
        PhaseHistogram {
            buckets: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            count: Default::default(),
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
        let p = phase as usize;
        self.buckets[p][bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count[p].fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a point-in-time copy (relaxed loads; for reporting).
    pub fn snapshot(&self) -> PhaseHistogramSnapshot {
        PhaseHistogramSnapshot {
            buckets: std::array::from_fn(|p| load(&self.buckets[p])),
            count: load(&self.count),
        }
    }
}

/// A point-in-time copy of a [`PhaseHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseHistogramSnapshot {
    buckets: [[u64; BUCKETS]; PhaseLabel::COUNT],
    count: [u64; PhaseLabel::COUNT],
}

impl Default for PhaseHistogramSnapshot {
    fn default() -> Self {
        PhaseHistogramSnapshot {
            buckets: [[0; BUCKETS]; PhaseLabel::COUNT],
            count: [0; PhaseLabel::COUNT],
        }
    }
}

impl PhaseHistogramSnapshot {
    /// Number of recorded observations for `phase`.
    pub fn count(&self, phase: PhaseLabel) -> u64 {
        self.count[phase as usize]
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`) in nanoseconds: the upper
    /// edge of the bucket holding the rank-`q` sample. Resolution is a
    /// factor of two; 0 when no samples were recorded.
    pub fn quantile_ns(&self, phase: PhaseLabel, q: f64) -> u64 {
        let p = phase as usize;
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

    /// Applies `f` counter by counter to `self` and `other`.
    fn zip(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        PhaseHistogramSnapshot {
            buckets: std::array::from_fn(|p| zip(&self.buckets[p], &other.buckets[p], &f)),
            count: zip(&self.count, &other.count, &f),
        }
    }

    /// The interval `self − earlier`, by the rule of
    /// [`NetStatsSnapshot::delta`].
    pub fn delta(&self, earlier: &PhaseHistogramSnapshot) -> PhaseHistogramSnapshot {
        self.zip(earlier, |a, b| a - b)
    }

    /// Element-wise sum, for aggregating per-node histograms.
    pub fn merged(&self, other: &PhaseHistogramSnapshot) -> PhaseHistogramSnapshot {
        self.zip(other, |a, b| a + b)
    }
}

/// Lock-free counters for one node (or for the whole cluster, depending on
/// where the instance is placed).
#[derive(Debug, Default)]
pub struct NetStats {
    counts: [AtomicU64; Verb::COUNT],
    ops: [AtomicU64; Verb::COUNT],
    bytes: [AtomicU64; Verb::COUNT],
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
        let i = verb as usize;
        self.counts[i].fetch_add(1, Ordering::Relaxed);
        self.ops[i].fetch_add(ops, Ordering::Relaxed);
        self.bytes[i].fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot of all counters (relaxed loads;
    /// intended for reporting, not for synchronization).
    pub fn snapshot(&self) -> NetStatsSnapshot {
        NetStatsSnapshot {
            counts: load(&self.counts),
            ops: load(&self.ops),
            bytes: load(&self.bytes),
        }
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
    counts: [u64; Verb::COUNT],
    ops: [u64; Verb::COUNT],
    bytes: [u64; Verb::COUNT],
}

impl NetStatsSnapshot {
    /// Number of messages of the given verb.
    pub fn count(&self, verb: Verb) -> u64 {
        self.counts[verb as usize]
    }

    /// Number of logical operations carried by messages of the given verb
    /// (equal to [`NetStatsSnapshot::count`] unless batching was used).
    pub fn ops(&self, verb: Verb) -> u64 {
        self.ops[verb as usize]
    }

    /// Total payload bytes of the given verb.
    pub fn bytes(&self, verb: Verb) -> u64 {
        self.bytes[verb as usize]
    }

    /// Total messages across all verbs.
    pub fn total_messages(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total logical operations across all verbs.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// Applies `f` counter by counter to `self` and `other`.
    fn zip(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        NetStatsSnapshot {
            counts: zip(&self.counts, &other.counts, &f),
            ops: zip(&self.ops, &other.ops, &f),
            bytes: zip(&self.bytes, &other.bytes, &f),
        }
    }

    /// The interval `self − earlier`, counter by counter.
    ///
    /// Every statistics counter — here, in [`PhaseHistogram`] and in
    /// `farm_core`'s `EngineStats` — only grows: nothing resets it, so an
    /// interval is two snapshots and this plain subtraction. A pair passed
    /// in the wrong order underflows, which a debug build reports as a
    /// panic.
    pub fn delta(&self, earlier: &NetStatsSnapshot) -> NetStatsSnapshot {
        self.zip(earlier, |a, b| a - b)
    }

    /// Element-wise sum, for aggregating per-node sinks into cluster totals.
    pub fn merged(&self, other: &NetStatsSnapshot) -> NetStatsSnapshot {
        self.zip(other, |a, b| a + b)
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
    fn inflight_high_water_mark() {
        let s = NetStats::default();
        s.note_inflight(3);
        s.note_inflight(9);
        s.note_inflight(5);
        assert_eq!(s.max_inflight(), 9);
    }

    #[test]
    fn phase_histogram_counts_and_quantiles() {
        let h = PhaseHistogram::default();
        for ns in [1_000u64, 2_000, 4_000, 1_000_000] {
            h.record(PhaseLabel::ReplicateBackups, ns);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(PhaseLabel::ReplicateBackups), 4);
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
        assert_eq!(d.quantile_ns(PhaseLabel::Lock, 1.0), 256);
        let m = a.merged(&b);
        assert_eq!(m.count(PhaseLabel::Lock), 3);
        assert_eq!(m.quantile_ns(PhaseLabel::Lock, 0.5), 128);
    }
}
