//! The completion-queue abstraction: issue verbs to many destinations,
//! poll/wait for all of them at once.
//!
//! A real FaRM coordinator posts the per-destination messages of a commit
//! phase back to back, then polls its NIC completion queue until every one
//! has completed — the phase costs `max(latency)` across destinations, not
//! `Σ latency`. This module reproduces that structure for the simulated
//! substrate:
//!
//! * [`CompletionSet::issue`] posts one verb to one destination: it computes
//!   the verb's **completion deadline** from the [`LatencyModel`] and runs
//!   its *work closure* — the destination-side processing of the message
//!   (lock acquisition, header snapshots, install stores) — right there, on
//!   the caller's thread, storing the result. Verbs therefore execute in
//!   issue order (so lock-acquisition order stays deterministic), and a
//!   closure may borrow anything the caller can, mutably included: it is
//!   done before `issue` returns.
//! * [`CompletionSet::complete`] collects the set: it waits **once**, until
//!   the latest completion deadline, and returns the per-destination
//!   results **in issue order** — including results of destinations that
//!   failed, so a coordinator can always account for every lock its fan-out
//!   acquired before it unwinds.
//!
//! Every issued verb executes: there is no early-out on the first error,
//! mirroring the fact that a coordinator cannot recall messages already on
//! the wire — it must collect (or time out) every completion before it can
//! release locks safely.

use std::time::Instant;

use crate::{LatencyModel, NetStats, NodeId, Verb};

/// The one way a [`CompletionSet`] dispatches. Vestigial: kept, with the
/// `mode` parameter of `complete` / `complete_deferred`, only because the
/// frozen `benchmark/` names it; both go in the next benchmark-correcting PR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// Work runs inline at issue, in issue order; one wait at the latest
    /// deadline.
    #[default]
    Concurrent,
}

/// The result of one completed verb.
#[derive(Debug)]
pub struct Completion<R> {
    /// The destination the verb was issued to.
    pub dest: NodeId,
    /// The value produced by the verb's work closure.
    pub value: R,
}

/// A set of in-flight verbs awaiting completion. See the module docs.
pub struct CompletionSet<R> {
    model: LatencyModel,
    /// The clock read shared by every latency-bearing verb in the set: a
    /// coordinator posts a phase's messages back to back, so one issue
    /// timestamp serves them all — K issues cost one `Instant::now`, not K.
    issued_at: Option<Instant>,
    /// The latest completion deadline so far. `None` while every verb has
    /// no injected latency (local bypass, or a zero latency model) — such
    /// verbs complete immediately, and skipping the clock read keeps the
    /// default zero-latency configuration free of per-verb `Instant::now`
    /// calls on the hot path.
    deadline: Option<Instant>,
    /// The issued verbs' results, in issue order.
    done: Vec<Completion<R>>,
}

impl<R> CompletionSet<R> {
    /// Creates an empty set paying latency per `model`.
    pub fn new(model: LatencyModel) -> Self {
        CompletionSet {
            model,
            issued_at: None,
            deadline: None,
            done: Vec::new(),
        }
    }

    /// Issues `verb` to `dest`: the completion deadline is the set's issue
    /// time plus the model's latency for the verb, and `work` — the
    /// destination-side processing — runs now, its result reported when the
    /// set completes.
    pub fn issue(&mut self, dest: NodeId, verb: Verb, work: impl FnOnce() -> R) {
        let latency_ns = self.model.verb_ns(verb);
        if latency_ns > 0 {
            let issued_at = *self.issued_at.get_or_insert_with(Instant::now);
            let deadline = issued_at + std::time::Duration::from_nanos(latency_ns);
            self.deadline = self.deadline.max(Some(deadline));
        }
        self.issue_local(dest, work);
    }

    /// Issues a **local-bypass** operation: the "destination" is the caller's
    /// own machine, so no wire latency applies — the work still rides the
    /// set so phase logic stays uniform and results stay in issue order.
    pub fn issue_local(&mut self, dest: NodeId, work: impl FnOnce() -> R) {
        self.done.push(Completion {
            dest,
            value: work(),
        });
    }

    /// Number of verbs currently in flight.
    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// Whether no verb is in flight.
    pub fn is_empty(&self) -> bool {
        self.done.is_empty()
    }

    /// Completes the set: waits until the latest completion deadline,
    /// reporting the in-flight high-water mark to `stats`. Results are
    /// returned in issue order, one per issued verb — failures do not
    /// short-circuit anything (encode them in `R`).
    ///
    /// Callers that interleave their own waiting with the flight window
    /// (e.g. a commit pipeline overlapping a clock uncertainty wait with
    /// replication) should do that waiting **before** calling `complete`:
    /// the final deadline wait only covers whatever flight time remains.
    pub fn complete(self, mode: DispatchMode, stats: Option<&NetStats>) -> Vec<Completion<R>> {
        let model = self.model;
        let (out, deadline) = self.complete_deferred(mode, stats);
        if let Some(deadline) = deadline {
            model.wait_until(deadline);
        }
        out
    }

    /// Completes the set **without paying the final deadline wait**: the
    /// results (every closure already ran, at issue) and the latest
    /// completion deadline are returned to the caller, who owns the wait.
    /// This is the primitive behind per-thread commit pipelining: one thread
    /// issues the phases of several transactions and multiplexes their
    /// deadlines, sleeping only until the earliest one instead of blocking
    /// inside each set.
    pub fn complete_deferred(
        self,
        _mode: DispatchMode,
        stats: Option<&NetStats>,
    ) -> (Vec<Completion<R>>, Option<Instant>) {
        if let Some(stats) = stats {
            stats.note_inflight(self.done.len() as u64);
        }
        (self.done, self.deadline)
    }
}

impl<R> std::fmt::Debug for CompletionSet<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionSet")
            .field("pending", &self.done.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    fn model(us: u64) -> LatencyModel {
        LatencyModel {
            rpc_ns: us * 1_000,
            rdma_read_ns: us * 1_000,
            rdma_write_ns: us * 1_000,
            ..Default::default()
        }
    }

    #[test]
    fn results_come_back_in_issue_order() {
        let mut set: CompletionSet<u32> = CompletionSet::new(LatencyModel::zero());
        for i in 0..8u32 {
            set.issue(NodeId(i), Verb::Rpc, move || i * 10);
        }
        let out = set.complete(DispatchMode::Concurrent, None);
        let values: Vec<u32> = out.iter().map(|c| c.value).collect();
        assert_eq!(values, (0..8).map(|i| i * 10).collect::<Vec<_>>());
        let dests: Vec<NodeId> = out.iter().map(|c| c.dest).collect();
        assert_eq!(dests, (0..8).map(NodeId).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_pays_max_not_sum() {
        // Four 2 ms verbs cost one latency, not four: the set's deadline is
        // less than two latencies after the first issue. Read off the
        // deadline, not the wall clock, so a sleep that overshoots on a busy
        // host cannot fail it.
        let latency = Duration::from_millis(2);
        let issue_four = || {
            let mut set: CompletionSet<()> = CompletionSet::new(model(2_000));
            for i in 0..4 {
                set.issue(NodeId(i), Verb::Rpc, || ());
            }
            set
        };
        let t = Instant::now();
        let (_, deadline) = issue_four().complete_deferred(DispatchMode::Concurrent, None);
        let deadline = deadline.expect("latency-bearing verbs have a deadline");
        assert!(deadline >= t + latency, "deadline before one latency");
        assert!(
            deadline < t + 2 * latency,
            "paid more than one latency for four verbs: {:?}",
            deadline - t
        );
        // `complete` does pay the wait.
        let t = Instant::now();
        issue_four().complete(DispatchMode::Concurrent, None);
        let elapsed = t.elapsed();
        assert!(elapsed >= latency, "skipped the deadline wait: {elapsed:?}");
    }

    #[test]
    fn failures_do_not_short_circuit_the_drain() {
        // Every closure runs even when an earlier one "fails" — every
        // issued verb executes, so the caller can unwind safely.
        let ran = AtomicU64::new(0);
        let mut set: CompletionSet<Result<u32, &'static str>> =
            CompletionSet::new(LatencyModel::zero());
        for i in 0..6u32 {
            let ran = &ran;
            set.issue(NodeId(i), Verb::Rpc, move || {
                ran.fetch_add(1, Ordering::SeqCst);
                if i == 2 {
                    Err("conflict")
                } else {
                    Ok(i)
                }
            });
        }
        let out = set.complete(DispatchMode::Concurrent, None);
        assert_eq!(ran.load(Ordering::SeqCst), 6);
        assert_eq!(out.iter().filter(|c| c.value.is_err()).count(), 1);
        assert_eq!(out.iter().filter(|c| c.value.is_ok()).count(), 5);
    }

    #[test]
    fn reports_inflight_high_water_mark() {
        let stats = NetStats::default();
        let mut set: CompletionSet<()> = CompletionSet::new(LatencyModel::zero());
        for i in 0..5 {
            set.issue(NodeId(i), Verb::RdmaWrite, || ());
        }
        set.complete(DispatchMode::Concurrent, Some(&stats));
        assert_eq!(stats.max_inflight(), 5);
        // A smaller later set does not lower the mark.
        let mut set: CompletionSet<()> = CompletionSet::new(LatencyModel::zero());
        set.issue_local(NodeId(0), || ());
        set.complete(DispatchMode::Concurrent, Some(&stats));
        assert_eq!(stats.max_inflight(), 5);
    }

    #[test]
    fn local_bypass_has_no_latency() {
        let m = model(500);
        let mut set: CompletionSet<u8> = CompletionSet::new(m);
        set.issue_local(NodeId(0), || 1);
        set.issue_local(NodeId(0), || 2);
        let t = Instant::now();
        let out = set.complete(DispatchMode::Concurrent, None);
        assert!(t.elapsed() < Duration::from_micros(400));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn complete_deferred_runs_work_but_leaves_the_wait_to_the_caller() {
        let m = model(300);
        let mut set: CompletionSet<u32> = CompletionSet::new(m);
        for i in 0..3u32 {
            set.issue(NodeId(i), Verb::RdmaWrite, move || i + 1);
        }
        let t = Instant::now();
        let (out, deadline) = set.complete_deferred(DispatchMode::Concurrent, None);
        // The work ran (results present) but the ~300 µs flight was not paid.
        assert!(t.elapsed() < Duration::from_micros(200));
        assert_eq!(out.iter().map(|c| c.value).sum::<u32>(), 6);
        let deadline = deadline.expect("non-zero latency yields a deadline");
        m.wait_until(deadline);
        assert!(t.elapsed() >= Duration::from_micros(290));
    }

    #[test]
    fn work_runs_at_issue_in_issue_order() {
        // The destination-side work is done by the time `issue` returns, so
        // a closure may even borrow the caller's state mutably.
        let mut log = Vec::new();
        let mut set: CompletionSet<usize> = CompletionSet::new(model(300));
        for i in 0..3 {
            set.issue(NodeId(i), Verb::Rpc, || {
                log.push(i);
                log.len()
            });
            assert_eq!(log.len(), i as usize + 1, "verb {i} ran at issue");
        }
        set.issue_local(NodeId(9), || {
            log.push(9);
            log.len()
        });
        assert_eq!(log, [0, 1, 2, 9]);
        let (out, deadline) = set.complete_deferred(DispatchMode::Concurrent, None);
        assert!(deadline.is_some());
        let values: Vec<usize> = out.iter().map(|c| c.value).collect();
        assert_eq!(values, [1, 2, 3, 4]);
    }

    #[test]
    fn closures_may_borrow_from_the_caller() {
        // The whole point of the scoped lifetime: verb work reads the
        // caller's stack state without Arc ceremony.
        let payload = vec![1u8, 2, 3];
        let mut set: CompletionSet<usize> = CompletionSet::new(LatencyModel::zero());
        let p = &payload;
        set.issue(NodeId(1), Verb::RdmaRead, move || p.len());
        let out = set.complete(DispatchMode::Concurrent, None);
        assert_eq!(out[0].value, 3);
        assert_eq!(payload.len(), 3);
    }
}
