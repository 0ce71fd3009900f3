//! The commit driver: an explicit phase state machine executing the FaRMv2
//! commit protocol (Figure 3), with every phase batched per destination
//! machine and **fanned out concurrently** through the net crate's
//! completion-queue abstraction ([`CompletionSet`]).
//!
//! # The three-stage commit lifecycle
//!
//! Every commit (single- or multi-version, serializable or SI) is split
//! into:
//!
//! 1. **Critical path** — `Lock → AcquireWriteTs → Validate →
//!    ReplicateBackups`. The transaction is durably committed once every
//!    COMMIT-BACKUP is acked, so the driver finishes there and the caller
//!    gets its result: COMMIT-PRIMARY messages are *posted* (metered,
//!    fire-and-forget) but not waited for.
//! 2. **Install at issue** — COMMIT-PRIMARY's destination-side work runs
//!    when the message is posted, like every other verb's: each live
//!    primary applies its held locks in ascending address order and
//!    unlocks, before the driver seals. No flight is awaited for it, and a
//!    lock therefore only ever belongs to a commit that is still in flight.
//! 3. **Lazy truncation** — TRUNCATE is no longer a standalone message: once
//!    all of a coordinator's transactions at or below some write timestamp
//!    have installed, that `truncate_below` watermark piggybacks on the next
//!    outgoing LOCK / VALIDATE / COMMIT-BACKUP verb to each destination
//!    (with a timed flush for idle connections), and delivery *applies* the
//!    backup's redo-log records to its replica.
//!
//! # Resumable stepping
//!
//! Every phase is split into an *issue* half (meter the messages, run the
//! destination-side work closures, note the completion deadline) and a
//! *finish* half (act on the results). `CommitDriver::advance` runs
//! finish-issue pairs until it either completes or must wait for a deadline,
//! which it **returns instead of blocking on** — that is what lets a
//! [`CommitPipeline`](crate::CommitPipeline) keep several transactions in
//! their critical paths at once on one thread, multiplexing their verb
//! completions. The plain `CommitDriver::run` used by
//! [`Transaction::commit`](crate::Transaction::commit) is just
//! `advance`-then-wait in a loop.
//!
//! Phase order (serializable):
//! `Lock → AcquireWriteTs → Validate → ReplicateBackups`. The
//! write-timestamp **uncertainty wait is deferred**: `AcquireWriteTs` only
//! takes the interval's upper bound, and the wait runs while the
//! COMMIT-BACKUP writes are in flight (Figure 4) — the commit pays
//! `max(uncertainty, replication)` instead of their sum.
//!
//! Phase order (snapshot isolation): validation is skipped and the
//! write-timestamp acquisition itself rides the replication flight window:
//! `Lock → ReplicateBackups` (acquiring the write timestamp in flight).
//!
//! Every phase that talks to other machines sends **one metered message per
//! destination** (one row of the commit plan's destination table), and all
//! of a phase's messages are issued before any completion is awaited: the
//! phase costs the *maximum* destination latency, not the sum, and the
//! destination-side work (lock acquisition, old-version copies, validation
//! reads) runs inside the verbs' work closures, at issue. Any failure routes
//! through the single `unwind` step — every issued verb has executed by
//! then, so unwind sees the locks of *every* destination, releases them in
//! descending global address order, and rolls back allocations.
//!
//! # The configuration fence
//!
//! The plan records the cluster's configuration epoch before it resolves
//! routing. A reconfiguration can kill a primary that holds this commit's
//! locks, or promote a backup after it replayed the redo logs, so a commit
//! planned under one epoch is never decided under the next: once the LOCK
//! phase has run, and again when `Validate` and `ReplicateBackups` finish,
//! a moved epoch aborts it with a retryable `Reconfiguring`.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use farm_clock::TsMode;
use farm_memory::{Addr, LockOutcome, OldAddr, OldVersion, Region, SlotRef};
use farm_net::{CompletionSet, DispatchMode, NodeId, PhaseLabel, Verb};

use crate::active::ActiveToken;
use crate::engine::NodeEngine;
use crate::error::{AbortReason, TxError};
use crate::opts::{IsolationLevel, MvPolicy, TxOptions};
use crate::stats::EngineStats;
use crate::tx::CommitInfo;

use super::backlog::{LogEntry, RecordIntent};
use super::plan::{CommitPlan, Destination, IntentKind};
use super::unwind::unwind;

/// The phases of the commit state machine. Public so tests and tooling can
/// label per-phase observations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitPhase {
    /// Batched LOCK messages to every destination primary; in multi-version
    /// mode the primaries copy current versions into old-version memory.
    Lock,
    /// COMMIT-BACKUP: one RDMA write per backup destination, NIC-acked. The
    /// write-timestamp uncertainty wait (and, for SI, the acquisition
    /// itself) runs while these writes are in flight. The commit
    /// **completes** at the end of this phase, where COMMIT-PRIMARY is
    /// posted and applied; truncation is the backlog's job.
    ReplicateBackups,
    /// Acquire the write timestamp (serializable): only the upper bound is
    /// taken here; the uncertainty wait is deferred into
    /// [`CommitPhase::ReplicateBackups`].
    AcquireWriteTs,
    /// Read validation of the reads that were not written (serializable).
    Validate,
}

fn phase_label(phase: CommitPhase) -> PhaseLabel {
    match phase {
        CommitPhase::Lock => PhaseLabel::Lock,
        CommitPhase::ReplicateBackups => PhaseLabel::ReplicateBackups,
        CommitPhase::AcquireWriteTs => PhaseLabel::AcquireWriteTs,
        CommitPhase::Validate => PhaseLabel::Validate,
    }
}

/// One lock held by the driver, with the primary-side LOCK processing result
/// (old-version copy) attached.
pub(crate) struct HeldLock {
    /// Index of the owning group in the plan.
    pub group: usize,
    /// Index of the intent in the plan's intents (ascending by address).
    pub intent: usize,
    /// The locked slot (cached so install does not re-resolve).
    pub slot: SlotRef,
    /// Old version allocated at the primary while processing the LOCK batch
    /// (multi-version mode).
    pub old_addr: Option<OldAddr>,
    /// Whether history was truncated for this object (MV-TRUNCATE under
    /// memory pressure).
    pub truncated: bool,
}

/// A destination's first failure: the failing address and why.
type Failure = (Addr, AbortReason);

/// What `finish_phase` decides after acting on one phase's results.
enum Step {
    /// Move to the next phase.
    Next(CommitPhase),
    /// The commit is durable at this write timestamp (every COMMIT-BACKUP
    /// acked) and installed at every live primary.
    Finish(u64),
}

/// The stashed results of an issued-but-not-finished phase. Verb work runs
/// at issue, so each phase's per-destination results are already folded
/// into the one outcome its finish acts on: the failure with the smallest
/// address, whatever order the destinations were issued in.
enum Pending {
    Lock(Option<Failure>),
    AcquireWriteTs,
    Validate(Option<Addr>),
    Replicate,
}

/// What [`CommitDriver::advance`] hands back to its scheduler.
pub(crate) enum DriverStep {
    /// The current phase's verbs are in flight until `deadline`; call
    /// `advance` again once it has passed (the driver never blocks itself).
    Wait(Instant),
    /// The commit reached a terminal state; all bookkeeping (active-table
    /// withdrawal, statistics, unwind on the error path) is done.
    Finished(Result<CommitInfo, TxError>),
}

/// The commit driver; built by [`Transaction::commit`](crate::Transaction),
/// consumed by `CommitDriver::run` or stepped by a
/// [`CommitPipeline`](crate::CommitPipeline).
pub struct CommitDriver {
    engine: Arc<NodeEngine>,
    opts: TxOptions,
    read_ts: u64,
    read_set: HashMap<Addr, u64>,
    alloc_set: Vec<Addr>,
    plan: CommitPlan,
    phase: CommitPhase,
    locked: Vec<HeldLock>,
    write_ts: u64,
    /// Snapshot isolation: no VALIDATE, and the write timestamp is acquired
    /// inside the ReplicateBackups flight window.
    si: bool,
    /// Registration of this transaction in the engine's active table,
    /// withdrawn exactly once when the driver seals.
    active: ActiveToken,
    /// Deferred strict-write-timestamp wait target (serializable): the upper
    /// bound taken in `AcquireWriteTs`, waited out while COMMIT-BACKUP is in
    /// flight.
    deferred_wait_target: Option<u64>,
    /// Whether `write_ts` is reserved in the coordinator's truncation
    /// in-flight set (withdrawn on install completion or abort).
    trunc_registered: bool,
    /// Results of the phase currently in flight.
    pending: Option<Pending>,
    /// The `advance` clock read that issued the in-flight phase (phase
    /// histogram).
    phase_started: Option<Instant>,
    /// Terminal bookkeeping has run; disarms the abandoned-driver `Drop`.
    completed: bool,
}

/// A driver has no thread affinity (every phase is an issue/finish pair
/// against engine-shared state), and a
/// [`CommitPipeline`](crate::CommitPipeline) full of drivers relies on it:
/// it moves into whichever client thread owns it (the `benchmark/`
/// package's `Client: Send` does exactly that).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<CommitDriver>();
};

impl CommitDriver {
    /// Builds a driver over an already-built plan. The driver owns the
    /// transaction's active-table registration from here on.
    pub(crate) fn new(
        engine: Arc<NodeEngine>,
        opts: TxOptions,
        read_ts: u64,
        read_set: HashMap<Addr, u64>,
        alloc_set: Vec<Addr>,
        plan: CommitPlan,
        active: ActiveToken,
    ) -> CommitDriver {
        let si = opts.isolation == IsolationLevel::SnapshotIsolation;
        CommitDriver {
            engine,
            opts,
            read_ts,
            read_set,
            alloc_set,
            plan,
            phase: CommitPhase::Lock,
            locked: Vec::new(),
            write_ts: 0,
            si,
            active,
            deferred_wait_target: None,
            trunc_registered: false,
            pending: None,
            phase_started: None,
            completed: false,
        }
    }

    /// The phase the driver is currently in.
    pub fn phase(&self) -> CommitPhase {
        self.phase
    }

    /// Drives the state machine to completion, blocking on each phase's
    /// completion deadline. Each phase's wall-clock is recorded in the
    /// node's [`farm_net::PhaseHistogram`], abort or not. On error every
    /// acquired lock has been released and every allocation rolled back.
    pub(crate) fn run(mut self) -> Result<CommitInfo, TxError> {
        let model = self.engine.meter.latency_model();
        loop {
            match self.advance(Instant::now()) {
                DriverStep::Wait(deadline) => model.wait_until(deadline),
                DriverStep::Finished(result) => return result,
            }
        }
    }

    /// Makes all progress possible without blocking: finishes the phase
    /// whose deadline the caller waited out, then issues phases until one
    /// has a future completion deadline (returned as [`DriverStep::Wait`])
    /// or the commit reaches a terminal state.
    ///
    /// `now` is the caller's clock read, taken after the awaited deadline
    /// passed and before this call: it stamps both the finish of the
    /// awaited phase and the start of every phase this call issues, so the
    /// phase timer costs no clock read of its own. A flight never looks
    /// shorter than the model — its issue stamp is at or before the real
    /// issue, its finish stamp at or after the deadline — and a local phase
    /// that finishes within the same call records 0 (its CPU shows in the
    /// caller's own accounting).
    pub(crate) fn advance(&mut self, now: Instant) -> DriverStep {
        loop {
            if let Some(pending) = self.pending.take() {
                let result = self.finish_phase(pending);
                self.record_phase(now);
                match result {
                    Ok(Step::Next(next)) => self.phase = next,
                    Ok(Step::Finish(outcome)) => {
                        return DriverStep::Finished(self.seal(Ok(outcome)))
                    }
                    Err(e) => return DriverStep::Finished(self.seal(Err(e))),
                }
            }
            // Coordinator died before this transaction reached durability
            // (the last COMMIT-BACKUP ack): survivors cannot learn its
            // outcome, so it unwinds — locks release, allocations roll back.
            // This models the survivor-side unwind of an *undecided* orphan.
            // Every phase the driver can be in precedes durability; the step
            // that finds every ack also installs, so a decided transaction
            // leaves no lock behind.
            if !self.engine.is_alive() {
                EngineStats::bump(&self.engine.stats.orphans_rolled_back);
                let err = self.abort(AbortReason::CoordinatorDead);
                return DriverStep::Finished(self.seal(Err(err)));
            }
            self.phase_started = Some(now);
            match self.issue_phase() {
                Ok(Some(deadline)) => return DriverStep::Wait(deadline),
                Ok(None) => continue, // completes immediately; finish above
                Err(e) => {
                    self.record_phase(now);
                    return DriverStep::Finished(self.seal(Err(e)));
                }
            }
        }
    }

    /// Records the current phase's wall-clock, from its issue stamp to `now`.
    fn record_phase(&mut self, now: Instant) {
        let started = self
            .phase_started
            .take()
            .expect("issued phases are stamped");
        self.engine.meter.stats().phases().record(
            phase_label(self.phase),
            now.saturating_duration_since(started).as_nanos() as u64,
        );
    }

    /// Terminal bookkeeping, run exactly once: withdraw the active-table
    /// registration, tally the commit, and shape the caller-facing result.
    fn seal(&mut self, outcome: Result<u64, TxError>) -> Result<CommitInfo, TxError> {
        self.completed = true;
        self.engine.unregister_active(self.active);
        let write_ts = outcome?;
        EngineStats::bump(&self.engine.stats.commits_rw);
        Ok(CommitInfo {
            read_ts: self.read_ts,
            write_ts: Some(write_ts),
        })
    }

    /// Issues one phase: meters its messages, runs the destination-side work
    /// closures, stashes the results in `self.pending`, and returns the
    /// completion deadline (None when every verb completes immediately).
    fn issue_phase(&mut self) -> Result<Option<Instant>, TxError> {
        Ok(match self.phase {
            CommitPhase::Lock => self.issue_lock(),
            CommitPhase::AcquireWriteTs => self.issue_acquire_write_ts(),
            CommitPhase::Validate => self.issue_validate()?,
            CommitPhase::ReplicateBackups => self.issue_replicate_backups(),
        })
    }

    /// Acts on one issued phase's results and picks the next phase.
    fn finish_phase(&mut self, pending: Pending) -> Result<Step, TxError> {
        Ok(match pending {
            Pending::Lock(failure) => {
                if let Some((_, reason)) = failure {
                    return Err(self.abort(reason));
                }
                // After the lock outcome, so the unwind owns every lock the
                // fan-out took.
                self.fence()?;
                Step::Next(if self.si {
                    CommitPhase::ReplicateBackups
                } else {
                    CommitPhase::AcquireWriteTs
                })
            }
            Pending::AcquireWriteTs => Step::Next(CommitPhase::Validate),
            Pending::Validate(failure) => {
                self.fence()?;
                if let Some(addr) = failure {
                    return Err(self.abort(AbortReason::ValidationFailed(addr)));
                }
                Step::Next(CommitPhase::ReplicateBackups)
            }
            Pending::Replicate => {
                // Before anything becomes durable on the coordinator's say:
                // the redo records below go to the backups the plan routed
                // to, which are only right under the plan's epoch.
                self.fence()?;
                if let Some(target) = self.deferred_wait_target.take() {
                    // Residual deferred uncertainty wait — normally zero,
                    // the phase deadline already covered it (issue folded
                    // the estimate in). Completing it here, before the
                    // installs below, is what keeps writes unexposed until
                    // the timestamp is in the past: strictness is
                    // preserved.
                    let clock = Arc::clone(self.engine.handle().clock());
                    let waited = clock.complete_deferred_wait(target);
                    self.record_write_wait(waited, true);
                }
                // The transaction is durable: every COMMIT-BACKUP is acked.
                // Post and apply COMMIT-PRIMARY and report success; only
                // truncation (stage 3) is left to the background.
                self.early_ack_finish()
            }
        })
    }

    /// The configuration fence: aborts (retryably) when the cluster's
    /// configuration epoch has moved since the plan resolved its routing.
    /// A plan with no groups touches no region and needs no fence.
    fn fence(&mut self) -> Result<(), TxError> {
        if self.engine.cluster().view().config.epoch == self.plan.epoch {
            return Ok(());
        }
        match self.plan.groups.first().map(|g| g.region) {
            Some(region) => Err(self.abort(AbortReason::Reconfiguring(region))),
            None => Ok(()),
        }
    }

    // ------------------------------------------------------------------
    // LOCK
    // ------------------------------------------------------------------

    /// Sends one LOCK batch per destination primary — **all destinations at
    /// once**. Primary-side LOCK processing (batch lock acquisition,
    /// multi-version old-version copies) runs inside the per-destination
    /// verb closures, at issue, pushing the locks it takes straight into
    /// `self.locked`. The phase's outcome is the failure with the smallest
    /// global address, so the abort reason is deterministic whatever order
    /// the destinations ran in.
    fn issue_lock(&mut self) -> Option<Instant> {
        let engine: &NodeEngine = &self.engine;
        let stats = &engine.stats;
        let mv_policy = engine.config().mv_policy;
        let (plan, locked) = (&self.plan, &mut self.locked);
        let mut set: CompletionSet<Option<Failure>> =
            CompletionSet::new(engine.meter.latency_model());
        for dest in plan.dest_table().iter().filter(|d| d.lock_ops > 0) {
            // One two-sided LOCK message per destination.
            engine
                .meter
                .rpc_batch_deferred(dest.lock_ops, dest.lock_bytes);
            EngineStats::bump(&stats.lock_batches);
            EngineStats::add(&stats.lock_batch_objects, dest.lock_ops);
            piggyback(engine, dest.node);
            let work = || lock_at_destination(engine, plan, dest, mv_policy, locked);
            if dest.node == engine.id() {
                // The LOCK message is still metered above (it is a protocol
                // message either way), but a co-located primary processes it
                // without crossing the wire: no injected latency, matching
                // the local bypass every other phase applies.
                set.issue_local(dest.node, work);
            } else {
                set.issue(dest.node, Verb::Rpc, work);
            }
        }
        // Destinations ran in node order; sorting by intent index restores
        // the ascending global address order that install relies on and
        // unwind releases in reverse.
        locked.sort_unstable_by_key(|h| h.intent);
        let (outcomes, deadline) =
            set.complete_deferred(DispatchMode::Concurrent, Some(engine.meter.stats()));
        let failure = outcomes
            .into_iter()
            .filter_map(|c| c.value)
            .min_by_key(|&(addr, _)| addr);
        self.pending = Some(Pending::Lock(failure));
        deadline
    }

    // ------------------------------------------------------------------
    // Write timestamp
    // ------------------------------------------------------------------

    /// Snapshot-isolation acquisition, run while the COMMIT-BACKUP writes are
    /// in flight (`overlapped` says whether any actually are, for the overlap
    /// statistics): strict SI waits out the uncertainty, non-strict SI takes
    /// the upper bound without waiting.
    fn acquire_write_ts(&mut self, overlapped: bool) {
        let mode = if !self.opts.strict {
            TsMode::NonStrictUpper
        } else {
            TsMode::StrictWait
        };
        let (ts, waited) = self.engine.handle().clock().get_ts(mode);
        self.record_write_wait(waited, overlapped);
        self.write_ts = ts.as_nanos();
        self.register_trunc();
    }

    /// Serializable acquisition: take the interval's upper bound **without
    /// waiting** and remember it; the uncertainty wait happens in the
    /// ReplicateBackups phase, overlapping the COMMIT-BACKUP flight window
    /// (Figure 4). Writes are still only exposed (installed) after the wait
    /// completes, so strictness is preserved; skipping the wait would break
    /// it (the Section 7.3 counterexample).
    fn defer_write_ts(&mut self) {
        self.write_ts = self.engine.handle().clock().get_ts_deferred().as_nanos();
        self.deferred_wait_target = Some(self.write_ts);
        self.register_trunc();
    }

    /// Reserves the freshly acquired write timestamp in the coordinator's
    /// truncation in-flight set. Doing it at acquisition — before any backup
    /// record can exist — guarantees the `truncate_below` watermark never
    /// overtakes a transaction whose record is still being deposited.
    fn register_trunc(&mut self) {
        self.trunc_registered = true;
        self.engine
            .backlog()
            .trunc_begin(self.engine.id(), self.write_ts);
    }

    fn record_write_wait(&self, waited: u64, overlapped: bool) {
        if waited > 0 {
            EngineStats::bump(&self.engine.stats.write_waits);
            EngineStats::add(&self.engine.stats.write_wait_ns, waited);
            if overlapped {
                EngineStats::add(&self.engine.stats.write_wait_overlapped_ns, waited);
            }
        }
    }

    /// Local-only phase (serializable): take the write timestamp's
    /// upper bound now; the uncertainty is waited out while COMMIT-BACKUP
    /// flies. Completes immediately.
    fn issue_acquire_write_ts(&mut self) -> Option<Instant> {
        self.defer_write_ts();
        self.pending = Some(Pending::AcquireWriteTs);
        None
    }

    // ------------------------------------------------------------------
    // VALIDATE
    // ------------------------------------------------------------------

    /// Read validation with one-sided header reads, batched **per destination
    /// primary** exactly like the LOCK path — and fanned out to all
    /// destinations at once. Only reads that were not written need
    /// validating. The failure reported is the smallest failing address,
    /// whatever order the destinations were issued in.
    fn issue_validate(&mut self) -> Result<Option<Instant>, TxError> {
        // The unwritten reads with their primaries, sorted by (primary,
        // address): each primary's batch is one run, ascending by address
        // (deterministic first-failure reporting), carrying each address's
        // resolved region so the validation closure does not re-resolve it.
        let mut reads: Vec<Unvalidated> = Vec::new();
        for &addr in self.read_set.keys() {
            if self.plan.touches(addr) {
                continue;
            }
            let Ok((primary, region)) = self.engine.primary_region_of(addr) else {
                return Err(self.abort(AbortReason::ValidationFailed(addr)));
            };
            reads.push((primary, addr, region));
        }
        reads.sort_unstable_by_key(|&(primary, addr, _)| (primary, addr));
        let engine: &NodeEngine = &self.engine;
        let stats = &engine.stats;
        let read_ts = self.read_ts;
        let mut set: CompletionSet<Option<Addr>> = CompletionSet::new(engine.meter.latency_model());
        for batch in reads.chunk_by(|a, b| a.0 == b.0) {
            // One VALIDATE message per destination primary carrying all of
            // its header reads (16 bytes each); free when the coordinator is
            // that primary (local bypass).
            let primary = batch[0].0;
            EngineStats::bump(&stats.validate_batches);
            EngineStats::add(&stats.validate_batch_objects, batch.len() as u64);
            piggyback(engine, primary);
            let work = || validate_at_destination(batch, read_ts);
            if primary == engine.id() {
                EngineStats::add(&stats.read_local_bypass, batch.len() as u64);
                set.issue_local(primary, work);
            } else {
                engine
                    .meter
                    .read_batch_deferred(batch.len() as u64, 16 * batch.len());
                set.issue(primary, Verb::RdmaRead, work);
            }
        }
        let (completions, deadline) =
            set.complete_deferred(DispatchMode::Concurrent, Some(engine.meter.stats()));
        let failure = completions.into_iter().filter_map(|c| c.value).min();
        self.pending = Some(Pending::Validate(failure));
        Ok(deadline)
    }

    // ------------------------------------------------------------------
    // COMMIT-BACKUP
    // ------------------------------------------------------------------

    /// One RDMA write per **backup destination** carrying the transaction's
    /// entire payload for that machine, acknowledged by the NIC only. This
    /// phase also performs the pending write-timestamp work *while the
    /// writes are in flight*: the deferred serializable
    /// uncertainty wait, or the whole SI acquisition — the Figure 4 overlap.
    /// The phase then costs `max(replication, uncertainty)` instead of their
    /// sum.
    fn issue_replicate_backups(&mut self) -> Option<Instant> {
        let engine = Arc::clone(&self.engine);
        let mut set: CompletionSet<()> = CompletionSet::new(engine.meter.latency_model());
        for dest in self.plan.dest_table().iter().filter(|d| d.backup_ops > 0) {
            engine
                .meter
                .write_batch_deferred(dest.backup_ops, dest.backup_bytes);
            engine.meter.ack();
            EngineStats::bump(&engine.stats.backup_batches);
            piggyback(&engine, dest.node);
            if dest.node == engine.id() {
                set.issue_local(dest.node, || ());
            } else {
                set.issue(dest.node, Verb::RdmaWrite, || ());
            }
        }
        let mut wait_deadline: Option<Instant> = None;
        let overlapped = !set.is_empty();
        if self.si {
            // SI: the acquisition (and its wait, for strict SI) rides the
            // replication flight window.
            self.acquire_write_ts(overlapped);
        } else if let Some(&target) = self.deferred_wait_target.as_ref() {
            // Serializable: the deferred uncertainty wait is **folded into
            // the phase deadline** rather than spun out inline — a pipeline
            // thread stays free to advance its other flights, and the phase
            // still costs `max(replication, uncertainty)`. The residual
            // (normally zero: the deadline covers it) is completed when the
            // phase finishes, before any install can expose the write, so
            // strictness is preserved.
            let clock = engine.handle().clock();
            let remaining = clock
                .time_unchecked()
                .map(|i| target.saturating_sub(i.lower))
                .unwrap_or(0);
            if remaining > 0 {
                wait_deadline = Some(Instant::now() + std::time::Duration::from_nanos(remaining));
                self.record_write_wait(remaining, overlapped);
            }
        }
        let (_, flight_deadline) =
            set.complete_deferred(DispatchMode::Concurrent, Some(engine.meter.stats()));
        self.pending = Some(Pending::Replicate);
        match (flight_deadline, wait_deadline) {
            (Some(flight), Some(wait)) => Some(flight.max(wait)),
            (deadline, None) | (None, deadline) => deadline,
        }
    }

    /// Completes an early-acked commit: materialize the COMMIT-BACKUP
    /// records in the backup redo logs (they are durable now — every ack
    /// drained), initialize this transaction's allocations, and post the
    /// COMMIT-PRIMARY messages (metered, never awaited) with their
    /// destination-side work run at once, as every other verb's is: each
    /// live primary installs its held locks in ascending address order and
    /// unlocks. A dead primary's installs are skipped; the backup promoted
    /// in its place replays them from its redo log. The truncation
    /// reservation is withdrawn last, raising the watermark.
    fn early_ack_finish(&mut self) -> Step {
        let engine: &NodeEngine = &self.engine;
        let write_ts = self.write_ts;
        let multi_version = engine.config().mv_policy.is_some();
        let plan = &self.plan;
        for dest in plan.dest_table() {
            // Backup redo-log record: one entry per backup destination
            // holding that destination's intents, with the primary's slab
            // size classes (resolved by the plan) so the backup can mirror
            // the layout. The one copy per backup models the replicated
            // bytes.
            if dest.backup_ops > 0 {
                let mut intents = Vec::with_capacity(dest.backup_ops as usize);
                for &gi in plan.backup_groups(dest) {
                    intents.extend(plan.group_intents(gi).iter().map(|intent| RecordIntent {
                        addr: intent.addr,
                        free: intent.kind == IntentKind::Free,
                        data: intent.data.clone(),
                        slab_size: intent.slab_size,
                    }));
                }
                engine.backlog().deposit(
                    dest.node,
                    LogEntry {
                        coordinator: engine.id(),
                        write_ts,
                        intents,
                    },
                );
            }
            // COMMIT-PRIMARY is posted now (the message is on the wire,
            // hence metered) but never awaited.
            if dest.install_ops > 0 {
                engine
                    .meter
                    .write_batch_deferred(dest.install_ops, dest.install_bytes);
                EngineStats::bump(&engine.stats.primary_batches);
            }
        }
        // Allocations carry no lock: their fresh slots stay invisible until
        // initialized here.
        for (gi, group) in plan.groups.iter().enumerate() {
            for intent in plan.group_intents(gi) {
                if intent.kind != IntentKind::Alloc {
                    continue;
                }
                if let Ok(slot) = group.region_handle.slot(intent.addr) {
                    slot.initialize(write_ts, intent.data.clone());
                }
            }
        }
        for &addr in &plan.cancelled_allocs {
            if let Ok((_p, region)) = engine.primary_region_of(addr) {
                let _ = region.free(addr);
            }
        }
        // COMMIT-PRIMARY's destination-side work: `locked` is ascending by
        // global address, hence by group.
        let locked = &self.locked;
        for dest in plan.dest_table().iter().filter(|d| d.lock_ops > 0) {
            let started = Instant::now();
            if engine.cluster().node(dest.node).is_alive() {
                for &gi in plan.primary_groups(dest) {
                    let start = locked.partition_point(|h| h.group < gi);
                    let end = locked.partition_point(|h| h.group <= gi);
                    for held in &locked[start..end] {
                        install_held_lock(engine, plan, held, write_ts, multi_version);
                    }
                }
            }
            EngineStats::bump(&engine.stats.installs_background);
            engine.meter.stats().phases().record(
                PhaseLabel::InstallPrimary,
                started.elapsed().as_nanos() as u64,
            );
        }
        self.locked.clear();
        self.trunc_registered = false;
        engine.backlog().trunc_complete(engine.id(), write_ts);
        Step::Finish(write_ts)
    }

    // ------------------------------------------------------------------
    // Abort
    // ------------------------------------------------------------------

    /// Routes a phase failure through the central unwind step. By the time
    /// this runs, every verb of the failing phase has executed (verb work
    /// runs at issue, and every issued verb runs), so `self.locked` holds the locks of *all* destinations, in ascending
    /// global address order. A write timestamp reserved for truncation is
    /// withdrawn — which can only *unblock* earlier transactions'
    /// watermarks, never lose them.
    fn abort(&mut self, reason: AbortReason) -> TxError {
        if self.trunc_registered {
            self.trunc_registered = false;
            self.engine
                .backlog()
                .trunc_complete(self.engine.id(), self.write_ts);
        }
        unwind(
            &self.engine,
            &mut self.locked,
            &self.alloc_set,
            self.phase,
            reason,
        )
    }
}

impl Drop for CommitDriver {
    fn drop(&mut self) {
        if self.completed {
            return;
        }
        self.completed = true;
        // Abandoned mid-flight (e.g. a panic unwinding through a pipeline's
        // pump). Every phase a driver can be parked in precedes durability,
        // so undoing is always safe: a LOCK's destination-side work ran at
        // issue and left every lock it took in `self.locked`.
        // Release the locks, roll the allocations back, withdraw every
        // registration. `abort` handles the truncation reservation and
        // `unwind` clears `locked`.
        let _ = self.abort(AbortReason::UserRequested);
        self.engine.unregister_active(self.active);
    }
}

// ----------------------------------------------------------------------
// Destination-side verb work (runs inside completion-set closures, on the
// coordinator thread standing in for the destination machines' cores)
// ----------------------------------------------------------------------

/// Primary-side LOCK processing for one destination: acquire every group's
/// batch atomically-in-order, then (multi-version mode) copy the current
/// version of each locked object into old-version memory while holding the
/// lock. Every lock acquired — before a failure too — is pushed into the
/// driver's `locked`, *not released*: the coordinator's unwind releases
/// them together with every other destination's, preserving the single
/// central abort path.
///
/// A lock only ever belongs to a commit still in flight (a decided commit
/// installs before its driver seals), so a conflict fails the batch at
/// once.
fn lock_at_destination(
    engine: &NodeEngine,
    plan: &CommitPlan,
    dest: &Destination,
    mv_policy: Option<MvPolicy>,
    locked: &mut Vec<HeldLock>,
) -> Option<Failure> {
    for &gi in plan.primary_groups(dest) {
        let group = &plan.groups[gi];
        let entries = plan.lock_entries(gi);
        if entries.is_empty() {
            continue;
        }
        // The destination may have died while the verb was in flight
        // (fault injection): fail the batch rather than touch dead memory.
        if !engine.cluster().node(group.primary).is_alive() {
            let addr = entries[0].0;
            return Some((addr, AbortReason::NodeUnavailable(addr)));
        }
        let slots = match group.region_handle.try_lock_batch(entries) {
            Ok(slots) => slots,
            Err(failure) => {
                let reason = match failure.outcome {
                    LockOutcome::NotAllocated => AbortReason::BadAddress(failure.addr),
                    _ => AbortReason::LockConflict(failure.addr),
                };
                return Some((failure.addr, reason));
            }
        };
        let start = locked.len();
        let lockable = plan
            .intent_range(gi)
            .filter(|&ii| plan.intents()[ii].needs_lock());
        locked.extend(lockable.zip(slots).map(|(intent, slot)| HeldLock {
            group: gi,
            intent,
            slot,
            old_addr: None,
            truncated: false,
        }));
        // Primary-side LOCK processing: in multi-version mode, copy the
        // current version of every locked object (updates and frees alike —
        // a free preserves history identically) into old-version memory
        // while holding the lock.
        if let Some(mv_policy) = mv_policy {
            for held in &mut locked[start..] {
                let snapshot = held.slot.header_snapshot();
                let old = OldVersion {
                    ts: snapshot.ts,
                    ovp: snapshot.ovp,
                    data: held.slot.raw_data(),
                };
                match allocate_old_version(engine, group.primary, old, mv_policy) {
                    Ok(addr) => {
                        held.old_addr = Some(addr);
                        EngineStats::bump(&engine.stats.old_versions_allocated);
                    }
                    Err(AbortReason::OldVersionMemoryExhausted)
                        if mv_policy == MvPolicy::Truncate =>
                    {
                        EngineStats::bump(&engine.stats.oldver_truncations);
                        held.truncated = true;
                    }
                    Err(reason) => return Some((plan.intents()[held.intent].addr, reason)),
                }
            }
        }
    }
    None
}

/// An unwritten read awaiting validation: its primary, its address and the
/// primary's replica of its region.
type Unvalidated = (NodeId, Addr, Arc<Region>);

/// Piggybacks the coordinator's truncation watermark on an outgoing verb
/// to `dest` (stage 3 of the lifecycle: zero standalone messages).
fn piggyback(engine: &NodeEngine, dest: NodeId) {
    engine.backlog().deliver_truncation(engine, dest, false);
}

/// Allocates an old version at `primary`, applying the configured policy
/// when old-version memory is exhausted. The executing thread performs the
/// allocation directly on the primary's store through the store's per-thread
/// cursor shard, standing in for the primary thread that processes the LOCK
/// batch — so concurrent LOCK batches (to different primaries, or from
/// different threads to the same primary) never contend on any
/// coordinator-global lock.
fn allocate_old_version(
    engine: &NodeEngine,
    primary: NodeId,
    old: OldVersion,
    policy: MvPolicy,
) -> Result<OldAddr, AbortReason> {
    const MAX_BLOCK_RETRIES: u32 = 1_000;
    let store = Arc::clone(engine.cluster().node(primary).old_versions());
    let mut attempt = 0;
    loop {
        let allocated = store.allocate_local(old.clone()).or_else(|_| {
            // Memory pressure: idle per-thread cursors pin partially
            // filled blocks as uncollectable, so seal them all, reclaim
            // below the safe point, and retry once before invoking the
            // policy (a store with many quiet threads would otherwise
            // report exhaustion while holding mostly-empty blocks).
            store.detach_cursors();
            store.collect(engine.cluster().node(primary).gc_safe_point());
            store.allocate_local(old.clone())
        });
        match allocated {
            Ok(addr) => return Ok(addr),
            Err(_) => match policy {
                MvPolicy::Abort => {
                    EngineStats::bump(&engine.stats.aborts_oldver_memory);
                    return Err(AbortReason::OldVersionMemoryExhausted);
                }
                MvPolicy::Truncate => return Err(AbortReason::OldVersionMemoryExhausted),
                MvPolicy::Block => {
                    attempt += 1;
                    EngineStats::bump(&engine.stats.oldver_blocks);
                    if attempt > MAX_BLOCK_RETRIES {
                        return Err(AbortReason::OldVersionMemoryExhausted);
                    }
                    // Back off and loop: the safe point advances while
                    // we wait, so the pre-retry reclamation above frees
                    // more each time around.
                    std::thread::sleep(std::time::Duration::from_micros(100));
                }
            },
        }
    }
}

/// Validates one destination's batch of header reads. Returns the first
/// (smallest, entries are sorted) failing address, or `None` when the whole
/// batch validates. A locked header fails: its holder is a commit in flight.
fn validate_at_destination(entries: &[Unvalidated], read_ts: u64) -> Option<Addr> {
    for (_, addr, region) in entries {
        let ok = match region.slot(*addr) {
            Ok(slot) => {
                let h = slot.header_snapshot();
                // The snapshot is still current iff no version (or
                // tombstone) newer than the read timestamp was installed
                // (Algorithm 2, line 19).
                !h.locked && !h.tombstone && h.ts <= read_ts
            }
            Err(_) => false,
        };
        if !ok {
            return Some(*addr);
        }
    }
    None
}

/// Applies one held lock at its primary: install-and-unlock for updates,
/// tombstone (multi-version) or clear (single-version) for frees, linking
/// the old-version chain and arming its GC time. Run by COMMIT-PRIMARY's
/// destination-side work in `early_ack_finish`.
fn install_held_lock(
    engine: &NodeEngine,
    plan: &CommitPlan,
    held: &HeldLock,
    new_ts: u64,
    multi_version: bool,
) {
    let group = &plan.groups[held.group];
    let intent = &plan.intents()[held.intent];
    let ovp = if multi_version && !held.truncated {
        if let Some(old_addr) = held.old_addr {
            // The old version becomes reclaimable once the GC safe
            // point passes this transaction's write timestamp.
            engine
                .cluster()
                .node(group.primary)
                .old_versions()
                .set_gc_time(old_addr, new_ts);
            Some(old_addr)
        } else {
            None
        }
    } else {
        None
    };
    match intent.kind {
        IntentKind::Update => {
            held.slot
                .install_and_unlock(new_ts, intent.data.clone(), ovp);
        }
        IntentKind::Free if multi_version => {
            // A multi-version free preserves history exactly as an
            // update does: the slot becomes a tombstone anchoring the
            // old-version chain, and is reclaimed by the GC sweep once
            // the safe point passes `new_ts`.
            held.slot.install_tombstone_and_unlock(new_ts, ovp);
            group.region_handle.note_tombstone(intent.addr, new_ts);
        }
        IntentKind::Free => {
            held.slot.clear();
            let _ = group.region_handle.free(intent.addr);
        }
        IntentKind::Alloc => unreachable!("allocs take no lock"),
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use farm_kernel::ClusterConfig;
    use farm_net::LatencyModel;

    use super::*;
    use crate::engine::Engine;
    use crate::opts::EngineConfig;
    use crate::tx::{PreparedCommit, Transaction};

    /// Drives a (possibly parked) driver to its outcome.
    fn finish(driver: &mut CommitDriver) -> Result<CommitInfo, TxError> {
        let model = driver.engine.meter.latency_model();
        loop {
            match driver.advance(Instant::now()) {
                DriverStep::Wait(deadline) => model.wait_until(deadline),
                DriverStep::Finished(result) => return result,
            }
        }
    }

    /// Hands back the driver `tx`'s commit runs on.
    fn driver_of(tx: Transaction) -> CommitDriver {
        match tx.prepare_commit() {
            PreparedCommit::InFlight(driver) => driver,
            PreparedCommit::Done(result) => panic!("commit decided without a driver: {result:?}"),
        }
    }

    /// The hand-stepping harness: calls `advance`, waiting out each
    /// deadline, until the driver parks with an in-flight phase that `at`
    /// accepts. Between this and the next `advance` the caller owns the
    /// cluster and may act on it.
    fn park(driver: &mut CommitDriver, at: fn(&Pending) -> bool) {
        let model = driver.engine.meter.latency_model();
        loop {
            match driver.advance(Instant::now()) {
                DriverStep::Wait(_) if driver.pending.as_ref().is_some_and(at) => return,
                DriverStep::Wait(deadline) => model.wait_until(deadline),
                DriverStep::Finished(result) => panic!("finished before parking: {result:?}"),
            }
        }
    }

    /// Abandons a commit (write + alloc, remote primary, datacenter
    /// latency) parked at `at` and checks that dropping the driver leaves
    /// nothing behind. `reserved` says whether the parked driver already
    /// holds a truncation reservation.
    fn abandoned_driver_leaves_nothing_behind(at: fn(&Pending) -> bool, reserved: bool) {
        let config = EngineConfig {
            latency: LatencyModel::datacenter(),
            gc_interval: Duration::from_secs(3600),
            ..EngineConfig::default()
        };
        let engine = Engine::start_cluster(ClusterConfig::test(3), config);
        let coordinator = engine.node(NodeId(0));
        let cluster = engine.cluster();
        let (region, primary) = cluster
            .regions()
            .into_iter()
            .filter_map(|r| Some((r, cluster.primary_of(r)?)))
            .find(|&(_, p)| p != coordinator.id())
            .expect("a region with a remote primary");
        let replica = cluster.node(primary).regions().ensure(region);

        let mut setup = coordinator.begin();
        let addr = setup.alloc_in(region, vec![0u8; 16]).unwrap();
        setup.commit().unwrap();
        engine.quiesce();
        let free_slots = replica.occupancy().1;

        let mut tx = coordinator.begin();
        tx.write(addr, vec![1u8; 16]).unwrap();
        tx.alloc_in(region, vec![2u8; 16]).unwrap();
        let mut driver = driver_of(tx);
        park(&mut driver, at);
        let slot = replica.slot(addr).unwrap();
        assert!(slot.header_snapshot().locked, "LOCK already ran");
        assert_eq!(replica.occupancy().1, free_slots - 1);
        assert_eq!(coordinator.active_transactions(), 1);
        assert_eq!(driver.trunc_registered, reserved);
        let write_ts = driver.write_ts;
        drop(driver);

        assert!(!slot.header_snapshot().locked, "written slot unlocked");
        assert_eq!(replica.occupancy().1, free_slots, "allocation returned");
        assert_eq!(coordinator.active_transactions(), 0, "registration held");
        assert!(
            coordinator.truncation_watermark() >= write_ts,
            "truncation reservation not withdrawn"
        );
        // Nothing holds a later commit back either.
        let mut next = coordinator.begin();
        next.overwrite(addr, vec![3u8; 16]).unwrap();
        let next_ts = next.commit().unwrap().write_ts.unwrap();
        engine.quiesce();
        assert!(coordinator.truncation_watermark() >= next_ts);
        engine.shutdown();
    }

    #[test]
    fn a_driver_abandoned_during_lock_leaves_nothing_behind() {
        abandoned_driver_leaves_nothing_behind(|p| matches!(p, Pending::Lock(_)), false);
    }

    #[test]
    fn a_driver_abandoned_during_replication_leaves_nothing_behind() {
        abandoned_driver_leaves_nothing_behind(|p| matches!(p, Pending::Replicate), true);
    }

    /// A lost update across a reconfiguration. tx1 reads an account
    /// holding 100 and writes 101, and is parked at `at`. The account's
    /// primary, n1, dies, and a reconfiguration promotes a backup. tx2 then
    /// adds 10 through the retry loop. tx1 was planned under the old
    /// configuration, so it must not be decided under the new one: it
    /// aborts retryably, and the account holds 110. Without the fence tx1
    /// also reports success — at the lock, its write lands over tx2's
    /// (101); at replication, tx2's lands over its (110) — and one of the
    /// two acknowledged updates is lost.
    fn a_commit_parked_across_a_reconfiguration_is_fenced(at: fn(&Pending) -> bool) {
        let config = EngineConfig {
            latency: LatencyModel::datacenter(),
            gc_interval: Duration::from_secs(3600),
            ..EngineConfig::default()
        };
        let engine = Engine::start_cluster(ClusterConfig::test(4), config);
        let coordinator = engine.node(NodeId(0));
        let cluster = engine.cluster();
        let (victim, survivor) = (NodeId(1), NodeId(0));
        let region = cluster
            .regions()
            .into_iter()
            .find(|&r| cluster.primary_of(r) == Some(victim))
            .expect("a region whose primary is n1");
        let mut setup = coordinator.begin();
        let addr = setup
            .alloc_in(region, 100u64.to_le_bytes().to_vec())
            .unwrap();
        setup.commit().unwrap();
        engine.quiesce();
        let balance = |tx: &mut Transaction| -> Result<u64, TxError> {
            let bytes = tx.read(addr)?;
            Ok(u64::from_le_bytes(bytes[..8].try_into().unwrap()))
        };

        let mut tx1 = coordinator.begin();
        assert_eq!(balance(&mut tx1).unwrap(), 100);
        tx1.write(addr, 101u64.to_le_bytes().to_vec()).unwrap();
        let mut tx1 = driver_of(tx1);
        park(&mut tx1, at);

        cluster.kill(victim);
        assert!(cluster.initiate_reconfiguration(survivor, &[victim]));
        coordinator
            .run_transaction(TxOptions::default(), |tx| {
                let value = balance(tx)?;
                tx.write(addr, (value + 10).to_le_bytes().to_vec())
            })
            .expect("tx2 commits under the new configuration");
        let tx1 = finish(&mut tx1);
        engine.quiesce();
        let mut check = coordinator.begin();
        let value = balance(&mut check).unwrap();
        check.commit().unwrap();
        assert!(
            matches!(tx1, Err(TxError::Aborted(AbortReason::Reconfiguring(r))) if r == region),
            "tx1 decided across the reconfiguration: {tx1:?}, account {value}"
        );
        assert!(tx1.unwrap_err().is_retryable());
        assert_eq!(value, 110, "an acknowledged update was lost");
        engine.shutdown();
    }

    #[test]
    fn a_commit_parked_at_lock_across_a_reconfiguration_aborts() {
        a_commit_parked_across_a_reconfiguration_is_fenced(|p| matches!(p, Pending::Lock(_)));
    }

    #[test]
    fn a_commit_parked_at_replication_across_a_reconfiguration_aborts() {
        a_commit_parked_across_a_reconfiguration_is_fenced(|p| matches!(p, Pending::Replicate));
    }
}
