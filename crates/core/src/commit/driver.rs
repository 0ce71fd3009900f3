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
//! 2. **Background install** — the held locks, plan and write timestamp move
//!    into a `PendingInstall` on the engine's backlog, drained
//!    opportunistically (at the next `begin`, in pipeline dead time, by the
//!    background thread). A reader — or a locker,
//!    or a validator — that hits a still-locked slot of a durable
//!    transaction **helps complete that destination's install** instead of
//!    backing off or aborting.
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
//! destination** (see [`super::plan::CommitPlan`]), and all of a phase's
//! messages are issued before any completion is awaited: the phase costs
//! the *maximum* destination latency, not the sum, and the destination-side
//! work (lock acquisition, old-version copies, validation reads) runs inside
//! the verbs' work closures. Any failure routes through the single `unwind`
//! step — the completion set always drains every in-flight sibling first,
//! so unwind sees the locks of *every* destination,
//! releases them in descending global address order, and rolls back
//! allocations.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use farm_clock::TsMode;
use farm_memory::{Addr, LockOutcome, OldAddr, OldVersion, SlotRef};
use farm_net::{Completion, CompletionSet, DispatchMode, NodeId, PhaseLabel, Verb};

use crate::active::ActiveToken;
use crate::engine::NodeEngine;
use crate::error::{AbortReason, TxError};
use crate::opts::{IsolationLevel, MvPolicy, TxOptions};
use crate::stats::EngineStats;
use crate::tx::CommitInfo;

use super::backlog::{Help, LockBackoff, LogEntry, PendingInstall, RecordIntent};
use super::plan::{CommitPlan, IntentKind};
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
    /// **completes** at the end of this phase; COMMIT-PRIMARY installs and
    /// truncation are the backlog's job.
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
    /// Index of the intent within the group.
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

/// What one destination's LOCK verb produced: the locks it acquired (kept
/// even on failure, so the coordinator can unwind them) and the first
/// failure, if any.
struct DestLockOutcome {
    locks: Vec<HeldLock>,
    failure: Option<(Addr, AbortReason)>,
}

/// What `finish_phase` decides after acting on one phase's results.
enum Step {
    /// Move to the next phase.
    Next(CommitPhase),
    /// The commit is durable at this write timestamp (every COMMIT-BACKUP
    /// acked); its installs now belong to the backlog.
    Finish(u64),
}

/// The stashed results of an issued-but-not-finished phase.
enum Pending {
    Lock(Vec<Completion<DestLockOutcome>>),
    AcquireWriteTs,
    Validate(Vec<Completion<Option<Addr>>>),
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
    /// When the in-flight phase was issued (phase histogram).
    phase_started: Option<Instant>,
    /// Terminal bookkeeping has run; disarms the abandoned-driver `Drop`.
    completed: bool,
}

/// A driver has no thread affinity (every phase is an issue/finish pair
/// against engine-shared state), and two things rely on it: a
/// [`CommitPipeline`](crate::CommitPipeline) full of drivers moves into
/// whichever client thread owns it (the `benchmark/` package's `Client:
/// Send` does exactly that), and the held locks — [`SlotRef`]s, slab
/// handles — move into the install backlog and are applied from whichever
/// thread drains it, hence the second line.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_shared_handle<T: Send + Sync + Clone>() {}
    assert_send::<CommitDriver>();
    assert_shared_handle::<SlotRef>();
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
            match self.advance() {
                DriverStep::Wait(deadline) => model.wait_until(deadline),
                DriverStep::Finished(result) => return result,
            }
        }
    }

    /// Makes all progress possible without blocking: finishes the phase
    /// whose deadline the caller waited out, then issues phases until one
    /// has a future completion deadline (returned as [`DriverStep::Wait`])
    /// or the commit reaches a terminal state.
    pub(crate) fn advance(&mut self) -> DriverStep {
        loop {
            if let Some(pending) = self.pending.take() {
                let phase = self.phase;
                let started = self.phase_started.take().expect("issued phases are timed");
                let result = self.finish_phase(pending);
                self.engine
                    .meter
                    .stats()
                    .phases()
                    .record(phase_label(phase), started.elapsed().as_nanos() as u64);
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
            // Every phase the driver can be in precedes durability; from the
            // ack on, the transaction is decided and its installs roll
            // forward in the backlog.
            if !self.engine.is_alive() {
                EngineStats::bump(&self.engine.stats.orphans_rolled_back);
                let err = self.abort(AbortReason::CoordinatorDead);
                return DriverStep::Finished(self.seal(Err(err)));
            }
            self.phase_started = Some(Instant::now());
            match self.issue_phase() {
                Ok(Some(deadline)) => return DriverStep::Wait(deadline),
                Ok(None) => continue, // completes immediately; finish above
                Err(e) => {
                    let phase = self.phase;
                    let started = self.phase_started.take().expect("just set");
                    self.engine
                        .meter
                        .stats()
                        .phases()
                        .record(phase_label(phase), started.elapsed().as_nanos() as u64);
                    return DriverStep::Finished(self.seal(Err(e)));
                }
            }
        }
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
            Pending::Lock(outcomes) => {
                self.finish_lock(outcomes)?;
                Step::Next(if self.si {
                    CommitPhase::ReplicateBackups
                } else {
                    CommitPhase::AcquireWriteTs
                })
            }
            Pending::AcquireWriteTs => Step::Next(CommitPhase::Validate),
            Pending::Validate(completions) => {
                let failure = completions.into_iter().filter_map(|c| c.value).min();
                if let Some(addr) = failure {
                    return Err(self.abort(AbortReason::ValidationFailed(addr)));
                }
                Step::Next(CommitPhase::ReplicateBackups)
            }
            Pending::Replicate => {
                if let Some(target) = self.deferred_wait_target.take() {
                    // Residual deferred uncertainty wait — normally zero,
                    // the phase deadline already covered it (issue folded
                    // the estimate in). Completing it here, before the
                    // install enqueue below, is what keeps writes unexposed
                    // until the timestamp is in the past: strictness is
                    // preserved.
                    let clock = Arc::clone(self.engine.handle().clock());
                    let waited = clock.complete_deferred_wait(target);
                    self.record_write_wait(waited, true);
                }
                // The transaction is durable: every COMMIT-BACKUP is acked.
                // Post COMMIT-PRIMARY, hand the installs to the backlog, and
                // report success — stages 2 and 3 run in the background.
                self.early_ack_finish()
            }
        })
    }

    /// Piggybacks the coordinator's truncation watermark on an outgoing verb
    /// to `dest` (stage 3 of the lifecycle: zero standalone messages).
    fn piggyback(&self, dest: NodeId) {
        self.engine
            .backlog()
            .deliver_truncation(&self.engine, dest, false);
    }

    // ------------------------------------------------------------------
    // LOCK
    // ------------------------------------------------------------------

    /// Sends one LOCK batch per destination primary — **all destinations at
    /// once**. Primary-side LOCK processing (batch lock acquisition,
    /// multi-version old-version copies) runs inside the per-destination
    /// verb closures.
    fn issue_lock(&mut self) -> Option<Instant> {
        let engine = Arc::clone(&self.engine);
        let stats = &engine.stats;
        // Message accounting: one two-sided LOCK message per destination.
        for dest in self.plan.lock_destinations() {
            engine
                .meter
                .rpc_batch_deferred(dest.lock_ops, dest.lock_bytes);
            EngineStats::bump(&stats.lock_batches);
            EngineStats::add(&stats.lock_batch_objects, dest.lock_ops);
        }
        let mv_policy = engine.config().mv_policy;
        let plan = &self.plan;
        let engine_ref: &NodeEngine = &engine;
        let mut set: CompletionSet<'_, DestLockOutcome> =
            CompletionSet::new(engine.meter.latency_model());
        for (primary, group_idxs) in plan.groups_by_primary() {
            let lockable: Vec<usize> = group_idxs
                .into_iter()
                .filter(|&gi| plan.groups[gi].intents.iter().any(|i| i.needs_lock()))
                .collect();
            if lockable.is_empty() {
                continue; // Alloc-only destination: no LOCK message.
            }
            self.piggyback(primary);
            let work = move || lock_at_destination(engine_ref, plan, &lockable, mv_policy);
            if primary == engine.id() {
                // The LOCK message is still metered above (it is a protocol
                // message either way), but a co-located primary processes it
                // without crossing the wire: no injected latency, matching
                // the local bypass every other phase applies.
                set.issue_local(primary, work);
            } else {
                set.issue(primary, Verb::Rpc, work);
            }
        }
        let (outcomes, deadline) =
            set.complete_deferred(DispatchMode::Concurrent, Some(engine.meter.stats()));
        self.pending = Some(Pending::Lock(outcomes));
        deadline
    }

    /// Merges every destination's locks (failed destinations included:
    /// partially acquired batches must unwind too) and picks the failure
    /// with the smallest global address, so the abort reason is
    /// deterministic whatever order the destinations completed in.
    fn finish_lock(&mut self, outcomes: Vec<Completion<DestLockOutcome>>) -> Result<(), TxError> {
        let mut failure: Option<(Addr, AbortReason)> = None;
        for completion in outcomes {
            let outcome = completion.value;
            self.locked.extend(outcome.locks);
            if let Some((addr, reason)) = outcome.failure {
                if failure.as_ref().is_none_or(|&(prev, _)| addr < prev) {
                    failure = Some((addr, reason));
                }
            }
        }
        // Groups ascend by region and intents by address, so sorting by
        // (group, intent) restores the ascending global address order that
        // install relies on and unwind releases in reverse.
        self.locked.sort_by_key(|h| (h.group, h.intent));
        match failure {
            Some((_, reason)) => Err(self.abort(reason)),
            None => Ok(()),
        }
    }

    // ------------------------------------------------------------------
    // Write timestamp
    // ------------------------------------------------------------------

    /// Snapshot-isolation acquisition, run while the COMMIT-BACKUP writes are
    /// in flight (`overlapped` says whether any actually are, for the overlap
    /// statistics): strict SI waits out the uncertainty, non-strict SI takes
    /// the upper bound without waiting. The `unsafe_skip_write_wait`
    /// ablation never waits, which breaks strictness (Section 7.3).
    fn acquire_write_ts(&mut self, overlapped: bool) {
        let mode = if self.engine.config().unsafe_skip_write_wait || !self.opts.strict {
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
    /// completes, so strictness is preserved. The `unsafe_skip_write_wait`
    /// ablation skips the wait entirely, which breaks serializability
    /// (Section 7.3).
    fn defer_write_ts(&mut self) {
        self.write_ts = self.engine.handle().clock().get_ts_deferred().as_nanos();
        if !self.engine.config().unsafe_skip_write_wait {
            self.deferred_wait_target = Some(self.write_ts);
        }
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
    /// whatever order the destinations completed in.
    fn issue_validate(&mut self) -> Result<Option<Instant>, TxError> {
        // Written reads need no validation. Small plans (the common
        // OLTP case) probe the plan directly instead of materializing a
        // hash set per commit.
        let small = self.plan.total_intents() <= 16;
        let written: std::collections::HashSet<Addr> = if small {
            std::collections::HashSet::new()
        } else {
            self.plan
                .groups
                .iter()
                .flat_map(|g| g.intents.iter().map(|i| i.addr))
                .collect()
        };
        let is_written = |addr: Addr| {
            if small {
                self.plan.touches(addr)
            } else {
                written.contains(&addr)
            }
        };
        // Group the unwritten reads by destination primary, ascending by
        // address within each group (deterministic first-failure reporting),
        // carrying each address's resolved region so the validation closure
        // does not re-resolve it.
        type Unvalidated = (Addr, Arc<farm_memory::Region>);
        let mut by_primary: std::collections::BTreeMap<NodeId, Vec<Unvalidated>> =
            std::collections::BTreeMap::new();
        for &addr in self.read_set.keys() {
            if is_written(addr) {
                continue;
            }
            let Ok((primary, region)) = self.engine.primary_region_of(addr) else {
                return Err(self.abort(AbortReason::ValidationFailed(addr)));
            };
            by_primary.entry(primary).or_default().push((addr, region));
        }
        for entries in by_primary.values_mut() {
            entries.sort_by_key(|&(addr, _)| addr);
        }
        let engine = Arc::clone(&self.engine);
        let stats = &engine.stats;
        let read_ts = self.read_ts;
        let engine_ref: &NodeEngine = &engine;
        let mut set: CompletionSet<'_, Option<Addr>> =
            CompletionSet::new(engine.meter.latency_model());
        for (&primary, entries) in &by_primary {
            // One VALIDATE message per destination primary carrying all of
            // its header reads (16 bytes each); free when the coordinator is
            // that primary (local bypass).
            EngineStats::bump(&stats.validate_batches);
            EngineStats::add(&stats.validate_batch_objects, entries.len() as u64);
            self.piggyback(primary);
            let work = move || validate_at_destination(engine_ref, entries, read_ts);
            if primary == engine.id() {
                EngineStats::add(&stats.read_local_bypass, entries.len() as u64);
                set.issue_local(primary, work);
            } else {
                engine
                    .meter
                    .read_batch_deferred(entries.len() as u64, 16 * entries.len());
                set.issue(primary, Verb::RdmaRead, work);
            }
        }
        let (completions, deadline) =
            set.complete_deferred(DispatchMode::Concurrent, Some(engine.meter.stats()));
        self.pending = Some(Pending::Validate(completions));
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
        let mut set: CompletionSet<'_, ()> = CompletionSet::new(engine.meter.latency_model());
        for (node, ops, bytes) in self.plan.backup_destinations() {
            engine.meter.write_batch_deferred(ops, bytes);
            engine.meter.ack();
            EngineStats::bump(&engine.stats.backup_batches);
            self.piggyback(node);
            if node == engine.id() {
                set.issue_local(node, || ());
            } else {
                set.issue(node, Verb::RdmaWrite, || ());
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
    /// drained), post the COMMIT-PRIMARY messages (metered, fire-and-forget),
    /// initialize this transaction's allocations eagerly (they carry no lock,
    /// so helpers could not finish them), and hand the held locks to the
    /// backlog as a [`PendingInstall`].
    fn early_ack_finish(&mut self) -> Step {
        let engine = Arc::clone(&self.engine);
        let write_ts = self.write_ts;
        let multi_version = engine.config().mv_policy.is_some();
        // Backup redo-log records: one entry per backup destination holding
        // that destination's intents, with the primary's slab size classes
        // resolved so the backup can mirror the layout.
        let slab_sizes: Vec<Option<Vec<usize>>> = self
            .plan
            .groups
            .iter()
            .map(|g| slab_sizes_of(&engine, g))
            .collect();
        let mut per_backup: Vec<(NodeId, Vec<RecordIntent>)> = Vec::new();
        for (group, sizes) in self.plan.groups.iter().zip(&slab_sizes) {
            let Some(sizes) = sizes else {
                // The primary's region is gone (e.g. dropped after a kill):
                // nothing to mirror.
                continue;
            };
            for &backup in &group.backups {
                let records = match per_backup.iter_mut().find(|(n, _)| *n == backup) {
                    Some((_, records)) => records,
                    None => {
                        per_backup.push((backup, Vec::with_capacity(group.intents.len())));
                        &mut per_backup.last_mut().expect("just pushed").1
                    }
                };
                for (intent, &slab_size) in group.intents.iter().zip(sizes) {
                    records.push(RecordIntent {
                        addr: intent.addr,
                        free: intent.kind == IntentKind::Free,
                        data: intent.data.clone(),
                        slab_size,
                    });
                }
            }
        }
        for (backup, intents) in per_backup {
            engine.backlog().deposit(
                backup,
                LogEntry {
                    coordinator: engine.id(),
                    write_ts,
                    intents,
                },
            );
        }
        // COMMIT-PRIMARY is posted now (the messages are on the wire, hence
        // metered) but never awaited: their destination-side processing is
        // the backlog's job.
        for (_node, ops, bytes) in self.plan.primary_destinations() {
            engine.meter.write_batch_deferred(ops, bytes);
            EngineStats::bump(&engine.stats.primary_batches);
        }
        // Allocations initialize eagerly: fresh slots are invisible (not
        // locked) until initialized, so a reader could not help them the way
        // it helps locked updates.
        for group in &self.plan.groups {
            for intent in group.intents.iter().filter(|i| i.kind == IntentKind::Alloc) {
                if let Ok(slot) = group.region_handle.slot(intent.addr) {
                    slot.initialize(write_ts, intent.data.clone());
                }
            }
        }
        for &addr in &self.plan.cancelled_allocs {
            if let Ok((_p, region)) = engine.primary_region_of(addr) {
                let _ = region.free(addr);
            }
        }
        // Hand the held locks to the backlog. The truncation reservation
        // transfers with them: it is withdrawn (raising the watermark) when
        // the last destination installs.
        let plan = std::mem::replace(
            &mut self.plan,
            CommitPlan {
                groups: Vec::new(),
                cancelled_allocs: Vec::new(),
            },
        );
        let locked = std::mem::take(&mut self.locked);
        self.trunc_registered = false;
        engine.enqueue_install(PendingInstall::new(
            engine.id(),
            write_ts,
            multi_version,
            plan,
            locked,
        ));
        Step::Finish(write_ts)
    }

    // ------------------------------------------------------------------
    // Abort
    // ------------------------------------------------------------------

    /// Routes a phase failure through the central unwind step. By the time
    /// this runs, every in-flight sibling verb of the failing phase has
    /// already been drained (the completion set never short-circuits), so
    /// `self.locked` holds the locks of *all* destinations, in ascending
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
        // so undoing is always safe. A LOCK's destination-side closures
        // already ran at issue time; their locks live in the stashed
        // completions, not in `self.locked` yet — merge them so the unwind
        // releases every one.
        if let Some(Pending::Lock(outcomes)) = self.pending.take() {
            for completion in outcomes {
                self.locked.extend(completion.value.locks);
            }
            self.locked.sort_by_key(|h| (h.group, h.intent));
        }
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
/// lock. Locks acquired before a failure are *returned, not released* — the
/// coordinator's unwind releases them together with every other
/// destination's, preserving the single central abort path.
///
/// A conflict against a lock held by an **already-durable** transaction
/// (early-acked, install still pending) is not a real conflict: the locker
/// helps complete that install and retries the batch, exactly as a real
/// primary would process the straggler COMMIT-PRIMARY first. When another
/// thread holds the claim to that install, the locker backs off
/// (`read_lock_retries` steps) until the claimer has applied it.
fn lock_at_destination(
    engine: &NodeEngine,
    plan: &CommitPlan,
    group_idxs: &[usize],
    mv_policy: Option<MvPolicy>,
) -> DestLockOutcome {
    let mut out = DestLockOutcome {
        locks: Vec::new(),
        failure: None,
    };
    for &gi in group_idxs {
        let group = &plan.groups[gi];
        let entries = group.lock_entries();
        if entries.is_empty() {
            continue;
        }
        // The destination may have died while the verb was in flight
        // (fault injection): fail the batch rather than touch dead memory.
        if !engine.cluster().node(group.primary).is_alive() {
            let addr = entries[0].0;
            out.failure = Some((addr, AbortReason::NodeUnavailable(addr)));
            return out;
        }
        let mut backoff = LockBackoff::new(engine.config().read_lock_retries);
        let slots = loop {
            match group.region_handle.try_lock_batch(&entries) {
                Ok(slots) => break slots,
                Err(failure) => {
                    if failure.outcome == LockOutcome::Conflict {
                        match engine.help_install(failure.addr) {
                            Help::Applied => continue,
                            Help::Claimed if backoff.wait() => continue,
                            Help::Claimed | Help::NotPending => {}
                        }
                    }
                    let reason = match failure.outcome {
                        LockOutcome::NotAllocated => AbortReason::BadAddress(failure.addr),
                        _ => AbortReason::LockConflict(failure.addr),
                    };
                    out.failure = Some((failure.addr, reason));
                    return out;
                }
            }
        };
        let lockable = slots.len();
        let mut slot_iter = slots.into_iter();
        for (ii, intent) in group.intents.iter().enumerate() {
            if !intent.needs_lock() {
                continue;
            }
            let slot = slot_iter.next().expect("one slot per lockable intent");
            out.locks.push(HeldLock {
                group: gi,
                intent: ii,
                slot,
                old_addr: None,
                truncated: false,
            });
        }
        // Primary-side LOCK processing: in multi-version mode, copy the
        // current version of every locked object (updates and frees alike —
        // a free preserves history identically) into old-version memory
        // while holding the lock.
        if let Some(mv_policy) = mv_policy {
            let start = out.locks.len() - lockable;
            for li in start..out.locks.len() {
                let snapshot = out.locks[li].slot.header_snapshot();
                let old = OldVersion {
                    ts: snapshot.ts,
                    ovp: snapshot.ovp,
                    data: out.locks[li].slot.raw_data(),
                };
                match allocate_old_version(engine, group.primary, old, mv_policy) {
                    Ok(addr) => {
                        out.locks[li].old_addr = Some(addr);
                        EngineStats::bump(&engine.stats.old_versions_allocated);
                    }
                    Err(AbortReason::OldVersionMemoryExhausted)
                        if mv_policy == MvPolicy::Truncate =>
                    {
                        EngineStats::bump(&engine.stats.oldver_truncations);
                        out.locks[li].truncated = true;
                    }
                    Err(reason) => {
                        let held = &out.locks[li];
                        let addr = plan.groups[held.group].intents[held.intent].addr;
                        out.failure = Some((addr, reason));
                        return out;
                    }
                }
            }
        }
    }
    out
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
/// batch validates. A locked header belonging to an already-durable
/// transaction is resolved by helping its install — the re-read header then
/// decides honestly (a newer installed version still fails validation).
fn validate_at_destination(
    engine: &NodeEngine,
    entries: &[(Addr, Arc<farm_memory::Region>)],
    read_ts: u64,
) -> Option<Addr> {
    for (addr, region) in entries {
        let ok = match region.slot(*addr) {
            Ok(slot) => {
                let mut h = slot.header_snapshot();
                if h.locked && engine.help_install(*addr) != Help::NotPending {
                    h = slot.header_snapshot();
                }
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
/// the old-version chain and arming its GC time. Run by the backlog's
/// [`PendingInstall`] drain and help paths.
pub(crate) fn install_held_lock(
    engine: &NodeEngine,
    plan: &CommitPlan,
    held: &HeldLock,
    new_ts: u64,
    multi_version: bool,
) {
    let group = &plan.groups[held.group];
    let intent = &group.intents[held.intent];
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

/// Object sizes (slab size classes) of a group's intents at the primary,
/// used to mirror the slab layout at backups. 0 marks unresolvable slots.
fn slab_sizes_of(engine: &NodeEngine, group: &super::plan::RegionGroup) -> Option<Vec<usize>> {
    let region = engine
        .cluster()
        .node(group.primary)
        .regions()
        .get(group.region)?;
    Some(
        group
            .intents
            .iter()
            .map(|i| {
                region
                    .slab(i.addr.slab)
                    .map(|s| s.object_size())
                    .unwrap_or(0)
            })
            .collect(),
    )
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

    /// Hands back the driver `tx`'s commit runs on.
    fn driver_of(tx: Transaction) -> Box<CommitDriver> {
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
            match driver.advance() {
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
}
