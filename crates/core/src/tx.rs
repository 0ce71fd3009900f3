//! Transactions: the execution-phase API — snapshot reads, buffered writes,
//! allocation and freeing.
//!
//! The commit protocol itself lives in [`crate::commit`]: `commit` builds a
//! commit plan grouping the transaction's sets by destination machine and
//! hands it to the [`CommitDriver`] phase state machine.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use bytes::Bytes;
use farm_clock::TsMode;
use farm_memory::{Addr, ConsistentRead, OldAddr, OldVersion, RegionId};

use crate::commit::{CommitDriver, CommitPlan};
use crate::engine::NodeEngine;
use crate::error::{AbortReason, TxError};
use crate::opts::{IsolationLevel, TxOptions};
use crate::stats::EngineStats;

/// Bounded exponential backoff for a read that finds the head version
/// locked.
///
/// The holder of a commit lock is a commit in flight, which releases it at
/// its install or unwind, so the ladder starts with cheap spins and
/// escalates to yields and short sleeps; once the budget is exhausted the
/// read aborts (counted under `read_lock_retries_exhausted`).
struct LockBackoff {
    budget: u32,
    attempt: u32,
}

impl LockBackoff {
    fn new(budget: u32) -> LockBackoff {
        LockBackoff { budget, attempt: 0 }
    }

    /// Waits out one backoff step. Returns `false` once the retry budget is
    /// exhausted (the caller must abort instead of retrying again).
    fn wait(&mut self) -> bool {
        if self.attempt >= self.budget {
            return false;
        }
        let step = self.attempt.min(10);
        if step < 4 {
            // 1, 2, 4, 8 spins.
            for _ in 0..(1u32 << step) {
                std::hint::spin_loop();
            }
        } else if step < 7 {
            std::thread::yield_now();
        } else {
            // 1, 2, 4, 8 µs, capped.
            std::thread::sleep(std::time::Duration::from_micros(1 << (step - 7)));
        }
        self.attempt += 1;
        true
    }
}

/// What [`Transaction::prepare_commit`] produced: either an already-decided
/// outcome (read-only fast path, plan-build failure) or a commit driver
/// ready to be run synchronously or stepped by a
/// [`CommitPipeline`](crate::CommitPipeline).
// The size difference is the point: see `InFlight`.
#[allow(clippy::large_enum_variant)]
pub(crate) enum PreparedCommit {
    /// The commit was decided without touching the network.
    Done(Result<CommitInfo, TxError>),
    /// The commit protocol must run; the driver owns all bookkeeping
    /// (active-table withdrawal, statistics) from here on. Not boxed: it
    /// moves once, onto the synchronous caller's stack or into a pipeline's
    /// driver slot, and a box would be one more allocation per commit.
    InFlight(CommitDriver),
}

/// Information about a successful commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitInfo {
    /// The transaction's read timestamp (snapshot it executed against).
    pub read_ts: u64,
    /// The write timestamp, for read-write transactions.
    pub write_ts: Option<u64>,
}

/// A FaRMv2 transaction. Created by
/// [`NodeEngine::begin`](crate::NodeEngine::begin); the creating thread acts
/// as the distributed-commit coordinator when [`Transaction::commit`] is
/// called.
pub struct Transaction {
    engine: Arc<NodeEngine>,
    serial: u64,
    /// Registration in the engine's active-transaction slot table; withdrawn
    /// (one atomic store) exactly once, in `finish`.
    active: crate::active::ActiveToken,
    opts: TxOptions,
    /// The snapshot this transaction reads at.
    read_ts: u64,
    /// A strict read timestamp whose uncertainty is not yet waited out:
    /// `settle` waits until it is in the past before the first access to
    /// snapshot data.
    pending_wait: Option<u64>,
    /// Stale snapshot reads (slave side of parallel distributed queries) are
    /// read-only by construction.
    stale_readonly: bool,
    /// Versions observed by reads: addr → observed timestamp.
    read_set: HashMap<Addr, u64>,
    /// Buffered writes: addr → new payload.
    write_set: HashMap<Addr, Bytes>,
    /// Objects allocated by this transaction (payload installed at commit).
    alloc_set: Vec<Addr>,
    /// Objects freed by this transaction.
    free_set: Vec<Addr>,
    finished: bool,
}

impl Transaction {
    pub(crate) fn start(engine: Arc<NodeEngine>, opts: TxOptions) -> Transaction {
        let serial = engine.next_serial();
        // Acquire the read timestamp. Strict transactions take GET_TS
        // deferred: the interval's upper bound now, with the uncertainty
        // wait left to `settle`, which runs before the first access to
        // snapshot data so the wait overlaps whatever the application does
        // first. Non-strict ones take the lower bound with no wait.
        //
        // Registration happens in two wait-free steps: publish a
        // conservative placeholder (the clock's current lower bound, which
        // can only be ≤ the timestamp GET_TS returns) *before* acquiring the
        // timestamp, then raise the slot to the actual value. A concurrent
        // OAT scan interleaving with `begin` therefore sees at worst a
        // too-small timestamp — it can never advance the GC watermarks past
        // a snapshot that is about to become live.
        let clock = engine.handle().clock();
        let placeholder = clock.time_unchecked().map(|i| i.lower).unwrap_or(0);
        let active = engine.register_active(serial, placeholder);
        let (read_ts, pending_wait) = if opts.strict {
            let ts = clock.get_ts_deferred().as_nanos();
            (ts, Some(ts))
        } else {
            (clock.get_ts(TsMode::NonStrictRead).0.as_nanos(), None)
        };
        engine.update_active(active, read_ts);
        Transaction {
            engine,
            serial,
            active,
            opts,
            read_ts,
            pending_wait,
            stale_readonly: false,
            read_set: HashMap::new(),
            write_set: HashMap::new(),
            alloc_set: Vec::new(),
            free_set: Vec::new(),
            finished: false,
        }
    }

    pub(crate) fn start_stale(engine: Arc<NodeEngine>, read_ts: u64) -> Transaction {
        let serial = engine.next_serial();
        let active = engine.register_active(serial, read_ts);
        Transaction {
            engine,
            serial,
            active,
            opts: TxOptions::serializable(),
            read_ts,
            pending_wait: None,
            stale_readonly: true,
            read_set: HashMap::new(),
            write_set: HashMap::new(),
            alloc_set: Vec::new(),
            free_set: Vec::new(),
            finished: false,
        }
    }

    /// The transaction's read timestamp (snapshot point). For a strict
    /// transaction this waits out what is left of the timestamp's
    /// uncertainty first, so the snapshot it returns is in the past and can
    /// be handed to other machines (as [`ParallelQuery`](crate::ParallelQuery)
    /// does).
    pub fn read_ts(&mut self) -> u64 {
        self.settle();
        self.read_ts
    }

    /// Waits out a strict read timestamp's uncertainty, once. Runs right
    /// before the transaction's first access to snapshot data; everything
    /// earlier (routing, the cluster view, the caller's own code) reads no
    /// object, so the wait overlaps it without weakening opacity.
    fn settle(&mut self) {
        if let Some(target) = self.pending_wait.take() {
            self.engine.handle().clock().complete_deferred_wait(target);
        }
    }

    /// Whether the transaction has performed no writes, allocations or frees.
    pub fn is_read_only(&self) -> bool {
        self.write_set.is_empty() && self.alloc_set.is_empty() && self.free_set.is_empty()
    }

    /// Number of objects read so far.
    pub fn reads(&self) -> usize {
        self.read_set.len()
    }

    // ------------------------------------------------------------------
    // Execution phase
    // ------------------------------------------------------------------

    /// Reads the object at `addr` from the snapshot defined by the read
    /// timestamp. Writes buffered by this transaction are visible to its own
    /// reads.
    ///
    /// When the coordinator itself is the primary of the target region the
    /// read is a plain local memory access and no network message is metered
    /// (the local-bypass fast path, counted under `read_local_bypass`).
    pub fn read(&mut self, addr: Addr) -> Result<Bytes, TxError> {
        if let Some(buffered) = self.write_set.get(&addr) {
            return Ok(buffered.clone());
        }
        let (primary, region) = self.engine.primary_region_of(addr)?;
        self.settle();
        self.read_slot(primary, &region, addr, None)
    }

    /// Reads many objects in one call, batching the traffic **per destination
    /// primary**: the addresses are grouped by region (the same grouping the
    /// commit plan uses — every region has exactly one primary), each group is
    /// snapshotted by one
    /// [`Region::read_consistent_batch`](farm_memory::Region::read_consistent_batch)
    /// traversal, and one
    /// doorbell-batched read message is metered per distinct primary, however
    /// many objects it carries. Results are returned in input order.
    ///
    /// The per-primary read messages ride a [`farm_net::CompletionSet`]:
    /// under pipelined dispatch (the default) every destination's message is
    /// in flight simultaneously and the call pays the *maximum* destination
    /// latency, not the sum — a multi-primary multiget costs `max` like the
    /// fan-out of a real coordinator, with the per-destination traversals
    /// running inside the verbs' work closures.
    ///
    /// Per-slot fallbacks match [`Transaction::read`]: buffered writes are
    /// served locally, locked slots are retried with bounded backoff
    /// (individually — the rest of the batch is unaffected), and too-new or
    /// tombstoned head versions fall back to the old-version chain. Batches
    /// whose primary is the coordinator's own machine skip network metering
    /// entirely (local bypass).
    pub fn read_many(&mut self, addrs: &[Addr]) -> Result<Vec<Bytes>, TxError> {
        let started = std::time::Instant::now();
        let mut out: Vec<Option<Bytes>> = vec![None; addrs.len()];
        // Group the cache misses by region, ascending (deterministic order,
        // shared with the commit plan).
        let mut by_region: BTreeMap<RegionId, Vec<usize>> = BTreeMap::new();
        for (i, &addr) in addrs.iter().enumerate() {
            if let Some(buffered) = self.write_set.get(&addr) {
                out[i] = Some(buffered.clone());
            } else {
                by_region.entry(addr.region).or_default().push(i);
            }
        }
        // Resolve routing at the coordinator: several regions with the same
        // primary share one doorbell-batched read message (one verb).
        type RegionBatch = (Arc<farm_memory::Region>, Vec<usize>);
        let mut by_primary: BTreeMap<farm_net::NodeId, Vec<RegionBatch>> = BTreeMap::new();
        for (_region_id, idxs) in by_region {
            let probe = addrs[idxs[0]];
            let (primary, region) = self.engine.primary_region_of(probe)?;
            by_primary.entry(primary).or_default().push((region, idxs));
        }
        // The work closures below read slot data at issue.
        self.settle();
        // One verb per destination primary; its work closure performs the
        // destination's region traversals at issue (in that destination's
        // fixed region/index order, so completions can be re-associated
        // positionally below), while the flights overlap.
        let engine = Arc::clone(&self.engine);
        let mut set: farm_net::CompletionSet<(Vec<ConsistentRead>, usize)> =
            farm_net::CompletionSet::new(engine.meter.latency_model());
        for (&primary, groups) in &by_primary {
            let work = move || {
                let mut results = Vec::new();
                let mut bytes = 0usize;
                for (region, idxs) in groups {
                    let batch: Vec<Addr> = idxs.iter().map(|&i| addrs[i]).collect();
                    for result in region.read_consistent_batch(&batch) {
                        bytes += 64
                            + match &result {
                                ConsistentRead::Value { data, .. } => data.len(),
                                _ => 0,
                            };
                        results.push(result);
                    }
                }
                (results, bytes)
            };
            if primary == engine.id() {
                set.issue_local(primary, work);
            } else {
                set.issue(primary, farm_net::Verb::RdmaRead, work);
            }
        }
        let completions = set.complete(
            farm_net::DispatchMode::Concurrent,
            Some(engine.meter.stats()),
        );
        // One metered message per remote primary; local batches bypass the
        // network. Both count toward the engine-level batching statistics.
        // Completions return in issue order — the `by_primary` iteration
        // order — so each one zips positionally with its destination's
        // (region, indices) batches; no per-address routing map is needed.
        type Pending = (
            usize,
            farm_net::NodeId,
            Arc<farm_memory::Region>,
            ConsistentRead,
        );
        let mut pending: Vec<Pending> = Vec::with_capacity(addrs.len());
        for (completion, (&primary, groups)) in completions.into_iter().zip(&by_primary) {
            debug_assert_eq!(completion.dest, primary, "completions follow issue order");
            let (results, bytes) = completion.value;
            let ops = results.len() as u64;
            EngineStats::bump(&engine.stats.read_batches);
            EngineStats::add(&engine.stats.read_batch_objects, ops);
            if primary == engine.id() {
                EngineStats::add(&engine.stats.read_local_bypass, ops);
            } else {
                engine.meter.read_batch_deferred(ops, bytes);
            }
            let mut results = results.into_iter();
            for (region, idxs) in groups {
                for &i in idxs {
                    let result = results.next().expect("one result per batched address");
                    pending.push((i, primary, Arc::clone(region), result));
                }
            }
        }
        engine.meter.stats().phases().record(
            farm_net::PhaseLabel::ReadMany,
            started.elapsed().as_nanos() as u64,
        );
        // Admit each slot's snapshot, applying the per-slot fallbacks.
        for (i, primary, region, result) in pending {
            let addr = addrs[i];
            let value = match result {
                ConsistentRead::Locked => self.read_slot(primary, &region, addr, Some(result))?,
                other => self.admit_read(primary, addr, other)?,
            };
            out[i] = Some(value);
        }
        Ok(out
            .into_iter()
            .map(|v| v.expect("every slot filled"))
            .collect())
    }

    /// Reads the slot at `addr` until its head version is not locked, then
    /// admits what it saw. `seen` is an outcome already observed by a
    /// batched read (the first pass then re-reads nothing); `None` starts
    /// with a read. A lock belongs to a commit in flight and is waited out
    /// with bounded exponential backoff.
    fn read_slot(
        &mut self,
        primary: farm_net::NodeId,
        region: &farm_memory::Region,
        addr: Addr,
        mut seen: Option<ConsistentRead>,
    ) -> Result<Bytes, TxError> {
        let slot = region
            .slot(addr)
            .map_err(|_| self.execution_abort(AbortReason::BadAddress(addr)))?;
        let local = primary == self.engine.id();
        let mut backoff = LockBackoff::new(self.engine.config().read_lock_retries);
        loop {
            let result = match seen.take() {
                Some(result) => result,
                None => self
                    .one_sided_read(local, 64 + slot.raw_data().len(), || slot.read_consistent()),
            };
            let ConsistentRead::Locked = result else {
                return self.admit_read(primary, addr, result);
            };
            if !backoff.wait() {
                EngineStats::bump(&self.engine.stats.read_lock_retries_exhausted);
                return Err(self.execution_abort(AbortReason::ReadLockedObject(addr)));
            }
        }
    }

    /// Admits one non-`Locked` consistent-read outcome into the read set,
    /// resolving tombstones and too-new head versions through the old-version
    /// chain. Shared by the single-object and batched read paths.
    fn admit_read(
        &mut self,
        primary: farm_net::NodeId,
        addr: Addr,
        result: ConsistentRead,
    ) -> Result<Bytes, TxError> {
        match result {
            ConsistentRead::Locked => unreachable!("caller handles Locked"),
            ConsistentRead::NotAllocated => {
                Err(self.execution_abort(AbortReason::BadAddress(addr)))
            }
            ConsistentRead::Tombstone { ts, ovp } => {
                if ts <= self.read_ts {
                    // The object was already freed at our snapshot.
                    return Err(self.execution_abort(AbortReason::BadAddress(addr)));
                }
                // Freed after our snapshot: the pre-free history hangs off
                // the tombstone exactly as off a too-new head version.
                self.read_old_chain(primary, addr, ovp)
            }
            ConsistentRead::Value { ts, ovp, data } => {
                if ts <= self.read_ts {
                    self.read_set.insert(addr, ts);
                    return Ok(data);
                }
                // The head version is newer than our snapshot.
                self.read_old_chain(primary, addr, ovp)
            }
        }
    }

    /// One one-sided read of `bytes` whose destination-side load is
    /// `access`. A remote read is metered and its flight paid through the
    /// deadline taken at issue, so the flight overlaps the access, as in a
    /// [`farm_net::CompletionSet`]. When the target primary is this machine
    /// (local bypass) it is a plain memory access: no message, no wait.
    fn one_sided_read<R>(&self, local: bool, bytes: usize, access: impl FnOnce() -> R) -> R {
        if local {
            EngineStats::bump(&self.engine.stats.read_local_bypass);
            return access();
        }
        let deadline = self.engine.meter.read(bytes);
        let result = access();
        if let Some(deadline) = deadline {
            self.engine.meter.latency_model().wait_until(deadline);
        }
        result
    }

    /// Follows the old-version chain at the primary to find the version
    /// visible at this transaction's snapshot. Entered when the head version
    /// (or a tombstone) is newer than the read timestamp.
    fn read_old_chain(
        &mut self,
        primary: farm_net::NodeId,
        addr: Addr,
        ovp: Option<OldAddr>,
    ) -> Result<Bytes, TxError> {
        if self.engine.config().mv_policy.is_none() {
            return Err(self.execution_abort(AbortReason::OldVersionUnavailable(addr)));
        }
        // Eager validation (Section 4.7): a serializable transaction that has
        // written (or hints it will write) would fail validation anyway, so
        // abort now.
        if self.opts.isolation == IsolationLevel::Serializable
            && (self.opts.write_hint || !self.write_set.is_empty())
        {
            return Err(self.execution_abort(AbortReason::EagerValidation(addr)));
        }
        EngineStats::bump(&self.engine.stats.old_version_reads);
        let local = primary == self.engine.id();
        let store = self.engine.cluster().node(primary).old_versions();
        let mut cursor = ovp;
        while let Some(old_addr) = cursor {
            match self.one_sided_read(local, 64, || store.resolve(old_addr)) {
                None => {
                    return Err(self.execution_abort(AbortReason::OldVersionUnavailable(addr)));
                }
                Some(OldVersion {
                    ts: old_ts,
                    ovp: next,
                    data: old_data,
                }) => {
                    if old_ts <= self.read_ts {
                        self.read_set.insert(addr, old_ts);
                        return Ok(old_data);
                    }
                    cursor = next;
                }
            }
        }
        Err(self.execution_abort(AbortReason::OldVersionUnavailable(addr)))
    }

    /// Buffers a write of `data` to the object at `addr`. The object is read
    /// first (if it has not been read yet) so the commit protocol knows which
    /// version to lock against.
    pub fn write(&mut self, addr: Addr, data: impl Into<Bytes>) -> Result<(), TxError> {
        if self.stale_readonly {
            return Err(TxError::InvalidOperation(
                "stale snapshot transactions are read-only",
            ));
        }
        if !self.read_set.contains_key(&addr) && !self.alloc_set.contains(&addr) {
            self.read(addr)?;
        }
        self.write_set.insert(addr, data.into());
        Ok(())
    }

    /// Buffers a **blind write**: `data` overwrites the object at `addr`
    /// without reading it first. The commit's LOCK phase acquires the object
    /// at whatever version is installed — there is no read dependency to
    /// version-check and no validation entry, so a blind write can never
    /// abort with `VersionChanged`, only on a live lock conflict or a freed
    /// object. Serializability is unaffected: the transaction's serialization
    /// point is still its write timestamp, ordered by the object lock.
    ///
    /// This is the natural shape of a KV `put`, and it keeps the execution
    /// phase off the network entirely for update-only transactions.
    pub fn overwrite(&mut self, addr: Addr, data: impl Into<Bytes>) -> Result<(), TxError> {
        if self.stale_readonly {
            return Err(TxError::InvalidOperation(
                "stale snapshot transactions are read-only",
            ));
        }
        self.write_set.insert(addr, data.into());
        Ok(())
    }

    /// Allocates a new object initialized with `data` in a region whose
    /// primary is the coordinator's machine (exploiting locality), or in any
    /// region if the coordinator holds no primaries.
    pub fn alloc(&mut self, data: impl Into<Bytes>) -> Result<Addr, TxError> {
        let region = self
            .engine
            .home_region()
            .or_else(|| self.engine.cluster().view().placement.regions().next())
            .ok_or(TxError::AllocationFailed)?;
        self.alloc_in(region, data)
    }

    /// Allocates a new object initialized with `data` in the given region.
    pub fn alloc_in(&mut self, region: RegionId, data: impl Into<Bytes>) -> Result<Addr, TxError> {
        if self.stale_readonly {
            return Err(TxError::InvalidOperation(
                "stale snapshot transactions are read-only",
            ));
        }
        let data: Bytes = data.into();
        let primary = self
            .engine
            .cluster()
            .primary_of(region)
            .ok_or(TxError::AllocationFailed)?;
        let replica = self.engine.cluster().node(primary).regions().ensure(region);
        let addr = replica
            .allocate(data.len())
            .map_err(|_| TxError::AllocationFailed)?;
        self.alloc_set.push(addr);
        self.write_set.insert(addr, data);
        Ok(addr)
    }

    /// Marks the object at `addr` to be freed at commit.
    pub fn free(&mut self, addr: Addr) -> Result<(), TxError> {
        if self.stale_readonly {
            return Err(TxError::InvalidOperation(
                "stale snapshot transactions are read-only",
            ));
        }
        if !self.read_set.contains_key(&addr) && !self.alloc_set.contains(&addr) {
            self.read(addr)?;
        }
        self.free_set.push(addr);
        Ok(())
    }

    /// Aborts the transaction explicitly.
    pub fn abort(mut self) -> TxError {
        self.finish();
        // Return pre-allocated slots to their slabs.
        self.rollback_allocations();
        TxError::Aborted(AbortReason::UserRequested)
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    /// Commits the transaction by handing its sets to the batched
    /// [`CommitDriver`] (Figure 3). Consumes the transaction either way; on
    /// error the transaction has aborted and all its locks have been
    /// released.
    ///
    /// A commit returns as soon as every COMMIT-BACKUP is acked — the
    /// durability point — leaving the COMMIT-PRIMARY installs and the
    /// truncation watermark to the background backlog.
    pub fn commit(self) -> Result<CommitInfo, TxError> {
        match self.prepare_commit() {
            PreparedCommit::Done(result) => result,
            PreparedCommit::InFlight(driver) => driver.run(),
        }
    }

    /// Resolves the read-only fast path and plan building, handing back
    /// either a decided outcome or a ready [`CommitDriver`]. The driver owns
    /// the transaction's active-table registration, statistics and abort
    /// bookkeeping from here on — this is the shared front half of
    /// [`Transaction::commit`] and
    /// [`CommitPipeline::submit`](crate::CommitPipeline::submit).
    pub(crate) fn prepare_commit(mut self) -> PreparedCommit {
        // A transaction that never read still needs its snapshot in the
        // past: the write timestamp must exceed it, and the returned
        // `CommitInfo::read_ts` must be a snapshot other machines can use.
        self.settle();
        if self.is_read_only() {
            // Read-only transactions skip validation entirely:
            // committing is a no-op (Section 4.2).
            self.finish();
            EngineStats::bump(&self.engine.stats.commits_ro);
            return PreparedCommit::Done(Ok(CommitInfo {
                read_ts: self.read_ts,
                write_ts: None,
            }));
        }

        // Move the sets out of `self`: the driver owns them from here on
        // (including allocation rollback on abort — `Drop` sees them empty).
        let write_set = std::mem::take(&mut self.write_set);
        let free_set = std::mem::take(&mut self.free_set);
        let alloc_set = std::mem::take(&mut self.alloc_set);
        let read_set = std::mem::take(&mut self.read_set);

        let plan =
            match CommitPlan::build(&self.engine, &write_set, &free_set, &alloc_set, &read_set) {
                Ok(plan) => plan,
                Err(reason) => {
                    // Hand the allocations back to `self` so the shared
                    // rollback path (also used by `abort` and `Drop`) frees
                    // them.
                    self.alloc_set = alloc_set;
                    self.finish();
                    EngineStats::bump(&self.engine.stats.aborts_lock);
                    self.rollback_allocations();
                    self.alloc_set.clear();
                    return PreparedCommit::Done(Err(TxError::Aborted(reason)));
                }
            };
        // Transfer the active-table registration to the driver: it stays
        // live (pinning OAT at this transaction's read timestamp) until the
        // driver seals, which may happen on another `advance` call when the
        // commit rides a pipeline.
        self.finished = true;
        PreparedCommit::InFlight(CommitDriver::new(
            Arc::clone(&self.engine),
            self.opts,
            self.read_ts,
            read_set,
            alloc_set,
            plan,
            self.active,
        ))
    }

    // ------------------------------------------------------------------
    // Abort / cleanup helpers
    // ------------------------------------------------------------------

    fn rollback_allocations(&self) {
        for addr in &self.alloc_set {
            if let Ok((_p, region)) = self.engine.primary_region_of(*addr) {
                let _ = region.free(*addr);
            }
        }
    }

    fn execution_abort(&mut self, reason: AbortReason) -> TxError {
        EngineStats::bump(&self.engine.stats.aborts_execution);
        self.finish();
        self.rollback_allocations();
        TxError::Aborted(reason)
    }

    fn finish(&mut self) {
        if !self.finished {
            self.finished = true;
            self.engine.unregister_active(self.active);
        }
    }
}

impl Drop for Transaction {
    fn drop(&mut self) {
        if !self.finished {
            self.engine.unregister_active(self.active);
            self.rollback_allocations();
            self.finished = true;
        }
    }
}

impl std::fmt::Debug for Transaction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transaction")
            .field("serial", &self.serial)
            .field("read_ts", &self.read_ts)
            .field("reads", &self.read_set.len())
            .field("writes", &self.write_set.len())
            .finish()
    }
}
