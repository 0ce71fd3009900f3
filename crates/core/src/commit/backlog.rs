//! The commit-completion backlog: everything a transaction leaves behind
//! when its **critical path** ends at the last COMMIT-BACKUP ack.
//!
//! FaRMv2 considers a transaction committed — and tells the application so —
//! as soon as every backup has acknowledged its COMMIT-BACKUP record;
//! installing at the primaries and truncating the logs are background work.
//! This module holds that background state for the whole cluster:
//!
//! * **Pending installs** ([`PendingInstall`]): the held locks and plan of an
//!   early-acked transaction, split per destination primary by the plan's
//!   destination table. Each destination is *claimable* exactly once (an
//!   atomic flag in its table row), so the
//!   committing engine's opportunistic drain and any number of helping
//!   readers race safely: whoever claims a destination applies its installs
//!   in ascending address order and unlocks. An address-level index lets a
//!   reader (or locker, or validator) that hits a locked slot of a durable
//!   transaction find the pending install and **help complete it** instead
//!   of backing off or aborting.
//! * **Backup redo logs**: the COMMIT-BACKUP record of each backup
//!   destination is materialized here when the replication phase completes —
//!   exactly the log a real backup holds between COMMIT-BACKUP and
//!   truncation. Truncation *applies* a log entry to the backup's replica
//!   (timestamp-guarded, so replays and out-of-order deliveries never
//!   regress a version) and discards it. When a primary fails, the promoted
//!   backup replays its untruncated entries before serving — committed
//!   transactions whose COMMIT-PRIMARY never landed are therefore still
//!   recovered from the log, never lost and never observed torn.
//! * **Truncation watermarks** ([`Backlog::deliver_truncation`]): TRUNCATE is
//!   no longer a standalone message. Each coordinator tracks the highest
//!   write timestamp below which *all* of its transactions have completed
//!   their installs (a contiguity floor, so a slow transaction holds the
//!   watermark back), and piggybacks that `truncate_below` value on its next
//!   outgoing LOCK / VALIDATE / COMMIT-BACKUP verb to each destination. A
//!   timed flusher covers idle connections. Watermarks are raised with
//!   `fetch_max` and can never regress; an abort after timestamp acquisition
//!   withdraws only its own reservation, so earlier transactions' truncates
//!   are never lost.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use farm_kernel::NodeHandle;
use farm_memory::{Addr, RegionId};
use farm_net::{NodeId, PhaseLabel};
use parking_lot::Mutex;

use crate::engine::NodeEngine;
use crate::stats::EngineStats;

use super::driver::{install_held_lock, HeldLock};
use super::plan::CommitPlan;

/// What [`Backlog::help_install`] found behind a locked slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Help {
    /// No durable transaction holds the lock: ordinary contention.
    NotPending,
    /// This thread applied the install and released the lock: retry at
    /// once.
    Applied,
    /// Another thread has claimed the install and not applied it yet: the
    /// lock is about to go, but only that thread can release it, so back
    /// off before retrying.
    Claimed,
}

/// Bounded exponential backoff for a thread that observes a lock it cannot
/// release itself: a read of a locked head version, or a locker waiting on
/// an install another thread has claimed ([`Help::Claimed`]).
///
/// The holder of a commit lock releases it within a few microseconds (install
/// or unwind), so the ladder starts with cheap spins and escalates to yields
/// and short sleeps; once the budget is exhausted the caller aborts (a read
/// is counted under `read_lock_retries_exhausted`).
pub(crate) struct LockBackoff {
    budget: u32,
    attempt: u32,
}

impl LockBackoff {
    pub(crate) fn new(budget: u32) -> LockBackoff {
        LockBackoff { budget, attempt: 0 }
    }

    /// Waits out one backoff step. Returns `false` once the retry budget is
    /// exhausted (the caller must abort instead of retrying again).
    pub(crate) fn wait(&mut self) -> bool {
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

/// One object's worth of a replicated COMMIT-BACKUP record.
pub(crate) struct RecordIntent {
    /// The object's global address.
    pub addr: Addr,
    /// Whether the transaction freed (rather than wrote) the object.
    pub free: bool,
    /// Payload to install (empty for frees).
    pub data: Bytes,
    /// The primary's slab size class, mirrored when the backup materializes
    /// the slab; 0 marks an unresolvable slab (skipped on apply).
    pub slab_size: usize,
}

/// One backup destination's redo-log entry for one committed transaction.
pub(crate) struct LogEntry {
    /// The committing coordinator (truncation watermarks are per
    /// coordinator).
    pub coordinator: NodeId,
    /// The transaction's write timestamp.
    pub write_ts: u64,
    /// The intents this destination backs up.
    pub intents: Vec<RecordIntent>,
}

/// A durably committed transaction whose COMMIT-PRIMARY installs have not
/// all landed yet (stage 2 of the commit lifecycle). Holds the plan and the
/// locks; dropped once every destination has been claimed and processed.
///
/// Its destinations are the rows of the plan's destination table that took
/// locks; each is claimable exactly once (the row's `install_claimed`).
pub(crate) struct PendingInstall {
    coordinator: NodeId,
    write_ts: u64,
    multi_version: bool,
    plan: CommitPlan,
    /// The held locks, ascending by global address — hence by group.
    locked: Vec<HeldLock>,
    /// Destinations not yet processed.
    remaining: AtomicUsize,
}

impl PendingInstall {
    /// Packages an early-acked commit's leftover state. `locked` must be in
    /// ascending global address order (as the LOCK phase leaves it).
    pub(crate) fn new(
        coordinator: NodeId,
        write_ts: u64,
        multi_version: bool,
        plan: CommitPlan,
        locked: Vec<HeldLock>,
    ) -> PendingInstall {
        let remaining = AtomicUsize::new(Self::dests(&plan).count());
        PendingInstall {
            coordinator,
            write_ts,
            multi_version,
            plan,
            locked,
            remaining,
        }
    }

    /// The indices of the destination rows that hold locks to install.
    fn dests(plan: &CommitPlan) -> impl Iterator<Item = usize> + '_ {
        (0..plan.dest_table().len()).filter(|&di| plan.dest_table()[di].lock_ops > 0)
    }

    /// The coordinator that committed this transaction.
    pub(crate) fn coordinator(&self) -> NodeId {
        self.coordinator
    }

    /// The transaction's write timestamp.
    pub(crate) fn write_ts(&self) -> u64 {
        self.write_ts
    }

    /// Number of destination primaries still referenced by this install.
    pub(crate) fn dest_count(&self) -> usize {
        Self::dests(&self.plan).count()
    }

    /// The held locks of destination `di`, group by group, ascending.
    fn locks_of(&self, di: usize) -> impl Iterator<Item = &HeldLock> + '_ {
        let dest = &self.plan.dest_table()[di];
        self.plan.primary_groups(dest).iter().flat_map(move |&gi| {
            let start = self.locked.partition_point(|h| h.group < gi);
            let end = self.locked.partition_point(|h| h.group <= gi);
            &self.locked[start..end]
        })
    }

    fn addr_of(&self, held: &HeldLock) -> Addr {
        self.plan.intents()[held.intent].addr
    }

    /// Claims and processes every destination not already claimed; returns
    /// how many this call processed.
    pub(crate) fn install_all(&self, engine: &NodeEngine, backlog: &Backlog) -> usize {
        Self::dests(&self.plan)
            .filter(|&di| self.install_dest(engine, backlog, di))
            .count()
    }

    /// Claims and processes destination `di`: applies its installs in
    /// ascending address order (skipping a destination whose node has died —
    /// the data survives in the backup logs), withdraws the address-index
    /// entries, and, when this was the last destination, raises the
    /// coordinator's truncation watermark. Returns whether *this* call did
    /// the work (false when another thread already claimed it).
    pub(crate) fn install_dest(&self, engine: &NodeEngine, backlog: &Backlog, di: usize) -> bool {
        let dest = &self.plan.dest_table()[di];
        if dest.install_claimed.swap(true, Ordering::AcqRel) {
            return false;
        }
        let started = Instant::now();
        let alive = engine.cluster().node(dest.node).is_alive();
        for held in self.locks_of(di) {
            if alive {
                install_held_lock(engine, &self.plan, held, self.write_ts, self.multi_version);
            }
            backlog.index_remove(self.addr_of(held));
        }
        EngineStats::bump(&engine.stats.installs_background);
        engine.meter.stats().phases().record(
            PhaseLabel::InstallPrimary,
            started.elapsed().as_nanos() as u64,
        );
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            backlog.trunc_complete(self.coordinator, self.write_ts);
        }
        true
    }
}

/// Per-coordinator truncation state: which of its write timestamps are still
/// pending installation, the resulting `truncate_below` watermark, and how
/// far each destination has been brought up to it.
struct TruncState {
    /// Write timestamps reserved (at acquisition) but not yet fully
    /// installed, with multiplicity (timestamps are nanoseconds and *can*
    /// collide under a zero-latency run).
    inflight: Mutex<BTreeMap<u64, u32>>,
    /// Largest write timestamp ever reserved by this coordinator.
    ceiling: AtomicU64,
    /// `truncate_below`: every transaction of this coordinator with a write
    /// timestamp at or below this value has completed its installs (or
    /// aborted). Monotone.
    watermark: AtomicU64,
    /// Per-destination watermark already delivered (piggybacked or flushed).
    delivered: Vec<AtomicU64>,
    /// The watermark the idle flusher saw on its previous pass: one that
    /// has not moved since is idle.
    flusher_saw: AtomicU64,
}

/// One address-index entry: the pending install covering the address and
/// the index of the destination that owns it.
type IndexedInstall = (Arc<PendingInstall>, usize);

/// Cluster-shared commit-completion state; one per [`crate::Engine`], shared
/// by every [`NodeEngine`]. See the module docs.
pub(crate) struct Backlog {
    /// Handles of every machine, for applying log entries to replicas.
    nodes: Vec<Arc<NodeHandle>>,
    /// Locked-address → (pending install, destination index), sharded so
    /// commit enqueue/withdraw and reader lookups don't contend on one lock.
    index: Vec<Mutex<HashMap<Addr, IndexedInstall>>>,
    /// Per-node backup redo logs.
    logs: Vec<Mutex<VecDeque<LogEntry>>>,
    /// Per-coordinator truncation state.
    trunc: Vec<TruncState>,
}

const INDEX_SHARDS: usize = 64;

impl Backlog {
    /// Builds the backlog for a cluster of `nodes`.
    pub(crate) fn new(nodes: Vec<Arc<NodeHandle>>) -> Backlog {
        let n = nodes.len();
        Backlog {
            nodes,
            index: (0..INDEX_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            logs: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
            trunc: (0..n)
                .map(|_| TruncState {
                    inflight: Mutex::new(BTreeMap::new()),
                    ceiling: AtomicU64::new(0),
                    watermark: AtomicU64::new(0),
                    delivered: (0..n).map(|_| AtomicU64::new(0)).collect(),
                    flusher_saw: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    fn shard_of(addr: Addr) -> usize {
        // Cheap mix of the address components; slots dominate spread.
        let h = (addr.region.0 as usize)
            .wrapping_mul(31)
            .wrapping_add(addr.slab as usize)
            .wrapping_mul(31)
            .wrapping_add(addr.slot as usize);
        h % INDEX_SHARDS
    }

    /// Publishes the address index of a pending install (called before the
    /// early ack is reported, so any reader that observes the still-held
    /// locks can already find the entry).
    pub(crate) fn index_insert(&self, pi: &Arc<PendingInstall>) {
        for di in PendingInstall::dests(&pi.plan) {
            for held in pi.locks_of(di) {
                let addr = pi.addr_of(held);
                self.index[Self::shard_of(addr)]
                    .lock()
                    .insert(addr, (Arc::clone(pi), di));
            }
        }
    }

    fn index_remove(&self, addr: Addr) {
        self.index[Self::shard_of(addr)].lock().remove(&addr);
    }

    /// A reader / locker / validator hit a locked slot: if the lock belongs
    /// to an already-durable transaction, claim and apply its destination's
    /// install — or find that another thread already claimed it. See
    /// [`Help`] for what the caller does next.
    pub(crate) fn help_install(&self, engine: &NodeEngine, addr: Addr) -> Help {
        let entry = self.index[Self::shard_of(addr)].lock().get(&addr).cloned();
        let Some((pi, di)) = entry else {
            return Help::NotPending;
        };
        EngineStats::bump(&engine.stats.install_helps);
        if pi.install_dest(engine, self, di) {
            Help::Applied
        } else {
            Help::Claimed
        }
    }

    // ------------------------------------------------------------------
    // Backup redo logs
    // ------------------------------------------------------------------

    /// Materializes one COMMIT-BACKUP record at destination `dest` (called
    /// when the replication phase completes — the point at which a real
    /// backup has the record in its log).
    pub(crate) fn deposit(&self, dest: NodeId, entry: LogEntry) {
        self.logs[dest.index()].lock().push_back(entry);
    }

    /// Number of untruncated log entries held at `dest` (tests/reporting).
    pub(crate) fn log_len(&self, dest: NodeId) -> usize {
        self.logs[dest.index()].lock().len()
    }

    /// Raises the watermark delivered from `coordinator` to `dest` to `below`
    /// and applies-and-discards every covered entry; returns false when
    /// `below` had already been delivered. Both happen under the log lock, so
    /// whoever finds the watermark delivered and then reads the log (which
    /// takes the same lock) never sees an entry it covers. Entries of a dead
    /// destination are discarded unapplied (its replicas are gone; promotion
    /// already replayed what it needed).
    fn truncate_log(&self, coordinator: NodeId, dest: NodeId, below: u64) -> bool {
        let node = &self.nodes[dest.index()];
        let alive = node.is_alive();
        let mut log = self.logs[dest.index()].lock();
        let delivered = &self.trunc[coordinator.index()].delivered[dest.index()];
        if delivered.fetch_max(below, Ordering::AcqRel) >= below {
            return false;
        }
        log.retain(|e| {
            if e.coordinator != coordinator || e.write_ts > below {
                return true;
            }
            if alive {
                for intent in &e.intents {
                    let replica = node.regions().ensure(intent.addr.region);
                    replica.apply_replicated(
                        intent.addr,
                        intent.slab_size,
                        e.write_ts,
                        &intent.data,
                        intent.free,
                    );
                }
            }
            false
        });
        true
    }

    /// Replays the untruncated log entries a just-promoted primary holds for
    /// `region`, making every durably committed (early-acked) transaction
    /// visible at the new primary even if its COMMIT-PRIMARY never landed at
    /// the old one. Applied intents are removed from their entries; the
    /// timestamp guard makes double-application (a later watermark delivery
    /// covering the same record) harmless.
    pub(crate) fn recover_region(&self, region: RegionId, new_primary: NodeId) {
        let node = &self.nodes[new_primary.index()];
        let replica = node.regions().ensure(region);
        let mut log = self.logs[new_primary.index()].lock();
        log.retain_mut(|e| {
            e.intents.retain(|intent| {
                if intent.addr.region != region {
                    return true;
                }
                replica.apply_replicated(
                    intent.addr,
                    intent.slab_size,
                    e.write_ts,
                    &intent.data,
                    intent.free,
                );
                false
            });
            !e.intents.is_empty()
        });
        drop(log);
        // The replays may have materialized slots the promotion-time bitmap
        // rebuild did not see.
        replica.rebuild_allocation_state();
    }

    /// Catches a freshly re-replicated backup up from the redo logs: every
    /// untruncated intent for `region` held at any *other* live node is
    /// applied to the new backup's replica. Entries stay in their owners'
    /// logs (truncation still has to apply them at those destinations); the
    /// timestamp guard in `apply_replicated` makes the extra application —
    /// and any overlap with the state copy — idempotent. Returns how many
    /// intents were replayed.
    pub(crate) fn catch_up_region(&self, region: RegionId, new_backup: NodeId) -> usize {
        let replica = self.nodes[new_backup.index()].regions().ensure(region);
        let mut applied = 0usize;
        for (i, log) in self.logs.iter().enumerate() {
            if i == new_backup.index() || !self.nodes[i].is_alive() {
                continue;
            }
            let log = log.lock();
            for entry in log.iter() {
                for intent in entry.intents.iter().filter(|it| it.addr.region == region) {
                    replica.apply_replicated(
                        intent.addr,
                        intent.slab_size,
                        entry.write_ts,
                        &intent.data,
                        intent.free,
                    );
                    applied += 1;
                }
            }
        }
        if applied > 0 {
            replica.rebuild_allocation_state();
        }
        applied
    }

    // ------------------------------------------------------------------
    // Truncation watermarks
    // ------------------------------------------------------------------

    /// Reserves `write_ts` in the coordinator's in-flight set (called at
    /// write-timestamp acquisition, before any backup record can exist, so
    /// the watermark can never overtake an undeposited record).
    pub(crate) fn trunc_begin(&self, coordinator: NodeId, write_ts: u64) {
        let st = &self.trunc[coordinator.index()];
        *st.inflight.lock().entry(write_ts).or_insert(0) += 1;
        st.ceiling.fetch_max(write_ts, Ordering::AcqRel);
    }

    /// Withdraws a reservation — either because the transaction's installs
    /// all completed or because it aborted after acquiring its timestamp —
    /// and raises the coordinator's `truncate_below` watermark to the new
    /// contiguity floor. The watermark is raised with `fetch_max`: it can
    /// never regress, and an abort can only *unblock* earlier transactions'
    /// truncates, never lose them.
    pub(crate) fn trunc_complete(&self, coordinator: NodeId, write_ts: u64) {
        let st = &self.trunc[coordinator.index()];
        let mut inflight = st.inflight.lock();
        if let Some(count) = inflight.get_mut(&write_ts) {
            *count -= 1;
            if *count == 0 {
                inflight.remove(&write_ts);
            }
        }
        let wm = inflight
            .keys()
            .next()
            .map(|&m| m.saturating_sub(1))
            .unwrap_or_else(|| st.ceiling.load(Ordering::Acquire));
        drop(inflight);
        st.watermark.fetch_max(wm, Ordering::AcqRel);
    }

    /// The coordinator's current `truncate_below` watermark.
    pub(crate) fn watermark(&self, coordinator: NodeId) -> u64 {
        self.trunc[coordinator.index()]
            .watermark
            .load(Ordering::Acquire)
    }

    /// The watermark already delivered from `coordinator` to `dest`.
    pub(crate) fn delivered(&self, coordinator: NodeId, dest: NodeId) -> u64 {
        self.trunc[coordinator.index()].delivered[dest.index()].load(Ordering::Acquire)
    }

    /// Delivers the coordinator's current watermark to `dest`, applying (and
    /// discarding) the covered backup-log entries. `standalone` marks an
    /// idle flush, which costs one real (metered) message; a piggybacked
    /// delivery rides a verb the commit protocol was sending anyway and
    /// costs none.
    pub(crate) fn deliver_truncation(&self, engine: &NodeEngine, dest: NodeId, standalone: bool) {
        let coordinator = engine.id();
        let st = &self.trunc[coordinator.index()];
        let w = st.watermark.load(Ordering::Acquire);
        if st.delivered[dest.index()].load(Ordering::Acquire) >= w
            || !self.truncate_log(coordinator, dest, w)
        {
            return;
        }
        if standalone {
            // A real TRUNCATE message: the idle-connection fallback.
            engine.meter.rpc_batch_deferred(1, 16);
            EngineStats::bump(&engine.stats.truncate_flushes);
        } else {
            EngineStats::bump(&engine.stats.truncations_piggybacked);
        }
    }

    /// Sends standalone flushes for every destination still behind a
    /// watermark that has not moved since the previous call. Run once per
    /// pass by the engine's background thread, so a watermark is flushed
    /// after sitting idle for one pass; under steady traffic it keeps
    /// moving, the piggybacked deliveries win, and no standalone message is
    /// ever sent.
    pub(crate) fn flush_idle(&self, engine: &NodeEngine) {
        let coordinator = engine.id();
        let st = &self.trunc[coordinator.index()];
        let w = st.watermark.load(Ordering::Acquire);
        if st.flusher_saw.swap(w, Ordering::AcqRel) != w {
            return;
        }
        for dest in 0..st.delivered.len() {
            if st.delivered[dest].load(Ordering::Acquire) < w {
                self.deliver_truncation(engine, NodeId(dest as u32), true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use farm_kernel::{Cluster, ClusterConfig};

    use super::*;
    use crate::engine::Engine;
    use crate::opts::EngineConfig;

    #[test]
    fn a_blind_overwrite_waits_for_an_install_another_thread_claimed() {
        // No background pass for an hour: only this test drains installs.
        let config = EngineConfig {
            gc_interval: Duration::from_secs(3600),
            ..EngineConfig::default()
        };
        let engine = Engine::start_cluster(ClusterConfig::test(3), config);
        let (first, second) = (engine.node(NodeId(0)), engine.node(NodeId(1)));
        let mut setup = first.begin();
        let addr = setup
            .alloc_in(first.home_region().unwrap(), vec![0u8; 16])
            .unwrap();
        setup.commit().unwrap();
        engine.quiesce();

        // An early-acked commit leaves its install pending, and some thread
        // claims that install and is descheduled before applying it.
        let mut tx = first.begin();
        tx.write(addr, vec![1u8; 16]).unwrap();
        tx.commit().unwrap();
        let (install, di) = first.backlog().index[Backlog::shard_of(addr)]
            .lock()
            .get(&addr)
            .cloned()
            .expect("install pending");
        let claimed = &install.plan.dest_table()[di].install_claimed;
        claimed.store(true, Ordering::Release);
        let claimer = {
            let (first, second) = (Arc::clone(&first), Arc::clone(&second));
            std::thread::spawn(move || {
                // Resume as soon as the overwrite below has found the
                // claimed install (and is backing off on it). Whichever of
                // this thread and the overwrite's next help takes the
                // released claim applies the install.
                let deadline = Instant::now() + Duration::from_secs(1);
                while second.stats().install_helps == 0 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                let claimed = &install.plan.dest_table()[di].install_claimed;
                claimed.store(false, Ordering::Release);
                install.install_dest(&first, first.backlog(), di);
            })
        };

        // From another coordinator: a blind overwrite of the same object.
        let mut overwrite = second.begin();
        overwrite.overwrite(addr, vec![2u8; 16]).unwrap();
        let result = overwrite.commit();
        claimer.join().unwrap();
        assert!(result.is_ok(), "blind overwrite failed: {result:?}");
        engine.quiesce();
        let mut check = second.begin();
        assert_eq!(&check.read(addr).unwrap()[..], &[2u8; 16]);
        check.commit().unwrap();
        engine.shutdown();
    }

    #[test]
    fn catch_up_region_replays_other_live_logs_without_regressing_or_consuming_them() {
        let cluster = Cluster::start(ClusterConfig::test(4));
        let backlog = Backlog::new(cluster.nodes().to_vec());
        let region = cluster.regions()[0];
        let (owner, new_backup) = (NodeId(1), NodeId(3));
        let at = |slot| Addr {
            region,
            slab: 0,
            slot,
        };
        let (fresh, copied) = (at(1), at(2));
        let record = |write_ts, intents: &[Addr]| LogEntry {
            coordinator: NodeId(0),
            write_ts,
            intents: intents
                .iter()
                .map(|&addr| RecordIntent {
                    addr,
                    free: false,
                    data: Bytes::from(vec![write_ts as u8; 16]),
                    slab_size: 16,
                })
                .collect(),
        };
        // The paced state copy already gave the new backup `copied` at 30.
        let replica = cluster.node(new_backup).regions().ensure(region);
        replica.apply_replicated(copied, 16, 30, &Bytes::from(vec![30u8; 16]), false);
        // Another live node's log still holds older records of both objects.
        backlog.deposit(owner, record(10, &[fresh, copied]));
        backlog.deposit(owner, record(20, &[fresh]));

        assert_eq!(backlog.catch_up_region(region, new_backup), 3);
        let state = |addr| {
            let slot = replica.slot(addr).expect("slot materialized");
            (slot.header_snapshot().ts, slot.raw_data()[0])
        };
        assert_eq!(state(fresh), (20, 20), "the newest logged record applies");
        assert_eq!(
            state(copied),
            (30, 30),
            "an older record overwrote the copy"
        );
        // Truncation still has to apply the entries at their owner.
        assert_eq!(backlog.log_len(owner), 2);
        cluster.shutdown();
    }
}
