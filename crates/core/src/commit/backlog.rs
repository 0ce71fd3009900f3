//! The commit-completion backlog: what a transaction leaves behind when its
//! **critical path** ends at the last COMMIT-BACKUP ack.
//!
//! FaRMv2 considers a transaction committed — and tells the application so —
//! as soon as every backup has acknowledged its COMMIT-BACKUP record. The
//! coordinator posts COMMIT-PRIMARY without waiting for it, and the driver
//! applies each primary's installs right there, on the thread that runs
//! every other verb's destination-side work (`CommitDriver`'s
//! `early_ack_finish`). What outlives the commit is cluster-wide and lives
//! here:
//!
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

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use farm_kernel::NodeHandle;
use farm_memory::{Addr, RegionId};
use farm_net::NodeId;
use parking_lot::Mutex;

use crate::engine::NodeEngine;
use crate::stats::EngineStats;

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

/// Cluster-shared commit-completion state; one per [`crate::Engine`], shared
/// by every [`NodeEngine`]. See the module docs.
pub(crate) struct Backlog {
    /// Handles of every machine, for applying log entries to replicas.
    nodes: Vec<Arc<NodeHandle>>,
    /// Per-node backup redo logs.
    logs: Vec<Mutex<VecDeque<LogEntry>>>,
    /// Per-coordinator truncation state.
    trunc: Vec<TruncState>,
}

impl Backlog {
    /// Builds the backlog for a cluster of `nodes`.
    pub(crate) fn new(nodes: Vec<Arc<NodeHandle>>) -> Backlog {
        let n = nodes.len();
        Backlog {
            nodes,
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

    /// Applies the intents of `entry` that fall in `region` (all of them
    /// when `None`) to `node`'s replicas; returns how many it applied.
    fn apply_entry(node: &NodeHandle, entry: &LogEntry, region: Option<RegionId>) -> usize {
        let mut applied = 0;
        for intent in &entry.intents {
            if region.is_some_and(|r| r != intent.addr.region) {
                continue;
            }
            node.regions().ensure(intent.addr.region).apply_replicated(
                intent.addr,
                intent.slab_size,
                entry.write_ts,
                &intent.data,
                intent.free,
            );
            applied += 1;
        }
        applied
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
                Self::apply_entry(node, e, None);
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
            Self::apply_entry(node, e, Some(region));
            e.intents.retain(|intent| intent.addr.region != region);
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
        let node = &self.nodes[new_backup.index()];
        let replica = node.regions().ensure(region);
        let mut applied = 0usize;
        for (i, log) in self.logs.iter().enumerate() {
            if i == new_backup.index() || !self.nodes[i].is_alive() {
                continue;
            }
            for entry in log.lock().iter() {
                applied += Self::apply_entry(node, entry, Some(region));
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
    use farm_kernel::{Cluster, ClusterConfig};

    use super::*;

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
