//! Per-node engine statistics (commits, aborts, latencies, waits) and
//! per-phase commit-protocol counters (batches sent, batch sizes, unwinds).

use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free per-node counters. Benchmarks snapshot and diff them.
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Committed read-write transactions.
    pub commits_rw: AtomicU64,
    /// Committed read-only transactions.
    pub commits_ro: AtomicU64,
    /// Aborts during execution (reads of locked objects, missing old
    /// versions, eager validation, stale snapshots).
    pub aborts_execution: AtomicU64,
    /// Aborts in the LOCK phase.
    pub aborts_lock: AtomicU64,
    /// Aborts in read validation.
    pub aborts_validation: AtomicU64,
    /// Aborts because old-version memory was exhausted (MV-ABORT policy).
    pub aborts_oldver_memory: AtomicU64,
    /// Total nanoseconds spent in commit-time uncertainty waits.
    pub write_wait_ns: AtomicU64,
    /// Number of commit-time uncertainty waits.
    pub write_waits: AtomicU64,
    /// Nanoseconds of commit-time uncertainty wait performed **while
    /// COMMIT-BACKUP replication was in flight** (the Figure 4 overlap):
    /// a subset of `write_wait_ns`, which it approaches.
    pub write_wait_overlapped_ns: AtomicU64,
    /// Old versions allocated.
    pub old_versions_allocated: AtomicU64,
    /// Old-version reads that had to walk the version chain.
    pub old_version_reads: AtomicU64,
    /// Times a writer blocked waiting for old-version memory (MV-BLOCK).
    pub oldver_blocks: AtomicU64,
    /// Times history was truncated due to memory pressure (MV-TRUNCATE).
    pub oldver_truncations: AtomicU64,
    /// Reads that exhausted their bounded-backoff retry budget on a locked
    /// head version and aborted.
    pub read_lock_retries_exhausted: AtomicU64,
    // ---- Batched read-path counters -------------------------------------
    /// `read_many` batches issued (one per destination primary per call).
    pub read_batches: AtomicU64,
    /// Objects carried by all `read_many` batches (mean batch size =
    /// `read_batch_objects / read_batches`).
    pub read_batch_objects: AtomicU64,
    /// Reads served by the local-bypass fast path (coordinator is the
    /// primary of the target region: no network message is metered).
    pub read_local_bypass: AtomicU64,
    // ---- Batched commit-protocol phase counters -------------------------
    /// LOCK batches sent (one per destination primary per commit attempt).
    pub lock_batches: AtomicU64,
    /// Objects carried by all LOCK batches (mean batch size =
    /// `lock_batch_objects / lock_batches`).
    pub lock_batch_objects: AtomicU64,
    /// VALIDATE batches sent (one per destination primary holding unwritten
    /// read-set objects, per commit attempt).
    pub validate_batches: AtomicU64,
    /// Objects carried by all VALIDATE batches (mean batch size =
    /// `validate_batch_objects / validate_batches`).
    pub validate_batch_objects: AtomicU64,
    /// COMMIT-BACKUP batches sent (one per backup destination).
    pub backup_batches: AtomicU64,
    /// COMMIT-PRIMARY batches sent (one per destination primary).
    pub primary_batches: AtomicU64,
    /// Abort unwinds executed by the commit driver (locks released across
    /// every destination, allocations rolled back).
    pub unwinds: AtomicU64,
    // ---- Commit-completion backlog counters ------------------------------
    /// Per-destination COMMIT-PRIMARY installs completed in the background
    /// (by the committing engine's opportunistic drain or by helpers).
    pub installs_background: AtomicU64,
    /// Times a reader / locker / validator hit a locked slot of an
    /// already-durable transaction and helped complete its install instead
    /// of backing off or aborting.
    pub install_helps: AtomicU64,
    /// Truncation watermark deliveries piggybacked on outgoing LOCK /
    /// VALIDATE / COMMIT-BACKUP verbs (zero standalone messages).
    pub truncations_piggybacked: AtomicU64,
    /// Standalone truncation flushes sent because a watermark sat idle past
    /// [`crate::EngineConfig::truncate_idle_flush`].
    pub truncate_flushes: AtomicU64,
    // ---- Failure-recovery counters --------------------------------------
    /// Decided (early-acked) transactions of a dead coordinator rolled
    /// forward by survivors: their pending COMMIT-PRIMARY installs were
    /// completed from the replicated state and their locks released.
    pub orphans_rolled_forward: AtomicU64,
    /// Undecided transactions unwound because their coordinator died before
    /// the durability point (locks released, allocations rolled back).
    pub orphans_rolled_back: AtomicU64,
    /// Retryable aborts absorbed by [`crate::NodeEngine::run_transaction`]'s
    /// bounded-backoff loop (the client observed latency, not a failure).
    pub retries_absorbed: AtomicU64,
    /// Re-replicated backups caught up from untruncated redo-log records
    /// after their state copy (commits that raced the copy).
    pub backups_caught_up: AtomicU64,
}

/// Point-in-time copy of [`EngineStats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineStatsSnapshot {
    /// Committed read-write transactions.
    pub commits_rw: u64,
    /// Committed read-only transactions.
    pub commits_ro: u64,
    /// Execution-phase aborts.
    pub aborts_execution: u64,
    /// LOCK-phase aborts.
    pub aborts_lock: u64,
    /// Validation aborts.
    pub aborts_validation: u64,
    /// MV-ABORT memory aborts.
    pub aborts_oldver_memory: u64,
    /// Total write-wait nanoseconds.
    pub write_wait_ns: u64,
    /// Number of write waits.
    pub write_waits: u64,
    /// Write-wait nanoseconds overlapped with in-flight replication.
    pub write_wait_overlapped_ns: u64,
    /// Old versions allocated.
    pub old_versions_allocated: u64,
    /// Chain-walking reads.
    pub old_version_reads: u64,
    /// MV-BLOCK stalls.
    pub oldver_blocks: u64,
    /// MV-TRUNCATE truncations.
    pub oldver_truncations: u64,
    /// Reads that exhausted the locked-object backoff budget.
    pub read_lock_retries_exhausted: u64,
    /// `read_many` batches issued.
    pub read_batches: u64,
    /// Objects across all `read_many` batches.
    pub read_batch_objects: u64,
    /// Reads served via the local-bypass fast path.
    pub read_local_bypass: u64,
    /// LOCK batches sent.
    pub lock_batches: u64,
    /// Objects across all LOCK batches.
    pub lock_batch_objects: u64,
    /// VALIDATE batches sent.
    pub validate_batches: u64,
    /// Objects across all VALIDATE batches.
    pub validate_batch_objects: u64,
    /// COMMIT-BACKUP batches sent.
    pub backup_batches: u64,
    /// COMMIT-PRIMARY batches sent.
    pub primary_batches: u64,
    /// Commit-driver abort unwinds.
    pub unwinds: u64,
    /// Background per-destination COMMIT-PRIMARY installs completed.
    pub installs_background: u64,
    /// Installs completed by helping readers/lockers/validators.
    pub install_helps: u64,
    /// Piggybacked truncation watermark deliveries.
    pub truncations_piggybacked: u64,
    /// Standalone idle truncation flushes.
    pub truncate_flushes: u64,
    /// Dead-coordinator transactions rolled forward by survivors.
    pub orphans_rolled_forward: u64,
    /// Undecided dead-coordinator transactions unwound.
    pub orphans_rolled_back: u64,
    /// Retryable aborts absorbed by the transparent retry wrapper.
    pub retries_absorbed: u64,
    /// Re-replicated backups caught up from redo logs.
    pub backups_caught_up: u64,
}

impl EngineStats {
    /// Takes a snapshot of all counters.
    pub fn snapshot(&self) -> EngineStatsSnapshot {
        EngineStatsSnapshot {
            commits_rw: self.commits_rw.load(Ordering::Relaxed),
            commits_ro: self.commits_ro.load(Ordering::Relaxed),
            aborts_execution: self.aborts_execution.load(Ordering::Relaxed),
            aborts_lock: self.aborts_lock.load(Ordering::Relaxed),
            aborts_validation: self.aborts_validation.load(Ordering::Relaxed),
            aborts_oldver_memory: self.aborts_oldver_memory.load(Ordering::Relaxed),
            write_wait_ns: self.write_wait_ns.load(Ordering::Relaxed),
            write_waits: self.write_waits.load(Ordering::Relaxed),
            write_wait_overlapped_ns: self.write_wait_overlapped_ns.load(Ordering::Relaxed),
            old_versions_allocated: self.old_versions_allocated.load(Ordering::Relaxed),
            old_version_reads: self.old_version_reads.load(Ordering::Relaxed),
            oldver_blocks: self.oldver_blocks.load(Ordering::Relaxed),
            oldver_truncations: self.oldver_truncations.load(Ordering::Relaxed),
            read_lock_retries_exhausted: self.read_lock_retries_exhausted.load(Ordering::Relaxed),
            read_batches: self.read_batches.load(Ordering::Relaxed),
            read_batch_objects: self.read_batch_objects.load(Ordering::Relaxed),
            read_local_bypass: self.read_local_bypass.load(Ordering::Relaxed),
            lock_batches: self.lock_batches.load(Ordering::Relaxed),
            lock_batch_objects: self.lock_batch_objects.load(Ordering::Relaxed),
            validate_batches: self.validate_batches.load(Ordering::Relaxed),
            validate_batch_objects: self.validate_batch_objects.load(Ordering::Relaxed),
            backup_batches: self.backup_batches.load(Ordering::Relaxed),
            primary_batches: self.primary_batches.load(Ordering::Relaxed),
            unwinds: self.unwinds.load(Ordering::Relaxed),
            installs_background: self.installs_background.load(Ordering::Relaxed),
            install_helps: self.install_helps.load(Ordering::Relaxed),
            truncations_piggybacked: self.truncations_piggybacked.load(Ordering::Relaxed),
            truncate_flushes: self.truncate_flushes.load(Ordering::Relaxed),
            orphans_rolled_forward: self.orphans_rolled_forward.load(Ordering::Relaxed),
            orphans_rolled_back: self.orphans_rolled_back.load(Ordering::Relaxed),
            retries_absorbed: self.retries_absorbed.load(Ordering::Relaxed),
            backups_caught_up: self.backups_caught_up.load(Ordering::Relaxed),
        }
    }

    /// Bumps one counter by `n` (convenience used by the commit driver).
    #[inline]
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Bumps one counter by 1.
    #[inline]
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

impl EngineStatsSnapshot {
    /// Total commits.
    pub fn commits(&self) -> u64 {
        self.commits_rw + self.commits_ro
    }

    /// Total aborts.
    pub fn aborts(&self) -> u64 {
        self.aborts_execution
            + self.aborts_lock
            + self.aborts_validation
            + self.aborts_oldver_memory
    }

    /// Abort rate in [0, 1] over commits + aborts (0 when idle).
    pub fn abort_rate(&self) -> f64 {
        let total = self.commits() + self.aborts();
        if total == 0 {
            0.0
        } else {
            self.aborts() as f64 / total as f64
        }
    }

    /// Mean commit-time uncertainty wait in nanoseconds.
    pub fn mean_write_wait_ns(&self) -> f64 {
        if self.write_waits == 0 {
            0.0
        } else {
            self.write_wait_ns as f64 / self.write_waits as f64
        }
    }

    /// Mean number of objects per LOCK batch (0 when no batches were sent).
    pub fn mean_lock_batch_size(&self) -> f64 {
        if self.lock_batches == 0 {
            0.0
        } else {
            self.lock_batch_objects as f64 / self.lock_batches as f64
        }
    }

    /// Mean number of objects per `read_many` batch (0 when none were sent).
    pub fn mean_read_batch_size(&self) -> f64 {
        if self.read_batches == 0 {
            0.0
        } else {
            self.read_batch_objects as f64 / self.read_batches as f64
        }
    }

    /// Mean number of objects per VALIDATE batch (0 when none were sent).
    pub fn mean_validate_batch_size(&self) -> f64 {
        if self.validate_batches == 0 {
            0.0
        } else {
            self.validate_batch_objects as f64 / self.validate_batches as f64
        }
    }

    /// Element-wise difference `self - earlier`.
    pub fn delta(&self, earlier: &EngineStatsSnapshot) -> EngineStatsSnapshot {
        EngineStatsSnapshot {
            commits_rw: self.commits_rw - earlier.commits_rw,
            commits_ro: self.commits_ro - earlier.commits_ro,
            aborts_execution: self.aborts_execution - earlier.aborts_execution,
            aborts_lock: self.aborts_lock - earlier.aborts_lock,
            aborts_validation: self.aborts_validation - earlier.aborts_validation,
            aborts_oldver_memory: self.aborts_oldver_memory - earlier.aborts_oldver_memory,
            write_wait_ns: self.write_wait_ns - earlier.write_wait_ns,
            write_waits: self.write_waits - earlier.write_waits,
            write_wait_overlapped_ns: self.write_wait_overlapped_ns
                - earlier.write_wait_overlapped_ns,
            old_versions_allocated: self.old_versions_allocated - earlier.old_versions_allocated,
            old_version_reads: self.old_version_reads - earlier.old_version_reads,
            oldver_blocks: self.oldver_blocks - earlier.oldver_blocks,
            oldver_truncations: self.oldver_truncations - earlier.oldver_truncations,
            read_lock_retries_exhausted: self.read_lock_retries_exhausted
                - earlier.read_lock_retries_exhausted,
            read_batches: self.read_batches - earlier.read_batches,
            read_batch_objects: self.read_batch_objects - earlier.read_batch_objects,
            read_local_bypass: self.read_local_bypass - earlier.read_local_bypass,
            lock_batches: self.lock_batches - earlier.lock_batches,
            lock_batch_objects: self.lock_batch_objects - earlier.lock_batch_objects,
            validate_batches: self.validate_batches - earlier.validate_batches,
            validate_batch_objects: self.validate_batch_objects - earlier.validate_batch_objects,
            backup_batches: self.backup_batches - earlier.backup_batches,
            primary_batches: self.primary_batches - earlier.primary_batches,
            unwinds: self.unwinds - earlier.unwinds,
            installs_background: self.installs_background - earlier.installs_background,
            install_helps: self.install_helps - earlier.install_helps,
            truncations_piggybacked: self.truncations_piggybacked - earlier.truncations_piggybacked,
            truncate_flushes: self.truncate_flushes - earlier.truncate_flushes,
            orphans_rolled_forward: self.orphans_rolled_forward - earlier.orphans_rolled_forward,
            orphans_rolled_back: self.orphans_rolled_back - earlier.orphans_rolled_back,
            retries_absorbed: self.retries_absorbed - earlier.retries_absorbed,
            backups_caught_up: self.backups_caught_up - earlier.backups_caught_up,
        }
    }

    /// Merges two snapshots by summing every counter (aggregating nodes).
    pub fn merged(&self, other: &EngineStatsSnapshot) -> EngineStatsSnapshot {
        EngineStatsSnapshot {
            commits_rw: self.commits_rw + other.commits_rw,
            commits_ro: self.commits_ro + other.commits_ro,
            aborts_execution: self.aborts_execution + other.aborts_execution,
            aborts_lock: self.aborts_lock + other.aborts_lock,
            aborts_validation: self.aborts_validation + other.aborts_validation,
            aborts_oldver_memory: self.aborts_oldver_memory + other.aborts_oldver_memory,
            write_wait_ns: self.write_wait_ns + other.write_wait_ns,
            write_waits: self.write_waits + other.write_waits,
            write_wait_overlapped_ns: self.write_wait_overlapped_ns
                + other.write_wait_overlapped_ns,
            old_versions_allocated: self.old_versions_allocated + other.old_versions_allocated,
            old_version_reads: self.old_version_reads + other.old_version_reads,
            oldver_blocks: self.oldver_blocks + other.oldver_blocks,
            oldver_truncations: self.oldver_truncations + other.oldver_truncations,
            read_lock_retries_exhausted: self.read_lock_retries_exhausted
                + other.read_lock_retries_exhausted,
            read_batches: self.read_batches + other.read_batches,
            read_batch_objects: self.read_batch_objects + other.read_batch_objects,
            read_local_bypass: self.read_local_bypass + other.read_local_bypass,
            lock_batches: self.lock_batches + other.lock_batches,
            lock_batch_objects: self.lock_batch_objects + other.lock_batch_objects,
            validate_batches: self.validate_batches + other.validate_batches,
            validate_batch_objects: self.validate_batch_objects + other.validate_batch_objects,
            backup_batches: self.backup_batches + other.backup_batches,
            primary_batches: self.primary_batches + other.primary_batches,
            unwinds: self.unwinds + other.unwinds,
            installs_background: self.installs_background + other.installs_background,
            install_helps: self.install_helps + other.install_helps,
            truncations_piggybacked: self.truncations_piggybacked + other.truncations_piggybacked,
            truncate_flushes: self.truncate_flushes + other.truncate_flushes,
            orphans_rolled_forward: self.orphans_rolled_forward + other.orphans_rolled_forward,
            orphans_rolled_back: self.orphans_rolled_back + other.orphans_rolled_back,
            retries_absorbed: self.retries_absorbed + other.retries_absorbed,
            backups_caught_up: self.backups_caught_up + other.backups_caught_up,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta_and_merge() {
        let s = EngineStats::default();
        s.commits_rw.store(10, Ordering::Relaxed);
        s.aborts_lock.store(2, Ordering::Relaxed);
        s.lock_batches.store(4, Ordering::Relaxed);
        s.lock_batch_objects.store(12, Ordering::Relaxed);
        let a = s.snapshot();
        s.commits_rw.store(15, Ordering::Relaxed);
        s.lock_batches.store(6, Ordering::Relaxed);
        let b = s.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.commits_rw, 5);
        assert_eq!(d.aborts_lock, 0);
        assert_eq!(d.lock_batches, 2);
        let m = a.merged(&b);
        assert_eq!(m.commits_rw, 25);
        assert_eq!(m.aborts(), 4);
        assert_eq!(m.lock_batches, 10);
        assert_eq!(m.lock_batch_objects, 24);
    }

    #[test]
    fn abort_rate_and_mean_wait() {
        let mut snap = EngineStatsSnapshot {
            commits_rw: 98,
            aborts_lock: 2,
            ..Default::default()
        };
        assert!((snap.abort_rate() - 0.02).abs() < 1e-9);
        snap.write_waits = 4;
        snap.write_wait_ns = 40_000;
        assert_eq!(snap.mean_write_wait_ns(), 10_000.0);
        let idle = EngineStatsSnapshot::default();
        assert_eq!(idle.abort_rate(), 0.0);
        assert_eq!(idle.mean_write_wait_ns(), 0.0);
    }

    #[test]
    fn mean_lock_batch_size() {
        let snap = EngineStatsSnapshot {
            lock_batches: 4,
            lock_batch_objects: 10,
            ..Default::default()
        };
        assert_eq!(snap.mean_lock_batch_size(), 2.5);
        assert_eq!(EngineStatsSnapshot::default().mean_lock_batch_size(), 0.0);
    }

    #[test]
    fn mean_read_and_validate_batch_sizes() {
        let snap = EngineStatsSnapshot {
            read_batches: 2,
            read_batch_objects: 16,
            validate_batches: 3,
            validate_batch_objects: 9,
            ..Default::default()
        };
        assert_eq!(snap.mean_read_batch_size(), 8.0);
        assert_eq!(snap.mean_validate_batch_size(), 3.0);
        assert_eq!(EngineStatsSnapshot::default().mean_read_batch_size(), 0.0);
        assert_eq!(
            EngineStatsSnapshot::default().mean_validate_batch_size(),
            0.0
        );
    }
}
