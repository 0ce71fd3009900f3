//! Per-node engine statistics (commits, aborts, latencies, waits) and
//! per-phase commit-protocol counters (batches sent, batch sizes, unwinds).
//!
//! Every counter is listed once, in the `counters!` table below, which
//! generates [`EngineStats`], [`EngineStatsSnapshot`] and the per-counter
//! code of `snapshot`, `delta` and `merged`: adding a counter is one line in
//! the table. Counters only grow; an interval is measured with two snapshots
//! and [`EngineStatsSnapshot::delta`].

use std::sync::atomic::{AtomicU64, Ordering};

/// Generates the live counters, their snapshot and the counter-by-counter
/// code from one list of `/// doc` + `name` entries.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Lock-free per-node counters. Benchmarks snapshot and diff them.
        #[derive(Debug, Default)]
        pub struct EngineStats {
            $($(#[$doc])* pub $name: AtomicU64,)*
        }

        /// Point-in-time copy of [`EngineStats`].
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct EngineStatsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl EngineStats {
            /// Takes a snapshot of all counters.
            pub fn snapshot(&self) -> EngineStatsSnapshot {
                EngineStatsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }
        }

        impl EngineStatsSnapshot {
            /// Applies `f` counter by counter to `self` and `other`.
            fn zip(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
                EngineStatsSnapshot {
                    $($name: f(self.$name, other.$name),)*
                }
            }
        }
    };
}

counters! {
    /// Committed read-write transactions.
    commits_rw,
    /// Committed read-only transactions.
    commits_ro,
    /// Aborts during execution (reads of locked objects, missing old
    /// versions, eager validation, stale snapshots).
    aborts_execution,
    /// Aborts in the LOCK phase.
    aborts_lock,
    /// Aborts in read validation.
    aborts_validation,
    /// Aborts because old-version memory was exhausted (MV-ABORT policy).
    aborts_oldver_memory,
    /// Total nanoseconds spent in commit-time uncertainty waits.
    write_wait_ns,
    /// Number of commit-time uncertainty waits.
    write_waits,
    /// Nanoseconds of commit-time uncertainty wait performed **while
    /// COMMIT-BACKUP replication was in flight** (the Figure 4 overlap):
    /// a subset of `write_wait_ns`, which it approaches.
    write_wait_overlapped_ns,
    /// Old versions allocated.
    old_versions_allocated,
    /// Old-version reads that had to walk the version chain.
    old_version_reads,
    /// Times a writer blocked waiting for old-version memory (MV-BLOCK).
    oldver_blocks,
    /// Times history was truncated due to memory pressure (MV-TRUNCATE).
    oldver_truncations,
    /// Reads that exhausted their bounded-backoff retry budget on a locked
    /// head version and aborted.
    read_lock_retries_exhausted,
    // ---- Batched read-path counters -------------------------------------
    /// `read_many` batches issued (one per destination primary per call).
    read_batches,
    /// Objects carried by all `read_many` batches (mean batch size =
    /// `read_batch_objects / read_batches`).
    read_batch_objects,
    /// Reads served by the local-bypass fast path (coordinator is the
    /// primary of the target region: no network message is metered).
    read_local_bypass,
    // ---- Batched commit-protocol phase counters -------------------------
    /// LOCK batches sent (one per destination primary per commit attempt).
    lock_batches,
    /// Objects carried by all LOCK batches (mean batch size =
    /// `lock_batch_objects / lock_batches`).
    lock_batch_objects,
    /// VALIDATE batches sent (one per destination primary holding unwritten
    /// read-set objects, per commit attempt).
    validate_batches,
    /// Objects carried by all VALIDATE batches (mean batch size =
    /// `validate_batch_objects / validate_batches`).
    validate_batch_objects,
    /// COMMIT-BACKUP batches sent (one per backup destination).
    backup_batches,
    /// COMMIT-PRIMARY batches sent (one per destination primary).
    primary_batches,
    /// Abort unwinds executed by the commit driver (locks released across
    /// every destination, allocations rolled back).
    unwinds,
    // ---- Commit-completion backlog counters ------------------------------
    /// Per-destination COMMIT-PRIMARY installs, applied when the message is
    /// posted at the last COMMIT-BACKUP ack (the name predates that: the
    /// `benchmark/` package reads it).
    installs_background,
    /// Vestigial, never bumped: no install is left for a reader, locker or
    /// validator to help since every commit installs before it returns.
    /// Kept because the `benchmark/` package reads it.
    install_helps,
    /// Truncation watermark deliveries piggybacked on outgoing LOCK /
    /// VALIDATE / COMMIT-BACKUP verbs (zero standalone messages).
    truncations_piggybacked,
    /// Standalone truncation flushes sent because a watermark sat idle for
    /// a whole [`crate::EngineConfig::gc_interval`] pass.
    truncate_flushes,
    // ---- Failure-recovery counters --------------------------------------
    /// Vestigial, never bumped: a decided transaction installs in the step
    /// that decides it, so a dead coordinator leaves none to roll forward.
    /// Kept because the `benchmark/` package reads it.
    orphans_rolled_forward,
    /// Undecided transactions unwound because their coordinator died before
    /// the durability point (locks released, allocations rolled back).
    orphans_rolled_back,
    /// Retryable aborts absorbed by [`crate::NodeEngine::run_transaction`]'s
    /// bounded-backoff loop (the client observed latency, not a failure).
    retries_absorbed,
    /// Re-replicated backups caught up from untruncated redo-log records
    /// after their state copy (commits that raced the copy).
    backups_caught_up,
}

impl EngineStats {
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

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
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

    /// Mean number of objects per LOCK batch (0 when no batches were sent).
    pub fn mean_lock_batch_size(&self) -> f64 {
        ratio(self.lock_batch_objects, self.lock_batches)
    }

    /// Mean number of objects per `read_many` batch (0 when none were sent).
    pub fn mean_read_batch_size(&self) -> f64 {
        ratio(self.read_batch_objects, self.read_batches)
    }

    /// Mean number of objects per VALIDATE batch (0 when none were sent).
    pub fn mean_validate_batch_size(&self) -> f64 {
        ratio(self.validate_batch_objects, self.validate_batches)
    }

    /// The interval `self − earlier`, counter by counter, by the rule of
    /// [`farm_net::NetStatsSnapshot::delta`].
    pub fn delta(&self, earlier: &EngineStatsSnapshot) -> EngineStatsSnapshot {
        self.zip(earlier, |a, b| a - b)
    }

    /// Merges two snapshots by summing every counter (aggregating nodes).
    pub fn merged(&self, other: &EngineStatsSnapshot) -> EngineStatsSnapshot {
        self.zip(other, |a, b| a + b)
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
    fn aborts_and_mean_wait() {
        let mut snap = EngineStatsSnapshot {
            commits_rw: 98,
            aborts_lock: 2,
            ..Default::default()
        };
        assert_eq!((snap.commits(), snap.aborts()), (98, 2));
        snap.write_waits = 4;
        snap.write_wait_ns = 40_000;
        assert_eq!(ratio(snap.write_wait_ns, snap.write_waits), 10_000.0);
        let idle = EngineStatsSnapshot::default();
        assert_eq!(ratio(idle.write_wait_ns, idle.write_waits), 0.0);
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
