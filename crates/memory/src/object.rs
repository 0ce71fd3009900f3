//! Object slots: a header plus a payload, with atomic-snapshot reads.

use bytes::Bytes;
use parking_lot::RwLock;

use crate::addr::OldAddr;
use crate::header::{HeaderLock, HeaderSnapshot, ObjectHeader};

/// Result of a consistent (single-version-atomic) read of a head version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsistentRead {
    /// The object is allocated and was read atomically at this version.
    Value {
        /// Write timestamp of the version read.
        ts: u64,
        /// Old-version pointer at the time of the read.
        ovp: Option<OldAddr>,
        /// Payload of the version read (cheaply cloneable).
        data: Bytes,
    },
    /// The object was locked by a committing transaction; the reader must
    /// retry or treat the read as conflicting (the paper's readers observe
    /// the lock bit in the RDMA-read header).
    Locked,
    /// The object was freed at timestamp `ts`, but the slot still anchors its
    /// old-version chain (multi-version mode): readers with a snapshot below
    /// `ts` follow `ovp`; readers at or above `ts` observe the object as
    /// freed.
    Tombstone {
        /// Timestamp of the freeing transaction.
        ts: u64,
        /// Old-version chain carrying the pre-free history.
        ovp: Option<OldAddr>,
    },
    /// The slot is not allocated.
    NotAllocated,
}

/// Result of a lock attempt on a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOutcome {
    /// Lock acquired; the previous version matched.
    Acquired,
    /// The object is locked by another transaction.
    Conflict,
    /// The version changed since the transaction read the object.
    VersionChanged {
        /// The timestamp currently installed.
        current: u64,
    },
    /// The object is not allocated.
    NotAllocated,
}

/// Result of installing a new version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstallOutcome {
    /// The new version was installed and the object unlocked.
    Installed,
}

/// One object slot: 128-bit header + payload. Slots live inline in their
/// [`crate::Slab`]; a free or tombstoned slot's payload is the empty
/// [`Bytes`], which owns no heap memory.
///
/// The payload is guarded by a reader/writer lock standing in for the
/// paper's per-cache-line `CL` version scheme (see the crate-level fidelity
/// note); the header is atomic and is what locking and validation operate on.
#[derive(Debug, Default)]
pub struct ObjectSlot {
    header: ObjectHeader,
    data: RwLock<Bytes>,
}

impl ObjectSlot {
    /// Creates a free slot.
    pub fn new_free() -> Self {
        ObjectSlot {
            header: ObjectHeader::new_free(),
            data: RwLock::new(Bytes::new()),
        }
    }

    /// Direct access to the header (validation re-reads, recovery scans).
    pub fn header(&self) -> &ObjectHeader {
        &self.header
    }

    /// Decoded header snapshot.
    pub fn header_snapshot(&self) -> HeaderSnapshot {
        self.header.snapshot()
    }

    /// Reads the head version atomically: header and payload belong to the
    /// same installed version. Mirrors a one-sided RDMA read of the object.
    pub fn read_consistent(&self) -> ConsistentRead {
        loop {
            let before = self.header.snapshot();
            if !before.allocated {
                return ConsistentRead::NotAllocated;
            }
            if before.locked {
                return ConsistentRead::Locked;
            }
            if before.tombstone {
                return ConsistentRead::Tombstone {
                    ts: before.ts,
                    ovp: before.ovp,
                };
            }
            let data = self.data.read().clone();
            let after = self.header.snapshot();
            if !after.locked && after.ts == before.ts && after.cl == before.cl {
                return ConsistentRead::Value {
                    ts: before.ts,
                    ovp: before.ovp,
                    data,
                };
            }
            // An install raced with our read; retry (the NIC-level read would
            // observe a cache-line version mismatch and be retried the same
            // way).
            std::hint::spin_loop();
        }
    }

    /// Attempts to lock the object for a transaction that read it at
    /// `expected_ts` (LOCK phase of Figure 3).
    pub fn try_lock_at(&self, expected_ts: u64) -> LockOutcome {
        match self.header.try_lock_at(expected_ts) {
            HeaderLock::Acquired => LockOutcome::Acquired,
            HeaderLock::AlreadyLocked => LockOutcome::Conflict,
            HeaderLock::VersionMismatch { current } => LockOutcome::VersionChanged { current },
            HeaderLock::NotAllocated => LockOutcome::NotAllocated,
        }
    }

    /// Locks a freshly-allocated slot regardless of its version. Returns
    /// `false` on conflict.
    pub fn try_lock_new(&self) -> bool {
        self.header.try_lock_any()
    }

    /// Locks an **allocated, live** object regardless of its version — the
    /// LOCK-phase primitive behind blind writes (updates without a prior
    /// read): there is no read dependency to version-check, so only
    /// liveness and lock availability matter. Freed or never-allocated
    /// slots report [`LockOutcome::NotAllocated`].
    pub fn try_lock_blind(&self) -> LockOutcome {
        let h = self.header.snapshot();
        if !h.allocated || h.tombstone {
            return LockOutcome::NotAllocated;
        }
        if !self.header.try_lock_any() {
            return LockOutcome::Conflict;
        }
        // Re-check under the lock: a free may have raced the liveness
        // snapshot above (the version-checked path is immune to this — the
        // free would have changed the timestamp).
        let h = self.header.snapshot();
        if !h.allocated || h.tombstone {
            self.header.unlock();
            return LockOutcome::NotAllocated;
        }
        LockOutcome::Acquired
    }

    /// Releases the lock without installing (abort path of the coordinator).
    pub fn unlock(&self) {
        self.header.unlock();
    }

    /// Installs a new version while holding the lock: replaces the payload,
    /// sets the timestamp and old-version pointer, and unlocks.
    pub fn install_and_unlock(
        &self,
        new_ts: u64,
        data: Bytes,
        ovp: Option<OldAddr>,
    ) -> InstallOutcome {
        {
            let mut guard = self.data.write();
            *guard = data;
        }
        self.header.install_and_unlock(new_ts, ovp);
        InstallOutcome::Installed
    }

    /// Installs a tombstone while holding the lock: the payload is dropped,
    /// the slot stays allocated with the tombstone bit set and `ovp` keeps
    /// anchoring the pre-free history (multi-version frees).
    pub fn install_tombstone_and_unlock(&self, new_ts: u64, ovp: Option<OldAddr>) {
        {
            let mut guard = self.data.write();
            *guard = Bytes::new();
        }
        self.header.install_tombstone_and_unlock(new_ts, ovp);
    }

    /// Initializes the slot as a newly-allocated object with payload `data`
    /// and write timestamp `ts` (commit of an allocating transaction).
    pub fn initialize(&self, ts: u64, data: Bytes) {
        {
            let mut guard = self.data.write();
            *guard = data;
        }
        self.header.initialize_allocated(ts);
    }

    /// Marks the slot free and clears the payload.
    pub fn clear(&self) {
        self.header.mark_free();
        let mut guard = self.data.write();
        *guard = Bytes::new();
    }

    /// Replica-side free: records the free as a tombstone **carrying its
    /// timestamp** (instead of zeroing the header) so a later out-of-order
    /// delivery of an *older* write record cannot resurrect the object.
    /// Replicas have no commit locks; callers serialize through the
    /// replica's log lock.
    pub fn mark_replica_tombstone(&self, ts: u64) {
        {
            let mut guard = self.data.write();
            *guard = Bytes::new();
        }
        self.header.mark_tombstone(ts);
    }

    /// Raw payload clone regardless of header state (backup application and
    /// recovery paths that operate below the transaction protocol).
    pub fn raw_data(&self) -> Bytes {
        self.data.read().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_of_free_slot_is_not_allocated() {
        let s = ObjectSlot::new_free();
        assert_eq!(s.read_consistent(), ConsistentRead::NotAllocated);
    }

    #[test]
    fn initialize_then_read() {
        let s = ObjectSlot::new_free();
        s.initialize(7, Bytes::from_static(b"hello"));
        match s.read_consistent() {
            ConsistentRead::Value { ts, data, ovp } => {
                assert_eq!(ts, 7);
                assert_eq!(&data[..], b"hello");
                assert_eq!(ovp, None);
            }
            other => panic!("unexpected read result: {other:?}"),
        }
    }

    #[test]
    fn locked_object_reports_locked_to_readers() {
        let s = ObjectSlot::new_free();
        s.initialize(1, Bytes::from_static(b"x"));
        assert_eq!(s.try_lock_at(1), LockOutcome::Acquired);
        assert_eq!(s.read_consistent(), ConsistentRead::Locked);
        s.unlock();
        assert!(matches!(s.read_consistent(), ConsistentRead::Value { .. }));
    }

    #[test]
    fn lock_version_check() {
        let s = ObjectSlot::new_free();
        s.initialize(5, Bytes::from_static(b"v5"));
        assert_eq!(s.try_lock_at(4), LockOutcome::VersionChanged { current: 5 });
        assert_eq!(s.try_lock_at(5), LockOutcome::Acquired);
        assert_eq!(s.try_lock_at(5), LockOutcome::Conflict);
    }

    #[test]
    fn install_replaces_data_and_version() {
        let s = ObjectSlot::new_free();
        s.initialize(1, Bytes::from_static(b"old"));
        assert_eq!(s.try_lock_at(1), LockOutcome::Acquired);
        s.install_and_unlock(9, Bytes::from_static(b"new"), None);
        match s.read_consistent() {
            ConsistentRead::Value { ts, data, .. } => {
                assert_eq!(ts, 9);
                assert_eq!(&data[..], b"new");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn tombstone_reports_free_time_and_chain() {
        use crate::addr::BlockId;
        let s = ObjectSlot::new_free();
        s.initialize(3, Bytes::from_static(b"live"));
        assert_eq!(s.try_lock_at(3), LockOutcome::Acquired);
        let ovp = OldAddr {
            block: BlockId(0),
            index: 1,
            generation: 0,
        };
        s.install_tombstone_and_unlock(8, Some(ovp));
        match s.read_consistent() {
            ConsistentRead::Tombstone { ts, ovp: chain } => {
                assert_eq!(ts, 8);
                assert_eq!(chain, Some(ovp));
            }
            other => panic!("expected tombstone, got {other:?}"),
        }
        assert!(s.raw_data().is_empty());
        s.clear();
        assert_eq!(s.read_consistent(), ConsistentRead::NotAllocated);
    }

    #[test]
    fn clear_frees_slot() {
        let s = ObjectSlot::new_free();
        s.initialize(1, Bytes::from_static(b"data"));
        s.clear();
        assert_eq!(s.read_consistent(), ConsistentRead::NotAllocated);
        assert!(s.raw_data().is_empty());
    }

    #[test]
    fn concurrent_reads_and_installs_never_tear() {
        use std::sync::Arc;
        let s = Arc::new(ObjectSlot::new_free());
        // Payloads are (ts, ts, ts, ...) so a torn read is detectable.
        s.initialize(0, Bytes::from(vec![0u8; 32]));
        let writer = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for ts in 1..=500u64 {
                    assert!(s.try_lock_new());
                    let byte = (ts % 251) as u8;
                    s.install_and_unlock(ts, Bytes::from(vec![byte; 32]), None);
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..2_000 {
                        match s.read_consistent() {
                            ConsistentRead::Value { ts, data, .. } => {
                                let expect = (ts % 251) as u8;
                                assert!(data.iter().all(|&b| b == expect), "torn read at ts {ts}");
                            }
                            ConsistentRead::Locked => {}
                            ConsistentRead::Tombstone { .. } => panic!("object tombstoned"),
                            ConsistentRead::NotAllocated => panic!("object vanished"),
                        }
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
    }
}
