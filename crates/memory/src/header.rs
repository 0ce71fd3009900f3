//! The 128-bit FaRMv2 object header (Figure 7).
//!
//! The header of a head version packs, into two 64-bit words:
//!
//! * word 0: the lock bit `L`, the allocated bit `A`, the 8-bit install
//!   counter `CL` and the 53-bit write timestamp `TS`;
//! * word 1: the old-version pointer `OVP` (or a sentinel when the object has
//!   no old versions).
//!
//! The first word is manipulated with compare-and-swap so that locking and
//! validation have exactly the atomicity the real system gets from CPU/NIC
//! atomics on the primary.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::addr::OldAddr;

const LOCK_BIT: u64 = 1 << 63;
const ALLOC_BIT: u64 = 1 << 62;
/// Tombstone bit: the object was freed at timestamp `TS`, but the slot still
/// anchors the old-version chain so snapshot readers below `TS` can keep
/// reading history. Tombstoned slots are reclaimed by the GC sweep once the
/// cluster-wide safe point passes `TS` (multi-version mode only).
const TOMB_BIT: u64 = 1 << 61;
const CL_SHIFT: u32 = 53;
const CL_MASK: u64 = 0xFF << CL_SHIFT;
const TS_MASK: u64 = (1 << 53) - 1;
/// Sentinel in word 1 meaning "no old version".
const NO_OVP: u64 = u64::MAX;

/// A decoded view of the header at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeaderSnapshot {
    /// Lock bit: set while a committing transaction holds the object locked.
    pub locked: bool,
    /// Allocated bit: clear for free slots.
    pub allocated: bool,
    /// Tombstone bit: the object was freed at `ts` but still anchors its
    /// old-version chain for snapshot readers (multi-version mode).
    pub tombstone: bool,
    /// Install counter (wraps at 256); incremented on every install.
    pub cl: u8,
    /// Write timestamp of the last transaction that installed this version.
    pub ts: u64,
    /// Pointer to the newest old version, if any.
    pub ovp: Option<OldAddr>,
}

/// Outcome of a lock attempt (see [`ObjectHeader::try_lock_at`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderLock {
    /// The lock was acquired and the version matched.
    Acquired,
    /// The object is already locked by another transaction.
    AlreadyLocked,
    /// The object's version no longer matches the expected timestamp.
    VersionMismatch {
        /// The timestamp currently in the header.
        current: u64,
    },
    /// The object is not allocated (freed concurrently).
    NotAllocated,
}

/// The two-word atomic object header.
#[derive(Debug, Default)]
pub struct ObjectHeader {
    word0: AtomicU64,
    ovp: AtomicU64,
}

impl ObjectHeader {
    /// Creates a header for a free (unallocated) slot.
    pub fn new_free() -> Self {
        ObjectHeader {
            word0: AtomicU64::new(0),
            ovp: AtomicU64::new(NO_OVP),
        }
    }

    /// Decodes the current header.
    #[inline]
    pub fn snapshot(&self) -> HeaderSnapshot {
        let w0 = self.word0.load(Ordering::Acquire);
        let ovp_raw = self.ovp.load(Ordering::Acquire);
        HeaderSnapshot {
            locked: w0 & LOCK_BIT != 0,
            allocated: w0 & ALLOC_BIT != 0,
            tombstone: w0 & TOMB_BIT != 0,
            cl: ((w0 & CL_MASK) >> CL_SHIFT) as u8,
            ts: w0 & TS_MASK,
            ovp: if ovp_raw == NO_OVP {
                None
            } else {
                Some(OldAddr::unpack(ovp_raw))
            },
        }
    }

    /// Marks the slot allocated with timestamp `ts` and no old versions.
    /// Used when the allocating transaction commits.
    pub fn initialize_allocated(&self, ts: u64) {
        debug_assert!(ts <= TS_MASK);
        self.ovp.store(NO_OVP, Ordering::Release);
        self.word0
            .store(ALLOC_BIT | (ts & TS_MASK), Ordering::Release);
    }

    /// Clears the allocated bit (object freed) and drops the old-version
    /// pointer.
    pub fn mark_free(&self) {
        self.ovp.store(NO_OVP, Ordering::Release);
        self.word0.store(0, Ordering::Release);
    }

    /// Marks the slot as a tombstone at `ts` **without** the lock
    /// discipline: the replica-side application of a replicated free.
    /// Replicas carry no commit locks — mutual exclusion comes from the
    /// per-destination log lock — and the tombstone must *retain* the
    /// free's timestamp so an out-of-order delivery of an older write
    /// record cannot resurrect the object.
    pub fn mark_tombstone(&self, ts: u64) {
        debug_assert!(ts <= TS_MASK);
        self.ovp.store(NO_OVP, Ordering::Release);
        self.word0
            .store(ALLOC_BIT | TOMB_BIT | (ts & TS_MASK), Ordering::Release);
    }

    /// Attempts to lock the object on behalf of a transaction that read it at
    /// timestamp `expected_ts`. Succeeds only if the object is allocated,
    /// unlocked, and its timestamp still equals `expected_ts` — the combined
    /// "lock + version check" of the LOCK phase (Figure 3).
    pub fn try_lock_at(&self, expected_ts: u64) -> HeaderLock {
        let cur = self.word0.load(Ordering::Acquire);
        if cur & ALLOC_BIT == 0 {
            return HeaderLock::NotAllocated;
        }
        if cur & LOCK_BIT != 0 {
            return HeaderLock::AlreadyLocked;
        }
        let cur_ts = cur & TS_MASK;
        if cur_ts != expected_ts {
            return HeaderLock::VersionMismatch { current: cur_ts };
        }
        let target = cur | LOCK_BIT;
        match self
            .word0
            .compare_exchange(cur, target, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => HeaderLock::Acquired,
            Err(now) => {
                if now & LOCK_BIT != 0 {
                    HeaderLock::AlreadyLocked
                } else if now & ALLOC_BIT == 0 {
                    HeaderLock::NotAllocated
                } else {
                    HeaderLock::VersionMismatch {
                        current: now & TS_MASK,
                    }
                }
            }
        }
    }

    /// Locks the object unconditionally (used for allocation of fresh slots
    /// whose timestamp is still zero, and in recovery).
    /// Returns `false` if it was already locked.
    pub fn try_lock_any(&self) -> bool {
        let cur = self.word0.load(Ordering::Acquire);
        if cur & LOCK_BIT != 0 {
            return false;
        }
        self.word0
            .compare_exchange(cur, cur | LOCK_BIT, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Releases the lock without changing the version (abort path).
    pub fn unlock(&self) {
        self.word0.fetch_and(!LOCK_BIT, Ordering::AcqRel);
    }

    /// Installs a new version: sets the timestamp to `new_ts`, bumps the
    /// install counter, stores the new old-version pointer and releases the
    /// lock. Must only be called while holding the lock.
    pub fn install_and_unlock(&self, new_ts: u64, ovp: Option<OldAddr>) {
        debug_assert!(new_ts <= TS_MASK);
        let cur = self.word0.load(Ordering::Acquire);
        debug_assert!(cur & LOCK_BIT != 0, "install without holding the lock");
        let cl = ((cur & CL_MASK) >> CL_SHIFT) as u8;
        let new_cl = cl.wrapping_add(1);
        self.ovp
            .store(ovp.map(OldAddr::pack).unwrap_or(NO_OVP), Ordering::Release);
        let new_word = ALLOC_BIT | ((new_cl as u64) << CL_SHIFT) | (new_ts & TS_MASK);
        self.word0.store(new_word, Ordering::Release);
    }

    /// Installs a **tombstone**: the object is freed at `new_ts`, but the
    /// slot stays allocated (with the tombstone bit set) so the old-version
    /// pointer keeps anchoring history for snapshot readers below `new_ts`.
    /// Must only be called while holding the lock.
    pub fn install_tombstone_and_unlock(&self, new_ts: u64, ovp: Option<OldAddr>) {
        debug_assert!(new_ts <= TS_MASK);
        let cur = self.word0.load(Ordering::Acquire);
        debug_assert!(
            cur & LOCK_BIT != 0,
            "tombstone install without holding the lock"
        );
        let cl = ((cur & CL_MASK) >> CL_SHIFT) as u8;
        let new_cl = cl.wrapping_add(1);
        self.ovp
            .store(ovp.map(OldAddr::pack).unwrap_or(NO_OVP), Ordering::Release);
        let new_word = ALLOC_BIT | TOMB_BIT | ((new_cl as u64) << CL_SHIFT) | (new_ts & TS_MASK);
        self.word0.store(new_word, Ordering::Release);
    }

    /// Current timestamp (only meaningful for allocated slots).
    #[inline]
    pub fn ts(&self) -> u64 {
        self.word0.load(Ordering::Acquire) & TS_MASK
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::BlockId;

    #[test]
    fn free_header_is_unallocated_and_unlocked() {
        let h = ObjectHeader::new_free();
        let s = h.snapshot();
        assert!(!s.locked);
        assert!(!s.allocated);
        assert_eq!(s.ts, 0);
        assert_eq!(s.ovp, None);
    }

    #[test]
    fn initialize_and_snapshot() {
        let h = ObjectHeader::new_free();
        h.initialize_allocated(42);
        let s = h.snapshot();
        assert!(s.allocated);
        assert!(!s.locked);
        assert_eq!(s.ts, 42);
    }

    #[test]
    fn lock_requires_matching_version() {
        let h = ObjectHeader::new_free();
        h.initialize_allocated(10);
        assert_eq!(
            h.try_lock_at(11),
            HeaderLock::VersionMismatch { current: 10 }
        );
        assert_eq!(h.try_lock_at(10), HeaderLock::Acquired);
        assert_eq!(h.try_lock_at(10), HeaderLock::AlreadyLocked);
        h.unlock();
        assert_eq!(h.try_lock_at(10), HeaderLock::Acquired);
    }

    #[test]
    fn lock_fails_on_unallocated() {
        let h = ObjectHeader::new_free();
        assert_eq!(h.try_lock_at(0), HeaderLock::NotAllocated);
    }

    #[test]
    fn install_bumps_counter_sets_ts_and_unlocks() {
        let h = ObjectHeader::new_free();
        h.initialize_allocated(5);
        assert_eq!(h.try_lock_at(5), HeaderLock::Acquired);
        let ovp = OldAddr {
            block: BlockId(3),
            index: 7,
            generation: 1,
        };
        h.install_and_unlock(9, Some(ovp));
        let s = h.snapshot();
        assert!(!s.locked);
        assert!(s.allocated);
        assert_eq!(s.ts, 9);
        assert_eq!(s.cl, 1);
        assert_eq!(s.ovp, Some(ovp));
    }

    #[test]
    fn mark_free_clears_everything() {
        let h = ObjectHeader::new_free();
        h.initialize_allocated(5);
        h.mark_free();
        let s = h.snapshot();
        assert!(!s.allocated);
        assert_eq!(s.ovp, None);
    }

    #[test]
    fn cl_counter_wraps() {
        let h = ObjectHeader::new_free();
        h.initialize_allocated(0);
        for i in 1..=300u64 {
            assert!(h.try_lock_any());
            h.install_and_unlock(i, None);
        }
        assert_eq!(h.snapshot().cl, (300 % 256) as u8);
    }

    #[test]
    fn concurrent_lockers_only_one_wins() {
        use std::sync::Arc;
        let h = Arc::new(ObjectHeader::new_free());
        h.initialize_allocated(1);
        let winners: usize = (0..8)
            .map(|_| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    matches!(h.try_lock_at(1), HeaderLock::Acquired) as usize
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|j| j.join().unwrap())
            .sum();
        assert_eq!(winners, 1);
    }

    #[test]
    fn tombstone_install_keeps_slot_allocated_and_chain_anchored() {
        let h = ObjectHeader::new_free();
        h.initialize_allocated(5);
        assert!(!h.snapshot().tombstone);
        assert_eq!(h.try_lock_at(5), HeaderLock::Acquired);
        let ovp = OldAddr {
            block: BlockId(1),
            index: 4,
            generation: 0,
        };
        h.install_tombstone_and_unlock(9, Some(ovp));
        let s = h.snapshot();
        assert!(s.allocated, "tombstone keeps the slot allocated");
        assert!(s.tombstone);
        assert!(!s.locked);
        assert_eq!(s.ts, 9);
        assert_eq!(s.ovp, Some(ovp));
        // A writer that read the pre-free version cannot lock the tombstone.
        assert_eq!(h.try_lock_at(5), HeaderLock::VersionMismatch { current: 9 });
        // mark_free (the GC sweep) clears the tombstone.
        h.mark_free();
        assert!(!h.snapshot().tombstone);
        assert!(!h.snapshot().allocated);
    }
}
