//! Regions and the per-machine region store.
//!
//! A region is the unit of replication: all objects in a region share the
//! same primary and backup machines (Section 3.1). Each machine keeps a
//! [`RegionStore`] holding the replicas (primary or backup) it hosts. Which
//! machine is primary for which region is decided by the control plane
//! (`farm-kernel`); this crate only manages the memory.

use std::collections::HashMap;
use std::sync::Arc;

use arc_swap::ArcSwap;
use bytes::Bytes;
use parking_lot::Mutex;

use crate::addr::{Addr, RegionId};
use crate::object::{ConsistentRead, LockOutcome};
use crate::size_class_for;
use crate::slab::{Slab, SlotRef};

/// Sizing parameters for regions and slabs. The paper uses 2 GB regions and
/// 1 MB slabs; the defaults here are scaled down so tests and laptop-scale
/// benchmarks do not need gigabytes of memory, but the ratios are preserved
/// and everything is configurable.
#[derive(Debug, Clone, Copy)]
pub struct RegionConfig {
    /// Bytes of object payload per slab (determines slots per slab given the
    /// size class).
    pub slab_bytes: usize,
    /// Maximum number of slabs per region.
    pub max_slabs: u16,
}

impl Default for RegionConfig {
    fn default() -> Self {
        RegionConfig {
            slab_bytes: 64 * 1024,
            max_slabs: 1024,
        }
    }
}

impl RegionConfig {
    /// A tiny configuration for unit tests.
    pub fn small() -> Self {
        RegionConfig {
            slab_bytes: 4 * 1024,
            max_slabs: 64,
        }
    }
}

/// Errors from region-level allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionError {
    /// The requested object size exceeds the largest size class.
    ObjectTooLarge(usize),
    /// The region is out of slabs and every slab of the class is full.
    OutOfMemory,
    /// The address does not name an existing slab/slot.
    BadAddress(Addr),
}

impl std::fmt::Display for RegionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionError::ObjectTooLarge(s) => {
                write!(f, "object of {s} bytes exceeds max size class")
            }
            RegionError::OutOfMemory => write!(f, "region out of memory"),
            RegionError::BadAddress(a) => write!(f, "bad address {a}"),
        }
    }
}

impl std::error::Error for RegionError {}

/// Failure of a batched lock acquisition: the address that failed and why.
/// Every lock already acquired by the failing batch has been released when
/// this is returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchLockFailure {
    /// The first address whose lock could not be taken.
    pub addr: Addr,
    /// Why the lock attempt failed.
    pub outcome: LockOutcome,
}

/// Expected-timestamp sentinel marking a **blind write** in a lock batch:
/// the transaction wrote the object without reading it, so the LOCK phase
/// acquires at whatever version is installed
/// ([`crate::ObjectSlot::try_lock_blind`])
/// instead of version-checking. Real timestamps are clock nanoseconds and
/// can never reach this value.
pub const LOCK_ANY_VERSION: u64 = u64::MAX;

/// Number of tombstone shards per region. Commit-time tombstoning locks only
/// the shard of the freed slot's slab, so concurrent frees to different slabs
/// and the GC sweep (which visits shards one at a time) do not serialize.
const TOMBSTONE_SHARDS: usize = 16;

/// One replica of a region: a set of slabs.
///
/// The slab table is an **append-only snapshot index**: readers traverse the
/// current snapshot with one wait-free atomic load ([`ArcSwap::load`]) and no
/// lock, so `read_consistent_batch`, `try_lock_batch` and GC sweeps never
/// contend with each other. Slab creation (rare — bounded by
/// [`RegionConfig::max_slabs`] over the region's lifetime) copies the table,
/// appends, and publishes the new snapshot under the `grow` mutex. An entry
/// is fixed once it names a sized slab; the one in-place replacement is a
/// backup's zero-capacity placeholder becoming the real slab
/// ([`Region::ensure_slab`]), and nothing can hold a slot of a placeholder.
pub struct Region {
    id: RegionId,
    config: RegionConfig,
    slabs: ArcSwap<Vec<Arc<Slab>>>,
    /// Serializes snapshot replacement (slab creation); never taken on the
    /// read/lock/sweep paths.
    grow: Mutex<()>,
    /// Tombstoned slots awaiting reclamation: `(addr, free timestamp)`,
    /// sharded by slab index. Populated by multi-version frees, drained by
    /// the GC sweep once the safe point passes the free timestamp.
    tombstones: Vec<Mutex<Vec<(Addr, u64)>>>,
}

impl Region {
    /// Creates an empty region.
    pub fn new(id: RegionId, config: RegionConfig) -> Self {
        Region {
            id,
            config,
            slabs: ArcSwap::from_pointee(Vec::new()),
            grow: Mutex::new(()),
            tombstones: (0..TOMBSTONE_SHARDS)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
        }
    }

    /// The region's identifier.
    pub fn id(&self) -> RegionId {
        self.id
    }

    /// The tombstone shard responsible for `addr` (keyed by slab index, the
    /// same granularity at which commits and sweeps actually conflict).
    fn tombstone_shard(&self, addr: Addr) -> &Mutex<Vec<(Addr, u64)>> {
        &self.tombstones[addr.slab as usize % TOMBSTONE_SHARDS]
    }

    /// Number of slabs currently carved out of the region.
    pub fn slab_count(&self) -> usize {
        self.slabs.load().len()
    }

    /// Returns the slab at `index`, if it exists.
    pub fn slab(&self, index: u16) -> Option<Arc<Slab>> {
        self.slab_at(index).cloned()
    }

    /// Borrows the slab at `index` from the current snapshot (which outlives
    /// the borrow: replaced snapshots are retired, not freed) — [`Region::slab`]
    /// without the reference-count traffic.
    pub fn slab_at(&self, index: u16) -> Option<&Arc<Slab>> {
        self.slabs.load().get(index as usize)
    }

    /// Allocates a slot for an object of `size` bytes, creating a new slab of
    /// the appropriate size class if necessary. Returns the address.
    ///
    /// This is the primary-side allocation path; the allocating transaction's
    /// coordinator calls it during execution and the slot becomes visible to
    /// readers only when the transaction commits and initializes the header.
    pub fn allocate(&self, size: usize) -> Result<Addr, RegionError> {
        let class = size_class_for(size).ok_or(RegionError::ObjectTooLarge(size))?;
        // Fast path: find an existing slab of this class with space — a
        // wait-free snapshot traversal, no lock.
        if let Some(addr) = self.allocate_in_snapshot(self.slabs.load(), class) {
            return Ok(addr);
        }
        // Slow path: create a new slab. The grow mutex serializes snapshot
        // replacement; re-check under it in case another thread just grew.
        let _grow = self.grow.lock();
        let current = self.slabs.load();
        if let Some(addr) = self.allocate_in_snapshot(current, class) {
            return Ok(addr);
        }
        if current.len() >= self.config.max_slabs as usize {
            return Err(RegionError::OutOfMemory);
        }
        let capacity = (self.config.slab_bytes / class).max(1);
        let slab = Arc::new(Slab::new(class, capacity));
        let slot = slab.allocate().expect("fresh slab has space");
        let index = current.len() as u16;
        let mut next = current.clone();
        next.push(slab);
        self.slabs.store(Arc::new(next));
        Ok(Addr {
            region: self.id,
            slab: index,
            slot,
        })
    }

    /// One pass over a slab-table snapshot looking for a free slot of `class`
    /// (a placeholder's size is 0, so it matches no class).
    fn allocate_in_snapshot(&self, slabs: &[Arc<Slab>], class: usize) -> Option<Addr> {
        for (i, slab) in slabs.iter().enumerate() {
            if slab.object_size() == class {
                if let Ok(slot) = slab.allocate() {
                    return Some(Addr {
                        region: self.id,
                        slab: i as u16,
                        slot,
                    });
                }
            }
        }
        None
    }

    /// Ensures that slab `index` exists, creating it with the given size
    /// class if this replica has none yet. Backups use this to mirror the
    /// primary's slab layout when applying replicated writes. A slab that
    /// already has a size keeps it.
    ///
    /// Records arrive in any slab order and a region mixes size classes, so
    /// the indices skipped on the way to `index` get **placeholders** — no
    /// size, no slots — and each takes the class of the first record that
    /// names it. (Giving them the requested class would make the replica
    /// drop every later record for a slab whose real class has more slots.)
    pub fn ensure_slab(&self, index: u16, object_size: usize) -> Arc<Slab> {
        let at = index as usize;
        let sized = |slabs: &[Arc<Slab>]| slabs.get(at).filter(|s| !s.is_placeholder()).cloned();
        if let Some(s) = sized(self.slabs.load()) {
            return s;
        }
        let _grow = self.grow.lock();
        let current = self.slabs.load();
        if let Some(s) = sized(current) {
            return s;
        }
        let capacity = (self.config.slab_bytes / object_size).max(1);
        let slab = Arc::new(Slab::new(object_size, capacity));
        let mut next = current.clone();
        if next.len() < at {
            next.resize_with(at, || Arc::new(Slab::placeholder()));
        }
        if at < next.len() {
            next[at] = Arc::clone(&slab);
        } else {
            next.push(Arc::clone(&slab));
        }
        self.slabs.store(Arc::new(next));
        slab
    }

    /// Frees the slot named by `addr` in the allocator (bitmap); the header
    /// must already have been cleared by the committing transaction.
    pub fn free(&self, addr: Addr) -> Result<(), RegionError> {
        self.slab_at(addr.slab)
            .and_then(|slab| slab.free(addr.slot).ok())
            .ok_or(RegionError::BadAddress(addr))
    }

    /// Resolves an address to an owning handle on its object slot.
    pub fn slot(&self, addr: Addr) -> Result<SlotRef, RegionError> {
        self.slab_at(addr.slab)
            .and_then(|slab| slab.slot(addr.slot).ok())
            .ok_or(RegionError::BadAddress(addr))
    }

    /// Acquires the per-object commit locks for one LOCK batch, the
    /// primary-side half of the batched LOCK phase: the coordinator sends a
    /// single message per destination machine and the primary locks the
    /// batch's objects **atomically in order** — either every lock in the
    /// batch is acquired, or none is.
    ///
    /// `entries` are `(address, expected timestamp)` pairs and must be sorted
    /// in ascending address order — the deterministic global acquisition
    /// order every coordinator uses (it prevents two committers from
    /// acquiring overlapping sets in opposite orders). An expected timestamp
    /// of [`LOCK_ANY_VERSION`] marks a blind write: the lock is taken at
    /// whatever version is installed. On the first conflict all locks
    /// acquired by this batch are released and the failing address is
    /// reported, so the caller can unwind batches already sent to other
    /// primaries.
    pub fn try_lock_batch(
        &self,
        entries: &[(Addr, u64)],
    ) -> Result<Vec<SlotRef>, BatchLockFailure> {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "lock batch must be sorted by ascending address"
        );
        let mut acquired: Vec<SlotRef> = Vec::with_capacity(entries.len());
        for &(addr, expected_ts) in entries {
            let outcome = match self.slot(addr) {
                Ok(slot) => {
                    let attempt = if expected_ts == LOCK_ANY_VERSION {
                        slot.try_lock_blind()
                    } else {
                        slot.try_lock_at(expected_ts)
                    };
                    match attempt {
                        LockOutcome::Acquired => {
                            acquired.push(slot);
                            continue;
                        }
                        other => other,
                    }
                }
                Err(_) => LockOutcome::NotAllocated,
            };
            // Roll back: release in reverse acquisition order.
            for slot in acquired.iter().rev() {
                slot.unlock();
            }
            return Err(BatchLockFailure { addr, outcome });
        }
        Ok(acquired)
    }

    /// Snapshots many slots in one pass — the primary-side half of a
    /// **doorbell-batched read**: the coordinator sends one read message
    /// naming every requested slot in this region and the primary (or its
    /// NIC, for true one-sided reads) walks its slab table once, returning one
    /// [`ConsistentRead`] per address in input order.
    ///
    /// Per-slot outcomes are independent: a locked or tombstoned slot does
    /// not poison the rest of the batch — the caller applies its per-slot
    /// fallback (retry, old-version chain walk, abort) to exactly the slots
    /// that need it. Addresses that do not resolve to an existing slab/slot
    /// report [`ConsistentRead::NotAllocated`].
    pub fn read_consistent_batch(&self, addrs: &[Addr]) -> Vec<ConsistentRead> {
        // One traversal: pin the slab-table snapshot with a single wait-free
        // load, then snapshot the slots without re-entering the index — the
        // slots are borrowed from the pinned slabs, no handle is made.
        let slabs = self.slabs.load();
        addrs
            .iter()
            .map(|addr| {
                match slabs
                    .get(addr.slab as usize)
                    .and_then(|slab| slab.get(addr.slot))
                {
                    Some(slot) => slot.read_consistent(),
                    None => ConsistentRead::NotAllocated,
                }
            })
            .collect()
    }

    /// Applies one replicated commit record to this replica **idempotently
    /// and order-insensitively**: the slot is (re)initialized with `data` at
    /// `ts` unless the replica already holds a version at or past `ts`, and
    /// a `free` record leaves a **timestamped tombstone** rather than
    /// zeroing the header — so whichever order a free and an older write
    /// arrive in (two coordinators' watermarks deliver independently), the
    /// write can never resurrect the freed object. Replaying the same
    /// record twice is a no-op. A slot later reused by an allocation is
    /// revived by that allocation's (strictly newer) write record.
    ///
    /// `slab_size` mirrors the primary's slab layout ([`Region::ensure_slab`])
    /// for slabs this replica has not materialized yet; 0 marks a record
    /// whose primary-side slab could not be resolved and is skipped.
    /// Replica bitmaps are not maintained per-write — they are rebuilt from
    /// headers at promotion ([`Region::rebuild_allocation_state`]).
    pub fn apply_replicated(
        &self,
        addr: Addr,
        slab_size: usize,
        ts: u64,
        data: &Bytes,
        free: bool,
    ) {
        if slab_size == 0 {
            return;
        }
        let slab = self.ensure_slab(addr.slab, slab_size);
        let Some(slot) = slab.get(addr.slot) else {
            return;
        };
        let h = slot.header_snapshot();
        if free {
            // Applied even to a not-yet-written slot: the tombstone's
            // timestamp is what blocks the object's older write record if
            // it arrives afterwards.
            if h.ts <= ts {
                slot.mark_replica_tombstone(ts);
            }
        } else if !h.allocated || h.ts < ts {
            slot.initialize(ts, data.clone());
        }
    }

    /// Records that the slot at `addr` was tombstoned by a free committing at
    /// `write_ts`; the slot will be reclaimed by [`Region::sweep_tombstones`]
    /// once the GC safe point passes `write_ts`.
    pub fn note_tombstone(&self, addr: Addr, write_ts: u64) {
        self.tombstone_shard(addr).lock().push((addr, write_ts));
    }

    /// Reclaims tombstoned slots whose free timestamp is below `safe_point`
    /// (no snapshot can need their history anymore): clears the header and
    /// returns the slot to the allocator. Returns how many were reclaimed.
    ///
    /// Shards are visited one at a time, so committing transactions
    /// tombstoning into other slabs proceed concurrently with the sweep.
    pub fn sweep_tombstones(&self, safe_point: u64) -> usize {
        let mut swept = 0;
        for shard in &self.tombstones {
            let mut pending = shard.lock();
            pending.retain(|&(addr, ts)| {
                if ts >= safe_point {
                    return true;
                }
                if let Some(slab) = self.slab_at(addr.slab) {
                    if let Some(slot) = slab.get(addr.slot) {
                        slot.clear();
                    }
                    let _ = slab.free(addr.slot);
                }
                swept += 1;
                false
            });
        }
        swept
    }

    /// Number of tombstoned slots not yet reclaimed.
    pub fn pending_tombstones(&self) -> usize {
        self.tombstones.iter().map(|s| s.lock().len()).sum()
    }

    /// Scans all slabs and rebuilds their free bitmaps from object headers
    /// (backup promotion, Section 4.8).
    pub fn rebuild_allocation_state(&self) {
        for slab in self.slabs.load().iter().filter(|s| !s.is_placeholder()) {
            slab.rebuild_bitmap_from_headers();
        }
    }

    /// Total and free slot counts across all slabs (for reporting).
    pub fn occupancy(&self) -> (usize, usize) {
        let slabs = self.slabs.load();
        let total = slabs.iter().map(|s| s.capacity()).sum();
        let free = slabs.iter().map(|s| s.free_slots()).sum();
        (total, free)
    }
}

impl std::fmt::Debug for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (total, free) = self.occupancy();
        f.debug_struct("Region")
            .field("id", &self.id)
            .field("slabs", &self.slab_count())
            .field("slots_total", &total)
            .field("slots_free", &free)
            .finish()
    }
}

/// The set of region replicas hosted by one machine.
///
/// Every transaction resolves at least one region per operation, so the map
/// is a copy-on-write snapshot: lookups are one wait-free load plus a
/// lock-free `Weak::upgrade`, and the rare hosting changes (region creation,
/// re-replication) republish it under the `owned` mutex. Snapshots hold
/// **weak** handles — strong ownership lives only in `owned` — so no
/// snapshot, current or retained by the `ArcSwap` shim, keeps a replica
/// alive: a dropped store's regions are freed as soon as the last in-flight
/// user releases them.
#[derive(Default)]
pub struct RegionStore {
    config: RegionConfig,
    regions: ArcSwap<HashMap<RegionId, std::sync::Weak<Region>>>,
    /// Strong ownership of hosted replicas; also serializes snapshot
    /// republishing. Never taken on the lookup path.
    owned: Mutex<HashMap<RegionId, Arc<Region>>>,
}

impl RegionStore {
    /// Creates an empty store with the given sizing configuration.
    pub fn new(config: RegionConfig) -> Self {
        RegionStore {
            config,
            regions: ArcSwap::from_pointee(HashMap::new()),
            owned: Mutex::new(HashMap::new()),
        }
    }

    /// Returns the replica of `id`, creating it if this machine does not host
    /// one yet (e.g. when it becomes a new backup during re-replication).
    pub fn ensure(&self, id: RegionId) -> Arc<Region> {
        if let Some(r) = self
            .regions
            .load()
            .get(&id)
            .and_then(std::sync::Weak::upgrade)
        {
            return r;
        }
        let mut owned = self.owned.lock();
        if let Some(r) = owned.get(&id) {
            return Arc::clone(r);
        }
        let region = Arc::new(Region::new(id, self.config));
        owned.insert(id, Arc::clone(&region));
        self.publish(&owned);
        region
    }

    /// Returns the replica of `id`, if hosted here.
    pub fn get(&self, id: RegionId) -> Option<Arc<Region>> {
        self.regions
            .load()
            .get(&id)
            .and_then(std::sync::Weak::upgrade)
    }

    /// Republishes the lookup snapshot from the ownership map (caller holds
    /// the `owned` lock).
    fn publish(&self, owned: &HashMap<RegionId, Arc<Region>>) {
        let snapshot: HashMap<RegionId, std::sync::Weak<Region>> = owned
            .iter()
            .map(|(&id, region)| (id, Arc::downgrade(region)))
            .collect();
        self.regions.store(Arc::new(snapshot));
    }

    /// All region ids hosted here.
    pub fn hosted(&self) -> Vec<RegionId> {
        let mut v: Vec<_> = self.owned.lock().keys().copied().collect();
        v.sort();
        v
    }
}

impl std::fmt::Debug for RegionStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegionStore")
            .field("hosted", &self.hosted())
            .finish()
    }
}

pub use RegionError as Error;

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn allocate_creates_slabs_by_size_class() {
        let r = Region::new(RegionId(1), RegionConfig::small());
        let a = r.allocate(10).unwrap(); // class 64
        let b = r.allocate(100).unwrap(); // class 128
        let c = r.allocate(20).unwrap(); // class 64 again, same slab
        assert_eq!(a.slab, c.slab);
        assert_ne!(a.slab, b.slab);
        assert_eq!(r.slab_count(), 2);
    }

    #[test]
    fn allocate_rejects_oversized_objects() {
        let r = Region::new(RegionId(1), RegionConfig::small());
        assert_eq!(
            r.allocate(1 << 20),
            Err(RegionError::ObjectTooLarge(1 << 20))
        );
    }

    #[test]
    fn free_returns_slot_to_allocator() {
        let r = Region::new(RegionId(1), RegionConfig::small());
        let a = r.allocate(64).unwrap();
        let (_, free_before) = r.occupancy();
        r.free(a).unwrap();
        let (_, free_after) = r.occupancy();
        assert_eq!(free_after, free_before + 1);
    }

    #[test]
    fn slot_resolution_and_bad_addresses() {
        let r = Region::new(RegionId(1), RegionConfig::small());
        let a = r.allocate(64).unwrap();
        let slot = r.slot(a).unwrap();
        slot.initialize(3, Bytes::from_static(b"x"));
        let bad = Addr {
            region: RegionId(1),
            slab: 99,
            slot: 0,
        };
        assert!(r.slot(bad).is_err());
        assert!(r.free(bad).is_err());
    }

    #[test]
    fn out_of_memory_when_slabs_exhausted() {
        let cfg = RegionConfig {
            slab_bytes: 64,
            max_slabs: 1,
        };
        let r = Region::new(RegionId(1), cfg);
        let _a = r.allocate(64).unwrap(); // only slot of only slab
        assert_eq!(r.allocate(64), Err(RegionError::OutOfMemory));
    }

    #[test]
    fn ensure_slab_mirrors_layout_for_backups() {
        let r = Region::new(RegionId(1), RegionConfig::small());
        let s = r.ensure_slab(3, 128);
        assert_eq!(s.object_size(), 128);
        assert_eq!(r.slab_count(), 4);
        // Existing slab is returned as-is.
        let again = r.ensure_slab(3, 64);
        assert_eq!(again.object_size(), 128);
        // The skipped indices are placeholders until someone names them.
        assert!((0..3).all(|i| r.slab(i).unwrap().is_placeholder()));
        assert_eq!(r.occupancy().0, s.capacity());
    }

    #[test]
    fn out_of_order_records_keep_each_slabs_own_class() {
        // Primary layout: slab 0 is class 64 (64 slots at 4 KiB), slab 1 is
        // class 128 (32 slots). A backup must end up with the same layout
        // whichever slab's record it hears first — slot 40 exists only in a
        // class-64 slab.
        let in_64 = Addr {
            region: RegionId(1),
            slab: 0,
            slot: 40,
        };
        let in_128 = Addr {
            region: RegionId(1),
            slab: 1,
            slot: 3,
        };
        for slab_1_first in [true, false] {
            let r = Region::new(RegionId(1), RegionConfig::small());
            let mut records = [
                (in_64, 64, Bytes::from_static(b"small")),
                (in_128, 128, Bytes::from_static(b"large")),
            ];
            if slab_1_first {
                records.reverse();
            }
            for (addr, class, data) in &records {
                r.apply_replicated(*addr, *class, 7, data, false);
            }
            assert_eq!(r.slab(0).unwrap().object_size(), 64, "{slab_1_first}");
            assert_eq!(r.slab(1).unwrap().object_size(), 128, "{slab_1_first}");
            assert_eq!(&r.slot(in_64).unwrap().raw_data()[..], b"small");
            assert_eq!(&r.slot(in_128).unwrap().raw_data()[..], b"large");
            // Promotion: both objects are counted allocated, and allocation
            // resumes in the mirrored slabs without handing either out.
            r.rebuild_allocation_state();
            assert_eq!(r.occupancy(), (64 + 32, 64 + 32 - 2));
            let a = r.allocate(64).unwrap();
            let b = r.allocate(128).unwrap();
            assert_eq!((a.slab, b.slab), (0, 1));
            assert!(a != in_64 && b != in_128);
        }
        // A hole nobody ever named stays a hole through promotion, and
        // allocation appends past it.
        let r = Region::new(RegionId(1), RegionConfig::small());
        r.apply_replicated(in_128, 128, 7, &Bytes::from_static(b"x"), false);
        r.rebuild_allocation_state();
        assert!(r.slab(0).unwrap().is_placeholder());
        assert_eq!(r.allocate(64).unwrap().slab, 2);
        assert!(r.slot(Addr { slot: 0, ..in_64 }).is_err());
        assert_eq!(
            r.read_consistent_batch(&[in_64]),
            vec![ConsistentRead::NotAllocated]
        );
    }

    #[test]
    fn region_store_ensures_and_drops() {
        let store = RegionStore::new(RegionConfig::small());
        assert!(store.get(RegionId(5)).is_none());
        let r = store.ensure(RegionId(5));
        assert_eq!(r.id(), RegionId(5));
        assert!(Arc::ptr_eq(&store.get(RegionId(5)).unwrap(), &r));
        assert_eq!(store.hosted(), vec![RegionId(5)]);
        drop(store);
        assert_eq!(Arc::strong_count(&r), 1, "a dropped store still owns r5");
    }

    #[test]
    fn dropped_region_memory_is_actually_freed() {
        // The lookup snapshots hold weak handles, so dropping the store frees
        // its regions as soon as the last strong reference goes — a snapshot
        // that outlives the store must not keep its replicas alive.
        let store = RegionStore::new(RegionConfig::small());
        let r = store.ensure(RegionId(7));
        let a = r.allocate(64).unwrap();
        // A slot handle taken now outlives both the slab table it was
        // resolved through (the table grows below) and the region.
        let held = r.slot(a).unwrap();
        held.initialize(3, Bytes::from_static(b"held"));
        let slab = Arc::downgrade(&r.slab(a.slab).unwrap());
        r.allocate(128).unwrap();
        let weak = Arc::downgrade(&r);
        drop(r);
        // Churn the snapshot a few times so retained copies exist.
        store.ensure(RegionId(8));
        store.ensure(RegionId(9));
        assert!(weak.upgrade().is_some(), "still hosted: stays alive");
        let snapshot = store.regions.load_full();
        drop(store);
        assert!(snapshot.contains_key(&RegionId(7)));
        assert!(
            weak.upgrade().is_none(),
            "dropped region leaked through a retained snapshot"
        );
        // The handle pins its slab — and only its slab — until it drops.
        assert_eq!(&held.raw_data()[..], b"held");
        assert_eq!(held.header_snapshot().ts, 3);
        let also_held = held.clone();
        drop(held);
        assert!(slab.upgrade().is_some());
        drop(also_held);
        assert!(
            slab.upgrade().is_none(),
            "slab leaked past its last SlotRef"
        );
    }

    #[test]
    fn lock_batch_all_or_nothing() {
        let r = Region::new(RegionId(1), RegionConfig::small());
        let addrs: Vec<Addr> = (0..4).map(|_| r.allocate(64).unwrap()).collect();
        for a in &addrs {
            r.slot(*a).unwrap().initialize(5, Bytes::from_static(b"v"));
        }
        let mut entries: Vec<(Addr, u64)> = addrs.iter().map(|&a| (a, 5)).collect();
        entries.sort();
        // Whole batch succeeds.
        let locked = r.try_lock_batch(&entries).unwrap();
        assert_eq!(locked.len(), 4);
        for a in &addrs {
            assert!(r.slot(*a).unwrap().header_snapshot().locked);
        }
        for s in &locked {
            s.unlock();
        }
        // Poison the third entry: its version changed.
        r.slot(entries[2].0).unwrap().try_lock_at(5);
        r.slot(entries[2].0)
            .unwrap()
            .install_and_unlock(9, Bytes::from_static(b"w"), None);
        let err = r.try_lock_batch(&entries).unwrap_err();
        assert_eq!(err.addr, entries[2].0);
        assert_eq!(err.outcome, LockOutcome::VersionChanged { current: 9 });
        // The partial acquisitions (entries 0 and 1) were rolled back.
        for (a, _) in &entries {
            assert!(
                !r.slot(*a).unwrap().header_snapshot().locked,
                "leaked lock on {a}"
            );
        }
    }

    #[test]
    fn lock_batch_conflict_on_locked_object() {
        let r = Region::new(RegionId(1), RegionConfig::small());
        let a = r.allocate(64).unwrap();
        let b = r.allocate(64).unwrap();
        r.slot(a).unwrap().initialize(1, Bytes::from_static(b"a"));
        r.slot(b).unwrap().initialize(1, Bytes::from_static(b"b"));
        // Another committer holds b.
        assert_eq!(r.slot(b).unwrap().try_lock_at(1), LockOutcome::Acquired);
        let mut entries = vec![(a, 1), (b, 1)];
        entries.sort();
        let err = r.try_lock_batch(&entries).unwrap_err();
        assert_eq!(err.outcome, LockOutcome::Conflict);
        // Whichever of the two was first must have been released again.
        let other = if err.addr == a { b } else { a };
        let still_locked = r.slot(other).unwrap().header_snapshot().locked;
        assert_eq!(still_locked, other == b, "only the foreign lock survives");
    }

    #[test]
    fn tombstone_sweep_reclaims_past_safe_point() {
        let r = Region::new(RegionId(1), RegionConfig::small());
        let a = r.allocate(64).unwrap();
        let slot = r.slot(a).unwrap();
        slot.initialize(5, Bytes::from_static(b"x"));
        assert_eq!(slot.try_lock_at(5), LockOutcome::Acquired);
        slot.install_tombstone_and_unlock(10, None);
        r.note_tombstone(a, 10);
        assert_eq!(r.pending_tombstones(), 1);
        let (_, free_before) = r.occupancy();
        // Safe point has not passed the free yet.
        assert_eq!(r.sweep_tombstones(10), 0);
        assert_eq!(r.pending_tombstones(), 1);
        // Once it passes, the slot is cleared and returned to the allocator.
        assert_eq!(r.sweep_tombstones(11), 1);
        assert_eq!(r.pending_tombstones(), 0);
        let (_, free_after) = r.occupancy();
        assert_eq!(free_after, free_before + 1);
        assert!(!r.slot(a).unwrap().header_snapshot().allocated);
    }

    #[test]
    fn apply_replicated_is_idempotent_and_never_regresses() {
        let r = Region::new(RegionId(1), RegionConfig::small());
        let addr = Addr {
            region: RegionId(1),
            slab: 0,
            slot: 0,
        };
        // First delivery materializes the slab and installs the version.
        r.apply_replicated(addr, 64, 10, &Bytes::from_static(b"v10"), false);
        let slot = r.slot(addr).unwrap();
        assert_eq!(slot.header_snapshot().ts, 10);
        // An older record arriving later (out-of-order watermark) is ignored.
        r.apply_replicated(addr, 64, 5, &Bytes::from_static(b"v5"), false);
        assert_eq!(slot.header_snapshot().ts, 10);
        assert_eq!(&slot.raw_data()[..], b"v10");
        // Replaying the same record is a no-op; a newer one wins.
        r.apply_replicated(addr, 64, 10, &Bytes::from_static(b"dup"), false);
        assert_eq!(&slot.raw_data()[..], b"v10");
        r.apply_replicated(addr, 64, 12, &Bytes::from_static(b"v12"), false);
        assert_eq!(slot.header_snapshot().ts, 12);
        // A free below the installed version is ignored; at/above it leaves
        // a timestamped tombstone (the free's own version).
        r.apply_replicated(addr, 64, 11, &Bytes::new(), true);
        assert!(!r.slot(addr).unwrap().header_snapshot().tombstone);
        r.apply_replicated(addr, 64, 13, &Bytes::new(), true);
        let h = r.slot(addr).unwrap().header_snapshot();
        assert!(h.tombstone && h.ts == 13);
        // The tombstone blocks an older write arriving after the free (two
        // coordinators' watermarks deliver in either order) ...
        r.apply_replicated(addr, 64, 12, &Bytes::from_static(b"stale"), false);
        assert!(
            r.slot(addr).unwrap().header_snapshot().tombstone,
            "older write resurrected a freed object"
        );
        // ... and even a free delivered BEFORE the object's first write
        // blocks that write.
        let early = Addr {
            region: RegionId(1),
            slab: 0,
            slot: 1,
        };
        r.apply_replicated(early, 64, 20, &Bytes::new(), true);
        r.apply_replicated(early, 64, 19, &Bytes::from_static(b"late"), false);
        assert!(r.slot(early).unwrap().header_snapshot().tombstone);
        // A slot reused by a later allocation is revived by its strictly
        // newer write record.
        r.apply_replicated(addr, 64, 15, &Bytes::from_static(b"reuse"), false);
        let h = r.slot(addr).unwrap().header_snapshot();
        assert!(h.allocated && !h.tombstone && h.ts == 15);
        // Size-0 records (unresolvable primary slab) are skipped entirely.
        let other = Addr {
            region: RegionId(1),
            slab: 9,
            slot: 0,
        };
        r.apply_replicated(other, 0, 1, &Bytes::from_static(b"x"), false);
        assert!(r.slab(9).is_none());
    }

    #[test]
    fn batch_read_snapshots_many_slots_in_input_order() {
        let r = Region::new(RegionId(1), RegionConfig::small());
        let addrs: Vec<Addr> = (0..4).map(|_| r.allocate(64).unwrap()).collect();
        for (i, a) in addrs.iter().enumerate() {
            r.slot(*a)
                .unwrap()
                .initialize(10 + i as u64, Bytes::from(vec![i as u8; 4]));
        }
        // Reversed input order must be preserved in the output.
        let reversed: Vec<Addr> = addrs.iter().rev().copied().collect();
        let results = r.read_consistent_batch(&reversed);
        assert_eq!(results.len(), 4);
        for (i, res) in results.iter().enumerate() {
            let expect = 3 - i;
            match res {
                ConsistentRead::Value { ts, data, .. } => {
                    assert_eq!(*ts, 10 + expect as u64);
                    assert_eq!(&data[..], vec![expect as u8; 4].as_slice());
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
    }

    #[test]
    fn batch_read_reports_per_slot_locked_tombstone_and_missing() {
        let r = Region::new(RegionId(1), RegionConfig::small());
        let ok = r.allocate(64).unwrap();
        let locked = r.allocate(64).unwrap();
        let tombed = r.allocate(64).unwrap();
        r.slot(ok).unwrap().initialize(1, Bytes::from_static(b"ok"));
        r.slot(locked)
            .unwrap()
            .initialize(2, Bytes::from_static(b"lk"));
        assert_eq!(
            r.slot(locked).unwrap().try_lock_at(2),
            LockOutcome::Acquired
        );
        r.slot(tombed)
            .unwrap()
            .initialize(3, Bytes::from_static(b"tb"));
        assert_eq!(
            r.slot(tombed).unwrap().try_lock_at(3),
            LockOutcome::Acquired
        );
        r.slot(tombed)
            .unwrap()
            .install_tombstone_and_unlock(9, None);
        let missing = Addr {
            region: RegionId(1),
            slab: 42,
            slot: 0,
        };
        // One batch mixing every per-slot outcome: the batch itself succeeds
        // and each slot reports independently.
        let results = r.read_consistent_batch(&[ok, locked, tombed, missing]);
        assert!(matches!(results[0], ConsistentRead::Value { ts: 1, .. }));
        assert_eq!(results[1], ConsistentRead::Locked);
        assert!(matches!(
            results[2],
            ConsistentRead::Tombstone { ts: 9, .. }
        ));
        assert_eq!(results[3], ConsistentRead::NotAllocated);
    }

    #[test]
    fn concurrent_allocations_get_distinct_addresses() {
        use std::collections::HashSet;
        use std::sync::Arc;
        let r = Arc::new(Region::new(RegionId(1), RegionConfig::default()));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    (0..200)
                        .map(|_| r.allocate(64).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all = HashSet::new();
        for h in handles {
            for addr in h.join().unwrap() {
                assert!(all.insert(addr), "duplicate address {addr}");
            }
        }
        assert_eq!(all.len(), 1600);
    }
}
