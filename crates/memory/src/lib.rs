//! # farm-memory — regions, slabs, object headers and old-version storage
//!
//! FaRM exposes a global flat address space pooled from the DRAM of every
//! machine in the cluster. This crate implements the per-machine memory
//! subsystem of FaRMv2 as described in Sections 4.4, 4.5 and 4.8 of the
//! paper:
//!
//! * **Regions** (Section 3.1): the unit of replication. A region is divided
//!   into **slabs**; each slab holds objects of a single size class and is
//!   owned by one thread of the machine holding the primary replica, so the
//!   common-case allocation touches only thread-local state. Free objects
//!   within a slab are tracked with a hierarchical bitmap
//!   ([`bitmap::FreeBitmap`]). A slab is **one allocation** holding its
//!   slots inline; a free slot owns no heap memory, and a slot is held from
//!   outside through a [`SlotRef`] (slab + index).
//! * **Object headers** (Figure 7): a 128-bit header per head version with a
//!   lock bit `L`, an allocated bit `A`, an 8-bit install counter `CL`, a
//!   53-bit write timestamp `TS`, and an old-version pointer `OVP`. The head
//!   version's location never changes so it can always be read with a single
//!   one-sided RDMA read.
//! * **Old-version storage** (Figure 8): old versions live in 1 MB blocks
//!   carved out of unreplicated regions, bump-allocated by the owning thread
//!   and garbage-collected at *block* granularity: a block is freed when its
//!   GC time (the maximum write timestamp of any old version inside it) drops
//!   below the global GC safe point.
//!
//! ### Fidelity note
//!
//! The paper makes RDMA reads atomic by replicating the `CL` counter at the
//! start of every cache line. Inside a single process we instead guard the
//! payload with a lightweight reader/writer lock and use the
//! `read header → read payload → re-read header` dance
//! ([`ObjectSlot::read_consistent`]) to obtain the same "atomic snapshot of
//! one object version" guarantee. The header itself is two atomic words, so
//! lock/validate operations are real compare-and-swaps just like the NIC-side
//! atomics they stand in for.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod addr;
pub mod bitmap;
pub mod header;
pub mod object;
pub mod oldver;
pub mod region;
pub mod slab;

pub use addr::{Addr, BlockId, OldAddr, RegionId};
pub use header::{HeaderSnapshot, ObjectHeader};
pub use object::{ConsistentRead, InstallOutcome, LockOutcome, ObjectSlot};
pub use oldver::{OldVersion, OldVersionStore};
pub use region::{BatchLockFailure, Region, RegionConfig, RegionStore, LOCK_ANY_VERSION};
pub use slab::{Slab, SlabError, SlotRef};

/// Size classes used by the slab allocator, in bytes. Objects are rounded up
/// to the nearest class; the paper's minimum object size is 64 bytes.
pub const SIZE_CLASSES: [usize; 7] = [64, 128, 256, 512, 1024, 2048, 4096];

/// A stable dense ordinal for the calling thread, assigned round-robin on
/// first use. Shared by every sharded per-thread structure in the workspace
/// (old-version allocation cursors, the engine's active-transaction slot
/// table): take `thread_ordinal() % shards` to pick a home shard, so a
/// thread lands on related shards across structures and the assignment logic
/// lives in exactly one place.
pub fn thread_ordinal() -> usize {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static ORDINAL: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    ORDINAL.with(|o| {
        if o.get() == usize::MAX {
            o.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        o.get()
    })
}

/// Rounds a requested object size up to its size class.
///
/// Returns `None` if the size exceeds the largest class.
pub fn size_class_for(len: usize) -> Option<usize> {
    SIZE_CLASSES.iter().copied().find(|&c| c >= len.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_class_rounds_up() {
        assert_eq!(size_class_for(1), Some(64));
        assert_eq!(size_class_for(0), Some(64));
        assert_eq!(size_class_for(64), Some(64));
        assert_eq!(size_class_for(65), Some(128));
        assert_eq!(size_class_for(4096), Some(4096));
        assert_eq!(size_class_for(4097), None);
    }
}
