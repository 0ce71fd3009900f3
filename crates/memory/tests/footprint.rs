//! Heap footprint of the slab layout, counted by a `#[global_allocator]`
//! (requested bytes and allocation calls — deterministic, unlike RSS).
//!
//! The counters are per thread and the harness runs each test on its own
//! thread, so tests running side by side do not see each other's traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use farm_memory::{Addr, ObjectSlot, Region, RegionConfig, RegionId, Slab};

thread_local! {
    // `const` initialisers and no destructors: touching these from inside
    // the allocator never allocates.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only the thread-local cells above.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + layout.size() as isize));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE_BYTES.try_with(|c| c.set(c.get() - layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocation calls it made and the
/// change in live heap bytes it left behind, both on this thread.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, isize) {
    let (allocs, live) = (ALLOCS.get(), LIVE_BYTES.get());
    let out = f();
    (out, ALLOCS.get() - allocs, LIVE_BYTES.get() - live)
}

#[test]
fn a_slab_is_a_handful_of_allocations_and_a_free_slot_owns_no_heap() {
    assert!(
        std::mem::size_of::<ObjectSlot>() <= 48,
        "ObjectSlot grew to {} bytes",
        std::mem::size_of::<ObjectSlot>()
    );
    let (slab, allocs, live) = measured(|| Slab::new(64, 1024));
    // The slot array plus the bitmap's two word vectors; 2 051 when every
    // slot was its own `Arc` with an allocated empty payload.
    assert!(allocs <= 4, "Slab::new made {allocs} allocations");
    assert!(
        live <= 1024 * 48 + 256,
        "empty 1024-slot slab holds {live} bytes"
    );

    // Clearing and tombstoning hand the payload back and keep nothing.
    let slot = slab.get(0).unwrap();
    let ((), _, live) = measured(|| {
        slot.initialize(1, Bytes::from(vec![7u8; 40]));
        slot.clear();
        slot.initialize(2, Bytes::from(vec![7u8; 40]));
        slot.mark_replica_tombstone(3);
        slot.initialize(4, Bytes::from(vec![7u8; 40]));
        assert!(slot.try_lock_new());
        slot.install_tombstone_and_unlock(5, None);
    });
    assert_eq!(live, 0);
    let (_, allocs, _) = measured(|| (Bytes::new(), Bytes::default(), ObjectSlot::new_free()));
    assert_eq!(allocs, 0);
}

#[test]
fn filling_three_replicas_stays_under_260_bytes_per_object() {
    const OBJECTS: usize = 100_000;
    let id = RegionId(1);
    let (replicas, _, live) = measured(|| {
        let primary = Region::new(id, RegionConfig::default());
        let backups = [
            Region::new(id, RegionConfig::default()),
            Region::new(id, RegionConfig::default()),
        ];
        for i in 0..OBJECTS {
            let addr: Addr = primary.allocate(40).unwrap();
            let data = Bytes::from(vec![i as u8; 40]);
            primary.slot(addr).unwrap().initialize(9, data.clone());
            for b in &backups {
                b.apply_replicated(addr, 64, 9, &data, false);
            }
        }
        (primary, backups)
    });
    let per_object = live as usize / OBJECTS;
    // Three 48-byte slots and one shared 40-byte payload behind its
    // reference counts, plus bitmaps and slab tables: 203 requested bytes.
    // With a heap object per slot it was 276 (≈ 390 once malloc's per-chunk
    // overhead on those small objects is added).
    assert!(per_object <= 260, "{per_object} B/object over 3 replicas");
    let (primary, backups) = replicas;
    assert_eq!(primary.occupancy().1 + OBJECTS, primary.occupancy().0);
    assert_eq!(backups[0].slab_count(), primary.slab_count());
}
