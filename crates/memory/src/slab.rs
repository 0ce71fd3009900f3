//! Slabs: fixed-size-class allocation areas within a region (Section 4.8).
//!
//! A slab is one allocation: its object slots sit inline, side by side, the
//! way a FaRM region is contiguous memory with each object a header followed
//! by its bytes. A slot is named from outside by a [`SlotRef`] — the slab
//! plus an index — so holding one slot costs a reference count on the slab,
//! not a heap object per slot.

use std::ops::Deref;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::bitmap::FreeBitmap;
use crate::object::ObjectSlot;

/// Errors from slab operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlabError {
    /// The slab has no free slots.
    Full,
    /// The slot index is out of range for this slab.
    BadSlot,
}

impl std::fmt::Display for SlabError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlabError::Full => write!(f, "slab full"),
            SlabError::BadSlot => write!(f, "slot index out of range"),
        }
    }
}

impl std::error::Error for SlabError {}

/// A slab: `capacity` object slots of a single size class, owned (in the
/// paper) by one thread of the primary's machine. All objects in a slab have
/// the same size, which allows the compact free bitmap. Size class and
/// capacity are fixed for the slab's lifetime.
pub struct Slab {
    object_size: usize,
    slots: Box<[ObjectSlot]>,
    bitmap: Mutex<FreeBitmap>,
}

impl Slab {
    /// Creates a slab of `capacity` slots of `object_size` bytes each.
    pub fn new(object_size: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "slab capacity must be positive");
        Slab {
            object_size,
            slots: (0..capacity).map(|_| ObjectSlot::new_free()).collect(),
            bitmap: Mutex::new(FreeBitmap::new_all_free(capacity)),
        }
    }

    /// An unsized, zero-capacity stand-in for a slab index a backup has heard
    /// nothing about yet (see [`crate::Region::ensure_slab`]). No slot index
    /// is valid in it and no size class matches it.
    pub(crate) fn placeholder() -> Self {
        Slab {
            object_size: 0,
            slots: Box::default(),
            bitmap: Mutex::new(FreeBitmap::new_all_free(0)),
        }
    }

    /// Whether this is a placeholder: the zero-capacity stand-in for a slab
    /// index a backup has heard nothing about yet.
    pub fn is_placeholder(&self) -> bool {
        self.slots.is_empty()
    }

    /// The size class of objects in this slab (0 for a placeholder).
    pub fn object_size(&self) -> usize {
        self.object_size
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of free slots.
    pub fn free_slots(&self) -> usize {
        self.bitmap.lock().free_count()
    }

    /// Allocates a slot, returning its index.
    pub fn allocate(&self) -> Result<u32, SlabError> {
        self.bitmap
            .lock()
            .allocate()
            .map(|s| s as u32)
            .ok_or(SlabError::Full)
    }

    /// Frees a slot index. The caller is responsible for having cleared the
    /// slot's header first (at commit of the freeing transaction).
    pub fn free(&self, slot: u32) -> Result<(), SlabError> {
        let mut bm = self.bitmap.lock();
        if (slot as usize) >= bm.capacity() {
            return Err(SlabError::BadSlot);
        }
        bm.free(slot as usize);
        Ok(())
    }

    /// Borrows the slot at `index` for the duration of the call — what paths
    /// that already pin the slab (a slab-table snapshot) use, with no
    /// reference-count traffic.
    pub fn get(&self, index: u32) -> Option<&ObjectSlot> {
        self.slots.get(index as usize)
    }

    /// Returns an owning handle to the slot at `index`.
    pub fn slot(self: &Arc<Self>, index: u32) -> Result<SlotRef, SlabError> {
        if (index as usize) < self.slots.len() {
            Ok(SlotRef {
                slab: Arc::clone(self),
                index,
            })
        } else {
            Err(SlabError::BadSlot)
        }
    }

    /// Rebuilds the free bitmap by scanning object headers. This is what a
    /// backup does when it is promoted to primary: the bitmap is only
    /// maintained at the primary, so the new primary reconstructs it from the
    /// allocated bits in the headers (Section 4.8).
    pub fn rebuild_bitmap_from_headers(&self) {
        let mut bm = FreeBitmap::new_all_free(self.slots.len());
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.header_snapshot().allocated {
                bm.mark_allocated(i);
            }
        }
        *self.bitmap.lock() = bm;
    }
}

impl std::fmt::Debug for Slab {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slab")
            .field("object_size", &self.object_size())
            .field("capacity", &self.capacity())
            .field("free", &self.free_slots())
            .finish()
    }
}

/// An owning handle to one slot of a slab: the slab and an index into it.
///
/// Dereferences to the [`ObjectSlot`]. It keeps the **slab** alive, so it
/// stays valid across slab-table growth and after the region is dropped from
/// its store; the slab's memory goes when the last handle does. Meant for
/// holders that outlive one call — a commit's held locks, the re-replication
/// copy, tests poking at a slot; per-operation paths borrow through
/// [`Slab::get`] instead.
#[derive(Clone)]
pub struct SlotRef {
    slab: Arc<Slab>,
    /// In range for `slab.slots`: checked by [`Slab::slot`], the only
    /// constructor, and a slab never changes capacity.
    index: u32,
}

impl Deref for SlotRef {
    type Target = ObjectSlot;
    fn deref(&self) -> &ObjectSlot {
        &self.slab.slots[self.index as usize]
    }
}

impl std::fmt::Debug for SlotRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotRef")
            .field("index", &self.index)
            .field("slot", &**self)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn allocate_and_free_cycle() {
        let slab = Slab::new(64, 8);
        assert_eq!(slab.capacity(), 8);
        assert_eq!(slab.object_size(), 64);
        let a = slab.allocate().unwrap();
        let b = slab.allocate().unwrap();
        assert_ne!(a, b);
        assert_eq!(slab.free_slots(), 6);
        slab.free(a).unwrap();
        assert_eq!(slab.free_slots(), 7);
    }

    #[test]
    fn full_slab_reports_error() {
        let slab = Slab::new(64, 2);
        slab.allocate().unwrap();
        slab.allocate().unwrap();
        assert_eq!(slab.allocate(), Err(SlabError::Full));
    }

    #[test]
    fn bad_slot_indices_are_rejected() {
        let slab = Arc::new(Slab::new(64, 2));
        assert_eq!(slab.free(5), Err(SlabError::BadSlot));
        assert!(slab.slot(5).is_err());
    }

    #[test]
    fn rebuild_bitmap_matches_headers() {
        let slab = Arc::new(Slab::new(64, 4));
        // Simulate a backup's state: slots 1 and 3 hold allocated objects,
        // but the (primary-only) bitmap was never maintained here.
        slab.slot(1)
            .unwrap()
            .initialize(5, Bytes::from_static(b"a"));
        slab.slot(3)
            .unwrap()
            .initialize(6, Bytes::from_static(b"b"));
        slab.rebuild_bitmap_from_headers();
        assert_eq!(slab.free_slots(), 2);
        let x = slab.allocate().unwrap();
        let y = slab.allocate().unwrap();
        let mut got = vec![x, y];
        got.sort();
        assert_eq!(got, vec![0, 2]);
    }

    #[test]
    fn slots_are_shared_references() {
        let slab = Arc::new(Slab::new(64, 2));
        let idx = slab.allocate().unwrap();
        let s1 = slab.slot(idx).unwrap();
        let s2 = slab.slot(idx).unwrap();
        s1.initialize(1, Bytes::from_static(b"shared"));
        assert_eq!(&s2.raw_data()[..], b"shared");
    }
}
