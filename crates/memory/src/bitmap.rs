//! Hierarchical free-slot bitmap for slabs (Section 4.8).
//!
//! Each slab tracks which of its fixed-size object slots are free with a
//! two-level bitmap: a leaf word per 64 slots plus a summary word per 64 leaf
//! words whose bits say "this leaf has at least one free slot". Finding a
//! free slot therefore touches at most a handful of words regardless of slab
//! size, which is what makes the common-case allocation path in FaRM a few
//! memory accesses on thread-local state.

/// A two-level hierarchical bitmap over `capacity` slots.
///
/// Bit value `1` means *free*. The structure is not internally synchronized:
/// in FaRM each slab is owned by a single thread, so the owner mutates the
/// bitmap without synchronization; cross-thread access goes through the
/// slab's lock.
#[derive(Debug, Clone)]
pub struct FreeBitmap {
    capacity: usize,
    /// Leaf words: bit i of word w covers slot w*64 + i.
    leaves: Vec<u64>,
    /// Summary words: bit j of word s is set iff leaf s*64 + j has a free bit.
    summary: Vec<u64>,
    free_count: usize,
}

impl FreeBitmap {
    /// Creates a bitmap with all `capacity` slots free.
    pub fn new_all_free(capacity: usize) -> Self {
        let leaf_words = capacity.div_ceil(64);
        let mut leaves = vec![u64::MAX; leaf_words];
        // Clear the bits beyond capacity in the last word.
        if !capacity.is_multiple_of(64) {
            let valid = capacity % 64;
            leaves[leaf_words - 1] = (1u64 << valid) - 1;
        }
        let summary_words = leaf_words.div_ceil(64);
        let mut summary = vec![0u64; summary_words.max(1)];
        for (w, &leaf) in leaves.iter().enumerate() {
            if leaf != 0 {
                summary[w / 64] |= 1 << (w % 64);
            }
        }
        FreeBitmap {
            capacity,
            leaves,
            summary,
            free_count: capacity,
        }
    }

    /// Number of slots the bitmap covers.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently free slots.
    pub fn free_count(&self) -> usize {
        self.free_count
    }

    /// Allocates the lowest-numbered free slot, or `None` if full.
    pub fn allocate(&mut self) -> Option<usize> {
        // Find the first summary word with a set bit.
        let (sw_idx, sw) = self.summary.iter().enumerate().find(|(_, w)| **w != 0)?;
        let leaf_idx = sw_idx * 64 + sw.trailing_zeros() as usize;
        let leaf = self.leaves[leaf_idx];
        debug_assert!(leaf != 0, "summary bit set but leaf empty");
        let bit = leaf.trailing_zeros() as usize;
        let slot = leaf_idx * 64 + bit;
        self.leaves[leaf_idx] &= !(1 << bit);
        if self.leaves[leaf_idx] == 0 {
            self.summary[leaf_idx / 64] &= !(1 << (leaf_idx % 64));
        }
        self.free_count -= 1;
        Some(slot)
    }

    /// Marks `slot` free again. Panics if it was already free (double free).
    pub fn free(&mut self, slot: usize) {
        assert!(
            slot < self.capacity,
            "slot {slot} out of range {}",
            self.capacity
        );
        let leaf_idx = slot / 64;
        let bit = 1u64 << (slot % 64);
        assert!(
            self.leaves[leaf_idx] & bit == 0,
            "double free of slot {slot}"
        );
        self.leaves[leaf_idx] |= bit;
        self.summary[leaf_idx / 64] |= 1 << (leaf_idx % 64);
        self.free_count += 1;
    }

    /// Marks `slot` allocated (used when rebuilding from headers).
    pub fn mark_allocated(&mut self, slot: usize) {
        assert!(slot < self.capacity);
        let leaf_idx = slot / 64;
        let bit = 1u64 << (slot % 64);
        if self.leaves[leaf_idx] & bit != 0 {
            self.leaves[leaf_idx] &= !bit;
            if self.leaves[leaf_idx] == 0 {
                self.summary[leaf_idx / 64] &= !(1 << (leaf_idx % 64));
            }
            self.free_count -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_returns_lowest_free_slot() {
        let mut b = FreeBitmap::new_all_free(10);
        assert_eq!(b.allocate(), Some(0));
        assert_eq!(b.allocate(), Some(1));
        b.free(0);
        assert_eq!(b.allocate(), Some(0));
        assert_eq!(b.free_count(), 8);
    }

    #[test]
    fn exhausts_and_reports_full() {
        let mut b = FreeBitmap::new_all_free(3);
        assert_eq!(b.allocate(), Some(0));
        assert_eq!(b.allocate(), Some(1));
        assert_eq!(b.allocate(), Some(2));
        assert_eq!(b.free_count(), 0);
        assert_eq!(b.allocate(), None);
        b.free(1);
        assert_eq!(b.allocate(), Some(1));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut b = FreeBitmap::new_all_free(4);
        let s = b.allocate().unwrap();
        b.free(s);
        b.free(s);
    }

    #[test]
    fn capacity_not_multiple_of_64() {
        let mut b = FreeBitmap::new_all_free(100);
        let mut got = Vec::new();
        while let Some(s) = b.allocate() {
            got.push(s);
        }
        assert_eq!(got.len(), 100);
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn large_capacity_crosses_summary_words() {
        // > 64*64 slots forces multiple summary words.
        let cap = 64 * 64 * 2 + 17;
        let mut b = FreeBitmap::new_all_free(cap);
        for i in 0..cap {
            assert_eq!(b.allocate(), Some(i));
        }
        assert_eq!(b.free_count(), 0);
        b.free(cap - 1);
        assert_eq!(b.allocate(), Some(cap - 1));
    }

    #[test]
    fn mark_allocated_is_idempotent() {
        let mut b = FreeBitmap::new_all_free(8);
        b.mark_allocated(3);
        b.mark_allocated(3);
        assert_eq!(b.free_count(), 7);
        let rest: Vec<usize> = std::iter::from_fn(|| b.allocate()).collect();
        assert_eq!(rest, [0, 1, 2, 4, 5, 6, 7], "slot 3 handed out");
    }

    #[test]
    fn all_free_reports_correctly() {
        let mut b = FreeBitmap::new_all_free(2);
        assert_eq!(b.free_count(), b.capacity());
        let s = b.allocate().unwrap();
        assert_eq!(b.free_count(), b.capacity() - 1);
        b.free(s);
        assert_eq!(b.free_count(), b.capacity());
    }
}
