//! Minimal in-tree stand-in for the `arc_swap` crate.
//!
//! Provides [`ArcSwap`]: an `Arc<T>` that can be read **wait-free** (one
//! atomic pointer load, no locks, no reference-count traffic) and replaced
//! atomically by writers. The real `arc_swap` crate reclaims replaced
//! snapshots with a hazard/debt scheme; this shim instead **retires** them —
//! every snapshot ever stored stays allocated until the `ArcSwap` itself is
//! dropped, which is what makes the lock-free `load` sound without any
//! per-reader bookkeeping.
//!
//! **This shim is not a drop-in for the real crate**: `load` returns `&T`
//! borrowed from the cell (the real crate returns a `Guard` dereferencing to
//! `Arc<T>`), precisely because retirement makes the plain borrow sound.
//! Call sites written against it need adjustment before swapping the real
//! crate in — the workspace `Cargo.toml` notes this divergence.
//!
//! That trade-off targets exactly the workloads this workspace swaps:
//! append-only or rarely-reconfigured index structures (a region's slab
//! table, the region map of a machine, a node's OAT provider, the cluster
//! view) whose update count over the process lifetime is small and bounded,
//! while reads are the per-operation hot path. Do not use it for values
//! replaced at high rate — retired snapshots would accumulate.

use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{Arc, Mutex};

/// An atomically swappable `Arc<T>` with wait-free reads.
///
/// Readers call [`ArcSwap::load`] (a borrow costing one atomic load) or
/// [`ArcSwap::load_full`] (an owned `Arc<T>` clone). Writers call
/// [`ArcSwap::store`], which publishes a new snapshot and retires the old
/// one. Retired snapshots are freed when the `ArcSwap` is dropped.
pub struct ArcSwap<T> {
    /// Points at a `Box<Arc<T>>` leaked into place; never null.
    current: AtomicPtr<Arc<T>>,
    /// Snapshots replaced by `store`, kept alive so concurrent `load`
    /// borrows can never dangle. Freed in `Drop` (exclusive access).
    retired: Mutex<Vec<*mut Arc<T>>>,
}

// The raw pointers in `retired` are uniquely owned boxes of `Arc<T>`; they
// carry the same thread-safety requirements as `Arc<T>` itself.
unsafe impl<T: Send + Sync> Send for ArcSwap<T> {}
unsafe impl<T: Send + Sync> Sync for ArcSwap<T> {}

impl<T> ArcSwap<T> {
    /// Creates the cell holding `value`.
    pub fn new(value: Arc<T>) -> ArcSwap<T> {
        ArcSwap {
            current: AtomicPtr::new(Box::into_raw(Box::new(value))),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Convenience constructor from a bare value.
    pub fn from_pointee(value: T) -> ArcSwap<T> {
        ArcSwap::new(Arc::new(value))
    }

    /// Borrows the current snapshot — one atomic load, wait-free.
    ///
    /// The borrow stays valid for the lifetime of `&self` even if a writer
    /// replaces the snapshot concurrently: replaced snapshots are retired,
    /// not freed, until the `ArcSwap` itself is dropped.
    pub fn load(&self) -> &T {
        // SAFETY: `current` always points at a live `Box<Arc<T>>`; boxes are
        // only freed in `Drop`, which requires exclusive access, so the
        // reference cannot outlive the pointee.
        unsafe { &*self.current.load(Ordering::Acquire) }
    }

    /// Returns an owned clone of the current snapshot.
    pub fn load_full(&self) -> Arc<T> {
        // SAFETY: as in `load`; cloning bumps the strong count on an `Arc`
        // that is kept alive (via the retired list) at least until `Drop`.
        unsafe { Arc::clone(&*self.current.load(Ordering::Acquire)) }
    }

    /// Publishes `new` as the current snapshot and retires the old one.
    pub fn store(&self, new: Arc<T>) {
        let fresh = Box::into_raw(Box::new(new));
        let old = self.current.swap(fresh, Ordering::AcqRel);
        self.retired
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(old);
    }

    /// `store` returning the previous snapshot.
    pub fn swap(&self, new: Arc<T>) -> Arc<T> {
        let fresh = Box::into_raw(Box::new(new));
        let old = self.current.swap(fresh, Ordering::AcqRel);
        // SAFETY: `old` is the previous uniquely-owned box; we clone the Arc
        // out before retiring the box itself.
        let previous = unsafe { Arc::clone(&*old) };
        self.retired
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(old);
        previous
    }

    /// Number of retired (replaced but not yet freed) snapshots. Exposed so
    /// tests can verify update rates stay within this shim's design envelope.
    pub fn retired_len(&self) -> usize {
        self.retired.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

impl<T> Drop for ArcSwap<T> {
    fn drop(&mut self) {
        // Exclusive access: no loads can be in flight; free everything.
        let current = *self.current.get_mut();
        // SAFETY: `current` and every retired pointer are distinct leaked
        // boxes owned by this cell.
        unsafe { drop(Box::from_raw(current)) };
        for ptr in self
            .retired
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
        {
            unsafe { drop(Box::from_raw(ptr)) };
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ArcSwap<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ArcSwap").field(self.load()).finish()
    }
}

impl<T: Default> Default for ArcSwap<T> {
    fn default() -> Self {
        ArcSwap::from_pointee(T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn load_and_store_roundtrip() {
        let cell = ArcSwap::from_pointee(vec![1, 2, 3]);
        assert_eq!(cell.load().len(), 3);
        cell.store(Arc::new(vec![4]));
        assert_eq!(cell.load(), &vec![4]);
        assert_eq!(cell.retired_len(), 1);
        let owned = cell.load_full();
        assert_eq!(*owned, vec![4]);
    }

    #[test]
    fn swap_returns_previous() {
        let cell = ArcSwap::from_pointee(7u32);
        let prev = cell.swap(Arc::new(9));
        assert_eq!(*prev, 7);
        assert_eq!(*cell.load(), 9);
    }

    #[test]
    fn borrows_survive_concurrent_stores() {
        // A reader holding a `load` borrow across a writer's `store` must
        // keep seeing its original (retired) snapshot.
        let cell = Arc::new(ArcSwap::from_pointee(vec![0u64; 64]));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut gen = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    cell.store(Arc::new(vec![gen; 64]));
                    gen += 1;
                }
            })
        };
        for _ in 0..2_000 {
            let snapshot = cell.load();
            let first = snapshot[0];
            // Every element of one snapshot is identical; a torn or freed
            // snapshot would break this.
            assert!(snapshot.iter().all(|&v| v == first));
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn dropped_cell_frees_all_snapshots() {
        // Drop runs without double-free or leak under miri-style scrutiny;
        // here we just exercise the path.
        let cell = ArcSwap::from_pointee(String::from("a"));
        for i in 0..10 {
            cell.store(Arc::new(format!("{i}")));
        }
        assert_eq!(cell.retired_len(), 10);
        drop(cell);
    }
}
