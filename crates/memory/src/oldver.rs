//! Old-version storage: thread-local block allocation and block-granularity
//! garbage collection (Sections 4.4 and 4.5, Figure 8).
//!
//! Old versions are allocated when a primary processes a LOCK message: it
//! copies the current head version (payload, timestamp and old-version
//! pointer) into freshly allocated old-version memory, so that the head
//! version's location never changes. Old-version memory is carved into
//! blocks; each block is owned by one thread, allocation within a block is a
//! bump allocator, and an entire block is reclaimed once its **GC time**
//! (the maximum commit timestamp of the transactions that allocated versions
//! in it) falls below the global GC safe point.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use crate::addr::{BlockId, OldAddr};

/// A stored old version of an object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OldVersion {
    /// Write timestamp of this (old) version.
    pub ts: u64,
    /// Pointer to the next-older version, if any.
    pub ovp: Option<OldAddr>,
    /// Payload of this version.
    pub data: Bytes,
}

/// Approximate bytes consumed by one old version (payload + header), used
/// for block accounting.
fn entry_bytes(v: &OldVersion) -> usize {
    v.data.len() + 32
}

/// Errors from old-version allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OldVersionError {
    /// The configured old-version memory limit is exhausted; the caller
    /// applies one of the paper's three policies (block / abort / truncate).
    OutOfMemory,
}

impl std::fmt::Display for OldVersionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OldVersionError::OutOfMemory => write!(f, "old-version memory exhausted"),
        }
    }
}

impl std::error::Error for OldVersionError {}

#[derive(Debug)]
struct Block {
    /// Bumped every time the block is recycled; stale [`OldAddr`]s referring
    /// to a previous generation fail to resolve.
    generation: AtomicU32,
    /// Maximum commit timestamp of versions allocated in this block
    /// (0 for versions whose transaction aborted).
    gc_time: AtomicU64,
    used_bytes: AtomicUsize,
    /// Whether the block is some thread's currently-active allocation block
    /// (active blocks are never collected).
    active: AtomicU32,
    entries: RwLock<Vec<Option<OldVersion>>>,
}

impl Block {
    fn new() -> Self {
        Block {
            generation: AtomicU32::new(0),
            gc_time: AtomicU64::new(0),
            used_bytes: AtomicUsize::new(0),
            active: AtomicU32::new(0),
            entries: RwLock::new(Vec::new()),
        }
    }
}

/// Number of per-thread allocation cursors per store. Each thread allocates
/// through its own cursor shard, so concurrent LOCK batches — even to the
/// same primary — bump-allocate without contending on any store-global lock
/// (threads only share a shard when more than `CURSOR_SHARDS` of them hit
/// one store).
const CURSOR_SHARDS: usize = 64;

/// Per-machine old-version storage shared by all threads. Threads allocate
/// through per-thread cursor shards ([`OldVersionStore::allocate_local`], the
/// primary-side LOCK path).
pub struct OldVersionStore {
    block_bytes: usize,
    max_bytes: usize,
    blocks: RwLock<Vec<Arc<Block>>>,
    free_blocks: Mutex<Vec<BlockId>>,
    allocated_bytes: AtomicUsize,
    /// Per-thread-shard active-block cursors: each calling thread bump-
    /// allocates out of its own shard's block, exactly the paper's
    /// thread-local old-version allocation.
    cursors: Vec<Mutex<Option<BlockId>>>,
    /// Counters for reporting.
    blocks_created: AtomicU64,
    blocks_recycled: AtomicU64,
}

impl OldVersionStore {
    /// Creates a store with `block_bytes` per block and a total budget of
    /// `max_bytes` (the paper bounds old-version memory, e.g. 2 GB/server in
    /// the Figure 15 experiment).
    pub fn new(block_bytes: usize, max_bytes: usize) -> Self {
        assert!(block_bytes > 0 && max_bytes >= block_bytes);
        OldVersionStore {
            block_bytes,
            max_bytes,
            blocks: RwLock::new(Vec::new()),
            free_blocks: Mutex::new(Vec::new()),
            allocated_bytes: AtomicUsize::new(0),
            cursors: (0..CURSOR_SHARDS).map(|_| Mutex::new(None)).collect(),
            blocks_created: AtomicU64::new(0),
            blocks_recycled: AtomicU64::new(0),
        }
    }

    /// A store with defaults suitable for unit tests (small blocks).
    pub fn small() -> Self {
        Self::new(4 * 1024, 64 * 1024)
    }

    /// Bytes currently dedicated to old-version blocks.
    pub fn allocated_bytes(&self) -> usize {
        self.allocated_bytes.load(Ordering::Relaxed)
    }

    /// (blocks created, blocks recycled) counters.
    pub fn block_counters(&self) -> (u64, u64) {
        (
            self.blocks_created.load(Ordering::Relaxed),
            self.blocks_recycled.load(Ordering::Relaxed),
        )
    }

    /// Resolves an old-version address, returning `None` if the block was
    /// garbage-collected (and possibly reused) since the address was minted —
    /// the reader then aborts or falls back, never observing unrelated data.
    pub fn resolve(&self, addr: OldAddr) -> Option<OldVersion> {
        let block = {
            let blocks = self.blocks.read();
            blocks.get(addr.block.0 as usize).cloned()?
        };
        if block.generation.load(Ordering::Acquire) & 0xFFFF != addr.generation & 0xFFFF {
            return None;
        }
        let entries = block.entries.read();
        let v = entries.get(addr.index as usize).cloned().flatten();
        drop(entries);
        // Re-check the generation: the block may have been recycled while we
        // were reading.
        if block.generation.load(Ordering::Acquire) & 0xFFFF != addr.generation & 0xFFFF {
            return None;
        }
        v
    }

    /// Raises the GC time of the block containing `addr` to at least `wts`.
    /// Called when the transaction that allocated the old version commits
    /// with write timestamp `wts`.
    pub fn set_gc_time(&self, addr: OldAddr, wts: u64) {
        let blocks = self.blocks.read();
        if let Some(block) = blocks.get(addr.block.0 as usize) {
            if block.generation.load(Ordering::Acquire) & 0xFFFF == addr.generation & 0xFFFF {
                block.gc_time.fetch_max(wts, Ordering::AcqRel);
            }
        }
    }

    /// Frees every non-active block whose GC time is below `gc_point`
    /// (Section 4.5). Returns the number of blocks reclaimed.
    pub fn collect(&self, gc_point: u64) -> usize {
        let blocks = self.blocks.read();
        let mut freed = 0;
        let mut free_list = self.free_blocks.lock();
        for (i, block) in blocks.iter().enumerate() {
            if block.active.load(Ordering::Acquire) != 0 {
                continue;
            }
            if block.used_bytes.load(Ordering::Acquire) == 0 {
                continue; // already on the free list
            }
            if block.gc_time.load(Ordering::Acquire) < gc_point {
                // Recycle: bump generation first so concurrent readers fail,
                // then clear contents.
                block.generation.fetch_add(1, Ordering::AcqRel);
                block.entries.write().clear();
                block.used_bytes.store(0, Ordering::Release);
                block.gc_time.store(0, Ordering::Release);
                free_list.push(BlockId(i as u32));
                freed += 1;
                self.blocks_recycled.fetch_add(1, Ordering::Relaxed);
            }
        }
        freed
    }

    /// Acquires a block for a cursor shard: reuses a free block if one is
    /// available, otherwise creates a new block if the budget allows.
    fn acquire_block(&self) -> Result<BlockId, OldVersionError> {
        if let Some(id) = self.free_blocks.lock().pop() {
            let blocks = self.blocks.read();
            blocks[id.0 as usize].active.store(1, Ordering::Release);
            return Ok(id);
        }
        let current = self.allocated_bytes.load(Ordering::Relaxed);
        if current + self.block_bytes > self.max_bytes {
            return Err(OldVersionError::OutOfMemory);
        }
        self.allocated_bytes
            .fetch_add(self.block_bytes, Ordering::Relaxed);
        self.blocks_created.fetch_add(1, Ordering::Relaxed);
        let mut blocks = self.blocks.write();
        let id = BlockId(blocks.len() as u32);
        let block = Arc::new(Block::new());
        block.active.store(1, Ordering::Release);
        blocks.push(block);
        Ok(id)
    }

    fn release_block(&self, id: BlockId) {
        let blocks = self.blocks.read();
        if let Some(b) = blocks.get(id.0 as usize) {
            b.active.store(0, Ordering::Release);
        }
    }

    /// Allocates an old version through the calling thread's cursor shard —
    /// the primary-side LOCK-processing path. The shard mutex is private to
    /// (almost always) one thread, so the common case is an uncontended lock
    /// plus a bump allocation; no store-global lock is taken.
    ///
    /// `version` is bump-allocated out of the shard's active block; a full
    /// block is sealed and a fresh one acquired.
    pub fn allocate_local(&self, version: OldVersion) -> Result<OldAddr, OldVersionError> {
        let mut cursor = self.cursors[crate::thread_ordinal() % CURSOR_SHARDS].lock();
        let bytes = entry_bytes(&version);
        loop {
            let block_id = match *cursor {
                Some(b) => b,
                None => {
                    let b = self.acquire_block()?;
                    *cursor = Some(b);
                    b
                }
            };
            let blocks = self.blocks.read();
            let block = &blocks[block_id.0 as usize];
            let used = block.used_bytes.load(Ordering::Acquire);
            if used + bytes > self.block_bytes && used > 0 {
                // Block full: seal it and take another one.
                drop(blocks);
                self.release_block(block_id);
                *cursor = None;
                continue;
            }
            block.used_bytes.fetch_add(bytes, Ordering::AcqRel);
            let mut entries = block.entries.write();
            let index = entries.len() as u32;
            entries.push(Some(version));
            let generation = block.generation.load(Ordering::Acquire);
            return Ok(OldAddr {
                block: block_id,
                index,
                generation,
            });
        }
    }

    /// Seals every per-thread cursor's active block so all of them become
    /// eligible for GC (e.g. at the end of a benchmark phase).
    pub fn detach_cursors(&self) {
        for shard in &self.cursors {
            if let Some(b) = shard.lock().take() {
                self.release_block(b);
            }
        }
    }
}

impl std::fmt::Debug for OldVersionStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OldVersionStore")
            .field("allocated_bytes", &self.allocated_bytes())
            .field("block_bytes", &self.block_bytes)
            .field("max_bytes", &self.max_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ver(ts: u64, len: usize) -> OldVersion {
        OldVersion {
            ts,
            ovp: None,
            data: Bytes::from(vec![ts as u8; len]),
        }
    }

    #[test]
    fn allocate_and_resolve() {
        let store = OldVersionStore::small();
        let addr = store.allocate_local(ver(5, 100)).unwrap();
        let got = store.resolve(addr).unwrap();
        assert_eq!(got.ts, 5);
        assert_eq!(got.data.len(), 100);
    }

    #[test]
    fn chains_across_blocks() {
        let store = OldVersionStore::new(256, 16 * 1024);
        let mut prev: Option<OldAddr> = None;
        let mut addrs = Vec::new();
        for ts in 1..=20u64 {
            let v = OldVersion {
                ts,
                ovp: prev,
                data: Bytes::from(vec![0u8; 100]),
            };
            let a = store.allocate_local(v).unwrap();
            prev = Some(a);
            addrs.push(a);
        }
        // Walk the chain from the newest.
        let mut cur = prev;
        let mut seen = 0;
        while let Some(a) = cur {
            let v = store.resolve(a).unwrap();
            seen += 1;
            cur = v.ovp;
        }
        assert_eq!(seen, 20);
        let (created, _) = store.block_counters();
        assert!(created > 1, "several blocks should have been created");
    }

    #[test]
    fn out_of_memory_when_budget_exhausted() {
        let store = OldVersionStore::new(256, 512);
        let mut failures = 0;
        for ts in 0..100u64 {
            if store.allocate_local(ver(ts, 100)).is_err() {
                failures += 1;
            }
        }
        assert!(failures > 0, "budget of 512 bytes cannot hold 100 versions");
    }

    #[test]
    fn gc_reclaims_blocks_below_safe_point() {
        let store = OldVersionStore::new(256, 4096);
        let mut addrs = Vec::new();
        for ts in 1..=10u64 {
            let a = store.allocate_local(ver(ts, 100)).unwrap();
            store.set_gc_time(a, ts);
            addrs.push(a);
        }
        store.detach_cursors();
        // Safe point above every gc time: everything is reclaimed.
        let freed = store.collect(100);
        assert!(freed > 0);
        // Old addresses no longer resolve.
        assert!(addrs.iter().all(|a| store.resolve(*a).is_none()));
        // And the memory is reused rather than re-created.
        let (_created_before, recycled) = store.block_counters();
        assert!(recycled > 0);
        let a = store.allocate_local(ver(50, 100)).unwrap();
        assert!(store.resolve(a).is_some());
    }

    #[test]
    fn gc_skips_active_blocks_and_recent_versions() {
        let store = OldVersionStore::new(1024, 8192);
        let a = store.allocate_local(ver(10, 100)).unwrap();
        store.set_gc_time(a, 10);
        // Block is still the cursor's active block until `detach_cursors`:
        // not collected even though its GC time is below the safe point.
        assert_eq!(store.collect(100), 0);
        assert!(store.resolve(a).is_some());
        store.detach_cursors();
        // Safe point below the GC time: still not collected.
        assert_eq!(store.collect(5), 0);
        assert!(store.resolve(a).is_some());
        // Now collectable.
        assert_eq!(store.collect(11), 1);
        assert!(store.resolve(a).is_none());
    }

    #[test]
    fn aborted_versions_have_zero_gc_time_and_are_collected_immediately() {
        let store = OldVersionStore::new(1024, 8192);
        let _a = store.allocate_local(ver(99, 100)).unwrap();
        // The allocating transaction aborted: set_gc_time is never called, so
        // the block's GC time stays 0 and any positive safe point reclaims it.
        store.detach_cursors();
        assert_eq!(store.collect(1), 1);
    }

    #[test]
    fn allocate_local_is_thread_sharded_and_detachable() {
        let store = Arc::new(OldVersionStore::new(1024, 64 * 1024));
        // Concurrent allocation through the per-thread shards: every address
        // resolves and no two threads corrupt each other's bump cursors.
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    (0..50u64)
                        .map(|i| {
                            let a = store.allocate_local(ver(t * 100 + i, 40)).unwrap();
                            store.set_gc_time(a, t * 100 + i);
                            a
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut addrs = Vec::new();
        for h in handles {
            addrs.extend(h.join().unwrap());
        }
        assert_eq!(addrs.len(), 200);
        for a in &addrs {
            assert!(store.resolve(*a).is_some());
        }
        // Cursor blocks are active, so nothing below the safe point is
        // reclaimed until the cursors detach.
        store.detach_cursors();
        assert!(store.collect(10_000) > 0);
        assert!(addrs.iter().all(|a| store.resolve(*a).is_none()));
    }

    #[test]
    fn stale_generation_does_not_resolve_after_reuse() {
        let store = OldVersionStore::new(256, 256);
        let a = store.allocate_local(ver(1, 50)).unwrap();
        store.detach_cursors();
        assert_eq!(store.collect(10), 1);
        // Reuse the same block for a new version.
        let b = store.allocate_local(ver(2, 50)).unwrap();
        assert_eq!(a.block, b.block, "block should have been recycled");
        assert_ne!(a.generation, b.generation);
        assert!(store.resolve(a).is_none(), "stale address must not resolve");
        assert_eq!(store.resolve(b).unwrap().ts, 2);
    }
}
