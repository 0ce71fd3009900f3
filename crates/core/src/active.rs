//! Lock-free tracking of active local transactions.
//!
//! FaRMv2 computes each machine's oldest-active-timestamp (OAT, Figure 9)
//! without any centralized synchronization: every thread publishes the read
//! timestamps of its in-flight transactions in its own slots, and the OAT is
//! a wait-free minimum scan over all slots. This module is that structure —
//! the replacement for the seed's node-global `Mutex<BTreeMap>` which made
//! every `begin`/`finish` serialize.
//!
//! Layout: a fixed table of `SHARDS` cache-line-sized shards of
//! `SLOTS_PER_SHARD` atomic slots each. A slot holds either a read
//! timestamp or the [`EMPTY`] sentinel. Each thread is assigned a home shard
//! (round-robin at first use), so in the common case `begin` is one
//! compare-and-swap on an otherwise-idle cache line and `finish` is one
//! store. If every slot is taken — more concurrent transactions than slots,
//! e.g. thousands of pinned snapshots — registrations spill into a mutexed
//! overflow map; the spillover is counted so the fast path can skip the lock
//! entirely when the overflow is empty.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;

/// Sentinel marking a free slot. Registered timestamps are clamped one below
/// it, which is semantically free: a `u64::MAX` read timestamp constrains no
/// minimum.
pub const EMPTY: u64 = u64::MAX;

/// Shards in the table. Each is one 64-byte cache line of slots.
const SHARDS: usize = 64;

/// Slots per shard (8 × `u64` = one cache line).
const SLOTS_PER_SHARD: usize = 8;

/// One cache line of active-transaction slots, plus (on its own second
/// cache line, thanks to the alignment padding) an occupancy count that
/// lets the OAT scan skip shards with no registrations at all.
#[repr(align(64))]
struct Shard {
    slots: [AtomicU64; SLOTS_PER_SHARD],
    /// Number of occupied slots. Incremented *before* the slot CAS in
    /// `register` and decremented *after* the slot store in `unregister`,
    /// so a scanner reading 0 is guaranteed the shard held no registration
    /// that had completed before the read — it may only miss registrations
    /// still in flight, whose timestamps are bounded by the clock's current
    /// lower bound and therefore cannot lower the OAT (see
    /// [`ActiveTxTable::oat`]).
    used: AtomicUsize,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            slots: std::array::from_fn(|_| AtomicU64::new(EMPTY)),
            used: AtomicUsize::new(0),
        }
    }
}

/// Handle returned by [`ActiveTxTable::register`]; required to unregister.
///
/// Copyable so transaction objects can store it inline; callers must
/// unregister exactly once (a double-unregister of a `Slot` token could wipe
/// a later registration that reused the slot — the engine's `finished` flag
/// enforces the discipline, as it did for the serial-keyed map).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActiveToken {
    /// Fast path: flat slot index into the shard table.
    Slot(u32),
    /// Spillover: key into the overflow map (the registration serial).
    Overflow(u64),
}

/// The per-node active-transaction table. See the module docs.
pub struct ActiveTxTable {
    shards: Vec<Shard>,
    /// Spillover registrations: serial → read timestamp.
    overflow: Mutex<BTreeMap<u64, u64>>,
    /// Number of entries in `overflow`, so [`ActiveTxTable::oat`] can skip
    /// the lock (and stay wait-free) while nothing has spilled.
    overflow_len: AtomicUsize,
}

impl Default for ActiveTxTable {
    fn default() -> Self {
        ActiveTxTable::new()
    }
}

impl ActiveTxTable {
    /// Creates an empty table.
    pub fn new() -> ActiveTxTable {
        ActiveTxTable {
            shards: (0..SHARDS).map(|_| Shard::new()).collect(),
            overflow: Mutex::new(BTreeMap::new()),
            overflow_len: AtomicUsize::new(0),
        }
    }

    /// The calling thread's home shard, assigned round-robin at first use
    /// (same ordinal scheme as the old-version cursor shards).
    fn home_shard() -> usize {
        farm_memory::thread_ordinal() % SHARDS
    }

    /// Publishes an active transaction with the given read timestamp.
    /// `serial` is only used to key the overflow map when the table is full.
    ///
    /// The common case is one CAS into a free slot of the caller's home
    /// shard; the shard is effectively thread-private, so the CAS does not
    /// contend.
    pub fn register(&self, serial: u64, read_ts: u64) -> ActiveToken {
        let ts = read_ts.min(EMPTY - 1);
        let home = Self::home_shard();
        for probe in 0..SHARDS {
            let shard = &self.shards[(home + probe) % SHARDS];
            // Publish intent before touching the slots, so an OAT scan that
            // observes `used == 0` can safely skip the whole shard: any
            // registration it might thereby miss has not completed yet.
            shard.used.fetch_add(1, Ordering::AcqRel);
            for (i, slot) in shard.slots.iter().enumerate() {
                if slot.load(Ordering::Relaxed) == EMPTY
                    && slot
                        .compare_exchange(EMPTY, ts, Ordering::AcqRel, Ordering::Relaxed)
                        .is_ok()
                {
                    let flat = ((home + probe) % SHARDS) * SLOTS_PER_SHARD + i;
                    return ActiveToken::Slot(flat as u32);
                }
            }
            // No free slot here: withdraw the intent and try the next shard.
            shard.used.fetch_sub(1, Ordering::AcqRel);
        }
        // Every slot taken: spill over.
        self.overflow.lock().insert(serial, ts);
        self.overflow_len.fetch_add(1, Ordering::Release);
        ActiveToken::Overflow(serial)
    }

    /// Replaces the read timestamp of an existing registration (one release
    /// store for slot tokens). Used by `begin`, which first registers a
    /// conservative placeholder (the clock's current lower bound) and then
    /// raises it to the acquired read timestamp — so a control round that
    /// interleaves with `begin` can only *under*-estimate the OAT, never
    /// advance it past a timestamp that is about to become live.
    pub fn update(&self, token: ActiveToken, read_ts: u64) {
        let ts = read_ts.min(EMPTY - 1);
        match token {
            ActiveToken::Slot(flat) => {
                let shard = flat as usize / SLOTS_PER_SHARD;
                let slot = flat as usize % SLOTS_PER_SHARD;
                self.shards[shard].slots[slot].store(ts, Ordering::Release);
            }
            ActiveToken::Overflow(serial) => {
                self.overflow.lock().insert(serial, ts);
            }
        }
    }

    /// Withdraws a registration. One release store (plus the occupancy
    /// decrement) for slot tokens.
    pub fn unregister(&self, token: ActiveToken) {
        match token {
            ActiveToken::Slot(flat) => {
                let shard = flat as usize / SLOTS_PER_SHARD;
                let slot = flat as usize % SLOTS_PER_SHARD;
                self.shards[shard].slots[slot].store(EMPTY, Ordering::Release);
                // After the slot store: the count never reads 0 while a
                // completed registration is still in its slot.
                self.shards[shard].used.fetch_sub(1, Ordering::AcqRel);
            }
            ActiveToken::Overflow(serial) => {
                if self.overflow.lock().remove(&serial).is_some() {
                    self.overflow_len.fetch_sub(1, Ordering::Release);
                }
            }
        }
    }

    /// The oldest active read timestamp, or `None` when no transaction is
    /// registered — the node's OAT contribution. A wait-free scan that
    /// reads one occupancy word per shard and only walks the slots of
    /// shards that hold registrations: with T worker threads the scan costs
    /// `64 + 8·min(T, 64)` loads instead of a fixed 512, which is what made
    /// 4 and 8 worker threads pay more per control round than the
    /// global-mutex table it replaced (measured in CHANGES.md, PRs 4–5).
    ///
    /// Skipping a shard whose `used` reads 0 is safe: `register` raises the
    /// count *before* claiming a slot, so only a registration that has not
    /// yet returned can be missed — and `begin` publishes its conservative
    /// placeholder (≤ the clock's current lower bound) through exactly this
    /// path before acquiring its timestamp, so a missed in-flight
    /// registration is always covered by the clock lower bound that
    /// [`NodeHandle::oat_local`](farm_kernel::NodeHandle::oat_local) also
    /// takes the minimum with.
    pub fn oat(&self) -> Option<u64> {
        let mut min: u64 = EMPTY;
        for shard in &self.shards {
            if shard.used.load(Ordering::Acquire) == 0 {
                continue;
            }
            for slot in &shard.slots {
                min = min.min(slot.load(Ordering::Acquire));
            }
        }
        if self.overflow_len.load(Ordering::Acquire) > 0 {
            if let Some(&ts) = self.overflow.lock().values().min() {
                min = min.min(ts);
            }
        }
        if min == EMPTY {
            None
        } else {
            Some(min)
        }
    }

    /// Number of current registrations (slots + overflow). For tests and
    /// reporting; counts concurrently-changing slots, so only exact when the
    /// table is quiescent.
    pub fn len(&self) -> usize {
        let slots = self
            .shards
            .iter()
            .flat_map(|s| s.slots.iter())
            .filter(|s| s.load(Ordering::Acquire) != EMPTY)
            .count();
        slots + self.overflow_len.load(Ordering::Acquire)
    }

    /// Whether no transaction is currently registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for ActiveTxTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveTxTable")
            .field("active", &self.len())
            .field("oat", &self.oat())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn register_unregister_and_oat() {
        let t = ActiveTxTable::new();
        assert_eq!(t.oat(), None);
        let a = t.register(1, 100);
        let b = t.register(2, 50);
        let c = t.register(3, 200);
        assert_eq!(t.oat(), Some(50));
        assert_eq!(t.len(), 3);
        t.unregister(b);
        assert_eq!(t.oat(), Some(100));
        t.unregister(a);
        t.unregister(c);
        assert_eq!(t.oat(), None);
        assert!(t.is_empty());
    }

    #[test]
    fn max_timestamp_is_clamped_not_confused_with_empty() {
        let t = ActiveTxTable::new();
        let tok = t.register(1, u64::MAX);
        assert_eq!(t.oat(), Some(u64::MAX - 1));
        assert_eq!(t.len(), 1);
        t.unregister(tok);
        assert_eq!(t.oat(), None);
    }

    #[test]
    fn spills_into_overflow_when_slots_exhausted() {
        let t = ActiveTxTable::new();
        let capacity = SHARDS * SLOTS_PER_SHARD;
        let mut tokens: Vec<ActiveToken> = (0..capacity as u64)
            .map(|i| t.register(i, 1_000 + i))
            .collect();
        assert!(tokens.iter().all(|t| matches!(t, ActiveToken::Slot(_))));
        // The next registrations must spill, and the overflow minimum must
        // still feed the OAT.
        let spill = t.register(9_999, 5);
        assert!(matches!(spill, ActiveToken::Overflow(9_999)));
        assert_eq!(t.oat(), Some(5));
        assert_eq!(t.len(), capacity + 1);
        t.unregister(spill);
        assert_eq!(t.oat(), Some(1_000));
        for tok in tokens.drain(..) {
            t.unregister(tok);
        }
        assert_eq!(t.oat(), None);
    }

    #[test]
    fn concurrent_register_unregister_is_exact_when_quiescent() {
        let t = Arc::new(ActiveTxTable::new());
        let handles: Vec<_> = (0..8u64)
            .map(|thread| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        let serial = thread * 1_000_000 + i;
                        let tok = t.register(serial, 10 + serial);
                        std::hint::spin_loop();
                        t.unregister(tok);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.oat(), None, "all registrations withdrawn");
        assert!(t.is_empty());
    }

    #[test]
    fn occupancy_skip_never_hides_a_completed_registration() {
        // Hammer register/unregister from many threads while a scanner
        // checks that a permanently registered floor is never lost to the
        // shard-skip fast path, and that the table drains back to empty.
        let t = Arc::new(ActiveTxTable::new());
        let stop = Arc::new(AtomicBool::new(false));
        let floor = t.register(0, 42);
        let writers: Vec<_> = (0..4u64)
            .map(|thread| {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let tok = t.register(thread * 1_000_000 + i, 1_000 + i);
                        t.unregister(tok);
                        i += 1;
                    }
                })
            })
            .collect();
        for _ in 0..20_000 {
            assert_eq!(
                t.oat(),
                Some(42),
                "shard-skip scan lost the completed floor registration"
            );
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        t.unregister(floor);
        assert_eq!(t.oat(), None);
        assert!(t.is_empty());
    }

    #[test]
    fn oat_scan_never_reports_below_any_live_registration() {
        // Writers register monotonically increasing timestamps; a concurrent
        // scanner must never observe an OAT above a timestamp that is
        // currently registered (it may observe one below — a registration
        // may complete right after the scan).
        let t = Arc::new(ActiveTxTable::new());
        let stop = Arc::new(AtomicBool::new(false));
        let floor = t.register(0, 100); // permanent lower bound
        let writers: Vec<_> = (0..4u64)
            .map(|thread| {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let tok = t.register(thread * 1_000_000 + i, 200 + i);
                        t.unregister(tok);
                        i += 1;
                    }
                })
            })
            .collect();
        for _ in 0..10_000 {
            let oat = t.oat().expect("floor registration always present");
            assert!(oat <= 100, "OAT {oat} exceeds the live floor (ts=100)");
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        t.unregister(floor);
    }
}
