//! Multi-worker commit pipelining: a [`PipelinePool`] of N worker threads,
//! each owning a deadline-heap reactor, fed from one bounded MPMC submit
//! ring — the step from "one fast thread" to a machine full of them
//! (PAPER.md §6: per-machine throughput scales with worker threads because
//! each thread multiplexes transactions over its completion queues).
//!
//! ## Structure
//!
//! * **Submit ring.** [`PipelinePool::submit`] pushes prepared work into a
//!   bounded ring; at capacity it blocks until a worker frees a slot
//!   (backpressure), [`PipelinePool::try_submit`] returns the transaction
//!   instead. Any thread may submit; any worker may pop.
//! * **Flight decks.** Each worker parks its waiting flights in its own
//!   *deck* — a mutex-guarded deadline heap (same ordering as the
//!   single-thread reactor). The deck mutex is the entire steal protocol:
//!   a flight inside a deck is, by invariant, **not being advanced by
//!   anyone**, so whoever pops it (owner or thief) may advance it.
//! * **Work stealing.** A worker with nothing ready steals two kinds of
//!   work before parking: an **expired flight** from another worker's deck
//!   (its owner is stuck in a deadline sleep — e.g. a long uncertainty
//!   wait — or busy issuing), and **pending-install backlog** chunks via
//!   [`NodeEngine::drain_pending_installs_up_to`]. Stealing a
//!   `Box<CommitDriver>` across threads is sound because drivers are
//!   resumable state machines with no thread affinity: every phase is an
//!   issue/finish pair against engine-shared state, and the box moves
//!   ownership wholesale (asserted `Send` in `driver.rs`).
//! * **Shutdown.** [`PipelinePool::shutdown`] (and `Drop`) is a
//!   deterministic drain: workers stop only once the ring is empty and
//!   their own deck has no flights, so every accepted transaction
//!   completes and no primary lock leaks.
//!
//! Timing accounting mirrors [`PipelineTimings`], accumulated in shared
//! atomics so [`PipelinePool::stats`] is accurate at any point (idle
//! parking on an empty ring is deliberately untracked — it is starvation,
//! not protocol flight time).

use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::engine::NodeEngine;
use crate::error::TxError;
use crate::stats::EngineStats;
use crate::tx::{CommitInfo, PreparedCommit, Transaction};

use super::driver::{CommitDriver, DriverStep};
use super::pipeline::{coalesced_target, PipelineTimings, Waiting};

/// How many queued commits one idle worker claims from the install backlog
/// per steal: bounded so a deep backlog cannot make it miss the next flight
/// deadline.
const STEAL_DRAIN_CHUNK: usize = 8;

/// How long an idle worker (no flights, empty ring) parks before re-scanning
/// other decks for stealable work.
const IDLE_PARK: Duration = Duration::from_micros(200);

/// Sizing of a [`PipelinePool`].
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Pipeline depth **per worker** (clamped to at least 1); total
    /// in-flight capacity is `workers * depth`.
    pub depth: usize,
    /// Submit-ring capacity; `submit` blocks (and `try_submit` refuses)
    /// beyond this many queued-but-unclaimed transactions.
    pub ring_capacity: usize,
}

impl PoolConfig {
    /// `workers` × `depth` with a ring sized at twice the total in-flight
    /// capacity — deep enough to keep workers fed, shallow enough that
    /// backpressure reaches the submitter quickly.
    pub fn new(workers: usize, depth: usize) -> Self {
        let workers = workers.max(1);
        let depth = depth.max(1);
        PoolConfig {
            workers,
            depth,
            ring_capacity: 2 * workers * depth,
        }
    }
}

/// Everything behind the pool's submit side: the ring, result accumulation
/// and the stop flag, under one mutex so the three condvars have a single
/// coherent predicate state.
struct PoolState {
    ring: VecDeque<Transaction>,
    accepted: u64,
    completed: u64,
    results: Vec<Result<CommitInfo, TxError>>,
    stop: bool,
}

/// One worker's parked flights. The mutex is the steal protocol: a flight
/// in the heap is not being advanced by anyone; popping it (owner or thief)
/// transfers the exclusive right to advance it.
struct Deck {
    waiting: Mutex<BinaryHeap<Waiting>>,
    /// Heap length mirror, updated under the mutex; lets owners count
    /// in-flight work and thieves skip empty decks without locking.
    len: AtomicUsize,
}

impl Deck {
    fn new() -> Self {
        Deck {
            waiting: Mutex::new(BinaryHeap::new()),
            len: AtomicUsize::new(0),
        }
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    fn push(&self, flight: Waiting) {
        let mut heap = self.waiting.lock().unwrap();
        heap.push(flight);
        self.len.store(heap.len(), Ordering::Release);
    }

    /// Pops every flight whose deadline has passed into `out` (one clock
    /// read serves the whole batch). Returns how many were popped. The
    /// boxes stay boxed: a pop transfers ownership of the flight without
    /// moving the large driver struct.
    #[allow(clippy::vec_box)]
    fn pop_expired(&self, now: Instant, out: &mut Vec<Box<CommitDriver>>) -> usize {
        let mut heap = self.waiting.lock().unwrap();
        let before = out.len();
        while heap.peek().is_some_and(|w| w.wake <= now) {
            out.push(heap.pop().expect("peeked").driver);
        }
        self.len.store(heap.len(), Ordering::Release);
        out.len() - before
    }

    /// Thief-side pop of one expired flight. Uses `try_lock`: if the owner
    /// holds the deck it is already tending these flights, so there is
    /// nothing worth stealing.
    fn steal_expired(&self, now: Instant) -> Option<Box<CommitDriver>> {
        if self.len() == 0 {
            return None;
        }
        let mut heap = self.waiting.try_lock().ok()?;
        if heap.peek().is_some_and(|w| w.wake <= now) {
            let flight = heap.pop().expect("peeked").driver;
            self.len.store(heap.len(), Ordering::Release);
            return Some(flight);
        }
        None
    }
}

/// Pool-wide cycle accounting in atomics (see [`PipelineTimings`]).
#[derive(Default)]
struct AtomicTimings {
    issue_ns: AtomicU64,
    wait_ns: AtomicU64,
    drain_ns: AtomicU64,
    steal_ns: AtomicU64,
    sweeps: AtomicU64,
    wakeups: AtomicU64,
    coalesced: AtomicU64,
}

impl AtomicTimings {
    fn add(&self, field: &AtomicU64, ns: u64) {
        field.fetch_add(ns, Ordering::Relaxed);
    }

    fn snapshot(&self, completed: u64) -> PipelineTimings {
        PipelineTimings {
            issue_ns: self.issue_ns.load(Ordering::Relaxed),
            wait_ns: self.wait_ns.load(Ordering::Relaxed),
            drain_ns: self.drain_ns.load(Ordering::Relaxed),
            steal_ns: self.steal_ns.load(Ordering::Relaxed),
            sweeps: self.sweeps.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            completed,
        }
    }
}

struct PoolShared {
    engine: Arc<NodeEngine>,
    depth: usize,
    capacity: usize,
    state: Mutex<PoolState>,
    /// Mirrors `PoolState::stop` for lock-free checks in the worker loop
    /// (the mutex-guarded copy is what the condvar predicates use).
    stopping: AtomicBool,
    /// Signaled when the ring frees a slot.
    space: Condvar,
    /// Signaled when the ring gains work (or on shutdown).
    work: Condvar,
    /// Signaled when `completed` catches up with `accepted`.
    idle: Condvar,
    decks: Vec<Deck>,
    timings: AtomicTimings,
    steals: AtomicU64,
    steal_drains: AtomicU64,
}

impl PoolShared {
    fn new(engine: Arc<NodeEngine>, workers: usize, depth: usize, capacity: usize) -> Arc<Self> {
        Arc::new(PoolShared {
            engine,
            depth,
            capacity,
            state: Mutex::new(PoolState {
                ring: VecDeque::new(),
                accepted: 0,
                completed: 0,
                results: Vec::new(),
                stop: false,
            }),
            stopping: AtomicBool::new(false),
            space: Condvar::new(),
            work: Condvar::new(),
            idle: Condvar::new(),
            decks: (0..workers).map(|_| Deck::new()).collect(),
            timings: AtomicTimings::default(),
            steals: AtomicU64::new(0),
            steal_drains: AtomicU64::new(0),
        })
    }

    /// Non-blocking pop of up to `max` transactions from the ring.
    fn pop_many(&self, max: usize, out: &mut Vec<Transaction>) {
        let popped = {
            let mut st = self.state.lock().unwrap();
            let n = st.ring.len().min(max);
            for _ in 0..n {
                out.push(st.ring.pop_front().expect("counted"));
            }
            n
        };
        if popped > 0 {
            self.space.notify_all();
        }
    }

    /// Records one finished commit (completion order across all workers).
    fn finish(&self, result: Result<CommitInfo, TxError>) {
        let all_done = {
            let mut st = self.state.lock().unwrap();
            st.completed += 1;
            st.results.push(result);
            st.completed == st.accepted
        };
        if all_done {
            self.idle.notify_all();
        }
    }

    /// One steal attempt across every other worker's deck.
    fn try_steal(&self, me: usize, now: Instant) -> Option<Box<CommitDriver>> {
        for (i, deck) in self.decks.iter().enumerate() {
            if i == me {
                continue;
            }
            if let Some(driver) = deck.steal_expired(now) {
                self.steals.fetch_add(1, Ordering::Relaxed);
                EngineStats::bump(&self.engine.stats.pipeline_steals);
                return Some(driver);
            }
        }
        None
    }

    /// Whether a worker with no local work may exit: shutdown requested and
    /// the ring fully claimed.
    fn should_exit(&self) -> bool {
        let st = self.state.lock().unwrap();
        st.stop && st.ring.is_empty()
    }

    /// Parks an idle worker until work arrives, shutdown starts, or the
    /// steal-scan interval elapses.
    fn park_for_work(&self) {
        let st = self.state.lock().unwrap();
        if !st.ring.is_empty() || st.stop {
            return;
        }
        let _ = self.work.wait_timeout(st, IDLE_PARK).unwrap();
    }
}

/// A pool of commit-pipeline workers; see the module docs. Built by
/// [`NodeEngine::pipeline_pool`].
pub struct PipelinePool {
    shared: Arc<PoolShared>,
    workers: usize,
    handles: Vec<JoinHandle<()>>,
}

/// Point-in-time pool counters (see [`PipelinePool::stats`]).
#[derive(Debug, Clone, Copy)]
pub struct PoolStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Expired flights advanced by a non-owner worker.
    pub steals: u64,
    /// Bounded install-backlog chunks drained by idle workers.
    pub steal_drains: u64,
    /// Commits completed through the pool.
    pub completed: u64,
    /// Merged cycle accounting across all workers.
    pub timings: PipelineTimings,
}

impl NodeEngine {
    /// Spawns a [`PipelinePool`] of `config.workers` pipeline workers, each
    /// multiplexing up to `config.depth` commit critical paths, committing
    /// on behalf of this node.
    pub fn pipeline_pool(self: &Arc<Self>, config: PoolConfig) -> PipelinePool {
        let workers = config.workers.max(1);
        let depth = config.depth.max(1);
        let shared = PoolShared::new(
            Arc::clone(self),
            workers,
            depth,
            config.ring_capacity.max(1),
        );
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("farm-pipeline-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn pipeline worker")
            })
            .collect();
        PipelinePool {
            shared,
            workers,
            handles,
        }
    }
}

impl PipelinePool {
    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Pipeline depth per worker.
    pub fn depth(&self) -> usize {
        self.shared.depth
    }

    /// Transactions accepted but not yet completed.
    pub fn pending(&self) -> u64 {
        let st = self.shared.state.lock().unwrap();
        st.accepted - st.completed
    }

    /// Submits a transaction for commit on some pool worker, blocking while
    /// the submit ring is full (backpressure). Panics if called after
    /// [`PipelinePool::shutdown`].
    pub fn submit(&self, tx: Transaction) {
        let mut st = self.shared.state.lock().unwrap();
        while st.ring.len() >= self.shared.capacity && !st.stop {
            st = self.shared.space.wait(st).unwrap();
        }
        assert!(!st.stop, "submit to a shut-down PipelinePool");
        st.ring.push_back(tx);
        st.accepted += 1;
        drop(st);
        self.shared.work.notify_one();
    }

    /// Non-blocking submit: returns the transaction if the ring is full or
    /// the pool is shutting down. The `Err` variant is deliberately the
    /// whole un-submitted transaction handed back to the caller, not an
    /// error payload.
    #[allow(clippy::result_large_err)]
    pub fn try_submit(&self, tx: Transaction) -> Result<(), Transaction> {
        let mut st = self.shared.state.lock().unwrap();
        if st.stop || st.ring.len() >= self.shared.capacity {
            return Err(tx);
        }
        st.ring.push_back(tx);
        st.accepted += 1;
        drop(st);
        self.shared.work.notify_one();
        Ok(())
    }

    /// Takes the results accumulated so far (completion order across the
    /// whole pool, which may differ from submission order).
    pub fn take(&self) -> Vec<Result<CommitInfo, TxError>> {
        std::mem::take(&mut self.shared.state.lock().unwrap().results)
    }

    /// Waits until every transaction accepted **so far** has completed,
    /// then takes all accumulated results.
    pub fn drain(&self) -> Vec<Result<CommitInfo, TxError>> {
        let mut st = self.shared.state.lock().unwrap();
        let target = st.accepted;
        while st.completed < target {
            // Re-notify in the loop: robust against a worker parked just
            // before our submit's notify landed.
            self.shared.work.notify_all();
            let (guard, _) = self
                .shared
                .idle
                .wait_timeout(st, Duration::from_millis(1))
                .unwrap();
            st = guard;
        }
        std::mem::take(&mut st.results)
    }

    /// Pool counters: steals, idle backlog drains, and merged per-worker
    /// cycle accounting.
    pub fn stats(&self) -> PoolStats {
        let completed = self.shared.state.lock().unwrap().completed;
        PoolStats {
            workers: self.workers,
            steals: self.shared.steals.load(Ordering::Relaxed),
            steal_drains: self.shared.steal_drains.load(Ordering::Relaxed),
            completed,
            timings: self.shared.timings.snapshot(completed),
        }
    }

    /// Deterministic drain-and-stop: workers complete every accepted
    /// transaction (the ring is emptied, every deck flight lands — no
    /// primary lock leaks), then exit. Results remain retrievable with
    /// [`PipelinePool::take`]. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.stopping.store(true, Ordering::Release);
        {
            let mut st = self.shared.state.lock().unwrap();
            st.stop = true;
        }
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for PipelinePool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for PipelinePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelinePool")
            .field("workers", &self.workers)
            .field("depth", &self.shared.depth)
            .finish()
    }
}

/// The worker body: refill from the ring, advance ready + expired flights,
/// then (in order) steal an expired flight, steal a backlog chunk, park.
fn worker_loop(shared: &Arc<PoolShared>, me: usize) {
    let engine = &shared.engine;
    let model = engine.meter.latency_model();
    let deck = &shared.decks[me];
    // Per-worker sequence space keeps heap tie-breaks deterministic even
    // for flights that hop decks.
    let mut seq = (me as u64) << 48;
    let mut ready: Vec<Box<CommitDriver>> = Vec::new();
    let mut incoming: Vec<Transaction> = Vec::new();
    loop {
        let mut progressed = false;

        // Refill from the submit ring up to this worker's depth.
        let in_flight = ready.len() + deck.len();
        if in_flight < shared.depth {
            shared.pop_many(shared.depth - in_flight, &mut incoming);
            for tx in incoming.drain(..) {
                progressed = true;
                match tx.prepare_commit() {
                    PreparedCommit::Done(result) => shared.finish(result),
                    PreparedCommit::InFlight(driver) => ready.push(driver),
                }
            }
        }

        // Advance ready flights plus the expired prefix of the own deck —
        // one clock read for the whole sweep.
        let now = Instant::now();
        let popped = deck.pop_expired(now, &mut ready);
        if !ready.is_empty() {
            progressed = true;
            shared.timings.sweeps.fetch_add(1, Ordering::Relaxed);
            shared
                .timings
                .coalesced
                .fetch_add(popped.saturating_sub(1) as u64, Ordering::Relaxed);
            for mut driver in ready.drain(..) {
                match driver.advance() {
                    DriverStep::Wait(wake) => {
                        seq += 1;
                        deck.push(Waiting { wake, seq, driver });
                    }
                    DriverStep::Finished(result) => shared.finish(result),
                }
            }
            shared
                .timings
                .add(&shared.timings.issue_ns, now.elapsed().as_nanos() as u64);
        }
        if progressed {
            continue;
        }

        // Nothing of our own is ready: steal an expired flight whose owner
        // is stuck in a deadline sleep (or busy elsewhere).
        if let Some(mut driver) = shared.try_steal(me, now) {
            let start = Instant::now();
            match driver.advance() {
                DriverStep::Wait(wake) => {
                    seq += 1;
                    // The thief adopts the flight: it lands on OUR deck.
                    deck.push(Waiting { wake, seq, driver });
                }
                DriverStep::Finished(result) => shared.finish(result),
            }
            shared
                .timings
                .add(&shared.timings.steal_ns, start.elapsed().as_nanos() as u64);
            continue;
        }

        // Steal a bounded chunk of the engine's install backlog.
        let start = Instant::now();
        if engine.drain_pending_installs_up_to(STEAL_DRAIN_CHUNK) > 0 {
            shared.steal_drains.fetch_add(1, Ordering::Relaxed);
            EngineStats::bump(&engine.stats.pipeline_steal_drains);
            shared
                .timings
                .add(&shared.timings.drain_ns, start.elapsed().as_nanos() as u64);
            continue;
        }

        // Park. With flights in the deck: a coalesced deadline sleep (the
        // reactor's batching rule); thieves may service expired flights
        // while we oversleep. Without: wait for ring work or exit.
        if deck.len() > 0 {
            // Bound first: the deck lock must not be held across the sleep.
            let target = coalesced_target(&deck.waiting.lock().unwrap());
            if let Some(batch_end) = target {
                shared.timings.wakeups.fetch_add(1, Ordering::Relaxed);
                let start = Instant::now();
                model.wait_until(batch_end);
                shared
                    .timings
                    .add(&shared.timings.wait_ns, start.elapsed().as_nanos() as u64);
            }
            continue;
        }
        if shared.stopping.load(Ordering::Acquire) && shared.should_exit() {
            return;
        }
        shared.park_for_work();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::{ClusterConfig, EngineConfig, NodeId};

    /// The steal protocol, exercised deterministically (no worker threads,
    /// the "clock" is an explicit parameter): an expired flight parked on a
    /// stalled owner's deck is handed over whole, an unexpired one is not,
    /// and the thief can drive the stolen state machine to a committed
    /// result on its own thread.
    #[test]
    fn steal_hands_over_only_expired_flights() {
        let config = EngineConfig {
            latency: farm_net::LatencyModel {
                rdma_read_ns: 30_000,
                rdma_write_ns: 30_000,
                rpc_ns: 50_000,
                spin_threshold_ns: 1_000_000,
            },
            gc_interval: Duration::from_secs(3600),
            ..EngineConfig::default()
        };
        let engine = Engine::start_cluster(ClusterConfig::test(3), config);
        let node = engine.node(NodeId(0));
        let mut setup = node.begin();
        let addr = setup.alloc(vec![0u8; 16]).unwrap();
        setup.commit().unwrap();
        node.drain_pending_installs();

        let mut tx = node.begin();
        tx.write(addr, vec![9u8; 16]).unwrap();
        let driver = match tx.prepare_commit() {
            PreparedCommit::InFlight(driver) => driver,
            PreparedCommit::Done(r) => panic!("write tx resolved without a driver: {r:?}"),
        };

        // Two decks, no workers: deck 1 plays the stalled owner.
        let shared = PoolShared::new(Arc::clone(&node), 2, 1, 4);
        let base = Instant::now();
        let wake = base + Duration::from_millis(10);
        shared.decks[1].push(Waiting {
            wake,
            seq: 1,
            driver,
        });

        // Before the deadline the flight is the owner's; after it, fair game.
        assert!(shared.try_steal(1, wake).is_none(), "never steals own deck");
        assert!(
            shared.try_steal(0, base).is_none(),
            "unexpired flight stays"
        );
        assert_eq!(shared.steals.load(Ordering::Relaxed), 0);
        let mut stolen = shared
            .try_steal(0, wake)
            .expect("expired flight is stealable");
        assert_eq!(shared.steals.load(Ordering::Relaxed), 1);
        assert_eq!(shared.decks[1].len(), 0);
        assert_eq!(node.stats().pipeline_steals, 1);

        // The thief resumes the state machine to completion.
        let model = node.meter.latency_model();
        let info = loop {
            match stolen.advance() {
                DriverStep::Wait(wake) => model.wait_until(wake),
                DriverStep::Finished(result) => break result.expect("stolen commit lands"),
            }
        };
        assert!(info.write_ts.is_some());
        engine.quiesce();
        let mut check = node.begin();
        assert_eq!(check.read(addr).unwrap()[0], 9);
        engine.shutdown();
    }
}
