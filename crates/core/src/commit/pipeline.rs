//! Per-thread commit pipelining: one worker thread keeps up to `depth`
//! transactions in their commit **critical paths** at once.
//!
//! A synchronous coordinator thread alternates between issuing a phase's
//! verbs and sleeping until their completion deadline, so under injected
//! network latency its throughput is bounded by `1 / commit-latency`. But
//! the sleeps are pure flight time — the thread has nothing to do, and a
//! real FaRM worker would be multiplexing many transactions over its
//! completion queues. [`CommitPipeline`] reproduces that: each submitted
//! transaction's [`CommitDriver`] is stepped with `advance`, which
//! *returns* its phase deadlines instead of blocking on them, so per-thread
//! throughput scales toward `depth / max-phase-latency` instead of
//! `1 / total-latency`.
//!
//! The scheduler is a **deadline-heap reactor**: each flight's driver sits
//! in one of `depth` slots for its whole critical path, and the waiting
//! flights' slot numbers sit in a binary min-heap ordered by wake deadline,
//! so a sweep pops only the expired prefix — O(ready · log n), not
//! O(depth) — and reads the clock once per sweep instead of once per
//! flight. When every flight is on the
//! wire the reactor sleeps once for the whole *batch* of deadlines that
//! fall within a 2 µs wake quantum: it targets the latest deadline inside
//! the window, so one wakeup advances every flight in the batch. No verb
//! ever completes early — the sleep target is itself a deadline, and all
//! batched deadlines are at or before it.
//!
//! The reactor keeps per-flight cycle accounting ([`PipelineTimings`]):
//! wall-clock splits into *issue* (advancing drivers — the serial CPU,
//! COMMIT-PRIMARY installs included) and *wait* (deadline sleeps), which is
//! what the `benchmark/` package's `kv_pipeline_dc` workload reads to
//! report the serial fraction and CPU per commit.
//!
//! In-flight transactions of one pipeline are truly concurrent commits:
//! they must write **disjoint** objects, or the later one aborts on a lock
//! conflict like any concurrent committer would.

use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::engine::NodeEngine;
use crate::error::TxError;
use crate::tx::{CommitInfo, PreparedCommit, Transaction};

use super::driver::{CommitDriver, DriverStep};

/// One waiting flight in the deadline heap: the slot of its driver plus the
/// deadline it is waiting out. Ordered so the **earliest** deadline is at
/// the top of a `BinaryHeap` (which is a max-heap), with ties broken toward
/// the older submission so completion order stays deterministic under equal
/// deadlines.
struct Waiting {
    wake: Instant,
    seq: u64,
    slot: usize,
}

impl PartialEq for Waiting {
    fn eq(&self, other: &Self) -> bool {
        self.wake == other.wake && self.seq == other.seq
    }
}

impl Eq for Waiting {}

impl PartialOrd for Waiting {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Waiting {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed on both keys: BinaryHeap pops the maximum, we want the
        // minimum deadline (then the lowest sequence number) on top.
        other
            .wake
            .cmp(&self.wake)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Per-flight cycle accounting for one reactor.
///
/// Wall-clock decomposes as `issue + wait` plus untracked scheduler
/// epsilon. `issue` is the serial protocol CPU (building records, lock
/// tables, indexes, installs); `wait` is deadline flight time.
#[derive(Debug, Default, Clone, Copy)]
pub struct PipelineTimings {
    /// Nanoseconds spent advancing drivers (issue/finish halves of phases).
    pub issue_ns: u64,
    /// Nanoseconds spent sleeping/spinning to completion deadlines.
    pub wait_ns: u64,
    /// Sweeps that advanced at least one flight.
    pub sweeps: u64,
    /// Deadline sleeps taken (each may complete a whole batch of verbs).
    pub wakeups: u64,
    /// Flights advanced by a wakeup that targeted another flight's deadline
    /// batch — i.e. heap pops beyond the first on the sweep that follows a
    /// deadline sleep. A reactor that never sleeps coalesces nothing.
    pub coalesced: u64,
    /// Commits completed through the reactor.
    pub completed: u64,
}

impl PipelineTimings {
    /// CPU-busy nanoseconds: everything but deadline waits.
    pub fn busy_ns(&self) -> u64 {
        self.issue_ns
    }

    /// Fraction of tracked wall-clock spent CPU-busy — the serial fraction
    /// `s` of Amdahl's law for this workload: predicted speedup on `N`
    /// cores is `1 / (s + (1 - s) / N)`.
    pub fn serial_fraction(&self) -> f64 {
        let busy = self.busy_ns() as f64;
        let wall = busy + self.wait_ns as f64;
        if wall == 0.0 {
            0.0
        } else {
            busy / wall
        }
    }
}

/// Wake quantum of the reactor's deadline coalescing.
const WAKE_QUANTUM: Duration = Duration::from_micros(2);

/// The coalesced sleep target of a deadline heap: the **latest** deadline
/// within [`WAKE_QUANTUM`] of the earliest, so one wakeup advances the whole
/// batch. Everything batched is at or before the target, so no verb
/// completes early.
fn coalesced_target(waiting: &BinaryHeap<Waiting>) -> Option<Instant> {
    let earliest = waiting.peek()?.wake;
    let horizon = earliest + WAKE_QUANTUM;
    waiting
        .iter()
        .map(|w| w.wake)
        .filter(|&wake| wake <= horizon)
        .max()
}

/// A per-thread commit pipeline; see the module docs. Built by
/// [`NodeEngine::pipeline`]; not `Send` across submissions in spirit — it is
/// one worker thread's multiplexer, like one FaRM thread's completion
/// queues.
pub struct CommitPipeline {
    engine: Arc<NodeEngine>,
    depth: usize,
    seq: u64,
    /// The in-flight drivers, each in the slot it was submitted to until it
    /// finishes; the free slots are `None`. Drivers never move while in
    /// flight, and no slot is allocated per commit.
    slots: Vec<Option<CommitDriver>>,
    /// The slots one sweep advances: a just-submitted flight, then the
    /// expired heap prefix. Kept so its buffer outlives the sweep.
    batch: Vec<usize>,
    /// Flights waiting out a deadline, earliest on top.
    waiting: BinaryHeap<Waiting>,
    results: Vec<Result<CommitInfo, TxError>>,
    timings: PipelineTimings,
}

impl NodeEngine {
    /// Creates a commit pipeline that keeps up to `depth` of this thread's
    /// transactions in their commit critical paths concurrently (clamped to
    /// at least 1; depth 1 behaves like synchronous `commit`).
    pub fn pipeline(self: &Arc<Self>, depth: usize) -> CommitPipeline {
        CommitPipeline {
            engine: Arc::clone(self),
            depth: depth.max(1),
            seq: 0,
            slots: Vec::new(),
            batch: Vec::new(),
            waiting: BinaryHeap::new(),
            results: Vec::new(),
            timings: PipelineTimings::default(),
        }
    }
}

impl CommitPipeline {
    /// The configured pipeline depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of commits currently in their critical paths.
    pub fn in_flight(&self) -> usize {
        self.waiting.len()
    }

    /// Cycle accounting accumulated since construction.
    pub fn timings(&self) -> PipelineTimings {
        self.timings
    }

    /// Submits a transaction for commit. If the pipeline is at depth, this
    /// first pumps until a slot frees (paying whatever flight time the
    /// oldest commits still owe); the new commit's first phase is issued
    /// before returning. Results (in completion order, which may differ
    /// from submission order) accumulate until [`CommitPipeline::take`] or
    /// [`CommitPipeline::drain`].
    pub fn submit(&mut self, tx: Transaction) {
        match tx.prepare_commit() {
            PreparedCommit::Done(result) => self.results.push(result),
            PreparedCommit::InFlight(driver) => {
                self.pump_until(self.depth - 1);
                let slot = match self.slots.iter().position(Option::is_none) {
                    Some(free) => free,
                    None => {
                        self.slots.push(None);
                        self.slots.len() - 1
                    }
                };
                self.slots[slot] = Some(driver);
                self.batch.push(slot);
                self.step_ready(Instant::now());
            }
        }
    }

    /// Advances any in-flight commit whose deadline has passed, without
    /// blocking. Call this opportunistically between submissions to keep
    /// completions flowing.
    pub fn poll(&mut self) {
        self.step_ready(Instant::now());
    }

    /// Takes the results accumulated so far (completion order).
    pub fn take(&mut self) -> Vec<Result<CommitInfo, TxError>> {
        std::mem::take(&mut self.results)
    }

    /// Completes every in-flight commit and returns all accumulated results.
    pub fn drain(&mut self) -> Vec<Result<CommitInfo, TxError>> {
        self.pump_until(0);
        self.take()
    }

    /// One non-blocking sweep against a single clock read, which every
    /// driver it advances also stamps its phases with: advance every ready
    /// flight plus the expired prefix of the deadline heap. Returns how many
    /// flights made progress. Completed flights simply drop out of the batch
    /// (no `Vec::remove` shifting — results are completion order, as
    /// documented on [`CommitPipeline::submit`]).
    fn step_ready(&mut self, now: Instant) -> usize {
        while self.waiting.peek().is_some_and(|w| w.wake <= now) {
            self.batch.push(self.waiting.pop().expect("peeked").slot);
        }
        let advanced = self.batch.len();
        if advanced == 0 {
            return 0;
        }
        self.timings.sweeps += 1;
        for &slot in &self.batch {
            let driver = self.slots[slot].as_mut().expect("in-flight slot");
            match driver.advance(now) {
                DriverStep::Wait(wake) => {
                    self.seq += 1;
                    self.waiting.push(Waiting {
                        wake,
                        seq: self.seq,
                        slot,
                    });
                }
                DriverStep::Finished(result) => {
                    self.slots[slot] = None;
                    self.timings.completed += 1;
                    self.results.push(result);
                }
            }
        }
        self.batch.clear();
        self.timings.issue_ns += now.elapsed().as_nanos() as u64;
        advanced
    }

    /// Pumps until at most `target` commits remain in flight: sweep the
    /// ready flights, and sleep once for the whole batch of deadlines within
    /// the wake quantum of the earliest one.
    fn pump_until(&mut self, target: usize) {
        let mut slept = false;
        while self.in_flight() > target {
            let now = Instant::now();
            let woke = std::mem::take(&mut slept);
            let advanced = self.step_ready(now);
            if advanced > 0 {
                if woke {
                    // Nothing was ready before the sleep: every flight this
                    // sweep advances rode the one wakeup.
                    self.timings.coalesced += advanced as u64 - 1;
                }
                continue;
            }
            let Some(batch_end) = coalesced_target(&self.waiting) else {
                continue;
            };
            self.timings.wakeups += 1;
            self.engine.meter.latency_model().wait_until(batch_end);
            self.timings.wait_ns += now.elapsed().as_nanos() as u64;
            slept = true;
        }
    }
}

impl Drop for CommitPipeline {
    fn drop(&mut self) {
        // A panic unwinding through a sweep leaves its drivers mid-step:
        // dropping them abandons each (releasing its locks), as the
        // driver's own `Drop` documents.
        if std::thread::panicking() {
            return;
        }
        // Otherwise never abandon in-flight commits: their drivers hold
        // locks at the primaries. Draining completes them (they are past
        // the point of caller control anyway; the results are simply
        // discarded).
        self.pump_until(0);
    }
}

impl std::fmt::Debug for CommitPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitPipeline")
            .field("depth", &self.depth)
            .field("in_flight", &self.in_flight())
            .field("pending_results", &self.results.len())
            .finish()
    }
}
