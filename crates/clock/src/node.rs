//! The per-machine clock facade: `TIME()`, `GET_TS()` and failover hooks.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::RwLock;

use crate::clock::SharedClock;
use crate::master::{MasterError, MasterState};
use crate::sync::{SyncSample, Synchronizer};
use crate::{TimeInterval, Timestamp};

/// Configuration of a node's clock subsystem.
#[derive(Debug, Clone, Copy)]
pub struct ClockConfig {
    /// Assumed bound ε on relative clock drift, in parts per million.
    /// The paper uses 1000 ppm (0.1%), at least 10× more conservative than
    /// anything observed in production.
    pub drift_bound_ppm: u32,
    /// Extra uncertainty covering cycle-counter skew across the threads of a
    /// machine (~400 ns in the paper's deployment).
    pub thread_skew_ns: u64,
    /// Spin threshold for uncertainty waits: waits shorter than this busy-
    /// spin, longer waits sleep in slices to avoid burning a core.
    pub spin_threshold_ns: u64,
}

impl Default for ClockConfig {
    fn default() -> Self {
        ClockConfig {
            drift_bound_ppm: 1_000,
            thread_skew_ns: 400,
            spin_threshold_ns: 100_000,
        }
    }
}

/// How a timestamp is being acquired; selects whether and how the
/// uncertainty is waited out (Section 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TsMode {
    /// Strict read timestamp / serializable write timestamp: take the upper
    /// bound `U` of the current interval and wait until `U` is in the past.
    StrictWait,
    /// Non-strict read timestamp: take the lower bound `L`, no wait.
    NonStrictRead,
    /// Non-strict SI write timestamp: take the upper bound `U`, no wait.
    NonStrictUpper,
}

/// Counters describing timestamp-generation behaviour on one node.
#[derive(Debug, Default)]
pub struct ClockStats {
    /// Number of timestamps issued.
    pub timestamps: AtomicU64,
    /// Number of timestamps that required an uncertainty wait.
    pub waits: AtomicU64,
    /// Total nanoseconds spent in uncertainty waits.
    pub wait_ns: AtomicU64,
    /// Number of completed synchronizations with the clock master.
    pub syncs: AtomicU64,
    /// Nanoseconds of time the clock spent disabled (failover windows).
    pub disabled_ns: AtomicU64,
}

enum Role {
    Master(MasterState),
    Slave(Synchronizer),
}

/// The clock subsystem of one machine.
///
/// A `NodeClock` is shared by every thread of the machine: application
/// threads acquire read/write timestamps through it, the high-priority
/// lease thread synchronizes it against the clock master, and the
/// reconfiguration logic drives the disable / fast-forward / enable sequence
/// across clock-master failures.
pub struct NodeClock {
    clock: SharedClock,
    config: ClockConfig,
    role: RwLock<Role>,
    enabled: AtomicBool,
    /// Last fast-forward value seen (Section 4.3); monotonically increasing.
    ff: AtomicU64,
    /// Monotonic clamp for interval lower bounds: the paper guarantees that
    /// the lower bound L is non-decreasing on every thread; we enforce the
    /// stronger per-node property.
    last_lower: AtomicU64,
    /// Statistics.
    stats: ClockStats,
    /// Local time at which the clock was last disabled (for stats).
    disabled_at: AtomicU64,
}

impl NodeClock {
    /// Creates the clock subsystem for the initial clock master: enabled
    /// immediately, global time defined by its own local clock.
    pub fn new_master(clock: SharedClock, config: ClockConfig) -> Self {
        let master = MasterState::initial(&clock);
        NodeClock {
            clock,
            config,
            role: RwLock::new(Role::Master(master)),
            enabled: AtomicBool::new(true),
            ff: AtomicU64::new(0),
            last_lower: AtomicU64::new(0),
            stats: ClockStats::default(),
            disabled_at: AtomicU64::new(0),
        }
    }

    /// Creates the clock subsystem for a non-master node: disabled until the
    /// first successful synchronization with the clock master.
    pub fn new_slave(clock: SharedClock, config: ClockConfig) -> Self {
        let sync = Synchronizer::new(config.drift_bound_ppm, config.thread_skew_ns);
        NodeClock {
            clock,
            config,
            role: RwLock::new(Role::Slave(sync)),
            enabled: AtomicBool::new(false),
            ff: AtomicU64::new(0),
            last_lower: AtomicU64::new(0),
            stats: ClockStats::default(),
            disabled_at: AtomicU64::new(0),
        }
    }

    /// The node's local clock.
    pub fn local_clock(&self) -> &SharedClock {
        &self.clock
    }

    /// The clock configuration.
    pub fn config(&self) -> ClockConfig {
        self.config
    }

    /// Whether this node currently acts as the clock master.
    pub fn is_master(&self) -> bool {
        matches!(&*self.role.read(), Role::Master(_))
    }

    /// Whether the clock is enabled (timestamps may be issued and
    /// synchronization requests answered).
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// Per-node timestamp statistics.
    pub fn stats(&self) -> &ClockStats {
        &self.stats
    }

    // ------------------------------------------------------------------
    // TIME()
    // ------------------------------------------------------------------

    /// Computes the current uncertainty interval without checking whether
    /// the clock is enabled. Used internally by the failover protocol, which
    /// must read time while clocks are disabled ("the clock continues to
    /// advance, but timestamps are not given out").
    pub fn time_unchecked(&self) -> Option<TimeInterval> {
        let raw = match &*self.role.read() {
            Role::Master(m) => {
                let t = m.master_time(&self.clock);
                let skew = self.config.thread_skew_ns;
                Some(TimeInterval::new(
                    t.saturating_sub(skew),
                    t.saturating_add(skew),
                ))
            }
            Role::Slave(s) => s.time(self.clock.now_ns()),
        }?;
        // Enforce the non-decreasing lower bound guarantee.
        let prev = self.last_lower.fetch_max(raw.lower, Ordering::AcqRel);
        let lower = raw.lower.max(prev);
        Some(TimeInterval::new(lower, raw.upper.max(lower)))
    }

    /// The `TIME()` call: the current uncertainty interval, or `None` if the
    /// clock is disabled or not yet synchronized.
    pub fn time(&self) -> Option<TimeInterval> {
        if !self.is_enabled() {
            return None;
        }
        self.time_unchecked()
    }

    /// Blocking variant of [`NodeClock::time`]: waits (spinning, then
    /// yielding) until the clock is enabled and synchronized. Application
    /// threads requesting timestamps during a clock-disable window block
    /// here, exactly as described in Section 4.3.
    pub fn wait_time(&self) -> TimeInterval {
        let mut spins = 0u32;
        loop {
            if let Some(i) = self.time() {
                return i;
            }
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    // ------------------------------------------------------------------
    // GET_TS()
    // ------------------------------------------------------------------

    /// Acquires a timestamp according to `mode` (Figure 4 / Section 4.2),
    /// waiting out the uncertainty when the mode requires it. Returns the
    /// timestamp and the number of nanoseconds spent waiting.
    pub fn get_ts(&self, mode: TsMode) -> (Timestamp, u64) {
        let interval = self.wait_time();
        self.stats.timestamps.fetch_add(1, Ordering::Relaxed);
        match mode {
            TsMode::NonStrictRead => (interval.lower_ts(), 0),
            TsMode::NonStrictUpper => (interval.upper_ts(), 0),
            TsMode::StrictWait => {
                let target = interval.upper;
                let waited = self.wait_until_past(target);
                if waited > 0 {
                    self.stats.waits.fetch_add(1, Ordering::Relaxed);
                    self.stats.wait_ns.fetch_add(waited, Ordering::Relaxed);
                }
                (Timestamp(target), waited)
            }
        }
    }

    /// Acquires a strict timestamp **without** waiting out the uncertainty:
    /// returns the interval's upper bound, which the caller must pass to
    /// [`NodeClock::complete_deferred_wait`] before exposing any write at
    /// that timestamp. This is the first half of the paper's Figure 4
    /// pipelining: the wait runs concurrently with COMMIT-BACKUP
    /// replication instead of blocking the coordinator up front.
    pub fn get_ts_deferred(&self) -> Timestamp {
        let interval = self.wait_time();
        self.stats.timestamps.fetch_add(1, Ordering::Relaxed);
        interval.upper_ts()
    }

    /// Completes a deferred strict acquisition: waits until `target` is in
    /// the past and records the wait in the clock statistics exactly as
    /// `get_ts(StrictWait)` would have. Returns the nanoseconds waited.
    pub fn complete_deferred_wait(&self, target: u64) -> u64 {
        let waited = self.wait_until_past(target);
        if waited > 0 {
            self.stats.waits.fetch_add(1, Ordering::Relaxed);
            self.stats.wait_ns.fetch_add(waited, Ordering::Relaxed);
        }
        waited
    }

    /// Waits until the lower bound of the current time interval has passed
    /// `target`, i.e. until `target` is guaranteed to be in the past at the
    /// clock master (Figure 5). Returns the local nanoseconds spent waiting.
    pub fn wait_until_past(&self, target: u64) -> u64 {
        let start = self.clock.now_ns();
        let mut spins = 0u32;
        loop {
            let interval = self.wait_time();
            if interval.lower >= target {
                return self.clock.now_ns().saturating_sub(start);
            }
            let remaining = target - interval.lower;
            if remaining > self.config.spin_threshold_ns {
                // Sleep most of the remaining time; the interval advances at
                // roughly real time so this converges in a couple of rounds.
                std::thread::sleep(Duration::from_nanos(remaining / 2));
            } else {
                spins += 1;
                // Sub-threshold waits spin, but on a host with fewer cores
                // than waiters an unbroken spin stalls the very threads
                // whose progress advances the interval. Waits with ≥ 1 µs
                // remaining yield **every** iteration — the wait is wall
                // clock, so a donated quantum costs the waiter nothing and
                // lets a co-scheduled coordinator commit meanwhile (an
                // uncontended yield returns in ~100 ns, so dedicated cores
                // lose little). Only the sub-microsecond tail spins, with a
                // periodic yield as a backstop. Without the eager yield, a
                // slave node's ~2 µs uncertainty waits never reached the
                // old 1-in-128 yield at all (each loop iteration spans tens
                // of nanoseconds), which is what sank 2-thread throughput
                // on single-core hosts (measured in CHANGES.md, PRs 4–5).
                if remaining > 1_000 || spins.is_multiple_of(64) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Master-side operations
    // ------------------------------------------------------------------

    /// Serves a `MASTERTIME()` request from another node. Fails if this node
    /// is not the master or its clock is disabled.
    pub fn serve_master_time(&self) -> Result<u64, MasterError> {
        if !self.is_enabled() {
            return Err(MasterError::Disabled);
        }
        match &*self.role.read() {
            Role::Master(m) => Ok(m.master_time(&self.clock)),
            Role::Slave(_) => Err(MasterError::NotMaster),
        }
    }

    // ------------------------------------------------------------------
    // Slave-side operations
    // ------------------------------------------------------------------

    /// Records one synchronization with the clock master and enables the
    /// clock. The kernel performs the `MASTERTIME()` exchange itself,
    /// piggybacked on lease renewals; no-op on the master.
    pub fn record_sync(&self, sample: SyncSample) {
        let mut role = self.role.write();
        if let Role::Slave(sync) = &mut *role {
            sync.record(sample, self.clock.now_ns());
            self.stats.syncs.fetch_add(1, Ordering::Relaxed);
            drop(role);
            self.mark_enabled();
        }
    }

    // ------------------------------------------------------------------
    // Failover protocol hooks (Figure 6)
    // ------------------------------------------------------------------

    /// Disables the clock: timestamps block and `MASTERTIME()` is rejected.
    /// The local clock keeps advancing.
    pub fn disable(&self) {
        if self.enabled.swap(false, Ordering::AcqRel) {
            self.disabled_at
                .store(self.clock.now_ns(), Ordering::Relaxed);
        }
    }

    /// Updates the local fast-forward variable `FF` to at least the upper
    /// bound of the current interval, and returns the new value. Called on
    /// every node when it learns of a new configuration.
    pub fn update_ff_from_time(&self) -> u64 {
        let upper = self.time_unchecked().map(|i| i.upper).unwrap_or(0);
        self.ff.fetch_max(upper, Ordering::AcqRel).max(upper)
    }

    /// Raises `FF` to at least `candidate` and returns the new value.
    pub fn raise_ff(&self, candidate: u64) -> u64 {
        self.ff
            .fetch_max(candidate, Ordering::AcqRel)
            .max(candidate)
    }

    /// Current fast-forward value.
    pub fn ff(&self) -> u64 {
        self.ff.load(Ordering::Acquire)
    }

    /// Converts this node into the clock master with global time continuing
    /// from `ff`. The clock stays disabled until [`NodeClock::enable`] is
    /// called (after the `ADVANCE` round of the failover protocol).
    pub fn become_master_at(&self, ff: u64) {
        let mut role = self.role.write();
        *role = Role::Master(MasterState::taking_over_at(&self.clock, ff));
        self.raise_ff(ff);
    }

    /// Converts this node into a slave of a (new) clock master: all previous
    /// synchronization state is discarded and the clock stays disabled until
    /// the first successful synchronization.
    pub fn become_slave(&self) {
        let mut role = self.role.write();
        *role = Role::Slave(Synchronizer::new(
            self.config.drift_bound_ppm,
            self.config.thread_skew_ns,
        ));
        self.enabled.store(false, Ordering::Release);
        self.disabled_at
            .store(self.clock.now_ns(), Ordering::Relaxed);
    }

    /// Re-enables the clock (master side of the failover protocol, or any
    /// explicit enable).
    pub fn enable(&self) {
        self.mark_enabled();
    }

    fn mark_enabled(&self) {
        if !self.enabled.swap(true, Ordering::AcqRel) {
            let at = self.disabled_at.load(Ordering::Relaxed);
            if at != 0 {
                let delta = self.clock.now_ns().saturating_sub(at);
                self.stats.disabled_ns.fetch_add(delta, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{ManualClock, MonotonicClock};
    use std::sync::Arc;

    fn cfg() -> ClockConfig {
        ClockConfig {
            drift_bound_ppm: 1_000,
            thread_skew_ns: 0,
            spin_threshold_ns: 100_000,
        }
    }

    #[test]
    fn master_time_interval_is_tight() {
        let clock: SharedClock = Arc::new(ManualClock::new(5_000));
        let node = NodeClock::new_master(clock, cfg());
        let i = node.time().unwrap();
        assert_eq!(i.lower, i.upper);
        assert_eq!(i.lower, 5_000);
        assert!(node.is_master());
    }

    #[test]
    fn slave_has_no_time_until_synced() {
        let clock: SharedClock = Arc::new(ManualClock::new(0));
        let node = NodeClock::new_slave(clock, cfg());
        assert!(node.time().is_none());
        assert!(!node.is_enabled());
        node.record_sync(SyncSample {
            t_send: 0,
            t_cm: 100,
            t_recv: 10,
        });
        assert!(node.is_enabled());
        let i = node.time().unwrap();
        assert!(i.lower <= 100 && i.upper >= 100);
    }

    #[test]
    fn master_get_ts_strict_has_no_wait() {
        let clock: SharedClock = Arc::new(ManualClock::new(1_000));
        let node = NodeClock::new_master(clock, cfg());
        let (ts, waited) = node.get_ts(TsMode::StrictWait);
        assert_eq!(ts, Timestamp(1_000));
        assert_eq!(waited, 0);
    }

    #[test]
    fn strict_get_ts_waits_out_uncertainty_on_slaves() {
        // Slave synchronized over a 40 µs round trip against a master whose
        // clock runs in real time: the strict timestamp must end up in the
        // past relative to the master.
        let base: SharedClock = Arc::new(MonotonicClock::new());
        let master = Arc::new(NodeClock::new_master(base.clone(), cfg()));
        let slave = NodeClock::new_slave(base.clone(), cfg());
        // Simulate a sync with a 40 µs RTT.
        let send = base.now_ns();
        let cm = master.serve_master_time().unwrap();
        std::thread::sleep(Duration::from_micros(40));
        let recv = base.now_ns();
        slave.record_sync(SyncSample {
            t_send: send,
            t_cm: cm,
            t_recv: recv,
        });
        let before = master.serve_master_time().unwrap();
        let (ts, waited) = slave.get_ts(TsMode::StrictWait);
        let after = master.serve_master_time().unwrap();
        assert!(ts.as_nanos() >= before, "read timestamp must not be stale");
        assert!(
            ts.as_nanos() <= after,
            "timestamp must be in the past after the wait"
        );
        assert!(waited > 0, "a wait was required (uncertainty ~40µs)");
    }

    #[test]
    fn non_strict_read_ts_needs_no_wait_and_is_lower_bound() {
        let base: SharedClock = Arc::new(MonotonicClock::new());
        let slave = NodeClock::new_slave(base.clone(), cfg());
        let now = base.now_ns();
        slave.record_sync(SyncSample {
            t_send: now,
            t_cm: now,
            t_recv: now + 10_000,
        });
        let i = slave.time().unwrap();
        let (ts, waited) = slave.get_ts(TsMode::NonStrictRead);
        assert_eq!(waited, 0);
        assert!(ts.as_nanos() >= i.lower);
        let i2 = slave.time().unwrap();
        assert!(ts.as_nanos() <= i2.upper);
    }

    #[test]
    fn lower_bound_is_non_decreasing() {
        let base: SharedClock = Arc::new(MonotonicClock::new());
        let slave = NodeClock::new_slave(base.clone(), cfg());
        let now = base.now_ns();
        slave.record_sync(SyncSample {
            t_send: now,
            t_cm: now,
            t_recv: now + 1_000,
        });
        let mut prev = 0;
        for _ in 0..1_000 {
            let i = slave.time().unwrap();
            assert!(i.lower >= prev);
            prev = i.lower;
        }
    }

    #[test]
    fn disable_blocks_timestamps_until_enable() {
        let base: SharedClock = Arc::new(MonotonicClock::new());
        let node = Arc::new(NodeClock::new_master(base, cfg()));
        node.disable();
        assert!(node.time().is_none());
        let n2 = Arc::clone(&node);
        let h = std::thread::spawn(move || n2.get_ts(TsMode::StrictWait).0);
        std::thread::sleep(Duration::from_millis(5));
        node.enable();
        let ts = h.join().unwrap();
        assert!(ts.as_nanos() > 0);
        assert!(node.stats().disabled_ns.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn failover_master_continues_from_ff() {
        let base: SharedClock = Arc::new(ManualClock::new(100));
        let node = NodeClock::new_slave(base.clone(), cfg());
        node.record_sync(SyncSample {
            t_send: 0,
            t_cm: 10_000,
            t_recv: 100,
        });
        node.disable();
        let ff = node.update_ff_from_time();
        assert!(ff >= 10_000);
        node.become_master_at(ff);
        node.enable();
        let t = node.serve_master_time().unwrap();
        assert!(t >= ff);
        assert!(node.is_master());
    }

    #[test]
    fn slave_rejects_master_time_requests() {
        let base: SharedClock = Arc::new(ManualClock::new(0));
        let node = NodeClock::new_slave(base, cfg());
        assert_eq!(node.serve_master_time(), Err(MasterError::Disabled));
        node.record_sync(SyncSample {
            t_send: 0,
            t_cm: 0,
            t_recv: 0,
        });
        assert_eq!(node.serve_master_time(), Err(MasterError::NotMaster));
    }

    #[test]
    fn become_slave_resets_sync_state() {
        let base: SharedClock = Arc::new(ManualClock::new(0));
        let node = NodeClock::new_master(base, cfg());
        assert!(node.is_master());
        node.become_slave();
        assert!(!node.is_master());
        assert!(!node.is_enabled());
        assert!(node.time().is_none());
    }

    #[test]
    fn raise_ff_is_monotonic() {
        let base: SharedClock = Arc::new(ManualClock::new(0));
        let node = NodeClock::new_slave(base, cfg());
        assert_eq!(node.raise_ff(50), 50);
        assert_eq!(node.raise_ff(20), 50);
        assert_eq!(node.ff(), 50);
        assert_eq!(node.raise_ff(80), 80);
    }

    #[test]
    fn deferred_strict_acquisition_matches_strict_wait() {
        // On a slave with real uncertainty, get_ts_deferred + the deferred
        // wait must end in the same state as get_ts(StrictWait): the
        // returned upper bound is in the past, and the wait was recorded in
        // the clock statistics.
        let clock: SharedClock = Arc::new(MonotonicClock::new());
        let node = NodeClock::new_slave(clock.clone(), cfg());
        let now = clock.now_ns();
        node.record_sync(SyncSample {
            t_send: now,
            t_cm: now,
            t_recv: clock.now_ns() + 10_000,
        });
        let ts = node.get_ts_deferred();
        let waited = node.complete_deferred_wait(ts.as_nanos());
        let interval = node.time().unwrap();
        assert!(
            interval.lower >= ts.as_nanos(),
            "deferred wait did not put the timestamp in the past"
        );
        if waited > 0 {
            assert!(node.stats().waits.load(Ordering::Relaxed) >= 1);
            assert!(node.stats().wait_ns.load(Ordering::Relaxed) >= waited);
        }
        // A second deferred wait on an already-past target is (nearly)
        // free: it costs one interval read, not an uncertainty wait.
        assert!(node.complete_deferred_wait(0) < 100_000);
    }
}
