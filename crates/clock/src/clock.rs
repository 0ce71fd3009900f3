//! Local clock abstractions.
//!
//! The paper uses the CPU cycle counter (TSC) on every machine. To emulate a
//! cluster of machines with *different* clocks inside a single process, every
//! simulated machine gets a [`DriftClock`]: a view of the host monotonic
//! clock with a private offset and a private rate error (expressed in parts
//! per million). Tests that need full determinism use a [`ManualClock`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A local clock that returns nanoseconds since an arbitrary (per-clock)
/// epoch. Implementations must be monotonic: successive calls never go
/// backwards.
pub trait Clock: Send + Sync + 'static {
    /// Current local time in nanoseconds.
    fn now_ns(&self) -> u64;
}

/// Convenience alias used throughout the system: clocks are shared between
/// the application threads, the lease/sync thread and the worker threads of
/// a simulated machine.
pub type SharedClock = Arc<dyn Clock>;

/// The host's monotonic clock. All [`DriftClock`]s in a process derive from a
/// single shared `MonotonicClock`, which mirrors how all machines in a
/// cluster live in the same physical time even though their counters differ.
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// Creates a clock whose epoch is "now".
    pub fn new() -> Self {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A clock derived from a base clock with a constant rate error (drift) and a
/// constant offset, modelling one machine's cycle counter.
///
/// `now = offset + base_now * (1 + drift_ppm/1e6)` where `drift_ppm` may be
/// negative. The drift must stay within the system-wide bound ε for the
/// synchronization algorithm's guarantees to hold; the
/// [`DriftMonitor`](crate::DriftMonitor) is the runtime check for that
/// assumption.
pub struct DriftClock {
    base: SharedClock,
    offset_ns: u64,
    drift_ppm: i32,
    /// Monotonicity guard: `now_ns` never returns less than this.
    last: AtomicU64,
}

impl DriftClock {
    /// Creates a drifting view of `base`.
    pub fn new(base: SharedClock, offset_ns: u64, drift_ppm: i32) -> Self {
        DriftClock {
            base,
            offset_ns,
            drift_ppm,
            last: AtomicU64::new(0),
        }
    }

    /// The configured drift in parts per million.
    pub fn drift_ppm(&self) -> i32 {
        self.drift_ppm
    }
}

impl Clock for DriftClock {
    #[inline]
    fn now_ns(&self) -> u64 {
        let b = self.base.now_ns();
        let scaled = if self.drift_ppm >= 0 {
            crate::scale_up(b, self.drift_ppm as u32)
        } else {
            crate::scale_down(b, (-self.drift_ppm) as u32)
        };
        let t = self.offset_ns.saturating_add(scaled);
        // Enforce monotonicity in the presence of concurrent callers.
        self.last.fetch_max(t, Ordering::Relaxed).max(t)
    }
}

/// A manually-advanced clock for deterministic unit tests.
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// Creates a manual clock starting at `start_ns`.
    pub fn new(start_ns: u64) -> Self {
        ManualClock {
            now: AtomicU64::new(start_ns),
        }
    }

    /// Advances the clock by `delta_ns`.
    pub fn advance(&self, delta_ns: u64) {
        self.now.fetch_add(delta_ns, Ordering::SeqCst);
    }

    /// Sets the clock to an absolute value. Panics if this would move the
    /// clock backwards (clocks are monotonic).
    pub fn set(&self, t_ns: u64) {
        let prev = self.now.swap(t_ns, Ordering::SeqCst);
        assert!(
            prev <= t_ns,
            "ManualClock moved backwards: {prev} -> {t_ns}"
        );
    }
}

impl Clock for ManualClock {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_advances() {
        let c = MonotonicClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_is_settable_and_monotonic() {
        let c = ManualClock::new(100);
        assert_eq!(c.now_ns(), 100);
        c.advance(50);
        assert_eq!(c.now_ns(), 150);
        c.set(400);
        assert_eq!(c.now_ns(), 400);
    }

    #[test]
    #[should_panic(expected = "moved backwards")]
    fn manual_clock_rejects_backwards_set() {
        let c = ManualClock::new(100);
        c.set(50);
    }

    #[test]
    fn drift_clock_applies_offset_and_positive_drift() {
        let base = Arc::new(ManualClock::new(0));
        let d = DriftClock::new(base.clone(), 1_000, 1_000_000); // +100%
        assert_eq!(d.now_ns(), 1_000);
        base.advance(1_000);
        assert_eq!(d.now_ns(), 3_000); // offset 1000 + 1000*2
    }

    #[test]
    fn drift_clock_applies_negative_drift() {
        let base = Arc::new(ManualClock::new(0));
        let d = DriftClock::new(base.clone(), 0, -500_000); // -50%
        base.advance(1_000_000);
        assert_eq!(d.now_ns(), 500_000);
    }

    #[test]
    fn drift_clock_is_monotonic_across_threads() {
        let base = Arc::new(MonotonicClock::new());
        let d = Arc::new(DriftClock::new(base, 0, 100));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let d = Arc::clone(&d);
            handles.push(std::thread::spawn(move || {
                let mut prev = 0;
                for _ in 0..10_000 {
                    let t = d.now_ns();
                    assert!(t >= prev);
                    prev = t;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
