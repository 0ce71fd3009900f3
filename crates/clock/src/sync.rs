//! Marzullo-style clock synchronization (Figure 2 of the paper).
//!
//! A non-CM fetches the CM's time over the network. The only assumptions are
//! that one-way latencies are non-negative and the relative clock drift is
//! bounded by ε. Each completed synchronization yields a [`SyncSample`] from
//! which a lower bound `LB(S, T)` and an upper bound `UB(S, T)` on the
//! master's time can be computed for any later local time `T`.
//!
//! The optimized variant keeps up to **two** samples: the one that currently
//! yields the best (highest) lower bound and the one that yields the best
//! (lowest) upper bound — they are not always the most recent sample, and not
//! always the same sample.

use crate::{scale_down, scale_up, TimeInterval};

/// State from one successful synchronization with the clock master.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncSample {
    /// Local time when the request was sent.
    pub t_send: u64,
    /// Master time returned by the request.
    pub t_cm: u64,
    /// Local time when the response was received.
    pub t_recv: u64,
}

impl SyncSample {
    /// `LB(S, T) = S.t_cm + (T − S.t_recv)(1 − ε)` — lower bound on the
    /// master time at local time `T >= t_recv`.
    #[inline]
    pub fn lower_bound(&self, local_now: u64, drift_ppm: u32) -> u64 {
        let elapsed = local_now.saturating_sub(self.t_recv);
        self.t_cm.saturating_add(scale_down(elapsed, drift_ppm))
    }

    /// `UB(S, T) = S.t_cm + (T − S.t_send)(1 + ε)` — upper bound on the
    /// master time at local time `T >= t_send`.
    #[inline]
    pub fn upper_bound(&self, local_now: u64, drift_ppm: u32) -> u64 {
        let elapsed = local_now.saturating_sub(self.t_send);
        self.t_cm.saturating_add(scale_up(elapsed, drift_ppm))
    }

    /// Round-trip time of the synchronization, as measured on the local
    /// clock. The uncertainty right after a synchronization is bounded by
    /// `(1 + ε) * rtt` (Figure 1).
    #[inline]
    pub fn rtt(&self) -> u64 {
        self.t_recv.saturating_sub(self.t_send)
    }
}

/// The per-machine synchronization state (Figure 2): up to two retained
/// samples, one optimizing the lower bound and one the upper bound, plus the
/// configured drift bound and cross-thread counter uncertainty.
#[derive(Debug, Clone)]
pub struct Synchronizer {
    drift_ppm: u32,
    /// Extra uncertainty to cover cycle-counter skew between threads of the
    /// same machine (the paper cites ~400 ns on Windows).
    thread_skew_ns: u64,
    s_lower: Option<SyncSample>,
    s_upper: Option<SyncSample>,
}

impl Synchronizer {
    /// Creates an empty synchronizer with the given drift bound (ppm) and
    /// cross-thread skew allowance (ns).
    pub fn new(drift_ppm: u32, thread_skew_ns: u64) -> Self {
        Synchronizer {
            drift_ppm,
            thread_skew_ns,
            s_lower: None,
            s_upper: None,
        }
    }

    /// The drift bound ε in parts per million.
    pub fn drift_ppm(&self) -> u32 {
        self.drift_ppm
    }

    /// True if at least one synchronization has been recorded; `time()` is
    /// meaningless before that.
    pub fn is_synchronized(&self) -> bool {
        self.s_lower.is_some() && self.s_upper.is_some()
    }

    /// Records a completed synchronization, keeping it only if it improves
    /// the lower bound and/or the upper bound at `local_now` (the `SYNC`
    /// function of Figure 2).
    pub fn record(&mut self, sample: SyncSample, local_now: u64) {
        match &self.s_lower {
            Some(cur)
                if cur.lower_bound(local_now, self.drift_ppm)
                    >= sample.lower_bound(local_now, self.drift_ppm) => {}
            _ => self.s_lower = Some(sample),
        }
        match &self.s_upper {
            Some(cur)
                if cur.upper_bound(local_now, self.drift_ppm)
                    <= sample.upper_bound(local_now, self.drift_ppm) => {}
            _ => self.s_upper = Some(sample),
        }
    }

    /// Computes the current uncertainty interval (the `TIME` function of
    /// Figure 2), widened by the cross-thread skew allowance on both sides.
    /// Returns `None` if no synchronization has happened yet.
    pub fn time(&self, local_now: u64) -> Option<TimeInterval> {
        let (sl, su) = (self.s_lower.as_ref()?, self.s_upper.as_ref()?);
        let mut lower = sl.lower_bound(local_now, self.drift_ppm);
        let mut upper = su.upper_bound(local_now, self.drift_ppm);
        lower = lower.saturating_sub(self.thread_skew_ns);
        upper = upper.saturating_add(self.thread_skew_ns);
        // Numerical guard: with independent samples the bounds can cross only
        // if the drift-bound assumption was violated; clamp to a point
        // interval rather than producing an inverted one.
        if lower > upper {
            lower = upper;
        }
        Some(TimeInterval::new(lower, upper))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: u32 = 1_000; // 1000 ppm, as in the paper

    #[test]
    fn bounds_straddle_master_time_immediately_after_sync() {
        // Non-CM local clock equals master clock + 500 offset, zero drift.
        let sample = SyncSample {
            t_send: 1_500,
            t_cm: 1_020,
            t_recv: 1_540,
        };
        let lb = sample.lower_bound(1_540, EPS);
        let ub = sample.upper_bound(1_540, EPS);
        // Master time at t_recv is ~1040 (sent at master time 1000, 40 rtt).
        assert!(lb <= 1_060, "lb={lb}");
        assert!(ub >= 1_020, "ub={ub}");
        assert!(lb <= ub);
    }

    #[test]
    fn uncertainty_grows_with_elapsed_time() {
        let sample = SyncSample {
            t_send: 0,
            t_cm: 10,
            t_recv: 20,
        };
        let mut sync = Synchronizer::new(EPS, 0);
        sync.record(sample, 20);
        let i0 = sync.time(20).unwrap();
        let i1 = sync.time(1_000_000).unwrap();
        assert!(i1.uncertainty() > i0.uncertainty());
    }

    #[test]
    fn keeps_best_lower_and_upper_bounds_separately() {
        let mut sync = Synchronizer::new(EPS, 0);
        // First sample: long RTT (wide interval).
        sync.record(
            SyncSample {
                t_send: 0,
                t_cm: 500,
                t_recv: 1_000,
            },
            1_000,
        );
        let wide = sync.time(1_000).unwrap();
        // Second sample: short RTT, tighter on both sides.
        sync.record(
            SyncSample {
                t_send: 2_000,
                t_cm: 2_510,
                t_recv: 2_020,
            },
            2_020,
        );
        let tight = sync.time(2_020).unwrap();
        assert!(tight.uncertainty() < wide.uncertainty() + 1_020);
        // A later, sloppier sample must not widen the bounds.
        let before = sync.time(3_000).unwrap();
        sync.record(
            SyncSample {
                t_send: 2_900,
                t_cm: 3_000,
                t_recv: 3_000,
            },
            3_000,
        );
        let after = sync.time(3_000).unwrap();
        assert!(after.uncertainty() <= before.uncertainty());
    }

    #[test]
    fn time_is_none_until_first_sync() {
        let sync = Synchronizer::new(EPS, 0);
        assert!(sync.time(123).is_none());
        assert!(!sync.is_synchronized());
    }

    #[test]
    fn thread_skew_widens_interval_symmetrically() {
        let mut a = Synchronizer::new(EPS, 0);
        let mut b = Synchronizer::new(EPS, 400);
        let s = SyncSample {
            t_send: 0,
            t_cm: 50_000,
            t_recv: 100,
        };
        a.record(s, 100);
        b.record(s, 100);
        let ia = a.time(100).unwrap();
        let ib = b.time(100).unwrap();
        assert_eq!(ib.uncertainty(), ia.uncertainty() + 800);
    }

    #[test]
    fn rtt_is_recv_minus_send() {
        let s = SyncSample {
            t_send: 10,
            t_cm: 0,
            t_recv: 35,
        };
        assert_eq!(s.rtt(), 25);
    }
}
