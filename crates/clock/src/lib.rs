//! # farm-clock — global time for FaRMv2
//!
//! This crate implements the *global time* mechanism described in Section 4.1
//! of "Fast General Distributed Transactions with Opacity" (FaRMv2,
//! SIGMOD 2019): every machine keeps a local clock (in the paper the CPU
//! cycle counter, here a monotonic host clock optionally perturbed with a
//! configurable drift and offset), and periodically synchronizes with an
//! elected **clock master** (CM) using Marzullo-style interval
//! synchronization. A machine never knows the master time exactly — it only
//! knows an **interval** `[L, U]` that is guaranteed to contain the time at
//! the CM, assuming one-way network latencies are non-negative and the
//! relative clock drift is bounded by a known ε.
//!
//! The crate provides:
//!
//! * [`Clock`] — the local-clock abstraction, with a real [`MonotonicClock`],
//!   a [`DriftClock`] that injects bounded drift/offset (to emulate distinct
//!   machines inside one process), and a [`ManualClock`] for deterministic
//!   tests.
//! * [`SyncSample`] / [`Synchronizer`] — the optimized variant of Marzullo's
//!   algorithm from Figure 2 of the paper, which keeps *two* past
//!   synchronizations: the one giving the highest lower bound (`S_lower`) and
//!   the one giving the lowest upper bound (`S_upper`).
//! * [`NodeClock`] — a per-machine facade combining the local clock, the
//!   synchronizer, and the clock-master role; it implements `TIME()` and the
//!   `GET_TS()` **uncertainty wait** of Figures 4 and 5, plus the non-strict
//!   variants used by non-strict / snapshot-isolation transactions.
//! * [`MasterState`] — the clock-master side: serving `MASTERTIME()`,
//!   disabling/enabling the clock during reconfiguration, and the
//!   **fast-forward** (`FF`) bookkeeping used by the clock-failover protocol
//!   of Figure 6.
//!
//! All times are expressed in nanoseconds as `u64`; timestamps are newtyped
//! as [`Timestamp`].

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod clock;
mod interval;
mod master;
mod node;
mod sync;

pub use clock::{Clock, DriftClock, ManualClock, MonotonicClock, SharedClock};
pub use interval::{TimeInterval, Timestamp};
pub use master::{MasterError, MasterState};
pub use node::{ClockConfig, ClockStats, NodeClock, TsMode};
pub use sync::{SyncSample, Synchronizer};

/// Parts-per-million helper: applies `(1 + ppm/1e6)` to a nanosecond delta.
#[inline]
pub(crate) fn scale_up(delta_ns: u64, ppm: u32) -> u64 {
    let d = delta_ns as u128;
    let num = d * (1_000_000u128 + ppm as u128);
    (num / 1_000_000u128) as u64
}

/// Parts-per-million helper: applies `(1 - ppm/1e6)` to a nanosecond delta.
#[inline]
pub(crate) fn scale_down(delta_ns: u64, ppm: u32) -> u64 {
    let d = delta_ns as u128;
    let num = d * (1_000_000u128 - ppm as u128);
    (num / 1_000_000u128) as u64
}

#[cfg(test)]
mod ppm_tests {
    use super::*;

    #[test]
    fn scale_up_and_down_are_inverse_enough() {
        let base = 1_000_000_000u64; // 1 s
        assert_eq!(scale_up(base, 1000), 1_001_000_000);
        assert_eq!(scale_down(base, 1000), 999_000_000);
        assert_eq!(scale_up(0, 1000), 0);
        assert_eq!(scale_down(0, 1000), 0);
    }

    #[test]
    fn scale_handles_large_values_without_overflow() {
        let base = u64::MAX / 2;
        let up = scale_up(base, 1_000_000); // +100%
        assert!(up > base);
        let down = scale_down(base, 1_000_000); // -100%
        assert_eq!(down, 0);
    }
}
