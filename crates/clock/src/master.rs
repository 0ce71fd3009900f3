//! Clock-master state.
//!
//! In FaRMv2 the configuration manager (CM) doubles as the clock master. Its
//! local clock *defines* global time. When the CM fails, a new CM continues
//! global time from the fast-forward value `FF` agreed by the failover
//! protocol (Figure 6): the new master's global time is pinned to `FF` at the
//! instant its clock is (re-)enabled and advances with its local clock from
//! there.

use crate::clock::SharedClock;

/// Errors returned when asking a node to act as a clock master.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MasterError {
    /// The clock is currently disabled (a reconfiguration with clock
    /// failover is in progress); synchronization requests are rejected.
    Disabled,
    /// This node is not the clock master in the current configuration.
    NotMaster,
}

impl std::fmt::Display for MasterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MasterError::Disabled => write!(f, "clock master disabled"),
            MasterError::NotMaster => write!(f, "not the clock master"),
        }
    }
}

impl std::error::Error for MasterError {}

/// The master-time generator of a node that currently is the clock master.
///
/// Master time is `anchor_master + (local_now - anchor_local)`: an affine
/// continuation of the local clock from an anchor point. The initial master
/// anchors at `(local_now, local_now)` so its master time simply *is* its
/// local clock; a failed-over master anchors at `(local_now, FF)`.
#[derive(Debug)]
pub struct MasterState {
    anchor_local: u64,
    anchor_master: u64,
}

impl MasterState {
    /// Master state for the initial clock master: global time equals its
    /// local clock.
    pub fn initial(clock: &SharedClock) -> Self {
        let now = clock.now_ns();
        MasterState {
            anchor_local: now,
            anchor_master: now,
        }
    }

    /// Master state for a node taking over as clock master after failover:
    /// global time continues from the fast-forward value `ff`.
    pub fn taking_over_at(clock: &SharedClock, ff: u64) -> Self {
        MasterState {
            anchor_local: clock.now_ns(),
            anchor_master: ff,
        }
    }

    /// The current master time.
    #[inline]
    pub fn master_time(&self, clock: &SharedClock) -> u64 {
        let now = clock.now_ns();
        self.anchor_master + now.saturating_sub(self.anchor_local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, ManualClock};
    use std::sync::Arc;

    #[test]
    fn initial_master_time_tracks_local_clock() {
        let c = Arc::new(ManualClock::new(1_000));
        let shared: SharedClock = c.clone();
        let m = MasterState::initial(&shared);
        assert_eq!(m.master_time(&shared), c.now_ns());
        c.advance(500);
        assert_eq!(m.master_time(&shared), 1_500);
    }

    #[test]
    fn takeover_master_continues_from_ff() {
        let c = Arc::new(ManualClock::new(10_000));
        let shared: SharedClock = c.clone();
        // The old master had advanced global time to 50_000.
        let m = MasterState::taking_over_at(&shared, 50_000);
        assert_eq!(m.master_time(&shared), 50_000);
        c.advance(1_234);
        assert_eq!(m.master_time(&shared), 51_234);
    }

    #[test]
    fn takeover_never_goes_backwards_even_if_local_clock_is_ahead() {
        // The new master's local clock reads far ahead of FF; master time
        // must still start exactly at FF, not at the local reading.
        let c = Arc::new(ManualClock::new(1_000_000));
        let shared: SharedClock = c.clone();
        let m = MasterState::taking_over_at(&shared, 42);
        assert_eq!(m.master_time(&shared), 42);
    }
}
