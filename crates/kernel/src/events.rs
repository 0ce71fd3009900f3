//! Cluster event log, used by the availability experiments (Table 1 and
//! Figure 18) to measure clock-disable windows, recovery times and
//! re-replication times.

use std::sync::Arc;
use std::time::Instant;

use farm_memory::RegionId;
use farm_net::NodeId;
use parking_lot::Mutex;

/// The kinds of control-plane events worth timestamping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A node was suspected to have failed (lease expired / unreachable).
    Suspected(NodeId),
    /// Clocks were disabled on the (new) CM as part of clock failover.
    ClockDisabled,
    /// Clocks were re-enabled with the given fast-forward value.
    ClockEnabled {
        /// Fast-forward value global time resumed from.
        ff: u64,
    },
    /// A new configuration was committed.
    ConfigCommitted {
        /// The new configuration's epoch.
        epoch: u64,
        /// The new configuration manager.
        cm: NodeId,
    },
    /// A backup was promoted to primary for a region.
    RegionPromoted {
        /// The affected region.
        region: RegionId,
        /// The new primary.
        new_primary: NodeId,
    },
    /// Re-replication of a region to a new backup completed.
    Rereplicated {
        /// The affected region.
        region: RegionId,
        /// The new backup.
        new_backup: NodeId,
    },
    /// All regions affected by the last failure are back to full redundancy.
    RereplicationComplete,
    /// New transactions on the regions of suspected nodes were blocked at
    /// the start of a reconfiguration (the drain barrier).
    RegionsBlocked {
        /// How many regions were blocked.
        count: usize,
    },
    /// The drain barrier was lifted: promotions (and their log replays)
    /// finished and the affected regions accept transactions again.
    RegionsUnblocked {
        /// How many regions were unblocked.
        count: usize,
    },
    /// A freshly re-replicated backup was caught up from the untruncated
    /// redo logs (commits that raced the state copy).
    LogCatchUp {
        /// The affected region.
        region: RegionId,
        /// The new backup that was caught up.
        new_backup: NodeId,
        /// Redo-log intents replayed onto it.
        intents: usize,
    },
}

/// A timestamped event.
#[derive(Debug, Clone)]
pub struct ClusterEvent {
    /// When the event happened (host monotonic time).
    pub at: Instant,
    /// What happened.
    pub kind: EventKind,
}

/// Shared, append-only event log.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    inner: Arc<Mutex<Vec<ClusterEvent>>>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event stamped "now".
    pub fn record(&self, kind: EventKind) {
        self.inner.lock().push(ClusterEvent {
            at: Instant::now(),
            kind,
        });
    }

    /// Returns a copy of all events recorded so far.
    pub fn snapshot(&self) -> Vec<ClusterEvent> {
        self.inner.lock().clone()
    }

    /// Clears the log (between benchmark phases).
    pub fn clear(&self) {
        self.inner.lock().clear();
    }

    /// Time between the first event matching `from` and the first event
    /// matching `to` that occurs after it, if both exist.
    pub fn span<F, T>(&self, from: F, to: T) -> Option<std::time::Duration>
    where
        F: Fn(&EventKind) -> bool,
        T: Fn(&EventKind) -> bool,
    {
        let events = self.inner.lock();
        let start = events.iter().find(|e| from(&e.kind))?.at;
        let end = events.iter().find(|e| e.at >= start && to(&e.kind))?.at;
        Some(end.duration_since(start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let log = EventLog::new();
        log.record(EventKind::Suspected(NodeId(1)));
        log.record(EventKind::ClockDisabled);
        let events = log.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::Suspected(NodeId(1)));
        log.clear();
        assert!(log.snapshot().is_empty());
    }

    #[test]
    fn span_measures_between_matching_events() {
        let log = EventLog::new();
        log.record(EventKind::ClockDisabled);
        std::thread::sleep(std::time::Duration::from_millis(2));
        log.record(EventKind::ClockEnabled { ff: 5 });
        let d = log
            .span(
                |k| matches!(k, EventKind::ClockDisabled),
                |k| matches!(k, EventKind::ClockEnabled { .. }),
            )
            .unwrap();
        assert!(d.as_millis() >= 1);
        assert!(log
            .span(|k| matches!(k, EventKind::RereplicationComplete), |_| true)
            .is_none());
    }
}
