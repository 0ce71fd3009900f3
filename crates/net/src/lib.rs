//! # farm-net — simulated RDMA cluster substrate
//!
//! FaRMv2 runs on a cluster of machines connected by an RDMA network and
//! relies heavily on **one-sided** RDMA verbs: reads and writes that are
//! served entirely by the remote NIC without involving the remote CPU. This
//! reproduction has no RDMA hardware, so this crate provides an in-process
//! substitute with the same *structural* properties:
//!
//! * A verb — one-sided or two-sided — is a direct load/store or function
//!   call on the target machine's memory (owned by `farm-memory` and shared
//!   via `Arc`), mirroring the fact that an RDMA NIC bypasses the remote CPU.
//!   The [`OneSidedMeter`] accounts for every such message so that counts and
//!   bytes match what the real protocol would put on the network.
//! * Flight time is a completion deadline taken from the [`LatencyModel`]
//!   at issue time. A [`CompletionSet`] carries a phase's verbs and the
//!   coordinator waits once, at the latest deadline, like a real
//!   coordinator polling its NIC completion queue; a lone read's deadline
//!   comes back from [`OneSidedMeter::read`]. Every wait is
//!   [`LatencyModel::wait_until`].
//! * A [`FaultPlane`] supports killing machines and partitioning the network,
//!   which the kernel's failure detector and reconfiguration protocol react
//!   to.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod completion;
mod fault;
mod latency;
mod stats;

pub use completion::{Completion, CompletionSet, DispatchMode};
pub use fault::FaultPlane;
pub use latency::LatencyModel;
pub use stats::{
    NetStats, NetStatsSnapshot, PhaseHistogram, PhaseHistogramSnapshot, PhaseLabel, Verb,
};

use std::fmt;
use std::time::{Duration, Instant};

/// Identifier of a simulated machine in the cluster.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The numeric index of the node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Accounts for the messages of the simulated wire (one-sided reads/writes
/// served by the "NIC", two-sided RPCs) so that message counts and bytes
/// match what the real protocol would put on the network.
///
/// The meter never waits. The `*_deferred` verbs record a message whose
/// flight time is owned by the [`CompletionSet`] that carries it (one
/// deadline wait per phase, however many messages the phase fans out);
/// [`OneSidedMeter::read`] hands a lone read's deadline back to its caller.
pub struct OneSidedMeter {
    stats: std::sync::Arc<NetStats>,
    latency: LatencyModel,
}

impl OneSidedMeter {
    /// Creates a meter feeding `stats`, injecting latency per `latency`.
    pub fn new(stats: std::sync::Arc<NetStats>, latency: LatencyModel) -> Self {
        OneSidedMeter { stats, latency }
    }

    /// Accounts for a one-sided RDMA read of `bytes` bytes issued now and
    /// returns its completion deadline (issue time + the read latency), for
    /// the caller to [`LatencyModel::wait_until`] once it has done the
    /// destination-side access. `None`, with no clock read, under a zero
    /// read latency.
    #[inline]
    #[must_use = "the read's flight is paid by waiting until the deadline"]
    pub fn read(&self, bytes: usize) -> Option<Instant> {
        self.stats.record(Verb::RdmaRead, bytes);
        match self.latency.rdma_read_ns {
            0 => None,
            ns => Some(Instant::now() + Duration::from_nanos(ns)),
        }
    }

    /// Accounts for the hardware acknowledgement of a previously issued RDMA
    /// write (the coordinator waits for NIC acks of COMMIT-BACKUP messages).
    #[inline]
    pub fn ack(&self) {
        self.stats.record(Verb::HardwareAck, 0);
    }

    /// Records **one** one-sided RDMA read message carrying `ops` logical
    /// reads and `bytes` total payload — a *doorbell-batched* read: the NIC
    /// is rung once for a chain of read work requests. This is the verb
    /// behind `Transaction::read_many` (one batch per destination primary)
    /// and the commit driver's batched VALIDATE phase.
    #[inline]
    pub fn read_batch_deferred(&self, ops: u64, bytes: usize) {
        self.stats.record_batch(Verb::RdmaRead, ops, bytes);
    }

    /// Records **one** one-sided RDMA write message carrying `ops` logical
    /// writes and `bytes` total payload (e.g. a COMMIT-BACKUP record holding
    /// a transaction's whole write set for one backup).
    #[inline]
    pub fn write_batch_deferred(&self, ops: u64, bytes: usize) {
        self.stats.record_batch(Verb::RdmaWrite, ops, bytes);
    }

    /// Records **one** two-sided message carrying `ops` logical operations
    /// (e.g. a LOCK batch of `ops` writes for one primary).
    #[inline]
    pub fn rpc_batch_deferred(&self, ops: u64, bytes: usize) {
        self.stats.record_batch(Verb::Rpc, ops, bytes);
    }

    /// The latency model this meter injects, for building completion sets
    /// that pay the same wire costs.
    pub fn latency_model(&self) -> LatencyModel {
        self.latency
    }

    /// The underlying statistics sink.
    pub fn stats(&self) -> &std::sync::Arc<NetStats> {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn node_id_display_and_index() {
        let n = NodeId(7);
        assert_eq!(n.index(), 7);
        assert_eq!(format!("{n}"), "n7");
        assert_eq!(format!("{n:?}"), "n7");
        assert_eq!(NodeId::from(3u32), NodeId(3));
    }

    #[test]
    fn one_sided_meter_counts_verbs() {
        let stats = Arc::new(NetStats::default());
        let meter = OneSidedMeter::new(stats.clone(), LatencyModel::zero());
        assert_eq!(meter.read(64), None, "a zero model has no deadline");
        let _ = meter.read(128);
        meter.ack();
        let snap = stats.snapshot();
        assert_eq!(snap.count(Verb::RdmaRead), 2);
        assert_eq!(snap.bytes(Verb::RdmaRead), 192);
        assert_eq!(snap.count(Verb::HardwareAck), 1);
    }

    #[test]
    fn one_sided_meter_batches_count_one_message() {
        let stats = Arc::new(NetStats::default());
        let meter = OneSidedMeter::new(stats.clone(), LatencyModel::zero());
        meter.rpc_batch_deferred(8, 8 * 64);
        meter.write_batch_deferred(8, 8 * 64 + 64);
        meter.read_batch_deferred(2, 32);
        let snap = stats.snapshot();
        assert_eq!(snap.count(Verb::Rpc), 1);
        assert_eq!(snap.ops(Verb::Rpc), 8);
        assert_eq!(snap.count(Verb::RdmaWrite), 1);
        assert_eq!(snap.ops(Verb::RdmaWrite), 8);
        assert_eq!(snap.count(Verb::RdmaRead), 1);
        assert_eq!(snap.ops(Verb::RdmaRead), 2);
        assert_eq!(snap.total_messages(), 3);
        assert_eq!(snap.total_ops(), 18);
    }
}
