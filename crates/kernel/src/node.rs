//! Per-machine state bundle: clock, memory, statistics and GC watermarks.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use arc_swap::ArcSwap;
use farm_clock::NodeClock;
use farm_memory::{OldVersionStore, RegionStore};
use farm_net::{NetStats, NodeId};

/// Callback with which the transaction engine reports the read timestamp of
/// the oldest transaction currently executing with this node as coordinator
/// (`None` when there are no active transactions).
pub type OatProvider = Arc<dyn Fn() -> Option<u64> + Send + Sync>;

/// One simulated machine: its clock subsystem, hosted region replicas,
/// old-version storage, network statistics, and the OAT / GC watermarks
/// propagated by the lease traffic (Figure 9).
pub struct NodeHandle {
    id: NodeId,
    clock: Arc<NodeClock>,
    regions: Arc<RegionStore>,
    old_versions: Arc<OldVersionStore>,
    stats: Arc<NetStats>,
    /// Swapped once at engine start (and by tests); read on every control
    /// round, so lookups are a wait-free snapshot load rather than a lock.
    oat_provider: ArcSwap<Option<OatProvider>>,
    /// `GC_local` (Figure 9): the last `OAT_CM` received; stale-snapshot slave
    /// transactions with read timestamps below this are rejected.
    gc_local: AtomicU64,
    /// `GC` (Figure 9): the global GC safe point; old-version blocks with GC
    /// time below this may be reclaimed and empty slabs reused.
    gc_global: AtomicU64,
    alive: AtomicBool,
}

impl NodeHandle {
    /// Creates the per-machine bundle.
    pub fn new(
        id: NodeId,
        clock: Arc<NodeClock>,
        regions: Arc<RegionStore>,
        old_versions: Arc<OldVersionStore>,
        stats: Arc<NetStats>,
    ) -> Self {
        NodeHandle {
            id,
            clock,
            regions,
            old_versions,
            stats,
            oat_provider: ArcSwap::from_pointee(None),
            gc_local: AtomicU64::new(0),
            gc_global: AtomicU64::new(0),
            alive: AtomicBool::new(true),
        }
    }

    /// This machine's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The machine's clock subsystem.
    pub fn clock(&self) -> &Arc<NodeClock> {
        &self.clock
    }

    /// Region replicas hosted by this machine.
    pub fn regions(&self) -> &Arc<RegionStore> {
        &self.regions
    }

    /// Old-version storage of this machine.
    pub fn old_versions(&self) -> &Arc<OldVersionStore> {
        &self.old_versions
    }

    /// Network statistics of this machine.
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }

    /// Registers the transaction engine's OAT provider.
    pub fn set_oat_provider(&self, provider: OatProvider) {
        self.oat_provider.store(Arc::new(Some(provider)));
    }

    /// `OAT_local`: the minimum of the current interval's lower bound and the
    /// read timestamp of the oldest active local transaction.
    pub fn oat_local(&self) -> u64 {
        let lower = self.clock.time_unchecked().map(|i| i.lower).unwrap_or(0);
        let oldest_tx = self.oat_provider.load().as_ref().and_then(|p| p());
        match oldest_tx {
            Some(ts) => lower.min(ts),
            None => lower,
        }
    }

    /// Receives `OAT_CM` from a lease response: becomes the new `GC_local`.
    pub fn note_oat_cm(&self, oat_cm: u64) {
        self.gc_local.fetch_max(oat_cm, Ordering::AcqRel);
    }

    /// Receives the global `GC` value from a lease response.
    pub fn note_gc(&self, gc: u64) {
        self.gc_global.fetch_max(gc, Ordering::AcqRel);
    }

    /// `GC_local`: stale snapshot (slave) reads below this are rejected.
    pub fn gc_local(&self) -> u64 {
        self.gc_local.load(Ordering::Acquire)
    }

    /// The global GC safe point: old versions below this may be reclaimed.
    pub fn gc_safe_point(&self) -> u64 {
        self.gc_global.load(Ordering::Acquire)
    }

    /// Whether the machine is alive (its process has not been killed).
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Marks the machine as crashed.
    pub fn mark_dead(&self) {
        self.alive.store(false, Ordering::Release);
    }
}

impl std::fmt::Debug for NodeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeHandle")
            .field("id", &self.id)
            .field("alive", &self.is_alive())
            .field("gc_local", &self.gc_local())
            .field("gc", &self.gc_safe_point())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farm_clock::{ClockConfig, ManualClock, SharedClock};
    use farm_memory::RegionConfig;

    fn handle() -> (Arc<ManualClock>, NodeHandle) {
        let manual = Arc::new(ManualClock::new(1_000));
        let shared: SharedClock = manual.clone();
        let clock = Arc::new(NodeClock::new_master(
            shared,
            ClockConfig {
                drift_bound_ppm: 1_000,
                thread_skew_ns: 0,
                spin_threshold_ns: 1_000,
            },
        ));
        let node = NodeHandle::new(
            NodeId(0),
            clock,
            Arc::new(RegionStore::new(RegionConfig::small())),
            Arc::new(OldVersionStore::small()),
            Arc::new(NetStats::default()),
        );
        (manual, node)
    }

    #[test]
    fn oat_local_without_transactions_is_clock_lower_bound() {
        let (_m, node) = handle();
        assert_eq!(node.oat_local(), 1_000);
    }

    #[test]
    fn oat_local_takes_minimum_with_active_transactions() {
        let (_m, node) = handle();
        node.set_oat_provider(Arc::new(|| Some(400)));
        assert_eq!(node.oat_local(), 400);
        node.set_oat_provider(Arc::new(|| Some(5_000)));
        assert_eq!(node.oat_local(), 1_000);
        node.set_oat_provider(Arc::new(|| None));
        assert_eq!(node.oat_local(), 1_000);
    }

    #[test]
    fn gc_watermarks_are_monotone() {
        let (_m, node) = handle();
        node.note_oat_cm(100);
        node.note_oat_cm(50);
        assert_eq!(node.gc_local(), 100);
        node.note_gc(80);
        node.note_gc(20);
        assert_eq!(node.gc_safe_point(), 80);
    }

    #[test]
    fn alive_flag() {
        let (_m, node) = handle();
        assert!(node.is_alive());
        node.mark_dead();
        assert!(!node.is_alive());
    }
}
