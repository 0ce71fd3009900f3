//! The cluster view: one immutable, epoch-stamped snapshot of everything a
//! transaction routes by.

use farm_memory::RegionId;

use crate::config::ConfigRecord;
use crate::placement::Placement;

/// One published state of the cluster: the committed configuration, the
/// placement and the drain barrier, read together with one wait-free load
/// ([`Cluster::view`](crate::Cluster::view)), so a reader never pairs an
/// epoch from one configuration with a placement or a barrier from another.
///
/// A reconfiguration builds each next view from the current one and
/// publishes it at each protocol step (barrier up, configuration CAS,
/// promotions, barrier lifted, new backups). In every published view, a
/// region whose assignment names a node outside `config.members` is
/// draining.
#[derive(Debug, Clone)]
pub struct ClusterView {
    /// The committed configuration: epoch, members and CM.
    pub config: ConfigRecord,
    /// Every region's replica set, indexed by region id.
    pub placement: Placement,
    /// Regions draining for a reconfiguration, ascending: new transactions
    /// on them abort retryably until the barrier lifts.
    pub draining: Vec<RegionId>,
}

impl ClusterView {
    /// Whether `region` is behind the drain barrier.
    pub fn is_draining(&self, region: RegionId) -> bool {
        self.draining.binary_search(&region).is_ok()
    }
}
