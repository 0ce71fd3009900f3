//! Region placement: which machine is primary and which are backups.

use std::sync::Arc;

use farm_memory::RegionId;
use farm_net::NodeId;

/// The replica set of one region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionAssignment {
    /// The primary replica's machine.
    pub primary: NodeId,
    /// Backup replicas' machines, in order. Shared: handing an assignment
    /// to a committing transaction is a reference-count bump, not a copy;
    /// a placement change replaces the list.
    pub backups: Arc<[NodeId]>,
}

impl RegionAssignment {
    /// All machines holding a replica (primary first).
    pub fn replicas(&self) -> Vec<NodeId> {
        let mut v = Vec::with_capacity(1 + self.backups.len());
        v.push(self.primary);
        v.extend_from_slice(&self.backups);
        v
    }

    /// Whether `node` holds any replica of the region.
    pub fn involves(&self, node: NodeId) -> bool {
        self.primary == node || self.backups.contains(&node)
    }
}

/// The cluster-wide placement map: every region's replica set, indexed by
/// region id. Regions are dense (`0..n`, from [`Placement::initial`]) and
/// never removed, so a lookup is one bounds-checked index.
#[derive(Debug, Clone, Default)]
pub struct Placement {
    assignments: Vec<RegionAssignment>,
}

impl Placement {
    /// Builds the initial placement: `regions_per_node * nodes.len()` regions,
    /// region `i` having node `i % n` as primary and the next
    /// `replication - 1` nodes (mod n) as backups. This mirrors FaRM's
    /// symmetric sharding where every machine is primary for some shards and
    /// backup for others, which is how reads are load-balanced (Section 4.2).
    pub fn initial(nodes: &[NodeId], regions_per_node: usize, replication: usize) -> Self {
        assert!(!nodes.is_empty());
        assert!(replication >= 1 && replication <= nodes.len());
        let n = nodes.len();
        let assignments = (0..regions_per_node * n)
            .map(|r| RegionAssignment {
                primary: nodes[r % n],
                backups: (1..replication).map(|k| nodes[(r + k) % n]).collect(),
            })
            .collect();
        Placement { assignments }
    }

    /// Every region with its assignment, in ascending region order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (RegionId, &RegionAssignment)> {
        let regions = self.assignments.iter().enumerate();
        regions.map(|(i, a)| (RegionId(i as u16), a))
    }

    /// All region ids, ascending.
    pub fn regions(&self) -> impl ExactSizeIterator<Item = RegionId> + '_ {
        self.iter().map(|(r, _)| r)
    }

    /// The assignment of one region.
    pub fn assignment(&self, region: RegionId) -> Option<&RegionAssignment> {
        self.assignments.get(usize::from(region.0))
    }

    /// Regions whose primary is `node`, ascending.
    pub fn primaries_of(&self, node: NodeId) -> impl Iterator<Item = RegionId> + '_ {
        self.iter()
            .filter(move |(_, a)| a.primary == node)
            .map(|(r, _)| r)
    }

    /// Removes a failed node from every assignment, promoting the first
    /// surviving backup where it was primary. Returns the list of
    /// `(region, new_primary)` promotions performed, ascending.
    ///
    /// A region that loses *all* replicas keeps the failed node as its
    /// primary (data loss), which the initial placement's replication factor
    /// is chosen to avoid for the failure counts exercised in the evaluation.
    pub fn remove_node(&mut self, failed: NodeId) -> Vec<(RegionId, NodeId)> {
        let mut promotions = Vec::new();
        for (i, a) in self.assignments.iter_mut().enumerate() {
            let region = RegionId(i as u16);
            let mut survivors = a.backups.iter().copied().filter(|&b| b != failed);
            if a.primary == failed {
                if let Some(new_primary) = survivors.next() {
                    a.primary = new_primary;
                    promotions.push((region, new_primary));
                }
            }
            let survivors: Arc<[NodeId]> = survivors.collect();
            if survivors.len() != a.backups.len() {
                a.backups = survivors;
            }
        }
        promotions
    }

    /// Regions that currently have fewer than `replication` replicas, with
    /// their current replica counts.
    pub fn under_replicated(&self, replication: usize) -> Vec<(RegionId, usize)> {
        self.iter()
            .map(|(r, a)| (r, 1 + a.backups.len()))
            .filter(|&(_, count)| count < replication)
            .collect()
    }

    /// Adds `node` as an additional backup of `region` (end of
    /// re-replication for that region).
    pub fn add_backup(&mut self, region: RegionId, node: NodeId) {
        if let Some(a) = self.assignments.get_mut(usize::from(region.0)) {
            if !a.involves(node) {
                a.backups = a.backups.iter().copied().chain([node]).collect();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn initial_placement_spreads_primaries() {
        let p = Placement::initial(&nodes(4), 2, 3);
        assert_eq!(p.regions().len(), 8);
        for node in nodes(4) {
            assert_eq!(p.primaries_of(node).count(), 2);
        }
        let a = p.assignment(RegionId(1)).unwrap();
        assert_eq!(a.primary, NodeId(1));
        assert_eq!(a.backups[..], [NodeId(2), NodeId(3)]);
        assert_eq!(a.replicas(), vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert!(a.involves(NodeId(3)));
        assert!(!a.involves(NodeId(0)));
    }

    #[test]
    fn remove_node_promotes_backups() {
        let mut p = Placement::initial(&nodes(3), 1, 3);
        let promotions = p.remove_node(NodeId(0));
        // Node 0 was primary of region 0; first backup (node 1) is promoted.
        assert_eq!(promotions, vec![(RegionId(0), NodeId(1))]);
        let a = p.assignment(RegionId(0)).unwrap();
        assert_eq!(a.primary, NodeId(1));
        assert_eq!(a.backups[..], [NodeId(2)]);
        // Other regions simply lose node 0 as a backup.
        let under = p.under_replicated(3);
        assert_eq!(under.len(), 3);
    }

    #[test]
    fn add_backup_restores_replication() {
        let mut p = Placement::initial(&nodes(4), 1, 3);
        p.remove_node(NodeId(0));
        for (region, _) in p.under_replicated(3) {
            p.add_backup(region, NodeId(3));
        }
        // Region already containing node 3 keeps a single copy of it.
        for region in p.regions() {
            let a = p.assignment(region).unwrap();
            let mut reps = a.replicas();
            reps.sort();
            reps.dedup();
            assert_eq!(
                reps.len(),
                a.replicas().len(),
                "duplicate replica in {region:?}"
            );
        }
        // The regions that could take node 3 as a new backup are full again;
        // those whose survivors already included node 3 stay under-replicated
        // until another node is available.
        for (region, count) in p.under_replicated(3) {
            let a = p.assignment(region).unwrap();
            assert!(
                a.involves(NodeId(3)),
                "{region:?} with {count} replicas should contain n3"
            );
        }
    }

    #[test]
    fn double_failure_still_keeps_one_replica_with_three_way_replication() {
        let mut p = Placement::initial(&nodes(5), 2, 3);
        p.remove_node(NodeId(1));
        p.remove_node(NodeId(2));
        for region in p.regions() {
            let a = p.assignment(region).unwrap();
            assert!(!a.replicas().is_empty());
            assert!(!a.involves(NodeId(1)));
            assert!(!a.involves(NodeId(2)));
        }
    }
}
