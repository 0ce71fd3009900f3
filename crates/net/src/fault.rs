//! Failure injection: machine crashes and network partitions.

use std::collections::HashSet;

use parking_lot::RwLock;

use crate::NodeId;

/// The cluster-wide fault state consulted on every message send.
///
/// * A **killed** node neither sends nor receives anything (its process is
///   gone). One-sided accesses to a killed node's memory are also rejected by
///   the engine after it observes the kill.
/// * A **partition** assigns nodes to groups; messages only flow within a
///   group. `heal` removes the partition.
#[derive(Debug, Default)]
pub struct FaultPlane {
    inner: RwLock<FaultState>,
}

#[derive(Debug, Default)]
struct FaultState {
    killed: HashSet<NodeId>,
    /// `None` means fully connected. Otherwise `partition[i]` is the group of
    /// node `i`; nodes without an entry are in group 0.
    partition: Option<Vec<(NodeId, u32)>>,
}

impl FaultPlane {
    /// Creates a fault plane with no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks a node as crashed.
    pub fn kill(&self, node: NodeId) {
        self.kill_with(node, || {});
    }

    /// Marks a node as crashed, running `also` under the same write lock
    /// *before* the kill becomes visible. Side effects tied to the kill
    /// (e.g. flipping a node handle's liveness flag) therefore publish no
    /// later than the kill itself: any observer that sees
    /// [`FaultPlane::is_killed`] or [`FaultPlane::reachable`] report the
    /// crash is guaranteed to also see the side effect.
    pub fn kill_with(&self, node: NodeId, also: impl FnOnce()) {
        let mut st = self.inner.write();
        also();
        st.killed.insert(node);
    }

    /// Whether the node is currently crashed.
    pub fn is_killed(&self, node: NodeId) -> bool {
        self.inner.read().killed.contains(&node)
    }

    /// Installs a partition described by explicit (node, group) assignments.
    /// Unlisted nodes belong to group 0.
    pub fn partition(&self, assignment: Vec<(NodeId, u32)>) {
        self.inner.write().partition = Some(assignment);
    }

    /// Removes any partition.
    pub fn heal(&self) {
        self.inner.write().partition = None;
    }

    /// Whether a message from `from` can reach `to` given the current faults.
    pub fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        let st = self.inner.read();
        if st.killed.contains(&from) || st.killed.contains(&to) {
            return false;
        }
        match &st.partition {
            None => true,
            Some(groups) => group_of(groups, from) == group_of(groups, to),
        }
    }
}

fn group_of(groups: &[(NodeId, u32)], node: NodeId) -> u32 {
    groups
        .iter()
        .find(|(n, _)| *n == node)
        .map(|(_, g)| *g)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_connected_by_default() {
        let f = FaultPlane::new();
        assert!(f.reachable(NodeId(0), NodeId(1)));
        assert!(f.reachable(NodeId(1), NodeId(0)));
        assert!(!f.is_killed(NodeId(0)));
        assert!(!f.is_killed(NodeId(1)));
    }

    #[test]
    fn killed_node_is_unreachable_both_ways() {
        let f = FaultPlane::new();
        f.kill(NodeId(2));
        assert!(f.is_killed(NodeId(2)));
        assert!(!f.reachable(NodeId(0), NodeId(2)));
        assert!(!f.reachable(NodeId(2), NodeId(0)));
        assert!(f.reachable(NodeId(0), NodeId(1)));
    }

    #[test]
    fn partition_blocks_cross_group_traffic_only() {
        let f = FaultPlane::new();
        f.partition(vec![(NodeId(0), 0), (NodeId(1), 0), (NodeId(2), 1)]);
        assert!(f.reachable(NodeId(0), NodeId(1)));
        assert!(!f.reachable(NodeId(0), NodeId(2)));
        assert!(!f.reachable(NodeId(2), NodeId(1)));
        f.heal();
        assert!(f.reachable(NodeId(0), NodeId(2)));
    }

    #[test]
    fn unlisted_nodes_default_to_group_zero() {
        let f = FaultPlane::new();
        f.partition(vec![(NodeId(5), 1)]);
        assert!(f.reachable(NodeId(0), NodeId(1)));
        assert!(!f.reachable(NodeId(0), NodeId(5)));
    }

    #[test]
    fn reachability_is_symmetric() {
        let f = FaultPlane::new();
        f.partition(vec![
            (NodeId(0), 0),
            (NodeId(1), 1),
            (NodeId(2), 1),
            (NodeId(3), 0),
        ]);
        f.kill(NodeId(3));
        for a in 0..4u32 {
            for b in 0..4u32 {
                assert_eq!(
                    f.reachable(NodeId(a), NodeId(b)),
                    f.reachable(NodeId(b), NodeId(a)),
                    "reachability asymmetric between {a} and {b}"
                );
            }
        }
    }

    #[test]
    fn partition_then_heal_restores_full_connectivity() {
        let f = FaultPlane::new();
        f.partition(vec![(NodeId(0), 0), (NodeId(1), 1), (NodeId(2), 2)]);
        assert!(!f.reachable(NodeId(0), NodeId(1)));
        assert!(!f.reachable(NodeId(1), NodeId(2)));
        f.heal();
        for a in 0..3u32 {
            for b in 0..3u32 {
                assert!(f.reachable(NodeId(a), NodeId(b)));
            }
        }
        // Healing an already-healed plane is a no-op.
        f.heal();
        assert!(f.reachable(NodeId(0), NodeId(2)));
    }

    #[test]
    fn kill_overrides_partition() {
        let f = FaultPlane::new();
        f.partition(vec![(NodeId(0), 0), (NodeId(1), 0)]);
        f.kill(NodeId(1));
        // Same partition group, but the node is dead.
        assert!(!f.reachable(NodeId(0), NodeId(1)));
        // Healing the partition does not resurrect the node.
        f.heal();
        assert!(!f.reachable(NodeId(0), NodeId(1)));
        assert!(f.is_killed(NodeId(1)));
    }

    #[test]
    fn kill_with_side_effect_is_visible_with_the_kill() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let f = FaultPlane::new();
        let flag = AtomicBool::new(false);
        f.kill_with(NodeId(1), || flag.store(true, Ordering::Release));
        assert!(f.is_killed(NodeId(1)));
        assert!(flag.load(Ordering::Acquire));
    }
}
