//! Commit planning: grouping a transaction's write, free and alloc sets by
//! destination so every protocol phase sends **one batched message per
//! machine** instead of one per object.
//!
//! The plan is organized as [`RegionGroup`]s sorted by region id. Since a
//! global [`Addr`] orders by `(region, slab, slot)` and each region has
//! exactly one primary, iterating the groups in order and each group's
//! intents in order visits every address in **ascending global address
//! order** — the deterministic lock-acquisition order shared by all
//! coordinators (no two committers ever acquire overlapping lock sets in
//! opposite orders, so batched locking cannot deadlock).

use std::collections::HashMap;

use bytes::Bytes;
use farm_memory::{Addr, Region, RegionId};
use farm_net::NodeId;

use crate::engine::NodeEngine;
use crate::error::AbortReason;

use std::sync::Arc;

/// What a committing transaction intends to do to one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntentKind {
    /// Install a new version of an existing object.
    Update,
    /// Free an existing object (a write of "nothing"; in multi-version mode
    /// the old-version copy is made exactly as for an update, so history is
    /// preserved identically).
    Free,
    /// Initialize an object allocated by this transaction.
    Alloc,
}

/// One object-level intent within a commit.
#[derive(Debug, Clone)]
pub struct WriteIntent {
    /// The object's global address.
    pub addr: Addr,
    /// The version the transaction read (and must lock at); 0 for allocs.
    pub expected_ts: u64,
    /// The payload to install (empty for frees).
    pub data: Bytes,
    /// What kind of intent this is.
    pub kind: IntentKind,
    /// The primary's slab size class for the object, which backups mirror
    /// when they materialize the slab; 0 marks an unresolvable slab.
    pub slab_size: usize,
}

impl WriteIntent {
    /// Whether this intent needs a lock in the LOCK phase (allocs do not:
    /// their slots are invisible until initialized at install time).
    pub fn needs_lock(&self) -> bool {
        !matches!(self.kind, IntentKind::Alloc)
    }

    /// Wire size of this intent inside a batched message (64-byte record
    /// header plus payload, matching the per-object costs the unbatched
    /// protocol metered).
    pub fn wire_bytes(&self) -> usize {
        64 + self.data.len()
    }
}

/// All intents of one transaction that land in one region — and therefore at
/// one primary and one set of backups. Intents are sorted by ascending
/// address.
pub struct RegionGroup {
    /// The region every intent in this group belongs to.
    pub region: RegionId,
    /// The region's primary machine.
    pub primary: NodeId,
    /// The region's backup machines (may be empty).
    pub backups: Vec<NodeId>,
    /// The primary's replica of the region.
    pub region_handle: Arc<Region>,
    /// Object intents, ascending by address.
    pub intents: Vec<WriteIntent>,
}

impl RegionGroup {
    /// `(addr, expected_ts)` pairs for the intents that take part in the
    /// LOCK phase, in ascending address order.
    pub fn lock_entries(&self) -> Vec<(Addr, u64)> {
        self.intents
            .iter()
            .filter(|i| i.needs_lock())
            .map(|i| (i.addr, i.expected_ts))
            .collect()
    }
}

/// Aggregate view of one destination primary: how many objects and bytes its
/// single LOCK message carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DestinationBatch {
    /// The destination machine.
    pub primary: NodeId,
    /// Lockable objects carried by the LOCK message.
    pub lock_ops: u64,
    /// Total wire bytes of the LOCK message payload.
    pub lock_bytes: usize,
}

/// The full commit plan of one transaction.
pub struct CommitPlan {
    /// Per-region intent groups, ascending by region id (== ascending global
    /// address order).
    pub groups: Vec<RegionGroup>,
    /// Objects both allocated and freed by the same transaction: they never
    /// become visible, so they carry no intents — their pre-allocated slots
    /// are simply returned at install (or by the abort unwind).
    pub cancelled_allocs: Vec<Addr>,
}

impl CommitPlan {
    /// Groups the transaction's sets by destination. `write_set` holds
    /// buffered payloads (including for allocs), `free_set` the objects to
    /// free, `alloc_set` the objects allocated by this transaction and
    /// `read_set` the versions observed by reads (which the LOCK phase locks
    /// against).
    pub fn build(
        engine: &NodeEngine,
        write_set: &HashMap<Addr, Bytes>,
        free_set: &[Addr],
        alloc_set: &[Addr],
        read_set: &HashMap<Addr, u64>,
    ) -> Result<CommitPlan, AbortReason> {
        let mut intents: Vec<WriteIntent> = Vec::with_capacity(write_set.len() + free_set.len());
        let mut frees: Vec<Addr> = free_set.to_vec();
        frees.sort();
        frees.dedup();
        let is_freed = |addr: Addr| frees.binary_search(&addr).is_ok();
        let mut cancelled_allocs = Vec::new();

        for &addr in alloc_set {
            if is_freed(addr) {
                // Allocated and freed by the same transaction: net no-op.
                cancelled_allocs.push(addr);
                continue;
            }
            let data = write_set.get(&addr).cloned().unwrap_or_default();
            intents.push(WriteIntent {
                addr,
                expected_ts: 0,
                data,
                kind: IntentKind::Alloc,
                slab_size: 0,
            });
        }
        for (&addr, data) in write_set {
            if alloc_set.contains(&addr) || is_freed(addr) {
                continue; // Covered by the alloc or free intent.
            }
            // A write without a prior read is a **blind write**: there is no
            // observed version to lock against, so the LOCK phase acquires
            // at whatever version is installed (`LOCK_ANY_VERSION`) — no
            // read dependency, no validation entry.
            let expected_ts = read_set
                .get(&addr)
                .copied()
                .unwrap_or(farm_memory::LOCK_ANY_VERSION);
            intents.push(WriteIntent {
                addr,
                expected_ts,
                data: data.clone(),
                kind: IntentKind::Update,
                slab_size: 0,
            });
        }
        for &addr in &frees {
            if alloc_set.contains(&addr) {
                continue; // Cancelled above.
            }
            let expected_ts = *read_set.get(&addr).expect("free implies read");
            intents.push(WriteIntent {
                addr,
                expected_ts,
                data: Bytes::new(),
                kind: IntentKind::Free,
                slab_size: 0,
            });
        }

        // Group by region, then sort groups by region id and intents by
        // address: the resulting iteration order is the ascending global
        // address order. Each group's routing (primary, backups, the
        // primary's replica, slab size classes) is resolved once, here.
        let mut by_region: HashMap<RegionId, Vec<WriteIntent>> = HashMap::new();
        for intent in intents {
            by_region
                .entry(intent.addr.region)
                .or_default()
                .push(intent);
        }
        let mut groups: Vec<RegionGroup> = Vec::with_capacity(by_region.len());
        for (region, mut group_intents) in by_region {
            group_intents.sort_by_key(|i| i.addr);
            let probe = group_intents[0].addr;
            let (assignment, region_handle) = engine
                .route_of(probe)
                .map_err(|_| AbortReason::RegionUnavailable(probe))?;
            for intent in &mut group_intents {
                intent.slab_size = region_handle
                    .slab_at(intent.addr.slab)
                    .map_or(0, |s| s.object_size());
            }
            groups.push(RegionGroup {
                region,
                primary: assignment.primary,
                backups: assignment.backups,
                region_handle,
                intents: group_intents,
            });
        }
        groups.sort_by_key(|g| g.region);
        cancelled_allocs.sort();
        Ok(CommitPlan {
            groups,
            cancelled_allocs,
        })
    }

    /// Total number of object intents across all groups.
    pub fn total_intents(&self) -> usize {
        self.groups.iter().map(|g| g.intents.len()).sum()
    }

    /// The global lock-acquisition order: every lockable address, ascending.
    /// Identical for every coordinator regardless of the order in which the
    /// application issued its writes and frees.
    pub fn lock_order(&self) -> Vec<Addr> {
        self.groups
            .iter()
            .flat_map(|g| g.intents.iter().filter(|i| i.needs_lock()).map(|i| i.addr))
            .collect()
    }

    /// The plan's region groups keyed by destination primary, ascending by
    /// node id, each destination's group indices ascending (== ascending
    /// address order within the destination). This is the fan-out unit of
    /// the pipelined commit phases: one completion-set verb per entry.
    ///
    /// Destination counts are tiny (bounded by the cluster size), so this
    /// accumulates into a sorted `Vec` with linear probing — no per-commit
    /// tree allocation on the hot path.
    pub fn groups_by_primary(&self) -> Vec<(NodeId, Vec<usize>)> {
        let mut by_primary: Vec<(NodeId, Vec<usize>)> = Vec::with_capacity(self.groups.len());
        for (gi, g) in self.groups.iter().enumerate() {
            match by_primary.iter_mut().find(|(n, _)| *n == g.primary) {
                Some((_, idxs)) => idxs.push(gi),
                None => by_primary.push((g.primary, vec![gi])),
            }
        }
        by_primary.sort_by_key(|(n, _)| *n);
        by_primary
    }

    /// Message-level view of the LOCK phase: one batch per destination
    /// primary, ascending by node id. A destination whose intents are all
    /// allocs sends no LOCK message and is omitted.
    pub fn lock_destinations(&self) -> Vec<DestinationBatch> {
        self.destinations(|g| std::slice::from_ref(&g.primary), |i| i.needs_lock())
            .into_iter()
            .map(|(primary, lock_ops, lock_bytes)| DestinationBatch {
                primary,
                lock_ops,
                lock_bytes,
            })
            .collect()
    }

    /// COMMIT-PRIMARY message accounting: every intent (installs and alloc
    /// initializations), one batch per destination primary.
    pub fn primary_destinations(&self) -> Vec<(NodeId, u64, usize)> {
        self.destinations(|g| std::slice::from_ref(&g.primary), |_| true)
    }

    /// COMMIT-BACKUP / TRUNCATE message accounting: every intent, one batch
    /// per backup destination.
    pub fn backup_destinations(&self) -> Vec<(NodeId, u64, usize)> {
        self.destinations(|g| g.backups.as_slice(), |_| true)
    }

    /// Aggregates `(ops, wire bytes)` of the intents selected by `keep` for
    /// each destination named by `nodes_of`, ascending by node id. All
    /// batched phases derive their per-message accounting from this one
    /// aggregation so the metrics cannot drift apart. Linear accumulation —
    /// destination counts are bounded by the cluster size, and this runs
    /// several times per commit.
    fn destinations(
        &self,
        nodes_of: impl Fn(&RegionGroup) -> &[NodeId],
        keep: impl Fn(&WriteIntent) -> bool,
    ) -> Vec<(NodeId, u64, usize)> {
        let mut out: Vec<(NodeId, u64, usize)> = Vec::new();
        for g in &self.groups {
            let (ops, bytes) = g
                .intents
                .iter()
                .filter(|i| keep(i))
                .fold((0u64, 0usize), |(o, b), i| (o + 1, b + i.wire_bytes()));
            if ops == 0 {
                continue;
            }
            for &node in nodes_of(g) {
                match out.iter_mut().find(|(n, ..)| *n == node) {
                    Some((_, o, b)) => {
                        *o += ops;
                        *b += bytes;
                    }
                    None => out.push((node, ops, bytes)),
                }
            }
        }
        out.sort_by_key(|(n, ..)| *n);
        out
    }

    /// Addresses written or freed by this plan (used to exclude them from
    /// read validation).
    pub fn touches(&self, addr: Addr) -> bool {
        self.groups
            .iter()
            .any(|g| g.region == addr.region && g.intents.iter().any(|i| i.addr == addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::opts::EngineConfig;
    use farm_kernel::ClusterConfig;
    use proptest::prelude::*;

    fn plan_for(
        engine: &NodeEngine,
        writes: &[(Addr, &[u8])],
        frees: &[Addr],
        read_ts: u64,
    ) -> CommitPlan {
        let mut write_set = HashMap::new();
        for (a, d) in writes {
            write_set.insert(*a, Bytes::from(d.to_vec()));
        }
        let mut read_set = HashMap::new();
        for (a, _) in writes {
            read_set.insert(*a, read_ts);
        }
        for a in frees {
            read_set.insert(*a, read_ts);
        }
        CommitPlan::build(engine, &write_set, frees, &[], &read_set).unwrap()
    }

    fn setup() -> (std::sync::Arc<Engine>, Vec<Addr>) {
        let engine = Engine::start_cluster(ClusterConfig::test(3), EngineConfig::default());
        let node = engine.node(NodeId(0));
        let mut tx = node.begin();
        // Spread allocations over every region in the cluster.
        let regions = engine.cluster().regions();
        let mut addrs = Vec::new();
        for r in regions {
            for _ in 0..3 {
                addrs.push(tx.alloc_in(r, vec![0u8; 16]).unwrap());
            }
        }
        tx.commit().unwrap();
        (engine, addrs)
    }

    #[test]
    fn groups_are_per_region_and_sorted() {
        let (engine, addrs) = setup();
        let node = engine.node(NodeId(0));
        let writes: Vec<(Addr, &[u8])> = addrs.iter().map(|&a| (a, &b"x"[..])).collect();
        let plan = plan_for(&node, &writes, &[], 0);
        // One group per distinct region.
        let mut regions: Vec<RegionId> = addrs.iter().map(|a| a.region).collect();
        regions.sort();
        regions.dedup();
        assert_eq!(plan.groups.len(), regions.len());
        let group_regions: Vec<RegionId> = plan.groups.iter().map(|g| g.region).collect();
        assert_eq!(group_regions, regions);
        // Lock order is globally ascending.
        let order = plan.lock_order();
        assert!(
            order.windows(2).all(|w| w[0] < w[1]),
            "order not ascending: {order:?}"
        );
        engine.shutdown();
    }

    #[test]
    fn lock_destinations_aggregate_per_primary() {
        let (engine, addrs) = setup();
        let node = engine.node(NodeId(0));
        let writes: Vec<(Addr, &[u8])> = addrs.iter().map(|&a| (a, &b"abcd"[..])).collect();
        let plan = plan_for(&node, &writes, &[], 0);
        let dests = plan.lock_destinations();
        let total_ops: u64 = dests.iter().map(|d| d.lock_ops).sum();
        assert_eq!(total_ops as usize, addrs.len());
        // Each destination appears exactly once.
        let nodes: std::collections::HashSet<NodeId> = dests.iter().map(|d| d.primary).collect();
        assert_eq!(nodes.len(), dests.len());
        for d in &dests {
            assert_eq!(d.lock_bytes, d.lock_ops as usize * (64 + 4));
        }
        engine.shutdown();
    }

    #[test]
    fn alloc_plus_free_cancels_out() {
        let (engine, _) = setup();
        let node = engine.node(NodeId(0));
        let region = engine.cluster().regions()[0];
        let mut write_set = HashMap::new();
        let read_set = HashMap::new();
        // Simulate an alloc followed by a free of the same address.
        let primary = engine.cluster().primary_of(region).unwrap();
        let replica = engine.cluster().node(primary).regions().ensure(region);
        let addr = replica.allocate(8).unwrap();
        write_set.insert(addr, Bytes::from_static(b"tmp"));
        let plan = CommitPlan::build(&node, &write_set, &[addr], &[addr], &read_set).unwrap();
        assert!(plan.groups.is_empty());
        assert_eq!(plan.cancelled_allocs, vec![addr]);
        engine.shutdown();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The lock order is the ascending global address order, whatever
        /// subset of objects is written and in whatever order the writes were
        /// issued — the determinism that makes cross-primary batched locking
        /// deadlock-free.
        #[test]
        fn lock_order_is_deterministic_global_address_order(
            picks in prop::collection::vec((0usize..64, 0u8..2), 1..24)
        ) {
            let (engine, addrs) = setup();
            let node = engine.node(NodeId(0));
            // Select a subset (with duplicates dropped), in arbitrary order;
            // mark some as frees.
            let mut write_set = HashMap::new();
            let mut read_set = HashMap::new();
            let mut frees = Vec::new();
            let mut chosen = Vec::new();
            for (i, kind) in picks {
                let addr = addrs[i % addrs.len()];
                if write_set.contains_key(&addr) || frees.contains(&addr) {
                    continue;
                }
                read_set.insert(addr, 0u64);
                if kind == 0 {
                    write_set.insert(addr, Bytes::from_static(b"w"));
                } else {
                    frees.push(addr);
                }
                chosen.push(addr);
            }
            let plan = CommitPlan::build(&node, &write_set, &frees, &[], &read_set).unwrap();
            let order = plan.lock_order();
            let mut expected = chosen.clone();
            expected.sort();
            prop_assert_eq!(order, expected);
            engine.shutdown();
        }
    }
}
