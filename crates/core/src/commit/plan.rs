//! Commit planning: grouping a transaction's write, free and alloc sets by
//! destination so every protocol phase sends **one batched message per
//! machine** instead of one per object.
//!
//! [`CommitPlan::build`] sorts the intents by address and splits them into
//! [`RegionGroup`]s, one per region, ascending by region id. Since a global
//! [`Addr`] orders by `(region, slab, slot)` and each region has exactly one
//! primary, iterating the groups in order and each group's intents in order
//! visits every address in **ascending global address order** — the
//! deterministic lock-acquisition order shared by all coordinators (no two
//! committers ever acquire overlapping lock sets in opposite orders, so
//! batched locking cannot deadlock).
//!
//! The plan then computes its **destination table** once: one
//! [`Destination`] row per machine the commit talks to, holding the groups
//! that machine is primary for, the groups it backs up, and the ops and
//! wire bytes of its LOCK, COMMIT-PRIMARY and COMMIT-BACKUP messages. Every
//! phase, the backup redo records and the COMMIT-PRIMARY installs read this
//! one table, so their accounting cannot drift apart and no phase rebuilds it.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use bytes::Bytes;
use farm_memory::{Addr, Region, RegionId};
use farm_net::NodeId;

use crate::engine::NodeEngine;
use crate::error::AbortReason;

/// What a committing transaction intends to do to one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IntentKind {
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
pub(crate) struct WriteIntent {
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
    fn wire_bytes(&self) -> usize {
        64 + self.data.len()
    }
}

/// All intents of one transaction that land in one region — and therefore at
/// one primary and one set of backups.
pub(crate) struct RegionGroup {
    /// The region every intent in this group belongs to.
    pub region: RegionId,
    /// The region's primary machine.
    pub primary: NodeId,
    /// The region's backup machines (may be empty), shared with the
    /// cluster's placement.
    pub backups: Arc<[NodeId]>,
    /// The primary's replica of the region.
    pub region_handle: Arc<Region>,
    /// This group's run of the plan's intents, ascending by address.
    intents: Range<usize>,
    /// This group's run of the plan's lock entries.
    locks: Range<usize>,
}

/// One row of the destination table: everything one machine receives from
/// this commit. Rows are ascending by node id; a machine appears once
/// whatever mix of roles it plays.
pub(crate) struct Destination {
    /// The destination machine.
    pub node: NodeId,
    /// The groups this machine is primary for: a run of the plan's group
    /// lists, ascending.
    primary_groups: Range<usize>,
    /// The groups this machine backs up: a run of the plan's group lists,
    /// ascending.
    backup_groups: Range<usize>,
    /// Lockable objects its LOCK message carries (0: no LOCK message).
    pub lock_ops: u64,
    /// Wire bytes of its LOCK message.
    pub lock_bytes: usize,
    /// Objects its COMMIT-PRIMARY message installs (0: not a primary).
    pub install_ops: u64,
    /// Wire bytes of its COMMIT-PRIMARY message.
    pub install_bytes: usize,
    /// Objects its COMMIT-BACKUP record carries (0: not a backup).
    pub backup_ops: u64,
    /// Wire bytes of its COMMIT-BACKUP record.
    pub backup_bytes: usize,
}

/// The full commit plan of one transaction.
pub(crate) struct CommitPlan {
    /// The cluster's configuration epoch, read before routing was
    /// resolved: the commit is decided only if it is still current.
    pub epoch: u64,
    /// Every intent, ascending by address.
    intents: Vec<WriteIntent>,
    /// `(addr, expected_ts)` of every lockable intent, ascending by
    /// address: the LOCK batches, each group's a contiguous run.
    lock_entries: Vec<(Addr, u64)>,
    /// Per-region intent groups, ascending by region id (== ascending global
    /// address order).
    pub groups: Vec<RegionGroup>,
    /// The destination table, ascending by node id.
    dests: Vec<Destination>,
    /// Group indices, one run per destination role (see [`Destination`]).
    group_lists: Vec<usize>,
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
        frees.sort_unstable();
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
        cancelled_allocs.sort_unstable();

        // Ascending addresses are ascending regions, so each region's
        // intents form one run: split the runs into groups, resolving each
        // group's routing (primary, backups, the primary's replica, slab
        // size classes) once, here. The epoch, the drain check and every
        // group's routing come from one cluster view, so a reconfiguration
        // that removes a node from any of them also changes the epoch the
        // driver fences on.
        intents.sort_unstable_by_key(|i| i.addr);
        let view = engine.cluster().view();
        let same_region = |a: &WriteIntent, b: &WriteIntent| a.addr.region == b.addr.region;
        let regions = intents.chunk_by(same_region).count();
        let lockable = intents.iter().filter(|i| i.needs_lock()).count();
        let mut groups: Vec<RegionGroup> = Vec::with_capacity(regions);
        let mut lock_entries: Vec<(Addr, u64)> = Vec::with_capacity(lockable);
        let mut start = 0;
        for run in intents.chunk_by_mut(same_region) {
            let probe = run[0].addr;
            let (assignment, region_handle) = engine
                .route_of(view, probe)
                .map_err(|_| AbortReason::RegionUnavailable(probe))?;
            let locks_start = lock_entries.len();
            for intent in run.iter_mut() {
                intent.slab_size = region_handle
                    .slab_at(intent.addr.slab)
                    .map_or(0, |s| s.object_size());
                if intent.needs_lock() {
                    lock_entries.push((intent.addr, intent.expected_ts));
                }
            }
            groups.push(RegionGroup {
                region: probe.region,
                primary: assignment.primary,
                backups: Arc::clone(&assignment.backups),
                region_handle,
                intents: start..start + run.len(),
                locks: locks_start..lock_entries.len(),
            });
            start += run.len();
        }
        let mut plan = CommitPlan {
            epoch: view.config.epoch,
            intents,
            lock_entries,
            groups,
            dests: Vec::new(),
            group_lists: Vec::new(),
            cancelled_allocs,
        };
        plan.build_destinations(engine.cluster().nodes().len());
        Ok(plan)
    }

    /// Fills the destination table of a plan whose groups are built:
    /// accumulate each machine's roles and message sizes (one row slot per
    /// cluster machine, then the untouched ones dropped — already ascending
    /// by node id), then lay the per-role group lists out in one vector.
    fn build_destinations(&mut self, machines: usize) {
        if self.groups.is_empty() {
            return;
        }
        let mut dests: Vec<Destination> = Vec::with_capacity(machines);
        dests.extend((0..machines).map(|n| Destination {
            node: NodeId(n as u32),
            primary_groups: 0..0,
            backup_groups: 0..0,
            lock_ops: 0,
            lock_bytes: 0,
            install_ops: 0,
            install_bytes: 0,
            backup_ops: 0,
            backup_bytes: 0,
        }));
        // Pass 1: sizes, with each role's group count parked in its
        // range's `end`.
        let mut listed = 0;
        for group in &self.groups {
            let intents = &self.intents[group.intents.clone()];
            let bytes: usize = intents.iter().map(WriteIntent::wire_bytes).sum();
            let ops = intents.len() as u64;
            let row = &mut dests[group.primary.index()];
            row.primary_groups.end += 1;
            row.install_ops += ops;
            row.install_bytes += bytes;
            for intent in intents.iter().filter(|i| i.needs_lock()) {
                row.lock_ops += 1;
                row.lock_bytes += intent.wire_bytes();
            }
            for backup in group.backups.iter() {
                let row = &mut dests[backup.index()];
                row.backup_groups.end += 1;
                row.backup_ops += ops;
                row.backup_bytes += bytes;
            }
            listed += 1 + group.backups.len();
        }
        dests.retain(|d| d.primary_groups.end + d.backup_groups.end > 0);
        // Pass 2: turn the counts into empty runs of `group_lists`...
        let mut offset = 0;
        for row in &mut dests {
            let (primaries, backups) = (row.primary_groups.end, row.backup_groups.end);
            row.primary_groups = offset..offset;
            row.backup_groups = offset + primaries..offset + primaries;
            offset += primaries + backups;
        }
        // ...and fill them in ascending group order.
        let mut group_lists = vec![0; listed];
        for (gi, group) in self.groups.iter().enumerate() {
            let row = Self::row_mut(&mut dests, group.primary);
            group_lists[row.primary_groups.end] = gi;
            row.primary_groups.end += 1;
            for &backup in group.backups.iter() {
                let row = Self::row_mut(&mut dests, backup);
                group_lists[row.backup_groups.end] = gi;
                row.backup_groups.end += 1;
            }
        }
        self.dests = dests;
        self.group_lists = group_lists;
    }

    fn row_mut(dests: &mut [Destination], node: NodeId) -> &mut Destination {
        let at = dests
            .binary_search_by_key(&node, |d| d.node)
            .expect("every routed node has a row");
        &mut dests[at]
    }

    /// The destination table, ascending by node id.
    pub fn dest_table(&self) -> &[Destination] {
        &self.dests
    }

    /// Indices of the groups `dest` is primary for, ascending.
    pub fn primary_groups(&self, dest: &Destination) -> &[usize] {
        &self.group_lists[dest.primary_groups.clone()]
    }

    /// Indices of the groups `dest` backs up, ascending.
    pub fn backup_groups(&self, dest: &Destination) -> &[usize] {
        &self.group_lists[dest.backup_groups.clone()]
    }

    /// Every intent, ascending by address.
    pub fn intents(&self) -> &[WriteIntent] {
        &self.intents
    }

    /// The indices (into [`CommitPlan::intents`]) of group `gi`'s intents.
    pub fn intent_range(&self, gi: usize) -> Range<usize> {
        self.groups[gi].intents.clone()
    }

    /// Group `gi`'s intents, ascending by address.
    pub fn group_intents(&self, gi: usize) -> &[WriteIntent] {
        &self.intents[self.intent_range(gi)]
    }

    /// Group `gi`'s LOCK batch: `(addr, expected_ts)` of its lockable
    /// intents, ascending by address.
    pub fn lock_entries(&self, gi: usize) -> &[(Addr, u64)] {
        &self.lock_entries[self.groups[gi].locks.clone()]
    }

    /// Whether this plan writes, frees or allocates `addr` (used to exclude
    /// written reads from validation): a binary search of the sorted
    /// intents.
    pub fn touches(&self, addr: Addr) -> bool {
        self.intents.binary_search_by_key(&addr, |i| i.addr).is_ok()
    }

    /// The global lock-acquisition order: every lockable address, ascending.
    /// Identical for every coordinator regardless of the order in which the
    /// application issued its writes and frees.
    #[cfg(test)]
    fn lock_order(&self) -> Vec<Addr> {
        self.lock_entries.iter().map(|&(addr, _)| addr).collect()
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
        let dests = plan.dest_table();
        let total_ops: u64 = dests.iter().map(|d| d.lock_ops).sum();
        assert_eq!(total_ops as usize, addrs.len());
        // Each destination appears exactly once, ascending.
        assert!(dests.windows(2).all(|w| w[0].node < w[1].node));
        let replicas = 1 + plan.groups[0].backups.len() as u64;
        for d in dests {
            assert_eq!(d.lock_bytes, d.lock_ops as usize * (64 + 4));
            assert_eq!(d.install_bytes, d.install_ops as usize * (64 + 4));
            assert_eq!(d.backup_bytes, d.backup_ops as usize * (64 + 4));
            // Each row's group lists name exactly the groups of its roles.
            let primary: Vec<usize> = (0..plan.groups.len())
                .filter(|&gi| plan.groups[gi].primary == d.node)
                .collect();
            assert_eq!(plan.primary_groups(d), primary);
            let backed: Vec<usize> = (0..plan.groups.len())
                .filter(|&gi| plan.groups[gi].backups.contains(&d.node))
                .collect();
            assert_eq!(plan.backup_groups(d), backed);
            let ops = |gis: &[usize]| -> u64 {
                gis.iter()
                    .map(|&gi| plan.group_intents(gi).len() as u64)
                    .sum()
            };
            assert_eq!(d.install_ops, ops(&primary));
            assert_eq!(d.backup_ops, ops(&backed));
        }
        // Every object is installed once and backed up by every backup.
        let installs: u64 = dests.iter().map(|d| d.install_ops).sum();
        let backups: u64 = dests.iter().map(|d| d.backup_ops).sum();
        assert_eq!(installs as usize, addrs.len());
        assert_eq!(backups, installs * (replicas - 1));
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
