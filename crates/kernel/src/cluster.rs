//! Cluster assembly, lease-driven control loop, reconfiguration and clock
//! failover.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use farm_clock::{ClockConfig, DriftClock, MonotonicClock, NodeClock, SharedClock, SyncSample};
use farm_memory::{OldVersionStore, RegionConfig, RegionId, RegionStore};
use farm_net::{FaultPlane, NetStats, NodeId, Verb};
use parking_lot::{Mutex, RwLock};

use crate::config::{ConfigRecord, ConfigStore};
use crate::events::{EventKind, EventLog};
use crate::node::NodeHandle;
use crate::placement::Placement;

/// Hooks with which the transaction engine reacts to control-plane events.
pub trait RecoveryHooks: Send + Sync {
    /// A backup of `region` on `new_primary` was promoted to primary; the
    /// engine should rebuild primary-only state (allocator bitmaps were
    /// already rebuilt) and recover locks from untruncated logs.
    fn on_region_promoted(&self, region: RegionId, new_primary: NodeId) {
        let _ = (region, new_primary);
    }

    /// A new configuration was committed.
    fn on_config_committed(&self, config: &ConfigRecord) {
        let _ = config;
    }

    /// Background re-replication finished its state copy of `region` onto
    /// `new_backup`; the engine should catch the new backup up from any
    /// untruncated redo-log records (commits that raced the copy).
    fn on_backup_rereplicated(&self, region: RegionId, new_backup: NodeId) {
        let _ = (region, new_backup);
    }
}

/// A no-op hook implementation.
pub struct NoHooks;
impl RecoveryHooks for NoHooks {}

/// Cluster-wide configuration knobs. The defaults are scaled-down versions of
/// the paper's deployment parameters; benchmarks and tests override the
/// knobs they need.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Number of machines.
    pub nodes: usize,
    /// Replication factor (primary + backups); the paper evaluates 3-way.
    pub replication: usize,
    /// Regions whose primary lives on each machine.
    pub regions_per_node: usize,
    /// Interval between control rounds (lease renewal + clock sync).
    pub control_interval: Duration,
    /// Lease expiry: a machine silent for this long is suspected.
    pub lease_expiry: Duration,
    /// Clock subsystem configuration.
    pub clock: ClockConfig,
    /// Region / slab sizing.
    pub region: RegionConfig,
    /// Old-version block size in bytes.
    pub old_version_block_bytes: usize,
    /// Old-version memory budget per machine in bytes.
    pub old_version_max_bytes: usize,
    /// Maximum per-node clock offset applied at startup (deterministic
    /// spread), in nanoseconds.
    pub max_clock_offset_ns: u64,
    /// Maximum per-node drift magnitude applied at startup (deterministic
    /// spread), in ppm. Must be below the drift bound in `clock`.
    pub max_drift_ppm: i32,
    /// Pace of background re-replication: delay inserted between copying
    /// consecutive regions (the paper paces re-replication to protect
    /// foreground work).
    pub rereplication_pace: Duration,
    /// Whether to run the background control thread. Tests that want to
    /// drive control rounds manually set this to `false`.
    pub auto_control: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 3,
            replication: 3,
            regions_per_node: 2,
            control_interval: Duration::from_micros(500),
            lease_expiry: Duration::from_millis(10),
            clock: ClockConfig::default(),
            region: RegionConfig::default(),
            old_version_block_bytes: 64 * 1024,
            old_version_max_bytes: 64 * 1024 * 1024,
            max_clock_offset_ns: 1_000_000,
            max_drift_ppm: 100,
            rereplication_pace: Duration::from_millis(20),
            auto_control: true,
        }
    }
}

impl ClusterConfig {
    /// A small configuration convenient for unit tests: no background control
    /// thread, tiny regions.
    pub fn test(nodes: usize) -> Self {
        ClusterConfig {
            nodes,
            replication: nodes.min(3),
            regions_per_node: 1,
            region: RegionConfig::small(),
            old_version_block_bytes: 4 * 1024,
            old_version_max_bytes: 1024 * 1024,
            rereplication_pace: Duration::from_millis(0),
            auto_control: false,
            ..Default::default()
        }
    }
}

struct CmLeaseState {
    /// Last lease renewal seen from each member.
    last_seen: Vec<Instant>,
    /// Latest `OAT_local` reported by each member.
    oat_local: Vec<u64>,
    /// Latest `GC_local` reported by each member.
    gc_local: Vec<u64>,
}

/// The assembled cluster: all machines plus the control plane.
pub struct Cluster {
    cfg: ClusterConfig,
    nodes: Vec<Arc<NodeHandle>>,
    faults: Arc<FaultPlane>,
    config_store: Arc<ConfigStore>,
    placement: RwLock<Placement>,
    /// Regions currently draining for a reconfiguration: new transactions on
    /// them are rejected (retryably) until promotions and log replays finish.
    blocked_regions: RwLock<HashSet<RegionId>>,
    /// O(1) emptiness check so the hot `is_region_blocked` path costs one
    /// atomic load while no reconfiguration is running.
    blocked_count: AtomicUsize,
    events: EventLog,
    hooks: RwLock<Arc<dyn RecoveryHooks>>,
    cm_lease: Mutex<CmLeaseState>,
    /// Last successful lease response observed by each non-CM.
    last_cm_response: Mutex<Vec<Instant>>,
    reconfig_lock: Mutex<()>,
    stop: Arc<AtomicBool>,
    control_thread: Mutex<Option<JoinHandle<()>>>,
    rereplication_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Cluster {
    /// Builds and starts a cluster. Node 0 is the initial configuration
    /// manager and clock master. All clocks are synchronized once before this
    /// returns, so timestamps can be acquired immediately.
    pub fn start(cfg: ClusterConfig) -> Arc<Cluster> {
        assert!(cfg.nodes >= 1);
        assert!(cfg.replication >= 1 && cfg.replication <= cfg.nodes);
        assert!(cfg.max_drift_ppm >= 0 && (cfg.max_drift_ppm as u32) < cfg.clock.drift_bound_ppm);
        let base: SharedClock = Arc::new(MonotonicClock::new());
        let node_ids: Vec<NodeId> = (0..cfg.nodes as u32).map(NodeId).collect();
        let faults = Arc::new(FaultPlane::new());
        let mut nodes = Vec::with_capacity(cfg.nodes);
        for (i, &id) in node_ids.iter().enumerate() {
            // Deterministic spread of offsets and drift so different machines
            // really do have different clocks, without needing an RNG.
            let offset = (i as u64 * 7_919) % (cfg.max_clock_offset_ns.max(1));
            let drift = if cfg.max_drift_ppm == 0 {
                0
            } else {
                let span = 2 * cfg.max_drift_ppm + 1;
                ((i as i32 * 37) % span) - cfg.max_drift_ppm
            };
            let local: SharedClock = Arc::new(DriftClock::new(Arc::clone(&base), offset, drift));
            let clock = if i == 0 {
                Arc::new(NodeClock::new_master(local, cfg.clock))
            } else {
                Arc::new(NodeClock::new_slave(local, cfg.clock))
            };
            let handle = NodeHandle::new(
                id,
                clock,
                Arc::new(RegionStore::new(cfg.region)),
                Arc::new(OldVersionStore::new(
                    cfg.old_version_block_bytes,
                    cfg.old_version_max_bytes,
                )),
                Arc::new(NetStats::default()),
            );
            nodes.push(Arc::new(handle));
        }
        let placement = Placement::initial(&node_ids, cfg.regions_per_node, cfg.replication);
        let config_store = Arc::new(ConfigStore::new(node_ids.clone(), NodeId(0)));
        let now = Instant::now();
        let cluster = Arc::new(Cluster {
            cm_lease: Mutex::new(CmLeaseState {
                last_seen: vec![now; cfg.nodes],
                oat_local: vec![0; cfg.nodes],
                gc_local: vec![0; cfg.nodes],
            }),
            last_cm_response: Mutex::new(vec![now; cfg.nodes]),
            nodes,
            faults,
            config_store,
            placement: RwLock::new(placement),
            blocked_regions: RwLock::new(HashSet::new()),
            blocked_count: AtomicUsize::new(0),
            events: EventLog::new(),
            hooks: RwLock::new(Arc::new(NoHooks)),
            reconfig_lock: Mutex::new(()),
            stop: Arc::new(AtomicBool::new(false)),
            control_thread: Mutex::new(None),
            rereplication_threads: Mutex::new(Vec::new()),
            cfg,
        });
        // Synchronize every non-CM once so clocks are enabled before use.
        for _ in 0..2 {
            cluster.control_round();
        }
        if cluster.cfg.auto_control {
            let c = Arc::clone(&cluster);
            let stop = Arc::clone(&cluster.stop);
            let interval = cluster.cfg.control_interval;
            let handle = std::thread::Builder::new()
                .name("farm-control".into())
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        c.control_round();
                        std::thread::sleep(interval);
                    }
                })
                .expect("spawn control thread");
            *cluster.control_thread.lock() = Some(handle);
        }
        cluster
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The machine with the given id.
    pub fn node(&self, id: NodeId) -> &Arc<NodeHandle> {
        &self.nodes[id.index()]
    }

    /// All machines (dead ones included).
    pub fn nodes(&self) -> &[Arc<NodeHandle>] {
        &self.nodes
    }

    /// The fault-injection plane.
    pub fn faults(&self) -> &Arc<FaultPlane> {
        &self.faults
    }

    /// The event log (availability experiments).
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// The current configuration record.
    pub fn current_config(&self) -> ConfigRecord {
        self.config_store.read()
    }

    /// A snapshot of the current placement.
    pub fn placement(&self) -> Placement {
        self.placement.read().clone()
    }

    /// All region ids.
    pub fn regions(&self) -> Vec<RegionId> {
        self.placement.read().regions()
    }

    /// The current primary of a region, if the region exists.
    pub fn primary_of(&self, region: RegionId) -> Option<NodeId> {
        self.placement.read().assignment(region).map(|a| a.primary)
    }

    /// The current replica set of a region.
    pub fn replicas_of(&self, region: RegionId) -> Vec<NodeId> {
        self.placement
            .read()
            .assignment(region)
            .map(|a| a.replicas())
            .unwrap_or_default()
    }

    /// Regions whose primary is currently `node`.
    pub fn primaries_on(&self, node: NodeId) -> Vec<RegionId> {
        self.placement.read().primaries_of(node)
    }

    /// Registers the transaction engine's recovery hooks.
    pub fn set_recovery_hooks(&self, hooks: Arc<dyn RecoveryHooks>) {
        *self.hooks.write() = hooks;
    }

    /// Kills a machine: its process stops, its leases stop renewing, and the
    /// failure detector will eventually trigger reconfiguration. Returns
    /// immediately.
    ///
    /// The node handle's liveness flag flips under the fault plane's write
    /// lock, so the two views can never diverge: any observer that sees the
    /// node killed on the fault plane also sees
    /// [`NodeHandle::is_alive`] report `false`.
    pub fn kill(&self, node: NodeId) {
        let handle = &self.nodes[node.index()];
        self.faults.kill_with(node, || handle.mark_dead());
    }

    /// Whether `region` is currently blocked by an in-progress
    /// reconfiguration (drain barrier). One atomic load when no
    /// reconfiguration is running.
    pub fn is_region_blocked(&self, region: RegionId) -> bool {
        if self.blocked_count.load(Ordering::Acquire) == 0 {
            return false;
        }
        self.blocked_regions.read().contains(&region)
    }

    /// Blocks new transactions on `regions` for the duration of a
    /// reconfiguration.
    fn block_regions(&self, regions: &[RegionId]) {
        if regions.is_empty() {
            return;
        }
        let mut blocked = self.blocked_regions.write();
        for r in regions {
            blocked.insert(*r);
        }
        self.blocked_count.store(blocked.len(), Ordering::Release);
        self.events.record(EventKind::RegionsBlocked {
            count: blocked.len(),
        });
    }

    /// Lifts the drain barrier (all blocked regions at once: promotions and
    /// their log replays have finished by the time this runs).
    fn unblock_all_regions(&self) {
        let mut blocked = self.blocked_regions.write();
        if blocked.is_empty() {
            return;
        }
        let count = blocked.len();
        blocked.clear();
        self.blocked_count.store(0, Ordering::Release);
        self.events.record(EventKind::RegionsUnblocked { count });
    }

    /// Stops the control thread and any background re-replication.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.control_thread.lock().take() {
            let _ = h.join();
        }
        for h in self.rereplication_threads.lock().drain(..) {
            let _ = h.join();
        }
    }

    // ------------------------------------------------------------------
    // Control rounds: lease renewal, clock sync, OAT/GC propagation,
    // failure detection.
    // ------------------------------------------------------------------

    /// Performs one control round on behalf of every live machine. Normally
    /// invoked by the background control thread; tests may call it directly.
    pub fn control_round(&self) {
        let config = self.config_store.read();
        let cm = config.cm;
        // Non-CM duties first: lease renewal (carrying OAT/GC and clock
        // sync). Doing renewals before the expiry check means a live member
        // is never suspected merely because the previous control round was a
        // while ago.
        for &member in &config.members {
            if member == cm || !self.nodes[member.index()].is_alive() {
                continue;
            }
            let ok = self.lease_exchange(member, cm);
            if !ok {
                let elapsed = {
                    let last = self.last_cm_response.lock();
                    Instant::now().duration_since(last[member.index()])
                };
                if elapsed > self.cfg.lease_expiry {
                    // Only cut the round short if the eviction actually
                    // committed a new configuration; a declined attempt (a
                    // partitioned minority member suspecting the CM it
                    // cannot reach) must not starve the CM-side expiry
                    // detection below.
                    if self.initiate_reconfiguration(member, &[cm]) {
                        return;
                    }
                }
            }
        }
        // CM-side duties: update its own OAT entries and detect expired
        // leases.
        let now = Instant::now();
        if self.nodes[cm.index()].is_alive() {
            {
                let mut lease = self.cm_lease.lock();
                lease.oat_local[cm.index()] = self.nodes[cm.index()].oat_local();
                lease.gc_local[cm.index()] = self.nodes[cm.index()].gc_local();
                lease.last_seen[cm.index()] = now;
            }
            let expired: Vec<NodeId> = {
                let lease = self.cm_lease.lock();
                config
                    .members
                    .iter()
                    .copied()
                    .filter(|m| *m != cm)
                    .filter(|m| {
                        now.duration_since(lease.last_seen[m.index()]) > self.cfg.lease_expiry
                    })
                    .collect()
            };
            if !expired.is_empty() {
                self.initiate_reconfiguration(cm, &expired);
            }
        }
    }

    /// One lease renewal from `member` to `cm`: the 3-way handshake carrying
    /// clock synchronization and OAT/GC propagation. Returns whether the
    /// exchange succeeded.
    fn lease_exchange(&self, member: NodeId, cm: NodeId) -> bool {
        if !self.faults.reachable(member, cm) || !self.nodes[cm.index()].is_alive() {
            return false;
        }
        let member_node = &self.nodes[member.index()];
        let cm_node = &self.nodes[cm.index()];
        // Request: member -> CM, carrying OAT_local and GC_local.
        member_node.stats().record(Verb::Rpc, 64);
        let oat_local = member_node.oat_local();
        let gc_local_of_member = member_node.gc_local();
        let (oat_cm, gc_cm) = {
            let mut lease = self.cm_lease.lock();
            lease.last_seen[member.index()] = Instant::now();
            lease.oat_local[member.index()] = oat_local;
            lease.gc_local[member.index()] = gc_local_of_member;
            let config = self.config_store.read();
            let live: Vec<usize> = config
                .members
                .iter()
                .filter(|m| self.nodes[m.index()].is_alive())
                .map(|m| m.index())
                .collect();
            let oat_cm = live.iter().map(|&i| lease.oat_local[i]).min().unwrap_or(0);
            let gc_cm = live.iter().map(|&i| lease.gc_local[i]).min().unwrap_or(0);
            (oat_cm, gc_cm)
        };
        // Clock synchronization piggybacked on the lease exchange.
        let t_send = member_node.clock().local_clock().now_ns();
        let master_time = cm_node.clock().serve_master_time();
        let t_recv = member_node.clock().local_clock().now_ns();
        // Response: CM -> member.
        cm_node.stats().record(Verb::Rpc, 64);
        member_node.note_oat_cm(oat_cm);
        member_node.note_gc(gc_cm);
        // The CM learns the global values too (its own lease with itself).
        self.nodes[cm.index()].note_oat_cm(oat_cm);
        self.nodes[cm.index()].note_gc(gc_cm);
        if let Ok(t_cm) = master_time {
            member_node.clock().record_sync(SyncSample {
                t_send,
                t_cm,
                t_recv,
            });
        }
        let mut last = self.last_cm_response.lock();
        last[member.index()] = Instant::now();
        true
    }

    // ------------------------------------------------------------------
    // Reconfiguration and clock failover (Figure 6).
    // ------------------------------------------------------------------

    /// Initiates a reconfiguration removing `suspected` nodes, with
    /// `initiator` becoming the new CM if the old CM is among the removed.
    /// Returns whether a new configuration was committed — `false` when the
    /// attempt was declined (no quorum, nothing failed, lost the CAS race,
    /// or another reconfiguration already in progress).
    pub fn initiate_reconfiguration(&self, initiator: NodeId, suspected: &[NodeId]) -> bool {
        let _guard = match self.reconfig_lock.try_lock() {
            Some(g) => g,
            None => return false, // another reconfiguration is already in progress
        };
        let config = self.config_store.read();
        // Precise membership: a new configuration can only be committed by a
        // node that can reach a majority of the current one (the paper's
        // reconfiguration protocol collects acks from a majority before the
        // new configuration takes effect). Without this check, a
        // minority-partitioned node — whose own lease exchanges with the CM
        // are failing — would "suspect" the healthy majority and evict it.
        let reachable = config
            .members
            .iter()
            .filter(|&&m| {
                m == initiator
                    || (self.nodes[m.index()].is_alive() && self.faults.reachable(initiator, m))
            })
            .count();
        if reachable * 2 <= config.members.len() {
            return false;
        }
        let mut failed: Vec<NodeId> = suspected
            .iter()
            .copied()
            .filter(|n| config.contains(*n))
            .collect();
        // Also sweep in any other node that is already known dead.
        for &m in &config.members {
            if !self.nodes[m.index()].is_alive() && !failed.contains(&m) {
                failed.push(m);
            }
        }
        if failed.is_empty() {
            return false;
        }
        for &f in &failed {
            self.events.record(EventKind::Suspected(f));
            let handle = &self.nodes[f.index()];
            self.faults.kill_with(f, || handle.mark_dead());
        }
        // Drain barrier: block new transactions on every region the failed
        // nodes participate in. The barrier lifts (via the guard, so every
        // exit path unblocks) once promotions and their log replays are
        // done; in-flight transactions against a dead primary abort
        // retryably in the meantime.
        let affected: Vec<RegionId> = {
            let placement = self.placement.read();
            placement
                .regions()
                .into_iter()
                .filter(|r| {
                    placement
                        .assignment(*r)
                        .is_some_and(|a| failed.iter().any(|f| a.involves(*f)))
                })
                .collect()
        };
        self.block_regions(&affected);
        struct UnblockGuard<'a>(&'a Cluster);
        impl Drop for UnblockGuard<'_> {
            fn drop(&mut self) {
                self.0.unblock_all_regions();
            }
        }
        let unblock = UnblockGuard(self);
        let new_members: Vec<NodeId> = config
            .members
            .iter()
            .copied()
            .filter(|m| !failed.contains(m))
            .collect();
        if new_members.is_empty() {
            return false;
        }
        let cm_failed = failed.contains(&config.cm);
        let new_cm = if cm_failed { initiator } else { config.cm };
        let new_config =
            match self
                .config_store
                .compare_and_swap(config.epoch, new_members.clone(), new_cm)
            {
                Ok(c) => c,
                Err(_) => return false, // lost the race; the winner handles recovery
            };

        if cm_failed {
            self.clock_failover(&new_config, config.cm, &failed);
        }
        // Leases restart with the new configuration: every member is granted
        // a fresh lease so the new CM does not immediately suspect survivors
        // whose renewals were delayed by the reconfiguration itself.
        {
            let now = Instant::now();
            let mut lease = self.cm_lease.lock();
            for t in lease.last_seen.iter_mut() {
                *t = now;
            }
            let mut last = self.last_cm_response.lock();
            for t in last.iter_mut() {
                *t = now;
            }
        }
        self.events.record(EventKind::ConfigCommitted {
            epoch: new_config.epoch,
            cm: new_config.cm,
        });
        self.hooks.read().on_config_committed(&new_config);

        // Placement updates: promote backups for regions that lost their
        // primary, then restore redundancy in the background.
        let mut promotions = Vec::new();
        {
            let mut placement = self.placement.write();
            for &f in &failed {
                promotions.extend(placement.remove_node(f));
            }
        }
        for (region, new_primary) in &promotions {
            // The new primary rebuilds allocator state by scanning headers.
            if let Some(replica) = self.nodes[new_primary.index()].regions().get(*region) {
                replica.rebuild_allocation_state();
            }
            self.events.record(EventKind::RegionPromoted {
                region: *region,
                new_primary: *new_primary,
            });
            self.hooks.read().on_region_promoted(*region, *new_primary);
        }
        // Promotions (and their redo-log replays, run by the hook above) are
        // complete: lift the drain barrier before the paced background
        // re-replication starts, so availability is restored as soon as
        // every affected region has a live primary again.
        drop(unblock);
        self.spawn_rereplication(new_config);
        true
    }

    /// The clock failover protocol of Figure 6, run by the new CM after
    /// `old_cm` (one of the `failed` nodes) lost its role.
    fn clock_failover(&self, new_config: &ConfigRecord, old_cm: NodeId, failed: &[NodeId]) {
        let new_cm = new_config.cm;
        let cm_node = &self.nodes[new_cm.index()];
        // DISABLE CLOCK on the new CM.
        self.events.record(EventKind::ClockDisabled);
        cm_node.clock().disable();
        let mut ff = cm_node.clock().update_ff_from_time();
        // NEW-CONFIG to all non-CMs: disable clocks, collect FF.
        for &m in &new_config.members {
            if m == new_cm {
                continue;
            }
            if self.faults.reachable(new_cm, m) && self.nodes[m.index()].is_alive() {
                cm_node.stats().record(Verb::Rpc, 64);
                let node = &self.nodes[m.index()];
                node.clock().disable();
                let node_ff = node.clock().update_ff_from_time();
                ff = ff.max(node_ff);
                self.nodes[m.index()].stats().record(Verb::Rpc, 64);
            }
        }
        // LEASE EXPIRY WAIT: only needed if a non-CM failed too (the old CM's
        // lease has certainly expired if only the CM failed).
        if failed.iter().any(|&f| f != old_cm) {
            std::thread::sleep(self.cfg.lease_expiry);
        }
        // Advance FF once more with the CM's own time after the wait.
        ff = ff.max(cm_node.clock().update_ff_from_time());
        // ADVANCE: propagate FF so time moves forward even if the new CM
        // fails right after enabling its clock.
        for &m in &new_config.members {
            if m == new_cm {
                continue;
            }
            if self.faults.reachable(new_cm, m) && self.nodes[m.index()].is_alive() {
                cm_node.stats().record(Verb::Rpc, 64);
                self.nodes[m.index()].clock().raise_ff(ff);
                // Non-CMs drop all previous synchronization state and wait
                // for their first sync against the new master.
                self.nodes[m.index()].clock().become_slave();
            }
        }
        // ENABLE CLOCK at [FF, FF] on the new CM.
        cm_node.clock().become_master_at(ff);
        cm_node.clock().enable();
        self.events.record(EventKind::ClockEnabled { ff });
        // Survivors sync with the new master now, not a control round later:
        // a survivor killed before its first sync never re-enables, and every
        // thread waiting on its clock would stay blocked for good.
        for &m in &new_config.members {
            if m != new_cm {
                self.lease_exchange(m, new_cm);
            }
        }
    }

    /// Spawns paced background re-replication restoring the replication
    /// factor of under-replicated regions.
    fn spawn_rereplication(&self, config: ConfigRecord) {
        let under: Vec<(RegionId, usize)> =
            self.placement.read().under_replicated(self.cfg.replication);
        if under.is_empty() {
            self.events.record(EventKind::RereplicationComplete);
            return;
        }
        let nodes = self.nodes.clone();
        let events = self.events.clone();
        let pace = self.cfg.rereplication_pace;
        // The placement metadata is updated inline (it is cheap); only the
        // data copy — the part the paper paces to protect foreground work —
        // runs on the background thread.
        let mut new_backups: Vec<(RegionId, NodeId)> = Vec::new();
        {
            let mut placement = self.placement.write();
            for (region, _count) in &under {
                let assignment = match placement.assignment(*region) {
                    Some(a) => a.clone(),
                    None => continue,
                };
                // Pick the first live member not already holding a replica.
                let candidate = config
                    .members
                    .iter()
                    .copied()
                    .find(|m| self.nodes[m.index()].is_alive() && !assignment.involves(*m));
                if let Some(backup) = candidate {
                    placement.add_backup(*region, backup);
                    new_backups.push((*region, backup));
                }
            }
        }
        if new_backups.is_empty() {
            self.events.record(EventKind::RereplicationComplete);
            return;
        }
        let placement_snapshot = self.placement.read().clone();
        let hooks = Arc::clone(&*self.hooks.read());
        let handle = std::thread::Builder::new()
            .name("farm-rereplication".into())
            .spawn(move || {
                for (region, backup) in new_backups {
                    // Paced copy: clone every allocated object from the
                    // current primary replica into the new backup replica.
                    std::thread::sleep(pace);
                    if let Some(assignment) = placement_snapshot.assignment(region) {
                        let primary = assignment.primary;
                        let src = nodes[primary.index()].regions().ensure(region);
                        let dst = nodes[backup.index()].regions().ensure(region);
                        let slab_count = src.slab_count() as u16;
                        let mut bytes_copied = 0usize;
                        for slab_idx in 0..slab_count {
                            // A placeholder (a slab index the source never
                            // heard a record for) has nothing to copy.
                            if let Some(slab) = src.slab(slab_idx).filter(|s| !s.is_placeholder()) {
                                let dst_slab = dst.ensure_slab(slab_idx, slab.object_size());
                                for slot_idx in 0..slab.capacity() as u32 {
                                    if let (Some(s), Some(d)) =
                                        (slab.get(slot_idx), dst_slab.get(slot_idx))
                                    {
                                        let h = s.header_snapshot();
                                        if h.allocated {
                                            let data = s.raw_data();
                                            bytes_copied += data.len() + 16;
                                            d.initialize(h.ts, data);
                                        }
                                    }
                                }
                            }
                        }
                        // The copy travels as bulk one-sided writes from the
                        // current primary to the new backup.
                        if bytes_copied > 0 {
                            nodes[primary.index()]
                                .stats()
                                .record(Verb::RdmaWrite, bytes_copied);
                        }
                        // Bring the new backup's allocator metadata in line
                        // with the copied headers.
                        dst.rebuild_allocation_state();
                        // Log catch-up: commits that early-acked against the
                        // old replica set while the copy was running live
                        // only in the untruncated redo logs — the engine
                        // replays them onto the new backup.
                        hooks.on_backup_rereplicated(region, backup);
                    }
                    events.record(EventKind::Rereplicated {
                        region,
                        new_backup: backup,
                    });
                }
                events.record(EventKind::RereplicationComplete);
            })
            .expect("spawn re-replication thread");
        self.rereplication_threads.lock().push(handle);
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.control_thread.lock().take() {
            let _ = h.join();
        }
        for h in self.rereplication_threads.lock().drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farm_clock::TsMode;

    #[test]
    fn start_enables_all_clocks() {
        let cluster = Cluster::start(ClusterConfig::test(3));
        for node in cluster.nodes() {
            assert!(
                node.clock().is_enabled(),
                "clock of {:?} not enabled",
                node.id()
            );
            let (ts, _) = node.clock().get_ts(TsMode::NonStrictRead);
            assert!(ts.as_nanos() > 0);
        }
        assert_eq!(cluster.current_config().epoch, 1);
        assert_eq!(cluster.current_config().cm, NodeId(0));
    }

    #[test]
    fn placement_covers_all_nodes() {
        let cluster = Cluster::start(ClusterConfig::test(4));
        assert_eq!(cluster.regions().len(), 4);
        for region in cluster.regions() {
            let replicas = cluster.replicas_of(region);
            assert_eq!(replicas.len(), 3);
        }
        assert_eq!(cluster.primaries_on(NodeId(2)).len(), 1);
    }

    #[test]
    fn oat_and_gc_propagate_through_lease_rounds() {
        let cluster = Cluster::start(ClusterConfig::test(3));
        for _ in 0..4 {
            cluster.control_round();
        }
        for node in cluster.nodes() {
            assert!(
                node.gc_local() > 0,
                "GC_local never propagated to {:?}",
                node.id()
            );
            assert!(
                node.gc_safe_point() > 0,
                "GC never propagated to {:?}",
                node.id()
            );
            // The GC safe point can never exceed OAT_local of any node.
            assert!(node.gc_safe_point() <= node.oat_local());
        }
    }

    #[test]
    fn gc_safe_point_respects_active_transactions() {
        let cluster = Cluster::start(ClusterConfig::test(3));
        // Node 1 reports an old active transaction at ts=1.
        cluster
            .node(NodeId(1))
            .set_oat_provider(Arc::new(|| Some(1)));
        for _ in 0..4 {
            cluster.control_round();
        }
        for node in cluster.nodes() {
            assert!(
                node.gc_safe_point() <= 1,
                "GC advanced past an active transaction"
            );
        }
    }

    #[test]
    fn killing_a_non_cm_triggers_reconfiguration_without_clock_disable() {
        let mut cfg = ClusterConfig::test(4);
        cfg.lease_expiry = Duration::from_millis(1);
        let cluster = Cluster::start(cfg);
        cluster.kill(NodeId(2));
        std::thread::sleep(Duration::from_millis(3));
        for _ in 0..4 {
            cluster.control_round();
        }
        let config = cluster.current_config();
        assert_eq!(config.epoch, 2);
        assert!(!config.contains(NodeId(2)));
        assert_eq!(config.cm, NodeId(0));
        // No clock failover events.
        let events = cluster.events().snapshot();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Suspected(n) if n == NodeId(2))));
        assert!(!events
            .iter()
            .any(|e| matches!(e.kind, EventKind::ClockDisabled)));
        // Clocks still enabled everywhere that survived.
        assert!(cluster.node(NodeId(0)).clock().is_enabled());
        assert!(cluster.node(NodeId(1)).clock().is_enabled());
    }

    #[test]
    fn killing_the_cm_fails_over_the_clock_master() {
        let mut cfg = ClusterConfig::test(4);
        cfg.lease_expiry = Duration::from_millis(1);
        let cluster = Cluster::start(cfg);
        // Take a timestamp before the failure to check monotonicity across
        // the failover.
        let before = cluster.node(NodeId(1)).clock().get_ts(TsMode::StrictWait).0;
        cluster.kill(NodeId(0));
        std::thread::sleep(Duration::from_millis(3));
        // No round after the one that reconfigures: the failover itself
        // must re-sync the survivors (checked below).
        for _ in 0..6 {
            if cluster.current_config().epoch > 1 {
                break;
            }
            cluster.control_round();
        }
        let config = cluster.current_config();
        assert_eq!(config.epoch, 2);
        assert!(!config.contains(NodeId(0)));
        assert_ne!(config.cm, NodeId(0));
        let events = cluster.events().snapshot();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::ClockDisabled)));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::ClockEnabled { .. })));
        // The new CM serves master time and timestamps remain monotonic.
        let new_cm = config.cm;
        assert!(cluster.node(new_cm).clock().is_master());
        let after = cluster.node(new_cm).clock().get_ts(TsMode::StrictWait).0;
        assert!(after > before, "global time went backwards across failover");
        // Survivors re-enabled after syncing with the new master.
        for &m in &config.members {
            assert!(cluster.node(m).clock().is_enabled());
        }
    }

    /// Kills `victims`, lets their leases expire and runs control rounds
    /// until the configuration epoch has advanced; returns how long the
    /// clock failover kept the clock disabled (zero when there was none).
    fn fail_and_reconfigure(cluster: &Cluster, victims: &[u32]) -> Duration {
        let epoch = cluster.current_config().epoch;
        cluster.events().clear();
        for &v in victims {
            cluster.kill(NodeId(v));
        }
        std::thread::sleep(cluster.config().lease_expiry + Duration::from_millis(5));
        for _ in 0..4 {
            cluster.control_round();
        }
        assert_eq!(cluster.current_config().epoch, epoch + 1);
        cluster
            .events()
            .span(
                |k| matches!(k, EventKind::ClockDisabled),
                |k| matches!(k, EventKind::ClockEnabled { .. }),
            )
            .unwrap_or_default()
    }

    /// Long enough to tell a lease wait from none.
    fn long_lease() -> ClusterConfig {
        ClusterConfig {
            lease_expiry: Duration::from_millis(100),
            ..ClusterConfig::test(5)
        }
    }

    #[test]
    fn a_second_cm_failure_alone_skips_the_lease_wait() {
        let cluster = Cluster::start(long_lease());
        let lease = cluster.config().lease_expiry;
        fail_and_reconfigure(&cluster, &[0]);
        let new_cm = cluster.current_config().cm;
        assert_ne!(new_cm, NodeId(0));
        // Only the current CM fails: its lease has certainly expired, so the
        // clock comes back without waiting out another one — even though
        // n0, not this CM, is the lowest-numbered node missing.
        let disabled = fail_and_reconfigure(&cluster, &[new_cm.0]);
        assert!(
            disabled > Duration::ZERO && disabled < lease,
            "clock disabled for {disabled:?} (lease {lease:?})"
        );
        assert_ne!(cluster.current_config().cm, new_cm);
    }

    #[test]
    fn cm_and_non_cm_failing_together_wait_out_the_lease() {
        let cluster = Cluster::start(long_lease());
        let lease = cluster.config().lease_expiry;
        let before = cluster.node(NodeId(1)).clock().get_ts(TsMode::StrictWait).0;
        let disabled = fail_and_reconfigure(&cluster, &[0, 2]);
        assert!(
            disabled >= lease,
            "clock disabled for {disabled:?}, shorter than the lease {lease:?}"
        );
        let config = cluster.current_config();
        assert!(!config.contains(NodeId(0)) && !config.contains(NodeId(2)));
        let after = cluster.node(config.cm).clock().get_ts(TsMode::StrictWait).0;
        assert!(after > before, "global time went backwards across failover");
        for &m in &config.members {
            assert!(cluster.node(m).clock().is_enabled(), "{m:?} not re-enabled");
        }
    }

    #[test]
    fn primary_failure_promotes_backup_and_rereplicates() {
        let mut cfg = ClusterConfig::test(4);
        cfg.lease_expiry = Duration::from_millis(1);
        let cluster = Cluster::start(cfg);
        // Region 1's primary is node 1.
        let region = RegionId(1);
        assert_eq!(cluster.primary_of(region), Some(NodeId(1)));
        // Put an object on the primary and both backups (as a commit would).
        for &replica in &cluster.replicas_of(region) {
            let r = cluster.node(replica).regions().ensure(region);
            let addr = r.allocate(64).unwrap();
            r.slot(addr)
                .unwrap()
                .initialize(7, bytes::Bytes::from_static(b"payload"));
        }
        cluster.kill(NodeId(1));
        std::thread::sleep(Duration::from_millis(3));
        for _ in 0..4 {
            cluster.control_round();
        }
        let new_primary = cluster.primary_of(region).unwrap();
        assert_ne!(new_primary, NodeId(1));
        let events = cluster.events().snapshot();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::RegionPromoted { region: r, .. } if r == region)));
        // Wait for re-replication to finish.
        let deadline = Instant::now() + Duration::from_secs(2);
        while Instant::now() < deadline {
            if cluster
                .events()
                .snapshot()
                .iter()
                .any(|e| matches!(e.kind, EventKind::RereplicationComplete))
            {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let replicas = cluster.replicas_of(region);
        assert_eq!(
            replicas.len(),
            3,
            "replication factor not restored: {replicas:?}"
        );
        assert!(!replicas.contains(&NodeId(1)));
        // The new backup received the data.
        let new_backup = *replicas.last().unwrap();
        let replica = cluster.node(new_backup).regions().ensure(region);
        let (total, free) = replica.occupancy();
        assert!(total > free, "no objects copied to the new backup");
    }

    #[test]
    fn reconfiguration_blocks_then_unblocks_affected_regions() {
        let mut cfg = ClusterConfig::test(4);
        cfg.lease_expiry = Duration::from_millis(1);
        let cluster = Cluster::start(cfg);
        cluster.kill(NodeId(1));
        std::thread::sleep(Duration::from_millis(3));
        for _ in 0..4 {
            cluster.control_round();
        }
        // The barrier is transient: raised at suspicion, lifted after the
        // promotions. Afterwards no region may remain blocked.
        for region in cluster.regions() {
            assert!(
                !cluster.is_region_blocked(region),
                "{region:?} still blocked after reconfiguration"
            );
        }
        let events = cluster.events().snapshot();
        let blocked_at = events
            .iter()
            .position(|e| matches!(e.kind, EventKind::RegionsBlocked { count } if count > 0))
            .expect("drain barrier raised");
        let unblocked_at = events
            .iter()
            .position(|e| matches!(e.kind, EventKind::RegionsUnblocked { count } if count > 0))
            .expect("drain barrier lifted");
        assert!(blocked_at < unblocked_at);
        // The barrier lifts before re-replication completes (availability is
        // restored at promotion time, not at full-redundancy time).
        let promoted_at = events
            .iter()
            .position(|e| matches!(e.kind, EventKind::RegionPromoted { .. }))
            .expect("promotion recorded");
        assert!(promoted_at < unblocked_at);
    }

    #[test]
    fn kill_is_atomic_across_fault_plane_and_node_handle() {
        let cluster = Cluster::start(ClusterConfig::test(3));
        cluster.kill(NodeId(2));
        assert!(cluster.faults().is_killed(NodeId(2)));
        assert!(!cluster.node(NodeId(2)).is_alive());
    }

    #[test]
    fn concurrent_reconfigurations_do_not_conflict() {
        let mut cfg = ClusterConfig::test(5);
        cfg.lease_expiry = Duration::from_millis(1);
        let cluster = Cluster::start(cfg);
        cluster.kill(NodeId(3));
        cluster.kill(NodeId(4));
        std::thread::sleep(Duration::from_millis(3));
        for _ in 0..6 {
            cluster.control_round();
        }
        let config = cluster.current_config();
        assert!(!config.contains(NodeId(3)));
        assert!(!config.contains(NodeId(4)));
        assert!(config.members.len() == 3);
    }

    #[test]
    fn minority_partitioned_node_cannot_evict_the_majority() {
        let cluster = Cluster::start(ClusterConfig::test(5));
        // Node 4 is cut off from everyone else. From its point of view the
        // CM's lease has expired, so it tries to evict the CM — but it can
        // only reach 1 of 5 members and must not commit a configuration.
        cluster.faults().partition(vec![(NodeId(4), 1)]);
        cluster.initiate_reconfiguration(NodeId(4), &[NodeId(0)]);
        let config = cluster.current_config();
        assert_eq!(config.epoch, 1, "minority node committed a configuration");
        assert!(config.contains(NodeId(0)));
        assert!(cluster.node(NodeId(0)).is_alive());
        assert!(cluster.node(NodeId(4)).is_alive());
        // The majority side, which can reach 4 of 5 members, evicts the
        // partitioned node as usual.
        cluster.initiate_reconfiguration(NodeId(0), &[NodeId(4)]);
        let config = cluster.current_config();
        assert_eq!(config.epoch, 2);
        assert!(!config.contains(NodeId(4)));
        assert!(!cluster.node(NodeId(4)).is_alive());
    }
}
