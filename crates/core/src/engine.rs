//! Engine assembly: the cluster-wide [`Engine`] and per-machine
//! [`NodeEngine`] handles.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use farm_kernel::{
    Cluster, ClusterView, ConfigRecord, EventKind, EventLog, NodeHandle, RecoveryHooks,
    RegionAssignment,
};
use farm_memory::{Addr, Region, RegionId};
use farm_net::{CompletionSet, DispatchMode, NodeId, OneSidedMeter, Verb};
use parking_lot::Mutex;

use crate::active::{ActiveToken, ActiveTxTable};
use crate::commit::backlog::Backlog;
use crate::error::{AbortReason, TxError};
use crate::opts::{EngineConfig, TxOptions};
use crate::stats::{EngineStats, EngineStatsSnapshot};
use crate::tx::{CommitInfo, Transaction};

// `NodeEngine::run_transaction`'s bounded exponential backoff. It rides out
// both ordinary conflicts and a full lease-expiry + reconfiguration window,
// so a machine failure shows up to the application as latency rather than
// an error. Each back-off waits on the cluster's reconfiguration
// generation: a reconfiguration lifting its drain barrier ends it early and
// restarts the next at the base; a timed-out one doubles. The generation is
// read before `begin` and re-checked under the wait's mutex, so no wake-up
// is lost.
const RETRY_MAX_ATTEMPTS: u32 = 64;
const RETRY_BASE_BACKOFF: Duration = Duration::from_micros(50);
const RETRY_MAX_BACKOFF: Duration = Duration::from_millis(5);

/// The per-machine transaction engine. Application threads whose home is this
/// machine obtain transactions here; the thread then acts as the coordinator
/// for the distributed commit, exactly as in FaRM's symmetric model.
pub struct NodeEngine {
    id: NodeId,
    cluster: Arc<Cluster>,
    handle: Arc<NodeHandle>,
    config: EngineConfig,
    pub(crate) meter: OneSidedMeter,
    /// Active local transactions: a sharded atomic slot table. `begin` and
    /// `finish` are one atomic operation each, and the OAT provider is a
    /// wait-free minimum scan — no node-global lock on the per-op path.
    pub(crate) active: Arc<ActiveTxTable>,
    next_serial: AtomicU64,
    pub(crate) stats: EngineStats,
    /// Cluster-shared commit-completion backlog (backup redo logs,
    /// truncation watermarks). See [`crate::commit::backlog`].
    backlog: Arc<Backlog>,
}

impl NodeEngine {
    fn new(
        cluster: Arc<Cluster>,
        id: NodeId,
        config: EngineConfig,
        backlog: Arc<Backlog>,
    ) -> Arc<Self> {
        let handle = Arc::clone(cluster.node(id));
        let active = Arc::new(ActiveTxTable::new());
        // Register the OAT provider: the oldest active local transaction's
        // read timestamp (Figure 9), computed by a wait-free slot scan.
        let active_for_oat = Arc::clone(&active);
        handle.set_oat_provider(Arc::new(move || active_for_oat.oat()));
        let meter = OneSidedMeter::new(Arc::clone(handle.stats()), config.latency);
        Arc::new(NodeEngine {
            id,
            cluster,
            handle,
            config,
            meter,
            active,
            next_serial: AtomicU64::new(1),
            stats: EngineStats::default(),
            backlog,
        })
    }

    /// This engine's machine id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The kernel-level handle of this machine.
    pub fn handle(&self) -> &Arc<NodeHandle> {
        &self.handle
    }

    /// The cluster this engine runs on.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// The engine configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Per-node statistics snapshot.
    pub fn stats(&self) -> EngineStatsSnapshot {
        self.stats.snapshot()
    }

    /// Whether this node is still alive (not killed by fault injection).
    pub fn is_alive(&self) -> bool {
        self.handle.is_alive()
    }

    /// Starts a transaction with default options (strict serializability).
    pub fn begin(self: &Arc<Self>) -> Transaction {
        self.begin_with(TxOptions::default())
    }

    /// Starts a transaction with explicit options.
    ///
    /// A strict transaction takes its read timestamp without waiting: the
    /// uncertainty wait runs at its first snapshot read (`read`,
    /// `read_many`, [`Transaction::read_ts`] or the commit, whichever comes
    /// first), so it overlaps whatever the caller does in between. A
    /// transaction dropped before then never waits.
    pub fn begin_with(self: &Arc<Self>, opts: TxOptions) -> Transaction {
        Transaction::start(Arc::clone(self), opts)
    }

    /// Runs `body` in a transaction, transparently retrying retryable aborts
    /// (conflicts *and* availability errors — a dead primary, a region
    /// draining for reconfiguration) with bounded exponential backoff (64
    /// attempts, 50 µs doubling to 5 ms). Machine failures surface to the
    /// caller only as latency: the loop outlasts lease expiry plus
    /// reconfiguration, by which time a promoted backup serves the affected
    /// regions again.
    ///
    /// A back-off is a wait on the cluster's reconfiguration generation
    /// ([`Cluster::wait_for_reconfiguration`]), not a plain sleep: a
    /// reconfiguration that lifts its drain barrier wakes it at once, and
    /// the back-off then restarts at its 50 µs base, because the cause is
    /// gone. A wait that times out doubles it as before, so conflict aborts
    /// keep the timer grid. No wake-up is lost: the generation is read
    /// (one Acquire load, no lock) before each attempt's `begin`, and the
    /// wait re-checks it under the mutex it rises under.
    ///
    /// `body` must be idempotent up to the transaction (it may run several
    /// times, each against a fresh snapshot). Returns the body's value and
    /// the commit info of the attempt that committed.
    pub fn run_transaction<T>(
        self: &Arc<Self>,
        opts: TxOptions,
        mut body: impl FnMut(&mut Transaction) -> Result<T, TxError>,
    ) -> Result<(T, CommitInfo), TxError> {
        let mut backoff = RETRY_BASE_BACKOFF;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let generation = self.cluster.reconfiguration_generation();
            let result = {
                let mut tx = self.begin_with(opts);
                match body(&mut tx) {
                    // Dropping an uncommitted transaction on the error path
                    // releases its registration and rolls allocations back.
                    Err(e) => Err(e),
                    Ok(value) => tx.commit().map(|info| (value, info)),
                }
            };
            match result {
                Ok(out) => return Ok(out),
                Err(e) if e.is_retryable() && attempt < RETRY_MAX_ATTEMPTS => {
                    EngineStats::bump(&self.stats.retries_absorbed);
                    backoff = if self.cluster.wait_for_reconfiguration(generation, backoff) {
                        RETRY_BASE_BACKOFF
                    } else {
                        (backoff * 2).min(RETRY_MAX_BACKOFF)
                    };
                }
                Err(e) => return Err(e),
            }
        }
    }

    // ------------------------------------------------------------------
    // Commit-completion backlog (stage 3 of the commit lifecycle)
    // ------------------------------------------------------------------

    /// The cluster-shared commit-completion backlog.
    pub(crate) fn backlog(&self) -> &Backlog {
        &self.backlog
    }

    /// Vestigial, always 0: a commit applies its COMMIT-PRIMARY installs
    /// before it returns, so nothing is ever left to drain. Kept because
    /// the `benchmark/` package calls it.
    pub fn drain_pending_installs(&self) -> usize {
        0
    }

    /// Vestigial, always 0: no commit leaves an install pending (see
    /// [`NodeEngine::drain_pending_installs`]). Kept because the
    /// `benchmark/` package calls it.
    pub fn pending_installs(&self) -> usize {
        0
    }

    /// This coordinator's current `truncate_below` watermark: every one of
    /// its transactions at or below this write timestamp has installed or
    /// aborted. Monotone.
    pub fn truncation_watermark(&self) -> u64 {
        self.backlog.watermark(self.id)
    }

    /// The watermark already delivered (piggybacked or flushed) from this
    /// coordinator to `dest`.
    pub fn delivered_truncation(&self, dest: NodeId) -> u64 {
        self.backlog.delivered(self.id, dest)
    }

    /// Untruncated backup redo-log entries currently held at this node.
    pub fn backup_log_len(&self) -> usize {
        self.backlog.log_len(self.id)
    }

    /// Starts a read-only transaction at an explicit (possibly past) read
    /// timestamp — a *stale snapshot read*, used by the slave side of
    /// parallel distributed read-only transactions (Section 4.6). Fails if
    /// the requested timestamp is below this node's `GC_local`, because old
    /// versions that old may already have been reclaimed.
    pub fn begin_stale_readonly(self: &Arc<Self>, read_ts: u64) -> Result<Transaction, TxError> {
        let gc_local = self.handle.gc_local();
        if read_ts < gc_local {
            return Err(TxError::Aborted(AbortReason::SnapshotTooStale {
                requested: read_ts,
                gc_local,
            }));
        }
        Ok(Transaction::start_stale(Arc::clone(self), read_ts))
    }

    /// A region whose primary is this machine, if any — used for
    /// locality-aware allocation (FaRM exploits locality by co-locating the
    /// coordinator with the primaries it writes).
    pub fn home_region(&self) -> Option<RegionId> {
        self.cluster.view().placement.primaries_of(self.id).next()
    }

    // ------------------------------------------------------------------
    // Internal helpers used by the transaction implementation.
    // ------------------------------------------------------------------

    pub(crate) fn next_serial(&self) -> u64 {
        self.next_serial.fetch_add(1, Ordering::Relaxed)
    }

    /// Publishes an active transaction (one uncontended CAS into the
    /// caller's home shard of the slot table). The returned token withdraws
    /// the registration; `serial` only keys the overflow spillover.
    pub(crate) fn register_active(&self, serial: u64, read_ts: u64) -> ActiveToken {
        self.active.register(serial, read_ts)
    }

    /// Raises a registration's timestamp from its conservative placeholder
    /// to the transaction's acquired read timestamp (one atomic store).
    pub(crate) fn update_active(&self, token: ActiveToken, read_ts: u64) {
        self.active.update(token, read_ts);
    }

    /// Withdraws an active-transaction registration (one atomic store).
    pub(crate) fn unregister_active(&self, token: ActiveToken) {
        self.active.unregister(token);
    }

    /// Number of currently registered active transactions (tests/reporting).
    pub fn active_transactions(&self) -> usize {
        self.active.len()
    }

    /// Resolves the primary replica of the region holding `addr`, along with
    /// the primary's node id. Fails retryably while the region is draining
    /// for a reconfiguration or its primary is dead awaiting promotion —
    /// both clear within one reconfiguration, so a retry loop rides them
    /// out.
    pub(crate) fn primary_region_of(&self, addr: Addr) -> Result<(NodeId, Arc<Region>), TxError> {
        let (assignment, region) = self.route_of(self.cluster.view(), addr)?;
        Ok((assignment.primary, region))
    }

    /// [`NodeEngine::primary_region_of`] plus the region's backups, from
    /// `view`: the commit plan's routing.
    pub(crate) fn route_of<'v>(
        &self,
        view: &'v ClusterView,
        addr: Addr,
    ) -> Result<(&'v RegionAssignment, Arc<Region>), TxError> {
        if view.is_draining(addr.region) {
            return Err(TxError::Aborted(AbortReason::Reconfiguring(addr.region)));
        }
        let assignment = view
            .placement
            .assignment(addr.region)
            .ok_or(TxError::Aborted(AbortReason::BadAddress(addr)))?;
        let node = self.cluster.node(assignment.primary);
        if !node.is_alive() {
            return Err(TxError::Aborted(AbortReason::NodeUnavailable(addr)));
        }
        Ok((assignment, node.regions().ensure(addr.region)))
    }
}

impl std::fmt::Debug for NodeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeEngine").field("id", &self.id).finish()
    }
}

/// The engine's reactions to control-plane events, forming the data-plane
/// half of failure recovery:
///
/// * **Promotion replay** — when a backup is promoted to primary, it replays
///   its untruncated redo-log entries for the region before serving, so
///   committed (early-acked) transactions whose COMMIT-PRIMARY never landed
///   at the failed primary are recovered from the log, never lost and never
///   observed torn.
/// * **Dead-coordinator truncation** — when a new configuration commits,
///   the truncation watermark of every coordinator it removed is
///   force-delivered, so backup logs holding its records drain. A dead
///   coordinator leaves no lock to release: its undecided transactions
///   unwind in their own drivers, and a decided one installed in the step
///   that decided it.
/// * **Log catch-up** — when background re-replication finishes its state
///   copy onto a new backup, commits that raced the copy are replayed onto
///   it from the surviving redo logs, restoring full redundancy.
///
/// The hooks are owned by the [`Cluster`], and every [`NodeEngine`] owns the
/// cluster, so they name the node engines **weakly**: the [`Engine`] alone
/// keeps its nodes alive, and dropping it (after [`Cluster::shutdown`]) frees
/// the cluster with every region, slab and log it holds. Events that arrive
/// after that find no engine and do nothing.
struct EngineHooks {
    backlog: Arc<Backlog>,
    nodes: Vec<Weak<NodeEngine>>,
    events: EventLog,
}

impl EngineHooks {
    /// The node engines that still exist (all of them while the [`Engine`]
    /// does).
    fn engines(&self) -> impl Iterator<Item = Arc<NodeEngine>> + '_ {
        self.nodes.iter().filter_map(Weak::upgrade)
    }
}

impl RecoveryHooks for EngineHooks {
    fn on_region_promoted(&self, region: RegionId, new_primary: NodeId) {
        self.backlog.recover_region(region, new_primary);
    }

    fn on_config_committed(&self, config: &ConfigRecord) {
        for engine in self.engines() {
            if config.contains(engine.id()) || engine.is_alive() {
                continue;
            }
            for dest in engine.cluster.nodes() {
                self.backlog.deliver_truncation(&engine, dest.id(), true);
            }
        }
    }

    fn on_backup_rereplicated(&self, region: RegionId, new_backup: NodeId) {
        // Any live node can serve as the catch-up source: the redo state is
        // read from every surviving replicated log, not one replica.
        let Some(src) = self
            .engines()
            .find(|n| n.id() != new_backup && n.is_alive())
        else {
            return;
        };
        let backlog = Arc::clone(&self.backlog);
        let mut set = CompletionSet::new(src.meter.latency_model());
        set.issue(new_backup, Verb::RdmaWrite, move || {
            backlog.catch_up_region(region, new_backup)
        });
        let completions = set.complete(DispatchMode::Concurrent, Some(src.meter.stats()));
        let intents: usize = completions.into_iter().map(|c| c.value).sum();
        if intents > 0 {
            EngineStats::bump(&src.stats.backups_caught_up);
            self.events.record(EventKind::LogCatchUp {
                region,
                new_backup,
                intents,
            });
        }
    }
}

/// One GC pass on one node: reclaim old-version blocks below the safe point
/// and sweep tombstoned slots the point has passed. Shared by the background
/// GC thread and [`Engine::collect_garbage_now`].
fn collect_node_garbage(handle: &Arc<NodeHandle>) {
    let gc = handle.gc_safe_point();
    if gc == 0 {
        return;
    }
    handle.old_versions().collect(gc);
    for region_id in handle.regions().hosted() {
        if let Some(region) = handle.regions().get(region_id) {
            region.sweep_tombstones(gc);
        }
    }
}

/// The cluster-wide engine: one [`NodeEngine`] per machine plus a background
/// garbage-collection driver that reclaims old-version blocks below each
/// node's GC safe point.
pub struct Engine {
    cluster: Arc<Cluster>,
    config: EngineConfig,
    nodes: Vec<Arc<NodeEngine>>,
    stop: Arc<AtomicBool>,
    gc_thread: Mutex<Option<JoinHandle<()>>>,
}

impl Engine {
    /// Builds the engine on an already-started cluster.
    pub fn start(cluster: Arc<Cluster>, config: EngineConfig) -> Arc<Engine> {
        let backlog = Arc::new(Backlog::new(cluster.nodes().to_vec()));
        let nodes: Vec<Arc<NodeEngine>> = cluster
            .nodes()
            .iter()
            .map(|n| NodeEngine::new(Arc::clone(&cluster), n.id(), config, Arc::clone(&backlog)))
            .collect();
        cluster.set_recovery_hooks(Arc::new(EngineHooks {
            backlog: Arc::clone(&backlog),
            nodes: nodes.iter().map(Arc::downgrade).collect(),
            events: cluster.events().clone(),
        }));
        let engine = Arc::new(Engine {
            cluster: Arc::clone(&cluster),
            config,
            nodes,
            stop: Arc::new(AtomicBool::new(false)),
            gc_thread: Mutex::new(None),
        });
        // Background GC driver; also flushes truncation watermarks that sat
        // idle for a whole pass (no outgoing verb to piggyback on).
        let stop = Arc::clone(&engine.stop);
        let nodes_for_gc: Vec<Arc<NodeEngine>> = engine.nodes.clone();
        let interval = config.gc_interval;
        let handle = std::thread::Builder::new()
            .name("farm-gc".into())
            .spawn(move || {
                loop {
                    // Sleep first (in bounded slices so `shutdown` never
                    // waits out a long GC interval to join this thread): a
                    // pass at startup has nothing to do, and engines
                    // configured with a long interval expect no background
                    // interference at all.
                    let mut remaining = interval;
                    while !remaining.is_zero() && !stop.load(Ordering::Acquire) {
                        let slice = remaining.min(std::time::Duration::from_millis(10));
                        std::thread::sleep(slice);
                        remaining -= slice;
                    }
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    for node in &nodes_for_gc {
                        // Truncation flushes run for dead coordinators too,
                        // so their backup-log records never wait on an
                        // explicit reconfiguration to drain.
                        node.backlog.flush_idle(node);
                        if node.is_alive() {
                            collect_node_garbage(node.handle());
                        }
                    }
                }
            })
            .expect("spawn GC thread");
        *engine.gc_thread.lock() = Some(handle);
        engine
    }

    /// Convenience: start a fresh cluster with `cluster_cfg` and the engine
    /// on top of it.
    pub fn start_cluster(
        cluster_cfg: farm_kernel::ClusterConfig,
        config: EngineConfig,
    ) -> Arc<Engine> {
        let cluster = Cluster::start(cluster_cfg);
        Self::start(cluster, config)
    }

    /// The engine of one machine.
    pub fn node(&self, id: NodeId) -> Arc<NodeEngine> {
        Arc::clone(&self.nodes[id.index()])
    }

    /// All per-machine engines.
    pub fn nodes(&self) -> &[Arc<NodeEngine>] {
        &self.nodes
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// The engine configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Aggregated statistics across every machine.
    pub fn aggregate_stats(&self) -> EngineStatsSnapshot {
        self.nodes
            .iter()
            .map(|n| n.stats())
            .fold(EngineStatsSnapshot::default(), |acc, s| acc.merged(&s))
    }

    /// Runs one old-version GC pass (including tombstone sweeps) on every
    /// node immediately.
    pub fn collect_garbage_now(&self) {
        for node in &self.nodes {
            collect_node_garbage(node.handle());
        }
    }

    /// Settles the commit-completion backlog cluster-wide: every truncation
    /// watermark is force-delivered to every destination (each undelivered
    /// watermark costs one standalone flush message, exactly as the idle
    /// flusher would pay). A commit installs at its primaries before it
    /// returns and raises its watermark as it does, so after this every
    /// commit acked before the call is mirrored at its backups too — the
    /// quiescent point benchmarks and tests settle to before inspecting
    /// replicas. Dead coordinators' watermarks are delivered as well, so a
    /// post-failure quiescent cluster holds no untruncated redo-log entry.
    pub fn quiesce(&self) {
        for node in &self.nodes {
            for dest in self.cluster.nodes() {
                node.backlog.deliver_truncation(node, dest.id(), true);
            }
        }
    }

    /// Stops the background GC thread (the cluster keeps running). The
    /// commit-completion backlog is settled first so no locks or undelivered
    /// truncations outlive the engine's background machinery.
    pub fn shutdown(&self) {
        self.quiesce();
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.gc_thread.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.gc_thread.lock().take() {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("nodes", &self.nodes.len())
            .field("mv_policy", &self.config.mv_policy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farm_kernel::ClusterConfig;

    #[test]
    fn engine_starts_on_cluster_and_reports_stats() {
        let engine = Engine::start_cluster(ClusterConfig::test(3), EngineConfig::default());
        assert_eq!(engine.nodes().len(), 3);
        let stats = engine.aggregate_stats();
        assert_eq!(stats.commits(), 0);
        assert!(engine.node(NodeId(1)).home_region().is_some());
        engine.shutdown();
    }

    #[test]
    fn a_stopped_and_dropped_engine_frees_its_cluster() {
        // With its control thread: the production shape, and the thread is
        // one more owner of the cluster until `shutdown` joins it.
        let cluster_cfg = ClusterConfig {
            auto_control: true,
            ..ClusterConfig::test(3)
        };
        let engine = Engine::start_cluster(cluster_cfg, EngineConfig::multi_version());
        let node = engine.node(NodeId(0));
        let mut tx = node.begin();
        let addr = tx
            .alloc_in(node.home_region().unwrap(), vec![7u8; 40])
            .unwrap();
        tx.commit().unwrap();
        let mut tx = node.begin();
        tx.write(addr, vec![8u8; 40]).unwrap();
        tx.commit().unwrap();
        let cluster = Arc::downgrade(engine.cluster());
        let node_engine = Arc::downgrade(&node);
        drop(node);
        engine.shutdown();
        engine.cluster().shutdown();
        // The recovery hooks the cluster owns must not own the node engines
        // (which own the cluster): nothing of a stopped engine outlives it.
        drop(engine);
        assert!(node_engine.upgrade().is_none(), "node engine leaked");
        assert!(
            cluster.upgrade().is_none(),
            "cluster and its regions leaked"
        );
    }

    #[test]
    fn stale_readonly_below_gc_local_is_rejected() {
        let engine = Engine::start_cluster(ClusterConfig::test(3), EngineConfig::multi_version());
        // Drive some control rounds so GC_local advances well past 1 ns.
        for _ in 0..4 {
            engine.cluster().control_round();
        }
        let node = engine.node(NodeId(1));
        let err = node.begin_stale_readonly(1).unwrap_err();
        assert!(matches!(
            err,
            TxError::Aborted(AbortReason::SnapshotTooStale { .. })
        ));
        engine.shutdown();
    }

    /// A transaction retrying against a dead primary is woken by the
    /// reconfiguration that lifts the drain barrier, not at the end of the
    /// 5 ms back-off it is in, and its back-off restarts at the base: the
    /// body aborts itself twice more once the region is served again, which
    /// from the base costs 50 + 100 µs of back-off, not two capped 5 ms.
    #[test]
    fn a_reconfiguration_wakes_a_retrying_transaction_and_restarts_its_backoff() {
        use std::time::Instant;

        let engine = Engine::start_cluster(ClusterConfig::test(4), EngineConfig::default());
        let cluster = Arc::clone(engine.cluster());
        let (victim, survivor) = (NodeId(1), NodeId(0));
        let region = cluster
            .regions()
            .into_iter()
            .find(|&r| cluster.primary_of(r) == Some(victim))
            .expect("a region whose primary is n1");
        let node = engine.node(survivor);
        let mut setup = node.begin();
        let addr = setup.alloc_in(region, vec![7u8; 8]).unwrap();
        setup.commit().unwrap();
        engine.quiesce();

        cluster.kill(victim);
        let retrier = {
            let node = Arc::clone(&node);
            std::thread::spawn(move || {
                let mut served_at = Vec::new();
                let result = node.run_transaction(TxOptions::default(), |tx| {
                    let value = tx.read(addr)?;
                    served_at.push(Instant::now());
                    if served_at.len() <= 2 {
                        return Err(TxError::Aborted(AbortReason::LockConflict(addr)));
                    }
                    tx.write(addr, value.to_vec())
                });
                (result, served_at, Instant::now())
            })
        };
        // Seven absorbed retries have waited 50 µs doubling to 3.2 ms; the
        // eighth waits the 5 ms cap.
        let give_up = Instant::now() + Duration::from_secs(10);
        while node.stats().retries_absorbed < 8 {
            assert!(Instant::now() < give_up, "the retrier never backed off");
            std::thread::yield_now();
        }
        let reconfiguring = Instant::now();
        assert!(cluster.initiate_reconfiguration(survivor, &[victim]));
        let (result, served_at, returned_at) = retrier.join().unwrap();
        result.expect("the transaction commits under the new configuration");
        let woken_after = served_at[0] - reconfiguring;
        assert!(
            woken_after < Duration::from_micros(2_500),
            "the retrier slept out its back-off: served {woken_after:?} after the reconfiguration"
        );
        let after_wake = returned_at - served_at[0];
        assert!(
            after_wake < Duration::from_micros(2_500),
            "the back-off did not restart at its base: two more retries took {after_wake:?}"
        );
        engine.shutdown();
    }
}
