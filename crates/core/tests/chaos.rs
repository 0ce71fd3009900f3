//! Chaos harness: seeded randomized kill/partition schedules against a
//! money-transfer workload, with end-to-end recovery invariants checked
//! after every heal.
//!
//! Each schedule runs concurrent transfer workers (through the transparent
//! retry wrapper) and a conservation checker while the schedule kills one or
//! two machines — sometimes the configuration manager, sometimes by
//! partitioning a node until the lease protocol evicts it. After the cluster
//! settles, the invariants are:
//!
//! * **Conservation / no snapshot tears**: the sum of all account balances
//!   equals the initial total, both on every mid-chaos snapshot read and at
//!   the end.
//! * **Acked commits survive**: every account's final value is exactly the
//!   value written by the highest-timestamped *acknowledged* transfer that
//!   touched it — no acked commit is lost, none is half-applied.
//! * **No leaked locks**: after the final heal and a quiesce, every account
//!   slot at its (possibly promoted) primary is unlocked, and every backup
//!   redo log has truncated to empty.
//! * **GC never passes a live read**: each live node's global GC safe point
//!   stays at or below its local oldest-active-transaction bound.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use farm_core::{AbortReason, Engine, EngineConfig, NodeId, TxError, TxOptions};
use farm_kernel::{ClusterConfig, EventKind};
use farm_memory::Addr;
use parking_lot::Mutex;

const ACCOUNTS: usize = 24;
const INITIAL: u64 = 1_000;

/// SplitMix64: a tiny deterministic PRNG so schedules are reproducible from
/// their seed (the core crate deliberately has no `rand` dependency).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn chaos_cluster() -> ClusterConfig {
    ClusterConfig {
        regions_per_node: 2,
        auto_control: true,
        control_interval: Duration::from_millis(1),
        // Generous lease: the schedules run many CPU-bound threads on
        // whatever cores CI grants, and a starved control thread must not
        // cause spurious suspicion of live nodes.
        lease_expiry: Duration::from_millis(50),
        ..ClusterConfig::test(5)
    }
}

fn chaos_engine() -> Arc<Engine> {
    Engine::start_cluster(
        chaos_cluster(),
        EngineConfig {
            gc_interval: Duration::from_millis(2),
            ..EngineConfig::multi_version()
        },
    )
}

/// Allocates the accounts round-robin across every region and settles the
/// setup so chaos starts from fully installed, fully replicated state.
fn setup_accounts(engine: &Arc<Engine>) -> Vec<Addr> {
    let node = engine.node(NodeId(0));
    let regions = engine.cluster().regions();
    let mut tx = node.begin();
    let accounts: Vec<Addr> = (0..ACCOUNTS)
        .map(|i| {
            tx.alloc_in(regions[i % regions.len()], INITIAL.to_le_bytes().to_vec())
                .expect("setup allocation")
        })
        .collect();
    tx.commit().expect("setup commit");
    engine.quiesce();
    accounts
}

fn balance(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8-byte account"))
}

/// One acked write: (write timestamp, account index, post-image).
type AckedWrite = (u64, usize, u64);

/// Transfers 1 unit between random account pairs until stopped (or the home
/// node dies), recording the post-image of every *acknowledged* commit.
fn transfer_worker(
    engine: &Arc<Engine>,
    home: NodeId,
    accounts: &[Addr],
    stop: &AtomicBool,
    seed: u64,
) -> Vec<AckedWrite> {
    let node = engine.node(home);
    let mut rng = Rng::new(seed);
    let mut acked = Vec::new();
    while !stop.load(Ordering::Acquire) {
        if !node.is_alive() {
            break;
        }
        let from = rng.below(accounts.len() as u64) as usize;
        let to = rng.below(accounts.len() as u64) as usize;
        if from == to {
            continue;
        }
        let (from_addr, to_addr) = (accounts[from], accounts[to]);
        let result = node.run_transaction(TxOptions::serializable(), |tx| {
            let from_val = balance(&tx.read(from_addr)?);
            if from_val == 0 {
                // Insufficient funds: a business abort, not retryable.
                return Err(TxError::Aborted(AbortReason::UserRequested));
            }
            let to_val = balance(&tx.read(to_addr)?);
            tx.write(from_addr, (from_val - 1).to_le_bytes().to_vec())?;
            tx.write(to_addr, (to_val + 1).to_le_bytes().to_vec())?;
            Ok((from_val - 1, to_val + 1))
        });
        if let Ok(((from_post, to_post), info)) = result {
            let ts = info.write_ts.expect("read-write commit has a write ts");
            acked.push((ts, from, from_post));
            acked.push((ts, to, to_post));
        }
        // Errors are either retry-budget exhaustion during a long blackout or
        // the coordinator's own death; the loop re-checks liveness and goes
        // on — unacked transactions carry no obligation.
    }
    acked
}

/// Snapshot-reads every account on some live node and asserts conservation —
/// run concurrently with the chaos schedule, it catches snapshot tears and
/// half-applied transfers the moment they would become visible. `step` is
/// the schedule step in progress (kill / partition / heal and its victim),
/// kept current by `run_schedule` so a failure says where in the schedule it
/// happened.
fn conservation_checker(
    engine: &Arc<Engine>,
    accounts: &[Addr],
    stop: &AtomicBool,
    seed: u64,
    step: &Mutex<String>,
) -> usize {
    let total = ACCOUNTS as u64 * INITIAL;
    let mut checks = 0usize;
    while !stop.load(Ordering::Acquire) {
        let Some(node) = engine.nodes().iter().find(|n| n.is_alive()) else {
            break;
        };
        let result = node.run_transaction(TxOptions::serializable(), |tx| {
            let mut sum = 0u64;
            for &addr in accounts {
                sum += balance(&tx.read(addr)?);
            }
            Ok(sum)
        });
        if let Ok((sum, info)) = result {
            assert_eq!(
                sum,
                total,
                "conservation violated at read_ts {}: snapshot tear \
                 (seed {seed}, step {:?}, read on {:?}, config epoch {}); events: {:#?}",
                info.read_ts,
                step.lock(),
                node.id(),
                engine.cluster().current_config().epoch,
                engine.cluster().events().snapshot()
            );
            checks += 1;
        }
        std::thread::sleep(Duration::from_micros(300));
    }
    checks
}

/// Waits until the cluster has restored full redundancy after a failure.
fn wait_for_rereplication(engine: &Arc<Engine>, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if engine
            .cluster()
            .events()
            .snapshot()
            .iter()
            .any(|e| matches!(e.kind, EventKind::RereplicationComplete))
        {
            return;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    panic!(
        "re-replication did not complete within {timeout:?}; events: {:#?}",
        engine.cluster().events().snapshot()
    );
}

/// Raises the stop flag when dropped, so that a panic in the schedule body
/// (e.g. a recovery timeout) still releases the spinning workers — without
/// this, `thread::scope` would join them forever and turn a clean test
/// failure into a hang.
struct StopGuard<'a>(&'a AtomicBool);

impl Drop for StopGuard<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Runs one full seeded schedule: load → failure(s) → heal → settle →
/// invariants. The failure plan is derived from the seed: one or two
/// victims, killed outright or evicted through a network partition, with the
/// initial configuration manager a possible victim (exercising clock
/// failover).
fn run_schedule(seed: u64) {
    let engine = chaos_engine();
    let accounts = setup_accounts(&engine);
    let mut rng = Rng::new(seed.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1));

    let cluster_size = engine.cluster().nodes().len() as u64;
    let first = NodeId(rng.below(cluster_size) as u32);
    let second = if rng.below(2) == 0 {
        let mut s = NodeId(rng.below(cluster_size) as u32);
        while s == first {
            s = NodeId(rng.below(cluster_size) as u32);
        }
        Some(s)
    } else {
        None
    };
    let evict_by_partition = rng.below(3) == 0;
    let warmup = Duration::from_millis(3 + rng.below(5));
    let cooldown = Duration::from_millis(3 + rng.below(5));

    // Three workers: one homed on the first victim (its in-flight
    // transactions exercise coordinator death), two on guaranteed survivors.
    // Kept small so the schedule also runs on single-core CI machines.
    let mut worker_homes = vec![first];
    for n in 0..cluster_size as u32 {
        let candidate = NodeId(n);
        if candidate != first && Some(candidate) != second && worker_homes.len() < 3 {
            worker_homes.push(candidate);
        }
    }

    let stop = Arc::new(AtomicBool::new(false));
    let step = Mutex::new(String::from("warmup"));
    let enter = |what: String| *step.lock() = what;
    let (acked, checks) = std::thread::scope(|scope| {
        let _stop_guard = StopGuard(&stop);
        let mut workers = Vec::new();
        for (w, &home) in worker_homes.iter().enumerate() {
            let engine = Arc::clone(&engine);
            let accounts = &accounts;
            let stop = Arc::clone(&stop);
            let worker_seed = seed.wrapping_mul(31).wrapping_add(w as u64);
            workers.push(
                scope.spawn(move || transfer_worker(&engine, home, accounts, &stop, worker_seed)),
            );
        }
        let checker = {
            let engine = Arc::clone(&engine);
            let accounts = &accounts;
            let stop = Arc::clone(&stop);
            let step = &step;
            scope.spawn(move || conservation_checker(&engine, accounts, &stop, seed, step))
        };

        std::thread::sleep(warmup);
        if evict_by_partition {
            // Isolate the victim; the lease protocol suspects it, the
            // reconfiguration evicts (and thereby kills) it, and the heal
            // afterwards must not resurrect it.
            enter(format!("partition {first:?}"));
            engine.cluster().faults().partition(vec![(first, 1)]);
        } else {
            enter(format!("kill {first:?}"));
            engine.cluster().kill(first);
        }
        wait_for_rereplication(&engine, Duration::from_secs(10));
        if evict_by_partition {
            enter(format!("heal after evicting {first:?}"));
            engine.cluster().faults().heal();
            assert!(
                !engine.cluster().node(first).is_alive(),
                "seed {seed}: healing the partition resurrected evicted node {first:?}"
            );
        }

        if let Some(second) = second {
            // Redundancy is restored; a second, independent failure must
            // recover the same way.
            engine.cluster().events().clear();
            enter(format!("kill {second:?} (second failure)"));
            engine.cluster().kill(second);
            wait_for_rereplication(&engine, Duration::from_secs(10));
        }

        enter(String::from("cooldown"));
        std::thread::sleep(cooldown);
        stop.store(true, Ordering::Release);
        let acked: Vec<AckedWrite> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("worker panicked"))
            .collect();
        (acked, checker.join().expect("checker panicked"))
    });

    engine.quiesce();

    // ---- Invariants ----------------------------------------------------
    assert!(
        !acked.is_empty(),
        "seed {seed}: no transfer ever committed — schedule produced no load"
    );
    assert!(
        checks > 0,
        "seed {seed}: the conservation checker never completed a snapshot"
    );

    // Every acked commit is readable at (and after) its timestamp: each
    // account's final value equals the post-image of the highest-timestamped
    // acked write to it, and the total is conserved.
    let survivor = engine
        .nodes()
        .iter()
        .find(|n| n.is_alive())
        .expect("schedules keep a majority alive");
    let mut check = survivor.begin();
    let finals: Vec<u64> = accounts
        .iter()
        .map(|&a| balance(&check.read(a).expect("final read")))
        .collect();
    drop(check);
    assert_eq!(
        finals.iter().sum::<u64>(),
        ACCOUNTS as u64 * INITIAL,
        "seed {seed}: money not conserved after the final heal"
    );
    let mut last: HashMap<usize, (u64, u64)> = HashMap::new();
    for &(ts, idx, post) in &acked {
        let entry = last.entry(idx).or_insert((0, 0));
        if ts >= entry.0 {
            *entry = (ts, post);
        }
    }
    for (idx, (ts, post)) in last {
        assert_eq!(
            finals[idx], post,
            "seed {seed}: account {idx} diverges from its last acked write (ts {ts})"
        );
    }

    // No leaked locks, no untruncated redo logs.
    for node in engine.nodes() {
        assert_eq!(
            node.backup_log_len(),
            0,
            "seed {seed}: {:?} still holds untruncated redo-log entries",
            node.id()
        );
    }
    for &addr in &accounts {
        let primary = engine
            .cluster()
            .primary_of(addr.region)
            .expect("every region has a primary after recovery");
        assert!(
            engine.cluster().node(primary).is_alive(),
            "seed {seed}: region {:?} promoted to a dead primary",
            addr.region
        );
        let slot = engine
            .cluster()
            .node(primary)
            .regions()
            .ensure(addr.region)
            .slot(addr)
            .expect("account slot resolves at its primary");
        assert!(
            !slot.header_snapshot().locked,
            "seed {seed}: leaked lock on {addr:?} after the final heal"
        );
    }

    // OAT / GC safety on the survivors.
    for node in engine.cluster().nodes().iter().filter(|n| n.is_alive()) {
        assert!(
            node.gc_safe_point() <= node.oat_local(),
            "seed {seed}: GC safe point passed the oldest active transaction on {:?}",
            node.id()
        );
    }

    engine.shutdown();
    engine.cluster().shutdown();
}

// ≥ 20 seeded schedules, split across four test functions so the harness
// runs them in parallel.

#[test]
fn chaos_schedules_seeds_00_04() {
    for seed in 0..5 {
        run_schedule(seed);
    }
}

#[test]
fn chaos_schedules_seeds_05_09() {
    for seed in 5..10 {
        run_schedule(seed);
    }
}

#[test]
fn chaos_schedules_seeds_10_14() {
    for seed in 10..15 {
        run_schedule(seed);
    }
}

#[test]
fn chaos_schedules_seeds_15_19() {
    for seed in 15..20 {
        run_schedule(seed);
    }
}

/// A node that is primary for several regions dies: every one of its regions
/// must promote a backup, and each promoted backup must replay the redo-log
/// records it still holds untruncated.
#[test]
fn all_regions_of_a_dead_primary_promote_and_replay() {
    let cfg = ClusterConfig {
        regions_per_node: 2,
        lease_expiry: Duration::from_millis(1),
        ..ClusterConfig::test(4)
    };
    let engine = Engine::start_cluster(
        cfg,
        EngineConfig {
            gc_interval: Duration::from_secs(3600),
            ..EngineConfig::multi_version()
        },
    );
    let victim = NodeId(1);
    let regions: Vec<_> = engine
        .cluster()
        .view()
        .placement
        .primaries_of(victim)
        .collect();
    assert_eq!(regions.len(), 2, "victim should be primary for two regions");

    // One object per victim region, fully settled.
    let setup_node = engine.node(NodeId(0));
    let mut setup = setup_node.begin();
    let addrs: Vec<Addr> = regions
        .iter()
        .map(|&r| setup.alloc_in(r, 0u64.to_le_bytes().to_vec()).unwrap())
        .collect();
    setup.commit().unwrap();
    engine.quiesce();

    // Early-acked writes from *different* coordinators (so neither's
    // watermark rides the other's verbs): both commits are acknowledged,
    // and each backup to be promoted still holds its untruncated redo
    // record, which only the promotion can apply to its replica.
    let coordinators = [NodeId(0), NodeId(2)];
    for (i, &addr) in addrs.iter().enumerate() {
        let node = engine.node(coordinators[i]);
        let mut tx = node.begin();
        tx.write(addr, (7_000 + i as u64).to_le_bytes().to_vec())
            .unwrap();
        tx.commit().unwrap();
    }
    let view = engine.cluster().view();
    for &addr in &addrs {
        let backups = &view.placement.assignment(addr.region).unwrap().backups;
        for &backup in backups.iter() {
            let replica = engine.cluster().node(backup).regions().ensure(addr.region);
            assert_eq!(
                balance(&replica.slot(addr).unwrap().raw_data()),
                0,
                "{backup:?} already applied the write to {addr:?}"
            );
            assert!(
                engine.node(backup).backup_log_len() >= 1,
                "{backup:?} holds no untruncated redo entry"
            );
        }
    }

    // Prime the lease state, kill the victim, let the lease expire, and run
    // the control round that suspects it and reconfigures.
    engine.cluster().control_round();
    engine.cluster().kill(victim);
    std::thread::sleep(Duration::from_millis(3));
    engine.cluster().control_round();

    let events = engine.cluster().events().snapshot();
    for &region in &regions {
        let promoted = events
            .iter()
            .any(|e| matches!(e.kind, EventKind::RegionPromoted { region: r, .. } if r == region));
        assert!(promoted, "region {region:?} was never promoted");
        let primary = engine.cluster().primary_of(region).unwrap();
        assert_ne!(primary, victim, "region {region:?} still on the dead node");
        assert!(engine.cluster().node(primary).is_alive());
    }

    // The promoted primaries replayed the redo logs: both acked writes are
    // readable, from a node that was neither coordinator.
    let reader = engine.node(NodeId(3));
    let mut tx = reader.begin();
    for (i, &addr) in addrs.iter().enumerate() {
        assert_eq!(
            balance(&tx.read(addr).expect("read after promotion")),
            7_000 + i as u64,
            "acked write to {addr:?} lost in promotion"
        );
    }
    drop(tx);
    engine.shutdown();
    engine.cluster().shutdown();
}

/// Regression for the kill / liveness divergence: `Cluster::kill` must flip
/// the fault plane and the node handle atomically — no observer may ever see
/// `is_killed` without `!is_alive` — while commits race the kill.
#[test]
fn commit_racing_kill_keeps_liveness_atomic() {
    let engine = Engine::start_cluster(
        ClusterConfig::test(3),
        EngineConfig {
            gc_interval: Duration::from_secs(3600),
            ..EngineConfig::default()
        },
    );
    let victim = NodeId(1);
    let region = engine
        .cluster()
        .view()
        .placement
        .primaries_of(victim)
        .next()
        .unwrap();
    let committer_node = engine.node(NodeId(0));
    let mut setup = committer_node.begin();
    let addr = setup.alloc_in(region, 0u64.to_le_bytes().to_vec()).unwrap();
    setup.commit().unwrap();
    engine.quiesce();

    let stop = Arc::new(AtomicBool::new(false));
    let commits = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        // The invariant observer: races every commit and the kill itself.
        let observer = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    for handle in engine.cluster().nodes() {
                        let killed = engine.cluster().faults().is_killed(handle.id());
                        let alive = handle.is_alive();
                        assert!(
                            !(killed && alive),
                            "{:?} observed killed-but-alive",
                            handle.id()
                        );
                    }
                }
            })
        };
        // The committer: hammers writes at the victim's region; every commit
        // must either succeed or abort cleanly, never wedge or panic. It
        // publishes its commit count so the kill can wait for the first one.
        let committer = {
            let node = Arc::clone(&committer_node);
            let stop = Arc::clone(&stop);
            let commits = Arc::clone(&commits);
            scope.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Acquire) {
                    i += 1;
                    let mut tx = node.begin();
                    if tx.overwrite(addr, i.to_le_bytes().to_vec()).is_err() {
                        continue;
                    }
                    match tx.commit() {
                        Ok(_) => {
                            commits.fetch_add(1, Ordering::Release);
                        }
                        Err(TxError::Aborted(_)) => {}
                        Err(e) => panic!("commit racing kill returned {e:?}"),
                    }
                }
            })
        };
        // Kill only after the first commit: on a loaded host the committer
        // may not have been scheduled at all after a fixed sleep.
        let deadline = Instant::now() + Duration::from_secs(10);
        while commits.load(Ordering::Acquire) == 0 && !committer.is_finished() {
            if Instant::now() >= deadline {
                stop.store(true, Ordering::Release);
                panic!("the committer made no commit within 10 s, so the kill would race nothing");
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        engine.cluster().kill(victim);
        std::thread::sleep(Duration::from_millis(2));
        stop.store(true, Ordering::Release);
        committer.join().expect("committer panicked");
        observer.join().expect("liveness invariant violated");
        let committed = commits.load(Ordering::Acquire);
        assert!(committed > 0, "no commit ever succeeded before the kill");
    });
    assert!(!engine.cluster().node(victim).is_alive());
    engine.shutdown();
    engine.cluster().shutdown();
}
