//! `recovery`: trials on fresh five-machine clusters. Two clients move money
//! between 240 accounts through `run_transaction`; one machine is killed
//! 100 ms in. Client A, homed on a survivor, is the measured one: the
//! outage is what *it* sees, from the kill until it commits again at 90 % of
//! its earlier rate. Client B is homed on the victim, so its in-flight
//! commits exercise coordinator death.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use farm_core::{
    AbortReason, Addr, Engine, EngineConfig, EngineStatsSnapshot, NodeEngine, NodeId, TxError,
    TxOptions,
};
use farm_kernel::EventKind;

use crate::metrics::Outcome;
use crate::ops::{
    Op, OpGen, Workload, RECOVERY_ACCOUNTS, RECOVERY_INITIAL_BALANCE, RECOVERY_NODES,
};
use crate::run::RunArgs;
use crate::stats;
use crate::system;
use crate::trace::{Recorder, Span};

/// Load before the kill, and again after redundancy is restored.
const LOAD: Duration = Duration::from_millis(100);
/// Client A's pre-kill rate is taken from here to the kill: the first
/// stretch of load is cache and clock warm-up.
const RATE_FROM: Duration = Duration::from_millis(20);
/// A trial whose cluster has not restored redundancy by then has failed.
const GIVE_UP: Duration = Duration::from_secs(5);
/// How often the main thread snapshot-reads every account.
const AUDIT_EVERY: Duration = Duration::from_millis(2);
const TOTAL: u64 = RECOVERY_ACCOUNTS as u64 * RECOVERY_INITIAL_BALANCE;
/// Trials per run that may end with money created or destroyed before the
/// run counts as incorrect. The seed loses an update about once in 3 000
/// kill trials (ROADMAP, "fix the snapshot tear": seen there under partition
/// eviction; `benchmark/README.md`, *Seed observations* 10, has the kill
/// case): with 0 here one run in a hundred would fail whatever the change
/// under test did. Every torn trial is reported on stderr and counted in
/// `torn_trials`; two in one run is not the known rate any more. Set this
/// to 0 in the benchmark-correcting PR that follows the fix.
const TORN_TRIALS_TOLERATED: usize = 1;

fn balance(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8-byte account"))
}

/// An acknowledged write: `(write_ts, account, post-image)`.
type Acked = (u64, usize, u64);

struct ClientLog {
    /// Commit times, µs since the trial began.
    commits_us: Vec<u64>,
    acked: Vec<Acked>,
    attempted: u64,
    failed: u64,
    spans: Vec<Span>,
}

/// Transfers one unit at a time until stopped or the home machine dies.
fn client(
    node: &Arc<NodeEngine>,
    accounts: &[Addr],
    mut gen: OpGen,
    stop: &AtomicBool,
    trial_start: Instant,
    mut recorder: Option<Recorder>,
) -> ClientLog {
    let mut log = ClientLog {
        commits_us: Vec::new(),
        acked: Vec::new(),
        attempted: 0,
        failed: 0,
        spans: Vec::new(),
    };
    while !stop.load(Ordering::Acquire) && node.is_alive() {
        let Op::Transfer { from, to } = gen.next_op() else {
            unreachable!("the recovery stream holds only transfers");
        };
        let (from_addr, to_addr) = (accounts[from as usize], accounts[to as usize]);
        let root = recorder.as_mut().map(|r| r.root());
        let result = node.run_transaction(TxOptions::serializable(), |tx| {
            let from_val = balance(&tx.read(from_addr)?);
            if from_val == 0 {
                return Err(TxError::Aborted(AbortReason::UserRequested));
            }
            let to_val = balance(&tx.read(to_addr)?);
            tx.write(from_addr, (from_val - 1).to_le_bytes().to_vec())?;
            tx.write(to_addr, (to_val + 1).to_le_bytes().to_vec())?;
            Ok((from_val - 1, to_val + 1))
        });
        if let (Some(r), Some(root)) = (recorder.as_mut(), root) {
            r.close_root(root, "transfer", result.is_ok());
        }
        log.attempted += 1;
        match result {
            Ok(((from_post, to_post), info)) => {
                log.commits_us
                    .push(trial_start.elapsed().as_micros() as u64);
                let ts = info.write_ts.expect("a transfer is a read-write commit");
                log.acked.push((ts, from as usize, from_post));
                log.acked.push((ts, to as usize, to_post));
            }
            // The home machine died under the transaction: expected for the
            // client on the victim, and it ends that client's loop.
            Err(_) if !node.is_alive() => log.attempted -= 1,
            Err(_) => log.failed += 1,
        }
    }
    log.spans = recorder.map(Recorder::into_spans).unwrap_or_default();
    log
}

/// One trial's measurements.
struct Trial {
    setup_s: f64,
    /// Client A's committed transfers per second before the kill.
    pre_rate: f64,
    recover90_us: Option<u64>,
    /// Kill to the end of the trial: how long client A was watched for.
    watched_us: u64,
    blackout_us: u64,
    first_commit_us: Option<u64>,
    kill_to_suspect_ms: Option<f64>,
    suspect_to_config_ms: Option<f64>,
    suspect_to_unblocked_ms: Option<f64>,
    suspect_to_rereplicated_ms: Option<f64>,
    /// Suspicions of a machine nobody killed; one before the kill spoils
    /// the trial.
    false_suspicions: usize,
    spoiled: bool,
    /// What the conservation audits of this trial found, if anything.
    torn: Vec<String>,
    stats: EngineStatsSnapshot,
    attempted: u64,
    failed: u64,
    spans: Vec<Span>,
}

/// Snapshot-reads every account on `node`; the sum must be `TOTAL`. What
/// is wrong goes to `torn`.
fn audit_conservation(torn: &mut Vec<String>, node: &Arc<NodeEngine>, accounts: &[Addr]) {
    let result = node.run_transaction(TxOptions::serializable(), |tx| {
        let mut sum = 0u64;
        for &addr in accounts {
            sum += balance(&tx.read(addr)?);
        }
        Ok(sum)
    });
    // An exhausted retry budget during the outage is not a wrong answer.
    if let Ok((sum, info)) = result {
        if sum != TOTAL {
            torn.push(format!(
                "snapshot at read_ts {} sums to {sum}, not {TOTAL}",
                info.read_ts
            ));
        }
    }
}

/// Where the money of a torn trial went: every committed transfer moves an
/// account by one, so two successive acknowledged writes to an account whose
/// post-images are not one apart have a lost (or unacknowledged) write
/// between them. Client B's last transfer may have committed without its
/// acknowledgement reaching B, so one such gap per account B touched last
/// is innocent.
fn lost_update_hints(acked: &[Acked]) -> Vec<String> {
    let mut by_account: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
    for &(ts, account, post) in acked {
        by_account.entry(account).or_default().push((ts, post));
    }
    let mut hints = Vec::new();
    for (account, mut writes) in by_account {
        writes.sort_unstable();
        for pair in writes.windows(2) {
            let ((ts0, post0), (ts1, post1)) = (pair[0], pair[1]);
            if post0.abs_diff(post1) != 1 {
                hints.push(format!(
                    "account {account}: {post0} at write_ts {ts0}, then {post1} at write_ts {ts1}"
                ));
            }
        }
    }
    hints.sort();
    hints
}

fn run_trial(args: &RunArgs, trial: u64, traced: bool, epoch: Instant, out: &mut Outcome) -> Trial {
    let setup_start = Instant::now();
    let engine = Engine::start_cluster(system::recovery_cluster(), EngineConfig::multi_version());
    let regions = engine.cluster().regions();
    let mut tx = engine.node(NodeId(0)).begin();
    let accounts: Vec<Addr> = (0..RECOVERY_ACCOUNTS)
        .map(|i| {
            tx.alloc_in(
                regions[i % regions.len()],
                RECOVERY_INITIAL_BALANCE.to_le_bytes().to_vec(),
            )
            .expect("account allocation")
        })
        .collect();
    tx.commit().expect("account commit");
    engine.quiesce();
    let setup_s = setup_start.elapsed().as_secs_f64();

    // Every machine takes its turn as victim, n0 — the configuration
    // manager and clock master — included.
    let victim = NodeId((trial % RECOVERY_NODES as u64) as u32);
    let survivor = engine.node(NodeId((victim.0 + 1) % RECOVERY_NODES as u32));
    let doomed = engine.node(victim);
    let stop = AtomicBool::new(false);
    let mut torn = Vec::new();
    let trial_start = Instant::now();
    let since = |t: Instant| t.duration_since(trial_start).as_micros() as u64;

    let (log_a, log_b, kill_at, end_at, rereplicated) = std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            let gen = OpGen::new(Workload::Recovery, args.seed, 2 * trial);
            let recorder = traced.then(|| Recorder::new(epoch, trial + 1));
            client(&survivor, &accounts, gen, &stop, trial_start, recorder)
        });
        let b = scope.spawn(|| {
            let gen = OpGen::new(Workload::Recovery, args.seed, 2 * trial + 1);
            client(&doomed, &accounts, gen, &stop, trial_start, None)
        });
        // The main thread audits conservation on live snapshots throughout.
        let audit_until = |until: &dyn Fn() -> bool, torn: &mut Vec<String>| {
            let mut last_audit = Instant::now();
            while !until() {
                if last_audit.elapsed() >= AUDIT_EVERY {
                    audit_conservation(torn, &survivor, &accounts);
                    last_audit = Instant::now();
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        };
        audit_until(&|| trial_start.elapsed() >= LOAD, &mut torn);
        let before_kill = engine.cluster().events().snapshot();
        let kill_at = Instant::now();
        engine.cluster().kill(victim);
        let done = |engine: &Engine| {
            engine.cluster().events().snapshot()[before_kill.len()..]
                .iter()
                .any(|e| matches!(e.kind, EventKind::RereplicationComplete))
        };
        audit_until(
            &|| done(&engine) || kill_at.elapsed() >= GIVE_UP,
            &mut torn,
        );
        let rereplicated = done(&engine);
        let tail_start = Instant::now();
        audit_until(&|| tail_start.elapsed() >= LOAD, &mut torn);
        let end_at = Instant::now();
        stop.store(true, Ordering::Release);
        (
            a.join().expect("client A panicked"),
            b.join().expect("client B panicked"),
            kill_at,
            end_at,
            rereplicated,
        )
    });

    // ---- Timeline -------------------------------------------------------
    let (kill_us, end_us) = (since(kill_at), since(end_at));
    let rate_from_us = RATE_FROM.as_micros() as u64;
    let commits = &log_a.commits_us;
    let pre = commits
        .iter()
        .filter(|&&t| t >= rate_from_us && t < kill_us)
        .count();
    let events = engine.cluster().events().snapshot();
    let first_after = |from: Option<Instant>, pred: &dyn Fn(&EventKind) -> bool| {
        let from = from?;
        events
            .iter()
            .find(|e| e.at >= from && pred(&e.kind))
            .map(|e| e.at)
    };
    let suspected = first_after(
        Some(kill_at),
        &|k| matches!(k, EventKind::Suspected(n) if *n == victim),
    );
    let ms_since = |from: Option<Instant>, to: Option<Instant>| {
        Some(to?.duration_since(from?).as_secs_f64() * 1e3)
    };
    let false_suspicions = system::false_suspicions(&engine, Some(victim));
    let spoiled = events
        .iter()
        .any(|e| e.at < kill_at && matches!(e.kind, EventKind::Suspected(_)));
    if !rereplicated {
        out.violation(format!(
            "trial {trial}: redundancy not restored {GIVE_UP:?} after killing {victim:?}"
        ));
    }

    // ---- Final state ------------------------------------------------------
    system::quiesce_checked(out, &engine);
    audit_conservation(&mut torn, &survivor, &accounts);
    if !torn.is_empty() {
        eprintln!(
            "TORN: trial {trial} (seed {}, victim {victim:?}): {} of its snapshots are off, first: {}",
            args.seed,
            torn.len(),
            torn[0]
        );
        let acked: Vec<Acked> = log_a.acked.iter().chain(&log_b.acked).copied().collect();
        for hint in lost_update_hints(&acked).iter().take(8) {
            eprintln!("TORN: trial {trial}: {hint}");
        }
    }
    let mut tx = survivor.begin();
    let finals: Vec<Option<u64>> = accounts
        .iter()
        .map(|&a| tx.read(a).ok().map(|b| balance(&b)))
        .collect();
    drop(tx);
    // Every acknowledged transfer is durable: each account holds the
    // post-image of the newest acknowledged write to it.
    let mut newest: HashMap<usize, (u64, u64)> = HashMap::new();
    for &(ts, account, post) in log_a.acked.iter().chain(&log_b.acked) {
        let entry = newest.entry(account).or_insert((0, 0));
        if ts >= entry.0 {
            *entry = (ts, post);
        }
    }
    for (account, (ts, post)) in newest {
        if finals[account] != Some(post) {
            out.violation(format!(
                "trial {trial}: account {account} holds {:?}, newest acknowledged write (ts {ts}) left {post}",
                finals[account]
            ));
        }
    }
    for &addr in &accounts {
        let primary = engine.cluster().primary_of(addr.region);
        let alive = primary.is_some_and(|p| engine.cluster().node(p).is_alive());
        if !alive {
            out.violation(format!(
                "trial {trial}: region {:?} has no live primary",
                addr.region
            ));
            continue;
        }
        let node = engine.cluster().node(primary.expect("checked alive"));
        let locked = node
            .regions()
            .ensure(addr.region)
            .slot(addr)
            .map_or(true, |s| s.header_snapshot().locked);
        if locked {
            out.violation(format!("trial {trial}: {addr:?} left locked"));
        }
    }

    let measured = Trial {
        setup_s,
        pre_rate: pre as f64 / (kill_us - rate_from_us) as f64 * 1e6,
        recover90_us: stats::recover90_us(commits, rate_from_us, kill_us, end_us),
        watched_us: end_us - kill_us,
        blackout_us: stats::blackout_us(commits, kill_us, end_us),
        first_commit_us: commits.iter().find(|&&t| t >= kill_us).map(|t| t - kill_us),
        kill_to_suspect_ms: ms_since(Some(kill_at), suspected),
        suspect_to_config_ms: ms_since(
            suspected,
            first_after(suspected, &|k| {
                matches!(k, EventKind::ConfigCommitted { .. })
            }),
        ),
        suspect_to_unblocked_ms: ms_since(
            suspected,
            first_after(suspected, &|k| {
                matches!(k, EventKind::RegionsUnblocked { .. })
            }),
        ),
        suspect_to_rereplicated_ms: ms_since(
            suspected,
            first_after(suspected, &|k| {
                matches!(k, EventKind::RereplicationComplete)
            }),
        ),
        false_suspicions,
        spoiled,
        torn,
        stats: engine.aggregate_stats(),
        attempted: log_a.attempted,
        failed: log_a.failed,
        spans: log_a.spans,
    };
    system::stop(&engine);
    eprintln!(
        "trial {trial}: victim {victim:?} pre-kill {:.0}/s recover90 {:?} us (watched {} us) blackout {} us{}",
        measured.pre_rate,
        measured.recover90_us,
        measured.watched_us,
        measured.blackout_us,
        if measured.spoiled {
            " SPOILED by a suspicion before the kill"
        } else {
            ""
        }
    );
    measured
}

fn median_of<'a>(
    trials: impl IntoIterator<Item = &'a Trial>,
    f: impl Fn(&Trial) -> Option<f64>,
) -> Option<f64> {
    stats::median(&trials.into_iter().filter_map(f).collect::<Vec<f64>>())
}

pub fn run(args: &RunArgs, epoch: Instant, out: &mut Outcome) {
    // Trials run until the window is used up (a trial takes ≈ 0.3 s), at
    // least three; a traced run spends the first 40 % of the window on
    // untraced reference trials and the rest on traced ones.
    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut longest = Duration::ZERO;
    let mut count = 0;
    let mut trials_until =
        |deadline: Duration, at_least: usize, traced: bool, out: &mut Outcome| {
            let mut trials = Vec::new();
            while trials.len() < at_least || started.elapsed() + longest <= deadline {
                let t = Instant::now();
                trials.push(run_trial(args, count, traced, epoch, out));
                longest = longest.max(t.elapsed());
                count += 1;
            }
            trials
        };
    let (reference, traced) = if args.trace {
        let reference = trials_until(budget.mul_f64(0.4), 2, false, out);
        (reference, trials_until(budget, 2, true, out))
    } else {
        (trials_until(budget, 3, false, out), Vec::new())
    };

    // ---- End to end: the untraced trials ------------------------------------
    // A trial in which client A never got back to 90 % is not dropped: its
    // outage lasted at least as long as it was watched for, and it enters
    // the medians as that. About one trial in 250 on the seed, mostly ones
    // whose pre-kill rate was far above the usual; if recovery broke, every
    // trial would be one and `op_p50_us` would say so.
    let good = |t: &&Trial| !t.spoiled;
    let outages_us: Vec<f64> = reference
        .iter()
        .filter(good)
        .map(|t| t.recover90_us.unwrap_or(t.watched_us) as f64)
        .collect();
    let n = outages_us.len() as u64;
    out.set_some(
        "commit_per_s",
        median_of(&reference, |t| (!t.spoiled).then_some(t.pre_rate)),
    );
    out.set_some("op_p50_us", stats::median(&outages_us));
    let tail_rank = stats::tail_rank(n, stats::HEADLINE_TAIL);
    out.set_some("op_tail_us", stats::nth(&outages_us, tail_rank));
    out.set(
        "tail_percentile",
        100.0 * tail_rank as f64 / n.max(1) as f64,
    );
    out.set_some("setup_s", median_of(&reference, |t| Some(t.setup_s)));
    let all = || reference.iter().chain(&traced);
    // The operations are client A's transfers; one fails when
    // `run_transaction` gives up on it. A trial that a false suspicion
    // spoiled before the kill is the host's doing: it is left out of the
    // medians and shows in `kernel.false_suspicions`.
    out.attempted = all().map(|t| t.attempted).sum();
    out.failed = all().map(|t| t.failed).sum();
    let torn: Vec<&Trial> = all().filter(|t| !t.torn.is_empty()).collect();
    if torn.len() > TORN_TRIALS_TOLERATED {
        for t in &torn {
            out.violation(format!("a torn trial, one of {}: {}", torn.len(), t.torn[0]));
        }
    }
    if !args.trace {
        return;
    }

    // ---- Per layer ----------------------------------------------------------------
    let trials: Vec<&Trial> = all().collect();
    let per_trial = |f: &dyn Fn(&EngineStatsSnapshot) -> u64| {
        trials.iter().map(|t| f(&t.stats)).sum::<u64>() as f64 / trials.len() as f64
    };
    let median_all = |f: &dyn Fn(&Trial) -> Option<f64>| median_of(all(), f);
    out.set_some(
        "recover90_ms",
        stats::median(&outages_us).map(|us| us / 1e3),
    );
    out.set_some(
        "kill_to_first_commit_ms",
        median_all(&|t| t.first_commit_us.map(|us| us as f64 / 1e3)),
    );
    out.set_some(
        "kernel.blackout_ms",
        median_all(&|t| Some(t.blackout_us as f64 / 1e3)),
    );
    out.set_some(
        "kernel.kill_to_suspect_ms",
        median_all(&|t| t.kill_to_suspect_ms),
    );
    out.set_some(
        "kernel.suspect_to_config_ms",
        median_all(&|t| t.suspect_to_config_ms),
    );
    out.set_some(
        "kernel.suspect_to_unblocked_ms",
        median_all(&|t| t.suspect_to_unblocked_ms),
    );
    out.set_some(
        "kernel.suspect_to_rereplicated_ms",
        median_all(&|t| t.suspect_to_rereplicated_ms),
    );
    out.set(
        "kernel.false_suspicions",
        trials.iter().map(|t| t.false_suspicions).sum::<usize>() as f64,
    );
    out.set("torn_trials", torn.len() as f64);
    out.set(
        "unrecovered_trials",
        all()
            .filter(|t| !t.spoiled && t.recover90_us.is_none())
            .count() as f64,
    );
    out.set(
        "kernel.backups_caught_up_per_trial",
        per_trial(&|s| s.backups_caught_up),
    );
    out.set(
        "core.tx.retries_absorbed_per_trial",
        per_trial(&|s| s.retries_absorbed),
    );
    out.set(
        "core.commit.orphans_forward_per_trial",
        per_trial(&|s| s.orphans_rolled_forward),
    );
    out.set(
        "core.commit.orphans_back_per_trial",
        per_trial(&|s| s.orphans_rolled_back),
    );
    let total = trials
        .iter()
        .fold(EngineStatsSnapshot::default(), |acc, t| {
            acc.merged(&t.stats)
        });
    let attempts = total.commits() + total.aborts();
    out.set(
        "failed_share",
        total.aborts() as f64 / attempts.max(1) as f64,
    );
    out.set(
        "attempts_per_op",
        attempts as f64 / total.commits().max(1) as f64,
    );

    let base = median_of(&reference, |t| Some(t.pre_rate)).unwrap_or(0.0);
    let with_trace = median_of(&traced, |t| Some(t.pre_rate)).unwrap_or(0.0);
    if base > 0.0 {
        out.set("trace.overhead_share", 1.0 - with_trace / base);
    }
    let spans: Vec<Vec<Span>> = traced.into_iter().map(|t| t.spans).collect();
    out.set(
        "trace_samples",
        spans.iter().map(Vec::len).sum::<usize>() as f64,
    );
    crate::run::write_trace(Workload::Recovery, &spans);
    // A transfer runs inside `run_transaction`, which the driver cannot see
    // into: root spans only, so `trace.coverage` stays 0 here.
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lost_update_shows_as_a_gap_between_acknowledged_writes() {
        // Account 3 goes 1000 → 999 → 998; account 5 goes 1001, then 1001
        // again: the write in between never showed.
        let acked: Vec<Acked> = vec![
            (20, 3, 998),
            (10, 3, 999),
            (10, 5, 1001),
            (30, 5, 1001),
            (40, 7, 1000),
        ];
        assert_eq!(
            lost_update_hints(&acked),
            ["account 5: 1001 at write_ts 10, then 1001 at write_ts 30"]
        );
    }
}
