//! The closed loop: client threads that each run one operation after
//! another (a caller waits for its reply before sending the next), stepped
//! through warm-up and one or two measured phases by the main thread.
//!
//! An untraced run has one measured phase. A traced run has two on the same
//! loaded cluster: an untraced *reference* phase, which gives the per-op
//! numbers and the base of `trace.overhead_share`, then the *traced* phase,
//! in which the clients record spans.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::stats::{self, Histogram};
use crate::trace::{Recorder, Span};

/// Op classes a client may report: 0 is the workload's headline operation,
/// 1 its second kind, 2 everything else.
pub const CLASSES: usize = 3;

const WARMUP: u8 = 0;
const REFERENCE: u8 = 1;
const TRACED: u8 = 2;
const STOP: u8 = 3;

/// How long each phase lasts.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    pub warmup: Duration,
    /// The untraced measured phase (the only one of an untraced run).
    pub reference: Duration,
    /// The traced measured phase; `None` in an untraced run.
    pub traced: Option<Duration>,
}

impl Phases {
    /// Splits `--seconds` as the run modes need it. Warm-up is 2 s per 15 s
    /// of window (ISSUE 11's proportion), on top of the measured time. A
    /// traced run spends 40 % of its window on the untraced reference.
    pub fn new(seconds: f64, traced: bool) -> Phases {
        let warmup = Duration::from_secs_f64(seconds * 2.0 / 15.0);
        if traced {
            Phases {
                warmup,
                reference: Duration::from_secs_f64(seconds * 0.4),
                traced: Some(Duration::from_secs_f64(seconds * 0.6)),
            }
        } else {
            Phases {
                warmup,
                reference: Duration::from_secs_f64(seconds),
                traced: None,
            }
        }
    }
}

/// Throughput is the median over time slices of the phase, so one stall
/// (a scheduler hiccup on a shared host) moves one slice, not the result.
fn slice_count(phase: Duration) -> usize {
    ((phase.as_secs_f64() / 0.2) as usize).clamp(1, 20)
}

struct Control {
    phase: AtomicU8,
    /// Start of each measured phase, ns since `epoch`.
    start_ns: [AtomicU64; 2],
    slice_ns: [u64; 2],
    slices: [usize; 2],
    epoch: Instant,
}

/// What one thread saw in one measured phase.
#[derive(Clone)]
pub struct PhaseStats {
    /// Commits per time slice and class.
    commits: Vec<[u64; CLASSES]>,
    latency: [Histogram; CLASSES],
    /// The headline class's latencies once more, per time slice: its tail
    /// is taken per slice and the median reported, so that a burst of
    /// interference from the host moves a few slices and not the result.
    headline_by_slice: Vec<Histogram>,
    pub ops: u64,
    pub failed: u64,
    pub attempts: u64,
}

impl PhaseStats {
    fn new(slices: usize) -> PhaseStats {
        PhaseStats {
            commits: vec![[0; CLASSES]; slices],
            latency: Default::default(),
            headline_by_slice: vec![Histogram::default(); slices],
            ops: 0,
            failed: 0,
            attempts: 0,
        }
    }

    fn merge(&mut self, other: &PhaseStats) {
        for (a, b) in self.commits.iter_mut().zip(&other.commits) {
            for c in 0..CLASSES {
                a[c] += b[c];
            }
        }
        for c in 0..CLASSES {
            self.latency[c].merge(&other.latency[c]);
        }
        for (a, b) in self
            .headline_by_slice
            .iter_mut()
            .zip(&other.headline_by_slice)
        {
            a.merge(b);
        }
        self.ops += other.ops;
        self.failed += other.failed;
        self.attempts += other.attempts;
    }
}

/// A measured phase, all threads merged.
pub struct PhaseResult {
    stats: PhaseStats,
    slice: Duration,
}

impl PhaseResult {
    pub fn stats(&self) -> &PhaseStats {
        &self.stats
    }

    /// Committed operations per second of `classes` in each time slice.
    pub fn slice_rates(&self, classes: &[usize]) -> Vec<f64> {
        self.stats
            .commits
            .iter()
            .map(|s| classes.iter().map(|&c| s[c]).sum::<u64>() as f64 / self.slice.as_secs_f64())
            .collect()
    }

    /// Committed operations per second of `classes`: median over slices.
    pub fn rate(&self, classes: &[usize]) -> f64 {
        stats::median(&self.slice_rates(classes)).unwrap_or(0.0)
    }

    pub fn p50_us(&self, class: usize) -> Option<f64> {
        let h = &self.stats.latency[class];
        h.rank_ns(stats::median_rank(h.count())).map(|ns| ns / 1e3)
    }

    /// p99 of `class` over the whole phase, or the highest percentile the
    /// sample supports (see [`stats::tail_rank`]), and the percentile it is.
    pub fn p99_us(&self, class: usize) -> Option<(f64, f64)> {
        Self::tail_of(&self.stats.latency[class], 99)
    }

    /// Tail latency of the headline class: the median over time slices of
    /// each slice's tail, with the median of the percentiles they are.
    pub fn headline_tail_us(&self) -> Option<(f64, f64)> {
        let tails: Vec<(f64, f64)> = self
            .stats
            .headline_by_slice
            .iter()
            .filter_map(|h| Self::tail_of(h, stats::HEADLINE_TAIL))
            .collect();
        let column = |f: fn(&(f64, f64)) -> f64| tails.iter().map(f).collect::<Vec<f64>>();
        Some((
            stats::median(&column(|t| t.0))?,
            stats::median(&column(|t| t.1))?,
        ))
    }

    fn tail_of(h: &Histogram, cap: u64) -> Option<(f64, f64)> {
        let rank = stats::tail_rank(h.count(), cap);
        h.rank_ns(rank)
            .map(|ns| (ns / 1e3, 100.0 * rank as f64 / h.count() as f64))
    }

    /// Aborted attempts / attempts.
    pub fn failed_share(&self) -> f64 {
        let s = &self.stats;
        if s.attempts == 0 {
            return 0.0;
        }
        // Every op that completed spent exactly one attempt succeeding.
        (s.attempts - (s.ops - s.failed)) as f64 / s.attempts as f64
    }
}

/// A client thread's view of the run: where it reports completed operations
/// and, in the traced phase, records spans.
pub struct Lane {
    ctl: Arc<Control>,
    phase: u8,
    stats: [PhaseStats; 2],
    recorder: Option<Recorder>,
}

impl Lane {
    /// The span recorder, while the traced phase is on.
    pub fn tracing(&mut self) -> Option<&mut Recorder> {
        if self.phase == TRACED {
            self.recorder.as_mut()
        } else {
            None
        }
    }

    /// Reports one operation that began at `started` and ended now, after
    /// `attempts` tries. Counted in the phase its step began in, in the time
    /// slice it ended in; ignored during warm-up and past the phase's end.
    pub fn complete(&mut self, class: usize, started: Instant, attempts: u32, ok: bool) {
        if self.phase != REFERENCE && self.phase != TRACED {
            return;
        }
        let p = (self.phase - REFERENCE) as usize;
        let now = Instant::now();
        let end_ns = now.duration_since(self.ctl.epoch).as_nanos() as u64;
        let since = end_ns.saturating_sub(self.ctl.start_ns[p].load(Ordering::Acquire));
        let slice = (since / self.ctl.slice_ns[p]) as usize;
        if slice >= self.ctl.slices[p] {
            return;
        }
        let stats = &mut self.stats[p];
        stats.ops += 1;
        stats.attempts += attempts as u64;
        if ok {
            let ns = now.duration_since(started).as_nanos() as u64;
            stats.commits[slice][class] += 1;
            stats.latency[class].record(ns);
            if class == 0 {
                stats.headline_by_slice[slice].record(ns);
            }
        } else {
            stats.failed += 1;
        }
    }
}

/// One closed-loop client. `step` runs (at least) one operation and reports
/// what completed through [`Lane::complete`].
pub trait Client: Send {
    fn step(&mut self, lane: &mut Lane);

    /// Called once after the last step (a pipeline drains here).
    fn finish(&mut self, _lane: &mut Lane) {}
}

pub struct RunOutput<C, S> {
    pub clients: Vec<C>,
    pub reference: PhaseResult,
    pub traced: Option<PhaseResult>,
    /// Spans per client thread (empty in an untraced run).
    pub spans: Vec<Vec<Span>>,
    /// `snapshot()` at the start and at the end of the last measured phase.
    pub before: S,
    pub after: S,
}

/// Runs `clients`, one thread each, through `phases`. `snapshot` reads the
/// system's counters; it is called on the main thread at the two edges of
/// the last measured phase.
pub fn run_clients<C: Client, S>(
    clients: Vec<C>,
    phases: Phases,
    epoch: Instant,
    mut snapshot: impl FnMut() -> S,
) -> RunOutput<C, S> {
    let durations = [phases.reference, phases.traced.unwrap_or(Duration::ZERO)];
    let slices = durations.map(slice_count);
    let ctl = Arc::new(Control {
        phase: AtomicU8::new(WARMUP),
        start_ns: [AtomicU64::new(0), AtomicU64::new(0)],
        slice_ns: [0, 1].map(|p| (durations[p].as_nanos() as u64 / slices[p] as u64).max(1)),
        slices,
        epoch,
    });
    let enter = |phase: u8| {
        if phase == REFERENCE || phase == TRACED {
            let now = epoch.elapsed().as_nanos() as u64;
            ctl.start_ns[(phase - REFERENCE) as usize].store(now, Ordering::Release);
        }
        ctl.phase.store(phase, Ordering::Release);
    };

    let (finished, before, after) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, mut client)| {
                let mut lane = Lane {
                    ctl: Arc::clone(&ctl),
                    phase: WARMUP,
                    stats: slices.map(PhaseStats::new),
                    recorder: phases.traced.map(|_| Recorder::new(epoch, i as u64 + 1)),
                };
                scope.spawn(move || {
                    loop {
                        lane.phase = lane.ctl.phase.load(Ordering::Acquire);
                        if lane.phase == STOP {
                            break;
                        }
                        client.step(&mut lane);
                    }
                    client.finish(&mut lane);
                    (client, lane)
                })
            })
            .collect();

        std::thread::sleep(phases.warmup);
        let mut before = None;
        if phases.traced.is_none() {
            before = Some(snapshot());
        }
        enter(REFERENCE);
        std::thread::sleep(phases.reference);
        if let Some(traced) = phases.traced {
            before = Some(snapshot());
            enter(TRACED);
            std::thread::sleep(traced);
        }
        enter(STOP);
        let after = snapshot();
        let finished: Vec<(C, Lane)> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (finished, before.expect("set in either mode"), after)
    });

    let mut merged = slices.map(PhaseStats::new);
    let mut out_clients = Vec::new();
    let mut spans = Vec::new();
    for (client, lane) in finished {
        for (all, one) in merged.iter_mut().zip(&lane.stats) {
            all.merge(one);
        }
        spans.push(lane.recorder.map(Recorder::into_spans).unwrap_or_default());
        out_clients.push(client);
    }
    let [reference, traced] = merged;
    let result = |stats, p: usize| PhaseResult {
        stats,
        slice: Duration::from_nanos(ctl.slice_ns[p]),
    };
    RunOutput {
        clients: out_clients,
        reference: result(reference, 0),
        traced: phases.traced.map(|_| result(traced, 1)),
        spans,
        before,
        after,
    }
}

/// Runs `f` inside a child span named `name` when tracing is on.
pub fn in_span<T>(rec: &mut Option<&mut Recorder>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(r) => {
            let open = r.open();
            let v = f();
            r.close(open, name);
            v
        }
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Completes one op per step, every `period`; class alternates.
    struct Ticker {
        period: Duration,
        n: u64,
    }

    impl Client for Ticker {
        fn step(&mut self, lane: &mut Lane) {
            let started = Instant::now();
            if let Some(rec) = lane.tracing() {
                let root = rec.root();
                rec.close_root(root, "tick", true);
            }
            std::thread::sleep(self.period);
            self.n += 1;
            // Every fourth op needs a second attempt; every 50th fails.
            let attempts = if self.n.is_multiple_of(4) { 2 } else { 1 };
            lane.complete(
                (self.n % 2) as usize,
                started,
                attempts,
                !self.n.is_multiple_of(50),
            );
        }
    }

    #[test]
    fn phases_slices_and_rates() {
        let phases = Phases {
            warmup: Duration::from_millis(50),
            reference: Duration::from_millis(400),
            traced: Some(Duration::from_millis(400)),
        };
        let clients = (0..2)
            .map(|_| Ticker {
                period: Duration::from_millis(2),
                n: 0,
            })
            .collect();
        let mut calls = 0;
        let out = run_clients(clients, phases, Instant::now(), || {
            calls += 1;
            calls
        });
        assert_eq!((out.before, out.after), (1, 2));
        let traced = out.traced.as_ref().unwrap();
        for phase in [&out.reference, traced] {
            // 2 threads × ≤ 500 ops/s, both classes together.
            let rate = phase.rate(&[0, 1]);
            assert!((300.0..=1_000.0).contains(&rate), "rate {rate}");
            assert!((phase.rate(&[0]) - rate / 2.0).abs() < rate * 0.2);
            let p50 = phase.p50_us(0).unwrap();
            assert!((2_000.0..6_000.0).contains(&p50), "p50 {p50}");
            for (tail, pct) in [phase.p99_us(0).unwrap(), phase.headline_tail_us().unwrap()] {
                assert!(
                    tail >= p50 * 0.9 && (50.0..=99.0).contains(&pct),
                    "{tail} {pct}"
                );
            }
            assert_eq!(phase.p99_us(2), None);
            assert_eq!(phase.p50_us(2), None);
            let s = phase.stats();
            assert!(s.failed > 0 && s.failed < s.ops / 20);
            // A quarter of the ops took two attempts: 1/5 of attempts
            // aborted, plus the failed ops' last attempts.
            assert!(
                (phase.failed_share() - 0.2).abs() < 0.05,
                "{}",
                phase.failed_share()
            );
        }
        // Spans only from the traced phase: about as many as its ops.
        let spans: usize = out.spans.iter().map(Vec::len).sum();
        let ops = traced.stats().ops as usize;
        assert!(
            spans >= ops && spans <= ops + 4,
            "{spans} spans for {ops} ops"
        );
        assert!(out.clients.iter().all(|c| c.n > 100));
    }

    #[test]
    fn untraced_run_has_one_phase_and_no_spans() {
        let phases = Phases::new(0.3, false);
        assert!(phases.traced.is_none());
        let out = run_clients(
            vec![Ticker {
                period: Duration::from_millis(1),
                n: 0,
            }],
            phases,
            Instant::now(),
            || (),
        );
        assert!(out.traced.is_none());
        assert!(out.spans[0].is_empty());
        assert!(out.reference.stats().ops > 50);
    }

    #[test]
    fn seconds_split_between_the_phases() {
        let p = Phases::new(15.0, false);
        assert_eq!(
            (p.warmup, p.reference),
            (Duration::from_secs(2), Duration::from_secs(15))
        );
        let p = Phases::new(10.0, true);
        assert_eq!(p.reference + p.traced.unwrap(), Duration::from_secs(10));
        assert_eq!(slice_count(Duration::from_secs(10)), 20);
        assert_eq!(slice_count(Duration::from_secs(1)), 5);
        assert_eq!(slice_count(Duration::from_millis(50)), 1);
    }
}
