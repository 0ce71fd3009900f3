//! Spans recorded by the benchmark's own driver around calls into each
//! layer. Each client thread keeps its spans in a fixed ring in its own
//! memory (so the cost per span is constant and a fast workload cannot grow
//! the process); the rings are merged, reduced to self times and written out
//! after the run.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::stats;

/// Spans kept per client thread: the most recent ones win.
pub const RING_SPANS: usize = 1 << 18;
/// Spans per client thread written to the trace file (the tail of the ring).
const FILE_SPANS: usize = 20_000;

/// `(trace id, span id, parent, name, start, end)`; times are nanoseconds
/// since the run's epoch. A root span has `parent == 0`; `ok` is false on
/// the root of a transaction that aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub trace: u64,
    pub span: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ok: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span recorder. Trace ids are unique across threads: the
/// thread's lane sits in the top bits.
pub struct Recorder {
    epoch: Instant,
    ring: Vec<Span>,
    next: usize,
    next_trace: u64,
    /// Span ids handed out within the open trace.
    next_span: u32,
}

/// An open span: its id and when it began.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u32,
    start_ns: u64,
}

impl Recorder {
    pub fn new(epoch: Instant, lane: u64) -> Recorder {
        Recorder {
            epoch,
            ring: Vec::with_capacity(RING_SPANS),
            next: 0,
            next_trace: lane << 48,
            next_span: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of a new trace.
    pub fn root(&mut self) -> Open {
        self.next_trace += 1;
        self.next_span = 1;
        Open {
            id: 1,
            start_ns: self.now_ns(),
        }
    }

    /// Opens a child span in the current trace.
    pub fn open(&mut self) -> Open {
        self.next_span += 1;
        Open {
            id: self.next_span,
            start_ns: self.now_ns(),
        }
    }

    /// Closes `open` as a child of the root.
    pub fn close(&mut self, open: Open, name: &'static str) {
        let end_ns = self.now_ns();
        self.push(open, 1, name, end_ns, true);
    }

    /// Closes the root span; returns its end time so the caller can reuse
    /// the clock read.
    pub fn close_root(&mut self, open: Open, name: &'static str, ok: bool) -> u64 {
        let end_ns = self.now_ns();
        self.push(open, 0, name, end_ns, ok);
        end_ns
    }

    fn push(&mut self, open: Open, parent: u32, name: &'static str, end_ns: u64, ok: bool) {
        let span = Span {
            trace: self.next_trace,
            span: open.id,
            parent,
            name,
            start_ns: open.start_ns,
            end_ns,
            ok,
        };
        if self.ring.len() < RING_SPANS {
            self.ring.push(span);
        } else {
            self.ring[self.next] = span;
        }
        self.next = (self.next + 1) % RING_SPANS;
    }

    /// The retained spans, oldest first. The oldest trace may have lost its
    /// first spans to the ring; [`self_times`] drops traces without a root
    /// and a root's missing children only shrink its covered share.
    pub fn into_spans(mut self) -> Vec<Span> {
        if self.ring.len() == RING_SPANS {
            self.ring.rotate_left(self.next);
            // Drop the (possibly cut) oldest trace.
            let first = self.ring[0].trace;
            let cut = self.ring.iter().position(|s| s.trace != first).unwrap_or(0);
            self.ring.drain(..cut);
        }
        self.ring
    }
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover (overlapping children are not counted twice). Spans of
/// one trace must be adjacent, as a [`Recorder`] leaves them.
pub fn self_times(spans: &[Span]) -> Vec<(Span, u64)> {
    let mut out = Vec::with_capacity(spans.len());
    for trace in spans.chunk_by(|a, b| a.trace == b.trace) {
        for s in trace {
            let mut kids: Vec<(u64, u64)> = trace
                .iter()
                .filter(|c| c.parent == s.span)
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            out.push((*s, s.duration_ns() - covered));
        }
    }
    out
}

/// What the spans of a run add up to.
pub struct Summary {
    /// Median self time per span name, over traces whose root is `ok`.
    pub median_self_ns: BTreeMap<&'static str, f64>,
    /// Σ self time of non-root spans / Σ root durations: the share of
    /// transaction time the layer spans account for.
    pub coverage: f64,
}

/// Reduces the spans of all client threads (one list per thread).
pub fn summarize(threads: &[Vec<Span>]) -> Summary {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut child_self, mut root_total) = (0u64, 0u64);
    let with_self: Vec<(Span, u64)> = threads.iter().flat_map(|t| self_times(t)).collect();
    // Trace ids differ between threads, so traces stay adjacent.
    for trace in with_self.chunk_by(|a, b| a.0.trace == b.0.trace) {
        let Some((root, _)) = trace.iter().find(|(s, _)| s.parent == 0) else {
            continue;
        };
        if !root.ok {
            continue;
        }
        root_total += root.duration_ns();
        for (s, self_ns) in trace {
            by_name.entry(s.name).or_default().push(*self_ns as f64);
            if s.parent != 0 {
                child_self += self_ns;
            }
        }
    }
    Summary {
        median_self_ns: by_name
            .into_iter()
            .map(|(name, v)| (name, stats::median(&v).expect("non-empty by construction")))
            .collect(),
        coverage: if root_total == 0 {
            0.0
        } else {
            child_self as f64 / root_total as f64
        },
    }
}

/// Writes the tail of each thread's spans as JSON lines.
pub fn write_jsonl(path: &Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for spans in threads {
        for s in &spans[spans.len().saturating_sub(FILE_SPANS)..] {
            writeln!(
                out,
                "{{\"trace\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"ok\":{}}}",
                s.trace, s.span, s.parent, s.name, s.start_ns, s.end_ns, s.ok
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            trace,
            span: id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            ok: true,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(1, 2, 1, "begin", 10, 30),
            span(1, 3, 1, "get", 40, 90),
            // Overlaps `get` by 10 and runs past the root's end.
            span(1, 4, 1, "commit", 80, 120),
            span(1, 1, 0, "tx", 0, 100),
        ];
        let st = self_times(&spans);
        let self_of = |name: &str| st.iter().find(|(s, _)| s.name == name).unwrap().1;
        assert_eq!(self_of("begin"), 20);
        assert_eq!(self_of("get"), 50);
        assert_eq!(self_of("commit"), 40);
        // Root: 100 − (20 + 50 + the 10 of `commit` inside the root not
        // already covered by `get`) = 20.
        assert_eq!(self_of("tx"), 20);
    }

    #[test]
    fn summary_takes_medians_and_coverage_over_committed_traces() {
        let mut spans = Vec::new();
        for (t, get) in [(1u64, 50u64), (2, 70), (3, 60)] {
            spans.push(span(t, 2, 1, "get", 10, 10 + get));
            spans.push(span(t, 1, 0, "tx", 0, 100));
        }
        // An aborted trace is left out of medians and coverage.
        spans.push(span(4, 2, 1, "get", 0, 1_000));
        spans.push(Span {
            ok: false,
            ..span(4, 1, 0, "tx", 0, 1_000)
        });
        // A trace that lost its root to the ring is left out too.
        spans.push(span(5, 2, 1, "get", 0, 5));
        let s = summarize(&[spans]);
        assert_eq!(s.median_self_ns["get"], 60.0);
        assert_eq!(s.median_self_ns["tx"], 40.0);
        assert!((s.coverage - 180.0 / 300.0).abs() < 1e-12);
    }

    #[test]
    fn ring_keeps_the_newest_whole_traces() {
        let mut r = Recorder::new(Instant::now(), 3);
        let traces = RING_SPANS / 2 + 10;
        for _ in 0..traces {
            let root = r.root();
            let child = r.open();
            r.close(child, "c");
            r.close_root(root, "r", true);
        }
        let spans = r.into_spans();
        assert!(spans.len() <= RING_SPANS && spans.len() >= RING_SPANS - 2);
        assert_eq!(spans[0].name, "c", "starts at a whole trace");
        assert_eq!(spans.last().unwrap().trace, (3 << 48) + traces as u64);
        assert!(spans.windows(2).all(|w| w[0].trace <= w[1].trace));
        let s = summarize(&[spans]);
        assert!(s.coverage > 0.0 && s.coverage <= 1.0);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-trace-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        write_jsonl(&path, &[vec![span(1, 1, 0, "tx", 0, 5)], vec![]]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            "{\"trace\":1,\"span\":1,\"parent\":0,\"name\":\"tx\",\"start_ns\":0,\"end_ns\":5,\"ok\":true}\n"
        );
        std::fs::remove_dir_all(dir).unwrap();
    }
}
