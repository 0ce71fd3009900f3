//! `kv_pipeline_dc`: one client thread keeps a depth-8 `CommitPipeline`
//! full of single-object blind overwrites whose primaries and backups are
//! all remote, under datacenter latency.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use farm_core::{
    Addr, CommitPipeline, Engine, EngineConfig, NodeEngine, NodeId, PipelineTimings, TxOptions,
};
use farm_net::LatencyModel;

use crate::driver::{self, in_span, Client, Lane, Phases};
use crate::metrics::Outcome;
use crate::ops::{Op, OpGen, Workload, PIPELINE_DEPTH, PIPELINE_POOL};
use crate::run::{report_phases, RunArgs};
use crate::system::{self, Counters};

const COORDINATOR: NodeId = NodeId(0);
const PAYLOAD_BYTES: usize = 64;

pub struct Pipeline {
    pub engine: Arc<Engine>,
    /// The objects overwritten, spread over every region whose primary is
    /// not the coordinator.
    pub pool: Vec<Addr>,
}

pub fn setup() -> Pipeline {
    let config = EngineConfig {
        latency: LatencyModel::datacenter(),
        ..EngineConfig::default()
    };
    let engine = Engine::start_cluster(system::pipeline_cluster(), config);
    let remote: Vec<_> = engine
        .cluster()
        .regions()
        .into_iter()
        .filter(|&r| engine.cluster().primary_of(r) != Some(COORDINATOR))
        .collect();
    let node = engine.node(COORDINATOR);
    let mut tx = node.begin();
    let pool = (0..PIPELINE_POOL)
        .map(|slot| {
            tx.alloc_in(remote[slot % remote.len()], payload(slot as u32, 0, 0))
                .expect("pool allocation")
        })
        .collect();
    tx.commit().expect("pool commit");
    engine.quiesce();
    Pipeline { engine, pool }
}

/// `(slot, seq)` then filler: what the final check reads back.
fn payload(slot: u32, seq: u64, fill: u8) -> Vec<u8> {
    let mut v = vec![fill; PAYLOAD_BYTES];
    v[..4].copy_from_slice(&slot.to_le_bytes());
    v[4..12].copy_from_slice(&seq.to_le_bytes());
    v
}

pub struct PipelineClient {
    node: Arc<NodeEngine>,
    pool: Vec<Addr>,
    gen: OpGen,
    pipeline: CommitPipeline,
    /// Submit times of the commits in flight. Results come back in
    /// completion order, which under one latency model is submission order
    /// but for ties; the latency distribution does not depend on the match.
    in_flight: VecDeque<Instant>,
    seq: u64,
    /// Per slot, the seq of the last overwrite submitted.
    last_seq: Vec<u64>,
    aborted: u64,
    /// `pipeline.timings()` when the traced phase began and when the client
    /// stopped: the reactor's own cycle accounting over that phase.
    timings: [Option<PipelineTimings>; 2],
}

impl PipelineClient {
    fn collect(
        &mut self,
        results: Vec<Result<farm_core::CommitInfo, farm_core::TxError>>,
        lane: &mut Lane,
    ) {
        for result in results {
            let started = self.in_flight.pop_front().expect("one submit per result");
            if result.is_err() {
                self.aborted += 1;
            }
            lane.complete(0, started, 1, result.is_ok());
        }
    }
}

impl Client for PipelineClient {
    fn step(&mut self, lane: &mut Lane) {
        let Op::Overwrite { slot, fill } = self.gen.next_op() else {
            unreachable!("the pipeline stream holds only overwrites");
        };
        self.seq += 1;
        self.last_seq[slot as usize] = self.seq;
        let data = payload(slot, self.seq, fill);
        let mut rec = lane.tracing();
        if rec.is_some() && self.timings[0].is_none() {
            self.timings[0] = Some(self.pipeline.timings());
        }
        let root = rec.as_mut().map(|r| r.root());
        // Non-strict: a blind overwrite reads nothing, so it needs no read
        // snapshot to wait for.
        let opts = TxOptions::serializable_non_strict();
        let mut tx = in_span(&mut rec, "begin", || self.node.begin_with(opts));
        tx.overwrite(self.pool[slot as usize], data)
            .expect("a blind write buffers locally");
        self.in_flight.push_back(Instant::now());
        in_span(&mut rec, "pipeline.submit", || self.pipeline.submit(tx));
        if let (Some(r), Some(root)) = (rec, root) {
            r.close_root(root, "pipeline.tx", true);
        }
        let results = self.pipeline.take();
        self.collect(results, lane);
    }

    fn finish(&mut self, lane: &mut Lane) {
        self.timings[1] = Some(self.pipeline.timings());
        let results = self.pipeline.drain();
        self.collect(results, lane);
    }
}

pub fn run(p: &Pipeline, args: &RunArgs, epoch: Instant, out: &mut Outcome) {
    let node = p.engine.node(COORDINATOR);
    let client = PipelineClient {
        pipeline: node.pipeline(PIPELINE_DEPTH),
        node,
        pool: p.pool.clone(),
        gen: OpGen::new(Workload::KvPipelineDc, args.seed, 0),
        in_flight: VecDeque::new(),
        seq: 0,
        last_seq: vec![0; PIPELINE_POOL],
        aborted: 0,
        timings: [None, None],
    };
    let phases = Phases::new(args.seconds, args.trace);
    let mut run = driver::run_clients(vec![client], phases, epoch, || Counters::read(&p.engine));
    let client = run.clients.pop().expect("one client");

    report_phases(
        out,
        Workload::KvPipelineDc,
        &run.reference,
        run.traced.as_ref(),
        &[0],
        &run.spans,
    );
    if args.trace {
        if let [Some(a), Some(b)] = client.timings {
            let completed = (b.completed - a.completed).max(1) as f64;
            let busy = (b.busy_ns() - a.busy_ns()) as f64;
            let wall = busy + (b.wait_ns - a.wait_ns) as f64;
            let wakeups = b.wakeups - a.wakeups;
            out.set(
                "core.pipeline.serial_fraction",
                if wall > 0.0 { busy / wall } else { 0.0 },
            );
            out.set("core.pipeline.cpu_us_per_commit", busy / completed / 1e3);
            out.set(
                "core.pipeline.wakeups_per_commit",
                wakeups as f64 / completed,
            );
            out.set(
                "core.pipeline.coalesced_per_wakeup",
                (b.coalesced - a.coalesced) as f64 / wakeups.max(1) as f64,
            );
        }
    }

    // Every object must hold the last overwrite submitted to it; if a
    // commit aborted we cannot tell which, so then any earlier one passes.
    system::settle(
        out,
        &p.engine,
        args.trace.then_some((&run.before, &run.after)),
    );
    let node = p.engine.node(COORDINATOR);
    let mut tx = node.begin();
    for (slot, &addr) in p.pool.iter().enumerate() {
        let stored = tx.read(addr).ok().and_then(|data| {
            let got_slot = u32::from_le_bytes(data.get(..4)?.try_into().ok()?);
            let seq = u64::from_le_bytes(data.get(4..12)?.try_into().ok()?);
            Some((got_slot, seq))
        });
        let last = client.last_seq[slot];
        let ok = match stored {
            Some((s, seq)) if s as usize == slot => {
                seq == last || (client.aborted > 0 && seq < last)
            }
            _ => false,
        };
        if !ok {
            out.violation(format!(
                "pool object {slot} holds {stored:?}, last overwrite submitted was seq {last}"
            ));
        }
    }
    drop(tx);
}
