//! `ycsb_c`, `ycsb_a_dc`, `ycsb_scan_mv`: single-key gets and puts and
//! 100-key scans on one transactional B-tree, each its own transaction.

use std::sync::Arc;
use std::time::Instant;

use farm_core::{Engine, EngineConfig, NodeEngine, NodeId, TxError, TxOptions};
use farm_index::BTree;
use farm_net::LatencyModel;

use crate::driver::{self, in_span, Client, Lane, Phases};
use crate::metrics::Outcome;
use crate::ops::{Op, OpGen, Workload, YCSB_SCAN_LEN, YCSB_VALUE_BYTES};
use crate::run::{keep_trying, report_latency, report_phases, RunArgs};
use crate::system::{self, Counters};

/// Client id stamped on the values the loader writes.
const LOADER: u64 = u64::MAX;

/// What a value says about who wrote it: `(key, client, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    pub key: u64,
    pub client: u64,
    pub seq: u64,
}

pub fn encode(stamp: Stamp) -> Vec<u8> {
    let mut v = vec![(stamp.key % 251) as u8; YCSB_VALUE_BYTES];
    v[..8].copy_from_slice(&stamp.key.to_le_bytes());
    v[8..16].copy_from_slice(&stamp.client.to_le_bytes());
    v[16..24].copy_from_slice(&stamp.seq.to_le_bytes());
    v
}

pub fn decode(value: &[u8]) -> Option<Stamp> {
    let word = |i: usize| Some(u64::from_le_bytes(value.get(i..i + 8)?.try_into().ok()?));
    Some(Stamp {
        key: word(0)?,
        client: word(8)?,
        seq: word(16)?,
    })
}

pub struct Kv {
    pub engine: Arc<Engine>,
    pub tree: BTree,
}

pub fn engine_config(workload: Workload) -> EngineConfig {
    match workload {
        Workload::YcsbADc => EngineConfig {
            latency: LatencyModel::datacenter(),
            ..EngineConfig::default()
        },
        Workload::YcsbScanMv => EngineConfig::multi_version(),
        _ => EngineConfig::default(),
    }
}

/// Starts the cluster and loads `keys` keys, 64 per transaction, coordinated
/// round-robin over the machines.
pub fn setup(workload: Workload, keys: u64) -> Kv {
    let engine = Engine::start_cluster(system::kv_cluster(), engine_config(workload));
    let tree = BTree::create(&engine, NodeId(0));
    let nodes = engine.nodes().len() as u64;
    for (batch, first) in (0..keys).step_by(64).enumerate() {
        let node = engine.node(NodeId((batch as u64 % nodes) as u32));
        let mut tx = node.begin();
        for key in first..(first + 64).min(keys) {
            let stamp = Stamp {
                key,
                client: LOADER,
                seq: 0,
            };
            tree.put(&mut tx, key, &encode(stamp)).expect("load put");
        }
        tx.commit().expect("load commit");
    }
    engine.quiesce();
    Kv { engine, tree }
}

/// One closed-loop YCSB client. It checks what it reads as it goes and
/// remembers its acknowledged puts for the final audit.
pub struct YcsbClient {
    node: Arc<NodeEngine>,
    tree: BTree,
    gen: OpGen,
    id: u64,
    seq: u64,
    /// Per key: `(write_ts, seq)` of this client's latest acknowledged put.
    acked: Vec<(u64, u64)>,
    /// Keys whose put failed for good: it may or may not have applied.
    uncertain: Vec<u64>,
    /// Headline class first: the class of reads, updates, scans.
    classes: [usize; 3],
    pub violations: Vec<String>,
}

const READ: usize = 0;
const UPDATE: usize = 1;
const SCAN: usize = 2;

impl YcsbClient {
    pub fn new(workload: Workload, kv: &Kv, seed: u64, lane: u64, keys: u64) -> YcsbClient {
        let nodes = kv.engine.nodes().len() as u64;
        YcsbClient {
            node: kv.engine.node(NodeId((lane % nodes) as u32)),
            tree: kv.tree.clone(),
            gen: OpGen::new(workload, seed, lane),
            id: lane,
            seq: 0,
            acked: vec![(0, 0); keys as usize],
            uncertain: Vec::new(),
            classes: match workload {
                Workload::YcsbADc => [1, 0, 2],
                Workload::YcsbScanMv => [2, 1, 0],
                _ => [0, 1, 2],
            },
            violations: Vec::new(),
        }
    }

    /// A value read for `key` must be a value of that key, and if this
    /// client wrote it, not older than this client's last acknowledged put.
    fn check_read(&mut self, key: u64, value: Option<&[u8]>) {
        let Some(stamp) = value.and_then(decode) else {
            self.violations
                .push(format!("key {key}: missing or undecodable value"));
            return;
        };
        if stamp.key != key {
            self.violations
                .push(format!("key {key}: read a value of key {}", stamp.key));
        } else if stamp.client == self.id && stamp.seq < self.acked[key as usize].1 {
            self.violations.push(format!(
                "key {key}: client {} read its seq {} after seq {} was acknowledged",
                self.id, stamp.seq, self.acked[key as usize].1
            ));
        } else if stamp.client == self.id && stamp.seq > self.seq {
            self.violations
                .push(format!("key {key}: seq {} not yet issued", stamp.seq));
        }
    }

    /// One attempt at `op` as its own transaction.
    fn attempt(&mut self, op: Op, lane: &mut Lane) -> Result<(), TxError> {
        let mut rec = lane.tracing();
        let opts = TxOptions::serializable();
        let root = rec.as_mut().map(|r| r.root());
        let mut tx = in_span(&mut rec, "begin", || self.node.begin_with(opts));
        let (root_name, result) = match op {
            Op::Read(key) => {
                let result = in_span(&mut rec, "index.get", || self.tree.get(&mut tx, key))
                    .and_then(|value| {
                        in_span(&mut rec, "commit.ro", || tx.commit())?;
                        self.check_read(key, value.as_deref());
                        Ok(())
                    });
                ("tx.read", result)
            }
            Op::Update(key) => {
                let stamp = Stamp {
                    key,
                    client: self.id,
                    seq: self.seq,
                };
                let value = encode(stamp);
                let result = in_span(&mut rec, "index.put", || {
                    self.tree.put(&mut tx, key, &value)
                })
                .and_then(|()| in_span(&mut rec, "commit.rw", || tx.commit()))
                .map(|info| {
                    let ts = info.write_ts.expect("a put is a read-write commit");
                    self.acked[key as usize] = (ts, stamp.seq);
                });
                ("tx.update", result)
            }
            Op::Scan(start) => {
                let result = in_span(&mut rec, "index.scan", || {
                    self.tree.scan(&mut tx, start, YCSB_SCAN_LEN)
                })
                .and_then(|rows| {
                    in_span(&mut rec, "commit.ro", || tx.commit())?;
                    if rows.len() != YCSB_SCAN_LEN {
                        self.violations
                            .push(format!("scan from {start}: {} rows", rows.len()));
                    }
                    for (i, (key, value)) in rows.iter().enumerate() {
                        if *key != start + i as u64 {
                            self.violations
                                .push(format!("scan from {start}: row {i} is key {key}"));
                        }
                        self.check_read(*key, Some(value));
                    }
                    Ok(())
                });
                ("tx.scan", result)
            }
            other => unreachable!("not a YCSB op: {other:?}"),
        };
        if let (Some(r), Some(root)) = (rec, root) {
            r.close_root(root, root_name, result.is_ok());
        }
        result
    }
}

impl Client for YcsbClient {
    fn step(&mut self, lane: &mut Lane) {
        let op = self.gen.next_op();
        let kind = match op {
            Op::Read(_) => READ,
            Op::Update(_) => {
                self.seq += 1;
                UPDATE
            }
            _ => SCAN,
        };
        let started = Instant::now();
        let mut attempts = 0;
        let ok = loop {
            attempts += 1;
            match self.attempt(op, lane) {
                Ok(()) => break true,
                Err(e) if e.is_retryable() && keep_trying(attempts, started) => {}
                Err(e) => {
                    if let Op::Update(key) = op {
                        self.uncertain.push(key);
                    }
                    if !e.is_retryable() {
                        self.violations.push(format!("{op:?} failed with {e}"));
                    } else if self.uncertain.len() + self.violations.len() < 4 {
                        eprintln!(
                            "client {}: gave up on {op:?} after {attempts} attempts: {e}",
                            self.id
                        );
                    }
                    break false;
                }
            }
        };
        lane.complete(self.classes[kind], started, attempts, ok);
    }
}

/// Final audit: every key holds the acknowledged put with the highest write
/// timestamp (or the loader's value if nobody put it). Read back from a
/// machine no client was homed on where there is one.
pub fn audit(out: &mut Outcome, kv: &Kv, clients: &[YcsbClient], keys: u64) {
    let mut expected: Vec<(u64, Stamp)> = (0..keys)
        .map(|key| {
            let loaded = Stamp {
                key,
                client: LOADER,
                seq: 0,
            };
            (0, loaded)
        })
        .collect();
    let mut uncertain = vec![false; keys as usize];
    for c in clients {
        for (key, &(ts, seq)) in c.acked.iter().enumerate() {
            if ts > expected[key].0 {
                let stamp = Stamp {
                    key: key as u64,
                    client: c.id,
                    seq,
                };
                expected[key] = (ts, stamp);
            }
        }
        for &key in &c.uncertain {
            uncertain[key as usize] = true;
        }
    }
    let node = kv.engine.nodes().last().expect("a cluster has machines");
    let all: Vec<u64> = (0..keys).collect();
    for chunk in all.chunks(256) {
        let mut tx = node.begin();
        let values = match kv.tree.get_many(&mut tx, chunk) {
            Ok(v) => v,
            Err(e) => {
                out.violation(format!("audit read of keys {}.. failed: {e}", chunk[0]));
                continue;
            }
        };
        if let Err(e) = tx.commit() {
            out.violation(format!("audit commit failed: {e}"));
        }
        for (&key, value) in chunk.iter().zip(values) {
            let got = value.as_deref().and_then(decode);
            if got != Some(expected[key as usize].1) && !uncertain[key as usize] {
                out.violation(format!(
                    "key {key}: holds {got:?}, last acknowledged put is {:?}",
                    expected[key as usize].1
                ));
            }
        }
    }
}

/// Runs one YCSB workload on a loaded cluster and fills `out`; hands back
/// the clients with what they remember.
pub fn run(
    workload: Workload,
    kv: &Kv,
    args: &RunArgs,
    keys: u64,
    epoch: Instant,
    out: &mut Outcome,
) -> Vec<YcsbClient> {
    let clients: Vec<YcsbClient> = (0..system::client_threads() as u64)
        .map(|lane| YcsbClient::new(workload, kv, args.seed, lane, keys))
        .collect();
    let phases = Phases::new(args.seconds, args.trace);
    let run = driver::run_clients(clients, phases, epoch, || Counters::read(&kv.engine));

    // Every transaction counts toward throughput; the headline latency is
    // the op kind the workload is about (see `YcsbClient::classes`).
    report_phases(
        out,
        workload,
        &run.reference,
        run.traced.as_ref(),
        &[0, 1, 2],
        &run.spans,
    );
    if args.trace {
        let reference = &run.reference;
        match workload {
            Workload::YcsbC => report_latency(out, reference, 0, "read_p50_us", "read_p99_us"),
            Workload::YcsbADc => {
                report_latency(out, reference, 0, "update_p50_us", "update_p99_us");
                report_latency(out, reference, 1, "read_p50_us", "read_p99_us");
            }
            _ => {
                report_latency(out, reference, 0, "scan_p50_us", "scan_p99_us");
                report_latency(out, reference, 1, "update_p50_us", "update_p99_us");
            }
        }
    }
    system::settle(
        out,
        &kv.engine,
        args.trace.then_some((&run.before, &run.after)),
    );
    out.violations_of(run.clients.iter().map(|c| &c.violations));
    audit(out, kv, &run.clients, keys);
    run.clients
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::YCSB_KEYS;

    #[test]
    fn stamps_round_trip() {
        let stamp = Stamp {
            key: 77,
            client: 1,
            seq: 9,
        };
        let value = encode(stamp);
        assert_eq!(value.len(), YCSB_VALUE_BYTES);
        assert_eq!(decode(&value), Some(stamp));
        assert_eq!(decode(&value[..20]), None);
    }

    /// The check passes on what the system really did, fails when an
    /// expected value is corrupted, and a failed check fails the process.
    #[test]
    fn a_corrupted_expectation_fails_the_check_and_the_exit_code() {
        let workload = Workload::YcsbADc;
        let kv = setup(workload, YCSB_KEYS);
        let args = RunArgs {
            seed: 5,
            seconds: 0.3,
            trace: false,
        };
        let mut out = Outcome::default();
        let mut clients = run(workload, &kv, &args, YCSB_KEYS, Instant::now(), &mut out);
        assert!(out.correct(), "{:?}", out.violations);
        assert!(out.attempted > 1_000 && out.failed == 0);
        assert_eq!(
            crate::exit_code(out.correct()),
            std::process::ExitCode::SUCCESS
        );

        // Claim an acknowledged put that never happened, on a key whose
        // newest put is client 0's (a hot key's may be another client's, and
        // then client 0's claim does not matter).
        let key = (0..YCSB_KEYS as usize)
            .find(|&k| {
                let newest_other = clients[1..].iter().map(|c| c.acked[k].0).max();
                clients[0].acked[k].0 > newest_other.unwrap_or(0)
            })
            .expect("client 0 has the newest put of some key");
        clients[0].acked[key].1 += 1;
        let mut corrupted = Outcome::default();
        audit(&mut corrupted, &kv, &clients, YCSB_KEYS);
        assert_eq!(corrupted.violations.len(), 1, "{:?}", corrupted.violations);
        assert!(corrupted.violations[0].contains(&format!("key {key}:")));
        assert_ne!(
            crate::exit_code(corrupted.correct()),
            std::process::ExitCode::SUCCESS
        );

        // A read of the wrong key's value, and of a stale own write.
        let c = &mut clients[0];
        let other = Stamp {
            key: 1,
            client: LOADER,
            seq: 0,
        };
        c.check_read(0, Some(&encode(other)));
        let stale = Stamp {
            key: key as u64,
            client: c.id,
            seq: 0,
        };
        c.check_read(key as u64, Some(&encode(stale)));
        c.check_read(2, None);
        assert_eq!(c.violations.len(), 3, "{:?}", c.violations);
        system::stop(&kv.engine);
    }
}
