//! The six workloads, their sizing, and their op streams. Everything the
//! engine is asked to do is generated here from `--seed`; the sizing
//! constants are the benchmark's own (copied from the figure harnesses, not
//! imported), so changing a harness default cannot silently change what is
//! measured.

use farm_workloads::TpccTxKind;

use crate::rng::{Rng, Zipf};

// ---- Sizing ---------------------------------------------------------------

/// Machines in the `tpcc` and `ycsb_*` clusters (3-way replication).
pub const KV_NODES: usize = 3;
pub const TPCC_WAREHOUSES_PER_NODE: u32 = 4;
pub const TPCC_DISTRICTS: u32 = 8;
pub const TPCC_CUSTOMERS: u32 = 32;
pub const TPCC_ITEMS: u32 = 128;
/// 100 k keys × 64 B ≈ 10 MB with headers and the key directory: larger
/// than this host's L2, so `ycsb_c` misses cache like a real store would.
pub const YCSB_KEYS: u64 = 100_000;
pub const YCSB_VALUE_BYTES: usize = 64;
pub const YCSB_ZIPF_THETA: f64 = 0.99;
pub const YCSB_SCAN_LEN: usize = 100;
pub const PIPELINE_NODES: usize = 6;
pub const PIPELINE_DEPTH: usize = 8;
/// Far more objects than commits in flight, so a reused object's previous
/// commit has long completed and no overwrite conflicts with another.
pub const PIPELINE_POOL: usize = 256;
pub const RECOVERY_NODES: usize = 5;
pub const RECOVERY_ACCOUNTS: usize = 240;
pub const RECOVERY_INITIAL_BALANCE: u64 = 1_000;

// ---- Workloads --------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    Tpcc,
    YcsbC,
    YcsbADc,
    YcsbScanMv,
    KvPipelineDc,
    Recovery,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload::Tpcc,
    Workload::YcsbC,
    Workload::YcsbADc,
    Workload::YcsbScanMv,
    Workload::KvPipelineDc,
    Workload::Recovery,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Tpcc => "tpcc",
            Workload::YcsbC => "ycsb_c",
            Workload::YcsbADc => "ycsb_a_dc",
            Workload::YcsbScanMv => "ycsb_scan_mv",
            Workload::KvPipelineDc => "kv_pipeline_dc",
            Workload::Recovery => "recovery",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (one line; also the `why` of
    /// `BENCHMARK.json`, checked by a test).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Tpcc => "Paper headline: full TPC-C mix, large read/write sets and natural aborts put time in core.commit, index, memory and unwind.",
            Workload::YcsbC => "Read-only single-key gets commit with no message: isolates clock GET_TS, core.active, index, memory reads; commit-path changes must not move it.",
            Workload::YcsbADc => "50:50 Zipf 0.99 get/put under datacenter latency: update latency is flights (LOCK, COMMIT-BACKUP), so net and clock dominate, not CPU.",
            Workload::YcsbScanMv => "Multi-version 100-key scans against puts: batched leaf reads race writers, old versions and GC are live; read/write trade-offs show here.",
            Workload::KvPipelineDc => "One thread keeps a depth-8 commit pipeline full: the only workload on the core.pipeline reactor; CPU-bound despite injected latency.",
            Workload::Recovery => "Kill one of five nodes under bank-transfer load: the only workload where kernel works; measures the outage as the client sees it.",
        }
    }

    /// Stream tag: keeps the op streams of different workloads independent
    /// under one seed.
    fn tag(self) -> u64 {
        self as u64 + 1
    }
}

// ---- Ops --------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// One TPC-C transaction. `TpccDatabase::execute` picks rows from an RNG;
    /// it gets a fresh one seeded with `op_seed`, so a retried op asks for
    /// exactly the same rows.
    Tpcc {
        kind: TpccTxKind,
        op_seed: u64,
    },
    Read(u64),
    Update(u64),
    Scan(u64),
    /// Pipeline overwrite of pool object `slot`.
    Overwrite {
        slot: u32,
        fill: u8,
    },
    /// Move one unit between two distinct accounts.
    Transfer {
        from: u32,
        to: u32,
    },
}

/// The standard TPC-C mix: 45 / 43 / 4 / 4 / 4.
fn tpcc_kind(draw: u64) -> TpccTxKind {
    match draw {
        0..=44 => TpccTxKind::NewOrder,
        45..=87 => TpccTxKind::Payment,
        88..=91 => TpccTxKind::OrderStatus,
        92..=95 => TpccTxKind::Delivery,
        _ => TpccTxKind::StockLevel,
    }
}

/// The op stream of one lane (client thread, or recovery trial × client) of
/// one workload.
pub struct OpGen {
    workload: Workload,
    rng: Rng,
    zipf: Option<Zipf>,
    issued: u64,
}

impl OpGen {
    pub fn new(workload: Workload, seed: u64, lane: u64) -> OpGen {
        OpGen {
            workload,
            rng: Rng::stream(seed, workload.tag(), lane),
            zipf: (workload == Workload::YcsbADc).then(|| Zipf::new(YCSB_KEYS, YCSB_ZIPF_THETA)),
            issued: 0,
        }
    }

    pub fn next_op(&mut self) -> Op {
        self.issued += 1;
        let rng = &mut self.rng;
        match self.workload {
            Workload::Tpcc => Op::Tpcc {
                kind: tpcc_kind(rng.below(100)),
                op_seed: rng.next_u64(),
            },
            Workload::YcsbC => Op::Read(rng.below(YCSB_KEYS)),
            Workload::YcsbADc => {
                let key = self.zipf.as_ref().expect("built in new").sample(rng);
                if rng.below(2) == 0 {
                    Op::Read(key)
                } else {
                    Op::Update(key)
                }
            }
            Workload::YcsbScanMv => {
                // Figure 15 mix, balanced by keys touched: one scan of L keys
                // per L single-key updates on average.
                if rng.below(YCSB_SCAN_LEN as u64 + 1) == 0 {
                    Op::Scan(rng.below(YCSB_KEYS - YCSB_SCAN_LEN as u64 + 1))
                } else {
                    Op::Update(rng.below(YCSB_KEYS))
                }
            }
            Workload::KvPipelineDc => Op::Overwrite {
                // Sequential slots (in-flight commits must write disjoint
                // objects); only the payload is random.
                slot: ((self.issued - 1) % PIPELINE_POOL as u64) as u32,
                fill: rng.below(256) as u8,
            },
            Workload::Recovery => {
                let from = rng.below(RECOVERY_ACCOUNTS as u64) as u32;
                let other = rng.below(RECOVERY_ACCOUNTS as u64 - 1) as u32;
                Op::Transfer {
                    from,
                    to: if other >= from { other + 1 } else { other },
                }
            }
        }
    }
}

/// FNV-1a over the first `n` ops of lane 0: the determinism pin.
#[cfg(test)]
pub fn stream_hash(workload: Workload, seed: u64, n: usize) -> u64 {
    let mut gen = OpGen::new(workload, seed, 0);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for _ in 0..n {
        match gen.next_op() {
            Op::Tpcc { kind, op_seed } => {
                eat(1);
                eat(kind as u64);
                eat(op_seed);
            }
            Op::Read(k) => {
                eat(2);
                eat(k);
            }
            Op::Update(k) => {
                eat(3);
                eat(k);
            }
            Op::Scan(k) => {
                eat(4);
                eat(k);
            }
            Op::Overwrite { slot, fill } => {
                eat(5);
                eat(slot as u64);
                eat(fill as u64);
            }
            Op::Transfer { from, to } => {
                eat(6);
                eat(from as u64);
                eat(to as u64);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pinned hashes of the first 10 k ops of lane 0 under seed 1. A change
    /// here changes what every recorded baseline measured.
    const PINNED_SEED_1: [(Workload, u64); 6] = [
        (Workload::Tpcc, 0x1cfe_c24a_c8fd_4001),
        (Workload::YcsbC, 0xb153_fd31_4d9b_5a0a),
        (Workload::YcsbADc, 0x3dcd_6f15_e80d_394f),
        (Workload::YcsbScanMv, 0x49bf_0687_cb8f_4505),
        (Workload::KvPipelineDc, 0xe5cf_d822_8f9b_63ae),
        (Workload::Recovery, 0xbf45_d5a8_bf43_a9bc),
    ];

    #[test]
    fn same_seed_same_stream_pinned() {
        let now = PINNED_SEED_1.map(|(w, _)| (w, stream_hash(w, 1, 10_000)));
        assert_eq!(
            now,
            PINNED_SEED_1.map(|(w, _)| (w, stream_hash(w, 1, 10_000)))
        );
        assert_eq!(now, PINNED_SEED_1, "an op stream changed: {now:#x?}");
    }

    #[test]
    fn different_seed_different_stream() {
        for w in WORKLOADS {
            assert_ne!(stream_hash(w, 1, 10_000), stream_hash(w, 2, 10_000));
        }
    }

    #[test]
    fn mixes_have_the_stated_shape() {
        let count = |w: Workload, pred: fn(&Op) -> bool| {
            let mut g = OpGen::new(w, 3, 0);
            (0..20_000).filter(|_| pred(&g.next_op())).count()
        };
        let neworders = count(Workload::Tpcc, |op| {
            matches!(
                op,
                Op::Tpcc {
                    kind: TpccTxKind::NewOrder,
                    ..
                }
            )
        });
        assert!((8_400..9_600).contains(&neworders), "{neworders}");
        let reads = count(Workload::YcsbADc, |op| matches!(op, Op::Read(_)));
        assert!((9_500..10_500).contains(&reads), "{reads}");
        let scans = count(Workload::YcsbScanMv, |op| matches!(op, Op::Scan(_)));
        assert!((120..280).contains(&scans), "{scans}");
        assert_eq!(
            count(
                Workload::Recovery,
                |op| matches!(op, Op::Transfer { from, to } if from == to)
            ),
            0
        );
    }

    #[test]
    fn names_round_trip() {
        for w in WORKLOADS {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{} why too long", w.name());
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
