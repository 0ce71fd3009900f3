//! # farm-core — the FaRMv2 transaction engine with opacity
//!
//! This crate implements the paper's primary contribution: a distributed
//! transaction protocol that provides **opacity** (strict serializability for
//! committed *and* aborted transactions) on top of one-sided-RDMA-style
//! primitives, using read and write timestamps drawn from global time with
//! explicit uncertainty waits (Section 4.2, Figure 3, Algorithm 2).
//!
//! ## What lives here
//!
//! * [`Engine`] / [`NodeEngine`] — the per-cluster and per-machine engine
//!   handles. Application threads obtain a [`Transaction`] from the engine of
//!   their home machine (the symmetric model of FaRM: every thread can be a
//!   coordinator).
//! * [`Transaction`] — buffered writes, snapshot reads at the transaction's
//!   read timestamp (following old-version chains when the head version is
//!   too new), allocation and freeing of objects.
//! * The **commit protocol**: LOCK at the primaries (allocating old versions
//!   in multi-version mode), write-timestamp acquisition with an uncertainty
//!   wait *while holding locks*, read validation with one-sided reads and
//!   COMMIT-BACKUP (awaiting only "hardware acks"), after which the commit
//!   is acknowledged; COMMIT-PRIMARY (install + unlock) and TRUNCATE
//!   (applying backup logs) complete in the background.
//! * **Isolation/strictness knobs** per transaction ([`TxOptions`]):
//!   serializable vs snapshot isolation, strict vs non-strict, read-only
//!   fast path (no validation at all in FaRMv2), eager validation
//!   ("early aborts", Section 4.7) and stale snapshot reads for parallel
//!   distributed read-only transactions (Section 4.6).
//!
//! ## Correctness corner
//!
//! Section 7 of the paper proves opacity for the simplified protocol; the
//! property tests in this crate and in the workspace `tests/` directory check
//! the read invariant (Lemma 2), the write invariant (Lemma 3) and
//! serializability of randomized histories against a sequential oracle.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod active;
pub mod commit;
pub mod engine;
pub mod error;
pub mod opts;
pub mod readonly;
pub mod stats;
pub mod tx;

pub use active::{ActiveToken, ActiveTxTable};
pub use commit::{CommitDriver, CommitPhase, CommitPipeline, PipelineTimings};
pub use engine::{Engine, NodeEngine};
pub use error::{AbortReason, TxError};
pub use opts::{EngineConfig, IsolationLevel, MvPolicy, TxOptions};
pub use readonly::ParallelQuery;
pub use stats::{EngineStats, EngineStatsSnapshot};
pub use tx::{CommitInfo, Transaction};

pub use farm_kernel::{Cluster, ClusterConfig};
pub use farm_memory::{Addr, RegionId};
pub use farm_net::NodeId;
