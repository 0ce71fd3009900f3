//! The batched commit protocol, extracted from the transaction API into an
//! explicit per-phase state machine.
//!
//! FaRMv2 gets its throughput from fanning commit messages out **per
//! destination machine**, not per object: the coordinator sends one LOCK
//! message (and one COMMIT-BACKUP RDMA write, and one COMMIT-PRIMARY
//! install) per machine, each carrying that machine's share of the write
//! set. This module implements that structure in three parts:
//!
//! * `plan` — groups the write/free/alloc sets by region and computes the
//!   destination table every phase reads (`CommitPlan`), fixing the
//!   deterministic global address order in which locks are acquired.
//! * [`driver`] — the [`CommitDriver`] state machine with explicit phases
//!   (`Lock → [AcquireWriteTs → Validate] → ReplicateBackups`, the bracketed
//!   pair serializable only), one batched metered message per destination
//!   per phase. The commit completes at the last COMMIT-BACKUP ack. Each
//!   phase is split into an *issue* and a *finish* half so the driver can
//!   be stepped without blocking.
//! * `backlog` — the three-stage commit-completion state: pending
//!   COMMIT-PRIMARY installs (claimable by helpers), backup redo logs, and
//!   per-coordinator `truncate_below` watermarks piggybacked on outgoing
//!   verbs instead of standalone TRUNCATE messages.
//! * [`pipeline`] — the per-thread [`CommitPipeline`]: one worker keeps up
//!   to `depth` transactions in their commit critical paths at once,
//!   multiplexing their completion deadlines through a deadline-heap
//!   reactor.
//! * `unwind` — the single abort path: every failure releases all locks
//!   held across every destination and rolls back allocations.
//!
//! [`Transaction`](crate::Transaction) builds the plan and hands it to the
//! driver; `tx.rs` itself no longer contains any phase loop.

pub(crate) mod backlog;
pub mod driver;
pub mod pipeline;
pub(crate) mod plan;
mod unwind;

pub use driver::{CommitDriver, CommitPhase};
pub use pipeline::{CommitPipeline, PipelineTimings};
pub(crate) use plan::CommitPlan;
