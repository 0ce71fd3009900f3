//! The single abort/unwind step of the commit driver.
//!
//! The driver routes **every** phase failure through this one function:
//! release every lock acquired so far — across all destination primaries,
//! in descending global address order — roll the transaction's allocations
//! back, and tally the abort against the phase that failed.
//!
//! # Fan-out invariant
//!
//! Under pipelined dispatch a LOCK phase has verbs in flight to several
//! destinations at once when one of them fails. Every issued verb executes
//! (a [`farm_net::CompletionSet`] runs each verb's work at issue and never
//! short-circuits), each destination pushes the locks it acquired into the
//! driver's one lock list, and the driver sorts that list into ascending
//! global address order — so by the time this function runs, `locked` is
//! exactly the set of locks the whole fan-out acquired, and releasing it in
//! reverse releases in descending global address order, whatever order the
//! destinations ran in. Old
//! versions copied for locks that are being unwound were never linked into
//! a version chain (their GC time is still 0), so they are reclaimed with
//! their block and can never appear as tombstoned history.

use std::sync::Arc;

use farm_memory::Addr;

use crate::engine::NodeEngine;
use crate::error::{AbortReason, TxError};
use crate::stats::EngineStats;

use super::driver::{CommitPhase, HeldLock};

/// Unwinds a failed commit: releases all held locks (reverse order), returns
/// pre-allocated slots to their slabs, and records per-phase abort
/// statistics. Returns the error for the caller to propagate.
pub(crate) fn unwind(
    engine: &Arc<NodeEngine>,
    locked: &mut Vec<HeldLock>,
    alloc_set: &[Addr],
    phase: CommitPhase,
    reason: AbortReason,
) -> TxError {
    // Locks acquired in ascending global address order are released in
    // descending order. Old versions allocated for them are left with GC
    // time 0 — they were never linked, so they are reclaimed with their
    // block.
    for held in locked.iter().rev() {
        held.slot.unlock();
    }
    locked.clear();
    // Return pre-allocated slots (including alloc+free cancellations) to
    // their slabs.
    for &addr in alloc_set {
        if let Ok((_primary, region)) = engine.primary_region_of(addr) {
            let _ = region.free(addr);
        }
    }
    EngineStats::bump(&engine.stats.unwinds);
    match phase {
        CommitPhase::Lock => EngineStats::bump(&engine.stats.aborts_lock),
        CommitPhase::Validate => EngineStats::bump(&engine.stats.aborts_validation),
        // AcquireWriteTs and ReplicateBackups never fail by themselves; a
        // dead coordinator or an abandoned driver unwinding there is
        // tallied with the lock aborts, so the tally stays total.
        CommitPhase::AcquireWriteTs | CommitPhase::ReplicateBackups => {
            EngineStats::bump(&engine.stats.aborts_lock)
        }
    }
    TxError::Aborted(reason)
}
