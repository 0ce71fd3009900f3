//! Parallel distributed read-only transactions (Section 4.6).
//!
//! A complex query is parallelized by a **master** transaction that acquires
//! a read timestamp and fans out work to **slave** transactions on other
//! machines, all executing against the same snapshot (the master's read
//! timestamp, which may already be in the past when a slave starts — a
//! *stale snapshot read*). Slaves with a read timestamp below their node's
//! `GC_local` are rejected, which is what makes it safe to garbage-collect
//! old versions while such queries are in flight.
//!
//! # Concurrency semantics
//!
//! [`ParallelQuery::map_nodes`] executes the per-node closures **in
//! parallel**, one scoped thread per node, mirroring the paper's fan-out of
//! slave work across machines. The closure therefore must be `Fn + Sync`
//! (it is shared by the worker threads) and the produced values `Send`.
//! Every slave reads at the master's snapshot, so the results are mutually
//! consistent however the threads interleave; if any slave fails, the first
//! failure in node order is returned (the remaining slaves still run to
//! completion — there is no cross-node cancellation, matching the
//! at-a-snapshot model where slaves cannot invalidate each other).
//!
//! The snapshot stays pinned (protected from GC) from
//! [`ParallelQuery::start`] until [`ParallelQuery::finish`], via a
//! registration keyed by a **unique query id** drawn from the master
//! engine's serial counter — two queries that happen to share a read
//! timestamp pin and unpin independently.

use std::sync::Arc;

use farm_net::NodeId;

use crate::engine::{Engine, NodeEngine};
use crate::error::TxError;
use crate::tx::Transaction;

/// A helper for running a parallel distributed read-only query: one master
/// transaction plus per-node slave transactions sharing its snapshot.
pub struct ParallelQuery {
    engine: Arc<Engine>,
    master_node: NodeId,
    read_ts: u64,
    /// Registration pinning the snapshot on the master node until `finish`.
    /// Keyed by a fresh serial drawn from the master engine's transaction
    /// counter, so two queries never collide even at an identical read
    /// timestamp.
    pin: crate::active::ActiveToken,
}

impl ParallelQuery {
    /// Starts a parallel query coordinated by `master_node`. The master
    /// acquires a strict read timestamp so the whole query is strictly
    /// serializable.
    pub fn start(engine: &Arc<Engine>, master_node: NodeId) -> ParallelQuery {
        let master = engine.node(master_node);
        let tx = master.begin();
        let read_ts = tx.read_ts();
        // The master transaction object itself is dropped; what matters is
        // that the snapshot (read_ts) is protected from GC, which the engine
        // guarantees by keeping `read_ts` registered until `finish` is
        // called. The registration key is a fresh serial — not derived from
        // the timestamp — so concurrent queries at the same snapshot do not
        // share (and prematurely release) one registration.
        let pin_serial = master.next_serial();
        let pin = master.register_active(pin_serial, read_ts);
        drop(tx);
        ParallelQuery {
            engine: Arc::clone(engine),
            master_node,
            read_ts,
            pin,
        }
    }

    /// The snapshot every slave executes against.
    pub fn read_ts(&self) -> u64 {
        self.read_ts
    }

    /// The master's node.
    pub fn master_node(&self) -> NodeId {
        self.master_node
    }

    /// Starts a slave transaction on `node` reading at the master's snapshot.
    pub fn slave_on(&self, node: NodeId) -> Result<Transaction, TxError> {
        self.engine.node(node).begin_stale_readonly(self.read_ts)
    }

    /// Runs `work` on every given node **concurrently** — one scoped thread
    /// per node, each with its own slave transaction at the shared snapshot —
    /// and collects the results in node order. See the module docs for the
    /// concurrency semantics.
    pub fn map_nodes<T: Send>(
        &self,
        nodes: &[NodeId],
        work: impl Fn(&Arc<NodeEngine>, &mut Transaction) -> Result<T, TxError> + Sync,
    ) -> Result<Vec<T>, TxError> {
        let work = &work;
        let results: Vec<Result<T, TxError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = nodes
                .iter()
                .map(|&n| {
                    scope.spawn(move || {
                        let node_engine = self.engine.node(n);
                        let mut tx = self.slave_on(n)?;
                        let value = work(&node_engine, &mut tx)?;
                        let _ = tx.commit()?;
                        Ok(value)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("slave thread panicked"))
                .collect()
        });
        results.into_iter().collect()
    }

    /// Completes the query, releasing the snapshot so garbage collection can
    /// advance past it. (Dropping the query releases it too — an error path
    /// that propagates out with `?` must not pin the node's OAT forever.)
    pub fn finish(self) {
        drop(self);
    }
}

impl Drop for ParallelQuery {
    fn drop(&mut self) {
        self.engine
            .node(self.master_node)
            .unregister_active(self.pin);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::EngineConfig;
    use farm_kernel::ClusterConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_query_reads_consistent_snapshot_across_nodes() {
        let engine = Engine::start_cluster(ClusterConfig::test(3), EngineConfig::multi_version());
        let node0 = engine.node(NodeId(0));
        // Create an object and update it once.
        let mut tx = node0.begin();
        let addr = tx.alloc(vec![1u8; 8]).unwrap();
        tx.commit().unwrap();
        let mut tx = node0.begin();
        tx.write(addr, vec![2u8; 8]).unwrap();
        tx.commit().unwrap();

        // Start the parallel query: every slave must see value 2.
        let query = ParallelQuery::start(&engine, NodeId(0));
        let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
        let values = query
            .map_nodes(&nodes, |_engine, tx| tx.read(addr).map(|b| b[0]))
            .unwrap();
        assert_eq!(values, vec![2, 2, 2]);

        // A writer that commits after the query started must not be visible
        // to later slaves of the same query (they read at the old snapshot).
        let mut tx = node0.begin();
        tx.write(addr, vec![3u8; 8]).unwrap();
        tx.commit().unwrap();
        let values = query
            .map_nodes(&nodes, |_engine, tx| tx.read(addr).map(|b| b[0]))
            .unwrap();
        assert_eq!(
            values,
            vec![2, 2, 2],
            "slaves must read at the query snapshot"
        );
        query.finish();
        engine.shutdown();
    }

    #[test]
    fn map_nodes_executes_slaves_concurrently() {
        let engine = Engine::start_cluster(ClusterConfig::test(3), EngineConfig::multi_version());
        let node0 = engine.node(NodeId(0));
        let mut tx = node0.begin();
        let addr = tx.alloc(vec![7u8; 8]).unwrap();
        tx.commit().unwrap();

        let query = ParallelQuery::start(&engine, NodeId(0));
        let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
        let in_flight = AtomicUsize::new(0);
        let max_in_flight = AtomicUsize::new(0);
        let values = query
            .map_nodes(&nodes, |_engine, tx| {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                max_in_flight.fetch_max(now, Ordering::SeqCst);
                // Hold the slot long enough for the other slaves to arrive.
                std::thread::sleep(std::time::Duration::from_millis(30));
                let v = tx.read(addr)?[0];
                in_flight.fetch_sub(1, Ordering::SeqCst);
                Ok(v)
            })
            .unwrap();
        assert_eq!(values, vec![7, 7, 7], "results stay snapshot-consistent");
        assert!(
            max_in_flight.load(Ordering::SeqCst) >= 2,
            "slaves never overlapped: map_nodes ran sequentially"
        );
        query.finish();
        engine.shutdown();
    }

    #[test]
    fn dropping_a_query_releases_its_pin() {
        // An error path that drops the query without calling finish() (e.g.
        // `let v = q.map_nodes(..)?;` propagating a slave failure) must not
        // leave the snapshot pinned — a leaked pin would hold the node's OAT
        // forever and stall GC cluster-wide.
        let engine = Engine::start_cluster(ClusterConfig::test(3), EngineConfig::multi_version());
        let node0 = engine.node(NodeId(0));
        let before = node0.active_transactions();
        let query = ParallelQuery::start(&engine, NodeId(0));
        assert_eq!(node0.active_transactions(), before + 1);
        drop(query);
        assert_eq!(node0.active_transactions(), before);
        engine.shutdown();
    }

    #[test]
    fn concurrent_queries_pin_and_release_snapshots_independently() {
        let engine = Engine::start_cluster(ClusterConfig::test(3), EngineConfig::multi_version());
        let node0 = engine.node(NodeId(0));
        let mut tx = node0.begin();
        let addr = tx.alloc(vec![1u8; 8]).unwrap();
        tx.commit().unwrap();

        let active_registrations = || node0.active_transactions();
        let before = active_registrations();
        let q1 = ParallelQuery::start(&engine, NodeId(0));
        let q2 = ParallelQuery::start(&engine, NodeId(0));
        assert_eq!(
            active_registrations(),
            before + 2,
            "each query holds its own registration (unique id, no key collision)"
        );
        // Finishing q2 must not unpin q1's snapshot.
        q2.finish();
        assert_eq!(active_registrations(), before + 1);

        // q1's snapshot survives an overwrite + GC pressure: its slave still
        // reads the old value.
        let mut tx = node0.begin();
        tx.write(addr, vec![9u8; 8]).unwrap();
        tx.commit().unwrap();
        for _ in 0..4 {
            engine.cluster().control_round();
        }
        engine.collect_garbage_now();
        let values = q1
            .map_nodes(&[NodeId(0)], |_engine, tx| tx.read(addr).map(|b| b[0]))
            .unwrap();
        assert_eq!(values, vec![1], "q1 still reads its pinned snapshot");
        q1.finish();
        assert_eq!(active_registrations(), before);
        engine.shutdown();
    }
}
