//! Heap allocations on the commit path, counted by a per-thread
//! `#[global_allocator]` (allocation calls — deterministic, unlike time).
//!
//! The counters are per thread and the harness runs each test on its own
//! thread, so neither a neighbouring test nor the engine's background
//! threads are counted. Every count is taken after a warm-up, so buffers
//! that live across commits (the pipeline's heap and batch, the install
//! queue) have reached their steady capacity. The bounds are a ratchet:
//! lower them when the commit path sheds another allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use farm_core::{Addr, Engine, EngineConfig, NodeId, TxOptions};
use farm_kernel::ClusterConfig;
use farm_net::LatencyModel;

thread_local! {
    // A `const` initialiser and no destructor: touching it from inside the
    // allocator never allocates.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only the thread-local cell above.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocation calls it made on
/// this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.get();
    let out = f();
    (out, ALLOCS.get() - before)
}

const WARMUP: usize = 200;
const COMMITS: usize = 400;
const DEPTH: usize = 8;

/// Allocations per commit, rounded up.
fn per_commit(total: usize) -> usize {
    total.div_ceil(COMMITS)
}

/// The shape of the benchmark's pipelined workload: six machines, 3-way
/// replication, every written object on a remote primary, datacenter
/// latency. No background pass: the client thread drains every install, so
/// the counts do not depend on how the threads interleave.
fn pipeline_shape() -> (Arc<Engine>, Vec<Addr>) {
    let config = EngineConfig {
        latency: LatencyModel::datacenter(),
        gc_interval: Duration::from_secs(3600),
        ..EngineConfig::default()
    };
    let engine = Engine::start_cluster(ClusterConfig::test(6), config);
    let node = engine.node(NodeId(0));
    let cluster = engine.cluster();
    let remote: Vec<_> = cluster
        .regions()
        .into_iter()
        .filter(|&r| cluster.primary_of(r) != Some(node.id()))
        .collect();
    let mut setup = node.begin();
    let pool = (0..4 * DEPTH)
        .map(|i| {
            setup
                .alloc_in(remote[i % remote.len()], vec![0u8; 64])
                .unwrap()
        })
        .collect();
    setup.commit().unwrap();
    engine.quiesce();
    (engine, pool)
}

#[test]
fn a_pipelined_blind_overwrite_allocates_little() {
    let (engine, pool) = pipeline_shape();
    let node = engine.node(NodeId(0));
    let mut pipeline = node.pipeline(DEPTH);
    let opts = TxOptions::serializable_non_strict();
    let payload = vec![7u8; 64];
    let (mut begin, mut submit, mut committed) = (0, 0, 0);
    for i in 0..WARMUP + COMMITS {
        let measure = i >= WARMUP;
        let (mut tx, allocs) = counted(|| node.begin_with(opts));
        if measure {
            begin += allocs;
        }
        tx.overwrite(pool[i % pool.len()], payload.clone()).unwrap();
        let (results, allocs) = counted(|| {
            pipeline.submit(tx);
            pipeline.take()
        });
        if measure {
            submit += allocs;
        }
        committed += results.iter().filter(|r| r.is_ok()).count();
    }
    committed += pipeline.drain().iter().filter(|r| r.is_ok()).count();
    assert_eq!(committed, WARMUP + COMMITS, "every overwrite commits");
    let (begin, submit) = (per_commit(begin), per_commit(submit));
    eprintln!("pipelined blind overwrite: begin_with {begin}, submit + take {submit}");
    // Before destinations moved into the plan: 1 and 28.
    assert_eq!(begin, 0, "begin_with allocated");
    assert!(submit <= 14, "submit + take made {submit} allocations");
    drop(pipeline);
    engine.shutdown();
}

#[test]
fn a_synchronous_read_modify_write_commit_allocates_little() {
    let engine = Engine::start_cluster(ClusterConfig::test(3), EngineConfig::default());
    let node = engine.node(NodeId(0));
    let region = engine.cluster().regions()[1];
    let mut setup = node.begin();
    let addr = setup.alloc_in(region, vec![0u8; 64]).unwrap();
    setup.commit().unwrap();
    engine.quiesce();
    let mut total = 0;
    for i in 0..WARMUP + COMMITS {
        let mut tx = node.begin();
        let mut value = tx.read(addr).unwrap().to_vec();
        value[0] = value[0].wrapping_add(1);
        tx.write(addr, value).unwrap();
        let (result, allocs) = counted(|| tx.commit());
        result.unwrap();
        if i >= WARMUP {
            total += allocs;
        }
    }
    let commit = per_commit(total);
    eprintln!("synchronous one-key read-modify-write: commit {commit}");
    // Before destinations moved into the plan: 26.
    assert!(commit <= 13, "commit made {commit} allocations");
    engine.shutdown();
}

#[test]
fn a_strict_one_key_read_only_transaction_allocates_only_its_read_set() {
    let engine = Engine::start_cluster(ClusterConfig::test(3), EngineConfig::default());
    let node = engine.node(NodeId(0));
    let region = engine.cluster().regions()[1];
    let mut setup = node.begin();
    let addr = setup.alloc_in(region, vec![0u8; 64]).unwrap();
    setup.commit().unwrap();
    engine.quiesce();
    let opts = TxOptions::default();
    let (mut begin, mut read, mut commit) = (0, 0, 0);
    for i in 0..WARMUP + COMMITS {
        let measure = i >= WARMUP;
        let (mut tx, allocs) = counted(|| node.begin_with(opts));
        let (value, read_allocs) = counted(|| tx.read(addr));
        value.unwrap();
        let (info, commit_allocs) = counted(|| tx.commit());
        assert!(info.unwrap().write_ts.is_none());
        if measure {
            begin += allocs;
            read += read_allocs;
            commit += commit_allocs;
        }
    }
    let (begin, read, commit) = (per_commit(begin), per_commit(read), per_commit(commit));
    eprintln!("strict one-key read-only: begin_with {begin}, read {read}, commit {commit}");
    // The uncertainty wait moved from `begin` to the first read without
    // adding an allocation; the read's one is the read-set map.
    assert_eq!(begin, 0, "begin_with allocated");
    assert_eq!(read, 1, "read made {read} allocations");
    assert_eq!(commit, 0, "a read-only commit allocated");
    engine.shutdown();
}
