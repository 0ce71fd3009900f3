//! Layer probes: single-thread loops over one layer's public functions,
//! run at the end of every traced run. Each reports the median over batches
//! of nanoseconds per call, so it prices the layer's own code with nothing
//! else running — the unit costs the workload-level spans are made of.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use farm_clock::TsMode;
use farm_core::{ActiveTxTable, Engine, EngineConfig, NodeId};
use farm_kernel::ClusterConfig;
use farm_memory::{Addr, OldVersion, OldVersionStore, Region, RegionConfig, RegionId};
use farm_net::{CompletionSet, DispatchMode, LatencyModel, NetStats, OneSidedMeter, Verb};

use crate::metrics::Outcome;
use crate::stats;

const BATCHES: usize = 15;
const BATCH: Duration = Duration::from_millis(2);

/// Median over [`BATCHES`] batches of ns per call of `f`. The batch size is
/// found by doubling until a batch lasts [`BATCH`].
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut calls = 1u64;
    let time = |calls: u64, f: &mut dyn FnMut()| {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        t.elapsed()
    };
    while time(calls, &mut f) < BATCH && calls < 1 << 24 {
        calls *= 2;
    }
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| time(calls, &mut f).as_nanos() as f64 / calls as f64)
        .collect();
    stats::median(&per_call).expect("BATCHES > 0")
}

pub fn run(out: &mut Outcome) {
    clock(out);
    memory(out);
    net(out);
    active(out);
    kernel(out);
}

/// GET_TS on a non-master machine of a synchronised three-machine cluster:
/// strict waits out the uncertainty, non-strict takes the lower bound.
fn clock(out: &mut Outcome) {
    let config = ClusterConfig {
        auto_control: true,
        control_interval: Duration::from_micros(500),
        ..ClusterConfig::test(3)
    };
    let engine = Engine::start_cluster(config, EngineConfig::default());
    let clock = Arc::clone(engine.node(NodeId(1)).handle().clock());
    // A few control rounds tighten the slave's uncertainty to steady state.
    std::thread::sleep(Duration::from_millis(20));
    out.set(
        "clock.get_ts_strict_ns",
        ns_per_call(|| {
            black_box(clock.get_ts(TsMode::StrictWait));
        }),
    );
    out.set(
        "clock.get_ts_nonstrict_ns",
        ns_per_call(|| {
            black_box(clock.get_ts(TsMode::NonStrictRead));
        }),
    );
    let widths: Vec<f64> = (0..BATCHES * 20)
        .map(|_| {
            std::thread::sleep(Duration::from_micros(50));
            clock.wait_time().uncertainty() as f64
        })
        .collect();
    out.set_some("clock.uncertainty_ns", stats::median(&widths));
    crate::system::stop(&engine);
}

fn memory(out: &mut Outcome) {
    // 4096 × 64 B objects: 256 KiB of payload plus headers, inside L2, so
    // this prices the code path and not the cache misses (`ycsb_c` has
    // those).
    const OBJECTS: usize = 4096;
    let region = Region::new(RegionId(0), RegionConfig::default());
    let mut addrs: Vec<Addr> = (0..OBJECTS)
        .map(|_| region.allocate(64).expect("probe allocation"))
        .collect();
    addrs.sort();
    for (i, &a) in addrs.iter().enumerate() {
        let slot = region.slot(a).expect("just allocated");
        slot.initialize(7, Bytes::from(vec![i as u8; 64]));
    }
    let mut at = 0;
    let mut next = |n: usize| {
        at = (at + n) % (OBJECTS - 16);
        at
    };
    for (name, n) in [
        ("memory.read_consistent_ns", 1),
        ("memory.read_consistent_b16_ns", 16),
    ] {
        out.set(
            name,
            ns_per_call(|| {
                let i = next(n);
                black_box(region.read_consistent_batch(&addrs[i..i + n]));
            }),
        );
    }
    for (name, n) in [
        ("memory.lock_batch_ns", 1),
        ("memory.lock_batch_b16_ns", 16),
    ] {
        let mut entries: Vec<(Addr, u64)> = Vec::with_capacity(n);
        out.set(
            name,
            ns_per_call(|| {
                let i = next(n);
                entries.clear();
                entries.extend(addrs[i..i + n].iter().map(|&a| (a, 7)));
                let locked = region.try_lock_batch(&entries).expect("uncontended");
                for slot in black_box(locked) {
                    slot.unlock();
                }
            }),
        );
    }
    out.set(
        "memory.alloc_free_ns",
        ns_per_call(|| {
            let a = region.allocate(64).expect("probe allocation");
            region.free(black_box(a)).expect("just allocated");
        }),
    );
    let store = OldVersionStore::new(64 * 1024, 64 * 1024 * 1024);
    let data = Bytes::from(vec![1u8; 64]);
    let mut ts = 0;
    out.set(
        "memory.oldver_alloc_ns",
        ns_per_call(|| {
            ts += 1;
            let version = OldVersion {
                ts,
                ovp: None,
                data: data.clone(),
            };
            if store.allocate_local(version).is_err() {
                // Budget used up: recycle every sealed block, as GC would.
                store.detach_cursors();
                store.collect(u64::MAX);
            }
        }),
    );
}

fn net(out: &mut Outcome) {
    // One phase's fan-out to four destinations: issue, run the (empty)
    // destination work, collect.
    out.set(
        "net.completion_issue4_ns",
        ns_per_call(|| {
            let mut set = CompletionSet::new(LatencyModel::zero());
            for dest in 0..4u32 {
                set.issue(NodeId(dest), Verb::Rpc, move || dest);
            }
            black_box(set.complete(DispatchMode::Concurrent, None));
        }),
    );
    let meter = OneSidedMeter::new(Arc::new(NetStats::default()), LatencyModel::zero());
    out.set(
        "net.meter_record_ns",
        ns_per_call(|| meter.rpc_batch_deferred(black_box(4), 256)),
    );
    // How much later than asked a 7 µs flight (one RPC) completes.
    let model = LatencyModel::datacenter();
    let flight = Duration::from_nanos(model.rpc_ns);
    let over: Vec<f64> = (0..BATCHES * 200)
        .map(|_| {
            let t = Instant::now();
            model.wait_until(t + flight);
            (t.elapsed() - flight).as_nanos() as f64
        })
        .collect();
    out.set_some("net.wait_overshoot_ns", stats::median(&over));
}

fn active(out: &mut Outcome) {
    let table = ActiveTxTable::new();
    let mut serial = 0;
    out.set(
        "core.active.register_ns",
        ns_per_call(|| {
            serial += 1;
            let token = table.register(serial, serial);
            table.unregister(black_box(token));
        }),
    );
    // The OAT scan with two transactions live, as under two clients.
    let _live = [table.register(1, 10), table.register(2, 20)];
    out.set(
        "core.active.oat_scan_ns",
        ns_per_call(|| {
            black_box(table.oat());
        }),
    );
}

/// One control round (lease renewal, clock sync, OAT/GC propagation and
/// expiry detection for all five machines), driven by hand.
fn kernel(out: &mut Outcome) {
    let engine = Engine::start_cluster(ClusterConfig::test(5), EngineConfig::default());
    let cluster = Arc::clone(engine.cluster());
    out.set(
        "kernel.control_round_ns",
        ns_per_call(|| cluster.control_round()),
    );
    crate::system::stop(&engine);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_per_call_scales_with_the_work() {
        let spin = |n: u64| {
            move || {
                for i in 0..n {
                    black_box(i);
                }
            }
        };
        let small = ns_per_call(spin(100));
        let large = ns_per_call(spin(10_000));
        assert!(large > small * 20.0, "{small} vs {large}");
    }
}
