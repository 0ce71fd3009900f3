//! Optional latency injection for one-sided verbs and RPCs.
//!
//! Inside a single process a "remote" memory access costs nanoseconds, while
//! a real RDMA read within a data center costs a couple of microseconds and
//! an RPC a few more. For experiments where the latency *composition* matters
//! (e.g. the throughput/latency curve of Figure 13) the harness can configure
//! a [`LatencyModel`]; for raw-throughput experiments it uses
//! [`LatencyModel::zero`], which compiles down to a no-op.
//!
//! Latency is **deadline-based** ([`LatencyModel::verb_ns`] +
//! [`LatencyModel::wait_until`]): the caller computes a completion deadline
//! per verb at issue time and blocks **once**, at the latest deadline — the
//! completion-queue model used by [`crate::CompletionSet`], where a phase
//! fanning out to K destinations pays `max(latency)` like a real coordinator
//! waiting on its NIC completion queue. A lone read pays the same way: the
//! meter hands back its deadline and the reader waits after its access.
//! [`LatencyModel::wait_until`] is the only wait there is.

use std::time::Instant;

use crate::Verb;

/// Waits at or above this many nanoseconds sleep; shorter waits spin (with
/// periodic yields). See [`LatencyModel::spin_threshold_ns`].
pub const DEFAULT_SPIN_THRESHOLD_NS: u64 = 20_000;

/// Fixed per-verb latencies injected by busy-waiting (for short values)
/// or sleeping (for values at or above the spin threshold).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Latency of a one-sided RDMA read, in nanoseconds.
    pub rdma_read_ns: u64,
    /// Latency of a one-sided RDMA write (until NIC ack), in nanoseconds.
    pub rdma_write_ns: u64,
    /// Latency of a two-sided RPC (one way), in nanoseconds.
    pub rpc_ns: u64,
    /// Waits of at least this many nanoseconds sleep instead of spinning.
    /// Shorter waits busy-spin, yielding the CPU periodically so that a
    /// host with fewer cores than simulated in-flight verbs still makes
    /// progress. The old behavior (spin up to 100 µs, monopolizing a core
    /// per waiter) is recovered by setting this to `100_000`.
    pub spin_threshold_ns: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            rdma_read_ns: 0,
            rdma_write_ns: 0,
            rpc_ns: 0,
            spin_threshold_ns: DEFAULT_SPIN_THRESHOLD_NS,
        }
    }
}

impl LatencyModel {
    /// No injected latency.
    pub fn zero() -> Self {
        LatencyModel::default()
    }

    /// A model loosely calibrated to the paper's testbed: ~2.5 µs one-sided
    /// reads, ~3 µs writes-to-ack, ~7 µs RPC one-way under load.
    pub fn datacenter() -> Self {
        LatencyModel {
            rdma_read_ns: 2_500,
            rdma_write_ns: 3_000,
            rpc_ns: 7_000,
            ..Default::default()
        }
    }

    /// The configured latency of one verb, in nanoseconds. (Hardware acks
    /// are covered by the write-to-ack latency and cost nothing extra.)
    #[inline]
    pub fn verb_ns(&self, verb: Verb) -> u64 {
        match verb {
            Verb::RdmaRead => self.rdma_read_ns,
            Verb::RdmaWrite => self.rdma_write_ns,
            Verb::HardwareAck => 0,
            Verb::Rpc => self.rpc_ns,
        }
    }

    /// Blocks until `deadline` has passed (no-op if it already has) — the
    /// one wait of the deadline-based accounting model. What remains of
    /// the wait is slept when it is at least the spin threshold and spun
    /// otherwise, yielding periodically so co-scheduled waiters on small
    /// hosts still run.
    pub fn wait_until(&self, deadline: Instant) {
        let mut spins = 0u32;
        while let Some(remaining) = deadline.checked_duration_since(Instant::now()) {
            if remaining.as_nanos() as u64 >= self.spin_threshold_ns {
                std::thread::sleep(remaining);
                continue;
            }
            spins += 1;
            if spins.is_multiple_of(256) {
                // Let another simulated participant (worker thread,
                // co-located coordinator) run; a dedicated core pays
                // ~100 ns per yield, an oversubscribed one avoids a whole
                // scheduling quantum.
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn zero_model_is_free() {
        let m = LatencyModel::zero();
        let start = Instant::now();
        let deadline = start + Duration::from_nanos(m.rdma_read_ns);
        for _ in 0..30_000 {
            m.wait_until(deadline);
        }
        // 30k waits on a deadline already reached take well under 10 ms.
        assert!(start.elapsed() < Duration::from_millis(10));
    }

    #[test]
    fn nonzero_model_actually_waits() {
        let m = LatencyModel {
            rdma_read_ns: 200_000,
            ..Default::default()
        };
        let start = Instant::now();
        m.wait_until(start + Duration::from_nanos(m.rdma_read_ns));
        assert!(start.elapsed() >= Duration::from_micros(200));
    }

    #[test]
    fn datacenter_model_has_expected_ordering() {
        let m = LatencyModel::datacenter();
        assert!(m.rdma_read_ns < m.rpc_ns);
        assert!(m.rdma_write_ns < m.rpc_ns);
        assert_eq!(m.verb_ns(Verb::RdmaRead), m.rdma_read_ns);
        assert_eq!(m.verb_ns(Verb::RdmaWrite), m.rdma_write_ns);
        assert_eq!(m.verb_ns(Verb::Rpc), m.rpc_ns);
        assert_eq!(m.verb_ns(Verb::HardwareAck), 0);
    }

    #[test]
    fn wait_until_blocks_until_deadline() {
        let m = LatencyModel::datacenter();
        let start = Instant::now();
        let deadline = start + Duration::from_micros(100);
        m.wait_until(deadline);
        assert!(start.elapsed() >= Duration::from_micros(100));
        // A deadline already in the past returns immediately.
        let start = Instant::now();
        m.wait_until(start - Duration::from_micros(1));
        assert!(start.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn spin_threshold_is_configurable() {
        // A threshold of 0 forces the sleep path even for tiny waits; the
        // wait must still cover the requested duration.
        let m = LatencyModel {
            rdma_read_ns: 50_000,
            spin_threshold_ns: 0,
            ..Default::default()
        };
        let start = Instant::now();
        m.wait_until(start + Duration::from_nanos(m.rdma_read_ns));
        assert!(start.elapsed() >= Duration::from_micros(50));
    }
}
