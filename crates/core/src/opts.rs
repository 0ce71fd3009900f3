//! Engine and per-transaction configuration.

/// Isolation level of a transaction. FaRMv2 supports strict serializability
/// (the default) and snapshot isolation; it deliberately supports nothing
/// weaker (Section 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsolationLevel {
    /// Serializable: reads are validated at commit so the snapshot is still
    /// current at the write timestamp.
    Serializable,
    /// Snapshot isolation: validation is skipped (consistent snapshots are
    /// already provided during execution) and the write-timestamp uncertainty
    /// wait overlaps replication.
    SnapshotIsolation,
}

/// Policy applied when old-version memory is exhausted during the LOCK phase
/// (Section 5.3 / Figure 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MvPolicy {
    /// Block the writer until old-version memory becomes available.
    Block,
    /// Abort the writer.
    Abort,
    /// Let the writer proceed without allocating the old version, truncating
    /// the object's history (readers needing it will abort).
    Truncate,
}

/// Cluster-wide engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Multi-version mode and its policy when old-version memory runs out;
    /// `None` is single-version mode (the paper's default for TPC-C), where
    /// no old versions are kept.
    pub mv_policy: Option<MvPolicy>,
    /// Injected wire latency for one-sided verbs and RPCs. Zero (the
    /// default) for raw-throughput runs; [`farm_net::LatencyModel::datacenter`]
    /// for latency-composition experiments like Figure 13.
    pub latency: farm_net::LatencyModel,
    /// How many backoff steps a read takes when it observes a locked head
    /// version before aborting.
    pub read_lock_retries: u32,
    /// Interval of the background thread: old-version garbage collection
    /// and the standalone flush of a truncation watermark that has not
    /// moved for a whole interval (under steady commit traffic it
    /// piggybacks on protocol verbs instead).
    pub gc_interval: std::time::Duration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            mv_policy: None,
            latency: farm_net::LatencyModel::zero(),
            read_lock_retries: 100,
            gc_interval: std::time::Duration::from_millis(2),
        }
    }
}

impl EngineConfig {
    /// Multi-versioning enabled, with MV-TRUNCATE (as in production).
    pub fn multi_version() -> Self {
        EngineConfig {
            mv_policy: Some(MvPolicy::Truncate),
            ..Default::default()
        }
    }
}

/// Per-transaction options.
#[derive(Debug, Clone, Copy)]
pub struct TxOptions {
    /// Isolation level.
    pub isolation: IsolationLevel,
    /// Strictness: strict transactions wait out the read-timestamp
    /// uncertainty; non-strict transactions use the interval's lower bound
    /// without waiting (Section 4.2).
    pub strict: bool,
    /// Application hint that this transaction is likely to write; enables
    /// eager aborts when it reads an old version even while the write set is
    /// still empty (Section 4.7).
    pub write_hint: bool,
}

impl Default for TxOptions {
    fn default() -> Self {
        TxOptions {
            isolation: IsolationLevel::Serializable,
            strict: true,
            write_hint: false,
        }
    }
}

impl TxOptions {
    /// Strict serializability (the FaRMv2 default).
    pub fn serializable() -> Self {
        Self::default()
    }

    /// Non-strict serializability.
    pub fn serializable_non_strict() -> Self {
        TxOptions {
            strict: false,
            ..Self::default()
        }
    }

    /// Strict snapshot isolation.
    pub fn snapshot_isolation() -> Self {
        TxOptions {
            isolation: IsolationLevel::SnapshotIsolation,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_presets() {
        let s = TxOptions::serializable();
        assert!(s.strict);
        assert_eq!(s.isolation, IsolationLevel::Serializable);
        let ns = TxOptions::serializable_non_strict();
        assert!(!ns.strict);
        let si = TxOptions::snapshot_isolation();
        assert_eq!(si.isolation, IsolationLevel::SnapshotIsolation);
        assert!(si.strict);
    }

    #[test]
    fn mode_constructors() {
        // Single-version is the default; `multi_version()` is MV-TRUNCATE.
        assert_eq!(EngineConfig::default().mv_policy, None);
        assert_eq!(
            EngineConfig::multi_version().mv_policy,
            Some(MvPolicy::Truncate)
        );
    }

    #[test]
    fn engine_config_presets() {
        let config = EngineConfig::default();
        assert_eq!(config.latency, farm_net::LatencyModel::zero());
    }
}
