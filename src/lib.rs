//! # farm-repro — workspace root of the FaRMv2 reproduction
//!
//! This crate re-exports the public surface of the sub-crates so the
//! examples and integration tests have a single dependency, and so
//! downstream users can depend on one crate.
//!
//! See `README.md` for the quickstart, `benchmark/README.md` for the one
//! tracked measurement stack (end-to-end and per-layer), and `DESIGN.md`
//! for the system inventory and the last results of the deleted figure
//! harnesses ("What the FaRMv1 baseline and operation logging measured",
//! "What the figure harnesses measured").

pub use farm_clock as clock;
pub use farm_core as core_engine;
pub use farm_index as index;
pub use farm_kernel as kernel;
pub use farm_memory as memory;
pub use farm_net as net;
pub use farm_workloads as workloads;

pub use farm_core::{
    AbortReason, Engine, EngineConfig, MvPolicy, NodeId, Transaction, TxError, TxOptions,
};
pub use farm_kernel::ClusterConfig;
