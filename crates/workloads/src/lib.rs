//! # farm-workloads — the TPC-C workload of the evaluation
//!
//! The paper's headline benchmark (Section 5.1) is **TPC-C**: the full
//! transaction mix over a schema with 16 indexes (hash tables for point
//! access, B-trees where range queries are needed), scaled by warehouses per
//! machine, with throughput reported as committed `neworder` transactions
//! per second.
//!
//! This crate provides a scaled-down but structurally faithful
//! implementation: the schema keeps the tables, keys and transaction logic
//! relevant to the access patterns (multi-row reads and updates across
//! warehouses/districts/customers/stock/orders, an item catalog replicated
//! by sharding, order-line range reads). The YCSB workloads and their
//! skewed key selection live in the `benchmark/` package, which drives both.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod tpcc;

pub use tpcc::{TpccConfig, TpccDatabase, TpccOutcome, TpccTxKind};
