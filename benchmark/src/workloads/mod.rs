//! One module per kind of workload; each sets its system up through the
//! crates' public API, drives it, and checks what came back.

pub mod kv;
pub mod pipeline;
pub mod recovery;
pub mod tpcc;
