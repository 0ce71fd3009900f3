//! # farm-kernel — the FaRM control plane
//!
//! This crate assembles the per-machine substrates (clock, memory, network)
//! into a **cluster** and implements the control-plane protocols of the
//! paper:
//!
//! * **Configurations and membership** (Section 4.3): a configuration is a
//!   numbered record naming the members and the configuration manager (CM).
//!   Configurations are stored in an external CAS store (ZooKeeper in the
//!   paper, [`ConfigStore`] here) and changed by atomic compare-and-swap.
//! * **Leases and failure detection**: every non-CM periodically renews a
//!   lease at the CM; missing renewals cause the CM to suspect the node, and
//!   a missing response causes the non-CM to suspect the CM. Lease messages
//!   double as the carrier for clock synchronization and for OAT / GC-safe-
//!   point propagation (Figure 9).
//! * **Reconfiguration with clock failover** (Figure 6): when the CM is
//!   removed, the new CM disables clocks, gathers fast-forward values,
//!   waits out lease expiry, advances global time to `FF` and re-enables
//!   clocks, preserving global monotonicity of timestamps without atomic
//!   clocks or GPS.
//! * **Region placement, backup promotion and re-replication**: regions are
//!   spread over the cluster with `f+1`-way primary-backup replication; when
//!   a primary fails a backup is promoted (and rebuilds its allocator
//!   bitmaps), and background re-replication restores the replication factor
//!   at a configurable pace.
//! * **One cluster view**: the committed configuration, the placement and
//!   the drain barrier live in one immutable [`ClusterView`], published
//!   through an `ArcSwap` and read with one wait-free [`Cluster::view`]
//!   load, so an epoch, a placement and a barrier are always read from the
//!   same configuration. Only a reconfiguration publishes a view, one per
//!   protocol step (barrier up, CAS, promotions, barrier lifted, new
//!   backups). The failure detector's lease bookkeeping, which changes
//!   every control round, sits beside the view, not in it.
//!
//! The transaction engine (`farm-core`) runs on top of the [`Cluster`]
//! type exported here; it registers an *OAT provider* per node so the lease
//! traffic can compute the oldest-active-transaction watermark, and a set of
//! recovery hooks invoked on promotions.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod cluster;
pub mod config;
pub mod events;
pub mod node;
pub mod placement;
pub mod view;

pub use cluster::{Cluster, ClusterConfig, NoHooks, RecoveryHooks};
pub use config::{ConfigRecord, ConfigStore};
pub use events::{ClusterEvent, EventKind, EventLog};
pub use node::NodeHandle;
pub use placement::{Placement, RegionAssignment};
pub use view::ClusterView;

pub use farm_clock as clock;
pub use farm_memory as memory;
pub use farm_net as net;
