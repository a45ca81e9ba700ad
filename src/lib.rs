//! # quasii-suite
//!
//! Umbrella crate for the QUASII reproduction (Pavlovic et al., EDBT 2018).
//! It holds the [`prelude`] the examples and integration tests import; code
//! that needs more names a workspace crate directly (the root package depends
//! on each of them).
//!
//! The interesting entry points:
//!
//! * [`quasii::Quasii`] — the incremental, query-aware spatial index that is
//!   the paper's contribution;
//! * [`quasii_rtree::RTree`] — STR-bulkloaded R-Tree (static state of the art);
//! * [`quasii_grid::UniformGrid`] — uniform grid with both data-assignment
//!   strategies;
//! * [`quasii_sfc::SfcIndex`] / [`quasii_sfc::SfCracker`] — the
//!   one-dimensional (Z-order) static index and its cracking variant;
//! * [`quasii_mosaic::Mosaic`] — the incremental octree adapted from Space
//!   Odyssey;
//! * [`quasii_shard::ShardedQuasii`] — the multi-instance shard router
//!   (parallel scale-out on top of the paper's engine: cracks run in
//!   parallel one shard per job);
//! * [`quasii_server`] — the HTTP query service: a converged `GET /query`
//!   is a read under a shared guard and never enters admission; a query
//!   that needs the writer is grouped by the admission controller onto the
//!   batch path;
//! * [`quasii_common`] — geometry, datasets, workloads, measurement.

/// Convenience prelude used by the examples.
pub mod prelude {
    pub use quasii::{EnginePoisoned, Quasii, QuasiiConfig, RepairOutcome};
    pub use quasii_common::dataset::{self, DatasetSpec};
    pub use quasii_common::fault::{FaultPlan, FaultStore, MemStore};
    pub use quasii_common::fsx::{self, FsStore, RetryPolicy, SnapshotStore};
    pub use quasii_common::geom::{Aabb, Record};
    pub use quasii_common::index::SpatialIndex;
    pub use quasii_common::scan::Scan;
    pub use quasii_common::workload::{self, QueryWorkload};
    pub use quasii_grid::{Assignment, UniformGrid};
    pub use quasii_mosaic::Mosaic;
    pub use quasii_rtree::RTree;
    pub use quasii_server::{ServeConfig, ServerHandle};
    pub use quasii_sfc::{SfCracker, SfcIndex};
    pub use quasii_shard::{Recovery, RecoveryReport, ShardConfig, ShardSnapshot, ShardedQuasii};
}
