//! # quasii-common
//!
//! Shared substrate for the QUASII reproduction (Pavlovic et al.,
//! *QUASII: QUery-Aware Spatial Incremental Index*, EDBT 2018):
//!
//! * [`geom`] — axis-aligned boxes and records;
//! * [`index`] — the [`index::SpatialIndex`] trait all indexes implement,
//!   plus brute-force verification;
//! * [`dataset`] — synthetic-uniform and neuroscience-like dataset
//!   generators (§6.1 of the paper);
//! * [`workload`] — clustered and uniform query-sequence generators (§6.1);
//! * [`io`] — dataset files: the binary `.qsd` format and CSV;
//! * [`pool`] — the process-wide pool of parked workers every parallel
//!   batch, shard fan-out and shard load runs its jobs on;
//! * [`scan`] — the full-scan baseline;
//! * [`measure`] — per-query/cumulative timing series, break-even detection,
//!   table & CSV rendering for the experiment harness;
//! * [`snapshot`] — the shared error surface of index persistence
//!   (single-buffer snapshots, see `quasii::snapshot`);
//! * [`fsx`] — crash-safe atomic file replacement behind the
//!   [`fsx::SnapshotStore`] trait, with bounded retry for transient errors;
//! * [`fault`] — deterministic fault injection ([`fault::MemStore`] crash
//!   model + seeded [`fault::FaultStore`]) for the recovery test suite.

#![warn(missing_docs)]

pub mod dataset;
pub mod fault;
pub mod fsx;
pub mod geom;
pub mod index;
pub mod io;
pub mod measure;
pub mod pool;
pub mod scan;
pub mod snapshot;
pub mod workload;

pub use geom::{Aabb, Record};
pub use index::SpatialIndex;
pub use snapshot::SnapshotError;
