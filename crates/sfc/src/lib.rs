//! # quasii-sfc
//!
//! One-dimensional-transform indexes from the QUASII paper:
//!
//! * `zorder` — the Z-order curve substrate: encoding, the Tropf–Herzog
//!   LITMAX/BIGMIN jump, and decomposition of box queries into Z-intervals
//!   fully contained in the query (§3.1's false-positive optimization);
//! * [`SfcIndex`] — the static baseline: full Z-transform + sort upfront,
//!   per-interval binary search at query time;
//! * [`SfCracker`] — the incremental straw man the paper constructs: the
//!   first query pays the transform, every query cracks the code array at
//!   its interval boundaries (database cracking in Z-space).

#![warn(missing_docs)]

pub(crate) mod sfc_index;
pub(crate) mod sfcracker;
pub(crate) mod zorder;

pub use sfc_index::SfcIndex;
pub use sfcracker::SfCracker;
pub use zorder::ZGrid;
