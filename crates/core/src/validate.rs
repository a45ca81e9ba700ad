//! Structural invariant checking for the slice hierarchy. Not used on the
//! query path; tests and property tests call [`validate`] after every
//! operation to catch corruption early. A snapshot load holds each arena
//! to the partition rules of invariants 1, 2, 6 and 7 itself
//! (`SealedRegion::from_blob`), so a malformed arena is refused by name
//! before anything reads it.
//!
//! Checked invariants:
//!
//! 1. sibling slices are sorted by data position and exactly partition their
//!    parent's range (no gaps, no overlap);
//! 2. levels increase by one per generation, never exceeding `D`;
//! 3. the cracking order holds: the maximum assignment key (on the level's
//!    dimension) of a sibling never exceeds the minimum of the next sibling,
//!    and each slice's recorded `key_lo` lower-bounds its keys;
//! 4. each slice's bounding box covers all its objects' MBBs;
//! 5. refined slices carry their *exact* MBB; unrefined slices exceed τ;
//! 6. only refined slices have children;
//! 7. no slice is empty;
//! 8. the column pair is in lockstep with the data: wherever an unrefined
//!    slice claims fresh columns (`keys_fresh`), `keys[i]` equals the
//!    record's own-level assignment key and `his[i]` its own-level upper
//!    coordinate over the slice's whole range (see `crate::keys`);
//! 9. every arena (see `crate::seal`) holds its sealed slice's records:
//!    while some record is unsealed, the rows over the slice's range; the
//!    cached sealed-record count equals the arenas' total;
//! 10. every slice's cached `converged` flag equals `subtree_converged()`;
//! 11. the rows and the key columns exist exactly while some record is
//!     unsealed: `n` of each then, none once every record is sealed;
//! 12. a sealed slice is at level 0, converged and childless.
//!
//! A sealed slice's subtree is its arena, so the checks below it run on the
//! arena's nodes, rebuilt as slices (`SealedRegion::slices`): invariants 3
//! to 5, 7 and 10 hold there as anywhere. A fully sealed engine keeps no
//! rows, so its checks read the records from its arenas
//! ([`Quasii::records`]), and 9's record half is met by construction.

use crate::config::AssignBy;
use crate::crack::key_of;
use crate::keys::KeyColumn;
use crate::seal::SealedRegion;
use crate::slice::Slice;
use crate::Quasii;
use quasii_common::geom::{Aabb, Record};
use std::borrow::Cow;

/// Runs all checks; `Err` describes the first violation.
pub(crate) fn validate<const D: usize>(index: &Quasii<D>) -> Result<(), String> {
    let (rows, cols, roots) = (&index.data, &index.keys, &index.root);
    if roots.is_empty() {
        return Ok(()); // pre-initialization or empty dataset
    }
    // The cached sealed-record count the fully-sealed fast path trusts is
    // the arenas' total (invariant 9), and it decides invariant 11.
    let sealed: usize = index.arenas().map(SealedRegion::records).sum();
    if index.sealed_records() != sealed {
        return Err(format!(
            "sealed-record count {} but the regions hold {sealed}",
            index.sealed_records()
        ));
    }
    let n = index.n;
    let fully_sealed = sealed == n;
    let want = if fully_sealed { 0 } else { n };
    if rows.len() != want || !cols.is_built(want) {
        return Err(format!(
            "{} rows and {} key-column entries for {n} records, {sealed} of them sealed",
            rows.len(),
            cols.len()
        ));
    }
    let records = if fully_sealed {
        Cow::Owned(index.records())
    } else {
        Cow::Borrowed(rows.as_slice())
    };
    let (tau, mode) = (&index.env.tau, index.cfg.assign_by);
    check_level(&records, cols, roots, 0, 0, n, tau, mode)
}

#[allow(clippy::too_many_arguments)]
fn check_level<const D: usize>(
    data: &[Record<D>],
    cols: &KeyColumn,
    slices: &[Slice<D>],
    level: usize,
    begin: usize,
    end: usize,
    tau: &[usize; D],
    mode: AssignBy,
) -> Result<(), String> {
    if level >= D {
        return Err(format!("level {level} exceeds dimensionality {D}"));
    }
    let mut cursor = begin;
    let mut prev_max_key = f64::NEG_INFINITY;
    let mut prev_key_lo = f64::NEG_INFINITY;
    for (i, s) in slices.iter().enumerate() {
        if s.dim() != level {
            return Err(format!(
                "slice {i}: level {} but list expects {level}",
                s.level
            ));
        }
        if s.is_empty() {
            return Err(format!("slice {i} at level {level} is empty"));
        }
        if s.begin != cursor {
            return Err(format!(
                "gap/overlap at level {level}: slice {i} starts at {} expected {cursor}",
                s.begin
            ));
        }
        if s.end > end {
            return Err(format!(
                "slice {i} at level {level} overruns parent range ({} > {end})",
                s.end
            ));
        }
        cursor = s.end;

        // Cracking order across siblings (invariant 3).
        let seg = &data[s.begin..s.end];
        let min_key = seg
            .iter()
            .map(|r| key_of(r, level, mode))
            .fold(f64::INFINITY, f64::min);
        let max_key = seg
            .iter()
            .map(|r| key_of(r, level, mode))
            .fold(f64::NEG_INFINITY, f64::max);
        if min_key < prev_max_key {
            return Err(format!(
                "ordering violated at level {level}, slice {i}: min key {min_key} < previous max {prev_max_key}"
            ));
        }
        prev_max_key = prev_max_key.max(max_key);
        if s.key_lo > min_key {
            return Err(format!(
                "slice {i} at level {level}: recorded key_lo {} exceeds actual min key {min_key}",
                s.key_lo
            ));
        }
        if s.key_lo < prev_key_lo {
            return Err(format!(
                "slice {i} at level {level}: key_lo not sorted ({} < {prev_key_lo})",
                s.key_lo
            ));
        }
        prev_key_lo = s.key_lo;

        // Bounding-box coverage (invariant 4) and exactness (invariant 5).
        let mut exact = Aabb::empty();
        for r in seg {
            exact.expand(&r.mbb);
        }
        for k in 0..D {
            if exact.lo[k] < s.bbox.lo[k] || exact.hi[k] > s.bbox.hi[k] {
                return Err(format!(
                    "bbox of slice {i} at level {level} does not cover objects on dim {k}: \
                     box {:?} vs exact {:?}",
                    s.bbox, exact
                ));
            }
        }
        if s.refined && s.bbox != exact {
            return Err(format!(
                "refined slice {i} at level {level} has inexact bbox {:?} (exact {:?})",
                s.bbox, exact
            ));
        }
        if !s.refined && s.len() <= tau[level] {
            return Err(format!(
                "slice {i} at level {level} holds {} <= τ={} objects but is not refined",
                s.len(),
                tau[level]
            ));
        }

        // Column lockstep (invariant 8): an *unrefined* fresh slice's range
        // caches exactly its own-level assignment keys and upper bounds.
        // (The flag is meaningless on refined slices: descendants re-key
        // sub-ranges for deeper dimensions, and the engine never consults
        // it there — `refine` only ever runs on unrefined slices.)
        if s.keys_fresh && !s.refined {
            let (Some(keys), Some(his)) = (
                cols.keys().get(s.begin..s.end),
                cols.his().get(s.begin..s.end),
            ) else {
                return Err(format!(
                    "unrefined slice {i} at level {level} claims key columns the engine lacks"
                ));
            };
            for (idx, ((k, h), r)) in keys.iter().zip(his).zip(seg).enumerate() {
                let want_k = key_of(r, level, mode);
                let want_h = r.mbb.hi[level];
                if *k != want_k || *h != want_h {
                    return Err(format!(
                        "column pair out of lockstep at level {level}, slice {i}, \
                         position {}: cached ({k}, {h}), expected ({want_k}, {want_h})",
                        s.begin + idx
                    ));
                }
            }
        }

        // The cached convergence flag (invariant 10).
        if s.converged != s.subtree_converged() {
            return Err(format!(
                "slice {i} at level {level} ({}..{}): converged flag {} but the subtree {}",
                s.begin,
                s.end,
                s.converged,
                if s.converged {
                    "has not converged"
                } else {
                    "has converged"
                }
            ));
        }

        // A sealed slice's subtree is its arena (invariants 9 and 12).
        if let Some(region) = &s.sealed {
            let mut held = Vec::with_capacity(s.len());
            region.push_records(&mut held);
            if level != 0 || !s.converged || !s.children.is_empty() || held != seg {
                return Err(format!(
                    "sealed slice {i} at level {level} ({}..{}): converged {}, {} children, \
                     arena records equal to the rows: {}",
                    s.begin,
                    s.end,
                    s.converged,
                    s.children.len(),
                    held == seg
                ));
            }
            if level + 1 < D {
                check_level(
                    data,
                    cols,
                    &region.slices(s.begin),
                    level + 1,
                    s.begin,
                    s.end,
                    tau,
                    mode,
                )?;
            }
        }

        if !s.children.is_empty() {
            if !s.refined {
                return Err(format!("unrefined slice {i} at level {level} has children"));
            }
            check_level(
                data,
                cols,
                &s.children,
                level + 1,
                s.begin,
                s.end,
                tau,
                mode,
            )?;
        }
    }
    // Root list must cover the full dataset; inner lists their parent.
    if cursor != end {
        return Err(format!(
            "level {level} list covers up to {cursor}, expected {end}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::{Quasii, QuasiiConfig};
    use quasii_common::dataset::uniform_boxes_in;
    use quasii_common::geom::Aabb;
    use quasii_common::index::SpatialIndex;

    /// A convergence flag that disagrees with its subtree is named by
    /// level, sibling index and range, whichever way it is wrong.
    #[test]
    fn a_flipped_convergence_flag_is_named() {
        let data = uniform_boxes_in::<3>(3_000, 1_000.0, 61);
        let mut idx = Quasii::new(data, QuasiiConfig::with_tau(16));
        // Root slices over x ≤ 300 converge their children over y ≤ 300
        // (every z queried) and leave the rest coarse, so they stay unsealed.
        idx.query_collect(&Aabb::new([0.0, 0.0, -1.0], [300.0, 300.0, 1_001.0]));
        idx.query_collect(&Aabb::new([500.0; 3], [560.0; 3]));
        idx.validate().unwrap();
        for want in [true, false] {
            let (i, parent) = idx
                .root
                .iter()
                .enumerate()
                .find(|(_, s)| s.children.iter().any(|c| c.converged == want))
                .expect("both flag values occur below the root");
            let (j, child) = parent
                .children
                .iter()
                .enumerate()
                .find(|(_, c)| c.converged == want)
                .expect("just found");
            let name = format!("slice {j} at level 1 ({}..{})", child.begin, child.end);
            idx.root[i].children[j].converged = !want;
            let err = idx.validate().expect_err("a flipped flag is a violation");
            assert!(err.contains(&name), "{err} does not name {name}");
            idx.root[i].children[j].converged = want;
            idx.validate().unwrap();
        }
    }

    /// A sealed slice's subtree is its arena: a sealed slice that also
    /// holds children is named.
    #[test]
    fn a_sealed_slice_with_children_is_named() {
        let data = uniform_boxes_in::<2>(500, 100.0, 62);
        let mut idx = Quasii::new(data, QuasiiConfig::with_tau(8));
        idx.finalize();
        idx.validate().unwrap();
        let child = idx.root[0].default_child(8);
        idx.root[0].children.push(child);
        let err = idx.validate().expect_err("a sealed slice has no children");
        assert!(err.contains("sealed slice 0 at level 0"), "{err}");
    }
}
