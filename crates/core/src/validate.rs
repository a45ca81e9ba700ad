//! Structural invariant checking for the slice hierarchy. Not used on the
//! query path; tests and property tests call [`validate`] after every
//! operation to catch corruption early, and every snapshot load runs
//! invariant 9's metadata half ([`check_region_nodes`]).
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
//! 9. every sealed region (see `crate::seal`) mirrors a converged top-level
//!    slice exactly: matching data range, level-by-level SoA metadata equal
//!    to the slice subtree, and record columns equal to the data array; the
//!    cached sealed-record count equals the regions' total;
//! 10. every slice's cached `converged` flag equals `subtree_converged()`.

use crate::config::AssignBy;
use crate::crack::key_of;
use crate::keys::KeyColumn;
use crate::seal::SealedRegion;
use crate::slice::Slice;
use crate::Quasii;
use quasii_common::geom::{Aabb, Record};

/// Runs all checks; `Err` describes the first violation.
pub(crate) fn validate<const D: usize>(index: &Quasii<D>) -> Result<(), String> {
    let (data, cols, roots, tau, mode) = index.raw_parts();
    if roots.is_empty() {
        return Ok(()); // pre-initialization or empty dataset
    }
    if !cols.is_built(data.len()) {
        return Err(format!(
            "column pair holds {} entries for {} records",
            cols.len(),
            data.len()
        ));
    }
    check_level(data, cols, roots, 0, 0, data.len(), tau, mode)?;
    check_seals(index)
}

/// Invariant 9: every sealed arena is an exact compaction of a converged
/// top-level slice (`check_level` has already checked its flag against its
/// subtree), and the cached sealed-record count the fully-sealed fast path
/// trusts is their total.
fn check_seals<const D: usize>(index: &Quasii<D>) -> Result<(), String> {
    let (data, _, roots, _, _) = index.raw_parts();
    let sealed: usize = index.seal_regions().iter().map(|r| r.records()).sum();
    if index.sealed_records() != sealed {
        return Err(format!(
            "sealed-record count {} but the regions hold {sealed}",
            index.sealed_records()
        ));
    }
    let mut prev_end = 0usize;
    for (k, region) in index.seal_regions().iter().enumerate() {
        if region.begin < prev_end {
            return Err(format!(
                "seal {k} starts at {} inside the previous region (ends {prev_end})",
                region.begin
            ));
        }
        prev_end = region.end;
        let Some(root) = roots
            .iter()
            .find(|s| s.begin == region.begin && s.end == region.end)
        else {
            return Err(format!(
                "seal {k} covers {}..{} which matches no top-level slice",
                region.begin, region.end
            ));
        };
        if !root.converged {
            return Err(format!(
                "seal {k} covers an unconverged top-level slice {}..{}",
                region.begin, region.end
            ));
        }
        // Record columns mirror the data array.
        let seg = &data[region.begin..region.end];
        let ids = region.ids();
        if ids.len() != seg.len() {
            return Err(format!("seal {k}: id column length mismatch"));
        }
        for (p, r) in seg.iter().enumerate() {
            if ids[p] as u64 != r.id {
                return Err(format!(
                    "seal {k}: id column diverges at position {p} ({} vs {})",
                    ids[p], r.id
                ));
            }
            for d in 0..D {
                if region.rec_lo(d)[p] != r.mbb.lo[d] || region.rec_nhi(d)[p] != -r.mbb.hi[d] {
                    return Err(format!(
                        "seal {k}: MBB columns diverge at position {p}, dim {d}"
                    ));
                }
            }
        }
        check_region_nodes(region, root).map_err(|e| format!("seal {k}, {e}"))?;
    }
    Ok(())
}

/// Invariant 9's node half: `region`'s arena mirrors the subtree of the
/// top-level slice `root` breadth-first, level by level: per node the same
/// `key_lo`, record range, bounding box and child range. A snapshot stores
/// every sealed subtree twice, in the skeleton and in the arena, so
/// `persist::decode` runs this too; the record-column half stays in
/// [`check_seals`], since the loader rebuilds those rows from the arena.
pub(crate) fn check_region_nodes<const D: usize>(
    region: &SealedRegion<D>,
    root: &Slice<D>,
) -> Result<(), String> {
    let mut frontier: Vec<&Slice<D>> = root.children.iter().collect();
    for li in 0..region.level_count() {
        let key_lo = region.key_lo(li);
        let meta = region.meta(li);
        if key_lo.len() != frontier.len() {
            return Err(format!(
                "level {li}: {} arena nodes vs {} slices",
                key_lo.len(),
                frontier.len()
            ));
        }
        let mut next: Vec<&Slice<D>> = Vec::new();
        let bottom = li + 2 == D;
        for (i, s) in frontier.iter().enumerate() {
            let node = &meta[i];
            let (b, e) = (node.begin as usize, node.end as usize);
            if key_lo[i] != s.key_lo || b != s.begin - region.begin || e != s.end - region.begin {
                return Err(format!(
                    "level {li}, node {i}: metadata diverges from slice"
                ));
            }
            if node.bb_lo != s.bbox.lo || node.bb_hi != s.bbox.hi {
                return Err(format!("level {li}, node {i}: bbox diverges from slice"));
            }
            if !bottom {
                let child_start = next.len() as u32;
                next.extend(s.children.iter());
                if node.child_start != child_start || node.child_end != next.len() as u32 {
                    return Err(format!("level {li}, node {i}: child range diverges"));
                }
            } else if node.child_start != 0 || node.child_end != 0 {
                return Err(format!("level {li}, node {i}: bottom node claims children"));
            }
        }
        frontier = next;
    }
    if !frontier.is_empty() {
        return Err("the slice tree has more levels than the arena".into());
    }
    Ok(())
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
        if s.level != level {
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
            let keys = &cols.keys()[s.begin..s.end];
            let his = &cols.his()[s.begin..s.end];
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
        idx.query_collect(&Aabb::new([0.0; 3], [300.0, 1_001.0, 1_001.0]));
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
}
