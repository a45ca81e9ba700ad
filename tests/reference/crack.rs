//! The record-streaming cracking kernels (Idreos et al., CIDR 2007): the
//! classic compare-and-swap partitions over the wide `Record<D>` array,
//! recomputing the assignment key on every probe. They are the oracle for
//! the engine's keyed kernels (`tests/keyed_kernels.rs`, with
//! `DimBounds::of` on each output segment), the kernels of the reference
//! QUASII (`tests/reference`), and the baseline side of the keyed-vs-split
//! passes comparison in `crates/bench/benches/kernels.rs`, which include
//! this file by `#[path]`. They share no code with the engine they check:
//! even the assignment key is written out here again. [`Lanes`] is the
//! harness side: it lays records out as the engine's kernels take them.

// Each includer uses part of it.
#![allow(dead_code)]

use quasii::crack::LanesMut;
use quasii::AssignBy;
use quasii_common::geom::{Aabb, Record};

/// The representative (assignment) coordinate of `r` on `dim` (the paper's
/// §5.1 lower corner, or its footnote 1's center or upper corner).
pub(crate) fn key_of<const D: usize>(r: &Record<D>, dim: usize, mode: AssignBy) -> f64 {
    match mode {
        AssignBy::Lower => r.mbb.lo[dim],
        AssignBy::Center => 0.5 * (r.mbb.lo[dim] + r.mbb.hi[dim]),
        AssignBy::Upper => r.mbb.hi[dim],
    }
}

/// Two-way crack: reorders `seg` so records with `key < pivot` precede the
/// rest; returns the split point (first index of the `>= pivot` part).
///
/// Hoare-style two-pointer pass — the classic database-cracking kernel,
/// recomputing `key_of` on every probe.
pub(crate) fn crack_two<const D: usize>(
    seg: &mut [Record<D>],
    dim: usize,
    mode: AssignBy,
    pivot: f64,
) -> usize {
    let mut i = 0usize;
    let mut j = seg.len();
    loop {
        while i < j && key_of(&seg[i], dim, mode) < pivot {
            i += 1;
        }
        while i < j && key_of(&seg[j - 1], dim, mode) >= pivot {
            j -= 1;
        }
        if i + 1 >= j {
            break;
        }
        seg.swap(i, j - 1);
        i += 1;
        j -= 1;
    }
    i
}

/// Three-way crack (Dutch national flag): partitions `seg` into
/// `key < low` | `low <= key <= high` | `key > high`; returns the two split
/// points `(p1, p2)` so the middle part is `p1..p2`.
pub(crate) fn crack_three<const D: usize>(
    seg: &mut [Record<D>],
    dim: usize,
    mode: AssignBy,
    low: f64,
    high: f64,
) -> (usize, usize) {
    debug_assert!(low <= high, "crack_three bounds inverted: {low} > {high}");
    let mut lt = 0usize;
    let mut i = 0usize;
    let mut gt = seg.len();
    while i < gt {
        let v = key_of(&seg[i], dim, mode);
        if v < low {
            seg.swap(lt, i);
            lt += 1;
            i += 1;
        } else if v > high {
            gt -= 1;
            seg.swap(i, gt);
        } else {
            i += 1;
        }
    }
    (lt, gt)
}

/// Rank-based fallback split used when midpoint (value) splits cannot
/// separate a degenerate distribution: moves the median-by-key value into
/// place and partitions around it. Returns the split point, which may be
/// `0` or `seg.len()` when all keys are equal (caller must handle).
pub(crate) fn crack_median<const D: usize>(
    seg: &mut [Record<D>],
    dim: usize,
    mode: AssignBy,
) -> usize {
    if seg.len() < 2 {
        return seg.len();
    }
    let mid = seg.len() / 2;
    seg.select_nth_unstable_by(mid, |a, b| {
        key_of(a, dim, mode)
            .partial_cmp(&key_of(b, dim, mode))
            .expect("coordinates are never NaN")
    });
    let pivot = key_of(&seg[mid], dim, mode);
    // Partition strictly below the median value; if everything is equal to
    // the pivot this yields 0 and the caller treats the slice as
    // value-indivisible.
    crack_two(seg, dim, mode, pivot)
}

/// Records as the lanes the engine's kernels crack: ids, and per dimension
/// the lower corners and the negated upper corners.
#[derive(Clone)]
pub(crate) struct Lanes {
    ids: Vec<u64>,
    lo: [Vec<f64>; 3],
    nhi: [Vec<f64>; 3],
}

impl Lanes {
    pub(crate) fn of(seg: &[Record<3>]) -> Self {
        Self {
            ids: seg.iter().map(|r| r.id).collect(),
            lo: std::array::from_fn(|d| seg.iter().map(|r| r.mbb.lo[d]).collect()),
            nhi: std::array::from_fn(|d| seg.iter().map(|r| -r.mbb.hi[d]).collect()),
        }
    }

    /// The kernels' argument.
    pub(crate) fn view(&mut self) -> LanesMut<'_, 3> {
        LanesMut {
            ids: &mut self.ids,
            lo: self.lo.each_mut().map(Vec::as_mut_slice),
            nhi: self.nhi.each_mut().map(Vec::as_mut_slice),
        }
    }

    /// The records, gathered back from every lane.
    pub(crate) fn records(&self) -> Vec<Record<3>> {
        (0..self.ids.len())
            .map(|i| {
                let lo = std::array::from_fn(|d| self.lo[d][i]);
                let hi = std::array::from_fn(|d| -self.nhi[d][i]);
                Record::new(self.ids[i], Aabb { lo, hi })
            })
            .collect()
    }
}
