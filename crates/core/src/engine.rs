//! Query processing and index refinement — the paper's Algorithm 1
//! (`query`) and Algorithm 2 (`refine`), including artificial refinement and
//! query extension (§5.2).
//!
//! Everything here operates on split borrows of the [`crate::Quasii`]
//! fields: the records, held as [`Lanes`] in the sealed arena's
//! convention (an id lane, and per dimension a `lo` lane and a negated-`hi`
//! lane), are reorganized in place while the slice hierarchy is rebuilt
//! around them. Slices keep data-array indices for their whole life; a
//! slice's `begin..end` indexes every lane.

use crate::config::AssignBy;
use crate::crack::{
    crack_median_keyed_measured, crack_three_keyed_measured, crack_two_keyed_measured, DimBounds,
    LanesMut,
};
use crate::simd::{LaneId, LaneView, SimdLevel};
use crate::slice::Slice;
use crate::stats::QuasiiStats;
use quasii_common::geom::Aabb;
use quasii_common::snapshot::own_zeroed_mapping;
use std::ops::Range;

/// Upper bound on recursive artificial (midpoint) splits per slice: a
/// guard against value distributions no split can separate, past which the
/// slice is force-refined. Not a tuning knob, so not in `QuasiiConfig`.
const MAX_ARTIFICIAL_DEPTH: usize = 64;

/// Immutable per-index parameters.
pub(crate) struct Env<const D: usize> {
    /// τ thresholds per level (Eq. 1 schedule).
    pub tau: [usize; D],
    /// Assignment coordinate (paper default: lower).
    pub mode: AssignBy,
    /// Kernel generation for the streaming lane tests (bottom-level scans,
    /// live and sealed), resolved once at engine construction (see
    /// [`crate::simd`]).
    pub simd: SimdLevel,
}

/// Mutable runtime state shared across the recursion.
pub(crate) struct Runtime<const D: usize> {
    /// Work counters.
    pub stats: QuasiiStats,
}

impl<const D: usize> Runtime<D> {
    pub(crate) fn new() -> Self {
        Self {
            stats: QuasiiStats::default(),
        }
    }

    fn note_slice(&mut self, s: &Slice<D>) {
        self.stats.slices_created += 1;
        if s.refined {
            self.stats.slices_refined += 1;
        }
    }
}

/// The live records as lanes, in data-array order: `ids[i]` is record
/// `i`'s id, and per dimension `d` one lane holds every record's lower
/// corner and one its upper corner negated — the sealed arena's layout,
/// with the id kept whole (`u64`). The `2 × D` coordinate lanes share one
/// buffer (`lo[0..D]`, then negated `hi[0..D]`), a mapping of its own
/// advised for huge pages once it is large enough
/// ([`own_zeroed_mapping`]), so writing a million records' lanes faults in
/// about two dozen pages instead of twelve thousand.
pub(crate) struct Lanes<const D: usize> {
    ids: Vec<u64>,
    coords: Vec<f64>,
}

impl<const D: usize> Lanes<D> {
    /// No records, no allocation.
    pub(crate) fn new() -> Self {
        Self::zeroed(0)
    }

    /// `n` records, every lane zero: allocated zeroed, so no page is
    /// touched before the lanes are written.
    pub(crate) fn zeroed(n: usize) -> Self {
        Self {
            ids: vec![0; n],
            coords: own_zeroed_mapping(2 * D * n),
        }
    }

    /// The lanes a snapshot stores: the ids, and every coordinate lane one
    /// after the other, `ids.len()` values each.
    pub(crate) fn from_parts(ids: Vec<u64>, coords: Vec<f64>) -> Self {
        debug_assert_eq!(coords.len(), 2 * D * ids.len());
        Self { ids, coords }
    }

    /// Number of records.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// The bytes the lanes hold allocated.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        (self.ids.capacity() + self.coords.capacity()) * 8
    }

    /// Copies the records `span` of `from` to positions `at..`, ids
    /// widened.
    pub(crate) fn copy_from<I: LaneId>(
        &mut self,
        at: usize,
        from: &LaneView<'_, I, D>,
        span: Range<usize>,
    ) {
        let to = at..at + span.len();
        for (id, &f) in self.ids[to.clone()].iter_mut().zip(&from.ids[span.clone()]) {
            *id = f.widen();
        }
        let n = self.len();
        for (k, lane) in from.lo.iter().chain(&from.nhi).enumerate() {
            self.coords[k * n..(k + 1) * n][to.clone()].copy_from_slice(&lane[span.clone()]);
        }
    }

    /// The exact MBB of the records of `span`, folded record by record as
    /// `Aabb::expand` folds records (the `2 × D` folds of a record are
    /// independent, so they overlap).
    pub(crate) fn mbb(&self, span: Range<usize>) -> Aabb<D> {
        let view = self.view();
        let lo: [&[f64]; D] = view.lo.map(|l| &l[span.clone()]);
        let nhi: [&[f64]; D] = view.nhi.map(|l| &l[span.clone()]);
        let mut mbb = Aabb::empty();
        for i in 0..span.len() {
            for d in 0..D {
                if lo[d][i] < mbb.lo[d] {
                    mbb.lo[d] = lo[d][i];
                }
                if -nhi[d][i] > mbb.hi[d] {
                    mbb.hi[d] = -nhi[d][i];
                }
            }
        }
        mbb
    }

    /// The lanes of `span`, for a crack kernel.
    pub(crate) fn segment_mut(&mut self, span: Range<usize>) -> LanesMut<'_, D> {
        let n = self.len();
        let mut rest = self.coords.as_mut_slice();
        let mut next = || {
            let (lane, tail) = std::mem::take(&mut rest).split_at_mut(n);
            rest = tail;
            &mut lane[span.clone()]
        };
        LanesMut {
            lo: std::array::from_fn(|_| next()),
            nhi: std::array::from_fn(|_| next()),
            ids: &mut self.ids[span],
        }
    }

    /// Every lane, for a scan, a seal or a snapshot.
    pub(crate) fn view(&self) -> LaneView<'_, u64, D> {
        let n = self.len();
        LaneView {
            ids: &self.ids,
            lo: std::array::from_fn(|d| &self.coords[d * n..(d + 1) * n]),
            nhi: std::array::from_fn(|d| &self.coords[(D + d) * n..(D + d + 1) * n]),
        }
    }
}

/// Placeholder swapped into a slice list while its slice is refined.
fn placeholder<const D: usize>() -> Slice<D> {
    Slice {
        level: 0,
        begin: 0,
        end: 0,
        bbox: Aabb::empty(),
        cut_lo: 0.0,
        cut_hi: 0.0,
        key_lo: 0.0,
        refined: true,
        converged: false,
        children: Vec::new(),
        sealed: None,
    }
}

/// Books one crack kernel pass: the two deterministic work counters (the
/// ones the determinism gate compares). All four kernel shapes funnel
/// through here.
fn record_crack<const D: usize>(rt: &mut Runtime<D>, records: u64) {
    rt.stats.cracks += 1;
    rt.stats.records_cracked += records;
}

/// Builds a sub-slice over `begin..end` after a crack of `parent` on its
/// dimension, from the crack-dimension bounds the keyed kernel measured
/// during the partition pass. A segment at or below τ becomes refined and
/// gets its exact MBB measured here — the only record scan on this path,
/// over a small, just-cracked (cache-resident) segment; larger segments
/// keep the parent's open-ended box narrowed to the measured interval on
/// the crack dimension (§5.1).
#[allow(clippy::too_many_arguments)]
fn make_sub<const D: usize>(
    lanes: &Lanes<D>,
    parent: &Slice<D>,
    begin: usize,
    end: usize,
    cut_lo: f64,
    cut_hi: f64,
    db: &DimBounds,
    env: &Env<D>,
    rt: &mut Runtime<D>,
) -> Slice<D> {
    let dim = parent.dim();
    let mut s = Slice {
        level: parent.level,
        begin,
        end,
        bbox: parent.bbox,
        cut_lo,
        cut_hi,
        key_lo: db.min_key,
        refined: false,
        converged: false,
        children: Vec::new(),
        sealed: None,
    };
    if s.len() <= env.tau[dim] {
        s.bbox = lanes.mbb(s.begin..s.end);
        s.refined = true;
        s.converged = dim + 1 == D;
    } else {
        s.bbox.lo[dim] = db.min_lo;
        s.bbox.hi[dim] = db.max_hi;
    }
    rt.note_slice(&s);
    s
}

/// Finalizes a slice that cannot be split further (value-indivisible
/// assignment keys): exact MBB, marked refined even though it exceeds τ.
fn force_refine<const D: usize>(
    lanes: &Lanes<D>,
    mut s: Slice<D>,
    rt: &mut Runtime<D>,
) -> Slice<D> {
    s.bbox = lanes.mbb(s.begin..s.end);
    s.refined = true;
    s.converged = s.dim() + 1 == D;
    rt.stats.forced_refinements += 1;
    rt.stats.slices_refined += 1;
    s
}

/// Artificial refinement (§5.2): recursive midpoint two-way cracks until
/// every *query-overlapping* piece satisfies τ; non-overlapping pieces stay
/// coarse for later queries. Falls back to a rank (median) split, then to
/// force-refinement, on degenerate value distributions.
fn artificial<const D: usize>(
    lanes: &mut Lanes<D>,
    s: Slice<D>,
    qe: &Aabb<D>,
    env: &Env<D>,
    rt: &mut Runtime<D>,
    out: &mut Vec<Slice<D>>,
    depth: usize,
) {
    if s.is_empty() {
        return;
    }
    let dim = s.dim();
    if s.refined || qe.lo[dim] > s.bbox.hi[dim] || qe.hi[dim] < s.bbox.lo[dim] {
        out.push(s);
        return;
    }
    if depth >= MAX_ARTIFICIAL_DEPTH {
        out.push(force_refine(lanes, s, rt));
        return;
    }
    // Midpoint of the actual value interval (intersection of the cut range
    // with the measured bounds keeps the midpoint meaningful even when the
    // cut range is much wider than the data).
    let lo = s.bbox.lo[dim].max(s.cut_lo);
    let hi = s.bbox.hi[dim].min(s.cut_hi);
    let mid = 0.5 * (lo + hi);
    let seg_len = s.len();
    let (mut split, mut lm, mut rm) =
        crack_two_keyed_measured(lanes.segment_mut(s.begin..s.end), dim, env.mode, mid);
    let mut split_value = mid;
    if split == 0 || split == seg_len {
        // Midpoint failed to separate — rank-based fallback (rare: only on
        // degenerate value distributions). The measuring kernel returns
        // both halves' bounds from its final partition pass, so no
        // re-scan of the halves is needed here either.
        let (msplit, mlm, mrm) =
            crack_median_keyed_measured(lanes.segment_mut(s.begin..s.end), dim, env.mode);
        if msplit == 0 || msplit == seg_len {
            out.push(force_refine(lanes, s, rt));
            return;
        }
        (split, lm, rm) = (msplit, mlm, mrm);
        split_value = rm.min_key;
    }
    record_crack(rt, seg_len as u64);
    let m = s.begin + split;
    let left = make_sub(lanes, &s, s.begin, m, s.cut_lo, split_value, &lm, env, rt);
    let right = make_sub(lanes, &s, m, s.end, split_value, s.cut_hi, &rm, env, rt);
    artificial(lanes, left, qe, env, rt, out, depth + 1);
    artificial(lanes, right, qe, env, rt, out, depth + 1);
}

/// Algorithm 2: refines `s` on its own dimension against the (extended)
/// query, returning the replacement slices sorted by data-array position.
///
/// Callers guarantee `s` is unrefined — `query_level` descends refined
/// slices in place without ever calling `refine` (so the old
/// refined-early-return `vec![s]` allocation is gone from this path).
pub(crate) fn refine<const D: usize>(
    lanes: &mut Lanes<D>,
    s: Slice<D>,
    qe: &Aabb<D>,
    env: &Env<D>,
    rt: &mut Runtime<D>,
) -> Vec<Slice<D>> {
    debug_assert!(
        !s.refined,
        "refine() must not be called on refined slices (query_level guards)"
    );
    let dim = s.dim();
    let (cl, ch) = (s.cut_lo, s.cut_hi);
    let (ql, qu) = (qe.lo[dim], qe.hi[dim]);
    let inside_l = ql > cl && ql < ch;
    let inside_u = qu > cl && qu < ch;

    let seg_len = s.len() as u64;
    let mut primary: Vec<Slice<D>> = Vec::with_capacity(3);
    match (inside_l, inside_u) {
        (true, true) => {
            // Both query bounds inside the slice: three-way slicing.
            let seg = lanes.segment_mut(s.begin..s.end);
            let (p1, p2, m) = crack_three_keyed_measured(seg, dim, env.mode, ql, qu);
            record_crack(rt, seg_len);
            let (b, m1, m2, e) = (s.begin, s.begin + p1, s.begin + p2, s.end);
            primary.push(make_sub(lanes, &s, b, m1, cl, ql, &m[0], env, rt));
            primary.push(make_sub(lanes, &s, m1, m2, ql, qu, &m[1], env, rt));
            primary.push(make_sub(lanes, &s, m2, e, qu, ch, &m[2], env, rt));
        }
        (true, false) => {
            // Only the lower bound cuts the slice: two-way at ql.
            let seg = lanes.segment_mut(s.begin..s.end);
            let (p, lm, rm) = crack_two_keyed_measured(seg, dim, env.mode, ql);
            record_crack(rt, seg_len);
            let m = s.begin + p;
            primary.push(make_sub(lanes, &s, s.begin, m, cl, ql, &lm, env, rt));
            primary.push(make_sub(lanes, &s, m, s.end, ql, ch, &rm, env, rt));
        }
        (false, true) => {
            // Only the upper bound cuts the slice: two-way keeping
            // `key <= qu` on the left (pivot just above qu).
            let pivot = qu.next_up();
            let seg = lanes.segment_mut(s.begin..s.end);
            let (p, lm, rm) = crack_two_keyed_measured(seg, dim, env.mode, pivot);
            record_crack(rt, seg_len);
            let m = s.begin + p;
            primary.push(make_sub(lanes, &s, s.begin, m, cl, qu, &lm, env, rt));
            primary.push(make_sub(lanes, &s, m, s.end, qu, ch, &rm, env, rt));
        }
        (false, false) => {
            // The query covers the slice on this dimension: only artificial
            // boundaries can refine it (paper Alg. 2 "default" case).
            primary.push(s);
        }
    }

    let mut out = Vec::with_capacity(primary.len() + 2);
    for p in primary {
        if p.is_empty() {
            continue;
        }
        // Paper Alg. 2 lines 8–13: pieces still above τ that overlap the
        // query get artificial refinement; others stay coarse.
        artificial(lanes, p, qe, env, rt, &mut out, 0);
    }
    out
}

/// Visits one query-overlapping refined slice: a converged one through
/// [`read_slice`] (from its arena when it is sealed), anything else by
/// recursing into its children (materializing the default child first).
/// The visit that leaves every child converged marks the slice converged.
fn descend<const D: usize>(
    lanes: &mut Lanes<D>,
    s: &mut Slice<D>,
    q: &Aabb<D>,
    qe: &Aabb<D>,
    env: &Env<D>,
    rt: &mut Runtime<D>,
    out: &mut Vec<u64>,
) {
    debug_assert!(s.refined, "only refined slices are descended");
    if s.converged {
        rt.stats.objects_tested += read_slice(&lanes.view(), s, q, qe, env.simd, out);
        return;
    }
    debug_assert!(s.dim() + 1 < D, "a refined bottom-level slice is converged");
    if s.children.is_empty() {
        let child = s.default_child(env.tau[s.dim() + 1]);
        rt.note_slice(&child);
        rt.stats.default_children += 1;
        s.children.push(child);
    }
    query_level(lanes, &mut s.children, q, qe, env, rt, out);
    s.converged = s.children.iter().all(|c| c.converged);
}

/// The candidate window of a sibling list (all one level, sorted by
/// minimum assignment key) for the extended query `qe`: the §5.2 "extended
/// binary search". The slice *before* the partition point may still
/// straddle `qe.lo` (its keys end somewhere below the next slice's
/// minimum), so the window steps one back; it ends before the first slice
/// whose minimum key exceeds `qe.hi`, past which no key can qualify.
pub(crate) fn window<const D: usize>(slices: &[Slice<D>], qe: &Aabb<D>) -> Range<usize> {
    let Some(first) = slices.first() else {
        return 0..0;
    };
    let dim = first.dim();
    let start = slices
        .partition_point(|s| s.key_lo < qe.lo[dim])
        .saturating_sub(1);
    start..start + slices[start..].partition_point(|s| s.key_lo <= qe.hi[dim])
}

/// The slices of a sibling list that a query visits: its [`window`],
/// minus those whose bounding box misses `q`.
fn visited<'a, const D: usize>(
    slices: &'a [Slice<D>],
    q: &'a Aabb<D>,
    qe: &Aabb<D>,
) -> impl Iterator<Item = &'a Slice<D>> {
    slices[window(slices, qe)]
        .iter()
        .filter(move |s| q.intersects(&s.bbox))
}

/// Whether a query that visits `s` cracks nothing and creates nothing at
/// or below it: `s` has converged, or it is refined with children and every
/// child the query visits passes the same test. An unrefined slice fails
/// (the query cracks it), and so does a refined, childless non-bottom one
/// (the query grows its default child).
pub(crate) fn cracks_nothing<const D: usize>(s: &Slice<D>, q: &Aabb<D>, qe: &Aabb<D>) -> bool {
    s.converged
        || (s.refined
            && !s.children.is_empty()
            && visited(&s.children, q, qe).all(|c| cracks_nothing(c, q, qe)))
}

/// The one read of a converged slice: answers `q` below a visited slice
/// `s` that [`cracks_nothing`], appending ids in the order `query_level`
/// would and returning the objects tested. A sealed slice is read from its
/// arena, with one contiguous id copy when `q` contains its box (see
/// `SealedRegion::walk` for why that equals the full descent's output and
/// tested count). Any other takes the live descent over the shared tree
/// and the live lanes: it reproduces the level loop's probe, break and
/// bounding-box skip, and scans the records of each bottom-level slice it
/// reaches with the arena's lane scan ([`LaneView::scan`]), testing only
/// the lanes the slice's box leaves undecided (the box holds every record
/// of the slice, so a bound the box keeps inside `q` holds for each).
pub(crate) fn read_slice<const D: usize>(
    lanes: &LaneView<'_, u64, D>,
    s: &Slice<D>,
    q: &Aabb<D>,
    qe: &Aabb<D>,
    simd: SimdLevel,
    out: &mut Vec<u64>,
) -> u64 {
    if let Some(region) = &s.sealed {
        return if q.contains(&s.bbox) {
            region.emit_all(out)
        } else {
            region.run(q, qe, out, simd)
        };
    }
    if s.children.is_empty() {
        debug_assert!(s.dim() + 1 == D, "a readable path ends at the bottom level");
        let test_lo = std::array::from_fn(|d| s.bbox.hi[d] > q.hi[d]);
        let test_hi = std::array::from_fn(|d| s.bbox.lo[d] < q.lo[d]);
        return lanes.scan(s.begin, s.end, q, test_lo, test_hi, out, simd);
    }
    let mut tested = 0;
    for c in visited(&s.children, q, qe) {
        tested += read_slice(lanes, c, q, qe, simd, out);
    }
    tested
}

/// Algorithm 1: processes one level's slice list depth-first, refining
/// query-overlapping slices, descending into children (materializing default
/// children as needed) and collecting results at the bottom level.
///
/// `q` is the original query (used for pruning and the final intersection
/// filter); `qe` is the extension-adjusted query used for reorganization —
/// every assignment key of a potentially qualifying object lies inside
/// `[qe.lo, qe.hi]` on each dimension.
pub(crate) fn query_level<const D: usize>(
    lanes: &mut Lanes<D>,
    slices: &mut Vec<Slice<D>>,
    q: &Aabb<D>,
    qe: &Aabb<D>,
    env: &Env<D>,
    rt: &mut Runtime<D>,
    out: &mut Vec<u64>,
) {
    debug_assert!(slices.windows(2).all(|w| w[0].level == w[1].level));

    // Allocated lazily on the first refinement: in the fully converged
    // regime every overlapping slice takes the `descend` fast path below and
    // steady-state queries perform no allocation besides the result vector.
    // The loop swaps a placeholder in only at the index it is on, so the
    // window computed up front stays the one it walks.
    let mut replacements: Option<Vec<(usize, Vec<Slice<D>>)>> = None;
    for i in window(slices, qe) {
        if !q.intersects(&slices[i].bbox) {
            continue;
        }
        if slices[i].refined {
            // Fast path for the converged regime: descend in place, no
            // replacement bookkeeping, no allocation.
            descend(lanes, &mut slices[i], q, qe, env, rt, out);
            continue;
        }
        let s = std::mem::replace(&mut slices[i], placeholder());
        let mut subs = refine(lanes, s, qe, env, rt);
        for sub in subs.iter_mut() {
            if q.intersects(&sub.bbox) {
                descend(lanes, sub, q, qe, env, rt, out);
            }
        }
        replacements.get_or_insert_with(Vec::new).push((i, subs));
    }

    // Put replacements back. A lone replacement splices in place; with more
    // than one, repeated `splice(i..=i, …)` would shift the tail once per
    // refined slice — O(replacements × list length), which a single query
    // can hit on every level it refines — so the list is instead rebuilt in
    // one left-to-right merge pass. Sortedness is preserved either way:
    // every replacement run covers exactly its predecessor's range.
    if let Some(replacements) = replacements {
        if replacements.len() == 1 {
            let (i, subs) = replacements.into_iter().next().expect("len checked");
            slices.splice(i..=i, subs);
        } else {
            let added: usize = replacements.iter().map(|(_, subs)| subs.len()).sum();
            let mut merged: Vec<Slice<D>> =
                Vec::with_capacity(slices.len() - replacements.len() + added);
            let mut reps = replacements.into_iter().peekable();
            for (i, s) in slices.drain(..).enumerate() {
                match reps.peek() {
                    // `s` is the placeholder left at a refined index: drop
                    // it and merge the replacement run in.
                    Some((ri, _)) if *ri == i => {
                        merged.extend(reps.next().expect("peeked").1);
                    }
                    _ => merged.push(s),
                }
            }
            *slices = merged;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasii_common::geom::Record;

    /// Records go into the lanes and come back bit for bit, and a span's
    /// box is the exact MBB of its records.
    #[test]
    fn lanes_hold_records_and_measure_their_boxes() {
        let data = [
            Record::new(0, Aabb::new([2.0, 2.0], [3.0, 3.0])),
            Record::new(1 << 40, Aabb::new([4.0, 1.0], [5.0, 6.0])),
            Record::new(2, Aabb::new([-1.0, 0.0], [0.0, -0.0])),
        ];
        let mut lanes = Lanes::<2>::zeroed(data.len());
        let mut all = lanes.segment_mut(0..3);
        data.iter().enumerate().for_each(|(i, r)| all.set(i, r));
        assert_eq!(lanes.len(), 3);
        let mut back = Vec::new();
        lanes.view().push_records(0..3, &mut back);
        assert_eq!(back, data);
        assert_eq!(lanes.mbb(0..2), Aabb::new([2.0, 1.0], [5.0, 6.0]));
        assert_eq!(lanes.mbb(0..3), quasii_common::geom::mbb_of(&data));
        assert_eq!(lanes.view().ids, &[0, 1 << 40, 2]);
        let mut copy = Lanes::<2>::zeroed(4);
        copy.copy_from(1, &lanes.view(), 1..3);
        let mut some = Vec::new();
        copy.view().push_records(1..3, &mut some);
        assert_eq!(some, data[1..]);
        let seg = copy.segment_mut(1..4);
        seg.ids[0] = 7;
        seg.nhi[1][2] = 0.5;
        assert_eq!(copy.view().ids, &[0, 7, 2, 0]);
        assert_eq!(copy.view().nhi[1], &[0.0, -6.0, 0.0, 0.5]);
    }
}
