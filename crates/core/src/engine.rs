//! Query processing and index refinement — the paper's Algorithm 1
//! (`query`) and Algorithm 2 (`refine`), including artificial refinement and
//! query extension (§5.2).
//!
//! Everything here operates on split borrows of the [`crate::Quasii`]
//! fields: the data array **and its narrow column pair** (assignment keys +
//! upper bounds, see [`crate::keys`]) are reorganized in place, in
//! lockstep, while the slice hierarchy is rebuilt around them. Slices keep
//! data-array indices for their whole life; every function here reaches
//! the three columns through one [`Cols`], which borrows the whole arrays.

use crate::config::AssignBy;
use crate::crack::{
    crack_median_keyed_measured, crack_three_keyed_measured, crack_two_keyed_measured, DimBounds,
};
use crate::keys::rekey;
use crate::simd::{self, SimdLevel};
use crate::slice::Slice;
use crate::stats::QuasiiStats;
use quasii_common::geom::{Aabb, Record};
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
    /// Kernel generation for the streaming test kernels (bottom-level
    /// collect, sealed lane tests), resolved once at engine construction
    /// (see [`crate::simd`]).
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

/// The three parallel columns (records, assignment keys, upper bounds),
/// borrowed whole; a slice's `begin..end` indexes all three.
pub(crate) struct Cols<'a, const D: usize> {
    data: &'a mut [Record<D>],
    keys: &'a mut [f64],
    his: &'a mut [f64],
}

impl<'a, const D: usize> Cols<'a, D> {
    /// Wraps three equally long columns.
    pub(crate) fn new(data: &'a mut [Record<D>], keys: &'a mut [f64], his: &'a mut [f64]) -> Self {
        debug_assert!(data.len() == keys.len() && data.len() == his.len());
        Self { data, keys, his }
    }

    /// The records of `s`.
    #[inline]
    pub(crate) fn records(&self, s: &Slice<D>) -> &[Record<D>] {
        &self.data[s.begin..s.end]
    }

    /// The whole record column.
    #[inline]
    fn data(&self) -> &[Record<D>] {
        self.data
    }

    /// The `(keys, his, records)` triple of `s`, in crack-kernel argument
    /// order.
    #[inline]
    pub(crate) fn range_mut(&mut self, s: &Slice<D>) -> (&mut [f64], &mut [f64], &mut [Record<D>]) {
        let r = s.begin..s.end;
        (
            &mut self.keys[r.clone()],
            &mut self.his[r.clone()],
            &mut self.data[r],
        )
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
        keys_fresh: true,
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
    cols: &Cols<'_, D>,
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
        // Crack kernels permute the column pair in lockstep, so every crack
        // output range still caches its own-level keys and upper bounds.
        keys_fresh: true,
        converged: false,
        children: Vec::new(),
        sealed: None,
    };
    if s.len() <= env.tau[dim] {
        s.measure_exact(cols.records(&s));
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
    cols: &Cols<'_, D>,
    mut s: Slice<D>,
    rt: &mut Runtime<D>,
) -> Slice<D> {
    s.measure_exact(cols.records(&s));
    s.refined = true;
    s.converged = s.dim() + 1 == D;
    rt.stats.forced_refinements += 1;
    rt.stats.slices_refined += 1;
    s
}

/// Re-keys a slice's range for its own level unless the columns already
/// cache it — the lazy per-level rebuild of the column pair (root slices
/// and crack outputs are born fresh; only default children pay this).
fn ensure_keys<const D: usize>(
    cols: &mut Cols<'_, D>,
    s: &mut Slice<D>,
    env: &Env<D>,
    rt: &mut Runtime<D>,
) {
    if !s.keys_fresh {
        let (keys, his, data) = cols.range_mut(s);
        rekey(keys, his, data, s.dim(), env.mode);
        s.keys_fresh = true;
        rt.stats.rekeys += 1;
        rt.stats.records_rekeyed += s.len() as u64;
    }
}

/// Artificial refinement (§5.2): recursive midpoint two-way cracks until
/// every *query-overlapping* piece satisfies τ; non-overlapping pieces stay
/// coarse for later queries. Falls back to a rank (median) split, then to
/// force-refinement, on degenerate value distributions.
///
/// `s` must have fresh keys (its callers guarantee it: `refine` re-keys
/// before cracking and every `make_sub` output is born fresh).
fn artificial<const D: usize>(
    cols: &mut Cols<'_, D>,
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
        out.push(force_refine(cols, s, rt));
        return;
    }
    debug_assert!(s.keys_fresh, "artificial() requires fresh columns");
    // Midpoint of the actual value interval (intersection of the cut range
    // with the measured bounds keeps the midpoint meaningful even when the
    // cut range is much wider than the data).
    let lo = s.bbox.lo[dim].max(s.cut_lo);
    let hi = s.bbox.hi[dim].min(s.cut_hi);
    let mid = 0.5 * (lo + hi);
    let (kseg, hseg, seg) = cols.range_mut(&s);
    let seg_len = seg.len() as u64;
    let (mut split, mut lm, mut rm) = crack_two_keyed_measured(kseg, hseg, seg, dim, env.mode, mid);
    let mut split_value = mid;
    if split == 0 || split == seg.len() {
        // Midpoint failed to separate — rank-based fallback (rare: only on
        // degenerate value distributions). The measuring kernel returns
        // both halves' bounds from its final partition pass, so no
        // re-scan of the halves is needed here either.
        let (msplit, mlm, mrm) = crack_median_keyed_measured(kseg, hseg, seg, dim, env.mode);
        if msplit == 0 || msplit == seg.len() {
            out.push(force_refine(cols, s, rt));
            return;
        }
        (split, lm, rm) = (msplit, mlm, mrm);
        split_value = rm.min_key;
    }
    record_crack(rt, seg_len);
    let m = s.begin + split;
    let left = make_sub(cols, &s, s.begin, m, s.cut_lo, split_value, &lm, env, rt);
    let right = make_sub(cols, &s, m, s.end, split_value, s.cut_hi, &rm, env, rt);
    artificial(cols, left, qe, env, rt, out, depth + 1);
    artificial(cols, right, qe, env, rt, out, depth + 1);
}

/// Algorithm 2: refines `s` on its own dimension against the (extended)
/// query, returning the replacement slices sorted by data-array position.
///
/// Callers guarantee `s` is unrefined — `query_level` descends refined
/// slices in place without ever calling `refine` (so the old
/// refined-early-return `vec![s]` allocation is gone from this path).
pub(crate) fn refine<const D: usize>(
    cols: &mut Cols<'_, D>,
    mut s: Slice<D>,
    qe: &Aabb<D>,
    env: &Env<D>,
    rt: &mut Runtime<D>,
) -> Vec<Slice<D>> {
    debug_assert!(
        !s.refined,
        "refine() must not be called on refined slices (query_level guards)"
    );
    ensure_keys(cols, &mut s, env, rt);
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
            let (keys, his, data) = cols.range_mut(&s);
            let (p1, p2, m) = crack_three_keyed_measured(keys, his, data, dim, env.mode, ql, qu);
            record_crack(rt, seg_len);
            let (b, m1, m2, e) = (s.begin, s.begin + p1, s.begin + p2, s.end);
            primary.push(make_sub(cols, &s, b, m1, cl, ql, &m[0], env, rt));
            primary.push(make_sub(cols, &s, m1, m2, ql, qu, &m[1], env, rt));
            primary.push(make_sub(cols, &s, m2, e, qu, ch, &m[2], env, rt));
        }
        (true, false) => {
            // Only the lower bound cuts the slice: two-way at ql.
            let (keys, his, data) = cols.range_mut(&s);
            let (p, lm, rm) = crack_two_keyed_measured(keys, his, data, dim, env.mode, ql);
            record_crack(rt, seg_len);
            let m = s.begin + p;
            primary.push(make_sub(cols, &s, s.begin, m, cl, ql, &lm, env, rt));
            primary.push(make_sub(cols, &s, m, s.end, ql, ch, &rm, env, rt));
        }
        (false, true) => {
            // Only the upper bound cuts the slice: two-way keeping
            // `key <= qu` on the left (pivot just above qu).
            let pivot = qu.next_up();
            let (keys, his, data) = cols.range_mut(&s);
            let (p, lm, rm) = crack_two_keyed_measured(keys, his, data, dim, env.mode, pivot);
            record_crack(rt, seg_len);
            let m = s.begin + p;
            primary.push(make_sub(cols, &s, s.begin, m, cl, qu, &lm, env, rt));
            primary.push(make_sub(cols, &s, m, s.end, qu, ch, &rm, env, rt));
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
        artificial(cols, p, qe, env, rt, &mut out, 0);
    }
    out
}

/// Visits one query-overlapping refined slice: a converged one through
/// [`read_slice`] (from its arena when it is sealed), anything else by
/// recursing into its children (materializing the default child first).
/// The visit that leaves every child converged marks the slice converged.
fn descend<const D: usize>(
    cols: &mut Cols<'_, D>,
    s: &mut Slice<D>,
    q: &Aabb<D>,
    qe: &Aabb<D>,
    env: &Env<D>,
    rt: &mut Runtime<D>,
    out: &mut Vec<u64>,
) {
    debug_assert!(s.refined, "only refined slices are descended");
    if s.converged {
        rt.stats.objects_tested += read_slice(cols.data(), s, q, qe, env.simd, out);
        return;
    }
    debug_assert!(s.dim() + 1 < D, "a refined bottom-level slice is converged");
    if s.children.is_empty() {
        let child = s.default_child(env.tau[s.dim() + 1]);
        rt.note_slice(&child);
        rt.stats.default_children += 1;
        s.children.push(child);
    }
    query_level(cols, &mut s.children, q, qe, env, rt, out);
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
/// and the data array `data`: it reproduces the level loop's probe, break
/// and bounding-box skip, and tests the records of each bottom-level slice
/// it reaches with the predicated [`simd::collect_bottom`]: every id is
/// written, the write cursor advances by the branch-free intersection
/// result, and the over-provisioned tail is truncated.
pub(crate) fn read_slice<const D: usize>(
    data: &[Record<D>],
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
        let seg = &data[s.begin..s.end];
        let start = out.len();
        out.resize(start + seg.len(), 0);
        let w = simd::collect_bottom(simd, seg, q, &mut out[start..]);
        out.truncate(start + w);
        return seg.len() as u64;
    }
    let mut tested = 0;
    for c in visited(&s.children, q, qe) {
        tested += read_slice(data, c, q, qe, simd, out);
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
    cols: &mut Cols<'_, D>,
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
            descend(cols, &mut slices[i], q, qe, env, rt, out);
            continue;
        }
        let s = std::mem::replace(&mut slices[i], placeholder());
        let mut subs = refine(cols, s, qe, env, rt);
        for sub in subs.iter_mut() {
            if q.intersects(&sub.bbox) {
                descend(cols, sub, q, qe, env, rt, out);
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
