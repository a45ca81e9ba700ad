//! A reference QUASII: the paper's Algorithm 1 (`query`) and Algorithm 2
//! (`refine`) as one plain, slow engine, and the oracle the optimized
//! engine is checked against (`tests/reference_agreement.rs`, and the
//! sealed, live-read and snapshot suites).
//!
//! It is the algorithm with nothing else: one `Vec<Record<D>>` cracked in
//! place by the classic database-cracking kernels (Idreos et al., CIDR
//! 2007; [`crack`], which shares no code with the engine), a recursive
//! slice tree, and the
//! assignment key recomputed on every probe. There are no key columns,
//! arenas, seals, batches or threads. The Eq. 1 τ schedule, the §5.2 query
//! extension and candidate window, artificial refinement with its median
//! fallback and forced refinement, default children and `finalize` are
//! written out here again from the paper, not borrowed from the engine.
//!
//! The engine must agree with it on the answers (ids in order), on the
//! record permutation, and on every algorithmic work counter. `rekeys` and
//! `records_rekeyed` count the engine's key-column rebuilds, which the
//! reference does not have; [`algorithmic`] zeroes them.

// Each suite that includes this module uses part of it.
#![allow(dead_code)]

mod crack;

use crack::{crack_median, crack_three, crack_two};
use quasii::crack::DimBounds;
use quasii::{AssignBy, QuasiiConfig, QuasiiStats};
use quasii_common::geom::{max_extents, mbb_of, Aabb, Record};
use quasii_shard::ShardedQuasii;
use std::ops::Range;

/// Recursive midpoint splits of one slice before it is force-refined: the
/// guard against value distributions no split separates.
const MAX_ARTIFICIAL_DEPTH: usize = 64;

/// `stats` without the counters of the engine's key columns, which the
/// reference has no analogue of.
pub(crate) fn algorithmic(stats: QuasiiStats) -> QuasiiStats {
    QuasiiStats {
        rekeys: 0,
        records_rekeyed: 0,
        ..stats
    }
}

/// The ids of `records`, in order.
pub(crate) fn ids<const D: usize>(records: &[Record<D>]) -> Vec<u64> {
    records.iter().map(|r| r.id).collect()
}

/// Paper Eq. 1: `⌈n/τ⌉` final partitions need `r` cuts per dimension, the
/// smallest `r` with `r^D ≥ ⌈n/τ⌉`; the thresholds grow by `r` per level
/// upwards from `τ_{D-1} = τ`.
fn tau_schedule<const D: usize>(n: usize, tau: usize) -> [usize; D] {
    let tau = tau.max(1);
    let partitions = n.div_ceil(tau).max(1);
    let mut r = 1usize;
    while r.pow(D as u32) < partitions {
        r += 1;
    }
    let mut out = [tau; D];
    for l in (0..D - 1).rev() {
        out[l] = out[l + 1] * r;
    }
    out
}

/// One slice of the hierarchy (paper §5.1): its level, data-array range,
/// box, the key interval it was cut to, its minimum key, whether it reached
/// τ, and its children one level down.
struct Slice<const D: usize> {
    level: usize,
    range: Range<usize>,
    bbox: Aabb<D>,
    cut: (f64, f64),
    key_lo: f64,
    refined: bool,
    children: Vec<Slice<D>>,
}

/// What the recursion mutates besides the tree.
struct Work<const D: usize> {
    data: Vec<Record<D>>,
    tau: [usize; D],
    mode: AssignBy,
    stats: QuasiiStats,
}

/// The reference engine.
pub(crate) struct Reference<const D: usize> {
    root: Vec<Slice<D>>,
    work: Work<D>,
    ext_low: [f64; D],
    ext_high: [f64; D],
    bounds: Aabb<D>,
}

impl<const D: usize> Reference<D> {
    /// The index over `data` with the τ and assignment coordinate of `cfg`,
    /// before any query: no slice yet. The first query starts from one root
    /// slice over the whole dataset, refined only if the dataset fits
    /// `τ_0` (the paper's design goal (i): no work before the first query).
    pub(crate) fn new(data: Vec<Record<D>>, cfg: &QuasiiConfig) -> Self {
        let (n, mode) = (data.len(), cfg.assign_by);
        let (bounds, ext) = (mbb_of(&data), max_extents(&data));
        // §5.2: a qualifying object's key lies at most the object's extent
        // after its key before the query, and at most the part before its
        // key after it.
        let (mut ext_low, mut ext_high) = ([0.0; D], [0.0; D]);
        for k in 0..D {
            (ext_low[k], ext_high[k]) = match mode {
                AssignBy::Lower => (ext[k], 0.0),
                AssignBy::Center => (ext[k] / 2.0, ext[k] / 2.0),
                AssignBy::Upper => (0.0, ext[k]),
            };
        }
        let tau = tau_schedule::<D>(n, cfg.tau);
        Self {
            root: Vec::new(),
            work: Work {
                data,
                tau,
                mode,
                stats: QuasiiStats::default(),
            },
            ext_low,
            ext_high,
            bounds,
        }
    }

    /// Algorithm 1: answers `q`, cracking what it visits; the ids in the
    /// order the depth-first visit meets them.
    pub(crate) fn query(&mut self, q: &Aabb<D>) -> Vec<u64> {
        self.work.stats.queries += 1;
        self.run(q)
    }

    /// Refines every slice down to τ: one whole-universe query that is not
    /// counted as a query.
    pub(crate) fn finalize(&mut self) {
        if !self.work.data.is_empty() {
            let everything = self.bounds;
            self.run(&everything);
        }
    }

    fn run(&mut self, q: &Aabb<D>) -> Vec<u64> {
        let mut qe = *q;
        for k in 0..D {
            qe.lo[k] -= self.ext_low[k];
            qe.hi[k] += self.ext_high[k];
        }
        let n = self.work.data.len();
        if self.root.is_empty() && n > 0 {
            self.root.push(Slice {
                level: 0,
                range: 0..n,
                bbox: self.bounds,
                cut: (self.bounds.lo[0], self.bounds.hi[0]),
                key_lo: f64::NEG_INFINITY,
                refined: n <= self.work.tau[0],
                children: Vec::new(),
            });
        }
        let mut out = Vec::new();
        self.work.query_level(&mut self.root, q, &qe, &mut out);
        out
    }

    /// The records in their cracked permutation.
    pub(crate) fn records(&self) -> &[Record<D>] {
        &self.work.data
    }

    /// The work counters, `rekeys` and `records_rekeyed` always 0.
    pub(crate) fn stats(&self) -> QuasiiStats {
        self.work.stats
    }

    /// Number of slices per level (none before the first query).
    pub(crate) fn level_profile(&self) -> [usize; D] {
        fn walk<const D: usize>(slices: &[Slice<D>], acc: &mut [usize; D]) {
            for s in slices {
                acc[s.level] += 1;
                walk(&s.children, acc);
            }
        }
        let mut acc = [0; D];
        walk(&self.root, &mut acc);
        acc
    }

    /// The dimension-0 query extension, `(low, high)`.
    fn ext0(&self) -> (f64, f64) {
        (self.ext_low[0], self.ext_high[0])
    }
}

/// The candidate window of a sibling list sorted by minimum key (§5.2):
/// from the last slice whose keys start below `qe.lo` (it may reach into
/// the query) through the last one whose keys start at or below `qe.hi`.
fn window<const D: usize>(slices: &[Slice<D>], qe: &Aabb<D>) -> Range<usize> {
    let Some(first) = slices.first() else {
        return 0..0;
    };
    let dim = first.level;
    let below = slices.iter().take_while(|s| s.key_lo < qe.lo[dim]).count();
    let start = below.saturating_sub(1);
    let end = start
        + slices[start..]
            .iter()
            .take_while(|s| s.key_lo <= qe.hi[dim])
            .count();
    start..end
}

impl<const D: usize> Work<D> {
    /// Algorithm 1 over one level's sibling list: every candidate whose box
    /// meets `q` is refined if it is not yet, and each refined piece that
    /// meets `q` is descended; the refined pieces replace their slice.
    fn query_level(
        &mut self,
        slices: &mut Vec<Slice<D>>,
        q: &Aabb<D>,
        qe: &Aabb<D>,
        out: &mut Vec<u64>,
    ) {
        let window = window(slices, qe);
        let mut next = Vec::with_capacity(slices.len());
        for (i, mut s) in std::mem::take(slices).into_iter().enumerate() {
            if !window.contains(&i) || !q.intersects(&s.bbox) {
                next.push(s);
            } else if s.refined {
                self.descend(&mut s, q, qe, out);
                next.push(s);
            } else {
                for mut piece in self.refine(s, qe) {
                    if q.intersects(&piece.bbox) {
                        self.descend(&mut piece, q, qe, out);
                    }
                    next.push(piece);
                }
            }
        }
        *slices = next;
    }

    /// A refined slice that meets `q`: at the bottom level its records are
    /// tested one by one; above it, the query goes on one level down,
    /// through the default child (Alg. 1 line 15) if there is no child yet.
    fn descend(&mut self, s: &mut Slice<D>, q: &Aabb<D>, qe: &Aabb<D>, out: &mut Vec<u64>) {
        if s.level + 1 == D {
            let seg = &self.data[s.range.clone()];
            self.stats.objects_tested += seg.len() as u64;
            out.extend(seg.iter().filter(|r| r.mbb.intersects(q)).map(|r| r.id));
            return;
        }
        if s.children.is_empty() {
            let l = s.level + 1;
            let child = Slice {
                level: l,
                range: s.range.clone(),
                bbox: s.bbox,
                cut: (s.bbox.lo[l], s.bbox.hi[l]),
                key_lo: f64::NEG_INFINITY,
                refined: s.range.len() <= self.tau[l],
                children: Vec::new(),
            };
            self.stats.slices_created += 1;
            self.stats.slices_refined += u64::from(child.refined);
            self.stats.default_children += 1;
            s.children.push(child);
        }
        self.query_level(&mut s.children, q, qe, out);
    }

    /// Algorithm 2: cracks an unrefined slice on its own dimension at the
    /// extended query's bounds that fall inside its cut interval, then
    /// refines artificially every piece still above τ that meets the
    /// query. Returns the pieces in data-array order, empty ones dropped.
    fn refine(&mut self, s: Slice<D>, qe: &Aabb<D>) -> Vec<Slice<D>> {
        let (dim, mode) = (s.level, self.mode);
        let (ql, qu) = (qe.lo[dim], qe.hi[dim]);
        let inside = |v: f64| v > s.cut.0 && v < s.cut.1;
        let seg = &mut self.data[s.range.clone()];
        let cuts = match (inside(ql), inside(qu)) {
            (true, true) => {
                let (p1, p2) = crack_three(seg, dim, mode, ql, qu);
                vec![(p1, ql), (p2, qu)]
            }
            (true, false) => vec![(crack_two(seg, dim, mode, ql), ql)],
            // Keys equal to `qu` belong on the left.
            (false, true) => vec![(crack_two(seg, dim, mode, qu.next_up()), qu)],
            (false, false) => Vec::new(),
        };
        let primary = if cuts.is_empty() {
            vec![s]
        } else {
            self.pieces(&s, &cuts)
        };
        let mut out = Vec::new();
        for p in primary {
            if !p.range.is_empty() {
                self.artificial(p, qe, 0, &mut out);
            }
        }
        out
    }

    /// Artificial refinement (§5.2): a piece above τ that meets the
    /// extended query on its dimension is split at the midpoint of its key
    /// interval, or at its median key when the midpoint separates nothing,
    /// or force-refined when no split can separate its keys.
    fn artificial(&mut self, s: Slice<D>, qe: &Aabb<D>, depth: usize, out: &mut Vec<Slice<D>>) {
        if s.range.is_empty() {
            return;
        }
        let dim = s.level;
        if s.refined || qe.lo[dim] > s.bbox.hi[dim] || qe.hi[dim] < s.bbox.lo[dim] {
            out.push(s);
            return;
        }
        if depth >= MAX_ARTIFICIAL_DEPTH {
            out.push(self.force_refine(s));
            return;
        }
        let lo = s.bbox.lo[dim].max(s.cut.0);
        let hi = s.bbox.hi[dim].min(s.cut.1);
        let mid = 0.5 * (lo + hi);
        let seg = &mut self.data[s.range.clone()];
        let mut cut = (crack_two(seg, dim, self.mode, mid), mid);
        if cut.0 == 0 || cut.0 == seg.len() {
            cut.0 = crack_median(seg, dim, self.mode);
            if cut.0 == 0 || cut.0 == seg.len() {
                out.push(self.force_refine(s));
                return;
            }
            cut.1 = DimBounds::of(&seg[cut.0..], dim, self.mode).min_key;
        }
        for piece in self.pieces(&s, &[cut]) {
            self.artificial(piece, qe, depth + 1, out);
        }
    }

    /// Books one crack pass of `parent` and returns its pieces, split at
    /// the `(offset, key)` cuts: each piece is cut to the key interval
    /// between its neighbouring cuts. A piece at or below τ is refined with
    /// its exact box; above, it keeps the parent's box narrowed to its
    /// records' interval on the dimension.
    fn pieces(&mut self, parent: &Slice<D>, cuts: &[(usize, f64)]) -> Vec<Slice<D>> {
        self.stats.cracks += 1;
        self.stats.records_cracked += parent.range.len() as u64;
        let (dim, b) = (parent.level, parent.range.start);
        let mut from = (b, parent.cut.0);
        let ends = cuts.iter().map(|&(p, key)| (b + p, key));
        let mut out = Vec::new();
        for to in ends.chain([(parent.range.end, parent.cut.1)]) {
            let seg = &self.data[from.0..to.0];
            let bounds = DimBounds::of(seg, dim, self.mode);
            let refined = seg.len() <= self.tau[dim];
            let mut bbox = parent.bbox;
            if refined {
                bbox = mbb_of(seg);
            } else {
                (bbox.lo[dim], bbox.hi[dim]) = (bounds.min_lo, bounds.max_hi);
            }
            self.stats.slices_created += 1;
            self.stats.slices_refined += u64::from(refined);
            out.push(Slice {
                level: dim,
                range: from.0..to.0,
                bbox,
                cut: (from.1, to.1),
                key_lo: bounds.min_key,
                refined,
                children: Vec::new(),
            });
            from = to;
        }
        out
    }

    /// Finalizes a slice whose keys cannot be separated: exact box,
    /// refined above τ.
    fn force_refine(&mut self, mut s: Slice<D>) -> Slice<D> {
        s.bbox = mbb_of(&self.data[s.range.clone()]);
        s.refined = true;
        self.stats.forced_refinements += 1;
        self.stats.slices_refined += 1;
        s
    }
}

/// One reference per shard of a deployment, each over the records its
/// shard engine started from and fed exactly the queries the router sends
/// that shard.
pub(crate) struct Shards<const D: usize> {
    shards: Vec<Reference<D>>,
    fences: quasii::KeyFences,
    ext0: (f64, f64),
}

impl<const D: usize> Shards<D> {
    /// The references of `deployment`, which no query may have reached yet.
    pub(crate) fn of(deployment: &ShardedQuasii<D>) -> Self {
        let cfg = &deployment.config().inner;
        let shards: Vec<Reference<D>> = deployment
            .engines()
            .iter()
            .map(|e| Reference::new(e.records(), cfg))
            .collect();
        // The router extends by the extent of the whole dataset, the
        // largest of the shards' own.
        let ext0 = shards
            .iter()
            .map(Reference::ext0)
            .fold((0.0, 0.0), |a, b| (f64::max(a.0, b.0), f64::max(a.1, b.1)));
        Self {
            shards,
            fences: deployment.fences().clone(),
            ext0,
        }
    }

    /// Answers `q` on every shard whose fence range the query's extended
    /// dimension-0 span overlaps; the ids in ascending order.
    pub(crate) fn query(&mut self, q: &Aabb<D>) -> Vec<u64> {
        let route = self
            .fences
            .overlapping(q.lo[0] - self.ext0.0, q.hi[0] + self.ext0.1);
        let mut out: Vec<u64> = self.shards[route]
            .iter_mut()
            .flat_map(|s| s.query(q))
            .collect();
        out.sort_unstable();
        out
    }

    /// [`Reference::finalize`] on every shard.
    pub(crate) fn finalize(&mut self) {
        self.shards.iter_mut().for_each(Reference::finalize);
    }

    /// The shards' counters, summed.
    pub(crate) fn stats(&self) -> QuasiiStats {
        let mut total = QuasiiStats::default();
        self.shards.iter().for_each(|s| total.merge(&s.stats()));
        total
    }

    /// Each shard's permutation, as ids.
    pub(crate) fn ids(&self) -> Vec<Vec<u64>> {
        self.shards.iter().map(|s| ids(s.records())).collect()
    }

    /// Each shard's slices per level.
    pub(crate) fn level_profiles(&self) -> Vec<[usize; D]> {
        self.shards.iter().map(Reference::level_profile).collect()
    }
}
