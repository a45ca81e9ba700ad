//! The **sealed read path**: arena-compacted SoA snapshots of converged
//! slice subtrees.
//!
//! QUASII's premise (paper §5) is that the index *converges*: after a
//! warm-up of cracking queries every slice reaches its level's τ and queries
//! become pure reads. The adaptive machinery is pure overhead from then on —
//! heap-scattered [`Slice`] nodes behind `children: Vec<Slice>` (a `Slice<3>`
//! is well over a cache line) and a bottom-level scan striding 56-byte
//! records for a test that only consumes `2 × D` coordinates.
//!
//! A [`SealedRegion`] compacts one **converged top-level slice**'s subtree
//! into a flat arena, which the slice then owns in place of its children
//! (`Slice::sealed`):
//!
//! * per level, sibling metadata split for its two access patterns — a
//!   `key_lo[]` column for the extended binary search of §5.2 (an 8-byte
//!   probe stride instead of a >100-byte `Slice` stride) and a packed
//!   one-cache-line [`NodeMeta`] blob (record range, child range, bounding
//!   box) for everything the candidate loop reads after a probe hits;
//! * the records as lanes, the live engine's layout with the id narrowed:
//!   a `u32` id lane and per-dimension `lo[d][]` / negated `hi[d][]`
//!   lanes, so the final intersection filter streams one or two narrow
//!   lanes (cf. Pirk et al., "Database Cracking: Fancy Scan, Not Poor
//!   Man's Sort!", DaMoN 2014) — and the leaf's exact bounding box decides
//!   most lane tests wholesale (see [`SealedRegion::walk`]). A seal copies
//!   the slice's span of each live lane into its arena.
//!
//! # One blob per region — position independence
//!
//! Since the snapshot work (`crate::persist`), a region's columns are not
//! separate `Vec`s but **offset-indexed views into one contiguous,
//! 8-byte-aligned byte blob** held behind `Arc<AlignedBytes>`:
//!
//! ```text
//! u64 m                  record count
//! u64 L                  level count (== D - 1; tree levels 1..D)
//! L × u64                node count per level
//! per level l:           f64 key_lo[n_l] ; NodeMeta<D> meta[n_l]
//! u32 ids[m]             (padded to 8 bytes)
//! D × f64 rec_lo[d][m]   record MBB lower corners, per dimension
//! D × f64 rec_nhi[d][m]  record MBB upper corners, negated
//! ```
//!
//! Every section offset is derived from `(m, counts)` alone, so the blob is
//! **position-independent**: [`SealedRegion::from_blob`] revives a region at
//! any 8-aligned base inside any buffer without copying a column — this is
//! what lets a snapshot file hold every region back-to-back and the loader
//! hand each region a borrow of the single mapped buffer. The header words
//! are little-endian, read with the snapshot `Reader`; the columns are
//! host-endian in memory (live sealing must work on any host), and the
//! persist layer pins the *on-disk* format to little-endian by refusing to
//! write or load on big-endian hosts. `from_blob` is total: it validates
//! alignment, exact length, and the partition the nodes' record and child
//! ranges must form before the first unsafe cast, returning `Err` on any
//! malformed input.
//!
//! The arena is a **self-contained copy** — it borrows nothing from the
//! data array or the slice tree, so sealed regions can be read through
//! `&self` from any number of threads while unrelated parts of the index
//! crack on. A seal is permanent: a converged subtree never goes stale,
//! so nothing ever unseals it. Sealing drops the slice's children: the
//! arena is the one copy of the subtree, in memory and in a snapshot. The
//! sealed slice stays in the root list, where every read's candidate
//! window finds it, and `engine::read_slice` reads it from the arena on
//! the `&self` read and the crack path alike. The live lanes under a seal
//! exist only while some record is unsealed: once every root slice is
//! sealed no crack can run, the engine drops its lanes, and the arenas are
//! the one copy of every record (see `Quasii::records`).
//!
//! [`SealedRegion::run`] reproduces, operation for operation, the traversal
//! the engine's `query_level`/`descend` would perform over the same
//! converged subtree — same partition-point probe, same "step one back"
//! rule, same break/skip conditions, same bottom-level scan order — so its
//! output is **byte-identical** to the live read's (`tests/sealed.rs`
//! proves it property-based, with the reference QUASII of `tests/reference`
//! as oracle).

use crate::engine::Lanes;
use crate::persist::AlignedBytes;
use crate::simd::{LaneView, SimdLevel};
use crate::slice::Slice;
use quasii_common::geom::Aabb;
use quasii_common::snapshot::{checksum64, Reader};
use std::ops::Range;
use std::sync::Arc;

/// Per-node payload of one arena level: everything the candidate loop
/// touches *after* the binary search hits — record range, child range and
/// bounding box — packed into one contiguous blob (a single cache line at
/// `D = 3`), so classifying a candidate costs one line instead of one per
/// column. Only the minimum-key column stays split out: it is the probe
/// target of the extended binary search, where the 8-byte stride matters.
///
/// `repr(C)` pins the layout to `4 × u32` then `2 × [f64; D]` — `16 + 16·D`
/// bytes, 8-aligned, no padding, every bit pattern a valid value — so a
/// `&[NodeMeta<D>]` can be cast zero-copy out of an 8-aligned region blob.
#[derive(Clone, Copy, Debug)]
#[repr(C)]
pub(crate) struct NodeMeta<const D: usize> {
    /// Bounding-box lower corner.
    pub bb_lo: [f64; D],
    /// Bounding-box upper corner.
    pub bb_hi: [f64; D],
    /// First record (region-relative).
    pub begin: u32,
    /// Past-the-end record (region-relative).
    pub end: u32,
    /// Children occupy `child_start..child_end` in the next level's arrays
    /// (both `0` on the bottom level).
    pub child_start: u32,
    /// Past-the-end child index.
    pub child_end: u32,
}

/// Offsets (relative to the blob base) of one arena level's two columns.
#[derive(Clone, Copy, Debug)]
struct LevelView {
    /// Byte offset of the `f64` minimum-key column.
    key_lo: usize,
    /// Byte offset of the packed [`NodeMeta`] column.
    meta: usize,
    /// Number of slices at this level.
    len: usize,
}

/// Section offsets of a region blob, all relative to the blob base and all
/// derived purely from `(m, per-level node counts)` — the shared source of
/// truth for the writer ([`SealedRegion::build`]) and the reviver
/// ([`SealedRegion::from_blob`]).
struct BlobLayout {
    /// Total blob length in bytes (8-aligned).
    len: usize,
    levels: Vec<LevelView>,
    ids: usize,
    rec_lo: usize,
    rec_nhi: usize,
}

impl BlobLayout {
    /// Computes the layout with checked arithmetic; `None` means the sizes
    /// overflow (only reachable from hostile snapshot headers).
    fn compute<const D: usize>(m: u64, counts: &[u64]) -> Option<Self> {
        let meta_sz = 16 + 16 * D as u64;
        let mut off = 16u64.checked_add(8 * counts.len() as u64)?;
        let mut levels = Vec::with_capacity(counts.len());
        for &n in counts {
            let key_lo = off;
            off = off.checked_add(n.checked_mul(8)?)?;
            let meta = off;
            off = off.checked_add(n.checked_mul(meta_sz)?)?;
            levels.push(LevelView {
                key_lo: usize::try_from(key_lo).ok()?,
                meta: usize::try_from(meta).ok()?,
                len: usize::try_from(n).ok()?,
            });
        }
        let ids = usize::try_from(off).ok()?;
        off = off.checked_add(m.checked_mul(4)?)?;
        off = off.checked_add(off.wrapping_neg() % 8)?; // pad ids to 8
        let col = m.checked_mul(8)?;
        let rec_lo = usize::try_from(off).ok()?;
        off = off.checked_add(col.checked_mul(D as u64)?)?;
        let rec_nhi = usize::try_from(off).ok()?;
        off = off.checked_add(col.checked_mul(D as u64)?)?;
        Some(Self {
            len: usize::try_from(off).ok()?,
            levels,
            ids,
            rec_lo,
            rec_nhi,
        })
    }
}

fn put_u32(dst: &mut [u8], off: &mut usize, v: u32) {
    dst[*off..*off + 4].copy_from_slice(&v.to_ne_bytes());
    *off += 4;
}

/// A header word, little-endian as [`Reader::u64`] reads it.
fn put_u64(dst: &mut [u8], off: &mut usize, v: u64) {
    dst[*off..*off + 8].copy_from_slice(&v.to_le_bytes());
    *off += 8;
}

fn put_f64(dst: &mut [u8], off: &mut usize, v: f64) {
    dst[*off..*off + 8].copy_from_slice(&v.to_ne_bytes());
    *off += 8;
}

/// A lane span, copied to `dst` from `off` on.
fn put_f64s(dst: &mut [u8], off: usize, vs: &[f64]) {
    for (to, v) in dst[off..off + vs.len() * 8].chunks_exact_mut(8).zip(vs) {
        to.copy_from_slice(&v.to_ne_bytes());
    }
}

/// One converged top-level slice, compacted into a flat arena (see the
/// module docs for the blob layout and the byte-identity contract).
///
/// Cloning is cheap-ish: the blob itself is shared (`Arc`), only the small
/// level-view table is copied.
#[derive(Clone, Debug)]
pub(crate) struct SealedRegion<const D: usize> {
    /// Records covered: its sealed slice's length (the slice holds the
    /// range).
    m: usize,
    /// The backing buffer — either this region's private blob (live
    /// sealing) or a whole snapshot shared by every reloaded region.
    buf: Arc<AlignedBytes>,
    /// Blob base offset within `buf`, always 8-aligned.
    base: usize,
    /// Blob length in bytes.
    blob_len: usize,
    /// Per-level column offsets for absolute tree levels `1..D`
    /// (`levels[l - 1]` holds level `l`). Empty when `D == 1` — the region
    /// root is then itself the bottom level.
    levels: Vec<LevelView>,
    ids: usize,
    rec_lo: usize,
    rec_nhi: usize,
    /// The blob's `checksum64` once it is known (see [`sum`](Self::sum)).
    /// Last, behind every field a read touches.
    sum: Option<u64>,
}

impl<const D: usize> SealedRegion<D> {
    /// Compacts `root`'s subtree, or returns `None` when the subtree has
    /// not converged (some slice unrefined, or a refined non-bottom slice
    /// without materialized children — its first visit would still mutate
    /// the tree) or is too large for the `u32` arena offsets. The records
    /// are the slice's span of the live `lanes`.
    pub(crate) fn build(root: &Slice<D>, lanes: &Lanes<D>) -> Option<Self> {
        debug_assert!(root.sealed.is_none(), "a sealed slice is its arena");
        if !root.converged || root.len() > u32::MAX as usize {
            return None;
        }
        let (span, lanes) = (root.begin..root.end, lanes.view());
        if lanes.ids[span.clone()]
            .iter()
            .any(|&id| id > u32::MAX as u64)
        {
            return None; // the id lane would not narrow — leave unsealed
        }
        let begin = root.begin;
        let mut tmp: Vec<(Vec<f64>, Vec<NodeMeta<D>>)> = Vec::with_capacity(D.saturating_sub(1));
        let mut frontier: Vec<&Slice<D>> = root.children.iter().collect();
        while !frontier.is_empty() {
            let bottom = frontier[0].dim() + 1 == D;
            let mut key_lo = Vec::with_capacity(frontier.len());
            let mut meta = Vec::with_capacity(frontier.len());
            let mut next: Vec<&Slice<D>> = Vec::new();
            for s in &frontier {
                key_lo.push(s.key_lo);
                let child_start = next.len() as u32;
                if !bottom {
                    next.extend(s.children.iter());
                }
                meta.push(NodeMeta {
                    bb_lo: s.bbox.lo,
                    bb_hi: s.bbox.hi,
                    begin: (s.begin - begin) as u32,
                    end: (s.end - begin) as u32,
                    child_start,
                    child_end: next.len() as u32,
                });
            }
            tmp.push((key_lo, meta));
            frontier = next;
        }
        let m = root.len();
        let counts: Vec<u64> = tmp.iter().map(|(k, _)| k.len() as u64).collect();
        let layout =
            BlobLayout::compute::<D>(m as u64, &counts).expect("live arena sizes fit in memory");
        let mut blob = AlignedBytes::zeroed(layout.len);
        let bytes = blob.as_bytes_mut();
        let mut off = 0usize;
        put_u64(bytes, &mut off, m as u64);
        put_u64(bytes, &mut off, counts.len() as u64);
        for &c in &counts {
            put_u64(bytes, &mut off, c);
        }
        for (lv, (key_lo, meta)) in layout.levels.iter().zip(&tmp) {
            let mut o = lv.key_lo;
            for &k in key_lo {
                put_f64(bytes, &mut o, k);
            }
            let mut o = lv.meta;
            for nm in meta {
                for d in 0..D {
                    put_f64(bytes, &mut o, nm.bb_lo[d]);
                }
                for d in 0..D {
                    put_f64(bytes, &mut o, nm.bb_hi[d]);
                }
                put_u32(bytes, &mut o, nm.begin);
                put_u32(bytes, &mut o, nm.end);
                put_u32(bytes, &mut o, nm.child_start);
                put_u32(bytes, &mut o, nm.child_end);
            }
        }
        let mut o = layout.ids;
        for &id in &lanes.ids[span.clone()] {
            put_u32(bytes, &mut o, id as u32);
        }
        for d in 0..D {
            put_f64s(bytes, layout.rec_lo + d * m * 8, &lanes.lo[d][span.clone()]);
            put_f64s(
                bytes,
                layout.rec_nhi + d * m * 8,
                &lanes.nhi[d][span.clone()],
            );
        }
        let len = layout.len;
        Some(Self::from_blob(m, Arc::new(blob), 0, len).expect("freshly built seal blob parses"))
    }

    /// Revives the region of a slice of `records` records from `len` blob
    /// bytes at `base` inside `buf` — zero-copy: the region's columns stay
    /// borrows of `buf`. Total over arbitrary input: alignment and exact
    /// length are validated *before* any column is read, then the partition
    /// rules a stored slice tree is held to (non-empty nodes, each level
    /// contiguous in record space, children covering exactly their parent's
    /// range and tiling the next level in order). A malformed blob yields
    /// `Err`, never a panic, an out-of-bounds view or a subtree that is not
    /// a partition.
    pub(crate) fn from_blob(
        records: usize,
        buf: Arc<AlignedBytes>,
        base: usize,
        len: usize,
    ) -> Result<Self, String> {
        if !base.is_multiple_of(8) {
            return Err(format!("blob base {base} is not 8-aligned"));
        }
        if base.checked_add(len).is_none_or(|e| e > buf.len()) {
            return Err(format!(
                "blob {base}+{len} exceeds buffer of {} bytes",
                buf.len()
            ));
        }
        let mut header = Reader::new(&buf.as_bytes()[base..base + len], 0);
        let short = |_| format!("blob of {len} bytes is shorter than its header");
        let m = header.u64().map_err(short)?;
        let l = header.u64().map_err(short)?;
        if records as u64 != m {
            return Err(format!(
                "record count {m} does not match its slice's {records}"
            ));
        }
        if m > u32::MAX as u64 {
            return Err(format!("record count {m} exceeds the u32 arena limit"));
        }
        if l != (D - 1) as u64 {
            return Err(format!("level count {l}, expected {} for D = {D}", D - 1));
        }
        let l = l as usize;
        let counts = (0..l)
            .map(|_| header.u64())
            .collect::<Result<Vec<u64>, _>>()
            .map_err(|_| "blob too short for its level-count table".to_string())?;
        let layout = BlobLayout::compute::<D>(m, &counts)
            .ok_or_else(|| "blob section sizes overflow".to_string())?;
        if layout.len != len {
            return Err(format!(
                "blob length {len} does not match the {} bytes implied by its header",
                layout.len
            ));
        }
        let region = Self {
            m: records,
            buf,
            base,
            blob_len: len,
            levels: layout.levels,
            ids: layout.ids,
            rec_lo: layout.rec_lo,
            rec_nhi: layout.rec_nhi,
            sum: None,
        };
        // Each level tiles `0..m` in record order, and each node's children
        // are the next run of the next level and start where it starts (so
        // they end where it ends); a bottom node claims none.
        for li in 0..l {
            let kids = if li + 1 < l { region.meta(li + 1) } else { &[] };
            let (mut at, mut next) = (0, 0);
            for (i, nm) in region.meta(li).iter().enumerate() {
                let (cs, ce) = (nm.child_start as usize, nm.child_end as usize);
                let tiles = if li + 1 == l {
                    cs == 0 && ce == 0
                } else {
                    cs == next && cs < ce && ce <= kids.len() && kids[cs].begin == nm.begin
                };
                if nm.begin != at || nm.end <= nm.begin || u64::from(nm.end) > m || !tiles {
                    return Err(format!(
                        "level {li} node {i}: records {}..{} and children {cs}..{ce} do not \
                         continue the partition at record {at}, child {next}",
                        nm.begin, nm.end
                    ));
                }
                (at, next) = (nm.end, ce);
            }
            if u64::from(at) != m || next != kids.len() {
                return Err(format!(
                    "level {li} covers records 0..{at} of {m} and children 0..{next} of {}",
                    kids.len()
                ));
            }
        }
        Ok(region)
    }

    /// The raw blob bytes — what the snapshot writer copies verbatim (the
    /// blob is position-independent, see the module docs).
    pub(crate) fn blob(&self) -> &[u8] {
        &self.buf.as_bytes()[self.base..self.base + self.blob_len]
    }

    /// The blob's `checksum64`, its entry in a snapshot's region table.
    /// A seal is permanent, so the blob never changes and its sum is taken
    /// once: a region built by a seal is hashed by the first snapshot write
    /// that stores it, and a loaded one arrives with the table word its
    /// load checked it against ([`with_sum`](Self::with_sum)). Nothing is
    /// hashed at seal time.
    pub(crate) fn sum(&mut self) -> u64 {
        match self.sum {
            Some(sum) => sum,
            None => {
                let sum = checksum64(self.blob());
                self.sum = Some(sum);
                sum
            }
        }
    }

    /// This region with its blob's sum known: the table word its load
    /// checks the blob against (a load that finds them different fails).
    pub(crate) fn with_sum(mut self, sum: u64) -> Self {
        self.sum = Some(sum);
        self
    }

    /// The sum [`sum`](Self::sum) would return without hashing, if known.
    #[cfg(test)]
    pub(crate) fn cached_sum(&self) -> Option<u64> {
        self.sum
    }

    /// Casts `n` f64s at blob-relative offset `rel`.
    ///
    /// Sound because construction ([`Self::from_blob`]) proved every stored
    /// offset 8-aligned (8-aligned base + 8-multiple sections over an
    /// 8-aligned [`AlignedBytes`]) and in-bounds (exact-length check), the
    /// buffer is immutable behind `Arc`, and `f64` admits any bit pattern.
    fn f64s(&self, rel: usize, n: usize) -> &[f64] {
        let off = self.base + rel;
        debug_assert!(off.is_multiple_of(8) && off + n * 8 <= self.buf.len());
        // SAFETY: `from_blob` proved `off` 8-aligned and `off + n * 8` inside
        // the buffer, which is immutable while `self` borrows it, and every
        // bit pattern is a valid `f64`.
        unsafe { std::slice::from_raw_parts(self.buf.as_bytes().as_ptr().add(off).cast(), n) }
    }

    /// Node count of each arena level, from tree level 1 down.
    pub(crate) fn level_sizes(&self) -> impl Iterator<Item = usize> + '_ {
        self.levels.iter().map(|lv| lv.len)
    }

    /// The arena's nodes rebuilt as the slices below the region root, whose
    /// range starts at `begin`, for `validate`. Each is refined and
    /// converged; its cut interval, never read once refined, was not stored
    /// and comes back unbounded.
    pub(crate) fn slices(&self, begin: usize) -> Vec<Slice<D>> {
        self.rebuild(begin, 0, 0..self.levels.first().map_or(0, |lv| lv.len))
    }

    /// Nodes `nodes` of arena level `l`, with their subtrees, as slices.
    fn rebuild(&self, begin: usize, l: usize, nodes: Range<usize>) -> Vec<Slice<D>> {
        let (key_lo, meta) = (self.key_lo(l), self.meta(l));
        nodes
            .map(|i| {
                let nm = &meta[i];
                let children = if l + 1 < self.levels.len() {
                    self.rebuild(begin, l + 1, nm.child_start as usize..nm.child_end as usize)
                } else {
                    Vec::new()
                };
                Slice {
                    level: (l + 1) as u32,
                    begin: begin + nm.begin as usize,
                    end: begin + nm.end as usize,
                    bbox: Aabb {
                        lo: nm.bb_lo,
                        hi: nm.bb_hi,
                    },
                    cut_lo: f64::NEG_INFINITY,
                    cut_hi: f64::INFINITY,
                    key_lo: key_lo[i],
                    refined: true,
                    converged: true,
                    children,
                    sealed: None,
                }
            })
            .collect()
    }

    /// The minimum-key binary-search column of arena level `l` (absolute
    /// tree level `l + 1`).
    pub(crate) fn key_lo(&self, l: usize) -> &[f64] {
        let lv = &self.levels[l];
        self.f64s(lv.key_lo, lv.len)
    }

    /// The packed node payloads of arena level `l`, aligned with
    /// [`key_lo`](Self::key_lo). Same soundness argument as [`Self::f64s`]:
    /// `NodeMeta` is `repr(C)`, 8-aligned, padding-free, any-bit-valid.
    pub(crate) fn meta(&self, l: usize) -> &[NodeMeta<D>] {
        debug_assert_eq!(std::mem::size_of::<NodeMeta<D>>(), 16 + 16 * D);
        let lv = &self.levels[l];
        let off = self.base + lv.meta;
        debug_assert!(off.is_multiple_of(8) && off + lv.len * (16 + 16 * D) <= self.buf.len());
        // SAFETY: `from_blob` proved this level's `lv.len` payloads 8-aligned
        // and inside the immutable buffer; `NodeMeta` is `repr(C)`, 8-aligned,
        // padding-free and valid for every bit pattern.
        unsafe { std::slice::from_raw_parts(self.buf.as_bytes().as_ptr().add(off).cast(), lv.len) }
    }

    /// Record ids in region order, narrowed to `u32` (ids are positions in
    /// the original dataset, so they fit for any dataset under 2³² records;
    /// a region holding a larger id is simply never sealed).
    pub(crate) fn ids(&self) -> &[u32] {
        let off = self.base + self.ids;
        let n = self.m;
        debug_assert!(off.is_multiple_of(4) && off + n * 4 <= self.buf.len());
        // SAFETY: `from_blob` proved the id section 8-aligned and exactly
        // `n` `u32`s long inside the immutable buffer, and every bit pattern
        // is a valid `u32`.
        unsafe { std::slice::from_raw_parts(self.buf.as_bytes().as_ptr().add(off).cast(), n) }
    }

    /// Record MBB lower corners of dimension `d`.
    pub(crate) fn rec_lo(&self, d: usize) -> &[f64] {
        let m = self.m;
        self.f64s(self.rec_lo + d * m * 8, m)
    }

    /// Record MBB upper corners of dimension `d`, **negated**
    /// (`rec_nhi(d)[p] == -hi[d]` of record `p`). Negation normalizes both
    /// intersection half-tests to one shape — `rec_lo <= q.hi` and
    /// `rec_hi >= q.lo ⇔ -rec_hi <= -q.lo` — so every bottom-level lane
    /// pass is the same `lane[p] <= bound` loop (negation is exact for
    /// every non-NaN float, so the truth table is unchanged).
    pub(crate) fn rec_nhi(&self, d: usize) -> &[f64] {
        let m = self.m;
        self.f64s(self.rec_nhi + d * m * 8, m)
    }

    /// Number of records covered.
    pub(crate) fn records(&self) -> usize {
        self.m
    }

    /// The region's lanes: ids, `lo[d]` and negated `hi[d]`, in region
    /// order.
    pub(crate) fn lanes(&self) -> LaneView<'_, u32, D> {
        LaneView {
            ids: self.ids(),
            lo: std::array::from_fn(|d| self.rec_lo(d)),
            nhi: std::array::from_fn(|d| self.rec_nhi(d)),
        }
    }

    /// Bytes reachable from this region (the blob plus the level-view
    /// table). Reloaded regions share one snapshot buffer; each still
    /// reports its own blob span, so the sum over regions stays the
    /// arena-payload total, not the buffer size times the region count.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.blob_len + self.levels.capacity() * std::mem::size_of::<LevelView>()
    }

    /// Emits every id in the region (the caller proved `q` contains the
    /// region root's bounding box, so the whole subtree qualifies — one
    /// contiguous copy instead of a per-leaf walk). Returns the objects
    /// "tested" (all of them — the bbox proof decided each record's test).
    pub(crate) fn emit_all(&self, out: &mut Vec<u64>) -> u64 {
        self.lanes().emit(0, self.m, out);
        self.m as u64
    }

    /// Answers `q` over the region, appending matching ids to `out` in
    /// data-array order; returns the number of objects tested at the bottom
    /// level (the engine's `objects_tested` contribution). The caller has
    /// already applied the root-level checks (`key_lo` window and bounding
    /// box) to the region's root slice, exactly as `query_level` does
    /// before descending a refined top-level slice (and takes
    /// [`emit_all`](Self::emit_all) when `q` contains the root box).
    /// `level` selects the lane-test kernel generation (see
    /// [`crate::simd`]); results are identical for every level.
    pub(crate) fn run(
        &self,
        q: &Aabb<D>,
        qe: &Aabb<D>,
        out: &mut Vec<u64>,
        level: SimdLevel,
    ) -> u64 {
        let lanes = self.lanes();
        if self.levels.is_empty() {
            // D == 1: the region root is the bottom level.
            lanes.scan(0, self.m, q, [true; D], [true; D], out, level)
        } else {
            self.walk(&lanes, 0, 0, self.levels[0].len, q, qe, out, level)
        }
    }

    /// Visits one sibling window `lo..hi` of arena level `idx` (absolute
    /// level `idx + 1`), reproducing `query_level`'s candidate selection —
    /// the partition-point probe on the minimum-key column with the "step
    /// one back" rule, the sorted-key break, and the bounding-box skip —
    /// with one shortcut the arena's exact boxes make sound: a node whose
    /// bounding box is *contained* in `q` emits its whole record range as a
    /// contiguous id copy (every descendant's box is inside the node's box,
    /// and a record inside `q`'s interval on a dimension passes that
    /// dimension's intersection test by construction), which is exactly the
    /// id sequence, order, and tested count the full descent would produce.
    /// `lanes` is the region's [`lanes`](Self::lanes).
    #[allow(clippy::too_many_arguments)]
    fn walk(
        &self,
        lanes: &LaneView<'_, u32, D>,
        idx: usize,
        lo: usize,
        hi: usize,
        q: &Aabb<D>,
        qe: &Aabb<D>,
        out: &mut Vec<u64>,
        level: SimdLevel,
    ) -> u64 {
        let key_col = self.key_lo(idx);
        let metas = self.meta(idx);
        let dim = idx + 1;
        let bottom = dim + 1 == D;
        let keys = &key_col[lo..hi];
        let start = lo + keys.partition_point(|&k| k < qe.lo[dim]).saturating_sub(1);
        let mut tested = 0u64;
        // Bottom-level run fusion: consecutive leaves that are contiguous in
        // record space and need the *same* lane tests collapse into one scan
        // call (one resize, one lane-loop setup) — per-leaf emission order
        // and per-record results are unchanged, a skipped leaf in between
        // breaks contiguity and flushes.
        let mut run: Option<(usize, usize, [bool; D], [bool; D])> = None;
        for i in start..hi {
            if key_col[i] > qe.hi[dim] {
                break;
            }
            // One fused pass over the node's packed bbox classifies it:
            // disjoint from `q` (skip), contained in `q` (wholesale emit),
            // or boundary (descend / scan only the undecided lanes).
            let node = &metas[i];
            let mut intersects = true;
            let mut test_lo = [false; D];
            let mut test_hi = [false; D];
            for d in 0..D {
                let (blo, bhi) = (node.bb_lo[d], node.bb_hi[d]);
                intersects &= blo <= q.hi[d];
                intersects &= bhi >= q.lo[d];
                // A record fails `rec_lo <= q.hi` only if its lower corner
                // exceeds q.hi — impossible when the node's upper bound
                // already fits under it; dually for the other side.
                test_lo[d] = bhi > q.hi[d];
                test_hi[d] = blo < q.lo[d];
            }
            if !intersects {
                continue;
            }
            let undecided = (0..D).any(|d| test_lo[d] || test_hi[d]);
            let (rb, re) = (node.begin as usize, node.end as usize);
            if bottom {
                if !undecided {
                    // Contained leaf: lane-test-free (`LaneView::scan`'s k == 0
                    // wholesale-copy path once the run flushes).
                    (test_lo, test_hi) = ([false; D], [false; D]);
                }
                match &mut run {
                    Some((_, pe, plo, phi)) if *pe == rb && *plo == test_lo && *phi == test_hi => {
                        *pe = re;
                    }
                    _ => {
                        if let Some((pb, pe, plo, phi)) = run.take() {
                            tested += lanes.scan(pb, pe, q, plo, phi, out, level);
                        }
                        run = Some((rb, re, test_lo, test_hi));
                    }
                }
            } else if !undecided {
                lanes.emit(rb, re, out);
                tested += (re - rb) as u64;
            } else {
                let (clo, chi) = (node.child_start as usize, node.child_end as usize);
                tested += self.walk(lanes, idx + 1, clo, chi, q, qe, out, level);
            }
        }
        if let Some((pb, pe, plo, phi)) = run {
            tested += lanes.scan(pb, pe, q, plo, phi, out, level);
        }
        tested
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine;
    use crate::{Quasii, QuasiiConfig};
    use quasii_common::dataset::uniform_boxes_in;
    use quasii_common::geom::Record;
    use quasii_common::index::SpatialIndex;

    /// An engine over `data` after one query, `q` or the whole universe,
    /// driven through `engine::query_level` over its fresh root with no
    /// seal after it: what converged keeps its live subtree, and the live
    /// lanes stay. The whole universe leaves the tree and the permutation
    /// `finalize` leaves, unsealed.
    pub(crate) fn unsealed<const D: usize>(
        data: Vec<Record<D>>,
        tau: usize,
        q: Option<Aabb<D>>,
    ) -> Quasii<D> {
        assert!(D > 1, "a one-level root converges, and seals, at init");
        let mut idx = Quasii::new(data, QuasiiConfig::with_tau(tau));
        idx.ensure_init();
        let q = q.unwrap_or(idx.data_bounds);
        let qe = idx.extend_query(&q);
        engine::query_level(
            &mut idx.data,
            &mut idx.root,
            &q,
            &qe,
            &idx.env,
            &mut idx.rt,
            &mut Vec::new(),
        );
        assert!(idx.root.iter().all(|s| s.sealed.is_none()));
        idx
    }

    /// Answers `q` through the live read descent over `idx`'s tree and
    /// lanes, as an engine that built no arena would. Returns the ids and
    /// the objects tested; every root slice `q` visits must have converged.
    pub(crate) fn read_live<const D: usize>(idx: &Quasii<D>, q: &Aabb<D>) -> (Vec<u64>, u64) {
        let qe = idx.extend_query(q);
        let (mut out, mut tested) = (Vec::new(), 0);
        for s in &idx.root[engine::window(&idx.root, &qe)] {
            if q.intersects(&s.bbox) {
                assert!(s.converged && s.sealed.is_none());
                tested += engine::read_slice(&idx.data.view(), s, q, &qe, idx.env.simd, &mut out);
            }
        }
        (out, tested)
    }

    /// The arena of `idx`'s first root slice, built by hand.
    fn first_region<const D: usize>(idx: &Quasii<D>) -> SealedRegion<D> {
        SealedRegion::build(&idx.root[0], &idx.data).expect("converged trees seal")
    }

    /// Arenas built by hand from an unsealed converged tree and its
    /// permutation answer as the live read descent over the same two, and
    /// as a finalized engine over the same records.
    #[test]
    fn build_and_run_match_engine() {
        let data = uniform_boxes_in::<3>(2_000, 100.0, 5);
        let live = unsealed(data.clone(), 8, None);
        let mut idx = Quasii::new(data.clone(), QuasiiConfig::with_tau(8));
        idx.finalize();
        assert_eq!(
            idx.records(),
            live.records(),
            "the permutation finalize leaves"
        );
        let regions: Vec<SealedRegion<3>> = live
            .root
            .iter()
            .map(|s| SealedRegion::build(s, &live.data).expect("converged trees seal"))
            .collect();
        assert_eq!(
            regions.iter().map(SealedRegion::records).sum::<usize>(),
            data.len()
        );
        for r in &regions {
            assert!(r.heap_bytes() > 0);
        }

        let queries = [
            Aabb::new([0.0; 3], [100.0; 3]),
            Aabb::new([10.0; 3], [35.0; 3]),
            Aabb::new([90.0; 3], [99.0; 3]),
            Aabb::point([50.0; 3]),
            Aabb::new([200.0; 3], [300.0; 3]),
        ];
        for q in &queries {
            let (want, want_tested) = read_live(&live, q);
            let qe = live.extend_query(q);
            let (mut got, mut tested) = (Vec::new(), 0);
            for (s, r) in live.root.iter().zip(&regions) {
                assert_eq!(s.len(), r.records());
                if s.key_lo > qe.hi[0] {
                    break;
                }
                if q.intersects(&s.bbox) {
                    tested += r.run(q, &qe, &mut got, SimdLevel::detect());
                }
            }
            assert_eq!((&got, tested), (&want, want_tested), "query {q:?}");
            assert_eq!(got, idx.query_collect(q), "query {q:?}");
        }
    }

    /// The blob roundtrip is the identity: re-parsing a built region's blob
    /// at a different base inside a larger buffer reads back the same
    /// columns (position independence).
    #[test]
    fn blob_reparses_at_a_shifted_base() {
        let data = uniform_boxes_in::<3>(500, 50.0, 11);
        let r = first_region(&unsealed(data, 8, None));
        let blob = r.blob();
        let shift = 64usize;
        let mut shifted = AlignedBytes::zeroed(shift + blob.len());
        shifted.as_bytes_mut()[shift..].copy_from_slice(blob);
        let r2 = SealedRegion::<3>::from_blob(r.records(), Arc::new(shifted), shift, blob.len())
            .expect("shifted blob parses");
        assert_eq!(r.ids(), r2.ids());
        assert!(r.level_sizes().eq(r2.level_sizes()));
        for l in 0..r.level_sizes().count() {
            assert_eq!(r.key_lo(l), r2.key_lo(l));
        }
        for d in 0..3 {
            assert_eq!(r.rec_lo(d), r2.rec_lo(d));
            assert_eq!(r.rec_nhi(d), r2.rec_nhi(d));
        }
    }

    /// Every truncation of a valid blob is rejected, never misread.
    #[test]
    fn truncated_blobs_are_rejected() {
        let data = uniform_boxes_in::<2>(200, 20.0, 3);
        let r = first_region(&unsealed(data, 8, None));
        let blob = r.blob().to_vec();
        for cut in [0, 8, 15, 16, blob.len() / 2, blob.len() - 1] {
            let buf = Arc::new(AlignedBytes::copy_from(&blob[..cut]));
            assert!(
                SealedRegion::<2>::from_blob(r.records(), buf, 0, cut).is_err(),
                "truncation to {cut} bytes must not parse"
            );
        }
        // Wrong dimensionality: the level count no longer matches.
        let buf = Arc::new(AlignedBytes::copy_from(&blob));
        assert!(SealedRegion::<3>::from_blob(r.records(), buf, 0, blob.len()).is_err());
    }

    #[test]
    fn unconverged_subtrees_refuse_to_seal() {
        let data = uniform_boxes_in::<3>(2_000, 100.0, 6);
        // One tiny corner query leaves most of the tree unrefined.
        let idx = unsealed(data, 8, Some(Aabb::new([0.0; 3], [5.0; 3])));
        assert!(
            idx.root
                .iter()
                .any(|s| SealedRegion::build(s, &idx.data).is_none()),
            "a single corner query must not converge every top-level slice"
        );
    }

    /// The arena read against the live read descent over the same
    /// converged tree and lanes, one thread, 1 M records, 2 000
    /// uniform queries of volume 1e-3; prints the medians and minima of
    /// nine rounds. Run with
    /// `cargo test --release -p quasii --lib profile_sealed_vs_unsealed -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn profile_sealed_vs_unsealed() {
        use std::time::Instant;
        let n = 1_000_000;
        let data = uniform_boxes_in::<3>(n, 10_000.0, 7);
        let side = (10_000.0f64.powi(3) * 1e-3).cbrt();
        let mut x = 123456789u64;
        let mut rnd = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 11) as f64 / (1u64 << 53) as f64 * (10_000.0 - side)
        };
        let queries: Vec<Aabb<3>> = (0..2000)
            .map(|_| {
                let lo = [rnd(), rnd(), rnd()];
                Aabb::new(lo, lo.map(|v| v + side))
            })
            .collect();
        let live_idx = unsealed(data.clone(), QuasiiConfig::default().tau, None);
        let mut idx = Quasii::new(data, QuasiiConfig::default());
        idx.finalize();
        assert_eq!(idx.sealed_fraction(), 1.0);
        let arena = |q: &Aabb<3>| {
            let mut out = Vec::new();
            assert!(idx.read(q, &mut out));
            out.len()
        };
        let live = |q: &Aabb<3>| read_live(&live_idx, q).0.len();
        for q in queries.iter().take(400) {
            assert_eq!(arena(q), live(q));
        }
        let time = |f: &dyn Fn(&Aabb<3>) -> usize| {
            let t = Instant::now();
            let hits: usize = queries.iter().map(f).sum();
            (t.elapsed().as_secs_f64(), hits)
        };
        let (mut ta, mut tl) = (Vec::new(), Vec::new());
        for _ in 0..9 {
            let (t, live_hits) = time(&live);
            tl.push(t);
            let (t, arena_hits) = time(&arena);
            ta.push(t);
            assert_eq!(live_hits, arena_hits);
        }
        ta.sort_by(f64::total_cmp);
        tl.sort_by(f64::total_cmp);
        println!(
            "live med {:.1} ms min {:.1} ms | arena med {:.1} ms min {:.1} ms | \
             live/arena med {:.2} min {:.2}",
            tl[4] * 1e3,
            tl[0] * 1e3,
            ta[4] * 1e3,
            ta[0] * 1e3,
            tl[4] / ta[4],
            tl[0] / ta[0]
        );
    }
}
