//! Single-buffer index **snapshots**: the whole engine state — record
//! permutation, key columns, slice-tree skeleton, and every sealed arena —
//! serialized into one versioned, checksummed, 8-byte-aligned buffer, and
//! revived from it with the sealed columns **zero-copy** (every reloaded
//! [`SealedRegion`] borrows the one snapshot buffer; no per-column
//! allocation).
//!
//! The point (see README "Snapshots & warm start"): QUASII
//! pays its build cost incrementally through queries, so a restart used to
//! throw that investment away. [`Quasii::write_snapshot`] captures the
//! converged investment; [`Quasii::from_snapshot`] restores an engine that
//! answers every query **byte-identically** (ids, stats, record
//! permutation) to the writer — the warm-start contract `tests/persist.rs`
//! enforces property-based.
//!
//! # Buffer layout (format version 4)
//!
//! All scalars little-endian; every section a multiple of 8 bytes, so each
//! section (and in particular every region blob) starts 8-aligned. The
//! fixed 32-byte prefix is the [`Frame`] every persistent form shares:
//!
//! ```text
//! offset  size  field
//!      0     8  magic  "QSIISNAP"
//!      8     4  format version (u32, currently 4)
//!     12     4  dimensionality D (u32)
//!     16     8  checksum64 of bytes[24..]  (the "header word")
//!     24     8  total buffer length in bytes
//! ```
//!
//! [`checksum64`](quasii_common::snapshot::checksum64) is four independent
//! 64-bit lanes over 32-byte stripes, folded, with the tail bytes and the
//! length mixed in last; a change confined to one stripe word or one tail
//! byte (so every single-bit flip) changes it with certainty. Version 1
//! carried byte-serial FNV-1a 64 in the same place; nothing else moved, so
//! the format gained and lost no byte. The buffer is hashed **once** when
//! written and once when loaded: a shard manifest binds a part by storing
//! this header word (8 bytes copied, 8 bytes compared) instead of hashing
//! the part again. Neither side makes a pass of its own for it: the writer
//! announces the exact length, so the sum follows the encoder block by
//! block ([`Writer`]); the loader hashes each block of the record and key
//! sections right before it decodes it ([`Verifier`]), and each region blob
//! (the slice tree and region table before the first) right before it
//! rebuilds the blob's rows. A block is then read from memory
//! once, and the sum runs at the speed of its multiplies whatever the
//! memory system is doing: a separate 64 MB pass read at half that speed
//! and was the part of a restart that differed most from one run to the
//! next.
//!
//! The frame is followed by the engine state, sequentially:
//!
//! ```text
//! u64 n                      record count
//! u64 ×4                     config: tau, assign_by (0|1|2), threads, seal (0|1)
//! u64 ×10                    QuasiiStats (deterministic work counters)
//! u64                        SealStats::sealed_queries
//! f64 ×2D                    ext_low, ext_high (query extension amounts)
//! f64 ×2D                    data_bounds lo, hi
//! u64 s                      stored rows: the records outside every seal
//! s × (u64 + 2D f64)         those records in permuted order, span after
//!                            span: id, mbb lo, mbb hi
//! 2s f64                     their key columns: keys[s], then his[s]
//! u64 + tree                 slice-tree skeleton: root count, then pre-order
//!                            nodes (level, begin, end, flags[refined,
//!                            keys_fresh], cut_lo, cut_hi, key_lo, bbox lo/hi,
//!                            child count, children…)
//! u64 + table                sealed regions: count, then per region
//!                            (begin, end, blob offset, blob length)
//! blobs                      region blobs, back-to-back, 8-aligned, in the
//!                            position-independent layout of `crate::seal`
//! ```
//!
//! A sealed record is stored once, as its arena (a seal is permanent): the
//! loader rebuilds its row from the blob's id and MBB columns, bit for bit
//! (`hi = -nhi` is exact), and leaves its key windows zero (every sealed
//! slice is refined, and `crate::keys` speaks only for unrefined ones).
//!
//! Each fact is stored once. The seal count is the region table's length,
//! and a written engine is always initialized. Every write leaves the seals
//! current, so there is no pending seal work to record. The one fixed
//! engine constant (`engine`'s artificial-split depth) is not stored, so a
//! forged buffer cannot set it.
//!
//! # Versioning policy
//!
//! The format version is bumped on **any** layout change — there are no
//! minor/compatible revisions, because the sealed columns are consumed
//! zero-copy and a silent misread would corrupt query results rather than
//! fail loudly. A reader accepts exactly [`FORMAT_VERSION`]; anything else
//! is [`SnapshotError::WrongVersion`], and callers re-crack from data
//! instead. Version 4 dropped from version 3 the flags word (its one
//! meaningful bit was always set), `max_artificial_depth`, the seal and
//! retired unseal counters, the seal stamp and the dirty-span section (a
//! count, then a pair per span): six words on a snapshot without dirty
//! spans. Every other byte kept its order. Scalars are defined
//! little-endian: big-endian hosts get [`SnapshotError::Unsupported`] from
//! both `write` and `load` (live indexing is unaffected — only the
//! persistent form is LE-pinned).
//!
//! # Totality
//!
//! `load` never panics on malformed input: length, magic, version and
//! dimensionality are checked up front, every subsequent read is
//! bounds-checked, the slice tree is re-validated to exactly partition the
//! dataset (which bounds recursion at `D` and every index at `n`), and each
//! region blob re-runs `SealedRegion::from_blob`'s structural checks and
//! must mirror the skeleton's subtree node for node (`validate`'s
//! invariant 9, node half: key, range, box and children per level). `n`
//! is proven by the stored rows plus the regions' records (`s ≤ n` before
//! the rows are read, `s + Σ == n` before anything is sized by `n`). The
//! decoder works beside the sum, so it sees bytes before they are vouched
//! for; it sizes nothing by a count it has not checked against the buffer,
//! its result is dropped unless the sum accepts the buffer, and the sum's
//! verdict is the one reported ("checksum mismatch" for any damaged
//! buffer, wherever the decoder stopped).

use crate::config::AssignBy;
use crate::engine::{Env, Runtime};
use crate::keys::KeyColumn;
use crate::seal::SealedRegion;
use crate::slice::Slice;
use crate::validate;
use crate::{config, Quasii, QuasiiConfig, QuasiiStats};
use quasii_common::geom::{Aabb, Record};
use quasii_common::snapshot::{
    corrupt, own_mapping, Frame, Reader, SnapshotError, Verifier, Writer, FRAME_LEN,
};
use std::ops::Range;
use std::sync::Arc;

/// First 8 bytes of every engine snapshot.
pub const MAGIC: [u8; 8] = *b"QSIISNAP";
/// The one format version this build writes and accepts (see the module
/// docs for the bump-on-any-change policy).
pub(crate) const FORMAT_VERSION: u32 = 4;

/// Guarantees the on-disk format: little-endian scalars. The sealed read
/// path casts columns zero-copy, so a BE host cannot read (or produce) the
/// LE format without a byte-swapping pass this reproduction doesn't carry.
fn require_little_endian() -> Result<(), SnapshotError> {
    if cfg!(target_endian = "big") {
        return Err(SnapshotError::Unsupported(
            "big-endian hosts (the snapshot format is little-endian, consumed zero-copy)",
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Aligned byte storage
// ---------------------------------------------------------------------

/// Owned bytes whose base pointer is 8-aligned — the backing store every
/// [`SealedRegion`] casts its columns out of. `len` may be any byte count.
pub(crate) struct AlignedBytes {
    storage: Storage,
    len: usize,
}

/// Backing storage. `Raw` carries the invariant that the vector's base
/// pointer is 8-aligned (checked at adoption, never mutated afterwards —
/// the vector is neither grown nor shrunk, so it cannot reallocate).
enum Storage {
    Words(Box<[u64]>),
    Raw(Vec<u8>),
}

impl AlignedBytes {
    /// Zero-filled storage for `len` bytes.
    pub(crate) fn zeroed(len: usize) -> Self {
        Self {
            storage: Storage::Words(vec![0u64; len.div_ceil(8)].into_boxed_slice()),
            len,
        }
    }

    /// Aligned copy of `bytes` (for callers that only hold a borrow —
    /// owned buffers should prefer [`AlignedBytes::from_vec`]).
    #[cfg(test)]
    pub(crate) fn copy_from(bytes: &[u8]) -> Self {
        let mut ab = Self::zeroed(bytes.len());
        ab.as_bytes_mut().copy_from_slice(bytes);
        ab
    }

    /// Adopts `bytes` without copying when its allocation happens to be
    /// 8-aligned — which the global allocator guarantees in practice for
    /// any buffer large enough to matter — and falls back to one aligned
    /// copy otherwise. Snapshot loads of real (multi-MiB) buffers take the
    /// zero-copy path; the copy fallback keeps correctness unconditional.
    pub(crate) fn from_vec(bytes: Vec<u8>) -> Self {
        let len = bytes.len();
        if (bytes.as_ptr() as usize).is_multiple_of(8) {
            Self {
                storage: Storage::Raw(bytes),
                len,
            }
        } else {
            let mut ab = Self::zeroed(len);
            ab.as_bytes_mut().copy_from_slice(&bytes);
            ab
        }
    }

    /// Length in bytes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The bytes, starting 8-aligned.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        match &self.storage {
            Storage::Words(words) => {
                debug_assert!(self.len <= words.len() * 8);
                // SAFETY: `zeroed`, the only constructor of `Words`, sized
                // `words` to `len.div_ceil(8)` words, so it covers at least
                // `len` bytes (asserted above), and neither field changes
                // afterwards. A `u64` has no padding and `u8` has
                // alignment 1 and no invalid bit patterns, and the slice
                // borrows `self`, so the words outlive it.
                unsafe { std::slice::from_raw_parts(words.as_ptr().cast(), self.len) }
            }
            Storage::Raw(v) => v,
        }
    }

    /// Mutable view of the bytes.
    pub(crate) fn as_bytes_mut(&mut self) -> &mut [u8] {
        match &mut self.storage {
            Storage::Words(words) => {
                debug_assert!(self.len <= words.len() * 8);
                // SAFETY: as in `as_bytes`; the slice borrows `self`
                // mutably, so it is the only view of the words while it
                // lives, and whatever bytes are written through it leave
                // valid `u64`s behind (every bit pattern is one).
                unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast(), self.len) }
            }
            Storage::Raw(v) => v,
        }
    }
}

impl std::fmt::Debug for AlignedBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AlignedBytes({} bytes)", self.len)
    }
}

// ---------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------

fn write_slice<const D: usize>(w: &mut Writer, s: &Slice<D>) {
    w.u64(s.level as u64);
    w.u64(s.begin as u64);
    w.u64(s.end as u64);
    w.u64(u64::from(s.refined) | (u64::from(s.keys_fresh) << 1));
    w.f64(s.cut_lo);
    w.f64(s.cut_hi);
    w.f64(s.key_lo);
    for d in 0..D {
        w.f64(s.bbox.lo[d]);
    }
    for d in 0..D {
        w.f64(s.bbox.hi[d]);
    }
    w.u64(s.children.len() as u64);
    for c in &s.children {
        write_slice(w, c);
    }
}

/// The spans of `0..n` before, between and after the seals, in order
/// (`seals` is sorted by `begin`); any of them may be empty.
fn unsealed<const D: usize>(
    seals: &[SealedRegion<D>],
    n: usize,
) -> impl Iterator<Item = Range<usize>> + '_ {
    let begins = seals.iter().map(|r| r.begin).chain([n]);
    std::iter::once(0)
        .chain(seals.iter().map(|r| r.end))
        .zip(begins)
        .map(|(a, b)| a..b)
}

pub(crate) fn write<const D: usize>(idx: &mut Quasii<D>) -> Result<Vec<u8>, SnapshotError> {
    require_little_endian()?;
    // Never persist a state that might be mid-crack inconsistent: a
    // poisoned engine must repair() (revalidate or rebuild) first.
    if idx.poisoned.is_some() {
        return Err(SnapshotError::Unsupported(
            "a poisoned engine (a worker panicked mid-batch; call repair() first)",
        ));
    }
    idx.ensure_init();

    let n = idx.data.len();
    debug_assert!(idx.keys.is_built(n), "`write` runs after `ensure_init`");
    let stored = n - idx.sealed_record_count;
    // The layout is determined before the first byte is written, so the
    // buffer is sized exactly and never reallocates (a 64 MB `Vec` that
    // outgrows its reserve copies the whole snapshot once more).
    let record_bytes = (1 + 2 * D) * 8;
    let slice_bytes = (8 + 2 * D) * 8;
    let blob_bytes: usize = idx.seals.iter().map(|r| r.blob().len()).sum();
    let total = FRAME_LEN
        + (16 + 4 * D) * 8 // scalars up to the bounds
        + 8 + stored * (record_bytes + 16)
        + 8 + idx.slice_count() * slice_bytes
        + 8 + idx.seals.len() * 32
        + blob_bytes;
    let mut w = Writer::framed(&MAGIC, FORMAT_VERSION, D as u32, total);
    let reserved = w.capacity();

    w.u64(n as u64);
    w.u64(idx.cfg.tau as u64);
    w.u64(idx.cfg.assign_by.code());
    w.u64(idx.cfg.threads as u64);
    w.u64(u64::from(idx.cfg.seal));
    let st = idx.stats();
    for v in [
        st.queries,
        st.cracks,
        st.records_cracked,
        st.slices_created,
        st.slices_refined,
        st.default_children,
        st.forced_refinements,
        st.objects_tested,
        st.rekeys,
        st.records_rekeyed,
    ] {
        w.u64(v);
    }
    w.u64(idx.seal_stats().sealed_queries);
    for d in 0..D {
        w.f64(idx.ext_low[d]);
    }
    for d in 0..D {
        w.f64(idx.ext_high[d]);
    }
    for d in 0..D {
        w.f64(idx.data_bounds.lo[d]);
    }
    for d in 0..D {
        w.f64(idx.data_bounds.hi[d]);
    }

    // The records outside the seals, in the engine's current (cracked)
    // permutation — reloading them verbatim, and the sealed ones from
    // their arenas, is what makes the reloaded permutation byte-identical.
    // Three appends into reserved space per record: the section is bound
    // by first-touch page faults of the fresh buffer, and a zero-filling
    // reserve would touch it twice.
    w.u64(stored as u64);
    for span in unsealed(&idx.seals, n) {
        for r in &idx.data[span] {
            w.bytes(&r.id.to_le_bytes());
            w.bytes(r.mbb.lo.map(f64::to_le_bytes).as_flattened());
            w.bytes(r.mbb.hi.map(f64::to_le_bytes).as_flattened());
        }
    }
    for column in [idx.keys.keys(), idx.keys.his()] {
        for span in unsealed(&idx.seals, n) {
            w.f64s(&column[span]);
        }
    }

    // Slice-tree skeleton, pre-order — enough to revive the unsealed
    // remainder (and the source of truth the sealed regions mirror).
    w.u64(idx.root.len() as u64);
    for s in &idx.root {
        write_slice(&mut w, s);
    }

    // Region table + blobs. Blob offsets are absolute and computed before
    // the blobs are appended (table size is known).
    w.u64(idx.seals.len() as u64);
    let mut blob_off = w.pos() + idx.seals.len() * 32;
    for r in &idx.seals {
        w.u64(r.begin as u64);
        w.u64(r.end as u64);
        w.u64(blob_off as u64);
        w.u64(r.blob().len() as u64);
        blob_off += r.blob().len();
    }
    for r in &idx.seals {
        debug_assert_eq!(w.pos() % 8, 0, "region blobs start 8-aligned");
        w.bytes(r.blob());
    }

    debug_assert_eq!(w.pos(), total, "the layout was sized exactly");
    debug_assert_eq!(w.capacity(), reserved, "the buffer never reallocated");
    Ok(w.finish())
}

// ---------------------------------------------------------------------
// Load path
// ---------------------------------------------------------------------

/// Reads one pre-order slice whose range must start at `*cursor` and stay
/// within `end`; advances the cursor past it. Level/partition validation
/// here is what bounds the recursion (children are one level deeper, and
/// levels stop at `D - 1`) and every later engine-side index (all ranges
/// nest inside `0..n`).
fn read_slice<const D: usize>(
    r: &mut Reader,
    level: usize,
    cursor: &mut usize,
    end: usize,
) -> Result<Slice<D>, SnapshotError> {
    let got_level = r.index("slice level")?;
    if got_level != level {
        return Err(corrupt(format!(
            "slice at level {got_level}, expected {level}"
        )));
    }
    let begin = r.index("slice begin")?;
    let s_end = r.index("slice end")?;
    if begin != *cursor || s_end <= begin || s_end > end {
        return Err(corrupt(format!(
            "slice range {begin}..{s_end} does not partition {}..{end} at level {level}",
            *cursor
        )));
    }
    *cursor = s_end;
    let flags = r.u64()?;
    if flags > 0b11 {
        return Err(corrupt(format!("unknown slice flags {flags:#x}")));
    }
    let cut_lo = r.f64()?;
    let cut_hi = r.f64()?;
    let key_lo = r.f64()?;
    let mut lo = [0.0; D];
    let mut hi = [0.0; D];
    for v in &mut lo {
        *v = r.f64()?;
    }
    for v in &mut hi {
        *v = r.f64()?;
    }
    let child_count = r.index("child count")?;
    let mut children = Vec::new();
    if child_count > 0 {
        if level + 1 >= D {
            return Err(corrupt(format!(
                "bottom-level slice claims {child_count} children"
            )));
        }
        let mut child_cursor = begin;
        for _ in 0..child_count {
            children.push(read_slice(r, level + 1, &mut child_cursor, s_end)?);
        }
        if child_cursor != s_end {
            return Err(corrupt(format!(
                "children cover {begin}..{child_cursor}, expected {begin}..{s_end}"
            )));
        }
    }
    let refined = flags & 1 != 0;
    // The cached convergence flag is derived, not stored: refined, and at
    // the bottom level or over children that all converged.
    let converged = refined
        && (level + 1 == D || (!children.is_empty() && children.iter().all(|c| c.converged)));
    Ok(Slice {
        level,
        begin,
        end: s_end,
        bbox: Aabb { lo, hi },
        cut_lo,
        cut_hi,
        key_lo,
        refined,
        keys_fresh: flags & 2 != 0,
        converged,
        children,
    })
}

/// Appends `region`'s records, rebuilt from its arena columns (re-sliced to
/// the record count, so the transpose runs free of bounds checks).
fn push_rows<const D: usize>(region: &SealedRegion<D>, data: &mut Vec<Record<D>>) {
    let m = region.records();
    let ids = &region.ids()[..m];
    let lo: [&[f64]; D] = std::array::from_fn(|d| &region.rec_lo(d)[..m]);
    let nhi: [&[f64]; D] = std::array::from_fn(|d| &region.rec_nhi(d)[..m]);
    data.extend((0..m).map(|p| {
        let (lo, hi) = (lo.map(|c| c[p]), nhi.map(|c| -c[p]));
        Record::new(u64::from(ids[p]), Aabb { lo, hi })
    }));
}

/// Reads the frame of an engine snapshot, which must span the whole
/// buffer.
fn open_frame(bytes: &[u8]) -> Result<Frame, SnapshotError> {
    let frame = Frame::read(bytes, &MAGIC, FORMAT_VERSION, "snapshot")?;
    if frame.total != bytes.len() {
        return Err(corrupt(format!(
            "snapshot claims {} bytes, buffer holds {}",
            frame.total,
            bytes.len()
        )));
    }
    Ok(frame)
}

pub(crate) fn load<const D: usize>(bytes: Vec<u8>) -> Result<Quasii<D>, SnapshotError> {
    require_little_endian()?;
    let frame = open_frame(&bytes)?;
    if frame.dims as usize != D {
        return Err(SnapshotError::WrongDims {
            found: frame.dims,
            expected: D as u32,
        });
    }

    // Adopt the buffer in place (aligned-copy fallback only if the
    // allocator handed out a misaligned base, which it doesn't in
    // practice); every sealed column below borrows this buffer.
    let buf = Arc::new(AlignedBytes::from_vec(bytes));
    // The sum is taken block by block beside the decoding (each block of
    // the two big sections is hashed, then decoded while it is in cache),
    // and its verdict comes first: whatever the decoder made of a damaged
    // buffer, the caller hears "checksum mismatch", as if the pass had run
    // up front. The decoder is total, so running it on unverified bytes
    // costs time at worst.
    let mut sum = frame.verifier(buf.as_bytes());
    let decoded = decode(&buf, &mut sum);
    sum.finish("snapshot")?;
    decoded
}

/// Decodes the body of a snapshot whose frame [`load`] has read, advancing
/// `sum` ahead of each block of the row and key sections and of each region
/// blob. Its result means nothing until `sum` has accepted the buffer.
fn decode<const D: usize>(
    buf: &Arc<AlignedBytes>,
    sum: &mut Verifier,
) -> Result<Quasii<D>, SnapshotError> {
    let mut r = Reader::new(buf.as_bytes(), FRAME_LEN);

    let n = r.index("record count")?;
    let cfg = QuasiiConfig {
        tau: r.index("tau")?,
        assign_by: AssignBy::from_code(r.u64()?)?,
        threads: r.index("threads")?,
        seal: r.flag("seal flag")?,
        // The SIMD policy is a host property, not index state: a snapshot
        // written on an AVX2 host must dispatch scalar on a host without
        // it (results are identical either way), so it is never persisted
        // and every load re-resolves from the default policy.
        simd: crate::simd::SimdPolicy::default(),
    };
    let mut stats = QuasiiStats::default();
    for slot in [
        &mut stats.queries,
        &mut stats.cracks,
        &mut stats.records_cracked,
        &mut stats.slices_created,
        &mut stats.slices_refined,
        &mut stats.default_children,
        &mut stats.forced_refinements,
        &mut stats.objects_tested,
        &mut stats.rekeys,
        &mut stats.records_rekeyed,
    ] {
        *slot = r.u64()?;
    }
    let sealed_queries = r.u64()?;
    let mut ext_low = [0.0; D];
    let mut ext_high = [0.0; D];
    for v in &mut ext_low {
        *v = r.f64()?;
    }
    for v in &mut ext_high {
        *v = r.f64()?;
    }
    let mut b_lo = [0.0; D];
    let mut b_hi = [0.0; D];
    for v in &mut b_lo {
        *v = r.f64()?;
    }
    for v in &mut b_hi {
        *v = r.f64()?;
    }
    let data_bounds = Aabb { lo: b_lo, hi: b_hi };

    // Bulk-decode the stored rows and their key columns: one bounds check
    // for the whole section, then fixed-stride entries — per-scalar
    // `Reader` calls are fine for headers but dominate load time at n ~ 10⁶.
    // `blocks` succeeding also proves `stored` honest, so the reserves
    // below are bounded by the buffer length.
    let stored = r.index("stored-row count")?;
    if stored > n {
        return Err(corrupt(format!("{stored} stored rows for {n} records")));
    }
    let blocks = r.blocks(stored, (1 + 2 * D) * 8, "records")?;
    let mut rows = Vec::with_capacity(stored);
    for (end, entries) in blocks {
        sum.advance(end);
        for c in entries {
            let id = u64::from_le_bytes(c[..8].try_into().unwrap());
            let mut lo = [0.0; D];
            let mut hi = [0.0; D];
            for (d, v) in lo.iter_mut().enumerate() {
                *v = f64::from_le_bytes(c[8 + 8 * d..16 + 8 * d].try_into().unwrap());
            }
            for (d, v) in hi.iter_mut().enumerate() {
                let at = 8 + 8 * (D + d);
                *v = f64::from_le_bytes(c[at..at + 8].try_into().unwrap());
            }
            rows.push(Record::new(id, Aabb { lo, hi }));
        }
    }
    let mut column = |what| -> Result<Vec<f64>, SnapshotError> {
        let blocks = r.blocks(stored, 8, what)?;
        let mut vs = Vec::with_capacity(stored);
        for (end, entries) in blocks {
            sum.advance(end);
            vs.extend(entries.map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes"))));
        }
        Ok(vs)
    };
    let ks = column("keys")?;
    let hs = column("key upper bounds")?;

    let root_count = r.index("root-slice count")?;
    let mut root = Vec::new();
    let mut cursor = 0usize;
    for _ in 0..root_count {
        root.push(read_slice::<D>(&mut r, 0, &mut cursor, n)?);
    }
    if cursor != n {
        return Err(corrupt(format!(
            "root slices cover 0..{cursor}, expected 0..{n}"
        )));
    }

    // Region table, then revive each blob as a borrow of `buf`. The writer
    // lays blobs back-to-back right after the table; enforcing that exactly
    // (offsets sequential, last blob ending at the buffer end) means no
    // byte of the buffer is unaccounted for.
    let region_count = r.index("region count")?;
    let table_end = region_count
        .checked_mul(32)
        .and_then(|t| t.checked_add(r.pos()))
        .ok_or_else(|| corrupt("region table overflow"))?;
    let mut expected_off = table_end;
    let mut seals: Vec<SealedRegion<D>> = Vec::new();
    let mut root_cursor = 0usize;
    for k in 0..region_count {
        let begin = r.index("region begin")?;
        let end = r.index("region end")?;
        let off = r.index("region blob offset")?;
        let len = r.index("region blob length")?;
        if off != expected_off {
            return Err(corrupt(format!(
                "region {k} blob at {off}, expected {expected_off}"
            )));
        }
        expected_off = off
            .checked_add(len)
            .ok_or_else(|| corrupt("region blob overflow"))?;
        // Every seal must mirror a top-level slice (the sealed query path's
        // cursor merge relies on it). Both lists are sorted, so one forward
        // scan matches them up.
        while root_cursor < root.len() && root[root_cursor].begin < begin {
            root_cursor += 1;
        }
        let Some(slice) = root
            .get(root_cursor)
            .filter(|s| s.begin == begin && s.end == end)
        else {
            return Err(corrupt(format!(
                "region {k} covers {begin}..{end}, which matches no top-level slice"
            )));
        };
        // A seal is permanent only over a slice no query can crack.
        if !slice.converged {
            return Err(corrupt(format!(
                "region {k} covers {begin}..{end}, an unconverged top-level slice"
            )));
        }
        root_cursor += 1;
        let region = SealedRegion::from_blob(begin, end, Arc::clone(buf), off, len)
            .map_err(|e| corrupt(format!("region {k}: {e}")))?;
        // The arena and the skeleton store the subtree twice; a read trusts
        // the arena, a crack beside it the skeleton, so they must agree.
        validate::check_region_nodes(&region, slice)
            .map_err(|e| corrupt(format!("region {k}, {e}")))?;
        seals.push(region);
    }
    if expected_off != buf.len() {
        return Err(corrupt(format!(
            "buffer holds {} bytes, sections account for {expected_off}",
            buf.len()
        )));
    }
    if !cfg.seal && !seals.is_empty() {
        return Err(corrupt("sealed regions present with sealing disabled"));
    }
    // `stored ≤ n` holds; the regions must hold exactly the other records.
    let sealed_record_count: usize = seals.iter().map(SealedRegion::records).sum();
    if n - stored != sealed_record_count {
        return Err(corrupt(format!(
            "{stored} stored rows and {sealed_record_count} sealed records for {n} records"
        )));
    }

    // The data array, span after span: stored rows between the seals, each
    // seal's rows rebuilt from its arena (without seals, no copy at all).
    let (data, keys) = if seals.is_empty() {
        (rows, KeyColumn::from_raw(ks, hs))
    } else {
        // A mapping of its own, faulted in fresh by every load whatever the
        // heap holds, so a load costs the same from one run to the next,
        // and in huge pages where the kernel has them.
        let mut data = own_mapping(n);
        // Key windows under a seal stay zero pages nobody touches.
        let (mut keys, mut his) = (vec![0.0; n], vec![0.0; n]);
        let (mut at, mut blob_end) = (0, table_end);
        let regions = seals.iter().map(Some).chain([None]);
        for (span, region) in unsealed(&seals, n).zip(regions) {
            let next = at + span.len();
            data.extend_from_slice(&rows[at..next]);
            keys[span.clone()].copy_from_slice(&ks[at..next]);
            his[span].copy_from_slice(&hs[at..next]);
            at = next;
            if let Some(region) = region {
                // Hash the blob right before its columns are read.
                blob_end += region.blob().len();
                sum.advance(blob_end);
                push_rows(region, &mut data);
            }
        }
        (data, KeyColumn::from_raw(keys, his))
    };
    let mut rt = Runtime::new();
    rt.stats = stats;
    Ok(Quasii {
        data,
        keys,
        root,
        env: Env {
            tau: config::tau_schedule::<D>(n, cfg.tau),
            mode: cfg.assign_by,
            simd: cfg.simd.resolve(),
        },
        rt,
        cfg,
        ext_low,
        ext_high,
        data_bounds,
        initialized: true,
        precomputed_keys: None,
        seals,
        sealed_queries: quasii_obs::CounterGroup::from_snapshot([sealed_queries]),
        reads: quasii_obs::CounterGroup::new(),
        sealed_record_count,
        poisoned: None,
        panic_trap: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasii_common::dataset::uniform_boxes_in;
    use quasii_common::index::SpatialIndex;
    use quasii_common::workload;

    #[test]
    fn roundtrip_is_byte_identical() {
        let data = uniform_boxes_in::<3>(3_000, 500.0, 42);
        let u = Aabb::new([0.0; 3], [500.0; 3]);
        let queries = workload::uniform(&u, 60, 1e-3, 43).queries;
        let mut idx = Quasii::new(data, QuasiiConfig::with_tau(16));
        for q in &queries[..30] {
            idx.query_collect(q);
        }
        let snap = idx.write_snapshot().expect("write");
        let mut re = Quasii::<3>::from_snapshot(snap).expect("load");
        assert_eq!(re.stats(), idx.stats());
        assert_eq!(re.seal_stats(), idx.seal_stats());
        assert_eq!(re.data(), idx.data(), "permutation is byte-identical");
        re.validate().expect("reloaded invariants");
        for q in &queries {
            assert_eq!(re.query_collect(q), idx.query_collect(q), "query {q:?}");
        }
        assert_eq!(re.stats(), idx.stats(), "work counters track in lockstep");
    }

    #[test]
    fn empty_and_unqueried_indexes_roundtrip() {
        let mut empty = Quasii::<2>::with_default_config(Vec::new());
        let snap = empty.write_snapshot().expect("write empty");
        let mut re = Quasii::<2>::from_snapshot(snap).expect("load empty");
        assert!(re.is_empty());
        assert!(re.query_collect(&Aabb::new([0.0; 2], [1.0; 2])).is_empty());

        let data = uniform_boxes_in::<2>(200, 50.0, 7);
        let mut fresh = Quasii::new(data, QuasiiConfig::with_tau(8));
        let snap = fresh.write_snapshot().expect("write unqueried");
        let mut re = Quasii::<2>::from_snapshot(snap).expect("load unqueried");
        let q = Aabb::new([10.0; 2], [30.0; 2]);
        assert_eq!(re.query_collect(&q), fresh.query_collect(&q));
    }

    #[test]
    fn corrupted_prefixes_are_rejected() {
        let data = uniform_boxes_in::<2>(300, 50.0, 9);
        let mut idx = Quasii::new(data, QuasiiConfig::with_tau(8));
        idx.finalize();
        let snap = idx.write_snapshot().expect("write");

        let mut bad = snap.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            Quasii::<2>::from_snapshot(bad),
            Err(SnapshotError::Corrupt(_))
        ));

        // Exactly one version is accepted: the previous one is foreign too.
        for foreign in [99, FORMAT_VERSION - 1] {
            let mut bad = snap.clone();
            bad[8] = foreign as u8;
            assert!(matches!(
                Quasii::<2>::from_snapshot(bad),
                Err(SnapshotError::WrongVersion { found, expected: FORMAT_VERSION })
                    if found == foreign
            ));
        }

        assert!(matches!(
            Quasii::<3>::from_snapshot(snap.clone()),
            Err(SnapshotError::WrongDims {
                found: 2,
                expected: 3
            })
        ));

        let mut bad = snap.clone();
        let at = snap.len() / 2;
        bad[at] ^= 0x01; // body flip → checksum
        assert!(matches!(
            Quasii::<2>::from_snapshot(bad),
            Err(SnapshotError::Corrupt(_))
        ));

        for cut in [0, 10, 31, 32, snap.len() - 1] {
            assert!(Quasii::<2>::from_snapshot(snap[..cut].to_vec()).is_err());
        }
    }

    #[test]
    fn the_sum_speaks_before_the_decoder() {
        // The decoder runs beside the sum, on bytes nobody has vouched for
        // yet; a damaged buffer must still read as a checksum mismatch,
        // wherever the decoder gave up on it.
        let data = uniform_boxes_in::<2>(300, 50.0, 9);
        let mut idx = Quasii::new(data, QuasiiConfig::with_tau(8));
        idx.finalize();
        let snap = idx.write_snapshot().expect("write");
        // The record count (the decoder stops where the root slices fall
        // short of it), a config word (an unknown assignment mode), the
        // last byte (the decoder never looks at it).
        for (at, byte) in [
            (FRAME_LEN + 7, 0x7f),
            (FRAME_LEN + 16, 9),
            (snap.len() - 1, 0xa5),
        ] {
            let mut bad = snap.clone();
            bad[at] ^= byte;
            match Quasii::<2>::from_snapshot(bad) {
                Err(SnapshotError::Corrupt(why)) => {
                    assert!(why.contains("checksum mismatch"), "byte {at}: {why}")
                }
                other => panic!("byte {at}: expected Corrupt, got {:?}", other.map(|_| ())),
            }
        }
    }

    /// Offset of the stored-row count: the frame, then the scalars up to
    /// the bounds.
    fn stored_at<const D: usize>() -> usize {
        FRAME_LEN + (16 + 4 * D) * 8
    }

    fn word(bytes: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
    }

    fn put_word(bytes: &mut [u8], at: usize, v: u64) {
        bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// The length of a snapshot that stores `stored` rows, from the parts
    /// the layout names.
    fn expected_len<const D: usize>(idx: &Quasii<D>, stored: usize) -> usize {
        let blobs: usize = idx.seals.iter().map(|r| r.blob().len()).sum();
        stored_at::<D>()
            + 8
            + stored * (8 + 16 * D + 16)
            + 8
            + idx.slice_count() * (8 + 2 * D) * 8
            + 8
            + idx.seals.len() * 32
            + blobs
    }

    /// Loads a forged buffer whose checksum was recomputed, so the decoder,
    /// not the sum, must name what is wrong with it.
    fn forged_reason<const D: usize>(mut bytes: Vec<u8>) -> String {
        let sum = quasii_common::snapshot::checksum64(&bytes[24..]);
        put_word(&mut bytes, 16, sum);
        match Quasii::<D>::from_snapshot(bytes) {
            Err(SnapshotError::Corrupt(why)) => {
                assert!(!why.contains("checksum"), "the sum accepted it: {why}");
                why
            }
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn a_partially_sealed_snapshot_stores_only_the_unsealed_rows() {
        let data = uniform_boxes_in::<3>(3_000, 500.0, 42);
        let n = data.len();
        let mut idx = Quasii::new(data, QuasiiConfig::with_tau(16));
        // A slab across the whole y, z extent converges the root slices it
        // touches and leaves those on both sides unrefined.
        idx.query_collect(&Aabb::new([200.0, -1.0, -1.0], [260.0, 501.0, 501.0]));
        let snap = idx.write_snapshot().expect("write");
        let sealed = idx.sealed_records();
        assert!(idx.seals[0].begin > 0 && idx.seals.last().unwrap().end < n);
        assert!(sealed > 0 && sealed < n);
        assert_eq!(word(&snap, stored_at::<3>()), (n - sealed) as u64);
        assert_eq!(snap.len(), expected_len(&idx, n - sealed));

        let mut re = Quasii::<3>::from_snapshot(snap.clone()).expect("load");
        assert_eq!(re.data(), idx.data(), "permutation is byte-identical");
        assert_eq!(re.sealed_records(), sealed);
        re.validate().expect("reloaded invariants");
        assert_eq!(re.write_snapshot().expect("rewrite"), snap);
        let q = Aabb::new([100.0; 3], [300.0; 3]);
        assert_eq!(re.query_collect(&q), idx.query_collect(&q));
        re.validate()
            .expect("invariants after a crack beside the seals");
    }

    #[test]
    fn a_fully_sealed_snapshot_stores_no_rows() {
        let data = uniform_boxes_in::<2>(2_000, 100.0, 21);
        let mut idx = Quasii::new(data, QuasiiConfig::with_tau(8));
        idx.finalize();
        let snap = idx.write_snapshot().expect("write");
        assert_eq!(idx.sealed_fraction(), 1.0);
        assert_eq!(word(&snap, stored_at::<2>()), 0);
        assert_eq!(snap.len(), expected_len(&idx, 0));
        let mut re = Quasii::<2>::from_snapshot(snap.clone()).expect("load");
        assert_eq!(re.data(), idx.data());
        re.validate().expect("reloaded invariants");
        assert_eq!(re.write_snapshot().expect("rewrite"), snap);
    }

    #[test]
    fn forged_counts_are_named_corrupt() {
        let data = uniform_boxes_in::<2>(500, 50.0, 13);
        let n = data.len();
        let mut idx = Quasii::new(data, QuasiiConfig::with_tau(8));
        idx.finalize();
        let snap = idx.write_snapshot().expect("write");
        let at = stored_at::<2>();

        // More stored rows than records.
        let mut bad = snap.clone();
        put_word(&mut bad, at, n as u64 + 1);
        let why = forged_reason::<2>(bad);
        assert!(why.contains("stored rows for"), "{why}");

        // One stored row beside seals that already cover every record: the
        // row, its two keys, and every offset behind them moved.
        let row = 8 + 16 * 2 + 16;
        let mut bad = snap[..at].to_vec();
        bad.extend_from_slice(&1u64.to_le_bytes());
        bad.resize(bad.len() + row, 0);
        bad.extend_from_slice(&snap[at + 8..]);
        let len = bad.len();
        put_word(&mut bad, 24, len as u64);
        let blobs: usize = idx.seals.iter().map(|r| r.blob().len()).sum();
        let table = len - blobs - 32 * idx.seals.len();
        for k in 0..idx.seals.len() {
            let off = table + 32 * k + 16;
            let moved = word(&bad, off) + row as u64;
            put_word(&mut bad, off, moved);
        }
        let why = forged_reason::<2>(bad);
        assert!(why.contains("sealed records for"), "{why}");

        // A record count no buffer could hold, on a snapshot that stores
        // no rows: refused before anything is sized by it.
        let mut bad = snap;
        put_word(&mut bad, FRAME_LEN, 1 << 60);
        forged_reason::<2>(bad);
    }

    /// A seal is permanent only over a converged root slice: a forged
    /// skeleton that unrefines a sealed slice is refused by name.
    #[test]
    fn a_seal_over_an_unconverged_slice_is_named_corrupt() {
        let data = uniform_boxes_in::<2>(500, 50.0, 13);
        let mut idx = Quasii::new(data, QuasiiConfig::with_tau(8));
        idx.finalize();
        let snap = idx.write_snapshot().expect("write");
        let at = stored_at::<2>();
        assert_eq!(word(&snap, at), 0, "fully sealed: no stored rows");
        // The first root slice's flags word: after the stored-row count,
        // the root count, and the slice's level, begin and end.
        let flags_at = at + 8 + 8 + 3 * 8;
        let flags = word(&snap, flags_at);
        assert_eq!(flags & 1, 1, "a sealed root slice is refined");
        let mut bad = snap;
        put_word(&mut bad, flags_at, flags & !1);
        let why = forged_reason::<2>(bad);
        assert!(why.contains("an unconverged top-level slice"), "{why}");
    }

    /// A snapshot stores a sealed subtree twice, in the skeleton and in the
    /// arena: a forged arena node whose box disagrees with its slice would
    /// answer slab queries wrong, so it is refused by region, level and node.
    #[test]
    fn a_region_that_diverges_from_its_slice_is_named_corrupt() {
        let data = uniform_boxes_in::<2>(2_000, 100.0, 21);
        let mut idx = Quasii::new(data, QuasiiConfig::with_tau(8));
        idx.finalize();
        let snap = idx.write_snapshot().expect("write");
        let region = &idx.seals[0];
        let blobs: usize = idx.seals.iter().map(|r| r.blob().len()).sum();
        // The first arena node's `bb_lo[0]`, the first word of its metadata.
        let node = region.meta(0).as_ptr() as usize - region.blob().as_ptr() as usize;
        let at = snap.len() - blobs + node;
        assert_eq!(f64::from_bits(word(&snap, at)), region.meta(0)[0].bb_lo[0]);
        let mut bad = snap;
        put_word(&mut bad, at, 1e9f64.to_bits());
        let why = forged_reason::<2>(bad);
        assert!(why.contains("region 0, level 0, node 0:"), "{why}");
    }

    #[test]
    fn poisoned_engines_refuse_snapshots() {
        let data = uniform_boxes_in::<2>(300, 50.0, 63);
        let mut idx = Quasii::new(data, QuasiiConfig::with_tau(8).with_threads(2));
        idx.inject_panic_at(0);
        let q = Aabb::new([0.0; 2], [50.0; 2]);
        assert!(idx.try_execute_batch(&[q]).is_err());
        assert!(matches!(
            idx.write_snapshot(),
            Err(SnapshotError::Unsupported(_))
        ));
        idx.repair();
        assert!(idx.write_snapshot().is_ok());
    }
}
