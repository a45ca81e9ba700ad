//! Single-buffer index **snapshots**: the whole engine state — the lanes
//! of the records outside the seals, the slice tree down to the sealed
//! slices, and each sealed slice's arena — serialized into one versioned,
//! checksummed, 8-byte-aligned buffer, and
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
//! # Buffer layout (format version 9)
//!
//! All scalars little-endian; every section a multiple of 8 bytes, so each
//! section (and in particular every region blob) starts 8-aligned. The
//! fixed 32-byte prefix is the [`Frame`] every persistent form shares:
//!
//! ```text
//! offset  size  field
//!      0     8  magic  "QSIISNAP"
//!      8     4  format version (u32, currently 9)
//!     12     4  dimensionality D (u32)
//!     16     8  checksum64 of the header, bytes[24..first blob]
//!                                           (the "header word")
//!     24     8  total buffer length in bytes
//! ```
//!
//! The frame is followed by the engine state, sequentially: a small
//! header, then the region blobs, each of which carries its own sum in the
//! header's region table (bstree-file's "a metadata part followed by the
//! data part"):
//!
//! ```text
//! u64 n                      record count
//! u64 ×2                     config: tau, assign_by (0|1|2)
//! u64 ×10                    QuasiiStats (deterministic work counters)
//! u64                        SealStats::sealed_queries
//! f64 ×2D                    ext_low, ext_high (query extension amounts)
//! f64 ×2D                    data_bounds lo, hi
//! u64 s                      stored rows: the records outside every seal
//! s u64                      their id lane, in permuted order, unsealed
//!                            root slice after unsealed root slice
//! D × s f64                  their lo lanes, dimension after dimension
//! D × s f64                  their negated-hi lanes, likewise
//! u64 + tree                 slice tree: root count, then pre-order nodes
//!                            (level, begin, end, flags[refined, sealed],
//!                            cut_lo, cut_hi, key_lo, bbox lo/hi, child
//!                            count, children…); a sealed node stores no
//!                            children
//! u64 + table                sealed regions: count, then per region
//!                            (blob length, blob checksum64)
//! ---------------------------- the header sum ends here
//! blobs                      region blobs, back-to-back from the end of
//!                            the table to the end of the buffer,
//!                            8-aligned, in the position-independent layout
//!                            of `crate::seal`
//! ```
//!
//! # Sums
//!
//! [`checksum64`](quasii_common::snapshot::checksum64) is four independent
//! 64-bit lanes over 32-byte stripes, folded, with the tail bytes and the
//! length mixed in last; a change confined to one stripe word or one tail
//! byte (so every single-bit flip) changes it with certainty. Every byte of
//! a part is covered by exactly one sum: the header word covers the length
//! word, the scalars, the stored lanes, the slice tree and the region
//! table; each blob is covered by its table entry. A shard
//! manifest binds a part by storing its header word (8 bytes copied, 8
//! bytes compared) instead of hashing the part again, and since the header
//! word covers the table of blob sums, it pins every blob too.
//!
//! An arena never changes once it is built (a seal is permanent), so its
//! sum is taken once and kept with it (`SealedRegion::sum`): a region built
//! by a seal is hashed by the first write that stores it, a loaded one
//! keeps the table word its load checked. A write therefore hashes only
//! its header, and copies the blobs after it unhashed ([`Writer::blob`]);
//! a restart that writes a converged deployment again hashes no arena.
//! Nothing is hashed at seal time, so neither the crack path nor a
//! finalize pays for sums.
//!
//! A load hashes each byte once, right before it decodes it, so a block is
//! read from memory once: the header sum follows the decoder block by
//! block through the record and key sections ([`Verifier`]), and each blob
//! is hashed against its table word right before it is first read whole —
//! before `SealedRegion::from_blob` parses it on a fully sealed part, and
//! before its lanes are copied on a partially sealed one (`from_blob` reads
//! only a blob's header and nodes). The sum runs at the speed of its
//! multiplies whatever the memory system is doing: a separate 64 MB pass
//! read at half that speed and was the part of a restart that differed most
//! from one run to the next.
//!
//! A sealed subtree is stored once, as its arena: the region table's
//! entries attach to the sealed nodes in pre-order, one each, and take
//! their record range from their node. Only a refined level-0 node may be
//! sealed, and the two counts must match. The cached convergence flag is
//! not stored but derived: refined, and at the bottom level, sealed, or
//! over children that all converged. A sealed record is stored once too,
//! in its arena (a seal is permanent). For a partially sealed part the
//! loader copies its live lanes from the blob's lanes, widening the ids. A
//! part that stores no rows beside its seals is fully sealed: its engine
//! keeps no live lanes, exactly as the writer did, so the loader allocates
//! none. It still hashes every blob, and holds each to its partition
//! rules.
//!
//! Each fact is stored once. The seal count is the region table's length,
//! a blob's offset is where the blob before it ends, and a written engine
//! is always initialized. Every write leaves the seals current, so there
//! is no pending seal work to record. The one fixed engine constant
//! (`engine`'s artificial-split depth) is not stored, so a forged buffer
//! cannot set it.
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
//! spans. Version 5 dropped the config word that said whether the engine
//! sealed (8 bytes): an engine always seals what converges. Version 6
//! stores no slice below a sealed one (its arena is the one copy of that
//! subtree): a node's flags gain bit 2, `sealed`, and each region table
//! entry drops its `begin` and `end` (16 bytes a region), which its sealed
//! node holds. Version 7 gives each blob a sum of its own: a region table
//! entry is (length, sum) in place of (offset, length), and the header word
//! stops where the first blob starts. A part has as many bytes as in
//! version 6, and every other byte kept its order. Version 8 stores the
//! records outside the seals as lanes (the id lane, then the `lo` lanes,
//! then the negated-`hi` lanes) in place of records and two key columns,
//! 16 bytes a stored record fewer, and a node's flags lose the key-column
//! freshness bit (`sealed` moves to bit 1); a fully sealed part, which
//! stores no rows, has as many bytes as in version 7. Version 9 drops the
//! config word that capped an engine's read-phase threads (8 bytes): an
//! engine batch runs on its calling thread. Scalars are defined
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
//! region blob re-runs `SealedRegion::from_blob`'s checks: the same
//! partition rules on the arena's nodes (each level contiguous in record
//! space, each node's children covering exactly its records, child ranges
//! tiling the next level in order), so a malformed arena is a named
//! `Corrupt` error before anything reads it. `n`
//! is proven by the stored rows plus the regions' records (`s ≤ n` before
//! the rows are read, `s + Σ == n` before anything is sized by `n`). The
//! decoder works beside the sums, so it sees bytes before they are vouched
//! for; it sizes nothing by a count it has not checked against the buffer,
//! its result is dropped unless the header sum accepts the header, and the
//! sums' verdict is the one reported ("checksum mismatch" for any damaged
//! buffer, wherever the decoder stopped). The header sum speaks first: the
//! loader finds where it ends from the counts that lay the header out
//! (stored rows, the tree's child counts, the region count) before any of
//! them is judged, so it has a verdict on every buffer; a buffer whose
//! counts run past its end has no table to end at, and its header sum runs
//! to the end of the buffer. A damaged blob under an intact header reads
//! "checksum mismatch in region k".

use crate::config::AssignBy;
use crate::engine::{Env, Lanes, Runtime};
use crate::seal::SealedRegion;
use crate::slice::Slice;
use crate::{config, Quasii, QuasiiConfig, QuasiiStats};
use quasii_common::geom::Aabb;
use quasii_common::snapshot::{
    checksum64, corrupt, Frame, Reader, SnapshotError, Verifier, Writer, FRAME_LEN,
};
use std::ops::Range;
use std::sync::Arc;

/// First 8 bytes of every engine snapshot.
pub const MAGIC: [u8; 8] = *b"QSIISNAP";
/// The one format version this build writes and accepts (see the module
/// docs for the bump-on-any-change policy).
pub(crate) const FORMAT_VERSION: u32 = 9;

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
    w.u64(u64::from(s.refined) | u64::from(s.sealed.is_some()) << 1);
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

    let n = idx.n;
    let stored = n - idx.sealed_record_count;
    // The layout is determined before the first byte is written, so the
    // buffer is sized exactly and never reallocates (a 64 MB `Vec` that
    // outgrows its reserve copies the whole snapshot once more).
    let regions = idx.arenas().count();
    let blob_bytes: usize = idx.arenas().map(|r| r.blob().len()).sum();
    let total = stored_at::<D>() // the frame and the scalars up to the bounds
        + 8 + stored * record_bytes::<D>()
        + 8 + idx.root.iter().map(Slice::count).sum::<usize>() * slice_bytes::<D>()
        + 8 + regions * 16
        + blob_bytes;
    let mut w = Writer::framed(&MAGIC, FORMAT_VERSION, D as u32, total);
    let reserved = w.capacity();

    w.u64(n as u64);
    w.u64(idx.cfg.tau as u64);
    w.u64(idx.cfg.assign_by.code());
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

    // The lanes of the records outside the seals, in the engine's current
    // (cracked) permutation — reloading them verbatim, and the sealed ones
    // from their arenas, is what makes the reloaded permutation
    // byte-identical. Appends into reserved space: the section is bound by
    // first-touch page faults of the fresh buffer, and a zero-filling
    // reserve would touch it twice. A fully sealed engine holds no live
    // lanes, and has no unsealed root slice.
    w.u64(stored as u64);
    let spans: Vec<Range<usize>> = idx
        .root
        .iter()
        .filter(|s| s.sealed.is_none())
        .map(|s| s.begin..s.end)
        .collect();
    let lanes = idx.data.view();
    for span in &spans {
        for id in &lanes.ids[span.clone()] {
            w.bytes(&id.to_le_bytes());
        }
    }
    for lane in lanes.lo.iter().chain(&lanes.nhi) {
        for span in &spans {
            w.f64s(&lane[span.clone()]);
        }
    }

    // The slice tree, pre-order, down to the sealed slices: a sealed
    // slice's subtree is its arena, stored once, below.
    w.u64(idx.root.len() as u64);
    for s in &idx.root {
        write_slice(&mut w, s);
    }

    // The region table, one (blob length, blob sum) entry per sealed slice
    // in pre-order, ends the header sum. Each blob after it is covered by
    // its entry, and an arena's sum is taken once in its life, so the
    // blobs are copied unhashed.
    w.u64(regions as u64);
    for r in idx.root.iter_mut().filter_map(|s| s.sealed.as_deref_mut()) {
        w.u64(r.blob().len() as u64);
        w.u64(r.sum());
    }
    w.end_sum();
    for r in idx.arenas() {
        debug_assert_eq!(w.pos() % 8, 0, "region blobs start 8-aligned");
        w.blob(r.blob());
    }

    debug_assert_eq!(w.pos(), total, "the layout was sized exactly");
    debug_assert_eq!(w.capacity(), reserved, "the buffer never reallocated");
    Ok(w.finish())
}

// ---------------------------------------------------------------------
// Load path
// ---------------------------------------------------------------------

/// Offset of the stored-row count: the frame, then the scalars up to the
/// bounds.
const fn stored_at<const D: usize>() -> usize {
    FRAME_LEN + (14 + 4 * D) * 8
}

/// Bytes of one stored record: its id and its `lo` and negated-`hi`
/// lanes.
const fn record_bytes<const D: usize>() -> usize {
    (1 + 2 * D) * 8
}

/// Bytes of one stored slice, its child count last.
const fn slice_bytes<const D: usize>() -> usize {
    (8 + 2 * D) * 8
}

/// Where the header sum ends: after the region table, which the buffer's
/// own counts locate (the stored rows, the slice tree's child counts, the
/// region count) before anything judges them, so that the sum has a verdict
/// on every buffer whatever the decoder makes of it. A buffer whose counts
/// run past its end locates no table, and its header sum runs to its end.
fn header_end<const D: usize>(bytes: &[u8]) -> usize {
    fn skip_slice<const D: usize>(r: &mut Reader, level: usize) -> Result<(), SnapshotError> {
        r.section(1, slice_bytes::<D>() - 8, "slice")?;
        let children = r.index("child count")?;
        if children > 0 && level + 1 >= D {
            return Err(corrupt("bottom-level children"));
        }
        (0..children).try_for_each(|_| skip_slice::<D>(r, level + 1))
    }
    let walk = || -> Result<usize, SnapshotError> {
        let mut r = Reader::new(bytes, stored_at::<D>());
        let stored = r.index("stored-row count")?;
        r.section(stored, record_bytes::<D>(), "stored rows")?;
        for _ in 0..r.index("root-slice count")? {
            skip_slice::<D>(&mut r, 0)?;
        }
        let regions = r.index("region count")?;
        r.section(regions, 16, "region table")?;
        Ok(r.pos())
    };
    walk().unwrap_or(bytes.len())
}

/// Hashes region `k`'s blob against the sum its table entry gives it.
fn check_blob(k: usize, blob: &[u8], word: u64) -> Result<(), SnapshotError> {
    let actual = checksum64(blob);
    if actual != word {
        return Err(corrupt(format!(
            "snapshot checksum mismatch in region {k}: table {word:#018x}, computed {actual:#018x}"
        )));
    }
    Ok(())
}

/// Reads one pre-order slice whose range must start at `*cursor` and stay
/// within `end`; advances the cursor past it, and returns it with whether
/// it is sealed (its arena is attached from the region table). Level and
/// partition validation here is what bounds the recursion (children are
/// one level deeper, and levels stop at `D - 1`) and every later
/// engine-side index (all ranges nest inside `0..n`).
fn read_slice<const D: usize>(
    r: &mut Reader,
    level: usize,
    cursor: &mut usize,
    end: usize,
) -> Result<(Slice<D>, bool), SnapshotError> {
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
    let (refined, sealed) = (flags & 1 != 0, flags & 2 != 0);
    if sealed && (level != 0 || !refined) {
        return Err(corrupt(format!(
            "slice {begin}..{s_end} at level {level} is sealed, \
             but only a refined level-0 slice can be"
        )));
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
        if sealed {
            return Err(corrupt(format!(
                "sealed slice {begin}..{s_end} claims {child_count} children"
            )));
        }
        if level + 1 >= D {
            return Err(corrupt(format!(
                "bottom-level slice claims {child_count} children"
            )));
        }
        let mut child_cursor = begin;
        for _ in 0..child_count {
            children.push(read_slice(r, level + 1, &mut child_cursor, s_end)?.0);
        }
        if child_cursor != s_end {
            return Err(corrupt(format!(
                "children cover {begin}..{child_cursor}, expected {begin}..{s_end}"
            )));
        }
    }
    // The cached convergence flag is derived, not stored: refined, and at
    // the bottom level, sealed, or over children that all converged.
    let converged = refined
        && (level + 1 == D
            || sealed
            || (!children.is_empty() && children.iter().all(|c| c.converged)));
    let slice = Slice {
        level: level as u32,
        begin,
        end: s_end,
        bbox: Aabb { lo, hi },
        cut_lo,
        cut_hi,
        key_lo,
        refined,
        converged,
        children,
        sealed: None,
    };
    Ok((slice, sealed))
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
    // The header sum is taken block by block beside the decoding (each
    // block of the two big sections is hashed, then decoded while it is in
    // cache), and its verdict comes first: whatever the decoder made of a
    // damaged header, the caller hears "checksum mismatch", as if the pass
    // had run up front. The decoder is total, so running it on unverified
    // bytes costs time at worst; it checks each blob against its own sum.
    let mut sum = frame.verifier(buf.as_bytes(), header_end::<D>(buf.as_bytes()));
    let decoded = decode(&buf, &mut sum);
    sum.finish("snapshot")?;
    decoded
}

/// Decodes the body of a snapshot whose frame [`load`] has read, advancing
/// `sum` ahead of each block of the lane sections, and checking each
/// region blob against its table entry before reading it whole. Its result
/// means nothing until `sum` has accepted the header.
fn decode<const D: usize>(
    buf: &Arc<AlignedBytes>,
    sum: &mut Verifier,
) -> Result<Quasii<D>, SnapshotError> {
    let mut r = Reader::new(buf.as_bytes(), FRAME_LEN);

    let n = r.index("record count")?;
    let cfg = QuasiiConfig {
        tau: r.index("tau")?,
        assign_by: AssignBy::from_code(r.u64()?)?,
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

    // Bulk-decode the stored lanes: one bounds check per lane, then
    // fixed-stride entries — per-scalar `Reader` calls are fine for headers
    // but dominate load time at n ~ 10⁶. `blocks` succeeding also proves
    // `stored` honest, so the reserves below are bounded by the buffer
    // length.
    let stored = r.index("stored-row count")?;
    if stored > n {
        return Err(corrupt(format!("{stored} stored rows for {n} records")));
    }
    let mut lane = |what, count| -> Result<Vec<u64>, SnapshotError> {
        let blocks = r.blocks(count, 8, what)?;
        let mut vs = Vec::with_capacity(count);
        for (end, entries) in blocks {
            sum.advance(end);
            vs.extend(entries.map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))));
        }
        Ok(vs)
    };
    let ids = lane("ids", stored)?;
    // The coordinate lanes are stored as the live lanes hold them, one
    // after the other; their words collect in place into `f64`s.
    let coords = lane("coordinate lanes", 2 * D * stored)?;
    let rows = Lanes::from_parts(ids, coords.into_iter().map(f64::from_bits).collect());

    let root_count = r.index("root-slice count")?;
    let mut root = Vec::new();
    let mut sealed = Vec::new();
    let mut cursor = 0usize;
    for i in 0..root_count {
        let (slice, is_sealed) = read_slice::<D>(&mut r, 0, &mut cursor, n)?;
        if is_sealed {
            sealed.push(i);
        }
        root.push(slice);
    }
    if cursor != n {
        return Err(corrupt(format!(
            "root slices cover 0..{cursor}, expected 0..{n}"
        )));
    }

    // Region table, then revive each blob as a borrow of `buf` and hand it
    // to its sealed slice, in pre-order. The blobs lie back-to-back from the
    // end of the table, and the last must end at the buffer's end, so no
    // byte of the buffer is unaccounted for. A fully sealed part hashes
    // each blob right before `from_blob` parses it; a partially sealed one
    // right before it copies the blob's lanes, below (`from_blob` reads
    // only the blob's header and nodes, and a blob it refuses is hashed
    // first, so damage still reads as a checksum mismatch).
    let region_count = r.index("region count")?;
    if region_count != sealed.len() {
        return Err(corrupt(format!(
            "{region_count} regions for {} sealed slices",
            sealed.len()
        )));
    }
    let mut off = r.pos() + region_count * 16;
    let mut sealed_record_count = 0;
    for (k, &i) in sealed.iter().enumerate() {
        let len = r.index("region blob length")?;
        let word = r.u64()?;
        let blob = off
            .checked_add(len)
            .and_then(|end| buf.as_bytes().get(off..end))
            .ok_or_else(|| {
                corrupt(format!(
                    "region {k} blob {off}+{len} exceeds the {}-byte buffer",
                    buf.len()
                ))
            })?;
        if stored == 0 {
            check_blob(k, blob, word)?;
        }
        let s = &mut root[i];
        let region = SealedRegion::from_blob(s.len(), Arc::clone(buf), off, len).map_err(|e| {
            check_blob(k, blob, word)
                .err()
                .unwrap_or_else(|| corrupt(format!("region {k}: {e}")))
        })?;
        sealed_record_count += region.records();
        s.sealed = Some(Box::new(region.with_sum(word)));
        off += len;
    }
    if off != buf.len() {
        return Err(corrupt(format!(
            "buffer holds {} bytes, sections account for {off}",
            buf.len()
        )));
    }
    // `stored ≤ n` holds; the regions must hold exactly the other records.
    if n - stored != sealed_record_count {
        return Err(corrupt(format!(
            "{stored} stored rows and {sealed_record_count} sealed records for {n} records"
        )));
    }

    // The live lanes, root slice after root slice: an unsealed one's
    // stored lanes, a sealed one's copied from its arena (without seals,
    // no copy at all). A part that stores no rows is fully sealed (or
    // empty): its engine keeps no live lanes, and its blobs were hashed
    // above.
    let data = if sealed.is_empty() {
        rows
    } else if stored == 0 {
        Lanes::new()
    } else {
        // A coordinate buffer of its own once it is large, faulted in fresh
        // by every load whatever the heap holds, so a load costs the same
        // from one run to the next, and in huge pages where the kernel has
        // them.
        let mut data = Lanes::zeroed(n);
        let (mut at, mut k) = (0, 0);
        let stored_lanes = rows.view();
        for s in &mut root {
            let (begin, len) = (s.begin, s.len());
            if let Some(region) = s.sealed.as_deref_mut() {
                // Hash the blob right before its lanes are read.
                let word = region.sum();
                check_blob(k, region.blob(), word)?;
                data.copy_from(begin, &region.lanes(), 0..len);
                k += 1;
            } else {
                data.copy_from(begin, &stored_lanes, at..at + len);
                at += len;
            }
        }
        data
    };
    let mut rt = Runtime::new();
    rt.stats = stats;
    Ok(Quasii {
        n,
        input: Vec::new(),
        data,
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
        assert_eq!(re.records(), idx.records(), "permutation is byte-identical");
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

    fn word(bytes: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
    }

    fn put_word(bytes: &mut [u8], at: usize, v: u64) {
        bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// The slices a part stores, in its pre-order: the tree down to the
    /// sealed slices, none below them.
    fn stored_slices<const D: usize>(idx: &Quasii<D>) -> Vec<&Slice<D>> {
        fn walk<'a, const D: usize>(s: &'a Slice<D>, out: &mut Vec<&'a Slice<D>>) {
            out.push(s);
            s.children.iter().for_each(|c| walk(c, out));
        }
        let mut out = Vec::new();
        idx.root.iter().for_each(|s| walk(s, &mut out));
        out
    }

    /// Offset of the slice tree's root count: after the stored lanes.
    fn tree_at<const D: usize>(snap: &[u8]) -> usize {
        let stored = word(snap, stored_at::<D>()) as usize;
        stored_at::<D>() + 8 + stored * (8 + 16 * D)
    }

    /// Offset of the `j`-th stored slice, in pre-order.
    fn node_at<const D: usize>(snap: &[u8], j: usize) -> usize {
        tree_at::<D>(snap) + 8 + j * slice_bytes::<D>()
    }

    /// The length of a snapshot that stores `stored` rows, from the parts
    /// the layout names.
    fn expected_len<const D: usize>(idx: &Quasii<D>, stored: usize) -> usize {
        let blobs: usize = idx.arenas().map(|r| r.blob().len()).sum();
        stored_at::<D>()
            + 8
            + stored * (8 + 16 * D)
            + 8
            + stored_slices(idx).len() * slice_bytes::<D>()
            + 8
            + idx.arenas().count() * 16
            + blobs
    }

    /// Offset of the region table's first entry: the blobs end the buffer,
    /// and the table ends where they start.
    fn table_at<const D: usize>(idx: &Quasii<D>, snap: &[u8]) -> usize {
        let blobs: usize = idx.arenas().map(|r| r.blob().len()).sum();
        snap.len() - blobs - 16 * idx.arenas().count()
    }

    /// Offset of region `k`'s blob.
    fn blob_at<const D: usize>(idx: &Quasii<D>, snap: &[u8], k: usize) -> usize {
        let before: usize = idx.arenas().take(k).map(|r| r.blob().len()).sum();
        table_at(idx, snap) + 16 * idx.arenas().count() + before
    }

    /// Loads a forged buffer whose header sum was recomputed over the
    /// header as the loader delimits it (the frame's length word to the end
    /// of the region table), so the decoder, not the sum, must name what is
    /// wrong with it.
    fn forged_reason<const D: usize>(mut bytes: Vec<u8>) -> String {
        let sum = checksum64(&bytes[24..header_end::<D>(&bytes)]);
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
        let sealed_slices: Vec<_> = idx.root.iter().filter(|s| s.sealed.is_some()).collect();
        assert!(sealed_slices[0].begin > 0 && sealed_slices.last().unwrap().end < n);
        assert!(sealed > 0 && sealed < n);
        assert_eq!(word(&snap, stored_at::<3>()), (n - sealed) as u64);
        assert_eq!(snap.len(), expected_len(&idx, n - sealed));

        let mut re = Quasii::<3>::from_snapshot(snap.clone()).expect("load");
        assert_eq!(re.records(), idx.records(), "permutation is byte-identical");
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
        // The part stores the root slices and no slice below them; their
        // arenas hold the rest of the slices `slice_count` counts.
        assert_eq!(stored_slices(&idx).len(), idx.root.len());
        assert!(idx.slice_count() > 2 * idx.root.len());
        let mut re = Quasii::<2>::from_snapshot(snap.clone()).expect("load");
        assert_eq!(re.slice_count(), idx.slice_count());
        assert_eq!(re.level_profile(), idx.level_profile());
        assert_eq!(re.records(), idx.records());
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

        // One stored row beside seals that already cover every record: its
        // id and its four coordinates (blob offsets are implied, so nothing
        // else moves).
        let row = 8 + 16 * 2;
        let mut bad = snap[..at].to_vec();
        bad.extend_from_slice(&1u64.to_le_bytes());
        bad.resize(bad.len() + row, 0);
        bad.extend_from_slice(&snap[at + 8..]);
        let len = bad.len();
        put_word(&mut bad, 24, len as u64);
        let why = forged_reason::<2>(bad);
        assert!(why.contains("sealed records for"), "{why}");

        // A record count no buffer could hold, on a snapshot that stores
        // no rows: refused before anything is sized by it.
        let mut bad = snap;
        put_word(&mut bad, FRAME_LEN, 1 << 60);
        forged_reason::<2>(bad);
    }

    /// A finalized 2-d engine and its part: every root slice sealed.
    fn sealed_part() -> (Quasii<2>, Vec<u8>) {
        let data = uniform_boxes_in::<2>(2_000, 100.0, 21);
        let mut idx = Quasii::new(data, QuasiiConfig::with_tau(8));
        idx.finalize();
        let snap = idx.write_snapshot().expect("write");
        assert_eq!(
            word(&snap, stored_at::<2>()),
            0,
            "fully sealed: no stored rows"
        );
        (idx, snap)
    }

    /// An arena is held to the partition rules a stored slice tree is: a
    /// node whose child range no longer covers its records is refused by
    /// region, level and node before anything reads it.
    #[test]
    fn a_child_range_that_breaks_its_parents_partition_is_named_corrupt() {
        // Three levels, so an arena's level-1 nodes have children.
        let data = uniform_boxes_in::<3>(2_000, 100.0, 21);
        let mut idx = Quasii::new(data, QuasiiConfig::with_tau(8));
        idx.finalize();
        let snap = idx.write_snapshot().expect("write");
        let region = idx.arenas().next().expect("a seal");
        // The first arena node's `child_start`, after its box and records.
        let node = region.meta(0).as_ptr() as usize - region.blob().as_ptr() as usize;
        let blob = blob_at(&idx, &snap, 0);
        let at = blob + node + 16 * 3 + 8;
        assert_eq!(u32::from_le_bytes(snap[at..at + 4].try_into().unwrap()), 0);
        let mut bad = snap.clone();
        bad[at..at + 4].copy_from_slice(&1u32.to_le_bytes());
        // The blob's own sum, in its table entry, then the header's.
        let sum = checksum64(&bad[blob..blob + region.blob().len()]);
        put_word(&mut bad, table_at(&idx, &snap) + 8, sum);
        let why = forged_reason::<3>(bad);
        assert!(
            why.contains("region 0: level 0 node 0: records 0..") && why.contains("children 1.."),
            "{why}"
        );
    }

    /// Only a refined level-0 slice can be sealed: the `sealed` flag on an
    /// unrefined root slice, or on a level-1 slice, is refused by name.
    #[test]
    fn a_sealed_flag_off_a_refined_root_slice_is_named_corrupt() {
        let (_, snap) = sealed_part();
        let flags_at = node_at::<2>(&snap, 0) + 3 * 8;
        let flags = word(&snap, flags_at);
        assert_eq!(flags, 0b11, "a refined, sealed root slice");
        let mut bad = snap;
        put_word(&mut bad, flags_at, flags & !1);
        let why = forged_reason::<2>(bad);
        assert!(
            why.contains("at level 0 is sealed, but only a refined level-0 slice can be"),
            "{why}"
        );

        // One query leaves refined root slices with level-1 children.
        let data = uniform_boxes_in::<3>(3_000, 500.0, 42);
        let mut idx = Quasii::new(data, QuasiiConfig::with_tau(16));
        idx.query_collect(&Aabb::new([100.0; 3], [300.0; 3]));
        let snap = idx.write_snapshot().expect("write");
        let j = stored_slices(&idx)
            .iter()
            .position(|s| s.level == 1)
            .expect("a stored level-1 slice");
        let flags_at = node_at::<3>(&snap, j) + 3 * 8;
        let mut bad = snap.clone();
        put_word(&mut bad, flags_at, word(&snap, flags_at) | 2);
        let why = forged_reason::<3>(bad);
        assert!(why.contains("at level 1 is sealed"), "{why}");
    }

    /// A sealed slice's subtree is its arena: a stored sealed slice that
    /// claims children is refused by name.
    #[test]
    fn a_sealed_slice_that_claims_children_is_named_corrupt() {
        let (idx, snap) = sealed_part();
        let s = &idx.root[0];
        let count_at = node_at::<2>(&snap, 0) + slice_bytes::<2>() - 8;
        assert_eq!(word(&snap, count_at), 0);
        let mut bad = snap;
        put_word(&mut bad, count_at, 1);
        let why = forged_reason::<2>(bad);
        let name = format!("sealed slice {}..{} claims 1 children", s.begin, s.end);
        assert!(why.contains(&name), "{why}");
    }

    /// Regions attach to the sealed slices in pre-order, one each: a region
    /// count that differs from the sealed-slice count is refused by name.
    #[test]
    fn a_region_count_that_differs_from_the_sealed_slices_is_named_corrupt() {
        let (idx, snap) = sealed_part();
        let sealed = idx.arenas().count();
        let at = node_at::<2>(&snap, stored_slices(&idx).len());
        assert_eq!(word(&snap, at), sealed as u64);
        for forged in [sealed - 1, sealed + 1] {
            let mut bad = snap.clone();
            put_word(&mut bad, at, forged as u64);
            let why = forged_reason::<2>(bad);
            let name = format!("{forged} regions for {sealed} sealed slices");
            assert!(why.contains(&name), "{why}");
        }
    }

    /// A finalized 3-d engine with at least three seals, and its part.
    fn three_region_part() -> (Quasii<3>, Vec<u8>) {
        let data = uniform_boxes_in::<3>(3_000, 500.0, 42);
        let mut idx = Quasii::new(data, QuasiiConfig::with_tau(16));
        idx.finalize();
        let snap = idx.write_snapshot().expect("write");
        assert!(idx.arenas().count() >= 3, "three regions at least");
        (idx, snap)
    }

    /// The reason a damaged buffer is refused with.
    fn corrupt_reason<const D: usize>(bytes: Vec<u8>) -> String {
        match Quasii::<D>::from_snapshot(bytes) {
            Err(SnapshotError::Corrupt(why)) => why,
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
    }

    /// Each blob is covered by its table entry, not by the header word: a
    /// byte flipped inside region k's blob is a checksum mismatch that
    /// names region k, and no other region's.
    #[test]
    fn a_damaged_blob_is_a_checksum_mismatch_that_names_its_region() {
        let (idx, snap) = three_region_part();
        let regions = idx.arenas().count();
        for k in [0, 1, regions / 2, regions - 1] {
            let len = idx.arenas().nth(k).unwrap().blob().len();
            for at in [0, len / 2, len - 1] {
                let mut bad = snap.clone();
                bad[blob_at(&idx, &snap, k) + at] ^= 0x10;
                let why = corrupt_reason::<3>(bad);
                assert!(
                    why.contains("checksum mismatch") && why.contains(&format!("in region {k}:")),
                    "region {k}, byte {at}: {why}"
                );
            }
        }
        // The same on a partially sealed part, whose blobs are hashed right
        // before their lanes are copied.
        let data = uniform_boxes_in::<3>(3_000, 500.0, 42);
        let mut idx = Quasii::new(data, QuasiiConfig::with_tau(16));
        idx.query_collect(&Aabb::new([200.0, -1.0, -1.0], [260.0, 501.0, 501.0]));
        let snap = idx.write_snapshot().expect("write");
        assert!(idx.sealed_records() < idx.len());
        let last = idx.arenas().count() - 1;
        let mut bad = snap.clone();
        bad[blob_at(&idx, &snap, last) + 40] ^= 0x01;
        let why = corrupt_reason::<3>(bad);
        assert!(
            why.contains(&format!("checksum mismatch in region {last}:")),
            "{why}"
        );
    }

    /// The region table is header: a flipped sum word or length word is
    /// refused by the header sum, before any blob is judged by it.
    #[test]
    fn a_damaged_table_entry_is_caught_by_the_header_sum() {
        let (idx, snap) = three_region_part();
        let table = table_at(&idx, &snap);
        for (what, at) in [("length", table + 16), ("sum", table + 16 + 8)] {
            for bit in [0, 7, 63] {
                let mut bad = snap.clone();
                let v = word(&bad, at) ^ (1 << bit);
                put_word(&mut bad, at, v);
                let why = corrupt_reason::<3>(bad);
                assert!(
                    why.starts_with("snapshot checksum mismatch: header"),
                    "{what} word, bit {bit}: {why}"
                );
            }
        }
    }

    /// A region's sum is taken once: a built region's on the first write
    /// that stores it, a loaded region's from its verified table entry.
    #[test]
    fn a_regions_sum_is_taken_once_and_is_its_table_word() {
        let data = uniform_boxes_in::<3>(3_000, 500.0, 42);
        let mut idx = Quasii::new(data, QuasiiConfig::with_tau(16));
        idx.finalize();
        assert!(
            idx.arenas().all(|r| r.cached_sum().is_none()),
            "no sum is taken at seal time"
        );
        let snap = idx.write_snapshot().expect("write");
        let table = table_at(&idx, &snap);
        for (k, r) in idx.arenas().enumerate() {
            assert_eq!(r.cached_sum(), Some(checksum64(r.blob())), "region {k}");
            assert_eq!(word(&snap, table + 16 * k + 8), checksum64(r.blob()));
        }
        let re = Quasii::<3>::from_snapshot(snap.clone()).expect("load");
        for (k, r) in re.arenas().enumerate() {
            assert_eq!(
                r.cached_sum(),
                Some(word(&snap, table + 16 * k + 8)),
                "region {k}"
            );
        }
        assert_eq!(idx.write_snapshot().expect("second write"), snap);
    }

    #[test]
    fn poisoned_engines_refuse_snapshots() {
        let data = uniform_boxes_in::<2>(300, 50.0, 63);
        let mut idx = Quasii::new(data, QuasiiConfig::with_tau(8));
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
