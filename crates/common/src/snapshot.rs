//! The shared surface of index persistence ("snapshots"): the buffer-level
//! error type, the one checksum ([`checksum64`]), the bounded little-endian
//! [`Reader`] / [`Writer`], and the 32-byte [`Frame`] that opens both the
//! engine snapshot (see `quasii::snapshot` for its sections) and the shard
//! manifest (`quasii_shard`).
//!
//! Lives in `quasii-common` so the [`crate::index::SpatialIndex`] trait can
//! expose default save/load hooks without depending on any engine crate.
//!
//! # The frame
//!
//! ```text
//! offset  size  field
//!      0     8  magic (names the format)
//!      8     4  format version (u32)
//!     12     4  dimensionality D (u32)
//!     16     8  checksum64 of bytes[24..total]  (the "header word")
//!     24     8  total length in bytes
//! ```
//!
//! Bytes `0..16` are checked by value, the header word is compared with
//! what one pass over `24..total` computes, so no byte goes unchecked and
//! the content is read once on each side. The pass can be taken in steps
//! beside the code that writes or decodes the content (a [`Writer`] that
//! was told its final length, a [`Verifier`]), so a large buffer need not
//! cross the memory bus a second time for its sum.

use std::fmt;

/// Why a snapshot could not be written or loaded.
///
/// Loading is **total**: every malformed input — wrong magic, truncated
/// buffer, checksum mismatch, unknown version, dimensionality mismatch —
/// maps to an `Err`, never a panic (property-tested in `tests/persist.rs`).
#[derive(Debug)]
pub enum SnapshotError {
    /// The index (or this build target) does not support snapshots — the
    /// default for [`crate::index::SpatialIndex`] implementations without a
    /// persistent form, and for non-little-endian hosts (the format is
    /// defined little-endian and loaded zero-copy).
    Unsupported(&'static str),
    /// The buffer is not a well-formed snapshot: bad magic, truncation,
    /// checksum mismatch, or internally inconsistent section metadata. The
    /// string pinpoints the first violation.
    Corrupt(String),
    /// The buffer is a snapshot, but of an unknown format version.
    WrongVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The buffer is a snapshot, but of a different dimensionality than the
    /// requested index type.
    WrongDims {
        /// Dimensionality found in the header.
        found: u32,
        /// Dimensionality of the requested index type.
        expected: u32,
    },
    /// An underlying file operation failed (CLI file transport).
    Io(std::io::Error),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Unsupported(what) => write!(f, "snapshots are not supported: {what}"),
            Self::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
            Self::WrongVersion { found, expected } => {
                write!(f, "snapshot format version {found}, expected {expected}")
            }
            Self::WrongDims { found, expected } => {
                write!(f, "snapshot is {found}-d, expected {expected}-d")
            }
            Self::Io(e) => write!(f, "snapshot I/O: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// [`SnapshotError::Corrupt`] from anything that reads as a message.
pub fn corrupt(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(msg.into())
}

// ---------------------------------------------------------------------
// The checksum
// ---------------------------------------------------------------------

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const LANE_SEEDS: [u64; 4] = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
const FOLD_ROTATIONS: [u32; 4] = [1, 7, 12, 18];

/// One lane step (the xxHash64 round). `P1` and `P2` are odd, so the step
/// is a bijection of `v` for a fixed `w` and of `w` for a fixed `v`.
#[inline(always)]
fn lane_step(v: u64, w: u64) -> u64 {
    v.wrapping_add(w.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// The one checksum of every persistent form (engine snapshot, shard
/// manifest, `quasii verify`): an integrity check against torn writes and
/// bit rot, not an authenticity one.
///
/// Four independent 64-bit lanes walk the input in 32-byte stripes, lane
/// `i` taking little-endian word `i` of each stripe through the xxHash64
/// round `v = rotl(v + w·P2, 31)·P1` (`P1`, `P2` odd);
/// the lanes fold into one word by XOR of distinct rotations; each of the
/// fewer than 32 bytes left is mixed in as `h = (h ^ byte) · P1`; the
/// length is XORed last. The lanes carry no dependency on each other, so a
/// scalar core retires a stripe in about the time of its eight multiplies
/// (64 MiB in 6 ms out of cache) and a pass over a buffer in memory runs at
/// memory speed.
///
/// **Guarantee:** a change confined to one stripe word (8 bytes, aligned to
/// the start of `bytes`) or to one tail byte changes the sum with
/// certainty, which covers every single-bit flip. The changed word moves
/// its lane at that step (bijection of the word), every later step keeps
/// the lane moved (bijection of the state), the fold of four words of
/// which exactly one moved has moved, and each tail step and the length
/// XOR are bijections of `h`. Wider damage is caught the way any 64-bit
/// mix catches it: almost always, not with certainty.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut sum = Checksum::new();
    let whole = bytes.len() / STRIPE * STRIPE;
    sum.stripes(&bytes[..whole]);
    sum.finish(&bytes[whole..])
}

/// Bytes per stripe: one word for each of the four lanes.
const STRIPE: usize = 32;

/// [`checksum64`] taken in steps: the lanes after some whole stripes. The
/// [`Writer`] and the [`Verifier`] feed it a block at a time, next to the
/// code that writes or decodes the block, so the content crosses the memory
/// bus once instead of once more for the sum.
#[derive(Clone, Debug)]
struct Checksum {
    lanes: [u64; 4],
    /// Bytes taken so far (a multiple of [`STRIPE`]).
    len: usize,
}

impl Checksum {
    fn new() -> Self {
        Self {
            lanes: LANE_SEEDS,
            len: 0,
        }
    }

    /// Takes whole stripes (`bytes.len()` is a multiple of [`STRIPE`]).
    fn stripes(&mut self, bytes: &[u8]) {
        debug_assert_eq!(bytes.len() % STRIPE, 0);
        let mut lanes = self.lanes;
        for stripe in bytes.chunks_exact(STRIPE) {
            for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = lane_step(*lane, u64::from_le_bytes(word.try_into().expect("8 bytes")));
            }
        }
        self.lanes = lanes;
        self.len += bytes.len();
    }

    /// Folds the lanes, mixes in the fewer than [`STRIPE`] bytes left and
    /// the total length.
    fn finish(self, tail: &[u8]) -> u64 {
        debug_assert!(tail.len() < STRIPE);
        let mut h = 0;
        for (lane, rot) in self.lanes.iter().zip(FOLD_ROTATIONS) {
            h ^= lane.rotate_left(rot);
        }
        for &b in tail {
            h = (h ^ u64::from(b)).wrapping_mul(P1);
        }
        h ^ (self.len + tail.len()) as u64
    }
}

// ---------------------------------------------------------------------
// Little-endian writer / bounds-checked reader
// ---------------------------------------------------------------------

/// Byte length of the [`Frame`].
pub const FRAME_LEN: usize = 32;
/// Where the header word's coverage starts (the length word is covered).
const CHECKSUM_FROM: usize = 24;

/// How much a [`Writer`] or a loader lets pile up before the sum takes it:
/// small enough to still sit in cache, large enough to amortise the call.
pub const HASH_BLOCK: usize = 64 * 1024;

/// Append-only little-endian buffer writer.
pub struct Writer {
    buf: Vec<u8>,
    /// The final length when it was known up front, else 0.
    total: usize,
    /// The sum over `buf[CHECKSUM_FROM..hashed]`.
    sum: Checksum,
    hashed: usize,
}

impl Writer {
    /// Starts a framed buffer: magic, version and dimensionality, then the
    /// header word and the length. A writer that knows its layout passes
    /// the exact final length as `total`: the buffer never reallocates and
    /// the sum follows the writes block by block, while each block is
    /// still in cache. `total == 0` leaves the length to
    /// [`finish`](Self::finish), which then hashes the content in one go
    /// (the length word is the first the sum covers).
    pub fn framed(magic: &[u8; 8], version: u32, dims: u32, total: usize) -> Self {
        let mut buf = Vec::with_capacity(total.max(FRAME_LEN));
        buf.extend_from_slice(magic);
        buf.extend_from_slice(&version.to_le_bytes());
        buf.extend_from_slice(&dims.to_le_bytes());
        buf.extend_from_slice(&[0; 8]);
        buf.extend_from_slice(&(total as u64).to_le_bytes());
        Self {
            buf,
            total,
            sum: Checksum::new(),
            hashed: CHECKSUM_FROM,
        }
    }

    /// Offset of the next write: the bytes written so far.
    pub fn pos(&self) -> usize {
        self.buf.len()
    }

    /// Bytes the buffer holds without reallocating.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Appends one `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends one `f64`.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
        self.hash_written();
    }

    /// Appends a column of `f64`s.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.buf.reserve(vs.len() * 8);
        for block in vs.chunks(HASH_BLOCK / 8) {
            for &v in block {
                self.f64(v);
            }
            self.hash_written();
        }
    }

    /// Lets the sum catch up once a block has piled up (only when the
    /// length word is final, see [`framed`](Self::framed)).
    #[inline]
    fn hash_written(&mut self) {
        if self.total != 0 && self.buf.len() - self.hashed >= HASH_BLOCK {
            self.hash_stripes();
        }
    }

    fn hash_stripes(&mut self) {
        let end = self.hashed + (self.buf.len() - self.hashed) / STRIPE * STRIPE;
        self.sum.stripes(&self.buf[self.hashed..end]);
        self.hashed = end;
    }

    /// Closes a [`framed`](Self::framed) buffer: writes the length if it
    /// was not known, hashes what the sum has not seen yet and writes the
    /// header word. Every byte from the length on goes through the sum
    /// exactly once: this is the one pass of the write side.
    ///
    /// # Panics
    ///
    /// When a length was announced and the content has another.
    pub fn finish(mut self) -> Vec<u8> {
        if self.total == 0 {
            let total = self.buf.len() as u64;
            self.buf[24..32].copy_from_slice(&total.to_le_bytes());
        } else {
            assert_eq!(self.buf.len(), self.total, "the announced length");
        }
        self.hash_stripes();
        let word = self.sum.finish(&self.buf[self.hashed..]);
        self.buf[16..24].copy_from_slice(&word.to_le_bytes());
        self.buf
    }
}

/// Sequential little-endian reader; every read is bounds-checked and a
/// short or hostile buffer yields `Err`, never a panic.
pub struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reads `b` from offset `pos` on.
    pub fn new(b: &'a [u8], pos: usize) -> Self {
        Self { b, pos }
    }

    /// Offset of the next read.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let rest = self.b.len().saturating_sub(self.pos);
        if n > rest {
            return Err(corrupt(format!(
                "buffer truncated: need {n} bytes at offset {}, only {rest} remain",
                self.pos
            )));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// The next `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// The next `f64`.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u64` that must fit `usize` (trivial on 64-bit; explicit anyway).
    pub fn index(&mut self, what: &str) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| corrupt(format!("{what} exceeds usize")))
    }

    /// A `u64` that must be 0 or 1.
    pub fn flag(&mut self, what: &str) -> Result<bool, SnapshotError> {
        match self.u64()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(corrupt(format!("{what} is {other}, expected 0 or 1"))),
        }
    }

    /// The next `count * stride` bytes, after one bounds check for the
    /// whole section. Success proves a count read from the input honest,
    /// so whatever the caller sizes by it is bounded by the buffer length:
    /// the guard against forged huge counts.
    pub fn section(
        &mut self,
        count: usize,
        stride: usize,
        what: &str,
    ) -> Result<&'a [u8], SnapshotError> {
        let rest = self.b.len().saturating_sub(self.pos);
        match count.checked_mul(stride) {
            Some(need) if need <= rest => self.take(need),
            _ => Err(corrupt(format!(
                "{count} {what} of {stride} bytes each, only {rest} bytes remain"
            ))),
        }
    }

    /// A [`section`](Self::section) cut into runs of whole entries of
    /// about [`HASH_BLOCK`] bytes, each with the offset it ends at: what a
    /// loader walks to hand every run to a [`Verifier`] right before it
    /// decodes it.
    pub fn blocks(
        &mut self,
        count: usize,
        stride: usize,
        what: &str,
    ) -> Result<impl Iterator<Item = (usize, std::slice::ChunksExact<'a, u8>)>, SnapshotError> {
        let mut end = self.pos;
        let section = self.section(count, stride, what)?;
        let stride = stride.max(1);
        let run = (HASH_BLOCK / stride).max(1) * stride;
        Ok(section.chunks(run).map(move |block| {
            end += block.len();
            (end, block.chunks_exact(stride))
        }))
    }

    /// A column of `count` `f64`s.
    pub fn f64s(&mut self, count: usize, what: &str) -> Result<Vec<f64>, SnapshotError> {
        Ok(self
            .section(count, 8, what)?
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }
}

// ---------------------------------------------------------------------
// The frame
// ---------------------------------------------------------------------

/// The header word of a framed buffer (bytes `16..24`), `None` when the
/// buffer is too short to have one. A shard manifest stores this word per
/// part instead of hashing the part a second time.
pub fn header_word(bytes: &[u8]) -> Option<u64> {
    let word = bytes.get(16..24)?;
    Some(u64::from_le_bytes(word.try_into().expect("8 bytes")))
}

/// The value-checked prefix of a framed buffer (module docs have the
/// layout).
#[derive(Clone, Copy, Debug)]
pub struct Frame {
    /// Dimensionality from the header.
    pub dims: u32,
    /// The header word: [`checksum64`] of bytes `24..total`.
    pub checksum: u64,
    /// Total framed length; `FRAME_LEN <= total <= bytes.len()`.
    pub total: usize,
}

impl Frame {
    /// Checks the magic and the version by value and the declared length
    /// against the buffer; `what` names the format in the messages. Reads
    /// no byte past the frame.
    pub fn read(
        bytes: &[u8],
        magic: &[u8; 8],
        version: u32,
        what: &str,
    ) -> Result<Self, SnapshotError> {
        if bytes.len() < FRAME_LEN {
            return Err(corrupt(format!(
                "{} bytes is shorter than the {FRAME_LEN}-byte {what} prefix",
                bytes.len()
            )));
        }
        if bytes[..8] != magic[..] {
            return Err(corrupt(format!("bad magic (not a QUASII {what})")));
        }
        let mut r = Reader::new(bytes, 8);
        let found = r.u32()?;
        if found != version {
            return Err(SnapshotError::WrongVersion {
                found,
                expected: version,
            });
        }
        let dims = r.u32()?;
        let checksum = r.u64()?;
        let total = r.index(what)?;
        if !(FRAME_LEN..=bytes.len()).contains(&total) {
            return Err(corrupt(format!(
                "{what} claims {total} bytes, buffer holds {}",
                bytes.len()
            )));
        }
        Ok(Self {
            dims,
            checksum,
            total,
        })
    }

    /// The one pass the read side makes over the content, to be taken in
    /// steps: over bytes `24..total` of the buffer this frame was read from.
    pub fn verifier<'a>(&self, bytes: &'a [u8]) -> Verifier<'a> {
        Verifier {
            bytes: &bytes[..self.total],
            sum: Checksum::new(),
            hashed: CHECKSUM_FROM,
            expected: self.checksum,
        }
    }

    /// The pass in one go: hashes bytes `24..total` and compares with the
    /// header word.
    pub fn verify(&self, bytes: &[u8], what: &str) -> Result<(), SnapshotError> {
        self.verifier(bytes).finish(what)
    }
}

/// [`Frame::verify`] in steps. A loader calls [`advance`](Self::advance)
/// with the end of the block it decodes next, so the block is hashed and
/// decoded while it sits in cache, and [`finish`](Self::finish) before it
/// believes anything it decoded.
pub struct Verifier<'a> {
    bytes: &'a [u8],
    sum: Checksum,
    hashed: usize,
    expected: u64,
}

impl Verifier<'_> {
    /// Hashes the whole stripes before offset `upto` that the sum has not
    /// seen yet.
    pub fn advance(&mut self, upto: usize) {
        let upto = upto.min(self.bytes.len());
        if upto > self.hashed {
            let end = self.hashed + (upto - self.hashed) / STRIPE * STRIPE;
            self.sum.stripes(&self.bytes[self.hashed..end]);
            self.hashed = end;
        }
    }

    /// Hashes the rest and compares with the header word.
    pub fn finish(mut self, what: &str) -> Result<(), SnapshotError> {
        self.advance(self.bytes.len());
        let actual = self.sum.finish(&self.bytes[self.hashed..]);
        if actual != self.expected {
            return Err(corrupt(format!(
                "{what} checksum mismatch: header {:#018x}, computed {actual:#018x}",
                self.expected
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic test bytes: no two neighbours equal, no zero run.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + 7) as u8 | 1).collect()
    }

    /// The definition read literally, one lane at a time with index
    /// arithmetic: what the striped loop must agree with.
    fn oracle(bytes: &[u8]) -> u64 {
        let stripes = bytes.len() / 32;
        let mut h = 0;
        for lane in 0..4 {
            let mut v = LANE_SEEDS[lane];
            for s in 0..stripes {
                let at = 32 * s + 8 * lane;
                let mut w = 0u64;
                for (i, &b) in bytes[at..at + 8].iter().enumerate() {
                    w |= u64::from(b) << (8 * i);
                }
                v = (v.wrapping_add(w.wrapping_mul(P2)))
                    .rotate_left(31)
                    .wrapping_mul(P1);
            }
            h ^= v.rotate_left(FOLD_ROTATIONS[lane]);
        }
        for &b in &bytes[32 * stripes..] {
            h = (h ^ u64::from(b)).wrapping_mul(P1);
        }
        h ^ bytes.len() as u64
    }

    #[test]
    fn checksum64_matches_pinned_vectors() {
        // Pinned when format version 2 was cut (cross-checked against an
        // independent implementation): a change to any of them is a format
        // change and needs a version bump.
        for (len, expected) in [
            (0usize, 0x81ba_b91e_6411_4b6fu64),
            (1, 0x385d_bcf1_ab16_d3d9),
            (31, 0x6055_0a63_9555_aca3),
            (32, 0x4d12_38c0_bc3e_d819),
            (33, 0x9c07_7d44_5028_45b3),
            (1_000, 0x3f54_e80a_7099_0e31),
        ] {
            let got = checksum64(&pattern(len));
            assert_eq!(got, expected, "{len} bytes: {got:#018x}");
        }
    }

    #[test]
    fn checksum64_agrees_with_the_one_lane_oracle() {
        // Every length across three stripe boundaries, then long buffers
        // that end on, just before and just after a boundary.
        for len in (0..=100).chain([1_023, 1_024, 1_025, 4_096 + 31]) {
            let bytes = pattern(len);
            assert_eq!(checksum64(&bytes), oracle(&bytes), "{len} bytes");
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_sum() {
        for len in 0..=100 {
            let mut bytes = pattern(len);
            let sum = checksum64(&bytes);
            for at in 0..len {
                for bit in 0..8 {
                    bytes[at] ^= 1 << bit;
                    assert_ne!(checksum64(&bytes), sum, "{len} bytes, byte {at} bit {bit}");
                    bytes[at] ^= 1 << bit;
                }
            }
        }
    }

    #[test]
    fn a_change_inside_one_stripe_word_changes_the_sum() {
        // The guarantee is for any change of the word, not only one bit.
        let mut bytes = pattern(96);
        let sum = checksum64(&bytes);
        for word in 0..12 {
            let at = 8 * word;
            let saved: [u8; 8] = bytes[at..at + 8].try_into().unwrap();
            for v in [
                0u64,
                1,
                u64::MAX,
                0x8000_0000_0000_0000,
                0x0123_4567_89ab_cdef,
            ] {
                if v.to_le_bytes() == saved {
                    continue;
                }
                bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
                assert_ne!(checksum64(&bytes), sum, "word {word} = {v:#x}");
            }
            bytes[at..at + 8].copy_from_slice(&saved);
        }
    }

    #[test]
    fn zero_bytes_appended_or_trimmed_change_the_sum() {
        for len in [0usize, 1, 24, 31, 32, 33, 64, 100] {
            let mut bytes = pattern(len);
            let sum = checksum64(&bytes);
            for extra in 1..=40 {
                bytes.push(0);
                assert_ne!(checksum64(&bytes), sum, "{len} bytes + {extra} zeros");
            }
            // A buffer that ends in zeros, cut short inside them.
            let padded = checksum64(&bytes);
            for cut in 1..=40 {
                assert_ne!(
                    checksum64(&bytes[..bytes.len() - cut]),
                    padded,
                    "{len} bytes + 40 zeros - {cut}"
                );
            }
        }
    }

    #[test]
    fn writer_and_reader_round_trip_a_frame() {
        let mut w = Writer::framed(b"QSIITEST", 7, 3, 0);
        w.u64(42);
        w.f64(-1.5);
        w.f64s(&[0.25, 8.0]);
        w.bytes(&[9; 8]);
        let bytes = w.finish();
        assert_eq!(bytes.len(), FRAME_LEN + 5 * 8);

        let frame = Frame::read(&bytes, b"QSIITEST", 7, "test buffer").expect("frame");
        assert_eq!((frame.dims, frame.total), (3, bytes.len()));
        assert_eq!(header_word(&bytes), Some(frame.checksum));
        frame.verify(&bytes, "test buffer").expect("checksum");
        let mut r = Reader::new(&bytes, FRAME_LEN);
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.f64().unwrap(), -1.5);
        assert_eq!(r.f64s(2, "values").unwrap(), vec![0.25, 8.0]);
        assert_eq!(r.section(2, 4, "halves").unwrap().len(), 8);
        assert_eq!(r.pos(), bytes.len());
        assert!(r.u64().is_err(), "reads past the end are errors");

        // The frame's value checks, in the order a reader meets them.
        assert!(matches!(
            Frame::read(&bytes[..31], b"QSIITEST", 7, "test buffer"),
            Err(SnapshotError::Corrupt(_))
        ));
        assert!(matches!(
            Frame::read(&bytes, b"QSIIELSE", 7, "test buffer"),
            Err(SnapshotError::Corrupt(_))
        ));
        assert!(matches!(
            Frame::read(&bytes, b"QSIITEST", 8, "test buffer"),
            Err(SnapshotError::WrongVersion {
                found: 7,
                expected: 8
            })
        ));
        // A longer buffer is fine (the caller decides what may follow a
        // frame), a shorter one is not; a flipped content bit fails `verify` only.
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(
            Frame::read(&longer, b"QSIITEST", 7, "test buffer")
                .unwrap()
                .total,
            bytes.len()
        );
        assert!(Frame::read(&bytes[..bytes.len() - 1], b"QSIITEST", 7, "test buffer").is_err());
        let mut flipped = bytes.clone();
        flipped[40] ^= 1;
        let frame = Frame::read(&flipped, b"QSIITEST", 7, "test buffer").expect("frame");
        assert!(frame.verify(&flipped, "test buffer").is_err());
        assert_eq!(header_word(&bytes[..23]), None);
    }

    #[test]
    fn a_sum_taken_in_steps_is_the_sum_taken_at_once() {
        // Three blocks and a bit, so the writer's sum runs while it writes.
        let content = pattern(3 * HASH_BLOCK + 1_000 + 13);
        let mut at_once = Writer::framed(b"QSIITEST", 7, 3, 0);
        let mut in_steps = Writer::framed(b"QSIITEST", 7, 3, FRAME_LEN + content.len() + 8 * 9_000);
        for w in [&mut at_once, &mut in_steps] {
            for piece in content.chunks(4_099) {
                w.bytes(piece);
            }
            w.f64s(&vec![1.5; 9_000]);
        }
        assert!(in_steps.hashed > HASH_BLOCK && at_once.hashed == CHECKSUM_FROM);
        let bytes = in_steps.finish();
        assert_eq!(bytes, at_once.finish());

        let frame = Frame::read(&bytes, b"QSIITEST", 7, "test buffer").expect("frame");
        assert_eq!(frame.checksum, checksum64(&bytes[CHECKSUM_FROM..]));
        // Any stepping of the verifier, past-the-end steps included.
        for step in [1usize, 31, 32, 33, 4_096, HASH_BLOCK, usize::MAX / 2] {
            let mut v = frame.verifier(&bytes);
            let mut upto = 0usize;
            while upto < bytes.len() {
                upto = upto.saturating_add(step);
                v.advance(upto);
                v.advance(upto / 2); // going back is a no-op
            }
            v.finish("test buffer").expect("checksum");
        }
        let mut flipped = bytes.clone();
        *flipped.last_mut().unwrap() ^= 1;
        let mut v = frame.verifier(&flipped);
        v.advance(HASH_BLOCK);
        assert!(v.finish("test buffer").is_err());
    }

    #[test]
    #[should_panic(expected = "announced length")]
    fn a_writer_that_misses_its_announced_length_panics() {
        let mut w = Writer::framed(b"QSIITEST", 7, 3, FRAME_LEN + 16);
        w.u64(1);
        w.finish();
    }

    #[test]
    fn blocks_cover_a_section_in_whole_entries() {
        let bytes = pattern(8 + 56 * 5_000 + 3);
        let mut r = Reader::new(&bytes, 8);
        let mut expected_end = 8;
        let mut entries = 0;
        for (end, block) in r.blocks(5_000, 56, "records").unwrap() {
            let n = block.len();
            assert!(n > 0 && n * 56 <= HASH_BLOCK);
            expected_end += n * 56;
            assert_eq!(end, expected_end);
            entries += n;
        }
        assert_eq!((entries, r.pos()), (5_000, 8 + 56 * 5_000));
        assert!(r.blocks(1, 56, "records").is_err(), "3 bytes remain");
        assert_eq!(r.blocks(0, 56, "records").unwrap().count(), 0);
    }

    #[test]
    fn forged_counts_fail_before_anything_is_sized_by_them() {
        let bytes = [0u8; 64];
        let mut r = Reader::new(&bytes, 0);
        for count in [9usize, 1 << 40, usize::MAX] {
            match r.section(count, 8, "entries") {
                Err(SnapshotError::Corrupt(why)) => assert!(why.contains("remain"), "{why}"),
                other => panic!("expected Corrupt, got {other:?}"),
            }
            assert!(r.f64s(count, "values").is_err());
        }
        assert_eq!(r.pos(), 0, "a refused section consumes nothing");
        assert_eq!(r.section(8, 8, "entries").unwrap().len(), 64);
        assert!(r.flag("flag").is_err(), "nothing left");
        let mut r = Reader::new(&[2, 0, 0, 0, 0, 0, 0, 0], 0);
        assert!(r.flag("flag").is_err(), "2 is not a flag");
    }

    #[test]
    fn display_pinpoints_the_failure() {
        assert!(SnapshotError::Unsupported("R-Tree")
            .to_string()
            .contains("R-Tree"));
        assert!(SnapshotError::Corrupt("bad magic".into())
            .to_string()
            .contains("bad magic"));
        let v = SnapshotError::WrongVersion {
            found: 9,
            expected: 1,
        };
        assert!(v.to_string().contains('9') && v.to_string().contains('1'));
        let d = SnapshotError::WrongDims {
            found: 2,
            expected: 3,
        };
        assert!(d.to_string().contains("2-d") && d.to_string().contains("3-d"));
        let io = SnapshotError::from(std::io::Error::other("disk on fire"));
        assert!(io.to_string().contains("disk on fire"));
        use std::error::Error;
        assert!(io.source().is_some());
        assert!(d.source().is_none());
    }
}
