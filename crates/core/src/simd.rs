//! Runtime-dispatched SIMD kernels for the streaming test path, and the
//! one bottom-level scan that uses them.
//!
//! Records are lanes everywhere they are scanned — in a sealed arena
//! (`crate::seal`) and in the live engine (`engine::Lanes`): an id lane,
//! and per dimension a `lo` lane and a negated-`hi` lane. A bottom-level
//! scan ([`LaneView::scan`]) tests only the lanes a slice's bounding box
//! leaves undecided, each as a uniform `v <= bound` compare, and this
//! module vectorizes that compare with `core::arch::x86_64` intrinsics
//! behind a one-time runtime-detected dispatch ([`scan_emit`]): 4-wide
//! (AVX2) or 2-wide (SSE2) compares, masks ANDed across the active lanes,
//! and ids emitted by a movemask-indexed left-packing permutation. The id
//! lane is the arena's narrowed `u32` or the live `u64` ([`LaneId`]), in
//! the one kernel family. The crack (partition) kernels are not here: a
//! crack costs its partition scan and is bandwidth-bound, so they stay the
//! scalar kernels in [`crate::crack`].
//!
//! # Dispatch
//!
//! [`SimdPolicy`] is the config-level knob (`Auto` by default);
//! [`SimdPolicy::resolve`] turns it into the one concrete [`SimdLevel`]
//! an engine runs, once, at construction. `Auto` honors a `QUASII_SIMD`
//! environment override (`auto|scalar|sse2|avx2`, read once per process;
//! any other value is reported on stderr and ignored) and otherwise
//! probes the host with `is_x86_feature_detected!`. Forced levels are
//! clamped to what the host actually supports, and every dispatch
//! function re-clamps before entering an intrinsic kernel, so a
//! hand-constructed [`SimdLevel`] can never execute an unsupported
//! instruction. Non-x86_64 targets compile only the scalar fallbacks and
//! always detect [`SimdLevel::Scalar`].
//!
//! # Equivalence contract
//!
//! Every kernel here is a drop-in for a scalar twin that remains in the
//! codebase as the bit-for-bit oracle: the kernels only compare and emit
//! ids, so results, work counters and snapshot bytes are identical at
//! every level.

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;
use std::sync::OnceLock;

use quasii_common::geom::{Aabb, Record};
use std::ops::Range;

/// Config-level kernel-generation knob: how an engine picks the ISA its
/// column kernels run on. `Auto` (the default) defers to the
/// `QUASII_SIMD` environment override, then to runtime CPU detection;
/// the other variants force a level (clamped to host capabilities).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SimdPolicy {
    /// Environment override, else best detected level.
    #[default]
    Auto,
    /// Force the scalar oracle kernels.
    Scalar,
    /// Force the 2-wide SSE2 floor kernels.
    Sse2,
    /// Force the 4-wide AVX2 kernels.
    Avx2,
}

impl SimdPolicy {
    /// Parses a policy from its CLI spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(SimdPolicy::Auto),
            "scalar" => Some(SimdPolicy::Scalar),
            "sse2" => Some(SimdPolicy::Sse2),
            "avx2" => Some(SimdPolicy::Avx2),
            _ => None,
        }
    }

    /// The CLI spelling of this policy.
    pub fn name(self) -> &'static str {
        match self {
            SimdPolicy::Auto => "auto",
            SimdPolicy::Scalar => "scalar",
            SimdPolicy::Sse2 => "sse2",
            SimdPolicy::Avx2 => "avx2",
        }
    }

    /// Resolves the policy to the concrete [`SimdLevel`] the engine will
    /// run. `Auto` consults the `QUASII_SIMD` environment variable (read
    /// once per process and cached) before falling back to host
    /// detection; forced levels are clamped to host capabilities.
    pub fn resolve(self) -> SimdLevel {
        let policy = match self {
            SimdPolicy::Auto => env_override().unwrap_or(SimdPolicy::Auto),
            forced => forced,
        };
        match policy {
            SimdPolicy::Auto => SimdLevel::detect(),
            SimdPolicy::Scalar => SimdLevel::Scalar,
            SimdPolicy::Sse2 => SimdLevel::Sse2.clamp_to_host(),
            SimdPolicy::Avx2 => SimdLevel::Avx2.clamp_to_host(),
        }
    }
}

/// Reads `QUASII_SIMD` once per process. Only [`SimdPolicy::Auto`]
/// consults this, so an explicit config-level force always wins. A value
/// that is not one of the four spellings is reported once on stderr and
/// ignored: a misspelled force must not pass for a forced run.
fn env_override() -> Option<SimdPolicy> {
    static CACHE: OnceLock<Option<SimdPolicy>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        let raw = std::env::var("QUASII_SIMD").ok()?;
        parse_override(&raw).map_err(|msg| eprintln!("{msg}")).ok()
    })
}

/// The `QUASII_SIMD` string → outcome step of [`env_override`]:
/// surrounding whitespace is trimmed, the four CLI spellings are
/// accepted, anything else is the message to report.
fn parse_override(raw: &str) -> Result<SimdPolicy, String> {
    SimdPolicy::parse(raw.trim())
        .ok_or_else(|| format!("QUASII_SIMD='{raw}' ignored: expected auto|scalar|sse2|avx2"))
}

/// The concrete kernel generation an engine dispatches to, resolved
/// once at construction from a [`SimdPolicy`]. Ordered by width so
/// forced levels clamp to host capabilities with `min`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar kernels — the bit-for-bit oracle, and the only
    /// level compiled on non-x86_64 targets.
    Scalar,
    /// 2-wide `f64` kernels on the x86_64 SSE2 baseline.
    Sse2,
    /// 4-wide `f64` kernels requiring runtime-detected AVX2.
    Avx2,
}

impl SimdLevel {
    /// The best level the host supports, probed once per process.
    pub fn detect() -> Self {
        static HOST: OnceLock<SimdLevel> = OnceLock::new();
        *HOST.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx2") {
                    SimdLevel::Avx2
                } else {
                    // SSE2 is part of the x86_64 baseline.
                    SimdLevel::Sse2
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                SimdLevel::Scalar
            }
        })
    }

    /// The human/metrics label for this level.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// `SimdLevel` is freely constructible, so every dispatcher clamps
    /// to host capabilities before touching an intrinsic kernel.
    #[inline]
    fn clamp_to_host(self) -> Self {
        self.min(Self::detect())
    }
}

// ---------------------------------------------------------------------------
// Bottom-level lane tests.
// ---------------------------------------------------------------------------

/// An element of an id lane: the sealed arena's narrowed `u32` or the live
/// engine's `u64`. Scans emit every id widened to `u64`.
pub trait LaneId: Copy {
    /// The id as the engine reports it.
    fn widen(self) -> u64;
}

impl LaneId for u32 {
    #[inline(always)]
    fn widen(self) -> u64 {
        u64::from(self)
    }
}

impl LaneId for u64 {
    #[inline(always)]
    fn widen(self) -> u64 {
        self
    }
}

/// Left-packing permutation LUT for [`scan_emit`]: `PACK_LUT[mask]`
/// feeds `_mm256_permutevar8x32_epi32` to compact the 64-bit id lanes
/// selected by a 4-bit movemask to the front of the vector (each 64-bit
/// lane is a pair of 32-bit lanes).
#[cfg(target_arch = "x86_64")]
static PACK_LUT: [[u32; 8]; 16] = build_pack_lut();

#[cfg(target_arch = "x86_64")]
const fn build_pack_lut() -> [[u32; 8]; 16] {
    let mut lut = [[0u32; 8]; 16];
    let mut mask = 0usize;
    while mask < 16 {
        let mut w = 0usize;
        let mut lane = 0usize;
        while lane < 4 {
            if mask & (1 << lane) != 0 {
                lut[mask][2 * w] = (2 * lane) as u32;
                lut[mask][2 * w + 1] = (2 * lane + 1) as u32;
                w += 1;
            }
            lane += 1;
        }
        mask += 1;
    }
    lut
}

/// The bottom-level lane test: for each record position `i`, emits
/// `ids[i]` (widened to `u64`) into `out` iff `lanes[k][i] <= bounds[k]`
/// for every active lane `k`. Returns the number of ids written. `out`
/// must be at least `ids.len()` long; positions past the returned count
/// hold garbage.
///
/// Lanes are the per-dimension `lo` lanes (tested against the query's
/// upper corner) and negated `nhi` lanes (tested against the negated lower
/// corner), so every test is a uniform `v <= bound`.
pub fn scan_emit<I: LaneId, const K: usize>(
    level: SimdLevel,
    ids: &[I],
    lanes: [&[f64]; K],
    bounds: [f64; K],
    out: &mut [u64],
) -> usize {
    for lane in &lanes {
        assert_eq!(lane.len(), ids.len());
    }
    assert!(out.len() >= ids.len());
    match level.clamp_to_host() {
        // SAFETY: `clamp_to_host` keeps `Avx2` only on a host that reports
        // it, and every lane and `out` hold `ids.len()` elements (asserted
        // above), which is all the kernel reads and writes.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { scan_emit_avx2::<I, K>(ids, lanes, bounds, out) },
        // SAFETY: SSE2 is in the `x86_64` baseline, and the lane lengths
        // are asserted above.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe { scan_emit_sse2::<I, K>(ids, lanes, bounds, out) },
        _ => scan_emit_scalar::<I, K>(ids, lanes, bounds, out),
    }
}

fn scan_emit_scalar<I: LaneId, const K: usize>(
    ids: &[I],
    lanes: [&[f64]; K],
    bounds: [f64; K],
    out: &mut [u64],
) -> usize {
    let mut w = 0usize;
    for (i, &id) in ids.iter().enumerate() {
        let mut ok = true;
        for (lane, &b) in lanes.iter().zip(bounds.iter()) {
            ok &= lane[i] <= b;
        }
        out[w] = id.widen();
        w += ok as usize;
    }
    w
}

/// SAFETY: caller checked `avx2` and sized `out` to at least
/// `ids.len()`. In the vector loop `w <= i` and `i + 4 <= m`, so the
/// unconditional 32-byte store at `out[w..w + 4]` stays in bounds;
/// lanes past the popcount advance are overwritten or truncated. The id
/// load reads the four ids `ids[i..i + 4]`: 16 bytes of `u32`s or 32 of
/// `u64`s (a `LaneId` is one of the two).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scan_emit_avx2<I: LaneId, const K: usize>(
    ids: &[I],
    lanes: [&[f64]; K],
    bounds: [f64; K],
    out: &mut [u64],
) -> usize {
    let m = ids.len();
    let mut vb = [_mm256_setzero_pd(); K];
    for k in 0..K {
        vb[k] = _mm256_set1_pd(bounds[k]);
    }
    let mut w = 0usize;
    let mut i = 0usize;
    while i + 4 <= m {
        let mut mask =
            _mm256_cmp_pd::<_CMP_LE_OQ>(_mm256_loadu_pd(lanes[0].as_ptr().add(i)), vb[0]);
        let mut k = 1;
        while k < K {
            let t = _mm256_cmp_pd::<_CMP_LE_OQ>(_mm256_loadu_pd(lanes[k].as_ptr().add(i)), vb[k]);
            mask = _mm256_and_pd(mask, t);
            k += 1;
        }
        let mm = (_mm256_movemask_pd(mask) as usize) & 0xF;
        let at = ids.as_ptr().add(i);
        let vid = if std::mem::size_of::<I>() == 4 {
            _mm256_cvtepu32_epi64(_mm_loadu_si128(at as *const __m128i))
        } else {
            _mm256_loadu_si256(at as *const __m256i)
        };
        let perm = _mm256_loadu_si256(PACK_LUT[mm].as_ptr() as *const __m256i);
        let packed = _mm256_permutevar8x32_epi32(vid, perm);
        _mm256_storeu_si256(out.as_mut_ptr().add(w) as *mut __m256i, packed);
        w += mm.count_ones() as usize;
        i += 4;
    }
    while i < m {
        let mut ok = true;
        for (lane, &b) in lanes.iter().zip(bounds.iter()) {
            ok &= lane[i] <= b;
        }
        out[w] = ids[i].widen();
        w += ok as usize;
        i += 1;
    }
    w
}

/// SAFETY: SSE2 baseline; `out` is at least `ids.len()` long and
/// `w <= i` throughout, so the slice-indexed predicated stores are in
/// bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn scan_emit_sse2<I: LaneId, const K: usize>(
    ids: &[I],
    lanes: [&[f64]; K],
    bounds: [f64; K],
    out: &mut [u64],
) -> usize {
    let m = ids.len();
    let mut vb = [_mm_setzero_pd(); K];
    for k in 0..K {
        vb[k] = _mm_set1_pd(bounds[k]);
    }
    let mut w = 0usize;
    let mut i = 0usize;
    while i + 2 <= m {
        let mut mask = _mm_cmple_pd(_mm_loadu_pd(lanes[0].as_ptr().add(i)), vb[0]);
        let mut k = 1;
        while k < K {
            mask = _mm_and_pd(
                mask,
                _mm_cmple_pd(_mm_loadu_pd(lanes[k].as_ptr().add(i)), vb[k]),
            );
            k += 1;
        }
        let mm = _mm_movemask_pd(mask) as usize;
        out[w] = ids[i].widen();
        w += mm & 1;
        out[w] = ids[i + 1].widen();
        w += (mm >> 1) & 1;
        i += 2;
    }
    while i < m {
        let mut ok = true;
        for (lane, &b) in lanes.iter().zip(bounds.iter()) {
            ok &= lane[i] <= b;
        }
        out[w] = ids[i].widen();
        w += ok as usize;
        i += 1;
    }
    w
}

// ---------------------------------------------------------------------------
// The bottom-level scan over record lanes.
// ---------------------------------------------------------------------------

/// Chunk size of the masked fallback scan (only reached at `D > 4`): each
/// lane's compare pass runs at most this many contiguous elements before
/// the mask is consumed — small enough to stay in L1, large enough to
/// vectorize.
const SCAN_CHUNK: usize = 64;

/// Records as read-only lanes: `ids[p]`, `lo[d][p]` and `nhi[d][p]` (the
/// upper corner negated) of record `p`, every lane equally long. A sealed
/// arena's lanes carry `u32` ids, the live engine's `u64` ids.
pub(crate) struct LaneView<'a, I, const D: usize> {
    pub(crate) ids: &'a [I],
    pub(crate) lo: [&'a [f64]; D],
    pub(crate) nhi: [&'a [f64]; D],
}

impl<I: LaneId, const D: usize> LaneView<'_, I, D> {
    /// Appends records `span`, gathered from the lanes bit for bit
    /// (`hi = -nhi` is exact), ids widened.
    pub(crate) fn push_records(&self, span: Range<usize>, out: &mut Vec<Record<D>>) {
        out.extend(span.map(|i| {
            let lo = std::array::from_fn(|d| self.lo[d][i]);
            let hi = std::array::from_fn(|d| -self.nhi[d][i]);
            Record::new(self.ids[i].widen(), Aabb { lo, hi })
        }));
    }

    /// Appends the ids of records `b..e`.
    pub(crate) fn emit(&self, b: usize, e: usize, out: &mut Vec<u64>) {
        out.extend(self.ids[b..e].iter().map(|&id| id.widen()));
    }

    /// Bottom-level scan of records `b..e`, appending the ids of those
    /// that intersect `q` in record order and returning the records tested
    /// (all of them). Only the **undecided** lanes are tested: the caller
    /// proved, from a box holding every record of the run, that the lanes
    /// it leaves out (`!test_lo[d]`, `!test_hi[d]`) pass for every record,
    /// and the negated upper-bound lane makes every remaining test the
    /// uniform `lane[p] <= bound`. The truth table is
    /// [`Aabb::intersects_branchless`]'s: a boundary slice usually crosses
    /// the query on one or two dimensions, so the scan streams one or two
    /// `f64` lanes plus the ids instead of every coordinate of every
    /// record.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn scan(
        &self,
        b: usize,
        e: usize,
        q: &Aabb<D>,
        test_lo: [bool; D],
        test_hi: [bool; D],
        out: &mut Vec<u64>,
        level: SimdLevel,
    ) -> u64 {
        let m = e - b;
        // Gather the active lane tests in normalized `v <= bound` form.
        // `2 × D` tests fit `MAX_LANES` for every practical dimensionality;
        // beyond that the masked chunk loop below takes over.
        const MAX_LANES: usize = 8;
        let empty: &[f64] = &[];
        let mut lanes: [&[f64]; MAX_LANES] = [empty; MAX_LANES];
        let mut bounds = [0.0f64; MAX_LANES];
        let mut k = 0usize;
        let mut overflow = false;
        for d in 0..D {
            if test_lo[d] {
                if k < MAX_LANES {
                    lanes[k] = &self.lo[d][b..e];
                    bounds[k] = q.hi[d];
                    k += 1;
                } else {
                    overflow = true;
                }
            }
            if test_hi[d] {
                if k < MAX_LANES {
                    lanes[k] = &self.nhi[d][b..e];
                    bounds[k] = -q.lo[d];
                    k += 1;
                } else {
                    overflow = true;
                }
            }
        }
        if k == 0 {
            self.emit(b, e, out);
            return m as u64;
        }
        let start = out.len();
        out.resize(start + m, 0);
        let ids = &self.ids[b..e];
        let mut w = start;
        if overflow {
            // More than MAX_LANES active tests (D > 4): masked chunk pass
            // over every active lane.
            let mut mask = [true; SCAN_CHUNK];
            let mut base = 0usize;
            while base < m {
                let c = SCAN_CHUNK.min(m - base);
                mask[..c].fill(true);
                for d in 0..D {
                    if test_lo[d] {
                        let qhi = q.hi[d];
                        let lane = &self.lo[d][b + base..b + base + c];
                        for (mk, &v) in mask[..c].iter_mut().zip(lane) {
                            *mk &= v <= qhi;
                        }
                    }
                    if test_hi[d] {
                        let nqlo = -q.lo[d];
                        let lane = &self.nhi[d][b + base..b + base + c];
                        for (mk, &v) in mask[..c].iter_mut().zip(lane) {
                            *mk &= v <= nqlo;
                        }
                    }
                }
                for (j, &mk) in mask[..c].iter().enumerate() {
                    out[w] = ids[base + j].widen();
                    w += mk as usize;
                }
                base += c;
            }
        } else {
            // Fused lane tests for the common lane counts, dispatched through
            // [`scan_emit`]: the vector kernels run the `v <= bound` compares
            // four records wide, AND the masks across active lanes and
            // left-pack the surviving ids; the scalar generation is the
            // predicated loop. Emission order is the id order either way, so
            // the output is byte-identical across levels.
            let dst = &mut out[start..];
            w = start
                + match k {
                    1 => scan_emit::<I, 1>(level, ids, [lanes[0]], [bounds[0]], dst),
                    2 => scan_emit::<I, 2>(
                        level,
                        ids,
                        [lanes[0], lanes[1]],
                        [bounds[0], bounds[1]],
                        dst,
                    ),
                    3 => scan_emit::<I, 3>(
                        level,
                        ids,
                        [lanes[0], lanes[1], lanes[2]],
                        [bounds[0], bounds[1], bounds[2]],
                        dst,
                    ),
                    _ => {
                        let mut n = 0;
                        for (p, &id) in ids.iter().enumerate() {
                            let mut ok = true;
                            for t in 0..k {
                                ok &= lanes[t][p] <= bounds[t];
                            }
                            dst[n] = id.widen();
                            n += ok as usize;
                        }
                        n
                    }
                };
        }
        out.truncate(w);
        m as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn levels() -> Vec<SimdLevel> {
        vec![SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2]
    }

    #[test]
    fn policy_parse_round_trips() {
        for p in [
            SimdPolicy::Auto,
            SimdPolicy::Scalar,
            SimdPolicy::Sse2,
            SimdPolicy::Avx2,
        ] {
            assert_eq!(SimdPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(SimdPolicy::parse("avx512"), None);
    }

    #[test]
    fn detect_is_stable_and_ordered() {
        let a = SimdLevel::detect();
        let b = SimdLevel::detect();
        assert_eq!(a, b);
        assert!(SimdLevel::Scalar <= SimdLevel::Sse2);
        assert!(SimdLevel::Sse2 <= SimdLevel::Avx2);
        // Forced levels never exceed the host.
        assert!(SimdPolicy::Avx2.resolve() <= SimdLevel::detect());
        assert_eq!(SimdPolicy::Scalar.resolve(), SimdLevel::Scalar);
    }

    #[test]
    fn env_override_strings_are_accepted_trimmed_or_rejected() {
        for p in [
            SimdPolicy::Auto,
            SimdPolicy::Scalar,
            SimdPolicy::Sse2,
            SimdPolicy::Avx2,
        ] {
            assert_eq!(parse_override(p.name()), Ok(p));
            assert_eq!(parse_override(&format!("  {}\n", p.name())), Ok(p));
        }
        for bad in ["AVX2", "scaler", "", "avx2,scalar"] {
            let msg = parse_override(bad).expect_err(bad);
            assert_eq!(
                msg,
                format!("QUASII_SIMD='{bad}' ignored: expected auto|scalar|sse2|avx2")
            );
        }
    }

    #[test]
    fn scan_emit_matches_scalar_across_k_and_masks() {
        // Columns engineered so every chunk exercises a different
        // pass/fail mask, lengths cover unaligned remainders.
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 15, 16, 33] {
            let ids: Vec<u32> = (0..n as u32).map(|i| i * 7 + 3).collect();
            let wide: Vec<u64> = ids.iter().map(|&id| u64::from(id) << 32 | 5).collect();
            let l0: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
            let l1: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
            let l2: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
            let mut want = vec![0u64; n];
            let mut got = vec![0u64; n];
            for lv in levels() {
                let w1 = scan_emit::<_, 1>(SimdLevel::Scalar, &ids, [&l0], [1.0], &mut want);
                let g1 = scan_emit::<_, 1>(lv, &ids, [&l0], [1.0], &mut got);
                assert_eq!((g1, &got[..g1]), (w1, &want[..w1]), "{lv:?} k=1 n={n}");
                let w2 =
                    scan_emit::<_, 2>(SimdLevel::Scalar, &ids, [&l0, &l1], [1.0, 2.0], &mut want);
                let g2 = scan_emit::<_, 2>(lv, &ids, [&l0, &l1], [1.0, 2.0], &mut got);
                assert_eq!((g2, &got[..g2]), (w2, &want[..w2]), "{lv:?} k=2 n={n}");
                let w3 = scan_emit::<_, 3>(
                    SimdLevel::Scalar,
                    &ids,
                    [&l0, &l1, &l2],
                    [1.0, 2.0, 4.0],
                    &mut want,
                );
                let g3 = scan_emit::<_, 3>(lv, &ids, [&l0, &l1, &l2], [1.0, 2.0, 4.0], &mut got);
                assert_eq!((g3, &got[..g3]), (w3, &want[..w3]), "{lv:?} k=3 n={n}");
                // The live engine's u64 ids: the same selection, ids whole.
                let w = scan_emit(SimdLevel::Scalar, &ids, [&l0, &l1], [1.0, 2.0], &mut want);
                let widened: Vec<u64> = want[..w].iter().map(|&id| id << 32 | 5).collect();
                let g = scan_emit(lv, &wide, [&l0, &l1], [1.0, 2.0], &mut got);
                assert_eq!((g, &got[..g]), (w, &widened[..]), "{lv:?} u64 ids n={n}");
            }
        }
    }
}
