//! Runtime-dispatched SIMD kernels for the streaming test paths.
//!
//! PR 4/5 shaped the read-side hot loops into contiguous `f64`/`u32`
//! column scans (the sealed arena's negated-upper `v <= bound` lane
//! tests, the bottom-level MBB collect) so the hardware could chew them;
//! this module vectorizes those scans explicitly with
//! `core::arch::x86_64` intrinsics behind a one-time runtime-detected
//! dispatch. The crack (partition) kernels are not here: a crack costs
//! its partition scan and is bandwidth-bound, so they stay the scalar keyed
//! kernels in [`crate::crack`].
//!
//! Two kernel families:
//!
//! - **Sealed lane tests** ([`scan_emit`]): the bottom-level
//!   `rec_lo`/`rec_nhi` columns run 4-wide `v <= bound` compares, masks
//!   are ANDed across active lanes, and ids are emitted by a
//!   movemask-indexed left-packing permutation.
//! - **Batched AABB intersect** ([`collect_bottom`]): the unsealed
//!   bottom-level collect tests a whole `#[repr(C)]` [`Aabb`] per
//!   compare pair instead of 2×D scalar compares.
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
//! codebase as the bit-for-bit oracle: both families only compare and
//! emit ids, so results, work counters and snapshot bytes are identical
//! at every level.

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;
use std::sync::OnceLock;

use quasii_common::geom::{Aabb, Record};

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
// Sealed bottom-level lane tests.
// ---------------------------------------------------------------------------

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

/// The sealed arena's bottom-level lane test: for each record position
/// `i`, emits `ids[i]` (widened to `u64`) into `out` iff
/// `lanes[k][i] <= bounds[k]` for every active lane `k`. Returns the
/// number of ids written. `out` must be at least `ids.len()` long;
/// positions past the returned count hold garbage.
///
/// Lanes are the per-dimension `rec_lo` columns (tested against the
/// query's upper corner) and negated `rec_nhi` columns (tested against
/// the negated lower corner), so every test is a uniform `v <= bound`.
pub fn scan_emit<const K: usize>(
    level: SimdLevel,
    ids: &[u32],
    lanes: [&[f64]; K],
    bounds: [f64; K],
    out: &mut [u64],
) -> usize {
    for lane in &lanes {
        debug_assert_eq!(lane.len(), ids.len());
    }
    debug_assert!(out.len() >= ids.len());
    match level.clamp_to_host() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { scan_emit_avx2::<K>(ids, lanes, bounds, out) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe { scan_emit_sse2::<K>(ids, lanes, bounds, out) },
        _ => scan_emit_scalar::<K>(ids, lanes, bounds, out),
    }
}

fn scan_emit_scalar<const K: usize>(
    ids: &[u32],
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
        out[w] = id as u64;
        w += ok as usize;
    }
    w
}

/// SAFETY: caller checked `avx2` and sized `out` to at least
/// `ids.len()`. In the vector loop `w <= i` and `i + 4 <= m`, so the
/// unconditional 32-byte store at `out[w..w + 4]` stays in bounds;
/// lanes past the popcount advance are overwritten or truncated.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scan_emit_avx2<const K: usize>(
    ids: &[u32],
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
        let vid = _mm256_cvtepu32_epi64(_mm_loadu_si128(ids.as_ptr().add(i) as *const __m128i));
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
        out[w] = ids[i] as u64;
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
unsafe fn scan_emit_sse2<const K: usize>(
    ids: &[u32],
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
        out[w] = ids[i] as u64;
        w += mm & 1;
        out[w] = ids[i + 1] as u64;
        w += (mm >> 1) & 1;
        i += 2;
    }
    while i < m {
        let mut ok = true;
        for (lane, &b) in lanes.iter().zip(bounds.iter()) {
            ok &= lane[i] <= b;
        }
        out[w] = ids[i] as u64;
        w += ok as usize;
        i += 1;
    }
    w
}

// ---------------------------------------------------------------------------
// Batched AABB intersect for the unsealed bottom-level collect.
// ---------------------------------------------------------------------------

/// Tests every record's MBB against `q` and emits intersecting ids into
/// `out`, returning the number written. `out` must be at least
/// `recs.len()` long; positions past the returned count hold garbage.
/// Bit-for-bit equivalent to the scalar
/// [`Aabb::intersects_branchless`] collect loop.
pub fn collect_bottom<const D: usize>(
    level: SimdLevel,
    recs: &[Record<D>],
    q: &Aabb<D>,
    out: &mut [u64],
) -> usize {
    debug_assert!(out.len() >= recs.len());
    match level.clamp_to_host() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 if D == 3 => unsafe { collect_bottom3_avx2(recs, q, out) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 if D == 2 => unsafe { collect_bottom2_avx2(recs, q, out) },
        _ => collect_bottom_scalar(recs, q, out),
    }
}

fn collect_bottom_scalar<const D: usize>(
    recs: &[Record<D>],
    q: &Aabb<D>,
    out: &mut [u64],
) -> usize {
    let mut w = 0usize;
    for r in recs {
        out[w] = r.id;
        w += r.mbb.intersects_branchless(q) as usize;
    }
    w
}

/// SAFETY: caller checked `avx2` and `D == 3`. `Aabb` is `#[repr(C)]`,
/// so `&r.mbb` is six contiguous `f64`s `[lo0, lo1, lo2, hi0, hi1,
/// hi2]`; both unaligned loads (offsets 0 and 2, four lanes each) stay
/// within those six. `out` is at least `recs.len()` long and `w` only
/// advances past emitted ids, so the predicated stores are in bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn collect_bottom3_avx2<const D: usize>(
    recs: &[Record<D>],
    q: &Aabb<D>,
    out: &mut [u64],
) -> usize {
    debug_assert_eq!(D, 3);
    // va = [lo0, lo1, lo2, hi0] tested `<=` against [qhi0, qhi1, qhi2, +inf];
    // vb = [lo2, hi0, hi1, hi2] tested `>=` against [-inf, qlo0, qlo1, qlo2].
    // The padded lanes are always-true, so mask == 0xF iff all 2*D
    // scalar comparisons of `intersects_branchless` hold.
    let qa = _mm256_set_pd(f64::INFINITY, q.hi[2], q.hi[1], q.hi[0]);
    let qb = _mm256_set_pd(q.lo[2], q.lo[1], q.lo[0], f64::NEG_INFINITY);
    let mut w = 0usize;
    for r in recs {
        let p = &r.mbb as *const Aabb<D> as *const f64;
        let va = _mm256_loadu_pd(p);
        let vb = _mm256_loadu_pd(p.add(2));
        let m = _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_LE_OQ>(va, qa),
            _mm256_cmp_pd::<_CMP_GE_OQ>(vb, qb),
        );
        out[w] = r.id;
        w += (_mm256_movemask_pd(m) == 0xF) as usize;
    }
    w
}

/// SAFETY: caller checked `avx2` and `D == 2`. `Aabb` is `#[repr(C)]`,
/// so `&r.mbb` is exactly the four `f64`s `[lo0, lo1, hi0, hi1]` one
/// unaligned load covers. Store bounds as for the `D == 3` kernel.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn collect_bottom2_avx2<const D: usize>(
    recs: &[Record<D>],
    q: &Aabb<D>,
    out: &mut [u64],
) -> usize {
    debug_assert_eq!(D, 2);
    // v = [lo0, lo1, hi0, hi1]: the lo lanes test `<=` against the
    // query his (hi lanes padded always-true), the hi lanes test `>=`
    // against the query los (lo lanes padded always-true).
    let qa = _mm256_set_pd(f64::INFINITY, f64::INFINITY, q.hi[1], q.hi[0]);
    let qb = _mm256_set_pd(q.lo[1], q.lo[0], f64::NEG_INFINITY, f64::NEG_INFINITY);
    let mut w = 0usize;
    for r in recs {
        let v = _mm256_loadu_pd(&r.mbb as *const Aabb<D> as *const f64);
        let m = _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_LE_OQ>(v, qa),
            _mm256_cmp_pd::<_CMP_GE_OQ>(v, qb),
        );
        out[w] = r.id;
        w += (_mm256_movemask_pd(m) == 0xF) as usize;
    }
    w
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
            let l0: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
            let l1: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
            let l2: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
            let mut want = vec![0u64; n];
            let mut got = vec![0u64; n];
            for lv in levels() {
                let w1 = scan_emit::<1>(SimdLevel::Scalar, &ids, [&l0], [1.0], &mut want);
                let g1 = scan_emit::<1>(lv, &ids, [&l0], [1.0], &mut got);
                assert_eq!((g1, &got[..g1]), (w1, &want[..w1]), "{lv:?} k=1 n={n}");
                let w2 = scan_emit::<2>(SimdLevel::Scalar, &ids, [&l0, &l1], [1.0, 2.0], &mut want);
                let g2 = scan_emit::<2>(lv, &ids, [&l0, &l1], [1.0, 2.0], &mut got);
                assert_eq!((g2, &got[..g2]), (w2, &want[..w2]), "{lv:?} k=2 n={n}");
                let w3 = scan_emit::<3>(
                    SimdLevel::Scalar,
                    &ids,
                    [&l0, &l1, &l2],
                    [1.0, 2.0, 4.0],
                    &mut want,
                );
                let g3 = scan_emit::<3>(lv, &ids, [&l0, &l1, &l2], [1.0, 2.0, 4.0], &mut got);
                assert_eq!((g3, &got[..g3]), (w3, &want[..w3]), "{lv:?} k=3 n={n}");
            }
        }
    }

    #[test]
    fn collect_bottom_matches_scalar_for_2d_and_3d() {
        let q3 = Aabb::new([2.0, 3.0, 4.0], [8.0, 9.0, 10.0]);
        let recs3: Vec<Record<3>> = (0..37)
            .map(|i| {
                let v = i as f64 * 0.4;
                Record::new(
                    i,
                    Aabb::new([v, v * 0.9, v * 1.1], [v + 2.0, v + 1.0, v + 3.0]),
                )
            })
            .collect();
        let q2 = Aabb::new([2.0, 3.0], [8.0, 9.0]);
        let recs2: Vec<Record<2>> = (0..37)
            .map(|i| {
                let v = i as f64 * 0.4;
                Record::new(i, Aabb::new([v, v * 0.9], [v + 2.0, v + 1.0]))
            })
            .collect();
        let mut want = vec![0u64; 37];
        let mut got = vec![0u64; 37];
        let w3 = collect_bottom(SimdLevel::Scalar, &recs3, &q3, &mut want);
        assert!(w3 > 0, "3d fixture should have hits");
        for lv in levels() {
            let g = collect_bottom(lv, &recs3, &q3, &mut got);
            assert_eq!((g, &got[..g]), (w3, &want[..w3]), "{lv:?} 3d");
        }
        let w2 = collect_bottom(SimdLevel::Scalar, &recs2, &q2, &mut want);
        assert!(w2 > 0, "2d fixture should have hits");
        for lv in levels() {
            let g = collect_bottom(lv, &recs2, &q2, &mut got);
            assert_eq!((g, &got[..g]), (w2, &want[..w2]), "{lv:?} 2d");
        }
    }

    #[test]
    fn collect_bottom_touching_edges_count_as_hits() {
        // Closed-interval semantics: exact edge contact must match the
        // scalar branchless test on every level.
        let q = Aabb::new([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]);
        let recs: Vec<Record<3>> = vec![
            Record::new(0, Aabb::new([1.0, 0.5, 0.5], [2.0, 0.6, 0.6])),
            Record::new(1, Aabb::new([-1.0, 0.0, 0.0], [0.0, 0.1, 0.1])),
            Record::new(2, Aabb::new([1.0 + 1e-12, 0.5, 0.5], [2.0, 0.6, 0.6])),
        ];
        let mut want = vec![0u64; recs.len()];
        let mut got = vec![0u64; recs.len()];
        let w = collect_bottom(SimdLevel::Scalar, &recs, &q, &mut want);
        assert_eq!(&want[..w], &[0, 1]);
        for lv in levels() {
            let g = collect_bottom(lv, &recs, &q, &mut got);
            assert_eq!((g, &got[..g]), (w, &want[..w]), "{lv:?}");
        }
    }
}
