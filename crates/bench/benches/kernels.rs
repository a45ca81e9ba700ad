//! Microbenchmarks of the hot kernels every experiment rests on:
//! cracking partitions (QUASII's inner loop), Z-order encoding + BIGMIN +
//! interval decomposition (SFC/SFCracker), and STR tiling (R-Tree build).

#[path = "../../../tests/reference/crack.rs"]
mod reference;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use quasii::crack::{
    crack_median_keyed_measured, crack_three_keyed_measured, crack_two_keyed_measured, DimBounds,
};
use quasii::{AssignBy, Quasii, QuasiiConfig, SimdLevel, SimdPolicy};
use quasii_common::dataset::uniform_boxes_in;
use quasii_common::geom::Aabb;
use quasii_common::index::SpatialIndex;
use quasii_rtree::str_pack::str_tile;
use quasii_sfc::ZGrid;
use reference::{crack_three, crack_two, Lanes};
use std::hint::black_box;

/// The engine's three crack kernels (crack + measure what `make_sub`
/// consumes) at three segment sizes: 620 records (about the mean records
/// per crack of a traced `shift_mixed`), 16 k and 1 M, each at a median
/// pivot (two-way; the keyed kernels' worst case, ≈ 50 % of records move),
/// over the middle 40 % of the key range (three-way) and through the
/// rank-based fallback (median, which gathers its segment into records,
/// selects, and scatters back). Divide a time by the segment size for ns
/// per record.
fn bench_crack_sizes(c: &mut Criterion) {
    const MODE: AssignBy = AssignBy::Lower;
    let mut g = c.benchmark_group("crack_lanes");
    for (n, samples) in [(620, 400), (16_384, 60), (1_000_000, 10)] {
        let lanes = Lanes::of(&uniform_boxes_in::<3>(n, 10_000.0, 4));
        g.sample_size(samples);
        g.bench_function(&format!("two_way_{n}"), |b| {
            b.iter_batched_ref(
                || lanes.clone(),
                |l| black_box(crack_two_keyed_measured(l.view(), 0, MODE, 5_000.0)),
                BatchSize::LargeInput,
            )
        });
        g.bench_function(&format!("three_way_{n}"), |b| {
            b.iter_batched_ref(
                || lanes.clone(),
                |l| {
                    black_box(crack_three_keyed_measured(
                        l.view(),
                        0,
                        MODE,
                        3_000.0,
                        7_000.0,
                    ))
                },
                BatchSize::LargeInput,
            )
        });
        g.bench_function(&format!("median_{n}"), |b| {
            b.iter_batched_ref(
                || lanes.clone(),
                |l| black_box(crack_median_keyed_measured(l.view(), 0, MODE)),
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

/// The engine's crack kernels against their oracle on the hot-path
/// operation (crack + measure what `make_sub` consumes) at 1M records:
/// "split passes" is the record-streaming partition followed by one
/// `DimBounds::of` pass per output segment, "lanes" the engine kernels —
/// scans of the crack dimension's `lo` and negated-`hi` lanes measuring the
/// crack-dimension bounds in-pass, the other lanes touched only to swap
/// misplaced records (both 1M output segments stay above τ, so `DimBounds`
/// is exactly what the engine consumes for them; at-most-τ segments
/// additionally get a small cache-resident exact-MBB scan in `make_sub`).
///
/// Two-way runs at two pivot selectivities and two assignment modes: the
/// median pivot maximizes misplaced pairs (≈50% of records must physically
/// move), the 10%-quantile pivot is closer to the engine's converged
/// regime, and under `Center` assignment the key costs an add + multiply
/// per probe on both sides.
fn bench_cracks(c: &mut Criterion) {
    let data = uniform_boxes_in::<3>(1_000_000, 10_000.0, 4);
    let lanes = Lanes::of(&data);
    let mut g = c.benchmark_group("crack_1m");
    for (suffix, mode, pivot) in [
        ("", AssignBy::Lower, 5_000.0),
        ("_skewed_pivot", AssignBy::Lower, 1_000.0),
        ("_center", AssignBy::Center, 5_000.0),
    ] {
        g.bench_function(&format!("two_way_split_passes{suffix}"), |b| {
            b.iter_batched_ref(
                || data.clone(),
                |d| {
                    let p = crack_two(d, 0, mode, pivot);
                    let lo = DimBounds::of(&d[..p], 0, mode);
                    let hi = DimBounds::of(&d[p..], 0, mode);
                    black_box((p, lo, hi))
                },
                BatchSize::LargeInput,
            )
        });
        g.bench_function(&format!("two_way_lanes{suffix}"), |b| {
            b.iter_batched_ref(
                || lanes.clone(),
                |l| black_box(crack_two_keyed_measured(l.view(), 0, mode, pivot)),
                BatchSize::LargeInput,
            )
        });
    }
    const MODE: AssignBy = AssignBy::Lower;
    g.bench_function("three_way_split_passes", |b| {
        b.iter_batched_ref(
            || data.clone(),
            |d| {
                let (p1, p2) = crack_three(d, 0, MODE, 3_000.0, 7_000.0);
                let lo = DimBounds::of(&d[..p1], 0, MODE);
                let mid = DimBounds::of(&d[p1..p2], 0, MODE);
                let hi = DimBounds::of(&d[p2..], 0, MODE);
                black_box((p1, p2, lo, mid, hi))
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("three_way_lanes", |b| {
        b.iter_batched_ref(
            || lanes.clone(),
            |l| {
                black_box(crack_three_keyed_measured(
                    l.view(),
                    0,
                    MODE,
                    3_000.0,
                    7_000.0,
                ))
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// `scan_emit` in isolation at 1M rows, scalar vs vector: the fused lane
/// test + id emit of every bottom-level scan, 3 active lanes ≈ a 3-D range
/// query's per-dimension bounds, over the arena's `u32` ids and the live
/// engine's `u64` ids. No engine walk around it — these are the pure
/// kernel generations.
fn bench_simd_scan_kernels(c: &mut Criterion) {
    const N: usize = 1_000_000;
    let data = uniform_boxes_in::<3>(N, 10_000.0, 4);
    let ids: Vec<u32> = (0..N as u32).collect();
    let wide: Vec<u64> = (0..N as u64).collect();
    // One synthetic lane per dimension (uniform lows), each bound keeping
    // ~60 % — a combined ~22 % emit rate, mixing dense and sparse mask
    // patterns.
    let lanes: Vec<Vec<f64>> = (0..3)
        .map(|d| data.iter().map(|r| r.mbb.lo[d]).collect())
        .collect();
    let bounds = [6_000.0f64; 3];
    let mut out = vec![0u64; N];
    let mut g = c.benchmark_group("scan_1m_simd");
    for (name, level) in [
        ("scalar", SimdLevel::Scalar),
        ("vector", SimdLevel::detect()),
    ] {
        g.bench_function(&format!("scan_emit3_{name}"), |b| {
            b.iter(|| {
                black_box(quasii::simd::scan_emit::<_, 3>(
                    level,
                    &ids,
                    [&lanes[0], &lanes[1], &lanes[2]],
                    bounds,
                    &mut out,
                ))
            })
        });
        g.bench_function(&format!("scan_emit3_u64_{name}"), |b| {
            b.iter(|| {
                black_box(quasii::simd::scan_emit::<_, 3>(
                    level,
                    &wide,
                    [&lanes[0], &lanes[1], &lanes[2]],
                    bounds,
                    &mut out,
                ))
            })
        });
    }
    g.finish();
}

/// Converged sealed reads at 1M, scalar vs vector lane tests: the index is
/// warmed to convergence once per policy, then boundary-crossing queries
/// stream the sealed lanes through `scan_emit`.
fn bench_simd_sealed_reads(c: &mut Criterion) {
    let data = uniform_boxes_in::<3>(1_000_000, 10_000.0, 4);
    let queries: Vec<Aabb<3>> = (0..64)
        .map(|i| {
            let v = 150.0 * (i as f64 % 60.0);
            Aabb::new([v; 3], [v + 450.0; 3])
        })
        .collect();
    let mut g = c.benchmark_group("sealed_read_1m_simd");
    // Sub-millisecond samples on a noisy shared box: more samples per
    // benchmark keep the medians stable run-to-run.
    g.sample_size(30);
    for (name, policy) in [("scalar", SimdPolicy::Scalar), ("vector", SimdPolicy::Auto)] {
        let mut idx = Quasii::new(data.clone(), QuasiiConfig::default().with_simd(policy));
        idx.finalize();
        for q in &queries {
            black_box(idx.query_collect(q)); // warm: everything seals
        }
        g.bench_function(&format!("queries_{name}"), |b| {
            b.iter(|| {
                let mut acc = 0usize;
                for q in &queries {
                    acc += idx.query_collect(q).len();
                }
                black_box(acc)
            })
        });
    }
    g.finish();
}

fn bench_zorder(c: &mut Criterion) {
    let grid = ZGrid::<3>::new(Aabb::new([0.0; 3], [10_000.0; 3]), 10);
    let data = uniform_boxes_in::<3>(10_000, 10_000.0, 2);
    let mut g = c.benchmark_group("zorder");
    g.bench_function("encode_10k_points", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for r in &data {
                acc ^= grid.code_of_point(&r.mbb.center());
            }
            black_box(acc)
        })
    });
    let qlo = grid.cell_of(&[2_000.0; 3]);
    let qhi = grid.cell_of(&[2_500.0; 3]);
    let zmin = grid.encode(&qlo);
    let zmax = grid.encode(&qhi);
    g.bench_function("bigmin", |b| {
        b.iter(|| black_box(grid.bigmin(black_box(12_345_678), zmin, zmax)))
    });
    g.bench_function("decompose_capped_256", |b| {
        b.iter(|| black_box(grid.decompose(&qlo, &qhi, 256)))
    });
    g.finish();
}

fn bench_str(c: &mut Criterion) {
    let data = uniform_boxes_in::<3>(100_000, 10_000.0, 3);
    c.bench_function("str_tile_100k_cap60", |b| {
        b.iter_batched_ref(
            || data.clone(),
            |d| black_box(str_tile(d, 60, |r| r.mbb.center()).len()),
            BatchSize::LargeInput,
        )
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(10);
    targets = bench_crack_sizes, bench_cracks, bench_simd_scan_kernels, bench_simd_sealed_reads, bench_zorder, bench_str
}
criterion_main!(kernels);
