//! Microbenchmarks of the hot kernels every experiment rests on:
//! cracking partitions (QUASII's inner loop), Z-order encoding + BIGMIN +
//! interval decomposition (SFC/SFCracker), and STR tiling (R-Tree build).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use quasii::crack::reference::{crack_three, crack_two};
use quasii::crack::{crack_three_keyed_measured, crack_two_keyed_measured, key_of, DimBounds};
use quasii::{AssignBy, Quasii, QuasiiConfig, SimdLevel, SimdPolicy};
use quasii_common::dataset::uniform_boxes_in;
use quasii_common::geom::{Aabb, Record};
use quasii_common::index::SpatialIndex;
use quasii_rtree::str_pack::str_tile;
use quasii_sfc::ZGrid;
use std::hint::black_box;

/// Builds the narrow column pair the keyed kernels crack (assignment keys +
/// crack-dimension upper bounds). Cloned per iteration together with the
/// records — the engine maintains the columns incrementally, so per-crack
/// cost excludes this build.
fn columns_of(data: &[Record<3>], mode: AssignBy) -> (Vec<f64>, Vec<f64>) {
    (
        data.iter().map(|r| key_of(r, 0, mode)).collect(),
        data.iter().map(|r| r.mbb.hi[0]).collect(),
    )
}

/// The engine's crack kernels against their oracle on the hot-path
/// operation (crack + measure what `make_sub` consumes) at 1M records:
/// "split passes" is the record-streaming partition followed by one
/// `DimBounds::of` pass per output segment, "keyed" the engine kernels —
/// narrow-column scans measuring the crack-dimension bounds in-pass, records
/// touched only to swap misplaced pairs (both 1M output segments stay above
/// τ, so `DimBounds` is exactly what the engine consumes for them; at-most-τ
/// segments additionally get a small cache-resident exact-MBB scan in
/// `make_sub`).
///
/// Two-way runs at two pivot selectivities and two assignment modes: the
/// median pivot maximizes misplaced pairs (≈50% of records must physically
/// move — the keyed kernels' worst case), the 10%-quantile pivot is closer
/// to the engine's converged regime, and under `Center` assignment
/// `key_of` costs an add + multiply per record-streaming probe (the keyed
/// kernel additionally folds `lo[dim]` from the records in this mode).
fn bench_cracks(c: &mut Criterion) {
    let data = uniform_boxes_in::<3>(1_000_000, 10_000.0, 4);
    let mut g = c.benchmark_group("crack_1m");
    for (suffix, mode, pivot) in [
        ("", AssignBy::Lower, 5_000.0),
        ("_skewed_pivot", AssignBy::Lower, 1_000.0),
        ("_center", AssignBy::Center, 5_000.0),
    ] {
        let (keys, his) = columns_of(&data, mode);
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
        g.bench_function(&format!("two_way_keyed{suffix}"), |b| {
            b.iter_batched_ref(
                || (keys.clone(), his.clone(), data.clone()),
                |(k, h, d)| black_box(crack_two_keyed_measured(k, h, d, 0, mode, pivot)),
                BatchSize::LargeInput,
            )
        });
    }
    const MODE: AssignBy = AssignBy::Lower;
    let (keys, his) = columns_of(&data, MODE);
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
    g.bench_function("three_way_keyed", |b| {
        b.iter_batched_ref(
            || (keys.clone(), his.clone(), data.clone()),
            |(k, h, d)| {
                black_box(crack_three_keyed_measured(
                    k, h, d, 0, MODE, 3_000.0, 7_000.0,
                ))
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// The streaming test kernels in isolation at 1M rows, scalar vs vector:
/// `scan_emit` (the sealed arena's fused lane test + id emit, 3 active
/// lanes ≈ a 3-D range query's per-dimension bounds) and `collect_bottom`
/// (the unsealed bottom-level batched AABB intersect). No engine walk
/// around them — these are the pure kernel generations.
fn bench_simd_scan_kernels(c: &mut Criterion) {
    const N: usize = 1_000_000;
    let data = uniform_boxes_in::<3>(N, 10_000.0, 4);
    let ids: Vec<u32> = (0..N as u32).collect();
    // One synthetic lane per dimension (uniform lows), each bound keeping
    // ~60 % — a combined ~22 % emit rate, mixing dense and sparse mask
    // patterns.
    let lanes: Vec<Vec<f64>> = (0..3)
        .map(|d| data.iter().map(|r| r.mbb.lo[d]).collect())
        .collect();
    let bounds = [6_000.0f64; 3];
    let q = Aabb::new([2_000.0; 3], [7_000.0; 3]);
    let mut out = vec![0u64; N];
    let mut g = c.benchmark_group("scan_1m_simd");
    for (name, level) in [
        ("scalar", SimdLevel::Scalar),
        ("vector", SimdLevel::detect()),
    ] {
        g.bench_function(&format!("scan_emit3_{name}"), |b| {
            b.iter(|| {
                black_box(quasii::simd::scan_emit::<3>(
                    level,
                    &ids,
                    [&lanes[0], &lanes[1], &lanes[2]],
                    bounds,
                    &mut out,
                ))
            })
        });
        g.bench_function(&format!("collect_bottom_{name}"), |b| {
            b.iter(|| black_box(quasii::simd::collect_bottom(level, &data, &q, &mut out)))
        });
    }
    g.finish();
}

/// Converged sealed reads at 1M, scalar vs vector lane tests: the index is
/// warmed to convergence once per policy, then boundary-crossing queries
/// stream the sealed columns through `scan_emit` (plus the batched AABB
/// intersect on the fallback path).
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
        let mut idx = Quasii::new(
            data.clone(),
            QuasiiConfig::default().with_threads(1).with_simd(policy),
        );
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
    targets = bench_cracks, bench_simd_scan_kernels, bench_simd_sealed_reads, bench_zorder, bench_str
}
criterion_main!(kernels);
