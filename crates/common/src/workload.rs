//! Query-workload generators mirroring §6.1 of the paper.
//!
//! * [`clustered`] — the neuroscience exploration workload: `c` clusters of
//!   `per_cluster` queries each; query centers are Gaussian around the
//!   cluster center; every query is a cube of fixed volume `qvol` (a given
//!   fraction of the universe volume). The paper uses 5 clusters × 100
//!   queries with qvol = 10⁻²%.
//! * [`uniform`] — up to 10 000 uniformly placed queries of a given volume
//!   fraction (Figs. 10–12).
//! * [`skewed`] — Zipf-like hot-region workload (not from the paper):
//!   hotspot regions whose popularity follows a power law, so most of the
//!   stream hammers one region — the adversarial case for shard balance.

use crate::geom::Aabb;
use rand::distr::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated query sequence plus its descriptive parameters.
#[derive(Clone, Debug)]
pub struct QueryWorkload<const D: usize> {
    /// Short name for benchmark tables ("clustered", "uniform").
    pub name: &'static str,
    /// Volume of one query as a fraction of the universe volume
    /// (the paper's "selectivity" knob, e.g. `1e-4` for 10⁻²%).
    pub volume_frac: f64,
    /// The queries, in execution order.
    pub queries: Vec<Aabb<D>>,
}

/// Side length of a cubic query occupying `volume_frac` of `universe`.
pub(crate) fn query_side<const D: usize>(universe: &Aabb<D>, volume_frac: f64) -> f64 {
    (universe.volume() * volume_frac).powf(1.0 / D as f64)
}

fn gaussian(rng: &mut StdRng) -> f64 {
    loop {
        let u1: f64 = rng.random();
        let u2: f64 = rng.random();
        if u1 > f64::EPSILON {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

/// Clamps a cube of side `side` centered at `c` into `universe`.
fn clamped_cube<const D: usize>(universe: &Aabb<D>, c: [f64; D], side: f64) -> Aabb<D> {
    let mut lo = [0.0; D];
    let mut hi = [0.0; D];
    for k in 0..D {
        let span = universe.hi[k] - universe.lo[k];
        let s = side.min(span);
        lo[k] = (c[k] - s * 0.5).max(universe.lo[k]).min(universe.hi[k] - s);
        hi[k] = lo[k] + s;
    }
    Aabb::new(lo, hi)
}

/// The paper's clustered exploration workload (§6.1): `clusters` regions,
/// `per_cluster` queries each, Gaussian spread `sigma` (absolute units)
/// around each cluster center, executed cluster after cluster.
pub fn clustered<const D: usize>(
    universe: &Aabb<D>,
    clusters: usize,
    per_cluster: usize,
    volume_frac: f64,
    seed: u64,
) -> QueryWorkload<D> {
    let side = query_side(universe, volume_frac);
    // The paper sets σ = qvol; with qvol given as a fraction that is
    // dimensionless, so we interpret the spread as one query side length —
    // queries in a cluster are "spatially close" (§2) and overlap heavily.
    let sigma = side;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queries = Vec::with_capacity(clusters * per_cluster);
    for _ in 0..clusters {
        let mut center = [0.0; D];
        for (k, c) in center.iter_mut().enumerate() {
            let u = Uniform::new(universe.lo[k], universe.hi[k]).expect("valid universe");
            *c = u.sample(&mut rng);
        }
        for _ in 0..per_cluster {
            let mut qc = center;
            for (k, x) in qc.iter_mut().enumerate() {
                *x = (*x + gaussian(&mut rng) * sigma).clamp(universe.lo[k], universe.hi[k]);
            }
            queries.push(clamped_cube(universe, qc, side));
        }
    }
    QueryWorkload {
        name: "clustered",
        volume_frac,
        queries,
    }
}

/// Uniformly distributed cubic queries of fixed volume fraction (Fig. 10–12).
pub fn uniform<const D: usize>(
    universe: &Aabb<D>,
    n: usize,
    volume_frac: f64,
    seed: u64,
) -> QueryWorkload<D> {
    let side = query_side(universe, volume_frac);
    let mut rng = StdRng::seed_from_u64(seed);
    let queries = (0..n)
        .map(|_| {
            let mut c = [0.0; D];
            for (k, x) in c.iter_mut().enumerate() {
                let u = Uniform::new(universe.lo[k], universe.hi[k]).expect("valid universe");
                *x = u.sample(&mut rng);
            }
            clamped_cube(universe, c, side)
        })
        .collect();
    QueryWorkload {
        name: "uniform",
        volume_frac,
        queries,
    }
}

/// Skewed (Zipf-like hot-region) workload: `hotspots` regions are placed
/// uniformly in the universe, and each of the `n` queries picks region `h`
/// with probability proportional to `1 / (h + 1)^exponent` (a Zipf law —
/// region 0 is the hot region), then scatters Gaussian around its center
/// exactly like [`clustered`]. With the conventional `exponent ≈ 1` the hot
/// region absorbs a large constant fraction of the stream, which is what
/// stresses shard-router balance: uniform and clustered workloads spread
/// load evenly over key ranges, this one does not.
pub fn skewed<const D: usize>(
    universe: &Aabb<D>,
    hotspots: usize,
    n: usize,
    volume_frac: f64,
    exponent: f64,
    seed: u64,
) -> QueryWorkload<D> {
    let hotspots = hotspots.max(1);
    let side = query_side(universe, volume_frac);
    let sigma = side;
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<[f64; D]> = (0..hotspots)
        .map(|_| {
            let mut c = [0.0; D];
            for (k, x) in c.iter_mut().enumerate() {
                let u = Uniform::new(universe.lo[k], universe.hi[k]).expect("valid universe");
                *x = u.sample(&mut rng);
            }
            c
        })
        .collect();
    // Cumulative Zipf weights over the hotspot ranks.
    let mut cumulative = Vec::with_capacity(hotspots);
    let mut total = 0.0;
    for h in 0..hotspots {
        total += 1.0 / ((h + 1) as f64).powf(exponent);
        cumulative.push(total);
    }
    let queries = (0..n)
        .map(|_| {
            let u: f64 = rng.random::<f64>() * total;
            let h = cumulative.partition_point(|&c| c <= u).min(hotspots - 1);
            let mut qc = centers[h];
            for (k, x) in qc.iter_mut().enumerate() {
                *x = (*x + gaussian(&mut rng) * sigma).clamp(universe.lo[k], universe.hi[k]);
            }
            clamped_cube(universe, qc, side)
        })
        .collect();
    QueryWorkload {
        name: "skewed",
        volume_frac,
        queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::universe;

    #[test]
    fn query_side_matches_volume() {
        let u = universe::<3>(10_000.0);
        let side = query_side(&u, 1e-4); // 10^-2 %
        let vol = side.powi(3);
        let frac = vol / u.volume();
        assert!((frac - 1e-4).abs() < 1e-12, "frac {frac}");
    }

    #[test]
    fn clustered_layout() {
        let u = universe::<3>(10_000.0);
        let w = clustered(&u, 5, 100, 1e-4, 42);
        assert_eq!(w.queries.len(), 500);
        assert!(w.queries.iter().all(|q| u.contains(q) && q.is_valid()));
        // Queries within one cluster must be much closer to each other than
        // two random cluster centers: compare mean pairwise distance of the
        // first cluster against universe scale.
        let c0 = &w.queries[..100];
        let mean_center = {
            let mut m = [0.0; 3];
            for q in c0 {
                let c = q.center();
                for k in 0..3 {
                    m[k] += c[k] / 100.0;
                }
            }
            m
        };
        let avg_dev: f64 = c0
            .iter()
            .map(|q| {
                let c = q.center();
                (0..3)
                    .map(|k| (c[k] - mean_center[k]).powi(2))
                    .sum::<f64>()
                    .sqrt()
            })
            .sum::<f64>()
            / 100.0;
        assert!(
            avg_dev < 1_000.0,
            "cluster should be tight relative to 10k universe, got {avg_dev}"
        );
    }

    #[test]
    fn clustered_is_deterministic() {
        let u = universe::<2>(100.0);
        let a = clustered(&u, 3, 10, 1e-3, 5);
        let b = clustered(&u, 3, 10, 1e-3, 5);
        assert_eq!(a.queries, b.queries);
    }

    #[test]
    fn uniform_queries_cover_space() {
        let u = universe::<2>(1_000.0);
        let w = uniform(&u, 400, 1e-3, 3);
        assert_eq!(w.queries.len(), 400);
        assert!(w.queries.iter().all(|q| u.contains(q)));
        // Rough coverage check: queries land in all four quadrants.
        let mut quadrants = [false; 4];
        for q in &w.queries {
            let c = q.center();
            let idx = usize::from(c[0] > 500.0) | (usize::from(c[1] > 500.0) << 1);
            quadrants[idx] = true;
        }
        assert!(quadrants.iter().all(|&b| b), "{quadrants:?}");
    }

    #[test]
    fn skewed_concentrates_on_the_hot_region() {
        let u = universe::<3>(10_000.0);
        let w = skewed(&u, 4, 400, 1e-6, 1.1, 9);
        assert_eq!(w.queries.len(), 400);
        assert_eq!(w.name, "skewed");
        assert!(w.queries.iter().all(|q| u.contains(q) && q.is_valid()));
        // Greedily bucket queries by proximity (regions are far apart
        // relative to σ); the Zipf law with exponent 1.1 gives rank 0 a
        // ~47% share, far above the 25% a uniform split over 4 regions
        // would produce.
        let mut buckets: Vec<([f64; 3], usize)> = Vec::new();
        let near = 1_000.0; // σ = one query side = 100 here; 10σ separates regions
        for q in &w.queries {
            let c = q.center();
            match buckets
                .iter_mut()
                .find(|(b, _)| (0..3).map(|k| (b[k] - c[k]).powi(2)).sum::<f64>().sqrt() < near)
            {
                Some((_, count)) => *count += 1,
                None => buckets.push((c, 1)),
            }
        }
        let max_share =
            buckets.iter().map(|&(_, c)| c).max().unwrap_or(0) as f64 / w.queries.len() as f64;
        assert!(
            max_share > 0.35,
            "hot region should absorb well over a uniform share, got {max_share}"
        );
    }

    #[test]
    fn skewed_is_deterministic_and_single_hotspot_degenerates() {
        let u = universe::<2>(1_000.0);
        let a = skewed(&u, 8, 50, 1e-3, 1.1, 5);
        let b = skewed(&u, 8, 50, 1e-3, 1.1, 5);
        assert_eq!(a.queries, b.queries);
        // One hotspot: everything lands in a single tight region.
        let w = skewed(&u, 1, 60, 1e-3, 1.1, 6);
        let c0 = w.queries[0].center();
        let side = query_side(&u, 1e-3);
        assert!(w.queries.iter().all(|q| {
            let c = q.center();
            (0..2).map(|k| (c[k] - c0[k]).powi(2)).sum::<f64>().sqrt() < 20.0 * side
        }));
    }

    #[test]
    fn large_volume_fraction_clamps_to_universe() {
        let u = universe::<2>(10.0);
        // 10 % volume in 2-d → side ≈ 3.16; still inside.
        let w = uniform(&u, 50, 0.1, 1);
        assert!(w.queries.iter().all(|q| u.contains(q)));
        for q in &w.queries {
            let frac = q.volume() / u.volume();
            assert!((frac - 0.1).abs() < 1e-9, "frac {frac}");
        }
    }
}
