//! Dataset generators mirroring §6.1 of the paper.
//!
//! Two families:
//!
//! * [`uniform_boxes`] — the paper's synthetic dataset: boxes uniformly
//!   placed in a `10 000`-unit universe; 99 % of sides drawn uniformly from
//!   `[1, 10]`, the remaining 1 % from `[10, 1000]` (the "heavy tail").
//! * [`neuro_like`] — our substitute for the proprietary 450 M-cylinder rat
//!   brain model: a Gaussian cluster mixture of small elongated boxes with
//!   strong density skew. See DESIGN.md §5 for the substitution rationale.
//!
//! All generators are deterministic given the seed.

use crate::geom::{Aabb, Record};
use rand::distr::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Standard Normal sample via Box–Muller (avoids pulling in `rand_distr`).
fn gaussian(rng: &mut StdRng) -> f64 {
    loop {
        let u1: f64 = rng.random();
        let u2: f64 = rng.random();
        if u1 > f64::EPSILON {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

/// Declarative description of a generated dataset — what benchmark tables
/// print and EXPERIMENTS.md records.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetSpec {
    /// Human-readable family ("uniform", "neuro-like").
    pub family: &'static str,
    /// Number of objects.
    pub n: usize,
    /// Universe side length (universe is the cube `[0, side]^D`).
    pub universe_side: f64,
    /// RNG seed.
    pub seed: u64,
}

/// The cubic universe `[0, side]^D` used by the generators.
pub fn universe<const D: usize>(side: f64) -> Aabb<D> {
    Aabb::new([0.0; D], [side; D])
}

/// Paper §6.1 synthetic dataset: uniform positions in a `10 000^D` universe,
/// sides `[1, 10]` for 99 % of objects and `[10, 1000]` for 1 %.
pub fn uniform_boxes<const D: usize>(n: usize, seed: u64) -> Vec<Record<D>> {
    uniform_boxes_in(n, 10_000.0, seed)
}

/// [`uniform_boxes`] with a configurable universe side (tests use small ones).
pub fn uniform_boxes_in<const D: usize>(n: usize, side: f64, seed: u64) -> Vec<Record<D>> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Side-length scale follows the paper's 10 000-unit universe; scale
    // proportionally for other universes so density characteristics persist.
    let s = side / 10_000.0;
    let small = Uniform::new_inclusive(1.0 * s, 10.0 * s).expect("static range");
    let large = Uniform::new_inclusive(10.0 * s, 1000.0 * s).expect("static range");
    let pos = Uniform::new(0.0, side).expect("static range");

    (0..n)
        .map(|id| {
            let heavy = rng.random::<f64>() < 0.01;
            let mut lo = [0.0; D];
            let mut hi = [0.0; D];
            for k in 0..D {
                let len = if heavy {
                    large.sample(&mut rng)
                } else {
                    small.sample(&mut rng)
                };
                let p = pos.sample(&mut rng);
                // Clamp into the universe so every object is queryable.
                lo[k] = p.min(side - len).max(0.0);
                hi[k] = (lo[k] + len).min(side);
            }
            Record::new(id as u64, Aabb::new(lo, hi))
        })
        .collect()
}

/// Parameters of the neuroscience-like clustered dataset.
#[derive(Clone, Debug)]
pub(crate) struct NeuroParams {
    /// Universe side length (paper's brain sample is a small dense volume).
    pub universe_side: f64,
    /// Number of density clusters (brain regions).
    pub clusters: usize,
    /// Cluster standard deviation as a fraction of the universe side.
    pub sigma_frac: f64,
    /// Fraction of objects placed uniformly as background noise.
    pub background_frac: f64,
    /// Long-axis length range of the cylinder-like boxes.
    pub long_side: (f64, f64),
    /// Thin-axis length range.
    pub thin_side: (f64, f64),
}

impl Default for NeuroParams {
    fn default() -> Self {
        Self {
            universe_side: 1_000.0,
            clusters: 24,
            sigma_frac: 0.035,
            background_frac: 0.05,
            // Neuron morphology segments: elongated, thin boxes.
            long_side: (2.0, 12.0),
            thin_side: (0.2, 1.5),
        }
    }
}

/// Substitute for the rat-brain model: heavily skewed Gaussian clusters of
/// small elongated ("cylinder-approximating") boxes plus sparse background.
pub fn neuro_like<const D: usize>(n: usize, seed: u64) -> Vec<Record<D>> {
    neuro_like_with(n, seed, &NeuroParams::default())
}

/// [`neuro_like`] with explicit parameters.
pub(crate) fn neuro_like_with<const D: usize>(
    n: usize,
    seed: u64,
    p: &NeuroParams,
) -> Vec<Record<D>> {
    assert!(p.clusters > 0, "need at least one cluster");
    let mut rng = StdRng::seed_from_u64(seed);
    let side = p.universe_side;
    let sigma = p.sigma_frac * side;
    let pos = Uniform::new(0.0, side).expect("static range");
    let long = Uniform::new_inclusive(p.long_side.0, p.long_side.1).expect("static range");
    let thin = Uniform::new_inclusive(p.thin_side.0, p.thin_side.1).expect("static range");

    // Cluster centers and skewed weights: a few regions dominate, like the
    // dense neocortical columns in the brain model.
    let centers: Vec<[f64; D]> = (0..p.clusters)
        .map(|_| {
            let mut c = [0.0; D];
            for x in c.iter_mut() {
                *x = pos.sample(&mut rng);
            }
            c
        })
        .collect();
    let weights: Vec<f64> = (0..p.clusters)
        .map(|i| 1.0 / (1.0 + i as f64)) // Zipf-ish skew
        .collect();
    let total_w: f64 = weights.iter().sum();

    (0..n)
        .map(|id| {
            let center = if rng.random::<f64>() < p.background_frac {
                let mut c = [0.0; D];
                for x in c.iter_mut() {
                    *x = pos.sample(&mut rng);
                }
                c
            } else {
                // Pick a cluster by weight, then a Gaussian offset.
                let mut pick = rng.random::<f64>() * total_w;
                let mut ci = 0;
                for (i, w) in weights.iter().enumerate() {
                    if pick < *w {
                        ci = i;
                        break;
                    }
                    pick -= w;
                }
                let mut c = centers[ci];
                for x in c.iter_mut() {
                    *x = (*x + gaussian(&mut rng) * sigma).clamp(0.0, side);
                }
                c
            };
            // Cylinder-like: one random long axis, the rest thin.
            let long_axis = rng.random_range(0..D);
            let mut sides = [0.0; D];
            for (k, sd) in sides.iter_mut().enumerate() {
                *sd = if k == long_axis {
                    long.sample(&mut rng)
                } else {
                    thin.sample(&mut rng)
                };
            }
            let mut lo = [0.0; D];
            let mut hi = [0.0; D];
            for k in 0..D {
                lo[k] = (center[k] - sides[k] * 0.5).clamp(0.0, side);
                hi[k] = (center[k] + sides[k] * 0.5).clamp(lo[k], side);
            }
            Record::new(id as u64, Aabb::new(lo, hi))
        })
        .collect()
}

/// Degenerate datasets used by edge-case tests and failure injection.
pub mod degenerate {
    use super::*;

    /// `n` identical boxes — the worst case for value-based cracking.
    pub fn identical<const D: usize>(n: usize) -> Vec<Record<D>> {
        let b = Aabb::new([5.0; D], [6.0; D]);
        (0..n).map(|id| Record::new(id as u64, b)).collect()
    }

    /// Points on a diagonal line (zero-extent boxes).
    pub fn diagonal_points<const D: usize>(n: usize) -> Vec<Record<D>> {
        (0..n)
            .map(|id| {
                let p = [id as f64; D];
                Record::new(id as u64, Aabb::point(p))
            })
            .collect()
    }

    /// All objects share one lower coordinate but have varying extents —
    /// midpoint artificial refinement cannot separate them on that dim.
    pub fn shared_lower<const D: usize>(n: usize) -> Vec<Record<D>> {
        (0..n)
            .map(|id| {
                let mut hi = [1.0 + id as f64; D];
                hi[0] = 1.0 + (id % 7) as f64;
                Record::new(id as u64, Aabb::new([0.0; D], hi))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::max_extents;

    #[test]
    fn uniform_is_deterministic_and_in_universe() {
        let a = uniform_boxes::<3>(500, 42);
        let b = uniform_boxes::<3>(500, 42);
        assert_eq!(a, b);
        let u = universe::<3>(10_000.0);
        assert!(a.iter().all(|r| u.contains(&r.mbb)));
        assert!(a.iter().all(|r| r.mbb.is_valid()));
    }

    #[test]
    fn uniform_seeds_differ() {
        let a = uniform_boxes::<3>(100, 1);
        let b = uniform_boxes::<3>(100, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn uniform_has_heavy_tail() {
        let a = uniform_boxes::<3>(20_000, 7);
        let ext = max_extents(&a);
        // With 1 % heavy objects among 20 000 samples a >10-unit side is
        // essentially guaranteed.
        assert!(
            ext.iter().any(|&e| e > 10.0),
            "expected heavy tail, got {ext:?}"
        );
        // And nothing exceeds the paper's 1000-unit cap.
        assert!(ext.iter().all(|&e| e <= 1000.0));
    }

    #[test]
    fn neuro_is_deterministic_clamped_and_skewed() {
        let a = neuro_like::<3>(4_000, 9);
        assert_eq!(a, neuro_like::<3>(4_000, 9));
        let u = universe::<3>(NeuroParams::default().universe_side);
        assert!(a.iter().all(|r| u.contains(&r.mbb) && r.mbb.is_valid()));

        // Skew check: split the universe into 8 octants; the most populated
        // octant should hold well above the uniform share (12.5 %).
        let side = NeuroParams::default().universe_side;
        let mut counts = [0usize; 8];
        for r in &a {
            let c = r.mbb.center();
            let idx = (usize::from(c[0] > side / 2.0))
                | (usize::from(c[1] > side / 2.0) << 1)
                | (usize::from(c[2] > side / 2.0) << 2);
            counts[idx] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert!(
            max as f64 > 0.2 * a.len() as f64,
            "expected clustered skew, octant counts {counts:?}"
        );
    }

    #[test]
    fn neuro_boxes_are_elongated() {
        let a = neuro_like::<3>(2_000, 3);
        let mut elongated = 0usize;
        for r in &a {
            let mut ext = [r.mbb.extent(0), r.mbb.extent(1), r.mbb.extent(2)];
            ext.sort_by(|x, y| x.partial_cmp(y).unwrap());
            if ext[2] > 2.0 * ext[1] {
                elongated += 1;
            }
        }
        assert!(
            elongated > a.len() / 2,
            "cylinder-like boxes should dominate: {elongated}/{}",
            a.len()
        );
    }

    #[test]
    fn degenerate_generators() {
        let i = degenerate::identical::<2>(10);
        assert!(i.windows(2).all(|w| w[0].mbb == w[1].mbb));
        let d = degenerate::diagonal_points::<2>(5);
        assert_eq!(d[3].mbb, Aabb::point([3.0, 3.0]));
        let s = degenerate::shared_lower::<2>(8);
        assert!(s.iter().all(|r| r.mbb.lo == [0.0, 0.0]));
    }

    #[test]
    fn gaussian_is_roughly_standard() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
