//! Order statistics and the small least-squares fit the layer metrics use.

/// The `p`-th percentile (0–100) of `values` by the nearest-rank rule.
/// Returns 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median: mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The reading of the least-disturbed rounds: the best decile (nearest
/// rank) of the per-round values. Interference on a shared host only ever
/// slows a round down, and comes in spells of seconds, so the median over
/// rounds follows the neighbours while the best decile follows the code.
/// With fewer than eleven rounds this is the best round.
pub fn undisturbed(per_round: &[f64], lower_is_better: bool) -> f64 {
    percentile(per_round, if lower_is_better { 10.0 } else { 90.0 })
}

/// The highest of p95 / p90 / p75 that leaves at least ten of `samples`
/// beyond it, or `None` when even p75 does not (fewer than 40). p99 is
/// left out on purpose: on the cracking workloads the costliest percent
/// of the ops are a handful of first cracks, whose cost hangs on where
/// the seed put them (12–15 % between seeds against 5 % for p95).
pub fn tail_percentile(samples: usize) -> Option<f64> {
    [95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| samples as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Distance between the first and third quartile as a share of the median
/// (the exclusive method, as Python's `statistics.quantiles(v, n=4)`).
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let q = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (q(3) - q(1)) / med.abs()
    }
}

/// Ordinary least squares of `y` on the regressor columns `xs` plus an
/// intercept. Returns `[intercept, slope_0, slope_1, …]`, or `None` when
/// the normal equations are singular (a constant column, too few rows).
pub fn ols(xs: &[&[f64]], y: &[f64]) -> Option<Vec<f64>> {
    let k = xs.len() + 1;
    let n = y.len();
    if n < k || xs.iter().any(|x| x.len() != n) {
        return None;
    }
    let col = |j: usize, i: usize| if j == 0 { 1.0 } else { xs[j - 1][i] };
    // Normal equations (XᵀX) b = Xᵀy as an augmented k × (k + 1) matrix.
    let mut a = vec![vec![0.0f64; k + 1]; k];
    for i in 0..n {
        for r in 0..k {
            for c in 0..k {
                a[r][c] += col(r, i) * col(c, i);
            }
            a[r][k] += col(r, i) * y[i];
        }
    }
    // Gaussian elimination with partial pivoting.
    for p in 0..k {
        let best = (p..k).max_by(|&i, &j| a[i][p].abs().total_cmp(&a[j][p].abs()))?;
        a.swap(p, best);
        let pivot = a[p][p];
        if pivot.abs() < 1e-9 * a[p].iter().fold(1.0f64, |m, v| m.max(v.abs())) {
            return None;
        }
        for r in 0..k {
            if r != p {
                let f = a[r][p] / pivot;
                for c in p..=k {
                    a[r][c] -= f * a[p][c];
                }
            }
        }
    }
    Some((0..k).map(|r| a[r][k] / a[r][r]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_follow_their_rules() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn undisturbed_reading_ignores_a_slow_spell() {
        // Per-round p50s of 20 rounds, 12 of them in a spell of interference.
        let mut rounds: Vec<f64> = (0..8).map(|i| 950.0 + f64::from(i)).collect();
        rounds.extend((0..12).map(|i| 1_100.0 + 10.0 * f64::from(i)));
        assert_eq!(undisturbed(&rounds, true), 951.0); // second best of 20
        assert!(median(&rounds) > 1_100.0);
        let rates = [300.0, 340.0, 345.0, 310.0, 344.0];
        assert_eq!(undisturbed(&rates, false), 345.0); // best of five
        assert_eq!(undisturbed(&[], true), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(2000), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(120), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(39), None);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn two_regressor_fit_recovers_synthetic_coefficients() {
        // y = 7 + 3·a + 0.5·b, with a and b not collinear.
        let a: Vec<f64> = (0..200).map(|i| f64::from(i % 17)).collect();
        let b: Vec<f64> = (0..200).map(|i| f64::from((i * 7) % 31)).collect();
        let y: Vec<f64> = a
            .iter()
            .zip(&b)
            .map(|(a, b)| 7.0 + 3.0 * a + 0.5 * b)
            .collect();
        let fit = ols(&[&a, &b], &y).expect("well-conditioned");
        for (got, want) in fit.iter().zip([7.0, 3.0, 0.5]) {
            assert!((got - want).abs() < 1e-6, "{fit:?}");
        }
        // One regressor works through the same code.
        let fit = ols(&[&a], &a.iter().map(|a| 2.0 - a).collect::<Vec<_>>()).unwrap();
        assert!((fit[0] - 2.0).abs() < 1e-6 && (fit[1] + 1.0).abs() < 1e-6);
    }

    #[test]
    fn singular_fits_are_refused() {
        let zeros = vec![0.0; 10];
        let y: Vec<f64> = (0..10).map(f64::from).collect();
        assert!(ols(&[&zeros], &y).is_none());
        assert!(ols(&[&y, &y], &y).is_none());
        assert!(ols(&[&y[..1]], &y[..1]).is_none());
    }
}
