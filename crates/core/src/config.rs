//! QUASII configuration and the τ threshold schedule (paper §5.1, Eq. 1).

use crate::simd::SimdPolicy;
use quasii_common::snapshot::{corrupt, SnapshotError};

/// Which representative coordinate assigns an object to a slice.
///
/// The paper uses the lower coordinate and notes (§5.1, footnote 1) that
/// "the upper coordinate or the object's center can equally be used" — all
/// three are implemented; the ablation bench compares them. The choice
/// determines the direction of query extension: with lower-coordinate
/// assignment only the query's lower side grows (by the maximum object
/// extent), with the center both sides grow by half, with the upper only
/// the upper side.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AssignBy {
    /// Assign by `lower(b)` — the paper's choice (free: part of the MBB).
    #[default]
    Lower,
    /// Assign by the MBB center.
    Center,
    /// Assign by `upper(b)`.
    Upper,
}

impl AssignBy {
    /// The mode's word in the engine snapshot and the shard manifest.
    pub fn code(self) -> u64 {
        match self {
            Self::Lower => 0,
            Self::Center => 1,
            Self::Upper => 2,
        }
    }

    /// Inverse of [`code`](Self::code); an unknown word is a corrupt
    /// snapshot or manifest.
    pub fn from_code(v: u64) -> Result<Self, SnapshotError> {
        match v {
            0 => Ok(Self::Lower),
            1 => Ok(Self::Center),
            2 => Ok(Self::Upper),
            other => Err(corrupt(format!("unknown assignment mode {other}"))),
        }
    }

    /// Parses the CLI/harness spelling (`lower` | `center` | `upper`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lower" => Some(Self::Lower),
            "center" => Some(Self::Center),
            "upper" => Some(Self::Upper),
            _ => None,
        }
    }
}

/// Tuning knobs of [`crate::Quasii`].
///
/// The paper stresses that QUASII "has only one configuration parameter, a
/// size threshold τ" — [`tau`](Self::tau). The remaining fields are the
/// footnote-1 assignment choice and one execution choice absent from the
/// paper (SIMD kernels), which changes no result. An engine has no thread
/// knob: a batch runs on its calling thread, and a `quasii-shard`
/// deployment runs its engines' batches in parallel.
#[derive(Clone, Debug)]
pub struct QuasiiConfig {
    /// Maximum number of objects in a fully refined slice at the *finest*
    /// level (τ_d in the paper). The paper's evaluation uses 60 (§6.1),
    /// mirroring the R-Tree node capacity.
    pub tau: usize,
    /// Representative coordinate for slice assignment (paper: lower).
    pub assign_by: AssignBy,
    /// Kernel-generation policy for the SIMD column kernels (see
    /// [`crate::simd`]). `Auto` (the default) honors the `QUASII_SIMD`
    /// environment override, then runtime CPU detection; forcing
    /// `Scalar` runs the bit-for-bit oracle kernels. Results are
    /// identical for every value.
    pub simd: SimdPolicy,
}

impl Default for QuasiiConfig {
    fn default() -> Self {
        Self {
            tau: 60,
            assign_by: AssignBy::Lower,
            simd: SimdPolicy::Auto,
        }
    }
}

impl QuasiiConfig {
    /// Config with a custom leaf threshold τ.
    pub fn with_tau(tau: usize) -> Self {
        Self {
            tau: tau.max(1),
            ..Self::default()
        }
    }

    /// Config with a custom assignment coordinate.
    pub fn with_assignment(assign_by: AssignBy) -> Self {
        Self {
            assign_by,
            ..Self::default()
        }
    }

    /// Returns `self` unchanged: an engine has no thread knob. Kept while
    /// the frozen benchmark is its only caller.
    #[doc(hidden)]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Returns `self` with the assignment coordinate set (chainable —
    /// unlike [`with_assignment`](Self::with_assignment), which is a
    /// constructor).
    pub fn with_assign_by(mut self, assign_by: AssignBy) -> Self {
        self.assign_by = assign_by;
        self
    }

    /// Returns `self` with the SIMD kernel-generation policy set
    /// (chainable). `with_simd(SimdPolicy::Scalar)` is the oracle
    /// configuration the vector kernels are verified against.
    pub fn with_simd(mut self, simd: SimdPolicy) -> Self {
        self.simd = simd;
        self
    }
}

/// Computes the per-level thresholds `τ_0 >= τ_1 >= … >= τ_{D-1} = τ`.
///
/// Paper Eq. 1: the number of cuts per dimension needed for `⌈n/τ⌉` final
/// partitions is `r = ⌈(n/τ)^(1/d)⌉`; thresholds grow geometrically upwards:
/// `τ_{l-1} = r · τ_l`.
pub(crate) fn tau_schedule<const D: usize>(n: usize, tau: usize) -> [usize; D] {
    let tau = tau.max(1);
    let partitions = n.div_ceil(tau).max(1);
    let r = (partitions as f64).powf(1.0 / D as f64).ceil() as usize;
    let r = r.max(1);
    let mut out = [tau; D];
    // out[D-1] = tau; walk upwards multiplying by r.
    for l in (0..D.saturating_sub(1)).rev() {
        out[l] = out[l + 1].saturating_mul(r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_matches_eq1_example() {
        // n = 1_000_000, τ = 60, d = 3 → partitions = 16667,
        // r = ceil(16667^(1/3)) = ceil(25.54) = 26.
        let t = tau_schedule::<3>(1_000_000, 60);
        assert_eq!(t[2], 60);
        assert_eq!(t[1], 60 * 26);
        assert_eq!(t[0], 60 * 26 * 26);
    }

    #[test]
    fn schedule_is_monotone_nonincreasing() {
        let t = tau_schedule::<3>(123_456, 60);
        assert!(t[0] >= t[1] && t[1] >= t[2]);
        let t2 = tau_schedule::<2>(10_000, 100);
        assert!(t2[0] >= t2[1]);
        assert_eq!(t2[1], 100);
    }

    #[test]
    fn tiny_datasets_degenerate_to_tau() {
        // n <= τ → r = 1 → all levels equal τ.
        assert_eq!(tau_schedule::<3>(10, 60), [60, 60, 60]);
        assert_eq!(tau_schedule::<3>(0, 60), [60, 60, 60]);
    }

    #[test]
    fn tau_zero_is_clamped() {
        let t = tau_schedule::<2>(100, 0);
        assert!(t.iter().all(|&x| x >= 1));
        assert_eq!(QuasiiConfig::with_tau(0).tau, 1);
    }

    #[test]
    fn one_dimension_keeps_single_threshold() {
        assert_eq!(tau_schedule::<1>(1000, 10), [10]);
    }

    #[test]
    fn default_config_matches_paper() {
        let c = QuasiiConfig::default();
        assert_eq!(c.tau, 60);
        assert_eq!(c.simd, SimdPolicy::Auto, "kernel dispatch defaults to auto");
        assert_eq!(
            QuasiiConfig::default().with_simd(SimdPolicy::Scalar).simd,
            SimdPolicy::Scalar
        );
        assert_eq!(
            QuasiiConfig::default()
                .with_assign_by(AssignBy::Upper)
                .assign_by,
            AssignBy::Upper
        );
    }

    #[test]
    fn assign_by_parse_round_trips() {
        for (name, mode) in [
            ("lower", AssignBy::Lower),
            ("center", AssignBy::Center),
            ("upper", AssignBy::Upper),
        ] {
            assert_eq!(AssignBy::parse(name), Some(mode));
        }
        assert_eq!(AssignBy::parse("sideways"), None);
    }

    #[test]
    fn assign_by_codes_round_trip() {
        for mode in [AssignBy::Lower, AssignBy::Center, AssignBy::Upper] {
            assert_eq!(AssignBy::from_code(mode.code()).ok(), Some(mode));
        }
        assert!(matches!(
            AssignBy::from_code(3),
            Err(SnapshotError::Corrupt(why)) if why == "unknown assignment mode 3"
        ));
    }
}
