//! The audit sweep's precision policy: contract selection, calibration,
//! and the deterministic exact-path cross-check.
//!
//! The whole-frame audit is advisory by design — decisions are
//! bit-identical with it on or off — which makes it the one place the
//! engine may trade the f32 bit-exactness contract for coverage. This
//! module is the guard rail around that trade:
//!
//! - [`AuditPrecision`] is the **typed** opt-in (never an env-string):
//!   a [`Contract`] plus the three calibrated safety parameters,
//!   validated at pipeline/service construction time (an unsupported
//!   rung is a typed error, not a silent fallback to exact).
//! - [`AuditPrecision::calibrated`] is the calibration pass: it runs
//!   the Monte-Carlo suffix both exactly and approximately on caller
//!   supplied crops of the trained net and derives the divergence
//!   tolerance and the σ-inflation margin from the worst observed
//!   per-pixel error, with an explicit safety factor.
//! - [`crosscheck_tile`] is the online cross-check's deterministic
//!   sampler: a pure seed-chained hash decides which verified tiles are
//!   re-run through the exact path, so the set of cross-checked tiles
//!   replays bit-identically across runs, thread counts and hosts.
//! - [`PrecisionOutcome`] reports what actually happened — how many
//!   tiles ran approximate, how many were cross-checked, the worst
//!   observed divergence, and whether the audit hard-failed back to
//!   the exact path.

use el_kernels::{ApproxRung, Contract, KernelPolicy, ResolvedKernels};
use el_nn::Tensor;
use el_seg::MsdNet;
use serde::{Deserialize, Serialize};

use crate::bayes::{mc_stats, BayesStats, McJob, ScratchPool};

/// Default fraction of verified tiles re-run through the exact path by
/// the online cross-check: 1 in 8.
pub const DEFAULT_CROSSCHECK_FRACTION: f64 = 0.125;

/// Multiplier applied to the worst divergence observed during
/// calibration when deriving the run-time tolerance and margin: the
/// calibration crops are a sample, not a proof, so the deployed bound
/// keeps explicit headroom over them.
pub const CALIBRATION_SAFETY_FACTOR: f32 = 4.0;

/// Floor for the calibrated divergence tolerance, so a rung that shows
/// no measurable divergence on the calibration crops (e.g. a tiny net
/// whose scores quantise losslessly) does not hard-fail on the first
/// real frame's last-ulp noise.
pub const MIN_DIVERGENCE_TOLERANCE: f32 = 1e-6;

/// The audit sweep's precision policy. [`AuditPrecision::exact`] is the
/// default and changes nothing; an approximate policy routes the
/// sweep's Monte-Carlo suffix GEMMs through the selected
/// [`el_kernels::ApproxRung`] under the calibrated safety parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AuditPrecision {
    /// The contract class the sweep runs under.
    pub contract: Contract,
    /// Fraction of verified tiles deterministically re-run through the
    /// exact path ([`crosscheck_tile`]). Ignored under
    /// [`Contract::Exact`].
    pub crosscheck_fraction: f64,
    /// Hard-fail bound: when a cross-checked tile's worst per-pixel
    /// `|µ_approx − µ_exact|` / `|σ_approx − σ_exact|` exceeds this,
    /// the audit falls back to the exact path for the rest of the sweep
    /// (counted in `el-metrics`).
    pub divergence_tolerance: f32,
    /// The σ-inflation bound folded into the warning rule and the
    /// advisory classification: the audit's τ is lowered by this margin
    /// (in score units) and the advisory's warning fraction is padded
    /// by it, so an approximate audit can only escalate *more* eagerly
    /// than the exact path — never suppress an Alarm it would raise.
    pub sigma_margin: f32,
}

impl AuditPrecision {
    /// The exact policy: bit-identical to the pre-precision audit.
    pub const fn exact() -> Self {
        AuditPrecision {
            contract: Contract::Exact,
            crosscheck_fraction: 0.0,
            divergence_tolerance: 0.0,
            sigma_margin: 0.0,
        }
    }

    /// An approximate policy at the given rung with uncalibrated,
    /// deliberately generous safety parameters (cross-check 1 tile in
    /// 8, tolerance 5e-3, margin 2e-2 in score units — a τ of 0.125
    /// keeps 84% of its slack). Prefer [`AuditPrecision::calibrated`],
    /// which measures the trained net instead of assuming.
    pub const fn approximate(rung: ApproxRung) -> Self {
        AuditPrecision {
            contract: Contract::Approximate(rung),
            crosscheck_fraction: DEFAULT_CROSSCHECK_FRACTION,
            divergence_tolerance: 5e-3,
            sigma_margin: 2e-2,
        }
    }

    /// The kernel policy this precision selects (auto tier — forced
    /// tiers still apply through `EL_FORCE_KERNEL`, so CI's matrix legs
    /// pin approximate resolutions too).
    pub fn policy(&self) -> KernelPolicy {
        KernelPolicy::exact().with_contract(self.contract)
    }

    /// Calibration pass: measures the per-pixel quantisation error of
    /// the Monte-Carlo suffix on the trained `net` over the supplied
    /// calibration crops (prefix tensors are computed here; pass crops
    /// representative of deployment frames), and derives the run-time
    /// parameters from the worst observation with
    /// [`CALIBRATION_SAFETY_FACTOR`] headroom:
    ///
    /// - `divergence_tolerance = max(factor · worst, floor)` — the
    ///   cross-check hard-fail bound;
    /// - `sigma_margin = factor · (1 + sigma_factor) · worst` — a pixel
    ///   whose exact score `µ + sigma_factor·σ` sits within this margin
    ///   below τ may flip under approximation, so shifting τ down by it
    ///   makes the approximate warning map a superset of the exact one
    ///   whenever divergence stays within the calibrated bound.
    ///
    /// # Errors
    ///
    /// Propagates [`el_kernels::KernelError`] when the rung is
    /// unsupported on the resolved tier.
    ///
    /// # Panics
    ///
    /// Panics if `crops` is empty or `samples == 0`.
    pub fn calibrated(
        net: &MsdNet,
        crops: &[Tensor],
        samples: usize,
        seed: u64,
        rung: ApproxRung,
        sigma_factor: f32,
    ) -> Result<Self, el_kernels::KernelError> {
        assert!(!crops.is_empty(), "calibration needs at least one crop");
        let kernels = KernelPolicy::approximate(rung).resolve()?;
        let exact_kernels = ResolvedKernels::active_exact();
        let pool = ScratchPool::new();
        let mut worst = 0.0f32;
        for (i, crop) in crops.iter().enumerate() {
            let job = [McJob::whole(crop, seed.wrapping_add(i as u64), (0, 0))];
            let stats = |k: &ResolvedKernels| {
                mc_stats(net, &job, samples, false, &pool, k)
                    .pop()
                    .expect("one job in, one result out")
            };
            let (exact, approx) = (stats(&exact_kernels), stats(&kernels));
            worst = worst.max(stats_divergence(&approx, &exact));
        }
        Ok(AuditPrecision {
            contract: Contract::Approximate(rung),
            crosscheck_fraction: DEFAULT_CROSSCHECK_FRACTION,
            divergence_tolerance: (CALIBRATION_SAFETY_FACTOR * worst).max(MIN_DIVERGENCE_TOLERANCE),
            sigma_margin: CALIBRATION_SAFETY_FACTOR * (1.0 + sigma_factor) * worst,
        })
    }

    /// Validates the policy, **including** kernel support: an
    /// approximate contract whose rung the resolved tier cannot execute
    /// is rejected here — this is what makes `try_new`-time validation
    /// a typed error instead of a run-time surprise.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.crosscheck_fraction.is_finite() || !(0.0..=1.0).contains(&self.crosscheck_fraction)
        {
            return Err("audit precision: crosscheck_fraction must be in [0, 1]".into());
        }
        if !self.divergence_tolerance.is_finite() || self.divergence_tolerance < 0.0 {
            return Err("audit precision: divergence_tolerance must be finite and >= 0".into());
        }
        if !self.sigma_margin.is_finite() || self.sigma_margin < 0.0 {
            return Err("audit precision: sigma_margin must be finite and >= 0".into());
        }
        self.policy()
            .resolve()
            .map_err(|e| format!("audit precision: {e}"))?;
        Ok(())
    }
}

impl Default for AuditPrecision {
    /// The exact policy.
    fn default() -> Self {
        Self::exact()
    }
}

/// What the precision machinery actually did during one audit sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrecisionOutcome {
    /// The contract the sweep was configured with.
    pub contract: Contract,
    /// The σ-inflation margin the report's warning rule was shifted by
    /// (zero for exact sweeps) — the advisory classification pads its
    /// warning fraction with the same value.
    pub sigma_margin: f32,
    /// Tiles whose statistics came from the approximate path.
    pub tiles_approx: usize,
    /// Tiles re-run through the exact path by the online cross-check.
    pub tiles_crosschecked: usize,
    /// Tiles computed on the exact path because of a hard fallback (the
    /// diverging tile itself plus every tile after it).
    pub tiles_fallback: usize,
    /// Worst per-pixel µ/σ divergence observed across the
    /// cross-checked tiles.
    pub max_divergence: f32,
    /// `true` when a cross-check exceeded the calibrated tolerance and
    /// the sweep hard-failed back to exact.
    pub fell_back: bool,
}

impl PrecisionOutcome {
    /// The outcome of an exact sweep: nothing approximate happened.
    pub const fn exact() -> Self {
        PrecisionOutcome {
            contract: Contract::Exact,
            sigma_margin: 0.0,
            tiles_approx: 0,
            tiles_crosschecked: 0,
            tiles_fallback: 0,
            max_divergence: 0.0,
            fell_back: false,
        }
    }
}

impl Default for PrecisionOutcome {
    fn default() -> Self {
        Self::exact()
    }
}

/// SplitMix64 finaliser — the avalanche behind the cross-check's
/// seed-chained tile selection.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Domain-separation constant mixed into the cross-check hash so tile
/// selection never correlates with the Monte-Carlo sample seeds derived
/// from the same audit seed.
const CROSSCHECK_DOMAIN: u64 = 0xC405_0A7C_5C5A_11E5;

/// Deterministic cross-check selection: `true` when tile `tile_index`
/// of the sweep seeded by `seed` must be re-run through the exact path.
/// A pure hash of `(seed, tile_index)` compared against `fraction` of
/// the u64 range — independent of verification order, thread count and
/// budget truncation, so a replayed audit cross-checks exactly the same
/// tiles.
pub fn crosscheck_tile(seed: u64, tile_index: usize, fraction: f64) -> bool {
    if fraction <= 0.0 {
        return false;
    }
    if fraction >= 1.0 {
        return true;
    }
    let h = splitmix64(
        seed ^ CROSSCHECK_DOMAIN ^ (tile_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    // Compare in f64: exact enough for a sampling fraction, and free of
    // u64-overflow corner cases at fraction == 1.
    (h as f64) < fraction * (u64::MAX as f64)
}

/// Worst per-pixel divergence between two Bayesian statistics: the max
/// over `|Δµ|` and `|Δσ|` across every class and pixel.
pub(crate) fn stats_divergence(a: &BayesStats, b: &BayesStats) -> f32 {
    debug_assert_eq!(a.mean.shape(), b.mean.shape());
    let mean_div = a
        .mean
        .as_slice()
        .iter()
        .zip(b.mean.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max);
    let std_div = a
        .std
        .as_slice()
        .iter()
        .zip(b.std.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max);
    mean_div.max(std_div)
}

/// Resolves a validated precision policy to kernels, panicking with the
/// kernel error on failure — unreachable after
/// [`AuditPrecision::validate`] accepted the policy at construction
/// time, and a loud failure (matching [`el_kernels::Kernels::active`])
/// if a caller skipped validation.
pub(crate) fn resolve_validated(precision: &AuditPrecision) -> ResolvedKernels {
    precision
        .policy()
        .resolve()
        .unwrap_or_else(|e| panic!("audit precision policy failed to resolve: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_policy_validates_and_is_default() {
        let p = AuditPrecision::exact();
        assert!(p.validate().is_ok());
        assert_eq!(p, AuditPrecision::default());
        assert!(p.contract.is_exact());
        assert_eq!(PrecisionOutcome::default(), PrecisionOutcome::exact());
    }

    #[test]
    fn invalid_parameters_are_rejected_with_reasons() {
        let mut p = AuditPrecision::approximate(ApproxRung::F16);
        p.crosscheck_fraction = 1.5;
        assert!(p.validate().unwrap_err().contains("crosscheck_fraction"));
        let mut p = AuditPrecision::approximate(ApproxRung::F16);
        p.divergence_tolerance = f32::NAN;
        assert!(p.validate().unwrap_err().contains("divergence_tolerance"));
        let mut p = AuditPrecision::approximate(ApproxRung::F16);
        p.sigma_margin = -0.1;
        assert!(p.validate().unwrap_err().contains("sigma_margin"));
    }

    #[test]
    fn crosscheck_selection_is_deterministic_and_scales() {
        let total = 4096usize;
        for &fraction in &[0.0, 0.125, 0.5, 1.0] {
            let picked: Vec<usize> = (0..total)
                .filter(|&i| crosscheck_tile(42, i, fraction))
                .collect();
            // Replays exactly.
            let again: Vec<usize> = (0..total)
                .filter(|&i| crosscheck_tile(42, i, fraction))
                .collect();
            assert_eq!(picked, again);
            // Hit rate tracks the fraction (binomial, generous slack).
            let expect = fraction * total as f64;
            assert!(
                (picked.len() as f64 - expect).abs() <= 4.0 * (total as f64).sqrt(),
                "fraction {fraction}: {} picked, expected ~{expect}",
                picked.len()
            );
        }
        // Different seeds select different tile sets.
        let a: Vec<usize> = (0..total)
            .filter(|&i| crosscheck_tile(1, i, 0.25))
            .collect();
        let b: Vec<usize> = (0..total)
            .filter(|&i| crosscheck_tile(2, i, 0.25))
            .collect();
        assert_ne!(a, b);
    }
}
