//! Cloning speedup functions `h(r)` — Eq. (1)–(3) of the paper.
//!
//! When `r` copies of a task run in parallel, the task effectively
//! completes when the *fastest* copy does. The paper captures this with a
//! per-phase speedup function `h(r)` so that the expected execution time
//! under `r` copies is `θ / h(r)` (Eq. 1). `h` is assumed strictly
//! increasing and concave on the positive integers with `h(1) = 1`.
//!
//! For Type-I Pareto task durations (Eq. 2) the speedup has the closed
//! form of Eq. (3):
//!
//! ```text
//! h(r) = (α − 1/r) / (α − 1) = 1 + (1 − 1/r) / (α − 1)
//! ```
//!
//! which follows because the minimum of `r` i.i.d. Pareto(x_m, α) variables
//! is Pareto(x_m, rα). This module also implements the moment fit the
//! paper's Application Master uses (§3, §5.2): given an estimated mean and
//! standard deviation of task durations, fit `(x_m, α)` and derive `h`.

use serde::{Deserialize, Serialize};

/// A cloning speedup function `h(r)`.
///
/// Implementations must satisfy the paper's assumptions: `h(1) = 1`,
/// strictly increasing, and concave over the positive integers.
pub trait Speedup {
    /// Expected speedup factor from running `r ≥ 1` concurrent copies.
    fn factor(&self, r: u32) -> f64;
}

/// The Pareto-tail speedup of Eq. (3).
///
/// ```
/// use dollymp_core::speedup::{ParetoSpeedup, Speedup};
/// let h = ParetoSpeedup::new(2.0);
/// assert!((h.factor(1) - 1.0).abs() < 1e-12);
/// assert!((h.factor(2) - 1.5).abs() < 1e-12); // (2 - 1/2) / (2 - 1)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParetoSpeedup {
    alpha: f64,
}

impl ParetoSpeedup {
    /// Speedup for Pareto tail index `alpha`.
    ///
    /// # Panics
    /// Panics unless `alpha > 1` (the mean of a Pareto variable with
    /// `α ≤ 1` is infinite, so Eq. (1) is undefined).
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha > 1.0,
            "Pareto speedup needs alpha > 1, got {alpha}"
        );
        ParetoSpeedup { alpha }
    }

    /// The tail index α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl Speedup for ParetoSpeedup {
    fn factor(&self, r: u32) -> f64 {
        let r = r.max(1) as f64;
        (self.alpha - 1.0 / r) / (self.alpha - 1.0)
    }
}

/// A serializable, cheaply copyable speedup function.
///
/// This is the type the job model carries around; schedulers call
/// [`Speedup::factor`] through it without caring which family it is.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SpeedupFn {
    /// No speedup from cloning (deterministic task durations): `h ≡ 1`.
    None,
    /// Pareto-tail speedup of Eq. (3).
    Pareto {
        /// Tail index `α > 1`.
        alpha: f64,
    },
    /// `h(r) = min(r, cap)^exponent` — a generic concave power-law used in
    /// sensitivity/ablation experiments (exponent in `(0, 1]`).
    Power {
        /// Exponent in `(0, 1]`.
        exponent: f64,
        /// Maximum useful number of copies.
        cap: u32,
    },
}

impl SpeedupFn {
    /// Pareto speedup fitted from a duration mean and standard deviation,
    /// the way the paper derives `h` from the first two moments (§3).
    /// Falls back to [`SpeedupFn::None`] when the standard deviation is
    /// zero (no straggling, cloning cannot help).
    pub fn fit_pareto(mean: f64, std: f64) -> SpeedupFn {
        match ParetoDist::fit_from_moments(mean, std) {
            Some(d) => SpeedupFn::Pareto { alpha: d.alpha() },
            None => SpeedupFn::None,
        }
    }
}

impl Speedup for SpeedupFn {
    fn factor(&self, r: u32) -> f64 {
        let r = r.max(1);
        match *self {
            SpeedupFn::None => 1.0,
            SpeedupFn::Pareto { alpha } => ParetoSpeedup::new(alpha).factor(r),
            SpeedupFn::Power { exponent, cap } => (r.min(cap.max(1)) as f64).powf(exponent),
        }
    }
}

/// A Type-I Pareto distribution `Pr{Θ > x} = (x_m / x)^α` (Eq. 2), with
/// moment fitting and inverse-CDF sampling.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParetoDist {
    xm: f64,
    alpha: f64,
}

impl ParetoDist {
    /// Construct from scale `x_m > 0` and tail index `α > 1`.
    ///
    /// # Panics
    /// Panics on non-positive `x_m` or `α ≤ 1`.
    pub fn new(xm: f64, alpha: f64) -> Self {
        assert!(xm.is_finite() && xm > 0.0, "Pareto scale must be > 0");
        assert!(alpha.is_finite() && alpha > 1.0, "Pareto alpha must be > 1");
        ParetoDist { xm, alpha }
    }

    /// Fit `(x_m, α)` so the distribution has the given mean and standard
    /// deviation. Uses the coefficient of variation:
    ///
    /// `cv² = 1 / (α (α − 2))  ⇒  α = 1 + √(1 + 1/cv²)`,
    /// `x_m = mean (α − 1) / α`.
    ///
    /// Returns `None` for non-positive mean or (effectively) zero std —
    /// deterministic durations have no Pareto fit. The fitted `α` is
    /// always `> 2` (finite variance).
    pub fn fit_from_moments(mean: f64, std: f64) -> Option<ParetoDist> {
        if mean <= 0.0 || !mean.is_finite() || std <= 0.0 || !std.is_finite() {
            return None;
        }
        let cv2 = (std / mean).powi(2);
        let alpha = 1.0 + (1.0 + 1.0 / cv2).sqrt();
        let xm = mean * (alpha - 1.0) / alpha;
        Some(ParetoDist::new(xm, alpha))
    }

    /// Scale parameter `x_m` (the minimum possible value).
    pub fn xm(&self) -> f64 {
        self.xm
    }

    /// Tail index `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Mean `α x_m / (α − 1)`.
    pub fn mean(&self) -> f64 {
        self.alpha * self.xm / (self.alpha - 1.0)
    }

    /// Standard deviation (finite only when `α > 2`).
    pub fn std(&self) -> f64 {
        if self.alpha <= 2.0 {
            f64::INFINITY
        } else {
            self.xm / (self.alpha - 1.0) * (self.alpha / (self.alpha - 2.0)).sqrt()
        }
    }

    /// Inverse-CDF sample: maps a uniform `u ∈ (0, 1]` to a Pareto draw
    /// `x_m · u^{-1/α}`. Callers supply the uniform variate so that all
    /// randomness stays under the simulation's seeded RNG.
    pub fn sample_from_uniform(&self, u: f64) -> f64 {
        let u = u.clamp(f64::MIN_POSITIVE, 1.0);
        self.xm * u.powf(-1.0 / self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pareto_speedup_matches_eq3() {
        let h = ParetoSpeedup::new(3.0);
        // h(r) = (3 - 1/r) / 2
        assert!((h.factor(1) - 1.0).abs() < 1e-12);
        assert!((h.factor(2) - 1.25).abs() < 1e-12);
        assert!((h.factor(4) - 1.375).abs() < 1e-12);
    }

    #[test]
    fn speedup_is_increasing_and_concave() {
        let h = ParetoSpeedup::new(1.8);
        let vals: Vec<f64> = (1..=16).map(|r| h.factor(r)).collect();
        for w in vals.windows(2) {
            assert!(w[1] > w[0], "h must be strictly increasing");
        }
        for w in vals.windows(3) {
            let d1 = w[1] - w[0];
            let d2 = w[2] - w[1];
            assert!(d2 <= d1 + 1e-12, "h must be concave");
        }
    }

    #[test]
    fn moment_fit_round_trips() {
        let d = ParetoDist::fit_from_moments(10.0, 4.0).unwrap();
        assert!((d.mean() - 10.0).abs() < 1e-9);
        assert!((d.std() - 4.0).abs() < 1e-9);
        assert!(d.alpha() > 2.0);
    }

    #[test]
    fn moment_fit_rejects_degenerate_inputs() {
        assert!(ParetoDist::fit_from_moments(0.0, 1.0).is_none());
        assert!(ParetoDist::fit_from_moments(10.0, 0.0).is_none());
        assert!(ParetoDist::fit_from_moments(-5.0, 1.0).is_none());
        assert!(ParetoDist::fit_from_moments(f64::NAN, 1.0).is_none());
    }

    #[test]
    fn sampling_respects_scale_floor() {
        let d = ParetoDist::new(2.0, 2.5);
        for &u in &[1.0, 0.9, 0.5, 0.1, 1e-9] {
            assert!(d.sample_from_uniform(u) >= d.xm() - 1e-12);
        }
        // u = 1 is the minimum draw.
        assert!((d.sample_from_uniform(1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_fn_families_behave() {
        let none = SpeedupFn::None;
        assert_eq!(none.factor(10), 1.0);

        let p = SpeedupFn::Pareto { alpha: 2.0 };
        assert!((p.factor(2) - 1.5).abs() < 1e-12);

        let pow = SpeedupFn::Power {
            exponent: 0.5,
            cap: 4,
        };
        assert!((pow.factor(4) - 2.0).abs() < 1e-12);
        assert!((pow.factor(16) - 2.0).abs() < 1e-12, "capped");
    }

    #[test]
    fn fit_pareto_falls_back_to_none() {
        assert_eq!(SpeedupFn::fit_pareto(10.0, 0.0), SpeedupFn::None);
        match SpeedupFn::fit_pareto(10.0, 5.0) {
            SpeedupFn::Pareto { alpha } => assert!(alpha > 2.0),
            other => panic!("expected Pareto, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn alpha_at_most_one_rejected() {
        let _ = ParetoSpeedup::new(1.0);
    }
}
