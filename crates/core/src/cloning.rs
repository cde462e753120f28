//! The §4.1 analysis: *when is cloning helpful?*
//!
//! The paper studies `N` single-task jobs arriving at time zero on a
//! unit-capacity cluster, where job `j` demands `1/2^j` of each resource
//! and has unit expected duration. Three schemes are compared:
//!
//! * **flow₁** — schedule everything at once, one clone for the smallest
//!   job: `flow₁ = N − 1 + 1/h(2)`;
//! * **flow₂** — serialize jobs and clone maximally (`2^j` copies for job
//!   `j`): `flow₂ = Σ_j j / h(2^j)`;
//! * **flow₃** — smallest-demand first with two copies each:
//!   `flow₃ ≤ (N + 1) / h(2)`.
//!
//! For Pareto speedups the paper shows `flow₃ < flow₁ < flow₂` once `N`
//! is large enough — i.e. *a few clones for small jobs beat both no
//! cloning and aggressive cloning*. These closed forms are used by the
//! `analysis_cloning_regimes` experiment binary and unit tests; the
//! general marginal-gain helpers at the bottom drive the online clone
//! policy.

use crate::speedup::Speedup;
use serde::{Deserialize, Serialize};

/// `flow₁ = N − 1 + 1/h(2)` — schedule all jobs at time zero, clone only
/// job `N` once.
pub fn flow1<H: Speedup>(n: u32, h: &H) -> f64 {
    assert!(n >= 1);
    (n - 1) as f64 + 1.0 / h.factor(2)
}

/// `flow₂ = Σ_{j=1}^{N} j / h(2^j)` — run jobs one at a time, cloning as
/// aggressively as the free capacity allows.
///
/// Copy counts are clamped to `2^30` — `h` is concave and bounded, so the
/// clamp is numerically invisible while avoiding overflow.
pub fn flow2<H: Speedup>(n: u32, h: &H) -> f64 {
    assert!(n >= 1);
    (1..=n)
        .map(|j| {
            let copies = if j >= 30 { 1u32 << 30 } else { 1u32 << j };
            j as f64 / h.factor(copies)
        })
        .sum()
}

/// `flow₃ = (N + 1) / h(2)` — the upper bound for smallest-demand-first
/// with two copies per job.
pub fn flow3<H: Speedup>(n: u32, h: &H) -> f64 {
    assert!(n >= 1);
    (n + 1) as f64 / h.factor(2)
}

/// Which §4.1 regime a given `(N, h)` lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CloningRegime {
    /// `flow₃ < flow₁ < flow₂`: modest cloning of small jobs wins — the
    /// regime the paper designs DollyMP for.
    ModestCloningWins,
    /// Cloning aggressively beats the single-clone scheme (small `N` or
    /// very heavy tails).
    AggressiveCloningWins,
    /// No strict ordering established (boundary cases).
    Indeterminate,
}

/// Classify the §4.1 regime by evaluating the three closed forms.
pub fn classify_regime<H: Speedup>(n: u32, h: &H) -> CloningRegime {
    let f1 = flow1(n, h);
    let f2 = flow2(n, h);
    let f3 = flow3(n, h);
    if f3 < f1 && f1 < f2 {
        CloningRegime::ModestCloningWins
    } else if f2 < f1 {
        CloningRegime::AggressiveCloningWins
    } else {
        CloningRegime::Indeterminate
    }
}

/// Expected per-task time saved by going from `r_from` to `r_to` copies of
/// a task with mean duration `theta`: `θ (1/h(r_from) − 1/h(r_to))`.
/// Negative when `r_to < r_from`.
pub fn clone_gain<H: Speedup>(h: &H, theta: f64, r_from: u32, r_to: u32) -> f64 {
    theta * (1.0 / h.factor(r_from.max(1)) - 1.0 / h.factor(r_to.max(1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speedup::{ParetoSpeedup, SpeedupFn};

    #[test]
    fn closed_forms_match_manual_evaluation() {
        let h = ParetoSpeedup::new(2.0); // h(2) = 1.5, h(4) = 1.75, h(8) = 1.9375
        assert!((flow1(3, &h) - (2.0 + 1.0 / 1.5)).abs() < 1e-12);
        assert!((flow3(3, &h) - 4.0 / 1.5).abs() < 1e-12);
        let expect2 = 1.0 / 1.5 + 2.0 / 1.75 + 3.0 / 1.875; // h(8)=(2-1/8)/1
        assert!((flow2(3, &h) - expect2).abs() < 1e-12);
    }

    #[test]
    fn paper_ordering_holds_for_large_n() {
        // Paper: flow₃ < flow₁ < flow₂ when N > 2α − 1 and j ≥ α/(α−1).
        let alpha = 2.0;
        let h = ParetoSpeedup::new(alpha);
        for n in [5u32, 10, 40] {
            assert!(flow3(n, &h) < flow1(n, &h), "N={n}");
            assert!(flow1(n, &h) < flow2(n, &h), "N={n}");
            assert_eq!(classify_regime(n, &h), CloningRegime::ModestCloningWins);
        }
    }

    #[test]
    fn no_speedup_makes_cloning_useless() {
        let h = SpeedupFn::None;
        // With h ≡ 1: flow₁ = N, flow₃ = N + 1 → modest cloning does NOT win.
        assert_ne!(classify_regime(10, &h), CloningRegime::ModestCloningWins);
        assert_eq!(clone_gain(&h, 10.0, 1, 3), 0.0);
    }

    #[test]
    fn marginal_gain_is_decreasing_in_copies() {
        // §5: concavity makes late copies worthless.
        let h = ParetoSpeedup::new(1.5);
        let gains: Vec<f64> = (1..8).map(|r| clone_gain(&h, 100.0, r, r + 1)).collect();
        for w in gains.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "concavity → diminishing returns");
        }
        assert!(gains[0] > 0.0);
    }

    #[test]
    fn clone_gain_signs() {
        let h = ParetoSpeedup::new(2.0);
        assert!(clone_gain(&h, 10.0, 1, 2) > 0.0);
        assert!(clone_gain(&h, 10.0, 2, 1) < 0.0);
        assert_eq!(clone_gain(&h, 10.0, 2, 2), 0.0);
    }

    #[test]
    fn flow2_overflow_guard() {
        let h = ParetoSpeedup::new(2.0);
        // N = 64 would shift past u32 without the clamp.
        let v = flow2(64, &h);
        assert!(v.is_finite() && v > 0.0);
    }
}
