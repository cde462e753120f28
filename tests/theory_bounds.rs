//! Theory-level integration tests: Theorem 1's competitive bound, the
//! §4.1 cloning-regime ordering and the §5.1 augmented-ratio comparison,
//! exercised at larger sample sizes than the unit tests.

use dollymp::core::cloning::{classify_regime, flow1, flow2, flow3, CloningRegime};
use dollymp::core::resources::dominant_share;
use dollymp::core::speedup::ParetoSpeedup;
use dollymp::core::theory::{
    dollymp_augmented_ratio, hrdf_augmented_ratio, list_schedule_flowtime, BfJob,
};
use dollymp::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[test]
fn theorem1_holds_on_many_random_instances() {
    let mut rng = SmallRng::seed_from_u64(20220829);
    let cap = Resources::new(1.0, 1.0);
    let mut worst: f64 = 1.0;
    for _ in 0..500 {
        let n = rng.gen_range(2..=6);
        let jobs: Vec<BfJob> = (0..n)
            .map(|_| BfJob {
                arrival: 0,
                duration: rng.gen_range(1..=9),
                demand: Resources::new(
                    rng.gen_range(1..=10) as f64 / 10.0,
                    rng.gen_range(1..=10) as f64 / 10.0,
                ),
            })
            .collect();
        let inputs: Vec<TransientJob> = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| {
                let d = dominant_share(j.demand, cap);
                TransientJob {
                    id: JobId(i as u64),
                    volume: d * j.duration as f64,
                    etime: j.duration as f64,
                    dominant: d,
                }
            })
            .collect();
        let out = transient_schedule(&inputs);
        let flow = list_schedule_flowtime(&jobs, cap, &out.order);
        let opt = BruteForceOptimal::new(cap, jobs).min_total_flowtime();
        let ratio = flow as f64 / opt as f64;
        worst = worst.max(ratio);
        assert!(
            ratio <= theorem1_bound(1.0) + 1e-9,
            "Theorem 1 violated: {flow} > 6 × {opt}"
        );
    }
    // Empirically the transient algorithm is far better than its bound.
    assert!(
        worst < 2.0,
        "worst observed ratio {worst} unexpectedly large"
    );
}

#[test]
fn cloning_regime_matches_paper_thresholds() {
    // §4.1: `h(2) > N/(N−1)` once `N > 2α − 1` gives flow₃ < flow₁
    // immediately at that threshold. flow₁ < flow₂ additionally needs the
    // `h(2^j) < j` terms (j ≥ α/(α−1)) to outweigh the first levels, which
    // costs a couple more jobs for small α — hence the `+ 3` margin for
    // the full ordering.
    for alpha_tenths in 15..=50u32 {
        let alpha = alpha_tenths as f64 / 10.0;
        let h = ParetoSpeedup::new(alpha);
        let n_threshold = (2.0 * alpha - 1.0).ceil() as u32 + 1;
        for n in n_threshold..n_threshold + 20 {
            assert!(
                flow3(n, &h) < flow1(n, &h),
                "flow₃ ≥ flow₁ at N={n}, α={alpha}"
            );
        }
        let n_full = n_threshold + 3;
        for n in n_full..n_full + 20 {
            assert!(
                flow1(n, &h) < flow2(n, &h),
                "flow₁ ≥ flow₂ at N={n}, α={alpha}"
            );
            assert_eq!(classify_regime(n, &h), CloningRegime::ModestCloningWins);
        }
    }
}

#[test]
fn augmented_ratios_dominate_hrdf_everywhere() {
    for i in 1..=200 {
        let eps = i as f64 / 20.0;
        assert!(dollymp_augmented_ratio(eps) < hrdf_augmented_ratio(eps));
        // Exact gap from the formulas: 2/ε.
        let gap = hrdf_augmented_ratio(eps) - dollymp_augmented_ratio(eps);
        assert!((gap - 2.0 / eps).abs() < 1e-9);
    }
}
