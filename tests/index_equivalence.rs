//! Equivalence check for the hierarchical free-capacity index: every
//! [`CapacityOverlay`] query must return exactly what a linear scan over
//! a plain `Vec<Resources>` returns.
//!
//! One seeded property drives a single [`CapacityIndex`] through the
//! three kinds of step the engine and the schedulers take:
//!
//! * base mutations (`set_free` / `add_free` / `sub_free`), as the engine
//!   applies between decision points for faults, retirements and launches;
//! * a new batch (`begin_batch`), which leaves the previous batches'
//!   overlay stamps behind in the tree;
//! * overlay `commit`s inside the current batch.
//!
//! After every step each query is compared with the `Vec` reference, so a
//! later batch is checked over a mutated base with stale stamps from
//! earlier batches still in place. The golden corpus (`tests/golden.rs`)
//! pins the reports the schedulers build on these queries.

use dollymp::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// First server with id ≥ `start` that holds `d`.
fn lin_first_fit(free: &[Resources], start: usize, d: Resources) -> Option<ServerId> {
    (start..free.len())
        .find(|&i| d.fits_in(free[i]))
        .map(|i| ServerId(i as u32))
}

/// Server with the highest Tetris score among those holding `d`; the
/// first strictly greater score wins ties.
fn lin_best_fit(free: &[Resources], d: Resources) -> Option<ServerId> {
    let mut best: Option<(f64, usize)> = None;
    for (i, f) in free.iter().enumerate() {
        if !d.fits_in(*f) {
            continue;
        }
        let score = best_fit_score(d, *f);
        if best.map(|(b, _)| score > b).unwrap_or(true) {
            best = Some((score, i));
        }
    }
    best.map(|(_, i)| ServerId(i as u32))
}

/// A small whole-number demand, so ties and exact fits are common.
fn demand(rng: &mut SmallRng) -> Resources {
    Resources::new(
        rng.gen_range(0..=10) as f64,
        rng.gen_range(0..=20) as f64 / 2.0,
    )
}

/// Compare every overlay query with the linear scans over `eff`.
fn check_overlay(ovl: &CapacityOverlay<'_>, eff: &[Resources], rng: &mut SmallRng, step: &str) {
    for (i, f) in eff.iter().enumerate() {
        assert_eq!(ovl.free(ServerId(i as u32)), *f, "{step}: free({i})");
    }
    let max = eff.iter().copied().fold(Resources::ZERO, Resources::max);
    assert_eq!(ovl.max_free(), max, "{step}: max_free");
    let total: Resources = eff.iter().copied().sum();
    assert_eq!(ovl.total_free(), total, "{step}: total_free");
    for _ in 0..3 {
        let d = demand(rng);
        let start = rng.gen_range(0..=eff.len());
        assert_eq!(
            ovl.fits_anywhere(d),
            eff.iter().any(|f| d.fits_in(*f)),
            "{step}: fits_anywhere({d:?})"
        );
        assert_eq!(
            ovl.first_fit(d),
            lin_first_fit(eff, 0, d),
            "{step}: first_fit({d:?})"
        );
        assert_eq!(
            ovl.next_fit_at_or_after(start, d),
            lin_first_fit(eff, start, d),
            "{step}: next_fit_at_or_after({start}, {d:?})"
        );
        assert_eq!(
            ovl.best_fit(d),
            lin_best_fit(eff, d),
            "{step}: best_fit({d:?})"
        );
    }
}

/// Compare the base values (no overlay) with `base`.
fn check_base(idx: &CapacityIndex, base: &[Resources], step: &str) {
    for (i, f) in base.iter().enumerate() {
        assert_eq!(idx.free(ServerId(i as u32)), *f, "{step}: base free({i})");
    }
    let max = base.iter().copied().fold(Resources::ZERO, Resources::max);
    assert_eq!(idx.max_free(), max, "{step}: base max_free");
    let total: Resources = base.iter().copied().sum();
    assert_eq!(idx.total_free(), total, "{step}: base total_free");
    assert_eq!(idx.fold_total_free(), total, "{step}: fold_total_free");
}

/// Run `batches` batches over one index of `n` servers.
fn run_sequence(seed: u64, n: usize, batches: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut base: Vec<Resources> = (0..n).map(|_| demand(&mut rng) * 3).collect();
    let mut idx = CapacityIndex::from_free(&base);
    for batch in 0..batches {
        // Base mutations between batches, mirrored on the reference.
        for _ in 0..rng.gen_range(0..=4) {
            let s = rng.gen_range(0..n);
            let r = demand(&mut rng);
            let id = ServerId(s as u32);
            match rng.gen_range(0..3) {
                0 => {
                    base[s] = r;
                    idx.set_free(id, r);
                }
                1 => {
                    base[s] += r;
                    idx.add_free(id, r);
                }
                _ => {
                    let take = base[s].min(r);
                    base[s] -= take;
                    idx.sub_free(id, take);
                }
            }
            check_base(&idx, &base, &format!("batch {batch} base {s}"));
        }

        // A new batch starts from the base, whatever earlier batches wrote.
        let ovl = idx.begin_batch();
        let mut eff = base.clone();
        check_overlay(&ovl, &eff, &mut rng, &format!("batch {batch} begin"));

        // Commits, each on a server the reference says has room.
        for c in 0..rng.gen_range(0..=2 * n) {
            let d = demand(&mut rng);
            let fitting: Vec<usize> = (0..n).filter(|&i| d.fits_in(eff[i])).collect();
            if fitting.is_empty() {
                continue;
            }
            let s = fitting[rng.gen_range(0..fitting.len())];
            ovl.commit(ServerId(s as u32), d);
            eff[s] -= d;
            check_overlay(&ovl, &eff, &mut rng, &format!("batch {batch} commit {c}"));
        }

        // Overlay commits never reach the base.
        check_base(&idx, &base, &format!("batch {batch} end"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sizes around powers of two exercise the padding leaves.
    #[test]
    fn overlay_queries_match_a_vec_across_batches(seed in 0u64..1_000_000) {
        for n in [1usize, 2, 3, 7, 8, 9, 31, 33, 100] {
            run_sequence(seed ^ n as u64, n, 12);
        }
    }
}
