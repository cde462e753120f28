//! Knapsack oracles used by Algorithm 1.
//!
//! Step 6 of Algorithm 1 maximizes the *number* of jobs packed subject to a
//! total-volume budget — a 0/1 knapsack with **unit profits**. As §4.2.1
//! notes, this special case is solved exactly by greedily taking items in
//! increasing weight order. [`unit_profit_knapsack`] implements that
//! oracle; [`knapsack_01_dp`] is an exact dynamic program over integer
//! weights kept in-tree to (a) validate the greedy in tests and (b) support
//! experiments with non-unit profits.

/// Greedy unit-profit knapsack: select the maximum number of items whose
/// weights sum to at most `capacity`.
///
/// Returns the selected indices **in increasing weight order** (ties broken
/// by index, so the result is deterministic). Items with non-finite or
/// negative weights are skipped defensively.
///
/// This greedy is *exactly* optimal for unit profits: exchanging any chosen
/// item for a heavier unchosen one can never increase the count.
///
/// ```
/// use dollymp_core::knapsack::unit_profit_knapsack;
/// let picked = unit_profit_knapsack(&[5.0, 1.0, 3.0, 2.0], 6.0);
/// assert_eq!(picked, vec![1, 3, 2]); // weights 1 + 2 + 3 = 6
/// ```
pub fn unit_profit_knapsack(weights: &[f64], capacity: f64) -> Vec<usize> {
    let mut keys = Vec::new();
    weight_order_into(weights.iter().copied(), &mut keys);
    let mut used = 0.0f64;
    let mut picked = Vec::new();
    for (bits, i) in keys {
        let w = f64::from_bits(bits);
        if used + w <= capacity {
            used += w;
            picked.push(i as usize);
        } else {
            // Weights are sorted increasing; nothing later fits either.
            break;
        }
    }
    picked
}

/// The order the greedy takes items in, both here and in Algorithm 1, as
/// sort keys into a reusable buffer: one `(weight bits, index)` pair per
/// item whose weight is finite and non-negative, sorted ascending. Adding `0.0` turns `-0.0` into `+0.0`,
/// and the bits of non-negative finite floats order as their values, so
/// one integer sort gives increasing weight with ties broken by index;
/// `f64::from_bits` of a key's first half is the item's weight.
///
/// # Panics
/// Panics on more than `u32::MAX` items.
pub(crate) fn weight_order_into(
    weights: impl IntoIterator<Item = f64>,
    keys: &mut Vec<(u64, u32)>,
) {
    keys.clear();
    for (i, w) in weights.into_iter().enumerate() {
        let w = w + 0.0;
        if w.is_finite() && w >= 0.0 {
            keys.push((
                w.to_bits(),
                u32::try_from(i).expect("at most u32::MAX items"),
            ));
        }
    }
    keys.sort_unstable();
}

/// Exact 0/1 knapsack by dynamic programming over integer weights.
///
/// Returns `(best_profit, selected_indices)`; the selection is one optimal
/// set (ties broken toward smaller indices). Runs in `O(n · capacity)`
/// time and `O(n · capacity)` bits of memory for backtracking.
///
/// # Panics
/// Panics if `weights` and `profits` have different lengths.
///
/// ```
/// use dollymp_core::knapsack::knapsack_01_dp;
/// let (best, sel) = knapsack_01_dp(&[3, 4, 5], &[4, 5, 6], 7);
/// assert_eq!(best, 9);           // items 0 and 1
/// assert_eq!(sel, vec![0, 1]);
/// ```
pub fn knapsack_01_dp(weights: &[u64], profits: &[u64], capacity: u64) -> (u64, Vec<usize>) {
    assert_eq!(
        weights.len(),
        profits.len(),
        "weights/profits length mismatch"
    );
    let n = weights.len();
    let cap = capacity as usize;
    // dp[w] = best profit with capacity w; take[i][w] = item i used at w.
    let mut dp = vec![0u64; cap + 1];
    let mut take = vec![false; n * (cap + 1)];
    for i in 0..n {
        let wi = weights[i] as usize;
        if wi > cap {
            continue;
        }
        let pi = profits[i];
        for w in (wi..=cap).rev() {
            let candidate = dp[w - wi] + pi;
            if candidate > dp[w] {
                dp[w] = candidate;
                take[i * (cap + 1) + w] = true;
            }
        }
    }
    // Backtrack.
    let mut w = cap;
    let mut selected = Vec::new();
    for i in (0..n).rev() {
        if take[i * (cap + 1) + w] {
            selected.push(i);
            w -= weights[i] as usize;
        }
    }
    selected.reverse();
    (dp[cap], selected)
}

/// Scale a slice of non-negative `f64` weights to integers with `scale`
/// units per 1.0, rounding up so that a scaled solution never overfills the
/// true capacity. Helper for feeding fractional volumes to
/// [`knapsack_01_dp`].
pub fn scale_weights(weights: &[f64], scale: f64) -> Vec<u64> {
    weights
        .iter()
        .map(|&w| {
            if !w.is_finite() || w <= 0.0 {
                0
            } else {
                (w * scale).ceil() as u64
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn greedy_takes_smallest_first() {
        assert_eq!(unit_profit_knapsack(&[4.0, 2.0, 1.0], 3.0), vec![2, 1]);
    }

    #[test]
    fn greedy_empty_and_zero_capacity() {
        assert!(unit_profit_knapsack(&[], 10.0).is_empty());
        assert!(unit_profit_knapsack(&[1.0], 0.5).is_empty());
        // Zero-weight items always fit.
        assert_eq!(unit_profit_knapsack(&[0.0, 0.0], 0.0), vec![0, 1]);
    }

    #[test]
    fn greedy_skips_pathological_weights() {
        let picked = unit_profit_knapsack(&[f64::NAN, 1.0, -2.0, f64::INFINITY], 5.0);
        assert_eq!(picked, vec![1]);
    }

    #[test]
    fn greedy_tie_break_is_by_index() {
        assert_eq!(unit_profit_knapsack(&[2.0, 2.0, 2.0], 4.0), vec![0, 1]);
    }

    #[test]
    fn dp_matches_textbook_example() {
        let (best, sel) = knapsack_01_dp(&[1, 3, 4, 5], &[1, 4, 5, 7], 7);
        assert_eq!(best, 9); // weights 3 + 4, profits 4 + 5
        assert_eq!(sel, vec![1, 2]);
    }

    #[test]
    fn dp_item_heavier_than_capacity_ignored() {
        let (best, sel) = knapsack_01_dp(&[10], &[100], 5);
        assert_eq!(best, 0);
        assert!(sel.is_empty());
    }

    #[test]
    fn dp_selection_is_consistent_with_profit() {
        let w = [2u64, 3, 5, 7, 1];
        let p = [10u64, 5, 15, 7, 6];
        let (best, sel) = knapsack_01_dp(&w, &p, 10);
        let wsum: u64 = sel.iter().map(|&i| w[i]).sum();
        let psum: u64 = sel.iter().map(|&i| p[i]).sum();
        assert!(wsum <= 10);
        assert_eq!(psum, best);
    }

    #[test]
    fn scale_weights_rounds_up() {
        assert_eq!(scale_weights(&[0.1001, 0.0, -1.0], 1000.0), vec![101, 0, 0]);
    }

    proptest! {
        /// The §4.2.1 claim: greedy-by-weight is optimal for unit profits.
        #[test]
        fn greedy_matches_dp_on_unit_profits(
            weights in prop::collection::vec(0u64..50, 0..12),
            capacity in 0u64..120,
        ) {
            let f_weights: Vec<f64> = weights.iter().map(|&w| w as f64).collect();
            let greedy = unit_profit_knapsack(&f_weights, capacity as f64);
            let profits = vec![1u64; weights.len()];
            let (best, _) = knapsack_01_dp(&weights, &profits, capacity);
            prop_assert_eq!(greedy.len() as u64, best);
        }

        /// DP never overfills and never returns a profit below any single item.
        #[test]
        fn dp_is_feasible_and_dominates_singletons(
            items in prop::collection::vec((1u64..30, 1u64..30), 1..10),
            capacity in 1u64..80,
        ) {
            let (w, p): (Vec<u64>, Vec<u64>) = items.into_iter().unzip();
            let (best, sel) = knapsack_01_dp(&w, &p, capacity);
            let wsum: u64 = sel.iter().map(|&i| w[i]).sum();
            prop_assert!(wsum <= capacity);
            for i in 0..w.len() {
                if w[i] <= capacity {
                    prop_assert!(best >= p[i]);
                }
            }
        }

        /// Greedy output is always feasible and sorted by weight.
        #[test]
        fn greedy_feasible_and_sorted(
            weights in prop::collection::vec(0.0f64..20.0, 0..20),
            capacity in 0.0f64..60.0,
        ) {
            let picked = unit_profit_knapsack(&weights, capacity);
            let total: f64 = picked.iter().map(|&i| weights[i]).sum();
            prop_assert!(total <= capacity + 1e-9);
            for pair in picked.windows(2) {
                prop_assert!(weights[pair[0]] <= weights[pair[1]]);
            }
        }
    }
}
