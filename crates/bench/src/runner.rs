//! The shared experiment runner: a scenario matrix fanned out across
//! worker threads, deterministically.
//!
//! Every figure/bench binary has the same skeleton — build a list of
//! scenario *cells* (a load factor, a cluster size, a scheduler name…),
//! run an independent simulation per cell, and reduce the results in
//! cell order. [`run_matrix`] centralizes that skeleton:
//!
//! * **Determinism** — each cell's work is a pure function of the cell
//!   value, its index, and a seed derived by [`cell_seed`]; nothing is
//!   shared mutably across cells, so the *results are identical* whether
//!   cells execute sequentially or on the rayon pool (pinned by the
//!   `rayon_and_sequential_agree` test below).
//! * **Order preservation** — results come back in cell order regardless
//!   of completion order, so downstream reductions (CSV rows, JSON
//!   arrays, cross-cell deltas) need no re-sorting.
//! * **One argument** — figure binaries pass [`Parallelism::Rayon`];
//!   timing binaries (`bench_scale`, `bench_obs`) pass
//!   [`Parallelism::Sequential`] so parallel cells never contend for
//!   cores.

/// How [`run_matrix`] distributes cells over workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Run cells one after another on the calling thread.
    Sequential,
    /// Fan cells out over the global rayon pool.
    Rayon,
}

/// A deterministic per-cell seed: splitmix64 over the base seed and the
/// cell index. Cells get well-separated streams even for adjacent
/// indices, and the mapping is fixed across platforms and runs.
pub fn cell_seed(base: u64, index: usize) -> u64 {
    let mut z = base ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Run `f(index, cell)` for every cell and return the results **in cell
/// order**. With [`Parallelism::Rayon`] the cells execute concurrently
/// on the global pool; `f` must therefore be a pure function of its
/// arguments (derive randomness from [`cell_seed`], don't mutate shared
/// state) — under that contract the output is byte-identical to the
/// sequential run.
pub fn run_matrix<C, R, F>(cells: &[C], par: Parallelism, f: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(usize, &C) -> R + Sync,
{
    match par {
        Parallelism::Sequential => cells.iter().enumerate().map(|(i, c)| f(i, c)).collect(),
        Parallelism::Rayon => {
            let indexed: Vec<(usize, &C)> = cells.iter().enumerate().collect();
            rayon::par_map_slice(&indexed, &|&(i, c)| f(i, c))
        }
    }
}

/// Best-of-N smoke gate against a committed reference timing, used by
/// `bench_scale --smoke`.
///
/// `measure(attempt)` (1-based) returns one timing sample in
/// nanoseconds; the gate keeps the **best** sample seen so far and
/// passes as soon as it is within `limit_factor ×` the reference.
/// Gating on the best of up to `attempts` runs filters host-load
/// bursts — a descheduling blip inflates one attempt, a genuine
/// regression inflates every attempt. Returns `Ok(best)` on pass and
/// `Err(best)` after `attempts` failures; progress lines go to stdout
/// so CI logs show every attempt.
pub fn best_of_smoke<F: FnMut(u32) -> u64>(
    label: &str,
    reference_ns: u64,
    limit_factor: u64,
    attempts: u32,
    mut measure: F,
) -> Result<u64, u64> {
    let limit = limit_factor * reference_ns;
    let mut best = u64::MAX;
    for attempt in 1..=attempts {
        best = best.min(measure(attempt));
        println!(
            "smoke attempt {attempt}: {label} best {best} ns vs committed reference \
             {reference_ns} ns (limit {limit} ns)"
        );
        if best <= limit {
            println!("smoke OK");
            return Ok(best);
        }
    }
    Err(best)
}

/// Build a `serde_json` object from `(key, value)` pairs — the shared
/// helper for `BENCH_*.json` artifacts (the vendored `serde_json` keeps
/// object insertion order, so artifacts stay diff-stable).
pub fn json_obj(pairs: Vec<(&str, serde_json::Value)>) -> serde_json::Value {
    serde_json::Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dollymp_cluster::prelude::*;
    use dollymp_workload::{generate_google, GoogleConfig};

    #[test]
    fn results_preserve_cell_order() {
        let cells: Vec<u64> = (0..32).collect();
        for par in [Parallelism::Sequential, Parallelism::Rayon] {
            let out = run_matrix(&cells, par, |i, &c| {
                // Uneven work so parallel completion order differs.
                std::thread::sleep(std::time::Duration::from_micros(((c * 7919) % 97) * 10));
                (i, c * 2)
            });
            assert_eq!(out.len(), cells.len());
            for (i, (idx, v)) in out.iter().enumerate() {
                assert_eq!(*idx, i);
                assert_eq!(*v, cells[i] * 2);
            }
        }
    }

    #[test]
    fn cell_seeds_are_deterministic_and_distinct() {
        let seeds: Vec<u64> = (0..1000).map(|i| cell_seed(42, i)).collect();
        assert_eq!(
            seeds,
            (0..1000).map(|i| cell_seed(42, i)).collect::<Vec<_>>()
        );
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len(), "adjacent cells must not collide");
        assert_ne!(cell_seed(42, 0), cell_seed(43, 0), "base seed matters");
    }

    /// The determinism contract end to end: full simulations fanned out
    /// on the rayon pool produce reports byte-identical to the
    /// sequential run.
    #[test]
    fn rayon_and_sequential_agree_on_simulations() {
        let cluster = ClusterSpec::paper_30_node();
        let cells: Vec<(&str, usize)> =
            vec![("dollymp2", 0), ("dollymp0", 1), ("fifo", 2), ("tetris", 3)];
        let run = |par: Parallelism| {
            run_matrix(&cells, par, |i, &(name, _)| {
                let jobs = generate_google(&GoogleConfig {
                    njobs: 25,
                    seed: cell_seed(7, i),
                    ..Default::default()
                });
                let sampler = DurationSampler::new(cell_seed(7, i), StragglerModel::ParetoFit);
                let mut s = dollymp_schedulers::by_name(name).expect("known scheduler");
                let r = simulate(
                    &cluster,
                    jobs,
                    &sampler,
                    s.as_mut(),
                    &EngineConfig::default(),
                );
                // Scrub the only non-deterministic fields (wall-clock
                // overhead timings) before byte-comparing.
                serde_json::to_string(&r.scrubbed()).expect("report serializes")
            })
        };
        let seq = run(Parallelism::Sequential);
        let par = run(Parallelism::Rayon);
        assert_eq!(seq, par, "rayon fan-out must not change any report");
        // And re-running is reproducible outright.
        assert_eq!(seq, run(Parallelism::Sequential));
    }

    #[test]
    fn best_of_smoke_passes_on_any_good_attempt() {
        // Attempt 1 is a load burst, attempt 2 is fine: the gate passes
        // with the best sample and stops measuring.
        let mut calls = 0;
        let r = best_of_smoke("t", 100, 2, 3, |attempt| {
            calls += 1;
            if attempt == 1 {
                900
            } else {
                150
            }
        });
        assert_eq!(r, Ok(150));
        assert_eq!(calls, 2);
    }

    #[test]
    fn best_of_smoke_fails_with_best_sample_after_all_attempts() {
        let mut calls = 0;
        let r = best_of_smoke("t", 100, 2, 3, |_| {
            calls += 1;
            500 - calls * 10
        });
        assert_eq!(r, Err(470));
        assert_eq!(calls, 3);
    }

    #[test]
    fn json_obj_preserves_insertion_order() {
        let v = json_obj(vec![
            ("zeta", serde_json::Value::UInt(1)),
            ("alpha", serde_json::Value::UInt(2)),
        ]);
        let s = serde_json::to_string(&v).expect("serializes");
        assert!(
            s.find("zeta").expect("zeta") < s.find("alpha").expect("alpha"),
            "objects must keep insertion order: {s}"
        );
    }
}
