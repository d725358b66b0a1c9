//! The best-case placement oracle (paper §2.1).
//!
//! "We determine the best-case memory placement for each configuration by
//! manually placing 0–100% of the hot set in the default tier (in
//! increments of 10) using the Linux mbind API; the remaining hot set is
//! placed in the alternate tier and any remaining capacity in the default
//! tier is filled with randomly chosen pages from the cold set. We call the
//! highest throughput across these manual placements as the best-case
//! application throughput."

use crate::runner::{run, RunConfig, RunResult};
use crate::scenario::{build_gups, GupsScenario, Policy};

/// Result of the best-case sweep.
#[derive(Debug, Clone)]
pub struct OracleResult {
    /// `(hot fraction in default tier, result)` for every sweep point.
    pub points: Vec<(f64, RunResult)>,
    /// Index of the best point.
    pub best: usize,
}

impl OracleResult {
    /// The sweep's `(hot fraction, result)` points and the best of them
    /// (the last of equally fast points).
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty.
    pub fn new(points: Vec<(f64, RunResult)>) -> Self {
        let best = points
            .iter()
            .enumerate()
            .max_by(|a, b| a.1 .1.ops_per_sec.total_cmp(&b.1 .1.ops_per_sec))
            .map(|(i, _)| i)
            .expect("oracle sweep needs at least one point");
        OracleResult { points, best }
    }

    /// The best-case throughput (ops/s).
    pub fn best_ops_per_sec(&self) -> f64 {
        self.points[self.best].1.ops_per_sec
    }

    /// The best hot-set fraction in the default tier.
    pub fn best_fraction(&self) -> f64 {
        self.points[self.best].0
    }

    /// The best point's full result.
    pub fn best_result(&self) -> &RunResult {
        &self.points[self.best].1
    }
}

/// Sweeps manual placements over the given hot-set fractions and returns
/// the per-point results plus the best.
pub fn best_case_over(
    scenario: &GupsScenario,
    fractions: impl IntoIterator<Item = f64>,
    rc: &RunConfig,
) -> OracleResult {
    let run_at = |hot_default_fraction| {
        let mut exp = build_gups(
            scenario,
            Policy::Static {
                hot_default_fraction,
            },
        );
        (hot_default_fraction, run(&mut exp, rc))
    };
    OracleResult::new(fractions.into_iter().map(run_at).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_picks_full_default_at_zero_contention() {
        // Without contention the default tier is strictly faster: the best
        // placement packs the whole hot set there (p* = 1).
        let sc = GupsScenario::intensity(0);
        let r = best_case_over(&sc, [0.0, 0.5, 1.0], &RunConfig::static_placement());
        assert_eq!(r.best_fraction(), 1.0, "best at 0x must be 100% hot");
        assert!(r.best_ops_per_sec() > 0.0);
    }

    #[test]
    fn oracle_moves_hot_set_out_under_contention() {
        // At 3x the default tier is overloaded: placements keeping most of
        // the hot set out of it must win.
        let sc = GupsScenario::intensity(3);
        let r = best_case_over(&sc, [0.0, 0.5, 1.0], &RunConfig::static_placement());
        assert!(
            r.best_fraction() < 1.0,
            "best at 3x keeps hot pages out of the default tier, got {}",
            r.best_fraction()
        );
    }
}
