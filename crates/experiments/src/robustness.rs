//! Robustness matrix: how gracefully does each tiering system degrade
//! when its inputs degrade?
//!
//! The paper argues Colloid's latency-balancing is robust where
//! hotness-packing heuristics are fragile. This driver stresses that claim
//! directly: the §2.1 GUPS setup runs under increasing fault intensity
//! ([`FaultLevel`]) — noisy/stale/dropped CHA windows, transiently failing
//! migrations, lost PEBS samples, and a degraded migration path — and
//! reports steady-state throughput against the fault-free run of the same
//! policy, together with the injected-fault and migration-retry counters
//! from [`crate::runner::RunResult`].
//!
//! Not a paper figure; see EXPERIMENTS.md ("Robustness") for recorded
//! results and the fault model's hardware rationale in DESIGN.md.

use memsim::{BandwidthPhase, FaultPlan};
use simkit::SimTime;
use tiersys::SystemKind;

use crate::grid::{Ctx, EndState, Harness, Opts};
use crate::report::{fault_counts, mops, ratio, retry_counts, Table};
use crate::runner::{run as run_exp, RunConfig, RunResult};
use crate::scenario::{build_gups, GupsScenario, Policy};

/// Contention intensity the matrix runs at (2× — enough interconnect
/// pressure that Colloid's placement decisions matter).
pub const MATRIX_INTENSITY: usize = 2;

/// Graded fault intensities for the robustness sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultLevel {
    /// No faults (the reference run).
    None,
    /// Light PMU jitter and rare migration failures.
    Mild,
    /// Sustained counter noise, occasional stale/dropped windows, lossy
    /// PEBS, 5 % migration failures.
    Moderate,
    /// Heavy noise, frequent stale/dropped windows, 15 % migration
    /// failures, and a long migration-bandwidth collapse to 25 %.
    Severe,
}

impl FaultLevel {
    /// All levels, mildest first.
    pub const ALL: [FaultLevel; 4] = [
        FaultLevel::None,
        FaultLevel::Mild,
        FaultLevel::Moderate,
        FaultLevel::Severe,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            FaultLevel::None => "none",
            FaultLevel::Mild => "mild",
            FaultLevel::Moderate => "moderate",
            FaultLevel::Severe => "severe",
        }
    }

    /// The fault plan at this level. `tick` anchors the severe level's
    /// bandwidth-degradation phase in simulated time.
    pub fn plan(self, tick: SimTime) -> FaultPlan {
        match self {
            FaultLevel::None => FaultPlan::none(),
            FaultLevel::Mild => FaultPlan {
                counter_noise: 0.1,
                counter_stale_prob: 0.02,
                migration_fail_prob: 0.01,
                pebs_loss_prob: 0.05,
                ..FaultPlan::none()
            },
            FaultLevel::Moderate => FaultPlan {
                counter_noise: 0.2,
                counter_stale_prob: 0.05,
                counter_drop_prob: 0.02,
                migration_fail_prob: 0.05,
                pebs_loss_prob: 0.15,
                ..FaultPlan::none()
            },
            FaultLevel::Severe => FaultPlan {
                counter_noise: 0.4,
                counter_stale_prob: 0.1,
                counter_drop_prob: 0.05,
                migration_fail_prob: 0.15,
                pebs_loss_prob: 0.3,
                bandwidth_phases: vec![BandwidthPhase {
                    start: tick * 200,
                    end: Some(tick * 500),
                    factor: 0.25,
                }],
                ..FaultPlan::none()
            },
        }
    }
}

/// The combined-fault plan of the end-to-end robustness test: 20 % counter
/// noise, 5 % transient migration failures, and one mid-run
/// bandwidth-degradation phase.
pub fn combined_faults(tick: SimTime) -> FaultPlan {
    FaultPlan {
        counter_noise: 0.2,
        migration_fail_prob: 0.05,
        bandwidth_phases: vec![BandwidthPhase {
            start: tick * 60,
            end: Some(tick * 120),
            factor: 0.5,
        }],
        ..FaultPlan::none()
    }
}

/// The §2.1 GUPS scenario at [`MATRIX_INTENSITY`] with `level`'s faults.
pub fn scenario(level: FaultLevel, tick: SimTime) -> GupsScenario {
    let mut sc = GupsScenario::intensity(MATRIX_INTENSITY);
    sc.faults = level.plan(tick);
    sc
}

/// Runs one (policy × fault level) cell of the matrix.
pub fn run_cell(
    kind: SystemKind,
    colloid: bool,
    level: FaultLevel,
    quick: bool,
) -> (RunResult, EndState) {
    let rc = if quick {
        RunConfig::steady_state().quick()
    } else {
        RunConfig::steady_state()
    };
    let sc = scenario(level, SimTime::from_us(100.0));
    let mut exp = build_gups(&sc, Policy::System { kind, colloid });
    let r = run_exp(&mut exp, &rc);
    let end = EndState::of(&exp.machine, &[sc.gups_config().ws_range()]);
    (r, end)
}

/// The robustness matrix (`grid robustness`): every system ± Colloid,
/// each under every fault level, mildest first.
pub struct Matrix(pub Opts);

impl Harness for Matrix {
    /// `(system, colloid, fault level)`.
    type Cell = (SystemKind, bool, FaultLevel);
    type Outcome = (RunResult, EndState);

    fn cells(&self) -> Vec<(String, Self::Cell)> {
        let mut cells = Vec::new();
        for kind in SystemKind::ALL {
            for colloid in [false, true] {
                let policy = Policy::System { kind, colloid }.name();
                for level in FaultLevel::ALL {
                    let label = format!("{policy} / {}", level.label());
                    cells.push((label, (kind, colloid, level)));
                }
            }
        }
        cells
    }

    fn run(&mut self, &(kind, colloid, level): &Self::Cell) -> Self::Outcome {
        run_cell(kind, colloid, level, self.0.quick)
    }

    fn end_state(outcome: &Self::Outcome) -> EndState {
        outcome.1
    }

    fn finish(&mut self, results: Vec<(Self::Cell, Self::Outcome)>, _: &mut Ctx) -> Vec<String> {
        let mut t = Table::new(vec![
            "system",
            "faults",
            "Mops/s",
            "vs fault-free",
            "injected",
            "retry s/r/d",
        ]);
        let mut baseline = 0.0;
        for ((kind, colloid, level), (r, _)) in results {
            // Levels run mildest first, so `None` sets each policy's
            // fault-free reference.
            let vs = if level == FaultLevel::None {
                baseline = r.ops_per_sec;
                "1.00x".into()
            } else if baseline > 0.0 {
                ratio(r.ops_per_sec / baseline)
            } else {
                "-".into()
            };
            t.row(vec![
                Policy::System { kind, colloid }.name(),
                level.label().into(),
                mops(r.ops_per_sec),
                vs,
                fault_counts(&r.fault_stats),
                retry_counts(r.retry_stats.as_ref()),
            ]);
        }
        vec![format!(
            "== Robustness: throughput under injected faults (GUPS @ 2x) ==\n{}\n",
            t.render()
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_level_yields_a_valid_plan() {
        let tick = SimTime::from_us(100.0);
        for level in FaultLevel::ALL {
            level.plan(tick).validate().unwrap();
        }
        assert!(!FaultLevel::None.plan(tick).is_active());
        assert!(FaultLevel::Severe.plan(tick).is_active());
        combined_faults(tick).validate().unwrap();
    }

    #[test]
    fn severity_is_monotone() {
        let tick = SimTime::from_us(100.0);
        let plans: Vec<FaultPlan> = FaultLevel::ALL.iter().map(|l| l.plan(tick)).collect();
        for w in plans.windows(2) {
            assert!(w[0].counter_noise <= w[1].counter_noise);
            assert!(w[0].migration_fail_prob <= w[1].migration_fail_prob);
            assert!(w[0].pebs_loss_prob <= w[1].pebs_loss_prob);
        }
    }

    #[test]
    fn one_cell_runs_under_faults() {
        // A heavily shortened Moderate cell: the point is that faults are
        // actually injected and the result stays finite.
        let tick = SimTime::from_us(100.0);
        let mut exp = build_gups(
            &scenario(FaultLevel::Moderate, tick),
            Policy::System {
                kind: SystemKind::Hemem,
                colloid: true,
            },
        );
        let rc = RunConfig {
            min_warmup_ticks: 20,
            max_warmup_ticks: 40,
            measure_ticks: 20,
            window: 20,
            tolerance: 0.05,
            collect_series: false,
        };
        let r = run_exp(&mut exp, &rc);
        assert!(r.ops_per_sec.is_finite() && r.ops_per_sec > 0.0);
        assert!(r.fault_stats.total() > 0, "no faults injected");
    }
}
