//! Graceful-degradation matrix: hard tier faults, with and without the
//! tiering supervisor.
//!
//! The robustness matrix ([`crate::robustness`]) stresses *soft* faults —
//! noisy counters, transient migration failures — that a well-built system
//! rides out on its own. This driver injects the *hard* faults of
//! `memsim::faults` (permanent capacity loss, permanent bandwidth
//! collapse, migration-engine outages) and measures what the
//! [`tiersys::Supervisor`] buys: each (fault × system) cell runs twice,
//! once with the bare system and once wrapped in the supervisor, over an
//! identical machine and workload. Until the fault fires the two runs are
//! bit-identical (the supervisor in `Normal` mode imposes no limits), so
//! every post-fault difference is attributable to supervision.
//!
//! The headline metric is the arrival-weighted mean application access
//! latency over the post-fault window — the quantity the paper argues
//! tiering should manage — together with the supervisor's mode-transition
//! timeline and time-to-recover from [`crate::runner::RunResult`].
//!
//! Not a paper figure; see EXPERIMENTS.md ("Graceful degradation") for
//! recorded results and DESIGN.md §9 for the supervisor design.

use memsim::{BandwidthPhase, EngineOutage, FaultPlan, TierId, TierShrink, Vpn};
use simkit::SimTime;
use tiersys::{Supervisor, SupervisorConfig, SystemKind, TieringSystem};

use crate::grid::{Ctx, EndState, Harness, Opts};
use crate::report::{engine_suffix, mode_timeline, mops, retry_counts, txn_counts, Table};
use crate::runner::{run as run_exp, RunConfig, RunResult, TickSample};
use crate::scenario::{build_gups, Experiment, GupsScenario, Policy};

/// Contention intensity of the degradation matrix (2x, as in the
/// robustness matrix).
pub const MATRIX_INTENSITY: usize = 2;

/// Alternate-tier frames left after the tier-shrink fault. The machine
/// maps 18 560 pages against an 8 192-frame default tier, so feasibility
/// needs at least 10 368 alternate frames; this leaves a thin margin and
/// forces a modest forced evacuation at the shrink instant.
pub const SHRUNK_ALT_FRAMES: u64 = 11_136;

/// Default-tier headroom the tier-shrink scenario reserves at first touch
/// (rescue space for the supervisor's hottest-first drain).
pub const SHRINK_HEADROOM: u64 = 1024;

/// The three hard-fault scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HardFault {
    /// The alternate tier permanently loses most of its frames
    /// (24 576 → [`SHRUNK_ALT_FRAMES`]) early in the run, while the hot
    /// set still lives there: failing hardware holding hot data.
    TierShrink,
    /// The migration path permanently collapses to 10 % of its bandwidth
    /// after the systems have converged.
    BwCollapse,
    /// The migration engine is wedged for a 120-tick window after
    /// convergence; every attempted copy aborts and still burns engine
    /// time.
    EngineOutage,
}

impl HardFault {
    /// All scenarios.
    pub const ALL: [HardFault; 3] = [
        HardFault::TierShrink,
        HardFault::BwCollapse,
        HardFault::EngineOutage,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            HardFault::TierShrink => "tier-shrink",
            HardFault::BwCollapse => "bw-collapse",
            HardFault::EngineOutage => "engine-outage",
        }
    }

    /// Tick index at which the fault fires (quick mode shortens the
    /// post-convergence scenarios, not the early-shrink one).
    pub fn fault_tick(self, quick: bool) -> usize {
        match self {
            HardFault::TierShrink => 40,
            HardFault::BwCollapse | HardFault::EngineOutage => {
                if quick {
                    150
                } else {
                    250
                }
            }
        }
    }

    /// Total timeline length in ticks.
    pub fn run_ticks(self, quick: bool) -> usize {
        match self {
            HardFault::TierShrink => {
                if quick {
                    200
                } else {
                    400
                }
            }
            HardFault::BwCollapse | HardFault::EngineOutage => {
                if quick {
                    300
                } else {
                    500
                }
            }
        }
    }

    /// The fault plan, anchored at the machine tick duration.
    pub fn plan(self, tick: SimTime, quick: bool) -> FaultPlan {
        let at = tick * self.fault_tick(quick) as u64;
        match self {
            HardFault::TierShrink => FaultPlan {
                tier_shrinks: vec![TierShrink {
                    tier: TierId::ALTERNATE,
                    at,
                    new_frames: SHRUNK_ALT_FRAMES,
                }],
                ..FaultPlan::none()
            },
            HardFault::BwCollapse => FaultPlan {
                bandwidth_phases: vec![BandwidthPhase {
                    start: at,
                    end: None,
                    factor: 0.1,
                }],
                ..FaultPlan::none()
            },
            HardFault::EngineOutage => FaultPlan {
                engine_outages: vec![EngineOutage {
                    start: at,
                    end: at + tick * 120,
                }],
                ..FaultPlan::none()
            },
        }
    }

    /// The GUPS scenario carrying this fault.
    ///
    /// The two post-convergence faults (bandwidth collapse, engine outage)
    /// pair the fault with a contention jump (2× → 3×) at the same
    /// instant: by fault time every system has converged and gone
    /// migration-quiet, so a fault alone would touch nothing. The jump
    /// re-creates the migration demand of Figure 9's right column — and
    /// the broken migration path turns servicing that demand from a
    /// rebalance into pure churn.
    pub fn scenario(self, tick: SimTime, quick: bool) -> GupsScenario {
        let mut sc = GupsScenario::intensity(MATRIX_INTENSITY);
        let at = tick * self.fault_tick(quick) as u64;
        sc.faults = self.plan(tick, quick);
        match self {
            HardFault::TierShrink => sc.first_touch_headroom = SHRINK_HEADROOM,
            HardFault::BwCollapse | HardFault::EngineOutage => {
                sc.antagonist_change = Some((at, 15));
            }
        }
        sc
    }
}

/// One (fault × system × supervision) cell.
pub struct CellResult {
    /// Policy display name (with "(supervised)" when wrapped).
    pub name: String,
    /// The runner's aggregate result (timeline series included).
    pub result: RunResult,
    /// Arrival-weighted mean app access latency over the post-fault
    /// window, ns.
    pub post_fault_latency_ns: Option<f64>,
    /// Bytes pushed through the (broken) migration path after the fault
    /// fired — the wasted-work side of the ledger.
    pub post_fault_mig_bytes: u64,
    /// End state over the working set.
    pub end: EndState,
}

/// Arrival-weighted mean application access latency over `series`
/// (weights: app bytes served per tier per tick). `None` if the window
/// saw no app traffic.
pub fn time_avg_latency_ns(series: &[TickSample]) -> Option<f64> {
    let mut weighted = 0.0;
    let mut bytes = 0.0;
    for s in series {
        if let Some(l) = s.l_default_ns {
            weighted += l * s.app_bytes_default as f64;
            bytes += s.app_bytes_default as f64;
        }
        if let Some(l) = s.l_alternate_ns {
            weighted += l * s.app_bytes_alternate as f64;
            bytes += s.app_bytes_alternate as f64;
        }
    }
    (bytes > 0.0).then(|| weighted / bytes)
}

/// Wraps an experiment's tiering system in the supervisor (managed range =
/// the GUPS working set).
pub fn supervise(exp: &mut Experiment, managed: Vec<std::ops::Range<Vpn>>) {
    let inner = std::mem::replace(
        &mut exp.system,
        Box::new(tiersys::StaticPlacement) as Box<dyn TieringSystem>,
    );
    exp.system = Box::new(Supervisor::new(inner, SupervisorConfig::new(managed)));
}

/// Builds one cell's experiment. Panics if the fault plan is infeasible
/// for the assembled machine ([`memsim::Machine::validate_fault_feasibility`]).
/// `transactional` switches the migration engine from its exclusive mode
/// to the multi-channel transactional one; everything else in the cell is
/// identical, so the column pair isolates the engine.
pub fn build_cell(
    fault: HardFault,
    kind: SystemKind,
    supervised: bool,
    transactional: bool,
    quick: bool,
) -> Experiment {
    let tick = SimTime::from_us(100.0);
    let mut sc = fault.scenario(tick, quick);
    if transactional {
        sc.engine = memsim::MigrationEngineConfig::transactional();
    }
    let mut exp = build_gups(
        &sc,
        Policy::System {
            kind,
            colloid: true,
        },
    );
    exp.machine
        .validate_fault_feasibility()
        .expect("degradation fault plan must be feasible");
    if supervised {
        supervise(&mut exp, vec![sc.gups_config().ws_range()]);
    }
    exp
}

/// Runs one cell end to end.
pub fn run_cell(
    fault: HardFault,
    kind: SystemKind,
    supervised: bool,
    transactional: bool,
    quick: bool,
) -> CellResult {
    let mut exp = build_cell(fault, kind, supervised, transactional, quick);
    let ws = fault.scenario(exp.tick, quick).gups_config().ws_range();
    let rc = RunConfig::timeline(fault.run_ticks(quick));
    let result = run_exp(&mut exp, &rc);
    let post = &result.series[fault.fault_tick(quick)..];
    let post_fault_latency_ns = time_avg_latency_ns(post);
    let post_fault_mig_bytes = post.iter().map(|s| s.migrated_bytes).sum();
    CellResult {
        name: format!("{}{}", exp.system.name(), engine_suffix(transactional)),
        result,
        post_fault_latency_ns,
        post_fault_mig_bytes,
        end: EndState::of(&exp.machine, &[(&*exp.system, ws)]),
    }
}

/// The degradation matrix (`grid degradation`): every hard fault ×
/// system × engine × {bare, supervised}. `--smoke` restricts the sweep to
/// HeMem (the CI gate); full mode covers all three systems.
pub struct Matrix(pub Opts);

impl Harness for Matrix {
    /// `(fault, system, transactional, supervised)`.
    type Cell = (HardFault, SystemKind, bool, bool);
    type Outcome = CellResult;

    fn cells(&self) -> Vec<(String, Self::Cell)> {
        let kinds: &[SystemKind] = if self.0.smoke {
            &[SystemKind::Hemem]
        } else {
            &SystemKind::ALL
        };
        let mut cells = Vec::new();
        for fault in HardFault::ALL {
            for &kind in kinds {
                for transactional in [false, true] {
                    for supervised in [false, true] {
                        let label = format!(
                            "{} / {}{}{}",
                            fault.label(),
                            kind.name(),
                            engine_suffix(transactional),
                            if supervised { " (supervised)" } else { "" },
                        );
                        cells.push((label, (fault, kind, transactional, supervised)));
                    }
                }
            }
        }
        cells
    }

    fn run(&self, &(fault, kind, transactional, supervised): &Self::Cell) -> CellResult {
        run_cell(fault, kind, supervised, transactional, self.0.quick)
    }

    fn end_state(outcome: &CellResult) -> &EndState {
        &outcome.end
    }

    fn finish(&mut self, results: Vec<(Self::Cell, CellResult)>, _: &mut Ctx) -> Vec<String> {
        let mut out = String::from(
            "== Graceful degradation: hard faults with and without the supervisor (GUPS @ 2x) ==\n",
        );
        for fault in HardFault::ALL {
            let mut t = Table::new(vec![
                "system",
                "Mops/s",
                "post-lat (ns)",
                "post-mig (MB)",
                "mig c/a/r/f/b",
                "retry s/r/d(g) q",
                "modes",
            ]);
            for (_, cell) in results.iter().filter(|((f, ..), _)| *f == fault) {
                t.row(vec![
                    cell.name.clone(),
                    mops(cell.result.ops_per_sec),
                    cell.post_fault_latency_ns
                        .map(|l| format!("{l:.2}"))
                        .unwrap_or_else(|| "-".into()),
                    format!("{:.1}", cell.post_fault_mig_bytes as f64 / 1e6),
                    txn_counts(&cell.result.migration),
                    retry_counts(cell.result.retry_stats.as_ref()),
                    mode_timeline(cell.result.supervision.as_ref()),
                ]);
            }
            out.push_str(&format!("\n-- {} --\n", fault.label()));
            out.push_str(&t.render());
        }
        out.push('\n');
        vec![out]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_hard_fault_plan_validates() {
        let tick = SimTime::from_us(100.0);
        for fault in HardFault::ALL {
            for quick in [false, true] {
                fault.plan(tick, quick).validate().unwrap();
                assert!(fault.plan(tick, quick).has_hard_faults());
                assert!(fault.fault_tick(quick) < fault.run_ticks(quick));
            }
        }
    }

    #[test]
    fn cells_build_and_pass_feasibility() {
        for fault in HardFault::ALL {
            for supervised in [false, true] {
                for transactional in [false, true] {
                    let exp = build_cell(fault, SystemKind::Hemem, supervised, transactional, true);
                    assert_eq!(
                        exp.system.name().contains("supervised"),
                        supervised,
                        "{}",
                        exp.system.name()
                    );
                    assert_eq!(exp.machine.config().engine.transactional, transactional);
                }
            }
        }
    }

    #[test]
    fn shrink_scenario_reserves_headroom() {
        let tick = SimTime::from_us(100.0);
        let exp = build_cell(HardFault::TierShrink, SystemKind::Hemem, false, false, true);
        assert_eq!(
            exp.machine.free_pages(TierId::DEFAULT),
            SHRINK_HEADROOM,
            "first-touch fill should leave the drain's rescue space free"
        );
        let sc = HardFault::BwCollapse.scenario(tick, true);
        assert_eq!(sc.first_touch_headroom, 0);
    }

    #[test]
    fn time_avg_latency_weights_by_arrivals() {
        let s = |l_d: f64, b_d: u64, l_a: f64, b_a: u64| TickSample {
            l_default_ns: Some(l_d),
            l_alternate_ns: Some(l_a),
            app_bytes_default: b_d,
            app_bytes_alternate: b_a,
            ..TickSample::at(SimTime::ZERO)
        };
        // All traffic on a 100ns tier + an idle 1000ns tier: mean is 100.
        let avg = time_avg_latency_ns(&[s(100.0, 64, 1000.0, 0)]).unwrap();
        assert!((avg - 100.0).abs() < 1e-9);
        // 3:1 split.
        let avg = time_avg_latency_ns(&[s(100.0, 192, 1000.0, 64)]).unwrap();
        assert!((avg - 325.0).abs() < 1e-9);
        assert!(time_avg_latency_ns(&[]).is_none());
    }
}
