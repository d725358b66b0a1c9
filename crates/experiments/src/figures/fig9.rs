//! Figure 9: convergence timelines under dynamic changes.
//!
//! Three scenarios (columns in the paper), each run for every system with
//! and without Colloid, reporting instantaneous throughput over time:
//!
//! - **hot-set change @ 0×**: the GUPS hot set jumps to a new region with
//!   no contention — both variants dip and recover identically;
//! - **hot-set change @ 3×**: under contention, Colloid recovers to its
//!   *higher* pre-change throughput;
//! - **contention change 0×→3×**: the antagonist switches on mid-run — the
//!   vanilla systems stay degraded, Colloid adapts within ~10 s
//!   (paper timescale; scaled here, see DESIGN.md §5).

use simkit::SimTime;

use super::{all_system_policies, Figure, Runs, Sim};
use crate::scenario::GupsScenario;
use telemetry::render::series;

/// Figure 9.
pub const FIGURE: Figure = Figure { sims, render };

/// The three Figure 9 scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dynamic {
    /// Hot set jumps at mid-run, no antagonist.
    HotsetAt0x,
    /// Hot set jumps at mid-run, 3× antagonist throughout.
    HotsetAt3x,
    /// Antagonist switches 0× → 3× at mid-run.
    ContentionOn,
}

impl Dynamic {
    /// All scenarios, in the paper's column order.
    pub const ALL: [Dynamic; 3] = [
        Dynamic::HotsetAt0x,
        Dynamic::HotsetAt3x,
        Dynamic::ContentionOn,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Dynamic::HotsetAt0x => "hot-set change @ 0x",
            Dynamic::HotsetAt3x => "hot-set change @ 3x",
            Dynamic::ContentionOn => "contention 0x -> 3x",
        }
    }

    /// Builds the scenario with the change scheduled mid-run.
    pub fn scenario(self, tick: SimTime, pre_ticks: usize) -> GupsScenario {
        let t_change = tick * pre_ticks as u64;
        match self {
            Dynamic::HotsetAt0x => {
                let mut sc = GupsScenario::intensity(0);
                sc.phases = vec![(t_change, 0)];
                sc
            }
            Dynamic::HotsetAt3x => {
                let mut sc = GupsScenario::intensity(3);
                sc.phases = vec![(t_change, 0)];
                sc
            }
            Dynamic::ContentionOn => {
                let mut sc = GupsScenario::intensity(0);
                sc.antagonist_change = Some((t_change, 15));
                sc
            }
        }
    }
}

/// Every system ± Colloid in each scenario, in the paper's order.
fn sims(_quick: bool) -> Vec<Sim> {
    let each = |d| {
        all_system_policies()
            .into_iter()
            .map(move |p| Sim::Timeline(d, p))
    };
    Dynamic::ALL.into_iter().flat_map(each).collect()
}

fn render(_quick: bool, runs: &Runs) -> String {
    let mut out = String::from("== Figure 9: convergence under dynamic changes ==\n");
    for dynamic in Dynamic::ALL {
        for policy in all_system_policies() {
            let pts: Vec<(f64, f64)> = runs
                .get(&Sim::Timeline(dynamic, policy))
                .series
                .iter()
                .map(|s| (s.t.as_ns() / 1e6, s.ops_per_sec / 1e6))
                .collect();
            let label = format!(
                "{} | {} | Mops/s over time (ms)",
                policy.name(),
                dynamic.label()
            );
            out.push_str(&series(&label, &pts, 20));
        }
    }
    out
}
