//! Figure 10: migration rate over time for HeMem and HeMem+Colloid in the
//! Figure 9 scenarios.
//!
//! Paper headline: HeMem+Colloid never exceeds HeMem's peak migration rate;
//! its rate decays more gradually near convergence because the dynamic
//! migration limit shrinks with Δp; steady-state migration traffic stays
//! negligible (< 0.7 % of application throughput).

use tiersys::SystemKind;

use super::fig9::Dynamic;
use super::{Figure, Runs, Sim};
use crate::report::series;
use crate::scenario::Policy;

/// Figure 10.
pub const FIGURE: Figure = Figure { sims, render };

/// HeMem's Figure 9 timelines: `(scenario, HeMem ± Colloid)`.
fn timelines() -> impl Iterator<Item = (Dynamic, Policy)> {
    Dynamic::ALL.into_iter().flat_map(|d| {
        [false, true].map(|colloid| {
            let kind = SystemKind::Hemem;
            (d, Policy::System { kind, colloid })
        })
    })
}

fn sims(_quick: bool) -> Vec<Sim> {
    timelines().map(|(d, p)| Sim::Timeline(d, p)).collect()
}

fn render(_quick: bool, runs: &Runs) -> String {
    let mut out = String::from("== Figure 10: migration rate over time (HeMem) ==\n");
    for (dynamic, policy) in timelines() {
        let dur_s = 100e-6; // one tick
        let pts: Vec<(f64, f64)> = runs
            .get(&Sim::Timeline(dynamic, policy))
            .series
            .iter()
            .map(|s| (s.t.as_ns() / 1e6, s.migrated_bytes as f64 / dur_s / 1e6))
            .collect();
        let peak = pts.iter().map(|p| p.1).fold(0.0, f64::max);
        let name = policy.name();
        let label = format!(
            "{name} | {} | migration MB/s over time (ms)",
            dynamic.label()
        );
        out.push_str(&series(&label, &pts, 20));
        out.push_str(&format!("peak migration rate: {peak:.1} MB/s\n"));
    }
    out
}
