//! Figure 1: GUPS throughput of HeMem/TPP/MEMTIS vs the best case, at
//! 0×–3× memory interconnect contention intensity.
//!
//! Paper headline: "Even at moderate memory interconnect contention
//! intensity, existing memory tiering systems achieve performance that is
//! far from optimal" — gaps up to 2.3×/2.36×/2.46× at 3×.
//!
//! The extra rows compare TPP at default and fast-discovery settings:
//! with discovery fast enough to actually pack the hot set into the
//! default tier (>75 % traffic share, as the paper's TPP does), TPP
//! degrades under contention like HeMem/MEMTIS — vanilla TPP's small
//! Figure 1 gap is slow discovery, not robustness.

use tiersys::tpp::TppConfig;
use tiersys::SystemKind;

use super::{intensities, intensity_label, intensity_row, intensity_table, sweep};
use super::{system_policies, Figure, Gups, Runs, Sim};
use crate::report::{mops, ratio};

/// Figure 1.
pub const FIGURE: Figure = Figure { sims, render };

/// TPP at `intensity`, with fast discovery when `fast`.
fn tpp(intensity: usize, fast: bool) -> Gups {
    let tpp = if fast {
        TppConfig::fast_discovery()
    } else {
        TppConfig::default()
    };
    Gups {
        tpp,
        ..Gups::new(intensity, SystemKind::Tpp, false)
    }
}

fn sims(quick: bool) -> Vec<Sim> {
    let mut sims = sweep(quick, &system_policies(false));
    sims.extend(
        intensities(quick)
            .into_iter()
            .map(|i| Sim::Gups(tpp(i, true))),
    );
    sims
}

fn render(quick: bool, runs: &Runs) -> String {
    let is = intensities(quick);
    let best = |i| runs.oracle(i).best_ops_per_sec();
    let ops = |i, p| runs.gups(Gups::of(i, p)).ops_per_sec;
    let mut out = String::from("== Figure 1: GUPS throughput (Mops/s), systems vs best-case ==\n");
    out.push_str(&runs.vs_best(&system_policies(false), |r| mops(r.ops_per_sec)));

    out.push_str("\n-- gap vs best-case (best/system; paper: up to 2.3-2.46x at 3x) --\n");
    let mut g = intensity_table("policy", &is);
    for p in system_policies(false) {
        g.row(intensity_row(p.name(), &is, |i| {
            ratio(best(i) / ops(i, p).max(1.0))
        }));
    }
    out.push_str(&g.render());

    out.push_str("\n-- best-case hot fraction in default tier --\n");
    for &i in &is {
        out.push_str(&format!(
            "{}: best at {:.0}% hot in default\n",
            intensity_label(i),
            runs.oracle(i).best_fraction() * 100.0
        ));
    }

    out.push_str(
        "\n-- TPP discovery speed: default vs fast discovery (Mops/s, default-tier traffic share) --\n",
    );
    let mut t = intensity_table("policy", &is);
    for (name, fast) in [("TPP", false), ("TPP (fast discovery)", true)] {
        t.row(intensity_row(name, &is, |i| {
            let r = runs.gups(tpp(i, fast));
            let share = r.default_tier_app_share() * 100.0;
            format!("{} ({share:.0}%)", mops(r.ops_per_sec))
        }));
    }
    out.push_str(&t.render());
    out
}
