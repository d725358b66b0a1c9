//! Figure 5: steady-state GUPS throughput of each system with and without
//! Colloid, against the best case.
//!
//! Paper headline: "Colloid enables each system to achieve near-optimal
//! performance, independent of the memory interconnect intensity" —
//! improvements of 1.2–2.3× (HeMem), 1.35–2.35× (TPP), 1.29–2.3× (MEMTIS),
//! landing within 3 %/8 %/13 % of best-case.

use tiersys::SystemKind;

use super::{all_system_policies, intensities, intensity_row, intensity_table, sweep};
use super::{Figure, Gups, Runs, Sim};
use crate::report::{mops, ratio};

/// Figure 5.
pub const FIGURE: Figure = Figure { sims, render };

fn sims(quick: bool) -> Vec<Sim> {
    sweep(quick, &all_system_policies())
}

fn render(quick: bool, runs: &Runs) -> String {
    let is = intensities(quick);
    let best = |i| runs.oracle(i).best_ops_per_sec();
    let ops = |i, kind, colloid| runs.gups(Gups::new(i, kind, colloid)).ops_per_sec;
    let mut out =
        String::from("== Figure 5: GUPS throughput (Mops/s) with and without Colloid ==\n");
    out.push_str(&runs.vs_best(&all_system_policies(), |r| mops(r.ops_per_sec)));

    out.push_str("\n-- Colloid speedup (with/without; paper: 1.2-2.35x at 1-3x) --\n");
    let mut s = intensity_table("policy", &is);
    for kind in SystemKind::ALL {
        s.row(intensity_row(kind.name(), &is, |i| {
            ratio(ops(i, kind, true) / ops(i, kind, false).max(1.0))
        }));
    }
    out.push_str(&s.render());

    out.push_str("\n-- distance from best-case with Colloid (paper: within 3%/8%/13%) --\n");
    let mut d = intensity_table("policy", &is);
    for kind in SystemKind::ALL {
        d.row(intensity_row(
            format!("{}+Colloid", kind.name()),
            &is,
            |i| format!("{:+.1}%", (ops(i, kind, true) / best(i) - 1.0) * 100.0),
        ));
    }
    out.push_str(&d.render());
    out
}
