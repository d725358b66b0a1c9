//! Figure 6: understanding Colloid's benefits — (a) per-tier GUPS bandwidth
//! split with Colloid (tracks the best-case placement), (b) per-tier access
//! latencies with Colloid (the gap shrinks vs Figure 2a).

use super::{intensities, intensity_label, sweep, system_policies, Figure, Gups, Runs, Sim};
use crate::report::{ns, pct, Table};
use crate::runner::RunResult;

/// Figure 6.
pub const FIGURE: Figure = Figure { sims, render };

fn sims(quick: bool) -> Vec<Sim> {
    sweep(quick, &system_policies(true))
}

fn render(quick: bool, runs: &Runs) -> String {
    let is = intensities(quick);
    let mut out = String::from(
        "== Figure 6a: share of GUPS bandwidth served by the default tier (with Colloid) ==\n",
    );
    let share = |r: &RunResult| pct(r.default_tier_app_share());
    out.push_str(&runs.vs_best(&system_policies(true), share));

    out.push_str("\n== Figure 6b: per-tier access latency with Colloid (gap shrinks) ==\n");
    let mut headers = vec!["policy".to_string()];
    for &i in &is {
        headers.push(format!("{} L_D", intensity_label(i)));
        headers.push(format!("{} L_A", intensity_label(i)));
        headers.push(format!("{} gap", intensity_label(i)));
    }
    let mut l = Table::new(headers.iter().map(String::as_str).collect());
    for p in system_policies(true) {
        let mut row = vec![p.name()];
        for &i in &is {
            let r = runs.gups(Gups::of(i, p));
            row.push(ns(r.l_default_ns));
            row.push(ns(r.l_alternate_ns));
            match (r.l_default_ns, r.l_alternate_ns) {
                (Some(d), Some(a)) => row.push(format!("{:.2}x", d / a)),
                _ => row.push("-".into()),
            }
        }
        l.row(row);
    }
    out.push_str(&l.render());
    out
}
