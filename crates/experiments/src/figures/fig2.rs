//! Figure 2: root-causing Figure 1 — (a) per-tier loaded access latency,
//! (b) per-tier application-bandwidth split (Intel-MBM style) for the
//! best-case and for each system.
//!
//! Paper headline: with contention rising 1×→3×, the default tier's access
//! latency inflates 2.5×/3.8×/5× over unloaded — exceeding the alternate
//! tier by 1.2×/1.8×/2.4× — while the existing systems keep serving >75 %
//! of GUPS traffic from the default tier.

use super::{intensities, intensity_label, sweep, system_policies, Figure, Gups, Runs, Sim};
use crate::report::{ns, pct, Table};
use crate::runner::RunResult;

/// Figure 2.
pub const FIGURE: Figure = Figure { sims, render };

fn sims(quick: bool) -> Vec<Sim> {
    sweep(quick, &system_policies(false))
}

fn render(quick: bool, runs: &Runs) -> String {
    let is = intensities(quick);
    let mut out = String::from(
        "== Figure 2a: per-tier loaded access latency (ns), systems pack hot set in default ==\n",
    );
    let mut headers = vec!["policy".to_string()];
    for &i in &is {
        headers.push(format!("{} L_D", intensity_label(i)));
        headers.push(format!("{} L_A", intensity_label(i)));
    }
    let mut t = Table::new(headers.iter().map(String::as_str).collect());
    for p in system_policies(false) {
        let mut row = vec![p.name()];
        for &i in &is {
            let r = runs.gups(Gups::of(i, p));
            row.push(ns(r.l_default_ns));
            row.push(ns(r.l_alternate_ns));
        }
        t.row(row);
    }
    out.push_str(&t.render());

    out.push_str(
        "\n-- default-tier latency inflation vs unloaded (70 ns; paper: 2.5x/3.8x/5x at 1-3x) --\n",
    );
    for &i in &is {
        // Use the HeMem run as representative (all pack the hot set).
        let r = runs.gups(Gups::of(i, system_policies(false)[0]));
        if let Some(l) = r.l_default_ns {
            out.push_str(&format!(
                "{}: L_D = {:.0} ns = {:.1}x unloaded, {:.2}x of L_A\n",
                intensity_label(i),
                l,
                l / 70.0,
                l / r.l_alternate_ns.unwrap_or(f64::NAN)
            ));
        }
    }

    out.push_str("\n== Figure 2b: share of GUPS bandwidth served by the default tier ==\n");
    let share = |r: &RunResult| pct(r.default_tier_app_share());
    out.push_str(&runs.vs_best(&system_policies(false), share));
    out
}
