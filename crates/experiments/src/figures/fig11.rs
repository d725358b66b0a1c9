//! Figure 11: end-to-end benefits on real-application workloads —
//! (a) GAPBS PageRank, (b) Silo running YCSB-C, (c) CacheLib running
//! HeMemKV — each at 0×–3× contention, per system, with and without
//! Colloid.
//!
//! Paper headline improvements at higher intensities: PageRank
//! 1.05–2.12×, Silo 1.08–1.25×, CacheLib 1.37–1.93×. PageRank's metric in
//! the paper is execution time (lower is better); here we report its
//! throughput in operations/s — the improvement ratios are directly
//! comparable (time ratio = inverse throughput ratio).

use tiersys::SystemKind;

use super::{intensities, intensity_row, intensity_table, Figure, Runs, Sim};
use crate::report::{mops, ratio};
use crate::scenario::{AppKind, Policy};

/// Figure 11.
pub const FIGURE: Figure = Figure { sims, render };

fn sims(quick: bool) -> Vec<Sim> {
    let mut sims = Vec::new();
    for app in AppKind::ALL {
        for kind in SystemKind::ALL {
            for i in intensities(quick) {
                for colloid in [false, true] {
                    sims.push(Sim::App(app, i, Policy::System { kind, colloid }));
                }
            }
        }
    }
    sims
}

fn render(quick: bool, runs: &Runs) -> String {
    let is = intensities(quick);
    let mut out = String::from("== Figure 11: real-application performance with Colloid ==\n");
    for app in AppKind::ALL {
        out.push_str(&format!("\n-- {} (throughput, Mops/s) --\n", app.name()));
        let mut t = intensity_table("policy", &is);
        let mut speedups = intensity_table("policy", &is);
        for kind in SystemKind::ALL {
            let ops = |i, colloid| {
                let sim = Sim::App(app, i, Policy::System { kind, colloid });
                runs.get(&sim).ops_per_sec
            };
            for colloid in [false, true] {
                let name = Policy::System { kind, colloid }.name();
                t.row(intensity_row(name, &is, |i| mops(ops(i, colloid))));
            }
            speedups.row(intensity_row(kind.name(), &is, |i| {
                ratio(ops(i, true) / ops(i, false).max(1.0))
            }));
        }
        out.push_str(&t.render());
        out.push_str("\nColloid speedup:\n");
        out.push_str(&speedups.render());
    }
    out
}
