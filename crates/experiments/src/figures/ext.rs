//! Extended-version experiments (the paper's §5 defers these sensitivity
//! analyses to its extended version \[57\]):
//!
//! - **ε/δ sensitivity** of the Colloid controller on the real simulator
//!   ("increasing ε leads to faster detection of dynamic workload changes
//!   at the cost of worse stability; increasing δ leads to better stability
//!   at the cost of suboptimal steady-state throughput");
//! - **varying application core counts** (5/10/15);
//! - **varying read/write ratios** (read-only, 1:1, write-heavy GUPS);
//! - the §5.1 in-text claim that larger objects raise the **effective
//!   per-core parallelism** (in-flight L3 misses per core) via prefetching;
//!
//! and two ablations of Colloid's design choices:
//!
//! - the Algorithm 2 **watermark reset** on and off, on Figure 4's toy
//!   model (without it a moved equilibrium is never re-acquired);
//! - the §3.2 **dynamic migration limit** on and off, on the real
//!   simulator.

use colloid::ShiftController;
use tiersys::tpp::TppConfig;
use tiersys::{ColloidParams, SystemKind};

use super::fig4::{step, Toy};
use super::{Figure, Gups, Runs, Sim};
use crate::report::{mops, ratio, Table};
use crate::runner::RunConfig;
use crate::scenario::{build_gups, GupsScenario, Policy};

/// The extended-version analyses and ablations.
pub const FIGURE: Figure = Figure { sims, render };

/// The (ε, δ) points of the sensitivity table, the paper's defaults first.
const EPSILON_DELTA: [(f64, f64); 5] = [
    (0.01, 0.05),
    (0.005, 0.05),
    (0.05, 0.05),
    (0.01, 0.01),
    (0.01, 0.15),
];

/// Application core counts of the cores table.
const CORES: [usize; 3] = [5, 10, 15];

/// Write fractions of the read/write table.
const WRITE_FRACTIONS: [f64; 3] = [0.0, 0.5, 1.0];

/// HeMem+Colloid at 2× with ε and δ set.
fn sensitivity_run((epsilon, delta): (f64, f64)) -> Gups {
    let colloid = ColloidParams {
        epsilon,
        delta,
        ..ColloidParams::default()
    };
    Gups {
        colloid: Some(colloid),
        ..Gups::new(2, SystemKind::Hemem, true)
    }
}

/// HeMem ± Colloid at 2× with `app_cores` cores.
fn cores_run(app_cores: usize, colloid: bool) -> Gups {
    Gups {
        app_cores,
        ..Gups::new(2, SystemKind::Hemem, colloid)
    }
}

/// HeMem ± Colloid at 2× with `write_fraction` of updates writing.
fn writes_run(write_fraction: f64, colloid: bool) -> Gups {
    Gups {
        write_fraction,
        ..Gups::new(2, SystemKind::Hemem, colloid)
    }
}

/// TPP at `intensity`, with or without Transparent Huge Pages.
fn thp_run(huge: bool, intensity: usize) -> Gups {
    let tpp = TppConfig {
        huge,
        ..TppConfig::default()
    };
    Gups {
        tpp,
        ..Gups::new(intensity, SystemKind::Tpp, false)
    }
}

/// HeMem+Colloid at 1× with the dynamic migration limit on or off, over
/// one short fixed run configuration (in quick mode too).
fn limit_run(dynamic_limit: bool) -> Gups {
    let colloid = ColloidParams {
        dynamic_limit,
        ..ColloidParams::default()
    };
    let rc = RunConfig {
        min_warmup_ticks: 40,
        max_warmup_ticks: 150,
        measure_ticks: 50,
        window: 30,
        tolerance: 0.03,
        collect_series: false,
    };
    Gups {
        colloid: Some(colloid),
        rc: Some(rc),
        ..Gups::new(1, SystemKind::Hemem, true)
    }
}

fn sims(_quick: bool) -> Vec<Sim> {
    let mut runs: Vec<Gups> = EPSILON_DELTA.map(sensitivity_run).to_vec();
    for colloid in [false, true] {
        runs.extend(CORES.map(|c| cores_run(c, colloid)));
        runs.extend(WRITE_FRACTIONS.map(|w| writes_run(w, colloid)));
    }
    for huge in [true, false] {
        runs.extend([0, 3].map(|i| thp_run(huge, i)));
    }
    runs.extend([true, false].map(limit_run));
    runs.into_iter().map(Sim::Gups).collect()
}

fn render(_quick: bool, runs: &Runs) -> String {
    let ops = |g| runs.gups(g).ops_per_sec;
    let mut sections = vec![effective_mlp()];

    let mut t = Table::new(vec!["eps", "delta", "Mops/s", "L_D/L_A"]);
    for (eps, delta) in EPSILON_DELTA {
        let r = runs.gups(sensitivity_run((eps, delta)));
        let gap = match (r.l_default_ns, r.l_alternate_ns) {
            (Some(d), Some(a)) => format!("{:.2}", d / a),
            _ => "-".into(),
        };
        t.row(vec![
            format!("{eps}"),
            format!("{delta}"),
            mops(r.ops_per_sec),
            gap,
        ]);
    }
    sections.push(format!(
        "== Extended: epsilon/delta sensitivity (HeMem+Colloid, GUPS @ 2x) ==\n{}",
        t.render()
    ));

    // Colloid's speedup over HeMem as one knob varies (GUPS @ 2x).
    let speedups = |title: &str, knob: &str, rows: Vec<(String, Gups, Gups)>| {
        let mut t = Table::new(vec![knob, "HeMem", "HeMem+Colloid", "speedup"]);
        for (label, vanilla, colloid) in rows {
            let (v, c) = (ops(vanilla), ops(colloid));
            t.row(vec![label, mops(v), mops(c), ratio(c / v.max(1.0))]);
        }
        format!("== Extended: {title} (GUPS @ 2x) ==\n{}", t.render())
    };
    let cores = CORES.map(|c| (c.to_string(), cores_run(c, false), cores_run(c, true)));
    sections.push(speedups(
        "varying application cores",
        "cores",
        cores.to_vec(),
    ));
    let writes =
        WRITE_FRACTIONS.map(|w| (format!("{w}"), writes_run(w, false), writes_run(w, true)));
    sections.push(speedups(
        "varying read/write ratio",
        "write-frac",
        writes.to_vec(),
    ));

    let mut t = Table::new(vec!["variant", "0x", "3x"]);
    for (name, huge) in [("TPP (THP)", true), ("TPP (4K only)", false)] {
        let row = [0, 3].map(|i| mops(ops(thp_run(huge, i))));
        t.row([name.to_string()].into_iter().chain(row).collect());
    }
    sections.push(format!(
        "== Extended: TPP with and without THP (GUPS) ==\n{}\
         (THP promotes whole regions per fault: fewer faults per byte migrated)\n",
        t.render()
    ));

    sections.push(watermark_reset());

    let mut t = Table::new(vec!["dynamic limit", "migration MB", "Mops/s"]);
    for dynamic_limit in [true, false] {
        let r = runs.gups(limit_run(dynamic_limit));
        let mig = memsim::TrafficClass::Migration.index();
        let mig_bytes: u64 = r.bytes_by_tier_class.iter().map(|t| t[mig]).sum();
        t.row(vec![
            if dynamic_limit { "on" } else { "off" }.into(),
            format!("{:.2}", mig_bytes as f64 / 1e6),
            format!("{:.1}", r.ops_per_sec / 1e6),
        ]);
    }
    sections.push(format!(
        "== Extended: dynamic migration limit ablation (HeMem+Colloid, GUPS @ 1x) ==\n{}",
        t.render()
    ));
    sections.join("\n")
}

/// The §5.1 in-text claim: effective per-core parallelism (average
/// in-flight L3 misses per core, i.e. CHA occupancy / app cores) rises with
/// object size thanks to prefetching — 2.82× from 64 B to 4096 B in the
/// paper.
pub fn effective_mlp() -> String {
    let mut out = String::from(
        "== Extended: effective per-core parallelism vs object size (GUPS @ 0x, hot packed) ==\n",
    );
    let mut t = Table::new(vec!["object", "occupancy/core", "vs 64B"]);
    let mut base = None;
    for size in [64u32, 256, 1024, 4096] {
        eprintln!("[ext] effective MLP object={size}B ...");
        let mut sc = GupsScenario::intensity(0);
        sc.object_size = size;
        let mut e = build_gups(
            &sc,
            Policy::Static {
                hot_default_fraction: 1.0,
            },
        );
        e.machine.run_tick(simkit::SimTime::from_us(100.0));
        let rep = e.machine.run_tick(simkit::SimTime::from_us(300.0));
        let occ: f64 = rep.tiers.iter().map(|t| t.occupancy).sum();
        let per_core = occ / sc.app_cores as f64;
        let b = *base.get_or_insert(per_core);
        t.row(vec![
            format!("{size}B"),
            format!("{per_core:.2}"),
            format!("{:.2}x", per_core / b),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("(paper: 2.82x more in-flight misses per core at 4096B vs 64B)\n");
    out
}

/// Figure 4c's watermark reset on and off: the toy equilibrium moves from
/// 0.3 to 0.8 after 80 quanta, and the controller runs 150 more.
pub fn watermark_reset() -> String {
    let mut out =
        String::from("== Extended: watermark reset ablation (toy model, p* moves 0.3 -> 0.8) ==\n");
    let mut t = Table::new(vec!["variant", "final p", "resets"]);
    for (label, mut c) in [
        ("reset ON", ShiftController::new(0.01, 0.02)),
        ("reset OFF", ShiftController::without_reset(0.01, 0.02)),
    ] {
        let mut p = 0.9;
        for (p_star, quanta) in [(0.3, 80), (0.8, 150)] {
            let toy = Toy { p_star };
            for _ in 0..quanta {
                p = step(&mut c, &toy, p);
            }
        }
        t.row(vec![
            label.into(),
            format!("{p:.3}"),
            c.resets().to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}
