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

use super::fig4::{step, Toy};
use crate::report::{mops, ratio, Table};
use crate::runner::{run as run_exp, RunConfig};
use crate::scenario::{build_gups, build_gups_with_colloid, GupsScenario, Policy};
use tiersys::{ColloidParams, SystemKind};

/// ε/δ sensitivity on GUPS at 2× contention (HeMem+Colloid).
pub fn sensitivity(quick: bool) -> String {
    let rc = if quick {
        RunConfig::steady_state().quick()
    } else {
        RunConfig::steady_state()
    };
    let mut out =
        String::from("== Extended: epsilon/delta sensitivity (HeMem+Colloid, GUPS @ 2x) ==\n");
    let mut t = Table::new(vec!["eps", "delta", "Mops/s", "L_D/L_A"]);
    for (eps, delta) in [
        (0.01, 0.05), // paper defaults
        (0.005, 0.05),
        (0.05, 0.05),
        (0.01, 0.01),
        (0.01, 0.15),
    ] {
        eprintln!("[ext] sensitivity eps={eps} delta={delta} ...");
        let sc = GupsScenario::intensity(2);
        let params = ColloidParams {
            epsilon: eps,
            delta,
            ..ColloidParams::default()
        };
        let mut e = build_gups_with_colloid(&sc, SystemKind::Hemem, params);
        let r = run_exp(&mut e, &rc);
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
    out.push_str(&t.render());
    out
}

/// Varying application core counts (5/10/15) at 2× contention.
pub fn core_counts(quick: bool) -> String {
    let rc = if quick {
        RunConfig::steady_state().quick()
    } else {
        RunConfig::steady_state()
    };
    let mut out = String::from("== Extended: varying application cores (GUPS @ 2x) ==\n");
    let mut t = Table::new(vec!["cores", "HeMem", "HeMem+Colloid", "speedup"]);
    for cores in [5usize, 10, 15] {
        eprintln!("[ext] cores={cores} ...");
        let mut sc = GupsScenario::intensity(2);
        sc.app_cores = cores;
        let vanilla = {
            let mut e = build_gups(
                &sc,
                Policy::System {
                    kind: SystemKind::Hemem,
                    colloid: false,
                },
            );
            run_exp(&mut e, &rc).ops_per_sec
        };
        let colloid = {
            let mut e = build_gups(
                &sc,
                Policy::System {
                    kind: SystemKind::Hemem,
                    colloid: true,
                },
            );
            run_exp(&mut e, &rc).ops_per_sec
        };
        t.row(vec![
            cores.to_string(),
            mops(vanilla),
            mops(colloid),
            ratio(colloid / vanilla.max(1.0)),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Varying GUPS read/write mix at 2× contention.
pub fn rw_ratios(quick: bool) -> String {
    let rc = if quick {
        RunConfig::steady_state().quick()
    } else {
        RunConfig::steady_state()
    };
    let mut out = String::from("== Extended: varying read/write ratio (GUPS @ 2x) ==\n");
    let mut t = Table::new(vec!["write-frac", "HeMem", "HeMem+Colloid", "speedup"]);
    for wf in [0.0, 0.5, 1.0] {
        eprintln!("[ext] write_fraction={wf} ...");
        let sc = GupsScenario::intensity(2);
        let with_wf = |colloid: bool| {
            let mut g = sc.gups_config();
            g.write_fraction = wf;
            let mut e = crate::scenario::build_gups_with_stream(
                &sc,
                g,
                Policy::System {
                    kind: SystemKind::Hemem,
                    colloid,
                },
            );
            run_exp(&mut e, &rc).ops_per_sec
        };
        let vanilla = with_wf(false);
        let colloid = with_wf(true);
        t.row(vec![
            format!("{wf}"),
            mops(vanilla),
            mops(colloid),
            ratio(colloid / vanilla.max(1.0)),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// The §5.1 in-text claim: effective per-core parallelism (average
/// in-flight L3 misses per core, i.e. CHA occupancy / app cores) rises with
/// object size thanks to prefetching — 2.82× from 64 B to 4096 B in the
/// paper.
pub fn effective_mlp(_quick: bool) -> String {
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

/// TPP with vs without Transparent Huge Pages (the paper evaluates both;
/// THP-disabled results live in its extended version).
pub fn tpp_thp(quick: bool) -> String {
    let rc = if quick {
        RunConfig::steady_state().quick()
    } else {
        RunConfig::steady_state()
    };
    let mut out = String::from(
        "== Extended: TPP with and without THP (GUPS) ==
",
    );
    let mut t = Table::new(vec!["variant", "0x", "3x"]);
    for huge in [true, false] {
        let mut row = vec![if huge { "TPP (THP)" } else { "TPP (4K only)" }.to_string()];
        for intensity in [0usize, 3] {
            eprintln!("[ext] TPP huge={huge} @ {intensity}x ...");
            let sc = GupsScenario::intensity(intensity);
            let mut e = crate::scenario::build_tpp_variant(&sc, huge, false);
            row.push(mops(run_exp(&mut e, &rc).ops_per_sec));
        }
        t.row(row);
    }
    out.push_str(&t.render());
    out.push_str(
        "(THP promotes whole regions per fault: fewer faults per byte migrated)
",
    );
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

/// The §3.2 dynamic migration limit on and off (HeMem+Colloid, GUPS @ 1x):
/// migration traffic over the measurement window once warm, and
/// throughput. Both variants use one short fixed run configuration, in
/// quick mode too.
pub fn dynamic_limit() -> String {
    let rc = RunConfig {
        min_warmup_ticks: 40,
        max_warmup_ticks: 150,
        measure_ticks: 50,
        window: 30,
        tolerance: 0.03,
        collect_series: false,
    };
    let mut out = String::from(
        "== Extended: dynamic migration limit ablation (HeMem+Colloid, GUPS @ 1x) ==\n",
    );
    let mut t = Table::new(vec!["dynamic limit", "migration MB", "Mops/s"]);
    for dynamic_limit in [true, false] {
        eprintln!("[ext] dynamic_limit={dynamic_limit} ...");
        let params = ColloidParams {
            dynamic_limit,
            ..ColloidParams::default()
        };
        let mut e = build_gups_with_colloid(&GupsScenario::intensity(1), SystemKind::Hemem, params);
        let r = run_exp(&mut e, &rc);
        let mig = memsim::TrafficClass::Migration.index();
        let mig_bytes: u64 = r.bytes_by_tier_class.iter().map(|t| t[mig]).sum();
        t.row(vec![
            if dynamic_limit { "on" } else { "off" }.into(),
            format!("{:.2}", mig_bytes as f64 / 1e6),
            format!("{:.1}", r.ops_per_sec / 1e6),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Runs all extended-version analyses.
pub fn run(quick: bool) -> String {
    let mut out = String::new();
    out.push_str(&effective_mlp(quick));
    out.push('\n');
    out.push_str(&sensitivity(quick));
    out.push('\n');
    out.push_str(&core_counts(quick));
    out.push('\n');
    out.push_str(&rw_ratios(quick));
    out.push('\n');
    out.push_str(&tpp_thp(quick));
    out.push('\n');
    out.push_str(&watermark_reset());
    out.push('\n');
    out.push_str(&dynamic_limit());
    println!("{out}");
    out
}
