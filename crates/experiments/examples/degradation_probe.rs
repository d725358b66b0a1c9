//! Tuning probes behind the degradation matrix and the TPP
//! fast-discovery preset (not part of any figure). Modes:
//!
//! - *(default)* / `contention` / `hotmove` — per-tick migration volume
//!   and tier latencies around a mid-run change (used to design the
//!   hard-fault scenarios: post-convergence the systems go
//!   migration-quiet, so a fault alone touches nothing).
//! - `outage` — tick-by-tick supervisor trace of the engine-outage cell
//!   around the outage end.
//! - `sweepdisc` / `convdisc` / `phasedisc` — the (scan, boost) sweeps
//!   behind `TppConfig::fast_discovery()`: steady-state throughput,
//!   convergence trajectory, and hot-set-shift recovery respectively.
//!   `grid fig1` prints the preset's comparison rows.

use experiments::runner::{run, RunConfig};
use experiments::scenario::{build_gups, build_tpp_with_config, GupsScenario, Policy};
use simkit::SimTime;
use tiersys::tpp::TppConfig;
use tiersys::SystemKind;

fn tpp_cfg(scan: usize, boost: f64) -> TppConfig {
    TppConfig {
        scan_pages_per_tick: scan,
        promotion_boost: boost,
        ..TppConfig::default()
    }
}

/// Mean Mops/s over `series[a..b]`.
fn window_mops(series: &[experiments::runner::TickSample], a: usize, b: usize) -> f64 {
    let w = &series[a..b];
    w.iter().map(|s| s.ops_per_sec).sum::<f64>() / w.len() as f64 / 1e6
}

fn main() {
    let tick = SimTime::from_us(100.0);
    let which = std::env::args().nth(1).unwrap_or_default();
    match which.as_str() {
        "outage" => outage_trace(),
        "sweepdisc" => sweepdisc(),
        "sharedisc" => sharedisc(),
        "convdisc" => convdisc(),
        "phasedisc" => phasedisc(tick),
        _ => migration_trace(tick, &which),
    }
}

/// Default-tier traffic share per (scan, boost) pair: does eager
/// discovery pack the hot set into the default tier like the paper's
/// TPP (>75 % share)?
fn sharedisc() {
    let full = std::env::args().nth(2).as_deref() == Some("full");
    for (scan, boost) in [(1024usize, 1.0f64), (6144, 4.0)] {
        for level in [0usize, 2, 3] {
            let sc = GupsScenario::intensity(level);
            let mut exp = build_tpp_with_config(&sc, tpp_cfg(scan, boost), false);
            let rc = if full {
                RunConfig::steady_state()
            } else {
                RunConfig::steady_state().quick()
            };
            let r = run(&mut exp, &rc);
            println!(
                "scan {scan:4} boost {boost:3.1} @ {level}x: {:7.2} Mops/s  share {:5.1}%  ({}t)",
                r.ops_per_sec / 1e6,
                r.default_tier_app_share() * 100.0,
                r.warmup_ticks_used
            );
        }
    }
}

/// Steady-state throughput and warm-up ticks per (scan, boost) pair.
fn sweepdisc() {
    for (scan, boost) in [
        (1024usize, 1.0f64),
        (256, 1.0),
        (256, 2.0),
        (256, 4.0),
        (128, 1.0),
        (128, 2.0),
        (128, 4.0),
    ] {
        for level in [0usize, 3] {
            let sc = GupsScenario::intensity(level);
            let mut exp = build_tpp_with_config(&sc, tpp_cfg(scan, boost), false);
            let r = run(&mut exp, &RunConfig::steady_state().quick());
            println!(
                "scan {scan:4} boost {boost:3.1} @ {level}x: {:7.2} Mops/s  ({}t)",
                r.ops_per_sec / 1e6,
                r.warmup_ticks_used
            );
        }
    }
}

/// Early-window vs steady throughput: is convergence visible from t=0?
fn convdisc() {
    for (scan, boost) in [
        (1024usize, 1.0f64),
        (1024, 2.0),
        (1024, 4.0),
        (512, 2.0),
        (2048, 2.0),
        (2048, 4.0),
    ] {
        for level in [2usize, 3] {
            let sc = GupsScenario::intensity(level);
            let mut exp = build_tpp_with_config(&sc, tpp_cfg(scan, boost), false);
            let r = run(&mut exp, &RunConfig::timeline(300));
            let steady = window_mops(&r.series, 250, 300);
            let t90 = r
                .series
                .iter()
                .position(|s| s.ops_per_sec / 1e6 >= 0.9 * steady)
                .unwrap_or(300);
            println!(
                "scan {scan:4} boost {boost:3.1} @ {level}x: 0-50 {:6.1}  50-100 {:6.1}  steady {:6.1}  t90 {t90:3}",
                window_mops(&r.series, 0, 50),
                window_mops(&r.series, 50, 100),
                steady
            );
        }
    }
}

/// Recovery throughput after the hot set shifts mid-run: the window
/// where `promotion_boost` earns its keep at a lean scan budget.
fn phasedisc(tick: SimTime) {
    for (scan, boost) in [(1024usize, 1.0f64), (1024, 4.0), (256, 1.0), (256, 2.0)] {
        let mut sc = GupsScenario::intensity(2);
        sc.phases = vec![(tick * 200, 4096)];
        let mut exp = build_tpp_with_config(&sc, tpp_cfg(scan, boost), false);
        let r = run(&mut exp, &RunConfig::timeline(400));
        println!(
            "scan {scan:4} boost {boost:3.1}: pre 150-200 {:6.1}  post 200-250 {:6.1}  post 250-300 {:6.1}  post 300-400 {:6.1}",
            window_mops(&r.series, 150, 200),
            window_mops(&r.series, 200, 250),
            window_mops(&r.series, 250, 300),
            window_mops(&r.series, 300, 400)
        );
    }
}

/// Per-tick migration volume around a mid-run change (or none).
fn migration_trace(tick: SimTime, which: &str) {
    let mut sc = GupsScenario::intensity(2);
    match which {
        "contention" => sc.antagonist_change = Some((tick * 250, 12)),
        "hotmove" => sc.phases = vec![(tick * 250, 4096)],
        _ => {}
    }
    let mut exp = build_gups(
        &sc,
        Policy::System {
            kind: SystemKind::Hemem,
            colloid: true,
        },
    );
    let r = run(&mut exp, &RunConfig::timeline(500));
    let mut last_nonzero = 0usize;
    for (i, s) in r.series.iter().enumerate() {
        if s.migrated_bytes > 0 {
            last_nonzero = i;
        }
        if i % 20 == 0 || ((240..320).contains(&i) && i % 5 == 0) {
            println!(
                "tick {i:3}  mig {:7}  l_d {:6.1}  l_a {:6.1}  ops/s {:.2e}",
                s.migrated_bytes,
                s.l_default_ns.unwrap_or(0.0),
                s.l_alternate_ns.unwrap_or(0.0),
                s.ops_per_sec
            );
        }
    }
    println!("last tick with migration: {last_nonzero}");
    println!("ops/s {:.3e}", r.ops_per_sec);
}

/// Tick-by-tick trace of the supervised engine-outage cell around the
/// outage end (tick 370).
fn outage_trace() {
    use experiments::degradation::{build_cell, HardFault};
    let mut exp = build_cell(
        HardFault::EngineOutage,
        SystemKind::Hemem,
        true,
        false,
        false,
    );
    let mut last_migrated = 0u64;
    for i in 0..500usize {
        exp.apply_schedule();
        let report = exp.machine.run_tick(exp.tick);
        exp.system.on_tick(&mut exp.machine, &report);
        let migrated = exp.machine.migrated_pages();
        let sv = exp.system.supervision().unwrap();
        if (240..260).contains(&i) || (360..430).contains(&i) {
            println!(
                "tick {i:3}  mode {:10}  failed {:2}  done {:3}  backlog {:3}  limit {:?}  probes {}",
                format!("{:?}", sv.final_mode),
                report.failed_migrations.len(),
                migrated - last_migrated,
                exp.machine.migration_backlog(),
                exp.machine.migration_admission_limit(),
                sv.probes_sent,
            );
        }
        last_migrated = migrated;
    }
}
