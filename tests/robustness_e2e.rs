//! End-to-end robustness: the full stack survives combined fault injection.
//!
//! Every tiering system (± Colloid) runs GUPS under the combined fault
//! plan of `experiments::robustness::combined_faults` — 20 % counter
//! noise, 5 % transient migration failures, and a mid-run
//! migration-bandwidth collapse — and must come out the other side with:
//!
//! - no panics anywhere in the stack,
//! - a finite, positive `RunResult` (no NaN reaches the report layer),
//! - zero permanently-dropped migrations (every injected failure is
//!   retried until it lands or becomes moot),
//! - for Colloid, throughput within a stated band of the fault-free run.

use experiments::robustness::combined_faults;
use experiments::runner::{run, RunConfig, RunResult};
use experiments::scenario::{build_gups, GupsScenario, Policy};
use simkit::SimTime;
use tiersys::SystemKind;

/// Contention level for the robustness runs (2×: placement matters).
const INTENSITY: usize = 2;

fn rc() -> RunConfig {
    RunConfig {
        min_warmup_ticks: 100,
        max_warmup_ticks: 250,
        measure_ticks: 50,
        window: 40,
        tolerance: 0.03,
        collect_series: false,
    }
}

fn run_gups(kind: SystemKind, colloid: bool, faulty: bool) -> RunResult {
    let mut sc = GupsScenario::intensity(INTENSITY);
    if faulty {
        sc.faults = combined_faults(SimTime::from_us(100.0));
    }
    let mut exp = build_gups(&sc, Policy::System { kind, colloid });
    run(&mut exp, &rc())
}

fn assert_sane(r: &RunResult, what: &str) {
    assert!(
        r.ops_per_sec.is_finite() && r.ops_per_sec > 0.0,
        "{what}: ops/s = {}",
        r.ops_per_sec
    );
    for (tier, l) in [("default", r.latency_ns[0]), ("alternate", r.latency_ns[1])] {
        if let Some(l) = l {
            assert!(l.is_finite() && l >= 0.0, "{what}: L_{tier} = {l}");
        }
    }
    assert!(r.default_tier_app_share().is_finite(), "{what}: app share");
}

#[test]
fn every_system_survives_combined_faults() {
    for kind in SystemKind::ALL {
        for colloid in [false, true] {
            let what = format!("{:?} colloid={colloid}", kind);
            let r = run_gups(kind, colloid, true);
            assert_sane(&r, &what);
            // Faults were actually injected …
            assert!(r.fault_stats.total() > 0, "{what}: nothing injected");
            assert!(
                r.fault_stats.migration_failures > 0,
                "{what}: no migration failures at 5% over a full run"
            );
            // … and every failed migration was retried rather than lost.
            // (`scheduled` can trail the failure count slightly: a fresh
            // placement request for the same page coalesces with a pending
            // failure retry.)
            let retry = r.retry_stats.expect("system drives a retry queue");
            assert!(
                retry.scheduled > 0,
                "{what}: {} failures but no retries scheduled",
                r.fault_stats.migration_failures
            );
            assert_eq!(
                retry.dropped, 0,
                "{what}: {} migrations permanently dropped",
                retry.dropped
            );
        }
    }
}

#[test]
fn colloid_throughput_holds_up_under_faults() {
    // The stated band: with hardened controllers, combined faults may cost
    // HeMem+Colloid at most 30 % of its fault-free throughput (and noisy
    // counters cannot conjure more than 15 % out of thin air).
    let clean = run_gups(SystemKind::Hemem, true, false);
    let faulty = run_gups(SystemKind::Hemem, true, true);
    assert_sane(&clean, "fault-free");
    let rel = faulty.ops_per_sec / clean.ops_per_sec;
    assert!(
        (0.7..=1.15).contains(&rel),
        "HeMem+Colloid under faults at {rel:.3}x of fault-free ({:.1} vs {:.1} Mops/s)",
        faulty.ops_per_sec / 1e6,
        clean.ops_per_sec / 1e6
    );
}

#[test]
fn combined_fault_runs_are_deterministic() {
    let a = run_gups(SystemKind::Hemem, true, true);
    let b = run_gups(SystemKind::Hemem, true, true);
    assert_eq!(a.ops_per_sec.to_bits(), b.ops_per_sec.to_bits());
    assert_eq!(a.fault_stats, b.fault_stats);
    assert_eq!(a.retry_stats, b.retry_stats);
    assert_eq!(a.warmup_ticks_used, b.warmup_ticks_used);
}
