//! End-to-end checks for the graceful-degradation work.
//!
//! Two obligations:
//!
//! 1. **The pin**: with hard faults disabled, every default-configured
//!    system run is bit-identical to the pre-degradation baseline. The
//!    supervisor plumbing, copy-time telemetry, admission-control hooks
//!    and first-touch headroom knob must all be exact no-ops when unused
//!    — checked against golden `f64::to_bits` throughput constants.
//! 2. **The degradation matrix**: under each hard-fault scenario the
//!    supervised system runs to completion without panicking, conserves
//!    every working-set page, and does no worse than its unsupervised
//!    twin on post-fault latency while wasting far less migration work.

use experiments::degradation::{run_cell, HardFault};
use experiments::runner::{run, RunConfig};
use experiments::scenario::{build_gups, GupsScenario, Policy};
use tiersys::SystemKind;

/// The baseline measurement config (mirrors the steady-state preset at
/// reduced length; changing it invalidates the golden bits below).
fn pin_config() -> RunConfig {
    RunConfig {
        min_warmup_ticks: 100,
        max_warmup_ticks: 250,
        measure_ticks: 50,
        window: 40,
        tolerance: 0.03,
        collect_series: false,
    }
}

/// Golden `ops_per_sec.to_bits()` for every (system, colloid) pair on the
/// fault-free GUPS @ 2x baseline, captured before the degradation work
/// landed. These runs exercise none of the new machinery, so they must
/// not move by a single bit.
const GOLDEN_BITS: [(SystemKind, bool, u64); 6] = [
    (SystemKind::Hemem, false, 0x41b0953ae8000000),
    (SystemKind::Hemem, true, 0x41b07bcfe0000000),
    (SystemKind::Tpp, false, 0x41af4c8000000000),
    (SystemKind::Tpp, true, 0x41ae672aa0000000),
    (SystemKind::Memtis, false, 0x41ade394b0000000),
    (SystemKind::Memtis, true, 0x41b0566a70000000),
];

#[test]
fn fault_free_defaults_are_bit_identical_to_golden() {
    for (kind, colloid, bits) in GOLDEN_BITS {
        let sc = GupsScenario::intensity(2);
        let mut exp = build_gups(&sc, Policy::System { kind, colloid });
        let r = run(&mut exp, &pin_config());
        assert_eq!(
            r.ops_per_sec.to_bits(),
            bits,
            "{} (colloid={}) drifted from the golden baseline: \
             {} ops/s (bits 0x{:x}, expected 0x{:x})",
            kind.name(),
            colloid,
            r.ops_per_sec,
            r.ops_per_sec.to_bits(),
            bits,
        );
    }
}

/// Runs one supervised/unsupervised pair and applies the shared
/// invariants: completion without panic, page conservation, and a
/// supervision report on exactly the supervised run.
fn check_pair(fault: HardFault, kind: SystemKind) -> (f64, f64, u64, u64) {
    let base = run_cell(fault, kind, false, false, true);
    let sup = run_cell(fault, kind, true, false, true);
    for cell in [&base, &sup] {
        assert_eq!(
            cell.end.resident,
            cell.end.expected,
            "{} lost pages under {}",
            cell.name,
            fault.label()
        );
        assert!(cell.result.ops_per_sec.is_finite() && cell.result.ops_per_sec > 0.0);
    }
    assert!(base.result.supervision.is_none());
    let report = sup
        .result
        .supervision
        .as_ref()
        .expect("supervised run must carry a supervision report");
    assert!(
        report.timeline.len() > 1,
        "the supervisor never reacted to {}",
        fault.label()
    );
    (
        base.post_fault_latency_ns.expect("post-fault traffic"),
        sup.post_fault_latency_ns.expect("post-fault traffic"),
        base.post_fault_mig_bytes,
        sup.post_fault_mig_bytes,
    )
}

#[test]
fn tier_shrink_supervised_beats_unsupervised() {
    let (base_lat, sup_lat, _, _) = check_pair(HardFault::TierShrink, SystemKind::Hemem);
    assert!(
        sup_lat < base_lat,
        "supervised post-fault latency {sup_lat:.2}ns must beat unsupervised {base_lat:.2}ns"
    );
}

#[test]
fn bw_collapse_supervised_beats_unsupervised() {
    let (base_lat, sup_lat, base_mig, sup_mig) =
        check_pair(HardFault::BwCollapse, SystemKind::Hemem);
    assert!(
        sup_lat < base_lat,
        "supervised post-fault latency {sup_lat:.2}ns must beat unsupervised {base_lat:.2}ns"
    );
    assert!(
        sup_mig < base_mig,
        "supervised must waste less work on the collapsed link \
         ({sup_mig} vs {base_mig} post-fault bytes)"
    );
}

#[test]
fn engine_outage_supervised_beats_unsupervised() {
    let (base_lat, sup_lat, _, _) = check_pair(HardFault::EngineOutage, SystemKind::Hemem);
    assert!(
        sup_lat < base_lat,
        "supervised post-fault latency {sup_lat:.2}ns must beat unsupervised {base_lat:.2}ns"
    );
}
