//! End-to-end integration tests spanning the whole stack: workload →
//! machine → tiering system → Colloid controller → migration engine.
//!
//! These check the paper's *headline shapes* on reduced-size runs (the
//! full-scale regenerations live in `experiments`' binaries):
//!
//! - under memory interconnect contention, Colloid recovers most of the
//!   gap between the packing systems and the best case (Figures 1/5);
//! - without contention, Colloid matches the vanilla systems (Figure 5);
//! - the best-case hot-set split moves out of the default tier as
//!   contention rises (Figure 2b);
//! - dynamic changes are re-converged (Figure 9).

use experiments::oracle::best_case_over;
use experiments::runner::{run, RunConfig};
use experiments::scenario::{build_gups, GupsScenario, Policy};
use memsim::TierId;
use simkit::SimTime;
use tiersys::SystemKind;

fn quick_rc() -> RunConfig {
    RunConfig {
        min_warmup_ticks: 120,
        max_warmup_ticks: 450,
        measure_ticks: 60,
        window: 40,
        tolerance: 0.02,
        collect_series: false,
    }
}

#[test]
fn colloid_beats_vanilla_under_contention() {
    let scenario = GupsScenario::intensity(3);
    let vanilla = {
        let mut e = build_gups(
            &scenario,
            Policy::System {
                kind: SystemKind::Hemem,
                colloid: false,
            },
        );
        // The packing systems converge slowly towards their (bad) steady
        // state; give the vanilla run a full warm-up.
        let mut rc = quick_rc();
        rc.max_warmup_ticks = 900;
        run(&mut e, &rc).ops_per_sec
    };
    let colloid = {
        let mut e = build_gups(
            &scenario,
            Policy::System {
                kind: SystemKind::Hemem,
                colloid: true,
            },
        );
        run(&mut e, &quick_rc()).ops_per_sec
    };
    assert!(
        colloid > vanilla * 1.25,
        "Colloid should clearly win at 3x: {:.1}M vs {:.1}M ops/s",
        colloid / 1e6,
        vanilla / 1e6
    );
}

#[test]
fn colloid_matches_vanilla_without_contention() {
    let scenario = GupsScenario::intensity(0);
    let vanilla = {
        let mut e = build_gups(
            &scenario,
            Policy::System {
                kind: SystemKind::Hemem,
                colloid: false,
            },
        );
        run(&mut e, &quick_rc()).ops_per_sec
    };
    let colloid = {
        let mut e = build_gups(
            &scenario,
            Policy::System {
                kind: SystemKind::Hemem,
                colloid: true,
            },
        );
        run(&mut e, &quick_rc()).ops_per_sec
    };
    let ratio = colloid / vanilla;
    assert!(
        (0.85..=1.15).contains(&ratio),
        "at 0x Colloid must match vanilla, ratio = {ratio:.2}"
    );
}

#[test]
fn best_case_split_moves_out_with_contention() {
    let rc = RunConfig::static_placement();
    let at0 = best_case_over(&GupsScenario::intensity(0), [0.0, 0.5, 1.0], &rc);
    let at3 = best_case_over(&GupsScenario::intensity(3), [0.0, 0.5, 1.0], &rc);
    assert!(
        at0.best_fraction() > at3.best_fraction(),
        "the optimal hot share in the default tier must fall with contention: \
         {} at 0x vs {} at 3x",
        at0.best_fraction(),
        at3.best_fraction()
    );
    assert_eq!(at3.best_fraction(), 0.0, "at 3x the hot set belongs in alt");
}

#[test]
fn colloid_balances_tier_latencies() {
    let scenario = GupsScenario::intensity(1);
    let mut e = build_gups(
        &scenario,
        Policy::System {
            kind: SystemKind::Memtis,
            colloid: true,
        },
    );
    let r = run(&mut e, &quick_rc());
    let l_d = r.latency_ns[0].expect("default busy");
    let l_a = r.latency_ns[1].expect("alternate busy");
    let gap = (l_d - l_a).abs() / l_d.max(l_a);
    assert!(
        gap < 0.35,
        "Colloid should roughly balance latencies at 1x: L_D={l_d:.0} L_A={l_a:.0}"
    );
}

#[test]
fn hot_set_change_recovers() {
    // Figure 9 left column: the hot set jumps; throughput dips and comes
    // back.
    let tick = SimTime::from_us(100.0);
    let mut scenario = GupsScenario::intensity(0);
    scenario.phases = vec![(tick * 250, 0)];
    let mut e = build_gups(
        &scenario,
        Policy::System {
            kind: SystemKind::Hemem,
            colloid: true,
        },
    );
    let r = run(&mut e, &RunConfig::timeline(700));
    let mean = |s: &[experiments::TickSample]| {
        s.iter().map(|x| x.ops_per_sec).sum::<f64>() / s.len() as f64
    };
    let before = mean(&r.series[200..250]);
    let dip = mean(&r.series[255..285]);
    let after = mean(&r.series[640..700]);
    assert!(dip < before * 0.95, "the jump must dent throughput");
    assert!(
        after > before * 0.9,
        "throughput must recover: before {:.1}M, after {:.1}M",
        before / 1e6,
        after / 1e6
    );
}

#[test]
fn contention_storm_adaptation() {
    // Figure 9 right column: antagonist switches on; Colloid must end up
    // above the contention-oblivious baseline.
    let tick = SimTime::from_us(100.0);
    let run_one = |colloid: bool| {
        let mut scenario = GupsScenario::intensity(0);
        scenario.antagonist_change = Some((tick * 200, 15));
        let mut e = build_gups(
            &scenario,
            Policy::System {
                kind: SystemKind::Hemem,
                colloid,
            },
        );
        let r = run(&mut e, &RunConfig::timeline(800));
        r.series[740..800]
            .iter()
            .map(|s| s.ops_per_sec)
            .sum::<f64>()
            / 60.0
    };
    let vanilla = run_one(false);
    let colloid = run_one(true);
    assert!(
        colloid > vanilla * 1.2,
        "after the storm Colloid must adapt: {:.1}M vs {:.1}M",
        colloid / 1e6,
        vanilla / 1e6
    );
}

#[test]
fn runs_are_deterministic() {
    let scenario = GupsScenario::intensity(1);
    let go = || {
        let mut e = build_gups(
            &scenario,
            Policy::System {
                kind: SystemKind::Hemem,
                colloid: true,
            },
        );
        let rc = RunConfig {
            min_warmup_ticks: 50,
            max_warmup_ticks: 50,
            measure_ticks: 50,
            window: 25,
            tolerance: 0.0,
            collect_series: false,
        };
        let r = run(&mut e, &rc);
        (r.ops_per_sec, r.bytes_by_tier_class)
    };
    let a = go();
    let b = go();
    assert_eq!(a.0, b.0, "same seed must give bit-identical throughput");
    assert_eq!(a.1, b.1, "and identical byte counters");
}

#[test]
fn static_placement_never_migrates() {
    let scenario = GupsScenario::intensity(1);
    let mut e = build_gups(
        &scenario,
        Policy::Static {
            hot_default_fraction: 0.5,
        },
    );
    let r = run(&mut e, &RunConfig::static_placement());
    assert_eq!(e.machine.migrated_pages(), 0);
    let mig = memsim::TrafficClass::Migration.index();
    assert_eq!(r.bytes_by_tier_class[0][mig], 0);
    assert_eq!(r.bytes_by_tier_class[1][mig], 0);
}

#[test]
fn antagonist_stays_pinned_under_every_system() {
    for kind in SystemKind::ALL {
        let scenario = GupsScenario::intensity(3);
        let mut e = build_gups(
            &scenario,
            Policy::System {
                kind,
                colloid: true,
            },
        );
        let rc = RunConfig {
            min_warmup_ticks: 100,
            max_warmup_ticks: 100,
            measure_ticks: 20,
            window: 50,
            tolerance: 0.0,
            collect_series: false,
        };
        let _ = run(&mut e, &rc);
        for vpn in 0..128 {
            assert_eq!(
                e.machine.tier_of(vpn),
                Some(TierId::DEFAULT),
                "{kind:?} moved pinned antagonist page {vpn}"
            );
        }
    }
}
