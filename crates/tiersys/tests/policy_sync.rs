//! The policy's view of placement matches the machine once migrations
//! settle.
//!
//! At the start of every tick each system re-files pages in its hotness
//! policy after failed, retried and evacuated migrations. This test runs
//! every system × {default policy, SIEVE, LRU} × ±Colloid × seeds 1–3 on a
//! three-tier machine, with and without injected migration failures. Each
//! case warms up, freezes the system, ticks until no migration is queued
//! or in flight, and then checks that the frozen system re-drove no parked
//! retry and that every page the policy files under a tier is resident in
//! that tier.

// `SystemParams::new` genuinely takes a Vec of managed page ranges.
#![allow(clippy::single_range_in_vec_init)]

use memsim::{
    AccessStream, CoreConfig, Machine, MachineConfig, ObjectAccess, TierId, TrafficClass,
    LINES_PER_PAGE, LINE_SIZE, PAGE_SIZE,
};
use rand::rngs::SmallRng;
use rand::Rng;
use simkit::SimTime;
use tiersys::{build_system, ColloidParams, PolicyKind, SystemKind, SystemParams, TieringSystem};

/// Working-set pages, all starting on the far tier.
const WS: u64 = 160;
/// Pages that receive 90% of the accesses.
const HOT: u64 = 16;
const WARMUP_TICKS: usize = 60;
/// Frozen ticks allowed for queued and in-flight migrations to drain
/// (every case drains within 2).
const MAX_SETTLE_TICKS: usize = 20;

/// 90/10 hot/cold stream over `[0, HOT)` vs `[0, WS)`.
struct HotCold;

impl AccessStream for HotCold {
    fn next(&mut self, _now: SimTime, rng: &mut SmallRng) -> ObjectAccess {
        let vpn = if rng.gen_bool(0.9) {
            rng.gen_range(0..HOT)
        } else {
            rng.gen_range(0..WS)
        };
        ObjectAccess::read_line(vpn * PAGE_SIZE + rng.gen_range(0..LINES_PER_PAGE) * LINE_SIZE)
    }
}

fn machine(seed: u64, migration_fail_prob: f64) -> Machine {
    let mut cfg = MachineConfig::cxl_three_tier();
    cfg.tiers[0].capacity_bytes = 96 * PAGE_SIZE;
    cfg.tiers[1].capacity_bytes = 128 * PAGE_SIZE;
    cfg.tiers[2].capacity_bytes = 2048 * PAGE_SIZE;
    cfg.pebs_period = 16;
    cfg.seed = seed;
    cfg.faults.migration_fail_prob = migration_fail_prob;
    let mut m = Machine::new(cfg);
    m.place_range(0..WS, TierId(2));
    m.add_core(
        Box::new(HotCold),
        CoreConfig::app_default(),
        TrafficClass::App,
    );
    m
}

/// Migrations not yet settled: queued or in flight.
fn unsettled(m: &Machine) -> u64 {
    m.migration_backlog() as u64 + m.migration_counters().in_flight()
}

/// Parked moves the system's retry queue has re-enqueued so far.
fn recovered(system: &dyn TieringSystem) -> u64 {
    system
        .retry_stats()
        .expect("every system drives a retry queue")
        .recovered
}

fn tick(m: &mut Machine, system: &mut dyn TieringSystem) {
    let report = m.run_tick(SimTime::from_us(100.0));
    system.on_tick(m, &report);
}

/// Runs one case; `Err` describes how the policy and machine disagree.
fn run_case(
    kind: SystemKind,
    policy: Option<PolicyKind>,
    colloid: bool,
    seed: u64,
    migration_fail_prob: f64,
) -> Result<(), String> {
    let mut m = machine(seed, migration_fail_prob);
    let mut params = SystemParams::new(vec![0..WS], colloid.then(ColloidParams::default));
    params.unloaded_ns = m
        .config()
        .tiers
        .iter()
        .map(|t| t.unloaded_latency().as_ns())
        .collect();
    params.policy = policy;
    let mut system = build_system(kind, params);
    let case = format!(
        "{} on {} (seed {seed}, fail prob {migration_fail_prob})",
        system.name(),
        policy.unwrap_or(kind.default_policy()).name()
    );
    for _ in 0..WARMUP_TICKS {
        tick(&mut m, system.as_mut());
    }
    system.set_frozen(true);
    let recovered_at_freeze = recovered(system.as_ref());
    let mut settle = 0;
    while unsettled(&m) > 0 {
        if settle == MAX_SETTLE_TICKS {
            return Err(format!(
                "{case}: {} migrations still unsettled after {settle} frozen ticks",
                unsettled(&m)
            ));
        }
        tick(&mut m, system.as_mut());
        settle += 1;
    }
    let redriven = recovered(system.as_ref()) - recovered_at_freeze;
    if redriven > 0 {
        return Err(format!(
            "{case}: the frozen system re-enqueued {redriven} parked moves"
        ));
    }
    let ranking = system
        .export_policy_ranking()
        .expect("every system runs a hotness policy");
    let misfiled: Vec<String> = ranking
        .iter()
        .filter(|&&(vpn, tier, _)| m.tier_of(vpn) != Some(tier))
        .map(|&(vpn, tier, _)| format!("{vpn}: policy {tier:?}, machine {:?}", m.tier_of(vpn)))
        .collect();
    if misfiled.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{case}: {} pages misfiled, e.g. {}",
            misfiled.len(),
            misfiled[..misfiled.len().min(4)].join("; ")
        ))
    }
}

#[test]
fn policy_tiers_match_the_machine_once_migrations_settle() {
    let mut cases = 0;
    let mut failures = Vec::new();
    for kind in SystemKind::ALL {
        for policy in [None, Some(PolicyKind::Sieve), Some(PolicyKind::Lru)] {
            for colloid in [false, true] {
                for migration_fail_prob in [0.0, 0.3] {
                    for seed in 1..=3 {
                        cases += 1;
                        if let Err(e) = run_case(kind, policy, colloid, seed, migration_fail_prob) {
                            failures.push(e);
                        }
                    }
                }
            }
        }
    }
    assert_eq!(cases, 108);
    assert!(
        failures.is_empty(),
        "{} of {cases} cases out of step:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
