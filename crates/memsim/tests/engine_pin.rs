//! Pins the migration engine's observable behaviour in both modes.
//!
//! Each case runs a small machine for 60 ticks. Two cores read and write
//! random lines of the pages being migrated, so writebacks land on pages
//! mid-copy. The fault plan aims at the migration path: an engine outage,
//! transient failures, a bandwidth phase and a tier shrink, plus a write
//! storm and a channel stall on the transactional mode. Every tick the
//! case enqueues a fixed batch of migrations, including pages that are
//! already queued.
//!
//! Every `enqueue_migration` result, every tick's `TickReport` and the
//! final `MigrationCounters` fold into one FNV-1a digest per case, checked
//! against a recorded constant. A change to queueing, pacing, fault hooks,
//! commit timing or the engine's books moves it.

use memsim::{
    AccessStream, BandwidthPhase, ChannelStall, CoreConfig, EngineOutage, FaultPlan, Machine,
    MachineConfig, MigrationEngineConfig, ObjectAccess, TierId, TierShrink, TrafficClass,
    WriteConflictStorm, LINES_PER_PAGE, LINE_SIZE, PAGE_SIZE,
};
use rand::rngs::SmallRng;
use rand::Rng;
use simkit::SimTime;

/// Ticks per case.
const TICKS: u64 = 60;
/// Pages placed on tier 0 and touched by the cores.
const PAGES: u64 = 64;
/// Migrations enqueued per tick, before the repeats of queued pages.
const BATCH: u64 = 12;
/// How far the batch window moves each tick; smaller than `BATCH`, so
/// consecutive batches overlap.
const STRIDE: u64 = 5;

/// Random single-line accesses over `0..PAGES`, three in ten of them
/// writes.
struct PartialWriter;

impl AccessStream for PartialWriter {
    fn next(&mut self, _now: SimTime, rng: &mut SmallRng) -> ObjectAccess {
        let vpn = rng.gen_range(0..PAGES);
        ObjectAccess {
            vaddr: vpn * PAGE_SIZE + rng.gen_range(0..LINES_PER_PAGE) * LINE_SIZE,
            size: LINE_SIZE as u32,
            is_write: rng.gen_bool(0.3),
            dependent: false,
            llc_hit_prob: 0.0,
        }
    }
}

/// FNV-1a over the bytes of everything a case observes.
struct Fnv(u64);

impl Fnv {
    fn feed(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The faults every case runs under; `shrink` names the tier that loses
/// frames. The transactional mode also gets a write storm and a stall.
fn plan(shrink: TierId, transactional: bool) -> FaultPlan {
    let mut plan = FaultPlan {
        migration_fail_prob: 0.1,
        engine_outages: vec![EngineOutage {
            start: SimTime::from_us(1000.0),
            end: SimTime::from_us(1600.0),
        }],
        bandwidth_phases: vec![BandwidthPhase {
            start: SimTime::from_us(2000.0),
            end: Some(SimTime::from_us(3500.0)),
            factor: 0.05,
        }],
        tier_shrinks: vec![TierShrink {
            tier: shrink,
            at: SimTime::from_us(4000.0),
            new_frames: 20,
        }],
        ..FaultPlan::none()
    };
    if transactional {
        plan.write_conflict_storms = vec![WriteConflictStorm {
            start: SimTime::from_us(500.0),
            end: SimTime::from_us(5000.0),
            hot_fraction: 0.5,
            dirties_per_txn: 2,
        }];
        plan.channel_stalls = vec![ChannelStall {
            channel: 1,
            start: SimTime::from_us(2200.0),
            end: SimTime::from_us(3000.0),
        }];
    }
    plan
}

/// Runs one case and returns its digest. Each tick enqueues the batch
/// window, each page to the next tier up, then the window's first page
/// again to the same tier; on three tiers the window's second page is
/// also enqueued again, to the tier it was not queued for.
fn run(mut cfg: MachineConfig) -> u64 {
    let n_tiers = cfg.tiers.len() as u8;
    let shrink = TierId(1);
    cfg.faults = plan(shrink, cfg.engine.transactional);
    cfg.validate().expect("pin config must validate");
    let mut m = Machine::new(cfg);
    m.place_range(0..PAGES, TierId::DEFAULT);
    m.validate_fault_feasibility()
        .expect("pin fault plan must be feasible");
    for _ in 0..2 {
        m.add_core(
            Box::new(PartialWriter),
            CoreConfig::app_default(),
            TrafficClass::App,
        );
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for tick in 0..TICKS {
        let window: Vec<u64> = (0..BATCH).map(|i| (tick * STRIDE + i) % PAGES).collect();
        let mut enqueue = |m: &mut Machine, vpn: u64, dst: u8| {
            let r = m.enqueue_migration(vpn, TierId(dst));
            h.feed(&format!("{tick} {vpn} {dst} {r:?}\n"));
        };
        for &v in &window {
            let cur = m.tier_of(v).expect("mapped").0;
            enqueue(&mut m, v, (cur + 1) % n_tiers);
        }
        let first = window[0];
        let cur = m.tier_of(first).expect("mapped").0;
        enqueue(&mut m, first, (cur + 1) % n_tiers);
        if n_tiers > 2 {
            let second = window[1];
            let cur = m.tier_of(second).expect("mapped").0;
            enqueue(&mut m, second, (cur + 2) % n_tiers);
        }
        let rep = m.run_tick(SimTime::from_us(100.0));
        h.feed(&format!("{rep:?}\n"));
    }
    h.feed(&format!("{:?}\n", m.migration_counters()));
    h.0
}

fn check(case: &str, digest: u64, expect: u64) {
    assert_eq!(
        digest, expect,
        "{case}: digest {digest:#018x}, pinned {expect:#018x}"
    );
}

#[test]
fn exclusive_two_tier_is_pinned() {
    let digest = run(MachineConfig::icelake_two_tier());
    check("exclusive two-tier", digest, 0x76c1_d24e_0df2_049f);
}

#[test]
fn transactional_two_tier_is_pinned() {
    let mut cfg = MachineConfig::icelake_two_tier();
    cfg.engine = MigrationEngineConfig::transactional();
    let digest = run(cfg);
    check("transactional two-tier", digest, 0xc28f_0b53_91e3_9a60);
}

#[test]
fn exclusive_cxl_three_tier_is_pinned() {
    let digest = run(MachineConfig::cxl_three_tier());
    check("exclusive cxl three-tier", digest, 0x6723_d87b_d2fa_173a);
}
