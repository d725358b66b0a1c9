//! Property-based tests for the migration engine in both of its modes,
//! exclusive and transactional.
//!
//! The engine's safety story rests on invariants that must survive *any*
//! fault plan — write-conflict storms, channel stalls, engine outages,
//! transient failures — on any engine shape, in either mode:
//!
//! 1. **Page conservation**: across commit, dirty-retry, abort, and
//!    failover, no page is ever lost or duplicated. Every page stays
//!    mapped to exactly one tier, and an aborted copy leaves its page
//!    intact at the source with the destination reservation released.
//! 2. **Balanced books**: `started == completed + aborted + in_flight`
//!    at every tick. The transactional mode commits every page through a
//!    shootdown batch; the exclusive mode never batches, retries, fails
//!    over or aborts at the watchdog.
//! 3. **Termination**: every started copy commits or aborts within the
//!    configured watchdog bound
//!    ([`memsim::MigrationEngineConfig::max_txn_lifetime`]); nothing
//!    stays in flight forever, even when every channel stalls.
//! 4. **Inert faults**: the exclusive mode ignores write storms and
//!    channel stalls, so removing them from a plan changes nothing it
//!    reports, even with cores writing into the pages being copied.

use memsim::{
    AccessStream, ChannelStall, CoreConfig, EngineOutage, EnqueueError, FaultPlan, Machine,
    MachineConfig, MigrationEngineConfig, ObjectAccess, TierId, TrafficClass, WriteConflictStorm,
    LINES_PER_PAGE, LINE_SIZE, PAGE_SIZE,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;
use simkit::SimTime;

/// Pages placed on the default tier at the start of every case.
const PAGES: u64 = 128;
/// Pages enqueued for migration to the alternate tier.
const ENQUEUED: u64 = 64;
/// Leading pages of the working set enqueued a second time.
const REPEATED: u64 = 4;
/// Per-case tick budget; far beyond any generated fault horizon (20 ms)
/// plus the worst-case transaction lifetime.
const MAX_TICKS: usize = 400;

/// A random engine shape: either mode, 1–4 channels, retry budget 0–4, a
/// watchdog spanning both sides of the page-copy time, and small-to-large
/// shootdown batches. The exclusive mode runs one channel and ignores the
/// transactional knobs whatever they say.
fn engine() -> impl Strategy<Value = MigrationEngineConfig> {
    (
        (1u32..=4, 0u32..=4),
        (50.0f64..500.0, 1u32..=16),
        prop::bool::ANY,
    )
        .prop_map(
            |((channels, dirty_retry_max), (watchdog_us, shootdown_batch), transactional)| {
                let mut e = MigrationEngineConfig::transactional();
                e.transactional = transactional;
                e.channels = channels;
                e.dirty_retry_max = dirty_retry_max;
                e.watchdog = SimTime::from_us(watchdog_us);
                e.shootdown_batch = shootdown_batch;
                e
            },
        )
}

/// A random fault plan aimed at the migration path: storms that dirty
/// in-flight transactions (sometimes past the retry cap), channel stalls,
/// one optional outage window, and transient failures. All windows close
/// before 20 ms so the case horizon covers them.
fn plan(channels: u32) -> impl Strategy<Value = FaultPlan> {
    (
        prop::collection::vec(
            ((0.0f64..10.0, 0.5f64..10.0), (0.05f64..1.0, 1u32..6)),
            0..3,
        ),
        prop::collection::vec((0u32..4, (0.0f64..5.0, 0.5f64..1.9)), 0..3),
        (prop::bool::ANY, 0.0f64..0.25),
    )
        .prop_map(move |(storms, stalls, (outage, fail_prob))| FaultPlan {
            write_conflict_storms: storms
                .into_iter()
                .map(
                    |((start_ms, len_ms), (hot_fraction, dirties_per_txn))| WriteConflictStorm {
                        start: SimTime::from_ms(start_ms),
                        end: SimTime::from_ms(start_ms + len_ms),
                        hot_fraction,
                        dirties_per_txn,
                    },
                )
                .collect(),
            // Each stall lives in its own 7 ms slot so two stalls can
            // never overlap on one channel (the plan validator rejects
            // overlapping windows).
            channel_stalls: stalls
                .into_iter()
                .enumerate()
                .map(|(i, (ch, (start_ms, len_ms)))| {
                    let base = i as f64 * 7.0;
                    ChannelStall {
                        channel: ch % channels,
                        start: SimTime::from_ms(base + start_ms),
                        end: SimTime::from_ms(base + start_ms + len_ms),
                    }
                })
                .collect(),
            engine_outages: if outage {
                vec![EngineOutage {
                    start: SimTime::from_ms(2.0),
                    end: SimTime::from_ms(5.0),
                }]
            } else {
                Vec::new()
            },
            migration_fail_prob: fail_prob,
            ..FaultPlan::none()
        })
}

/// Random single-line accesses over the working set, three in ten of
/// them writes: writebacks land on pages mid-copy.
struct Writer;

impl AccessStream for Writer {
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

/// Builds the machine for one case and enqueues the working set, then its
/// first `REPEATED` pages again: the exclusive mode admits a page that is
/// already queued, the transactional mode refuses it.
fn build(engine: MigrationEngineConfig, faults: FaultPlan, seed: u64) -> Machine {
    let mut cfg = MachineConfig::icelake_two_tier();
    cfg.engine = engine;
    cfg.faults = faults;
    cfg.seed = seed;
    cfg.validate().expect("generated config must validate");
    let transactional = cfg.engine.transactional;
    let mut m = Machine::new(cfg);
    m.place_range(0..PAGES, TierId::DEFAULT);
    for v in 0..ENQUEUED {
        m.enqueue_migration(v, TierId::ALTERNATE)
            .expect("first enqueue of each page must be accepted");
    }
    let expect = if transactional {
        Err(EnqueueError::DuplicateInFlight)
    } else {
        Ok(())
    };
    for v in 0..REPEATED {
        assert_eq!(m.enqueue_migration(v, TierId::ALTERNATE), expect);
    }
    m
}

proptest! {
    /// No fault plan may lose or duplicate a page or leak a copy: every
    /// `run_tick` checks the machine's books (`Machine::check_invariants`
    /// runs after each tick in debug builds), and every started copy
    /// retires within the horizon.
    #[test]
    fn pages_are_conserved_under_any_fault_plan(
        engine in engine(),
        seed in 0u64..1 << 32,
        plan in plan(4),
    ) {
        let mut plan = plan;
        for s in &mut plan.channel_stalls {
            s.channel %= engine.channels;
        }
        let mut m = build(engine, plan, seed);
        let tick = SimTime::from_us(100.0);
        for _ in 0..MAX_TICKS {
            let rep = m.run_tick(tick);
            if rep.migration_backlog == 0 && m.migration_counters().in_flight() == 0 {
                break;
            }
        }
        prop_assert_eq!(m.check_invariants(), vec![]);
        let c = m.migration_counters();
        prop_assert_eq!(c.in_flight(), 0, "transactions leaked past the horizon");
        if !m.config().engine.transactional {
            // The exclusive mode never batches, retries, fails over or
            // aborts at the watchdog.
            prop_assert_eq!(
                (c.commit_batches, c.batched_pages, c.dirty_retries, c.failovers),
                (0, 0, 0, 0)
            );
            prop_assert_eq!((c.aborted_write_conflict, c.aborted_watchdog), (0, 0));
        }
    }

    /// Every started copy terminates within the watchdog bound: once the
    /// queue drains, the remaining in-flight copies all commit or abort
    /// within `max_txn_lifetime`.
    #[test]
    fn transactions_terminate_within_the_watchdog_bound(
        engine in engine(),
        seed in 0u64..1 << 32,
        plan in plan(4),
    ) {
        let mut plan = plan;
        for s in &mut plan.channel_stalls {
            s.channel %= engine.channels;
        }
        let lifetime = engine.max_txn_lifetime();
        let mut m = build(engine, plan, seed);
        let tick = SimTime::from_us(100.0);
        let lifetime_ticks = (lifetime.as_ns() / tick.as_ns()).ceil() as usize + 1;
        let mut drained_at = None;
        let mut done_at = None;
        for i in 0..MAX_TICKS {
            let rep = m.run_tick(tick);
            let c = m.migration_counters();
            if drained_at.is_none() && rep.migration_backlog == 0 {
                drained_at = Some(i);
            }
            if c.in_flight() == 0 && rep.migration_backlog == 0 {
                done_at = Some(i);
                break;
            }
        }
        let drained = drained_at.expect("the queue never drained within the horizon");
        let done = done_at.expect("in-flight transactions never terminated");
        // Once no new transactions can start, the stragglers must resolve
        // within one watchdog-bounded lifetime.
        prop_assert!(
            done <= drained + lifetime_ticks,
            "transactions lived {} ticks past queue drain (bound {})",
            done - drained,
            lifetime_ticks
        );
    }

    /// The exclusive mode ignores write storms and channel stalls: with
    /// two cores writing into the working set and a batch of migrations
    /// enqueued every tick across the whole fault horizon, removing them
    /// from a case's plan changes no enqueue result, no tick report and no
    /// counter.
    #[test]
    fn exclusive_mode_ignores_storms_and_stalls(
        engine in engine(),
        seed in 0u64..1 << 32,
        plan in plan(4),
    ) {
        let mut engine = engine;
        engine.transactional = false;
        let mut plan = plan;
        for s in &mut plan.channel_stalls {
            s.channel %= engine.channels;
        }
        let calm = FaultPlan {
            write_conflict_storms: Vec::new(),
            channel_stalls: Vec::new(),
            ..plan.clone()
        };
        let mut stormy = build(engine.clone(), plan, seed);
        let mut calm = build(engine, calm, seed);
        // Cores that think between accesses keep the case cheap while
        // their writebacks still land on pages mid-copy.
        let core = CoreConfig {
            think_time: SimTime::from_us(1.0),
            ..CoreConfig::app_default()
        };
        for m in [&mut stormy, &mut calm] {
            for _ in 0..2 {
                m.add_core(Box::new(Writer), core.clone(), TrafficClass::App);
            }
        }
        // 80 ticks of 250 µs cover every generated fault window.
        let tick = SimTime::from_us(250.0);
        for i in 0..80u64 {
            for v in (i * 8..i * 8 + 8).map(|v| v % PAGES) {
                let dst = TierId(1 - stormy.tier_of(v).expect("mapped").0);
                prop_assert_eq!(
                    stormy.enqueue_migration(v, dst),
                    calm.enqueue_migration(v, dst)
                );
            }
            let (a, b) = (stormy.run_tick(tick), calm.run_tick(tick));
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        prop_assert_eq!(stormy.migration_counters(), calm.migration_counters());
    }
}
