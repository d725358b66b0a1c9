//! Property-based tests for the supervisor mode machine.
//!
//! The graceful-degradation story rests on two invariants: the mode
//! machine is a *pure* function of its health-sample history (so runs are
//! reproducible and the pin tests mean something), and its hysteresis
//! actually prevents flapping (oscillating health signals cannot thrash
//! modes). Both are checked over randomly generated sample sequences.

// `SystemParams::new` genuinely takes a Vec of managed page ranges.
#![allow(clippy::single_range_in_vec_init)]

use proptest::prelude::*;
use tiersys::{HealthSample, SupervisorConfig, SupervisorMode};

fn config() -> SupervisorConfig {
    SupervisorConfig::new(std::iter::once(0..64).collect())
}

/// An arbitrary-but-plausible health sample: mixes healthy ticks,
/// partial failures, total failures, backlog pressure, inversion, and
/// hard-fault evidence.
fn sample() -> impl Strategy<Value = HealthSample> {
    (
        (
            0u64..8,   // failed
            0u64..8,   // succeeded
            0u64..512, // retry_pending
            0u64..4,   // evacuated
        ),
        (
            prop::bool::ANY, // tier_shrunk
            0u64..4,         // over_capacity
            prop::bool::ANY, // latency_inverted
            prop::bool::ANY, // drain_active
        ),
        0.0f64..8.0, // copy_slowdown (spans both sides of the threshold)
    )
        .prop_map(
            |(
                (failed, succeeded, retry_pending, evacuated),
                (tier_shrunk, over_capacity, latency_inverted, drain_active),
                copy_slowdown,
            )| HealthSample {
                failed,
                succeeded,
                retry_pending,
                evacuated,
                tier_shrunk,
                over_capacity,
                latency_inverted,
                drain_active,
                copy_slowdown,
            },
        )
}

/// A sample that is unambiguously healthy.
fn healthy_sample() -> impl Strategy<Value = HealthSample> {
    (0u64..4).prop_map(|succeeded| HealthSample {
        succeeded: succeeded + 1,
        ..HealthSample::default()
    })
}

/// A sample that is unhealthy but carries no hard-fault evidence (so the
/// immediate Evacuating escape hatch stays closed).
fn soft_unhealthy_sample() -> impl Strategy<Value = HealthSample> {
    (1u64..8, prop::bool::ANY).prop_map(|(failed, all_fail)| HealthSample {
        failed,
        succeeded: if all_fail { 0 } else { failed.div_ceil(3) },
        ..HealthSample::default()
    })
}

proptest! {
    /// Determinism: the same sample sequence always produces the same mode
    /// sequence. (The machine holds no clock and no RNG; this pins that.)
    #[test]
    fn mode_machine_is_deterministic(
        steps in prop::collection::vec(sample(), 1..300)
    ) {
        let mut a = tiersys::supervisor::ModeMachine::new(&config());
        let mut b = tiersys::supervisor::ModeMachine::new(&config());
        for s in &steps {
            prop_assert_eq!(a.step(s), b.step(s));
        }
    }

    /// Hysteresis, degrade direction: as long as no `enter_ticks`-long run
    /// of consecutive unhealthy ticks occurs, the machine never leaves
    /// Normal — a flapping signal (unhealthy bursts shorter than the
    /// hysteresis window) cannot thrash modes.
    #[test]
    fn short_unhealthy_bursts_never_degrade(
        bursts in prop::collection::vec(
            (prop::collection::vec(soft_unhealthy_sample(), 1..3),
             prop::collection::vec(healthy_sample(), 1..4)),
            1..40,
        )
    ) {
        let cfg = config();
        prop_assume!(cfg.enter_ticks == 3);
        let mut mm = tiersys::supervisor::ModeMachine::new(&cfg);
        for (unhealthy, healthy) in bursts {
            // Bursts of 1–2 unhealthy ticks stay under enter_ticks=3
            // because each is followed by at least one healthy tick.
            for s in &unhealthy {
                prop_assert_eq!(mm.step(s), SupervisorMode::Normal);
            }
            for s in &healthy {
                prop_assert_eq!(mm.step(s), SupervisorMode::Normal);
            }
        }
    }

    /// Hysteresis, recover direction: once degraded, short healthy bursts
    /// (below `exit_ticks`) never recover the mode — the machine stays in
    /// Throttled rather than bouncing Throttled → Recovered → Throttled.
    #[test]
    fn short_healthy_bursts_never_recover(
        bursts in prop::collection::vec(
            (prop::collection::vec(healthy_sample(), 1..9),
             prop::collection::vec(soft_unhealthy_sample(), 1..3)),
            1..40,
        )
    ) {
        let cfg = config();
        prop_assume!(cfg.exit_ticks == 10);
        let mut mm = tiersys::supervisor::ModeMachine::new(&cfg);
        // Degrade for real: enter_ticks consecutive mixed-failure ticks.
        let degraded = HealthSample { failed: 3, succeeded: 1, ..HealthSample::default() };
        for _ in 0..cfg.enter_ticks {
            mm.step(&degraded);
        }
        prop_assert!(mm.mode() != SupervisorMode::Normal);
        for (healthy, unhealthy) in bursts {
            // Healthy runs of at most 8 < exit_ticks=10 ticks, every run
            // terminated by an unhealthy tick: recovery must never fire.
            for s in &healthy {
                let mode = mm.step(s);
                prop_assert!(
                    mode != SupervisorMode::Recovered && mode != SupervisorMode::Normal,
                    "recovered early into {:?}", mode
                );
            }
            for s in &unhealthy {
                let mode = mm.step(s);
                prop_assert!(
                    mode != SupervisorMode::Recovered && mode != SupervisorMode::Normal,
                    "recovered early into {:?}", mode
                );
            }
        }
    }

    /// Liveness under sustained health: from any reachable state, a long
    /// enough run of healthy ticks with no hard-fault evidence always
    /// brings the machine back to Normal.
    #[test]
    fn sustained_health_always_recovers(
        prefix in prop::collection::vec(sample(), 0..120),
    ) {
        let cfg = config();
        let mut mm = tiersys::supervisor::ModeMachine::new(&cfg);
        for s in &prefix {
            mm.step(s);
        }
        // Enough healthy ticks to exit any mode and complete the
        // Recovered dwell, with margin.
        let enough = (cfg.exit_ticks + cfg.recovered_dwell + cfg.enter_ticks) * 3;
        let healthy = HealthSample { succeeded: 1, ..HealthSample::default() };
        let mut mode = mm.mode();
        for _ in 0..enough {
            mode = mm.step(&healthy);
        }
        prop_assert_eq!(mode, SupervisorMode::Normal);
    }
}

mod n_tier_conservation {
    use super::*;
    use memsim::{
        AccessStream, CoreConfig, Machine, MachineConfig, ObjectAccess, TierId, TrafficClass,
        LINES_PER_PAGE, LINE_SIZE, PAGE_SIZE,
    };
    use rand::rngs::SmallRng;
    use rand::Rng;
    use simkit::SimTime;
    use tiersys::{build_system, ColloidParams, SystemKind, SystemParams};

    /// First page of the application's region (the antagonist's pinned
    /// buffer lives at the bottom of the address space).
    const APP_BASE: u64 = 1024;
    /// Pinned antagonist buffer on the local tier, pages `[0, 64)`.
    const ANTAGONIST_PAGES: u64 = 64;

    /// 90/10 hot/cold stream over `[base, base + total)`.
    struct HotCold {
        base: u64,
        hot: u64,
        total: u64,
    }
    impl AccessStream for HotCold {
        fn next(&mut self, _now: SimTime, rng: &mut SmallRng) -> ObjectAccess {
            let off = if rng.gen_bool(0.9) {
                rng.gen_range(0..self.hot)
            } else {
                rng.gen_range(0..self.total)
            };
            let vpn = self.base + off;
            ObjectAccess::read_line(vpn * PAGE_SIZE + rng.gen_range(0..LINES_PER_PAGE) * LINE_SIZE)
        }
    }

    proptest! {
        /// Across every tiering system ± Colloid on a three-tier chain, a
        /// mid-run antagonist storm on the local tier never loses, forks,
        /// or overflows a page: one-hop promotion/demotion and the room-
        /// making spills conserve the page population at every step
        /// (`run_tick` checks the machine's invariants in debug builds),
        /// and the pinned antagonist buffer never moves.
        #[test]
        fn contention_shift_conserves_pages_on_three_tiers(
            kind_idx in 0usize..3,
            colloid in prop::bool::ANY,
            ws in 128u64..=192,
            hot in 16u64..=48,
            seed in 0u64..1_000_000,
        ) {
            let kind = SystemKind::ALL[kind_idx];
            let mut cfg = MachineConfig::cxl_three_tier();
            cfg.tiers[0].capacity_bytes = 96 * PAGE_SIZE;
            cfg.tiers[1].capacity_bytes = 128 * PAGE_SIZE;
            cfg.tiers[2].capacity_bytes = 2048 * PAGE_SIZE;
            cfg.pebs_period = 16;
            cfg.seed = seed;
            let mut m = Machine::new(cfg);
            m.place_range(0..ANTAGONIST_PAGES, TierId(0));
            for vpn in 0..ANTAGONIST_PAGES {
                m.pin(vpn);
            }
            let mut antagonists = Vec::new();
            for _ in 0..2 {
                let id = m.add_core(
                    Box::new(HotCold { base: 0, hot: ANTAGONIST_PAGES, total: ANTAGONIST_PAGES }),
                    CoreConfig::antagonist_default(),
                    TrafficClass::Antagonist,
                );
                m.set_core_active(id, false);
                antagonists.push(id);
            }
            m.place_range(APP_BASE..APP_BASE + ws, TierId(2));
            m.add_core(
                Box::new(HotCold { base: APP_BASE, hot, total: ws }),
                CoreConfig::app_default(),
                TrafficClass::App,
            );
            let mut params = SystemParams::new(
                vec![APP_BASE..APP_BASE + ws],
                colloid.then(ColloidParams::default),
            );
            params.unloaded_ns = m
                .config()
                .tiers
                .iter()
                .map(|t| t.unloaded_latency().as_ns())
                .collect();
            let mut system = build_system(kind, params);
            for tick in 0..40 {
                let rep = m.run_tick(SimTime::from_us(100.0));
                system.on_tick(&mut m, &rep);
                if tick % 10 == 9 {
                    for vpn in 0..ANTAGONIST_PAGES {
                        prop_assert_eq!(
                            m.tier_of(vpn),
                            Some(TierId(0)),
                            "pre-shift tick {}: pinned page {} moved",
                            tick,
                            vpn
                        );
                    }
                }
            }
            for &id in &antagonists {
                m.set_core_active(id, true);
            }
            for tick in 0..40 {
                let rep = m.run_tick(SimTime::from_us(100.0));
                system.on_tick(&mut m, &rep);
                if tick % 10 == 9 {
                    for vpn in 0..ANTAGONIST_PAGES {
                        prop_assert_eq!(
                            m.tier_of(vpn),
                            Some(TierId(0)),
                            "post-shift tick {}: pinned page {} moved",
                            tick,
                            vpn
                        );
                    }
                }
            }
        }
    }
}
