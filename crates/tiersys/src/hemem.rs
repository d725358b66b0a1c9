//! HeMem (SOSP '21) and HeMem+Colloid (paper §4.1).
//!
//! HeMem tracks per-page access frequencies from PEBS samples, keeps
//! hot/cold page lists per tier, cools counts by halving when any count
//! reaches `COOLING_THRESHOLD`, and migrates asynchronously on a 10 ms
//! quantum (scaled here to one machine tick).
//!
//! Vanilla placement packs every page whose count exceeds a fixed hot
//! threshold into the default tier, demoting cold pages when frames run
//! out — the "pack the hottest pages in the default tier" policy the paper
//! shows is contention-oblivious.
//!
//! The Colloid integration (520 LoC in the paper) replaces that policy with
//! Algorithm 1: the binary hot/cold lists become one list per frequency bin
//! (five by default), and each quantum the page finder walks the bins from
//! hottest to coldest collecting pages whose summed access probability stays
//! within Δp and whose summed size stays within the dynamic migration
//! limit.

use memsim::{Machine, TickReport, TierId, Vpn, PAGE_SIZE};

use crate::policy::{FreqBins, HotnessPolicy};
use crate::{measurements, SystemCore, SystemKind, SystemLogic, SystemParams, TierMove};

/// HeMem's cooling threshold (counts halve when any page reaches it).
/// Lives with the extracted [`FreqBins`] policy now; re-exported here for
/// the tests that grew up with it.
#[cfg(test)]
const COOLING_THRESHOLD: u32 = crate::policy::FREQ_BINS_COOLING;
/// Work bound per quantum for the page finder.
const MAX_EXAMINED: usize = 65_536;

/// Counters exposed for tests and telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub struct HememStats {
    /// Pages promoted into the default tier.
    pub promoted: u64,
    /// Pages demoted to the alternate tier (including room-making).
    pub demoted: u64,
    /// Aging epochs of the hotness policy: cooling passes on the default
    /// [`FreqBins`].
    pub coolings: u64,
}

/// The HeMem tiering system (vanilla or +Colloid).
///
/// Hotness tracking lives behind a [`HotnessPolicy`], and placement asks
/// it the same rank/heat/victim questions whichever policy runs; on the
/// default [`FreqBins`] the answers are HeMem's frequency bins.
pub type HeMem = crate::System<HememLogic>;

/// HeMem's own parts: PEBS ingest, vanilla placement, the §4.1 page
/// finder and room-making. Everything else lives in the [`SystemCore`].
#[derive(Default)]
pub struct HememLogic {
    stats: HememStats,
}

impl HeMem {
    /// Builds HeMem; attaches Colloid when `params.colloid` is set and the
    /// hotness policy selected by `params.policy` ([`FreqBins`] if unset).
    pub fn new(params: SystemParams) -> Self {
        let budget = params.migration_limit_per_tick;
        crate::System {
            core: SystemCore::new(SystemKind::Hemem, params, budget),
            logic: HememLogic::default(),
        }
    }

    /// Telemetry counters.
    pub fn stats(&self) -> HememStats {
        HememStats {
            coolings: self.core.policy.stats().epochs,
            ..self.logic.stats
        }
    }

    /// The concrete [`FreqBins`] behind the default policy.
    ///
    /// # Panics
    ///
    /// Panics when a non-default policy is active.
    pub fn freq_bins(&self) -> &FreqBins {
        self.core
            .policy
            .as_any()
            .downcast_ref()
            .expect("freq_bins requires the FreqBins policy")
    }
}

/// The §4.1 page finder: walk the source tier hottest-first, collecting
/// pages whose summed access probability (heat over total heat) stays
/// within Δp and whose summed size stays within the byte limit. On
/// [`FreqBins`] the walk visits the bins from hottest to coldest.
fn find_pages(policy: &dyn HotnessPolicy, from: TierId, delta_p: f64, byte_limit: u64) -> Vec<Vpn> {
    let total = policy.heat_total().max(1.0);
    let mut rem_p = delta_p;
    let mut rem_bytes = byte_limit;
    let mut out = Vec::new();
    for vpn in policy.ranked(from).into_iter().take(MAX_EXAMINED) {
        if rem_bytes < PAGE_SIZE {
            break;
        }
        let prob = policy.heat_of(vpn) / total;
        if prob <= 0.0 || prob > rem_p {
            // Zero-probability pages cannot shift latency; pages that
            // overshoot the remaining Δp are skipped in favour of colder
            // ones (paper §3.2).
            continue;
        }
        out.push(vpn);
        rem_p -= prob;
        rem_bytes -= PAGE_SIZE;
    }
    out
}

impl HememLogic {
    /// Demotes the coldest page of `from` one hop down the tier chain to
    /// make room; returns whether a frame was freed (the migration was
    /// enqueued). Tries the policy's first 64 victims, which on
    /// [`FreqBins`] puts never-sampled pages first so recently-cooled hot
    /// pages are not churned out. `from` must not be the last tier.
    fn demote_one_cold(
        &mut self,
        core: &mut SystemCore,
        machine: &mut Machine,
        from: TierId,
    ) -> bool {
        let down = TierId(from.0 + 1);
        for vpn in core.policy.victims(from, 64) {
            if !core.budget.try_take_page() {
                return false;
            }
            if machine.enqueue_migration(vpn, down).is_ok() {
                core.policy.move_tier(vpn, down);
                self.stats.demoted += 1;
                return true;
            }
        }
        false
    }

    /// Vanilla HeMem placement: promote the policy's hot pages one hop up
    /// the tier chain, hottest first (on a two-tier machine: into the
    /// default tier; hot pages on deeper tiers ratchet upwards tick by
    /// tick), making room with cold demotions. Each source tier is ranked
    /// once, so a page demoted into it to make room is not promoted back
    /// in the same tick.
    fn vanilla_place(&mut self, core: &mut SystemCore, machine: &mut Machine) {
        let n_tiers = core.params.n_tiers() as u8;
        for src in 1..n_tiers {
            let (src, dst) = (TierId(src), TierId(src - 1));
            for vpn in core.policy.ranked(src) {
                // Not `break`: hottest-first ranking does not put every hot
                // page before every cold one (FreqBins files counts 0-3 in
                // one bin; CLOCK ranks by hits + 0.5·ref but calls a page
                // hot on ref ∧ hits >= 2).
                if !core.policy.is_hot(vpn) {
                    continue;
                }
                if machine.free_pages(dst) == 0 && !self.demote_one_cold(core, machine, dst) {
                    return;
                }
                if !core.budget.try_take_page() {
                    return;
                }
                if core.retry.request(machine, vpn, dst) {
                    core.policy.move_tier(vpn, dst);
                    self.stats.promoted += 1;
                }
            }
        }
    }

    /// Colloid placement (§4.1): find pages in the move's source tier,
    /// then migrate them through the machine's engine, making room with
    /// cold demotions when promoting into a full tier.
    fn colloid_place(&mut self, core: &mut SystemCore, machine: &mut Machine, mv: &TierMove) {
        let byte_limit = mv.byte_limit.min(core.budget.remaining());
        let candidates = find_pages(&*core.policy, mv.src, mv.delta_p, byte_limit);
        let promotion = mv.is_promotion();
        for vpn in candidates {
            if promotion
                && machine.free_pages(mv.dst) == 0
                && !self.demote_one_cold(core, machine, mv.dst)
            {
                return;
            }
            if !core.budget.try_take_page() {
                return;
            }
            if core.retry.request(machine, vpn, mv.dst) {
                core.policy.move_tier(vpn, mv.dst);
                if promotion {
                    self.stats.promoted += 1;
                } else {
                    self.stats.demoted += 1;
                }
            }
        }
    }
}

impl SystemLogic for HememLogic {
    fn on_tick(&mut self, core: &mut SystemCore, machine: &mut Machine, report: &TickReport) {
        // The policy carries HeMem's verbatim ingest semantics: unmanaged
        // samples are dropped, and a cooling pass re-bins the population.
        for s in &report.pebs {
            core.policy.record_access(s.vpn);
        }
        core.budget.refill();
        match core
            .colloid
            .as_mut()
            .map(|c| c.on_quantum(&measurements(report)))
        {
            None => {
                // A frozen vanilla system keeps tracking but stops moving.
                if !core.frozen {
                    self.vanilla_place(core, machine)
                }
            }
            // Colloid enabled: act on the pair move (none when balanced).
            Some(Some(d)) => self.colloid_place(core, machine, &d.into()),
            Some(None) => {}
        }
        // HeMem's quantum is one tick; observation-only for FreqBins
        // (cooling is its aging), aging for the approximation policies.
        core.policy.end_quantum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PolicyKind, TieringSystem};
    use memsim::machine::AccessStream;
    use memsim::{
        ChannelStall, CoreConfig, FaultPlan, MachineConfig, ObjectAccess, TrafficClass,
        WriteConflictStorm, LINES_PER_PAGE, LINE_SIZE,
    };
    use rand::rngs::SmallRng;
    use rand::Rng;
    use simkit::SimTime;

    /// 90/10 hot/cold over [0, hot) vs [0, total).
    struct HotCold {
        hot: u64,
        total: u64,
    }
    impl AccessStream for HotCold {
        fn next(&mut self, _now: SimTime, rng: &mut SmallRng) -> ObjectAccess {
            let vpn = if rng.gen_bool(0.9) {
                rng.gen_range(0..self.hot)
            } else {
                rng.gen_range(0..self.total)
            };
            ObjectAccess::read_line(vpn * PAGE_SIZE + rng.gen_range(0..LINES_PER_PAGE) * LINE_SIZE)
        }
    }

    /// Small two-tier machine: default fits 64 pages, working set 256.
    fn small_machine() -> Machine {
        let mut cfg = MachineConfig::icelake_two_tier();
        cfg.tiers[0].capacity_bytes = 64 * PAGE_SIZE;
        cfg.tiers[1].capacity_bytes = 1024 * PAGE_SIZE;
        cfg.pebs_period = 16;
        let mut m = Machine::new(cfg);
        // Hot pages [0, 32) start in the WRONG tier to exercise promotion.
        m.place_range(0..256, TierId::ALTERNATE);
        m.add_core(
            Box::new(HotCold {
                hot: 32,
                total: 256,
            }),
            CoreConfig::app_default(),
            TrafficClass::App,
        );
        m
    }

    fn params(colloid: bool) -> SystemParams {
        SystemParams::new(vec![0..256], colloid.then(crate::ColloidParams::default))
    }

    fn run(system: &mut dyn TieringSystem, m: &mut Machine, ticks: usize) {
        for _ in 0..ticks {
            let rep = m.run_tick(SimTime::from_us(100.0));
            system.on_tick(m, &rep);
        }
    }

    #[test]
    fn vanilla_promotes_hot_pages_to_default() {
        let mut m = small_machine();
        let mut h = HeMem::new(params(false));
        run(&mut h, &mut m, 300);
        let hot_in_default = (0..32)
            .filter(|&v| m.tier_of(v) == Some(TierId::DEFAULT))
            .count();
        assert!(
            hot_in_default >= 28,
            "vanilla HeMem should pack the hot set into the default tier, got {hot_in_default}/32"
        );
        assert!(h.stats().promoted >= 28);
    }

    #[test]
    fn vanilla_respects_capacity_via_cold_demotion() {
        let mut m = small_machine();
        // Pre-fill default with cold pages so promotion must demote.
        for vpn in 200..256 {
            let _ = m.enqueue_migration(vpn, TierId::DEFAULT);
        }
        m.run_tick(SimTime::from_ms(1.0));
        let mut h = HeMem::new(params(false));
        run(&mut h, &mut m, 300);
        let hot_in_default = (0..32)
            .filter(|&v| m.tier_of(v) == Some(TierId::DEFAULT))
            .count();
        assert!(hot_in_default >= 28, "got {hot_in_default}/32");
        assert!(h.stats().demoted > 0, "cold pages must have been evicted");
    }

    #[test]
    fn colloid_balances_latencies_not_capacity() {
        // Make the default tier tiny AND heavily self-contended by placing
        // all traffic on it via vanilla; Colloid should instead converge to
        // a split that balances measured latencies.
        let mut m = small_machine();
        let mut h = HeMem::new(params(true));
        run(&mut h, &mut m, 400);
        let rep = m.run_tick(SimTime::from_us(400.0));
        let l_d = rep.littles_latency_ns(TierId::DEFAULT);
        let l_a = rep.littles_latency_ns(TierId::ALTERNATE);
        // Both tiers carry traffic at steady state under Colloid (the
        // single-core load is light, so the default tier stays fastest
        // and hot pages flow towards it, but never beyond balance).
        assert!(h.stats().promoted > 0);
        if let (Some(l_d), Some(l_a)) = (l_d, l_a) {
            assert!(
                l_d <= l_a * 1.3,
                "Colloid must not leave the default tier slower: {l_d} vs {l_a}"
            );
        }
    }

    #[test]
    fn colloid_name_reflects_variant() {
        assert_eq!(HeMem::new(params(false)).name(), "HeMem");
        assert_eq!(HeMem::new(params(true)).name(), "HeMem+Colloid");
    }

    #[test]
    fn migration_failures_are_retried_until_pages_land() {
        // 30% of migrations abort in flight; the retry queue must re-drive
        // them so the hot set still converges into the default tier.
        let mut cfg = MachineConfig::icelake_two_tier();
        cfg.tiers[0].capacity_bytes = 64 * PAGE_SIZE;
        cfg.tiers[1].capacity_bytes = 1024 * PAGE_SIZE;
        cfg.pebs_period = 16;
        cfg.faults.migration_fail_prob = 0.3;
        let mut m = Machine::new(cfg);
        m.place_range(0..256, TierId::ALTERNATE);
        m.add_core(
            Box::new(HotCold {
                hot: 32,
                total: 256,
            }),
            CoreConfig::app_default(),
            TrafficClass::App,
        );
        let mut h = HeMem::new(params(false));
        run(&mut h, &mut m, 300);
        let retry = h.retry_stats().expect("HeMem drives a retry queue");
        assert!(retry.scheduled > 0, "faults must have parked retries");
        assert!(retry.recovered > 0, "retries must have re-driven pages");
        assert_eq!(retry.dropped, 0, "no migration permanently dropped");
        let hot_in_default = (0..32)
            .filter(|&v| m.tier_of(v) == Some(TierId::DEFAULT))
            .count();
        assert!(
            hot_in_default >= 28,
            "hot set must still converge under migration faults, got {hot_in_default}/32"
        );
        // The retry queue drains to (almost) nothing: entries mid-backoff
        // may linger for up to max_delay_ticks, but nothing accumulates.
        run(&mut h, &mut m, 50);
        assert!(
            h.core.retry.pending() <= 2,
            "retry queue must not accumulate, pending = {}",
            h.core.retry.pending()
        );
    }

    /// The exclusive mode ignores write storms and channel stalls, so a
    /// plan holding only one of them runs exactly like no plan: the retry
    /// queue must not start parking rejections because of it.
    #[test]
    fn faults_the_exclusive_mode_ignores_change_nothing() {
        let run_with = |faults: FaultPlan| {
            let mut cfg = MachineConfig::icelake_two_tier();
            cfg.tiers[0].capacity_bytes = 32 * PAGE_SIZE;
            cfg.tiers[1].capacity_bytes = 1024 * PAGE_SIZE;
            cfg.pebs_period = 16;
            cfg.seed = 3;
            cfg.faults = faults;
            let mut m = Machine::new(cfg);
            m.place_range(0..160, TierId::ALTERNATE);
            let hot_cold = HotCold {
                hot: 32,
                total: 160,
            };
            m.add_core(
                Box::new(hot_cold),
                CoreConfig::app_default(),
                TrafficClass::App,
            );
            let mut h = HeMem::new(SystemParams::new(vec![0..160], None));
            run(&mut h, &mut m, 200);
            (h.retry_stats(), m.migration_counters(), m.core_ops(0))
        };
        let (start, end) = (SimTime::from_ms(2.0), SimTime::from_ms(18.0));
        let storm = FaultPlan {
            write_conflict_storms: vec![WriteConflictStorm {
                start,
                end,
                hot_fraction: 0.5,
                dirties_per_txn: 8,
            }],
            ..FaultPlan::none()
        };
        let stall = FaultPlan {
            channel_stalls: vec![ChannelStall {
                channel: 0,
                start,
                end,
            }],
            ..FaultPlan::none()
        };
        let calm = run_with(FaultPlan::none());
        assert!(calm.0.is_some_and(|r| r.uncaptured > 0), "{calm:?}");
        assert_eq!(run_with(storm), calm);
        assert_eq!(run_with(stall), calm);
    }

    #[test]
    fn three_tier_vanilla_ratchets_hot_pages_to_the_top() {
        // Hot pages start at the BOTTOM of a three-tier chain; one-hop
        // promotion must ratchet them far → cxl → local over time.
        let mut cfg = MachineConfig::cxl_three_tier();
        cfg.tiers[0].capacity_bytes = 64 * PAGE_SIZE;
        cfg.tiers[1].capacity_bytes = 128 * PAGE_SIZE;
        cfg.tiers[2].capacity_bytes = 1024 * PAGE_SIZE;
        cfg.pebs_period = 16;
        let mut m = Machine::new(cfg);
        m.place_range(0..256, TierId(2));
        m.add_core(
            Box::new(HotCold {
                hot: 32,
                total: 256,
            }),
            CoreConfig::app_default(),
            TrafficClass::App,
        );
        let mut p = params(false);
        p.unloaded_ns = m
            .config()
            .tiers
            .iter()
            .map(|t| t.unloaded_latency().as_ns())
            .collect();
        let mut h = HeMem::new(p);
        run(&mut h, &mut m, 400);
        let hot_on_top = (0..32).filter(|&v| m.tier_of(v) == Some(TierId(0))).count();
        assert!(
            hot_on_top >= 24,
            "hot set must ratchet 2 → 1 → 0, got {hot_on_top}/32 on the local tier"
        );
    }

    #[test]
    fn three_tier_colloid_reports_metrics_and_profiles() {
        // Hot pages start at the bottom of a three-tier chain, so the
        // far tier is loaded while the tiers above it idle: Colloid must
        // act, and its series and profiler scope must show it.
        let mut cfg = MachineConfig::cxl_three_tier();
        cfg.tiers[0].capacity_bytes = 64 * PAGE_SIZE;
        cfg.tiers[1].capacity_bytes = 128 * PAGE_SIZE;
        cfg.tiers[2].capacity_bytes = 1024 * PAGE_SIZE;
        cfg.pebs_period = 16;
        let mut m = Machine::new(cfg);
        m.place_range(0..256, TierId(2));
        m.add_core(
            Box::new(HotCold {
                hot: 32,
                total: 256,
            }),
            CoreConfig::app_default(),
            TrafficClass::App,
        );
        let mut p = params(true);
        p.unloaded_ns = m
            .config()
            .tiers
            .iter()
            .map(|t| t.unloaded_latency().as_ns())
            .collect();
        let mut h = HeMem::new(p);
        let hub = telemetry::MetricsHub::new();
        h.set_metrics(hub.clone());
        simkit::profile::reset();
        simkit::profile::set_enabled(true);
        run(&mut h, &mut m, 100);
        simkit::profile::set_enabled(false);
        assert!(hub.counter("colloid_decisions_total").get() > 0);
        let calls = simkit::profile::stats()
            .iter()
            .find(|s| s.label == "colloid.on_quantum")
            .map_or(0, |s| s.calls);
        assert_eq!(calls, 100);
    }

    #[test]
    fn cooling_rebins_population() {
        let mut m = small_machine();
        let mut h = HeMem::new(params(false));
        run(&mut h, &mut m, 600);
        assert!(
            h.stats().coolings > 0,
            "long runs must trigger cooling passes"
        );
        // Counts stay below the cooling threshold after cooling.
        for vpn in 0..256 {
            assert!(h.freq_bins().tracker.count(vpn) <= COOLING_THRESHOLD);
        }
    }

    #[test]
    fn alternate_policies_still_converge_the_hot_set() {
        // The mechanism half (budget, retry, room-making) must work under
        // every policy, not only the extracted default: each alternative
        // policy still packs most of the hot set into the default tier.
        for kind in [PolicyKind::Clock, PolicyKind::Lru, PolicyKind::Sieve] {
            let mut m = small_machine();
            let mut p = params(false);
            p.policy = Some(kind);
            let mut h = HeMem::new(p);
            run(&mut h, &mut m, 300);
            let hot_in_default = (0..32)
                .filter(|&v| m.tier_of(v) == Some(TierId::DEFAULT))
                .count();
            assert!(
                hot_in_default >= 20,
                "{kind:?}: only {hot_in_default}/32 hot pages promoted"
            );
            assert_eq!(h.policy_kind(), Some(kind));
        }
    }

    #[test]
    fn mid_run_policy_swap_preserves_pages_and_keeps_placing() {
        let mut m = small_machine();
        let mut h = HeMem::new(params(false));
        run(&mut h, &mut m, 100);
        assert!(h.swap_policy(PolicyKind::Sieve));
        assert_eq!(h.policy_kind(), Some(PolicyKind::Sieve));
        assert_eq!(
            h.policy_stats().expect("policy").tracked,
            256,
            "swap must carry every tracked page across"
        );
        run(&mut h, &mut m, 200);
        let hot_in_default = (0..32)
            .filter(|&v| m.tier_of(v) == Some(TierId::DEFAULT))
            .count();
        assert!(hot_in_default >= 20, "got {hot_in_default}/32 after swap");
    }
}
