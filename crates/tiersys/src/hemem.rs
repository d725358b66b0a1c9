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
use tierctl::{FreqTracker, MigrationBudget, TierBins};

use crate::policy::{self, FreqBins, HotnessPolicy, PolicyKind, PolicyStats};
use crate::retry::{RetryPolicy, RetryQueue, RetryStats};
use crate::{measurements, SystemParams, TierMove, TieringSystem};

/// HeMem's cooling threshold (counts halve when any page reaches it).
/// Lives with the extracted [`FreqBins`] policy now; re-exported here for
/// the doc examples and tests that grew up with it.
#[cfg(test)]
const COOLING_THRESHOLD: u32 = policy::FREQ_BINS_COOLING;
/// Vanilla hot threshold: a page is hot once its count reaches this.
const HOT_THRESHOLD: u32 = 2;
/// Work bound per quantum for the page finder.
const MAX_EXAMINED: usize = 65_536;

/// Counters exposed for tests and telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub struct HememStats {
    /// Pages promoted into the default tier.
    pub promoted: u64,
    /// Pages demoted to the alternate tier (including room-making).
    pub demoted: u64,
    /// Cooling passes performed.
    pub coolings: u64,
}

/// The §4.1 page-finding procedure over frequency-binned lists: walk the
/// source tier's bins from hottest to coldest, collecting pages whose
/// summed access probability stays within Δp and whose summed size stays
/// within the byte limit.
///
/// # Examples
///
/// ```
/// use memsim::TierId;
/// use tierctl::{FreqTracker, TierBins};
/// use tiersys::hemem::BinnedFinder;
///
/// let mut tracker = FreqTracker::new(16);
/// let mut bins = TierBins::new(2, 5, 16);
/// for vpn in 0..4u64 {
///     bins.insert(vpn, TierId::DEFAULT, 0);
/// }
/// for _ in 0..10 {
///     tracker.record(0); // page 0 carries all the probability
/// }
/// bins.update_count(0, tracker.count(0));
/// let finder = BinnedFinder::new(&bins, &tracker);
/// // Demotion out of the default tier with Δp = 1: the hot page is picked
/// // first.
/// let pages = finder.find_pages_from(TierId::DEFAULT, 1.0, 4096);
/// assert_eq!(pages, vec![0]);
/// ```
pub struct BinnedFinder<'a> {
    bins: &'a TierBins,
    tracker: &'a FreqTracker,
}

impl<'a> BinnedFinder<'a> {
    /// Creates a finder over a system's bins and frequency counts.
    pub fn new(bins: &'a TierBins, tracker: &'a FreqTracker) -> Self {
        BinnedFinder { bins, tracker }
    }

    /// The §4.1 bin walk over the source tier `from`.
    pub fn find_pages_from(&self, from: TierId, delta_p: f64, byte_limit: u64) -> Vec<Vpn> {
        let mut rem_p = delta_p;
        let mut rem_bytes = byte_limit;
        let mut out = Vec::new();
        let mut examined = 0;
        for bin in (0..self.bins.n_bins()).rev() {
            for &vpn in self.bins.pages(from, bin) {
                if rem_bytes < PAGE_SIZE || examined >= MAX_EXAMINED {
                    return out;
                }
                examined += 1;
                let prob = self.tracker.access_prob(vpn);
                if prob <= 0.0 || prob > rem_p {
                    // Zero-probability pages cannot shift latency; pages
                    // that overshoot the remaining Δp are skipped in favour
                    // of colder ones (paper §3.2).
                    continue;
                }
                out.push(vpn);
                rem_p -= prob;
                rem_bytes -= PAGE_SIZE;
            }
        }
        out
    }
}

/// The HeMem tiering system (vanilla or +Colloid).
///
/// Hotness tracking lives behind a [`HotnessPolicy`]. On the extracted
/// default ([`FreqBins`]) the system takes its original code paths over
/// the concrete tracker/bins — bit-identical to the pre-extraction HeMem;
/// on any other policy the same mechanism (budget, retry, room-making,
/// Colloid moves) runs against the trait's rank/heat/victim queries.
pub struct HeMem {
    params: SystemParams,
    policy: Box<dyn HotnessPolicy>,
    /// `policy` is the system's own extracted default — take the verbatim
    /// legacy code paths over the concrete [`FreqBins`].
    legacy: bool,
    budget: MigrationBudget,
    colloid: Option<colloid::ColloidController>,
    retry: RetryQueue,
    initialized: bool,
    frozen: bool,
    stats: HememStats,
    swaps: u64,
    sink: telemetry::Sink,
    metrics: Option<telemetry::MetricsHub>,
}

impl HeMem {
    /// Builds HeMem; attaches Colloid when `params.colloid` is set and the
    /// hotness policy selected by `params.policy` ([`FreqBins`] if unset).
    pub fn new(params: SystemParams) -> Self {
        let colloid = params.build_colloid();
        let kind = params.policy.unwrap_or(PolicyKind::FreqBins);
        HeMem {
            policy: kind.build(params.n_tiers(), params.managed.clone()),
            legacy: kind == PolicyKind::FreqBins,
            budget: MigrationBudget::new(params.migration_limit_per_tick),
            colloid,
            retry: RetryQueue::new(RetryPolicy::default()),
            initialized: false,
            frozen: false,
            stats: HememStats::default(),
            swaps: 0,
            sink: telemetry::Sink::disabled(),
            metrics: None,
            params,
        }
    }

    /// Telemetry counters (cooling passes come from the policy's epoch
    /// counter when the default [`FreqBins`] is active).
    pub fn stats(&self) -> HememStats {
        HememStats {
            coolings: if self.legacy {
                self.policy.stats().epochs
            } else {
                self.stats.coolings
            },
            ..self.stats
        }
    }

    /// The concrete [`FreqBins`] behind the default policy.
    ///
    /// # Panics
    ///
    /// Panics when a non-default policy is active.
    pub fn freq_bins(&self) -> &FreqBins {
        self.fb_ref()
    }

    fn fb_ref(&self) -> &FreqBins {
        self.policy
            .as_any()
            .downcast_ref()
            .expect("legacy HeMem path requires the FreqBins policy")
    }

    fn fb(&mut self) -> &mut FreqBins {
        self.policy
            .as_any_mut()
            .downcast_mut()
            .expect("legacy HeMem path requires the FreqBins policy")
    }

    fn initialize(&mut self, machine: &Machine) {
        for range in self.params.managed.clone() {
            for vpn in range {
                let tier = machine
                    .tier_of(vpn)
                    .expect("managed pages are placed before the system starts");
                self.policy.insert(vpn, tier);
            }
        }
        self.initialized = true;
    }

    fn ingest_samples(&mut self, report: &TickReport) {
        // The policy carries HeMem's verbatim ingest semantics: unmanaged
        // samples are dropped, and a cooling pass re-bins the population.
        for s in &report.pebs {
            self.policy.record_access(s.vpn);
        }
    }

    /// Demotes the coldest page of `from` one hop down the tier chain to
    /// make room; returns whether a frame was freed (the migration was
    /// enqueued). Prefers never-sampled pages so recently-cooled hot pages
    /// are not churned out. `from` must not be the last tier.
    fn demote_one_cold(&mut self, machine: &mut Machine, from: TierId) -> bool {
        if !self.legacy {
            return self.demote_one_cold_generic(machine, from);
        }
        let down = TierId(from.0 + 1);
        let n_bins = self.fb_ref().bins.n_bins();
        for pass in 0..2 {
            for bin in 0..n_bins {
                let candidates = self.fb_ref().bins.pages(from, bin).to_vec();
                for vpn in candidates {
                    if pass == 0 && self.fb_ref().tracker.count(vpn) > 0 {
                        continue;
                    }
                    if !self.budget.try_take_page() {
                        return false;
                    }
                    if machine.enqueue_migration(vpn, down).is_ok() {
                        self.fb().bins.move_tier(vpn, down);
                        self.stats.demoted += 1;
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Trait-driven room-making: demote the policy's first viable victim.
    fn demote_one_cold_generic(&mut self, machine: &mut Machine, from: TierId) -> bool {
        let down = TierId(from.0 + 1);
        for vpn in self.policy.victims(from, 64) {
            if !self.budget.try_take_page() {
                return false;
            }
            if machine.enqueue_migration(vpn, down).is_ok() {
                self.policy.move_tier(vpn, down);
                self.stats.demoted += 1;
                return true;
            }
        }
        false
    }

    /// Vanilla HeMem placement: pack pages with count >= HOT_THRESHOLD one
    /// hop up the tier chain (on a two-tier machine: into the default
    /// tier; hot pages on deeper tiers ratchet upwards tick by tick).
    fn vanilla_place(&mut self, machine: &mut Machine) {
        if !self.legacy {
            return self.vanilla_place_generic(machine);
        }
        let n_tiers = self.params.n_tiers() as u8;
        let hot_bin_floor = self.fb_ref().bins.bin_of_count(HOT_THRESHOLD);
        let n_bins = self.fb_ref().bins.n_bins();
        for src in 1..n_tiers {
            let (src, dst) = (TierId(src), TierId(src - 1));
            for bin in (hot_bin_floor..n_bins).rev() {
                let candidates = self.fb_ref().bins.pages(src, bin).to_vec();
                for vpn in candidates {
                    if self.fb_ref().tracker.count(vpn) < HOT_THRESHOLD {
                        continue;
                    }
                    // Make room if needed.
                    if machine.free_pages(dst) == 0 && !self.demote_one_cold(machine, dst) {
                        return;
                    }
                    if !self.budget.try_take_page() {
                        return;
                    }
                    if self.retry.request(machine, vpn, dst) {
                        self.fb().bins.move_tier(vpn, dst);
                        self.stats.promoted += 1;
                    }
                }
            }
        }
    }

    /// Vanilla placement through the trait: promote the policy's hot set
    /// one hop up, hottest first, with the same room-making and budget
    /// mechanics as the legacy path.
    fn vanilla_place_generic(&mut self, machine: &mut Machine) {
        let n_tiers = self.params.n_tiers() as u8;
        for src in 1..n_tiers {
            let (src, dst) = (TierId(src), TierId(src - 1));
            for vpn in self.policy.ranked(src) {
                if !self.policy.is_hot(vpn) {
                    // Ranked is hottest-first: past the hot set, the rest
                    // of this tier is cold too.
                    break;
                }
                if machine.free_pages(dst) == 0 && !self.demote_one_cold(machine, dst) {
                    return;
                }
                if !self.budget.try_take_page() {
                    return;
                }
                if self.retry.request(machine, vpn, dst) {
                    self.policy.move_tier(vpn, dst);
                    self.stats.promoted += 1;
                }
            }
        }
    }

    /// Ranking-driven stand-in for [`BinnedFinder`] when a non-default
    /// policy is active: walk the source tier hottest-first, normalising
    /// heat into an access probability against Δp.
    fn find_pages_generic(&self, from: TierId, delta_p: f64, byte_limit: u64) -> Vec<Vpn> {
        let total = self.policy.heat_total().max(1.0);
        let mut rem_p = delta_p;
        let mut rem_bytes = byte_limit;
        let mut out = Vec::new();
        for vpn in self.policy.ranked(from).into_iter().take(MAX_EXAMINED) {
            if rem_bytes < PAGE_SIZE {
                break;
            }
            let prob = self.policy.heat_of(vpn) / total;
            if prob <= 0.0 || prob > rem_p {
                continue;
            }
            out.push(vpn);
            rem_p -= prob;
            rem_bytes -= PAGE_SIZE;
        }
        out
    }

    /// Colloid placement (§4.1): find pages with [`BinnedFinder`] (or the
    /// policy ranking) in the move's source tier, then migrate them
    /// through the machine's engine, making room with cold demotions when
    /// promoting into a full tier.
    fn colloid_place(&mut self, machine: &mut Machine, mv: &TierMove) {
        let byte_limit = mv.byte_limit.min(self.budget.remaining());
        let candidates = if self.legacy {
            let fb = self.fb_ref();
            let finder = BinnedFinder::new(&fb.bins, &fb.tracker);
            finder.find_pages_from(mv.src, mv.delta_p, byte_limit)
        } else {
            self.find_pages_generic(mv.src, mv.delta_p, byte_limit)
        };
        let promotion = mv.is_promotion();
        for vpn in candidates {
            if promotion
                && machine.free_pages(mv.dst) == 0
                && !self.demote_one_cold(machine, mv.dst)
            {
                return;
            }
            if !self.budget.try_take_page() {
                return;
            }
            if self.retry.request(machine, vpn, mv.dst) {
                self.policy.move_tier(vpn, mv.dst);
                if promotion {
                    self.stats.promoted += 1;
                } else {
                    self.stats.demoted += 1;
                }
            }
        }
    }
}

impl TieringSystem for HeMem {
    fn on_tick(&mut self, machine: &mut Machine, report: &TickReport) {
        if !self.initialized {
            self.initialize(machine);
        }
        // Migrations that aborted in flight never landed: re-sync the
        // policy with the page's actual tier and park the move for retry.
        self.retry.note_failures(report);
        for f in &report.failed_migrations {
            if self.policy.tier_of(f.vpn).is_some() {
                if let Some(actual) = machine.tier_of(f.vpn) {
                    self.policy.move_tier(f.vpn, actual);
                }
            }
        }
        for (vpn, dst) in self.retry.on_tick(machine) {
            if self.policy.tier_of(vpn).is_some() {
                self.policy.move_tier(vpn, dst);
            }
        }
        // Pages force-evacuated by a tier shrink already moved: re-sync
        // the policy with where each page actually landed.
        for &(vpn, dst) in &report.evacuated {
            if self.policy.tier_of(vpn).is_some() {
                self.policy.move_tier(vpn, dst);
            }
        }
        self.ingest_samples(report);
        self.budget.refill();
        match self
            .colloid
            .as_mut()
            .map(|c| c.on_quantum(&measurements(report)))
        {
            None => {
                // A frozen vanilla system keeps tracking but stops moving.
                if !self.frozen {
                    self.vanilla_place(machine)
                }
            }
            // Colloid enabled: act on the pair move (none when balanced).
            Some(Some(d)) => self.colloid_place(machine, &d.into()),
            Some(None) => {}
        }
        // HeMem's quantum is one tick; observation-only for FreqBins
        // (cooling is its aging), aging for the approximation policies.
        self.policy.end_quantum();
    }

    fn name(&self) -> String {
        if self.colloid.is_some() {
            "HeMem+Colloid".into()
        } else {
            "HeMem".into()
        }
    }

    fn retry_stats(&self) -> Option<RetryStats> {
        Some(self.retry.stats())
    }

    fn set_frozen(&mut self, frozen: bool) {
        self.frozen = frozen;
        if let Some(c) = self.colloid.as_mut() {
            c.set_frozen(frozen);
        }
    }

    fn reset_equilibrium(&mut self) {
        if let Some(c) = self.colloid.as_mut() {
            c.reset_equilibrium();
        }
    }

    fn heat_of(&self, vpn: Vpn) -> f64 {
        self.policy.heat_of(vpn)
    }

    fn swap_policy(&mut self, kind: PolicyKind) -> bool {
        if self.policy.kind() == kind {
            return true;
        }
        let (from, pages) = policy::swap_boxed(
            &mut self.policy,
            kind,
            self.params.n_tiers(),
            self.params.managed.clone(),
        );
        self.legacy = kind == PolicyKind::FreqBins;
        self.swaps += 1;
        if let Some(hub) = &self.metrics {
            hub.counter_with(
                "policy_swap_total",
                &[("from", from.name()), ("to", kind.name())],
            )
            .inc();
        }
        self.sink.emit(telemetry::Source::System, || {
            telemetry::EventKind::PolicySwap {
                from: from.name(),
                to: kind.name(),
                pages,
            }
        });
        true
    }

    fn policy_kind(&self) -> Option<PolicyKind> {
        Some(self.policy.kind())
    }

    fn policy_stats(&self) -> Option<PolicyStats> {
        Some(self.policy.stats())
    }

    fn export_policy_ranking(&self) -> Option<Vec<(Vpn, TierId, f64)>> {
        Some(self.policy.export_ranking())
    }

    fn set_telemetry(&mut self, sink: telemetry::Sink) {
        if let Some(c) = self.colloid.as_mut() {
            c.set_telemetry(sink.clone());
        }
        self.sink = sink.clone();
        self.retry.set_telemetry(sink);
    }

    fn set_metrics(&mut self, hub: telemetry::MetricsHub) {
        if let Some(c) = self.colloid.as_mut() {
            c.set_metrics(hub.clone());
        }
        self.metrics = Some(hub.clone());
        self.retry.set_metrics(hub);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::machine::AccessStream;
    use memsim::{
        CoreConfig, MachineConfig, ObjectAccess, TrafficClass, LINES_PER_PAGE, LINE_SIZE,
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
            h.retry.pending() <= 2,
            "retry queue must not accumulate, pending = {}",
            h.retry.pending()
        );
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
        // Page conservation: every managed page is still resident somewhere.
        let resident = (0..256).filter(|&v| m.tier_of(v).is_some()).count();
        assert_eq!(resident, 256);
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
            let resident = (0..256).filter(|&v| m.tier_of(v).is_some()).count();
            assert_eq!(resident, 256, "{kind:?}: pages lost");
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
        let resident = (0..256).filter(|&v| m.tier_of(v).is_some()).count();
        assert_eq!(resident, 256, "pages lost across the swap");
        let hot_in_default = (0..32)
            .filter(|&v| m.tier_of(v) == Some(TierId::DEFAULT))
            .count();
        assert!(hot_in_default >= 20, "got {hot_in_default}/32 after swap");
    }
}
