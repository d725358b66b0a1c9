//! TPP (ASPLOS '23, as upstreamed in Linux v6.3) and TPP+Colloid
//! (paper §4.3).
//!
//! TPP tracks access recency with NUMA-balancing-style hint faults: a
//! background scan marks page-table entries; the next access to a marked
//! page traps, and the *time-to-fault* (marking → fault) indicates hotness
//! (hot pages fault quickly). Vanilla TPP promotes a faulting
//! alternate-tier page when its time-to-fault is under a dynamically
//! adapted threshold, and demotes cold pages from the default tier through
//! kswapd when free frames drop below a watermark, picking victims from an
//! (approximate) inactive list.
//!
//! The Colloid integration (~315 LoC in the paper) measures per-tier
//! latency from a spin-polling kernel module (here: the per-tick CHA
//! window) and changes the fault handler: a faulting page migrates only in
//! the latency-balancing direction, and only if its estimated access
//! probability `p = 1/(Δt·r)` fits in the remaining Δp for this quantum.
//! Hint faults are additionally enabled on default-tier pages so hot pages
//! can be *demoted* under memory interconnect contention.

use memsim::{Machine, TickReport, TierId, Vpn, PAGE_SIZE};
use tierctl::{MigrationBudget, RegionScanner};

use crate::policy::{self, HotnessPolicy, PolicyKind, PolicyStats, TimeToFault};
use crate::retry::{RetryPolicy, RetryQueue, RetryStats};
use crate::{measurements, SystemParams, TierMove, TieringSystem};

/// TPP-specific knobs.
#[derive(Debug, Clone)]
pub struct TppConfig {
    /// Pages marked per tick by the page-table scanner.
    pub scan_pages_per_tick: usize,
    /// Transparent Huge Pages: promote whole 16-page regions.
    pub huge: bool,
    /// Initial hot/cold time-to-fault threshold (ns); adapted dynamically.
    pub initial_threshold_ns: f64,
    /// kswapd wakes when default-tier free frames fall below this fraction
    /// of capacity ...
    pub watermark_low: f64,
    /// ... and demotes until free frames reach this fraction.
    pub watermark_high: f64,
    /// Promotion-rate boost: scales the hot-qualifying time-to-fault
    /// threshold *and* the candidate-byte target the threshold adapts
    /// towards. At the default `1.0` behaviour is identical to upstream;
    /// larger values make hot-page discovery correspondingly more eager —
    /// under heavy contention vanilla TPP's recency sampling is otherwise
    /// too slow to ever pack the default tier (see EXPERIMENTS.md Fig 1).
    pub promotion_boost: f64,
}

impl Default for TppConfig {
    fn default() -> Self {
        TppConfig {
            scan_pages_per_tick: 1024,
            huge: true,
            initial_threshold_ns: 200_000.0,
            watermark_low: 0.01,
            watermark_high: 0.03,
            promotion_boost: 1.0,
        }
    }
}

impl TppConfig {
    /// Hot-page discovery fast enough to *pack*: a dense scan plus a 4×
    /// promotion boost. At the default scan rate TPP's recency sampling is
    /// so slow under contention that it never finishes packing the hot set
    /// into the default tier (≈20 % default-tier traffic share at 3× vs
    /// the paper's >75 %) — its Figure 1 "gap" stays small for the wrong
    /// reason. With this preset TPP packs like the paper's TPP (≈90 %
    /// share at 3×, full-length run) and therefore *degrades* like it too,
    /// which is exactly the paper's point: packing the hot set into a
    /// contended default tier is the failure mode. Used by the Fig 1
    /// "TPP (fast discovery)" row; the default config is deliberately
    /// untouched so headline figures stay comparable across revisions.
    pub fn fast_discovery() -> Self {
        TppConfig {
            scan_pages_per_tick: 6144,
            promotion_boost: 4.0,
            ..TppConfig::default()
        }
    }
}

/// Scaled THP region size in pages.
const REGION_PAGES: u64 = 16;

/// Telemetry counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct TppStats {
    /// Pages promoted on hint faults.
    pub promoted: u64,
    /// Pages demoted (kswapd + Colloid demotions).
    pub demoted: u64,
    /// Hint faults processed.
    pub faults: u64,
}

/// The TPP tiering system (vanilla or +Colloid).
///
/// Recency tracking (the last-time-to-fault map and the kswapd clock
/// hand) lives behind a [`HotnessPolicy`]. On the extracted default
/// ([`TimeToFault`]) the system takes its original code paths over the
/// concrete structures — bit-identical to the pre-extraction TPP; other
/// policies drive the same fault/kswapd mechanism through the trait.
pub struct Tpp {
    params: SystemParams,
    cfg: TppConfig,
    scanner: RegionScanner,
    budget: MigrationBudget,
    colloid: Option<colloid::ColloidController>,
    /// Dynamic time-to-fault threshold (vanilla hotness test).
    threshold_ns: f64,
    policy: Box<dyn HotnessPolicy>,
    /// `policy` is the extracted default — take the verbatim legacy paths
    /// over the concrete [`TimeToFault`].
    legacy: bool,
    initialized: bool,
    retry: RetryQueue,
    frozen: bool,
    stats: TppStats,
    swaps: u64,
    sink: telemetry::Sink,
    metrics: Option<telemetry::MetricsHub>,
}

impl Tpp {
    /// Builds TPP; attaches Colloid when `params.colloid` is set and the
    /// hotness policy selected by `params.policy` ([`TimeToFault`] if
    /// unset).
    pub fn new(params: SystemParams, cfg: TppConfig) -> Self {
        let colloid = params.build_colloid();
        let scanner = RegionScanner::new(params.managed.clone());
        let kind = params.policy.unwrap_or(PolicyKind::TimeToFault);
        Tpp {
            threshold_ns: cfg.initial_threshold_ns,
            scanner,
            budget: MigrationBudget::new(params.migration_limit_per_tick),
            colloid,
            policy: kind.build(params.n_tiers(), params.managed.clone()),
            legacy: kind == PolicyKind::TimeToFault,
            initialized: false,
            retry: RetryQueue::new(RetryPolicy::default()),
            frozen: false,
            stats: TppStats::default(),
            swaps: 0,
            sink: telemetry::Sink::disabled(),
            metrics: None,
            cfg,
            params,
        }
    }

    /// Telemetry counters.
    pub fn stats(&self) -> TppStats {
        self.stats
    }

    /// Current dynamic time-to-fault threshold (ns).
    pub fn threshold_ns(&self) -> f64 {
        self.threshold_ns
    }

    fn managed(&self, vpn: Vpn) -> bool {
        self.params.managed.iter().any(|r| r.contains(&vpn))
    }

    fn ttf(&mut self) -> &mut TimeToFault {
        self.policy
            .as_any_mut()
            .downcast_mut()
            .expect("legacy TPP path requires the TimeToFault policy")
    }

    /// Registers every managed page with the policy. For the default
    /// [`TimeToFault`], insertion in managed-range order rebuilds exactly
    /// the flattened clock-hand list the pre-extraction TPP built at
    /// construction.
    fn initialize(&mut self, machine: &Machine) {
        let last = TierId(self.params.n_tiers() as u8 - 1);
        for range in self.params.managed.clone() {
            for vpn in range {
                let tier = machine.tier_of(vpn).unwrap_or(last);
                self.policy.insert(vpn, tier);
            }
        }
        self.initialized = true;
    }

    /// All pages of `vpn`'s THP region (or just the page without THP).
    fn unit_pages(&self, vpn: Vpn) -> Vec<Vpn> {
        if !self.cfg.huge {
            return vec![vpn];
        }
        let base = vpn / REGION_PAGES * REGION_PAGES;
        (base..base + REGION_PAGES)
            .filter(|&v| self.managed(v))
            .collect()
    }

    /// Migrates a page's whole unit to `dst` (all-or-nothing with respect
    /// to the budget, so THP regions never straddle tiers); returns pages
    /// enqueued.
    fn migrate_unit(&mut self, machine: &mut Machine, vpn: Vpn, dst: TierId) -> u64 {
        let pages: Vec<Vpn> = self
            .unit_pages(vpn)
            .into_iter()
            .filter(|&p| machine.tier_of(p) != Some(dst))
            .collect();
        let need = pages.len() as u64;
        if need == 0 || self.budget.remaining() < need * PAGE_SIZE {
            return 0;
        }
        // Make room by demoting one hop further down the chain — possible
        // for every destination except the last tier.
        if usize::from(dst.0) + 1 < self.params.n_tiers() {
            while machine.free_pages(dst) < need {
                if !self.kswapd_demote_one(machine, dst) {
                    return 0;
                }
            }
        }
        let mut moved = 0;
        for page in pages {
            if !self.budget.try_take_page() {
                break;
            }
            if self.retry.request(machine, page, dst) {
                self.policy.move_tier(page, dst);
                moved += 1;
            }
        }
        moved
    }

    /// kswapd victim selection: one clock sweep over `tier`'s resident
    /// pages, demoting (one hop down the chain) the first page whose last
    /// time-to-fault marks it cold (larger than the hotness threshold), or
    /// — if every resident page looks hot — the coldest page seen. Returns
    /// whether a frame was freed (enqueued for demotion). `tier` must not
    /// be the last tier.
    fn kswapd_demote_one(&mut self, machine: &mut Machine, tier: TierId) -> bool {
        if !self.legacy {
            return self.kswapd_demote_one_generic(machine, tier);
        }
        let cold_cutoff = (self.threshold_ns * 10.0).max(150_000.0);
        let victim = {
            let tp = self.ttf();
            if tp.clock_pages.is_empty() {
                return false;
            }
            let mut chosen: Option<Vpn> = None;
            let mut coldest: Option<(Vpn, f64)> = None;
            for _ in 0..tp.clock_pages.len() {
                let vpn = tp.clock_pages[tp.clock_hand];
                tp.clock_hand = (tp.clock_hand + 1) % tp.clock_pages.len();
                if machine.tier_of(vpn) != Some(tier) {
                    continue;
                }
                let ttf = tp.last_ttf.get(&vpn).copied().unwrap_or(f64::INFINITY);
                // Hysteresis: reclaim only short-circuits on pages that are
                // *clearly* cold — well beyond both the promotion threshold and
                // the hot population's time-to-fault spread (the promotion
                // threshold rate-limits to the hottest tail, so it sits far
                // below the hot mean and must not drive eviction directly).
                // Pages that are merely lukewarm are handled by the
                // coldest-page fallback below.
                if ttf > cold_cutoff {
                    chosen = Some(vpn);
                    break;
                }
                if coldest.map(|(_, c)| ttf > c).unwrap_or(true) {
                    coldest = Some((vpn, ttf));
                }
            }
            chosen.or(coldest.map(|(vpn, _)| vpn))
        };
        match victim {
            Some(vpn) => self.demote_unit_of(machine, vpn, tier),
            None => false,
        }
    }

    /// Trait-driven victim selection for the approximation policies: take
    /// the policy's coldest-first candidates, skipping any whose tracked
    /// tier drifted from the machine's.
    fn kswapd_demote_one_generic(&mut self, machine: &mut Machine, tier: TierId) -> bool {
        for vpn in self.policy.victims(tier, 64) {
            if machine.tier_of(vpn) != Some(tier) {
                continue;
            }
            return self.demote_unit_of(machine, vpn, tier);
        }
        false
    }

    /// Demotes the whole unit of `vpn` from `from` one hop down the tier
    /// chain (THP regions stay intact). `from` must not be the last tier.
    fn demote_unit_of(&mut self, machine: &mut Machine, vpn: Vpn, from: TierId) -> bool {
        let down = TierId(from.0 + 1);
        let pages: Vec<Vpn> = self
            .unit_pages(vpn)
            .into_iter()
            .filter(|&p| machine.tier_of(p) == Some(from))
            .collect();
        if self.budget.remaining() < pages.len() as u64 * PAGE_SIZE {
            return false;
        }
        let mut any = false;
        for page in pages {
            if !self.budget.try_take_page() {
                break;
            }
            if self.retry.request(machine, page, down) {
                self.policy.move_tier(page, down);
                self.stats.demoted += 1;
                any = true;
            }
        }
        any
    }

    /// kswapd main loop: keep every non-terminal tier's free frames above
    /// the watermarks (on a two-tier machine this is exactly the
    /// default-tier kswapd; deeper tiers spill one hop further down).
    fn kswapd(&mut self, machine: &mut Machine) {
        for i in 0..self.params.n_tiers().saturating_sub(1) {
            let tier = TierId(i as u8);
            // Effective capacity: watermarks must track post-shrink reality.
            let cap = machine.capacity_pages(tier);
            let low = ((cap as f64 * self.cfg.watermark_low) as u64).max(1);
            let high = ((cap as f64 * self.cfg.watermark_high) as u64).max(2);
            if machine.free_pages(tier) >= low {
                continue;
            }
            while machine.free_pages(tier) < high {
                if !self.kswapd_demote_one(machine, tier) {
                    break;
                }
            }
        }
    }

    /// Adapts the vanilla hotness threshold so the *candidate* promotion
    /// rate tracks the migration budget (Linux's hot-page-selection rate
    /// control: if more hot-qualifying bytes fault than the rate limit
    /// allows, the threshold tightens; if the budget is underused, it
    /// loosens).
    fn adapt_threshold(&mut self, candidate_bytes: u64, faults_this_tick: usize) {
        let target = (self.budget.per_quantum() as f64 * self.cfg.promotion_boost) as u64;
        if candidate_bytes > target {
            self.threshold_ns *= 0.9; // too many candidates: be stricter
        } else if faults_this_tick > 0 && candidate_bytes < target / 4 {
            self.threshold_ns *= 1.15; // budget underused: loosen
        }
        self.threshold_ns = self.threshold_ns.clamp(1_000.0, 10_000_000.0);
    }
}

impl TieringSystem for Tpp {
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
        self.budget.refill();

        // Colloid move/Δp for this quantum (None = vanilla, or balanced).
        let has_colloid = self.colloid.is_some();
        let mv = self
            .colloid
            .as_mut()
            .and_then(|c| c.on_quantum(&measurements(report)))
            .map(TierMove::from);
        let mut rem_p = mv.map(|m| m.delta_p).unwrap_or(0.0);
        let mut rem_bytes = mv.map(|m| m.byte_limit).unwrap_or(u64::MAX);

        // Per-tier request rates for the access-probability estimate
        // p = 1 / (Δt · r)   (paper §4.3).
        let rate_of = |tier: TierId| report.tiers[tier.index()].rate_per_ns;

        let mut promoted_this_tick = 0u64;
        // Bytes of promotion *candidates* (hot-qualifying faults on
        // alternate-tier pages) this tick — the signal Linux's hot-page
        // selection adapts its threshold on (rate-limit targeting).
        let mut candidate_bytes = 0u64;
        for fault in &report.faults {
            if !self.managed(fault.vpn) {
                continue;
            }
            self.stats.faults += 1;
            self.policy.record_fault(fault.vpn, fault.time_to_fault_ns);

            match (has_colloid, mv) {
                // Vanilla: promote hot (fast-faulting) pages one hop up the
                // chain (on a two-tier machine: alternate → default). The
                // default policy keeps the original threshold test on the
                // raw time-to-fault; the approximation policies answer the
                // same question through `is_hot`.
                (false, _) => {
                    let hot = if self.legacy {
                        fault.time_to_fault_ns <= self.threshold_ns * self.cfg.promotion_boost
                    } else {
                        self.policy.is_hot(fault.vpn)
                    };
                    if !self.frozen && fault.tier != TierId::DEFAULT && hot {
                        candidate_bytes += self.unit_pages(fault.vpn).len() as u64 * PAGE_SIZE;
                        let dst = TierId(fault.tier.0 - 1);
                        let moved = self.migrate_unit(machine, fault.vpn, dst);
                        promoted_this_tick += moved;
                        self.stats.promoted += moved;
                    }
                }
                // Colloid, but balanced this quantum: no migrations.
                (true, None) => {}
                // Colloid: migrate along the balancing pair's direction while
                // the page's access probability fits the remaining Δp.
                (true, Some(m)) => {
                    if fault.tier != m.src {
                        continue;
                    }
                    let r = rate_of(m.src);
                    if r <= 0.0 {
                        continue;
                    }
                    let prob = 1.0 / (fault.time_to_fault_ns.max(1.0) * r);
                    let unit_bytes = self.unit_pages(fault.vpn).len() as u64 * PAGE_SIZE;
                    if prob <= rem_p && unit_bytes <= rem_bytes {
                        let moved = self.migrate_unit(machine, fault.vpn, m.dst);
                        if moved > 0 {
                            rem_p -= prob;
                            rem_bytes -= moved * PAGE_SIZE;
                            if m.is_promotion() {
                                promoted_this_tick += moved;
                                self.stats.promoted += moved;
                            } else {
                                self.stats.demoted += moved;
                            }
                        }
                    }
                }
            }
        }

        let _ = promoted_this_tick;
        // Threshold rate-control only exists for the time-to-fault test;
        // the approximation policies carry their own aging.
        if self.colloid.is_none() && !self.frozen && self.legacy {
            self.adapt_threshold(candidate_bytes, report.faults.len());
        }

        // Capacity-driven cold demotion continues in both variants, but a
        // frozen system must not move pages at all.
        if !self.frozen {
            self.kswapd(machine);
        }

        // Re-arm the scanner: vanilla TPP only tracks alternate-tier pages
        // for promotion (plus recency on default pages); Colloid needs
        // faults on default-tier pages to drive demotion too. We mark both
        // in both variants — vanilla simply ignores default-tier faults for
        // placement, using them only as recency information.
        for vpn in self.scanner.next_batch(self.cfg.scan_pages_per_tick) {
            machine.mark_page(vpn);
        }
        // TPP's quantum is one tick; observation-only for the default
        // TimeToFault tracker, aging for the approximation policies.
        self.policy.end_quantum();
    }

    fn name(&self) -> String {
        if self.colloid.is_some() {
            "TPP+Colloid".into()
        } else {
            "TPP".into()
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
        // The machine's operating point changed for good: restart the
        // hotness threshold search and (when attached) Colloid's watermark
        // search. Recency data (`last_ttf`) is kept — it is still valid.
        self.threshold_ns = self.cfg.initial_threshold_ns;
        if let Some(c) = self.colloid.as_mut() {
            c.reset_equilibrium();
        }
    }

    fn heat_of(&self, vpn: Vpn) -> f64 {
        // Hot pages fault quickly: on the default policy heat is inverse
        // time-to-fault (never-faulted pages are coldest); other policies
        // report their own notion on the same non-negative scale.
        self.policy.heat_of(vpn)
    }

    fn swap_policy(&mut self, kind: PolicyKind) -> bool {
        if kind == self.policy.kind() {
            return true;
        }
        let (from, pages) = policy::swap_boxed(
            &mut self.policy,
            kind,
            self.params.n_tiers(),
            self.params.managed.clone(),
        );
        self.legacy = kind == PolicyKind::TimeToFault;
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

    fn small_machine(default_pages: u64) -> Machine {
        let mut cfg = MachineConfig::icelake_two_tier();
        cfg.tiers[0].capacity_bytes = default_pages * PAGE_SIZE;
        cfg.tiers[1].capacity_bytes = 1024 * PAGE_SIZE;
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
        m
    }

    fn params(colloid: bool) -> SystemParams {
        SystemParams::new(vec![0..256], colloid.then(crate::ColloidParams::default))
    }

    fn run(t: &mut Tpp, m: &mut Machine, ticks: usize) {
        for _ in 0..ticks {
            let rep = m.run_tick(SimTime::from_us(100.0));
            t.on_tick(m, &rep);
        }
    }

    #[test]
    fn faults_fire_and_promote_hot_pages() {
        let mut m = small_machine(64);
        let mut t = Tpp::new(
            params(false),
            TppConfig {
                huge: false,
                scan_pages_per_tick: 32,
                ..TppConfig::default()
            },
        );
        run(&mut t, &mut m, 400);
        assert!(t.stats().faults > 100, "faults = {}", t.stats().faults);
        let hot_in_default = (0..32)
            .filter(|&v| m.tier_of(v) == Some(TierId::DEFAULT))
            .count();
        assert!(
            hot_in_default >= 24,
            "TPP should promote most of the hot set, got {hot_in_default}/32"
        );
    }

    #[test]
    fn thp_promotes_whole_regions() {
        let mut m = small_machine(128);
        let mut t = Tpp::new(params(false), TppConfig::default());
        run(&mut t, &mut m, 400);
        // With 16-page regions, promoted pages come in region-sized groups:
        // every promoted page's region peers should share its tier.
        let mut region_aligned = true;
        for region in 0..2 {
            let base = region * REGION_PAGES;
            let tiers: Vec<_> = (base..base + REGION_PAGES).map(|v| m.tier_of(v)).collect();
            if tiers.windows(2).any(|w| w[0] != w[1]) {
                region_aligned = false;
            }
        }
        assert!(region_aligned, "THP units must move together");
    }

    #[test]
    fn kswapd_maintains_free_watermark() {
        // No application core: pure reclaim behaviour.
        let mut cfg = MachineConfig::icelake_two_tier();
        cfg.tiers[0].capacity_bytes = 64 * PAGE_SIZE;
        cfg.tiers[1].capacity_bytes = 1024 * PAGE_SIZE;
        let mut m = Machine::new(cfg);
        m.place_range(0..192, TierId::ALTERNATE);
        m.place_range(192..256, TierId::DEFAULT); // default tier full
        assert_eq!(m.free_pages(TierId::DEFAULT), 0);
        let mut t = Tpp::new(
            params(false),
            TppConfig {
                huge: false,
                scan_pages_per_tick: 32,
                ..TppConfig::default()
            },
        );
        run(&mut t, &mut m, 50);
        assert!(
            m.free_pages(TierId::DEFAULT) > 0,
            "kswapd must restore free frames"
        );
        assert!(t.stats().demoted > 0);
    }

    #[test]
    fn threshold_adapts_within_bounds() {
        let mut m = small_machine(64);
        let mut t = Tpp::new(
            params(false),
            TppConfig {
                huge: false,
                initial_threshold_ns: 5_000.0,
                ..TppConfig::default()
            },
        );
        run(&mut t, &mut m, 200);
        let th = t.threshold_ns();
        assert!((1_000.0..=10_000_000.0).contains(&th), "threshold {th}");
    }

    #[test]
    fn promotion_boost_accelerates_hot_discovery() {
        let base = {
            let mut m = small_machine(64);
            let mut t = Tpp::new(
                params(false),
                TppConfig {
                    huge: false,
                    ..TppConfig::default()
                },
            );
            run(&mut t, &mut m, 150);
            t.stats().promoted
        };
        let boosted = {
            let mut m = small_machine(64);
            let mut t = Tpp::new(
                params(false),
                TppConfig {
                    huge: false,
                    ..TppConfig::fast_discovery()
                },
            );
            run(&mut t, &mut m, 150);
            t.stats().promoted
        };
        assert!(
            boosted >= base,
            "fast discovery must not promote slower: boosted {boosted} vs base {base}"
        );
        assert!(boosted > 0);
    }

    #[test]
    fn frozen_tpp_tracks_but_never_migrates() {
        let mut m = small_machine(64);
        let mut t = Tpp::new(
            params(false),
            TppConfig {
                huge: false,
                scan_pages_per_tick: 32,
                ..TppConfig::default()
            },
        );
        t.set_frozen(true);
        run(&mut t, &mut m, 100);
        assert!(t.stats().faults > 0, "frozen TPP still ingests recency");
        assert_eq!(t.stats().promoted, 0);
        assert_eq!(t.stats().demoted, 0);
        // Thaw: placement resumes from the preserved recency data.
        t.set_frozen(false);
        run(&mut t, &mut m, 300);
        assert!(t.stats().promoted > 0);
    }

    #[test]
    fn colloid_variant_demotes_under_pressure() {
        // Heavy contention on a tiny default tier: with Colloid, hint
        // faults on default-tier pages must produce demotions once the
        // default tier is the slower one.
        let mut cfg = MachineConfig::icelake_two_tier();
        cfg.tiers[0].capacity_bytes = 256 * PAGE_SIZE;
        cfg.tiers[1].capacity_bytes = 1024 * PAGE_SIZE;
        let mut m = Machine::new(cfg);
        m.place_range(0..200, TierId::DEFAULT);
        m.place_range(200..256, TierId::ALTERNATE);
        for _ in 0..24 {
            m.add_core(
                Box::new(HotCold {
                    hot: 200,
                    total: 256,
                }),
                CoreConfig::default(),
                TrafficClass::App,
            );
        }
        let mut t = Tpp::new(
            params(true),
            TppConfig {
                huge: false,
                scan_pages_per_tick: 32,
                ..TppConfig::default()
            },
        );
        run(&mut t, &mut m, 600);
        assert!(
            t.stats().demoted > 20,
            "Colloid TPP should demote hot pages under contention, demoted = {}",
            t.stats().demoted
        );
        assert_eq!(t.name(), "TPP+Colloid");
    }
}
