//! MEMTIS (SOSP '23) and MEMTIS+Colloid (paper §4.2).
//!
//! MEMTIS differs from HeMem in four ways the paper calls out:
//!
//! 1. **dynamic PEBS sampling rate** to bound CPU overhead;
//! 2. a **dynamic hot threshold** derived from the measured access
//!    distribution (the hot set is sized to the fast tier's capacity);
//! 3. promotion/demotion on separate per-tier `kmigrated` threads with a
//!    500 ms quantum (scaled here to several machine ticks), with
//!    *proactive* demotion of non-hot pages;
//! 4. **page-size determination**: hugepages are split when their internal
//!    access distribution is skewed, and re-coalesced by a background
//!    thread that *scans the virtual address space* — a mechanism the
//!    paper's §2.2 measures to be "significantly longer than the time it
//!    takes for this workload to reach steady-state". The coalescer here
//!    reproduces that slowness: it walks a bounded number of pages per
//!    kmigrated quantum, so split regions effectively never re-coalesce
//!    within an experiment, exactly as the paper observes.
//!
//! The Colloid integration (411 LoC in the paper) replaces the alternate
//! tier's `kmigrated` policy with Algorithm 1, selecting pages by scanning
//! the per-tier hot lists until Δp is met, while the default-tier
//! `kmigrated` continues demoting cold pages on capacity pressure.

use std::collections::HashSet;

use memsim::{Machine, TickReport, TierId, Vpn, PAGE_SIZE};

use crate::policy::DensityHistogram;
use crate::{SystemCore, SystemKind, SystemLogic, SystemParams, TierMove};

/// MEMTIS-specific knobs.
#[derive(Debug, Clone)]
pub struct MemtisConfig {
    /// kmigrated period in machine ticks (500 ms scaled).
    pub quantum_ticks: u32,
    /// Hugepage (region) size in base pages (scaled THP).
    pub region_pages: u64,
    /// Dynamic PEBS control: halve the rate above `hi` samples/tick,
    /// double it below `lo`.
    pub samples_lo: usize,
    /// See `samples_lo`.
    pub samples_hi: usize,
    /// Split a hot region when its hottest subpage exceeds this multiple of
    /// the region's mean subpage count.
    pub split_skew_factor: f64,
    /// Proactively demote non-hot pages even with free default frames.
    pub proactive_demotion: bool,
    /// Pages the background coalescer scans per kmigrated quantum. MEMTIS
    /// coalesces by scanning the virtual address space; the paper measures
    /// this to be far slower than workload convergence, which this default
    /// reproduces (a full pass over the §2.1 working set takes ~290
    /// quanta).
    pub coalesce_scan_pages: u64,
}

impl Default for MemtisConfig {
    fn default() -> Self {
        MemtisConfig {
            quantum_ticks: 5,
            region_pages: 16,
            samples_lo: 64,
            samples_hi: 4096,
            split_skew_factor: 4.0,
            proactive_demotion: true,
            coalesce_scan_pages: 64,
        }
    }
}

/// Telemetry counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemtisStats {
    /// Pages promoted into the default tier.
    pub promoted: u64,
    /// Pages demoted to the alternate tier.
    pub demoted: u64,
    /// Regions split into base pages.
    pub splits: u64,
    /// Regions re-coalesced by the background scanner.
    pub coalesces: u64,
    /// Current PEBS period.
    pub pebs_period: u64,
}

/// A placement unit: a whole (huge) region or a single split base page.
#[derive(Debug, Clone, Copy)]
struct Unit {
    first_vpn: Vpn,
    pages: u64,
    count: u64,
    tier: TierId,
}

impl Unit {
    fn bytes(&self) -> u64 {
        self.pages * PAGE_SIZE
    }

    /// Access density: samples per byte (MEMTIS ranks by per-byte hotness
    /// so small hot pages beat lukewarm hugepages).
    fn density(&self) -> f64 {
        self.count as f64 / self.bytes() as f64
    }
}

/// The MEMTIS tiering system (vanilla or +Colloid).
///
/// Hotness tracking lives behind a
/// [`HotnessPolicy`](crate::HotnessPolicy). On the extracted default
/// ([`DensityHistogram`]) the system reads the concrete frequency tracker
/// through its original code paths — bit-identical to the pre-extraction
/// MEMTIS; other policies feed unit counts through the trait's `heat_of`.
/// Page-size determination (split/coalesce) needs the per-page frequency
/// histogram and therefore only runs on the default policy; approximation
/// policies place whole regions.
pub type Memtis = crate::System<MemtisLogic>;

/// MEMTIS's own parts: sampling control, split/coalesce, units and the
/// kmigrated quantum. Everything else lives in the [`SystemCore`].
pub struct MemtisLogic {
    cfg: MemtisConfig,
    split: HashSet<Vpn>, // region base vpns that have been split
    ticks: u32,
    pebs_period: u64,
    /// Virtual-address-space cursor of the background coalescer.
    coalesce_cursor: u64,
    // Accumulators for averaging counter windows over a kmigrated quantum.
    acc_meas: Vec<(f64, f64)>,
    acc_ticks: u32,
    stats: MemtisStats,
}

impl Memtis {
    /// Builds MEMTIS; attaches Colloid when `params.colloid` is set and
    /// the hotness policy selected by `params.policy`
    /// ([`DensityHistogram`] if unset).
    pub fn new(params: SystemParams, cfg: MemtisConfig) -> Self {
        let logic = MemtisLogic {
            split: HashSet::new(),
            ticks: 0,
            pebs_period: 64,
            coalesce_cursor: 0,
            acc_meas: vec![(0.0, 0.0); params.n_tiers()],
            acc_ticks: 0,
            stats: MemtisStats {
                pebs_period: 64,
                ..MemtisStats::default()
            },
            cfg,
        };
        // kmigrated refills once per quantum, not per tick.
        let budget = params.migration_limit_per_tick * logic.cfg.quantum_ticks as u64;
        crate::System {
            core: SystemCore::new(SystemKind::Memtis, params, budget),
            logic,
        }
    }

    /// Telemetry counters.
    pub fn stats(&self) -> MemtisStats {
        self.logic.stats
    }
}

fn dh_ref(core: &SystemCore) -> &DensityHistogram {
    core.policy
        .as_any()
        .downcast_ref()
        .expect("legacy MEMTIS path requires the DensityHistogram policy")
}

/// A unit's aggregate hotness count for one page: the raw frequency
/// histogram on the default policy, a scaled `heat_of` otherwise.
fn count_of(core: &SystemCore, vpn: Vpn) -> u64 {
    // Kept fork: the `heat × 1000` scale would change split's
    // `total >= region_pages` rule on the default policy.
    if core.legacy {
        dh_ref(core).tracker.count(vpn) as u64
    } else {
        (core.policy.heat_of(vpn) * 1000.0).round() as u64
    }
}

impl MemtisLogic {
    fn region_base(&self, vpn: Vpn) -> Vpn {
        vpn / self.cfg.region_pages * self.cfg.region_pages
    }

    /// Dynamic PEBS rate control (MEMTIS bounds tracking overhead).
    fn adapt_sampling(&mut self, machine: &mut Machine, samples: usize) {
        if samples > self.cfg.samples_hi && self.pebs_period < 4096 {
            self.pebs_period *= 2;
            machine.set_pebs_period(self.pebs_period);
        } else if samples < self.cfg.samples_lo && self.pebs_period > 16 {
            self.pebs_period /= 2;
            machine.set_pebs_period(self.pebs_period);
        }
        self.stats.pebs_period = self.pebs_period;
    }

    /// Splits hot regions whose internal access distribution is skewed.
    /// A kept fork: it reads `DensityHistogram`'s raw per-page counts, so
    /// it runs on the default policy only.
    fn split_pass(&mut self, core: &SystemCore) {
        if !core.legacy {
            return;
        }
        let rp = self.cfg.region_pages;
        let mut to_split = Vec::new();
        let mut region_counts: std::collections::HashMap<Vpn, (u64, u64)> =
            std::collections::HashMap::new();
        for (vpn, count) in dh_ref(core).tracker.iter() {
            let base = self.region_base(vpn);
            if self.split.contains(&base) {
                continue;
            }
            let e = region_counts.entry(base).or_insert((0, 0));
            e.0 += count as u64;
            e.1 = e.1.max(count as u64);
        }
        for (base, (total, max)) in region_counts {
            let mean = total as f64 / rp as f64;
            if total >= rp && max as f64 > self.cfg.split_skew_factor * mean.max(1.0) {
                to_split.push(base);
            }
        }
        for base in to_split {
            self.split.insert(base);
            self.stats.splits += 1;
        }
    }

    /// The background coalescer: advances a cursor over the managed virtual
    /// address space by `coalesce_scan_pages` per quantum; a split region
    /// it passes over is re-coalesced when its pages are tier-homogeneous
    /// and its access distribution is no longer skewed. The bounded scan
    /// rate makes a full pass take hundreds of quanta (paper §2.2).
    fn coalesce_pass(&mut self, core: &SystemCore, machine: &Machine) {
        // Skew needs the frequency histogram: regions split before a swap
        // away from the default policy stay split until swapped back.
        if !core.legacy {
            return;
        }
        let total = core.params.managed_pages();
        if total == 0 || self.split.is_empty() {
            return;
        }
        let rp = self.cfg.region_pages;
        let mut scanned = 0;
        while scanned < self.cfg.coalesce_scan_pages {
            let pos = self.coalesce_cursor % total;
            // Map the flat cursor onto the managed ranges.
            let mut off = pos;
            let mut vpn = None;
            for r in &core.params.managed {
                let len = r.end - r.start;
                if off < len {
                    vpn = Some(r.start + off);
                    break;
                }
                off -= len;
            }
            self.coalesce_cursor = (pos / rp + 1) * rp; // next region boundary
            scanned += rp;
            let Some(vpn) = vpn else { break };
            let base = self.region_base(vpn);
            if !self.split.contains(&base) {
                continue;
            }
            // Tier-homogeneous?
            let tiers: Vec<_> = (base..base + rp).map(|p| machine.tier_of(p)).collect();
            if tiers.windows(2).any(|w| w[0] != w[1]) {
                continue;
            }
            // Still skewed?
            let counts: Vec<u64> = (base..base + rp)
                .map(|p| dh_ref(core).tracker.count(p) as u64)
                .collect();
            let totalc: u64 = counts.iter().sum();
            let max = counts.iter().copied().max().unwrap_or(0);
            let mean = totalc as f64 / rp as f64;
            if totalc >= rp && max as f64 > self.cfg.split_skew_factor * mean.max(1.0) {
                continue;
            }
            self.split.remove(&base);
            self.stats.coalesces += 1;
        }
    }

    /// Builds the unit list (regions, or base pages where split), sorted by
    /// descending access density.
    fn build_units(&self, core: &SystemCore, machine: &Machine) -> Vec<Unit> {
        let mut units = Vec::new();
        let rp = self.cfg.region_pages;
        for range in &core.params.managed {
            let mut vpn = range.start;
            while vpn < range.end {
                let base = self.region_base(vpn);
                if self.split.contains(&base) {
                    for page in base..(base + rp).min(range.end) {
                        if let Some(tier) = machine.tier_of(page) {
                            units.push(Unit {
                                first_vpn: page,
                                pages: 1,
                                count: count_of(core, page),
                                tier,
                            });
                        }
                    }
                } else {
                    let end = (base + rp).min(range.end);
                    let count: u64 = (base..end).map(|p| count_of(core, p)).sum();
                    if let Some(tier) = machine.tier_of(base) {
                        units.push(Unit {
                            first_vpn: base,
                            pages: end - base,
                            count,
                            tier,
                        });
                    }
                }
                vpn = (base + rp).max(vpn + 1);
            }
        }
        units.sort_by(|a, b| b.density().total_cmp(&a.density()));
        units
    }

    /// Vanilla kmigrated pass: hot set = densest units filling the default
    /// tier; promote hot units, proactively demote everything else.
    fn vanilla_place(&mut self, core: &mut SystemCore, machine: &mut Machine, units: &[Unit]) {
        // Effective capacity: a tier shrink permanently lowers the hot-set
        // budget, and MEMTIS must size to what is actually usable.
        let cap_bytes = machine.capacity_pages(TierId::DEFAULT) * PAGE_SIZE;
        // Leave kswapd headroom (2%).
        let target = cap_bytes - cap_bytes / 50;
        let mut used = 0u64;
        let mut hot_end = 0;
        for (i, u) in units.iter().enumerate() {
            if u.count == 0 || used + u.bytes() > target {
                hot_end = i;
                break;
            }
            used += u.bytes();
            hot_end = i + 1;
        }
        // Promote hot units one hop up the tier chain (on a two-tier
        // machine: alternate → default).
        for u in &units[..hot_end] {
            if u.tier != TierId::DEFAULT {
                let dst = TierId(u.tier.0 - 1);
                let down = TierId(dst.0 + 1);
                let needed = u.pages;
                if machine.free_pages(dst) < needed {
                    // Demote the coldest dst-resident units one hop down to
                    // make room.
                    for cold in units[hot_end..].iter().rev() {
                        if cold.tier == dst {
                            self.stats.demoted += migrate_unit(core, machine, cold, down);
                            if machine.free_pages(dst) >= needed {
                                break;
                            }
                        }
                    }
                }
                self.stats.promoted += migrate_unit(core, machine, u, dst);
            }
        }
        // Proactive demotion of non-hot units one hop down — for every tier
        // that has a slower neighbour (on two tiers: default → alternate).
        if self.cfg.proactive_demotion {
            let n_tiers = core.params.n_tiers();
            for u in &units[hot_end..] {
                if usize::from(u.tier.0) + 1 < n_tiers {
                    self.stats.demoted += migrate_unit(core, machine, u, TierId(u.tier.0 + 1));
                }
            }
        }
    }

    /// Colloid kmigrated pass (§4.2): scan the source tier's units in
    /// density order, pick while Δp and the migration limit allow.
    fn colloid_place(
        &mut self,
        core: &mut SystemCore,
        machine: &mut Machine,
        units: &[Unit],
        mv: &TierMove,
    ) {
        let (src, dst) = (mv.src, mv.dst);
        let promotion = mv.is_promotion();
        let can_spill = usize::from(dst.0) + 1 < core.params.n_tiers();
        let down = TierId(dst.0 + 1);
        // Kept fork: on the default policy unit counts are raw histogram
        // counts, so probabilities divide by the histogram's own total.
        let total = if core.legacy {
            dh_ref(core).tracker.total().max(1) as f64
        } else {
            units.iter().map(|u| u.count).sum::<u64>().max(1) as f64
        };
        let mut rem_p = mv.delta_p;
        let mut rem_bytes = mv.byte_limit;
        for u in units {
            if u.tier != src || u.count == 0 {
                continue;
            }
            let prob = u.count as f64 / total;
            if prob > rem_p {
                continue; // too much probability: try a colder unit
            }
            if u.bytes() > rem_bytes {
                continue; // page-size aware limit check (paper §4.2)
            }
            if can_spill && machine.free_pages(dst) < u.pages {
                // Make room by demoting zero-count dst units one hop down.
                let mut freed = false;
                for cold in units.iter().rev() {
                    if cold.tier == dst && cold.count == 0 {
                        self.stats.demoted += migrate_unit(core, machine, cold, down);
                        if machine.free_pages(dst) >= u.pages {
                            freed = true;
                            break;
                        }
                    }
                }
                if !freed {
                    continue;
                }
            }
            let moved = migrate_unit(core, machine, u, dst);
            if moved > 0 {
                rem_p -= prob;
                rem_bytes = rem_bytes.saturating_sub(moved * PAGE_SIZE);
                if promotion {
                    self.stats.promoted += moved;
                } else {
                    self.stats.demoted += moved;
                }
            }
        }
    }

    /// Averaged per-tier measurements over the elapsed kmigrated quantum.
    fn drain_measurements(&mut self) -> Vec<colloid::TierMeasurement> {
        let n = self.acc_ticks.max(1) as f64;
        let out = self
            .acc_meas
            .iter()
            .map(|&(o, r)| colloid::TierMeasurement {
                occupancy: o / n,
                rate_per_ns: r / n,
            })
            .collect();
        for m in &mut self.acc_meas {
            *m = (0.0, 0.0);
        }
        self.acc_ticks = 0;
        out
    }
}

/// Migrates a unit's pages that are not yet on `dst`, page by page within
/// the budget; returns pages enqueued.
fn migrate_unit(core: &mut SystemCore, machine: &mut Machine, unit: &Unit, dst: TierId) -> u64 {
    let mut moved = 0;
    for page in unit.first_vpn..unit.first_vpn + unit.pages {
        if machine.tier_of(page) == Some(dst) {
            continue;
        }
        if !core.budget.try_take_page() {
            break;
        }
        if core.retry.request(machine, page, dst) {
            core.policy.move_tier(page, dst);
            moved += 1;
        }
    }
    moved
}

impl SystemLogic for MemtisLogic {
    fn on_tick(&mut self, core: &mut SystemCore, machine: &mut Machine, report: &TickReport) {
        self.adapt_sampling(machine, report.pebs.len());
        // The default policy's managed-range gate reproduces the original
        // sample filter exactly.
        for s in &report.pebs {
            core.policy.record_access(s.vpn);
        }
        for (i, t) in report.tiers.iter().enumerate() {
            self.acc_meas[i].0 += t.occupancy;
            self.acc_meas[i].1 += t.rate_per_ns;
        }
        self.acc_ticks += 1;
        self.ticks += 1;
        if !self.ticks.is_multiple_of(self.cfg.quantum_ticks) {
            return;
        }

        // kmigrated quantum boundary.
        core.budget.refill();
        self.split_pass(core);
        self.coalesce_pass(core, machine);
        let units = self.build_units(core, machine);
        let window = self.drain_measurements();
        match core.colloid.as_mut().map(|c| c.on_quantum(&window)) {
            None => {
                // A frozen vanilla system keeps tracking but stops moving.
                if !core.frozen {
                    self.vanilla_place(core, machine, &units)
                }
            }
            Some(Some(d)) => self.colloid_place(core, machine, &units, &d.into()),
            Some(None) => {}
        }
        // MEMTIS's quantum is the kmigrated period; observation-only for
        // the default histogram, aging for the approximation policies.
        core.policy.end_quantum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TieringSystem;
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

    fn small_machine() -> Machine {
        let mut cfg = MachineConfig::icelake_two_tier();
        cfg.tiers[0].capacity_bytes = 64 * PAGE_SIZE;
        cfg.tiers[1].capacity_bytes = 1024 * PAGE_SIZE;
        cfg.pebs_period = 16;
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

    fn run(s: &mut Memtis, m: &mut Machine, ticks: usize) {
        for _ in 0..ticks {
            let rep = m.run_tick(SimTime::from_us(100.0));
            s.on_tick(m, &rep);
        }
    }

    #[test]
    fn vanilla_packs_hot_units_into_default() {
        let mut m = small_machine();
        let mut s = Memtis::new(params(false), MemtisConfig::default());
        run(&mut s, &mut m, 400);
        let hot_in_default = (0..32)
            .filter(|&v| m.tier_of(v) == Some(TierId::DEFAULT))
            .count();
        assert!(
            hot_in_default >= 24,
            "MEMTIS should pack hot regions into the default tier, got {hot_in_default}/32"
        );
    }

    #[test]
    fn proactive_demotion_clears_cold_pages() {
        let mut m = small_machine();
        // Cold pages squat in the default tier.
        for vpn in 192..240 {
            let _ = m.enqueue_migration(vpn, TierId::DEFAULT);
        }
        m.run_tick(SimTime::from_ms(2.0));
        let mut s = Memtis::new(params(false), MemtisConfig::default());
        run(&mut s, &mut m, 400);
        let cold_left = (192..240)
            .filter(|&v| m.tier_of(v) == Some(TierId::DEFAULT))
            .count();
        assert!(
            cold_left < 16,
            "proactive demotion should clear squatters, {cold_left} left"
        );
    }

    #[test]
    fn sampling_rate_adapts_down_under_load() {
        let mut m = small_machine();
        m.set_pebs_period(16);
        let mut s = Memtis::new(
            params(false),
            MemtisConfig {
                samples_hi: 10, // force the controller to throttle
                ..MemtisConfig::default()
            },
        );
        run(&mut s, &mut m, 50);
        assert!(
            s.stats().pebs_period > 64,
            "period should rise, got {}",
            s.stats().pebs_period
        );
    }

    #[test]
    fn skewed_regions_get_split() {
        // One scorching page inside an otherwise cold region.
        struct OnePage;
        impl AccessStream for OnePage {
            fn next(&mut self, _now: SimTime, rng: &mut SmallRng) -> ObjectAccess {
                // Page 5 gets 95% of traffic; rest uniform over the region.
                let vpn = if rng.gen_bool(0.95) {
                    5
                } else {
                    rng.gen_range(0..16)
                };
                ObjectAccess::read_line(
                    vpn * PAGE_SIZE + rng.gen_range(0..LINES_PER_PAGE) * LINE_SIZE,
                )
            }
        }
        let mut cfg = MachineConfig::icelake_two_tier();
        cfg.pebs_period = 16;
        let mut m = Machine::new(cfg);
        m.place_range(0..16, TierId::DEFAULT);
        m.add_core(
            Box::new(OnePage),
            CoreConfig::app_default(),
            TrafficClass::App,
        );
        let mut s = Memtis::new(
            SystemParams::new(vec![0..16], None),
            MemtisConfig::default(),
        );
        run(&mut s, &mut m, 200);
        assert!(s.stats().splits >= 1, "skewed region must split");
    }

    #[test]
    fn coalescer_rejoins_uniform_regions_eventually() {
        // A region is split by an early skewed phase, then the workload
        // turns uniform: the (slow) coalescer must eventually rejoin it.
        struct TwoPhase;
        impl AccessStream for TwoPhase {
            fn next(&mut self, now: SimTime, rng: &mut SmallRng) -> ObjectAccess {
                let vpn = if now < SimTime::from_ms(2.0) && rng.gen_bool(0.95) {
                    5
                } else {
                    rng.gen_range(0..16)
                };
                ObjectAccess::read_line(
                    vpn * PAGE_SIZE + rng.gen_range(0..LINES_PER_PAGE) * LINE_SIZE,
                )
            }
        }
        let mut cfg = MachineConfig::icelake_two_tier();
        cfg.pebs_period = 16;
        let mut m = Machine::new(cfg);
        m.place_range(0..16, TierId::DEFAULT);
        m.add_core(
            Box::new(TwoPhase),
            CoreConfig::app_default(),
            TrafficClass::App,
        );
        let mut s = Memtis::new(
            SystemParams::new(vec![0..16], None),
            MemtisConfig {
                coalesce_scan_pages: 16, // tiny space: full pass per quantum
                ..MemtisConfig::default()
            },
        );
        run(&mut s, &mut m, 800);
        assert!(s.stats().splits >= 1, "phase 1 must split");
        assert!(
            s.stats().coalesces >= 1,
            "uniform phase must eventually coalesce, stats = {:?}",
            s.stats()
        );
        assert!(s.logic.split.is_empty());
    }

    #[test]
    fn coalescer_is_too_slow_for_large_working_sets() {
        // The paper's §2.2 observation: on a realistically sized working
        // set, the address-space scan cannot finish within the workload's
        // convergence time, so split regions stay split.
        let mut cfg = MachineConfig::icelake_two_tier();
        cfg.pebs_period = 16;
        let mut m = Machine::new(cfg);
        m.place_range(0..4096, TierId::DEFAULT);
        struct OnePageHot;
        impl AccessStream for OnePageHot {
            fn next(&mut self, _now: SimTime, rng: &mut SmallRng) -> ObjectAccess {
                let vpn = if rng.gen_bool(0.9) {
                    3
                } else {
                    rng.gen_range(0..4096)
                };
                ObjectAccess::read_line(
                    vpn * PAGE_SIZE + rng.gen_range(0..LINES_PER_PAGE) * LINE_SIZE,
                )
            }
        }
        m.add_core(
            Box::new(OnePageHot),
            CoreConfig::app_default(),
            TrafficClass::App,
        );
        let mut s = Memtis::new(
            SystemParams::new(vec![0..4096], None),
            MemtisConfig::default(), // 64 pages scanned per quantum
        );
        run(&mut s, &mut m, 100);
        assert!(s.stats().splits >= 1);
        assert_eq!(
            s.stats().coalesces,
            0,
            "a 4096-page space cannot be fully rescanned in 20 quanta"
        );
    }

    #[test]
    fn colloid_variant_name() {
        let s = Memtis::new(params(true), MemtisConfig::default());
        assert_eq!(s.name(), "MEMTIS+Colloid");
    }

    #[test]
    fn units_move_whole_regions_when_huge() {
        let mut m = small_machine();
        let mut s = Memtis::new(params(false), MemtisConfig::default());
        run(&mut s, &mut m, 400);
        // Unsplit regions must be tier-homogeneous.
        for region in 0..(256 / 16) {
            let base = region * 16;
            if s.logic.split.contains(&base) {
                continue;
            }
            let tiers: Vec<_> = (base..base + 16).map(|v| m.tier_of(v)).collect();
            assert!(
                tiers.windows(2).all(|w| w[0] == w[1]),
                "region {region} fragmented: {tiers:?}"
            );
        }
    }
}
