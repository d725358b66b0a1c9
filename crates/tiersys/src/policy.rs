//! Pluggable hotness policies: the "which pages are hot" half of a
//! tiering system, factored out of [`hemem`], [`tpp`] and [`memtis`]
//! behind one trait.
//!
//! The paper's three systems each hard-wire their own hotness tracking —
//! HeMem's frequency bins with cooling, TPP's time-to-fault recency,
//! MEMTIS's access-density histogram — which makes "was it the policy or
//! the plumbing?" unanswerable. [`HotnessPolicy`] separates the two:
//! signals (PEBS samples, hint faults) flow in, rank/heat/hot-set queries
//! flow out, and the system keeps only the *mechanism* (budgets, retry,
//! watermarks, Colloid integration).
//!
//! Six policies ship today:
//!
//! | Policy | Extracted from / modelled on | Signal | Aging |
//! |--------|------------------------------|--------|-------|
//! | [`FreqBins`] | HeMem (SOSP '21) | PEBS frequency counts | halving cooling at a count threshold |
//! | [`TimeToFault`] | TPP (ASPLOS '23) | hint-fault time-to-fault | none (recency is self-aging) |
//! | [`DensityHistogram`] | MEMTIS (SOSP '23) | PEBS frequency counts | halving cooling (higher threshold) |
//! | [`Clock`] | classic second-chance | reference bits | hand sweep clears bits |
//! | [`Lru`] | intrusive recency list | list reordering | epoch boundaries |
//! | [`Sieve`] | SIEVE (NSDI '24) | visited bits, no reordering | lazy hand + per-epoch streaks |
//!
//! The three extracted policies are **bit-identical** to the state they
//! replaced: when a system runs its own default policy the golden
//! baselines under `tests/golden/` still match byte for byte (the
//! `golden_identity` suite pins this).
//!
//! Policies are hot-swappable at a quantum boundary, TierBPF-style: the
//! old policy exports its `(page, tier, heat)` ranking, the new one seeds
//! its internal structures from it ([`HotnessPolicy::seed`]), and the
//! system replaces the `Box<dyn HotnessPolicy>` in place — no pages are
//! forgotten across the swap.
//!
//! [`hemem`]: crate::hemem
//! [`tpp`]: crate::tpp
//! [`memtis`]: crate::memtis

use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

use memsim::{TierId, Vpn};
use tierctl::{FreqTracker, TierBins};

/// HeMem's cooling threshold (counts halve when any page reaches it).
pub const FREQ_BINS_COOLING: u32 = 16;
/// HeMem's vanilla hot threshold: a page is hot once its count reaches
/// this.
pub const FREQ_BINS_HOT: u32 = 2;
/// HeMem's bin count ("We use 5 bins by default").
pub const FREQ_BINS_N_BINS: usize = 5;
/// MEMTIS's cooling threshold for the density histogram.
pub const DENSITY_COOLING: u32 = 32;
/// `TimeToFault`'s stand-alone hot threshold (ns): TPP's initial
/// promotion threshold, used when no adaptive controller owns the policy.
pub const TTF_HOT_NS: f64 = 200_000.0;
/// `Sieve` promotes only pages accessed in this many consecutive epochs,
/// so a one-shot sequential scan never qualifies.
pub const SIEVE_HOT_STREAK: u8 = 2;

/// Which hotness policy to run (selectable per system and per tenant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// HeMem's frequency bins + cooling (HeMem's default).
    FreqBins,
    /// TPP's time-to-fault recency map + clock hand (TPP's default).
    TimeToFault,
    /// MEMTIS's access-density histogram (MEMTIS's default).
    DensityHistogram,
    /// Second-chance reference bits.
    Clock,
    /// Intrusive recency list (exact LRU order, approximate hot set).
    Lru,
    /// SIEVE: visited bits without reordering, lazy eviction hand.
    Sieve,
}

impl PolicyKind {
    /// All six policies, extracted defaults first.
    pub const ALL: [PolicyKind; 6] = [
        PolicyKind::FreqBins,
        PolicyKind::TimeToFault,
        PolicyKind::DensityHistogram,
        PolicyKind::Clock,
        PolicyKind::Lru,
        PolicyKind::Sieve,
    ];

    /// Stable display / CLI / telemetry-label name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::FreqBins => "freq-bins",
            PolicyKind::TimeToFault => "time-to-fault",
            PolicyKind::DensityHistogram => "density",
            PolicyKind::Clock => "clock",
            PolicyKind::Lru => "lru",
            PolicyKind::Sieve => "sieve",
        }
    }

    /// Parses a CLI name (the inverse of [`PolicyKind::name`]).
    pub fn from_name(name: &str) -> Option<PolicyKind> {
        PolicyKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Builds an empty policy instance for a machine with `n_tiers` tiers
    /// managing `managed` (the ranges matter only to [`FreqBins`], whose
    /// cooling re-bins the population in managed-range order — the exact
    /// order HeMem used before the extraction).
    pub fn build(self, n_tiers: usize, managed: Vec<Range<Vpn>>) -> Box<dyn HotnessPolicy> {
        match self {
            PolicyKind::FreqBins => Box::new(FreqBins::new(n_tiers, managed)),
            PolicyKind::TimeToFault => Box::new(TimeToFault::new()),
            PolicyKind::DensityHistogram => Box::new(DensityHistogram::new(managed)),
            PolicyKind::Clock => Box::new(Clock::new()),
            PolicyKind::Lru => Box::new(Lru::new()),
            PolicyKind::Sieve => Box::new(Sieve::new()),
        }
    }
}

/// Counters every policy maintains (exposed through
/// `TieringSystem::policy_stats` and the policy shoot-out).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PolicyStats {
    /// Access/fault signals ingested.
    pub signals: u64,
    /// Aging boundaries observed (cooling passes, epoch rollovers).
    pub epochs: u64,
    /// Pages currently tracked.
    pub tracked: u64,
    /// Pages seeded from a predecessor policy at the last swap.
    pub seeded: u64,
}

/// The hotness half of a tiering system: signals in, ranking out.
///
/// Contract:
/// - the tracked set is exactly the set the owning system [`insert`]ed
///   and did not [`remove`] — policies never invent or forget pages;
/// - [`heat_of`] is finite and non-negative for every page (0.0 for
///   untracked pages);
/// - [`ranked`] returns hottest-first, [`victims`] coldest-first, both
///   deterministically;
/// - [`end_quantum`] is called once per placement quantum by the owning
///   system. For the three extracted defaults it is observation-only
///   (bit-identity with the pre-extraction systems depends on it); the
///   approximation policies do their aging here.
///
/// [`insert`]: HotnessPolicy::insert
/// [`remove`]: HotnessPolicy::remove
/// [`heat_of`]: HotnessPolicy::heat_of
/// [`ranked`]: HotnessPolicy::ranked
/// [`victims`]: HotnessPolicy::victims
/// [`end_quantum`]: HotnessPolicy::end_quantum
pub trait HotnessPolicy {
    /// Which policy this is.
    fn kind(&self) -> PolicyKind;

    /// Starts tracking a page resident in `tier`. Pages must be inserted
    /// exactly once (re-insert only after [`HotnessPolicy::remove`]).
    fn insert(&mut self, vpn: Vpn, tier: TierId);

    /// Stops tracking a page (no-op if untracked).
    fn remove(&mut self, vpn: Vpn);

    /// Updates the tracked tier after a migration (no-op if untracked).
    fn move_tier(&mut self, vpn: Vpn, dst: TierId);

    /// The tier a page is filed under, if tracked.
    fn tier_of(&self, vpn: Vpn) -> Option<TierId>;

    /// Every tracked page, in ascending vpn order. The order is part of
    /// the contract: [`HotnessPolicy::heat_total`] sums floating-point
    /// heats in it, so it must not depend on hash-map iteration.
    fn tracked(&self) -> Vec<Vpn>;

    /// Number of tracked pages.
    fn tracked_len(&self) -> usize;

    /// Ingests one access signal (a PEBS sample) for a page.
    fn record_access(&mut self, vpn: Vpn);

    /// Ingests one hint-fault signal with its time-to-fault. Policies
    /// without a notion of fault latency treat it as a plain access.
    fn record_fault(&mut self, vpn: Vpn, _ttf_ns: f64) {
        self.record_access(vpn);
    }

    /// Marks a placement-quantum boundary (aging/epoch bookkeeping).
    fn end_quantum(&mut self);

    /// Relative hotness (higher = hotter; 0.0 = never seen / untracked).
    /// Always finite and non-negative.
    fn heat_of(&self, vpn: Vpn) -> f64;

    /// Whether the page currently qualifies as hot (promotion-worthy).
    fn is_hot(&self, vpn: Vpn) -> bool;

    /// `tier`'s tracked pages, hottest first (deterministic).
    fn ranked(&self, tier: TierId) -> Vec<Vpn>;

    /// Up to `max` eviction candidates from `tier`, coldest first. May
    /// mutate aging state (CLOCK/SIEVE hands clear bits as they sweep).
    fn victims(&mut self, tier: TierId, max: usize) -> Vec<Vpn>;

    /// Sum of `heat_of` over all tracked pages, added in ascending vpn
    /// order so the result is the same on every run.
    fn heat_total(&self) -> f64 {
        self.tracked().iter().map(|&v| self.heat_of(v)).sum()
    }

    /// Exports the full `(page, tier, heat)` ranking, hottest first —
    /// the state-migration payload for a policy swap.
    fn export_ranking(&self) -> Vec<(Vpn, TierId, f64)> {
        let mut out: Vec<(Vpn, TierId, f64)> = self
            .tracked()
            .into_iter()
            .filter_map(|v| self.tier_of(v).map(|t| (v, t, self.heat_of(v))))
            .collect();
        out.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));
        out
    }

    /// Seeds a fresh policy from a predecessor's exported ranking
    /// (hottest first): afterwards the tracked set equals the ranking's
    /// page set and relative hotness is approximately preserved.
    fn seed(&mut self, ranking: &[(Vpn, TierId, f64)]);

    /// Live counters.
    fn stats(&self) -> PolicyStats;

    /// Concrete-type access for the owning system's extracted fast path.
    fn as_any(&self) -> &dyn Any;

    /// Mutable concrete-type access.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Swaps the policy behind a `Box<dyn HotnessPolicy>` for a fresh `kind`,
/// seeding the newcomer from the old policy's exported ranking. Returns
/// `(old_kind, pages_seeded)`.
pub fn swap_boxed(
    slot: &mut Box<dyn HotnessPolicy>,
    kind: PolicyKind,
    n_tiers: usize,
    managed: Vec<Range<Vpn>>,
) -> (PolicyKind, u64) {
    let from = slot.kind();
    let ranking = slot.export_ranking();
    let mut fresh = kind.build(n_tiers, managed);
    fresh.seed(&ranking);
    *slot = fresh;
    (from, ranking.len() as u64)
}

/// A hash map's keys in ascending order (the [`HotnessPolicy::tracked`]
/// order).
fn sorted_keys<V>(map: &HashMap<Vpn, V>) -> Vec<Vpn> {
    let mut out: Vec<Vpn> = map.keys().copied().collect();
    out.sort_unstable();
    out
}

// ---------------------------------------------------------------------------
// FreqBins — extracted from HeMem
// ---------------------------------------------------------------------------

/// HeMem's hotness tracking, extracted verbatim: per-page PEBS frequency
/// counts with halving cooling, filed into per-tier frequency bins.
///
/// [`HeMem`](crate::hemem::HeMem) reaches it only through the trait:
/// `ranked` walks the bins hottest-first, `victims` is HeMem's two-pass
/// cold scan and `is_hot` its vanilla threshold. The fields are `pub` for
/// tests that compare bin lists and counts directly.
pub struct FreqBins {
    /// Per-page access counts with cooling.
    pub tracker: FreqTracker,
    /// Per-tier frequency-binned page lists.
    pub bins: TierBins,
    n_tiers: usize,
    managed: Vec<Range<Vpn>>,
    stats: PolicyStats,
}

impl FreqBins {
    /// An empty tracker for `n_tiers` tiers managing `managed`.
    pub fn new(n_tiers: usize, managed: Vec<Range<Vpn>>) -> Self {
        FreqBins {
            tracker: FreqTracker::new(FREQ_BINS_COOLING),
            bins: TierBins::new(n_tiers, FREQ_BINS_N_BINS, FREQ_BINS_COOLING),
            n_tiers,
            managed,
            stats: PolicyStats::default(),
        }
    }

    /// Re-bins the population after a cooling pass.
    ///
    /// HeMem calls `update_count` on every managed vpn in managed-range
    /// order. Only pages filed in bins >= 1 can move: halving never raises
    /// a count and `bin_of_count` is monotone, so a bin-0 page stays put
    /// and its call is a no-op. This visits just those pages, in the same
    /// order — first managed range containing the page, then vpn — so the
    /// swap-removes, and with them the bin-list order, are unchanged.
    fn rebin_after_cooling(&mut self) {
        // `(index of the first managed range containing the page, vpn)`.
        let mut rebin: Vec<(usize, Vpn)> = Vec::new();
        for tier in 0..self.n_tiers {
            for bin in 1..self.bins.n_bins() {
                for &vpn in self.bins.pages(TierId(tier as u8), bin) {
                    if let Some(r) = self.managed.iter().position(|r| r.contains(&vpn)) {
                        rebin.push((r, vpn));
                    }
                }
            }
        }
        rebin.sort_unstable();
        for (_, vpn) in rebin {
            self.bins.update_count(vpn, self.tracker.count(vpn));
        }
    }
}

impl HotnessPolicy for FreqBins {
    fn kind(&self) -> PolicyKind {
        PolicyKind::FreqBins
    }

    fn insert(&mut self, vpn: Vpn, tier: TierId) {
        self.bins.insert(vpn, tier, self.tracker.count(vpn));
    }

    fn remove(&mut self, vpn: Vpn) {
        self.bins.remove(vpn);
        self.tracker.forget(vpn);
    }

    fn move_tier(&mut self, vpn: Vpn, dst: TierId) {
        self.bins.move_tier(vpn, dst);
    }

    fn tier_of(&self, vpn: Vpn) -> Option<TierId> {
        self.bins.tier_of(vpn)
    }

    fn tracked(&self) -> Vec<Vpn> {
        self.bins.tracked().collect()
    }

    fn tracked_len(&self) -> usize {
        self.bins.len()
    }

    fn record_access(&mut self, vpn: Vpn) {
        // HeMem `ingest_samples` body: unmanaged pages are ignored; a
        // cooling pass re-bins the population in managed-range order
        // (bin-vector order is digest-visible).
        if self.bins.tier_of(vpn).is_none() {
            return;
        }
        self.stats.signals += 1;
        let cooled = self.tracker.record(vpn);
        if cooled {
            self.stats.epochs += 1;
            self.rebin_after_cooling();
        } else {
            self.bins.update_count(vpn, self.tracker.count(vpn));
        }
    }

    fn end_quantum(&mut self) {
        // Cooling *is* the aging mechanism; quantum boundaries are
        // observation-only (bit-identity with pre-extraction HeMem).
    }

    fn heat_of(&self, vpn: Vpn) -> f64 {
        f64::from(self.tracker.count(vpn))
    }

    /// The tracker's running total. Only tracked pages hold counts
    /// (`record_access` ignores the rest, `remove` forgets them), and an
    /// integer sum is exact in any order, so this equals the ascending sum
    /// (bit for bit, but for the sign of an empty sum).
    fn heat_total(&self) -> f64 {
        self.tracker.total() as f64
    }

    fn is_hot(&self, vpn: Vpn) -> bool {
        self.tracker.count(vpn) >= FREQ_BINS_HOT
    }

    fn ranked(&self, tier: TierId) -> Vec<Vpn> {
        let mut out = Vec::new();
        for bin in (0..self.bins.n_bins()).rev() {
            out.extend_from_slice(self.bins.pages(tier, bin));
        }
        out
    }

    fn victims(&mut self, tier: TierId, max: usize) -> Vec<Vpn> {
        // HeMem's two-pass cold scan: never-sampled pages first, then
        // everything coldest-bin-first (duplicates across passes are the
        // caller's retry order, exactly as `demote_one_cold` examined
        // them).
        if max == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        for pass in 0..2 {
            for bin in 0..self.bins.n_bins() {
                for &vpn in self.bins.pages(tier, bin) {
                    if pass == 0 && self.tracker.count(vpn) > 0 {
                        continue;
                    }
                    out.push(vpn);
                    if out.len() >= max {
                        return out;
                    }
                }
            }
        }
        out
    }

    fn seed(&mut self, ranking: &[(Vpn, TierId, f64)]) {
        let max_heat = ranking.iter().map(|r| r.2).fold(0.0, f64::max);
        for &(vpn, tier, heat) in ranking {
            let count = if max_heat > 0.0 {
                (heat / max_heat * f64::from(FREQ_BINS_COOLING - 1)).round() as u32
            } else {
                0
            };
            for _ in 0..count {
                self.tracker.record(vpn);
            }
            self.bins.insert(vpn, tier, self.tracker.count(vpn));
        }
        self.stats.seeded = ranking.len() as u64;
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats {
            tracked: self.bins.len() as u64,
            ..self.stats
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// ---------------------------------------------------------------------------
// TimeToFault — extracted from TPP
// ---------------------------------------------------------------------------

/// TPP's hotness tracking, extracted verbatim: the last observed
/// time-to-fault per page (hot pages fault quickly; never-faulted pages
/// are coldest) plus the kswapd clock hand over the managed pages.
///
/// Fields are `pub` so [`Tpp`](crate::tpp::Tpp)'s extracted fast path
/// (the adaptive-threshold fault test and the kswapd clock sweep) stays
/// bit-identical on the concrete structures.
pub struct TimeToFault {
    /// Last observed time-to-fault per page (ns): large = cold.
    pub last_ttf: HashMap<Vpn, f64>,
    /// Clock-hand page order (insertion order — for TPP, managed-range
    /// order, exactly the flattened list it used before extraction).
    pub clock_pages: Vec<Vpn>,
    /// Current clock-hand index into `clock_pages`.
    pub clock_hand: usize,
    tiers: HashMap<Vpn, TierId>,
    stats: PolicyStats,
}

impl TimeToFault {
    /// An empty recency map.
    pub fn new() -> Self {
        TimeToFault {
            last_ttf: HashMap::new(),
            clock_pages: Vec::new(),
            clock_hand: 0,
            tiers: HashMap::new(),
            stats: PolicyStats::default(),
        }
    }
}

impl Default for TimeToFault {
    fn default() -> Self {
        TimeToFault::new()
    }
}

impl HotnessPolicy for TimeToFault {
    fn kind(&self) -> PolicyKind {
        PolicyKind::TimeToFault
    }

    fn insert(&mut self, vpn: Vpn, tier: TierId) {
        if self.tiers.insert(vpn, tier).is_none() {
            self.clock_pages.push(vpn);
        }
    }

    fn remove(&mut self, vpn: Vpn) {
        if self.tiers.remove(&vpn).is_some() {
            self.last_ttf.remove(&vpn);
            // Lazy: the clock sweep skips untracked pages; compact when
            // the dead fraction grows past half.
            if self.clock_pages.len() > 2 * self.tiers.len().max(1) {
                self.clock_pages.retain(|v| self.tiers.contains_key(v));
                self.clock_hand = 0;
            }
        }
    }

    fn move_tier(&mut self, vpn: Vpn, dst: TierId) {
        if let Some(t) = self.tiers.get_mut(&vpn) {
            *t = dst;
        }
    }

    fn tier_of(&self, vpn: Vpn) -> Option<TierId> {
        self.tiers.get(&vpn).copied()
    }

    fn tracked(&self) -> Vec<Vpn> {
        sorted_keys(&self.tiers)
    }

    fn tracked_len(&self) -> usize {
        self.tiers.len()
    }

    fn record_access(&mut self, vpn: Vpn) {
        // A plain access (PEBS) maps onto the recency model as a fast
        // re-fault: halve the remembered time-to-fault towards a floor.
        if !self.tiers.contains_key(&vpn) {
            return;
        }
        self.stats.signals += 1;
        let e = self.last_ttf.entry(vpn).or_insert(2.0e6);
        *e = (*e * 0.5).max(100.0);
    }

    fn record_fault(&mut self, vpn: Vpn, ttf_ns: f64) {
        // Like an access, a fault on an untracked page leaves no trace.
        if !self.tiers.contains_key(&vpn) {
            return;
        }
        self.stats.signals += 1;
        self.last_ttf.insert(vpn, ttf_ns);
    }

    fn end_quantum(&mut self) {
        // Recency data is self-aging (new faults overwrite); quantum
        // boundaries are observation-only (bit-identity with TPP).
        self.stats.epochs += 1;
    }

    fn heat_of(&self, vpn: Vpn) -> f64 {
        self.last_ttf
            .get(&vpn)
            .map(|ttf| 1.0 / ttf.max(1.0))
            .unwrap_or(0.0)
    }

    fn is_hot(&self, vpn: Vpn) -> bool {
        self.last_ttf
            .get(&vpn)
            .is_some_and(|&ttf| ttf <= TTF_HOT_NS)
    }

    fn ranked(&self, tier: TierId) -> Vec<Vpn> {
        let mut out: Vec<(Vpn, f64)> = self
            .tiers
            .iter()
            .filter(|&(_, &t)| t == tier)
            .map(|(&v, _)| (v, self.last_ttf.get(&v).copied().unwrap_or(f64::INFINITY)))
            .collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out.into_iter().map(|(v, _)| v).collect()
    }

    fn victims(&mut self, tier: TierId, max: usize) -> Vec<Vpn> {
        // One clock sweep: clearly-cold pages short-circuit, otherwise
        // the coldest pages seen fill the tail (TPP's kswapd shape).
        if self.clock_pages.is_empty() || max == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut lukewarm: Vec<(Vpn, f64)> = Vec::new();
        for _ in 0..self.clock_pages.len() {
            let vpn = self.clock_pages[self.clock_hand];
            self.clock_hand = (self.clock_hand + 1) % self.clock_pages.len();
            if self.tiers.get(&vpn) != Some(&tier) {
                continue;
            }
            let ttf = self.last_ttf.get(&vpn).copied().unwrap_or(f64::INFINITY);
            if ttf > TTF_HOT_NS * 10.0 {
                out.push(vpn);
                if out.len() >= max {
                    return out;
                }
            } else {
                lukewarm.push((vpn, ttf));
            }
        }
        lukewarm.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out.extend(lukewarm.into_iter().map(|(v, _)| v));
        out.truncate(max);
        out
    }

    fn seed(&mut self, ranking: &[(Vpn, TierId, f64)]) {
        for &(vpn, tier, heat) in ranking {
            self.insert(vpn, tier);
            if heat > 0.0 {
                // `heat = 1 / ttf` is exactly invertible.
                self.last_ttf.insert(vpn, (1.0 / heat).max(1.0));
            }
        }
        self.stats.seeded = ranking.len() as u64;
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats {
            tracked: self.tiers.len() as u64,
            ..self.stats
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// ---------------------------------------------------------------------------
// DensityHistogram — extracted from MEMTIS
// ---------------------------------------------------------------------------

/// MEMTIS's hotness tracking, extracted verbatim: a per-page frequency
/// tracker with a higher cooling threshold; the owning system derives
/// per-unit access *density* (samples per byte) from the raw counts.
///
/// The tracker is `pub` so [`Memtis`](crate::memtis::Memtis)'s extracted
/// fast path (unit building, split/coalesce skew tests, Colloid's
/// probability normalisation) stays bit-identical.
pub struct DensityHistogram {
    /// Per-page access counts with cooling.
    pub tracker: FreqTracker,
    managed: Vec<Range<Vpn>>,
    tiers: HashMap<Vpn, TierId>,
    stats: PolicyStats,
}

impl DensityHistogram {
    /// An empty histogram managing `managed`.
    pub fn new(managed: Vec<Range<Vpn>>) -> Self {
        DensityHistogram {
            tracker: FreqTracker::new(DENSITY_COOLING),
            managed,
            tiers: HashMap::new(),
            stats: PolicyStats::default(),
        }
    }
}

impl HotnessPolicy for DensityHistogram {
    fn kind(&self) -> PolicyKind {
        PolicyKind::DensityHistogram
    }

    fn insert(&mut self, vpn: Vpn, tier: TierId) {
        self.tiers.insert(vpn, tier);
    }

    fn remove(&mut self, vpn: Vpn) {
        self.tiers.remove(&vpn);
    }

    fn move_tier(&mut self, vpn: Vpn, dst: TierId) {
        if let Some(t) = self.tiers.get_mut(&vpn) {
            *t = dst;
        }
    }

    fn tier_of(&self, vpn: Vpn) -> Option<TierId> {
        self.tiers.get(&vpn).copied()
    }

    fn tracked(&self) -> Vec<Vpn> {
        sorted_keys(&self.tiers)
    }

    fn tracked_len(&self) -> usize {
        self.tiers.len()
    }

    fn record_access(&mut self, vpn: Vpn) {
        // Verbatim MEMTIS sample ingestion: managed-range gate, then a
        // plain frequency record (cooling halves at the higher MEMTIS
        // threshold).
        if !self.managed.iter().any(|r| r.contains(&vpn)) {
            return;
        }
        self.stats.signals += 1;
        if self.tracker.record(vpn) {
            self.stats.epochs += 1;
        }
    }

    fn end_quantum(&mut self) {
        // Cooling is the aging mechanism (bit-identity with MEMTIS).
    }

    // The tracker counts every managed page, tracked or not (MEMTIS's
    // cooling depends on it); the trait views report only tracked pages.
    fn heat_of(&self, vpn: Vpn) -> f64 {
        if !self.tiers.contains_key(&vpn) {
            return 0.0;
        }
        f64::from(self.tracker.count(vpn))
    }

    fn is_hot(&self, vpn: Vpn) -> bool {
        self.tiers.contains_key(&vpn) && self.tracker.count(vpn) >= 2
    }

    fn ranked(&self, tier: TierId) -> Vec<Vpn> {
        let mut out: Vec<(Vpn, u32)> = self
            .tiers
            .iter()
            .filter(|&(_, &t)| t == tier)
            .map(|(&v, _)| (v, self.tracker.count(v)))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out.into_iter().map(|(v, _)| v).collect()
    }

    fn victims(&mut self, tier: TierId, max: usize) -> Vec<Vpn> {
        let mut out: Vec<(Vpn, u32)> = self
            .tiers
            .iter()
            .filter(|&(_, &t)| t == tier)
            .map(|(&v, _)| (v, self.tracker.count(v)))
            .collect();
        out.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        out.truncate(max);
        out.into_iter().map(|(v, _)| v).collect()
    }

    fn seed(&mut self, ranking: &[(Vpn, TierId, f64)]) {
        let max_heat = ranking.iter().map(|r| r.2).fold(0.0, f64::max);
        for &(vpn, tier, heat) in ranking {
            let count = if max_heat > 0.0 {
                (heat / max_heat * f64::from(DENSITY_COOLING - 1)).round() as u32
            } else {
                0
            };
            for _ in 0..count {
                self.tracker.record(vpn);
            }
            self.tiers.insert(vpn, tier);
        }
        self.stats.seeded = ranking.len() as u64;
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats {
            tracked: self.tiers.len() as u64,
            ..self.stats
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// ---------------------------------------------------------------------------
// Clock — second-chance reference bits
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct ClockState {
    tier: TierId,
    ref_bit: bool,
    /// Saturating per-page hit counter (heat resolution above the single
    /// reference bit).
    hits: u8,
}

/// Classic CLOCK: one reference bit per page, set on access, cleared by
/// the second-chance hand as it hunts for victims.
pub struct Clock {
    order: Vec<Vpn>,
    state: HashMap<Vpn, ClockState>,
    hand: usize,
    stats: PolicyStats,
}

impl Clock {
    /// An empty clock.
    pub fn new() -> Self {
        Clock {
            order: Vec::new(),
            state: HashMap::new(),
            hand: 0,
            stats: PolicyStats::default(),
        }
    }

    fn compact(&mut self) {
        if self.order.len() > 2 * self.state.len().max(1) {
            self.order.retain(|v| self.state.contains_key(v));
            self.hand = 0;
        }
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

impl HotnessPolicy for Clock {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Clock
    }

    fn insert(&mut self, vpn: Vpn, tier: TierId) {
        if self
            .state
            .insert(
                vpn,
                ClockState {
                    tier,
                    ref_bit: false,
                    hits: 0,
                },
            )
            .is_none()
        {
            self.order.push(vpn);
        }
    }

    fn remove(&mut self, vpn: Vpn) {
        self.state.remove(&vpn);
        self.compact();
    }

    fn move_tier(&mut self, vpn: Vpn, dst: TierId) {
        if let Some(s) = self.state.get_mut(&vpn) {
            s.tier = dst;
        }
    }

    fn tier_of(&self, vpn: Vpn) -> Option<TierId> {
        self.state.get(&vpn).map(|s| s.tier)
    }

    fn tracked(&self) -> Vec<Vpn> {
        sorted_keys(&self.state)
    }

    fn tracked_len(&self) -> usize {
        self.state.len()
    }

    fn record_access(&mut self, vpn: Vpn) {
        if let Some(s) = self.state.get_mut(&vpn) {
            s.ref_bit = true;
            s.hits = s.hits.saturating_add(1);
            self.stats.signals += 1;
        }
    }

    fn end_quantum(&mut self) {
        self.stats.epochs += 1;
    }

    fn heat_of(&self, vpn: Vpn) -> f64 {
        self.state
            .get(&vpn)
            .map(|s| f64::from(s.hits) + if s.ref_bit { 0.5 } else { 0.0 })
            .unwrap_or(0.0)
    }

    fn is_hot(&self, vpn: Vpn) -> bool {
        self.state
            .get(&vpn)
            .is_some_and(|s| s.ref_bit && s.hits >= 2)
    }

    fn ranked(&self, tier: TierId) -> Vec<Vpn> {
        let mut out: Vec<(Vpn, f64)> = self
            .state
            .iter()
            .filter(|&(_, s)| s.tier == tier)
            .map(|(&v, _)| (v, self.heat_of(v)))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out.into_iter().map(|(v, _)| v).collect()
    }

    fn victims(&mut self, tier: TierId, max: usize) -> Vec<Vpn> {
        if self.order.is_empty() || max == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        // Two full revolutions bound the sweep: the first clears any
        // all-set reference bits, the second then finds victims.
        for _ in 0..2 * self.order.len() {
            if out.len() >= max {
                break;
            }
            let vpn = self.order[self.hand];
            self.hand = (self.hand + 1) % self.order.len();
            let Some(s) = self.state.get_mut(&vpn) else {
                continue;
            };
            if s.tier != tier {
                continue;
            }
            if s.ref_bit {
                // Second chance: clear and move on.
                s.ref_bit = false;
                s.hits /= 2;
            } else {
                out.push(vpn);
            }
        }
        out
    }

    fn seed(&mut self, ranking: &[(Vpn, TierId, f64)]) {
        // Coldest inserted first so the hand (starting at 0) reaches cold
        // pages before hot ones; the top half keeps its reference bit.
        let hot_floor = ranking.len() / 2;
        for (i, &(vpn, tier, heat)) in ranking.iter().rev().enumerate() {
            let rank = ranking.len() - 1 - i;
            self.insert(vpn, tier);
            if let Some(s) = self.state.get_mut(&vpn) {
                s.ref_bit = rank < hot_floor && heat > 0.0;
                s.hits = if s.ref_bit { 2 } else { 0 };
            }
        }
        self.stats.seeded = ranking.len() as u64;
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats {
            tracked: self.state.len() as u64,
            ..self.stats
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// ---------------------------------------------------------------------------
// Lru — intrusive recency list
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct LruNode {
    prev: Option<Vpn>,
    next: Option<Vpn>,
    tier: TierId,
    stamp: u64,
}

/// Exact LRU order via an intrusive doubly-linked list (`prev`/`next`
/// stored inline in each page's node): O(1) touch, O(tier) queries.
///
/// The hot set is epoch-based: a page is hot if it was touched during
/// the current or previous placement quantum.
pub struct Lru {
    nodes: HashMap<Vpn, LruNode>,
    /// Most-recently used.
    head: Option<Vpn>,
    /// Least-recently used.
    tail: Option<Vpn>,
    /// Monotone touch clock.
    clock: u64,
    epoch_start: u64,
    prev_epoch_start: u64,
    stats: PolicyStats,
}

impl Lru {
    /// An empty list.
    pub fn new() -> Self {
        Lru {
            nodes: HashMap::new(),
            head: None,
            tail: None,
            clock: 0,
            epoch_start: 0,
            prev_epoch_start: 0,
            stats: PolicyStats::default(),
        }
    }

    fn unlink(&mut self, vpn: Vpn) {
        let Some(node) = self.nodes.get(&vpn).copied() else {
            return;
        };
        match node.prev {
            Some(p) => self.nodes.get_mut(&p).expect("linked node").next = node.next,
            None => self.head = node.next,
        }
        match node.next {
            Some(n) => self.nodes.get_mut(&n).expect("linked node").prev = node.prev,
            None => self.tail = node.prev,
        }
    }

    fn push_front(&mut self, vpn: Vpn) {
        let old_head = self.head;
        if let Some(h) = old_head {
            self.nodes.get_mut(&h).expect("head node").prev = Some(vpn);
        }
        let node = self.nodes.get_mut(&vpn).expect("node exists");
        node.prev = None;
        node.next = old_head;
        self.head = Some(vpn);
        if self.tail.is_none() {
            self.tail = Some(vpn);
        }
    }
}

impl Default for Lru {
    fn default() -> Self {
        Lru::new()
    }
}

impl HotnessPolicy for Lru {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Lru
    }

    fn insert(&mut self, vpn: Vpn, tier: TierId) {
        if self.nodes.contains_key(&vpn) {
            return;
        }
        // New pages enter at the cold end: they have no recency yet.
        self.nodes.insert(
            vpn,
            LruNode {
                prev: self.tail,
                next: None,
                tier,
                stamp: 0,
            },
        );
        if let Some(t) = self.tail {
            self.nodes.get_mut(&t).expect("tail node").next = Some(vpn);
        }
        self.tail = Some(vpn);
        if self.head.is_none() {
            self.head = Some(vpn);
        }
    }

    fn remove(&mut self, vpn: Vpn) {
        if self.nodes.contains_key(&vpn) {
            self.unlink(vpn);
            self.nodes.remove(&vpn);
        }
    }

    fn move_tier(&mut self, vpn: Vpn, dst: TierId) {
        if let Some(n) = self.nodes.get_mut(&vpn) {
            n.tier = dst;
        }
    }

    fn tier_of(&self, vpn: Vpn) -> Option<TierId> {
        self.nodes.get(&vpn).map(|n| n.tier)
    }

    fn tracked(&self) -> Vec<Vpn> {
        sorted_keys(&self.nodes)
    }

    fn tracked_len(&self) -> usize {
        self.nodes.len()
    }

    fn record_access(&mut self, vpn: Vpn) {
        if !self.nodes.contains_key(&vpn) {
            return;
        }
        self.stats.signals += 1;
        self.clock += 1;
        let clock = self.clock;
        self.unlink(vpn);
        self.nodes.get_mut(&vpn).expect("node exists").stamp = clock;
        self.push_front(vpn);
    }

    fn end_quantum(&mut self) {
        self.prev_epoch_start = self.epoch_start;
        self.epoch_start = self.clock;
        self.stats.epochs += 1;
    }

    fn heat_of(&self, vpn: Vpn) -> f64 {
        self.nodes
            .get(&vpn)
            .map(|n| n.stamp as f64 / self.clock.max(1) as f64)
            .unwrap_or(0.0)
    }

    fn is_hot(&self, vpn: Vpn) -> bool {
        self.nodes
            .get(&vpn)
            .is_some_and(|n| n.stamp > 0 && n.stamp >= self.prev_epoch_start)
    }

    fn ranked(&self, tier: TierId) -> Vec<Vpn> {
        let mut out = Vec::new();
        let mut cur = self.head;
        while let Some(vpn) = cur {
            let node = self.nodes.get(&vpn).expect("linked node");
            if node.tier == tier {
                out.push(vpn);
            }
            cur = node.next;
        }
        out
    }

    fn victims(&mut self, tier: TierId, max: usize) -> Vec<Vpn> {
        let mut out = Vec::new();
        let mut cur = self.tail;
        while let Some(vpn) = cur {
            if out.len() >= max {
                break;
            }
            let node = self.nodes.get(&vpn).expect("linked node");
            if node.tier == tier {
                out.push(vpn);
            }
            cur = node.prev;
        }
        out
    }

    fn seed(&mut self, ranking: &[(Vpn, TierId, f64)]) {
        // Insert coldest-first, then touch in the same order: the hottest
        // page ends up most recently used. The hot-set boundary lands at
        // the ranking's median so a swap does not declare everything hot.
        for &(vpn, tier, _) in ranking.iter().rev() {
            self.insert(vpn, tier);
        }
        for &(vpn, _, heat) in ranking.iter().rev() {
            if heat > 0.0 {
                self.record_access(vpn);
            }
        }
        self.stats.signals = 0;
        let median_rank = ranking.len() / 2;
        let hot_count = ranking[..median_rank].iter().filter(|r| r.2 > 0.0).count() as u64;
        self.epoch_start = self.clock;
        self.prev_epoch_start = self.clock.saturating_sub(hot_count);
        self.stats.seeded = ranking.len() as u64;
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats {
            tracked: self.nodes.len() as u64,
            ..self.stats
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// ---------------------------------------------------------------------------
// Sieve — lazy promotion hand, no reordering
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct SieveState {
    tier: TierId,
    visited: bool,
    /// Accessed during the current epoch (reset by `end_quantum`).
    epoch_hit: bool,
    /// Consecutive epochs with at least one access (saturating).
    streak: u8,
}

/// SIEVE (NSDI '24): pages keep insertion order forever; accesses only
/// set a `visited` bit, and the eviction hand moves from the oldest page
/// towards the newest, clearing visited bits and evicting the first
/// unvisited page it meets. No reordering means a sequential scan cannot
/// reshuffle the structure — and the epoch streak makes the *hot set*
/// scan-resistant too: promotion requires [`SIEVE_HOT_STREAK`]
/// consecutive active epochs, which a one-shot sweep never reaches.
pub struct Sieve {
    /// Insertion order; index 0 is the oldest (the hand starts there).
    order: Vec<Vpn>,
    state: HashMap<Vpn, SieveState>,
    hand: usize,
    stats: PolicyStats,
}

impl Sieve {
    /// An empty sieve.
    pub fn new() -> Self {
        Sieve {
            order: Vec::new(),
            state: HashMap::new(),
            hand: 0,
            stats: PolicyStats::default(),
        }
    }

    fn compact(&mut self) {
        if self.order.len() > 2 * self.state.len().max(1) {
            self.order.retain(|v| self.state.contains_key(v));
            self.hand = 0;
        }
    }
}

impl Default for Sieve {
    fn default() -> Self {
        Sieve::new()
    }
}

impl HotnessPolicy for Sieve {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Sieve
    }

    fn insert(&mut self, vpn: Vpn, tier: TierId) {
        if self
            .state
            .insert(
                vpn,
                SieveState {
                    tier,
                    visited: false,
                    epoch_hit: false,
                    streak: 0,
                },
            )
            .is_none()
        {
            self.order.push(vpn);
        }
    }

    fn remove(&mut self, vpn: Vpn) {
        self.state.remove(&vpn);
        self.compact();
    }

    fn move_tier(&mut self, vpn: Vpn, dst: TierId) {
        if let Some(s) = self.state.get_mut(&vpn) {
            s.tier = dst;
        }
    }

    fn tier_of(&self, vpn: Vpn) -> Option<TierId> {
        self.state.get(&vpn).map(|s| s.tier)
    }

    fn tracked(&self) -> Vec<Vpn> {
        sorted_keys(&self.state)
    }

    fn tracked_len(&self) -> usize {
        self.state.len()
    }

    fn record_access(&mut self, vpn: Vpn) {
        if let Some(s) = self.state.get_mut(&vpn) {
            s.visited = true;
            s.epoch_hit = true;
            self.stats.signals += 1;
        }
    }

    fn end_quantum(&mut self) {
        // Streaks build by one per hit epoch and *decay* by one per miss
        // epoch (rather than resetting): an established hot page survives
        // the occasional quiet quantum, while a one-shot scan can never
        // reach the streak threshold.
        for s in self.state.values_mut() {
            s.streak = if s.epoch_hit {
                s.streak.saturating_add(1)
            } else {
                s.streak.saturating_sub(1)
            };
            s.epoch_hit = false;
        }
        self.stats.epochs += 1;
    }

    fn heat_of(&self, vpn: Vpn) -> f64 {
        self.state
            .get(&vpn)
            .map(|s| {
                f64::from(s.streak)
                    + if s.visited { 0.5 } else { 0.0 }
                    + if s.epoch_hit { 0.25 } else { 0.0 }
            })
            .unwrap_or(0.0)
    }

    fn is_hot(&self, vpn: Vpn) -> bool {
        self.state
            .get(&vpn)
            .is_some_and(|s| s.streak >= SIEVE_HOT_STREAK)
    }

    fn ranked(&self, tier: TierId) -> Vec<Vpn> {
        let mut out: Vec<(Vpn, f64)> = self
            .state
            .iter()
            .filter(|&(_, s)| s.tier == tier)
            .map(|(&v, _)| (v, self.heat_of(v)))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out.into_iter().map(|(v, _)| v).collect()
    }

    fn victims(&mut self, tier: TierId, max: usize) -> Vec<Vpn> {
        if self.order.is_empty() || max == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        for _ in 0..2 * self.order.len() {
            if out.len() >= max {
                break;
            }
            let vpn = self.order[self.hand];
            self.hand = (self.hand + 1) % self.order.len();
            let Some(s) = self.state.get_mut(&vpn) else {
                continue;
            };
            if s.tier != tier {
                continue;
            }
            if s.visited {
                s.visited = false;
            } else {
                out.push(vpn);
            }
        }
        out
    }

    fn seed(&mut self, ranking: &[(Vpn, TierId, f64)]) {
        // Coldest-first insertion puts the hand on cold pages. The top
        // quarter arrives with an established streak (immediately hot),
        // the next quarter with just the visited bit (one epoch away).
        let n = ranking.len();
        for (i, &(vpn, tier, heat)) in ranking.iter().rev().enumerate() {
            let rank = n - 1 - i;
            self.insert(vpn, tier);
            if let Some(s) = self.state.get_mut(&vpn) {
                if heat > 0.0 && rank < n / 4 {
                    s.streak = SIEVE_HOT_STREAK;
                    s.visited = true;
                    s.epoch_hit = true;
                } else if heat > 0.0 && rank < n / 2 {
                    s.visited = true;
                }
            }
        }
        self.stats.seeded = n as u64;
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats {
            tracked: self.state.len() as u64,
            ..self.stats
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Top-of-ranking window the probe compares positionally between
/// observations (rank churn counts position changes within it).
pub const PROBE_RANK_WINDOW: usize = 64;

/// Per-policy registry metrics derived from a system's exported ranking:
/// rank churn (positional changes in the top-[`PROBE_RANK_WINDOW`]),
/// hot-set turnover (symmetric difference of the top-quarter page set),
/// and the policy's live signal/tracked counters as gauges. All series
/// carry a `policy` label so a head-to-head matrix can overlay them.
pub struct PolicyProbe {
    churn: telemetry::Counter,
    turnover: telemetry::Counter,
    signals: telemetry::Gauge,
    tracked: telemetry::Gauge,
    prev_rank: Vec<Vpn>,
    prev_hot: HashSet<Vpn>,
    /// Deltas are only meaningful from the second observation on.
    primed: bool,
}

impl PolicyProbe {
    /// Registers the probe's series on `hub`, labelled with the observed
    /// policy's name.
    pub fn new(hub: &telemetry::MetricsHub, policy: PolicyKind) -> Self {
        let labels = [("policy", policy.name())];
        PolicyProbe {
            churn: hub.counter_with("policy_rank_churn_total", &labels),
            turnover: hub.counter_with("policy_hot_set_turnover_total", &labels),
            signals: hub.gauge_with("policy_signals_total", &labels),
            tracked: hub.gauge_with("policy_tracked_pages", &labels),
            prev_rank: Vec::new(),
            prev_hot: HashSet::new(),
            primed: false,
        }
    }

    /// Takes one observation of `system`'s exported ranking and updates
    /// the churn/turnover counters against the previous observation.
    /// No-op (and stays unprimed) for systems without a policy layer.
    pub fn observe(&mut self, system: &dyn crate::TieringSystem) {
        let Some(ranking) = system.export_policy_ranking() else {
            return;
        };
        let rank: Vec<Vpn> = ranking
            .iter()
            .take(PROBE_RANK_WINDOW)
            .map(|&(vpn, _, _)| vpn)
            .collect();
        let hot: HashSet<Vpn> = ranking
            .iter()
            .take(ranking.len().div_ceil(4))
            .filter(|&&(_, _, heat)| heat > 0.0)
            .map(|&(vpn, _, _)| vpn)
            .collect();
        if self.primed {
            let common = rank.len().min(self.prev_rank.len());
            let moved = (0..common)
                .filter(|&i| rank[i] != self.prev_rank[i])
                .count()
                + rank.len().abs_diff(self.prev_rank.len());
            self.churn.add(moved as u64);
            let swapped = hot.symmetric_difference(&self.prev_hot).count();
            self.turnover.add(swapped as u64);
        }
        self.prev_rank = rank;
        self.prev_hot = hot;
        self.primed = true;
        if let Some(st) = system.policy_stats() {
            self.signals.set(st.signals as f64);
            self.tracked.set(st.tracked as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: TierId = TierId::DEFAULT;
    const A: TierId = TierId::ALTERNATE;

    fn build(kind: PolicyKind) -> Box<dyn HotnessPolicy> {
        kind.build(2, vec![0..64])
    }

    /// Minimal policy-bearing system: hands the probe whatever ranking
    /// the test sets.
    struct Stub {
        ranking: Vec<(Vpn, TierId, f64)>,
    }

    impl crate::TieringSystem for Stub {
        fn on_tick(&mut self, _machine: &mut memsim::Machine, _report: &memsim::TickReport) {}

        fn name(&self) -> String {
            "stub".into()
        }

        fn heat_of(&self, _vpn: Vpn) -> f64 {
            0.0
        }

        fn policy_stats(&self) -> Option<PolicyStats> {
            Some(PolicyStats {
                signals: 7,
                epochs: 1,
                tracked: self.ranking.len() as u64,
                seeded: 0,
            })
        }

        fn export_policy_ranking(&self) -> Option<Vec<(Vpn, TierId, f64)>> {
            Some(self.ranking.clone())
        }
    }

    fn probe_counters(hub: &telemetry::MetricsHub) -> (u64, u64) {
        let mut churn = 0;
        let mut turnover = 0;
        for s in hub.snapshot() {
            if let telemetry::MetricValue::Counter(v) = s.value {
                match s.name.as_str() {
                    "policy_rank_churn_total" => churn = v,
                    "policy_hot_set_turnover_total" => turnover = v,
                    _ => {}
                }
            }
        }
        (churn, turnover)
    }

    #[test]
    fn probe_counts_rank_churn_and_hot_set_turnover() {
        let hub = telemetry::MetricsHub::new();
        let mut probe = PolicyProbe::new(&hub, PolicyKind::Sieve);
        let mut sys = Stub {
            ranking: vec![(0, D, 4.0), (1, D, 3.0), (2, A, 2.0), (3, A, 1.0)],
        };

        // First observation only primes the baseline: no deltas yet.
        probe.observe(&sys);
        assert_eq!(probe_counters(&hub), (0, 0));

        // Identical ranking: still no churn, no turnover.
        probe.observe(&sys);
        assert_eq!(probe_counters(&hub), (0, 0));

        // Pages 0 and 1 trade places: two positional moves, and the
        // top-quarter hot set flips from {0} to {1} (turnover 2).
        sys.ranking = vec![(1, D, 4.0), (0, D, 3.0), (2, A, 2.0), (3, A, 1.0)];
        probe.observe(&sys);
        let (churn, turnover) = probe_counters(&hub);
        assert_eq!(churn, 2);
        assert_eq!(turnover, 2);

        // Gauges mirror the stub's live stats.
        let snap = hub.snapshot();
        let signals = snap
            .iter()
            .find(|s| s.name == "policy_signals_total")
            .expect("signals gauge registered");
        assert_eq!(signals.value, telemetry::MetricValue::Gauge(7.0));
        assert_eq!(
            signals.labels,
            vec![("policy".to_string(), "sieve".to_string())]
        );
    }

    #[test]
    fn probe_is_inert_for_policy_free_systems() {
        let hub = telemetry::MetricsHub::new();
        let mut probe = PolicyProbe::new(&hub, PolicyKind::Clock);
        let s = crate::StaticPlacement;
        probe.observe(&s);
        probe.observe(&s);
        assert_eq!(probe_counters(&hub), (0, 0));
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(PolicyKind::from_name("nope"), None);
    }

    #[test]
    fn every_policy_tracks_inserted_pages_exactly() {
        for kind in PolicyKind::ALL {
            let mut p = build(kind);
            for vpn in 0..16u64 {
                p.insert(vpn, if vpn % 2 == 0 { D } else { A });
            }
            assert_eq!(p.tracked_len(), 16, "{kind:?}");
            p.remove(3);
            p.remove(3); // double remove is a no-op
            assert_eq!(p.tracked_len(), 15, "{kind:?}");
            assert_eq!(p.tier_of(3), None, "{kind:?}");
            assert_eq!(p.tier_of(4), Some(D), "{kind:?}");
            p.move_tier(4, A);
            assert_eq!(p.tier_of(4), Some(A), "{kind:?}");
            let mut tracked = p.tracked();
            tracked.sort_unstable();
            let expect: Vec<Vpn> = (0..16).filter(|&v| v != 3).collect();
            assert_eq!(tracked, expect, "{kind:?}");
        }
    }

    #[test]
    fn heat_rises_with_access_and_stays_finite() {
        for kind in PolicyKind::ALL {
            let mut p = build(kind);
            p.insert(0, D);
            p.insert(1, D);
            let cold = p.heat_of(1);
            for _ in 0..8 {
                p.record_access(0);
            }
            let hot = p.heat_of(0);
            assert!(hot.is_finite() && hot >= 0.0, "{kind:?}");
            assert!(cold.is_finite() && cold >= 0.0, "{kind:?}");
            assert!(hot > cold, "{kind:?}: hot {hot} vs cold {cold}");
            assert_eq!(p.heat_of(999), 0.0, "{kind:?}: untracked heat");
        }
    }

    #[test]
    fn ranked_puts_hot_pages_first_and_victims_cold_first() {
        for kind in PolicyKind::ALL {
            let mut p = build(kind);
            for vpn in 0..8u64 {
                p.insert(vpn, D);
            }
            for _ in 0..6 {
                p.record_access(5);
            }
            p.end_quantum();
            for _ in 0..6 {
                p.record_access(5);
            }
            let ranked = p.ranked(D);
            assert_eq!(ranked.len(), 8, "{kind:?}");
            assert_eq!(ranked[0], 5, "{kind:?}: hottest first, got {ranked:?}");
            let victims = p.victims(D, 3);
            assert_eq!(victims.len(), 3, "{kind:?}");
            assert!(
                !victims.contains(&5),
                "{kind:?}: hot page among victims {victims:?}"
            );
        }
    }

    #[test]
    fn swap_preserves_page_set_and_relative_order() {
        for from in PolicyKind::ALL {
            for to in PolicyKind::ALL {
                let mut p = build(from);
                for vpn in 0..32u64 {
                    p.insert(vpn, if vpn < 16 { D } else { A });
                }
                for round in 0..4 {
                    for _ in 0..4 {
                        p.record_access(7);
                        p.record_access(23);
                    }
                    if round == 0 {
                        p.record_access(1);
                    }
                    p.end_quantum();
                }
                let (old, seeded) = swap_boxed(&mut p, to, 2, vec![0..64]);
                assert_eq!(old, from);
                assert_eq!(seeded, 32);
                assert_eq!(p.kind(), to);
                assert_eq!(p.tracked_len(), 32, "{from:?} -> {to:?}");
                assert_eq!(p.tier_of(7), Some(D), "{from:?} -> {to:?}");
                assert_eq!(p.tier_of(23), Some(A), "{from:?} -> {to:?}");
                // The hottest page survives the migration hotter than a
                // never-touched one.
                assert!(
                    p.heat_of(7) >= p.heat_of(9),
                    "{from:?} -> {to:?}: {} < {}",
                    p.heat_of(7),
                    p.heat_of(9)
                );
                assert_eq!(p.stats().seeded, 32);
            }
        }
    }

    #[test]
    fn sieve_scan_resistance_vs_lru() {
        // A one-shot sequential sweep: LRU declares swept pages hot
        // (they are the most recent), SIEVE's streak gate does not.
        let mut lru = build(PolicyKind::Lru);
        let mut sieve = build(PolicyKind::Sieve);
        for p in [&mut lru, &mut sieve] {
            for vpn in 0..32u64 {
                p.insert(vpn, D);
            }
            // Established hot page over several epochs.
            for _ in 0..3 {
                for _ in 0..4 {
                    p.record_access(0);
                }
                p.end_quantum();
            }
            // The scan epoch.
            for vpn in 16..32 {
                p.record_access(vpn);
            }
            p.end_quantum();
        }
        assert!(lru.is_hot(20), "LRU is fooled by the scan");
        assert!(!sieve.is_hot(20), "SIEVE must not promote scanned pages");
        assert!(sieve.is_hot(0), "SIEVE keeps the real hot page");
    }

    #[test]
    fn clock_second_chance_clears_bits_before_evicting() {
        let mut c = Clock::new();
        for vpn in 0..4u64 {
            c.insert(vpn, D);
            c.record_access(vpn);
        }
        // All referenced: the first sweep clears, the second evicts in
        // order — so a single call still produces victims.
        let v = c.victims(D, 2);
        assert_eq!(v, vec![0, 1]);
        // Page 2's bit was cleared by the sweep; re-reference it.
        c.record_access(2);
        let v = c.victims(D, 1);
        assert_eq!(v, vec![3], "unreferenced page 3 goes before page 2");
    }

    #[test]
    fn lru_list_order_is_exact() {
        let mut l = Lru::new();
        for vpn in 0..4u64 {
            l.insert(vpn, D);
        }
        l.record_access(2);
        l.record_access(0);
        l.record_access(3);
        // MRU -> LRU: 3, 0, 2, then never-touched 1.
        assert_eq!(l.ranked(D), vec![3, 0, 2, 1]);
        assert_eq!(l.victims(D, 2), vec![1, 2]);
        l.remove(0);
        assert_eq!(l.ranked(D), vec![3, 2, 1]);
    }

    #[test]
    fn freq_bins_matches_hemem_tracking() {
        let mut f = FreqBins::new(2, vec![0..8]);
        for vpn in 0..8u64 {
            f.insert(vpn, D);
        }
        for _ in 0..5 {
            f.record_access(3);
        }
        assert_eq!(f.tracker.count(3), 5);
        assert_eq!(f.heat_of(3), 5.0);
        assert!(f.is_hot(3));
        assert!(!f.is_hot(4));
        assert_eq!(f.ranked(D)[0], 3);
        // Cold victims come from bin 0 (never-sampled pages first).
        let v = f.victims(D, 3);
        assert!(!v.contains(&3));
    }

    #[test]
    fn heat_total_sums_in_ascending_vpn_order() {
        // LRU (`stamp / clock`) and time-to-fault (`1 / ttf`) heats are
        // not exactly representable, so their sum depends on the order it
        // is taken in. Each fresh policy gets a freshly keyed hash map.
        // `FreqBins` returns its tracker's running total instead, which
        // its coolings and removes must keep equal to the sum.
        for kind in [
            PolicyKind::Lru,
            PolicyKind::TimeToFault,
            PolicyKind::FreqBins,
        ] {
            let run = || {
                let mut p = build(kind);
                for vpn in (0..64u64).rev() {
                    p.insert(vpn, if vpn % 3 == 0 { A } else { D });
                }
                for i in 0..500u64 {
                    let vpn = (i * 37 + i * i) % 64;
                    if i % 5 == 0 {
                        p.record_fault(vpn, 1_000.0 + (i * 7_919 % 100_000) as f64);
                    } else {
                        p.record_access(vpn);
                    }
                    if i % 100 == 99 {
                        p.remove(vpn);
                    }
                }
                p
            };
            let p = run();
            if kind == PolicyKind::FreqBins {
                assert!(p.stats().epochs > 0, "the stream must cool FreqBins");
            }
            let tracked = p.tracked();
            assert!(
                tracked.windows(2).all(|w| w[0] < w[1]),
                "{kind:?}: tracked() not ascending"
            );
            // Removed pages read 0.0, so the sum over every page is the
            // sum over the tracked ones.
            let ascending: f64 = (0..64).map(|v| p.heat_of(v)).sum();
            assert_eq!(p.heat_total().to_bits(), ascending.to_bits(), "{kind:?}");
            assert_eq!(
                run().heat_total().to_bits(),
                ascending.to_bits(),
                "{kind:?}: same op stream, different total"
            );
        }
    }

    #[test]
    fn time_to_fault_inverts_heat() {
        let mut t = TimeToFault::new();
        t.insert(0, D);
        t.insert(1, D);
        t.record_fault(0, 1_000.0);
        t.record_fault(1, 1_000_000.0);
        assert!(t.heat_of(0) > t.heat_of(1));
        assert!(t.is_hot(0));
        assert!(!t.is_hot(1));
        assert_eq!(t.ranked(D), vec![0, 1]);
        assert_eq!(t.victims(D, 1), vec![1]);
    }

    #[test]
    fn export_ranking_is_hottest_first_and_deterministic() {
        for kind in PolicyKind::ALL {
            let mut p = build(kind);
            for vpn in 0..8u64 {
                p.insert(vpn, D);
            }
            for _ in 0..4 {
                p.record_access(6);
            }
            let r = p.export_ranking();
            assert_eq!(r.len(), 8, "{kind:?}");
            assert_eq!(r[0].0, 6, "{kind:?}: {r:?}");
            assert!(
                r.windows(2).all(|w| w[0].2 >= w[1].2),
                "{kind:?}: not sorted {r:?}"
            );
        }
    }
}
