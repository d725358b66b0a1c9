//! Fault injection: perturbs what the control software *observes*, and —
//! for hard faults — what the hardware can still do.
//!
//! The paper's argument is that Colloid is robust where hotness-based
//! policies are fragile — but a reproduction that only ever feeds the
//! controllers perfect CHA counters and an infallible migration engine
//! cannot test that claim. [`FaultPlan`] (configured via
//! [`crate::MachineConfig::faults`]) injects the failure modes a real
//! tiered-memory node exhibits:
//!
//! - **Counter noise / staleness / dropped windows** — uncore PMU reads
//!   race the counters they sample; a busy PMU driver returns the previous
//!   window or zeros. Modeled as multiplicative noise on the reported
//!   [`crate::TierWindow`]s, replaying the previous tick's window, or
//!   zeroing a window outright. The machine's internal counters stay
//!   exact: only the [`crate::TickReport`] the tiering system sees is
//!   perturbed, and `TickReport::true_latency_ns` remains ground truth.
//! - **Transient migration failures** — page migration is a failable
//!   transaction (refcount pinning, concurrent unmaps): a queued migration
//!   aborts with probability [`FaultPlan::migration_fail_prob`] when a
//!   channel picks it up, in either engine mode. The reserved destination
//!   frame is released and the failure reported in
//!   `TickReport::failed_migrations` so tiering systems can retry.
//! - **Migration-bandwidth degradation phases** — the kernel copy path
//!   competes with other work; during a [`BandwidthPhase`] every channel
//!   of the migration engine is paced at `factor ×` the configured
//!   bandwidth. A phase with
//!   `end: None` never lifts: a **permanent bandwidth collapse** (link
//!   retrained at a lower width, persistent thermal throttling).
//! - **PEBS sample loss** — the sampling buffer overflows under load;
//!   each sample is dropped with probability [`FaultPlan::pebs_loss_prob`].
//! - **Write-conflict storms** ([`WriteConflictStorm`]) — deterministic
//!   bursts of application writes aimed at pages whose copy is in flight:
//!   while the window is active, validating a copy transaction on a
//!   "write-hot" page (a hash-selected subset of the address space) fails
//!   for the transaction's first `dirties_per_txn` passes, driving the
//!   transactional mode's dirty-retry and abort paths. Ignored by the
//!   exclusive mode, which never validates.
//! - **Channel stalls** ([`ChannelStall`]) — one DMA channel of the
//!   transactional mode stops making copy progress during the window;
//!   the watchdog fails in-flight transactions over to a healthy channel
//!   (or aborts them when none exists). Ignored by the exclusive mode,
//!   which models a single wedgeable copy thread via [`EngineOutage`]
//!   instead.
//!
//! The *hard* faults model terminal conditions rather than observation
//! noise:
//!
//! - **Tier capacity loss** ([`TierShrink`]) — at time `at`, frames above
//!   `new_frames` become permanently unusable (DIMM ECC retirement, a CXL
//!   device offlining media). Resident pages above the new capacity are
//!   force-evacuated by the machine to any tier with free frames and
//!   surfaced in `TickReport::evacuated` so tiering systems can re-sync
//!   their metadata.
//! - **Migration-engine outage** ([`EngineOutage`]) — during the window
//!   every migration the engine picks up aborts (and still burns engine
//!   time, as a wedged copy thread would), reported both in
//!   `failed_migrations` and the `engine_outage_aborts` counter.
//!
//! All probabilistic faults are deterministic: the injector draws from a
//! dedicated RNG stream derived from `MachineConfig::seed`, so the same
//! seed + plan yields identical `TickReport` streams. Hard faults are
//! purely time-driven and never touch the RNG. With every probability at
//! zero and no phases/shrinks/outages, the injector draws nothing and
//! perturbs nothing — runs are bit-identical to a machine without fault
//! injection.

use rand::rngs::SmallRng;
use rand::Rng;
use simkit::rng::seed_from;
use simkit::SimTime;

use crate::cha::TierWindow;
use crate::request::{TierId, Vpn};

/// RNG stream id reserved for fault injection (cores use 0, 1, 2, …).
const FAULT_RNG_STREAM: u64 = 0xFA17_0000_0000_0001;

/// One migration-bandwidth degradation window.
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthPhase {
    /// Phase start (inclusive, simulated time).
    pub start: SimTime,
    /// Phase end (exclusive); `None` means the degradation is permanent
    /// (a hard bandwidth collapse that never lifts).
    pub end: Option<SimTime>,
    /// Multiplier on `MachineConfig::migration_bandwidth` while active;
    /// must be in `(0, 1]`.
    pub factor: f64,
}

/// A permanent tier capacity loss: at `at`, the tier's usable capacity
/// drops to `new_frames` pages and never recovers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierShrink {
    /// The tier losing frames.
    pub tier: TierId,
    /// When the capacity loss takes effect (applied at the start of the
    /// first tick at or after this time).
    pub at: SimTime,
    /// The tier's new capacity in pages; must be ≥ 1 and strictly smaller
    /// than the previous capacity.
    pub new_frames: u64,
}

/// A migration-engine outage window: every migration started in
/// `[start, end)` aborts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOutage {
    /// Outage start (inclusive).
    pub start: SimTime,
    /// Outage end (exclusive); must be after `start`.
    pub end: SimTime,
}

/// A deterministic burst of application writes targeted at in-flight
/// pages: while `[start, end)` is active, validating a copy transaction on
/// a write-hot page fails (the transaction re-copies or aborts). Hotness
/// is a pure hash of the page number, so the same plan always storms the
/// same pages — no RNG draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteConflictStorm {
    /// Storm start (inclusive).
    pub start: SimTime,
    /// Storm end (exclusive); must be after `start`.
    pub end: SimTime,
    /// Fraction of the page-number space treated as write-hot; must be in
    /// `(0, 1]`.
    pub hot_fraction: f64,
    /// How many consecutive validation passes of one transaction the storm
    /// dirties; must be ≥ 1. A value above the engine's `dirty_retry_max`
    /// forces the abort path, a smaller one exercises retry-then-commit.
    pub dirties_per_txn: u32,
}

impl WriteConflictStorm {
    /// Whether `vpn` is in this storm's write-hot subset (stateless hash).
    pub fn is_hot(&self, vpn: Vpn) -> bool {
        let mut x = vpn.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        (x % 1000) < (self.hot_fraction * 1000.0).round() as u64
    }
}

/// A DMA-channel stall window: channel `channel` of the migration engine
/// makes no copy progress in `[start, end)`. The exclusive mode ignores
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelStall {
    /// The stalled channel (must be below the engine's channel count;
    /// checked when the machine is built).
    pub channel: u32,
    /// Stall start (inclusive).
    pub start: SimTime,
    /// Stall end (exclusive); must be after `start`.
    pub end: SimTime,
}

/// What to inject. The default plan injects nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Amplitude of multiplicative noise on reported CHA windows: each
    /// reported occupancy and arrival rate is scaled by `1 + a·u` with `u`
    /// uniform in `[-1, 1]`. `0` disables.
    pub counter_noise: f64,
    /// Probability that a tier's reported window is replaced by the
    /// previous tick's reported window (stale PMU read).
    pub counter_stale_prob: f64,
    /// Probability that a tier's reported window is zeroed (dropped PMU
    /// read). Checked after staleness.
    pub counter_drop_prob: f64,
    /// Probability that a queued migration aborts when a channel starts it
    /// (transient migration failure), in either engine mode.
    pub migration_fail_prob: f64,
    /// Probability that a captured PEBS sample is lost before the tiering
    /// system sees it.
    pub pebs_loss_prob: f64,
    /// Migration-bandwidth degradation phases (may overlap; the smallest
    /// active factor wins).
    pub bandwidth_phases: Vec<BandwidthPhase>,
    /// Permanent tier capacity losses (hard fault).
    pub tier_shrinks: Vec<TierShrink>,
    /// Migration-engine outage windows (hard fault); must not overlap.
    pub engine_outages: Vec<EngineOutage>,
    /// Write-conflict storms against in-flight copy transactions. The
    /// exclusive mode has nothing for them to dirty, so
    /// [`Machine::new`](crate::Machine::new) drops them from its plan.
    pub write_conflict_storms: Vec<WriteConflictStorm>,
    /// DMA-channel stall windows; windows on the same channel must not
    /// overlap. The exclusive mode ignores stalls, so
    /// [`Machine::new`](crate::Machine::new) drops them from its plan.
    pub channel_stalls: Vec<ChannelStall>,
}

impl FaultPlan {
    /// A plan that injects nothing (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether any fault is configured at all. A machine's own plan
    /// (`Machine::config().faults`) holds only the faults its engine mode
    /// honours, so there this says whether the machine injects anything.
    pub fn is_active(&self) -> bool {
        self.counter_noise > 0.0
            || self.counter_stale_prob > 0.0
            || self.counter_drop_prob > 0.0
            || self.migration_fail_prob > 0.0
            || self.pebs_loss_prob > 0.0
            || !self.bandwidth_phases.is_empty()
            || !self.write_conflict_storms.is_empty()
            || !self.channel_stalls.is_empty()
            || self.has_hard_faults()
    }

    /// Whether any *hard* (terminal) fault is configured: a tier shrink,
    /// an engine outage, or a permanent bandwidth collapse.
    pub fn has_hard_faults(&self) -> bool {
        !self.tier_shrinks.is_empty()
            || !self.engine_outages.is_empty()
            || self.bandwidth_phases.iter().any(|p| p.end.is_none())
    }

    /// Whether any counter-observation fault is configured.
    fn perturbs_counters(&self) -> bool {
        self.counter_noise > 0.0 || self.counter_stale_prob > 0.0 || self.counter_drop_prob > 0.0
    }

    /// Validates probabilities, phases, and hard-fault plans.
    pub fn validate(&self) -> Result<(), String> {
        let probs = [
            ("counter_stale_prob", self.counter_stale_prob),
            ("counter_drop_prob", self.counter_drop_prob),
            ("migration_fail_prob", self.migration_fail_prob),
            ("pebs_loss_prob", self.pebs_loss_prob),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(format!("{name} must be in [0, 1], got {p}"));
            }
        }
        if !(0.0..=1.0).contains(&self.counter_noise) || self.counter_noise.is_nan() {
            return Err(format!(
                "counter_noise must be in [0, 1], got {}",
                self.counter_noise
            ));
        }
        for (i, ph) in self.bandwidth_phases.iter().enumerate() {
            if let Some(end) = ph.end {
                if end <= ph.start {
                    return Err(format!("bandwidth_phases[{i}]: end <= start"));
                }
            }
            if !(ph.factor > 0.0 && ph.factor <= 1.0) {
                return Err(format!(
                    "bandwidth_phases[{i}]: factor must be in (0, 1], got {}",
                    ph.factor
                ));
            }
        }
        for (i, s) in self.tier_shrinks.iter().enumerate() {
            if s.new_frames == 0 {
                return Err(format!(
                    "tier_shrinks[{i}]: new_frames must be >= 1 (a tier cannot shrink \
                     to zero frames; remove the tier from the config instead)"
                ));
            }
        }
        // Same-tier shrinks must be consistent: a later shrink cannot
        // *grow* the tier back (capacity loss is permanent by definition).
        let mut sorted: Vec<&TierShrink> = self.tier_shrinks.iter().collect();
        sorted.sort_by_key(|s| (s.tier.index(), s.at));
        for w in sorted.windows(2) {
            if w[0].tier == w[1].tier {
                if w[0].at == w[1].at {
                    return Err(format!(
                        "tier_shrinks: two shrinks of tier {} at the same time {:?}; \
                         merge them into one",
                        w[0].tier.index(),
                        w[0].at
                    ));
                }
                if w[1].new_frames >= w[0].new_frames {
                    return Err(format!(
                        "tier_shrinks: tier {} shrinks to {} frames at {:?} but a later \
                         shrink at {:?} sets {} frames; capacity loss is permanent, so \
                         later shrinks must be strictly smaller",
                        w[0].tier.index(),
                        w[0].new_frames,
                        w[0].at,
                        w[1].at,
                        w[1].new_frames
                    ));
                }
            }
        }
        let mut outages: Vec<&EngineOutage> = self.engine_outages.iter().collect();
        outages.sort_by_key(|o| o.start);
        for (i, o) in outages.iter().enumerate() {
            if o.end <= o.start {
                return Err(format!(
                    "engine_outages: window starting at {:?} has end {:?} <= start",
                    o.start, o.end
                ));
            }
            if i > 0 && o.start < outages[i - 1].end {
                return Err(format!(
                    "engine_outages: window [{:?}, {:?}) overlaps the window ending at \
                     {:?}; merge overlapping outages into one window",
                    o.start,
                    o.end,
                    outages[i - 1].end
                ));
            }
        }
        for (i, s) in self.write_conflict_storms.iter().enumerate() {
            if s.end <= s.start {
                return Err(format!("write_conflict_storms[{i}]: end <= start"));
            }
            if !(s.hot_fraction > 0.0 && s.hot_fraction <= 1.0) {
                return Err(format!(
                    "write_conflict_storms[{i}]: hot_fraction must be in (0, 1], got {}",
                    s.hot_fraction
                ));
            }
            if s.dirties_per_txn == 0 {
                return Err(format!(
                    "write_conflict_storms[{i}]: dirties_per_txn must be >= 1 \
                     (a storm that never dirties is a no-op; remove it instead)"
                ));
            }
        }
        let mut stalls: Vec<&ChannelStall> = self.channel_stalls.iter().collect();
        stalls.sort_by_key(|s| (s.channel, s.start));
        for (i, s) in stalls.iter().enumerate() {
            if s.end <= s.start {
                return Err(format!(
                    "channel_stalls: window on channel {} starting at {:?} has end <= start",
                    s.channel, s.start
                ));
            }
            if i > 0 && stalls[i - 1].channel == s.channel && s.start < stalls[i - 1].end {
                return Err(format!(
                    "channel_stalls: overlapping windows on channel {}; merge them into one",
                    s.channel
                ));
            }
        }
        Ok(())
    }

    /// The highest channel index named by a [`ChannelStall`], if any (the
    /// machine checks it against the engine's channel count).
    pub fn max_stalled_channel(&self) -> Option<u32> {
        self.channel_stalls.iter().map(|s| s.channel).max()
    }

    /// The bandwidth multiplier active at `t` (1.0 outside all phases).
    pub fn bandwidth_factor(&self, t: SimTime) -> f64 {
        let mut f = 1.0;
        for ph in &self.bandwidth_phases {
            if t >= ph.start && ph.end.is_none_or(|end| t < end) && ph.factor < f {
                f = ph.factor;
            }
        }
        f
    }

    /// Whether a migration-engine outage is active at `t`.
    pub fn engine_outage_at(&self, t: SimTime) -> bool {
        self.engine_outages
            .iter()
            .any(|o| t >= o.start && t < o.end)
    }
}

/// Per-tick fault counters, reported in [`crate::TickReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Migrations aborted by injected transient failures this tick
    /// (includes engine-outage aborts).
    pub migration_failures: u64,
    /// Reported tier windows replaced by the previous tick's window.
    pub windows_stale: u64,
    /// Reported tier windows zeroed.
    pub windows_dropped: u64,
    /// Reported tier windows with multiplicative noise applied.
    pub windows_noisy: u64,
    /// PEBS samples lost.
    pub pebs_dropped: u64,
    /// Pages force-evacuated by tier shrinks this tick.
    pub pages_evacuated: u64,
    /// Migrations aborted because the engine was in an outage window
    /// (also counted in `migration_failures`).
    pub engine_outage_aborts: u64,
    /// Copy-transaction validations forced dirty by a write-conflict storm
    /// this tick.
    pub storm_dirties: u64,
}

impl FaultStats {
    /// Accumulates `other` into `self` (for run-level totals).
    pub fn absorb(&mut self, other: &FaultStats) {
        self.migration_failures += other.migration_failures;
        self.windows_stale += other.windows_stale;
        self.windows_dropped += other.windows_dropped;
        self.windows_noisy += other.windows_noisy;
        self.pebs_dropped += other.pebs_dropped;
        self.pages_evacuated += other.pages_evacuated;
        self.engine_outage_aborts += other.engine_outage_aborts;
        self.storm_dirties += other.storm_dirties;
    }

    /// Total number of injected events (outage aborts are already part of
    /// `migration_failures`).
    pub fn total(&self) -> u64 {
        self.migration_failures
            + self.windows_stale
            + self.windows_dropped
            + self.windows_noisy
            + self.pebs_dropped
            + self.pages_evacuated
            + self.storm_dirties
    }
}

/// Runtime state of fault injection inside a machine: the plan, a
/// dedicated RNG stream, per-tick counters, and the last reported windows
/// (for staleness).
#[derive(Debug, Clone)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    rng: SmallRng,
    tick_stats: FaultStats,
    last_reported: Vec<Option<TierWindow>>,
    /// Tier shrinks sorted by activation time; `shrink_cursor` indexes the
    /// next not-yet-applied entry.
    shrinks: Vec<TierShrink>,
    shrink_cursor: usize,
}

impl FaultInjector {
    pub(crate) fn new(plan: FaultPlan, seed: u64, n_tiers: usize) -> Self {
        if let Err(e) = plan.validate() {
            panic!("invalid FaultPlan: {e}");
        }
        for s in &plan.tier_shrinks {
            assert!(
                s.tier.index() < n_tiers,
                "invalid FaultPlan: tier_shrinks names tier {} but the machine has {n_tiers} tiers",
                s.tier.index()
            );
        }
        let mut shrinks = plan.tier_shrinks.clone();
        shrinks.sort_by_key(|s| (s.at, s.tier.index()));
        FaultInjector {
            plan,
            rng: seed_from(seed, FAULT_RNG_STREAM),
            tick_stats: FaultStats::default(),
            last_reported: vec![None; n_tiers],
            shrinks,
            shrink_cursor: 0,
        }
    }

    /// Read-only view of the plan (for feasibility checks against machine
    /// state the plan cannot see, e.g. pinned pages).
    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether the migration the engine is about to start should abort.
    /// Never draws when the probability is zero.
    pub(crate) fn migration_aborts(&mut self) -> bool {
        if self.plan.migration_fail_prob <= 0.0 {
            return false;
        }
        if self.rng.gen_bool(self.plan.migration_fail_prob) {
            self.tick_stats.migration_failures += 1;
            true
        } else {
            false
        }
    }

    /// Whether the migration the engine is about to start at `t` falls in
    /// an engine-outage window. Purely time-driven: no RNG draw.
    pub(crate) fn outage_aborts(&mut self, t: SimTime) -> bool {
        if self.plan.engine_outages.is_empty() || !self.plan.engine_outage_at(t) {
            return false;
        }
        self.tick_stats.migration_failures += 1;
        self.tick_stats.engine_outage_aborts += 1;
        true
    }

    /// Whether validation of the copy transaction on `vpn` — running its
    /// `attempt`-th copy pass (1-based) — is forced dirty by a storm
    /// active at `t`. Purely time- and hash-driven: no RNG draw.
    pub(crate) fn storm_dirties(&mut self, vpn: Vpn, attempt: u32, t: SimTime) -> bool {
        for s in &self.plan.write_conflict_storms {
            if t >= s.start && t < s.end && attempt <= s.dirties_per_txn && s.is_hot(vpn) {
                self.tick_stats.storm_dirties += 1;
                return true;
            }
        }
        false
    }

    /// The end of the stall window covering `channel` at `t`, if any.
    /// Purely time-driven: no RNG draw.
    pub(crate) fn channel_stalled_until(&self, channel: u32, t: SimTime) -> Option<SimTime> {
        self.plan
            .channel_stalls
            .iter()
            .filter(|s| s.channel == channel && t >= s.start && t < s.end)
            .map(|s| s.end)
            .max()
    }

    /// Tier shrinks that become due at or before `t` and have not been
    /// handed out yet. Purely time-driven: no RNG draw.
    pub(crate) fn due_shrinks(&mut self, t: SimTime) -> Vec<TierShrink> {
        if self.shrink_cursor >= self.shrinks.len() {
            return Vec::new();
        }
        let mut due = Vec::new();
        while self.shrink_cursor < self.shrinks.len() && self.shrinks[self.shrink_cursor].at <= t {
            due.push(self.shrinks[self.shrink_cursor]);
            self.shrink_cursor += 1;
        }
        due
    }

    /// Records `n` pages force-evacuated by a tier shrink this tick.
    pub(crate) fn note_evacuated(&mut self, n: u64) {
        self.tick_stats.pages_evacuated += n;
    }

    /// Whether the PEBS sample about to be buffered should be lost.
    pub(crate) fn pebs_sample_lost(&mut self) -> bool {
        if self.plan.pebs_loss_prob <= 0.0 {
            return false;
        }
        if self.rng.gen_bool(self.plan.pebs_loss_prob) {
            self.tick_stats.pebs_dropped += 1;
            true
        } else {
            false
        }
    }

    /// Effective migration bandwidth at `t` given the configured base.
    pub(crate) fn migration_bandwidth_at(&self, base: f64, t: SimTime) -> f64 {
        if self.plan.bandwidth_phases.is_empty() {
            base
        } else {
            base * self.plan.bandwidth_factor(t)
        }
    }

    /// Perturbs the reported tier windows for one tick. The input windows
    /// are the exact measurements; the return value is what the control
    /// software sees. Identity when no counter fault is configured.
    pub(crate) fn perturb_windows(&mut self, windows: Vec<TierWindow>) -> Vec<TierWindow> {
        if !self.plan.perturbs_counters() {
            return windows;
        }
        let reported: Vec<TierWindow> = windows
            .into_iter()
            .enumerate()
            .map(|(i, w)| self.perturb_one(i, w))
            .collect();
        for (slot, w) in self.last_reported.iter_mut().zip(reported.iter()) {
            *slot = Some(*w);
        }
        reported
    }

    fn perturb_one(&mut self, tier: usize, w: TierWindow) -> TierWindow {
        // Stale read: replay the previous reported window.
        if self.plan.counter_stale_prob > 0.0 && self.rng.gen_bool(self.plan.counter_stale_prob) {
            if let Some(prev) = self.last_reported[tier] {
                self.tick_stats.windows_stale += 1;
                return prev;
            }
        }
        // Dropped read: all counters come back zero.
        if self.plan.counter_drop_prob > 0.0 && self.rng.gen_bool(self.plan.counter_drop_prob) {
            self.tick_stats.windows_dropped += 1;
            return TierWindow {
                occupancy: 0.0,
                arrivals: 0,
                rate_per_ns: 0.0,
                bytes_by_class: [0; crate::TrafficClass::COUNT],
            };
        }
        // Multiplicative noise on occupancy and rate (arrivals scale with
        // the rate so Little's-Law consumers see a consistent pair).
        if self.plan.counter_noise > 0.0 {
            self.tick_stats.windows_noisy += 1;
            let a = self.plan.counter_noise;
            let occ_scale = 1.0 + a * (self.rng.gen::<f64>() * 2.0 - 1.0);
            let rate_scale = 1.0 + a * (self.rng.gen::<f64>() * 2.0 - 1.0);
            return TierWindow {
                occupancy: (w.occupancy * occ_scale).max(0.0),
                arrivals: (w.arrivals as f64 * rate_scale).round().max(0.0) as u64,
                rate_per_ns: (w.rate_per_ns * rate_scale).max(0.0),
                bytes_by_class: w.bytes_by_class,
            };
        }
        w
    }

    /// Drains the per-tick counters. (The per-page failed-migration list —
    /// with typed abort reasons — is kept by the machine, which sees every
    /// abort path including the transactional ones the injector cannot.)
    pub(crate) fn take_tick(&mut self) -> FaultStats {
        std::mem::take(&mut self.tick_stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(occ: f64, arrivals: u64, rate: f64) -> TierWindow {
        TierWindow {
            occupancy: occ,
            arrivals,
            rate_per_ns: rate,
            bytes_by_class: [0; crate::TrafficClass::COUNT],
        }
    }

    #[test]
    fn inactive_plan_is_identity_and_draws_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::none(), 7, 2);
        let rng_before = format!("{:?}", inj.rng);
        assert!(!inj.migration_aborts());
        assert!(!inj.outage_aborts(SimTime::from_us(5.0)));
        assert!(!inj.pebs_sample_lost());
        assert!(!inj.storm_dirties(1, 1, SimTime::from_us(5.0)));
        assert!(inj
            .channel_stalled_until(0, SimTime::from_us(5.0))
            .is_none());
        assert!(inj.due_shrinks(SimTime::from_ms(100.0)).is_empty());
        let ws = vec![window(1.5, 10, 0.01), window(0.0, 0, 0.0)];
        let out = inj.perturb_windows(ws.clone());
        assert_eq!(out[0].occupancy, ws[0].occupancy);
        assert_eq!(out[0].arrivals, ws[0].arrivals);
        assert_eq!(
            inj.migration_bandwidth_at(2.4e9, SimTime::from_us(5.0)),
            2.4e9
        );
        // No RNG draws happened: state unchanged.
        assert_eq!(format!("{:?}", inj.rng), rng_before);
        assert_eq!(inj.take_tick(), FaultStats::default());
    }

    #[test]
    fn migration_failures_are_counted_and_reported() {
        let plan = FaultPlan {
            migration_fail_prob: 1.0,
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan, 7, 2);
        assert!(inj.migration_aborts());
        let stats = inj.take_tick();
        assert_eq!(stats.migration_failures, 1);
        // Drained: next tick starts clean.
        assert_eq!(inj.take_tick().migration_failures, 0);
    }

    #[test]
    fn dropped_windows_are_zeroed() {
        let plan = FaultPlan {
            counter_drop_prob: 1.0,
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan, 7, 1);
        let out = inj.perturb_windows(vec![window(3.0, 100, 0.5)]);
        assert_eq!(out[0].occupancy, 0.0);
        assert_eq!(out[0].arrivals, 0);
        assert!(out[0].littles_latency_ns().is_none());
        assert_eq!(inj.take_tick().windows_dropped, 1);
    }

    #[test]
    fn stale_windows_replay_previous_report() {
        let plan = FaultPlan {
            counter_stale_prob: 1.0,
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan, 7, 1);
        // First tick: no previous window exists, so the real one passes
        // through (and is remembered).
        let first = inj.perturb_windows(vec![window(3.0, 100, 0.5)]);
        assert_eq!(first[0].arrivals, 100);
        // Second tick: replay of tick one, not the new measurement.
        let second = inj.perturb_windows(vec![window(9.0, 500, 2.5)]);
        assert_eq!(second[0].arrivals, 100);
        assert_eq!(second[0].occupancy, 3.0);
        assert_eq!(inj.take_tick().windows_stale, 1);
    }

    #[test]
    fn noise_stays_within_amplitude_and_nonnegative() {
        let plan = FaultPlan {
            counter_noise: 0.2,
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan, 7, 1);
        for _ in 0..200 {
            let out = inj.perturb_windows(vec![window(2.0, 100, 1.0)]);
            assert!(out[0].occupancy >= 2.0 * 0.8 - 1e-9 && out[0].occupancy <= 2.0 * 1.2 + 1e-9);
            assert!(out[0].rate_per_ns >= 0.8 - 1e-9 && out[0].rate_per_ns <= 1.2 + 1e-9);
            // Arrivals scale with the rate.
            assert!(out[0].arrivals >= 80 && out[0].arrivals <= 120);
        }
    }

    #[test]
    fn bandwidth_phases_pick_smallest_active_factor() {
        let plan = FaultPlan {
            bandwidth_phases: vec![
                BandwidthPhase {
                    start: SimTime::from_us(10.0),
                    end: Some(SimTime::from_us(20.0)),
                    factor: 0.5,
                },
                BandwidthPhase {
                    start: SimTime::from_us(15.0),
                    end: Some(SimTime::from_us(30.0)),
                    factor: 0.25,
                },
            ],
            ..FaultPlan::none()
        };
        assert_eq!(plan.bandwidth_factor(SimTime::from_us(5.0)), 1.0);
        assert_eq!(plan.bandwidth_factor(SimTime::from_us(12.0)), 0.5);
        assert_eq!(plan.bandwidth_factor(SimTime::from_us(17.0)), 0.25);
        assert_eq!(plan.bandwidth_factor(SimTime::from_us(25.0)), 0.25);
        assert_eq!(plan.bandwidth_factor(SimTime::from_us(30.0)), 1.0);
    }

    #[test]
    fn permanent_bandwidth_collapse_never_lifts() {
        let plan = FaultPlan {
            bandwidth_phases: vec![BandwidthPhase {
                start: SimTime::from_us(10.0),
                end: None,
                factor: 0.1,
            }],
            ..FaultPlan::none()
        };
        plan.validate().unwrap();
        assert!(plan.has_hard_faults());
        assert_eq!(plan.bandwidth_factor(SimTime::from_us(5.0)), 1.0);
        assert_eq!(plan.bandwidth_factor(SimTime::from_us(10.0)), 0.1);
        assert_eq!(plan.bandwidth_factor(SimTime::from_ms(1e6)), 0.1);
    }

    #[test]
    fn engine_outage_aborts_every_migration_in_window() {
        let plan = FaultPlan {
            engine_outages: vec![EngineOutage {
                start: SimTime::from_us(10.0),
                end: SimTime::from_us(20.0),
            }],
            ..FaultPlan::none()
        };
        assert!(plan.is_active() && plan.has_hard_faults());
        let mut inj = FaultInjector::new(plan, 7, 2);
        let rng_before = format!("{:?}", inj.rng);
        assert!(!inj.outage_aborts(SimTime::from_us(9.0)));
        assert!(inj.outage_aborts(SimTime::from_us(10.0)));
        assert!(inj.outage_aborts(SimTime::from_us(19.9)));
        assert!(!inj.outage_aborts(SimTime::from_us(20.0)));
        // Outage checks are time-driven: no RNG draws.
        assert_eq!(format!("{:?}", inj.rng), rng_before);
        let stats = inj.take_tick();
        assert_eq!(stats.engine_outage_aborts, 2);
        assert_eq!(stats.migration_failures, 2);
    }

    #[test]
    fn due_shrinks_hand_out_each_shrink_once_in_time_order() {
        let plan = FaultPlan {
            tier_shrinks: vec![
                TierShrink {
                    tier: TierId::DEFAULT,
                    at: SimTime::from_us(50.0),
                    new_frames: 100,
                },
                TierShrink {
                    tier: TierId::ALTERNATE,
                    at: SimTime::from_us(20.0),
                    new_frames: 500,
                },
            ],
            ..FaultPlan::none()
        };
        assert!(plan.is_active() && plan.has_hard_faults());
        let mut inj = FaultInjector::new(plan, 7, 2);
        assert!(inj.due_shrinks(SimTime::from_us(10.0)).is_empty());
        let first = inj.due_shrinks(SimTime::from_us(20.0));
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].tier, TierId::ALTERNATE);
        // Already handed out: not returned again.
        assert!(inj.due_shrinks(SimTime::from_us(30.0)).is_empty());
        let second = inj.due_shrinks(SimTime::from_us(100.0));
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].new_frames, 100);
        assert!(inj.due_shrinks(SimTime::from_ms(10.0)).is_empty());
        inj.note_evacuated(3);
        assert_eq!(inj.take_tick().pages_evacuated, 3);
    }

    #[test]
    fn storm_dirties_hot_pages_in_window_without_rng() {
        let storm = WriteConflictStorm {
            start: SimTime::from_us(10.0),
            end: SimTime::from_us(20.0),
            hot_fraction: 0.5,
            dirties_per_txn: 2,
        };
        let plan = FaultPlan {
            write_conflict_storms: vec![storm],
            ..FaultPlan::none()
        };
        plan.validate().unwrap();
        assert!(plan.is_active());
        // The hash splits a prefix of the page space roughly in half.
        let hot: Vec<Vpn> = (0..1000).filter(|&v| storm.is_hot(v)).collect();
        assert!(hot.len() > 300 && hot.len() < 700, "hot = {}", hot.len());
        let vpn = hot[0];
        let cold = (0..1000).find(|&v| !storm.is_hot(v)).unwrap();

        let mut inj = FaultInjector::new(plan, 7, 2);
        let rng_before = format!("{:?}", inj.rng);
        let mid = SimTime::from_us(15.0);
        assert!(!inj.storm_dirties(vpn, 1, SimTime::from_us(5.0)), "before");
        assert!(!inj.storm_dirties(vpn, 1, SimTime::from_us(20.0)), "after");
        assert!(!inj.storm_dirties(cold, 1, mid), "cold page");
        assert!(inj.storm_dirties(vpn, 1, mid));
        assert!(inj.storm_dirties(vpn, 2, mid));
        // Pass 3 exceeds dirties_per_txn: the transaction gets through.
        assert!(!inj.storm_dirties(vpn, 3, mid));
        assert_eq!(format!("{:?}", inj.rng), rng_before, "storm drew RNG");
        assert_eq!(inj.take_tick().storm_dirties, 2);
    }

    #[test]
    fn full_storm_dirties_every_page() {
        let storm = WriteConflictStorm {
            start: SimTime::ZERO,
            end: SimTime::from_ms(1.0),
            hot_fraction: 1.0,
            dirties_per_txn: 100,
        };
        assert!((0..512).all(|v| storm.is_hot(v)));
    }

    #[test]
    fn channel_stalls_cover_their_channel_and_window_only() {
        let plan = FaultPlan {
            channel_stalls: vec![
                ChannelStall {
                    channel: 1,
                    start: SimTime::from_us(10.0),
                    end: SimTime::from_us(20.0),
                },
                ChannelStall {
                    channel: 1,
                    start: SimTime::from_us(30.0),
                    end: SimTime::from_us(40.0),
                },
            ],
            ..FaultPlan::none()
        };
        plan.validate().unwrap();
        assert!(plan.is_active());
        assert_eq!(plan.max_stalled_channel(), Some(1));
        let inj = FaultInjector::new(plan, 7, 2);
        assert!(inj
            .channel_stalled_until(0, SimTime::from_us(15.0))
            .is_none());
        assert!(inj
            .channel_stalled_until(1, SimTime::from_us(9.0))
            .is_none());
        assert_eq!(
            inj.channel_stalled_until(1, SimTime::from_us(10.0)),
            Some(SimTime::from_us(20.0))
        );
        assert!(inj
            .channel_stalled_until(1, SimTime::from_us(20.0))
            .is_none());
        assert_eq!(
            inj.channel_stalled_until(1, SimTime::from_us(35.0)),
            Some(SimTime::from_us(40.0))
        );
    }

    #[test]
    fn validate_rejects_bad_storms_and_stalls() {
        let inverted = FaultPlan {
            write_conflict_storms: vec![WriteConflictStorm {
                start: SimTime::from_us(10.0),
                end: SimTime::from_us(10.0),
                hot_fraction: 0.5,
                dirties_per_txn: 1,
            }],
            ..FaultPlan::none()
        };
        assert!(inverted.validate().is_err());
        let cold = FaultPlan {
            write_conflict_storms: vec![WriteConflictStorm {
                start: SimTime::ZERO,
                end: SimTime::from_us(10.0),
                hot_fraction: 0.0,
                dirties_per_txn: 1,
            }],
            ..FaultPlan::none()
        };
        assert!(cold.validate().is_err());
        let noop = FaultPlan {
            write_conflict_storms: vec![WriteConflictStorm {
                start: SimTime::ZERO,
                end: SimTime::from_us(10.0),
                hot_fraction: 0.5,
                dirties_per_txn: 0,
            }],
            ..FaultPlan::none()
        };
        let err = noop.validate().unwrap_err();
        assert!(err.contains("no-op"), "unhelpful error: {err}");
        let overlap = FaultPlan {
            channel_stalls: vec![
                ChannelStall {
                    channel: 2,
                    start: SimTime::from_us(10.0),
                    end: SimTime::from_us(30.0),
                },
                ChannelStall {
                    channel: 2,
                    start: SimTime::from_us(20.0),
                    end: SimTime::from_us(40.0),
                },
            ],
            ..FaultPlan::none()
        };
        let err = overlap.validate().unwrap_err();
        assert!(err.contains("overlap"), "unhelpful error: {err}");
        // Same window on *different* channels is fine.
        let disjoint = FaultPlan {
            channel_stalls: vec![
                ChannelStall {
                    channel: 0,
                    start: SimTime::from_us(10.0),
                    end: SimTime::from_us(30.0),
                },
                ChannelStall {
                    channel: 1,
                    start: SimTime::from_us(10.0),
                    end: SimTime::from_us(30.0),
                },
            ],
            ..FaultPlan::none()
        };
        assert!(disjoint.validate().is_ok());
    }

    #[test]
    fn determinism_same_seed_same_decisions() {
        let plan = FaultPlan {
            migration_fail_prob: 0.3,
            pebs_loss_prob: 0.2,
            counter_noise: 0.1,
            ..FaultPlan::none()
        };
        let mut a = FaultInjector::new(plan.clone(), 99, 2);
        let mut b = FaultInjector::new(plan, 99, 2);
        for _ in 0..100 {
            assert_eq!(a.migration_aborts(), b.migration_aborts());
            assert_eq!(a.pebs_sample_lost(), b.pebs_sample_lost());
            let wa = a.perturb_windows(vec![window(1.0, 50, 0.5), window(2.0, 60, 0.6)]);
            let wb = b.perturb_windows(vec![window(1.0, 50, 0.5), window(2.0, 60, 0.6)]);
            assert_eq!(wa[0].occupancy, wb[0].occupancy);
            assert_eq!(wa[1].rate_per_ns, wb[1].rate_per_ns);
        }
    }

    #[test]
    fn validate_rejects_bad_plans() {
        let bad_prob = FaultPlan {
            migration_fail_prob: 1.5,
            ..FaultPlan::none()
        };
        assert!(bad_prob.validate().is_err());
        let bad_noise = FaultPlan {
            counter_noise: f64::NAN,
            ..FaultPlan::none()
        };
        assert!(bad_noise.validate().is_err());
        let bad_phase = FaultPlan {
            bandwidth_phases: vec![BandwidthPhase {
                start: SimTime::from_us(2.0),
                end: Some(SimTime::from_us(1.0)),
                factor: 0.5,
            }],
            ..FaultPlan::none()
        };
        assert!(bad_phase.validate().is_err());
        let zero_factor = FaultPlan {
            bandwidth_phases: vec![BandwidthPhase {
                start: SimTime::ZERO,
                end: Some(SimTime::from_us(1.0)),
                factor: 0.0,
            }],
            ..FaultPlan::none()
        };
        assert!(zero_factor.validate().is_err());
    }

    #[test]
    fn validate_rejects_impossible_hard_faults() {
        let zero_frames = FaultPlan {
            tier_shrinks: vec![TierShrink {
                tier: TierId::DEFAULT,
                at: SimTime::ZERO,
                new_frames: 0,
            }],
            ..FaultPlan::none()
        };
        let err = zero_frames.validate().unwrap_err();
        assert!(err.contains("new_frames"), "unhelpful error: {err}");

        let regrow = FaultPlan {
            tier_shrinks: vec![
                TierShrink {
                    tier: TierId::DEFAULT,
                    at: SimTime::from_us(10.0),
                    new_frames: 100,
                },
                TierShrink {
                    tier: TierId::DEFAULT,
                    at: SimTime::from_us(20.0),
                    new_frames: 200,
                },
            ],
            ..FaultPlan::none()
        };
        let err = regrow.validate().unwrap_err();
        assert!(err.contains("permanent"), "unhelpful error: {err}");

        let overlap = FaultPlan {
            engine_outages: vec![
                EngineOutage {
                    start: SimTime::from_us(10.0),
                    end: SimTime::from_us(30.0),
                },
                EngineOutage {
                    start: SimTime::from_us(20.0),
                    end: SimTime::from_us(40.0),
                },
            ],
            ..FaultPlan::none()
        };
        let err = overlap.validate().unwrap_err();
        assert!(err.contains("overlap"), "unhelpful error: {err}");

        let inverted = FaultPlan {
            engine_outages: vec![EngineOutage {
                start: SimTime::from_us(10.0),
                end: SimTime::from_us(10.0),
            }],
            ..FaultPlan::none()
        };
        assert!(inverted.validate().is_err());

        let unknown_tier_is_machine_checked = FaultPlan {
            tier_shrinks: vec![TierShrink {
                tier: TierId(9),
                at: SimTime::ZERO,
                new_frames: 10,
            }],
            ..FaultPlan::none()
        };
        // Plan-level validate cannot know the tier count; the injector
        // (seeded with the machine's tier count) must reject it.
        assert!(unknown_tier_is_machine_checked.validate().is_ok());
        let result =
            std::panic::catch_unwind(|| FaultInjector::new(unknown_tier_is_machine_checked, 7, 2));
        assert!(result.is_err());
    }
}
