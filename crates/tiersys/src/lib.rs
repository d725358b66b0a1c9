//! Re-implementations of the three state-of-the-art tiering systems the
//! paper integrates Colloid with (§4), against the `memsim` substrate.
//!
//! Each system exists in two variants selected at construction:
//!
//! | System | Access tracking | Vanilla placement | Colloid integration |
//! |--------|-----------------|-------------------|---------------------|
//! | [`hemem::HeMem`] | PEBS samples → per-page frequency counts with cooling | pack pages above a fixed hot threshold into the default tier | frequency-binned page lists + Algorithm 1/2 (§4.1) |
//! | [`tpp::Tpp`] | page-table scan + hint faults (time-to-fault) | promote hot-by-time-to-fault pages on fault; kswapd watermark demotion | per-fault access-probability test `p = 1/(Δt·r)` against Δp (§4.3) |
//! | [`memtis::Memtis`] | dynamic-rate PEBS + huge-page (region) management | distribution-derived hot set packed into the default tier; proactive cold demotion | hot-list scan under Δp and the dynamic migration limit (§4.2) |
//!
//! All variants drive the machine through the same narrow interface
//! ([`TieringSystem`]), consume the same [`memsim::TickReport`] hardware
//! counters, and migrate through the machine's migration engine — mirroring
//! how the real implementations reuse each system's existing tracking and
//! migration mechanisms.
//!
//! The paper adds Colloid to each system by replacing only its placement
//! policy, and the code is split the same way. [`SystemCore`] holds what
//! the three share: the parameters, the [`HotnessPolicy`], the
//! [`RetryQueue`], the Colloid controller, the migration budget, the
//! frozen flag and the telemetry sink and metrics hub. It registers the
//! managed pages on the first tick and, at the start of every tick,
//! re-syncs the policy after failed, retried and evacuated migrations.
//! One `impl TieringSystem for` [`System`] serves all three systems: it
//! runs that preamble, swaps policies, passes freezes and resets on to
//! the Colloid controller, and passes the sink and the hub on to the
//! controller and the retry queue. Each system file supplies only a
//! [`SystemLogic`] (its signal ingest, vanilla placement and Colloid page
//! selection), which runs after the preamble and refills the budget at
//! the start of each of its own quanta.

// Managed-page region lists are genuinely one range in most tests.
#![allow(clippy::single_range_in_vec_init)]

pub mod hemem;
pub mod memtis;
pub mod policy;
pub mod retry;
pub mod supervisor;
mod system;
pub mod tpp;

use memsim::{Machine, TickReport, TierId, Vpn};
use simkit::SimTime;

pub use policy::{HotnessPolicy, PolicyKind, PolicyProbe, PolicyStats};
pub use retry::{RetryPolicy, RetryQueue, RetryStats};
pub use supervisor::{
    HealthSample, SupervisionReport, Supervisor, SupervisorConfig, SupervisorMode,
};
pub use system::{System, SystemCore, SystemLogic};

/// A tiering system driving page placement on a [`Machine`].
pub trait TieringSystem {
    /// Reacts to one machine tick: ingest counters/samples, enqueue
    /// migrations, re-mark pages.
    fn on_tick(&mut self, machine: &mut Machine, report: &TickReport);

    /// Display name ("HeMem", "HeMem+Colloid", ...).
    fn name(&self) -> String;

    /// Migration-retry counters, for systems that drive a [`RetryQueue`]
    /// (all three real systems do; placeholders return `None`).
    fn retry_stats(&self) -> Option<RetryStats> {
        None
    }

    /// Suspends (or resumes) placement decisions. A frozen system keeps
    /// ingesting counters and samples — its view of the machine stays
    /// current — but must not enqueue migrations or move watermarks.
    /// Default: no-op, for placement-free systems.
    fn set_frozen(&mut self, _frozen: bool) {}

    /// Discards learned equilibrium state (Colloid watermarks, adaptive
    /// thresholds) after the machine's operating point changed
    /// permanently, e.g. a tier shrink. Heat tracking is kept.
    /// Default: no-op.
    fn reset_equilibrium(&mut self) {}

    /// Relative hotness of a page under this system's own tracking
    /// metadata (higher = hotter; 0.0 = never seen). Used by the
    /// supervisor to drain a degraded tier hottest-first and by the
    /// tenancy arbiter's heat-aware reclamation. Required: every system
    /// must answer from its actual [`HotnessPolicy`] (or state plainly
    /// that it has none) — a silent uniform-heat default made arbiter
    /// victim selection arbitrary.
    fn heat_of(&self, vpn: Vpn) -> f64;

    /// Hot-swaps the hotness policy at the next quantum boundary,
    /// seeding the newcomer from the old policy's exported ranking
    /// (TierBPF-style state migration). Returns `false` for systems
    /// without a pluggable policy. Default: unsupported.
    fn swap_policy(&mut self, _kind: PolicyKind) -> bool {
        false
    }

    /// The currently active hotness policy, for systems that run one.
    fn policy_kind(&self) -> Option<PolicyKind> {
        None
    }

    /// Live counters of the active hotness policy, if any.
    fn policy_stats(&self) -> Option<PolicyStats> {
        None
    }

    /// The active policy's full ranking (page, tier, heat) sorted
    /// hottest-first — the same snapshot [`swap_policy`] hands to a
    /// policy newcomer. Feeds the [`policy::PolicyProbe`]'s rank-churn
    /// and hot-set-turnover series. Default: `None` for systems without
    /// a policy layer.
    ///
    /// [`swap_policy`]: TieringSystem::swap_policy
    fn export_policy_ranking(&self) -> Option<Vec<(Vpn, TierId, f64)>> {
        None
    }

    /// Supervision telemetry (mode timeline, time-to-recover), for
    /// systems wrapped in a [`Supervisor`]. Default: `None`.
    fn supervision(&self) -> Option<SupervisionReport> {
        None
    }

    /// Attaches a telemetry sink; the system forwards clones to the
    /// sub-components it owns (Colloid controller, retry queue, wrapped
    /// inner system). Default: no-op, for systems with nothing to record.
    fn set_telemetry(&mut self, _sink: telemetry::Sink) {}

    /// Attaches a live metrics hub; the system registers its series
    /// (retry depth, supervisor mode residency, controller trajectory)
    /// and forwards clones to owned sub-components. Default: no-op.
    fn set_metrics(&mut self, _hub: telemetry::MetricsHub) {}
}

/// A placement policy that never migrates (used for the best-case oracle's
/// manually pinned placements and for baseline-free runs).
pub struct StaticPlacement;

impl TieringSystem for StaticPlacement {
    fn on_tick(&mut self, _machine: &mut Machine, _report: &TickReport) {}

    fn name(&self) -> String {
        "static".into()
    }

    fn heat_of(&self, _vpn: Vpn) -> f64 {
        // Static placement tracks nothing: all pages are uniformly cold.
        0.0
    }
}

/// Parameters shared by every system.
#[derive(Debug, Clone)]
pub struct SystemParams {
    /// Page ranges under the system's management (the application's
    /// regions; pinned/antagonist pages are excluded).
    pub managed: Vec<std::ops::Range<Vpn>>,
    /// Machine tick duration (the base quantum).
    pub tick: SimTime,
    /// Static migration rate limit, bytes per tick (`M` in Algorithm 1).
    pub migration_limit_per_tick: u64,
    /// Unloaded latency of each tier in ns (for Colloid's idle-tier
    /// fallback).
    pub unloaded_ns: Vec<f64>,
    /// Attach the Colloid controller (ε, δ) instead of the vanilla
    /// placement policy.
    pub colloid: Option<ColloidParams>,
    /// Hotness policy override. `None` runs the system's own extracted
    /// default ([`SystemKind::default_policy`]) — bit-identical to the
    /// pre-extraction behaviour; `Some` substitutes another policy behind
    /// the same mechanism.
    pub policy: Option<PolicyKind>,
}

/// Colloid knobs (paper §5: ε = 0.01, δ = 0.05).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColloidParams {
    /// Watermark collapse threshold ε.
    pub epsilon: f64,
    /// Latency balance tolerance δ.
    pub delta: f64,
    /// EWMA smoothing factor for the occupancy/rate signals.
    pub ewma_alpha: f64,
    /// Dynamic migration limit (§3.2); disable for ablation runs.
    pub dynamic_limit: bool,
}

impl Default for ColloidParams {
    fn default() -> Self {
        ColloidParams {
            epsilon: 0.01,
            delta: 0.05,
            ewma_alpha: 0.3,
            dynamic_limit: true,
        }
    }
}

impl SystemParams {
    /// Reasonable defaults for the paper's scaled GUPS setup: 100 µs ticks
    /// and a 2.4 GB/s static migration limit.
    pub fn new(managed: Vec<std::ops::Range<Vpn>>, colloid: Option<ColloidParams>) -> Self {
        let tick = SimTime::from_us(100.0);
        SystemParams {
            managed,
            tick,
            migration_limit_per_tick: (2.4e9 * tick.as_secs()) as u64,
            unloaded_ns: vec![70.0, 135.7],
            colloid,
            policy: None,
        }
    }

    /// Total managed pages.
    pub fn managed_pages(&self) -> u64 {
        self.managed.iter().map(|r| r.end - r.start).sum()
    }

    /// Number of memory tiers this configuration addresses.
    pub fn n_tiers(&self) -> usize {
        self.unloaded_ns.len()
    }

    /// Builds the Colloid controller for this configuration, if enabled.
    pub(crate) fn build_colloid(&self) -> Option<colloid::ColloidController> {
        self.colloid.map(|c| {
            colloid::ColloidController::new(colloid::ColloidConfig {
                epsilon: c.epsilon,
                delta: c.delta,
                ewma_alpha: c.ewma_alpha,
                static_limit_bytes: self.migration_limit_per_tick,
                quantum_ns: self.tick.as_ns(),
                unloaded_ns: self.unloaded_ns.clone(),
                dynamic_limit: c.dynamic_limit,
            })
        })
    }
}

/// One migration direction for a quantum, in tier terms: move pages whose
/// summed access probability is within `delta_p` (and summed size within
/// `byte_limit`) from `src` to `dst`.
#[derive(Debug, Clone, Copy)]
pub struct TierMove {
    /// Tier pages leave.
    pub src: TierId,
    /// Tier pages land in (adjacent to `src` in the tier chain).
    pub dst: TierId,
    /// Desired shift in summed access probability.
    pub delta_p: f64,
    /// Byte budget for this quantum's migrations.
    pub byte_limit: u64,
}

impl TierMove {
    /// Whether the move heads towards a faster (lower-latency) tier.
    pub fn is_promotion(&self) -> bool {
        self.dst.0 < self.src.0
    }
}

impl From<colloid::PairDecision> for TierMove {
    fn from(d: colloid::PairDecision) -> Self {
        let (upper, lower) = (TierId(d.upper as u8), TierId(d.lower as u8));
        let (src, dst) = match d.mode {
            colloid::Mode::Promote => (lower, upper),
            colloid::Mode::Demote => (upper, lower),
        };
        TierMove {
            src,
            dst,
            delta_p: d.delta_p,
            byte_limit: d.byte_limit,
        }
    }
}

/// Extracts Colloid's per-tier `(O, R)` measurements from a tick report.
pub(crate) fn measurements(report: &TickReport) -> Vec<colloid::TierMeasurement> {
    report
        .tiers
        .iter()
        .map(|t| colloid::TierMeasurement {
            occupancy: t.occupancy,
            rate_per_ns: t.rate_per_ns,
        })
        .collect()
}

/// Which of the three systems to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// HeMem (SOSP '21).
    Hemem,
    /// TPP (ASPLOS '23), as upstreamed in Linux v6.3.
    Tpp,
    /// MEMTIS (SOSP '23).
    Memtis,
}

impl SystemKind {
    /// All three systems, in the paper's presentation order.
    pub const ALL: [SystemKind; 3] = [SystemKind::Hemem, SystemKind::Tpp, SystemKind::Memtis];

    /// Base display name.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::Hemem => "HeMem",
            SystemKind::Tpp => "TPP",
            SystemKind::Memtis => "MEMTIS",
        }
    }

    /// The system's extracted default hotness policy — the tracker it
    /// hard-wired before the policy layer existed. Running on it is
    /// bit-identical to the pre-extraction system.
    pub fn default_policy(self) -> PolicyKind {
        match self {
            SystemKind::Hemem => PolicyKind::FreqBins,
            SystemKind::Tpp => PolicyKind::TimeToFault,
            SystemKind::Memtis => PolicyKind::DensityHistogram,
        }
    }
}

/// Builds a system (vanilla or +Colloid per `params.colloid`).
pub fn build_system(kind: SystemKind, params: SystemParams) -> Box<dyn TieringSystem> {
    match kind {
        SystemKind::Hemem => Box::new(hemem::HeMem::new(params)),
        SystemKind::Tpp => Box::new(tpp::Tpp::new(params, tpp::TppConfig::default())),
        SystemKind::Memtis => {
            Box::new(memtis::Memtis::new(params, memtis::MemtisConfig::default()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_defaults() {
        let p = SystemParams::new(vec![0..100, 200..300], None);
        assert_eq!(p.managed_pages(), 200);
        // 2.4 GB/s over 100 us = 240 KB per tick.
        assert_eq!(p.migration_limit_per_tick, 240_000);
        assert!(p.build_colloid().is_none());
    }

    #[test]
    fn colloid_controller_built_when_enabled() {
        let p = SystemParams::new(vec![0..10], Some(ColloidParams::default()));
        let c = p.build_colloid().expect("controller");
        assert_eq!(c.pairs()[0].epsilon(), 0.01);
        assert_eq!(c.pairs()[0].delta(), 0.05);
    }

    #[test]
    fn three_tier_params_build_one_pair_per_tier_boundary() {
        let mut p = SystemParams::new(vec![0..10], Some(ColloidParams::default()));
        p.unloaded_ns = vec![70.0, 180.0, 350.0];
        assert_eq!(p.n_tiers(), 3);
        assert_eq!(p.build_colloid().expect("controller").pairs().len(), 2);
    }

    #[test]
    fn tier_move_direction_matches_tier_order() {
        let up = TierMove {
            src: TierId(2),
            dst: TierId(1),
            delta_p: 0.1,
            byte_limit: 4096,
        };
        assert!(up.is_promotion());
        let down = TierMove {
            src: TierId(0),
            dst: TierId(1),
            delta_p: 0.1,
            byte_limit: 4096,
        };
        assert!(!down.is_promotion());
    }

    /// Default tier heavily loaded (300 ns) against near-balanced lower
    /// tiers (190/195 ns).
    const HOT_TOP: [colloid::TierMeasurement; 3] = [
        colloid::TierMeasurement {
            occupancy: 90.0,
            rate_per_ns: 0.3,
        },
        colloid::TierMeasurement {
            occupancy: 19.0,
            rate_per_ns: 0.1,
        },
        colloid::TierMeasurement {
            occupancy: 9.75,
            rate_per_ns: 0.05,
        },
    ];

    #[test]
    fn chain_driver_emits_adjacent_pair_moves() {
        let mut p = SystemParams::new(vec![0..10], Some(ColloidParams::default()));
        p.unloaded_ns = vec![70.0, 180.0, 350.0];
        let mut c = p.build_colloid().expect("controller");
        // Once the latency EWMAs converge, pair 0-1 is the most imbalanced
        // and the controller demotes tier 0 → tier 1.
        let mut last = None;
        for _ in 0..50 {
            if let Some(d) = c.on_quantum(&HOT_TOP) {
                last = Some(TierMove::from(d));
            }
        }
        let last = last.expect("a move");
        assert_eq!(last.src, TierId(0));
        assert_eq!(last.dst, TierId(1));
        assert!(!last.is_promotion());
        assert!(last.delta_p > 0.0);
    }

    #[test]
    fn dynamic_limit_ablation_holds_on_three_tiers() {
        // The same latencies under a light load: the dynamic limit is well
        // under the static limit M.
        let window = HOT_TOP.map(|t| colloid::TierMeasurement {
            occupancy: t.occupancy / 20.0,
            rate_per_ns: t.rate_per_ns / 20.0,
        });
        let byte_limit = |dynamic_limit| {
            let colloid = ColloidParams {
                dynamic_limit,
                ..ColloidParams::default()
            };
            let mut p = SystemParams::new(vec![0..10], Some(colloid));
            p.unloaded_ns = vec![70.0, 180.0, 350.0];
            let mut c = p.build_colloid().expect("controller");
            let d = c.on_quantum(&window).expect("imbalanced window");
            (TierMove::from(d).byte_limit, p.migration_limit_per_tick)
        };
        let (dynamic, m) = byte_limit(true);
        assert!(dynamic < m, "{dynamic} vs {m}");
        // The §3.2 ablation: without the dynamic limit every move carries
        // M, whatever the tier count.
        assert_eq!(byte_limit(false), (m, m));
    }

    #[test]
    fn kind_names() {
        assert_eq!(SystemKind::Hemem.name(), "HeMem");
        assert_eq!(SystemKind::ALL.len(), 3);
    }
}
