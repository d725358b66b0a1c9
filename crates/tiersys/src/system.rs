//! The skeleton HeMem, TPP and MEMTIS share.
//!
//! [`SystemCore`] holds the state every system has in common and the
//! plumbing over it; [`System`] pairs a core with one system's own parts
//! (a [`SystemLogic`]) and implements [`TieringSystem`] once for all
//! three.

use memsim::{Machine, TickReport, TierId, Vpn};
use tierctl::MigrationBudget;

use crate::policy::{self, HotnessPolicy, PolicyKind, PolicyStats};
use crate::retry::{RetryPolicy, RetryQueue, RetryStats};
use crate::{SystemKind, SystemParams, TieringSystem};

/// The state every tiering system shares: its parameters, the hotness
/// policy, the retry queue, the Colloid controller and the migration
/// budget, plus the telemetry they report to.
pub struct SystemCore {
    kind: SystemKind,
    pub(crate) params: SystemParams,
    pub(crate) policy: Box<dyn HotnessPolicy>,
    /// `policy` is this kind's extracted default: TPP and MEMTIS then take
    /// their verbatim legacy code paths over the concrete tracker (HeMem
    /// has none).
    pub(crate) legacy: bool,
    pub(crate) retry: RetryQueue,
    pub(crate) colloid: Option<colloid::ColloidController>,
    /// Refilled by the system itself at the start of each of its quanta.
    pub(crate) budget: MigrationBudget,
    initialized: bool,
    /// A frozen system keeps tracking but makes no placement decisions.
    pub(crate) frozen: bool,
    sink: telemetry::Sink,
    metrics: Option<telemetry::MetricsHub>,
}

impl SystemCore {
    /// A core for `kind` running the policy `params.policy` selects (the
    /// kind's default if unset), with Colloid attached when
    /// `params.colloid` is set and `budget_per_quantum` migration bytes
    /// per refill.
    pub(crate) fn new(kind: SystemKind, params: SystemParams, budget_per_quantum: u64) -> Self {
        let policy = params.policy.unwrap_or(kind.default_policy());
        SystemCore {
            kind,
            policy: policy.build(params.n_tiers(), params.managed.clone()),
            legacy: policy == kind.default_policy(),
            retry: RetryQueue::new(RetryPolicy::default()),
            colloid: params.build_colloid(),
            budget: MigrationBudget::new(budget_per_quantum),
            initialized: false,
            frozen: false,
            sink: telemetry::Sink::disabled(),
            metrics: None,
            params,
        }
    }

    /// The start of every tick: register the managed pages on the first
    /// one, then bring the policy in step with where pages really are. A
    /// frozen system re-drives no parked moves: they wait for the thaw.
    fn preamble(&mut self, machine: &mut Machine, report: &TickReport) {
        if !self.initialized {
            self.register(machine);
        }
        // Migrations that aborted in flight never landed: re-sync the
        // policy with the page's actual tier and park the move for retry.
        self.retry.note_failures(report);
        for f in &report.failed_migrations {
            if let Some(actual) = machine.tier_of(f.vpn) {
                self.resync(f.vpn, actual);
            }
        }
        if !self.frozen {
            for (vpn, dst) in self.retry.on_tick(machine) {
                self.resync(vpn, dst);
            }
        }
        // Pages force-evacuated by a tier shrink already moved: re-sync
        // the policy with where each page actually landed.
        for &(vpn, dst) in &report.evacuated {
            self.resync(vpn, dst);
        }
    }

    /// Files every managed page with the policy under its current tier.
    /// For TPP's default policy, managed-range order rebuilds exactly the
    /// clock-hand list the pre-extraction TPP built at construction.
    fn register(&mut self, machine: &Machine) {
        for range in &self.params.managed {
            for vpn in range.clone() {
                let tier = machine
                    .tier_of(vpn)
                    .expect("managed pages are placed before the system starts");
                self.policy.insert(vpn, tier);
            }
        }
        self.initialized = true;
    }

    /// Files a tracked page under `tier`; untracked pages are ignored.
    fn resync(&mut self, vpn: Vpn, tier: TierId) {
        if self.policy.tier_of(vpn).is_some() {
            self.policy.move_tier(vpn, tier);
        }
    }
}

/// What one tiering system adds to the [`SystemCore`]: its signal
/// ingest, vanilla placement and Colloid page selection.
pub trait SystemLogic {
    /// The system's work for one tick, after the core's preamble has
    /// registered pages and re-synced failed, retried and evacuated
    /// migrations.
    fn on_tick(&mut self, core: &mut SystemCore, machine: &mut Machine, report: &TickReport);

    /// Discards the system's own learned equilibrium state; the core
    /// resets the Colloid controller. Default: nothing to discard.
    fn reset_equilibrium(&mut self) {}
}

/// A tiering system: the shared core plus one system's own parts.
/// [`HeMem`](crate::hemem::HeMem), [`Tpp`](crate::tpp::Tpp) and
/// [`Memtis`](crate::memtis::Memtis) name its three instances.
pub struct System<L> {
    pub(crate) core: SystemCore,
    pub(crate) logic: L,
}

impl<L: SystemLogic> TieringSystem for System<L> {
    fn on_tick(&mut self, machine: &mut Machine, report: &TickReport) {
        self.core.preamble(machine, report);
        self.logic.on_tick(&mut self.core, machine, report);
    }

    fn name(&self) -> String {
        let base = self.core.kind.name();
        if self.core.colloid.is_some() {
            format!("{base}+Colloid")
        } else {
            base.into()
        }
    }

    fn retry_stats(&self) -> Option<RetryStats> {
        Some(self.core.retry.stats())
    }

    fn set_frozen(&mut self, frozen: bool) {
        self.core.frozen = frozen;
        if let Some(c) = self.core.colloid.as_mut() {
            c.set_frozen(frozen);
        }
    }

    fn reset_equilibrium(&mut self) {
        self.logic.reset_equilibrium();
        if let Some(c) = self.core.colloid.as_mut() {
            c.reset_equilibrium();
        }
    }

    fn heat_of(&self, vpn: Vpn) -> f64 {
        self.core.policy.heat_of(vpn)
    }

    fn swap_policy(&mut self, kind: PolicyKind) -> bool {
        let core = &mut self.core;
        if core.policy.kind() == kind {
            return true;
        }
        let (from, pages) = policy::swap_boxed(
            &mut core.policy,
            kind,
            core.params.n_tiers(),
            core.params.managed.clone(),
        );
        core.legacy = kind == core.kind.default_policy();
        if let Some(hub) = &core.metrics {
            hub.counter_with(
                "policy_swap_total",
                &[("from", from.name()), ("to", kind.name())],
            )
            .inc();
        }
        core.sink.emit(telemetry::Source::System, || {
            telemetry::EventKind::PolicySwap {
                from: from.name(),
                to: kind.name(),
                pages,
            }
        });
        true
    }

    fn policy_kind(&self) -> Option<PolicyKind> {
        Some(self.core.policy.kind())
    }

    fn policy_stats(&self) -> Option<PolicyStats> {
        Some(self.core.policy.stats())
    }

    fn export_policy_ranking(&self) -> Option<Vec<(Vpn, TierId, f64)>> {
        Some(self.core.policy.export_ranking())
    }

    fn set_telemetry(&mut self, sink: telemetry::Sink) {
        if let Some(c) = self.core.colloid.as_mut() {
            c.set_telemetry(sink.clone());
        }
        self.core.sink = sink.clone();
        self.core.retry.set_telemetry(sink);
    }

    fn set_metrics(&mut self, hub: telemetry::MetricsHub) {
        if let Some(c) = self.core.colloid.as_mut() {
            c.set_metrics(hub.clone());
        }
        self.core.metrics = Some(hub.clone());
        self.core.retry.set_metrics(hub);
    }
}
