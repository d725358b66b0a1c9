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
        // Pages force-evacuated by a tier shrink: file each under the tier
        // it is in now, since a copy queued before the shrink may have
        // moved it again in the same tick. Re-driven moves below file last.
        for &(vpn, _) in &report.evacuated {
            if let Some(actual) = machine.tier_of(vpn) {
                self.resync(vpn, actual);
            }
        }
        if !self.frozen {
            for (vpn, dst) in self.retry.on_tick(machine) {
                self.resync(vpn, dst);
            }
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
    /// registered pages and re-synced failed, evacuated and retried
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

#[cfg(test)]
mod tests {
    use memsim::{MachineConfig, TierShrink, PAGE_SIZE};
    use simkit::SimTime;

    use super::*;

    /// Managed pages, all starting on tier 1.
    const PAGES: Vpn = 4;

    /// Requests its scripted moves through the retry queue and files each
    /// enqueued page under its destination, as the real systems do.
    struct Scripted {
        tick: usize,
        /// `(tick, page, destination, engine frozen)`. A frozen engine
        /// rejects the request, so the move parks in the retry queue.
        moves: Vec<(usize, Vpn, TierId, bool)>,
    }

    impl SystemLogic for Scripted {
        fn on_tick(&mut self, core: &mut SystemCore, machine: &mut Machine, _: &TickReport) {
            self.tick += 1;
            for &(at, vpn, dst, frozen) in &self.moves {
                if at != self.tick {
                    continue;
                }
                if frozen {
                    machine.set_migration_admission_limit(Some(0));
                }
                if core.retry.request(machine, vpn, dst) {
                    core.policy.move_tier(vpn, dst);
                }
                machine.set_migration_admission_limit(None);
            }
        }
    }

    /// Runs `moves` for three ticks on a three-tier machine whose tier 1
    /// shrinks to one frame at the start of tick 2, evacuating pages 0–2
    /// to tier 0. Returns where the machine and the policy put page 0.
    fn page_0_after(moves: Vec<(usize, Vpn, TierId, bool)>) -> (TierId, TierId) {
        let tick = SimTime::from_us(100.0);
        let mut cfg = MachineConfig::cxl_three_tier();
        for t in &mut cfg.tiers {
            t.capacity_bytes = 16 * PAGE_SIZE;
        }
        cfg.faults.tier_shrinks.push(TierShrink {
            tier: TierId(1),
            at: tick,
            new_frames: 1,
        });
        let mut machine = Machine::new(cfg);
        machine.place_range(0..PAGES, TierId(1));
        let mut params = SystemParams::new(vec![0..PAGES], None);
        params.unloaded_ns = vec![0.0; 3];
        let mut system = System {
            core: SystemCore::new(SystemKind::Hemem, params, u64::MAX),
            logic: Scripted { tick: 0, moves },
        };
        let mut evacuated = Vec::new();
        for _ in 0..3 {
            let report = machine.run_tick(tick);
            evacuated.extend(report.evacuated.iter().map(|&(vpn, _)| vpn));
            system.on_tick(&mut machine, &report);
        }
        assert_eq!(evacuated, [0, 1, 2]);
        assert_eq!(machine.migration_backlog(), 0);
        assert_eq!(machine.migration_counters().in_flight(), 0);
        (
            machine.tier_of(0).unwrap(),
            system.core.policy.tier_of(0).unwrap(),
        )
    }

    #[test]
    fn a_queued_copy_that_moves_an_evacuated_page_files_it_where_it_lands() {
        // Tick 1 queues page 0 for tier 2; tick 2 evacuates it to tier 0
        // first, then the queued copy takes it on to tier 2.
        let (machine, policy) = page_0_after(vec![(1, 0, TierId(2), false)]);
        assert_eq!(machine, TierId(2));
        assert_eq!(policy, machine);
    }

    #[test]
    fn a_move_redriven_after_an_evacuation_files_the_page_at_its_destination() {
        // Tick 1 parks page 0's move to tier 2; tick 2 evacuates the page
        // to tier 0 and the preamble re-drives the move, which lands on
        // tick 3.
        let (machine, policy) = page_0_after(vec![(1, 0, TierId(2), true)]);
        assert_eq!(machine, TierId(2));
        assert_eq!(policy, machine);
    }
}
