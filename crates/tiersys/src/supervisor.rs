//! Tiering supervisor: graceful degradation under hard faults.
//!
//! The three tiering systems assume a machine that mostly works: frames
//! stay mapped, the migration engine eventually services its queue, and a
//! failed migration is transient. Hard faults (permanent tier shrinks,
//! engine outages, permanent bandwidth collapse — `memsim::faults`) break
//! those assumptions, and an unsupervised system degrades badly: it keeps
//! hammering a dead engine (each aborted start still burns engine time),
//! floods a collapsed link with admissions, and chases a stale equilibrium
//! after the machine's capacity changed for good.
//!
//! The [`Supervisor`] wraps any [`TieringSystem`] and watches per-tick
//! health signals — migration success rate, retry-queue saturation,
//! persistent latency inversion, forced evacuations and capacity loss —
//! and drives an explicit mode machine:
//!
//! ```text
//!            degraded ≥ enter_ticks            all-fail ≥ enter_ticks
//!   Normal ───────────────────────▶ Throttled ──────────────────────▶ Frozen
//!     ▲                                │  ▲                             │
//!     │ dwell elapsed                  │  │ relapse                     │ probe
//!     │                                ▼  │                            │ successes
//!   Recovered ◀──────────────────── (healthy ≥ exit_ticks) ◀───────────┘
//!     ▲
//!     │ drain quiet
//!   Evacuating ◀── forced evacuation / capacity loss (any mode, immediate)
//! ```
//!
//! Per-mode admission control is enforced twice: the supervisor freezes
//! the inner system's placement (it keeps ingesting counters so its view
//! stays current), and the machine itself caps admitted migrations per
//! tick ([`Machine::set_migration_admission_limit`]) as defense in depth.
//! Mode transitions carry hysteresis — `enter_ticks` consecutive unhealthy
//! ticks to degrade, `exit_ticks` consecutive healthy ticks to recover —
//! so oscillating signals cannot thrash modes.
//!
//! While `Frozen`, the supervisor sends a one-page canary migration every
//! `probe_interval` ticks; only probe *successes* count as recovery
//! evidence, so a silent (zero-traffic) outage cannot look healthy.
//! While `Evacuating`, it drains the shrunk tier hottest-pages-first using
//! the inner system's own heat metadata ([`TieringSystem::heat_of`]): a
//! page's cost of remaining on failing hardware is proportional to its
//! access rate, so the hottest pages are rescued first, and the machine's
//! arbitrary-order emergency path only handles frames that physically
//! vanished. On `Recovered` the inner system's learned equilibrium is
//! reset ([`TieringSystem::reset_equilibrium`]) so Colloid's watermark
//! search restarts against the post-fault operating point.

use memsim::{Machine, TickReport, TierId, Vpn};
use simkit::SimTime;

use crate::{RetryStats, TieringSystem};

/// The supervisor's operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SupervisorMode {
    /// Healthy: the inner system runs unrestricted.
    #[default]
    Normal,
    /// Degraded: placement runs but admissions are capped per tick.
    Throttled,
    /// Critical (e.g. engine outage): placement suspended, admissions
    /// blocked except for periodic canary probes.
    Frozen,
    /// A tier lost capacity: placement suspended while the supervisor
    /// drains the failing tier hottest-pages-first.
    Evacuating,
    /// Health restored: equilibrium reset, throttled re-admission while
    /// the system re-finds its operating point.
    Recovered,
}

impl SupervisorMode {
    /// Short display name ("normal", "frozen", ...).
    pub fn name(self) -> &'static str {
        match self {
            SupervisorMode::Normal => "normal",
            SupervisorMode::Throttled => "throttled",
            SupervisorMode::Frozen => "frozen",
            SupervisorMode::Evacuating => "evacuating",
            SupervisorMode::Recovered => "recovered",
        }
    }
}

/// Supervisor thresholds and knobs.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Page ranges under supervision (the same ranges handed to the inner
    /// system's `SystemParams::managed`); the drain routine only touches
    /// these.
    pub managed: Vec<std::ops::Range<Vpn>>,
    /// Consecutive unhealthy ticks before degrading a mode (hysteresis).
    pub enter_ticks: u64,
    /// Consecutive healthy ticks before recovering a mode (hysteresis).
    pub exit_ticks: u64,
    /// Admitted migrations per tick while `Throttled` / `Recovered`.
    pub throttled_limit: u64,
    /// Drained pages per tick while `Evacuating`.
    pub drain_limit: u64,
    /// Ticks between canary probes while `Frozen`.
    pub probe_interval: u64,
    /// Successful probes required to leave `Frozen`.
    pub probe_successes_to_exit: u64,
    /// Ticks to dwell in `Recovered` before returning to `Normal`.
    pub recovered_dwell: u64,
    /// Per-tick migration failure ratio considered unhealthy.
    pub failure_rate_threshold: f64,
    /// Retry-queue depth considered saturated.
    pub backlog_threshold: u64,
    /// Consecutive ticks of latency inversion (default tier slower than
    /// the alternate tier) considered unhealthy.
    pub inversion_ticks: u64,
    /// Observed-vs-expected page-copy-time ratio above which the
    /// migration path counts as critically degraded (bandwidth collapse).
    /// A healthy engine sits near 1; transient queueing pushes it to ~2;
    /// the hard-fault collapse phases land near `1/factor`.
    pub copy_slowdown_threshold: f64,
}

impl SupervisorConfig {
    /// Defaults tuned for the experiments' 100 µs ticks.
    pub fn new(managed: Vec<std::ops::Range<Vpn>>) -> Self {
        SupervisorConfig {
            managed,
            enter_ticks: 3,
            exit_ticks: 10,
            throttled_limit: 8,
            drain_limit: 16,
            probe_interval: 5,
            probe_successes_to_exit: 2,
            recovered_dwell: 20,
            failure_rate_threshold: 0.5,
            backlog_threshold: 256,
            inversion_ticks: 50,
            copy_slowdown_threshold: 4.0,
        }
    }
}

/// One tick's worth of health evidence, distilled from the
/// [`TickReport`], the machine, and the inner system's retry counters.
/// Everything here is observable by a real supervisor daemon — there is
/// no fault-injection oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HealthSample {
    /// Migrations that failed this tick (transient aborts + outage aborts).
    pub failed: u64,
    /// Pages whose migration completed this tick.
    pub succeeded: u64,
    /// Entries currently parked in the inner system's retry queue.
    pub retry_pending: u64,
    /// Pages force-evacuated by the machine this tick.
    pub evacuated: u64,
    /// Any tier's effective capacity is below its configured capacity.
    pub tier_shrunk: bool,
    /// Pages still resident above some tier's effective capacity
    /// (deferred evacuation backlog).
    pub over_capacity: u64,
    /// The default tier's measured latency exceeded the alternate tier's.
    pub latency_inverted: bool,
    /// The supervisor's drain routine moved pages this tick.
    pub drain_active: bool,
    /// Observed / expected page-copy time for copies completed this tick
    /// (0 when nothing completed; ~1 on a healthy engine).
    pub copy_slowdown: f64,
}

/// Health classification of one sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Health {
    Ok,
    Degraded,
    Critical,
}

/// The pure mode machine: consumes one [`HealthSample`] per tick and
/// yields the mode. Deterministic by construction (no clock, no RNG) —
/// property-tested in `tests/properties.rs`.
#[derive(Debug, Clone)]
pub struct ModeMachine {
    cfg: ModeThresholds,
    mode: SupervisorMode,
    degraded_streak: u64,
    critical_streak: u64,
    healthy_streak: u64,
    inversion_streak: u64,
    dwell: u64,
    evac_quiet: u64,
    seen_shrunk: bool,
}

/// The subset of [`SupervisorConfig`] the mode machine needs.
#[derive(Debug, Clone, Copy)]
struct ModeThresholds {
    enter_ticks: u64,
    exit_ticks: u64,
    probe_successes_to_exit: u64,
    recovered_dwell: u64,
    failure_rate_threshold: f64,
    backlog_threshold: u64,
    inversion_ticks: u64,
    copy_slowdown_threshold: f64,
}

impl ModeMachine {
    /// Builds a machine in `Normal` from the supervisor's thresholds.
    pub fn new(cfg: &SupervisorConfig) -> Self {
        ModeMachine {
            cfg: ModeThresholds {
                enter_ticks: cfg.enter_ticks.max(1),
                exit_ticks: cfg.exit_ticks.max(1),
                probe_successes_to_exit: cfg.probe_successes_to_exit.max(1),
                recovered_dwell: cfg.recovered_dwell,
                failure_rate_threshold: cfg.failure_rate_threshold,
                backlog_threshold: cfg.backlog_threshold,
                inversion_ticks: cfg.inversion_ticks.max(1),
                copy_slowdown_threshold: cfg.copy_slowdown_threshold.max(1.0),
            },
            mode: SupervisorMode::Normal,
            degraded_streak: 0,
            critical_streak: 0,
            healthy_streak: 0,
            inversion_streak: 0,
            dwell: 0,
            evac_quiet: 0,
            seen_shrunk: false,
        }
    }

    /// Current mode.
    pub fn mode(&self) -> SupervisorMode {
        self.mode
    }

    fn classify(&self, h: &HealthSample) -> Health {
        let attempts = h.failed + h.succeeded;
        if attempts > 0 && h.succeeded == 0 {
            // Every migration attempted this tick failed: the engine is
            // effectively down.
            return Health::Critical;
        }
        if h.copy_slowdown >= self.cfg.copy_slowdown_threshold {
            // Copies complete but take several times the bandwidth-implied
            // duration: the migration path has collapsed. Because probes
            // also reveal this, a permanent collapse keeps the machine
            // Frozen instead of letting slow probe completions fake health.
            return Health::Critical;
        }
        let failure_rate = if attempts > 0 {
            h.failed as f64 / attempts as f64
        } else {
            0.0
        };
        if failure_rate >= self.cfg.failure_rate_threshold
            || h.retry_pending >= self.cfg.backlog_threshold
        {
            return Health::Degraded;
        }
        // Persistent latency inversion is *placement* evidence, not
        // migration-path evidence: it may degrade a running mode, but it
        // must not hold the machine Frozen — a contended default tier
        // stays inverted indefinitely while the engine is perfectly
        // healthy, and the only accepted recovery evidence in Frozen is
        // the migration path's own (probe successes at sane copy times).
        if self.inversion_streak >= self.cfg.inversion_ticks && self.mode != SupervisorMode::Frozen
        {
            return Health::Degraded;
        }
        Health::Ok
    }

    /// Advances one tick. Returns the (possibly unchanged) mode.
    pub fn step(&mut self, h: &HealthSample) -> SupervisorMode {
        self.inversion_streak = if h.latency_inverted {
            self.inversion_streak + 1
        } else {
            0
        };
        let health = self.classify(h);
        match health {
            Health::Ok => {
                // While Frozen, a quiet tick is *neutral*, not healthy:
                // with admissions blocked there are no failures to see, so
                // only probe successes may count as recovery evidence.
                if self.mode != SupervisorMode::Frozen || h.succeeded > 0 {
                    self.healthy_streak += 1;
                }
                self.degraded_streak = 0;
                self.critical_streak = 0;
            }
            Health::Degraded => {
                self.degraded_streak += 1;
                self.critical_streak = 0;
                self.healthy_streak = 0;
            }
            Health::Critical => {
                self.degraded_streak += 1;
                self.critical_streak += 1;
                self.healthy_streak = 0;
            }
        }

        // Capacity loss preempts everything: forced evacuations, a
        // lingering over-capacity backlog, or a newly observed shrink
        // switch to Evacuating immediately (the hardware already changed;
        // hysteresis would only delay the rescue).
        let shrink_edge = h.tier_shrunk && !self.seen_shrunk;
        self.seen_shrunk = h.tier_shrunk;
        if self.mode != SupervisorMode::Evacuating
            && (h.evacuated > 0 || h.over_capacity > 0 || shrink_edge)
        {
            return self.transition(SupervisorMode::Evacuating);
        }

        let next = match self.mode {
            SupervisorMode::Normal => {
                if self.critical_streak >= self.cfg.enter_ticks {
                    Some(SupervisorMode::Frozen)
                } else if self.degraded_streak >= self.cfg.enter_ticks {
                    Some(SupervisorMode::Throttled)
                } else {
                    None
                }
            }
            SupervisorMode::Throttled => {
                if self.critical_streak >= self.cfg.enter_ticks {
                    Some(SupervisorMode::Frozen)
                } else if self.healthy_streak >= self.cfg.exit_ticks {
                    Some(SupervisorMode::Recovered)
                } else {
                    None
                }
            }
            SupervisorMode::Frozen => {
                if self.healthy_streak >= self.cfg.probe_successes_to_exit {
                    Some(SupervisorMode::Recovered)
                } else {
                    None
                }
            }
            SupervisorMode::Evacuating => {
                let active = h.evacuated > 0 || h.over_capacity > 0 || h.drain_active;
                self.evac_quiet = if active { 0 } else { self.evac_quiet + 1 };
                if self.evac_quiet >= self.cfg.enter_ticks {
                    Some(SupervisorMode::Recovered)
                } else {
                    None
                }
            }
            SupervisorMode::Recovered => {
                self.dwell += 1;
                if self.critical_streak >= self.cfg.enter_ticks {
                    Some(SupervisorMode::Frozen)
                } else if self.degraded_streak >= self.cfg.enter_ticks {
                    Some(SupervisorMode::Throttled)
                } else if self.dwell >= self.cfg.recovered_dwell {
                    Some(SupervisorMode::Normal)
                } else {
                    None
                }
            }
        };
        match next {
            Some(mode) => self.transition(mode),
            None => self.mode,
        }
    }

    fn transition(&mut self, mode: SupervisorMode) -> SupervisorMode {
        self.mode = mode;
        // Fresh hysteresis window in the new mode.
        self.degraded_streak = 0;
        self.critical_streak = 0;
        self.healthy_streak = 0;
        self.dwell = 0;
        self.evac_quiet = 0;
        mode
    }
}

/// Supervision telemetry, surfaced through
/// [`TieringSystem::supervision`] and recorded into experiment results.
#[derive(Debug, Clone, Default)]
pub struct SupervisionReport {
    /// Mode transitions as `(time, entered mode)`; the first entry is
    /// `(0, Normal)`.
    pub timeline: Vec<(SimTime, SupervisorMode)>,
    /// Time from first leaving `Normal` to first returning to `Normal`,
    /// if both happened.
    pub time_to_recover: Option<SimTime>,
    /// Mode at the end of the run.
    pub final_mode: SupervisorMode,
    /// Canary probes sent while `Frozen`.
    pub probes_sent: u64,
    /// Pages drained hottest-first while `Evacuating`.
    pub drained_pages: u64,
}

/// Wraps a tiering system with health monitoring, the mode machine, and
/// per-mode admission control.
pub struct Supervisor {
    inner: Box<dyn TieringSystem>,
    cfg: SupervisorConfig,
    mm: ModeMachine,
    timeline: Vec<(SimTime, SupervisorMode)>,
    degraded_at: Option<SimTime>,
    recovered_at: Option<SimTime>,
    last_migrated: u64,
    frozen: bool,
    probe_clock: u64,
    probes_sent: u64,
    drained_pages: u64,
    drained_last_tick: bool,
    mode_ticks: Vec<telemetry::Counter>,
    sink: telemetry::Sink,
}

impl Supervisor {
    /// Wraps `inner`; the supervisor starts in `Normal` with admissions
    /// unrestricted.
    pub fn new(inner: Box<dyn TieringSystem>, cfg: SupervisorConfig) -> Self {
        let mm = ModeMachine::new(&cfg);
        Supervisor {
            inner,
            cfg,
            mm,
            timeline: vec![(SimTime::ZERO, SupervisorMode::Normal)],
            degraded_at: None,
            recovered_at: None,
            last_migrated: 0,
            frozen: false,
            probe_clock: 0,
            probes_sent: 0,
            drained_pages: 0,
            drained_last_tick: false,
            mode_ticks: Vec::new(),
            sink: telemetry::Sink::default(),
        }
    }

    /// Current mode.
    pub fn mode(&self) -> SupervisorMode {
        self.mm.mode()
    }

    /// Distills one tick's health evidence.
    fn sample(&self, machine: &Machine, report: &TickReport) -> HealthSample {
        let migrated = machine.migrated_pages();
        let succeeded = migrated.saturating_sub(self.last_migrated);
        let rs = self.inner.retry_stats().unwrap_or_default();
        let retry_pending = rs
            .scheduled
            .saturating_sub(rs.recovered + rs.resolved_moot + rs.dropped);
        let mut tier_shrunk = false;
        let mut over_capacity = 0;
        for (i, tier) in machine.config().tiers.iter().enumerate() {
            let t = TierId(i as u8);
            let eff = machine.capacity_pages(t);
            if eff < tier.capacity_pages() {
                tier_shrunk = true;
            }
            over_capacity += machine.used_pages(t).saturating_sub(eff);
        }
        // Inversion anywhere along the tier chain: a faster-by-design tier
        // measuring slower than its slower neighbour (on two tiers: the
        // default tier slower than the alternate).
        let latency_inverted = report
            .true_latency_ns
            .windows(2)
            .any(|w| matches!((w[0], w[1]), (Some(upper), Some(lower)) if upper > lower));
        // Expected copy time at the *configured* bandwidth — what a healthy
        // engine delivers regardless of queue depth (pacing is per page).
        let expected_ns = memsim::PAGE_SIZE as f64 / machine.config().migration_bandwidth * 1e9;
        // The worst (src, dst) pair's mean copy time: a single collapsed
        // link must not be averaged away by healthy ones.
        let copy_slowdown = report
            .mig_copy_pair_ns
            .iter()
            .map(|&(_, _, ns)| ns / expected_ns.max(1.0))
            .fold(0.0, f64::max);
        HealthSample {
            failed: report.failed_migrations.len() as u64,
            succeeded,
            retry_pending,
            evacuated: report.evacuated.len() as u64,
            tier_shrunk,
            over_capacity,
            latency_inverted,
            drain_active: self.drained_last_tick,
            copy_slowdown,
        }
    }

    /// The tier that permanently lost capacity, if any (first match).
    fn shrunk_tier(&self, machine: &Machine) -> Option<TierId> {
        machine
            .config()
            .tiers
            .iter()
            .enumerate()
            .map(|(i, tier)| (TierId(i as u8), tier))
            .find(|(t, tier)| machine.capacity_pages(*t) < tier.capacity_pages())
            .map(|(t, _)| t)
    }

    /// Applies the per-mode admission limit and freeze state. Runs every
    /// tick (idempotent) so the machine cap is always in force before the
    /// inner system gets to enqueue.
    fn apply_mode(&mut self, machine: &mut Machine, mode: SupervisorMode, probe_tick: bool) {
        let (limit, frozen) = match mode {
            SupervisorMode::Normal => (None, false),
            SupervisorMode::Throttled => (Some(self.cfg.throttled_limit), false),
            SupervisorMode::Frozen => (Some(u64::from(probe_tick)), true),
            SupervisorMode::Evacuating => (Some(self.cfg.drain_limit), true),
            SupervisorMode::Recovered => (Some(self.cfg.throttled_limit), false),
        };
        machine.set_migration_admission_limit(limit);
        if frozen != self.frozen {
            self.frozen = frozen;
            self.inner.set_frozen(frozen);
        }
    }

    /// Adapts the transactional mode to observed conflict pressure: when
    /// aborts and dirty retries dominate the transactions begun this tick,
    /// halve both the in-flight window (fewer concurrent snapshots racing
    /// writers) and the shootdown batch (shorter commit linger, shorter
    /// conflict exposure); when pressure subsides, step both back toward
    /// the configured operating point one notch per tick. A no-op on the
    /// exclusive mode, so fault-free experiments are untouched.
    fn tune_engine(&mut self, machine: &mut Machine, report: &TickReport) {
        let e = &machine.config().engine;
        let (transactional, cfg_batch, cfg_channels) =
            (e.transactional, e.shootdown_batch, e.channels);
        if !transactional || report.txn.begun == 0 {
            return;
        }
        let t = &report.txn;
        let aborts = t.aborted_write_conflict + t.aborted_watchdog;
        let pressure = (aborts * 4 + t.dirty_retries) as f64 / t.begun as f64;
        let (batch, inflight) = machine.engine_tuning();
        if pressure > 1.0 {
            let (nb, ni) = ((batch / 2).max(1), (inflight / 2).max(1));
            if (nb, ni) != (batch, inflight) {
                machine.set_shootdown_batch(Some(nb));
                machine.set_max_inflight_txns(Some(ni));
            }
        } else if pressure < 0.25 && (batch, inflight) != (cfg_batch, cfg_channels) {
            let (nb, ni) = ((batch + 1).min(cfg_batch), (inflight + 1).min(cfg_channels));
            if (nb, ni) == (cfg_batch, cfg_channels) {
                machine.set_shootdown_batch(None);
                machine.set_max_inflight_txns(None);
            } else {
                machine.set_shootdown_batch(Some(nb));
                machine.set_max_inflight_txns(Some(ni));
            }
        }
    }

    /// Sends a one-page canary migration: the coldest managed page of the
    /// default tier is demoted (least harmful probe). Its fate — success
    /// or an entry in the next tick's `failed_migrations` — is the only
    /// recovery evidence accepted while `Frozen`.
    fn probe(&mut self, machine: &mut Machine) {
        let n_tiers = machine.config().tiers.len();
        let mut candidate: Option<(Vpn, f64)> = None;
        for range in &self.cfg.managed {
            for vpn in range.clone() {
                if machine.tier_of(vpn) != Some(TierId::DEFAULT) {
                    continue;
                }
                let heat = self.inner.heat_of(vpn);
                if candidate.is_none_or(|(_, best)| heat < best) {
                    candidate = Some((vpn, heat));
                }
            }
        }
        let Some((vpn, _)) = candidate else { return };
        let prev_cause = self.sink.cause();
        self.sink
            .span_decision(telemetry::Source::Supervisor, "supervisor.probe", "probe");
        for i in 0..n_tiers {
            let dst = TierId(i as u8);
            if dst != TierId::DEFAULT && machine.enqueue_migration(vpn, dst).is_ok() {
                self.probes_sent += 1;
                self.sink.emit(telemetry::Source::Supervisor, || {
                    telemetry::EventKind::ProbeSent { vpn }
                });
                break;
            }
        }
        self.sink.set_cause(prev_cause);
    }

    /// Drains the shrunk tier hottest-pages-first, bounded by
    /// `drain_limit` and destination space. Returns pages enqueued.
    fn drain(&mut self, machine: &mut Machine) -> u64 {
        let Some(src) = self.shrunk_tier(machine) else {
            return 0;
        };
        let mut candidates: Vec<(Vpn, f64)> = Vec::new();
        for range in &self.cfg.managed {
            for vpn in range.clone() {
                if machine.tier_of(vpn) == Some(src) {
                    candidates.push((vpn, self.inner.heat_of(vpn)));
                }
            }
        }
        // Hottest first; ties broken by vpn for determinism.
        candidates.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let n_tiers = machine.config().tiers.len();
        let prev_cause = self.sink.cause();
        self.sink.span_decision(
            telemetry::Source::Supervisor,
            "supervisor.drain",
            "evacuate",
        );
        let mut moved = 0;
        'outer: for (vpn, _) in candidates {
            if moved >= self.cfg.drain_limit {
                break;
            }
            for i in 0..n_tiers {
                let dst = TierId(i as u8);
                if dst == src || machine.free_pages(dst) == 0 {
                    continue;
                }
                if machine.enqueue_migration(vpn, dst).is_ok() {
                    moved += 1;
                    continue 'outer;
                }
            }
            // No destination accepted the page (space exhausted or the
            // admission window closed): stop scanning.
            break;
        }
        self.sink.set_cause(prev_cause);
        self.drained_pages += moved;
        moved
    }
}

impl TieringSystem for Supervisor {
    fn on_tick(&mut self, machine: &mut Machine, report: &TickReport) {
        let h = self.sample(machine, report);
        self.last_migrated = machine.migrated_pages();
        let prev = self.mm.mode();
        let mode = self.mm.step(&h);
        if mode != prev {
            self.timeline.push((report.t_end, mode));
            self.sink
                .emit_at(report.t_end, telemetry::Source::Supervisor, || {
                    telemetry::EventKind::ModeTransition {
                        from: prev.name(),
                        to: mode.name(),
                    }
                });
            if prev == SupervisorMode::Normal && self.degraded_at.is_none() {
                self.degraded_at = Some(report.t_end);
            }
            if mode == SupervisorMode::Normal
                && self.degraded_at.is_some()
                && self.recovered_at.is_none()
            {
                self.recovered_at = Some(report.t_end);
            }
            if mode == SupervisorMode::Recovered {
                self.inner.reset_equilibrium();
            }
        }

        let probe_tick = if mode == SupervisorMode::Frozen {
            self.probe_clock += 1;
            if self.probe_clock >= self.cfg.probe_interval {
                self.probe_clock = 0;
                true
            } else {
                false
            }
        } else {
            self.probe_clock = 0;
            false
        };

        if let Some(c) = self.mode_ticks.get(mode as usize) {
            c.inc();
        }

        self.apply_mode(machine, mode, probe_tick);
        self.tune_engine(machine, report);

        // The inner system always ingests the tick — frozen systems keep
        // their counters and heat metadata current; the admission cap and
        // the freeze flag keep them from acting on it.
        self.inner.on_tick(machine, report);

        self.drained_last_tick = false;
        if mode == SupervisorMode::Evacuating {
            self.drained_last_tick = self.drain(machine) > 0;
        } else if probe_tick {
            self.probe(machine);
        }
    }

    fn name(&self) -> String {
        format!("{} (supervised)", self.inner.name())
    }

    fn retry_stats(&self) -> Option<RetryStats> {
        self.inner.retry_stats()
    }

    fn set_frozen(&mut self, frozen: bool) {
        self.frozen = frozen;
        self.inner.set_frozen(frozen);
    }

    fn reset_equilibrium(&mut self) {
        self.inner.reset_equilibrium();
    }

    fn heat_of(&self, vpn: Vpn) -> f64 {
        self.inner.heat_of(vpn)
    }

    fn swap_policy(&mut self, kind: crate::PolicyKind) -> bool {
        self.inner.swap_policy(kind)
    }

    fn policy_kind(&self) -> Option<crate::PolicyKind> {
        self.inner.policy_kind()
    }

    fn policy_stats(&self) -> Option<crate::PolicyStats> {
        self.inner.policy_stats()
    }

    fn export_policy_ranking(&self) -> Option<Vec<(Vpn, TierId, f64)>> {
        self.inner.export_policy_ranking()
    }

    fn set_telemetry(&mut self, sink: telemetry::Sink) {
        self.sink = sink.clone();
        self.inner.set_telemetry(sink);
    }

    fn set_metrics(&mut self, hub: telemetry::MetricsHub) {
        self.mode_ticks = [
            SupervisorMode::Normal,
            SupervisorMode::Throttled,
            SupervisorMode::Frozen,
            SupervisorMode::Evacuating,
            SupervisorMode::Recovered,
        ]
        .iter()
        .map(|m| hub.counter_with("tiersys_supervisor_mode_ticks", &[("mode", m.name())]))
        .collect();
        self.inner.set_metrics(hub);
    }

    fn supervision(&self) -> Option<SupervisionReport> {
        Some(SupervisionReport {
            timeline: self.timeline.clone(),
            time_to_recover: match (self.degraded_at, self.recovered_at) {
                (Some(d), Some(r)) => Some(r.saturating_sub(d)),
                _ => None,
            },
            final_mode: self.mm.mode(),
            probes_sent: self.probes_sent,
            drained_pages: self.drained_pages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{MachineConfig, PAGE_SIZE};

    fn cfg() -> SupervisorConfig {
        SupervisorConfig::new(vec![0..64])
    }

    fn healthy() -> HealthSample {
        HealthSample {
            succeeded: 1,
            ..HealthSample::default()
        }
    }

    fn all_fail() -> HealthSample {
        HealthSample {
            failed: 4,
            ..HealthSample::default()
        }
    }

    #[test]
    fn mode_machine_degrades_with_hysteresis() {
        let mut mm = ModeMachine::new(&cfg());
        // Two unhealthy ticks: below enter_ticks=3, still Normal.
        assert_eq!(mm.step(&all_fail()), SupervisorMode::Normal);
        assert_eq!(mm.step(&all_fail()), SupervisorMode::Normal);
        // A healthy tick resets the streak.
        assert_eq!(mm.step(&healthy()), SupervisorMode::Normal);
        assert_eq!(mm.step(&all_fail()), SupervisorMode::Normal);
        assert_eq!(mm.step(&all_fail()), SupervisorMode::Normal);
        // Third consecutive all-fail tick: critical → Frozen.
        assert_eq!(mm.step(&all_fail()), SupervisorMode::Frozen);
    }

    #[test]
    fn mixed_failures_throttle_and_recover() {
        let degraded = HealthSample {
            failed: 3,
            succeeded: 1,
            ..HealthSample::default()
        };
        let mut mm = ModeMachine::new(&cfg());
        for _ in 0..2 {
            assert_eq!(mm.step(&degraded), SupervisorMode::Normal);
        }
        assert_eq!(mm.step(&degraded), SupervisorMode::Throttled);
        // exit_ticks=10 healthy ticks to reach Recovered.
        for _ in 0..9 {
            assert_eq!(mm.step(&healthy()), SupervisorMode::Throttled);
        }
        assert_eq!(mm.step(&healthy()), SupervisorMode::Recovered);
        // recovered_dwell=20 healthy ticks back to Normal.
        let mut mode = SupervisorMode::Recovered;
        for _ in 0..20 {
            mode = mm.step(&healthy());
        }
        assert_eq!(mode, SupervisorMode::Normal);
    }

    #[test]
    fn frozen_needs_probe_successes_not_silence() {
        let mut mm = ModeMachine::new(&cfg());
        for _ in 0..3 {
            mm.step(&all_fail());
        }
        assert_eq!(mm.mode(), SupervisorMode::Frozen);
        // Quiet ticks (no attempts) are neutral: still Frozen forever.
        for _ in 0..50 {
            assert_eq!(mm.step(&HealthSample::default()), SupervisorMode::Frozen);
        }
        // Two successful probes exit to Recovered.
        assert_eq!(mm.step(&healthy()), SupervisorMode::Frozen);
        assert_eq!(mm.step(&healthy()), SupervisorMode::Recovered);
    }

    #[test]
    fn copy_slowdown_is_critical_and_keeps_the_machine_frozen() {
        let mut mm = ModeMachine::new(&cfg());
        // Copies complete (so the all-fail rule never fires) but take 10x
        // the bandwidth-implied time: a collapse, critical after
        // enter_ticks.
        let collapsed = HealthSample {
            succeeded: 2,
            copy_slowdown: 10.0,
            ..HealthSample::default()
        };
        for _ in 0..2 {
            assert_eq!(mm.step(&collapsed), SupervisorMode::Normal);
        }
        assert_eq!(mm.step(&collapsed), SupervisorMode::Frozen);
        // A probe that completes but still reveals the slowdown is *not*
        // recovery evidence: the machine stays Frozen under a permanent
        // collapse instead of flapping Frozen -> Recovered -> Frozen.
        let slow_probe = HealthSample {
            succeeded: 1,
            copy_slowdown: 9.0,
            ..HealthSample::default()
        };
        for _ in 0..30 {
            assert_eq!(mm.step(&slow_probe), SupervisorMode::Frozen);
        }
        // Probes at healthy speed do recover it.
        assert_eq!(mm.step(&healthy()), SupervisorMode::Frozen);
        assert_eq!(mm.step(&healthy()), SupervisorMode::Recovered);
    }

    #[test]
    fn latency_inversion_cannot_hold_the_machine_frozen() {
        let mut mm = ModeMachine::new(&cfg());
        for _ in 0..3 {
            mm.step(&all_fail());
        }
        assert_eq!(mm.mode(), SupervisorMode::Frozen);
        // Build up a long inversion streak (e.g. a legitimately contended
        // default tier) with quiet engine ticks.
        let inverted_quiet = HealthSample {
            latency_inverted: true,
            ..HealthSample::default()
        };
        for _ in 0..60 {
            assert_eq!(mm.step(&inverted_quiet), SupervisorMode::Frozen);
        }
        // Probe successes at sane copy times must still recover it even
        // though the inversion persists.
        let inverted_probe = HealthSample {
            succeeded: 1,
            latency_inverted: true,
            ..HealthSample::default()
        };
        assert_eq!(mm.step(&inverted_probe), SupervisorMode::Frozen);
        assert_eq!(mm.step(&inverted_probe), SupervisorMode::Recovered);
    }

    #[test]
    fn evacuation_preempts_any_mode_and_quiets_out() {
        let mut mm = ModeMachine::new(&cfg());
        let evac = HealthSample {
            evacuated: 8,
            tier_shrunk: true,
            ..HealthSample::default()
        };
        assert_eq!(mm.step(&evac), SupervisorMode::Evacuating);
        // Still shrunk but no work left: quiet ticks count up.
        let quiet = HealthSample {
            tier_shrunk: true,
            ..HealthSample::default()
        };
        let mut mode = SupervisorMode::Evacuating;
        for _ in 0..3 {
            mode = mm.step(&quiet);
        }
        assert_eq!(mode, SupervisorMode::Recovered);
        // The shrink level-signal alone must not re-trigger Evacuating
        // (edge-triggered): dwell proceeds to Normal.
        for _ in 0..20 {
            mode = mm.step(&quiet);
        }
        assert_eq!(mode, SupervisorMode::Normal);
    }

    #[test]
    fn supervisor_freezes_inner_system_and_caps_admissions() {
        struct Probe {
            frozen: bool,
            resets: u64,
        }
        impl TieringSystem for Probe {
            fn on_tick(&mut self, _m: &mut Machine, _r: &TickReport) {}
            fn name(&self) -> String {
                "probe".into()
            }
            fn set_frozen(&mut self, frozen: bool) {
                self.frozen = frozen;
            }
            fn reset_equilibrium(&mut self) {
                self.resets += 1;
            }
            fn heat_of(&self, _vpn: Vpn) -> f64 {
                0.0
            }
        }

        let mut m = Machine::new(MachineConfig::icelake_two_tier());
        m.place_range(0..64, TierId::DEFAULT);
        let mut sup = Supervisor::new(
            Box::new(Probe {
                frozen: false,
                resets: 0,
            }),
            cfg(),
        );
        // Drive three all-fail ticks by synthesizing reports.
        let mut rep = m.run_tick(SimTime::from_us(100.0));
        for _ in 0..3 {
            rep.failed_migrations = vec![
                memsim::FailedMigration {
                    vpn: 0,
                    dst: TierId::ALTERNATE,
                    reason: memsim::AbortReason::Transient,
                };
                4
            ];
            sup.on_tick(&mut m, &rep);
        }
        assert_eq!(sup.mode(), SupervisorMode::Frozen);
        assert_eq!(m.migration_admission_limit(), Some(0));
        let report = sup.supervision().expect("supervision report");
        assert_eq!(report.final_mode, SupervisorMode::Frozen);
        assert_eq!(
            report.timeline.last().map(|(_, m)| *m),
            Some(SupervisorMode::Frozen)
        );
        assert!(report.time_to_recover.is_none());
    }

    #[test]
    fn healthy_ticks_leave_admissions_unrestricted_and_count_normal_residency() {
        struct Inert;
        impl TieringSystem for Inert {
            fn on_tick(&mut self, _m: &mut Machine, _r: &TickReport) {}
            fn name(&self) -> String {
                "inert".into()
            }
            fn heat_of(&self, _vpn: Vpn) -> f64 {
                0.0
            }
        }

        let mut m = Machine::new(MachineConfig::icelake_two_tier());
        m.place_range(0..64, TierId::DEFAULT);
        let mut sup = Supervisor::new(Box::new(Inert), cfg());
        let hub = telemetry::MetricsHub::new();
        sup.set_metrics(hub.clone());

        // Healthy: Normal leaves admissions unrestricted, tick after tick.
        for _ in 0..3 {
            let rep = m.run_tick(SimTime::from_us(100.0));
            sup.on_tick(&mut m, &rep);
            assert_eq!(sup.mode(), SupervisorMode::Normal);
            assert_eq!(m.migration_admission_limit(), None);
        }

        // Mode residency is exported through the hub.
        let samples = hub.snapshot();
        let mode_normal = samples
            .iter()
            .find(|s| {
                s.name == "tiersys_supervisor_mode_ticks"
                    && s.labels == vec![("mode".to_string(), "normal".to_string())]
            })
            .expect("normal-mode residency counter");
        assert_eq!(mode_normal.value, telemetry::MetricValue::Counter(3));
    }

    #[test]
    fn drain_moves_hottest_pages_first() {
        struct Heat;
        impl TieringSystem for Heat {
            fn on_tick(&mut self, _m: &mut Machine, _r: &TickReport) {}
            fn name(&self) -> String {
                "heat".into()
            }
            fn heat_of(&self, vpn: Vpn) -> f64 {
                // Higher vpn = hotter.
                vpn as f64
            }
        }

        let mut mcfg = MachineConfig::icelake_two_tier();
        mcfg.tiers[0].capacity_bytes = 32 * PAGE_SIZE;
        mcfg.tiers[1].capacity_bytes = 64 * PAGE_SIZE;
        // A shrink the machine has already absorbed: tier 1 down to 16
        // frames, pages 16.. already force-evacuated by the machine. Here
        // we emulate the post-shrink state directly: 16 pages remain on
        // the failing tier.
        mcfg.faults.tier_shrinks = vec![memsim::TierShrink {
            tier: TierId::ALTERNATE,
            at: SimTime::ZERO,
            new_frames: 16,
        }];
        let mut m = Machine::new(mcfg);
        m.place_range(0..16, TierId::ALTERNATE);
        let rep = m.run_tick(SimTime::from_us(100.0));
        assert!(m.capacity_pages(TierId::ALTERNATE) == 16);

        let mut scfg = SupervisorConfig::new(vec![0..16]);
        scfg.drain_limit = 4;
        let mut sup = Supervisor::new(Box::new(Heat), scfg);
        sup.on_tick(&mut m, &rep);
        assert_eq!(sup.mode(), SupervisorMode::Evacuating);
        // The four hottest pages (12..16) were enqueued toward tier 0.
        assert_eq!(m.migration_backlog(), 4);
        let report = sup.supervision().expect("report");
        assert_eq!(report.drained_pages, 4);
        // Let the engine complete them, then drain the rest over ticks.
        for _ in 0..40 {
            let rep = m.run_tick(SimTime::from_us(100.0));
            sup.on_tick(&mut m, &rep);
        }
        assert_eq!(m.used_pages(TierId::ALTERNATE), 0);
        assert_eq!(m.used_pages(TierId::DEFAULT), 16);
        // Work done: the supervisor has moved on toward recovery.
        assert!(matches!(
            sup.mode(),
            SupervisorMode::Recovered | SupervisorMode::Normal
        ));
    }
}
