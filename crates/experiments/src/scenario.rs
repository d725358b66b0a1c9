//! Experiment assembly: machine + workload + tiering policy.
//!
//! The GUPS setup reproduces paper §2.1 exactly (scaled 1024×): a 72 MB
//! working set with a 24 MB hot set, 15 application cores, a 512 KB
//! antagonist buffer pinned to the default tier, and 0/5/10/15 antagonist
//! cores for the 0×/1×/2×/3× contention intensities. The three application
//! scenarios reproduce §5.3 with the default tier sized to one third of the
//! working set.

use memsim::{
    CoreConfig, CoreId, FaultPlan, Machine, MachineConfig, TierId, TrafficClass, Vpn, PAGE_SIZE,
};
use simkit::SimTime;
use tiersys::{
    build_system, ColloidParams, StaticPlacement, SystemKind, SystemParams, TieringSystem,
};
use workloads::{
    AntagonistConfig, AntagonistStream, GupsConfig, GupsStream, KvCacheConfig, KvCacheStream,
    PageRankConfig, PageRankStream, SiloConfig, SiloStream,
};

/// First page of the antagonist's pinned buffer.
const ANTAGONIST_BASE: Vpn = 0;
/// First page of the application's working set.
const APP_BASE: Vpn = 1024;
/// Maximum antagonist threads (cores 16–30 in the paper).
pub const MAX_ANTAGONIST_CORES: usize = 15;
/// Application threads (cores 1–15 in the paper).
pub const APP_CORES: usize = 15;

/// The page-placement policy driving an experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Manually pinned placement: `hot_default_fraction` of the hot set in
    /// the default tier, remaining default frames filled with cold pages
    /// (the paper's best-case methodology, §2.1).
    Static {
        /// Fraction of the hot set placed in the default tier.
        hot_default_fraction: f64,
    },
    /// One of the three tiering systems, optionally with Colloid.
    System {
        /// Which system.
        kind: SystemKind,
        /// Attach the Colloid controller.
        colloid: bool,
    },
}

impl Policy {
    /// Display name.
    pub fn name(&self) -> String {
        match self {
            Policy::Static {
                hot_default_fraction,
            } => format!("static({:.0}%)", hot_default_fraction * 100.0),
            Policy::System { kind, colloid } => {
                if *colloid {
                    format!("{}+Colloid", kind.name())
                } else {
                    kind.name().to_string()
                }
            }
        }
    }
}

/// A GUPS experiment configuration (paper §2.1 defaults).
#[derive(Debug, Clone)]
pub struct GupsScenario {
    /// Application cores (paper: 15).
    pub app_cores: usize,
    /// Antagonist cores: 0/5/10/15 for 0×/1×/2×/3× intensity.
    pub antagonist_cores: usize,
    /// GUPS object size in bytes (Figure 8 sweeps 64–4096).
    pub object_size: u32,
    /// Alternate-tier unloaded latency as a multiple of the default tier's
    /// (Figure 7 sweeps 1.9–2.7).
    pub alt_latency_ratio: f64,
    /// Initial hot-set offset within the working set, in pages. The default
    /// places the hot set outside the first-touch default-tier fill so
    /// systems must discover and migrate it.
    pub hot_offset: u64,
    /// Scheduled hot-set moves (Figure 9).
    pub phases: Vec<(SimTime, u64)>,
    /// Scheduled antagonist-intensity change: at the given time, activate
    /// exactly `usize` antagonist cores (Figure 9 right column).
    pub antagonist_change: Option<(SimTime, usize)>,
    /// Fault-injection plan (robustness experiments; defaults to injecting
    /// nothing, which leaves every run bit-identical to the fault-free
    /// machine).
    pub faults: FaultPlan,
    /// Migration-engine shape. Defaults to the engine's exclusive mode,
    /// which the golden outputs pin; the transactional-migration matrix
    /// swaps in [`memsim::MigrationEngineConfig::transactional`].
    pub engine: memsim::MigrationEngineConfig,
    /// Default-tier frames the first-touch fill leaves free (degradation
    /// experiments use this headroom as the rescue space for hot pages
    /// drained off a shrinking alternate tier). Zero — the default — keeps
    /// the classic "fill the default tier first" layout bit-identical.
    pub first_touch_headroom: u64,
    /// Root RNG seed.
    pub seed: u64,
}

impl GupsScenario {
    /// The §2.1 baseline at a given contention intensity (0–3 ×).
    pub fn intensity(level: usize) -> Self {
        GupsScenario {
            app_cores: APP_CORES,
            antagonist_cores: level * 5,
            object_size: 64,
            alt_latency_ratio: 1.9,
            hot_offset: 9216,
            phases: Vec::new(),
            antagonist_change: None,
            faults: FaultPlan::none(),
            engine: memsim::MigrationEngineConfig::default(),
            first_touch_headroom: 0,
            seed: 0xC0_11_01,
        }
    }

    /// The GUPS workload configuration for this scenario.
    pub fn gups_config(&self) -> GupsConfig {
        let mut g = GupsConfig::paper_default(APP_BASE);
        g.object_size = self.object_size;
        g.hot_offset = self.hot_offset;
        g.phases = self.phases.clone();
        g
    }
}

/// The application scenarios of §5.3 (Figure 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// GAPBS PageRank on a power-law graph.
    PageRank,
    /// Silo running YCSB-C.
    Silo,
    /// CacheLib running HeMemKV.
    KvCache,
}

impl AppKind {
    /// All three applications.
    pub const ALL: [AppKind; 3] = [AppKind::PageRank, AppKind::Silo, AppKind::KvCache];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::PageRank => "GAPBS-PageRank",
            AppKind::Silo => "Silo-YCSB-C",
            AppKind::KvCache => "CacheLib-HeMemKV",
        }
    }

    /// The application's working set, which its tiering system manages.
    pub fn ws_range(self) -> std::ops::Range<Vpn> {
        let pages = match self {
            AppKind::PageRank => {
                let r = PageRankConfig::paper_default(APP_BASE).ws_range();
                r.end - r.start
            }
            AppKind::Silo => SiloConfig::paper_default(APP_BASE).ws_pages(),
            AppKind::KvCache => {
                let r = KvCacheConfig::paper_default(APP_BASE).ws_range();
                r.end - r.start
            }
        };
        APP_BASE..APP_BASE + pages
    }
}

/// A fully assembled, runnable experiment.
pub struct Experiment {
    /// The machine under test.
    pub machine: Machine,
    /// The placement policy.
    pub system: Box<dyn TieringSystem>,
    /// Machine tick (the base quantum).
    pub tick: SimTime,
    /// Core ids of the antagonist threads (active prefix).
    pub antagonist_core_ids: Vec<CoreId>,
    /// Pending antagonist-intensity change.
    pub antagonist_change: Option<(SimTime, usize)>,
    /// Telemetry sink shared with the machine and tiering system (disabled
    /// by default; see [`Experiment::attach_telemetry`]).
    pub sink: telemetry::Sink,
    /// Workload-schedule markers not yet announced as
    /// [`telemetry::EventKind::WorkloadShift`] events, time-sorted.
    pub schedule_markers: Vec<(SimTime, String)>,
}

impl Experiment {
    /// An experiment with no antagonist, schedule, or telemetry.
    pub fn new(machine: Machine, system: Box<dyn TieringSystem>, tick: SimTime) -> Self {
        Experiment {
            machine,
            system,
            tick,
            antagonist_core_ids: Vec::new(),
            antagonist_change: None,
            sink: telemetry::Sink::default(),
            schedule_markers: Vec::new(),
        }
    }

    /// Wires a telemetry sink through every layer of the experiment: the
    /// machine (migrations, evacuations, faults), the tiering system
    /// (Colloid, retry queue, supervisor), and the runner's own schedule
    /// markers. Telemetry is passive — attaching a sink never changes
    /// simulated behaviour.
    pub fn attach_telemetry(&mut self, sink: telemetry::Sink) {
        self.machine.set_telemetry(sink.clone());
        self.system.set_telemetry(sink.clone());
        self.sink = sink;
    }

    /// Wires a live metrics hub through the machine (per-tier latency,
    /// migration copy time, transaction ledger) and the tiering system
    /// (retry depth, supervisor mode residency, Colloid trajectory).
    /// Like the sink, recording is passive: attaching a hub never
    /// changes simulated behaviour, and a disabled hub costs nothing.
    pub fn attach_metrics(&mut self, hub: telemetry::MetricsHub) {
        self.machine.set_metrics(hub.clone());
        self.system.set_metrics(hub);
    }

    /// Runs one machine tick, after any due schedule change, and the
    /// tiering system's reaction to it.
    pub fn step(&mut self) -> memsim::TickReport {
        self.apply_schedule();
        let report = self.machine.run_tick(self.tick);
        self.system.on_tick(&mut self.machine, &report);
        report
    }

    /// Applies a scheduled antagonist change once its time arrives and
    /// announces due workload-schedule markers.
    pub fn apply_schedule(&mut self) {
        let now = self.machine.now();
        if let Some((at, count)) = self.antagonist_change {
            if now >= at {
                for (i, &id) in self.antagonist_core_ids.iter().enumerate() {
                    self.machine.set_core_active(id, i < count);
                }
                self.antagonist_change = None;
                self.sink.emit(telemetry::Source::Runner, || {
                    telemetry::EventKind::WorkloadShift {
                        what: format!("antagonist cores -> {count}"),
                    }
                });
            }
        }
        while let Some((at, _)) = self.schedule_markers.first() {
            if now < *at {
                break;
            }
            let (_, what) = self.schedule_markers.remove(0);
            self.sink.emit(telemetry::Source::Runner, || {
                telemetry::EventKind::WorkloadShift { what }
            });
        }
    }
}

/// Adds the antagonist buffer (pinned to the default tier) and its cores;
/// the first `active` cores run, the rest idle.
fn add_antagonist(machine: &mut Machine, active: usize) -> Vec<CoreId> {
    let buf = AntagonistConfig::paper_default(ANTAGONIST_BASE, 0);
    machine.place_range(buf.range(), TierId::DEFAULT);
    for vpn in buf.range() {
        machine.pin(vpn);
    }
    let mut ids = Vec::new();
    for i in 0..MAX_ANTAGONIST_CORES {
        let cfg = AntagonistConfig::paper_default(ANTAGONIST_BASE, i as u64);
        let id = machine.add_core(
            Box::new(AntagonistStream::new(cfg)),
            CoreConfig::antagonist_default(),
            TrafficClass::Antagonist,
        );
        machine.set_core_active(id, i < active);
        ids.push(id);
    }
    ids
}

/// Places the application's working set: either the static oracle layout or
/// a first-touch fill (default tier first, then the alternate tier).
fn place_working_set(
    machine: &mut Machine,
    ws: std::ops::Range<Vpn>,
    hot: std::ops::Range<Vpn>,
    policy: Policy,
    headroom: u64,
) {
    match policy {
        Policy::Static {
            hot_default_fraction,
        } => {
            let hot_pages = hot.end - hot.start;
            let k = (hot_pages as f64 * hot_default_fraction).round() as u64;
            // Hot split.
            machine.place_range(hot.start..hot.start + k, TierId::DEFAULT);
            machine.place_range(hot.start + k..hot.end, TierId::ALTERNATE);
            // Cold pages fill the default tier's remaining frames, rest go
            // to the alternate tier.
            let mut free = machine.free_pages(TierId::DEFAULT);
            for vpn in ws {
                if hot.contains(&vpn) {
                    continue;
                }
                if free > 0 {
                    machine.place(vpn, TierId::DEFAULT);
                    free -= 1;
                } else {
                    machine.place(vpn, TierId::ALTERNATE);
                }
            }
        }
        Policy::System { .. } => fill_down(machine, ws, headroom),
    }
}

/// First-touch fill down the tier chain: pages allocate from tier 0 until
/// it fills (minus `headroom` frames), then from tier 1, and so on.
pub fn fill_down(machine: &mut Machine, pages: impl IntoIterator<Item = Vpn>, headroom: u64) {
    let mut tier = TierId::DEFAULT;
    let mut free = machine.free_pages(tier).saturating_sub(headroom);
    for vpn in pages {
        while free == 0 {
            tier = TierId(tier.0 + 1);
            free = machine.free_pages(tier);
        }
        machine.place(vpn, tier);
        free -= 1;
    }
}

/// The gauntlet's and the policy shoot-out's machine: `default_pages` of
/// default tier, a 1.9× alternate tier with room for `ws`, `ws` filled.
pub fn small_two_tier(
    seed: u64,
    default_pages: u64,
    ws: std::ops::Range<Vpn>,
    engine: memsim::MigrationEngineConfig,
) -> Machine {
    let mut cfg = MachineConfig::with_alt_latency_ratio(1.9);
    cfg.seed = seed;
    cfg.tiers[0].capacity_bytes = default_pages * PAGE_SIZE;
    cfg.tiers[1].capacity_bytes = (ws.end - ws.start + 1024) * PAGE_SIZE;
    cfg.engine = engine;
    cfg.validate()
        .expect("small two-tier machine must validate");
    let mut machine = Machine::new(cfg);
    fill_down(&mut machine, ws, 0);
    machine
}

/// Tiering-system parameters over `managed` pages, with each tier's
/// unloaded latency taken from `machine`'s configuration.
pub fn system_params(
    machine: &Machine,
    managed: Vec<std::ops::Range<Vpn>>,
    colloid: Option<ColloidParams>,
) -> SystemParams {
    let mut params = SystemParams::new(managed, colloid);
    params.unloaded_ns = machine
        .config()
        .tiers
        .iter()
        .map(|t| t.unloaded_latency().as_ns())
        .collect();
    params
}

/// Builds the tiering system for `policy` over `managed` pages.
fn build_policy(
    machine: &Machine,
    managed: Vec<std::ops::Range<Vpn>>,
    policy: Policy,
) -> Box<dyn TieringSystem> {
    match policy {
        Policy::Static { .. } => Box::new(StaticPlacement),
        Policy::System { kind, colloid } => build_system(
            kind,
            system_params(machine, managed, colloid.then(ColloidParams::default)),
        ),
    }
}

/// Assembles the GUPS experiment of §2.1.
pub fn build_gups(scenario: &GupsScenario, policy: Policy) -> Experiment {
    build_gups_with_stream(scenario, scenario.gups_config(), policy)
}

/// Builds a GUPS experiment running TPP under an arbitrary configuration
/// (e.g. [`tiersys::tpp::TppConfig::fast_discovery`]).
pub fn build_tpp_with_config(
    scenario: &GupsScenario,
    cfg: tiersys::tpp::TppConfig,
    colloid: bool,
) -> Experiment {
    let mut exp = build_gups(
        scenario,
        Policy::System {
            kind: SystemKind::Tpp,
            colloid: false,
        },
    );
    let ws = scenario.gups_config().ws_range();
    let params = system_params(&exp.machine, vec![ws], colloid.then(ColloidParams::default));
    exp.system = Box::new(tiersys::tpp::Tpp::new(params, cfg));
    exp
}

/// Assembles the GUPS experiment with an explicitly customised workload
/// configuration (e.g. a non-default read/write mix) — the extended-version
/// sensitivity analyses use this.
pub fn build_gups_with_stream(
    scenario: &GupsScenario,
    gups: GupsConfig,
    policy: Policy,
) -> Experiment {
    let mut cfg = MachineConfig::with_alt_latency_ratio(scenario.alt_latency_ratio);
    cfg.seed = scenario.seed;
    cfg.faults = scenario.faults.clone();
    cfg.engine = scenario.engine.clone();
    let mut machine = Machine::new(cfg);
    let antagonist_core_ids = add_antagonist(&mut machine, scenario.antagonist_cores);

    place_working_set(
        &mut machine,
        gups.ws_range(),
        gups.hot_range(),
        policy,
        scenario.first_touch_headroom,
    );
    for _ in 0..scenario.app_cores {
        machine.add_core(
            Box::new(GupsStream::new(gups.clone()).expect("valid GUPS config")),
            CoreConfig::app_default(),
            TrafficClass::App,
        );
    }
    let system = build_policy(&machine, vec![gups.ws_range()], policy);
    let schedule_markers = gups
        .phases
        .iter()
        .map(|&(at, off)| (at, format!("hot set moves to page offset {off}")))
        .collect();
    Experiment {
        machine,
        system,
        tick: SimTime::from_us(100.0),
        antagonist_core_ids,
        antagonist_change: scenario.antagonist_change,
        sink: telemetry::Sink::default(),
        schedule_markers,
    }
}

/// Assembles one of the §5.3 application experiments; the default tier is
/// sized to one third of the application's working set (plus the pinned
/// antagonist buffer).
pub fn build_app(app: AppKind, antagonist_cores: usize, policy: Policy, seed: u64) -> Experiment {
    let ws = app.ws_range();
    let ws_pages = ws.end - ws.start;
    let core_cfg = match app {
        AppKind::PageRank => CoreConfig {
            demand_slots: 8,
            prefetch_slots: 20,
            think_time: SimTime::ZERO,
        },
        AppKind::Silo => CoreConfig::app_default(),
        AppKind::KvCache => CoreConfig {
            demand_slots: 4,
            prefetch_slots: 30,
            think_time: SimTime::ZERO,
        },
    };

    let mut cfg = MachineConfig::icelake_two_tier();
    cfg.seed = seed;
    // Default tier = 1/3 of the working set + the antagonist's 128 pages.
    cfg.tiers[0].capacity_bytes = (ws_pages / 3 + 128) * PAGE_SIZE;
    cfg.tiers[1].capacity_bytes = (ws_pages + 1024) * PAGE_SIZE;
    let mut machine = Machine::new(cfg);
    let antagonist_core_ids = add_antagonist(&mut machine, antagonist_cores);

    place_working_set(&mut machine, ws.clone(), ws.start..ws.start, policy, 0);
    for i in 0..APP_CORES {
        let stream: Box<dyn memsim::AccessStream> = match app {
            AppKind::PageRank => Box::new(PageRankStream::new(
                PageRankConfig::paper_default(APP_BASE),
                i as u64,
            )),
            AppKind::Silo => Box::new(SiloStream::new(SiloConfig::paper_default(APP_BASE))),
            AppKind::KvCache => {
                Box::new(KvCacheStream::new(KvCacheConfig::paper_default(APP_BASE)))
            }
        };
        machine.add_core(stream, core_cfg.clone(), TrafficClass::App);
    }
    let system = build_policy(&machine, vec![ws], policy);
    Experiment {
        machine,
        system,
        tick: SimTime::from_us(100.0),
        antagonist_core_ids,
        antagonist_change: None,
        sink: telemetry::Sink::default(),
        schedule_markers: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gups_scenario_intensities() {
        assert_eq!(GupsScenario::intensity(0).antagonist_cores, 0);
        assert_eq!(GupsScenario::intensity(3).antagonist_cores, 15);
    }

    #[test]
    fn static_placement_splits_hot_set() {
        let sc = GupsScenario::intensity(0);
        let exp = build_gups(
            &sc,
            Policy::Static {
                hot_default_fraction: 0.5,
            },
        );
        let g = sc.gups_config();
        let hot = g.hot_range();
        let in_default = hot
            .clone()
            .filter(|&v| exp.machine.tier_of(v) == Some(TierId::DEFAULT))
            .count() as u64;
        let hot_pages = hot.end - hot.start;
        assert_eq!(in_default, hot_pages / 2);
        // Default tier is full (cold fill).
        assert_eq!(exp.machine.free_pages(TierId::DEFAULT), 0);
    }

    #[test]
    fn first_touch_fills_default_first() {
        let sc = GupsScenario::intensity(0);
        let exp = build_gups(
            &sc,
            Policy::System {
                kind: SystemKind::Hemem,
                colloid: false,
            },
        );
        let g = sc.gups_config();
        // The first working-set page lands in the default tier, the last in
        // the alternate tier, and the hot region starts fully alternate.
        assert_eq!(
            exp.machine.tier_of(g.ws_range().start),
            Some(TierId::DEFAULT)
        );
        assert_eq!(
            exp.machine.tier_of(g.ws_range().end - 1),
            Some(TierId::ALTERNATE)
        );
        assert_eq!(
            exp.machine.tier_of(g.hot_range().start),
            Some(TierId::ALTERNATE)
        );
    }

    #[test]
    fn every_policy_builds() {
        let sc = GupsScenario::intensity(1);
        for kind in SystemKind::ALL {
            for colloid in [false, true] {
                let exp = build_gups(&sc, Policy::System { kind, colloid });
                let name = exp.system.name();
                assert!(name.contains(kind.name()));
                assert_eq!(name.contains("Colloid"), colloid);
            }
        }
    }

    #[test]
    fn apps_build_with_third_sized_default_tier() {
        for app in AppKind::ALL {
            let exp = build_app(
                app,
                0,
                Policy::System {
                    kind: SystemKind::Hemem,
                    colloid: true,
                },
                1,
            );
            let cap = exp.machine.config().tiers[0].capacity_pages();
            // Default tier full after first-touch (ws >= 3x default).
            assert_eq!(exp.machine.free_pages(TierId::DEFAULT), 0, "{app:?}");
            assert!(cap > 1000, "{app:?} default tier is {cap} pages");
        }
    }

    #[test]
    fn antagonist_change_applies_at_time() {
        let mut sc = GupsScenario::intensity(0);
        sc.antagonist_change = Some((SimTime::from_us(200.0), 15));
        let mut exp = build_gups(
            &sc,
            Policy::Static {
                hot_default_fraction: 1.0,
            },
        );
        // Before the scheduled time nothing changes.
        exp.apply_schedule();
        assert!(exp.antagonist_change.is_some());
        exp.machine.run_tick(SimTime::from_us(250.0));
        exp.apply_schedule();
        assert!(exp.antagonist_change.is_none());
    }

    #[test]
    fn policy_names() {
        assert_eq!(
            Policy::Static {
                hot_default_fraction: 0.3
            }
            .name(),
            "static(30%)"
        );
        assert_eq!(
            Policy::System {
                kind: SystemKind::Tpp,
                colloid: true
            }
            .name(),
            "TPP+Colloid"
        );
    }
}
