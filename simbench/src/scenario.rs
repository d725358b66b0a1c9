//! The four benchmark workloads, assembled from the public APIs of
//! `memsim`, `workloads`, `tiersys`, `tenancy` and `telemetry` only.
//!
//! Each workload is chosen so that a different simulator layer carries
//! the largest share of host time (README.md, "Workloads"):
//!
//! - `gups-3x`: the machine event loop (paper §2.1 at 3× contention);
//! - `pagerank-0x`: HeMem's policy ingest inside `TieringSystem::on_tick`;
//! - `churn-txn`: the transactional migration engine, retry queue and
//!   supervisor under continuous anti-phase churn;
//! - `colo-observed`: tenancy (arbiter, per-tenant shards) and telemetry
//!   export, which no other workload reaches.

use std::ops::Range;

use memsim::{
    AccessStream, CoreConfig, Machine, MachineConfig, MigrationEngineConfig, ObjectAccess,
    TickReport, TierId, TrafficClass, Vpn, PAGE_SIZE,
};
use rand::rngs::SmallRng;
use simkit::profile;
use simkit::SimTime;
use tenancy::{
    AdmissionHook, ArbiterConfig, ArbiterMode, Colocation, PingPongSuppressor, QosArbiter, RateCap,
    Slo, SloClass, Tenant, TenantId, TenantSpec, WorkloadKind,
};
use tiersys::{
    build_system, ColloidParams, PolicyKind, PolicyStats, RetryStats, Supervisor, SupervisorConfig,
    SystemKind, SystemParams, TieringSystem,
};
use workloads::{
    AdversarialConfig, AdversarialStream, AntagonistConfig, AntagonistStream, GupsConfig,
    GupsStream, PageRankConfig, PageRankStream,
};

/// The machine tick: the base quantum every tiering system runs at.
pub const TICK_US: f64 = 100.0;
/// First page of every application working set (below it sits the
/// antagonist's pinned buffer, where a workload has one).
const APP_BASE: Vpn = 1024;
/// Ticks between two observatory scrapes on `colo-observed`.
pub const SCRAPE_EVERY: u64 = 100;
/// Good-fraction objective of the observatory's SLO monitor.
const SLO_OBJECTIVE: f64 = 0.95;
/// Latency target of the latency-sensitive KV tenant, ns.
const LS_P99_TARGET_NS: f64 = 145.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §2.1 GUPS at 3× contention, HeMem+Colloid, exclusive engine.
    Gups3x,
    /// Figure 11 GAPBS PageRank without antagonist, HeMem+Colloid.
    PageRank0x,
    /// Adversarial anti-phase churn on the transactional engine, supervised.
    ChurnTxn,
    /// Two arbitrated tenants with the full observatory attached.
    ColoObserved,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Gups3x,
        Workload::PageRank0x,
        Workload::ChurnTxn,
        Workload::ColoObserved,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Gups3x => "gups-3x",
            Workload::PageRank0x => "pagerank-0x",
            Workload::ChurnTxn => "churn-txn",
            Workload::ColoObserved => "colo-observed",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ticks of one measured episode. An episode always runs whole, so
    /// its simulated output (digest, counts) repeats exactly for a seed;
    /// a run repeats episodes until its time budget is spent. The
    /// lengths fit a 20 s run on a 2-core host: one episode of `gups-3x`
    /// (long enough that hot-set discovery is a minority of its
    /// migrations) and of `pagerank-0x`, two or three of `churn-txn` and
    /// three to five of `colo-observed`. Several short episodes let a run
    /// that starts under contention still reach a quieter stretch.
    pub fn episode_ticks(self) -> usize {
        match self {
            Workload::Gups3x => 800,
            Workload::PageRank0x => 400,
            Workload::ChurnTxn => 2000,
            Workload::ColoObserved => 300,
        }
    }

    /// The machine seed of this workload for a benchmark seed:
    /// `splitmix64(seed ^ fnv1a(name))`.
    pub fn machine_seed(self, seed: u64) -> u64 {
        splitmix64(seed ^ fnv1a(self.name().as_bytes()))
    }
}

/// FNV-1a over bytes (64-bit).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The SplitMix64 finaliser.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Delegating stream that times every `next` under the `workloads.next`
/// profiler label. Installed only in traced runs; it draws nothing from
/// the RNG itself, so the simulation stays bit-identical.
struct TimedStream(Box<dyn AccessStream>);

impl AccessStream for TimedStream {
    fn next(&mut self, now: SimTime, rng: &mut SmallRng) -> ObjectAccess {
        let _p = profile::scope("workloads.next");
        self.0.next(now, rng)
    }
}

/// Delegating tiering system that times `on_tick` under the
/// `tiersys.on_tick` label. Used for tenant shards in traced runs, where
/// `Colocation::on_tick` calls the systems itself.
struct TimedSystem(Box<dyn TieringSystem>);

impl TieringSystem for TimedSystem {
    fn on_tick(&mut self, machine: &mut Machine, report: &TickReport) {
        let _p = profile::scope("tiersys.on_tick");
        self.0.on_tick(machine, report);
    }
    fn name(&self) -> String {
        self.0.name()
    }
    fn retry_stats(&self) -> Option<RetryStats> {
        self.0.retry_stats()
    }
    fn set_frozen(&mut self, frozen: bool) {
        self.0.set_frozen(frozen);
    }
    fn reset_equilibrium(&mut self) {
        self.0.reset_equilibrium();
    }
    fn heat_of(&self, vpn: Vpn) -> f64 {
        self.0.heat_of(vpn)
    }
    fn swap_policy(&mut self, kind: PolicyKind) -> bool {
        self.0.swap_policy(kind)
    }
    fn policy_kind(&self) -> Option<PolicyKind> {
        self.0.policy_kind()
    }
    fn policy_stats(&self) -> Option<PolicyStats> {
        self.0.policy_stats()
    }
    fn export_policy_ranking(&self) -> Option<Vec<(Vpn, TierId, f64)>> {
        self.0.export_policy_ranking()
    }
    fn supervision(&self) -> Option<tiersys::SupervisionReport> {
        self.0.supervision()
    }
    fn set_telemetry(&mut self, sink: telemetry::Sink) {
        self.0.set_telemetry(sink);
    }
    fn set_metrics(&mut self, hub: telemetry::MetricsHub) {
        self.0.set_metrics(hub);
    }
}

/// What reacts to each machine tick.
pub enum Control {
    /// One tiering system over the working set `managed`.
    System {
        /// The tiering system.
        system: Box<dyn TieringSystem>,
        /// The pages it manages.
        managed: Range<Vpn>,
    },
    /// Arbitrated tenants plus the observatory.
    Colo(Box<Observatory>),
}

/// The `colo-observed` control plane: tenants, arbiter, event ring,
/// metrics hub and SLO monitor, scraped every [`SCRAPE_EVERY`] ticks.
pub struct Observatory {
    /// Tenants and arbiter.
    pub colo: Colocation,
    /// Event ring shared with the machine and every tenant system.
    pub sink: telemetry::Sink,
    /// Metrics hub shared with the machine, tenants and SLO monitor.
    pub hub: telemetry::MetricsHub,
    /// Bytes produced by the exporters so far.
    pub export_bytes: u64,
    ticks: u64,
}

impl Observatory {
    /// Events the ring has seen (retained plus dropped).
    pub fn events(&self) -> u64 {
        self.sink
            .with(|r| r.events().len() as u64 + r.dropped_events())
            .unwrap_or(0)
    }
}

/// One assembled workload, ready to tick.
pub struct Sim {
    /// The simulated machine.
    pub machine: Machine,
    /// The tiering control plane.
    pub control: Control,
    /// Every page the workload mapped (for conservation checks).
    pub mapped: Vec<Range<Vpn>>,
    tick: SimTime,
}

impl Sim {
    /// Builds `workload` for `seed` (the benchmark seed; see
    /// [`Workload::machine_seed`]). `traced` installs the delegating
    /// wrappers that give `AccessStream::next` and the tenant shards their
    /// own profiler labels.
    pub fn build(workload: Workload, seed: u64, traced: bool) -> Sim {
        let seed = workload.machine_seed(seed);
        match workload {
            Workload::Gups3x => build_gups3x(seed, traced),
            Workload::PageRank0x => build_pagerank0x(seed, traced),
            Workload::ChurnTxn => build_churn_txn(seed, traced),
            Workload::ColoObserved => build_colo_observed(seed, traced),
        }
    }

    /// One closed-loop tick: the machine simulates a quantum, then the
    /// control plane reacts (and, on `colo-observed`, scrapes).
    pub fn step(&mut self) -> TickReport {
        let report = self.machine.run_tick(self.tick);
        match &mut self.control {
            Control::System { system, .. } => {
                let _p = profile::scope("tiersys.on_tick");
                system.on_tick(&mut self.machine, &report);
            }
            Control::Colo(obs) => {
                {
                    let _p = profile::scope("tenancy.on_tick");
                    obs.colo
                        .on_tick(&mut self.machine, &report, Some(&obs.sink));
                }
                obs.ticks += 1;
                if obs.ticks.is_multiple_of(SCRAPE_EVERY) {
                    let _p = profile::scope("telemetry.export");
                    let prom = telemetry::prometheus_exposition(&obs.hub);
                    let nd = telemetry::export::metrics_snapshot_ndjson_from(
                        &obs.hub,
                        self.machine.now(),
                        obs.ticks,
                    );
                    obs.export_bytes += (prom.len() + nd.len()) as u64;
                }
            }
        }
        report
    }

    /// The tiering systems in play (one, or one per tenant).
    pub fn systems(&self) -> Vec<&dyn TieringSystem> {
        match &self.control {
            Control::System { system, .. } => vec![system.as_ref()],
            Control::Colo(obs) => obs.colo.tenants.iter().map(|t| t.system.as_ref()).collect(),
        }
    }

    /// Page ranges each system manages, in [`Sim::systems`] order.
    pub fn managed(&self) -> Vec<Range<Vpn>> {
        match &self.control {
            Control::System { managed, .. } => vec![managed.clone()],
            Control::Colo(obs) => obs.colo.tenants.iter().map(|t| t.range.clone()).collect(),
        }
    }
}

fn unloaded_ns(machine: &Machine) -> Vec<f64> {
    machine
        .config()
        .tiers
        .iter()
        .map(|t| t.unloaded_latency().as_ns())
        .collect()
}

fn hemem_colloid(machine: &Machine, managed: Range<Vpn>) -> Box<dyn TieringSystem> {
    let mut params = SystemParams::new(vec![managed], Some(ColloidParams::default()));
    params.unloaded_ns = unloaded_ns(machine);
    build_system(SystemKind::Hemem, params)
}

fn add_core(
    machine: &mut Machine,
    stream: Box<dyn AccessStream>,
    cfg: CoreConfig,
    class: TrafficClass,
    traced: bool,
) -> usize {
    let stream: Box<dyn AccessStream> = if traced {
        Box::new(TimedStream(stream))
    } else {
        stream
    };
    machine.add_core(stream, cfg, class)
}

/// First-touch fill: the default tier first, then the alternate tier.
fn first_touch(machine: &mut Machine, ws: Range<Vpn>) {
    let mut free = machine.free_pages(TierId::DEFAULT);
    for vpn in ws {
        if free > 0 {
            machine.place(vpn, TierId::DEFAULT);
            free -= 1;
        } else {
            machine.place(vpn, TierId::ALTERNATE);
        }
    }
}

fn sim(
    machine: Machine,
    system: Box<dyn TieringSystem>,
    managed: Range<Vpn>,
    mapped: Vec<Range<Vpn>>,
) -> Sim {
    Sim {
        machine,
        control: Control::System { system, managed },
        mapped,
        tick: SimTime::from_us(TICK_US),
    }
}

/// §2.1: 15 GUPS cores on an 18432-page working set whose 6144-page hot
/// set starts in the alternate tier, plus 15 antagonist cores streaming a
/// 128-page buffer pinned to the default tier.
fn build_gups3x(seed: u64, traced: bool) -> Sim {
    let mut cfg = MachineConfig::with_alt_latency_ratio(1.9);
    cfg.seed = seed;
    let mut machine = Machine::new(cfg);

    let buf = AntagonistConfig::paper_default(0, 0).range();
    machine.place_range(buf.clone(), TierId::DEFAULT);
    for vpn in buf.clone() {
        machine.pin(vpn);
    }
    for i in 0..15 {
        let stream = AntagonistStream::new(AntagonistConfig::paper_default(0, i));
        add_core(
            &mut machine,
            Box::new(stream),
            CoreConfig::antagonist_default(),
            TrafficClass::Antagonist,
            traced,
        );
    }

    let mut gups = GupsConfig::paper_default(APP_BASE);
    gups.hot_offset = 9216;
    let ws = gups.ws_range();
    first_touch(&mut machine, ws.clone());
    for _ in 0..15 {
        let stream = GupsStream::new(gups.clone()).expect("paper GUPS config is valid");
        add_core(
            &mut machine,
            Box::new(stream),
            CoreConfig::app_default(),
            TrafficClass::App,
            traced,
        );
    }
    let system = hemem_colloid(&machine, ws.clone());
    sim(machine, system, ws.clone(), vec![buf, ws])
}

/// Figure 11: 15 PageRank workers, default tier a third of the working set.
fn build_pagerank0x(seed: u64, traced: bool) -> Sim {
    let graph = PageRankConfig::paper_default(APP_BASE);
    let ws = graph.ws_range();
    let ws_pages = ws.end - ws.start;
    let mut cfg = MachineConfig::icelake_two_tier();
    cfg.seed = seed;
    cfg.tiers[0].capacity_bytes = ws_pages / 3 * PAGE_SIZE;
    cfg.tiers[1].capacity_bytes = ws_pages * PAGE_SIZE;
    let mut machine = Machine::new(cfg);
    first_touch(&mut machine, ws.clone());
    for worker in 0..15 {
        add_core(
            &mut machine,
            Box::new(PageRankStream::new(graph.clone(), worker)),
            CoreConfig {
                demand_slots: 8,
                prefetch_slots: 20,
                think_time: SimTime::ZERO,
            },
            TrafficClass::App,
            traced,
        );
    }
    let system = hemem_colloid(&machine, ws.clone());
    sim(machine, system, ws.clone(), vec![ws])
}

/// Four cores flipping a 1024-page hot set between the two ends of a
/// 4096-page working set every 30 ticks (half the operations write), on a
/// 1536-page default tier with the transactional engine; HeMem+Colloid
/// under the supervisor.
fn build_churn_txn(seed: u64, traced: bool) -> Sim {
    const WS_PAGES: u64 = 4096;
    const HOT_PAGES: u64 = 1024;
    let mut cfg = MachineConfig::with_alt_latency_ratio(1.9);
    cfg.seed = seed;
    cfg.tiers[0].capacity_bytes = 1536 * PAGE_SIZE;
    cfg.tiers[1].capacity_bytes = (WS_PAGES + 1024) * PAGE_SIZE;
    cfg.engine = MigrationEngineConfig::transactional();
    let mut machine = Machine::new(cfg);

    let mut adv = AdversarialConfig::gauntlet_default(APP_BASE, SimTime::from_us(TICK_US * 30.0));
    adv.ws_pages = WS_PAGES;
    adv.hot_pages = HOT_PAGES;
    adv.offset_a = 0;
    adv.offset_b = WS_PAGES - HOT_PAGES;
    let ws = APP_BASE..APP_BASE + WS_PAGES;
    first_touch(&mut machine, ws.clone());
    for _ in 0..4 {
        let stream = AdversarialStream::new(adv.clone()).expect("adversarial config is valid");
        add_core(
            &mut machine,
            Box::new(stream),
            CoreConfig::app_default(),
            TrafficClass::App,
            traced,
        );
    }
    let inner = hemem_colloid(&machine, ws.clone());
    let system = Box::new(Supervisor::new(
        inner,
        SupervisorConfig::new(vec![ws.clone()]),
    ));
    sim(machine, system, ws.clone(), vec![ws])
}

/// The ls-antagonist mix: an 8-core GUPS batch tenant packed first (so it
/// starts owning the 1024-page fast tier) and a 4-core latency-sensitive
/// KV tenant, each with its own HeMem+Colloid shard, under the
/// strict-priority QoS arbiter, with the event ring, metrics hub and SLO
/// monitor attached.
fn build_colo_observed(seed: u64, traced: bool) -> Sim {
    let specs = [
        TenantSpec {
            name: "antag-gups",
            kind: WorkloadKind::Gups,
            ws_pages: 2048,
            hot_fraction: 0.75,
            cores: 8,
            slo: Slo::batch(0.9),
            policy: None,
        },
        TenantSpec {
            name: "ls-kv",
            kind: WorkloadKind::KvCache,
            ws_pages: 1024,
            hot_fraction: 0.2,
            cores: 4,
            slo: Slo::latency_sensitive(LS_P99_TARGET_NS, 0.35),
            policy: None,
        },
    ];
    let mut cfg = MachineConfig::icelake_two_tier();
    cfg.seed = seed;
    cfg.tiers[0].capacity_bytes = 1024 * PAGE_SIZE;
    cfg.tiers[1].capacity_bytes = 4096 * PAGE_SIZE;
    let mut machine = Machine::new(cfg);

    let mut base = APP_BASE;
    let instances: Vec<_> = specs
        .iter()
        .map(|spec| {
            let w = spec.instantiate(base);
            base = w.range().end;
            w
        })
        .collect();
    // First-touch top-down across the tenants, in packing order.
    first_touch(&mut machine, APP_BASE..base);

    let sink = telemetry::Sink::ring(1 << 16, 8);
    machine.set_telemetry(sink.clone());
    let hub = telemetry::MetricsHub::new();
    machine.set_metrics(hub.clone());

    let mut tenants = Vec::new();
    for (i, (spec, w)) in specs.iter().zip(&instances).enumerate() {
        let id = TenantId(i as u32);
        let range = w.range();
        sink.register_tenant_pages(range.clone(), id);
        let core_ids = (0..spec.cores)
            .map(|worker| {
                add_core(
                    &mut machine,
                    w.stream(worker as u64),
                    CoreConfig::app_default(),
                    TrafficClass::App,
                    traced,
                )
            })
            .collect();
        let mut system = hemem_colloid(&machine, range.clone());
        if traced {
            system = Box::new(TimedSystem(system));
        }
        system.set_telemetry(sink.clone());
        tenants.push(Tenant {
            id,
            spec: spec.clone(),
            range,
            core_ids,
            system,
        });
    }

    let arbiter = QosArbiter::new(
        ArbiterConfig {
            mode: ArbiterMode::StrictPriority,
            ..ArbiterConfig::default()
        },
        tenants
            .iter()
            .map(|t| (t.range.clone(), t.spec.slo, hook_chain(&t.spec.slo))),
    );
    machine.set_migration_gate(Some(arbiter.gate()));
    let mut colo = Colocation::new(tenants, Some(arbiter));
    colo.attach_slo_monitor(telemetry::BurnRateConfig::default(), SLO_OBJECTIVE, &sink);
    colo.set_metrics(hub.clone());

    let mapped = instances.iter().map(|w| w.range()).collect();
    Sim {
        machine,
        control: Control::Colo(Box::new(Observatory {
            colo,
            sink,
            hub,
            export_bytes: 0,
            ticks: 0,
        })),
        mapped,
        tick: SimTime::from_us(TICK_US),
    }
}

/// Ping-pong suppression for every tenant; batch tenants are also capped
/// at 48 admitted migrations per tick.
fn hook_chain(slo: &Slo) -> Vec<Box<dyn AdmissionHook>> {
    let mut hooks: Vec<Box<dyn AdmissionHook>> =
        vec![Box::new(PingPongSuppressor::new(SimTime::from_ms(1.0)))];
    if slo.class == SloClass::Batch {
        hooks.push(Box::new(RateCap::new(48)));
    }
    hooks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_derivation_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        // Pinned: changing these silently changes every workload's inputs.
        let seeds: Vec<u64> = Workload::ALL.iter().map(|w| w.machine_seed(1)).collect();
        assert_eq!(
            seeds,
            [
                0x26ac_e8a3_4b03_564d,
                0xc92b_e506_133b_6950,
                0xb40d_5b89_7ed4_c5d2,
                0x0fb6_c967_4e9e_a7de
            ]
        );
        assert_ne!(Workload::Gups3x.machine_seed(2), seeds[0]);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("gups"), None);
    }
}
