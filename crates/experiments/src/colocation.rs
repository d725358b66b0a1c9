//! Multi-tenant colocation grid (`grid colocation`): 2–4 tenants
//! sharing one two-tier machine, every tiering system ± Colloid ± the
//! QoS arbiter.
//!
//! Each tenant runs its own workload over its own page range with its
//! own sharded tiering system (own hotness bins; own Colloid `p` when
//! enabled). The grid measures, per tenant, the p99 of its per-tick
//! line-weighted access latency, its fast-tier share against its
//! declared entitlement, and an *isolation score* — the ratio of its
//! colocated p99 to the p99 it achieves running alone on the same
//! machine (1.0 = perfect isolation, higher = interference).
//!
//! Three mixes stress different arbitration questions:
//!
//! - **ls-antagonist** — a latency-sensitive KV cache behind a churning
//!   GUPS antagonist that wants the whole fast tier. The SLO smoke gate
//!   lives here: bare colocation must violate the KV tenant's p99
//!   target, the arbitrated run must restore it.
//! - **binpack** — three standard tenants oversubscribing the fast tier
//!   under weighted-fair arbitration.
//! - **isolation** — four tenants across all SLO classes, strict
//!   priority: floors protect the latency-sensitive tenant, ceilings
//!   and hooks (rate cap + ping-pong suppression) muzzle the batch one.
//!
//! Cells tick through [`ColoExperiment::step`], not
//! [`crate::runner::run`]: a tick here drives `Colocation::on_tick`
//! (the QoS arbiter and every tenant's tiering system), not one system.
//! The single-tenant digest gate pins that the `Colocation` wrapper is
//! behaviourally inert: one tenant, no arbiter, must be bit-identical to
//! driving the tiering system directly, and to the committed golden
//! digest.

use memsim::{CoreConfig, Machine, MachineConfig, TickReport, TrafficClass, Vpn, PAGE_SIZE};
use simkit::SimTime;
use tenancy::{
    AdmissionHook, ArbiterConfig, ArbiterMode, Colocation, PingPongSuppressor, QosArbiter, RateCap,
    Slo, SloClass, Tenant, TenantId, TenantSpec, WorkloadKind,
};
use tiersys::{build_system, ColloidParams, SystemKind};

use crate::grid::{Bench, Ctx, EndState, Harness, Opts};
use crate::report::{fnv1a, p99, Table, FNV_OFFSET};
use crate::scenario::{fill_down, system_params};

/// First page of the first tenant's range (tenants pack back to back).
const APP_BASE: Vpn = 1024;

/// The latency target of the `ls-antagonist` mix's KV tenant, in ns.
/// Calibrated between the loaded latency the tenant sees once the
/// arbiter holds it at its fast-tier floor (87–125 ns across systems)
/// and the latency it degrades to when the antagonist owns the whole
/// fast tier (169–173 ns).
const LS_P99_TARGET_NS: f64 = 145.0;

/// Shape of one colocation grid point.
#[derive(Debug, Clone)]
pub struct ColocationScenario {
    /// Mix name ("ls-antagonist", "binpack", "isolation").
    pub name: &'static str,
    /// Fast-tier capacity in pages.
    pub fast_pages: u64,
    /// Slow-tier capacity in pages.
    pub slow_pages: u64,
    /// Tenants, id order. Ranges pack back to back from `APP_BASE` and
    /// first-touch-fill the machine top-down, so earlier tenants start
    /// resident in the fast tier.
    pub tenants: Vec<TenantSpec>,
    /// Arbitration discipline used when the arbiter is enabled.
    pub mode: ArbiterMode,
    /// Ticks before measurement starts.
    pub warmup_ticks: usize,
    /// Measurement window, in ticks.
    pub measure_ticks: usize,
    /// Root RNG seed.
    pub seed: u64,
}

/// The three paper-style mixes; `quick` shrinks the time axis for CI.
pub fn mixes(quick: bool) -> Vec<ColocationScenario> {
    let (warmup, measure) = ticks(quick);
    vec![
        ColocationScenario {
            name: "ls-antagonist",
            fast_pages: 1024,
            slow_pages: 4096,
            tenants: vec![
                // The antagonist packs first, so it starts owning the
                // fast tier and the KV tenant must win it back.
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
            ],
            mode: ArbiterMode::StrictPriority,
            warmup_ticks: warmup,
            measure_ticks: measure,
            seed: 0xC0_10,
        },
        ColocationScenario {
            name: "binpack",
            fast_pages: 1024,
            slow_pages: 4096,
            tenants: vec![
                TenantSpec {
                    name: "bp-gups",
                    kind: WorkloadKind::Gups,
                    ws_pages: 768,
                    hot_fraction: 0.25,
                    cores: 3,
                    slo: Slo::standard(),
                    policy: None,
                },
                TenantSpec {
                    name: "bp-silo",
                    kind: WorkloadKind::Silo,
                    ws_pages: 768,
                    hot_fraction: 0.25,
                    cores: 3,
                    slo: Slo::standard(),
                    policy: None,
                },
                TenantSpec {
                    name: "bp-graph",
                    kind: WorkloadKind::PageRank,
                    ws_pages: 768,
                    hot_fraction: 0.25,
                    cores: 3,
                    slo: Slo::standard(),
                    policy: None,
                },
            ],
            mode: ArbiterMode::WeightedFair,
            warmup_ticks: warmup,
            measure_ticks: measure,
            seed: 0xC0_11,
        },
        ColocationScenario {
            name: "isolation",
            fast_pages: 1024,
            slow_pages: 6144,
            tenants: vec![
                TenantSpec {
                    name: "iso-batch",
                    kind: WorkloadKind::Gups,
                    ws_pages: 1024,
                    hot_fraction: 0.8,
                    cores: 4,
                    slo: Slo::batch(0.4),
                    policy: None,
                },
                TenantSpec {
                    name: "iso-silo",
                    kind: WorkloadKind::Silo,
                    ws_pages: 512,
                    hot_fraction: 0.25,
                    cores: 3,
                    slo: Slo::latency_sensitive(f64::INFINITY, 0.5),
                    policy: None,
                },
                TenantSpec {
                    name: "iso-adaptive",
                    kind: WorkloadKind::Adaptive,
                    ws_pages: 768,
                    hot_fraction: 0.25,
                    cores: 2,
                    slo: Slo::standard(),
                    policy: None,
                },
                TenantSpec {
                    name: "iso-kv",
                    kind: WorkloadKind::KvCache,
                    ws_pages: 768,
                    hot_fraction: 0.2,
                    cores: 2,
                    slo: Slo::standard(),
                    policy: None,
                },
            ],
            mode: ArbiterMode::StrictPriority,
            warmup_ticks: warmup,
            measure_ticks: measure,
            seed: 0xC0_12,
        },
    ]
}

fn ticks(quick: bool) -> (usize, usize) {
    if quick {
        (250, 100)
    } else {
        (800, 200)
    }
}

/// A runnable colocation cell.
pub struct ColoExperiment {
    /// The shared machine.
    pub machine: Machine,
    /// Tenants + optional arbiter.
    pub colo: Colocation,
    /// Telemetry sink (tenant page map registered; disabled by default).
    pub sink: telemetry::Sink,
    /// Machine tick.
    pub tick: SimTime,
}

impl ColoExperiment {
    /// One machine tick + the colocation reaction. Its own tick function
    /// rather than [`crate::Experiment::step`]: it drives
    /// `Colocation::on_tick` over every tenant, not one tiering system.
    pub fn step(&mut self) -> TickReport {
        let report = self.machine.run_tick(self.tick);
        self.colo
            .on_tick(&mut self.machine, &report, Some(&self.sink));
        report
    }
}

/// The per-tenant admission-hook chain used in arbitrated cells: every
/// tenant gets ping-pong suppression; batch tenants also get a per-tick
/// migration rate cap.
fn hook_chain(slo: &Slo) -> Vec<Box<dyn AdmissionHook>> {
    let mut hooks: Vec<Box<dyn AdmissionHook>> =
        vec![Box::new(PingPongSuppressor::new(SimTime::from_ms(1.0)))];
    if slo.class == SloClass::Batch {
        hooks.push(Box::new(RateCap::new(48)));
    }
    hooks
}

/// Builds one cell: the two-tier machine, packed tenant ranges
/// (first-touch-filled top-down), one sharded tiering system per tenant,
/// and — when `arbiter` — the QoS gate installed on the machine.
pub fn build(
    sc: &ColocationScenario,
    kind: SystemKind,
    colloid: bool,
    arbiter: bool,
) -> ColoExperiment {
    let mut cfg = MachineConfig::icelake_two_tier();
    cfg.tiers[0].capacity_bytes = sc.fast_pages * PAGE_SIZE;
    cfg.tiers[1].capacity_bytes = sc.slow_pages * PAGE_SIZE;
    cfg.seed = sc.seed;
    cfg.validate().expect("two-tier preset must validate");
    let mut machine = Machine::new(cfg);

    // Pack tenant ranges back to back.
    let mut base = APP_BASE;
    let workloads: Vec<_> = sc
        .tenants
        .iter()
        .map(|spec| {
            let w = spec.instantiate(base);
            base = w.range().end;
            w
        })
        .collect();

    // First-touch fill top-down: the fast tier fills first, so earlier
    // tenants start resident there.
    fill_down(&mut machine, workloads.iter().flat_map(|w| w.range()), 0);

    let sink = telemetry::Sink::default();
    machine.set_telemetry(sink.clone());

    let mut tenants = Vec::new();
    for (i, (spec, w)) in sc.tenants.iter().zip(&workloads).enumerate() {
        let id = TenantId(i as u32);
        let range = w.range();
        sink.register_tenant_pages(range.clone(), id);
        let mut core_ids = Vec::new();
        for worker in 0..spec.cores {
            core_ids.push(machine.add_core(
                w.stream(worker as u64),
                CoreConfig::app_default(),
                TrafficClass::App,
            ));
        }
        let mut params = system_params(
            &machine,
            vec![range.clone()],
            colloid.then(ColloidParams::default),
        );
        params.policy = spec.policy;
        let mut system = build_system(kind, params);
        system.set_telemetry(sink.clone());
        tenants.push(Tenant {
            id,
            spec: spec.clone(),
            range,
            core_ids,
            system,
        });
    }

    let arb = arbiter.then(|| {
        let arb = QosArbiter::new(
            ArbiterConfig {
                mode: sc.mode,
                ..ArbiterConfig::default()
            },
            tenants
                .iter()
                .map(|t| (t.range.clone(), t.spec.slo, hook_chain(&t.spec.slo))),
        );
        machine.set_migration_gate(Some(arb.gate()));
        arb
    });

    ColoExperiment {
        machine,
        colo: Colocation::new(tenants, arb),
        sink,
        tick: SimTime::from_us(100.0),
    }
}

/// Steady-state observation of one tenant at the end of a cell.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// Tenant name.
    pub name: &'static str,
    /// SLO class name.
    pub class: &'static str,
    /// p99 of the tenant's per-tick mean access latency over the
    /// measurement window (`None` if the tenant was always idle).
    pub p99_ns: Option<f64>,
    /// The tenant's declared p99 target (infinite = no target).
    pub p99_target_ns: f64,
    /// Fraction of the tenant's pages in the fast tier at the end.
    pub fast_share: f64,
    /// Declared fast-share floor (the entitlement).
    pub floor: f64,
    /// Declared fast-share ceiling.
    pub ceiling: f64,
    /// Operations completed during the measurement window.
    pub measure_ops: u64,
    /// Colocated p99 / solo p99 (1.0 = perfect isolation); `None` until
    /// scored against a solo reference.
    pub isolation: Option<f64>,
    /// Vetoes by the tenant's own hooks (arbitrated cells only).
    pub hook_vetoes: u64,
    /// Vetoes by the fairness policy (arbitrated cells only).
    pub policy_vetoes: u64,
}

/// Result of one (mix, system, colloid, arbiter) cell.
#[derive(Debug, Clone)]
pub struct ColoResult {
    /// Mix name.
    pub mix: &'static str,
    /// Policy display name ("HeMem", "TPP+Colloid", ...).
    pub system: String,
    /// Whether the QoS arbiter was installed.
    pub arbiter: bool,
    /// Per-tenant outcomes, id order.
    pub tenants: Vec<TenantOutcome>,
    /// Pages the arbiter's rebalancer demoted over the run.
    pub reclaimed_pages: u64,
    /// End state over every tenant's pages.
    pub end: EndState,
}

impl ColoResult {
    /// The latency-sensitive tenants' outcomes.
    pub fn latency_sensitive(&self) -> impl Iterator<Item = &TenantOutcome> {
        self.tenants
            .iter()
            .filter(|t| t.class == SloClass::LatencySensitive.name())
    }
}

/// Runs one cell to completion and measures every tenant.
pub fn run_cell(
    sc: &ColocationScenario,
    kind: SystemKind,
    colloid: bool,
    arbiter: bool,
) -> ColoResult {
    let mut exp = build(sc, kind, colloid, arbiter);
    let system = exp.colo.tenants[0].system.name();

    for _ in 0..sc.warmup_ticks {
        exp.step();
    }

    let n = exp.colo.tenants.len();
    let mut lat_samples: Vec<Vec<f64>> = vec![Vec::with_capacity(sc.measure_ticks); n];
    let ops_before: Vec<u64> = exp
        .colo
        .tenants
        .iter()
        .map(|t| t.total_ops(&exp.machine))
        .collect();
    for _ in 0..sc.measure_ticks {
        let report = exp.step();
        for (i, t) in exp.colo.tenants.iter().enumerate() {
            if let Some(l) = t.tick_latency_ns(&exp.machine, &report) {
                lat_samples[i].push(l);
            }
        }
    }

    let arb_reports = exp.colo.arbiter.as_ref().map(|a| a.reports());
    let tenants = exp
        .colo
        .tenants
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let (hv, pv) = arb_reports
                .as_ref()
                .map(|r| (r[i].hook_vetoes, r[i].policy_vetoes))
                .unwrap_or((0, 0));
            TenantOutcome {
                name: t.spec.name,
                class: t.spec.slo.class.name(),
                p99_ns: p99(&mut lat_samples[i]),
                p99_target_ns: t.spec.slo.p99_target_ns,
                fast_share: t.fast_share(&exp.machine),
                floor: t.spec.slo.fast_share_floor,
                ceiling: t.spec.slo.fast_share_ceiling,
                measure_ops: t.total_ops(&exp.machine) - ops_before[i],
                isolation: None,
                hook_vetoes: hv,
                policy_vetoes: pv,
            }
        })
        .collect();

    let systems: Vec<_> = exp
        .colo
        .tenants
        .iter()
        .map(|t| (&*t.system, t.range.clone()))
        .collect();
    ColoResult {
        mix: sc.name,
        system,
        arbiter,
        tenants,
        reclaimed_pages: exp.colo.arbiter.as_ref().map_or(0, |a| a.reclaimed_pages),
        end: EndState::of(&exp.machine, &systems),
    }
}

/// Formats the grid as the per-tenant score table.
pub fn render(results: &[ColoResult]) -> String {
    let mut t = Table::new(vec![
        "mix",
        "system",
        "arb",
        "tenant",
        "class",
        "p99 (ns)",
        "target",
        "fast%",
        "floor..ceil",
        "isol",
        "Mops",
        "vetoes h/p",
    ]);
    for r in results {
        for o in &r.tenants {
            t.row(vec![
                r.mix.into(),
                r.system.clone(),
                if r.arbiter { "qos" } else { "-" }.into(),
                o.name.into(),
                o.class.into(),
                o.p99_ns.map_or("idle".into(), |l| format!("{l:.0}")),
                if o.p99_target_ns.is_finite() {
                    format!("{:.0}", o.p99_target_ns)
                } else {
                    "-".into()
                },
                format!("{:.0}%", o.fast_share * 100.0),
                format!("{:.0}%..{:.0}%", o.floor * 100.0, o.ceiling * 100.0),
                o.isolation.map_or("-".into(), |s| format!("{s:.2}")),
                format!("{:.1}", o.measure_ops as f64 / 1e6),
                format!("{}/{}", o.hook_vetoes, o.policy_vetoes),
            ]);
        }
    }
    t.render()
}

// ---------------------------------------------------------------------
// Single-tenant bit-identity gate.
// ---------------------------------------------------------------------

/// The pinned single-tenant scenario (fixed time axis regardless of
/// quick/full mode, so the digest is stable everywhere).
pub fn single_tenant_scenario() -> ColocationScenario {
    ColocationScenario {
        name: "single",
        fast_pages: 512,
        slow_pages: 2048,
        tenants: vec![TenantSpec {
            name: "solo-kv",
            kind: WorkloadKind::KvCache,
            ws_pages: 1024,
            hot_fraction: 0.2,
            cores: 4,
            slo: Slo::latency_sensitive(LS_P99_TARGET_NS, 0.35),
            policy: None,
        }],
        mode: ArbiterMode::StrictPriority,
        warmup_ticks: 120,
        measure_ticks: 60,
        seed: 0xC0_5010,
    }
}

/// FNV-1a digest of the machine's end state: every owned page's tier,
/// every core's completed ops, and the migration counters.
fn machine_digest(machine: &Machine, ranges: &[std::ops::Range<Vpn>], n_cores: usize) -> u64 {
    let mut h = FNV_OFFSET;
    let mut mix = |x: u64| h = fnv1a(h, &x.to_le_bytes());
    for r in ranges {
        for vpn in r.clone() {
            mix(vpn);
            mix(machine.tier_of(vpn).map_or(u64::MAX, |t| u64::from(t.0)));
        }
    }
    for core in 0..n_cores {
        mix(machine.core_ops(core));
    }
    let m = machine.migration_counters();
    for x in [
        m.started,
        m.completed,
        m.aborted(),
        m.dirty_retries,
        m.failovers,
        m.commit_batches,
        m.batched_pages,
    ] {
        mix(x);
    }
    h
}

/// Digest of the single-tenant scenario run through the [`Colocation`]
/// wrapper (no arbiter, no gate).
pub fn digest_via_colocation(kind: SystemKind, colloid: bool) -> u64 {
    let sc = single_tenant_scenario();
    let mut exp = build(&sc, kind, colloid, false);
    for _ in 0..sc.warmup_ticks + sc.measure_ticks {
        exp.step();
    }
    let ranges: Vec<_> = exp.colo.tenants.iter().map(|t| t.range.clone()).collect();
    let n_cores = exp.colo.tenants.iter().map(|t| t.core_ids.len()).sum();
    machine_digest(&exp.machine, &ranges, n_cores)
}

/// Digest of the single-tenant run with the full observability stack
/// live — an enabled [`telemetry::MetricsHub`] through every layer and
/// a burn-rate monitor on the tenant's objective. Recording is passive,
/// so this must equal [`digest_via_colocation`] bit for bit.
pub fn digest_via_colocation_observed(kind: SystemKind, colloid: bool) -> u64 {
    let sc = single_tenant_scenario();
    let mut exp = build(&sc, kind, colloid, false);
    let hub = telemetry::MetricsHub::new();
    exp.machine.set_metrics(hub.clone());
    exp.colo
        .attach_slo_monitor(telemetry::BurnRateConfig::default(), 0.95, &exp.sink);
    exp.colo.set_metrics(hub);
    for _ in 0..sc.warmup_ticks + sc.measure_ticks {
        exp.step();
    }
    let ranges: Vec<_> = exp.colo.tenants.iter().map(|t| t.range.clone()).collect();
    let n_cores = exp.colo.tenants.iter().map(|t| t.core_ids.len()).sum();
    machine_digest(&exp.machine, &ranges, n_cores)
}

/// Digest of the same scenario driving the tenant's tiering system
/// directly — the seed path, with no colocation layer in the loop.
pub fn digest_direct(kind: SystemKind, colloid: bool) -> u64 {
    let sc = single_tenant_scenario();
    let mut exp = build(&sc, kind, colloid, false);
    let mut tenant = exp.colo.tenants.remove(0);
    for _ in 0..sc.warmup_ticks + sc.measure_ticks {
        let report = exp.machine.run_tick(exp.tick);
        tenant.system.on_tick(&mut exp.machine, &report);
    }
    machine_digest(&exp.machine, &[tenant.range.clone()], tenant.core_ids.len())
}

/// The committed golden digest for the single-tenant HeMem+Colloid run.
pub fn golden_digest_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/colocation_single_digest.txt")
}

/// The harness's own `--smoke` gates (page conservation is the
/// driver's). Returns the failures (empty = pass):
///
/// 1. **bounded shares** — no tenant's fast-tier share leaves `[0, 1]`;
/// 2. **SLO separation** — in the `ls-antagonist` mix, at least one bare
///    run violates the KV tenant's p99 target, and every arbitrated run
///    whose bare twin violates it meets the target;
/// 3. **wrapper inertia** — the single-tenant colocation run is
///    bit-identical to driving the tiering system directly, and matches
///    the committed golden digest.
pub fn smoke_failures(results: &[ColoResult]) -> Vec<String> {
    let mut fails = Vec::new();

    for r in results {
        for t in &r.tenants {
            if !(0.0..=1.0).contains(&t.fast_share) {
                fails.push(format!(
                    "{}/{}: tenant {} fast share {} outside [0,1]",
                    r.mix, r.system, t.name, t.fast_share
                ));
            }
        }
    }

    let contended: Vec<_> = results
        .iter()
        .filter(|r| r.mix == "ls-antagonist")
        .collect();
    if !contended.is_empty() {
        let mut any_bare_violation = false;
        for bare in contended.iter().filter(|r| !r.arbiter) {
            let Some(ls) = bare.latency_sensitive().next() else {
                continue;
            };
            let violated = ls.p99_ns.is_none_or(|p| p > ls.p99_target_ns);
            if !violated {
                continue;
            }
            any_bare_violation = true;
            let twin = contended
                .iter()
                .find(|r| r.arbiter && r.system == bare.system);
            match twin.and_then(|r| r.latency_sensitive().next()) {
                Some(arb_ls) => {
                    if arb_ls.p99_ns.is_none_or(|p| p > arb_ls.p99_target_ns) {
                        fails.push(format!(
                            "ls-antagonist/{}: arbiter leaves the LS tenant out of SLO \
                             (p99 {:?} ns vs target {:.0})",
                            bare.system, arb_ls.p99_ns, arb_ls.p99_target_ns
                        ));
                    }
                }
                None => fails.push(format!(
                    "ls-antagonist/{}: no arbitrated twin cell found",
                    bare.system
                )),
            }
        }
        if !any_bare_violation {
            fails.push(
                "ls-antagonist: no bare run violates the LS p99 target — the mix is \
                 not contended enough to test the arbiter"
                    .into(),
            );
        }
    }

    let via = digest_via_colocation(SystemKind::Hemem, true);
    let direct = digest_direct(SystemKind::Hemem, true);
    if via != direct {
        fails.push(format!(
            "single-tenant digest mismatch: colocation wrapper {via:016x} vs direct {direct:016x}"
        ));
    }
    match std::fs::read_to_string(golden_digest_path()) {
        Ok(golden) => {
            let golden = golden.trim();
            let got = format!("{via:016x}");
            if golden != got {
                fails.push(format!(
                    "single-tenant digest {got} does not match golden {golden} \
                     (regenerate with --regen only for intended behaviour changes)"
                ));
            }
        }
        Err(e) => fails.push(format!(
            "golden digest unreadable at {}: {e}",
            golden_digest_path().display()
        )),
    }

    fails
}

/// One cell of the colocation grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell {
    /// `(mix index, system, colloid, arbiter)`: a mix colocated.
    Mix(usize, SystemKind, bool, bool),
    /// `(tenant, system, colloid)`: one tenant alone on its mix's machine
    /// without the arbiter, the reference its isolation is scored against.
    /// Tenant names are unique across the mixes.
    Solo(&'static str, SystemKind, bool),
}

/// The colocation grid (`grid colocation`): every mix × system ×
/// ±Colloid × ±arbiter, then each tenant's solo reference under every
/// system ± Colloid, against which `finish` scores its isolation.
pub struct Grid(pub Opts);

impl Harness for Grid {
    type Cell = Cell;
    type Outcome = ColoResult;

    fn preamble(&mut self) -> Result<String, String> {
        let mut out = String::new();
        for sc in &mixes(self.0.quick) {
            out.push_str(&format!(
                "mix {}: {} tenants, fast {} / slow {} pages, {} mode{}\n",
                sc.name,
                sc.tenants.len(),
                sc.fast_pages,
                sc.slow_pages,
                sc.mode.name(),
                if self.0.quick { " (quick)" } else { "" },
            ));
        }
        Ok(out)
    }

    fn cells(&self) -> Vec<(String, Cell)> {
        let mut cells = Vec::new();
        let mut solos = Vec::new();
        for (mix, sc) in mixes(self.0.quick).iter().enumerate() {
            for kind in SystemKind::ALL {
                for colloid in [false, true] {
                    let policy = crate::Policy::System { kind, colloid }.name();
                    for arbiter in [false, true] {
                        let qos = if arbiter { "+qos" } else { "" };
                        let label = format!("{}/{policy}{qos}", sc.name);
                        cells.push((label, Cell::Mix(mix, kind, colloid, arbiter)));
                    }
                    for t in &sc.tenants {
                        let label = format!("solo/{}/{policy}", t.name);
                        solos.push((label, Cell::Solo(t.name, kind, colloid)));
                    }
                }
            }
        }
        cells.extend(solos);
        cells
    }

    fn run(&self, cell: &Cell) -> ColoResult {
        let mixes = mixes(self.0.quick);
        match *cell {
            Cell::Mix(mix, kind, colloid, arbiter) => run_cell(&mixes[mix], kind, colloid, arbiter),
            Cell::Solo(name, kind, colloid) => {
                let (sc, spec) = mixes
                    .iter()
                    .find_map(|sc| Some((sc, sc.tenants.iter().find(|t| t.name == name)?)))
                    .expect("a solo cell names a tenant of some mix");
                let solo = ColocationScenario {
                    tenants: vec![spec.clone()],
                    ..sc.clone()
                };
                run_cell(&solo, kind, colloid, false)
            }
        }
    }

    fn end_state(outcome: &ColoResult) -> &EndState {
        &outcome.end
    }

    fn finish(&mut self, results: Vec<(Cell, ColoResult)>, ctx: &mut Ctx) -> Vec<String> {
        let solo_p99 = |name, kind, colloid| {
            let solo = results
                .iter()
                .find(|(c, _)| *c == Cell::Solo(name, kind, colloid));
            solo.expect("every tenant has a solo cell").1.tenants[0].p99_ns
        };
        let mut scored = Vec::new();
        for (cell, r) in &results {
            let &Cell::Mix(_, kind, colloid, _) = cell else {
                continue;
            };
            let mut r = r.clone();
            for t in &mut r.tenants {
                t.isolation = match (t.p99_ns, solo_p99(t.name, kind, colloid)) {
                    (Some(c), Some(s)) if s > 0.0 => Some(c / s),
                    _ => None,
                };
            }
            scored.push(r);
        }
        if self.0.smoke {
            ctx.failures.extend(smoke_failures(&scored));
        }
        vec![render(&scored)]
    }

    /// One contended-mix cell per system, arbitrated, with Colloid.
    fn bench(&self) -> Option<Bench<Self::Cell>> {
        let sc = &mixes(true)[0];
        Some(Bench {
            scenario: format!("{} (quick axis)", sc.name),
            ticks: sc.warmup_ticks + sc.measure_ticks,
            pinned: |&c| matches!(c, Cell::Mix(0, _, true, true)),
        })
    }

    fn bench_fields(&self, r: &ColoResult) -> Vec<(&'static str, f64)> {
        let ls_p99 = r
            .latency_sensitive()
            .next()
            .and_then(|t| t.p99_ns)
            .unwrap_or(f64::NAN);
        vec![
            ("ls_p99_ns", ls_p99),
            ("reclaimed_pages", r.reclaimed_pages as f64),
        ]
    }

    /// Rewrites the single-tenant golden digest (only for intended
    /// behaviour changes).
    fn regen(&self) -> Result<String, String> {
        let digest = digest_via_colocation(SystemKind::Hemem, true);
        let path = golden_digest_path();
        std::fs::write(&path, format!("{digest:016x}\n"))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(format!(
            "golden digest {digest:016x} written to {}",
            path.display()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::TierId;

    fn tiny() -> ColocationScenario {
        ColocationScenario {
            name: "ls-antagonist",
            fast_pages: 512,
            slow_pages: 2048,
            tenants: vec![
                TenantSpec {
                    name: "antag-gups",
                    kind: WorkloadKind::Gups,
                    ws_pages: 1024,
                    hot_fraction: 0.75,
                    cores: 4,
                    slo: Slo::batch(0.9),
                    policy: None,
                },
                TenantSpec {
                    name: "ls-kv",
                    kind: WorkloadKind::KvCache,
                    ws_pages: 512,
                    hot_fraction: 0.2,
                    cores: 2,
                    slo: Slo::latency_sensitive(LS_P99_TARGET_NS, 0.35),
                    policy: None,
                },
            ],
            mode: ArbiterMode::StrictPriority,
            warmup_ticks: 60,
            measure_ticks: 30,
            seed: 11,
        }
    }

    #[test]
    fn build_shards_one_system_per_tenant_and_packs_ranges() {
        let sc = tiny();
        let exp = build(&sc, SystemKind::Hemem, true, true);
        assert_eq!(exp.colo.tenants.len(), 2);
        assert!(exp.colo.arbiter.is_some());
        let t0 = &exp.colo.tenants[0];
        let t1 = &exp.colo.tenants[1];
        assert_eq!(t0.range.start, APP_BASE);
        assert_eq!(t1.range.start, t0.range.end, "ranges pack back to back");
        assert_eq!(t0.system.name(), "HeMem+Colloid");
        // First tenant first-touch-filled the fast tier.
        assert_eq!(exp.machine.tier_of(APP_BASE), Some(TierId(0)));
        assert_eq!(exp.machine.tier_of(t1.range.start), Some(TierId(1)));
    }

    #[test]
    fn cells_conserve_pages_and_bound_shares() {
        let sc = tiny();
        for arbiter in [false, true] {
            let r = run_cell(&sc, SystemKind::Hemem, true, arbiter);
            assert!(r.end.conserved());
            for t in &r.tenants {
                assert!((0.0..=1.0).contains(&t.fast_share));
                assert!(t.measure_ops > 0, "tenant {} made no progress", t.name);
            }
        }
    }

    #[test]
    fn arbiter_moves_the_ls_tenant_toward_its_floor() {
        let sc = tiny();
        let bare = run_cell(&sc, SystemKind::Hemem, true, false);
        let qos = run_cell(&sc, SystemKind::Hemem, true, true);
        let share = |r: &ColoResult| r.latency_sensitive().next().unwrap().fast_share;
        assert!(
            share(&qos) > share(&bare),
            "arbiter should raise the LS fast share ({} vs {})",
            share(&qos),
            share(&bare)
        );
    }

    #[test]
    fn single_tenant_colocation_is_bit_identical_to_direct() {
        assert_eq!(
            digest_via_colocation(SystemKind::Hemem, true),
            digest_direct(SystemKind::Hemem, true)
        );
    }
}
