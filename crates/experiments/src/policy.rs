//! Hotness-policy head-to-head shoot-out (`grid policy`).
//!
//! The policy layer (DESIGN.md §17) factors "which pages are hot" out of
//! the three tiering systems into a pluggable [`tiersys::HotnessPolicy`].
//! This harness answers the question that refactor exists to ask: *does
//! the tracking structure matter once the migration mechanism is fixed?*
//!
//! The matrix runs every policy (the three extracted defaults plus
//! CLOCK, LRU and SIEVE) under every system (HeMem/TPP/MEMTIS vanilla
//! placement, so the policy's hot-set call directly drives migration) on
//! five traces:
//!
//! - **gups** — static 90/10 hot set ([`workloads::GupsStream`]);
//! - **graph** — PageRank over a power-law graph, rank pages hot
//!   ([`workloads::PageRankStream`]);
//! - **kvcache** — CacheLib-style lookup/update mix
//!   ([`workloads::KvCacheStream`]);
//! - **adaptive** — scheduled hot-set rotation
//!   ([`workloads::PhaseShiftStream`]), scored on per-shift
//!   time-to-equilibrium like the gauntlet;
//! - **scan** — a 90/10 resident hot set interrupted every fourth phase
//!   by a sequential sweep over the cold region (`ScanStream`): the
//!   adversarial trace for recency-based tracking, where LRU promotes
//!   the sweep and SIEVE's hit-streak gate does not.
//!
//! Cells are scored on throughput, p99 per-tick latency, wasted
//! migration work (provenance round trips), adaptive-trace TTE, and the
//! policy's own tracking-overhead counters. `--smoke` gates the
//! extracted defaults' bit-identity (explicit selection vs `None`),
//! page conservation in every cell, SIEVE beating LRU on scan-trace
//! wasted work under HeMem, and a live mid-run policy swap
//! ([`swap_drill`]) completing without losing pages.

use memsim::{
    AccessStream, CoreConfig, ObjectAccess, TrafficClass, Vpn, LINES_PER_PAGE, LINE_SIZE, PAGE_SIZE,
};
use rand::rngs::SmallRng;
use rand::Rng;
use simkit::SimTime;
use tiersys::{build_system, PolicyKind, PolicyProbe, SystemKind};
use workloads::{
    GupsConfig, GupsStream, KvCacheConfig, KvCacheStream, PageRankConfig, PageRankStream,
    PhaseShiftConfig, PhaseShiftStream,
};

use crate::degradation::time_avg_latency_ns;
use crate::gauntlet::{run_digest, tte_over_shifts};
use crate::grid::{Bench, Ctx, EndState, Harness, Opts};
use crate::report::{p99, Table};
use crate::runner::{run as run_exp, RunConfig};
use crate::scenario::{small_two_tier, system_params, Experiment};

/// First page of the application's working set.
const APP_BASE: Vpn = 1024;
/// Event-ring capacity per cell.
const EVENT_CAP: usize = 200_000;
/// Probe observation period (ticks) in the swap drill.
const PROBE_PERIOD: usize = 10;

/// Shape of the shoot-out.
#[derive(Debug, Clone)]
pub struct PolicyScenario {
    /// Application working-set pages.
    pub ws_pages: u64,
    /// Hot-set pages of the hot/cold traces.
    pub hot_pages: u64,
    /// Default-tier capacity in pages (< `ws_pages` so placement
    /// decisions matter).
    pub default_pages: u64,
    /// Application cores per cell.
    pub app_cores: usize,
    /// Ticks per matrix cell.
    pub run_ticks: usize,
    /// Hot-set rotation period of the adaptive trace, in ticks.
    pub phase_period_ticks: u64,
    /// Phase length of the scan trace, in ticks (every fourth phase is a
    /// sequential sweep).
    pub scan_period_ticks: u64,
    /// Root RNG seed.
    pub seed: u64,
}

impl PolicyScenario {
    /// The default shoot-out; `quick` shrinks the time axis for CI.
    pub fn paper_default(quick: bool) -> Self {
        PolicyScenario {
            ws_pages: 2048,
            hot_pages: 512,
            default_pages: 768,
            app_cores: 2,
            run_ticks: if quick { 120 } else { 300 },
            phase_period_ticks: 40,
            scan_period_ticks: 24,
            seed: 0x70_11C7,
        }
    }

    /// The machine tick (the same base quantum every other driver uses).
    pub fn tick(&self) -> SimTime {
        SimTime::from_us(100.0)
    }

    /// Working-set page range.
    pub fn ws_range(&self) -> std::ops::Range<Vpn> {
        APP_BASE..APP_BASE + self.ws_pages
    }

    /// Simulated length of one matrix cell.
    pub fn horizon(&self) -> SimTime {
        self.tick() * self.run_ticks as u64
    }
}

/// The five trace columns of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyTrace {
    /// Static 90/10 hot set.
    Gups,
    /// PageRank: small hot rank region, huge cold edge region.
    Graph,
    /// Key-value cache lookup/update mix.
    KvCache,
    /// Scheduled hot-set rotation (the only scored-TTE column).
    Adaptive,
    /// Hot/cold punctuated by periodic sequential sweeps of the cold
    /// region — adversarial for recency-based policies.
    Scan,
}

impl PolicyTrace {
    /// Every column, in display order.
    pub const ALL: [PolicyTrace; 5] = [
        PolicyTrace::Gups,
        PolicyTrace::Graph,
        PolicyTrace::KvCache,
        PolicyTrace::Adaptive,
        PolicyTrace::Scan,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            PolicyTrace::Gups => "gups",
            PolicyTrace::Graph => "graph",
            PolicyTrace::KvCache => "kvcache",
            PolicyTrace::Adaptive => "adaptive",
            PolicyTrace::Scan => "scan",
        }
    }
}

/// 90/10 hot/cold with every fourth [`PolicyScenario::scan_period_ticks`]
/// phase replaced by a sequential cursor sweep over the cold region —
/// a one-shot scan that a recency policy mistakes for heat.
struct ScanStream {
    base: Vpn,
    hot: u64,
    total: u64,
    period_ps: u64,
    cursor: u64,
}

impl AccessStream for ScanStream {
    fn next(&mut self, now: SimTime, rng: &mut SmallRng) -> ObjectAccess {
        let phase = (now.as_ps() / self.period_ps) % 4;
        let vpn = if phase == 3 {
            let v = self.base + self.hot + self.cursor;
            self.cursor = (self.cursor + 1) % (self.total - self.hot);
            v
        } else if rng.gen_bool(0.9) {
            self.base + rng.gen_range(0..self.hot)
        } else {
            self.base + rng.gen_range(0..self.total)
        };
        ObjectAccess::read_line(vpn * PAGE_SIZE + rng.gen_range(0..LINES_PER_PAGE) * LINE_SIZE)
    }
}

/// Adaptive-trace generator config at shoot-out scale.
fn phase_shift_config(sc: &PolicyScenario) -> PhaseShiftConfig {
    PhaseShiftConfig {
        base_vpn: APP_BASE,
        ws_pages: sc.ws_pages,
        hot_pages: sc.hot_pages,
        hot_prob: 0.9,
        period: sc.tick() * sc.phase_period_ticks,
        stride_pages: sc.hot_pages,
        object_size: 64,
        write_fraction: 0.5,
        llc_hit_prob: 0.0,
    }
}

/// A fresh generator stream for one core of a cell. `core` seeds
/// per-core divergence where the workload supports it.
fn make_stream(sc: &PolicyScenario, trace: PolicyTrace, core: usize) -> Box<dyn AccessStream> {
    match trace {
        PolicyTrace::Gups => Box::new(
            GupsStream::new(GupsConfig {
                base_vpn: APP_BASE,
                ws_pages: sc.ws_pages,
                hot_pages: sc.hot_pages,
                hot_offset: 0,
                hot_prob: 0.9,
                object_size: 64,
                write_fraction: 1.0,
                llc_hit_prob: 0.0,
                phases: Vec::new(),
            })
            .expect("valid gups config"),
        ),
        PolicyTrace::Graph => {
            // Ranks : edges ≈ 6 : 32, as in the paper's setup.
            let rank_pages = (sc.ws_pages * 6 / 38).max(1);
            Box::new(PageRankStream::new(
                PageRankConfig {
                    rank_base_vpn: APP_BASE,
                    nodes: rank_pages * PAGE_SIZE / 8,
                    edge_base_vpn: APP_BASE + rank_pages,
                    edge_pages: (sc.ws_pages - rank_pages).max(1),
                    theta: 0.8,
                    edge_chunk_bytes: 256,
                    rank_reads_per_chunk: 32,
                    rank_llc_hit_prob: 0.0,
                },
                core as u64,
            ))
        }
        PolicyTrace::KvCache => {
            // One value page + 64 B of index per item.
            let items = (sc.ws_pages * PAGE_SIZE / (PAGE_SIZE + 64)).max(1);
            Box::new(KvCacheStream::new(KvCacheConfig {
                base_vpn: APP_BASE,
                items,
                hot_fraction: sc.hot_pages as f64 / sc.ws_pages as f64,
                hot_prob: 0.9,
                update_fraction: 0.1,
                index_llc_hit_prob: 0.0,
            }))
        }
        PolicyTrace::Adaptive => Box::new(
            PhaseShiftStream::new(phase_shift_config(sc)).expect("valid phase-shift config"),
        ),
        PolicyTrace::Scan => Box::new(ScanStream {
            base: APP_BASE,
            hot: sc.hot_pages,
            total: sc.ws_pages,
            period_ps: (sc.tick() * sc.scan_period_ticks).as_ps().max(1),
            cursor: 0,
        }),
    }
}

/// Shift instants used for per-shift TTE scoring (adaptive column only;
/// the other traces hold their hot set).
fn shift_times(sc: &PolicyScenario, trace: PolicyTrace) -> Vec<SimTime> {
    match trace {
        PolicyTrace::Adaptive => phase_shift_config(sc).shift_times(sc.horizon()),
        _ => Vec::new(),
    }
}

/// Wires streams and a system running `policy` into an [`Experiment`].
/// `policy == None` exercises the construction path production code
/// uses (the system picks its own extracted default).
fn assemble(
    sc: &PolicyScenario,
    trace: PolicyTrace,
    kind: SystemKind,
    policy: Option<PolicyKind>,
) -> Experiment {
    let mut machine = small_two_tier(
        sc.seed,
        sc.default_pages,
        sc.ws_range(),
        memsim::MigrationEngineConfig::default(),
    );
    for core in 0..sc.app_cores {
        machine.add_core(
            make_stream(sc, trace, core),
            CoreConfig::app_default(),
            TrafficClass::App,
        );
    }
    let mut params = system_params(&machine, vec![sc.ws_range()], None);
    params.policy = policy;
    Experiment::new(machine, build_system(kind, params), sc.tick())
}

/// Scores of one matrix cell.
#[derive(Debug, Clone)]
pub struct PolicyCellScore {
    /// Which tiering system.
    pub system: SystemKind,
    /// The policy the cell ran.
    pub policy: PolicyKind,
    /// Whole-run application throughput.
    pub ops_per_sec: f64,
    /// p99 of per-tick arrival-weighted latency (ns).
    pub p99_ns: Option<f64>,
    /// Migration accounting over the event stream (useful vs wasted via
    /// provenance round trips).
    pub accounting: telemetry::MigrationAccounting,
    /// Mean time-to-equilibrium across shifts (adaptive column only).
    pub mean_tte: Option<SimTime>,
    /// Shifts that re-converged before the next shift.
    pub converged_shifts: usize,
    /// Shifts scored.
    pub total_shifts: usize,
    /// End state over the working set.
    pub end: EndState,
    /// Tracking overhead: signals the policy ingested.
    pub signals: u64,
    /// Pages the policy tracked at the end of the run.
    pub tracked: u64,
}

impl PolicyCellScore {
    /// Mean TTE in ticks (for display), `None` for unscored traces.
    pub fn mean_tte_ticks(&self, tick: SimTime) -> Option<f64> {
        self.mean_tte
            .map(|t| t.as_ps() as f64 / tick.as_ps() as f64)
    }
}

/// Runs one cell end to end with telemetry attached and scores it.
pub fn run_cell(
    sc: &PolicyScenario,
    trace: PolicyTrace,
    kind: SystemKind,
    policy: Option<PolicyKind>,
) -> PolicyCellScore {
    let mut exp = assemble(sc, trace, kind, policy);
    exp.attach_telemetry(telemetry::Sink::ring(EVENT_CAP, sc.run_ticks));
    let r = run_exp(&mut exp, &RunConfig::timeline(sc.run_ticks));
    let events = exp.sink.with(|rec| rec.events()).unwrap_or_default();
    let shifts = shift_times(sc, trace);
    let (mean_tte, converged_shifts) = tte_over_shifts(&r.series, &shifts, sc.horizon());
    let stats = exp.system.policy_stats().unwrap_or_default();
    // p99 over per-tick arrival-weighted latencies.
    let mut tick_ns: Vec<f64> = r
        .series
        .iter()
        .filter_map(|m| time_avg_latency_ns(std::slice::from_ref(m)))
        .collect();
    PolicyCellScore {
        system: kind,
        policy: exp
            .system
            .policy_kind()
            .unwrap_or_else(|| kind.default_policy()),
        ops_per_sec: r.ops_per_sec,
        p99_ns: p99(&mut tick_ns),
        accounting: telemetry::migration_accounting(&events),
        mean_tte,
        converged_shifts,
        total_shifts: shifts.len(),
        end: EndState::of(&exp.machine, &[(&*exp.system, sc.ws_range())]),
        signals: stats.signals,
        tracked: stats.tracked,
    }
}

/// One trace column of the matrix.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// The trace this column drove.
    pub trace: PolicyTrace,
    /// All cells, in system-major, policy-minor order.
    pub cells: Vec<PolicyCellScore>,
}

/// Formats one trace column as a score table.
pub fn render(sc: &PolicyScenario, outcome: &PolicyOutcome) -> String {
    let mut t = Table::new(vec![
        "system",
        "policy",
        "Mops/s",
        "p99 ns",
        "useful/wasted",
        "eff",
        "TTE (ticks)",
        "converged",
        "signals",
        "resident",
    ]);
    for c in &outcome.cells {
        let default_marker = if c.policy == c.system.default_policy() {
            "*"
        } else {
            ""
        };
        t.row(vec![
            c.system.name().to_string(),
            format!("{}{}", c.policy.name(), default_marker),
            format!("{:.2}", c.ops_per_sec / 1e6),
            c.p99_ns
                .map(|x| format!("{x:.0}"))
                .unwrap_or_else(|| "-".into()),
            format!("{}/{}", c.accounting.useful, c.accounting.wasted),
            format!("{:.2}", c.accounting.efficiency()),
            c.mean_tte_ticks(sc.tick())
                .map(|x| format!("{x:.1}"))
                .unwrap_or_else(|| "-".into()),
            if c.total_shifts > 0 {
                format!("{}/{}", c.converged_shifts, c.total_shifts)
            } else {
                "-".into()
            },
            format!("{}", c.signals),
            format!("{}", c.end.resident),
        ]);
    }
    format!(
        "## {} trace (* = the system's extracted default)\n{}",
        outcome.trace.label(),
        t.render()
    )
}

// --- default-policy bit-identity ----------------------------------------

/// Digest pair for one system: the gups cell run with `policy: None`
/// (the pre-refactor construction path) vs the same cell with the
/// extracted default selected explicitly. The refactor's promise is
/// that these are the *same system*, so the digests must match bit for
/// bit.
pub fn identity_digests(sc: &PolicyScenario) -> Vec<(SystemKind, String, String)> {
    SystemKind::ALL
        .into_iter()
        .map(|kind| {
            let implicit = identity_run(sc, kind, None);
            let explicit = identity_run(sc, kind, Some(kind.default_policy()));
            (kind, implicit, explicit)
        })
        .collect()
}

fn identity_run(sc: &PolicyScenario, kind: SystemKind, policy: Option<PolicyKind>) -> String {
    let mut exp = assemble(sc, PolicyTrace::Gups, kind, policy);
    let r = run_exp(&mut exp, &RunConfig::timeline(sc.run_ticks.min(60)));
    run_digest(&r)
}

// --- live swap drill -----------------------------------------------------

/// What the mid-run hot-swap drill observed.
#[derive(Debug, Clone)]
pub struct SwapDrillReport {
    /// The swap itself was accepted at the quantum boundary.
    pub swapped: bool,
    /// End state over the working set after the full run.
    pub end: EndState,
    /// `policy_swap` telemetry events captured.
    pub swap_events: usize,
    /// Pages the swap reseeded (from the event payload).
    pub pages_reseeded: u64,
    /// Rank-churn counter accumulated by the [`PolicyProbe`] across the
    /// swap (top-of-ranking positional changes).
    pub rank_churn: u64,
    /// Hot-set turnover accumulated across the swap.
    pub hot_set_turnover: u64,
}

/// Runs HeMem on the gups trace, hot-swaps FreqBins → SIEVE at the
/// halfway tick, and audits the aftermath: page conservation, the
/// tagged [`telemetry::EventKind::PolicySwap`] event, and the probe's
/// churn/turnover series across the swap.
pub fn swap_drill(sc: &PolicyScenario) -> SwapDrillReport {
    let mut exp = assemble(sc, PolicyTrace::Gups, SystemKind::Hemem, None);
    let sink = telemetry::Sink::ring(EVENT_CAP, sc.run_ticks);
    exp.attach_telemetry(sink.clone());
    let hub = telemetry::MetricsHub::new();
    exp.attach_metrics(hub.clone());
    let mut probe = PolicyProbe::new(&hub, PolicyKind::FreqBins);

    let half = sc.run_ticks / 2;
    let mut swapped = false;
    for tick in 0..sc.run_ticks {
        exp.step();
        if tick + 1 == half {
            swapped = exp.system.swap_policy(PolicyKind::Sieve);
            // Re-label the probe for the newcomer; churn/turnover
            // counters keep accumulating under the new label.
            probe = PolicyProbe::new(&hub, PolicyKind::Sieve);
        }
        if tick % PROBE_PERIOD == 0 {
            probe.observe(exp.system.as_ref());
        }
    }

    let events = exp.sink.with(|rec| rec.events()).unwrap_or_default();
    let mut swap_events = 0usize;
    let mut pages_reseeded = 0u64;
    for e in &events {
        if let telemetry::EventKind::PolicySwap { pages, .. } = e.kind {
            swap_events += 1;
            pages_reseeded = pages;
        }
    }
    let mut rank_churn = 0u64;
    let mut hot_set_turnover = 0u64;
    for s in hub.snapshot() {
        if let telemetry::MetricValue::Counter(v) = s.value {
            match s.name.as_str() {
                "policy_rank_churn_total" => rank_churn += v,
                "policy_hot_set_turnover_total" => hot_set_turnover += v,
                _ => {}
            }
        }
    }
    SwapDrillReport {
        swapped,
        end: EndState::of(&exp.machine, &[(&*exp.system, sc.ws_range())]),
        swap_events,
        pages_reseeded,
        rank_churn,
        hot_set_turnover,
    }
}

/// Formats the drill for the report file.
pub fn render_drill(d: &SwapDrillReport) -> String {
    format!(
        "## live swap drill (HeMem, gups, freq-bins -> sieve at halfway)\n\
         swapped: {}\nconserved: {} ({}/{} pages resident)\n\
         policy_swap events: {} ({} pages reseeded)\n\
         rank churn: {}\nhot-set turnover: {}\n",
        d.swapped,
        d.end.conserved(),
        d.end.resident,
        d.end.expected,
        d.swap_events,
        d.pages_reseeded,
        d.rank_churn,
        d.hot_set_turnover,
    )
}

// --- smoke gates ---------------------------------------------------------

/// The harness's own `--smoke` gates (page conservation, in every cell
/// and across the live swap, is the driver's). Returns the failures
/// (empty = pass):
///
/// 1. **default bit-identity** — per system, the `policy: None` run and
///    the explicit-default run produce identical digests;
/// 2. **scan resistance** — under HeMem on the scan trace, SIEVE wastes
///    strictly less migration work than LRU (the hit-streak gate holds
///    the one-shot sweep out of the hot set);
/// 3. **live swap** — the mid-run FreqBins → SIEVE swap is accepted and
///    emits its tagged telemetry event;
/// 4. **populated newcomers** — CLOCK, LRU and SIEVE all produce live
///    cells (non-zero throughput and tracked pages) in every column.
pub fn smoke_failures(
    outcomes: &[PolicyOutcome],
    identity: &[(SystemKind, String, String)],
    drill: &SwapDrillReport,
) -> Vec<String> {
    let mut fails = Vec::new();

    for (kind, implicit, explicit) in identity {
        if implicit != explicit {
            fails.push(format!(
                "{}: explicit default policy diverges from the implicit default ({implicit} vs {explicit})",
                kind.name()
            ));
        }
    }

    if let Some(scan) = outcomes.iter().find(|o| o.trace == PolicyTrace::Scan) {
        let wasted = |p: PolicyKind| {
            scan.cells
                .iter()
                .find(|c| c.system == SystemKind::Hemem && c.policy == p)
                .map(|c| c.accounting.wasted)
        };
        match (wasted(PolicyKind::Sieve), wasted(PolicyKind::Lru)) {
            (Some(sieve), Some(lru)) if sieve >= lru => fails.push(format!(
                "scan: SIEVE wasted {sieve} migrations, not better than LRU's {lru}"
            )),
            (None, _) | (_, None) => fails.push("scan column missing HeMem sieve/lru cells".into()),
            _ => {}
        }
    } else {
        fails.push("no scan column in the matrix".into());
    }

    if !drill.swapped {
        fails.push("live swap was rejected".into());
    }
    if drill.swap_events == 0 {
        fails.push("live swap emitted no policy_swap telemetry event".into());
    }

    for policy in [PolicyKind::Clock, PolicyKind::Lru, PolicyKind::Sieve] {
        for outcome in outcomes {
            for kind in SystemKind::ALL {
                let Some(c) = outcome
                    .cells
                    .iter()
                    .find(|c| c.system == kind && c.policy == policy)
                else {
                    fails.push(format!(
                        "[{}] {}/{}: cell missing",
                        outcome.trace.label(),
                        kind.name(),
                        policy.name()
                    ));
                    continue;
                };
                if c.ops_per_sec <= 0.0 || c.tracked == 0 {
                    fails.push(format!(
                        "[{}] {}/{}: unpopulated cell (ops {}, tracked {})",
                        outcome.trace.label(),
                        kind.name(),
                        policy.name(),
                        c.ops_per_sec,
                        c.tracked
                    ));
                }
            }
        }
    }

    fails
}

/// The shoot-out (`grid policy`): every trace × system × policy, with
/// the default-identity digests before the matrix and the live swap
/// drill after it.
pub struct ShootOut {
    opts: Opts,
    sc: PolicyScenario,
    identity: Vec<(SystemKind, String, String)>,
}

impl ShootOut {
    /// The shoot-out for the given options.
    pub fn new(opts: Opts) -> Self {
        let sc = PolicyScenario::paper_default(opts.quick);
        let identity = Vec::new();
        ShootOut { opts, sc, identity }
    }
}

impl Harness for ShootOut {
    type Cell = (PolicyTrace, SystemKind, PolicyKind);
    type Outcome = PolicyCellScore;

    fn preamble(&mut self) -> Result<String, String> {
        let sc = &self.sc;
        let mut out = format!(
            "Policy shoot-out: {} ws pages, hot {}, default tier {} pages, {} ticks/cell{}\n",
            sc.ws_pages,
            sc.hot_pages,
            sc.default_pages,
            sc.run_ticks,
            if self.opts.quick { " (quick)" } else { "" },
        );
        self.identity = identity_digests(sc);
        for (kind, implicit, explicit) in &self.identity {
            let verdict = if implicit == explicit {
                "match"
            } else {
                "DIVERGE"
            };
            out.push_str(&format!(
                "default identity [{}]: implicit {implicit} / explicit {explicit} ({verdict})\n",
                kind.name()
            ));
        }
        Ok(out)
    }

    fn cells(&self) -> Vec<(String, Self::Cell)> {
        let mut cells = Vec::new();
        for trace in PolicyTrace::ALL {
            for kind in SystemKind::ALL {
                for policy in PolicyKind::ALL {
                    let label = format!("{}/{}/{}", trace.label(), kind.name(), policy.name());
                    cells.push((label, (trace, kind, policy)));
                }
            }
        }
        cells
    }

    fn run(&self, &(trace, kind, policy): &Self::Cell) -> PolicyCellScore {
        run_cell(&self.sc, trace, kind, Some(policy))
    }

    fn end_state(outcome: &PolicyCellScore) -> &EndState {
        &outcome.end
    }

    fn finish(
        &mut self,
        results: Vec<(Self::Cell, PolicyCellScore)>,
        ctx: &mut Ctx,
    ) -> Vec<String> {
        let mut outcomes: Vec<PolicyOutcome> = Vec::new();
        for ((trace, ..), cell) in results {
            match outcomes.last_mut() {
                Some(o) if o.trace == trace => o.cells.push(cell),
                _ => outcomes.push(PolicyOutcome {
                    trace,
                    cells: vec![cell],
                }),
            }
        }
        let drill = swap_drill(&self.sc);
        ctx.check("live swap drill", &drill.end);
        let mut tables: Vec<String> = outcomes
            .iter()
            .map(|o| render(&self.sc, o) + "\n")
            .collect();
        tables.push(render_drill(&drill));
        if self.opts.smoke {
            ctx.failures
                .extend(smoke_failures(&outcomes, &self.identity, &drill));
        }
        tables
    }

    /// HeMem on the gups trace under its extracted default and under
    /// SIEVE. The scores pin both the legacy path (bit-identity canary)
    /// and the generic path (policy-driven placement) across PRs.
    fn bench(&self) -> Option<Bench<Self::Cell>> {
        Some(Bench {
            scenario: "gups, HeMem under freq-bins (default) vs sieve (quick axis)".into(),
            ticks: self.sc.run_ticks,
            pinned: |&(trace, kind, policy)| {
                (trace, kind) == (PolicyTrace::Gups, SystemKind::Hemem)
                    && [PolicyKind::FreqBins, PolicyKind::Sieve].contains(&policy)
            },
        })
    }

    fn bench_fields(&self, c: &PolicyCellScore) -> Vec<(&'static str, f64)> {
        vec![
            ("mops", c.ops_per_sec / 1e6),
            ("p99_ns", c.p99_ns.unwrap_or(f64::NAN)),
            ("useful_migrations", c.accounting.useful as f64),
            ("wasted_migrations", c.accounting.wasted as f64),
            ("signals", c.signals as f64),
            ("resident_pages", c.end.resident as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PolicyScenario {
        PolicyScenario {
            ws_pages: 512,
            hot_pages: 128,
            default_pages: 192,
            app_cores: 1,
            run_ticks: 48,
            phase_period_ticks: 16,
            scan_period_ticks: 8,
            seed: 7,
        }
    }

    #[test]
    fn cells_run_and_conserve_pages_under_every_policy() {
        let sc = tiny();
        for policy in PolicyKind::ALL {
            let c = run_cell(&sc, PolicyTrace::Gups, SystemKind::Hemem, Some(policy));
            assert!(c.end.conserved(), "{}", policy.name());
            assert!(c.ops_per_sec > 0.0, "{}", policy.name());
            assert_eq!(c.policy, policy);
        }
    }

    #[test]
    fn default_identity_holds_on_tiny_scenario() {
        let sc = tiny();
        for (kind, implicit, explicit) in identity_digests(&sc) {
            assert_eq!(implicit, explicit, "{}", kind.name());
        }
    }

    #[test]
    fn adaptive_column_scores_shifts() {
        let sc = tiny();
        let c = run_cell(&sc, PolicyTrace::Adaptive, SystemKind::Tpp, None);
        assert!(c.total_shifts > 0);
        assert_eq!(c.policy, PolicyKind::TimeToFault);
        assert!(c.end.conserved());
    }

    #[test]
    fn swap_drill_swaps_and_conserves() {
        let sc = tiny();
        let d = swap_drill(&sc);
        assert!(d.swapped);
        assert!(d.end.conserved(), "{:?}", d.end);
        assert_eq!(d.swap_events, 1);
        assert!(d.pages_reseeded > 0);
    }

    #[test]
    fn scan_stream_sweeps_the_cold_region() {
        use rand::SeedableRng;
        let sc = tiny();
        let mut s = ScanStream {
            base: APP_BASE,
            hot: sc.hot_pages,
            total: sc.ws_pages,
            period_ps: sc.tick().as_ps().max(1),
            cursor: 0,
        };
        let mut rng = SmallRng::seed_from_u64(1);
        // Phase 3 of the cycle: sequential addresses in the cold region.
        let t0 = SimTime::from_ps(3 * sc.tick().as_ps());
        let a = s.next(t0, &mut rng).vaddr / PAGE_SIZE;
        let b = s.next(t0, &mut rng).vaddr / PAGE_SIZE;
        assert_eq!(a, APP_BASE + sc.hot_pages);
        assert_eq!(b, a + 1);
        // Other phases stay mostly in the hot set.
        let t1 = SimTime::from_ps(0);
        let hits = (0..200)
            .filter(|_| {
                let vpn = s.next(t1, &mut rng).vaddr / PAGE_SIZE;
                vpn < APP_BASE + sc.hot_pages
            })
            .count();
        assert!(hits > 150, "only {hits}/200 in the hot set");
    }
}
