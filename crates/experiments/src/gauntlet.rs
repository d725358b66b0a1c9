//! ARMS-style adaptivity gauntlet (`grid gauntlet`).
//!
//! Every matrix in this harness so far drives workloads that shift at most
//! once; the gauntlet scores each tiering configuration on workloads that
//! *keep changing under it* (DESIGN.md §14):
//!
//! - **phase-shift** — the hot set rotates through the working set on a
//!   schedule ([`workloads::PhaseShiftStream`]);
//! - **diurnal** — the active window breathes sinusoidally over a
//!   simulated day ([`workloads::DiurnalStream`]);
//! - **adversarial** — anti-phase hot-set flips timed near the
//!   controller's observation quantum ([`workloads::AdversarialStream`]);
//! - **fixture** — a committed NDJSON trace replayed verbatim
//!   ([`workloads::TraceReplayer`]), so scores are comparable across
//!   machines and PRs.
//!
//! Each cell of the matrix (HeMem/TPP/MEMTIS × ±Colloid × ±supervisor ×
//! ±transactional engine) is scored on time-to-equilibrium after every
//! shift (reusing [`telemetry::time_to_equilibrium`]), wasted-migration
//! work (round trips in the [`telemetry::provenance()`] fold of the copies
//! that landed), worst-window tail latency, and a composite resilience
//! score.
//!
//! The module also owns the record → export → import → replay
//! determinism proof: a capture run's `RunResult` and telemetry stream
//! must be bit-identical to the run replayed from its own NDJSON export
//! ([`determinism_check`]), which `--smoke` gates together with page
//! conservation and the adversarial supervised-Colloid-vs-bare-vanilla
//! comparison.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use memsim::{AccessStream, CoreConfig, TrafficClass, Vpn};
use simkit::SimTime;
use tiersys::{build_system, ColloidParams, SystemKind};
use workloads::{
    trace_from_ndjson, trace_to_ndjson, AdversarialConfig, AdversarialStream, DiurnalConfig,
    DiurnalStream, PhaseShiftConfig, PhaseShiftStream, Trace, TraceRecorder, TraceReplayer,
};

use crate::degradation::{supervise, time_avg_latency_ns};
use crate::grid::{Bench, Ctx, EndState, Harness, Opts};
use crate::report::{engine_suffix, fnv1a, Table, FNV_OFFSET};
use crate::runner::{run as run_exp, RunConfig, RunResult, TickSample};
use crate::scenario::{small_two_tier, system_params, Experiment};

/// First page of the application's working set.
const APP_BASE: Vpn = 1024;
/// Event-ring capacity per cell (adversarial cells migrate heavily).
const EVENT_CAP: usize = 200_000;
/// Relative tolerance for per-shift time-to-equilibrium.
const TTE_TOLERANCE: f64 = 0.1;
/// Sliding-window width (ticks) for the worst-window tail latency.
const TAIL_WINDOW: usize = 10;
/// Ping-pong horizon of the provenance fold: a page migrated again within
/// this window of its previous copy counts as churn (10 control quanta at
/// the 100 µs tick).
const PING_PONG_WINDOW: SimTime = SimTime::from_ps(1_000_000_000); // 1 ms

/// Shape of the gauntlet.
#[derive(Debug, Clone)]
pub struct GauntletScenario {
    /// Application working-set pages.
    pub ws_pages: u64,
    /// Hot-set pages of the generators.
    pub hot_pages: u64,
    /// Default-tier capacity in pages (must be < `ws_pages` so tiering
    /// has something to do).
    pub default_pages: u64,
    /// Application cores for generated-trace cells (fixture cells always
    /// run one core — the shape the capture used).
    pub app_cores: usize,
    /// Ticks per matrix cell.
    pub run_ticks: usize,
    /// Hot-set rotation period of the phase-shift trace, in ticks.
    pub phase_period_ticks: u64,
    /// Simulated-day length of the diurnal trace, in ticks.
    pub diurnal_period_ticks: u64,
    /// Flip period of the adversarial trace, in ticks — chosen near the
    /// controllers' observation quantum to maximise ping-pong.
    pub flip_period_ticks: u64,
    /// Ticks of the determinism capture/replay run.
    pub capture_ticks: usize,
    /// Root RNG seed.
    pub seed: u64,
}

impl GauntletScenario {
    /// The default gauntlet; `quick` shrinks the time axis for CI.
    pub fn paper_default(quick: bool) -> Self {
        GauntletScenario {
            ws_pages: 4096,
            hot_pages: 1024,
            default_pages: 1536,
            app_cores: 4,
            run_ticks: if quick { 160 } else { 400 },
            phase_period_ticks: 40,
            diurnal_period_ticks: 80,
            flip_period_ticks: 30,
            capture_ticks: if quick { 24 } else { 48 },
            seed: 0xC0_11_07,
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

/// The four trace columns of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Scheduled hot-set rotation.
    PhaseShift,
    /// Sinusoidal active-window breathing.
    Diurnal,
    /// Anti-phase hot-set flips near the observation quantum.
    Adversarial,
    /// A committed NDJSON trace replayed verbatim.
    Fixture,
}

impl TraceKind {
    /// The generated trace kinds (the fixture column needs a loaded trace).
    pub const GENERATED: [TraceKind; 3] = [
        TraceKind::PhaseShift,
        TraceKind::Diurnal,
        TraceKind::Adversarial,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::PhaseShift => "phase-shift",
            TraceKind::Diurnal => "diurnal",
            TraceKind::Adversarial => "adversarial",
            TraceKind::Fixture => "fixture-replay",
        }
    }
}

/// Phase-shift generator config at gauntlet scale.
pub fn phase_shift_config(sc: &GauntletScenario) -> PhaseShiftConfig {
    let mut c = PhaseShiftConfig::gauntlet_default(APP_BASE, sc.tick() * sc.phase_period_ticks);
    c.ws_pages = sc.ws_pages;
    c.hot_pages = sc.hot_pages;
    c.stride_pages = sc.hot_pages;
    c
}

/// Diurnal generator config at gauntlet scale.
pub fn diurnal_config(sc: &GauntletScenario) -> DiurnalConfig {
    let mut c = DiurnalConfig::gauntlet_default(APP_BASE, sc.tick() * sc.diurnal_period_ticks);
    c.ws_pages = sc.ws_pages;
    c.min_active_pages = sc.hot_pages / 2;
    c.max_active_pages = (sc.hot_pages * 2).min(sc.ws_pages);
    c
}

/// Adversarial generator config at gauntlet scale.
pub fn adversarial_config(sc: &GauntletScenario) -> AdversarialConfig {
    let mut c = AdversarialConfig::gauntlet_default(APP_BASE, sc.tick() * sc.flip_period_ticks);
    c.ws_pages = sc.ws_pages;
    c.hot_pages = sc.hot_pages;
    c.offset_a = 0;
    c.offset_b = sc.ws_pages - sc.hot_pages;
    c
}

/// A fresh generator stream for one core of a generated-trace cell.
fn make_stream(sc: &GauntletScenario, kind: TraceKind) -> Box<dyn AccessStream> {
    match kind {
        TraceKind::PhaseShift => Box::new(
            PhaseShiftStream::new(phase_shift_config(sc)).expect("valid phase-shift config"),
        ),
        TraceKind::Diurnal => {
            Box::new(DiurnalStream::new(diurnal_config(sc)).expect("valid diurnal config"))
        }
        TraceKind::Adversarial => Box::new(
            AdversarialStream::new(adversarial_config(sc)).expect("valid adversarial config"),
        ),
        TraceKind::Fixture => unreachable!("fixture cells replay a loaded trace"),
    }
}

/// Shift instants used for per-shift scoring (empty for fixtures, whose
/// schedule is opaque).
pub fn shift_times(sc: &GauntletScenario, kind: TraceKind) -> Vec<SimTime> {
    let horizon = sc.horizon();
    match kind {
        TraceKind::PhaseShift => phase_shift_config(sc).shift_times(horizon),
        TraceKind::Diurnal => diurnal_config(sc).shift_times(horizon),
        TraceKind::Adversarial => adversarial_config(sc).shift_times(horizon),
        TraceKind::Fixture => Vec::new(),
    }
}

/// Wires `cores` streams and `id`'s policy stack into an [`Experiment`]
/// on the gauntlet's two-tier machine, working set first-touch-filled.
fn assemble(sc: &GauntletScenario, cores: Vec<Box<dyn AccessStream>>, id: CellId) -> Experiment {
    let engine = if id.transactional {
        memsim::MigrationEngineConfig::transactional()
    } else {
        memsim::MigrationEngineConfig::default()
    };
    let mut machine = small_two_tier(sc.seed, sc.default_pages, sc.ws_range(), engine);
    for stream in cores {
        machine.add_core(stream, CoreConfig::app_default(), TrafficClass::App);
    }
    let colloid = id.colloid.then(ColloidParams::default);
    let system = build_system(
        id.kind,
        system_params(&machine, vec![sc.ws_range()], colloid),
    );
    let mut exp = Experiment::new(machine, system, sc.tick());
    if id.supervised {
        supervise(&mut exp, vec![sc.ws_range()]);
    }
    exp
}

/// Scores of one matrix cell.
#[derive(Debug, Clone)]
pub struct CellScore {
    /// The policy stack under test.
    pub id: CellId,
    /// Whole-run application throughput.
    pub ops_per_sec: f64,
    /// Mean time-to-equilibrium across shifts, with unconverged shifts
    /// charged the full inter-shift interval. `None` when the trace has
    /// no scored shifts (fixture column).
    pub mean_tte: Option<SimTime>,
    /// Shifts that reached equilibrium before the next shift.
    pub converged_shifts: usize,
    /// Shifts scored.
    pub total_shifts: usize,
    /// The copies that landed, folded from the recorded spans and events
    /// (useful vs wasted via round trips).
    pub provenance: telemetry::ProvenanceReport,
    /// Why `provenance` may miss copies: a ring that dropped records, or
    /// a landed count other than the engine's completed count (empty =
    /// whole).
    pub tally_gaps: Vec<String>,
    /// Worst sliding-window arrival-weighted latency (ns).
    pub worst_window_ns: Option<f64>,
    /// Arrival-weighted latency over the final quarter of the run (ns).
    pub steady_ns: Option<f64>,
    /// End state over the working set.
    pub end: EndState,
    /// Composite resilience score (higher is better).
    pub resilience: f64,
}

impl CellScore {
    /// Mean TTE in ticks (for display), `None` for unscored traces.
    pub fn mean_tte_ticks(&self, tick: SimTime) -> Option<f64> {
        self.mean_tte
            .map(|t| t.as_ps() as f64 / tick.as_ps() as f64)
    }
}

/// Identity of one matrix cell: which policy stack is under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellId {
    /// Which tiering system.
    pub kind: SystemKind,
    /// Colloid attached.
    pub colloid: bool,
    /// Supervisor attached.
    pub supervised: bool,
    /// Transactional migration engine.
    pub transactional: bool,
}

/// The capture shape: the stack whose captures the fixture column replays.
pub const CAPTURE: CellId = CellId {
    kind: SystemKind::Hemem,
    colloid: true,
    supervised: false,
    transactional: false,
};

impl CellId {
    /// Display name of the policy stack (e.g. `HeMem+Colloid+SV [txn]`).
    pub fn name(&self) -> String {
        let mut name = self.kind.name().to_string();
        if self.colloid {
            name.push_str("+Colloid");
        }
        if self.supervised {
            name.push_str("+SV");
        }
        name + engine_suffix(self.transactional)
    }
}

/// Builds one cell: `tkind`'s generated streams on every app core or, for
/// the fixture column, `fixture` replayed verbatim on one core (the shape
/// the capture used). An empty fixture surfaces as the typed
/// [`workloads::ReplayError`], never a panic.
pub fn build_cell(
    sc: &GauntletScenario,
    tkind: TraceKind,
    id: CellId,
    fixture: Option<&Arc<Trace>>,
) -> Result<Experiment, workloads::ReplayError> {
    let cores: Vec<Box<dyn AccessStream>> = match fixture {
        Some(trace) => vec![Box::new(TraceReplayer::try_new(Arc::clone(trace))?)],
        None => (0..sc.app_cores).map(|_| make_stream(sc, tkind)).collect(),
    };
    Ok(assemble(sc, cores, id))
}

/// Per-shift time-to-equilibrium with penalty semantics: each shift is
/// judged only on the samples up to the next shift, and a shift that never
/// re-converges is charged the full inter-shift interval.
pub(crate) fn tte_over_shifts(
    series: &[TickSample],
    shifts: &[SimTime],
    horizon: SimTime,
) -> (Option<SimTime>, usize) {
    if shifts.is_empty() {
        return (None, 0);
    }
    let mut total_ps = 0u64;
    let mut converged = 0usize;
    for (i, &s) in shifts.iter().enumerate() {
        let end = shifts.get(i + 1).copied().unwrap_or(horizon);
        let a = series.partition_point(|m| m.t <= s);
        let b = series.partition_point(|m| m.t <= end);
        let slice = &series[a..b];
        let interval_ticks = slice.len();
        let window = (interval_ticks / 8).max(3);
        let tte =
            telemetry::time_to_equilibrium(slice, s, window, TTE_TOLERANCE, |m| m.ops_per_sec);
        match tte {
            Some(t) => {
                converged += 1;
                total_ps += t.as_ps();
            }
            None => total_ps += end.saturating_sub(s).as_ps(),
        }
    }
    (
        Some(SimTime::from_ps(total_ps / shifts.len() as u64)),
        converged,
    )
}

/// Worst arrival-weighted latency over sliding [`TAIL_WINDOW`]-tick
/// windows (half-window stride).
pub(crate) fn worst_window(series: &[TickSample]) -> Option<f64> {
    if series.len() < TAIL_WINDOW {
        return time_avg_latency_ns(series);
    }
    let stride = (TAIL_WINDOW / 2).max(1);
    let mut worst: Option<f64> = None;
    let mut start = 0;
    while start + TAIL_WINDOW <= series.len() {
        if let Some(l) = time_avg_latency_ns(&series[start..start + TAIL_WINDOW]) {
            worst = Some(worst.map_or(l, |w: f64| w.max(l)));
        }
        start += stride;
    }
    worst
}

/// Folds the copies a run landed from `sink`'s recorded streams
/// ([`telemetry::provenance()`]), with what keeps the fold from being the
/// run's whole copy history (empty = whole): a ring that dropped events
/// or spans, or a landed count other than the one the engine's `books`
/// completed.
pub(crate) fn fold_copies(
    sink: &telemetry::Sink,
    books: &memsim::MigrationCounters,
) -> (telemetry::ProvenanceReport, Vec<String>) {
    sink.with(|rec| {
        let p = telemetry::provenance(&rec.events(), &rec.spans(), PING_PONG_WINDOW);
        let (events, spans) = (rec.dropped_events(), rec.dropped_spans());
        let mut gaps = Vec::new();
        if events + spans > 0 {
            gaps.push(format!("ring dropped {events} events and {spans} spans"));
        }
        if p.completed != books.completed {
            gaps.push(format!(
                "provenance folds {} landed copies but the engine completed {}",
                p.completed, books.completed
            ));
        }
        (p, gaps)
    })
    .expect("the cell records telemetry")
}

/// Scores a finished run.
fn score_run(
    sc: &GauntletScenario,
    id: CellId,
    exp: &Experiment,
    r: &RunResult,
    shifts: &[SimTime],
) -> CellScore {
    let horizon = sc.horizon();
    let (mean_tte, converged_shifts) = tte_over_shifts(&r.series, shifts, horizon);
    let (provenance, tally_gaps) = fold_copies(&exp.sink, &r.migration);
    let worst = worst_window(&r.series);
    let steady_from = r.series.len().saturating_sub(sc.run_ticks / 4);
    let steady = time_avg_latency_ns(&r.series[steady_from..]);

    // Composite resilience: throughput (Mops) discounted by migration
    // efficiency, adaptation speed, and tail behaviour. All factors are in
    // (0, 1] so the score stays comparable across cells.
    let mops_score = r.ops_per_sec / 1e6;
    let interval_ps = if shifts.is_empty() {
        horizon.as_ps()
    } else {
        horizon.as_ps() / (shifts.len() as u64 + 1)
    };
    let tte_factor = match mean_tte {
        Some(t) => 1.0 / (1.0 + t.as_ps() as f64 / interval_ps.max(1) as f64),
        None => 1.0,
    };
    let tail_factor = match (steady, worst) {
        (Some(s), Some(w)) if w > 0.0 => (s / w).clamp(0.0, 1.0),
        _ => 1.0,
    };
    let resilience = mops_score * provenance.efficiency() * tte_factor * tail_factor;

    CellScore {
        id,
        ops_per_sec: r.ops_per_sec,
        mean_tte,
        converged_shifts,
        total_shifts: shifts.len(),
        provenance,
        tally_gaps,
        worst_window_ns: worst,
        steady_ns: steady,
        end: EndState::of(&exp.machine, &[(&*exp.system, sc.ws_range())]),
        resilience,
    }
}

/// Runs one cell (see [`build_cell`]) end to end with telemetry attached
/// and scores it.
pub fn run_cell(
    sc: &GauntletScenario,
    tkind: TraceKind,
    id: CellId,
    fixture: Option<&Arc<Trace>>,
) -> Result<CellScore, workloads::ReplayError> {
    let mut exp = build_cell(sc, tkind, id, fixture)?;
    exp.attach_telemetry(telemetry::Sink::ring(EVENT_CAP, 0));
    let r = run_exp(&mut exp, &RunConfig::timeline(sc.run_ticks));
    Ok(score_run(sc, id, &exp, &r, &shift_times(sc, tkind)))
}

/// One trace column of the matrix.
#[derive(Debug, Clone)]
pub struct GauntletOutcome {
    /// The trace this column drove.
    pub kind: TraceKind,
    /// All cells, in system → colloid → supervisor → engine order.
    pub cells: Vec<CellScore>,
}

/// Formats one trace column as a score table.
pub fn render(sc: &GauntletScenario, outcome: &GauntletOutcome) -> String {
    let mut t = Table::new(vec![
        "system",
        "Mops/s",
        "TTE (ticks)",
        "converged",
        "useful/wasted",
        "eff",
        "worst ns",
        "steady ns",
        "resilience",
    ]);
    for c in &outcome.cells {
        let fmt_ns = |v: Option<f64>| v.map(|x| format!("{x:.0}")).unwrap_or_else(|| "-".into());
        t.row(vec![
            c.id.name(),
            format!("{:.2}", c.ops_per_sec / 1e6),
            c.mean_tte_ticks(sc.tick())
                .map(|x| format!("{x:.1}"))
                .unwrap_or_else(|| "-".into()),
            format!("{}/{}", c.converged_shifts, c.total_shifts),
            format!("{}/{}", c.provenance.useful, c.provenance.wasted),
            format!("{:.2}", c.provenance.efficiency()),
            fmt_ns(c.worst_window_ns),
            fmt_ns(c.steady_ns),
            format!("{:.3}", c.resilience),
        ]);
    }
    format!("## {} trace\n{}", outcome.kind.label(), t.render())
}

// --- determinism proof ---------------------------------------------------

/// Bit-faithful digest of a [`RunResult`]: every field (series included)
/// participates via its shortest-round-trip `Debug` form, so two digests
/// are equal iff the runs produced identical numbers. The hashed text
/// keeps the shape the committed digests were taken over, which named
/// each tier's latency as a field (`l_default_ns`, `l_alternate_ns`, then
/// `l_tier<i>_ns`).
pub fn run_digest(r: &RunResult) -> String {
    let RunResult {
        ops_per_sec,
        latency_ns,
        bytes_by_tier_class,
        measure_duration,
        warmup_ticks_used,
        fault_stats,
        retry_stats,
        supervision,
        migration,
        series,
    } = r;
    let mut text = format!("RunResult {{ ops_per_sec: {ops_per_sec:?}, ");
    for (i, l) in latency_ns.iter().enumerate() {
        let name = match i {
            0 => "l_default_ns".to_string(),
            1 => "l_alternate_ns".to_string(),
            _ => format!("l_tier{i}_ns"),
        };
        text.push_str(&format!("{name}: {l:?}, "));
    }
    text.push_str(&format!(
        "bytes_by_tier_class: {bytes_by_tier_class:?}, measure_duration: {measure_duration:?}, \
         warmup_ticks_used: {warmup_ticks_used:?}, fault_stats: {fault_stats:?}, \
         retry_stats: {retry_stats:?}, supervision: {supervision:?}, migration: {migration:?}, \
         series: {series:?} }}"
    ));
    format!("{:016x}", fnv1a(FNV_OFFSET, text.as_bytes()))
}

/// Everything the record → export → import → replay proof produced.
#[derive(Debug, Clone)]
pub struct DeterminismReport {
    /// Records the capture run generated.
    pub records: usize,
    /// NDJSON export size in bytes.
    pub ndjson_bytes: usize,
    /// Digest of the original (recorded) run.
    pub original_digest: String,
    /// Digest of the run replayed from the imported NDJSON.
    pub replay_digest: String,
    /// Digest of a second, independent replay of the same import.
    pub replay2_digest: String,
    /// Whether the original and replayed telemetry event streams are
    /// byte-identical as NDJSON.
    pub events_match: bool,
}

impl DeterminismReport {
    /// True iff replay is bit-identical to the original run and to itself.
    pub fn holds(&self) -> bool {
        self.original_digest == self.replay_digest
            && self.replay_digest == self.replay2_digest
            && self.events_match
    }
}

/// Builds the capture-shape cell: one app core, HeMem+Colloid, exclusive
/// engine — the configuration whose captures the fixture column replays.
fn capture_shape(sc: &GauntletScenario, stream: Box<dyn AccessStream>) -> Experiment {
    assemble(sc, vec![stream], CAPTURE)
}

/// Runs one capture-shape cell for `ticks` and returns its result plus
/// the telemetry event stream as NDJSON.
fn run_capture_shape(
    sc: &GauntletScenario,
    stream: Box<dyn AccessStream>,
    ticks: usize,
) -> (RunResult, String) {
    let mut exp = capture_shape(sc, stream);
    exp.attach_telemetry(telemetry::Sink::ring(EVENT_CAP, 0));
    let r = run_exp(&mut exp, &RunConfig::timeline(ticks));
    let events = exp.sink.with(|rec| rec.events()).unwrap_or_default();
    (r, telemetry::events_to_ndjson(&events))
}

/// Records a capture run, exports it to NDJSON, re-imports it, replays
/// it twice, and compares everything bit for bit.
///
/// The proof needs `llc_hit_prob == 0` on every access (the gauntlet
/// generators guarantee this): LLC-hit sampling shares the per-core RNG
/// with the stream, and a replayer consumes no draws, so any LLC draw
/// after the first access would diverge — DESIGN.md §14.
pub fn determinism_check(sc: &GauntletScenario) -> Result<DeterminismReport, String> {
    // Capture: record the phase-shift generator while the run executes.
    let generator = PhaseShiftStream::new(phase_shift_config(sc)).map_err(|e| e.to_string())?;
    let (recorder, handle) = TraceRecorder::new(generator, usize::MAX);
    let (original, original_events) = run_capture_shape(sc, Box::new(recorder), sc.capture_ticks);
    let trace = handle.lock().expect("trace sink poisoned").clone();
    if trace.records().iter().any(|r| r.access.llc_hit_prob != 0.0) {
        return Err("capture contains llc_hit_prob > 0 accesses: replay cannot be bit-identical (DESIGN.md §14)".into());
    }

    // Export → import.
    let ndjson = trace_to_ndjson(&trace);
    let imported = trace_from_ndjson(&ndjson).map_err(|e| format!("re-import failed: {e}"))?;
    if imported != trace {
        return Err("imported trace differs from the recorded one".into());
    }
    let imported = Arc::new(imported);

    // Replay twice; all three runs must match bit for bit.
    let mut report = DeterminismReport {
        records: trace.len(),
        ndjson_bytes: ndjson.len(),
        original_digest: run_digest(&original),
        replay_digest: String::new(),
        replay2_digest: String::new(),
        events_match: false,
    };
    let mut replay_events = String::new();
    for round in 0..2 {
        let replayer = TraceReplayer::try_new(Arc::clone(&imported)).map_err(|e| e.to_string())?;
        let (replayed, events) = run_capture_shape(sc, Box::new(replayer), sc.capture_ticks);
        let digest = run_digest(&replayed);
        if round == 0 {
            report.replay_digest = digest;
            replay_events = events;
        } else {
            report.replay2_digest = digest;
        }
    }
    report.events_match = replay_events == original_events;
    Ok(report)
}

/// Digest of `trace` replayed through the capture-shape cell (one core,
/// HeMem+Colloid, exclusive engine) over `capture_ticks` — the quantity
/// the golden pin freezes so future PRs cannot silently change replay
/// semantics.
pub fn fixture_replay_digest(sc: &GauntletScenario, trace: &Arc<Trace>) -> String {
    let replayer = TraceReplayer::try_new(Arc::clone(trace)).expect("non-empty fixture");
    let (r, _events) = run_capture_shape(sc, Box::new(replayer), sc.capture_ticks);
    run_digest(&r)
}

/// Captures a short phase-shift run and returns the first `max_records`
/// accesses as NDJSON — the committed-fixture generator (EXPERIMENTS.md
/// "Adaptivity gauntlet" documents the workflow).
pub fn capture_fixture_ndjson(sc: &GauntletScenario, max_records: usize) -> String {
    let generator =
        PhaseShiftStream::new(phase_shift_config(sc)).expect("valid phase-shift config");
    let (recorder, handle) = TraceRecorder::new(generator, max_records);
    let _ = run_capture_shape(sc, Box::new(recorder), sc.capture_ticks);
    let trace = handle.lock().expect("trace sink poisoned").clone();
    trace_to_ndjson(&trace)
}

// --- smoke gates ---------------------------------------------------------

/// Mean over cells selected by `pick`, of `metric`.
fn mean_over(
    cells: &[CellScore],
    pick: impl Fn(&CellScore) -> bool,
    metric: impl Fn(&CellScore) -> f64,
) -> Option<f64> {
    let sel: Vec<f64> = cells.iter().filter(|c| pick(c)).map(&metric).collect();
    (!sel.is_empty()).then(|| sel.iter().sum::<f64>() / sel.len() as f64)
}

/// The harness's own `--smoke` gates (page conservation is the
/// driver's). Returns the failures (empty = pass):
///
/// 1. **replay determinism** — record → export → import → replay is
///    bit-identical to the original run (`RunResult` digest + telemetry
///    NDJSON), and two replays of the same import are identical;
/// 2. **adversarial adaptivity** — averaged across systems on the
///    exclusive engine, supervised Colloid beats bare vanilla on both
///    mean time-to-equilibrium and wasted-migration work in the
///    adversarial column;
/// 3. **typed trace errors** — corrupt and empty NDJSON fixtures surface
///    as typed errors, never panics;
/// 4. **whole tallies** — no cell's ring dropped an event or a span, and
///    each cell's provenance lands as many copies as the engine's books
///    completed.
pub fn smoke_failures(
    sc: &GauntletScenario,
    outcomes: &[GauntletOutcome],
    det: &DeterminismReport,
) -> Vec<String> {
    let mut fails = Vec::new();

    if !det.holds() {
        fails.push(format!(
            "replay not bit-identical: original {} vs replay {} / replay2 {} (events match: {})",
            det.original_digest, det.replay_digest, det.replay2_digest, det.events_match
        ));
    }

    if let Some(adv) = outcomes.iter().find(|o| o.kind == TraceKind::Adversarial) {
        let supervised_colloid =
            |c: &CellScore| c.id.colloid && c.id.supervised && !c.id.transactional;
        let bare_vanilla = |c: &CellScore| !c.id.colloid && !c.id.supervised && !c.id.transactional;
        let tte_ticks = |c: &CellScore| c.mean_tte_ticks(sc.tick()).unwrap_or(sc.run_ticks as f64);
        let wasted = |c: &CellScore| c.provenance.wasted as f64;
        match (
            mean_over(&adv.cells, supervised_colloid, tte_ticks),
            mean_over(&adv.cells, bare_vanilla, tte_ticks),
        ) {
            (Some(sv), Some(van)) if sv >= van => fails.push(format!(
                "adversarial: supervised Colloid TTE {sv:.1} ticks not better than bare vanilla {van:.1}"
            )),
            (None, _) | (_, None) => fails.push("adversarial column missing cells".into()),
            _ => {}
        }
        if let (Some(sv), Some(van)) = (
            mean_over(&adv.cells, supervised_colloid, wasted),
            mean_over(&adv.cells, bare_vanilla, wasted),
        ) {
            if sv >= van {
                fails.push(format!(
                    "adversarial: supervised Colloid wasted work {sv:.0} not better than bare vanilla {van:.0}"
                ));
            }
        }
    } else {
        fails.push("no adversarial column in the matrix".into());
    }

    // Typed-error surface: corrupt and empty inputs must fail cleanly.
    if trace_from_ndjson("{\"schema\":\"colloid-trace\",\"version\":1,\"records\":2}\n{broken")
        .is_ok()
    {
        fails.push("corrupt NDJSON fixture did not produce an error".into());
    }
    let empty = trace_from_ndjson("{\"schema\":\"colloid-trace\",\"version\":1,\"records\":0}\n")
        .expect("empty trace parses");
    if TraceReplayer::try_new(Arc::new(empty)).is_ok() {
        fails.push("empty fixture trace did not produce a typed replay error".into());
    }

    for o in outcomes {
        for c in &o.cells {
            let cell = format!("{}/{}", o.kind.label(), c.id.name());
            fails.extend(c.tally_gaps.iter().map(|g| format!("{cell}: {g}")));
        }
    }
    fails
}

/// Records in the committed fixture (quick-mode scale: the file stays
/// small enough to commit, the replay still exercises wrap-around).
const FIXTURE_RECORDS: usize = 1024;

/// The committed fixture trace the fixture column replays.
pub fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/gauntlet_phase_shift.ndjson")
}

/// The golden replay digest of the committed fixture.
pub fn golden_digest_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/gauntlet_fixture_digest.txt")
}

/// Loads and validates an NDJSON fixture, surfacing corrupt or empty
/// files as errors, never panics.
pub fn load_fixture(path: &Path) -> Result<Arc<Trace>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let trace =
        trace_from_ndjson(&text).map_err(|e| format!("invalid trace {}: {e}", path.display()))?;
    let trace = Arc::new(trace);
    // Reject empty traces here with the typed replay error so the matrix
    // never panics on them.
    TraceReplayer::try_new(Arc::clone(&trace))
        .map_err(|e| format!("unusable trace {}: {e}", path.display()))?;
    Ok(trace)
}

/// The adaptivity gauntlet (`grid gauntlet`): every generated trace, then
/// the fixture column, each × system × ±Colloid × ±supervisor × both
/// engines.
pub struct Gauntlet {
    opts: Opts,
    sc: GauntletScenario,
    fixture: Option<Arc<Trace>>,
    det: Option<DeterminismReport>,
}

impl Gauntlet {
    /// The gauntlet for the given options.
    pub fn new(opts: Opts) -> Self {
        Gauntlet {
            sc: GauntletScenario::paper_default(opts.quick),
            opts,
            fixture: None,
            det: None,
        }
    }
}

impl Harness for Gauntlet {
    type Cell = (TraceKind, CellId);
    type Outcome = CellScore;

    /// Loads the fixture column's trace (the committed fixture, or
    /// `--replay`'s file) and runs the replay-determinism proof, which is
    /// always reported and gated under `--smoke`.
    fn preamble(&mut self) -> Result<String, String> {
        let sc = &self.sc;
        let mut out = format!(
            "Adaptivity gauntlet: {} ws pages, hot {}, default tier {} pages, {} ticks/cell{}\n",
            sc.ws_pages,
            sc.hot_pages,
            sc.default_pages,
            sc.run_ticks,
            if self.opts.quick { " (quick)" } else { "" },
        );
        let path = self.opts.replay.clone().unwrap_or_else(fixture_path);
        let fixture = load_fixture(&path).map_err(|e| format!("fixture error: {e}"))?;
        out.push_str(&format!(
            "fixture: {} ({} records)\n",
            path.display(),
            fixture.len()
        ));
        self.fixture = Some(fixture);
        let det =
            determinism_check(sc).map_err(|e| format!("determinism check failed to run: {e}"))?;
        out.push_str(&format!(
            "replay determinism: {} records, {} NDJSON bytes, original {} / replay {} / replay2 {}, events match: {}\n",
            det.records,
            det.ndjson_bytes,
            det.original_digest,
            det.replay_digest,
            det.replay2_digest,
            det.events_match
        ));
        self.det = Some(det);
        Ok(out)
    }

    fn cells(&self) -> Vec<(String, Self::Cell)> {
        let mut cells = Vec::new();
        let traces = TraceKind::GENERATED
            .into_iter()
            .chain(self.fixture.is_some().then_some(TraceKind::Fixture));
        for tkind in traces {
            for kind in SystemKind::ALL {
                for colloid in [false, true] {
                    for supervised in [false, true] {
                        for transactional in [false, true] {
                            let id = CellId {
                                kind,
                                colloid,
                                supervised,
                                transactional,
                            };
                            cells.push((format!("{}/{}", tkind.label(), id.name()), (tkind, id)));
                        }
                    }
                }
            }
        }
        cells
    }

    fn run(&self, &(tkind, id): &Self::Cell) -> CellScore {
        let fixture = self
            .fixture
            .as_ref()
            .filter(|_| tkind == TraceKind::Fixture);
        run_cell(&self.sc, tkind, id, fixture).expect("fixture validated non-empty at load time")
    }

    fn end_state(outcome: &CellScore) -> &EndState {
        &outcome.end
    }

    fn finish(&mut self, results: Vec<(Self::Cell, CellScore)>, ctx: &mut Ctx) -> Vec<String> {
        let mut outcomes: Vec<GauntletOutcome> = Vec::new();
        for ((kind, _), cell) in results {
            match outcomes.last_mut() {
                Some(o) if o.kind == kind => o.cells.push(cell),
                _ => outcomes.push(GauntletOutcome {
                    kind,
                    cells: vec![cell],
                }),
            }
        }
        if self.opts.smoke {
            let det = self
                .det
                .as_ref()
                .expect("preamble ran the determinism check");
            ctx.failures
                .extend(smoke_failures(&self.sc, &outcomes, det));
        }
        outcomes
            .iter()
            .map(|o| render(&self.sc, o) + "\n")
            .collect()
    }

    /// The phase-shift column's bare and fully-stacked HeMem+Colloid
    /// cells. The adaptivity scores pin the controller trajectory
    /// exactly; wall-clock tracks the matrix's real cost across PRs.
    fn bench(&self) -> Option<Bench<Self::Cell>> {
        Some(Bench {
            scenario: "phase-shift, HeMem+Colloid bare vs supervised+txn (quick axis)".into(),
            ticks: self.sc.run_ticks,
            pinned: |(tkind, id)| {
                let stacked = CellId {
                    supervised: true,
                    transactional: true,
                    ..CAPTURE
                };
                *tkind == TraceKind::PhaseShift && [CAPTURE, stacked].contains(id)
            },
        })
    }

    fn bench_fields(&self, c: &CellScore) -> Vec<(&'static str, f64)> {
        vec![
            ("resilience", c.resilience),
            (
                "mean_tte_ticks",
                c.mean_tte_ticks(self.sc.tick()).unwrap_or(f64::NAN),
            ),
            ("converged_shifts", c.converged_shifts as f64),
            ("worst_window_ns", c.worst_window_ns.unwrap_or(f64::NAN)),
            ("steady_ns", c.steady_ns.unwrap_or(f64::NAN)),
            ("useful_migrations", c.provenance.useful as f64),
            ("wasted_migrations", c.provenance.wasted as f64),
            ("resident_pages", c.end.resident as f64),
        ]
    }

    /// Regenerates the committed fixture trace and its golden replay
    /// digest (EXPERIMENTS.md documents the workflow; run with
    /// `--quick`, the scale the fixture is pinned to).
    fn regen(&self) -> Result<String, String> {
        let sc = &self.sc;
        let ndjson = capture_fixture_ndjson(sc, FIXTURE_RECORDS);
        let fixture = fixture_path();
        std::fs::write(&fixture, &ndjson)
            .map_err(|e| format!("cannot write {}: {e}", fixture.display()))?;

        // Golden digest: the fixture replayed through the capture-shape cell.
        let trace = Arc::new(trace_from_ndjson(&ndjson).map_err(|e| e.to_string())?);
        let cell =
            run_cell(sc, TraceKind::Fixture, CAPTURE, Some(&trace)).map_err(|e| e.to_string())?;
        let digest = format!(
            "{:.6} {} {}\n",
            cell.ops_per_sec / 1e6,
            cell.provenance.completed,
            fixture_replay_digest(sc, &trace)
        );
        let golden = golden_digest_path();
        std::fs::write(&golden, &digest)
            .map_err(|e| format!("cannot write {}: {e}", golden.display()))?;
        Ok(format!(
            "wrote {} ({} bytes)\nwrote {}: {digest}",
            fixture.display(),
            ndjson.len(),
            golden.display()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> GauntletScenario {
        GauntletScenario {
            ws_pages: 1024,
            hot_pages: 256,
            default_pages: 384,
            app_cores: 2,
            run_ticks: 60,
            phase_period_ticks: 20,
            diurnal_period_ticks: 40,
            flip_period_ticks: 15,
            capture_ticks: 8,
            seed: 7,
        }
    }

    fn id(kind: SystemKind, colloid: bool, supervised: bool, transactional: bool) -> CellId {
        CellId {
            kind,
            colloid,
            supervised,
            transactional,
        }
    }

    #[test]
    fn generated_cells_run_and_conserve_pages() {
        let sc = tiny();
        for tkind in TraceKind::GENERATED {
            let c = run_cell(&sc, tkind, CAPTURE, None).unwrap();
            assert!(c.end.conserved(), "{}", tkind.label());
            assert_eq!(c.end.expected, sc.ws_pages);
            assert!(c.ops_per_sec > 0.0);
            if tkind != TraceKind::Fixture {
                assert!(c.total_shifts > 0);
            }
        }
    }

    #[test]
    fn determinism_check_holds_on_tiny_scenario() {
        let sc = tiny();
        let det = determinism_check(&sc).expect("determinism check runs");
        assert!(det.records > 0);
        assert!(
            det.holds(),
            "original {} replay {} replay2 {} events_match {}",
            det.original_digest,
            det.replay_digest,
            det.replay2_digest,
            det.events_match
        );
    }

    #[test]
    fn fixture_cell_replays_committed_shape() {
        let sc = tiny();
        let ndjson = capture_fixture_ndjson(&sc, 512);
        let trace = Arc::new(trace_from_ndjson(&ndjson).unwrap());
        assert_eq!(trace.len(), 512);
        let tpp = id(SystemKind::Tpp, false, false, false);
        let a = run_cell(&sc, TraceKind::Fixture, tpp, Some(&trace)).unwrap();
        let b = run_cell(&sc, TraceKind::Fixture, tpp, Some(&trace)).unwrap();
        assert!(a.end.conserved());
        // Two replays of the same fixture are bit-identical.
        assert_eq!(a.ops_per_sec.to_bits(), b.ops_per_sec.to_bits());
    }

    #[test]
    fn empty_fixture_surfaces_typed_error() {
        let sc = tiny();
        let empty = Arc::new(Trace::default());
        let bare = id(SystemKind::Hemem, false, false, false);
        let err = build_cell(&sc, TraceKind::Fixture, bare, Some(&empty))
            .err()
            .expect("empty fixture must not build");
        assert_eq!(err, workloads::ReplayError::EmptyTrace);
    }

    #[test]
    fn cell_names_compose() {
        assert_eq!(
            id(SystemKind::Hemem, true, true, true).name(),
            "HeMem+Colloid+SV [txn]"
        );
        assert_eq!(id(SystemKind::Tpp, false, false, false).name(), "TPP");
    }

    #[test]
    fn provenance_skips_aborted_copies() {
        // A transactional write storm aborts four copies at the
        // dirty-retry cap, then the same four pages land after it ends.
        // Each aborted copy closed its migration span too; the fold must
        // count only the four that landed, as the engine's books do.
        use memsim::{FaultPlan, Machine, MachineConfig, TierId, WriteConflictStorm};
        let mut cfg = MachineConfig::icelake_two_tier();
        cfg.engine = memsim::MigrationEngineConfig::transactional();
        cfg.engine.dirty_retry_max = 2;
        cfg.faults = FaultPlan {
            write_conflict_storms: vec![WriteConflictStorm {
                start: SimTime::ZERO,
                end: SimTime::from_ms(5.0),
                hot_fraction: 1.0,
                dirties_per_txn: u32::MAX,
            }],
            ..FaultPlan::none()
        };
        let mut m = Machine::new(cfg);
        let sink = telemetry::Sink::ring(1 << 10, 0);
        m.set_telemetry(sink.clone());
        m.place_range(0..16, TierId::DEFAULT);
        for _storm_then_calm in 0..2 {
            for v in 0..4 {
                m.enqueue_migration(v, TierId::ALTERNATE).unwrap();
            }
            m.run_tick(SimTime::from_ms(5.0));
        }
        let books = m.migration_counters();
        assert_eq!((books.completed, books.aborted_write_conflict), (4, 4));
        let p = sink
            .with(|r| telemetry::provenance(&r.events(), &r.spans(), SimTime::from_ms(1.0)))
            .unwrap();
        assert_eq!((p.completed, p.useful, p.wasted), (4, 4, 0));
        assert!(p.pages.iter().all(|h| h.moves.len() == 1));
    }

    #[test]
    fn fold_copies_names_drops_and_disagreements() {
        let sink = telemetry::Sink::ring(0, 0);
        let mut books = memsim::MigrationCounters::default();
        assert!(fold_copies(&sink, &books).1.is_empty());
        sink.emit(telemetry::Source::Runner, || {
            telemetry::EventKind::EquilibriumReset
        });
        books.completed = 2;
        assert_eq!(
            fold_copies(&sink, &books).1,
            [
                "ring dropped 1 events and 0 spans",
                "provenance folds 0 landed copies but the engine completed 2"
            ]
        );
    }

    #[test]
    fn transactional_cells_conserve_pages() {
        let sc = tiny();
        let memtis = id(SystemKind::Memtis, true, true, true);
        let c = run_cell(&sc, TraceKind::Adversarial, memtis, None).unwrap();
        assert!(c.id.name().ends_with("[txn]"));
        assert!(c.end.violations(&c.id.name()).is_empty());
    }
}
