//! End-to-end telemetry and causal-trace demonstration (`grid timeline`).
//!
//! Runs the Figure 9 "contention 0x -> 3x" shift for HeMem with and
//! without Colloid, then the fault-free quickstart, each once with a full
//! [`telemetry::RingRecorder`] attached (events and spans: scoped tick
//! spans, async per-copy migration spans, decision spans carried as
//! causal links). Every artifact comes from those runs:
//!
//! - the event stream as NDJSON and the per-tick metrics as CSV
//!   (`timeline_out/<policy>.{ndjson,csv}`), throughput timelines, an
//!   event-log excerpt, and the derived analytics: time-to-equilibrium
//!   after the shift, migration-efficiency accounting, and
//!   latency-inversion episodes;
//! - the HeMem+Colloid run as chrome-`trace_event` JSON
//!   (`timeline_out/trace.json`, loadable in `ui.perfetto.dev` or
//!   `chrome://tracing`) and folded stacks (`timeline_out/trace.folded`,
//!   for `flamegraph.pl`/inferno);
//! - the migration spans folded into the per-page provenance report:
//!   useful/wasted accounting, ping-pong churn, and the blame table
//!   attributing wasted copies to the decision sites that issued them;
//! - the simulator's own wall-clock profile (`simkit::profile`) over the
//!   instrumented hot paths of the two traced runs (HeMem+Colloid and
//!   the quickstart).
//!
//! `--smoke` self-validates (CI runs `grid timeline --quick --smoke`):
//! the NDJSON must parse against the schema, each event stream must be
//! non-empty, and the Colloid run must reach a finite time-to-equilibrium
//! after the shift; the emitted JSON must pass
//! [`telemetry::validate_chrome_trace`], every completed migration span
//! must resolve a causal chain back to a decision span, the provenance
//! wasted total must reconcile with [`telemetry::migration_accounting`]
//! over the event stream, the profiler must cover the instrumented hot
//! paths, and the fault-free quickstart must show zero ping-pong pages.

use simkit::SimTime;
use tiersys::SystemKind;

use crate::figures::fig9::Dynamic;
use crate::figures::{Gups, Sim};
use crate::grid::{Ctx, EndState, Harness, Opts};
use crate::runner::{run as run_exp, TickSample};
use crate::scenario::Policy;
use telemetry::render::series;

/// Event-ring capacity: comfortably above the migration traffic a full
/// 600-tick run generates, so accounting sees the complete stream.
const EVENT_CAP: usize = 200_000;
/// Span-ring capacity: 3 scoped spans per tick plus one per decision and
/// one per page copy — a full run stays well under this.
const SPAN_CAP: usize = 400_000;
/// Convergence window (ticks) for the time-to-equilibrium measurement.
const TTE_WINDOW: usize = 25;
/// Relative tolerance for the time-to-equilibrium measurement.
const TTE_TOLERANCE: f64 = 0.05;
/// Ping-pong horizon: a page migrated again within this window of its
/// previous copy counts as churn (10 control quanta at the 100 µs tick).
const PING_PONG_WINDOW: SimTime = SimTime::from_ps(1_000_000_000); // 1 ms

/// The Figure 9 contention-shift cell under HeMem ± Colloid.
pub(crate) fn contention(colloid: bool) -> Sim {
    let policy = Policy::System {
        kind: SystemKind::Hemem,
        colloid,
    };
    Sim::Timeline(Dynamic::ContentionOn, policy)
}

/// The fault-free quickstart: steady-state GUPS @ 2× under HeMem+Colloid.
pub(crate) fn quickstart() -> Sim {
    Sim::Gups(Gups::new(2, SystemKind::Hemem, true))
}

/// One recorded run and everything derived from it.
pub struct CellOutcome {
    /// Policy display name (e.g. `HeMem+Colloid`).
    pub name: String,
    /// Simulated time of the workload shift (`None` for the quickstart).
    pub shift_t: Option<SimTime>,
    /// Per-tick metrics (empty for the steady-state quickstart).
    pub series: Vec<TickSample>,
    /// The recorded event stream.
    pub events: Vec<telemetry::Event>,
    /// Events the ring had to drop (0 unless `EVENT_CAP` overflows).
    pub dropped_events: u64,
    /// The recorded span stream (scoped + async + decisions).
    pub spans: Vec<telemetry::SpanRecord>,
    /// Spans the ring dropped (0 unless `SPAN_CAP` overflows).
    pub dropped_spans: u64,
    /// Time from the shift to throughput re-stabilisation.
    pub tte: Option<SimTime>,
    /// Migration-efficiency accounting over the event stream.
    pub accounting: telemetry::MigrationAccounting,
    /// Latency-inversion episode statistics over the series.
    pub inversions: telemetry::InversionStats,
    /// Folded per-page provenance.
    pub provenance: telemetry::ProvenanceReport,
    /// End state over the working set.
    pub end: EndState,
}

/// Runs `sim` (quick mode when `quick`) with a recording ring attached.
fn run_cell(sim: &Sim, quick: bool) -> CellOutcome {
    let (mut exp, rc, ws) = sim.build(quick);
    exp.attach_telemetry(telemetry::Sink::new(Box::new(
        telemetry::RingRecorder::new(EVENT_CAP).with_span_cap(SPAN_CAP),
    )));
    let shift_t = exp.antagonist_change.map(|(t, _)| t);
    let name = exp.system.name();
    let r = run_exp(&mut exp, &rc);
    let events = exp.sink.with(|rec| rec.events()).unwrap_or_default();
    let spans = exp.sink.with(|rec| rec.spans()).unwrap_or_default();
    let tte = shift_t.and_then(|t| {
        telemetry::time_to_equilibrium(&r.series, t, TTE_WINDOW, TTE_TOLERANCE, |m| m.ops_per_sec)
    });
    CellOutcome {
        name,
        shift_t,
        tte,
        accounting: telemetry::migration_accounting(&events),
        inversions: telemetry::InversionStats::from_series(&r.series),
        provenance: telemetry::provenance(&events, &spans, PING_PONG_WINDOW),
        dropped_events: exp.sink.with(|rec| rec.dropped_events()).unwrap_or(0),
        dropped_spans: exp.sink.with(|rec| rec.dropped_spans()).unwrap_or(0),
        series: r.series,
        events,
        spans,
        end: EndState::of(&exp.machine, &[(&*exp.system, ws)]),
    }
}

/// Formats one cell's analytics block.
fn analytics_block(c: &CellOutcome) -> String {
    let mut out = String::new();
    let tte = match c.tte {
        Some(t) => format!("{:.1} ms", t.as_ns() / 1e6),
        None => "not reached".to_string(),
    };
    out.push_str(&format!(
        "  time-to-equilibrium after shift: {tte}\n  migrations: {} started, {} completed, \
         {} useful / {} wasted (efficiency {:.0}%), {} failed, {} retried, {} exhausted\n",
        c.accounting.started,
        c.accounting.completed,
        c.accounting.useful,
        c.accounting.wasted,
        c.accounting.efficiency() * 100.0,
        c.accounting.failed,
        c.accounting.retried,
        c.accounting.exhausted,
    ));
    out.push_str(&format!(
        "  latency inversions: {} episodes, {:.1} ms total, longest {:.1} ms ({:.0}% of run)\n",
        c.inversions.episodes,
        c.inversions.total.as_ns() / 1e6,
        c.inversions.longest.as_ns() / 1e6,
        c.inversions.inverted_fraction(&c.series) * 100.0,
    ));
    if c.dropped_events > 0 {
        out.push_str(&format!(
            "  (event ring overflowed: {} oldest events dropped)\n",
            c.dropped_events
        ));
    }
    out
}

/// File-name-safe variant of a policy name.
fn slug(name: &str) -> String {
    name.chars()
        .map(|ch| {
            if ch.is_ascii_alphanumeric() {
                ch.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// Smoke check: every completed migration span resolves a causal chain
/// back to a decision span. Returns the number checked.
fn check_causal_chains(c: &CellOutcome) -> Result<usize, String> {
    let index = telemetry::SpanIndex::new(&c.spans);
    let mut checked = 0usize;
    for sp in &c.spans {
        if !matches!(sp.payload, telemetry::SpanPayload::Migration { .. }) {
            continue;
        }
        match index.decision_chain(sp.cause) {
            Some(_) => checked += 1,
            None => {
                return Err(format!(
                    "{}: migration span {} (vpn payload {:?}) has no causal chain to a decision",
                    c.name, sp.id.0, sp.payload
                ))
            }
        }
    }
    Ok(checked)
}

/// The telemetry demo (`grid timeline`): the contention shift under
/// HeMem vanilla and HeMem+Colloid, then the fault-free quickstart.
pub struct Timeline(pub Opts);

impl Timeline {
    /// The timeline blocks: each contention cell's NDJSON + CSV exports,
    /// throughput timeline, event log and analytics. Under `--smoke` the
    /// NDJSON must parse against the schema, the event stream must be
    /// non-empty, and the Colloid run must reach a finite equilibrium
    /// after the shift.
    fn timeline_text(&self, cells: [&CellOutcome; 2], ctx: &mut Ctx) -> String {
        let mut out = String::from("== Telemetry timeline: contention 0x -> 3x ==\n");
        for (cell, colloid) in cells.into_iter().zip([false, true]) {
            let ndjson = telemetry::events_to_ndjson(&cell.events);
            let csv = telemetry::metrics_to_csv(&cell.series);
            let slug = slug(&cell.name);
            let nd_path = ctx.export(&format!("{slug}.ndjson"), &ndjson);
            let csv_path = ctx.export(&format!("{slug}.csv"), &csv);
            if let (Some(nd_path), Some(csv_path)) = (nd_path, csv_path) {
                out.push_str(&format!(
                    "wrote {nd_path} ({} events) and {csv_path} ({} rows)\n",
                    cell.events.len(),
                    cell.series.len(),
                ));
            }

            let pts: Vec<(f64, f64)> = cell
                .series
                .iter()
                .map(|s| (s.t.as_ns() / 1e6, s.ops_per_sec / 1e6))
                .collect();
            let shift_t = cell.shift_t.expect("a contention cell shifts");
            out.push_str(&series(
                &format!(
                    "{} | shift @ {:.1} ms | Mops/s over time (ms)",
                    cell.name,
                    shift_t.as_ns() / 1e6
                ),
                &pts,
                20,
            ));
            out.push_str(&telemetry::render::event_log(&cell.events, 12));
            out.push_str(&analytics_block(cell));

            if self.0.smoke {
                if let Err(e) = telemetry::validate_ndjson(&ndjson) {
                    ctx.failures
                        .push(format!("{}: NDJSON validation failed: {e}", cell.name));
                }
                if colloid && cell.tte.is_none() {
                    ctx.failures.push(format!(
                        "{}: no finite time-to-equilibrium after the shift",
                        cell.name
                    ));
                }
                if cell.events.is_empty() {
                    ctx.failures
                        .push(format!("{}: event stream is empty", cell.name));
                }
            }
        }
        if self.0.smoke {
            out.push_str(if ctx.failures.is_empty() {
                "telemetry smoke: PASS\n"
            } else {
                "telemetry smoke: FAIL\n"
            });
        }
        out.push('\n');
        out
    }

    /// The causal-trace blocks: the Colloid contention cell's chrome
    /// trace and folded stacks, both traced cells' provenance, and the
    /// profile. Under `--smoke`: the trace passes the offline format
    /// checker, every completed copy chains back to a decision span,
    /// blame reconciles with the event-stream accounting, the fault-free
    /// quickstart shows zero ping-pong, and the profiler covered the
    /// instrumented hot paths.
    fn trace_text(&self, cell: &CellOutcome, quickstart: &CellOutcome, ctx: &mut Ctx) -> String {
        let mut out = String::from("== Causal trace: contention 0x -> 3x (HeMem+Colloid) ==\n");
        let trace_json = telemetry::chrome_trace_json(&cell.spans, &cell.events, &cell.series);
        let folded = telemetry::folded_stacks(&cell.spans);
        let json_path = ctx.export("trace.json", &trace_json);
        let folded_path = ctx.export("trace.folded", &folded);
        if let (Some(json_path), Some(folded_path)) = (json_path, folded_path) {
            out.push_str(&format!(
                "wrote {json_path} ({} spans, {} events, {} metric rows; \
                 load in ui.perfetto.dev)\nwrote {folded_path} ({} stacks)\n",
                cell.spans.len(),
                cell.events.len(),
                cell.series.len(),
                folded.lines().count(),
            ));
        }

        out.push_str(&format!("\n-- Provenance: {} --\n", cell.name));
        out.push_str(&cell.provenance.render());
        out.push_str(&format!(
            "\n-- Provenance: {} (fault-free quickstart) --\n",
            quickstart.name
        ));
        out.push_str(&quickstart.provenance.render());
        out.push_str("\n-- Simulator wall-clock profile --\n");
        out.push_str(&simkit::profile::table());

        if self.0.smoke {
            // 1. The emitted trace must pass the offline format checker.
            match telemetry::validate_chrome_trace(&trace_json) {
                Ok(n) => out.push_str(&format!("\ntrace.json: {n} trace events validated\n")),
                Err(e) => ctx
                    .failures
                    .push(format!("chrome-trace validation failed: {e}")),
            }
            for c in [cell, quickstart] {
                // 2. Every completed copy chains back to a decision span.
                match check_causal_chains(c) {
                    Ok(n) => out.push_str(&format!(
                        "{}: {} migration spans causally resolved\n",
                        c.name, n
                    )),
                    Err(e) => ctx.failures.push(e),
                }
                if c.dropped_spans > 0 {
                    ctx.failures.push(format!(
                        "{}: span ring overflowed ({} dropped)",
                        c.name, c.dropped_spans
                    ));
                }
                // 3. Blame reconciles with the event-stream accounting.
                let (p, acct) = (&c.provenance, &c.accounting);
                if (p.completed, p.wasted) != (acct.completed, acct.wasted) {
                    ctx.failures.push(format!(
                        "{}: provenance ({} completed / {} wasted) disagrees with \
                         accounting ({} / {})",
                        c.name, p.completed, p.wasted, acct.completed, acct.wasted
                    ));
                } else if p.completed_events != p.completed {
                    ctx.failures.push(format!(
                        "{}: {} migration spans vs {} MigrationComplete events",
                        c.name, p.completed, p.completed_events
                    ));
                }
            }
            if cell.provenance.completed == 0 {
                ctx.failures
                    .push("contention cell completed no migrations".into());
            }
            // 4. Zero ping-pong churn in the fault-free quickstart.
            if quickstart.provenance.ping_pong_pages > 0 {
                ctx.failures.push(format!(
                    "fault-free quickstart shows {} ping-pong pages",
                    quickstart.provenance.ping_pong_pages
                ));
            }
            // 5. The profiler covered the instrumented hot paths.
            let rows = simkit::profile::stats();
            let missing: Vec<&str> = [
                "machine.event_loop",
                "machine.cha_sample",
                "machine.mig_engine",
                "colloid.on_quantum",
                "system.on_tick",
            ]
            .into_iter()
            .filter(|h| !rows.iter().any(|r| r.label == *h))
            .collect();
            if !missing.is_empty() {
                ctx.failures
                    .push(format!("profiler missed hot paths: {missing:?}"));
            }
            out.push_str(if ctx.failures.is_empty() {
                "trace smoke: PASS\n"
            } else {
                "trace smoke: FAIL\n"
            });
        }
        out.push('\n');
        out
    }
}

impl Harness for Timeline {
    type Cell = Sim;
    type Outcome = CellOutcome;

    fn preamble(&mut self) -> Result<String, String> {
        simkit::profile::reset();
        Ok(String::new())
    }

    fn cells(&self) -> Vec<(String, Sim)> {
        [contention(false), contention(true), quickstart()]
            .map(|sim| (sim.label(), sim))
            .to_vec()
    }

    /// Runs a contention cell at the harness's size and the quickstart
    /// at full size; the profiler times the two traced cells only.
    fn run(&self, sim: &Sim) -> CellOutcome {
        let traced = *sim != contention(false);
        let quick = self.0.quick && *sim != quickstart();
        simkit::profile::set_enabled(traced);
        let outcome = run_cell(sim, quick);
        simkit::profile::set_enabled(false);
        outcome
    }

    fn end_state(outcome: &CellOutcome) -> &EndState {
        &outcome.end
    }

    /// The timeline blocks, then the causal-trace blocks, with every
    /// export under `timeline_out/`.
    fn finish(&mut self, results: Vec<(Sim, CellOutcome)>, ctx: &mut Ctx) -> Vec<String> {
        let [(_, hemem), (_, colloid), (_, quickstart)] =
            <[_; 3]>::try_from(results).unwrap_or_else(|_| unreachable!("three cells"));
        vec![
            self.timeline_text([&hemem, &colloid], ctx),
            self.trace_text(&colloid, &quickstart, ctx),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_cell_records_events_spans_and_metrics() {
        let c = run_cell(&contention(true), true);
        assert_eq!(c.series.len(), 300);
        assert!(!c.events.is_empty(), "instrumented run must emit events");
        assert_eq!(c.dropped_events, 0, "ring sized for the full stream");
        // The antagonist switch-on is announced by the runner layer.
        assert!(c
            .events
            .iter()
            .any(|e| matches!(e.kind, telemetry::EventKind::WorkloadShift { .. })));
        // Colloid's placement decisions appear as p-updates.
        assert!(c
            .events
            .iter()
            .any(|e| matches!(e.kind, telemetry::EventKind::PUpdate { .. })));
        // Migration traffic is accounted.
        assert!(c.accounting.completed > 0);
        // The exports round-trip: NDJSON validates, CSV has one row per tick.
        let nd = telemetry::events_to_ndjson(&c.events);
        assert_eq!(telemetry::validate_ndjson(&nd).unwrap(), c.events.len());
        let csv = telemetry::metrics_to_csv(&c.series);
        assert_eq!(csv.lines().count(), c.series.len() + 1);

        assert!(!c.spans.is_empty(), "traced run must record spans");
        assert_eq!(c.dropped_spans, 0, "span ring sized for the full run");
        // Scoped tick spans nest under the runner.
        assert!(c.spans.iter().any(|s| s.name == "machine.tick"));
        assert!(c.spans.iter().any(|s| s.name == "runner.tick"));
        // Colloid decisions were recorded and migrations chain to them.
        assert!(c
            .spans
            .iter()
            .any(|s| matches!(s.payload, telemetry::SpanPayload::Decision { .. })));
        assert!(c.provenance.completed > 0);
        assert_eq!(
            check_causal_chains(&c).unwrap() as u64,
            c.provenance.completed
        );
        // Provenance reconciles with the accounting.
        let acct = telemetry::migration_accounting(&c.events);
        assert_eq!(c.provenance.completed, acct.completed);
        assert_eq!(c.provenance.wasted, acct.wasted);
        // The exports are well-formed.
        let json = telemetry::chrome_trace_json(&c.spans, &c.events, &c.series);
        assert!(telemetry::validate_chrome_trace(&json).unwrap() > 0);
        assert!(!telemetry::folded_stacks(&c.spans).is_empty());
    }
}
