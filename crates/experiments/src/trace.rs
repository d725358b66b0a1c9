//! Causal-trace demonstration (`grid trace`).
//!
//! Runs the Figure 9 "contention 0x -> 3x" shift for HeMem+Colloid with
//! the full tracing stack live — scoped tick spans, async per-copy
//! migration spans, decision spans carried as causal links — then:
//!
//! - exports the run as chrome-`trace_event` JSON
//!   (`trace_out/trace.json`, loadable in `ui.perfetto.dev` or
//!   `chrome://tracing`) and folded stacks (`trace_out/trace.folded`,
//!   for `flamegraph.pl`/inferno);
//! - folds the migration spans into the per-page provenance report:
//!   useful/wasted accounting, ping-pong churn, and the blame table
//!   attributing wasted copies to the decision sites that issued them;
//! - prints the simulator's own wall-clock profile (`simkit::profile`)
//!   over the instrumented hot paths.
//!
//! `--smoke` self-validates (CI runs `grid trace --quick --smoke`): the emitted
//! JSON must pass [`telemetry::validate_chrome_trace`], every completed
//! migration span must resolve a causal chain back to a decision span,
//! the provenance wasted total must reconcile with
//! [`telemetry::migration_accounting`] over the event stream, the
//! profiler must cover the instrumented hot paths, and the fault-free
//! quickstart must show zero ping-pong pages.

use simkit::SimTime;
use tiersys::SystemKind;

use crate::figures::fig9::Dynamic;
use crate::grid::{Ctx, EndState, Harness, Opts};
use crate::runner::{run as run_exp, RunConfig, TickSample};
use crate::scenario::{build_gups, GupsScenario, Policy};

/// Event-ring capacity (same sizing rationale as the timeline demo).
const EVENT_CAP: usize = 200_000;
/// Span-ring capacity: 3 scoped spans per tick plus one per decision and
/// one per page copy — a full run stays well under this.
const SPAN_CAP: usize = 400_000;
/// Ping-pong horizon: a page migrated again within this window of its
/// previous copy counts as churn (10 control quanta at the 100 µs tick).
const PING_PONG_WINDOW: SimTime = SimTime::from_ps(1_000_000_000); // 1 ms

/// One traced run and everything derived from it.
pub struct TraceOutcome {
    /// Policy display name.
    pub name: String,
    /// Recorded event stream.
    pub events: Vec<telemetry::Event>,
    /// Recorded span stream (scoped + async + decisions).
    pub spans: Vec<telemetry::SpanRecord>,
    /// Per-tick metric series.
    pub series: Vec<TickSample>,
    /// Spans the ring dropped (0 unless `SPAN_CAP` overflows).
    pub dropped_spans: u64,
    /// Folded per-page provenance.
    pub provenance: telemetry::ProvenanceReport,
    /// End state over the working set.
    pub end: EndState,
}

fn snapshot(
    exp: &crate::Experiment,
    sc: &GupsScenario,
    name: String,
    series: Vec<TickSample>,
) -> TraceOutcome {
    let events = exp.sink.with(|rec| rec.events()).unwrap_or_default();
    let spans = exp.sink.with(|rec| rec.spans()).unwrap_or_default();
    let dropped_spans = exp.sink.with(|rec| rec.dropped_spans()).unwrap_or(0);
    let provenance = telemetry::provenance(&events, &spans, PING_PONG_WINDOW);
    TraceOutcome {
        name,
        events,
        spans,
        series,
        dropped_spans,
        provenance,
        end: EndState::of(&exp.machine, &[(&*exp.system, sc.gups_config().ws_range())]),
    }
}

/// The contention-shift cell with the tracing stack live.
pub fn run_contention_cell(quick: bool) -> TraceOutcome {
    let pre = if quick { 150 } else { 300 };
    let tick = SimTime::from_us(100.0);
    let sc = Dynamic::ContentionOn.scenario(tick, pre);
    let policy = Policy::System {
        kind: SystemKind::Hemem,
        colloid: true,
    };
    let name = policy.name();
    let mut exp = build_gups(&sc, policy);
    exp.attach_telemetry(telemetry::Sink::new(Box::new(
        telemetry::RingRecorder::new(EVENT_CAP, 2 * pre).with_span_cap(SPAN_CAP),
    )));
    let r = run_exp(&mut exp, &RunConfig::timeline(2 * pre));
    snapshot(&exp, &sc, name, r.series)
}

/// The fault-free quickstart cell (steady-state GUPS, HeMem+Colloid):
/// the baseline against which zero ping-pong churn is asserted.
pub fn run_quickstart_cell() -> TraceOutcome {
    let scenario = GupsScenario::intensity(2);
    let policy = Policy::System {
        kind: SystemKind::Hemem,
        colloid: true,
    };
    let name = policy.name();
    let mut exp = build_gups(&scenario, policy);
    exp.attach_telemetry(telemetry::Sink::new(Box::new(
        telemetry::RingRecorder::new(EVENT_CAP, 1 << 12).with_span_cap(SPAN_CAP),
    )));
    run_exp(&mut exp, &RunConfig::steady_state());
    snapshot(&exp, &scenario, name, Vec::new())
}

/// Smoke check: every completed migration span resolves a causal chain
/// back to a decision span. Returns the number checked.
fn check_causal_chains(c: &TraceOutcome) -> Result<usize, String> {
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

/// The causal-tracing demo (`grid trace`): the contention cell, then
/// the fault-free quickstart, both under the wall-clock profiler.
pub struct Trace(pub Opts);

impl Harness for Trace {
    type Cell = &'static str;
    type Outcome = TraceOutcome;

    fn preamble(&mut self) -> Result<String, String> {
        simkit::profile::reset();
        simkit::profile::set_enabled(true);
        Ok(String::new())
    }

    fn cells(&self) -> Vec<(String, &'static str)> {
        ["contention", "quickstart"].map(|c| (c.into(), c)).to_vec()
    }

    fn run(&self, cell: &&'static str) -> TraceOutcome {
        match *cell {
            "contention" => run_contention_cell(self.0.quick),
            _ => run_quickstart_cell(),
        }
    }

    fn end_state(outcome: &TraceOutcome) -> &EndState {
        &outcome.end
    }

    /// Writes the chrome trace and folded stacks of the contention cell
    /// and prints the provenance and profile reports. Under `--smoke`:
    /// the trace passes the offline format checker, every completed copy
    /// chains back to a decision span, blame reconciles with the
    /// event-stream accounting, the fault-free quickstart shows zero
    /// ping-pong, and the profiler covered the instrumented hot paths.
    fn finish(&mut self, results: Vec<(&'static str, TraceOutcome)>, ctx: &mut Ctx) -> Vec<String> {
        simkit::profile::set_enabled(false);
        let profile = simkit::profile::table();
        let [(_, cell), (_, quickstart)] =
            <[_; 2]>::try_from(results).unwrap_or_else(|_| unreachable!("two traced cells"));

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
        out.push_str(&profile);

        if self.0.smoke {
            // 1. The emitted trace must pass the offline format checker.
            match telemetry::validate_chrome_trace(&trace_json) {
                Ok(n) => out.push_str(&format!("\ntrace.json: {n} trace events validated\n")),
                Err(e) => ctx
                    .failures
                    .push(format!("chrome-trace validation failed: {e}")),
            }
            for c in [&cell, &quickstart] {
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
                let acct = telemetry::migration_accounting(&c.events);
                let p = &c.provenance;
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
        vec![out]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_cell_traces_causally() {
        let c = run_contention_cell(true);
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
