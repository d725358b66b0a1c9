//! End-to-end telemetry demonstration (`grid timeline`).
//!
//! Runs the Figure 9 "contention 0x -> 3x" shift for one tiering system
//! with and without Colloid, with a full [`telemetry::RingRecorder`]
//! attached, then:
//!
//! - exports the event stream as NDJSON and the per-tick metrics as CSV
//!   (under `timeline_out/`),
//! - renders throughput timelines and an event-log excerpt,
//! - reports the derived analytics: time-to-equilibrium after the shift,
//!   migration-efficiency accounting, and latency-inversion episodes.
//!
//! `--smoke` additionally validates the NDJSON schema and requires a
//! finite time-to-equilibrium for the Colloid run, exiting non-zero on
//! failure (CI runs `grid timeline --quick --smoke`).

use simkit::SimTime;
use tiersys::SystemKind;

use crate::figures::fig9::Dynamic;
use crate::grid::{Ctx, EndState, Harness, Opts};
use crate::report::series;
use crate::runner::{run as run_exp, RunConfig, TickSample};
use crate::scenario::{build_gups, Policy};

/// Event-ring capacity: comfortably above the migration traffic a full
/// 600-tick run generates, so accounting sees the complete stream.
const EVENT_CAP: usize = 200_000;
/// Convergence window (ticks) for the time-to-equilibrium measurement.
const TTE_WINDOW: usize = 25;
/// Relative tolerance for the time-to-equilibrium measurement.
const TTE_TOLERANCE: f64 = 0.05;

/// One instrumented timeline run and everything derived from it.
pub struct CellOutcome {
    /// Policy display name (e.g. `HeMem+Colloid`).
    pub name: String,
    /// Simulated time of the workload shift.
    pub shift_t: SimTime,
    /// Per-tick metrics for the whole run.
    pub series: Vec<TickSample>,
    /// The recorded event stream.
    pub events: Vec<telemetry::Event>,
    /// Events the ring had to drop (0 unless `EVENT_CAP` overflows).
    pub dropped_events: u64,
    /// Time from the shift to throughput re-stabilisation.
    pub tte: Option<SimTime>,
    /// Migration-efficiency accounting over the event stream.
    pub accounting: telemetry::MigrationAccounting,
    /// Latency-inversion episode statistics over the series.
    pub inversions: telemetry::InversionStats,
    /// End state over the working set.
    pub end: EndState,
}

/// Runs one contention-shift timeline with full telemetry attached.
pub fn run_cell(kind: SystemKind, colloid: bool, quick: bool) -> CellOutcome {
    let (pre, post) = if quick { (150, 150) } else { (300, 300) };
    let tick = SimTime::from_us(100.0);
    let sc = Dynamic::ContentionOn.scenario(tick, pre);
    let policy = Policy::System { kind, colloid };
    let name = policy.name();
    let mut exp = build_gups(&sc, policy);
    exp.attach_telemetry(telemetry::Sink::ring(EVENT_CAP, pre + post));
    let r = run_exp(&mut exp, &RunConfig::timeline(pre + post));
    let events = exp.sink.with(|rec| rec.events()).unwrap_or_default();
    let dropped_events = exp.sink.with(|rec| rec.dropped_events()).unwrap_or(0);
    let shift_t = tick * pre as u64;
    let tte = telemetry::time_to_equilibrium(&r.series, shift_t, TTE_WINDOW, TTE_TOLERANCE, |m| {
        m.ops_per_sec
    });
    let accounting = telemetry::migration_accounting(&events);
    let inversions = telemetry::InversionStats::from_series(&r.series);
    CellOutcome {
        name,
        shift_t,
        series: r.series,
        events,
        dropped_events,
        tte,
        accounting,
        inversions,
        end: EndState::of(&exp.machine, &[(&*exp.system, sc.gups_config().ws_range())]),
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

/// The telemetry demo (`grid timeline`): HeMem vanilla vs Colloid.
pub struct Timeline(pub Opts);

impl Harness for Timeline {
    /// Colloid attached.
    type Cell = bool;
    type Outcome = CellOutcome;

    fn cells(&self) -> Vec<(String, bool)> {
        let kind = SystemKind::Hemem;
        [false, true]
            .map(|colloid| (Policy::System { kind, colloid }.name(), colloid))
            .to_vec()
    }

    fn run(&self, &colloid: &bool) -> CellOutcome {
        run_cell(SystemKind::Hemem, colloid, self.0.quick)
    }

    fn end_state(outcome: &CellOutcome) -> &EndState {
        &outcome.end
    }

    /// Writes the NDJSON + CSV exports and renders each cell's timeline,
    /// event log and analytics. Under `--smoke` the NDJSON must parse
    /// against the schema, the event stream must be non-empty, and the
    /// Colloid run must reach a finite equilibrium after the shift.
    fn finish(&mut self, results: Vec<(bool, CellOutcome)>, ctx: &mut Ctx) -> Vec<String> {
        let mut out = String::from("== Telemetry timeline: contention 0x -> 3x ==\n");
        for (colloid, cell) in &results {
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
            out.push_str(&series(
                &format!(
                    "{} | shift @ {:.1} ms | Mops/s over time (ms)",
                    cell.name,
                    cell.shift_t.as_ns() / 1e6
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
                if *colloid && cell.tte.is_none() {
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
        vec![out]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_cell_records_events_and_metrics() {
        let c = run_cell(SystemKind::Hemem, true, true);
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
    }
}
