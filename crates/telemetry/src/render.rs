//! Plain-text rendering of metric series and event timelines.
//!
//! [`series`] is the canonical ASCII series renderer (the figure drivers in
//! `crates/experiments` delegate here — its output is pinned byte-for-byte
//! by the golden tests). [`event_log`] renders a typed event stream as a
//! one-line-per-event timeline for `grid timeline`.

use std::fmt::Write as _;

use crate::event::{Event, EventKind};

/// Renders a compact ASCII time series: one `t: value` line per sample
/// bucket, downsampled to at most `max_lines` lines.
pub fn series(label: &str, points: &[(f64, f64)], max_lines: usize) -> String {
    let mut out = format!("-- {label} --\n");
    if points.is_empty() {
        out.push_str("(empty)\n");
        return out;
    }
    let stride = points.len().div_ceil(max_lines).max(1);
    for chunk in points.chunks(stride) {
        let t = chunk[0].0;
        let mean = chunk.iter().map(|p| p.1).sum::<f64>() / chunk.len() as f64;
        let _ = writeln!(out, "t={t:8.2}ms  {mean:12.2}");
    }
    out
}

/// One human-readable line describing an event's payload.
pub fn describe_event(ev: &Event) -> String {
    match &ev.kind {
        EventKind::MigrationStart { vpn, src, dst } => {
            format!("vpn {vpn} tier {src} -> {dst}")
        }
        EventKind::MigrationComplete {
            vpn,
            src,
            dst,
            copy_ns,
        } => format!("vpn {vpn} tier {src} -> {dst} ({copy_ns:.0} ns)"),
        EventKind::MigrationFail { vpn, dst, reason } => {
            format!("vpn {vpn} -> tier {dst} ({})", reason.name())
        }
        EventKind::MigrationRetry { vpn, dst } => format!("vpn {vpn} -> tier {dst}"),
        EventKind::TxnDirty { vpn, attempt } => {
            format!("vpn {vpn} snapshot dirtied on pass {attempt}")
        }
        EventKind::TxnFailover {
            vpn,
            from_channel,
            to_channel,
        } => format!("vpn {vpn} channel {from_channel} -> {to_channel}"),
        EventKind::BatchCommit { pages, cost_ns } => {
            format!("{pages} pages under one shootdown ({cost_ns:.0} ns)")
        }
        EventKind::RetryExhausted { vpn, dst } => format!("vpn {vpn} -> tier {dst} abandoned"),
        EventKind::WatermarkMove { p_lo, p_hi, reset } => {
            if *reset {
                format!("reset to [{p_lo:.3}, {p_hi:.3}]")
            } else {
                format!("[{p_lo:.3}, {p_hi:.3}]")
            }
        }
        EventKind::PUpdate {
            p,
            l_default_ns,
            l_alternate_ns,
            mode,
            delta_p,
            byte_limit,
        } => format!(
            "p={p:.3} l_def={l_default_ns:.0}ns l_alt={l_alternate_ns:.0}ns \
             {mode} dp={delta_p:.4} limit={byte_limit}B"
        ),
        EventKind::ModeTransition { from, to } => format!("{from} -> {to}"),
        EventKind::ProbeSent { vpn } => format!("canary vpn {vpn}"),
        EventKind::FaultsInjected {
            noisy,
            stale,
            dropped,
            migration_failures,
            pebs_dropped,
            evacuated,
            outage_aborts,
            storm_dirties,
        } => {
            let mut parts = Vec::new();
            for (label, n) in [
                ("noisy", *noisy),
                ("stale", *stale),
                ("drop", *dropped),
                ("mig", *migration_failures),
                ("pebs", *pebs_dropped),
                ("evac", *evacuated),
                ("outage", *outage_aborts),
                ("storm", *storm_dirties),
            ] {
                if n > 0 {
                    parts.push(format!("{label} {n}"));
                }
            }
            parts.join(" ")
        }
        EventKind::TierEvacuation { pages } => format!("{pages} pages"),
        EventKind::PolicySwap { from, to, pages } => {
            format!("{from} -> {to} ({pages} pages reseeded)")
        }
        EventKind::WorkloadShift { what } => what.clone(),
        EventKind::EquilibriumReset => String::new(),
        EventKind::SloAlert {
            slo,
            state,
            burn_fast,
            burn_slow,
            target_ns,
        } => format!(
            "{slo} {state} burn fast {burn_fast:.1}x / slow {burn_slow:.1}x \
             (target {target_ns:.0}ns)"
        ),
    }
}

/// Renders events as a timeline, one line each:
/// `t=  12.30ms  colloid     p_update           p=0.250 ...`.
///
/// When there are more events than `max_lines`, the log is downsampled by
/// stride (first event of each chunk shown) and a trailing note says how
/// many were elided.
pub fn event_log(events: &[Event], max_lines: usize) -> String {
    let mut out = String::new();
    if events.is_empty() {
        out.push_str("(no events)\n");
        return out;
    }
    let stride = events.len().div_ceil(max_lines.max(1)).max(1);
    let mut shown = 0usize;
    for chunk in events.chunks(stride) {
        let ev = &chunk[0];
        let _ = writeln!(
            out,
            "t={:9.3}ms  {:<10}  {:<18} {}",
            ev.t.as_ns() / 1e6,
            ev.source.name(),
            ev.kind.name(),
            describe_event(ev)
        );
        shown += 1;
    }
    if shown < events.len() {
        let _ = writeln!(out, "({} of {} events shown)", shown, events.len());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Source;
    use simkit::SimTime;

    #[test]
    fn series_matches_historical_format() {
        let pts: Vec<(f64, f64)> = (0..4).map(|i| (i as f64, 10.0 * i as f64)).collect();
        let s = series("demo", &pts, 10);
        let expected = format!(
            "-- demo --\n{}{}{}{}",
            "t=    0.00ms          0.00\n",
            "t=    1.00ms         10.00\n",
            "t=    2.00ms         20.00\n",
            "t=    3.00ms         30.00\n"
        );
        assert_eq!(s, expected);
    }

    #[test]
    fn series_downsamples_and_handles_empty() {
        let pts: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, i as f64)).collect();
        assert!(series("x", &pts, 10).lines().count() <= 11);
        assert!(series("x", &[], 5).contains("(empty)"));
    }

    #[test]
    fn event_log_lines_and_elision() {
        let events: Vec<Event> = (0..10)
            .map(|i| Event {
                t: SimTime::from_ms(i as f64),
                source: Source::Supervisor,
                tenant: None,
                kind: EventKind::ModeTransition {
                    from: "normal",
                    to: "frozen",
                },
            })
            .collect();
        let full = event_log(&events, 20);
        assert_eq!(full.lines().count(), 10);
        assert!(full.contains("normal -> frozen"));
        let trimmed = event_log(&events, 5);
        assert!(trimmed.lines().count() <= 6);
        assert!(trimmed.contains("events shown"));
        assert_eq!(event_log(&[], 5), "(no events)\n");
    }
}
