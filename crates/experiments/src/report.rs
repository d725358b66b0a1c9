//! Plain-text report formatting for the figure drivers and harnesses,
//! plus the small statistics and digests their score tables share.

use std::fmt::Write as _;

/// A simple fixed-width table builder.
///
/// # Examples
///
/// ```
/// let mut t = experiments::report::Table::new(vec!["system", "0x", "1x"]);
/// t.row(vec!["HeMem".into(), "1.00".into(), "0.83".into()]);
/// let s = t.render();
/// assert!(s.contains("HeMem"));
/// assert!(s.lines().count() >= 3);
/// ```
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<&str>) -> Self {
        Table {
            headers: headers.into_iter().map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (cells beyond the header count are kept, shorter
    /// rows are padded).
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.headers.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        fn cell(r: &[String], c: usize) -> &str {
            r.get(c).map(String::as_str).unwrap_or("")
        }
        for (c, w) in widths.iter_mut().enumerate() {
            *w = self
                .rows
                .iter()
                .map(|r| cell(r, c).len())
                .chain([self.headers.get(c).map(String::len).unwrap_or(0)])
                .max()
                .unwrap_or(0);
        }
        let mut out = String::new();
        let write_row = |out: &mut String, r: &[String]| {
            for (c, width) in widths.iter().enumerate() {
                let _ = write!(out, "{:width$}  ", cell(r, c), width = *width);
            }
            out.truncate(out.trim_end().len());
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * cols.saturating_sub(1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for r in &self.rows {
            write_row(&mut out, r);
        }
        out
    }
}

/// Formats operations/second in millions with two decimals (`-` for
/// non-finite values).
pub fn mops(ops_per_sec: f64) -> String {
    if !ops_per_sec.is_finite() {
        return "-".into();
    }
    format!("{:.2}", ops_per_sec / 1e6)
}

/// Formats a latency option in nanoseconds. A `None` latency (idle tier)
/// and a non-finite one (corrupted upstream arithmetic) both render as `-`
/// so tables never show `NaN`/`inf` cells.
pub fn ns(l: Option<f64>) -> String {
    match l {
        Some(l) if l.is_finite() => format!("{l:.0}"),
        _ => "-".into(),
    }
}

/// Formats a ratio with two decimals and a trailing `x` (`-` for
/// non-finite values).
pub fn ratio(x: f64) -> String {
    if !x.is_finite() {
        return "-".into();
    }
    format!("{x:.2}x")
}

/// Formats a fraction as a percentage (`-` for non-finite values).
pub fn pct(x: f64) -> String {
    if !x.is_finite() {
        return "-".into();
    }
    format!("{:.0}%", x * 100.0)
}

/// Formats run-level injected-fault counters as a compact cell
/// (`-` when nothing was injected).
pub fn fault_counts(fs: &memsim::FaultStats) -> String {
    if fs.total() == 0 {
        return "-".into();
    }
    let mut parts = Vec::new();
    for (label, n) in [
        ("noisy", fs.windows_noisy),
        ("stale", fs.windows_stale),
        ("drop", fs.windows_dropped),
        ("mig", fs.migration_failures),
        ("pebs", fs.pebs_dropped),
        ("evac", fs.pages_evacuated),
        ("outage", fs.engine_outage_aborts),
        ("storm", fs.storm_dirties),
    ] {
        if n > 0 {
            parts.push(format!("{label} {n}"));
        }
    }
    parts.join(" ")
}

/// Formats migration-retry counters as
/// `scheduled/recovered/dropped(gave-up) q=max-depth` — `gave_up` counts
/// migrations abandoned at the attempt cap (a subset of `dropped`), and
/// `q=` is the retry queue's high-water depth (`-` for policies without a
/// retry queue).
pub fn retry_counts(rs: Option<&tiersys::RetryStats>) -> String {
    match rs {
        Some(r) => format!(
            "{}/{}/{}({}) q={}",
            r.scheduled, r.recovered, r.dropped, r.gave_up, r.max_pending
        ),
        None => "-".into(),
    }
}

/// Formats cumulative migration-engine counters as
/// `completed/aborted/dirty-retries/failovers/batches` (`-` when the
/// engine never started a copy). Exclusive-mode rows show zeros in the
/// transactional columns; transactional rows are where retries, failovers
/// and shootdown batches appear.
pub fn txn_counts(c: &memsim::MigrationCounters) -> String {
    if c.started == 0 {
        return "-".into();
    }
    format!(
        "{}/{}/{}/{}/{}",
        c.completed,
        c.aborted(),
        c.dirty_retries,
        c.failovers,
        c.commit_batches
    )
}

/// Formats a supervisor's mode timeline as `mode@ms -> mode@ms ...` with a
/// trailing `ttr=` time-to-recover when the run recovered (`-` for
/// unsupervised policies).
pub fn mode_timeline(sv: Option<&tiersys::SupervisionReport>) -> String {
    let Some(sv) = sv else { return "-".into() };
    let mut parts: Vec<String> = sv
        .timeline
        .iter()
        .map(|(t, m)| format!("{}@{:.1}ms", m.name(), t.as_us() / 1000.0))
        .collect();
    if let Some(ttr) = sv.time_to_recover {
        parts.push(format!("ttr={:.1}ms", ttr.as_us() / 1000.0));
    }
    parts.join(" -> ")
}

/// The cell-name suffix of the transactional migration engine.
pub fn engine_suffix(transactional: bool) -> &'static str {
    if transactional {
        " [txn]"
    } else {
        ""
    }
}

/// p99 of `samples` (nearest rank; sorts in place), `None` when empty.
pub fn p99(samples: &mut [f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let idx = ((samples.len() as f64 * 0.99).ceil() as usize).clamp(1, samples.len()) - 1;
    Some(samples[idx])
}

/// FNV-1a offset basis: the starting `hash` of [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a `hash` (digests stay dependency-free).
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Renders a compact ASCII time series: one `t: value` line per sample
/// bucket, downsampled to at most `max_lines` lines. Delegates to the
/// telemetry renderer so figure drivers and the timeline binary produce
/// byte-identical output.
pub fn series(label: &str, points: &[(f64, f64)], max_lines: usize) -> String {
    telemetry::render::series(label, points, max_lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(vec!["a", "long-header"]);
        t.row(vec!["xxxxxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with('-'));
        assert!(lines[2].starts_with("xxxxxx"));
    }

    #[test]
    fn table_pads_short_rows() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["1".into()]);
        let s = t.render();
        assert!(s.contains('1'));
    }

    #[test]
    fn formatters() {
        assert_eq!(mops(12_345_678.0), "12.35");
        assert_eq!(ns(Some(123.4)), "123");
        assert_eq!(ns(None), "-");
        assert_eq!(ratio(1.234), "1.23x");
        assert_eq!(pct(0.25), "25%");
    }

    #[test]
    fn formatters_never_render_non_finite_values() {
        // A NaN latency used to render as the literal cell "NaN"; pin the
        // dash fallback for every non-finite input across all formatters.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(mops(bad), "-");
            assert_eq!(ns(Some(bad)), "-");
            assert_eq!(ratio(bad), "-");
            assert_eq!(pct(bad), "-");
        }
        // Finite values are untouched by the guard.
        assert_eq!(mops(0.0), "0.00");
        assert_eq!(pct(0.0), "0%");
    }

    #[test]
    fn fault_and_retry_cells() {
        assert_eq!(fault_counts(&memsim::FaultStats::default()), "-");
        let fs = memsim::FaultStats {
            windows_noisy: 12,
            migration_failures: 3,
            ..Default::default()
        };
        assert_eq!(fault_counts(&fs), "noisy 12 mig 3");
        let hard = memsim::FaultStats {
            pages_evacuated: 7,
            engine_outage_aborts: 2,
            migration_failures: 2,
            ..Default::default()
        };
        assert_eq!(fault_counts(&hard), "mig 2 evac 7 outage 2");
        assert_eq!(retry_counts(None), "-");
        let rs = tiersys::RetryStats {
            scheduled: 5,
            recovered: 4,
            dropped: 1,
            gave_up: 1,
            max_pending: 3,
            ..Default::default()
        };
        assert_eq!(retry_counts(Some(&rs)), "5/4/1(1) q=3");
    }

    #[test]
    fn txn_counts_cell() {
        assert_eq!(txn_counts(&memsim::MigrationCounters::default()), "-");
        let c = memsim::MigrationCounters {
            started: 12,
            completed: 9,
            aborted_write_conflict: 2,
            aborted_watchdog: 1,
            dirty_retries: 5,
            failovers: 1,
            commit_batches: 3,
            batched_pages: 9,
            ..Default::default()
        };
        assert_eq!(txn_counts(&c), "9/3/5/1/3");
    }

    #[test]
    fn mode_timeline_cell() {
        assert_eq!(mode_timeline(None), "-");
        let sv = tiersys::SupervisionReport {
            timeline: vec![
                (simkit::SimTime::ZERO, tiersys::SupervisorMode::Normal),
                (
                    simkit::SimTime::from_us(500.0),
                    tiersys::SupervisorMode::Frozen,
                ),
                (
                    simkit::SimTime::from_us(1500.0),
                    tiersys::SupervisorMode::Recovered,
                ),
            ],
            time_to_recover: Some(simkit::SimTime::from_us(2000.0)),
            ..Default::default()
        };
        let s = mode_timeline(Some(&sv));
        assert_eq!(
            s,
            "normal@0.0ms -> frozen@0.5ms -> recovered@1.5ms -> ttr=2.0ms"
        );
    }

    #[test]
    fn series_downsamples() {
        let pts: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, i as f64)).collect();
        let s = series("test", &pts, 10);
        assert!(s.lines().count() <= 12);
        assert!(s.contains("-- test --"));
    }

    #[test]
    fn empty_series() {
        assert!(series("x", &[], 5).contains("empty"));
    }
}
