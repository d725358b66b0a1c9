//! One benchmark run of one workload: batches of timed set-ups between
//! measured episodes, episodes until the time budget is spent, a
//! cross-check episode with tracing flipped, and the metrics derived
//! from all of them.
//!
//! Co-tenant contention on a shared host slows whole stretches of a run
//! (README.md, "Why these statistics"). Every gated timing therefore
//! comes from the least-contended part of the run: the fastest quarter of
//! its throughput windows, and the fastest of its set-up batches.

use std::fmt::Write as _;
use std::time::Instant;

use crate::episode::{self, Checks, Episode};
use crate::layers::{self, Snapshot};
use crate::scenario::{Sim, Workload};
use crate::stats;

/// The per-layer tick tails. A `pagerank-0x` run holds 400 ticks, too
/// few for p99 under the ten-beyond rule; p95 needs 200.
pub const TAIL_Q: f64 = 0.95;
/// Throughput windows per episode.
pub const WINDOWS: usize = 20;
/// A set-up batch builds the workload at least `SETUP_MIN_BUILDS` times
/// and until it has spent `SETUP_BATCH_S`, at most `SETUP_MAX_BUILDS`.
pub const SETUP_MIN_BUILDS: usize = 3;
/// See [`SETUP_MIN_BUILDS`].
pub const SETUP_MAX_BUILDS: usize = 500;
/// See [`SETUP_MIN_BUILDS`].
pub const SETUP_BATCH_S: f64 = 0.1;
/// Length of the traced cross-check episode of an untraced run; its
/// digest must match the measured episodes' digest at the same tick.
pub const CHECK_TICKS: usize = 20;
/// A traced run's untraced cross-check covers this fraction of an
/// episode (1/5), long enough to time `tracing.overhead_ratio` on.
pub const REFERENCE_DIVISOR: usize = 5;
/// Largest tolerated gap between the layers' summed self time and the
/// ticks' wall time in a traced episode.
pub const LAYER_SUM_TOLERANCE: f64 = 0.02;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Everything a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// All correctness checks of the run.
    pub checks: Checks,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Simulated outputs and sample counts, printed but never gated.
    pub notes: Vec<(&'static str, String)>,
    /// Per-tick layer split of the traced episodes, as CSV.
    pub ticks_csv: Option<String>,
}

impl Outcome {
    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// `VmHWM` of this process in kB (0 where unavailable, which the
/// positivity check then reports).
pub fn peak_rss_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Median host seconds of one batch of constructions. Batches run while
/// no other machine is alive, so they leave `peak_rss_kb` alone.
fn setup_batch(workload: Workload, seed: u64) -> f64 {
    let batch = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < SETUP_MIN_BUILDS
        || (samples.len() < SETUP_MAX_BUILDS && batch.elapsed().as_secs_f64() < SETUP_BATCH_S)
    {
        let t0 = Instant::now();
        let sim = Sim::build(workload, seed, false);
        samples.push(t0.elapsed().as_secs_f64());
        drop(sim);
    }
    stats::median(&samples).expect("a batch builds at least once")
}

/// Runs `workload` for about `seconds` of measured episodes. The first
/// episode always runs whole; another starts only if it is expected to
/// finish within the budget. Untraced runs time a set-up batch before,
/// between and after the episodes.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let ticks = workload.episode_ticks();
    let mut setups = Vec::new();
    let start = Instant::now();
    let mut episodes: Vec<Episode> = Vec::new();
    // Read after the first episode: later episodes reuse a fragmented
    // heap, and how many run depends on host speed.
    let mut peak_rss = 0.0;
    loop {
        if !traced {
            setups.push(setup_batch(workload, seed));
        }
        episodes.push(episode::run(workload, seed, ticks, traced));
        if episodes.len() == 1 {
            peak_rss = peak_rss_kb();
        }
        let spent = start.elapsed().as_secs_f64();
        if spent + spent / episodes.len() as f64 > seconds {
            break;
        }
    }
    if !traced {
        setups.push(setup_batch(workload, seed));
    }
    let cross_ticks = if traced {
        ticks / REFERENCE_DIVISOR
    } else {
        CHECK_TICKS
    };
    let cross = episode::run(workload, seed, cross_ticks.min(ticks), !traced);

    let mut checks = Checks::default();
    for e in &episodes {
        checks.absorb(e.checks.clone());
    }
    checks.absorb(cross.checks.clone());
    let first = &episodes[0];
    checks.check(episodes.iter().all(|e| e.digests == first.digests), || {
        "episodes of one seed produced different digests".into()
    });
    let at = cross.digests.len() - 1;
    checks.check(cross.digests[at] == first.digests[at], || {
        format!(
            "traced and untraced digests differ after {} ticks: {:016x} vs {:016x}",
            at + 1,
            cross.digests[at],
            first.digests[at]
        )
    });

    let mut notes = vec![
        ("episodes", episodes.len().to_string()),
        ("ticks_per_episode", ticks.to_string()),
        ("sim_digest", format!("{:016x}", first.digest())),
        (
            "app_mops",
            format!("{:.3}", first.counts.app_ops as f64 / first.sim_s / 1e6),
        ),
        ("app_latency_ns", format!("{:.1}", first.app_latency_ns)),
        ("migrations", first.counts.mig_completed.to_string()),
    ];
    let (metrics, ticks_csv) = if traced {
        let (metrics, csv) = per_layer(&episodes, &cross, &mut checks);
        (metrics, Some(csv))
    } else {
        (end_to_end(&episodes, &setups, peak_rss, &mut notes), None)
    };
    // End-to-end metrics are never zero; a layer a workload never enters
    // reads zero.
    for m in &metrics {
        let ok = m.value.is_finite() && (traced || m.value > 0.0);
        checks.check(ok, || format!("{} is {}", m.name, m.value));
    }
    Outcome {
        checks,
        metrics,
        notes,
        ticks_csv,
    }
}

/// Runs `ticks` ticks of every workload untraced and traced: every check
/// must pass and the two runs' digests must agree tick for tick.
pub fn smoke(seed: u64, ticks: usize) -> Vec<(Workload, Checks)> {
    Workload::ALL
        .iter()
        .map(|&w| {
            let plain = episode::run(w, seed, ticks, false);
            let traced = episode::run(w, seed, ticks, true);
            let mut checks = plain.checks.clone();
            checks.absorb(traced.checks);
            checks.check(plain.digests == traced.digests, || {
                "traced and untraced digests differ".into()
            });
            (w, checks)
        })
        .collect()
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// One throughput window: consecutive ticks of an episode.
struct Window<'a> {
    tick_s: &'a [f64],
    lines: u64,
}

impl Window<'_> {
    fn rate(&self) -> f64 {
        self.lines as f64 / self.tick_s.iter().sum::<f64>()
    }
}

/// The quarter of all windows (at least one) with the highest simulated
/// lines per host second. Each window holds `episode_ticks / WINDOWS`
/// ticks.
fn fastest_quarter(episodes: &[Episode]) -> Vec<Window<'_>> {
    let mut windows: Vec<Window> = episodes
        .iter()
        .flat_map(|e| {
            let w = (e.tick_s.len() / WINDOWS).max(1);
            e.tick_s
                .chunks(w)
                .zip(e.tick_lines.chunks(w))
                .map(|(tick_s, l)| Window {
                    tick_s,
                    lines: l.iter().sum(),
                })
        })
        .collect();
    windows.sort_by(|a, b| b.rate().total_cmp(&a.rate()));
    windows.truncate(windows.len().div_ceil(4));
    windows
}

fn end_to_end(
    episodes: &[Episode],
    setups: &[f64],
    peak_rss: f64,
    notes: &mut Vec<(&'static str, String)>,
) -> Vec<Metric> {
    let fast = fastest_quarter(episodes);
    let fast_ticks: Vec<f64> = fast.iter().flat_map(|w| w.tick_s.to_vec()).collect();
    let fast_lines: u64 = fast.iter().map(|w| w.lines).sum();
    let ticks: Vec<f64> = episodes.iter().flat_map(|e| e.tick_s.clone()).collect();
    let lines: u64 = episodes.iter().map(|e| e.counts.lines).sum();
    notes.push(("tick_samples", ticks.len().to_string()));
    notes.push(("fastest_quarter_ticks", fast_ticks.len().to_string()));
    notes.push((
        "mean_lines_per_s",
        format!("{:.0}", lines as f64 / ticks.iter().sum::<f64>()),
    ));
    notes.push((
        "all_ticks_p50_ms",
        format!("{:.3}", stats::median(&ticks).unwrap_or(0.0) * 1e3),
    ));
    // Tails are printed, never gated: on a shared host they move with
    // co-tenant load even when the simulation is identical (README.md).
    for (q, name) in [(0.95, "all_ticks_p95_ms"), (0.99, "all_ticks_p99_ms")] {
        notes.push((
            name,
            match stats::tail(&ticks, q) {
                Ok(t) => format!("{:.3}", t * 1e3),
                Err(e) => format!("n/a ({e})"),
            },
        ));
    }
    notes.push(("setup_batches", setups.len().to_string()));
    notes.push((
        "runq_wait_s",
        format!("{:.3}", episodes.iter().map(|e| e.runq_wait_s).sum::<f64>()),
    ));
    vec![
        metric(
            "lines_per_s",
            "1/s",
            fast_lines as f64 / fast_ticks.iter().sum::<f64>(),
        ),
        metric(
            "tick_p50_ms",
            "ms",
            stats::median(&fast_ticks).unwrap_or(0.0) * 1e3,
        ),
        metric(
            "setup_s",
            "s",
            setups.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        metric("peak_rss_kb", "kB", peak_rss),
    ]
}

/// Layers owned by each crate, for the per-crate tick tails.
const MEMSIM: [&str; 3] = [
    "memsim.event_loop",
    "memsim.mig_engine",
    "memsim.tick_overhead",
];
const TIERSYS: [&str; 2] = ["tiersys.on_tick", "tiersys.retry_drain"];

fn crate_us(tick: &Snapshot, names: &[&str]) -> f64 {
    names.iter().map(|n| tick.self_us[layers::index(n)]).sum()
}

fn per_layer(episodes: &[Episode], cross: &Episode, checks: &mut Checks) -> (Vec<Metric>, String) {
    let n = episodes.len() as f64;
    let mut total = Snapshot::default();
    let mut memsim_tick = Vec::new();
    let mut tiersys_tick = Vec::new();
    let mut csv = String::from("episode,tick,wall_us");
    for (name, _) in layers::LAYERS {
        let _ = write!(csv, ",{name}_self_us");
    }
    csv.push('\n');
    for (ei, e) in episodes.iter().enumerate() {
        let trace = e.trace.as_ref().expect("traced episode");
        let mut sum_us = 0.0;
        for (ti, (t, wall)) in trace.iter().zip(&e.tick_s).enumerate() {
            for i in 0..layers::N {
                total.self_us[i] += t.self_us[i];
                total.calls[i] += t.calls[i];
            }
            sum_us += t.total_us();
            memsim_tick.push(crate_us(t, &MEMSIM));
            tiersys_tick.push(crate_us(t, &TIERSYS));
            let _ = write!(csv, "{ei},{ti},{:.3}", wall * 1e6);
            for us in t.self_us {
                let _ = write!(csv, ",{us:.3}");
            }
            csv.push('\n');
        }
        let wall_us = e.wall_s() * 1e6;
        checks.check(
            (sum_us - wall_us).abs() <= LAYER_SUM_TOLERANCE * wall_us,
            || format!("layer self times sum to {sum_us:.0} us, ticks took {wall_us:.0} us"),
        );
    }
    let self_s = |name: &str| total.self_us[layers::index(name)] / n / 1e6;
    let calls = |name: &str| total.calls[layers::index(name)] as f64 / n;
    let c = &episodes[0].counts;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let ref_ticks = cross.tick_s.len();
    let traced_prefix: f64 = episodes[0].tick_s[..ref_ticks].iter().sum();

    let mut m: Vec<Metric> = layers::LAYERS
        .iter()
        .map(|(name, _)| metric(&format!("{name}.self_s"), "s", self_s(name)))
        .collect();
    let counts = [
        ("memsim.lines", c.lines),
        ("memsim.app_ops", c.app_ops),
        ("memsim.mig.started", c.mig_started),
        ("memsim.mig.completed", c.mig_completed),
        ("memsim.mig.aborted", c.mig_aborted),
        ("memsim.mig.dirty_retries", c.mig_dirty_retries),
        ("memsim.mig.failovers", c.mig_failovers),
        ("memsim.mig.backlog_max", c.mig_backlog_max),
        ("tiersys.policy.signals", c.policy_signals),
        ("tiersys.retry.scheduled", c.retry_scheduled),
        ("tiersys.retry.gave_up", c.retry_gave_up),
        ("tenancy.vetoes", c.tenancy_vetoes),
        ("tenancy.reclaimed_pages", c.tenancy_reclaimed),
        ("telemetry.events", c.telemetry_events),
        ("telemetry.export_bytes", c.export_bytes),
    ];
    m.extend(
        counts
            .iter()
            .map(|(name, v)| metric(name, "count", *v as f64)),
    );
    m.extend([
        metric("workloads.next.calls", "count", calls("workloads.next")),
        metric(
            "colloid.on_quantum.calls",
            "count",
            calls("colloid.on_quantum"),
        ),
        metric(
            "memsim.ns_per_line",
            "ns",
            ratio(self_s("memsim.event_loop") * 1e9, c.lines as f64),
        ),
        metric(
            "workloads.ns_per_next",
            "ns",
            ratio(self_s("workloads.next") * 1e9, calls("workloads.next")),
        ),
        metric(
            "memsim.mig.us_per_migration",
            "us",
            ratio(self_s("memsim.mig_engine") * 1e6, c.mig_started as f64),
        ),
        metric(
            "memsim.mig.commit_ratio",
            "ratio",
            ratio(c.mig_completed as f64, c.mig_started as f64),
        ),
        metric(
            "tiersys.ns_per_signal",
            "ns",
            ratio(self_s("tiersys.on_tick") * 1e9, c.policy_signals as f64),
        ),
        metric(
            "memsim.tick_p95_ms",
            "ms",
            stats::tail(&memsim_tick, TAIL_Q).unwrap_or(0.0) / 1e3,
        ),
        metric(
            "tiersys.tick_p95_ms",
            "ms",
            stats::tail(&tiersys_tick, TAIL_Q).unwrap_or(0.0) / 1e3,
        ),
        metric(
            "host.runq_wait_s",
            "s",
            episodes.iter().map(|e| e.runq_wait_s).sum::<f64>() / n,
        ),
        metric(
            "tracing.overhead_ratio",
            "ratio",
            ratio(traced_prefix, cross.wall_s()),
        ),
    ]);
    (m, csv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_passes_on_every_workload_traced_and_untraced() {
        for (w, checks) in smoke(1, 20) {
            assert!(
                checks.run >= 8,
                "{}: only {} checks ran",
                w.name(),
                checks.run
            );
            assert!(
                checks.failures.is_empty(),
                "{}: {:?}",
                w.name(),
                checks.failures
            );
        }
    }

    #[test]
    fn timings_come_from_the_fastest_quarter_of_windows() {
        // 20 windows of two ticks, 1000 lines each; every fourth window
        // ran at full speed (1 ms ticks), the rest under contention.
        let e = Episode {
            tick_s: (0..40)
                .map(|i| if (i / 2) % 4 == 0 { 0.001 } else { 0.002 })
                .collect(),
            tick_lines: vec![1000; 40],
            ..Episode::default()
        };
        let mut notes = Vec::new();
        let m = end_to_end(&[e], &[0.3, 0.2, 0.5], 4096.0, &mut notes);
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap().value;
        assert!((get("lines_per_s") - 1e6).abs() < 1e-3);
        assert!((get("tick_p50_ms") - 1.0).abs() < 1e-9);
        assert_eq!(get("setup_s"), 0.2);
        assert_eq!(get("peak_rss_kb"), 4096.0);
    }

    #[test]
    fn episodes_hold_enough_ticks_for_every_statistic() {
        for w in Workload::ALL {
            let n = w.episode_ticks();
            assert!(n >= stats::min_samples_for(TAIL_Q), "{}", w.name());
            assert!(n / REFERENCE_DIVISOR >= CHECK_TICKS, "{}", w.name());
            assert_eq!(n % WINDOWS, 0, "{}", w.name());
        }
    }
}
