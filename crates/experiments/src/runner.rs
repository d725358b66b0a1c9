//! Steady-state experiment runner.
//!
//! Drives an [`Experiment`] tick by tick through [`Experiment::step`]: the
//! machine simulates one quantum, the tiering system reacts, and the runner
//! watches application throughput until it stabilises (or a tick budget
//! runs out), then measures every tier over a fixed window — mirroring the
//! paper's "we allow enough time so that each system reaches steady-state,
//! and measure steady-state application throughput" (§2.1).

use memsim::{FaultStats, TierId, TrafficClass};
use simkit::SimTime;
use tiersys::RetryStats;

use crate::scenario::Experiment;

/// One per-tick observation (used by the Figure 9/10 timelines).
///
/// The runner builds one from each [`memsim::TickReport`] and, when
/// [`RunConfig::collect_series`] is set, keeps it in [`RunResult::series`].
/// Timelines, the CSV exporter ([`telemetry::metrics_to_csv`]), the
/// chrome-trace counters and the analytics
/// ([`telemetry::time_to_equilibrium`]) all read this one type. It stays
/// two-tier: its CSV columns and trace counters are pinned, and no harness
/// reads a third tier per tick ([`RunResult`] measures every tier).
pub type TickSample = telemetry::TickMetrics;

/// Runner configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Minimum warm-up ticks before convergence checks begin.
    pub min_warmup_ticks: usize,
    /// Hard cap on warm-up ticks.
    pub max_warmup_ticks: usize,
    /// Measurement window after warm-up, in ticks.
    pub measure_ticks: usize,
    /// Convergence window size (ticks) for the stability test.
    pub window: usize,
    /// Relative throughput change between consecutive windows below which
    /// the run is considered converged.
    pub tolerance: f64,
    /// Record per-tick samples for the whole run.
    pub collect_series: bool,
}

impl RunConfig {
    /// Defaults for steady-state measurements of the tiering systems.
    pub fn steady_state() -> Self {
        RunConfig {
            min_warmup_ticks: 150,
            max_warmup_ticks: 1000,
            measure_ticks: 100,
            window: 50,
            tolerance: 0.02,
            collect_series: false,
        }
    }

    /// Defaults for static placements (no convergence needed beyond queue
    /// and EWMA warm-up).
    pub fn static_placement() -> Self {
        RunConfig {
            min_warmup_ticks: 25,
            max_warmup_ticks: 25,
            measure_ticks: 60,
            window: 10,
            tolerance: 1.0,
            collect_series: false,
        }
    }

    /// Defaults for timeline experiments (fixed length, full series).
    pub fn timeline(ticks: usize) -> Self {
        RunConfig {
            min_warmup_ticks: 0,
            max_warmup_ticks: 0,
            measure_ticks: ticks,
            window: usize::MAX,
            tolerance: 0.0,
            collect_series: true,
        }
    }

    /// Shrinks warm-up/measure windows for quick (bench) mode.
    pub fn quick(mut self) -> Self {
        self.min_warmup_ticks = (self.min_warmup_ticks / 2).max(10);
        self.max_warmup_ticks = (self.max_warmup_ticks / 2).max(20);
        self.measure_ticks = (self.measure_ticks / 2).max(20);
        self
    }

    /// Checks the configuration for degenerate values that would silently
    /// disable parts of the runner. `window == usize::MAX` is the documented
    /// way to disable convergence detection ([`RunConfig::timeline`] uses
    /// it); `window == 0` is always a bug (every tick would form its own
    /// "window" and the tolerance test would run against single samples).
    /// `measure_ticks == 0` stays legal: it makes a warm-up-only run, for
    /// which the zero-duration guard reports 0 ops/s.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("window must be >= 1 (usize::MAX disables convergence checks)".into());
        }
        if self.max_warmup_ticks < self.min_warmup_ticks {
            return Err(format!(
                "max_warmup_ticks ({}) < min_warmup_ticks ({})",
                self.max_warmup_ticks, self.min_warmup_ticks
            ));
        }
        if !self.tolerance.is_finite() || self.tolerance < 0.0 {
            return Err(format!(
                "tolerance must be finite and >= 0, got {}",
                self.tolerance
            ));
        }
        Ok(())
    }
}

/// Aggregated results of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Steady-state application throughput (operations per second).
    pub ops_per_sec: f64,
    /// Mean Little's-law latency of each tier over the measurement window
    /// (ns), tier 0 first; `None` for a tier that carried no traffic in
    /// the window.
    pub latency_ns: Vec<Option<f64>>,
    /// Bytes served per traffic class by each tier over the window, tier 0
    /// first.
    pub bytes_by_tier_class: Vec<[u64; TrafficClass::COUNT]>,
    /// Measurement window duration.
    pub measure_duration: SimTime,
    /// Warm-up ticks actually used (after convergence detection).
    pub warmup_ticks_used: usize,
    /// Injected-fault totals over the whole run, warm-up included (all
    /// zeros on fault-free machines).
    pub fault_stats: FaultStats,
    /// Migration-retry counters from the tiering system at the end of the
    /// run (`None` for policies without a retry queue, e.g. static).
    pub retry_stats: Option<RetryStats>,
    /// Supervisor report — mode-transition timeline, time-to-recover, probe
    /// and drain counters — when the policy runs under a
    /// [`tiersys::Supervisor`] (`None` otherwise).
    pub supervision: Option<tiersys::SupervisionReport>,
    /// Migration-engine accounting at the end of the run: starts, commits,
    /// typed aborts, dirty retries, failovers, shootdown batches. The books
    /// always balance (`started == completed + aborted() + in_flight()`).
    pub migration: memsim::MigrationCounters,
    /// Per-tick samples (empty unless `collect_series`).
    pub series: Vec<TickSample>,
}

impl RunResult {
    /// Each tier's share of the application bytes served over the window,
    /// tier 0 first (all zero when no application byte was served).
    pub fn app_shares(&self) -> Vec<f64> {
        let app = TrafficClass::App.index();
        let total: u64 = self.bytes_by_tier_class.iter().map(|t| t[app]).sum();
        self.bytes_by_tier_class
            .iter()
            .map(|t| {
                if total > 0 {
                    t[app] as f64 / total as f64
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Application bandwidth fraction served by the default tier.
    pub fn default_tier_app_share(&self) -> f64 {
        self.app_shares()[0]
    }
}

/// Runs one tick ([`Experiment::step`]) and reads its two-tier sample.
fn step(exp: &mut Experiment) -> (TickSample, memsim::TickReport) {
    let report = exp.step();
    let app = TrafficClass::App.index();
    let sample = TickSample {
        t: report.t_end,
        ops_per_sec: report.app_ops_per_sec(),
        l_default_ns: report.littles_latency_ns(TierId::DEFAULT),
        l_alternate_ns: report.littles_latency_ns(TierId::ALTERNATE),
        true_l_default_ns: report.true_latency_ns.first().copied().flatten(),
        true_l_alternate_ns: report.true_latency_ns.get(1).copied().flatten(),
        occupancy_default: report.tiers[0].occupancy,
        occupancy_alternate: report.tiers[1].occupancy,
        rate_default_per_ns: report.tiers[0].rate_per_ns,
        rate_alternate_per_ns: report.tiers[1].rate_per_ns,
        migrated_bytes: report.migrated_bytes,
        migration_backlog: report.migration_backlog as u64,
        app_bytes_default: report.tiers[0].bytes_by_class[app],
        app_bytes_alternate: report.tiers[1].bytes_by_class[app],
    };
    (sample, report)
}

/// Drives the experiment to steady state, then measures.
///
/// # Panics
///
/// Panics if `rc` fails [`RunConfig::validate`].
pub fn run(exp: &mut Experiment, rc: &RunConfig) -> RunResult {
    rc.validate().expect("invalid RunConfig");
    let mut series = Vec::new();
    let mut warmup_used = 0;
    let mut fault_stats = FaultStats::default();

    // Warm-up with adaptive convergence detection.
    let mut window_ops: Vec<f64> = Vec::new();
    let mut prev_window: Option<f64> = None;
    let mut stable_windows = 0;
    for tick in 0..rc.max_warmup_ticks {
        let (sample, report) = step(exp);
        fault_stats.absorb(&report.fault_stats);
        if rc.collect_series {
            series.push(sample);
        }
        warmup_used = tick + 1;
        window_ops.push(sample.ops_per_sec);
        if window_ops.len() >= rc.window {
            let mean: f64 = window_ops.iter().sum::<f64>() / window_ops.len() as f64;
            window_ops.clear();
            if let Some(prev) = prev_window {
                let rel = (mean - prev).abs() / prev.max(1.0);
                if rel < rc.tolerance {
                    stable_windows += 1;
                } else {
                    stable_windows = 0;
                }
            }
            prev_window = Some(mean);
            if stable_windows >= 2 && warmup_used >= rc.min_warmup_ticks {
                break;
            }
        }
    }

    // Measurement window: every tier of the machine, summed tick by tick.
    let n_tiers = exp.machine.config().tiers.len();
    let t_begin = exp.machine.now();
    let mut ops_total = 0u64;
    let mut bytes_total = vec![[0u64; TrafficClass::COUNT]; n_tiers];
    let mut lat_sum = vec![0.0f64; n_tiers];
    let mut lat_n = vec![0u32; n_tiers];
    for _ in 0..rc.measure_ticks {
        let (sample, report) = step(exp);
        fault_stats.absorb(&report.fault_stats);
        if rc.collect_series {
            series.push(sample);
        }
        ops_total += report.app_ops;
        for (i, t) in report.tiers.iter().enumerate() {
            for (total, b) in bytes_total[i].iter_mut().zip(t.bytes_by_class) {
                *total += b;
            }
            if let Some(l) = report.littles_latency_ns(TierId(i as u8)) {
                lat_sum[i] += l;
                lat_n[i] += 1;
            }
        }
    }
    let dur = exp.machine.now().saturating_sub(t_begin);

    RunResult {
        ops_per_sec: if dur.as_secs() > 0.0 {
            ops_total as f64 / dur.as_secs()
        } else {
            0.0
        },
        latency_ns: lat_sum
            .iter()
            .zip(&lat_n)
            .map(|(&sum, &n)| (n > 0).then(|| sum / f64::from(n)))
            .collect(),
        bytes_by_tier_class: bytes_total,
        measure_duration: dur,
        warmup_ticks_used: warmup_used,
        fault_stats,
        retry_stats: exp.system.retry_stats(),
        supervision: exp.system.supervision(),
        migration: exp.machine.migration_counters(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{build_gups, GupsScenario, Policy};

    #[test]
    fn static_run_measures_throughput_and_latency() {
        let sc = GupsScenario::intensity(0);
        let mut exp = build_gups(
            &sc,
            Policy::Static {
                hot_default_fraction: 1.0,
            },
        );
        let r = run(&mut exp, &RunConfig::static_placement());
        assert!(r.ops_per_sec > 1e6, "ops/s = {}", r.ops_per_sec);
        let l_d = r.latency_ns[0].expect("default tier busy");
        let l_a = r.latency_ns[1].expect("alternate tier busy");
        assert!(l_d > 60.0 && l_d < 400.0, "L_D = {l_d}");
        assert!(l_a > 100.0 && l_a < 400.0, "L_A = {l_a}");
        // Hot set fully in default: the default tier serves most app bytes.
        assert!(r.default_tier_app_share() > 0.8);
    }

    #[test]
    fn series_collection_records_every_tick() {
        let sc = GupsScenario::intensity(0);
        let mut exp = build_gups(
            &sc,
            Policy::Static {
                hot_default_fraction: 0.5,
            },
        );
        let r = run(&mut exp, &RunConfig::timeline(30));
        assert_eq!(r.series.len(), 30);
        // Time increases monotonically.
        assert!(r.series.windows(2).all(|w| w[0].t < w[1].t));
    }

    #[test]
    fn convergence_detection_stops_early_for_static_load() {
        let sc = GupsScenario::intensity(0);
        let mut exp = build_gups(
            &sc,
            Policy::Static {
                hot_default_fraction: 1.0,
            },
        );
        let rc = RunConfig {
            min_warmup_ticks: 30,
            max_warmup_ticks: 500,
            measure_ticks: 20,
            window: 10,
            tolerance: 0.05,
            collect_series: false,
        };
        let r = run(&mut exp, &rc);
        assert!(
            r.warmup_ticks_used < 200,
            "static load should converge fast, used {}",
            r.warmup_ticks_used
        );
    }

    #[test]
    fn quick_mode_shrinks_budgets() {
        let rc = RunConfig::steady_state().quick();
        assert!(rc.max_warmup_ticks <= RunConfig::steady_state().max_warmup_ticks / 2);
        assert!(rc.measure_ticks >= 20);
    }

    #[test]
    fn every_preset_config_validates() {
        RunConfig::steady_state().validate().unwrap();
        RunConfig::static_placement().validate().unwrap();
        // timeline's window == usize::MAX is the documented convergence
        // disable, not a bug.
        RunConfig::timeline(10).validate().unwrap();
        RunConfig::steady_state().quick().validate().unwrap();
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        let ok = RunConfig::steady_state();
        let cases: Vec<(&str, RunConfig)> = vec![
            (
                "window 0",
                RunConfig {
                    window: 0,
                    ..ok.clone()
                },
            ),
            (
                "warmup inverted",
                RunConfig {
                    min_warmup_ticks: 10,
                    max_warmup_ticks: 5,
                    ..ok.clone()
                },
            ),
            (
                "nan tolerance",
                RunConfig {
                    tolerance: f64::NAN,
                    ..ok.clone()
                },
            ),
            (
                "negative tolerance",
                RunConfig {
                    tolerance: -0.1,
                    ..ok.clone()
                },
            ),
        ];
        for (what, rc) in cases {
            assert!(rc.validate().is_err(), "{what} should be rejected");
        }
    }

    #[test]
    #[should_panic(expected = "invalid RunConfig")]
    fn run_panics_on_invalid_config() {
        let sc = GupsScenario::intensity(0);
        let mut exp = build_gups(
            &sc,
            Policy::Static {
                hot_default_fraction: 1.0,
            },
        );
        let rc = RunConfig {
            window: 0,
            ..RunConfig::static_placement()
        };
        run(&mut exp, &rc);
    }

    #[test]
    fn fault_free_run_reports_zero_fault_stats() {
        let sc = GupsScenario::intensity(0);
        let mut exp = build_gups(
            &sc,
            Policy::System {
                kind: tiersys::SystemKind::Hemem,
                colloid: false,
            },
        );
        let r = run(&mut exp, &RunConfig::timeline(30));
        assert_eq!(r.fault_stats.total(), 0);
        // The system carries a retry queue, but without faults nothing is
        // ever captured into it.
        let rs = r.retry_stats.expect("HeMem drives a retry queue");
        assert_eq!(rs.scheduled, 0);
        assert_eq!(rs.dropped, 0);
    }

    #[test]
    fn static_policy_has_no_retry_stats() {
        let sc = GupsScenario::intensity(0);
        let mut exp = build_gups(
            &sc,
            Policy::Static {
                hot_default_fraction: 1.0,
            },
        );
        let r = run(&mut exp, &RunConfig::timeline(5));
        assert!(r.retry_stats.is_none());
    }

    #[test]
    fn three_tier_runs_measure_every_tier_as_a_plain_step_loop_does() {
        use crate::multitier::{build, MultiTierScenario};
        let sc = MultiTierScenario {
            local_pages: 128,
            cxl_pages: 192,
            far_pages: 1024,
            ws_pages: 512,
            hot_pages: 96,
            hot_offset: 384,
            app_cores: 2,
            antagonist_cores_after: 2,
            warmup_ticks: 10,
            converge_ticks: 10,
            measure_ticks: 20,
            seed: 7,
        };
        let warmup = sc.warmup_ticks + sc.converge_ticks;
        let mut exp = build(&sc, tiersys::SystemKind::Hemem, true, false);
        let r = run(
            &mut exp,
            &RunConfig {
                min_warmup_ticks: warmup,
                max_warmup_ticks: warmup,
                measure_ticks: sc.measure_ticks,
                window: usize::MAX,
                tolerance: 0.0,
                collect_series: false,
            },
        );

        let mut exp = build(&sc, tiersys::SystemKind::Hemem, true, false);
        for _ in 0..warmup {
            exp.step();
        }
        let app = TrafficClass::App.index();
        let (mut lat_sum, mut lat_n, mut app_bytes, mut ops) = ([0.0; 3], [0u32; 3], [0u64; 3], 0);
        let t_begin = exp.machine.now();
        for _ in 0..sc.measure_ticks {
            let report = exp.step();
            ops += report.app_ops;
            for i in 0..3 {
                if let Some(l) = report.littles_latency_ns(TierId(i as u8)) {
                    lat_sum[i] += l;
                    lat_n[i] += 1;
                }
                app_bytes[i] += report.tiers[i].bytes_by_class[app];
            }
        }
        let secs = exp.machine.now().saturating_sub(t_begin).as_secs();
        let latency: Vec<Option<f64>> = (0..3)
            .map(|i| (lat_n[i] > 0).then(|| lat_sum[i] / f64::from(lat_n[i])))
            .collect();

        assert!(latency.iter().all(Option::is_some), "every tier is busy");
        assert_eq!(r.latency_ns, latency);
        let run_bytes: Vec<u64> = r.bytes_by_tier_class.iter().map(|t| t[app]).collect();
        assert_eq!(run_bytes, app_bytes);
        assert_eq!(r.ops_per_sec, ops as f64 / secs);
    }

    #[test]
    fn app_share_of_idle_run_is_zero_not_nan() {
        // Pin the division guard: an all-zero byte matrix must yield 0.0,
        // not NaN (0/0).
        let r = RunResult {
            ops_per_sec: 0.0,
            latency_ns: vec![None; 2],
            bytes_by_tier_class: vec![[0; TrafficClass::COUNT]; 2],
            measure_duration: SimTime::ZERO,
            warmup_ticks_used: 0,
            fault_stats: FaultStats::default(),
            retry_stats: None,
            supervision: None,
            migration: memsim::MigrationCounters::default(),
            series: Vec::new(),
        };
        assert_eq!(r.default_tier_app_share(), 0.0);
        assert!(r.default_tier_app_share().is_finite());
    }
}
