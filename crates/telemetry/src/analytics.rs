//! Derived analytics: convergence and inversions.
//!
//! These operate on the per-tick series after a run — they answer two of
//! the questions the paper's evaluation asks of each tiering system: *how
//! fast does it re-converge after a workload shift* (time-to-equilibrium)
//! and *how long did it leave the default tier slower than the alternate*
//! (latency-inversion episodes). *How much of its migration traffic was
//! useful* is the provenance fold's ([`provenance`](mod@crate::provenance)).

use simkit::SimTime;

use crate::metrics::TickMetrics;

/// Time from a workload shift until a signal settles at its new
/// equilibrium, judged over windows of `window` samples: equilibrium is the
/// mean of the final window, and the signal has converged once every
/// subsequent window mean stays within `tolerance` (relative) of it.
///
/// `shift_t` is the simulated time of the shift; samples at or before it
/// are ignored. A plateau of at least two stable windows is required, so a
/// lone final window passing through the target does not count. Returns
/// `None` when there are fewer than two post-shift windows, when no such
/// plateau exists, or when the equilibrium mean is not finite.
pub fn time_to_equilibrium(
    series: &[TickMetrics],
    shift_t: SimTime,
    window: usize,
    tolerance: f64,
    signal: impl Fn(&TickMetrics) -> f64,
) -> Option<SimTime> {
    if window == 0 || !tolerance.is_finite() || tolerance <= 0.0 {
        return None;
    }
    let post: Vec<&TickMetrics> = series.iter().filter(|m| m.t > shift_t).collect();
    let n_windows = post.len() / window;
    if n_windows < 2 {
        return None;
    }
    let mean = |w: usize| -> f64 {
        let chunk = &post[w * window..(w + 1) * window];
        chunk.iter().map(|m| signal(m)).sum::<f64>() / window as f64
    };
    let target = mean(n_windows - 1);
    if !target.is_finite() {
        return None;
    }
    let scale = target.abs().max(1e-12);
    // Walk back from the end: the last window violating the tolerance marks
    // the frontier; convergence begins at the window after it.
    let mut first_stable = 0;
    for w in (0..n_windows).rev() {
        if ((mean(w) - target) / scale).abs() > tolerance {
            first_stable = w + 1;
            break;
        }
    }
    if first_stable + 2 > n_windows {
        return None; // only the target window itself is stable: no plateau
    }
    // Converged at the first sample of the first stable window.
    let t_conv = post[first_stable * window].t;
    Some(t_conv.saturating_sub(shift_t))
}

/// Latency-inversion episode statistics: maximal runs of ticks where the
/// default tier's estimated loaded latency exceeded the alternate tier's.
#[derive(Debug, Clone, PartialEq)]
pub struct InversionStats {
    /// Number of maximal inversion episodes.
    pub episodes: usize,
    /// Total simulated time spent inverted.
    pub total: SimTime,
    /// Longest single episode.
    pub longest: SimTime,
    /// Histogram of episode durations in log2-millisecond buckets:
    /// `histogram[i]` counts episodes with duration in
    /// `[2^(i-1), 2^i)` ms (bucket 0 is `< 1 ms`).
    pub histogram: Vec<u64>,
}

impl InversionStats {
    /// Computes inversion episodes over a metric series. Episode duration
    /// is `ticks_in_episode × tick_duration`, where tick duration is taken
    /// from consecutive sample spacing.
    pub fn from_series(series: &[TickMetrics]) -> Self {
        let tick = if series.len() >= 2 {
            series[1].t.saturating_sub(series[0].t)
        } else {
            SimTime::ZERO
        };
        let mut stats = InversionStats {
            episodes: 0,
            total: SimTime::ZERO,
            longest: SimTime::ZERO,
            histogram: Vec::new(),
        };
        let mut run = 0u64;
        let close = |run: &mut u64, stats: &mut InversionStats| {
            if *run == 0 {
                return;
            }
            let dur = tick * *run;
            stats.episodes += 1;
            stats.total += dur;
            stats.longest = stats.longest.max(dur);
            let ms = dur.as_ns() / 1e6;
            let bucket = if ms < 1.0 {
                0
            } else {
                (ms.log2().floor() as usize) + 1
            };
            if stats.histogram.len() <= bucket {
                stats.histogram.resize(bucket + 1, 0);
            }
            stats.histogram[bucket] += 1;
            *run = 0;
        };
        for m in series {
            if m.latency_inverted() {
                run += 1;
            } else {
                close(&mut run, &mut stats);
            }
        }
        close(&mut run, &mut stats);
        stats
    }

    /// Fraction of the series' span spent inverted (0 for empty series).
    pub fn inverted_fraction(&self, series: &[TickMetrics]) -> f64 {
        if series.len() < 2 {
            return 0.0;
        }
        let span = series[series.len() - 1]
            .t
            .saturating_sub(series[0].t)
            .as_ns();
        if span <= 0.0 {
            0.0
        } else {
            (self.total.as_ns() / span).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(t_ms: f64, ops: f64) -> TickMetrics {
        TickMetrics {
            ops_per_sec: ops,
            ..TickMetrics::at(SimTime::from_ms(t_ms))
        }
    }

    #[test]
    fn tte_finds_the_settling_point() {
        // Shift at t=10ms; signal is noisy-high until 50ms, then flat.
        let mut series = Vec::new();
        for i in 0..100 {
            let t = 10.0 + (i as f64 + 1.0) * 1.0; // 11ms..110ms
            let v = if t < 50.0 { 400.0 + i as f64 } else { 200.0 };
            series.push(metric(t, v));
        }
        let tte = time_to_equilibrium(&series, SimTime::from_ms(10.0), 10, 0.05, |m| m.ops_per_sec)
            .expect("converges");
        // Settles during the window covering 41..50ms; the first fully
        // stable window starts at 51ms => TTE = 41ms.
        assert_eq!(tte, SimTime::from_ms(41.0));
    }

    #[test]
    fn tte_none_when_never_stable() {
        let series: Vec<TickMetrics> = (0..40)
            .map(|i| metric(i as f64 + 1.0, if i % 2 == 0 { 100.0 } else { 900.0 }))
            .collect();
        // Adjacent window means swing wildly; 5-sample windows of an
        // alternating series actually average out, so use window 1.
        assert!(time_to_equilibrium(&series, SimTime::ZERO, 1, 0.05, |m| m.ops_per_sec).is_none());
    }

    #[test]
    fn tte_immediate_when_flat() {
        let series: Vec<TickMetrics> = (0..30).map(|i| metric(i as f64 + 1.0, 100.0)).collect();
        let tte = time_to_equilibrium(&series, SimTime::ZERO, 5, 0.02, |m| m.ops_per_sec).unwrap();
        assert_eq!(tte, SimTime::from_ms(1.0));
    }

    #[test]
    fn tte_rejects_degenerate_inputs() {
        let series: Vec<TickMetrics> = (0..30).map(|i| metric(i as f64, 1.0)).collect();
        assert!(time_to_equilibrium(&series, SimTime::ZERO, 0, 0.05, |m| m.ops_per_sec).is_none());
        assert!(
            time_to_equilibrium(&series, SimTime::ZERO, 5, f64::NAN, |m| m.ops_per_sec).is_none()
        );
        assert!(
            time_to_equilibrium(&series, SimTime::from_ms(28.0), 5, 0.05, |m| m.ops_per_sec)
                .is_none(),
            "fewer than two post-shift windows"
        );
    }

    #[test]
    fn inversions_find_episodes_and_buckets() {
        // 1ms ticks; inverted on ticks 2-4 (3ms episode) and tick 8 (1ms).
        let mut series = Vec::new();
        for i in 0..10u64 {
            let inverted = (2..=4).contains(&i) || i == 8;
            let (d, a) = if inverted {
                (Some(200.0), Some(150.0))
            } else {
                (Some(150.0), Some(200.0))
            };
            series.push(TickMetrics {
                l_default_ns: d,
                l_alternate_ns: a,
                ..TickMetrics::at(SimTime::from_ms(i as f64))
            });
        }
        let stats = InversionStats::from_series(&series);
        assert_eq!(stats.episodes, 2);
        assert_eq!(stats.total, SimTime::from_ms(4.0));
        assert_eq!(stats.longest, SimTime::from_ms(3.0));
        // 3ms -> bucket floor(log2(3))+1 = 2; 1ms -> bucket 1.
        assert_eq!(stats.histogram, vec![0, 1, 1]);
        let frac = stats.inverted_fraction(&series);
        assert!((frac - 4.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn inversions_empty_series() {
        let stats = InversionStats::from_series(&[]);
        assert_eq!(stats.episodes, 0);
        assert_eq!(stats.inverted_fraction(&[]), 0.0);
    }
}
