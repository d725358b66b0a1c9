//! The per-quantum metric record: one row of the run's time series.

use simkit::SimTime;

/// Metrics distilled from one machine tick — the registry of per-quantum
/// signals the paper's figures are built from. The experiment runner
/// builds one per tick (its `TickSample`) and keeps the run's series;
/// [`crate::metrics_to_csv`] writes each as one CSV row, and the
/// chrome-trace exporter draws its counter tracks from them.
///
/// Field names mirror the historical `TickSample` so downstream consumers
/// (figure drivers, degradation analysis) read the same names they always
/// did; the telemetry refactor widened the record with the true (per-
/// request-measured) latencies, occupancy/arrival-rate raw signals, and
/// the migration backlog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickMetrics {
    /// Simulated time at the end of the tick.
    pub t: SimTime,
    /// Application throughput over the tick (operations per second).
    pub ops_per_sec: f64,
    /// Default-tier Little's-Law latency (ns), if the tier saw traffic.
    pub l_default_ns: Option<f64>,
    /// Alternate-tier Little's-Law latency (ns).
    pub l_alternate_ns: Option<f64>,
    /// Default-tier measured per-request latency (ns) — ground truth,
    /// never perturbed by fault injection.
    pub true_l_default_ns: Option<f64>,
    /// Alternate-tier measured per-request latency (ns).
    pub true_l_alternate_ns: Option<f64>,
    /// Default-tier mean CHA occupancy over the tick (`O` in Little's Law).
    pub occupancy_default: f64,
    /// Alternate-tier mean CHA occupancy.
    pub occupancy_alternate: f64,
    /// Default-tier arrival rate, requests per ns (`R`).
    pub rate_default_per_ns: f64,
    /// Alternate-tier arrival rate, requests per ns.
    pub rate_alternate_per_ns: f64,
    /// Bytes migrated during the tick (migration bandwidth × duration).
    pub migrated_bytes: u64,
    /// Pages waiting in the migration queue at tick end.
    pub migration_backlog: u64,
    /// Application bytes served by the default tier during the tick.
    pub app_bytes_default: u64,
    /// Application bytes served by the alternate tier during the tick.
    pub app_bytes_alternate: u64,
}

impl TickMetrics {
    /// An all-idle record at time `t` (useful as a struct-update base).
    pub fn at(t: SimTime) -> Self {
        TickMetrics {
            t,
            ops_per_sec: 0.0,
            l_default_ns: None,
            l_alternate_ns: None,
            true_l_default_ns: None,
            true_l_alternate_ns: None,
            occupancy_default: 0.0,
            occupancy_alternate: 0.0,
            rate_default_per_ns: 0.0,
            rate_alternate_per_ns: 0.0,
            migrated_bytes: 0,
            migration_backlog: 0,
            app_bytes_default: 0,
            app_bytes_alternate: 0,
        }
    }

    /// Application bandwidth fraction served by the default tier this tick
    /// (0 when the tick saw no app traffic — never NaN).
    pub fn default_app_share(&self) -> f64 {
        let d = self.app_bytes_default as f64;
        let a = self.app_bytes_alternate as f64;
        if d + a <= 0.0 {
            0.0
        } else {
            d / (d + a)
        }
    }

    /// Whether the default tier measured slower than the alternate tier
    /// this tick (a latency inversion), judging by the Little's-Law
    /// estimates; `false` when either tier was idle.
    pub fn latency_inverted(&self) -> bool {
        match (self.l_default_ns, self.l_alternate_ns) {
            (Some(d), Some(a)) => d > a,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_share_is_zero_not_nan() {
        let m = TickMetrics::at(SimTime::ZERO);
        assert_eq!(m.default_app_share(), 0.0);
        assert!(m.default_app_share().is_finite());
    }

    #[test]
    fn share_splits_bytes() {
        let m = TickMetrics {
            app_bytes_default: 192,
            app_bytes_alternate: 64,
            ..TickMetrics::at(SimTime::ZERO)
        };
        assert!((m.default_app_share() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn inversion_requires_both_tiers_busy() {
        let mut m = TickMetrics::at(SimTime::ZERO);
        assert!(!m.latency_inverted());
        m.l_default_ns = Some(200.0);
        assert!(!m.latency_inverted());
        m.l_alternate_ns = Some(150.0);
        assert!(m.latency_inverted());
        m.l_alternate_ns = Some(250.0);
        assert!(!m.latency_inverted());
    }
}
