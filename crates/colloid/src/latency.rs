//! Per-tier access-latency measurement (paper §3.1).
//!
//! "CHA hardware counters enable low-overhead measurements of queue
//! occupancy and request arrival rates [...] Colloid uses Little's Law to
//! measure the access latency of each tier: `L_D = O_D/R_D`,
//! `L_A = O_A/R_A`. [...] We apply Exponentially Weighted Moving Averaging
//! (EWMA) on both the occupancy and rate measurements to smooth noise in
//! the signals."
//!
//! [`LatencyMonitor`] consumes one raw `(occupancy, rate)` pair per tier
//! per quantum — exactly what the CHA counter block (simulated in `memsim`,
//! or real uncore PMUs) produces — and exposes smoothed latencies plus the
//! default-tier access-probability share `p = R_D / (R_D + R_A)`.

use simkit::stats::Ewma;

/// One tier's raw counter window: average queue occupancy and arrival rate
/// over the previous quantum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierMeasurement {
    /// Average read-queue occupancy `O` (requests).
    pub occupancy: f64,
    /// Average read arrival rate `R` (requests per nanosecond).
    pub rate_per_ns: f64,
}

impl TierMeasurement {
    /// An idle window (no traffic).
    pub const IDLE: TierMeasurement = TierMeasurement {
        occupancy: 0.0,
        rate_per_ns: 0.0,
    };

    /// True when the pair could plausibly have come from real counters:
    /// finite, non-negative, and below the absurdity bounds. Corrupt
    /// windows (NaN from a dropped register read, negative from a wrapped
    /// subtraction, garbage magnitudes) must not poison the EWMA state.
    pub fn is_plausible(&self) -> bool {
        self.occupancy.is_finite()
            && self.rate_per_ns.is_finite()
            && self.occupancy >= 0.0
            && self.rate_per_ns >= 0.0
            && self.occupancy <= MAX_OCCUPANCY
            && self.rate_per_ns <= MAX_RATE
    }
}

/// Rates below this (requests/ns) are treated as "tier idle": Little's Law
/// is undefined without arrivals, so the monitor reports the unloaded
/// latency instead.
const IDLE_RATE: f64 = 1e-6;

/// Occupancy above this is physically impossible for any real read queue
/// (hardware queues hold at most a few hundred entries); treat as corrupt.
const MAX_OCCUPANCY: f64 = 1e9;

/// Arrival rates above this (requests/ns) would mean >64 TB/s of demand
/// traffic on one tier; treat as corrupt.
const MAX_RATE: f64 = 1e3;

/// Consecutive implausible windows a tier tolerates while holding its
/// last-good smoothed state. Beyond this the held estimate is discarded and
/// the tier falls back to its unloaded latency.
pub const MAX_STALE_QUANTA: u32 = 8;

/// Smoothed per-tier latency estimation.
///
/// # Examples
///
/// ```
/// use colloid::{LatencyMonitor, TierMeasurement};
///
/// // Two tiers with unloaded latencies 70 ns and 135 ns.
/// let mut mon = LatencyMonitor::new(vec![70.0, 135.0], 0.3);
/// mon.update(&[
///     TierMeasurement { occupancy: 30.0, rate_per_ns: 0.2 },
///     TierMeasurement { occupancy: 13.5, rate_per_ns: 0.1 },
/// ]);
/// assert!((mon.latency_ns(0) - 150.0).abs() < 1e-9);
/// assert!((mon.latency_ns(1) - 135.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct LatencyMonitor {
    unloaded_ns: Vec<f64>,
    occupancy: Vec<Ewma>,
    rate: Vec<Ewma>,
    /// Consecutive implausible windows per tier (resets on a good window).
    stale: Vec<u32>,
    /// Total windows rejected as implausible, across tiers.
    rejected: u64,
}

impl LatencyMonitor {
    /// Creates a monitor for `unloaded_ns.len()` tiers; `unloaded_ns` gives
    /// each tier's unloaded latency (reported while the tier is idle), and
    /// `alpha` the EWMA smoothing factor.
    pub fn new(unloaded_ns: Vec<f64>, alpha: f64) -> Self {
        assert!(!unloaded_ns.is_empty());
        assert!(
            unloaded_ns.iter().all(|l| l.is_finite() && *l > 0.0),
            "unloaded latencies must be finite and positive"
        );
        let n = unloaded_ns.len();
        LatencyMonitor {
            unloaded_ns,
            occupancy: vec![Ewma::new(alpha); n],
            rate: vec![Ewma::new(alpha); n],
            stale: vec![0; n],
            rejected: 0,
        }
    }

    /// Number of tiers.
    pub fn tiers(&self) -> usize {
        self.unloaded_ns.len()
    }

    /// Feeds one quantum of raw measurements (one entry per tier).
    ///
    /// Implausible measurements (see [`TierMeasurement::is_plausible`]) are
    /// rejected without touching the smoothed state: the tier *holds* its
    /// last-good latency estimate. After [`MAX_STALE_QUANTA`] consecutive
    /// rejections the held state is discarded and the tier reports its
    /// unloaded latency until believable counters return.
    ///
    /// # Panics
    ///
    /// Panics if `window.len()` differs from the tier count.
    pub fn update(&mut self, window: &[TierMeasurement]) {
        assert_eq!(window.len(), self.tiers(), "one measurement per tier");
        for (i, w) in window.iter().enumerate() {
            if w.is_plausible() {
                self.stale[i] = 0;
                self.occupancy[i].update(w.occupancy);
                self.rate[i].update(w.rate_per_ns);
            } else {
                self.rejected += 1;
                self.stale[i] = self.stale[i].saturating_add(1);
                if self.stale[i] >= MAX_STALE_QUANTA {
                    // The hold expired without a believable measurement:
                    // stop trusting stale state.
                    self.occupancy[i].reset();
                    self.rate[i].reset();
                }
            }
        }
    }

    /// Smoothed arrival rate of tier `i` (requests/ns).
    pub fn rate_per_ns(&self, i: usize) -> f64 {
        self.rate[i].get()
    }

    /// Smoothed Little's-Law latency of tier `i` in nanoseconds; the
    /// unloaded latency while the tier is (nearly) idle.
    pub fn latency_ns(&self, i: usize) -> f64 {
        let r = self.rate[i].get();
        if r < IDLE_RATE {
            self.unloaded_ns[i]
        } else {
            // Guard against start-up transients with a loose floor: genuine
            // measurements can undercut the nominal unloaded latency (open
            // row-buffer hits), but not by more than ~2x.
            (self.occupancy[i].get() / r).max(self.unloaded_ns[i] * 0.5)
        }
    }

    /// Total smoothed arrival rate across tiers (requests/ns).
    pub fn total_rate_per_ns(&self) -> f64 {
        (0..self.tiers()).map(|i| self.rate[i].get()).sum()
    }

    /// True once at least one update has been fed.
    pub fn is_warm(&self) -> bool {
        self.rate[0].is_initialized()
    }

    /// Total counter windows rejected as implausible.
    pub fn rejected_windows(&self) -> u64 {
        self.rejected
    }

    /// Consecutive implausible windows tier `i` has currently absorbed.
    pub fn stale_quanta(&self, i: usize) -> u32 {
        self.stale[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meas(o: f64, r: f64) -> TierMeasurement {
        TierMeasurement {
            occupancy: o,
            rate_per_ns: r,
        }
    }

    #[test]
    fn littles_law_single_update() {
        let mut m = LatencyMonitor::new(vec![70.0, 135.0], 1.0);
        m.update(&[meas(20.0, 0.2), meas(1.35, 0.01)]);
        assert!((m.latency_ns(0) - 100.0).abs() < 1e-9);
        assert!((m.latency_ns(1) - 135.0).abs() < 1e-9);
    }

    #[test]
    fn idle_tier_reports_unloaded() {
        let mut m = LatencyMonitor::new(vec![70.0, 135.0], 0.5);
        m.update(&[meas(10.0, 0.1), TierMeasurement::IDLE]);
        assert_eq!(m.latency_ns(1), 135.0);
    }

    #[test]
    fn latency_floor_guards_transients() {
        let mut m = LatencyMonitor::new(vec![70.0], 1.0);
        // Occupancy implausibly low for the rate: floor at half unloaded.
        m.update(&[meas(0.5, 0.1)]);
        assert_eq!(m.latency_ns(0), 35.0);
        // Plausible sub-unloaded measurements (row-buffer hits) survive.
        m.update(&[meas(6.0, 0.1)]);
        assert_eq!(m.latency_ns(0), 60.0);
    }

    #[test]
    fn ewma_smooths_noise() {
        let mut m = LatencyMonitor::new(vec![70.0], 0.1);
        for i in 0..200 {
            // Noisy occupancy around 20, rate fixed at 0.2 -> L ~ 100.
            let noise = if i % 2 == 0 { 6.0 } else { -6.0 };
            m.update(&[meas(20.0 + noise, 0.2)]);
        }
        assert!((m.latency_ns(0) - 100.0).abs() < 5.0);
    }

    #[test]
    fn cold_start_is_sane() {
        let m = LatencyMonitor::new(vec![70.0, 135.0], 0.3);
        assert!(!m.is_warm());
        assert_eq!(m.latency_ns(0), 70.0);
        assert_eq!(m.latency_ns(1), 135.0);
        assert_eq!(m.total_rate_per_ns(), 0.0);
    }

    #[test]
    #[should_panic]
    fn wrong_arity_panics() {
        let mut m = LatencyMonitor::new(vec![70.0, 135.0], 0.3);
        m.update(&[meas(1.0, 0.1)]);
    }

    #[test]
    fn implausible_windows_hold_last_good_estimate() {
        let mut m = LatencyMonitor::new(vec![70.0, 135.0], 1.0);
        m.update(&[meas(20.0, 0.2), meas(13.5, 0.1)]);
        assert!((m.latency_ns(0) - 100.0).abs() < 1e-9);
        // NaN, negative, and absurd windows are all rejected; the smoothed
        // estimate holds.
        for bad in [
            meas(f64::NAN, 0.2),
            meas(20.0, f64::INFINITY),
            meas(-5.0, 0.2),
            meas(20.0, -0.1),
            meas(1e30, 0.2),
            meas(20.0, 1e9),
        ] {
            m.update(&[bad, meas(13.5, 0.1)]);
            assert!(
                (m.latency_ns(0) - 100.0).abs() < 1e-9,
                "held through {bad:?}"
            );
        }
        assert_eq!(m.rejected_windows(), 6);
        assert_eq!(m.stale_quanta(0), 6);
        // Tier 1 kept updating normally throughout.
        assert_eq!(m.stale_quanta(1), 0);
        assert!((m.latency_ns(1) - 135.0).abs() < 1e-9);
    }

    #[test]
    fn hold_expires_to_unloaded_after_max_stale_quanta() {
        let mut m = LatencyMonitor::new(vec![70.0, 135.0], 1.0);
        m.update(&[meas(20.0, 0.2), meas(13.5, 0.1)]);
        for _ in 0..MAX_STALE_QUANTA {
            m.update(&[meas(f64::NAN, f64::NAN), meas(13.5, 0.1)]);
        }
        // The held estimate expired: back to the unloaded latency and no
        // rate attributed to the distrusted tier.
        assert_eq!(m.latency_ns(0), 70.0);
        assert_eq!(m.rate_per_ns(0), 0.0);
        // A good window immediately restores measurement.
        m.update(&[meas(20.0, 0.2), meas(13.5, 0.1)]);
        assert!((m.latency_ns(0) - 100.0).abs() < 1e-9);
        assert_eq!(m.stale_quanta(0), 0);
    }

    #[test]
    fn outputs_stay_finite_under_garbage_input() {
        let mut m = LatencyMonitor::new(vec![70.0, 135.0], 0.3);
        let garbage = [
            meas(f64::NAN, f64::NAN),
            meas(f64::NEG_INFINITY, 1e300),
            meas(1e300, f64::INFINITY),
            meas(-1.0, -1.0),
        ];
        for (i, g) in garbage.iter().cycle().take(50).enumerate() {
            let good = meas(10.0 + (i % 7) as f64, 0.1);
            m.update(&[*g, good]);
            for t in 0..2 {
                assert!(m.latency_ns(t).is_finite());
                assert!(m.latency_ns(t) > 0.0);
            }
            assert!(m.total_rate_per_ns().is_finite());
        }
    }

    #[test]
    #[should_panic]
    fn rejects_nonfinite_unloaded_latency() {
        let _ = LatencyMonitor::new(vec![70.0, f64::NAN], 0.3);
    }
}
