//! Algorithm 1: the end-to-end Colloid page-placement loop, for any number
//! of tiers (paper §3.1–§3.2).
//!
//! Tiers are ordered by unloaded latency, tier 0 fastest. "If the access
//! latencies of all the tiers are not equal, then the average access
//! latency can be reduced by placing more hot pages in the tier with the
//! smallest access latency. [...] Similar reasoning can be applied
//! recursively for the tier with the second smallest access latency and so
//! on." The controller realises the recursion pairwise: one Algorithm 2
//! watermark controller runs between each adjacent pair `(i, i+1)`,
//! treating the upper tier `i` as that pair's "default" side. At
//! equilibrium every pair is balanced, hence all tier latencies are equal.
//! On two tiers the one pair is the paper's default/alternate split.
//!
//! Every quantum the controller:
//!
//! 1. reads per-tier `(O, R)` counter windows and derives smoothed
//!    latencies (§3.1);
//! 2. picks the most latency-imbalanced pair whose **donor** tier has
//!    traffic. Its **mode** is promotion (into the upper tier) when
//!    `L_u < L_l`, demotion otherwise, and the donor is the tier pages
//!    leave: the lower tier for a promotion, the upper for a demotion. A
//!    pair with an idle donor cannot shift any access probability, so it
//!    must neither win the selection (it would starve every other pair)
//!    nor move its watermarks;
//! 3. computes the pair's share `p = R_u / (R_u + R_l)` and the desired
//!    shift `Δp` with the pair's watermark controller (Algorithm 2);
//! 4. computes the **dynamic migration limit**
//!    `min(Δp · (R_u + R_l), M)` — migrating more traffic-worth of pages
//!    than the desired rate perturbation would oscillate (§3.2).
//!
//! Finding pages whose summed access probability is within `Δp` and whose
//! summed size is within the limit, and migrating them, is system-specific
//! (paper §4) and lives with each tiering system.

use crate::latency::{LatencyMonitor, TierMeasurement};
use crate::shift::ShiftController;

/// Direction of migration this quantum (Algorithm 1, lines 5–8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The pair's upper tier is faster: move hot pages *into* it.
    Promote,
    /// The pair's upper tier is slower: move hot pages *out* to the lower
    /// tier.
    Demote,
}

/// One quantum's placement decision, between adjacent tiers.
#[derive(Debug, Clone, Copy)]
pub struct PairDecision {
    /// The faster (lower-unloaded-latency) tier of the pair.
    pub upper: usize,
    /// The slower tier of the pair, `upper + 1`.
    pub lower: usize,
    /// `Promote` = move hot pages from `lower` into `upper`.
    pub mode: Mode,
    /// Desired shift in the pair's access-probability split.
    pub delta_p: f64,
    /// Byte budget for this quantum's migrations:
    /// `min(Δp·(R_u+R_l)·64·quantum, M)`.
    pub byte_limit: u64,
    /// The upper tier's share of the pair's traffic, `R_u / (R_u + R_l)`.
    pub p: f64,
    /// Measured (smoothed) upper-tier latency, ns.
    pub l_upper_ns: f64,
    /// Measured (smoothed) lower-tier latency, ns.
    pub l_lower_ns: f64,
}

/// Colloid configuration.
#[derive(Debug, Clone)]
pub struct ColloidConfig {
    /// Watermark collapse threshold ε (paper default 0.01).
    pub epsilon: f64,
    /// Latency balance tolerance δ (paper default 0.05).
    pub delta: f64,
    /// EWMA smoothing factor for occupancy/rate signals.
    pub ewma_alpha: f64,
    /// Static migration limit `M` in bytes per quantum (the underlying
    /// system's rate limit).
    pub static_limit_bytes: u64,
    /// Quantum duration in nanoseconds (to convert the rate-based dynamic
    /// limit into bytes).
    pub quantum_ns: f64,
    /// Unloaded latency of each tier, ns, ascending (reported while a tier
    /// is idle).
    pub unloaded_ns: Vec<f64>,
    /// Apply the dynamic migration limit `Δp·(R_u+R_l)` (§3.2). Disabling
    /// it (ablation) falls back to the static limit alone.
    pub dynamic_limit: bool,
}

impl ColloidConfig {
    /// Paper defaults (ε = 0.01, δ = 0.05) for a two-tier machine.
    pub fn paper_default(
        unloaded_default_ns: f64,
        unloaded_alternate_ns: f64,
        static_limit_bytes: u64,
        quantum_ns: f64,
    ) -> Self {
        ColloidConfig {
            epsilon: 0.01,
            delta: 0.05,
            ewma_alpha: 0.3,
            static_limit_bytes,
            quantum_ns,
            unloaded_ns: vec![unloaded_default_ns, unloaded_alternate_ns],
            dynamic_limit: true,
        }
    }
}

/// The Algorithm 1 controller (measurement + pair selection + shift +
/// limit) over `n >= 2` tiers.
///
/// # Examples
///
/// ```
/// use colloid::{ColloidConfig, ColloidController, Mode, TierMeasurement};
///
/// let cfg = ColloidConfig::paper_default(70.0, 135.0, 1 << 20, 100_000.0);
/// let mut ctl = ColloidController::new(cfg);
/// // Default tier heavily loaded (L_D = 300 ns) vs alternate at 140 ns.
/// let d = ctl
///     .on_quantum(&[
///         TierMeasurement { occupancy: 60.0, rate_per_ns: 0.2 },
///         TierMeasurement { occupancy: 14.0, rate_per_ns: 0.1 },
///     ])
///     .expect("unbalanced tiers need migration");
/// assert_eq!(d.mode, Mode::Demote);
/// assert!(d.delta_p > 0.0);
///
/// // Three tiers: pair (0,1) is the most imbalanced (300 vs 140 ns).
/// let mut ctl = ColloidController::new(ColloidConfig {
///     unloaded_ns: vec![70.0, 135.0, 150.0],
///     ..ColloidConfig::paper_default(70.0, 135.0, 1 << 20, 100_000.0)
/// });
/// let d = ctl
///     .on_quantum(&[
///         TierMeasurement { occupancy: 60.0, rate_per_ns: 0.2 },
///         TierMeasurement { occupancy: 14.0, rate_per_ns: 0.1 },
///         TierMeasurement { occupancy: 1.5, rate_per_ns: 0.01 },
///     ])
///     .expect("pair (0,1) acts");
/// assert_eq!((d.upper, d.lower), (0, 1));
/// ```
#[derive(Debug, Clone)]
pub struct ColloidController {
    monitor: LatencyMonitor,
    /// Pair `i`'s watermark controller balances tiers `i` and `i + 1`.
    pairs: Vec<ShiftController>,
    cfg: ColloidConfig,
    quanta: u64,
    sink: telemetry::Sink,
    metrics: ControllerMetrics,
}

/// Live-metric handles for the controller's trajectory (all detached
/// until [`ColloidController::set_metrics`] attaches an enabled hub).
#[derive(Debug, Clone, Default)]
struct ControllerMetrics {
    enabled: bool,
    p: telemetry::Gauge,
    l_default_ns: telemetry::Gauge,
    l_alternate_ns: telemetry::Gauge,
    decisions: telemetry::Counter,
    decision_latency_ns: telemetry::HistogramHandle,
}

impl ColloidController {
    /// Creates a controller from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two tiers are configured, the unloaded
    /// latencies are not ascending, or `quantum_ns` is not finite and
    /// positive.
    pub fn new(cfg: ColloidConfig) -> Self {
        assert!(cfg.unloaded_ns.len() >= 2, "Colloid needs at least 2 tiers");
        assert!(
            cfg.unloaded_ns.windows(2).all(|w| w[0] <= w[1]),
            "tiers must be ordered by unloaded latency"
        );
        assert!(
            cfg.quantum_ns.is_finite() && cfg.quantum_ns > 0.0,
            "quantum_ns must be finite and positive"
        );
        ColloidController {
            monitor: LatencyMonitor::new(cfg.unloaded_ns.clone(), cfg.ewma_alpha),
            pairs: vec![ShiftController::new(cfg.epsilon, cfg.delta); cfg.unloaded_ns.len() - 1],
            cfg,
            quanta: 0,
            sink: telemetry::Sink::default(),
            metrics: ControllerMetrics::default(),
        }
    }

    /// Attaches a telemetry sink. The controller has no clock of its own,
    /// so events are stamped with the sink's shared clock (which the
    /// machine refreshes at every tick boundary). Recording is passive and
    /// never changes a decision.
    pub fn set_telemetry(&mut self, sink: telemetry::Sink) {
        self.sink = sink;
    }

    /// Attaches a live metrics hub: the controller exports the acting
    /// pair's `p` trajectory and smoothed latencies (upper tier as
    /// `colloid_l_default_ns`, lower as `colloid_l_alternate_ns`) as
    /// gauges, a decision counter, and a wall-clock decision-latency
    /// histogram. Recording is passive; with the hub disabled no clock is
    /// ever read, so metrics never perturb a run.
    pub fn set_metrics(&mut self, hub: telemetry::MetricsHub) {
        self.metrics = ControllerMetrics {
            enabled: hub.enabled(),
            p: hub.gauge("colloid_p"),
            l_default_ns: hub.gauge("colloid_l_default_ns"),
            l_alternate_ns: hub.gauge("colloid_l_alternate_ns"),
            decisions: hub.counter("colloid_decisions_total"),
            decision_latency_ns: hub.histogram("colloid_decision_latency_ns"),
        };
    }

    /// Algorithm 1, lines 1–9: ingest counters, pick a pair, decide
    /// mode/Δp/limit.
    ///
    /// Returns `None` when no migration is needed this quantum (every pair
    /// balanced, or no pair's donor tier has traffic).
    ///
    /// Robust to corrupt counter windows: implausible measurements are
    /// rejected by the [`LatencyMonitor`] (which holds its last-good
    /// estimate), and any decision returned has a finite `delta_p` in
    /// `(0, 1]` and `byte_limit <= static_limit_bytes` — never a panic or a
    /// NaN, whatever the input.
    pub fn on_quantum(&mut self, window: &[TierMeasurement]) -> Option<PairDecision> {
        // The wall clock is only read with metrics enabled, so disabled
        // runs never touch host time.
        let wall = self.metrics.enabled.then(std::time::Instant::now);
        let decision = self.quantum_inner(window);
        if let Some(start) = wall {
            self.metrics
                .decision_latency_ns
                .record_ns(start.elapsed().as_nanos() as f64);
            if let Some(d) = &decision {
                self.metrics.p.set(d.p);
                self.metrics.l_default_ns.set(d.l_upper_ns);
                self.metrics.l_alternate_ns.set(d.l_lower_ns);
                self.metrics.decisions.inc();
            }
        }
        decision
    }

    fn quantum_inner(&mut self, window: &[TierMeasurement]) -> Option<PairDecision> {
        let _prof = simkit::profile::scope("colloid.on_quantum");
        self.monitor.update(window);
        self.quanta += 1;
        let m = &self.monitor;
        // The pair with the largest relative latency imbalance among those
        // whose donor tier has traffic.
        let mut best: Option<(usize, f64)> = None;
        for upper in 0..self.pairs.len() {
            let (l_u, l_l) = (m.latency_ns(upper), m.latency_ns(upper + 1));
            let donor = if l_u < l_l { upper + 1 } else { upper };
            if m.rate_per_ns(donor) <= 0.0 {
                continue;
            }
            let imbalance = (l_u - l_l).abs() / l_u.max(1e-9);
            if best.is_none_or(|(_, b)| imbalance > b) {
                best = Some((upper, imbalance));
            }
        }
        let (upper, _) = best?;
        let lower = upper + 1;
        let (r_u, r_l) = (m.rate_per_ns(upper), m.rate_per_ns(lower));
        let (l_u, l_l) = (m.latency_ns(upper), m.latency_ns(lower));
        let pair_rate = r_u + r_l;
        let p = r_u / pair_rate;
        let shift = &mut self.pairs[upper];
        let marks_before = (shift.p_lo(), shift.p_hi(), shift.resets());
        let delta_p = shift.compute_shift(p, l_u, l_l);
        let (lo, hi, resets) = (shift.p_lo(), shift.p_hi(), shift.resets());
        if (lo, hi, resets) != marks_before {
            self.sink.emit(telemetry::Source::Colloid, || {
                telemetry::EventKind::WatermarkMove {
                    p_lo: lo,
                    p_hi: hi,
                    reset: resets != marks_before.2,
                }
            });
        }
        // The NaN check keeps a corrupt shift from ever reaching a decision.
        if delta_p.is_nan() || delta_p <= 0.0 {
            return None;
        }
        let delta_p = delta_p.min(1.0);
        let mode = if l_u < l_l {
            Mode::Promote
        } else {
            Mode::Demote
        };
        // Dynamic migration limit: Δp·(R_u+R_l) requests/ns worth of pages,
        // 64 B per request, over one quantum — capped by the static limit.
        // (An `f64 as u64` cast saturates, and maps NaN to 0, so the cap
        // holds even for degenerate products.)
        let byte_limit = if self.cfg.dynamic_limit {
            let dynamic = delta_p * pair_rate * 64.0 * self.cfg.quantum_ns;
            (dynamic as u64).min(self.cfg.static_limit_bytes)
        } else {
            self.cfg.static_limit_bytes
        };
        let mode_str = match mode {
            Mode::Promote => "promote",
            Mode::Demote => "demote",
        };
        self.sink.emit(telemetry::Source::Colloid, || {
            telemetry::EventKind::PUpdate {
                p,
                l_default_ns: l_u,
                l_alternate_ns: l_l,
                mode: mode_str,
                delta_p,
                byte_limit,
            }
        });
        // Causal anchor: migrations the system enqueues while acting on
        // this decision chain back to this span via the sink's cause id.
        self.sink
            .span_decision(telemetry::Source::Colloid, "colloid.decide", mode_str);
        Some(PairDecision {
            upper,
            lower,
            mode,
            delta_p,
            byte_limit,
            p,
            l_upper_ns: l_u,
            l_lower_ns: l_l,
        })
    }

    /// The latency monitor (for telemetry).
    pub fn monitor(&self) -> &LatencyMonitor {
        &self.monitor
    }

    /// The per-pair watermark controllers, pair `i` between tiers `i` and
    /// `i + 1` (for telemetry).
    pub fn pairs(&self) -> &[ShiftController] {
        &self.pairs
    }

    /// Freezes or resumes every pair's watermark controller (supervisor
    /// degraded modes): while frozen, `on_quantum` keeps ingesting
    /// measurements so the latency EWMAs stay warm, but no watermark moves
    /// and no placement decision is emitted.
    pub fn set_frozen(&mut self, frozen: bool) {
        for pair in &mut self.pairs {
            if frozen {
                pair.freeze();
            } else {
                pair.resume();
            }
        }
    }

    /// Whether the controller is currently frozen.
    pub fn is_frozen(&self) -> bool {
        self.pairs.iter().all(ShiftController::is_frozen)
    }

    /// Re-runs the watermark reset (`p_lo ← 0`, `p_hi ← 1`) on every pair
    /// so the post-fault equilibrium is re-found from scratch — the
    /// paper's dynamic-shift mechanism applied after a hard fault rather
    /// than a workload move.
    pub fn reset_equilibrium(&mut self) {
        for pair in &mut self.pairs {
            pair.reset_watermarks();
        }
        self.sink.emit(telemetry::Source::Colloid, || {
            telemetry::EventKind::EquilibriumReset
        });
    }

    /// Quanta processed so far.
    pub fn quanta(&self) -> u64 {
        self.quanta
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

    fn cfg() -> ColloidConfig {
        ColloidConfig::paper_default(70.0, 135.0, 1 << 20, 100_000.0)
    }

    /// Unsmoothed signals over `unloaded_ns`, no practical static cap.
    fn chain_cfg(unloaded_ns: Vec<f64>) -> ColloidConfig {
        ColloidConfig {
            unloaded_ns,
            ewma_alpha: 1.0,
            static_limit_bytes: 1 << 30,
            ..cfg()
        }
    }

    /// `n` tiers 65 ns apart.
    fn chain(n: usize) -> ColloidController {
        ColloidController::new(chain_cfg((0..n).map(|i| 70.0 + 65.0 * i as f64).collect()))
    }

    #[test]
    fn no_decision_without_traffic() {
        let mut c = ColloidController::new(cfg());
        assert!(c
            .on_quantum(&[TierMeasurement::IDLE, TierMeasurement::IDLE])
            .is_none());
    }

    #[test]
    fn frozen_controller_ingests_but_never_decides() {
        let mut c = ColloidController::new(cfg());
        c.set_frozen(true);
        assert!(c.is_frozen());
        for _ in 0..10 {
            assert!(c.on_quantum(&[meas(7.0, 0.1), meas(30.0, 0.2)]).is_none());
        }
        // Measurements were still ingested while frozen …
        assert!(c.monitor().total_rate_per_ns() > 0.0);
        assert_eq!(c.quanta(), 10);
        // … so the first unfrozen quantum can decide immediately.
        c.set_frozen(false);
        let d = c
            .on_quantum(&[meas(7.0, 0.1), meas(30.0, 0.2)])
            .expect("decision after resume");
        assert_eq!(d.mode, Mode::Promote);
    }

    #[test]
    fn reset_equilibrium_forwards_to_watermarks() {
        let mut c = ColloidController::new(cfg());
        c.on_quantum(&[meas(7.0, 0.1), meas(30.0, 0.2)]);
        c.reset_equilibrium();
        assert_eq!(c.pairs()[0].p_lo(), 0.0);
        assert_eq!(c.pairs()[0].p_hi(), 1.0);
        assert!(c.pairs()[0].resets() > 0);
    }

    #[test]
    fn promotes_when_default_faster() {
        let mut c = ColloidController::new(cfg());
        let d = c
            .on_quantum(&[meas(7.0, 0.1), meas(30.0, 0.2)])
            .expect("decision");
        assert_eq!(d.mode, Mode::Promote);
        assert!(d.l_upper_ns < d.l_lower_ns);
    }

    #[test]
    fn demotes_when_default_slower() {
        let mut c = ColloidController::new(cfg());
        let d = c
            .on_quantum(&[meas(90.0, 0.3), meas(14.0, 0.1)])
            .expect("decision");
        assert_eq!(d.mode, Mode::Demote);
        assert!((d.p - 0.75).abs() < 1e-9);
    }

    #[test]
    fn balanced_tiers_need_no_migration() {
        let mut c = ColloidController::new(cfg());
        // L_D = 150, L_A = 148: within delta = 5%.
        let d = c.on_quantum(&[meas(30.0, 0.2), meas(14.8, 0.1)]);
        assert!(d.is_none());
    }

    #[test]
    fn dynamic_limit_caps_at_static() {
        let mut small = cfg();
        small.static_limit_bytes = 4096;
        let mut c = ColloidController::new(small);
        let d = c
            .on_quantum(&[meas(90.0, 0.3), meas(14.0, 0.1)])
            .expect("decision");
        assert_eq!(d.byte_limit, 4096);
    }

    #[test]
    fn dynamic_limit_scales_with_delta_p() {
        let mut c = ColloidController::new(cfg());
        let d = c
            .on_quantum(&[meas(90.0, 0.3), meas(14.0, 0.1)])
            .expect("decision");
        let expected = (d.delta_p * 0.4 * 64.0 * 100_000.0) as u64;
        assert_eq!(d.byte_limit, expected.min(1 << 20));
    }

    #[test]
    fn idle_alternate_tier_uses_unloaded_latency() {
        let mut c = ColloidController::new(cfg());
        // Default tier at 300 ns, alternate idle (unloaded 135 ns): demote.
        let d = c
            .on_quantum(&[meas(60.0, 0.2), TierMeasurement::IDLE])
            .expect("decision");
        assert_eq!(d.mode, Mode::Demote);
        assert_eq!(d.l_lower_ns, 135.0);
    }

    #[test]
    fn idle_donor_leaves_watermarks_untouched() {
        // Tier 1's counters drop out until the monitor forgets it: its
        // rate is then exactly 0 and it reports its unloaded 135 ns, so
        // the pair indicates a promotion with nothing to promote from.
        let mut c = ColloidController::new(cfg());
        c.on_quantum(&[meas(7.0, 0.1), meas(30.0, 0.2)]);
        let marks = |c: &ColloidController| {
            let s = &c.pairs()[0];
            (s.p_lo(), s.p_hi(), s.resets())
        };
        let before = marks(&c);
        assert!(before.0 > 0.0 && before.1 == 1.0, "{before:?}");
        let dropped = [meas(7.0, 0.1), meas(f64::NAN, f64::NAN)];
        for _ in 1..crate::latency::MAX_STALE_QUANTA {
            c.on_quantum(&dropped);
        }
        let sink = telemetry::Sink::ring(64, 0);
        c.set_telemetry(sink.clone());
        assert!(c.on_quantum(&dropped).is_none());
        assert_eq!(c.monitor().rate_per_ns(1), 0.0);
        assert_eq!(marks(&c), before);
        let events = sink.with(|r| r.events()).expect("enabled sink");
        assert!(
            !events
                .iter()
                .any(|e| matches!(e.kind, telemetry::EventKind::WatermarkMove { .. })),
            "{events:?}"
        );
    }

    #[test]
    fn corrupt_windows_never_panic_and_decisions_stay_bounded() {
        let mut c = ColloidController::new(cfg());
        // Establish a normal imbalance first.
        c.on_quantum(&[meas(90.0, 0.3), meas(14.0, 0.1)]);
        let garbage = [
            meas(f64::NAN, f64::NAN),
            meas(f64::INFINITY, 0.3),
            meas(-90.0, -0.3),
            meas(1e300, 1e300),
        ];
        for g in garbage {
            if let Some(d) = c.on_quantum(&[g, meas(14.0, 0.1)]) {
                assert!(d.delta_p.is_finite());
                assert!(d.delta_p > 0.0 && d.delta_p <= 1.0);
                assert!(d.byte_limit <= 1 << 20);
                assert!(d.l_upper_ns.is_finite());
                assert!(d.l_lower_ns.is_finite());
                assert!(d.p.is_finite());
            }
        }
        assert_eq!(c.monitor().rejected_windows(), 4);
    }

    #[test]
    fn sustained_counter_loss_parks_the_controller() {
        // When every window is corrupt for long enough, the monitor forgets
        // its held state; with no believable traffic the controller stops
        // issuing decisions instead of acting on garbage.
        let mut c = ColloidController::new(cfg());
        c.on_quantum(&[meas(90.0, 0.3), meas(14.0, 0.1)]);
        let bad = [meas(f64::NAN, f64::NAN), meas(f64::NAN, f64::NAN)];
        for _ in 0..crate::latency::MAX_STALE_QUANTA {
            c.on_quantum(&bad);
        }
        assert!(c.on_quantum(&bad).is_none());
    }

    #[test]
    fn balanced_three_tiers_no_decisions() {
        let mut c = chain(3);
        // All at 250 ns (above every tier's unloaded latency).
        let d = c.on_quantum(&[meas(50.0, 0.2), meas(25.0, 0.1), meas(12.5, 0.05)]);
        assert!(d.is_none());
    }

    #[test]
    fn hot_default_demotes_towards_middle_tier() {
        let mut c = chain(3);
        let d = c.on_quantum(&[
            meas(90.0, 0.3), // 300 ns
            meas(14.0, 0.1), // 140 ns
            meas(4.0, 0.02), // 200 ns
        ]);
        // Pair 0-1 (300 vs 140 ns) is more imbalanced than 1-2 (140 vs
        // 200 ns), so it acts this quantum, demoting out of the default.
        let d = d.expect("decision");
        assert_eq!(d.upper, 0);
        assert_eq!(d.mode, Mode::Demote);
    }

    #[test]
    fn idle_tail_tier_is_skipped() {
        let mut c = chain(3);
        let d = c.on_quantum(&[meas(90.0, 0.3), meas(14.0, 0.1), TierMeasurement::IDLE]);
        // Pair 1-2 has rate > 0 (tier 1), so it may act; pair decisions
        // must never reference a rate-0 *pair*.
        if let Some(d) = d {
            assert!(d.upper < 2);
        }
    }

    #[test]
    fn pairwise_closed_loop_converges_three_tiers() {
        // Toy model: three tiers whose latency rises linearly in their
        // share of total traffic; the controller should equalise latencies.
        let unloaded = [70.0_f64, 135.0, 170.0];
        let slope = [400.0_f64, 250.0, 200.0];
        let mut shares = [0.8_f64, 0.15, 0.05];
        let mut c = ColloidController::new(ColloidConfig {
            delta: 0.02,
            ..chain_cfg(unloaded.to_vec())
        });
        let total_rate = 0.3;
        for _ in 0..400 {
            let lat: Vec<f64> = (0..3).map(|i| unloaded[i] + slope[i] * shares[i]).collect();
            let window: Vec<TierMeasurement> = (0..3)
                .map(|i| meas(lat[i] * shares[i] * total_rate, shares[i] * total_rate))
                .collect();
            if let Some(d) = c.on_quantum(&window) {
                let (from, to) = match d.mode {
                    Mode::Promote => (d.lower, d.upper),
                    Mode::Demote => (d.upper, d.lower),
                };
                let moved = d.delta_p.min(shares[from]);
                shares[from] -= moved;
                shares[to] += moved;
            }
        }
        let lat: Vec<f64> = (0..3).map(|i| unloaded[i] + slope[i] * shares[i]).collect();
        let max = lat.iter().cloned().fold(f64::MIN, f64::max);
        let min = lat.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max / min < 1.15,
            "latencies should equalise, got {lat:?} (shares {shares:?})"
        );
    }

    #[test]
    #[should_panic]
    fn rejects_unsorted_tiers() {
        let _ = ColloidController::new(ColloidConfig {
            unloaded_ns: vec![135.0, 70.0],
            ..cfg()
        });
    }

    #[test]
    fn frozen_three_tier_controller_ingests_but_never_decides() {
        let mut c = chain(3);
        c.set_frozen(true);
        assert!(c.is_frozen());
        for _ in 0..10 {
            let d = c.on_quantum(&[meas(90.0, 0.3), meas(14.0, 0.1), meas(4.0, 0.02)]);
            assert!(d.is_none());
        }
        // Measurements were still ingested while frozen …
        assert!(c.monitor().total_rate_per_ns() > 0.0);
        // … so the first unfrozen quantum can decide immediately.
        c.set_frozen(false);
        assert!(!c.is_frozen());
        let d = c.on_quantum(&[meas(90.0, 0.3), meas(14.0, 0.1), meas(4.0, 0.02)]);
        assert_eq!(d.expect("decision after resume").mode, Mode::Demote);
    }

    #[test]
    fn reset_equilibrium_restarts_every_pair() {
        let mut c = chain(3);
        // Move at least one pair's watermarks off the initial interval.
        c.on_quantum(&[meas(90.0, 0.3), meas(14.0, 0.1), meas(4.0, 0.02)]);
        c.reset_equilibrium();
        for pair in c.pairs() {
            assert_eq!(pair.p_lo(), 0.0);
            assert_eq!(pair.p_hi(), 1.0);
            assert!(pair.resets() > 0);
        }
    }
}
