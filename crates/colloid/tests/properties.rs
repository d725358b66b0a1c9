//! Property-based tests for the Colloid controller invariants.
//!
//! The paper's convergence argument (§3.2) rests on invariants of the
//! watermark controller; these tests check them over randomly generated
//! measurement sequences and toy tier models, not just hand-picked cases.

use colloid::{
    ColloidConfig, ColloidController, LatencyMonitor, Mode, ShiftController, TierMeasurement,
};
use proptest::prelude::*;

/// Degenerate measurement values: NaN, infinities, negatives, absurd
/// magnitudes — everything a glitched PMU read could hand the controller —
/// mixed with an ordinary range so valid and garbage windows interleave.
fn wild() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-1.0),
        Just(1e300),
        Just(0.0),
        -1e12f64..1e12,
        0.0f64..200.0,
    ]
}

proptest! {
    /// p_lo <= p_hi must hold after any sequence of updates, including ones
    /// with inconsistent (noisy) latency observations.
    #[test]
    fn watermarks_stay_ordered(
        steps in prop::collection::vec((0.0f64..=1.0, 1.0f64..500.0, 1.0f64..500.0), 1..200)
    ) {
        let mut c = ShiftController::new(0.01, 0.05);
        for (p, l_d, l_a) in steps {
            let _ = c.compute_shift(p, l_d, l_a);
            prop_assert!(c.p_lo() <= c.p_hi() + 1e-12,
                "violated: lo={} hi={}", c.p_lo(), c.p_hi());
        }
    }

    /// The returned shift is a magnitude within [0, 1].
    #[test]
    fn shift_is_bounded(
        steps in prop::collection::vec((0.0f64..=1.0, 1.0f64..500.0, 1.0f64..500.0), 1..200)
    ) {
        let mut c = ShiftController::new(0.01, 0.05);
        for (p, l_d, l_a) in steps {
            let dp = c.compute_shift(p, l_d, l_a);
            prop_assert!((0.0..=1.0).contains(&dp), "dp = {dp}");
        }
    }

    /// Balanced latencies (within delta) always yield a zero shift and
    /// leave the watermarks untouched.
    #[test]
    fn balanced_input_is_a_noop(
        p in 0.0f64..=1.0,
        l in 50.0f64..400.0,
        jitter in -0.04f64..0.04,
    ) {
        let mut c = ShiftController::new(0.01, 0.05);
        // Pre-load some state.
        let _ = c.compute_shift(0.5, 100.0, 200.0);
        let (lo, hi) = (c.p_lo(), c.p_hi());
        let dp = c.compute_shift(p, l, l * (1.0 + jitter));
        prop_assert_eq!(dp, 0.0);
        prop_assert_eq!((c.p_lo(), c.p_hi()), (lo, hi));
    }

    /// Closed-loop convergence: for any crossing point p* and any monotone
    /// linear latency model, the controller converges to a latency-balanced
    /// share within a bounded number of quanta.
    #[test]
    fn converges_for_random_toy_models(
        p_star in 0.05f64..0.95,
        slope_d in 50.0f64..500.0,
        slope_a in 20.0f64..300.0,
        p0 in 0.0f64..=1.0,
    ) {
        let latencies = |p: f64| {
            let l_d: f64 = 150.0 + slope_d * (p - p_star);
            let l_a: f64 = 150.0 - slope_a * (p - p_star);
            (l_d.max(1.0), l_a.max(1.0))
        };
        let mut c = ShiftController::new(0.01, 0.02);
        let mut p = p0;
        for _ in 0..200 {
            let (l_d, l_a) = latencies(p);
            let dp = c.compute_shift(p, l_d, l_a);
            p = if l_d < l_a { (p + dp).min(1.0) } else { (p - dp).max(0.0) };
        }
        let (l_d, l_a) = latencies(p);
        prop_assert!((l_d - l_a).abs() <= 0.10 * l_d.max(l_a),
            "did not balance: p={p}, L_D={l_d}, L_A={l_a}, p*={p_star}");
    }

    /// The dynamic migration limit never exceeds the static limit, and the
    /// decision's latencies/mode are mutually consistent.
    #[test]
    fn decisions_are_internally_consistent(
        windows in prop::collection::vec(
            ((0.0f64..200.0, 0.0f64..0.5), (0.0f64..200.0, 0.0f64..0.5)), 1..100),
        static_limit in 1u64..10_000_000,
    ) {
        let cfg = ColloidConfig {
            static_limit_bytes: static_limit,
            ..ColloidConfig::paper_default(70.0, 135.0, 0, 100_000.0)
        };
        let mut ctl = ColloidController::new(cfg);
        for ((o_d, r_d), (o_a, r_a)) in windows {
            let d = ctl.on_quantum(&[
                TierMeasurement { occupancy: o_d, rate_per_ns: r_d },
                TierMeasurement { occupancy: o_a, rate_per_ns: r_a },
            ]);
            if let Some(d) = d {
                prop_assert!(d.byte_limit <= static_limit);
                prop_assert!(d.delta_p > 0.0 && d.delta_p <= 1.0);
                prop_assert!((0.0..=1.0).contains(&d.p));
                match d.mode {
                    Mode::Promote => prop_assert!(d.l_upper_ns < d.l_lower_ns),
                    Mode::Demote => prop_assert!(d.l_upper_ns >= d.l_lower_ns),
                }
                // Measured latencies never undercut the transient floor of
                // half the unloaded latency.
                prop_assert!(d.l_upper_ns >= 35.0 - 1e-9);
                prop_assert!(d.l_lower_ns >= 67.5 - 1e-9);
            }
        }
    }

    /// Arbitrary garbage fed straight into `on_quantum` must never panic,
    /// and any decision that does come out stays within its documented
    /// bounds: finite `delta_p` in (0, 1], `byte_limit` capped by the
    /// static limit, finite non-negative latencies.
    #[test]
    fn garbage_measurements_never_panic_or_escape_bounds(
        windows in prop::collection::vec(((wild(), wild()), (wild(), wild())), 1..150),
        static_limit in 1u64..10_000_000,
    ) {
        let cfg = ColloidConfig {
            static_limit_bytes: static_limit,
            ..ColloidConfig::paper_default(70.0, 135.0, 0, 100_000.0)
        };
        let mut ctl = ColloidController::new(cfg);
        for ((o_d, r_d), (o_a, r_a)) in windows {
            let d = ctl.on_quantum(&[
                TierMeasurement { occupancy: o_d, rate_per_ns: r_d },
                TierMeasurement { occupancy: o_a, rate_per_ns: r_a },
            ]);
            if let Some(d) = d {
                prop_assert!(d.delta_p.is_finite() && d.delta_p > 0.0 && d.delta_p <= 1.0,
                    "delta_p = {}", d.delta_p);
                prop_assert!(d.byte_limit <= static_limit,
                    "byte_limit {} > static {}", d.byte_limit, static_limit);
                prop_assert!((0.0..=1.0).contains(&d.p), "p = {}", d.p);
                prop_assert!(d.l_upper_ns.is_finite() && d.l_upper_ns >= 0.0);
                prop_assert!(d.l_lower_ns.is_finite() && d.l_lower_ns >= 0.0);
            }
        }
    }

    /// A burst of garbage windows (long enough to expire the hold-last-good
    /// state) never wedges the controller: plausible imbalanced windows
    /// afterwards produce decisions again.
    #[test]
    fn controller_recovers_after_garbage_burst(
        burst in prop::collection::vec((wild(), wild()), 1..40),
    ) {
        let cfg = ColloidConfig::paper_default(70.0, 135.0, 240_000, 100_000.0);
        let mut ctl = ColloidController::new(cfg);
        for (o, r) in burst {
            let _ = ctl.on_quantum(&[
                TierMeasurement { occupancy: o, rate_per_ns: r },
                TierMeasurement { occupancy: o, rate_per_ns: r },
            ]);
        }
        // Default tier heavily loaded, alternate idle: a hardened
        // controller must eventually demand a demotion shift.
        let mut decided = false;
        for _ in 0..50 {
            if let Some(d) = ctl.on_quantum(&[
                TierMeasurement { occupancy: 120.0, rate_per_ns: 0.4 },
                TierMeasurement { occupancy: 2.0, rate_per_ns: 0.1 },
            ]) {
                prop_assert!(d.delta_p.is_finite() && d.delta_p > 0.0);
                decided = true;
            }
        }
        prop_assert!(decided, "controller wedged after garbage burst");
    }

    /// After convergence, a sudden move of the equilibrium point is always
    /// re-acquired (the watermark-reset property, Figure 4c), regardless of
    /// the direction or size of the move.
    #[test]
    fn reacquires_moved_equilibrium(
        p_star_a in 0.1f64..0.9,
        p_star_b in 0.1f64..0.9,
    ) {
        prop_assume!((p_star_a - p_star_b).abs() > 0.1);
        let model = |p_star: f64, p: f64| {
            let l_d: f64 = 150.0 + 300.0 * (p - p_star);
            let l_a: f64 = 150.0 - 150.0 * (p - p_star);
            (l_d.max(1.0), l_a.max(1.0))
        };
        let mut c = ShiftController::new(0.01, 0.02);
        let mut p = 0.99f64;
        for _ in 0..150 {
            let (l_d, l_a) = model(p_star_a, p);
            let dp = c.compute_shift(p, l_d, l_a);
            p = if l_d < l_a { (p + dp).min(1.0) } else { (p - dp).max(0.0) };
        }
        for _ in 0..300 {
            let (l_d, l_a) = model(p_star_b, p);
            let dp = c.compute_shift(p, l_d, l_a);
            p = if l_d < l_a { (p + dp).min(1.0) } else { (p - dp).max(0.0) };
        }
        prop_assert!((p - p_star_b).abs() < 0.08,
            "p={p} failed to track p* move {p_star_a} -> {p_star_b}");
    }
}

proptest! {
    /// The pairwise N-tier controller (§3.1 generalised) equalises a random
    /// chain of 3–4 linear-latency tiers: after enough quanta every
    /// adjacent pair is either latency-balanced or has drained its slower
    /// (lower) side empty, in which case no further promotion is possible
    /// and the residual gap is the lower tier's unloaded floor.
    #[test]
    fn multitier_balancer_equalises_random_chains(
        n in 3usize..=4,
        base in 50.0f64..120.0,
        incs in prop::collection::vec(15.0f64..120.0, 3),
        slopes in prop::collection::vec(100.0f64..450.0, 4),
        raw in prop::collection::vec(0.05f64..1.0, 4),
    ) {
        let mut unloaded = vec![base];
        for i in 0..n - 1 {
            let prev = unloaded[i];
            unloaded.push(prev + incs[i]);
        }
        let slope = &slopes[..n];
        let mut shares: Vec<f64> = raw[..n].to_vec();
        let total: f64 = shares.iter().sum();
        for s in &mut shares {
            *s /= total;
        }
        let mut b = ColloidController::new(ColloidConfig {
            epsilon: 0.01,
            delta: 0.02,
            ewma_alpha: 1.0,
            static_limit_bytes: 1 << 30,
            quantum_ns: 1e5,
            unloaded_ns: unloaded.clone(),
            dynamic_limit: true,
        });
        let total_rate = 0.3;
        let latencies = |shares: &[f64]| -> Vec<f64> {
            (0..n).map(|i| unloaded[i] + slope[i] * shares[i]).collect()
        };
        for _ in 0..2000 {
            let lat = latencies(&shares);
            let window: Vec<TierMeasurement> = (0..n)
                .map(|i| TierMeasurement {
                    occupancy: lat[i] * shares[i] * total_rate,
                    rate_per_ns: shares[i] * total_rate,
                })
                .collect();
            if let Some(d) = b.on_quantum(&window) {
                let (from, to) = match d.mode {
                    Mode::Promote => (d.lower, d.upper),
                    Mode::Demote => (d.upper, d.lower),
                };
                // delta_p is a fraction of the *pair's* combined traffic
                // (the watermark controller works in pair-local p).
                let pair_total = shares[d.upper] + shares[d.lower];
                let moved = (d.delta_p * pair_total).min(shares[from]);
                shares[from] -= moved;
                shares[to] += moved;
                // Page counts are integral in the real system: a tier
                // holds zero pages, not subtraction dust. Without the
                // clamp a ~1e-17 residue keeps the donor gate open and
                // the pair wins the imbalance selection forever.
                if shares[from] < 1e-12 {
                    shares[to] += shares[from];
                    shares[from] = 0.0;
                }
            }
        }
        let lat = latencies(&shares);
        for i in 0..n - 1 {
            let gap = (lat[i] - lat[i + 1]).abs() / lat[i].min(lat[i + 1]);
            let lower_drained = shares[i + 1] < 0.02;
            prop_assert!(
                gap < 0.3 || lower_drained,
                "pair {i}-{} unbalanced: lat {lat:?} shares {shares:?} \
                 unloaded {unloaded:?} slopes {slope:?}",
                i + 1,
            );
        }
    }
}

/// The paper's two-tier Algorithm 1, written out over the public
/// [`LatencyMonitor`] and [`ShiftController`], plus the donor rule: a
/// quantum whose donor tier (the one pages would leave) has no traffic is
/// skipped before Algorithm 2 runs.
struct Algorithm1 {
    monitor: LatencyMonitor,
    shift: ShiftController,
    cfg: ColloidConfig,
}

impl Algorithm1 {
    fn new(cfg: ColloidConfig) -> Self {
        Algorithm1 {
            monitor: LatencyMonitor::new(cfg.unloaded_ns.clone(), cfg.ewma_alpha),
            shift: ShiftController::new(cfg.epsilon, cfg.delta),
            cfg,
        }
    }

    /// One quantum: `(mode, p, L_D, L_A, Δp, byte limit)` when pages move.
    fn on_quantum(
        &mut self,
        window: &[TierMeasurement],
    ) -> Option<(Mode, f64, f64, f64, f64, u64)> {
        self.monitor.update(window);
        let (r_d, r_a) = (self.monitor.rate_per_ns(0), self.monitor.rate_per_ns(1));
        let (l_d, l_a) = (self.monitor.latency_ns(0), self.monitor.latency_ns(1));
        // Promote into the default tier while it is faster, else demote.
        let (mode, donor_rate) = if l_d < l_a {
            (Mode::Promote, r_a)
        } else {
            (Mode::Demote, r_d)
        };
        if donor_rate <= 0.0 {
            return None;
        }
        let p = r_d / (r_d + r_a);
        let delta_p = self.shift.compute_shift(p, l_d, l_a);
        if delta_p.is_nan() || delta_p <= 0.0 {
            return None;
        }
        let delta_p = delta_p.min(1.0);
        // min(Δp·(R_D+R_A), M), in bytes per quantum at 64 B per request.
        let limit = if self.cfg.dynamic_limit {
            let dynamic = delta_p * (r_d + r_a) * 64.0 * self.cfg.quantum_ns;
            (dynamic as u64).min(self.cfg.static_limit_bytes)
        } else {
            self.cfg.static_limit_bytes
        };
        Some((mode, p, l_d, l_a, delta_p, limit))
    }
}

/// One tier's counter window: ordinary, idle, a trickle below the
/// monitor's idle threshold, or garbage.
fn tier_window() -> impl Strategy<Value = TierMeasurement> {
    let meas = |(occupancy, rate_per_ns): (f64, f64)| TierMeasurement {
        occupancy,
        rate_per_ns,
    };
    prop_oneof![
        (0.0f64..200.0, 0.0f64..0.5).prop_map(meas),
        Just(TierMeasurement::IDLE),
        (0.0f64..1e-4, 0.0f64..1e-6).prop_map(meas),
        (wild(), wild()).prop_map(meas),
    ]
}

proptest! {
    /// On two tiers the controller is the reference Algorithm 1, bit for
    /// bit, on every quantum: the decision, Δp, the byte limit and the
    /// watermarks. Windows repeat for up to a dozen quanta, so garbage
    /// runs outlast the monitor's hold and leave a tier idle.
    #[test]
    fn two_tiers_match_the_reference_algorithm_1(
        runs in prop::collection::vec(((tier_window(), tier_window()), 1usize..12), 1..40),
        static_limit in 1u64..10_000_000,
        alpha in 0.05f64..=1.0,
        dynamic_limit in prop::bool::ANY,
    ) {
        let cfg = ColloidConfig {
            static_limit_bytes: static_limit,
            ewma_alpha: alpha,
            dynamic_limit,
            ..ColloidConfig::paper_default(70.0, 135.0, 0, 100_000.0)
        };
        let mut ctl = ColloidController::new(cfg.clone());
        let mut reference = Algorithm1::new(cfg);
        for ((w_d, w_a), repeat) in runs {
            for _ in 0..repeat {
                let got = ctl.on_quantum(&[w_d, w_a]);
                if let Some(d) = &got {
                    prop_assert_eq!((d.upper, d.lower), (0, 1));
                }
                let got = got.map(|d| (d.mode, d.p, d.l_upper_ns, d.l_lower_ns, d.delta_p, d.byte_limit));
                let want = reference.on_quantum(&[w_d, w_a]);
                let bits = |x: Option<(Mode, f64, f64, f64, f64, u64)>| {
                    x.map(|(m, p, l_d, l_a, dp, limit)| {
                        (m, p.to_bits(), l_d.to_bits(), l_a.to_bits(), dp.to_bits(), limit)
                    })
                };
                prop_assert_eq!(bits(got), bits(want));
                let marks = |s: &ShiftController| (s.p_lo().to_bits(), s.p_hi().to_bits(), s.resets());
                prop_assert_eq!(marks(&ctl.pairs()[0]), marks(&reference.shift));
            }
        }
    }
}
