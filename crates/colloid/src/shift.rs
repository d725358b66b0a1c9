//! Algorithm 2: computing the desired shift in access probability.
//!
//! Faithful implementation of the paper's watermark controller:
//!
//! ```text
//! /* Initialize p_lo <- 0 and p_hi <- 1 */
//! procedure ComputeShift(p, L_D, L_A)
//!     if |L_D - L_A| < delta * L_D then return 0
//!     if L_D < L_A then p_lo <- p else p_hi <- p
//!     if p_hi < p_lo + epsilon then
//!         if L_D < L_A then p_hi <- 1 else p_lo <- 0
//!     return | (p_lo + p_hi)/2 - p |
//! ```
//!
//! `p_hi` upper-bounds the default-tier probability share for which the
//! default tier *may* still be faster; `p_lo` lower-bounds the share for
//! which it is *definitely* faster. Each quantum narrows the gap
//! (binary-search convergence, Figure 4a); when the watermarks collapse
//! without reaching latency balance, the equilibrium has moved and the
//! relevant watermark is reset (Figure 4c).

/// The Algorithm 2 watermark controller.
///
/// # Examples
///
/// ```
/// let mut c = colloid::ShiftController::new(0.01, 0.05);
/// // Default tier faster and p = 0.5: shift towards more default traffic.
/// let dp = c.compute_shift(0.5, 100.0, 200.0);
/// assert!((dp - 0.25).abs() < 1e-12); // midpoint of [0.5, 1] is 0.75
/// ```
#[derive(Debug, Clone)]
pub struct ShiftController {
    p_lo: f64,
    p_hi: f64,
    epsilon: f64,
    delta: f64,
    resets: u64,
    reset_enabled: bool,
    rejected: u64,
    frozen: bool,
}

impl ShiftController {
    /// Creates a controller with watermark-collapse threshold `epsilon` and
    /// latency-balance tolerance `delta` (paper defaults: 0.01 and 0.05).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < epsilon < 1` and `0 < delta < 1`.
    pub fn new(epsilon: f64, delta: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon in (0,1)");
        assert!(delta > 0.0 && delta < 1.0, "delta in (0,1)");
        ShiftController {
            p_lo: 0.0,
            p_hi: 1.0,
            epsilon,
            delta,
            resets: 0,
            reset_enabled: true,
            rejected: 0,
            frozen: false,
        }
    }

    /// Like [`ShiftController::new`] but with the watermark reset disabled
    /// — an ablation of the dynamic-equilibrium tracking (Figure 4c). With
    /// the reset off, the controller cannot follow a moved equilibrium.
    pub fn without_reset(epsilon: f64, delta: f64) -> Self {
        ShiftController {
            reset_enabled: false,
            ..Self::new(epsilon, delta)
        }
    }

    /// One quantum of Algorithm 2. `p` is the current default-tier access
    /// probability share; `l_d`/`l_a` the measured tier latencies (ns).
    /// Returns the desired |Δp| (0 when balanced within `delta`).
    ///
    /// Corrupt inputs are tolerated: a non-finite or non-positive latency
    /// (or a non-finite `p`) cannot say which tier is faster, so the
    /// watermarks are left untouched and the shift is 0. A finite `p`
    /// outside `[0, 1]` is clamped. The returned shift is always finite and
    /// in `[0, 1]`.
    pub fn compute_shift(&mut self, p: f64, l_d: f64, l_a: f64) -> f64 {
        if self.frozen {
            // Frozen (supervisor degraded mode): measurements taken under a
            // fault regime must not move the watermarks, and no shift is
            // requested.
            return 0.0;
        }
        if !l_d.is_finite() || !l_a.is_finite() || l_d <= 0.0 || l_a <= 0.0 || !p.is_finite() {
            self.rejected += 1;
            return 0.0;
        }
        let p = p.clamp(0.0, 1.0);
        if (l_d - l_a).abs() < self.delta * l_d {
            return 0.0;
        }
        if l_d < l_a {
            self.p_lo = p;
        } else {
            self.p_hi = p;
        }
        if self.reset_enabled && self.p_hi < self.p_lo + self.epsilon {
            // Watermarks collapsed but latencies are still unbalanced: the
            // equilibrium point moved outside [p_lo, p_hi]; reset the
            // boundary on the side the equilibrium escaped to.
            if l_d < l_a {
                self.p_hi = 1.0;
            } else {
                self.p_lo = 0.0;
            }
            self.resets += 1;
        }
        ((self.p_lo + self.p_hi) / 2.0 - p).abs()
    }

    /// Freezes the controller: while frozen, [`compute_shift`] returns 0
    /// and leaves all state untouched.
    ///
    /// [`compute_shift`]: ShiftController::compute_shift
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// Resumes a frozen controller (watermarks keep their pre-freeze
    /// values; call [`reset_watermarks`] as well if the equilibrium may
    /// have moved during the freeze).
    ///
    /// [`reset_watermarks`]: ShiftController::reset_watermarks
    pub fn resume(&mut self) {
        self.frozen = false;
    }

    /// Whether the controller is frozen.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Re-runs the watermark initialisation (`p_lo ← 0`, `p_hi ← 1`) so the
    /// binary search restarts from the full interval — used after a hard
    /// fault has moved the equilibrium in a way the incremental reset logic
    /// would be slow to discover.
    pub fn reset_watermarks(&mut self) {
        self.p_lo = 0.0;
        self.p_hi = 1.0;
        self.resets += 1;
    }

    /// Low watermark.
    pub fn p_lo(&self) -> f64 {
        self.p_lo
    }

    /// High watermark.
    pub fn p_hi(&self) -> f64 {
        self.p_hi
    }

    /// Number of watermark resets performed (equilibrium moves detected).
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Number of quanta whose inputs were rejected as corrupt.
    pub fn rejected_inputs(&self) -> u64 {
        self.rejected
    }

    /// The collapse threshold ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The balance tolerance δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy two-tier latency model: `L_D` rises and `L_A` falls linearly
    /// in `p`, crossing at `p_star`.
    struct ToyTiers {
        p_star: f64,
    }

    impl ToyTiers {
        fn latencies(&self, p: f64) -> (f64, f64) {
            // At p = p_star both are 150 ns; slopes +/-200 ns per unit p.
            let l_d = 150.0 + 200.0 * (p - self.p_star);
            let l_a = 150.0 - 100.0 * (p - self.p_star);
            (l_d.max(1.0), l_a.max(1.0))
        }
    }

    /// Closed-loop helper: apply the computed shift in the indicated
    /// direction each quantum.
    fn step(c: &mut ShiftController, toy: &ToyTiers, p: f64) -> f64 {
        let (l_d, l_a) = toy.latencies(p);
        let dp = c.compute_shift(p, l_d, l_a);
        if l_d < l_a {
            (p + dp).min(1.0)
        } else {
            (p - dp).max(0.0)
        }
    }

    #[test]
    fn balanced_latencies_yield_zero_shift() {
        let mut c = ShiftController::new(0.01, 0.05);
        assert_eq!(c.compute_shift(0.5, 100.0, 102.0), 0.0);
        // Watermarks untouched.
        assert_eq!(c.p_lo(), 0.0);
        assert_eq!(c.p_hi(), 1.0);
    }

    #[test]
    fn first_shift_is_towards_midpoint() {
        let mut c = ShiftController::new(0.01, 0.05);
        // Default faster at p=0.3: p_lo=0.3, target midpoint (0.3+1)/2.
        let dp = c.compute_shift(0.3, 80.0, 160.0);
        assert!((dp - 0.35).abs() < 1e-12);
        assert_eq!(c.p_lo(), 0.3);
        assert_eq!(c.p_hi(), 1.0);
    }

    #[test]
    fn converges_to_static_equilibrium() {
        // Figure 4a: static workload, p converges to p*.
        for p_star in [0.2, 0.5, 0.8] {
            let toy = ToyTiers { p_star };
            let mut c = ShiftController::new(0.01, 0.02);
            let mut p = 0.9;
            for _ in 0..60 {
                p = step(&mut c, &toy, p);
            }
            let (l_d, l_a) = toy.latencies(p);
            assert!(
                (l_d - l_a).abs() < 0.1 * l_d,
                "p={p} did not balance {l_d} vs {l_a} (p*={p_star})"
            );
            assert!((p - p_star).abs() < 0.05, "p={p} vs p*={p_star}");
        }
    }

    #[test]
    fn converges_to_p_one_when_default_always_faster() {
        // If L_D < L_A even at p=1, Colloid must converge to p=1 (the
        // existing systems' placement).
        let mut c = ShiftController::new(0.01, 0.05);
        let mut p: f64 = 0.4;
        for _ in 0..200 {
            let dp = c.compute_shift(p, 70.0, 135.0);
            p = (p + dp).min(1.0);
        }
        assert!(p > 0.99, "p={p}");
    }

    #[test]
    fn watermark_invariant_contains_p() {
        // p_lo <= p_hi after arbitrary (monotone-consistent) updates.
        let toy = ToyTiers { p_star: 0.37 };
        let mut c = ShiftController::new(0.01, 0.02);
        let mut p = 1.0;
        for _ in 0..100 {
            p = step(&mut c, &toy, p);
            assert!(
                c.p_lo() <= c.p_hi() + 1e-12,
                "lo {} hi {}",
                c.p_lo(),
                c.p_hi()
            );
        }
    }

    #[test]
    fn abrupt_p_change_is_absorbed() {
        // Figure 4b: p jumps outside the watermarks; updating the watermark
        // before computing the shift re-establishes the invariant.
        let toy = ToyTiers { p_star: 0.5 };
        let mut c = ShiftController::new(0.01, 0.02);
        let mut p = 0.9;
        for _ in 0..30 {
            p = step(&mut c, &toy, p);
        }
        // External event slams p to 0.05 (e.g. the workload moved).
        p = 0.05;
        for _ in 0..60 {
            p = step(&mut c, &toy, p);
        }
        assert!((p - 0.5).abs() < 0.05, "p={p} after p-jump");
    }

    #[test]
    fn equilibrium_move_triggers_reset_and_reconverges() {
        // Figure 4c: p* jumps after convergence; the watermark reset lets
        // the controller escape the collapsed interval.
        let mut toy = ToyTiers { p_star: 0.3 };
        let mut c = ShiftController::new(0.01, 0.02);
        let mut p = 0.9;
        for _ in 0..80 {
            p = step(&mut c, &toy, p);
        }
        assert!((p - 0.3).abs() < 0.05, "initial convergence, p={p}");
        let resets_before = c.resets();
        toy.p_star = 0.8; // contention on the alternate side changed
        for _ in 0..120 {
            p = step(&mut c, &toy, p);
        }
        assert!(
            (p - 0.8).abs() < 0.05,
            "re-convergence after p* move, p={p}"
        );
        assert!(c.resets() > resets_before, "a watermark reset must fire");
    }

    #[test]
    fn without_reset_a_moved_equilibrium_is_never_reacquired() {
        // The reset ablation of `grid ext`: Figure 4's toy
        // (slopes +250/-120 ns per unit p), p* moving 0.3 -> 0.8 after 80
        // of 230 quanta.
        let run = |mut c: ShiftController| {
            let mut p: f64 = 0.9;
            for (p_star, quanta) in [(0.3, 80), (0.8, 150)] {
                for _ in 0..quanta {
                    let l_d = (150.0 + 250.0 * (p - p_star)).max(1.0);
                    let l_a = (150.0 - 120.0 * (p - p_star)).max(1.0);
                    let dp = c.compute_shift(p, l_d, l_a);
                    p = if l_d < l_a {
                        (p + dp).min(1.0)
                    } else {
                        (p - dp).max(0.0)
                    };
                }
            }
            (p, c.resets())
        };
        let (p_on, resets_on) = run(ShiftController::new(0.01, 0.02));
        assert!((p_on - 0.8).abs() < 0.05, "reset ON: p={p_on}");
        assert!(resets_on > 0, "reset ON must fire a reset");
        let (p_off, resets_off) = run(ShiftController::without_reset(0.01, 0.02));
        assert!((p_off - 0.3).abs() < 0.05, "reset OFF: p={p_off}");
        assert_eq!(resets_off, 0, "reset OFF must never reset");
    }

    #[test]
    fn equilibrium_move_down_also_reconverges() {
        let mut toy = ToyTiers { p_star: 0.8 };
        let mut c = ShiftController::new(0.01, 0.02);
        let mut p = 0.1;
        for _ in 0..80 {
            p = step(&mut c, &toy, p);
        }
        toy.p_star = 0.2;
        for _ in 0..120 {
            p = step(&mut c, &toy, p);
        }
        assert!((p - 0.2).abs() < 0.05, "p={p}");
    }

    #[test]
    fn corrupt_latencies_leave_watermarks_untouched() {
        let mut c = ShiftController::new(0.01, 0.05);
        c.compute_shift(0.3, 80.0, 160.0); // establish p_lo = 0.3
        let (lo, hi) = (c.p_lo(), c.p_hi());
        for (l_d, l_a) in [
            (f64::NAN, 160.0),
            (80.0, f64::NAN),
            (f64::INFINITY, 160.0),
            (80.0, f64::NEG_INFINITY),
            (-80.0, 160.0),
            (0.0, 160.0),
        ] {
            assert_eq!(c.compute_shift(0.5, l_d, l_a), 0.0);
            assert_eq!(c.p_lo(), lo);
            assert_eq!(c.p_hi(), hi);
        }
        assert_eq!(c.rejected_inputs(), 6);
    }

    #[test]
    fn nan_p_is_rejected_and_out_of_range_p_clamped() {
        let mut c = ShiftController::new(0.01, 0.05);
        assert_eq!(c.compute_shift(f64::NAN, 80.0, 160.0), 0.0);
        assert_eq!(c.rejected_inputs(), 1);
        // p = 1.7 clamps to 1.0: default faster -> p_lo = 1.0, shift 0.
        let dp = c.compute_shift(1.7, 80.0, 160.0);
        assert!(dp.is_finite() && (0.0..=1.0).contains(&dp));
        assert!(c.p_lo() <= 1.0);
        // p = -3.0 clamps to 0.0.
        let dp = c.compute_shift(-3.0, 200.0, 100.0);
        assert!(dp.is_finite() && (0.0..=1.0).contains(&dp));
        assert!(c.p_hi() >= 0.0);
    }

    #[test]
    fn freeze_suspends_watermark_movement_and_resume_restores_it() {
        let mut c = ShiftController::new(0.01, 0.05);
        c.compute_shift(0.3, 80.0, 160.0); // p_lo = 0.3
        c.freeze();
        assert!(c.is_frozen());
        // Wildly unbalanced inputs while frozen: no shift, no movement,
        // not even the corrupt-input counter.
        assert_eq!(c.compute_shift(0.9, 10.0, 500.0), 0.0);
        assert_eq!(c.compute_shift(f64::NAN, 10.0, 500.0), 0.0);
        assert_eq!(c.p_lo(), 0.3);
        assert_eq!(c.p_hi(), 1.0);
        assert_eq!(c.rejected_inputs(), 0);
        c.resume();
        assert!(!c.is_frozen());
        let dp = c.compute_shift(0.5, 80.0, 160.0);
        assert!(dp > 0.0, "resumed controller must shift again");
    }

    #[test]
    fn reset_watermarks_restarts_the_search_interval() {
        let mut c = ShiftController::new(0.01, 0.05);
        c.compute_shift(0.3, 80.0, 160.0);
        c.compute_shift(0.7, 200.0, 100.0);
        assert!(c.p_lo() > 0.0 && c.p_hi() < 1.0);
        let resets = c.resets();
        c.reset_watermarks();
        assert_eq!(c.p_lo(), 0.0);
        assert_eq!(c.p_hi(), 1.0);
        assert_eq!(c.resets(), resets + 1);
    }

    #[test]
    #[should_panic]
    fn rejects_bad_epsilon() {
        let _ = ShiftController::new(0.0, 0.05);
    }

    #[test]
    #[should_panic]
    fn rejects_bad_delta() {
        let _ = ShiftController::new(0.01, 1.0);
    }
}
