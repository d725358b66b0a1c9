//! Property-based tests for the simulation kernel.

use proptest::prelude::*;
use simkit::rng::{seed_from, ScrambledZipf, Zipf};
use simkit::stats::TimeIntegrator;
use simkit::{EventQueue, SimTime};

proptest! {
    /// Events pop in non-decreasing time order regardless of push order,
    /// and same-time events pop in push order.
    #[test]
    fn event_queue_orders_any_sequence(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_ps(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(i > li, "FIFO violated for equal times");
                }
            }
            last = Some((t, i));
        }
    }

    /// The Zipf pmf is non-increasing in rank and sums to 1.
    #[test]
    fn zipf_pmf_shape(n in 2u64..5_000, theta in 0.01f64..0.99) {
        let z = Zipf::new(n, theta);
        let mut sum = 0.0;
        let mut prev = f64::INFINITY;
        for i in 0..n {
            let p = z.pmf(i);
            prop_assert!(p <= prev + 1e-12);
            prev = p;
            sum += p;
        }
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum = {sum}");
    }

    /// Zipf samples always land in the domain.
    #[test]
    fn zipf_samples_in_domain(n in 1u64..10_000, theta in 0.01f64..0.99, seed in 0u64..1_000) {
        let z = Zipf::new(n.max(1), theta);
        let s = ScrambledZipf::new(n.max(1), theta);
        let mut rng = seed_from(seed, 0);
        for _ in 0..100 {
            prop_assert!(z.sample(&mut rng) < n.max(1));
            prop_assert!(s.sample(&mut rng) < n.max(1));
        }
    }

    /// The time integrator equals a step-function integral computed naively.
    #[test]
    fn integrator_matches_naive(steps in prop::collection::vec((1u64..100, 0.0f64..50.0), 1..100)) {
        let mut i = TimeIntegrator::new();
        let mut t = 0u64;
        let mut naive = 0.0;
        let mut cur = 0.0;
        for &(dt, v) in &steps {
            naive += cur * dt as f64; // value held over [t, t+dt)
            t += dt;
            cur = v;
            i.set(SimTime::from_ps(t), v);
        }
        // Integrate a final stretch.
        naive += cur * 1_000.0;
        let total = i.integral_at(SimTime::from_ps(t + 1_000));
        // integral_at works in ns; our naive sum is in value*ps.
        prop_assert!((total - naive / 1_000.0).abs() < 1e-6);
    }

    /// seed_from is a pure function of (seed, stream).
    #[test]
    fn seeding_is_pure(seed in 0u64..u64::MAX, stream in 0u64..1_000) {
        use rand::Rng;
        let mut a = seed_from(seed, stream);
        let mut b = seed_from(seed, stream);
        for _ in 0..16 {
            prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }
}
