//! The per-layer split of host time, read from `simkit::profile`.
//!
//! Layers are named after the crates. The machine's own scopes
//! (`machine.*`), `colloid.on_quantum` and `tiersys.retry_drain` already
//! exist inside the crates; the benchmark adds `bench.tick` around each
//! tick, `tiersys.on_tick`, `tenancy.on_tick` and `telemetry.export`
//! around its calls into those layers, and `workloads.next` through a
//! delegating stream. Self time excludes enclosed scopes, so the layers'
//! self times add up to the `bench.tick` total. `bench.residual` holds
//! the rest: the benchmark loop's own glue plus any scope a later change
//! adds inside a crate before this table names it.

use simkit::profile::{self, ScopeStats};

/// Layers in report order: `(metric prefix, profiler labels)`.
pub const LAYERS: [(&str, &[&str]); 10] = [
    ("memsim.event_loop", &["machine.event_loop"]),
    ("memsim.mig_engine", &["machine.mig_engine"]),
    (
        "memsim.tick_overhead",
        &["machine.run_tick", "machine.cha_sample"],
    ),
    ("workloads.next", &["workloads.next"]),
    ("tiersys.on_tick", &["tiersys.on_tick"]),
    ("tiersys.retry_drain", &["tiersys.retry_drain"]),
    ("colloid.on_quantum", &["colloid.on_quantum"]),
    ("tenancy.on_tick", &["tenancy.on_tick"]),
    ("telemetry.export", &["telemetry.export"]),
    ("bench.residual", &["bench.tick"]),
];

/// Number of layers.
pub const N: usize = LAYERS.len();

/// Index of a layer by its metric prefix.
pub fn index(name: &str) -> usize {
    LAYERS
        .iter()
        .position(|(n, _)| *n == name)
        .expect("known layer")
}

fn layer_of(label: &str) -> usize {
    LAYERS
        .iter()
        .position(|(_, labels)| labels.contains(&label))
        .unwrap_or_else(|| index("bench.residual"))
}

/// Cumulative per-layer self time (µs) and calls at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Snapshot {
    /// Self time per layer, µs.
    pub self_us: [f64; N],
    /// Completed scopes per layer.
    pub calls: [u64; N],
}

impl Snapshot {
    /// Folds profiler rows into layers.
    pub fn from_stats(rows: &[ScopeStats]) -> Snapshot {
        let mut s = Snapshot::default();
        for r in rows {
            let i = layer_of(r.label);
            s.self_us[i] += r.self_time.as_secs_f64() * 1e6;
            s.calls[i] += r.calls;
        }
        s
    }

    /// The profiler's current totals.
    pub fn now() -> Snapshot {
        Snapshot::from_stats(&profile::stats())
    }

    /// Per-layer change since `earlier`.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let mut d = Snapshot::default();
        for i in 0..N {
            d.self_us[i] = self.self_us[i] - earlier.self_us[i];
            d.calls[i] = self.calls[i] - earlier.calls[i];
        }
        d
    }

    /// Self time summed over every layer, µs.
    pub fn total_us(&self) -> f64 {
        self.self_us.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn spin(d: Duration) {
        let t0 = Instant::now();
        while t0.elapsed() < d {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn self_times_sum_to_each_tick_wall_time() {
        profile::reset();
        profile::set_enabled(true);
        let mut prev = Snapshot::now();
        for _ in 0..5 {
            let t0 = Instant::now();
            {
                let _tick = profile::scope("bench.tick");
                spin(Duration::from_micros(300));
                {
                    let _m = profile::scope("machine.run_tick");
                    let _e = profile::scope("machine.event_loop");
                    spin(Duration::from_micros(500));
                    let _n = profile::scope("workloads.next");
                    spin(Duration::from_micros(200));
                }
                let _o = profile::scope("some.new_scope");
                spin(Duration::from_micros(100));
            }
            let wall_us = t0.elapsed().as_secs_f64() * 1e6;
            let now = Snapshot::now();
            let tick = now.since(&prev);
            prev = now;
            let sum = tick.total_us();
            assert!(
                (sum - wall_us).abs() <= 0.02 * wall_us,
                "layers sum to {sum} us, tick took {wall_us} us"
            );
            assert!(tick.self_us[index("memsim.event_loop")] >= 500.0);
            assert!(tick.self_us[index("workloads.next")] >= 200.0);
            assert!(tick.self_us[index("bench.residual")] >= 400.0);
            assert_eq!(tick.calls[index("memsim.tick_overhead")], 1);
        }
        profile::set_enabled(false);
        profile::reset();
    }
}
