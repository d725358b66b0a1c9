//! Figure 9 kernel: a quantum in the middle of a hot-set transition — the
//! heaviest moment for every system (sampling, migration and measurement
//! all active). Regenerate the timelines with
//! `cargo run -p experiments --release --bin all-figs -- --fig 9`.

use colloid_bench::{converged_scenario, one_quantum};
use criterion::{criterion_group, criterion_main, Criterion};
use experiments::scenario::{GupsScenario, Policy};
use simkit::SimTime;
use std::time::Duration;
use tiersys::SystemKind;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for colloid in [false, true] {
        // Hot set moves right after the warm-up window: the benchmark
        // measures quanta during re-convergence.
        let mut sc = GupsScenario::intensity(0);
        sc.phases = vec![(SimTime::from_ms(25.0), 0)];
        let mut exp = converged_scenario(
            &sc,
            Policy::System {
                kind: SystemKind::Hemem,
                colloid,
            },
        );
        let label = if colloid {
            "transition/colloid"
        } else {
            "transition/vanilla"
        };
        g.bench_function(label, |b| b.iter(|| one_quantum(&mut exp)));
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
