//! Figure 7 kernel: one quantum at the sweep's extreme point — alternate
//! tier at 2.7x the default's unloaded latency, 3x contention, with and
//! without Colloid. Regenerate the heatmaps with
//! `cargo run -p experiments --release --bin all-figs -- --fig 7`.

use colloid_bench::{converged_scenario, one_quantum};
use criterion::{criterion_group, criterion_main, Criterion};
use experiments::scenario::{GupsScenario, Policy};
use std::time::Duration;
use tiersys::SystemKind;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for colloid in [false, true] {
        let mut sc = GupsScenario::intensity(3);
        sc.alt_latency_ratio = 2.7;
        let mut exp = converged_scenario(
            &sc,
            Policy::System {
                kind: SystemKind::Hemem,
                colloid,
            },
        );
        let label = if colloid {
            "alt2.7x/colloid"
        } else {
            "alt2.7x/vanilla"
        };
        g.bench_function(label, |b| b.iter(|| one_quantum(&mut exp)));
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
