//! Figure 8 kernel: one quantum with 4096 B GUPS objects (the prefetcher
//! raises per-core parallelism and the default tier saturates even at 0x).
//! Regenerate the heatmaps with
//! `cargo run -p experiments --release --bin all-figs -- --fig 8`.

use colloid_bench::{converged_scenario, one_quantum};
use criterion::{criterion_group, criterion_main, Criterion};
use experiments::scenario::{GupsScenario, Policy};
use std::time::Duration;
use tiersys::SystemKind;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for size in [64u32, 4096] {
        let mut sc = GupsScenario::intensity(0);
        sc.object_size = size;
        let mut exp = converged_scenario(
            &sc,
            Policy::System {
                kind: SystemKind::Hemem,
                colloid: true,
            },
        );
        g.bench_function(format!("object{size}B@0x/quantum"), |b| {
            b.iter(|| one_quantum(&mut exp))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
