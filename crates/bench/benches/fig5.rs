//! Figure 5 kernel: one steady-state quantum of GUPS under each
//! Colloid-integrated system at 3x contention (the paper's headline
//! recovery). Regenerate the figure's data with
//! `cargo run -p experiments --release --bin all-figs -- --fig 5`.

use colloid_bench::{converged_gups, one_quantum};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use tiersys::SystemKind;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig5");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for kind in SystemKind::ALL {
        let mut exp = converged_gups(kind, true, 3);
        g.bench_function(format!("{}+Colloid@3x/quantum", kind.name()), |b| {
            b.iter(|| one_quantum(&mut exp))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
