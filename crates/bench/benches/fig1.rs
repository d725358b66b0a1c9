//! Figure 1 kernel: one steady-state quantum of GUPS under each vanilla
//! system at 3x contention (the configuration whose gap vs best-case is
//! the paper's headline). Regenerate the figure's data with
//! `cargo run -p experiments --release --bin all-figs -- --fig 1`.

use colloid_bench::{converged_gups, one_quantum};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use tiersys::SystemKind;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig1");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for kind in SystemKind::ALL {
        let mut exp = converged_gups(kind, false, 3);
        g.bench_function(format!("{}@3x/quantum", kind.name()), |b| {
            b.iter(|| one_quantum(&mut exp))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
