//! Figure 6 kernel: the balanced steady state that Figure 6 reports —
//! one quantum of HeMem+Colloid at 1x, where the hot set is split across
//! tiers to equalise latencies. Regenerate the figure's data with
//! `cargo run -p experiments --release --bin all-figs -- --fig 6`.

use colloid_bench::{converged_gups, one_quantum};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use tiersys::SystemKind;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    let mut exp = converged_gups(SystemKind::Hemem, true, 1);
    g.bench_function("HeMem+Colloid@1x/balanced-quantum", |b| {
        b.iter(|| one_quantum(&mut exp))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
