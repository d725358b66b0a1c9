//! Figure 2 kernel: the CHA counter read + Little's-Law latency derivation
//! that root-causes Figure 1, measured on a loaded machine. Regenerate the
//! figure's data with `cargo run -p experiments --release --bin all-figs -- --fig 2`.

use colloid_bench::{converged_gups, one_quantum};
use criterion::{criterion_group, criterion_main, Criterion};
use memsim::TierId;
use std::time::Duration;
use tiersys::SystemKind;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig2");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    let mut exp = converged_gups(SystemKind::Hemem, false, 2);
    g.bench_function("loaded-quantum+latency-derivation", |b| {
        b.iter(|| {
            let report = exp.machine.run_tick(exp.tick);
            let l_d = report.littles_latency_ns(TierId::DEFAULT);
            let l_a = report.littles_latency_ns(TierId::ALTERNATE);
            exp.system.on_tick(&mut exp.machine, &report);
            (l_d, l_a)
        })
    });
    let mut exp2 = converged_gups(SystemKind::Hemem, false, 2);
    g.bench_function("quantum-only", |b| b.iter(|| one_quantum(&mut exp2)));
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
