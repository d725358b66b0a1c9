//! Figure 11 kernel: one steady-state quantum of each real-application
//! workload under HeMem+Colloid at 2x contention. Regenerate the
//! per-application tables with
//! `cargo run -p experiments --release --bin all-figs -- --fig 11`.

use criterion::{criterion_group, criterion_main, Criterion};
use experiments::runner::{run, RunConfig};
use experiments::scenario::{build_app, AppKind, Policy};
use std::time::Duration;
use tiersys::SystemKind;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig11");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for app in AppKind::ALL {
        let mut exp = build_app(
            app,
            10,
            Policy::System {
                kind: SystemKind::Hemem,
                colloid: true,
            },
            7,
        );
        let rc = RunConfig {
            min_warmup_ticks: 40,
            max_warmup_ticks: 120,
            measure_ticks: 0,
            window: 30,
            tolerance: 0.03,
            collect_series: false,
        };
        let _ = run(&mut exp, &rc);
        g.bench_function(format!("{}@2x/quantum", app.name()), |b| {
            b.iter(|| {
                let report = exp.machine.run_tick(exp.tick);
                exp.system.on_tick(&mut exp.machine, &report);
                report.app_ops
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
