//! Figure 4 kernel: a single Algorithm 2 step, and a full toy-model
//! convergence (the paper's conceptual traces). Regenerate the traces with
//! `cargo run -p experiments --release --bin all-figs -- --fig 4`.

use colloid::ShiftController;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    c.bench_function("fig4/compute_shift", |b| {
        let mut ctl = ShiftController::new(0.01, 0.05);
        let mut p = 0.5;
        b.iter(|| {
            let dp = ctl.compute_shift(black_box(p), 150.0 + 100.0 * p, 180.0 - 50.0 * p);
            p = (p + dp * 0.1).clamp(0.0, 1.0);
            dp
        })
    });
    c.bench_function("fig4/toy-convergence-60-quanta", |b| {
        b.iter(|| {
            let mut ctl = ShiftController::new(0.01, 0.02);
            let mut p: f64 = 0.9;
            for _ in 0..60 {
                let l_d = 150.0 + 250.0 * (p - 0.6);
                let l_a = 150.0 - 120.0 * (p - 0.6);
                let dp = ctl.compute_shift(p, l_d.max(1.0), l_a.max(1.0));
                p = if l_d < l_a {
                    (p + dp).min(1.0)
                } else {
                    (p - dp).max(0.0)
                };
            }
            p
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
