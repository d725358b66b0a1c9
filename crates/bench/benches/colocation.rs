//! Colocation benchmarks: the multi-tenant tick loop (arbiter gate +
//! per-tenant sharded systems) and the arbiter's own decision kernels.
//!
//! The committed `BENCH_colocation.json` baseline is regenerated by
//! `cargo run -p experiments --release --bin grid -- colocation --bench`
//! (the vendored Criterion stand-in prints text only).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use experiments::colocation::{self, ColocationScenario};
use tiersys::SystemKind;

fn tiny_mix() -> ColocationScenario {
    let mut sc = colocation::mixes(true)
        .into_iter()
        .next()
        .expect("ls-antagonist mix");
    sc.warmup_ticks = 30;
    sc.measure_ticks = 10;
    sc
}

fn bench(c: &mut Criterion) {
    c.bench_function("colocation/tick-loop-bare", |b| {
        let sc = tiny_mix();
        let mut exp = colocation::build(&sc, SystemKind::Hemem, true, false);
        b.iter(|| black_box(exp.step().app_ops))
    });

    c.bench_function("colocation/tick-loop-arbitrated", |b| {
        let sc = tiny_mix();
        let mut exp = colocation::build(&sc, SystemKind::Hemem, true, true);
        b.iter(|| black_box(exp.step().app_ops))
    });

    c.bench_function("colocation/cell-quick", |b| {
        let sc = tiny_mix();
        b.iter(|| {
            let r = colocation::run_cell(&sc, SystemKind::Hemem, true, true);
            black_box(r.reclaimed_pages)
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
