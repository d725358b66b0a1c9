//! Hotness-policy benchmarks: the raw tracking kernels (signal ingest,
//! quantum aging, victim selection) for every `PolicyKind`, plus a quick
//! shoot-out cell end to end.
//!
//! The committed `BENCH_policy.json` baseline is regenerated by
//! `cargo run -p experiments --release --bin grid -- policy --bench`
//! (the vendored Criterion stand-in prints text only).

#![allow(clippy::single_range_in_vec_init)]

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use experiments::policy::{self, PolicyScenario, PolicyTrace};
use memsim::TierId;
use tiersys::{HotnessPolicy, PolicyKind, SystemKind};

const PAGES: u64 = 4096;
const N_TIERS: usize = 2;

/// A warmed tracker: every page inserted, a skewed signal stream
/// ingested, one quantum closed.
fn warmed(kind: PolicyKind) -> Box<dyn HotnessPolicy> {
    let mut p = kind.build(N_TIERS, vec![0..PAGES]);
    for vpn in 0..PAGES {
        p.insert(vpn, TierId(if vpn % 3 == 0 { 0 } else { 1 }));
    }
    for i in 0..4 * PAGES {
        p.record_access((i * i) % PAGES);
    }
    p.end_quantum();
    p
}

fn tiny() -> PolicyScenario {
    let mut sc = PolicyScenario::paper_default(true);
    sc.ws_pages = 512;
    sc.hot_pages = 128;
    sc.default_pages = 192;
    sc.app_cores = 1;
    sc.run_ticks = 40;
    sc
}

fn bench(c: &mut Criterion) {
    for kind in PolicyKind::ALL {
        c.bench_function(format!("policy/ingest-quantum/{}", kind.name()), |b| {
            let mut p = warmed(kind);
            let mut i = 0u64;
            b.iter(|| {
                for _ in 0..64 {
                    i = (i * 25 + 7) % PAGES;
                    p.record_access(i);
                }
                p.end_quantum();
                black_box(p.heat_of(i))
            })
        });

        c.bench_function(format!("policy/victims/{}", kind.name()), |b| {
            let mut p = warmed(kind);
            b.iter(|| black_box(p.victims(TierId(1), 32).len()))
        });
    }

    c.bench_function("policy/swap-boxed/freq-bins-to-sieve", |b| {
        b.iter(|| {
            let mut slot = warmed(PolicyKind::FreqBins);
            let (was, seeded) =
                tiersys::policy::swap_boxed(&mut slot, PolicyKind::Sieve, N_TIERS, vec![0..PAGES]);
            black_box((was, seeded))
        })
    });

    c.bench_function("policy/cell-quick", |b| {
        let sc = tiny();
        b.iter(|| {
            let cell = policy::run_cell(
                &sc,
                PolicyTrace::Gups,
                SystemKind::Hemem,
                Some(PolicyKind::Sieve),
            );
            black_box(cell.end.resident)
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
