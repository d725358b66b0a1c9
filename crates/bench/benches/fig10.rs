//! Figure 10 kernel: the migration engine — enqueueing and draining page
//! copies through the DMA path. Regenerate the migration-rate timelines
//! with `cargo run -p experiments --release --bin all-figs -- --fig 10`.

use criterion::{criterion_group, criterion_main, Criterion};
use memsim::{Machine, MachineConfig, TierId};
use simkit::SimTime;

fn bench(c: &mut Criterion) {
    c.bench_function("fig10/migrate-64-pages", |b| {
        b.iter_batched(
            || {
                let mut cfg = MachineConfig::icelake_two_tier();
                cfg.migration_bandwidth = 1e12; // not the bottleneck here
                let mut m = Machine::new(cfg);
                m.place_range(0..4096, TierId::DEFAULT);
                m
            },
            |mut m| {
                for vpn in 0..64 {
                    let _ = m.enqueue_migration(vpn, TierId::ALTERNATE);
                }
                m.run_tick(SimTime::from_us(100.0));
                m.migrated_pages()
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
