//! Umbrella crate for the Colloid reproduction workspace.
//!
//! This crate re-exports the workspace's public crates so that the
//! repository-level examples (`examples/`) and integration tests (`tests/`)
//! can exercise the whole stack through one dependency. See `README.md` for
//! an architecture overview and `DESIGN.md` for the paper-to-module map.
//!
//! The layering, bottom to top:
//!
//! 1. [`simkit`] — discrete-event simulation kernel (clock, events, RNG,
//!    statistics).
//!    [`telemetry`] sits beside it: the structured observability layer
//!    (typed events and spans, one bounded recorder, per-quantum metrics,
//!    exporters, provenance and convergence analytics) that every higher
//!    layer emits into — and
//!    that, disabled or enabled, never changes simulated behaviour
//!    (DESIGN.md §10).
//! 2. [`memsim`] — the tiered-memory hardware model: cores with bounded
//!    memory-level parallelism, CHA with occupancy/arrival counters, per-tier
//!    memory controllers (channels × banks), interconnect links, and the
//!    page-migration engine.
//! 3. [`tierctl`] — the page-management substrate the tiering systems are
//!    assembled from: per-page access frequencies with cooling
//!    (`FreqTracker`), frequency-binned per-tier page lists (`TierBins`),
//!    TPP's page-table scanner (`RegionScanner`), and per-quantum
//!    migration budgets (`MigrationBudget`).
//! 4. [`colloid`] — the paper's contribution: per-tier access-latency
//!    measurement via Little's Law + EWMA, and the balancing-access-latencies
//!    page-placement algorithm (Algorithms 1 and 2).
//! 5. [`tiersys`] — HeMem, TPP, and MEMTIS reimplementations, each with a
//!    Colloid-integrated variant.
//! 6. [`workloads`] — GUPS, the memory antagonist, and the three
//!    application-shaped workloads (GAPBS PageRank, Silo YCSB-C, CacheLib).
//! 7. [`tenancy`] — multi-tenant colocation on one machine: tenants with
//!    their own workloads, tiering systems and SLOs, admission hooks, and
//!    the QoS arbiter that gates the shared migration engine.
//! 8. [`experiments`] — the evaluation harness that regenerates every figure
//!    of the paper.

pub use colloid;
pub use experiments;
pub use memsim;
pub use simkit;
pub use telemetry;
pub use tenancy;
pub use tierctl;
pub use tiersys;
pub use workloads;
