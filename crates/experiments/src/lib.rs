//! Evaluation harness: regenerates every figure of the Colloid paper.
//!
//! Structure:
//!
//! - [`scenario`] — assembles a [`memsim::Machine`], workload cores, and a
//!   tiering policy into a runnable experiment (GUPS §2.1, GAPBS PageRank,
//!   Silo YCSB-C, and CacheLib HeMemKV from §5.3).
//! - [`runner`] — drives an experiment tick by tick to steady state
//!   (adaptive convergence detection) and measures throughput, per-tier
//!   latencies and bandwidth splits; optionally records per-tick series for
//!   the convergence figures.
//! - [`oracle`] — the best-case baseline: manual placements of 0–100 %
//!   of the hot set in the default tier (10 % steps, the paper's `mbind`
//!   methodology) and the best of them.
//! - [`figures`] — one module per paper figure; each declares the
//!   simulations it needs and renders the same rows/series the paper
//!   reports. They run as grid harnesses: `grid figures` (Figures 1–11,
//!   each shared simulation once), `grid figN` and `grid ext`.
//! - [`report`] — plain-text table formatting.
//! - [`grid`] — the driver (binary `grid`) the figures and every harness
//!   below run under as `grid <name>`, with bench baselines
//!   ([`bench`](mod@bench)) and one invariant gate for every cell.
//! - [`robustness`] — the fault-injection matrix: throughput degradation
//!   of every system ± Colloid under graded counter/migration/PEBS fault
//!   intensities.
//! - [`degradation`] — the hard-fault matrix: tier shrink, permanent
//!   bandwidth collapse, and engine outages, each run with and without
//!   the [`tiersys::Supervisor`].
//! - [`multitier`] — the three-tier contention-shift grid (DESIGN.md §12).
//! - [`colocation`] — the multi-tenant colocation grid: 2–4 tenants with
//!   per-tenant sharded tiering systems on one machine, every system
//!   ± Colloid ± the [`tenancy`] QoS arbiter, scored on per-tenant p99,
//!   fast-tier share vs entitlement, and isolation vs a solo reference
//!   (DESIGN.md §15).
//! - [`migration`] — the transactional-migration matrix: the migration
//!   engine's exclusive mode vs its multi-channel transactional mode
//!   under write-conflict storms and channel stalls.
//! - [`gauntlet`] — the adaptivity gauntlet: every system ± Colloid ±
//!   supervisor, both migration-engine modes, against
//!   phase-shifting/diurnal/adversarial traces plus replayed NDJSON
//!   fixtures, scored on time-to-equilibrium, wasted migration, and
//!   worst-window tail latency, with a record → export → import → replay
//!   bit-identity proof (DESIGN.md §14).
//! - [`policy`] — the hotness-policy shoot-out: every
//!   [`tiersys::PolicyKind`] under every system's vanilla placement on
//!   gups/graph/kvcache/adaptive/scan traces, plus default-identity
//!   digests and the live mid-run policy-swap drill (DESIGN.md §17).
//! - [`timeline`] — the telemetry and causal-tracing demonstration: the
//!   Figure 9 contention shift, run once per policy with a
//!   [`telemetry::RingRecorder`] recording events and spans, exported as
//!   NDJSON + CSV and analysed for time-to-equilibrium, migration
//!   efficiency and latency inversions (DESIGN.md §10); the Colloid run
//!   and the fault-free quickstart also as chrome-`trace_event` JSON,
//!   folded stacks, the per-page provenance/blame report and the
//!   simulator's wall-clock profile (DESIGN.md §11).
//! - [`observe`] — the observatory's gates (DESIGN.md §16); its live
//!   dashboard is the `observe` binary.
//!
//! Every driver accepts a *quick* mode (fewer sweep points, shorter
//! warm-up); `grid` runs full mode by default and quick mode with
//! `--quick`.

pub mod bench;
pub mod colocation;
pub mod degradation;
pub mod figures;
pub mod gauntlet;
pub mod grid;
pub mod migration;
pub mod multitier;
pub mod observe;
pub mod oracle;
pub mod policy;
pub mod report;
pub mod robustness;
pub mod runner;
pub mod scenario;
pub mod timeline;

pub use oracle::OracleResult;
pub use runner::{run, RunConfig, RunResult, TickSample};
pub use scenario::{AppKind, Experiment, GupsScenario, Policy};
