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
//! - [`oracle`] — the best-case baseline: sweeps manual placements of
//!   0–100 % of the hot set into the default tier (10 % steps, the paper's
//!   `mbind` methodology) and reports the best.
//! - [`figures`] — one driver per paper figure; each prints the same
//!   rows/series the paper reports and returns them as a string. The
//!   `all-figs` binary runs them all, or one with `--fig N`.
//! - [`report`] — plain-text table formatting.
//! - [`grid`] — the driver (binary `grid`) every harness below runs
//!   under as `grid <name>`, with bench baselines ([`bench`](mod@bench)) and one
//!   invariant gate for every cell.
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
//! - [`migration`] — the transactional-migration matrix: the exclusive
//!   legacy engine vs the multi-channel transactional engine under
//!   write-conflict storms and channel stalls.
//! - [`gauntlet`] — the adaptivity gauntlet: every system ± Colloid ±
//!   supervisor, both migration engines, against
//!   phase-shifting/diurnal/adversarial traces plus replayed NDJSON
//!   fixtures, scored on time-to-equilibrium, wasted migration, and
//!   worst-window tail latency, with a record → export → import → replay
//!   bit-identity proof (DESIGN.md §14).
//! - [`policy`] — the hotness-policy shoot-out: every
//!   [`tiersys::PolicyKind`] under every system's vanilla placement on
//!   gups/graph/kvcache/adaptive/scan traces, plus default-identity
//!   digests and the live mid-run policy-swap drill (DESIGN.md §17).
//! - [`timeline`] — the telemetry demonstration: the Figure 9 contention
//!   shift recorded end to end with a [`telemetry::RingRecorder`],
//!   exported as NDJSON + CSV, and analysed for time-to-equilibrium,
//!   migration efficiency, and latency inversions (DESIGN.md §10).
//! - [`trace`] — the causal-tracing demonstration: the contention shift
//!   with span tracing live, exported as chrome-`trace_event` JSON and
//!   folded stacks, plus the per-page provenance/blame report and the
//!   simulator's wall-clock profile (DESIGN.md §11).
//! - [`observe`] — the observatory's gates (DESIGN.md §16); its live
//!   dashboard is the `observe` binary.
//!
//! Every driver accepts a *quick* mode (fewer sweep points, shorter
//! warm-up) used by the Criterion benches; the binaries run full mode by
//! default and quick mode with `--quick` or `COLLOID_QUICK=1`.

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
pub mod trace;

pub use oracle::{best_case, OracleResult};
pub use runner::{run, RunConfig, RunResult, TickSample};
pub use scenario::{AppKind, Experiment, GupsScenario, Policy};

/// Whether quick mode was requested on the command line or environment.
pub fn quick_requested() -> bool {
    std::env::args().any(|a| a == "--quick")
        || std::env::var("COLLOID_QUICK")
            .map(|v| v != "0")
            .unwrap_or(false)
}
