//! Transactional-migration matrix (`grid migration`): the migration
//! engine's exclusive mode vs its multi-channel transactional mode under
//! migration-hostile stress.
//!
//! Each cell runs the §2.1 GUPS machine (HeMem+Colloid) through a
//! contention jump (2× → 3× antagonists) that re-creates Figure 9's
//! migration demand, then measures the arrival-weighted application
//! access latency over the post-jump window while one of three stresses
//! targets the migration path:
//!
//! - **baseline** — no faults; the modes differ only in shape (one
//!   paced channel vs four channels with batched shootdowns);
//! - **write-storm** — a [`memsim::WriteConflictStorm`] dirties in-flight
//!   copy transactions: a first window forces dirty-retry-then-commit, a
//!   second forces retry exhaustion and clean aborts. The storm only has
//!   teeth against the transactional mode (the exclusive mode has no
//!   validate step), so the comparison shows what the Nomad-style
//!   non-exclusive copy costs — and that write-hot pages abort instead of
//!   ping-ponging while read-mostly pages keep migrating;
//! - **channel-stall** — one DMA channel freezes mid-run; the watchdog
//!   must fail its transactions over to healthy channels.
//!
//! The `--smoke` gates, with the driver's invariant gate, assert the
//! engine's robustness story: page conservation across induced aborts
//! and failovers, double-entry reconciliation between per-tick transaction
//! deltas and the engine's cumulative counters, the read-mostly win —
//! under the write storm the transactional mode's app latency stays at
//! or below the exclusive mode's — and that the faults the exclusive mode
//! ignores leave its cells equal to its baseline.
//!
//! Not a paper figure; see EXPERIMENTS.md ("Transactional migration") for
//! recorded results and DESIGN.md §13 for the engine design.

use memsim::{
    ChannelStall, FaultPlan, MigrationCounters, TierId, TrafficClass, TxnTickStats,
    WriteConflictStorm,
};
use simkit::SimTime;
use tiersys::SystemKind;

use crate::grid::{Bench, Ctx, EndState, Harness, Opts};
use crate::report::{mops, ns, txn_counts, Table};
use crate::scenario::{build_gups, Experiment, GupsScenario, Policy};

/// Contention intensity before the jump (matches the degradation matrix).
pub const MATRIX_INTENSITY: usize = 2;

/// Antagonist cores after the jump (3×).
pub const JUMP_CORES: usize = 15;

/// Fraction of the page-number space the write storm treats as write-hot.
pub const STORM_HOT_FRACTION: f64 = 0.3;

/// The two engine modes under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The single-channel exclusive mode (the default engine config).
    Exclusive,
    /// The multi-channel transactional mode
    /// ([`memsim::MigrationEngineConfig::transactional`]).
    Transactional,
}

impl EngineKind {
    /// Both engines.
    pub const ALL: [EngineKind; 2] = [EngineKind::Exclusive, EngineKind::Transactional];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Exclusive => "exclusive",
            EngineKind::Transactional => "transactional",
        }
    }
}

/// The three migration-path stresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stress {
    /// No injected faults.
    Baseline,
    /// Write-conflict storm over the whole post-jump window: the first
    /// half dirties each transaction once (retry-then-commit), the second
    /// half dirties past the retry cap (clean abort).
    WriteStorm,
    /// Channel 0 repeatedly stalls mid-burst after the jump; each stall
    /// outlasts several watchdog periods.
    ChannelStall,
}

impl Stress {
    /// All stresses.
    pub const ALL: [Stress; 3] = [Stress::Baseline, Stress::WriteStorm, Stress::ChannelStall];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Stress::Baseline => "baseline",
            Stress::WriteStorm => "write-storm",
            Stress::ChannelStall => "channel-stall",
        }
    }

    /// Tick index of the contention jump (stress onset).
    pub fn stress_tick(self, quick: bool) -> usize {
        if quick {
            150
        } else {
            250
        }
    }

    /// Total timeline length in ticks.
    pub fn run_ticks(self, quick: bool) -> usize {
        if quick {
            300
        } else {
            500
        }
    }

    /// The fault plan, anchored at the machine tick duration. Past the
    /// engine's `dirty_retry_max` of 3, `dirties_per_txn: 8` forces the
    /// abort path in the storm's second window.
    pub fn plan(self, tick: SimTime, quick: bool) -> FaultPlan {
        let start = tick * self.stress_tick(quick) as u64;
        let end = tick * self.run_ticks(quick) as u64;
        let mid = start + (end.saturating_sub(start)) / 2;
        match self {
            Stress::Baseline => FaultPlan::none(),
            Stress::WriteStorm => FaultPlan {
                write_conflict_storms: vec![
                    WriteConflictStorm {
                        start,
                        end: mid,
                        hot_fraction: STORM_HOT_FRACTION,
                        dirties_per_txn: 1,
                    },
                    WriteConflictStorm {
                        start: mid,
                        end,
                        hot_fraction: STORM_HOT_FRACTION,
                        dirties_per_txn: 8,
                    },
                ],
                ..FaultPlan::none()
            },
            Stress::ChannelStall => FaultPlan {
                // A comb of stalls rather than one window: each opens a
                // hair past a tick boundary — while channel 0 is still
                // chewing through the migration batch enqueued at that
                // boundary — and lasts several watchdog periods, so a
                // caught transaction must fail over rather than ride the
                // stall out. The comb spans the hot-set discovery burst
                // and the contention jump, the two migration-heavy
                // stretches of the run.
                // Stalls sit 20 ticks apart so the channel rejoins the
                // rotation (and is busy again) before the next onset, and
                // the onset offset sweeps the first microseconds past the
                // boundary — where the batch enqueued at that boundary is
                // still copying — so successive stalls sample different
                // phases of the copy/commit cycle.
                channel_stalls: (0..14)
                    .map(|i| {
                        let at = tick * (2 + i * 20) + SimTime::from_us(2.0 + (i % 7) as f64);
                        ChannelStall {
                            channel: 0,
                            start: at,
                            end: at + SimTime::from_us(290.0),
                        }
                    })
                    .collect(),
                ..FaultPlan::none()
            },
        }
    }

    /// The GUPS scenario carrying this stress for the given engine.
    pub fn scenario(self, engine: EngineKind, tick: SimTime, quick: bool) -> GupsScenario {
        let mut sc = GupsScenario::intensity(MATRIX_INTENSITY);
        let at = tick * self.stress_tick(quick) as u64;
        sc.antagonist_change = Some((at, JUMP_CORES));
        sc.faults = self.plan(tick, quick);
        if engine == EngineKind::Transactional {
            sc.engine = memsim::MigrationEngineConfig::transactional();
        }
        sc
    }
}

/// One (engine × stress) cell.
#[derive(Debug, Clone)]
pub struct MigrationCell {
    /// Display name, `"<engine> / <stress>"`.
    pub name: String,
    /// The engine under test.
    pub engine: EngineKind,
    /// The injected stress.
    pub stress: Stress,
    /// Application throughput over the post-jump window.
    pub ops_per_sec: f64,
    /// Arrival-weighted mean app access latency over the post-jump
    /// window, ns.
    pub post_latency_ns: Option<f64>,
    /// Cumulative migration-engine counters at the end of the run.
    pub counters: MigrationCounters,
    /// Sum of the per-tick transaction deltas over the whole run — the
    /// other side of the double-entry ledger the smoke gate reconciles
    /// against `counters`.
    pub tick_sums: TxnTickStats,
    /// Injected-fault counters (storm dirties land here).
    pub fault_stats: memsim::FaultStats,
    /// End state over the working set.
    pub end: EndState,
}

/// Builds one cell's experiment (HeMem+Colloid on the §2.1 machine).
pub fn build_cell(engine: EngineKind, stress: Stress, quick: bool) -> Experiment {
    let tick = SimTime::from_us(100.0);
    let sc = stress.scenario(engine, tick, quick);
    let exp = build_gups(
        &sc,
        Policy::System {
            kind: SystemKind::Hemem,
            colloid: true,
        },
    );
    exp.machine
        .validate_fault_feasibility()
        .expect("migration-matrix fault plan must be feasible");
    exp
}

/// Runs one cell end to end, accumulating both sides of the accounting
/// ledger tick by tick.
pub fn run_cell(engine: EngineKind, stress: Stress, quick: bool) -> MigrationCell {
    let mut exp = build_cell(engine, stress, quick);
    let tick = exp.tick;
    let sc = stress.scenario(engine, tick, quick);
    let ws = sc.gups_config().ws_range();
    let stress_tick = stress.stress_tick(quick);
    let app = TrafficClass::App.index();

    let mut sums = TxnTickStats::default();
    let mut fault_stats = memsim::FaultStats::default();
    let mut weighted = 0.0f64;
    let mut bytes = 0.0f64;
    let mut ops = 0u64;
    let mut post_start = SimTime::ZERO;
    for i in 0..stress.run_ticks(quick) {
        if i == stress_tick {
            post_start = exp.machine.now();
        }
        let report = exp.step();
        let t = &report.txn;
        sums.begun += t.begun;
        sums.committed += t.committed;
        sums.aborted_write_conflict += t.aborted_write_conflict;
        sums.aborted_watchdog += t.aborted_watchdog;
        sums.dirty_retries += t.dirty_retries;
        sums.failovers += t.failovers;
        sums.commit_batches += t.commit_batches;
        fault_stats.absorb(&report.fault_stats);
        if i >= stress_tick {
            ops += report.app_ops;
            for (ti, w) in report.tiers.iter().enumerate() {
                if let Some(l) = report.littles_latency_ns(TierId(ti as u8)) {
                    weighted += l * w.bytes_by_class[app] as f64;
                    bytes += w.bytes_by_class[app] as f64;
                }
            }
        }
    }
    let dur = exp.machine.now().saturating_sub(post_start);
    MigrationCell {
        name: format!("{} / {}", engine.label(), stress.label()),
        engine,
        stress,
        ops_per_sec: if dur.as_secs() > 0.0 {
            ops as f64 / dur.as_secs()
        } else {
            0.0
        },
        post_latency_ns: (bytes > 0.0).then(|| weighted / bytes),
        counters: exp.machine.migration_counters(),
        tick_sums: sums,
        fault_stats,
        end: EndState::of(&exp.machine, &[(&*exp.system, ws)]),
    }
}

/// Formats the matrix as the experiment's report table.
pub fn render(cells: &[MigrationCell]) -> String {
    let mut t = Table::new(vec![
        "engine / stress",
        "Mops/s",
        "post-lat (ns)",
        "mig c/a/r/f/b",
        "storm dirties",
        "pages",
    ]);
    for c in cells {
        t.row(vec![
            c.name.clone(),
            mops(c.ops_per_sec),
            ns(c.post_latency_ns),
            txn_counts(&c.counters),
            format!("{}", c.fault_stats.storm_dirties),
            format!("{}/{}", c.end.resident, c.end.expected),
        ]);
    }
    t.render()
}

fn cell(cells: &[MigrationCell], engine: EngineKind, stress: Stress) -> &MigrationCell {
    cells
        .iter()
        .find(|c| c.engine == engine && c.stress == stress)
        .expect("matrix must contain every (engine, stress) cell")
}

/// The harness's own `--smoke` gates (page conservation and the
/// shootdown-batch ledger are the driver's). Returns the failures
/// (empty = pass):
///
/// 1. double-entry reconciliation — the sum of per-tick transaction
///    deltas matches the engine's cumulative counters field by field;
/// 2. the storm bites — the transactional write-storm cell records storm
///    dirties, dirty retries, *and* retry-exhaustion aborts, yet still
///    commits migrations (read-mostly pages keep flowing);
/// 3. the stall bites — the transactional channel-stall cell records
///    watchdog failovers;
/// 4. the read-mostly win — under the write storm the transactional
///    engine's post-jump app latency is at or below the exclusive
///    engine's (5 % tolerance): non-exclusive copies keep migration off
///    the app's critical path even while write-hot pages conflict;
/// 5. ignored faults change nothing — the exclusive mode ignores write
///    storms and channel stalls, so its write-storm and channel-stall
///    cells equal its baseline cell in throughput, post-jump latency,
///    migration counters and fault counters.
pub fn smoke_failures(cells: &[MigrationCell]) -> Vec<String> {
    let mut fails = Vec::new();
    for c in cells {
        let m = &c.counters;
        let s = &c.tick_sums;
        for (label, delta_sum, cumulative) in [
            ("begun", s.begun, m.started),
            ("committed", s.committed, m.completed),
            (
                "aborted_write_conflict",
                s.aborted_write_conflict,
                m.aborted_write_conflict,
            ),
            ("aborted_watchdog", s.aborted_watchdog, m.aborted_watchdog),
            ("dirty_retries", s.dirty_retries, m.dirty_retries),
            ("failovers", s.failovers, m.failovers),
            ("commit_batches", s.commit_batches, m.commit_batches),
        ] {
            if delta_sum != cumulative {
                fails.push(format!(
                    "{}: per-tick {label} deltas sum to {delta_sum} but the \
                     cumulative counter says {cumulative} (accounting leak)",
                    c.name
                ));
            }
        }
    }
    let storm = cell(cells, EngineKind::Transactional, Stress::WriteStorm);
    if storm.fault_stats.storm_dirties == 0 {
        fails.push("write-storm cell injected no storm dirties".into());
    }
    if storm.counters.dirty_retries == 0 || storm.counters.aborted_write_conflict == 0 {
        fails.push(format!(
            "write-storm cell must exercise both retry and abort paths \
             (retries {}, aborts {})",
            storm.counters.dirty_retries, storm.counters.aborted_write_conflict
        ));
    }
    if storm.counters.completed == 0 {
        fails.push("write-storm cell committed nothing: read-mostly pages stopped flowing".into());
    }
    let stall = cell(cells, EngineKind::Transactional, Stress::ChannelStall);
    if stall.counters.failovers == 0 {
        fails.push("channel-stall cell recorded no watchdog failovers".into());
    }
    let excl_storm = cell(cells, EngineKind::Exclusive, Stress::WriteStorm);
    match (storm.post_latency_ns, excl_storm.post_latency_ns) {
        (Some(txn), Some(excl)) => {
            if txn > excl * 1.05 {
                fails.push(format!(
                    "under the write storm the transactional engine's app latency \
                     ({txn:.1} ns) exceeds the exclusive engine's ({excl:.1} ns)"
                ));
            }
        }
        _ => fails.push("write-storm cells saw no app traffic in the post-jump window".into()),
    }
    let excl = cell(cells, EngineKind::Exclusive, Stress::Baseline);
    let shape = |c: &MigrationCell| (c.ops_per_sec, c.post_latency_ns, c.counters, c.fault_stats);
    for stress in [Stress::WriteStorm, Stress::ChannelStall] {
        let c = cell(cells, EngineKind::Exclusive, stress);
        if shape(c) != shape(excl) {
            fails.push(format!(
                "{} differs from {}, yet the exclusive mode ignores its faults",
                c.name, excl.name
            ));
        }
    }
    fails
}

/// The transactional-migration matrix (`grid migration`), stress-major
/// with the exclusive engine first.
pub struct Matrix(pub Opts);

impl Harness for Matrix {
    type Cell = (Stress, EngineKind);
    type Outcome = MigrationCell;

    fn cells(&self) -> Vec<(String, Self::Cell)> {
        let mut cells = Vec::new();
        for stress in Stress::ALL {
            for engine in EngineKind::ALL {
                let label = format!("{} / {}", engine.label(), stress.label());
                cells.push((label, (stress, engine)));
            }
        }
        cells
    }

    fn run(&self, &(stress, engine): &Self::Cell) -> MigrationCell {
        run_cell(engine, stress, self.0.quick)
    }

    fn end_state(outcome: &MigrationCell) -> &EndState {
        &outcome.end
    }

    fn finish(&mut self, results: Vec<(Self::Cell, MigrationCell)>, ctx: &mut Ctx) -> Vec<String> {
        let cells: Vec<MigrationCell> = results.into_iter().map(|(_, c)| c).collect();
        if self.0.smoke {
            ctx.failures.extend(smoke_failures(&cells));
        }
        vec![format!(
            "== Transactional vs exclusive migration under stress (GUPS @ 2x -> 3x, HeMem+Colloid) ==\n\n{}\n",
            render(&cells)
        )]
    }

    /// Both engines under the baseline and write-storm stresses. The
    /// transaction ledger fields pin the conflict/retry trajectory
    /// exactly; wall-clock tracks the engines' real cost across PRs.
    fn bench(&self) -> Option<Bench<Self::Cell>> {
        Some(Bench {
            scenario: "gups 2x->3x, baseline + write-storm (quick axis)".into(),
            ticks: Stress::WriteStorm.run_ticks(true),
            pinned: |&(stress, _)| stress != Stress::ChannelStall,
        })
    }

    fn bench_fields(&self, c: &MigrationCell) -> Vec<(&'static str, f64)> {
        vec![
            ("post_latency_ns", c.post_latency_ns.unwrap_or(f64::NAN)),
            ("mops_per_sec", c.ops_per_sec / 1e6),
            ("completed", c.counters.completed as f64),
            ("dirty_retries", c.counters.dirty_retries as f64),
            ("failovers", c.counters.failovers as f64),
            ("pages_mapped", c.end.resident as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_stress_plan_validates() {
        let tick = SimTime::from_us(100.0);
        for stress in Stress::ALL {
            for quick in [false, true] {
                stress.plan(tick, quick).validate().unwrap();
                assert!(stress.stress_tick(quick) < stress.run_ticks(quick));
            }
        }
    }

    #[test]
    fn scenarios_wire_engine_and_faults() {
        let tick = SimTime::from_us(100.0);
        let sc = Stress::WriteStorm.scenario(EngineKind::Transactional, tick, true);
        assert!(sc.engine.transactional);
        assert_eq!(sc.faults.write_conflict_storms.len(), 2);
        assert!(sc.antagonist_change.is_some());
        let sc = Stress::ChannelStall.scenario(EngineKind::Exclusive, tick, true);
        assert!(!sc.engine.transactional);
        // The stall comb: every window targets channel 0 and outlasts the
        // watchdog, so a transaction caught mid-copy must fail over.
        assert_eq!(sc.faults.channel_stalls.len(), 14);
        for s in &sc.faults.channel_stalls {
            assert_eq!(s.channel, 0);
            assert!(s.end - s.start > sc.engine.watchdog);
        }
    }

    #[test]
    fn cells_build_and_pass_feasibility() {
        for engine in EngineKind::ALL {
            for stress in Stress::ALL {
                let exp = build_cell(engine, stress, true);
                assert_eq!(
                    exp.machine.config().engine.transactional,
                    engine == EngineKind::Transactional
                );
            }
        }
    }

    #[test]
    fn smoke_gate_catches_a_cooked_ledger() {
        let blank = |engine: EngineKind, stress: Stress| MigrationCell {
            name: format!("{} / {}", engine.label(), stress.label()),
            engine,
            stress,
            ops_per_sec: 1.0,
            post_latency_ns: Some(100.0),
            counters: MigrationCounters::default(),
            tick_sums: TxnTickStats::default(),
            fault_stats: memsim::FaultStats::default(),
            end: EndState::default(),
        };
        let mut cells: Vec<MigrationCell> = Stress::ALL
            .into_iter()
            .flat_map(|s| EngineKind::ALL.into_iter().map(move |e| blank(e, s)))
            .collect();
        // An all-zero matrix trips the storm/stall liveness gates.
        let fails = smoke_failures(&cells);
        assert!(fails.iter().any(|f| f.contains("storm")));
        assert!(fails.iter().any(|f| f.contains("failover")));
        // A counter drift trips the reconciliation gate.
        cells[0].counters.completed = 7;
        let fails = smoke_failures(&cells);
        assert!(fails.iter().any(|f| f.contains("accounting leak")));
        // An exclusive cell that an ignored fault moved trips gate 5.
        cells[0].counters.completed = 0;
        cells[4].ops_per_sec = 2.0;
        let fails = smoke_failures(&cells);
        let moved: Vec<&String> = fails.iter().filter(|f| f.contains("ignores")).collect();
        assert_eq!(
            moved,
            [
                "exclusive / channel-stall differs from exclusive / baseline, \
              yet the exclusive mode ignores its faults"
            ]
        );
    }
}
