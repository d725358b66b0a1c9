//! End-to-end N-tier experiment (`grid multitier`): a three-tier machine
//! — local DDR (~70 ns), CXL-attached DDR (~180 ns), far/pooled memory
//! (~350 ns), each behind its own bandwidth link — under the §2.1
//! contention shift, every tiering system vanilla vs +Colloid.
//!
//! The two-tier figures cannot exercise the Colloid controller's pair
//! selection (§3.1): with one adjacent pair, the chain degenerates to
//! Algorithm 1. This experiment is the N-tier integration surface. The working set
//! first-touch-fills the chain top-down so the hot set starts in *far*
//! memory, then an antagonist storms the local tier mid-run:
//!
//! - vanilla systems ratchet the hot set into the (now contended) local
//!   tier and leave the chain latency-inverted — local slower than CXL;
//! - Colloid's pairwise controllers move hot pages only in the
//!   latency-balancing direction along each adjacent pair, converging
//!   towards equal per-tier access latencies.
//!
//! Each cell runs through [`crate::runner::run`] with a fixed warm-up (the
//! pre-shift and convergence ticks) and reads every tier of the chain
//! from its [`crate::RunResult`].

use memsim::{CoreConfig, Machine, MachineConfig, TierId, TrafficClass, Vpn, PAGE_SIZE};
use simkit::SimTime;
use tiersys::{build_system, ColloidParams, SystemKind};
use workloads::{AntagonistConfig, AntagonistStream, GupsConfig, GupsStream};

use crate::grid::{Bench, Ctx, EndState, Harness, Opts};
use crate::report::{engine_suffix, Table};
use crate::runner::{run, RunConfig};
use crate::scenario::{fill_down, system_params, Experiment};

/// First page of the antagonist's pinned buffer.
const ANTAGONIST_BASE: Vpn = 0;
/// First page of the application's working set.
const APP_BASE: Vpn = 1024;

/// Shape of the three-tier contention-shift experiment.
#[derive(Debug, Clone)]
pub struct MultiTierScenario {
    /// Local-tier capacity in pages (the antagonist pins 128 of them).
    pub local_pages: u64,
    /// CXL-tier capacity in pages.
    pub cxl_pages: u64,
    /// Far-tier capacity in pages.
    pub far_pages: u64,
    /// Application working-set pages (first-touch fills the chain
    /// top-down, so the tail lands in far memory).
    pub ws_pages: u64,
    /// Hot-set pages.
    pub hot_pages: u64,
    /// Hot-set offset within the working set — past the local+CXL fill,
    /// so discovery starts from the bottom of the chain.
    pub hot_offset: u64,
    /// Application cores.
    pub app_cores: usize,
    /// Antagonist cores activated at the shift.
    pub antagonist_cores_after: usize,
    /// Ticks before the antagonist shift.
    pub warmup_ticks: usize,
    /// Ticks after the shift before measurement starts.
    pub converge_ticks: usize,
    /// Measurement window, in ticks.
    pub measure_ticks: usize,
    /// Root RNG seed.
    pub seed: u64,
}

impl MultiTierScenario {
    /// The default grid point; `quick` shrinks the time axis for CI.
    pub fn paper_default(quick: bool) -> Self {
        MultiTierScenario {
            local_pages: 1024,
            cxl_pages: 1536,
            far_pages: 8192,
            ws_pages: 4096,
            hot_pages: 768,
            hot_offset: 3072,
            app_cores: 8,
            antagonist_cores_after: 10,
            warmup_ticks: if quick { 300 } else { 900 },
            converge_ticks: if quick { 500 } else { 1500 },
            measure_ticks: if quick { 100 } else { 200 },
            seed: 0xC0_11_03,
        }
    }

    /// Working-set page range.
    pub fn ws_range(&self) -> std::ops::Range<Vpn> {
        APP_BASE..APP_BASE + self.ws_pages
    }
}

/// Steady-state observation of one tier at the end of a run.
#[derive(Debug, Clone, Copy)]
pub struct TierObservation {
    /// Mean Little's-law latency over the measurement window, `None` when
    /// the tier never carried traffic in the window.
    pub latency_ns: Option<f64>,
    /// Share of application bytes served by this tier.
    pub app_share: f64,
}

/// Result of one (system, colloid, engine) cell of the grid.
#[derive(Debug, Clone)]
pub struct MultiTierResult {
    /// Policy display name ("HeMem", "HeMem+Colloid", "HeMem \[txn\]", ...).
    pub system: String,
    /// Per-tier steady-state observations, tier 0 first.
    pub tiers: Vec<TierObservation>,
    /// Steady-state application throughput.
    pub ops_per_sec: f64,
    /// Cumulative migration-engine counters at the end of the run.
    pub migration: memsim::MigrationCounters,
    /// End state over the working set.
    pub end: EndState,
}

impl MultiTierResult {
    /// Largest relative latency gap across adjacent tier pairs that both
    /// carried traffic: `|l_i - l_{i+1}| / min(l_i, l_{i+1})`. Zero when
    /// fewer than two tiers were busy.
    pub fn max_adjacent_gap(&self) -> f64 {
        self.tiers
            .windows(2)
            .filter_map(|w| match (w[0].latency_ns, w[1].latency_ns) {
                (Some(u), Some(l)) => Some((u - l).abs() / u.min(l).max(1e-9)),
                _ => None,
            })
            .fold(0.0, f64::max)
    }

    /// Whether some adjacent pair is latency-inverted: a faster-by-design
    /// tier measuring more than 5% slower than its slower neighbour.
    pub fn inverted(&self) -> bool {
        self.tiers.windows(2).any(|w| {
            matches!(
                (w[0].latency_ns, w[1].latency_ns),
                (Some(u), Some(l)) if u > l * 1.05
            )
        })
    }
}

/// Builds the three-tier machine: the `cxl_three_tier` preset resized to
/// the scenario, the antagonist buffer pinned to the local tier, and the
/// working set first-touch-filled down the chain.
fn build_machine(sc: &MultiTierScenario, transactional: bool) -> (Machine, Vec<memsim::CoreId>) {
    let mut cfg = MachineConfig::cxl_three_tier();
    cfg.tiers[0].capacity_bytes = sc.local_pages * PAGE_SIZE;
    cfg.tiers[1].capacity_bytes = sc.cxl_pages * PAGE_SIZE;
    cfg.tiers[2].capacity_bytes = sc.far_pages * PAGE_SIZE;
    cfg.seed = sc.seed;
    if transactional {
        cfg.engine = memsim::MigrationEngineConfig::transactional();
    }
    cfg.validate().expect("three-tier preset must validate");
    let mut machine = Machine::new(cfg);

    // Antagonist buffer pinned to the local tier; all cores idle until the
    // scheduled shift.
    let buf = AntagonistConfig::paper_default(ANTAGONIST_BASE, 0);
    machine.place_range(buf.range(), TierId(0));
    for vpn in buf.range() {
        machine.pin(vpn);
    }
    let mut antagonist_ids = Vec::new();
    for i in 0..sc.antagonist_cores_after {
        let acfg = AntagonistConfig::paper_default(ANTAGONIST_BASE, i as u64);
        let id = machine.add_core(
            Box::new(AntagonistStream::new(acfg)),
            CoreConfig::antagonist_default(),
            TrafficClass::Antagonist,
        );
        machine.set_core_active(id, false);
        antagonist_ids.push(id);
    }

    // First-touch down the chain: local, then CXL, then far.
    fill_down(&mut machine, sc.ws_range(), 0);

    let gups = gups_config(sc);
    for _ in 0..sc.app_cores {
        machine.add_core(
            Box::new(GupsStream::new(gups.clone()).expect("valid GUPS config")),
            CoreConfig::app_default(),
            TrafficClass::App,
        );
    }
    (machine, antagonist_ids)
}

fn gups_config(sc: &MultiTierScenario) -> GupsConfig {
    let mut g = GupsConfig::paper_default(APP_BASE);
    g.ws_pages = sc.ws_pages;
    g.hot_pages = sc.hot_pages;
    g.hot_offset = sc.hot_offset;
    g.phases = Vec::new();
    g
}

/// Assembles one grid cell as a runnable [`Experiment`]. `transactional`
/// switches the migration engine from its exclusive mode to the
/// multi-channel transactional one.
pub fn build(
    sc: &MultiTierScenario,
    kind: SystemKind,
    colloid: bool,
    transactional: bool,
) -> Experiment {
    let (machine, antagonist_core_ids) = build_machine(sc, transactional);
    let params = system_params(
        &machine,
        vec![sc.ws_range()],
        colloid.then(ColloidParams::default),
    );
    assert_eq!(params.n_tiers(), 3);
    let system = build_system(kind, params);
    let tick = SimTime::from_us(100.0);
    let shift_at = tick * sc.warmup_ticks as u64;
    Experiment {
        machine,
        system,
        tick,
        antagonist_core_ids,
        antagonist_change: Some((shift_at, sc.antagonist_cores_after)),
        sink: telemetry::Sink::default(),
        schedule_markers: vec![(shift_at, "antagonist storm on the local tier".into())],
    }
}

/// Runs one grid cell to completion and measures every tier.
pub fn run_cell(
    sc: &MultiTierScenario,
    kind: SystemKind,
    colloid: bool,
    transactional: bool,
) -> MultiTierResult {
    let mut exp = build(sc, kind, colloid, transactional);
    let name = format!("{}{}", exp.system.name(), engine_suffix(transactional));
    let warmup = sc.warmup_ticks + sc.converge_ticks;
    let r = run(
        &mut exp,
        &RunConfig {
            min_warmup_ticks: warmup,
            max_warmup_ticks: warmup,
            measure_ticks: sc.measure_ticks,
            window: usize::MAX,
            tolerance: 0.0,
            collect_series: false,
        },
    );
    let tiers = r
        .latency_ns
        .iter()
        .zip(r.app_shares())
        .map(|(&latency_ns, app_share)| TierObservation {
            latency_ns,
            app_share,
        })
        .collect();
    MultiTierResult {
        system: name,
        tiers,
        ops_per_sec: r.ops_per_sec,
        migration: r.migration,
        end: EndState::of(&exp.machine, &[(&*exp.system, sc.ws_range())]),
    }
}

/// Formats the grid as the experiment's report table.
pub fn render(results: &[MultiTierResult]) -> String {
    let mut t = Table::new(vec![
        "system",
        "L0 (ns)",
        "L1 (ns)",
        "L2 (ns)",
        "max gap",
        "shares L0/L1/L2",
        "resident",
        "mig c/a/r/f/b",
        "Mops/s",
    ]);
    for r in results {
        let lat = |i: usize| {
            r.tiers[i]
                .latency_ns
                .map(|l| format!("{l:.0}"))
                .unwrap_or_else(|| "idle".into())
        };
        t.row(vec![
            r.system.clone(),
            lat(0),
            lat(1),
            lat(2),
            format!("{:.2}", r.max_adjacent_gap()),
            r.tiers
                .iter()
                .map(|x| format!("{:.0}%", x.app_share * 100.0))
                .collect::<Vec<_>>()
                .join("/"),
            format!("{}", r.end.resident),
            crate::report::txn_counts(&r.migration),
            format!("{:.1}", r.ops_per_sec / 1e6),
        ]);
    }
    t.render()
}

/// The harness's own `--smoke` gates (page conservation and the
/// transactional commit ledger are the driver's). Returns the failures
/// (empty = pass):
///
/// 1. the contention shift bites — at least one vanilla run ends with an
///    adjacent latency inversion (the paper's failure mode);
/// 2. Colloid balances — averaged across systems, the Colloid cells'
///    worst adjacent latency gap is strictly smaller than the vanilla
///    cells'.
pub fn smoke_failures(results: &[MultiTierResult]) -> Vec<String> {
    let mut fails = Vec::new();
    let (vanilla, colloid): (Vec<_>, Vec<_>) =
        results.iter().partition(|r| !r.system.contains("Colloid"));
    if !vanilla.iter().any(|r| r.inverted()) {
        fails
            .push("no vanilla run ends latency-inverted: the contention shift is toothless".into());
    }
    let mean = |rs: &[&MultiTierResult]| {
        rs.iter().map(|r| r.max_adjacent_gap()).sum::<f64>() / rs.len().max(1) as f64
    };
    let (gv, gc) = (mean(&vanilla), mean(&colloid));
    if gc >= gv {
        fails.push(format!(
            "Colloid does not balance the chain: mean max adjacent gap {gc:.2} (Colloid) vs {gv:.2} (vanilla)"
        ));
    }
    fails
}

/// The three-tier grid (`grid multitier`): three systems × {vanilla,
/// Colloid} × {exclusive, transactional engine}, in system order with the
/// vanilla-exclusive cell first.
pub struct Grid(pub Opts);

impl Harness for Grid {
    /// `(system, colloid, transactional)`.
    type Cell = (SystemKind, bool, bool);
    type Outcome = MultiTierResult;

    fn preamble(&mut self) -> Result<String, String> {
        let sc = MultiTierScenario::paper_default(self.0.quick);
        Ok(format!(
            "Three-tier contention shift: {} ws pages, hot {} @ +{}, antagonist -> {} cores after {} ticks{}\n",
            sc.ws_pages,
            sc.hot_pages,
            sc.hot_offset,
            sc.antagonist_cores_after,
            sc.warmup_ticks,
            if self.0.quick { " (quick)" } else { "" },
        ))
    }

    fn cells(&self) -> Vec<(String, Self::Cell)> {
        let mut cells = Vec::new();
        for kind in SystemKind::ALL {
            for colloid in [false, true] {
                let policy = crate::Policy::System { kind, colloid }.name();
                for transactional in [false, true] {
                    let label = format!("{policy}{}", engine_suffix(transactional));
                    cells.push((label, (kind, colloid, transactional)));
                }
            }
        }
        cells
    }

    fn run(&self, &(kind, colloid, transactional): &Self::Cell) -> MultiTierResult {
        let sc = MultiTierScenario::paper_default(self.0.quick);
        run_cell(&sc, kind, colloid, transactional)
    }

    fn end_state(outcome: &MultiTierResult) -> &EndState {
        &outcome.end
    }

    fn finish(
        &mut self,
        results: Vec<(Self::Cell, MultiTierResult)>,
        ctx: &mut Ctx,
    ) -> Vec<String> {
        let results: Vec<MultiTierResult> = results.into_iter().map(|(_, r)| r).collect();
        if self.0.smoke {
            ctx.failures.extend(smoke_failures(&results));
        }
        vec![render(&results)]
    }

    fn bench(&self) -> Option<Bench<Self::Cell>> {
        let sc = MultiTierScenario::paper_default(true);
        Some(Bench {
            scenario:
                "three-tier contention shift, HeMem vs HeMem+Colloid, exclusive engine (quick axis)"
                    .into(),
            ticks: sc.warmup_ticks + sc.converge_ticks + sc.measure_ticks,
            pinned: |&(kind, _, transactional)| kind == SystemKind::Hemem && !transactional,
        })
    }

    fn bench_fields(&self, r: &MultiTierResult) -> Vec<(&'static str, f64)> {
        const LATENCY: [&str; 3] = ["l0_ns", "l1_ns", "l2_ns"];
        const SHARE: [&str; 3] = ["share0", "share1", "share2"];
        let mut fields = Vec::new();
        for (i, t) in r.tiers.iter().enumerate() {
            fields.push((LATENCY[i], t.latency_ns.unwrap_or(f64::NAN)));
            fields.push((SHARE[i], t.app_share));
        }
        fields.extend([
            ("mops_per_sec", r.ops_per_sec / 1e6),
            ("completed", r.migration.completed as f64),
            ("resident_pages", r.end.resident as f64),
        ]);
        fields
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MultiTierScenario {
        MultiTierScenario {
            local_pages: 256,
            cxl_pages: 384,
            far_pages: 2048,
            ws_pages: 1024,
            hot_pages: 192,
            hot_offset: 768,
            app_cores: 4,
            antagonist_cores_after: 6,
            warmup_ticks: 40,
            converge_ticks: 60,
            measure_ticks: 30,
            seed: 7,
        }
    }

    #[test]
    fn build_selects_the_chain_driver_and_places_the_chain() {
        let sc = tiny();
        let exp = build(&sc, SystemKind::Hemem, true, false);
        assert_eq!(exp.system.name(), "HeMem+Colloid");
        assert_eq!(exp.machine.config().tiers.len(), 3);
        // First-touch reached the bottom tier and the hot set starts there.
        assert_eq!(exp.machine.tier_of(APP_BASE), Some(TierId(0)));
        assert_eq!(
            exp.machine.tier_of(APP_BASE + sc.hot_offset),
            Some(TierId(2))
        );
    }

    #[test]
    fn cells_conserve_pages_and_measure_every_tier() {
        let sc = tiny();
        let r = run_cell(&sc, SystemKind::Hemem, true, false);
        assert!(r.end.conserved());
        assert_eq!(r.end.expected, sc.ws_pages);
        assert_eq!(r.tiers.len(), 3);
        assert!(r.ops_per_sec > 0.0);
        let share: f64 = r.tiers.iter().map(|t| t.app_share).sum();
        assert!((share - 1.0).abs() < 1e-9, "shares sum to {share}");
    }

    #[test]
    fn transactional_cells_conserve_pages_and_reconcile() {
        let sc = tiny();
        let r = run_cell(&sc, SystemKind::Hemem, true, true);
        assert!(r.system.ends_with("[txn]"));
        assert!(r.end.violations(&r.system).is_empty());
        let m = &r.migration;
        assert!(m.completed > 0, "the chain driver should migrate pages");
        assert!(m.commit_batches <= m.completed);
    }

    #[test]
    fn gap_and_inversion_metrics() {
        let obs = |l: Option<f64>| TierObservation {
            latency_ns: l,
            app_share: 0.0,
        };
        let r = MultiTierResult {
            system: "x".into(),
            tiers: vec![obs(Some(300.0)), obs(Some(150.0)), obs(None)],
            ops_per_sec: 0.0,
            migration: memsim::MigrationCounters::default(),
            end: EndState::default(),
        };
        assert!(r.inverted());
        assert!((r.max_adjacent_gap() - 1.0).abs() < 1e-9);
        let balanced = MultiTierResult {
            system: "y".into(),
            tiers: vec![obs(Some(200.0)), obs(Some(200.0)), obs(Some(205.0))],
            ops_per_sec: 0.0,
            migration: memsim::MigrationCounters::default(),
            end: EndState::default(),
        };
        assert!(!balanced.inverted());
        assert!(balanced.max_adjacent_gap() < 0.05);
    }
}
