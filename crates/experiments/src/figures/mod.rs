//! The paper's figures as grid harnesses.
//!
//! Each figure module declares the simulations it renders from as
//! [`Sim`] values and renders its text from their results; its
//! [`Figure`] pairs the two. [`Figures`] runs a list of figures as one
//! [`Harness`]: `grid figures` (Figures 1–11), `grid figN` (one figure)
//! and `grid ext` (the extended-version analyses). Equal [`Sim`] values
//! are one simulation, so each distinct one runs once, in first-use
//! order, under the grid's invariant gate, and a figure renders the same
//! text alone and in the full set. See DESIGN.md §4 for the figure →
//! module map and EXPERIMENTS.md for recorded paper-vs-measured results.

pub mod ext;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;

use std::ops::Range;

use memsim::Vpn;
use tiersys::tpp::{Tpp, TppConfig};
use tiersys::{build_system, ColloidParams, SystemKind};

use crate::grid::{Ctx, EndState, Harness, Opts};
use crate::oracle::OracleResult;
use crate::report::{ratio, Table};
use crate::runner::{run, RunConfig, RunResult};
use crate::scenario::{build_app, build_gups, build_gups_with_stream, system_params};
use crate::scenario::{AppKind, Experiment, GupsScenario, Policy};
use fig9::Dynamic;

/// One figure: the simulations it needs and its text.
#[derive(Clone, Copy)]
pub struct Figure {
    /// Its simulations, quick mode when `true` (repeats are harmless).
    pub sims: fn(bool) -> Vec<Sim>,
    /// Its text, rendered from the results of its simulations.
    pub render: fn(bool, &Runs) -> String,
}

/// Figures 1–11 in the paper's order (`grid figures`).
pub const PAPER: [Figure; 10] = [
    fig1::FIGURE,
    fig2::FIGURE,
    fig4::FIGURE,
    fig5::FIGURE,
    fig6::FIGURE,
    fig7::FIGURE,
    fig8::FIGURE,
    fig9::FIGURE,
    fig10::FIGURE,
    fig11::FIGURE,
];

/// A steady-state GUPS run (§2.1) under one tiering system. Figures set
/// the knobs they vary on top of [`Gups::new`]'s paper defaults, so two
/// figures that need the same run declare equal values.
#[derive(Debug, Clone, PartialEq)]
pub struct Gups {
    /// Contention intensity, 0–3×.
    pub intensity: usize,
    /// The tiering system.
    pub kind: SystemKind,
    /// Colloid's knobs, when Colloid is attached.
    pub colloid: Option<ColloidParams>,
    /// Alternate-tier unloaded latency over the default tier's (Figure 7).
    pub alt_latency_ratio: f64,
    /// GUPS object size in bytes (Figure 8).
    pub object_size: u32,
    /// Application cores.
    pub app_cores: usize,
    /// Fraction of GUPS updates that write.
    pub write_fraction: f64,
    /// TPP's configuration (only TPP runs read it).
    pub tpp: TppConfig,
    /// A fixed run length instead of the steady-state runner's.
    pub rc: Option<RunConfig>,
}

impl Gups {
    /// The §2.1 run at `intensity` under `kind` ± Colloid.
    pub fn new(intensity: usize, kind: SystemKind, colloid: bool) -> Self {
        let sc = GupsScenario::intensity(intensity);
        Gups {
            intensity,
            kind,
            colloid: colloid.then(ColloidParams::default),
            alt_latency_ratio: sc.alt_latency_ratio,
            object_size: sc.object_size,
            app_cores: sc.app_cores,
            write_fraction: sc.gups_config().write_fraction,
            tpp: TppConfig::default(),
            rc: None,
        }
    }

    /// The run under `policy`, which must be a tiering system.
    pub fn of(intensity: usize, policy: Policy) -> Self {
        let Policy::System { kind, colloid } = policy else {
            panic!("a GUPS figure run needs a tiering system, not {policy:?}");
        };
        Gups::new(intensity, kind, colloid)
    }
}

/// One simulation a figure renders from.
#[derive(Debug, Clone, PartialEq)]
pub enum Sim {
    /// A steady-state GUPS run.
    Gups(Gups),
    /// One best-case oracle point (§2.1): `hot` of the hot set pinned in
    /// the default tier at `intensity`.
    Oracle {
        /// Contention intensity.
        intensity: usize,
        /// Fraction of the hot set in the default tier.
        hot: f64,
    },
    /// One Figure 9 timeline.
    Timeline(Dynamic, Policy),
    /// One Figure 11 application run at an intensity.
    App(AppKind, usize, Policy),
}

impl Sim {
    /// Its name in progress lines and gate findings.
    pub(crate) fn label(&self) -> String {
        match self {
            Sim::Gups(g) => {
                // The knobs set away from the paper's defaults.
                let d = Gups::new(g.intensity, g.kind, g.colloid.is_some());
                let f = |x: &dyn std::fmt::Debug| format!("{x:?}");
                let knobs = [
                    ("alt-lat ", f(&g.alt_latency_ratio), f(&d.alt_latency_ratio)),
                    ("object bytes ", f(&g.object_size), f(&d.object_size)),
                    ("cores ", f(&g.app_cores), f(&d.app_cores)),
                    ("writes ", f(&g.write_fraction), f(&d.write_fraction)),
                    ("", f(&g.colloid), f(&d.colloid)),
                    ("", f(&g.tpp), f(&d.tpp)),
                    ("", f(&g.rc), f(&d.rc)),
                ];
                let (kind, colloid) = (g.kind, g.colloid.is_some());
                let name = Policy::System { kind, colloid }.name();
                let mut s = format!("{name} @ {}x", g.intensity);
                for (knob, set, _) in knobs.iter().filter(|k| k.1 != k.2) {
                    s.push_str(&format!(", {knob}{set}"));
                }
                s
            }
            Sim::Oracle { intensity, hot } => format!("oracle {:.0}% @ {intensity}x", hot * 100.0),
            Sim::Timeline(d, p) => format!("{} / {}", p.name(), d.label()),
            Sim::App(app, i, p) => format!("{} {} @ {i}x", app.name(), p.name()),
        }
    }

    /// Builds it (quick mode when `quick`): the experiment, the run
    /// configuration it runs under, and the pages its system manages.
    pub fn build(&self, quick: bool) -> (Experiment, RunConfig, Range<Vpn>) {
        match self {
            Sim::Gups(g) => {
                let mut sc = GupsScenario::intensity(g.intensity);
                sc.alt_latency_ratio = g.alt_latency_ratio;
                sc.object_size = g.object_size;
                sc.app_cores = g.app_cores;
                let mut gups = sc.gups_config();
                gups.write_fraction = g.write_fraction;
                let ws = gups.ws_range();
                let vanilla = Policy::System {
                    kind: g.kind,
                    colloid: false,
                };
                let mut exp = build_gups_with_stream(&sc, gups, vanilla);
                let params = system_params(&exp.machine, vec![ws.clone()], g.colloid);
                exp.system = match g.kind {
                    SystemKind::Tpp => Box::new(Tpp::new(params, g.tpp.clone())),
                    kind => build_system(kind, params),
                };
                (exp, g.rc.clone().unwrap_or(steady(quick)), ws)
            }
            &Sim::Oracle { intensity, hot } => {
                let sc = GupsScenario::intensity(intensity);
                let exp = build_gups(
                    &sc,
                    Policy::Static {
                        hot_default_fraction: hot,
                    },
                );
                let rc = RunConfig::static_placement();
                let rc = if quick { rc.quick() } else { rc };
                (exp, rc, sc.gups_config().ws_range())
            }
            &Sim::Timeline(dynamic, policy) => {
                // Ticks before the change; as many run after it.
                let pre = if quick { 150 } else { 300 };
                let sc = dynamic.scenario(pre);
                let exp = build_gups(&sc, policy);
                (
                    exp,
                    RunConfig::timeline(2 * pre),
                    sc.gups_config().ws_range(),
                )
            }
            &Sim::App(app, intensity, policy) => {
                let exp = build_app(app, intensity * 5, policy, 7);
                (exp, steady(quick), app.ws_range())
            }
        }
    }

    /// Runs it (quick mode when `quick`).
    pub fn run(&self, quick: bool) -> (RunResult, EndState) {
        let (mut exp, rc, ws) = self.build(quick);
        let result = run(&mut exp, &rc);
        (result, EndState::of(&exp.machine, &[(&*exp.system, ws)]))
    }
}

/// The steady-state runner's configuration (halved in quick mode).
fn steady(quick: bool) -> RunConfig {
    if quick {
        RunConfig::steady_state().quick()
    } else {
        RunConfig::steady_state()
    }
}

/// The results a figure renders from, looked up by simulation.
pub struct Runs {
    quick: bool,
    results: Vec<(Sim, RunResult)>,
}

impl Runs {
    /// The result of `sim`.
    ///
    /// # Panics
    ///
    /// Panics if no figure declared `sim`.
    pub fn get(&self, sim: &Sim) -> &RunResult {
        let found = self.results.iter().find(|(s, _)| s == sim);
        &found
            .unwrap_or_else(|| panic!("{sim:?} was not declared"))
            .1
    }

    /// The result of the GUPS run `g`.
    pub fn gups(&self, g: Gups) -> &RunResult {
        self.get(&Sim::Gups(g))
    }

    /// A table of `cell` per intensity: the best case's row, then one row
    /// per system policy.
    fn vs_best(&self, policies: &[Policy], cell: impl Fn(&RunResult) -> String) -> String {
        let is = intensities(self.quick);
        let mut t = intensity_table("policy", &is);
        t.row(intensity_row("best-case", &is, |i| {
            cell(self.oracle(i).best_result())
        }));
        for &p in policies {
            t.row(intensity_row(p.name(), &is, |i| {
                cell(self.gups(Gups::of(i, p)))
            }));
        }
        t.render()
    }

    /// The best-case oracle at `intensity`: the best of its sweep points.
    pub fn oracle(&self, intensity: usize) -> OracleResult {
        OracleResult::new(
            oracle_points(self.quick)
                .into_iter()
                .map(|hot| (hot, self.get(&Sim::Oracle { intensity, hot }).clone()))
                .collect(),
        )
    }
}

/// A list of figures as one grid harness: its cells are the distinct
/// simulations of every figure, in first-use order, and its score tables
/// are the figures' texts, each followed by a blank line.
pub struct Figures(pub Opts, pub Vec<Figure>);

impl Harness for Figures {
    type Cell = Sim;
    type Outcome = (RunResult, EndState);

    fn cells(&self) -> Vec<(String, Sim)> {
        let mut cells: Vec<(String, Sim)> = Vec::new();
        for sim in self.1.iter().flat_map(|f| (f.sims)(self.0.quick)) {
            if cells.iter().all(|(_, s)| *s != sim) {
                cells.push((sim.label(), sim));
            }
        }
        cells
    }

    fn run(&self, sim: &Sim) -> Self::Outcome {
        sim.run(self.0.quick)
    }

    fn end_state(outcome: &Self::Outcome) -> &EndState {
        &outcome.1
    }

    fn finish(&mut self, results: Vec<(Sim, Self::Outcome)>, _: &mut Ctx) -> Vec<String> {
        let runs = Runs {
            quick: self.0.quick,
            results: results.into_iter().map(|(s, (r, _))| (s, r)).collect(),
        };
        let render = |f: &Figure| format!("{}\n", (f.render)(self.0.quick, &runs));
        self.1.iter().map(render).collect()
    }
}

/// Contention intensities of the GUPS and application sweeps.
fn intensities(quick: bool) -> Vec<usize> {
    if quick {
        vec![0, 3]
    } else {
        vec![0, 1, 2, 3]
    }
}

/// Hot-set fractions of the oracle sweep: the paper's 0–100 % in 10 %
/// steps, or quarters in quick mode.
fn oracle_points(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.0, 0.25, 0.5, 0.75, 1.0]
    } else {
        (0..=10).map(|i| i as f64 / 10.0).collect()
    }
}

/// The §2.1 sweep Figures 1, 2, 5 and 6 share: at each intensity, the
/// oracle points and `policies`.
fn sweep(quick: bool, policies: &[Policy]) -> Vec<Sim> {
    let mut sims = Vec::new();
    for i in intensities(quick) {
        sims.extend(
            oracle_points(quick)
                .into_iter()
                .map(|hot| Sim::Oracle { intensity: i, hot }),
        );
        sims.extend(policies.iter().map(|&p| Sim::Gups(Gups::of(i, p))));
    }
    sims
}

/// The six system policies (three vanilla, three +Colloid).
fn all_system_policies() -> Vec<Policy> {
    SystemKind::ALL
        .into_iter()
        .flat_map(|kind| [false, true].map(|colloid| Policy::System { kind, colloid }))
        .collect()
}

/// The three systems, vanilla (`false`) or with Colloid (`true`).
fn system_policies(colloid: bool) -> Vec<Policy> {
    SystemKind::ALL
        .map(|kind| Policy::System { kind, colloid })
        .to_vec()
}

/// Intensity labels as the paper writes them.
fn intensity_label(i: usize) -> String {
    format!("{i}x")
}

/// A table whose columns after `first` are the intensities.
fn intensity_table(first: &str, intensities: &[usize]) -> Table {
    let labels: Vec<String> = intensities.iter().map(|&i| intensity_label(i)).collect();
    let mut headers = vec![first];
    headers.extend(labels.iter().map(String::as_str));
    Table::new(headers)
}

/// One row of an [`intensity_table`]: `label`, then `cell` at each
/// intensity.
fn intensity_row(
    label: impl Into<String>,
    intensities: &[usize],
    cell: impl Fn(usize) -> String,
) -> Vec<String> {
    std::iter::once(label.into())
        .chain(intensities.iter().map(|&i| cell(i)))
        .collect()
}

/// Colloid's speedup heatmaps (Figures 7 and 8): per system, one row per
/// `(label, variant)`, one column per intensity, each cell the throughput
/// with Colloid over without. A variant is a [`Gups`] whose intensity and
/// system the heatmap sets.
struct Heatmaps {
    /// Title line.
    title: &'static str,
    /// Header of the row-label column.
    header: &'static str,
    /// The rows.
    rows: Vec<(String, Gups)>,
}

impl Heatmaps {
    /// The cell at `intensity` under `kind` ± Colloid of `variant`.
    fn cell(variant: &Gups, intensity: usize, kind: SystemKind, colloid: bool) -> Gups {
        Gups {
            intensity,
            kind,
            colloid: colloid.then(ColloidParams::default),
            ..variant.clone()
        }
    }

    /// Every run of the heatmaps.
    fn sims(&self, quick: bool) -> Vec<Sim> {
        let mut sims = Vec::new();
        for kind in SystemKind::ALL {
            for (_, variant) in &self.rows {
                for i in intensities(quick) {
                    for colloid in [false, true] {
                        sims.push(Sim::Gups(Self::cell(variant, i, kind, colloid)));
                    }
                }
            }
        }
        sims
    }

    /// The heatmaps' text.
    fn render(&self, quick: bool, runs: &Runs) -> String {
        let is = intensities(quick);
        let mut out = format!("{}\n", self.title);
        for kind in SystemKind::ALL {
            out.push_str(&format!("\n-- {} --\n", kind.name()));
            let mut t = intensity_table(self.header, &is);
            for (label, variant) in &self.rows {
                t.row(intensity_row(label, &is, |i| {
                    let ops =
                        |colloid| runs.gups(Self::cell(variant, i, kind, colloid)).ops_per_sec;
                    ratio(ops(true) / ops(false).max(1.0))
                }));
            }
            out.push_str(&t.render());
        }
        out
    }
}
