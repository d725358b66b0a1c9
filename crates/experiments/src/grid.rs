//! The grid driver ([`main`], the `grid` binary): one mechanism behind
//! every experiment harness.
//!
//! A harness ([`Harness`]) declares its cells once and says how to run
//! one. The driver owns the rest: the serial cell loop, the
//! `--quick`/`--smoke`/`--bench`/`--regen` protocol and exit codes (0
//! pass, 1 a gate failed, 2 a usage or setup error), the `<name>_out/`
//! directory with its `scores.txt`, bench timing with `BENCH_<name>.json`
//! rendering and drift checking ([`crate::bench`]), and one invariant
//! gate ([`EndState::violations`]): every cell must end with all its
//! managed pages resident, with no violation of the machine's invariants
//! ([`Machine::check_invariants`]: pages, reservations and the copy
//! ledger against the page table and the copy queue), and with each
//! system's hotness policy tracking exactly the pages the system manages.
//! A failed or empty export fails the same gate.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

use memsim::{Machine, Vpn};
use tiersys::TieringSystem;

use crate::bench::{self, BenchCell};
use crate::figures::{self, ext, fig1, fig10, fig11, fig2, fig4, fig5, fig6, fig7, fig8, fig9};
use crate::figures::{Figure, Figures};
use crate::{colocation, degradation, gauntlet, migration, multitier, observe, policy};
use crate::{robustness, timeline};

/// End-of-cell state the invariant gate checks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EndState {
    /// Managed pages resident on some tier.
    pub resident: u64,
    /// Pages the cell manages.
    pub expected: u64,
    /// The machine's invariant violations, then each policy whose tracked
    /// set differs from the pages its system manages.
    pub broken: Vec<String>,
}

impl EndState {
    /// Reads `machine`'s end state with each of the cell's tiering systems
    /// and the pages it manages.
    pub fn of(machine: &Machine, systems: &[(&dyn TieringSystem, Range<Vpn>)]) -> Self {
        let mut broken: Vec<String> = machine
            .check_invariants()
            .iter()
            .map(ToString::to_string)
            .collect();
        for (system, range) in systems {
            let managed = range.end - range.start;
            // Static placement runs no policy, so it tracks nothing.
            if let Some(tracked) = system.policy_stats().map(|p| p.tracked) {
                if tracked != managed {
                    broken.push(format!(
                        "{}'s policy tracks {tracked} pages but the system manages {managed}",
                        system.name()
                    ));
                }
            }
        }
        let ranges = || systems.iter().map(|(_, r)| r.clone());
        EndState {
            resident: ranges()
                .flatten()
                .filter(|&v| machine.tier_of(v).is_some())
                .count() as u64,
            expected: ranges().map(|r| r.end - r.start).sum(),
            broken,
        }
    }

    /// Whether every managed page is resident.
    pub fn conserved(&self) -> bool {
        self.resident == self.expected
    }

    /// The invariant gate's findings for `cell` (empty = pass).
    pub fn violations(&self, cell: &str) -> Vec<String> {
        let lost = (!self.conserved()).then(|| {
            format!(
                "{} of {} managed pages resident (pages lost or duplicated)",
                self.resident, self.expected
            )
        });
        lost.iter()
            .chain(&self.broken)
            .map(|f| format!("{cell}: {f}"))
            .collect()
    }
}

/// Options a harness is built with.
#[derive(Debug, Clone, Default)]
pub struct Opts {
    /// Shortened runs (`--quick`).
    pub quick: bool,
    /// Evaluate the harness's own gates (`--smoke`).
    pub smoke: bool,
    /// A trace to replay in the gauntlet's fixture column (`--replay`).
    pub replay: Option<PathBuf>,
}

/// A harness's pinned bench cells: those of its quick-axis cells that
/// `pinned` selects, timed in run order.
pub struct Bench<C> {
    /// Scenario description recorded in the baseline.
    pub scenario: String,
    /// Ticks per cell recorded in the baseline.
    pub ticks: usize,
    /// Selects the pinned cells.
    pub pinned: fn(&C) -> bool,
}

/// The driver's side of one run: the artifact directory and the gate's
/// failures, to which a harness adds its own under `--smoke`.
#[derive(Default)]
pub struct Ctx {
    pub(crate) dir: PathBuf,
    pub(crate) failures: Vec<String>,
    checked: usize,
}

impl Ctx {
    /// Feeds one cell's end state to the invariant gate.
    pub fn check(&mut self, cell: &str, end: &EndState) {
        self.checked += 1;
        self.failures.extend(end.violations(cell));
    }

    /// Writes `file` into the artifact directory and returns its path for
    /// display. A failed write or an empty body fails the gate (`None`).
    pub fn export(&mut self, file: &str, body: &str) -> Option<String> {
        let path = self.dir.join(file);
        let written = if body.is_empty() {
            Err("nothing to write".to_string())
        } else {
            std::fs::create_dir_all(&self.dir)
                .and_then(|()| std::fs::write(&path, body))
                .map_err(|e| e.to_string())
        };
        let shown = path.display().to_string();
        match written {
            Ok(()) => Some(shown),
            Err(e) => {
                self.failures.push(format!("export {shown} failed: {e}"));
                None
            }
        }
    }
}

/// One experiment harness, as the driver sees it.
pub trait Harness {
    /// One point of the harness's axes.
    type Cell;
    /// What running one cell leaves behind.
    type Outcome;

    /// Text printed before the first cell, after any whole-harness work
    /// that must precede the cells. An error aborts the run (exit 2).
    fn preamble(&mut self) -> Result<String, String> {
        Ok(String::new())
    }
    /// Every cell in run order, with its name in progress lines, gate
    /// findings and baselines.
    fn cells(&self) -> Vec<(String, Self::Cell)>;
    /// Runs one cell.
    fn run(&self, cell: &Self::Cell) -> Self::Outcome;
    /// The end state the invariant gate checks.
    fn end_state(outcome: &Self::Outcome) -> &EndState;
    /// Turns every result into the score tables, in print order (together
    /// they are `scores.txt`). Exports go through `ctx`, and so do the
    /// failures of the harness's own gates under `--smoke`.
    fn finish(&mut self, results: Vec<(Self::Cell, Self::Outcome)>, ctx: &mut Ctx) -> Vec<String>;
    /// The pinned bench cells, if the harness keeps a `BENCH_<name>.json`.
    fn bench(&self) -> Option<Bench<Self::Cell>> {
        None
    }
    /// The deterministic fields of one bench cell.
    fn bench_fields(&self, _outcome: &Self::Outcome) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
    /// Rewrites the harness's committed golden artifacts (`--regen`) and
    /// says what it wrote.
    fn regen(&self) -> Result<String, String> {
        Err("nothing to regenerate".into())
    }
}

/// A harness with its cell and outcome types erased, so one registry
/// holds them all.
trait DynHarness {
    fn drive(&mut self, name: &str, ctx: &mut Ctx) -> Result<(), String>;
    fn has_bench(&self) -> bool;
    fn baseline(&mut self, name: &str) -> Option<String>;
    fn regen(&self) -> Result<String, String>;
}

impl<H: Harness> DynHarness for H {
    fn drive(&mut self, name: &str, ctx: &mut Ctx) -> Result<(), String> {
        print!("{}", self.preamble()?);
        let mut results = Vec::new();
        for (label, cell) in self.cells() {
            eprintln!("[{name}] {label} ...");
            let outcome = self.run(&cell);
            ctx.check(&label, H::end_state(&outcome));
            results.push((cell, outcome));
        }
        let tables = self.finish(results, ctx);
        let text = tables.concat();
        print!("{text}");
        if let Some(path) = ctx.export("scores.txt", &text) {
            let s = if tables.len() == 1 { "" } else { "s" };
            println!("score table{s} written to {path}");
        }
        Ok(())
    }

    fn has_bench(&self) -> bool {
        self.bench().is_some()
    }

    fn baseline(&mut self, name: &str) -> Option<String> {
        let spec = self.bench()?;
        let mut cells = Vec::new();
        for (name, cell) in self.cells().into_iter().filter(|(_, c)| (spec.pinned)(c)) {
            let t0 = Instant::now();
            let outcome = self.run(&cell);
            cells.push(BenchCell {
                name,
                wall_ms: t0.elapsed().as_secs_f64() * 1e3,
                metrics: self.bench_fields(&outcome),
            });
        }
        Some(bench::render(name, &spec.scenario, spec.ticks, &cells))
    }

    fn regen(&self) -> Result<String, String> {
        Harness::regen(self)
    }
}

type Entry = (&'static str, fn(Opts) -> Box<dyn DynHarness>);

/// Every harness by name, in CI order, then the figures one by one. The
/// name also names its `<name>_out/` directory and its `BENCH_<name>.json`.
static HARNESSES: [Entry; 21] = [
    ("robustness", |o| Box::new(robustness::Matrix(o))),
    ("degradation", |o| Box::new(degradation::Matrix(o))),
    ("multitier", |o| Box::new(multitier::Grid(o))),
    ("colocation", |o| Box::new(colocation::Grid(o))),
    ("migration", |o| Box::new(migration::Matrix(o))),
    ("gauntlet", |o| Box::new(gauntlet::Gauntlet::new(o))),
    ("policy", |o| Box::new(policy::ShootOut::new(o))),
    ("timeline", |o| Box::new(timeline::Timeline(o))),
    ("observe", |o| Box::new(observe::Observe(o))),
    ("figures", |o| figs(o, &figures::PAPER)),
    ("ext", |o| figs(o, &[ext::FIGURE])),
    ("fig1", |o| figs(o, &[fig1::FIGURE])),
    ("fig2", |o| figs(o, &[fig2::FIGURE])),
    ("fig4", |o| figs(o, &[fig4::FIGURE])),
    ("fig5", |o| figs(o, &[fig5::FIGURE])),
    ("fig6", |o| figs(o, &[fig6::FIGURE])),
    ("fig7", |o| figs(o, &[fig7::FIGURE])),
    ("fig8", |o| figs(o, &[fig8::FIGURE])),
    ("fig9", |o| figs(o, &[fig9::FIGURE])),
    ("fig10", |o| figs(o, &[fig10::FIGURE])),
    ("fig11", |o| figs(o, &[fig11::FIGURE])),
];

/// The harness that runs `list`'s figures.
fn figs(opts: Opts, list: &[Figure]) -> Box<dyn DynHarness> {
    Box::new(Figures(opts, list.to_vec()))
}

const USAGE: &str = "usage: grid <harness> [--quick] [--smoke] [--bench] [--regen] [--replay <path>]\n       grid --drift [harness]";

const QUICK: Opts = Opts {
    quick: true,
    smoke: false,
    replay: None,
};

/// The harnesses that pin bench cells.
fn benched() -> Vec<&'static Entry> {
    HARNESSES
        .iter()
        .filter(|(_, build)| build(QUICK).has_bench())
        .collect()
}

fn select(name: &str, valid: &[&'static Entry]) -> Result<&'static Entry, String> {
    let names: Vec<&str> = valid.iter().map(|(n, _)| *n).collect();
    let i = names.iter().position(|n| *n == name);
    i.map(|i| valid[i])
        .ok_or_else(|| format!("unknown harness {name:?}; valid: {}", names.join(", ")))
}

/// A parsed command line.
enum Cmd {
    /// Run the harness.
    Run(&'static Entry, Opts),
    /// Write the harness's bench baseline and stop (`--bench`).
    Bench(&'static Entry),
    /// Rewrite the harness's golden artifacts and stop (`--regen`).
    Regen(&'static Entry, Opts),
    /// Check the bench baselines, or only this one's, for drift
    /// (`--drift`).
    Drift(Option<&'static Entry>),
}

fn parse(args: &[String]) -> Result<Cmd, String> {
    let mut opts = Opts::default();
    let (mut bench, mut regen, mut drift, mut name) = (false, false, false, None);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--smoke" => opts.smoke = true,
            "--bench" => bench = true,
            "--regen" => regen = true,
            "--drift" => drift = true,
            "--replay" => opts.replay = Some(args.next().ok_or("--replay needs a path")?.into()),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            n if name.is_none() => name = Some(n),
            extra => return Err(format!("unexpected argument {extra}")),
        }
    }
    if drift {
        return name
            .map(|n| select(n, &benched()))
            .transpose()
            .map(Cmd::Drift);
    }
    let all: Vec<&Entry> = HARNESSES.iter().collect();
    let entry = select(name.unwrap_or(""), &all)?;
    Ok(match (regen, bench) {
        (true, _) => Cmd::Regen(entry, opts),
        (false, true) => Cmd::Bench(entry),
        (false, false) => Cmd::Run(entry, opts),
    })
}

/// The `grid` binary: runs one harness, writes its bench baseline or
/// its goldens, or checks the bench baselines for drift. Returns the
/// process exit code.
pub fn main(args: &[String]) -> i32 {
    let (&(name, build), opts) = match parse(args) {
        Ok(Cmd::Run(entry, opts)) => (entry, opts),
        Ok(Cmd::Bench(&(name, build))) => return write_baseline(name, build(QUICK)),
        Ok(Cmd::Regen(&(name, build), opts)) => {
            return match build(opts).regen() {
                Ok(wrote) => {
                    println!("{wrote}");
                    0
                }
                Err(e) => setup_error(format!("{name} --regen: {e}")),
            }
        }
        Ok(Cmd::Drift(only)) => return drift(only),
        Err(e) => return setup_error(format!("{e}\n{USAGE}")),
    };
    let smoke = opts.smoke;
    let dir = PathBuf::from(format!("{name}_out"));
    let mut ctx = Ctx {
        dir,
        ..Ctx::default()
    };
    match build(opts).drive(name, &mut ctx) {
        Ok(()) => verdict(&ctx, smoke),
        Err(e) => setup_error(format!("{name}: {e}")),
    }
}

fn setup_error(msg: String) -> i32 {
    eprintln!("grid: {msg}");
    2
}

fn verdict(ctx: &Ctx, smoke: bool) -> i32 {
    for f in &ctx.failures {
        eprintln!("FAIL: {f}");
    }
    if !ctx.failures.is_empty() {
        return 1;
    }
    println!("invariant gate: {} cells ok", ctx.checked);
    if smoke {
        println!("smoke: ok");
    }
    0
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Writes `name`'s `BENCH_<name>.json` at the repo root, where `--drift`
/// reads it.
fn write_baseline(name: &str, mut harness: Box<dyn DynHarness>) -> i32 {
    let path = repo_root().join(format!("BENCH_{name}.json"));
    let Some(json) = harness.baseline(name) else {
        return setup_error(format!("{name}: no bench cells to time"));
    };
    match std::fs::write(&path, json) {
        Ok(()) => {
            println!("bench baseline written to {}", path.display());
            0
        }
        Err(e) => setup_error(format!("{name}: cannot write {}: {e}", path.display())),
    }
}

/// Regenerates each declared `BENCH_<name>.json` (or only `only`'s) and
/// compares it with the committed file. The simulator is deterministic,
/// so every field but wall-clock must match exactly; wall-clock is shown
/// for trend reading and never gates. Exit 1 on drift, 2 on an
/// unreadable baseline.
fn drift(only: Option<&Entry>) -> i32 {
    let mut fails = Vec::new();
    for &(name, build) in benched()
        .into_iter()
        .filter(|e| only.is_none_or(|o| o.0 == e.0))
    {
        let file = format!("BENCH_{name}.json");
        let path = repo_root().join(&file);
        let committed = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => return setup_error(format!("cannot read {}: {e}", path.display())),
        };
        println!("regenerating {name} baseline...");
        let t0 = Instant::now();
        let fresh = build(QUICK)
            .baseline(name)
            .expect("harness pins bench cells");
        let secs = t0.elapsed().as_secs_f64();
        println!("  fresh run took {secs:.1}s; comparing against {file}");
        let f = bench::drift_failures(name, &committed, &fresh);
        if f.is_empty() {
            println!("  {name}: no drift");
        }
        fails.extend(f);
    }
    for f in &fails {
        eprintln!("drift FAIL: {f}");
    }
    if !fails.is_empty() {
        return 1;
    }
    println!("bench-drift: ok");
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn misspelled_selectors_exit_2_and_list_the_valid_names() {
        let Err(e) = parse(&args(&["colocaton", "--quick", "--smoke"])) else {
            panic!("a misspelled harness must not parse");
        };
        assert!(HARNESSES.iter().all(|(n, _)| e.contains(n)), "{e}");
        let Err(e) = parse(&args(&["--drift", "colocaton"])) else {
            panic!("a misspelled --drift name must not parse");
        };
        assert!(
            e.ends_with("valid: multitier, colocation, migration, gauntlet, policy"),
            "{e}"
        );
        // A harness without bench cells is no drift selector either.
        assert!(parse(&args(&["--drift", "robustness"])).is_err());
        // Figure 3 has no harness; the error lists the figures too.
        let Err(e) = parse(&args(&["fig3"])) else {
            panic!("figure 3 has no harness");
        };
        assert!(
            e.contains(
                "figures, ext, fig1, fig2, fig4, fig5, fig6, fig7, fig8, fig9, fig10, fig11"
            ),
            "{e}"
        );
        for bad in [
            &["colocaton"][..],
            &["--drift", "colocaton"],
            &[],
            &["policy", "--x"],
        ] {
            assert_eq!(main(&args(bad)), 2, "{bad:?}");
        }
    }

    #[test]
    fn only_the_given_arguments_set_the_command() {
        let quick = |a: &[&str]| match parse(&args(a)) {
            Ok(Cmd::Run((name, _), opts)) if *name == "timeline" => opts.quick,
            _ => panic!("{a:?} must parse to a timeline run"),
        };
        assert!(!quick(&["timeline"]));
        assert!(quick(&["timeline", "--quick"]));
        // `--bench` only writes the baseline, whatever else is given.
        for a in [
            &["multitier", "--bench"][..],
            &["--bench", "--smoke", "multitier"],
        ] {
            assert!(
                matches!(parse(&args(a)), Ok(Cmd::Bench((name, _))) if *name == "multitier"),
                "{a:?}"
            );
        }
    }

    #[test]
    fn bench_files_match_the_harnesses_that_pin_bench_cells() {
        let committed: BTreeSet<String> = std::fs::read_dir(repo_root())
            .expect("repo root is readable")
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|f| f.starts_with("BENCH_") && f.ends_with(".json"))
            .collect();
        let declared = benched()
            .into_iter()
            .map(|(n, _)| format!("BENCH_{n}.json"));
        assert_eq!(committed, declared.collect());
    }

    #[test]
    fn end_states_hold_each_policy_to_the_pages_its_system_manages() {
        use memsim::{MachineConfig, TierId};
        use simkit::SimTime;
        use tiersys::{build_system, StaticPlacement, SystemKind, SystemParams};

        let mut m = Machine::new(MachineConfig::icelake_two_tier());
        m.place_range(0..96, TierId::ALTERNATE);
        let ws = 0..64;
        let mut hemem = build_system(SystemKind::Hemem, SystemParams::new(vec![ws.clone()], None));
        for _ in 0..3 {
            let report = m.run_tick(SimTime::from_us(100.0));
            hemem.on_tick(&mut m, &report);
        }
        let end = EndState::of(&m, &[(&*hemem, ws), (&StaticPlacement, 64..96)]);
        // Static placement runs no policy and is not held to a tracked set.
        assert_eq!(end.violations("cell"), Vec::<String>::new());
        let end = EndState::of(&m, &[(&*hemem, 0..32)]);
        assert_eq!(
            end.broken,
            ["HeMem's policy tracks 64 pages but the system manages 32"]
        );
    }

    /// Cells that are their own end states; the report exports one file.
    struct Toy(Vec<EndState>, &'static str);

    impl Harness for Toy {
        type Cell = usize;
        type Outcome = EndState;

        fn cells(&self) -> Vec<(String, usize)> {
            (0..self.0.len()).map(|i| (format!("toy/{i}"), i)).collect()
        }
        fn run(&self, cell: &usize) -> EndState {
            self.0[*cell].clone()
        }
        fn end_state(outcome: &EndState) -> &EndState {
            outcome
        }
        fn finish(&mut self, _: Vec<(usize, EndState)>, ctx: &mut Ctx) -> Vec<String> {
            ctx.export("extra.txt", self.1);
            vec!["toy table\n".into()]
        }
    }

    fn drive(mut toy: Toy, dir: &Path) -> (Vec<String>, i32) {
        let dir = dir.into();
        let mut ctx = Ctx {
            dir,
            ..Ctx::default()
        };
        toy.drive("toy", &mut ctx).expect("no preamble to fail");
        (ctx.failures.clone(), verdict(&ctx, true))
    }

    #[test]
    fn the_driver_gates_every_cell_and_every_export() {
        let ok = EndState {
            resident: 8,
            expected: 8,
            broken: Vec::new(),
        };
        let dir = std::env::temp_dir().join(format!("grid-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(drive(Toy(vec![ok.clone(); 2], "x"), &dir), (vec![], 0));
        let scores = std::fs::read_to_string(dir.join("scores.txt")).unwrap();
        assert_eq!(scores, "toy table\n");

        // Lost pages trip conservation, and every finding `of` recorded
        // fails its cell too. Each finding names its cell.
        let lost = EndState {
            resident: 7,
            ..ok.clone()
        };
        let broken = EndState {
            broken: vec![
                "a machine violation".into(),
                "a tracked-set mismatch".into(),
            ],
            ..ok.clone()
        };
        let (f, code) = drive(Toy(vec![ok.clone(), lost, broken], "x"), &dir);
        assert_eq!(code, 1);
        assert_eq!(
            f,
            [
                "toy/1: 7 of 8 managed pages resident (pages lost or duplicated)",
                "toy/2: a machine violation",
                "toy/2: a tracked-set mismatch"
            ]
        );

        let (f, code) = drive(Toy(vec![ok.clone()], ""), &dir);
        assert_eq!((f.len(), code), (1, 1), "{f:?}");
        assert!(f[0].contains("extra.txt failed: nothing to write"), "{f:?}");

        // An output directory under a regular file cannot be created.
        let (f, code) = drive(Toy(vec![ok], "x"), &dir.join("scores.txt/toy_out"));
        assert_eq!((f.len(), code), (2, 1), "{f:?}");
        assert!(f[0].contains("extra.txt") && f[1].contains("scores.txt"));
        std::fs::remove_dir_all(dir).unwrap();
    }
}
