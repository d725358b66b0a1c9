//! Host-time benchmark of the tiered-memory simulator.
//!
//! ```text
//! simbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! simbench --check
//! simbench compare PARENT_DIR CHANGE_DIR [--bench-json PATH]
//! ```
//!
//! With `--workload`, one workload runs in this process and the last line
//! of standard output is its JSON result. Without it, every workload runs
//! in a child process of its own (so peak RSS and allocator state are per
//! workload) and a summary follows. `--check` runs a short traced and
//! untraced episode of every workload and exits non-zero on any failed
//! check. `compare` judges saved runs of two commits against the bounds
//! in `BENCHMARK.json`. See README.md.

mod compare;
mod episode;
mod json;
mod layers;
mod run;
mod scenario;
mod stats;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use scenario::Workload;

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// Measured seconds per run when `--seconds` is absent.
const DEFAULT_SECONDS: u64 = 20;
/// Ticks per episode of `--check`.
const SMOKE_TICKS: usize = run::CHECK_TICKS;

const USAGE: &str = "usage:
  simbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
  simbench --check
  simbench compare PARENT_DIR CHANGE_DIR [--bench-json PATH]";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

#[derive(Debug, Clone, PartialEq)]
enum Mode {
    Run(Args),
    Check,
    Compare {
        parent: PathBuf,
        change: PathBuf,
        bench_json: PathBuf,
    },
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    if argv.first().map(String::as_str) == Some("compare") {
        let mut dirs = Vec::new();
        let mut bench_json = PathBuf::from("BENCHMARK.json");
        let mut it = argv[1..].iter();
        while let Some(a) = it.next() {
            if a == "--bench-json" {
                bench_json = it.next().ok_or("--bench-json needs a path")?.into();
            } else {
                dirs.push(PathBuf::from(a));
            }
        }
        let [parent, change] = <[PathBuf; 2]>::try_from(dirs)
            .map_err(|_| "compare takes exactly two result directories")?;
        return Ok(Mode::Compare {
            parent,
            change,
            bench_json,
        });
    }
    if argv == ["--check"] {
        return Ok(Mode::Check);
    }
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?);
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=3600).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 3600".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => args.out = Some(value.into()),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Mode::Run(args))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&argv) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match mode {
        Mode::Run(args) => match args.workload {
            Some(w) => run_one(w, &args),
            None => run_all(&args),
        },
        Mode::Check => smoke(),
        Mode::Compare {
            parent,
            change,
            bench_json,
        } => match compare::compare(&parent, &change, &bench_json) {
            Ok(report) => {
                print!("{report}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("simbench compare: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

/// A fresh run directory under `target/benchmark/`, named so that runs
/// sort in the order they started.
fn default_out() -> PathBuf {
    let ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    Path::new("target")
        .join("benchmark")
        .join(format!("{ms}-{}", std::process::id()))
}

fn write_file(path: &Path, body: &str) {
    let res = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, body));
    if let Err(e) = res {
        eprintln!("simbench: could not write {}: {e}", path.display());
    }
}

/// The result line: `correct`, `attempted` (checks run), `failed` (checks
/// failed) and every metric with its unit.
fn result_json(o: &run::Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.checks.failures.is_empty(),
        o.checks.run,
        o.checks.failures.len()
    );
    for (i, m) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json::quote(&m.name),
            m.value,
            json::quote(m.unit)
        );
    }
    s.push_str("}}");
    s
}

fn run_one(w: Workload, args: &Args) -> ExitCode {
    eprintln!(
        "[simbench] {} seed {} (machine seed {:#018x}), {} s, {}",
        w.name(),
        args.seed,
        w.machine_seed(args.seed),
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    let o = run::run(w, args.seed, args.seconds as f64, args.trace);
    println!(
        "workload {} seed {} {}",
        w.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    for (k, v) in &o.notes {
        println!("  model  {k:<26} {v}");
    }
    if args.trace {
        print_split(&o);
    }
    for m in &o.metrics {
        println!("  metric {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  checks {} run, {} failed",
        o.checks.run,
        o.checks.failures.len()
    );
    for f in &o.checks.failures {
        eprintln!("[simbench] CHECK FAILED {}: {f}", w.name());
    }

    let out = args.out.clone().unwrap_or_else(default_out);
    let stem = format!("{}{}", w.name(), if args.trace { ".traced" } else { "" });
    let line = result_json(&o);
    let saved = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"result\": {line}}}\n",
        json::quote(w.name()),
        args.seed,
        args.trace
    );
    write_file(&out.join(format!("{stem}.json")), &saved);
    if let Some(csv) = &o.ticks_csv {
        write_file(&out.join(format!("{}.ticks.csv", w.name())), csv);
    }
    println!("{line}");
    if o.checks.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints each layer's self time per episode and its share of the summed
/// self time.
fn print_split(o: &run::Outcome) {
    let self_s: Vec<(&str, f64)> = layers::LAYERS
        .iter()
        .map(|(n, _)| (*n, o.metric(&format!("{n}.self_s")).unwrap_or(0.0)))
        .collect();
    let total: f64 = self_s.iter().map(|(_, s)| s).sum();
    println!("  layer split per episode (self time, share of tick total):");
    for (n, s) in self_s {
        println!(
            "    {n:<24} {s:>10.4} s {:>6.1}%",
            if total > 0.0 { 100.0 * s / total } else { 0.0 }
        );
    }
}

fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("simbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = args.out.clone().unwrap_or_else(default_out);
    let mut ok = true;
    let mut results = Vec::new();
    for w in Workload::ALL {
        let child = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&out)
            .stderr(Stdio::inherit())
            .output();
        let child = match child {
            Ok(c) => c,
            Err(e) => {
                eprintln!("simbench: could not start {}: {e}", w.name());
                ok = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&child.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for l in &lines {
            println!("{l}");
        }
        ok &= child.status.success();
        match json::parse(last) {
            Ok(v) => results.push((w, last.to_string(), v)),
            Err(e) => {
                eprintln!("simbench: {} printed no result ({e})", w.name());
                ok = false;
            }
        }
    }

    let mut body = format!(
        "{{\"seed\": {}, \"trace\": {}, \"workloads\": {{",
        args.seed, args.trace
    );
    for (i, (w, line, _)) in results.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(body, "{sep}{}: {line}", json::quote(w.name()));
    }
    body.push_str("}}\n");
    write_file(&out.join("result.json"), &body);

    println!("\nsummary (seed {}):", args.seed);
    for (w, _, v) in &results {
        let metrics = v.get("metrics").and_then(json::Value::obj).unwrap_or(&[]);
        let shown: Vec<String> = metrics
            .iter()
            .filter(|(k, _)| !args.trace || k.ends_with(".self_s"))
            .filter_map(|(k, m)| {
                let val = m.get("value")?.num()?;
                (!args.trace || val > 0.0).then(|| format!("{k}={}", compare::sig(val)))
            })
            .collect();
        let failed = v.get("failed").and_then(json::Value::num).unwrap_or(0.0);
        println!("  {:<14} failed={failed} {}", w.name(), shown.join(" "));
    }
    println!("wrote {}", out.join("result.json").display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn smoke() -> ExitCode {
    let mut failed = 0;
    for (w, checks) in run::smoke(DEFAULT_SEED, SMOKE_TICKS) {
        println!(
            "{:<14} {} checks, {} failed",
            w.name(),
            checks.run,
            checks.failures.len()
        );
        for f in &checks.failures {
            println!("  FAILED {f}");
        }
        failed += checks.failures.len();
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let m = parse_args(&argv(
            "--workload churn-txn --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            m,
            Mode::Run(Args {
                workload: Some(Workload::ChurnTxn),
                seed: 7,
                seconds: 10,
                trace: true,
                out: None,
            })
        );
        assert_eq!(parse_args(&argv("--check")).unwrap(), Mode::Check);
        assert!(matches!(
            parse_args(&argv("compare a b")).unwrap(),
            Mode::Compare { .. }
        ));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope",
            "--seed -1",
            "--trace 2",
            "--seconds 0",
            "--seed",
            "--frobnicate 1",
            "compare only-one",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
