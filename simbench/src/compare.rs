//! `simbench compare PARENT_DIR CHANGE_DIR`: judges saved runs of two
//! commits against the bounds in `BENCHMARK.json`.
//!
//! Run the benchmark alternately on the parent and the change (at least
//! ten pairs, alternating which side goes first), each side writing into
//! its own directory with `--out`. Runs pair up in the order they
//! started. Per workload and end-to-end metric this prints each side's
//! median and quartiles, the fraction of pairs the change won, and a
//! verdict:
//!
//! - **improved**: the change won at least nine tenths of at least ten
//!   pairs (ties count for neither side) and the medians differ by more
//!   than the parent's interquartile distance;
//! - **unresolved**: the parent's own spread is wider than the bound and
//!   not every change run beats every parent run;
//! - **worse**: the change's median is worse than the parent's by more
//!   than the bound;
//! - **within bound**: otherwise.
//!
//! Traced runs add a before/after table of every layer's self time.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::json::{self, Value};
use crate::stats::{self, StatsError};

/// One metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone)]
struct Spec {
    name: String,
    higher_better: bool,
    bound: f64,
}

/// The parts of `BENCHMARK.json` a comparison needs.
#[derive(Debug, Clone)]
struct Bench {
    workloads: Vec<String>,
    end_to_end: Vec<Spec>,
    per_layer: Vec<Spec>,
}

fn specs(v: &Value, key: &str) -> Result<Vec<Spec>, String> {
    v.get(key)
        .and_then(Value::arr)
        .ok_or(format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::str)
                .ok_or("metric without name")?;
            let better = m
                .get("better")
                .and_then(Value::str)
                .ok_or("metric without better")?;
            Ok(Spec {
                name: name.into(),
                higher_better: better == "higher",
                bound: m.get("bound").and_then(Value::num).unwrap_or(0.0),
            })
        })
        .collect()
}

fn load_bench(path: &Path) -> Result<Bench, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let workloads = v
        .get("workloads")
        .and_then(Value::arr)
        .ok_or("BENCHMARK.json has no workloads list")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::str).map(String::from))
        .collect();
    Ok(Bench {
        workloads,
        end_to_end: specs(&v, "end_to_end")?,
        per_layer: specs(&v, "per_layer")?,
    })
}

/// One saved single-workload run.
#[derive(Debug, Clone)]
struct Saved {
    workload: String,
    trace: bool,
    metrics: Vec<(String, f64)>,
}

fn json_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_dir() {
            json_files(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "json")
            && path.file_name().is_some_and(|n| n != "result.json")
        {
            out.push(path);
        }
    }
    Ok(())
}

/// Every saved run under `dir`, in the order the runs started (run
/// directories are named by start time).
fn load_runs(dir: &Path) -> Result<Vec<Saved>, String> {
    let mut files = Vec::new();
    json_files(dir, &mut files)?;
    files.sort();
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            let v = json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
            let bad = || format!("{}: not a saved simbench run", f.display());
            let metrics = v
                .get("result")
                .and_then(|r| r.get("metrics"))
                .and_then(Value::obj)
                .ok_or_else(bad)?
                .iter()
                .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.num()?)))
                .collect();
            Ok(Saved {
                workload: v
                    .get("workload")
                    .and_then(Value::str)
                    .ok_or_else(bad)?
                    .into(),
                trace: v.get("trace") == Some(&Value::Bool(true)),
                metrics,
            })
        })
        .collect()
}

fn samples(runs: &[Saved], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.iter().find(|(k, _)| k == metric).map(|(_, v)| *v))
        .collect()
}

/// The outcome of comparing one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A gain under the pairwise rule.
    Improved,
    /// No worse than the bound allows.
    WithinBound,
    /// Worse by more than the bound.
    Worse,
    /// The parent's own spread exceeds the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Both sides' quartiles, the pair record, and the verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Judged {
    /// Parent (q1, median, q3).
    pub parent: (f64, f64, f64),
    /// Change (q1, median, q3).
    pub change: (f64, f64, f64),
    /// Pairs compared.
    pub pairs: usize,
    /// Pairs the change won.
    pub wins: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Applies the pairwise rule to one metric.
pub fn judge(
    parent: &[f64],
    change: &[f64],
    higher_better: bool,
    bound: f64,
) -> Result<Judged, StatsError> {
    let p = stats::quartiles(parent)?;
    let c = stats::quartiles(change)?;
    let better = |a: f64, b: f64| if higher_better { a > b } else { a < b };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let dir = if higher_better { 1.0 } else { -1.0 };
    let gain = (c.1 - p.1) * dir;
    let spread = p.2 - p.0;
    let best_parent = parent
        .iter()
        .copied()
        .reduce(|a, b| if better(a, b) { a } else { b });
    let worst_change = change
        .iter()
        .copied()
        .reduce(|a, b| if better(a, b) { b } else { a });
    let all_better = matches!((best_parent, worst_change), (Some(bp), Some(wc)) if better(wc, bp));
    let verdict = if pairs >= 10 && wins * 10 >= pairs * 9 && gain > spread {
        Verdict::Improved
    } else if spread > bound * p.1.abs() && !all_better {
        Verdict::Unresolved
    } else if -gain > bound * p.1.abs() {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    };
    Ok(Judged {
        parent: p,
        change: c,
        pairs,
        wins,
        verdict,
    })
}

/// Five significant digits, in scientific notation when the magnitude
/// would not fit a table column.
pub fn sig(x: f64) -> String {
    if x != 0.0 && !(1e-2..1e5).contains(&x.abs()) {
        format!("{x:.4e}")
    } else {
        format!("{x:.4}")
    }
}

/// Renders the comparison report.
pub fn compare(parent_dir: &Path, change_dir: &Path, bench_json: &Path) -> Result<String, String> {
    let bench = load_bench(bench_json)?;
    let parent = load_runs(parent_dir)?;
    let change = load_runs(change_dir)?;
    let mut out = format!(
        "parent: {} ({} runs)   change: {} ({} runs)\n\n",
        parent_dir.display(),
        parent.len(),
        change_dir.display(),
        change.len()
    );
    let _ = writeln!(
        out,
        "{:<14} {:<12} | {:>34} | {:>34} | {:>9} | {:>8} | {:>6} | verdict",
        "workload",
        "metric",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "pair wins",
        "Δmedian",
        "bound"
    );
    let mut any_worse = false;
    for w in &bench.workloads {
        for s in &bench.end_to_end {
            let p = samples(&parent, w, false, &s.name);
            let c = samples(&change, w, false, &s.name);
            match judge(&p, &c, s.higher_better, s.bound) {
                Ok(j) => {
                    any_worse |= j.verdict == Verdict::Worse;
                    let q =
                        |x: (f64, f64, f64)| format!("{} [{}, {}]", sig(x.1), sig(x.0), sig(x.2));
                    let _ = writeln!(
                        out,
                        "{w:<14} {:<12} | {:>34} | {:>34} | {:>4}/{:<4} | {:>+7.2}% | {:>5.0}% | {}",
                        s.name,
                        q(j.parent),
                        q(j.change),
                        j.wins,
                        j.pairs,
                        100.0 * (j.change.1 - j.parent.1) / j.parent.1,
                        100.0 * s.bound,
                        j.verdict.label()
                    );
                }
                Err(_) => {
                    let _ = writeln!(out, "{w:<14} {:<12} | no runs on one side", s.name);
                }
            }
        }
    }
    if any_worse {
        out.push_str("\nat least one metric is worse than its bound allows\n");
    }

    for w in &bench.workloads {
        let layer_specs: Vec<&Spec> = bench
            .per_layer
            .iter()
            .filter(|s| s.name.ends_with(".self_s"))
            .collect();
        let n_p = parent
            .iter()
            .filter(|r| r.trace && &r.workload == w)
            .count();
        let n_c = change
            .iter()
            .filter(|r| r.trace && &r.workload == w)
            .count();
        if n_p == 0 || n_c == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "\nper-layer self time per episode, {w} (traced runs: {n_p} before, {n_c} after)"
        );
        let _ = writeln!(
            out,
            "{:<30} | {:>10} | {:>10} | {:>10} | {:>10} | {:>10} | {:>10} | {:>8}",
            "layer", "mean", "median", "stddev", "mean'", "median'", "stddev'", "Δmedian"
        );
        out.push_str(&"-".repeat(120));
        out.push('\n');
        for s in layer_specs {
            let p = samples(&parent, w, true, &s.name);
            let c = samples(&change, w, true, &s.name);
            let (Ok((pm, ps)), Ok((cm, cs)), Ok(pmed), Ok(cmed)) = (
                stats::mean_stddev(&p),
                stats::mean_stddev(&c),
                stats::median(&p),
                stats::median(&c),
            ) else {
                continue;
            };
            let delta = if pmed > 0.0 {
                format!("{:+.1}%", 100.0 * (cmed - pmed) / pmed)
            } else {
                "-".into()
            };
            let _ = writeln!(
                out,
                "{:<30} | {:>9.4}s | {:>9.4}s | {:>9.4}s | {:>9.4}s | {:>9.4}s | {:>9.4}s | {delta:>8}",
                s.name.trim_end_matches(".self_s"),
                pm,
                pmed,
                ps,
                cm,
                cmed,
                cs
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ten(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * i as f64).collect()
    }

    #[test]
    fn a_clear_gain_is_improved() {
        // Change is 20% faster on every pair; the parent spread is ~2%.
        let parent = ten(100.0, 0.2);
        let change: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        let j = judge(&parent, &change, false, 0.1).unwrap();
        assert_eq!((j.pairs, j.wins), (10, 10));
        assert_eq!(j.verdict, Verdict::Improved);
    }

    #[test]
    fn small_moves_stay_within_bound_and_large_ones_are_worse() {
        let parent = ten(100.0, 0.2);
        let slightly: Vec<f64> = parent.iter().map(|x| x * 1.03).collect();
        assert_eq!(
            judge(&parent, &slightly, false, 0.1).unwrap().verdict,
            Verdict::WithinBound
        );
        let much: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        assert_eq!(
            judge(&parent, &much, false, 0.1).unwrap().verdict,
            Verdict::Worse
        );
        // Higher-is-better metrics flip the direction.
        assert_eq!(
            judge(&parent, &much, true, 0.1).unwrap().verdict,
            Verdict::Improved
        );
    }

    #[test]
    fn a_noisy_parent_leaves_the_metric_unresolved() {
        let parent = ten(100.0, 5.0); // quartiles ~ [111, 122, 134]
        let change = ten(104.0, 5.0);
        assert_eq!(
            judge(&parent, &change, false, 0.1).unwrap().verdict,
            Verdict::Unresolved
        );
        // ... unless every change run beats every parent run.
        let far = ten(10.0, 1.0);
        assert_ne!(
            judge(&parent, &far, false, 0.1).unwrap().verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn empty_sides_are_errors() {
        assert!(judge(&[], &[1.0], false, 0.1).is_err());
    }
}
