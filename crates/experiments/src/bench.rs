//! The perf-trajectory observatory's baseline format.
//!
//! Five harnesses (`colocation`, `migration`, `gauntlet`, `policy`,
//! `multitier`) each name a pinned set of quick cells
//! ([`crate::grid::Harness::bench`]); the grid driver times them and
//! renders a committed `BENCH_<name>.json` at the repo root
//! (`grid <name> --bench`). `grid --drift` regenerates
//! every declared baseline fresh and compares it against the committed
//! file:
//!
//! - **deterministic fields** (latencies, counters, scores) must match
//!   exactly — the simulator is deterministic, so any drift is a
//!   behaviour change that either needs a fix or an intentional baseline
//!   regeneration;
//! - **wall-clock** (`wall_ms`) is recorded so the trajectory of real
//!   run time is visible across PRs, but is only sanity-checked (finite,
//!   positive) — machines differ, so it never gates.

use telemetry::export::{Json, Parser};

/// One timed cell of a bench baseline.
#[derive(Debug, Clone)]
pub struct BenchCell {
    /// Cell name, unique within the baseline.
    pub name: String,
    /// Gross wall-clock of the cell run, in milliseconds (not gated).
    pub wall_ms: f64,
    /// Deterministic fields, compared exactly by `grid --drift`.
    pub metrics: Vec<(&'static str, f64)>,
}

fn fmt_metric(v: f64) -> String {
    if !v.is_finite() {
        // NaN/inf are not valid JSON numbers; pin them as null so the
        // file stays parseable (compared as missing-vs-missing).
        return "null".into();
    }
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// Renders a baseline in the committed `BENCH_*.json` shape.
pub fn render(bench: &str, scenario: &str, ticks: usize, cells: &[BenchCell]) -> String {
    let body = cells
        .iter()
        .map(|c| {
            let mut line = format!(
                "    {{\"cell\": \"{}\", \"wall_ms\": {:.1}",
                c.name, c.wall_ms
            );
            for (k, v) in &c.metrics {
                line.push_str(&format!(", \"{k}\": {}", fmt_metric(*v)));
            }
            line.push('}');
            line
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"scenario\": \"{scenario}\",\n  \
         \"ticks\": {ticks},\n  \"cells\": [\n{body}\n  ]\n}}\n"
    )
}

fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.skip_ws();
    if !p.at_end() {
        return Err("trailing bytes after the baseline object".into());
    }
    Ok(v)
}

fn cell_fields(v: &Json) -> Option<Vec<(&str, &Json)>> {
    match v {
        Json::Obj(fields) => Some(fields.iter().map(|(k, v)| (k.as_str(), v)).collect()),
        _ => None,
    }
}

/// Compares a freshly generated baseline against the committed one.
/// Returns human-readable failures (empty = no drift). Deterministic
/// fields must match exactly; `wall_ms` must only be a positive finite
/// number on both sides.
pub fn drift_failures(name: &str, committed: &str, fresh: &str) -> Vec<String> {
    let mut fails = Vec::new();
    let (committed, fresh) = match (parse(committed), parse(fresh)) {
        (Ok(c), Ok(f)) => (c, f),
        (Err(e), _) => return vec![format!("{name}: committed baseline unparseable: {e}")],
        (_, Err(e)) => return vec![format!("{name}: fresh baseline unparseable: {e}")],
    };
    for key in ["bench", "scenario"] {
        let c = committed.get(key).and_then(Json::as_str);
        let f = fresh.get(key).and_then(Json::as_str);
        if c != f {
            fails.push(format!("{name}: {key} changed: {c:?} -> {f:?}"));
        }
    }
    if committed.get("ticks").and_then(Json::as_num) != fresh.get("ticks").and_then(Json::as_num) {
        fails.push(format!("{name}: tick count changed"));
    }

    let empty: &[Json] = &[];
    let ccells = committed
        .get("cells")
        .and_then(Json::as_arr)
        .unwrap_or(empty);
    let fcells = fresh.get("cells").and_then(Json::as_arr).unwrap_or(empty);
    if ccells.len() != fcells.len() {
        fails.push(format!(
            "{name}: cell count changed: {} -> {}",
            ccells.len(),
            fcells.len()
        ));
    }
    for c in ccells {
        let Some(cname) = c.get("cell").and_then(Json::as_str) else {
            fails.push(format!("{name}: committed cell without a name"));
            continue;
        };
        let Some(f) = fcells
            .iter()
            .find(|f| f.get("cell").and_then(Json::as_str) == Some(cname))
        else {
            fails.push(format!("{name}/{cname}: cell missing from the fresh run"));
            continue;
        };
        let (Some(cf), Some(ff)) = (cell_fields(c), cell_fields(f)) else {
            fails.push(format!("{name}/{cname}: cell is not an object"));
            continue;
        };
        for (k, cv) in &cf {
            match *k {
                "cell" => {}
                "wall_ms" => {
                    for (side, v) in [("committed", Some(*cv)), ("fresh", f.get("wall_ms"))] {
                        let ok = v
                            .and_then(Json::as_num)
                            .is_some_and(|w| w.is_finite() && w > 0.0);
                        if !ok {
                            fails.push(format!(
                                "{name}/{cname}: {side} wall_ms is not a positive number"
                            ));
                        }
                    }
                }
                _ => {
                    let fv = ff.iter().find(|(fk, _)| fk == k).map(|(_, v)| *v);
                    let cn = cv.as_num();
                    let fn_ = fv.and_then(|v| v.as_num());
                    if cn != fn_ {
                        fails.push(format!(
                            "{name}/{cname}: {k} drifted: {cn:?} -> {fn_:?} \
                             (intentional? regenerate with --bench)"
                        ));
                    }
                }
            }
        }
        for (k, _) in &ff {
            if !cf.iter().any(|(ck, _)| ck == k) {
                fails.push(format!("{name}/{cname}: new field {k} not in the baseline"));
            }
        }
    }
    fails
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> String {
        render(
            "demo",
            "quick",
            42,
            &[
                BenchCell {
                    name: "a".into(),
                    wall_ms: 10.0,
                    metrics: vec![("p99_ns", 123.456), ("pages", 512.0)],
                },
                BenchCell {
                    name: "b".into(),
                    wall_ms: 20.0,
                    metrics: vec![("p99_ns", 99.0)],
                },
            ],
        )
    }

    #[test]
    fn identical_baselines_have_no_drift() {
        let b = baseline();
        assert!(drift_failures("demo", &b, &b).is_empty());
    }

    #[test]
    fn wall_clock_differences_are_not_drift() {
        let b = baseline();
        let slower = b.replace("\"wall_ms\": 10.0", "\"wall_ms\": 900.1");
        assert!(drift_failures("demo", &b, &slower).is_empty());
    }

    #[test]
    fn deterministic_field_changes_are_drift() {
        let b = baseline();
        let drifted = b.replace("123.456", "123.457");
        let fails = drift_failures("demo", &b, &drifted);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("p99_ns drifted"));
    }

    #[test]
    fn missing_and_extra_cells_are_drift() {
        let b = baseline();
        let one = render(
            "demo",
            "quick",
            42,
            &[BenchCell {
                name: "a".into(),
                wall_ms: 10.0,
                metrics: vec![("p99_ns", 123.456), ("pages", 512.0)],
            }],
        );
        assert!(!drift_failures("demo", &b, &one).is_empty());
        assert!(!drift_failures("demo", &one, &b).is_empty());
    }

    #[test]
    fn garbage_is_reported_not_panicked() {
        let fails = drift_failures("demo", "{not json", &baseline());
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("unparseable"));
    }
}
