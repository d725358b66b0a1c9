//! Golden bit-identity tests: replication runs with telemetry recorders
//! attached must reproduce the committed baseline outputs byte for byte.
//!
//! The baselines (`figures_output.txt` for Figures 1, 4 and 9 and the
//! Figure 9 HeMem contention series, and the files under
//! `tests/golden/`) were captured from the pre-telemetry tree, so these
//! tests pin the subsystem's core contract — recording is passive and a
//! disabled sink is free: attaching a zero-capacity `RingRecorder` or even
//! a full one changes nothing about simulated behaviour.
//!
//! The full Figure 1 / Figure 9 grids take minutes and are `#[ignore]`d;
//! CI and `cargo test` always run the quickstart, Figure 4, and one
//! Figure 9 cell.

use std::path::Path;

use experiments::figures::fig9::Dynamic;
use experiments::figures::{fig1, fig4, fig9, Figure, Figures, Sim};
use experiments::grid::{Ctx, Harness, Opts};
use experiments::runner::{run, RunConfig};
use experiments::scenario::{build_gups, Experiment, GupsScenario, Policy};
use tiersys::SystemKind;

/// Reads the committed all-figures baseline.
fn figures_baseline() -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../figures_output.txt");
    std::fs::read_to_string(p).expect("figures_output.txt baseline")
}

/// Extracts one section: from the line starting with `header` up to the
/// next header at its level or above (exclusive): a `== ` section ends at
/// the next `== `, a `-- ` series block at the next `-- ` or `== `.
/// Trailing whitespace is trimmed.
fn section(text: &str, header: &str) -> String {
    let ends = |line: &str| {
        line.starts_with("== ") || (header.starts_with("-- ") && line.starts_with("-- "))
    };
    let mut out = String::new();
    let mut inside = false;
    for line in text.lines() {
        if line.starts_with(header) {
            inside = true;
        } else if inside && ends(line) {
            break;
        }
        if inside {
            out.push_str(line);
            out.push('\n');
        }
    }
    assert!(!out.is_empty(), "section {header:?} not found in baseline");
    out.trim_end().to_string()
}

/// Renders `figure` through its grid harness, as `grid figN` writes it
/// to `scores.txt` (quick mode when `quick`).
fn render(figure: Figure, quick: bool) -> String {
    let opts = Opts {
        quick,
        ..Opts::default()
    };
    let mut harness = Figures(opts, vec![figure]);
    let results = harness
        .cells()
        .into_iter()
        .map(|(_, sim)| {
            let outcome = harness.run(&sim);
            (sim, outcome)
        })
        .collect();
    harness.finish(results, &mut Ctx::default()).concat()
}

/// Reads one of the pre-telemetry goldens under `tests/golden/`.
fn golden(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../tests/golden/{name}"));
    std::fs::read_to_string(p).expect("golden baseline")
}

#[test]
fn fig4_matches_golden() {
    let got = render(fig4::FIGURE, false);
    assert_eq!(
        got.trim_end(),
        section(&figures_baseline(), "== Figure 4"),
        "Figure 4 output drifted from the committed baseline"
    );
}

/// Replicates examples/quickstart.rs line for line, optionally with a live
/// RingRecorder attached to every layer. Returns the rendered output plus
/// the recorded event/span counts (zero when no recorder is attached).
fn run_quickstart(with_recorder: bool) -> (String, usize, usize) {
    let scenario = GupsScenario::intensity(2);
    let mut out = String::new();
    let mut recorded_events = 0usize;
    let mut recorded_spans = 0usize;
    for (label, colloid) in [
        ("HeMem (packs hottest pages into the default tier)", false),
        ("HeMem+Colloid (balances access latencies)", true),
    ] {
        out.push_str(&format!("==> {label}\n"));
        let mut exp = build_gups(
            &scenario,
            Policy::System {
                kind: SystemKind::Hemem,
                colloid,
            },
        );
        if with_recorder {
            exp.attach_telemetry(telemetry::Sink::ring(1 << 16, 0));
        }
        let result = run(&mut exp, &RunConfig::steady_state());
        recorded_events += exp
            .sink
            .with(|r| r.events().len() + r.dropped_events() as usize)
            .unwrap_or(0);
        recorded_spans += exp
            .sink
            .with(|r| r.spans().len() + r.dropped_spans() as usize)
            .unwrap_or(0);
        out.push_str(&format!(
            "    GUPS throughput : {:.1} Mops/s (converged after {} quanta)\n",
            result.ops_per_sec / 1e6,
            result.warmup_ticks_used
        ));
        out.push_str(&format!(
            "    tier latencies  : default {:.0} ns vs alternate {:.0} ns\n",
            result.latency_ns[0].unwrap_or(f64::NAN),
            result.latency_ns[1].unwrap_or(f64::NAN)
        ));
        out.push_str(&format!(
            "    placement       : {:.0}% of GUPS traffic served by the default tier\n\n",
            result.default_tier_app_share() * 100.0
        ));
    }
    out.push_str("Colloid's principle: when the default tier's loaded latency exceeds the\n");
    out.push_str("alternate tier's, hot pages belong in the alternate tier — packing them\n");
    out.push_str("into the \"fast\" tier only makes it slower.\n");
    (out, recorded_events, recorded_spans)
}

#[test]
fn quickstart_with_ring_recorder_matches_golden() {
    // The recorded run must be byte-identical to the baseline captured
    // without telemetry. Since PR 4 the sink also records causal spans
    // (`Sink::ring` allots span capacity), so this doubles as the proof
    // that span tracing is passive: a span-recording run leaves figure
    // outputs untouched.
    let golden = golden("quickstart.txt");
    let (out, recorded_events, recorded_spans) = run_quickstart(true);
    assert_eq!(
        out.trim_end(),
        golden.trim_end(),
        "recorded quickstart run drifted from the telemetry-free baseline"
    );
    assert!(
        recorded_events > 0,
        "the recorder must actually have seen the migration traffic"
    );
    assert!(
        recorded_spans > 0,
        "the recorder must actually have closed tick/migration spans"
    );
}

#[test]
fn quickstart_stays_byte_identical_after_n_tier_refactor() {
    // Every system acts on `TierMove` decisions from the one pairwise
    // Colloid controller; on a two-tier machine that must reproduce the
    // two-tier Algorithm-1 controller and the original promote/demote
    // paths. A plain run (no recorder at all) pins the n == 2 case byte
    // for byte against the pre-refactor baseline.
    let golden = golden("quickstart.txt");
    let (out, _, _) = run_quickstart(false);
    assert_eq!(
        out.trim_end(),
        golden.trim_end(),
        "two-tier quickstart output drifted across the N-tier refactor"
    );
}

/// The Figure 9 HeMem contention cell (0x -> 3x) in quick mode, 150
/// ticks before the shift and 150 after, with `attach` wiring
/// instrumentation in before the run. Returns its throughput series as
/// Figure 9 renders it.
fn fig9_contention_hemem(attach: impl FnOnce(&mut Experiment)) -> String {
    let hemem = Policy::System {
        kind: SystemKind::Hemem,
        colloid: false,
    };
    let (mut exp, rc, _) = Sim::Timeline(Dynamic::ContentionOn, hemem).build(true);
    attach(&mut exp);
    let pts: Vec<(f64, f64)> = run(&mut exp, &rc)
        .series
        .iter()
        .map(|s| (s.t.as_ns() / 1e6, s.ops_per_sec / 1e6))
        .collect();
    telemetry::render::series(
        "HeMem | contention 0x -> 3x | Mops/s over time (ms)",
        &pts,
        20,
    )
}

/// Figure 9's HeMem contention series in the committed baseline.
fn fig9_contention_hemem_baseline() -> String {
    section(
        &figures_baseline(),
        "-- HeMem | contention 0x -> 3x | Mops/s over time (ms) --",
    )
}

#[test]
fn fig9_contention_cell_with_zero_cap_ring_matches_golden() {
    // One Figure 9 cell with a zero-capacity ring attached: an enabled
    // sink that retains nothing must be bit-identical to the baseline.
    let got = fig9_contention_hemem(|exp| {
        exp.attach_telemetry(telemetry::Sink::new(telemetry::RingRecorder::new(0)))
    });
    assert_eq!(
        got.trim_end(),
        fig9_contention_hemem_baseline(),
        "Figure 9 contention cell drifted under an attached zero-capacity ring"
    );
}

/// Replicates the quickstart with a live, enabled `MetricsHub` wired
/// through the machine and tiering system. Recording into the registry
/// must be passive: the rendered output stays byte-identical to the
/// metrics-free baseline while the hub fills with real series.
#[test]
fn quickstart_with_live_metrics_hub_matches_golden() {
    let scenario = GupsScenario::intensity(2);
    let golden = golden("quickstart.txt");
    let mut out = String::new();
    let mut samples = 0usize;
    for (label, colloid) in [
        ("HeMem (packs hottest pages into the default tier)", false),
        ("HeMem+Colloid (balances access latencies)", true),
    ] {
        out.push_str(&format!("==> {label}\n"));
        let mut exp = build_gups(
            &scenario,
            Policy::System {
                kind: SystemKind::Hemem,
                colloid,
            },
        );
        let hub = telemetry::MetricsHub::new();
        exp.attach_metrics(hub.clone());
        let result = run(&mut exp, &RunConfig::steady_state());
        samples += hub.snapshot().len();
        out.push_str(&format!(
            "    GUPS throughput : {:.1} Mops/s (converged after {} quanta)\n",
            result.ops_per_sec / 1e6,
            result.warmup_ticks_used
        ));
        out.push_str(&format!(
            "    tier latencies  : default {:.0} ns vs alternate {:.0} ns\n",
            result.latency_ns[0].unwrap_or(f64::NAN),
            result.latency_ns[1].unwrap_or(f64::NAN)
        ));
        out.push_str(&format!(
            "    placement       : {:.0}% of GUPS traffic served by the default tier\n\n",
            result.default_tier_app_share() * 100.0
        ));
    }
    out.push_str("Colloid's principle: when the default tier's loaded latency exceeds the\n");
    out.push_str("alternate tier's, hot pages belong in the alternate tier — packing them\n");
    out.push_str("into the \"fast\" tier only makes it slower.\n");
    assert_eq!(
        out.trim_end(),
        golden.trim_end(),
        "quickstart output drifted under a live metrics hub"
    );
    assert!(
        samples > 0,
        "the hub must actually have registered live series"
    );
}

#[test]
fn fig9_contention_cell_with_live_metrics_hub_matches_golden() {
    // The same Figure 9 cell as above, but with an *enabled* registry
    // attached: per-tier latency histograms and migration counters fill
    // while the simulated timeline stays bit-identical.
    let hub = telemetry::MetricsHub::new();
    let got = fig9_contention_hemem(|exp| exp.attach_metrics(hub.clone()));
    assert_eq!(
        got.trim_end(),
        fig9_contention_hemem_baseline(),
        "Figure 9 contention cell drifted under a live metrics hub"
    );
    assert!(
        !hub.snapshot().is_empty(),
        "the hub must actually have registered live series"
    );
    assert_eq!(hub.kind_conflicts(), 0, "metric kind registrations clashed");
}

#[test]
fn single_tenant_colocation_with_observability_matches_golden_digest() {
    // The single-tenant colocation digest with the full observability
    // stack live (enabled hub + burn-rate monitor) must equal both the
    // un-instrumented digest and the committed golden.
    let plain = experiments::colocation::digest_via_colocation(SystemKind::Hemem, true);
    let observed = experiments::colocation::digest_via_colocation_observed(SystemKind::Hemem, true);
    assert_eq!(
        format!("{observed:016x}"),
        format!("{plain:016x}"),
        "observability stack perturbed the single-tenant colocation run"
    );
    let golden_digest = golden("colocation_single_digest.txt");
    assert_eq!(
        format!("{observed:016x}"),
        golden_digest.trim(),
        "observed single-tenant digest drifted from the committed golden"
    );
}

#[test]
fn explicit_default_policy_is_bit_identical_to_implicit() {
    // The policy extraction's core promise: selecting a system's
    // extracted default explicitly (`SystemParams.policy = Some(...)`)
    // builds the *same system* as leaving it `None` (the pre-refactor
    // construction path every golden above runs through). Digest the
    // full run state for all three systems.
    let sc = experiments::policy::PolicyScenario::paper_default(true);
    for (kind, implicit, explicit) in experiments::policy::identity_digests(&sc) {
        assert_eq!(
            implicit,
            explicit,
            "{}: explicit default diverged from the implicit construction path",
            kind.name()
        );
    }
}

#[test]
fn live_policy_swap_conserves_pages_and_tags_telemetry() {
    // Hot-swapping FreqBins -> SIEVE at the halfway quantum of a HeMem
    // run must migrate tracker state without losing a single page, and
    // the swap must surface as exactly one tagged telemetry event.
    let mut sc = experiments::policy::PolicyScenario::paper_default(true);
    sc.ws_pages = 512;
    sc.hot_pages = 128;
    sc.default_pages = 192;
    sc.app_cores = 1;
    sc.run_ticks = 60;
    let d = experiments::policy::swap_drill(&sc);
    assert!(d.swapped, "swap was rejected at the quantum boundary");
    assert!(
        d.end.conserved(),
        "swap lost pages: {}/{} resident",
        d.end.resident,
        d.end.expected
    );
    assert_eq!(d.swap_events, 1, "expected exactly one policy_swap event");
    assert_eq!(
        d.pages_reseeded, d.end.expected,
        "the newcomer must be reseeded with the full tracked set"
    );
}

#[test]
#[ignore = "full Figure 1 grid takes minutes; run with --ignored"]
fn fig1_matches_golden() {
    // The baseline was captured from the pre-telemetry tree in quick mode.
    let got = render(fig1::FIGURE, true);
    assert_eq!(got.trim_end(), section(&figures_baseline(), "== Figure 1:"));
}

#[test]
#[ignore = "full Figure 9 grid takes minutes; run with --ignored"]
fn fig9_matches_golden() {
    // The baseline was captured from the pre-telemetry tree in quick mode.
    let got = render(fig9::FIGURE, true);
    assert_eq!(got.trim_end(), section(&figures_baseline(), "== Figure 9:"));
}
