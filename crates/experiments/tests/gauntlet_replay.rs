//! Golden replay pin for the committed gauntlet fixture.
//!
//! The fixture under `tests/fixtures/` is a recorded phase-shift capture
//! serialized with `workloads::trace_to_ndjson`; this test re-imports it,
//! replays it through the gauntlet's capture-shape cell, and compares the
//! `RunResult` digest against the committed golden. Any change to the
//! NDJSON schema, the replayer, or the machine's replay semantics will
//! surface here instead of silently shifting the gauntlet's fixture
//! column. Regenerate both files with
//! `cargo run -p experiments --release --bin grid -- gauntlet --quick --regen`
//! (the scenario is pinned to quick mode).

use std::path::Path;
use std::sync::Arc;

use experiments::gauntlet::{self, GauntletScenario};
use workloads::{trace_from_ndjson, trace_to_ndjson, TraceParseError};

fn fixture_text() -> String {
    let p =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/gauntlet_phase_shift.ndjson");
    std::fs::read_to_string(p).expect("committed gauntlet fixture")
}

fn golden_digest() -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/gauntlet_fixture_digest.txt");
    std::fs::read_to_string(p).expect("golden fixture digest")
}

#[test]
fn fixture_replay_matches_golden_digest() {
    let trace = Arc::new(trace_from_ndjson(&fixture_text()).expect("fixture parses"));
    let sc = GauntletScenario::paper_default(true);
    let digest = gauntlet::fixture_replay_digest(&sc, &trace);
    let golden = golden_digest();
    let pinned = golden
        .split_whitespace()
        .last()
        .expect("digest field in golden");
    assert_eq!(
        digest, pinned,
        "fixture replay drifted from the committed golden (regenerate with \
         `cargo run -p experiments --release --bin grid -- gauntlet --quick --regen` \
         if the change is intentional)"
    );
    // Two replays of the same fixture are bit-identical.
    assert_eq!(digest, gauntlet::fixture_replay_digest(&sc, &trace));
}

#[test]
fn fixture_round_trips_byte_identically() {
    let text = fixture_text();
    let trace = trace_from_ndjson(&text).expect("fixture parses");
    assert_eq!(trace_to_ndjson(&trace), text, "fixture is not canonical");
}

#[test]
fn truncated_fixture_is_a_typed_error_not_a_panic() {
    let text = fixture_text();
    let cut: String =
        text.lines()
            .take(text.lines().count() / 2)
            .fold(String::new(), |mut acc, l| {
                acc.push_str(l);
                acc.push('\n');
                acc
            });
    match trace_from_ndjson(&cut) {
        Err(TraceParseError::Truncated { expected, found }) => {
            assert!(found < expected);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
}
