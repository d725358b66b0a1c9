//! Property-based tests for the telemetry recorder.
//!
//! The contracts underwriting the subsystem: the [`RingRecorder`] holds
//! bounded state no matter how long a run gets (drop-oldest, with every
//! drop counted); event timestamps are monotone **per source** however
//! the layers interleave their emits; scoped spans nest correctly under
//! arbitrary enter/exit sequences (children close before their parent,
//! extents contained, stamps monotone); and per-page provenance conserves
//! pages per tier (the `c % 2` useful rule is exactly tier conservation)
//! and folds only the copies that landed.

use proptest::prelude::*;
use simkit::SimTime;
use telemetry::{
    Event, EventKind, RingRecorder, Sink, Source, SpanId, SpanKind, SpanPayload, SpanRecord,
};

fn source() -> impl Strategy<Value = Source> {
    prop_oneof![
        Just(Source::Machine),
        Just(Source::Colloid),
        Just(Source::System),
        Just(Source::Supervisor),
        Just(Source::Runner),
    ]
}

/// An arbitrary event: a possibly out-of-order timestamp and a source.
fn op() -> impl Strategy<Value = (u64, Source)> {
    (0u64..10_000, source())
}

fn event_at(t_ps: u64, src: Source) -> Event {
    Event {
        t: SimTime::from_ps(t_ps),
        source: src,
        tenant: None,
        kind: EventKind::EquilibriumReset,
    }
}

proptest! {
    /// Bounded memory: whatever the input volume, the retained count never
    /// exceeds the cap, and retained + dropped always accounts for every
    /// event offered.
    #[test]
    fn ring_is_bounded_and_accounts_for_drops(
        event_cap in 0usize..32,
        ops in prop::collection::vec(op(), 0..200)
    ) {
        let mut rec = RingRecorder::new(event_cap);
        let mut offered_events = 0u64;
        for (t_ps, src) in ops {
            rec.record_event(event_at(t_ps, src));
            offered_events += 1;
            prop_assert!(rec.events().len() <= event_cap);
        }
        prop_assert_eq!(rec.events().len() as u64 + rec.dropped_events(), offered_events);
    }

    /// Drop-oldest: the retained window is exactly the tail of the offered
    /// sequence (checked on a single source so clamping is irrelevant to
    /// identity: events are distinguished by monotone timestamps).
    #[test]
    fn ring_retains_the_newest_tail(
        cap in 1usize..16,
        n in 0usize..64
    ) {
        let mut rec = RingRecorder::new(cap);
        for i in 0..n as u64 {
            rec.record_event(event_at(i, Source::Machine));
        }
        let kept: Vec<u64> = rec.events().iter().map(|e| e.t.as_ps()).collect();
        let expected: Vec<u64> = (0..n as u64).skip(n.saturating_sub(cap)).collect();
        prop_assert_eq!(kept, expected);
    }

    /// Per-source monotonicity: under arbitrary interleavings with
    /// arbitrary (even decreasing) stamps, each source's recorded
    /// timestamps never decrease, and clamping never *advances* an event
    /// past a later stamp the source itself provided.
    #[test]
    fn timestamps_are_monotone_per_source(
        ops in prop::collection::vec((0u64..1000, source()), 0..300)
    ) {
        let mut rec = RingRecorder::new(usize::MAX >> 1);
        for &(t_ps, src) in &ops {
            rec.record_event(event_at(t_ps, src));
        }
        let events = rec.events();
        prop_assert_eq!(events.len(), ops.len());
        let mut last = [None::<u64>; Source::COUNT];
        for ev in &events {
            let slot = &mut last[ev.source.index()];
            if let Some(prev) = *slot {
                prop_assert!(ev.t.as_ps() >= prev, "source went backwards");
            }
            *slot = Some(ev.t.as_ps());
        }
        // The clamp is the running max of each source's own input stamps.
        let mut running = [0u64; Source::COUNT];
        for (i, &(t_ps, src)) in ops.iter().enumerate() {
            running[src.index()] = running[src.index()].max(t_ps);
            prop_assert_eq!(events[i].t.as_ps(), running[src.index()]);
        }
    }

    /// Scoped spans nest correctly under arbitrary enter/exit sequences:
    /// children are recorded (closed) before their parent, every child's
    /// extent is contained in its parent's, and close stamps are monotone.
    /// Exits may target a span deep in the stack — the sink must close the
    /// forgotten spans above it rather than corrupt the stack.
    #[test]
    fn scoped_spans_nest_and_close_child_first(
        ops in prop::collection::vec((0u64..1_000, 0usize..3, 0usize..4), 0..200)
    ) {
        const NAMES: [&str; 4] = ["a", "b", "c", "d"];
        let sink = Sink::new(RingRecorder::new(1 << 12).with_span_cap(1 << 12));
        let mut now = 0u64;
        let mut stack: Vec<SpanId> = Vec::new();
        let mut expected_closed = 0usize;
        for (adv, op, idx) in ops {
            now += adv;
            sink.set_now(SimTime::from_ps(now));
            match op {
                0 => {
                    let id = sink.span_enter(Source::Machine, NAMES[idx]);
                    prop_assert!(id.is_some());
                    stack.push(id);
                }
                1 => {
                    if let Some(id) = stack.pop() {
                        sink.span_exit(id);
                        expected_closed += 1;
                    }
                }
                _ => {
                    if !stack.is_empty() {
                        let k = idx % stack.len();
                        sink.span_exit(stack[k]);
                        // Everything at and above the target closes.
                        expected_closed += stack.len() - k;
                        stack.truncate(k);
                    }
                }
            }
        }
        let spans = sink.with(|r| r.spans()).unwrap();
        prop_assert_eq!(spans.len(), expected_closed);
        for w in spans.windows(2) {
            prop_assert!(w[1].t_end >= w[0].t_end, "close stamps must be monotone");
        }
        for (i, sp) in spans.iter().enumerate() {
            prop_assert_eq!(sp.kind, SpanKind::Scoped);
            prop_assert!(sp.t_end >= sp.t_start);
            if sp.parent.is_some() {
                // A recorded child's parent either closed later (appears
                // after it) or is still open (never recorded).
                if let Some(pi) = spans.iter().position(|p| p.id == sp.parent) {
                    prop_assert!(pi > i, "child must be recorded before its parent");
                    prop_assert!(sp.t_start >= spans[pi].t_start);
                    prop_assert!(sp.t_end <= spans[pi].t_end);
                }
            }
        }
    }

    /// Provenance conserves pages per tier: with every page starting in
    /// tier 0 and copies alternating 0→1→0→…, a page ends in tier 1 iff
    /// its move count is odd — exactly the `c % 2` useful rule — and the
    /// blame tallies account for every landed copy. Aborted copies (spans
    /// closed with no `MigrationComplete`) interleave with the landed ones
    /// and leave the page where it was; none of them enters a history.
    #[test]
    fn provenance_conserves_pages_per_tier(
        pages in prop::collection::vec((0usize..6, 0usize..3), 1..40)
    ) {
        let decision = SpanRecord {
            id: SpanId(1),
            parent: SpanId::NONE,
            cause: SpanId::NONE,
            source: Source::Colloid,
            name: "colloid.decide",
            payload: SpanPayload::Decision { mode: "promote" },
            t_start: SimTime::ZERO,
            t_end: SimTime::ZERO,
            kind: SpanKind::Scoped,
        };
        let move_counts: Vec<usize> = pages.iter().map(|&(c, _)| c).collect();
        let mut spans = vec![decision];
        let mut events = Vec::new();
        let mut aborted = Vec::new();
        let mut next_id = 2u64;
        let mut t_us = 1.0f64;
        for (vpn, &(mut landed_left, mut aborted_left)) in pages.iter().enumerate() {
            let mut tier = 0u8;
            while landed_left + aborted_left > 0 {
                let abort = aborted_left > 0
                    && (landed_left == 0 || (landed_left + aborted_left) % 2 == 0);
                let (src, dst) = (tier, 1 - tier); // 0 -> 1 -> 0 -> ...
                let t_end = SimTime::from_us(t_us + 0.5);
                spans.push(SpanRecord {
                    id: SpanId(next_id),
                    parent: SpanId::NONE,
                    cause: SpanId(1),
                    source: Source::Machine,
                    name: "migration",
                    payload: SpanPayload::Migration { vpn: vpn as u64, src, dst },
                    t_start: SimTime::from_us(t_us),
                    t_end,
                    kind: SpanKind::Async,
                });
                if abort {
                    aborted_left -= 1;
                    aborted.push(SpanId(next_id));
                } else {
                    landed_left -= 1;
                    tier = dst;
                    events.push(Event {
                        t: t_end,
                        source: Source::Machine,
                        tenant: None,
                        kind: EventKind::MigrationComplete {
                            vpn: vpn as u64,
                            src,
                            dst,
                            copy_ns: 500.0,
                        },
                    });
                }
                next_id += 1;
                t_us += 100.0;
            }
        }
        let r = telemetry::provenance(&events, &spans, SimTime::from_us(1.0));
        let total: usize = move_counts.iter().sum();
        let odd = move_counts.iter().filter(|&&c| c % 2 == 1).count();
        prop_assert_eq!(r.completed as usize, total);
        prop_assert_eq!(r.useful as usize, odd, "useful copies = pages ending off-default");
        prop_assert_eq!(r.wasted as usize, total - odd);
        let in_tier1 = r.pages.iter().filter(|p| p.final_tier() == 1).count();
        prop_assert_eq!(in_tier1, odd, "tier-1 population must equal odd-count pages");
        prop_assert_eq!(
            r.pages.len(),
            move_counts.iter().filter(|&&c| c > 0).count(),
            "every migrated page (and only those) gets a history"
        );
        for p in &r.pages {
            prop_assert!(
                p.moves.iter().all(|m| !aborted.contains(&m.span)),
                "an aborted copy entered page {}'s history",
                p.vpn
            );
            prop_assert_eq!((p.useful() + p.wasted()) as usize, p.moves.len());
            prop_assert_eq!(
                p.moves.iter().filter(|m| m.wasted).count() as u64,
                p.wasted(),
                "per-move wasted flags must sum to the page's wasted count"
            );
        }
        let blamed: u64 = r.blame.iter().map(|b| b.issued).sum();
        prop_assert_eq!(blamed + r.unattributed, r.completed);
        prop_assert_eq!(r.unattributed, 0, "all moves carry a resolvable cause here");
    }
}

// ---------------------------------------------------------------------------
// Histogram core: the contracts the metrics registry is built on.
// Quantiles overestimate the exact empirical value by at most t/32 and
// never underestimate, counters are monotone, and the serialized form
// round-trips losslessly.
// ---------------------------------------------------------------------------

/// Values spanning the exact region (< 32), the log-linear octaves, and
/// the extremes where bucket arithmetic could overflow.
fn hist_value() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..32,
        32u64..4096,
        1u64 << 20..1u64 << 40,
        Just(u64::MAX),
        0u64..u64::MAX,
    ]
}

fn record_all(values: &[u64]) -> telemetry::Histogram {
    let mut h = telemetry::Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    /// Rank-error bound: against the exact empirical quantile `t` at rank
    /// `ceil(q * n)`, the estimate satisfies `t <= quantile(q) <= t + t/32`
    /// (exact below 32, one log-linear bucket width above).
    #[test]
    fn histogram_quantile_rank_error_is_bounded(
        values in prop::collection::vec(hist_value(), 1..200),
        q in 0.0f64..=1.0,
    ) {
        let h = record_all(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[rank - 1];
        let got = h.quantile(q);
        prop_assert!(got >= exact, "quantile {got} underestimates exact {exact}");
        prop_assert!(
            got <= exact.saturating_add(exact / 32),
            "quantile {got} exceeds exact {exact} + {}",
            exact / 32
        );
    }

    /// Serialize → parse is lossless.
    #[test]
    fn histogram_serialize_round_trips(
        values in prop::collection::vec(hist_value(), 0..200),
    ) {
        let h = record_all(&values);
        let parsed = telemetry::Histogram::parse(&h.serialize()).unwrap();
        prop_assert_eq!(parsed, h);
    }

    /// Registry counters are monotone under arbitrary inc/add sequences
    /// and every labelled series accumulates independently.
    #[test]
    fn counters_are_monotone_and_label_isolated(
        ops in prop::collection::vec((0u8..2, 0u64..1_000_000), 0..200),
    ) {
        let hub = telemetry::MetricsHub::new();
        let a = hub.counter_with("prop_total", &[("shard", "a")]);
        let b = hub.counter_with("prop_total", &[("shard", "b")]);
        let (mut sum_a, mut sum_b) = (0u64, 0u64);
        let mut last_a = 0u64;
        for (which, n) in ops {
            if which == 0 {
                a.add(n);
                sum_a += n;
            } else {
                b.add(n);
                sum_b += n;
            }
            prop_assert!(a.get() >= last_a, "counter went backwards");
            last_a = a.get();
        }
        prop_assert_eq!(a.get(), sum_a);
        prop_assert_eq!(b.get(), sum_b);
    }
}
