//! Per-page provenance: fold the copies that landed into per-page move
//! histories, split them into useful and wasted work, detect churn
//! (ping-pong: a page migrated again within a short window), and attribute
//! wasted copies to the controller decision that issued them (the "blame"
//! report). This is the one fold of a run's copy history; the counts of
//! started, completed and aborted copies are the migration engine's books.
//!
//! The input is the recorded span and event streams. Every page copy is
//! one async `migration` span carrying `{vpn, src, dst}` and a `cause`
//! link to the decision span in force when the migration was enqueued
//! (see [`crate::span`]). An aborted transactional copy closes its span
//! too, so a span counts as a landed copy only when a `MigrationComplete`
//! event of the same page carries its close time. The useful/wasted split
//! follows per-tier round trips over the page's landed copies (see
//! [`classify_round_trips`]): a copy is wasted iff a later copy returns
//! the page to a tier it had already visited, which for two tiers
//! degenerates to the old `c % 2` rule. The `--smoke` gates of `grid
//! timeline`, `gauntlet` and `policy` check that the fold's `completed`
//! equals the engine's completed count.

use std::collections::HashMap;
use std::fmt::Write as _;

use simkit::SimTime;

use crate::event::{Event, EventKind, TenantId};
use crate::span::{SpanId, SpanIndex, SpanKind, SpanPayload, SpanRecord};

/// One landed copy of a page.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageMove {
    /// When the copy completed.
    pub t: SimTime,
    /// Source tier the copy left.
    pub src: u8,
    /// Destination tier.
    pub dst: u8,
    /// The migration span that carried the copy.
    pub span: SpanId,
    /// The decision span the copy was attributed to (`NONE` if untracked).
    pub cause: SpanId,
    /// Whether a later round trip undid this copy.
    pub wasted: bool,
}

/// Splits a page's landed copies into useful and wasted by per-tier
/// round trips: walking the move history with a stack of visited tiers
/// (seeded with `first_src`), a copy into an unvisited tier extends the
/// page's net displacement and is tentatively useful; a copy back into a
/// tier already on the stack closes a round trip, wasting itself *and*
/// every copy made since the page last left that tier. Returns one
/// `wasted` flag per move, in order.
///
/// With two tiers every move alternates direction, so the stack never
/// grows past two entries and the result degenerates to the historical
/// rule: of `c` copies, `c % 2` are useful (the last one, iff the count
/// is odd).
pub fn classify_round_trips(first_src: u8, dsts: &[u8]) -> Vec<bool> {
    // (tier, index of the move that entered it); the seed has no move.
    let mut stack: Vec<(u8, Option<usize>)> = vec![(first_src, None)];
    let mut wasted = vec![false; dsts.len()];
    for (i, &dst) in dsts.iter().enumerate() {
        if let Some(k) = stack.iter().position(|&(t, _)| t == dst) {
            // Round trip: everything since the page last left `dst` —
            // the copies that entered the now-abandoned tiers plus this
            // returning copy — was net-zero displacement.
            for &(_, entered) in &stack[k + 1..] {
                if let Some(j) = entered {
                    wasted[j] = true;
                }
            }
            wasted[i] = true;
            stack.truncate(k + 1);
        } else {
            stack.push((dst, Some(i)));
        }
    }
    wasted
}

/// A page's full migration history.
#[derive(Debug, Clone, PartialEq)]
pub struct PageHistory {
    /// Virtual page number.
    pub vpn: u64,
    /// Tenant owning the page (from tenant-tagged events; `None` in
    /// single-workload runs).
    pub tenant: Option<TenantId>,
    /// Landed copies, oldest first.
    pub moves: Vec<PageMove>,
    /// Ping-pong incidents: a move followed by another within the window.
    pub ping_pongs: u64,
}

impl PageHistory {
    /// The tier the page ended in (destination of the last move).
    pub fn final_tier(&self) -> u8 {
        self.moves.last().map_or(u8::MAX, |m| m.dst)
    }

    /// Useful copies (net displacement along the tier chain; see
    /// [`classify_round_trips`]).
    pub fn useful(&self) -> u64 {
        self.moves.iter().filter(|m| !m.wasted).count() as u64
    }

    /// Wasted copies (undone by a round trip).
    pub fn wasted(&self) -> u64 {
        self.moves.iter().filter(|m| m.wasted).count() as u64
    }
}

/// One row of the blame report: a decision site and its migration tally.
#[derive(Debug, Clone, PartialEq)]
pub struct BlameEntry {
    /// Decision label, `name(mode)` (e.g. `colloid.decide(demote)`).
    pub site: String,
    /// Landed copies attributed to this site.
    pub issued: u64,
    /// Of those, copies a later round trip undid.
    pub wasted: u64,
}

/// The folded provenance of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvenanceReport {
    /// Per-page histories, ascending vpn.
    pub pages: Vec<PageHistory>,
    /// Copies that landed (sum of history lengths). Equals the engine's
    /// completed count when neither ring dropped a record.
    pub completed: u64,
    /// Copies contributing net displacement along each page's tier path
    /// (for two tiers this is the historical `Σ c_i % 2`).
    pub useful: u64,
    /// Copies undone by a later move (`completed - useful`).
    pub wasted: u64,
    /// The churn window used for ping-pong detection.
    pub window: SimTime,
    /// Pages with at least one ping-pong incident.
    pub ping_pong_pages: u64,
    /// Total ping-pong incidents across all pages.
    pub ping_pong_incidents: u64,
    /// Blame rows, most wasted first (ties by site name).
    pub blame: Vec<BlameEntry>,
    /// Landed copies whose cause chain did not reach a decision span
    /// (dropped spans, or migrations issued outside any decision).
    pub unattributed: u64,
}

impl ProvenanceReport {
    /// Fraction of landed copies that were useful (1.0 when none landed —
    /// nothing was wasted).
    pub fn efficiency(&self) -> f64 {
        if self.completed == 0 {
            1.0
        } else {
            self.useful as f64 / self.completed as f64
        }
    }

    /// Plain-text rendering (blame table, churn summary).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  provenance: {} completed copies over {} pages ({} useful / {} wasted)",
            self.completed,
            self.pages.len(),
            self.useful,
            self.wasted,
        );
        let _ = writeln!(
            out,
            "  ping-pong (window {:.2} ms): {} pages, {} incidents",
            self.window.as_ns() / 1e6,
            self.ping_pong_pages,
            self.ping_pong_incidents,
        );
        if self.blame.is_empty() {
            let _ = writeln!(out, "  blame: no attributed migrations");
        } else {
            let _ = writeln!(out, "  blame (wasted copies by issuing decision):");
            for b in &self.blame {
                let _ = writeln!(
                    out,
                    "    {:<28} issued {:>6}   wasted {:>6}",
                    b.site, b.issued, b.wasted
                );
            }
        }
        if self.unattributed > 0 {
            let _ = writeln!(out, "    (unattributed copies: {})", self.unattributed);
        }
        out
    }
}

/// Label for the decision a move's cause chain resolves to.
fn site_of(chain: &[&SpanRecord]) -> String {
    let decision = chain.last().expect("chain never empty");
    match decision.payload {
        SpanPayload::Decision { mode } => format!("{}({})", decision.name, mode),
        _ => decision.name.to_string(),
    }
}

/// Folds the migration spans of landed copies into per-page histories,
/// churn statistics, and the blame report. A span is a landed copy when a
/// `MigrationComplete` event in `events` names its page at its close time;
/// the spans of aborted copies have none and are skipped. `window` is the
/// ping-pong horizon: a page moved again within `window` of its previous
/// copy counts as one ping-pong incident.
pub fn provenance(events: &[Event], spans: &[SpanRecord], window: SimTime) -> ProvenanceReport {
    // Page ownership from tenant-tagged events (colocation runs): any
    // page-addressed event carrying a tenant claims the page. Completions
    // are counted per (page, time), one per landed copy.
    let mut page_tenant: HashMap<u64, TenantId> = HashMap::new();
    let mut landed: HashMap<(u64, SimTime), u32> = HashMap::new();
    for ev in events {
        if let (Some(vpn), Some(tenant)) = (ev.kind.vpn(), ev.tenant) {
            page_tenant.entry(vpn).or_insert(tenant);
        }
        if let EventKind::MigrationComplete { vpn, .. } = ev.kind {
            *landed.entry((vpn, ev.t)).or_default() += 1;
        }
    }

    let mut by_page: HashMap<u64, Vec<PageMove>> = HashMap::new();
    for sp in spans {
        if sp.kind != SpanKind::Async {
            continue;
        }
        let SpanPayload::Migration { vpn, src, dst } = sp.payload else {
            continue;
        };
        match landed.get_mut(&(vpn, sp.t_end)) {
            Some(n) if *n > 0 => *n -= 1,
            _ => continue,
        }
        by_page.entry(vpn).or_default().push(PageMove {
            t: sp.t_end,
            src,
            dst,
            span: sp.id,
            cause: sp.cause,
            wasted: false,
        });
    }

    let index = SpanIndex::new(spans);
    let mut pages: Vec<PageHistory> = Vec::with_capacity(by_page.len());
    let mut completed = 0u64;
    let mut useful = 0u64;
    let mut ping_pong_pages = 0u64;
    let mut ping_pong_incidents = 0u64;
    let mut unattributed = 0u64;
    let mut blame: HashMap<String, BlameEntry> = HashMap::new();
    for (vpn, mut moves) in by_page {
        moves.sort_by_key(|m| m.t);
        completed += moves.len() as u64;
        // A copy is wasted iff a later copy returns the page to a tier it
        // already visited: net displacement along the move path decides.
        let dsts: Vec<u8> = moves.iter().map(|m| m.dst).collect();
        let wasted_flags = classify_round_trips(moves[0].src, &dsts);
        useful += wasted_flags.iter().filter(|&&w| !w).count() as u64;
        for (m, w) in moves.iter_mut().zip(wasted_flags) {
            m.wasted = w;
            let site = if m.cause.is_some() {
                index.decision_chain(m.cause).map(|chain| site_of(&chain))
            } else {
                None
            };
            match site {
                Some(site) => {
                    let e = blame.entry(site.clone()).or_insert(BlameEntry {
                        site,
                        issued: 0,
                        wasted: 0,
                    });
                    e.issued += 1;
                    e.wasted += u64::from(m.wasted);
                }
                None => unattributed += 1,
            }
        }
        let ping_pongs = moves
            .windows(2)
            .filter(|w| w[1].t.saturating_sub(w[0].t) <= window)
            .count() as u64;
        ping_pong_incidents += ping_pongs;
        ping_pong_pages += u64::from(ping_pongs > 0);
        pages.push(PageHistory {
            vpn,
            tenant: page_tenant.get(&vpn).copied(),
            moves,
            ping_pongs,
        });
    }
    pages.sort_by_key(|p| p.vpn);

    let mut blame: Vec<BlameEntry> = blame.into_values().collect();
    blame.sort_by(|a, b| b.wasted.cmp(&a.wasted).then(a.site.cmp(&b.site)));

    ProvenanceReport {
        pages,
        completed,
        useful,
        wasted: completed - useful,
        window,
        ping_pong_pages,
        ping_pong_incidents,
        blame,
        unattributed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Source;

    fn decision(id: u64, mode: &'static str) -> SpanRecord {
        SpanRecord {
            id: SpanId(id),
            parent: SpanId::NONE,
            cause: SpanId::NONE,
            source: Source::Colloid,
            name: "colloid.decide",
            payload: SpanPayload::Decision { mode },
            t_start: SimTime::ZERO,
            t_end: SimTime::ZERO,
            kind: SpanKind::Scoped,
        }
    }

    fn migration(id: u64, cause: u64, vpn: u64, src: u8, dst: u8, t_us: f64) -> SpanRecord {
        SpanRecord {
            id: SpanId(id),
            parent: SpanId::NONE,
            cause: SpanId(cause),
            source: Source::Machine,
            name: "migration",
            payload: SpanPayload::Migration { vpn, src, dst },
            t_start: SimTime::from_us(t_us - 1.0),
            t_end: SimTime::from_us(t_us),
            kind: SpanKind::Async,
        }
    }

    /// One `MigrationComplete` per migration span, at its close: every
    /// copy in `spans` landed.
    fn landed(spans: &[SpanRecord]) -> Vec<Event> {
        let complete = |sp: &SpanRecord| match sp.payload {
            SpanPayload::Migration { vpn, src, dst } => Some(Event {
                t: sp.t_end,
                source: Source::Machine,
                tenant: None,
                kind: EventKind::MigrationComplete {
                    vpn,
                    src,
                    dst,
                    copy_ns: 1000.0,
                },
            }),
            _ => None,
        };
        spans.iter().filter_map(complete).collect()
    }

    #[test]
    fn two_tier_histories_split_useful_and_wasted() {
        // Page 1: three copies (1 useful, 2 wasted); page 2: two (both
        // wasted); page 3: one (useful).
        let spans = vec![
            decision(1, "demote"),
            migration(10, 1, 1, 0, 1, 10.0),
            migration(11, 1, 1, 1, 0, 500.0),
            migration(12, 1, 1, 0, 1, 900.0),
            migration(13, 1, 2, 0, 1, 20.0),
            migration(14, 1, 2, 1, 0, 800.0),
            migration(15, 1, 3, 0, 1, 30.0),
        ];
        let r = provenance(&landed(&spans), &spans, SimTime::from_us(50.0));
        assert_eq!(r.completed, 6);
        assert_eq!(r.useful, 2);
        assert_eq!(r.wasted, 4);
        assert!((r.efficiency() - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(r.pages.len(), 3);
        let p1 = &r.pages[0];
        assert_eq!(p1.vpn, 1);
        assert_eq!(p1.final_tier(), 1);
        assert_eq!(
            p1.moves.iter().map(|m| m.wasted).collect::<Vec<_>>(),
            vec![true, true, false]
        );
        assert_eq!((p1.useful(), p1.wasted()), (1, 2));
        // Blame reconciles with the totals.
        assert_eq!(r.blame.len(), 1);
        assert_eq!(r.blame[0].site, "colloid.decide(demote)");
        assert_eq!(r.blame[0].issued, 6);
        assert_eq!(r.blame[0].wasted, 4);
        assert_eq!(r.unattributed, 0);
    }

    #[test]
    fn empty_run_is_fully_efficient() {
        let r = provenance(&[], &[], SimTime::from_us(1.0));
        assert_eq!((r.completed, r.useful, r.wasted), (0, 0, 0));
        assert_eq!(r.efficiency(), 1.0);
    }

    #[test]
    fn ping_pong_detected_within_window_only() {
        let spans = vec![
            decision(1, "tick"),
            // Page 5 bounces back within 40us (window 50us): ping-pong.
            migration(10, 1, 5, 0, 1, 100.0),
            migration(11, 1, 5, 1, 0, 140.0),
            // Page 6 bounces back after 400us: churn but not ping-pong.
            migration(12, 1, 6, 0, 1, 100.0),
            migration(13, 1, 6, 1, 0, 500.0),
        ];
        let r = provenance(&landed(&spans), &spans, SimTime::from_us(50.0));
        assert_eq!(r.ping_pong_pages, 1);
        assert_eq!(r.ping_pong_incidents, 1);
        assert_eq!(r.pages[0].ping_pongs, 1);
        assert_eq!(r.pages[1].ping_pongs, 0);
    }

    #[test]
    fn unresolvable_causes_count_as_unattributed() {
        let spans = vec![
            migration(10, 99, 1, 0, 1, 10.0), // cause id never recorded
            migration(11, 0, 2, 0, 1, 20.0),  // no cause at all
        ];
        let r = provenance(&landed(&spans), &spans, SimTime::from_us(1.0));
        assert_eq!(r.unattributed, 2);
        assert!(r.blame.is_empty());
        assert!(r.render().contains("unattributed copies: 2"));
    }

    #[test]
    fn aborted_copies_are_not_folded() {
        // Page 1's first copy aborts at 5us (its span closes with no
        // completion event), then the retry lands at 10us. Page 2's only
        // recorded span closes at 20us, but the page completed at 30us
        // from a span the ring never kept: nothing of page 2 is folded.
        let spans = vec![
            decision(1, "tick"),
            migration(10, 1, 1, 0, 1, 5.0),
            migration(11, 1, 1, 0, 1, 10.0),
            migration(12, 1, 2, 0, 1, 20.0),
        ];
        let mut events = landed(&spans[2..3]);
        events.extend(landed(&[migration(13, 1, 2, 0, 1, 30.0)]));
        let r = provenance(&events, &spans, SimTime::from_us(50.0));
        assert_eq!((r.completed, r.useful, r.wasted), (1, 1, 0));
        assert_eq!(r.pages.len(), 1);
        assert_eq!(r.pages[0].moves[0].span, SpanId(11));
        assert_eq!(r.blame[0].issued, 1);
    }

    #[test]
    fn tenant_tagged_events_claim_page_histories() {
        let spans = vec![
            decision(1, "tick"),
            migration(10, 1, 1, 0, 1, 10.0),
            migration(11, 1, 7, 0, 1, 20.0), // page 7 never tagged
        ];
        let mut events = landed(&spans);
        events[0].tenant = Some(TenantId(2));
        let r = provenance(&events, &spans, SimTime::from_us(1.0));
        assert_eq!(r.pages[0].tenant, Some(TenantId(2)));
        assert_eq!(r.pages[1].tenant, None);
    }

    #[test]
    fn round_trip_rule_degenerates_to_c_mod_2_on_two_tiers() {
        // Pin: for any alternating two-tier history the generalized rule
        // reproduces the historical rule exactly — `c % 2` useful copies,
        // and only the last copy of an odd count survives.
        for c in 0..8usize {
            let dsts: Vec<u8> = (0..c).map(|i| ((i + 1) % 2) as u8).collect();
            let wasted = classify_round_trips(0, &dsts);
            let useful = wasted.iter().filter(|&&w| !w).count();
            assert_eq!(useful, c % 2, "c = {c}");
            if c % 2 == 1 {
                assert!(!wasted[c - 1], "odd count: last copy is the useful one");
            }
        }
    }

    #[test]
    fn round_trip_rule_counts_net_displacement_on_three_tiers() {
        // 0 -> 1 -> 2: two hops of net displacement, both useful.
        assert_eq!(classify_round_trips(0, &[1, 2]), vec![false, false]);
        // 0 -> 1 -> 2 -> 1: the detour through tier 2 was a round trip.
        assert_eq!(classify_round_trips(0, &[1, 2, 1]), vec![false, true, true]);
        // 0 -> 2 -> 1 -> 0: everything comes home; all wasted.
        assert_eq!(classify_round_trips(0, &[2, 1, 0]), vec![true, true, true]);
        // 0 -> 1 -> 0 -> 2: the first excursion is undone, the final hop
        // to tier 2 is real displacement.
        assert_eq!(classify_round_trips(0, &[1, 0, 2]), vec![true, true, false]);
    }

    #[test]
    fn three_tier_histories_fold_round_trips() {
        // Page 1 walks 0 -> 1 -> 2 (all useful); page 2 detours
        // 0 -> 1 -> 2 -> 1 (only the first hop survives).
        let spans = vec![
            decision(1, "demote"),
            migration(10, 1, 1, 0, 1, 10.0),
            migration(11, 1, 1, 1, 2, 500.0),
            migration(12, 1, 2, 0, 1, 20.0),
            migration(13, 1, 2, 1, 2, 600.0),
            migration(14, 1, 2, 2, 1, 900.0),
        ];
        let r = provenance(&landed(&spans), &spans, SimTime::from_us(50.0));
        assert_eq!(r.completed, 5);
        assert_eq!(r.useful, 3);
        assert_eq!(r.wasted, 2);
        let p1 = &r.pages[0];
        assert_eq!((p1.useful(), p1.wasted(), p1.final_tier()), (2, 0, 2));
        let p2 = &r.pages[1];
        assert_eq!((p2.useful(), p2.wasted(), p2.final_tier()), (1, 2, 1));
        // Blame still reconciles with the totals.
        assert_eq!(r.blame[0].issued, 5);
        assert_eq!(r.blame[0].wasted, 2);
    }
}
