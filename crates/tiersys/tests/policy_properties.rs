//! Property-based tests for the pluggable hotness-policy layer.
//!
//! Two levels of contract:
//!
//! 1. **Shadow model** — every [`HotnessPolicy`] implementation, driven
//!    by an arbitrary interleaving of inserts, removes, tier moves,
//!    access/fault signals, quantum boundaries, and ranking queries,
//!    tracks *exactly* the set of pages a trivial `HashMap` shadow
//!    tracks, reports finite non-negative heat for any page, and keeps
//!    its per-tier views (`ranked`, `victims`) consistent with the
//!    shadow's tier assignment. A mid-sequence [`swap_boxed`] must
//!    carry the whole tracked set across the policy change.
//! 2. **Conservation under churn** — a real system (any of the three,
//!    under any policy) running on a three-tier machine that suffers a
//!    mid-run tier-shrink hard fault (forced evacuation) *and* a
//!    mid-run policy hot-swap never loses, forks, or overflows a page.
//! 3. **Sparse cooling re-bin** — [`FreqBins`], which re-bins only the
//!    pages outside bin 0 after a cooling, keeps every bin list identical,
//!    order included, to HeMem's full managed-range walk.
//!
//! [`HotnessPolicy`]: tiersys::HotnessPolicy
//! [`swap_boxed`]: tiersys::policy::swap_boxed
//! [`FreqBins`]: tiersys::policy::FreqBins

// `SystemParams::new` genuinely takes a Vec of managed page ranges.
#![allow(clippy::single_range_in_vec_init)]
// The shadow and the policy must be updated together, so the entry API
// does not apply.
#![allow(clippy::map_entry)]

use std::collections::{BTreeMap, BTreeSet};

use memsim::{TierId, Vpn};
use proptest::prelude::*;
use tiersys::policy::{self, HotnessPolicy};
use tiersys::PolicyKind;

/// Managed-range width the shadow-model streams draw pages from.
const WS: u64 = 96;
const N_TIERS: usize = 3;

/// One step of the shadow-model stream.
#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u8),
    Remove(u64),
    MoveTier(u64, u8),
    Access(u64),
    Fault(u64, f64),
    EndQuantum,
    Victims(u8, usize),
    Ranked(u8),
}

fn op() -> impl Strategy<Value = Op> {
    let vpn = 0u64..WS;
    let tier = 0u8..N_TIERS as u8;
    prop_oneof![
        (vpn.clone(), tier.clone()).prop_map(|(v, t)| Op::Insert(v, t)),
        vpn.clone().prop_map(Op::Remove),
        (vpn.clone(), tier.clone()).prop_map(|(v, t)| Op::MoveTier(v, t)),
        vpn.clone().prop_map(Op::Access),
        vpn.prop_map(Op::Access),
        (0u64..WS, 1.0f64..1e6).prop_map(|(v, ttf)| Op::Fault(v, ttf)),
        Just(Op::EndQuantum),
        (tier.clone(), 0usize..16).prop_map(|(t, max)| Op::Victims(t, max)),
        tier.prop_map(Op::Ranked),
    ]
}

fn kind_idx() -> impl Strategy<Value = usize> {
    0usize..PolicyKind::ALL.len()
}

/// Checks the policy against the shadow after a step: identical tracked
/// sets, shadow-consistent `tier_of`, finite non-negative heat
/// everywhere (including untracked pages), and tier-consistent ranking.
fn check_against_shadow(
    p: &dyn HotnessPolicy,
    shadow: &BTreeMap<Vpn, TierId>,
    ctx: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        p.tracked_len(),
        shadow.len(),
        "{}: tracked_len diverged from shadow",
        ctx
    );
    let tracked: BTreeSet<Vpn> = p.tracked().into_iter().collect();
    let expect: BTreeSet<Vpn> = shadow.keys().copied().collect();
    prop_assert_eq!(tracked, expect, "{}: tracked set diverged", ctx);
    for (&vpn, &tier) in shadow {
        prop_assert_eq!(p.tier_of(vpn), Some(tier), "{}: tier_of({})", ctx, vpn);
        let h = p.heat_of(vpn);
        prop_assert!(
            h.is_finite() && h >= 0.0,
            "{}: heat_of({}) = {} not finite/non-negative",
            ctx,
            vpn,
            h
        );
    }
    // Untracked pages are uniformly cold, never NaN and never hot, even
    // after a remove and later signals on the page.
    for vpn in (0..WS).filter(|v| !shadow.contains_key(v)) {
        prop_assert_eq!(p.heat_of(vpn), 0.0, "{}: untracked heat of {}", ctx, vpn);
        prop_assert!(!p.is_hot(vpn), "{}: untracked page {} is hot", ctx, vpn);
    }
    prop_assert_eq!(p.heat_of(WS + 7), 0.0, "{}: untracked heat", ctx);
    // A policy's own `heat_total` equals the trait's ascending sum (by
    // value: an empty float sum is -0.0, `FreqBins`' integer total 0.0).
    let summed: f64 = p.tracked().iter().map(|&v| p.heat_of(v)).sum();
    prop_assert_eq!(p.heat_total(), summed, "{}: heat_total", ctx);
    for t in 0..N_TIERS as u8 {
        for vpn in p.ranked(TierId(t)) {
            prop_assert_eq!(
                shadow.get(&vpn),
                Some(&TierId(t)),
                "{}: ranked({}) returned page {} not on that tier",
                ctx,
                t,
                vpn
            );
        }
    }
    Ok(())
}

proptest! {
    /// Shadow model: every policy, under any op interleaving, tracks
    /// exactly the inserted-minus-removed set with the last-written tier,
    /// and its heat/ranking views stay consistent with that set.
    #[test]
    fn every_policy_matches_the_shadow_model(
        kind_idx in kind_idx(),
        ops in prop::collection::vec(op(), 1..250),
    ) {
        let kind = PolicyKind::ALL[kind_idx];
        let mut p = kind.build(N_TIERS, vec![0..WS]);
        let mut shadow: BTreeMap<Vpn, TierId> = BTreeMap::new();
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Insert(v, t) => {
                    // The trait contract is insert-exactly-once; skip
                    // pages the stream already tracks.
                    if !shadow.contains_key(&v) {
                        p.insert(v, TierId(t));
                        shadow.insert(v, TierId(t));
                    }
                }
                Op::Remove(v) => {
                    p.remove(v);
                    shadow.remove(&v);
                }
                Op::MoveTier(v, t) => {
                    p.move_tier(v, TierId(t));
                    if let Some(cur) = shadow.get_mut(&v) {
                        *cur = TierId(t);
                    }
                }
                Op::Access(v) => p.record_access(v),
                Op::Fault(v, ttf) => p.record_fault(v, ttf),
                Op::EndQuantum => p.end_quantum(),
                Op::Victims(t, max) => {
                    let vs = p.victims(TierId(t), max);
                    prop_assert!(vs.len() <= max, "op {i}: victims over max");
                    for v in vs {
                        prop_assert_eq!(
                            shadow.get(&v), Some(&TierId(t)),
                            "op {}: victim {} not on tier {}", i, v, t
                        );
                    }
                }
                Op::Ranked(t) => {
                    let _ = p.ranked(TierId(t));
                }
            }
            check_against_shadow(p.as_ref(), &shadow, &format!("op {i} ({op:?})"))?;
        }
    }

    /// Mid-sequence hot-swap: after warming any policy with any op
    /// stream, swapping to any other policy reseeds the *entire* tracked
    /// set — same pages, same tiers — and the newcomer satisfies the
    /// same shadow contract as it keeps running.
    #[test]
    fn swap_preserves_the_tracked_set(
        from_idx in kind_idx(),
        to_idx in kind_idx(),
        warm in prop::collection::vec(op(), 1..120),
        after in prop::collection::vec(op(), 1..60),
    ) {
        let from = PolicyKind::ALL[from_idx];
        let to = PolicyKind::ALL[to_idx];
        let mut slot = from.build(N_TIERS, vec![0..WS]);
        let mut shadow: BTreeMap<Vpn, TierId> = BTreeMap::new();
        for op in &warm {
            match *op {
                Op::Insert(v, t) => {
                    if !shadow.contains_key(&v) {
                        slot.insert(v, TierId(t));
                        shadow.insert(v, TierId(t));
                    }
                }
                Op::Remove(v) => {
                    slot.remove(v);
                    shadow.remove(&v);
                }
                Op::MoveTier(v, t) => {
                    slot.move_tier(v, TierId(t));
                    if let Some(cur) = shadow.get_mut(&v) {
                        *cur = TierId(t);
                    }
                }
                Op::Access(v) => slot.record_access(v),
                Op::Fault(v, ttf) => slot.record_fault(v, ttf),
                Op::EndQuantum => slot.end_quantum(),
                Op::Victims(t, max) => { let _ = slot.victims(TierId(t), max); }
                Op::Ranked(t) => { let _ = slot.ranked(TierId(t)); }
            }
        }

        let (was, reseeded) = policy::swap_boxed(&mut slot, to, N_TIERS, vec![0..WS]);
        prop_assert_eq!(was, from);
        prop_assert_eq!(slot.kind(), to);
        prop_assert_eq!(
            reseeded as usize, shadow.len(),
            "swap reseeded {} of {} tracked pages", reseeded, shadow.len()
        );
        check_against_shadow(slot.as_ref(), &shadow, "post-swap")?;

        for (i, op) in after.iter().enumerate() {
            match *op {
                Op::Insert(v, t) => {
                    if !shadow.contains_key(&v) {
                        slot.insert(v, TierId(t));
                        shadow.insert(v, TierId(t));
                    }
                }
                Op::Remove(v) => {
                    slot.remove(v);
                    shadow.remove(&v);
                }
                Op::MoveTier(v, t) => {
                    slot.move_tier(v, TierId(t));
                    if let Some(cur) = shadow.get_mut(&v) {
                        *cur = TierId(t);
                    }
                }
                Op::Access(v) => slot.record_access(v),
                Op::Fault(v, ttf) => slot.record_fault(v, ttf),
                Op::EndQuantum => slot.end_quantum(),
                Op::Victims(t, max) => { let _ = slot.victims(TierId(t), max); }
                Op::Ranked(t) => { let _ = slot.ranked(TierId(t)); }
            }
            check_against_shadow(slot.as_ref(), &shadow, &format!("post-swap op {i}"))?;
        }
    }
}

mod sparse_cooling_rebin {
    use std::ops::Range;

    use super::*;
    use tierctl::{FreqTracker, TierBins};
    use tiersys::policy::{FreqBins, FREQ_BINS_COOLING, FREQ_BINS_N_BINS};

    /// Page ids the streams draw from; managed ranges cover part of it.
    const DOMAIN: u64 = 56;

    /// HeMem's hotness tracking before the sparse re-bin: a cooling calls
    /// `update_count` on every managed vpn, range by range.
    struct FullWalk {
        tracker: FreqTracker,
        bins: TierBins,
        managed: Vec<Range<Vpn>>,
    }

    impl FullWalk {
        fn new(n_tiers: usize, managed: Vec<Range<Vpn>>) -> Self {
            FullWalk {
                tracker: FreqTracker::new(FREQ_BINS_COOLING),
                bins: TierBins::new(n_tiers, FREQ_BINS_N_BINS, FREQ_BINS_COOLING),
                managed,
            }
        }

        fn record_access(&mut self, vpn: Vpn) {
            if self.bins.tier_of(vpn).is_none() {
                return;
            }
            if self.tracker.record(vpn) {
                for range in self.managed.clone() {
                    for v in range {
                        self.bins.update_count(v, self.tracker.count(v));
                    }
                }
            } else {
                self.bins.update_count(vpn, self.tracker.count(vpn));
            }
        }
    }

    #[derive(Debug, Clone)]
    enum BinOp {
        Insert(u64, u8),
        Remove(u64),
        MoveTier(u64, u8),
        /// `n` consecutive samples of one page, so counts reach the
        /// cooling threshold often.
        Access(u64, u32),
    }

    fn bin_op() -> impl Strategy<Value = BinOp> {
        let vpn = 0u64..DOMAIN;
        let access = || (0u64..DOMAIN, 1u32..8).prop_map(|(v, n)| BinOp::Access(v, n));
        prop_oneof![
            (vpn.clone(), 0u8..3).prop_map(|(v, t)| BinOp::Insert(v, t)),
            vpn.clone().prop_map(BinOp::Remove),
            (vpn, 0u8..3).prop_map(|(v, t)| BinOp::MoveTier(v, t)),
            access(),
            access(),
        ]
    }

    /// One to three managed ranges inside the domain, possibly
    /// overlapping, listed in either order.
    fn managed() -> impl Strategy<Value = Vec<Range<Vpn>>> {
        (
            prop::collection::vec((0u64..DOMAIN - 8, 1u64..24), 1..=3),
            prop::bool::ANY,
        )
            .prop_map(|(spans, descending)| {
                let mut ranges: Vec<Range<Vpn>> = spans
                    .into_iter()
                    .map(|(start, len)| start..(start + len).min(DOMAIN))
                    .collect();
                ranges.sort_by_key(|r| r.start);
                if descending {
                    ranges.reverse();
                }
                ranges
            })
    }

    fn check_same(
        fast: &FreqBins,
        slow: &FullWalk,
        n_tiers: usize,
        ctx: &str,
    ) -> Result<(), TestCaseError> {
        for t in 0..n_tiers as u8 {
            for b in 0..FREQ_BINS_N_BINS {
                prop_assert_eq!(
                    fast.bins.pages(TierId(t), b),
                    slow.bins.pages(TierId(t), b),
                    "{}: tier {} bin {} list differs",
                    ctx,
                    t,
                    b
                );
            }
        }
        for v in 0..DOMAIN {
            prop_assert_eq!(
                fast.tracker.count(v),
                slow.tracker.count(v),
                "{}: count({})",
                ctx,
                v
            );
        }
        prop_assert_eq!(fast.tracker.total(), slow.tracker.total(), "{}: total", ctx);
        prop_assert_eq!(
            fast.tracker.coolings(),
            slow.tracker.coolings(),
            "{}: coolings",
            ctx
        );
        prop_assert_eq!(
            fast.stats().epochs,
            slow.tracker.coolings(),
            "{}: epochs",
            ctx
        );
        Ok(())
    }

    proptest! {
        /// Re-binning only the pages outside bin 0 after a cooling yields
        /// the same bin lists, in the same order, as the full walk.
        #[test]
        fn sparse_rebin_matches_full_walk(
            n_tiers in 2usize..=3,
            managed in managed(),
            ops in prop::collection::vec(bin_op(), 1..400),
        ) {
            let mut fast = FreqBins::new(n_tiers, managed.clone());
            let mut slow = FullWalk::new(n_tiers, managed);
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    BinOp::Insert(v, t) => {
                        let tier = TierId(t % n_tiers as u8);
                        if slow.bins.tier_of(v).is_none() {
                            fast.insert(v, tier);
                            slow.bins.insert(v, tier, slow.tracker.count(v));
                        }
                    }
                    BinOp::Remove(v) => {
                        fast.remove(v);
                        slow.bins.remove(v);
                        slow.tracker.forget(v);
                    }
                    BinOp::MoveTier(v, t) => {
                        let tier = TierId(t % n_tiers as u8);
                        fast.move_tier(v, tier);
                        slow.bins.move_tier(v, tier);
                    }
                    BinOp::Access(v, n) => {
                        for _ in 0..n {
                            fast.record_access(v);
                            slow.record_access(v);
                        }
                    }
                }
                check_same(&fast, &slow, n_tiers, &format!("op {i} ({op:?})"))?;
            }
        }
    }
}

mod conservation_under_churn {
    use super::*;
    use memsim::{
        AccessStream, CoreConfig, Machine, MachineConfig, ObjectAccess, TickReport, TrafficClass,
        LINES_PER_PAGE, LINE_SIZE, PAGE_SIZE,
    };
    use memsim::{FaultPlan, TierShrink};
    use rand::rngs::SmallRng;
    use rand::Rng;
    use simkit::SimTime;
    use tiersys::{build_system, ColloidParams, SystemKind, SystemParams};

    const APP_BASE: u64 = 1024;

    /// 90/10 hot/cold stream over `[base, base + total)`.
    struct HotCold {
        base: u64,
        hot: u64,
        total: u64,
    }
    impl AccessStream for HotCold {
        fn next(&mut self, _now: SimTime, rng: &mut SmallRng) -> ObjectAccess {
            let off = if rng.gen_bool(0.9) {
                rng.gen_range(0..self.hot)
            } else {
                rng.gen_range(0..self.total)
            };
            let vpn = self.base + off;
            ObjectAccess::read_line(vpn * PAGE_SIZE + rng.gen_range(0..LINES_PER_PAGE) * LINE_SIZE)
        }
    }

    proptest! {
        /// Any system × any starting policy × any swap target, on a
        /// three-tier machine with a tier-shrink hard fault (forced
        /// evacuation) landing mid-run and a policy hot-swap right after:
        /// pages are conserved at every tick, no tier is over its
        /// (possibly shrunk) capacity at a checkpoint, and heat stays
        /// finite for every managed page.
        #[test]
        fn shrink_and_swap_conserve_pages(
            kind_idx in 0usize..3,
            colloid in prop::bool::ANY,
            start_idx in kind_idx(),
            target_idx in kind_idx(),
            ws in 128u64..=192,
            hot in 16u64..=48,
            seed in 0u64..1_000_000,
        ) {
            let kind = SystemKind::ALL[kind_idx];
            let mut cfg = MachineConfig::cxl_three_tier();
            cfg.tiers[0].capacity_bytes = 96 * PAGE_SIZE;
            cfg.tiers[1].capacity_bytes = 128 * PAGE_SIZE;
            cfg.tiers[2].capacity_bytes = 2048 * PAGE_SIZE;
            cfg.pebs_period = 16;
            cfg.seed = seed;
            // Mid-run hard fault: the middle tier loses half its frames,
            // force-evacuating whatever sat on the lost ones.
            cfg.faults = FaultPlan {
                tier_shrinks: vec![TierShrink {
                    tier: TierId(1),
                    at: SimTime::from_us(100.0 * 30.0),
                    new_frames: 64,
                }],
                ..FaultPlan::none()
            };
            let mut m = Machine::new(cfg);
            m.place_range(APP_BASE..APP_BASE + ws, TierId(2));
            m.add_core(
                Box::new(HotCold { base: APP_BASE, hot, total: ws }),
                CoreConfig::app_default(),
                TrafficClass::App,
            );
            let mut params = SystemParams::new(
                vec![APP_BASE..APP_BASE + ws],
                colloid.then(ColloidParams::default),
            );
            params.unloaded_ns = m
                .config()
                .tiers
                .iter()
                .map(|t| t.unloaded_latency().as_ns())
                .collect();
            params.policy = Some(PolicyKind::ALL[start_idx]);
            let mut system = build_system(kind, params);

            let step = |system: &mut Box<dyn tiersys::TieringSystem>,
                            m: &mut Machine|
             -> TickReport {
                let rep = m.run_tick(SimTime::from_us(100.0));
                system.on_tick(m, &rep);
                rep
            };
            // The machine checks its own books after every tick. A shrunk
            // tier may hold more than its new capacity while an evacuation
            // is deferred, so that bound is checked here, at checkpoints.
            let within_capacity = |m: &Machine| {
                (0..3).map(TierId).all(|t| m.used_pages(t) <= m.capacity_pages(t))
            };

            for tick in 0..40 {
                step(&mut system, &mut m);
                if tick % 10 == 9 {
                    prop_assert!(within_capacity(&m), "tick {}: a tier is over capacity", tick);
                }
            }
            // Hot-swap after the shrink has landed and its evacuation
            // backlog has been absorbed.
            prop_assert!(system.swap_policy(PolicyKind::ALL[target_idx]));
            prop_assert_eq!(system.policy_kind(), Some(PolicyKind::ALL[target_idx]));
            for tick in 0..30 {
                step(&mut system, &mut m);
                if tick % 10 == 9 {
                    prop_assert!(
                        within_capacity(&m),
                        "post-swap tick {}: a tier is over capacity",
                        tick
                    );
                    for vpn in APP_BASE..APP_BASE + ws {
                        let h = system.heat_of(vpn);
                        prop_assert!(h.is_finite() && h >= 0.0);
                    }
                }
            }
        }
    }
}
