//! Property-based tests for the page-management substrate: the binned page
//! lists must behave exactly like a naive reference model under arbitrary
//! operation sequences, and the frequency tracker's invariants must survive
//! cooling.

use std::collections::HashMap;

use memsim::TierId;
use proptest::prelude::*;
use tierctl::{FreqTracker, TierBins};

/// Operations the fuzzer drives against TierBins.
#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u8, u32),
    Remove(u64),
    UpdateCount(u64, u32),
    MoveTier(u64, u8),
}

/// 64 page ids spread over `0..12_000` with widening gaps, so the dense
/// per-page arrays grow in jumps and hold untracked holes.
fn vpn() -> impl Strategy<Value = u64> {
    (0u64..64).prop_map(|i| 3 * i * i)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (vpn(), 0u8..2, 0u32..20).prop_map(|(v, t, c)| Op::Insert(v, t, c)),
        vpn().prop_map(Op::Remove),
        (vpn(), 0u32..20).prop_map(|(v, c)| Op::UpdateCount(v, c)),
        (vpn(), 0u8..2).prop_map(|(v, t)| Op::MoveTier(v, t)),
    ]
}

proptest! {
    /// TierBins agrees with a plain HashMap model under arbitrary op
    /// sequences: same membership, same tier, and the page is always filed
    /// in the bin its count maps to (except after move_tier, which
    /// preserves the *bin*).
    #[test]
    fn bins_match_reference_model(ops in prop::collection::vec(op_strategy(), 1..300)) {
        let mut bins = TierBins::new(2, 5, 16);
        // Model: vpn -> (tier, bin).
        let mut model: HashMap<u64, (u8, usize)> = HashMap::new();
        for op in ops {
            match op {
                Op::Insert(v, t, c) => {
                    if let std::collections::hash_map::Entry::Vacant(e) = model.entry(v) {
                        bins.insert(v, TierId(t), c);
                        e.insert((t, bins.bin_of_count(c)));
                    }
                }
                Op::Remove(v) => {
                    bins.remove(v);
                    model.remove(&v);
                }
                Op::UpdateCount(v, c) => {
                    bins.update_count(v, c);
                    if let Some(e) = model.get_mut(&v) {
                        e.1 = bins.bin_of_count(c);
                    }
                }
                Op::MoveTier(v, t) => {
                    bins.move_tier(v, TierId(t));
                    if let Some(e) = model.get_mut(&v) {
                        e.0 = t;
                    }
                }
            }
            // Full consistency check.
            prop_assert_eq!(bins.len(), model.len());
            for (&v, &(t, b)) in &model {
                prop_assert_eq!(bins.tier_of(v), Some(TierId(t)), "vpn {}", v);
                prop_assert!(
                    bins.pages(TierId(t), b).contains(&v),
                    "vpn {} missing from tier {} bin {}", v, t, b
                );
            }
            // No phantom pages: every listed page is in the model.
            for t in 0..2u8 {
                for b in 0..5 {
                    for &v in bins.pages(TierId(t), b) {
                        prop_assert_eq!(model.get(&v), Some(&(t, b)));
                    }
                }
            }
        }
    }

    /// FreqTracker's running total always equals the sum of its counts,
    /// through arbitrary record/cool interleavings.
    #[test]
    fn tracker_total_is_consistent(
        records in prop::collection::vec((vpn(), prop::bool::ANY), 1..500),
        threshold in 2u32..64,
    ) {
        let mut t = FreqTracker::new(threshold);
        for (vpn, cool) in records {
            t.record(vpn);
            if cool {
                t.cool();
            }
            let sum: u64 = t.iter().map(|(_, c)| c as u64).sum();
            prop_assert_eq!(sum, t.total());
            prop_assert_eq!(t.iter().count(), t.tracked_pages());
            // No count may ever reach the threshold after record() returns.
            for (_, c) in t.iter() {
                prop_assert!(c < threshold * 2, "count {} vs threshold {}", c, threshold);
            }
        }
    }

    /// Access probabilities always sum to 1 (or 0 when empty).
    #[test]
    fn tracker_probabilities_normalise(
        records in prop::collection::vec(0u64..64, 0..300),
    ) {
        let mut t = FreqTracker::new(16);
        for vpn in &records {
            t.record(*vpn);
        }
        let sum: f64 = (0..64).map(|v| t.access_prob(v)).sum();
        if t.total() == 0 {
            prop_assert_eq!(sum, 0.0);
        } else {
            prop_assert!((sum - 1.0).abs() < 1e-9, "sum = {}", sum);
        }
    }
}
