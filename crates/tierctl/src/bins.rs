//! Per-tier, per-frequency-bin page lists.
//!
//! The Colloid/HeMem integration (paper §4.1) replaces HeMem's binary
//! hot/cold lists with one page list per frequency bin so the page-finding
//! procedure can "iterate over bins to find pages whose sum of access
//! probability is less than or equal to Δp". [`TierBins`] maintains, for
//! each tier, `n_bins` sets of pages partitioned by their frequency count;
//! membership updates are O(1) (swap-remove indexed by a dense page map).

use memsim::{TierId, Vpn};

/// Location of a page inside the bin structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    tier: u8,
    bin: u8,
    idx: u32,
}

impl Slot {
    /// The slot of a page that is not tracked.
    const UNTRACKED: Slot = Slot {
        tier: u8::MAX,
        bin: 0,
        idx: 0,
    };

    fn is_tracked(self) -> bool {
        self.tier != u8::MAX
    }
}

/// Page lists per `(tier, frequency bin)`.
///
/// Bin `b` holds pages whose count `c` satisfies
/// `b = min(c * n_bins / cooling_threshold, n_bins - 1)`; bin 0 is the
/// coldest, bin `n_bins - 1` the hottest.
///
/// Each page's position is kept in a dense array indexed by vpn that grows
/// on demand to the highest vpn inserted (page ids are packed from 0
/// machine-wide), with a sentinel for pages that are not tracked.
///
/// # Examples
///
/// ```
/// use memsim::TierId;
///
/// let mut bins = tierctl::TierBins::new(2, 5, 16);
/// bins.insert(7, TierId::DEFAULT, 0);
/// bins.update_count(7, 15); // hottest bin
/// assert_eq!(bins.bin_of_count(15), 4);
/// let hottest: Vec<u64> = bins.pages(TierId::DEFAULT, 4).to_vec();
/// assert_eq!(hottest, vec![7]);
/// ```
#[derive(Debug, Clone)]
pub struct TierBins {
    /// `lists[tier][bin]` = pages.
    lists: Vec<Vec<Vec<Vpn>>>,
    /// `slots[vpn]`; [`Slot::UNTRACKED`] for pages not tracked.
    slots: Vec<Slot>,
    /// Number of tracked pages.
    len: usize,
    n_bins: usize,
    cooling_threshold: u32,
}

impl TierBins {
    /// Creates bins for `tiers` tiers, `n_bins` frequency bins, and the
    /// tracker's `cooling_threshold` (the top of the frequency space).
    ///
    /// # Panics
    ///
    /// Panics if `tiers`, `n_bins` are zero or `cooling_threshold < 2`.
    pub fn new(tiers: usize, n_bins: usize, cooling_threshold: u32) -> Self {
        assert!(tiers > 0 && tiers < 256 && n_bins > 0 && n_bins < 256);
        assert!(cooling_threshold >= 2);
        TierBins {
            lists: vec![vec![Vec::new(); n_bins]; tiers],
            slots: Vec::new(),
            len: 0,
            n_bins,
            cooling_threshold,
        }
    }

    fn slot(&self, vpn: Vpn) -> Option<Slot> {
        self.slots
            .get(vpn as usize)
            .copied()
            .filter(|s| s.is_tracked())
    }

    /// The bin a page with frequency `count` belongs to.
    pub fn bin_of_count(&self, count: u32) -> usize {
        ((count as usize * self.n_bins) / self.cooling_threshold as usize).min(self.n_bins - 1)
    }

    /// Number of bins.
    pub fn n_bins(&self) -> usize {
        self.n_bins
    }

    /// Inserts a page with frequency `count` into `tier`'s lists.
    ///
    /// # Panics
    ///
    /// Panics if the page is already tracked.
    pub fn insert(&mut self, vpn: Vpn, tier: TierId, count: u32) {
        assert!(self.slot(vpn).is_none(), "page {vpn} double-tracked");
        let bin = self.bin_of_count(count);
        let list = &mut self.lists[tier.index()][bin];
        list.push(vpn);
        let slot = Slot {
            tier: tier.0,
            bin: bin as u8,
            idx: (list.len() - 1) as u32,
        };
        let i = vpn as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, Slot::UNTRACKED);
        }
        self.slots[i] = slot;
        self.len += 1;
    }

    /// Removes a page; no-op if untracked.
    pub fn remove(&mut self, vpn: Vpn) {
        let Some(slot) = self.slot(vpn) else {
            return;
        };
        self.slots[vpn as usize] = Slot::UNTRACKED;
        self.len -= 1;
        let list = &mut self.lists[slot.tier as usize][slot.bin as usize];
        let idx = slot.idx as usize;
        let last = list.pop().expect("slot points into a non-empty list");
        if idx < list.len() {
            list[idx] = last;
            self.slots[last as usize].idx = slot.idx;
        } else {
            debug_assert_eq!(last, vpn);
        }
    }

    /// Re-bins a page after its frequency count changed.
    ///
    /// No-op if the page is untracked (e.g. pinned pages never inserted).
    pub fn update_count(&mut self, vpn: Vpn, count: u32) {
        let Some(slot) = self.slot(vpn) else {
            return;
        };
        let new_bin = self.bin_of_count(count) as u8;
        if new_bin == slot.bin {
            return;
        }
        let tier = TierId(slot.tier);
        self.remove(vpn);
        self.insert(vpn, tier, count);
    }

    /// Moves a page to a different tier, keeping its bin.
    pub fn move_tier(&mut self, vpn: Vpn, dst: TierId) {
        let Some(slot) = self.slot(vpn) else {
            return;
        };
        if slot.tier == dst.0 {
            return;
        }
        // Reconstruct an equivalent count for the bin midpoint; the exact
        // count is re-applied by the next `update_count`.
        let bin = slot.bin;
        self.remove(vpn);
        // Smallest count that maps back into `bin`.
        let count = (bin as u32 * self.cooling_threshold).div_ceil(self.n_bins as u32);
        self.insert(vpn, dst, count);
        debug_assert_eq!(
            self.slots[vpn as usize].bin, bin,
            "bin must be preserved across tier moves"
        );
    }

    /// The tier a page is currently filed under, if tracked.
    pub fn tier_of(&self, vpn: Vpn) -> Option<TierId> {
        self.slot(vpn).map(|s| TierId(s.tier))
    }

    /// Pages in `tier`'s bin `bin`.
    pub fn pages(&self, tier: TierId, bin: usize) -> &[Vpn] {
        &self.lists[tier.index()][bin]
    }

    /// Every tracked page, in ascending vpn order.
    pub fn tracked(&self) -> impl Iterator<Item = Vpn> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_tracked())
            .map(|(v, _)| v as Vpn)
    }

    /// Number of pages tracked in `tier`.
    pub fn tier_len(&self, tier: TierId) -> usize {
        self.lists[tier.index()].iter().map(Vec::len).sum()
    }

    /// Total tracked pages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no pages are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: TierId = TierId::DEFAULT;
    const A: TierId = TierId::ALTERNATE;

    fn bins() -> TierBins {
        TierBins::new(2, 5, 16)
    }

    #[test]
    fn bin_boundaries() {
        let b = bins();
        assert_eq!(b.bin_of_count(0), 0);
        assert_eq!(b.bin_of_count(3), 0);
        assert_eq!(b.bin_of_count(4), 1);
        assert_eq!(b.bin_of_count(15), 4);
        assert_eq!(b.bin_of_count(100), 4, "clamps to the hottest bin");
    }

    #[test]
    fn insert_and_query() {
        let mut b = bins();
        b.insert(1, D, 0);
        b.insert(2, D, 10);
        b.insert(3, A, 10);
        assert_eq!(b.pages(D, 0), &[1]);
        assert_eq!(b.pages(D, 3), &[2]);
        assert_eq!(b.pages(A, 3), &[3]);
        assert_eq!(b.tier_len(D), 2);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn remove_swaps_correctly() {
        let mut b = bins();
        for vpn in 0..10 {
            b.insert(vpn, D, 0);
        }
        b.remove(0);
        b.remove(9);
        b.remove(4);
        assert_eq!(b.tier_len(D), 7);
        // All remaining pages must still be findable and removable.
        for vpn in [1, 2, 3, 5, 6, 7, 8] {
            assert_eq!(b.tier_of(vpn), Some(D));
            b.remove(vpn);
        }
        assert!(b.is_empty());
    }

    #[test]
    fn update_count_rebins() {
        let mut b = bins();
        b.insert(1, D, 0);
        b.update_count(1, 15);
        assert!(b.pages(D, 0).is_empty());
        assert_eq!(b.pages(D, 4), &[1]);
        // Cooling halves 15 -> 7 -> bin 2.
        b.update_count(1, 7);
        assert_eq!(b.pages(D, 2), &[1]);
    }

    #[test]
    fn move_tier_preserves_bin() {
        let mut b = bins();
        b.insert(1, D, 13);
        let bin = b.bin_of_count(13);
        b.move_tier(1, A);
        assert_eq!(b.tier_of(1), Some(A));
        assert_eq!(b.pages(A, bin), &[1]);
        assert!(b.pages(D, bin).is_empty());
    }

    #[test]
    fn untracked_updates_are_noops() {
        let mut b = bins();
        b.update_count(99, 5);
        b.move_tier(99, A);
        b.remove(99);
        assert!(b.is_empty());
    }

    #[test]
    fn far_vpn_grows_the_slot_array() {
        let mut b = bins();
        let far: Vpn = 1 << 20;
        b.insert(far, A, 15);
        b.insert(2, D, 0);
        assert_eq!(b.tier_of(far), Some(A));
        assert_eq!(b.tier_of(far - 1), None);
        assert_eq!(
            b.tier_of(far + 1),
            None,
            "lookups past the end are untracked"
        );
        assert_eq!(b.tier_of(u64::MAX), None);
        assert_eq!(b.pages(A, 4), &[far]);
        assert_eq!(b.tracked().collect::<Vec<_>>(), vec![2, far]);
        b.remove(far);
        assert_eq!(b.tier_of(far), None);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn remove_then_reinsert() {
        let mut b = bins();
        b.insert(5, D, 15);
        b.insert(6, D, 15);
        b.remove(5);
        assert_eq!(b.tier_of(5), None);
        assert_eq!(b.pages(D, 4), &[6]);
        // Re-insert on another tier and bin: filed afresh, no stale slot.
        b.insert(5, A, 0);
        assert_eq!(b.tier_of(5), Some(A));
        assert_eq!(b.pages(A, 0), &[5]);
        assert_eq!(b.pages(D, 4), &[6]);
        b.update_count(5, 8);
        assert_eq!(b.pages(A, 2), &[5]);
        assert!(b.pages(A, 0).is_empty());
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn len_and_is_empty_after_removes() {
        let mut b = bins();
        assert!(b.is_empty());
        for vpn in [9u64, 1, 4] {
            b.insert(vpn, D, (vpn as u32) * 2);
        }
        assert_eq!((b.len(), b.is_empty()), (3, false));
        b.remove(1);
        b.remove(1); // double remove is a no-op
        b.remove(100); // never tracked, past the end of the slot array
        assert_eq!((b.len(), b.is_empty()), (2, false));
        b.remove(9);
        b.remove(4);
        assert_eq!((b.len(), b.is_empty()), (0, true));
        assert_eq!(b.tracked().count(), 0);
    }

    #[test]
    #[should_panic]
    fn double_insert_panics() {
        let mut b = bins();
        b.insert(1, D, 0);
        b.insert(1, A, 0);
    }
}
