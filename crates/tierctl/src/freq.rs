//! Per-page access-frequency tracking (HeMem/MEMTIS-style).
//!
//! HeMem maintains per-page frequency counts updated from PEBS samples and
//! *cools* pages by halving every count whenever any count reaches
//! `COOLING_THRESHOLD` (paper §4.1). The Colloid integrations derive each
//! page's **access probability** as its count divided by the cumulative
//! count over all pages — exactly what [`FreqTracker::access_prob`]
//! computes.

use memsim::Vpn;

/// Per-page access-frequency counts with cooling.
///
/// Counts live in a dense array indexed by vpn that grows on demand to the
/// highest vpn recorded (page ids are packed from 0 machine-wide, like
/// `Machine`'s placement map), so a record is one array write and a
/// cooling is one linear halving pass.
///
/// # Examples
///
/// ```
/// let mut t = tierctl::FreqTracker::new(8);
/// t.record(42);
/// t.record(42);
/// t.record(7);
/// assert_eq!(t.count(42), 2);
/// assert!((t.access_prob(42) - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct FreqTracker {
    /// `counts[vpn]`; 0 for pages never sampled (or cooled to zero).
    counts: Vec<u32>,
    /// Sum of `counts`.
    total: u64,
    /// Number of non-zero entries in `counts`.
    nonzero: usize,
    cooling_threshold: u32,
    coolings: u64,
}

impl FreqTracker {
    /// Creates a tracker that cools when any count reaches
    /// `cooling_threshold` (HeMem's `COOLING_THRESHOLD`; must be ≥ 2).
    ///
    /// # Panics
    ///
    /// Panics if `cooling_threshold < 2`.
    pub fn new(cooling_threshold: u32) -> Self {
        assert!(cooling_threshold >= 2, "cooling threshold must be >= 2");
        FreqTracker {
            counts: Vec::new(),
            total: 0,
            nonzero: 0,
            cooling_threshold,
            coolings: 0,
        }
    }

    /// Records one sampled access to `vpn`; cools if the page's count
    /// reaches the threshold. Returns `true` if a cooling pass ran.
    pub fn record(&mut self, vpn: Vpn) -> bool {
        let i = vpn as usize;
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        let c = &mut self.counts[i];
        if *c == 0 {
            self.nonzero += 1;
        }
        *c += 1;
        self.total += 1;
        if *c >= self.cooling_threshold {
            self.cool();
            true
        } else {
            false
        }
    }

    /// Halves every count (pages that reach zero stop counting as
    /// tracked) — HeMem cooling.
    pub fn cool(&mut self) {
        let mut total = 0u64;
        let mut nonzero = 0usize;
        for c in &mut self.counts {
            *c /= 2;
            total += u64::from(*c);
            nonzero += usize::from(*c > 0);
        }
        self.total = total;
        self.nonzero = nonzero;
        self.coolings += 1;
    }

    /// Drops `vpn`'s count, so it no longer adds to the total.
    pub fn forget(&mut self, vpn: Vpn) {
        if let Some(c) = self.counts.get_mut(vpn as usize) {
            self.total -= u64::from(*c);
            self.nonzero -= usize::from(*c > 0);
            *c = 0;
        }
    }

    /// Current count of `vpn` (0 if never sampled).
    pub fn count(&self, vpn: Vpn) -> u32 {
        self.counts.get(vpn as usize).copied().unwrap_or(0)
    }

    /// Access probability of `vpn`: its count over the cumulative count.
    ///
    /// Returns 0.0 when nothing has been sampled yet.
    pub fn access_prob(&self, vpn: Vpn) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(vpn) as f64 / self.total as f64
        }
    }

    /// Cumulative count across all pages.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of pages with a non-zero count.
    pub fn tracked_pages(&self) -> usize {
        self.nonzero
    }

    /// Number of cooling passes performed.
    pub fn coolings(&self) -> u64 {
        self.coolings
    }

    /// The cooling threshold.
    pub fn cooling_threshold(&self) -> u32 {
        self.cooling_threshold
    }

    /// Iterates over the `(vpn, count)` pairs with a non-zero count, in
    /// ascending vpn order.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, u32)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(v, &c)| (v as Vpn, c))
    }

    /// The `q`-quantile of non-zero counts (used by MEMTIS's dynamic hot
    /// threshold). Returns 0 if nothing is tracked.
    pub fn count_quantile(&self, q: f64) -> u32 {
        if self.nonzero == 0 {
            return 0;
        }
        let mut v: Vec<u32> = self.iter().map(|(_, c)| c).collect();
        v.sort_unstable();
        let idx = ((q.clamp(0.0, 1.0)) * (v.len() - 1) as f64).round() as usize;
        v[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let mut t = FreqTracker::new(100);
        for _ in 0..5 {
            t.record(1);
        }
        t.record(2);
        assert_eq!(t.count(1), 5);
        assert_eq!(t.count(2), 1);
        assert_eq!(t.total(), 6);
        assert_eq!(t.tracked_pages(), 2);
    }

    #[test]
    fn access_probs_sum_to_one() {
        let mut t = FreqTracker::new(1000);
        for vpn in 0..50 {
            for _ in 0..=vpn {
                t.record(vpn);
            }
        }
        let sum: f64 = (0..50).map(|v| t.access_prob(v)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cooling_halves_counts() {
        let mut t = FreqTracker::new(8);
        for _ in 0..7 {
            assert!(!t.record(9));
        }
        // The 8th sample triggers cooling: 8/2 = 4.
        assert!(t.record(9));
        assert_eq!(t.count(9), 4);
        assert_eq!(t.coolings(), 1);
    }

    #[test]
    fn cooling_drops_cold_pages() {
        let mut t = FreqTracker::new(4);
        t.record(1); // count 1
        t.record(2);
        t.record(2);
        t.record(2);
        t.record(2); // triggers cooling: 2 -> 2, 1 -> 0 (dropped)
        assert_eq!(t.count(1), 0);
        assert_eq!(t.count(2), 2);
        assert_eq!(t.tracked_pages(), 1);
        assert_eq!(t.total(), 2);
    }

    #[test]
    fn total_consistent_after_cooling() {
        let mut t = FreqTracker::new(16);
        for i in 0..100u64 {
            for _ in 0..(i % 7) {
                t.record(i);
            }
        }
        t.cool();
        let recomputed: u64 = t.iter().map(|(_, c)| c as u64).sum();
        assert_eq!(recomputed, t.total());
    }

    #[test]
    fn far_vpn_grows_the_array() {
        let mut t = FreqTracker::new(16);
        let far: Vpn = 1 << 20;
        t.record(far);
        t.record(3);
        assert_eq!(t.count(far), 1);
        assert_eq!(t.count(far - 1), 0);
        assert_eq!(t.count(far + 1), 0, "reads past the end are zero");
        assert_eq!(t.count(u64::MAX), 0);
        assert_eq!(t.tracked_pages(), 2);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(3, 1), (far, 1)]);
    }

    #[test]
    fn forget_drops_a_count_from_the_total() {
        let mut t = FreqTracker::new(100);
        t.record(3);
        t.record(3);
        t.record(9);
        t.forget(3);
        t.forget(500);
        assert_eq!((t.count(3), t.total(), t.tracked_pages()), (0, 1, 1));
    }

    #[test]
    fn cooling_to_zero_updates_tracked_pages_and_total() {
        let mut t = FreqTracker::new(8);
        for vpn in [10u64, 2, 7] {
            t.record(vpn); // count 1: halves to 0
        }
        for _ in 0..3 {
            t.record(5); // count 3: halves to 1
        }
        assert_eq!((t.tracked_pages(), t.total()), (4, 6));
        t.cool();
        assert_eq!(t.tracked_pages(), 1);
        assert_eq!(t.total(), 1);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(5, 1)]);
        // A page cooled to zero counts as new when sampled again.
        t.record(2);
        assert_eq!((t.tracked_pages(), t.total()), (2, 2));
        t.cool();
        assert_eq!((t.tracked_pages(), t.total()), (0, 0));
        assert_eq!(t.count_quantile(0.5), 0);
    }

    #[test]
    fn iter_is_ascending_by_vpn() {
        let mut t = FreqTracker::new(100);
        for vpn in [40u64, 3, 17, 3, 99, 0] {
            t.record(vpn);
        }
        let vpns: Vec<Vpn> = t.iter().map(|(v, _)| v).collect();
        assert_eq!(vpns, vec![0, 3, 17, 40, 99]);
    }

    #[test]
    fn quantile_of_counts() {
        let mut t = FreqTracker::new(1000);
        for vpn in 0..10u64 {
            for _ in 0..(vpn + 1) {
                t.record(vpn);
            }
        }
        assert_eq!(t.count_quantile(0.0), 1);
        assert_eq!(t.count_quantile(1.0), 10);
        let mid = t.count_quantile(0.5);
        assert!((5..=6).contains(&mid));
    }

    #[test]
    fn empty_tracker_is_sane() {
        let t = FreqTracker::new(8);
        assert_eq!(t.access_prob(1), 0.0);
        assert_eq!(t.count_quantile(0.5), 0);
        assert_eq!(t.total(), 0);
    }

    #[test]
    #[should_panic]
    fn rejects_tiny_threshold() {
        let _ = FreqTracker::new(1);
    }
}
