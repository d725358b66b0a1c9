//! Machine configuration and presets.
//!
//! The preset [`MachineConfig::icelake_two_tier`] mirrors the paper's
//! testbed (§2.1): a dual-socket Intel Xeon 8362 where the default tier is
//! socket-local DDR4 (8 channels, ~70 ns unloaded, 205 GB/s theoretical) and
//! the alternate tier is the remote socket's memory behind a UPI link
//! (75 GB/s per direction, ~135 ns unloaded). Capacities are scaled 1024×
//! (GB → MB) to keep page counts tractable; latency/bandwidth parameters are
//! unscaled, so queueing behaviour matches the unscaled machine (see
//! DESIGN.md §5).

use simkit::SimTime;

use crate::faults::FaultPlan;
use crate::request::PAGE_SIZE;

/// Configuration of the DRAM devices behind one memory controller.
#[derive(Debug, Clone)]
pub struct DramConfig {
    /// Number of independent memory channels.
    pub channels: usize,
    /// Banks per channel (DDR4: 16 across 4 bank groups).
    pub banks_per_channel: usize,
    /// Bank busy time for a row-buffer hit (CAS + transfer overlap).
    pub t_row_hit: SimTime,
    /// Bank busy time for a row-buffer miss (precharge + activate + CAS,
    /// ~tRC territory).
    pub t_row_miss: SimTime,
    /// Data-bus occupancy of one 64 B burst (64 B / 25.6 GB/s = 2.5 ns for
    /// DDR4-3200).
    pub t_bus: SimTime,
    /// Amortised read/write bus-turnaround penalty charged to writes
    /// (the controller batches writebacks; see `controller` module docs).
    pub t_write_turnaround: SimTime,
    /// Row-activation window: at most [`Self::faw_activations`] activations
    /// per channel per window (tFAW). This is what bounds *random-access*
    /// throughput well below the bus bandwidth.
    pub t_faw: SimTime,
    /// Activations allowed per tFAW window.
    pub faw_activations: u32,
    /// Row size in bytes (8 KiB typical for x8 DDR4 DIMMs).
    pub row_bytes: u64,
}

impl DramConfig {
    /// DDR4-3200, 8 channels, one DIMM per channel — the paper's local tier.
    pub fn ddr4_3200_8ch() -> Self {
        DramConfig {
            channels: 8,
            banks_per_channel: 16,
            t_row_hit: SimTime::from_ns(6.0),
            t_row_miss: SimTime::from_ns(45.0),
            t_bus: SimTime::from_ns(2.5),
            t_write_turnaround: SimTime::from_ns(3.0),
            t_faw: SimTime::from_ns(18.0),
            faw_activations: 4,
            row_bytes: 8192,
        }
    }

    /// Theoretical peak data-bus bandwidth in bytes/second.
    pub fn peak_bandwidth(&self) -> f64 {
        self.channels as f64 * 64.0 / self.t_bus.as_ns() * 1e9
    }
}

/// Configuration of a serial interconnect in front of a tier (UPI or CXL).
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// One-way propagation latency added on both the request and response
    /// path.
    pub propagation: SimTime,
    /// Serialisation time of one 64 B flit in each direction
    /// (64 B / 75 GB/s ≈ 0.853 ns for UPI).
    pub t_serialize: SimTime,
}

impl LinkConfig {
    /// UPI cross-socket link as in the paper's testbed: 75 GB/s per
    /// direction; propagation chosen so the remote tier's unloaded latency
    /// lands at ~135 ns (1.9× the local tier).
    pub fn upi() -> Self {
        LinkConfig {
            propagation: SimTime::from_ns(32.0),
            t_serialize: SimTime::from_ns(64.0 / 75.0),
        }
    }

    /// CXL-like expansion link: 64 GB/s per direction, propagation chosen
    /// so a DDR4 tier behind it lands at ~180 ns unloaded (the middle tier
    /// of [`MachineConfig::cxl_three_tier`]).
    pub fn cxl() -> Self {
        LinkConfig {
            propagation: SimTime::from_ns(54.0),
            t_serialize: SimTime::from_ns(1.0),
        }
    }

    /// Far-memory link (pooled/fabric-attached): 32 GB/s per direction,
    /// propagation chosen so a DDR4 tier behind it lands at ~350 ns
    /// unloaded (the bottom tier of [`MachineConfig::cxl_three_tier`]).
    pub fn far() -> Self {
        LinkConfig {
            propagation: SimTime::from_ns(138.0),
            t_serialize: SimTime::from_ns(2.0),
        }
    }

    /// Peak one-direction bandwidth in bytes/second.
    pub fn peak_bandwidth(&self) -> f64 {
        64.0 / self.t_serialize.as_ns() * 1e9
    }
}

/// Configuration of one memory tier.
#[derive(Debug, Clone)]
pub struct TierConfig {
    /// Human-readable name ("local-ddr", "remote-upi", "cxl", ...).
    pub name: String,
    /// Capacity in bytes (scaled; must be a multiple of the page size).
    pub capacity_bytes: u64,
    /// Fixed CPU-side latency component: core → CHA → controller wire and
    /// response return, excluding DRAM service and any link.
    pub t_fixed: SimTime,
    /// DRAM device configuration.
    pub dram: DramConfig,
    /// Optional serial link between the CHA and this tier's controller.
    pub link: Option<LinkConfig>,
}

impl TierConfig {
    /// Capacity in base pages.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity_bytes / PAGE_SIZE
    }

    /// Unloaded read latency of this tier: fixed + link round trip +
    /// row-miss service + one bus burst.
    pub fn unloaded_latency(&self) -> SimTime {
        let mut l = self.t_fixed + self.dram.t_row_miss + self.dram.t_bus;
        if let Some(link) = &self.link {
            l += link.propagation * 2 + link.t_serialize * 2;
        }
        l
    }
}

/// Per-core parameters of the simulated CPU.
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// Maximum in-flight demand misses (Line Fill Buffers; paper §3.1 cites
    /// LFBs as the per-core bound on memory-level parallelism).
    pub demand_slots: usize,
    /// Maximum additional in-flight prefetch misses (L2 prefetcher
    /// trackers). Sequential lines of multi-line objects use these.
    pub prefetch_slots: usize,
    /// Fixed compute time between finishing one object access and issuing
    /// the next from the same slot (models the non-memory instructions).
    pub think_time: SimTime,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            demand_slots: 10,
            prefetch_slots: 20,
            think_time: SimTime::ZERO,
        }
    }
}

impl CoreConfig {
    /// Calibrated configuration for application threads (GUPS-style
    /// read-modify-write loops sustain ~6 independent demand misses out of
    /// the 10–12 architectural LFBs).
    pub fn app_default() -> Self {
        CoreConfig {
            demand_slots: 3,
            prefetch_slots: 20,
            think_time: SimTime::ZERO,
        }
    }

    /// Calibrated configuration for antagonist threads, tuned so that
    /// 5/10/15 antagonist cores in isolation use ~51/65/70 % of the default
    /// tier's theoretical bandwidth, as in paper §2.1.
    pub fn antagonist_default() -> Self {
        CoreConfig {
            demand_slots: 8,
            prefetch_slots: 20,
            think_time: SimTime::ZERO,
        }
    }
}

/// Configuration of the page-migration engine (DESIGN.md §13).
///
/// The machine has one copy pipeline with two modes. The default is the
/// *exclusive* mode: one serial DMA channel, no transactions, the mapping
/// flipped as each copy lands — bit-identical to the seed's engine, which
/// the golden-output tests pin; its copies ignore the other fields. Setting
/// [`Self::transactional`] runs the Nomad-style non-exclusive mode: up to
/// [`Self::channels`] concurrent copy transactions, each snapshot-copying
/// while the source page stays readable, validating against write
/// conflicts, and committing through a batched TLB shootdown.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationEngineConfig {
    /// Concurrent DMA copy channels of the transactional mode. The
    /// exclusive mode always runs one serial channel, whatever this says
    /// (a `ChannelStall` must still name a channel below it).
    pub channels: u32,
    /// Run the pipeline in its transactional (non-exclusive) mode instead
    /// of the exclusive one.
    pub transactional: bool,
    /// Dirty-retry budget: a transaction invalidated by a concurrent write
    /// re-copies at most this many times before aborting. `0` aborts on
    /// the first conflict.
    pub dirty_retry_max: u32,
    /// Base backoff before the first dirty re-copy; doubles per retry
    /// (capped at 8 doublings).
    pub dirty_retry_backoff: SimTime,
    /// Watchdog bound on one copy pass. A transaction that has not reached
    /// validation this long after (re)starting its copy — e.g. because its
    /// channel stalled — fails over to a healthy channel, or aborts when
    /// none exists.
    pub watchdog: SimTime,
    /// At most this many validated transactions commit under one
    /// shootdown flush, amortizing its cost; the flush fires
    /// `shootdown_cost` after the first of them validates, and any
    /// overflow rides the next flush.
    pub shootdown_batch: u32,
    /// Cost of one batched TLB-shootdown commit, charged once per batch
    /// between validation and the mapping flip.
    pub shootdown_cost: SimTime,
}

impl Default for MigrationEngineConfig {
    /// The exclusive mode (golden outputs pin it).
    fn default() -> Self {
        MigrationEngineConfig {
            channels: 1,
            transactional: false,
            dirty_retry_max: 3,
            dirty_retry_backoff: SimTime::from_us(2.0),
            watchdog: SimTime::from_us(200.0),
            shootdown_batch: 8,
            shootdown_cost: SimTime::from_us(4.0),
        }
    }
}

impl MigrationEngineConfig {
    /// The transactional pipeline at its paper-default operating point:
    /// four channels, three dirty retries, batch-of-8 shootdowns.
    pub fn transactional() -> Self {
        MigrationEngineConfig {
            channels: 4,
            transactional: true,
            ..MigrationEngineConfig::default()
        }
    }

    /// Hard validation errors (empty = valid).
    pub fn validate(&self) -> Result<(), String> {
        if self.channels == 0 {
            return Err("migration engine needs at least 1 channel".into());
        }
        if self.shootdown_batch == 0 {
            return Err("shootdown batch size must be at least 1".into());
        }
        if self.watchdog <= SimTime::ZERO {
            return Err("watchdog bound must be positive".into());
        }
        Ok(())
    }

    /// Worst-case lifetime of one transaction under this config: every
    /// copy pass runs to the watchdog, every retry backs off fully. The
    /// proptest suite asserts all transactions terminate within this.
    pub fn max_txn_lifetime(&self) -> SimTime {
        let passes = self.dirty_retry_max as u64 + 1;
        // Each pass may burn the watchdog once per channel via failover.
        let pass = self.watchdog * self.channels.max(1) as u64;
        let backoff_total = self.dirty_retry_backoff * (1u64 << self.dirty_retry_max.min(8)) * 2;
        pass * passes + backoff_total + self.shootdown_cost * 2
    }
}

/// Full machine configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Memory tiers; index 0 is the default tier.
    pub tiers: Vec<TierConfig>,
    /// Size of the simulated virtual address space, in pages. The machine
    /// refuses accesses beyond it.
    pub virtual_pages: u64,
    /// Latency of an LLC hit (accesses that never reach memory).
    pub llc_hit_latency: SimTime,
    /// PEBS sampling period: one sample per `pebs_period` demand misses
    /// (0 disables sampling).
    pub pebs_period: u64,
    /// Page-migration copy bandwidth of the kernel's migration path
    /// (bytes/second); each DMA channel paces migration traffic at this
    /// rate.
    pub migration_bandwidth: f64,
    /// Migration-engine shape (the pipeline's exclusive or transactional
    /// multi-channel mode; see [`MigrationEngineConfig`]).
    pub engine: MigrationEngineConfig,
    /// Extra latency charged to an access that triggers a hint page fault
    /// (kernel fault-handler cost; TPP promotes from the handler).
    pub hint_fault_cost: SimTime,
    /// Root seed; every core derives its RNG stream from it.
    pub seed: u64,
    /// Fault-injection plan (defaults to injecting nothing; see
    /// [`crate::faults`]). The plan's RNG stream also derives from `seed`.
    pub faults: FaultPlan,
}

impl MachineConfig {
    /// The paper's dual-socket testbed, capacities scaled 1024×.
    ///
    /// Default tier: 32 MB local DDR4 (scaled from 32 GB), ~70 ns unloaded.
    /// Alternate tier: 96 MB remote-socket DDR4 behind UPI, ~135 ns
    /// unloaded (1.9× the default tier, matching §5.1).
    pub fn icelake_two_tier() -> Self {
        let local = TierConfig {
            name: "local-ddr".into(),
            capacity_bytes: 32 << 20,
            t_fixed: SimTime::from_ns(22.5),
            dram: DramConfig::ddr4_3200_8ch(),
            link: None,
        };
        let remote = TierConfig {
            name: "remote-upi".into(),
            capacity_bytes: 96 << 20,
            t_fixed: SimTime::from_ns(22.5),
            dram: DramConfig::ddr4_3200_8ch(),
            link: Some(LinkConfig::upi()),
        };
        MachineConfig {
            tiers: vec![local, remote],
            virtual_pages: (192 << 20) / PAGE_SIZE,
            llc_hit_latency: SimTime::from_ns(20.0),
            pebs_period: 16,
            migration_bandwidth: 2.4e9,
            engine: MigrationEngineConfig::default(),
            hint_fault_cost: SimTime::from_us(0.4),
            seed: 0xC01_101D,
            faults: FaultPlan::none(),
        }
    }

    /// Variant of [`Self::icelake_two_tier`] with the alternate tier's
    /// unloaded latency scaled to `ratio` × the default tier's (paper
    /// Figure 7 sweeps 1.9–2.7×). As in the paper's uncore-frequency
    /// methodology, raising the latency also proportionally lowers the
    /// alternate tier's link bandwidth (the stated side effect).
    pub fn with_alt_latency_ratio(ratio: f64) -> Self {
        let mut cfg = Self::icelake_two_tier();
        let base = cfg.tiers[0].unloaded_latency().as_ns();
        let target = base * ratio;
        // Solve for the link propagation that yields the target unloaded
        // latency; serialisation slows by the same factor vs. the 1.9× base.
        let alt = &mut cfg.tiers[1];
        let no_link = (alt.t_fixed + alt.dram.t_row_miss + alt.dram.t_bus).as_ns();
        let link = alt.link.as_mut().expect("alternate tier has a link");
        let budget = (target - no_link).max(1.0);
        let slow_factor = ratio / 1.9;
        link.t_serialize = link.t_serialize.scale(slow_factor);
        link.propagation = SimTime::from_ns((budget - 2.0 * link.t_serialize.as_ns()) / 2.0);
        cfg
    }

    /// A CXL-era three-tier machine: socket-local DDR4 (~70 ns), a
    /// CXL-attached expander (~180 ns, 64 GB/s link), and far/pooled
    /// memory (~350 ns, 32 GB/s link). Capacities scaled 1024× like
    /// [`Self::icelake_two_tier`]; every non-local tier sits behind its
    /// own serial link, so each has an independent bandwidth ceiling.
    pub fn cxl_three_tier() -> Self {
        let local = TierConfig {
            name: "local-ddr".into(),
            capacity_bytes: 32 << 20,
            t_fixed: SimTime::from_ns(22.5),
            dram: DramConfig::ddr4_3200_8ch(),
            link: None,
        };
        let cxl = TierConfig {
            name: "cxl".into(),
            capacity_bytes: 64 << 20,
            t_fixed: SimTime::from_ns(22.5),
            dram: DramConfig::ddr4_3200_8ch(),
            link: Some(LinkConfig::cxl()),
        };
        let far = TierConfig {
            name: "far".into(),
            capacity_bytes: 96 << 20,
            t_fixed: SimTime::from_ns(22.5),
            dram: DramConfig::ddr4_3200_8ch(),
            link: Some(LinkConfig::far()),
        };
        MachineConfig {
            tiers: vec![local, cxl, far],
            virtual_pages: (192 << 20) / PAGE_SIZE,
            llc_hit_latency: SimTime::from_ns(20.0),
            pebs_period: 16,
            migration_bandwidth: 2.4e9,
            engine: MigrationEngineConfig::default(),
            hint_fault_cost: SimTime::from_us(0.4),
            seed: 0xC01_101D,
            faults: FaultPlan::none(),
        }
    }

    /// Checks the tier chain for hard errors and soft anomalies.
    ///
    /// Hard errors (`Err`): fewer than two tiers — a tiering system needs
    /// at least one pair to balance — or a tier whose capacity is not a
    /// whole number of pages.
    ///
    /// Soft anomalies (returned as warnings, never an error): unloaded
    /// latencies that do not increase monotonically with the tier index.
    /// Such chains are legal — bandwidth-inverted tiers exist, and Colloid
    /// explicitly handles loaded-latency inversions — but most presets are
    /// ordered fastest-first, so a non-monotone chain usually means a
    /// mis-ordered config.
    pub fn validate(&self) -> Result<Vec<String>, String> {
        if self.tiers.len() < 2 {
            return Err(format!(
                "machine config needs at least 2 memory tiers to tier between, got {}",
                self.tiers.len()
            ));
        }
        for t in &self.tiers {
            if t.capacity_bytes == 0 || t.capacity_bytes % PAGE_SIZE != 0 {
                return Err(format!(
                    "tier {:?} capacity {} B is not a positive multiple of the {} B page size",
                    t.name, t.capacity_bytes, PAGE_SIZE
                ));
            }
        }
        self.engine.validate()?;
        let mut warnings = Vec::new();
        for pair in self.tiers.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            let (la, lb) = (a.unloaded_latency().as_ns(), b.unloaded_latency().as_ns());
            if lb <= la {
                warnings.push(format!(
                    "tier chain latency not monotone: {:?} ({la:.0} ns) -> {:?} ({lb:.0} ns); \
                     tiers are usually ordered fastest-first",
                    a.name, b.name
                ));
            }
        }
        Ok(warnings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_tier_unloaded_latency_is_about_70ns() {
        let cfg = MachineConfig::icelake_two_tier();
        let l = cfg.tiers[0].unloaded_latency().as_ns();
        assert!((l - 70.0).abs() < 1.0, "local unloaded = {l}ns");
    }

    #[test]
    fn remote_tier_unloaded_latency_is_about_135ns() {
        let cfg = MachineConfig::icelake_two_tier();
        let l = cfg.tiers[1].unloaded_latency().as_ns();
        assert!((l - 135.0).abs() < 2.0, "remote unloaded = {l}ns");
        let ratio = l / cfg.tiers[0].unloaded_latency().as_ns();
        assert!((ratio - 1.9).abs() < 0.05, "ratio = {ratio}");
    }

    #[test]
    fn ddr4_peak_bandwidth_is_about_205gbs() {
        let d = DramConfig::ddr4_3200_8ch();
        let bw = d.peak_bandwidth() / 1e9;
        assert!((bw - 204.8).abs() < 1.0, "peak = {bw} GB/s");
    }

    #[test]
    fn upi_peak_bandwidth_is_about_75gbs() {
        let l = LinkConfig::upi();
        let bw = l.peak_bandwidth() / 1e9;
        assert!((bw - 75.0).abs() < 1.0, "peak = {bw} GB/s");
    }

    #[test]
    fn capacities_scale_to_pages() {
        let cfg = MachineConfig::icelake_two_tier();
        assert_eq!(cfg.tiers[0].capacity_pages(), 8192);
        assert_eq!(cfg.tiers[1].capacity_pages(), 24576);
    }

    #[test]
    fn alt_latency_ratio_sweep_hits_targets() {
        for ratio in [1.9, 2.1, 2.3, 2.5, 2.7] {
            let cfg = MachineConfig::with_alt_latency_ratio(ratio);
            let base = cfg.tiers[0].unloaded_latency().as_ns();
            let alt = cfg.tiers[1].unloaded_latency().as_ns();
            let got = alt / base;
            assert!(
                (got - ratio).abs() < 0.05,
                "requested {ratio}, got {got} ({alt}ns / {base}ns)"
            );
        }
    }

    #[test]
    fn three_tier_unloaded_latencies_hit_targets() {
        let cfg = MachineConfig::cxl_three_tier();
        let l: Vec<f64> = cfg
            .tiers
            .iter()
            .map(|t| t.unloaded_latency().as_ns())
            .collect();
        assert!((l[0] - 70.0).abs() < 1.0, "local = {} ns", l[0]);
        assert!((l[1] - 180.0).abs() < 2.0, "cxl = {} ns", l[1]);
        assert!((l[2] - 350.0).abs() < 4.0, "far = {} ns", l[2]);
    }

    #[test]
    fn three_tier_links_have_distinct_bandwidths() {
        let cfg = MachineConfig::cxl_three_tier();
        let bw_cxl = cfg.tiers[1].link.as_ref().unwrap().peak_bandwidth() / 1e9;
        let bw_far = cfg.tiers[2].link.as_ref().unwrap().peak_bandwidth() / 1e9;
        assert!((bw_cxl - 64.0).abs() < 1.0, "cxl = {bw_cxl} GB/s");
        assert!((bw_far - 32.0).abs() < 1.0, "far = {bw_far} GB/s");
    }

    #[test]
    fn validate_accepts_two_and_three_tier_presets() {
        assert!(MachineConfig::icelake_two_tier()
            .validate()
            .unwrap()
            .is_empty());
        assert!(MachineConfig::cxl_three_tier()
            .validate()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn validate_rejects_single_tier() {
        let mut cfg = MachineConfig::icelake_two_tier();
        cfg.tiers.truncate(1);
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("at least 2"), "unhelpful error: {err}");
    }

    #[test]
    fn validate_warns_on_non_monotone_latency_chain() {
        let mut cfg = MachineConfig::cxl_three_tier();
        cfg.tiers.swap(1, 2); // far before cxl: legal but suspicious
        let warnings = cfg.validate().expect("non-monotone chain is not an error");
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("not monotone"), "{}", warnings[0]);
    }

    #[test]
    fn validate_rejects_unaligned_capacity() {
        let mut cfg = MachineConfig::icelake_two_tier();
        cfg.tiers[1].capacity_bytes = PAGE_SIZE + 1;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn engine_default_is_the_exclusive_legacy_shape() {
        let e = MigrationEngineConfig::default();
        assert_eq!(e.channels, 1);
        assert!(!e.transactional);
        assert!(e.validate().is_ok());
        let t = MigrationEngineConfig::transactional();
        assert!(t.transactional);
        assert!(t.channels > 1);
        assert!(t.validate().is_ok());
        assert!(t.max_txn_lifetime() > t.watchdog);
    }

    #[test]
    fn validate_rejects_degenerate_engines() {
        let mut cfg = MachineConfig::icelake_two_tier();
        cfg.engine.channels = 0;
        assert!(cfg.validate().is_err());
        cfg.engine.channels = 1;
        cfg.engine.shootdown_batch = 0;
        assert!(cfg.validate().is_err());
        cfg.engine.shootdown_batch = 8;
        cfg.engine.watchdog = SimTime::ZERO;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn alt_latency_ratio_reduces_link_bandwidth() {
        let base = MachineConfig::with_alt_latency_ratio(1.9);
        let slow = MachineConfig::with_alt_latency_ratio(2.7);
        let bw_base = base.tiers[1].link.as_ref().unwrap().peak_bandwidth();
        let bw_slow = slow.tiers[1].link.as_ref().unwrap().peak_bandwidth();
        assert!(bw_slow < bw_base, "{bw_slow} !< {bw_base}");
    }
}
