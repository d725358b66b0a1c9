//! Three memory tiers: local DDR + CXL-attached + far memory.
//!
//! The paper's principle "naturally generalizes to tiered memory
//! architectures with more than two tiers" (§3.1). This example builds a
//! three-tier machine, attaches a small policy written against
//! [`colloid::ColloidController`], and shows the three tiers' access
//! latencies converging towards each other under load.
//!
//! ```text
//! cargo run --release --example three_tiers
//! ```

use colloid::{ColloidConfig, ColloidController, Mode, TierMeasurement};
use memsim::{
    CoreConfig, DramConfig, LinkConfig, Machine, MachineConfig, TickReport, TierConfig, TierId,
    TrafficClass, PAGE_SIZE,
};
use simkit::SimTime;
use tierctl::{FreqTracker, MigrationBudget, TierBins};
use workloads::{GupsConfig, GupsStream};

/// A minimal three-tier balancing policy: frequency-binned page lists (as
/// in the HeMem+Colloid integration) driven by the pairwise Colloid
/// controller.
struct ThreeTierColloid {
    controller: ColloidController,
    tracker: FreqTracker,
    bins: TierBins,
    budget: MigrationBudget,
}

impl ThreeTierColloid {
    /// Demotes one cold page from `tier` to the next tier down to free a
    /// frame, cascading further down if the next tier is itself full;
    /// returns whether a frame was freed.
    fn make_room(&mut self, machine: &mut Machine, tier: TierId) -> bool {
        let below = TierId(tier.0 + 1);
        if below.index() >= 3 {
            return false;
        }
        if machine.free_pages(below) == 0 && !self.make_room(machine, below) {
            return false;
        }
        for bin in 0..self.bins.n_bins() {
            for vpn in self.bins.pages(tier, bin).to_vec() {
                if !self.budget.try_take_page() {
                    return false;
                }
                if machine.enqueue_migration(vpn, below).is_ok() {
                    self.bins.move_tier(vpn, below);
                    return true;
                }
            }
        }
        false
    }

    fn on_tick(&mut self, machine: &mut Machine, report: &TickReport) {
        for s in &report.pebs {
            if self.bins.tier_of(s.vpn).is_some() {
                self.tracker.record(s.vpn);
                self.bins.update_count(s.vpn, self.tracker.count(s.vpn));
            }
        }
        self.budget.refill();
        let window: Vec<TierMeasurement> = report
            .tiers
            .iter()
            .map(|t| TierMeasurement {
                occupancy: t.occupancy,
                rate_per_ns: t.rate_per_ns,
            })
            .collect();
        if let Some(d) = self.controller.on_quantum(&window) {
            let (from, to) = match d.mode {
                Mode::Promote => (TierId(d.lower as u8), TierId(d.upper as u8)),
                Mode::Demote => (TierId(d.upper as u8), TierId(d.lower as u8)),
            };
            let mut rem_p = d.delta_p;
            let mut rem_bytes = d.byte_limit;
            for bin in (0..self.bins.n_bins()).rev() {
                for vpn in self.bins.pages(from, bin).to_vec() {
                    if rem_bytes < PAGE_SIZE {
                        return;
                    }
                    let prob = self.tracker.access_prob(vpn);
                    if prob <= 0.0 || prob > rem_p {
                        continue;
                    }
                    if machine.free_pages(to) == 0 && !self.make_room(machine, to) {
                        return;
                    }
                    if !self.budget.try_take_page() {
                        return;
                    }
                    if machine.enqueue_migration(vpn, to).is_ok() {
                        self.bins.move_tier(vpn, to);
                        rem_p -= prob;
                        rem_bytes -= PAGE_SIZE;
                    }
                }
            }
        }
    }
}

fn main() {
    // Tier 0: local DDR (16 MB). Tier 1: CXL-attached (32 MB, ~140 ns).
    // Tier 2: far memory (64 MB, ~250 ns).
    let ddr = DramConfig::ddr4_3200_8ch();
    let tiers = vec![
        TierConfig {
            name: "local-ddr".into(),
            capacity_bytes: 16 << 20,
            t_fixed: SimTime::from_ns(22.5),
            dram: ddr.clone(),
            link: None,
        },
        TierConfig {
            name: "cxl".into(),
            capacity_bytes: 32 << 20,
            t_fixed: SimTime::from_ns(22.5),
            dram: ddr.clone(),
            link: Some(LinkConfig {
                propagation: SimTime::from_ns(34.0),
                t_serialize: SimTime::from_ns(64.0 / 40.0), // 40 GB/s CXL
            }),
        },
        TierConfig {
            name: "far".into(),
            capacity_bytes: 64 << 20,
            t_fixed: SimTime::from_ns(22.5),
            dram: ddr,
            link: Some(LinkConfig {
                propagation: SimTime::from_ns(89.0),
                t_serialize: SimTime::from_ns(64.0 / 20.0), // 20 GB/s
            }),
        },
    ];
    let unloaded: Vec<f64> = tiers.iter().map(|t| t.unloaded_latency().as_ns()).collect();
    println!(
        "tiers: ddr {:.0} ns | cxl {:.0} ns | far {:.0} ns (unloaded)",
        unloaded[0], unloaded[1], unloaded[2]
    );

    let cfg = MachineConfig {
        tiers,
        virtual_pages: (128 << 20) / PAGE_SIZE,
        ..MachineConfig::icelake_two_tier()
    };
    let mut machine = Machine::new(cfg);

    // A 48 MB working set with a 12 MB hot region, first-touch allocated.
    let mut gups = GupsConfig::paper_default(0);
    gups.ws_pages = (48 << 20) / PAGE_SIZE;
    gups.hot_pages = (12 << 20) / PAGE_SIZE;
    gups.hot_offset = (20 << 20) / PAGE_SIZE; // hot starts outside tier 0
    let mut free0 = machine.free_pages(TierId(0));
    let mut free1 = machine.free_pages(TierId(1));
    for vpn in gups.ws_range() {
        if free0 > 0 {
            machine.place(vpn, TierId(0));
            free0 -= 1;
        } else if free1 > 0 {
            machine.place(vpn, TierId(1));
            free1 -= 1;
        } else {
            machine.place(vpn, TierId(2));
        }
    }
    for _ in 0..20 {
        machine.add_core(
            Box::new(GupsStream::new(gups.clone()).unwrap()),
            CoreConfig::app_default(),
            TrafficClass::App,
        );
    }

    let tick = SimTime::from_us(100.0);
    let mut bins = TierBins::new(3, 5, 16);
    for vpn in gups.ws_range() {
        bins.insert(vpn, machine.tier_of(vpn).unwrap(), 0);
    }
    let mut policy = ThreeTierColloid {
        controller: ColloidController::new(ColloidConfig {
            epsilon: 0.01,
            delta: 0.05,
            ewma_alpha: 0.3,
            static_limit_bytes: 240_000,
            quantum_ns: tick.as_ns(),
            unloaded_ns: unloaded,
            dynamic_limit: true,
        }),
        tracker: FreqTracker::new(16),
        bins,
        budget: MigrationBudget::new(240_000),
    };

    for tick_no in 0..400 {
        let report = machine.run_tick(tick);
        policy.on_tick(&mut machine, &report);
        if tick_no % 50 == 49 {
            let l: Vec<String> = (0..3)
                .map(|i| match report.littles_latency_ns(TierId(i as u8)) {
                    Some(l) => format!("{l:6.0}"),
                    None => "  idle".into(),
                })
                .collect();
            println!(
                "t = {:5.1} ms | latencies ns: ddr {} cxl {} far {} | {:5.1} Mops/s",
                machine.now().as_ns() / 1e6,
                l[0],
                l[1],
                l[2],
                report.app_ops_per_sec() / 1e6
            );
        }
    }
    println!("\nPairwise balancing pushed the hot set into DDR and spilled cold pages");
    println!("down to far memory. DDR stays fastest because this load cannot saturate");
    println!("it -- the multi-tier equilibrium of paper 3.1: promote towards the");
    println!("fastest tier until its loaded latency catches up with the others'.");
}
