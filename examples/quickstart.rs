//! Quickstart: build the paper's two-tier machine, run GUPS under
//! HeMem+Colloid, and watch the tiers' access latencies balance.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use experiments::runner::{run, RunConfig};
use experiments::scenario::{build_gups, GupsScenario, Policy};
use tiersys::SystemKind;

fn main() {
    // The paper's §2.1 GUPS setup at 2x memory interconnect contention:
    // 15 application cores, 10 antagonist cores hammering the default tier.
    let scenario = GupsScenario::intensity(2);

    for (label, policy) in [
        (
            "HeMem (packs hottest pages into the default tier)",
            Policy::System {
                kind: SystemKind::Hemem,
                colloid: false,
            },
        ),
        (
            "HeMem+Colloid (balances access latencies)",
            Policy::System {
                kind: SystemKind::Hemem,
                colloid: true,
            },
        ),
    ] {
        println!("==> {label}");
        let mut exp = build_gups(&scenario, policy);
        let result = run(&mut exp, &RunConfig::steady_state());
        println!(
            "    GUPS throughput : {:.1} Mops/s (converged after {} quanta)",
            result.ops_per_sec / 1e6,
            result.warmup_ticks_used
        );
        println!(
            "    tier latencies  : default {:.0} ns vs alternate {:.0} ns",
            result.latency_ns[0].unwrap_or(f64::NAN),
            result.latency_ns[1].unwrap_or(f64::NAN)
        );
        println!(
            "    placement       : {:.0}% of GUPS traffic served by the default tier\n",
            result.default_tier_app_share() * 100.0
        );
    }
    println!("Colloid's principle: when the default tier's loaded latency exceeds the");
    println!("alternate tier's, hot pages belong in the alternate tier — packing them");
    println!("into the \"fast\" tier only makes it slower.");
}
