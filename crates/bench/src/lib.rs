//! Helpers shared by the Criterion benchmarks.
//!
//! Each `benches/figN.rs` measures the simulation kernel at the heart of
//! paper figure N — typically "one quantum of figure N's central scenario,
//! at steady state". The *data* behind each figure is regenerated by
//! `cargo run -p experiments --release --bin all-figs -- --fig N`, which
//! prints the same rows/series the paper reports; the benches keep those
//! kernels fast and honest.
//!
//! Run everything with `cargo bench --workspace`.

use experiments::runner::{run, RunConfig};
use experiments::scenario::{build_gups, Experiment, GupsScenario, Policy};
use tiersys::SystemKind;

/// Builds the §2.1 GUPS experiment and warms it to (near) steady state so
/// per-tick measurements reflect converged behaviour.
pub fn converged_gups(kind: SystemKind, colloid: bool, intensity: usize) -> Experiment {
    let scenario = GupsScenario::intensity(intensity);
    converged_scenario(&scenario, Policy::System { kind, colloid })
}

/// Builds and warms an arbitrary GUPS scenario/policy pair.
pub fn converged_scenario(scenario: &GupsScenario, policy: Policy) -> Experiment {
    let mut exp = build_gups(scenario, policy);
    let rc = RunConfig {
        min_warmup_ticks: 40,
        max_warmup_ticks: 120,
        measure_ticks: 0,
        window: 20,
        tolerance: 0.04,
        collect_series: false,
    };
    let _ = run(&mut exp, &rc);
    exp
}

/// Advances the experiment one quantum (the benchmarked unit): one machine
/// tick plus one tiering-system reaction.
pub fn one_quantum(exp: &mut Experiment) -> u64 {
    let report = exp.machine.run_tick(exp.tick);
    let ops = report.app_ops;
    exp.system.on_tick(&mut exp.machine, &report);
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converged_experiment_ticks() {
        let mut exp = converged_gups(SystemKind::Hemem, true, 0);
        let ops = one_quantum(&mut exp);
        assert!(ops > 0);
    }
}
