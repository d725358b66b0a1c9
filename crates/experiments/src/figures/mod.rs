//! One driver per figure of the paper.
//!
//! Each `figN::run(quick)` regenerates figure N: it executes the
//! experiments behind the figure and prints (and returns) the same
//! rows/series the paper reports. See DESIGN.md §4 for the figure →
//! module map and EXPERIMENTS.md for recorded paper-vs-measured results.
//!
//! Figures that share runs (1↔2, 5↔6) are rendered from a common
//! [`GupsGrid`] so the `all-figs` binary can reuse one collection pass;
//! `all-figs --fig N` regenerates one figure through [`select`].

pub mod ext;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;

use std::collections::HashMap;

use crate::oracle::{best_case, OracleResult};
use crate::runner::{run, RunConfig, RunResult};
use crate::scenario::{build_gups, GupsScenario, Policy};
use tiersys::SystemKind;

/// The driver of figure `name` (`1`–`11`, or `ext` for the
/// extended-version analyses): it regenerates, prints and returns the
/// figure, in quick mode when passed `true`.
pub fn select(name: &str) -> Result<fn(bool) -> String, String> {
    Ok(match name {
        "1" => fig1::run,
        "2" => fig2::run,
        "4" => fig4::run,
        "5" => fig5::run,
        "6" => fig6::run,
        "7" => fig7::run,
        "8" => fig8::run,
        "9" => fig9::run,
        "10" => fig10::run,
        "11" => fig11::run,
        "ext" => ext::run,
        _ => {
            return Err(format!(
                "unknown figure {name:?}; valid: 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, ext"
            ))
        }
    })
}

/// Results of a (policy × contention-intensity) sweep over the GUPS setup.
pub struct GupsGrid {
    /// Keyed by `(policy name, intensity)`.
    pub entries: HashMap<(String, usize), RunResult>,
    /// Best-case oracle per intensity.
    pub oracles: HashMap<usize, OracleResult>,
    /// Intensities covered.
    pub intensities: Vec<usize>,
}

impl GupsGrid {
    /// The result for `policy` at `intensity`.
    pub fn get(&self, policy: Policy, intensity: usize) -> &RunResult {
        &self.entries[&(policy.name(), intensity)]
    }

    /// The oracle for `intensity`.
    pub fn oracle(&self, intensity: usize) -> &OracleResult {
        &self.oracles[&intensity]
    }
}

/// The six system policies (three vanilla, three +Colloid).
pub fn all_system_policies() -> Vec<Policy> {
    SystemKind::ALL
        .into_iter()
        .flat_map(|kind| {
            [false, true]
                .into_iter()
                .map(move |colloid| Policy::System { kind, colloid })
        })
        .collect()
}

/// The three vanilla system policies.
pub fn vanilla_policies() -> Vec<Policy> {
    SystemKind::ALL
        .into_iter()
        .map(|kind| Policy::System {
            kind,
            colloid: false,
        })
        .collect()
}

/// Runs the GUPS sweep for the given policies and intensities, with the
/// best-case oracle when requested.
pub fn collect_gups_grid(
    policies: &[Policy],
    intensities: &[usize],
    with_oracle: bool,
    quick: bool,
) -> GupsGrid {
    let rc = if quick {
        RunConfig::steady_state().quick()
    } else {
        RunConfig::steady_state()
    };
    let mut entries = HashMap::new();
    let mut oracles = HashMap::new();
    for &intensity in intensities {
        let scenario = GupsScenario::intensity(intensity);
        if with_oracle {
            eprintln!("[grid] oracle @ {intensity}x ...");
            oracles.insert(intensity, best_case(&scenario, quick));
        }
        for &policy in policies {
            eprintln!("[grid] {} @ {intensity}x ...", policy.name());
            let mut exp = build_gups(&scenario, policy);
            entries.insert((policy.name(), intensity), run(&mut exp, &rc));
        }
    }
    GupsGrid {
        entries,
        oracles,
        intensities: intensities.to_vec(),
    }
}

/// Intensity labels as the paper writes them.
pub fn intensity_label(i: usize) -> String {
    format!("{i}x")
}
