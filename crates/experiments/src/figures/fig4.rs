//! Figure 4: conceptual behaviour of the Colloid watermark controller
//! (Algorithm 2) on a toy model — (a) static workload converging to p*,
//! (b) a sudden jump of p, (c) a sudden move of p* (watermark reset).
//!
//! This figure needs no machine simulation: it exercises the controller on
//! a synthetic two-tier latency model, exactly like the paper's
//! illustration.

use colloid::ShiftController;

use std::fmt::Write as _;

use super::{Figure, Runs};

/// Figure 4: no simulation, only the controller.
pub const FIGURE: Figure = Figure {
    sims: |_| Vec::new(),
    render,
};

/// Synthetic tiers whose latencies cross at `p_star`.
pub(crate) struct Toy {
    pub(crate) p_star: f64,
}

impl Toy {
    fn latencies(&self, p: f64) -> (f64, f64) {
        let l_d = (150.0 + 250.0 * (p - self.p_star)).max(1.0);
        let l_a = (150.0 - 120.0 * (p - self.p_star)).max(1.0);
        (l_d, l_a)
    }
}

/// One closed-loop quantum: move `p` by the controller's shift towards
/// the faster tier.
pub(crate) fn step(c: &mut ShiftController, toy: &Toy, p: f64) -> f64 {
    let (l_d, l_a) = toy.latencies(p);
    let dp = c.compute_shift(p, l_d, l_a);
    if l_d < l_a {
        (p + dp).min(1.0)
    } else {
        (p - dp).max(0.0)
    }
}

fn trace(
    out: &mut String,
    label: &str,
    mut toy: Toy,
    p0: f64,
    quanta: usize,
    p_jump: Option<(usize, f64)>,
    p_star_jump: Option<(usize, f64)>,
) {
    let _ = writeln!(out, "-- {label} --");
    let _ = writeln!(
        out,
        "{:>3}  {:>6}  {:>6}  {:>6}  {:>6}",
        "t", "p", "p_lo", "p_hi", "p*"
    );
    let mut c = ShiftController::new(0.01, 0.02);
    let mut p = p0;
    for t in 0..quanta {
        if let Some((at, new_p)) = p_jump {
            if t == at {
                p = new_p;
            }
        }
        if let Some((at, new_star)) = p_star_jump {
            if t == at {
                toy.p_star = new_star;
            }
        }
        if t % 2 == 0 || t == quanta - 1 {
            let _ = writeln!(
                out,
                "{:>3}  {:6.3}  {:6.3}  {:6.3}  {:6.3}",
                t,
                p,
                c.p_lo(),
                c.p_hi(),
                toy.p_star
            );
        }
        p = step(&mut c, &toy, p);
    }
    let (l_d, l_a) = toy.latencies(p);
    let _ = writeln!(
        out,
        "final: p = {p:.3} (p* = {:.3}), L_D = {l_d:.1} ns, L_A = {l_a:.1} ns, resets = {}\n",
        toy.p_star,
        c.resets()
    );
}

/// The Figure 4 traces.
pub fn render(_quick: bool, _: &Runs) -> String {
    let mut out = String::from("== Figure 4: watermark controller convergence (toy model) ==\n");
    trace(
        &mut out,
        "(a) static workload: p converges to p*",
        Toy { p_star: 0.6 },
        1.0,
        24,
        None,
        None,
    );
    trace(
        &mut out,
        "(b) sudden change in p at t=8",
        Toy { p_star: 0.6 },
        1.0,
        30,
        Some((8, 0.1)),
        None,
    );
    trace(
        &mut out,
        "(c) sudden change in p* at t=12 (watermark reset)",
        Toy { p_star: 0.3 },
        1.0,
        40,
        None,
        Some((12, 0.8)),
    );
    out
}
