//! Figure 7: Colloid's benefit vs the alternate tier's unloaded latency.
//!
//! Heatmap per system: rows = alternate-tier unloaded latency (1.9–2.7× the
//! default tier, the paper's uncore-frequency sweep, which also lowers the
//! alternate tier's bandwidth), columns = contention intensity, cell =
//! throughput with Colloid / without Colloid. Paper: benefits shrink with
//! higher alternate latency but persist — 1.01–1.76× even at 2.7×.

use tiersys::SystemKind;

use super::{Figure, Gups, Heatmaps, Runs};

/// Figure 7.
pub const FIGURE: Figure = Figure {
    sims: |quick| heatmaps(quick).sims(quick),
    render: |quick, runs: &Runs| heatmaps(quick).render(quick, runs),
};

fn heatmaps(quick: bool) -> Heatmaps {
    let ratios: &[f64] = if quick { &[1.9, 2.7] } else { &[1.9, 2.3, 2.7] };
    let row = |&alt_latency_ratio: &f64| {
        let variant = Gups {
            alt_latency_ratio,
            ..Gups::new(0, SystemKind::Hemem, false)
        };
        (format!("{alt_latency_ratio:.1}x"), variant)
    };
    Heatmaps {
        title: "== Figure 7: Colloid speedup vs alternate-tier unloaded latency ==",
        header: "alt-lat",
        rows: ratios.iter().map(row).collect(),
    }
}
