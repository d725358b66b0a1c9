//! Figure 8: Colloid's benefit vs GUPS object size (64–4096 B).
//!
//! Heatmap per system: rows = object size, columns = contention intensity,
//! cell = throughput with Colloid / without. Paper: for objects ≥ 256 B the
//! prefetcher raises effective per-core parallelism enough that the default
//! tier's latency exceeds the alternate tier's even at 0× — so Colloid
//! helps (1.17–1.35×) even without an antagonist, while at 3× benefits
//! shrink slightly as the alternate tier's own interconnect saturates.

use tiersys::SystemKind;

use super::{Figure, Gups, Heatmaps, Runs};

/// Figure 8.
pub const FIGURE: Figure = Figure {
    sims: |quick| heatmaps(quick).sims(quick),
    render: |quick, runs: &Runs| heatmaps(quick).render(quick, runs),
};

fn heatmaps(quick: bool) -> Heatmaps {
    let sizes: &[u32] = if quick {
        &[64, 4096]
    } else {
        &[64, 256, 1024, 4096]
    };
    let row = |&object_size: &u32| {
        let variant = Gups {
            object_size,
            ..Gups::new(0, SystemKind::Hemem, false)
        };
        (format!("{object_size}B"), variant)
    };
    Heatmaps {
        title: "== Figure 8: Colloid speedup vs GUPS object size ==",
        header: "object",
        rows: sizes.iter().map(row).collect(),
    }
}
