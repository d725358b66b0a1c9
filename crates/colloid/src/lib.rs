//! Colloid: tiered memory management by balancing access latencies.
//!
//! This crate is the paper's primary contribution (Vuppalapati & Agarwal,
//! "Tiered Memory Management: Access Latency is the Key!", SOSP '24),
//! re-implemented as a pure, substrate-agnostic library:
//!
//! - [`latency::LatencyMonitor`] — per-tier access-latency measurement from
//!   queue-occupancy and arrival-rate counters via Little's Law, smoothed
//!   with EWMA (paper §3.1).
//! - [`shift::ShiftController`] — Algorithm 2: the binary-search-style
//!   watermark controller that computes the desired shift `Δp` in access
//!   probability, including the watermark reset that tracks dynamic
//!   equilibrium changes (paper §3.2, Figure 4).
//! - [`placement::ColloidController`] — Algorithm 1: the end-to-end
//!   per-quantum placement decision over any number of tiers, balanced
//!   pairwise between latency-adjacent tiers (paper §3.1): the acting
//!   pair, promotion/demotion mode, `Δp`, and the dynamic migration limit
//!   `min(Δp·(R_u+R_l), M)`. Finding and migrating the pages is left to
//!   the host tiering system (paper §4).
//!
//! The crate depends only on `simkit` (for EWMA and the profiler) and
//! `telemetry` (for passive event and metric recording): it knows nothing
//! about the simulator, so the same code would drive real CHA counters.

pub mod latency;
pub mod placement;
pub mod shift;

pub use latency::{LatencyMonitor, TierMeasurement, MAX_STALE_QUANTA};
pub use placement::{ColloidConfig, ColloidController, Mode, PairDecision};
pub use shift::ShiftController;
