//! Telemetry subsystem: one observability layer for the whole stack.
//!
//! Every layer of the reproduction — the [`memsim`-style machine, the
//! Colloid controllers, the tiering systems, the supervisor, and the
//! experiment runner — records into the same two channels, each flowing
//! through a [`Sink`] handle into one [`RingRecorder`]:
//!
//! - a **typed event stream** ([`Event`]): migration start/complete/fail/
//!   retry, Colloid watermark moves and `p` updates, supervisor mode
//!   transitions, fault injections, tier evacuations — each stamped with
//!   the simulated time it happened at;
//! - a **span stream** (see *Causal tracing* below).
//!
//! The recorder is bounded and drop-oldest, and counts every drop; a
//! zero-capacity ring keeps nothing.
//!
//! The **per-quantum metric record** ([`TickMetrics`]: per-tier loaded
//! latency, Little's-Law estimate and ground truth, occupancy, arrival
//! rate, migration bandwidth and backlog, default-tier traffic share, and
//! application throughput) is not a recorder channel: the experiment
//! runner builds one per tick and keeps the series, and the exporters and
//! analytics below take it as a slice.
//!
//! # Overhead contract
//!
//! A disabled sink ([`Sink::disabled`], the default everywhere) is
//! **zero-cost on the hot path**: event payloads are built inside closures
//! that are never called, so no allocation, no formatting, and no RNG draw
//! happens when telemetry is off. Recording itself is *passive* — it reads
//! simulation state but never mutates it and never draws randomness — so
//! runs are bit-identical with telemetry disabled, enabled with a
//! zero-capacity [`RingRecorder`], or enabled with a full one (the golden
//! bit-identity tests in `crates/experiments` pin this).
//!
//! On top of the raw streams sit [`export`] (NDJSON event logs, CSV metric
//! series, and an offline NDJSON schema validator), [`analytics`]
//! (time-to-equilibrium after a workload shift and latency-inversion
//! episode histograms), and [`render`] (plain-text series and run-timeline
//! views, used by `grid timeline` in `crates/experiments`).
//!
//! # Causal tracing
//!
//! The second channel is the **span stream** ([`span`]): hierarchical
//! scoped spans (`runner.tick` ⊃ `machine.tick`), async extents (one per
//! page copy, crossing tick boundaries), and instant *decision spans*
//! whose ids flow as `cause` links — so a completed migration resolves
//! back to the controller decision that issued it. On top of the spans
//! sit [`provenance`](mod@provenance) (per-page histories of the copies
//! that landed, the useful/wasted split, ping-pong detection, and a blame
//! report attributing wasted migrations to their issuing decision) and
//! [`trace`] (a chrome-`trace_event`/Perfetto JSON exporter with an
//! offline format checker, plus folded stacks for flamegraph tooling).
//! The same overhead contract applies: span APIs on a disabled sink
//! return [`SpanId::NONE`] and touch nothing.

pub mod analytics;
pub mod event;
pub mod export;
pub mod metrics;
pub mod provenance;
pub mod recorder;
pub mod registry;
pub mod render;
pub mod slo;
pub mod span;
pub mod trace;

pub use analytics::{time_to_equilibrium, InversionStats};
pub use event::{Event, EventKind, FailReason, Source, TenantId};
pub use export::{events_to_ndjson, metrics_to_csv, validate_ndjson};
pub use metrics::TickMetrics;
pub use provenance::{provenance, BlameEntry, PageHistory, ProvenanceReport};
pub use recorder::{RingRecorder, Sink};
pub use registry::{
    prometheus_exposition, validate_prometheus, Counter, Gauge, Histogram, HistogramHandle,
    MetricKind, MetricSample, MetricValue, MetricsHub,
};
pub use slo::{BurnRateConfig, SloAdvisory, SloMonitor, SloSpec};
pub use span::{SpanId, SpanIndex, SpanKind, SpanPayload, SpanRecord};
pub use trace::{chrome_trace_json, folded_stacks, validate_chrome_trace};
