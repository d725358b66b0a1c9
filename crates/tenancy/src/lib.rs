//! Multi-tenant colocation over a shared tiered-memory machine.
//!
//! The paper evaluates one tiering policy serving one workload. Real
//! tiered machines are shared: several tenants colocate on the same
//! DRAM + CXL tiers, each with its own workload, hotness profile, and
//! latency sensitivity. This crate adds that layer:
//!
//! * [`tenant`] — a [`Tenant`] owns a workload (any of
//!   gups/graph/silo/kvcache/adaptive at a chosen intensity), a page
//!   range, and a declared [`Slo`]. Each tenant gets its
//!   **own** sharded tiering system over its range — its own hotness
//!   bins and, when Colloid is enabled, its own `p` controller — so one
//!   tenant's access pattern never pollutes another's heat estimates.
//! * [`hooks`] — TierBPF-style pluggable [`AdmissionHook`]s on each
//!   tenant's migration stream (rate caps, ping-pong suppression).
//! * [`arbiter`] — the global [`QosArbiter`]: a
//!   [`memsim::MigrationGate`] that enforces per-tenant fast-tier
//!   floors/ceilings in strict-priority or weighted-fair mode, plus an
//!   active rebalancer that reclaims fast-tier capacity for under-floor
//!   tenants by demoting the coldest pages of over-floor ones.
//!
//! [`Colocation`] glues these together per tick: arbiter observation,
//! per-tenant controller steps (each wrapped in the telemetry sink's
//! tenant context so every event is tagged with its [`TenantId`]), then
//! arbiter reclamation. With one tenant and no arbiter the loop is
//! byte-identical to driving the tenant's tiering system directly — the
//! colocation experiment pins that with a golden digest.

pub mod arbiter;
pub mod hooks;
pub mod tenant;

pub use arbiter::{ArbiterConfig, ArbiterMode, QosArbiter, TenantArbReport};
pub use hooks::{AdmissionHook, PingPongSuppressor, RateCap};
pub use tenant::{Slo, SloClass, Tenant, TenantId, TenantSpec, TenantWorkload, WorkloadKind};

use memsim::{Machine, TickReport};
use telemetry::{BurnRateConfig, Sink, SloMonitor, SloSpec};

/// Per-tenant observability series (all detached unless a hub is
/// attached via [`Colocation::set_metrics`]).
#[derive(Default)]
struct ColoMetrics {
    enabled: bool,
    /// Per-tick line-weighted access latency, one histogram per tenant.
    latency: Vec<telemetry::HistogramHandle>,
    /// Fraction of the tenant's pages in the fast tier, one gauge per
    /// tenant.
    fast_share: Vec<telemetry::Gauge>,
    /// Pages the arbiter's rebalancer demoted (mirror of
    /// `QosArbiter::reclaimed_pages`).
    reclaimed: telemetry::Counter,
    reclaimed_seen: u64,
}

/// A set of colocated tenants and (optionally) the arbiter over them.
pub struct Colocation {
    /// Tenants in id order (`tenants[i].id == TenantId(i)`).
    pub tenants: Vec<Tenant>,
    /// The QoS arbiter, if arbitration is enabled. Its gate must already
    /// be installed on the machine (`machine.set_migration_gate`).
    pub arbiter: Option<QosArbiter>,
    /// Burn-rate monitor over the tenants' declared latency objectives
    /// (attached with [`Colocation::attach_slo_monitor`]).
    pub slo: Option<SloMonitor>,
    /// Monitor objective index per tenant (`None` = no finite target).
    slo_idx: Vec<Option<usize>>,
    metrics: ColoMetrics,
}

impl Colocation {
    /// Builds the colocation loop over `tenants` with no SLO monitor and
    /// no metrics attached (both observability layers are opt-in, so the
    /// bare loop stays bit-identical to the pre-observability seed).
    pub fn new(tenants: Vec<Tenant>, arbiter: Option<QosArbiter>) -> Self {
        let slo_idx = vec![None; tenants.len()];
        Colocation {
            tenants,
            arbiter,
            slo: None,
            slo_idx,
            metrics: ColoMetrics::default(),
        }
    }

    /// Attaches a burn-rate monitor with one objective per tenant that
    /// declared a finite p99 target (`objective` is the good-fraction
    /// goal, e.g. `0.95`). Alert events go to `sink` tagged with the
    /// tenant id; advisories feed the arbiter's floor boost each tick.
    pub fn attach_slo_monitor(&mut self, cfg: BurnRateConfig, objective: f64, sink: &Sink) {
        let mut mon = SloMonitor::new(cfg);
        mon.set_telemetry(sink.clone());
        for (i, t) in self.tenants.iter().enumerate() {
            if t.spec.slo.p99_target_ns.is_finite() {
                self.slo_idx[i] = Some(mon.add(SloSpec {
                    name: format!("{}-latency", t.spec.name),
                    tenant: Some(t.id),
                    target_ns: t.spec.slo.p99_target_ns,
                    objective,
                }));
            }
        }
        self.slo = Some(mon);
    }

    /// Attaches a live metrics hub: per-tenant latency histograms and
    /// fast-share gauges, a reclaimed-pages counter, the SLO monitor's
    /// burn-rate series, and every tenant system's own series.
    pub fn set_metrics(&mut self, hub: telemetry::MetricsHub) {
        self.metrics.enabled = hub.enabled();
        self.metrics.latency = self
            .tenants
            .iter()
            .map(|t| hub.histogram_with("tenant_latency_ns", &[("tenant", t.spec.name)]))
            .collect();
        self.metrics.fast_share = self
            .tenants
            .iter()
            .map(|t| hub.gauge_with("tenant_fast_share", &[("tenant", t.spec.name)]))
            .collect();
        self.metrics.reclaimed = hub.counter("tenancy_reclaimed_pages_total");
        if let Some(mon) = &mut self.slo {
            mon.set_metrics(hub.clone());
        }
        for t in &mut self.tenants {
            t.system.set_metrics(hub.clone());
        }
    }

    /// Runs one colocation tick: arbiter observation, each tenant's
    /// tiering controller (telemetry tagged with its tenant id), SLO and
    /// metrics observation, then arbiter reclamation using the victims'
    /// own heat estimates (floors possibly boosted by firing SLOs).
    pub fn on_tick(&mut self, machine: &mut Machine, report: &TickReport, sink: Option<&Sink>) {
        if let Some(arb) = &mut self.arbiter {
            arb.observe(machine);
        }
        for t in &mut self.tenants {
            let prev = sink.map(|s| s.set_tenant_context(Some(t.id)));
            t.system.on_tick(machine, report);
            if let (Some(s), Some(prev)) = (sink, prev) {
                s.set_tenant_context(prev);
            }
        }
        self.observe_tenants(machine, report);
        if let (Some(mon), Some(arb)) = (&self.slo, &mut self.arbiter) {
            arb.ingest_advisories(&mon.advisories());
        }
        if let Some(arb) = &mut self.arbiter {
            let tenants = &self.tenants;
            arb.rebalance(machine, |i, vpn| tenants[i].system.heat_of(vpn));
            if self.metrics.enabled {
                let delta = arb.reclaimed_pages - self.metrics.reclaimed_seen;
                self.metrics.reclaimed.add(delta);
                self.metrics.reclaimed_seen = arb.reclaimed_pages;
            }
        }
    }

    /// Feeds per-tenant latency into the metrics histograms and the SLO
    /// monitor's windows. Pure observation: a no-op (not even the
    /// latency read) unless a monitor or a hub is attached.
    fn observe_tenants(&mut self, machine: &Machine, report: &TickReport) {
        if !self.metrics.enabled && self.slo.is_none() {
            return;
        }
        for (i, t) in self.tenants.iter().enumerate() {
            if let Some(l) = t.tick_latency_ns(machine, report) {
                if let Some(h) = self.metrics.latency.get(i) {
                    h.record_ns(l);
                }
                if let (Some(mon), Some(j)) = (&mut self.slo, self.slo_idx[i]) {
                    mon.observe(j, l);
                }
            }
            if self.metrics.enabled {
                self.metrics.fast_share[i].set(t.fast_share(machine));
            }
        }
    }

    /// Sum of pages owned across tenants (for conservation checks).
    pub fn total_pages(&self) -> u64 {
        self.tenants.iter().map(|t| t.pages()).sum()
    }

    /// Hot-swaps one tenant's hotness policy at a quantum boundary (the
    /// new tracker is seeded from the old ranking). Returns `false` if
    /// the tenant id is out of range or its system has no policy layer.
    pub fn swap_policy(&mut self, tenant: TenantId, kind: tiersys::PolicyKind) -> bool {
        self.tenants
            .get_mut(tenant.0 as usize)
            .is_some_and(|t| t.system.swap_policy(kind))
    }
}
