//! SLO burn-rate monitoring (Google-SRE style dual-window alerts).
//!
//! An [`SloSpec`] declares a latency objective: "at least `objective` of
//! ticks must see loaded latency at or under `target_ns`". The error
//! budget is `1 - objective`, and the **burn rate** of a window is the
//! fraction of bad ticks in it divided by that budget — burn 1.0 spends
//! the budget exactly at the allowed pace, burn 20 spends a 5% budget in
//! 1/20th of the period.
//!
//! [`SloMonitor`] keeps two sliding tick windows per objective — a short
//! *fast* window that reacts quickly and a long *slow* window that
//! filters blips — and fires only when **both** burn rates exceed the
//! threshold (the standard multi-window construction: the fast window
//! gives low detection latency, the slow window keeps one bad tick from
//! paging). Alerts resolve with hysteresis once the fast burn drops
//! under `threshold * clear_ratio`.
//!
//! Transitions are emitted as [`EventKind::SloAlert`] events into the
//! ordinary recorder stream (under the spec's tenant context, so
//! colocation exports attribute them), and the current state is exposed
//! both as [`SloAdvisory`] values — consumed by the supervisor and the
//! `QosArbiter` as backpressure hints — and as gauges/counters on an
//! attached [`MetricsHub`].

use crate::event::{EventKind, Source, TenantId};
use crate::recorder::Sink;
use crate::registry::{Counter, Gauge, MetricsHub};

/// A latency service-level objective over tick latencies.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Objective name (used in alert events and metric labels).
    pub name: String,
    /// Tenant the objective belongs to (colocation runs), if any.
    pub tenant: Option<TenantId>,
    /// Latency target in nanoseconds; a tick is *bad* when its observed
    /// latency exceeds this.
    pub target_ns: f64,
    /// Fraction of ticks that must be good, in `(0, 1)` (e.g. `0.95`).
    pub objective: f64,
}

impl SloSpec {
    /// Error budget: allowed bad-tick fraction (`1 - objective`).
    pub fn budget(&self) -> f64 {
        (1.0 - self.objective).max(f64::MIN_POSITIVE)
    }
}

/// Tuning for the dual-window burn-rate evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnRateConfig {
    /// Fast (paging) window length in ticks.
    pub fast_window: usize,
    /// Slow (confirmation) window length in ticks.
    pub slow_window: usize,
    /// Fire when both windows burn at or above this multiple of the
    /// budget pace.
    pub threshold: f64,
    /// Resolve once the fast burn drops under `threshold * clear_ratio`.
    pub clear_ratio: f64,
}

impl Default for BurnRateConfig {
    fn default() -> Self {
        BurnRateConfig {
            fast_window: 30,
            slow_window: 120,
            threshold: 4.0,
            clear_ratio: 0.5,
        }
    }
}

/// Fixed-capacity sliding window of good/bad tick outcomes.
#[derive(Debug, Clone)]
struct Window {
    buf: Vec<bool>,
    cap: usize,
    pos: usize,
    len: usize,
    bad: usize,
}

impl Window {
    fn new(cap: usize) -> Self {
        Window {
            buf: vec![false; cap.max(1)],
            cap: cap.max(1),
            pos: 0,
            len: 0,
            bad: 0,
        }
    }

    fn push(&mut self, bad: bool) {
        if self.len == self.cap {
            if self.buf[self.pos] {
                self.bad -= 1;
            }
        } else {
            self.len += 1;
        }
        self.buf[self.pos] = bad;
        if bad {
            self.bad += 1;
        }
        self.pos = (self.pos + 1) % self.cap;
    }

    fn full(&self) -> bool {
        self.len == self.cap
    }

    fn bad_fraction(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.bad as f64 / self.len as f64
        }
    }
}

/// Live alert state for one objective, for dashboards and arbiters.
#[derive(Debug, Clone, PartialEq)]
pub struct SloAdvisory {
    /// Objective name.
    pub name: String,
    /// Tenant the objective belongs to, if any.
    pub tenant: Option<TenantId>,
    /// Whether the alert is currently firing.
    pub firing: bool,
    /// Fast-window burn rate.
    pub burn_fast: f64,
    /// Slow-window burn rate.
    pub burn_slow: f64,
    /// The objective's latency target, ns.
    pub target_ns: f64,
}

#[derive(Debug, Clone)]
struct SloState {
    spec: SloSpec,
    fast: Window,
    slow: Window,
    firing: bool,
    fired: u64,
    burn_fast_gauge: Gauge,
    burn_slow_gauge: Gauge,
    alerts_counter: Counter,
}

/// The dual-window burn-rate monitor. See the module docs.
#[derive(Clone, Default)]
pub struct SloMonitor {
    cfg: BurnRateConfig,
    states: Vec<SloState>,
    sink: Sink,
    hub: MetricsHub,
}

impl SloMonitor {
    /// Monitor with the given window/threshold tuning and no objectives.
    pub fn new(cfg: BurnRateConfig) -> Self {
        SloMonitor {
            cfg,
            states: Vec::new(),
            sink: Sink::disabled(),
            hub: MetricsHub::disabled(),
        }
    }

    /// Route alert transition events into this sink.
    pub fn set_telemetry(&mut self, sink: Sink) {
        self.sink = sink;
    }

    /// Export burn gauges and alert counters through this hub.
    pub fn set_metrics(&mut self, hub: MetricsHub) {
        for st in &mut self.states {
            Self::register(&hub, st);
        }
        self.hub = hub;
    }

    fn register(hub: &MetricsHub, st: &mut SloState) {
        let labels = [("slo", st.spec.name.as_str())];
        st.burn_fast_gauge = hub.gauge_with("slo_burn_rate_fast", &labels);
        st.burn_slow_gauge = hub.gauge_with("slo_burn_rate_slow", &labels);
        st.alerts_counter = hub.counter_with("slo_alerts_fired_total", &labels);
    }

    /// Add an objective; returns its index for [`observe`](Self::observe).
    pub fn add(&mut self, spec: SloSpec) -> usize {
        let mut st = SloState {
            spec,
            fast: Window::new(self.cfg.fast_window),
            slow: Window::new(self.cfg.slow_window),
            firing: false,
            fired: 0,
            burn_fast_gauge: Gauge::default(),
            burn_slow_gauge: Gauge::default(),
            alerts_counter: Counter::default(),
        };
        Self::register(&self.hub, &mut st);
        self.states.push(st);
        self.states.len() - 1
    }

    /// Number of objectives being watched.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when no objectives are registered.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Feed one tick's observed latency for objective `idx`. Evaluates
    /// both windows and emits an [`EventKind::SloAlert`] on any
    /// firing/resolved transition.
    pub fn observe(&mut self, idx: usize, latency_ns: f64) {
        let Some(st) = self.states.get_mut(idx) else {
            return;
        };
        let bad = latency_ns > st.spec.target_ns;
        st.fast.push(bad);
        st.slow.push(bad);
        let budget = st.spec.budget();
        let burn_fast = st.fast.bad_fraction() / budget;
        let burn_slow = st.slow.bad_fraction() / budget;
        st.burn_fast_gauge.set(burn_fast);
        st.burn_slow_gauge.set(burn_slow);
        let transition = if !st.firing {
            // Fire only on a full fast window, so a run's first ticks
            // cannot page before there is evidence.
            (st.fast.full() && burn_fast >= self.cfg.threshold && burn_slow >= self.cfg.threshold)
                .then_some("firing")
        } else {
            (burn_fast < self.cfg.threshold * self.cfg.clear_ratio).then_some("resolved")
        };
        if let Some(state) = transition {
            st.firing = state == "firing";
            if st.firing {
                st.fired += 1;
                st.alerts_counter.inc();
            }
            let prev = self.sink.set_tenant_context(st.spec.tenant);
            let (name, target_ns) = (st.spec.name.clone(), st.spec.target_ns);
            self.sink.emit(Source::Runner, || EventKind::SloAlert {
                slo: name,
                state,
                burn_fast,
                burn_slow,
                target_ns,
            });
            self.sink.set_tenant_context(prev);
        }
    }

    /// Whether objective `idx` is currently firing.
    pub fn firing(&self, idx: usize) -> bool {
        self.states.get(idx).is_some_and(|s| s.firing)
    }

    /// Total firing transitions across all objectives.
    pub fn total_fired(&self) -> u64 {
        self.states.iter().map(|s| s.fired).sum()
    }

    /// Current state of every objective, in registration order.
    pub fn advisories(&self) -> Vec<SloAdvisory> {
        let budgeted = |st: &SloState, w: &Window| w.bad_fraction() / st.spec.budget();
        self.states
            .iter()
            .map(|st| SloAdvisory {
                name: st.spec.name.clone(),
                tenant: st.spec.tenant,
                firing: st.firing,
                burn_fast: budgeted(st, &st.fast),
                burn_slow: budgeted(st, &st.slow),
                target_ns: st.spec.target_ns,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(target_ns: f64) -> SloSpec {
        SloSpec {
            name: "t0_p99".to_string(),
            tenant: Some(TenantId(0)),
            target_ns,
            objective: 0.95,
        }
    }

    fn small_cfg() -> BurnRateConfig {
        BurnRateConfig {
            fast_window: 4,
            slow_window: 8,
            threshold: 4.0,
            clear_ratio: 0.5,
        }
    }

    #[test]
    fn healthy_stream_never_fires() {
        let mut mon = SloMonitor::new(small_cfg());
        let idx = mon.add(spec(100.0));
        for _ in 0..100 {
            mon.observe(idx, 80.0);
        }
        assert!(!mon.firing(idx));
        assert_eq!(mon.total_fired(), 0);
        let adv = &mon.advisories()[0];
        assert_eq!(adv.burn_fast, 0.0);
        assert!(!adv.firing);
    }

    #[test]
    fn sustained_violation_fires_and_resolves_with_hysteresis() {
        let sink = Sink::ring(64, 0);
        let mut mon = SloMonitor::new(small_cfg());
        mon.set_telemetry(sink.clone());
        let idx = mon.add(spec(100.0));
        // One bad tick: fast window not saturated at threshold → silent.
        mon.observe(idx, 500.0);
        assert!(!mon.firing(idx));
        // Sustained violation: both windows burn at 20x budget.
        for _ in 0..8 {
            mon.observe(idx, 500.0);
        }
        assert!(mon.firing(idx));
        assert_eq!(mon.total_fired(), 1);
        // Recovery: alert clears once fast burn drops under half the
        // threshold (needs the fast window to flush out bad ticks).
        for _ in 0..8 {
            mon.observe(idx, 50.0);
        }
        assert!(!mon.firing(idx));
        let events = sink.with(|r| r.events()).unwrap();
        let alerts: Vec<_> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::SloAlert { state, .. } => Some((*state, e.tenant)),
                _ => None,
            })
            .collect();
        assert_eq!(
            alerts,
            vec![
                ("firing", Some(TenantId(0))),
                ("resolved", Some(TenantId(0)))
            ]
        );
    }

    #[test]
    fn single_blip_in_long_slow_window_stays_silent() {
        let cfg = BurnRateConfig {
            fast_window: 2,
            slow_window: 40,
            threshold: 4.0,
            clear_ratio: 0.5,
        };
        let mut mon = SloMonitor::new(cfg);
        let idx = mon.add(spec(100.0));
        for _ in 0..40 {
            mon.observe(idx, 50.0);
        }
        // Two bad ticks saturate the fast window (burn 20) but the slow
        // window sits at 2/40 / 0.05 = 1.0 < threshold: no page.
        mon.observe(idx, 500.0);
        mon.observe(idx, 500.0);
        assert!(!mon.firing(idx));
    }

    #[test]
    fn metrics_export_burn_and_alert_counts() {
        let hub = MetricsHub::new();
        let mut mon = SloMonitor::new(small_cfg());
        mon.set_metrics(hub.clone());
        let idx = mon.add(spec(100.0));
        for _ in 0..8 {
            mon.observe(idx, 500.0);
        }
        assert_eq!(
            hub.counter_with("slo_alerts_fired_total", &[("slo", "t0_p99")])
                .get(),
            1
        );
        let burn = hub
            .gauge_with("slo_burn_rate_fast", &[("slo", "t0_p99")])
            .get();
        assert!((burn - 20.0).abs() < 1e-9, "burn {burn}");
        let _ = idx;
    }
}
