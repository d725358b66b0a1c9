//! The live observatory (binary `observe`; gates in `grid observe`): an
//! always-on view of a running cell built from the typed metrics registry
//! ([`telemetry::MetricsHub`]) and the SLO burn-rate monitor
//! ([`telemetry::SloMonitor`]).
//!
//! Two instrumented drives live here:
//!
//! - **quickstart** — the fault-free GUPS @ 2× steady-state run with a
//!   hub and a latency objective attached. Healthy by construction, so
//!   its burn-rate monitor must stay silent ([`QUICKSTART_TARGET_NS`]
//!   sits far above the loaded latency the run actually sees);
//! - **ls-antagonist** — the contended colocation mix with per-tenant
//!   objectives. Without the QoS arbiter the latency-sensitive tenant
//!   burns through its error budget and the monitor must fire (and tag
//!   the alert with the tenant id); with the arbiter the same mix holds
//!   its target.
//!
//! The `--smoke` gates pin all of that plus the exporters (the
//! Prometheus exposition parses, the NDJSON snapshot and alert events
//! satisfy the schema validator) and the registry's cost: an attached
//! hub must add < [`MAX_OVERHEAD_FRAC`] wall-clock on a Figure 9 quick
//! cell vs the detached run (the median of interleaved paired ratios, to
//! shed scheduler noise).

use memsim::{TickReport, TrafficClass};
use simkit::SimTime;
use telemetry::{BurnRateConfig, MetricsHub, SloMonitor, SloSpec};
use tiersys::SystemKind;

use crate::grid::{Ctx, EndState, Harness, Opts};
use crate::runner::run as run_exp;
use crate::{colocation, timeline};

/// Latency objective for the fault-free quickstart drive, in ns. The
/// GUPS @ 2× steady state serves hot pages from the fast tier at well
/// under 200 ns arrival-weighted; a monitor against this target firing
/// means the run (or the monitor) regressed, not that the machine is
/// slow.
pub const QUICKSTART_TARGET_NS: f64 = 400.0;

/// Good-fraction objective used by every observatory SLO (95% of ticks
/// within target; burn rate 1.0 = exactly spending the 5% budget).
pub const OBJECTIVE: f64 = 0.95;

/// The overhead gate: attached-hub wall-clock on the Figure 9 quick
/// cell must stay within 5% of the detached run.
pub const MAX_OVERHEAD_FRAC: f64 = 0.05;

/// Timed detached/attached pairs for the overhead gate.
const OVERHEAD_PAIRS: usize = 7;

/// Ticks the observed quickstart drive runs for (the steady-state
/// defaults' minimum warm-up plus the measurement window; the observed
/// drive steps tick by tick so the monitor sees every quantum).
const QUICKSTART_TICKS: usize = 250;

/// Arrival-weighted application access latency this tick, across tiers
/// (`None` if no app traffic arrived).
pub fn app_tick_latency_ns(report: &TickReport) -> Option<f64> {
    let app = TrafficClass::App.index();
    let mut weighted = 0.0;
    let mut bytes = 0.0;
    for w in &report.tiers {
        if let Some(l) = w.littles_latency_ns() {
            weighted += l * w.bytes_by_class[app] as f64;
            bytes += w.bytes_by_class[app] as f64;
        }
    }
    (bytes > 0.0).then(|| weighted / bytes)
}

/// Everything one instrumented drive leaves behind.
pub struct Observation {
    /// Drive name ("quickstart", "ls-antagonist", ...).
    pub name: &'static str,
    /// The hub with every registered series.
    pub hub: MetricsHub,
    /// The burn-rate monitor at end of run.
    pub monitor: SloMonitor,
    /// Recorded events (the ring's contents; SLO alerts land here).
    pub events: Vec<telemetry::Event>,
    /// Machine time at the end of the run.
    pub t_end: SimTime,
    /// End state over the managed pages.
    pub end: EndState,
}

impl Observation {
    /// Total burn-rate alerts fired across objectives.
    pub fn alerts_fired(&self) -> u64 {
        self.monitor.total_fired()
    }

    /// `slo_alert` events captured in the telemetry ring.
    pub fn alert_events(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, telemetry::EventKind::SloAlert { .. }))
            .count()
    }

    /// The Prometheus text exposition of the hub.
    pub fn exposition(&self) -> String {
        telemetry::prometheus_exposition(&self.hub)
    }

    /// The NDJSON export: recorded events followed by a metrics
    /// snapshot, one schema-valid record per line (`seq` stays dense
    /// across the two blocks).
    pub fn ndjson(&self) -> String {
        let mut out = telemetry::export::events_to_ndjson(&self.events);
        out.push_str(&telemetry::export::metrics_snapshot_ndjson_from(
            &self.hub,
            self.t_end,
            self.events.len() as u64,
        ));
        out
    }
}

/// Runs the fault-free quickstart drive (`timeline::quickstart`: GUPS
/// @ 2×, HeMem+Colloid) with the full observability stack attached.
pub fn run_quickstart_observed() -> Observation {
    let (mut exp, _, ws) = timeline::quickstart().build(false);
    let sink = telemetry::Sink::ring(1 << 14, 0);
    exp.attach_telemetry(sink.clone());
    let hub = MetricsHub::new();
    exp.attach_metrics(hub.clone());

    let mut monitor = SloMonitor::new(BurnRateConfig::default());
    monitor.set_telemetry(sink.clone());
    monitor.set_metrics(hub.clone());
    let obj = monitor.add(SloSpec {
        name: "quickstart-latency".into(),
        tenant: None,
        target_ns: QUICKSTART_TARGET_NS,
        objective: OBJECTIVE,
    });

    // A plain step loop rather than `runner::run` under the cell's run
    // configuration: every tick's latency feeds the hub and the SLO
    // monitor.
    let app_lat = hub.histogram("observe_app_latency_ns");
    for _ in 0..QUICKSTART_TICKS {
        let report = exp.step();
        if let Some(l) = app_tick_latency_ns(&report) {
            app_lat.record_ns(l);
            monitor.observe(obj, l);
        }
    }

    Observation {
        name: "quickstart",
        hub,
        monitor,
        events: sink.with(|r| r.events()).unwrap_or_default(),
        t_end: exp.machine.now(),
        end: EndState::of(&exp.machine, &[(&*exp.system, ws)]),
    }
}

/// A live dashboard consumer: the callback plus its tick cadence.
pub type FrameSink<'a> = (&'a mut dyn FnMut(&str), usize);

/// Runs the contended `ls-antagonist` colocation cell (HeMem+Colloid)
/// with per-tenant objectives, ± the QoS arbiter. `frame` (if given) is
/// called every `frame_every` ticks with the live dashboard text.
pub fn run_colocation_observed(arbiter: bool, mut frame: Option<FrameSink<'_>>) -> Observation {
    let sc = &colocation::mixes(true)[0];
    let mut exp = colocation::build(sc, SystemKind::Hemem, true, arbiter);

    // The builder leaves the sink disabled; swap in a recording ring and
    // re-register the tenant page map on it.
    let sink = telemetry::Sink::ring(1 << 16, 0);
    exp.machine.set_telemetry(sink.clone());
    for t in &mut exp.colo.tenants {
        sink.register_tenant_pages(t.range.clone(), t.id);
        t.system.set_telemetry(sink.clone());
    }
    exp.sink = sink.clone();

    let hub = MetricsHub::new();
    exp.machine.set_metrics(hub.clone());

    // Warm-up runs unmonitored: the arbitrated cell spends it reclaiming
    // the fast tier from the antagonist, and paging on that transient
    // would drown the signal that matters (whether the *steady* mix
    // holds its target). The monitor and the colocation-level series
    // watch the measurement window only.
    for _ in 0..sc.warmup_ticks {
        exp.step();
    }
    exp.colo
        .attach_slo_monitor(BurnRateConfig::default(), OBJECTIVE, &sink);
    exp.colo.set_metrics(hub.clone());

    let total = sc.measure_ticks;
    for i in 0..total {
        exp.step();
        if let Some((cb, every)) = frame.as_mut() {
            if *every > 0 && (i + 1) % *every == 0 {
                let adv = exp.colo.slo.as_ref().map(|m| m.advisories());
                cb(&render_frame(
                    &hub,
                    adv.as_deref().unwrap_or(&[]),
                    i + 1,
                    total,
                ));
            }
        }
    }

    let monitor = exp.colo.slo.take().expect("monitor was attached");
    let systems: Vec<_> = exp
        .colo
        .tenants
        .iter()
        .map(|t| (&*t.system, t.range.clone()))
        .collect();
    Observation {
        name: "ls-antagonist",
        hub,
        monitor,
        events: sink.with(|r| r.events()).unwrap_or_default(),
        t_end: exp.machine.now(),
        end: EndState::of(&exp.machine, &systems),
    }
}

/// Renders one dashboard frame: gauges and counters as-is, histograms
/// as count/p50/p99/p999, then the burn-rate advisory lines.
pub fn render_frame(
    hub: &MetricsHub,
    advisories: &[telemetry::SloAdvisory],
    tick: usize,
    total: usize,
) -> String {
    let mut out = format!("── observatory ── tick {tick}/{total} ──\n");
    for s in hub.snapshot() {
        let labels = if s.labels.is_empty() {
            String::new()
        } else {
            let inner = s
                .labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(",");
            format!("{{{inner}}}")
        };
        match &s.value {
            telemetry::MetricValue::Counter(v) => {
                out.push_str(&format!("  {:44} {v}\n", format!("{}{labels}", s.name)));
            }
            telemetry::MetricValue::Gauge(v) => {
                out.push_str(&format!("  {:44} {v:.3}\n", format!("{}{labels}", s.name)));
            }
            telemetry::MetricValue::Histogram(h) => {
                out.push_str(&format!(
                    "  {:44} n={} p50={} p99={} p999={}\n",
                    format!("{}{labels}", s.name),
                    h.count(),
                    h.quantile(0.5),
                    h.quantile(0.99),
                    h.quantile(0.999),
                ));
            }
        }
    }
    for a in advisories {
        out.push_str(&format!(
            "  slo {:30} {} burn fast {:.1}x / slow {:.1}x (target {:.0} ns)\n",
            a.name,
            if a.firing { "FIRING " } else { "ok     " },
            a.burn_fast,
            a.burn_slow,
            a.target_ns,
        ));
    }
    out
}

/// Times the Figure 9 contention quick cell under HeMem+Colloid
/// (`timeline::contention`) detached and attached in seven
/// back-to-back pairs, alternating which side runs first, and returns
/// each pair's `(detached_s, attached_s)`.
pub fn overhead_timing() -> Vec<(f64, f64)> {
    let time_one = |with_hub: bool| -> f64 {
        let (mut exp, rc, _) = timeline::contention(true).build(true);
        if with_hub {
            exp.attach_metrics(MetricsHub::new());
        }
        let t0 = std::time::Instant::now();
        run_exp(&mut exp, &rc);
        t0.elapsed().as_secs_f64()
    };
    let pair = |i: usize| {
        if i.is_multiple_of(2) {
            let detached = time_one(false);
            (detached, time_one(true))
        } else {
            let attached = time_one(true);
            (time_one(false), attached)
        }
    };
    (0..OVERHEAD_PAIRS).map(pair).collect()
}

/// The overhead the gate reads from timed pairs: the median of the
/// per-pair `attached / detached` ratios, minus one.
pub fn median_overhead(pairs: &[(f64, f64)]) -> f64 {
    let mut ratios: Vec<f64> = pairs.iter().map(|(d, a)| a / d).collect();
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2] - 1.0
}

/// The `--smoke` gates. Returns failures (empty = pass):
///
/// 1. **separation** — the bare contended mix fires a burn-rate alert
///    on the latency-sensitive tenant (and the alert event is in the
///    ring, tagged with the tenant), the arbitrated twin and the
///    fault-free quickstart stay silent;
/// 2. **exporters** — every drive's Prometheus exposition passes
///    [`telemetry::validate_prometheus`] and its NDJSON (events + metric
///    snapshot) passes [`telemetry::export::validate_ndjson`];
/// 3. **cost** — the hub adds < 5% wall-clock (`overhead`, the
///    [`median_overhead`] of [`overhead_timing`]'s pairs) on the Figure 9
///    quick cell.
pub fn smoke_failures(
    quickstart: &Observation,
    bare: &Observation,
    arbitrated: &Observation,
    overhead: f64,
) -> Vec<String> {
    let mut fails = Vec::new();

    if quickstart.alerts_fired() > 0 {
        fails.push(format!(
            "quickstart: {} burn-rate alerts on a fault-free run",
            quickstart.alerts_fired()
        ));
    }
    if bare.alerts_fired() == 0 {
        fails
            .push("ls-antagonist (bare): contended LS tenant never fired a burn-rate alert".into());
    }
    if bare.alert_events() == 0 {
        fails.push("ls-antagonist (bare): no slo_alert event reached the telemetry ring".into());
    }
    let ls_tagged = bare
        .events
        .iter()
        .any(|e| matches!(e.kind, telemetry::EventKind::SloAlert { .. }) && e.tenant.is_some());
    if bare.alert_events() > 0 && !ls_tagged {
        fails.push("ls-antagonist (bare): slo_alert events are not tenant-tagged".into());
    }
    if arbitrated.alerts_fired() > 0 {
        fails.push(format!(
            "ls-antagonist (+qos): {} alerts fired despite the arbiter holding the target",
            arbitrated.alerts_fired()
        ));
    }

    for obs in [quickstart, bare, arbitrated] {
        let expo = obs.exposition();
        if let Err(e) = telemetry::validate_prometheus(&expo) {
            fails.push(format!("{}: exposition invalid: {e}", obs.name));
        }
        if let Err(e) = telemetry::export::validate_ndjson(&obs.ndjson()) {
            fails.push(format!("{}: NDJSON export invalid: {e}", obs.name));
        }
        if obs.hub.kind_conflicts() > 0 {
            fails.push(format!(
                "{}: {} metric registrations clashed on kind",
                obs.name,
                obs.hub.kind_conflicts()
            ));
        }
    }

    if overhead > MAX_OVERHEAD_FRAC {
        fails.push(format!(
            "metrics overhead {:.1}% exceeds the {:.0}% budget on the fig9 quick cell",
            overhead * 100.0,
            MAX_OVERHEAD_FRAC * 100.0
        ));
    }

    fails
}

/// The observatory's gates (`grid observe`): the quickstart and the
/// contended cell bare and arbitrated, the bare cell's artifacts, and
/// under `--smoke` the separation, exporter and overhead gates. The
/// drives have one length, so `--quick` changes nothing.
pub struct Observe(pub Opts);

impl Harness for Observe {
    type Cell = &'static str;
    type Outcome = Observation;

    fn preamble(&mut self) -> Result<String, String> {
        Ok("observe --smoke: quickstart + ls-antagonist (bare, +qos) + overhead gate\n".into())
    }

    fn cells(&self) -> Vec<(String, &'static str)> {
        ["quickstart", "ls-antagonist (bare)", "ls-antagonist (+qos)"]
            .map(|c| (c.into(), c))
            .to_vec()
    }

    fn run(&self, drive: &&'static str) -> Observation {
        match *drive {
            "quickstart" => run_quickstart_observed(),
            arbiter => run_colocation_observed(arbiter.contains("+qos"), None),
        }
    }

    fn end_state(outcome: &Observation) -> &EndState {
        &outcome.end
    }

    fn finish(&mut self, results: Vec<(&'static str, Observation)>, ctx: &mut Ctx) -> Vec<String> {
        let [(_, quickstart), (_, bare), (_, arbitrated)] =
            <[_; 3]>::try_from(results).unwrap_or_else(|_| unreachable!("three drives"));
        let mut out = format!(
            "quickstart: {} alerts, {} events\n\
             ls-antagonist (bare): {} alerts, {} slo_alert events\n\
             ls-antagonist (+qos): {} alerts\n",
            quickstart.alerts_fired(),
            quickstart.events.len(),
            bare.alerts_fired(),
            bare.alert_events(),
            arbitrated.alerts_fired(),
        );
        let prom = ctx.export("metrics.prom", &bare.exposition());
        let ndjson = ctx.export("observe.ndjson", &bare.ndjson());
        if prom.is_some() && ndjson.is_some() {
            out.push_str(&format!(
                "artifacts written to {}/{{metrics.prom,observe.ndjson}}\n",
                ctx.dir.display()
            ));
        }
        if self.0.smoke {
            let pairs = overhead_timing();
            for (i, (detached, attached)) in pairs.iter().enumerate() {
                out.push_str(&format!(
                    "overhead pair {}: detached {detached:.3}s vs attached {attached:.3}s ({:+.1}%)\n",
                    i + 1,
                    (attached / detached - 1.0) * 100.0
                ));
            }
            let overhead = median_overhead(&pairs);
            out.push_str(&format!(
                "overhead: median of {} pairs {:+.1}%\n",
                pairs.len(),
                overhead * 100.0
            ));
            ctx.failures
                .extend(smoke_failures(&quickstart, &bare, &arbitrated, overhead));
        }
        vec![out]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_overhead_gate_reads_the_median_pair() {
        // One slow pair on either side moves neither the median nor the
        // verdict.
        let pairs = [
            (1.0, 1.01),
            (1.0, 1.5),
            (2.0, 1.0),
            (1.0, 1.02),
            (1.0, 1.03),
        ];
        assert!((median_overhead(&pairs) - 0.02).abs() < 1e-12);
    }
}
