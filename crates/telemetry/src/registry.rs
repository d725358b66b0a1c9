//! Live metrics registry: typed counters, gauges, and log-linear HDR
//! histograms with bounded rank error.
//!
//! The registry complements the event and span streams: instead of
//! recording *what happened* for post-hoc export, it aggregates *how the
//! run is doing right now* — per-tier latency distributions, migration
//! copy times, controller decision latencies, per-tenant SLO quantiles —
//! cheaply enough to leave on during a live run and render as a dashboard
//! or scrape as Prometheus text.
//!
//! # Overhead contract
//!
//! [`MetricsHub`] follows the same discipline as [`crate::Sink`]: the
//! default ([`MetricsHub::disabled`]) hub hands out *detached* handles
//! whose hot-path operations ([`Counter::inc`], [`Gauge::set`],
//! [`HistogramHandle::record`]) are a single `Option` check and return.
//! Recording is passive — it never mutates simulation state and never
//! draws randomness — so runs stay bit-identical with metrics off or on
//! (pinned by the golden identity tests in `crates/experiments`).
//!
//! # Histogram design
//!
//! [`Histogram`] is log-linear in the HdrHistogram style with
//! [`SUB_BITS`] = 5 sub-bucket bits: values below `2^5 = 32` are counted
//! exactly; above that, each power-of-two octave is split into 32
//! sub-buckets of equal width. A bucket holding value `v ≥ 32` with most
//! significant bit `m` has width `2^(m-5)`, i.e. relative width `2^-5`,
//! so [`Histogram::quantile`] (which returns the upper bound of the
//! bucket containing the target rank) overestimates the exact empirical
//! quantile `t` by at most `t / 32` ≈ 3.1% and never underestimates it.
//! Histograms serialize to a compact sparse text form that round-trips
//! through [`Histogram::parse`].

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Sub-bucket bits: each octave is split into `2^SUB_BITS` linear
/// sub-buckets, bounding relative quantile error at `2^-SUB_BITS`.
pub const SUB_BITS: u32 = 5;
/// Number of sub-buckets per octave (`2^SUB_BITS`).
pub const SUB_COUNT: u64 = 1 << SUB_BITS;

/// A log-linear histogram over `u64` values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Dense bucket index for a value. Exact below [`SUB_COUNT`];
    /// log-linear above.
    fn bucket_index(v: u64) -> usize {
        if v < SUB_COUNT {
            v as usize
        } else {
            let m = 63 - v.leading_zeros(); // msb position, >= SUB_BITS
            let octave = u64::from(m - SUB_BITS + 1);
            let sub = (v >> (m - SUB_BITS)) - SUB_COUNT;
            ((octave << SUB_BITS) | sub) as usize
        }
    }

    /// Largest value mapping to bucket `idx` (what [`quantile`] reports).
    ///
    /// [`quantile`]: Histogram::quantile
    fn bucket_high(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < SUB_COUNT {
            idx
        } else {
            let octave = idx >> SUB_BITS;
            let sub = idx & (SUB_COUNT - 1);
            let shift = (octave - 1) as u32;
            let lo = (SUB_COUNT + sub) << shift;
            // `lo - 1 + width`, ordered so the top bucket (which ends at
            // `u64::MAX`) cannot overflow.
            lo - 1 + (1u64 << shift)
        }
    }

    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` observations of the same value.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = Self::bucket_index(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += n;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += n;
        self.sum += u128::from(v) * u128::from(n);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Arithmetic mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile estimate: the upper bound of the bucket containing the
    /// value of rank `ceil(q * count)` (1-based). For the exact empirical
    /// quantile `t` at the same rank, `t <= quantile(q) <= t + t/32`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if c > 0 && cum >= target {
                return Self::bucket_high(i).min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs in value order.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_high(i), c))
            .collect()
    }

    /// Compact sparse text form: `v1;b=<SUB_BITS>;count=..;sum=..;`
    /// `min=..;max=..;buckets=idx:count,idx:count,...`.
    pub fn serialize(&self) -> String {
        let mut s = format!(
            "v1;b={};count={};sum={};min={};max={};buckets=",
            SUB_BITS, self.count, self.sum, self.min, self.max
        );
        let mut first = true;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!("{}:{}", i, c));
        }
        s
    }

    /// Parse the [`serialize`](Histogram::serialize) form back.
    pub fn parse(text: &str) -> Result<Histogram, String> {
        let mut fields = text.split(';');
        if fields.next() != Some("v1") {
            return Err("histogram: missing v1 header".into());
        }
        let mut count = None;
        let mut sum = None;
        let mut min = None;
        let mut max = None;
        let mut buckets: Option<Vec<u64>> = None;
        for f in fields {
            let (key, val) = f
                .split_once('=')
                .ok_or_else(|| format!("histogram: malformed field {f:?}"))?;
            match key {
                "b" => {
                    let b: u32 = val.parse().map_err(|e| format!("histogram: b: {e}"))?;
                    if b != SUB_BITS {
                        return Err(format!("histogram: sub-bucket bits {b} != {SUB_BITS}"));
                    }
                }
                "count" => count = Some(val.parse::<u64>().map_err(|e| e.to_string())?),
                "sum" => sum = Some(val.parse::<u128>().map_err(|e| e.to_string())?),
                "min" => min = Some(val.parse::<u64>().map_err(|e| e.to_string())?),
                "max" => max = Some(val.parse::<u64>().map_err(|e| e.to_string())?),
                "buckets" => {
                    let mut v = Vec::new();
                    if !val.is_empty() {
                        for pair in val.split(',') {
                            let (i, c) = pair
                                .split_once(':')
                                .ok_or_else(|| format!("histogram: bad bucket {pair:?}"))?;
                            let i: usize = i.parse().map_err(|e| format!("histogram: {e}"))?;
                            let c: u64 = c.parse().map_err(|e| format!("histogram: {e}"))?;
                            if i >= v.len() {
                                v.resize(i + 1, 0);
                            }
                            v[i] += c;
                        }
                    }
                    buckets = Some(v);
                }
                other => return Err(format!("histogram: unknown field {other:?}")),
            }
        }
        let h = Histogram {
            buckets: buckets.ok_or("histogram: missing buckets")?,
            count: count.ok_or("histogram: missing count")?,
            sum: sum.ok_or("histogram: missing sum")?,
            min: min.ok_or("histogram: missing min")?,
            max: max.ok_or("histogram: missing max")?,
        };
        let bucket_total: u64 = h.buckets.iter().sum();
        if bucket_total != h.count {
            return Err(format!(
                "histogram: bucket total {bucket_total} != count {}",
                h.count
            ));
        }
        Ok(h)
    }
}

/// A monotonically increasing `u64` counter. Detached (no-op) when its
/// hub is disabled; clones share the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Rc<Cell<u64>>>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.set(c.get().saturating_add(n));
        }
    }

    /// Current value (0 when detached).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.get())
    }
}

/// A last-value-wins `f64` gauge. Detached (no-op) when its hub is
/// disabled; clones share the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Rc<Cell<f64>>>);

impl Gauge {
    /// Set the current value.
    pub fn set(&self, v: f64) {
        if let Some(c) = &self.0 {
            c.set(v);
        }
    }

    /// Current value (0 when detached).
    pub fn get(&self) -> f64 {
        self.0.as_ref().map_or(0.0, |c| c.get())
    }
}

/// Shared handle onto a registered [`Histogram`]. Detached (no-op) when
/// its hub is disabled.
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(Option<Rc<RefCell<Histogram>>>);

impl HistogramHandle {
    /// True when recording actually lands somewhere (hub enabled).
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Record one observation.
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.borrow_mut().record(v);
        }
    }

    /// Record a nanosecond measurement: non-finite and negative values
    /// are dropped, the rest round to the nearest integer nanosecond.
    pub fn record_ns(&self, ns: f64) {
        if let Some(h) = &self.0 {
            if ns.is_finite() && ns >= 0.0 {
                h.borrow_mut().record(ns.round() as u64);
            }
        }
    }

    /// Snapshot of the current distribution (`None` when detached).
    pub fn snapshot(&self) -> Option<Histogram> {
        self.0.as_ref().map(|h| h.borrow().clone())
    }
}

/// Kind tag for a registered metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter.
    Counter,
    /// Last-value gauge.
    Gauge,
    /// Log-linear histogram.
    Histogram,
}

impl MetricKind {
    /// Prometheus `# TYPE` name.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Slot {
    Counter(Rc<Cell<u64>>),
    Gauge(Rc<Cell<f64>>),
    Histogram(Rc<RefCell<Histogram>>),
}

/// One metric's current value in a [`MetricsHub::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Full histogram state.
    Histogram(Histogram),
}

impl MetricValue {
    /// Kind tag for this value.
    pub fn kind(&self) -> MetricKind {
        match self {
            MetricValue::Counter(_) => MetricKind::Counter,
            MetricValue::Gauge(_) => MetricKind::Gauge,
            MetricValue::Histogram(_) => MetricKind::Histogram,
        }
    }
}

/// One metric sample: name, sorted labels, value.
#[derive(Debug, Clone)]
pub struct MetricSample {
    /// Metric name (snake_case, crate-prefixed).
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// Current value.
    pub value: MetricValue,
}

#[derive(Debug, Default)]
struct Registry {
    slots: BTreeMap<(String, Vec<(String, String)>), Slot>,
    /// Registrations rejected because a (name, labels) key was re-used
    /// with a different metric kind; the caller got a detached handle.
    kind_conflicts: u64,
}

/// The registry handle: cheap to clone, shared by every layer of one
/// run. Disabled by default — see the module docs for the overhead
/// contract.
#[derive(Debug, Clone, Default)]
pub struct MetricsHub {
    inner: Option<Rc<RefCell<Registry>>>,
}

impl MetricsHub {
    /// An enabled, empty hub.
    pub fn new() -> Self {
        MetricsHub {
            inner: Some(Rc::new(RefCell::new(Registry::default()))),
        }
    }

    /// The do-nothing hub (the default everywhere): every handle it
    /// hands out is detached.
    pub fn disabled() -> Self {
        MetricsHub::default()
    }

    /// True when this hub actually aggregates.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn key(name: &str, labels: &[(&str, &str)]) -> (String, Vec<(String, String)>) {
        let mut l: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        l.sort();
        (name.to_string(), l)
    }

    /// Register (or look up) an unlabelled counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Register (or look up) a labelled counter. Re-registering the same
    /// `(name, labels)` returns a handle onto the same cell; a kind
    /// conflict yields a detached handle and is counted.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter::default();
        };
        let mut reg = inner.borrow_mut();
        let slot = reg
            .slots
            .entry(Self::key(name, labels))
            .or_insert_with(|| Slot::Counter(Rc::new(Cell::new(0))));
        match slot {
            Slot::Counter(c) => Counter(Some(Rc::clone(c))),
            _ => {
                reg.kind_conflicts += 1;
                Counter::default()
            }
        }
    }

    /// Register (or look up) an unlabelled gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Register (or look up) a labelled gauge.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let Some(inner) = &self.inner else {
            return Gauge::default();
        };
        let mut reg = inner.borrow_mut();
        let slot = reg
            .slots
            .entry(Self::key(name, labels))
            .or_insert_with(|| Slot::Gauge(Rc::new(Cell::new(0.0))));
        match slot {
            Slot::Gauge(g) => Gauge(Some(Rc::clone(g))),
            _ => {
                reg.kind_conflicts += 1;
                Gauge::default()
            }
        }
    }

    /// Register (or look up) an unlabelled histogram.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        self.histogram_with(name, &[])
    }

    /// Register (or look up) a labelled histogram.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> HistogramHandle {
        let Some(inner) = &self.inner else {
            return HistogramHandle::default();
        };
        let mut reg = inner.borrow_mut();
        let slot = reg
            .slots
            .entry(Self::key(name, labels))
            .or_insert_with(|| Slot::Histogram(Rc::new(RefCell::new(Histogram::new()))));
        match slot {
            Slot::Histogram(h) => HistogramHandle(Some(Rc::clone(h))),
            _ => {
                reg.kind_conflicts += 1;
                HistogramHandle::default()
            }
        }
    }

    /// Registrations rejected for re-using a key with a different kind.
    pub fn kind_conflicts(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.borrow().kind_conflicts)
    }

    /// Snapshot every registered metric, in deterministic (name, label)
    /// order.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        inner
            .borrow()
            .slots
            .iter()
            .map(|((name, labels), slot)| MetricSample {
                name: name.clone(),
                labels: labels.clone(),
                value: match slot {
                    Slot::Counter(c) => MetricValue::Counter(c.get()),
                    Slot::Gauge(g) => MetricValue::Gauge(g.get()),
                    Slot::Histogram(h) => MetricValue::Histogram(h.borrow().clone()),
                },
            })
            .collect()
    }
}

/// Format an `f64` the Prometheus way: `+Inf`/`-Inf`/`NaN` specials,
/// shortest round-trip decimal otherwise.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Escape a label value per the exposition format.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Render every registered metric in the Prometheus text exposition
/// format (version 0.0.4). Histograms emit cumulative `_bucket` series
/// over their non-empty buckets plus `+Inf`, `_sum`, and `_count`.
pub fn prometheus_exposition(hub: &MetricsHub) -> String {
    let mut out = String::new();
    let mut last_type_line: Option<String> = None;
    for s in hub.snapshot() {
        let type_line = format!("# TYPE {} {}\n", s.name, s.value.kind().name());
        if last_type_line.as_deref() != Some(type_line.as_str()) {
            out.push_str(&type_line);
            last_type_line = Some(type_line);
        }
        match &s.value {
            MetricValue::Counter(v) => {
                out.push_str(&format!(
                    "{}{} {}\n",
                    s.name,
                    label_block(&s.labels, None),
                    v
                ));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!(
                    "{}{} {}\n",
                    s.name,
                    label_block(&s.labels, None),
                    fmt_value(*v)
                ));
            }
            MetricValue::Histogram(h) => {
                let mut cum = 0u64;
                for (ub, c) in h.nonzero_buckets() {
                    cum += c;
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        s.name,
                        label_block(&s.labels, Some(("le", &format!("{ub}")))),
                        cum
                    ));
                }
                out.push_str(&format!(
                    "{}_bucket{} {}\n",
                    s.name,
                    label_block(&s.labels, Some(("le", "+Inf"))),
                    h.count()
                ));
                out.push_str(&format!(
                    "{}_sum{} {}\n",
                    s.name,
                    label_block(&s.labels, None),
                    h.sum()
                ));
                out.push_str(&format!(
                    "{}_count{} {}\n",
                    s.name,
                    label_block(&s.labels, None),
                    h.count()
                ));
            }
        }
    }
    out
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Split a sample line into (name, label-block, value-text).
fn split_sample(line: &str) -> Result<(&str, &str, &str), String> {
    if let Some(open) = line.find('{') {
        let close = line
            .rfind('}')
            .ok_or_else(|| format!("unterminated label block: {line:?}"))?;
        if close < open {
            return Err(format!("malformed label block: {line:?}"));
        }
        let value = line[close + 1..].trim();
        Ok((&line[..open], &line[open + 1..close], value))
    } else {
        let (name, value) = line
            .split_once(char::is_whitespace)
            .ok_or_else(|| format!("sample without value: {line:?}"))?;
        Ok((name, "", value.trim()))
    }
}

fn parse_sample_value(text: &str) -> Result<f64, String> {
    match text {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        other => other
            .parse::<f64>()
            .map_err(|e| format!("bad sample value {other:?}: {e}")),
    }
}

/// Extract the `le` label value and the remaining labels from a raw
/// label-block body.
fn parse_labels(body: &str) -> Result<(Option<String>, String), String> {
    // Labels as we emit them never contain commas inside values, and the
    // validator only checks our own output, so a comma split suffices.
    let mut le = None;
    let mut rest = Vec::new();
    if body.trim().is_empty() {
        return Ok((None, String::new()));
    }
    for part in body.split(',') {
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| format!("malformed label {part:?}"))?;
        let v = v
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| format!("unquoted label value {part:?}"))?;
        if k == "le" {
            le = Some(v.to_string());
        } else {
            rest.push(format!("{k}={v}"));
        }
    }
    Ok((le, rest.join(",")))
}

/// Offline checker for [`prometheus_exposition`] output. Verifies that
/// every sample parses, every sample's metric family has a `# TYPE`
/// line, histogram `_bucket` series have monotone `le` thresholds with
/// non-decreasing cumulative counts ending in a `+Inf` bucket that
/// matches `_count`, and every histogram family has `_sum` and `_count`.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    use std::collections::HashMap;
    let mut types: HashMap<String, String> = HashMap::new();
    // (family, labels-minus-le) -> bucket series [(le, cum)]
    let mut buckets: HashMap<(String, String), Vec<(f64, f64)>> = HashMap::new();
    let mut sums: HashMap<(String, String), f64> = HashMap::new();
    let mut counts: HashMap<(String, String), f64> = HashMap::new();
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| format!("line {}: {msg}", ln + 1);
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().ok_or_else(|| err("TYPE without name".into()))?;
            let kind = it.next().ok_or_else(|| err("TYPE without kind".into()))?;
            if !valid_metric_name(name) {
                return Err(err(format!("invalid metric name {name:?}")));
            }
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(err(format!("unknown metric type {kind:?}")));
            }
            types.insert(name.to_string(), kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        let (name, label_body, value_text) = split_sample(line).map_err(err)?;
        if !valid_metric_name(name) {
            return Err(err(format!("invalid metric name {name:?}")));
        }
        let value = parse_sample_value(value_text).map_err(err)?;
        let (le, rest_labels) = parse_labels(label_body).map_err(err)?;
        // Resolve the declared family: histogram samples use suffixes.
        let family = ["_bucket", "_sum", "_count"].iter().find_map(|suf| {
            name.strip_suffix(suf)
                .filter(|base| types.get(*base).map(String::as_str) == Some("histogram"))
                .map(|base| (base.to_string(), *suf))
        });
        match family {
            Some((base, "_bucket")) => {
                let le = le.ok_or_else(|| err(format!("{name}: bucket without le")))?;
                let le = parse_sample_value(&le).map_err(err)?;
                buckets
                    .entry((base, rest_labels))
                    .or_default()
                    .push((le, value));
            }
            Some((base, "_sum")) => {
                sums.insert((base, rest_labels), value);
            }
            Some((base, "_count")) => {
                counts.insert((base, rest_labels), value);
            }
            _ => match types.get(name).map(String::as_str) {
                Some("counter") | Some("gauge") => {}
                Some("histogram") => {
                    return Err(err(format!("{name}: bare sample for histogram family")))
                }
                _ => return Err(err(format!("{name}: sample without # TYPE"))),
            },
        }
    }
    for ((base, labels), series) in &buckets {
        let key = (base.clone(), labels.clone());
        let mut last_le = f64::NEG_INFINITY;
        let mut last_cum = -1.0;
        for &(le, cum) in series {
            if le <= last_le {
                return Err(format!("{base}{{{labels}}}: le thresholds not increasing"));
            }
            if cum < last_cum {
                return Err(format!("{base}{{{labels}}}: bucket counts not cumulative"));
            }
            last_le = le;
            last_cum = cum;
        }
        match series.last() {
            Some(&(le, cum)) if le == f64::INFINITY => {
                let count = counts
                    .get(&key)
                    .ok_or_else(|| format!("{base}{{{labels}}}: missing _count"))?;
                if cum != *count {
                    return Err(format!(
                        "{base}{{{labels}}}: +Inf bucket {cum} != _count {count}"
                    ));
                }
            }
            _ => return Err(format!("{base}{{{labels}}}: missing +Inf bucket")),
        }
        if !sums.contains_key(&key) {
            return Err(format!("{base}{{{labels}}}: missing _sum"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_bucket_region_is_exact() {
        for v in 0..SUB_COUNT {
            assert_eq!(Histogram::bucket_index(v), v as usize);
            assert_eq!(Histogram::bucket_high(v as usize), v);
        }
    }

    #[test]
    fn bucket_index_is_monotone_and_high_brackets() {
        let probes = [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            100,
            1000,
            4096,
            123_456,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut last = None;
        for &v in &probes {
            let idx = Histogram::bucket_index(v);
            if let Some((pv, pi)) = last {
                assert!(v > pv || idx >= pi, "monotone");
                let _ = pv;
            }
            assert!(Histogram::bucket_high(idx) >= v, "high >= v for {v}");
            if idx > 0 {
                assert!(Histogram::bucket_high(idx - 1) < v, "prev high < v for {v}");
            }
            last = Some((v, idx));
        }
    }

    #[test]
    fn quantile_bounds_on_known_stream() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        for &(q, rank) in &[(0.5, 500u64), (0.99, 990), (0.999, 999), (1.0, 1000)] {
            let t = rank; // values are exactly 1..=1000
            let est = h.quantile(q);
            assert!(est >= t, "q={q}: est {est} < true {t}");
            assert!(
                (est - t) as f64 <= t as f64 / SUB_COUNT as f64,
                "q={q}: est {est} vs true {t} exceeds rank-error bound"
            );
        }
        assert_eq!(h.quantile(0.0), 1);
    }

    #[test]
    fn serialize_round_trips() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 31, 32, 1000, u64::MAX] {
            h.record(v);
        }
        let s = h.serialize();
        let parsed = Histogram::parse(&s).unwrap();
        assert_eq!(parsed, h);
        assert!(Histogram::parse("v2;b=5").is_err());
        assert!(Histogram::parse("v1;b=4;count=0;sum=0;min=0;max=0;buckets=").is_err());
        assert!(Histogram::parse("v1;b=5;count=7;sum=0;min=0;max=0;buckets=0:1").is_err());
    }

    #[test]
    fn disabled_hub_hands_out_detached_handles() {
        let hub = MetricsHub::disabled();
        assert!(!hub.enabled());
        let c = hub.counter("x");
        let g = hub.gauge("y");
        let h = hub.histogram("z");
        c.inc();
        g.set(3.0);
        h.record(9);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert!(!h.is_enabled());
        assert!(h.snapshot().is_none());
        assert!(hub.snapshot().is_empty());
        assert!(prometheus_exposition(&hub).is_empty());
    }

    #[test]
    fn reregistration_shares_state_and_conflicts_detach() {
        let hub = MetricsHub::new();
        let c1 = hub.counter_with("reqs", &[("tier", "0")]);
        let c2 = hub.counter_with("reqs", &[("tier", "0")]);
        c1.add(2);
        c2.inc();
        assert_eq!(c1.get(), 3);
        // Same name, different labels: distinct series.
        let c3 = hub.counter_with("reqs", &[("tier", "1")]);
        c3.inc();
        assert_eq!(c3.get(), 1);
        assert_eq!(c1.get(), 3);
        // Kind conflict: detached handle, counted.
        let g = hub.gauge_with("reqs", &[("tier", "0")]);
        g.set(7.0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(hub.kind_conflicts(), 1);
        assert_eq!(c1.get(), 3);
    }

    #[test]
    fn exposition_parses_and_validates() {
        let hub = MetricsHub::new();
        hub.counter_with("memsim_txn_aborts_total", &[("reason", "write_conflict")])
            .add(4);
        hub.gauge("colloid_p").set(0.8125);
        let h = hub.histogram_with("tenant_latency_ns", &[("tenant", "0")]);
        for v in [80u64, 90, 100, 4000] {
            h.record(v);
        }
        let text = prometheus_exposition(&hub);
        validate_prometheus(&text).unwrap();
        assert!(text.contains("# TYPE colloid_p gauge"));
        assert!(text.contains("colloid_p 0.8125"));
        assert!(text.contains("memsim_txn_aborts_total{reason=\"write_conflict\"} 4"));
        assert!(text.contains("tenant_latency_ns_count{tenant=\"0\"} 4"));
        assert!(text.contains("le=\"+Inf\"} 4"));
    }

    #[test]
    fn validator_rejects_malformed_exposition() {
        // Sample without a TYPE declaration.
        assert!(validate_prometheus("orphan 1\n").is_err());
        // Unknown type.
        assert!(validate_prometheus("# TYPE x summary\nx 1\n").is_err());
        // Bad value.
        assert!(validate_prometheus("# TYPE x gauge\nx abc\n").is_err());
        // Histogram without +Inf bucket.
        let text = "# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_sum 5\nh_count 1\n";
        assert!(validate_prometheus(text).is_err());
        // Non-cumulative buckets.
        let text = "# TYPE h histogram\nh_bucket{le=\"10\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 5\nh_count 3\n";
        assert!(validate_prometheus(text).is_err());
        // +Inf disagrees with _count.
        let text = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 5\nh_count 4\n";
        assert!(validate_prometheus(text).is_err());
        // Well-formed histogram passes.
        let text = "# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_bucket{le=\"+Inf\"} 3\nh_sum 5\nh_count 3\n";
        assert!(validate_prometheus(text).is_ok());
    }
}
