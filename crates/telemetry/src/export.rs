//! Exporters: NDJSON event logs and CSV metric series.
//!
//! JSON is hand-rolled (no serde in the offline build): every event becomes
//! one object per line with the required fields `seq`, `t_ps` (integer
//! picoseconds — exact, no float rounding), `source`, and `event`, plus the
//! payload fields of the variant. Non-finite floats serialize as `null`.
//! [`validate_ndjson`] re-parses a log with a small recursive-descent JSON
//! parser and checks the schema, so CI can verify emitted logs offline.

use std::fmt::Write as _;

use crate::event::{Event, EventKind};
use crate::metrics::TickMetrics;
use crate::registry::{MetricValue, MetricsHub};
use simkit::SimTime;

pub(crate) fn json_escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

pub(crate) fn json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{v:?}` keeps a decimal point or exponent, so the value reads
        // back as a JSON number distinguishable from an integer.
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

fn push_field_u64(out: &mut String, key: &str, v: u64) {
    let _ = write!(out, ",\"{key}\":{v}");
}

fn push_field_f64(out: &mut String, key: &str, v: f64) {
    let _ = write!(out, ",\"{key}\":");
    json_f64(out, v);
}

fn push_field_str(out: &mut String, key: &str, v: &str) {
    let _ = write!(out, ",\"{key}\":\"");
    json_escape(out, v);
    out.push('"');
}

fn push_field_bool(out: &mut String, key: &str, v: bool) {
    let _ = write!(out, ",\"{key}\":{v}");
}

fn write_event_line(out: &mut String, seq: u64, ev: &Event) {
    let _ = write!(
        out,
        "{{\"seq\":{seq},\"t_ps\":{},\"source\":\"{}\",\"event\":\"{}\"",
        ev.t.as_ps(),
        ev.source.name(),
        ev.kind.name()
    );
    if let Some(tenant) = ev.tenant {
        push_field_u64(out, "tenant", tenant.0 as u64);
    }
    match &ev.kind {
        EventKind::MigrationStart { vpn, src, dst } => {
            push_field_u64(out, "vpn", *vpn);
            push_field_u64(out, "src", *src as u64);
            push_field_u64(out, "dst", *dst as u64);
        }
        EventKind::MigrationComplete {
            vpn,
            src,
            dst,
            copy_ns,
        } => {
            push_field_u64(out, "vpn", *vpn);
            push_field_u64(out, "src", *src as u64);
            push_field_u64(out, "dst", *dst as u64);
            push_field_f64(out, "copy_ns", *copy_ns);
        }
        EventKind::MigrationFail { vpn, dst, reason } => {
            push_field_u64(out, "vpn", *vpn);
            push_field_u64(out, "dst", *dst as u64);
            push_field_str(out, "reason", reason.name());
        }
        EventKind::MigrationRetry { vpn, dst } | EventKind::RetryExhausted { vpn, dst } => {
            push_field_u64(out, "vpn", *vpn);
            push_field_u64(out, "dst", *dst as u64);
        }
        EventKind::TxnDirty { vpn, attempt } => {
            push_field_u64(out, "vpn", *vpn);
            push_field_u64(out, "attempt", *attempt as u64);
        }
        EventKind::TxnFailover {
            vpn,
            from_channel,
            to_channel,
        } => {
            push_field_u64(out, "vpn", *vpn);
            push_field_u64(out, "from_channel", *from_channel as u64);
            push_field_u64(out, "to_channel", *to_channel as u64);
        }
        EventKind::BatchCommit { pages, cost_ns } => {
            push_field_u64(out, "pages", *pages);
            push_field_f64(out, "cost_ns", *cost_ns);
        }
        EventKind::WatermarkMove { p_lo, p_hi, reset } => {
            push_field_f64(out, "p_lo", *p_lo);
            push_field_f64(out, "p_hi", *p_hi);
            push_field_bool(out, "reset", *reset);
        }
        EventKind::PUpdate {
            p,
            l_default_ns,
            l_alternate_ns,
            mode,
            delta_p,
            byte_limit,
        } => {
            push_field_f64(out, "p", *p);
            push_field_f64(out, "l_default_ns", *l_default_ns);
            push_field_f64(out, "l_alternate_ns", *l_alternate_ns);
            push_field_str(out, "mode", mode);
            push_field_f64(out, "delta_p", *delta_p);
            push_field_u64(out, "byte_limit", *byte_limit);
        }
        EventKind::ModeTransition { from, to } => {
            push_field_str(out, "from", from);
            push_field_str(out, "to", to);
        }
        EventKind::ProbeSent { vpn } => {
            push_field_u64(out, "vpn", *vpn);
        }
        EventKind::FaultsInjected {
            noisy,
            stale,
            dropped,
            migration_failures,
            pebs_dropped,
            evacuated,
            outage_aborts,
            storm_dirties,
        } => {
            push_field_u64(out, "noisy", *noisy);
            push_field_u64(out, "stale", *stale);
            push_field_u64(out, "dropped", *dropped);
            push_field_u64(out, "migration_failures", *migration_failures);
            push_field_u64(out, "pebs_dropped", *pebs_dropped);
            push_field_u64(out, "evacuated", *evacuated);
            push_field_u64(out, "outage_aborts", *outage_aborts);
            push_field_u64(out, "storm_dirties", *storm_dirties);
        }
        EventKind::TierEvacuation { pages } => {
            push_field_u64(out, "pages", *pages);
        }
        EventKind::WorkloadShift { what } => {
            push_field_str(out, "what", what);
        }
        EventKind::EquilibriumReset => {}
        EventKind::PolicySwap { from, to, pages } => {
            push_field_str(out, "from", from);
            push_field_str(out, "to", to);
            push_field_u64(out, "pages", *pages);
        }
        EventKind::SloAlert {
            slo,
            state,
            burn_fast,
            burn_slow,
            target_ns,
        } => {
            push_field_str(out, "slo", slo);
            push_field_str(out, "state", state);
            push_field_f64(out, "burn_fast", *burn_fast);
            push_field_f64(out, "burn_slow", *burn_slow);
            push_field_f64(out, "target_ns", *target_ns);
        }
    }
    out.push_str("}\n");
}

/// Serializes events as NDJSON: one JSON object per line, in order, with a
/// zero-based `seq` number.
pub fn events_to_ndjson(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for (seq, ev) in events.iter().enumerate() {
        write_event_line(&mut out, seq as u64, ev);
    }
    out
}

/// Serializes a [`MetricsHub`] snapshot as NDJSON: one object per metric
/// series, tagged `"record":"metric"` to distinguish snapshot lines from
/// event lines, with a dense `seq` and the snapshot time in integer
/// picoseconds. Counters carry `value`; gauges carry `value` (null when
/// non-finite); histograms carry `count`/`sum`/`min`/`max`, the
/// `p50`/`p99`/`p999` quantile estimates, and the compact serialized form
/// under `hist` so snapshots can be re-parsed offline. `seq` numbers from
/// `start_seq`, so a snapshot can be appended to an event log
/// ([`events_to_ndjson`]) and the combined file still satisfies
/// [`validate_ndjson`]'s dense-`seq` requirement.
pub fn metrics_snapshot_ndjson_from(hub: &MetricsHub, t: SimTime, start_seq: u64) -> String {
    let mut out = String::new();
    for (i, s) in hub.snapshot().iter().enumerate() {
        let seq = start_seq + i as u64;
        let _ = write!(
            out,
            "{{\"record\":\"metric\",\"seq\":{seq},\"t_ps\":{},\"name\":\"",
            t.as_ps()
        );
        json_escape(&mut out, &s.name);
        let _ = write!(out, "\",\"type\":\"{}\"", s.value.kind().name());
        if !s.labels.is_empty() {
            out.push_str(",\"labels\":{");
            for (i, (k, v)) in s.labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                json_escape(&mut out, k);
                out.push_str("\":\"");
                json_escape(&mut out, v);
                out.push('"');
            }
            out.push('}');
        }
        match &s.value {
            MetricValue::Counter(v) => push_field_u64(&mut out, "value", *v),
            MetricValue::Gauge(v) => push_field_f64(&mut out, "value", *v),
            MetricValue::Histogram(h) => {
                push_field_u64(&mut out, "count", h.count());
                let _ = write!(out, ",\"sum\":{}", h.sum());
                push_field_u64(&mut out, "min", h.min());
                push_field_u64(&mut out, "max", h.max());
                push_field_u64(&mut out, "p50", h.quantile(0.50));
                push_field_u64(&mut out, "p99", h.quantile(0.99));
                push_field_u64(&mut out, "p999", h.quantile(0.999));
                push_field_str(&mut out, "hist", &h.serialize());
            }
        }
        out.push_str("}\n");
    }
    out
}

fn csv_opt(out: &mut String, v: Option<f64>) {
    match v {
        Some(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        _ => {}
    }
}

/// Serializes a metric series as CSV with a header row. Missing or
/// non-finite latencies become empty cells.
pub fn metrics_to_csv(rows: &[TickMetrics]) -> String {
    let mut out = String::with_capacity(rows.len() * 128 + 256);
    out.push_str(
        "t_ms,ops_per_sec,l_default_ns,l_alternate_ns,true_l_default_ns,true_l_alternate_ns,\
         occupancy_default,occupancy_alternate,rate_default_per_ns,rate_alternate_per_ns,\
         migrated_bytes,migration_backlog,app_bytes_default,app_bytes_alternate,\
         default_app_share\n",
    );
    for m in rows {
        let _ = write!(out, "{},{}", m.t.as_ns() / 1e6, m.ops_per_sec);
        out.push(',');
        csv_opt(&mut out, m.l_default_ns);
        out.push(',');
        csv_opt(&mut out, m.l_alternate_ns);
        out.push(',');
        csv_opt(&mut out, m.true_l_default_ns);
        out.push(',');
        csv_opt(&mut out, m.true_l_alternate_ns);
        let _ = write!(
            out,
            ",{},{},{},{},{},{},{},{},{}",
            m.occupancy_default,
            m.occupancy_alternate,
            m.rate_default_per_ns,
            m.rate_alternate_per_ns,
            m.migrated_bytes,
            m.migration_backlog,
            m.app_bytes_default,
            m.app_bytes_alternate,
            m.default_app_share()
        );
        out.push('\n');
    }
    out
}

// --- NDJSON validation ---------------------------------------------------

/// A parsed JSON value (just enough for schema validation).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

pub struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    pub fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    pub fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    pub fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    pub fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, val: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(val)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("short \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(b) => {
                    // Multi-byte UTF-8: validate and copy just this char
                    // (never the whole remaining input — that would make
                    // parsing a large document quadratic).
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(self.err("invalid utf-8")),
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    let s = std::str::from_utf8(chunk).map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                    self.pos += len;
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }
}

const KNOWN_SOURCES: &[&str] = &["machine", "colloid", "system", "supervisor", "runner"];
const KNOWN_EVENTS: &[&str] = &[
    "migration_start",
    "migration_complete",
    "migration_fail",
    "txn_dirty",
    "txn_failover",
    "batch_commit",
    "migration_retry",
    "retry_exhausted",
    "watermark_move",
    "p_update",
    "mode_transition",
    "probe_sent",
    "faults_injected",
    "tier_evacuation",
    "workload_shift",
    "equilibrium_reset",
    "policy_swap",
    "slo_alert",
];

/// Validates one `"record":"metric"` snapshot line (already parsed).
fn validate_metric_record(v: &Json, fail: &dyn Fn(String) -> String) -> Result<(), String> {
    let name = v
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| fail("metric record missing string \"name\"".to_string()))?;
    if name.is_empty() {
        return Err(fail("metric record with empty \"name\"".to_string()));
    }
    let kind = v
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| fail("metric record missing string \"type\"".to_string()))?;
    if let Some(labels) = v.get("labels") {
        match labels {
            Json::Obj(fields) => {
                for (k, lv) in fields {
                    if lv.as_str().is_none() {
                        return Err(fail(format!("metric label \"{k}\" is not a string")));
                    }
                }
            }
            _ => return Err(fail("metric \"labels\" is not an object".to_string())),
        }
    }
    let nonneg_int = |key: &str| -> Result<(), String> {
        let n = v
            .get(key)
            .and_then(Json::as_num)
            .ok_or_else(|| fail(format!("metric \"{name}\" missing numeric \"{key}\"")))?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(fail(format!(
                "metric \"{name}\" field \"{key}\" = {n} is not a non-negative integer"
            )));
        }
        Ok(())
    };
    match kind {
        "counter" => nonneg_int("value")?,
        "gauge" => {
            // Gauges are free-form floats; non-finite values export as
            // null, so only require the field to be present.
            if v.get("value").is_none() {
                return Err(fail(format!("gauge \"{name}\" missing \"value\"")));
            }
        }
        "histogram" => {
            for key in ["count", "min", "max", "p50", "p99", "p999"] {
                nonneg_int(key)?;
            }
            let hist = v
                .get("hist")
                .and_then(Json::as_str)
                .ok_or_else(|| fail(format!("histogram \"{name}\" missing \"hist\"")))?;
            let parsed = crate::registry::Histogram::parse(hist)
                .map_err(|e| fail(format!("histogram \"{name}\": {e}")))?;
            let count = v.get("count").and_then(Json::as_num).unwrap_or(-1.0);
            if parsed.count() as f64 != count {
                return Err(fail(format!(
                    "histogram \"{name}\": hist count {} != \"count\" {count}",
                    parsed.count()
                )));
            }
        }
        other => return Err(fail(format!("unknown metric type \"{other}\""))),
    }
    Ok(())
}

/// Validates the payload fields of a `policy_swap` event line.
fn validate_policy_swap(v: &Json, fail: &dyn Fn(String) -> String) -> Result<(), String> {
    for key in ["from", "to"] {
        let name = v
            .get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| fail(format!("policy_swap missing string \"{key}\"")))?;
        if name.is_empty() {
            return Err(fail(format!("policy_swap with empty \"{key}\"")));
        }
    }
    let pages = v
        .get("pages")
        .and_then(Json::as_num)
        .ok_or_else(|| fail("policy_swap missing numeric \"pages\"".to_string()))?;
    if pages < 0.0 || pages.fract() != 0.0 {
        return Err(fail(format!(
            "policy_swap \"pages\" = {pages} is not a non-negative integer"
        )));
    }
    Ok(())
}

/// Validates the payload fields of an `slo_alert` event line.
fn validate_slo_alert(v: &Json, fail: &dyn Fn(String) -> String) -> Result<(), String> {
    let slo = v
        .get("slo")
        .and_then(Json::as_str)
        .ok_or_else(|| fail("slo_alert missing string \"slo\"".to_string()))?;
    if slo.is_empty() {
        return Err(fail("slo_alert with empty \"slo\"".to_string()));
    }
    let state = v
        .get("state")
        .and_then(Json::as_str)
        .ok_or_else(|| fail("slo_alert missing string \"state\"".to_string()))?;
    if !matches!(state, "firing" | "resolved") {
        return Err(fail(format!(
            "slo_alert state \"{state}\" not firing/resolved"
        )));
    }
    for key in ["burn_fast", "burn_slow", "target_ns"] {
        let n = v
            .get(key)
            .and_then(Json::as_num)
            .ok_or_else(|| fail(format!("slo_alert missing numeric \"{key}\"")))?;
        if n < 0.0 {
            return Err(fail(format!("slo_alert \"{key}\" = {n} is negative")));
        }
    }
    Ok(())
}

/// Validates an NDJSON event log against the telemetry schema: each
/// non-empty line must parse as a JSON object with integer `seq` (dense,
/// zero-based), integer `t_ps`, a known `source`, and a known `event`.
/// An optional `tenant` field (colocation runs) must be a non-negative
/// integer when present. Lines tagged `"record":"metric"` (snapshot
/// lines from [`metrics_snapshot_ndjson_from`]) instead follow the metric
/// schema: a non-empty `name`, a known `type`, string-valued `labels`,
/// and per-type value fields (histograms must carry a parseable `hist`
/// form agreeing with `count`). Returns the number of validated lines,
/// or a message naming the first offending line.
pub fn validate_ndjson(log: &str) -> Result<usize, String> {
    let mut count = 0usize;
    for (lineno, line) in log.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fail = |msg: String| format!("line {}: {}", lineno + 1, msg);
        let mut p = Parser::new(line);
        let v = p.value().map_err(fail)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(fail("trailing characters after JSON object".to_string()));
        }
        if !matches!(v, Json::Obj(_)) {
            return Err(fail("not a JSON object".to_string()));
        }
        let seq = v
            .get("seq")
            .and_then(Json::as_num)
            .ok_or_else(|| fail("missing numeric \"seq\"".to_string()))?;
        if seq != count as f64 {
            return Err(fail(format!("seq {seq} out of order (expected {count})")));
        }
        let t_ps = v
            .get("t_ps")
            .and_then(Json::as_num)
            .ok_or_else(|| fail("missing numeric \"t_ps\"".to_string()))?;
        if t_ps < 0.0 || t_ps.fract() != 0.0 {
            return Err(fail(format!("t_ps {t_ps} is not a non-negative integer")));
        }
        if let Some(record) = v.get("record") {
            let record = record
                .as_str()
                .ok_or_else(|| fail("\"record\" is not a string".to_string()))?;
            if record != "metric" {
                return Err(fail(format!("unknown record type \"{record}\"")));
            }
            validate_metric_record(&v, &fail)?;
            count += 1;
            continue;
        }
        let source = v
            .get("source")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("missing string \"source\"".to_string()))?;
        if !KNOWN_SOURCES.contains(&source) {
            return Err(fail(format!("unknown source \"{source}\"")));
        }
        let event = v
            .get("event")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("missing string \"event\"".to_string()))?;
        if !KNOWN_EVENTS.contains(&event) {
            return Err(fail(format!("unknown event \"{event}\"")));
        }
        if event == "slo_alert" {
            validate_slo_alert(&v, &fail)?;
        }
        if event == "policy_swap" {
            validate_policy_swap(&v, &fail)?;
        }
        if let Some(tv) = v.get("tenant") {
            let tenant = tv
                .as_num()
                .ok_or_else(|| fail("\"tenant\" is not a number".to_string()))?;
            if tenant < 0.0 || tenant.fract() != 0.0 {
                return Err(fail(format!(
                    "tenant {tenant} is not a non-negative integer"
                )));
            }
        }
        count += 1;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FailReason, Source};
    use simkit::SimTime;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                t: SimTime::from_ns(100.0),
                source: Source::Machine,
                tenant: None,
                kind: EventKind::MigrationStart {
                    vpn: 7,
                    src: 0,
                    dst: 1,
                },
            },
            Event {
                t: SimTime::from_ns(250.5),
                source: Source::Machine,
                tenant: None,
                kind: EventKind::MigrationComplete {
                    vpn: 7,
                    src: 0,
                    dst: 1,
                    copy_ns: 150.5,
                },
            },
            Event {
                t: SimTime::from_ns(300.0),
                source: Source::Colloid,
                tenant: None,
                kind: EventKind::PUpdate {
                    p: 0.25,
                    l_default_ns: 210.0,
                    l_alternate_ns: 130.0,
                    mode: "demote",
                    delta_p: 0.01,
                    byte_limit: 65536,
                },
            },
            Event {
                t: SimTime::from_ns(300.0),
                source: Source::Runner,
                tenant: None,
                kind: EventKind::WorkloadShift {
                    what: "antagonist \"stream\" -> 3x".to_string(),
                },
            },
            Event {
                t: SimTime::from_ns(400.0),
                source: Source::Machine,
                tenant: None,
                kind: EventKind::MigrationFail {
                    vpn: 9,
                    dst: 0,
                    reason: FailReason::Outage,
                },
            },
        ]
    }

    #[test]
    fn ndjson_round_trips_through_validator() {
        let log = events_to_ndjson(&sample_events());
        assert_eq!(log.lines().count(), 5);
        assert_eq!(validate_ndjson(&log), Ok(5));
        // Exact picoseconds, no float rounding.
        assert!(log.lines().next().unwrap().contains("\"t_ps\":100000"));
        // Escaped quotes inside the workload-shift description.
        assert!(log.contains("antagonist \\\"stream\\\" -> 3x"));
    }

    #[test]
    fn transactional_event_names_validate() {
        let events = vec![
            Event {
                t: SimTime::ZERO,
                source: Source::Machine,
                tenant: None,
                kind: EventKind::TxnDirty { vpn: 1, attempt: 2 },
            },
            Event {
                t: SimTime::from_ns(10.0),
                source: Source::Machine,
                tenant: None,
                kind: EventKind::TxnFailover {
                    vpn: 1,
                    from_channel: 0,
                    to_channel: 1,
                },
            },
            Event {
                t: SimTime::from_ns(20.0),
                source: Source::Machine,
                tenant: None,
                kind: EventKind::BatchCommit {
                    pages: 8,
                    cost_ns: 4000.0,
                },
            },
        ];
        let log = events_to_ndjson(&events);
        assert_eq!(validate_ndjson(&log), Ok(3));
        assert!(log.contains("\"event\":\"txn_dirty\""));
        assert!(log.contains("\"event\":\"txn_failover\""));
        assert!(log.contains("\"event\":\"batch_commit\""));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let ev = Event {
            t: SimTime::ZERO,
            source: Source::Colloid,
            tenant: None,
            kind: EventKind::WatermarkMove {
                p_lo: f64::NAN,
                p_hi: f64::INFINITY,
                reset: true,
            },
        };
        let log = events_to_ndjson(&[ev]);
        assert!(log.contains("\"p_lo\":null"));
        assert!(log.contains("\"p_hi\":null"));
        assert_eq!(validate_ndjson(&log), Ok(1));
    }

    #[test]
    fn validator_rejects_bad_lines() {
        assert!(validate_ndjson("not json\n").is_err());
        assert!(validate_ndjson("{\"seq\":0}\n").is_err());
        let bad_source =
            "{\"seq\":0,\"t_ps\":1,\"source\":\"kernel\",\"event\":\"migration_start\"}\n";
        assert!(validate_ndjson(bad_source).unwrap_err().contains("kernel"));
        let bad_seq = "{\"seq\":3,\"t_ps\":1,\"source\":\"machine\",\"event\":\"probe_sent\"}\n";
        assert!(validate_ndjson(bad_seq).unwrap_err().contains("seq"));
        let frac_t = "{\"seq\":0,\"t_ps\":1.5,\"source\":\"machine\",\"event\":\"probe_sent\"}\n";
        assert!(validate_ndjson(frac_t).unwrap_err().contains("t_ps"));
    }

    #[test]
    fn tenant_tagged_events_serialize_and_validate() {
        let ev = Event {
            t: SimTime::from_ns(100.0),
            source: Source::Machine,
            tenant: Some(crate::TenantId(3)),
            kind: EventKind::MigrationStart {
                vpn: 7,
                src: 0,
                dst: 1,
            },
        };
        let log = events_to_ndjson(&[ev]);
        assert!(log.contains("\"tenant\":3"));
        assert_eq!(validate_ndjson(&log), Ok(1));
    }

    #[test]
    fn validator_rejects_malformed_tenant_fields() {
        let base = |tenant: &str| {
            format!(
                "{{\"seq\":0,\"t_ps\":1,\"source\":\"machine\",\
                 \"event\":\"probe_sent\",\"tenant\":{tenant},\"vpn\":1}}\n"
            )
        };
        // A string, a fractional number, and a negative number are all
        // malformed; a small integer is fine.
        assert!(validate_ndjson(&base("\"gold\""))
            .unwrap_err()
            .contains("tenant"));
        assert!(validate_ndjson(&base("1.5"))
            .unwrap_err()
            .contains("tenant"));
        assert!(validate_ndjson(&base("-1")).unwrap_err().contains("tenant"));
        assert_eq!(validate_ndjson(&base("2")), Ok(1));
    }

    #[test]
    fn slo_alert_events_serialize_and_validate() {
        let ev = Event {
            t: SimTime::from_ns(500.0),
            source: Source::Runner,
            tenant: Some(crate::TenantId(1)),
            kind: EventKind::SloAlert {
                slo: "t1_p99".to_string(),
                state: "firing",
                burn_fast: 20.0,
                burn_slow: 8.5,
                target_ns: 145.0,
            },
        };
        let log = events_to_ndjson(&[ev]);
        assert!(log.contains("\"event\":\"slo_alert\""));
        assert!(log.contains("\"slo\":\"t1_p99\""));
        assert!(log.contains("\"state\":\"firing\""));
        assert!(log.contains("\"tenant\":1"));
        assert_eq!(validate_ndjson(&log), Ok(1));
    }

    #[test]
    fn validator_rejects_malformed_slo_alert_fields() {
        // Mirrors the malformed-tenant tests: take a valid line and break
        // one field at a time.
        let base = |state: &str, burn_fast: &str| {
            format!(
                "{{\"seq\":0,\"t_ps\":1,\"source\":\"runner\",\"event\":\"slo_alert\",\
                 \"slo\":\"t0_p99\",\"state\":{state},\"burn_fast\":{burn_fast},\
                 \"burn_slow\":2.0,\"target_ns\":145.0}}\n"
            )
        };
        assert_eq!(validate_ndjson(&base("\"firing\"", "20.0")), Ok(1));
        assert_eq!(validate_ndjson(&base("\"resolved\"", "0.5")), Ok(1));
        // Unknown state string.
        assert!(validate_ndjson(&base("\"paging\"", "20.0"))
            .unwrap_err()
            .contains("state"));
        // Non-numeric and negative burn rates.
        assert!(validate_ndjson(&base("\"firing\"", "\"hot\""))
            .unwrap_err()
            .contains("burn_fast"));
        assert!(validate_ndjson(&base("\"firing\"", "-3.0"))
            .unwrap_err()
            .contains("burn_fast"));
        // Missing slo name.
        let no_slo = "{\"seq\":0,\"t_ps\":1,\"source\":\"runner\",\
                      \"event\":\"slo_alert\",\"state\":\"firing\",\
                      \"burn_fast\":20.0,\"burn_slow\":2.0,\"target_ns\":145.0}\n";
        assert!(validate_ndjson(no_slo).unwrap_err().contains("slo"));
    }

    #[test]
    fn policy_swap_events_serialize_and_validate() {
        let ev = Event {
            t: SimTime::from_ns(700.0),
            source: Source::System,
            tenant: None,
            kind: EventKind::PolicySwap {
                from: "freq-bins",
                to: "sieve",
                pages: 4096,
            },
        };
        let log = events_to_ndjson(&[ev]);
        assert!(log.contains("\"event\":\"policy_swap\""));
        assert!(log.contains("\"from\":\"freq-bins\""));
        assert!(log.contains("\"to\":\"sieve\""));
        assert!(log.contains("\"pages\":4096"));
        assert_eq!(validate_ndjson(&log), Ok(1));
    }

    #[test]
    fn validator_rejects_malformed_policy_swap_fields() {
        let base = |from: &str, pages: &str| {
            format!(
                "{{\"seq\":0,\"t_ps\":1,\"source\":\"system\",\"event\":\"policy_swap\",\
                 \"from\":{from},\"to\":\"clock\",\"pages\":{pages}}}\n"
            )
        };
        assert_eq!(validate_ndjson(&base("\"lru\"", "128")), Ok(1));
        // Empty / non-string origin policy.
        assert!(validate_ndjson(&base("\"\"", "128"))
            .unwrap_err()
            .contains("from"));
        assert!(validate_ndjson(&base("7", "128"))
            .unwrap_err()
            .contains("from"));
        // Fractional and negative page counts.
        assert!(validate_ndjson(&base("\"lru\"", "1.5"))
            .unwrap_err()
            .contains("pages"));
        assert!(validate_ndjson(&base("\"lru\"", "-1"))
            .unwrap_err()
            .contains("pages"));
    }

    #[test]
    fn metric_snapshot_round_trips_through_validator() {
        let hub = MetricsHub::new();
        hub.counter_with("memsim_txn_aborts_total", &[("reason", "watchdog")])
            .add(3);
        hub.gauge("colloid_p").set(0.75);
        hub.gauge("colloid_l_default_ns").set(f64::NAN); // exports as null
        let h = hub.histogram_with("tenant_latency_ns", &[("tenant", "0")]);
        for v in [90u64, 100, 150, 8000] {
            h.record(v);
        }
        let snap = metrics_snapshot_ndjson_from(&hub, SimTime::from_ns(1000.0), 0);
        assert_eq!(snap.lines().count(), 4);
        assert_eq!(validate_ndjson(&snap), Ok(4));
        assert!(snap.contains("\"record\":\"metric\""));
        assert!(snap.contains("\"type\":\"histogram\""));
        assert!(snap.contains("\"labels\":{\"tenant\":\"0\"}"));
        assert!(snap.contains("\"value\":null"));
        // Histogram lines re-parse into a histogram.
        let hist_line = snap
            .lines()
            .find(|l| l.contains("tenant_latency_ns"))
            .unwrap();
        let mut p = Parser::new(hist_line);
        let v = p.value().unwrap();
        let parsed =
            crate::registry::Histogram::parse(v.get("hist").unwrap().as_str().unwrap()).unwrap();
        assert_eq!(parsed.count(), 4);
    }

    #[test]
    fn validator_rejects_malformed_metric_fields() {
        // Mirrors the malformed-tenant tests for the metric schema.
        let base = |name: &str, kind: &str, value: &str| {
            format!(
                "{{\"record\":\"metric\",\"seq\":0,\"t_ps\":1,\
                 \"name\":{name},\"type\":{kind},\"value\":{value}}}\n"
            )
        };
        assert_eq!(
            validate_ndjson(&base("\"reqs\"", "\"counter\"", "4")),
            Ok(1)
        );
        // A string, a fractional, and a negative counter value are all
        // malformed.
        assert!(validate_ndjson(&base("\"reqs\"", "\"counter\"", "\"four\"")).is_err());
        assert!(validate_ndjson(&base("\"reqs\"", "\"counter\"", "1.5")).is_err());
        assert!(validate_ndjson(&base("\"reqs\"", "\"counter\"", "-1")).is_err());
        // Empty name, unknown type, unknown record tag.
        assert!(validate_ndjson(&base("\"\"", "\"counter\"", "4")).is_err());
        assert!(validate_ndjson(&base("\"reqs\"", "\"summary\"", "4")).is_err());
        assert!(validate_ndjson(
            "{\"record\":\"trace\",\"seq\":0,\"t_ps\":1,\"name\":\"x\",\
             \"type\":\"counter\",\"value\":1}\n"
        )
        .is_err());
        // Non-string label values.
        assert!(validate_ndjson(
            "{\"record\":\"metric\",\"seq\":0,\"t_ps\":1,\"name\":\"x\",\
             \"type\":\"counter\",\"labels\":{\"tier\":0},\"value\":1}\n"
        )
        .is_err());
        // Histogram whose hist form disagrees with its count field.
        let mut h = crate::registry::Histogram::new();
        h.record(10);
        let hist = h.serialize();
        let histline = |count: u64| {
            format!(
                "{{\"record\":\"metric\",\"seq\":0,\"t_ps\":1,\"name\":\"h\",\
                 \"type\":\"histogram\",\"count\":{count},\"sum\":10,\"min\":10,\
                 \"max\":10,\"p50\":10,\"p99\":10,\"p999\":10,\"hist\":\"{hist}\"}}\n"
            )
        };
        assert_eq!(validate_ndjson(&histline(1)), Ok(1));
        assert!(validate_ndjson(&histline(2)).unwrap_err().contains("hist"));
    }

    #[test]
    fn validator_accepts_blank_lines_and_counts() {
        let log = events_to_ndjson(&sample_events());
        let padded = format!("\n{log}\n\n");
        assert_eq!(validate_ndjson(&padded), Ok(5));
    }

    #[test]
    fn csv_has_header_and_blank_cells_for_missing() {
        let rows = vec![
            TickMetrics::at(SimTime::from_ms(1.0)),
            TickMetrics {
                ops_per_sec: 2.5e8,
                l_default_ns: Some(212.0),
                l_alternate_ns: Some(f64::NAN),
                app_bytes_default: 640,
                app_bytes_alternate: 1280,
                ..TickMetrics::at(SimTime::from_ms(2.0))
            },
        ];
        let csv = metrics_to_csv(&rows);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("t_ms,ops_per_sec,l_default_ns"));
        assert_eq!(header.split(',').count(), 15);
        let r1 = lines.next().unwrap();
        assert!(r1.starts_with("1,0,,,"));
        let r2 = lines.next().unwrap();
        assert!(r2.contains("212"));
        // NaN latency renders as an empty cell, not "NaN".
        assert!(!r2.contains("NaN"));
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), 15);
        }
    }
}
