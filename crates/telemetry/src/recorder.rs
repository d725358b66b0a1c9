//! The event recorder and the `Sink` handle the instrumented layers hold.
//!
//! The [`Sink`] is the cheap, clonable handle threaded through the machine,
//! controllers, and tiering systems. Disabled (the default) it is a `None`
//! and every emit is a branch on that option — the payload-building closure
//! is never called, so the hot path does no allocation or formatting.
//! Enabled, it shares one [`RingRecorder`] plus a "current sim time" cell
//! the machine refreshes each tick so layers without their own clock (the
//! Colloid controller, the retry queue) can stamp events.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use simkit::SimTime;

use crate::event::{Event, EventKind, Source, TenantId};
use crate::span::{SpanId, SpanKind, SpanPayload, SpanRecord};

/// Bounded in-memory recorder: keeps the most recent `event_cap` events and
/// `span_cap` spans, dropping the oldest on overflow. Memory use is
/// proportional to the caps, never to run length.
///
/// Recording is passive: it never mutates simulation state or draws
/// randomness, so attaching a recorder never changes a run.
///
/// Timestamps are clamped monotone **per source**: a source whose event
/// arrives stamped earlier than its previous event is recorded at the
/// previous stamp (sim layers emit in causal order, so in practice the
/// clamp only defends against a stale shared clock at tick boundaries).
#[derive(Debug)]
pub struct RingRecorder {
    event_cap: usize,
    span_cap: usize,
    events: VecDeque<Event>,
    spans: VecDeque<SpanRecord>,
    dropped_events: u64,
    dropped_spans: u64,
    last_t: [SimTime; Source::COUNT],
}

impl RingRecorder {
    /// A ring retaining at most `event_cap` events. A cap of zero retains
    /// nothing (everything counts as dropped). The span ring defaults to
    /// `event_cap` (spans and events accumulate at comparable rates);
    /// override with [`RingRecorder::with_span_cap`].
    pub fn new(event_cap: usize) -> Self {
        RingRecorder {
            event_cap,
            span_cap: event_cap,
            events: VecDeque::new(),
            spans: VecDeque::new(),
            dropped_events: 0,
            dropped_spans: 0,
            last_t: [SimTime::ZERO; Source::COUNT],
        }
    }

    /// Overrides the span-ring capacity.
    pub fn with_span_cap(mut self, span_cap: usize) -> Self {
        self.span_cap = span_cap;
        self
    }

    /// Records one event, dropping the oldest retained one when full.
    pub fn record_event(&mut self, mut ev: Event) {
        if self.event_cap == 0 {
            self.dropped_events += 1;
            return;
        }
        let slot = &mut self.last_t[ev.source.index()];
        if ev.t < *slot {
            ev.t = *slot;
        } else {
            *slot = ev.t;
        }
        if self.events.len() == self.event_cap {
            self.events.pop_front();
            self.dropped_events += 1;
        }
        self.events.push_back(ev);
    }

    /// Snapshot of retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.events.iter().cloned().collect()
    }

    /// How many events were discarded to stay within bounds.
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    /// Records one completed span (spans arrive in close order), dropping
    /// the oldest retained one when full.
    pub fn record_span(&mut self, sp: SpanRecord) {
        if self.span_cap == 0 {
            self.dropped_spans += 1;
            return;
        }
        if self.spans.len() == self.span_cap {
            self.spans.pop_front();
            self.dropped_spans += 1;
        }
        self.spans.push_back(sp);
    }

    /// Snapshot of retained spans, in close order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.iter().cloned().collect()
    }

    /// How many spans were discarded to stay within bounds.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans
    }
}

/// A span that has been opened but not yet closed.
struct OpenSpan {
    id: SpanId,
    parent: SpanId,
    cause: SpanId,
    source: Source,
    name: &'static str,
    payload: SpanPayload,
    t_start: SimTime,
}

impl OpenSpan {
    fn close(self, t_end: SimTime, kind: SpanKind) -> SpanRecord {
        SpanRecord {
            id: self.id,
            parent: self.parent,
            cause: self.cause,
            source: self.source,
            name: self.name,
            payload: self.payload,
            t_start: self.t_start,
            // Defensive clamp: a span can never close before it opened.
            t_end: t_end.max(self.t_start),
            kind,
        }
    }
}

/// Mutable span state shared by all clones of one sink: the scoped-span
/// stack, the open async extents, the id counter, and the current cause.
#[derive(Default)]
struct SpanState {
    next_id: u64,
    stack: Vec<OpenSpan>,
    open_async: Vec<OpenSpan>,
}

impl SpanState {
    fn fresh_id(&mut self) -> SpanId {
        self.next_id += 1;
        SpanId(self.next_id)
    }
}

struct SinkShared {
    rec: RefCell<RingRecorder>,
    now: Cell<SimTime>,
    spans: RefCell<SpanState>,
    cause: Cell<SpanId>,
    /// Tenant stamped on every emit while set (mirrors `cause`): the
    /// colocation runtime sets it around each tenant's controller slice.
    tenant: Cell<Option<TenantId>>,
    /// Page-range → tenant ownership map, so page-addressed events from
    /// shared layers (the migration engine) are attributed without any
    /// tenant context on the stack.
    tenant_pages: RefCell<Vec<(std::ops::Range<u64>, TenantId)>>,
}

impl SinkShared {
    fn resolve_tenant(&self, kind: &EventKind) -> Option<TenantId> {
        if let Some(t) = self.tenant.get() {
            return Some(t);
        }
        let vpn = kind.vpn()?;
        let map = self.tenant_pages.borrow();
        if map.is_empty() {
            return None;
        }
        map.iter()
            .find(|(r, _)| r.contains(&vpn))
            .map(|(_, id)| *id)
    }
}

/// Clonable handle to a shared [`RingRecorder`], or nothing at all.
///
/// All clones of one enabled sink share the recorder and the current-time
/// cell, so the machine (which knows the time) and the controllers (which
/// don't) stamp into the same stream.
#[derive(Clone, Default)]
pub struct Sink {
    inner: Option<Rc<SinkShared>>,
}

impl std::fmt::Debug for Sink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Sink(disabled)"),
            Some(sh) => write!(f, "Sink(enabled, now={:?})", sh.now.get()),
        }
    }
}

impl Sink {
    /// The zero-cost disabled sink (also `Sink::default()`).
    pub fn disabled() -> Self {
        Sink { inner: None }
    }

    /// An enabled sink writing into `rec`.
    pub fn new(rec: RingRecorder) -> Self {
        Sink {
            inner: Some(Rc::new(SinkShared {
                rec: RefCell::new(rec),
                now: Cell::new(SimTime::ZERO),
                spans: RefCell::new(SpanState::default()),
                cause: Cell::new(SpanId::NONE),
                tenant: Cell::new(None),
                tenant_pages: RefCell::new(Vec::new()),
            })),
        }
    }

    /// Convenience: an enabled sink backed by a fresh [`RingRecorder`]
    /// holding `event_cap` events. The second parameter is ignored: the
    /// recorder keeps no metric rows.
    pub fn ring(event_cap: usize, _metric_cap: usize) -> Self {
        Sink::new(RingRecorder::new(event_cap))
    }

    /// Whether emits go anywhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Refresh the shared clock (the machine calls this each tick with the
    /// tick's end time, so clock-less layers stamp at quantum granularity).
    pub fn set_now(&self, t: SimTime) {
        if let Some(sh) = &self.inner {
            sh.now.set(t);
        }
    }

    /// The shared clock's current value (ZERO when disabled).
    pub fn now(&self) -> SimTime {
        match &self.inner {
            Some(sh) => sh.now.get(),
            None => SimTime::ZERO,
        }
    }

    /// Emit an event stamped with the shared clock. The closure runs only
    /// when the sink is enabled — build the payload inside it.
    pub fn emit(&self, source: Source, kind: impl FnOnce() -> EventKind) {
        if let Some(sh) = &self.inner {
            let kind = kind();
            let ev = Event {
                t: sh.now.get(),
                source,
                tenant: sh.resolve_tenant(&kind),
                kind,
            };
            sh.rec.borrow_mut().record_event(ev);
        }
    }

    /// Emit an event at an explicit simulated time (for layers that know
    /// exactly when something happened, like the migration engine).
    pub fn emit_at(&self, t: SimTime, source: Source, kind: impl FnOnce() -> EventKind) {
        if let Some(sh) = &self.inner {
            let kind = kind();
            let ev = Event {
                t,
                source,
                tenant: sh.resolve_tenant(&kind),
                kind,
            };
            sh.rec.borrow_mut().record_event(ev);
        }
    }

    // ---- Tenants ---------------------------------------------------------

    /// Set (or clear) the tenant stamped on subsequent emits. Returns the
    /// previous context so callers can save/restore around a tenant's
    /// controller slice, like [`Sink::set_cause`].
    pub fn set_tenant_context(&self, tenant: Option<TenantId>) -> Option<TenantId> {
        match &self.inner {
            Some(sh) => sh.tenant.replace(tenant),
            None => None,
        }
    }

    /// Declare that `pages` belongs to `tenant`: page-addressed events
    /// emitted with no tenant context (e.g. by the shared migration
    /// engine) are attributed to the owning tenant by lookup.
    pub fn register_tenant_pages(&self, pages: std::ops::Range<u64>, tenant: TenantId) {
        if let Some(sh) = &self.inner {
            sh.tenant_pages.borrow_mut().push((pages, tenant));
        }
    }

    /// Run `f` against the recorder (e.g. to snapshot events at run end).
    /// Returns `None` when the sink is disabled.
    pub fn with<R>(&self, f: impl FnOnce(&RingRecorder) -> R) -> Option<R> {
        self.inner.as_ref().map(|sh| f(&sh.rec.borrow()))
    }

    // ---- Spans -----------------------------------------------------------

    /// Opens a scoped span on the span stack at the shared clock's time.
    /// Returns `SpanId::NONE` (and does nothing) when disabled. Close with
    /// [`Sink::span_exit`] in LIFO order.
    pub fn span_enter(&self, source: Source, name: &'static str) -> SpanId {
        self.span_enter_at(self.now(), source, name)
    }

    /// Opens a scoped span at an explicit simulated time.
    pub fn span_enter_at(&self, t: SimTime, source: Source, name: &'static str) -> SpanId {
        let Some(sh) = &self.inner else {
            return SpanId::NONE;
        };
        let mut st = sh.spans.borrow_mut();
        let id = st.fresh_id();
        let parent = st.stack.last().map_or(SpanId::NONE, |s| s.id);
        st.stack.push(OpenSpan {
            id,
            parent,
            cause: SpanId::NONE,
            source,
            name,
            payload: SpanPayload::None,
            t_start: t,
        });
        id
    }

    /// Closes a scoped span at the shared clock's time.
    pub fn span_exit(&self, id: SpanId) {
        self.span_exit_at(self.now(), id);
    }

    /// Closes a scoped span at an explicit time. Children left open above
    /// `id` on the stack are closed at the same stamp (defensive: the
    /// recorded tree stays well-nested even if a caller forgets an exit).
    /// A `NONE` or unknown id is a no-op.
    pub fn span_exit_at(&self, t: SimTime, id: SpanId) {
        let Some(sh) = &self.inner else { return };
        if id.is_none() {
            return;
        }
        let mut st = sh.spans.borrow_mut();
        if !st.stack.iter().any(|s| s.id == id) {
            return;
        }
        let mut rec = sh.rec.borrow_mut();
        while let Some(open) = st.stack.pop() {
            let done = open.id == id;
            rec.record_span(open.close(t, SpanKind::Scoped));
            if done {
                break;
            }
        }
    }

    /// Records an instant decision span (zero duration, recorded
    /// immediately, parented under the current stack top) and makes it the
    /// sink's current cause: until the next decision, migrations enqueued
    /// anywhere in the stack are attributed to it. Returns its id.
    pub fn span_decision(&self, source: Source, name: &'static str, mode: &'static str) -> SpanId {
        let Some(sh) = &self.inner else {
            return SpanId::NONE;
        };
        let t = sh.now.get();
        let mut st = sh.spans.borrow_mut();
        let id = st.fresh_id();
        let parent = st.stack.last().map_or(SpanId::NONE, |s| s.id);
        let sp = OpenSpan {
            id,
            parent,
            // A decision issued while another decision is in force (e.g. a
            // retry drain during a colloid quantum) chains back to it.
            cause: sh.cause.get(),
            source,
            name,
            payload: SpanPayload::Decision { mode },
            t_start: t,
        };
        sh.rec
            .borrow_mut()
            .record_span(sp.close(t, SpanKind::Scoped));
        sh.cause.set(id);
        id
    }

    /// The current cause (the most recent decision span), `NONE` when
    /// disabled or before any decision.
    pub fn cause(&self) -> SpanId {
        match &self.inner {
            Some(sh) => sh.cause.get(),
            None => SpanId::NONE,
        }
    }

    /// Overrides the current cause (save/restore around nested issuers
    /// like the retry queue; `set_cause(sink.cause())` round-trips).
    pub fn set_cause(&self, cause: SpanId) {
        if let Some(sh) = &self.inner {
            sh.cause.set(cause);
        }
    }

    /// Opens an async span (an extent that may outlive the current scope,
    /// e.g. a page copy crossing tick boundaries) at an explicit time,
    /// attributed to `cause`. Close with [`Sink::span_close_at`].
    pub fn span_open_at(
        &self,
        t: SimTime,
        source: Source,
        name: &'static str,
        payload: SpanPayload,
        cause: SpanId,
    ) -> SpanId {
        let Some(sh) = &self.inner else {
            return SpanId::NONE;
        };
        let mut st = sh.spans.borrow_mut();
        let id = st.fresh_id();
        let parent = st.stack.last().map_or(SpanId::NONE, |s| s.id);
        st.open_async.push(OpenSpan {
            id,
            parent,
            cause,
            source,
            name,
            payload,
            t_start: t,
        });
        id
    }

    /// Closes an async span at an explicit time. A `NONE` or unknown id is
    /// a no-op.
    pub fn span_close_at(&self, t: SimTime, id: SpanId) {
        let Some(sh) = &self.inner else { return };
        if id.is_none() {
            return;
        }
        let mut st = sh.spans.borrow_mut();
        if let Some(i) = st.open_async.iter().position(|s| s.id == id) {
            let open = st.open_async.swap_remove(i);
            sh.rec
                .borrow_mut()
                .record_span(open.close(t, SpanKind::Async));
        }
    }

    /// Spans currently open (stack + async extents). Diagnostic only.
    pub fn open_spans(&self) -> usize {
        match &self.inner {
            Some(sh) => {
                let st = sh.spans.borrow();
                st.stack.len() + st.open_async.len()
            }
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_ps: u64, source: Source) -> Event {
        Event {
            t: SimTime::from_ps(t_ps),
            source,
            tenant: None,
            kind: EventKind::EquilibriumReset,
        }
    }

    #[test]
    fn tenant_context_and_page_map_stamp_events() {
        let sink = Sink::ring(16, 0);
        sink.register_tenant_pages(100..200, TenantId(1));

        // No context, non-page event: untagged.
        sink.emit(Source::Runner, || EventKind::EquilibriumReset);
        // No context, page event inside a registered range: map lookup.
        sink.emit(Source::Machine, || EventKind::MigrationStart {
            vpn: 150,
            src: 1,
            dst: 0,
        });
        // No context, page event outside every range: untagged.
        sink.emit(Source::Machine, || EventKind::MigrationStart {
            vpn: 999,
            src: 1,
            dst: 0,
        });
        // Explicit context wins over the map.
        let prev = sink.set_tenant_context(Some(TenantId(7)));
        assert_eq!(prev, None);
        sink.emit(Source::System, || EventKind::MigrationStart {
            vpn: 150,
            src: 1,
            dst: 0,
        });
        assert_eq!(sink.set_tenant_context(None), Some(TenantId(7)));

        let tags: Vec<Option<TenantId>> = sink
            .with(|r| r.events().iter().map(|e| e.tenant).collect())
            .unwrap();
        assert_eq!(tags, vec![None, Some(TenantId(1)), None, Some(TenantId(7))]);
    }

    #[test]
    fn disabled_sink_never_runs_closures() {
        let sink = Sink::disabled();
        sink.emit(Source::Machine, || panic!("must not build payload"));
        assert!(!sink.is_enabled());
        assert!(sink.with(|_| ()).is_none());
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut r = RingRecorder::new(3);
        for i in 0..5 {
            r.record_event(ev(i, Source::Machine));
        }
        assert_eq!(r.dropped_events(), 2);
        let kept: Vec<u64> = r.events().iter().map(|e| e.t.as_ps()).collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn zero_cap_retains_nothing() {
        let mut r = RingRecorder::new(0);
        r.record_event(ev(1, Source::Machine));
        assert!(r.events().is_empty());
        assert_eq!(r.dropped_events(), 1);
        // Attached, a zero-cap ring keeps the sink enabled and swallows
        // every emit and span, counting each as dropped.
        let sink = Sink::new(RingRecorder::new(0));
        assert!(sink.is_enabled());
        sink.emit(Source::Machine, || EventKind::EquilibriumReset);
        let d = sink.span_decision(Source::Colloid, "decide", "promote");
        assert!(d.is_some());
        let kept = sink.with(|r| (r.events().len(), r.spans().len()));
        assert_eq!(kept, Some((0, 0)));
        let dropped = sink.with(|r| (r.dropped_events(), r.dropped_spans()));
        assert_eq!(dropped, Some((1, 1)));
    }

    #[test]
    fn per_source_timestamps_clamped_monotone() {
        let mut r = RingRecorder::new(16);
        r.record_event(ev(100, Source::Colloid));
        r.record_event(ev(50, Source::Colloid)); // stale clock: clamps to 100
        r.record_event(ev(70, Source::Machine)); // other source unaffected
        r.record_event(ev(120, Source::Colloid));
        let ts: Vec<(usize, u64)> = r
            .events()
            .iter()
            .map(|e| (e.source.index(), e.t.as_ps()))
            .collect();
        assert_eq!(
            ts,
            vec![
                (Source::Colloid.index(), 100),
                (Source::Colloid.index(), 100),
                (Source::Machine.index(), 70),
                (Source::Colloid.index(), 120),
            ]
        );
    }

    #[test]
    fn sink_clones_share_recorder_and_clock() {
        let sink = Sink::ring(8, 0);
        let clone = sink.clone();
        sink.set_now(SimTime::from_ps(42));
        assert_eq!(clone.now().as_ps(), 42);
        clone.emit(Source::Runner, || EventKind::EquilibriumReset);
        sink.emit_at(SimTime::from_ps(7), Source::Machine, || {
            EventKind::TierEvacuation { pages: 3 }
        });
        let events = sink.with(|r| r.events()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].t.as_ps(), 42);
        assert_eq!(events[0].source, Source::Runner);
        assert_eq!(events[1].t.as_ps(), 7);
    }

    #[test]
    fn disabled_sink_span_api_is_inert() {
        let sink = Sink::disabled();
        let id = sink.span_enter(Source::Machine, "tick");
        assert!(id.is_none());
        sink.span_exit(id);
        let d = sink.span_decision(Source::Colloid, "decide", "promote");
        assert!(d.is_none());
        assert!(sink.cause().is_none());
        let a = sink.span_open_at(
            SimTime::from_ns(1.0),
            Source::Machine,
            "migration",
            SpanPayload::Migration {
                vpn: 1,
                src: 0,
                dst: 1,
            },
            SpanId::NONE,
        );
        assert!(a.is_none());
        sink.span_close_at(SimTime::from_ns(2.0), a);
        assert_eq!(sink.open_spans(), 0);
    }

    #[test]
    fn scoped_spans_nest_and_record_on_close() {
        let sink = Sink::ring(16, 0);
        sink.set_now(SimTime::from_ns(10.0));
        let outer = sink.span_enter(Source::Runner, "runner.tick");
        sink.set_now(SimTime::from_ns(11.0));
        let inner = sink.span_enter(Source::Machine, "machine.tick");
        sink.set_now(SimTime::from_ns(20.0));
        sink.span_exit(inner);
        sink.set_now(SimTime::from_ns(21.0));
        sink.span_exit(outer);
        let spans = sink.with(|r| r.spans()).unwrap();
        assert_eq!(spans.len(), 2);
        // Children close (and so record) before parents.
        assert_eq!(spans[0].name, "machine.tick");
        assert_eq!(spans[0].parent, outer);
        assert_eq!(spans[1].name, "runner.tick");
        assert_eq!(spans[1].parent, SpanId::NONE);
        assert!(spans[0].t_start >= spans[1].t_start);
        assert!(spans[0].t_end <= spans[1].t_end);
    }

    #[test]
    fn exiting_parent_closes_forgotten_children() {
        let sink = Sink::ring(16, 0);
        let outer = sink.span_enter(Source::Runner, "outer");
        let _leaked = sink.span_enter(Source::Runner, "leaked");
        sink.set_now(SimTime::from_ns(5.0));
        sink.span_exit(outer);
        let spans = sink.with(|r| r.spans()).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "leaked");
        assert_eq!(spans[0].t_end, SimTime::from_ns(5.0));
        assert_eq!(sink.open_spans(), 0);
        // Unknown ids are no-ops.
        sink.span_exit(SpanId(999));
        assert_eq!(sink.with(|r| r.spans().len()).unwrap(), 2);
    }

    #[test]
    fn async_spans_cross_scopes_and_carry_causes() {
        let sink = Sink::ring(16, 0);
        let d = sink.span_decision(Source::Colloid, "colloid.decide", "demote");
        assert_eq!(sink.cause(), d);
        let tick1 = sink.span_enter(Source::Machine, "machine.tick");
        let mig = sink.span_open_at(
            SimTime::from_ns(1.0),
            Source::Machine,
            "migration",
            SpanPayload::Migration {
                vpn: 42,
                src: 0,
                dst: 1,
            },
            sink.cause(),
        );
        sink.span_exit(tick1);
        let tick2 = sink.span_enter(Source::Machine, "machine.tick");
        sink.span_close_at(SimTime::from_ns(9.0), mig);
        sink.span_exit(tick2);
        let spans = sink.with(|r| r.spans()).unwrap();
        let m = spans.iter().find(|s| s.name == "migration").unwrap();
        assert_eq!(m.kind, SpanKind::Async);
        assert_eq!(m.cause, d);
        assert_eq!(m.parent, tick1);
        assert_eq!(m.t_end, SimTime::from_ns(9.0));
        assert_eq!(
            m.payload,
            SpanPayload::Migration {
                vpn: 42,
                src: 0,
                dst: 1,
            }
        );
        // The decision was recorded instantly, as a decision.
        assert!(spans[0].payload.is_decision());
    }

    #[test]
    fn span_ring_bounds_memory() {
        let mut r = RingRecorder::new(4).with_span_cap(2);
        for i in 1..=5u64 {
            r.record_span(SpanRecord {
                id: SpanId(i),
                parent: SpanId::NONE,
                cause: SpanId::NONE,
                source: Source::Machine,
                name: "s",
                payload: SpanPayload::None,
                t_start: SimTime::ZERO,
                t_end: SimTime::ZERO,
                kind: SpanKind::Scoped,
            });
        }
        assert_eq!(r.dropped_spans(), 3);
        let ids: Vec<u64> = r.spans().iter().map(|s| s.id.0).collect();
        assert_eq!(ids, vec![4, 5]);
    }
}
