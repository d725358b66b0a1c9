//! Migration retry with capped exponential backoff.
//!
//! The machine's [`Machine::enqueue_migration`] is best-effort: it rejects
//! requests when the destination tier has no free frames, and — under fault
//! injection — an accepted migration can still abort in flight (surfaced in
//! [`TickReport::failed_migrations`]). The tiering systems historically
//! ignored both outcomes, silently stranding pages on the wrong tier.
//!
//! [`RetryQueue`] is the shared remedy: rejected and failed migrations are
//! parked and re-driven with capped exponential backoff (in ticks), with
//! retries deferred while the machine's migration engine is backlogged so
//! recovery traffic never piles onto an already-saturated DMA engine.
//! Requests that became moot (page unmapped, or already at its destination)
//! are resolved rather than retried.
//!
//! **Determinism contract**: rejection capture engages only while the
//! machine has an active [`FaultPlan`](memsim::FaultPlan). On a fault-free
//! machine a transient rejection keeps the legacy drop-on-reject semantics
//! (counted in [`RetryStats::uncaptured`]), so every fault-free experiment
//! is bit-identical with and without the retry layer. The machine's plan
//! holds only faults it injects (the exclusive engine mode drops write
//! storms and channel stalls, which it ignores), so a fault that never
//! happens does not engage capture either. In-flight failures can only be
//! produced by fault injection, so ingesting them needs no gate.
//!
//! [`Machine::enqueue_migration`]: memsim::Machine::enqueue_migration
//! [`TickReport::failed_migrations`]: memsim::TickReport

use std::collections::VecDeque;

use memsim::{AbortReason, EnqueueError, Machine, TickReport, TierId, Vpn};

/// Knobs for [`RetryQueue`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Delay before the first retry, in ticks.
    pub base_delay_ticks: u64,
    /// Cap on the exponential backoff delay, in ticks.
    pub max_delay_ticks: u64,
    /// Attempts before an entry is dropped for good (counted in
    /// [`RetryStats::dropped`]).
    pub max_attempts: u32,
    /// Retries are deferred (not attempted, not aged) while the machine's
    /// migration backlog exceeds this many pages.
    pub backlog_threshold: usize,
    /// Maximum parked entries; beyond this the oldest entry is dropped.
    pub capacity: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_delay_ticks: 1,
            max_delay_ticks: 64,
            max_attempts: 12,
            backlog_threshold: 4096,
            capacity: 65_536,
        }
    }
}

/// Counters exposed for tests, telemetry, and experiment reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Entries parked for retry (rejections + in-flight failures).
    pub scheduled: u64,
    /// Retry attempts performed.
    pub attempts: u64,
    /// Retries that successfully re-enqueued their migration.
    pub recovered: u64,
    /// Entries resolved without a migration (page vanished or already at
    /// its destination by the time the retry came up).
    pub resolved_moot: u64,
    /// Entries abandoned: attempt cap reached or queue overflow.
    pub dropped: u64,
    /// Entries abandoned specifically because the attempt cap was
    /// exhausted (a subset of `dropped`; the rest are overflow evictions).
    pub gave_up: u64,
    /// Ticks on which retries were deferred due to engine backlog.
    pub deferred_ticks: u64,
    /// Transient rejections observed on a fault-free machine, where the
    /// legacy drop-on-reject behavior is preserved for determinism.
    pub uncaptured: u64,
    /// High-water mark of parked entries (queue-depth saturation signal).
    pub max_pending: u64,
    /// Requests rejected because the destination tier had no free frame.
    pub rejected_full: u64,
    /// Requests rejected by the supervisor's admission freeze.
    pub rejected_frozen: u64,
    /// Requests rejected because the page already had a migration in
    /// flight. Not parked: the in-flight transaction either commits (a
    /// retry would be moot) or aborts (and re-enters via
    /// [`RetryQueue::note_failures`]).
    pub rejected_duplicate: u64,
    /// Requests vetoed by an installed migration gate (QoS arbiter /
    /// admission hook). Not parked: the veto is a policy decision, not a
    /// transient condition.
    pub rejected_vetoed: u64,
}

#[derive(Debug, Clone, Copy)]
struct RetryEntry {
    vpn: Vpn,
    dst: TierId,
    attempts: u32,
    due: u64,
}

/// A backoff queue of migrations that could not be enqueued (or failed in
/// flight), shared by all three tiering systems.
///
/// # Examples
///
/// ```
/// use memsim::{Machine, MachineConfig, TierId, PAGE_SIZE};
/// use tiersys::retry::{RetryPolicy, RetryQueue};
///
/// let mut cfg = MachineConfig::icelake_two_tier();
/// cfg.tiers[1].capacity_bytes = PAGE_SIZE; // one alternate frame
/// cfg.faults.migration_fail_prob = 0.1; // active plan: capture rejections
/// let mut m = Machine::new(cfg);
/// m.place_range(0..4, TierId::DEFAULT);
///
/// let mut q = RetryQueue::new(RetryPolicy::default());
/// assert!(q.request(&mut m, 0, TierId::ALTERNATE)); // fills the frame
/// assert!(!q.request(&mut m, 1, TierId::ALTERNATE)); // parked for retry
/// assert_eq!(q.pending(), 1);
/// ```
#[derive(Debug)]
pub struct RetryQueue {
    policy: RetryPolicy,
    entries: VecDeque<RetryEntry>,
    tick: u64,
    stats: RetryStats,
    sink: telemetry::Sink,
    /// Parked-entry depth, one sample per tick (detached unless a hub is
    /// attached via [`RetryQueue::set_metrics`]).
    depth_metric: telemetry::HistogramHandle,
    recovered_metric: telemetry::Counter,
}

impl RetryQueue {
    /// Creates an empty queue with the given policy.
    pub fn new(policy: RetryPolicy) -> Self {
        assert!(policy.max_attempts > 0, "at least one attempt");
        assert!(policy.capacity > 0, "capacity must be positive");
        RetryQueue {
            policy,
            entries: VecDeque::new(),
            tick: 0,
            stats: RetryStats::default(),
            sink: telemetry::Sink::default(),
            depth_metric: telemetry::HistogramHandle::default(),
            recovered_metric: telemetry::Counter::default(),
        }
    }

    /// Attaches a telemetry sink (events stamp with its shared clock).
    pub fn set_telemetry(&mut self, sink: telemetry::Sink) {
        self.sink = sink;
    }

    /// Attaches a live metrics hub: per-tick retry-queue depth histogram
    /// and a recovered-migration counter.
    pub fn set_metrics(&mut self, hub: telemetry::MetricsHub) {
        self.depth_metric = hub.histogram("tiersys_retry_depth");
        self.recovered_metric = hub.counter("tiersys_retry_recovered_total");
    }

    /// Requests a migration, parking it for retry if the machine rejects
    /// it for a transient reason (destination full). Returns whether the
    /// migration was enqueued *now* — callers update their placement
    /// bookkeeping on `true` exactly as they would for a bare
    /// `enqueue_migration`.
    pub fn request(&mut self, machine: &mut Machine, vpn: Vpn, dst: TierId) -> bool {
        let err = match machine.enqueue_migration(vpn, dst) {
            Ok(()) => return true,
            Err(e) => e,
        };
        match err {
            // Unmapped or already where it should be: nothing to retry.
            EnqueueError::Moot => self.stats.resolved_moot += 1,
            // A migration for this page is already in flight: it either
            // commits (retry moot) or aborts and re-enters via
            // `note_failures` — parking now would double-drive the page.
            EnqueueError::DuplicateInFlight => self.stats.rejected_duplicate += 1,
            // A QoS/admission policy vetoed the move: the decision is
            // deliberate, so retrying it blindly would fight the arbiter.
            EnqueueError::Vetoed => self.stats.rejected_vetoed += 1,
            // Transient rejections: park for a backoff retry — but only
            // under an active fault plan (see module docs).
            EnqueueError::Pinned | EnqueueError::DestinationFull | EnqueueError::EngineFrozen => {
                match err {
                    EnqueueError::DestinationFull => self.stats.rejected_full += 1,
                    EnqueueError::EngineFrozen => self.stats.rejected_frozen += 1,
                    _ => {}
                }
                if machine.config().faults.is_active() {
                    self.schedule(vpn, dst);
                } else {
                    self.stats.uncaptured += 1;
                }
            }
        }
        false
    }

    /// Ingests a tick's in-flight migration failures: each aborted page is
    /// parked for retry, with the typed abort reason shaping the delay —
    /// a write-conflict abort means the page is write-hot *right now*, so
    /// it cools for four times the base delay before the next attempt;
    /// outage, transient and watchdog aborts retry on the base schedule.
    pub fn note_failures(&mut self, report: &TickReport) {
        for f in &report.failed_migrations {
            let delay = match f.reason {
                AbortReason::WriteConflict => self.policy.base_delay_ticks.saturating_mul(4),
                AbortReason::Outage | AbortReason::Transient | AbortReason::Watchdog => {
                    self.policy.base_delay_ticks
                }
            };
            self.schedule_after(f.vpn, f.dst, delay);
        }
    }

    /// One tick of retry processing. Returns the migrations that were
    /// successfully re-enqueued this tick so the caller can update its
    /// placement bookkeeping (e.g. HeMem's frequency bins).
    pub fn on_tick(&mut self, machine: &mut Machine) -> Vec<(Vpn, TierId)> {
        self.tick += 1;
        self.depth_metric.record(self.entries.len() as u64);
        if self.entries.is_empty() {
            return Vec::new();
        }
        // Backlog-aware throttling: while the DMA engine is drowning,
        // retrying would only deepen the queue it is rejected from.
        if machine.migration_backlog() > self.policy.backlog_threshold {
            self.stats.deferred_ticks += 1;
            return Vec::new();
        }
        let _prof = simkit::profile::scope("tiersys.retry_drain");
        // Re-enqueued copies are this queue's doing, not the original
        // controller's: point the causal chain here while draining, then
        // restore whatever decision was current.
        let prev_cause = self.sink.cause();
        self.sink
            .span_decision(telemetry::Source::System, "retry.drain", "retry");
        let mut recovered = Vec::new();
        for _ in 0..self.entries.len() {
            let Some(mut e) = self.entries.pop_front() else {
                break;
            };
            if e.due > self.tick {
                self.entries.push_back(e);
                continue;
            }
            match machine.tier_of(e.vpn) {
                None => {
                    self.stats.resolved_moot += 1;
                    continue;
                }
                Some(t) if t == e.dst => {
                    self.stats.resolved_moot += 1;
                    continue;
                }
                Some(_) => {}
            }
            self.stats.attempts += 1;
            if machine.enqueue_migration(e.vpn, e.dst).is_ok() {
                self.stats.recovered += 1;
                self.recovered_metric.inc();
                self.sink.emit(telemetry::Source::System, || {
                    telemetry::EventKind::MigrationRetry {
                        vpn: e.vpn,
                        dst: e.dst.0,
                    }
                });
                recovered.push((e.vpn, e.dst));
            } else {
                e.attempts += 1;
                if e.attempts >= self.policy.max_attempts {
                    self.stats.dropped += 1;
                    self.stats.gave_up += 1;
                    self.sink.emit(telemetry::Source::System, || {
                        telemetry::EventKind::RetryExhausted {
                            vpn: e.vpn,
                            dst: e.dst.0,
                        }
                    });
                } else {
                    e.due = self.tick + self.backoff(e.attempts);
                    self.entries.push_back(e);
                }
            }
        }
        self.sink.set_cause(prev_cause);
        recovered
    }

    /// Entries currently parked.
    pub fn pending(&self) -> usize {
        self.entries.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    fn backoff(&self, attempts: u32) -> u64 {
        let exp = attempts.min(32);
        (self.policy.base_delay_ticks << exp.min(62)).min(self.policy.max_delay_ticks)
    }

    fn schedule(&mut self, vpn: Vpn, dst: TierId) {
        self.schedule_after(vpn, dst, self.policy.base_delay_ticks);
    }

    fn schedule_after(&mut self, vpn: Vpn, dst: TierId, delay: u64) {
        // Coalesce: a page already parked keeps its earlier slot (a second
        // rejection adds no information).
        if self.entries.iter().any(|e| e.vpn == vpn && e.dst == dst) {
            return;
        }
        if self.entries.len() >= self.policy.capacity {
            self.entries.pop_front();
            self.stats.dropped += 1;
        }
        self.stats.scheduled += 1;
        self.entries.push_back(RetryEntry {
            vpn,
            dst,
            attempts: 0,
            due: self.tick + delay,
        });
        self.stats.max_pending = self.stats.max_pending.max(self.entries.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{MachineConfig, PAGE_SIZE};
    use simkit::SimTime;

    /// Two-tier machine with `alt` alternate frames and 64 mapped pages.
    /// The fault plan is active (but harmless here: PEBS is off) so
    /// rejection capture is engaged.
    fn machine(alt_frames: u64) -> Machine {
        let mut cfg = MachineConfig::icelake_two_tier();
        cfg.tiers[1].capacity_bytes = alt_frames * PAGE_SIZE;
        cfg.faults.pebs_loss_prob = 0.5;
        let mut m = Machine::new(cfg);
        m.place_range(0..64, TierId::DEFAULT);
        m
    }

    #[test]
    fn immediate_success_needs_no_retry() {
        let mut m = machine(64);
        let mut q = RetryQueue::new(RetryPolicy::default());
        assert!(q.request(&mut m, 0, TierId::ALTERNATE));
        assert_eq!(q.pending(), 0);
        assert_eq!(q.stats(), RetryStats::default());
    }

    #[test]
    fn capacity_rejection_is_parked_and_recovers() {
        let mut m = machine(1);
        let mut q = RetryQueue::new(RetryPolicy::default());
        assert!(q.request(&mut m, 0, TierId::ALTERNATE));
        assert!(!q.request(&mut m, 1, TierId::ALTERNATE));
        assert_eq!(q.pending(), 1);
        // Nothing recovers while the frame is taken.
        m.run_tick(SimTime::from_us(100.0));
        assert!(q.on_tick(&mut m).is_empty());
        // Free the frame by migrating page 0 back, then drain it.
        m.enqueue_migration(0, TierId::DEFAULT).unwrap();
        m.run_tick(SimTime::from_ms(1.0));
        let mut recovered = Vec::new();
        for _ in 0..200 {
            recovered.extend(q.on_tick(&mut m));
            m.run_tick(SimTime::from_us(100.0));
            if q.pending() == 0 {
                break;
            }
        }
        assert_eq!(recovered, vec![(1, TierId::ALTERNATE)]);
        assert_eq!(m.tier_of(1), Some(TierId::ALTERNATE));
        assert_eq!(q.stats().recovered, 1);
        assert_eq!(q.stats().dropped, 0);
    }

    #[test]
    fn moot_entries_resolve_without_migrating() {
        let mut m = machine(4);
        let mut q = RetryQueue::new(RetryPolicy::default());
        // Already at destination.
        assert!(!q.request(&mut m, 0, TierId::DEFAULT));
        // Unmapped page.
        assert!(!q.request(&mut m, 4000, TierId::ALTERNATE));
        assert_eq!(q.pending(), 0);
        assert_eq!(q.stats().resolved_moot, 2);
    }

    #[test]
    fn parked_entry_resolves_moot_if_page_arrives_by_other_means() {
        let mut m = machine(1);
        let mut q = RetryQueue::new(RetryPolicy::default());
        assert!(q.request(&mut m, 0, TierId::ALTERNATE));
        assert!(!q.request(&mut m, 1, TierId::ALTERNATE));
        // Page 0 leaves, page 1 gets migrated directly by someone else.
        m.run_tick(SimTime::from_ms(1.0));
        m.enqueue_migration(0, TierId::DEFAULT).unwrap();
        m.run_tick(SimTime::from_ms(1.0));
        m.enqueue_migration(1, TierId::ALTERNATE).unwrap();
        m.run_tick(SimTime::from_ms(1.0));
        for _ in 0..10 {
            assert!(q.on_tick(&mut m).is_empty());
        }
        assert_eq!(q.pending(), 0);
        assert_eq!(q.stats().resolved_moot, 1);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let q = RetryQueue::new(RetryPolicy {
            base_delay_ticks: 2,
            max_delay_ticks: 32,
            ..RetryPolicy::default()
        });
        assert_eq!(q.backoff(1), 4);
        assert_eq!(q.backoff(2), 8);
        assert_eq!(q.backoff(3), 16);
        assert_eq!(q.backoff(4), 32);
        assert_eq!(q.backoff(20), 32); // capped
        assert_eq!(q.backoff(63), 32); // no shift overflow
    }

    #[test]
    fn attempt_cap_drops_unserviceable_entries() {
        let mut m = machine(1);
        let mut q = RetryQueue::new(RetryPolicy {
            base_delay_ticks: 1,
            max_delay_ticks: 1,
            max_attempts: 3,
            ..RetryPolicy::default()
        });
        assert!(q.request(&mut m, 0, TierId::ALTERNATE));
        assert!(!q.request(&mut m, 1, TierId::ALTERNATE));
        // The frame never frees: the entry must eventually be dropped.
        for _ in 0..20 {
            q.on_tick(&mut m);
        }
        assert_eq!(q.pending(), 0);
        assert_eq!(q.stats().dropped, 1);
        assert_eq!(q.stats().gave_up, 1);
        assert_eq!(q.stats().max_pending, 1);
        assert_eq!(q.stats().attempts, 3);
    }

    #[test]
    fn max_pending_records_queue_high_water() {
        let mut m = machine(1);
        let mut q = RetryQueue::new(RetryPolicy {
            base_delay_ticks: 1,
            max_delay_ticks: 1,
            max_attempts: 2,
            ..RetryPolicy::default()
        });
        assert!(q.request(&mut m, 0, TierId::ALTERNATE));
        for vpn in 1..5 {
            assert!(!q.request(&mut m, vpn, TierId::ALTERNATE));
        }
        assert_eq!(q.pending(), 4);
        assert_eq!(q.stats().max_pending, 4);
        // Exhausting the attempt cap drains the queue but never lowers
        // the recorded high-water mark.
        for _ in 0..20 {
            q.on_tick(&mut m);
        }
        assert_eq!(q.pending(), 0);
        assert_eq!(q.stats().max_pending, 4);
        assert_eq!(q.stats().gave_up, 4);
        assert_eq!(q.stats().dropped, 4);
    }

    #[test]
    fn overflow_evictions_are_dropped_but_not_gave_up() {
        let mut m = machine(1);
        let mut q = RetryQueue::new(RetryPolicy {
            capacity: 2,
            ..RetryPolicy::default()
        });
        assert!(q.request(&mut m, 0, TierId::ALTERNATE));
        for vpn in 1..4 {
            assert!(!q.request(&mut m, vpn, TierId::ALTERNATE));
        }
        // Third park evicted the oldest entry to stay within capacity.
        assert_eq!(q.pending(), 2);
        assert_eq!(q.stats().dropped, 1);
        assert_eq!(q.stats().gave_up, 0);
        assert_eq!(q.stats().max_pending, 2);
    }

    #[test]
    fn fault_free_rejections_keep_legacy_drop_semantics() {
        let mut cfg = MachineConfig::icelake_two_tier();
        cfg.tiers[1].capacity_bytes = PAGE_SIZE;
        let mut m = Machine::new(cfg); // no fault plan
        m.place_range(0..64, TierId::DEFAULT);
        let mut q = RetryQueue::new(RetryPolicy::default());
        assert!(q.request(&mut m, 0, TierId::ALTERNATE));
        assert!(!q.request(&mut m, 1, TierId::ALTERNATE));
        // Nothing parked: fault-free runs stay bit-identical to the
        // pre-retry behavior.
        assert_eq!(q.pending(), 0);
        assert_eq!(q.stats().scheduled, 0);
        assert_eq!(q.stats().uncaptured, 1);
    }

    #[test]
    fn duplicate_requests_coalesce() {
        let mut m = machine(1);
        let mut q = RetryQueue::new(RetryPolicy::default());
        assert!(q.request(&mut m, 0, TierId::ALTERNATE));
        for _ in 0..5 {
            assert!(!q.request(&mut m, 1, TierId::ALTERNATE));
        }
        assert_eq!(q.pending(), 1);
        assert_eq!(q.stats().scheduled, 1);
    }

    #[test]
    fn typed_rejections_are_counted() {
        let mut m = machine(1);
        let mut q = RetryQueue::new(RetryPolicy::default());
        assert!(q.request(&mut m, 0, TierId::ALTERNATE));
        // Destination full: parked (fault plan is active) and counted.
        assert!(!q.request(&mut m, 1, TierId::ALTERNATE));
        assert_eq!(q.stats().rejected_full, 1);
        // Duplicate in-flight (transactional engine): counted but NOT
        // parked — the in-flight migration settles the page one way or the
        // other.
        let mut txn = {
            let mut cfg = MachineConfig::icelake_two_tier();
            cfg.engine = memsim::MigrationEngineConfig::transactional();
            cfg.faults.pebs_loss_prob = 0.5;
            let mut m = Machine::new(cfg);
            m.place_range(0..64, TierId::DEFAULT);
            m
        };
        assert!(q.request(&mut txn, 0, TierId::ALTERNATE));
        assert!(!q.request(&mut txn, 0, TierId::ALTERNATE));
        assert_eq!(q.stats().rejected_duplicate, 1);
        assert_eq!(q.pending(), 1);
        // Admission freeze (on a machine with room): parked and counted.
        let mut frozen = machine(8);
        frozen.set_migration_admission_limit(Some(0));
        assert!(!q.request(&mut frozen, 2, TierId::ALTERNATE));
        assert_eq!(q.stats().rejected_frozen, 1);
        assert_eq!(q.pending(), 2);
    }

    #[test]
    fn write_conflict_aborts_cool_longer_before_retry() {
        let mut q = RetryQueue::new(RetryPolicy {
            base_delay_ticks: 2,
            ..RetryPolicy::default()
        });
        let report = |reason| memsim::TickReport {
            failed_migrations: vec![memsim::FailedMigration {
                vpn: 7,
                dst: TierId::ALTERNATE,
                reason,
            }],
            ..sample_report()
        };
        q.note_failures(&report(memsim::AbortReason::WriteConflict));
        assert_eq!(q.entries[0].due, q.tick + 8, "4x base delay");
        q.entries.clear();
        q.note_failures(&report(memsim::AbortReason::Watchdog));
        assert_eq!(q.entries[0].due, q.tick + 2, "base delay");
        assert_eq!(q.stats().scheduled, 2);
    }

    /// An empty TickReport scaffold for synthesizing failure reports.
    fn sample_report() -> memsim::TickReport {
        memsim::TickReport {
            t_start: SimTime::ZERO,
            t_end: SimTime::from_ms(1.0),
            tiers: Vec::new(),
            pebs: Vec::new(),
            faults: Vec::new(),
            app_ops: 0,
            migrated_bytes: 0,
            migration_backlog: 0,
            mig_copy_ns: None,
            mig_copy_pair_ns: Vec::new(),
            true_latency_ns: Vec::new(),
            fault_stats: memsim::FaultStats::default(),
            failed_migrations: Vec::new(),
            txn: memsim::TxnTickStats::default(),
            evacuated: Vec::new(),
        }
    }

    #[test]
    fn backlog_defers_retries() {
        let mut m = machine(64);
        // Flood the migration queue well past the threshold.
        let mut q = RetryQueue::new(RetryPolicy {
            backlog_threshold: 4,
            ..RetryPolicy::default()
        });
        for vpn in 0..32 {
            m.enqueue_migration(vpn, TierId::ALTERNATE).unwrap();
        }
        assert!(m.migration_backlog() > 4);
        // Park an entry (destination still has room, so force one in by
        // filling the queue via a full alternate tier is overkill — park
        // directly through a failure report instead).
        q.schedule(40, TierId::ALTERNATE);
        assert!(q.on_tick(&mut m).is_empty());
        assert!(q.stats().deferred_ticks >= 1);
        assert_eq!(q.stats().attempts, 0);
    }
}
