//! The simulated machine: closed-loop cores driving the tiered memory
//! system, with the hardware facilities tiering systems rely on.
//!
//! A [`Machine`] assembles:
//!
//! - **cores** running [`AccessStream`] workloads with bounded in-flight
//!   demand misses (LFBs) and prefetch misses — the per-core memory-level
//!   parallelism bound `N` that makes per-core throughput `T = N·64/L`
//!   (paper §3.1);
//! - **tiers**, each a [`MemoryController`] optionally behind a serial
//!   [`Link`] (UPI/CXL);
//! - the **CHA** with per-tier occupancy/arrival counters (the Colloid
//!   measurement vantage point) and MBM-style per-class byte counters;
//! - a **page-placement map** (virtual page → tier) that tiering systems
//!   mutate through migrations;
//! - a **migration DMA engine** that copies pages between tiers at a
//!   configurable bandwidth, injecting real read/write traffic. One copy
//!   pipeline serves both engine modes: the exclusive mode copies a page
//!   on one channel and flips its mapping as the last line lands; the
//!   transactional mode adds channels, dirty tracking, validation,
//!   watchdogs and batched commits (DESIGN.md §13);
//! - **access-tracking hardware**: PEBS-style sampling of demand misses and
//!   page-table-protection hint faults (TPP).
//!
//! Control software (the tiering systems in `tiersys`) advances the machine
//! one *tick* at a time with [`Machine::run_tick`], receives a
//! [`TickReport`] of everything the hardware observed, and reacts by
//! enqueueing migrations or re-marking pages.

use rand::rngs::SmallRng;
use rand::Rng;
use simkit::rng::seed_from;
use simkit::{EventQueue, SimTime};

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::cha::{Cha, ChaCounters, TierWindow};
use crate::config::{CoreConfig, MachineConfig};
use crate::controller::{Link, MemoryController};
use crate::faults::{FaultInjector, FaultStats};
use crate::request::{
    AccessKind, HintFault, ObjectAccess, PebsSample, TierId, TrafficClass, Vpn, LINES_PER_PAGE,
    LINE_SIZE, PAGE_SIZE,
};

/// A workload: an infinite stream of object-granularity memory accesses.
///
/// Implementations live in the `workloads` crate (GUPS, antagonist,
/// PageRank, ...). `now` lets time-varying workloads switch phases.
pub trait AccessStream {
    /// Produces the next object access issued by this core.
    fn next(&mut self, now: SimTime, rng: &mut SmallRng) -> ObjectAccess;
}

/// Identifier of a simulated core.
pub type CoreId = usize;

/// Internal per-object in-flight state.
#[derive(Debug, Clone, Copy)]
struct ObjectState {
    vaddr: u64,
    lines_total: u16,
    lines_issued: u16,
    lines_done: u16,
    is_write: bool,
    llc_hit_prob: f32,
    live: bool,
}

/// Internal per-core state.
struct Core {
    cfg: CoreConfig,
    class: TrafficClass,
    stream: Box<dyn AccessStream>,
    rng: SmallRng,
    active: bool,
    demand_free: usize,
    prefetch_free: usize,
    /// Object currently being issued (may be partially issued).
    cur: Option<u32>,
    /// Next object pulled from the stream but blocked on dependence.
    pending: Option<ObjectAccess>,
    /// Number of live (incomplete) objects.
    live_objects: u32,
    objects: Vec<ObjectState>,
    free_objects: Vec<u32>,
    think_until: SimTime,
    wake_scheduled: bool,
    ops_completed: u64,
}

impl Core {
    fn alloc_object(&mut self, acc: &ObjectAccess) -> u32 {
        debug_assert!(acc.size >= 1, "zero-sized object access");
        let st = ObjectState {
            vaddr: acc.vaddr,
            lines_total: acc.num_lines() as u16,
            lines_issued: 0,
            lines_done: 0,
            is_write: acc.is_write,
            llc_hit_prob: acc.llc_hit_prob,
            live: true,
        };
        self.live_objects += 1;
        if let Some(idx) = self.free_objects.pop() {
            self.objects[idx as usize] = st;
            idx
        } else {
            self.objects.push(st);
            (self.objects.len() - 1) as u32
        }
    }

    fn free_object(&mut self, idx: u32) {
        self.objects[idx as usize].live = false;
        self.live_objects -= 1;
        self.free_objects.push(idx);
    }
}

/// One in-flight page copy. The exclusive mode runs every copy on
/// channel 0 as one pass and never touches `attempt`, `dirty`,
/// `committing` or `failovers`; the transactional mode treats the copy as
/// a transaction that may re-copy, fail over or abort.
#[derive(Debug, Clone, Copy)]
struct MigJob {
    vpn: Vpn,
    dst: TierId,
    lines_read: u16,
    lines_done: u16,
    live: bool,
    /// When the copy left the queue and the engine started it (for the
    /// per-page copy-time telemetry in [`TickReport::mig_copy_ns`]).
    started: SimTime,
    /// Open async telemetry span covering this copy ([`SpanId::NONE`]
    /// when tracing is off).
    span: telemetry::SpanId,
    /// DMA channel the transaction is assigned to.
    channel: u32,
    /// Copy pass number, 1-based; bumped by each dirty retry.
    attempt: u32,
    /// The snapshot was invalidated by a concurrent write this pass.
    dirty: bool,
    /// Validated and parked in the commit batch, waiting for the
    /// shootdown flush; immune to further dirtying (the PTE is
    /// write-protected for the shootdown).
    committing: bool,
    /// Failovers consumed (capped at the channel count).
    failovers: u32,
    /// Generation counter: copy/watchdog events stamped with an older
    /// epoch belong to an abandoned pass and are ignored.
    epoch: u32,
}

/// Simulator events.
enum Ev {
    /// A core's cache line completed (LLC hit or memory read).
    LineDone {
        core: CoreId,
        obj: u32,
        demand: bool,
        tier: Option<TierId>,
    },
    /// Re-try issuing on a core (think time expiry / activation).
    CoreWake { core: CoreId },
    /// Dirty lines written back to memory.
    Writeback {
        vaddr: u64,
        lines: u16,
        class: TrafficClass,
    },
    /// Migration engine: channel `ch` picks up the next queued page.
    MigStart { ch: u32 },
    /// Migration engine: issue the next read of a copy pass. Stale epochs
    /// (passes the transactional mode abandoned) are ignored.
    MigRead { job: u32, epoch: u32 },
    /// Migration engine: a copy read returned; write it to the destination
    /// if the pass is still current.
    MigLineDone { job: u32, src: TierId, epoch: u32 },
    /// Transactional mode: dirty-retry backoff expired; start a fresh copy
    /// pass.
    TxnRetry { job: u32, epoch: u32 },
    /// Transactional mode: watchdog deadline for one copy pass.
    TxnWatchdog { job: u32, epoch: u32 },
    /// Transactional mode: batched TLB-shootdown commit flush.
    TxnFlush,
    /// CHA read-queue departure decoupled from the core's completion (used
    /// when a hint fault delays the core beyond the memory response).
    ChaDepart { tier: TierId },
}

/// Per-tier hardware of one memory tier.
struct TierHw {
    controller: MemoryController,
    link: Option<Link>,
    t_req: SimTime,
    t_rsp: SimTime,
}

impl TierHw {
    /// Full read path: CHA → (link) → controller → (link) → CHA.
    fn read(&mut self, t: SimTime, line_addr: u64) -> SimTime {
        let at_mc = match &mut self.link {
            Some(l) => l.send_request(t + self.t_req),
            None => t + self.t_req,
        };
        let out = self.controller.schedule(at_mc, line_addr, AccessKind::Read);
        let back = match &mut self.link {
            Some(l) => l.send_response(out.done),
            None => out.done,
        };
        back + self.t_rsp
    }

    /// Fire-and-forget write path (writeback / migration copy-in).
    fn write(&mut self, t: SimTime, line_addr: u64) {
        let at_mc = match &mut self.link {
            Some(l) => l.send_request(t + self.t_req),
            None => t + self.t_req,
        };
        self.controller
            .schedule(at_mc, line_addr, AccessKind::Write);
    }
}

/// `count × mean` of a latency sum, with the mean taken first: the order
/// of the rounding is part of every pinned `true_latency_ns`.
fn mean_times_count(count: u64, sum_ns: f64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum_ns / count as f64 * count as f64
    }
}

/// Everything in the machine except the cores (split for borrow hygiene).
struct Shared {
    cfg: MachineConfig,
    events: EventQueue<Ev>,
    tiers: Vec<TierHw>,
    cha: Cha,
    /// Virtual page → tier (u8::MAX = unmapped).
    placement: Vec<u8>,
    /// Pages that must never migrate (e.g. the antagonist's pinned buffer).
    pinned: Vec<bool>,
    /// Pages [`Machine::place`] mapped; nothing unmaps a page.
    placed: u64,
    used_pages: Vec<u64>,
    /// Usable frames per tier: starts at the configured capacity and only
    /// decreases, when a [`crate::TierShrink`] hard fault fires.
    effective_capacity: Vec<u64>,
    // Access tracking.
    marked: Vec<bool>,
    marked_at: Vec<SimTime>,
    pebs_counter: u64,
    pebs_period: u64,
    pebs_buf: Vec<PebsSample>,
    fault_buf: Vec<HintFault>,
    // Migration engine.
    /// Queued migrations; each entry carries the causal span id captured
    /// from the sink at enqueue time, so the copy that eventually runs
    /// chains back to the controller decision that issued it.
    mig_queue: VecDeque<(Vpn, TierId, telemetry::SpanId)>,
    mig_jobs: Vec<MigJob>,
    mig_free_jobs: Vec<u32>,
    mig_inflight_to: Vec<u64>,
    /// Per-page count of queued or in-flight migrations (rejects duplicate
    /// enqueues); decremented on every exit path: drop, abort, commit.
    mig_pending: Vec<u16>,
    /// Migrations admitted (successfully enqueued) this tick.
    mig_admitted_tick: u64,
    /// Per-tick cap on admitted migrations (`None` = unlimited); set by a
    /// supervisor's admission controller.
    mig_admission_limit: Option<u64>,
    /// Migrations aborted this tick, with typed reasons (drained into the
    /// tick report).
    tick_failed: Vec<FailedMigration>,
    /// Cumulative engine accounting, reported as is by
    /// [`Machine::migration_counters`]; each tick's [`TxnTickStats`] is
    /// its difference across the tick.
    mig_counters: MigrationCounters,
    /// Per-channel pacing: when each DMA channel next has bandwidth budget
    /// (one channel in the exclusive mode).
    mig_channel_free: Vec<SimTime>,
    /// Channels with no pending `MigStart` pickup event.
    mig_channel_idle: Vec<bool>,
    // Transactional mode only.
    /// Validated transactions parked for the next batched shootdown.
    txn_commit_batch: Vec<u32>,
    /// A `TxnFlush` event is already scheduled.
    txn_flush_scheduled: bool,
    /// Runtime override of the shootdown batch size (supervisor lever).
    txn_batch_override: Option<u32>,
    /// Runtime override of the in-flight transaction cap (supervisor
    /// lever; default = channel count).
    txn_inflight_override: Option<u32>,
    // Fault injection (no-op unless cfg.faults configures something).
    faults: FaultInjector,
    // Telemetry.
    /// Per-tier `(count, sum_ns)` of memory-read latencies, the source of
    /// [`TickReport::true_latency_ns`].
    lat_sum: Vec<(u64, f64)>,
    /// Event sink (disabled by default: zero-cost, no behavioral effect).
    sink: telemetry::Sink,
    hint_fault_cost: SimTime,
    llc_hit_latency: SimTime,
}

impl Shared {
    fn tier_of(&self, vpn: Vpn) -> TierId {
        let t = self.placement[vpn as usize];
        debug_assert!(t != u8::MAX, "access to unmapped page {vpn}");
        TierId(t)
    }
}

/// Why [`Machine::enqueue_migration`] rejected a migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueError {
    /// The page is unmapped or already resident at the destination.
    Moot,
    /// The page is pinned and must never migrate.
    Pinned,
    /// The page is already queued or mid-copy: a second migration would
    /// race the first for the same frame.
    DuplicateInFlight,
    /// The destination tier has no free frames (counting in-flight
    /// reservations).
    DestinationFull,
    /// The per-tick admission limit is reached (supervisor throttle).
    EngineFrozen,
    /// The installed [`MigrationGate`] vetoed the migration (QoS/admission
    /// policy decision — the page itself is fine, don't retry blindly).
    Vetoed,
}

impl EnqueueError {
    /// Display name (snake_case, for telemetry and reports).
    pub fn name(self) -> &'static str {
        match self {
            EnqueueError::Moot => "moot",
            EnqueueError::Pinned => "pinned",
            EnqueueError::DuplicateInFlight => "duplicate_in_flight",
            EnqueueError::DestinationFull => "destination_full",
            EnqueueError::EngineFrozen => "engine_frozen",
            EnqueueError::Vetoed => "vetoed",
        }
    }
}

/// A pluggable admission policy on the migration stream (TierBPF-style):
/// every `enqueue_migration` that passes the machine's own checks is
/// offered to the gate, which may veto it ([`EnqueueError::Vetoed`]).
///
/// The gate sees only migrations that would otherwise be admitted, so a
/// veto is always a policy decision, never a capacity artifact. With no
/// gate installed (the default everywhere) the admission path is
/// byte-identical to the ungated machine.
pub trait MigrationGate {
    /// Admit (`true`) or veto (`false`) moving `vpn` from `src` to `dst`.
    fn admit(&mut self, vpn: Vpn, src: TierId, dst: TierId, now: SimTime) -> bool;

    /// Called at the start of every `run_tick` (rate-window rollover etc.).
    fn on_tick(&mut self, _now: SimTime) {}
}

/// Why an accepted migration aborted instead of completing. Every abort
/// is clean: the page is intact at its source and the destination
/// reservation has been released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// The engine was in an injected outage window.
    Outage,
    /// An injected transient in-flight failure.
    Transient,
    /// The copy transaction exhausted its dirty-retry budget: the page is
    /// write-hot and migrating it would only ping-pong.
    WriteConflict,
    /// The copy transaction hit the watchdog bound with no healthy channel
    /// left to fail over to.
    Watchdog,
}

impl AbortReason {
    /// Display name (snake_case, matching `telemetry::FailReason`).
    pub fn name(self) -> &'static str {
        self.fail_reason().name()
    }

    fn fail_reason(self) -> telemetry::FailReason {
        match self {
            AbortReason::Outage => telemetry::FailReason::Outage,
            AbortReason::Transient => telemetry::FailReason::Transient,
            AbortReason::WriteConflict => telemetry::FailReason::WriteConflict,
            AbortReason::Watchdog => telemetry::FailReason::Watchdog,
        }
    }
}

/// One migration that aborted this tick, with its typed reason. The page
/// stays at its source and the destination reservation has been released;
/// control software decides per reason whether (and how eagerly) to retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailedMigration {
    /// The page that stayed put.
    pub vpn: Vpn,
    /// The destination it never reached.
    pub dst: TierId,
    /// Why the copy aborted.
    pub reason: AbortReason,
}

/// Cumulative migration-engine accounting since machine construction.
/// [`Machine::check_invariants`] holds `in_flight()` to the live copy
/// jobs, and on the transactional mode `batched_pages` to `completed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationCounters {
    /// Migrations the engine accepted from the queue and began processing
    /// (including ones aborted immediately by an injected fault).
    pub started: u64,
    /// Migrations whose mapping flipped.
    pub completed: u64,
    /// Aborts from engine-outage windows.
    pub aborted_outage: u64,
    /// Aborts from injected transient failures.
    pub aborted_transient: u64,
    /// Transactions aborted at the dirty-retry cap.
    pub aborted_write_conflict: u64,
    /// Transactions aborted at the watchdog with no healthy channel.
    pub aborted_watchdog: u64,
    /// Copy passes restarted after a dirtied snapshot.
    pub dirty_retries: u64,
    /// Transactions moved to a healthy channel by the watchdog.
    pub failovers: u64,
    /// Batched TLB-shootdown flushes issued.
    pub commit_batches: u64,
    /// Transactions committed across all flushes.
    pub batched_pages: u64,
}

impl MigrationCounters {
    /// Total aborts across all reasons.
    pub fn aborted(&self) -> u64 {
        self.aborted_outage
            + self.aborted_transient
            + self.aborted_write_conflict
            + self.aborted_watchdog
    }

    /// Migrations started but neither completed nor aborted yet.
    pub fn in_flight(&self) -> u64 {
        self.started - self.completed - self.aborted()
    }
}

/// Per-tick engine deltas, reported in [`TickReport::txn`]: the change of
/// the matching [`MigrationCounters`] fields across the tick. The
/// exclusive mode sets only `begun` and `committed`; it never retries,
/// fails over, aborts at the watchdog or batches commits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnTickStats {
    /// Copies the engine began this tick.
    pub begun: u64,
    /// Transactions committed (mapping flipped) this tick.
    pub committed: u64,
    /// Transactions aborted at the dirty-retry cap this tick.
    pub aborted_write_conflict: u64,
    /// Transactions aborted at the watchdog this tick.
    pub aborted_watchdog: u64,
    /// Copy passes restarted after a dirtied snapshot this tick.
    pub dirty_retries: u64,
    /// Channel failovers this tick.
    pub failovers: u64,
    /// Batched shootdown flushes this tick.
    pub commit_batches: u64,
}

/// One disagreement between the machine's books and the state they
/// summarise, found by [`Machine::check_invariants`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// The page table maps `mapped` pages to `tier`; its books count `used`.
    Residency {
        tier: TierId,
        mapped: u64,
        used: u64,
    },
    /// The page table maps `mapped` pages; `placed` were placed.
    PagesLost { mapped: u64, placed: u64 },
    /// `tier` holds `held` reserved frames for `copies` queued or live
    /// copies bound there.
    Reservations {
        tier: TierId,
        held: u64,
        copies: u64,
    },
    /// Page `vpn` counts `count` pending migrations for `copies` queued or
    /// live copies.
    Pending { vpn: Vpn, count: u64, copies: u64 },
    /// The ledger has `begun` copies and `ended` (completed or aborted)
    /// ones, but `live` copy jobs run.
    Ledger { begun: u64, ended: u64, live: u64 },
    /// Transactional mode: `completed` commits, but `batched` pages went
    /// through a shootdown batch.
    Unbatched { completed: u64, batched: u64 },
    /// `tier` holds `frames` resident and reserved frames, over its
    /// configured capacity `cap`.
    OverCapacity { tier: TierId, frames: u64, cap: u64 },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use Violation::*;
        match *self {
            Residency { tier, mapped, used } => {
                write!(f, "{tier:?} maps {mapped} pages, its books say {used}")
            }
            PagesLost { mapped, placed } => write!(f, "{mapped} pages mapped, {placed} placed"),
            Reservations { tier, held, copies } => {
                write!(f, "{tier:?} reserves {held} frames for {copies} copies")
            }
            Pending { vpn, count, copies } => {
                write!(f, "page {vpn} counts {count} pending for {copies} copies")
            }
            Ledger { begun, ended, live } => {
                write!(f, "{begun} copies begun, {ended} ended, {live} live")
            }
            Unbatched { completed, batched } => {
                write!(f, "{completed} commits but {batched} batched")
            }
            OverCapacity { tier, frames, cap } => {
                write!(f, "{tier:?} holds {frames} frames, over its {cap}")
            }
        }
    }
}

/// Hardware counters and tracking data collected over one tick.
#[derive(Debug, Clone)]
pub struct TickReport {
    /// Tick start time.
    pub t_start: SimTime,
    /// Tick end time.
    pub t_end: SimTime,
    /// Per-tier CHA window (occupancy, arrivals, rate, per-class bytes).
    pub tiers: Vec<TierWindow>,
    /// PEBS samples captured this tick (drained).
    pub pebs: Vec<PebsSample>,
    /// Hint faults fired this tick (drained).
    pub faults: Vec<HintFault>,
    /// Application object accesses completed this tick.
    pub app_ops: u64,
    /// Bytes of pages copied by the migration engine this tick.
    pub migrated_bytes: u64,
    /// Pages still waiting in the migration queue at tick end.
    pub migration_backlog: usize,
    /// Mean wall-clock duration of page copies *completed* this tick, in
    /// ns, from engine start to mapping flip (`None` if no copy finished).
    /// The real-world analog is a tiering daemon timing its own
    /// `move_pages` calls: a healthy engine copies a page in roughly
    /// `PAGE_SIZE / migration_bandwidth`, so a large ratio between this
    /// and that expectation is direct, observable evidence of a
    /// migration-bandwidth collapse.
    pub mig_copy_ns: Option<f64>,
    /// Per-(src, dst)-tier-pair mean copy duration of page copies
    /// completed this tick, in ns: `(src, dst, mean_ns)` for every ordered
    /// pair that finished at least one copy. In an N-tier machine the
    /// links have different bandwidths, so a supervisor watching for a
    /// bandwidth collapse must compare each pair against its own
    /// expectation rather than a single global mean.
    pub mig_copy_pair_ns: Vec<(u8, u8, f64)>,
    /// Mean *measured per-request* read latency per tier this tick, in ns
    /// (ground truth for validating Little's-Law estimates); `None` if the
    /// tier was idle. Unlike [`TickReport::tiers`], never perturbed by
    /// fault injection.
    pub true_latency_ns: Vec<Option<f64>>,
    /// Faults injected during this tick (all-zero without a fault plan).
    pub fault_stats: FaultStats,
    /// Migrations aborted this tick, each with its typed reason; the page
    /// stays at its source and the destination reservation has been
    /// released. Tiering systems decide per reason whether to retry.
    pub failed_migrations: Vec<FailedMigration>,
    /// Migration-engine deltas for this tick (only `begun` and
    /// `committed` on the exclusive mode).
    pub txn: TxnTickStats,
    /// Pages force-evacuated by a tier-shrink hard fault this tick, with
    /// the tier each page landed in. Tiering systems must re-sync any
    /// per-page tier metadata with these moves, reading each page's tier
    /// from [`Machine::tier_of`]: a copy queued before the shrink can
    /// move an evacuated page again later in the same tick.
    pub evacuated: Vec<(Vpn, TierId)>,
}

impl TickReport {
    /// Tick duration.
    pub fn duration(&self) -> SimTime {
        self.t_end.saturating_sub(self.t_start)
    }

    /// Application throughput in operations per (simulated) second.
    pub fn app_ops_per_sec(&self) -> f64 {
        let s = self.duration().as_secs();
        if s > 0.0 {
            self.app_ops as f64 / s
        } else {
            0.0
        }
    }

    /// Little's-Law latency estimate for `tier`, if measurable.
    pub fn littles_latency_ns(&self, tier: TierId) -> Option<f64> {
        self.tiers[tier.index()].littles_latency_ns()
    }
}

/// The simulated tiered-memory machine.
pub struct Machine {
    cores: Vec<Core>,
    sh: Shared,
    now: SimTime,
    tick_app_ops: u64,
    tick_mig_bytes: u64,
    tick_copy_ns: f64,
    /// Per-(src, dst) copy-time accumulator: `(src, dst, total_ns, count)`.
    tick_pair_copy: Vec<(u8, u8, f64, u64)>,
    /// Demand+prefetch lines served this tick, per core per tier — the
    /// per-core traffic split a colocation runtime needs to weight tier
    /// latencies into per-tenant latency. Reset at each `run_tick`.
    tick_core_tier_lines: Vec<Vec<u64>>,
    /// Pluggable migration admission policy (none installed by default).
    mig_gate: Option<Rc<RefCell<dyn MigrationGate>>>,
    rng_streams: u64,
    metrics: MachineMetrics,
}

/// Registered live-metric handles (all detached until [`Machine::set_metrics`]
/// attaches an enabled hub). Recording is passive and read-only, exactly
/// like the event sink, so runs stay bit-identical with metrics on or off.
#[derive(Default)]
struct MachineMetrics {
    enabled: bool,
    /// Per-tier ground-truth loaded latency, one sample per tick.
    tier_latency: Vec<telemetry::HistogramHandle>,
    /// Per-page migration copy time (tick mean), one sample per tick with
    /// at least one completed copy.
    mig_copy_ns: telemetry::HistogramHandle,
    migrated_bytes: telemetry::Counter,
    txn_committed: telemetry::Counter,
    txn_aborted_write_conflict: telemetry::Counter,
    txn_aborted_watchdog: telemetry::Counter,
    txn_dirty_retries: telemetry::Counter,
    txn_failovers: telemetry::Counter,
}

impl Machine {
    /// Builds an empty machine (no cores yet) from a configuration.
    pub fn new(mut cfg: MachineConfig) -> Self {
        if let Err(e) = cfg.engine.validate() {
            panic!("invalid MigrationEngineConfig: {e}");
        }
        if let Some(ch) = cfg.faults.max_stalled_channel() {
            assert!(
                ch < cfg.engine.channels,
                "FaultPlan stalls channel {ch} but the engine has only {} channels",
                cfg.engine.channels
            );
        }
        // The exclusive mode has no validate step for a storm to dirty and
        // ignores channel stalls: its plan keeps only the faults it honours,
        // so `config().faults` says what this machine injects.
        if !cfg.engine.transactional {
            cfg.faults.write_conflict_storms.clear();
            cfg.faults.channel_stalls.clear();
        }
        let vp = cfg.virtual_pages as usize;
        let tiers = cfg
            .tiers
            .iter()
            .map(|t| TierHw {
                controller: MemoryController::new(t.dram.clone()),
                link: t.link.as_ref().map(Link::new),
                t_req: t.t_fixed / 2,
                t_rsp: t.t_fixed - t.t_fixed / 2,
            })
            .collect::<Vec<_>>();
        let n_tiers = tiers.len();
        let effective_capacity = cfg.tiers.iter().map(|t| t.capacity_pages()).collect();
        // The exclusive mode runs one channel, whatever `channels` says.
        let channels = if cfg.engine.transactional {
            cfg.engine.channels as usize
        } else {
            1
        };
        let sh = Shared {
            events: EventQueue::new(),
            tiers,
            cha: Cha::new(n_tiers),
            placement: vec![u8::MAX; vp],
            pinned: vec![false; vp],
            placed: 0,
            used_pages: vec![0; n_tiers],
            effective_capacity,
            marked: vec![false; vp],
            marked_at: vec![SimTime::ZERO; vp],
            pebs_counter: 0,
            pebs_period: cfg.pebs_period,
            pebs_buf: Vec::new(),
            fault_buf: Vec::new(),
            mig_queue: VecDeque::new(),
            mig_jobs: Vec::new(),
            mig_free_jobs: Vec::new(),
            mig_inflight_to: vec![0; n_tiers],
            mig_pending: vec![0; vp],
            mig_admitted_tick: 0,
            mig_admission_limit: None,
            tick_failed: Vec::new(),
            mig_counters: MigrationCounters::default(),
            mig_channel_free: vec![SimTime::ZERO; channels],
            mig_channel_idle: vec![true; channels],
            txn_commit_batch: Vec::new(),
            txn_flush_scheduled: false,
            txn_batch_override: None,
            txn_inflight_override: None,
            faults: FaultInjector::new(cfg.faults.clone(), cfg.seed, n_tiers),
            lat_sum: vec![(0, 0.0); n_tiers],
            sink: telemetry::Sink::default(),
            hint_fault_cost: cfg.hint_fault_cost,
            llc_hit_latency: cfg.llc_hit_latency,
            cfg,
        };
        Machine {
            cores: Vec::new(),
            sh,
            now: SimTime::ZERO,
            tick_app_ops: 0,
            tick_mig_bytes: 0,
            tick_copy_ns: 0.0,
            tick_pair_copy: Vec::new(),
            tick_core_tier_lines: Vec::new(),
            mig_gate: None,
            rng_streams: 0,
            metrics: MachineMetrics::default(),
        }
    }

    /// The machine configuration. On the exclusive mode its fault plan
    /// holds no write-conflict storms or channel stalls: the mode ignores
    /// both, so [`Machine::new`] drops them.
    pub fn config(&self) -> &MachineConfig {
        &self.sh.cfg
    }

    /// Attaches a telemetry sink. Recording is passive — it never mutates
    /// machine state or draws randomness — so attaching a sink does not
    /// change a run. The machine also refreshes the sink's shared clock at
    /// every tick boundary, so clock-less layers holding clones of the same
    /// sink stamp their events at quantum granularity.
    pub fn set_telemetry(&mut self, sink: telemetry::Sink) {
        self.sh.sink = sink;
    }

    /// The attached telemetry sink (disabled unless one was attached).
    pub fn telemetry(&self) -> &telemetry::Sink {
        &self.sh.sink
    }

    /// Attaches a live metrics hub and registers the machine's series:
    /// per-tier ground-truth latency histograms, the migration copy-time
    /// histogram, and migration/transaction counters. Like the sink,
    /// recording is passive — a hub never changes a run.
    pub fn set_metrics(&mut self, hub: telemetry::MetricsHub) {
        let mut tier_latency = Vec::with_capacity(self.sh.tiers.len());
        for i in 0..self.sh.tiers.len() {
            let tier = i.to_string();
            tier_latency
                .push(hub.histogram_with("memsim_tier_latency_ns", &[("tier", tier.as_str())]));
        }
        self.metrics = MachineMetrics {
            enabled: hub.enabled(),
            tier_latency,
            mig_copy_ns: hub.histogram("memsim_mig_copy_ns"),
            migrated_bytes: hub.counter("memsim_migrated_bytes_total"),
            txn_committed: hub.counter("memsim_txn_committed_total"),
            txn_aborted_write_conflict: hub
                .counter_with("memsim_txn_aborts_total", &[("reason", "write_conflict")]),
            txn_aborted_watchdog: hub
                .counter_with("memsim_txn_aborts_total", &[("reason", "watchdog")]),
            txn_dirty_retries: hub.counter("memsim_txn_dirty_retries_total"),
            txn_failovers: hub.counter("memsim_txn_failovers_total"),
        };
    }

    /// Records this tick's report into the registered metric series.
    fn record_tick_metrics(&self, r: &TickReport) {
        if !self.metrics.enabled {
            return;
        }
        for (h, l) in self.metrics.tier_latency.iter().zip(&r.true_latency_ns) {
            if let Some(ns) = l {
                h.record_ns(*ns);
            }
        }
        if let Some(copy_ns) = r.mig_copy_ns {
            self.metrics.mig_copy_ns.record_ns(copy_ns);
        }
        self.metrics.migrated_bytes.add(r.migrated_bytes);
        self.metrics.txn_committed.add(r.txn.committed);
        self.metrics
            .txn_aborted_write_conflict
            .add(r.txn.aborted_write_conflict);
        self.metrics
            .txn_aborted_watchdog
            .add(r.txn.aborted_watchdog);
        self.metrics.txn_dirty_retries.add(r.txn.dirty_retries);
        self.metrics.txn_failovers.add(r.txn.failovers);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Adds a core running `stream`; returns its id. Cores start active.
    pub fn add_core(
        &mut self,
        stream: Box<dyn AccessStream>,
        cfg: CoreConfig,
        class: TrafficClass,
    ) -> CoreId {
        let id = self.cores.len();
        let rng = seed_from(self.sh.cfg.seed, self.rng_streams);
        self.rng_streams += 1;
        self.cores.push(Core {
            demand_free: cfg.demand_slots,
            prefetch_free: cfg.prefetch_slots,
            cfg,
            class,
            stream,
            rng,
            active: true,
            cur: None,
            pending: None,
            live_objects: 0,
            objects: Vec::new(),
            free_objects: Vec::new(),
            think_until: SimTime::ZERO,
            wake_scheduled: false,
            ops_completed: 0,
        });
        self.tick_core_tier_lines.push(vec![0; self.sh.tiers.len()]);
        // Kick the core off at the current time.
        self.sh.events.push(self.now, Ev::CoreWake { core: id });
        self.cores[id].wake_scheduled = true;
        id
    }

    /// Activates or deactivates a core (used to change antagonist
    /// intensity mid-experiment). A deactivated core finishes its in-flight
    /// requests but issues no new ones.
    pub fn set_core_active(&mut self, core: CoreId, active: bool) {
        let was = self.cores[core].active;
        self.cores[core].active = active;
        if active && !was && !self.cores[core].wake_scheduled {
            self.sh.events.push(self.now, Ev::CoreWake { core });
            self.cores[core].wake_scheduled = true;
        }
    }

    /// Total object accesses completed by `core`.
    pub fn core_ops(&self, core: CoreId) -> u64 {
        self.cores[core].ops_completed
    }

    /// Demand/prefetch lines served from each tier, per core, during the
    /// most recent `run_tick` (valid until the next tick starts). Index as
    /// `[core][tier]`. A colocation runtime combines this split with the
    /// tick's per-tier latencies to estimate per-tenant latency.
    pub fn tick_core_tier_lines(&self) -> &[Vec<u64>] {
        &self.tick_core_tier_lines
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    // ---- Placement management -------------------------------------------

    /// Maps `vpn` to `tier` without generating traffic (initial placement).
    ///
    /// # Panics
    ///
    /// Panics if the tier is out of capacity or the page is already mapped.
    pub fn place(&mut self, vpn: Vpn, tier: TierId) {
        assert_eq!(self.sh.placement[vpn as usize], u8::MAX, "page remapped");
        assert!(
            self.sh.used_pages[tier.index()] < self.sh.effective_capacity[tier.index()],
            "tier {tier:?} out of capacity"
        );
        self.sh.placement[vpn as usize] = tier.0;
        self.sh.placed += 1;
        self.sh.used_pages[tier.index()] += 1;
    }

    /// Maps a contiguous range of pages to `tier`.
    pub fn place_range(&mut self, vpns: std::ops::Range<Vpn>, tier: TierId) {
        for vpn in vpns {
            self.place(vpn, tier);
        }
    }

    /// Pins `vpn` so that migrations of it are rejected.
    pub fn pin(&mut self, vpn: Vpn) {
        self.sh.pinned[vpn as usize] = true;
    }

    /// Tier currently holding `vpn` (`None` if unmapped).
    pub fn tier_of(&self, vpn: Vpn) -> Option<TierId> {
        let t = self.sh.placement[vpn as usize];
        if t == u8::MAX {
            None
        } else {
            Some(TierId(t))
        }
    }

    /// Pages currently mapped to `tier` (including in-flight migrations'
    /// reservations at the destination).
    pub fn used_pages(&self, tier: TierId) -> u64 {
        self.sh.used_pages[tier.index()] + self.sh.mig_inflight_to[tier.index()]
    }

    /// Free page frames in `tier`, accounting for in-flight migrations.
    pub fn free_pages(&self, tier: TierId) -> u64 {
        self.sh.effective_capacity[tier.index()].saturating_sub(self.used_pages(tier))
    }

    /// Currently usable frames in `tier`: the configured capacity, reduced
    /// by any tier-shrink hard faults that have already fired.
    pub fn capacity_pages(&self, tier: TierId) -> u64 {
        self.sh.effective_capacity[tier.index()]
    }

    /// Checks that this machine's placement can survive the configured
    /// hard-fault plan: every planned tier shrink must leave room for the
    /// tier's pinned pages, and the post-shrink machine must still hold
    /// every mapped page somewhere. Call after initial placement.
    pub fn validate_fault_feasibility(&self) -> Result<(), String> {
        let plan = self.sh.faults.plan();
        if plan.tier_shrinks.is_empty() {
            return Ok(());
        }
        let n_tiers = self.sh.tiers.len();
        let mut pinned_per_tier = vec![0u64; n_tiers];
        for (p, &pin) in self.sh.placement.iter().zip(self.sh.pinned.iter()) {
            if pin && *p != u8::MAX {
                pinned_per_tier[*p as usize] += 1;
            }
        }
        let mut final_cap: Vec<u64> = self.sh.effective_capacity.clone();
        for s in &plan.tier_shrinks {
            let i = s.tier.index();
            final_cap[i] = final_cap[i].min(s.new_frames);
            if pinned_per_tier[i] > s.new_frames {
                return Err(format!(
                    "tier {i} shrinks to {} frames at {:?} but {} pinned pages reside \
                     there; pin fewer pages or shrink less",
                    s.new_frames, s.at, pinned_per_tier[i]
                ));
            }
        }
        let mapped: u64 = self.sh.used_pages.iter().sum();
        let total: u64 = final_cap.iter().sum();
        if mapped > total {
            return Err(format!(
                "hard-fault plan leaves {total} total frames for {mapped} mapped pages; \
                 evacuation would have nowhere to put the overflow"
            ));
        }
        Ok(())
    }

    // ---- Access tracking hooks ------------------------------------------

    /// Sets the PEBS sampling period (one sample per `period` demand
    /// misses; 0 disables).
    pub fn set_pebs_period(&mut self, period: u64) {
        self.sh.pebs_period = period;
    }

    /// Marks `vpn` for hint-fault tracking (TPP page-table scan).
    pub fn mark_page(&mut self, vpn: Vpn) {
        self.sh.marked[vpn as usize] = true;
        self.sh.marked_at[vpn as usize] = self.now;
    }

    /// Whether `vpn` is currently marked.
    pub fn is_marked(&self, vpn: Vpn) -> bool {
        self.sh.marked[vpn as usize]
    }

    // ---- Migration -------------------------------------------------------

    /// Enqueues a page migration to `dst`. Rejects (and does nothing) with
    /// a typed [`EnqueueError`] if the page is unmapped, pinned, already at
    /// `dst`, already in flight, `dst` has no free frames left, or the
    /// per-tick admission limit is reached.
    pub fn enqueue_migration(&mut self, vpn: Vpn, dst: TierId) -> Result<(), EnqueueError> {
        let cur = self.sh.placement[vpn as usize];
        if cur == u8::MAX || cur == dst.0 {
            return Err(EnqueueError::Moot);
        }
        if self.sh.pinned[vpn as usize] {
            return Err(EnqueueError::Pinned);
        }
        // Only the transactional mode rejects duplicates up front. The
        // exclusive mode admits them, reserving a second frame; the stale
        // entry drops at dequeue revalidation, or runs as a second copy if
        // the first is still landing. Golden outputs pin that behaviour.
        if self.sh.cfg.engine.transactional && self.sh.mig_pending[vpn as usize] > 0 {
            return Err(EnqueueError::DuplicateInFlight);
        }
        if self.free_pages(dst) == 0 {
            return Err(EnqueueError::DestinationFull);
        }
        if let Some(limit) = self.sh.mig_admission_limit {
            if self.sh.mig_admitted_tick >= limit {
                return Err(EnqueueError::EngineFrozen);
            }
        }
        if let Some(gate) = &self.mig_gate {
            if !gate.borrow_mut().admit(vpn, TierId(cur), dst, self.now) {
                return Err(EnqueueError::Vetoed);
            }
        }
        self.sh.mig_admitted_tick += 1;
        // Reserve the destination frame now so capacity cannot oversubscribe.
        self.sh.mig_inflight_to[dst.index()] += 1;
        self.sh.mig_pending[vpn as usize] += 1;
        self.sh
            .mig_queue
            .push_back((vpn, dst, self.sh.sink.cause()));
        self.mig_kick(self.now);
        Ok(())
    }

    /// Pages waiting in the migration queue.
    pub fn migration_backlog(&self) -> usize {
        self.sh.mig_queue.len()
    }

    /// Caps the number of migrations admitted per tick (`None` lifts the
    /// cap). The counter resets at each `run_tick`; with `Some(0)` every
    /// `enqueue_migration` is rejected. Admission control is a supervisor
    /// lever: the machine itself never sets a limit.
    pub fn set_migration_admission_limit(&mut self, limit: Option<u64>) {
        self.sh.mig_admission_limit = limit;
    }

    /// The current per-tick migration admission limit.
    pub fn migration_admission_limit(&self) -> Option<u64> {
        self.sh.mig_admission_limit
    }

    /// Installs (or removes) a [`MigrationGate`]. The gate is shared via
    /// `Rc<RefCell<..>>` so the policy layer that installed it (e.g. a QoS
    /// arbiter) keeps a handle to its own state.
    pub fn set_migration_gate(&mut self, gate: Option<Rc<RefCell<dyn MigrationGate>>>) {
        self.mig_gate = gate;
    }

    /// Total pages migrated since construction.
    pub fn migrated_pages(&self) -> u64 {
        self.sh.mig_counters.completed
    }

    /// Cumulative migration-engine accounting.
    pub fn migration_counters(&self) -> MigrationCounters {
        self.sh.mig_counters
    }

    /// Overrides the transactional mode's shootdown batch size at runtime
    /// (`None` restores the configured value; clamped to ≥ 1). A
    /// supervisor lever: smaller batches commit sooner under churn, larger
    /// ones amortize shootdown cost. The exclusive mode ignores it: it
    /// flips each mapping as the copy's last line lands, with no flush.
    pub fn set_shootdown_batch(&mut self, batch: Option<u32>) {
        self.sh.txn_batch_override = batch.map(|b| b.max(1));
    }

    /// Overrides the transactional mode's in-flight transaction cap at
    /// runtime (`None` restores the default — the channel count; clamped
    /// to `1..=channels`). The exclusive mode ignores it: it has no
    /// in-flight cap, so a copy may start while the previous one is still
    /// landing.
    pub fn set_max_inflight_txns(&mut self, limit: Option<u32>) {
        let ch = self.sh.cfg.engine.channels;
        self.sh.txn_inflight_override = limit.map(|l| l.clamp(1, ch));
    }

    /// Effective `(shootdown_batch, max_inflight_txns)` after overrides.
    pub fn engine_tuning(&self) -> (u32, u32) {
        (self.txn_batch_limit(), self.txn_inflight_limit())
    }

    fn txn_batch_limit(&self) -> u32 {
        self.sh
            .txn_batch_override
            .unwrap_or(self.sh.cfg.engine.shootdown_batch)
            .max(1)
    }

    fn txn_inflight_limit(&self) -> u32 {
        let ch = self.sh.cfg.engine.channels;
        self.sh.txn_inflight_override.unwrap_or(ch).clamp(1, ch)
    }

    // ---- Invariants ---------------------------------------------------------

    /// Checks the machine's books against the state they summarise and
    /// returns every disagreement (empty = consistent). These hold between
    /// any two ticks:
    ///
    /// - per tier, the pages the page table maps there equal the tier's
    ///   used frames, and all mapped pages equal the pages placed;
    /// - per tier, the reserved frames equal the queued migrations and
    ///   live copy jobs bound there, and per page the pending count equals
    ///   its queued migrations and live copy jobs;
    /// - the ledger's copies in flight equal the live copy jobs, and on the
    ///   transactional mode every commit went through a shootdown batch;
    /// - per tier, resident plus reserved frames stay within the configured
    ///   capacity (a shrunk tier may hold more than its shrunk capacity
    ///   until its evacuation completes).
    ///
    /// Debug builds run it after every [`Machine::run_tick`] and panic on
    /// a violation.
    pub fn check_invariants(&self) -> Vec<Violation> {
        let sh = &self.sh;
        let mut found = Vec::new();
        let mut per_tier = vec![0u64; sh.tiers.len()];
        for &t in sh.placement.iter().filter(|&&t| t != u8::MAX) {
            per_tier[t as usize] += 1;
        }
        // Every queued migration and live copy job holds one frame at its
        // destination and one pending count on its page.
        let live: Vec<&MigJob> = sh.mig_jobs.iter().filter(|j| j.live).collect();
        let mut bound = vec![0u64; sh.tiers.len()];
        let mut per_page = vec![0u64; sh.mig_pending.len()];
        let queued = sh.mig_queue.iter().map(|&(vpn, dst, _)| (vpn, dst));
        for (vpn, dst) in queued.chain(live.iter().map(|j| (j.vpn, j.dst))) {
            bound[dst.index()] += 1;
            per_page[vpn as usize] += 1;
        }
        for (i, tier_cfg) in sh.cfg.tiers.iter().enumerate() {
            let tier = TierId(i as u8);
            let (mapped, used) = (per_tier[i], sh.used_pages[i]);
            if mapped != used {
                found.push(Violation::Residency { tier, mapped, used });
            }
            let (held, copies) = (sh.mig_inflight_to[i], bound[i]);
            if held != copies {
                found.push(Violation::Reservations { tier, held, copies });
            }
            let (frames, cap) = (used + held, tier_cfg.capacity_pages());
            if frames > cap {
                found.push(Violation::OverCapacity { tier, frames, cap });
            }
        }
        let (mapped, placed) = (per_tier.iter().sum(), sh.placed);
        if mapped != placed {
            found.push(Violation::PagesLost { mapped, placed });
        }
        for (vpn, (&count, &copies)) in sh.mig_pending.iter().zip(&per_page).enumerate() {
            let (vpn, count) = (vpn as Vpn, u64::from(count));
            if count != copies {
                found.push(Violation::Pending { vpn, count, copies });
            }
        }
        let c = sh.mig_counters;
        let (begun, ended, live) = (c.started, c.completed + c.aborted(), live.len() as u64);
        if begun != ended + live {
            found.push(Violation::Ledger { begun, ended, live });
        }
        let (completed, batched) = (c.completed, c.batched_pages);
        if sh.cfg.engine.transactional && batched != completed {
            found.push(Violation::Unbatched { completed, batched });
        }
        found
    }

    // ---- Simulation loop --------------------------------------------------

    /// Runs the machine for `dur` of simulated time and reports what the
    /// hardware observed.
    pub fn run_tick(&mut self, dur: SimTime) -> TickReport {
        let _prof = simkit::profile::scope("machine.run_tick");
        let t_start = self.now;
        let t_end = t_start + dur;
        let tick_span =
            self.sh
                .sink
                .span_enter_at(t_start, telemetry::Source::Machine, "machine.tick");
        let n_tiers = self.sh.tiers.len();
        let snap_before: Vec<ChaCounters> = {
            let _prof = simkit::profile::scope("machine.cha_sample");
            (0..n_tiers)
                .map(|i| self.sh.cha.snapshot(TierId(i as u8), t_start))
                .collect()
        };
        let lat_before: Vec<(u64, f64)> = self
            .sh
            .lat_sum
            .iter()
            .map(|&(n, sum)| (n, mean_times_count(n, sum)))
            .collect();
        let books = self.sh.mig_counters;
        self.tick_app_ops = 0;
        self.tick_mig_bytes = 0;
        self.tick_copy_ns = 0.0;
        self.tick_pair_copy.clear();
        self.sh.mig_admitted_tick = 0;
        for row in &mut self.tick_core_tier_lines {
            row.iter_mut().for_each(|c| *c = 0);
        }
        if let Some(gate) = &self.mig_gate {
            gate.borrow_mut().on_tick(t_start);
        }

        // Hard faults fire at tick boundaries: apply due tier shrinks, then
        // evacuate any tier left over its (new) capacity. The sweep re-runs
        // every tick while shrinks are configured, so pages deferred one
        // tick (mid-copy, or no free frames anywhere) leave on a later one.
        let evacuated = if self.sh.faults.plan().tier_shrinks.is_empty() {
            Vec::new()
        } else {
            for s in self.sh.faults.due_shrinks(t_start) {
                let i = s.tier.index();
                let cap = &mut self.sh.effective_capacity[i];
                *cap = (*cap).min(s.new_frames);
            }
            self.evacuate_over_capacity()
        };
        if !evacuated.is_empty() {
            self.sh
                .sink
                .emit_at(t_start, telemetry::Source::Machine, || {
                    telemetry::EventKind::TierEvacuation {
                        pages: evacuated.len() as u64,
                    }
                });
        }

        {
            let _prof = simkit::profile::scope("machine.event_loop");
            while let Some(t) = self.sh.events.peek_time() {
                if t > t_end {
                    break;
                }
                let (t, ev) = self.sh.events.pop().expect("peeked event");
                self.now = t;
                self.dispatch(t, ev);
            }
        }
        self.now = t_end;

        let tiers: Vec<TierWindow> = {
            let _prof = simkit::profile::scope("machine.cha_sample");
            (0..n_tiers)
                .map(|i| {
                    let after = self.sh.cha.snapshot(TierId(i as u8), t_end);
                    Cha::window(&snap_before[i], &after, t_start, t_end)
                })
                .collect()
        };
        // Counter faults perturb only what the control software sees; the
        // CHA's internal counters (and true_latency_ns below) stay exact.
        let tiers = self.sh.faults.perturb_windows(tiers);
        let true_latency_ns = self
            .sh
            .lat_sum
            .iter()
            .zip(lat_before.iter())
            .map(|(&(n, sum), (n0, sum0))| {
                let dn = n - n0;
                if dn == 0 {
                    None
                } else {
                    Some((mean_times_count(n, sum) - sum0) / dn as f64)
                }
            })
            .collect();

        let fault_stats = self.sh.faults.take_tick();
        let failed_migrations = std::mem::take(&mut self.sh.tick_failed);
        // Advance the shared telemetry clock so downstream layers (which
        // run between ticks and hold no clock of their own) stamp events
        // at this tick's end time.
        self.sh.sink.set_now(t_end);
        if fault_stats.total() > 0 {
            self.sh.sink.emit_at(t_end, telemetry::Source::Machine, || {
                telemetry::EventKind::FaultsInjected {
                    noisy: fault_stats.windows_noisy,
                    stale: fault_stats.windows_stale,
                    dropped: fault_stats.windows_dropped,
                    migration_failures: fault_stats.migration_failures,
                    pebs_dropped: fault_stats.pebs_dropped,
                    evacuated: fault_stats.pages_evacuated,
                    outage_aborts: fault_stats.engine_outage_aborts,
                    storm_dirties: fault_stats.storm_dirties,
                }
            });
        }
        self.sh.sink.span_exit_at(t_end, tick_span);
        let c = self.sh.mig_counters;
        let txn = TxnTickStats {
            begun: c.started - books.started,
            committed: c.completed - books.completed,
            aborted_write_conflict: c.aborted_write_conflict - books.aborted_write_conflict,
            aborted_watchdog: c.aborted_watchdog - books.aborted_watchdog,
            dirty_retries: c.dirty_retries - books.dirty_retries,
            failovers: c.failovers - books.failovers,
            commit_batches: c.commit_batches - books.commit_batches,
        };
        let report = TickReport {
            t_start,
            t_end,
            tiers,
            pebs: std::mem::take(&mut self.sh.pebs_buf),
            faults: std::mem::take(&mut self.sh.fault_buf),
            app_ops: self.tick_app_ops,
            migrated_bytes: self.tick_mig_bytes,
            migration_backlog: self.sh.mig_queue.len(),
            mig_copy_ns: (txn.committed > 0).then(|| self.tick_copy_ns / txn.committed as f64),
            mig_copy_pair_ns: self
                .tick_pair_copy
                .iter()
                .map(|&(s, d, total, n)| (s, d, total / n as f64))
                .collect(),
            true_latency_ns,
            fault_stats,
            failed_migrations,
            txn,
            evacuated,
        };
        self.record_tick_metrics(&report);
        #[cfg(debug_assertions)]
        {
            let found = self.check_invariants();
            assert!(found.is_empty(), "machine invariants broken: {found:?}");
        }
        report
    }

    /// Force-moves pages out of any tier holding more than its effective
    /// capacity (after a shrink), hardware memory-failure style: the page
    /// teleports to the first other tier with a free frame, synchronously
    /// and without generating interconnect traffic. Pinned pages never
    /// move; pages mid-copy in the migration engine are skipped until the
    /// copy retires (their accounting flips at the commit: in
    /// `mig_line_done` on the exclusive mode, in `txn_flush` on the
    /// transactional one).
    fn evacuate_over_capacity(&mut self) -> Vec<(Vpn, TierId)> {
        let n_tiers = self.sh.tiers.len();
        let mut out = Vec::new();
        let busy: Vec<Vpn> = self
            .sh
            .mig_jobs
            .iter()
            .filter(|j| j.live)
            .map(|j| j.vpn)
            .collect();
        for i in 0..n_tiers {
            let cap = self.sh.effective_capacity[i];
            let occupied = self.sh.used_pages[i] + self.sh.mig_inflight_to[i];
            if occupied <= cap {
                continue;
            }
            let mut excess = occupied - cap;
            let before = out.len();
            for vpn in 0..self.sh.placement.len() as u64 {
                if excess == 0 {
                    break;
                }
                if self.sh.placement[vpn as usize] != i as u8
                    || self.sh.pinned[vpn as usize]
                    || busy.contains(&vpn)
                {
                    continue;
                }
                let Some(dst) = (0..n_tiers)
                    .map(|d| TierId(d as u8))
                    .find(|&d| d.index() != i && self.free_pages(d) > 0)
                else {
                    break; // nowhere to go: defer to a later tick
                };
                self.sh.placement[vpn as usize] = dst.0;
                self.sh.used_pages[i] -= 1;
                self.sh.used_pages[dst.index()] += 1;
                out.push((vpn, dst));
                excess -= 1;
            }
            self.sh.faults.note_evacuated((out.len() - before) as u64);
        }
        out
    }

    fn dispatch(&mut self, t: SimTime, ev: Ev) {
        match ev {
            Ev::LineDone {
                core,
                obj,
                demand,
                tier,
            } => {
                if let Some(tier) = tier {
                    self.sh.cha.on_read_departure(tier, t);
                    self.tick_core_tier_lines[core][tier.index()] += 1;
                }
                let c = &mut self.cores[core];
                if demand {
                    c.demand_free += 1;
                } else {
                    c.prefetch_free += 1;
                }
                let st = &mut c.objects[obj as usize];
                st.lines_done += 1;
                if st.lines_done == st.lines_total {
                    let (vaddr, lines, is_write) = (st.vaddr, st.lines_total, st.is_write);
                    let class = c.class;
                    c.ops_completed += 1;
                    if class == TrafficClass::App {
                        self.tick_app_ops += 1;
                    }
                    c.free_object(obj);
                    if is_write {
                        // Dirty lines leave the cache a little later.
                        self.sh.events.push(
                            t + SimTime::from_ns(40.0),
                            Ev::Writeback {
                                vaddr,
                                lines,
                                class,
                            },
                        );
                    }
                }
                Self::try_issue(&mut self.cores[core], &mut self.sh, core, t);
            }
            Ev::CoreWake { core } => {
                self.cores[core].wake_scheduled = false;
                Self::try_issue(&mut self.cores[core], &mut self.sh, core, t);
            }
            Ev::Writeback {
                vaddr,
                lines,
                class,
            } => {
                for i in 0..lines as u64 {
                    let line_addr = vaddr / LINE_SIZE + i;
                    let vpn = line_addr * LINE_SIZE / PAGE_SIZE;
                    let tier = self.sh.tier_of(vpn);
                    self.sh.cha.on_write(tier, class);
                    self.sh.tiers[tier.index()].write(t, line_addr);
                    // A write to a page mid-copy invalidates the
                    // transaction's snapshot (Nomad-style non-exclusive
                    // copy: the app keeps writing the source unhindered).
                    if self.sh.cfg.engine.transactional && self.sh.mig_pending[vpn as usize] > 0 {
                        self.txn_note_write(vpn);
                    }
                }
            }
            Ev::MigStart { ch } => {
                self.mig_start(t, ch);
            }
            Ev::MigRead { job, epoch } => {
                self.mig_read(t, job, epoch);
            }
            Ev::MigLineDone { job, src, epoch } => {
                // The DMA read completed and leaves the source queue even
                // if the pass it belonged to has been abandoned.
                self.sh.cha.on_read_departure(src, t);
                self.mig_line_done(t, job, epoch);
            }
            Ev::TxnRetry { job, epoch } => {
                self.txn_retry(t, job, epoch);
            }
            Ev::TxnWatchdog { job, epoch } => {
                self.txn_watchdog(t, job, epoch);
            }
            Ev::TxnFlush => {
                self.txn_flush(t);
            }
            Ev::ChaDepart { tier } => {
                self.sh.cha.on_read_departure(tier, t);
            }
        }
    }

    // ---- Core issue path ---------------------------------------------------

    /// Issues as many cache-line requests as slots and dependences allow.
    fn try_issue(core: &mut Core, sh: &mut Shared, core_id: CoreId, t: SimTime) {
        loop {
            // Respect think time between objects.
            if t < core.think_until {
                if !core.wake_scheduled {
                    sh.events
                        .push(core.think_until, Ev::CoreWake { core: core_id });
                    core.wake_scheduled = true;
                }
                return;
            }
            // Ensure there is a current object to issue from.
            if core.cur.is_none() {
                let acc = if let Some(p) = core.pending.take() {
                    p
                } else {
                    if !core.active {
                        return;
                    }
                    core.stream.next(t, &mut core.rng)
                };
                if acc.dependent && core.live_objects > 0 {
                    // Pointer chase: wait for in-flight work to finish.
                    core.pending = Some(acc);
                    return;
                }
                let idx = core.alloc_object(&acc);
                core.cur = Some(idx);
            }
            let idx = core.cur.expect("current object");
            let st = core.objects[idx as usize];
            // Issue remaining lines: the first line is a demand miss, the
            // rest ride the prefetcher.
            let mut i = st.lines_issued;
            while i < st.lines_total {
                let demand = i == 0;
                if demand && core.demand_free == 0 {
                    core.objects[idx as usize].lines_issued = i;
                    return;
                }
                if !demand && core.prefetch_free == 0 {
                    core.objects[idx as usize].lines_issued = i;
                    return;
                }
                let line_addr = st.vaddr / LINE_SIZE + i as u64;
                Self::issue_line(
                    core,
                    sh,
                    core_id,
                    t,
                    line_addr,
                    demand,
                    idx,
                    st.llc_hit_prob,
                );
                i += 1;
            }
            core.objects[idx as usize].lines_issued = i;
            core.cur = None;
            if !core.cfg.think_time.is_zero() {
                core.think_until = t + core.cfg.think_time;
            }
        }
    }

    /// Issues one cache-line read and schedules its completion.
    #[allow(clippy::too_many_arguments)]
    fn issue_line(
        core: &mut Core,
        sh: &mut Shared,
        core_id: CoreId,
        t: SimTime,
        line_addr: u64,
        demand: bool,
        obj: u32,
        llc_hit_prob: f32,
    ) {
        if demand {
            core.demand_free -= 1;
        } else {
            core.prefetch_free -= 1;
        }

        // LLC hit: never reaches memory.
        if llc_hit_prob > 0.0 && core.rng.gen::<f32>() < llc_hit_prob {
            sh.events.push(
                t + sh.llc_hit_latency,
                Ev::LineDone {
                    core: core_id,
                    obj,
                    demand,
                    tier: None,
                },
            );
            return;
        }

        let vpn = line_addr * LINE_SIZE / PAGE_SIZE;
        let tier = sh.tier_of(vpn);

        // Hint fault (TPP): demand access to a marked page traps.
        let mut fault_cost = SimTime::ZERO;
        if demand && sh.marked[vpn as usize] {
            sh.marked[vpn as usize] = false;
            sh.fault_buf.push(HintFault {
                vpn,
                time_to_fault_ns: t.saturating_sub(sh.marked_at[vpn as usize]).as_ns(),
                tier,
            });
            fault_cost = sh.hint_fault_cost;
        }

        // PEBS sampling of application demand misses.
        if demand && core.class == TrafficClass::App && sh.pebs_period > 0 {
            sh.pebs_counter += 1;
            if sh.pebs_counter.is_multiple_of(sh.pebs_period) && !sh.faults.pebs_sample_lost() {
                sh.pebs_buf.push(PebsSample {
                    vpn,
                    is_write: core.objects[obj as usize].is_write,
                    tier,
                });
            }
        }

        sh.cha.on_read_arrival(tier, t, core.class);
        let mem_done = sh.tiers[tier.index()].read(t, line_addr);
        let lat = &mut sh.lat_sum[tier.index()];
        lat.0 += 1;
        lat.1 += mem_done.saturating_sub(t).as_ns();
        if fault_cost.is_zero() {
            sh.events.push(
                mem_done,
                Ev::LineDone {
                    core: core_id,
                    obj,
                    demand,
                    tier: Some(tier),
                },
            );
        } else {
            // The kernel's fault handler runs on the CPU side: the CHA sees
            // the memory read complete at `mem_done`, while the core's slot
            // is held until the handler returns.
            sh.events.push(mem_done, Ev::ChaDepart { tier });
            sh.events.push(
                mem_done + fault_cost,
                Ev::LineDone {
                    core: core_id,
                    obj,
                    demand,
                    tier: None,
                },
            );
        }
    }

    // ---- Migration engine ---------------------------------------------------
    //
    // One copy pipeline, two modes. DMA channels pick queued pages up
    // (`mig_start`), each channel paced at the migration bandwidth; a copy
    // pass reads the page line by line (`mig_read`) and writes each line to
    // the destination as it returns (`mig_line_done`).
    //
    // The exclusive mode runs one channel with no in-flight cap. It arms no
    // watchdog, ignores channel stalls and write storms (`Machine::new`
    // drops both from its plan), marks nothing dirty, and flips the mapping
    // inside the event that lands the page's last line: no validation, no
    // flush, no commit batch.
    //
    // The transactional mode runs up to `channels` concurrent copy
    // *transactions*: snapshot-copy → validate → batched-shootdown commit.
    // The source page stays readable and writable throughout; a write to an
    // in-flight page dirties the transaction, which backs off exponentially
    // and re-copies up to `dirty_retry_max` times before aborting cleanly
    // with `AbortReason::WriteConflict`. A watchdog bounds every pass; stuck
    // passes fail over to a healthy channel or abort with
    // `AbortReason::Watchdog`. Validated transactions commit in batches
    // under one TLB shootdown.

    /// One page's copy time on one channel at `t`: the configured
    /// migration bandwidth, degraded by any active fault phase.
    fn page_time(&self, t: SimTime) -> SimTime {
        let bw = self
            .sh
            .faults
            .migration_bandwidth_at(self.sh.cfg.migration_bandwidth, t);
        SimTime::from_ns(PAGE_SIZE as f64 / bw * 1e9)
    }

    /// Schedules pickup events on idle channels while queued pages remain.
    fn mig_kick(&mut self, now: SimTime) {
        let mut want = self.sh.mig_queue.len();
        for ch in 0..self.sh.mig_channel_idle.len() {
            if want == 0 {
                break;
            }
            if self.sh.mig_channel_idle[ch] {
                self.sh.mig_channel_idle[ch] = false;
                let t = now.max(self.sh.mig_channel_free[ch]);
                self.sh.events.push(t, Ev::MigStart { ch: ch as u32 });
                want -= 1;
            }
        }
    }

    /// Channel `ch` tries to pick up the next queued migration.
    fn mig_start(&mut self, t: SimTime, ch: u32) {
        let _prof = simkit::profile::scope("machine.mig_engine");
        let txn = self.sh.cfg.engine.transactional;
        // A stalled channel takes nothing until its stall lifts.
        if let Some(end) = self.sh.faults.channel_stalled_until(ch, t) {
            self.sh.events.push(end, Ev::MigStart { ch });
            return;
        }
        if txn && self.txn_live() >= self.txn_inflight_limit() as usize {
            // At the in-flight cap: go idle; retiring a transaction re-kicks.
            self.sh.mig_channel_idle[ch as usize] = true;
            return;
        }
        let Some((vpn, dst, cause)) = self.sh.mig_queue.pop_front() else {
            self.sh.mig_channel_idle[ch as usize] = true;
            return;
        };
        // Re-validate: the page may have been migrated or unmapped since.
        let src = self.sh.placement[vpn as usize];
        if src == u8::MAX || src == dst.0 {
            self.sh.mig_inflight_to[dst.index()] -= 1;
            self.sh.mig_pending[vpn as usize] -= 1;
            // Try the next queued page immediately.
            self.sh.events.push(t, Ev::MigStart { ch });
            return;
        }
        self.sh.mig_counters.started += 1;
        // Engine outage (hard fault): the copy thread is wedged — the
        // migration aborts *and still burns the channel's time budget*, so
        // a backlog builds up exactly as it would behind a hung kthread.
        if self.sh.faults.outage_aborts(t) {
            self.record_abort(t, vpn, dst, AbortReason::Outage);
            let free = t + self.page_time(t);
            self.sh.mig_channel_free[ch as usize] = free;
            self.sh.events.push(free, Ev::MigStart { ch });
            return;
        }
        // Transient migration failure: the copy aborts before touching the
        // DMA engine. The reserved destination frame is released and the
        // failure is surfaced in the next TickReport so control software can
        // retry.
        if self.sh.faults.migration_aborts() {
            self.record_abort(t, vpn, dst, AbortReason::Transient);
            self.sh.events.push(t, Ev::MigStart { ch });
            return;
        }
        self.sh.sink.emit_at(t, telemetry::Source::Machine, || {
            telemetry::EventKind::MigrationStart {
                vpn,
                src,
                dst: dst.0,
            }
        });
        // One async span per copy: it outlives this tick if the copy does,
        // and carries the decision span captured at enqueue as its cause.
        let span = self.sh.sink.span_open_at(
            t,
            telemetry::Source::Machine,
            "migration",
            telemetry::SpanPayload::Migration {
                vpn,
                src,
                dst: dst.0,
            },
            cause,
        );
        let id = self.alloc_job(MigJob {
            vpn,
            dst,
            lines_read: 0,
            lines_done: 0,
            live: true,
            started: t,
            span,
            channel: ch,
            attempt: 1,
            dirty: false,
            committing: false,
            failovers: 0,
            epoch: 0,
        });
        let epoch = self.sh.mig_jobs[id as usize].epoch;
        // Pace this channel at the migration bandwidth; other channels copy
        // concurrently (aggregate engine bandwidth scales with the channel
        // count).
        let free = t + self.page_time(t);
        self.sh.mig_channel_free[ch as usize] = free;
        self.sh.events.push(t, Ev::MigRead { job: id, epoch });
        if txn {
            self.sh.events.push(
                t + self.sh.cfg.engine.watchdog,
                Ev::TxnWatchdog { job: id, epoch },
            );
        }
        // The channel picks up its next page when it has bandwidth budget
        // again, even while this copy's lines are still landing.
        self.sh.events.push(free, Ev::MigStart { ch });
    }

    /// Issues the next read of a copy pass.
    fn mig_read(&mut self, t: SimTime, job_id: u32, epoch: u32) {
        let job = self.sh.mig_jobs[job_id as usize];
        if !job.live || job.epoch != epoch || job.committing {
            return; // abandoned pass
        }
        // A stall freezes the channel mid-pass: reads defer to the stall's
        // end (the watchdog rescues the transaction before then).
        if let Some(end) = self.sh.faults.channel_stalled_until(job.channel, t) {
            self.sh.events.push(end, Ev::MigRead { job: job_id, epoch });
            return;
        }
        let src = self.sh.tier_of(job.vpn);
        let line_addr = job.vpn * LINES_PER_PAGE + job.lines_read as u64;
        self.sh.cha.on_read_arrival(src, t, TrafficClass::Migration);
        let done = self.sh.tiers[src.index()].read(t, line_addr);
        self.sh.events.push(
            done,
            Ev::MigLineDone {
                job: job_id,
                src,
                epoch,
            },
        );
        let j = &mut self.sh.mig_jobs[job_id as usize];
        j.lines_read += 1;
        if (j.lines_read as u64) < LINES_PER_PAGE {
            // Space the pass's reads evenly across the page's time budget.
            let spacing = self.page_time(t) / LINES_PER_PAGE;
            self.sh
                .events
                .push(t + spacing, Ev::MigRead { job: job_id, epoch });
        }
    }

    /// A copy read returned: write the line out. At page end the
    /// exclusive mode commits at once; the transactional mode validates.
    fn mig_line_done(&mut self, t: SimTime, job_id: u32, epoch: u32) {
        let _prof = simkit::profile::scope("machine.mig_engine");
        let job = self.sh.mig_jobs[job_id as usize];
        if !job.live || job.epoch != epoch {
            return; // the pass was abandoned while this read was in flight
        }
        let line_addr = job.vpn * LINES_PER_PAGE + job.lines_done as u64;
        self.sh.cha.on_write(job.dst, TrafficClass::Migration);
        self.sh.tiers[job.dst.index()].write(t, line_addr);
        self.tick_mig_bytes += LINE_SIZE;
        let j = &mut self.sh.mig_jobs[job_id as usize];
        j.lines_done += 1;
        if (j.lines_done as u64) < LINES_PER_PAGE {
            return;
        }
        if self.sh.cfg.engine.transactional {
            self.txn_validate(t, job_id);
        } else {
            self.commit_job(t, job_id);
        }
    }

    /// Flips the mapping of a fully copied job and retires it: as the last
    /// line lands in the exclusive mode, from the commit flush in the
    /// transactional one.
    fn commit_job(&mut self, t: SimTime, job_id: u32) {
        let job = self.sh.mig_jobs[job_id as usize];
        let src = self.sh.tier_of(job.vpn);
        self.sh.placement[job.vpn as usize] = job.dst.0;
        self.sh.used_pages[src.index()] -= 1;
        self.sh.used_pages[job.dst.index()] += 1;
        self.sh.mig_inflight_to[job.dst.index()] -= 1;
        self.sh.mig_pending[job.vpn as usize] -= 1;
        self.sh.mig_counters.completed += 1;
        let copy_ns = t.saturating_sub(job.started).as_ns();
        self.tick_copy_ns += copy_ns;
        // Per-(src, dst)-pair copy-time accumulation: a multi-tier
        // supervisor needs to see which link is slow, not just that
        // some copy somewhere was.
        let pair = (src.0, job.dst.0);
        match self.tick_pair_copy.iter_mut().find(|e| (e.0, e.1) == pair) {
            Some(e) => {
                e.2 += copy_ns;
                e.3 += 1;
            }
            None => self.tick_pair_copy.push((pair.0, pair.1, copy_ns, 1)),
        }
        self.sh.sink.emit_at(t, telemetry::Source::Machine, || {
            telemetry::EventKind::MigrationComplete {
                vpn: job.vpn,
                src: src.0,
                dst: job.dst.0,
                copy_ns,
            }
        });
        self.sh.sink.span_close_at(t, job.span);
        self.sh.mig_jobs[job_id as usize].live = false;
        self.sh.mig_free_jobs.push(job_id);
    }

    /// Records one clean abort: the destination reservation is released,
    /// the page's pending count drops, the typed failure lands in this
    /// tick's report, and accounting/telemetry are updated.
    fn record_abort(&mut self, t: SimTime, vpn: Vpn, dst: TierId, reason: AbortReason) {
        self.sh.mig_inflight_to[dst.index()] -= 1;
        self.sh.mig_pending[vpn as usize] -= 1;
        let c = &mut self.sh.mig_counters;
        *match reason {
            AbortReason::Outage => &mut c.aborted_outage,
            AbortReason::Transient => &mut c.aborted_transient,
            AbortReason::WriteConflict => &mut c.aborted_write_conflict,
            AbortReason::Watchdog => &mut c.aborted_watchdog,
        } += 1;
        self.sh
            .tick_failed
            .push(FailedMigration { vpn, dst, reason });
        self.sh.sink.emit_at(t, telemetry::Source::Machine, || {
            telemetry::EventKind::MigrationFail {
                vpn,
                dst: dst.0,
                reason: reason.fail_reason(),
            }
        });
    }

    /// Allocates a job slot, preserving each slot's epoch monotonicity so
    /// events stamped for a retired occupant can never match its successor.
    fn alloc_job(&mut self, mut job: MigJob) -> u32 {
        if let Some(i) = self.sh.mig_free_jobs.pop() {
            job.epoch = self.sh.mig_jobs[i as usize].epoch.wrapping_add(1);
            self.sh.mig_jobs[i as usize] = job;
            i
        } else {
            self.sh.mig_jobs.push(job);
            (self.sh.mig_jobs.len() - 1) as u32
        }
    }

    // ---- Transactional mode only ---------------------------------------------

    /// Marks every live, not-yet-committing transaction on `vpn` dirty.
    fn txn_note_write(&mut self, vpn: Vpn) {
        for j in self.sh.mig_jobs.iter_mut() {
            if j.live && !j.committing && j.vpn == vpn {
                j.dirty = true;
            }
        }
    }

    /// Live (not yet retired) transactions.
    fn txn_live(&self) -> usize {
        self.sh.mig_jobs.iter().filter(|j| j.live).count()
    }

    /// Validates a fully copied pass: clean snapshots join the commit
    /// batch; dirty ones retry with exponential backoff or abort.
    fn txn_validate(&mut self, t: SimTime, job_id: u32) {
        let job = self.sh.mig_jobs[job_id as usize];
        let dirty = job.dirty || self.sh.faults.storm_dirties(job.vpn, job.attempt, t);
        if !dirty {
            self.sh.mig_jobs[job_id as usize].committing = true;
            self.sh.txn_commit_batch.push(job_id);
            if !self.sh.txn_flush_scheduled {
                // The shootdown cost doubles as the batch linger window:
                // transactions validated while the IPI is in flight ride
                // the same flush.
                self.sh.txn_flush_scheduled = true;
                self.sh
                    .events
                    .push(t + self.sh.cfg.engine.shootdown_cost, Ev::TxnFlush);
            }
            return;
        }
        self.sh.sink.emit_at(t, telemetry::Source::Machine, || {
            telemetry::EventKind::TxnDirty {
                vpn: job.vpn,
                attempt: job.attempt,
            }
        });
        if job.attempt > self.sh.cfg.engine.dirty_retry_max {
            // Out of retries: the page is write-hot; keep it at the source
            // rather than ping-ponging.
            self.txn_abort(t, job_id, AbortReason::WriteConflict);
            return;
        }
        self.sh.mig_counters.dirty_retries += 1;
        let j = &mut self.sh.mig_jobs[job_id as usize];
        j.attempt += 1;
        j.dirty = false;
        j.lines_read = 0;
        j.lines_done = 0;
        j.epoch = j.epoch.wrapping_add(1);
        let epoch = j.epoch;
        // Exponential backoff, capped at 8 doublings.
        let shift = (j.attempt - 2).min(8);
        let delay = self.sh.cfg.engine.dirty_retry_backoff * (1u64 << shift);
        self.sh
            .events
            .push(t + delay, Ev::TxnRetry { job: job_id, epoch });
    }

    /// Backoff expired: start a fresh copy pass with a fresh deadline.
    fn txn_retry(&mut self, t: SimTime, job_id: u32, epoch: u32) {
        let job = self.sh.mig_jobs[job_id as usize];
        if !job.live || job.epoch != epoch {
            return;
        }
        self.sh.events.push(t, Ev::MigRead { job: job_id, epoch });
        self.sh.events.push(
            t + self.sh.cfg.engine.watchdog,
            Ev::TxnWatchdog { job: job_id, epoch },
        );
    }

    /// Watchdog deadline hit while the pass is still copying: fail over to
    /// a healthy channel, or abort when none is left.
    fn txn_watchdog(&mut self, t: SimTime, job_id: u32, epoch: u32) {
        let job = self.sh.mig_jobs[job_id as usize];
        if !job.live || job.epoch != epoch || job.committing {
            return; // the pass finished (or moved on) before the deadline
        }
        let channels = self.sh.mig_channel_free.len() as u32;
        let healthy = (0..channels)
            .filter(|&c| self.sh.faults.channel_stalled_until(c, t).is_none())
            .min_by_key(|&c| self.sh.mig_channel_free[c as usize]);
        let (Some(to), true) = (healthy, job.failovers < channels) else {
            // Every channel is stalled, or this transaction has already
            // burned a failover per channel: give up cleanly.
            self.txn_abort(t, job_id, AbortReason::Watchdog);
            return;
        };
        self.sh.mig_counters.failovers += 1;
        self.sh.sink.emit_at(t, telemetry::Source::Machine, || {
            telemetry::EventKind::TxnFailover {
                vpn: job.vpn,
                from_channel: job.channel,
                to_channel: to,
            }
        });
        let j = &mut self.sh.mig_jobs[job_id as usize];
        j.failovers += 1;
        j.channel = to;
        j.lines_read = 0;
        j.lines_done = 0;
        j.dirty = false;
        j.epoch = j.epoch.wrapping_add(1);
        let epoch = j.epoch;
        self.sh.events.push(t, Ev::MigRead { job: job_id, epoch });
        self.sh.events.push(
            t + self.sh.cfg.engine.watchdog,
            Ev::TxnWatchdog { job: job_id, epoch },
        );
    }

    /// Aborts a live transaction cleanly: the page is intact at its
    /// source, the reservation is released, and the span closes with the
    /// typed reason in this tick's report.
    fn txn_abort(&mut self, t: SimTime, job_id: u32, reason: AbortReason) {
        let job = self.sh.mig_jobs[job_id as usize];
        self.record_abort(t, job.vpn, job.dst, reason);
        self.sh.sink.span_close_at(t, job.span);
        let j = &mut self.sh.mig_jobs[job_id as usize];
        j.live = false;
        j.epoch = j.epoch.wrapping_add(1);
        self.sh.mig_free_jobs.push(job_id);
        // Retiring a transaction frees an in-flight slot.
        self.mig_kick(t);
    }

    /// Batched commit: up to `shootdown_batch` parked transactions flip
    /// under one shootdown; any overflow pipelines into the next flush.
    fn txn_flush(&mut self, t: SimTime) {
        let _prof = simkit::profile::scope("machine.mig_engine");
        self.sh.txn_flush_scheduled = false;
        if self.sh.txn_commit_batch.is_empty() {
            return;
        }
        let n = self
            .sh
            .txn_commit_batch
            .len()
            .min(self.txn_batch_limit() as usize);
        let batch: Vec<u32> = self.sh.txn_commit_batch.drain(..n).collect();
        let pages = batch.len() as u64;
        self.sh.mig_counters.commit_batches += 1;
        self.sh.mig_counters.batched_pages += pages;
        let cost_ns = self.sh.cfg.engine.shootdown_cost.as_ns();
        for job_id in batch {
            self.commit_job(t, job_id);
        }
        self.sh.sink.emit_at(t, telemetry::Source::Machine, || {
            telemetry::EventKind::BatchCommit { pages, cost_ns }
        });
        if !self.sh.txn_commit_batch.is_empty() {
            self.sh.txn_flush_scheduled = true;
            self.sh
                .events
                .push(t + self.sh.cfg.engine.shootdown_cost, Ev::TxnFlush);
        }
        self.mig_kick(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    /// A stream that reads one fixed line forever (always LLC-missing).
    struct FixedLine(u64);
    impl AccessStream for FixedLine {
        fn next(&mut self, _now: SimTime, _rng: &mut SmallRng) -> ObjectAccess {
            ObjectAccess::read_line(self.0)
        }
    }

    /// A stream reading random lines over a page range.
    struct RandomPages {
        start: Vpn,
        pages: u64,
    }
    impl AccessStream for RandomPages {
        fn next(&mut self, _now: SimTime, rng: &mut SmallRng) -> ObjectAccess {
            let vpn = self.start + rng.gen_range(0..self.pages);
            let off = rng.gen_range(0..LINES_PER_PAGE) * LINE_SIZE;
            ObjectAccess::read_line(vpn * PAGE_SIZE + off)
        }
    }

    fn machine_one_core(mlp: usize) -> Machine {
        let cfg = MachineConfig::icelake_two_tier();
        let mut m = Machine::new(cfg);
        m.place_range(0..1024, TierId::DEFAULT);
        m.add_core(
            Box::new(RandomPages {
                start: 0,
                pages: 1024,
            }),
            CoreConfig {
                demand_slots: mlp,
                prefetch_slots: 0,
                think_time: SimTime::ZERO,
            },
            TrafficClass::App,
        );
        m
    }

    #[test]
    fn single_inflight_latency_is_unloaded() {
        // One core, one slot: measured latency must sit at the unloaded
        // latency of the default tier (~70 ns, with some row-hit luck below).
        let mut m = machine_one_core(1);
        let rep = m.run_tick(SimTime::from_us(100.0));
        let l = rep.littles_latency_ns(TierId::DEFAULT).unwrap();
        assert!(l > 50.0 && l < 75.0, "unloaded latency = {l}ns");
    }

    #[test]
    fn throughput_matches_n64_over_l() {
        // The paper's core identity: T = N * 64 / L.
        let mut m = machine_one_core(10);
        m.run_tick(SimTime::from_us(20.0)); // warm up
        let rep = m.run_tick(SimTime::from_us(100.0));
        let l_ns = rep.littles_latency_ns(TierId::DEFAULT).unwrap();
        let ops_per_ns = rep.app_ops as f64 / rep.duration().as_ns();
        let predicted = 10.0 / l_ns;
        assert!(
            (ops_per_ns - predicted).abs() / predicted < 0.1,
            "T = {ops_per_ns}/ns vs N/L = {predicted}/ns"
        );
    }

    #[test]
    fn littles_law_matches_true_latency() {
        let mut m = machine_one_core(10);
        m.run_tick(SimTime::from_us(20.0));
        let rep = m.run_tick(SimTime::from_us(100.0));
        let est = rep.littles_latency_ns(TierId::DEFAULT).unwrap();
        let truth = rep.true_latency_ns[0].unwrap();
        assert!(
            (est - truth).abs() / truth < 0.05,
            "Little's law {est}ns vs true {truth}ns"
        );
    }

    #[test]
    fn migration_gate_vetoes_and_sees_only_viable_requests() {
        struct DenyOdd {
            offered: Vec<Vpn>,
            ticks: u64,
        }
        impl MigrationGate for DenyOdd {
            fn admit(&mut self, vpn: Vpn, src: TierId, dst: TierId, _now: SimTime) -> bool {
                assert_ne!(src, dst);
                self.offered.push(vpn);
                vpn.is_multiple_of(2)
            }
            fn on_tick(&mut self, _now: SimTime) {
                self.ticks += 1;
            }
        }

        let mut m = machine_one_core(1);
        m.pin(3);
        let gate = Rc::new(RefCell::new(DenyOdd {
            offered: Vec::new(),
            ticks: 0,
        }));
        m.set_migration_gate(Some(gate.clone()));

        // Machine-level rejections fire before the gate ever sees the
        // request: a pinned page never reaches the policy.
        assert_eq!(
            m.enqueue_migration(3, TierId::ALTERNATE),
            Err(EnqueueError::Pinned)
        );
        assert!(gate.borrow().offered.is_empty());
        // Policy veto: typed error, no reservation, page stays put.
        assert_eq!(
            m.enqueue_migration(5, TierId::ALTERNATE),
            Err(EnqueueError::Vetoed)
        );
        assert_eq!(
            m.free_pages(TierId::ALTERNATE),
            m.capacity_pages(TierId::ALTERNATE)
        );
        // Admitted: normal path.
        assert_eq!(m.enqueue_migration(4, TierId::ALTERNATE), Ok(()));
        assert_eq!(gate.borrow().offered, vec![5, 4]);

        m.run_tick(SimTime::from_us(100.0));
        assert_eq!(gate.borrow().ticks, 1);
        assert_eq!(m.tier_of(4), Some(TierId::ALTERNATE));
        assert_eq!(m.tier_of(5), Some(TierId::DEFAULT));

        // Removing the gate restores the ungated admission path.
        m.set_migration_gate(None);
        assert_eq!(m.enqueue_migration(5, TierId::ALTERNATE), Ok(()));
    }

    #[test]
    fn per_core_tier_line_split_tracks_traffic() {
        let cfg = MachineConfig::icelake_two_tier();
        let mut m = Machine::new(cfg);
        m.place_range(0..512, TierId::DEFAULT);
        m.place_range(512..1024, TierId::ALTERNATE);
        let fast_core = m.add_core(
            Box::new(RandomPages {
                start: 0,
                pages: 512,
            }),
            CoreConfig::default(),
            TrafficClass::App,
        );
        let slow_core = m.add_core(
            Box::new(RandomPages {
                start: 512,
                pages: 512,
            }),
            CoreConfig::default(),
            TrafficClass::App,
        );
        m.run_tick(SimTime::from_us(100.0));
        let split = m.tick_core_tier_lines();
        assert_eq!(split.len(), 2);
        // Each core's traffic lands entirely on the tier its pages live in.
        assert!(split[fast_core][0] > 0);
        assert_eq!(split[fast_core][1], 0);
        assert_eq!(split[slow_core][0], 0);
        assert!(split[slow_core][1] > 0);
        // The split resets at each tick.
        let before = split[fast_core][0];
        m.run_tick(SimTime::from_us(1.0));
        assert!(m.tick_core_tier_lines()[fast_core][0] < before);
    }

    #[test]
    fn remote_tier_latency_is_higher() {
        let cfg = MachineConfig::icelake_two_tier();
        let mut m = Machine::new(cfg);
        m.place_range(0..512, TierId::DEFAULT);
        m.place_range(512..1024, TierId::ALTERNATE);
        m.add_core(
            Box::new(RandomPages {
                start: 0,
                pages: 512,
            }),
            CoreConfig {
                demand_slots: 1,
                ..CoreConfig::default()
            },
            TrafficClass::App,
        );
        m.add_core(
            Box::new(RandomPages {
                start: 512,
                pages: 512,
            }),
            CoreConfig {
                demand_slots: 1,
                ..CoreConfig::default()
            },
            TrafficClass::App,
        );
        let rep = m.run_tick(SimTime::from_us(200.0));
        let l_def = rep.littles_latency_ns(TierId::DEFAULT).unwrap();
        let l_alt = rep.littles_latency_ns(TierId::ALTERNATE).unwrap();
        assert!(
            l_alt > l_def * 1.6,
            "default {l_def}ns, alternate {l_alt}ns"
        );
        assert!(l_alt < 150.0, "alternate unloaded {l_alt}ns");
    }

    #[test]
    fn loaded_latency_inflates_with_cores() {
        // More cores hammering the same tier must inflate its latency well
        // beyond unloaded — the §3.1 memory interconnect contention regime.
        let cfg = MachineConfig::icelake_two_tier();
        let mut m = Machine::new(cfg);
        m.place_range(0..4096, TierId::DEFAULT);
        for i in 0..24 {
            m.add_core(
                Box::new(RandomPages {
                    start: (i % 4) * 1024,
                    pages: 1024,
                }),
                CoreConfig::default(),
                TrafficClass::App,
            );
        }
        m.run_tick(SimTime::from_us(20.0));
        let rep = m.run_tick(SimTime::from_us(100.0));
        let l = rep.littles_latency_ns(TierId::DEFAULT).unwrap();
        assert!(l > 100.0, "loaded latency should inflate, got {l}ns");
    }

    #[test]
    fn migration_moves_page_and_respects_capacity() {
        let cfg = MachineConfig::icelake_two_tier();
        let mut m = Machine::new(cfg);
        m.place_range(0..128, TierId::DEFAULT);
        m.add_core(
            Box::new(FixedLine(0)),
            CoreConfig::default(),
            TrafficClass::App,
        );
        m.enqueue_migration(5, TierId::ALTERNATE).unwrap();
        // A pinned page refuses outright.
        m.pin(6);
        assert_eq!(
            m.enqueue_migration(6, TierId::ALTERNATE),
            Err(EnqueueError::Pinned)
        );
        // Give the engine time: 4 KB at 2.4 GB/s is ~1.7 us.
        m.run_tick(SimTime::from_us(20.0));
        assert_eq!(m.tier_of(5), Some(TierId::ALTERNATE));
        assert_eq!(m.migrated_pages(), 1);
        assert_eq!(m.used_pages(TierId::ALTERNATE), 1);
        assert_eq!(m.used_pages(TierId::DEFAULT), 127);
    }

    #[test]
    fn migration_to_same_tier_is_rejected() {
        let cfg = MachineConfig::icelake_two_tier();
        let mut m = Machine::new(cfg);
        m.place_range(0..8, TierId::DEFAULT);
        assert_eq!(
            m.enqueue_migration(0, TierId::DEFAULT),
            Err(EnqueueError::Moot)
        );
    }

    #[test]
    fn migration_respects_destination_capacity() {
        let mut cfg = MachineConfig::icelake_two_tier();
        cfg.tiers[1].capacity_bytes = 2 * PAGE_SIZE;
        let mut m = Machine::new(cfg);
        m.place_range(0..8, TierId::DEFAULT);
        m.enqueue_migration(0, TierId::ALTERNATE).unwrap();
        m.enqueue_migration(1, TierId::ALTERNATE).unwrap();
        // Third must fail: both frames are reserved by in-flight migrations.
        assert_eq!(
            m.enqueue_migration(2, TierId::ALTERNATE),
            Err(EnqueueError::DestinationFull)
        );
    }

    #[test]
    fn migration_generates_traffic() {
        let cfg = MachineConfig::icelake_two_tier();
        let mut m = Machine::new(cfg);
        m.place_range(0..128, TierId::DEFAULT);
        for vpn in 0..32 {
            m.enqueue_migration(vpn, TierId::ALTERNATE).unwrap();
        }
        let rep = m.run_tick(SimTime::from_ms(1.0));
        assert_eq!(rep.migrated_bytes, 32 * PAGE_SIZE);
        let mig = TrafficClass::Migration.index();
        // Reads from the default tier, writes into the alternate tier.
        assert_eq!(rep.tiers[0].bytes_by_class[mig], 32 * PAGE_SIZE);
        assert_eq!(rep.tiers[1].bytes_by_class[mig], 32 * PAGE_SIZE);
    }

    #[test]
    fn migration_is_rate_limited() {
        let mut cfg = MachineConfig::icelake_two_tier();
        cfg.migration_bandwidth = 1e9; // 1 GB/s
        let mut m = Machine::new(cfg);
        m.place_range(0..2048, TierId::DEFAULT);
        for vpn in 0..2048 {
            let _ = m.enqueue_migration(vpn, TierId::ALTERNATE);
        }
        let rep = m.run_tick(SimTime::from_ms(1.0));
        // At 1 GB/s, one millisecond moves ~1 MB.
        let mb = rep.migrated_bytes as f64 / 1e6;
        assert!((mb - 1.0).abs() < 0.1, "migrated {mb} MB in 1 ms at 1 GB/s");
        assert!(rep.migration_backlog > 0);
    }

    #[test]
    fn pebs_sampling_rate() {
        let mut m = machine_one_core(10);
        m.set_pebs_period(64);
        let rep = m.run_tick(SimTime::from_us(100.0));
        // ~10 slots / ~70ns => ~0.14 lines/ns => 14k lines per 100us; one
        // sample per 64 demand misses => on the order of 200 samples.
        assert!(
            rep.pebs.len() > 50 && rep.pebs.len() < 1_000,
            "samples = {}",
            rep.pebs.len()
        );
        for s in &rep.pebs {
            assert!(s.vpn < 1024);
            assert_eq!(s.tier, TierId::DEFAULT);
        }
    }

    #[test]
    fn hint_fault_fires_once_per_mark() {
        let mut m = Machine::new(MachineConfig::icelake_two_tier());
        m.place_range(0..4, TierId::DEFAULT);
        m.add_core(
            Box::new(FixedLine(0)),
            CoreConfig {
                demand_slots: 1,
                ..CoreConfig::default()
            },
            TrafficClass::App,
        );
        m.mark_page(0);
        let rep = m.run_tick(SimTime::from_us(50.0));
        assert_eq!(rep.faults.len(), 1, "exactly one fault per marking");
        assert_eq!(rep.faults[0].vpn, 0);
        assert!(!m.is_marked(0));
        // Re-marking faults again.
        m.mark_page(0);
        let rep2 = m.run_tick(SimTime::from_us(50.0));
        assert_eq!(rep2.faults.len(), 1);
        assert!(rep2.faults[0].time_to_fault_ns < 10_000.0);
    }

    #[test]
    fn deactivated_core_stops_issuing() {
        let mut m = machine_one_core(10);
        let r1 = m.run_tick(SimTime::from_us(50.0));
        assert!(r1.app_ops > 0);
        m.set_core_active(0, false);
        m.run_tick(SimTime::from_us(10.0)); // drain in-flight
        let r2 = m.run_tick(SimTime::from_us(50.0));
        assert_eq!(r2.app_ops, 0);
        m.set_core_active(0, true);
        let r3 = m.run_tick(SimTime::from_us(50.0));
        assert!(r3.app_ops > 0);
    }

    #[test]
    fn llc_hits_do_not_touch_memory() {
        struct AlwaysHit;
        impl AccessStream for AlwaysHit {
            fn next(&mut self, _now: SimTime, _rng: &mut SmallRng) -> ObjectAccess {
                ObjectAccess {
                    vaddr: 0,
                    size: 64,
                    is_write: false,
                    dependent: false,
                    llc_hit_prob: 1.0,
                }
            }
        }
        let mut m = Machine::new(MachineConfig::icelake_two_tier());
        m.place_range(0..4, TierId::DEFAULT);
        m.add_core(
            Box::new(AlwaysHit),
            CoreConfig::default(),
            TrafficClass::App,
        );
        let rep = m.run_tick(SimTime::from_us(10.0));
        assert!(rep.app_ops > 0);
        assert_eq!(rep.tiers[0].arrivals, 0, "no memory traffic on LLC hits");
    }

    #[test]
    fn writes_produce_writeback_traffic() {
        struct WriteLine;
        impl AccessStream for WriteLine {
            fn next(&mut self, _now: SimTime, rng: &mut SmallRng) -> ObjectAccess {
                ObjectAccess {
                    vaddr: rng.gen_range(0u64..256) * 64,
                    size: 64,
                    is_write: true,
                    dependent: false,
                    llc_hit_prob: 0.0,
                }
            }
        }
        let mut m = Machine::new(MachineConfig::icelake_two_tier());
        m.place_range(0..4, TierId::DEFAULT);
        m.add_core(
            Box::new(WriteLine),
            CoreConfig::default(),
            TrafficClass::App,
        );
        m.run_tick(SimTime::from_us(10.0));
        let rep = m.run_tick(SimTime::from_us(50.0));
        let app = TrafficClass::App.index();
        let bytes = rep.tiers[0].bytes_by_class[app];
        // Writeback bytes roughly double the traffic vs reads alone.
        assert!(
            bytes as f64 > 1.8 * rep.tiers[0].arrivals as f64 * 64.0,
            "bytes {bytes} vs reads {}",
            rep.tiers[0].arrivals
        );
    }

    #[test]
    fn dependent_stream_limits_parallelism() {
        struct Chase {
            pages: u64,
        }
        impl AccessStream for Chase {
            fn next(&mut self, _now: SimTime, rng: &mut SmallRng) -> ObjectAccess {
                let vpn = rng.gen_range(0..self.pages);
                ObjectAccess {
                    vaddr: vpn * PAGE_SIZE + rng.gen_range(0..LINES_PER_PAGE) * LINE_SIZE,
                    size: 64,
                    is_write: false,
                    dependent: true,
                    llc_hit_prob: 0.0,
                }
            }
        }
        let mut m = Machine::new(MachineConfig::icelake_two_tier());
        m.place_range(0..1024, TierId::DEFAULT);
        m.add_core(
            Box::new(Chase { pages: 1024 }),
            CoreConfig::default(),
            TrafficClass::App,
        );
        m.run_tick(SimTime::from_us(20.0));
        let rep = m.run_tick(SimTime::from_us(100.0));
        // With full dependence, occupancy must hover near 1 despite 10
        // demand slots.
        assert!(
            rep.tiers[0].occupancy < 1.2,
            "occupancy {} should be ~1 for a pointer chase",
            rep.tiers[0].occupancy
        );
    }

    #[test]
    fn multi_line_objects_use_prefetch_slots() {
        struct BigObjects;
        impl AccessStream for BigObjects {
            fn next(&mut self, _now: SimTime, rng: &mut SmallRng) -> ObjectAccess {
                let vpn = rng.gen_range(0u64..512);
                ObjectAccess {
                    vaddr: vpn * PAGE_SIZE,
                    size: 4096,
                    is_write: false,
                    dependent: false,
                    llc_hit_prob: 0.0,
                }
            }
        }
        let mut m = Machine::new(MachineConfig::icelake_two_tier());
        m.place_range(0..512, TierId::DEFAULT);
        m.add_core(
            Box::new(BigObjects),
            CoreConfig::default(),
            TrafficClass::App,
        );
        m.run_tick(SimTime::from_us(20.0));
        let rep = m.run_tick(SimTime::from_us(100.0));
        // Effective parallelism beyond the 10 demand slots (paper §5.1:
        // larger objects raise in-flight misses via prefetching).
        assert!(
            rep.tiers[0].occupancy > 12.0,
            "occupancy {} should exceed demand slots",
            rep.tiers[0].occupancy
        );
    }

    #[test]
    fn accesses_follow_migrated_page() {
        let mut m = Machine::new(MachineConfig::icelake_two_tier());
        m.place_range(0..8, TierId::DEFAULT);
        m.add_core(
            Box::new(FixedLine(0)),
            CoreConfig {
                demand_slots: 1,
                ..CoreConfig::default()
            },
            TrafficClass::App,
        );
        m.enqueue_migration(0, TierId::ALTERNATE).unwrap();
        m.run_tick(SimTime::from_us(50.0));
        let rep = m.run_tick(SimTime::from_us(50.0));
        // All post-migration app reads land on the alternate tier.
        let app = TrafficClass::App.index();
        assert!(rep.tiers[1].bytes_by_class[app] > 0);
        assert_eq!(rep.tiers[0].bytes_by_class[app], 0);
    }

    // ---- Fault injection ----------------------------------------------------

    #[test]
    fn certain_migration_failure_aborts_and_releases_reservation() {
        let mut cfg = MachineConfig::icelake_two_tier();
        cfg.faults.migration_fail_prob = 1.0;
        let mut m = Machine::new(cfg);
        m.place_range(0..8, TierId::DEFAULT);
        for vpn in 0..8 {
            m.enqueue_migration(vpn, TierId::ALTERNATE).unwrap();
        }
        let rep = m.run_tick(SimTime::from_ms(1.0));
        // Every migration aborted: pages stay put, reservations are released,
        // and every failure is reported for the control software to retry.
        assert_eq!(m.migrated_pages(), 0);
        assert_eq!(m.used_pages(TierId::ALTERNATE), 0);
        assert_eq!(rep.migrated_bytes, 0);
        assert_eq!(rep.failed_migrations.len(), 8);
        assert_eq!(rep.fault_stats.migration_failures, 8);
        for f in &rep.failed_migrations {
            assert!(f.vpn < 8);
            assert_eq!(f.dst, TierId::ALTERNATE);
            assert_eq!(f.reason, AbortReason::Transient);
            assert_eq!(m.tier_of(f.vpn), Some(TierId::DEFAULT));
        }
        // The books balance across total failure.
        let c = m.migration_counters();
        assert_eq!(c.started, 8);
        assert_eq!(c.aborted_transient, 8);
        assert_eq!(c.in_flight(), 0);
        // Released frames are immediately reusable.
        m.enqueue_migration(0, TierId::ALTERNATE).unwrap();
    }

    #[test]
    fn partial_migration_failure_is_reported_per_page() {
        let mut cfg = MachineConfig::icelake_two_tier();
        cfg.faults.migration_fail_prob = 0.5;
        let mut m = Machine::new(cfg);
        m.place_range(0..64, TierId::DEFAULT);
        for vpn in 0..64 {
            m.enqueue_migration(vpn, TierId::ALTERNATE).unwrap();
        }
        let rep = m.run_tick(SimTime::from_ms(2.0));
        let failed = rep.failed_migrations.len() as u64;
        assert_eq!(rep.fault_stats.migration_failures, failed);
        assert!(failed > 0 && failed < 64, "expected a mix, got {failed}");
        assert_eq!(m.migrated_pages() + failed, 64);
        // A failed page is still at the source; a migrated one at the dest.
        for f in &rep.failed_migrations {
            assert_eq!(m.tier_of(f.vpn), Some(TierId::DEFAULT));
        }
    }

    #[test]
    fn counter_faults_do_not_perturb_execution() {
        // Counter noise corrupts only what the control software reads; the
        // machine itself (app progress, true latency) is bit-identical.
        let mut noisy_cfg = MachineConfig::icelake_two_tier();
        noisy_cfg.faults.counter_noise = 0.5;
        noisy_cfg.faults.counter_drop_prob = 0.2;
        noisy_cfg.faults.counter_stale_prob = 0.2;
        let mut clean = machine_one_core(10);
        let mut noisy = Machine::new(noisy_cfg);
        noisy.place_range(0..1024, TierId::DEFAULT);
        noisy.add_core(
            Box::new(RandomPages {
                start: 0,
                pages: 1024,
            }),
            CoreConfig {
                demand_slots: 10,
                prefetch_slots: 0,
                think_time: SimTime::ZERO,
            },
            TrafficClass::App,
        );
        let mut saw_perturbed = false;
        for _ in 0..20 {
            let a = clean.run_tick(SimTime::from_us(50.0));
            let b = noisy.run_tick(SimTime::from_us(50.0));
            assert_eq!(a.app_ops, b.app_ops);
            assert_eq!(a.true_latency_ns, b.true_latency_ns);
            if b.fault_stats.total() > 0 {
                saw_perturbed = true;
            }
        }
        assert!(saw_perturbed, "fault plan never fired in 20 ticks");
    }

    #[test]
    fn bandwidth_degradation_phase_slows_migration() {
        let mut cfg = MachineConfig::icelake_two_tier();
        cfg.migration_bandwidth = 1e9; // 1 GB/s nominal
        cfg.faults
            .bandwidth_phases
            .push(crate::faults::BandwidthPhase {
                start: SimTime::ZERO,
                end: Some(SimTime::from_ms(10.0)),
                factor: 0.25,
            });
        let mut m = Machine::new(cfg);
        m.place_range(0..2048, TierId::DEFAULT);
        for vpn in 0..2048 {
            let _ = m.enqueue_migration(vpn, TierId::ALTERNATE);
        }
        let rep = m.run_tick(SimTime::from_ms(1.0));
        // Degraded to 250 MB/s: one millisecond moves ~0.25 MB.
        let mb = rep.migrated_bytes as f64 / 1e6;
        assert!(
            (mb - 0.25).abs() < 0.05,
            "migrated {mb} MB under 0.25x phase"
        );
    }

    #[test]
    fn pebs_loss_thins_samples_without_changing_execution() {
        let mut lossy_cfg = MachineConfig::icelake_two_tier();
        lossy_cfg.faults.pebs_loss_prob = 0.5;
        let mut clean = machine_one_core(10);
        clean.set_pebs_period(64);
        let mut lossy = Machine::new(lossy_cfg);
        lossy.place_range(0..1024, TierId::DEFAULT);
        lossy.add_core(
            Box::new(RandomPages {
                start: 0,
                pages: 1024,
            }),
            CoreConfig {
                demand_slots: 10,
                prefetch_slots: 0,
                think_time: SimTime::ZERO,
            },
            TrafficClass::App,
        );
        lossy.set_pebs_period(64);
        let a = clean.run_tick(SimTime::from_ms(1.0));
        let b = lossy.run_tick(SimTime::from_ms(1.0));
        assert_eq!(a.app_ops, b.app_ops);
        assert!(b.pebs.len() < a.pebs.len());
        assert!(
            b.pebs.len() + b.fault_stats.pebs_dropped as usize == a.pebs.len(),
            "dropped + delivered must equal the fault-free sample count"
        );
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let build = || {
            let mut cfg = MachineConfig::icelake_two_tier();
            cfg.faults.counter_noise = 0.3;
            cfg.faults.counter_stale_prob = 0.1;
            cfg.faults.counter_drop_prob = 0.05;
            cfg.faults.migration_fail_prob = 0.2;
            cfg.faults.pebs_loss_prob = 0.3;
            let mut m = Machine::new(cfg);
            m.place_range(0..1024, TierId::DEFAULT);
            m.add_core(
                Box::new(RandomPages {
                    start: 0,
                    pages: 1024,
                }),
                CoreConfig::default(),
                TrafficClass::App,
            );
            m.set_pebs_period(64);
            m
        };
        let (mut a, mut b) = (build(), build());
        for i in 0..10 {
            if i % 3 == 0 {
                let _ = a.enqueue_migration(i, TierId::ALTERNATE);
                let _ = b.enqueue_migration(i, TierId::ALTERNATE);
            }
            let ra = a.run_tick(SimTime::from_us(100.0));
            let rb = b.run_tick(SimTime::from_us(100.0));
            assert_eq!(format!("{ra:?}"), format!("{rb:?}"), "tick {i} diverged");
        }
    }

    #[test]
    fn tier_shrink_evacuates_resident_pages() {
        let mut cfg = MachineConfig::icelake_two_tier();
        cfg.tiers[0].capacity_bytes = 64 * PAGE_SIZE;
        cfg.tiers[1].capacity_bytes = 1024 * PAGE_SIZE;
        cfg.faults.tier_shrinks.push(crate::TierShrink {
            tier: TierId::DEFAULT,
            at: SimTime::from_us(100.0),
            new_frames: 16,
        });
        let mut m = Machine::new(cfg);
        m.place_range(0..64, TierId::DEFAULT);
        m.place_range(64..128, TierId::ALTERNATE);
        m.validate_fault_feasibility().unwrap();

        // Before the shrink fires, nothing moves.
        let rep = m.run_tick(SimTime::from_us(100.0));
        assert!(rep.evacuated.is_empty());
        assert_eq!(m.capacity_pages(TierId::DEFAULT), 64);

        // The first tick at/after t=150us applies the shrink and evacuates.
        let rep = m.run_tick(SimTime::from_us(100.0));
        assert_eq!(m.capacity_pages(TierId::DEFAULT), 16);
        assert_eq!(rep.evacuated.len(), 48);
        assert_eq!(rep.fault_stats.pages_evacuated, 48);
        for &(vpn, dst) in &rep.evacuated {
            assert_eq!(dst, TierId::ALTERNATE);
            assert_eq!(m.tier_of(vpn), Some(TierId::ALTERNATE));
        }
        assert!(m.used_pages(TierId::DEFAULT) <= 16);
        assert_eq!(m.check_invariants(), []);

        // Later ticks: already applied, nothing further to do.
        let rep = m.run_tick(SimTime::from_us(100.0));
        assert!(rep.evacuated.is_empty());
        assert_eq!(rep.fault_stats.pages_evacuated, 0);
    }

    #[test]
    fn shrink_below_pinned_pages_is_rejected() {
        let mut cfg = MachineConfig::icelake_two_tier();
        cfg.tiers[0].capacity_bytes = 64 * PAGE_SIZE;
        cfg.faults.tier_shrinks.push(crate::TierShrink {
            tier: TierId::DEFAULT,
            at: SimTime::ZERO,
            new_frames: 4,
        });
        let mut m = Machine::new(cfg);
        m.place_range(0..32, TierId::DEFAULT);
        for vpn in 0..8 {
            m.pin(vpn);
        }
        let err = m.validate_fault_feasibility().unwrap_err();
        assert!(err.contains("pinned"), "unhelpful error: {err}");
    }

    #[test]
    fn shrink_that_overflows_total_capacity_is_rejected() {
        let mut cfg = MachineConfig::icelake_two_tier();
        cfg.tiers[0].capacity_bytes = 64 * PAGE_SIZE;
        cfg.tiers[1].capacity_bytes = 64 * PAGE_SIZE;
        cfg.faults.tier_shrinks.push(crate::TierShrink {
            tier: TierId::DEFAULT,
            at: SimTime::ZERO,
            new_frames: 16,
        });
        let mut m = Machine::new(cfg);
        m.place_range(0..64, TierId::DEFAULT);
        m.place_range(64..128, TierId::ALTERNATE);
        let err = m.validate_fault_feasibility().unwrap_err();
        assert!(err.contains("frames"), "unhelpful error: {err}");
    }

    #[test]
    fn engine_outage_fails_migrations_then_recovers() {
        let mut cfg = MachineConfig::icelake_two_tier();
        cfg.faults.engine_outages.push(crate::EngineOutage {
            start: SimTime::ZERO,
            end: SimTime::from_us(500.0),
        });
        let mut m = Machine::new(cfg);
        m.place_range(0..64, TierId::DEFAULT);
        m.enqueue_migration(0, TierId::ALTERNATE).unwrap();
        let rep = m.run_tick(SimTime::from_us(100.0));
        assert_eq!(rep.fault_stats.engine_outage_aborts, 1);
        assert_eq!(
            rep.failed_migrations,
            vec![FailedMigration {
                vpn: 0,
                dst: TierId::ALTERNATE,
                reason: AbortReason::Outage,
            }]
        );
        assert_eq!(m.tier_of(0), Some(TierId::DEFAULT));
        assert_eq!(m.migrated_pages(), 0);
        // Past the outage window the engine works again.
        for _ in 0..4 {
            m.run_tick(SimTime::from_us(100.0));
        }
        m.enqueue_migration(0, TierId::ALTERNATE).unwrap();
        m.run_tick(SimTime::from_us(100.0));
        assert_eq!(m.tier_of(0), Some(TierId::ALTERNATE));
        assert_eq!(m.migrated_pages(), 1);
    }

    #[test]
    fn admission_limit_caps_migrations_per_tick() {
        let mut m = Machine::new(MachineConfig::icelake_two_tier());
        m.place_range(0..64, TierId::DEFAULT);
        m.set_migration_admission_limit(Some(2));
        let admitted = (0..5)
            .filter(|&v| m.enqueue_migration(v, TierId::ALTERNATE).is_ok())
            .count();
        assert_eq!(admitted, 2);
        assert_eq!(
            m.enqueue_migration(5, TierId::ALTERNATE),
            Err(EnqueueError::EngineFrozen)
        );
        // The counter resets at each tick boundary …
        m.run_tick(SimTime::from_us(100.0));
        m.enqueue_migration(10, TierId::ALTERNATE).unwrap();
        m.run_tick(SimTime::from_ms(1.0));
        // … and lifting the cap restores unlimited admission.
        m.set_migration_admission_limit(None);
        let admitted = (20..40)
            .filter(|&v| m.enqueue_migration(v, TierId::ALTERNATE).is_ok())
            .count();
        assert_eq!(admitted, 20);
    }

    #[test]
    fn copy_time_telemetry_reveals_bandwidth_collapse() {
        // The mean per-page copy time reported in `mig_copy_ns` must track
        // the *effective* migration bandwidth: with a permanent collapse to
        // 10 % the copies take ~10x longer — the observable a supervisor
        // uses to detect the fault without any injection oracle.
        use crate::faults::{BandwidthPhase, FaultPlan};
        let healthy = {
            let mut m = Machine::new(MachineConfig::icelake_two_tier());
            m.place_range(0..64, TierId::DEFAULT);
            for v in 0..32 {
                m.enqueue_migration(v, TierId::ALTERNATE).unwrap();
            }
            let rep = m.run_tick(SimTime::from_ms(1.0));
            rep.mig_copy_ns.expect("copies completed")
        };
        let collapsed = {
            let mut cfg = MachineConfig::icelake_two_tier();
            cfg.faults = FaultPlan {
                bandwidth_phases: vec![BandwidthPhase {
                    start: SimTime::ZERO,
                    end: None,
                    factor: 0.1,
                }],
                ..FaultPlan::none()
            };
            let mut m = Machine::new(cfg);
            m.place_range(0..64, TierId::DEFAULT);
            for v in 0..32 {
                m.enqueue_migration(v, TierId::ALTERNATE).unwrap();
            }
            let rep = m.run_tick(SimTime::from_ms(1.0));
            rep.mig_copy_ns.expect("copies completed")
        };
        let expected = PAGE_SIZE as f64 / MachineConfig::icelake_two_tier().migration_bandwidth;
        let expected_ns = expected * 1e9;
        assert!(
            healthy < 2.5 * expected_ns,
            "healthy copy {healthy}ns vs expectation {expected_ns}ns"
        );
        assert!(
            collapsed > 5.0 * expected_ns,
            "collapsed copy {collapsed}ns should reveal the 10x slowdown \
             (expectation {expected_ns}ns)"
        );
        assert!(collapsed > 4.0 * healthy);
    }

    #[test]
    fn three_tier_machine_reports_per_pair_copy_times() {
        let cfg = MachineConfig::cxl_three_tier();
        let mut m = Machine::new(cfg);
        m.place_range(0..64, TierId::DEFAULT);
        m.place_range(64..128, TierId(2));
        for v in 0..16 {
            m.enqueue_migration(v, TierId(1)).unwrap();
        }
        for v in 64..80 {
            m.enqueue_migration(v, TierId(1)).unwrap();
        }
        let rep = m.run_tick(SimTime::from_ms(2.0));
        assert_eq!(rep.tiers.len(), 3);
        assert_eq!(rep.true_latency_ns.len(), 3);
        let pairs: Vec<(u8, u8)> = rep
            .mig_copy_pair_ns
            .iter()
            .map(|&(s, d, _)| (s, d))
            .collect();
        assert!(
            pairs.contains(&(0, 1)),
            "demotions 0->1 finished: {pairs:?}"
        );
        assert!(
            pairs.contains(&(2, 1)),
            "promotions 2->1 finished: {pairs:?}"
        );
        for &(_, _, mean_ns) in &rep.mig_copy_pair_ns {
            assert!(mean_ns.is_finite() && mean_ns > 0.0);
        }
    }

    #[test]
    fn zero_duration_report_has_zero_ops_rate() {
        // Pin the division guard: a degenerate zero-length tick reports
        // 0 ops/s, never NaN or infinity.
        let rep = TickReport {
            t_start: SimTime::from_us(5.0),
            t_end: SimTime::from_us(5.0),
            tiers: Vec::new(),
            pebs: Vec::new(),
            faults: Vec::new(),
            app_ops: 1234,
            migrated_bytes: 0,
            migration_backlog: 0,
            mig_copy_ns: None,
            mig_copy_pair_ns: Vec::new(),
            true_latency_ns: Vec::new(),
            fault_stats: FaultStats::default(),
            failed_migrations: Vec::new(),
            txn: TxnTickStats::default(),
            evacuated: Vec::new(),
        };
        assert_eq!(rep.app_ops_per_sec(), 0.0);
        assert!(rep.app_ops_per_sec().is_finite());
    }

    /// A two-tier config running the transactional pipeline.
    fn txn_cfg() -> MachineConfig {
        let mut cfg = MachineConfig::icelake_two_tier();
        cfg.engine = crate::config::MigrationEngineConfig::transactional();
        cfg
    }

    #[test]
    fn transactional_engine_commits_and_reconciles() {
        let mut m = Machine::new(txn_cfg());
        m.place_range(0..64, TierId::DEFAULT);
        for v in 0..32 {
            m.enqueue_migration(v, TierId::ALTERNATE).unwrap();
        }
        // The transactional engine rejects duplicate in-flight pages.
        assert_eq!(
            m.enqueue_migration(0, TierId::ALTERNATE),
            Err(EnqueueError::DuplicateInFlight)
        );
        let rep = m.run_tick(SimTime::from_ms(2.0));
        assert_eq!(m.migrated_pages(), 32);
        assert_eq!(m.used_pages(TierId::ALTERNATE), 32);
        assert!(rep.failed_migrations.is_empty());
        assert_eq!(rep.txn.begun, 32);
        assert_eq!(rep.txn.committed, 32);
        // Commits were batched: strictly fewer shootdowns than pages.
        let c = m.migration_counters();
        assert_eq!(c.started, 32);
        assert_eq!(c.completed, 32);
        assert_eq!(c.aborted(), 0);
        assert_eq!(c.in_flight(), 0);
        assert_eq!(c.batched_pages, 32);
        assert!(
            c.commit_batches >= 1 && c.commit_batches < 32,
            "expected amortized shootdowns, got {} batches",
            c.commit_batches
        );
        // Accesses land on the destination tier afterwards.
        for v in 0..32 {
            assert_eq!(m.tier_of(v), Some(TierId::ALTERNATE));
        }
    }

    #[test]
    fn write_conflict_storm_drives_dirty_retries_then_commit() {
        use crate::faults::{FaultPlan, WriteConflictStorm};
        // The storm dirties the first two copy passes of every transaction;
        // with a retry budget of 3 the third pass validates clean, so every
        // page still commits — after observable retries.
        let mut cfg = txn_cfg();
        cfg.faults = FaultPlan {
            write_conflict_storms: vec![WriteConflictStorm {
                start: SimTime::ZERO,
                end: SimTime::from_ms(100.0),
                hot_fraction: 1.0,
                dirties_per_txn: 2,
            }],
            ..FaultPlan::none()
        };
        let mut m = Machine::new(cfg);
        m.place_range(0..32, TierId::DEFAULT);
        for v in 0..8 {
            m.enqueue_migration(v, TierId::ALTERNATE).unwrap();
        }
        let rep = m.run_tick(SimTime::from_ms(5.0));
        assert_eq!(m.migrated_pages(), 8);
        assert!(rep.failed_migrations.is_empty());
        let c = m.migration_counters();
        assert_eq!(c.completed, 8);
        assert_eq!(c.aborted(), 0);
        assert_eq!(
            c.dirty_retries, 16,
            "each of 8 transactions re-copies twice"
        );
        assert_eq!(rep.txn.dirty_retries, 16);
        assert_eq!(rep.fault_stats.storm_dirties, 16);
    }

    #[test]
    fn retry_exhaustion_aborts_cleanly_and_releases_reservation() {
        use crate::faults::{FaultPlan, WriteConflictStorm};
        // The storm outlasts the retry budget: every pass dirties, so every
        // transaction aborts with `WriteConflict` — source page intact,
        // reservation released, abort typed in the report.
        let mut cfg = txn_cfg();
        cfg.engine.dirty_retry_max = 2;
        cfg.faults = FaultPlan {
            write_conflict_storms: vec![WriteConflictStorm {
                start: SimTime::ZERO,
                end: SimTime::from_ms(100.0),
                hot_fraction: 1.0,
                dirties_per_txn: u32::MAX,
            }],
            ..FaultPlan::none()
        };
        let mut m = Machine::new(cfg);
        m.place_range(0..16, TierId::DEFAULT);
        for v in 0..4 {
            m.enqueue_migration(v, TierId::ALTERNATE).unwrap();
        }
        let rep = m.run_tick(SimTime::from_ms(5.0));
        assert_eq!(m.migrated_pages(), 0);
        assert_eq!(m.used_pages(TierId::ALTERNATE), 0);
        assert_eq!(rep.failed_migrations.len(), 4);
        for f in &rep.failed_migrations {
            assert_eq!(f.reason, AbortReason::WriteConflict);
            assert_eq!(m.tier_of(f.vpn), Some(TierId::DEFAULT));
        }
        let c = m.migration_counters();
        assert_eq!(c.aborted_write_conflict, 4);
        assert_eq!(c.in_flight(), 0);
        assert_eq!(rep.txn.aborted_write_conflict, 4);
        // Released frames are immediately reusable.
        m.enqueue_migration(0, TierId::ALTERNATE).unwrap();
    }

    #[test]
    fn stalled_channel_fails_over_to_healthy_one() {
        use crate::faults::{ChannelStall, FaultPlan};
        // Slow copies (1 ms/page) so the stall lands mid-copy: channel 0
        // freezes shortly after its first pass begins, the watchdog fires,
        // and the transaction finishes on channel 1. The watchdog must
        // outlast a healthy copy pass or it punishes the innocent.
        let mut cfg = txn_cfg();
        cfg.engine.channels = 2;
        cfg.engine.watchdog = SimTime::from_ms(2.0);
        cfg.migration_bandwidth = PAGE_SIZE as f64 * 1000.0; // 1 ms/page
        cfg.faults = FaultPlan {
            channel_stalls: vec![ChannelStall {
                channel: 0,
                start: SimTime::from_us(10.0),
                end: SimTime::from_ms(50.0),
            }],
            ..FaultPlan::none()
        };
        let mut m = Machine::new(cfg);
        m.place_range(0..8, TierId::DEFAULT);
        for v in 0..4 {
            m.enqueue_migration(v, TierId::ALTERNATE).unwrap();
        }
        let rep = m.run_tick(SimTime::from_ms(20.0));
        assert_eq!(m.migrated_pages(), 4, "failover rescued every page");
        assert!(rep.failed_migrations.is_empty());
        let c = m.migration_counters();
        assert!(c.failovers >= 1, "watchdog should have fired: {c:?}");
        assert_eq!(c.completed, 4);
        assert_eq!(c.in_flight(), 0);
        assert_eq!(rep.txn.failovers, c.failovers);
    }

    #[test]
    fn watchdog_aborts_when_no_healthy_channel_exists() {
        use crate::faults::{ChannelStall, FaultPlan};
        // Single channel, stalled mid-copy with nowhere to fail over: the
        // watchdog bounds the transaction's lifetime by aborting it.
        let mut cfg = txn_cfg();
        cfg.engine.channels = 1;
        cfg.migration_bandwidth = PAGE_SIZE as f64 * 1000.0; // 1 ms/page
        cfg.faults = FaultPlan {
            channel_stalls: vec![ChannelStall {
                channel: 0,
                start: SimTime::from_us(10.0),
                end: SimTime::from_ms(50.0),
            }],
            ..FaultPlan::none()
        };
        let mut m = Machine::new(cfg);
        m.place_range(0..8, TierId::DEFAULT);
        m.enqueue_migration(0, TierId::ALTERNATE).unwrap();
        let rep = m.run_tick(SimTime::from_ms(10.0));
        assert_eq!(m.migrated_pages(), 0);
        assert_eq!(
            rep.failed_migrations,
            vec![FailedMigration {
                vpn: 0,
                dst: TierId::ALTERNATE,
                reason: AbortReason::Watchdog,
            }]
        );
        assert_eq!(m.tier_of(0), Some(TierId::DEFAULT));
        let c = m.migration_counters();
        assert_eq!(c.aborted_watchdog, 1);
        assert_eq!(c.in_flight(), 0);
        assert_eq!(rep.txn.aborted_watchdog, 1);
    }

    #[test]
    fn supervisor_tuning_overrides_batch_and_inflight() {
        let mut m = Machine::new(txn_cfg());
        assert_eq!(m.engine_tuning(), (8, 4));
        m.set_shootdown_batch(Some(2));
        m.set_max_inflight_txns(Some(1));
        assert_eq!(m.engine_tuning(), (2, 1));
        // Overrides are clamped to sane floors/ceilings.
        m.set_shootdown_batch(Some(0));
        m.set_max_inflight_txns(Some(99));
        assert_eq!(m.engine_tuning(), (1, 4));
        m.set_shootdown_batch(None);
        m.set_max_inflight_txns(None);
        assert_eq!(m.engine_tuning(), (8, 4));
        // A throttled engine still moves every page, just more serially.
        m.set_max_inflight_txns(Some(1));
        m.place_range(0..16, TierId::DEFAULT);
        for v in 0..8 {
            m.enqueue_migration(v, TierId::ALTERNATE).unwrap();
        }
        m.run_tick(SimTime::from_ms(5.0));
        assert_eq!(m.migrated_pages(), 8);
    }

    #[test]
    fn transactional_flag_off_leaves_legacy_engine_bit_identical() {
        // Exotic engine knobs must be inert while `transactional` is off:
        // the legacy engine's report stream may not move by a single byte.
        let mut exotic = MachineConfig::icelake_two_tier();
        exotic.engine.channels = 7;
        exotic.engine.dirty_retry_max = 1;
        exotic.engine.shootdown_batch = 3;
        exotic.engine.shootdown_cost = SimTime::from_us(123.0);
        exotic.engine.watchdog = SimTime::from_us(5.0);
        let mut a = Machine::new(MachineConfig::icelake_two_tier());
        let mut b = Machine::new(exotic);
        for m in [&mut a, &mut b] {
            m.place_range(0..256, TierId::DEFAULT);
        }
        for tick in 0..4u64 {
            for v in (tick * 32)..(tick * 32 + 16) {
                let ra = a.enqueue_migration(v, TierId::ALTERNATE);
                let rb = b.enqueue_migration(v, TierId::ALTERNATE);
                assert_eq!(ra, rb);
            }
            let ra = a.run_tick(SimTime::from_ms(1.0));
            let rb = b.run_tick(SimTime::from_ms(1.0));
            assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
        }
        assert_eq!(a.migrated_pages(), b.migrated_pages());
    }

    /// A machine with pages on both tiers, copies queued and in flight and
    /// some committed, so every book the checker reads is in use.
    fn busy_machine(transactional: bool) -> Machine {
        let mut cfg = if transactional {
            txn_cfg()
        } else {
            MachineConfig::icelake_two_tier()
        };
        cfg.tiers[0].capacity_bytes = 128 * PAGE_SIZE;
        let mut m = Machine::new(cfg);
        m.place_range(0..64, TierId::DEFAULT);
        m.place_range(64..96, TierId::ALTERNATE);
        for vpn in 0..48 {
            m.enqueue_migration(vpn, TierId::ALTERNATE).unwrap();
        }
        m.run_tick(SimTime::from_us(20.0));
        let c = m.migration_counters();
        assert!(m.migration_backlog() > 0 && c.in_flight() > 0 && c.completed > 0);
        assert_eq!(m.check_invariants(), []);
        m
    }

    /// Ticks a busy machine, bumps one book through `Shared`, and sees
    /// exactly the violation that book's check reports.
    #[test]
    fn each_check_reports_exactly_its_corrupted_book() {
        use Violation::*;
        type Case = (bool, fn(&mut Shared), fn(&[Violation]) -> bool);
        let cases: [Case; 8] = [
            (
                false,
                |sh| sh.used_pages[1] += 1,
                |f| matches!(f, [Residency { tier: TierId(1), mapped, used }] if *used == mapped + 1),
            ),
            (
                false,
                |sh| sh.placed += 1,
                |f| matches!(f, [PagesLost { mapped, placed }] if *placed == mapped + 1),
            ),
            (
                false,
                |sh| sh.mig_inflight_to[1] += 1,
                |f| matches!(f, [Reservations { tier: TierId(1), held, copies }] if *held == copies + 1),
            ),
            (
                true,
                |sh| sh.mig_pending[80] += 1,
                |f| matches!(f, [Pending { vpn: 80, count, copies }] if *count == copies + 1),
            ),
            (
                false,
                |sh| sh.mig_counters.started += 1,
                |f| matches!(f, [Ledger { begun, ended, live }] if *begun == ended + live + 1),
            ),
            (
                true,
                |sh| sh.mig_counters.batched_pages += 1,
                |f| matches!(f, [Unbatched { completed, batched }] if *batched == completed + 1),
            ),
            (
                false,
                |sh| sh.cfg.tiers[0].capacity_bytes = PAGE_SIZE,
                |f| matches!(f, [OverCapacity { tier: TierId(0), frames, cap: 1 }] if *frames > 1),
            ),
            // The exclusive mode batches nothing, so it keeps no batch books.
            (
                false,
                |sh| sh.mig_counters.batched_pages += 1,
                |f| f.is_empty(),
            ),
        ];
        for (i, (transactional, corrupt, expected)) in cases.into_iter().enumerate() {
            let mut m = busy_machine(transactional);
            corrupt(&mut m.sh);
            let found = m.check_invariants();
            assert!(expected(&found), "case {i}: {found:?}");
        }
    }
}
