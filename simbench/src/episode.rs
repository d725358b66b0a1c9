//! One episode: build a workload, run a fixed number of closed-loop
//! ticks, time each tick on the host, fold the simulated output into a
//! digest, and check the machine's books at the end.

use std::time::Instant;

use memsim::{TickReport, TierId, TrafficClass, TxnTickStats, LINE_SIZE};
use simkit::profile;

use crate::layers::Snapshot;
use crate::scenario::{Control, Sim, Workload};

/// Simulated counts of one episode. They repeat exactly for a seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Cache-line transfers over every tier and traffic class.
    pub lines: u64,
    /// Application operations completed.
    pub app_ops: u64,
    /// Migrations the engine started.
    pub mig_started: u64,
    /// Migrations committed.
    pub mig_completed: u64,
    /// Migrations aborted, any reason.
    pub mig_aborted: u64,
    /// Copy passes restarted after a dirtied snapshot.
    pub mig_dirty_retries: u64,
    /// Channel failovers.
    pub mig_failovers: u64,
    /// Largest end-of-tick migration queue.
    pub mig_backlog_max: u64,
    /// Signals ingested by the hotness policies.
    pub policy_signals: u64,
    /// Entries parked in the retry queues.
    pub retry_scheduled: u64,
    /// Retries abandoned at the attempt cap.
    pub retry_gave_up: u64,
    /// Migrations vetoed by the QoS arbiter (hooks and policy).
    pub tenancy_vetoes: u64,
    /// Pages the arbiter's rebalancer demoted.
    pub tenancy_reclaimed: u64,
    /// Telemetry events emitted.
    pub telemetry_events: u64,
    /// Bytes written by the observatory's exporters.
    pub export_bytes: u64,
}

/// Result of the end-of-episode correctness checks.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Checks evaluated.
    pub run: u64,
    /// Description of every failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.run += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Adds another set of results to this one.
    pub fn absorb(&mut self, other: Checks) {
        self.run += other.run;
        self.failures.extend(other.failures);
    }
}

/// Everything one episode produced.
#[derive(Debug, Clone, Default)]
pub struct Episode {
    /// Host seconds of each tick (`run_tick`, the control plane's
    /// reaction, and any scrape).
    pub tick_s: Vec<f64>,
    /// Cache-line transfers simulated in each tick.
    pub tick_lines: Vec<u64>,
    /// Digest of the per-tick simulated output, after every tick.
    pub digests: Vec<u64>,
    /// Simulated counts.
    pub counts: Counts,
    /// Correctness checks.
    pub checks: Checks,
    /// Per-layer self time and calls of each tick (traced episodes only).
    pub trace: Option<Vec<Snapshot>>,
    /// Host seconds this thread waited on the run queue during the ticks.
    pub runq_wait_s: f64,
    /// Simulated seconds covered.
    pub sim_s: f64,
    /// Arrival-weighted mean application access latency, simulated ns.
    pub app_latency_ns: f64,
}

impl Episode {
    /// Host seconds of all ticks.
    pub fn wall_s(&self) -> f64 {
        self.tick_s.iter().sum()
    }

    /// The digest after the last tick.
    pub fn digest(&self) -> u64 {
        *self
            .digests
            .last()
            .expect("an episode runs at least one tick")
    }
}

/// FNV-1a accumulator over 64-bit words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn report(&mut self, r: &TickReport) {
        self.word(r.t_end.as_ps());
        self.word(r.app_ops);
        self.word(r.migrated_bytes);
        self.word(r.migration_backlog as u64);
        for t in &r.tiers {
            self.word(t.occupancy.to_bits());
            self.word(t.arrivals);
            self.word(t.rate_per_ns.to_bits());
            for b in t.bytes_by_class {
                self.word(b);
            }
        }
        for l in &r.true_latency_ns {
            self.word(l.map_or(u64::MAX, f64::to_bits));
        }
        self.word(r.pebs.len() as u64);
        self.word(r.faults.len() as u64);
        self.word(r.failed_migrations.len() as u64);
        let x = &r.txn;
        for w in [
            x.begun,
            x.committed,
            x.aborted_write_conflict,
            x.aborted_watchdog,
            x.dirty_retries,
            x.failovers,
            x.commit_batches,
        ] {
            self.word(w);
        }
    }
}

/// Cumulative run-queue wait of this thread in seconds, from
/// `/proc/thread-self/schedstat`; zero where the file is unavailable.
pub fn runq_wait_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 * 1e-9)
}

fn add_txn(sum: &mut TxnTickStats, t: &TxnTickStats) {
    sum.begun += t.begun;
    sum.committed += t.committed;
    sum.aborted_write_conflict += t.aborted_write_conflict;
    sum.aborted_watchdog += t.aborted_watchdog;
    sum.dirty_retries += t.dirty_retries;
    sum.failovers += t.failovers;
    sum.commit_batches += t.commit_batches;
}

/// Runs `ticks` ticks of `workload`. A traced episode builds the traced
/// variant, enables the profiler for its duration, and records the
/// per-tick layer split.
pub fn run(workload: Workload, seed: u64, ticks: usize, traced: bool) -> Episode {
    let mut sim = Sim::build(workload, seed, traced);

    if traced {
        profile::reset();
        profile::set_enabled(true);
    }
    let mut tick_s = Vec::with_capacity(ticks);
    let mut tick_lines = Vec::with_capacity(ticks);
    let mut digests = Vec::with_capacity(ticks);
    let mut trace = traced.then(Vec::new);
    let mut prev = Snapshot::default();
    let mut digest = Digest(0xcbf2_9ce4_8422_2325);
    let mut txn = TxnTickStats::default();
    let mut counts = Counts::default();
    let (mut lat_weighted, mut app_bytes) = (0.0, 0.0);
    let wait0 = runq_wait_s();
    for _ in 0..ticks {
        let start = Instant::now();
        let report = {
            let _p = profile::scope("bench.tick");
            sim.step()
        };
        tick_s.push(start.elapsed().as_secs_f64());
        if let Some(tr) = &mut trace {
            let now = Snapshot::now();
            tr.push(now.since(&prev));
            prev = now;
        }
        digest.report(&report);
        digests.push(digest.0);
        add_txn(&mut txn, &report.txn);
        counts.app_ops += report.app_ops;
        let lines = report
            .tiers
            .iter()
            .flat_map(|t| t.bytes_by_class)
            .sum::<u64>()
            / LINE_SIZE;
        tick_lines.push(lines);
        counts.lines += lines;
        counts.mig_backlog_max = counts.mig_backlog_max.max(report.migration_backlog as u64);
        for t in &report.tiers {
            if let Some(l) = t.littles_latency_ns() {
                let b = t.bytes_by_class[TrafficClass::App.index()] as f64;
                lat_weighted += l * b;
                app_bytes += b;
            }
        }
    }
    let runq_wait_s = runq_wait_s() - wait0;
    if traced {
        profile::set_enabled(false);
    }

    let mig = sim.machine.migration_counters();
    counts.mig_started = mig.started;
    counts.mig_completed = mig.completed;
    counts.mig_aborted = mig.aborted();
    counts.mig_dirty_retries = mig.dirty_retries;
    counts.mig_failovers = mig.failovers;
    for s in sim.systems() {
        if let Some(p) = s.policy_stats() {
            counts.policy_signals += p.signals;
        }
        if let Some(r) = s.retry_stats() {
            counts.retry_scheduled += r.scheduled;
            counts.retry_gave_up += r.gave_up;
        }
    }
    if let Control::Colo(obs) = &sim.control {
        if let Some(arb) = &obs.colo.arbiter {
            counts.tenancy_vetoes = arb
                .reports()
                .iter()
                .map(|r| r.hook_vetoes + r.policy_vetoes)
                .sum();
            counts.tenancy_reclaimed = arb.reclaimed_pages;
        }
        counts.telemetry_events = obs.events();
        counts.export_bytes = obs.export_bytes;
    }

    let mut checks = Checks::default();
    check_pages(&sim, &mut checks);
    check_ledger(&sim, &txn, &mut checks);
    check_tracked(&sim, &mut checks);

    Episode {
        tick_s,
        tick_lines,
        digests,
        counts,
        checks,
        trace,
        runq_wait_s,
        sim_s: sim.machine.now().as_secs(),
        app_latency_ns: if app_bytes > 0.0 {
            lat_weighted / app_bytes
        } else {
            0.0
        },
    }
}

/// Page conservation: every page the workload mapped is still mapped,
/// nothing else is, each tier's books match its pages plus the
/// reservations of queued and in-flight migrations, and every tenant
/// still owns all of its pages.
fn check_pages(sim: &Sim, checks: &mut Checks) {
    let m = &sim.machine;
    let n_tiers = m.config().tiers.len();
    let mut per_tier = vec![0u64; n_tiers];
    for vpn in 0..m.config().virtual_pages {
        if let Some(t) = m.tier_of(vpn) {
            per_tier[t.index()] += 1;
        }
    }
    let mapped: u64 = per_tier.iter().sum();
    let expected: u64 = sim.mapped.iter().map(|r| r.end - r.start).sum();
    let lost = sim
        .mapped
        .iter()
        .flat_map(|r| r.clone())
        .filter(|&v| m.tier_of(v).is_none())
        .count();
    checks.check(lost == 0 && mapped == expected, || {
        format!("pages: {lost} of {expected} lost, {mapped} mapped in total")
    });

    let mut reserved = 0u64;
    let mut tiers_ok = true;
    for (i, &pages) in per_tier.iter().enumerate() {
        let t = TierId(i as u8);
        let used = m.used_pages(t);
        tiers_ok &= pages <= used && used <= m.capacity_pages(t);
        reserved += used.saturating_sub(pages);
    }
    let mig = m.migration_counters();
    let pending = m.migration_backlog() as u64 + mig.in_flight();
    checks.check(tiers_ok && reserved == pending, || {
        format!(
            "tier books: per-tier pages {per_tier:?}, {reserved} reserved frames for \
             {pending} queued or in-flight migrations"
        )
    });

    if let Control::Colo(obs) = &sim.control {
        let bad: Vec<_> = obs
            .colo
            .tenants
            .iter()
            .filter(|t| {
                (0..n_tiers)
                    .map(|i| t.resident_in(m, TierId(i as u8)))
                    .sum::<u64>()
                    != t.pages()
            })
            .map(|t| t.spec.name)
            .collect();
        checks.check(bad.is_empty(), || format!("tenants lost pages: {bad:?}"));
    }
}

/// Double entry: the per-tick transaction deltas sum to the engine's
/// cumulative counters.
fn check_ledger(sim: &Sim, sums: &TxnTickStats, checks: &mut Checks) {
    let c = sim.machine.migration_counters();
    let books = TxnTickStats {
        begun: c.started,
        committed: c.completed,
        aborted_write_conflict: c.aborted_write_conflict,
        aborted_watchdog: c.aborted_watchdog,
        dirty_retries: c.dirty_retries,
        failovers: c.failovers,
        commit_batches: c.commit_batches,
    };
    checks.check(*sums == books, || {
        format!("ledger: per-tick sums {sums:?} != counters {books:?}")
    });
}

/// Each hotness policy tracks exactly the pages its system manages.
fn check_tracked(sim: &Sim, checks: &mut Checks) {
    for (s, range) in sim.systems().into_iter().zip(sim.managed()) {
        let tracked = s.policy_stats().map(|p| p.tracked);
        let managed = range.end - range.start;
        checks.check(tracked == Some(managed), || {
            format!(
                "{}: policy tracks {tracked:?} pages, manages {managed}",
                s.name()
            )
        });
    }
}
