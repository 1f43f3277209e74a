//! Work-stealing thread-pool executor.
//!
//! Mirrors the paper's x86 SRE deployment — an input feeder (the thread
//! that called [`run`]) pushes blocks into the system, every block due at
//! the same moment in one batch, and worker threads execute ready tasks —
//! but, unlike the original single-lock runtime (deleted: DESIGN.md §3 has
//! the measurements), no worker ever *waits* for the global scheduler lock,
//! and there is no SuperTask thread: the SuperTask role is taken, turn by
//! turn, by whichever thread holds the commit lock. Settling, recovery and
//! accounting are the executor core's ([`super::core`], which also
//! describes the fault handling); this module is its wall clock and
//! transport.
//!
//! * **Sharded dispatch.** A *dispatch pump*, run at the end of every
//!   commit-path turn, batches [`Scheduler::dispatch_with`] pops out of
//!   the central ready queue into per-worker *ready lanes* (bounded at 4×
//!   the worker count so policy decisions stay fresh). Pushes prefer lanes
//!   whose workers are awake; workers pop their own lane from the front
//!   and, when theirs runs dry, steal the *front* of another lane — the
//!   entry the policy ranked first there (a check, a predictor, a chain's
//!   next hop), which must not wait for a descheduled worker while thieves
//!   take the work dispatched after it. Tasks here are
//!   coarse-grain (tens of µs to ms), so a `Mutex<VecDeque>` per lane is
//!   plenty and keeps the crate `forbid(unsafe_code)`-clean.
//! * **Epoch-checked rollback.** Rollback stays O(1): [`Scheduler::
//!   abort_version`] never chases entries already bound into lanes. Instead
//!   every batch is stamped with the global abort epoch ([`AtomicU64`]); a
//!   version abort bumps the epoch, and a worker re-validates any stamped
//!   task whose epoch is stale against its (already signalled) abort flag
//!   before running it. Cancelled tasks are routed back to the scheduler as
//!   ready deletions — the paper's "ready tasks must be deleted" — without
//!   ever executing.
//! * **Parker wake-up.** Idle workers park ([`std::thread::park_timeout`])
//!   instead of polling a condvar every 5 ms, and waking is demand-driven:
//!   the pump unparks *one* worker only while the lane backlog exceeds
//!   what the awake set (capped at `available_parallelism`) will drain
//!   anyway; ramp-up to full width happens by wake chaining on every
//!   successful grab. A hot system never pays a syscall per task the way
//!   a `notify_all` storm does, and an over-provisioned one never turns
//!   queue depth into futex churn.
//! * **Completions routed where they finish (flat combining).** A worker
//!   that finishes a task pushes its report onto a bounded **lock-free
//!   commit log** ([`super::commit_log::CommitRing`]) and then `try_lock`s
//!   the commit lock. Whoever holds that lock — this worker, another
//!   worker, an idle worker about to park, the feeder after a batch,
//!   the watchdog or the supervisor — takes a *turn* ([`turn`]): drain the
//!   ring, run the worker-epoch gate, charge, settle, pump the lanes and
//!   evaluate run completion. A successor on the DFG's critical path
//!   (reduce chain, offset chain, check → rollback) is therefore spawned by
//!   the thread that produced its input, without an OS scheduling round
//!   trip to a router thread; and a failed `try_lock` costs the worker
//!   nothing, so workload routing code still never blocks a worker.
//!
//!   *No report is stranded.* (1) A producer pushes, then `try_lock`s
//!   ([`combine`]). (2) Every holder, after unlocking, re-checks the ring
//!   and takes another turn if it is non-empty and the lock is still free
//!   ([`turn`]'s `again`). Both sides put a `SeqCst` fence between their
//!   write and their read (push → fence → `try_lock`; unlock → fence →
//!   `is_empty`), so — Dekker again — either the producer finds the lock
//!   free or the holder finds the report; if the lock was taken by a
//!   *third* thread in between, the same argument applies to that holder,
//!   and the last holder in the chain sees the report. (3) As a backstop
//!   a worker re-checks the ring after publishing itself parked and does
//!   not sleep while a report is visible: it goes round and `try_lock`s.
//!
//! The figure benches use the deterministic simulator instead; this
//! executor exists to run the system end-to-end on real threads and to
//! cross-validate outputs: both executors run the *same* `Workload`
//! implementations.

use super::commit_log::CommitRing;
use super::core::{
    assert_schedule, clock_slice, into_inner_recover, lock_recover, run_body, Core, Env, Injection,
    Report, RunError, Span, SupervisorConfig, WatchdogConfig, DEFAULT_MAX_ATTEMPTS,
};
use crate::instruments::Instruments;
use crate::metrics::RunMetrics;
use crate::policy::DispatchPolicy;
use crate::sched::{Dispatched, Scheduler};
use crate::task::{TaskClass, TaskCtx, Time};
use crate::workload::{InputBlock, Workload};
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};
use tvs_faults::{FaultKind, FaultSite};
use tvs_metrics::{Counter, Gauge, Hist};
use tvs_trace::EventKind;

/// Configuration of a threaded run.
#[derive(Clone, Debug)]
pub struct ThreadedConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Body attempts a panicking non-speculative task gets, initial run
    /// included; retries back off with jitter.
    pub max_attempts: u32,
    /// Watchdog over long-running tasks; `None` disables it.
    pub watchdog: Option<WatchdogConfig>,
    /// Worker supervision (heartbeats, quarantine, respawn); `None`
    /// disables it.
    pub supervisor: Option<SupervisorConfig>,
}

impl ThreadedConfig {
    /// A config with default fault handling: bounded retry, no watchdog,
    /// no supervision.
    pub fn new(workers: usize) -> Self {
        ThreadedConfig {
            workers,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
            watchdog: None,
            supervisor: None,
        }
    }
}

/// How close to a block's due time the feeder stops sleeping and yields
/// instead (see [`Fabric::wait_until`]).
const FEEDER_SPIN_US: u64 = 200;

/// A dispatched task parked in a worker lane, stamped with the abort epoch
/// current when the pump bound it.
struct Ready {
    work: Dispatched,
    epoch: u64,
}

struct Parker {
    /// The lane's current worker thread. A mutex (not a `OnceLock`)
    /// because supervision respawns workers: a replacement installs its
    /// own handle over the quarantined incarnation's.
    handle: Mutex<Option<std::thread::Thread>>,
    parked: AtomicBool,
}

/// What the watchdog sees of the task a worker is currently running.
struct WatchSlot {
    span: Span,
    flag: Arc<AtomicBool>,
    /// Set once the watchdog has cancelled this occupancy, so one stuck
    /// task is cancelled exactly once.
    flagged: bool,
}

/// Lock-free-ish fabric shared by workers: ready lanes, parkers, the commit
/// log and the counters that let the pump and the policy observe lane state
/// without the commit lock, and the run's input they lend to task bodies.
struct Fabric<'a> {
    lanes: Vec<Mutex<VecDeque<Ready>>>,
    /// Completion log: workers produce, the commit-lock holder consumes.
    /// Bounded so a stalled commit path back-pressures workers instead of
    /// buffering unboundedly; wide enough that a short-task storm rarely
    /// spins on a full ring.
    ring: CommitRing<Finished>,
    parkers: Vec<Parker>,
    /// Bumped by every version abort; lanes re-validate stale stamps.
    abort_epoch: AtomicU64,
    /// Regular (non-speculative) tasks currently bound in lanes — feeds the
    /// conservative policy's multiple-buffering hint.
    normal_bound: AtomicUsize,
    /// Total tasks currently bound in lanes (pump back-pressure).
    in_lanes: AtomicUsize,
    /// Workers currently parked (see [`Fabric::wake_for_work`]).
    parked_count: AtomicUsize,
    /// How many workers are worth keeping awake: `min(workers,
    /// available_parallelism)`. Waking more than the hardware can run
    /// just converts queue depth into futex churn.
    target_awake: usize,
    /// Yield-spin budget before a worker parks. Zero when the hardware has
    /// a single execution unit: there, spinning only steals the quantum
    /// from the thread being waited on.
    spin_limit: u32,
    /// Round-robin cursor for lane routing.
    next_lane: AtomicUsize,
    /// Per-lane worker incarnation. Completion reports are stamped with
    /// the reporting incarnation's epoch; the commit path rejects reports
    /// whose epoch no longer matches (the worker was quarantined), so a
    /// presumed-dead worker's straggling completions are re-fed instead of
    /// double-committed.
    worker_epoch: Vec<AtomicU64>,
    /// Per-lane heartbeat stamp (µs since run start), refreshed at the top
    /// of every worker loop iteration. Only maintained and consulted when
    /// supervision is configured — unsupervised runs skip the stamp (and
    /// the epoch poll) to keep the short-task hot loop free of them.
    heartbeat: Vec<AtomicU64>,
    /// Whether a supervisor thread is running (gates the heartbeat stamp
    /// and quarantine poll in the worker loop).
    supervised: bool,
    done: AtomicBool,
    start: Instant,
    /// Per-worker slot describing the currently-running task, for the
    /// watchdog. Only maintained when the watchdog is configured.
    watch: Vec<Mutex<Option<WatchSlot>>>,
    watchdog_enabled: bool,
    /// Body attempts a panicking non-speculative task gets.
    max_attempts: u32,
    /// The run's tracer, hub and fault plan. Dispatch events go to the
    /// control ring (the pump always runs under the commit lock, so that
    /// ring has one writer at a time); worker-side events go to each
    /// worker's own ring. The hub is *always* backed by a registry here (at
    /// least [`tvs_metrics::MetricsHub::internal`]): [`RunMetrics`] and live
    /// snapshots read the same cells, and nothing is counted twice.
    ins: Instruments,
    /// The run's input, borrowed from the caller of [`run`] for the whole
    /// scope: every body reads its blocks here, in place.
    input: &'a [u8],
}

impl<'a> Fabric<'a> {
    fn new(cfg: &ThreadedConfig, ins: Instruments, input: &'a [u8]) -> Self {
        let workers = cfg.workers;
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(workers);
        Fabric {
            lanes: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            ring: CommitRing::with_capacity((64 * workers).max(1024)),
            parkers: (0..workers)
                .map(|_| Parker {
                    handle: Mutex::new(None),
                    parked: AtomicBool::new(false),
                })
                .collect(),
            abort_epoch: AtomicU64::new(0),
            normal_bound: AtomicUsize::new(0),
            in_lanes: AtomicUsize::new(0),
            parked_count: AtomicUsize::new(0),
            target_awake: hw.min(workers).max(1),
            spin_limit: if hw > 1 { 3 } else { 0 },
            next_lane: AtomicUsize::new(0),
            worker_epoch: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            heartbeat: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            supervised: cfg.supervisor.is_some(),
            done: AtomicBool::new(false),
            start: Instant::now(),
            watch: (0..workers).map(|_| Mutex::new(None)).collect(),
            // The supervisor also needs the watch slots: quarantining a
            // wedged worker signals the abort flag of whatever it was
            // running, which is what unsticks abort-aware bodies and
            // injected stalls.
            watchdog_enabled: cfg.watchdog.is_some() || cfg.supervisor.is_some(),
            max_attempts: cfg.max_attempts,
            ins,
            input,
        }
    }

    fn now(&self) -> Time {
        self.start.elapsed().as_micros() as Time
    }

    /// What a workload callback run at `now` sees of this executor.
    fn env(&self, now: Time) -> Env<'_> {
        Env {
            now,
            workers: self.lanes.len(),
            max_task_bytes: None,
            abort_epoch: Some(&self.abort_epoch),
        }
    }

    /// Block the calling thread until `due` (µs on the run's clock): sleep
    /// to within [`FEEDER_SPIN_US`] of it, then yield until it. A plain
    /// sleep overshoots by about that much on a loaded box, and every
    /// microsecond a block is handed over late is latency the arrival
    /// schedule did not ask for.
    fn wait_until(&self, due: Time) {
        let due = Duration::from_micros(due);
        let spin = Duration::from_micros(FEEDER_SPIN_US);
        while let Some(left) = due.checked_sub(self.start.elapsed()) {
            if left > spin {
                std::thread::sleep(left - spin);
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Bind a dispatched task into the next lane (round-robin over lanes
    /// whose workers are awake — work bound to a parked worker's lane costs
    /// either a steal scan or a park/unpark round trip, so prefer lanes
    /// that will be drained without one; fall back to plain round-robin
    /// when everyone is parked).
    fn push(&self, work: Dispatched, epoch: u64) {
        let n = self.lanes.len();
        let mut lane = self.next_lane.fetch_add(1, Ordering::Relaxed) % n;
        if self.parkers[lane].parked.load(Ordering::Relaxed) {
            for off in 1..n {
                let alt = (lane + off) % n;
                if !self.parkers[alt].parked.load(Ordering::Relaxed) {
                    lane = alt;
                    break;
                }
            }
        }
        if work.class == TaskClass::Regular {
            self.normal_bound.fetch_add(1, Ordering::SeqCst);
        }
        self.ins.metrics.add(lane, Counter::LaneDispatch, 1);
        if self.ins.tracer.is_enabled() {
            self.ins.tracer.emit_control(EventKind::Dispatch {
                id: work.id,
                name: work.name,
                class: work.class.trace_tag(),
                version: work.version,
                lane: lane as u32,
            });
        }
        // `in_lanes` rises before the entry is visible so a racing parker's
        // re-check errs towards staying awake, never towards sleeping on
        // available work.
        self.in_lanes.fetch_add(1, Ordering::SeqCst);
        lock_recover(&self.lanes[lane]).push_back(Ready { work, epoch });
    }

    /// Take work for worker `me`: own lane front first, then the *front* of
    /// another lane. A lane is filled in dispatch order, so its front is
    /// what the policy ranked first — a check, a predictor, the next hop of
    /// a chain — and a lane's own worker can be descheduled for
    /// milliseconds: thieves that took the newest entry would let a check
    /// wait behind every encode dispatched after it, for as long as that
    /// worker stays off the CPU. The second element is the victim lane when
    /// the task was stolen.
    fn grab(&self, me: usize) -> Option<(Ready, Option<usize>)> {
        if let Some(r) = lock_recover(&self.lanes[me]).pop_front() {
            self.on_take(&r);
            return Some((r, None));
        }
        let n = self.lanes.len();
        for off in 1..n {
            let victim = (me + off) % n;
            if let Some(r) = lock_recover(&self.lanes[victim]).pop_front() {
                self.on_take(&r);
                return Some((r, Some(victim)));
            }
        }
        None
    }

    fn on_take(&self, r: &Ready) {
        self.in_lanes.fetch_sub(1, Ordering::SeqCst);
        if r.work.class == TaskClass::Regular {
            self.normal_bound.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Demand-driven wake-up: unpark *one* worker, and only when the lane
    /// backlog exceeds what the currently-awake workers will drain anyway.
    /// Awake workers always return to [`Fabric::grab`], so they need no
    /// wake; and waking beyond `target_awake` buys no parallelism. Ramp-up
    /// to full width happens by chaining — every successful grab calls this
    /// again, so each woken worker can wake the next while backlog remains.
    ///
    /// Lost-wakeup safety: a parker increments `parked_count` *before*
    /// re-checking `in_lanes`, and the pump raises `in_lanes` *before*
    /// calling this (both SeqCst). If the parker missed the push, this call
    /// is guaranteed to see `parked_count > 0` with zero awake workers and
    /// wake it (or a sibling, which then grabs the work).
    fn wake_for_work(&self) {
        let parked = self.parked_count.load(Ordering::SeqCst);
        if parked == 0 {
            return;
        }
        let awake = self.lanes.len() - parked.min(self.lanes.len());
        if awake < self.target_awake && self.in_lanes.load(Ordering::SeqCst) > awake {
            for p in &self.parkers {
                if p.parked.swap(false, Ordering::SeqCst) {
                    if let Some(t) = lock_recover(&p.handle).as_ref() {
                        t.unpark();
                    }
                    return;
                }
            }
        }
    }

    /// Unpark everyone, parked flag or not (shutdown path).
    fn wake_all(&self) {
        for p in &self.parkers {
            if let Some(t) = lock_recover(&p.handle).as_ref() {
                t.unpark();
            }
        }
    }

    /// End the run: close the ring so a worker spinning on a full ring (or
    /// racing a late push) fails fast instead of waiting for a drain that
    /// will not come, and wake everyone to exit.
    fn shut_down(&self) {
        self.done.store(true, Ordering::SeqCst);
        self.ring.close();
        self.wake_all();
    }

    /// Reassign a quarantined worker's ready lane: move its bound entries
    /// to the other lanes (round-robin), where live workers drain them
    /// without waiting for the replacement to spin up. The entries stay
    /// lane-bound throughout, so `in_lanes`/`normal_bound` are untouched
    /// and nothing is re-counted as a dispatch.
    fn reassign_lane(&self, from: usize) {
        let n = self.lanes.len();
        if n <= 1 {
            return;
        }
        let moved: Vec<Ready> = lock_recover(&self.lanes[from]).drain(..).collect();
        for (i, r) in moved.into_iter().enumerate() {
            let to = (from + 1 + (i % (n - 1))) % n;
            lock_recover(&self.lanes[to]).push_back(r);
        }
    }
}

/// Everything behind the commit lock: the executor core plus the routing
/// batch. Touched only during a commit-path [`turn`].
struct Inner<W> {
    core: Core<W>,
    /// Reports held back by an injected `DelayCompletion`, and
    /// `DuplicateCompletion` echoes: routed with the next batch, after
    /// everything that shared their own — the reordering is the fault.
    delayed: Vec<Finished>,
    /// The batch being routed (kept for its capacity between turns).
    batch: Vec<Finished>,
}

/// A worker's report to the commit path, stamped with the reporting worker
/// incarnation so the epoch gate can reject reports from quarantined
/// workers (see [`Fabric::worker_epoch`]).
struct Finished {
    span: Span,
    /// Reporting worker's incarnation epoch. `u64::MAX` marks an injected
    /// duplicate-completion echo, which never matches a live epoch — the
    /// echo deliberately exercises the reject path end to end.
    epoch: u64,
    body: Report,
}

/// Refill the worker lanes from the central ready queue. Caller holds the
/// commit lock; the whole batch is stamped with the current abort epoch.
/// Returns whether anything was pushed (i.e. parked workers need a wake).
fn pump(fabric: &Fabric, sched: &mut Scheduler) -> bool {
    let cap = (4 * fabric.lanes.len()).max(16);
    let epoch = fabric.abort_epoch.load(Ordering::SeqCst);
    let mut pushed = false;
    while fabric.in_lanes.load(Ordering::SeqCst) < cap {
        // Re-read the hint per pop: binding a regular task must make the
        // conservative policy decline speculation for the rest of the batch.
        let hint = fabric.normal_bound.load(Ordering::SeqCst) > 0;
        let Some(work) = sched.dispatch_with(hint) else {
            break;
        };
        fabric.push(work, epoch);
        pushed = true;
    }
    pushed
}

fn run_complete<W: Workload>(fabric: &Fabric, core: &mut Core<W>) -> bool {
    let done = core.failed.is_some()
        || (core.workload.is_finished() && core.input_done && core.sched.is_idle());
    if done && core.finished_at.is_none() {
        core.finished_at = Some(fabric.now());
    }
    done
}

/// Route one batch of completion reports: held-back ones first, then up to
/// 256 opportunistic lock-free pops, all under the caller's single
/// commit-lock acquisition — on a short-task storm that amortises the
/// lock/pump/wake cost across the backlog instead of paying it per task.
/// Returns the stamp routing started at, `None` when nothing was pending.
fn route<W: Workload>(fabric: &Fabric, inner: &mut Inner<W>) -> Option<Time> {
    let mut batch = std::mem::take(&mut inner.batch);
    batch.append(&mut inner.delayed);
    while batch.len() < 256 {
        match fabric.ring.pop() {
            Some(f) => batch.push(f),
            None => break,
        }
    }
    if batch.is_empty() {
        inner.batch = batch;
        return None;
    }
    let hub = &fabric.ins.metrics;
    if hub.is_live() {
        // Occupancy *after* the batch pops: what is still waiting behind
        // this drain.
        let occ = fabric.ring.occupancy();
        hub.gauge_set(Gauge::RingOccupancy, occ);
        hub.record(Hist::RingOccupancy, occ);
    }
    let route_from = fabric.now();
    let mut waited_us = 0;
    let core = &mut inner.core;
    for f in batch.drain(..) {
        let (span, env) = (f.span, fabric.env(f.span.finished));
        // Worker-epoch gate: a report whose epoch no longer matches its
        // lane's current incarnation comes from a quarantined worker (or
        // is an injected duplicate echo). Reject it *before* any charging
        // or completion routing — the dead incarnation's work must never
        // double-commit — and recover the task through the fault path.
        if f.epoch != fabric.worker_epoch[span.worker].load(Ordering::SeqCst) {
            hub.add_control(Counter::StaleCompletionsRejected, 1);
            core.recover(env, &span, 0, true);
            continue;
        }
        let mut echo = false;
        if matches!(f.body, Report::Ran(_)) {
            match fabric.ins.faults.draw(FaultSite::Completion) {
                Some(FaultKind::DelayCompletion { .. }) => {
                    inner.delayed.push(f);
                    continue;
                }
                Some(FaultKind::DuplicateCompletion) => echo = true,
                _ => {}
            }
        }
        waited_us += route_from.saturating_sub(span.finished);
        if !matches!(f.body, Report::Cancelled) {
            core.sched.charge(span.class, span.busy());
        }
        core.settle(env, &span, f.body, hub);
        if echo {
            // Deliver the completion a second time, stamped with an epoch
            // no incarnation ever holds: the duplicate flows back through
            // this loop and the worker-epoch gate rejects it — exercising
            // the same path that protects against a quarantined worker's
            // stragglers, instead of quietly absorbing the echo in the
            // scheduler.
            inner.delayed.push(Finished {
                span,
                epoch: u64::MAX,
                body: Report::Faulted { attempt: 0 },
            });
        }
    }
    inner.batch = batch;
    // How long completions waited for the commit path: per routed report,
    // from the task's `finished` stamp to the start of its batch.
    hub.add_control(Counter::TimeRouterWaitUs, waited_us);
    Some(route_from)
}

/// What a commit-path [`turn`] — or a [`combine`] run of them — leaves for
/// its caller.
struct Turn {
    /// The pump bound new work into the lanes.
    pushed: bool,
    /// µs this turn charged to `TimeCommitUs`; a worker moves its own
    /// interval mark past them so no microsecond is charged twice.
    commit_us: Time,
    /// Reports are pending — held back, or published while this turn had
    /// the lock: take another turn if the lock is still free.
    again: bool,
}

/// One commit-path turn, by whoever holds the commit lock: run `entry`
/// (the feeder's batch, the watchdog's cancel, … — nothing for a worker),
/// route what the commit log holds, pump the lanes, evaluate run
/// completion; then unlock, wake, and re-check the ring — the holder's half
/// of the no-stranding argument in the module docs.
///
/// Control-ring trace events and control-shard gauges are only written
/// from here, so they keep one writer at a time. A panicking workload
/// callback is caught *inside* the lock hold: the lock is not poisoned,
/// the run fails with a [`RunError`], and shutdown takes the normal path.
fn turn<W: Workload>(
    fabric: &Fabric,
    mut guard: MutexGuard<'_, Inner<W>>,
    entry: impl FnOnce(&mut Core<W>),
) -> Turn {
    let inner = &mut *guard;
    let routed = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        entry(&mut inner.core);
        route(fabric, &mut *inner)
    })) {
        Ok(routed) => routed,
        Err(_) => {
            inner.core.failed.get_or_insert(RunError::WorkerLost {
                what: "workload callback",
            });
            None
        }
    };
    let pushed = pump(fabric, &mut inner.core.sched);
    // Held-back reports (injected delays and duplicate echoes) must flow
    // through the gate before the run can end, or a last-batch echo would
    // never exercise the reject path. One more turn drains them.
    let held_back = !inner.delayed.is_empty();
    let done = run_complete(fabric, &mut inner.core) && !held_back;
    drop(guard);
    // Commit-path time: the whole routed batch under one lock acquisition
    // (one add per batch, not per task).
    let commit_us = routed.map_or(0, |from| {
        let us = fabric.now().saturating_sub(from);
        fabric.ins.metrics.add_control(Counter::TimeCommitUs, us);
        us
    });
    if done {
        fabric.shut_down();
    } else if pushed {
        fabric.wake_for_work();
    }
    // Unlock → fence → read the ring; pairs with push → fence → `try_lock`
    // in [`combine`].
    fence(Ordering::SeqCst);
    Turn {
        pushed,
        commit_us,
        again: !done && (held_back || !fabric.ring.is_empty()),
    }
}

/// Flat combining: take commit-path turns for as long as reports are
/// pending and the lock is free. Never waits for the lock — when it is
/// busy, its holder re-checks the ring after unlocking. Called by a worker
/// right after it pushed a report, and by an idle worker before it parks
/// (work conservation: a dry spell refills the lanes without anyone else's
/// help). Returns the turns' sum; `again` is left set only when reports
/// were still pending and the lock was busy.
fn combine<W: Workload>(fabric: &Fabric, commit: &Mutex<Inner<W>>) -> Turn {
    let mut sum = Turn {
        pushed: false,
        commit_us: 0,
        again: true,
    };
    fence(Ordering::SeqCst);
    while sum.again {
        let guard = match commit.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => break,
        };
        let t = turn(fabric, guard, |_| {});
        sum.pushed |= t.pushed;
        sum.commit_us += t.commit_us;
        sum.again = t.again;
    }
    sum
}

/// Run `entry` under the commit lock (waiting for it) as part of a full
/// [`turn`]: for the threads that bring their own work to the commit path
/// — feeder, watchdog, supervisor.
fn locked<W: Workload>(
    fabric: &Fabric,
    commit: &Mutex<Inner<W>>,
    entry: impl FnOnce(&mut Core<W>),
) {
    if turn(fabric, lock_recover(commit), entry).again {
        combine(fabric, commit);
    }
}

/// Spawn one worker thread on lane `me` with incarnation `my_epoch` into
/// the run's `scope`.
///
/// Named (rather than inline in [`run`]) because the
/// supervisor respawns quarantined workers: a replacement runs this same
/// loop on the same lane under a fresh epoch. Every loop iteration stamps
/// the lane's heartbeat and re-checks the lane's current epoch — an
/// incarnation that lost its lane (it was presumed dead, then woke up)
/// exits instead of racing its replacement, and its final report is
/// rejected by the epoch gate.
fn spawn_worker<'scope, W: Workload + Send>(
    scope: &'scope Scope<'scope, '_>,
    me: usize,
    my_epoch: u64,
    fabric: &'scope Fabric<'_>,
    commit: &'scope Mutex<Inner<W>>,
) -> ScopedJoinHandle<'scope, ()> {
    std::thread::Builder::new()
        .name(format!("tvs-worker-{me}"))
        .spawn_scoped(scope, move || {
            *lock_recover(&fabric.parkers[me].handle) = Some(std::thread::current());
            let (hub, tracer) = (&fabric.ins.metrics, &fabric.ins.tracer);
            let mut spins = 0u32;
            // Time-accounting profiler: `mark` is the end of the
            // last charged interval. Work-acquisition time (lane
            // pops, steal scans, spin-yields, re-validation) is
            // charged at the next grab, body time at task end and
            // park time around the futex nap — each boundary
            // reuses a stamp the loop already takes, so the only
            // extra cost is one counter add per interval. Time a
            // commit-path turn charged to `TimeCommitUs` is kept
            // out by moving `mark` past it.
            let mut mark = fabric.now();
            loop {
                // Supervision bookkeeping costs one clock read plus two
                // SeqCst atomics per iteration — real money against µs
                // tasks — so unsupervised runs skip it entirely. `mark`
                // is at most a few spin-yields behind the wall clock
                // (every park and task end refreshes it), which is noise
                // against the heartbeat timeout's 100 ms floor.
                if fabric.supervised {
                    fabric.heartbeat[me].store(mark, Ordering::SeqCst);
                    if fabric.worker_epoch[me].load(Ordering::SeqCst) != my_epoch {
                        // Quarantined: a replacement owns this lane now.
                        return;
                    }
                }
                match fabric.grab(me) {
                    Some((ready, stolen_from)) => {
                        spins = 0;
                        if let Some(victim) = stolen_from {
                            hub.add(me, Counter::Steal, 1);
                            if tracer.is_enabled() {
                                tracer.emit(
                                    me,
                                    EventKind::Steal {
                                        id: ready.work.id,
                                        victim: victim as u32,
                                    },
                                );
                            }
                        }
                        // Wake chain: if backlog remains beyond the
                        // awake set, ramp up one more worker.
                        fabric.wake_for_work();
                        let mut work = ready.work;
                        // Epoch-checked re-validation: only a task
                        // bound before some rollback can be stale,
                        // and only a flagged one is actually dead.
                        let stale = ready.epoch != fabric.abort_epoch.load(Ordering::SeqCst);
                        let (body, span) = if stale && work.version.is_some() && work.aborted() {
                            let now = fabric.now();
                            hub.add(me, Counter::TimeStealUs, now.saturating_sub(mark));
                            mark = now;
                            (Report::Cancelled, Span::of(&work, me, now, now))
                        } else {
                            let started = fabric.now();
                            let mut span = Span::of(&work, me, started, started);
                            if tracer.is_enabled() {
                                tracer.emit(me, span.start_event());
                            }
                            hub.add(me, Counter::TimeStealUs, started.saturating_sub(mark));
                            if fabric.watchdog_enabled {
                                *lock_recover(&fabric.watch[me]) = Some(WatchSlot {
                                    span,
                                    flag: Arc::clone(&work.abort),
                                    flagged: false,
                                });
                            }
                            let body = run_body(
                                &mut work,
                                me,
                                &fabric.ins,
                                fabric.input,
                                fabric.max_attempts,
                                Injection::Live,
                            );
                            if fabric.watchdog_enabled {
                                *lock_recover(&fabric.watch[me]) = None;
                            }
                            span.finished = fabric.now();
                            clock_slice(hub, me, work.class, span.finished - started);
                            mark = span.finished;
                            if tracer.is_enabled() && matches!(body, Report::Ran(_)) {
                                tracer.emit(me, span.end_event(work.aborted()));
                            }
                            (body, span)
                        };
                        // Route it here and now if the commit lock is
                        // free; otherwise its holder picks it up.
                        let report = Finished {
                            span,
                            epoch: my_epoch,
                            body,
                        };
                        if fabric.ring.push(report).is_err() {
                            return;
                        }
                        mark += combine(fabric, commit).commit_us;
                    }
                    None => {
                        if fabric.done.load(Ordering::SeqCst) {
                            return;
                        }
                        // Work conservation: take a commit-path turn
                        // ourselves if the lock happens to be free —
                        // route what is pending, refill the lanes.
                        let turns = combine(fabric, commit);
                        mark += turns.commit_us;
                        if turns.pushed {
                            continue;
                        }
                        // Spin-then-park: a couple of yields lets the
                        // feeder or a sibling's turn refill before we
                        // pay the (µs-scale) park/unpark futex trip.
                        if spins < fabric.spin_limit {
                            spins += 1;
                            std::thread::yield_now();
                            continue;
                        }
                        spins = 0;
                        let p = &fabric.parkers[me];
                        // Dekker-style handshake with the pump: set
                        // parked (flag and count), then re-check;
                        // the pump pushes, then checks the count.
                        // SeqCst total order guarantees at least one
                        // side sees the other, so no wake-up is
                        // lost. The timeout is belt-and-braces only.
                        // The ring re-check is the parker's part of
                        // the no-stranding argument: never sleep on a
                        // visible report — go round and `try_lock`
                        // (if the lock is busy, its holder re-checks
                        // the ring when it unlocks).
                        p.parked.store(true, Ordering::SeqCst);
                        fabric.parked_count.fetch_add(1, Ordering::SeqCst);
                        if fabric.in_lanes.load(Ordering::SeqCst) == 0
                            && fabric.ring.is_empty()
                            && !fabric.done.load(Ordering::SeqCst)
                        {
                            tracer.emit(me, EventKind::Park);
                            let napped = fabric.now();
                            hub.add(me, Counter::TimeStealUs, napped.saturating_sub(mark));
                            std::thread::park_timeout(Duration::from_millis(100));
                            mark = fabric.now();
                            let idle = mark.saturating_sub(napped);
                            hub.add(me, Counter::TimeParkUs, idle);
                            hub.record(Hist::IdleSliceUs, idle);
                            tracer.emit(me, EventKind::Unpark);
                        }
                        p.parked.store(false, Ordering::SeqCst);
                        fabric.parked_count.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
        })
        .expect("failed to spawn worker thread")
}

/// The input feeder (the paper's first auxiliary thread), run by the
/// thread that called [`run`]: sleep until the next block is due, take
/// every block due by then, and hand the batch over in one commit-path
/// turn — the last one together with the end of input.
fn feed<W: Workload>(fabric: &Fabric<'_>, commit: &Mutex<Inner<W>>, blocks: Vec<InputBlock>) {
    let mut rest = blocks.into_iter().peekable();
    loop {
        let mut batch = Vec::new();
        if let Some(first) = rest.next() {
            // A failing run stops consuming input: shutdown has already
            // been initiated.
            if fabric.done.load(Ordering::SeqCst) {
                return;
            }
            fabric.wait_until(first.arrival);
            if let Some(FaultKind::Stall { us }) = fabric.ins.faults.draw(FaultSite::Feeder) {
                std::thread::sleep(Duration::from_micros(us));
            }
            let now = fabric.now();
            batch.push(first);
            batch.extend(std::iter::from_fn(|| rest.next_if(|b| b.arrival <= now)));
            for b in &mut batch {
                b.arrival = now;
            }
        }
        let now = batch.first().map_or_else(|| fabric.now(), |b| b.arrival);
        let last = rest.peek().is_none();
        locked(fabric, commit, |core| {
            core.feed(fabric.env(now), batch, last)
        });
        if last {
            return;
        }
    }
}

/// Run `workload` under `policy` on `cfg.workers` real threads, feeding it
/// `blocks` of `input` — sorted by due time (`arrival`, µs from the start of
/// the run), the list the simulator takes — from the calling thread, which
/// hands every block due by the time it wakes over in one
/// [`Workload::on_input_batch`] (each block stamped with that moment),
/// recording lifecycle events into `ins.tracer`, streaming counters, gauges
/// and histograms into `ins.metrics` as the run executes (so a sampler
/// thread or `tvs-top` can watch mid-run) and drawing faults from
/// `ins.faults`. Pass `&Instruments::default()` to run dark — the executor
/// then keeps its counters in an internal counters-only registry, which
/// costs the same as the per-lane atomics it replaced.
///
/// `input` is borrowed, not copied: every block's `bytes` is a range of it,
/// and task bodies read it through [`crate::TaskCtx::input`]. The run's
/// threads — workers, watchdog, supervisor and the workers it respawns —
/// live in one [`std::thread::scope`] that ends before this returns, which
/// is what lets them hold the borrow. The calling thread joins the workers
/// it spawned, then the watchdog and the supervisor; the supervisor joins
/// the replacements it spawned. Every handle is joined explicitly, so a
/// thread that died is reported, never re-raised by the scope.
///
/// Returns the finished workload and the run metrics, or a structured
/// [`RunError`] when the run cannot complete (a non-speculative task
/// panicking on every retry, a panicking workload callback, or a runtime
/// thread dying) — never a process abort.
///
/// Dispatch, predictor/check/commit and rollback events are emitted on the
/// control ring (their emitters hold the commit lock, keeping that ring
/// single-writer); steal, task-start/end, task-fault and park/unpark
/// events land on the emitting worker's own ring. Timestamps are
/// wall-clock µs from the tracer's epoch. A task-end's `discarded` flag
/// reflects the abort flag at completion time — a task whose version is
/// rolled back *after* it finishes but before its report is routed is
/// counted as wasted in [`RunMetrics`] but not flagged in the trace (the
/// simulator's virtual trace is exact; this executor's is a per-task
/// approximation).
pub fn run<W>(
    workload: W,
    cfg: &ThreadedConfig,
    policy: DispatchPolicy,
    input: &[u8],
    blocks: Vec<InputBlock>,
    ins: &Instruments,
) -> Result<(W, RunMetrics), RunError>
where
    W: Workload + Send,
{
    assert_schedule(input, &blocks);
    let ins = ins.for_executor(cfg.workers, policy);
    let commit = Mutex::new(Inner {
        core: Core::new(workload, policy, &ins),
        delayed: Vec::new(),
        batch: Vec::with_capacity(64),
    });
    let fabric = Fabric::new(cfg, ins, input);

    let now = fabric.now();
    locked(&fabric, &commit, |core| core.start(fabric.env(now)));

    let lost = std::thread::scope(|scope| {
        let (fabric, commit) = (&fabric, &commit);
        // Worker threads: grab from lanes, run, report, and route the
        // report themselves when the commit lock is free. The lock is never
        // *waited on* here — a worker only ever `try_lock`s it.
        let workers: Vec<_> = (0..cfg.workers)
            .map(|me| spawn_worker(scope, me, 0, fabric, commit))
            .collect();

        // Watchdog thread: polls the per-worker slots and cancels any task
        // that has been running past the deadline. A speculative task is
        // unstuck *under the commit lock*, version first: the worker routes
        // its own report the moment the body returns, and a report routed
        // before the abort would deliver the cut-short output instead of
        // discarding it.
        let watchdog = cfg.watchdog.map(|wd| {
            std::thread::Builder::new()
                .name("tvs-watchdog".into())
                .spawn_scoped(scope, move || {
                    while !fabric.done.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_micros(wd.poll_us()));
                        let now = fabric.now();
                        for slot in &fabric.watch {
                            let mut g = lock_recover(slot);
                            let Some(s) = g.as_mut() else { continue };
                            let ran_us = now.saturating_sub(s.span.started);
                            if s.flagged || ran_us < wd.deadline_us {
                                continue;
                            }
                            s.flagged = true;
                            let (span, flag) = (s.span, Arc::clone(&s.flag));
                            drop(g);
                            locked(fabric, commit, |core| {
                                core.cancel(fabric.env(now), &span, ran_us, &fabric.ins);
                                TaskCtx::signal_abort(&flag);
                            });
                        }
                    }
                })
                .expect("failed to spawn watchdog thread")
        });

        // Supervisor thread: polls the per-lane heartbeat clocks and
        // recovers lanes whose worker went dark — wedged in a body that
        // ignores its abort flag, or descheduled indefinitely. Quarantine
        // bumps the lane's epoch (under the commit lock, so the epoch gate
        // and the bump are ordered), signals the old incarnation's running
        // task, hands its ready lane to the live workers, and respawns a
        // replacement on the fresh epoch into the same scope. Any
        // completion the quarantined incarnation still reports is rejected
        // by the epoch gate and re-fed — never double-committed.
        let supervisor = cfg.supervisor.map(|sv| {
            std::thread::Builder::new()
                .name("tvs-supervisor".into())
                .spawn_scoped(scope, move || {
                    let mut respawned = Vec::new();
                    while !fabric.done.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_micros(sv.poll_us()));
                        let now = fabric.now();
                        for me in 0..fabric.lanes.len() {
                            let hb = fabric.heartbeat[me].load(Ordering::SeqCst);
                            if now.saturating_sub(hb) < sv.heartbeat_timeout_us.max(1)
                                || fabric.done.load(Ordering::SeqCst)
                            {
                                continue;
                            }
                            // Quarantine under the commit lock: the epoch
                            // bump is ordered against the gate (which reads
                            // epochs while routing under the same lock) and
                            // the control-ring emissions keep one writer at
                            // a time.
                            let mut old = 0;
                            locked(fabric, commit, |_| {
                                old = fabric.worker_epoch[me].fetch_add(1, Ordering::SeqCst);
                                // Restart the clock so the replacement gets
                                // a full timeout before it is judged.
                                fabric.heartbeat[me].store(fabric.now(), Ordering::SeqCst);
                                fabric.ins.metrics.add_control(Counter::WorkerRespawns, 1);
                                let worker = me as u32;
                                let tracer = &fabric.ins.tracer;
                                tracer.emit_control(EventKind::WorkerQuarantine {
                                    worker,
                                    epoch: old,
                                });
                                tracer.emit_control(EventKind::WorkerRespawn {
                                    worker,
                                    epoch: old + 1,
                                });
                            });
                            // Unstick whatever the old incarnation is
                            // running: abort-aware bodies (and injected
                            // stalls) return early once the flag is up,
                            // after which the old worker exits at its next
                            // epoch check and its report dies at the gate.
                            if let Some(s) = lock_recover(&fabric.watch[me]).as_ref() {
                                TaskCtx::signal_abort(&s.flag);
                            }
                            fabric.reassign_lane(me);
                            respawned.push(spawn_worker(scope, me, old + 1, fabric, commit));
                        }
                    }
                    fabric.wake_all();
                    for h in respawned {
                        let _ = h.join();
                    }
                })
                .expect("failed to spawn supervisor thread")
        });

        // The calling thread feeds the input: no thread to start before the
        // first batch goes in. A panic here is a runtime bug (workload
        // callbacks are caught inside their turn); it shuts the run down so
        // the threads still join, and is reported as a RunError value, as
        // is a runtime thread dying outside a task body — not a process
        // abort.
        let mut lost: Option<&'static str> = None;
        let fed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            feed(fabric, commit, blocks);
        }));
        if fed.is_err() {
            lost = Some("feeder");
            fabric.shut_down();
        }
        for w in workers {
            if w.join().is_err() {
                lost = lost.or(Some("worker"));
            }
        }
        // Belt-and-braces: the turn that completes the run sets `done`, but
        // the watchdog and supervisor must terminate even if every worker
        // was lost.
        fabric.done.store(true, Ordering::SeqCst);
        for (what, thread) in [("watchdog", watchdog), ("supervisor", supervisor)] {
            if thread.is_some_and(|t| t.join().is_err()) {
                lost = lost.or(Some(what));
            }
        }
        lost
    });

    let Inner { core, .. } = into_inner_recover(commit);
    if let Some(e) = core.failed {
        return Err(e);
    }
    if let Some(what) = lost {
        return Err(RunError::WorkerLost { what });
    }
    let makespan = core.finished_at.unwrap_or_else(|| fabric.now());
    let metrics = core.metrics(&fabric.ins.metrics, makespan);
    Ok((core.workload, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{payload, Payload, SpecVersion, TaskSpec};
    use crate::workload::{Completion, FaultNotice, SchedCtx};
    use std::sync::atomic::AtomicU32;
    use tvs_faults::{FaultInjector, FaultPlan};
    use tvs_trace::Tracer;

    const NON_SPEC: DispatchPolicy = DispatchPolicy::NonSpeculative;

    fn dark<W>(
        workload: W,
        cfg: &ThreadedConfig,
        policy: DispatchPolicy,
        input: &[u8],
        blocks: Vec<InputBlock>,
    ) -> (W, RunMetrics)
    where
        W: Workload + Send,
    {
        run(
            workload,
            cfg,
            policy,
            input,
            blocks,
            &Instruments::default(),
        )
        .expect("dark run completes")
    }

    /// An input of `n` blocks of `len` bytes, block `i` filled with `i`,
    /// and its blocks, all due at once.
    fn at_once(n: usize, len: usize) -> (Vec<u8>, Vec<InputBlock>) {
        let input = (0..n).flat_map(|i| vec![i as u8; len]).collect();
        let blocks = (0..n)
            .map(|i| InputBlock {
                index: i,
                arrival: 0,
                bytes: i * len..(i + 1) * len,
            })
            .collect();
        (input, blocks)
    }

    #[test]
    fn the_feeder_hands_over_what_is_due_together_in_one_batch() {
        struct Batches(Vec<Vec<usize>>);
        impl Workload for Batches {
            fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {
                unreachable!("the executor hands over batches");
            }
            fn on_input_batch(&mut self, _: &mut dyn SchedCtx, batch: Vec<InputBlock>) {
                self.0.push(batch.iter().map(|b| b.index).collect());
            }
            fn on_complete(&mut self, _: &mut dyn SchedCtx, _: Completion) {}
            fn is_finished(&self) -> bool {
                true
            }
        }
        // Eight blocks due now, four 30 ms later: two batches, unless the
        // feeder lost the CPU for that long, when both are due at once.
        let (input, mut blocks) = at_once(12, 8);
        for b in &mut blocks[8..] {
            b.arrival = 30_000;
        }
        let cfg = ThreadedConfig::new(2);
        let (w, _) = dark(Batches(Vec::new()), &cfg, NON_SPEC, &input, blocks);
        assert!(w.0.len() <= 2, "{:?}", w.0);
        assert_eq!(w.0.concat(), (0..12).collect::<Vec<_>>());
        assert!(w.0[0].len() >= 8, "blocks due together stay together");
    }

    fn sum(bytes: &[u8]) -> u64 {
        bytes.iter().map(|&x| x as u64).sum()
    }

    struct Summer {
        n: usize,
        seen: usize,
        total: u64,
    }

    impl Workload for Summer {
        fn on_input(&mut self, ctx: &mut dyn SchedCtx, b: InputBlock) {
            let bytes = b.bytes;
            ctx.spawn(TaskSpec::regular(
                "sum",
                0,
                bytes.len(),
                b.index as u64,
                move |ctx| payload(sum(&ctx.input()[bytes.clone()])),
            ));
        }
        fn on_complete(&mut self, _ctx: &mut dyn SchedCtx, done: Completion) {
            self.total += *done.output.downcast::<u64>().unwrap();
            self.seen += 1;
        }
        fn is_finished(&self) -> bool {
            self.seen == self.n
        }
    }

    #[test]
    fn sums_all_blocks_across_threads() {
        let (input, blocks) = at_once(32, 100);
        let expect: u64 = (0..32u64).map(|i| i * 100).sum();
        let cfg = ThreadedConfig::new(4);
        let (w, m) = dark(
            Summer {
                n: 32,
                seen: 0,
                total: 0,
            },
            &cfg,
            NON_SPEC,
            &input,
            blocks,
        );
        assert_eq!(w.total, expect);
        assert_eq!(m.tasks_delivered, 32);
        assert_eq!(m.tasks_discarded, 0);
        assert_eq!(m.workers, 4);
        assert_eq!(m.lane_dispatches.len(), 4);
        assert_eq!(
            m.lane_dispatches.iter().sum::<u64>(),
            32,
            "every task went through a lane"
        );
        assert_eq!(m.faults, 0);
        assert_eq!(m.duplicate_completions, 0);
    }

    #[test]
    fn traced_run_records_dispatch_and_task_events() {
        let (input, blocks) = at_once(16, 64);
        let cfg = ThreadedConfig::new(3);
        let tracer = Tracer::enabled(3);
        let (w, m) = run(
            Summer {
                n: 16,
                seen: 0,
                total: 0,
            },
            &cfg,
            NON_SPEC,
            &input,
            blocks,
            &Instruments::traced(tracer.clone()),
        )
        .expect("traced run completes");
        assert_eq!(w.seen, 16);
        assert_eq!(m.tasks_delivered, 16);
        let log = tracer.drain().expect("enabled tracer drains");
        assert_eq!(log.timebase, tvs_trace::Timebase::Wall);
        assert_eq!(log.count("dispatch"), 16, "one dispatch per task");
        assert_eq!(log.count("task-start"), 16);
        assert_eq!(log.count("task-end"), 16);
        assert_eq!(
            log.count("steal") as u64,
            m.steals,
            "steal events mirror the metrics counter"
        );
        // Dispatches are pump-side events and live on the control ring.
        assert!(log
            .events
            .iter()
            .filter(|e| e.kind.label() == "dispatch")
            .all(|e| e.worker as usize == log.workers));
    }

    #[test]
    fn empty_input_finishes() {
        struct Nothing;
        impl Workload for Nothing {
            fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {}
            fn on_complete(&mut self, _: &mut dyn SchedCtx, _: Completion) {}
            fn is_finished(&self) -> bool {
                true
            }
        }
        let cfg = ThreadedConfig::new(2);
        let (_w, m) = dark(Nothing, &cfg, NON_SPEC, &[], Vec::new());
        assert_eq!(m.tasks_delivered, 0);
    }

    #[test]
    fn chained_spawning_from_completions() {
        // on_complete spawns a second-stage task: exercises re-entrant
        // spawning through the commit-path pump.
        struct TwoStage {
            stage2_done: bool,
        }
        impl Workload for TwoStage {
            fn on_input(&mut self, ctx: &mut dyn SchedCtx, _b: InputBlock) {
                ctx.spawn(TaskSpec::regular("stage1", 0, 0, 0, |_| payload(1u32)));
            }
            fn on_complete(&mut self, ctx: &mut dyn SchedCtx, done: Completion) {
                match done.name {
                    "stage1" => {
                        ctx.spawn(TaskSpec::regular("stage2", 1, 0, 0, |_| payload(2u32)));
                    }
                    "stage2" => self.stage2_done = true,
                    _ => unreachable!(),
                }
            }
            fn is_finished(&self) -> bool {
                self.stage2_done
            }
        }
        let (input, inputs) = at_once(1, 4);
        let cfg = ThreadedConfig::new(3);
        let (w, m) = dark(
            TwoStage { stage2_done: false },
            &cfg,
            NON_SPEC,
            &input,
            inputs,
        );
        assert!(w.stage2_done);
        assert_eq!(m.tasks_delivered, 2);
    }

    #[test]
    fn speculative_abort_under_threads() {
        // A *running* speculative task is aborted by a normal task; its
        // output must be discarded, not delivered. The normal task waits
        // for the speculative one to start: its completion is routed the
        // moment it finishes, and a rollback that beats the other worker
        // to its lane would cancel the task instead of discarding it.
        struct SpecAbort {
            normal_done: bool,
            spec_delivered: bool,
        }
        impl Workload for SpecAbort {
            fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
                let running = Arc::new(AtomicBool::new(false));
                let started = Arc::clone(&running);
                ctx.spawn(TaskSpec::speculative("spec", 0, 0, 1, 0, move |ctx| {
                    started.store(true, Ordering::SeqCst);
                    // Busy-wait until aborted or ~5 s cap.
                    let t0 = std::time::Instant::now();
                    while !ctx.aborted() && t0.elapsed() < Duration::from_secs(5) {
                        std::thread::yield_now();
                    }
                    payload(ctx.aborted())
                }));
                ctx.spawn(TaskSpec::regular("normal", 0, 0, 0, move |_| {
                    let t0 = std::time::Instant::now();
                    while !running.load(Ordering::SeqCst) && t0.elapsed() < Duration::from_secs(5) {
                        std::thread::yield_now();
                    }
                    payload(())
                }));
            }
            fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {}
            fn on_complete(&mut self, ctx: &mut dyn SchedCtx, done: Completion) {
                match done.name {
                    "normal" => {
                        ctx.abort_version(1);
                        self.normal_done = true;
                    }
                    "spec" => self.spec_delivered = true,
                    _ => unreachable!(),
                }
            }
            fn is_finished(&self) -> bool {
                self.normal_done
            }
        }
        let cfg = ThreadedConfig::new(2);
        let (w, m) = dark(
            SpecAbort {
                normal_done: false,
                spec_delivered: false,
            },
            &cfg,
            DispatchPolicy::Aggressive,
            &[],
            Vec::new(),
        );
        assert!(w.normal_done);
        assert!(!w.spec_delivered, "aborted speculative output leaked");
        assert_eq!(m.tasks_discarded, 1);
        assert_eq!(m.rollbacks, 1);
    }

    #[test]
    fn rollback_accounts_for_every_lane_bound_spec_task() {
        // A fast normal task aborts a version with many speculative tasks:
        // some are still in the central ready queue (deleted by the
        // rollback), some are bound in worker lanes (cancelled by epoch
        // re-validation, also counted as ready deletions), and any that
        // started running see their abort flag and get discarded. Whatever
        // the interleaving, every spawned spec task must be accounted for
        // and none may be delivered.
        struct AbortFirst {
            normal_done: bool,
            spec_delivered: bool,
        }
        impl Workload for AbortFirst {
            fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
                // Balanced pumps the normal task into a lane before any
                // speculative one (equal lane loads prefer normal).
                ctx.spawn(TaskSpec::regular("normal", 0, 0, 0, |_| payload(())));
                for i in 0..8 {
                    ctx.spawn(TaskSpec::speculative("spec", 0, 0, 1, i, |ctx| {
                        let t0 = std::time::Instant::now();
                        while !ctx.aborted() && t0.elapsed() < Duration::from_millis(200) {
                            std::thread::yield_now();
                        }
                        payload(())
                    }));
                }
            }
            fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {}
            fn on_complete(&mut self, ctx: &mut dyn SchedCtx, done: Completion) {
                match done.name {
                    "normal" => {
                        ctx.abort_version(1);
                        self.normal_done = true;
                    }
                    "spec" => self.spec_delivered = true,
                    _ => unreachable!(),
                }
            }
            fn is_finished(&self) -> bool {
                self.normal_done
            }
        }
        let cfg = ThreadedConfig::new(2);
        let (w, m) = dark(
            AbortFirst {
                normal_done: false,
                spec_delivered: false,
            },
            &cfg,
            DispatchPolicy::Balanced,
            &[],
            Vec::new(),
        );
        assert!(w.normal_done);
        assert!(!w.spec_delivered, "aborted speculative output leaked");
        assert_eq!(m.tasks_delivered, 1);
        assert_eq!(m.tasks_deleted_ready + m.tasks_discarded, 8);
        assert_eq!(m.rollbacks, 1);
    }

    /// A workload whose single regular task panics `fail_times` times
    /// before succeeding.
    struct Flaky {
        fail_times: u32,
        done: bool,
        faults_seen: u32,
    }

    impl Workload for Flaky {
        fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
            let fail_times = self.fail_times;
            let tries = AtomicU32::new(0);
            ctx.spawn(TaskSpec::regular("flaky", 0, 0, 0, move |_| {
                let t = tries.fetch_add(1, Ordering::SeqCst);
                if t < fail_times {
                    panic!("flaky attempt {t}");
                }
                payload(t)
            }));
        }
        fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {}
        fn on_complete(&mut self, _: &mut dyn SchedCtx, _: Completion) {
            self.done = true;
        }
        fn on_fault(&mut self, _: &mut dyn SchedCtx, _: FaultNotice) {
            self.faults_seen += 1;
        }
        fn is_finished(&self) -> bool {
            self.done
        }
    }

    #[test]
    fn panicking_regular_task_is_retried_and_delivered() {
        let cfg = ThreadedConfig::new(2);
        let (w, m) = run(
            Flaky {
                fail_times: 2,
                done: false,
                faults_seen: 0,
            },
            &cfg,
            NON_SPEC,
            &[],
            Vec::new(),
            &Instruments::default(),
        )
        .expect("retries recover the run");
        assert!(w.done);
        assert_eq!(w.faults_seen, 0, "recovered faults never reach on_fault");
        assert_eq!(m.tasks_delivered, 1);
        assert_eq!(m.faults, 2, "both panicked attempts were caught");
        assert_eq!(m.task_retries, 2);
    }

    #[test]
    fn exhausted_retries_fail_the_run_with_a_structured_error() {
        let cfg = ThreadedConfig::new(2);
        let Err(err) = run(
            Flaky {
                fail_times: u32::MAX,
                done: false,
                faults_seen: 0,
            },
            &cfg,
            NON_SPEC,
            &[],
            Vec::new(),
            &Instruments::default(),
        ) else {
            panic!("a task that always panics must fail the run");
        };
        match err {
            RunError::TaskFailed { name, attempts, .. } => {
                assert_eq!(name, "flaky");
                assert_eq!(attempts, DEFAULT_MAX_ATTEMPTS);
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn panicking_speculative_task_aborts_its_version() {
        // A speculative task that panics must be routed through the
        // rollback path: on_fault fires, the version is aborted, and the
        // run still completes via the normal task.
        struct SpecPanic {
            normal_done: bool,
            fault: Option<FaultNotice>,
        }
        impl Workload for SpecPanic {
            fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
                ctx.spawn(TaskSpec::speculative("boom", 0, 0, 7, 0, |_| -> Payload {
                    panic!("speculative failure")
                }));
                ctx.spawn(TaskSpec::regular("normal", 0, 0, 0, |_| payload(())));
            }
            fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {}
            fn on_complete(&mut self, _: &mut dyn SchedCtx, done: Completion) {
                if done.name == "normal" {
                    self.normal_done = true;
                }
            }
            fn on_fault(&mut self, _: &mut dyn SchedCtx, fault: FaultNotice) {
                self.fault = Some(fault);
            }
            fn is_finished(&self) -> bool {
                self.normal_done
            }
        }
        let cfg = ThreadedConfig::new(2);
        let (w, m) = run(
            SpecPanic {
                normal_done: false,
                fault: None,
            },
            &cfg,
            DispatchPolicy::Aggressive,
            &[],
            Vec::new(),
            &Instruments::default(),
        )
        .expect("speculative faults never fail the run");
        assert!(w.normal_done);
        let f = w.fault.expect("on_fault fired");
        assert_eq!(f.name, "boom");
        assert_eq!(f.version, Some(7));
        assert_eq!(f.attempt, 0, "speculative tasks are not retried");
        assert_eq!(m.faults, 1);
        assert_eq!(m.task_retries, 0);
        assert_eq!(m.rollbacks, 1, "the faulted version was aborted");
        assert_eq!(m.tasks_delivered, 1, "only the normal task delivered");
    }

    #[test]
    fn injected_panics_and_duplicates_recover_deterministically() {
        // Chaos smoke: inject panics at the task-body site and duplicated
        // completions on the commit path, and require byte-identical results.
        let (input, blocks) = at_once(24, 50);
        let expect: u64 = (0..24u64).map(|i| i * 50).sum();
        let plan = FaultPlan::new(99)
            .with_rule(FaultSite::TaskBody, FaultKind::PanicTask, 0.2)
            .with_rule(FaultSite::Completion, FaultKind::DuplicateCompletion, 0.2)
            .with_rule(
                FaultSite::Completion,
                FaultKind::DelayCompletion { us: 100 },
                0.2,
            )
            .with_max_faults(16);
        let cfg = ThreadedConfig::new(3);
        let faults = FaultInjector::new(plan);
        let (w, m) = run(
            Summer {
                n: 24,
                seen: 0,
                total: 0,
            },
            &cfg,
            NON_SPEC,
            &input,
            blocks,
            &Instruments::faulty(faults.clone()),
        )
        .expect("injected faults are recoverable");
        assert_eq!(w.total, expect, "output identical to the fault-free run");
        assert_eq!(m.tasks_delivered, 24);
        assert!(
            faults.injected() > 0,
            "the plan actually injected something"
        );
        let echoes = faults
            .log()
            .iter()
            .filter(|f| f.kind == FaultKind::DuplicateCompletion)
            .count() as u64;
        assert_eq!(
            m.stale_completions_rejected, echoes,
            "every injected echo must take the epoch-reject path"
        );
        assert_eq!(
            m.duplicate_completions, 0,
            "echoes are rejected at the gate, never absorbed by the scheduler"
        );
    }

    #[test]
    fn duplicated_completion_takes_the_epoch_reject_path() {
        // Focused version of the chaos smoke: with *only* duplicate echoes
        // injected, the epoch-reject counter must match the injection count
        // exactly and the output must be unaffected.
        let (input, blocks) = at_once(16, 50);
        let expect: u64 = (0..16u64).map(|i| i * 50).sum();
        let plan = FaultPlan::new(7)
            .with_rule(FaultSite::Completion, FaultKind::DuplicateCompletion, 1.0)
            .with_max_faults(8);
        let cfg = ThreadedConfig::new(2);
        let (w, m) = run(
            Summer {
                n: 16,
                seen: 0,
                total: 0,
            },
            &cfg,
            NON_SPEC,
            &input,
            blocks,
            &Instruments::faulty(FaultInjector::new(plan)),
        )
        .expect("echoes are recoverable");
        assert_eq!(w.total, expect);
        assert_eq!(w.seen, 16, "every block delivered exactly once");
        assert_eq!(m.stale_completions_rejected, 8);
        assert_eq!(m.duplicate_completions, 0);
    }

    /// A workload whose tagged tasks are re-spawned when lost: block 0's
    /// first execution wedges (a sleep that ignores the abort flag long
    /// enough to trip the supervisor), later executions run normally.
    struct Wedger {
        n: usize,
        seen: usize,
        total: u64,
        refed: u32,
        wedge_us: u64,
        wedged: Arc<AtomicU32>,
    }

    impl Workload for Wedger {
        fn on_input(&mut self, ctx: &mut dyn SchedCtx, b: InputBlock) {
            let bytes = b.bytes;
            let wedge = if b.index == 0 { self.wedge_us } else { 0 };
            let wedged = Arc::clone(&self.wedged);
            ctx.spawn(TaskSpec::regular(
                "sum",
                0,
                bytes.len(),
                b.index as u64,
                move |ctx| {
                    if wedge > 0 && wedged.fetch_add(1, Ordering::SeqCst) == 0 {
                        // Not abort-aware: the supervisor must detect the
                        // dark heartbeat, not rely on cooperative cancel.
                        std::thread::sleep(Duration::from_micros(wedge));
                    }
                    payload(sum(&ctx.input()[bytes.clone()]))
                },
            ));
        }
        fn on_complete(&mut self, _ctx: &mut dyn SchedCtx, done: Completion) {
            self.total += *done.output.downcast::<u64>().unwrap();
            self.seen += 1;
        }
        fn on_fault(&mut self, ctx: &mut dyn SchedCtx, fault: FaultNotice) {
            // The gate re-feeds lost work by (name, tag): re-spawn the block.
            assert_eq!(fault.name, "sum");
            self.refed += 1;
            let idx = fault.tag;
            ctx.spawn(TaskSpec::regular("sum", 0, 50, idx, move |_| {
                payload(idx * 50)
            }));
        }
        fn is_finished(&self) -> bool {
            self.seen == self.n
        }
    }

    #[test]
    fn supervisor_respawns_a_wedged_worker_without_double_commit() {
        let (input, blocks) = at_once(12, 50);
        let expect: u64 = (0..12u64).map(|i| i * 50).sum();
        let mut cfg = ThreadedConfig::new(3);
        cfg.supervisor = Some(SupervisorConfig {
            // Must exceed the 100 ms park timeout (parked workers stamp
            // only when they wake) or healthy-but-idle workers churn.
            heartbeat_timeout_us: 150_000,
        });
        let (w, m) = run(
            Wedger {
                n: 12,
                seen: 0,
                total: 0,
                refed: 0,
                wedge_us: 400_000,
                wedged: Arc::new(AtomicU32::new(0)),
            },
            &cfg,
            NON_SPEC,
            &input,
            blocks,
            &Instruments::default(),
        )
        .expect("supervision recovers the run");
        assert_eq!(w.seen, 12, "every block delivered exactly once");
        assert_eq!(w.total, expect, "re-fed block contributes exactly once");
        assert!(m.worker_respawns >= 1, "the wedged worker was respawned");
        assert!(
            m.stale_completions_rejected >= 1,
            "the wedged incarnation's straggler died at the gate"
        );
        assert_eq!(w.refed as u64, m.stale_completions_rejected);
    }

    #[test]
    fn supervision_is_quiet_on_a_healthy_run() {
        let (input, blocks) = at_once(32, 100);
        let expect: u64 = (0..32u64).map(|i| i * 100).sum();
        let mut cfg = ThreadedConfig::new(4);
        cfg.supervisor = Some(SupervisorConfig::default());
        let (w, m) = dark(
            Summer {
                n: 32,
                seen: 0,
                total: 0,
            },
            &cfg,
            NON_SPEC,
            &input,
            blocks,
        );
        assert_eq!(w.total, expect);
        assert_eq!(m.worker_respawns, 0, "healthy workers are left alone");
        assert_eq!(m.stale_completions_rejected, 0);
    }

    #[test]
    fn watchdog_cancels_a_stuck_speculative_task() {
        // A speculative task that never checks its abort flag fast enough
        // on its own: the watchdog tells the workload, aborts the version
        // and signals the flag (unsticking the abort-aware busy wait).
        struct Stuck {
            lost: Vec<Option<SpecVersion>>,
        }
        impl Workload for Stuck {
            fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
                ctx.spawn(TaskSpec::speculative("stuck", 0, 0, 3, 0, |ctx| {
                    let t0 = std::time::Instant::now();
                    while !ctx.aborted() && t0.elapsed() < Duration::from_secs(5) {
                        std::thread::yield_now();
                    }
                    payload(())
                }));
            }
            fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {}
            fn on_complete(&mut self, _: &mut dyn SchedCtx, _: Completion) {}
            fn on_fault(&mut self, _: &mut dyn SchedCtx, fault: FaultNotice) {
                assert_eq!(fault.name, "stuck");
                self.lost.push(fault.version);
            }
            fn is_finished(&self) -> bool {
                true
            }
        }
        let mut cfg = ThreadedConfig::new(2);
        cfg.watchdog = Some(WatchdogConfig {
            deadline_us: 20_000,
        });
        let t0 = Instant::now();
        let (w, m) = run(
            Stuck { lost: Vec::new() },
            &cfg,
            DispatchPolicy::Aggressive,
            &[],
            Vec::new(),
            &Instruments::default(),
        )
        .expect("watchdog recovers the run");
        assert!(
            t0.elapsed() < Duration::from_secs(4),
            "watchdog unstuck the task well before its 5s cap"
        );
        assert_eq!(m.watchdog_cancels, 1);
        assert_eq!(
            w.lost,
            vec![Some(3)],
            "the workload hears of the cancelled version, once"
        );
        assert_eq!(m.rollbacks, 1, "the stuck version was aborted");
        assert_eq!(m.tasks_discarded, 1, "its late output was discarded");
    }
}
