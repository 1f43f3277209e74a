//! Work-stealing thread-pool executor.
//!
//! Mirrors the paper's x86 SRE deployment — an input feeder (the thread
//! that called [`run`]) pushes blocks into the system, every block due at
//! the same moment in one batch, and worker threads execute ready tasks —
//! but, unlike the original single-lock runtime (deleted: DESIGN.md §3 has
//! the measurements), no worker ever *waits* for the global scheduler lock,
//! and there is no SuperTask thread: the SuperTask role is taken, turn by
//! turn, by whichever thread holds the commit lock. Settling, recovery and
//! accounting are the executor core's (`core`, which also describes the
//! fault handling); this module is its wall clock and transport.
//!
//! * **One ready slot per worker.** A *dispatch pump*, run at the end of
//!   every commit-path turn, pops [`Scheduler::dispatch`] into the workers'
//!   empty *ready slots* — the slot of the worker taking the turn first,
//!   then awake workers', then parked ones' — and binds nothing while every
//!   slot is full. A slot holds the next task its worker starts, one ahead
//!   of the task it runs, so every dispatch decision (control first, then
//!   policy, then depth) is made at most one task ahead: a predictor, a
//!   check or a chain's next hop never waits behind coarse work bound
//!   before it was ready. That is the paper's x86 deployment, where "a
//!   simple polling mechanism waits for tasks to be assigned" (the
//!   simulator's `prefetch_depth: 1`); a deep prefetch pipeline is its
//!   Cell (DESIGN.md §10, "One task ahead", has the measurements). A
//!   worker takes its own slot and, when that is empty, steals another
//!   worker's, whose owner is still running a task or parked. Tasks here
//!   are coarse-grain (tens of µs to ms), so a `Mutex<Option<_>>` per slot
//!   is plenty and keeps the crate `forbid(unsafe_code)`-clean.
//! * **Flag-checked rollback.** Rollback stays O(1): [`Scheduler::
//!   abort_version`] never chases tasks already bound into slots; it raises
//!   their abort flags. A worker checks the flag of a speculative task it
//!   takes from a slot before running it, and a raised one cancels the task:
//!   it is routed back to the scheduler as a ready deletion — the paper's
//!   "ready tasks must be deleted" — without ever executing. The scheduler
//!   never dispatches a task whose version is already aborted, so a raised
//!   flag on a bound task always means a rollback after the bind.
//! * **Parker wake-up.** Idle workers park ([`std::thread::park_timeout`])
//!   instead of polling a condvar every 5 ms, and waking is demand-driven:
//!   the pump unparks *one* worker only while the slot backlog exceeds
//!   what the awake set (capped at `available_parallelism`) will drain
//!   anyway; ramp-up to full width happens by wake chaining on every
//!   successful grab. A hot system never pays a syscall per task the way
//!   a `notify_all` storm does, and an over-provisioned one never turns
//!   queue depth into futex churn.
//! * **Completions routed where they finish (flat combining).** A worker
//!   that finishes a task pushes its report onto the *report queue* (one
//!   `Mutex<Vec<_>>`) and then `try_lock`s the commit lock. Whoever holds
//!   that lock — this worker, another worker, an idle worker about to park
//!   or the feeder after a batch — takes a *turn* (`turn`): take every
//!   queued report, charge, settle, pump the slots and evaluate run
//!   completion. A successor on the DFG's critical path (reduce chain,
//!   offset chain, check → rollback) is therefore spawned by the thread
//!   that produced its input, without an OS scheduling round trip to a
//!   router thread; and a failed `try_lock` costs the worker nothing, so
//!   workload routing code still never blocks a worker. The queue's lock
//!   is held for one push or one `append`, and a run of coarse tasks
//!   routes a few hundred completions, so it is rarely contended.
//!
//!   *No report is stranded.* (1) A producer pushes under the queue's lock,
//!   then `try_lock`s the commit lock (`combine`). (2) Every holder, after
//!   unlocking the commit lock, checks the queue under its lock and takes
//!   another turn if it is non-empty and the commit lock is still free
//!   (`turn`'s `again`). The queue's lock orders the push and the check:
//!   if the check comes first, the holder's unlock happens before the push
//!   and so before the producer's `try_lock`, which then finds the commit
//!   lock free or held by a *third* thread that locked it after that
//!   unlock; the same argument applies to that holder, and the last holder
//!   in the chain sees the report. Otherwise the check sees it. (3) As a
//!   backstop a worker checks the queue after publishing itself parked and
//!   does not sleep while a report is queued: it goes round and `try_lock`s.
//!
//! The figure benches use the deterministic simulator instead; this
//! executor exists to run the system end-to-end on real threads and to
//! cross-validate outputs: both executors run the *same* `Workload`
//! implementations.

use super::core::{
    assert_schedule, into_inner_recover, run_body, run_metrics, Core, Env, Injection, Report,
    RunError, Span, DEFAULT_MAX_ATTEMPTS,
};
use crate::instruments::Instruments;
use crate::metrics::RunMetrics;
use crate::policy::DispatchPolicy;
use crate::sched::{Dispatched, Scheduler};
use crate::task::Time;
use crate::workload::{InputBlock, Workload};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, TryLockError};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::Duration;
use tvs_faults::{FaultKind, FaultSite};
use tvs_metrics::{lock_recover, Counter, Hist};
use tvs_trace::EventKind;

/// Configuration of a threaded run.
#[derive(Clone, Debug)]
pub struct ThreadedConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Body attempts a panicking non-speculative task gets, initial run
    /// included; retries back off with jitter.
    pub max_attempts: u32,
}

impl ThreadedConfig {
    /// A config with default fault handling: bounded retry.
    pub fn new(workers: usize) -> Self {
        ThreadedConfig {
            workers,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
        }
    }
}

/// How close to a block's due time the feeder stops sleeping and yields
/// instead (see [`Fabric::wait_until`]).
const FEEDER_SPIN_US: u64 = 200;

/// Reports the queue holds before it grows: far more than a run has in
/// flight. The size is measured, not needed: with room for 64 the
/// benchmark's peak RSS (`VmHWM`) read 0.8 MiB higher on `txt_mem`, the
/// rise set during the threaded speculative runs (EXPERIMENTS.md, "One
/// mutexed completion queue").
const REPORTS_CAPACITY: usize = 1024;

struct Parker {
    /// The slot's worker thread, set when it starts.
    handle: OnceLock<std::thread::Thread>,
    parked: AtomicBool,
}

/// The fabric shared by workers: ready slots, parkers, the report queue
/// and the counter that lets the pump and the parkers observe slot state
/// without the commit lock, and the run's input they lend to task bodies.
struct Fabric<'a> {
    /// One ready slot per worker: the next task it starts.
    slots: Vec<Mutex<Option<Dispatched>>>,
    /// Report queue: workers push, the commit-lock holder takes them all
    /// (its capacity stays with it, so a run allocates it once, on the
    /// calling thread, [`REPORTS_CAPACITY`] reports wide).
    reports: Mutex<Vec<Finished>>,
    parkers: Vec<Parker>,
    /// Tasks currently bound in slots (see [`Fabric::wake_for_work`]).
    in_slots: AtomicUsize,
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
    done: AtomicBool,
    /// Body attempts a panicking non-speculative task gets.
    max_attempts: u32,
    /// The run's recorder and fault plan. The recorder always has a store
    /// here (at least [`tvs_metrics::Recorder::counters`]): [`RunMetrics`]
    /// and live snapshots read the same cells, and its clock is the run's.
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
        ins.recorder.start_clock();
        Fabric {
            slots: (0..workers).map(|_| Mutex::new(None)).collect(),
            reports: Mutex::new(Vec::with_capacity(REPORTS_CAPACITY)),
            parkers: (0..workers)
                .map(|_| Parker {
                    handle: OnceLock::new(),
                    parked: AtomicBool::new(false),
                })
                .collect(),
            in_slots: AtomicUsize::new(0),
            parked_count: AtomicUsize::new(0),
            target_awake: hw.min(workers).max(1),
            spin_limit: if hw > 1 { 3 } else { 0 },
            done: AtomicBool::new(false),
            max_attempts: cfg.max_attempts,
            ins,
            input,
        }
    }

    /// The run's clock: the recorder's, started with the run.
    fn now(&self) -> Time {
        self.ins.recorder.now_us()
    }

    /// What a workload callback run at `now` sees of this executor.
    fn env(&self, now: Time) -> Env {
        Env {
            now,
            workers: self.slots.len(),
            max_task_bytes: None,
        }
    }

    /// Block the calling thread until `due` (µs on the run's clock): sleep
    /// to within [`FEEDER_SPIN_US`] of it, then yield until it. A plain
    /// sleep overshoots by about that much on a loaded box, and every
    /// microsecond a block is handed over late is latency the arrival
    /// schedule did not ask for.
    fn wait_until(&self, due: Time) {
        while let Some(left) = due.checked_sub(self.now()).filter(|&l| l > 0) {
            if left > FEEDER_SPIN_US {
                std::thread::sleep(Duration::from_micros(left - FEEDER_SPIN_US));
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Whether worker `slot`'s ready slot holds a task.
    fn is_bound(&self, slot: usize) -> bool {
        lock_recover(&self.slots[slot]).is_some()
    }

    /// Bind a dispatched task into worker `slot`'s empty ready slot.
    fn bind(&self, slot: usize, work: Dispatched) {
        self.ins.recorder.emit(
            slot,
            EventKind::Dispatch {
                id: work.id,
                name: work.name,
                class: work.class.trace_tag(),
                version: work.version,
                lane: slot as u32,
            },
        );
        // `in_slots` rises before the entry is visible so a racing parker's
        // re-check errs towards staying awake, never towards sleeping on
        // available work.
        self.in_slots.fetch_add(1, Ordering::SeqCst);
        let previous = lock_recover(&self.slots[slot]).replace(work);
        debug_assert!(previous.is_none(), "the pump binds empty slots only");
    }

    /// Take work for worker `me`: its own slot, else another worker's —
    /// whose owner is still running the task before it, or parked, and
    /// would start it later. The second element is the victim's slot when
    /// the task was stolen.
    fn grab(&self, me: usize) -> Option<(Dispatched, Option<usize>)> {
        let n = self.slots.len();
        (0..n).map(|off| (me + off) % n).find_map(|slot| {
            let work = lock_recover(&self.slots[slot]).take()?;
            self.in_slots.fetch_sub(1, Ordering::SeqCst);
            Some((work, (slot != me).then_some(slot)))
        })
    }

    /// Demand-driven wake-up: unpark *one* worker, and only when the slot
    /// backlog exceeds what the currently-awake workers will drain anyway.
    /// Awake workers always return to [`Fabric::grab`], so they need no
    /// wake; and waking beyond `target_awake` buys no parallelism. Ramp-up
    /// to full width happens by chaining — every successful grab calls this
    /// again, so each woken worker can wake the next while backlog remains.
    ///
    /// Lost-wakeup safety: a parker increments `parked_count` *before*
    /// re-checking `in_slots`, and the pump raises `in_slots` *before*
    /// calling this (both SeqCst). If the parker missed the push, this call
    /// is guaranteed to see `parked_count > 0` with zero awake workers and
    /// wake it (or a sibling, which then grabs the work).
    fn wake_for_work(&self) {
        let parked = self.parked_count.load(Ordering::SeqCst);
        if parked == 0 {
            return;
        }
        let awake = self.slots.len() - parked.min(self.slots.len());
        if awake < self.target_awake && self.in_slots.load(Ordering::SeqCst) > awake {
            for p in &self.parkers {
                if p.parked.swap(false, Ordering::SeqCst) {
                    if let Some(t) = p.handle.get() {
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
            if let Some(t) = p.handle.get() {
                t.unpark();
            }
        }
    }

    /// Whether no report is queued.
    fn no_reports(&self) -> bool {
        lock_recover(&self.reports).is_empty()
    }

    /// End the run: a worker that finishes a task after this drops its
    /// report, and everyone is woken to exit.
    fn shut_down(&self) {
        self.done.store(true, Ordering::SeqCst);
        self.wake_all();
    }
}

/// Everything behind the commit lock: the executor core plus the routing
/// batch. Touched only during a commit-path [`turn`].
struct Inner<W> {
    core: Core<W>,
    /// Reports held back by an injected `DelayCompletion`: routed with the
    /// next batch, after everything that shared their own — the reordering
    /// is the fault.
    delayed: Vec<Finished>,
    /// The batch being routed (kept for its capacity between turns).
    batch: Vec<Finished>,
}

/// A worker's report to the commit path.
struct Finished {
    span: Span,
    body: Report,
}

/// Fill the empty ready slots from the central ready queue, in dispatch
/// order: the slot of `caller` (the worker taking this turn, which grabs
/// next) first, then those of awake workers, then those of parked ones.
/// Caller holds the commit lock, and only the pump fills slots, so a slot
/// seen empty stays empty until it is bound. Returns whether anything was
/// bound (i.e. parked workers need a wake).
fn pump(fabric: &Fabric, sched: &mut Scheduler, caller: Option<usize>) -> bool {
    let n = fabric.slots.len();
    let from = caller.unwrap_or(0);
    let mut pushed = false;
    for parked in [false, true] {
        for slot in (from..n).chain(0..from) {
            if fabric.parkers[slot].parked.load(Ordering::Relaxed) != parked
                || fabric.is_bound(slot)
            {
                continue;
            }
            let Some(work) = sched.dispatch() else {
                return pushed;
            };
            fabric.bind(slot, work);
            pushed = true;
        }
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

/// Route one batch of completion reports: held-back ones first, then every
/// queued one, all under the caller's single commit-lock acquisition — on a
/// short-task storm that amortises the lock/pump/wake cost across the
/// backlog instead of paying it per task. Returns the stamp routing started
/// at, `None` when nothing was pending.
fn route<W: Workload>(fabric: &Fabric, inner: &mut Inner<W>) -> Option<Time> {
    let mut batch = std::mem::take(&mut inner.batch);
    batch.append(&mut inner.delayed);
    batch.append(&mut lock_recover(&fabric.reports));
    if batch.is_empty() {
        inner.batch = batch;
        return None;
    }
    let rec = &fabric.ins.recorder;
    let route_from = fabric.now();
    let mut waited_us = 0;
    let core = &mut inner.core;
    for f in batch.drain(..) {
        let (span, env) = (f.span, fabric.env(f.span.finished));
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
        core.settle(env, &span, f.body, rec);
        if echo {
            // Deliver the completion a second time, as the simulator does:
            // the task is no longer running, so the scheduler counts the
            // echo and it charges and settles nothing.
            let _ = core.sched.try_complete(span.id);
        }
    }
    inner.batch = batch;
    // How long completions waited for the commit path: per routed report,
    // from the task's `finished` stamp to the start of its batch.
    rec.add_control(Counter::TimeRouterWaitUs, waited_us);
    Some(route_from)
}

/// What a commit-path [`turn`] — or a [`combine`] run of them — leaves for
/// its caller.
struct Turn {
    /// The pump bound new work into the slots.
    pushed: bool,
    /// µs this turn charged to `TimeCommitUs`; a worker moves its own
    /// interval mark past them so no microsecond is charged twice.
    commit_us: Time,
    /// Reports are pending — held back, or published while this turn had
    /// the lock: take another turn if the lock is still free.
    again: bool,
}

/// One commit-path turn, by whoever holds the commit lock — worker
/// `caller`, or the calling thread of [`run`] when `None`: run `entry`
/// (the feeder's batch, the run's start — nothing for a worker),
/// route what the report queue holds, pump the slots, evaluate run
/// completion; then unlock, wake, and check the queue — the holder's half
/// of the no-stranding argument in the module docs.
///
/// Control-shard events and gauges are only written from here, so they
/// keep one writer at a time. A panicking workload
/// callback is caught *inside* the lock hold: the lock is not poisoned,
/// the run fails with a [`RunError`], and shutdown takes the normal path.
fn turn<W: Workload>(
    fabric: &Fabric,
    mut guard: MutexGuard<'_, Inner<W>>,
    caller: Option<usize>,
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
    let pushed = pump(fabric, &mut inner.core.sched, caller);
    let done = run_complete(fabric, &mut inner.core);
    let held_back = !inner.delayed.is_empty();
    drop(guard);
    // Commit-path time: the whole routed batch under one lock acquisition
    // (one add per batch, not per task).
    let commit_us = routed.map_or(0, |from| {
        let us = fabric.now().saturating_sub(from);
        fabric.ins.recorder.add_control(Counter::TimeCommitUs, us);
        us
    });
    if done {
        fabric.shut_down();
    } else if pushed {
        fabric.wake_for_work();
    }
    // Unlock, then check the queue; pairs with push, then `try_lock` in
    // [`combine`].
    Turn {
        pushed,
        commit_us,
        again: !done && (held_back || !fabric.no_reports()),
    }
}

/// Flat combining: take commit-path turns for as long as reports are
/// pending and the lock is free. Never waits for the lock — when it is
/// busy, its holder checks the report queue after unlocking. Called by a
/// worker right after it pushed a report, and by an idle worker before it
/// parks (work conservation: a dry spell refills the slots without anyone
/// else's help). Returns the turns' sum; `again` is left set only when
/// reports were still pending and the lock was busy.
fn combine<W: Workload>(fabric: &Fabric, commit: &Mutex<Inner<W>>, caller: Option<usize>) -> Turn {
    let mut sum = Turn {
        pushed: false,
        commit_us: 0,
        again: true,
    };
    while sum.again {
        let guard = match commit.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => break,
        };
        let t = turn(fabric, guard, caller, |_| {});
        sum.pushed |= t.pushed;
        sum.commit_us += t.commit_us;
        sum.again = t.again;
    }
    sum
}

/// Run `entry` under the commit lock (waiting for it) as part of a full
/// [`turn`]: for the calling thread, which brings its own work to the
/// commit path — the run's start and the feeder's batches.
fn locked<W: Workload>(
    fabric: &Fabric,
    commit: &Mutex<Inner<W>>,
    entry: impl FnOnce(&mut Core<W>),
) {
    if turn(fabric, lock_recover(commit), None, entry).again {
        combine(fabric, commit, None);
    }
}

/// Spawn the worker thread of slot `me` into the run's `scope`.
fn spawn_worker<'scope, W: Workload + Send>(
    scope: &'scope Scope<'scope, '_>,
    me: usize,
    fabric: &'scope Fabric<'_>,
    commit: &'scope Mutex<Inner<W>>,
) -> ScopedJoinHandle<'scope, ()> {
    std::thread::Builder::new()
        .name(format!("tvs-worker-{me}"))
        .spawn_scoped(scope, move || {
            let _ = fabric.parkers[me].handle.set(std::thread::current());
            let rec = &fabric.ins.recorder;
            let mut spins = 0u32;
            // Time-accounting profiler: `mark` is the end of the
            // last charged interval. Work-acquisition time (slot
            // takes, steal scans, spin-yields, re-validation) is
            // charged at the next grab, body time at task end and
            // park time around the futex nap — each boundary
            // reuses a stamp the loop already takes, so the only
            // extra cost is one counter add per interval. Time a
            // commit-path turn charged to `TimeCommitUs` is kept
            // out by moving `mark` past it.
            let mut mark = fabric.now();
            loop {
                match fabric.grab(me) {
                    Some((mut work, stolen_from)) => {
                        spins = 0;
                        if let Some(victim) = stolen_from {
                            rec.emit(
                                me,
                                EventKind::Steal {
                                    id: work.id,
                                    victim: victim as u32,
                                },
                            );
                        }
                        // Wake chain: if backlog remains beyond the
                        // awake set, ramp up one more worker.
                        fabric.wake_for_work();
                        // Re-validation: a speculative task whose
                        // version was rolled back after the bind is
                        // cancelled, not run.
                        let (body, span) = if work.version.is_some() && work.aborted() {
                            let now = fabric.now();
                            rec.add(me, Counter::TimeStealUs, now.saturating_sub(mark));
                            mark = now;
                            (Report::Cancelled, Span::of(&work, me, now, now))
                        } else {
                            let started = fabric.now();
                            let mut span = Span::of(&work, me, started, started);
                            rec.emit_at(me, started, span.start_event());
                            rec.add(me, Counter::TimeStealUs, started.saturating_sub(mark));
                            let body = run_body(
                                &mut work,
                                me,
                                &fabric.ins,
                                fabric.input,
                                fabric.max_attempts,
                                Injection::Live,
                            );
                            // The span closes here; its task-end, which
                            // charges the body time, is recorded when the
                            // commit path settles it.
                            span.finished = fabric.now();
                            mark = span.finished;
                            (body, span)
                        };
                        // Route it here and now if the commit lock is
                        // free; otherwise its holder picks it up. A run
                        // that has ended routes nothing more.
                        if fabric.done.load(Ordering::SeqCst) {
                            return;
                        }
                        lock_recover(&fabric.reports).push(Finished { span, body });
                        mark += combine(fabric, commit, Some(me)).commit_us;
                    }
                    None => {
                        if fabric.done.load(Ordering::SeqCst) {
                            return;
                        }
                        // Work conservation: take a commit-path turn
                        // ourselves if the lock happens to be free —
                        // route what is pending, refill the slots.
                        let turns = combine(fabric, commit, Some(me));
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
                        // The queue check is the parker's part of the
                        // no-stranding argument: never sleep on a
                        // queued report — go round and `try_lock` (if
                        // the lock is busy, its holder checks the queue
                        // when it unlocks).
                        p.parked.store(true, Ordering::SeqCst);
                        fabric.parked_count.fetch_add(1, Ordering::SeqCst);
                        if fabric.in_slots.load(Ordering::SeqCst) == 0
                            && fabric.no_reports()
                            && !fabric.done.load(Ordering::SeqCst)
                        {
                            rec.emit(me, EventKind::Park);
                            let napped = fabric.now();
                            rec.add(me, Counter::TimeStealUs, napped.saturating_sub(mark));
                            std::thread::park_timeout(Duration::from_millis(100));
                            mark = fabric.now();
                            let idle = mark.saturating_sub(napped);
                            rec.add(me, Counter::TimeParkUs, idle);
                            rec.record(Hist::IdleSliceUs, idle);
                            rec.emit(me, EventKind::Unpark);
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
/// recording into `ins.recorder` as the run executes (so a sampler thread
/// or `tvs-top` can watch mid-run) and drawing faults from `ins.faults`.
/// Pass `&Instruments::default()` to run dark — the executor then keeps
/// its counters in a counters-only recorder.
///
/// `input` is borrowed, not copied: every block's `bytes` is a range of it,
/// and task bodies read it through [`crate::TaskCtx::input`]. The run's
/// worker threads live in one [`std::thread::scope`] that ends before this
/// returns, which is what lets them hold the borrow. The calling thread
/// joins every worker explicitly, so a thread that died is reported, never
/// re-raised by the scope.
///
/// Returns the finished workload and the run metrics, or a structured
/// [`RunError`] when the run cannot complete (a non-speculative task
/// panicking on every retry, a panicking workload callback, or a runtime
/// thread dying) — never a process abort.
///
/// Predictor/check/commit and rollback events are recorded on the control
/// shard (their emitters hold the commit lock, keeping it single-writer);
/// dispatch events on the slot the task was bound to; steal, task-start,
/// task-fault and park/unpark events on the emitting worker's own shard.
/// Stamps are wall-clock µs on the recorder's clock, started with the run.
/// A task-end is recorded on its worker's shard when the commit path
/// settles the report, stamped when the body returned and carrying the
/// settled verdict, so the spans sum to `busy_us` and their discarded part
/// to `wasted_us` exactly, as on the simulator.
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
        // Worker threads: grab from slots, run, report, and route the
        // report themselves when the commit lock is free. The lock is never
        // *waited on* here — a worker only ever `try_lock`s it.
        let workers: Vec<_> = (0..cfg.workers)
            .map(|me| spawn_worker(scope, me, fabric, commit))
            .collect();

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
    let metrics = run_metrics(&fabric.ins.recorder, makespan);
    Ok((core.workload, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{payload, Payload, TaskSpec};
    use crate::workload::{Completion, FaultNotice, SchedCtx};
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;
    use tvs_faults::{FaultInjector, FaultPlan};
    use tvs_metrics::Recorder;

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
            "every task went through a slot"
        );
        assert_eq!(m.faults, 0);
        assert_eq!(m.duplicate_completions, 0);
    }

    #[test]
    fn dispatch_binds_at_most_one_task_ahead_per_worker() {
        // Twin of the simulator's `prefetch_depth_binds_work_early`: with
        // 12 × workers regular tasks ready, the first completion spawns a
        // check and a deeper regular task. Each must start after at most
        // `workers` of the tasks bound before it — the ones already in
        // ready slots — never behind a queue of coarse work bound early.
        const WORKERS: usize = 2;
        const FILLERS: usize = 12 * WORKERS;
        struct Burst {
            seen: usize,
            spawned: bool,
        }
        fn busy(_: &crate::task::TaskCtx<'_>) -> Payload {
            let t0 = std::time::Instant::now();
            while t0.elapsed() < Duration::from_micros(100) {
                std::hint::spin_loop();
            }
            payload(())
        }
        impl Workload for Burst {
            fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
                for i in 0..FILLERS {
                    ctx.spawn(TaskSpec::regular("filler", 0, 0, i as u64, busy));
                }
            }
            fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {}
            fn on_complete(&mut self, ctx: &mut dyn SchedCtx, _: Completion) {
                if !self.spawned {
                    self.spawned = true;
                    ctx.spawn(TaskSpec::check("check", 0, 0, busy));
                    ctx.spawn(TaskSpec::regular("deep", 1, 0, 0, busy));
                }
                self.seen += 1;
            }
            fn is_finished(&self) -> bool {
                self.seen == FILLERS + 2
            }
        }
        let rec = Recorder::enabled(WORKERS);
        let (w, m) = run(
            Burst {
                seen: 0,
                spawned: false,
            },
            &ThreadedConfig::new(WORKERS),
            NON_SPEC,
            &[],
            Vec::new(),
            &Instruments::recorded(rec.clone()),
        )
        .expect("traced run completes");
        assert_eq!(w.seen, FILLERS + 2);
        assert_eq!(m.tasks_delivered, (FILLERS + 2) as u64);
        // Bind and start order: the global emission sequence.
        let mut events = rec.drain().expect("enabled recorder drains").events;
        events.sort_by_key(|e| e.seq);
        let mut bound = std::collections::HashMap::new();
        let mut starts = Vec::new();
        for e in &events {
            match e.kind {
                EventKind::Dispatch { id, name, .. } => {
                    bound.insert(id, (e.seq, name));
                }
                EventKind::TaskStart { id, .. } => starts.push((e.seq, id)),
                _ => {}
            }
        }
        for late in ["check", "deep"] {
            let (&id, &(bound_at, _)) = bound.iter().find(|(_, &(_, n))| n == late).unwrap();
            let started_at = starts.iter().find(|&&(_, t)| t == id).unwrap().0;
            let ahead = starts
                .iter()
                .filter(|&&(at, t)| bound_at < at && at < started_at && bound[&t].0 < bound_at)
                .count();
            assert!(
                ahead <= WORKERS,
                "'{late}' started after {ahead} tasks bound before it"
            );
        }
    }

    #[test]
    fn traced_run_records_dispatch_and_task_events() {
        let (input, blocks) = at_once(16, 64);
        let cfg = ThreadedConfig::new(3);
        let rec = Recorder::enabled(3);
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
            &Instruments::recorded(rec.clone()),
        )
        .expect("traced run completes");
        assert_eq!(w.seen, 16);
        assert_eq!(m.tasks_delivered, 16);
        let log = rec.drain().expect("enabled recorder drains");
        assert_eq!(log.timebase, tvs_trace::Timebase::Wall);
        assert_eq!(log.count("dispatch"), 16, "one dispatch per task");
        assert_eq!(log.count("task-start"), 16);
        assert_eq!(log.count("task-end"), 16);
        assert_eq!(
            log.count("steal") as u64,
            m.steals,
            "steal events mirror the metrics counter"
        );
        // A dispatch lives on the track of the slot it bound the task to.
        assert!(log.events.iter().all(|e| match e.kind {
            EventKind::Dispatch { lane, .. } => e.worker == lane,
            _ => true,
        }));
        let spans = log.tasks();
        assert_eq!(spans.iter().map(|s| s.busy_us()).sum::<u64>(), m.busy_us);
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
        // to its slot would cancel the task instead of discarding it.
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
        // rollback), some are bound in ready slots (cancelled by
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
                // Balanced pumps the normal task into a slot before any
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

    #[test]
    fn a_slot_bound_task_of_a_rolled_back_version_is_cancelled_unrun() {
        // One worker runs `gate` while a batch due at ~50 ms makes the
        // feeder's turn bind a speculative `victim` into that worker's
        // ready slot; `gate` then finishes and its completion rolls back
        // `victim`'s version. The worker takes `victim` from its slot only
        // after routing `gate`, finds the abort flag raised and cancels the
        // task: a ready deletion, never a run and never a discard.
        struct Gated {
            rec: Recorder,
            victim_ran: Arc<AtomicBool>,
            gate_done: bool,
        }
        impl Workload for Gated {
            fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
                let rec = self.rec.clone();
                ctx.spawn(TaskSpec::regular("gate", 0, 0, 0, move |_| {
                    // Hold the worker until `victim` is bound (the second
                    // dispatch), then a little longer, so the feeder's turn
                    // has let go of the commit lock and this worker routes
                    // its own completion before it takes `victim`.
                    let t0 = std::time::Instant::now();
                    while rec.counter_total(Counter::LaneDispatch) < 2
                        && t0.elapsed() < Duration::from_secs(5)
                    {
                        std::thread::yield_now();
                    }
                    std::thread::sleep(Duration::from_millis(20));
                    payload(())
                }));
            }
            fn on_input(&mut self, ctx: &mut dyn SchedCtx, _: InputBlock) {
                let ran = Arc::clone(&self.victim_ran);
                ctx.spawn(TaskSpec::speculative("victim", 0, 0, 1, 0, move |_| {
                    ran.store(true, Ordering::SeqCst);
                    payload(())
                }));
            }
            fn on_complete(&mut self, ctx: &mut dyn SchedCtx, done: Completion) {
                assert_eq!(done.name, "gate", "only the gate delivers");
                ctx.abort_version(1);
                self.gate_done = true;
            }
            fn is_finished(&self) -> bool {
                self.gate_done
            }
        }
        let rec = Recorder::enabled(1);
        let victim_ran = Arc::new(AtomicBool::new(false));
        let (input, mut blocks) = at_once(1, 8);
        blocks[0].arrival = 50_000;
        let (w, m) = run(
            Gated {
                rec: rec.clone(),
                victim_ran: Arc::clone(&victim_ran),
                gate_done: false,
            },
            &ThreadedConfig::new(1),
            DispatchPolicy::Aggressive,
            &input,
            blocks,
            &Instruments::recorded(rec.clone()),
        )
        .expect("traced run completes");
        assert!(w.gate_done);
        assert!(!victim_ran.load(Ordering::SeqCst), "victim's body ran");
        assert_eq!(m.tasks_delivered, 1);
        assert_eq!(m.tasks_deleted_ready, 1);
        assert_eq!(m.tasks_discarded, 0);
        let events = rec.drain().expect("enabled recorder drains").events;
        let victim = events
            .iter()
            .find_map(|e| match e.kind {
                EventKind::Dispatch {
                    id, name: "victim", ..
                } => Some(id),
                _ => None,
            })
            .expect("victim was bound");
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, EventKind::CancelReady { id, .. } if id == victim)),
            "a cancel-ready names victim"
        );
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
            m.duplicate_completions, echoes,
            "every injected echo is absorbed by the scheduler"
        );
    }

    #[test]
    fn duplicated_completion_is_absorbed_by_the_scheduler() {
        // Focused version of the chaos smoke: with *only* duplicate echoes
        // injected, the scheduler's duplicate count must match the injection
        // count exactly and the output must be unaffected.
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
        assert_eq!(m.duplicate_completions, 8);
    }

    /// A workload whose block 0 wedges: its body sleeps `wedge_us`,
    /// ignoring the abort flag. Records each delivered block's index and
    /// `finished` stamp.
    struct Wedger {
        n: usize,
        wedge_us: u64,
        finished: Vec<(u64, Time)>,
    }

    impl Workload for Wedger {
        fn on_input(&mut self, ctx: &mut dyn SchedCtx, b: InputBlock) {
            let bytes = b.bytes;
            let wedge = if b.index == 0 { self.wedge_us } else { 0 };
            ctx.spawn(TaskSpec::regular(
                "sum",
                0,
                bytes.len(),
                b.index as u64,
                move |ctx| {
                    std::thread::sleep(Duration::from_micros(wedge));
                    payload(sum(&ctx.input()[bytes.clone()]))
                },
            ));
        }
        fn on_complete(&mut self, _ctx: &mut dyn SchedCtx, done: Completion) {
            self.finished.push((done.tag, done.finished));
        }
        fn is_finished(&self) -> bool {
            self.finished.len() == self.n
        }
    }

    #[test]
    fn a_wedged_workers_queued_tasks_are_stolen() {
        // Block 0 holds its worker for 400 ms; the other worker runs its
        // own slot and steals every task bound into the wedged worker's,
        // so a stalled worker holds up nothing but its running task.
        let (input, blocks) = at_once(12, 50);
        let cfg = ThreadedConfig::new(2);
        let (w, m) = dark(
            Wedger {
                n: 12,
                wedge_us: 400_000,
                finished: Vec::new(),
            },
            &cfg,
            NON_SPEC,
            &input,
            blocks,
        );
        let mut tags: Vec<u64> = w.finished.iter().map(|&(tag, _)| tag).collect();
        tags.sort_unstable();
        assert_eq!(
            tags,
            (0..12).collect::<Vec<_>>(),
            "every block delivered once"
        );
        assert_eq!(m.tasks_delivered, 12);
        assert!(m.steals >= 1, "the idle worker stole from the wedged slot");
        let wedged = w.finished.iter().find(|&&(tag, _)| tag == 0).unwrap().1;
        assert!(
            w.finished.iter().all(|&(tag, at)| tag == 0 || at < wedged),
            "the other blocks finish while block 0 is wedged: {:?}",
            w.finished
        );
    }
}
