//! The executor core: everything that calls into a [`Workload`] or accounts
//! a task, written once for both executors.
//!
//! [`super::sim`] keeps its event heap and virtual clock;
//! [`super::threaded`] keeps its ready slots, report queue and parkers. Both hand
//! what happened to the pieces here, and differ only in the plain data they
//! pass along:
//!
//! * [`Core`] — scheduler, workload and run outcome: the state behind the
//!   threaded commit lock, owned outright by the simulator;
//! * one [`SchedCtx`] for every workload callback, built from an [`Env`]
//!   (clock reading, worker count, task-size limit);
//! * [`run_body`] — one panic-isolated body execution;
//! * [`Core::settle`] — deliver, discard or recover a finished occupancy;
//! * [`Core::recover`] — the one path from a lost task to the workload.
//!
//! # Fault handling
//!
//! The paper treats misspeculation as a first-class, recoverable event;
//! this module extends the same discipline to machine faults.
//!
//! * Every task body runs under `catch_unwind`. A panicking *speculative*
//!   body is treated exactly like a detected misspeculation: its slot is
//!   reclaimed ([`Scheduler::fault`]), the workload is notified
//!   ([`Workload::on_fault`]) so its speculation manager can clear its
//!   records, and the version is aborted through the regular rollback
//!   path. A panicking *non-speculative* body is retried in place up to
//!   the config's `max_attempts` — on threads after a jittered exponential
//!   backoff, in virtual time instantly — and only then does the run end,
//!   with a structured [`RunError`], never a process abort.
//! * The run's fault plan ([`Instruments::faults`]) is drawn at the
//!   task-body, completion and feeder sites. When depends on the executor,
//!   because the simulated figures depend on it: the simulator draws a
//!   body's fault at dispatch (a stall inflates its virtual cost, a panic
//!   fails its first attempt), delays a completion to a later virtual
//!   instant; threads draw before every attempt (a stall sleeps on the wall
//!   clock, returning early once the task is aborted) and hold a delayed
//!   report for the next routing batch. On both, a duplicate completion is
//!   delivered again right after the original settled, and the scheduler
//!   absorbs it: the task is no longer running, so the echo is counted and
//!   charges and settles nothing.
//! * A running task is cut short one way: its version's rollback raises
//!   its abort flag ([`Scheduler::abort_version`]). A body (or an injected
//!   stall) that polls the flag returns early and its output is discarded;
//!   a non-speculative task carries no version and is never cut short.
//! * Threads only: a panic inside a workload callback is caught on the
//!   commit path and fails the run the same structured way; poisoned locks
//!   are recovered, not propagated.

use crate::instruments::Instruments;
use crate::metrics::RunMetrics;
use crate::policy::DispatchPolicy;
use crate::sched::{CompletionOutcome, Dispatched, Scheduler};
use crate::task::{mix64, Payload, SpecVersion, TaskClass, TaskCtx, TaskId, TaskSpec, Time};
use crate::workload::{Completion, FaultNotice, InputBlock, SchedCtx, Workload};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};
use tvs_faults::{FaultKind, FaultSite};
use tvs_metrics::{Counter, Recorder};
use tvs_trace::EventKind;

/// Why a run failed: the error of the executors' `run` entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A non-speculative task panicked on every attempt the run allowed.
    /// (Speculative tasks never produce this: their faults are absorbed by
    /// aborting the version.)
    TaskFailed {
        /// Task kind name.
        name: &'static str,
        /// Task id.
        id: TaskId,
        /// Body attempts made (initial run + retries).
        attempts: u32,
    },
    /// A runtime thread (feeder, worker) died outside a task body, or a
    /// workload callback panicked on the commit path — a bug, but still
    /// reported as a value so callers can fail their run instead of the
    /// process.
    WorkerLost {
        /// Which thread was lost.
        what: &'static str,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::TaskFailed { name, id, attempts } => write!(
                f,
                "task '{name}' (id {id}) panicked on all {attempts} attempts"
            ),
            RunError::WorkerLost { what } => {
                write!(f, "runtime thread '{what}' terminated abnormally")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Body attempts a panicking non-speculative task gets by default (initial
/// run included).
pub(crate) const DEFAULT_MAX_ATTEMPTS: u32 = 3;

/// Backoff before the first retry on threads, µs; it doubles per retry.
const BASE_BACKOFF_US: u64 = 100;

/// Backoff cap, µs.
const MAX_BACKOFF_US: u64 = 10_000;

/// Backoff before retry `attempt` (1-based), µs.
fn backoff_us(attempt: u32) -> u64 {
    let shift = attempt.saturating_sub(1).min(32);
    BASE_BACKOFF_US
        .saturating_mul(1u64 << shift)
        .min(MAX_BACKOFF_US)
}

/// [`backoff_us`] with ±50 % seeded jitter, µs.
///
/// Exponential backoff with synchronized phases is self-defeating: if a
/// shared cause (an injected stall burst, a contended resource) faults
/// several tasks at once, fixed backoff wakes all their retries in the
/// same instant. The jitter is a pure function of `(salt, attempt)` — the
/// task id is the salt — so retry schedules stay reproducible per task
/// while distinct tasks decorrelate. The result is in
/// `[backoff/2, backoff*3/2)`, still capped at [`MAX_BACKOFF_US`].
fn jittered_backoff_us(attempt: u32, salt: u64) -> u64 {
    let base = backoff_us(attempt);
    let r = mix64(salt ^ 0x5851_F42D_4C95_7F2D_u64.wrapping_mul(u64::from(attempt)));
    (base / 2 + r % base).min(MAX_BACKOFF_US)
}

/// [`Mutex::into_inner`] with the same poison recovery as
/// [`tvs_metrics::lock_recover`].
pub fn into_inner_recover<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(PoisonError::into_inner)
}

/// Abort-aware wall-clock stall (the threaded interpretation of an
/// injected `Stall`): sleeps in small increments, returning early once the
/// task's version is aborted — so a rollback releases a stalled
/// speculative task as it releases any body that polls its abort flag.
fn stall_wall(us: u64, ctx: &TaskCtx<'_>) {
    let t0 = Instant::now();
    let step = Duration::from_micros((us / 10).clamp(20, 500));
    while (t0.elapsed().as_micros() as u64) < us && !ctx.aborted() {
        std::thread::sleep(step);
    }
}

/// What both executors' `run` require of their input: `blocks` sorted by
/// due time, every block a range of `input`.
pub(crate) fn assert_schedule(input: &[u8], blocks: &[InputBlock]) {
    assert!(
        blocks.windows(2).all(|w| w[0].arrival <= w[1].arrival),
        "blocks must be sorted by due time"
    );
    assert!(
        blocks.iter().all(|b| b.bytes.end <= input.len()),
        "every block lies in the input"
    );
}

/// What a workload callback may learn about its executor, as plain data.
#[derive(Clone, Copy)]
pub(crate) struct Env {
    /// The executor's clock, µs (virtual or wall).
    pub(crate) now: Time,
    /// Worker count.
    pub(crate) workers: usize,
    /// The most payload bytes one task may touch (the Cell's local store).
    pub(crate) max_task_bytes: Option<usize>,
}

/// The [`SchedCtx`] every workload callback of either executor gets.
struct Ctx<'a> {
    sched: &'a mut Scheduler,
    env: Env,
}

impl SchedCtx for Ctx<'_> {
    fn now(&self) -> Time {
        self.env.now
    }

    fn spawn(&mut self, spec: TaskSpec) -> Option<TaskId> {
        if let Some(max) = self.env.max_task_bytes {
            assert!(
                spec.bytes <= max,
                "task '{}' touches {} bytes, exceeding the {max}-byte local-store limit",
                spec.name,
                spec.bytes
            );
        }
        self.sched.spawn(spec)
    }

    fn abort_version(&mut self, version: SpecVersion) {
        self.sched.abort_version(version);
    }

    fn workers(&self) -> usize {
        self.env.workers
    }

    fn max_task_bytes(&self) -> Option<usize> {
        self.env.max_task_bytes
    }
}

/// One occupancy of a worker by a task: what the completion paths need of
/// it once the body has run.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Span {
    pub(crate) id: TaskId,
    pub(crate) name: &'static str,
    pub(crate) class: TaskClass,
    pub(crate) version: Option<SpecVersion>,
    pub(crate) tag: u64,
    /// The worker (lane) that ran it.
    pub(crate) worker: usize,
    pub(crate) started: Time,
    pub(crate) finished: Time,
}

impl Span {
    pub(crate) fn of(work: &Dispatched, worker: usize, started: Time, finished: Time) -> Self {
        Span {
            id: work.id,
            name: work.name,
            class: work.class,
            version: work.version,
            tag: work.tag,
            worker,
            started,
            finished,
        }
    }

    pub(crate) fn busy(&self) -> Time {
        self.finished.saturating_sub(self.started)
    }

    pub(crate) fn start_event(&self) -> EventKind {
        EventKind::TaskStart {
            id: self.id,
            name: self.name,
            version: self.version,
            tag: self.tag,
        }
    }

    /// The task-end that settles this span as `end`.
    fn end_event(&self, end: End) -> EventKind {
        EventKind::TaskEnd {
            id: self.id,
            name: self.name,
            class: self.class.trace_tag(),
            version: self.version,
            discarded: end != End::Delivered,
            faulted: end == End::Faulted,
            busy_us: self.busy(),
        }
    }
}

/// How a worker's occupancy of a task ended.
pub(crate) enum Report {
    /// The body ran to completion and produced an output.
    Ran(Payload),
    /// Every body attempt panicked (`attempt` = retries spent; 0 for
    /// speculative tasks, which are never retried).
    Faulted { attempt: u32 },
    /// Its version was rolled back while it sat in a worker's ready slot,
    /// so the worker cancelled it before it ran (threads).
    Cancelled,
    /// The task's version was aborted before its body ran, so the body was
    /// skipped and the occupancy is wasted (simulator).
    Skipped,
}

/// How a settled body's occupancy ended.
#[derive(Clone, Copy, PartialEq, Eq)]
enum End {
    Delivered,
    Discarded,
    Faulted,
}

/// How the faults injected at a task body are acted out.
#[derive(Clone, Copy)]
pub(crate) enum Injection {
    /// The simulator drew them at dispatch — a stall is already part of
    /// the task's virtual cost — and `true` fails the first attempt.
    Drawn(bool),
    /// Threads draw before every attempt, sleep a stall on the wall clock
    /// and back off before a retry.
    Live,
}

/// Run `work`'s body on `worker` under `catch_unwind`, retrying a
/// panicking non-speculative body up to `max_attempts` attempts in all.
/// Every attempt — first call, in-place retry, a replica's run of the
/// shared body — gets a [`TaskCtx`] over the task's abort flag and the
/// run's `input`, built here and borrowed for that call only. Records
/// every caught panic as a task fault and counts every retry; the span of
/// a body that faulted for good is closed when it is settled.
pub(crate) fn run_body(
    work: &mut Dispatched,
    worker: usize,
    ins: &Instruments,
    input: &[u8],
    max_attempts: u32,
    injection: Injection,
) -> Report {
    let rec = &ins.recorder;
    let mut attempt = 0u32;
    loop {
        let ctx = TaskCtx::new(&work.abort, input);
        let boom = match injection {
            Injection::Drawn(first) => first && attempt == 0,
            Injection::Live => match ins.faults.draw(FaultSite::TaskBody) {
                Some(FaultKind::PanicTask) => true,
                Some(FaultKind::Stall { us }) => {
                    stall_wall(us, &ctx);
                    false
                }
                _ => false,
            },
        };
        let run = &mut work.run;
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if boom {
                panic!("injected task-body fault");
            }
            (run)(&ctx)
        }));
        if let Ok(output) = ran {
            return Report::Ran(output);
        }
        rec.emit(
            worker,
            EventKind::TaskFault {
                id: work.id,
                name: work.name,
                version: work.version,
                attempt,
            },
        );
        // Speculative faults never retry: aborting the version is cheaper
        // and the speculation layer restarts the work.
        if work.version.is_some() || attempt + 1 >= max_attempts.max(1) {
            return Report::Faulted { attempt };
        }
        attempt += 1;
        rec.add(worker, Counter::Retries, 1);
        if let Injection::Live = injection {
            let wait = jittered_backoff_us(attempt, work.id);
            rec.add(worker, Counter::RetryBackoffUs, wait);
            std::thread::sleep(Duration::from_micros(wait));
        }
    }
}

/// Scheduler, workload and run outcome: everything a workload callback
/// touches. Behind the commit lock on threads.
pub(crate) struct Core<W> {
    pub(crate) sched: Scheduler,
    pub(crate) workload: W,
    /// Set when the run is failing with this error. Shutdown proceeds
    /// through the normal done path so every thread still joins.
    pub(crate) failed: Option<RunError>,
    /// The workload has heard the end of its input.
    pub(crate) input_done: bool,
    /// When the run completed, µs.
    pub(crate) finished_at: Option<Time>,
}

impl<W: Workload> Core<W> {
    pub(crate) fn new(workload: W, policy: DispatchPolicy, ins: &Instruments) -> Self {
        Core {
            sched: Scheduler::instrumented(policy, ins),
            workload,
            failed: None,
            input_done: false,
            finished_at: None,
        }
    }

    fn call(&mut self, env: Env, f: impl FnOnce(&mut W, &mut dyn SchedCtx)) {
        let mut ctx = Ctx {
            sched: &mut self.sched,
            env,
        };
        f(&mut self.workload, &mut ctx);
    }

    /// [`Workload::on_start`].
    pub(crate) fn start(&mut self, env: Env) {
        self.call(env, |w, ctx| w.on_start(ctx));
    }

    /// Hand over every block that arrived together; `last` ends the input.
    pub(crate) fn feed(&mut self, env: Env, batch: Vec<InputBlock>, last: bool) {
        self.call(env, |w, ctx| {
            if !batch.is_empty() {
                w.on_input_batch(ctx, batch);
            }
            if last {
                w.on_input_done(ctx);
            }
        });
        self.input_done |= last;
    }

    /// Settle one finished occupancy: a cancelled one is a ready deletion;
    /// any other is closed by one task-end on its worker's shard, stamped
    /// when the body returned and carrying the verdict — which charges its
    /// busy, wasted and run/check time — before a body's output is
    /// delivered or discarded, or a faulted body is recovered. A report of
    /// a task no longer in flight is an echo of one settled before and is
    /// dropped. Returns whether the occupancy was wasted work.
    pub(crate) fn settle(&mut self, env: Env, span: &Span, report: Report, rec: &Recorder) -> bool {
        let (end, output, fault) = match report {
            Report::Cancelled => {
                self.sched.cancel_bound(span.id);
                return false;
            }
            Report::Ran(output) => match self.sched.try_complete(span.id) {
                None => return false,
                Some(CompletionOutcome::Discard) => (End::Discarded, None, None),
                Some(CompletionOutcome::Deliver) => (End::Delivered, Some(output), None),
            },
            Report::Skipped => {
                let _ = self.sched.try_complete(span.id);
                (End::Discarded, None, None)
            }
            Report::Faulted { attempt } => (End::Faulted, None, Some(attempt)),
        };
        rec.emit_at(span.worker, span.finished, span.end_event(end));
        if let Some(output) = output {
            let done = Completion {
                id: span.id,
                name: span.name,
                version: span.version,
                tag: span.tag,
                started: span.started,
                finished: span.finished,
                output,
            };
            self.call(env, |w, ctx| w.on_complete(ctx, done));
        }
        if let Some(attempt) = fault {
            if let Some(None) = self.recover(env, span, attempt) {
                self.failed.get_or_insert(RunError::TaskFailed {
                    name: span.name,
                    id: span.id,
                    attempts: attempt + 1,
                });
            }
        }
        end != End::Delivered
    }

    /// The one path from a lost task — a faulted body — to the workload.
    /// The task's slot is reclaimed first ([`Scheduler::fault`] is
    /// idempotent: a task no longer running is a pure rejection and returns
    /// `None`). Then the workload is told — its speculation manager clears
    /// its records, lost non-speculative work is re-spawned — and the
    /// version is rolled back. Returns the task's version.
    fn recover(&mut self, env: Env, span: &Span, attempt: u32) -> Option<Option<SpecVersion>> {
        let version = self.sched.fault(span.id)?;
        let notice = FaultNotice {
            id: span.id,
            name: span.name,
            version,
            tag: span.tag,
            attempt,
        };
        self.call(env, |w, ctx| {
            w.on_fault(ctx, notice);
            if let Some(v) = version {
                ctx.abort_version(v);
            }
        });
        Some(version)
    }
}

/// The run's [`RunMetrics`], read from the recorder — the one home of
/// every count.
pub(crate) fn run_metrics(rec: &Recorder, makespan: Time) -> RunMetrics {
    let total = |c| rec.counter_total(c);
    RunMetrics {
        makespan,
        tasks_delivered: total(Counter::TasksDelivered),
        tasks_discarded: total(Counter::TasksDiscarded),
        tasks_deleted_ready: total(Counter::DeletedReady),
        busy_us: total(Counter::BusyUs),
        wasted_us: total(Counter::WastedUs),
        rollbacks: total(Counter::Rollbacks),
        workers: rec.workers(),
        lane_dispatches: rec.lane_counts(Counter::LaneDispatch),
        steals: total(Counter::Steal),
        faults: total(Counter::Faults),
        task_retries: total(Counter::Retries),
        duplicate_completions: total(Counter::DuplicateCompletions),
        replica_dispatches: total(Counter::ReplicaDispatches),
        retry_backoff_us: total(Counter::RetryBackoffUs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvs_metrics::lock_recover;

    #[test]
    fn backoff_grows_and_caps() {
        assert_eq!(backoff_us(1), 100);
        assert_eq!(backoff_us(2), 200);
        assert_eq!(backoff_us(3), 400);
        assert_eq!(backoff_us(7), 6_400);
        assert_eq!(backoff_us(8), 10_000, "capped");
        assert_eq!(backoff_us(40), 10_000, "huge attempts stay capped");
    }

    #[test]
    fn jittered_backoff_stays_in_band_and_is_deterministic() {
        for attempt in 1..=9 {
            let base = backoff_us(attempt);
            for salt in [0u64, 1, 7, 0xDEAD_BEEF, u64::MAX] {
                let j = jittered_backoff_us(attempt, salt);
                assert!(
                    j >= base / 2 && j < base.saturating_mul(3) / 2 + 1,
                    "attempt {attempt} salt {salt}: {j} outside [{}, {})",
                    base / 2,
                    base * 3 / 2
                );
                assert!(j <= MAX_BACKOFF_US);
                assert_eq!(
                    j,
                    jittered_backoff_us(attempt, salt),
                    "same (salt, attempt) must reproduce the same backoff"
                );
            }
        }
        // Distinct salts decorrelate: not all equal for a fixed attempt.
        let vals: std::collections::HashSet<u64> =
            (0..32).map(|salt| jittered_backoff_us(3, salt)).collect();
        assert!(vals.len() > 1, "jitter must vary across salts");
    }

    #[test]
    fn run_error_messages_are_readable() {
        let e = RunError::TaskFailed {
            name: "count",
            id: 7,
            attempts: 3,
        };
        assert_eq!(
            e.to_string(),
            "task 'count' (id 7) panicked on all 3 attempts"
        );
        let w = RunError::WorkerLost { what: "feeder" };
        assert!(w.to_string().contains("feeder"));
    }

    #[test]
    fn stall_exits_early_on_abort() {
        let flag = std::sync::atomic::AtomicBool::new(false);
        let ctx = TaskCtx::new(&flag, &[]);
        TaskCtx::signal_abort(&flag);
        let t0 = Instant::now();
        stall_wall(5_000_000, &ctx); // 5s if the abort were ignored
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn poison_recovery_yields_the_data() {
        let m = std::sync::Arc::new(Mutex::new(41));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        *lock_recover(&m) += 1;
        assert_eq!(
            into_inner_recover(std::sync::Arc::try_unwrap(m).unwrap()),
            42
        );
    }
}
