//! Deterministic discrete-event executor.
//!
//! Tasks *really execute* (their closures run and produce real outputs —
//! runs of the Huffman pipeline yield decodable streams), but time is
//! virtual: each task occupies a simulated worker for the duration given by
//! the platform-scaled cost model. This gives bit-identical traces across
//! runs and lets one laptop model the paper's 16-worker Opteron box, the
//! Cell blade (with multiple-buffering prefetch queues and DMA costs) and
//! arbitrarily slow I/O without owning any of them.
//!
//! Fault handling matches the threaded executor ([`super::threaded`]),
//! re-interpreted in virtual time ([`SimConfig::retry`],
//! [`SimConfig::watchdog`], and the run's [`Instruments::faults`]):
//!
//! * task bodies run under `catch_unwind`; a panicking speculative body is
//!   routed through [`crate::sched::Scheduler::fault`] →
//!   [`Workload::on_fault`] → version abort, a panicking non-speculative
//!   body is retried up to [`crate::RetryPolicy::max_attempts`] (retries
//!   are instantaneous in virtual time — backoff is a wall-clock concept)
//!   and then fails the run with a structured [`RunError`];
//! * an injected `Stall` inflates the task's virtual cost; an injected
//!   `PanicTask` panics the first body attempt; delayed completions are
//!   re-delivered at a later virtual instant; duplicated completions are
//!   delivered twice and absorbed by the scheduler;
//! * the watchdog fires at exactly `start + deadline_us` of virtual time
//!   for any task whose (possibly stall-inflated) cost exceeds the
//!   deadline, signalling its abort flag and — for a speculative task —
//!   notifying the workload ([`Workload::on_fault`]) and aborting its
//!   version, the same path a caught speculative panic takes.
//!
//! Because every draw of the fault plan happens at a deterministic point
//! of the event order, a chaos simulation is as replayable as a clean one:
//! same plan, same seed, same schedule — bit-identical faults.

use crate::fault::{RetryPolicy, RunError, WatchdogConfig};
use crate::instruments::Instruments;
use crate::metrics::{RunMetrics, SimReport, TaskTrace};
use crate::platform::{CostModel, Platform};
use crate::policy::DispatchPolicy;
use crate::sched::{CompletionOutcome, Dispatched, Scheduler};
use crate::task::{Payload, SpecVersion, TaskClass, TaskCtx, TaskId, TaskSpec, Time};
use crate::workload::{Completion, FaultNotice, InputBlock, SchedCtx, Workload};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use tvs_faults::{FaultKind, FaultSite};
use tvs_metrics::{Counter, Hist};
use tvs_trace::EventKind;

/// Configuration of a simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Machine model (workers, prefetch depth, DMA, scaling).
    pub platform: Platform,
    /// Dispatch policy.
    pub policy: DispatchPolicy,
    /// Record a per-task [`TaskTrace`].
    pub task_trace: bool,
    /// Retry policy for panicked non-speculative tasks. Retries are
    /// instantaneous in virtual time.
    pub retry: RetryPolicy,
    /// Virtual-time watchdog; fires at exactly `start + deadline_us` for
    /// tasks whose virtual cost exceeds the deadline.
    pub watchdog: Option<WatchdogConfig>,
}

impl SimConfig {
    /// A config with default fault handling: bounded retry, no watchdog,
    /// no per-task trace.
    pub fn new(platform: Platform, policy: DispatchPolicy) -> Self {
        SimConfig {
            platform,
            policy,
            task_trace: false,
            retry: RetryPolicy::default(),
            watchdog: None,
        }
    }
}

struct Assigned {
    work: Dispatched,
    start: Time,
    end: Time,
    /// An injected `PanicTask` drawn at dispatch: the first body attempt
    /// panics (transient — retries run clean).
    inject_panic: bool,
}

struct WorkerState {
    pipeline_end: Time,
    assigned: VecDeque<Assigned>,
}

/// A completion held back by an injected `DelayCompletion`, re-delivered
/// at a later virtual instant.
struct Delayed {
    id: TaskId,
    name: &'static str,
    version: Option<SpecVersion>,
    tag: u64,
    start: Time,
    end: Time,
    output: Payload,
}

/// Mutable chaos bookkeeping threaded through the event loop.
#[derive(Default)]
struct ChaosState {
    /// Watchdog events in flight: key → (worker, task id).
    watch: HashMap<usize, (usize, TaskId)>,
    /// Delayed completions in flight: key → payload.
    delayed: HashMap<usize, Delayed>,
    /// Fresh keys for the two maps above.
    next_key: usize,
}

struct SimCtx<'a> {
    sched: &'a mut Scheduler,
    platform: &'a Platform,
    now: Time,
}

impl SchedCtx for SimCtx<'_> {
    fn now(&self) -> Time {
        self.now
    }

    fn spawn(&mut self, spec: TaskSpec) -> Option<TaskId> {
        self.platform.check_task_bytes(spec.name, spec.bytes);
        self.sched.spawn(spec)
    }

    fn abort_version(&mut self, version: SpecVersion) {
        self.sched.abort_version(version);
    }

    fn workers(&self) -> usize {
        self.platform.workers
    }

    fn max_task_bytes(&self) -> Option<usize> {
        self.platform.max_task_bytes
    }
}

/// Run `workload` to completion over the given pre-scheduled `inputs`,
/// recording lifecycle events into `ins.tracer`, feeding `ins.metrics` and
/// drawing faults from `ins.faults` (pass `&Instruments::default()` for a
/// dark run; the resulting [`RunMetrics`] are identical either way).
///
/// `inputs` must be sorted by arrival time (as produced by the
/// `tvs-iosim` models); the blocks that share an arrival instant reach the
/// workload in one [`Workload::on_input_batch`], as they would from the
/// threaded executor's feeder. Panics with a diagnostic if the workload
/// deadlocks (events exhausted before [`Workload::is_finished`]) — a
/// workload bug, not a run failure. A non-speculative task panicking on
/// every attempt its retry policy allows returns `Err`; everything else —
/// injected panics, stalls, delayed and duplicated completions, watchdog
/// cancels of speculative tasks — recovers through the rollback machinery
/// and completes the run.
///
/// The tracer's ambient virtual clock follows the event heap, so every
/// emitted event — including scheduler rollback/cancel events fired from
/// inside workload callbacks — is stamped with deterministic virtual time.
/// Task start/end events are stamped with the exact simulated interval the
/// task occupied its worker. Metrics snapshots are driven by *virtual*
/// time too: arm the hub with [`tvs_metrics::MetricsHub::enable_virtual_sampling`]
/// before the run and drain with [`tvs_metrics::MetricsHub::drain_virtual_snapshots`]
/// after — the snapshot stream is then as deterministic as the simulation
/// itself (same seed → identical JSONL bytes). No sampler thread is
/// involved.
pub fn run<W: Workload>(
    mut workload: W,
    cfg: &SimConfig,
    cost: &dyn CostModel,
    inputs: Vec<InputBlock>,
    ins: &Instruments,
) -> Result<SimReport<W>, RunError> {
    let ins = ins.for_executor(cfg.platform.workers, cfg.policy);
    let (tracer, hub, faults) = (&ins.tracer, &ins.metrics, &ins.faults);
    assert!(
        inputs.windows(2).all(|w| w[0].arrival <= w[1].arrival),
        "inputs must be sorted by arrival time"
    );

    let mut sched = Scheduler::instrumented(cfg.policy, &ins);
    let mut workers: Vec<WorkerState> = (0..cfg.platform.workers)
        .map(|_| WorkerState {
            pipeline_end: 0,
            assigned: VecDeque::new(),
        })
        .collect();
    let mut chaos_state = ChaosState::default();

    // Event queue ordered by (time, push sequence) for determinism.
    let mut heap: BinaryHeap<Reverse<(Time, u64, usize, EvSlot)>> = BinaryHeap::new();
    let mut heap_seq = 0u64;

    // One arrival event per distinct instant, carrying every block due then.
    let n_inputs = inputs.len();
    let mut batches: Vec<Option<Vec<InputBlock>>> = Vec::new();
    for b in inputs {
        match batches.last_mut() {
            Some(Some(batch)) if batch[0].arrival == b.arrival => batch.push(b),
            _ => batches.push(Some(vec![b])),
        }
    }
    for (i, batch) in batches.iter().flatten().enumerate() {
        heap.push(Reverse((batch[0].arrival, heap_seq, i, EvSlot::Arrival)));
        heap_seq += 1;
    }

    let mut metrics = RunMetrics {
        workers: cfg.platform.workers,
        lane_dispatches: vec![0; cfg.platform.workers],
        ..Default::default()
    };
    let mut trace: Vec<TaskTrace> = Vec::new();
    let mut arrivals_seen = 0usize;
    let mut finished_at: Option<Time> = None;
    let mut last_event_time: Time = 0;

    tracer.set_virtual_now(0);
    hub.set_virtual_now(0);
    {
        let mut ctx = SimCtx {
            sched: &mut sched,
            platform: &cfg.platform,
            now: 0,
        };
        workload.on_start(&mut ctx);
    }
    dispatch_all(
        &mut sched,
        &mut workers,
        cfg,
        cost,
        0,
        &mut heap,
        &mut heap_seq,
        &ins,
        &mut chaos_state,
    );

    while let Some(Reverse((t, _seq, aux, slot))) = heap.pop() {
        last_event_time = t;
        tracer.set_virtual_now(t);
        hub.set_virtual_now(t);
        hub.virtual_tick(t);
        match slot {
            EvSlot::Arrival => {
                // An injected feeder stall pushes the batch to a later
                // virtual instant.
                if let Some(FaultKind::Stall { us }) = faults.draw(FaultSite::Feeder) {
                    heap.push(Reverse((t + us.max(1), heap_seq, aux, EvSlot::Arrival)));
                    heap_seq += 1;
                    continue;
                }
                let batch = batches[aux].take().expect("each batch arrives once");
                arrivals_seen += batch.len();
                let mut ctx = SimCtx {
                    sched: &mut sched,
                    platform: &cfg.platform,
                    now: t,
                };
                workload.on_input_batch(&mut ctx, batch);
                if arrivals_seen == n_inputs {
                    workload.on_input_done(&mut ctx);
                }
            }
            EvSlot::Done => {
                let worker = aux;
                let Assigned {
                    mut work,
                    start,
                    end,
                    inject_panic,
                } = workers[worker]
                    .assigned
                    .pop_front()
                    .expect("Done event for an empty worker queue");
                debug_assert_eq!(end, t);
                let busy = end - start;
                metrics.busy_us += busy;
                hub.add(worker, Counter::BusyUs, busy);
                // Profiler state clocks, in virtual time. The simulator
                // has no steal scans or parks — a virtual worker is either
                // occupied or idle — so only the run/check clocks tick.
                let clock = if work.class == TaskClass::Check {
                    Counter::TimeCheckUs
                } else {
                    Counter::TimeRunUs
                };
                hub.add(worker, clock, busy);
                hub.record(Hist::RunSliceUs, busy);
                let pre_aborted = work.version.map(|v| sched.is_aborted(v)).unwrap_or(false);
                if tracer.is_enabled() {
                    tracer.emit_at(
                        worker,
                        start,
                        EventKind::TaskStart {
                            id: work.id,
                            name: work.name,
                            version: work.version,
                        },
                    );
                }
                if pre_aborted {
                    // Outputs of discarded tasks are never materialised
                    // ("deleted with their content"): skip the body.
                    let _ = sched.try_complete(work.id);
                    if tracer.is_enabled() {
                        tracer.emit_at(
                            worker,
                            end,
                            EventKind::TaskEnd {
                                id: work.id,
                                name: work.name,
                                version: work.version,
                                discarded: true,
                            },
                        );
                    }
                    if cfg.task_trace {
                        trace.push(TaskTrace {
                            id: work.id,
                            name: work.name,
                            worker,
                            version: work.version,
                            tag: work.tag,
                            start,
                            end,
                            discarded: true,
                        });
                    }
                    metrics.wasted_us += busy;
                    hub.add(worker, Counter::WastedUs, busy);
                } else {
                    // Panic-isolated body execution. Retries are
                    // instantaneous in virtual time.
                    let mut attempt = 0u32;
                    let mut boom = inject_panic;
                    let outcome = loop {
                        let run = &mut work.run;
                        let ctx = &work.ctx;
                        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            if boom {
                                panic!("injected task-body fault");
                            }
                            (run)(ctx)
                        }));
                        boom = false;
                        match r {
                            Ok(out) => break Some(out),
                            Err(_) => {
                                metrics.faults += 1;
                                hub.add(worker, Counter::Faults, 1);
                                if tracer.is_enabled() {
                                    tracer.emit_at(
                                        worker,
                                        end,
                                        EventKind::TaskFault {
                                            id: work.id,
                                            name: work.name,
                                            version: work.version,
                                            attempt,
                                        },
                                    );
                                }
                                if work.version.is_some()
                                    || attempt + 1 >= cfg.retry.max_attempts.max(1)
                                {
                                    break None;
                                }
                                attempt += 1;
                                metrics.task_retries += 1;
                                hub.add(worker, Counter::Retries, 1);
                            }
                        }
                    };
                    match outcome {
                        None => {
                            // Faulted: reuse the misspeculation path.
                            if cfg.task_trace {
                                trace.push(TaskTrace {
                                    id: work.id,
                                    name: work.name,
                                    worker,
                                    version: work.version,
                                    tag: work.tag,
                                    start,
                                    end,
                                    discarded: true,
                                });
                            }
                            metrics.wasted_us += busy;
                            hub.add(worker, Counter::WastedUs, busy);
                            if let Some(vers) = sched.fault(work.id) {
                                let mut ctx = SimCtx {
                                    sched: &mut sched,
                                    platform: &cfg.platform,
                                    now: t,
                                };
                                workload.on_fault(
                                    &mut ctx,
                                    FaultNotice {
                                        id: work.id,
                                        name: work.name,
                                        version: vers,
                                        tag: work.tag,
                                        attempt,
                                    },
                                );
                                match vers {
                                    Some(v) => {
                                        sched.abort_version(v);
                                    }
                                    None => {
                                        return Err(RunError::TaskFailed {
                                            name: work.name,
                                            id: work.id,
                                            attempts: attempt + 1,
                                        });
                                    }
                                }
                            }
                        }
                        Some(output) => {
                            if tracer.is_enabled() {
                                tracer.emit_at(
                                    worker,
                                    end,
                                    EventKind::TaskEnd {
                                        id: work.id,
                                        name: work.name,
                                        version: work.version,
                                        discarded: false,
                                    },
                                );
                            }
                            if cfg.task_trace {
                                trace.push(TaskTrace {
                                    id: work.id,
                                    name: work.name,
                                    worker,
                                    version: work.version,
                                    tag: work.tag,
                                    start,
                                    end,
                                    discarded: false,
                                });
                            }
                            let mut echo = false;
                            match faults.draw(FaultSite::Completion) {
                                Some(FaultKind::DelayCompletion { us }) => {
                                    // Hold the completion back: the task
                                    // stays in flight until the delayed
                                    // delivery, which decides discard vs
                                    // deliver against the abort state then.
                                    let key = chaos_state.next_key;
                                    chaos_state.next_key += 1;
                                    chaos_state.delayed.insert(
                                        key,
                                        Delayed {
                                            id: work.id,
                                            name: work.name,
                                            version: work.version,
                                            tag: work.tag,
                                            start,
                                            end,
                                            output,
                                        },
                                    );
                                    heap.push(Reverse((
                                        t + us.max(1),
                                        heap_seq,
                                        key,
                                        EvSlot::DelayedDone,
                                    )));
                                    heap_seq += 1;
                                }
                                other => {
                                    if matches!(other, Some(FaultKind::DuplicateCompletion)) {
                                        echo = true;
                                    }
                                    let first = sched.try_complete(work.id);
                                    debug_assert_eq!(
                                        first,
                                        Some(CompletionOutcome::Deliver),
                                        "un-aborted completion delivers"
                                    );
                                    if echo {
                                        let _ = sched.try_complete(work.id);
                                    }
                                    let mut ctx = SimCtx {
                                        sched: &mut sched,
                                        platform: &cfg.platform,
                                        now: t,
                                    };
                                    workload.on_complete(
                                        &mut ctx,
                                        Completion {
                                            id: work.id,
                                            name: work.name,
                                            version: work.version,
                                            tag: work.tag,
                                            started: start,
                                            finished: end,
                                            output,
                                        },
                                    );
                                }
                            }
                        }
                    }
                }
            }
            EvSlot::DelayedDone => {
                let d = chaos_state
                    .delayed
                    .remove(&aux)
                    .expect("delayed completion recorded");
                let busy = d.end - d.start;
                match sched.try_complete(d.id) {
                    None => {}
                    Some(CompletionOutcome::Discard) => {
                        // The version died while the completion was held
                        // back; its already-produced output is dropped.
                        metrics.wasted_us += busy;
                        hub.add_control(Counter::WastedUs, busy);
                    }
                    Some(CompletionOutcome::Deliver) => {
                        let mut ctx = SimCtx {
                            sched: &mut sched,
                            platform: &cfg.platform,
                            now: t,
                        };
                        workload.on_complete(
                            &mut ctx,
                            Completion {
                                id: d.id,
                                name: d.name,
                                version: d.version,
                                tag: d.tag,
                                started: d.start,
                                finished: d.end,
                                output: d.output,
                            },
                        );
                    }
                }
            }
            EvSlot::Watchdog => {
                if let Some((wi, id)) = chaos_state.watch.remove(&aux) {
                    if let Some(a) = workers[wi].assigned.iter().find(|a| a.work.id == id) {
                        TaskCtx::signal_abort(&a.work.ctx.abort_flag());
                        metrics.watchdog_cancels += 1;
                        hub.add_control(Counter::WatchdogCancels, 1);
                        if tracer.is_enabled() {
                            tracer.emit_at(
                                wi,
                                t,
                                EventKind::WatchdogCancel {
                                    id,
                                    version: a.work.version,
                                    ran_us: t.saturating_sub(a.start),
                                },
                            );
                        }
                        // A cancelled speculative task takes the path of
                        // a caught speculative panic — the workload hears
                        // of it, then the version is rolled back — except
                        // that the task itself still finishes (and is
                        // discarded), so its slot is not reclaimed here.
                        if let Some(v) = a.work.version {
                            let mut ctx = SimCtx {
                                sched: &mut sched,
                                platform: &cfg.platform,
                                now: t,
                            };
                            workload.on_fault(
                                &mut ctx,
                                FaultNotice {
                                    id,
                                    name: a.work.name,
                                    version: Some(v),
                                    tag: a.work.tag,
                                    attempt: 0,
                                },
                            );
                            ctx.abort_version(v);
                        }
                    }
                }
            }
        }
        if finished_at.is_none() && workload.is_finished() {
            finished_at = Some(t);
        }
        dispatch_all(
            &mut sched,
            &mut workers,
            cfg,
            cost,
            t,
            &mut heap,
            &mut heap_seq,
            &ins,
            &mut chaos_state,
        );
    }

    if !workload.is_finished() {
        panic!(
            "simulation deadlock: events exhausted with workload unfinished \
             (ready={}, running={}, arrivals_seen={}/{})",
            sched.ready_len(),
            sched.running_len(),
            arrivals_seen,
            n_inputs,
        );
    }

    let st = sched.stats();
    metrics.makespan = finished_at.unwrap_or(last_event_time);
    metrics.tasks_delivered = st.delivered;
    metrics.tasks_discarded = st.discarded;
    metrics.tasks_deleted_ready = st.deleted_ready;
    metrics.rollbacks = st.rollbacks;
    metrics.duplicate_completions = st.duplicate_completions;
    metrics.replica_dispatches = st.replicas_spawned;
    // retry_backoff_us stays 0: the simulator retries instantaneously.
    // Final snapshot view over the hub's shards — the sim's analogue of
    // the threaded executor's per-lane counters lives there now.
    metrics.lane_dispatches = hub.lane_counts(Counter::LaneDispatch);
    // Flush any virtual-sampling boundary the last event crossed exactly.
    hub.virtual_tick(last_event_time);

    Ok(SimReport {
        workload,
        metrics,
        trace,
    })
}

/// Event discriminant kept `Copy + Ord` for the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EvSlot {
    Arrival,
    Done,
    DelayedDone,
    Watchdog,
}

/// Fill worker prefetch queues with dispatchable tasks, scheduling their
/// completion events. Per-worker dispatch counts go to `hub`'s lane
/// shards (the simulator's analogue of the threaded executor's ready
/// lanes).
#[allow(clippy::too_many_arguments)]
fn dispatch_all(
    sched: &mut Scheduler,
    workers: &mut [WorkerState],
    cfg: &SimConfig,
    cost: &dyn CostModel,
    now: Time,
    heap: &mut BinaryHeap<Reverse<(Time, u64, usize, EvSlot)>>,
    heap_seq: &mut u64,
    ins: &Instruments,
    chaos: &mut ChaosState,
) {
    let (tracer, hub, faults) = (&ins.tracer, &ins.metrics, &ins.faults);
    loop {
        if !sched.has_dispatchable() {
            return;
        }
        // Pick the worker with the earliest pipeline end among those with a
        // free prefetch slot; ties broken by index (determinism).
        let candidate = workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.assigned.len() < cfg.platform.prefetch_depth)
            .min_by_key(|(i, w)| (w.pipeline_end.max(now), *i))
            .map(|(i, _)| i);
        let Some(wi) = candidate else { return };
        // Multiple-buffering hint for the conservative policy: on a deep-
        // pipeline platform, are non-speculative tasks anywhere in the
        // worker queues (bound or executing)? The paper observes that on
        // the Cell "this deep pipeline always offers some non-speculative
        // task, and little speculation is done overall" under the
        // conservative policy; with single-slot dispatch (x86) the hint is
        // always false and conservative reverts to ready-queue idleness.
        let normal_pending_elsewhere = cfg.platform.prefetch_depth > 1
            && workers.iter().any(|w| {
                w.assigned
                    .iter()
                    .any(|a| a.work.class == crate::task::TaskClass::Regular)
            });
        let Some(work) = sched.dispatch_with(normal_pending_elsewhere) else {
            return;
        };
        let mut c = cfg.platform.task_cost_us(cost, work.name, work.bytes);
        let mut inject_panic = false;
        match faults.draw(FaultSite::TaskBody) {
            Some(FaultKind::PanicTask) => inject_panic = true,
            Some(FaultKind::Stall { us }) => c += us,
            _ => {}
        }
        sched.charge(work.class, c);
        hub.add(wi, Counter::LaneDispatch, 1);
        if tracer.is_enabled() {
            tracer.emit_at(
                wi,
                now,
                EventKind::Dispatch {
                    id: work.id,
                    name: work.name,
                    class: work.class.trace_tag(),
                    version: work.version,
                    lane: wi as u32,
                },
            );
        }
        let w = &mut workers[wi];
        let start = w.pipeline_end.max(now);
        let end = start + c.max(1);
        if let Some(wd) = cfg.watchdog {
            // The cancel instant is known at dispatch: the task's virtual
            // occupancy exceeds the deadline iff the watchdog fires.
            if c.max(1) > wd.deadline_us {
                let key = chaos.next_key;
                chaos.next_key += 1;
                chaos.watch.insert(key, (wi, work.id));
                heap.push(Reverse((
                    start + wd.deadline_us,
                    *heap_seq,
                    key,
                    EvSlot::Watchdog,
                )));
                *heap_seq += 1;
            }
        }
        w.pipeline_end = end;
        w.assigned.push_back(Assigned {
            work,
            start,
            end,
            inject_panic,
        });
        heap.push(Reverse((end, *heap_seq, wi, EvSlot::Done)));
        *heap_seq += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{x86_smp, FixedCost};
    use crate::task::{payload, TaskSpec};
    use tvs_faults::{FaultInjector, FaultPlan};
    use tvs_trace::Tracer;

    fn dark<W: Workload>(
        w: W,
        cfg: &SimConfig,
        cost: &dyn CostModel,
        inputs: Vec<InputBlock>,
    ) -> SimReport<W> {
        run(w, cfg, cost, inputs, &Instruments::default()).expect("dark run completes")
    }

    fn block(i: usize, t: Time, len: usize) -> InputBlock {
        InputBlock {
            index: i,
            arrival: t,
            data: vec![i as u8; len].into(),
        }
    }

    /// One task per block; finishes when all are processed.
    struct PerBlock {
        n: usize,
        seen: usize,
        completions: Vec<(u64, Time)>,
    }

    impl Workload for PerBlock {
        fn on_input(&mut self, ctx: &mut dyn SchedCtx, b: InputBlock) {
            ctx.spawn(TaskSpec::regular(
                "work",
                0,
                b.data.len(),
                b.index as u64,
                move |_| payload(()),
            ));
        }
        fn on_complete(&mut self, _ctx: &mut dyn SchedCtx, done: Completion) {
            self.seen += 1;
            self.completions.push((done.tag, done.finished));
        }
        fn is_finished(&self) -> bool {
            self.seen == self.n
        }
    }

    #[test]
    fn single_worker_serialises() {
        let w = PerBlock {
            n: 3,
            seen: 0,
            completions: vec![],
        };
        let cfg = SimConfig {
            task_trace: true,
            ..SimConfig::new(x86_smp(1), DispatchPolicy::NonSpeculative)
        };
        let inputs = vec![block(0, 0, 10), block(1, 0, 10), block(2, 0, 10)];
        let rep = dark(w, &cfg, &FixedCost(9), inputs);
        // Each task costs 9 + 1 (dispatch overhead) = 10.
        let ends: Vec<Time> = rep.workload.completions.iter().map(|c| c.1).collect();
        assert_eq!(ends, vec![10, 20, 30]);
        assert_eq!(rep.metrics.makespan, 30);
        assert_eq!(rep.metrics.tasks_delivered, 3);
        assert_eq!(rep.metrics.busy_us, 30);
        assert!((rep.metrics.utilization() - 1.0).abs() < 1e-9);
        assert_eq!(rep.trace.len(), 3);
    }

    #[test]
    fn parallel_workers_overlap() {
        let w = PerBlock {
            n: 4,
            seen: 0,
            completions: vec![],
        };
        let cfg = SimConfig::new(x86_smp(4), DispatchPolicy::NonSpeculative);
        let inputs = (0..4).map(|i| block(i, 0, 10)).collect();
        let rep = dark(w, &cfg, &FixedCost(9), inputs);
        assert_eq!(
            rep.metrics.makespan, 10,
            "4 tasks on 4 workers run concurrently"
        );
    }

    #[test]
    fn arrivals_gate_task_starts() {
        let w = PerBlock {
            n: 2,
            seen: 0,
            completions: vec![],
        };
        let cfg = SimConfig::new(x86_smp(4), DispatchPolicy::NonSpeculative);
        let inputs = vec![block(0, 0, 10), block(1, 100, 10)];
        let rep = dark(w, &cfg, &FixedCost(4), inputs);
        let mut ends: Vec<Time> = rep.workload.completions.iter().map(|c| c.1).collect();
        ends.sort_unstable();
        assert_eq!(ends, vec![5, 105]);
        assert_eq!(rep.metrics.makespan, 105);
    }

    #[test]
    fn arrivals_sharing_an_instant_come_as_one_batch() {
        struct Batches(Vec<(Time, Vec<usize>)>);
        impl Workload for Batches {
            fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {
                unreachable!("the executor hands over batches");
            }
            fn on_input_batch(&mut self, ctx: &mut dyn SchedCtx, batch: Vec<InputBlock>) {
                assert_eq!(ctx.workers(), 3);
                self.0
                    .push((ctx.now(), batch.iter().map(|b| b.index).collect()));
            }
            fn on_complete(&mut self, _: &mut dyn SchedCtx, _: Completion) {}
            fn is_finished(&self) -> bool {
                true
            }
        }
        let cfg = SimConfig::new(x86_smp(3), DispatchPolicy::NonSpeculative);
        let inputs = vec![
            block(0, 0, 1),
            block(1, 0, 1),
            block(2, 5, 1),
            block(3, 5, 1),
        ];
        let rep = dark(Batches(Vec::new()), &cfg, &FixedCost(1), inputs);
        assert_eq!(rep.workload.0, [(0, vec![0, 1]), (5, vec![2, 3])]);
    }

    #[test]
    fn deterministic_traces() {
        let mk = || PerBlock {
            n: 16,
            seen: 0,
            completions: vec![],
        };
        let cfg = SimConfig {
            task_trace: true,
            ..SimConfig::new(x86_smp(3), DispatchPolicy::NonSpeculative)
        };
        let inputs: Vec<InputBlock> = (0..16).map(|i| block(i, (i as u64) * 3, 64)).collect();
        let a = dark(mk(), &cfg, &FixedCost(7), inputs.clone());
        let b = dark(mk(), &cfg, &FixedCost(7), inputs);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.metrics.makespan, b.metrics.makespan);
    }

    /// A workload that spawns a speculative task and aborts it; the
    /// discarded completion must not reach `on_complete`.
    struct AbortingWl {
        phase: u8,
    }

    impl Workload for AbortingWl {
        fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
            ctx.spawn(TaskSpec::speculative("spec", 0, 0, 1, 0, |_| payload(())));
            ctx.spawn(TaskSpec::regular("normal", 0, 0, 0, |_| payload(())));
        }
        fn on_input(&mut self, _ctx: &mut dyn SchedCtx, _b: InputBlock) {}
        fn on_complete(&mut self, ctx: &mut dyn SchedCtx, done: Completion) {
            match done.name {
                "normal" => {
                    // Abort version 1 while its task is in flight (if still
                    // queued it is deleted instead; with 2 workers both run
                    // concurrently, so this exercises the in-flight path).
                    ctx.abort_version(1);
                    self.phase = 1;
                }
                "spec" => panic!("discarded speculative output must not be delivered"),
                _ => unreachable!(),
            }
        }
        fn is_finished(&self) -> bool {
            self.phase == 1
        }
    }

    #[test]
    fn aborted_version_outputs_are_discarded() {
        // Both tasks start at t=0 on separate workers; 'normal' is cheap
        // and finishes first, aborting version 1 while 'spec' is still in
        // flight; 'spec''s completion must be discarded.
        struct NameCost;
        impl CostModel for NameCost {
            fn cost_us(&self, name: &str, _bytes: usize) -> Time {
                if name == "spec" {
                    50
                } else {
                    2
                }
            }
        }
        let cfg = SimConfig {
            task_trace: true,
            ..SimConfig::new(x86_smp(2), DispatchPolicy::Aggressive)
        };
        let rep = dark(AbortingWl { phase: 0 }, &cfg, &NameCost, vec![]);
        assert_eq!(rep.metrics.tasks_discarded, 1);
        assert_eq!(rep.metrics.rollbacks, 1);
        assert!(
            rep.metrics.wasted_us >= 50,
            "discarded work must count as waste"
        );
        let spec_trace = rep.trace.iter().find(|t| t.name == "spec").unwrap();
        assert!(spec_trace.discarded);
    }

    #[test]
    #[should_panic(expected = "simulation deadlock")]
    fn deadlock_is_diagnosed() {
        struct NeverDone;
        impl Workload for NeverDone {
            fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {}
            fn on_complete(&mut self, _: &mut dyn SchedCtx, _: Completion) {}
            fn is_finished(&self) -> bool {
                false
            }
        }
        let cfg = SimConfig::new(x86_smp(1), DispatchPolicy::NonSpeculative);
        let _ = dark(NeverDone, &cfg, &FixedCost(1), vec![]);
    }

    #[test]
    fn prefetch_depth_binds_work_early() {
        // 1 worker, prefetch 2: two tasks are bound to the worker before
        // the first finishes; a later, deeper (higher-priority) task cannot
        // jump the prefetch queue. With prefetch 1 it could.
        struct TwoPhase {
            seen: Vec<&'static str>,
        }
        impl Workload for TwoPhase {
            fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
                ctx.spawn(TaskSpec::regular("a", 0, 0, 0, |_| payload(())));
                ctx.spawn(TaskSpec::regular("b", 0, 0, 0, |_| payload(())));
            }
            fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {}
            fn on_complete(&mut self, ctx: &mut dyn SchedCtx, done: Completion) {
                if done.name == "a" {
                    // Deep task arrives while 'b' is already prefetched.
                    ctx.spawn(TaskSpec::regular("deep", 99, 0, 2, |_| payload(())));
                }
                self.seen.push(done.name);
            }
            fn is_finished(&self) -> bool {
                self.seen.len() == 3
            }
        }

        let mut plat = x86_smp(1);
        plat.prefetch_depth = 2;
        let cfg = SimConfig::new(plat, DispatchPolicy::NonSpeculative);
        let rep = dark(TwoPhase { seen: vec![] }, &cfg, &FixedCost(5), vec![]);
        assert_eq!(
            rep.workload.seen,
            vec!["a", "b", "deep"],
            "prefetched 'b' runs before 'deep'"
        );

        let cfg1 = SimConfig::new(x86_smp(1), DispatchPolicy::NonSpeculative);
        let rep1 = dark(TwoPhase { seen: vec![] }, &cfg1, &FixedCost(5), vec![]);
        assert_eq!(
            rep1.workload.seen,
            vec!["a", "deep", "b"],
            "without prefetch, depth wins"
        );
    }

    #[test]
    fn traced_run_records_lifecycle_in_virtual_time() {
        let w = PerBlock {
            n: 3,
            seen: 0,
            completions: vec![],
        };
        let cfg = SimConfig::new(x86_smp(1), DispatchPolicy::NonSpeculative);
        let inputs = vec![block(0, 0, 10), block(1, 0, 10), block(2, 0, 10)];
        let tracer = Tracer::enabled(1);
        let rep = run(
            w,
            &cfg,
            &FixedCost(9),
            inputs,
            &Instruments::traced(tracer.clone()),
        )
        .expect("traced run completes");
        assert_eq!(rep.metrics.makespan, 30);
        let log = tracer.drain().expect("enabled tracer drains");
        assert_eq!(log.timebase, tvs_trace::Timebase::Virtual);
        assert_eq!(log.count("dispatch"), 3);
        assert_eq!(log.count("task-start"), 3);
        assert_eq!(log.count("task-end"), 3);
        // Task intervals are the exact simulated occupancy: 0-10, 10-20,
        // 20-30 on the single worker.
        let ends: Vec<u64> = log
            .events
            .iter()
            .filter(|e| e.kind.label() == "task-end")
            .map(|e| e.virt_us)
            .collect();
        assert_eq!(ends, vec![10, 20, 30]);
        assert_eq!(log.dropped, 0);
    }

    #[test]
    fn traced_and_untraced_runs_agree_on_metrics() {
        let mk = || PerBlock {
            n: 8,
            seen: 0,
            completions: vec![],
        };
        let cfg = SimConfig {
            task_trace: true,
            ..SimConfig::new(x86_smp(2), DispatchPolicy::NonSpeculative)
        };
        let inputs: Vec<InputBlock> = (0..8).map(|i| block(i, (i as u64) * 2, 32)).collect();
        let plain = dark(mk(), &cfg, &FixedCost(5), inputs.clone());
        let traced = run(
            mk(),
            &cfg,
            &FixedCost(5),
            inputs,
            &Instruments::traced(Tracer::enabled(2)),
        )
        .expect("traced run completes");
        assert_eq!(plain.metrics, traced.metrics);
        assert_eq!(plain.trace, traced.trace);
    }

    #[test]
    fn makespan_stops_at_finish_even_with_stragglers() {
        // A workload that is finished after the first completion, while a
        // second (discarded-irrelevant) task still occupies the worker.
        struct EarlyExit {
            done: bool,
        }
        impl Workload for EarlyExit {
            fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
                ctx.spawn(TaskSpec::regular("fast", 10, 0, 0, |_| payload(())));
                ctx.spawn(TaskSpec::regular("slow", 0, 1 << 20, 1, |_| payload(())));
            }
            fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {}
            fn on_complete(&mut self, _: &mut dyn SchedCtx, done: Completion) {
                if done.name == "fast" {
                    self.done = true;
                }
            }
            fn is_finished(&self) -> bool {
                self.done
            }
        }
        struct ByteCost;
        impl CostModel for ByteCost {
            fn cost_us(&self, _n: &str, bytes: usize) -> Time {
                1 + bytes as Time / 1024
            }
        }
        let cfg = SimConfig::new(x86_smp(2), DispatchPolicy::NonSpeculative);
        let rep = dark(EarlyExit { done: false }, &cfg, &ByteCost, vec![]);
        assert!(
            rep.metrics.makespan < 100,
            "makespan {} should not wait for the straggler",
            rep.metrics.makespan
        );
    }

    #[test]
    fn chaos_runs_are_deterministic_and_recover() {
        // Same plan seed twice: identical metrics, identical workload
        // results, and the faults actually fired.
        let mk = || PerBlock {
            n: 12,
            seen: 0,
            completions: vec![],
        };
        let cfg = SimConfig {
            task_trace: true,
            ..SimConfig::new(x86_smp(2), DispatchPolicy::NonSpeculative)
        };
        let plan = || {
            FaultPlan::new(77)
                .with_rule(FaultSite::TaskBody, FaultKind::PanicTask, 0.3)
                .with_rule(FaultSite::TaskBody, FaultKind::Stall { us: 40 }, 0.3)
                .with_rule(FaultSite::Completion, FaultKind::DuplicateCompletion, 0.3)
                .with_rule(
                    FaultSite::Completion,
                    FaultKind::DelayCompletion { us: 25 },
                    0.3,
                )
                .with_rule(FaultSite::Feeder, FaultKind::Stall { us: 15 }, 0.3)
        };
        let chaos = || Instruments::faulty(FaultInjector::new(plan()));
        let inputs: Vec<InputBlock> = (0..12).map(|i| block(i, (i as u64) * 2, 16)).collect();
        let a =
            run(mk(), &cfg, &FixedCost(5), inputs.clone(), &chaos()).expect("chaos run recovers");
        let b = run(mk(), &cfg, &FixedCost(5), inputs, &chaos()).expect("chaos run recovers");
        assert_eq!(a.metrics, b.metrics, "chaos is replayable");
        assert_eq!(a.workload.seen, 12);
        assert_eq!(b.workload.seen, 12);
        assert!(
            a.metrics.faults > 0 || a.metrics.duplicate_completions > 0,
            "the plan fired something: {:?}",
            a.metrics
        );
    }

    #[test]
    fn exhausted_retries_fail_the_simulated_run() {
        struct AlwaysPanics {
            done: bool,
        }
        impl Workload for AlwaysPanics {
            fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
                ctx.spawn(TaskSpec::regular("doomed", 0, 0, 0, |_| -> Payload {
                    panic!("never succeeds")
                }));
            }
            fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {}
            fn on_complete(&mut self, _: &mut dyn SchedCtx, _: Completion) {
                self.done = true;
            }
            fn is_finished(&self) -> bool {
                self.done
            }
        }
        let cfg = SimConfig::new(x86_smp(1), DispatchPolicy::NonSpeculative);
        let Err(err) = run(
            AlwaysPanics { done: false },
            &cfg,
            &FixedCost(3),
            vec![],
            &Instruments::default(),
        ) else {
            panic!("exhausted retries must fail the run");
        };
        assert!(matches!(
            err,
            RunError::TaskFailed {
                name: "doomed",
                attempts: 3,
                ..
            }
        ));
    }

    #[test]
    fn virtual_watchdog_cancels_overlong_speculative_tasks() {
        // A speculative task whose virtual cost exceeds the deadline: the
        // watchdog fires at exactly start + deadline, tells the workload,
        // aborts the version, and the Done event discards the body un-run.
        struct SpecOnly {
            fault_free: bool,
            lost: Option<SpecVersion>,
        }
        impl Workload for SpecOnly {
            fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
                ctx.spawn(TaskSpec::speculative("slow-spec", 0, 1 << 12, 9, 0, |_| {
                    payload(())
                }));
                ctx.spawn(TaskSpec::regular("quick", 0, 0, 0, |_| payload(())));
            }
            fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {}
            fn on_complete(&mut self, _: &mut dyn SchedCtx, done: Completion) {
                if done.name == "quick" {
                    self.fault_free = true;
                }
            }
            fn on_fault(&mut self, _: &mut dyn SchedCtx, fault: FaultNotice) {
                self.lost = fault.version;
            }
            fn is_finished(&self) -> bool {
                self.fault_free
            }
        }
        struct NameCost;
        impl CostModel for NameCost {
            fn cost_us(&self, name: &str, _bytes: usize) -> Time {
                if name == "slow-spec" {
                    10_000
                } else {
                    5
                }
            }
        }
        let cfg = SimConfig {
            task_trace: true,
            watchdog: Some(WatchdogConfig {
                deadline_us: 1_000,
                poll_us: 100,
            }),
            ..SimConfig::new(x86_smp(2), DispatchPolicy::Aggressive)
        };
        let tracer = Tracer::enabled(2);
        let rep = run(
            SpecOnly {
                fault_free: false,
                lost: None,
            },
            &cfg,
            &NameCost,
            vec![],
            &Instruments::traced(tracer.clone()),
        )
        .expect("watchdog recovers the run");
        assert_eq!(
            rep.workload.lost,
            Some(9),
            "the workload hears of the cancelled version"
        );
        assert_eq!(rep.metrics.watchdog_cancels, 1);
        assert_eq!(rep.metrics.rollbacks, 1);
        assert_eq!(rep.metrics.tasks_discarded, 1);
        let log = tracer.drain().unwrap();
        let cancel = log
            .events
            .iter()
            .find(|e| e.kind.label() == "watchdog-cancel")
            .expect("watchdog-cancel traced");
        assert_eq!(cancel.virt_us, 1_000, "fires at exactly start + deadline");
    }
}
