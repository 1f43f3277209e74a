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
//! Settling, recovery and accounting are the executor core's
//! (`core`, which also describes the fault handling); this module
//! is its event heap and virtual clock. Because every draw of the fault
//! plan happens at a deterministic point of the event order, a chaos
//! simulation is as replayable as a clean one: same plan, same seed, same
//! schedule — bit-identical faults.

use super::core::{
    assert_schedule, run_body, run_metrics, Core, Env, Injection, Report, RunError, Span,
    DEFAULT_MAX_ATTEMPTS,
};
use crate::instruments::Instruments;
use crate::metrics::RunMetrics;
use crate::platform::{CostModel, Platform};
use crate::policy::DispatchPolicy;
use crate::sched::{Dispatched, Scheduler};
use crate::task::{Payload, TaskClass, Time};
use crate::workload::{InputBlock, Workload};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use tvs_faults::{FaultKind, FaultSite};
use tvs_trace::EventKind;

/// Configuration of a simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Machine model (workers, prefetch depth, DMA, scaling).
    pub platform: Platform,
    /// Body attempts a panicking non-speculative task gets, initial run
    /// included. Retries are instantaneous in virtual time.
    pub max_attempts: u32,
}

impl SimConfig {
    /// A config with default fault handling: bounded retry.
    pub fn new(platform: Platform) -> Self {
        SimConfig {
            platform,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
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

/// Event discriminant kept `Copy + Ord` for the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EvSlot {
    Arrival,
    Done,
    DelayedDone,
}

/// The event queue, ordered by (time, push sequence) for determinism.
#[derive(Default)]
struct Events {
    heap: BinaryHeap<Reverse<(Time, u64, usize, EvSlot)>>,
    seq: u64,
}

impl Events {
    fn push(&mut self, at: Time, aux: usize, slot: EvSlot) {
        self.heap.push(Reverse((at, self.seq, aux, slot)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(Time, usize, EvSlot)> {
        self.heap
            .pop()
            .map(|Reverse((t, _, aux, slot))| (t, aux, slot))
    }
}

/// Mutable chaos bookkeeping threaded through the event loop.
#[derive(Default)]
struct ChaosState {
    /// Completions held back by an injected `DelayCompletion`: key → the
    /// occupancy and its output, settled at the later instant against the
    /// abort state then.
    delayed: HashMap<usize, (Span, Payload)>,
    /// Fresh keys for the map above.
    next_key: usize,
}

impl ChaosState {
    fn key(&mut self) -> usize {
        self.next_key += 1;
        self.next_key - 1
    }
}

/// Run `workload` under `policy` to completion over the given
/// pre-scheduled `blocks` of `input`, recording into `ins.recorder` and
/// drawing faults from `ins.faults` (pass `&Instruments::default()` for a
/// dark run; the resulting [`RunMetrics`] are identical either way).
///
/// `input` is the run's whole input, borrowed for the run: every block's
/// `bytes` is a range of it, and every task body reads it through its
/// [`crate::TaskCtx::input`]. `blocks` must be sorted by arrival time (as
/// produced by the `tvs-iosim` models); the blocks that share an arrival
/// instant reach the workload in one [`Workload::on_input_batch`], as they
/// would from the threaded executor's feeder. Panics with a diagnostic if the workload
/// deadlocks (events exhausted before [`Workload::is_finished`]) — a
/// workload bug, not a run failure. A non-speculative task panicking on
/// every attempt `cfg.max_attempts` allows returns `Err`; everything else —
/// injected panics, stalls, delayed and duplicated completions — recovers
/// through the rollback machinery and completes the run.
///
/// The recorder's clock follows the event heap, so every recorded fact —
/// including scheduler rollback/cancel events fired from inside workload
/// callbacks — is stamped with deterministic virtual time. Task start/end
/// events are stamped with the exact simulated interval the task occupied
/// its worker. Snapshots are driven by *virtual* time too: arm the
/// recorder with [`tvs_metrics::Recorder::enable_virtual_sampling`] before
/// the run and drain with
/// [`tvs_metrics::Recorder::drain_virtual_snapshots`] after — the snapshot
/// stream is then as deterministic as the simulation itself (same seed →
/// identical JSONL bytes). No sampler thread is involved.
pub fn run<W: Workload>(
    workload: W,
    cfg: &SimConfig,
    policy: DispatchPolicy,
    cost: &dyn CostModel,
    input: &[u8],
    blocks: Vec<InputBlock>,
    ins: &Instruments,
) -> Result<(W, RunMetrics), RunError> {
    let ins = ins.for_executor(cfg.platform.workers, policy);
    let (rec, faults) = (&ins.recorder, &ins.faults);
    assert_schedule(input, &blocks);
    let env = |now| Env {
        now,
        workers: cfg.platform.workers,
        max_task_bytes: cfg.platform.max_task_bytes,
    };

    let mut core = Core::new(workload, policy, &ins);
    let mut workers: Vec<WorkerState> = (0..cfg.platform.workers)
        .map(|_| WorkerState {
            pipeline_end: 0,
            assigned: VecDeque::new(),
        })
        .collect();
    let mut chaos = ChaosState::default();
    let mut events = Events::default();

    // One arrival event per distinct instant, carrying every block due then.
    let n_inputs = blocks.len();
    let mut batches: Vec<Option<Vec<InputBlock>>> = Vec::new();
    for b in blocks {
        match batches.last_mut() {
            Some(Some(batch)) if batch[0].arrival == b.arrival => batch.push(b),
            _ => batches.push(Some(vec![b])),
        }
    }
    for (i, batch) in batches.iter().flatten().enumerate() {
        events.push(batch[0].arrival, i, EvSlot::Arrival);
    }

    let mut arrivals_seen = 0usize;
    let mut last_event_time: Time = 0;

    rec.set_virtual_now(0);
    core.start(env(0));
    if n_inputs == 0 {
        core.feed(env(0), Vec::new(), true);
    }
    dispatch_all(
        &mut core.sched,
        &mut workers,
        cfg,
        cost,
        0,
        &mut events,
        &ins,
    );

    while let Some((t, aux, slot)) = events.pop() {
        last_event_time = t;
        rec.set_virtual_now(t);
        rec.virtual_tick(t);
        match slot {
            EvSlot::Arrival => {
                // An injected feeder stall pushes the batch to a later
                // virtual instant.
                if let Some(FaultKind::Stall { us }) = faults.draw(FaultSite::Feeder) {
                    events.push(t + us.max(1), aux, EvSlot::Arrival);
                    continue;
                }
                let batch = batches[aux].take().expect("each batch arrives once");
                arrivals_seen += batch.len();
                core.feed(env(t), batch, arrivals_seen == n_inputs);
            }
            EvSlot::Done => {
                let Assigned {
                    mut work,
                    start,
                    end,
                    inject_panic,
                } = workers[aux]
                    .assigned
                    .pop_front()
                    .expect("Done event for an empty worker queue");
                debug_assert_eq!(end, t);
                let span = Span::of(&work, aux, start, end);
                rec.emit_at(aux, start, span.start_event());
                // Outputs of discarded tasks are never materialised
                // ("deleted with their content"): skip the body.
                let report = if work.version.is_some_and(|v| core.sched.is_aborted(v)) {
                    Report::Skipped
                } else {
                    let drawn = Injection::Drawn(inject_panic);
                    run_body(&mut work, aux, &ins, input, cfg.max_attempts, drawn)
                };
                match report {
                    Report::Ran(output) => match faults.draw(FaultSite::Completion) {
                        Some(FaultKind::DelayCompletion { us }) => {
                            let key = chaos.key();
                            chaos.delayed.insert(key, (span, output));
                            events.push(t + us.max(1), key, EvSlot::DelayedDone);
                        }
                        drawn => {
                            let wasted = core.settle(env(t), &span, Report::Ran(output), rec);
                            debug_assert!(!wasted, "un-aborted completion delivers");
                            if drawn == Some(FaultKind::DuplicateCompletion) {
                                let _ = core.sched.try_complete(span.id);
                            }
                        }
                    },
                    _ => {
                        core.settle(env(t), &span, report, rec);
                    }
                }
                if let Some(e) = core.failed.take() {
                    return Err(e);
                }
            }
            EvSlot::DelayedDone => {
                let (span, output) = chaos
                    .delayed
                    .remove(&aux)
                    .expect("delayed completion recorded");
                core.settle(env(t), &span, Report::Ran(output), rec);
            }
        }
        if core.finished_at.is_none() && core.workload.is_finished() {
            core.finished_at = Some(t);
        }
        dispatch_all(
            &mut core.sched,
            &mut workers,
            cfg,
            cost,
            t,
            &mut events,
            &ins,
        );
    }

    if !core.workload.is_finished() {
        panic!(
            "simulation deadlock: events exhausted with workload unfinished \
             (ready={}, running={}, arrivals_seen={}/{})",
            core.sched.ready_len(),
            core.sched.running_len(),
            arrivals_seen,
            n_inputs,
        );
    }
    // Flush any virtual-sampling boundary the last event crossed exactly.
    rec.virtual_tick(last_event_time);
    let metrics = run_metrics(rec, core.finished_at.unwrap_or(last_event_time));
    Ok((core.workload, metrics))
}

/// Fill worker prefetch queues with dispatchable tasks, scheduling their
/// completion events. Each dispatch is recorded on its worker's shard (the
/// simulator's analogue of the threaded executor's ready slots).
fn dispatch_all(
    sched: &mut Scheduler,
    workers: &mut [WorkerState],
    cfg: &SimConfig,
    cost: &dyn CostModel,
    now: Time,
    events: &mut Events,
    ins: &Instruments,
) {
    while sched.has_dispatchable() {
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
                    .any(|a| a.work.class == TaskClass::Regular)
            });
        let Some(work) = sched.dispatch_with(normal_pending_elsewhere) else {
            return;
        };
        let mut c = cfg.platform.task_cost_us(cost, work.name, work.bytes);
        let mut inject_panic = false;
        match ins.faults.draw(FaultSite::TaskBody) {
            Some(FaultKind::PanicTask) => inject_panic = true,
            Some(FaultKind::Stall { us }) => c += us,
            _ => {}
        }
        sched.charge(work.class, c);
        ins.recorder.emit_at(
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
        let w = &mut workers[wi];
        let start = w.pipeline_end.max(now);
        let end = start + c.max(1);
        w.pipeline_end = end;
        w.assigned.push_back(Assigned {
            work,
            start,
            end,
            inject_panic,
        });
        events.push(end, wi, EvSlot::Done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{x86_smp, FixedCost};
    use crate::task::{payload, SpecVersion, TaskSpec};
    use crate::workload::{Completion, SchedCtx};
    use tvs_faults::{FaultInjector, FaultPlan};
    use tvs_metrics::Recorder;
    use tvs_trace::TaskSpan;

    fn dark<W: Workload>(
        w: W,
        cfg: &SimConfig,
        policy: DispatchPolicy,
        cost: &dyn CostModel,
        inputs: Vec<InputBlock>,
    ) -> (W, RunMetrics) {
        run(w, cfg, policy, cost, INPUT, inputs, &Instruments::default())
            .expect("dark run completes")
    }

    /// A run under `ins` plus an enabled recorder: its task spans.
    fn with_spans<W: Workload>(
        w: W,
        cfg: &SimConfig,
        policy: DispatchPolicy,
        cost: &dyn CostModel,
        inputs: Vec<InputBlock>,
        ins: Instruments,
    ) -> (W, RunMetrics, Vec<TaskSpan>) {
        let rec = Recorder::enabled(cfg.platform.workers);
        let ins = Instruments {
            recorder: rec.clone(),
            ..ins
        };
        let (w, m) = run(w, cfg, policy, cost, INPUT, inputs, &ins).expect("run completes");
        let log = rec.drain().expect("enabled recorder drains");
        assert_eq!(log.dropped, 0);
        (w, m, log.tasks())
    }

    /// The input the blocks of these tests point into.
    const INPUT: &[u8] = &[0; 4096];

    /// Block `i` of `len` bytes, due at `t`: the `i`-th `len`-byte slice
    /// of [`INPUT`].
    fn block(i: usize, t: Time, len: usize) -> InputBlock {
        InputBlock {
            index: i,
            arrival: t,
            bytes: i * len..(i + 1) * len,
        }
    }

    /// One task per block; finishes when all are processed.
    struct PerBlock {
        n: usize,
        seen: usize,
        completions: Vec<(u64, Time)>,
    }

    fn per_block(n: usize) -> PerBlock {
        PerBlock {
            n,
            seen: 0,
            completions: vec![],
        }
    }

    impl Workload for PerBlock {
        fn on_input(&mut self, ctx: &mut dyn SchedCtx, b: InputBlock) {
            ctx.spawn(TaskSpec::regular(
                "work",
                0,
                b.bytes.len(),
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

    const NON_SPEC: DispatchPolicy = DispatchPolicy::NonSpeculative;

    #[test]
    fn single_worker_serialises() {
        let cfg = SimConfig::new(x86_smp(1));
        let inputs = vec![block(0, 0, 10), block(1, 0, 10), block(2, 0, 10)];
        let ins = Instruments::default();
        let (w, m, spans) = with_spans(per_block(3), &cfg, NON_SPEC, &FixedCost(9), inputs, ins);
        // Each task costs 9 + 1 (dispatch overhead) = 10.
        let ends: Vec<Time> = w.completions.iter().map(|c| c.1).collect();
        assert_eq!(ends, vec![10, 20, 30]);
        assert_eq!(m.makespan, 30);
        assert_eq!(m.tasks_delivered, 3);
        assert_eq!(m.busy_us, 30);
        assert!((m.utilization() - 1.0).abs() < 1e-9);
        assert_eq!(spans.len(), 3);
    }

    #[test]
    fn parallel_workers_overlap() {
        let cfg = SimConfig::new(x86_smp(4));
        let inputs = (0..4).map(|i| block(i, 0, 10)).collect();
        let (_, m) = dark(per_block(4), &cfg, NON_SPEC, &FixedCost(9), inputs);
        assert_eq!(m.makespan, 10, "4 tasks on 4 workers run concurrently");
    }

    #[test]
    fn arrivals_gate_task_starts() {
        let cfg = SimConfig::new(x86_smp(4));
        let inputs = vec![block(0, 0, 10), block(1, 100, 10)];
        let (w, m) = dark(per_block(2), &cfg, NON_SPEC, &FixedCost(4), inputs);
        let mut ends: Vec<Time> = w.completions.iter().map(|c| c.1).collect();
        ends.sort_unstable();
        assert_eq!(ends, vec![5, 105]);
        assert_eq!(m.makespan, 105);
    }

    #[test]
    #[should_panic(expected = "every block lies in the input")]
    fn a_block_past_the_end_of_the_input_is_refused() {
        let cfg = SimConfig::new(x86_smp(1));
        let blocks = vec![block(0, 0, 10)];
        let _ = run(
            per_block(1),
            &cfg,
            NON_SPEC,
            &FixedCost(1),
            &[0; 5],
            blocks,
            &Instruments::default(),
        );
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
        let cfg = SimConfig::new(x86_smp(3));
        let inputs = vec![
            block(0, 0, 1),
            block(1, 0, 1),
            block(2, 5, 1),
            block(3, 5, 1),
        ];
        let (w, _) = dark(Batches(Vec::new()), &cfg, NON_SPEC, &FixedCost(1), inputs);
        assert_eq!(w.0, [(0, vec![0, 1]), (5, vec![2, 3])]);
    }

    #[test]
    fn deterministic_traces() {
        let cfg = SimConfig::new(x86_smp(3));
        let inputs: Vec<InputBlock> = (0..16).map(|i| block(i, (i as u64) * 3, 64)).collect();
        let traced = |inputs| {
            let ins = Instruments::default();
            with_spans(per_block(16), &cfg, NON_SPEC, &FixedCost(7), inputs, ins)
        };
        let (_, ma, a) = traced(inputs.clone());
        let (_, mb, b) = traced(inputs);
        assert_eq!(a, b);
        assert_eq!(ma.makespan, mb.makespan);
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

    /// `spec` costs 50 µs, everything else 2.
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

    #[test]
    fn aborted_version_outputs_are_discarded() {
        // Both tasks start at t=0 on separate workers; 'normal' is cheap
        // and finishes first, aborting version 1 while 'spec' is still in
        // flight; 'spec''s completion must be discarded.
        let cfg = SimConfig::new(x86_smp(2));
        let (_, m, spans) = with_spans(
            AbortingWl { phase: 0 },
            &cfg,
            DispatchPolicy::Aggressive,
            &NameCost,
            vec![],
            Instruments::default(),
        );
        assert_eq!(m.tasks_discarded, 1);
        assert_eq!(m.rollbacks, 1);
        assert!(m.wasted_us >= 50, "discarded work must count as waste");
        let spec = spans.iter().find(|t| t.name == "spec").unwrap();
        assert!(spec.discarded);
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
        let cfg = SimConfig::new(x86_smp(1));
        let _ = dark(NeverDone, &cfg, NON_SPEC, &FixedCost(1), vec![]);
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
        let cfg = SimConfig::new(plat);
        let (w, _) = dark(
            TwoPhase { seen: vec![] },
            &cfg,
            NON_SPEC,
            &FixedCost(5),
            vec![],
        );
        assert_eq!(
            w.seen,
            vec!["a", "b", "deep"],
            "prefetched 'b' runs before 'deep'"
        );

        let cfg1 = SimConfig::new(x86_smp(1));
        let (w1, _) = dark(
            TwoPhase { seen: vec![] },
            &cfg1,
            NON_SPEC,
            &FixedCost(5),
            vec![],
        );
        assert_eq!(
            w1.seen,
            vec!["a", "deep", "b"],
            "without prefetch, depth wins"
        );
    }

    #[test]
    fn traced_run_records_lifecycle_in_virtual_time() {
        let cfg = SimConfig::new(x86_smp(1));
        let inputs = vec![block(0, 0, 10), block(1, 0, 10), block(2, 0, 10)];
        let rec = Recorder::enabled(1);
        let (_, m) = run(
            per_block(3),
            &cfg,
            NON_SPEC,
            &FixedCost(9),
            INPUT,
            inputs,
            &Instruments::recorded(rec.clone()),
        )
        .expect("traced run completes");
        assert_eq!(m.makespan, 30);
        let log = rec.drain().expect("enabled recorder drains");
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
        let cfg = SimConfig::new(x86_smp(2));
        let inputs: Vec<InputBlock> = (0..8).map(|i| block(i, (i as u64) * 2, 32)).collect();
        let (plain_w, plain) = dark(per_block(8), &cfg, NON_SPEC, &FixedCost(5), inputs.clone());
        let ins = Instruments::default();
        let (traced_w, traced, _) =
            with_spans(per_block(8), &cfg, NON_SPEC, &FixedCost(5), inputs, ins);
        assert_eq!(plain, traced);
        assert_eq!(plain_w.completions, traced_w.completions);
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
        let cfg = SimConfig::new(x86_smp(2));
        let (_, m) = dark(EarlyExit { done: false }, &cfg, NON_SPEC, &ByteCost, vec![]);
        assert!(
            m.makespan < 100,
            "makespan {} should not wait for the straggler",
            m.makespan
        );
    }

    /// Every fault the simulator acts out, at rates that make each of them
    /// fire on a few dozen tasks.
    fn chaos_plan(seed: u64) -> FaultPlan {
        FaultPlan::new(seed)
            .with_rule(FaultSite::TaskBody, FaultKind::PanicTask, 0.3)
            .with_rule(FaultSite::TaskBody, FaultKind::Stall { us: 40 }, 0.3)
            .with_rule(FaultSite::Completion, FaultKind::DuplicateCompletion, 0.3)
            .with_rule(
                FaultSite::Completion,
                FaultKind::DelayCompletion { us: 25 },
                0.3,
            )
            .with_rule(FaultSite::Feeder, FaultKind::Stall { us: 15 }, 0.3)
    }

    #[test]
    fn chaos_runs_are_deterministic_and_recover() {
        // Same plan seed twice: identical metrics, identical workload
        // results, and the faults actually fired.
        let cfg = SimConfig::new(x86_smp(2));
        let chaos = || Instruments::faulty(FaultInjector::new(chaos_plan(77)));
        let inputs: Vec<InputBlock> = (0..12).map(|i| block(i, (i as u64) * 2, 16)).collect();
        let go = |inputs| {
            run(
                per_block(12),
                &cfg,
                NON_SPEC,
                &FixedCost(5),
                INPUT,
                inputs,
                &chaos(),
            )
            .expect("chaos run recovers")
        };
        let (aw, a) = go(inputs.clone());
        let (bw, b) = go(inputs);
        assert_eq!(a, b, "chaos is replayable");
        assert_eq!(aw.seen, 12);
        assert_eq!(bw.seen, 12);
        assert!(
            a.faults > 0 || a.duplicate_completions > 0,
            "the plan fired something: {a:?}"
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
        let cfg = SimConfig::new(x86_smp(1));
        let Err(err) = run(
            AlwaysPanics { done: false },
            &cfg,
            NON_SPEC,
            &FixedCost(3),
            INPUT,
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

    /// Per block: the real task, and a speculative guess whose version is
    /// aborted for every odd block.
    struct Guesses {
        n: usize,
        seen: usize,
    }
    impl Workload for Guesses {
        fn on_input(&mut self, ctx: &mut dyn SchedCtx, b: InputBlock) {
            let i = b.index as u64;
            ctx.spawn(TaskSpec::regular("work", 0, 0, i, |_| payload(())));
            let v = b.index as SpecVersion + 1;
            ctx.spawn(TaskSpec::speculative("guess", 0, 0, v, i, |_| payload(())));
        }
        fn on_complete(&mut self, ctx: &mut dyn SchedCtx, done: Completion) {
            if done.name == "work" {
                self.seen += 1;
                if done.tag % 2 == 1 {
                    ctx.abort_version(done.tag as SpecVersion + 1);
                }
            }
        }
        fn is_finished(&self) -> bool {
            self.seen == self.n
        }
    }

    #[test]
    fn spans_account_for_every_busy_microsecond() {
        // One clean run and one chaos run (panics, stalls, delayed and
        // duplicated completions): the trace's spans are exactly what
        // RunMetrics charges, and every span is one delivered, discarded or
        // faulted body.
        let cfg = SimConfig::new(x86_smp(3));
        for faults in [FaultInjector::disabled(), FaultInjector::new(chaos_plan(5))] {
            let inputs: Vec<InputBlock> = (0..48).map(|i| block(i, (i as u64) * 3, 8)).collect();
            let ins = Instruments::faulty(faults.clone());
            let wl = Guesses { n: 48, seen: 0 };
            let policy = DispatchPolicy::Balanced;
            let (w, m, spans) = with_spans(wl, &cfg, policy, &FixedCost(5), inputs, ins);
            assert_eq!(w.seen, 48);
            let busy: Time = spans.iter().map(TaskSpan::busy_us).sum();
            let wasted: Time = spans
                .iter()
                .filter(|s| s.discarded)
                .map(TaskSpan::busy_us)
                .sum();
            assert_eq!(m.busy_us, busy, "{m:?}");
            assert_eq!(m.wasted_us, wasted, "{m:?}");
            let faulted_bodies = m.faults - m.task_retries;
            assert_eq!(
                m.tasks_delivered + m.tasks_discarded + faulted_bodies,
                spans.len() as u64,
                "{m:?}"
            );
            assert!(m.wasted_us > 0, "rolled-back guesses are wasted work");
            if faults.injected() > 0 {
                let fired =
                    |kind: fn(&FaultKind) -> bool| faults.log().iter().any(|f| kind(&f.kind));
                assert!(fired(|k| matches!(k, FaultKind::PanicTask)));
                assert!(fired(|k| matches!(k, FaultKind::DelayCompletion { .. })));
                assert!(m.faults > 0 && m.duplicate_completions > 0, "{m:?}");
            }
        }
    }
}
