//! Property-based tests for the runtime: the ready queue against a
//! reference model, scheduler lifecycle invariants, discrete-event
//! determinism under arbitrary workload shapes, and cross-executor output
//! equivalence (simulator vs work-stealing threads).
//!
//! Hand-rolled seeded-loop properties (`tvs_rng::cases`): the offline build
//! has no proptest, and deterministic per-case seeds reproduce failures
//! exactly.

use tvs_rng::cases;
use tvs_sre::exec::sim::{self, SimConfig};
use tvs_sre::exec::threaded::{self, ThreadedConfig};
use tvs_sre::policy::LaneLoads;
use tvs_sre::queue::ReadyQueue;
use tvs_sre::task::{payload, TaskClass, TaskSpec};
use tvs_sre::workload::{Completion, InputBlock, SchedCtx, Workload};
use tvs_sre::{
    x86_smp, CostModel, DispatchPolicy, Instruments, RunMetrics, Scheduler, Time, Tracer,
};

/// Simulator run under `ins` that must complete, non-speculatively.
fn run_sim<W: Workload>(
    w: W,
    cfg: &SimConfig,
    cost: &dyn CostModel,
    input: &[u8],
    blocks: Vec<InputBlock>,
    ins: &Instruments,
) -> (W, RunMetrics) {
    let policy = DispatchPolicy::NonSpeculative;
    sim::run(w, cfg, policy, cost, input, blocks, ins).expect("sim run completes")
}

/// Dark threaded run that must complete.
fn run_threaded<W: Workload + Send>(
    w: W,
    cfg: &ThreadedConfig,
    policy: DispatchPolicy,
    input: &[u8],
    blocks: Vec<InputBlock>,
) -> (W, RunMetrics) {
    threaded::run(w, cfg, policy, input, blocks, &Instruments::default())
        .expect("dark threaded run completes")
}

// ---------------------------------------------------------------------
// Ready queue vs a transparent reference model
// ---------------------------------------------------------------------

/// The reference: a plain vector, popped by scanning for the best-ranked
/// entry per the documented rules (control first; then the policy lane;
/// within a lane, deepest first, FCFS tie-break).
#[derive(Clone, Debug)]
struct ModelEntry {
    id: u64,
    class: TaskClass,
    depth: u32,
    version: Option<u32>,
    seq: u64,
}

fn model_pop(
    entries: &mut Vec<ModelEntry>,
    policy: DispatchPolicy,
    loads: LaneLoads,
) -> Option<u64> {
    let best = |es: &[(usize, &ModelEntry)]| -> Option<usize> {
        es.iter()
            .min_by_key(|(_, e)| (u32::MAX - e.depth, e.seq))
            .map(|(i, _)| *i)
    };
    fn by_lane(entries: &[ModelEntry], want_spec: bool) -> Vec<(usize, &ModelEntry)> {
        entries
            .iter()
            .enumerate()
            .filter(|(_, e)| match e.class {
                TaskClass::Regular => !want_spec,
                TaskClass::Speculative => want_spec,
                _ => false,
            })
            .collect()
    }
    // Control first.
    let control: Vec<(usize, &ModelEntry)> = entries
        .iter()
        .enumerate()
        .filter(|(_, e)| e.class.is_control())
        .collect();
    if let Some(i) = best(&control) {
        return Some(entries.remove(i).id);
    }
    let normal = by_lane(entries, false);
    let spec = by_lane(entries, true);
    let kind = policy.choose(!normal.is_empty(), !spec.is_empty(), loads, false)?;
    let pick = match kind {
        tvs_sre::policy::QueueKind::Normal => best(&normal),
        tvs_sre::policy::QueueKind::Speculative => best(&spec),
    }?;
    Some(entries.remove(pick).id)
}

/// The BTreeMap-backed queue agrees with the brute-force model under
/// arbitrary interleavings of pushes, pops and version removals.
#[test]
fn prop_queue_matches_model() {
    cases(0x51EE7, 64, |rng, case| {
        let policy = [
            DispatchPolicy::NonSpeculative,
            DispatchPolicy::Conservative,
            DispatchPolicy::Aggressive,
            DispatchPolicy::Balanced,
        ][rng.random_range(0..4usize)];
        let mut q = ReadyQueue::new();
        let mut model: Vec<ModelEntry> = Vec::new();
        let mut next_id = 0u64;
        let mut seq = 0u64;
        let n_ops = rng.random_range(1..120usize);
        for _ in 0..n_ops {
            match rng.random_range(0..3u8) {
                0 => {
                    let class = match rng.random_range(0..4u8) {
                        0 => TaskClass::Regular,
                        1 => TaskClass::Speculative,
                        2 => TaskClass::Predictor,
                        _ => TaskClass::Check,
                    };
                    // NonSpeculative runs don't receive speculative tasks.
                    if class == TaskClass::Speculative && !policy.speculates() {
                        continue;
                    }
                    let depth = rng.random_range(0..5u32);
                    let v = rng.random_range(0..3u32);
                    let version = (class == TaskClass::Speculative).then_some(v);
                    next_id += 1;
                    q.push(next_id, class, depth, version);
                    model.push(ModelEntry {
                        id: next_id,
                        class,
                        depth,
                        version,
                        seq,
                    });
                    seq += 1;
                }
                1 => {
                    let got = q.pop(policy, LaneLoads::default(), false);
                    let want = model_pop(&mut model, policy, LaneLoads::default());
                    assert_eq!(got, want, "case {case}: queue disagrees with model");
                }
                _ => {
                    let v = rng.random_range(0..3u32);
                    let mut got = q.remove_version(v);
                    got.sort_unstable();
                    let mut want: Vec<u64> = model
                        .iter()
                        .filter(|e| e.version == Some(v))
                        .map(|e| e.id)
                        .collect();
                    want.sort_unstable();
                    model.retain(|e| e.version != Some(v));
                    assert_eq!(got, want, "case {case}: remove_version({v}) disagrees");
                }
            }
            assert_eq!(q.len(), model.len(), "case {case}: length drift");
        }
    });
}

/// Scheduler conservation: every spawned task is exactly once either
/// (a) dispatched and completed, (b) deleted by a rollback while
/// ready, or (c) rejected at spawn.
#[test]
fn prop_scheduler_conserves_tasks() {
    cases(0xC0A5E, 64, |rng, case| {
        let mut s = Scheduler::new(DispatchPolicy::Aggressive);
        let mut spawned = 0u64;
        let mut completed = 0u64;
        let n_ops = rng.random_range(1..200usize);
        for _ in 0..n_ops {
            match rng.random_range(0..4u8) {
                0 => {
                    let v = rng.random_range(0..4u32);
                    if s.spawn(TaskSpec::speculative("s", 0, 0, v, 0, |_| payload(())))
                        .is_some()
                    {
                        spawned += 1;
                    }
                }
                1 => {
                    s.spawn(TaskSpec::regular("r", 0, 0, 0, |_| payload(())))
                        .unwrap();
                    spawned += 1;
                }
                2 => {
                    if let Some(d) = s.dispatch() {
                        s.complete(d.id);
                        completed += 1;
                    }
                }
                _ => {
                    s.abort_version(rng.random_range(0..4u32));
                }
            }
        }
        // Drain what remains.
        while let Some(d) = s.dispatch() {
            s.complete(d.id);
            completed += 1;
        }
        let st = s.stats();
        assert_eq!(st.spawned, spawned, "case {case}");
        assert_eq!(completed, st.delivered + st.discarded, "case {case}");
        assert_eq!(spawned, completed + st.deleted_ready, "case {case}");
        assert!(s.is_idle(), "case {case}");
    });
}

// ---------------------------------------------------------------------
// DES determinism under arbitrary fan-out workloads
// ---------------------------------------------------------------------

/// A workload whose shape is driven by a byte script: each completed task
/// spawns `script[tag] % 3` children until the budget is exhausted.
struct FanOut {
    script: Vec<u8>,
    spawned: usize,
    seen: usize,
}

impl FanOut {
    fn child(&mut self, ctx: &mut dyn SchedCtx, tag: u64) {
        if self.spawned >= self.script.len() {
            return;
        }
        self.spawned += 1;
        ctx.spawn(TaskSpec::regular(
            "t",
            (tag % 7) as u32,
            (tag as usize % 5) * 100,
            tag,
            |_| payload(()),
        ));
    }
}

impl Workload for FanOut {
    fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
        self.child(ctx, 1);
    }
    fn on_input(&mut self, _ctx: &mut dyn SchedCtx, _b: InputBlock) {}
    fn on_complete(&mut self, ctx: &mut dyn SchedCtx, done: Completion) {
        self.seen += 1;
        let n = self.script.get(done.tag as usize).copied().unwrap_or(0) % 3;
        for i in 0..n {
            self.child(ctx, done.tag * 3 + i as u64 + 1);
        }
    }
    fn is_finished(&self) -> bool {
        self.seen >= self.spawned && self.spawned > 0
    }
}

struct TagCost;
impl CostModel for TagCost {
    fn cost_us(&self, _name: &str, bytes: usize) -> Time {
        10 + bytes as Time
    }
}

/// Same script, same platform -> byte-identical traces; and the trace
/// respects worker exclusivity (no overlapping tasks on one worker).
#[test]
fn prop_sim_deterministic_and_exclusive() {
    cases(0xDE5, 32, |rng, case| {
        let script = tvs_rng::bytes(rng, 1..100);
        let workers = rng.random_range(1..6usize);
        let cfg = SimConfig::new(x86_smp(workers));
        let traced = || {
            let tracer = Tracer::enabled(workers);
            let fan_out = FanOut {
                script: script.clone(),
                spawned: 0,
                seen: 0,
            };
            let ins = Instruments::traced(tracer.clone());
            let (w, m) = run_sim(fan_out, &cfg, &TagCost, &[], vec![], &ins);
            (w, m, tracer.drain().expect("enabled tracer drains").tasks())
        };
        let (a, am, a_spans) = traced();
        let (_, bm, b_spans) = traced();
        assert_eq!(a_spans, b_spans, "case {case}");
        assert_eq!(am.makespan, bm.makespan, "case {case}");
        // Worker exclusivity.
        for w in 0..workers as u32 {
            let mut spans: Vec<(Time, Time)> = a_spans
                .iter()
                .filter(|t| t.worker == w)
                .map(|t| (t.start, t.end))
                .collect();
            spans.sort_unstable();
            for pair in spans.windows(2) {
                assert!(
                    pair[1].0 >= pair[0].1,
                    "case {case}: worker {w} overlap: {pair:?}"
                );
            }
        }
        // Conservation: every spawned task traced exactly once.
        assert_eq!(a_spans.len(), a.spawned);
        // The simulator's per-worker binding counts cover every task.
        assert_eq!(
            am.lane_dispatches.iter().sum::<u64>(),
            a_spans.len() as u64,
            "case {case}"
        );
    });
}

// ---------------------------------------------------------------------
// Cross-executor equivalence: sim == threaded
// ---------------------------------------------------------------------

/// Deterministic two-stage workload: each input block spawns a "digest"
/// task (sums bytes), whose delivery spawns a "fold" task mixing the digest
/// with the tag. Delivered fold outputs are collected as `(tag, value)`.
struct TwoStage {
    blocks: usize,
    folds_done: usize,
    results: Vec<(u64, u64)>,
}

impl TwoStage {
    fn new(blocks: usize) -> Self {
        TwoStage {
            blocks,
            folds_done: 0,
            results: Vec::new(),
        }
    }
}

impl Workload for TwoStage {
    fn on_input(&mut self, ctx: &mut dyn SchedCtx, b: InputBlock) {
        let bytes = b.bytes;
        ctx.spawn(TaskSpec::regular(
            "digest",
            0,
            bytes.len(),
            b.index as u64,
            move |ctx| {
                payload(
                    ctx.input()[bytes.clone()]
                        .iter()
                        .enumerate()
                        .map(|(i, &x)| (i as u64 + 1) * x as u64)
                        .sum::<u64>(),
                )
            },
        ));
    }
    fn on_complete(&mut self, ctx: &mut dyn SchedCtx, done: Completion) {
        match done.name {
            "digest" => {
                let digest = *done.output.downcast::<u64>().unwrap();
                let tag = done.tag;
                ctx.spawn(TaskSpec::regular("fold", 1, 0, tag, move |_| {
                    payload(digest.wrapping_mul(0x9E3779B97F4A7C15) ^ tag)
                }));
            }
            "fold" => {
                self.folds_done += 1;
                self.results
                    .push((done.tag, *done.output.downcast::<u64>().unwrap()));
            }
            _ => unreachable!(),
        }
    }
    fn is_finished(&self) -> bool {
        self.folds_done == self.blocks
    }
}

/// The same deterministic workload must deliver the same output set on the
/// simulator and the work-stealing threaded executor, at every worker
/// count (the oracle is the one-worker simulator) — executors may reorder
/// completions but never change, drop or duplicate results.
#[test]
fn prop_cross_executor_outputs_identical() {
    cases(0xE9_0A11, 8, |rng, case| {
        let n_blocks = rng.random_range(1..40usize);
        let blocks: Vec<Vec<u8>> = (0..n_blocks).map(|_| tvs_rng::bytes(rng, 1..512)).collect();
        let data = blocks.concat();

        let dark = Instruments::default();
        let sorted = |mut v: Vec<(u64, u64)>| {
            v.sort_unstable();
            v
        };

        let inputs: Vec<InputBlock> = blocks
            .iter()
            .enumerate()
            .scan(0, |at, (i, d)| {
                let bytes = *at..*at + d.len();
                *at += d.len();
                let arrival = i as Time;
                Some(InputBlock {
                    index: i,
                    arrival,
                    bytes,
                })
            })
            .collect();

        // Reference: single-worker simulator run.
        let sim_cfg = SimConfig::new(x86_smp(1));
        let reference = sorted(
            run_sim(
                TwoStage::new(n_blocks),
                &sim_cfg,
                &TagCost,
                &data,
                inputs.clone(),
                &dark,
            )
            .0
            .results,
        );
        assert_eq!(reference.len(), n_blocks);

        for workers in [1usize, 2, 4, 8] {
            // Simulator at this worker count.
            let cfg = SimConfig::new(x86_smp(workers));
            let got = sorted(
                run_sim(
                    TwoStage::new(n_blocks),
                    &cfg,
                    &TagCost,
                    &data,
                    inputs.clone(),
                    &dark,
                )
                .0
                .results,
            );
            assert_eq!(got, reference, "case {case}: sim@{workers} diverged");

            // The threaded (work-stealing) executor.
            let tcfg = ThreadedConfig::new(workers);
            let policy = DispatchPolicy::NonSpeculative;
            let (w, m) = run_threaded(
                TwoStage::new(n_blocks),
                &tcfg,
                policy,
                &data,
                inputs.clone(),
            );
            assert_eq!(
                sorted(w.results),
                reference,
                "case {case}: threaded@{workers} diverged"
            );
            assert_eq!(m.tasks_delivered, 2 * n_blocks as u64);
            assert_eq!(
                m.lane_dispatches.iter().sum::<u64>(),
                2 * n_blocks as u64,
                "case {case}: every threaded task routes through a lane"
            );
        }
    });
}

/// Chained speculation on real threads: delivered results must be immune to
/// executor races — an aborted version's outputs never surface, whatever
/// the interleaving. Runs the same speculative workload many times across
/// worker counts.
#[test]
fn prop_threaded_abort_never_leaks() {
    struct SpecLeak {
        normal_done: bool,
        leaked: bool,
    }
    impl Workload for SpecLeak {
        fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
            for i in 0..4 {
                ctx.spawn(TaskSpec::speculative("spec", 0, 0, 1, i, |_| payload(())));
            }
            ctx.spawn(TaskSpec::regular("normal", 0, 0, 0, |_| payload(())));
        }
        fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {}
        fn on_complete(&mut self, ctx: &mut dyn SchedCtx, done: Completion) {
            match done.name {
                "normal" => {
                    ctx.abort_version(1);
                    self.normal_done = true;
                }
                "spec" => {
                    if self.normal_done {
                        // Delivered after its version was aborted: a leak.
                        self.leaked = true;
                    }
                }
                _ => unreachable!(),
            }
        }
        fn is_finished(&self) -> bool {
            self.normal_done
        }
    }
    for workers in [1usize, 2, 4] {
        for _ in 0..8 {
            let cfg = ThreadedConfig::new(workers);
            let (w, m) = run_threaded(
                SpecLeak {
                    normal_done: false,
                    leaked: false,
                },
                &cfg,
                DispatchPolicy::Balanced,
                &[],
                Vec::new(),
            );
            assert!(w.normal_done);
            assert!(
                !w.leaked,
                "aborted speculative output delivered at {workers} workers"
            );
            // Conservation: 1 normal delivered; every spec accounted for as
            // early-delivered, discarded or deleted (queue or lane).
            let spec_delivered = m.tasks_delivered - 1;
            assert_eq!(
                spec_delivered + m.tasks_discarded + m.tasks_deleted_ready,
                4,
                "spec tasks unaccounted for at {workers} workers"
            );
        }
    }
}
