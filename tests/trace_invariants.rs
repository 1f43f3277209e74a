//! Cross-executor speculation-lifecycle invariants: whatever executor ran
//! the pipeline, the drained event log must agree with the run's
//! [`RunMetrics`] and the recorder's counters, every opened version must
//! resolve exactly once, and recording must not change the run's results.

use std::collections::HashMap;
use tvs_core::CheckpointConfig;
use tvs_iosim::Uniform;
use tvs_metrics::Counter;
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::runner::{run_huffman, Executor, HuffmanRun, RunOutcome};
use tvs_sre::{
    x86_smp, DispatchPolicy, FaultInjector, FaultKind, FaultPlan, FaultSite, Recorder, RunMetrics,
    TraceLog,
};
use tvs_trace::{EventKind, TaskSpan};
use tvs_workloads::FileKind;

/// Text then PDF: the symbol-distribution shift makes step-0 predictions
/// fail the tolerance check partway through, so runs exercise rollback,
/// cascade deletion and discarded work — not just the happy path.
fn data() -> Vec<u8> {
    let mut d = tvs_workloads::generate(FileKind::Text, 32 * 1024, 7);
    d.extend(tvs_workloads::generate(FileKind::Pdf, 32 * 1024, 7));
    d
}

/// Step 0 predicts from the very first block, so the small test input
/// still runs the full speculation lifecycle.
fn cfg(policy: DispatchPolicy) -> HuffmanConfig {
    let mut c = HuffmanConfig::disk_x86(policy);
    c.schedule = tvs_core::SpeculationSchedule::with_step(0);
    c
}

const ARRIVAL: Uniform = Uniform {
    gap_us: 2,
    start_us: 0,
};

/// `run` with the event log on, for an executor of `workers` workers.
fn events(mut run: HuffmanRun, workers: usize) -> (RunOutcome, TraceLog) {
    run.instruments.recorder = Recorder::enabled(workers);
    let report = run_huffman(&run).expect("nothing injected, nothing fails");
    let log = report.log.expect("enabled recorder drains");
    (report.end.into_outcome(), log)
}

fn sim_events(d: &[u8], c: &HuffmanConfig) -> (RunOutcome, TraceLog) {
    events(HuffmanRun::sim(d, c, &x86_smp(8), &ARRIVAL), 8)
}

/// The lifecycle invariants every executor must uphold:
///
/// 1. Each version opens at most once, and every opened version resolves
///    in *exactly one* commit or rollback. (A rollback without a prior
///    open is legal — a prediction can be killed before installation
///    claims a version-open event — but a commit is not.)
/// 2. Trace rollbacks match `metrics.rollbacks`.
/// 3. Cascade depths account for the scheduler's ready-queue deletions:
///    `sum(cascade_depth) + count(cancel-ready) == tasks_deleted_ready`.
fn assert_lifecycle(log: &TraceLog, metrics: &RunMetrics) {
    assert_eq!(log.dropped, 0, "rings must not overflow in tests");
    assert_eq!(
        log.dropped_per_worker.len(),
        log.workers + 1,
        "one drop counter per worker ring plus the control ring"
    );
    for (ring, d) in log.dropped_per_worker.iter().enumerate() {
        assert_eq!(*d, 0, "ring {ring} dropped events in a deterministic run");
    }
    let mut opened: HashMap<u32, u64> = HashMap::new();
    let mut committed: HashMap<u32, u64> = HashMap::new();
    let mut rolled: HashMap<u32, u64> = HashMap::new();
    let mut cascade_sum = 0u64;
    let mut cancels = 0u64;
    for e in &log.events {
        match &e.kind {
            EventKind::VersionOpen { version, .. } => *opened.entry(*version).or_default() += 1,
            EventKind::Commit { version } => *committed.entry(*version).or_default() += 1,
            EventKind::Rollback {
                version,
                cascade_depth,
            } => {
                *rolled.entry(*version).or_default() += 1;
                cascade_sum += cascade_depth;
            }
            EventKind::CancelReady { .. } => cancels += 1,
            _ => {}
        }
    }
    for (v, n) in &opened {
        assert_eq!(*n, 1, "version {v} opened more than once");
        let c = committed.get(v).copied().unwrap_or(0);
        let r = rolled.get(v).copied().unwrap_or(0);
        assert_eq!(
            c + r,
            1,
            "version {v} must resolve exactly once (commits {c}, rollbacks {r})"
        );
    }
    for v in committed.keys() {
        assert!(
            opened.contains_key(v),
            "version {v} committed but never opened"
        );
    }
    for (v, n) in &rolled {
        assert_eq!(*n, 1, "version {v} rolled back more than once");
    }
    assert_eq!(
        rolled.values().sum::<u64>(),
        metrics.rollbacks,
        "trace rollbacks match RunMetrics"
    );
    assert_eq!(
        cascade_sum + cancels,
        metrics.tasks_deleted_ready,
        "cascade depths + bound cancellations account for deleted-ready tasks"
    );
}

/// The accounting identities of one run, exact on either executor, clean
/// or faulted: the task spans of the log are what the recorder charged —
/// busy, wasted, and the profiler's run and check clocks — and every
/// speculation counter equals the count of the events that charge it.
fn assert_accounting(log: &TraceLog, m: &RunMetrics, rec: &Recorder) {
    let spans = log.tasks();
    let busy: u64 = spans.iter().map(TaskSpan::busy_us).sum();
    let wasted: u64 = spans
        .iter()
        .filter(|s| s.discarded)
        .map(TaskSpan::busy_us)
        .sum();
    assert_eq!(busy, m.busy_us, "task spans sum to busy_us: {m:?}");
    assert_eq!(wasted, m.wasted_us, "discarded spans sum to wasted_us");
    assert_eq!(log.health().wasted_us, m.wasted_us, "SpecHealth agrees");
    assert_eq!(
        log.lineage().total_wasted_us(),
        m.wasted_us,
        "lineage agrees"
    );
    let total = |c| rec.counter_total(c);
    assert_eq!(
        total(Counter::TimeRunUs) + total(Counter::TimeCheckUs),
        total(Counter::BusyUs),
        "run and check clocks cover the busy time"
    );
    let faulted_bodies = m.faults - m.task_retries;
    assert_eq!(
        m.tasks_delivered + m.tasks_discarded + faulted_bodies,
        spans.len() as u64,
        "every span is one delivered, discarded or faulted body: {m:?}"
    );
    for (counter, label) in [
        (Counter::Rollbacks, "rollback"),
        (Counter::Commits, "commit"),
        (Counter::ChecksPassed, "check-pass"),
        (Counter::ChecksFailed, "check-fail"),
        (Counter::Predictions, "lineage-open"),
        (Counter::Faults, "task-fault"),
    ] {
        assert_eq!(total(counter), log.count(label) as u64, "{label}");
    }
    let cascades: u64 = (log.events.iter())
        .map(|e| match e.kind {
            EventKind::Rollback { cascade_depth, .. } => cascade_depth,
            EventKind::CancelReady { .. } => 1,
            _ => 0,
        })
        .sum();
    assert_eq!(total(Counter::DeletedReady), cascades, "deleted-ready");
}

/// Panics, stalls, delayed and duplicated completions at rates that make
/// each fire on a run of [`data`]; the runs below allow enough attempts
/// that no regular task exhausts them.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_rule(FaultSite::TaskBody, FaultKind::PanicTask, 0.15)
        .with_rule(FaultSite::TaskBody, FaultKind::Stall { us: 300 }, 0.1)
        .with_rule(FaultSite::Completion, FaultKind::DuplicateCompletion, 0.2)
        .with_rule(
            FaultSite::Completion,
            FaultKind::DelayCompletion { us: 200 },
            0.1,
        )
}

#[test]
fn spans_account_for_every_busy_microsecond() {
    // One body for both executors, each with a clean run and a chaos-plan
    // run: lifecycle and accounting hold exactly.
    let d = data();
    let c = cfg(DispatchPolicy::Balanced);
    for threaded in [false, true] {
        for chaos in [false, true] {
            let (mut run, workers) = if threaded {
                (HuffmanRun::threaded(&d, &c, 4, &ARRIVAL, 1000), 4)
            } else {
                (HuffmanRun::sim(&d, &c, &x86_smp(8), &ARRIVAL), 8)
            };
            match &mut run.on {
                Executor::Sim { cfg } => cfg.max_attempts = 12,
                Executor::Threaded { cfg, .. } => cfg.max_attempts = 12,
            }
            let faults = if chaos {
                FaultInjector::new(chaos_plan(11))
            } else {
                FaultInjector::disabled()
            };
            run.instruments.faults = faults.clone();
            let rec = Recorder::enabled(workers);
            run.instruments.recorder = rec.clone();
            let report = run_huffman(&run).expect("the chaos plan is recoverable");
            let log = report.log.expect("enabled recorder drains");
            let out = report.end.into_outcome();
            assert_lifecycle(&log, &out.metrics);
            assert_accounting(&log, &out.metrics, &rec);
            let fired = |kind: FaultKind| faults.log().iter().any(|f| f.kind == kind);
            for kind in [
                FaultKind::PanicTask,
                FaultKind::Stall { us: 300 },
                FaultKind::DuplicateCompletion,
            ] {
                assert_eq!(fired(kind), chaos, "threaded {threaded}: {kind:?}");
            }
        }
    }
}

#[test]
fn sim_upholds_lifecycle_invariants_for_every_policy() {
    let d = data();
    for policy in DispatchPolicy::ALL {
        let (out, log) = sim_events(&d, &cfg(policy));
        assert_lifecycle(&log, &out.metrics);
        if policy.speculates() {
            assert!(
                log.health().versions_opened > 0,
                "{}: speculation must actually run",
                policy.label()
            );
        }
    }
}

#[test]
fn tracing_does_not_perturb_sim_results() {
    // The deterministic executor must produce byte-identical metrics and
    // latencies whether or not an event log is being recorded.
    let d = data();
    for policy in DispatchPolicy::ALL {
        let c = cfg(policy);
        let plain = run_huffman(&HuffmanRun::sim(&d, &c, &x86_smp(8), &ARRIVAL))
            .expect("a dark run cannot fail")
            .end
            .into_outcome();
        let (traced, _) = sim_events(&d, &c);
        assert_eq!(plain.metrics, traced.metrics, "{}", policy.label());
        assert_eq!(plain.latencies(), traced.latencies(), "{}", policy.label());
    }
}

#[test]
fn threaded_upholds_lifecycle_invariants() {
    let d = data();
    let c = cfg(DispatchPolicy::Aggressive);
    let (out, log) = events(HuffmanRun::threaded(&d, &c, 4, &ARRIVAL, 1000), 4);
    assert_lifecycle(&log, &out.metrics);
    assert_eq!(log.count("task-end"), log.count("task-start"));
    assert_eq!(
        log.count("task-end") as u64,
        out.metrics.tasks_delivered + out.metrics.tasks_discarded,
        "every executed task leaves a span"
    );
}

/// The observers of a run — the recorder in each of its three modes and
/// the checkpoint plane (writing snapshots, never halting) — in all six
/// combinations: on the deterministic executor none of them may change
/// what the run does, so metrics, latencies and output bytes equal the
/// dark run's.
#[test]
fn instruments_do_not_perturb_sim_results() {
    let d = data();
    let mut c = cfg(DispatchPolicy::Balanced);
    c.collect_output = true;
    let dir = std::env::temp_dir().join(format!("tvs-perturb-{}", std::process::id()));
    let observed = |recorder: &Recorder, checkpoint: bool| {
        let mut c = c.clone();
        if checkpoint {
            // Every 4 of the 16 blocks, so snapshots are really built (the
            // disk write is asynchronous and detached on completion).
            c.checkpoint = Some(CheckpointConfig::new(4, &dir));
        }
        let mut run = HuffmanRun::sim(&d, &c, &x86_smp(8), &ARRIVAL);
        run.instruments.recorder = recorder.clone();
        let report = run_huffman(&run).expect("nothing injected, nothing fails");
        let enabled = recorder.is_enabled();
        assert_eq!(report.log.is_some(), enabled, "a log iff rings are on");
        report.end.into_outcome()
    };
    let dark = observed(&Recorder::disabled(), false);
    for checkpoint in [false, true] {
        let modes: [fn(usize) -> Recorder; 3] = [
            |_| Recorder::disabled(),
            Recorder::counters,
            Recorder::enabled,
        ];
        for (mode, recorder) in modes.iter().enumerate() {
            let out = observed(&recorder(8), checkpoint);
            let what = format!("recorder mode {mode}, checkpoint {checkpoint}");
            assert_eq!(out.metrics, dark.metrics, "{what}");
            assert_eq!(out.latencies(), dark.latencies(), "{what}");
            assert_eq!(out.result.output, dark.result.output, "{what}");
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}
