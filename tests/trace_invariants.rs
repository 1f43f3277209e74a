//! Cross-executor speculation-lifecycle invariants: whatever executor ran
//! the pipeline, the drained event log must agree with the run's
//! [`RunMetrics`], every opened version must resolve exactly once, and
//! enabling tracing must not change the run's results.

use std::collections::HashMap;
use tvs_core::CheckpointConfig;
use tvs_iosim::Uniform;
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::runner::{run_huffman, HuffmanRun, RunOutcome};
use tvs_sre::{x86_smp, DispatchPolicy, MetricsHub, RunMetrics, TraceLog, Tracer};
use tvs_trace::EventKind;
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
    run.instruments.tracer = Tracer::enabled(workers);
    let report = run_huffman(&run).expect("nothing injected, nothing fails");
    let log = report.log.expect("enabled tracer drains");
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

/// The three observers of a run — event log, live metrics hub, checkpoint
/// plane (writing snapshots, never halting) — in all eight combinations:
/// on the deterministic executor none of them may change what the run
/// does, so metrics, latencies and output bytes equal the dark run's.
#[test]
fn instruments_do_not_perturb_sim_results() {
    let d = data();
    let mut c = cfg(DispatchPolicy::Balanced);
    c.collect_output = true;
    let dir = std::env::temp_dir().join(format!("tvs-perturb-{}", std::process::id()));
    let observed = |tracer: bool, hub: bool, checkpoint: bool| {
        let mut c = c.clone();
        if checkpoint {
            // Every 4 of the 16 blocks, so snapshots are really built (the
            // disk write is asynchronous and detached on completion).
            c.checkpoint = Some(CheckpointConfig::new(4, &dir));
        }
        let mut run = HuffmanRun::sim(&d, &c, &x86_smp(8), &ARRIVAL);
        if tracer {
            run.instruments.tracer = Tracer::enabled(8);
        }
        if hub {
            run.instruments.metrics = MetricsHub::enabled(8);
        }
        let report = run_huffman(&run).expect("nothing injected, nothing fails");
        assert_eq!(report.log.is_some(), tracer, "a log iff the tracer is on");
        report.end.into_outcome()
    };
    let dark = observed(false, false, false);
    for combo in 1..8u8 {
        let (tracer, hub, checkpoint) = (combo & 1 != 0, combo & 2 != 0, combo & 4 != 0);
        let out = observed(tracer, hub, checkpoint);
        let what = format!("tracer {tracer}, hub {hub}, checkpoint {checkpoint}");
        assert_eq!(out.metrics, dark.metrics, "{what}");
        assert_eq!(out.latencies(), dark.latencies(), "{what}");
        assert_eq!(out.result.output, dark.result.output, "{what}");
    }
    let _ = std::fs::remove_dir_all(dir);
}
