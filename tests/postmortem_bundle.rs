//! Flight-recorder acceptance tests.
//!
//! A forced degraded run (fixed seed, simulator and real threads)
//! must produce a post-mortem bundle from which the offline loader
//! deterministically reconstructs the complete rollback cascade tree,
//! with per-lineage wasted-µs totals equal to the aggregate
//! `SpecHealth::wasted_us`. The simulator's bundle must additionally be
//! byte-identical across captures, and the always-on crash hook must
//! dump a bundle when a traced run dies with a structured `RunError` —
//! whichever executor, checkpointed, resumed or neither: no path panics.

use std::path::{Path, PathBuf};
use tvs_core::{
    CheckpointConfig, DegradeConfig, SpeculationSchedule, Tolerance, VerificationPolicy,
};
use tvs_iosim::Uniform;
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::postmortem::{self, BundleMeta, Trigger};
use tvs_pipelines::runner::{run_huffman, Executor, HuffmanRun, RunFailure};
use tvs_sre::{
    x86_smp, DispatchPolicy, FaultInjector, FaultKind, FaultPlan, FaultSite, Instruments, Recorder,
    RunError, TraceLog,
};

/// The event log of a run that must complete.
fn events(mut run: HuffmanRun, workers: usize) -> TraceLog {
    run.instruments.recorder = Recorder::enabled(workers);
    let report = run_huffman(&run).expect("nothing injected, nothing fails");
    report.log.expect("enabled recorder drains")
}

/// The adversarial scenario shared by `tvs-chaos` and `tvs-report`:
/// continuously drifting input, zero tolerance, a tight degradation
/// window — every prediction mispredicts.
fn degrading_cfg() -> HuffmanConfig {
    let mut c = HuffmanConfig::disk_x86(DispatchPolicy::Aggressive);
    c.block_bytes = 1024;
    c.reduce_ratio = 4;
    c.offset_fanout = 4;
    c.schedule = SpeculationSchedule::with_step(1);
    c.verification = VerificationPolicy::Full;
    c.tolerance = Tolerance { margin: 0.0 };
    c.degrade = Some(DegradeConfig {
        window: 4,
        trip_ratio: 0.5,
        clean_windows: 2,
        cooldown: 1_000,
    });
    c
}

fn drifting() -> Vec<u8> {
    (0..32 * 1024usize)
        .map(|i| ((i / 1024) * 7 + i % 13) as u8)
        .collect()
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tvs-pm-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn sim_breaker_trip_bundle_is_byte_deterministic() {
    let data = drifting();
    let cfg = degrading_cfg();
    let slow = Uniform {
        gap_us: 100,
        start_us: 0,
    };
    let capture = |root: &PathBuf| {
        let log = events(HuffmanRun::sim(&data, &cfg, &x86_smp(8), &slow), 8);
        assert!(log.count("degrade-step") >= 2, "scenario must degrade");
        let meta = BundleMeta::for_log(Trigger::Degraded, 2011, "aggressive", &log, None);
        postmortem::write_bundle(root, &meta, &log, &[]).expect("bundle writes")
    };
    let (da, db) = (tmp_dir("sim-a"), tmp_dir("sim-b"));
    let (a, b) = (capture(&da), capture(&db));
    // The reconstruction inputs are byte-identical across captures of
    // the same seeded crash. (The raw trace members also carry wall-µs
    // stamps — real time even under the simulator — so only the
    // virtual-time members can be compared bytewise.)
    for member in ["MANIFEST.json", "lineage.csv"] {
        let ba = std::fs::read(a.join(member)).expect(member);
        let bb = std::fs::read(b.join(member)).expect(member);
        assert_eq!(ba, bb, "{member} must be byte-identical across captures");
    }
    let ba = postmortem::load_bundle(&a).expect("first bundle reloads");
    let bb = postmortem::load_bundle(&b).expect("second bundle reloads");
    assert_eq!(
        ba.lineage.render_tree(),
        bb.lineage.render_tree(),
        "two captures reconstruct the same cascade forest"
    );
    // The offline reconstruction conserves the live aggregate and
    // renders the same cascade forest as the in-memory join.
    let log = events(HuffmanRun::sim(&data, &cfg, &x86_smp(8), &slow), 8);
    let bundle = postmortem::load_bundle(&a).expect("bundle reloads");
    bundle.check().expect("conservation holds");
    assert_eq!(bundle.meta.wasted_us, log.health().wasted_us);
    assert_eq!(bundle.lineage.render_tree(), log.lineage().render_tree());
    assert!(
        !bundle.lineage.render_tree().is_empty(),
        "a degrading run opens at least one lineage"
    );
    let _ = std::fs::remove_dir_all(da);
    let _ = std::fs::remove_dir_all(db);
}

#[test]
fn threaded_breaker_trip_bundle_reconstructs_the_cascade() {
    let data = drifting();
    let cfg = degrading_cfg();
    let slow = Uniform {
        gap_us: 100,
        start_us: 0,
    };
    let log = events(HuffmanRun::threaded(&data, &cfg, 4, &slow, 1000), 4);
    let meta = BundleMeta::for_log(Trigger::Degraded, 2012, "aggressive", &log, None);
    let root = tmp_dir("threaded");
    let path = postmortem::write_bundle(&root, &meta, &log, &[]).expect("bundle writes");
    let bundle = postmortem::load_bundle(&path).expect("bundle reloads");
    bundle.check().expect("conservation holds");
    assert_eq!(bundle.meta.timebase, "wall-us");
    assert_eq!(bundle.lineage.render_tree(), log.lineage().render_tree());
    // Reloading is itself deterministic: two loads render identically.
    let again = postmortem::load_bundle(&path).expect("bundle reloads twice");
    assert_eq!(
        again.lineage.render_tree(),
        bundle.lineage.render_tree(),
        "offline reconstruction is stable"
    );
    let _ = std::fs::remove_dir_all(root);
}

/// Injected panics are recovered state, not test noise.
fn quiet_injected_panics() {
    std::panic::set_hook(Box::new(|info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| info.payload().downcast_ref::<String>().map(String::as_str))
            .unwrap_or("<non-string panic>");
        if !msg.contains("injected") {
            eprintln!("panic: {msg} ({:?})", info.location());
        }
    }));
}

/// `run` with the event log on and every task body panicking once, retry
/// forbidden: the first non-speculative fault is terminal. The run must
/// die with a structured error — never a panic — and the always-on crash
/// hook must leave a reloadable bundle filed under the plan's `seed`.
fn assert_dies_with_a_bundle(mut run: HuffmanRun, workers: usize, seed: u64, root: &Path) {
    let plan = FaultPlan::new(seed).with_rule(FaultSite::TaskBody, FaultKind::PanicTask, 1.0);
    run.instruments = Instruments {
        recorder: Recorder::enabled(workers),
        faults: FaultInjector::new(plan),
    };
    match &mut run.on {
        Executor::Sim { cfg } => cfg.max_attempts = 1,
        Executor::Threaded { cfg, .. } => cfg.max_attempts = 1,
    }
    let err = run_huffman(&run).expect_err("all-panic plan must fail the run");
    assert!(
        matches!(err, RunFailure::Run(RunError::TaskFailed { .. })),
        "seed {seed}: got {err}"
    );
    let bundle = postmortem::load_bundle(&root.join(format!("postmortem_dev_{seed}")))
        .expect("crash hook must have written a reloadable bundle");
    assert_eq!(bundle.meta.trigger, Trigger::RunError);
    assert_eq!(bundle.meta.seed, seed);
    assert!(bundle.meta.error.is_some(), "structured error is recorded");
    bundle.check().expect("conservation holds");
}

#[test]
fn run_error_crash_hook_dumps_a_bundle() {
    quiet_injected_panics();
    let root = tmp_dir("crash-hook");
    std::env::set_var("TVS_RESULTS_DIR", &root);
    let cfg = HuffmanConfig::disk_x86(DispatchPolicy::Balanced);
    let arrival = Uniform {
        gap_us: 2,
        start_us: 0,
    };
    let data: Vec<u8> = (0..16 * 1024).map(|i| (i % 251) as u8).collect();
    let sim = HuffmanRun::sim(&data, &cfg, &x86_smp(4), &arrival);
    assert_dies_with_a_bundle(sim, 4, 77, &root);

    // No path may panic where another returns the error: the same plan on
    // real threads, plain, checkpointed, and resumed from a snapshot (the
    // parent's checkpointed and resumed threaded paths panicked on it, and
    // could not be traced or fault-injected at all).
    let plain = HuffmanRun::threaded(&data, &cfg, 2, &arrival, 1000);
    assert_dies_with_a_bundle(plain, 2, 78, &root);
    let dir = tmp_dir("crash-hook-ckpt");
    let mut ckpt = cfg.clone();
    ckpt.checkpoint = Some(CheckpointConfig {
        every_blocks: 1,
        dir: dir.clone(),
        halt_at_block: Some(2),
    });
    let checkpointed = || HuffmanRun::threaded(&data, &ckpt, 2, &arrival, 1000);
    assert_dies_with_a_bundle(checkpointed(), 2, 79, &root);
    let halted = run_huffman(&checkpointed()).expect("clean run halts");
    let snap = halted.end.into_snapshot();
    let resumed = HuffmanRun {
        resume: Some(&snap),
        ..checkpointed()
    };
    assert_dies_with_a_bundle(resumed, 2, 80, &root);

    std::env::remove_var("TVS_RESULTS_DIR");
    let _ = std::fs::remove_dir_all(root);
    let _ = std::fs::remove_dir_all(dir);
}
