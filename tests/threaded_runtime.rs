//! The real thread-pool executor: correctness under actual concurrency.

use std::collections::BTreeMap;
use tvs_huffman::{decode_exact, serial_encode, CodeTable, EncodedBlock};
use tvs_iosim::{ArrivalModel, Uniform};
use tvs_metrics::{Counter, Hist, Recorder};
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::huffman::HuffmanWorkload;
use tvs_pipelines::runner::{run_huffman, schedule_blocks, HuffmanRun, RunOutcome};
use tvs_sre::exec::threaded::{self, ThreadedConfig};
use tvs_sre::task::{payload, TaskSpec};
use tvs_sre::workload::{Completion, InputBlock, SchedCtx, Workload};
use tvs_sre::{DispatchPolicy, Instruments, Platform, RunError};
use tvs_workloads::FileKind;

/// Dark simulator run that must complete.
fn sim_outcome(
    data: &[u8],
    cfg: &HuffmanConfig,
    platform: &Platform,
    arrival: &dyn ArrivalModel,
) -> RunOutcome {
    let report = run_huffman(&HuffmanRun::sim(data, cfg, platform, arrival));
    report.expect("a dark run cannot fail").end.into_outcome()
}

/// Dark threaded run that must complete.
fn threaded_outcome(
    data: &[u8],
    cfg: &HuffmanConfig,
    workers: usize,
    arrival: &dyn ArrivalModel,
    time_scale: u64,
) -> RunOutcome {
    let report = run_huffman(&HuffmanRun::threaded(
        data, cfg, workers, arrival, time_scale,
    ));
    report.expect("a dark run cannot fail").end.into_outcome()
}

fn small_cfg(policy: DispatchPolicy) -> HuffmanConfig {
    HuffmanConfig {
        block_bytes: 2048,
        reduce_ratio: 4,
        offset_fanout: 8,
        collect_output: true,
        ..HuffmanConfig::disk_x86(policy)
    }
}

fn check_output(data: &[u8], result: &tvs_pipelines::PipelineResult) {
    let (bytes, bits, lengths) = result.output.as_ref().expect("collected");
    let table = CodeTable::from_lengths(lengths);
    let decoded = decode_exact(bytes, 0, *bits, data.len(), &table).expect("decodes");
    assert_eq!(decoded, data);
}

#[test]
fn threaded_non_spec_matches_serial() {
    let data = tvs_workloads::generate(FileKind::Text, 256 * 1024, 21);
    let out = threaded_outcome(
        &data,
        &small_cfg(DispatchPolicy::NonSpeculative),
        4,
        &Uniform {
            gap_us: 0,
            start_us: 0,
        },
        1,
    );
    check_output(&data, &out.result);
    let serial = serial_encode(&data).unwrap();
    assert_eq!(out.result.compressed_bits, serial.bit_len);
}

#[test]
fn threaded_speculative_commits_and_decodes() {
    let data = tvs_workloads::generate(FileKind::Text, 256 * 1024, 22);
    let out = threaded_outcome(
        &data,
        &small_cfg(DispatchPolicy::Balanced),
        4,
        &Uniform {
            gap_us: 50,
            start_us: 0,
        },
        1,
    );
    check_output(&data, &out.result);
    assert!(out.result.spec_stats.is_some());
}

#[test]
fn threaded_rollbacks_are_safe() {
    // Drifting data under aggressive speculation with full verification:
    // rollbacks race real in-flight tasks.
    let mut data = vec![b'x'; 128 * 1024];
    data.extend((0..128 * 1024u32).map(|i| 128 + (i % 100) as u8));
    let mut cfg = small_cfg(DispatchPolicy::Aggressive);
    cfg.verification = tvs_core::VerificationPolicy::Full;
    cfg.schedule = tvs_core::SpeculationSchedule::with_step(1);
    let out = threaded_outcome(
        &data,
        &cfg,
        8,
        &Uniform {
            gap_us: 20,
            start_us: 0,
        },
        1,
    );
    check_output(&data, &out.result);
    assert_eq!(out.result.blocks.len(), 128);
}

#[test]
fn threaded_repeated_runs_converge_to_same_content() {
    // Scheduling is nondeterministic; committed content must not be.
    let data = tvs_workloads::generate(FileKind::Bmp, 128 * 1024, 23);
    let mut sizes = std::collections::HashSet::new();
    for _ in 0..3 {
        let out = threaded_outcome(
            &data,
            &small_cfg(DispatchPolicy::NonSpeculative),
            4,
            &Uniform {
                gap_us: 0,
                start_us: 0,
            },
            1,
        );
        check_output(&data, &out.result);
        sizes.insert(out.result.compressed_bits);
    }
    assert_eq!(
        sizes.len(),
        1,
        "non-speculative content must be identical across runs"
    );
}

/// 128 KiB of one byte, then 128 KiB cycling through 100 others: a prefix
/// that is nothing like the whole. With `sampled_like_prefix`, every
/// fourth 2 KiB block of the second half — the blocks a spread sample of
/// 32 takes there — keeps the first half's byte, so the sample is as blind
/// to the drift as the prefix.
fn drifting(sampled_like_prefix: bool) -> Vec<u8> {
    let mut data = vec![b'x'; 128 * 1024];
    data.extend((0..128 * 1024u32).map(|i| match i / 2048 {
        b if sampled_like_prefix && b % 4 == 0 => b'x',
        _ => 128 + (i % 100) as u8,
    }));
    data
}

#[test]
fn a_rolled_back_run_commits_the_simulators_tree_whatever_the_schedule() {
    // Drifting input, every block due at t = 0, a check after every
    // reduce: first-version checks, the promoted candidates' checks, the
    // reduce chain and the final tree all race on real threads. The
    // workload shows them to the speculation manager in one canonical
    // order, so the committed stream is the simulator's, byte for byte.
    // The blocks a spread sample takes carry no drift, so the first
    // version mispredicts as the prefix would.
    let data = drifting(true);
    let mut cfg = small_cfg(DispatchPolicy::Balanced);
    cfg.verification = tvs_core::VerificationPolicy::Full;
    cfg.schedule = tvs_core::SpeculationSchedule::with_step(1);
    let at_once = Uniform {
        gap_us: 0,
        start_us: 0,
    };
    let sim = sim_outcome(&data, &cfg, &tvs_sre::x86_smp(8), &at_once);
    assert!(sim.metrics.rollbacks > 0, "the input must mispredict");
    for workers in [1, 2, 4, 8] {
        for _ in 0..5 {
            let out = threaded_outcome(&data, &cfg, workers, &at_once, 1);
            assert_eq!(
                out.result.spec_stats, sim.result.spec_stats,
                "{workers} workers: the manager saw a different history"
            );
            assert!(
                out.result.output == sim.result.output,
                "{workers} workers: committed stream differs from the simulator's"
            );
        }
    }
}

#[test]
fn a_spread_prediction_of_an_input_due_at_once_commits_its_first_version() {
    // The drifting input above, every block due at t = 0, checked after
    // every reduce: the spread sample sees both halves, so the first
    // version passes every check, and the stream is the simulator's on
    // any number of threads.
    let data = drifting(false);
    let mut cfg = small_cfg(DispatchPolicy::Balanced);
    cfg.verification = tvs_core::VerificationPolicy::Full;
    cfg.schedule = tvs_core::SpeculationSchedule::with_step(1);
    let at_once = Uniform {
        gap_us: 0,
        start_us: 0,
    };
    let sim = sim_outcome(&data, &cfg, &tvs_sre::x86_smp(8), &at_once);
    let stats = sim.result.spec_stats.expect("a speculative run");
    assert_eq!((stats.predictions, stats.rollbacks), (1, 0), "{stats:?}");
    check_output(&data, &sim.result);
    let serial = serial_encode(&data).expect("non-empty").bit_len as f64;
    let bits = sim.result.compressed_bits as f64;
    assert!(
        bits <= serial * (1.0 + cfg.tolerance.margin),
        "{bits} bits against the serial codec's {serial}"
    );
    for workers in [1, 2, 4, 8] {
        for _ in 0..5 {
            let out = threaded_outcome(&data, &cfg, workers, &at_once, 1);
            assert_eq!(
                out.result.spec_stats, sim.result.spec_stats,
                "{workers} workers: the manager saw a different history"
            );
            assert!(
                out.result.output == sim.result.output,
                "{workers} workers: committed stream differs from the simulator's"
            );
        }
    }
}

#[test]
fn worker_counts_from_one_to_sixteen() {
    let data = tvs_workloads::generate(FileKind::Text, 64 * 1024, 24);
    for workers in [1usize, 2, 16] {
        let out = threaded_outcome(
            &data,
            &small_cfg(DispatchPolicy::Balanced),
            workers,
            &Uniform {
                gap_us: 0,
                start_us: 0,
            },
            1,
        );
        check_output(&data, &out.result);
        assert_eq!(out.metrics.workers, workers);
    }
}

#[test]
fn raw_executor_api_with_custom_feeder() {
    // Drive the executor directly (no runner sugar): the feeder paces the
    // same due-time list the simulator takes.
    let data = tvs_workloads::generate(FileKind::Pdf, 64 * 1024, 25);
    let cfg = small_cfg(DispatchPolicy::Balanced);
    let wl = HuffmanWorkload::new(cfg.clone(), data.len());
    let every_100us = Uniform {
        gap_us: 100,
        start_us: 0,
    };
    let (blocks, _) = schedule_blocks(data.len(), cfg.block_bytes, &every_100us);
    let tcfg = ThreadedConfig::new(4);
    let ins = Instruments::default();
    let (wl, metrics) =
        threaded::run(wl, &tcfg, cfg.policy, &data, blocks, &ins).expect("a dark run cannot fail");
    let result = wl.result();
    check_output(&data, &result);
    assert!(metrics.tasks_delivered > 0);
    assert!(metrics.busy_us > 0);
}

#[test]
fn rollback_finds_first_version_work_still_outstanding() {
    // 4 MB drifting input, every block due at t = 0: the prefix mispredicts
    // and one rollback re-encodes the stream. Checks run at highest
    // priority so that the failed one is *acted on* while first-version
    // encodes are still ready or running. If completions queue behind the
    // workers instead of being routed where they finish, the rollback
    // arrives after every first-version encode is done: every block encoded
    // under the first version, none of its work deleted or discarded.
    // Counted in blocks, not tasks: one encode task covers a whole chunk.
    struct EncodedBlocks {
        inner: HuffmanWorkload,
        /// Blocks of each version's delivered encodes (0 for a version
        /// that delivered only its prediction).
        by_version: BTreeMap<Option<u32>, usize>,
    }
    impl Workload for EncodedBlocks {
        fn on_input(&mut self, ctx: &mut dyn SchedCtx, block: InputBlock) {
            self.inner.on_input(ctx, block);
        }
        fn on_input_batch(&mut self, ctx: &mut dyn SchedCtx, batch: Vec<InputBlock>) {
            self.inner.on_input_batch(ctx, batch);
        }
        fn on_complete(&mut self, ctx: &mut dyn SchedCtx, done: Completion) {
            let blocks = done
                .output
                .downcast_ref::<(usize, Vec<EncodedBlock>)>()
                .map_or(0, |(_, blocks)| blocks.len());
            *self.by_version.entry(done.version).or_default() += blocks;
            self.inner.on_complete(ctx, done);
        }
        fn is_finished(&self) -> bool {
            self.inner.is_finished()
        }
    }
    let data = tvs_workloads::generate_paper_sized(FileKind::Pdf, 7);
    let cfg = HuffmanConfig::disk_x86(DispatchPolicy::Balanced);
    let n_blocks = data.len().div_ceil(cfg.block_bytes);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let at_once = Uniform {
        gap_us: 0,
        start_us: 0,
    };
    let (blocks, _) = schedule_blocks(data.len(), cfg.block_bytes, &at_once);
    let wl = EncodedBlocks {
        inner: HuffmanWorkload::new(cfg.clone(), data.len()),
        by_version: BTreeMap::new(),
    };
    let tcfg = ThreadedConfig::new(workers);
    let ins = Instruments::default();
    let (wl, m) = threaded::run(wl, &tcfg, cfg.policy, &data, blocks, &ins)
        .expect("nothing injected, nothing fails");
    assert!(m.rollbacks >= 1, "the input must mispredict");
    let first = *wl
        .by_version
        .keys()
        .find(|v| v.is_some())
        .expect("a version was predicted");
    let encoded = wl.by_version[&first];
    assert!(
        encoded < n_blocks,
        "rollback came after all first-version work: version {first:?} encoded all {n_blocks} \
         blocks ({} tasks deleted, {} discarded)",
        m.tasks_deleted_ready,
        m.tasks_discarded
    );
    assert_eq!(wl.inner.result().blocks.len(), n_blocks);
}

/// `len` tasks in one serial chain: each is spawned from the previous one's
/// `on_complete`, so every hop needs its report routed before anything else
/// can run.
struct Chain {
    len: u64,
    done: u64,
    /// Link whose `on_complete` panics (`u64::MAX`: none).
    panic_at: u64,
}

impl Chain {
    fn link(ctx: &mut dyn SchedCtx, i: u64) {
        ctx.spawn(TaskSpec::regular("link", 0, 0, i, move |_| payload(i)));
    }
}

impl Workload for Chain {
    fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
        Chain::link(ctx, 0);
    }
    fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {}
    fn on_complete(&mut self, ctx: &mut dyn SchedCtx, done: Completion) {
        assert_eq!(done.tag, self.done, "links complete in order");
        assert!(done.tag != self.panic_at, "injected callback panic");
        self.done += 1;
        if self.done < self.len {
            Chain::link(ctx, self.done);
        }
    }
    fn is_finished(&self) -> bool {
        self.done == self.len
    }
}

/// CPU time the hypervisor withheld from this machine so far, in clock
/// ticks (`/proc/stat`, first line, 8th value); `None` where there is none.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

#[test]
fn no_completion_report_is_ever_stranded() {
    // A stranded report (pushed while the commit lock was busy, then never
    // picked up) is only rescued by the parkers' 100 ms timeout: some
    // worker naps that long *and* the report waits that long to be routed.
    // Either alone also happens on a loaded box — an idle worker naps
    // through a run that was descheduled, a worker loses the CPU between
    // finishing a task and routing it — so a run fails on both together,
    // and not when the hypervisor took the CPUs away meanwhile (this runs
    // in a shared VM whose vCPUs freeze for ~100 ms at a time under load).
    const RUNS: usize = 1_000;
    for workers in [1usize, 2, 4] {
        let cfg = ThreadedConfig::new(workers);
        for run in 0..RUNS {
            let chain = Chain {
                len: 12,
                done: 0,
                panic_at: u64::MAX,
            };
            let hub = Recorder::enabled(workers);
            let stolen = steal_ticks();
            let (chain, m) = threaded::run(
                chain,
                &cfg,
                DispatchPolicy::NonSpeculative,
                &[],
                Vec::new(),
                &Instruments::recorded(hub.clone()),
            )
            .expect("chain completes");
            assert_eq!((chain.done, m.tasks_delivered), (12, 12));
            let snap = hub.snapshot().expect("live hub");
            let longest_nap_us = snap.hist(Hist::IdleSliceUs).quantile(1.0);
            let waited_us = hub.counter_total(Counter::TimeRouterWaitUs);
            assert!(
                longest_nap_us < 65_536 || waited_us < 50_000 || steal_ticks() != stolen,
                "{workers} workers, run {run}: a worker slept {longest_nap_us} µs (log bucket \
                 bound) while reports waited {waited_us} µs to be routed — the park timeout \
                 rescued a stranded report"
            );
        }
    }
}

#[test]
fn panicking_workload_callback_fails_the_run_with_a_structured_error() {
    // `on_complete` now runs on whichever thread holds the commit lock —
    // usually a worker. Its panic must not kill that worker with the lock
    // poisoned and the run hanging: it ends the run with a RunError.
    for workers in [1usize, 3] {
        let chain = Chain {
            len: 8,
            done: 0,
            panic_at: 3,
        };
        let cfg = ThreadedConfig::new(workers);
        let no_input = Vec::new();
        let Err(err) = threaded::run(
            chain,
            &cfg,
            DispatchPolicy::NonSpeculative,
            &[],
            no_input,
            &Instruments::default(),
        ) else {
            panic!("a panicking callback must fail the run");
        };
        assert!(matches!(err, RunError::WorkerLost { .. }), "got {err}");
    }
}
