//! Run harness, one way in: [`run_huffman`] takes a [`HuffmanRun`] — input,
//! configuration, arrival model, executor, [`Instruments`], optionally a
//! snapshot to resume from — and does the five steps of every run exactly
//! once (bind the input, build the workload, wrap it in the replication
//! plane, run, assemble the [`HuffmanReport`]), so no combination of them
//! can panic where another returns an error.

use crate::config::HuffmanConfig;
use crate::cost::HuffmanCost;
use crate::huffman::{digest_output, HuffmanWorkload, PipelineResult};
use crate::postmortem;
use std::sync::Arc;
use tvs_core::checkpoint::input_digest;
use tvs_core::{ReplicaStats, ReplicatingWorkload, ResumeError, StreamSnapshot};
use tvs_iosim::ArrivalModel;
use tvs_sre::exec::sim::{self, SimConfig};
use tvs_sre::exec::threaded::{self, ThreadedConfig};
use tvs_sre::{InputBlock, Instruments, Platform, RunError, RunMetrics, TraceLog};

mod seam;
pub use seam::{
    run_huffman_threaded, run_huffman_threaded_checkpointed, run_huffman_threaded_events,
    run_huffman_threaded_metered,
};

/// Seed of the replication plane's ordinary-task sampler: fixed, so two
/// runs of one configuration replicate the same tasks.
const SDC_SEED: u64 = 0x5DC0_11A7;

/// Everything a figure needs from one run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Application-level results (per-block latency, compression, …).
    pub result: PipelineResult,
    /// Runtime-level metrics (makespan, waste, rollbacks, …).
    pub metrics: RunMetrics,
    /// Arrival schedule used (µs per block), for Fig. 7's arrival series.
    pub arrivals: Vec<u64>,
}

impl RunOutcome {
    /// Per-element latency series, µs (the paper's main criterion).
    pub fn latencies(&self) -> Vec<u64> {
        self.result.blocks.iter().map(|b| b.latency()).collect()
    }

    /// Mean per-element latency, µs.
    pub fn mean_latency(&self) -> f64 {
        self.result.mean_latency()
    }

    /// Completion time, µs.
    pub fn completion_time(&self) -> u64 {
        self.metrics.makespan
    }
}

/// Cut an input of `len` bytes into `block_bytes` blocks — ranges of the
/// input, every one `block_bytes` long but the last — with arrival times
/// from `arrival`. The one place a run's input is cut into blocks; no byte
/// is copied.
pub fn schedule_blocks(
    len: usize,
    block_bytes: usize,
    arrival: &dyn ArrivalModel,
) -> (Vec<InputBlock>, Vec<u64>) {
    let n = len.div_ceil(block_bytes);
    let times = arrival.schedule(n, block_bytes);
    let blocks = times
        .iter()
        .enumerate()
        .map(|(index, &arrival)| {
            let start = index * block_bytes;
            let bytes = start..(start + block_bytes).min(len);
            InputBlock {
                index,
                arrival,
                bytes,
            }
        })
        .collect();
    (blocks, times)
}

/// How a run ended: completion, or a halt at the configured block with the
/// snapshot that resumes it.
#[derive(Debug, Clone)]
pub enum CheckpointedRun {
    /// The run finished; the final snapshot (if any) is on disk.
    Completed(Box<RunOutcome>),
    /// The run stopped at [`tvs_core::CheckpointConfig::halt_at_block`];
    /// pass this snapshot as [`HuffmanRun::resume`] to finish the stream.
    Halted(Box<StreamSnapshot>),
}

impl CheckpointedRun {
    /// The halt snapshot, or a panic for completed runs (test helper).
    pub fn into_snapshot(self) -> StreamSnapshot {
        match self {
            CheckpointedRun::Halted(s) => *s,
            CheckpointedRun::Completed(_) => panic!("run completed instead of halting"),
        }
    }

    /// The completed outcome, or a panic for halted runs (test helper).
    pub fn into_outcome(self) -> RunOutcome {
        match self {
            CheckpointedRun::Completed(o) => *o,
            CheckpointedRun::Halted(_) => panic!("run halted instead of completing"),
        }
    }
}

/// The executor of a [`HuffmanRun`]. Its config's `max_attempts` /
/// `watchdog` / `supervisor` fields are a chaos run's recovery knobs; the
/// run dispatches under [`HuffmanConfig::policy`].
#[derive(Debug, Clone)]
pub enum Executor {
    /// The deterministic discrete-event executor, in virtual time.
    Sim {
        /// Platform model and fault handling.
        cfg: SimConfig,
    },
    /// Real threads on the wall clock.
    Threaded {
        /// Worker count and fault handling.
        cfg: ThreadedConfig,
        /// Arrivals are paced per the model compressed by this factor (so
        /// slow-I/O scenarios finish quickly in tests).
        time_scale: u64,
    },
}

/// One Huffman compress: the single argument of [`run_huffman`].
pub struct HuffmanRun<'a> {
    /// The input stream.
    pub data: &'a [u8],
    /// Policy, speculation, validation mode, checkpoint plane, ….
    pub cfg: &'a HuffmanConfig,
    /// When each block arrives.
    pub arrival: &'a dyn ArrivalModel,
    /// The executor.
    pub on: Executor,
    /// The recorder and fault injector every layer of the run shares; size
    /// an enabled recorder for the executor's worker count. For
    /// byte-deterministic snapshots of a simulator run, arm the recorder
    /// with `enable_virtual_sampling` beforehand.
    pub instruments: Instruments,
    /// Resume a killed run from its committed-prefix snapshot: it is checked
    /// against `data` and `cfg`, only blocks past the prefix are fed, and
    /// they are encoded with the snapshot's tree — byte-identical to an
    /// uninterrupted run.
    pub resume: Option<&'a StreamSnapshot>,
}

impl<'a> HuffmanRun<'a> {
    /// A dark, from-scratch run on the simulator's model of `platform`.
    pub fn sim(
        data: &'a [u8],
        cfg: &'a HuffmanConfig,
        platform: &Platform,
        arrival: &'a dyn ArrivalModel,
    ) -> Self {
        HuffmanRun {
            data,
            cfg,
            arrival,
            on: Executor::Sim {
                cfg: SimConfig::new(platform.clone()),
            },
            instruments: Instruments::default(),
            resume: None,
        }
    }

    /// A dark, from-scratch run on `workers` real threads.
    pub fn threaded(
        data: &'a [u8],
        cfg: &'a HuffmanConfig,
        workers: usize,
        arrival: &'a dyn ArrivalModel,
        time_scale: u64,
    ) -> Self {
        let on = Executor::Threaded {
            cfg: ThreadedConfig::new(workers),
            time_scale,
        };
        HuffmanRun {
            data,
            cfg,
            arrival,
            on,
            instruments: Instruments::default(),
            resume: None,
        }
    }
}

/// What [`run_huffman`] returns for a run that did not fail.
#[derive(Debug, Clone)]
pub struct HuffmanReport {
    /// The outcome, or the snapshot its checkpoint plane halted the run at.
    pub end: CheckpointedRun,
    /// The speculation-lifecycle event log, drained iff the run's recorder
    /// was enabled; its label is the policy's.
    pub log: Option<TraceLog>,
    /// The replication plane's counters (zero under `Tolerance`).
    pub replica: ReplicaStats,
}

/// Why [`run_huffman`] could not produce a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunFailure {
    /// The executor could not complete the run.
    Run(RunError),
    /// The snapshot to resume from belongs to another input or
    /// configuration, or is structurally unusable.
    Resume(ResumeError),
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunFailure::Run(e) => e.fmt(f),
            RunFailure::Resume(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RunFailure {}

impl From<ResumeError> for RunFailure {
    fn from(e: ResumeError) -> Self {
        RunFailure::Resume(e)
    }
}

/// Run the Huffman pipeline as `run` describes. A rejected snapshot or a
/// run that bounded retries cannot save is a structured [`RunFailure`],
/// never a panic; the latter, when the recorder is enabled, also leaves a
/// post-mortem bundle (see [`postmortem`]).
pub fn run_huffman(run: &HuffmanRun<'_>) -> Result<HuffmanReport, RunFailure> {
    let (data, cfg, ins) = (run.data, run.cfg, &run.instruments);
    // Snapshots are bound to the bytes they belong to; a run that neither
    // writes nor reads one does not pay for the digest.
    let digest = if cfg.checkpoint.is_some() || run.resume.is_some() {
        input_digest(data)
    } else {
        0
    };
    let wl = match run.resume {
        Some(snap) => {
            snap.check_matches(cfg.digest(), digest)?;
            HuffmanWorkload::resume(cfg.clone(), data.len(), snap, ins)?
        }
        None => HuffmanWorkload::instrumented(cfg.clone(), data.len(), digest, ins),
    };
    // A resumed run's committed prefix is not fed again.
    let skip_below = run.resume.map_or(0, |snap| snap.prefix as usize);
    // The replication validation plane, per `cfg.validation`: a strict
    // pass-through under the default `Tolerance`.
    let digest_fn = Arc::new(digest_output);
    let wl = ReplicatingWorkload::instrumented(wl, cfg.validation, SDC_SEED, digest_fn, ins);

    // Both executors take the same schedule; the threaded one paces it on
    // the wall clock, compressed.
    let (mut blocks, arrivals) = schedule_blocks(data.len(), cfg.block_bytes, run.arrival);
    blocks.retain(|b| b.index >= skip_below);
    let ran = match &run.on {
        Executor::Sim { cfg: sim } => {
            sim::run(wl, sim, cfg.policy, &HuffmanCost, data, blocks, ins)
        }
        Executor::Threaded {
            cfg: tcfg,
            time_scale,
        } => {
            for b in &mut blocks {
                b.arrival /= (*time_scale).max(1);
            }
            threaded::run(wl, tcfg, cfg.policy, data, blocks, ins)
        }
    };
    let (wl, metrics) = ran.map_err(|e| {
        // Crash hook: dump the flight-recorder state before the structured
        // error propagates.
        if let Some(log) = ins.recorder.drain() {
            let seed = ins.faults.seed().unwrap_or(0);
            let (trigger, policy) = (postmortem::Trigger::RunError, cfg.policy.label());
            postmortem::capture(trigger, seed, policy, &log, Some(e.to_string()));
        }
        RunFailure::Run(e)
    })?;

    let replica = wl.stats();
    let wl = wl.into_inner();
    let end = if wl.halted() {
        let snap = wl.snapshot().expect("halted run always built a snapshot");
        CheckpointedRun::Halted(Box::new(snap))
    } else {
        CheckpointedRun::Completed(Box::new(RunOutcome {
            result: wl.result(),
            metrics,
            arrivals,
        }))
    };
    Ok(HuffmanReport {
        end,
        log: ins.recorder.drain(),
        replica,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvs_iosim::Uniform;
    use tvs_sre::{x86_smp, DispatchPolicy, FaultInjector, FaultPlan, Recorder};

    fn data() -> Vec<u8> {
        (0..64 * 1024)
            .map(|i| b"streaming speculation"[i % 21])
            .collect()
    }

    fn cfg(policy: DispatchPolicy) -> HuffmanConfig {
        HuffmanConfig {
            collect_output: true,
            ..HuffmanConfig::disk_x86(policy)
        }
    }

    const GAP_2: Uniform = Uniform {
        gap_us: 2,
        start_us: 0,
    };
    const GAP_1: Uniform = Uniform {
        gap_us: 1,
        start_us: 0,
    };

    fn sim_outcome(d: &[u8], c: &HuffmanConfig, workers: usize, arrival: &Uniform) -> RunOutcome {
        run_huffman(&HuffmanRun::sim(d, c, &x86_smp(workers), arrival))
            .expect("dark sim run completes")
            .end
            .into_outcome()
    }

    /// `run` (on `workers` workers) with the event log on, under `faults`.
    fn events(
        mut run: HuffmanRun,
        workers: usize,
        faults: FaultInjector,
    ) -> (RunOutcome, TraceLog) {
        run.instruments = Instruments {
            recorder: Recorder::enabled(workers),
            faults,
        };
        let report = run_huffman(&run).expect("the run recovers");
        let log = report.log.expect("enabled recorder drains");
        (report.end.into_outcome(), log)
    }

    fn sim_events(
        d: &[u8],
        c: &HuffmanConfig,
        arrival: &Uniform,
        faults: FaultInjector,
    ) -> (RunOutcome, TraceLog) {
        events(HuffmanRun::sim(d, c, &x86_smp(8), arrival), 8, faults)
    }

    #[test]
    fn schedule_blocks_cuts_the_input_into_contiguous_ranges() {
        // Random lengths, plus 1 and exact multiples of the block size: the
        // ranges are ascending and contiguous, cover exactly `0..len`, and
        // every block but the last is `block_bytes` long. No input, no block.
        tvs_rng::cases(0x5C4E_D01E, 64, |rng, case| {
            let block_bytes = rng.random_range(1..5000usize);
            let n = rng.random_range(1..40usize);
            let lens = [
                1,
                block_bytes,
                n * block_bytes,
                rng.random_range(1..200_000usize),
            ];
            for len in lens {
                let (blocks, times) = schedule_blocks(len, block_bytes, &GAP_2);
                let what = format!("case {case}: {len} bytes in {block_bytes}-byte blocks");
                assert_eq!(blocks.len(), len.div_ceil(block_bytes), "{what}");
                assert_eq!(times, blocks.iter().map(|b| b.arrival).collect::<Vec<_>>());
                let mut at = 0;
                for (i, b) in blocks.iter().enumerate() {
                    assert_eq!((b.index, b.bytes.start), (i, at), "{what}: block {i}");
                    let last = i + 1 == blocks.len();
                    assert!(
                        !b.bytes.is_empty() && b.bytes.len() <= block_bytes,
                        "{what}"
                    );
                    assert!(last || b.bytes.len() == block_bytes, "{what}: block {i}");
                    at = b.bytes.end;
                }
                assert_eq!(at, len, "{what}: the blocks cover the input");
            }
        });
        let (blocks, times) = schedule_blocks(0, 4096, &GAP_2);
        assert!(blocks.is_empty() && times.is_empty());
    }

    #[test]
    fn sim_runner_end_to_end() {
        let out = sim_outcome(&data(), &cfg(DispatchPolicy::Balanced), 8, &GAP_2);
        assert_eq!(out.result.blocks.len(), 16);
        assert_eq!(out.arrivals.len(), 16);
        assert!(out.completion_time() > 0);
        assert!(out.mean_latency() > 0.0);
        assert_eq!(out.latencies().len(), 16);
    }

    #[test]
    fn sim_runner_is_deterministic() {
        let d = data();
        let arrival = Uniform {
            gap_us: 3,
            start_us: 1,
        };
        let c = cfg(DispatchPolicy::Aggressive);
        let a = sim_outcome(&d, &c, 8, &arrival);
        let b = sim_outcome(&d, &c, 8, &arrival);
        assert_eq!(a.latencies(), b.latencies());
        assert_eq!(a.completion_time(), b.completion_time());
        assert_eq!(a.result.compressed_bits, b.result.compressed_bits);
    }

    #[test]
    fn trace_capture_when_requested() {
        let (d, c) = (data(), cfg(DispatchPolicy::NonSpeculative));
        let run = HuffmanRun::sim(&d, &c, &x86_smp(4), &GAP_2);
        assert!(
            run_huffman(&run).unwrap().log.is_none(),
            "a dark run drains no event log"
        );
        let (_, log) = events(run, 4, FaultInjector::disabled());
        let spans = log.tasks();
        assert!(spans.iter().any(|t| t.name == "count"));
        assert!(spans.iter().any(|t| t.name == "encode"));
        assert!(spans.iter().any(|t| t.name == "tree"));
    }

    #[test]
    fn sim_event_log_covers_the_speculation_lifecycle() {
        let d = data();
        let mut c = cfg(DispatchPolicy::Aggressive);
        // Step 0: predict from the very first block, so this small input
        // exercises the full speculation lifecycle.
        c.schedule = tvs_core::SpeculationSchedule::with_step(0);
        let (out, log) = sim_events(&d, &c, &GAP_2, FaultInjector::disabled());
        assert_eq!(log.label, "aggressive");
        assert_eq!(log.workers, 8);
        let h = log.health();
        assert!(h.predictor_fires > 0, "aggressive policy predicts");
        assert!(h.versions_opened > 0);
        assert!(
            h.commits + h.rollbacks > 0,
            "every run ends in a commit or rollback"
        );
        assert_eq!(
            log.count("rollback") as u64,
            out.metrics.rollbacks,
            "trace rollbacks match RunMetrics"
        );
        // The traced run must not perturb results: rerun untraced.
        let plain = sim_outcome(&d, &c, 8, &GAP_2);
        assert_eq!(plain.metrics, out.metrics);
        assert_eq!(plain.latencies(), out.latencies());
    }

    #[test]
    fn threaded_event_log_records_task_spans() {
        let (d, c) = (data(), cfg(DispatchPolicy::Balanced));
        let run = HuffmanRun::threaded(&d, &c, 4, &GAP_1, 1000);
        let (out, log) = events(run, 4, FaultInjector::disabled());
        assert_eq!(log.label, "balanced");
        assert_eq!(log.count("task-end"), log.count("task-start"));
        assert_eq!(
            log.count("task-end") as u64,
            out.metrics.tasks_delivered + out.metrics.tasks_discarded,
            "every executed task leaves a span"
        );
        assert_eq!(
            log.count("rollback") as u64,
            out.metrics.rollbacks,
            "trace rollbacks match RunMetrics"
        );
    }

    fn decode_outcome(out: &RunOutcome, expected: &[u8]) {
        let (bytes, bits, lengths) = out.result.output.as_ref().expect("collected");
        let table = tvs_huffman::CodeTable::from_lengths(lengths);
        let back = tvs_huffman::decode_exact(bytes, 0, *bits, expected.len(), &table)
            .expect("stream decodes");
        assert_eq!(back, expected, "output must decode to the input");
    }

    #[test]
    fn sim_chaos_is_deterministic_and_output_decodes() {
        let d = data();
        let c = cfg(DispatchPolicy::Balanced);
        // A fresh injector per run: draw counters are part of run state.
        let run = |seed: u64| {
            let faults = FaultInjector::new(FaultPlan::chaos(seed));
            sim_events(&d, &c, &GAP_2, faults)
        };
        let (a, la) = run(42);
        let (b, lb) = run(42);
        assert_eq!(a.metrics, b.metrics, "chaos runs must be reproducible");
        assert_eq!(a.latencies(), b.latencies());
        assert_eq!(la.count("task-fault"), lb.count("task-fault"));
        decode_outcome(&a, &d);
        decode_outcome(&b, &d);
    }

    #[test]
    fn threaded_chaos_run_completes_with_correct_output() {
        let d = data();
        let c = cfg(DispatchPolicy::Balanced);
        // The chaos preset recovers through retry + rollback.
        let run = HuffmanRun::threaded(&d, &c, 4, &GAP_1, 1000);
        let (out, log) = events(run, 4, FaultInjector::new(FaultPlan::chaos(7)));
        decode_outcome(&out, &d);
        assert_eq!(
            log.count("task-fault") as u64,
            out.metrics.faults,
            "every caught fault leaves a trace event"
        );
    }

    #[test]
    fn breaker_trip_is_visible_in_the_event_log() {
        // The acceptance scenario: adversarial input on which every
        // prediction mispredicts. The run must demonstrably degrade to the
        // suspended level (`degrade-step` trace events) and still complete.
        let mut c = cfg(DispatchPolicy::Aggressive);
        c.block_bytes = 1024;
        c.reduce_ratio = 4;
        c.offset_fanout = 4;
        c.schedule = tvs_core::SpeculationSchedule::with_step(1);
        c.verification = tvs_core::VerificationPolicy::Full;
        c.tolerance = tvs_core::Tolerance { margin: 0.0 };
        c.degrade = Some(tvs_core::DegradeConfig {
            window: 4,
            trip_ratio: 0.5,
            clean_windows: 2,
            cooldown: 1_000,
        });
        // Continuously drifting input: every block shifts the byte
        // distribution, so every prediction is stale on arrival. Slow
        // arrivals keep checks resolving while their version is active.
        let d: Vec<u8> = (0..32 * 1024usize)
            .map(|i| ((i / 1024) * 7 + i % 13) as u8)
            .collect();
        let arrival = Uniform {
            gap_us: 100,
            start_us: 0,
        };
        let (out, log) = sim_events(&d, &c, &arrival, FaultInjector::disabled());
        let suspended = tvs_core::Level::Suspended as u32;
        assert!(
            log.degrade_steps().any(|(_, to, _)| to == suspended),
            "100% misprediction must suspend speculation"
        );
        assert_eq!(out.result.committed_version, None);
        decode_outcome(&out, &d);
    }

    #[test]
    fn threaded_runner_produces_decodable_output() {
        let (d, c) = (data(), cfg(DispatchPolicy::Balanced));
        let report = run_huffman(&HuffmanRun::threaded(&d, &c, 4, &GAP_1, 1000));
        decode_outcome(
            &report.expect("a dark run cannot fail").end.into_outcome(),
            &d,
        );
    }
}
