//! Run harness: data + config + platform + arrival model → results.

use crate::config::HuffmanConfig;
use crate::cost::HuffmanCost;
use crate::huffman::{digest_output, HuffmanWorkload, PipelineResult};
use std::sync::Arc;
use tvs_core::checkpoint::input_digest;
use tvs_core::{ReplicaStats, ReplicatingWorkload, ResumeError, StreamSnapshot};
use tvs_iosim::ArrivalModel;
use tvs_sre::exec::sim::{
    run as sim_run, run_traced as sim_run_traced, try_run_chaos,
    try_run_metered as sim_try_run_metered, SimChaos, SimConfig,
};
use tvs_sre::exec::threaded::{
    try_run_metered as threaded_try_run_metered, try_run_traced as threaded_try_run_traced,
    ThreadedConfig,
};
use tvs_sre::{
    FaultInjector, InputBlock, MetricsHub, Platform, RunError, RunMetrics, TaskTrace, TraceLog,
    Tracer,
};

/// Seed of the replication plane's deterministic ordinary-task sampler.
/// Fixed so two runs of the same configuration replicate the same tasks.
const SDC_SEED: u64 = 0x5DC0_11A7;

/// Wrap the pipeline workload in the replication validation plane per the
/// configuration's [`tvs_core::ValidationMode`]. Under the default
/// `Tolerance` mode the wrapper is a strict pass-through, so every
/// existing entry point keeps its exact behaviour.
fn wrap(wl: HuffmanWorkload, cfg: &HuffmanConfig) -> ReplicatingWorkload<HuffmanWorkload> {
    ReplicatingWorkload::new(wl, cfg.validation, SDC_SEED, Arc::new(digest_output))
}

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
    /// Per-element latency series, µs (the paper's main evaluation
    /// criterion).
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

/// Split `data` into blocks with arrival times from `arrival`.
pub fn schedule_blocks(
    data: &[u8],
    block_bytes: usize,
    arrival: &dyn ArrivalModel,
) -> (Vec<InputBlock>, Vec<u64>) {
    let n = data.len().div_ceil(block_bytes);
    let times = arrival.schedule(n, block_bytes);
    let blocks = data
        .chunks(block_bytes)
        .zip(&times)
        .enumerate()
        .map(|(index, (chunk, &arrival))| InputBlock {
            index,
            arrival,
            data: chunk.into(),
        })
        .collect();
    (blocks, times)
}

/// Outcome of a checkpointed run: completion, or a halt at the configured
/// block with the snapshot that resumes it.
#[derive(Debug, Clone)]
pub enum CheckpointedRun {
    /// The run finished; the final snapshot (if any) is on disk.
    Completed(Box<RunOutcome>),
    /// The run stopped at [`tvs_core::CheckpointConfig::halt_at_block`];
    /// feed this snapshot to [`resume_huffman_sim`] /
    /// [`resume_huffman_threaded`] to finish the stream byte-identically.
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

/// Run the Huffman pipeline on the simulator with the configuration's
/// checkpoint plane armed (`cfg.checkpoint` must be `Some`): snapshots are
/// bound to this input's digest, written at the configured cadence, and a
/// `halt_at_block` stops the run at that committed prefix.
pub fn run_huffman_sim_checkpointed(
    data: &[u8],
    cfg: &HuffmanConfig,
    platform: &Platform,
    arrival: &dyn ArrivalModel,
) -> CheckpointedRun {
    let (blocks, times) = schedule_blocks(data, cfg.block_bytes, arrival);
    let mut wl0 = HuffmanWorkload::new(cfg.clone(), data.len());
    wl0.set_input_digest(input_digest(data));
    let sim = SimConfig {
        platform: platform.clone(),
        policy: cfg.policy,
        trace: false,
    };
    let rep = sim_run(wrap(wl0, cfg), &sim, &HuffmanCost, blocks);
    let inner = rep.workload.into_inner();
    if inner.halted() {
        CheckpointedRun::Halted(Box::new(
            inner
                .snapshot()
                .expect("halted run always built a snapshot"),
        ))
    } else {
        CheckpointedRun::Completed(Box::new(RunOutcome {
            result: inner.result(),
            metrics: rep.metrics,
            arrivals: times,
        }))
    }
}

/// Resume a killed simulator run from its committed-prefix snapshot:
/// verifies the snapshot against this input and configuration, re-feeds
/// only the blocks past the prefix, and completes the stream — byte-
/// identical to an uninterrupted run, because every remaining block is
/// encoded with the snapshot's committed tree.
pub fn resume_huffman_sim(
    snapshot: &StreamSnapshot,
    data: &[u8],
    cfg: &HuffmanConfig,
    platform: &Platform,
    arrival: &dyn ArrivalModel,
) -> Result<RunOutcome, ResumeError> {
    let digest = input_digest(data);
    snapshot.check_matches(cfg.digest(), digest)?;
    let (blocks, times) = schedule_blocks(data, cfg.block_bytes, arrival);
    let k = snapshot.prefix as usize;
    let blocks: Vec<InputBlock> = blocks.into_iter().filter(|b| b.index >= k).collect();
    let mut wl0 = HuffmanWorkload::resume(cfg.clone(), data.len(), snapshot)?;
    wl0.set_input_digest(digest);
    let sim = SimConfig {
        platform: platform.clone(),
        policy: cfg.policy,
        trace: false,
    };
    let rep = sim_run(wrap(wl0, cfg), &sim, &HuffmanCost, blocks);
    Ok(RunOutcome {
        result: rep.workload.into_inner().result(),
        metrics: rep.metrics,
        arrivals: times,
    })
}

/// Threaded counterpart of [`run_huffman_sim_checkpointed`]: real workers,
/// the same snapshot cadence and halt semantics.
pub fn run_huffman_threaded_checkpointed(
    data: &[u8],
    cfg: &HuffmanConfig,
    workers: usize,
    arrival: &dyn ArrivalModel,
    time_scale: u64,
) -> CheckpointedRun {
    let tcfg = ThreadedConfig::new(workers, cfg.policy);
    let tracer = Tracer::disabled();
    let mut wl0 = HuffmanWorkload::new(cfg.clone(), data.len());
    wl0.set_input_digest(input_digest(data));
    let (wl, iter, times) =
        threaded_setup(wl0, data, cfg, &tcfg, arrival, time_scale, &tracer, None, 0);
    let (wl, metrics) = threaded_try_run_traced(wl, &tcfg, iter, tracer)
        .unwrap_or_else(|e| panic!("checkpointed threaded run failed: {e}"));
    let inner = wl.into_inner();
    if inner.halted() {
        CheckpointedRun::Halted(Box::new(
            inner
                .snapshot()
                .expect("halted run always built a snapshot"),
        ))
    } else {
        CheckpointedRun::Completed(Box::new(RunOutcome {
            result: inner.result(),
            metrics,
            arrivals: times,
        }))
    }
}

/// Threaded counterpart of [`resume_huffman_sim`].
pub fn resume_huffman_threaded(
    snapshot: &StreamSnapshot,
    data: &[u8],
    cfg: &HuffmanConfig,
    workers: usize,
    arrival: &dyn ArrivalModel,
    time_scale: u64,
) -> Result<RunOutcome, ResumeError> {
    let digest = input_digest(data);
    snapshot.check_matches(cfg.digest(), digest)?;
    let tcfg = ThreadedConfig::new(workers, cfg.policy);
    let tracer = Tracer::disabled();
    let k = snapshot.prefix as usize;
    let mut wl0 = HuffmanWorkload::resume(cfg.clone(), data.len(), snapshot)?;
    wl0.set_input_digest(digest);
    let (wl, iter, times) =
        threaded_setup(wl0, data, cfg, &tcfg, arrival, time_scale, &tracer, None, k);
    let (wl, metrics) = threaded_try_run_traced(wl, &tcfg, iter, tracer)
        .unwrap_or_else(|e| panic!("resumed threaded run failed: {e}"));
    Ok(RunOutcome {
        result: wl.into_inner().result(),
        metrics,
        arrivals: times,
    })
}

/// Run the Huffman pipeline on the deterministic discrete-event executor.
pub fn run_huffman_sim(
    data: &[u8],
    cfg: &HuffmanConfig,
    platform: &Platform,
    arrival: &dyn ArrivalModel,
) -> RunOutcome {
    let (outcome, _) = run_huffman_sim_traced(data, cfg, platform, arrival, false);
    outcome
}

/// Like [`run_huffman_sim`], optionally capturing the per-task trace.
pub fn run_huffman_sim_traced(
    data: &[u8],
    cfg: &HuffmanConfig,
    platform: &Platform,
    arrival: &dyn ArrivalModel,
    trace: bool,
) -> (RunOutcome, Vec<TaskTrace>) {
    let (blocks, times) = schedule_blocks(data, cfg.block_bytes, arrival);
    let wl = wrap(HuffmanWorkload::new(cfg.clone(), data.len()), cfg);
    let sim = SimConfig {
        platform: platform.clone(),
        policy: cfg.policy,
        trace,
    };
    let rep = sim_run(wl, &sim, &HuffmanCost, blocks);
    (
        RunOutcome {
            result: rep.workload.into_inner().result(),
            metrics: rep.metrics,
            arrivals: times,
        },
        rep.trace,
    )
}

/// Like [`run_huffman_sim`], additionally recording the full
/// speculation-lifecycle event log (dispatches, task spans, predictor
/// fires, check verdicts, rollbacks with cascade depth, commits) in
/// deterministic virtual time. The log's label is set to the policy name.
pub fn run_huffman_sim_events(
    data: &[u8],
    cfg: &HuffmanConfig,
    platform: &Platform,
    arrival: &dyn ArrivalModel,
) -> (RunOutcome, TraceLog) {
    let (blocks, times) = schedule_blocks(data, cfg.block_bytes, arrival);
    let tracer = Tracer::enabled(platform.workers);
    tracer.set_label(cfg.policy.label());
    let mut wl = wrap(HuffmanWorkload::new(cfg.clone(), data.len()), cfg);
    wl.inner_mut().set_tracer(tracer.clone());
    wl.set_tracer(tracer.clone());
    let sim = SimConfig {
        platform: platform.clone(),
        policy: cfg.policy,
        trace: false,
    };
    let rep = sim_run_traced(wl, &sim, &HuffmanCost, blocks, tracer.clone());
    let log = tracer.drain().expect("enabled tracer drains");
    (
        RunOutcome {
            result: rep.workload.into_inner().result(),
            metrics: rep.metrics,
            arrivals: times,
        },
        log,
    )
}

/// Like [`run_huffman_sim`], feeding every layer's telemetry (scheduler
/// lifecycle counters, per-lane dispatch, manager outcomes, breaker state,
/// encode-pool gauges) into `hub`. Pass a hub built with
/// `MetricsHub::enabled(platform.workers)`; arm virtual-time sampling on it
/// beforehand (`enable_virtual_sampling`) to collect byte-deterministic
/// [`tvs_sre::MetricsSnapshot`]s, and drain them afterwards with
/// `drain_virtual_snapshots`.
pub fn run_huffman_sim_metered(
    data: &[u8],
    cfg: &HuffmanConfig,
    platform: &Platform,
    arrival: &dyn ArrivalModel,
    hub: MetricsHub,
) -> RunOutcome {
    let (blocks, times) = schedule_blocks(data, cfg.block_bytes, arrival);
    let mut wl = wrap(HuffmanWorkload::new(cfg.clone(), data.len()), cfg);
    wl.inner_mut().set_metrics(hub.clone());
    wl.set_metrics(hub.clone());
    let sim = SimConfig {
        platform: platform.clone(),
        policy: cfg.policy,
        trace: false,
    };
    let rep = sim_try_run_metered(
        wl,
        &sim,
        &HuffmanCost,
        blocks,
        Tracer::disabled(),
        &SimChaos::default(),
        hub,
    )
    .unwrap_or_else(|e| panic!("metered sim run failed: {e}"));
    RunOutcome {
        result: rep.workload.into_inner().result(),
        metrics: rep.metrics,
        arrivals: times,
    }
}

/// Run the Huffman pipeline on the simulator under a chaos plan: the
/// fault-injection rules, retry policy and virtual watchdog in `chaos`,
/// with the full speculation-lifecycle event log (including `task-fault`,
/// `watchdog-cancel` and breaker events) captured in virtual time. The
/// workload's own fault site ([`tvs_sre::FaultSite::PredictedValue`]) is
/// armed with the same injector, so all draws share one budget and log.
/// Returns a structured [`RunError`] when bounded retries cannot save the
/// run — never a panic.
pub fn run_huffman_sim_chaos(
    data: &[u8],
    cfg: &HuffmanConfig,
    platform: &Platform,
    arrival: &dyn ArrivalModel,
    chaos: &SimChaos,
) -> Result<(RunOutcome, TraceLog), RunError> {
    let (blocks, times) = schedule_blocks(data, cfg.block_bytes, arrival);
    let tracer = Tracer::enabled(platform.workers);
    tracer.set_label(cfg.policy.label());
    let mut wl = wrap(HuffmanWorkload::new(cfg.clone(), data.len()), cfg);
    wl.inner_mut().set_tracer(tracer.clone());
    wl.inner_mut().set_fault_injector(chaos.faults.clone());
    wl.set_tracer(tracer.clone());
    wl.set_fault_injector(chaos.faults.clone());
    let sim = SimConfig {
        platform: platform.clone(),
        policy: cfg.policy,
        trace: false,
    };
    let rep = match try_run_chaos(wl, &sim, &HuffmanCost, blocks, tracer.clone(), chaos) {
        Ok(rep) => rep,
        Err(e) => {
            // Crash hook: dump the flight-recorder state before the
            // structured error propagates (see `postmortem`).
            if let Some(log) = tracer.drain() {
                crate::postmortem::capture(
                    crate::postmortem::Trigger::RunError,
                    chaos.faults.seed().unwrap_or(0),
                    cfg.policy.label(),
                    &log,
                    Some(e.to_string()),
                );
            }
            return Err(e);
        }
    };
    let log = tracer.drain().expect("enabled tracer drains");
    Ok((
        RunOutcome {
            result: rep.workload.into_inner().result(),
            metrics: rep.metrics,
            arrivals: times,
        },
        log,
    ))
}

/// Run the Huffman pipeline on the simulator with replication-based
/// validation armed against silent data corruption: `faults` should carry
/// a [`tvs_sre::FaultSite::TaskOutput`] rule (see `FaultPlan::sdc`), which
/// flips bits in encoded blocks *after* a successful encode — invisible to
/// panics, retry and the tolerance checks alike. The same injector is
/// wired into the workload (so draws share one budget) and into the
/// replication plane (so it can compute detection recall). Returns the
/// outcome plus the plane's counters.
pub fn run_huffman_sim_sdc(
    data: &[u8],
    cfg: &HuffmanConfig,
    platform: &Platform,
    arrival: &dyn ArrivalModel,
    faults: FaultInjector,
) -> (RunOutcome, ReplicaStats) {
    let (blocks, times) = schedule_blocks(data, cfg.block_bytes, arrival);
    let mut wl = wrap(HuffmanWorkload::new(cfg.clone(), data.len()), cfg);
    wl.inner_mut().set_fault_injector(faults.clone());
    wl.set_fault_injector(faults);
    let sim = SimConfig {
        platform: platform.clone(),
        policy: cfg.policy,
        trace: false,
    };
    let rep = sim_run(wl, &sim, &HuffmanCost, blocks);
    let stats = rep.workload.stats();
    (
        RunOutcome {
            result: rep.workload.into_inner().result(),
            metrics: rep.metrics,
            arrivals: times,
        },
        stats,
    )
}

/// Threaded counterpart of [`run_huffman_sim_sdc`]: real workers, the same
/// silent-corruption injection and replication plane. Returns a structured
/// [`RunError`] if the run cannot complete.
pub fn run_huffman_threaded_sdc(
    data: &[u8],
    cfg: &HuffmanConfig,
    workers: usize,
    arrival: &dyn ArrivalModel,
    time_scale: u64,
    faults: FaultInjector,
) -> Result<(RunOutcome, ReplicaStats), RunError> {
    let mut tcfg = ThreadedConfig::new(workers, cfg.policy);
    tcfg.faults = faults;
    let tracer = Tracer::disabled();
    let wl0 = HuffmanWorkload::new(cfg.clone(), data.len());
    let (wl, iter, times) =
        threaded_setup(wl0, data, cfg, &tcfg, arrival, time_scale, &tracer, None, 0);
    let (wl, metrics) = threaded_try_run_traced(wl, &tcfg, iter, tracer)?;
    let stats = wl.stats();
    Ok((
        RunOutcome {
            result: wl.into_inner().result(),
            metrics,
            arrivals: times,
        },
        stats,
    ))
}

/// Run the Huffman pipeline on real threads, pacing arrivals per the model
/// compressed by `time_scale` (so slow-I/O scenarios finish quickly in
/// tests).
pub fn run_huffman_threaded(
    data: &[u8],
    cfg: &HuffmanConfig,
    workers: usize,
    arrival: &dyn ArrivalModel,
    time_scale: u64,
) -> RunOutcome {
    threaded_impl(data, cfg, workers, arrival, time_scale, Tracer::disabled())
}

/// Like [`run_huffman_threaded`], additionally recording the full
/// speculation-lifecycle event log in wall-clock time.
pub fn run_huffman_threaded_events(
    data: &[u8],
    cfg: &HuffmanConfig,
    workers: usize,
    arrival: &dyn ArrivalModel,
    time_scale: u64,
) -> (RunOutcome, TraceLog) {
    let tracer = Tracer::enabled(workers);
    tracer.set_label(cfg.policy.label());
    let outcome = threaded_impl(data, cfg, workers, arrival, time_scale, tracer.clone());
    let log = tracer.drain().expect("enabled tracer drains");
    (outcome, log)
}

/// Like [`run_huffman_threaded`], feeding every layer's telemetry into
/// `hub`. Pass a hub built with `MetricsHub::enabled(workers)` and attach a
/// [`tvs_sre::Sampler`] (or call `hub.snapshot()` yourself) to watch the
/// run live — this is what `tvs-top` and the `socket_stream` example do.
pub fn run_huffman_threaded_metered(
    data: &[u8],
    cfg: &HuffmanConfig,
    workers: usize,
    arrival: &dyn ArrivalModel,
    time_scale: u64,
    hub: MetricsHub,
) -> RunOutcome {
    let tcfg = ThreadedConfig::new(workers, cfg.policy);
    try_threaded_metered_impl(data, cfg, &tcfg, arrival, time_scale, hub)
        .unwrap_or_else(|e| panic!("metered threaded run failed: {e}"))
}

/// Run the Huffman pipeline on real threads under a caller-built
/// [`ThreadedConfig`] — its `faults`, `retry` and `watchdog` fields are the
/// chaos knobs — capturing the full event log in wall-clock time. The
/// workload's predicted-value fault site is armed with the executor's
/// injector. Returns a structured [`RunError`] when bounded retries cannot
/// save the run — never a panic.
pub fn run_huffman_threaded_chaos(
    data: &[u8],
    cfg: &HuffmanConfig,
    tcfg: &ThreadedConfig,
    arrival: &dyn ArrivalModel,
    time_scale: u64,
) -> Result<(RunOutcome, TraceLog), RunError> {
    let tracer = Tracer::enabled(tcfg.workers);
    tracer.set_label(cfg.policy.label());
    let outcome = match try_threaded_impl(data, cfg, tcfg, arrival, time_scale, tracer.clone()) {
        Ok(out) => out,
        Err(e) => {
            // Crash hook: dump the flight-recorder state before the
            // structured error propagates (see `postmortem`).
            if let Some(log) = tracer.drain() {
                crate::postmortem::capture(
                    crate::postmortem::Trigger::RunError,
                    tcfg.faults.seed().unwrap_or(0),
                    cfg.policy.label(),
                    &log,
                    Some(e.to_string()),
                );
            }
            return Err(e);
        }
    };
    let log = tracer.drain().expect("enabled tracer drains");
    Ok((outcome, log))
}

fn threaded_impl(
    data: &[u8],
    cfg: &HuffmanConfig,
    workers: usize,
    arrival: &dyn ArrivalModel,
    time_scale: u64,
    tracer: Tracer,
) -> RunOutcome {
    let tcfg = ThreadedConfig::new(workers, cfg.policy);
    try_threaded_impl(data, cfg, &tcfg, arrival, time_scale, tracer)
        .unwrap_or_else(|e| panic!("threaded run failed: {e}"))
}

fn try_threaded_impl(
    data: &[u8],
    cfg: &HuffmanConfig,
    tcfg: &ThreadedConfig,
    arrival: &dyn ArrivalModel,
    time_scale: u64,
    tracer: Tracer,
) -> Result<RunOutcome, RunError> {
    let wl0 = HuffmanWorkload::new(cfg.clone(), data.len());
    let (wl, iter, times) =
        threaded_setup(wl0, data, cfg, tcfg, arrival, time_scale, &tracer, None, 0);
    let (wl, metrics) = threaded_try_run_traced(wl, tcfg, iter, tracer)?;
    Ok(RunOutcome {
        result: wl.into_inner().result(),
        metrics,
        arrivals: times,
    })
}

fn try_threaded_metered_impl(
    data: &[u8],
    cfg: &HuffmanConfig,
    tcfg: &ThreadedConfig,
    arrival: &dyn ArrivalModel,
    time_scale: u64,
    hub: MetricsHub,
) -> Result<RunOutcome, RunError> {
    let tracer = Tracer::disabled();
    let wl0 = HuffmanWorkload::new(cfg.clone(), data.len());
    let (wl, iter, times) = threaded_setup(
        wl0,
        data,
        cfg,
        tcfg,
        arrival,
        time_scale,
        &tracer,
        Some(&hub),
        0,
    );
    let (wl, metrics) = threaded_try_run_metered(wl, tcfg, iter, tracer, hub)?;
    Ok(RunOutcome {
        result: wl.into_inner().result(),
        metrics,
        arrivals: times,
    })
}

/// Shared threaded-run scaffolding: workload wiring plus the paced input
/// iterator (arrival schedule compressed by `time_scale`). Blocks below
/// `skip_below` are not fed at all — a resumed run's committed prefix.
#[allow(clippy::type_complexity, clippy::too_many_arguments)]
fn threaded_setup(
    wl0: HuffmanWorkload,
    data: &[u8],
    cfg: &HuffmanConfig,
    tcfg: &ThreadedConfig,
    arrival: &dyn ArrivalModel,
    time_scale: u64,
    tracer: &Tracer,
    hub: Option<&MetricsHub>,
    skip_below: usize,
) -> (
    ReplicatingWorkload<HuffmanWorkload>,
    impl Iterator<Item = (usize, Arc<[u8]>)> + Send + 'static,
    Vec<u64>,
) {
    let n = data.len().div_ceil(cfg.block_bytes);
    let times = arrival.schedule(n, cfg.block_bytes);
    let mut wl = wrap(wl0, cfg);
    wl.inner_mut().set_tracer(tracer.clone());
    wl.set_tracer(tracer.clone());
    if let Some(h) = hub {
        wl.inner_mut().set_metrics(h.clone());
        wl.set_metrics(h.clone());
    }
    wl.inner_mut().set_fault_injector(tcfg.faults.clone());
    wl.set_fault_injector(tcfg.faults.clone());

    // The feeder consumes a paced iterator; build owned blocks up front.
    let owned: Vec<(usize, Arc<[u8]>)> = data
        .chunks(cfg.block_bytes)
        .enumerate()
        .filter(|(i, _)| *i >= skip_below)
        .map(|(i, c)| (i, Arc::<[u8]>::from(c)))
        .collect();
    let pace_times = times.clone();
    let paced = owned.into_iter().map(move |(i, d)| {
        // Busy-sleep pacing (scaled).
        (i, d, pace_times[i] / time_scale.max(1))
    });
    let start = std::time::Instant::now();
    let iter = paced.map(move |(i, d, due_us)| {
        let due = std::time::Duration::from_micros(due_us);
        let elapsed = start.elapsed();
        if due > elapsed {
            std::thread::sleep(due - elapsed);
        }
        (i, d)
    });
    (wl, iter, times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvs_iosim::Uniform;
    use tvs_sre::{x86_smp, DispatchPolicy};

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

    #[test]
    fn sim_runner_end_to_end() {
        let d = data();
        let arrival = Uniform {
            gap_us: 2,
            start_us: 0,
        };
        let out = run_huffman_sim(&d, &cfg(DispatchPolicy::Balanced), &x86_smp(8), &arrival);
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
        let a = run_huffman_sim(&d, &c, &x86_smp(8), &arrival);
        let b = run_huffman_sim(&d, &c, &x86_smp(8), &arrival);
        assert_eq!(a.latencies(), b.latencies());
        assert_eq!(a.completion_time(), b.completion_time());
        assert_eq!(a.result.compressed_bits, b.result.compressed_bits);
    }

    #[test]
    fn trace_capture_when_requested() {
        let d = data();
        let arrival = Uniform {
            gap_us: 2,
            start_us: 0,
        };
        let (_, trace) = run_huffman_sim_traced(
            &d,
            &cfg(DispatchPolicy::NonSpeculative),
            &x86_smp(4),
            &arrival,
            true,
        );
        assert!(trace.iter().any(|t| t.name == "count"));
        assert!(trace.iter().any(|t| t.name == "encode"));
        assert!(trace.iter().any(|t| t.name == "tree"));
    }

    #[test]
    fn sim_event_log_covers_the_speculation_lifecycle() {
        let d = data();
        let arrival = Uniform {
            gap_us: 2,
            start_us: 0,
        };
        let mut c = cfg(DispatchPolicy::Aggressive);
        // Step 0: predict from the very first block, so this small input
        // exercises the full speculation lifecycle.
        c.schedule = tvs_core::SpeculationSchedule::with_step(0);
        let (out, log) = run_huffman_sim_events(&d, &c, &x86_smp(8), &arrival);
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
        let plain = run_huffman_sim(&d, &c, &x86_smp(8), &arrival);
        assert_eq!(plain.metrics, out.metrics);
        assert_eq!(plain.latencies(), out.latencies());
    }

    #[test]
    fn threaded_event_log_records_task_spans() {
        let d = data();
        let arrival = Uniform {
            gap_us: 1,
            start_us: 0,
        };
        let (out, log) =
            run_huffman_threaded_events(&d, &cfg(DispatchPolicy::Balanced), 4, &arrival, 1000);
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
        use tvs_sre::{FaultInjector, FaultPlan};
        let d = data();
        let arrival = Uniform {
            gap_us: 2,
            start_us: 0,
        };
        let c = cfg(DispatchPolicy::Balanced);
        // A fresh injector per run: draw counters are part of run state.
        let run = |seed: u64| {
            let chaos = SimChaos {
                faults: FaultInjector::new(FaultPlan::chaos(seed)),
                ..SimChaos::default()
            };
            run_huffman_sim_chaos(&d, &c, &x86_smp(8), &arrival, &chaos)
                .expect("the chaos preset recovers through retry + rollback")
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
        use tvs_sre::{FaultInjector, FaultPlan};
        let d = data();
        let arrival = Uniform {
            gap_us: 1,
            start_us: 0,
        };
        let c = cfg(DispatchPolicy::Balanced);
        let mut tcfg = ThreadedConfig::new(4, c.policy);
        tcfg.faults = FaultInjector::new(FaultPlan::chaos(7));
        let (out, log) = run_huffman_threaded_chaos(&d, &c, &tcfg, &arrival, 1000)
            .expect("the chaos preset recovers through retry + rollback");
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
        // prediction mispredicts. The breaker must demonstrably trip (a
        // `breaker-trip` trace event) and the run must still complete.
        let mut c = cfg(DispatchPolicy::Aggressive);
        c.block_bytes = 1024;
        c.reduce_ratio = 4;
        c.offset_fanout = 4;
        c.schedule = tvs_core::SpeculationSchedule::with_step(1);
        c.verification = tvs_core::VerificationPolicy::Full;
        c.tolerance = tvs_core::Tolerance { margin: 0.0 };
        c.breaker = Some(tvs_core::BreakerConfig {
            window: 4,
            min_samples: 2,
            trip_ratio: 0.5,
            cooldown: 1_000,
            probe_successes: 1,
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
        let (out, log) = run_huffman_sim_events(&d, &c, &x86_smp(8), &arrival);
        assert!(
            log.count("breaker-trip") >= 1,
            "100% misprediction must trip the breaker"
        );
        assert_eq!(out.result.committed_version, None);
        decode_outcome(&out, &d);
    }

    #[test]
    fn threaded_runner_produces_decodable_output() {
        let d = data();
        let arrival = Uniform {
            gap_us: 1,
            start_us: 0,
        };
        let out = run_huffman_threaded(&d, &cfg(DispatchPolicy::Balanced), 4, &arrival, 1000);
        let (bytes, bits, lengths) = out.result.output.as_ref().unwrap();
        let table = tvs_huffman::CodeTable::from_lengths(lengths);
        let back = tvs_huffman::decode_exact(bytes, 0, *bits, d.len(), &table).unwrap();
        assert_eq!(back, d);
    }
}
