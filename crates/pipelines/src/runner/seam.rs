//! The benchmark seam: the four names `benchmark/src/sut.rs` imports, kept
//! with their exact signatures until a benchmark PR ports that file to
//! [`run_huffman`] — at which point this file is deleted. Each adapter
//! fills a [`HuffmanRun`], calls [`run_huffman`] and unwraps; nothing else.

use super::{run_huffman, CheckpointedRun, HuffmanRun, RunOutcome};
use crate::config::HuffmanConfig;
use tvs_iosim::ArrivalModel;
use tvs_sre::{MetricsHub, TraceLog, Tracer};

/// [`run_huffman`] on `workers` threads, dark; panics if the run fails.
pub fn run_huffman_threaded(
    data: &[u8],
    cfg: &HuffmanConfig,
    workers: usize,
    arrival: &dyn ArrivalModel,
    time_scale: u64,
) -> RunOutcome {
    let run = HuffmanRun::threaded(data, cfg, workers, arrival, time_scale);
    let report = run_huffman(&run).expect("threaded run failed");
    report.end.into_outcome()
}

/// [`run_huffman_threaded`] with an enabled tracer: outcome and event log.
pub fn run_huffman_threaded_events(
    data: &[u8],
    cfg: &HuffmanConfig,
    workers: usize,
    arrival: &dyn ArrivalModel,
    time_scale: u64,
) -> (RunOutcome, TraceLog) {
    let mut run = HuffmanRun::threaded(data, cfg, workers, arrival, time_scale);
    run.instruments.tracer = Tracer::enabled(workers);
    let report = run_huffman(&run).expect("threaded run failed");
    let log = report.log.expect("enabled tracer drains");
    (report.end.into_outcome(), log)
}

/// [`run_huffman_threaded`] feeding `hub` (`MetricsHub::enabled(workers)`).
pub fn run_huffman_threaded_metered(
    data: &[u8],
    cfg: &HuffmanConfig,
    workers: usize,
    arrival: &dyn ArrivalModel,
    time_scale: u64,
    hub: MetricsHub,
) -> RunOutcome {
    let mut run = HuffmanRun::threaded(data, cfg, workers, arrival, time_scale);
    run.instruments.metrics = hub;
    let report = run_huffman(&run).expect("threaded run failed");
    report.end.into_outcome()
}

/// [`run_huffman_threaded`] for a configuration with the checkpoint plane
/// armed: completion, or the halt snapshot.
pub fn run_huffman_threaded_checkpointed(
    data: &[u8],
    cfg: &HuffmanConfig,
    workers: usize,
    arrival: &dyn ArrivalModel,
    time_scale: u64,
) -> CheckpointedRun {
    let run = HuffmanRun::threaded(data, cfg, workers, arrival, time_scale);
    run_huffman(&run).expect("threaded run failed").end
}
