//! Fig. 2 as a test: the task graph the pipeline actually unfolds matches
//! the paper's data-flow diagram — counts, a serial reduce chain, one tree,
//! a serial offset chain fanning out into encodes, plus the speculative
//! predictor/check/offset/encode overlay — at every grain the arrivals
//! produce: per block when blocks dribble in, one `count` per reduce group
//! and one `encode` per chunk ∩ offset group when a batch arrives at once.

use tvs_core::{SpeculationSchedule, Tolerance, ValidationMode, VerificationPolicy};
use tvs_iosim::Uniform;
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::runner::{run_huffman, HuffmanRun, RunOutcome};
use tvs_sre::{cell_be, x86_smp, DispatchPolicy, Platform, Recorder};
use tvs_trace::TaskSpan;

/// 64 KB / 1 KB blocks = 64 blocks; reduce 4:1 -> 16 groups; offsets 8:1.
const BLOCKS: u64 = 64;
const GROUP: u64 = 4;

/// How the blocks arrive, on how many workers — and so the grain.
#[derive(Debug, Clone, Copy)]
enum Grain {
    /// 1 µs apart on 8 workers: Fig. 2's per-block counts and encodes.
    Dribbling,
    /// All at once on 2 workers: 16 whole groups ≥ 2 workers, so one
    /// count per reduce group and one encode per group (a group of 4 lies
    /// inside an offset group of 8).
    Batch,
    /// All at once on 32 workers: fewer whole groups than workers, so the
    /// batch stays per block.
    ThinBatch,
}

const GRAINS: [Grain; 3] = [Grain::Dribbling, Grain::Batch, Grain::ThinBatch];

impl Grain {
    fn gap_us(self) -> u64 {
        match self {
            Grain::Dribbling => 1,
            Grain::Batch | Grain::ThinBatch => 0,
        }
    }

    fn platform(self) -> Platform {
        x86_smp(match self {
            Grain::Dribbling => 8,
            Grain::Batch => 2,
            Grain::ThinBatch => 32,
        })
    }

    /// Blocks per `count` and per `encode` task.
    fn blocks_per_task(self) -> u64 {
        match self {
            Grain::Dribbling | Grain::ThinBatch => 1,
            Grain::Batch => GROUP,
        }
    }

    /// How many tasks the serial chains take: per block, one reduce per
    /// group and one offset per 8 blocks; a batch's coarse groups fold
    /// into fewer hops of the same chains, as many as what is counted
    /// allows.
    fn assert_chains(self, trace: &[TaskSpan]) {
        let (reduces, offsets) = (count_kind(trace, "reduce"), count_kind(trace, "offset"));
        match self {
            Grain::Dribbling | Grain::ThinBatch => {
                assert_eq!(reduces, 16, "{self:?}: reduce fan-in 4:1");
                assert_eq!(offsets, 8, "{self:?}: offset chain at 8:1 fan-out");
            }
            Grain::Batch => {
                assert!((1..=16).contains(&reduces), "{self:?}: {reduces} reduces");
                assert!((1..=8).contains(&offsets), "{self:?}: {offsets} offsets");
            }
        }
    }

    /// The first block of every task that counts or encodes the stream.
    fn task_tags(self) -> Vec<u64> {
        (0..BLOCKS)
            .step_by(self.blocks_per_task() as usize)
            .collect()
    }
}

/// Stationary text with a realistically rich alphabet (rare symbols are
/// genuinely rare, so covering-tree overhead stays far below 1 %).
fn stationary(n: usize) -> Vec<u8> {
    let mut pattern = b"etaoin shrdlu ".repeat(10);
    pattern.extend_from_slice(b"qzxjkvbw,.!?");
    (0..n).map(|i| pattern[i % pattern.len()]).collect()
}

/// Simulated at `grain`, with the task spans of its event log.
fn traced(data: &[u8], cfg: &HuffmanConfig, grain: Grain) -> (RunOutcome, Vec<TaskSpan>) {
    traced_on(data, cfg, grain.platform(), grain.gap_us())
}

fn traced_on(
    data: &[u8],
    cfg: &HuffmanConfig,
    platform: Platform,
    gap_us: u64,
) -> (RunOutcome, Vec<TaskSpan>) {
    let arrival = Uniform {
        gap_us,
        start_us: 0,
    };
    let mut run = HuffmanRun::sim(data, cfg, &platform, &arrival);
    run.instruments.recorder = Recorder::enabled(platform.workers);
    let report = run_huffman(&run).expect("nothing injected, nothing fails");
    let log = report.log.expect("enabled recorder drains");
    assert_eq!(log.dropped, 0, "every span is in the log");
    (report.end.into_outcome(), log.tasks())
}

fn count_kind(trace: &[TaskSpan], name: &str) -> u64 {
    trace.iter().filter(|t| t.name == name).count() as u64
}

fn cfg(policy: DispatchPolicy) -> HuffmanConfig {
    HuffmanConfig {
        block_bytes: 1024,
        reduce_ratio: GROUP as usize,
        offset_fanout: 8,
        policy,
        schedule: SpeculationSchedule::with_step(1),
        verification: VerificationPolicy::baseline(),
        tolerance: Tolerance::percent(1.0),
        predictor: Default::default(),
        collect_output: false,
        degrade: None,
        validation: ValidationMode::Tolerance,
        checkpoint: None,
    }
}

/// The serial chains really are serial: reduces never overlap in time,
/// and neither do offsets.
fn assert_serial_chains(trace: &[TaskSpan], grain: Grain) {
    for name in ["reduce", "offset"] {
        let mut spans: Vec<(u64, u64)> = trace
            .iter()
            .filter(|t| t.name == name)
            .map(|t| (t.start, t.end))
            .collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(
                w[1].0 >= w[0].1,
                "{grain:?}: {name} chain must be serial: {w:?}"
            );
        }
    }
}

fn first_start(trace: &[TaskSpan], name: &str) -> u64 {
    trace
        .iter()
        .filter(|t| t.name == name)
        .map(|t| t.start)
        .min()
        .unwrap()
}

#[test]
fn non_speculative_dfg_matches_fig2a() {
    let data = stationary(BLOCKS as usize * 1024);
    for grain in GRAINS {
        let (_out, trace) = traced(&data, &cfg(DispatchPolicy::NonSpeculative), grain);
        let per_task = BLOCKS / grain.blocks_per_task();
        assert_eq!(count_kind(&trace, "count"), per_task, "{grain:?}: counts");
        assert_eq!(count_kind(&trace, "tree"), 1, "{grain:?}: one serial tree");
        assert_eq!(count_kind(&trace, "encode"), per_task, "{grain:?}: encodes");
        grain.assert_chains(&trace);
        for name in ["predict", "check", "final-check"] {
            assert_eq!(count_kind(&trace, name), 0, "{grain:?}: no {name}");
        }
        assert_serial_chains(&trace, grain);
        // Dependency sanity: no encode starts before the tree finishes.
        let tree_end = trace.iter().find(|t| t.name == "tree").unwrap().end;
        assert!(
            first_start(&trace, "encode") >= tree_end,
            "{grain:?}: encodes depend on the tree"
        );
    }
}

#[test]
fn speculative_dfg_matches_fig2b() {
    let data = stationary(BLOCKS as usize * 1024);
    // Full verification so intermediate checks appear even in this small,
    // fast run (the predictor outlives the early verification points of
    // the every-8th baseline here).
    let mut c = cfg(DispatchPolicy::Balanced);
    c.verification = VerificationPolicy::Full;
    for grain in GRAINS {
        let (out, trace) = traced(&data, &c, grain);
        let per_task = BLOCKS / grain.blocks_per_task();
        // The natural first pass is unchanged.
        assert_eq!(count_kind(&trace, "count"), per_task, "{grain:?}");
        assert_eq!(count_kind(&trace, "tree"), 1, "{grain:?}");
        grain.assert_chains(&trace);
        // The speculative overlay appears...
        assert_eq!(
            count_kind(&trace, "predict"),
            1,
            "{grain:?}: one prediction"
        );
        assert!(
            count_kind(&trace, "check") >= 1,
            "{grain:?}: intermediate checks per Fig. 2b"
        );
        assert_eq!(count_kind(&trace, "final-check"), 1, "{grain:?}");
        // ...and replaces the natural encode phase entirely on commit.
        assert!(out.result.committed_version.is_some(), "{grain:?}");
        assert_eq!(
            count_kind(&trace, "encode"),
            per_task,
            "{grain:?}: no re-encoding when committed"
        );
        assert!(trace
            .iter()
            .filter(|t| t.name == "encode")
            .all(|t| t.version == out.result.committed_version));
        assert_serial_chains(&trace, grain);
        // Speculative encodes start before the final tree exists — the
        // whole point of the paper.
        let tree_end = trace.iter().find(|t| t.name == "tree").unwrap().end;
        assert!(
            first_start(&trace, "encode") < tree_end,
            "{grain:?}: speculative encodes must precede the serial bottleneck's output"
        );
    }
}

#[test]
fn rollback_dfg_discards_and_reissues() {
    // Shifting data: version 1's overlay is destroyed and a later version
    // (or the natural path) re-encodes every block.
    let mut data = vec![b'a'; 32 * 1024];
    data.extend((0..32 * 1024u32).map(|i| 128 + (i % 100) as u8));
    for grain in GRAINS {
        let (out, trace) = traced(&data, &cfg(DispatchPolicy::Balanced), grain);
        assert!(out.metrics.rollbacks > 0, "{grain:?}");
        // The rollback cuts the first version's work short — or, on 32
        // workers that had everything at once, finds it all done already.
        let discarded = trace.iter().filter(|t| t.discarded).count();
        let deleted = out.metrics.tasks_deleted_ready as usize;
        let first_encodes = trace
            .iter()
            .filter(|t| t.name == "encode" && t.version == Some(1))
            .count() as u64;
        assert!(
            discarded + deleted > 0 || first_encodes == BLOCKS / grain.blocks_per_task(),
            "{grain:?}: rollback must destroy speculative work"
        );
        // Committed/natural encodes still cover all 64 blocks exactly once:
        // one task per chunk, starting at the chunk's first block.
        let mut tags: Vec<u64> = trace
            .iter()
            .filter(|t| {
                t.name == "encode" && !t.discarded && {
                    match out.result.committed_version {
                        Some(v) => t.version == Some(v),
                        None => t.version.is_none(),
                    }
                }
            })
            .map(|t| t.tag)
            .collect();
        tags.sort_unstable();
        assert_eq!(
            tags,
            grain.task_tags(),
            "{grain:?}: every block encoded exactly once in the surviving version"
        );
    }
}

#[test]
fn cell_chunks_stay_inside_the_local_store() {
    // The paper's Cell configuration at 4 KB blocks: a reduce group of 16
    // is 64 KB, twice the 32 KB a task may touch there. A batch on two
    // SPEs counts each group in two chunks of 8 blocks (the simulator
    // panics on a task over the limit) and encodes each chunk in one task
    // (it lies inside an offset group of 16).
    let data = stationary(64 * 4096);
    let c = HuffmanConfig::disk_cell(DispatchPolicy::Balanced);
    let (out, trace) = traced_on(&data, &c, cell_be(2), 0);
    assert_eq!(count_kind(&trace, "count"), 8, "two chunks per group");
    assert_eq!(count_kind(&trace, "reduce"), 4);
    assert_eq!(count_kind(&trace, "encode"), 8, "one encode per chunk");
    assert_eq!(out.result.blocks.len(), 64);
}
