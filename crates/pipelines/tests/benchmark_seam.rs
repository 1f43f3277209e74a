//! The benchmark seam, compiled and smoke-run by tier-1.
//!
//! `benchmark/` is a workspace of its own, so `cargo test` never builds it:
//! a change that breaks one of the items `benchmark/src/sut.rs` uses would
//! only be seen by the CI `benchmark` job. This test names every item
//! listed under "The seam" in `benchmark/README.md`, with the signatures
//! `sut.rs` relies on, and runs the four runner entry points once on a
//! small input. When a benchmark PR ports `sut.rs` to `run_huffman`, port
//! this file with it.

use std::path::Path;
use tvs_core::{
    AllocStats, CheckpointConfig, ManagerStats, SpecVersion, UndoLog, ValidationMode, WaitBuffer,
};
use tvs_huffman::{
    concat_blocks, decode_exact, encode_block, encode_block_into, relative_cost_delta,
    serial_encode, tolerance_verdict, CodeLengths, CodeTable, EncodedBlock, Histogram, OffsetChain,
};
use tvs_iosim::{ArrivalModel, Socket, Uniform};
use tvs_metrics::{json, Counter, MetricsHub};
use tvs_pipelines::config::{HuffmanConfig, BLOCK_BYTES};
use tvs_pipelines::huffman::BlockDone;
use tvs_pipelines::runner::{
    run_huffman_threaded, run_huffman_threaded_checkpointed, run_huffman_threaded_events,
    run_huffman_threaded_metered, CheckpointedRun, RunOutcome,
};
use tvs_pipelines::{HuffmanWorkload, PipelineResult};
use tvs_sre::{DispatchPolicy, RunMetrics};
use tvs_trace::{EventKind, SpecHealth, TraceEvent, TraceLog};
use tvs_workloads::{generate_paper_sized, FileKind};

const WORKERS: usize = 2;

type Run = fn(&[u8], &HuffmanConfig, usize, &dyn ArrivalModel, u64) -> RunOutcome;
type RunEvents = fn(&[u8], &HuffmanConfig, usize, &dyn ArrivalModel, u64) -> (RunOutcome, TraceLog);
type RunMetered =
    fn(&[u8], &HuffmanConfig, usize, &dyn ArrivalModel, u64, MetricsHub) -> RunOutcome;
type RunCheckpointed = fn(&[u8], &HuffmanConfig, usize, &dyn ArrivalModel, u64) -> CheckpointedRun;

/// `sut::preset`: the paper's preset, keeping the output for verification.
fn preset(socket: bool, policy: DispatchPolicy) -> HuffmanConfig {
    let mut cfg = if socket {
        HuffmanConfig::socket_x86(policy)
    } else {
        HuffmanConfig::disk_x86(policy)
    };
    cfg.collect_output = true;
    cfg
}

/// `sut::run_facts`: every field and method of an outcome the harness reads.
fn read_outcome(out: RunOutcome, data: &[u8]) -> (Vec<u8>, u64, CodeLengths) {
    let RunOutcome {
        result,
        metrics,
        arrivals,
    } = out;
    let PipelineResult {
        blocks,
        compressed_bits,
        src_bytes,
        spec_stats,
        output,
        alloc_stats,
        ..
    } = result;
    assert_eq!(arrivals.len(), blocks.len());
    assert_eq!(src_bytes, data.len());
    let BlockDone {
        arrival,
        encoded_at,
        ..
    } = blocks[0];
    assert!(encoded_at >= arrival);
    let _: Option<ManagerStats> = spec_stats;
    if let Some(s) = spec_stats {
        let _: [u64; 6] = [
            s.predictions,
            s.checks,
            s.checks_passed,
            s.checks_failed,
            s.rollbacks,
            s.stale_results,
        ];
    }
    let AllocStats { heap_allocs, .. } = alloc_stats;
    let _: u64 = heap_allocs;
    let m: &RunMetrics = &metrics;
    let _: [u64; 7] = [
        m.makespan,
        m.tasks_delivered,
        m.tasks_discarded,
        m.tasks_deleted_ready,
        m.steals,
        m.busy_us,
        m.wasted_us,
    ];
    let _: [f64; 3] = [m.steal_ratio(), m.lane_imbalance(), m.utilization()];
    let (bytes, bits, lengths) = output.expect("collect_output is set");
    assert_eq!(bits, compressed_bits);
    (bytes, bits, lengths)
}

#[test]
fn runner_seam_keeps_its_signatures_and_runs() {
    let (plain, events, metered, checkpointed): (Run, RunEvents, RunMetered, RunCheckpointed) = (
        run_huffman_threaded,
        run_huffman_threaded_events,
        run_huffman_threaded_metered,
        run_huffman_threaded_checkpointed,
    );
    let data = &generate_paper_sized(FileKind::Text, 7)[..64 * BLOCK_BYTES];
    let at_once: Box<dyn ArrivalModel> = Box::new(Uniform {
        gap_us: 0,
        start_us: 0,
    });
    let bursts: Box<dyn ArrivalModel> = Box::new(Socket::default());

    // Non-speculative output is the serial codec's stream, bit for bit.
    let serial = serial_encode(data).expect("not empty");
    let serial_lengths =
        CodeLengths::from_lengths(serial.table.lengths_array()).expect("valid lengths");
    let nonspec = preset(false, DispatchPolicy::NonSpeculative);
    let (bytes, bits, lengths) = read_outcome(plain(data, &nonspec, WORKERS, &*at_once, 1), data);
    assert!(lengths == serial_lengths && bits == serial.bit_len && bytes == serial.bytes);

    // Balanced, on the paced socket schedule, decodes to the input.
    let socket = preset(true, DispatchPolicy::Balanced);
    let (bytes, bits, lengths) = read_outcome(plain(data, &socket, WORKERS, &*bursts, 1000), data);
    let table = CodeTable::from_lengths(&lengths);
    assert!(decode_exact(&bytes, 0, bits, data.len(), &table).is_ok_and(|back| back == data));

    // Replicated: the same entry point under `ValidationMode::Replicate`.
    let mut cfg = preset(false, DispatchPolicy::Balanced);
    let _: usize = cfg.reduce_ratio;
    cfg.validation = ValidationMode::Replicate { sample_rate: 1.0 };
    let replicated = plain(data, &cfg, WORKERS, &*at_once, 1);
    assert!(replicated.metrics.replica_dispatches > 0);
    cfg.validation = ValidationMode::Tolerance;

    // Events: what `sut::event_facts` reads of the log.
    let (out, log) = events(data, &cfg, WORKERS, &*at_once, 1);
    let TraceLog {
        events: list,
        dropped,
        timebase,
        ..
    } = &log;
    assert_eq!(*dropped, 0);
    let e: &TraceEvent = &list[0];
    let _: u64 = e.ts(*timebase);
    let ends = list.iter().filter(|e| {
        matches!(
            e.kind,
            EventKind::TaskEnd {
                id: _,
                name: _,
                discarded: _,
                ..
            }
        )
    });
    assert_eq!(
        ends.count() as u64,
        out.metrics.tasks_delivered + out.metrics.tasks_discarded
    );
    assert!(list
        .iter()
        .any(|e| matches!(e.kind, EventKind::Dispatch { id: _, .. })));
    assert!(list
        .iter()
        .any(|e| matches!(e.kind, EventKind::TaskStart { id: _, .. })));
    let _ = |e: &TraceEvent| matches!(e.kind, EventKind::Park);
    let health: SpecHealth = log.health();
    let _: [u64; 3] = [
        health.check_latency.p50,
        health.wasted_us,
        health.max_cascade,
    ];

    // Metered: the PR 9 clocks, read back from the caller's hub.
    let hub = MetricsHub::enabled(WORKERS);
    let out = metered(data, &cfg, WORKERS, &*at_once, 1, hub.clone());
    assert!(hub.counter_total(Counter::TimeRunUs) > 0);
    assert_eq!(
        hub.counter_total(Counter::TimeRunUs) + hub.counter_total(Counter::TimeCheckUs),
        out.metrics.busy_us
    );
    let _: [u64; 4] = [
        Counter::TimeStealUs,
        Counter::TimeParkUs,
        Counter::TimeCommitUs,
        Counter::TimeRouterWaitUs,
    ]
    .map(|c| hub.counter_total(c));

    // Checkpointed at the default cadence: completes, `into_outcome`.
    let dir = std::env::temp_dir().join(format!("tvs-seam-{}", std::process::id()));
    let dir: &Path = &dir;
    cfg.checkpoint = Some(CheckpointConfig::at_default_cadence(dir));
    let done: CheckpointedRun = checkpointed(data, &cfg, WORKERS, &*at_once, 1);
    read_outcome(done.into_outcome(), data);
    let _ = std::fs::remove_dir_all(dir);

    // `sut::workload_new_ns`: the dark constructor.
    let wl: HuffmanWorkload = HuffmanWorkload::new(preset(false, DispatchPolicy::Balanced), 4096);
    drop(wl);
}

/// The kernels `sut::Replay` and `sut::first_break` are made of.
#[test]
fn kernel_seam_keeps_its_signatures() {
    let data = &generate_paper_sized(FileKind::Pdf, 7)[..16 * BLOCK_BYTES];
    let hists: Vec<Histogram> = data
        .chunks(BLOCK_BYTES)
        .map(Histogram::from_bytes)
        .collect();
    let global: Histogram = Histogram::merged(&hists);
    let mut seen = Histogram::new();
    seen.accumulate(data);
    let mut acc = Histogram::new();
    for b in data.chunks(BLOCK_BYTES) {
        let _: Histogram = Histogram::count_into(b, &mut acc);
    }
    let _: (f64, f64) = (global.entropy_bits(), hists[0].tv_distance(&global));
    let lengths: CodeLengths = CodeLengths::build(&global).expect("not empty");
    let covering: CodeLengths = CodeLengths::build_covering(&hists[0]).expect("not empty");
    let _: f64 = relative_cost_delta(&covering, &lengths, &global);
    let _ = tolerance_verdict(&covering, &lengths, &global, 0.01);
    let table: CodeTable = CodeTable::from_lengths(&lengths);
    let mut chain = OffsetChain::new();
    let _ = chain.extend_group(&hists, &table);
    let encoded: Vec<EncodedBlock> = data
        .chunks(BLOCK_BYTES)
        .map(|b| encode_block(b, &table).expect("the table covers the input"))
        .collect();
    let mut scratch: EncodedBlock = encoded[0].clone();
    let _ = encode_block_into(&data[..BLOCK_BYTES], &table, &mut scratch);
    let (stream, bits): (Vec<u8>, u64) = concat_blocks(&encoded);
    assert!(decode_exact(&stream, 0, bits, data.len(), &table).is_ok_and(|back| back == data));
}

/// `sut::engine_round_ns` and the harness's own JSON reading.
#[test]
fn engine_and_json_seam_keep_their_signatures() {
    let mut undo: UndoLog<Box<dyn FnOnce()>> = UndoLog::new();
    let mut buffer: WaitBuffer<u64> = WaitBuffer::new();
    let mut committed: Vec<(u64, u64)> = Vec::new();
    for version in 1..=3 as SpecVersion {
        undo.record(version, Box::new(|| {}));
        buffer.push(version, 0, u64::from(version));
        if version % 3 == 0 {
            undo.abort(version);
            buffer.abort(version);
        } else {
            undo.commit(version);
            committed.clear();
            buffer.commit_into(version, &mut committed);
        }
    }
    assert_eq!(committed, [(0, 2)]);

    let v = json::parse(r#"{"ok": true, "n": 3, "x": 0.5, "s": "u", "a": [1], "o": {"k": 1}}"#)
        .expect("parses");
    assert!(matches!(v.get("ok"), Some(json::Value::Bool(true))));
    assert_eq!(v.get("n").and_then(json::Value::as_u64), Some(3));
    assert_eq!(v.get("x").and_then(json::Value::as_f64), Some(0.5));
    assert_eq!(v.get("s").and_then(json::Value::as_str), Some("u"));
    assert_eq!(
        v.get("a").and_then(json::Value::as_arr).map(<[_]>::len),
        Some(1)
    );
    let obj = v.get("o").and_then(json::Value::as_obj).expect("object");
    let entries: Vec<(&str, Option<u64>)> =
        obj.iter().map(|(k, v)| (k.as_str(), v.as_u64())).collect();
    assert_eq!(entries, [("k", Some(1))]);
}
