//! End-to-end pipeline correctness across executors, inputs and
//! configurations.

use tvs_huffman::{decode_exact, serial_encode, CodeLengths, CodeTable, Histogram};
use tvs_iosim::{ArrivalModel, Custom, Disk, Uniform};
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::runner::{run_huffman, HuffmanRun, RunOutcome};
use tvs_sre::{cell_be, x86_smp, DispatchPolicy, Platform};
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

fn decode_and_check(out: &RunOutcome, input: &[u8]) {
    let (bytes, bits, lengths) = out.result.output.as_ref().expect("output collected");
    let table = CodeTable::from_lengths(lengths);
    let decoded = decode_exact(bytes, 0, *bits, input.len(), &table).expect("stream decodes");
    assert_eq!(decoded, input, "committed stream must decode to the input");
}

fn cfg(policy: DispatchPolicy) -> HuffmanConfig {
    HuffmanConfig {
        collect_output: true,
        ..HuffmanConfig::disk_x86(policy)
    }
}

#[test]
fn non_speculative_equals_serial_reference_on_all_kinds() {
    for kind in FileKind::ALL {
        let data = tvs_workloads::generate(kind, 1 << 20, 11);
        let out = sim_outcome(
            &data,
            &cfg(DispatchPolicy::NonSpeculative),
            &x86_smp(16),
            &Disk::default(),
        );
        decode_and_check(&out, &data);
        let serial = serial_encode(&data).unwrap();
        assert_eq!(
            out.result.compressed_bits, serial.bit_len,
            "{kind:?}: non-speculative output must match the serial reference"
        );
        assert_eq!(out.metrics.rollbacks, 0);
        assert_eq!(out.metrics.tasks_discarded, 0);
        // Bit for bit, whatever order the blocks were placed in: the
        // simulator's, and two real workers'.
        let everything_at_once = Uniform {
            gap_us: 0,
            start_us: 0,
        };
        let threaded = |policy| threaded_outcome(&data, &cfg(policy), 2, &everything_at_once, 1);
        for out in [&out, &threaded(DispatchPolicy::NonSpeculative)] {
            let (bytes, bits, _) = out.result.output.as_ref().expect("output collected");
            assert_eq!(*bits, serial.bit_len, "{kind:?}");
            assert!(
                *bytes == serial.bytes,
                "{kind:?}: stream differs from serial"
            );
        }
        decode_and_check(&threaded(DispatchPolicy::Balanced), &data);
    }
}

#[test]
fn speculative_output_decodes_on_all_kinds_and_policies() {
    for kind in FileKind::ALL {
        let data = tvs_workloads::generate(kind, 1 << 20, 12);
        for policy in [
            DispatchPolicy::Balanced,
            DispatchPolicy::Aggressive,
            DispatchPolicy::Conservative,
        ] {
            let out = sim_outcome(&data, &cfg(policy), &x86_smp(16), &Disk::default());
            decode_and_check(&out, &data);
        }
    }
}

#[test]
fn committed_speculation_is_within_tolerance_of_optimal() {
    let data = tvs_workloads::generate(FileKind::Text, 2 << 20, 13);
    let out = sim_outcome(
        &data,
        &cfg(DispatchPolicy::Balanced),
        &x86_smp(16),
        &Disk::default(),
    );
    assert!(
        out.result.committed_version.is_some(),
        "stationary text must commit"
    );
    let serial = serial_encode(&data).unwrap();
    let excess = out.result.compressed_bits as f64 / serial.bit_len as f64 - 1.0;
    assert!(
        excess <= 0.01 + 1e-9,
        "committed stream exceeds the 1% tolerance: {excess}"
    );
}

#[test]
fn cell_platform_runs_all_kinds() {
    for kind in FileKind::ALL {
        let data = tvs_workloads::generate(kind, 1 << 20, 14);
        let c = HuffmanConfig {
            collect_output: true,
            ..HuffmanConfig::disk_cell(DispatchPolicy::Balanced)
        };
        let out = sim_outcome(&data, &c, &cell_be(16), &Disk::default());
        decode_and_check(&out, &data);
    }
}

#[test]
fn simulation_is_fully_deterministic() {
    let data = tvs_workloads::generate(FileKind::Pdf, 1 << 20, 15);
    let run = || {
        sim_outcome(
            &data,
            &cfg(DispatchPolicy::Aggressive),
            &x86_smp(16),
            &Disk::default(),
        )
    };
    let (a, b) = (run(), run());
    assert_eq!(a.latencies(), b.latencies());
    assert_eq!(a.completion_time(), b.completion_time());
    assert_eq!(a.metrics.rollbacks, b.metrics.rollbacks);
    assert_eq!(a.metrics.busy_us, b.metrics.busy_us);
    assert_eq!(a.result.compressed_bits, b.result.compressed_bits);
}

#[test]
fn threaded_and_sim_executors_produce_identical_streams() {
    // Timing differs wildly, but the committed *content* of a no-rollback
    // run is executor-independent.
    let data = tvs_workloads::generate(FileKind::Text, 256 * 1024, 16);
    let arrival = Uniform {
        gap_us: 1,
        start_us: 0,
    };
    let sim = sim_outcome(&data, &cfg(DispatchPolicy::Balanced), &x86_smp(8), &arrival);
    let thr = threaded_outcome(
        &data,
        &cfg(DispatchPolicy::Balanced),
        8,
        &arrival,
        1_000_000,
    );
    decode_and_check(&sim, &data);
    decode_and_check(&thr, &data);
}

#[test]
fn every_grain_on_either_executor_commits_the_same_stream() {
    // grain × executor × {NonSpeculative, Balanced} × {stationary,
    // drifting}: 64 blocks in 16 reduce groups, arriving one by one (per
    // block), all but the last at once on 2 workers (one chunk per group)
    // or on 17 (fewer whole groups than workers: per block again). The
    // grain must not reach the output: every run commits the same stream,
    // which is the serial codec's under the committed code. The third input
    // ends in a short block and a short group; every run borrows it from
    // this frame, so a run that held on to it could not compile. The last
    // block is due 1 µs after the rest, so no schedule has every block due
    // at one instant: every run predicts from the prefix, while an input
    // due at once would sample its first prediction.
    let stationary = tvs_workloads::generate(FileKind::Text, 128 * 1024, 20);
    let drifting = drifting(128 * 1024);
    let ragged: Vec<u8> = tvs_workloads::generate(FileKind::Pdf, 97 * 1024 + 333, 21);
    assert!(!ragged.len().is_multiple_of(2048));
    let inputs = [
        ("stationary", &stationary),
        ("drifting", &drifting),
        ("ragged", &ragged),
    ];
    for (name, data) in inputs {
        let mut last_late = vec![0; data.len().div_ceil(2048)];
        *last_late.last_mut().expect("non-empty") = 1;
        let one_by_one = Uniform {
            gap_us: 50,
            start_us: 0,
        };
        let last_late = Custom(last_late);
        let grains: [(&dyn ArrivalModel, usize); 3] =
            [(&one_by_one, 2), (&last_late, 2), (&last_late, 17)];
        for policy in [DispatchPolicy::NonSpeculative, DispatchPolicy::Balanced] {
            let c = HuffmanConfig {
                block_bytes: 2048,
                reduce_ratio: 4,
                offset_fanout: 8,
                ..cfg(policy)
            };
            let mut runs = Vec::new();
            for (i, (arrival, workers)) in grains.into_iter().enumerate() {
                let sim = sim_outcome(data, &c, &x86_smp(workers), arrival);
                let threaded = threaded_outcome(data, &c, workers, arrival, 1);
                runs.push((format!("sim, grain {i}, {workers} workers"), sim));
                runs.push((format!("threads, grain {i}, {workers}"), threaded));
            }
            let (_, first) = &runs[0];
            let (bytes, bits, lengths) = first.result.output.as_ref().expect("collected");
            let under_its_code = tvs_huffman::encode_block(data, &CodeTable::from_lengths(lengths))
                .expect("the committed code covers the input");
            assert_eq!(
                (bytes, *bits),
                (&under_its_code.bytes, under_its_code.bit_len)
            );
            if policy == DispatchPolicy::NonSpeculative {
                assert_eq!(bytes, &serial_encode(data).unwrap().bytes, "{name}");
            }
            for (run, out) in &runs {
                assert!(
                    out.result.output == first.result.output,
                    "{name}, {policy:?}, {run}: a different stream"
                );
                assert_eq!(
                    out.result.spec_stats, first.result.spec_stats,
                    "{name}, {policy:?}, {run}: the manager saw a different history"
                );
            }
        }
    }
}

/// `len` bytes: the first half one byte value, the second cycling
/// through 100 others — a prefix that is nothing like the whole.
fn drifting(len: usize) -> Vec<u8> {
    let mut data = vec![b'x'; len / 2];
    data.extend((0..(len - len / 2) as u32).map(|i| 128 + (i % 100) as u8));
    data
}

/// Predictions and rollbacks of a speculative run.
fn spec_counts(out: &RunOutcome) -> (u64, u64) {
    let stats = out.result.spec_stats.expect("a speculative run");
    (stats.predictions, stats.rollbacks)
}

const AT_ONCE: Uniform = Uniform {
    gap_us: 0,
    start_us: 0,
};

const PACED: Uniform = Uniform {
    gap_us: 50,
    start_us: 0,
};

#[test]
fn a_paced_input_is_predicted_from_its_prefix() {
    // Blocks 50 µs apart: the prediction takes the prefix totals and
    // rolls back, where the same input due at once samples it and commits
    // its first version.
    let data = drifting(2 << 20);
    let c = cfg(DispatchPolicy::Balanced);
    let paced = sim_outcome(&data, &c, &x86_smp(8), &PACED);
    assert!(spec_counts(&paced).1 > 0, "the prefix must mispredict");
    decode_and_check(&paced, &data);
    let at_once = sim_outcome(&data, &c, &x86_smp(8), &AT_ONCE);
    assert_eq!(spec_counts(&at_once), (1, 0));
}

#[test]
fn a_cell_run_due_at_once_is_predicted_from_its_prefix() {
    // Every block due at t = 0, but a 128 KiB sample does not fit the
    // Cell's 32 KB local store: the Cell preset predicts from the prefix,
    // committing what its paced run commits, while the same preset on the
    // x86's model samples the input.
    let data = drifting(2 << 20);
    let c = HuffmanConfig {
        collect_output: true,
        ..HuffmanConfig::disk_cell(DispatchPolicy::Balanced)
    };
    let at_once = sim_outcome(&data, &c, &cell_be(8), &AT_ONCE);
    let paced = sim_outcome(&data, &c, &cell_be(8), &PACED);
    assert!(spec_counts(&paced).1 > 0, "the prefix must mispredict");
    assert!(at_once.result.output == paced.result.output);
    assert_eq!(at_once.result.spec_stats, paced.result.spec_stats);
    let sampled = sim_outcome(&data, &c, &x86_smp(8), &AT_ONCE);
    assert_eq!(spec_counts(&sampled), (1, 0));
    decode_and_check(&sampled, &data);
}

#[test]
fn a_spread_sample_commits_the_first_version_where_the_prefix_rolls_back() {
    // Paper-sized PDFs: paced, the prefix's tree fails a check on each;
    // due at once, the spread sample's passes every one.
    let c = cfg(DispatchPolicy::Balanced);
    for seed in 1..=3 {
        let data = tvs_workloads::generate_paper_sized(FileKind::Pdf, seed);
        let rolled = sim_outcome(&data, &c, &x86_smp(8), &PACED);
        assert!(
            spec_counts(&rolled).1 > 0,
            "seed {seed}: the prefix must mispredict"
        );
        let spread = sim_outcome(&data, &c, &x86_smp(8), &AT_ONCE);
        assert_eq!(spec_counts(&spread), (1, 0), "seed {seed}");
        decode_and_check(&spread, &data);
    }
}

#[test]
fn a_restart_after_a_failed_spread_version_predicts_from_the_prefix() {
    // 512 blocks due at once, every 16th one of `x` (the 32 a spread sample
    // counts); of the rest, blocks 144..160 cycle through 100 byte values
    // and the others through 100 different ones. The sample's tree knows
    // only `x` and fails its first check; the promoted candidate has not
    // seen blocks 144..160 and fails too, which trips a one-outcome
    // degradation window twice: speculation is suspended, the next
    // candidate is not promoted, and after the cooldown a probe restarts
    // it. The restart must predict from the prefix totals, which by then
    // hold every byte value, and commit; a second sample would rebuild the
    // tree that failed.
    const BLOCK: usize = 4096;
    let data: Vec<u8> = (0..512 * BLOCK)
        .map(|i| match i / BLOCK {
            b if b % 16 == 0 => b'x',
            144..160 => (i % 100) as u8,
            _ => 128 + (i % 100) as u8,
        })
        .collect();
    let mut c = cfg(DispatchPolicy::Balanced);
    c.verification = tvs_core::VerificationPolicy::Full;
    c.degrade = Some(tvs_core::DegradeConfig {
        window: 1,
        trip_ratio: 0.5,
        clean_windows: 2,
        cooldown: 2,
    });
    let out = sim_outcome(&data, &c, &x86_smp(8), &AT_ONCE);
    let stats = out.result.spec_stats.expect("a speculative run");
    assert_eq!((stats.predictions, stats.rollbacks), (3, 2), "{stats:?}");
    assert_eq!((stats.steps_down, stats.probes), (2, 1), "{stats:?}");
    assert_eq!(out.result.committed_version, Some(3));
    let sampled = CodeLengths::build_covering(&Histogram::from_bytes(&[b'x'; 32 * BLOCK]))
        .expect("non-empty");
    let (_, _, committed) = out.result.output.as_ref().expect("collected");
    assert_ne!(committed, &sampled, "the restart rebuilt the sample's tree");
    decode_and_check(&out, &data);
}

#[test]
fn latency_series_is_complete_and_positive() {
    let data = tvs_workloads::generate(FileKind::Bmp, 1 << 20, 17);
    let out = sim_outcome(
        &data,
        &cfg(DispatchPolicy::Balanced),
        &x86_smp(16),
        &Disk::default(),
    );
    let lat = out.latencies();
    assert_eq!(lat.len(), 256, "one latency per 4 KB block");
    assert!(
        lat.iter().all(|&l| l > 0),
        "every block takes non-zero time"
    );
    assert_eq!(out.arrivals.len(), 256);
}

#[test]
fn compression_ratios_are_plausible_per_kind() {
    // Text compresses well; BMP (quantised texture) moderately; PDF-like
    // (high-entropy streams) least.
    let ratios: Vec<(FileKind, f64)> = FileKind::ALL
        .iter()
        .map(|&kind| {
            let data = tvs_workloads::generate(kind, 1 << 20, 18);
            let out = sim_outcome(
                &data,
                &cfg(DispatchPolicy::NonSpeculative),
                &x86_smp(16),
                &Disk::default(),
            );
            (kind, out.result.compression_ratio())
        })
        .collect();
    let get = |k: FileKind| ratios.iter().find(|(kk, _)| *kk == k).unwrap().1;
    assert!(
        get(FileKind::Text) > 1.5,
        "text ratio {}",
        get(FileKind::Text)
    );
    assert!(get(FileKind::Bmp) > 1.2, "bmp ratio {}", get(FileKind::Bmp));
    assert!(get(FileKind::Pdf) > 1.0, "pdf ratio {}", get(FileKind::Pdf));
    assert!(
        get(FileKind::Text) > get(FileKind::Pdf),
        "text must beat pdf"
    );
}

#[test]
fn tiny_inputs_work_end_to_end() {
    for len in [1usize, 100, 4096, 4097, 8192] {
        let data = tvs_workloads::generate(FileKind::Text, len, 19);
        let out = sim_outcome(
            &data,
            &cfg(DispatchPolicy::Balanced),
            &x86_smp(4),
            &Disk::default(),
        );
        decode_and_check(&out, &data);
        assert_eq!(out.result.blocks.len(), len.div_ceil(4096));
    }
}
