//! Micro-benchmarks of the Huffman substrate: the real costs of the
//! pipeline's task bodies (count, reduce, tree, offset, encode, check),
//! which the discrete-event cost model abstracts.
//!
//! Run with `cargo bench --bench huffman_micro`; numbers land in
//! `results/huffman_micro.csv`.
//!
//! Set `TVS_EMIT_TRACE=1` to additionally write one traced pipeline run's
//! event log to `results/huffman_micro_trace.json` (Perfetto) and
//! `results/huffman_micro_trace_events.csv` — the substrate numbers next
//! to the schedule that exercises them.

use tvs_bench::microbench::{bench, bench_with, black_box, Measurement, Opts};
use tvs_bench::results_dir;
use tvs_huffman::{
    encode_block, relative_cost_delta, serial_encode, CodeLengths, CodeTable, Histogram,
};
use tvs_workloads::FileKind;

fn data_4k(kind: FileKind) -> Vec<u8> {
    tvs_workloads::generate(kind, 4096, 99)
}

fn bench_count(rows: &mut Vec<Measurement>) {
    for kind in FileKind::ALL {
        let block = data_4k(kind);
        rows.push(bench_with(
            &format!("count/{}", kind.label()),
            Opts::throughput(4096),
            || Histogram::from_bytes(black_box(&block)),
        ));
    }
}

/// The pre-fix tail handling of `Histogram::accumulate`: remainder bytes
/// all feed lane 0. Kept here (not in the library) so `count_tail/*`
/// reports a before/after delta for the unrolled-lane tail change.
fn count_tail_lane0(data: &[u8]) -> Histogram {
    let mut h = Histogram::new();
    let mut lanes = [[0u32; 256]; 4];
    let mut chunks = data.chunks_exact(4);
    for c in &mut chunks {
        lanes[0][c[0] as usize] += 1;
        lanes[1][c[1] as usize] += 1;
        lanes[2][c[2] as usize] += 1;
        lanes[3][c[3] as usize] += 1;
    }
    for &b in chunks.remainder() {
        lanes[0][b as usize] += 1;
    }
    for (i, c) in h.counts_mut().iter_mut().enumerate() {
        *c += lanes[0][i] as u64 + lanes[1][i] as u64 + lanes[2][i] as u64 + lanes[3][i] as u64;
    }
    h
}

fn bench_count_tail(rows: &mut Vec<Measurement>) {
    // Worst case for the tail: an unaligned block of equal bytes. 4095
    // bytes = 1023 unrolled chunks + a 3-byte remainder every call.
    let block = vec![7u8; 4095];
    rows.push(bench_with(
        "count_tail/before_lane0",
        Opts::throughput(4095),
        || count_tail_lane0(black_box(&block)),
    ));
    rows.push(bench_with(
        "count_tail/after_spread",
        Opts::throughput(4095),
        || Histogram::from_bytes(black_box(&block)),
    ));
}

fn bench_reduce(rows: &mut Vec<Measurement>) {
    let data = tvs_workloads::generate(FileKind::Text, 16 * 4096, 99);
    let parts: Vec<Histogram> = data.chunks(4096).map(Histogram::from_bytes).collect();
    rows.push(bench("reduce_16_histograms", || {
        Histogram::merged(black_box(&parts))
    }));
}

fn bench_tree_build(rows: &mut Vec<Measurement>) {
    for kind in FileKind::ALL {
        let data = tvs_workloads::generate(kind, 1 << 20, 99);
        let hist = Histogram::from_bytes(&data);
        rows.push(bench(&format!("tree/exact/{}", kind.label()), || {
            CodeLengths::build(black_box(&hist)).unwrap()
        }));
        rows.push(bench(&format!("tree/covering/{}", kind.label()), || {
            CodeLengths::build_covering(black_box(&hist)).unwrap()
        }));
    }
}

fn bench_encode(rows: &mut Vec<Measurement>) {
    for kind in FileKind::ALL {
        let data = tvs_workloads::generate(kind, 1 << 20, 99);
        let table = CodeTable::build(&Histogram::from_bytes(&data)).unwrap();
        let block = data[..4096].to_vec();
        rows.push(bench_with(
            &format!("encode_4k/{}", kind.label()),
            Opts::throughput(4096),
            || encode_block(black_box(&block), black_box(&table)).unwrap(),
        ));
    }
}

fn bench_check(rows: &mut Vec<Measurement>) {
    // The paper's check task: compressed-size comparison of two trees.
    let data = tvs_workloads::generate(FileKind::Pdf, 1 << 20, 99);
    let early = Histogram::from_bytes(&data[..data.len() / 8]);
    let full = Histogram::from_bytes(&data);
    let spec = CodeLengths::build_covering(&early).unwrap();
    let cand = CodeLengths::build_covering(&full).unwrap();
    rows.push(bench("check_cost_delta", || {
        relative_cost_delta(black_box(&spec), black_box(&cand), black_box(&full))
    }));
}

fn bench_offsets(rows: &mut Vec<Measurement>) {
    let data = tvs_workloads::generate(FileKind::Text, 64 * 4096, 99);
    let table = CodeTable::build(&Histogram::from_bytes(&data)).unwrap();
    let hists: Vec<Histogram> = data.chunks(4096).map(Histogram::from_bytes).collect();
    rows.push(bench("offset_group_64", || {
        let mut chain = tvs_huffman::OffsetChain::new();
        chain
            .extend_group(black_box(&hists), black_box(&table))
            .unwrap()
    }));
}

fn bench_serial_reference(rows: &mut Vec<Measurement>) {
    let data = tvs_workloads::generate(FileKind::Text, 1 << 20, 99);
    rows.push(bench_with(
        "serial_two_pass/text_1mb",
        Opts {
            bytes: Some(1 << 20),
            ..Opts::heavy()
        },
        || serial_encode(black_box(&data)).unwrap(),
    ));
}

fn bench_workload_generation(rows: &mut Vec<Measurement>) {
    for kind in FileKind::ALL {
        rows.push(bench_with(
            &format!("generate_1mb/{}", kind.label()),
            Opts {
                samples: 6,
                sample_ms: 30,
                bytes: Some(1 << 20),
            },
            || tvs_workloads::generate(black_box(kind), 1 << 20, 99),
        ));
    }
}

fn main() {
    let mut rows = Vec::new();
    bench_count(&mut rows);
    bench_count_tail(&mut rows);
    bench_reduce(&mut rows);
    bench_tree_build(&mut rows);
    bench_encode(&mut rows);
    bench_check(&mut rows);
    bench_offsets(&mut rows);
    bench_serial_reference(&mut rows);
    bench_workload_generation(&mut rows);
    tvs_bench::microbench::write_csv(&results_dir().join("huffman_micro.csv"), &rows)
        .expect("write csv");

    if std::env::var_os("TVS_EMIT_TRACE").is_some() {
        let data = tvs_workloads::generate(FileKind::Text, 256 * 1024, 99);
        let mut cfg =
            tvs_pipelines::config::HuffmanConfig::disk_x86(tvs_sre::DispatchPolicy::Aggressive);
        // Step 0 predicts from the first block so the small input still
        // exercises the full speculation lifecycle.
        cfg.schedule = tvs_core::SpeculationSchedule::with_step(0);
        let (_, log) = tvs_bench::sim_events(
            &data,
            &cfg,
            &tvs_sre::x86_smp(8),
            &tvs_iosim::Disk::default(),
        );
        let (json, csv) = tvs_bench::write_trace(&log, &results_dir(), "huffman_micro_trace")
            .expect("write trace files");
        println!("traced run -> {}", json.display());
        println!("traced run -> {}", csv.display());
    }
}
