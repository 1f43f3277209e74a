//! Quickstart: speculative vs non-speculative Huffman encoding.
//!
//! Generates a 4 MB text-like input, runs the paper's pipeline on the
//! deterministic simulator with and without tolerant value speculation,
//! verifies the committed output decodes back to the input, and prints the
//! latency/runtime gains.
//!
//! Run with: `cargo run --release --example quickstart`

use tvs_iosim::Disk;
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::runner::{run_huffman, HuffmanRun};
use tvs_sre::{x86_smp, DispatchPolicy};
use tvs_workloads::FileKind;

fn main() {
    let data = tvs_workloads::generate_paper_sized(FileKind::Text, 42);
    let platform = x86_smp(16);
    let disk = Disk::default();

    println!("input: {} bytes of synthetic e-book text", data.len());

    // Baseline: the classic two-pass pipeline, no speculation.
    let base_cfg = HuffmanConfig::disk_x86(DispatchPolicy::NonSpeculative);
    // One way in: describe the run, run it. A dark run (no recorder, no
    // fault plan) cannot fail.
    let sim = |cfg| {
        let report = run_huffman(&HuffmanRun::sim(&data, cfg, &platform, &disk));
        report.expect("a dark run cannot fail").end.into_outcome()
    };
    let base = sim(&base_cfg);

    // Speculative: guess the Huffman tree from prefix histograms, verify
    // within a 1 % compressed-size tolerance, roll back on misprediction.
    let mut spec_cfg = HuffmanConfig::disk_x86(DispatchPolicy::Balanced);
    spec_cfg.collect_output = true;
    let spec = sim(&spec_cfg);

    // The committed stream must decode back to the input.
    let (bytes, bits, lengths) = spec.result.output.as_ref().expect("output collected");
    let table = tvs_huffman::CodeTable::from_lengths(lengths);
    let decoded = tvs_huffman::decode_exact(bytes, 0, *bits, data.len(), &table)
        .expect("committed stream decodes");
    assert_eq!(decoded, data, "round-trip failed");

    println!("\n                      non-spec    balanced(spec)");
    println!(
        "mean latency (us)   {:>10.0}    {:>10.0}   ({:+.1}%)",
        base.mean_latency(),
        spec.mean_latency(),
        (spec.mean_latency() / base.mean_latency() - 1.0) * 100.0
    );
    println!(
        "completion (us)     {:>10}    {:>10}   ({:+.1}%)",
        base.completion_time(),
        spec.completion_time(),
        (spec.completion_time() as f64 / base.completion_time() as f64 - 1.0) * 100.0
    );
    println!(
        "compression ratio   {:>10.3}    {:>10.3}",
        base.result.compression_ratio(),
        spec.result.compression_ratio()
    );
    let stats = spec.result.spec_stats.expect("speculative run");
    println!(
        "\nspeculation: {} prediction(s), {} check(s), {} rollback(s), committed version {:?}",
        stats.predictions, stats.checks, stats.rollbacks, spec.result.committed_version
    );
    println!("output verified: {bits} bits decode byte-exactly to the input");
}
