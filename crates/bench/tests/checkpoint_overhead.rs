//! Checkpoint-overhead guard: a threaded Huffman run journalling at the
//! default cadence (every 16 committed blocks) must stay close to the
//! same run with checkpointing disabled, in the coarse-grain streaming
//! regime the paper targets — 4 KiB blocks arriving at a disk-like pace,
//! where a run is dominated by I/O and task bodies, not runtime
//! bookkeeping. The commit path appends each cadence step's newly
//! committed blocks to the journal, once; this guard keeps that cheap.
//!
//! The lenient default (always on) only guards against a pathological
//! regression (2× floor — e.g. the whole committed prefix rewritten on
//! every write, or a per-block write cadence), since shared CI boxes are
//! too noisy for a tight bound. Under `TVS_CHECKPOINT_STRICT=1` — the CI
//! chaos job, which times the two runs back to back on a single test
//! thread — the bound is the design budget: checkpointing within 3 % of
//! disabled.

use std::time::Instant;
use tvs_core::CheckpointConfig;
use tvs_iosim::Uniform;
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::runner::{run_huffman, HuffmanRun};
use tvs_sre::DispatchPolicy;
use tvs_workloads::FileKind;

/// 128 blocks of 4 KiB arriving every 500 µs: a ~64 ms run, 7 journal
/// records at the default cadence.
const BYTES: usize = 512 * 1024;
const GAP_US: u64 = 500;

fn cfg() -> HuffmanConfig {
    HuffmanConfig::disk_x86(DispatchPolicy::Balanced)
}

/// Median wall-seconds over `reps` threaded runs, checkpointed at the
/// default cadence or not at all.
fn median_secs(data: &[u8], checkpointed: bool, reps: usize) -> f64 {
    let arrival = Uniform {
        gap_us: GAP_US,
        start_us: 0,
    };
    let dir = std::env::temp_dir().join(format!("tvs-ckpt-overhead-{}", std::process::id()));
    let mut secs: Vec<f64> = (0..reps)
        .map(|_| {
            let mut c = cfg();
            if checkpointed {
                c.checkpoint = Some(CheckpointConfig::at_default_cadence(&dir));
            }
            let t = Instant::now();
            let report = run_huffman(&HuffmanRun::threaded(data, &c, 4, &arrival, 1));
            let out = report.expect("a dark run cannot fail").end.into_outcome();
            assert_eq!(out.result.blocks.len(), c.n_blocks(data.len()));
            t.elapsed().as_secs_f64()
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    secs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    secs[secs.len() / 2]
}

#[test]
fn checkpoint_overhead_stays_within_budget() {
    const REPS: usize = 5;
    let data = tvs_workloads::generate(FileKind::Text, BYTES, 2011);
    // Warm up both paths (thread spawn, allocator, tmpfs) before measuring.
    median_secs(&data, false, 1);
    median_secs(&data, true, 1);

    let off = median_secs(&data, false, REPS);
    let on = median_secs(&data, true, REPS);
    let ratio = on / off;
    println!(
        "checkpoint overhead at default cadence: off={:.3} ms, on={:.3} ms, ratio={ratio:.3}x",
        off * 1e3,
        on * 1e3
    );
    let strict = std::env::var("TVS_CHECKPOINT_STRICT").as_deref() == Ok("1");
    let ceiling = if strict { 1.03 } else { 2.0 };
    assert!(
        ratio <= ceiling,
        "checkpointed run {ratio:.3}x slower than plain \
         (ceiling {ceiling}x, strict={strict})"
    );
}
