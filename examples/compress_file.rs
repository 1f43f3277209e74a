//! Compress or decompress a real file with the speculative pipeline.
//!
//! Compressing runs the paper's speculative Huffman pipeline on the threaded
//! executor (the file is in memory: every block is due at once) with its
//! checkpoint journal in a directory next to the output. A finished run's
//! journal holds the code lengths, every stream byte in order and the exact
//! bit length, so it is the compressed file: once it is checked complete,
//! it is renamed to the output path, and the stream is written once.
//! Decompressing replays the journal and decodes its stream
//! (`tvs_pipelines::huffman::decompress`).
//!
//! Usage:
//!   cargo run --release --example compress_file -- compress   <in> <out>
//!   cargo run --release --example compress_file -- decompress <in> <out>
//!
//! With no arguments, a self-test compresses a generated input to a temp
//! file and round-trips it.

use std::path::{Path, PathBuf};
use tvs_core::checkpoint::JOURNAL_FILE;
use tvs_core::{CheckpointConfig, StreamSnapshot};
use tvs_iosim::Uniform;
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::huffman::decompress;
use tvs_pipelines::runner::{run_huffman, HuffmanRun};
use tvs_sre::DispatchPolicy;

/// Compress `data` into the file `out` and return its size in bytes.
fn compress(data: &[u8], out: &Path) -> u64 {
    let mut dir = PathBuf::from(out);
    dir.as_mut_os_string().push(".ckpt");
    let mut cfg = HuffmanConfig::disk_x86(DispatchPolicy::Balanced);
    cfg.checkpoint = Some(CheckpointConfig::at_default_cadence(&dir));
    let in_memory = Uniform {
        gap_us: 0,
        start_us: 0,
    };
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let run = HuffmanRun::threaded(data, &cfg, workers, &in_memory, 1);
    let outcome = run_huffman(&run).expect("a dark run cannot fail");
    let outcome = outcome.end.into_outcome();
    eprintln!(
        "encoded {} blocks on {} workers in {} us ({} rollback(s), ratio {:.3})",
        outcome.result.blocks.len(),
        workers,
        outcome.metrics.makespan,
        outcome.metrics.rollbacks,
        outcome.result.compression_ratio()
    );
    // A journal write that failed is absorbed by the run: check that the
    // journal on disk holds every block before it becomes the file.
    let journal = dir.join(JOURNAL_FILE);
    let bytes = std::fs::read(&journal).expect("read the journal");
    let snap = StreamSnapshot::replay(&bytes).expect("a journal").snapshot;
    assert_eq!(snap.prefix, snap.n_blocks(), "the journal is complete");
    std::fs::rename(&journal, out).expect("move the journal to the output");
    std::fs::remove_dir(&dir).expect("the directory holds nothing else");
    bytes.len() as u64
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => {
            // Self-test.
            let data = tvs_workloads::generate(tvs_workloads::FileKind::Text, 1 << 20, 5);
            let out = std::env::temp_dir().join(format!("tvs-compress-{}", std::process::id()));
            let size = compress(&data, &out);
            let back = decompress(&std::fs::read(&out).expect("read back")).expect("decodes");
            let _ = std::fs::remove_file(&out);
            assert_eq!(back, data);
            println!(
                "self-test ok: {} -> {} bytes ({:.1}% of original), round-trip verified",
                data.len(),
                size,
                size as f64 * 100.0 / data.len() as f64
            );
        }
        [mode, input, output] if mode == "compress" => {
            let data = std::fs::read(input).expect("read input");
            let size = compress(&data, Path::new(output));
            println!("{} -> {} bytes -> {}", data.len(), size, output);
        }
        [mode, input, output] if mode == "decompress" => {
            let packed = std::fs::read(input).expect("read input");
            let data = decompress(&packed).expect("a finished run's journal");
            std::fs::write(output, &data).expect("write output");
            println!("{} -> {} bytes -> {}", packed.len(), data.len(), output);
        }
        _ => {
            eprintln!("usage: compress_file [compress|decompress] <in> <out>");
            std::process::exit(2);
        }
    }
}
