//! A finished run's checkpoint journal is the compressed file, and
//! [`decompress`] is total on it: every input round-trips, and a flipped,
//! cut, random or forged journal — forged with valid checksums, so that
//! only the fields' meaning is wrong — is a structured error or the exact
//! input, never a panic, a different output or an allocation sized by a
//! field the stream cannot back.

use std::path::{Path, PathBuf};
use tvs_core::checkpoint::{input_digest, JOURNAL_FILE};
use tvs_core::{CheckpointConfig, Journal, ResumeError, StreamSnapshot};
use tvs_huffman::{encode_block, CodeLengths, CodeTable};
use tvs_iosim::Uniform;
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::huffman::{decompress, DecompressError};
use tvs_pipelines::runner::{run_huffman, HuffmanRun};
use tvs_rng::{bytes, cases};
use tvs_sre::{x86_smp, DispatchPolicy};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tvs-decompress-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The file `dir` holds: its journal, and nothing else.
fn only_journal(dir: &Path) -> Vec<u8> {
    let names: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(names, [JOURNAL_FILE]);
    let bytes = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
    let _ = std::fs::remove_dir_all(dir);
    bytes
}

/// The journal of a finished simulator run over `data`: blocks of 512
/// bytes, every block due at once, a record every 2 blocks. An empty input
/// has no block: its journal is the header alone.
fn journal_of(data: &[u8], name: &str) -> Vec<u8> {
    let dir = scratch(name);
    let mut cfg = HuffmanConfig::disk_x86(DispatchPolicy::Balanced);
    cfg.block_bytes = 512;
    cfg.reduce_ratio = 2;
    cfg.offset_fanout = 2;
    cfg.checkpoint = Some(CheckpointConfig::new(2, &dir));
    let at_once = Uniform {
        gap_us: 0,
        start_us: 0,
    };
    let run = HuffmanRun::sim(data, &cfg, &x86_smp(2), &at_once);
    run_huffman(&run)
        .expect("nothing injected")
        .end
        .into_outcome();
    only_journal(&dir)
}

/// A journal with header `head` and one record of blocks with `bits` each
/// over `stream`, every checksum valid.
fn forged(head: StreamSnapshot, bits: &[u64], stream: &[u8], name: &str) -> Vec<u8> {
    let dir = scratch(name);
    let mut journal = Journal::new(&dir);
    let lineage = |i: usize| [0, 0, bits[i]];
    journal.write(|| head, bits.len(), lineage, stream).unwrap();
    journal.trim().unwrap();
    only_journal(&dir)
}

/// A header for `src_len` bytes in blocks of 4 KiB, under `lengths`.
fn head(src_len: u64, lengths: &[u8]) -> StreamSnapshot {
    StreamSnapshot {
        src_len,
        block_bytes: 4096,
        code_lengths: lengths.to_vec(),
        ..StreamSnapshot::default()
    }
}

/// Two-bit codes for symbols 0..4.
fn four_codes() -> Vec<u8> {
    (0..=255u8).map(|s| if s < 4 { 2 } else { 0 }).collect()
}

fn bad_field(field: &'static str) -> Result<Vec<u8>, DecompressError> {
    Err(DecompressError::Journal(ResumeError::BadField(field)))
}

#[test]
fn round_trip_through_a_finished_journal() {
    let data = b"journals make streams portable".repeat(100);
    let journal = journal_of(&data, "round-trip");
    assert!(
        journal.len() < data.len(),
        "text compresses, lineage and all"
    );
    assert_eq!(decompress(&journal).unwrap(), data);
}

#[test]
fn empty_input_round_trips() {
    let journal = journal_of(b"", "empty");
    let r = StreamSnapshot::replay(&journal).unwrap();
    assert_eq!((r.snapshot.src_len, r.records, r.ignored_bytes), (0, 0, 0));
    assert!(r.snapshot.code_lengths.iter().all(|&l| l == 0));
    assert_eq!(decompress(&journal).unwrap(), Vec::<u8>::new());
}

#[test]
fn replay_exposes_the_source_and_bit_lengths() {
    let data = vec![b'z'; 500];
    let r = StreamSnapshot::replay(&journal_of(&data, "fields")).unwrap();
    assert_eq!((r.snapshot.src_len, r.snapshot.n_blocks()), (500, 1));
    assert_eq!(r.snapshot.stream_bit_len, 500); // one symbol: 1 bit each
}

#[test]
fn truncated_header_rejected() {
    let journal = journal_of(b"hello world", "short-head");
    assert_eq!(
        decompress(&journal[..100]),
        Err(DecompressError::Journal(ResumeError::Truncated))
    );
}

#[test]
fn bad_magic_rejected() {
    let mut journal = journal_of(b"hello world", "magic");
    journal[0] = b'X';
    assert_eq!(decompress(&journal), bad_field("magic"));
}

#[test]
fn short_payload_rejected() {
    // A journal cut anywhere in its records is the resume state of a run
    // that did not finish.
    let data = b"some reasonable amount of text here".repeat(200);
    let journal = journal_of(&data, "short");
    let r = StreamSnapshot::replay(&journal).unwrap();
    assert!(r.records > 1);
    let n = r.snapshot.n_blocks();
    for cut in [journal.len() - 1, journal.len() - 9, 400] {
        assert!(matches!(
            decompress(&journal[..cut]),
            Err(DecompressError::Incomplete { prefix, n_blocks }) if prefix < n && n_blocks == n
        ));
    }
}

#[test]
fn every_flipped_byte_is_rejected_or_exact() {
    // The checksums see every flip: a damaged journal never decodes to a
    // different output.
    let data = b"corruption should fail loudly, never decode differently".repeat(20);
    let journal = journal_of(&data, "flip");
    for i in 0..journal.len() {
        for flip in [0x01u8, 0xFF] {
            let mut bad = journal.clone();
            bad[i] ^= flip;
            if let Ok(back) = decompress(&bad) {
                assert_eq!(back, data, "byte {i} ^ {flip:#x}");
            }
        }
    }
}

#[test]
fn kraft_violation_rejected() {
    let mut lengths = vec![0u8; 256];
    lengths[..3].fill(1);
    let journal = forged(head(2, &lengths), &[8], &[0], "kraft");
    assert_eq!(decompress(&journal), bad_field("code_lengths"));
}

#[test]
fn all_zero_lengths_with_a_non_empty_source_rejected() {
    let journal = forged(head(2, &[0; 256]), &[8], &[0], "zero-lengths");
    assert_eq!(decompress(&journal), bad_field("code_lengths"));
}

#[test]
fn oversized_src_len_rejected_before_allocating() {
    // Every input byte takes at least one bit: a source longer than the
    // stream's bits is rejected before anything is sized by it.
    let journal = forged(
        head(5_000, &four_codes()),
        &[8, 8],
        &[0x1B, 0x1B],
        "src-len",
    );
    assert_eq!(decompress(&journal), bad_field("src_len"));
    let mut huge = head(u64::MAX, &four_codes());
    huge.block_bytes = u64::MAX;
    let journal = forged(huge, &[8], &[0x1B], "src-len-max");
    assert_eq!(decompress(&journal), bad_field("src_len"));
}

#[test]
fn an_incomplete_journal_is_not_a_file() {
    // Two blocks' worth of source, one block's record.
    let journal = forged(head(4097, &four_codes()), &[8], &[0x1B], "incomplete");
    assert_eq!(
        decompress(&journal),
        Err(DecompressError::Incomplete {
            prefix: 1,
            n_blocks: 2
        })
    );
}

#[test]
fn a_zero_block_size_rejected() {
    let mut zero = head(4, &four_codes());
    zero.block_bytes = 0;
    let journal = forged(zero, &[], &[], "block-bytes");
    assert_eq!(decompress(&journal), bad_field("block_bytes"));
}

#[test]
fn a_forged_complete_journal_decodes() {
    // The forging helper itself writes a file `decompress` reads: symbols
    // 0, 1, 2, 3 as 00 01 10 11.
    let bound = StreamSnapshot {
        input_digest: input_digest(&[0, 1, 2, 3]),
        ..head(4, &four_codes())
    };
    let journal = forged(bound, &[8], &[0x1B], "forged");
    assert_eq!(decompress(&journal).unwrap(), [0, 1, 2, 3]);
}

#[test]
fn a_stream_that_decodes_to_other_bytes_rejected() {
    // Valid checksums, a valid table and a stream that decodes — to bytes
    // the header's input digest was not taken from.
    let bound = StreamSnapshot {
        input_digest: input_digest(&[3, 2, 1, 0]),
        ..head(4, &four_codes())
    };
    let journal = forged(bound, &[8], &[0x1B], "other-bytes");
    assert_eq!(decompress(&journal), Err(DecompressError::Digest));
}

/// The Kraft-tight depth-64 table (one symbol at every length 1..=63 plus
/// two at 64) round-trips through a journal's header: the canonical-code
/// accumulators reach exactly 2^64 and must not overflow.
#[test]
fn kraft_tight_depth_64_table_round_trips_through_decompress() {
    let mut lens = [0u8; 256];
    for (i, l) in lens.iter_mut().enumerate().take(63) {
        *l = i as u8 + 1;
    }
    lens[63] = 64;
    lens[64] = 64;
    let table = CodeTable::from_lengths(&CodeLengths::from_lengths(lens).unwrap());
    let data = [0u8, 63, 64, 62, 0];
    let enc = encode_block(&data, &table).unwrap();
    let bound = StreamSnapshot {
        input_digest: input_digest(&data),
        ..head(5, &lens)
    };
    let journal = forged(bound, &[enc.bit_len], &enc.bytes, "depth-64");
    assert_eq!(decompress(&journal).unwrap(), data);
}

/// Round trip for arbitrary inputs, the empty one included; a flipped
/// byte or a cut anywhere is an error or the exact input.
#[test]
fn prop_decompress_round_trip_and_total() {
    cases(0x4F09, 128, |rng, i| {
        let data = if i == 0 {
            Vec::new()
        } else {
            bytes(rng, 1..2048)
        };
        let journal = journal_of(&data, &format!("prop-{i}"));
        assert_eq!(decompress(&journal).unwrap(), data);
        let flip_at = rng.random_range(0..journal.len());
        let mut bad = journal.clone();
        bad[flip_at] ^= 0x5A;
        if let Ok(back) = decompress(&bad) {
            assert_eq!(back, data, "byte {flip_at} flipped");
        }
        let cut = rng.random_range(0..journal.len());
        for cut in [0, 7, 8, 320, cut] {
            if let Ok(back) = decompress(&journal[..cut.min(journal.len())]) {
                assert_eq!(back, data, "cut at {cut}");
            }
        }
    });
}

/// Fully random buffers, half of them behind a real journal's header so
/// that replay reaches the records: every outcome is a structured error or
/// an output the buffer's bits could hold, never a panic.
#[test]
fn prop_decompress_total_on_random_bytes() {
    let header = journal_of(&b"a real header".repeat(50), "random-head")[..320].to_vec();
    cases(0x4F0B, 256, |rng, i| {
        let mut buf = bytes(rng, 0..1024);
        if i % 2 == 0 {
            buf.splice(0..0, header.iter().copied());
        }
        if let Ok(back) = decompress(&buf) {
            assert!(back.len() as u64 <= buf.len() as u64 * 8);
        }
    });
}
