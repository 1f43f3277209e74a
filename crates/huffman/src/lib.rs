//! Huffman coding substrate for the tolerant-value-speculation reproduction.
//!
//! This crate implements everything the paper's benchmark application (a
//! parallel, speculative Huffman encoder) needs from the codec side:
//!
//! * [`Histogram`] / [`BlockCounts`] — mergeable 256-entry
//!   character-frequency histograms (a block's `u32` counts are the output
//!   of the paper's `count` tasks, running `u64` totals the object of its
//!   `reduce` tasks);
//! * [`CodeLengths`] / [`CodeTable`] — deterministic, canonical Huffman code
//!   construction (the paper's serial `tree` task);
//! * [`BitWriter`] / [`BitReader`] — MSB-first bit-level I/O;
//! * [`encode_block`] / [`decode_exact`] — variable-length block encoding and
//!   the decoder used as a round-trip oracle in tests;
//! * [`block_bits`] / [`OffsetChain`] — the bit-offset computation that
//!   parallelises the encode phase (the paper's `offset` tasks);
//! * [`encode_block_at`] / [`encode_blocks_at`] / [`place`] — encoding a
//!   block, or a run of consecutive blocks, pre-aligned to its offset and
//!   writing it into the output stream there, in any order;
//! * [`estimate`] — compressed-size estimation and the tolerance verdict the
//!   paper's `check` tasks compute;
//! * [`serial`] — a two-pass serial reference encoder (correctness oracle and
//!   baseline).
//!
//! Everything in this crate is purely computational (side-effect free), which
//! is the property the runtime relies on for safe rollback.
//!
//! ```
//! // Two-pass reference encode, then decode — the oracle every
//! // parallel/speculative run is checked against.
//! let data = b"so it goes, so it goes, so it goes".repeat(10);
//! let encoded = tvs_huffman::serial_encode(&data).unwrap();
//! assert!(encoded.bit_len < data.len() as u64 * 8, "text compresses");
//! assert_eq!(tvs_huffman::serial_decode(&encoded).unwrap(), data);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitio;
pub mod codes;
pub mod decode;
pub mod encode;
pub mod estimate;
pub mod histogram;
pub mod offset;
pub mod serial;
pub mod tree;

pub use bitio::{BitReader, BitWriter};
pub use codes::CodeTable;
pub use decode::{decode_exact, Decoder};
pub use encode::{
    concat_blocks, encode_block, encode_block_at, encode_block_into, encode_blocks_at, place,
    set_bit_len, EncodedBlock,
};
pub use estimate::{relative_cost_delta, tolerance_verdict, Verdict};
pub use histogram::{BlockCounts, Histogram};
pub use offset::{block_bits, OffsetChain};
pub use serial::{serial_decode, serial_encode, SerialEncoded};
pub use tree::{CodeLengths, TreeError};

/// Number of distinct symbols handled by this codec (bytes).
pub const ALPHABET: usize = 256;
