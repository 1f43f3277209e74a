//! Bit-offset computation — the paper's serial `offset` tasks.
//!
//! Huffman output is variable-length, so "the position of an encoded block
//! can only be known once the previous one's encoding is decided". The paper
//! parallelises the encode phase by inserting a cheap serial chain of offset
//! tasks: each computes the bit offsets of a group of blocks from the
//! per-block histograms, the code table and the final offset of the previous
//! group, then fans out the group's encode tasks.
//!
//! The offsets are what lets the parallel encodes put their bits where they
//! belong: an encode starts its block `offset % 8` bits into its first byte
//! ([`crate::encode::encode_block_at`]) and the committed block is written
//! at `offset` in the one output stream ([`crate::encode::place`]), so no
//! pass over the whole output is left for the end of the run.

use crate::codes::CodeTable;
use crate::histogram::Histogram;

/// Exact encoded bit length of a block whose content is distributed as
/// `block_hist`, under `table`.
///
/// Returns `None` when the table does not cover every symbol in the block
/// (possible only for speculative tables built from a prefix).
pub fn block_bits(block_hist: &Histogram, table: &CodeTable) -> Option<u64> {
    table.encoded_bits(block_hist)
}

/// Incremental offset computation over a sequence of blocks — one instance
/// per (speculation version), fed group by group.
#[derive(Clone, Debug)]
pub struct OffsetChain {
    next_offset: u64,
    offsets: Vec<u64>,
}

impl Default for OffsetChain {
    fn default() -> Self {
        Self::new()
    }
}

impl OffsetChain {
    /// A chain starting at bit offset 0.
    pub fn new() -> Self {
        OffsetChain {
            next_offset: 0,
            offsets: Vec::new(),
        }
    }

    /// Extend the chain with one group of blocks (the body of one `offset`
    /// task). Returns the starting bit offset of each block in the group.
    ///
    /// `None` if some block contains a symbol the table cannot encode; the
    /// chain is left unmodified in that case.
    pub fn extend_group(
        &mut self,
        group_hists: &[Histogram],
        table: &CodeTable,
    ) -> Option<Vec<u64>> {
        let mut lens = Vec::with_capacity(group_hists.len());
        for h in group_hists {
            lens.push(block_bits(h, table)?);
        }
        let first = self.offsets.len();
        self.extend(&lens);
        Some(self.offsets[first..].to_vec())
    }

    /// Extend the chain with blocks whose encoded bit lengths are already
    /// known (an `offset` task computes them on a worker; the chain itself
    /// lives with the path that owns the version).
    pub fn extend(&mut self, lens: &[u64]) {
        for &len in lens {
            self.offsets.push(self.next_offset);
            self.next_offset += len;
        }
    }

    /// Bit offset where the next block would start (== total bits so far).
    pub fn total_bits(&self) -> u64 {
        self.next_offset
    }

    /// Offsets assigned so far, in block order.
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Number of blocks processed so far.
    pub fn blocks_done(&self) -> usize {
        self.offsets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_block;

    fn setup(data: &[u8], chunk: usize) -> (Vec<Vec<u8>>, Vec<Histogram>, CodeTable) {
        let blocks: Vec<Vec<u8>> = data.chunks(chunk).map(|c| c.to_vec()).collect();
        let hists: Vec<Histogram> = blocks.iter().map(|b| Histogram::from_bytes(b)).collect();
        let table = CodeTable::build(&Histogram::merged(hists.iter())).unwrap();
        (blocks, hists, table)
    }

    #[test]
    fn offsets_are_prefix_sums_of_block_bits() {
        let data = b"offset chains are exact prefix sums of encoded lengths";
        let (blocks, hists, table) = setup(data, 6);
        let mut chain = OffsetChain::new();
        let starts = chain.extend_group(&hists, &table).unwrap();
        let mut expect = 0u64;
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(starts[i], expect, "block {i}");
            expect += encode_block(b, &table).unwrap().bit_len;
        }
        assert_eq!(chain.total_bits(), expect);
    }

    #[test]
    fn grouped_extension_equals_single_extension() {
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        let (_, hists, table) = setup(&data, 64);
        let mut whole = OffsetChain::new();
        let all = whole.extend_group(&hists, &table).unwrap();
        let mut grouped = OffsetChain::new();
        let mut collected = Vec::new();
        for g in hists.chunks(16) {
            collected.extend(grouped.extend_group(g, &table).unwrap());
        }
        assert_eq!(all, collected);
        assert_eq!(whole.total_bits(), grouped.total_bits());
    }

    #[test]
    fn uncovered_symbol_leaves_chain_unmodified() {
        let table = CodeTable::build(&Histogram::from_bytes(b"ab")).unwrap();
        let good = Histogram::from_bytes(b"abab");
        let bad = Histogram::from_bytes(b"abz");
        let mut chain = OffsetChain::new();
        chain
            .extend_group(std::slice::from_ref(&good), &table)
            .unwrap();
        let before = (chain.total_bits(), chain.blocks_done());
        assert!(chain.extend_group(&[good.clone(), bad], &table).is_none());
        assert_eq!((chain.total_bits(), chain.blocks_done()), before);
    }

    #[test]
    fn empty_group_is_noop() {
        let table = CodeTable::build(&Histogram::from_bytes(b"xy")).unwrap();
        let mut chain = OffsetChain::new();
        let starts = chain.extend_group(&[], &table).unwrap();
        assert!(starts.is_empty());
        assert_eq!(chain.total_bits(), 0);
    }

    #[test]
    fn offsets_match_concatenated_stream_positions() {
        use crate::decode::decode_exact;
        use crate::encode::concat_blocks;
        let data = b"every block must decode at exactly its computed offset";
        let (blocks, hists, table) = setup(data, 8);
        let encoded: Vec<_> = blocks
            .iter()
            .map(|b| encode_block(b, &table).unwrap())
            .collect();
        let (stream, _) = concat_blocks(encoded.iter());
        let mut chain = OffsetChain::new();
        let starts = chain.extend_group(&hists, &table).unwrap();
        for i in 0..blocks.len() {
            let back = decode_exact(
                &stream,
                starts[i],
                encoded[i].bit_len,
                blocks[i].len(),
                &table,
            )
            .unwrap();
            assert_eq!(back, blocks[i], "block {i}");
        }
    }
}
