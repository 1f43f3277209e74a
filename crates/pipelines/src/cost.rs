//! Cost model of the Huffman pipeline's tasks.
//!
//! Virtual-µs costs of each task kind on a reference x86 core, calibrated
//! so the simulated pipeline reproduces the paper's magnitudes: tasks are
//! coarse (tens of µs to ~1 ms, per the paper's granularity argument \[6\]),
//! a 4 MB/1024-block run completes in tens of ms, per-element latencies
//! land in the thousands-of-µs range of Fig. 3, and the encode phase
//! dominates (which is what makes bypassing the tree bottleneck pay).

use tvs_sre::{CostModel, Time};

/// Cost model for the Huffman pipeline tasks (see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct HuffmanCost;

impl CostModel for HuffmanCost {
    fn cost_us(&self, name: &str, bytes: usize) -> Time {
        let b = bytes as Time;
        match name {
            // Byte-histogram over the block: ~30 µs per 4 KB block — a
            // light pass compared to the bit-packing encode.
            "count" => 6 + b * 6 / 1024,
            // Merging R 1 KB histograms into the 2 KB accumulator:
            // ~30 µs at 16:1.
            "reduce" => 12 + b / 1024,
            // Serial Huffman tree construction from the global histogram.
            "tree" => 150,
            // Speculative tree construction (same computation).
            "predict" => 150,
            // Offset computation: one table×histogram dot product per
            // block in the group (bytes = group_size × 1 KB histograms).
            "offset" => 4 + b / 2048,
            // Variable-length encoding of the block: ~320 µs per 4 KB.
            "encode" => 20 + b * 75 / 1024,
            // "Check tasks are simple and run very quickly."
            "check" | "final-check" => 30,
            other => panic!("HuffmanCost: unknown task kind '{other}'"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_magnitudes() {
        let c = HuffmanCost;
        let count = c.cost_us("count", 4096);
        let encode = c.cost_us("encode", 4096);
        let reduce = c.cost_us("reduce", 16 * 2048);
        let tree = c.cost_us("tree", 2048);
        // Coarse-grain tasks: tens of µs to ~1 ms.
        assert!((20..200).contains(&count), "count = {count}");
        assert!((200..1000).contains(&encode), "encode = {encode}");
        assert!((20..100).contains(&reduce), "reduce = {reduce}");
        // The encode phase dominates the per-block work.
        assert!(encode > 5 * count);
        // The tree is expensive relative to a reduce but not huge; its
        // bottleneck nature comes from *depending on all input*, not size.
        assert!(tree > reduce);
        // Checks are cheap relative to the dominant (encode) work.
        assert!(c.cost_us("check", 4096) * 5 < encode);
    }

    #[test]
    fn total_work_is_tens_of_ms_for_4mb() {
        let c = HuffmanCost;
        let blocks = 1024u64;
        let total = blocks * (c.cost_us("count", 4096) + c.cost_us("encode", 4096));
        // ~410 ms of single-core work -> ~26 ms on 16 workers.
        assert!((200_000..800_000).contains(&total), "total = {total}");
    }

    #[test]
    #[should_panic(expected = "unknown task kind")]
    fn unknown_kind_rejected() {
        let _ = HuffmanCost.cost_us("mystery", 1);
    }
}
