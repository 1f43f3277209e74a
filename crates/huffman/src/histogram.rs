//! Character-frequency histograms.
//!
//! The paper's `count` tasks produce one histogram per 4 KB input block —
//! here as [`BlockCounts`], `u32`s — and its `reduce` tasks merge them,
//! pairwise/k-wise, into running [`Histogram`]s. Merging is commutative
//! and associative, which is what makes the reduction tree — and
//! speculation on its prefix outcomes — legal.

use crate::ALPHABET;

/// One block's counts as `u32` (1 KB): what a `count` task returns per
/// block. [`Histogram::block_counts`] makes them; running totals stay
/// [`Histogram`]s.
pub type BlockCounts = [u32; ALPHABET];

/// A 256-entry character-frequency histogram.
///
/// Counts are `u64`, so overflow is not a practical concern (the paper's
/// inputs are megabytes; `u64` holds exabytes).
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; ALPHABET],
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("total", &self.total())
            .field("distinct", &self.distinct_symbols())
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram (all counts zero).
    pub const fn new() -> Self {
        Histogram {
            counts: [0; ALPHABET],
        }
    }

    /// Count the bytes of `data` (the paper's `count` task body).
    #[inline]
    pub fn from_bytes(data: &[u8]) -> Self {
        let mut h = Histogram::new();
        h.accumulate(data);
        h
    }

    /// Add the bytes of `data` into this histogram.
    pub fn accumulate(&mut self, data: &[u8]) {
        let lanes = Self::count_lanes(data);
        for (i, c) in self.counts.iter_mut().enumerate() {
            *c += lanes[0][i] as u64 + lanes[1][i] as u64 + lanes[2][i] as u64 + lanes[3][i] as u64;
        }
    }

    /// Count `data` into four shadow lane tables, 8 bytes per iteration.
    ///
    /// Four sub-histograms defeat the store-to-load dependency on a single
    /// counter array (long runs of equal bytes would otherwise serialise on
    /// one counter), and the single `u64` load per 8 bytes replaces eight
    /// byte loads — the SIMD-shaped scalar loop that autovectorizes.
    #[inline]
    fn count_lanes(data: &[u8]) -> [[u32; ALPHABET]; 4] {
        let mut lanes = [[0u32; ALPHABET]; 4];
        let mut words = data.chunks_exact(8);
        for c in &mut words {
            let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            lanes[0][(w & 0xFF) as usize] += 1;
            lanes[1][((w >> 8) & 0xFF) as usize] += 1;
            lanes[2][((w >> 16) & 0xFF) as usize] += 1;
            lanes[3][((w >> 24) & 0xFF) as usize] += 1;
            lanes[0][((w >> 32) & 0xFF) as usize] += 1;
            lanes[1][((w >> 40) & 0xFF) as usize] += 1;
            lanes[2][((w >> 48) & 0xFF) as usize] += 1;
            lanes[3][(w >> 56) as usize] += 1;
        }
        // Spread the ≤7 tail bytes across distinct lanes too, so a tail of
        // equal bytes doesn't serialise on lane 0's counter.
        for (i, &b) in words.remainder().iter().enumerate() {
            lanes[i % 4][b as usize] += 1;
        }
        lanes
    }

    /// Fused count→reduce: count `data` into a fresh block histogram while
    /// folding the same lane tables into `acc` in the same final pass.
    ///
    /// This is the paper's `count` immediately followed by its first-level
    /// `reduce`, without re-walking the block or a second 256-entry merge
    /// sweep over a cloned accumulator.
    pub fn count_into(data: &[u8], acc: &mut Histogram) -> Histogram {
        let lanes = Self::count_lanes(data);
        let mut block = Histogram::new();
        for (i, slot) in block.counts.iter_mut().enumerate().take(ALPHABET) {
            let c =
                lanes[0][i] as u64 + lanes[1][i] as u64 + lanes[2][i] as u64 + lanes[3][i] as u64;
            *slot = c;
            acc.counts[i] += c;
        }
        block
    }

    /// Count one block of fewer than 4 Gi bytes straight into `u32`s: the
    /// lane tables summed, with no `u64` histogram on the way.
    pub fn block_counts(data: &[u8]) -> BlockCounts {
        assert!(
            u32::try_from(data.len()).is_ok(),
            "a block is below 4 GiB ({} bytes)",
            data.len()
        );
        let lanes = Self::count_lanes(data);
        std::array::from_fn(|i| lanes[0][i] + lanes[1][i] + lanes[2][i] + lanes[3][i])
    }

    /// Merge `other` into `self` (the paper's `reduce` task body).
    pub fn merge(&mut self, other: &Histogram) {
        for i in 0..ALPHABET {
            self.counts[i] += other.counts[i];
        }
    }

    /// Merge a set of histograms into one.
    pub fn merged<'a, I: IntoIterator<Item = &'a Histogram>>(parts: I) -> Self {
        let mut h = Histogram::new();
        for p in parts {
            h.merge(p);
        }
        h
    }

    /// `base + Σ parts` over blocks' [`BlockCounts`], widened as it goes:
    /// the reduce-task body that folds a group's blocks onto the running
    /// total. Row by row, so each part is one widening add over a 2 KB
    /// accumulator that stays in L1 and vectorises: ~1 µs per 16-block
    /// group on a 2-vCPU x86-64 VM, against ~3.6 µs for one column-major
    /// sweep through the rows.
    pub fn merged_with_counts<'a>(
        base: &Histogram,
        parts: impl IntoIterator<Item = &'a BlockCounts>,
    ) -> Self {
        let mut h = base.clone();
        for p in parts {
            for (c, &n) in h.counts.iter_mut().zip(p) {
                *c += u64::from(n);
            }
        }
        h
    }

    /// Frequency of symbol `sym`.
    #[inline]
    pub fn count(&self, sym: u8) -> u64 {
        self.counts[sym as usize]
    }

    /// Raw counts.
    #[inline]
    pub fn counts(&self) -> &[u64; ALPHABET] {
        &self.counts
    }

    /// Mutable raw counts (used by generators and tests).
    #[inline]
    pub fn counts_mut(&mut self) -> &mut [u64; ALPHABET] {
        &mut self.counts
    }

    /// Total number of counted bytes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `true` when no byte has been counted.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Number of symbols with non-zero frequency.
    pub fn distinct_symbols(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Iterate over `(symbol, count)` pairs with non-zero count.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (u8, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(s, &c)| (s as u8, c))
    }

    /// A copy of this histogram with `alpha` added to every symbol's count
    /// (Laplace smoothing).
    ///
    /// Speculative tree predictors use this so that a tree guessed from a
    /// data *prefix* can still encode any byte that appears later: unseen
    /// symbols get (deep, expensive) codes instead of no code at all, and
    /// the tolerance check — not an encoding failure — decides the
    /// speculation's fate.
    pub fn with_smoothing(&self, alpha: u64) -> Histogram {
        let mut h = self.clone();
        if alpha > 0 {
            for c in h.counts.iter_mut() {
                *c += alpha;
            }
        }
        h
    }

    /// Shannon entropy in bits per symbol. Returns 0.0 for an empty
    /// histogram.
    pub fn entropy_bits(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let total = total as f64;
        let mut h = 0.0;
        for &c in &self.counts {
            if c > 0 {
                let p = c as f64 / total;
                h -= p * p.log2();
            }
        }
        h
    }

    /// Total-variation distance between the *distributions* of two
    /// histograms, in `[0, 1]`. Used by the workload crate's drift analysis
    /// and by tests that assert prefix stability/instability.
    pub fn tv_distance(&self, other: &Histogram) -> f64 {
        let (ta, tb) = (self.total(), other.total());
        if ta == 0 || tb == 0 {
            return if ta == tb { 0.0 } else { 1.0 };
        }
        let (ta, tb) = (ta as f64, tb as f64);
        let mut d = 0.0;
        for i in 0..ALPHABET {
            d += (self.counts[i] as f64 / ta - other.counts[i] as f64 / tb).abs();
        }
        d / 2.0
    }
}

impl std::ops::Add<&Histogram> for Histogram {
    type Output = Histogram;
    fn add(mut self, rhs: &Histogram) -> Histogram {
        self.merge(rhs);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_empty() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.total(), 0);
        assert_eq!(h.distinct_symbols(), 0);
        assert_eq!(h.entropy_bits(), 0.0);
    }

    #[test]
    fn counts_every_byte_once() {
        let data = b"abracadabra";
        let h = Histogram::from_bytes(data);
        assert_eq!(h.total(), data.len() as u64);
        assert_eq!(h.count(b'a'), 5);
        assert_eq!(h.count(b'b'), 2);
        assert_eq!(h.count(b'r'), 2);
        assert_eq!(h.count(b'c'), 1);
        assert_eq!(h.count(b'd'), 1);
        assert_eq!(h.count(b'z'), 0);
        assert_eq!(h.distinct_symbols(), 5);
    }

    #[test]
    fn accumulate_handles_unaligned_tails() {
        for n in 0..25usize {
            let data: Vec<u8> = (0..n as u8).collect();
            let h = Histogram::from_bytes(&data);
            assert_eq!(h.total(), n as u64, "length {n}");
            for b in 0..n as u8 {
                assert_eq!(h.count(b), 1);
            }
        }
    }

    #[test]
    fn count_into_matches_separate_count_and_merge() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4_099).collect();
        for split in [0usize, 1, 7, 8, 9, 63, 64, 65, 4_099] {
            let (a, b) = data.split_at(split);
            let mut acc = Histogram::from_bytes(a);
            let block = Histogram::count_into(b, &mut acc);
            assert_eq!(block, Histogram::from_bytes(b), "split {split}");
            assert_eq!(acc, Histogram::from_bytes(&data), "split {split}");
        }
    }

    #[test]
    fn merged_with_counts_matches_clone_then_merge() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let parts: Vec<BlockCounts> = data.chunks(777).map(Histogram::block_counts).collect();
        let base = Histogram::from_bytes(b"prefix state");
        let fused = Histogram::merged_with_counts(&base, parts.iter());
        let mut slow = base.clone();
        for p in data.chunks(777) {
            slow.merge(&Histogram::from_bytes(p));
        }
        assert_eq!(fused, slow);
        // Empty group degenerates to the base itself.
        assert_eq!(Histogram::merged_with_counts(&base, [].iter()), base);
    }

    #[test]
    fn merge_equals_counting_concatenation() {
        let a = b"hello ";
        let b = b"world";
        let mut ha = Histogram::from_bytes(a);
        let hb = Histogram::from_bytes(b);
        ha.merge(&hb);
        let mut joined = a.to_vec();
        joined.extend_from_slice(b);
        assert_eq!(ha, Histogram::from_bytes(&joined));
    }

    #[test]
    fn merged_over_parts_matches_whole() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let parts: Vec<Histogram> = data.chunks(777).map(Histogram::from_bytes).collect();
        let merged = Histogram::merged(parts.iter());
        assert_eq!(merged, Histogram::from_bytes(&data));
    }

    #[test]
    fn entropy_of_uniform_256_is_8_bits() {
        let data: Vec<u8> = (0..=255u8).collect();
        let h = Histogram::from_bytes(&data);
        assert!((h.entropy_bits() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_of_single_symbol_is_zero() {
        let h = Histogram::from_bytes(&[7u8; 1000]);
        assert_eq!(h.entropy_bits(), 0.0);
    }

    #[test]
    fn tv_distance_identity_and_disjoint() {
        let a = Histogram::from_bytes(b"aaaa");
        let b = Histogram::from_bytes(b"bbbb");
        assert_eq!(a.tv_distance(&a), 0.0);
        assert!((a.tv_distance(&b) - 1.0).abs() < 1e-12);
        // Scale invariance: distance compares distributions, not masses.
        let a2 = Histogram::from_bytes(b"aaaaaaaa");
        assert_eq!(a.tv_distance(&a2), 0.0);
    }

    #[test]
    fn tv_distance_empty_cases() {
        let e = Histogram::new();
        let a = Histogram::from_bytes(b"x");
        assert_eq!(e.tv_distance(&e), 0.0);
        assert_eq!(e.tv_distance(&a), 1.0);
        assert_eq!(a.tv_distance(&e), 1.0);
    }

    #[test]
    fn add_operator_merges() {
        let a = Histogram::from_bytes(b"ab");
        let b = Histogram::from_bytes(b"bc");
        let c = a + &b;
        assert_eq!(c.count(b'a'), 1);
        assert_eq!(c.count(b'b'), 2);
        assert_eq!(c.count(b'c'), 1);
    }
}
