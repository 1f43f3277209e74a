//! Canonical code assignment.
//!
//! Given per-symbol code lengths, canonical Huffman assigns codes in
//! (length, symbol) order so the full code table is a pure function of the
//! lengths. The encoder and the decoder both derive their tables from the
//! same [`CodeLengths`], so only lengths would ever need to be transmitted.
//!
//! A [`CodeTable`] also holds the encode kernel's two lookup tables: a
//! packed entry per symbol, and a pair table with one entry per two bytes
//! (256 KiB), built on the table's first encode.

use crate::histogram::{BlockCounts, Histogram};
use crate::tree::CodeLengths;
use crate::ALPHABET;
use std::sync::OnceLock;

/// The flag of a packed or pair entry that holds no code: bit 7 of the
/// length byte, which no length (at most 64) sets. The encode kernel tests
/// for it once per group of 8 bytes, in the same test as [`LONG_CODE`].
pub(crate) const NO_CODE: u32 = 0x80;

/// Bit 6 of the length byte of a pair entry: one of its two codes is longer
/// than [`PAIR_CODE_BITS`], so the entry holds no code and the kernel
/// encodes that group of bytes code by code.
pub(crate) const LONG_CODE: u32 = 0x40;

/// The longest code a pair entry holds. Two pairs of such codes fill at
/// most 48 bits, which fit the kernel's 64-bit word next to the at most 7
/// a store leaves staged; a pair code of at most 24 bits fits the 24-bit
/// code field of a `u32` entry.
pub(crate) const PAIR_CODE_BITS: u8 = 12;

/// The length field of a packed or pair entry (codes the kernel packs are
/// at most [`crate::encode::WORD_CODE_BITS`] long).
pub(crate) const LEN_MASK: u64 = 0x3F;

/// Entries of the pair table: one per index `a << 8 | b` of two bytes.
pub(crate) const PAIRS: usize = ALPHABET * ALPHABET;

/// A ready-to-use encoding table: canonical code bits and length per symbol.
///
/// Equality and [`Clone`] see the codes only: the pair table is a cache of
/// them, which a clone builds again on its own first encode.
pub struct CodeTable {
    code: [u64; ALPHABET],
    len: [u8; ALPHABET],
    /// `code << 8 | len` per symbol, or [`NO_CODE`] for a symbol without a
    /// code: the one load per symbol of the encode kernel's code-by-code
    /// path. The code field is cut for codes longer than 56 bits, which the
    /// kernel never packs.
    packed: [u64; ALPHABET],
    /// Per two bytes `a, b` at index `a << 8 | b`: the codes of `a` then
    /// `b` as one, `(code_a << len_b | code_b) << 8 | (len_a + len_b)` — or
    /// only the flags, [`NO_CODE`] if either byte has no code and
    /// [`LONG_CODE`] if either code is longer than [`PAIR_CODE_BITS`].
    /// Built on the table's first encode (see [`Self::pairs`]).
    pairs: OnceLock<Box<[u32; PAIRS]>>,
}

impl Clone for CodeTable {
    fn clone(&self) -> Self {
        CodeTable {
            code: self.code,
            len: self.len,
            packed: self.packed,
            pairs: OnceLock::new(),
        }
    }
}

impl PartialEq for CodeTable {
    fn eq(&self, other: &Self) -> bool {
        self.code == other.code && self.len == other.len
    }
}

impl Eq for CodeTable {}

impl std::fmt::Debug for CodeTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CodeTable")
            .field("symbols", &self.len.iter().filter(|&&l| l > 0).count())
            .field("max_len", &self.max_len())
            .finish()
    }
}

impl CodeTable {
    /// Assign canonical codes for the given lengths.
    pub fn from_lengths(lengths: &CodeLengths) -> Self {
        // Symbols sorted by (length, symbol); assign sequential codes,
        // shifting left by one whenever length increases.
        let mut order: Vec<u8> = (0..ALPHABET as u16)
            .map(|s| s as u8)
            .filter(|&s| lengths.len(s) > 0)
            .collect();
        order.sort_by_key(|&s| (lengths.len(s), s));

        let mut code = [0u64; ALPHABET];
        let mut len = [0u8; ALPHABET];
        let mut packed = [u64::from(NO_CODE); ALPHABET];
        // u128 accumulator: on a Kraft-tight table whose deepest code is 64
        // bits, the increment past the last code reaches exactly 2^64.
        let mut next: u128 = 0;
        let mut prev_len: u8 = 0;
        for &s in &order {
            let l = lengths.len(s);
            next <<= l - prev_len;
            code[s as usize] = next as u64;
            len[s as usize] = l;
            packed[s as usize] = (next as u64) << 8 | u64::from(l);
            next += 1;
            prev_len = l;
        }
        CodeTable {
            code,
            len,
            packed,
            pairs: OnceLock::new(),
        }
    }

    /// Build a table straight from a histogram (tree + canonical assignment).
    pub fn build(hist: &Histogram) -> Result<Self, crate::tree::TreeError> {
        Ok(Self::from_lengths(&CodeLengths::build(hist)?))
    }

    /// Code bits for `sym` (right-aligned; the top `len` bits of the code
    /// occupy the low `len` bits of the returned value).
    #[inline]
    pub fn code(&self, sym: u8) -> u64 {
        self.code[sym as usize]
    }

    /// Code length for `sym` in bits; 0 means the symbol is not encodable.
    #[inline]
    pub fn len(&self, sym: u8) -> u8 {
        self.len[sym as usize]
    }

    /// Every symbol's packed entry (see [`NO_CODE`]).
    #[inline]
    pub(crate) fn packed(&self) -> &[u64; ALPHABET] {
        &self.packed
    }

    /// The pair table (see the field), built on the first call. The encode
    /// kernel is its one caller, so a table that never encodes — a check's
    /// candidate, or a final tree whose speculative version committed —
    /// never builds it. Threads that meet a table being built wait for it.
    #[inline]
    pub(crate) fn pairs(&self) -> &[u32; PAIRS] {
        self.pairs.get_or_init(|| self.build_pairs())
    }

    /// Whether the pair table has been built.
    #[cfg(test)]
    pub(crate) fn has_pairs(&self) -> bool {
        self.pairs.get().is_some()
    }

    /// Fill the pair table row by row: row `a` is byte `a`'s code shifted
    /// past each second byte's code, plus that byte's entry.
    fn build_pairs(&self) -> Box<[u32; PAIRS]> {
        #[cfg(test)]
        tests::PAIR_BUILDS.with(|n| n.set(n.get() + 1));
        let flags = LONG_CODE | NO_CODE;
        // Each byte's code as a pair's second half: `code << 8 | len`, or
        // only its flag.
        let mut second = [NO_CODE; ALPHABET];
        for (s, e) in second.iter_mut().enumerate() {
            match self.len[s] {
                0 => {}
                1..=PAIR_CODE_BITS => *e = self.packed[s] as u32,
                _ => *e = LONG_CODE,
            }
        }
        let mut pairs = Vec::with_capacity(PAIRS);
        for &first in &second {
            if first & flags != 0 {
                pairs.extend(second.iter().map(|&e| first | e & flags));
            } else {
                let (code, len) = (first >> 8, first & LEN_MASK as u32);
                pairs.extend(second.iter().map(|&e| match e & flags {
                    0 => ((code << (e & LEN_MASK as u32)) << 8) | (e + len),
                    f => f,
                }));
            }
        }
        pairs
            .into_boxed_slice()
            .try_into()
            .expect("one entry per pair of bytes")
    }

    /// Longest code length in the table.
    pub fn max_len(&self) -> u8 {
        self.len.iter().copied().max().unwrap_or(0)
    }

    /// The length array, for rebuilding a [`CodeLengths`] / decoder.
    pub fn lengths_array(&self) -> [u8; ALPHABET] {
        self.len
    }

    /// Whether every symbol occurring in `hist` has a code in this table.
    pub fn covers(&self, hist: &Histogram) -> bool {
        hist.iter_nonzero().all(|(s, _)| self.len(s) > 0)
    }

    /// Exact encoded size of data distributed as `hist`, in bits, or `None`
    /// if some occurring symbol has no code.
    pub fn encoded_bits(&self, hist: &Histogram) -> Option<u64> {
        let mut bits = 0u64;
        for (s, c) in hist.iter_nonzero() {
            let l = self.len(s);
            if l == 0 {
                return None;
            }
            bits += c * l as u64;
        }
        Some(bits)
    }

    /// [`Self::encoded_bits`] of one block's [`BlockCounts`].
    pub fn encoded_bits_u32(&self, counts: &BlockCounts) -> Option<u64> {
        let mut bits = 0u64;
        for (s, &c) in counts.iter().enumerate() {
            let l = self.len[s];
            if c > 0 && l == 0 {
                return None;
            }
            bits += u64::from(c) * u64::from(l);
        }
        Some(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode_block, encode_blocks_at};

    thread_local! {
        /// Pair tables this thread has built.
        pub(super) static PAIR_BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    fn table_for(data: &[u8]) -> CodeTable {
        CodeTable::build(&Histogram::from_bytes(data)).unwrap()
    }

    /// Codes must form a prefix-free set.
    fn assert_prefix_free(t: &CodeTable) {
        let coded: Vec<(u8, u64, u8)> = (0..ALPHABET)
            .filter(|&s| t.len(s as u8) > 0)
            .map(|s| (s as u8, t.code(s as u8), t.len(s as u8)))
            .collect();
        for &(sa, ca, la) in &coded {
            for &(sb, cb, lb) in &coded {
                if sa == sb {
                    continue;
                }
                let l = la.min(lb);
                let pa = ca >> (la - l);
                let pb = cb >> (lb - l);
                assert_ne!(pa, pb, "codes for {sa} and {sb} share a prefix");
            }
        }
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        assert_prefix_free(&table_for(b"abracadabra"));
        assert_prefix_free(&table_for(b"mississippi river runs deep"));
        let noisy: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2654435761)) as u8)
            .collect();
        assert_prefix_free(&table_for(&noisy));
    }

    #[test]
    fn canonical_ordering_by_length_then_symbol() {
        let t = table_for(b"aaaabbbccd");
        // 'a' is most frequent -> shortest; among equal lengths, smaller
        // symbol gets the numerically smaller code.
        assert!(t.len(b'a') <= t.len(b'b'));
        assert!(t.len(b'b') <= t.len(b'd'));
        let (lc, ld) = (t.len(b'c'), t.len(b'd'));
        if lc == ld {
            assert!(t.code(b'c') < t.code(b'd'));
        }
    }

    #[test]
    fn codes_fit_their_lengths() {
        let t = table_for(b"the quick brown fox jumps over the lazy dog 0123456789");
        for s in 0..ALPHABET {
            let l = t.len(s as u8);
            if l > 0 && l < 64 {
                assert!(t.code(s as u8) < (1u64 << l), "code wider than its length");
            }
        }
    }

    #[test]
    fn encoded_bits_matches_sum() {
        let data = b"hello huffman";
        let h = Histogram::from_bytes(data);
        let t = table_for(data);
        let expect: u64 = data.iter().map(|&b| t.len(b) as u64).sum();
        assert_eq!(t.encoded_bits(&h), Some(expect));
    }

    #[test]
    fn encoded_bits_none_when_symbol_uncovered() {
        let t = table_for(b"ab");
        let h = Histogram::from_bytes(b"abz");
        assert_eq!(t.encoded_bits(&h), None);
        assert!(!t.covers(&h));
        assert!(t.covers(&Histogram::from_bytes(b"abba")));
    }

    #[test]
    fn single_symbol_table() {
        let t = table_for(b"zzzzzz");
        assert_eq!(t.len(b'z'), 1);
        assert_eq!(t.code(b'z'), 0);
    }

    #[test]
    fn table_is_pure_function_of_lengths() {
        let h = Histogram::from_bytes(b"some deterministic input 12345");
        let l = CodeLengths::build(&h).unwrap();
        let t1 = CodeTable::from_lengths(&l);
        let t2 = CodeTable::from_lengths(&CodeLengths::from_lengths(t1.lengths_array()).unwrap());
        assert_eq!(t1, t2);
    }

    #[test]
    fn pair_entries_are_two_codes_or_their_flags() {
        // 'a' has the shortest code, '~' none; byte 0 gets a long one.
        let mut lens = [0u8; ALPHABET];
        for (s, l) in lens.iter_mut().enumerate().take(13) {
            *l = s as u8 + 1;
        }
        (lens[0], lens[b'a' as usize], lens[13]) = (13, 1, 13);
        lens[1] = 0;
        let t = CodeTable::from_lengths(&CodeLengths::from_lengths(lens).unwrap());
        let pairs = t.pairs();
        let pair = |a: u8, b: u8| pairs[usize::from(a) << 8 | usize::from(b)];
        for (a, b) in [(b'a', 2), (2, b'a'), (11, 11), (5, 7)] {
            let (la, lb) = (t.len(a), t.len(b));
            let want = (t.code(a) << lb | t.code(b)) << 8 | u64::from(la + lb);
            assert_eq!(u64::from(pair(a, b)), want, "pair ({a}, {b})");
        }
        assert_eq!(t.len(11), PAIR_CODE_BITS, "the longest code a pair holds");
        assert_eq!(pair(0, b'a'), LONG_CODE);
        assert_eq!(pair(b'a', 0), LONG_CODE);
        assert_eq!(pair(1, b'a'), NO_CODE);
        assert_eq!(pair(b'a', b'~'), NO_CODE);
        assert_eq!(pair(0, b'~'), LONG_CODE | NO_CODE);
    }

    /// What a check's candidate table goes through — built, compared,
    /// cloned, its lengths and costs read, decoded with — never builds the
    /// pair table; the first encode does.
    #[test]
    fn a_check_candidates_table_never_builds_its_pair_table() {
        let data = b"a candidate is judged by its lengths, never encoded with";
        let hist = Histogram::from_bytes(data);
        let candidate = table_for(data);
        let reference = table_for(b"a reference tree");
        let _ = (
            candidate == reference,
            candidate.clone(),
            candidate.max_len(),
        );
        let _ = (candidate.covers(&hist), candidate.encoded_bits(&hist));
        let _ = crate::Decoder::new(&candidate);
        let lengths = CodeLengths::from_lengths(candidate.lengths_array()).unwrap();
        let _ = crate::relative_cost_delta(&lengths, &CodeLengths::build(&hist).unwrap(), &hist);
        assert!(!candidate.has_pairs());
        let clone = candidate.clone();
        assert!(encode_block(data, &candidate).is_some());
        assert!(candidate.has_pairs());
        assert!(
            !clone.has_pairs(),
            "a clone builds its own on its first encode"
        );
        assert_eq!(clone, candidate);
    }

    /// Two threads that encode with one fresh table at once build its pair
    /// table once, and write the same bytes.
    #[test]
    fn two_threads_on_a_fresh_table_build_it_once() {
        let data: Vec<u8> = b"two workers meet one fresh table ".repeat(2048);
        let table = table_for(&data);
        let bits = table.encoded_bits(&Histogram::from_bytes(&data)).unwrap();
        let start = std::sync::Barrier::new(2);
        let encode = || {
            start.wait();
            let blocks = data.chunks(4096);
            let (run, _) = encode_blocks_at(blocks, &table, 0, bits, || false).unwrap();
            (run, PAIR_BUILDS.with(|n| n.get()))
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(encode);
            let b = s.spawn(encode);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a.1 + b.1, 1, "built once");
        assert_eq!(a.0, b.0);
        assert_eq!(a.0, encode_block(&data, &table.clone()).unwrap());
    }
}
