//! Canonical code assignment.
//!
//! Given per-symbol code lengths, canonical Huffman assigns codes in
//! (length, symbol) order so the full code table is a pure function of the
//! lengths. The encoder and the decoder both derive their tables from the
//! same [`CodeLengths`], so only lengths would ever need to be transmitted.

use crate::histogram::{BlockCounts, Histogram};
use crate::tree::CodeLengths;
use crate::ALPHABET;

/// The packed entry of a symbol with no code: bit 7 of the length byte,
/// which no length (at most 64) sets. The encode kernel tests for it once
/// per quad of bytes, in the same test as [`LONG_CODE`].
pub(crate) const NO_CODE: u64 = 0x80;

/// Bit 6 of the length byte: set on the entry of a code longer than
/// [`SHORT_CODE_BITS`]. Four codes without it fill at most 56 bits of the
/// kernel's 64-bit word, so the kernel stores once per four of them.
pub(crate) const LONG_CODE: u64 = 0x40;

/// The longest code [`LONG_CODE`] leaves unmarked.
pub(crate) const SHORT_CODE_BITS: u8 = 14;

/// The length field of a packed entry (codes the kernel packs are at most
/// [`crate::encode::WORD_CODE_BITS`] long).
pub(crate) const LEN_MASK: u64 = 0x3F;

/// A ready-to-use encoding table: canonical code bits and length per symbol.
#[derive(Clone, PartialEq, Eq)]
pub struct CodeTable {
    code: [u64; ALPHABET],
    len: [u8; ALPHABET],
    /// `code << 8 | len` per symbol, with [`LONG_CODE`] on a code longer
    /// than [`SHORT_CODE_BITS`] and [`NO_CODE`] for a symbol without one:
    /// the one load per symbol of the encode kernel. The code field is cut
    /// for codes longer than 56 bits, which the kernel never packs.
    packed: [u64; ALPHABET],
}

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
        let mut packed = [NO_CODE; ALPHABET];
        // u128 accumulator: on a Kraft-tight table whose deepest code is 64
        // bits, the increment past the last code reaches exactly 2^64.
        let mut next: u128 = 0;
        let mut prev_len: u8 = 0;
        for &s in &order {
            let l = lengths.len(s);
            next <<= l - prev_len;
            code[s as usize] = next as u64;
            len[s as usize] = l;
            let long = if l > SHORT_CODE_BITS { LONG_CODE } else { 0 };
            packed[s as usize] = (next as u64) << 8 | long | u64::from(l);
            next += 1;
            prev_len = l;
        }
        CodeTable { code, len, packed }
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
}
