//! Canonical Huffman decoding: the oracle of the safety contract.
//!
//! Every committed stream must decode to its input, and decoding is how
//! each check proves it: the round-trip tests, `tvs-chaos`, `decompress` of
//! a finished journal and the end-to-end benchmark's verifier, whose set-up
//! decodes the serial reference and the first `Balanced` output. So the
//! decoder's cost is paid on every check and sits in the benchmark's
//! `setup_s`, though never in a timed region.
//!
//! A [`Decoder`] holds a table indexed by the next `LOOKUP_BITS` (11) bits
//! of the stream. An entry holds the code those bits start with — its
//! symbol and length — and, when the code after it ends within the same
//! bits too, that second code; or it is 0, when the first code is longer
//! or there is none. [`Decoder::decode_n`] loads one 64-bit window and
//! makes five lookups in it, one or two symbols each. A zero entry, and the
//! last bits of the stream, go to the canonical walk, which reads one bit
//! at a time from the same position: it is the only other path, so a
//! stream decodes to the same symbols, or fails with the same
//! [`DecodeError`] at the same bit, as it would by the walk alone.

use crate::bitio::BitReader;
use crate::codes::CodeTable;
use crate::ALPHABET;

/// Decoding errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The bitstream ended in the middle of a code.
    Truncated,
    /// A prefix was read that corresponds to no code in the table.
    InvalidCode,
    /// The requested bit range lies outside the buffer (or its end
    /// overflows a `u64`) — a malformed offset/length pair, not data
    /// corruption inside the stream.
    OutOfBounds,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "bitstream truncated mid-code"),
            DecodeError::InvalidCode => write!(f, "invalid code in bitstream"),
            DecodeError::OutOfBounds => write!(f, "bit range outside the buffer"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Bits the decoder's table is indexed by. Codes of at most this many
/// bits decode in one lookup; longer ones go to the canonical walk.
const LOOKUP_BITS: u32 = 11;

/// Lookups [`Decoder::decode_n`] makes in one 64-bit window. A window
/// holds at least 57 of the stream's bits, and five lookups take at most
/// 55 of them.
const LOOKUPS_PER_WINDOW: usize = 5;

const _: () = assert!(LOOKUPS_PER_WINDOW as u32 * LOOKUP_BITS <= 57);

/// A table entry: `n` (1 or 2) symbols, `symbols` with the first in its
/// low byte, taking `bits` bits, `first_len` of them the first code.
const fn entry(symbols: u32, n: u32, first_len: u32, bits: u32) -> u32 {
    symbols << 16 | n << 12 | first_len << 8 | bits
}

/// A canonical decoder built from a [`CodeTable`].
///
/// Codes of at most `LOOKUP_BITS` bits decode by table lookup, two at a
/// time when both fit in the bits looked up. The rest take the standard
/// canonical walk: for each code length `l`, `first_code[l]` is the
/// numerically smallest code of that length and `first_index[l]` the rank
/// of its symbol in canonical order.
pub struct Decoder {
    /// Indexed by the next `LOOKUP_BITS` bits: the [`entry`] of the one or
    /// two codes they start with, or 0 when the first code is longer than
    /// `LOOKUP_BITS` bits or they start none.
    table: [u32; 1 << LOOKUP_BITS],
    first_code: [u64; 65],
    first_index: [u32; 65],
    count: [u32; 65],
    symbols: Vec<u8>,
    max_len: u8,
}

impl Decoder {
    /// Build a decoder for `table`.
    pub fn new(table: &CodeTable) -> Self {
        let lengths = table.lengths_array();
        let mut order: Vec<u8> = (0..ALPHABET as u16)
            .map(|s| s as u8)
            .filter(|&s| lengths[s as usize] > 0)
            .collect();
        order.sort_by_key(|&s| (lengths[s as usize], s));

        let mut count = [0u32; 65];
        for &s in &order {
            count[lengths[s as usize] as usize] += 1;
        }
        let mut first_code = [0u64; 65];
        let mut first_index = [0u32; 65];
        // u128 accumulator: a Kraft-tight table with depth-64 codes pushes
        // the running code to exactly 2^64, which overflows u64 on the
        // final iteration (reachable from an untrusted journal's lengths).
        let mut code = 0u128;
        let mut index = 0u32;
        for l in 1..=64usize {
            code <<= 1;
            first_code[l] = code as u64;
            first_index[l] = index;
            code += count[l] as u128;
            index += count[l];
        }

        // Each code of `l <= LOOKUP_BITS` bits fills the entries of every
        // index it starts: `2^(LOOKUP_BITS - l)` of them, from its code
        // shifted up.
        let mut lookup = [0u32; 1 << LOOKUP_BITS];
        for l in 1..=LOOKUP_BITS as usize {
            let spread = LOOKUP_BITS as usize - l;
            for i in 0..count[l] {
                let code = first_code[l] as usize + i as usize;
                let sym = order[(first_index[l] + i) as usize];
                let entries = code << spread..(code + 1) << spread;
                // The lengths passed Kraft's inequality
                // (`CodeLengths::from_lengths`), so the canonical codes of
                // at most `LOOKUP_BITS` bits end inside the table, even
                // when a hostile journal chose them.
                debug_assert!(entries.end <= lookup.len(), "Kraft's inequality holds");
                let l = l as u32;
                lookup[entries].fill(entry(u32::from(sym), 1, l, l));
            }
        }
        // A second code in the bits the first leaves, when it ends there:
        // the single entry its first bits index, shifted past the first.
        let singles = lookup;
        for (i, &first) in singles.iter().enumerate() {
            let len = first & 0xFF;
            if first == 0 || len == LOOKUP_BITS {
                continue;
            }
            let second = singles[(i << len) & ((1 << LOOKUP_BITS) - 1)];
            let bits = len + (second & 0xFF);
            if second != 0 && bits <= LOOKUP_BITS {
                let pair = (first >> 16) | (second >> 16) << 8;
                lookup[i] = entry(pair, 2, len, bits);
            }
        }
        Decoder {
            table: lookup,
            first_code,
            first_index,
            count,
            symbols: order,
            max_len: lengths.iter().copied().max().unwrap_or(0),
        }
    }

    /// The table entry the stream's next `LOOKUP_BITS` bits index, `w`'s
    /// top bits.
    #[inline(always)]
    fn lookup(&self, w: u64) -> u32 {
        self.table[(w >> (64 - LOOKUP_BITS)) as usize]
    }

    /// Decode exactly one symbol from the reader.
    pub fn decode_symbol(&self, r: &mut BitReader<'_>) -> Result<u8, DecodeError> {
        if r.remaining() >= u64::from(LOOKUP_BITS) {
            let e = self.lookup(r.window());
            if e != 0 {
                r.skip((e >> 8) & 0xF);
                return Ok((e >> 16) as u8);
            }
        }
        self.walk(r)
    }

    /// The canonical walk: one symbol read a bit at a time, for a code
    /// longer than `LOOKUP_BITS` bits, an invalid code or the last bits
    /// of the stream.
    #[inline(never)]
    fn walk(&self, r: &mut BitReader<'_>) -> Result<u8, DecodeError> {
        let mut code = 0u64;
        for l in 1..=self.max_len as usize {
            match r.read_bit() {
                Some(b) => code = (code << 1) | b as u64,
                None => return Err(DecodeError::Truncated),
            }
            // u128 compare: `first_code + count` reaches 2^64 at depth 64
            // on Kraft-tight tables, overflowing u64.
            let c = self.count[l] as u128;
            if c > 0 && (code as u128) < self.first_code[l] as u128 + c {
                if code < self.first_code[l] {
                    return Err(DecodeError::InvalidCode);
                }
                let idx = self.first_index[l] as u64 + (code - self.first_code[l]);
                return Ok(self.symbols[idx as usize]);
            }
        }
        Err(DecodeError::InvalidCode)
    }

    /// Decode exactly `n_symbols` symbols.
    pub fn decode_n(
        &self,
        r: &mut BitReader<'_>,
        n_symbols: usize,
    ) -> Result<Vec<u8>, DecodeError> {
        // Cap the allocation by what the stream could possibly hold (each
        // symbol consumes >= 1 bit): `n_symbols` may come from an untrusted
        // header.
        let plausible = (r.remaining().min(usize::MAX as u64)) as usize;
        let mut out = vec![0u8; n_symbols.min(plausible)];
        let mut done = 0;
        // Whole windows: a window holds at least 57 of the stream's bits
        // while 64 remain, enough for every lookup made in it.
        while out.len() - done >= 2 * LOOKUPS_PER_WINDOW && r.remaining() >= 64 {
            let mut w = r.window();
            let mut used = 0;
            let mut hits = 0;
            while hits < LOOKUPS_PER_WINDOW {
                let e = self.lookup(w);
                if e == 0 {
                    break;
                }
                // Both symbols are stored; a lone one's second byte is
                // written over next.
                out[done..done + 2].copy_from_slice(&((e >> 16) as u16).to_le_bytes());
                done += ((e >> 12) & 0xF) as usize;
                w <<= e & 0xFF;
                used += e & 0xFF;
                hits += 1;
            }
            r.skip(used);
            if hits < LOOKUPS_PER_WINDOW {
                out[done] = self.walk(r)?;
                done += 1;
            }
        }
        out.truncate(done);
        for _ in done..n_symbols {
            out.push(self.decode_symbol(r)?);
        }
        Ok(out)
    }
}

/// Decode `n_symbols` symbols from `data` starting at `bit_offset`, reading
/// at most `bit_len` bits, using (a decoder derived from) `table`. A bit
/// range outside `data` — malformed header values included — is a
/// [`DecodeError::OutOfBounds`], never a panic.
pub fn decode_exact(
    data: &[u8],
    bit_offset: u64,
    bit_len: u64,
    n_symbols: usize,
    table: &CodeTable,
) -> Result<Vec<u8>, DecodeError> {
    let dec = Decoder::new(table);
    let mut r =
        BitReader::try_at_offset(data, bit_offset, bit_len).ok_or(DecodeError::OutOfBounds)?;
    dec.decode_n(&mut r, n_symbols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_block;
    use crate::histogram::Histogram;

    fn table_for(data: &[u8]) -> CodeTable {
        CodeTable::build(&Histogram::from_bytes(data)).unwrap()
    }

    #[test]
    fn round_trip_simple() {
        let data = b"so much depends upon a red wheel barrow";
        let t = table_for(data);
        let e = encode_block(data, &t).unwrap();
        assert_eq!(
            decode_exact(&e.bytes, 0, e.bit_len, data.len(), &t).unwrap(),
            data
        );
    }

    #[test]
    fn round_trip_all_bytes() {
        let data: Vec<u8> = (0..=255u8).cycle().take(3000).collect();
        let t = table_for(&data);
        let e = encode_block(&data, &t).unwrap();
        assert_eq!(
            decode_exact(&e.bytes, 0, e.bit_len, data.len(), &t).unwrap(),
            data
        );
    }

    #[test]
    fn round_trip_single_symbol_stream() {
        let data = vec![b'q'; 100];
        let t = table_for(&data);
        let e = encode_block(&data, &t).unwrap();
        assert_eq!(e.bit_len, 100); // 1-bit code
        assert_eq!(
            decode_exact(&e.bytes, 0, e.bit_len, data.len(), &t).unwrap(),
            data
        );
    }

    #[test]
    fn truncated_stream_detected() {
        let data = b"truncation test";
        let t = table_for(data);
        let e = encode_block(data, &t).unwrap();
        let err = decode_exact(&e.bytes, 0, e.bit_len - 1, data.len(), &t);
        assert_eq!(err, Err(DecodeError::Truncated));
    }

    #[test]
    fn decode_with_wrong_but_covering_table_gives_wrong_bytes() {
        // A speculative (suboptimal) table still decodes *its own* encoding
        // correctly — the key tolerance property of Huffman speculation.
        let train = b"aabbccddeeffgghh";
        let actual = b"hhggffeeddccbbaa";
        let t = table_for(train);
        let e = encode_block(actual, &t).unwrap();
        let back = decode_exact(&e.bytes, 0, e.bit_len, actual.len(), &t).unwrap();
        assert_eq!(back, actual);
    }

    #[test]
    fn decoder_reusable_across_blocks() {
        let data = b"block one and block two share a decoder";
        let t = table_for(data);
        let dec = Decoder::new(&t);
        for chunk in data.chunks(9) {
            let e = encode_block(chunk, &t).unwrap();
            let mut r = BitReader::new(&e.bytes, e.bit_len);
            assert_eq!(dec.decode_n(&mut r, chunk.len()).unwrap(), chunk);
        }
    }
}
