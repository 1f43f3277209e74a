//! Canonical Huffman decoding.
//!
//! The decoder is not part of the paper's measured pipeline; it exists as the
//! round-trip oracle that makes the test suite able to assert end-to-end
//! correctness of every committed speculative stream (and it is what a
//! consumer of the encoder's output would use).

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

/// A canonical decoder built from a [`CodeTable`].
///
/// Uses the standard canonical decode loop: for each code length `l`,
/// `first_code[l]` is the numerically smallest code of that length and
/// `first_index[l]` the rank of its symbol in canonical order.
pub struct Decoder {
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
        Decoder {
            first_code,
            first_index,
            count,
            symbols: order,
            max_len: lengths.iter().copied().max().unwrap_or(0),
        }
    }

    /// Decode exactly one symbol from the reader.
    pub fn decode_symbol(&self, r: &mut BitReader<'_>) -> Result<u8, DecodeError> {
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
        // Cap the pre-allocation by what the stream could possibly hold
        // (each symbol consumes >= 1 bit): `n_symbols` may come from an
        // untrusted header.
        let plausible = (r.remaining().min(usize::MAX as u64)) as usize;
        let mut out = Vec::with_capacity(n_symbols.min(plausible));
        for _ in 0..n_symbols {
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
