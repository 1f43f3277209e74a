//! MSB-first bit-level I/O used by the block encoder and decoder.
//!
//! `WordWriter` is the encode kernel's writer. Codes come from packed table
//! entries (`code << 8 | len`, see [`crate::CodeTable`]) — one symbol's, or
//! the two codes of a pair of bytes as one — and are shifted into the low
//! end of a 64-bit accumulator, several between stores with no check: two
//! pair codes of at most 24 bits each (48 bits) per store, or one longer
//! code, so that with the at most 7 bits a store leaves behind the word
//! never holds more than 64. A store writes
//! the whole word big-endian with one `copy_from_slice`, advances `nb / 8`
//! bytes and keeps the `nb % 8` bits that do not fill a byte. The
//! pipeline's buffers are sized to the exact bit count the offsets give;
//! the last few bytes of such a buffer, where a whole word no longer fits,
//! are written through a checked path that never grows it.
//!
//! [`BitWriter`] pushes one code at a time, of any length up to 64 bits. It
//! encodes under a table whose longest code exceeds the 56 bits a packed
//! entry holds, runs the serial codec's encode (kept apart from the word
//! kernel, so that the two check each other) and concatenates encoded
//! blocks ([`crate::encode::append_block`]).
//!
//! [`BitReader`] is the read-side twin of `WordWriter`: its one multi-bit
//! read is a window, the next eight bytes of the buffer loaded as one
//! big-endian word and shifted past the bits of its first byte already
//! read, so that at least 57 of its bits are the stream's. The decoder
//! looks up several codes in one window; [`BitReader::read_bits`] takes a
//! field of up to 57 bits from one, and a longer one from two.

use crate::codes::LEN_MASK;

/// The encode kernel's writer: codes staged at the low end of a 64-bit
/// accumulator, stored a whole big-endian word at a time into a byte buffer
/// the caller holds and passes to every store.
///
/// The `nb` bits (0..=64) at the low end of `acc` belong at byte `pos` of
/// the buffer onwards; every byte before `pos` is final. A store writes all
/// 8 bytes whatever `nb` is: the ones past the staged bits are written
/// again by the next store, or cut off by [`Self::finish`]. So the buffer
/// need only be initialised, not zeroed — a recycled one is overwritten as
/// it lies. The writer is `Copy` and holds no reference, so the encode loop
/// keeps a copy of it in registers.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WordWriter {
    pos: usize,
    acc: u64,
    nb: u32,
}

impl WordWriter {
    /// A writer at the start of a buffer, its first `lead` (0..=7) bits zero.
    pub(crate) fn new(lead: u8) -> Self {
        WordWriter {
            pos: 0,
            acc: 0,
            nb: u32::from(lead),
        }
    }

    /// Stage the code of a packed table entry (see [`crate::CodeTable`]).
    /// The caller stores before more than 64 bits are staged.
    #[inline(always)]
    pub(crate) fn put(&mut self, entry: u64) {
        let len = (entry & LEN_MASK) as u32;
        self.acc = self.acc << len | entry >> 8;
        self.nb += len;
    }

    /// Store the staged bits — at least one — into `buf`, keeping the at
    /// most 7 that do not fill a byte.
    #[inline(always)]
    pub(crate) fn store(&mut self, buf: &mut Vec<u8>) {
        debug_assert!((1..=64).contains(&self.nb), "{} bits staged", self.nb);
        let word = self.acc << (64 - self.nb);
        match buf.get_mut(self.pos..self.pos + 8) {
            Some(dst) => dst.copy_from_slice(&word.to_be_bytes()),
            None => store_near_end(buf, self.pos, self.nb, word),
        }
        self.pos += (self.nb / 8) as usize;
        self.nb %= 8;
    }

    /// Finish, returning `buf` — cut to the bits written, the unused bits
    /// of its last byte zero — and the exact bit count, lead included.
    pub(crate) fn finish(mut self, mut buf: Vec<u8>) -> (Vec<u8>, u64) {
        let bits = self.pos as u64 * 8 + u64::from(self.nb);
        if self.nb > 0 {
            self.store(&mut buf);
        }
        let len = usize::try_from(bits.div_ceil(8)).expect("the bytes are in memory");
        debug_assert!(buf.len() >= len, "every byte up to the last bit is stored");
        buf.truncate(len);
        (buf, bits)
    }
}

/// [`WordWriter::store`] where fewer than 8 bytes of `buf` are left at
/// `pos`: zero the spare capacity (once), then write as much of the word as
/// fits. `buf` grows only when the `nb` staged bits themselves do not fit,
/// which a buffer sized to the exact bit count never needs.
#[cold]
#[inline(never)]
fn store_near_end(buf: &mut Vec<u8>, pos: usize, nb: u32, word: u64) {
    let need = pos + nb.div_ceil(8) as usize;
    if need > buf.capacity() {
        buf.reserve(need - buf.len());
    }
    buf.resize(buf.capacity(), 0);
    let n = (buf.len() - pos).min(8);
    buf[pos..pos + n].copy_from_slice(&word.to_be_bytes()[..n]);
}

/// Writes variable-length codes into a growing byte buffer, MSB first.
///
/// Bits are staged in a 64-bit accumulator (`acc`, top `acc_bits` bits
/// valid) and flushed to `buf` a whole word at a time.
#[derive(Clone, Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Staging word; the high `acc_bits` bits are valid, the rest zero.
    acc: u64,
    /// Valid bits in `acc` (0..=63 — a full word is flushed immediately).
    acc_bits: u8,
}

impl BitWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer with capacity for roughly `bits` bits.
    pub fn with_capacity_bits(bits: usize) -> Self {
        BitWriter {
            buf: Vec::with_capacity(bits / 8 + 8),
            acc: 0,
            acc_bits: 0,
        }
    }

    /// An empty writer backed by a recycled byte buffer: `buf` is cleared
    /// but its capacity is kept, so steady-state encoding allocates nothing.
    pub fn from_recycled(mut buf: Vec<u8>) -> Self {
        buf.clear();
        BitWriter {
            buf,
            acc: 0,
            acc_bits: 0,
        }
    }

    /// Append the low `len` bits of `code`, most significant of those first.
    ///
    /// `len` must be at most 64. `len == 0` is a no-op.
    // Always inlined: the serial codec, the long-code encode and
    // `append_block` call it once per code or word, and whether a plain
    // `#[inline]` hint was taken changed with unrelated code in the crate
    // (out of line, a 4 MB serial encode once ran ~25 % slower).
    #[inline(always)]
    pub fn push(&mut self, code: u64, len: u8) {
        debug_assert!(len <= 64);
        debug_assert!(len == 64 || code < (1u64 << len) || len == 0);
        if len == 0 {
            return;
        }
        // Clear any garbage above the low `len` bits (shift is 0..=63 here).
        let code = code & (u64::MAX >> (64 - len));
        let free = 64 - self.acc_bits; // 1..=64
        if len <= free {
            // The whole code fits: place its MSB right under the valid bits.
            self.acc |= code << (free - len);
            self.acc_bits += len;
            if self.acc_bits == 64 {
                self.buf.extend_from_slice(&self.acc.to_be_bytes());
                self.acc = 0;
                self.acc_bits = 0;
            }
        } else {
            // Top `free` bits complete the word; the rest starts a new one.
            self.acc |= code >> (len - free);
            self.buf.extend_from_slice(&self.acc.to_be_bytes());
            let rem = len - free; // 1..=63
            self.acc = code << (64 - rem);
            self.acc_bits = rem;
        }
    }

    /// True when the bit cursor sits on a byte boundary.
    pub fn is_byte_aligned(&self) -> bool {
        self.acc_bits.is_multiple_of(8)
    }

    /// Append whole bytes verbatim. Only valid on a byte boundary
    /// ([`Self::is_byte_aligned`]); use [`Self::push`] otherwise.
    pub fn extend_bytes(&mut self, bytes: &[u8]) {
        debug_assert!(self.is_byte_aligned(), "extend_bytes needs alignment");
        self.flush_acc();
        self.buf.extend_from_slice(bytes);
    }

    /// Spill the accumulator's complete bytes into `buf`, leaving at most
    /// 7 valid bits staged.
    fn flush_acc(&mut self) {
        let whole = (self.acc_bits / 8) as usize;
        if whole > 0 {
            self.buf.extend_from_slice(&self.acc.to_be_bytes()[..whole]);
            self.acc <<= 8 * whole;
            self.acc_bits -= 8 * whole as u8;
        }
    }

    /// Total number of bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.buf.len() as u64 * 8 + self.acc_bits as u64
    }

    /// Finish and return the backing bytes; unused trailing bits are zero.
    pub fn into_bytes(self) -> Vec<u8> {
        self.finish().0
    }

    /// Finish, returning the backing bytes and the exact bit length.
    pub fn finish(mut self) -> (Vec<u8>, u64) {
        let bits = self.bit_len();
        let tail = (self.acc_bits as usize).div_ceil(8);
        self.buf.extend_from_slice(&self.acc.to_be_bytes()[..tail]);
        (self.buf, bits)
    }
}

/// Reads bits MSB-first from a byte slice.
#[derive(Clone, Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Absolute bit cursor.
    pos: u64,
    /// One past the last readable bit.
    end: u64,
}

impl<'a> BitReader<'a> {
    /// Read up to `bit_len` bits from `data`.
    ///
    /// # Panics
    /// Panics if `bit_len` exceeds the bits available in `data`.
    pub fn new(data: &'a [u8], bit_len: u64) -> Self {
        assert!(bit_len <= data.len() as u64 * 8, "bit_len exceeds data");
        BitReader {
            data,
            pos: 0,
            end: bit_len,
        }
    }

    /// Start reading at an absolute bit offset (used when decoding a block
    /// out of a concatenated stream).
    ///
    /// # Panics
    /// Panics if the requested bit range exceeds `data` (including when
    /// `bit_offset + bit_len` overflows a `u64`). Use
    /// [`Self::try_at_offset`] for untrusted offsets.
    pub fn at_offset(data: &'a [u8], bit_offset: u64, bit_len: u64) -> Self {
        Self::try_at_offset(data, bit_offset, bit_len).expect("offset+len exceeds data")
    }

    /// Fallible [`Self::at_offset`]: `None` when the requested range lies
    /// outside `data` or `bit_offset + bit_len` overflows. Offsets and
    /// lengths parsed out of untrusted headers must come through here.
    pub fn try_at_offset(data: &'a [u8], bit_offset: u64, bit_len: u64) -> Option<Self> {
        let end = bit_offset.checked_add(bit_len)?;
        if end > data.len() as u64 * 8 {
            return None;
        }
        Some(BitReader {
            data,
            pos: bit_offset,
            end,
        })
    }

    /// Bits still available.
    pub fn remaining(&self) -> u64 {
        self.end - self.pos
    }

    /// Read a single bit; `None` at end of stream.
    #[inline]
    pub fn read_bit(&mut self) -> Option<u8> {
        if self.pos >= self.end {
            return None;
        }
        let byte = self.data[(self.pos / 8) as usize];
        let bit = (byte >> (7 - (self.pos % 8) as u8)) & 1;
        self.pos += 1;
        Some(bit)
    }

    /// Read `n` bits (n ≤ 64) into the low bits of a u64; `None` if fewer
    /// than `n` remain.
    pub fn read_bits(&mut self, n: u8) -> Option<u64> {
        debug_assert!(n <= 64);
        if self.remaining() < u64::from(n) {
            return None;
        }
        if n > 57 {
            // More than one window is sure to hold.
            let high = self.read_bits(n - 32)?;
            return Some(high << 32 | self.read_bits(32)?);
        }
        let v = match n {
            0 => 0,
            n => self.window() >> (64 - n),
        };
        self.skip(u32::from(n));
        Some(v)
    }

    /// The next 64 bits of the buffer from the cursor, most significant
    /// first, consuming none: the eight bytes from the cursor's byte on,
    /// loaded as one big-endian word and shifted past the bits of that byte
    /// already read. The top `min(57, remaining())` bits are the stream's;
    /// the ones after them are whatever follows in the buffer, or zero. A
    /// window with at least 64 bits remaining is one load.
    #[inline(always)]
    pub(crate) fn window(&self) -> u64 {
        let byte = (self.pos / 8) as usize;
        let word = match self.data.get(byte..byte + 8) {
            Some(w) => u64::from_be_bytes(w.try_into().expect("8 bytes")),
            None => tail_word(&self.data[byte..]),
        };
        word << (self.pos % 8)
    }

    /// Consume `n` bits, at most [`Self::remaining`].
    #[inline(always)]
    pub(crate) fn skip(&mut self, n: u32) {
        debug_assert!(u64::from(n) <= self.remaining());
        self.pos += u64::from(n);
    }
}

/// The big-endian word of the fewer than 8 bytes `rest` at a buffer's end,
/// zero-padded.
#[cold]
fn tail_word(rest: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w[..rest.len()].copy_from_slice(rest);
    u64::from_be_bytes(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_writer() {
        let w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        assert!(w.into_bytes().is_empty());
    }

    #[test]
    fn push_zero_len_is_noop() {
        let mut w = BitWriter::new();
        w.push(0b1, 0);
        assert_eq!(w.bit_len(), 0);
    }

    #[test]
    fn single_bits_pack_msb_first() {
        let mut w = BitWriter::new();
        for b in [1u64, 0, 1, 1, 0, 0, 1, 0] {
            w.push(b, 1);
        }
        assert_eq!(w.bit_len(), 8);
        assert_eq!(w.into_bytes(), vec![0b1011_0010]);
    }

    #[test]
    fn cross_byte_codes() {
        let mut w = BitWriter::new();
        w.push(0b10110, 5);
        w.push(0b0111011, 7); // crosses into the second byte
        assert_eq!(w.bit_len(), 12);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0b1011_0011, 0b1011_0000]);
    }

    #[test]
    fn sixty_four_bit_push() {
        let mut w = BitWriter::new();
        let v = 0xDEAD_BEEF_CAFE_F00Du64;
        w.push(v, 64);
        assert_eq!(w.bit_len(), 64);
        assert_eq!(w.into_bytes(), v.to_be_bytes().to_vec());
    }

    #[test]
    fn word_boundary_crossing_codes() {
        // Codes that straddle the 64-bit accumulator boundary must come
        // back bit-exact — this is the split branch of `push`.
        let mut w = BitWriter::new();
        w.push(0x7FFF_FFFF_FFFF_FFFF, 63);
        w.push(0b1010_1010_1010, 12); // 63+12 crosses the word
        w.push(0x1FF, 9);
        let total = w.bit_len();
        assert_eq!(total, 84);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes, total);
        assert_eq!(r.read_bits(63), Some(0x7FFF_FFFF_FFFF_FFFF));
        assert_eq!(r.read_bits(12), Some(0b1010_1010_1010));
        assert_eq!(r.read_bits(9), Some(0x1FF));
    }

    #[test]
    fn writer_reader_round_trip() {
        let pieces: Vec<(u64, u8)> = vec![
            (0b1, 1),
            (0b0, 1),
            (0b101, 3),
            (0xFFFF, 16),
            (0, 5),
            (0b110011, 6),
            (0x1234_5678_9ABC, 48),
        ];
        let mut w = BitWriter::new();
        for &(c, l) in &pieces {
            w.push(c, l);
        }
        let total = w.bit_len();
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes, total);
        for &(c, l) in &pieces {
            assert_eq!(r.read_bits(l), Some(c));
        }
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.read_bit(), None);
    }

    #[test]
    fn reader_at_offset() {
        let mut w = BitWriter::new();
        w.push(0b111, 3);
        w.push(0b01010, 5);
        let bytes = w.into_bytes();
        let mut r = BitReader::at_offset(&bytes, 3, 5);
        assert_eq!(r.read_bits(5), Some(0b01010));
        assert_eq!(r.read_bit(), None);
    }

    #[test]
    fn window_and_read_bits_match_bit_reads_at_every_offset() {
        // Every cursor position of a 12-byte buffer, the last eight bytes
        // included (where the window is zero-padded), and every field width.
        let bytes: Vec<u8> = (0..12u8).map(|i| i.wrapping_mul(0x9D) ^ 0x5A).collect();
        let total = bytes.len() as u64 * 8;
        for at in 0..=total {
            let r = BitReader::at_offset(&bytes, at, total - at);
            let mut bits = r.clone();
            let mut want = 0u64;
            for _ in 0..64 {
                want = want << 1 | u64::from(bits.read_bit().unwrap_or(0));
            }
            // The bits of the first byte already read are shifted out.
            let fresh = at % 8;
            assert_eq!(r.window(), want >> fresh << fresh, "window at bit {at}");
            for n in 0..=64u8 {
                let mut r = r.clone();
                let got = r.read_bits(n);
                if u64::from(n) > total - at {
                    assert_eq!(got, None, "{n} bits at bit {at}");
                } else {
                    let want = if n == 0 { 0 } else { want >> (64 - n) };
                    assert_eq!(got, Some(want), "{n} bits at bit {at}");
                    assert_eq!(r.remaining(), total - at - u64::from(n));
                }
            }
        }
    }

    #[test]
    fn reader_respects_bit_len_limit() {
        let bytes = [0xFFu8, 0xFF];
        let mut r = BitReader::new(&bytes, 10);
        assert_eq!(r.read_bits(10), Some(0x3FF));
        assert_eq!(r.read_bit(), None);
    }

    #[test]
    #[should_panic(expected = "bit_len exceeds data")]
    fn reader_rejects_overlong_bit_len() {
        let _ = BitReader::new(&[0u8], 9);
    }

    #[test]
    fn bit_len_tracks_partial_bytes() {
        let mut w = BitWriter::new();
        w.push(0b1, 1);
        assert_eq!(w.bit_len(), 1);
        w.push(0b1111111, 7);
        assert_eq!(w.bit_len(), 8);
        w.push(0b1, 1);
        assert_eq!(w.bit_len(), 9);
        let (bytes, bits) = w.finish();
        assert_eq!(bits, 9);
        assert_eq!(bytes.len(), 2, "9 bits pad to two bytes");
    }

    #[test]
    fn extend_bytes_matches_pushed_bytes() {
        let payload: Vec<u8> = (0u8..=255).collect();
        let mut a = BitWriter::new();
        a.push(0xAB, 8);
        a.extend_bytes(&payload);
        let mut b = BitWriter::new();
        b.push(0xAB, 8);
        for &x in &payload {
            b.push(x as u64, 8);
        }
        assert_eq!(a.bit_len(), b.bit_len());
        assert_eq!(a.into_bytes(), b.into_bytes());
    }

    #[test]
    fn recycled_buffer_keeps_capacity_and_starts_empty() {
        let mut w = BitWriter::with_capacity_bits(1024);
        w.push(0xFFFF, 16);
        let (bytes, _) = w.finish();
        let cap = bytes.capacity();
        let mut w2 = BitWriter::from_recycled(bytes);
        assert_eq!(w2.bit_len(), 0);
        w2.push(0b101, 3);
        let (bytes2, bits2) = w2.finish();
        assert_eq!(bits2, 3);
        assert_eq!(bytes2, vec![0b1010_0000]);
        assert!(bytes2.capacity() >= cap.min(1), "capacity retained");
    }
}
