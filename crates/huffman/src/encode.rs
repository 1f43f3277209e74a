//! Block encoding — the paper's data-parallel `encode` task body — and the
//! placement of encoded blocks at the bit offsets the offset chain computed.
//!
//! An encode that knows where its block will start (`bit_off`) emits
//! `bit_off % 8` zero *lead* bits first, so its bytes are already aligned
//! with the output stream: [`place`] then ORs the two seam bytes it may
//! share with its neighbours and `memcpy`s everything between. Blocks can
//! be placed in any order; a block whose lead does not match its offset is
//! shifted into position first.

use crate::bitio::{BitWriter, WordWriter};
use crate::codes::{CodeTable, LONG_CODE, NO_CODE, PAIRS};
use crate::ALPHABET;

/// The encoded form of one input block.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EncodedBlock {
    /// `lead` zero bits, then the encoded bits, MSB-first, zero-padded to a
    /// byte boundary.
    pub bytes: Vec<u8>,
    /// Exact number of meaningful bits in `bytes` (the lead not counted).
    pub bit_len: u64,
    /// Number of source bytes this block encodes.
    pub src_len: usize,
    /// Zero bits in front of the encoded bits (0..=7): the position inside
    /// its first byte at which the block starts in the output stream.
    pub lead: u8,
}

/// The longest code a packed table entry holds: under a table with a
/// longer one, the encode pushes code by code through [`BitWriter::push`].
/// Only crafted code lengths, or inputs of about 10^11 bytes or more, grow
/// a Huffman code past it.
pub(crate) const WORD_CODE_BITS: u8 = 56;

/// Encode `block` with `table`.
///
/// Returns `None` if some byte of `block` has no code in `table` — this
/// happens when a *speculative* tree was built from a prefix histogram that
/// never saw that byte. The caller (the speculation engine) treats it as an
/// immediately failed speculation for that block.
pub fn encode_block(block: &[u8], table: &CodeTable) -> Option<EncodedBlock> {
    let mut out = EncodedBlock {
        bytes: Vec::with_capacity(block.len() + 8),
        ..EncodedBlock::default()
    };
    encode_block_into(block, table, &mut out).then_some(out)
}

/// Encode `block` with `table` into a caller-provided [`EncodedBlock`],
/// reusing its byte buffer's capacity (zero allocation once warm).
///
/// Returns `false` — leaving `out` empty — if some byte of `block` has no
/// code in `table` (the failed-speculation case of [`encode_block`]).
pub fn encode_block_into(block: &[u8], table: &CodeTable, out: &mut EncodedBlock) -> bool {
    encode_block_at(block, table, 0, out)
}

/// [`encode_block_into`] for a block that will start `lead` bits (0..=7)
/// into a byte of the output stream: the encoded bits follow `lead` zero
/// bits, so [`place`] can copy the bytes instead of shifting them.
pub fn encode_block_at(block: &[u8], table: &CodeTable, lead: u8, out: &mut EncodedBlock) -> bool {
    assert!(lead < 8, "a block starts inside its first byte");
    let buf = std::mem::take(&mut out.bytes);
    match encode_run(std::iter::once(block), table, lead, buf, || false) {
        Ok((run, _)) => {
            *out = run;
            true
        }
        Err(mut bytes) => {
            bytes.clear();
            *out = EncodedBlock {
                bytes,
                ..EncodedBlock::default()
            };
            false
        }
    }
}

/// Encode consecutive `blocks` back to back into one buffer: `lead` zero
/// bits (0..=7), then every block's bits with no padding between them —
/// what [`encode_block_at`] per block and [`concat_blocks`] would give.
/// The blocks are slices of wherever the input lies — the pipeline passes
/// `input[chunk].chunks(block_bytes)` — so nothing is copied to encode
/// them. `bits` is what the blocks encode to, as their offsets say; the
/// buffer is allocated once, at `(lead + bits).div_ceil(8)` bytes, and
/// never grows. `stop` is asked before every block; once it says so, the
/// rest are left out.
///
/// Returns the run and how many blocks it holds, or `None` if some byte
/// has no code in `table` (see [`encode_block`]).
///
/// # Panics
/// If all the blocks are encoded and they do not come to `bits` bits.
pub fn encode_blocks_at<'a>(
    blocks: impl IntoIterator<Item = &'a [u8], IntoIter: ExactSizeIterator>,
    table: &CodeTable,
    lead: u8,
    bits: u64,
    stop: impl FnMut() -> bool,
) -> Option<(EncodedBlock, usize)> {
    assert!(lead < 8, "a run starts inside its first byte");
    let blocks = blocks.into_iter();
    let n_blocks = blocks.len();
    let size = (u64::from(lead) + bits).div_ceil(8);
    let size = usize::try_from(size).expect("the run fits in memory");
    let (run, n) = encode_run(blocks, table, lead, vec![0; size], stop).ok()?;
    assert!(
        n < n_blocks || run.bit_len == bits,
        "the blocks encode to {} bits, their offsets say {bits}",
        run.bit_len
    );
    Some((run, n))
}

/// The encoder the entry points run: `lead` zero bits, then `blocks` back
/// to back, written over `buf` (recycled, or zeroed at the exact size; see
/// [`WordWriter`]). `stop` is asked before every block. Returns the run
/// and how many blocks it holds or, if some byte has no code, `buf` back.
fn encode_run<'a>(
    blocks: impl Iterator<Item = &'a [u8]>,
    table: &CodeTable,
    lead: u8,
    buf: Vec<u8>,
    mut stop: impl FnMut() -> bool,
) -> Result<(EncodedBlock, usize), Vec<u8>> {
    let mut w = match table.max_len() {
        0..=WORD_CODE_BITS => Writer::Words {
            buf,
            w: WordWriter::new(lead),
        },
        _ => Writer::bits(buf, lead),
    };
    let (mut n, mut src_len) = (0, 0);
    for block in blocks {
        if stop() {
            break;
        }
        if !w.put_block(block, table) {
            return Err(w.into_buf());
        }
        n += 1;
        src_len += block.len();
    }
    let (bytes, bits) = w.finish();
    let run = EncodedBlock {
        bytes,
        bit_len: bits - u64::from(lead),
        src_len,
        lead,
    };
    Ok((run, n))
}

/// Encode `data` code by code through [`BitWriter::push`] into a buffer of
/// `bits.div_ceil(8)` bytes — the serial codec's encode, which stays
/// independent of the word kernel (see [`crate::serial`]). `None` if some
/// byte has no code.
pub(crate) fn encode_code_by_code(data: &[u8], table: &CodeTable, bits: u64) -> Option<Vec<u8>> {
    let size = usize::try_from(bits.div_ceil(8)).expect("the stream fits in memory");
    let mut w = Writer::bits(Vec::with_capacity(size), 0);
    w.put_block(data, table).then(|| w.finish().0)
}

/// The writer a run encodes through: the word kernel or, for a table with
/// a code longer than [`WORD_CODE_BITS`] (and for the serial codec), the
/// code-at-a-time [`BitWriter`].
enum Writer {
    Words { buf: Vec<u8>, w: WordWriter },
    Bits(BitWriter),
}

impl Writer {
    fn bits(buf: Vec<u8>, lead: u8) -> Self {
        let mut w = BitWriter::from_recycled(buf);
        w.push(0, lead);
        Writer::Bits(w)
    }

    /// Append `block`'s codes; `false` if some byte has no code.
    fn put_block(&mut self, block: &[u8], table: &CodeTable) -> bool {
        match self {
            Writer::Words { buf, w } => put_symbols(buf, w, block, table.pairs(), table.packed()),
            Writer::Bits(w) => block.iter().all(|&b| {
                let len = table.len(b);
                w.push(table.code(b), len);
                len > 0
            }),
        }
    }

    fn finish(self) -> (Vec<u8>, u64) {
        match self {
            Writer::Words { buf, w } => w.finish(buf),
            Writer::Bits(w) => w.finish(),
        }
    }

    fn into_buf(self) -> Vec<u8> {
        match self {
            Writer::Words { buf, .. } => buf,
            Writer::Bits(w) => w.into_bytes(),
        }
    }
}

/// The encode loop, a group of 8 bytes at a time: the group is read as
/// one big-endian word and cut into four two-byte indices into the pair
/// table, whose entries are ORed together and tested once. Two pair codes
/// of at most 24 bits each fill at most 48 bits, which fit the word next to
/// the at most 7 a store leaves staged, so such a group (the common case)
/// is shifted in two pairs per store. A group with a code longer than
/// [`crate::codes::PAIR_CODE_BITS`] ([`LONG_CODE`]) is stored code by code
/// from `packed` (at most 56 + 7 bits), as is the tail of fewer than 8
/// bytes, and a byte without a code ([`NO_CODE`]) fails the block. Not
/// inlined, so that what the callers keep live across blocks cannot cost
/// the loop spills.
#[inline(never)]
fn put_symbols(
    buf: &mut Vec<u8>,
    w: &mut WordWriter,
    block: &[u8],
    pairs: &[u32; PAIRS],
    packed: &[u64; ALPHABET],
) -> bool {
    let mut words = *w;
    let mut groups = block.chunks_exact(8);
    for group in &mut groups {
        let x = u64::from_be_bytes(group.try_into().expect("8-byte group"));
        let e = [
            pairs[(x >> 48) as usize],
            pairs[usize::from((x >> 32) as u16)],
            pairs[usize::from((x >> 16) as u16)],
            pairs[usize::from(x as u16)],
        ];
        let any = e[0] | e[1] | e[2] | e[3];
        if any & (LONG_CODE | NO_CODE) == 0 {
            words.put(u64::from(e[0]));
            words.put(u64::from(e[1]));
            words.store(buf);
            words.put(u64::from(e[2]));
            words.put(u64::from(e[3]));
            words.store(buf);
        } else if any & NO_CODE != 0 || !put_codes(buf, &mut words, group, packed) {
            return false;
        }
    }
    if !put_codes(buf, &mut words, groups.remainder(), packed) {
        return false;
    }
    *w = words;
    true
}

/// [`put_symbols`]'s code-by-code path: one `packed` entry per byte, one
/// store per code. `false` if some byte has no code.
#[inline(always)]
fn put_codes(
    buf: &mut Vec<u8>,
    words: &mut WordWriter,
    bytes: &[u8],
    packed: &[u64; ALPHABET],
) -> bool {
    for &b in bytes {
        let e = packed[usize::from(b)];
        if e & u64::from(NO_CODE) != 0 {
            return false;
        }
        words.put(e);
        words.store(buf);
    }
    true
}

/// Concatenate encoded blocks into one contiguous bitstream: blocks are
/// packed back-to-back with no padding, in iteration order.
///
/// The pipeline does not assemble its output this way — it [`place`]s each
/// block at its offset as the block is committed; this is the in-order
/// form, for callers that hold all the blocks.
pub fn concat_blocks<'a, I: IntoIterator<Item = &'a EncodedBlock>>(blocks: I) -> (Vec<u8>, u64) {
    let mut w = BitWriter::new();
    for b in blocks {
        append_block(&mut w, b);
    }
    let bits = w.bit_len();
    (w.into_bytes(), bits)
}

/// Append one encoded block to a bit writer, bit-exact (its lead bits are
/// skipped).
///
/// When the writer sits on a byte boundary the block's whole bytes are
/// memcpy'd; otherwise they stream through the writer's 64-bit accumulator
/// a word at a time.
pub fn append_block(w: &mut BitWriter, b: &EncodedBlock) {
    let (mut bytes, mut bits) = (&b.bytes[..], b.bit_len);
    if b.lead > 0 && bits > 0 {
        // The rest of the first byte goes in on its own; what follows
        // starts on a byte boundary of the source again.
        let head = u64::from(8 - b.lead).min(bits) as u8;
        let first = bytes[0] & (0xFF >> b.lead);
        w.push(u64::from(first >> (8 - b.lead - head)), head);
        bytes = &bytes[1..];
        bits -= u64::from(head);
    }
    let full = (bits / 8) as usize;
    let tail_bits = (bits % 8) as u8;
    if w.is_byte_aligned() {
        w.extend_bytes(&bytes[..full]);
    } else {
        let mut words = bytes[..full].chunks_exact(8);
        for c in &mut words {
            w.push(u64::from_be_bytes(c.try_into().expect("8-byte chunk")), 64);
        }
        for &byte in words.remainder() {
            w.push(byte as u64, 8);
        }
    }
    if tail_bits > 0 {
        let tail = (bytes[full] >> (8 - tail_bits)) as u64;
        w.push(tail, tail_bits);
    }
}

/// Write block `b` into `stream` at bit offset `bit_off`, growing the
/// stream (zero-filled) to the block's last byte when it is shorter.
///
/// Blocks may be placed in any order, each exactly once and at offsets
/// that do not overlap: the first and the last byte of a block can be
/// shared with a neighbour that is already there, so they are ORed in,
/// and the target bits must still be zero. When `bit_off % 8 == b.lead`
/// the bytes between the seams are copied as they are; otherwise the block
/// is shifted into position through [`append_block`] first.
pub fn place(stream: &mut Vec<u8>, bit_off: u64, b: &EncodedBlock) {
    if b.bit_len == 0 {
        return;
    }
    let shift = (bit_off % 8) as u8;
    if shift == b.lead {
        return place_aligned(stream, bit_off, &b.bytes, b.bit_len);
    }
    let mut w = BitWriter::with_capacity_bits(b.bit_len as usize + 8);
    w.push(0, shift);
    append_block(&mut w, b);
    place_aligned(stream, bit_off, &w.into_bytes(), b.bit_len);
}

/// [`place`] for bytes whose first encoded bit already sits `bit_off % 8`
/// bits into `src[0]`. The block's bytes the stream already holds are ORed
/// (the seams) or copied into; those past its end are appended, so that
/// each byte is written once.
fn place_aligned(stream: &mut Vec<u8>, bit_off: u64, src: &[u8], bit_len: u64) {
    let start = usize::try_from(bit_off / 8).expect("the stream fits in memory");
    let end_bit = bit_off % 8 + bit_len;
    let n = usize::try_from(end_bit.div_ceil(8)).expect("the block fits in memory");
    let src = &src[..n];
    let held = stream.len().saturating_sub(start).min(n);
    if held < n {
        stream.resize(stream.len().max(start), 0);
        stream.extend_from_slice(&src[held..]);
    }
    let dst = &mut stream[start..start + n];
    // The bits of the seam bytes that belong to this block.
    let head = 0xFFu8 >> (bit_off % 8);
    let tail = match end_bit % 8 {
        0 => 0xFF,
        r => !(0xFFu8 >> r),
    };
    let (first, last) = if n == 1 {
        (head & tail, head & tail)
    } else {
        (head, tail)
    };
    // The interior bytes the stream held.
    let inner = 1..held.min(n - 1).max(1);
    debug_assert!(
        (held == 0 || dst[0] & first == 0)
            && (held < n || dst[n - 1] & last == 0)
            && dst[inner.clone()].iter().all(|&x| x == 0),
        "block placed over bits already written (bit offset {bit_off}, {bit_len} bits)"
    );
    let kept = |there: bool, byte: u8| if there { byte } else { 0 };
    dst[0] = kept(held > 0, dst[0]) | src[0] & first;
    if n > 1 {
        dst[n - 1] = kept(held == n, dst[n - 1]) | src[n - 1] & last;
        dst[inner.clone()].copy_from_slice(&src[inner]);
    }
}

/// Make `stream` exactly `bit_len` bits long: whole bytes (cut, or padded
/// with zeros), and the bits of the trailing partial byte past `bit_len`
/// cleared — they may belong to a block placed beyond the cut.
pub fn set_bit_len(stream: &mut Vec<u8>, bit_len: u64) {
    let n = usize::try_from(bit_len.div_ceil(8)).expect("the stream fits in memory");
    stream.resize(n, 0);
    if let r @ 1.. = bit_len % 8 {
        stream[n - 1] &= !(0xFFu8 >> r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode_exact;
    use crate::histogram::Histogram;

    fn table_for(data: &[u8]) -> CodeTable {
        CodeTable::build(&Histogram::from_bytes(data)).unwrap()
    }

    #[test]
    fn empty_block_encodes_to_zero_bits() {
        let t = table_for(b"ab");
        let e = encode_block(b"", &t).unwrap();
        assert_eq!(e.bit_len, 0);
        assert_eq!(e.src_len, 0);
        assert!(e.bytes.is_empty());
    }

    #[test]
    fn encode_rejects_uncovered_symbol() {
        let t = table_for(b"ab");
        assert!(encode_block(b"abz", &t).is_none());
    }

    #[test]
    fn bit_len_matches_table_prediction() {
        let data = b"speculation tolerates imprecision";
        let t = table_for(data);
        let e = encode_block(data, &t).unwrap();
        let predicted = t.encoded_bits(&Histogram::from_bytes(data)).unwrap();
        assert_eq!(e.bit_len, predicted);
    }

    #[test]
    fn encode_decode_round_trip() {
        let data = b"abracadabra abracadabra";
        let t = table_for(data);
        let e = encode_block(data, &t).unwrap();
        let back = decode_exact(&e.bytes, 0, e.bit_len, data.len(), &t).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn concat_is_bit_exact() {
        let data = b"first block|second block|third";
        let t = table_for(data);
        let parts: Vec<EncodedBlock> = data
            .chunks(7)
            .map(|c| encode_block(c, &t).unwrap())
            .collect();
        let (stream, total_bits) = concat_blocks(parts.iter());
        assert_eq!(total_bits, parts.iter().map(|p| p.bit_len).sum::<u64>());
        // Whole stream must decode back to the whole input.
        let back = decode_exact(&stream, 0, total_bits, data.len(), &t).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn blocks_decodable_at_their_offsets() {
        let data = b"offsets let encode tasks run in parallel!";
        let t = table_for(data);
        let parts: Vec<EncodedBlock> = data
            .chunks(5)
            .map(|c| encode_block(c, &t).unwrap())
            .collect();
        let (stream, _) = concat_blocks(parts.iter());
        let mut offset = 0u64;
        for (i, chunk) in data.chunks(5).enumerate() {
            let p = &parts[i];
            let back = decode_exact(&stream, offset, p.bit_len, chunk.len(), &t).unwrap();
            assert_eq!(back, chunk, "block {i}");
            offset += p.bit_len;
        }
    }

    #[test]
    fn encode_into_reuses_buffer_and_matches_fresh_encode() {
        let data = b"tolerant value speculation, block after block after block";
        let t = table_for(data);
        let mut out = EncodedBlock::default();
        for chunk in data.chunks(11) {
            assert!(encode_block_into(chunk, &t, &mut out));
            assert_eq!(out, encode_block(chunk, &t).unwrap());
        }
        let cap = out.bytes.capacity();
        assert!(encode_block_into(&data[..11], &t, &mut out));
        assert!(out.bytes.capacity() >= cap.min(out.bytes.len()));
    }

    #[test]
    fn encode_into_failure_leaves_empty_block() {
        let t = table_for(b"ab");
        let mut out = encode_block(b"ab", &t).unwrap();
        assert!(!encode_block_into(b"abz", &t, &mut out));
        assert_eq!(out.bit_len, 0);
        assert_eq!(out.src_len, 0);
        assert!(out.bytes.is_empty());
    }

    #[test]
    fn lead_bits_are_zero_and_not_counted() {
        let data = b"a block that starts five bits into its first byte";
        let t = table_for(data);
        let plain = encode_block(data, &t).unwrap();
        let mut led = EncodedBlock::default();
        assert!(encode_block_at(data, &t, 5, &mut led));
        assert_eq!((led.lead, led.bit_len), (5, plain.bit_len));
        assert_eq!(led.bytes[0] >> 3, 0, "five zero bits lead");
        let back = decode_exact(&led.bytes, 5, led.bit_len, data.len(), &t).unwrap();
        assert_eq!(back, data);
        // Concatenation skips the lead: same stream as from plain blocks.
        assert_eq!(concat_blocks([&led, &led]), concat_blocks([&plain, &plain]));
        // A failed encode leaves no lead behind.
        assert!(!encode_block_at(b"\0", &t, 5, &mut led));
        assert_eq!(led, EncodedBlock::default());
    }

    #[test]
    fn place_grows_the_stream_when_the_output_outgrows_the_input() {
        // A covering tree built from a prefix that saw only 'a': every
        // other byte costs more than 8 bits.
        let covering = crate::tree::CodeLengths::build_covering(&Histogram::from_bytes(b"aaaa"));
        let t = CodeTable::from_lengths(&covering.unwrap());
        let data: Vec<u8> = (0..2048u32).map(|i| (i * 37 % 251) as u8).collect();
        let mut stream = Vec::with_capacity(data.len());
        let (mut at, mut out) = (0u64, EncodedBlock::default());
        for block in data.chunks(100) {
            assert!(encode_block_at(block, &t, (at % 8) as u8, &mut out));
            place(&mut stream, at, &out);
            at += out.bit_len;
        }
        assert!(stream.len() > data.len(), "{} bytes out", stream.len());
        let back = decode_exact(&stream, 0, at, data.len(), &t).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "over bits already written")]
    fn placing_a_block_twice_is_caught() {
        let t = table_for(b"ab");
        let e = encode_block(b"abba", &t).unwrap();
        let mut stream = Vec::new();
        place(&mut stream, 3, &e);
        place(&mut stream, 3, &e);
    }

    #[test]
    fn set_bit_len_cuts_pads_and_clears_the_shared_byte() {
        let mut s = vec![0xFF; 4];
        set_bit_len(&mut s, 19);
        assert_eq!(s, [0xFF, 0xFF, 0b1110_0000]);
        set_bit_len(&mut s, 16);
        assert_eq!(s, [0xFF, 0xFF]);
        set_bit_len(&mut s, 26);
        assert_eq!(s, [0xFF, 0xFF, 0, 0]);
    }

    #[test]
    fn compression_beats_raw_for_skewed_input() {
        let data: Vec<u8> = std::iter::repeat_n(b'e', 900)
            .chain(std::iter::repeat_n(b'q', 100))
            .collect();
        let t = table_for(&data);
        let e = encode_block(&data, &t).unwrap();
        assert!(
            e.bit_len < data.len() as u64 * 8 / 4,
            "skewed input should compress 4x+"
        );
    }
}
