//! Property-based tests for the Huffman substrate — hand-rolled seeded
//! loops (`tvs_rng::cases`); the offline build has no proptest, and
//! deterministic per-case seeds reproduce failures exactly.

use tvs_huffman::decode::DecodeError;
use tvs_huffman::{
    concat_blocks, decode_exact, encode_block, encode_block_at, encode_blocks_at, place,
    relative_cost_delta, serial_decode, serial_encode, BitReader, BitWriter, BlockCounts,
    CodeLengths, CodeTable, Decoder, EncodedBlock, Histogram, OffsetChain,
};
use tvs_rng::{bytes, cases, SmallRng};

/// encode ∘ decode = identity for arbitrary non-empty inputs.
#[test]
fn prop_round_trip() {
    cases(0x4F01, 64, |rng, _| {
        let data = bytes(rng, 1..4096);
        let enc = serial_encode(&data).unwrap();
        assert_eq!(serial_decode(&enc).unwrap(), data);
    });
}

/// Optimal code cost lies within [H, H + n) bits (Shannon bound).
#[test]
fn prop_shannon_bound() {
    cases(0x4F02, 64, |rng, _| {
        let data = bytes(rng, 2..4096);
        let h = Histogram::from_bytes(&data);
        let cl = CodeLengths::build(&h).unwrap();
        let cost = cl.cost_bits(&h).unwrap() as f64;
        let entropy = h.entropy_bits() * data.len() as f64;
        assert!(cost >= entropy - 1e-6);
        assert!(cost < entropy + data.len() as f64 + 1.0);
    });
}

/// Histogram merge is commutative and associative.
#[test]
fn prop_merge_algebra() {
    cases(0x4F03, 64, |rng, _| {
        let (a, b, c) = (bytes(rng, 0..512), bytes(rng, 0..512), bytes(rng, 0..512));
        let (ha, hb, hc) = (
            Histogram::from_bytes(&a),
            Histogram::from_bytes(&b),
            Histogram::from_bytes(&c),
        );
        // commutativity
        let ab = Histogram::merged([&ha, &hb]);
        let ba = Histogram::merged([&hb, &ha]);
        assert_eq!(&ab, &ba);
        // associativity
        let ab_c = Histogram::merged([&ab, &hc]);
        let bc = Histogram::merged([&hb, &hc]);
        let a_bc = Histogram::merged([&ha, &bc]);
        assert_eq!(ab_c, a_bc);
    });
}

/// Blockwise encoding + offset chain reproduces the serial stream
/// bit-for-bit when the same (final) table is used.
#[test]
fn prop_blockwise_equals_serial() {
    cases(0x4F04, 64, |rng, _| {
        let data = bytes(rng, 1..4096);
        let chunk = rng.random_range(1..257usize);
        let serial = serial_encode(&data).unwrap();
        let blocks: Vec<&[u8]> = data.chunks(chunk).collect();
        let encoded: Vec<_> = blocks
            .iter()
            .map(|b| encode_block(b, &serial.table).unwrap())
            .collect();
        let (stream, bits) = concat_blocks(encoded.iter());
        assert_eq!(bits, serial.bit_len);
        assert_eq!(stream, serial.bytes);
    });
}

/// Cut `data` into blocks of `block` bytes (plus a few empty ones), encode
/// each with the lead `leads` picks for its offset, and place them in a
/// random order: the stream is the one-block encode of `data`, bit for bit.
fn placed_equals_whole(
    rng: &mut SmallRng,
    data: &[u8],
    block: usize,
    table: &CodeTable,
    leads: impl Fn(&mut SmallRng, u64) -> u8,
) {
    let whole = encode_block(data, table).expect("the table covers the data");
    let mut blocks: Vec<&[u8]> = data.chunks(block).collect();
    for _ in 0..3 {
        blocks.insert(rng.random_range(0..=blocks.len()), &[]);
    }
    let hists: Vec<Histogram> = blocks.iter().map(|b| Histogram::from_bytes(b)).collect();
    let mut chain = OffsetChain::new();
    let starts = chain.extend_group(&hists, table).expect("covered");
    assert_eq!(chain.total_bits(), whole.bit_len);

    let mut order: Vec<usize> = (0..blocks.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    let mut stream = Vec::new();
    let mut out = EncodedBlock::default();
    for i in order {
        let lead = leads(rng, starts[i]);
        assert!(encode_block_at(blocks[i], table, lead, &mut out));
        assert_eq!(out.lead, lead);
        let end = starts.get(i + 1).copied().unwrap_or(whole.bit_len);
        assert_eq!(out.bit_len, end - starts[i]);
        place(&mut stream, starts[i], &out);
    }
    assert_eq!(stream, whole.bytes, "block size {block}");
}

/// Offset-placed output equals the serial stream: any block size (blocks
/// of one symbol share bytes several at a time), any placement order, and
/// whether the encode was told its offset (lead-aligned: seam OR + copy),
/// not told (lead 0: shifted into place) or told a wrong one.
#[test]
fn prop_placed_stream_equals_serial() {
    let aligned = |_: &mut SmallRng, at: u64| (at % 8) as u8;
    let zero = |_: &mut SmallRng, _: u64| 0;
    let mixed = |rng: &mut SmallRng, at: u64| match rng.random_range(0..3u8) {
        0 => (at % 8) as u8,
        1 => 0,
        _ => rng.random_range(0..8u8),
    };
    cases(0x4F0B, 48, |rng, case| {
        // Every third input is heavily skewed: one- and two-bit codes.
        let mut data = bytes(rng, 1..9000);
        if case % 3 == 0 {
            for b in &mut data {
                *b = [0, 0, 0, 0, 0, 1, 1, 2][*b as usize % 8];
            }
        }
        let serial = serial_encode(&data).unwrap();
        assert_eq!(
            encode_block(&data, &serial.table).unwrap().bytes,
            serial.bytes
        );
        for block in [1, 7, 512, 4096] {
            placed_equals_whole(rng, &data, block, &serial.table, aligned);
            placed_equals_whole(rng, &data, block, &serial.table, zero);
            placed_equals_whole(rng, &data, block, &serial.table, mixed);
        }
    });
    // The Kraft-tight table with codes of every length up to 64 bits.
    let mut lens = [0u8; 256];
    for (i, l) in lens.iter_mut().enumerate().take(63) {
        *l = i as u8 + 1;
    }
    (lens[63], lens[64]) = (64, 64);
    let table = CodeTable::from_lengths(&CodeLengths::from_lengths(lens).unwrap());
    cases(0x4F0C, 16, |rng, _| {
        let data: Vec<u8> = (bytes(rng, 1..600).iter().map(|b| b % 65)).collect();
        for block in [1, 7, 512] {
            placed_equals_whole(rng, &data, block, &table, mixed);
        }
    });
}

/// Consecutive blocks encoded as one run, after any lead, are the
/// per-block encodes concatenated, bit for bit, in one buffer allocated at
/// the exact size; a `stop` that fires before block k leaves blocks `..k`.
#[test]
fn prop_run_equals_concatenated_blocks() {
    cases(0x4F0D, 48, |rng, _| {
        let data = bytes(rng, 1..6000);
        let table = serial_encode(&data).unwrap().table;
        // Random cuts, empty blocks included.
        let mut blocks: Vec<&[u8]> = Vec::new();
        let mut rest = &data[..];
        while !rest.is_empty() || blocks.len() < 2 {
            let (block, tail) = rest.split_at(rng.random_range(0..=rest.len().min(1500)));
            blocks.push(block);
            rest = tail;
        }
        let per: Vec<EncodedBlock> = blocks
            .iter()
            .map(|b| {
                let mut e = EncodedBlock::default();
                assert!(encode_block_at(b, &table, rng.random_range(0..8u8), &mut e));
                e
            })
            .collect();
        let bits: u64 = per.iter().map(|e| e.bit_len).sum();
        for lead in 0..8u8 {
            let k = rng.random_range(0..=blocks.len());
            let mut asked = 0;
            let stop = || {
                asked += 1;
                asked > k
            };
            let (run, n) = encode_blocks_at(blocks.iter().copied(), &table, lead, bits, stop)
                .expect("covered");
            assert_eq!(n, k, "lead {lead}: stopped before block {k}");
            let size = (u64::from(lead) + bits).div_ceil(8) as usize;
            assert_eq!(
                run.bytes.capacity(),
                size,
                "lead {lead}: the buffer never grew"
            );
            assert_eq!(run.lead, lead);
            assert_eq!(
                run.src_len,
                blocks[..k].iter().map(|b| b.len()).sum::<usize>()
            );
            if lead > 0 && !run.bytes.is_empty() {
                assert_eq!(run.bytes[0] >> (8 - lead), 0, "lead {lead}: zero lead bits");
            }
            assert_eq!(
                concat_blocks([&run]),
                concat_blocks(&per[..k]),
                "lead {lead}, {k} of {} blocks",
                blocks.len()
            );
        }
    });
    // A byte the table has no code for fails the run.
    let table = serial_encode(b"ab").unwrap().table;
    let blocks: [&[u8]; 2] = [b"ab", b"az"];
    assert!(encode_blocks_at(blocks, &table, 3, 8, || false).is_none());
}

/// The reference the encode kernel is held to: `lead` zero bits, then the
/// code of every byte of `blocks`, pushed one at a time through
/// [`BitWriter::push`]. The bytes and the bit count (lead not counted), or
/// `None` if some byte has no code.
fn reference_encode(blocks: &[&[u8]], table: &CodeTable, lead: u8) -> Option<(Vec<u8>, u64)> {
    let mut w = BitWriter::new();
    w.push(0, lead);
    for &b in blocks.iter().flat_map(|block| block.iter()) {
        let len = table.len(b);
        if len == 0 {
            return None;
        }
        w.push(table.code(b), len);
    }
    let (bytes, bits) = w.finish();
    Some((bytes, bits - u64::from(lead)))
}

/// The Kraft-tight table of depth `depth`: symbol `i` gets a code of
/// `i + 1` bits, and symbols `depth - 1` and `depth` both get `depth` bits;
/// every other byte has no code.
fn kraft_tight(depth: u8) -> CodeTable {
    let mut lens = [0u8; 256];
    for (i, l) in lens.iter_mut().enumerate().take(usize::from(depth)) {
        *l = i as u8 + 1;
    }
    lens[usize::from(depth)] = depth;
    CodeTable::from_lengths(&CodeLengths::from_lengths(lens).expect("Kraft-tight"))
}

/// Every entry point of the encode kernel — a run of blocks stopped at a
/// random block, one block at a time into a recycled buffer, the serial
/// codec — writes the bytes the bit-at-a-time reference writes, after any
/// lead. The tables are final (longest code 8–14 bits), covering ones built
/// from a prefix (longer codes for the bytes it never saw) and Kraft-tight
/// ones whose longest code sits at either side of the kernel's bounds — 12
/// and 13 bits (what a pair entry holds), 56 and 57 (what a packed entry
/// holds) — or between and past them (14, 15, 20, 28, 64). A run is written
/// into a buffer of the exact size that never grows; a byte without a code
/// fails every entry point. Then the pair loop's edges (see
/// [`pair_loop_edges`]).
#[test]
fn prop_kernel_equals_bit_at_a_time_reference() {
    pair_loop_edges();
    cases(0x4F0F, 24, |rng, case| {
        let mut raw = bytes(rng, 1..5000);
        if case % 2 == 1 {
            // Skewed towards a few bytes: the shortest codes.
            for b in &mut raw {
                *b = b.leading_zeros() as u8 * 3 + *b % 3;
            }
        }
        let serial = serial_encode(&raw).unwrap();
        assert_eq!(
            reference_encode(&[&raw], &serial.table, 0),
            Some((serial.bytes.clone(), serial.bit_len)),
            "serial codec"
        );
        assert_eq!(
            serial.bytes.capacity(),
            serial.bytes.len(),
            "serial: exact size"
        );
        let prefix = Histogram::from_bytes(&raw[..raw.len().div_ceil(8)]);
        let covering = CodeLengths::build_covering(&prefix).unwrap();
        let mut tables = vec![
            (serial.table.clone(), 256),
            (CodeTable::from_lengths(&covering), 256),
        ];
        for depth in [12, 13, 14, 15, 20, 28, 56, 57, 64] {
            tables.push((kraft_tight(depth), usize::from(depth) + 1));
        }
        for (table, symbols) in &tables {
            // The bytes folded onto the symbols the table codes.
            let data: Vec<u8> = (raw.iter())
                .map(|&b| (usize::from(b) % symbols) as u8)
                .collect();
            let mut blocks: Vec<&[u8]> = Vec::new();
            let mut rest = &data[..];
            while !rest.is_empty() || blocks.len() < 2 {
                let (block, tail) = rest.split_at(rng.random_range(0..=rest.len().min(700)));
                blocks.push(block);
                rest = tail;
            }
            let (_, bits) = reference_encode(&blocks, table, 0).expect("covered");
            let mut out = EncodedBlock::default();
            for lead in 0..8u8 {
                let k = rng.random_range(0..=blocks.len());
                let mut asked = 0;
                let stop = || {
                    asked += 1;
                    asked > k
                };
                let (run, n) = encode_blocks_at(blocks.iter().copied(), table, lead, bits, stop)
                    .expect("covered");
                let (want, want_bits) = reference_encode(&blocks[..k], table, lead).unwrap();
                let what = format!("longest code {}, lead {lead}", table.max_len());
                assert_eq!(n, k, "{what}");
                assert_eq!((run.bit_len, run.lead), (want_bits, lead), "{what}");
                assert!(run.bytes == want, "{what}: run of {k} blocks");
                let size = (u64::from(lead) + bits).div_ceil(8) as usize;
                assert_eq!(run.bytes.capacity(), size, "{what}: the buffer never grew");
                // One block at a time, into whatever the last encode left.
                let i = rng.random_range(0..blocks.len());
                assert!(encode_block_at(blocks[i], table, lead, &mut out), "{what}");
                let (want, want_bits) = reference_encode(&blocks[i..=i], table, lead).unwrap();
                assert_eq!((out.bit_len, out.src_len), (want_bits, blocks[i].len()));
                assert!(out.bytes == want, "{what}: block {i}");
            }
            // A byte without a code, anywhere, fails the run and the block.
            if *symbols < 256 {
                let mut bad = data.clone();
                bad.insert(rng.random_range(0..=bad.len()), 255);
                let lead = rng.random_range(0..8u8);
                assert_eq!(reference_encode(&[&bad], table, lead), None);
                let blocks = bad.chunks(rng.random_range(1..=bad.len()));
                assert!(encode_blocks_at(blocks, table, lead, bits, || false).is_none());
                assert!(!encode_block_at(&bad, table, lead, &mut out));
                assert_eq!(out, EncodedBlock::default());
            }
        }
    });
}

/// The encode loop reads a group of 8 bytes as four two-byte pairs, and
/// encodes a group with a long code, and the tail of fewer than 8 bytes,
/// code by code. Under Kraft-tight tables whose longest code sits on either
/// side of the 12 bits a pair entry holds, blocks of 0–17 and 8k ± 1 bytes,
/// after leads 0–7, with a long code or a byte without one at each position
/// of a group and of the tail: a run into its exact-size buffer and a block
/// into a recycled buffer of garbage at the exact length both write what
/// the bit-at-a-time reference writes, or both fail.
fn pair_loop_edges() {
    let lens = (0..=17usize).chain([31, 33, 63, 65, 4095, 4097]);
    cases(0x4F11, 4, |rng, case| {
        let depth = [12, 13][case % 2];
        let table = kraft_tight(depth);
        // Bytes 0..12 have codes of 1–12 bits; the skew makes pairs of the
        // longest ones common.
        let short = |rng: &mut SmallRng| match rng.random_range(0..4) {
            0 => rng.random_range(0..12u8),
            _ => rng.random_range(10..12u8),
        };
        // The deepest byte — 12 bits, the most a pair holds, or 13, past
        // it — and a byte without a code.
        let odd = [depth, 255];
        for len in lens.clone() {
            let base: Vec<u8> = (0..len).map(|_| short(rng)).collect();
            // Every position of the first two groups and of the tail.
            let at = (0..len.min(16)).chain(len.saturating_sub(9)..len);
            let variants = std::iter::once(None).chain(at.flat_map(|i| odd.map(|o| Some((i, o)))));
            for v in variants {
                let mut data = base.clone();
                if let Some((i, o)) = v {
                    data[i] = o;
                }
                let lead = rng.random_range(0..8u8);
                let what =
                    format!("longest code {depth}, {len} bytes, (at, byte) {v:?}, lead {lead}");
                let want = reference_encode(&[&data], &table, lead);
                let bits = want.as_ref().map_or(8, |w| w.1);
                let blocks = data.chunks(rng.random_range(1..=len.max(1)));
                let run = encode_blocks_at(blocks, &table, lead, bits, || false);
                let size = (u64::from(lead) + bits).div_ceil(8) as usize;
                let mut out = EncodedBlock {
                    bytes: vec![0xA5; size],
                    ..EncodedBlock::default()
                };
                let ok = encode_block_at(&data, &table, lead, &mut out);
                match want {
                    None => {
                        assert!(run.is_none(), "{what}: the run fails");
                        assert!(!ok, "{what}: the block fails");
                    }
                    Some((want, want_bits)) => {
                        let (run, _) = run.expect(&what);
                        assert_eq!((run.bit_len, &run.bytes), (want_bits, &want), "{what}: run");
                        assert_eq!(run.bytes.capacity(), size, "{what}: the buffer never grew");
                        assert!(ok, "{what}: block");
                        assert_eq!(
                            (out.bit_len, &out.bytes),
                            (want_bits, &want),
                            "{what}: block"
                        );
                        assert_eq!(
                            out.bytes.capacity(),
                            size,
                            "{what}: the recycled buffer never grew"
                        );
                    }
                }
            }
        }
    });
}

/// The reference the decoder is held to: codes matched a bit at a time
/// against every symbol's [`CodeTable::code`] and [`CodeTable::len`].
struct ReferenceDecoder<'a> {
    table: &'a CodeTable,
    /// Per code length, every code of that length and its symbol, by code.
    codes: Vec<Vec<(u64, u8)>>,
    decoder: Decoder,
}

impl<'a> ReferenceDecoder<'a> {
    fn new(table: &'a CodeTable) -> Self {
        let mut codes = vec![Vec::new(); 65];
        for s in (0..=255u8).filter(|&s| table.len(s) > 0) {
            codes[usize::from(table.len(s))].push((table.code(s), s));
        }
        for of_len in &mut codes {
            of_len.sort_unstable();
        }
        ReferenceDecoder {
            table,
            codes,
            decoder: Decoder::new(table),
        }
    }

    /// `n` symbols from bit `offset` of `data`, each read up to the
    /// table's longest code, past which the bits read are an invalid code,
    /// and no further than `offset + bits`, where the stream is truncated.
    /// The symbols or the error, and the bit it stopped at.
    fn decode(
        &self,
        data: &[u8],
        offset: u64,
        bits: u64,
        n: usize,
    ) -> (Result<Vec<u8>, DecodeError>, u64) {
        let end = offset + bits;
        let mut pos = offset;
        let mut out = Vec::new();
        'symbols: for _ in 0..n {
            let mut code = 0u64;
            for len in 1..=self.table.max_len() {
                if pos == end {
                    return (Err(DecodeError::Truncated), pos);
                }
                let bit = data[(pos / 8) as usize] >> (7 - pos % 8) & 1;
                code = code << 1 | u64::from(bit);
                pos += 1;
                let of_len = &self.codes[usize::from(len)];
                if let Ok(i) = of_len.binary_search_by_key(&code, |&(c, _)| c) {
                    out.push(of_len[i].1);
                    continue 'symbols;
                }
            }
            return (Err(DecodeError::InvalidCode), pos);
        }
        (Ok(out), pos)
    }

    /// `data[offset..offset + bits]` decodes to what [`Self::decode`]
    /// reads — the same symbols or the same error — through every entry
    /// point, and a reader stops at the bit the reference stops at.
    fn check(&self, data: &[u8], offset: u64, bits: u64, n: usize) {
        let (want, stop) = self.decode(data, offset, bits, n);
        let what = format!(
            "longest code {}, bits {offset}+{bits} of {}, {n} symbols",
            self.table.max_len(),
            data.len() * 8
        );
        assert_eq!(
            decode_exact(data, offset, bits, n, self.table),
            want,
            "{what}"
        );
        let end_pos = |r: &BitReader<'_>| offset + bits - r.remaining();
        let mut r = BitReader::at_offset(data, offset, bits);
        assert_eq!(self.decoder.decode_n(&mut r, n), want, "{what}: decode_n");
        assert_eq!(end_pos(&r), stop, "{what}: decode_n stops");
        let mut r = BitReader::at_offset(data, offset, bits);
        let one: Result<Vec<u8>, _> = (0..n).map(|_| self.decoder.decode_symbol(&mut r)).collect();
        assert_eq!(one, want, "{what}: decode_symbol");
        assert_eq!(end_pos(&r), stop, "{what}: decode_symbol stops");
    }
}

/// The table decoder decodes what the bit-at-a-time reference decodes, and
/// fails where it fails with the same [`DecodeError`] at the same bit. The
/// tables are final, covering and Kraft-tight ones whose longest code sits
/// at either side of the 11 bits the decoder looks up at once (11, 12, 13)
/// or past them (20, 57, 64), and tables that are not Kraft-full, so that
/// some prefixes are no code: a final table with some codes a bit longer,
/// Kraft-tight ones without their shortest or their deepest code. Every
/// stream starts at bit offsets 0–7 and is followed by a few bytes of
/// garbage the reader must not see; it is decoded whole, as every short
/// prefix (0–12 symbols, about the five lookups of a window and the ten
/// symbols they may yield), asking for fewer and more symbols than it holds,
/// cut short, and a stretch of garbage is decoded as a stream.
#[test]
fn prop_table_decoder_equals_bit_at_a_time_reference() {
    cases(0x4F10, 16, |rng, case| {
        let mut raw = bytes(rng, 1..600);
        if case % 2 == 1 {
            // Skewed towards a few bytes: the shortest codes.
            for b in &mut raw {
                *b = b.leading_zeros() as u8 * 3 + *b % 3;
            }
        }
        let serial = serial_encode(&raw).unwrap();
        let prefix = Histogram::from_bytes(&raw[..raw.len().div_ceil(8)]);
        let covering = CodeLengths::build_covering(&prefix).unwrap();
        let mut tables = vec![serial.table.clone(), CodeTable::from_lengths(&covering)];
        for depth in [11, 12, 13, 20, 57, 64] {
            tables.push(kraft_tight(depth));
        }
        let mut looser = serial.table.lengths_array();
        for l in looser.iter_mut().filter(|l| (1..64).contains(*l)) {
            *l += rng.random_range(0..2u8);
        }
        looser[usize::from(raw[0])] = serial.table.len(raw[0]) + 1;
        for lens in [looser, dropped(12, 0), dropped(12, 12), dropped(20, 5)] {
            tables.push(CodeTable::from_lengths(
                &CodeLengths::from_lengths(lens).unwrap(),
            ));
        }
        for table in &tables {
            let reference = ReferenceDecoder::new(table);
            let coded: Vec<u8> = (0..=255u8).filter(|&s| table.len(s) > 0).collect();
            // A few thousand bits, however long the codes.
            let m = raw.len().min(2500 / usize::from(table.max_len()));
            let data: Vec<u8> = raw[..m]
                .iter()
                .map(|&b| coded[usize::from(b) % coded.len()])
                .collect();
            for lead in 0..8u8 {
                let offset = u64::from(lead);
                let garbage = bytes(rng, 0..10);
                let stream = |symbols: &[u8]| {
                    let (mut buf, bits) = reference_encode(&[symbols], table, lead).unwrap();
                    buf.extend_from_slice(&garbage);
                    (buf, bits)
                };
                let (buf, bits) = stream(&data);
                assert_eq!(
                    decode_exact(&buf, offset, bits, data.len(), table).as_deref(),
                    Ok(&data[..])
                );
                reference.check(&buf, offset, bits, data.len());
                reference.check(&buf, offset, bits, rng.random_range(0..=data.len() + 12));
                let cut = rng.random_range(1..=bits.min(80));
                reference.check(&buf, offset, bits - cut, data.len());
                let k = rng.random_range(0..=12usize).min(data.len());
                let (buf, bits) = stream(&data[..k]);
                for n in k.saturating_sub(1)..=k + 1 {
                    reference.check(&buf, offset, bits, n);
                }
            }
            let noise = bytes(rng, 0..256);
            let n = rng.random_range(0..=noise.len() * 2);
            reference.check(&noise, 0, noise.len() as u64 * 8, n);
        }
    });
    // A long code that a window's lookups reach and the stream cuts short:
    // the walk they fall back to finds it truncated.
    for depth in [20, 57, 64] {
        let table = kraft_tight(depth);
        let reference = ReferenceDecoder::new(&table);
        let data = [&[0u8; 4][..], &[depth], &[0; 6]].concat();
        for lead in 0..8u8 {
            let (buf, bits) = reference_encode(&[&data], &table, lead).unwrap();
            for cut in 0..=u64::from(depth) + 6 {
                reference.check(&buf, u64::from(lead), bits - cut, data.len());
            }
        }
    }
}

/// [`kraft_tight`]`(depth)`'s lengths without symbol `gone`'s code: not
/// Kraft-full, so the prefixes its code started are no code.
fn dropped(depth: u8, gone: usize) -> [u8; 256] {
    let mut lens = kraft_tight(depth).lengths_array();
    lens[gone] = 0;
    lens
}

/// A block's `u32` counts agree with its histogram: widened, folded onto a
/// running total, and costed under a table (covering or not).
#[test]
fn prop_block_counts_agree_with_histogram() {
    cases(0x4F0E, 48, |rng, _| {
        let parts: Vec<Vec<u8>> = (0..rng.random_range(0..6usize))
            .map(|_| bytes(rng, 0..3000))
            .collect();
        let counts: Vec<BlockCounts> = parts.iter().map(|p| Histogram::block_counts(p)).collect();
        let hists: Vec<Histogram> = parts.iter().map(|p| Histogram::from_bytes(p)).collect();
        let base = Histogram::from_bytes(&bytes(rng, 0..500));
        assert_eq!(
            Histogram::merged_with_counts(&base, &counts),
            base.clone() + &Histogram::merged(&hists)
        );
        let table = CodeTable::build(&Histogram::from_bytes(&bytes(rng, 1..400))).unwrap();
        for (c, h) in counts.iter().zip(&hists) {
            assert_eq!(Histogram::merged_with_counts(&Histogram::new(), [c]), *h);
            assert_eq!(table.encoded_bits_u32(c), table.encoded_bits(h));
        }
    });
}

/// Offsets computed from histograms equal actual positions in the
/// concatenated stream, and every block decodes at its offset.
#[test]
fn prop_offsets_exact() {
    cases(0x4F05, 64, |rng, _| {
        let data = bytes(rng, 1..2048);
        let chunk = rng.random_range(1..129usize);
        let table = CodeTable::build(&Histogram::from_bytes(&data)).unwrap();
        let blocks: Vec<&[u8]> = data.chunks(chunk).collect();
        let hists: Vec<Histogram> = blocks.iter().map(|b| Histogram::from_bytes(b)).collect();
        let mut chain = OffsetChain::new();
        let starts = chain.extend_group(&hists, &table).unwrap();
        let encoded: Vec<_> = blocks
            .iter()
            .map(|b| encode_block(b, &table).unwrap())
            .collect();
        let (stream, total) = concat_blocks(encoded.iter());
        assert_eq!(chain.total_bits(), total);
        for i in 0..blocks.len() {
            let got = decode_exact(
                &stream,
                starts[i],
                encoded[i].bit_len,
                blocks[i].len(),
                &table,
            )
            .unwrap();
            assert_eq!(got.as_slice(), blocks[i]);
        }
    });
}

/// A table trained on a superset histogram always covers the data and
/// its cost delta versus the optimal table is non-negative and finite.
#[test]
fn prop_cost_delta_sane() {
    cases(0x4F06, 64, |rng, _| {
        let early = bytes(rng, 1..1024);
        let late = bytes(rng, 1..1024);
        let h_early = Histogram::from_bytes(&early);
        let mut h_all = h_early.clone();
        h_all.merge(&Histogram::from_bytes(&late));
        // A smoothed predictor tree always covers the alphabet, so the
        // delta is finite; an unsmoothed one may be infeasible (= +inf).
        let t_spec = CodeLengths::build(&h_early.with_smoothing(1)).unwrap();
        let t_ref = CodeLengths::build(&h_all).unwrap();
        let delta = relative_cost_delta(&t_spec, &t_ref, &h_all);
        assert!(delta >= 0.0);
        assert!(delta.is_finite());
        let t_unsmoothed = CodeLengths::build(&h_early).unwrap();
        let raw = relative_cost_delta(&t_unsmoothed, &t_ref, &h_all);
        assert!(raw >= 0.0);
        // The optimal tree on h_all can never be beaten by more than the
        // clamp allows in the other direction.
        assert_eq!(relative_cost_delta(&t_ref, &t_ref, &h_all), 0.0);
    });
}

/// Canonical code assignment is order-independent and prefix-free
/// (checked via successful decode of every single symbol).
#[test]
fn prop_every_symbol_decodes() {
    cases(0x4F07, 32, |rng, _| {
        let data = bytes(rng, 1..2048);
        let h = Histogram::from_bytes(&data);
        let table = CodeTable::build(&h).unwrap();
        for (sym, _) in h.iter_nonzero() {
            let one = [sym];
            let e = encode_block(&one, &table).unwrap();
            let back = decode_exact(&e.bytes, 0, e.bit_len, 1, &table).unwrap();
            assert_eq!(back, vec![sym]);
        }
    });
}

/// The decoder never panics on arbitrary garbage bitstreams: it either
/// yields bytes or a structured error.
#[test]
fn prop_decoder_total_on_garbage() {
    cases(0x4F08, 128, |rng, _| {
        let table_data = bytes(rng, 2..512);
        let garbage = bytes(rng, 0..256);
        let n_symbols = rng.random_range(0..64usize);
        let table = CodeTable::build(&Histogram::from_bytes(&table_data)).unwrap();
        let bits = garbage.len() as u64 * 8;
        let _ = decode_exact(&garbage, 0, bits, n_symbols, &table);
    });
}

/// Bit ranges outside the buffer — including offset/length pairs whose
/// sum overflows a `u64` — are `DecodeError::OutOfBounds`, not a panic.
#[test]
fn prop_wild_bit_ranges_are_out_of_bounds() {
    use tvs_huffman::decode::DecodeError;
    cases(0x4F0C, 64, |rng, _| {
        let data = bytes(rng, 1..256);
        let table = CodeTable::build(&Histogram::from_bytes(&data)).unwrap();
        let total = data.len() as u64 * 8;
        // Overflowing sums.
        assert_eq!(
            decode_exact(&data, u64::MAX, u64::MAX, 1, &table),
            Err(DecodeError::OutOfBounds)
        );
        assert_eq!(
            decode_exact(&data, u64::MAX, 1, 1, &table),
            Err(DecodeError::OutOfBounds)
        );
        // In-range sum but past the end of the buffer.
        let off = rng.random_range(0..=total);
        assert_eq!(
            decode_exact(&data, off, total - off + 1, 1, &table),
            Err(DecodeError::OutOfBounds)
        );
    });
}

/// A Kraft-tight table whose deepest codes are 64 bits long (one symbol
/// at every length 1..=63 plus two at 64) round-trips through encode and
/// decode — the canonical-code accumulators reach exactly 2^64 on such
/// tables and must not overflow. (`tvs_pipelines::huffman::decompress`
/// takes the same table from a journal's header.)
#[test]
fn kraft_tight_depth_64_table_round_trips() {
    let mut lens = [0u8; 256];
    for (i, l) in lens.iter_mut().enumerate().take(63) {
        *l = i as u8 + 1;
    }
    lens[63] = 64;
    lens[64] = 64;
    let lengths = CodeLengths::from_lengths(lens).expect("lengths are exactly Kraft-tight");
    let table = CodeTable::from_lengths(&lengths);

    // The deepest codes really are 64 bits, and the last one is all ones.
    assert_eq!(table.len(63), 64);
    assert_eq!(table.len(64), 64);
    assert_eq!(table.code(64), u64::MAX);

    let data = [0u8, 63, 64, 62, 0];
    let enc = encode_block(&data, &table).unwrap();
    let back = decode_exact(&enc.bytes, 0, enc.bit_len, data.len(), &table).unwrap();
    assert_eq!(back, data);
}

/// Canonical decode after a canonical re-encode of the *lengths only*
/// (a checkpoint journal's premise: its header stores the lengths only):
/// lengths fully determine the code.
#[test]
fn prop_lengths_fully_determine_the_code() {
    cases(0x4F0A, 64, |rng, _| {
        let data = bytes(rng, 1..1024);
        let enc = serial_encode(&data).unwrap();
        let lengths = CodeLengths::from_lengths(enc.table.lengths_array()).unwrap();
        let rebuilt = CodeTable::from_lengths(&lengths);
        let back = decode_exact(&enc.bytes, 0, enc.bit_len, data.len(), &rebuilt).unwrap();
        assert_eq!(back, data);
    });
}
