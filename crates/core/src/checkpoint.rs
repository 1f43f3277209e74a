//! Committed-prefix checkpointing, as an append-only journal.
//!
//! A streaming run's durable state is its *committed prefix*: the
//! contiguous run of finalized blocks at the front of the stream, the code
//! table that encoded them and the output bitstream up to the offset at
//! which the first block past the prefix starts (its trailing partial byte
//! is shared with that block). A committed block is final, so its bytes are
//! made durable once: the run appends them to its [`Journal`]
//! (`checkpoint.log` in [`CheckpointConfig::dir`]) and never rewrites them.
//! A killed run resumes by re-feeding only the blocks past the prefix —
//! byte-identical to an uninterrupted run, because the committed tree is
//! settled before the first block is finalized and encoding is
//! deterministic given the tree.
//!
//! The format, integers as little-endian `u64`s:
//!
//! ```text
//! header  magic+schema, config digest, input digest, src_len, block_bytes,
//!         cadence, committed version, 256 one-byte code lengths, checksum
//! record  new prefix, (arrival, encoded_at, bits) per newly committed block,
//!         the stream bytes that became whole since the last record, the
//!         trailing partial byte (bits past the prefix cleared), checksum
//! end     a zero word, overwritten by the next record
//! ```
//!
//! The header's checksum is the [`input_digest`] of the bytes before it; a
//! record's folds the digests of its words, its whole stream bytes and its
//! partial byte. A record's lengths follow from the previous prefix and its
//! blocks' `bits`; its stream bytes start at the byte the previous record
//! left partial. A halted or finished run cuts the file after its last
//! record, so a finished run's journal holds the code lengths, every stream
//! byte in order and the exact bit length: it is the compressed file.
//!
//! Reading is *total*: [`StreamSnapshot::replay`] applies records up to the
//! first one that is cut short, fails its checksum or does not advance the
//! prefix (the end mark does not) — the bytes from there on are an
//! uncommitted tail — and a missing, short or corrupt header is a structured
//! [`ResumeError`], never a panic. Nothing is fsynced: the journal survives
//! a killed process, not a power loss.

use std::fs::{File, OpenOptions};
use std::io::{IoSlice, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// File name of the journal inside [`CheckpointConfig::dir`].
pub const JOURNAL_FILE: &str = "checkpoint.log";

/// The header's first seven bytes; the eighth is the schema.
const MAGIC: &[u8; 7] = b"tvsjrnl";

/// The one schema this build reads and writes.
const SCHEMA: u8 = 3;

/// Header length: seven words, 256 code lengths, the checksum.
const HEADER_LEN: usize = 7 * 8 + 256 + 8;

/// Default checkpoint cadence in committed blocks — the operating point of
/// the checkpoint-overhead budget (≤3 % wall-clock). The budget is checked
/// only for disk-paced input, and only under `TVS_CHECKPOINT_STRICT=1`
/// (`tvs-bench`'s `checkpoint_overhead` test); with every block due at
/// once (`*_mem`) checkpointing costs more, about 8 %.
pub const DEFAULT_CADENCE: usize = 16;

/// When and where to checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Append a record whenever the committed prefix has advanced by at
    /// least this many blocks since the last one. 0 disables
    /// cadence-driven writes (a halt and the finish still write).
    pub every_blocks: usize,
    /// Directory the journal lands in (created if missing).
    pub dir: PathBuf,
    /// Test/chaos hook: stop the pipeline once this many blocks are
    /// finalized — force a record, spawn nothing further and report
    /// finished, simulating a kill at a block boundary.
    pub halt_at_block: Option<usize>,
}

impl CheckpointConfig {
    /// Cadence-`every_blocks` checkpointing into `dir`.
    pub fn new(every_blocks: usize, dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            every_blocks,
            dir: dir.into(),
            halt_at_block: None,
        }
    }

    /// [`DEFAULT_CADENCE`] checkpointing into `dir`.
    pub fn at_default_cadence(dir: impl Into<PathBuf>) -> Self {
        Self::new(DEFAULT_CADENCE, dir)
    }

    /// Path of the journal this config writes.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join(JOURNAL_FILE)
    }
}

/// Why a journal could not be loaded or resumed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// The file could not be read.
    Io(String),
    /// The file ends inside the header.
    Truncated,
    /// The journal's schema is not the one this build understands.
    BadSchema(u64),
    /// The header is not a journal's or fails its checksum, or a field is
    /// unusable (bit flips, hand edits).
    BadField(&'static str),
    /// The journal was written from different input data or a different
    /// pipeline configuration than the resume attempt supplies.
    InputMismatch,
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Io(e) => write!(f, "checkpoint io error: {e}"),
            ResumeError::Truncated => write!(f, "checkpoint header truncated"),
            ResumeError::BadSchema(s) => write!(f, "checkpoint schema {s} is not supported"),
            ResumeError::BadField(k) => write!(f, "checkpoint {k} is corrupt"),
            ResumeError::InputMismatch => {
                write!(f, "checkpoint was taken from different input or config")
            }
        }
    }
}

impl std::error::Error for ResumeError {}

/// FNV-1a over a byte slice — the digest that binds a snapshot to its
/// pipeline configuration (a short string; for the input stream and the
/// journal's checksums see [`input_digest`]).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The digest that binds a snapshot to its input stream. It is computed
/// over the whole input before the first block is fed, so it must not cost
/// what a byte-at-a-time hash does (one dependent multiply per byte: 5.6 ms
/// for 4 MB): four independent lanes each fold 8 bytes per multiply, then
/// the length, the lanes and the last `len % 32` bytes are folded into one
/// word.
///
/// Every step is a bijection of the running state for a given input word
/// and of the input word for a given state, so two inputs of one length
/// that differ in a single word never collide. This detects a wrong or
/// damaged input file; it is no defence against a crafted one. A snapshot
/// written with another digest fails [`StreamSnapshot::check_matches`].
pub fn input_digest(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x9E37_79B1_85EB_CA87;
    fn fold(h: u64, w: u64) -> u64 {
        (h ^ w).wrapping_mul(PRIME).rotate_left(31)
    }
    let mut lanes = [1u64, 2, 3, 4].map(|i| PRIME.wrapping_mul(i));
    let mut stripes = bytes.chunks_exact(32);
    for stripe in &mut stripes {
        for (lane, w) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = fold(
                *lane,
                u64::from_le_bytes(w.try_into().expect("8-byte chunk")),
            );
        }
    }
    let h = lanes.into_iter().fold(bytes.len() as u64, fold);
    stripes
        .remainder()
        .iter()
        .fold(h, |h, &b| fold(h, u64::from(b)))
}

/// The exact state needed to resume a committed prefix (see module docs):
/// what a journal decodes to, and what a halted run reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamSnapshot {
    /// FNV-1a digest of the pipeline parameters that shape the output.
    pub config_digest: u64,
    /// [`input_digest`] of the full input byte stream.
    pub input_digest: u64,
    /// Length of the input byte stream.
    pub src_len: u64,
    /// Block size the stream was cut with, bytes.
    pub block_bytes: u64,
    /// Committed prefix: blocks `0..prefix` are finalized and assembled
    /// into [`StreamSnapshot::stream_bytes`]; the offset chain resumes at
    /// block `prefix`.
    pub prefix: u64,
    /// Checkpoint cadence the writing run used (for the resume audit).
    pub cadence: u64,
    /// Arrival stamp of each prefix block, µs.
    pub arrivals: Vec<u64>,
    /// Encode-completion stamp of each prefix block, µs.
    pub encoded_at: Vec<u64>,
    /// Encoded size of each prefix block, bits.
    pub bits: Vec<u64>,
    /// Canonical code lengths of the committed tree (256 entries).
    pub code_lengths: Vec<u8>,
    /// The speculation version that produced the committed tree (0 when
    /// the tree came from the natural path).
    pub committed_version: u64,
    /// The prefix's bitstream, padded to whole bytes. The bits of the
    /// trailing partial byte past `stream_bit_len` are zero: the resumed
    /// run places block `prefix` into them.
    pub stream_bytes: Vec<u8>,
    /// Exact bit length of the prefix stream.
    pub stream_bit_len: u64,
}

/// A journal read back by [`StreamSnapshot::replay`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// What the header and the applied records add up to.
    pub snapshot: StreamSnapshot,
    /// Records applied.
    pub records: usize,
    /// Bytes after the last applied record: an uncommitted tail (a record
    /// a kill cut short) or damage.
    pub ignored_bytes: usize,
}

/// The little-endian `u64` at byte `at` of `bytes`, if it is all there.
fn word(bytes: &[u8], at: usize) -> Option<u64> {
    let w = bytes.get(at..at.checked_add(8)?)?;
    Some(u64::from_le_bytes(w.try_into().expect("8 bytes")))
}

impl StreamSnapshot {
    /// Total blocks in the stream. `block_bytes` is not 0 in a snapshot a
    /// journal decodes to.
    pub fn n_blocks(&self) -> u64 {
        self.src_len.div_ceil(self.block_bytes)
    }

    /// Decode a journal: the header, then every record up to the first one
    /// that is cut short, fails its checksum or does not advance the prefix
    /// within `n_blocks()`.
    pub fn replay(bytes: &[u8]) -> Result<Replay, ResumeError> {
        let head = bytes.get(..HEADER_LEN).ok_or(ResumeError::Truncated)?;
        if &head[..7] != MAGIC {
            return Err(ResumeError::BadField("magic"));
        }
        if head[7] != SCHEMA {
            return Err(ResumeError::BadSchema(u64::from(head[7])));
        }
        let w = |i: usize| word(head, i * 8).expect("inside the header");
        if input_digest(&head[..HEADER_LEN - 8]) != w(HEADER_LEN / 8 - 1) {
            return Err(ResumeError::BadField("header checksum"));
        }
        if w(4) == 0 {
            return Err(ResumeError::BadField("block_bytes"));
        }
        let mut snapshot = StreamSnapshot {
            config_digest: w(1),
            input_digest: w(2),
            src_len: w(3),
            block_bytes: w(4),
            cadence: w(5),
            code_lengths: head[56..56 + 256].to_vec(),
            committed_version: w(6),
            ..StreamSnapshot::default()
        };
        let (mut at, mut records) = (HEADER_LEN, 0);
        while let Some(len) = snapshot.apply(&bytes[at..]) {
            at += len;
            records += 1;
        }
        Ok(Replay {
            snapshot,
            records,
            ignored_bytes: bytes.len() - at,
        })
    }

    /// Apply the record at the front of `rec` and return its length, or
    /// return `None` and leave `self` as it is.
    fn apply(&mut self, rec: &[u8]) -> Option<usize> {
        let prefix = word(rec, 0)?;
        if prefix <= self.prefix || prefix > self.n_blocks() {
            return None;
        }
        let fresh = (prefix - self.prefix) as usize;
        let mut bit_len = self.stream_bit_len;
        for b in 0..fresh {
            bit_len = bit_len.checked_add(word(rec, 8 + 24 * b + 16)?)?;
        }
        let from = 8 + 24 * fresh;
        let kept = (self.stream_bit_len / 8) as usize;
        let whole = from + (bit_len / 8) as usize - kept;
        let to = from + (bit_len.div_ceil(8) as usize - kept);
        let sum = record_sum(rec.get(..from)?, rec.get(from..whole)?, rec.get(whole..to)?);
        if word(rec, to)? != sum {
            return None;
        }
        for b in rec[8..from].chunks_exact(24) {
            let w = |i: usize| word(b, i * 8).expect("inside the record");
            self.arrivals.push(w(0));
            self.encoded_at.push(w(1));
            self.bits.push(w(2));
        }
        self.stream_bytes.truncate(kept);
        self.stream_bytes.extend_from_slice(&rec[from..to]);
        self.prefix = prefix;
        self.stream_bit_len = bit_len;
        Some(to + 8)
    }

    /// Load a journal: the snapshot its intact records add up to.
    pub fn load(path: &Path) -> Result<Self, ResumeError> {
        let bytes = std::fs::read(path).map_err(|e| ResumeError::Io(e.to_string()))?;
        Ok(Self::replay(&bytes)?.snapshot)
    }

    /// Check that this snapshot matches the input/config digests of a
    /// resume attempt.
    pub fn check_matches(&self, config_digest: u64, input_digest: u64) -> Result<(), ResumeError> {
        if self.config_digest != config_digest || self.input_digest != input_digest {
            return Err(ResumeError::InputMismatch);
        }
        Ok(())
    }
}

/// The writing end of a run's journal.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    /// Open from the first write on.
    file: Option<File>,
    /// An I/O error stopped this journal's writes for good.
    stopped: bool,
    /// Blocks and stream bits the journal holds, and its length in bytes
    /// (0 until the header is written).
    prefix: usize,
    bit_len: u64,
    len: u64,
    /// The header and lineage words of one write, reused.
    buf: Vec<u8>,
}

impl Journal {
    /// A journal for `dir`; nothing touches the disk before the first write.
    pub fn new(dir: &Path) -> Self {
        Journal {
            dir: dir.to_path_buf(),
            file: None,
            stopped: false,
            prefix: 0,
            bit_len: 0,
            len: 0,
            buf: Vec::new(),
        }
    }

    /// The journal of a run resumed from `snap`: the one in `dir`, continued
    /// from the end of its last applied record, if it holds a record and
    /// replays to exactly `snap` — its bytes are never rewritten, and a cut
    /// record past them is overwritten — or else a new one, as
    /// [`Journal::new`]. A journal without a record pins nothing: its
    /// header's code table need not be the one the resumed run commits.
    pub fn resume(dir: &Path, snap: &StreamSnapshot) -> Self {
        let mut journal = Self::new(dir);
        let bytes = std::fs::read(dir.join(JOURNAL_FILE)).unwrap_or_default();
        if let Ok(r) = StreamSnapshot::replay(&bytes) {
            if r.records > 0 && r.snapshot == *snap {
                journal.prefix = snap.prefix as usize;
                journal.bit_len = snap.stream_bit_len;
                journal.len = (bytes.len() - r.ignored_bytes) as u64;
            }
        }
        journal
    }

    /// Make blocks `..prefix` durable. `lineage(i)` is block `i`'s
    /// `[arrival, encoded_at, bits]`, and `stream` holds at least the
    /// prefix's bits (bits past them are not written).
    ///
    /// The first write of a new journal opens `checkpoint.log` without
    /// truncating it and writes, from offset 0, the header — `head()`'s
    /// digests, shape, cadence, committed version and code lengths — plus
    /// one record from block 0 (none when `prefix` is 0). Every later write,
    /// and every write of a resumed journal, puts one record at the
    /// journal's end with one vectored write, the stream bytes straight from
    /// `stream`. Each write is followed by an end mark, which the next one
    /// overwrites. After an I/O error every write fails.
    pub fn write(
        &mut self,
        head: impl FnOnce() -> StreamSnapshot,
        prefix: usize,
        lineage: impl Fn(usize) -> [u64; 3],
        stream: &[u8],
    ) -> std::io::Result<()> {
        if self.stopped {
            return Err(std::io::Error::other("an earlier journal write failed"));
        }
        let written = self.try_write(head, prefix, lineage, stream);
        self.stopped = written.is_err();
        written
    }

    fn try_write(
        &mut self,
        head: impl FnOnce() -> StreamSnapshot,
        prefix: usize,
        lineage: impl Fn(usize) -> [u64; 3],
        stream: &[u8],
    ) -> std::io::Result<()> {
        let buf = &mut self.buf;
        buf.clear();
        if self.len == 0 {
            let h = head();
            buf.extend_from_slice(MAGIC);
            buf.push(SCHEMA);
            for w in [
                h.config_digest,
                h.input_digest,
                h.src_len,
                h.block_bytes,
                h.cadence,
                h.committed_version,
            ] {
                buf.extend_from_slice(&w.to_le_bytes());
            }
            buf.extend_from_slice(&h.code_lengths);
            buf.resize(HEADER_LEN - 8, 0);
            buf.extend_from_slice(&input_digest(buf).to_le_bytes());
        }
        // The record's whole stream bytes; its partial byte and checksum,
        // then the end mark.
        let (mut body, mut tail, mut ends) = (&stream[..0], [0u8; 17], 0);
        let mut bit_len = self.bit_len;
        if prefix > self.prefix {
            let rec = buf.len();
            buf.extend_from_slice(&(prefix as u64).to_le_bytes());
            for i in self.prefix..prefix {
                let block = lineage(i);
                for w in block {
                    buf.extend_from_slice(&w.to_le_bytes());
                }
                bit_len += block[2];
            }
            let whole = (bit_len / 8) as usize;
            body = &stream[(self.bit_len / 8) as usize..whole];
            let partial = match bit_len % 8 {
                0 => 0,
                r => {
                    tail[0] = stream[whole] & !(0xFF >> r);
                    1
                }
            };
            let sum = record_sum(&buf[rec..], body, &tail[..partial]);
            tail[partial..partial + 8].copy_from_slice(&sum.to_le_bytes());
            ends = partial + 8;
        }
        let file = match &mut self.file {
            Some(f) => f,
            None => {
                std::fs::create_dir_all(&self.dir)?;
                let mut open = OpenOptions::new();
                let path = self.dir.join(JOURNAL_FILE);
                self.file
                    .insert(open.write(true).create(true).truncate(false).open(path)?)
            }
        };
        file.seek(SeekFrom::Start(self.len))?;
        let mut parts = [
            IoSlice::new(buf),
            IoSlice::new(body),
            IoSlice::new(&tail[..ends + 8]),
        ];
        let mut parts = &mut parts[..];
        while !parts.is_empty() {
            match file.write_vectored(parts) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut parts, n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.len += (buf.len() + body.len() + ends) as u64;
        self.prefix = prefix;
        self.bit_len = bit_len;
        Ok(())
    }

    /// Cut the file after the last record, dropping the end mark and
    /// whatever an earlier, longer journal left in the file.
    pub fn trim(&mut self) -> std::io::Result<()> {
        match &self.file {
            Some(f) if !self.stopped => f.set_len(self.len),
            _ => Ok(()),
        }
    }
}

/// A record's checksum, over its words, its whole stream bytes and its
/// trailing partial byte.
fn record_sum(words: &[u8], body: &[u8], partial: &[u8]) -> u64 {
    [words, body, partial].iter().fold(0, |h, part| {
        input_digest(&(h ^ input_digest(part)).to_le_bytes())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A three-block prefix whose stream ends inside a byte.
    fn sample() -> StreamSnapshot {
        let mut stream_bytes = vec![0xAB; 43];
        stream_bytes.push(0x80);
        StreamSnapshot {
            config_digest: 0xDEAD_BEEF,
            input_digest: fnv1a(b"the input"),
            src_len: 9 * 4096 + 100,
            block_bytes: 4096,
            prefix: 3,
            cadence: 2,
            arrivals: vec![0, 10, 20],
            encoded_at: vec![15, 25, 35],
            bits: vec![100, 200, 45],
            code_lengths: (0..=255u8).map(|i| if i < 4 { 2 } else { 0 }).collect(),
            committed_version: 2,
            stream_bytes,
            stream_bit_len: 345,
        }
    }

    /// `s` cut back to its first `k` blocks, as a journal holding only
    /// those decodes.
    fn cut(s: &StreamSnapshot, k: usize) -> StreamSnapshot {
        let bits: u64 = s.bits[..k].iter().sum();
        let mut stream_bytes = s.stream_bytes[..bits.div_ceil(8) as usize].to_vec();
        if let (Some(last), r @ 1..) = (stream_bytes.last_mut(), bits % 8) {
            *last &= !(0xFF >> r);
        }
        StreamSnapshot {
            prefix: k as u64,
            arrivals: s.arrivals[..k].to_vec(),
            encoded_at: s.encoded_at[..k].to_vec(),
            bits: s.bits[..k].to_vec(),
            stream_bytes,
            stream_bit_len: bits,
            ..s.clone()
        }
    }

    /// The file names in `dir`, sorted.
    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tvs-journal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Write `s` into a journal in `dir`, one record per prefix in `steps`.
    fn write(s: &StreamSnapshot, steps: &[usize], dir: &Path) -> Journal {
        let mut j = Journal::new(dir);
        for &k in steps {
            let lineage = |i: usize| [s.arrivals[i], s.encoded_at[i], s.bits[i]];
            j.write(|| cut(s, 0), k, lineage, &s.stream_bytes)
                .expect("temp dir is writable");
        }
        j
    }

    /// The bytes of `s` journalled at prefixes 1 and 3, and where each
    /// record ends.
    fn journal() -> (Vec<u8>, [usize; 2]) {
        static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = scratch(&format!("bytes-{call}"));
        write(&sample(), &[1], &dir).trim().unwrap();
        let one = std::fs::read(dir.join(JOURNAL_FILE)).unwrap().len();
        write(&sample(), &[1, 3], &dir).trim().unwrap();
        let bytes = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let ends = [one, bytes.len()];
        (bytes, ends)
    }

    #[test]
    fn round_trips() {
        let (bytes, ends) = journal();
        let r = StreamSnapshot::replay(&bytes).unwrap();
        assert_eq!(r.snapshot, sample());
        assert_eq!((r.records, r.ignored_bytes), (2, 0));
        let r = StreamSnapshot::replay(&bytes[..ends[0]]).unwrap();
        assert_eq!(r.snapshot, cut(&sample(), 1));
        // The first record carries 100 bits: 12 whole bytes, one partial.
        assert_eq!(ends[0], HEADER_LEN + 8 + 24 + 13 + 8);
    }

    #[test]
    fn empty_prefix_round_trips() {
        let (bytes, _) = journal();
        let r = StreamSnapshot::replay(&bytes[..HEADER_LEN]).unwrap();
        assert_eq!(r.snapshot, cut(&sample(), 0));
        assert_eq!((r.records, r.ignored_bytes), (0, 0));
    }

    #[test]
    fn atomic_write_and_load() {
        let dir = scratch("atomic");
        let s = sample();
        drop(write(&s, &[2, 3], &dir));
        let path = dir.join(JOURNAL_FILE);
        assert_eq!(CheckpointConfig::new(1, &dir).journal_path(), path);
        assert_eq!(StreamSnapshot::load(&path).unwrap(), s);
        // A second journal on the same directory leaves the first in place
        // until its first write, which overwrites it from offset 0.
        let mut again = Journal::new(&dir);
        assert_eq!(StreamSnapshot::load(&path).unwrap(), s);
        let lineage = |i: usize| [s.arrivals[i], s.encoded_at[i], s.bits[i]];
        again
            .write(|| cut(&s, 0), 1, lineage, &s.stream_bytes)
            .unwrap();
        assert_eq!(StreamSnapshot::load(&path).unwrap(), cut(&s, 1));
        // One file, and nothing else.
        assert_eq!(listing(&dir), [JOURNAL_FILE]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_reused_file_holds_only_its_own_records() {
        // The second journal on a directory is written over the first one,
        // whose records past the second's are valid: the end mark, then the
        // trim, keep them out.
        let dir = scratch("reuse");
        let s = sample();
        drop(write(&s, &[1, 2, 3], &dir));
        let mut second = write(&s, &[1], &dir);
        let path = dir.join(JOURNAL_FILE);
        let r = StreamSnapshot::replay(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!((&r.snapshot, r.records), (&cut(&s, 1), 1));
        assert!(
            r.ignored_bytes > 8,
            "the first journal's tail is still there"
        );
        second.trim().unwrap();
        let r = StreamSnapshot::replay(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!((r.snapshot, r.records, r.ignored_bytes), (cut(&s, 1), 1, 0));
        assert_eq!(listing(&dir), [JOURNAL_FILE]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_resumed_journal_appends_after_its_last_record() {
        let dir = scratch("resume");
        let s = sample();
        let lineage = |i: usize| [s.arrivals[i], s.encoded_at[i], s.bits[i]];
        let (whole, ends) = journal();
        // A kill cut the second record short: the resumed journal writes
        // over the cut bytes, and its file is the uninterrupted one's.
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(JOURNAL_FILE), &whole[..ends[1] - 3]).unwrap();
        let mut j = Journal::resume(&dir, &cut(&s, 1));
        j.write(
            || unreachable!("the header is there"),
            3,
            lineage,
            &s.stream_bytes,
        )
        .unwrap();
        j.trim().unwrap();
        assert_eq!(std::fs::read(dir.join(JOURNAL_FILE)).unwrap(), whole);
        // A snapshot the journal does not replay to starts a new journal.
        let mut j = Journal::resume(&dir, &cut(&s, 2));
        j.write(|| cut(&s, 0), 3, lineage, &s.stream_bytes).unwrap();
        j.trim().unwrap();
        let r = StreamSnapshot::replay(&std::fs::read(dir.join(JOURNAL_FILE)).unwrap()).unwrap();
        assert_eq!((r.snapshot, r.records, r.ignored_bytes), (s, 1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_journal_without_a_record_is_not_continued() {
        // A kill cut the first record: the header pins no tree, so the
        // resumed run writes its own from offset 0.
        let dir = scratch("no-record");
        let s = sample();
        let lineage = |i: usize| [s.arrivals[i], s.encoded_at[i], s.bits[i]];
        let (whole, ends) = journal();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(JOURNAL_FILE), &whole[..ends[0] - 3]).unwrap();
        let other = StreamSnapshot {
            code_lengths: (0..=255u8).map(|i| u8::from(i < 2)).collect(),
            committed_version: 5,
            ..s.clone()
        };
        let mut j = Journal::resume(&dir, &cut(&s, 0));
        j.write(|| cut(&other, 0), 3, lineage, &s.stream_bytes)
            .unwrap();
        j.trim().unwrap();
        let r = StreamSnapshot::replay(&std::fs::read(dir.join(JOURNAL_FILE)).unwrap()).unwrap();
        assert_eq!((r.snapshot, r.records, r.ignored_bytes), (other, 1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_header_only_journal_holds_an_empty_stream() {
        let dir = scratch("header-only");
        let head = StreamSnapshot {
            src_len: 0,
            ..cut(&sample(), 0)
        };
        let mut j = Journal::new(&dir);
        j.write(|| head.clone(), 0, |_| unreachable!(), &[])
            .unwrap();
        j.trim().unwrap();
        let bytes = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
        assert_eq!(bytes.len(), HEADER_LEN);
        let r = StreamSnapshot::replay(&bytes).unwrap();
        assert_eq!((r.snapshot.n_blocks(), r.records), (0, 0));
        assert_eq!(r.snapshot, head);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_io_error_stops_the_journal() {
        // The directory is a file, so the first write cannot create it.
        let dir = scratch("not-a-dir");
        std::fs::write(&dir, b"").unwrap();
        let s = sample();
        let lineage = |i: usize| [s.arrivals[i], s.encoded_at[i], s.bits[i]];
        let mut j = Journal::new(&dir);
        assert!(j.write(|| cut(&s, 0), 1, lineage, &s.stream_bytes).is_err());
        std::fs::remove_file(&dir).unwrap();
        assert!(j.write(|| cut(&s, 0), 3, lineage, &s.stream_bytes).is_err());
        assert!(!dir.exists(), "a stopped journal writes nothing");
    }

    #[test]
    fn load_missing_file_is_io_error() {
        match StreamSnapshot::load(Path::new("/nonexistent/checkpoint.log")) {
            Err(ResumeError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn truncation_at_every_offset_never_panics() {
        let (bytes, ends) = journal();
        for len in 0..bytes.len() {
            let r = StreamSnapshot::replay(&bytes[..len]);
            if len < HEADER_LEN {
                assert_eq!(r, Err(ResumeError::Truncated), "cut at {len}");
                continue;
            }
            // A cut inside a record leaves the previous record's prefix.
            let (k, end) = match len {
                l if l < ends[0] => (0, HEADER_LEN),
                _ => (1, ends[0]),
            };
            let r = r.unwrap();
            assert_eq!(r.snapshot, cut(&sample(), k), "cut at {len}");
            assert_eq!(r.ignored_bytes, len - end);
        }
    }

    #[test]
    fn byte_corruption_never_panics() {
        // Flip every byte through a handful of corruptions: a damaged
        // header is an error, a damaged record ends the replay before it.
        let (bytes, ends) = journal();
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0x20, 0x80] {
                let mut m = bytes.clone();
                m[i] ^= flip;
                let r = StreamSnapshot::replay(&m);
                let k = match i {
                    i if i < HEADER_LEN => {
                        assert!(r.is_err(), "header byte {i} ^ {flip:#x} loads");
                        continue;
                    }
                    i if i < ends[0] => 0,
                    _ => 1,
                };
                let r = r.unwrap();
                assert_eq!(r.snapshot, cut(&sample(), k), "byte {i} ^ {flip:#x}");
                assert_eq!(r.records, k);
            }
        }
    }

    #[test]
    fn garbage_after_the_last_record_is_ignored() {
        let (mut bytes, _) = journal();
        let whole = bytes.len();
        bytes.extend((0..200u32).map(|i| (i * 37 % 251) as u8));
        let r = StreamSnapshot::replay(&bytes).unwrap();
        assert_eq!(r.snapshot, sample());
        assert_eq!((r.records, r.ignored_bytes), (2, bytes.len() - whole));
    }

    #[test]
    fn newer_schema_is_rejected() {
        let (mut bytes, _) = journal();
        for schema in [99, 2] {
            bytes[7] = schema;
            assert_eq!(
                StreamSnapshot::replay(&bytes),
                Err(ResumeError::BadSchema(u64::from(schema)))
            );
        }
        bytes[0] ^= 1;
        assert_eq!(
            StreamSnapshot::replay(&bytes),
            Err(ResumeError::BadField("magic"))
        );
    }

    #[test]
    fn structural_inconsistency_is_rejected() {
        // Records that carry a valid checksum but do not advance the
        // prefix, or advance it past `n_blocks()`, are not applied.
        let (bytes, _) = journal();
        for prefix in [3u64, 2, 11] {
            let mut m = bytes.clone();
            let mut rec = prefix.to_le_bytes().to_vec();
            rec.extend_from_slice(&record_sum(&rec, &[], &[]).to_le_bytes());
            m.extend_from_slice(&rec);
            let r = StreamSnapshot::replay(&m).unwrap();
            assert_eq!(r.snapshot, sample(), "prefix {prefix}");
            assert_eq!(r.ignored_bytes, rec.len());
        }
    }

    #[test]
    fn digest_mismatch_is_detected() {
        let s = sample();
        assert!(s.check_matches(s.config_digest, s.input_digest).is_ok());
        assert_eq!(
            s.check_matches(s.config_digest + 1, s.input_digest),
            Err(ResumeError::InputMismatch)
        );
        assert_eq!(
            s.check_matches(s.config_digest, 0),
            Err(ResumeError::InputMismatch)
        );
    }

    #[test]
    fn input_digest_sees_every_flipped_byte_and_every_truncation() {
        // Long enough for several stripes and a ragged tail.
        let data: Vec<u8> = (0..32 * 5 + 19u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
            .collect();
        let whole = input_digest(&data);
        for i in 0..data.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut d = data.clone();
                d[i] ^= flip;
                assert_ne!(input_digest(&d), whole, "byte {i} ^ {flip:#x}");
            }
            assert_ne!(input_digest(&data[..i]), whole, "cut to {i} bytes");
        }
        // Zero bytes are input too: length alone must tell these apart.
        assert_ne!(input_digest(&[0; 32]), input_digest(&[0; 64]));
        assert_ne!(input_digest(&[]), input_digest(&[0]));
    }

    #[test]
    fn errors_display_readably() {
        assert!(ResumeError::Truncated.to_string().contains("truncated"));
        assert!(ResumeError::BadField("header checksum")
            .to_string()
            .contains("header checksum"));
        assert!(ResumeError::InputMismatch
            .to_string()
            .contains("different input"));
    }
}
