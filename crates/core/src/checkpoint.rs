//! Committed-prefix checkpointing.
//!
//! A streaming run's durable state is its *committed prefix*: the
//! contiguous run of finalized blocks at the front of the stream, the
//! histogram they contributed, the code table that encoded them, the
//! output bitstream up to the offset at which the first block past the
//! prefix starts (its trailing partial byte is shared with that block) and
//! the position the offset chain had reached. A
//! [`StreamSnapshot`] captures exactly that, serialized as one flat JSON
//! line and written atomically (`.tmp-<pid>` + rename, the post-mortem
//! bundle discipline), so a crashed or killed run resumes by re-feeding
//! only the blocks past the prefix — byte-identical to an uninterrupted
//! run, because the committed tree is deterministic for a given prefix
//! and encoding is deterministic given the tree.
//!
//! Deserialization is *total*: truncated, bit-flipped or otherwise
//! mangled snapshot files return a structured [`ResumeError`], never a
//! panic — the recovery path must itself be robust to the disk state a
//! crash leaves behind.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// File name of the current snapshot inside [`CheckpointConfig::dir`].
pub const SNAPSHOT_FILE: &str = "snapshot.json";

/// Schema version written by this build; readers reject newer schemas.
pub const SNAPSHOT_SCHEMA: u64 = 1;

/// Default snapshot cadence in committed blocks — the operating point the
/// checkpoint-overhead budget (≤3 % wall-clock) is enforced at.
pub const DEFAULT_CADENCE: usize = 16;

/// When and where to checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Write a snapshot whenever the committed prefix has advanced by at
    /// least this many blocks since the last write (plus once at the
    /// end). 0 disables cadence-driven writes (a halt still writes).
    pub every_blocks: usize,
    /// Directory the snapshot lands in (created if missing).
    pub dir: PathBuf,
    /// Test/chaos hook: stop the pipeline once this many blocks are
    /// finalized — force-write a snapshot, spawn nothing further and
    /// report finished, simulating a kill at a block boundary.
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

    /// Path of the snapshot file this config writes.
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join(SNAPSHOT_FILE)
    }
}

/// Why a snapshot could not be loaded or resumed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// The file could not be read.
    Io(String),
    /// The file ends before the closing brace (interrupted write).
    Truncated,
    /// The snapshot's schema is newer than this build understands.
    BadSchema(u64),
    /// A required field is absent.
    MissingField(&'static str),
    /// A field is present but unparseable (bit flips, hand edits).
    BadField(&'static str),
    /// Cross-field structural invariants do not hold (array lengths vs
    /// the prefix, stream bytes vs the bit length, prefix vs n_blocks).
    LengthMismatch(&'static str),
    /// The snapshot was taken from different input data or a different
    /// pipeline configuration than the resume attempt supplies.
    InputMismatch,
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Io(e) => write!(f, "snapshot io error: {e}"),
            ResumeError::Truncated => write!(f, "snapshot truncated (interrupted write?)"),
            ResumeError::BadSchema(s) => write!(f, "snapshot schema {s} is newer than supported"),
            ResumeError::MissingField(k) => write!(f, "snapshot missing field '{k}'"),
            ResumeError::BadField(k) => write!(f, "snapshot field '{k}' unparseable"),
            ResumeError::LengthMismatch(what) => {
                write!(f, "snapshot internally inconsistent: {what}")
            }
            ResumeError::InputMismatch => {
                write!(f, "snapshot was taken from different input or config")
            }
        }
    }
}

impl std::error::Error for ResumeError {}

/// FNV-1a over a byte slice — the digest that binds a snapshot to its
/// pipeline configuration (a short string; for the input stream see
/// [`input_digest`]).
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

/// The exact state needed to resume a committed prefix (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSnapshot {
    /// FNV-1a digest of the pipeline parameters that shape the output.
    pub config_digest: u64,
    /// [`input_digest`] of the full input byte stream.
    pub input_digest: u64,
    /// Total blocks in the stream.
    pub n_blocks: u64,
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
    /// Merged byte histogram of the prefix blocks (256 entries).
    pub hist_base: Vec<u64>,
    /// Canonical code lengths of the committed tree (256 entries; empty
    /// when no block was finalized yet and no tree exists).
    pub code_lengths: Vec<u8>,
    /// The speculation version that produced the committed tree (0 when
    /// the tree came from the natural path or none exists).
    pub committed_version: u64,
    /// The prefix's bitstream, padded to whole bytes. The bits of the
    /// trailing partial byte past `stream_bit_len` are zero: the resumed
    /// run places block `prefix` into them.
    pub stream_bytes: Vec<u8>,
    /// Exact bit length of the prefix stream.
    pub stream_bit_len: u64,
}

impl StreamSnapshot {
    /// Serialize as one flat JSON line (schema [`SNAPSHOT_SCHEMA`]).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024 + self.stream_bytes.len() * 2);
        let _ = write!(
            s,
            "{{\"schema\":{},\"config_digest\":{},\"input_digest\":{},\"n_blocks\":{},\
             \"block_bytes\":{},\"prefix\":{},\"cadence\":{},\"committed_version\":{},\
             \"stream_bit_len\":{}",
            SNAPSHOT_SCHEMA,
            self.config_digest,
            self.input_digest,
            self.n_blocks,
            self.block_bytes,
            self.prefix,
            self.cadence,
            self.committed_version,
            self.stream_bit_len,
        );
        let _ = write!(s, ",\"arrivals\":\"{}\"", u64_list(&self.arrivals));
        let _ = write!(s, ",\"encoded_at\":\"{}\"", u64_list(&self.encoded_at));
        let _ = write!(s, ",\"bits\":\"{}\"", u64_list(&self.bits));
        let _ = write!(s, ",\"hist_base\":\"{}\"", u64_list(&self.hist_base));
        let _ = write!(s, ",\"code_lengths\":\"{}\"", hex(&self.code_lengths));
        let _ = write!(s, ",\"stream\":\"{}\"}}", hex(&self.stream_bytes));
        s
    }

    /// Total parser for [`StreamSnapshot::to_json`] output: every failure
    /// mode — truncation mid-field, flipped bytes, wrong schema, missing
    /// keys, inconsistent lengths — comes back as a [`ResumeError`].
    pub fn from_json(line: &str) -> Result<Self, ResumeError> {
        let line = line.trim();
        if !line.starts_with('{') {
            return Err(ResumeError::BadField("schema"));
        }
        if !line.ends_with('}') {
            return Err(ResumeError::Truncated);
        }
        let schema = req_u64(line, "schema")?;
        if schema > SNAPSHOT_SCHEMA {
            return Err(ResumeError::BadSchema(schema));
        }
        let snap = StreamSnapshot {
            config_digest: req_u64(line, "config_digest")?,
            input_digest: req_u64(line, "input_digest")?,
            n_blocks: req_u64(line, "n_blocks")?,
            block_bytes: req_u64(line, "block_bytes")?,
            prefix: req_u64(line, "prefix")?,
            cadence: req_u64(line, "cadence")?,
            committed_version: req_u64(line, "committed_version")?,
            stream_bit_len: req_u64(line, "stream_bit_len")?,
            arrivals: req_u64_list(line, "arrivals")?,
            encoded_at: req_u64_list(line, "encoded_at")?,
            bits: req_u64_list(line, "bits")?,
            hist_base: req_u64_list(line, "hist_base")?,
            code_lengths: req_hex(line, "code_lengths")?,
            stream_bytes: req_hex(line, "stream")?,
        };
        snap.validate()?;
        Ok(snap)
    }

    /// Structural invariants a loadable snapshot must satisfy.
    fn validate(&self) -> Result<(), ResumeError> {
        if self.prefix > self.n_blocks {
            return Err(ResumeError::LengthMismatch("prefix exceeds n_blocks"));
        }
        let k = self.prefix as usize;
        if self.arrivals.len() != k || self.encoded_at.len() != k || self.bits.len() != k {
            return Err(ResumeError::LengthMismatch(
                "per-block arrays do not match the prefix",
            ));
        }
        if !self.hist_base.is_empty() && self.hist_base.len() != 256 {
            return Err(ResumeError::LengthMismatch(
                "hist_base must have 256 entries",
            ));
        }
        if !self.code_lengths.is_empty() && self.code_lengths.len() != 256 {
            return Err(ResumeError::LengthMismatch(
                "code_lengths must have 256 entries",
            ));
        }
        if k > 0 && self.code_lengths.is_empty() {
            return Err(ResumeError::LengthMismatch(
                "finalized prefix without a code table",
            ));
        }
        let expect_bytes = (self.stream_bit_len as usize).div_ceil(8);
        if self.stream_bytes.len() != expect_bytes {
            return Err(ResumeError::LengthMismatch(
                "stream bytes do not match the bit length",
            ));
        }
        let bits_total: u64 = self.bits.iter().sum();
        if bits_total != self.stream_bit_len {
            return Err(ResumeError::LengthMismatch(
                "per-block bit counts do not sum to the stream bit length",
            ));
        }
        Ok(())
    }

    /// Write atomically into `cfg.dir` (tmp file + rename). Returns the
    /// snapshot path.
    pub fn write_atomic(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join(format!("{SNAPSHOT_FILE}.tmp-{}", std::process::id()));
        std::fs::write(&tmp, self.to_json())?;
        let fin = dir.join(SNAPSHOT_FILE);
        std::fs::rename(&tmp, &fin)?;
        Ok(fin)
    }

    /// Load and parse a snapshot file.
    pub fn load(path: &Path) -> Result<Self, ResumeError> {
        let text = std::fs::read_to_string(path).map_err(|e| ResumeError::Io(e.to_string()))?;
        Self::from_json(&text)
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

fn u64_list(xs: &[u64]) -> String {
    let mut s = String::new();
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{x}");
    }
    s
}

fn hex(bytes: &[u8]) -> String {
    // Table-driven: the snapshot hot path serializes the whole committed
    // stream prefix, and per-byte `write!("{b:02x}")` is ~10x slower.
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = Vec::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(DIGITS[(b >> 4) as usize]);
        s.push(DIGITS[(b & 0xf) as usize]);
    }
    String::from_utf8(s).expect("hex digits are ASCII")
}

/// Extract the raw text of `"key":<value>` where value is either a bare
/// number or a quoted string (no escapes — this format never emits any).
fn field_text<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    if let Some(inner) = rest.strip_prefix('"') {
        let end = inner.find('"')?;
        Some(&inner[..end])
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
}

fn req_u64(line: &str, key: &'static str) -> Result<u64, ResumeError> {
    let t = field_text(line, key).ok_or(ResumeError::MissingField(key))?;
    t.parse::<u64>().map_err(|_| ResumeError::BadField(key))
}

fn req_u64_list(line: &str, key: &'static str) -> Result<Vec<u64>, ResumeError> {
    let t = field_text(line, key).ok_or(ResumeError::MissingField(key))?;
    if t.is_empty() {
        return Ok(Vec::new());
    }
    t.split(',')
        .map(|p| p.parse::<u64>().map_err(|_| ResumeError::BadField(key)))
        .collect()
}

fn req_hex(line: &str, key: &'static str) -> Result<Vec<u8>, ResumeError> {
    let t = field_text(line, key).ok_or(ResumeError::MissingField(key))?;
    if t.len() % 2 != 0 {
        return Err(ResumeError::BadField(key));
    }
    (0..t.len() / 2)
        .map(|i| {
            u8::from_str_radix(
                t.get(i * 2..i * 2 + 2).ok_or(ResumeError::BadField(key))?,
                16,
            )
            .map_err(|_| ResumeError::BadField(key))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StreamSnapshot {
        StreamSnapshot {
            config_digest: 0xDEAD_BEEF,
            input_digest: fnv1a(b"the input"),
            n_blocks: 10,
            block_bytes: 4096,
            prefix: 3,
            cadence: 2,
            arrivals: vec![0, 10, 20],
            encoded_at: vec![15, 25, 35],
            bits: vec![100, 200, 44],
            hist_base: (0..256).map(|i| i as u64).collect(),
            code_lengths: (0..=255u8).map(|i| if i < 4 { 2 } else { 0 }).collect(),
            committed_version: 2,
            stream_bytes: vec![0xAB; 43],
            stream_bit_len: 344,
        }
    }

    #[test]
    fn round_trips() {
        let s = sample();
        let j = s.to_json();
        assert_eq!(StreamSnapshot::from_json(&j).unwrap(), s);
    }

    #[test]
    fn empty_prefix_round_trips() {
        let s = StreamSnapshot {
            config_digest: 1,
            input_digest: 2,
            n_blocks: 5,
            block_bytes: 64,
            prefix: 0,
            cadence: 1,
            arrivals: vec![],
            encoded_at: vec![],
            bits: vec![],
            hist_base: vec![],
            code_lengths: vec![],
            committed_version: 0,
            stream_bytes: vec![],
            stream_bit_len: 0,
        };
        assert_eq!(StreamSnapshot::from_json(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn atomic_write_and_load() {
        let dir = std::env::temp_dir().join(format!("tvs-ckpt-test-{}", std::process::id()));
        let s = sample();
        let path = s.write_atomic(&dir).unwrap();
        assert_eq!(path.file_name().unwrap(), SNAPSHOT_FILE);
        assert_eq!(StreamSnapshot::load(&path).unwrap(), s);
        // No tmp litter survives.
        let litter: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(litter.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_missing_file_is_io_error() {
        match StreamSnapshot::load(Path::new("/nonexistent/snapshot.json")) {
            Err(ResumeError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn truncation_at_every_offset_never_panics() {
        let j = sample().to_json();
        for cut in 0..j.len() {
            let r = StreamSnapshot::from_json(&j[..cut]);
            assert!(r.is_err(), "truncated at {cut} must not parse");
        }
    }

    #[test]
    fn byte_corruption_never_panics() {
        // Flip every byte through a handful of corruptions; the parser
        // must return (anything), never panic, and a corrupted numeric
        // or hex field must not round-trip silently into a *different*
        // valid snapshot with inconsistent structure.
        let s = sample();
        let j = s.to_json();
        let bytes = j.as_bytes();
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0x20, 0x80] {
                let mut m = bytes.to_vec();
                m[i] ^= flip;
                if let Ok(text) = String::from_utf8(m) {
                    let _ = StreamSnapshot::from_json(&text);
                }
            }
        }
    }

    #[test]
    fn newer_schema_is_rejected() {
        let j = sample().to_json().replace("\"schema\":1", "\"schema\":99");
        assert_eq!(
            StreamSnapshot::from_json(&j),
            Err(ResumeError::BadSchema(99))
        );
    }

    #[test]
    fn structural_inconsistency_is_rejected() {
        let mut s = sample();
        s.arrivals.pop();
        assert!(matches!(
            StreamSnapshot::from_json(&s.to_json()),
            Err(ResumeError::LengthMismatch(_))
        ));
        let mut s = sample();
        s.stream_bit_len += 8;
        assert!(matches!(
            StreamSnapshot::from_json(&s.to_json()),
            Err(ResumeError::LengthMismatch(_))
        ));
        let mut s = sample();
        s.prefix = 99;
        assert!(matches!(
            StreamSnapshot::from_json(&s.to_json()),
            Err(ResumeError::LengthMismatch(_))
        ));
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
        assert!(ResumeError::MissingField("prefix")
            .to_string()
            .contains("prefix"));
        assert!(ResumeError::InputMismatch
            .to_string()
            .contains("different input"));
    }
}
