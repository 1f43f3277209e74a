//! The parallel, speculative Huffman encoder — the paper's benchmark
//! application (Fig. 2), expressed as a [`Workload`] over the SRE.
//!
//! Task graph (non-speculative path):
//!
//! ```text
//! chunk_c ──► count_c ─┐
//!                      ├─► reduce_g ─► reduce_{g+1} ─► … ─► tree
//! chunk_d ──► count_d ─┘                                      │
//!        ┌────────────────────────────────────────────────────┘
//!        ▼
//!   offset_0 ─► offset_1 ─► …        (serial chain, fan-out F blocks)
//!      │            │
//!      ▼            ▼
//!  encode×k     encode×k              (data-parallel: one per chunk ∩ group)
//! ```
//!
//! A block's life is one `Block`: `Due` → `Arrived` → `Counted` →
//! `Committed`, the last entered once, in `finalize_block`.
//!
//! The grain: a *chunk* is the unit of work. Blocks arrive in batches —
//! every block that became available at the same moment, in one
//! [`Workload::on_input_batch`]. When a batch holds at least one whole
//! reduce group per worker, each group whose blocks all arrived in it is
//! *coarse*: one chunk, cut where it would exceed the platform's task-byte
//! limit. Every other block is a chunk of one. So blocks dribbling in from
//! a disk or a slow socket keep the paper's per-block tasks, while a
//! backlog — a whole file in memory, a socket burst on few workers — is
//! worked a group at a time:
//!
//! * one `count` per chunk, returning its blocks' counts in one slab of
//!   `u32` rows — the reduce and offset chains read a block's row, and the
//!   slab is freed once the chunk's last block commits;
//! * the serial chains take everything ready in one hop: a `reduce` folds
//!   the counted coarse groups from the next one on and returns each
//!   group's running total, an `offset` covers the counted coarse blocks
//!   from the chain's end on — otherwise a hop waits behind coarse tasks
//!   bound in the executor's lanes, once per group;
//! * one `encode` per chunk ∩ group of `offset_fanout` blocks, writing its
//!   blocks back to back into one buffer allocated at the exact size the
//!   offsets give, after the lead its first offset asks for, and placed
//!   once.
//!
//! Nothing else depends on the grain: reduce groups, basis events, checks
//! and the stream are the same, and so is the output. Per-block work is a
//! chunk of one on the same path.
//!
//! Speculation (per §IV-B): prefix histograms from the reduce chain feed
//! predictor tasks that build speculative trees; speculative offset/encode
//! chains run under version tags; encoded blocks wait in a
//! [`WaitBuffer`]; check tasks compare compressed sizes within the
//! tolerance; failures roll the version back and promote the check's
//! freshly-built tree; the final tree's check decides commit or natural
//! recompute.
//!
//! Output: every path keeps the [`OffsetChain`] of its version, fed by the
//! lengths its `offset` tasks compute. An encode is told where in its first
//! byte its chunk will start and emits that many lead bits before the
//! chunk's blocks, so the chunk comes back aligned with the output stream;
//! `finalize_block` — the one place blocks leave the side-effect barrier,
//! directly for the natural path and the committed version, through the
//! wait buffer otherwise — [`place`]s it at its offset in the single
//! committed `stream`, then commits its blocks one at a time. A version
//! that is rolled back never touches the stream, and nothing is left to
//! assemble when the run ends: the result, a checkpoint snapshot (the
//! stream up to the committed prefix's offset) and a resumed run (which
//! starts from that prefix) all use this one stream.
//!
//! The speculation manager sees its events in one canonical order, however
//! the executor interleaves completions: basis events (reduce results) and
//! the final tree queue up in `spec_events` while a verdict — the
//! predictor's tree or an intermediate check's result — is outstanding, and
//! are replayed once it is in. A prediction is therefore always installed
//! before the basis event after the one that started it, a check's result
//! is always digested before the next basis event, and the final tree never
//! overtakes either. Which tree a run commits is a function of the input
//! and the configuration alone — the same on the simulator and on any
//! number of threads. Check *tasks* do not wait for their turn, only their
//! results do: the check of the live version against a new reduce result is
//! spawned the moment that result is in (`eager_check`), so the checks of a
//! version that keeps passing still run side by side.

use crate::config::{HuffmanConfig, PredictorKind};
use std::collections::VecDeque;
use std::ops::{Deref, Range};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tvs_core::{
    Action, AllocStats, CheckResult, Journal, Level, ManagerStats, ResumeError, SpecVersion,
    SpeculationManager, StreamSnapshot, WaitBuffer,
};
use tvs_huffman::decode::DecodeError;
use tvs_huffman::{
    decode_exact, encode_blocks_at, place, relative_cost_delta, set_bit_len, BlockCounts,
    CodeLengths, CodeTable, EncodedBlock, Histogram, OffsetChain,
};
use tvs_metrics::{Gauge, Recorder};
use tvs_sre::task::{expect_payload, payload};
use tvs_sre::{
    Completion, FaultInjector, FaultKind, FaultNotice, FaultSite, InputBlock, Instruments,
    SchedCtx, SdcNotice, TaskSpec, Time, Workload,
};

/// The speculated value: a Huffman code (lengths + canonical table) built
/// from a histogram snapshot at a given basis point.
#[derive(Debug, Clone)]
pub struct SpecTree {
    /// Optimal (or covering, for prefixes) code lengths.
    pub lengths: CodeLengths,
    /// Canonical code table derived from `lengths`.
    pub table: CodeTable,
    /// The basis event count the tree was built from (0 = first block).
    pub basis: u64,
}

impl SpecTree {
    /// A tree from its code lengths and the canonical table they define.
    fn new(lengths: CodeLengths, basis: u64) -> Self {
        let table = CodeTable::from_lengths(&lengths);
        SpecTree {
            lengths,
            table,
            basis,
        }
    }

    /// Build a *covering* tree from a (possibly partial) histogram.
    pub fn covering(hist: &Histogram, basis: u64) -> Self {
        let lengths = CodeLengths::build_covering(hist).expect("non-empty histogram");
        Self::new(lengths, basis)
    }

    /// Build a tree from a Laplace-smoothed histogram (ablation variant).
    pub fn laplace(hist: &Histogram, basis: u64) -> Self {
        let lengths =
            CodeLengths::build(&hist.with_smoothing(1)).expect("smoothed histogram non-empty");
        Self::new(lengths, basis)
    }

    /// Build a speculative tree per the configured predictor kind.
    pub fn predict(kind: PredictorKind, hist: &Histogram, basis: u64) -> Self {
        match kind {
            PredictorKind::CoveringEscape => Self::covering(hist, basis),
            PredictorKind::LaplaceSmoothing => Self::laplace(hist, basis),
        }
    }

    /// Build the exact optimal tree from the full histogram.
    pub fn exact(hist: &Histogram, basis: u64) -> Self {
        let lengths = CodeLengths::build(hist).expect("non-empty histogram");
        Self::new(lengths, basis)
    }
}

/// Per-block outcome.
#[derive(Debug, Clone, Copy)]
pub struct BlockDone {
    /// Arrival time of the block, µs.
    pub arrival: Time,
    /// Completion time of the encode whose output was committed, µs.
    pub encoded_at: Time,
    /// Encoded size in bits.
    pub bits: u64,
}

impl BlockDone {
    /// The paper's per-element latency metric.
    pub fn latency(&self) -> Time {
        self.encoded_at.saturating_sub(self.arrival)
    }
}

/// Result of a finished pipeline run, extracted from the workload.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// Per-block outcomes, in block order.
    pub blocks: Vec<BlockDone>,
    /// Total compressed size in bits.
    pub compressed_bits: u64,
    /// Input size in bytes.
    pub src_bytes: usize,
    /// The committed speculation version, if the run committed one.
    pub committed_version: Option<SpecVersion>,
    /// Speculation statistics (`None` for non-speculative runs).
    pub spec_stats: Option<ManagerStats>,
    /// The assembled output stream, when `collect_output` was set:
    /// `(bytes, bit_len, lengths)` — decodable with the committed table.
    pub output: Option<(Vec<u8>, u64, CodeLengths)>,
    /// Encode output buffers: `heap_allocs` is one per `encode` body that
    /// ran, each writing its chunk into one exact-size buffer.
    pub alloc_stats: AllocStats,
}

impl PipelineResult {
    /// Mean per-element latency, µs.
    pub fn mean_latency(&self) -> f64 {
        if self.blocks.is_empty() {
            return 0.0;
        }
        self.blocks.iter().map(|b| b.latency() as f64).sum::<f64>() / self.blocks.len() as f64
    }

    /// Compression ratio (input bits / output bits).
    pub fn compression_ratio(&self) -> f64 {
        if self.compressed_bits == 0 {
            f64::INFINITY
        } else {
            self.src_bytes as f64 * 8.0 / self.compressed_bits as f64
        }
    }
}

/// An encode task's chunk on its way out: what waits in the
/// [`WaitBuffer`], keyed by the chunk's first block, and what
/// `finalize_block` places.
struct EncodeOut {
    /// The chunk's blocks back to back, after the lead of the first.
    run: EncodedBlock,
    /// Where the chunk starts in the output stream, per its path's chain.
    bit_off: u64,
    /// Each block's encoded size, per the chain.
    bits: Vec<u64>,
    finished: Time,
}

/// An active encode path (speculative version or the natural path).
struct Path {
    /// `None` = natural path.
    version: Option<SpecVersion>,
    tree: Arc<SpecTree>,
    /// Offsets of the blocks whose `offset` task is back; the next group
    /// starts at block `chain.offsets().len()`.
    chain: OffsetChain,
    offset_inflight: bool,
}

impl Path {
    fn new(version: Option<SpecVersion>, tree: Arc<SpecTree>) -> Self {
        Path {
            version,
            tree,
            chain: OffsetChain::new(),
            offset_inflight: false,
        }
    }
}

/// One block's life: `Due` → `Arrived` → `Counted` → `Committed`. Each
/// state owns exactly the data valid in it, and a transition consumes the
/// old state: a block is counted once, after it arrived, and committed once,
/// after its count — nothing leaves `Committed`. No state holds the block's
/// bytes: they stay where the run's input lies, at
/// [`HuffmanWorkload::span`] of the block, and tasks read them there.
#[derive(Default)]
enum Block {
    #[default]
    Due,
    Arrived {
        at: Time,
    },
    Counted {
        at: Time,
        counts: Row,
    },
    /// Past the side-effect barrier: its counts released.
    Committed {
        done: BlockDone,
    },
}

/// A counted block's counts: its row of the slab its `count` task
/// returned, one allocation per chunk, freed once the chunk's last block
/// is committed.
#[derive(Clone)]
struct Row {
    slab: Arc<[BlockCounts]>,
    i: usize,
}

impl Deref for Row {
    type Target = BlockCounts;

    fn deref(&self) -> &BlockCounts {
        &self.slab[self.i]
    }
}

impl Block {
    fn counts(&self) -> Option<&Row> {
        match self {
            Block::Counted { counts, .. } => Some(counts),
            _ => None,
        }
    }

    fn done(&self) -> Option<BlockDone> {
        match self {
            Block::Committed { done } => Some(*done),
            _ => None,
        }
    }

    fn count(&mut self, counts: Row) {
        let Block::Arrived { at } = std::mem::take(self) else {
            panic!("a block is counted once, after it arrived");
        };
        *self = Block::Counted { at, counts };
    }

    fn commit(&mut self, encoded_at: Time, bits: u64) {
        let Block::Counted { at, .. } = std::mem::take(self) else {
            panic!("a block is committed once, after its count");
        };
        let done = BlockDone {
            arrival: at,
            encoded_at,
            bits,
        };
        *self = Block::Committed { done };
    }
}

/// A reduce group: whether it arrived whole in a coarsened batch — then it
/// is counted, reduced, offset and encoded in chunks (see the module
/// header); every other block is a chunk of one — and its reduce state.
#[derive(Default)]
struct Group {
    coarse: bool,
    reduce: Reduce,
}

/// Where the serial reduce chain is with a group.
#[derive(Default)]
enum Reduce {
    #[default]
    Pending,
    /// In the reduce task that is out.
    Reducing,
    /// The running total: every block up to the group's last.
    Reduced(Arc<Histogram>),
}

/// Live checkpointing state, per [`HuffmanConfig::checkpoint`]. The
/// prefix's bits are the front of the workload's output stream.
struct Ckpt {
    /// Prefix length at the last journal write (a resumed run starts at
    /// its snapshot's prefix: the journal it was loaded from holds that).
    last_written: usize,
    journal: Journal,
}

/// A speculation-manager input waiting its turn (see the module header).
#[derive(Debug, Clone, Copy)]
enum SpecEvent {
    /// `n` reduce results are in (0 = the first block's count).
    Basis(u64),
    /// The final tree is built.
    Final,
}

/// An intermediate check that has been spawned: `version` against the
/// histogram of basis event `basis`, and its result once the task is back.
struct CheckSlot {
    version: SpecVersion,
    basis: u64,
    verdict: Option<(CheckResult, Arc<SpecTree>)>,
}

/// The Huffman encoder workload. Drive it with either executor.
pub struct HuffmanWorkload {
    cfg: HuffmanConfig,
    src_bytes: usize,
    blocks: Vec<Block>,
    groups: Vec<Group>,
    /// Blocks `0..prefix` are committed: the committed frontier.
    prefix: usize,
    final_tree: Option<Arc<SpecTree>>,

    mgr: SpeculationManager<Arc<SpecTree>>,
    /// Manager inputs held back until the outstanding verdict is in.
    spec_events: VecDeque<SpecEvent>,
    /// Basis of the event being dispatched: what a predictor or check
    /// spawned by it snapshots, not whatever the reduce chain reached since.
    spec_basis: u64,
    /// Intermediate checks spawned and not yet shown to the manager.
    checks: Vec<CheckSlot>,
    /// The check `(version, basis)` whose result is the next manager input.
    awaited_check: Option<(SpecVersion, u64)>,
    buffer: WaitBuffer<EncodeOut>,
    committed_version: Option<SpecVersion>,
    /// The one live encode path: the speculative version's until the run
    /// goes natural — the manager runs one version at a time, and the
    /// natural path only starts once speculation is over.
    path: Option<Path>,
    /// The committed output: every finalized block at its bit offset (kept
    /// under `collect_output` or checkpointing only).
    stream: Vec<u8>,
    committed_tree: Option<Arc<SpecTree>>,
    faults: FaultInjector,
    rec: Recorder,

    ckpt: Option<Ckpt>,
    /// The committed prefix frozen when the checkpoint plane halted the run.
    halted: Option<usize>,
    input_digest: u64,

    // Steady-state scratch, recycled between scheduler events so the
    // speculation control path performs no per-block heap allocation.
    actions_scratch: Vec<Action>,
    commit_scratch: Vec<(u64, EncodeOut)>,
    /// Encode output buffers allocated: one per `encode` body that ran.
    encode_allocs: Arc<AtomicU64>,
}

impl HuffmanWorkload {
    /// A dark workload for `data_len` input bytes under `cfg`: no
    /// recorder, no fault plan, snapshots (if any) bound to no input.
    pub fn new(cfg: HuffmanConfig, data_len: usize) -> Self {
        Self::instrumented(cfg, data_len, 0, &Instruments::default())
    }

    /// A workload for `data_len` input bytes under `cfg`, built on a run's
    /// [`Instruments`] — hand the executor the same value. The speculation
    /// manager's lifecycle facts and the encode-buffer gauge go to
    /// `ins.recorder`; `ins.faults` arms the workload's own sites
    /// ([`FaultSite::PredictedValue`] — a scrambled predicted tree, which
    /// the tolerance checks must catch — and [`FaultSite::TaskOutput`]).
    /// `input_digest` binds snapshots to the input:
    /// `tvs_core::checkpoint::input_digest(data)` when `cfg.checkpoint` is
    /// armed, 0 otherwise.
    pub fn instrumented(
        cfg: HuffmanConfig,
        data_len: usize,
        input_digest: u64,
        ins: &Instruments,
    ) -> Self {
        assert!(
            data_len > 0 || !cfg.collect_output,
            "an empty input has no code table to collect"
        );
        // Build the engine through the paper's four-point interface.
        let mgr = cfg.speculation_plan().manager(cfg.degrade, ins);
        let keeps_stream = cfg.collect_output || cfg.checkpoint.is_some();
        let ckpt = cfg.checkpoint.as_ref().map(|c| Ckpt {
            last_written: 0,
            journal: Journal::new(&c.dir),
        });
        HuffmanWorkload {
            src_bytes: data_len,
            blocks: (0..cfg.n_blocks(data_len)).map(|_| Block::Due).collect(),
            groups: (0..cfg.n_groups(data_len))
                .map(|_| Group::default())
                .collect(),
            prefix: 0,
            final_tree: None,
            mgr,
            spec_events: VecDeque::new(),
            spec_basis: 0,
            checks: Vec::new(),
            awaited_check: None,
            buffer: WaitBuffer::new(),
            committed_version: None,
            path: None,
            // Sized for an output no larger than the input, the usual
            // case, so that the stream is not moved as it grows.
            stream: Vec::with_capacity(if keeps_stream { data_len } else { 0 }),
            committed_tree: None,
            faults: ins.faults.clone(),
            rec: ins.recorder.clone(),
            ckpt,
            halted: None,
            input_digest,
            actions_scratch: Vec::new(),
            commit_scratch: Vec::new(),
            encode_allocs: Arc::default(),
            cfg,
        }
    }

    /// Reconstruct a workload from a committed-prefix snapshot: blocks
    /// `0..snapshot.prefix` are prefilled as finalized, the committed tree
    /// is rebuilt from the snapshot's code lengths, and only blocks
    /// `snapshot.prefix..` need to be re-fed (the runner filters them).
    /// The resumed run never re-speculates — every remaining block is
    /// counted (for its offset) and encoded with the snapshot's tree, which
    /// is what makes the resumed output byte-identical to an uninterrupted
    /// run.
    ///
    /// Callers must have verified the snapshot against their input and
    /// configuration with [`StreamSnapshot::check_matches`] first (which is
    /// why the snapshot's own input digest is carried over); this
    /// constructor re-checks only the structural binding it can see.
    pub fn resume(
        cfg: HuffmanConfig,
        data_len: usize,
        snap: &StreamSnapshot,
        ins: &Instruments,
    ) -> Result<Self, ResumeError> {
        let mut wl = Self::instrumented(cfg, data_len, snap.input_digest, ins);
        if snap.src_len != data_len as u64 || snap.block_bytes as usize != wl.cfg.block_bytes {
            return Err(ResumeError::InputMismatch);
        }
        let k = snap.prefix as usize;
        if k > 0 {
            let tree = Arc::new(SpecTree::new(committed_lengths(snap)?, snap.prefix));
            wl.committed_tree = Some(tree.clone());
            // The committed stream and the chain of its path pick up where
            // the snapshot's prefix ends. Only the prefix's own bits count:
            // a snapshot file is outside input.
            let mut path = Path::new(None, tree);
            path.chain.extend(&snap.bits);
            wl.path = Some(path);
            wl.stream.extend_from_slice(&snap.stream_bytes);
            set_bit_len(&mut wl.stream, snap.stream_bit_len);
            wl.committed_version = match snap.committed_version {
                0 => None,
                v => Some(v as SpecVersion),
            };
        }
        // The snapshot's blocks are committed, so they hold no counts: the
        // reduce chain never starts, and the resumed path's chain starts
        // past them.
        for (i, block) in wl.blocks[..k].iter_mut().enumerate() {
            let done = BlockDone {
                arrival: snap.arrivals[i],
                encoded_at: snap.encoded_at[i],
                bits: snap.bits[i],
            };
            *block = Block::Committed { done };
        }
        wl.prefix = k;
        // A resumed run appends to the journal it was loaded from (or, if
        // that is not `snap`'s, starts one from block 0), so it can itself
        // be killed and resumed.
        if let (Some(ck), Some(cc)) = (&mut wl.ckpt, &wl.cfg.checkpoint) {
            ck.last_written = k;
            ck.journal = Journal::resume(&cc.dir, snap);
        }
        Ok(wl)
    }

    /// True once the run stopped at
    /// [`CheckpointConfig::halt_at_block`](tvs_core::CheckpointConfig::halt_at_block).
    pub fn halted(&self) -> bool {
        self.halted.is_some()
    }

    /// The committed-prefix snapshot of a checkpointed run, built from live
    /// state: for a halted run, at the prefix frozen at the halt.
    pub fn snapshot(&self) -> Option<StreamSnapshot> {
        let k = self.halted.unwrap_or(self.prefix);
        self.ckpt.as_ref().map(|_| self.snapshot_at(k))
    }

    /// Extract the result after the run finished. The output stream is
    /// moved out, not copied.
    pub fn result(self) -> PipelineResult {
        let blocks: Vec<BlockDone> = self
            .blocks
            .iter()
            .map(|b| b.done().expect("result() after the run finished"))
            .collect();
        let compressed_bits = blocks.iter().map(|b| b.bits).sum();
        let spec_stats = self.cfg.speculates().then(|| self.mgr.stats());
        let output = self.cfg.collect_output.then(|| {
            let lengths = self
                .committed_tree
                .as_ref()
                .expect("collect_output retains the committed tree")
                .lengths
                .clone();
            (self.stream, compressed_bits, lengths)
        });
        PipelineResult {
            blocks,
            compressed_bits,
            src_bytes: self.src_bytes,
            committed_version: self.committed_version,
            spec_stats,
            output,
            alloc_stats: AllocStats {
                heap_allocs: self.encode_allocs.load(Ordering::Relaxed),
            },
        }
    }

    // ------------------------------------------------------------------
    // Checkpointing
    // ------------------------------------------------------------------

    /// Advance the checkpoint plane after a block commits: append the
    /// committed prefix's new blocks to the journal when the cadence is
    /// due, the halt block is reached, the last block commits, or the
    /// degradation machine sits at its paused level, which demands eager
    /// durability; a halt or the finish then trims the file. Disk failures are
    /// absorbed — the live state still serves halt and resume, and a
    /// stopped journal only widens the at-risk window.
    fn advance_checkpoint(&mut self) {
        if self.halted.is_some() {
            // The "kill" already happened: freeze the durable state at the
            // halt prefix so a resume replays from there, even though the
            // in-flight commit drain may finalize a few more blocks.
            return;
        }
        let (Some(mut ck), Some(cc)) = (self.ckpt.take(), &self.cfg.checkpoint) else {
            return;
        };
        let prefix = self.prefix;
        let halt = cc.halt_at_block.is_some_and(|h| h > 0 && prefix >= h);
        let due = cc.every_blocks > 0 && prefix >= ck.last_written + cc.every_blocks;
        // The final record makes the journal the compressed file; an empty
        // input's is the header alone.
        let finished = prefix == self.blocks.len();
        let fresh = prefix > ck.last_written || self.blocks.is_empty();
        let eager = self.mgr.level() == Some(Level::Paused);
        if fresh && (halt || eager || due || finished) {
            let lineage = |i: usize| {
                let d = self.blocks[i].done().expect("prefix committed");
                [d.arrival, d.encoded_at, d.bits]
            };
            let head = || self.snapshot_at(0);
            let _ = ck.journal.write(head, prefix, lineage, &self.stream);
            ck.last_written = prefix;
        }
        if halt || finished {
            let _ = ck.journal.trim();
        }
        if halt {
            self.halted = Some(prefix);
        }
        self.ckpt = Some(ck);
    }

    /// The committed-prefix snapshot at prefix `k` from the live state.
    fn snapshot_at(&self, k: usize) -> StreamSnapshot {
        let per = |f: fn(BlockDone) -> u64| -> Vec<u64> {
            self.blocks[..k]
                .iter()
                .map(|b| f(b.done().expect("prefix committed")))
                .collect()
        };
        // The prefix is the front of the stream, up to where block `k`
        // starts. Blocks past the prefix may be in the stream already, and
        // one of them can share the prefix's last byte: cut, then clear.
        let bits = per(|d| d.bits);
        let stream_bit_len: u64 = bits.iter().sum();
        let whole = (stream_bit_len.div_ceil(8) as usize).min(self.stream.len());
        let mut stream_bytes = self.stream[..whole].to_vec();
        set_bit_len(&mut stream_bytes, stream_bit_len);
        StreamSnapshot {
            config_digest: self.cfg.digest(),
            input_digest: self.input_digest,
            src_len: self.src_bytes as u64,
            block_bytes: self.cfg.block_bytes as u64,
            prefix: k as u64,
            cadence: self.cfg.checkpoint.as_ref().map_or(0, |c| c.every_blocks) as u64,
            arrivals: per(|d| d.arrival),
            encoded_at: per(|d| d.encoded_at),
            bits,
            code_lengths: self
                .committed_tree
                .as_ref()
                .map(|t| t.lengths.lengths().to_vec())
                .unwrap_or_default(),
            committed_version: u64::from(self.committed_version.unwrap_or(0)),
            stream_bytes,
            stream_bit_len,
        }
    }

    // ------------------------------------------------------------------
    // Spawning helpers
    // ------------------------------------------------------------------

    /// The chunks a batch's blocks are counted in, given as the batch's
    /// block indices (ascending, none counted yet): when the batch holds at
    /// least one whole reduce group per worker, each whole group — marked
    /// coarse — cut at `max_bytes`; one block each otherwise.
    fn chunk_batch(
        &mut self,
        fresh: &[usize],
        workers: usize,
        max_bytes: Option<usize>,
    ) -> Vec<Range<usize>> {
        let (ratio, n_blocks) = (self.cfg.reduce_ratio, self.blocks.len());
        // Ascending and duplicate-free: a group is whole when its run of
        // consecutive blocks is as long as the group.
        let len = |g: usize| ((g + 1) * ratio).min(n_blocks) - g * ratio;
        let whole: Vec<usize> = fresh
            .chunk_by(|&a, &b| b == a + 1 && a / ratio == b / ratio)
            .filter(|run| run.len() == len(run[0] / ratio))
            .map(|run| run[0] / ratio)
            .collect();
        if whole.len() >= workers.max(1) {
            for g in whole {
                self.groups[g].coarse = true;
            }
        }
        let groups = &self.groups;
        self.chunks(
            fresh,
            |a, b| a / ratio == b / ratio && groups[a / ratio].coarse,
            max_bytes,
        )
    }

    /// `blocks` (ascending indices) in runs of consecutive blocks that
    /// `joined` keeps together, each cut where it would touch more than
    /// `max_bytes` input bytes (a block larger than that on its own).
    fn chunks(
        &self,
        blocks: &[usize],
        joined: impl Fn(usize, usize) -> bool,
        max_bytes: Option<usize>,
    ) -> Vec<Range<usize>> {
        let mut out = Vec::new();
        for run in blocks.chunk_by(|&a, &b| b == a + 1 && joined(a, b)) {
            let (mut lo, mut bytes) = (run[0], 0);
            for &b in run {
                let len = self.span(b..b + 1).len();
                if b > lo && max_bytes.is_some_and(|max| bytes + len > max) {
                    out.push(lo..b);
                    (lo, bytes) = (b, 0);
                }
                bytes += len;
            }
            out.push(lo..run[run.len() - 1] + 1);
        }
        out
    }

    /// Where the consecutive `blocks` lie in the run's input: the input cut
    /// every `block_bytes`, as [`crate::runner::schedule_blocks`] cuts it.
    fn span(&self, blocks: Range<usize>) -> Range<usize> {
        let bb = self.cfg.block_bytes;
        blocks.start * bb..(blocks.end * bb).min(self.src_bytes)
    }

    /// One `count` task over the chunk `blocks`: one slab, a row of counts
    /// per block, read from the input in place.
    fn spawn_count(&mut self, ctx: &mut dyn SchedCtx, blocks: Range<usize>) {
        let (span, bb) = (self.span(blocks.clone()), self.cfg.block_bytes);
        ctx.spawn(TaskSpec::regular(
            "count",
            0,
            span.len(),
            blocks.start as u64,
            move |task| {
                let data = &task.input()[span.clone()];
                let slab: Arc<[BlockCounts]> =
                    data.chunks(bb).map(Histogram::block_counts).collect();
                payload(slab)
            },
        ));
    }

    /// Spawn the next hop of the serial reduce chain once its group is
    /// counted. A group that arrived whole in a coarsened batch takes the
    /// counted coarse groups after it along, within the task-byte limit: one
    /// task folds them in order and returns every group's running total, so
    /// the basis events are those of one reduce per group.
    fn maybe_spawn_reduce(&mut self, ctx: &mut dyn SchedCtx) {
        // The chain is serial: the reduced groups are a prefix, and the
        // group after it is pending unless its reduce is out.
        let g = self
            .groups
            .partition_point(|g| matches!(g.reduce, Reduce::Reduced(_)));
        if self
            .groups
            .get(g)
            .is_none_or(|g| !matches!(g.reduce, Reduce::Pending))
        {
            return;
        }
        let (ratio, max) = (self.cfg.reduce_ratio, ctx.max_task_bytes());
        // Per-block counts travel as u32 rows of their count's slab (1 KB);
        // the running accumulator needs u64 (2 KB). At the Cell's 16:1
        // ratio one group is 18 KB — inside the 32 KB local-store task
        // limit, as the paper's configuration requires.
        let base = if g == 0 { 0 } else { 2048 };
        // A group goes once all its blocks are counted, so a hop that ends
        // inside one is cut back to the group before. In a resumed run
        // nothing goes: the snapshot's blocks hold no counts.
        let (lo, hi) = (g * ratio, self.hop(g * ratio, ratio, base, max));
        let hi = if hi == self.blocks.len() {
            hi
        } else {
            hi / ratio * ratio
        };
        if hi == lo {
            return;
        }
        let groups: Vec<_> = self.blocks[lo..hi].chunks(ratio).map(rows).collect();
        let prev = g.checked_sub(1).map(|p| self.total(p));
        for group in &mut self.groups[g..g + groups.len()] {
            group.reduce = Reduce::Reducing;
        }
        let bytes = base + (hi - lo) * 1024;
        ctx.spawn(TaskSpec::regular("reduce", 1, bytes, g as u64, move |_| {
            // Fused fold: base + Σ parts in a single output pass, instead of
            // cloning the accumulator and re-sweeping it once per part.
            let zero = Histogram::new();
            let mut totals: Vec<Arc<Histogram>> = Vec::with_capacity(groups.len());
            for group in &groups {
                let base = totals
                    .last()
                    .or(prev.as_ref())
                    .map_or(&zero, |t| t.as_ref());
                let h = Histogram::merged_with_counts(base, group.iter().map(Row::deref));
                totals.push(Arc::new(h));
            }
            payload(totals)
        }));
    }

    /// The running total through group `g`, which is reduced.
    fn total(&self, g: usize) -> Arc<Histogram> {
        match &self.groups[g].reduce {
            Reduce::Reduced(total) => total.clone(),
            _ => panic!("group {g} is not reduced"),
        }
    }

    fn spawn_tree(&mut self, ctx: &mut dyn SchedCtx) {
        let hist = self.total(self.groups.len() - 1);
        let basis = self.groups.len() as u64;
        ctx.spawn(TaskSpec::regular("tree", 2, 2048, basis, move |_| {
            payload(Arc::new(SpecTree::exact(&hist, basis)))
        }));
    }

    fn spawn_predictor(&mut self, ctx: &mut dyn SchedCtx, version: SpecVersion) {
        // Snapshot: the cumulative histogram of the basis event that asked
        // for the prediction, or the first block's counts, widened, for a
        // step-0 (pre-reduce) prediction.
        let basis = self.spec_basis;
        let hist = match basis {
            0 => {
                let first = self.blocks[0].counts().expect("first count");
                Arc::new(Histogram::merged_with_counts(&Histogram::new(), [&**first]))
            }
            b => self.total(b as usize - 1),
        };
        let kind = self.cfg.predictor;
        ctx.spawn(TaskSpec::predictor(
            "predict",
            2048,
            version,
            version as u64,
            move |_| payload(Arc::new(SpecTree::predict(kind, &hist, basis))),
        ));
    }

    /// The manager wants `version` checked at the basis event being
    /// dispatched: wait for that check's result, spawning the check first
    /// unless [`Self::eager_check`] already has.
    fn await_check(&mut self, ctx: &mut dyn SchedCtx, version: SpecVersion) {
        let basis = self.spec_basis;
        if !self
            .checks
            .iter()
            .any(|c| (c.version, c.basis) == (version, basis))
        {
            let (_, tree) = self
                .mgr
                .active()
                .expect("check only against an active speculation");
            let tree = tree.clone();
            self.spawn_check(ctx, version, tree, basis);
        }
        self.awaited_check = Some((version, basis));
    }

    /// Reduce result `basis` is in: if the live version is due a check
    /// against it, start the check now rather than when the manager gets
    /// to that basis event — it may still be waiting for an earlier verdict.
    fn eager_check(&mut self, ctx: &mut dyn SchedCtx, basis: u64) {
        let Some((Some(version), tree)) = self.path.as_ref().map(|p| (p.version, p.tree.clone()))
        else {
            return;
        };
        if self.cfg.verification.should_check(basis, tree.basis) {
            self.spawn_check(ctx, version, tree, basis);
        }
    }

    fn spawn_check(
        &mut self,
        ctx: &mut dyn SchedCtx,
        version: SpecVersion,
        spec_tree: Arc<SpecTree>,
        basis: u64,
    ) {
        let hist = self.total(basis as usize - 1);
        let tolerance = self.cfg.tolerance;
        let kind = self.cfg.predictor;
        self.checks.push(CheckSlot {
            version,
            basis,
            verdict: None,
        });
        ctx.spawn(TaskSpec::check("check", 4096, basis, move |_| {
            let candidate = Arc::new(SpecTree::predict(kind, &hist, basis));
            let delta = relative_cost_delta(&spec_tree.lengths, &candidate.lengths, &hist);
            payload((version, tolerance.judge(delta), candidate))
        }));
    }

    fn spawn_final_check(&mut self, ctx: &mut dyn SchedCtx, version: SpecVersion) {
        let (_, tree) = self
            .mgr
            .pending_final()
            .expect("final check needs a pending value");
        let spec_tree = tree.clone();
        let final_tree = self.final_tree.as_ref().expect("final tree built").clone();
        let hist = self.total(self.groups.len() - 1);
        let tolerance = self.cfg.tolerance;
        ctx.spawn(TaskSpec::check(
            "final-check",
            4096,
            version as u64,
            move |_| {
                let delta = relative_cost_delta(&spec_tree.lengths, &final_tree.lengths, &hist);
                payload((version, tolerance.judge(delta)))
            },
        ));
    }

    /// The end of the next hop of a serial chain from block `lo`, in units
    /// of `unit` blocks: the counted blocks of the first unit and, when
    /// those are coarse, the counted coarse units after them, while the task
    /// stays within the task-byte limit at `base` bytes plus a 1 KB row of
    /// counts per block. It looks at the units it takes and the one after
    /// them, never back to block 0.
    fn hop(&self, lo: usize, unit: usize, base: usize, max: Option<usize>) -> usize {
        let ratio = self.cfg.reduce_ratio;
        let next = |from: usize| {
            let unit = &self.blocks[from..(from + unit).min(self.blocks.len())];
            from + unit.iter().take_while(|b| b.counts().is_some()).count()
        };
        let coarse =
            |blocks: Range<usize>| blocks.into_iter().all(|i| self.groups[i / ratio].coarse);
        let mut hi = next(lo);
        if hi > lo && coarse(lo..hi) {
            while next(hi) > hi
                && coarse(hi..next(hi))
                && max.is_none_or(|max| base + (next(hi) - lo) * 1024 <= max)
            {
                hi = next(hi);
            }
        }
        hi
    }

    /// Advance the path's serial offset chain: spawn the next offset task if
    /// its group of counted blocks is available. Offsets chain serially;
    /// the next one is spawned when this one completes. Coarse blocks take
    /// the counted coarse groups of `offset_fanout` blocks after them
    /// along, as the reduce chain does.
    fn pump_path(&mut self, ctx: &mut dyn SchedCtx) {
        let (version, table, lo) = match &self.path {
            Some(path) if !path.offset_inflight => {
                (path.version, path.tree.clone(), path.chain.offsets().len())
            }
            _ => return,
        };
        let hi = self.hop(lo, self.cfg.offset_fanout, 0, ctx.max_task_bytes());
        if hi == lo {
            return;
        }
        let group = rows(&self.blocks[lo..hi]);
        let bytes = group.len() * 1024;
        let body = move |_: &tvs_sre::TaskCtx| {
            let lens: Vec<u64> = group
                .iter()
                .map(|r| {
                    table
                        .table
                        .encoded_bits_u32(r)
                        .expect("covering/exact table encodes all")
                })
                .collect();
            payload((lo, lens))
        };
        let task = match version {
            Some(v) => TaskSpec::speculative("offset", 3, bytes, v, lo as u64, body),
            None => TaskSpec::regular("offset", 3, bytes, lo as u64, body),
        };
        if ctx.spawn(task).is_some() {
            self.path.as_mut().expect("path still live").offset_inflight = true;
        }
    }

    /// Spawn the encode tasks of `blocks`, whose offsets the path's chain
    /// holds: one task per chunk ∩ group of `offset_fanout` blocks, its
    /// blocks encoded back to back after the lead the first one's offset
    /// asks for, into one buffer of the size the offsets give.
    fn spawn_encodes(&self, ctx: &mut dyn SchedCtx, blocks: Range<usize>) {
        let (ratio, fanout) = (self.cfg.reduce_ratio, self.cfg.offset_fanout);
        let (states, groups) = (&self.blocks, &self.groups);
        let path = self.path.as_ref().expect("encodes for a live path");
        let at = |i: usize| chain_at(&path.chain, i);
        // Only the re-cover of a lost committed version meets blocks that
        // are already out (see `on_version_lost`).
        let todo: Vec<usize> = blocks
            .clone()
            .filter(|&i| states[i].done().is_none())
            .collect();
        let joined = |a: usize, b: usize| {
            a / ratio == b / ratio
                && groups[a / ratio].coarse
                && !(b - blocks.start).is_multiple_of(fanout)
        };
        let bb = self.cfg.block_bytes;
        for blocks in self.chunks(&todo, joined, ctx.max_task_bytes()) {
            let (lo, hi) = (blocks.start, blocks.end);
            let span = self.span(blocks);
            let bytes = span.len();
            let (lead, bits) = ((at(lo) % 8) as u8, at(hi) - at(lo));
            let (table, allocs) = (path.tree.clone(), self.encode_allocs.clone());
            let faults = self.faults.clone();
            let versioned = path.version.is_some();
            let body = move |task: &tvs_sre::TaskCtx| {
                // Only a versioned task's abort flag means its output will
                // be discarded: stop at the next block boundary then.
                let stop = || versioned && task.aborted();
                allocs.fetch_add(1, Ordering::Relaxed);
                let blocks = task.input()[span.clone()].chunks(bb);
                let n_blocks = blocks.len();
                let (mut run, n) = encode_blocks_at(blocks, &table.table, lead, bits, stop)
                    .expect("covering/exact table encodes all bytes");
                if n == n_blocks {
                    corrupt_run(&faults, &mut run);
                }
                payload((lo, run, n))
            };
            let task = match path.version {
                Some(v) => TaskSpec::speculative("encode", 4, bytes, v, lo as u64, body),
                None => TaskSpec::regular("encode", 4, bytes, lo as u64, body),
            };
            ctx.spawn(task);
        }
    }

    /// A task of `version` was lost for good — it faulted, or its replica
    /// votes never agreed — and the caller (executor or replication plane)
    /// aborts the version right after this callback. A live version is
    /// rolled back through the manager. The *committed* one has nothing to
    /// roll back to: its delivered blocks are final, and the abort is about
    /// to discard every task it still has out, so the blocks it has not
    /// delivered are encoded again by tasks that carry no version — with
    /// the same tree at the same offsets: the natural path that takes over
    /// keeps the lost path's chain and goes on from its end.
    fn on_version_lost(&mut self, ctx: &mut dyn SchedCtx, version: SpecVersion) {
        if self.committed_version != Some(version) {
            self.dispatch(ctx, move |mgr, out| {
                mgr.on_external_abort_into(version, out)
            });
            // If that was the pending predictor, its verdict is in.
            self.pump_speculation(ctx);
        } else if let Some(lost) = self.path.take_if(|p| p.version == Some(version)) {
            let covered = lost.chain.offsets().len();
            self.path = Some(Path {
                version: None,
                offset_inflight: false,
                ..lost
            });
            self.spawn_encodes(ctx, self.prefix..covered);
            self.pump_path(ctx);
        }
    }

    /// Encode the stream along a new path: `version`'s, or the natural one.
    fn start_path(
        &mut self,
        ctx: &mut dyn SchedCtx,
        version: Option<SpecVersion>,
        tree: Arc<SpecTree>,
    ) {
        self.path = Some(Path::new(version, tree));
        self.pump_path(ctx);
    }

    /// The chunk from block `lo` crosses the side-effect barrier: its bits
    /// go into the committed stream, and its blocks are committed one at a
    /// time — each once; a second output for a block would be a wiring
    /// bug, and panics — with the prefix and the checkpoint plane advanced
    /// after each. Nothing that is not final gets here, so the stream never
    /// has to be undone.
    fn finalize_block(&mut self, lo: usize, out: EncodeOut) {
        if self.cfg.collect_output || self.ckpt.is_some() {
            place(&mut self.stream, out.bit_off, &out.run);
        }
        if self.rec.is_enabled() {
            let allocs = self.encode_allocs.load(Ordering::Relaxed);
            self.rec.gauge_set(Gauge::AllocHeap, allocs);
        }
        for (idx, bits) in (lo..).zip(out.bits) {
            self.blocks[idx].commit(out.finished, bits);
            let newly = self.blocks[self.prefix..]
                .iter()
                .take_while(|b| b.done().is_some());
            self.prefix += newly.count();
            self.advance_checkpoint();
        }
    }

    // ------------------------------------------------------------------
    // Speculation action handling
    // ------------------------------------------------------------------

    /// Run `fill` against the manager with the recycled action scratch,
    /// then execute whatever actions it produced. The scratch's capacity
    /// survives across events, so the control path stops allocating once
    /// it has seen its largest action burst.
    fn dispatch(
        &mut self,
        ctx: &mut dyn SchedCtx,
        fill: impl FnOnce(&mut SpeculationManager<Arc<SpecTree>>, &mut Vec<Action>),
    ) {
        let mut actions = std::mem::take(&mut self.actions_scratch);
        fill(&mut self.mgr, &mut actions);
        self.handle_actions(ctx, &mut actions);
        self.actions_scratch = actions;
    }

    /// Queue a manager input and deliver whatever is deliverable.
    fn speculate(&mut self, ctx: &mut dyn SchedCtx, ev: SpecEvent) {
        self.spec_events.push_back(ev);
        self.pump_speculation(ctx);
    }

    /// Deliver the awaited check result if it is in, then queued manager
    /// inputs, oldest first, until one of them leaves a verdict outstanding
    /// (it asked for a predictor, or for a check that is not back yet).
    /// Called again whenever a verdict may have come in.
    fn pump_speculation(&mut self, ctx: &mut dyn SchedCtx) {
        loop {
            if let Some((version, basis)) = self.awaited_check {
                let Some(i) = self
                    .checks
                    .iter()
                    .position(|c| (c.version, c.basis) == (version, basis) && c.verdict.is_some())
                else {
                    break;
                };
                let (result, candidate) = self.checks.swap_remove(i).verdict.expect("is_some");
                self.awaited_check = None;
                self.dispatch(ctx, move |mgr, out| {
                    mgr.on_check_result_into(version, result, Some((candidate, basis)), out)
                });
            } else if self.mgr.awaiting_prediction() {
                break;
            } else {
                match self.spec_events.pop_front() {
                    Some(SpecEvent::Basis(basis)) => {
                        self.spec_basis = basis;
                        self.dispatch(ctx, move |mgr, out| mgr.on_basis_into(basis, out));
                    }
                    Some(SpecEvent::Final) => {
                        self.dispatch(ctx, |mgr, out| mgr.on_final_into(out));
                    }
                    None => break,
                }
            }
        }
    }

    fn handle_actions(&mut self, ctx: &mut dyn SchedCtx, actions: &mut Vec<Action>) {
        for a in actions.drain(..) {
            match a {
                Action::StartPrediction { version } => self.spawn_predictor(ctx, version),
                Action::SpawnCheck { version } => self.await_check(ctx, version),
                Action::Rollback { version } => {
                    ctx.abort_version(version);
                    self.buffer.abort(version);
                    // Its checks are moot, the awaited one included.
                    self.checks.retain(|c| c.version != version);
                    self.awaited_check = self.awaited_check.filter(|&(v, _)| v != version);
                    if self.path.as_ref().and_then(|p| p.version) == Some(version) {
                        self.path = None;
                    }
                }
                Action::PromoteCandidate { version } => {
                    let (_, tree) = self.mgr.active().expect("promoted candidate is active");
                    self.start_path(ctx, Some(version), tree.clone());
                }
                Action::SpawnFinalCheck { version } => self.spawn_final_check(ctx, version),
                Action::Commit { version } => {
                    self.committed_version = Some(version);
                    self.committed_tree = self.path.as_ref().map(|p| p.tree.clone());
                    let mut ready = std::mem::take(&mut self.commit_scratch);
                    self.buffer.commit_into(version, &mut ready);
                    for (slot, out) in ready.drain(..) {
                        self.finalize_block(slot as usize, out);
                    }
                    self.commit_scratch = ready;
                }
                Action::RecomputeNaturally => {
                    let tree = self
                        .final_tree
                        .as_ref()
                        .expect("final tree available")
                        .clone();
                    self.committed_tree = Some(tree.clone());
                    self.start_path(ctx, None, tree);
                }
            }
        }
    }
}

/// The committed tree's code lengths a snapshot carries, checked.
fn committed_lengths(snap: &StreamSnapshot) -> Result<CodeLengths, ResumeError> {
    <[u8; 256]>::try_from(snap.code_lengths.as_slice())
        .ok()
        .and_then(|lengths| CodeLengths::from_lengths(lengths).ok())
        .ok_or(ResumeError::BadField("code_lengths"))
}

/// Why [`decompress`] could not restore a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompressError {
    /// The journal's header is unreadable, or a field is unusable.
    Journal(ResumeError),
    /// The journal holds `prefix` of its `n_blocks` blocks: it is the
    /// resume state of a run that did not finish, not a compressed file.
    Incomplete {
        /// Blocks the journal holds.
        prefix: u64,
        /// Blocks in the stream.
        n_blocks: u64,
    },
    /// The stream does not decode with the journal's code lengths.
    Decode(DecodeError),
    /// The stream decodes, but not to the input the journal was written
    /// from: its [`input_digest`](tvs_core::checkpoint::input_digest)
    /// differs from the header's.
    Digest,
}

impl std::fmt::Display for DecompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecompressError::Journal(e) => e.fmt(f),
            DecompressError::Incomplete { prefix, n_blocks } => {
                write!(f, "journal holds {prefix} of {n_blocks} blocks")
            }
            DecompressError::Decode(e) => write!(f, "stream does not decode: {e}"),
            DecompressError::Digest => write!(f, "stream decodes to other bytes than its input"),
        }
    }
}

impl std::error::Error for DecompressError {}

/// Restore the input from a finished run's checkpoint journal, which holds
/// the code lengths, every stream byte in order and the exact bit length.
/// Total: a damaged, cut or unfinished journal is an error, and no
/// allocation is sized by a header field the stream cannot back. The
/// output is checked against the input digest the header was bound to.
pub fn decompress(journal: &[u8]) -> Result<Vec<u8>, DecompressError> {
    let snap = StreamSnapshot::replay(journal)
        .map_err(DecompressError::Journal)?
        .snapshot;
    let (prefix, n_blocks) = (snap.prefix, snap.n_blocks());
    if prefix != n_blocks {
        return Err(DecompressError::Incomplete { prefix, n_blocks });
    }
    // Every input byte takes at least one bit of the stream.
    if snap.src_len > snap.stream_bit_len {
        return Err(DecompressError::Journal(ResumeError::BadField("src_len")));
    }
    let out = match snap.src_len {
        0 => Vec::new(),
        n => {
            let lengths = committed_lengths(&snap).map_err(DecompressError::Journal)?;
            let table = CodeTable::from_lengths(&lengths);
            decode_exact(
                &snap.stream_bytes,
                0,
                snap.stream_bit_len,
                n as usize,
                &table,
            )
            .map_err(DecompressError::Decode)?
        }
    };
    if tvs_core::checkpoint::input_digest(&out) != snap.input_digest {
        return Err(DecompressError::Digest);
    }
    Ok(out)
}

/// The counts of `blocks`, which are counted.
fn rows(blocks: &[Block]) -> Vec<Row> {
    blocks
        .iter()
        .map(|b| b.counts().expect("counted").clone())
        .collect()
}

/// Where block `i` starts per `chain`, or where the chain ends for the
/// block past its last.
fn chain_at(chain: &OffsetChain, i: usize) -> u64 {
    chain
        .offsets()
        .get(i)
        .copied()
        .unwrap_or_else(|| chain.total_bits())
}

/// Chaos: a silent data corruption flips bits in an encode's output
/// *after* a successful encode. Nothing panics and no tolerance check sees
/// the damage (the bit count is intact), so only replication-based
/// validation can catch it. The flipped byte is picked by the draw's
/// occurrence and avoids the zero-padded tail and a first byte that holds
/// lead bits, so the corruption always lands on meaningful bits; the xor
/// mask is occurrence-unique so two corrupted replicas of the same task
/// still disagree with each other.
fn corrupt_run(faults: &FaultInjector, run: &mut EncodedBlock) {
    let Some((FaultKind::CorruptValue, occ)) = faults.draw_with_occurrence(FaultSite::TaskOutput)
    else {
        return;
    };
    let skip = usize::from(run.lead > 0);
    let room = run.bytes.len().saturating_sub(1 + skip);
    if room > 0 {
        let pos = (occ as usize).wrapping_mul(0x9E37_79B9) % room;
        run.bytes[skip + pos] ^= ((occ % 255) + 1) as u8;
    }
}

/// Scramble a predicted tree for [`FaultSite::PredictedValue`] injection.
/// The multiset of code lengths is preserved — Kraft's inequality still
/// holds and every symbol that had a code keeps one, so downstream encode
/// tasks never fail outright — but the lengths are reassigned in *reverse*
/// across the coded symbols: the most frequent symbols inherit the longest
/// codes. Validation, not encodability, has to reject the value.
fn corrupt_tree(tree: &SpecTree) -> SpecTree {
    let mut len = *tree.lengths.lengths();
    let coded: Vec<usize> = (0..len.len()).filter(|&i| len[i] > 0).collect();
    for k in 0..coded.len() / 2 {
        len.swap(coded[k], coded[coded.len() - 1 - k]);
    }
    let lengths = CodeLengths::from_lengths(len).expect("permuted lengths preserve Kraft");
    SpecTree::new(lengths, tree.basis)
}

/// Digest one Huffman task output for replication-based validation
/// (FNV-1a over the payload's semantic content).
///
/// Covers every task the pipeline spawns, keyed by task name. An unknown
/// name or an unexpected payload type returns `None`, which the
/// replication plane treats as undigestible: the primary result is
/// delivered untouched and the flight is counted as degraded rather than
/// risking a bogus vote.
pub fn digest_output(name: &'static str, out: &dyn std::any::Any) -> Option<u64> {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    fn bytes(mut h: u64, bs: &[u8]) -> u64 {
        for &b in bs {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        h
    }
    fn word(h: u64, w: u64) -> u64 {
        bytes(h, &w.to_le_bytes())
    }
    fn check(h: u64, r: &CheckResult) -> u64 {
        word(word(h, r.valid as u64), r.delta.to_bits())
    }
    fn hist(h: u64, hist: &Histogram) -> u64 {
        hist.counts().iter().fold(h, |h, &c| word(h, c))
    }
    let h = FNV_OFFSET;
    match name {
        "count" => {
            let slab = out.downcast_ref::<Arc<[BlockCounts]>>()?;
            Some(slab.iter().flatten().fold(h, |h, &c| word(h, u64::from(c))))
        }
        "reduce" => {
            let hists = out.downcast_ref::<Vec<Arc<Histogram>>>()?;
            Some(hists.iter().fold(h, |h, x| hist(h, x)))
        }
        "tree" | "predict" => {
            let tree = out.downcast_ref::<Arc<SpecTree>>()?;
            Some(word(bytes(h, tree.lengths.lengths()), tree.basis))
        }
        "offset" => {
            let (lo, lens) = out.downcast_ref::<(usize, Vec<u64>)>()?;
            Some(lens.iter().fold(word(h, *lo as u64), |h, &l| word(h, l)))
        }
        "encode" => {
            let (lo, e, n) = out.downcast_ref::<(usize, EncodedBlock, usize)>()?;
            let h = word(
                word(bytes(word(h, *lo as u64), &e.bytes), e.bit_len),
                e.src_len as u64,
            );
            Some(word(word(h, u64::from(e.lead)), *n as u64))
        }
        "check" => {
            let (v, r, cand) = out.downcast_ref::<(SpecVersion, CheckResult, Arc<SpecTree>)>()?;
            let h = check(word(h, *v as u64), r);
            Some(word(bytes(h, cand.lengths.lengths()), cand.basis))
        }
        "final-check" => {
            let (v, r) = out.downcast_ref::<(SpecVersion, CheckResult)>()?;
            Some(check(word(h, *v as u64), r))
        }
        _ => None,
    }
}

impl Workload for HuffmanWorkload {
    fn on_start(&mut self, _ctx: &mut dyn SchedCtx) {
        // A run over an empty input is finished before it starts.
        if self.blocks.is_empty() {
            self.advance_checkpoint();
        }
    }

    fn on_input(&mut self, ctx: &mut dyn SchedCtx, block: InputBlock) {
        self.on_input_batch(ctx, vec![block]);
    }

    fn on_input_batch(&mut self, ctx: &mut dyn SchedCtx, batch: Vec<InputBlock>) {
        // A halted run spawns nothing further; a resumed run ignores
        // blocks the snapshot already committed.
        if self.halted.is_some() {
            return;
        }
        let mut fresh = Vec::with_capacity(batch.len());
        for block in batch {
            let idx = block.index;
            assert!(idx < self.blocks.len(), "unexpected block index {idx}");
            assert_eq!(
                block.bytes,
                self.span(idx..idx + 1),
                "block {idx} is cut elsewhere"
            );
            if self.blocks[idx].done().is_none() {
                self.blocks[idx] = Block::Arrived { at: block.arrival };
                fresh.push(idx);
            }
        }
        fresh.sort_unstable();
        for chunk in self.chunk_batch(&fresh, ctx.workers(), ctx.max_task_bytes()) {
            self.spawn_count(ctx, chunk);
        }
    }

    fn on_complete(&mut self, ctx: &mut dyn SchedCtx, done: Completion) {
        if self.halted.is_some() {
            // Drain in-flight completions without spawning successors so
            // the executor winds down at the halt point.
            return;
        }
        match done.name {
            "count" => {
                let lo = done.tag as usize;
                let slab = expect_payload::<Arc<[BlockCounts]>>(done.output, "Arc<[BlockCounts]>");
                for (i, block) in self.blocks[lo..lo + slab.len()].iter_mut().enumerate() {
                    let slab = slab.clone();
                    block.count(Row { slab, i });
                }
                // In a resumed run the reduce chain never starts (see
                // `resume`): the count only feeds the resumed path.
                self.maybe_spawn_reduce(ctx);
                // Step-0 speculation: predict from the very first block's
                // count, the moment it is in.
                if lo == 0 && self.cfg.speculates() && self.cfg.schedule.step == 0 {
                    self.speculate(ctx, SpecEvent::Basis(0));
                }
                // New counted blocks may unblock the path.
                self.pump_path(ctx);
            }
            "reduce" => {
                let totals =
                    expect_payload::<Vec<Arc<Histogram>>>(done.output, "Vec<Arc<Histogram>>");
                let n_groups = self.groups.len();
                for (g, total) in (done.tag as usize..).zip(totals) {
                    debug_assert!(matches!(self.groups[g].reduce, Reduce::Reducing));
                    self.groups[g].reduce = Reduce::Reduced(total);
                    if self.cfg.speculates() && g + 1 < n_groups {
                        let basis = g as u64 + 1;
                        self.eager_check(ctx, basis);
                        self.speculate(ctx, SpecEvent::Basis(basis));
                    }
                }
                if matches!(self.groups[n_groups - 1].reduce, Reduce::Reduced(_)) {
                    self.spawn_tree(ctx);
                } else {
                    self.maybe_spawn_reduce(ctx);
                }
            }
            "tree" => {
                let tree = expect_payload::<Arc<SpecTree>>(done.output, "Arc<SpecTree>");
                self.final_tree = Some(tree);
                if self.cfg.speculates() {
                    self.speculate(ctx, SpecEvent::Final);
                } else {
                    self.dispatch(ctx, |_, out| out.push(Action::RecomputeNaturally));
                }
            }
            "predict" => {
                let version = done.version.expect("predictor carries its version");
                let mut tree = expect_payload::<Arc<SpecTree>>(done.output, "Arc<SpecTree>");
                // Chaos: the predicted edge value may be corrupted between
                // the predictor's output and its install. The scrambled
                // tree is still a valid prefix code over the same symbols,
                // so the run proceeds and the tolerance checks must catch
                // the cost blow-up.
                if let Some(FaultKind::CorruptValue) = self.faults.draw(FaultSite::PredictedValue) {
                    tree = Arc::new(corrupt_tree(&tree));
                }
                if self.mgr.install_prediction(version, tree) {
                    let (_, tree) = self.mgr.active().expect("just installed");
                    self.start_path(ctx, Some(version), tree.clone());
                }
                self.pump_speculation(ctx);
            }
            "check" => {
                let (version, result, candidate) =
                    expect_payload::<(SpecVersion, CheckResult, Arc<SpecTree>)>(
                        done.output,
                        "(version, CheckResult, Arc<SpecTree>)",
                    );
                // Kept until the manager's turn comes to it; a check of a
                // version rolled back meanwhile has no slot any more.
                let basis = candidate.basis;
                if let Some(slot) = self
                    .checks
                    .iter_mut()
                    .find(|c| (c.version, c.basis) == (version, basis))
                {
                    slot.verdict = Some((result, candidate));
                }
                self.pump_speculation(ctx);
            }
            "final-check" => {
                let (version, result) = expect_payload::<(SpecVersion, CheckResult)>(
                    done.output,
                    "(version, CheckResult)",
                );
                self.dispatch(ctx, move |mgr, out| {
                    mgr.on_final_check_result_into(version, result, out)
                });
            }
            "offset" => {
                let (lo, lens) =
                    expect_payload::<(usize, Vec<u64>)>(done.output, "(usize, Vec<u64>)");
                // Stale offsets of rolled-back paths are already filtered by
                // version-abort; an offset for a *replaced* path is impossible
                // because replacement only happens after abort.
                let path = self.path.as_mut().expect("offset for a live path");
                debug_assert_eq!(
                    (path.version, path.chain.offsets().len()),
                    (done.version, lo)
                );
                path.offset_inflight = false;
                path.chain.extend(&lens);
                self.spawn_encodes(ctx, lo..lo + lens.len());
                self.pump_path(ctx);
            }
            "encode" => {
                let (lo, run, n) = expect_payload::<(usize, EncodedBlock, usize)>(
                    done.output,
                    "(usize, EncodedBlock, usize)",
                );
                // Completions of an aborted version never get here, so the
                // chunk's path — and the offsets it gave the encode — is
                // live, and the task ran to its last block.
                let path = self.path.as_ref().expect("encode for a live path");
                debug_assert_eq!(path.version, done.version);
                let at = |i: usize| chain_at(&path.chain, i);
                let bits: Vec<u64> = (lo..lo + n).map(|i| at(i + 1) - at(i)).collect();
                debug_assert_eq!(run.bit_len, at(lo + n) - at(lo));
                let out = EncodeOut {
                    run,
                    bit_off: at(lo),
                    bits,
                    finished: done.finished,
                };
                match done.version {
                    Some(v) if self.committed_version != Some(v) => {
                        self.buffer.push(v, lo as u64, out)
                    }
                    _ => self.finalize_block(lo, out),
                }
            }
            other => unreachable!("unknown completion '{other}'"),
        }
    }

    fn on_sdc(&mut self, ctx: &mut dyn SchedCtx, sdc: SdcNotice) {
        if sdc.unresolved {
            // The vote budget ran out without a majority. For a versioned
            // task the speculation is untrustworthy wholesale: abort it
            // through the manager so the regular rollback actions clear the
            // path and wait buffer (the natural path re-covers the blocks).
            if let Some(v) = sdc.version {
                self.on_version_lost(ctx, v);
            }
        } else {
            // First divergence on this task: a silent corruption was
            // *detected*. Feed the degradation window — sustained SDC
            // rates should degrade speculation just like sustained
            // mispredictions do.
            self.mgr.on_replica_result(false);
        }
    }

    fn on_fault(&mut self, ctx: &mut dyn SchedCtx, fault: FaultNotice) {
        // Executor-recovered faults (caught panics, watchdog cancels) feed
        // the degradation window; a faulted *speculative* task also
        // kills its version, so bring the manager's phase in line and let
        // the regular rollback actions clear the path and wait buffer.
        self.mgr.record_fault();
        if let Some(v) = fault.version {
            self.on_version_lost(ctx, v);
        }
    }

    fn is_finished(&self) -> bool {
        self.halted.is_some() || self.prefix == self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::HuffmanCost;
    use tvs_core::checkpoint::JOURNAL_FILE;
    use tvs_core::{
        CheckpointConfig, SpeculationSchedule, Tolerance, ValidationMode, VerificationPolicy,
    };
    use tvs_sre::exec::sim::SimConfig;
    use tvs_sre::exec::threaded::{self, ThreadedConfig};
    use tvs_sre::{x86_smp, DispatchPolicy, RunMetrics};

    /// Dark run of `wl` under `policy` on the simulator's model of
    /// `workers` x86 cores, which must complete (a test that injects
    /// faults arms the workload's own sites only).
    fn run<W: Workload>(
        wl: W,
        workers: usize,
        policy: DispatchPolicy,
        data: &[u8],
        inputs: Vec<InputBlock>,
    ) -> (W, RunMetrics) {
        let sim = SimConfig::new(x86_smp(workers));
        let ins = Instruments::default();
        tvs_sre::exec::sim::run(wl, &sim, policy, &HuffmanCost, data, inputs, &ins)
            .expect("sim run completes")
    }

    /// `data` cut into `block`-byte blocks, block `i` due at `i × gap`.
    fn blocks_of(data: &[u8], block: usize, gap: Time) -> Vec<InputBlock> {
        let arrival = tvs_iosim::Uniform {
            gap_us: gap,
            start_us: 0,
        };
        crate::runner::schedule_blocks(data.len(), block, &arrival).0
    }

    fn small_cfg(policy: DispatchPolicy) -> HuffmanConfig {
        HuffmanConfig {
            block_bytes: 1024,
            reduce_ratio: 4,
            offset_fanout: 4,
            policy,
            schedule: SpeculationSchedule::with_step(1),
            verification: VerificationPolicy::Full,
            tolerance: Tolerance::percent(1.0),
            predictor: Default::default(),
            collect_output: true,
            degrade: None,
            validation: ValidationMode::Tolerance,
            checkpoint: None,
        }
    }

    fn run_small(data: &[u8], cfg: HuffmanConfig) -> (PipelineResult, tvs_sre::RunMetrics) {
        let wl = HuffmanWorkload::new(cfg.clone(), data.len());
        let inputs = blocks_of(data, cfg.block_bytes, 5);
        let (wl, metrics) = run(wl, 4, cfg.policy, data, inputs);
        (wl.result(), metrics)
    }

    /// Stationary text over a realistically *rich* alphabet: rare symbols
    /// are genuinely rare, so the covering tree's escape reservation costs
    /// far less than the 1 % tolerance (on tiny uniform alphabets that
    /// inherent overhead alone would exceed it — see
    /// `CodeLengths::build_covering`).
    fn stationary_data(n: usize) -> Vec<u8> {
        let mut pattern = b"etaoin shrdlu ".repeat(10);
        pattern.extend_from_slice(b"qzxjkvbw,.!?");
        (0..n).map(|i| pattern[i % pattern.len()]).collect()
    }

    fn decode_output(res: &PipelineResult, expected: &[u8]) {
        let (bytes, bits, lengths) = res.output.as_ref().expect("collected");
        let table = CodeTable::from_lengths(lengths);
        let got =
            tvs_huffman::decode_exact(bytes, 0, *bits, expected.len(), &table).expect("decodes");
        assert_eq!(got, expected, "committed stream must decode to the input");
    }

    #[test]
    fn non_speculative_run_matches_serial() {
        let data = stationary_data(16 * 1024);
        let (res, m) = run_small(&data, small_cfg(DispatchPolicy::NonSpeculative));
        assert_eq!(res.blocks.len(), 16);
        assert_eq!(res.committed_version, None);
        decode_output(&res, &data);
        // The non-speculative tree is exact, so size matches serial.
        let serial = tvs_huffman::serial_encode(&data).unwrap();
        assert_eq!(res.compressed_bits, serial.bit_len);
        assert_eq!(m.rollbacks, 0);
        assert_eq!(m.tasks_discarded, 0);
    }

    #[test]
    fn speculative_commit_on_stationary_data() {
        // Long enough that reduces keep arriving after the prediction
        // installs, so intermediate checks actually run.
        let data = stationary_data(64 * 1024);
        let (res, m) = run_small(&data, small_cfg(DispatchPolicy::Balanced));
        assert!(
            res.committed_version.is_some(),
            "stationary data must commit"
        );
        assert_eq!(m.rollbacks, 0, "stationary data must not roll back");
        decode_output(&res, &data);
        let s = res.spec_stats.unwrap();
        assert_eq!(s.predictions, 1);
        assert!(s.checks_passed > 0);
        // Tolerance: compression within 1% of optimal.
        let serial = tvs_huffman::serial_encode(&data).unwrap();
        let excess = res.compressed_bits as f64 / serial.bit_len as f64 - 1.0;
        assert!(excess <= 0.010001, "committed stream {excess} over optimal");
    }

    #[test]
    fn speculation_reduces_latency_and_makespan() {
        let data = stationary_data(64 * 1024);
        let (nonspec, mn) = run_small(&data, small_cfg(DispatchPolicy::NonSpeculative));
        let (spec, ms) = run_small(&data, small_cfg(DispatchPolicy::Balanced));
        assert!(
            spec.mean_latency() < nonspec.mean_latency(),
            "speculation should cut latency: {} vs {}",
            spec.mean_latency(),
            nonspec.mean_latency()
        );
        assert!(
            ms.makespan < mn.makespan,
            "speculation should cut completion time: {} vs {}",
            ms.makespan,
            mn.makespan
        );
    }

    #[test]
    fn drifting_data_rolls_back_and_still_decodes() {
        // First half 'a'-heavy, second half high bytes: early trees fail.
        let mut data = vec![b'a'; 8 * 1024];
        data.extend((0..8 * 1024u32).map(|i| 180 + (i % 60) as u8));
        let (res, m) = run_small(&data, small_cfg(DispatchPolicy::Balanced));
        assert!(m.rollbacks > 0, "drifting data must roll back");
        decode_output(&res, &data);
        let s = res.spec_stats.unwrap();
        assert!(s.checks_failed > 0);
    }

    #[test]
    fn zero_tolerance_falls_back_to_natural_path() {
        // With zero tolerance and drifting data, even the final check
        // fails; the natural path must produce the (optimal) output.
        let mut cfg = small_cfg(DispatchPolicy::Balanced);
        cfg.tolerance = Tolerance { margin: 0.0 };
        let mut data = vec![b'x'; 8 * 1024];
        data.extend((0..8 * 1024u32).map(|i| (i % 251) as u8));
        let (res, _m) = run_small(&data, cfg);
        assert_eq!(
            res.committed_version, None,
            "zero tolerance must reject speculation"
        );
        decode_output(&res, &data);
        let serial = tvs_huffman::serial_encode(&data).unwrap();
        assert_eq!(
            res.compressed_bits, serial.bit_len,
            "natural path is optimal"
        );
    }

    #[test]
    fn breaker_trips_on_sustained_misprediction_and_run_completes() {
        // Zero tolerance + drifting data = 100 % misprediction: every
        // check fails and every promoted candidate is equally doomed. The
        // run must degrade to the suspended level (no further predictions)
        // and the natural path must still deliver a decodable stream.
        let mut cfg = small_cfg(DispatchPolicy::Aggressive);
        cfg.tolerance = Tolerance { margin: 0.0 };
        cfg.degrade = Some(tvs_core::DegradeConfig {
            window: 4,
            trip_ratio: 0.5,
            clean_windows: 2,
            cooldown: 1_000, // longer than the run: stays suspended
        });
        // Continuously drifting input: every block shifts the byte
        // distribution, so any tree predicted from a prefix is already
        // wrong by the time a check compares it (margin 0).
        let data: Vec<u8> = (0..32 * 1024usize)
            .map(|i| ((i / 1024) * 7 + i % 13) as u8)
            .collect();
        // Slow arrivals: checks resolve while their version is active,
        // instead of going stale behind an early-finished reduce chain.
        let wl = HuffmanWorkload::new(cfg.clone(), data.len());
        let inputs = blocks_of(&data, cfg.block_bytes, 100);
        let (wl, m) = run(wl, 4, cfg.policy, &data, inputs);
        let res = wl.result();
        assert!(m.rollbacks >= 2, "zero tolerance must roll back: {m:?}");
        let s = res.spec_stats.unwrap();
        assert!(
            s.steps_down >= 2 && s.steps_up == 0,
            "sustained misprediction must suspend speculation: {s:?}"
        );
        assert_eq!(
            res.committed_version, None,
            "suspended run must fall back to the natural path"
        );
        decode_output(&res, &data);
        let serial = tvs_huffman::serial_encode(&data).unwrap();
        assert_eq!(
            res.compressed_bits, serial.bit_len,
            "natural path is optimal"
        );
    }

    #[test]
    fn corrupted_prediction_is_caught_by_validation() {
        // Corrupt every predicted tree: stationary data that would commit
        // cleanly must now roll back (validation catches the scrambled
        // value) yet still finish with a decodable stream.
        let data = stationary_data(64 * 1024);
        let cfg = small_cfg(DispatchPolicy::Balanced);
        let faults = FaultInjector::new(tvs_sre::FaultPlan::new(11).with_rule(
            FaultSite::PredictedValue,
            FaultKind::CorruptValue,
            1.0,
        ));
        let wl =
            HuffmanWorkload::instrumented(cfg.clone(), data.len(), 0, &Instruments::faulty(faults));
        let inputs = blocks_of(&data, cfg.block_bytes, 5);
        let res = run(wl, 4, cfg.policy, &data, inputs).0.result();
        let s = res.spec_stats.unwrap();
        assert!(
            s.checks_failed > 0 || res.committed_version.is_none(),
            "validation must reject corrupted trees: {s:?}"
        );
        decode_output(&res, &data);
    }

    /// Loses one task of a version the way the replication plane (replica
    /// votes that never agree) or an executor (a faulted body) does — the
    /// notice, then the abort — once, after the first completion at which
    /// `when` names a version.
    struct LoseVersion<F> {
        inner: HuffmanWorkload,
        when: F,
        as_fault: bool,
        lost: Option<SpecVersion>,
    }

    impl<F: FnMut(&HuffmanWorkload) -> Option<SpecVersion>> Workload for LoseVersion<F> {
        fn on_input(&mut self, ctx: &mut dyn SchedCtx, block: InputBlock) {
            self.inner.on_input(ctx, block);
        }

        fn on_input_batch(&mut self, ctx: &mut dyn SchedCtx, batch: Vec<InputBlock>) {
            self.inner.on_input_batch(ctx, batch);
        }

        fn on_complete(&mut self, ctx: &mut dyn SchedCtx, done: Completion) {
            let (id, name, tag) = (done.id, done.name, done.tag);
            self.inner.on_complete(ctx, done);
            if self.lost.is_some() {
                return;
            }
            let Some(v) = (self.when)(&self.inner) else {
                return;
            };
            self.lost = Some(v);
            let version = Some(v);
            if self.as_fault {
                let attempt = 0;
                self.inner.on_fault(
                    ctx,
                    FaultNotice {
                        id,
                        name,
                        version,
                        tag,
                        attempt,
                    },
                );
            } else {
                let unresolved = true;
                self.inner.on_sdc(
                    ctx,
                    SdcNotice {
                        id,
                        name,
                        version,
                        unresolved,
                    },
                );
            }
            ctx.abort_version(v);
        }

        fn is_finished(&self) -> bool {
            self.inner.is_finished()
        }
    }

    /// The committed version, while it still owes blocks.
    fn committed_with_blocks_out(w: &HuffmanWorkload) -> Option<SpecVersion> {
        w.committed_version.filter(|_| w.prefix < w.blocks.len())
    }

    /// The version under its final check.
    fn under_final_check(w: &HuffmanWorkload) -> Option<SpecVersion> {
        w.mgr.pending_final().map(|(v, _)| v)
    }

    /// Runs `data` with one loss injected at `when`: on the simulator
    /// (deterministic, everything at t = 0) and on two real workers fed a
    /// block every 10 µs, where a run that strands its blocks would hang —
    /// hence the timeout. (Fed at once, real workers encode the whole
    /// input before the final check commits it: no loss point. Fed every
    /// 20 µs, an idle 2-vCPU box keeps up with the input, and the version
    /// rarely commits while blocks are out.)
    fn results_with_loss(
        data: &[u8],
        when: fn(&HuffmanWorkload) -> Option<SpecVersion>,
        as_fault: bool,
    ) -> Vec<PipelineResult> {
        let cfg = small_cfg(DispatchPolicy::Balanced);
        let lossy = || LoseVersion {
            inner: HuffmanWorkload::new(cfg.clone(), data.len()),
            when,
            as_fault,
            lost: None,
        };
        let (wl, _) = run(
            lossy(),
            4,
            cfg.policy,
            data,
            blocks_of(data, cfg.block_bytes, 0),
        );
        assert!(wl.lost.is_some(), "the loss point was reached");
        let mut results = vec![wl.inner.result()];
        // On real threads a run can be past the loss point before it gets
        // there (everything encoded by the time the version commits).
        let mut reached = 0;
        for _ in 0..20 {
            let inputs = blocks_of(data, cfg.block_bytes, 10);
            let threaded = ThreadedConfig::new(2);
            let (wl, policy) = (lossy(), cfg.policy);
            let (tx, rx) = std::sync::mpsc::channel();
            // The runner owns its input: a hung run must not hold a borrow.
            let input = data.to_vec();
            let runner = std::thread::spawn(move || {
                let ins = Instruments::default();
                let ran = threaded::run(wl, &threaded, policy, &input, inputs, &ins);
                let _ = tx.send(ran.expect("threaded run completes").0);
            });
            let wl = rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("the threaded run finishes instead of stranding blocks");
            runner.join().expect("the runner thread exits cleanly");
            reached += usize::from(wl.lost.is_some());
            results.push(wl.inner.result());
        }
        assert!(reached > 0, "no threaded run reached the loss point");
        results
    }

    #[test]
    fn a_task_lost_after_commit_re_covers_the_blocks_still_out() {
        // The abort that follows the notice discards every task the
        // committed version still has out; nothing else would ever encode
        // their blocks (parent: simulation deadlock, threaded hang).
        let data = stationary_data(64 * 1024);
        for as_fault in [false, true] {
            for res in results_with_loss(&data, committed_with_blocks_out, as_fault) {
                assert!(res.committed_version.is_some(), "commit is final");
                decode_output(&res, &data);
            }
        }
    }

    #[test]
    fn a_task_lost_under_the_final_check_falls_back_to_the_natural_path() {
        let data = stationary_data(64 * 1024);
        let serial = tvs_huffman::serial_encode(&data).unwrap();
        for as_fault in [false, true] {
            for res in results_with_loss(&data, under_final_check, as_fault) {
                assert_eq!(res.committed_version, None);
                assert_eq!(res.compressed_bits, serial.bit_len, "natural is optimal");
                decode_output(&res, &data);
            }
        }
    }

    #[test]
    fn nothing_is_placed_before_a_commit_and_nothing_of_an_aborted_version_ever() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // The early trees fail on the second half: a version is rolled
        // back with encoded blocks in the wait buffer.
        let mut data = vec![b'a'; 8 * 1024];
        data.extend((0..8 * 1024u32).map(|i| 180 + (i % 60) as u8));
        let cfg = small_cfg(DispatchPolicy::Balanced);
        let held_back = Arc::new(AtomicUsize::new(0));
        let watched = || {
            let held_back = held_back.clone();
            LoseVersion {
                inner: HuffmanWorkload::new(cfg.clone(), data.len()),
                when: move |w: &HuffmanWorkload| {
                    if w.path.as_ref().is_none_or(|p| p.version.is_some())
                        && w.committed_version.is_none()
                    {
                        assert!(
                            w.stream.is_empty() && w.blocks.iter().all(|b| b.done().is_none()),
                            "a block left the barrier before anything was committed"
                        );
                        held_back.fetch_max(w.buffer.len(), Ordering::Relaxed);
                    }
                    None
                },
                as_fault: false,
                lost: None,
            }
        };
        // What is in the stream at the end is the input under the committed
        // tree and nothing else: placement ORs, so a single bit of a
        // rolled-back version's block would show.
        let check = |res: PipelineResult| {
            let (bytes, bits, lengths) = res.output.expect("collected");
            let table = CodeTable::from_lengths(&lengths);
            let whole = tvs_huffman::encode_block(&data, &table).expect("covers the input");
            assert_eq!((bytes, bits), (whole.bytes, whole.bit_len));
        };
        let inputs = blocks_of(&data, cfg.block_bytes, 100);
        let (wl, m) = run(watched(), 4, cfg.policy, &data, inputs);
        assert!(m.rollbacks > 0, "drifting data must roll back");
        assert!(
            held_back.load(Ordering::Relaxed) > 0,
            "the wait buffer held blocks back"
        );
        check(wl.inner.result());
        for _ in 0..5 {
            let inputs = blocks_of(&data, cfg.block_bytes, 0);
            let threaded = ThreadedConfig::new(2);
            let ins = Instruments::default();
            let (wl, _) = threaded::run(watched(), &threaded, cfg.policy, &data, inputs, &ins)
                .expect("threaded run completes");
            check(wl.inner.result());
        }
    }

    #[test]
    fn a_snapshot_cuts_the_stream_inside_a_byte_that_later_blocks_share() {
        // One-byte blocks under a two-symbol table: one bit per block, so
        // eight blocks share a byte. Block 3 is out before blocks 0 and 1
        // — one chunk — make the prefix that is snapshotted.
        let data = b"abababab";
        let dir = std::env::temp_dir().join(format!("tvs-ckpt-{}-seam", std::process::id()));
        let mut cfg = small_cfg(DispatchPolicy::NonSpeculative);
        cfg.block_bytes = 1;
        cfg.checkpoint = Some(CheckpointConfig::new(2, &dir));
        let tree = Arc::new(SpecTree::exact(&Histogram::from_bytes(data), 2));
        let mut wl = HuffmanWorkload::new(cfg.clone(), data.len());
        wl.committed_tree = Some(tree.clone());
        for chunk in [3..4, 0..2] {
            let blocks: Vec<&[u8]> = chunk.clone().map(|i| &data[i..=i]).collect();
            let slab: Arc<[BlockCounts]> =
                blocks.iter().map(|b| Histogram::block_counts(b)).collect();
            for (i, block) in chunk.clone().enumerate() {
                let counts = Row {
                    slab: slab.clone(),
                    i,
                };
                wl.blocks[block] = Block::Counted { at: 0, counts };
            }
            let (lo, n) = (chunk.start, chunk.len());
            let (run, done) = encode_blocks_at(blocks, &tree.table, lo as u8, n as u64, || false)
                .expect("covered");
            assert_eq!(done, n);
            let out = EncodeOut {
                run,
                bit_off: lo as u64,
                bits: vec![1; n],
                finished: 1,
            };
            wl.finalize_block(lo, out);
        }
        assert_eq!(wl.stream, [0b0101_0000], "blocks 1 and 3 are 'b' = 1");
        let snap = wl.snapshot().expect("checkpointed");
        assert_eq!((snap.prefix, snap.stream_bit_len), (2, 2));
        assert_eq!(snap.stream_bytes, [0b0100_0000], "block 3 is not prefix");
        let on_disk = StreamSnapshot::load(&dir.join(JOURNAL_FILE));
        assert_eq!(on_disk, Ok(snap.clone()), "two blocks are a cadence");
        drop(wl);
        let _ = std::fs::remove_dir_all(&dir);

        cfg.checkpoint = None;
        let resumed =
            HuffmanWorkload::resume(cfg.clone(), data.len(), &snap, &Instruments::default())
                .expect("resumes");
        let inputs = blocks_of(data, 1, 1).split_off(2);
        let res = run(resumed, 4, cfg.policy, data, inputs).0.result();
        let whole = tvs_huffman::encode_block(data, &tree.table).unwrap();
        let (bytes, bits, _) = res.output.expect("collected");
        assert_eq!((bytes, bits), (whole.bytes, whole.bit_len));
    }

    #[test]
    fn a_chunk_encode_stops_at_the_next_block_boundary() {
        let data = stationary_data(4 * 1024);
        let tree = SpecTree::exact(&Histogram::from_bytes(&data), 1);
        let blocks: Vec<&[u8]> = data.chunks(1024).collect();
        let per: Vec<EncodedBlock> = blocks
            .iter()
            .map(|b| tvs_huffman::encode_block(b, &tree.table).expect("covered"))
            .collect();
        let bits = per.iter().map(|e| e.bit_len).sum();
        // The flag goes up while the second block is being encoded.
        let mut asked = 0;
        let stop = || {
            asked += 1;
            asked > 2
        };
        let (run, n) = encode_blocks_at(blocks, &tree.table, 3, bits, stop).expect("covered");
        assert_eq!(n, 2, "blocks 3 and 4 are left out");
        assert_eq!(
            tvs_huffman::concat_blocks([&run]),
            tvs_huffman::concat_blocks(&per[..2]),
            "what was encoded is whole"
        );
    }

    #[test]
    fn a_rollback_mid_chunk_discards_the_chunk_and_the_stream_is_unchanged() {
        // Drifting input, every block at once on two workers: blocks are
        // counted and encoded a reduce group of 4 at a time, and a failing
        // check rolls the first version back while its chunks are being
        // encoded. The simulator never materialises the body of a task
        // whose version died under it — the chunk's earliest stop.
        let mut data = vec![b'a'; 32 * 1024];
        data.extend((0..32 * 1024u32).map(|i| 180 + (i % 60) as u8));
        let cfg = small_cfg(DispatchPolicy::Balanced);
        let at_once = |workers| {
            let sim = SimConfig::new(x86_smp(workers));
            let rec = tvs_sre::Recorder::enabled(workers);
            let ins = Instruments::recorded(rec.clone());
            let wl = HuffmanWorkload::new(cfg.clone(), data.len());
            let inputs = blocks_of(&data, cfg.block_bytes, 0);
            let ran =
                tvs_sre::exec::sim::run(wl, &sim, cfg.policy, &HuffmanCost, &data, inputs, &ins);
            let (wl, m) = ran.expect("sim run completes");
            (wl, m, rec.drain().expect("enabled recorder drains").tasks())
        };
        let (chunked, m, spans) = at_once(2);
        assert!(m.rollbacks > 0, "drifting data must roll back");
        let encodes = || spans.iter().filter(|t| t.name == "encode");
        assert!(
            encodes().any(|t| t.discarded),
            "a rollback landed while a chunk was encoding"
        );
        assert!(encodes().count() < 2 * 64, "encodes run a chunk at a time");
        // The stream is the per-block run's (64 workers: fewer whole
        // groups than workers), and the input under the committed code.
        let chunked = chunked.result();
        let per_block = at_once(64).0.result();
        assert!(chunked.output == per_block.output);
        assert_eq!(chunked.spec_stats, per_block.spec_stats);
        let (bytes, bits, lengths) = chunked.output.expect("collected");
        let whole = tvs_huffman::encode_block(&data, &CodeTable::from_lengths(&lengths))
            .expect("the committed code covers the input");
        assert_eq!((bytes, bits), (whole.bytes, whole.bit_len));
    }

    /// Every block of a finished run is committed, and so holds no counts.
    fn assert_all_committed(wl: &HuffmanWorkload, what: &str) {
        let committed = |b: &Block| b.done().is_some() && b.counts().is_none();
        assert!(wl.blocks.iter().all(committed), "{what}");
    }

    #[test]
    fn an_encode_allocates_one_buffer_and_a_finished_run_keeps_nothing() {
        // 1 MiB in the paper's 4 KB blocks, all at once (a reduce group per
        // encode) and dribbling in (an encode per block): one exact-size
        // buffer per encode body that ran, none recycled. The simulator
        // runs every delivered body and no discarded one.
        let data = stationary_data(1 << 20);
        let mut drifting = vec![b'a'; 512 * 1024];
        drifting.extend((0..512 * 1024u32).map(|i| 180 + (i % 60) as u8));
        for (data, input) in [(&data, "stationary"), (&drifting, "drifting")] {
            for policy in [DispatchPolicy::NonSpeculative, DispatchPolicy::Balanced] {
                for gap in [0, 5] {
                    let cfg = HuffmanConfig {
                        block_bytes: 4096,
                        reduce_ratio: 16,
                        offset_fanout: 16,
                        ..small_cfg(policy)
                    };
                    let sim = SimConfig::new(x86_smp(2));
                    let rec = tvs_sre::Recorder::enabled(2);
                    let ins = Instruments::recorded(rec.clone());
                    let wl = HuffmanWorkload::new(cfg.clone(), data.len());
                    let inputs = blocks_of(data, cfg.block_bytes, gap);
                    let ran =
                        tvs_sre::exec::sim::run(wl, &sim, policy, &HuffmanCost, data, inputs, &ins);
                    let (wl, _) = ran.expect("sim run completes");
                    let spans = rec.drain().expect("enabled recorder drains").tasks();
                    let encodes = spans.iter().filter(|t| t.name == "encode");
                    let bodies = encodes.filter(|t| !t.discarded).count() as u64;
                    let what = format!("{input}, {policy:?}, gap {gap}");
                    assert_all_committed(&wl, &what);
                    let res = wl.result();
                    let allocs = AllocStats {
                        heap_allocs: bodies,
                    };
                    assert_eq!(res.alloc_stats, allocs, "{what}");
                    if policy == DispatchPolicy::NonSpeculative {
                        let per = if gap == 0 { 16 } else { 1 };
                        assert_eq!(bodies, 256 / per, "{what}: one encode per chunk");
                    }
                    decode_output(&res, data);
                }
            }
        }
    }

    #[test]
    fn every_policy_grain_rollback_and_resume_commits_every_block() {
        // Every block is committed, keeps no counts, and the stream decodes:
        // at either grain, on the natural path, on a committed version,
        // after a rollback, and in a resumed run.
        let stationary = stationary_data(64 * 1024);
        let mut drifting = vec![b'a'; 32 * 1024];
        drifting.extend((0..32 * 1024u32).map(|i| 180 + (i % 60) as u8));
        for (data, rolls_back) in [(&stationary, false), (&drifting, true)] {
            for (policy, gap) in [
                (DispatchPolicy::NonSpeculative, 5),
                (DispatchPolicy::Balanced, 5),
                (DispatchPolicy::Balanced, 0),
            ] {
                let cfg = small_cfg(policy);
                let wl = HuffmanWorkload::new(cfg.clone(), data.len());
                let (wl, m) = run(
                    wl,
                    2,
                    cfg.policy,
                    data,
                    blocks_of(data, cfg.block_bytes, gap),
                );
                let what = format!("{policy:?}, gap {gap}, rolls back: {rolls_back}");
                assert_eq!(m.rollbacks > 0, rolls_back && cfg.speculates(), "{what}");
                assert_all_committed(&wl, &what);
                decode_output(&wl.result(), data);
            }
        }
        // Killed inside a coarse group and resumed, fed every block again:
        // the snapshot's blocks are ignored.
        let data = &stationary;
        let dir = std::env::temp_dir().join(format!("tvs-ckpt-{}-released", std::process::id()));
        let mut cfg = small_cfg(DispatchPolicy::Balanced);
        cfg.checkpoint = Some(CheckpointConfig {
            every_blocks: 4,
            dir: dir.clone(),
            halt_at_block: Some(10),
        });
        let inputs = || blocks_of(data, cfg.block_bytes, 0);
        let wl = HuffmanWorkload::new(cfg.clone(), data.len());
        let (wl, _) = run(wl, 2, cfg.policy, data, inputs());
        let snap = wl.snapshot().filter(|_| wl.halted()).expect("halted");
        let _ = std::fs::remove_dir_all(&dir);
        assert!((10..64).contains(&snap.prefix), "{}", snap.prefix);
        cfg.checkpoint = None;
        let ins = Instruments::default();
        let wl = HuffmanWorkload::resume(cfg.clone(), data.len(), &snap, &ins).expect("resumes");
        let (wl, _) = run(wl, 2, cfg.policy, data, inputs());
        assert_all_committed(&wl, "resumed");
        decode_output(&wl.result(), data);
    }

    #[test]
    #[should_panic(expected = "a block is committed once, after its count")]
    fn a_committed_block_is_never_committed_again() {
        let data = stationary_data(4 * 1024);
        let cfg = small_cfg(DispatchPolicy::NonSpeculative);
        let wl = HuffmanWorkload::new(cfg.clone(), data.len());
        let (mut wl, _) = run(
            wl,
            2,
            cfg.policy,
            &data,
            blocks_of(&data, cfg.block_bytes, 5),
        );
        let out = EncodeOut {
            run: EncodedBlock::default(),
            bit_off: 0,
            bits: vec![0],
            finished: 1,
        };
        wl.finalize_block(2, out);
    }

    #[test]
    fn step_zero_speculates_from_first_block() {
        let data = stationary_data(16 * 1024);
        let mut cfg = small_cfg(DispatchPolicy::Aggressive);
        cfg.schedule = SpeculationSchedule::with_step(0);
        let (res, _m) = run_small(&data, cfg);
        assert!(res.committed_version.is_some());
        let s = res.spec_stats.unwrap();
        assert_eq!(s.predictions, 1);
        decode_output(&res, &data);
    }

    #[test]
    fn optimistic_verification_checks_only_at_final() {
        let data = stationary_data(32 * 1024);
        let mut cfg = small_cfg(DispatchPolicy::Balanced);
        cfg.verification = VerificationPolicy::Optimistic;
        let (res, _m) = run_small(&data, cfg);
        let s = res.spec_stats.unwrap();
        assert_eq!(s.checks, 0, "optimistic runs no intermediate checks");
        assert!(res.committed_version.is_some());
        decode_output(&res, &data);
    }

    #[test]
    fn single_block_input() {
        let data = vec![b'z'; 100];
        let mut cfg = small_cfg(DispatchPolicy::NonSpeculative);
        cfg.block_bytes = 1024;
        let (res, _m) = run_small(&data, cfg);
        assert_eq!(res.blocks.len(), 1);
        decode_output(&res, &data);
    }

    #[test]
    fn latencies_measured_from_arrival() {
        let data = stationary_data(8 * 1024);
        let cfg = small_cfg(DispatchPolicy::NonSpeculative);
        let (res, _) = run_small(&data, cfg);
        for (i, b) in res.blocks.iter().enumerate() {
            assert_eq!(b.arrival, i as Time * 5);
            assert!(b.encoded_at > b.arrival);
            assert_eq!(b.latency(), b.encoded_at - b.arrival);
        }
    }

    #[test]
    fn uneven_final_block() {
        let data = stationary_data(10 * 1024 + 123);
        let (res, _) = run_small(&data, small_cfg(DispatchPolicy::Balanced));
        assert_eq!(res.blocks.len(), 11);
        decode_output(&res, &data);
    }
}
