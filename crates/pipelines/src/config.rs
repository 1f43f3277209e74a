//! Huffman pipeline configuration.

use tvs_core::{
    CheckpointConfig, DegradeConfig, SpeculationSchedule, Tolerance, ValidationMode,
    VerificationPolicy,
};
use tvs_sre::DispatchPolicy;

/// Which data a speculative tree is built from, and how it covers byte
/// values that data has not seen. The checks' candidates are always built
/// from the prefix totals; `LaplaceSmoothing` is kept as an ablation (the
/// `ablations` bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PredictorKind {
    /// Escape-subtree construction: a weight-1 escape leaf expanded eight
    /// levels; near-optimal for seen symbols (the default; see
    /// `tvs_huffman::CodeLengths::build_covering`). It is built over the
    /// prefix totals, as the paper does, except for a run's first
    /// prediction of an input whose blocks are all due at one instant (an
    /// in-memory file, whose prefix is the worst sample the run could
    /// take): that one counts [`SPREAD_SAMPLE_BLOCKS`] blocks strewn evenly
    /// over the input, unless the input holds fewer than twice the
    /// prefix's blocks or the sample does not fit the platform's task-byte
    /// limit (the Cell's 32 KB local store).
    #[default]
    CoveringEscape,
    /// Add-one (Laplace) smoothing over all 256 symbols — simpler, but it
    /// distorts small-alphabet codes by up to 12.5 %. Always over the
    /// prefix totals.
    LaplaceSmoothing,
}

/// Blocks a spread-sample prediction (see [`PredictorKind::CoveringEscape`])
/// counts: 128 KiB of 4 KiB blocks, a quarter of the prefix a `disk_x86`
/// prediction reads. The predictor is on every in-memory run's critical
/// path, so the sample is kept small (EXPERIMENTS.md, "Spread prediction").
pub const SPREAD_SAMPLE_BLOCKS: usize = 32;

/// Block size used throughout the paper: "the source data is first broken
/// into 4KB blocks, each processed by a separate count task".
pub const BLOCK_BYTES: usize = 4096;

/// Configuration of one Huffman pipeline run.
#[derive(Debug, Clone)]
pub struct HuffmanConfig {
    /// Input block size in bytes (4096 in every paper experiment).
    pub block_bytes: usize,
    /// Reduce fan-in: histograms merged per reduce task (16:1 from disk,
    /// 8:1 from sockets; 16:1 on Cell in both cases).
    pub reduce_ratio: usize,
    /// Offset fan-out: encode tasks fed per offset task (64 on x86+disk,
    /// 16 on Cell, 8 from sockets).
    pub offset_fanout: usize,
    /// Dispatch policy (non-spec / conservative / aggressive / balanced).
    pub policy: DispatchPolicy,
    /// Speculation frequency: the Fig. 5 step size.
    pub schedule: SpeculationSchedule,
    /// Verification frequency: baseline / optimistic / full.
    pub verification: VerificationPolicy,
    /// Tolerance margin (1 % default; 2 %, 5 % in Fig. 9).
    pub tolerance: Tolerance,
    /// How speculative trees cover unseen symbols.
    pub predictor: PredictorKind,
    /// Keep the assembled output bitstream for correctness checking.
    pub collect_output: bool,
    /// Graceful degradation: sustained rollbacks, executor faults or SDC
    /// detections walk the run down full speculation → capped cascade
    /// depth → suspended → paused (checkpoint eagerly), and a cooldown
    /// probe walks it back up (`None` = never degrade, the paper's
    /// baseline behaviour).
    pub degrade: Option<DegradeConfig>,
    /// How task outputs are validated: the paper's tolerance checks only
    /// (the default), replication-based redundant execution, or both.
    pub validation: ValidationMode,
    /// Committed-prefix checkpointing: snapshot the finalized block prefix
    /// (stream bytes, histogram, code table, bit-IO carry) at this cadence
    /// so a killed run can resume byte-identically (`None` = never).
    pub checkpoint: Option<CheckpointConfig>,
}

impl HuffmanConfig {
    /// The paper's x86 + disk configuration with the given policy.
    pub fn disk_x86(policy: DispatchPolicy) -> Self {
        HuffmanConfig {
            block_bytes: BLOCK_BYTES,
            reduce_ratio: 16,
            offset_fanout: 64,
            policy,
            schedule: SpeculationSchedule::with_step(8),
            verification: VerificationPolicy::baseline(),
            tolerance: Tolerance::percent(1.0),
            predictor: PredictorKind::default(),
            collect_output: false,
            degrade: None,
            validation: ValidationMode::Tolerance,
            checkpoint: None,
        }
    }

    /// The paper's Cell + disk configuration ("due to the limited amount of
    /// local store on the Cell platform, 16:1 ratios are used there in both
    /// cases").
    pub fn disk_cell(policy: DispatchPolicy) -> Self {
        HuffmanConfig {
            reduce_ratio: 16,
            offset_fanout: 16,
            ..Self::disk_x86(policy)
        }
    }

    /// The paper's socket configuration ("both reduce and offset ratios go
    /// down to 8:1 in order to reduce average latency").
    pub fn socket_x86(policy: DispatchPolicy) -> Self {
        HuffmanConfig {
            reduce_ratio: 8,
            offset_fanout: 8,
            ..Self::disk_x86(policy)
        }
    }

    /// Whether this run speculates at all.
    pub fn speculates(&self) -> bool {
        self.policy.speculates()
    }

    /// Number of input blocks for `data_len` bytes.
    pub fn n_blocks(&self, data_len: usize) -> usize {
        data_len.div_ceil(self.block_bytes)
    }

    /// Number of reduce (basis) events for `data_len` bytes.
    pub fn n_groups(&self, data_len: usize) -> usize {
        self.n_blocks(data_len).div_ceil(self.reduce_ratio)
    }

    /// FNV-1a digest of every output-shaping parameter. A checkpoint
    /// snapshot records it so a resume attempt under a *different* shape
    /// (block size, ratios, tolerance, predictor, …) is rejected with
    /// [`tvs_core::ResumeError::InputMismatch`] instead of silently
    /// producing a stream that no longer matches the uninterrupted run.
    pub fn digest(&self) -> u64 {
        let s = format!(
            "{} {} {} {} {} {:?} {} {:?}",
            self.block_bytes,
            self.reduce_ratio,
            self.offset_fanout,
            self.policy.label(),
            self.schedule.step,
            self.verification,
            self.tolerance.margin.to_bits(),
            self.predictor,
        );
        tvs_core::checkpoint::fnv1a(s.as_bytes())
    }

    /// This configuration expressed through the paper's four-point
    /// programmer interface (§II-A). The Huffman workload instantiates its
    /// speculation engine from this plan.
    pub fn speculation_plan(&self) -> tvs_core::SpeculationPlan {
        tvs_core::SpeculationBuilder::new()
            .on_edge("global-histogram -> encoding-tree")
            .from_source(match self.predictor {
                PredictorKind::CoveringEscape => {
                    "a sample spread over an input due at once, else partial reduce outcomes (prefix histograms)"
                }
                PredictorKind::LaplaceSmoothing => "partial reduce outcomes (prefix histograms)",
            })
            .barrier_at("encoded-block store (wait buffer)")
            .validate_within(self.tolerance)
            .schedule(self.schedule)
            .verification(self.verification)
            .build()
            .expect("all four details are provided")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_presets() {
        let d = HuffmanConfig::disk_x86(DispatchPolicy::Balanced);
        assert_eq!((d.reduce_ratio, d.offset_fanout), (16, 64));
        let c = HuffmanConfig::disk_cell(DispatchPolicy::Balanced);
        assert_eq!((c.reduce_ratio, c.offset_fanout), (16, 16));
        let s = HuffmanConfig::socket_x86(DispatchPolicy::Balanced);
        assert_eq!((s.reduce_ratio, s.offset_fanout), (8, 8));
        assert_eq!(d.block_bytes, 4096);
        assert_eq!(d.tolerance, Tolerance::percent(1.0));
        assert_eq!(d.predictor, PredictorKind::CoveringEscape);
    }

    #[test]
    fn block_and_group_math() {
        let cfg = HuffmanConfig::disk_x86(DispatchPolicy::Balanced);
        assert_eq!(cfg.n_blocks(4 << 20), 1024);
        assert_eq!(cfg.n_groups(4 << 20), 64);
        assert_eq!(cfg.n_blocks(2 << 20), 512);
        assert_eq!(cfg.n_groups(2 << 20), 32);
        // Non-multiples round up.
        assert_eq!(cfg.n_blocks(4097), 2);
        assert_eq!(cfg.n_groups(4096 * 17), 2);
    }

    #[test]
    fn plan_reflects_the_configuration() {
        let mut cfg = HuffmanConfig::disk_x86(DispatchPolicy::Balanced);
        cfg.tolerance = Tolerance::percent(5.0);
        cfg.schedule = SpeculationSchedule::with_step(3);
        let plan = cfg.speculation_plan();
        assert_eq!(plan.tolerance, Tolerance::percent(5.0));
        assert_eq!(plan.schedule.step, 3);
        assert!(plan.edge.contains("encoding-tree"));
    }

    #[test]
    fn digest_tracks_output_shaping_fields_only() {
        let base = HuffmanConfig::disk_x86(DispatchPolicy::Balanced);
        let mut same = base.clone();
        same.collect_output = true;
        same.checkpoint = Some(CheckpointConfig::new(4, "/tmp/x"));
        same.degrade = Some(DegradeConfig::default());
        assert_eq!(
            base.digest(),
            same.digest(),
            "observability knobs must not invalidate snapshots"
        );
        let mut shifted = base.clone();
        shifted.block_bytes = 2048;
        assert_ne!(base.digest(), shifted.digest());
        let mut shifted = base.clone();
        shifted.tolerance = Tolerance::percent(5.0);
        assert_ne!(base.digest(), shifted.digest());
    }

    #[test]
    fn speculation_flag_follows_policy() {
        assert!(!HuffmanConfig::disk_x86(DispatchPolicy::NonSpeculative).speculates());
        assert!(HuffmanConfig::disk_x86(DispatchPolicy::Conservative).speculates());
    }
}
