//! Speculative k-means — the paper's other motivating workload class.
//!
//! "Iterative algorithms such as k-means and random-based optimization
//! heuristics such as simulated annealing are commonly used in large
//! computations, notably in image processing" (§II-A). The expensive final
//! phase — assigning every point of a large stream to its cluster — needs
//! the converged centroids, which emerge from a serial chain of Lloyd
//! iterations over a sample. Speculation releases the assignment phase
//! early with centroids from an early iterate, validated within an L2
//! tolerance, exactly like the filter example but with a genuinely
//! non-linear solver whose convergence rate depends on the data.
//!
//! Structure:
//!
//! * `iterate` tasks — serial Lloyd steps over a fixed training sample;
//! * `assign` tasks — data-parallel labelling of streamed point blocks
//!   (side-effect-free: they emit label histograms + distortion sums);
//! * speculation on the `centroids -> assign` edge via
//!   [`tvs_core::SpeculationManager`], wait-buffered at the output sink.

use std::sync::Arc;
use tvs_core::validate::Validator;
use tvs_core::{
    Action, CheckResult, ManagerStats, SpecVersion, SpeculationManager, SpeculationSchedule,
    Tolerance, VerificationPolicy, WaitBuffer,
};
use tvs_sre::task::{expect_payload, payload};
use tvs_sre::{
    Completion, CostModel, DispatchPolicy, InputBlock, SchedCtx, TaskSpec, Time, Workload,
};

/// Configuration of the k-means pipeline.
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Point dimensionality.
    pub dim: usize,
    /// Lloyd iterations over the training sample (the serial bottleneck).
    pub iterations: u64,
    /// Training sample size (points).
    pub sample_points: usize,
    /// Dispatch policy.
    pub policy: DispatchPolicy,
    /// When to speculate (basis = Lloyd iterations completed).
    pub schedule: SpeculationSchedule,
    /// When to verify.
    pub verification: VerificationPolicy,
    /// Normalised-L2 tolerance on the centroid matrix.
    pub tolerance: Tolerance,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            k: 8,
            dim: 4,
            iterations: 10,
            sample_points: 512,
            policy: DispatchPolicy::Balanced,
            schedule: SpeculationSchedule::with_step(3),
            verification: VerificationPolicy::EveryKth(2),
            tolerance: Tolerance::percent(1.0),
        }
    }
}

/// Cost model for the k-means tasks.
#[derive(Debug, Clone, Copy, Default)]
pub struct KMeansCost;

impl CostModel for KMeansCost {
    fn cost_us(&self, name: &str, bytes: usize) -> Time {
        let b = bytes as Time;
        match name {
            // One Lloyd step over the sample: the coarse serial task.
            "iterate" => 500,
            // Nearest-centroid assignment over the block.
            "assign" => 10 + b * 10 / 1024,
            "check" | "final-check" => 12,
            "predict" => 5,
            other => panic!("KMeansCost: unknown task kind '{other}'"),
        }
    }
}

/// Centroid matrix: `k` rows of `dim` values, flattened.
pub type Centroids = Arc<Vec<f64>>;

/// Per-block assignment outcome.
#[derive(Debug, Clone)]
pub struct AssignedBlock {
    /// Arrival time, µs.
    pub arrival: Time,
    /// Completion of the committed assign task, µs.
    pub assigned_at: Time,
    /// Points per cluster.
    pub label_counts: Vec<u64>,
    /// Sum of squared distances to the assigned centroids.
    pub distortion: f64,
}

impl AssignedBlock {
    /// Per-element latency.
    pub fn latency(&self) -> Time {
        self.assigned_at.saturating_sub(self.arrival)
    }
}

/// Result of a finished k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Per-block outcomes, in block order.
    pub blocks: Vec<AssignedBlock>,
    /// Centroids actually used by the committed outputs.
    pub centroids: Vec<f64>,
    /// Committed speculation version, if any.
    pub committed_version: Option<SpecVersion>,
    /// Speculation stats (None when not speculating).
    pub spec_stats: Option<ManagerStats>,
}

impl KMeansResult {
    /// Mean per-element latency, µs.
    pub fn mean_latency(&self) -> f64 {
        if self.blocks.is_empty() {
            return 0.0;
        }
        self.blocks.iter().map(|b| b.latency() as f64).sum::<f64>() / self.blocks.len() as f64
    }

    /// Total distortion (sum of squared distances) of the committed
    /// assignment.
    pub fn total_distortion(&self) -> f64 {
        self.blocks.iter().map(|b| b.distortion).sum()
    }
}

/// Decode a block's bytes into points: consecutive `dim`-tuples of bytes
/// mapped to `[0, 1)`.
fn points_of(data: &[u8], dim: usize) -> Vec<f64> {
    let usable = data.len() - data.len() % dim;
    data[..usable].iter().map(|&b| b as f64 / 256.0).collect()
}

/// One Lloyd iteration of `centroids` over `sample` (flattened points).
pub fn lloyd_step(centroids: &[f64], sample: &[f64], k: usize, dim: usize) -> Vec<f64> {
    let mut sums = vec![0.0f64; k * dim];
    let mut counts = vec![0u64; k];
    for p in sample.chunks_exact(dim) {
        let c = nearest(centroids, p, k, dim).0;
        counts[c] += 1;
        for (s, &x) in sums[c * dim..(c + 1) * dim].iter_mut().zip(p) {
            *s += x;
        }
    }
    let mut next = centroids.to_vec();
    for c in 0..k {
        if counts[c] > 0 {
            for d in 0..dim {
                next[c * dim + d] = sums[c * dim + d] / counts[c] as f64;
            }
        }
    }
    next
}

/// Index and squared distance of the centroid nearest to `p`.
fn nearest(centroids: &[f64], p: &[f64], k: usize, dim: usize) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for c in 0..k {
        let mut d2 = 0.0;
        for (a, b) in centroids[c * dim..(c + 1) * dim].iter().zip(p) {
            d2 += (a - b) * (a - b);
        }
        if d2 < best.1 {
            best = (c, d2);
        }
    }
    best
}

/// Assign every point of a block; returns label counts and distortion.
pub fn assign_block(data: &[u8], centroids: &[f64], k: usize, dim: usize) -> (Vec<u64>, f64) {
    let pts = points_of(data, dim);
    let mut counts = vec![0u64; k];
    let mut distortion = 0.0;
    for p in pts.chunks_exact(dim) {
        let (c, d2) = nearest(centroids, p, k, dim);
        counts[c] += 1;
        distortion += d2;
    }
    (counts, distortion)
}

struct AssignOut {
    label_counts: Vec<u64>,
    distortion: f64,
    finished: Time,
}

/// The speculative k-means workload.
pub struct KMeansWorkload {
    cfg: KMeansConfig,
    n_blocks: usize,
    sample: Arc<Vec<f64>>,

    data: Vec<Option<Arc<[u8]>>>,
    arrival: Vec<Time>,
    iter_done: u64,
    current: Centroids,

    mgr: SpeculationManager<Centroids>,
    buffer: WaitBuffer<AssignOut>,
    committed_version: Option<SpecVersion>,
    spec: Option<(SpecVersion, Centroids)>,
    spec_assigned: Vec<bool>,
    natural: Option<Centroids>,
    natural_assigned: Vec<bool>,
    final_centroids: Option<Centroids>,
    used_centroids: Option<Centroids>,

    done: Vec<Option<AssignedBlock>>,
    blocks_done: usize,
}

impl KMeansWorkload {
    /// A workload over `n_blocks` input blocks.
    pub fn new(cfg: KMeansConfig, n_blocks: usize) -> Self {
        assert!(n_blocks > 0 && cfg.k > 0 && cfg.dim > 0 && cfg.iterations >= 1);
        // Deterministic training sample: three latent blobs.
        let mut sample = Vec::with_capacity(cfg.sample_points * cfg.dim);
        for i in 0..cfg.sample_points {
            let blob = i % 3;
            for d in 0..cfg.dim {
                let x = ((i * 2654435761 + d * 40503) % 997) as f64 / 997.0;
                sample.push(0.15 + 0.3 * blob as f64 + 0.1 * x);
            }
        }
        // Initial centroids: spread along the diagonal.
        let init: Vec<f64> = (0..cfg.k * cfg.dim)
            .map(|i| (i / cfg.dim) as f64 / cfg.k as f64 + 0.05)
            .collect();
        let mgr = SpeculationManager::new(cfg.schedule, cfg.verification);
        KMeansWorkload {
            n_blocks,
            sample: Arc::new(sample),
            data: vec![None; n_blocks],
            arrival: vec![0; n_blocks],
            iter_done: 0,
            current: Arc::new(init),
            mgr,
            buffer: WaitBuffer::new(),
            committed_version: None,
            spec: None,
            spec_assigned: vec![false; n_blocks],
            natural: None,
            natural_assigned: vec![false; n_blocks],
            final_centroids: None,
            used_centroids: None,
            done: vec![None; n_blocks],
            blocks_done: 0,
            cfg,
        }
    }

    /// Extract the result after the run finished.
    pub fn result(&self) -> KMeansResult {
        assert!(self.is_finished());
        KMeansResult {
            blocks: self.done.iter().map(|d| d.clone().expect("done")).collect(),
            centroids: self.used_centroids.as_ref().expect("committed").to_vec(),
            committed_version: self.committed_version,
            spec_stats: if self.cfg.policy.speculates() {
                Some(self.mgr.stats())
            } else {
                None
            },
        }
    }

    fn spawn_iterate(&mut self, ctx: &mut dyn SchedCtx) {
        let c = self.current.clone();
        let sample = self.sample.clone();
        let (k, dim) = (self.cfg.k, self.cfg.dim);
        ctx.spawn(TaskSpec::regular(
            "iterate",
            1,
            sample.len() * 8,
            self.iter_done,
            move |_| payload(Arc::new(lloyd_step(&c, &sample, k, dim))),
        ));
    }

    fn spawn_assigns(
        &mut self,
        ctx: &mut dyn SchedCtx,
        version: Option<SpecVersion>,
        c: Centroids,
    ) {
        for idx in 0..self.n_blocks {
            let assigned = match version {
                Some(_) => &mut self.spec_assigned,
                None => &mut self.natural_assigned,
            };
            if assigned[idx] || self.data[idx].is_none() {
                continue;
            }
            assigned[idx] = true;
            let data = self.data[idx].as_ref().expect("arrived").clone();
            let c = c.clone();
            let (k, dim) = (self.cfg.k, self.cfg.dim);
            let bytes = data.len();
            let body = move |_: &tvs_sre::TaskCtx| {
                let (counts, distortion) = assign_block(&data, &c, k, dim);
                payload((counts, distortion))
            };
            let task = match version {
                Some(v) => TaskSpec::speculative("assign", 2, bytes, v, idx as u64, body),
                None => TaskSpec::regular("assign", 2, bytes, idx as u64, body),
            };
            ctx.spawn(task);
        }
    }

    fn finalize(&mut self, idx: usize, out: AssignOut) {
        assert!(self.done[idx].is_none(), "block {idx} assigned twice");
        self.done[idx] = Some(AssignedBlock {
            arrival: self.arrival[idx],
            assigned_at: out.finished,
            label_counts: out.label_counts,
            distortion: out.distortion,
        });
        self.blocks_done += 1;
    }

    fn handle_actions(&mut self, ctx: &mut dyn SchedCtx, actions: Vec<Action>) {
        for a in actions {
            match a {
                Action::StartPrediction { version } => {
                    let c = self.current.clone();
                    ctx.spawn(TaskSpec::predictor(
                        "predict",
                        c.len() * 8,
                        version,
                        version as u64,
                        move |_| payload(c.clone()),
                    ));
                }
                Action::SpawnCheck { version } => {
                    let (_, spec) = self.mgr.active().expect("active");
                    let spec = spec.clone();
                    let newer = self.current.clone();
                    let tol = self.cfg.tolerance;
                    let basis = self.iter_done;
                    ctx.spawn(TaskSpec::check(
                        "check",
                        spec.len() * 16,
                        basis,
                        move |_| {
                            let r = tvs_core::validate::L2Error(tol).check(&spec, &newer);
                            payload((version, r, newer.clone(), basis))
                        },
                    ));
                }
                Action::Rollback { version } => {
                    ctx.abort_version(version);
                    self.buffer.abort(version);
                    self.spec = None;
                    self.spec_assigned = vec![false; self.n_blocks];
                }
                Action::PromoteCandidate { version } => {
                    let (_, c) = self.mgr.active().expect("promoted");
                    let c = c.clone();
                    self.spec = Some((version, c.clone()));
                    self.spawn_assigns(ctx, Some(version), c);
                }
                Action::SpawnFinalCheck { version } => {
                    let (_, spec) = self.mgr.pending_final().expect("pending final");
                    let spec = spec.clone();
                    let fin = self.final_centroids.as_ref().expect("final").clone();
                    let tol = self.cfg.tolerance;
                    ctx.spawn(TaskSpec::check(
                        "final-check",
                        spec.len() * 16,
                        version as u64,
                        move |_| {
                            let r = tvs_core::validate::L2Error(tol).check(&spec, &fin);
                            payload((version, r))
                        },
                    ));
                }
                Action::Commit { version } => {
                    self.committed_version = Some(version);
                    self.used_centroids = self.spec.as_ref().map(|(_, c)| c.clone());
                    for (slot, out) in self.buffer.commit(version) {
                        self.finalize(slot as usize, out);
                    }
                }
                Action::RecomputeNaturally => {
                    let c = self
                        .final_centroids
                        .as_ref()
                        .expect("final centroids")
                        .clone();
                    self.used_centroids = Some(c.clone());
                    self.natural = Some(c.clone());
                    self.spawn_assigns(ctx, None, c);
                }
            }
        }
    }
}

impl Workload for KMeansWorkload {
    fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
        self.spawn_iterate(ctx);
    }

    fn on_input(&mut self, ctx: &mut dyn SchedCtx, block: InputBlock) {
        let idx = block.index;
        self.arrival[idx] = block.arrival;
        self.data[idx] = Some(block.data);
        if let Some((v, c)) = self.spec.clone() {
            if self.committed_version.is_none() || self.committed_version == Some(v) {
                self.spawn_assigns(ctx, Some(v), c);
            }
        }
        if let Some(c) = self.natural.clone() {
            self.spawn_assigns(ctx, None, c);
        }
    }

    fn on_complete(&mut self, ctx: &mut dyn SchedCtx, done: Completion) {
        match done.name {
            "iterate" => {
                self.current = expect_payload::<Centroids>(done.output, "Arc<Vec<f64>>");
                self.iter_done += 1;
                if self.iter_done < self.cfg.iterations {
                    if self.cfg.policy.speculates() && !self.mgr.is_done() {
                        let actions = self.mgr.on_basis(self.iter_done);
                        self.handle_actions(ctx, actions);
                    }
                    self.spawn_iterate(ctx);
                } else {
                    self.final_centroids = Some(self.current.clone());
                    let actions = if self.cfg.policy.speculates() {
                        self.mgr.on_final()
                    } else {
                        vec![Action::RecomputeNaturally]
                    };
                    self.handle_actions(ctx, actions);
                }
            }
            "predict" => {
                let version = done.version.expect("predictor version");
                let c = expect_payload::<Centroids>(done.output, "Arc<Vec<f64>>");
                if self.mgr.install_prediction(version, c.clone()) {
                    self.spec = Some((version, c.clone()));
                    self.spawn_assigns(ctx, Some(version), c);
                }
            }
            "check" => {
                let (version, r, newer, basis) =
                    expect_payload::<(SpecVersion, CheckResult, Centroids, u64)>(
                        done.output,
                        "check tuple",
                    );
                let actions = self.mgr.on_check_result(version, r, Some((newer, basis)));
                self.handle_actions(ctx, actions);
            }
            "final-check" => {
                let (version, r) =
                    expect_payload::<(SpecVersion, CheckResult)>(done.output, "final tuple");
                let actions = self.mgr.on_final_check_result(version, r);
                self.handle_actions(ctx, actions);
            }
            "assign" => {
                let idx = done.tag as usize;
                let (label_counts, distortion) =
                    expect_payload::<(Vec<u64>, f64)>(done.output, "(Vec<u64>, f64)");
                let out = AssignOut {
                    label_counts,
                    distortion,
                    finished: done.finished,
                };
                match done.version {
                    Some(v) => {
                        if self.committed_version == Some(v) {
                            self.finalize(idx, out);
                        } else {
                            self.buffer.push(v, idx as u64, out);
                        }
                    }
                    None => self.finalize(idx, out),
                }
            }
            other => unreachable!("unknown completion '{other}'"),
        }
    }

    fn is_finished(&self) -> bool {
        self.blocks_done == self.n_blocks
    }
}

/// Run the k-means pipeline on the simulator with uniform block arrivals.
pub fn run_kmeans_sim(
    cfg: &KMeansConfig,
    n_blocks: usize,
    arrival_gap_us: Time,
    workers: usize,
) -> (KMeansResult, tvs_sre::RunMetrics) {
    use tvs_sre::exec::sim::{run, SimConfig};
    let wl = KMeansWorkload::new(cfg.clone(), n_blocks);
    let sim = SimConfig::new(tvs_sre::x86_smp(workers), cfg.policy);
    let inputs: Vec<InputBlock> = (0..n_blocks)
        .map(|i| InputBlock {
            index: i,
            arrival: i as Time * arrival_gap_us,
            data: make_block(i),
        })
        .collect();
    let rep = run(
        wl,
        &sim,
        &KMeansCost,
        inputs,
        &tvs_sre::Instruments::default(),
    )
    .expect("a dark run injects nothing that could fail it");
    (rep.workload.result(), rep.metrics)
}

fn make_block(i: usize) -> Arc<[u8]> {
    (0..4096)
        .map(|j| (((i * 131 + j) as u32).wrapping_mul(2654435761) >> 24) as u8)
        .collect::<Vec<u8>>()
        .into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lloyd_converges_on_blobs() {
        // Lloyd's guarantee is monotone *distortion* (not centroid shift).
        let cfg = KMeansConfig::default();
        let wl = KMeansWorkload::new(cfg.clone(), 1);
        let sample_bytes: Vec<u8> = wl
            .sample
            .iter()
            .map(|&x| (x * 256.0).clamp(0.0, 255.0) as u8)
            .collect();
        let mut c = (*wl.current).clone();
        let mut prev_distortion = f64::INFINITY;
        let mut last_shift = f64::INFINITY;
        for _ in 0..cfg.iterations {
            let next = lloyd_step(&c, &wl.sample, cfg.k, cfg.dim);
            let (_, distortion) = assign_block(&sample_bytes, &next, cfg.k, cfg.dim);
            assert!(
                distortion <= prev_distortion + 1e-6,
                "Lloyd distortion must not grow: {distortion} > {prev_distortion}"
            );
            prev_distortion = distortion;
            last_shift = c
                .iter()
                .zip(&next)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            c = next;
        }
        assert!(
            last_shift < 0.01,
            "centroids should settle: shift {last_shift}"
        );
    }

    #[test]
    fn non_speculative_run_completes() {
        let cfg = KMeansConfig {
            policy: DispatchPolicy::NonSpeculative,
            ..Default::default()
        };
        let (res, m) = run_kmeans_sim(&cfg, 32, 10, 4);
        assert_eq!(res.blocks.len(), 32);
        assert_eq!(m.rollbacks, 0);
        let total_pts: u64 = res
            .blocks
            .iter()
            .map(|b| b.label_counts.iter().sum::<u64>())
            .sum();
        assert_eq!(
            total_pts,
            32 * (4096 / cfg.dim) as u64,
            "every point labelled"
        );
    }

    #[test]
    fn speculation_commits_and_cuts_latency() {
        let ns = KMeansConfig {
            policy: DispatchPolicy::NonSpeculative,
            ..Default::default()
        };
        let sp = KMeansConfig {
            policy: DispatchPolicy::Balanced,
            ..Default::default()
        };
        let (rn, _) = run_kmeans_sim(&ns, 64, 10, 8);
        let (rs, _) = run_kmeans_sim(&sp, 64, 10, 8);
        assert!(
            rs.committed_version.is_some(),
            "Lloyd converges; speculation must commit"
        );
        assert!(
            rs.mean_latency() < rn.mean_latency(),
            "spec {} vs non-spec {}",
            rs.mean_latency(),
            rn.mean_latency()
        );
    }

    #[test]
    fn committed_distortion_within_tolerance_band() {
        // The committed assignment uses speculated centroids; its quality
        // may lag the converged ones, but only slightly.
        let ns = KMeansConfig {
            policy: DispatchPolicy::NonSpeculative,
            ..Default::default()
        };
        let sp = KMeansConfig {
            policy: DispatchPolicy::Balanced,
            ..Default::default()
        };
        let (rn, _) = run_kmeans_sim(&ns, 16, 10, 4);
        let (rs, _) = run_kmeans_sim(&sp, 16, 10, 4);
        let rel = rs.total_distortion() / rn.total_distortion();
        assert!(
            rel < 1.05,
            "speculated assignment quality too far off: {rel}"
        );
    }

    #[test]
    fn early_speculation_rolls_back_with_tight_tolerance() {
        let cfg = KMeansConfig {
            policy: DispatchPolicy::Balanced,
            schedule: SpeculationSchedule::with_step(1),
            verification: VerificationPolicy::Full,
            tolerance: Tolerance { margin: 0.002 },
            ..Default::default()
        };
        let (res, m) = run_kmeans_sim(&cfg, 32, 10, 4);
        assert!(m.rollbacks > 0, "iterate 1 is far from converged");
        assert_eq!(res.blocks.len(), 32);
    }

    #[test]
    fn zero_tolerance_commits_only_at_the_exact_fixed_point() {
        // Lloyd reaches an exact fixed point on this sample, so even a
        // zero margin eventually commits — with centroids *identical* to
        // the converged ones (delta == 0).
        let cfg = KMeansConfig {
            policy: DispatchPolicy::Balanced,
            schedule: SpeculationSchedule::with_step(1),
            verification: VerificationPolicy::Full,
            tolerance: Tolerance { margin: 0.0 },
            ..Default::default()
        };
        let (res, _) = run_kmeans_sim(&cfg, 16, 10, 4);
        if res.committed_version.is_some() {
            let wl = KMeansWorkload::new(cfg.clone(), 1);
            let mut c = (*wl.current).clone();
            for _ in 0..cfg.iterations {
                c = lloyd_step(&c, &wl.sample, cfg.k, cfg.dim);
            }
            assert_eq!(
                res.centroids, c,
                "zero tolerance may only commit the exact value"
            );
        }
    }

    #[test]
    fn impossible_tolerance_recomputes_naturally() {
        let cfg = KMeansConfig {
            policy: DispatchPolicy::Balanced,
            tolerance: Tolerance { margin: -1.0 },
            ..Default::default()
        };
        let (res, _) = run_kmeans_sim(&cfg, 16, 10, 4);
        assert_eq!(res.committed_version, None);
        // Natural outputs use the final centroids exactly.
        let (counts, distortion) = assign_block(&make_block(3), &res.centroids, cfg.k, cfg.dim);
        assert_eq!(counts, res.blocks[3].label_counts);
        assert!((distortion - res.blocks[3].distortion).abs() < 1e-9);
    }
}
