//! Streaming applications built on the TVS public API.
//!
//! Two applications, mirroring the paper:
//!
//! * [`huffman`] — the paper's benchmark: a parallel, speculative Huffman
//!   encoder (Fig. 2). Blocks are counted in parallel, histograms are
//!   merged by a serial reduce chain, a tree is built from the global
//!   histogram (the Amdahl bottleneck), offsets serialise the
//!   variable-length output positions, and encodes fan out in parallel.
//!   Speculation predicts the tree from prefix histograms, with a
//!   compressed-size tolerance check.
//! * [`filter`] — the paper's motivating example (Fig. 1): an iterative
//!   computation of filter coefficients whose early iterates are speculated
//!   on, releasing the data-parallel filtering phase before the iteration
//!   converges.
//!
//! [`runner`] is the one way in: [`run_huffman`] takes a [`HuffmanRun`]
//! (input, configuration, arrival model, executor, [`tvs_sre::Instruments`],
//! optional snapshot to resume from) and returns a [`HuffmanReport`] or a
//! structured [`RunFailure`]; [`report`] renders the
//! series the paper's figures plot; [`postmortem`] dumps and reloads
//! crash bundles (trace rings + lineage table + metrics snapshots) when
//! a chaos run dies.
//!
//! ```
//! use tvs_pipelines::{run_huffman, HuffmanConfig, HuffmanRun};
//! use tvs_sre::{x86_smp, DispatchPolicy};
//!
//! let data = tvs_workloads::generate(tvs_workloads::FileKind::Text, 256 * 1024, 7);
//! let (machine, disk) = (x86_smp(16), tvs_iosim::Disk::default());
//! let mean_latency = |cfg: &HuffmanConfig| {
//!     run_huffman(&HuffmanRun::sim(&data, cfg, &machine, &disk))
//!         .expect("a dark run injects nothing that could fail it")
//!         .end
//!         .into_outcome()
//!         .mean_latency()
//! };
//! let base = mean_latency(&HuffmanConfig::disk_x86(DispatchPolicy::NonSpeculative));
//! // Speculate from the very first reduce outcome (the input is small, so
//! // the paper's default step 8 would only trigger halfway through).
//! let mut cfg = HuffmanConfig::disk_x86(DispatchPolicy::Balanced);
//! cfg.schedule = tvs_core::SpeculationSchedule::with_step(1);
//! assert!(mean_latency(&cfg) < base);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod cost;
pub mod filter;
pub mod huffman;
pub mod postmortem;
pub mod report;
pub mod runner;

pub use config::HuffmanConfig;
pub use cost::HuffmanCost;
pub use huffman::{digest_output, HuffmanWorkload, PipelineResult, SpecTree};
pub use runner::{
    run_huffman, CheckpointedRun, Executor, HuffmanReport, HuffmanRun, RunFailure, RunOutcome,
};
