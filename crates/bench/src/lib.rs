//! Figure-regeneration harness.
//!
//! One function per figure of the paper's evaluation (§V); the
//! `all-figures` binary calls them (`all-figures [fig3 … fig9 |
//! ablations]…`), prints an ASCII summary and writes one CSV per sub-figure
//! under `results/`. Runs use the deterministic discrete-event executor,
//! so every figure is bit-reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod figures;
pub mod microbench;
pub mod output;

pub use figures::*;
pub use output::{emit, results_dir, write_trace};
