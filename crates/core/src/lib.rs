//! Tolerant value speculation for coarse-grain streaming computations.
//!
//! This crate is the reproduction's *primary contribution*: the runtime
//! support for **speculating on data-flow edge values with a programmer-
//! defined tolerance**, per Azuelos, Keidar & Zaks (IPPS 2011).
//!
//! The paper's programmer interface asks for four things (§II-A):
//!
//! 1. **what** to speculate — which DFG edge's value to guess;
//! 2. **how** — the source providing approximate data (typically an early
//!    or partial stage of the computation);
//! 3. **where (not)** — the side-effect boundary at which speculative data
//!    must wait for validation;
//! 4. **how to validate** — a comparison with a tolerance margin that
//!    decides commit or rollback.
//!
//! The pieces here map onto that interface:
//!
//! * [`interface::SpeculationBuilder`] — the four-point configuration;
//! * [`frequency`] — *when* to speculate (step size) and *when* to verify
//!   (the paper's baseline every-k / optimistic / full policies);
//! * [`version`] — speculation version lifecycle (active → committed /
//!   aborted);
//! * [`buffer::WaitBuffer`] — the paper's Wait task: speculative outputs
//!   heading into side-effecting sinks are buffered until their version's
//!   fate is decided;
//! * [`validate`] — tolerance checks as first-class values;
//! * [`manager::SpeculationManager`] — the state machine that turns basis
//!   progress and check verdicts into actions (predict / check / rollback /
//!   commit / recompute), which a workload executes through the SRE's
//!   scheduler;
//! * [`undo`] — the extension the paper proposes for tasks with reversible
//!   side effects: a per-version undo journal (no pipeline journals an
//!   effect; the benchmark's engine-round cell drives it);
//! * [`degrade`] — graceful degradation: one machine over windowed
//!   speculation outcomes and executor faults that walks the service
//!   level down (full → capped cascade depth → suspended → paused) and
//!   probes its way back up; the manager asks it before every start;
//! * [`checkpoint`] — committed-prefix checkpointing: the finalized
//!   blocks' lineage and stream bytes, appended once each to a
//!   checksummed journal behind a header with the code table, so a killed
//!   run resumes byte-identically, and a finished run's journal is its
//!   compressed file.
//!
//! The mechanisms these actions rely on (version-tagged tasks, abort flags,
//! control-class priorities) live in the substrate crate `tvs-sre`.
//!
//! ```
//! use tvs_core::{
//!     Action, CheckResult, SpeculationManager, SpeculationSchedule, VerificationPolicy,
//! };
//!
//! // Speculate from the first basis event, verify at every one.
//! let mut mgr: SpeculationManager<&str> =
//!     SpeculationManager::new(SpeculationSchedule::with_step(1), VerificationPolicy::Full);
//!
//! assert_eq!(mgr.on_basis(1), vec![Action::StartPrediction { version: 1 }]);
//! assert!(mgr.install_prediction(1, "guessed value"));
//!
//! // A later check finds the guess within tolerance...
//! assert_eq!(mgr.on_basis(2), vec![Action::SpawnCheck { version: 1 }]);
//! assert!(mgr.on_check_result(1, CheckResult::pass(0.002), None).is_empty());
//!
//! // ...and the final comparison commits it.
//! assert_eq!(mgr.on_final(), vec![Action::SpawnFinalCheck { version: 1 }]);
//! assert_eq!(
//!     mgr.on_final_check_result(1, CheckResult::pass(0.004)),
//!     vec![Action::Commit { version: 1 }],
//! );
//! assert_eq!(mgr.committed(), Some(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod checkpoint;
pub mod degrade;
pub mod frequency;
pub mod interface;
pub mod manager;
mod per_version;
pub mod undo;
pub mod validate;
pub mod version;

pub use buffer::WaitBuffer;
pub use checkpoint::{CheckpointConfig, Journal, ResumeError, StreamSnapshot};
pub use degrade::{DegradeConfig, Level};
pub use frequency::{SpeculationSchedule, VerificationPolicy};
pub use interface::{SpeculationBuilder, SpeculationPlan};
pub use manager::{Action, ManagerStats, SpeculationManager};
pub use per_version::AllocStats;
pub use undo::UndoLog;
pub use validate::{CheckResult, Tolerance};
pub use version::{VersionState, VersionTracker};

/// Re-export: versions are the SRE's tags.
pub use tvs_sre::SpecVersion;

/// Re-exports: the replication validation plane lives in the substrate
/// crate (it wraps any `Workload`), but it is speculation *policy* —
/// surfaced here next to the manager that consumes its
/// verdicts.
pub use tvs_sre::{DigestFn, ReplicaStats, ReplicatingWorkload, SdcNotice, ValidationMode};
