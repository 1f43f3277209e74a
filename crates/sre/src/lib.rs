//! SRE — a Streaming Runtime Environment for coarse-grain task parallelism.
//!
//! This crate reproduces the substrate of *Azuelos, Keidar, Zaks — "Tolerant
//! Value Speculation in Coarse-Grain Streaming Computations"* (IPPS 2011):
//! the authors' SRE \[5\], a task scheduler for streaming programs in which
//! computation is divided into **side-effect-free tasks** organised in a
//! dynamic data-flow graph.
//!
//! The moving parts, mirroring the paper's §III:
//!
//! * [`task`] — coarse-grain tasks with class ([`task::TaskClass`]),
//!   pipeline depth (priority), an optional speculation version tag, and an
//!   abort flag for in-flight cancellation;
//! * [`workload`] — the SuperTask role: a [`workload::Workload`] receives
//!   input blocks and task completions and spawns successor tasks, which is
//!   how the dynamic DFG unfolds;
//! * [`queue`] / [`policy`] — depth-favouring priority queues with FCFS
//!   tie-break, split into control (predictor/check — always first),
//!   non-speculative and speculative classes, and the paper's three
//!   dispatch policies (conservative / aggressive / balanced);
//! * [`sched`] — the scheduler core: spawn, dispatch, completion delivery,
//!   and version-wide abort with destroy propagation semantics;
//! * [`platform`] — models of the two evaluation machines: an x86 SMP and a
//!   Cell BE with per-worker multiple-buffering prefetch queues, DMA cost
//!   and the 32 KB local-store task limit;
//! * [`exec::sim`] — a deterministic discrete-event executor (virtual µs
//!   clock) used by every figure-regeneration bench;
//! * [`exec::threaded`] — a real thread-pool executor running the same
//!   workloads on wall-clock time, with sharded per-worker ready lanes,
//!   work stealing and completions routed by whichever thread holds the
//!   commit lock — usually the worker that just finished the task;
//! * `exec::core` — what both executors share: the one `SchedCtx`, the
//!   panic-isolated task body, settling, recovery, [`RunError`] and the
//!   watchdog / supervisor configs;
//! * [`metrics`] — the aggregate [`RunMetrics`] of a run;
//! * [`instruments`] — the one recorder and fault injector of a run,
//!   handed to every layer when it is built.
//!
//! Each executor has exactly one entry point, fallible and instrumented:
//! [`exec::sim::run`] and [`exec::threaded::run`], both taking the dispatch
//! policy as an argument and the run's input as one borrowed `&[u8]` with
//! its blocks as ranges of it ([`InputBlock`]); bodies read it through
//! [`TaskCtx::input`]. A dark run passes `&Instruments::default()`.
//!
//! Speculation *policy* (predictors, tolerance checks, wait buffers,
//! rollback orchestration) lives one crate up, in `tvs-core`; this crate
//! only provides the mechanisms (version tags, class priorities, abort).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod instruments;
pub mod metrics;
pub mod platform;
pub mod policy;
pub mod queue;
pub mod replica;
pub mod sched;
pub mod task;
pub mod workload;

pub use exec::core::{into_inner_recover, RunError, SupervisorConfig, WatchdogConfig};
pub use instruments::Instruments;
pub use metrics::RunMetrics;
pub use platform::{cell_be, x86_smp, CostModel, FixedCost, Platform};
pub use policy::DispatchPolicy;
pub use replica::{DigestFn, ReplicaStats, ReplicatingWorkload, ValidationMode};
pub use sched::Scheduler;
pub use task::{Payload, SpecVersion, TaskClass, TaskCtx, TaskId, TaskSpec, Time};
pub use tvs_faults::{FaultInjector, FaultKind, FaultPlan, FaultSite};
pub use tvs_metrics::{lock_recover, MetricsSnapshot, Recorder, Sampler};
pub use tvs_trace::TraceLog;
pub use workload::{Completion, FaultNotice, InputBlock, SchedCtx, SdcNotice, Workload};
