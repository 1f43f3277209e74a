//! Executors: a deterministic discrete-event simulator and a work-stealing
//! thread-pool runtime, both driving the same [`crate::Scheduler`] and
//! [`crate::Workload`] abstractions, each through one `run` function.

pub mod commit_log;
pub mod sim;
pub mod threaded;
