//! Executors: a deterministic discrete-event simulator and a work-stealing
//! thread-pool runtime, both driving one executor `core` — the same
//! [`crate::Scheduler`], [`crate::Workload`] callbacks, settling, recovery
//! and accounting — each through one `run` function.

pub(crate) mod core;
pub mod sim;
pub mod threaded;
