//! I/O arrival-time models for the streaming speculation reproduction.
//!
//! The paper evaluates two input regimes: reading from a hard-disk cache
//! (fast, "very low I/O latency") and streaming "via a tunneled SSH socket
//! connection over a long distance" (slow). Only the *arrival schedule* of
//! the 4 KB input blocks enters the computation, so this crate models I/O as
//! a deterministic, seedable function from block index to arrival time in
//! virtual microseconds.
//!
//! Both executors take the schedule itself (the threaded one paces it on
//! the wall clock in its feeder); [`tcp`] provides an actual loopback TCP
//! streamer with bandwidth throttling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;
pub mod tcp;

pub use model::{ArrivalModel, Custom, Disk, Replay, Socket, Uniform};

/// Virtual time unit used throughout the reproduction: microseconds.
pub type Micros = u64;
