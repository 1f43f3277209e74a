//! Fault handling shared by the executors: structured run failure,
//! bounded retry, watchdog configuration and poison-recovering locks.
//!
//! The paper treats misspeculation as a first-class, recoverable event;
//! this module extends the same discipline to machine faults. A panicking
//! task body is caught (`catch_unwind`), reported as a fault, and routed
//! through the *existing* rollback path: speculative versions are aborted
//! and their undo journals replayed, non-speculative tasks are retried in
//! place with bounded exponential backoff, and only when retries are
//! exhausted does the run end — with a [`RunError`] value, never a process
//! abort.

use crate::task::{TaskCtx, TaskId};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Why a run failed: the error of the executors' `run` entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A non-speculative task panicked on every attempt the retry policy
    /// allowed. (Speculative tasks never produce this: their faults are
    /// absorbed by aborting the version.)
    TaskFailed {
        /// Task kind name.
        name: &'static str,
        /// Task id.
        id: TaskId,
        /// Body attempts made (initial run + retries).
        attempts: u32,
    },
    /// A runtime service thread (feeder, worker, watchdog, supervisor) died
    /// outside a task body, or a workload callback panicked on the commit
    /// path — a bug, but still reported as a value so callers can fail
    /// their run instead of the process.
    WorkerLost {
        /// Which thread was lost.
        what: &'static str,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::TaskFailed { name, id, attempts } => write!(
                f,
                "task '{name}' (id {id}) panicked on all {attempts} attempts"
            ),
            RunError::WorkerLost { what } => {
                write!(f, "runtime thread '{what}' terminated abnormally")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Bounded exponential backoff for retrying panicked non-speculative
/// tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum body attempts (initial run included), ≥ 1.
    pub max_attempts: u32,
    /// Backoff before retry k (1-based) is `base_backoff_us << (k - 1)`,
    /// capped at [`RetryPolicy::max_backoff_us`]. Only the threaded
    /// executors sleep; the simulator retries instantaneously (backoff is
    /// a wall-clock concept), keeping virtual-time runs deterministic.
    pub base_backoff_us: u64,
    /// Backoff cap, µs.
    pub max_backoff_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_us: 100,
            max_backoff_us: 10_000,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry `attempt` (1-based), µs.
    pub fn backoff_us(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(32);
        self.base_backoff_us
            .saturating_mul(1u64 << shift)
            .min(self.max_backoff_us)
    }

    /// [`RetryPolicy::backoff_us`] with ±50% seeded jitter, µs.
    ///
    /// Exponential backoff with synchronized phases is self-defeating: if a
    /// shared cause (an injected stall burst, a contended resource) faults
    /// several tasks at once, fixed backoff wakes all their retries in the
    /// same instant. The jitter is a pure function of `(salt, attempt)` —
    /// executors pass the task id as the salt — so retry schedules stay
    /// reproducible per task while distinct tasks decorrelate. The result
    /// is in `[backoff/2, backoff*3/2)`, still capped at
    /// [`RetryPolicy::max_backoff_us`], and 0 stays 0.
    pub fn backoff_jittered_us(&self, attempt: u32, salt: u64) -> u64 {
        let base = self.backoff_us(attempt);
        if base == 0 {
            return 0;
        }
        let r = mix64(salt ^ 0x5851_F42D_4C95_7F2D_u64.wrapping_mul(u64::from(attempt)));
        (base / 2 + r % base).min(self.max_backoff_us)
    }
}

/// splitmix64 finalizer: a cheap, dependency-free bijective mixer. Also
/// used by the replication plane's deterministic task sampling.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Watchdog configuration: detect tasks exceeding a deadline and cancel
/// them (signal their abort flag and, for speculative tasks, abort their
/// version so the speculation manager restarts the work).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Running time after which a task is cancelled, µs.
    pub deadline_us: u64,
    /// Poll interval of the watchdog thread, µs (threaded executor only;
    /// the simulator fires exactly at `deadline_us` of virtual time).
    pub poll_us: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            deadline_us: 500_000,
            poll_us: 5_000,
        }
    }
}

/// Worker supervision configuration (threaded executor only): every worker
/// stamps a heartbeat clock each loop iteration, and a supervisor thread
/// quarantines workers whose heartbeat goes stale — bumping their epoch so
/// in-flight completion reports from the old incarnation are *rejected* at
/// the commit path's epoch gate instead of double-committed, reassigning
/// their ready lane, and respawning a replacement on a fresh epoch.
///
/// False positives are safe by construction: a merely-slow worker whose
/// epoch was bumped exits at its next loop iteration, and its straggling
/// report is recovered through the regular fault path (the task is re-fed,
/// never committed twice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// A worker whose heartbeat is older than this is quarantined, µs.
    /// Must comfortably exceed the worker park timeout (100 ms) plus the
    /// longest well-behaved task body, or slow workers get churned — safe,
    /// but wasteful.
    pub heartbeat_timeout_us: u64,
    /// Poll interval of the supervisor thread, µs.
    pub poll_us: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            heartbeat_timeout_us: 1_000_000,
            poll_us: 10_000,
        }
    }
}

/// Lock `m`, recovering the guard when a panicking thread poisoned it.
///
/// Every shared structure in the executors is either plain data (lanes,
/// rings) or guarded state whose invariants are restored by the fault
/// path itself (scheduler + workload behind the commit lock: the faulting
/// task is routed through [`crate::sched::Scheduler::fault`] and version
/// rollback). Dying on the poison flag would turn one recovered panic
/// into a wedged runtime, which is exactly what this layer exists to
/// prevent.
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Mutex::into_inner`] with the same poison recovery as [`lock_recover`].
pub fn into_inner_recover<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(PoisonError::into_inner)
}

/// Abort-aware wall-clock stall (threaded executor's interpretation of an
/// injected `Stall`): sleeps in small increments, returning early once the
/// task's version is aborted — which is how the watchdog unsticks a
/// stalled speculative task.
pub(crate) fn stall_wall(us: u64, ctx: &TaskCtx) {
    let t0 = Instant::now();
    let step = Duration::from_micros((us / 10).clamp(20, 500));
    while (t0.elapsed().as_micros() as u64) < us && !ctx.aborted() {
        std::thread::sleep(step);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff_us: 100,
            max_backoff_us: 1_000,
        };
        assert_eq!(p.backoff_us(1), 100);
        assert_eq!(p.backoff_us(2), 200);
        assert_eq!(p.backoff_us(3), 400);
        assert_eq!(p.backoff_us(4), 800);
        assert_eq!(p.backoff_us(5), 1_000, "capped");
        assert_eq!(p.backoff_us(40), 1_000, "huge attempts stay capped");
    }

    #[test]
    fn jittered_backoff_stays_in_band_and_is_deterministic() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff_us: 100,
            max_backoff_us: 1_000,
        };
        for attempt in 1..=6 {
            let base = p.backoff_us(attempt);
            for salt in [0u64, 1, 7, 0xDEAD_BEEF, u64::MAX] {
                let j = p.backoff_jittered_us(attempt, salt);
                assert!(
                    j >= base / 2 && j < base.saturating_mul(3) / 2 + 1,
                    "attempt {attempt} salt {salt}: {j} outside [{}, {})",
                    base / 2,
                    base * 3 / 2
                );
                assert!(j <= p.max_backoff_us);
                assert_eq!(
                    j,
                    p.backoff_jittered_us(attempt, salt),
                    "same (salt, attempt) must reproduce the same backoff"
                );
            }
        }
        // Distinct salts decorrelate: not all equal for a fixed attempt.
        let vals: std::collections::HashSet<u64> =
            (0..32).map(|salt| p.backoff_jittered_us(3, salt)).collect();
        assert!(vals.len() > 1, "jitter must vary across salts");
        // Zero base stays zero (no sleep where none was configured).
        let z = RetryPolicy {
            max_attempts: 3,
            base_backoff_us: 0,
            max_backoff_us: 0,
        };
        assert_eq!(z.backoff_jittered_us(1, 9), 0);
    }

    #[test]
    fn run_error_messages_are_readable() {
        let e = RunError::TaskFailed {
            name: "count",
            id: 7,
            attempts: 3,
        };
        assert_eq!(
            e.to_string(),
            "task 'count' (id 7) panicked on all 3 attempts"
        );
        let w = RunError::WorkerLost { what: "feeder" };
        assert!(w.to_string().contains("feeder"));
    }

    #[test]
    fn stall_exits_early_on_abort() {
        let ctx = TaskCtx::new();
        let flag = ctx.abort_flag();
        TaskCtx::signal_abort(&flag);
        let t0 = Instant::now();
        stall_wall(5_000_000, &ctx); // 5s if the abort were ignored
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn poison_recovery_yields_the_data() {
        let m = std::sync::Arc::new(Mutex::new(41));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        *lock_recover(&m) += 1;
        assert_eq!(
            into_inner_recover(std::sync::Arc::try_unwrap(m).unwrap()),
            42
        );
    }
}
