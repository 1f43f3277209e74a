//! The run's one recorder and its mid-run readers.
//!
//! Every runtime fact of a run — a dispatch, a steal, a task's busy time,
//! a check verdict, a rollback and its cascade, a fault — is written once,
//! by one [`Recorder::emit`] call: an event (`tvs_trace::EventKind`) on one
//! per-worker shard. The call charges every counter, gauge and histogram
//! the event implies and, when rings are on, appends the event to the
//! shard's bounded ring. The run's `RunMetrics`, its drained
//! `tvs_trace::TraceLog` (and from it `SpecHealth`, the lineage table and
//! the Perfetto and CSV exports), the profiler's time clocks, the snapshot
//! stream and `tvs-top` all read that one store.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** A [`Recorder`] is a cheap cloneable
//!    handle around `Option<Arc<…>>`; the disabled recorder is `None` and
//!    every write is one predictable branch. A counters-only recorder
//!    ([`Recorder::counters`], what an executor builds for a dark run)
//!    keeps each write a single relaxed add behind that branch.
//! 2. **No hot-path contention.** Counters and rings live in
//!    cache-line-aligned per-worker *shards* (one writer per shard in
//!    steady state, relaxed atomics, an uncontended ring mutex), with one
//!    extra *control* shard for facts recorded under the commit lock
//!    (scheduler, speculation manager, replication plane). Gauges and
//!    histograms are written by one thread at a time.
//! 3. **One clock, deterministic in the simulator.** The simulator drives
//!    the recorder's clock with [`Recorder::set_virtual_now`] and takes
//!    snapshots on virtual-time tick boundaries
//!    ([`Recorder::virtual_tick`]): same seed, same event order, same
//!    byte-identical snapshot stream. Threaded runs stamp wall time since
//!    [`Recorder::start_clock`].
//! 4. **Bounded memory, honest accounting.** Rings overwrite their oldest
//!    event and count the loss; counters see every event.
//!
//! The readers: [`Sampler`] (a wall-clock snapshot thread), the
//! [`MetricsSnapshot`] JSONL and Prometheus text forms, and the small
//! [`json`] reader that parses them back.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod recorder;
mod ring;
pub mod sampler;
pub mod snapshot;

pub use recorder::{lock_recover, MetricsHub, Recorder, DEFAULT_RING_CAPACITY};
pub use sampler::Sampler;
pub use snapshot::{CounterWindow, HistSnapshot, MetricsSnapshot};

/// Declare a metric vocabulary from one list: the enum (a variant's
/// discriminant is its cell index), `ALL` in stable exposition order, and
/// the snake_case `name` the JSONL and Prometheus exports use.
macro_rules! vocabulary {
    ($(#[$kind_doc:meta])* $kind:ident { $($(#[$doc:meta])* $var:ident = $name:literal,)+ }) => {
        $(#[$kind_doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum $kind {
            $($(#[$doc])* $var,)+
        }

        impl $kind {
            /// Every variant, in stable exposition order.
            pub const ALL: [$kind; [$($name),+].len()] = [$($kind::$var),+];

            /// Stable snake_case name used by the JSONL and Prometheus
            /// exports.
            pub fn name(self) -> &'static str {
                match self {
                    $($kind::$var => $name,)+
                }
            }
        }
    };
}

vocabulary! {
    /// Monotonic counters, one cell per shard (per worker lane + control).
    Counter {
        /// Tasks bound to a worker's ready slot (per worker when written to
        /// its shard).
        LaneDispatch = "lane_dispatch",
        /// Tasks taken from another worker's ready slot (attributed to the
        /// thief).
        Steal = "steal",
        /// Completions delivered to the workload.
        TasksDelivered = "tasks_delivered",
        /// Completions discarded because their version was aborted.
        TasksDiscarded = "tasks_discarded",
        /// Ready tasks deleted by version aborts before dispatch.
        DeletedReady = "deleted_ready",
        /// Version rollbacks.
        Rollbacks = "rollbacks",
        /// Version commits.
        Commits = "commits",
        /// Predictor fires (speculation attempts).
        Predictions = "predictions",
        /// Tolerance checks that passed.
        ChecksPassed = "checks_passed",
        /// Tolerance checks that failed.
        ChecksFailed = "checks_failed",
        /// Task-body panics caught by an executor.
        Faults = "faults",
        /// Non-speculative retry attempts after a caught fault.
        Retries = "retries",
        /// Duplicate completion reports absorbed by the scheduler.
        DuplicateCompletions = "duplicate_completions",
        /// Worker-busy µs charged to completed tasks.
        BusyUs = "busy_us",
        /// Worker µs wasted on discarded (misspeculated/faulted) work.
        WastedUs = "wasted_us",
        /// Replica tasks spawned for replication-based validation.
        ReplicaDispatches = "replica_dispatches",
        /// Replica vote sets that resolved clean on first comparison.
        ReplicaMatches = "replica_matches",
        /// Silent-data-corruption detections (divergent replica digests).
        SdcDetected = "sdc_detected",
        /// Divergent vote sets resolved by a tiebreak re-execution.
        SdcResolved = "sdc_resolved",
        /// Total µs the executors slept in jittered retry backoff.
        RetryBackoffUs = "retry_backoff_us",
        /// Profiler: µs spent running primary/replica task bodies.
        TimeRunUs = "time_run_us",
        /// Profiler: µs spent acquiring work (dispatch scans + steal probes).
        TimeStealUs = "time_steal_us",
        /// Profiler: µs spent parked waiting for work or completions.
        TimeParkUs = "time_park_us",
        /// Profiler: µs spent running tolerance-check task bodies.
        TimeCheckUs = "time_check_us",
        /// Profiler: µs spent inside the commit path (scheduler/commit lock).
        TimeCommitUs = "time_commit_us",
        /// Profiler: µs completion reports waited for the commit path, summed
        /// per routed report from the task's `finished` stamp to the start of
        /// the batch that routed it (threaded executor; the name dates from
        /// when a router thread did the routing).
        TimeRouterWaitUs = "time_router_wait_us",
    }
}

pub(crate) const N_COUNTERS: usize = Counter::ALL.len();

vocabulary! {
    /// Last-value gauges (control-side writers only).
    Gauge {
        /// Encode output buffers allocated so far (a Huffman run's
        /// `AllocStats::heap_allocs`).
        AllocHeap = "alloc_heap",
        /// Deepest rollback cascade seen so far (monotonic max).
        CascadeMax = "cascade_max",
        /// SDC detection recall in permille (`1000 * detected vote sets /
        /// corruptions injected at the task-output fault site`); 1000 when
        /// nothing was injected yet.
        SdcRecallPermille = "sdc_recall_permille",
        /// Distinct speculation lineage roots opened so far.
        LineageRoots = "lineage_roots",
        /// Deepest lineage cascade depth opened so far (monotonic max).
        LineageDepthMax = "lineage_depth_max",
        /// Degradation level (`tvs_core::degrade::Level`): 0 = full
        /// speculation (or no machine), 1 = capped cascade depth,
        /// 2 = suspended, 3 = paused (checkpoint eagerly), 4 = probing.
        DegradationLevel = "degradation_level",
    }
}

pub(crate) const N_GAUGES: usize = Gauge::ALL.len();

vocabulary! {
    /// Log₂-bucketed histograms.
    Hist {
        /// Check-task latency (dispatch → completion), µs.
        CheckLatencyUs = "check_latency_us",
        /// Block service time (task-body busy time), µs.
        BlockServiceUs = "block_service_us",
        /// Profiler: length of each uninterrupted worker run slice, µs.
        RunSliceUs = "run_slice_us",
        /// Profiler: length of each worker idle (steal-scan + park) slice, µs.
        IdleSliceUs = "idle_slice_us",
    }
}

pub(crate) const N_HISTS: usize = Hist::ALL.len();

/// Log₂ bucket count: bucket 0 holds value 0, bucket `i ≥ 1` holds values
/// in `[2^(i-1), 2^i)`. 64 value buckets cover the full `u64` range.
pub const HIST_BUCKETS: usize = 65;

/// Bucket index of `v` (see [`HIST_BUCKETS`]).
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (used for quantile approximation).
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvs_trace::EventKind;

    #[test]
    fn bucket_math_covers_u64() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
        for v in [0u64, 1, 2, 5, 100, 1 << 40, u64::MAX] {
            assert!(v <= bucket_upper(bucket_of(v)), "{v}");
        }
    }

    #[test]
    fn disabled_hub_is_inert() {
        let h = Recorder::disabled();
        h.emit(0, EventKind::Park);
        h.emit_control(EventKind::Commit { version: 1 });
        h.add(0, Counter::Steal, 5);
        h.add_control(Counter::Commits, 1);
        h.gauge_set(Gauge::DegradationLevel, 2);
        h.record(Hist::CheckLatencyUs, 10);
        h.set_virtual_now(99);
        assert!(!h.has_registry());
        assert!(!h.is_enabled());
        assert_eq!(h.counter_total(Counter::Steal), 0);
        assert!(h.snapshot().is_none() && h.drain().is_none());
        assert_eq!(h.now_us(), 0);
    }

    #[test]
    fn internal_hub_counts_but_stays_dark() {
        let h = Recorder::counters(2);
        h.add(0, Counter::LaneDispatch, 3);
        h.add(1, Counter::LaneDispatch, 4);
        h.add_control(Counter::Rollbacks, 1);
        h.gauge_set(Gauge::DegradationLevel, 2);
        h.record(Hist::CheckLatencyUs, 10);
        assert!(h.has_registry());
        assert!(!h.is_enabled());
        assert_eq!(h.lane_counts(Counter::LaneDispatch), vec![3, 4]);
        assert_eq!(h.counter_total(Counter::LaneDispatch), 7);
        assert_eq!(h.counter_total(Counter::Rollbacks), 1);
        assert_eq!(h.gauge_get(Gauge::DegradationLevel), 0, "gauges off");
        assert!(h.snapshot().is_none(), "snapshots off");
    }

    #[test]
    fn snapshot_deltas_chain() {
        let r = Recorder::enabled(2);
        r.set_label("test");
        r.add(0, Counter::LaneDispatch, 10);
        r.add_control(Counter::Commits, 2);
        let s1 = r.snapshot().expect("enabled");
        assert_eq!((s1.tick, s1.label.as_str()), (1, "test"));
        assert_eq!(s1.counter(Counter::LaneDispatch).total, 10);
        assert_eq!(s1.counter(Counter::LaneDispatch).delta, 10);
        assert_eq!(s1.counter(Counter::Commits).delta, 2);
        r.add(1, Counter::LaneDispatch, 5);
        let s2 = r.snapshot().expect("enabled");
        assert_eq!(s2.tick, 2);
        assert_eq!(s2.counter(Counter::LaneDispatch).total, 15);
        assert_eq!(s2.counter(Counter::LaneDispatch).delta, 5);
        assert_eq!(s2.counter(Counter::Commits).delta, 0);
        assert_eq!(
            (s2.lane_dispatch, s2.lane_dispatch_delta),
            (vec![10, 5], vec![0, 5])
        );
    }

    #[test]
    fn histograms_snapshot_nonzero_buckets() {
        let r = Recorder::enabled(1);
        for v in [0u64, 1, 1, 3, 100] {
            r.record(Hist::BlockServiceUs, v);
        }
        let s = r.snapshot().unwrap();
        let hs = s.hist(Hist::BlockServiceUs);
        assert_eq!((hs.count, hs.sum), (5, 105));
        // Buckets: 0 → ub 0 (x1), 1 → ub 1 (x2), 3 → ub 3 (x1), 100 → ub 127.
        assert_eq!(hs.buckets, vec![(0, 1), (1, 2), (3, 1), (127, 1)]);
    }

    #[test]
    fn virtual_sampling_fires_on_boundaries() {
        let r = Recorder::enabled(1);
        r.enable_virtual_sampling(100);
        r.set_virtual_now(40);
        r.virtual_tick(40);
        assert!(r.drain_virtual_snapshots().is_empty());
        r.add(0, Counter::LaneDispatch, 1);
        r.set_virtual_now(250);
        r.virtual_tick(250);
        let snaps = r.drain_virtual_snapshots();
        assert_eq!(snaps.len(), 2, "boundaries 100 and 200");
        assert_eq!((snaps[0].t_us, snaps[1].t_us), (100, 200));
        assert_eq!(snaps[0].counter(Counter::LaneDispatch).delta, 1);
        assert_eq!(snaps[1].counter(Counter::LaneDispatch).delta, 0);
    }

    #[test]
    fn virtual_clock_wins_once_fed() {
        let h = Recorder::enabled(1);
        h.set_virtual_now(1234);
        assert_eq!(h.now_us(), 1234);
    }
}
