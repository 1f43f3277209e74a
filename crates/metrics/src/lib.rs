//! Live metrics plane for the TVS runtime.
//!
//! Where `tvs-trace` records *events* for post-hoc analysis, this crate
//! keeps *aggregates* readable mid-run: a lock-free sharded registry of
//! counters, gauges and log-bucketed histograms that the executors, the
//! speculation manager, the commit ring and the undo journal all write
//! into, plus a [`Sampler`] that coalesces the shards
//! into periodic [`MetricsSnapshot`] deltas for a dashboard (`tvs-top`),
//! a Prometheus-style `/metrics` endpoint, or a JSONL recorder.
//!
//! Design constraints, in order (mirroring the tracer's):
//!
//! 1. **Zero cost when disabled.** A [`MetricsHub`] is a cheap cloneable
//!    handle around `Option<Arc<…>>`; the disabled hub is `None` and every
//!    write is one predictable branch.
//! 2. **No hot-path contention when enabled.** Counters live in
//!    cache-line-aligned per-worker *shards* (`#[repr(align(64))]`, one
//!    writer per shard in steady state, relaxed atomics), with one extra
//!    *control* shard for writes made under the commit lock. Histograms
//!    and gauges are written by one thread at a time — whichever holds
//!    the commit lock for its commit-path turn (the scheduler and the
//!    speculation manager run inside that turn) — so their relaxed
//!    atomics are never contended either.
//! 3. **Deterministic in the simulator.** The discrete-event executor
//!    drives the hub's ambient clock with [`MetricsHub::set_virtual_now`]
//!    and takes snapshots on *virtual-time* tick boundaries
//!    ([`MetricsHub::virtual_tick`]): same seed, same event order, same
//!    byte-identical snapshot stream.
//!
//! The hub has three construction modes: [`MetricsHub::disabled`] (no
//! registry, all writes no-ops), [`MetricsHub::internal`] (registry
//! allocated, counters on, clock/histogram/gauge features off — what the
//! threaded executor uses instead of bespoke per-lane atomics, at the
//! same cost), and [`MetricsHub::enabled`] (the full live plane).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod sampler;
pub mod snapshot;

pub use sampler::Sampler;
pub use snapshot::{CounterWindow, HistSnapshot, MetricsSnapshot};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Monotonic counters, one cell per shard (per worker lane + control).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Tasks bound to a ready lane (per-lane when written to lane shards).
    LaneDispatch = 0,
    /// Tasks taken from another lane's back (attributed to the thief).
    Steal,
    /// Completions delivered to the workload.
    TasksDelivered,
    /// Completions discarded because their version was aborted.
    TasksDiscarded,
    /// Ready tasks deleted by version aborts before dispatch.
    DeletedReady,
    /// Version rollbacks.
    Rollbacks,
    /// Version commits.
    Commits,
    /// Predictor fires (speculation attempts).
    Predictions,
    /// Tolerance checks that passed.
    ChecksPassed,
    /// Tolerance checks that failed.
    ChecksFailed,
    /// Task-body panics caught by an executor.
    Faults,
    /// Non-speculative retry attempts after a caught fault.
    Retries,
    /// Watchdog deadline cancellations.
    WatchdogCancels,
    /// Duplicate completion reports absorbed by the scheduler.
    DuplicateCompletions,
    /// Worker-busy µs charged to completed tasks.
    BusyUs,
    /// Worker µs wasted on discarded (misspeculated/faulted) work.
    WastedUs,
    /// Undo-journal entries replayed by aborts.
    UndoReplays,
    /// Replica tasks spawned for replication-based validation.
    ReplicaDispatches,
    /// Replica vote sets that resolved clean on first comparison.
    ReplicaMatches,
    /// Silent-data-corruption detections (divergent replica digests).
    SdcDetected,
    /// Divergent vote sets resolved by a tiebreak re-execution.
    SdcResolved,
    /// Total µs the executors slept in jittered retry backoff.
    RetryBackoffUs,
    /// Profiler: µs spent running primary/replica task bodies.
    TimeRunUs,
    /// Profiler: µs spent acquiring work (dispatch scans + steal probes).
    TimeStealUs,
    /// Profiler: µs spent parked waiting for work or completions.
    TimeParkUs,
    /// Profiler: µs spent running tolerance-check task bodies.
    TimeCheckUs,
    /// Profiler: µs spent inside the commit path (scheduler/commit lock).
    TimeCommitUs,
    /// Profiler: µs completion reports waited for the commit path, summed
    /// per routed report from the task's `finished` stamp to the start of
    /// the batch that routed it (threaded executor; the name dates from
    /// when a router thread did the routing).
    TimeRouterWaitUs,
    /// Completion reports rejected by the commit path's worker-epoch gate:
    /// the reporting worker had been quarantined (or the report was a
    /// duplicated-completion injection), so delivering it could
    /// double-commit.
    StaleCompletionsRejected,
    /// Workers respawned by the supervisor after a missed heartbeat.
    WorkerRespawns,
}

impl Counter {
    /// Every counter, in stable exposition order.
    pub const ALL: [Counter; 30] = [
        Counter::LaneDispatch,
        Counter::Steal,
        Counter::TasksDelivered,
        Counter::TasksDiscarded,
        Counter::DeletedReady,
        Counter::Rollbacks,
        Counter::Commits,
        Counter::Predictions,
        Counter::ChecksPassed,
        Counter::ChecksFailed,
        Counter::Faults,
        Counter::Retries,
        Counter::WatchdogCancels,
        Counter::DuplicateCompletions,
        Counter::BusyUs,
        Counter::WastedUs,
        Counter::UndoReplays,
        Counter::ReplicaDispatches,
        Counter::ReplicaMatches,
        Counter::SdcDetected,
        Counter::SdcResolved,
        Counter::RetryBackoffUs,
        Counter::TimeRunUs,
        Counter::TimeStealUs,
        Counter::TimeParkUs,
        Counter::TimeCheckUs,
        Counter::TimeCommitUs,
        Counter::TimeRouterWaitUs,
        Counter::StaleCompletionsRejected,
        Counter::WorkerRespawns,
    ];

    /// Stable snake_case name used by the JSONL and Prometheus exports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::LaneDispatch => "lane_dispatch",
            Counter::Steal => "steal",
            Counter::TasksDelivered => "tasks_delivered",
            Counter::TasksDiscarded => "tasks_discarded",
            Counter::DeletedReady => "deleted_ready",
            Counter::Rollbacks => "rollbacks",
            Counter::Commits => "commits",
            Counter::Predictions => "predictions",
            Counter::ChecksPassed => "checks_passed",
            Counter::ChecksFailed => "checks_failed",
            Counter::Faults => "faults",
            Counter::Retries => "retries",
            Counter::WatchdogCancels => "watchdog_cancels",
            Counter::DuplicateCompletions => "duplicate_completions",
            Counter::BusyUs => "busy_us",
            Counter::WastedUs => "wasted_us",
            Counter::UndoReplays => "undo_replays",
            Counter::ReplicaDispatches => "replica_dispatches",
            Counter::ReplicaMatches => "replica_matches",
            Counter::SdcDetected => "sdc_detected",
            Counter::SdcResolved => "sdc_resolved",
            Counter::RetryBackoffUs => "retry_backoff_us",
            Counter::TimeRunUs => "time_run_us",
            Counter::TimeStealUs => "time_steal_us",
            Counter::TimeParkUs => "time_park_us",
            Counter::TimeCheckUs => "time_check_us",
            Counter::TimeCommitUs => "time_commit_us",
            Counter::TimeRouterWaitUs => "time_router_wait_us",
            Counter::StaleCompletionsRejected => "stale_completions_rejected",
            Counter::WorkerRespawns => "worker_respawns",
        }
    }
}

const N_COUNTERS: usize = Counter::ALL.len();

/// Last-value gauges (control-side writers only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Commit-ring occupancy observed at the last commit-path drain.
    RingOccupancy = 0,
    /// Arena/pool heap allocations (from `AllocStats::heap_allocs`).
    AllocHeap,
    /// Arena/pool recycled allocations (from `AllocStats::reuses`).
    AllocReuse,
    /// Deepest rollback cascade seen so far (monotonic max).
    CascadeMax,
    /// SDC detection recall in permille (`1000 * detected vote sets /
    /// corruptions injected at the task-output fault site`); 1000 when
    /// nothing was injected yet.
    SdcRecallPermille,
    /// Distinct speculation lineage roots opened so far.
    LineageRoots,
    /// Deepest lineage cascade depth opened so far (monotonic max).
    LineageDepthMax,
    /// Degradation level (`tvs_core::degrade::Level`): 0 = full
    /// speculation (or no machine), 1 = capped cascade depth,
    /// 2 = suspended, 3 = paused (checkpoint eagerly), 4 = probing.
    DegradationLevel,
}

impl Gauge {
    /// Every gauge, in stable exposition order.
    pub const ALL: [Gauge; 8] = [
        Gauge::RingOccupancy,
        Gauge::AllocHeap,
        Gauge::AllocReuse,
        Gauge::CascadeMax,
        Gauge::SdcRecallPermille,
        Gauge::LineageRoots,
        Gauge::LineageDepthMax,
        Gauge::DegradationLevel,
    ];

    /// Stable snake_case name used by the JSONL and Prometheus exports.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::RingOccupancy => "ring_occupancy",
            Gauge::AllocHeap => "alloc_heap",
            Gauge::AllocReuse => "alloc_reuse",
            Gauge::CascadeMax => "cascade_max",
            Gauge::SdcRecallPermille => "sdc_recall_permille",
            Gauge::LineageRoots => "lineage_roots",
            Gauge::LineageDepthMax => "lineage_depth_max",
            Gauge::DegradationLevel => "degradation_level",
        }
    }
}

const N_GAUGES: usize = Gauge::ALL.len();

/// Log₂-bucketed histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Check-task latency (dispatch → completion), µs.
    CheckLatencyUs = 0,
    /// Block service time (task-body busy time), µs.
    BlockServiceUs,
    /// Commit-ring occupancy sampled at each commit-path drain.
    RingOccupancy,
    /// Profiler: length of each uninterrupted worker run slice, µs.
    RunSliceUs,
    /// Profiler: length of each worker idle (steal-scan + park) slice, µs.
    IdleSliceUs,
}

impl Hist {
    /// Every histogram, in stable exposition order.
    pub const ALL: [Hist; 5] = [
        Hist::CheckLatencyUs,
        Hist::BlockServiceUs,
        Hist::RingOccupancy,
        Hist::RunSliceUs,
        Hist::IdleSliceUs,
    ];

    /// Stable snake_case name used by the JSONL and Prometheus exports.
    pub fn name(self) -> &'static str {
        match self {
            Hist::CheckLatencyUs => "check_latency_us",
            Hist::BlockServiceUs => "block_service_us",
            Hist::RingOccupancy => "ring_occupancy",
            Hist::RunSliceUs => "run_slice_us",
            Hist::IdleSliceUs => "idle_slice_us",
        }
    }
}

const N_HISTS: usize = Hist::ALL.len();

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

/// One cache line of counters, written by a single lane in steady state.
///
/// `#[repr(align(64))]` keeps neighbouring shards off each other's cache
/// lines without `unsafe` padding tricks (the workspace forbids unsafe).
#[repr(align(64))]
struct Shard {
    counters: [AtomicU64; N_COUNTERS],
}

impl Shard {
    fn new() -> Self {
        Shard {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A log₂-bucketed histogram of relaxed atomics.
struct LogHist {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl LogHist {
    fn new() -> Self {
        LogHist {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    #[inline]
    fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((bucket_upper(i), n));
            }
        }
        HistSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Delta baseline advanced by each snapshot.
struct Baseline {
    tick: u64,
    counters: [u64; N_COUNTERS],
    lane_dispatch: Vec<u64>,
    lane_steal: Vec<u64>,
}

/// Virtual-time sampling state (simulator runs).
struct VirtSampling {
    /// Snapshot period in virtual µs; 0 = off.
    tick_us: u64,
    /// Next virtual boundary a snapshot is due at.
    next_us: u64,
    /// Snapshots accumulated so far (drained by the harness after the run).
    snaps: Vec<MetricsSnapshot>,
}

struct Registry {
    /// `workers + 1` shards; the last is the control shard, written under
    /// the commit lock (scheduler, speculation manager, undo journal).
    shards: Vec<Shard>,
    gauges: [AtomicU64; N_GAUGES],
    hists: [LogHist; N_HISTS],
    /// Full live plane (clock, gauges, histograms, snapshots) vs
    /// counters-only internal mode.
    live: bool,
    start: Instant,
    virt_now: AtomicU64,
    virt_used: AtomicBool,
    label: Mutex<String>,
    baseline: Mutex<Baseline>,
    virt_sampling: Mutex<VirtSampling>,
}

/// A cheap cloneable handle to the (optional) metrics registry.
///
/// All write methods are no-ops on a [`MetricsHub::disabled`] hub, and
/// gauge/histogram/clock writes are additionally no-ops in
/// [`MetricsHub::internal`] mode — counters are always on when a registry
/// exists, because the executors use them *instead of* bespoke atomics.
#[derive(Clone)]
pub struct MetricsHub {
    inner: Option<Arc<Registry>>,
}

impl std::fmt::Debug for MetricsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "MetricsHub(disabled)"),
            Some(r) => write!(
                f,
                "MetricsHub(workers={}, live={})",
                r.shards.len() - 1,
                r.live
            ),
        }
    }
}

impl MetricsHub {
    /// The no-op hub: no registry, every write a single branch.
    pub fn disabled() -> Self {
        MetricsHub { inner: None }
    }

    /// The full live plane for `workers` lanes (+ one control shard).
    pub fn enabled(workers: usize) -> Self {
        Self::with_mode(workers, true)
    }

    /// Counters-only registry: what an executor allocates for its own
    /// bookkeeping when the caller did not ask for live telemetry. Same
    /// cost as the bespoke per-lane atomics it replaces; the clock,
    /// gauges, histograms and snapshots stay off.
    pub fn internal(workers: usize) -> Self {
        Self::with_mode(workers, false)
    }

    fn with_mode(workers: usize, live: bool) -> Self {
        let shards = (0..=workers).map(|_| Shard::new()).collect();
        MetricsHub {
            inner: Some(Arc::new(Registry {
                shards,
                gauges: std::array::from_fn(|_| AtomicU64::new(0)),
                hists: std::array::from_fn(|_| LogHist::new()),
                live,
                start: Instant::now(),
                virt_now: AtomicU64::new(0),
                virt_used: AtomicBool::new(false),
                label: Mutex::new(String::new()),
                baseline: Mutex::new(Baseline {
                    tick: 0,
                    counters: [0; N_COUNTERS],
                    lane_dispatch: vec![0; workers],
                    lane_steal: vec![0; workers],
                }),
                virt_sampling: Mutex::new(VirtSampling {
                    tick_us: 0,
                    next_us: 0,
                    snaps: Vec::new(),
                }),
            })),
        }
    }

    /// Whether the full live plane is on (clock, gauges, histograms,
    /// snapshots). `false` for disabled *and* internal hubs.
    #[inline]
    pub fn is_live(&self) -> bool {
        self.inner.as_ref().map(|r| r.live).unwrap_or(false)
    }

    /// Whether any registry exists (counters are being accumulated).
    #[inline]
    pub fn has_registry(&self) -> bool {
        self.inner.is_some()
    }

    /// Worker-lane count the registry was sized for (0 when disabled).
    pub fn workers(&self) -> usize {
        self.inner.as_ref().map(|r| r.shards.len() - 1).unwrap_or(0)
    }

    /// Free-form run label stamped onto snapshots (e.g. the policy).
    pub fn set_label(&self, label: &str) {
        if let Some(r) = &self.inner {
            if let Ok(mut l) = r.label.lock() {
                *l = label.to_string();
            }
        }
    }

    /// Add `n` to counter `c` on shard `shard` (a worker lane index, or
    /// [`MetricsHub::workers`] for the control shard).
    #[inline]
    pub fn add(&self, shard: usize, c: Counter, n: u64) {
        if let Some(r) = &self.inner {
            debug_assert!(shard < r.shards.len(), "shard {shard} out of range");
            if let Some(s) = r.shards.get(shard) {
                s.counters[c as usize].fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Add `n` to counter `c` on the control shard (commit-lock writers).
    #[inline]
    pub fn add_control(&self, c: Counter, n: u64) {
        if let Some(r) = &self.inner {
            let last = r.shards.len() - 1;
            r.shards[last].counters[c as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Sum of counter `c` across every shard.
    pub fn counter_total(&self, c: Counter) -> u64 {
        match &self.inner {
            None => 0,
            Some(r) => r
                .shards
                .iter()
                .map(|s| s.counters[c as usize].load(Ordering::Relaxed))
                .sum(),
        }
    }

    /// Per-worker-lane values of counter `c` (control shard excluded).
    pub fn lane_counts(&self, c: Counter) -> Vec<u64> {
        match &self.inner {
            None => Vec::new(),
            Some(r) => r.shards[..r.shards.len() - 1]
                .iter()
                .map(|s| s.counters[c as usize].load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Set gauge `g` to `v` (live hubs only).
    #[inline]
    pub fn gauge_set(&self, g: Gauge, v: u64) {
        if let Some(r) = &self.inner {
            if r.live {
                r.gauges[g as usize].store(v, Ordering::Relaxed);
            }
        }
    }

    /// Raise gauge `g` to at least `v` (live hubs only).
    #[inline]
    pub fn gauge_max(&self, g: Gauge, v: u64) {
        if let Some(r) = &self.inner {
            if r.live {
                r.gauges[g as usize].fetch_max(v, Ordering::Relaxed);
            }
        }
    }

    /// Current value of gauge `g`.
    pub fn gauge_get(&self, g: Gauge) -> u64 {
        match &self.inner {
            None => 0,
            Some(r) => r.gauges[g as usize].load(Ordering::Relaxed),
        }
    }

    /// Record `v` into histogram `h` (live hubs only).
    #[inline]
    pub fn record(&self, h: Hist, v: u64) {
        if let Some(r) = &self.inner {
            if r.live {
                r.hists[h as usize].record(v);
            }
        }
    }

    /// Feed the ambient virtual clock (simulator). Marks the hub
    /// virtual-timed: [`MetricsHub::now_us`] and snapshot timestamps use
    /// this clock from then on.
    #[inline]
    pub fn set_virtual_now(&self, us: u64) {
        if let Some(r) = &self.inner {
            if r.live {
                r.virt_now.store(us, Ordering::Relaxed);
                if !r.virt_used.load(Ordering::Relaxed) {
                    r.virt_used.store(true, Ordering::Relaxed);
                }
            }
        }
    }

    /// The hub's clock, µs: virtual time when the simulator has fed it,
    /// wall time since hub creation otherwise. 0 unless live.
    #[inline]
    pub fn now_us(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(r) => {
                if !r.live {
                    0
                } else if r.virt_used.load(Ordering::Relaxed) {
                    r.virt_now.load(Ordering::Relaxed)
                } else {
                    r.start.elapsed().as_micros() as u64
                }
            }
        }
    }

    /// Arm virtual-time sampling: a snapshot is taken at every multiple
    /// of `tick_us` of virtual time as [`MetricsHub::virtual_tick`]
    /// observes the clock pass it. Deterministic for deterministic runs.
    pub fn enable_virtual_sampling(&self, tick_us: u64) {
        if let Some(r) = &self.inner {
            if r.live {
                if let Ok(mut v) = r.virt_sampling.lock() {
                    v.tick_us = tick_us.max(1);
                    v.next_us = v.tick_us;
                    v.snaps.clear();
                }
            }
        }
    }

    /// Called by the simulator after advancing virtual time to `now_us`:
    /// emits one snapshot per elapsed tick boundary, each stamped with
    /// its boundary time.
    pub fn virtual_tick(&self, now_us: u64) {
        let Some(r) = &self.inner else { return };
        if !r.live {
            return;
        }
        // Fast path: sampling off or boundary not reached.
        let due = match r.virt_sampling.lock() {
            Ok(v) => v.tick_us > 0 && now_us >= v.next_us,
            Err(_) => false,
        };
        if !due {
            return;
        }
        loop {
            let boundary = {
                let Ok(mut v) = r.virt_sampling.lock() else {
                    return;
                };
                if v.tick_us == 0 || now_us < v.next_us {
                    return;
                }
                let b = v.next_us;
                v.next_us += v.tick_us;
                b
            };
            if let Some(snap) = self.snapshot_at(boundary) {
                if let Ok(mut v) = r.virt_sampling.lock() {
                    v.snaps.push(snap);
                }
            }
        }
    }

    /// Take the snapshots accumulated by virtual-time sampling.
    pub fn drain_virtual_snapshots(&self) -> Vec<MetricsSnapshot> {
        match &self.inner {
            None => Vec::new(),
            Some(r) => match r.virt_sampling.lock() {
                Ok(mut v) => std::mem::take(&mut v.snaps),
                Err(_) => Vec::new(),
            },
        }
    }

    /// Coalesce all shards into a [`MetricsSnapshot`], with deltas against
    /// the previous snapshot. `None` unless the hub is live.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.snapshot_at(self.now_us())
    }

    fn snapshot_at(&self, t_us: u64) -> Option<MetricsSnapshot> {
        let r = self.inner.as_ref()?;
        if !r.live {
            return None;
        }
        let workers = r.shards.len() - 1;
        let mut totals = [0u64; N_COUNTERS];
        for s in &r.shards {
            for (i, c) in s.counters.iter().enumerate() {
                totals[i] += c.load(Ordering::Relaxed);
            }
        }
        let lane_dispatch = self.lane_counts(Counter::LaneDispatch);
        let lane_steal = self.lane_counts(Counter::Steal);
        let mut base = r.baseline.lock().ok()?;
        base.tick += 1;
        let counters: Vec<CounterWindow> = totals
            .iter()
            .zip(base.counters.iter())
            .map(|(&total, &prev)| CounterWindow {
                total,
                delta: total.saturating_sub(prev),
            })
            .collect();
        let lane_dispatch_delta: Vec<u64> = lane_dispatch
            .iter()
            .zip(base.lane_dispatch.iter())
            .map(|(&t, &p)| t.saturating_sub(p))
            .collect();
        let lane_steal_delta: Vec<u64> = lane_steal
            .iter()
            .zip(base.lane_steal.iter())
            .map(|(&t, &p)| t.saturating_sub(p))
            .collect();
        let snap = MetricsSnapshot {
            tick: base.tick,
            t_us,
            label: r.label.lock().map(|l| l.clone()).unwrap_or_default(),
            workers,
            counters,
            lane_dispatch: lane_dispatch.clone(),
            lane_dispatch_delta,
            lane_steal: lane_steal.clone(),
            lane_steal_delta,
            gauges: r.gauges.iter().map(|g| g.load(Ordering::Relaxed)).collect(),
            hists: r.hists.iter().map(|h| h.snapshot()).collect(),
        };
        base.counters = totals;
        base.lane_dispatch = lane_dispatch;
        base.lane_steal = lane_steal;
        Some(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hub_is_inert() {
        let h = MetricsHub::disabled();
        h.add(0, Counter::Steal, 5);
        h.add_control(Counter::Commits, 1);
        h.gauge_set(Gauge::DegradationLevel, 2);
        h.record(Hist::CheckLatencyUs, 10);
        assert!(!h.has_registry());
        assert!(!h.is_live());
        assert_eq!(h.counter_total(Counter::Steal), 0);
        assert!(h.snapshot().is_none());
        assert_eq!(h.now_us(), 0);
    }

    #[test]
    fn internal_hub_counts_but_stays_dark() {
        let h = MetricsHub::internal(2);
        h.add(0, Counter::LaneDispatch, 3);
        h.add(1, Counter::LaneDispatch, 4);
        h.add_control(Counter::Rollbacks, 1);
        h.gauge_set(Gauge::DegradationLevel, 2);
        h.record(Hist::CheckLatencyUs, 10);
        assert!(h.has_registry());
        assert!(!h.is_live());
        assert_eq!(h.lane_counts(Counter::LaneDispatch), vec![3, 4]);
        assert_eq!(h.counter_total(Counter::LaneDispatch), 7);
        assert_eq!(h.counter_total(Counter::Rollbacks), 1);
        assert_eq!(h.gauge_get(Gauge::DegradationLevel), 0, "gauges off");
        assert!(h.snapshot().is_none(), "snapshots off");
    }

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
    fn snapshot_deltas_chain() {
        let h = MetricsHub::enabled(2);
        h.set_label("test");
        h.add(0, Counter::LaneDispatch, 10);
        h.add_control(Counter::Commits, 2);
        let s1 = h.snapshot().expect("live");
        assert_eq!(s1.tick, 1);
        assert_eq!(s1.label, "test");
        assert_eq!(s1.counter(Counter::LaneDispatch).total, 10);
        assert_eq!(s1.counter(Counter::LaneDispatch).delta, 10);
        assert_eq!(s1.counter(Counter::Commits).delta, 2);
        h.add(1, Counter::LaneDispatch, 5);
        let s2 = h.snapshot().expect("live");
        assert_eq!(s2.tick, 2);
        assert_eq!(s2.counter(Counter::LaneDispatch).total, 15);
        assert_eq!(s2.counter(Counter::LaneDispatch).delta, 5);
        assert_eq!(s2.counter(Counter::Commits).delta, 0);
        assert_eq!(s2.lane_dispatch, vec![10, 5]);
        assert_eq!(s2.lane_dispatch_delta, vec![0, 5]);
    }

    #[test]
    fn histograms_snapshot_nonzero_buckets() {
        let h = MetricsHub::enabled(1);
        for v in [0u64, 1, 1, 3, 100] {
            h.record(Hist::BlockServiceUs, v);
        }
        let s = h.snapshot().unwrap();
        let hs = s.hist(Hist::BlockServiceUs);
        assert_eq!(hs.count, 5);
        assert_eq!(hs.sum, 105);
        // Buckets: 0 → ub 0 (x1), 1 → ub 1 (x2), 3 → ub 3 (x1), 100 → ub 127.
        assert_eq!(hs.buckets, vec![(0, 1), (1, 2), (3, 1), (127, 1)]);
    }

    #[test]
    fn virtual_sampling_fires_on_boundaries() {
        let h = MetricsHub::enabled(1);
        h.enable_virtual_sampling(100);
        h.set_virtual_now(40);
        h.virtual_tick(40);
        assert!(h.drain_virtual_snapshots().is_empty());
        h.add(0, Counter::LaneDispatch, 1);
        h.set_virtual_now(250);
        h.virtual_tick(250);
        let snaps = h.drain_virtual_snapshots();
        assert_eq!(snaps.len(), 2, "boundaries 100 and 200");
        assert_eq!(snaps[0].t_us, 100);
        assert_eq!(snaps[1].t_us, 200);
        assert_eq!(snaps[0].counter(Counter::LaneDispatch).delta, 1);
        assert_eq!(snaps[1].counter(Counter::LaneDispatch).delta, 0);
    }

    #[test]
    fn virtual_clock_wins_once_fed() {
        let h = MetricsHub::enabled(1);
        h.set_virtual_now(1234);
        assert_eq!(h.now_us(), 1234);
    }
}
