//! The [`Recorder`]: the one store a run writes its runtime facts to.

use crate::ring::Ring;
use crate::snapshot::{CounterWindow, HistSnapshot, MetricsSnapshot};
use crate::{
    bucket_of, bucket_upper, Counter, Gauge, Hist, HIST_BUCKETS, N_COUNTERS, N_GAUGES, N_HISTS,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use tvs_trace::{ClassTag, EventKind, Timebase, TraceEvent, TraceLog};

/// Lock `m`, recovering the guard when a panicking thread poisoned it.
///
/// Every structure behind a mutex in the runtime is either plain data (a
/// ring, a lane, a label) or guarded state whose invariants the fault path
/// itself restores, so dying on the poison flag would only turn one
/// recovered panic into a wedged run.
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Default per-shard ring capacity (events). 64 Ki events ≈ 3 MiB per
/// worker — several seconds of coarse-grain task flow before a ring starts
/// dropping (and counting) its oldest events.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// One worker's (or the control path's) slice of the store: its counters
/// and, when rings are on, its bounded event ring. Written by one thread
/// at a time in steady state; `#[repr(align(64))]` keeps neighbouring
/// shards off each other's cache lines without `unsafe` padding.
#[repr(align(64))]
struct Shard {
    counters: [AtomicU64; N_COUNTERS],
    /// Overwrite-oldest event ring; `None` on a counters-only recorder.
    ring: Option<Ring>,
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

    fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistSnapshot {
        let buckets = (self.buckets.iter().enumerate())
            .map(|(i, b)| (bucket_upper(i), b.load(Ordering::Relaxed)))
            .filter(|&(_, n)| n > 0)
            .collect();
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
#[derive(Default)]
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
    /// the commit lock (scheduler, speculation manager, replication plane).
    shards: Vec<Shard>,
    gauges: [AtomicU64; N_GAUGES],
    hists: [LogHist; N_HISTS],
    /// Per-ring capacity; 0 on a counters-only recorder, which keeps no
    /// rings, gauges, histograms or snapshots.
    cap: usize,
    /// Emission counter: a total order across rings.
    seq: AtomicU64,
    /// The wall clock reads µs since `created`, less `origin_us`.
    created: Instant,
    origin_us: AtomicU64,
    /// Ambient virtual clock, fed by the simulator.
    virt_now: AtomicU64,
    /// Whether the virtual clock was ever set: the run's clock is virtual.
    virt_used: AtomicBool,
    label: Mutex<String>,
    baseline: Mutex<Baseline>,
    virt_sampling: Mutex<VirtSampling>,
}

impl Registry {
    fn live(&self) -> bool {
        self.cap > 0
    }

    fn control(&self) -> usize {
        self.shards.len() - 1
    }

    fn wall_us(&self) -> u64 {
        (self.created.elapsed().as_micros() as u64)
            .saturating_sub(self.origin_us.load(Ordering::Relaxed))
    }

    fn now_us(&self) -> u64 {
        if self.virt_used.load(Ordering::Relaxed) {
            self.virt_now.load(Ordering::Relaxed)
        } else {
            self.wall_us()
        }
    }

    fn add(&self, shard: usize, c: Counter, n: u64) {
        self.shards[shard].counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    fn gauge_max(&self, g: Gauge, v: u64) {
        self.gauges[g as usize].fetch_max(v, Ordering::Relaxed);
    }

    fn record_hist(&self, h: Hist, v: u64) {
        self.hists[h as usize].record(v);
    }

    /// Charge what `kind` implies: counters always, gauges and histograms
    /// on a live recorder.
    fn charge(&self, shard: usize, kind: &EventKind) {
        let live = self.live();
        match *kind {
            EventKind::Dispatch { .. } => self.add(shard, Counter::LaneDispatch, 1),
            EventKind::Steal { .. } => self.add(shard, Counter::Steal, 1),
            EventKind::TaskEnd {
                class,
                discarded,
                faulted,
                busy_us,
                ..
            } => {
                self.add(shard, Counter::BusyUs, busy_us);
                if discarded {
                    self.add(shard, Counter::WastedUs, busy_us);
                }
                if !faulted {
                    let settled = if discarded {
                        Counter::TasksDiscarded
                    } else {
                        Counter::TasksDelivered
                    };
                    self.add(shard, settled, 1);
                }
                let clock = if class == ClassTag::Check {
                    Counter::TimeCheckUs
                } else {
                    Counter::TimeRunUs
                };
                self.add(shard, clock, busy_us);
                if live {
                    self.record_hist(Hist::RunSliceUs, busy_us);
                    if matches!(class, ClassTag::Regular | ClassTag::Speculative) {
                        self.record_hist(Hist::BlockServiceUs, busy_us);
                    }
                }
            }
            EventKind::CancelReady { .. } => self.add(shard, Counter::DeletedReady, 1),
            EventKind::Rollback { cascade_depth, .. } => {
                self.add(shard, Counter::Rollbacks, 1);
                self.add(shard, Counter::DeletedReady, cascade_depth);
                if live {
                    self.gauge_max(Gauge::CascadeMax, cascade_depth);
                }
            }
            EventKind::LineageOpen { depth, .. } => {
                self.add(shard, Counter::Predictions, 1);
                if live {
                    if depth == 0 {
                        self.gauges[Gauge::LineageRoots as usize].fetch_add(1, Ordering::Relaxed);
                    }
                    self.gauge_max(Gauge::LineageDepthMax, u64::from(depth));
                }
            }
            EventKind::CheckPass { .. } => self.add(shard, Counter::ChecksPassed, 1),
            EventKind::CheckFail { .. } => self.add(shard, Counter::ChecksFailed, 1),
            EventKind::Commit { .. } => self.add(shard, Counter::Commits, 1),
            EventKind::TaskFault { .. } => self.add(shard, Counter::Faults, 1),
            EventKind::WatchdogCancel { .. } => self.add(shard, Counter::WatchdogCancels, 1),
            EventKind::ReplicaDispatch { .. } => self.add(shard, Counter::ReplicaDispatches, 1),
            EventKind::ReplicaMatch { .. } => self.add(shard, Counter::ReplicaMatches, 1),
            EventKind::SdcDetected { .. } => self.add(shard, Counter::SdcDetected, 1),
            EventKind::SdcResolved { .. } => self.add(shard, Counter::SdcResolved, 1),
            EventKind::WorkerRespawn { .. } => self.add(shard, Counter::WorkerRespawns, 1),
            EventKind::DegradeStep { to, .. } if live => {
                self.gauges[Gauge::DegradationLevel as usize]
                    .store(u64::from(to), Ordering::Relaxed);
            }
            // Park/unpark, task starts, predictor fires, version opens,
            // probes and quarantines imply no count of their own.
            _ => {}
        }
    }

    /// Record one fact on `shard` (clamped onto the control shard): charge
    /// it, then append it to the shard's ring when rings are on. `at` is an
    /// explicit stamp on the run's clock; `None` stamps it now.
    fn record(&self, shard: usize, at: Option<u64>, kind: EventKind) {
        let shard = shard.min(self.control());
        self.charge(shard, &kind);
        let Some(ring) = &self.shards[shard].ring else {
            return;
        };
        let (wall, virt) = (self.wall_us(), self.virt_now.load(Ordering::Relaxed));
        let (wall_us, virt_us) = match at {
            None => (wall, virt),
            Some(at) if self.virt_used.load(Ordering::Relaxed) => (wall, at),
            Some(at) => (at, virt),
        };
        let ev = TraceEvent {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            worker: shard as u32,
            wall_us,
            virt_us,
            kind,
        };
        ring.push(ev);
    }

    fn totals(&self) -> [u64; N_COUNTERS] {
        let mut totals = [0u64; N_COUNTERS];
        for s in &self.shards {
            for (t, c) in totals.iter_mut().zip(&s.counters) {
                *t += c.load(Ordering::Relaxed);
            }
        }
        totals
    }

    fn lane_counts(&self, c: Counter) -> Vec<u64> {
        self.shards[..self.control()]
            .iter()
            .map(|s| s.counters[c as usize].load(Ordering::Relaxed))
            .collect()
    }

    fn snapshot_at(&self, t_us: u64) -> MetricsSnapshot {
        let totals = self.totals();
        let lane_dispatch = self.lane_counts(Counter::LaneDispatch);
        let lane_steal = self.lane_counts(Counter::Steal);
        let delta = |now: &[u64], prev: &[u64]| -> Vec<u64> {
            now.iter()
                .zip(prev)
                .map(|(&t, &p)| t.saturating_sub(p))
                .collect()
        };
        let mut base = lock_recover(&self.baseline);
        base.tick += 1;
        let snap = MetricsSnapshot {
            tick: base.tick,
            t_us,
            label: lock_recover(&self.label).clone(),
            workers: self.control(),
            counters: (totals.iter().zip(&base.counters))
                .map(|(&total, &prev)| CounterWindow {
                    total,
                    delta: total.saturating_sub(prev),
                })
                .collect(),
            lane_dispatch_delta: delta(&lane_dispatch, &base.lane_dispatch),
            lane_steal_delta: delta(&lane_steal, &base.lane_steal),
            lane_dispatch: lane_dispatch.clone(),
            lane_steal: lane_steal.clone(),
            gauges: self
                .gauges
                .iter()
                .map(|g| g.load(Ordering::Relaxed))
                .collect(),
            hists: self.hists.iter().map(LogHist::snapshot).collect(),
        };
        base.counters = totals;
        base.lane_dispatch = lane_dispatch;
        base.lane_steal = lane_steal;
        snap
    }
}

/// The one store of a run's runtime facts, behind a cheap cloneable handle.
///
/// A fact is recorded by one call — [`Recorder::emit`] and its stamped and
/// control-shard forms — as an [`EventKind`] on one per-worker shard. The
/// call charges every counter, gauge and histogram the event implies, and
/// appends the event to the shard's ring when rings are on. A quantity no
/// event carries (a steal scan's or a park's duration, commit-path time,
/// retry backoff, a gauge of the encode buffers) keeps a direct
/// [`Recorder::add`], [`Recorder::gauge_set`] or [`Recorder::record`] on
/// the same handle. One clock stamps everything: virtual time once the
/// simulator feeds it, otherwise wall time since [`Recorder::start_clock`].
///
/// Three modes:
///
/// * [`Recorder::disabled`] (also `Default`): no store; every write is one
///   never-taken branch.
/// * [`Recorder::counters`]: counters only — what an executor keeps for
///   its own run metrics in a dark run.
/// * [`Recorder::enabled`] / [`Recorder::with_capacity`]: counters plus
///   event rings, gauges, histograms and snapshots.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Registry>>,
}

/// The name the end-to-end benchmark imports the recorder under
/// (`MetricsHub::{enabled, counter_total}`). It exists only for that
/// benchmark and goes when the benchmark is ported to [`Recorder`]
/// (ROADMAP, "One seam").
pub type MetricsHub = Recorder;

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Recorder(disabled)"),
            Some(r) => write!(f, "Recorder(workers={}, cap={})", r.control(), r.cap),
        }
    }
}

impl Recorder {
    /// No store: every write is a single branch, nothing is read back.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// Counters only, for `workers` lanes plus a control shard: no rings,
    /// gauges, histograms or snapshots.
    pub fn counters(workers: usize) -> Self {
        Self::build(workers, 0)
    }

    /// Everything on, with [`DEFAULT_RING_CAPACITY`]-event rings.
    pub fn enabled(workers: usize) -> Self {
        Self::with_capacity(workers, DEFAULT_RING_CAPACITY)
    }

    /// [`Recorder::enabled`] with an explicit per-ring capacity (≥ 1).
    pub fn with_capacity(workers: usize, cap: usize) -> Self {
        Self::build(workers, cap.max(1))
    }

    fn build(workers: usize, cap: usize) -> Self {
        let shards = (0..=workers)
            .map(|_| Shard {
                counters: std::array::from_fn(|_| AtomicU64::new(0)),
                ring: (cap > 0).then(|| Ring::new(cap)),
            })
            .collect();
        Recorder {
            inner: Some(Arc::new(Registry {
                shards,
                gauges: std::array::from_fn(|_| AtomicU64::new(0)),
                hists: std::array::from_fn(|_| LogHist::new()),
                cap,
                seq: AtomicU64::new(0),
                created: Instant::now(),
                origin_us: AtomicU64::new(0),
                virt_now: AtomicU64::new(0),
                virt_used: AtomicBool::new(false),
                label: Mutex::new(String::new()),
                baseline: Mutex::new(Baseline {
                    tick: 0,
                    counters: [0; N_COUNTERS],
                    lane_dispatch: vec![0; workers],
                    lane_steal: vec![0; workers],
                }),
                virt_sampling: Mutex::new(VirtSampling::default()),
            })),
        }
    }

    fn live(&self) -> Option<&Registry> {
        self.inner.as_deref().filter(|r| r.live())
    }

    /// Whether rings, gauges, histograms and snapshots are on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.live().is_some()
    }

    /// Whether a store exists (counters are being accumulated).
    #[inline]
    pub fn has_registry(&self) -> bool {
        self.inner.is_some()
    }

    /// Worker-lane count the store was sized for (0 when disabled).
    pub fn workers(&self) -> usize {
        self.inner.as_ref().map_or(0, |r| r.control())
    }

    /// Set the run label carried into snapshots and trace exports (the
    /// dispatch policy).
    pub fn set_label(&self, label: &str) {
        if let Some(r) = &self.inner {
            *lock_recover(&r.label) = label.to_string();
        }
    }

    /// Record `kind` on `worker`'s shard, stamped now. An out-of-range
    /// worker index lands on the control shard, counters and event alike.
    #[inline]
    pub fn emit(&self, worker: usize, kind: EventKind) {
        if let Some(r) = &self.inner {
            r.record(worker, None, kind);
        }
    }

    /// [`Recorder::emit`] stamped `at` µs on the run's clock — a task's
    /// start and end, whose instants are known before the event is written.
    #[inline]
    pub fn emit_at(&self, worker: usize, at: u64, kind: EventKind) {
        if let Some(r) = &self.inner {
            r.record(worker, Some(at), kind);
        }
    }

    /// Record `kind` on the control shard (scheduler, speculation manager
    /// and replication plane, serialised by the commit lock).
    #[inline]
    pub fn emit_control(&self, kind: EventKind) {
        if let Some(r) = &self.inner {
            r.record(usize::MAX, None, kind);
        }
    }

    /// Add `n` to counter `c` on `shard` (a worker index; out of range
    /// means the control shard) — for quantities no event carries.
    #[inline]
    pub fn add(&self, shard: usize, c: Counter, n: u64) {
        if let Some(r) = &self.inner {
            r.add(shard.min(r.control()), c, n);
        }
    }

    /// [`Recorder::add`] on the control shard.
    #[inline]
    pub fn add_control(&self, c: Counter, n: u64) {
        self.add(usize::MAX, c, n);
    }

    /// Sum of counter `c` across every shard.
    pub fn counter_total(&self, c: Counter) -> u64 {
        self.inner.as_ref().map_or(0, |r| r.totals()[c as usize])
    }

    /// Per-worker values of counter `c` (control shard excluded).
    pub fn lane_counts(&self, c: Counter) -> Vec<u64> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |r| r.lane_counts(c))
    }

    /// Set gauge `g` to `v` (enabled recorders only).
    #[inline]
    pub fn gauge_set(&self, g: Gauge, v: u64) {
        if let Some(r) = self.live() {
            r.gauges[g as usize].store(v, Ordering::Relaxed);
        }
    }

    /// Current value of gauge `g`.
    pub fn gauge_get(&self, g: Gauge) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |r| r.gauges[g as usize].load(Ordering::Relaxed))
    }

    /// Record `v` into histogram `h` (enabled recorders only).
    #[inline]
    pub fn record(&self, h: Hist, v: u64) {
        if let Some(r) = self.live() {
            r.record_hist(h, v);
        }
    }

    /// The run's clock, µs: virtual time once the simulator has fed it,
    /// wall time since [`Recorder::start_clock`] otherwise (0 when
    /// disabled).
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.inner.as_ref().map_or(0, |r| r.now_us())
    }

    /// Restart the wall clock at 0 — the threaded executor's start of run.
    pub fn start_clock(&self) {
        if let Some(r) = &self.inner {
            let now = r.created.elapsed().as_micros() as u64;
            r.origin_us.store(now, Ordering::Relaxed);
        }
    }

    /// Feed the virtual clock (µs). The simulator calls this at every event
    /// pop, so facts recorded from inside scheduler and manager callbacks
    /// carry deterministic virtual stamps; from the first call on the run's
    /// clock is virtual.
    #[inline]
    pub fn set_virtual_now(&self, us: u64) {
        if let Some(r) = &self.inner {
            r.virt_now.store(us, Ordering::Relaxed);
            r.virt_used.store(true, Ordering::Relaxed);
        }
    }

    /// Arm virtual-time sampling: a snapshot is taken at every multiple
    /// of `tick_us` of virtual time as [`Recorder::virtual_tick`] observes
    /// the clock pass it. Deterministic for deterministic runs.
    pub fn enable_virtual_sampling(&self, tick_us: u64) {
        if let Some(r) = self.live() {
            let tick_us = tick_us.max(1);
            *lock_recover(&r.virt_sampling) = VirtSampling {
                tick_us,
                next_us: tick_us,
                snaps: Vec::new(),
            };
        }
    }

    /// Called by the simulator after advancing virtual time to `now_us`:
    /// takes one snapshot per elapsed tick boundary, each stamped with its
    /// boundary time.
    pub fn virtual_tick(&self, now_us: u64) {
        let Some(r) = self.live() else { return };
        let mut v = lock_recover(&r.virt_sampling);
        while v.tick_us > 0 && now_us >= v.next_us {
            let boundary = v.next_us;
            v.next_us += v.tick_us;
            let snap = r.snapshot_at(boundary);
            v.snaps.push(snap);
        }
    }

    /// Take the snapshots accumulated by virtual-time sampling.
    pub fn drain_virtual_snapshots(&self) -> Vec<MetricsSnapshot> {
        self.inner.as_ref().map_or_else(Vec::new, |r| {
            std::mem::take(&mut lock_recover(&r.virt_sampling).snaps)
        })
    }

    /// Coalesce all shards into a [`MetricsSnapshot`], with deltas against
    /// the previous snapshot. `None` unless the recorder is enabled.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.live().map(|r| r.snapshot_at(r.now_us()))
    }

    /// Drain every ring into a time-ordered [`TraceLog`]; `None` unless
    /// rings are on. Call after the run: draining mid-run is safe but
    /// yields a partial log.
    pub fn drain(&self) -> Option<TraceLog> {
        let r = self.live()?;
        let mut events = Vec::new();
        let mut dropped_per_worker = Vec::new();
        for s in &r.shards {
            if let Some(ring) = &s.ring {
                ring.drain_into(&mut events);
            }
            dropped_per_worker.push(s.ring.as_ref().map_or(0, Ring::dropped));
        }
        let timebase = if r.virt_used.load(Ordering::Relaxed) {
            Timebase::Virtual
        } else {
            Timebase::Wall
        };
        events.sort_by_key(|e| (e.ts(timebase), e.seq));
        Some(TraceLog {
            workers: r.control(),
            timebase,
            events,
            dropped: dropped_per_worker.iter().sum(),
            dropped_per_worker,
            label: lock_recover(&r.label).clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn end(busy_us: u64, discarded: bool, faulted: bool) -> EventKind {
        EventKind::TaskEnd {
            id: 1,
            name: "t",
            class: ClassTag::Regular,
            version: None,
            discarded,
            faulted,
            busy_us,
        }
    }

    #[test]
    fn counters_only_charges_events_but_keeps_nothing_else() {
        let r = Recorder::counters(2);
        r.emit(0, EventKind::Steal { id: 1, victim: 1 });
        r.emit(1, end(40, true, false));
        r.emit_control(EventKind::Rollback {
            version: 3,
            cascade_depth: 5,
        });
        r.gauge_set(Gauge::DegradationLevel, 2);
        r.record(Hist::CheckLatencyUs, 10);
        assert!(r.has_registry() && !r.is_enabled());
        assert_eq!(r.lane_counts(Counter::Steal), vec![1, 0]);
        assert_eq!(r.counter_total(Counter::BusyUs), 40);
        assert_eq!(r.counter_total(Counter::WastedUs), 40);
        assert_eq!(r.counter_total(Counter::TimeRunUs), 40);
        assert_eq!(r.counter_total(Counter::TasksDiscarded), 1);
        assert_eq!(r.counter_total(Counter::Rollbacks), 1);
        assert_eq!(r.counter_total(Counter::DeletedReady), 5);
        assert_eq!(r.gauge_get(Gauge::CascadeMax), 0, "gauges off");
        assert!(r.snapshot().is_none() && r.drain().is_none());
    }

    #[test]
    fn one_call_charges_what_the_event_implies() {
        let r = Recorder::enabled(1);
        r.emit(0, end(7, false, false));
        r.emit(0, end(3, true, true));
        r.emit_control(EventKind::LineageOpen {
            version: 2,
            root: 1,
            parent: 1,
            depth: 1,
        });
        r.emit_control(EventKind::DegradeStep {
            from: 0,
            to: 2,
            cause: tvs_trace::StepCause::BadWindow,
        });
        assert_eq!(r.counter_total(Counter::TasksDelivered), 1);
        assert_eq!(r.counter_total(Counter::TasksDiscarded), 0, "faulted");
        assert_eq!(r.counter_total(Counter::BusyUs), 10);
        assert_eq!(r.counter_total(Counter::WastedUs), 3);
        assert_eq!(r.counter_total(Counter::Predictions), 1);
        assert_eq!(r.gauge_get(Gauge::LineageDepthMax), 1);
        assert_eq!(r.gauge_get(Gauge::DegradationLevel), 2);
        let snap = r.snapshot().unwrap();
        assert_eq!(snap.hist(Hist::RunSliceUs).sum, 10);
        assert_eq!(r.drain().unwrap().events.len(), 4);
    }

    #[test]
    fn out_of_range_shards_land_on_the_control_shard() {
        let r = Recorder::enabled(2);
        r.emit(99, EventKind::Steal { id: 1, victim: 0 });
        r.add(7, Counter::Retries, 2);
        assert_eq!(r.lane_counts(Counter::Steal), vec![0, 0]);
        assert_eq!(r.counter_total(Counter::Steal), 1, "counted on control");
        assert_eq!(r.counter_total(Counter::Retries), 2, "not dropped");
        let log = r.drain().unwrap();
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.events[0].worker, 2, "the event too");
    }

    #[test]
    fn explicit_wall_stamps_are_on_the_run_clock() {
        let r = Recorder::enabled(1);
        r.start_clock();
        r.emit_at(0, 123_456_789, EventKind::Park);
        let log = r.drain().unwrap();
        assert_eq!(log.events[0].wall_us, 123_456_789);
        assert!(r.now_us() < 123_456_789);
    }
}
