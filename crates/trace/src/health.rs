//! Derived speculation-health aggregates.
//!
//! Answers the paper's tuning questions from one drained [`TraceLog`]:
//! how much work was wasted (and *when* — a waste spike right after a
//! rollback is normal, a flat high ratio means the policy over-speculates),
//! how deep rollback cascades ran, and how long checks take from dispatch
//! to completion.

use crate::event::{ClassTag, EventKind, TraceLog};
use crate::lineage::{LineageCost, LineageTable};
use std::collections::HashMap;

/// Percentiles of a latency population, µs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyStats {
    /// Sample count.
    pub count: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum.
    pub max: u64,
}

impl LatencyStats {
    /// Stats from an unsorted sample population.
    pub fn from_samples(mut samples: Vec<u64>) -> Self {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        samples.sort_unstable();
        // Nearest-rank percentiles: the smallest sample with at least p of
        // the population at or below it.
        let pct = |p: f64| -> u64 {
            let rank = (p * samples.len() as f64).ceil() as usize;
            samples[rank.max(1).min(samples.len()) - 1]
        };
        LatencyStats {
            count: samples.len() as u64,
            p50: pct(0.50),
            p90: pct(0.90),
            p99: pct(0.99),
            max: *samples.last().expect("non-empty"),
        }
    }
}

/// One bucket of the wasted-work timeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WasteBucket {
    /// Bucket start, µs (log timebase).
    pub start_us: u64,
    /// Bucket end (exclusive), µs.
    pub end_us: u64,
    /// Busy µs of tasks *finishing* in this bucket.
    pub busy_us: u64,
    /// Portion of `busy_us` spent on later-discarded tasks.
    pub wasted_us: u64,
}

impl WasteBucket {
    /// Wasted fraction of this bucket's busy time (0 when idle).
    pub fn ratio(&self) -> f64 {
        if self.busy_us == 0 {
            0.0
        } else {
            self.wasted_us as f64 / self.busy_us as f64
        }
    }
}

/// Aggregated speculation health of one run.
#[derive(Debug, Clone, Default)]
pub struct SpecHealth {
    /// Events analysed.
    pub events: usize,
    /// Events lost to ring overflow (aggregates below undercount if > 0).
    pub dropped: u64,
    /// Per-ring drop counts (`workers + 1` entries, last = control ring),
    /// locating the overflowing ring. Empty for hand-built logs.
    pub dropped_per_ring: Vec<u64>,
    /// Speculative versions opened (installed or promoted).
    pub versions_opened: u64,
    /// Versions committed.
    pub commits: u64,
    /// Versions rolled back.
    pub rollbacks: u64,
    /// Predictor tasks requested.
    pub predictor_fires: u64,
    /// Intermediate/final checks that passed.
    pub checks_passed: u64,
    /// Intermediate/final checks that failed.
    pub checks_failed: u64,
    /// Lane-bound tasks cancelled by rollback before running.
    pub cancelled_ready: u64,
    /// Tasks stolen across lanes.
    pub steals: u64,
    /// Task bodies that panicked and were caught by an executor.
    pub faults: u64,
    /// Degradation steps toward less speculation.
    pub steps_down: u64,
    /// Degradation steps back toward full speculation.
    pub steps_up: u64,
    /// Probe predictions let through at the probing level.
    pub probes: u64,
    /// Replicas spawned for replication-based validation.
    pub replica_dispatches: u64,
    /// Replica vote sets that resolved clean on the first comparison.
    pub replica_matches: u64,
    /// Silent-data-corruption detections (divergent replica digests).
    pub sdc_detected: u64,
    /// Divergent vote sets resolved by a tiebreak re-execution.
    pub sdc_resolved: u64,
    /// Sum of rollback cascade depths (ready tasks deleted from the
    /// central queue).
    pub cascade_total: u64,
    /// Deepest single cascade.
    pub max_cascade: u64,
    /// Rollback-cascade-depth histogram: `(depth, rollbacks)` ascending.
    pub cascade_hist: Vec<(u64, u64)>,
    /// Total busy µs across all traced tasks.
    pub busy_us: u64,
    /// Busy µs of tasks that ended discarded (wasted work).
    pub wasted_us: u64,
    /// Wasted-work ratio over time.
    pub waste_timeline: Vec<WasteBucket>,
    /// Dispatch-to-completion latency of check-class tasks.
    pub check_latency: LatencyStats,
    /// Per-lineage cost aggregates: one entry per root misprediction
    /// line, sorted by root version ascending (see
    /// [`LineageTable::roots`]). Summing `wasted_us` over these plus
    /// [`SpecHealth::unattributed_wasted_us`] equals
    /// [`SpecHealth::wasted_us`].
    pub lineage: Vec<LineageCost>,
    /// Wasted µs of discarded tasks that carried no version.
    pub unattributed_wasted_us: u64,
}

impl SpecHealth {
    /// Overall wasted fraction of busy time.
    pub fn waste_ratio(&self) -> f64 {
        if self.busy_us == 0 {
            0.0
        } else {
            self.wasted_us as f64 / self.busy_us as f64
        }
    }

    /// SDC detection recall against a known injection count (from a fault
    /// injector's task-output site): detections / injected, clamped to 1.
    /// Vacuously 1.0 when nothing was injected. One detection can cover
    /// several injections of the *same* vote set (e.g. primary and tiebreak
    /// both corrupted), so the clamp keeps the ratio a recall.
    pub fn sdc_recall(&self, injected: u64) -> f64 {
        if injected == 0 {
            1.0
        } else {
            (self.sdc_detected as f64 / injected as f64).min(1.0)
        }
    }
}

/// Number of buckets in the waste timeline.
const TIMELINE_BUCKETS: u64 = 20;

impl TraceLog {
    /// Compute speculation-health aggregates from this log.
    ///
    /// Task durations come from [`TraceLog::tasks`]; each task is
    /// attributed to the timeline bucket its *end* falls in. Check latency
    /// is measured dispatch → task-end (queueing included — that is the
    /// latency the speculation loop actually sees).
    pub fn health(&self) -> SpecHealth {
        let tb = self.timebase;
        let mut h = SpecHealth {
            events: self.events.len(),
            dropped: self.dropped,
            dropped_per_ring: self.dropped_per_worker.clone(),
            ..Default::default()
        };

        let span = self.span_us().max(1);
        let bucket_w = span.div_ceil(TIMELINE_BUCKETS).max(1);
        let n_buckets = span.div_ceil(bucket_w);
        let mut timeline: Vec<WasteBucket> = (0..n_buckets)
            .map(|i| WasteBucket {
                start_us: i * bucket_w,
                end_us: (i + 1) * bucket_w,
                ..Default::default()
            })
            .collect();

        let mut check_dispatched: HashMap<u64, u64> = HashMap::new();
        let mut cascade_counts: HashMap<u64, u64> = HashMap::new();

        for e in &self.events {
            match &e.kind {
                EventKind::Dispatch { id, class, .. } => {
                    if *class == ClassTag::Check {
                        check_dispatched.insert(*id, e.ts(tb));
                    }
                }
                EventKind::TaskStart { .. } | EventKind::TaskEnd { .. } => {}
                EventKind::Steal { .. } => h.steals += 1,
                EventKind::CancelReady { .. } => h.cancelled_ready += 1,
                EventKind::PredictorFire { .. } => h.predictor_fires += 1,
                EventKind::VersionOpen { .. } => h.versions_opened += 1,
                EventKind::CheckPass { .. } => h.checks_passed += 1,
                EventKind::CheckFail { .. } => h.checks_failed += 1,
                EventKind::Commit { .. } => h.commits += 1,
                EventKind::Rollback { cascade_depth, .. } => {
                    h.rollbacks += 1;
                    h.cascade_total += cascade_depth;
                    h.max_cascade = h.max_cascade.max(*cascade_depth);
                    *cascade_counts.entry(*cascade_depth).or_default() += 1;
                }
                EventKind::TaskFault { .. } => h.faults += 1,
                EventKind::DegradeStep { cause, .. } if cause.is_down() => h.steps_down += 1,
                EventKind::DegradeStep { .. } => h.steps_up += 1,
                EventKind::DegradeProbe { .. } => h.probes += 1,
                EventKind::ReplicaDispatch { .. } => h.replica_dispatches += 1,
                EventKind::ReplicaMatch { .. } => h.replica_matches += 1,
                EventKind::SdcDetected { .. } => h.sdc_detected += 1,
                EventKind::SdcResolved { .. } => h.sdc_resolved += 1,
                EventKind::Park | EventKind::Unpark | EventKind::LineageOpen { .. } => {}
            }
        }

        let mut check_lat: Vec<u64> = Vec::new();
        for s in self.tasks() {
            let (dur, wasted) = (s.busy_us(), if s.discarded { s.busy_us() } else { 0 });
            h.busy_us += dur;
            h.wasted_us += wasted;
            let bi = ((s.end.saturating_sub(1)) / bucket_w).min(n_buckets - 1) as usize;
            timeline[bi].busy_us += dur;
            timeline[bi].wasted_us += wasted;
            if let Some(at) = check_dispatched.get(&s.id) {
                check_lat.push(s.end.saturating_sub(*at));
            }
        }

        let mut hist: Vec<(u64, u64)> = cascade_counts.into_iter().collect();
        hist.sort_unstable();
        h.cascade_hist = hist;
        h.waste_timeline = timeline;
        h.check_latency = LatencyStats::from_samples(check_lat);
        let lineage = LineageTable::from_log(self);
        h.unattributed_wasted_us = lineage.unattributed_wasted_us;
        h.lineage = lineage.roots();
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Timebase, TraceEvent};

    fn ev(seq: u64, ts: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            seq,
            worker: 0,
            wall_us: ts,
            virt_us: ts,
            kind,
        }
    }

    fn task(seq: u64, id: u64, start: u64, end: u64, discarded: bool) -> Vec<TraceEvent> {
        vec![
            ev(
                seq,
                start,
                EventKind::TaskStart {
                    id,
                    name: "t",
                    version: None,
                    tag: 0,
                },
            ),
            ev(
                seq + 1,
                end,
                EventKind::TaskEnd {
                    id,
                    name: "t",
                    version: None,
                    discarded,
                    class: ClassTag::Regular,
                    faulted: false,
                    busy_us: 0,
                },
            ),
        ]
    }

    fn mk(events: Vec<TraceEvent>) -> TraceLog {
        TraceLog {
            workers: 1,
            timebase: Timebase::Virtual,
            events,
            dropped: 0,
            dropped_per_worker: vec![0, 0],
            label: String::new(),
        }
    }

    #[test]
    fn latency_percentiles() {
        let s = LatencyStats::from_samples((1..=100).collect());
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p90, 90);
        assert_eq!(s.p99, 99);
        assert_eq!(s.max, 100);
        assert_eq!(LatencyStats::from_samples(vec![]), LatencyStats::default());
    }

    #[test]
    fn waste_accounting_and_timeline() {
        let mut events = task(0, 1, 0, 100, false);
        events.extend(task(2, 2, 0, 50, true));
        let h = mk(events).health();
        assert_eq!(h.busy_us, 150);
        assert_eq!(h.wasted_us, 50);
        assert!((h.waste_ratio() - 50.0 / 150.0).abs() < 1e-12);
        let timeline_busy: u64 = h.waste_timeline.iter().map(|b| b.busy_us).sum();
        let timeline_waste: u64 = h.waste_timeline.iter().map(|b| b.wasted_us).sum();
        assert_eq!(timeline_busy, 150, "every task lands in some bucket");
        assert_eq!(timeline_waste, 50);
    }

    #[test]
    fn waste_ratio_is_zero_not_nan_when_nothing_ran() {
        // busy_us == 0 must yield 0.0, never NaN — downstream comparisons
        // (`h.waste_ratio() < 0.0` in tvs-report) silently pass on NaN.
        let h = SpecHealth::default();
        assert_eq!(h.busy_us, 0);
        let r = h.waste_ratio();
        assert!(!r.is_nan(), "waste ratio must never be NaN");
        assert_eq!(r, 0.0);
        // Same for an empty log end to end.
        let r = mk(vec![]).health().waste_ratio();
        assert!(!r.is_nan());
        assert_eq!(r, 0.0);
        // And for the timeline buckets.
        assert_eq!(WasteBucket::default().ratio(), 0.0);
    }

    #[test]
    fn health_carries_per_lineage_costs() {
        let mut events = vec![ev(
            0,
            0,
            EventKind::LineageOpen {
                version: 1,
                root: 1,
                parent: 0,
                depth: 0,
            },
        )];
        events.extend(vec![
            ev(
                1,
                5,
                EventKind::TaskStart {
                    id: 1,
                    name: "t",
                    version: Some(1),
                    tag: 0,
                },
            ),
            ev(
                2,
                30,
                EventKind::TaskEnd {
                    id: 1,
                    name: "t",
                    version: Some(1),
                    discarded: true,
                    class: ClassTag::Regular,
                    faulted: false,
                    busy_us: 0,
                },
            ),
            ev(
                3,
                30,
                EventKind::Rollback {
                    version: 1,
                    cascade_depth: 2,
                },
            ),
        ]);
        let h = mk(events).health();
        assert_eq!(h.lineage.len(), 1);
        assert_eq!(h.lineage[0].root, 1);
        assert_eq!(h.lineage[0].wasted_us, 25);
        assert_eq!(h.lineage[0].rollbacks, 1);
        let lineage_total: u64 = h.lineage.iter().map(|l| l.wasted_us).sum();
        assert_eq!(lineage_total + h.unattributed_wasted_us, h.wasted_us);
    }

    #[test]
    fn cascade_histogram() {
        let events = vec![
            ev(
                0,
                1,
                EventKind::Rollback {
                    version: 1,
                    cascade_depth: 3,
                },
            ),
            ev(
                1,
                2,
                EventKind::Rollback {
                    version: 2,
                    cascade_depth: 0,
                },
            ),
            ev(
                2,
                3,
                EventKind::Rollback {
                    version: 3,
                    cascade_depth: 3,
                },
            ),
        ];
        let h = mk(events).health();
        assert_eq!(h.rollbacks, 3);
        assert_eq!(h.cascade_total, 6);
        assert_eq!(h.max_cascade, 3);
        assert_eq!(h.cascade_hist, vec![(0, 1), (3, 2)]);
    }

    #[test]
    fn check_latency_measured_from_dispatch() {
        let mut events = vec![ev(
            0,
            10,
            EventKind::Dispatch {
                id: 5,
                name: "check",
                class: ClassTag::Check,
                version: None,
                lane: 0,
            },
        )];
        events.extend(task(1, 5, 30, 40, false));
        let h = mk(events).health();
        assert_eq!(h.check_latency.count, 1);
        assert_eq!(h.check_latency.max, 30, "dispatch(10) -> end(40)");
    }

    #[test]
    fn lifecycle_counters() {
        let events = vec![
            ev(
                0,
                1,
                EventKind::PredictorFire {
                    version: 1,
                    basis: 1,
                },
            ),
            ev(
                1,
                2,
                EventKind::VersionOpen {
                    version: 1,
                    basis: 1,
                },
            ),
            ev(
                2,
                3,
                EventKind::CheckPass {
                    version: 1,
                    margin: 0.0,
                },
            ),
            ev(
                3,
                4,
                EventKind::CheckFail {
                    version: 1,
                    margin: 0.2,
                },
            ),
            ev(4, 5, EventKind::Commit { version: 1 }),
            ev(5, 6, EventKind::Steal { id: 1, victim: 0 }),
            ev(6, 7, EventKind::CancelReady { id: 2, version: 1 }),
        ];
        let h = mk(events).health();
        assert_eq!(h.predictor_fires, 1);
        assert_eq!(h.versions_opened, 1);
        assert_eq!(h.checks_passed, 1);
        assert_eq!(h.checks_failed, 1);
        assert_eq!(h.commits, 1);
        assert_eq!(h.steals, 1);
        assert_eq!(h.cancelled_ready, 1);
    }

    #[test]
    fn replication_counters_and_recall() {
        let events = vec![
            ev(0, 1, EventKind::ReplicaDispatch { id: 2, of: 1 }),
            ev(1, 2, EventKind::ReplicaMatch { id: 1 }),
            ev(2, 3, EventKind::ReplicaDispatch { id: 4, of: 3 }),
            ev(
                3,
                4,
                EventKind::SdcDetected {
                    id: 3,
                    version: Some(7),
                },
            ),
            ev(4, 5, EventKind::ReplicaDispatch { id: 5, of: 3 }),
            ev(5, 6, EventKind::SdcResolved { id: 3 }),
        ];
        let h = mk(events).health();
        assert_eq!(h.replica_dispatches, 3);
        assert_eq!(h.replica_matches, 1);
        assert_eq!(h.sdc_detected, 1);
        assert_eq!(h.sdc_resolved, 1);
        assert_eq!(h.sdc_recall(0), 1.0, "vacuous recall");
        assert_eq!(h.sdc_recall(1), 1.0);
        assert_eq!(h.sdc_recall(2), 0.5);
    }
}
