//! Typed lifecycle events and the drained [`TraceLog`].
//!
//! This crate sits below `tvs-sre` and `tvs-core` (both depend on it), so
//! it speaks in primitives: task ids are `u64`, speculation versions `u32`,
//! times µs as `u64`, and the scheduling class is mirrored here as
//! [`ClassTag`] rather than importing `tvs_sre::TaskClass`.

use std::collections::HashMap;

/// Scheduling class of a task, mirrored from the runtime's `TaskClass`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassTag {
    /// Non-speculative application task (the natural path).
    Regular,
    /// Speculative application task (discarded on rollback).
    Speculative,
    /// Predictor control task.
    Predictor,
    /// Check control task.
    Check,
}

impl ClassTag {
    /// Stable lowercase label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            ClassTag::Regular => "regular",
            ClassTag::Speculative => "speculative",
            ClassTag::Predictor => "predictor",
            ClassTag::Check => "check",
        }
    }
}

/// Why the degradation machine (`tvs_core::degrade`) changed level. The
/// cause alone fixes the direction of the step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepCause {
    /// A window of speculation outcomes reached the failure threshold.
    BadWindow,
    /// The probe (or a straggler beside it) failed.
    ProbeFailed,
    /// Enough consecutive clean windows at the capped level.
    CleanWindows,
    /// The cooldown elapsed at a level that starts no speculation.
    Cooldown,
    /// The probe passed a check or committed.
    ProbePassed,
}

impl StepCause {
    /// Stable kebab-case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            StepCause::BadWindow => "bad-window",
            StepCause::ProbeFailed => "probe-failed",
            StepCause::CleanWindows => "clean-windows",
            StepCause::Cooldown => "cooldown",
            StepCause::ProbePassed => "probe-passed",
        }
    }

    /// Whether the step this causes degrades service (as opposed to
    /// restoring it).
    pub fn is_down(self) -> bool {
        matches!(self, StepCause::BadWindow | StepCause::ProbeFailed)
    }
}

/// One speculation-lifecycle event.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A task was bound to a worker lane (or simulated worker) by the
    /// dispatcher.
    Dispatch {
        /// Task id.
        id: u64,
        /// Task kind name.
        name: &'static str,
        /// Scheduling class.
        class: ClassTag,
        /// Speculation version, if any.
        version: Option<u32>,
        /// Lane (worker index) the task was bound to.
        lane: u32,
    },
    /// A worker took a task from another worker's lane.
    Steal {
        /// Task id.
        id: u64,
        /// Lane the task was stolen from.
        victim: u32,
    },
    /// The worker ran out of work and parked.
    Park,
    /// The worker resumed after a park.
    Unpark,
    /// A task body started executing.
    TaskStart {
        /// Task id.
        id: u64,
        /// Task kind name.
        name: &'static str,
        /// Speculation version, if any.
        version: Option<u32>,
        /// The application tag of the task (e.g. its first block).
        tag: u64,
    },
    /// A task body's occupancy of a worker was settled: stamped at the
    /// instant the body returned, recorded once the executor knows the
    /// verdict. Charges the run's busy, wasted and run/check time.
    TaskEnd {
        /// Task id.
        id: u64,
        /// Task kind name.
        name: &'static str,
        /// Scheduling class.
        class: ClassTag,
        /// Speculation version, if any.
        version: Option<u32>,
        /// Whether the work was wasted: the output was discarded because
        /// the version was aborted, or the body faulted for good.
        discarded: bool,
        /// Whether the body faulted on its last attempt (so it was neither
        /// delivered nor discarded).
        faulted: bool,
        /// µs the body occupied the worker: this event's stamp less its
        /// task-start's.
        busy_us: u64,
    },
    /// A lane-bound task was cancelled by rollback before it ever ran
    /// (counted as a ready deletion, like queue victims).
    CancelReady {
        /// Task id.
        id: u64,
        /// The rolled-back version that killed it.
        version: u32,
    },
    /// The speculation manager requested a predictor task.
    PredictorFire {
        /// Version the prediction will carry.
        version: u32,
        /// Basis event count the prediction starts from.
        basis: u64,
    },
    /// A speculative value was installed: the version is now live and
    /// driving speculative tasks.
    VersionOpen {
        /// The activated version.
        version: u32,
        /// Basis event count the value was built from.
        basis: u64,
    },
    /// A version's causal lineage was recorded by the speculation
    /// manager at allocation time: which root misprediction line it
    /// belongs to, which version spawned it, and how deep in the cascade
    /// it sits. Emitted once per version (fresh predictions are their own
    /// root at depth 0; candidates promoted after a failed check inherit
    /// the failed version's root at depth + 1), so every later
    /// version-carrying event joins to its root via the lineage table.
    LineageOpen {
        /// The version whose lineage this is.
        version: u32,
        /// Root version of the speculation line (equals `version` for a
        /// fresh, non-cascade prediction).
        root: u32,
        /// Version whose failed check spawned this one (0 = none; 0 is
        /// never issued as a real version).
        parent: u32,
        /// Cascade depth below the root (0 for the root itself).
        depth: u32,
    },
    /// An intermediate or final check passed.
    CheckPass {
        /// The version under test.
        version: u32,
        /// Measured relative error (within the tolerance margin).
        margin: f64,
    },
    /// An intermediate or final check failed (triggers rollback).
    CheckFail {
        /// The version under test.
        version: u32,
        /// Measured relative error (outside the tolerance margin).
        margin: f64,
    },
    /// The version validated against the final value: buffered results
    /// are released.
    Commit {
        /// The committed version.
        version: u32,
    },
    /// The version was rolled back in the scheduler.
    Rollback {
        /// The aborted version.
        version: u32,
        /// Ready tasks deleted from the central queue by this abort — the
        /// rollback's cascade depth.
        cascade_depth: u64,
    },
    /// A task body panicked; the panic was caught by the executor and
    /// converted into a fault (speculative versions are aborted through
    /// the regular rollback path, non-speculative tasks are retried).
    TaskFault {
        /// Task id.
        id: u64,
        /// Task kind name.
        name: &'static str,
        /// Speculation version, if any.
        version: Option<u32>,
        /// Retry attempts already spent on this task (0 on first fault).
        attempt: u32,
    },
    /// The watchdog cancelled a task that exceeded its deadline.
    WatchdogCancel {
        /// Task id.
        id: u64,
        /// Speculation version, if any.
        version: Option<u32>,
        /// How long the task had been running when cancelled, µs.
        ran_us: u64,
    },
    /// The degradation machine changed level: down on a bad outcome
    /// window or a failed probe, up after a cooldown, a passed probe or a
    /// run of clean windows.
    DegradeStep {
        /// Level before the step (0 = full speculation, 1 = capped
        /// cascade depth, 2 = suspended, 3 = paused, 4 = probing).
        from: u32,
        /// Level after the step.
        to: u32,
        /// What moved it.
        cause: StepCause,
    },
    /// The probing level let its single probe prediction through.
    DegradeProbe {
        /// Version carried by the probe prediction.
        version: u32,
    },
    /// A replica (redundant re-execution for replication-based
    /// validation) was spawned for a completed primary task.
    ReplicaDispatch {
        /// The replica's task id.
        id: u64,
        /// The primary task the replica re-executes.
        of: u64,
    },
    /// A replica's output digest matched its primary's: the output is
    /// validated and delivered once.
    ReplicaMatch {
        /// The primary task id whose vote set resolved clean.
        id: u64,
    },
    /// Replica digests diverged: silent data corruption detected. A
    /// bounded tiebreak re-execution follows; if no two votes ever
    /// agree the version (if any) is aborted and replayed.
    SdcDetected {
        /// The primary task id whose vote set diverged.
        id: u64,
        /// Speculation version of the divergent task, if any.
        version: Option<u32>,
    },
    /// A divergent vote set was resolved by a tiebreak vote agreeing
    /// with an earlier one; the agreed output was delivered.
    SdcResolved {
        /// The primary task id whose vote set resolved.
        id: u64,
    },
    /// The supervisor quarantined a worker that missed its heartbeat
    /// deadline: its epoch was advanced so in-flight completions it may
    /// still report are rejected instead of double-committed.
    WorkerQuarantine {
        /// Quarantined worker index.
        worker: u32,
        /// The worker's epoch *before* quarantine (reports stamped with
        /// it are now stale).
        epoch: u64,
    },
    /// The supervisor respawned a quarantined worker's thread under a
    /// fresh epoch.
    WorkerRespawn {
        /// Respawned worker index.
        worker: u32,
        /// The fresh epoch the new thread reports under.
        epoch: u64,
    },
}

impl EventKind {
    /// Stable kebab-case label used by the exporters.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Dispatch { .. } => "dispatch",
            EventKind::Steal { .. } => "steal",
            EventKind::Park => "park",
            EventKind::Unpark => "unpark",
            EventKind::TaskStart { .. } => "task-start",
            EventKind::TaskEnd { .. } => "task-end",
            EventKind::CancelReady { .. } => "cancel-ready",
            EventKind::PredictorFire { .. } => "predictor-fire",
            EventKind::VersionOpen { .. } => "version-open",
            EventKind::LineageOpen { .. } => "lineage-open",
            EventKind::CheckPass { .. } => "check-pass",
            EventKind::CheckFail { .. } => "check-fail",
            EventKind::Commit { .. } => "commit",
            EventKind::Rollback { .. } => "rollback",
            EventKind::TaskFault { .. } => "task-fault",
            EventKind::WatchdogCancel { .. } => "watchdog-cancel",
            EventKind::DegradeStep { .. } => "degrade-step",
            EventKind::DegradeProbe { .. } => "degrade-probe",
            EventKind::ReplicaDispatch { .. } => "replica-dispatch",
            EventKind::ReplicaMatch { .. } => "replica-match",
            EventKind::SdcDetected { .. } => "sdc-detected",
            EventKind::SdcResolved { .. } => "sdc-resolved",
            EventKind::WorkerQuarantine { .. } => "worker-quarantine",
            EventKind::WorkerRespawn { .. } => "worker-respawn",
        }
    }

    /// The speculation version this event concerns, if any.
    pub fn version(&self) -> Option<u32> {
        match *self {
            EventKind::Dispatch { version, .. }
            | EventKind::TaskStart { version, .. }
            | EventKind::TaskEnd { version, .. }
            | EventKind::TaskFault { version, .. }
            | EventKind::WatchdogCancel { version, .. }
            | EventKind::SdcDetected { version, .. } => version,
            EventKind::CancelReady { version, .. }
            | EventKind::PredictorFire { version, .. }
            | EventKind::VersionOpen { version, .. }
            | EventKind::LineageOpen { version, .. }
            | EventKind::CheckPass { version, .. }
            | EventKind::CheckFail { version, .. }
            | EventKind::Commit { version }
            | EventKind::Rollback { version, .. }
            | EventKind::DegradeProbe { version } => Some(version),
            EventKind::Steal { .. }
            | EventKind::Park
            | EventKind::Unpark
            | EventKind::DegradeStep { .. }
            | EventKind::ReplicaDispatch { .. }
            | EventKind::ReplicaMatch { .. }
            | EventKind::SdcResolved { .. }
            | EventKind::WorkerQuarantine { .. }
            | EventKind::WorkerRespawn { .. } => None,
        }
    }
}

/// Which clock a drained log is meaningful in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timebase {
    /// Wall-clock µs since the run started (threaded executors).
    Wall,
    /// Virtual µs of simulated time (discrete-event executor).
    Virtual,
}

/// One stamped event as drained from a ring.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Global emission sequence number (total order across rings).
    pub seq: u64,
    /// Ring index: `0..workers` are worker tracks, `workers` is the
    /// control track (scheduler / speculation manager / dispatch pump).
    pub worker: u32,
    /// Wall-clock stamp, µs since the run started.
    pub wall_us: u64,
    /// Virtual-time stamp, µs (zero unless the simulator fed the clock).
    pub virt_us: u64,
    /// The event.
    pub kind: EventKind,
}

impl TraceEvent {
    /// The stamp in the log's timebase.
    pub fn ts(&self, tb: Timebase) -> u64 {
        match tb {
            Timebase::Wall => self.wall_us,
            Timebase::Virtual => self.virt_us,
        }
    }
}

/// A drained, time-ordered event log — the input to every exporter.
#[derive(Debug, Clone)]
pub struct TraceLog {
    /// Worker-track count (the log additionally has one control track,
    /// index `workers`).
    pub workers: usize,
    /// Which clock stamped this run.
    pub timebase: Timebase,
    /// Events sorted by `(ts in timebase, seq)`.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overflow (oldest-first overwrite).
    pub dropped: u64,
    /// Per-ring drop counts, `workers + 1` entries (last is the control
    /// ring) — pinpoints *which* worker's ring overflowed. Sums to
    /// [`TraceLog::dropped`]. Hand-built logs may leave this empty.
    pub dropped_per_worker: Vec<u64>,
    /// Free-form run label (e.g. the dispatch policy), shown in exports.
    pub label: String,
}

impl TraceLog {
    /// The control-track index (`workers`).
    pub fn control_track(&self) -> u32 {
        self.workers as u32
    }

    /// Events of one kind label (convenience for tests and reports).
    pub fn count(&self, label: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind.label() == label)
            .count()
    }

    /// The degradation machine's level changes, `(from, to, cause)` in
    /// log order.
    pub fn degrade_steps(&self) -> impl Iterator<Item = (u32, u32, StepCause)> + '_ {
        self.events.iter().filter_map(|e| match e.kind {
            EventKind::DegradeStep { from, to, cause } => Some((from, to, cause)),
            _ => None,
        })
    }

    /// Last timestamp in the log's timebase (0 when empty).
    pub fn span_us(&self) -> u64 {
        self.events
            .iter()
            .map(|e| e.ts(self.timebase))
            .max()
            .unwrap_or(0)
    }

    /// Every task span, in task-end order: each task-end paired with the
    /// task-start of the same id. A span runs on the start event's track;
    /// one whose start was lost to ring overflow spans no time at its end's
    /// stamp, on the end's track, with tag 0.
    pub fn tasks(&self) -> Vec<TaskSpan> {
        let tb = self.timebase;
        let mut starts: HashMap<u64, (&TraceEvent, u64)> = HashMap::new();
        let mut spans = Vec::new();
        for e in &self.events {
            match e.kind {
                EventKind::TaskStart { id, tag, .. } => {
                    starts.insert(id, (e, tag));
                }
                EventKind::TaskEnd {
                    id,
                    name,
                    version,
                    discarded,
                    ..
                } => {
                    let (start, tag) = starts.remove(&id).unwrap_or((e, 0));
                    spans.push(TaskSpan {
                        id,
                        name,
                        version,
                        tag,
                        worker: start.worker,
                        start: start.ts(tb),
                        end: e.ts(tb),
                        discarded,
                    });
                }
                _ => {}
            }
        }
        spans
    }
}

/// One task body's occupancy of a worker, from [`TraceLog::tasks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskSpan {
    /// Task id.
    pub id: u64,
    /// Task kind name.
    pub name: &'static str,
    /// Speculation version, if any.
    pub version: Option<u32>,
    /// The application tag of the task.
    pub tag: u64,
    /// Track (worker) the body ran on.
    pub worker: u32,
    /// Start stamp in the log's timebase, µs.
    pub start: u64,
    /// End stamp in the log's timebase, µs.
    pub end: u64,
    /// Whether the body's work was discarded — wasted.
    pub discarded: bool,
}

impl TaskSpan {
    /// The span's duration, µs.
    pub fn busy_us(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            EventKind::Rollback {
                version: 1,
                cascade_depth: 3
            }
            .label(),
            "rollback"
        );
        assert_eq!(EventKind::Park.label(), "park");
        assert_eq!(ClassTag::Speculative.label(), "speculative");
    }

    #[test]
    fn version_extraction() {
        assert_eq!(EventKind::Commit { version: 7 }.version(), Some(7));
        assert_eq!(
            EventKind::TaskStart {
                id: 1,
                name: "t",
                version: None,
                tag: 0
            }
            .version(),
            None
        );
        assert_eq!(EventKind::Steal { id: 1, victim: 0 }.version(), None);
    }

    #[test]
    fn tasks_pair_starts_and_ends_by_id() {
        let ev = |seq: u64, worker: u32, virt_us: u64, kind: EventKind| TraceEvent {
            seq,
            worker,
            wall_us: 0,
            virt_us,
            kind,
        };
        let start = |id, tag| EventKind::TaskStart {
            id,
            name: "enc",
            version: Some(3),
            tag,
        };
        let end = |id, discarded| EventKind::TaskEnd {
            id,
            name: "enc",
            class: ClassTag::Speculative,
            version: Some(3),
            discarded,
            faulted: false,
            busy_us: 0,
        };
        let log = TraceLog {
            workers: 2,
            timebase: Timebase::Virtual,
            events: vec![
                ev(0, 0, 0, start(1, 10)),
                ev(1, 1, 2, start(2, 20)),
                ev(2, 0, 5, end(1, false)),
                ev(3, 1, 9, end(2, true)),
                // A start lost to ring overflow.
                ev(4, 1, 11, end(7, false)),
            ],
            dropped: 1,
            dropped_per_worker: Vec::new(),
            label: String::new(),
        };
        let spans = log.tasks();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].id, spans[0].tag, spans[0].worker), (1, 10, 0));
        assert_eq!((spans[0].busy_us(), spans[0].discarded), (5, false));
        assert_eq!((spans[1].id, spans[1].tag, spans[1].worker), (2, 20, 1));
        assert_eq!((spans[1].busy_us(), spans[1].discarded), (7, true));
        assert_eq!((spans[2].start, spans[2].end, spans[2].tag), (11, 11, 0));
    }

    #[test]
    fn timebase_selects_stamp() {
        let e = TraceEvent {
            seq: 0,
            worker: 0,
            wall_us: 5,
            virt_us: 9,
            kind: EventKind::Park,
        };
        assert_eq!(e.ts(Timebase::Wall), 5);
        assert_eq!(e.ts(Timebase::Virtual), 9);
    }
}
