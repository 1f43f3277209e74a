//! Execution traces and aggregate run metrics.

use crate::task::{SpecVersion, TaskId, Time};

/// One executed task, as recorded by an executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskTrace {
    /// Task id.
    pub id: TaskId,
    /// Task kind name.
    pub name: &'static str,
    /// Worker that ran it.
    pub worker: usize,
    /// Speculation version, if any.
    pub version: Option<SpecVersion>,
    /// Application tag.
    pub tag: u64,
    /// Start time, µs.
    pub start: Time,
    /// End time, µs.
    pub end: Time,
    /// Whether the output was discarded because the version had been
    /// aborted by the time the task completed (wasted work).
    pub discarded: bool,
}

/// Aggregate metrics of one run.
///
/// Implements `PartialEq`/`Eq` so tests can assert that two runs (e.g. a
/// tracing-enabled and a tracing-disabled simulation) produced identical
/// metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// Completion time of the whole run, µs.
    pub makespan: Time,
    /// Number of tasks whose output was delivered.
    pub tasks_delivered: u64,
    /// Number of tasks whose output was discarded (aborted versions).
    pub tasks_discarded: u64,
    /// Number of ready tasks deleted during rollbacks (never ran).
    pub tasks_deleted_ready: u64,
    /// Total busy worker time, µs (delivered + discarded).
    pub busy_us: Time,
    /// Busy time spent on later-discarded tasks, µs (wasted work).
    pub wasted_us: Time,
    /// Number of speculation rollbacks (version aborts).
    pub rollbacks: u64,
    /// Worker count of the platform that produced this run.
    pub workers: usize,
    /// Tasks routed into each worker's ready lane by the dispatcher
    /// (threaded executor) or bound to each simulated worker (simulator).
    ///
    /// **Semantics:** always `workers` entries long — never an empty vec —
    /// so downstream consumers can index per worker. An all-zero vector
    /// means "nothing was routed through lanes", and
    /// [`Self::lane_imbalance`] returns 0.0 for it.
    pub lane_dispatches: Vec<u64>,
    /// Tasks a worker executed after stealing them from another worker's
    /// lane. Always zero for the simulator.
    pub steals: u64,
    /// Task bodies that panicked and were caught by the executor
    /// (speculative fault → version abort; non-speculative → retried).
    pub faults: u64,
    /// Retry attempts spent re-running panicked non-speculative bodies.
    pub task_retries: u64,
    /// Tasks cancelled by the watchdog for exceeding their deadline.
    pub watchdog_cancels: u64,
    /// Duplicate completion deliveries the scheduler absorbed (only
    /// non-zero under fault injection).
    pub duplicate_completions: u64,
    /// Replica tasks spawned for replication-based validation (zero
    /// unless the workload is wrapped in a
    /// [`crate::replica::ReplicatingWorkload`] with a replicating mode).
    pub replica_dispatches: u64,
    /// Total µs spent sleeping in jittered retry backoff (threaded
    /// executors only; the simulator retries instantaneously).
    pub retry_backoff_us: u64,
    /// Completion reports rejected by the commit path's worker-epoch gate
    /// (quarantined workers' in-flight reports and duplicated-completion
    /// injections — threaded executor only).
    pub stale_completions_rejected: u64,
    /// Workers the supervisor respawned after a missed heartbeat
    /// (threaded executor only; zero unless supervision is enabled).
    pub worker_respawns: u64,
}

impl RunMetrics {
    /// Mean worker utilisation over the makespan, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.makespan == 0 || self.workers == 0 {
            return 0.0;
        }
        self.busy_us as f64 / (self.makespan as f64 * self.workers as f64)
    }

    /// Fraction of busy time that was wasted on discarded work.
    pub fn waste_ratio(&self) -> f64 {
        if self.busy_us == 0 {
            return 0.0;
        }
        self.wasted_us as f64 / self.busy_us as f64
    }

    /// Fraction of executed tasks that were stolen from another worker's
    /// lane, in `[0, 1]`. Zero when nothing ran or the executor has no
    /// lanes.
    pub fn steal_ratio(&self) -> f64 {
        let executed = self.tasks_delivered + self.tasks_discarded;
        if executed == 0 {
            return 0.0;
        }
        self.steals as f64 / executed as f64
    }

    /// Imbalance of lane routing: max over mean lane dispatch count. 1.0 is
    /// perfectly even; 0.0 when the executor reported no lanes.
    pub fn lane_imbalance(&self) -> f64 {
        if self.lane_dispatches.is_empty() {
            return 0.0;
        }
        let max = self.lane_dispatches.iter().copied().max().unwrap_or(0) as f64;
        let mean =
            self.lane_dispatches.iter().sum::<u64>() as f64 / self.lane_dispatches.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        max / mean
    }
}

/// Render a trace as CSV (`id,name,worker,version,tag,start,end,discarded`),
/// one row per executed task — loadable into any plotting tool for Gantt
/// views of a run.
///
/// The `name` field is RFC-4180 quoted when it contains a comma, quote or
/// newline, so rows always parse back via [`trace_from_csv`] regardless of
/// what task names an application chooses.
pub fn trace_to_csv(trace: &[TaskTrace]) -> String {
    let mut out = String::from(
        "id,name,worker,version,tag,start,end,discarded
",
    );
    for t in trace {
        use std::fmt::Write as _;
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{}",
            t.id,
            tvs_trace::csv::csv_escape(t.name),
            t.worker,
            t.version.map(|v| v.to_string()).unwrap_or_default(),
            t.tag,
            t.start,
            t.end,
            t.discarded
        );
    }
    out
}

/// One parsed row of [`trace_to_csv`] output. Identical to [`TaskTrace`]
/// except that `name` is owned (the CSV cannot yield `&'static str`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRow {
    /// Task id.
    pub id: TaskId,
    /// Task kind name.
    pub name: String,
    /// Worker that ran it.
    pub worker: usize,
    /// Speculation version, if any.
    pub version: Option<SpecVersion>,
    /// Application tag.
    pub tag: u64,
    /// Start time, µs.
    pub start: Time,
    /// End time, µs.
    pub end: Time,
    /// Whether the output was discarded.
    pub discarded: bool,
}

/// Parse [`trace_to_csv`] output back into rows. Returns `None` on a
/// malformed header, row shape, quoting or field value.
pub fn trace_from_csv(csv: &str) -> Option<Vec<TraceRow>> {
    let mut lines = csv.lines();
    if lines.next()? != "id,name,worker,version,tag,start,end,discarded" {
        return None;
    }
    let mut rows = Vec::new();
    for line in lines {
        let f = tvs_trace::csv::csv_split(line)?;
        if f.len() != 8 {
            return None;
        }
        rows.push(TraceRow {
            id: f[0].parse().ok()?,
            name: f[1].clone(),
            worker: f[2].parse().ok()?,
            version: if f[3].is_empty() {
                None
            } else {
                Some(f[3].parse().ok()?)
            },
            tag: f[4].parse().ok()?,
            start: f[5].parse().ok()?,
            end: f[6].parse().ok()?,
            discarded: f[7].parse().ok()?,
        });
    }
    Some(rows)
}

/// Per-worker busy fraction over `[0, makespan]`, computed from a trace.
pub fn worker_utilization(trace: &[TaskTrace], workers: usize, makespan: Time) -> Vec<f64> {
    let mut busy = vec![0u64; workers];
    for t in trace {
        if t.worker < workers {
            busy[t.worker] += t
                .end
                .saturating_sub(t.start)
                .min(makespan.saturating_sub(t.start));
        }
    }
    busy.into_iter()
        .map(|b| {
            if makespan == 0 {
                0.0
            } else {
                (b as f64 / makespan as f64).min(1.0)
            }
        })
        .collect()
}

/// Aggregate `(count, busy_us, discarded)` per task kind, sorted by busy
/// time descending — the "where did the time go" view.
pub fn kind_breakdown(trace: &[TaskTrace]) -> Vec<(&'static str, u64, Time, u64)> {
    let mut map: std::collections::HashMap<&'static str, (u64, Time, u64)> =
        std::collections::HashMap::new();
    for t in trace {
        let e = map.entry(t.name).or_default();
        e.0 += 1;
        e.1 += t.end.saturating_sub(t.start);
        e.2 += t.discarded as u64;
    }
    let mut v: Vec<(&'static str, u64, Time, u64)> =
        map.into_iter().map(|(k, (c, b, d))| (k, c, b, d)).collect();
    v.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
    v
}

/// Full output of a simulation run: the workload (holding application
/// results), aggregate metrics and, optionally, the per-task trace.
pub struct SimReport<W> {
    /// The workload in its final state.
    pub workload: W,
    /// Aggregate metrics.
    pub metrics: RunMetrics,
    /// Per-task trace (present when tracing was enabled).
    pub trace: Vec<TaskTrace>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_math() {
        let m = RunMetrics {
            makespan: 100,
            busy_us: 150,
            workers: 2,
            ..Default::default()
        };
        assert!((m.utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn utilization_degenerate_cases() {
        assert_eq!(RunMetrics::default().utilization(), 0.0);
        let m = RunMetrics {
            makespan: 0,
            busy_us: 10,
            workers: 4,
            ..Default::default()
        };
        assert_eq!(m.utilization(), 0.0);
    }

    fn tr(name: &'static str, worker: usize, start: Time, end: Time, discarded: bool) -> TaskTrace {
        TaskTrace {
            id: 0,
            name,
            worker,
            version: None,
            tag: 0,
            start,
            end,
            discarded,
        }
    }

    #[test]
    fn csv_rendering() {
        let trace = vec![tr("count", 0, 0, 10, false), tr("encode", 1, 5, 25, true)];
        let csv = trace_to_csv(&trace);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "id,name,worker,version,tag,start,end,discarded");
        assert_eq!(lines[1], "0,count,0,,0,0,10,false");
        assert_eq!(lines[2], "0,encode,1,,0,5,25,true");
    }

    #[test]
    fn csv_round_trip_with_awkward_names() {
        let trace = vec![
            TaskTrace {
                id: 3,
                name: "count, \"quoted\"",
                worker: 1,
                version: Some(7),
                tag: 42,
                start: 5,
                end: 25,
                discarded: true,
            },
            tr("encode", 0, 0, 10, false),
        ];
        let csv = trace_to_csv(&trace);
        let rows = trace_from_csv(&csv).expect("round-trip parses");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "count, \"quoted\"");
        assert_eq!(rows[0].version, Some(7));
        assert_eq!(rows[0].tag, 42);
        assert!(rows[0].discarded);
        assert_eq!(rows[1].name, "encode");
        assert_eq!(rows[1].version, None);
        assert!(trace_from_csv("bogus\n1,2").is_none());
    }

    #[test]
    fn utilization_per_worker() {
        let trace = vec![tr("a", 0, 0, 50, false), tr("b", 1, 0, 100, false)];
        let u = worker_utilization(&trace, 2, 100);
        assert!((u[0] - 0.5).abs() < 1e-12);
        assert!((u[1] - 1.0).abs() < 1e-12);
        assert_eq!(worker_utilization(&trace, 2, 0), vec![0.0, 0.0]);
    }

    #[test]
    fn breakdown_sorts_by_busy_time() {
        let trace = vec![
            tr("count", 0, 0, 10, false),
            tr("encode", 0, 10, 110, false),
            tr("encode", 1, 0, 100, true),
        ];
        let b = kind_breakdown(&trace);
        assert_eq!(b[0].0, "encode");
        assert_eq!(b[0].1, 2); // count
        assert_eq!(b[0].2, 200); // busy
        assert_eq!(b[0].3, 1); // discarded
        assert_eq!(b[1].0, "count");
    }

    #[test]
    fn waste_ratio() {
        let m = RunMetrics {
            busy_us: 200,
            wasted_us: 50,
            ..Default::default()
        };
        assert!((m.waste_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(RunMetrics::default().waste_ratio(), 0.0);
    }
}
