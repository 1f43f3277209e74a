//! Aggregate run metrics.

use crate::task::Time;

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
    /// Tasks bound into each worker's ready slot by the dispatcher
    /// (threaded executor) or bound to each simulated worker (simulator).
    ///
    /// **Semantics:** always `workers` entries long — never an empty vec —
    /// so downstream consumers can index per worker. An all-zero vector
    /// means "nothing was routed through lanes", and
    /// [`Self::lane_imbalance`] returns 0.0 for it.
    pub lane_dispatches: Vec<u64>,
    /// Tasks a worker executed after stealing them from another worker's
    /// ready slot. Always zero for the simulator.
    pub steals: u64,
    /// Task bodies that panicked and were caught by the executor
    /// (speculative fault → version abort; non-speculative → retried).
    pub faults: u64,
    /// Retry attempts spent re-running panicked non-speculative bodies.
    pub task_retries: u64,
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
    /// ready slot, in `[0, 1]`. Zero when nothing ran or the executor has
    /// no slots.
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
