//! Platform models: the paper's two evaluation machines.
//!
//! We do not have an 8×Quad-Core Opteron or a Cell BE blade; the
//! discrete-event executor models them through this module instead. What
//! matters for the paper's observations is not clock speed but *structure*:
//!
//! * **x86 SMP** — workers take tasks straight from the scheduler when they
//!   go idle ("a simple polling mechanism waits for tasks to be assigned").
//! * **Cell BE** — software-managed 256 KB local stores force *multiple
//!   buffering*: ~4 tasks' worth of data are prefetched per worker
//!   (limiting task memory to 32 KB), so dispatch decisions are made early
//!   and a deep per-worker pipeline forms. The paper blames exactly this
//!   for the conservative policy's poor showing on Cell. Each task also
//!   pays a DMA transfer cost.

use crate::task::Time;

/// Maps a task's kind and payload size to a compute cost in virtual µs.
///
/// Applications provide this (the Huffman pipeline knows what a `count`
/// over 4 KB costs); the platform then scales it.
pub trait CostModel: Send + Sync {
    /// Cost in µs of running task `name` over `bytes` payload bytes on a
    /// reference (x86) core.
    fn cost_us(&self, name: &str, bytes: usize) -> Time;
}

/// A trivial cost model: every task costs the same. Useful in scheduler
/// unit tests.
#[derive(Debug, Clone, Copy)]
pub struct FixedCost(pub Time);

impl CostModel for FixedCost {
    fn cost_us(&self, _name: &str, _bytes: usize) -> Time {
        self.0
    }
}

/// An execution platform for the discrete-event executor.
#[derive(Debug, Clone)]
pub struct Platform {
    /// Human-readable name ("x86", "cell").
    pub name: &'static str,
    /// Number of worker threads ("in both cases, we use 16 worker
    /// threads").
    pub workers: usize,
    /// Multiplier applied to every compute cost (relative core speed).
    pub compute_scale: f64,
    /// Per-task dispatch bookkeeping overhead, µs.
    pub dispatch_overhead_us: Time,
    /// Per-task DMA in/out cost, µs (Cell local stores; 0 on x86).
    pub dma_us: Time,
    /// Per-worker prefetch queue depth (multiple buffering). 1 = take work
    /// only when idle (x86); 4 = the Cell's four-task overlay.
    pub prefetch_depth: usize,
    /// Maximum payload bytes a single task may touch (Cell: 32 KB local
    /// store slice). Checked at spawn by the simulator.
    pub max_task_bytes: Option<usize>,
}

impl Platform {
    /// Total virtual cost of a task on this platform.
    pub fn task_cost_us(&self, model: &dyn CostModel, name: &str, bytes: usize) -> Time {
        let compute = (model.cost_us(name, bytes) as f64 * self.compute_scale).round() as Time;
        compute + self.dma_us + self.dispatch_overhead_us
    }
}

/// The paper's x86 machine: 8×Quad-Core Opteron, 16 worker threads.
pub fn x86_smp(workers: usize) -> Platform {
    Platform {
        name: "x86",
        workers,
        compute_scale: 1.0,
        dispatch_overhead_us: 1,
        dma_us: 0,
        prefetch_depth: 1,
        max_task_bytes: None,
    }
}

/// The paper's Cell BE blade: 16 SPE workers, 4-deep multiple buffering,
/// 32 KB task memory, per-task DMA.
pub fn cell_be(workers: usize) -> Platform {
    Platform {
        name: "cell",
        workers,
        // SPEs are markedly slower than the Opterons on byte-granular
        // scalar work (no branch prediction, no scalar datapath): the
        // per-task cost grows, which is also what creates lane contention
        // at the 4-deep prefetch refill points.
        compute_scale: 1.7,
        dispatch_overhead_us: 1,
        dma_us: 8,
        prefetch_depth: 4,
        max_task_bytes: Some(32 * 1024),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_cost_is_fixed() {
        let m = FixedCost(42);
        assert_eq!(m.cost_us("anything", 0), 42);
        assert_eq!(m.cost_us("else", 1 << 20), 42);
    }

    #[test]
    fn platform_cost_composition() {
        let p = Platform {
            compute_scale: 2.0,
            dma_us: 5,
            dispatch_overhead_us: 3,
            ..x86_smp(4)
        };
        assert_eq!(p.task_cost_us(&FixedCost(10), "t", 0), 10 * 2 + 5 + 3);
    }

    #[test]
    fn x86_defaults() {
        let p = x86_smp(16);
        assert_eq!(p.workers, 16);
        assert_eq!(p.prefetch_depth, 1);
        assert_eq!(p.dma_us, 0);
        assert!(p.max_task_bytes.is_none());
    }

    #[test]
    fn cell_defaults() {
        let p = cell_be(16);
        assert_eq!(p.prefetch_depth, 4);
        assert!(p.dma_us > 0);
        assert_eq!(p.max_task_bytes, Some(32 * 1024));
    }

    #[test]
    #[should_panic(expected = "local-store limit")]
    fn cell_rejects_oversized_tasks() {
        use crate::task::{payload, TaskSpec};
        use crate::workload::{Completion, InputBlock, SchedCtx, Workload};
        struct Spawns(usize);
        impl Workload for Spawns {
            fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
                ctx.spawn(TaskSpec::regular("t", 0, self.0, 0, |_| payload(())));
            }
            fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {}
            fn on_complete(&mut self, _: &mut dyn SchedCtx, _: Completion) {
                self.0 = 0;
            }
            fn is_finished(&self) -> bool {
                self.0 == 0
            }
        }
        let cell = crate::exec::sim::SimConfig::new(cell_be(1));
        let run = |bytes| {
            let (policy, ins) = (crate::DispatchPolicy::NonSpeculative, Default::default());
            crate::exec::sim::run(
                Spawns(bytes),
                &cell,
                policy,
                &FixedCost(1),
                &[],
                vec![],
                &ins,
            )
        };
        assert!(run(32 * 1024).is_ok(), "a full local store is allowed");
        let _ = run(32 * 1024 + 1);
    }
}
