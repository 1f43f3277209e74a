//! The SuperTask role: dynamic data-flow graphs as callback-driven task
//! spawning.
//!
//! The paper's SRE "defines a hierarchy of node SuperTasks whose sole
//! purpose is to direct the flow of data between its child Tasks [...]
//! Supertasks are responsible for associating freshly arrived data with its
//! corresponding task." A [`Workload`] is exactly that: it receives input
//! blocks and task completions and spawns successors through a
//! [`SchedCtx`]. The DFG is thus "a snapshot of the application's dynamic
//! execution, rather than a static description".

use crate::task::{Payload, SpecVersion, TaskId, TaskSpec, Time};
use std::ops::Range;

/// A block of input data fed into the system by the I/O thread: where it
/// lies in the run's input, not a copy of it.
///
/// Both executors take the run's input — one buffer, owned by their caller
/// — and a list of these sorted by `arrival`: there it is the block's *due*
/// time, µs from the start of the run (the simulator's virtual clock, the
/// threaded feeder's wall clock). What the workload receives carries the
/// moment the block was actually handed over. A task reads the block's
/// bytes as `ctx.input()[bytes]` (see [`crate::TaskCtx::input`]), so a
/// workload's tasks capture ranges and no block is ever copied.
#[derive(Clone, Debug)]
pub struct InputBlock {
    /// Sequential block index.
    pub index: usize,
    /// Arrival time, µs.
    pub arrival: Time,
    /// The block's bytes: a range of the run's input.
    pub bytes: Range<usize>,
}
/// A delivered task completion.
pub struct Completion {
    /// Id of the finished task.
    pub id: TaskId,
    /// Task kind name (as given in its [`TaskSpec`]).
    pub name: &'static str,
    /// The task's speculation version, if any.
    pub version: Option<SpecVersion>,
    /// The application tag from the [`TaskSpec`].
    pub tag: u64,
    /// When the task started executing, µs.
    pub started: Time,
    /// When the task finished, µs.
    pub finished: Time,
    /// The task's output.
    pub output: Payload,
}

impl std::fmt::Debug for Completion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Completion")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("version", &self.version)
            .field("tag", &self.tag)
            .field("started", &self.started)
            .field("finished", &self.finished)
            .finish()
    }
}

/// Notice of a fault an executor recovered from: a task body panicked
/// (caught by `catch_unwind`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultNotice {
    /// Id of the faulted task.
    pub id: TaskId,
    /// Task kind name.
    pub name: &'static str,
    /// The task's speculation version, if any. The executor aborts the
    /// version through the regular rollback path right after this
    /// callback, so the workload only needs to update its own records
    /// (e.g. tell its speculation manager the version is dead).
    pub version: Option<SpecVersion>,
    /// The application tag from the task's `TaskSpec` — lets a workload
    /// identify *which* unit of its work was lost (e.g. which block) and
    /// re-spawn it, rather than only learning the task kind.
    pub tag: u64,
    /// Retry attempts already spent (0 on the first fault).
    pub attempt: u32,
}

/// Notice of a silent-data-corruption event raised by the replication
/// validation plane (see `crate::replica::ReplicatingWorkload`): the
/// digests of a primary task and its replica diverged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdcNotice {
    /// Id of the primary task whose vote set diverged.
    pub id: TaskId,
    /// Task kind name.
    pub name: &'static str,
    /// The primary task's speculation version, if any.
    pub version: Option<SpecVersion>,
    /// `false` on first detection (a bounded tiebreak re-execution is
    /// about to run); `true` when the vote budget is exhausted without
    /// two digests ever agreeing. For an unresolved *versioned* task the
    /// plane aborts the version right after this callback — workloads
    /// that track version state should treat it like a fault notice and
    /// schedule a non-speculative replay.
    pub unresolved: bool,
}

/// Capabilities a workload has inside its callbacks.
pub trait SchedCtx {
    /// Current time, µs (virtual in the simulator, wall-derived otherwise).
    fn now(&self) -> Time;

    /// Spawn a task. Returns `None` if the task's version has already been
    /// rolled back (the spawn lost the race against the destroy signal).
    fn spawn(&mut self, spec: TaskSpec) -> Option<TaskId>;

    /// Roll back a speculation version: delete its ready tasks, flag its
    /// in-flight tasks, reject its future spawns.
    fn abort_version(&mut self, version: SpecVersion);

    /// Worker count of the executor: the simulated platform's, or the
    /// threaded run's configured one.
    fn workers(&self) -> usize;

    /// The most payload bytes one task may touch (the Cell's 32 KB local
    /// store); `None` when unbounded. Spawning a larger task panics.
    fn max_task_bytes(&self) -> Option<usize> {
        None
    }
}

/// A streaming application: the SuperTask hierarchy collapsed into one
/// routing object (applications may still structure themselves
/// hierarchically inside).
pub trait Workload {
    /// Called once before any input arrives.
    fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
        let _ = ctx;
    }

    /// A new input block arrived from the I/O thread.
    fn on_input(&mut self, ctx: &mut dyn SchedCtx, block: InputBlock);

    /// Every block that became available at the same moment, in input
    /// order, in one activation: the executors call this, never
    /// [`Self::on_input`] directly. A workload that can do better with what
    /// arrived together than block by block (coarser tasks) overrides it;
    /// the default hands the blocks to `on_input` one at a time.
    fn on_input_batch(&mut self, ctx: &mut dyn SchedCtx, batch: Vec<InputBlock>) {
        for block in batch {
            self.on_input(ctx, block);
        }
    }

    /// Called after the final input block has been delivered.
    fn on_input_done(&mut self, ctx: &mut dyn SchedCtx) {
        let _ = ctx;
    }

    /// A task completed and its output was *delivered* (not discarded).
    fn on_complete(&mut self, ctx: &mut dyn SchedCtx, done: Completion);

    /// A task's body panicked (caught by the executor) and its slot
    /// was reclaimed without an output. If the task carried a version the
    /// executor aborts it immediately after this callback; workloads that
    /// track version state (a speculation manager, wait buffers) should
    /// clear it here. Non-speculative faults only reach this callback
    /// once in-place retries are exhausted and the run is about to fail.
    /// Default: ignore.
    fn on_fault(&mut self, ctx: &mut dyn SchedCtx, fault: FaultNotice) {
        let _ = (ctx, fault);
    }

    /// Replication-based validation detected diverging outputs for one of
    /// this workload's tasks (silent data corruption). Called by the
    /// replication plane, not by executors; workloads that feed a
    /// speculation manager should count the failure into its degradation
    /// window here. See [`SdcNotice::unresolved`] for the two phases.
    /// Default: ignore.
    fn on_sdc(&mut self, ctx: &mut dyn SchedCtx, sdc: SdcNotice) {
        let _ = (ctx, sdc);
    }

    /// `true` once the application's result is complete; the executor stops
    /// when this holds and no tasks remain.
    fn is_finished(&self) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::payload;

    /// A minimal workload: counts bytes of every block via one task per
    /// block, summing on completion. Used to smoke-test the trait wiring.
    struct ByteSum {
        expected_blocks: usize,
        seen: usize,
        total: u64,
    }

    impl Workload for ByteSum {
        fn on_input(&mut self, ctx: &mut dyn SchedCtx, block: InputBlock) {
            let bytes = block.bytes;
            ctx.spawn(TaskSpec::regular(
                "sum",
                0,
                bytes.len(),
                block.index as u64,
                move |ctx| {
                    payload(
                        ctx.input()[bytes.clone()]
                            .iter()
                            .map(|&b| b as u64)
                            .sum::<u64>(),
                    )
                },
            ));
        }

        fn on_complete(&mut self, _ctx: &mut dyn SchedCtx, done: Completion) {
            self.total += *done.output.downcast::<u64>().unwrap();
            self.seen += 1;
        }

        fn is_finished(&self) -> bool {
            self.seen == self.expected_blocks
        }
    }

    /// A hand-rolled, inline executor used only here: validates that the
    /// trait contract is implementable without a real executor.
    struct MiniCtx {
        sched: crate::sched::Scheduler,
        now: Time,
    }

    impl SchedCtx for MiniCtx {
        fn now(&self) -> Time {
            self.now
        }
        fn spawn(&mut self, spec: TaskSpec) -> Option<TaskId> {
            self.sched.spawn(spec)
        }
        fn abort_version(&mut self, version: SpecVersion) {
            self.sched.abort_version(version);
        }
        fn workers(&self) -> usize {
            1
        }
    }

    #[test]
    fn workload_contract_smoke() {
        let mut w = ByteSum {
            expected_blocks: 3,
            seen: 0,
            total: 0,
        };
        let mut ctx = MiniCtx {
            sched: crate::sched::Scheduler::new(crate::DispatchPolicy::NonSpeculative),
            now: 0,
        };
        w.on_start(&mut ctx);
        // Blocks of 10, 20 and 30 ones, back to back in one input.
        let input = vec![1u8; 60];
        for (i, bytes) in [0..10, 10..30, 30..60].into_iter().enumerate() {
            let arrival = i as u64;
            w.on_input(
                &mut ctx,
                InputBlock {
                    index: i,
                    arrival,
                    bytes,
                },
            );
        }
        w.on_input_done(&mut ctx);
        while let Some(mut d) = ctx.sched.dispatch() {
            let out = (d.run)(&crate::TaskCtx::new(&d.abort, &input));
            ctx.sched.complete(d.id);
            ctx.now += 1;
            let completion = Completion {
                id: d.id,
                name: d.name,
                version: d.version,
                tag: d.tag,
                started: ctx.now - 1,
                finished: ctx.now,
                output: out,
            };
            w.on_complete(&mut ctx, completion);
        }
        assert!(w.is_finished());
        assert_eq!(w.total, 10 + 20 + 30);
    }
}
