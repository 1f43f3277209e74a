//! The coarse-grain task model.
//!
//! Tasks in the SRE are side-effect-free units of computation "with clearly
//! defined inputs and outputs" and execution times in the millisecond (here:
//! tens-of-microseconds to millisecond) range. A task is described by a
//! [`TaskSpec`]; once spawned it is identified by a [`TaskId`] and can carry
//! a speculation version tag and an abort flag.

use std::any::Any;
use std::sync::atomic::{AtomicBool, Ordering};

/// Virtual (or wall-clock-derived) time in microseconds.
pub type Time = u64;

/// Unique task identifier, assigned at spawn.
pub type TaskId = u64;

/// Hasher for the scheduler's [`TaskId`]-keyed maps, which are touched
/// several times per task under the commit lock: one [`mix64`] round
/// instead of SipHash. Ids are handed out by the scheduler itself, never
/// taken from outside input, so there is no collision flooding to defend
/// against.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

/// splitmix64 finalizer: a cheap, dependency-free bijective mixer. Also
/// used by the replication plane's deterministic task sampling and the
/// retry backoff's jitter.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl std::hash::Hasher for IdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("IdHasher only hashes TaskId (u64) keys");
    }
    fn write_u64(&mut self, id: u64) {
        self.0 = mix64(id);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by [`TaskId`] using [`IdHasher`]. Iteration order is
/// as arbitrary as the default hasher's; nothing may depend on it.
pub(crate) type IdMap<V> =
    std::collections::HashMap<TaskId, V, std::hash::BuildHasherDefault<IdHasher>>;

/// Monotonic speculation version; tasks tagged with an aborted version are
/// destroyed (ready) or flagged (running) during rollback.
pub type SpecVersion = u32;

/// Scheduling class of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskClass {
    /// Ordinary pipeline work on the natural (non-speculative) path.
    Regular,
    /// Ordinary pipeline work on a speculative path (must carry a version).
    Speculative,
    /// A value-prediction task. Always dispatched first — the paper gives
    /// "value predicting and verification tasks the highest priority, no
    /// matter where they are located in the pipeline".
    Predictor,
    /// A speculation-verification (check) task. Also always dispatched
    /// first.
    Check,
}

impl TaskClass {
    /// Whether tasks of this class are drained before any policy decision.
    pub fn is_control(self) -> bool {
        matches!(self, TaskClass::Predictor | TaskClass::Check)
    }

    /// The class as `tvs-trace`'s dependency-free mirror enum (that crate
    /// sits below this one, so it cannot import `TaskClass` itself).
    pub fn trace_tag(self) -> tvs_trace::ClassTag {
        match self {
            TaskClass::Regular => tvs_trace::ClassTag::Regular,
            TaskClass::Speculative => tvs_trace::ClassTag::Speculative,
            TaskClass::Predictor => tvs_trace::ClassTag::Predictor,
            TaskClass::Check => tvs_trace::ClassTag::Check,
        }
    }
}

/// The type-erased output of a task.
pub type Payload = Box<dyn Any + Send>;

/// What a running task body is handed: its abort flag and the run's input.
///
/// Built by the executor for one call of the body and borrowed only for
/// that call, so a body is still `'static` — it captures *where* its data
/// lies (a range of the input, a shared histogram), never the input bytes
/// themselves — while the input itself stays the one buffer the caller of
/// the executor's `run` owns: nothing is copied per block or per task. A
/// retried attempt and a replica get a context over the same bytes.
///
/// The flag is how a side-effect-free task learns that its speculation
/// was aborted while it runs, so it can stop early ("launched tasks cannot
/// be deleted; the system marks them with an abort flag"). Honouring it is
/// an optimisation, not a correctness requirement — discarded outputs are
/// dropped either way.
#[derive(Clone, Copy)]
pub struct TaskCtx<'a> {
    abort: &'a AtomicBool,
    input: &'a [u8],
}

impl std::fmt::Debug for TaskCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskCtx")
            .field("aborted", &self.aborted())
            .field("input_len", &self.input.len())
            .finish()
    }
}

impl<'a> TaskCtx<'a> {
    /// A context over `abort` and the run's `input`.
    pub fn new(abort: &'a AtomicBool, input: &'a [u8]) -> Self {
        TaskCtx { abort, input }
    }

    /// `true` once the task's version has been rolled back.
    pub fn aborted(&self) -> bool {
        self.abort.load(Ordering::Relaxed)
    }

    /// The run's whole input: the buffer every [`crate::InputBlock`]'s
    /// `bytes` range points into.
    pub fn input(&self) -> &'a [u8] {
        self.input
    }

    /// Raise the abort flag.
    pub(crate) fn signal_abort(flag: &AtomicBool) {
        flag.store(true, Ordering::Relaxed);
    }
}

/// The body of a task: reads nothing but its captures and the run's input
/// (`ctx.input()`; tasks are side-effect free), may poll `ctx.aborted()`,
/// and returns its output.
///
/// `FnMut`, not `FnOnce`: a body that panics is caught by the executor and
/// — for non-speculative tasks — retried in place with bounded backoff, so
/// the same closure must be callable again. Bodies stay side-effect free,
/// so re-running one is always safe.
pub type TaskFn = Box<dyn FnMut(&TaskCtx<'_>) -> Payload + Send>;

/// Everything the scheduler needs to know to run a task.
pub struct TaskSpec {
    /// Task kind name; keys the cost model and appears in traces
    /// (e.g. `"count"`, `"reduce"`, `"tree"`, `"offset"`, `"encode"`).
    pub name: &'static str,
    /// Scheduling class.
    pub class: TaskClass,
    /// Pipeline depth: deeper (later-stage) tasks are preferred, the SRE's
    /// antidote to breadth-first FCFS which "extends latency and tends to
    /// be toxic to memory locality".
    pub depth: u32,
    /// Number of payload bytes the task touches; feeds the cost model and
    /// the Cell local-store admission check.
    pub bytes: usize,
    /// Speculation version for `Speculative`/version-bound control tasks.
    pub version: Option<SpecVersion>,
    /// Application-defined tag (e.g. block index) carried to the completion.
    pub tag: u64,
    /// When set, this task is a *replica*: a redundant re-execution of the
    /// referenced primary task, spawned for replication-based validation.
    /// The scheduler counts and traces replica spawns; delivery-side vote
    /// comparison lives above it (replicas are never routed to the
    /// workload's `on_complete`, so they cannot double-commit).
    pub replica_of: Option<TaskId>,
    /// The task body.
    pub run: TaskFn,
}

impl std::fmt::Debug for TaskSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskSpec")
            .field("name", &self.name)
            .field("class", &self.class)
            .field("depth", &self.depth)
            .field("bytes", &self.bytes)
            .field("version", &self.version)
            .field("tag", &self.tag)
            .field("replica_of", &self.replica_of)
            .finish()
    }
}

impl TaskSpec {
    /// A regular (non-speculative) task.
    pub fn regular(
        name: &'static str,
        depth: u32,
        bytes: usize,
        tag: u64,
        run: impl FnMut(&TaskCtx<'_>) -> Payload + Send + 'static,
    ) -> Self {
        TaskSpec {
            name,
            class: TaskClass::Regular,
            depth,
            bytes,
            version: None,
            tag,
            replica_of: None,
            run: Box::new(run),
        }
    }

    /// A speculative task tagged with `version`.
    pub fn speculative(
        name: &'static str,
        depth: u32,
        bytes: usize,
        version: SpecVersion,
        tag: u64,
        run: impl FnMut(&TaskCtx<'_>) -> Payload + Send + 'static,
    ) -> Self {
        TaskSpec {
            name,
            class: TaskClass::Speculative,
            depth,
            bytes,
            version: Some(version),
            tag,
            replica_of: None,
            run: Box::new(run),
        }
    }

    /// A value-prediction task (highest dispatch priority).
    pub fn predictor(
        name: &'static str,
        bytes: usize,
        version: SpecVersion,
        tag: u64,
        run: impl FnMut(&TaskCtx<'_>) -> Payload + Send + 'static,
    ) -> Self {
        TaskSpec {
            name,
            class: TaskClass::Predictor,
            depth: u32::MAX,
            bytes,
            version: Some(version),
            tag,
            replica_of: None,
            run: Box::new(run),
        }
    }

    /// A verification task (highest dispatch priority).
    ///
    /// Check tasks are *not* tagged with the version they examine: they must
    /// survive the rollback they themselves may trigger.
    pub fn check(
        name: &'static str,
        bytes: usize,
        tag: u64,
        run: impl FnMut(&TaskCtx<'_>) -> Payload + Send + 'static,
    ) -> Self {
        TaskSpec {
            name,
            class: TaskClass::Check,
            depth: u32::MAX,
            bytes,
            version: None,
            tag,
            replica_of: None,
            run: Box::new(run),
        }
    }

    /// Mark this task as a replica of `primary` (builder-style). Used by
    /// the replication-validation plane when it re-executes a completed
    /// task to vote on its output.
    pub fn as_replica_of(mut self, primary: TaskId) -> Self {
        self.replica_of = Some(primary);
        self
    }

    /// Whether this task runs on a speculative path.
    pub fn is_speculative(&self) -> bool {
        matches!(self.class, TaskClass::Speculative)
    }
}

/// Convenience for building payloads.
pub fn payload<T: Any + Send>(value: T) -> Payload {
    Box::new(value)
}

/// Downcast a payload, panicking with a readable message on type mismatch
/// (a routing bug in the workload, not a runtime condition).
pub fn expect_payload<T: Any>(p: Payload, what: &str) -> T {
    *p.downcast::<T>()
        .unwrap_or_else(|_| panic!("payload type mismatch: expected {what}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_flag_round_trip() {
        let flag = AtomicBool::new(false);
        let ctx = TaskCtx::new(&flag, b"input");
        assert!(!ctx.aborted());
        TaskCtx::signal_abort(&flag);
        assert!(ctx.aborted());
        assert_eq!(ctx.input(), b"input");
    }

    #[test]
    fn control_classes() {
        assert!(TaskClass::Predictor.is_control());
        assert!(TaskClass::Check.is_control());
        assert!(!TaskClass::Regular.is_control());
        assert!(!TaskClass::Speculative.is_control());
    }

    #[test]
    fn constructors_set_classes_and_versions() {
        let r = TaskSpec::regular("count", 1, 4096, 7, |_| payload(1u32));
        assert_eq!(r.class, TaskClass::Regular);
        assert_eq!(r.version, None);
        assert!(!r.is_speculative());

        let s = TaskSpec::speculative("encode", 4, 4096, 3, 9, |_| payload(2u32));
        assert_eq!(s.class, TaskClass::Speculative);
        assert_eq!(s.version, Some(3));
        assert!(s.is_speculative());

        let p = TaskSpec::predictor("tree", 1024, 5, 0, |_| payload(3u32));
        assert_eq!(p.class, TaskClass::Predictor);
        assert_eq!(p.depth, u32::MAX);

        let c = TaskSpec::check("check", 0, 0, |_| payload(4u32));
        assert_eq!(c.class, TaskClass::Check);
        assert_eq!(c.version, None);
    }

    #[test]
    fn payload_round_trip() {
        let p = payload(vec![1u8, 2, 3]);
        let v: Vec<u8> = expect_payload(p, "Vec<u8>");
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "payload type mismatch")]
    fn payload_mismatch_panics() {
        let p = payload(42u32);
        let _: String = expect_payload(p, "String");
    }

    #[test]
    fn task_bodies_run_and_see_ctx() {
        let mut spec = TaskSpec::regular("t", 0, 0, 0, |ctx| {
            payload((ctx.aborted(), ctx.input()[1..3].to_vec()))
        });
        let flag = AtomicBool::new(false);
        let out = (spec.run)(&TaskCtx::new(&flag, b"abcd"));
        let (aborted, seen) = expect_payload::<(bool, Vec<u8>)>(out, "(bool, Vec<u8>)");
        assert!(!aborted);
        assert_eq!(seen, b"bc", "the body reads its range of the run's input");
    }

    #[test]
    fn task_bodies_are_re_runnable_after_a_panicked_attempt() {
        // The executors retry panicked non-speculative bodies; FnMut makes
        // that legal. A counter capture shows the same closure runs twice.
        let mut calls = 0u32;
        let mut spec = TaskSpec::regular("flaky", 0, 0, 0, move |_| {
            calls += 1;
            if calls == 1 {
                panic!("first attempt fails");
            }
            payload(calls)
        });
        let flag = AtomicBool::new(false);
        let ctx = TaskCtx::new(&flag, &[]);
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (spec.run)(&ctx)));
        assert!(first.is_err());
        let second = (spec.run)(&ctx);
        assert_eq!(expect_payload::<u32>(second, "u32"), 2);
    }
}
