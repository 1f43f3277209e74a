//! The scheduler core, shared by both executors.
//!
//! Owns the ready queue, the bodies of not-yet-dispatched tasks, the
//! metadata of in-flight tasks, and the set of aborted speculation versions.
//! The executors drive it: `spawn` → `dispatch` → run the body → `complete`.
//!
//! Rollback follows the paper's §III-B: "ready tasks must be deleted along
//! with the memory allocated for results. Launched tasks cannot be deleted;
//! the system marks them with an abort flag, and deletes them with their
//! content when they complete."

use crate::instruments::Instruments;
use crate::policy::{DispatchPolicy, LaneLoads};
use crate::queue::ReadyQueue;
use crate::task::{IdMap, SpecVersion, TaskClass, TaskCtx, TaskFn, TaskId, TaskSpec};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tvs_metrics::{Counter, Hist, Recorder};
use tvs_trace::EventKind;

/// A task handed to an executor for execution.
pub struct Dispatched {
    /// Task id (pass back to [`Scheduler::complete`]).
    pub id: TaskId,
    /// Kind name.
    pub name: &'static str,
    /// Scheduling class.
    pub class: TaskClass,
    /// Version tag.
    pub version: Option<SpecVersion>,
    /// Application tag.
    pub tag: u64,
    /// Payload size in bytes (for the cost model).
    pub bytes: usize,
    /// The primary task this is a replica of, if any (see
    /// [`TaskSpec::replica_of`]).
    pub replica_of: Option<TaskId>,
    /// The task's abort flag, raised when its version is rolled back; the
    /// executor lends it to the body in the [`TaskCtx`] of each call.
    pub abort: Arc<AtomicBool>,
    /// The task body.
    pub run: TaskFn,
}

impl Dispatched {
    /// `true` once the task's version has been rolled back.
    pub fn aborted(&self) -> bool {
        self.abort.load(Ordering::Relaxed)
    }
}

/// What `complete` decided about a finished task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionOutcome {
    /// Output is valid: deliver it to the workload.
    Deliver,
    /// The task's version was aborted while it ran: drop the output.
    Discard,
}

struct Running {
    version: Option<SpecVersion>,
    abort: Arc<AtomicBool>,
    class: TaskClass,
    /// The run's clock at dispatch, µs — stamped only for `Check` tasks on
    /// an enabled recorder (feeds the check-latency histogram at
    /// completion).
    dispatched_at: u64,
}

/// The scheduler core. Not thread-safe by itself; executors wrap it.
pub struct Scheduler {
    policy: DispatchPolicy,
    queue: ReadyQueue,
    bodies: IdMap<TaskSpec>,
    running: IdMap<Running>,
    aborted: HashSet<SpecVersion>,
    next_id: TaskId,
    loads: LaneLoads,
    rec: Recorder,
}

impl Scheduler {
    /// A scheduler dispatching under `policy`, dark (no recorder).
    pub fn new(policy: DispatchPolicy) -> Self {
        Self::instrumented(policy, &Instruments::default())
    }

    /// A scheduler that records its facts — a rollback with its cascade
    /// depth, a ready cancellation, a replica spawn — on `ins.recorder`'s
    /// control shard, one call each, together with the counters they
    /// imply, plus the duplicate-completion count and the check-latency
    /// histogram.
    pub fn instrumented(policy: DispatchPolicy, ins: &Instruments) -> Self {
        Scheduler {
            policy,
            queue: ReadyQueue::new(),
            bodies: IdMap::default(),
            running: IdMap::default(),
            aborted: HashSet::new(),
            next_id: 1,
            loads: LaneLoads::default(),
            rec: ins.recorder.clone(),
        }
    }

    /// The active dispatch policy.
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    /// Add a task. Returns `None` when the task's version has already been
    /// rolled back — the destroy signal beats the spawn.
    pub fn spawn(&mut self, spec: TaskSpec) -> Option<TaskId> {
        if spec.version.is_some_and(|v| self.aborted.contains(&v)) {
            return None;
        }
        if spec.is_speculative() && !self.policy.speculates() {
            // A NonSpeculative run must not receive speculative tasks; this
            // is a workload wiring bug, surface it loudly.
            panic!(
                "speculative task '{}' spawned under the non-speculative policy",
                spec.name
            );
        }
        let id = self.next_id;
        self.next_id += 1;
        if let Some(of) = spec.replica_of {
            self.rec.emit_control(EventKind::ReplicaDispatch { id, of });
        }
        self.queue.push(id, spec.class, spec.depth, spec.version);
        self.bodies.insert(id, spec);
        Some(id)
    }

    /// Take the next task to run, per class priorities and the dispatch
    /// policy.
    pub fn dispatch(&mut self) -> Option<Dispatched> {
        self.dispatch_with(false)
    }

    /// [`Self::dispatch`] with the multiple-buffering hint: whether
    /// non-speculative tasks are bound into worker prefetch queues but not
    /// yet executing (see
    /// [`DispatchPolicy::choose`](crate::policy::DispatchPolicy::choose)).
    pub fn dispatch_with(&mut self, normal_pending_elsewhere: bool) -> Option<Dispatched> {
        let id = self
            .queue
            .pop(self.policy, self.loads, normal_pending_elsewhere)?;
        let spec = self.bodies.remove(&id).expect("queued task has a body");
        match spec.class {
            TaskClass::Regular => self.loads.count_normal += 1,
            TaskClass::Speculative => self.loads.count_spec += 1,
            TaskClass::Predictor | TaskClass::Check => {}
        }
        let abort = Arc::new(AtomicBool::new(false));
        let dispatched_at = if spec.class == TaskClass::Check && self.rec.is_enabled() {
            self.rec.now_us()
        } else {
            0
        };
        self.running.insert(
            id,
            Running {
                version: spec.version,
                abort: Arc::clone(&abort),
                class: spec.class,
                dispatched_at,
            },
        );
        Some(Dispatched {
            id,
            name: spec.name,
            class: spec.class,
            version: spec.version,
            tag: spec.tag,
            bytes: spec.bytes,
            replica_of: spec.replica_of,
            abort,
            run: spec.run,
        })
    }

    /// Batch form of [`Self::dispatch_with`]: pop up to `limit` tasks in
    /// dispatch order. Used by the threaded executor's dispatch pump to
    /// amortise the commit lock over many ready-lane hand-offs.
    pub fn dispatch_batch(
        &mut self,
        limit: usize,
        normal_pending_elsewhere: bool,
    ) -> Vec<Dispatched> {
        let mut out = Vec::new();
        while out.len() < limit {
            match self.dispatch_with(normal_pending_elsewhere) {
                Some(d) => out.push(d),
                None => break,
            }
        }
        out
    }

    /// Cancel a dispatched-but-not-yet-executed task (bound into a worker's
    /// ready lane when its version was rolled back). The task never ran, so
    /// it counts as a ready deletion — the paper's "ready tasks must be
    /// deleted" — not as discarded work.
    pub fn cancel_bound(&mut self, id: TaskId) {
        let r = self
            .running
            .remove(&id)
            .expect("cancel_bound() called for a task that is not running");
        self.rec.emit_control(EventKind::CancelReady {
            id,
            version: r.version.unwrap_or(0),
        });
    }

    /// Whether any task could be dispatched right now.
    pub fn has_dispatchable(&self) -> bool {
        self.queue.has_dispatchable(self.policy)
    }

    /// Number of ready tasks (any class).
    pub fn ready_len(&self) -> usize {
        self.queue.len()
    }

    /// Number of in-flight (dispatched, not completed) tasks.
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Charge `busy_us` of worker time to `class`'s lane — the input to
    /// `Balanced`'s equal-share rule. Executors call this as soon as they
    /// know a dispatched task's cost (the simulator: at assignment; the
    /// threaded runtime: at completion). Control tasks are not charged:
    /// they bypass the policy anyway.
    pub fn charge(&mut self, class: TaskClass, busy_us: u64) {
        match class {
            TaskClass::Regular => self.loads.busy_normal_us += busy_us,
            TaskClass::Speculative => self.loads.busy_spec_us += busy_us,
            TaskClass::Predictor | TaskClass::Check => {}
        }
    }

    /// Per-lane charged busy time `(normal, speculative)`, µs.
    pub fn lane_busy_us(&self) -> (u64, u64) {
        (self.loads.busy_normal_us, self.loads.busy_spec_us)
    }

    /// The full per-lane load accounting (busy time + dispatch counts).
    pub fn lane_loads(&self) -> LaneLoads {
        self.loads
    }

    /// Report a dispatched task as finished. The executor then either
    /// delivers the output to the workload or drops it.
    pub fn complete(&mut self, id: TaskId) -> CompletionOutcome {
        self.try_complete(id)
            .expect("complete() called for a task that is not running")
    }

    /// Duplicate-tolerant [`Self::complete`]: returns `None` (and counts a
    /// tolerated duplicate) when `id` is not in flight — the task already
    /// completed or faulted, so this delivery is an echo. Fault-injection
    /// chaos runs duplicate completions on purpose; executors route every
    /// completion through here so the echo is absorbed instead of
    /// panicking.
    pub fn try_complete(&mut self, id: TaskId) -> Option<CompletionOutcome> {
        let r = match self.running.remove(&id) {
            Some(r) => r,
            None => {
                self.rec.add_control(Counter::DuplicateCompletions, 1);
                return None;
            }
        };
        if r.class == TaskClass::Check && self.rec.is_enabled() {
            let lat = self.rec.now_us().saturating_sub(r.dispatched_at);
            self.rec.record(Hist::CheckLatencyUs, lat);
        }
        let aborted = r.version.is_some_and(|v| self.aborted.contains(&v));
        Some(if aborted {
            CompletionOutcome::Discard
        } else {
            CompletionOutcome::Deliver
        })
    }

    /// Reclaim the slot of a running task whose body panicked (caught by
    /// the executor) or that the watchdog cancelled. Returns the task's
    /// version so the caller can route it through the rollback path; no
    /// output is delivered or discarded. Idempotent against races with
    /// completion: an unknown id returns `None`.
    pub fn fault(&mut self, id: TaskId) -> Option<Option<SpecVersion>> {
        self.running.remove(&id).map(|r| r.version)
    }

    /// Roll back a speculation version: delete its ready tasks, flag its
    /// running tasks, and reject its future spawns.
    ///
    /// Returns the number of ready tasks deleted.
    pub fn abort_version(&mut self, version: SpecVersion) -> usize {
        if !self.aborted.insert(version) {
            return 0; // already aborted; idempotent
        }
        let victims = self.queue.remove_version(version);
        for id in &victims {
            self.bodies.remove(id);
        }
        for r in self.running.values() {
            if r.version == Some(version) {
                TaskCtx::signal_abort(&r.abort);
            }
        }
        self.rec.emit_control(EventKind::Rollback {
            version,
            cascade_depth: victims.len() as u64,
        });
        victims.len()
    }

    /// Whether `version` has been rolled back.
    pub fn is_aborted(&self, version: SpecVersion) -> bool {
        self.aborted.contains(&version)
    }

    /// `true` when no task is ready or running.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.running.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::payload;

    fn reg(name: &'static str, depth: u32) -> TaskSpec {
        TaskSpec::regular(name, depth, 0, 0, |_| payload(()))
    }

    fn spec_task(name: &'static str, v: SpecVersion) -> TaskSpec {
        TaskSpec::speculative(name, 0, 0, v, 0, |_| payload(()))
    }

    /// A scheduler recording into `rec`.
    fn recorded(policy: DispatchPolicy, rec: &Recorder) -> Scheduler {
        Scheduler::instrumented(policy, &Instruments::recorded(rec.clone()))
    }

    #[test]
    fn spawn_dispatch_complete_cycle() {
        let mut s = Scheduler::new(DispatchPolicy::Balanced);
        assert!(s.is_idle());
        let id = s.spawn(reg("a", 0)).unwrap();
        assert!(!s.is_idle());
        assert_eq!(s.ready_len(), 1);
        let d = s.dispatch().unwrap();
        assert_eq!(d.id, id);
        assert_eq!(s.ready_len(), 0);
        assert_eq!(s.running_len(), 1);
        assert_eq!(s.complete(id), CompletionOutcome::Deliver);
        assert!(s.is_idle());
    }

    #[test]
    fn abort_deletes_ready_tasks() {
        let rec = Recorder::counters(1);
        let mut s = recorded(DispatchPolicy::Aggressive, &rec);
        s.spawn(spec_task("e1", 5)).unwrap();
        s.spawn(spec_task("e2", 5)).unwrap();
        s.spawn(spec_task("other", 6)).unwrap();
        assert_eq!(s.abort_version(5), 2);
        assert_eq!(s.ready_len(), 1);
        assert_eq!(rec.counter_total(Counter::DeletedReady), 2);
        assert_eq!(rec.counter_total(Counter::Rollbacks), 1);
        // idempotent
        assert_eq!(s.abort_version(5), 0);
        assert_eq!(rec.counter_total(Counter::Rollbacks), 1);
    }

    #[test]
    fn abort_flags_running_tasks_and_discards_their_output() {
        let mut s = Scheduler::new(DispatchPolicy::Aggressive);
        let id = s.spawn(spec_task("enc", 9)).unwrap();
        let d = s.dispatch().unwrap();
        assert!(!d.aborted());
        s.abort_version(9);
        assert!(d.aborted(), "in-flight task must see the abort flag");
        assert_eq!(s.complete(id), CompletionOutcome::Discard);
    }

    #[test]
    fn spawns_into_aborted_version_are_rejected() {
        let mut s = Scheduler::new(DispatchPolicy::Balanced);
        s.abort_version(3);
        assert!(s.spawn(spec_task("late", 3)).is_none());
        // Other versions unaffected.
        assert!(s.spawn(spec_task("ok", 4)).is_some());
    }

    #[test]
    fn non_aborted_version_completes_normally() {
        let mut s = Scheduler::new(DispatchPolicy::Conservative);
        let id = s.spawn(spec_task("enc", 1)).unwrap();
        // Abort a *different* version.
        s.abort_version(2);
        let _d = s.dispatch().unwrap();
        assert_eq!(s.complete(id), CompletionOutcome::Deliver);
    }

    #[test]
    #[should_panic(expected = "non-speculative policy")]
    fn speculative_spawn_under_non_spec_policy_panics() {
        let mut s = Scheduler::new(DispatchPolicy::NonSpeculative);
        let _ = s.spawn(spec_task("oops", 1));
    }

    #[test]
    #[should_panic(expected = "not running")]
    fn completing_unknown_task_panics() {
        let mut s = Scheduler::new(DispatchPolicy::Balanced);
        let _ = s.complete(99);
    }

    #[test]
    fn fault_reclaims_slot_and_reports_version() {
        let rec = Recorder::counters(1);
        let mut s = recorded(DispatchPolicy::Aggressive, &rec);
        let id = s.spawn(spec_task("enc", 4)).unwrap();
        let _d = s.dispatch().unwrap();
        assert_eq!(s.fault(id), Some(Some(4)));
        assert!(s.is_idle(), "faulted slot was reclaimed");
        // A second fault (or a racing completion echo) is absorbed.
        assert_eq!(s.fault(id), None);
        assert_eq!(s.try_complete(id), None);
        assert_eq!(rec.counter_total(Counter::DuplicateCompletions), 1);
    }

    #[test]
    fn try_complete_absorbs_duplicate_deliveries() {
        let rec = Recorder::counters(1);
        let mut s = recorded(DispatchPolicy::Balanced, &rec);
        let id = s.spawn(reg("a", 0)).unwrap();
        let _d = s.dispatch().unwrap();
        assert_eq!(s.try_complete(id), Some(CompletionOutcome::Deliver));
        assert_eq!(s.try_complete(id), None, "echo is absorbed");
        assert_eq!(rec.counter_total(Counter::DuplicateCompletions), 1);
    }

    #[test]
    fn checks_survive_rollbacks() {
        let mut s = Scheduler::new(DispatchPolicy::Aggressive);
        s.spawn(TaskSpec::check("check", 0, 0, |_| payload(())))
            .unwrap();
        s.spawn(spec_task("enc", 1)).unwrap();
        s.abort_version(1);
        // The check is version-less and must still dispatch (first).
        let d = s.dispatch().unwrap();
        assert_eq!(d.name, "check");
        assert_eq!(s.complete(d.id), CompletionOutcome::Deliver);
    }

    #[test]
    fn rollback_and_cancel_bound_emit_trace_events() {
        let rec = Recorder::enabled(1);
        let mut s = recorded(DispatchPolicy::Aggressive, &rec);
        s.spawn(spec_task("bound", 5)).unwrap();
        s.spawn(spec_task("queued", 5)).unwrap();
        let d = s.dispatch().unwrap(); // "bound": dispatched into a lane
        s.abort_version(5); // deletes "queued" from the ready queue
        s.cancel_bound(d.id); // lane re-validation kills "bound"
        let log = rec.drain().unwrap();
        assert!(log.events.iter().any(|e| e.kind
            == EventKind::Rollback {
                version: 5,
                cascade_depth: 1
            }));
        assert_eq!(rec.counter_total(Counter::Rollbacks), 1);
        assert_eq!(rec.counter_total(Counter::DeletedReady), 2);
        assert_eq!(rec.gauge_get(tvs_metrics::Gauge::CascadeMax), 1);
        assert!(log.events.iter().any(|e| e.kind
            == EventKind::CancelReady {
                id: d.id,
                version: 5
            }));
        // Idempotent re-abort records nothing new.
        s.abort_version(5);
        assert_eq!(rec.counter_total(Counter::Rollbacks), 1);
        assert_eq!(rec.drain().unwrap().events.len(), 0);
    }

    #[test]
    fn replica_spawns_are_counted_and_traced() {
        let rec = Recorder::enabled(1);
        let mut s = recorded(DispatchPolicy::Balanced, &rec);
        let primary = s.spawn(reg("count", 0)).unwrap();
        let replica = s.spawn(reg("count", 0).as_replica_of(primary)).unwrap();
        assert_eq!(rec.counter_total(Counter::ReplicaDispatches), 1);
        let d1 = s.dispatch().unwrap();
        let d2 = s.dispatch().unwrap();
        let of = [d1, d2]
            .iter()
            .find(|d| d.id == replica)
            .and_then(|d| d.replica_of);
        assert_eq!(of, Some(primary), "replica_of survives dispatch");
        let log = rec.drain().unwrap();
        assert!(log.events.iter().any(|e| e.kind
            == EventKind::ReplicaDispatch {
                id: replica,
                of: primary
            }));
    }

    #[test]
    fn dispatch_respects_balanced_time_shares() {
        let mut s = Scheduler::new(DispatchPolicy::Balanced);
        s.spawn(reg("n1", 0)).unwrap();
        s.spawn(reg("n2", 0)).unwrap();
        s.spawn(spec_task("s1", 1)).unwrap();
        s.spawn(spec_task("s2", 1)).unwrap();
        // Charge each lane equal cost per dispatch -> strict alternation.
        let mut names = Vec::new();
        while let Some(d) = s.dispatch() {
            s.charge(d.class, 10);
            names.push(d.name);
        }
        assert_eq!(names, vec!["n1", "s1", "n2", "s2"]);
    }

    #[test]
    fn balanced_gives_starved_lane_priority() {
        let mut s = Scheduler::new(DispatchPolicy::Balanced);
        s.spawn(reg("n1", 0)).unwrap();
        s.spawn(spec_task("s1", 1)).unwrap();
        // Speculation already consumed much more time than the natural
        // path: the natural task must dispatch first.
        s.charge(TaskClass::Speculative, 1000);
        s.charge(TaskClass::Regular, 10);
        assert_eq!(s.lane_busy_us(), (10, 1000));
        let d = s.dispatch().unwrap();
        assert_eq!(d.name, "n1");
    }
}
