//! Replication-based output validation: detect silent data corruption,
//! don't just survive it.
//!
//! The paper's tolerance checks answer "was the *prediction* close
//! enough?" — they compare a speculated value against the realised one.
//! They say nothing about whether the computation itself produced the
//! right bytes: a bit flip in a task body's output commits silently,
//! because every fault the runtime handles so far is *loud* (a panic, a
//! stall, a lost completion). This module adds the classic
//! redundant-execution defence on top of the same abort/rollback
//! machinery: selected tasks are executed twice, both outputs are
//! digested, and diverging digests raise an SDC event instead of
//! committing garbage.
//!
//! The design is a *wrapper*, not an executor feature:
//! [`ReplicatingWorkload`] implements [`Workload`] around any inner
//! workload and intercepts the two places where replication happens —
//! spawns (to arm a task for re-execution) and completions (to hold the
//! primary's output until its replica votes). Both executors (sim,
//! threaded) therefore validate identically, with zero
//! executor-internal replica logic, and replicas can never double-commit
//! because the wrapper swallows their completions before the inner
//! workload sees them.
//!
//! ## Vote protocol
//!
//! * A replicated task's first completion (the *primary*) is digested and
//!   held in a flight record; a replica re-runs the same shared body.
//! * Replica completes: digests equal → deliver the primary (one commit,
//!   no divergence). Digests differ → **SDC detected**: raise
//!   [`SdcNotice`] (`unresolved: false`), count it, and spawn a bounded
//!   tiebreak re-execution — the first digest to match any earlier vote
//!   wins and its output is delivered under the primary's identity.
//! * Vote budget exhausted without a majority: raise [`SdcNotice`]
//!   (`unresolved: true`). Versioned tasks are rolled back through the
//!   ordinary abort path (the speculation manager replays
//!   non-speculatively); unversioned tasks degrade to delivering
//!   the primary's original output, loudly counted as such.
//!
//! Digesting uses an application-supplied [`DigestFn`] because outputs are
//! type-erased [`crate::task::Payload`]s; task kinds the application cannot
//! digest are passed through unreplicated (counted, never silently).

use crate::instruments::Instruments;
use crate::task::{mix64, SpecVersion, TaskClass, TaskCtx, TaskFn, TaskId, TaskSpec};
use crate::workload::{Completion, FaultNotice, InputBlock, SchedCtx, SdcNotice, Workload};
use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use tvs_faults::{FaultInjector, FaultSite};
use tvs_metrics::{lock_recover, Gauge, Recorder};
use tvs_trace::EventKind;

/// How task outputs are validated.
///
/// `Tolerance` is the paper's scheme (check tasks compare predicted
/// against realised values); `Replicate` adds redundant execution and
/// digest comparison on top — tolerance checks keep governing speculation
/// in either mode, while replication guards against silent corruption of
/// any sampled task's output.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ValidationMode {
    /// Tolerance checks only (the paper's baseline). The replication
    /// plane is a pass-through: no replicas, no digests, no overhead.
    #[default]
    Tolerance,
    /// Tolerance checks plus replication: check tasks and a seeded,
    /// deterministic sample of ordinary tasks are executed twice and their
    /// digests compared.
    Replicate {
        /// Fraction of ordinary (non-check) tasks to replicate, in
        /// `[0, 1]`. Check tasks are always replicated — they are the
        /// commit gate, so a corrupted check is the worst-case SDC.
        sample_rate: f64,
    },
}

impl ValidationMode {
    /// Whether this mode dispatches replicas at all.
    pub fn replicates(self) -> bool {
        !matches!(self, ValidationMode::Tolerance)
    }

    /// The ordinary-task sampling rate (0.0 under `Tolerance`).
    pub fn sample_rate(self) -> f64 {
        match self {
            ValidationMode::Tolerance => 0.0,
            ValidationMode::Replicate { sample_rate } => sample_rate,
        }
    }
}

/// Digests one task output for vote comparison.
///
/// Receives the task kind name and the output as `&dyn Any`; returns
/// `None` when this kind's output cannot be digested (the task is then
/// passed through unreplicated). Must be deterministic: two runs of the
/// same side-effect-free body must digest equal.
pub type DigestFn = Arc<dyn Fn(&'static str, &dyn Any) -> Option<u64> + Send + Sync>;

/// Counters of the replication plane, readable after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Primary completions held for a replica vote.
    pub replicas_spawned: u64,
    /// Vote sets that resolved clean on the first comparison.
    pub replica_matches: u64,
    /// Vote sets that diverged at least once (one per flight, however
    /// many corrupt votes it absorbed).
    pub sdc_detected: u64,
    /// Diverged vote sets later resolved by a tiebreak re-execution.
    pub sdc_resolved: u64,
    /// Diverged vote sets that exhausted their vote budget without two
    /// digests ever agreeing.
    pub sdc_unresolved: u64,
    /// Completions delivered *without* replica validation despite the
    /// mode asking for it: undigestible output, replica spawn rejected
    /// (aborted version), or unresolved unversioned fallback.
    pub degraded: u64,
    /// Flight records dropped because their speculation version was
    /// rolled back before the vote finished.
    pub dropped_aborted: u64,
}

/// A task body shared between a primary and its replicas. `TaskFn` is not
/// `Clone`, so re-execution runs the *same* closure behind a mutex;
/// bodies are side-effect free, so re-running one is always legal.
/// `lock_recover` keeps an injected panic inside the body (which poisons
/// the mutex mid-call) from wedging the retry that follows it.
type SharedBody = Arc<Mutex<TaskFn>>;

fn shared_run(body: &SharedBody) -> TaskFn {
    let body = Arc::clone(body);
    Box::new(move |ctx: &TaskCtx| (lock_recover(&body))(ctx))
}

/// FNV-1a over the task kind name: part of the sampling hash.
fn name_hash(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Spawn-time metadata of a replicated task, kept so replicas (and
/// tiebreaks) can be spawned with the primary's exact shape.
struct Pending {
    name: &'static str,
    class: TaskClass,
    depth: u32,
    bytes: usize,
    version: Option<SpecVersion>,
    tag: u64,
    body: SharedBody,
}

fn replica_spec(meta: &Pending, primary: TaskId) -> TaskSpec {
    TaskSpec {
        name: meta.name,
        class: meta.class,
        depth: meta.depth,
        bytes: meta.bytes,
        version: meta.version,
        tag: meta.tag,
        replica_of: Some(primary),
        run: shared_run(&meta.body),
    }
}

/// An in-progress vote: the primary completed, replicas are running.
struct Flight {
    meta: Pending,
    /// `(digest, completion)` votes; index 0 is always the primary.
    votes: Vec<(u64, Completion)>,
    /// Whether this flight already diverged once (counts a single
    /// detection however many tiebreaks follow).
    detected: bool,
    /// Total executions spawned (primary + replicas), bounded by
    /// [`Plane::max_votes`].
    spawned: u32,
}

/// What one routed completion asks the wrapper to do, in order: notify
/// the inner workload of an SDC, deliver a completion, abort a version.
#[derive(Default)]
struct Routing {
    notice: Option<SdcNotice>,
    deliver: Option<Completion>,
    abort: Option<SpecVersion>,
}

/// The replication plane's state, split out of [`ReplicatingWorkload`] so
/// the interception context ([`SpyCtx`]) can borrow it mutably while the
/// inner workload is borrowed separately.
struct Plane {
    mode: ValidationMode,
    seed: u64,
    digest: DigestFn,
    max_votes: u32,
    tracked: HashMap<TaskId, Pending>,
    flights: HashMap<TaskId, Flight>,
    replica_of: HashMap<TaskId, TaskId>,
    stats: ReplicaStats,
    rec: Recorder,
    injector: FaultInjector,
}

impl Plane {
    /// Deterministic, seed-driven sampling decision for an ordinary task.
    /// A pure function of `(seed, name, tag)` so the same run replicates
    /// the same tasks on every executor and every repeat.
    fn sampled(&self, name: &'static str, tag: u64) -> bool {
        let rate = self.mode.sample_rate();
        if rate >= 1.0 {
            return true;
        }
        if rate <= 0.0 {
            return false;
        }
        let h = mix64(self.seed ^ name_hash(name) ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        ((h >> 11) as f64 / (1u64 << 53) as f64) < rate
    }

    /// Intercepted spawn: arm the task for replication when the mode and
    /// the sampler say so, then spawn through the real context.
    fn spawn_tracked(&mut self, ctx: &mut dyn SchedCtx, mut spec: TaskSpec) -> Option<TaskId> {
        let replicate = self.mode.replicates()
            && spec.replica_of.is_none()
            && (spec.class == TaskClass::Check || self.sampled(spec.name, spec.tag));
        if !replicate {
            return ctx.spawn(spec);
        }
        let run = std::mem::replace(&mut spec.run, Box::new(|_| crate::task::payload(())));
        let body: SharedBody = Arc::new(Mutex::new(run));
        spec.run = shared_run(&body);
        let pending = Pending {
            name: spec.name,
            class: spec.class,
            depth: spec.depth,
            bytes: spec.bytes,
            version: spec.version,
            tag: spec.tag,
            body,
        };
        let id = ctx.spawn(spec)?;
        self.tracked.insert(id, pending);
        Some(id)
    }

    /// Route one delivered completion: a replica vote, a tracked primary,
    /// or (the common case) a plain task forwarded untouched.
    fn route(&mut self, ctx: &mut dyn SchedCtx, done: Completion) -> Routing {
        if let Some(primary) = self.replica_of.remove(&done.id) {
            return self.on_vote(ctx, primary, done);
        }
        if self.tracked.contains_key(&done.id) {
            return self.on_primary(ctx, done);
        }
        Routing {
            deliver: Some(done),
            ..Default::default()
        }
    }

    /// A tracked primary completed: digest it, hold it, spawn its replica.
    fn on_primary(&mut self, ctx: &mut dyn SchedCtx, done: Completion) -> Routing {
        let meta = self.tracked.remove(&done.id).expect("checked by route()");
        let Some(d) = (self.digest)(done.name, done.output.as_ref()) else {
            // The application cannot digest this kind: pass through.
            self.stats.degraded += 1;
            return Routing {
                deliver: Some(done),
                ..Default::default()
            };
        };
        let primary = done.id;
        match ctx.spawn(replica_spec(&meta, primary)) {
            Some(replica) => {
                self.stats.replicas_spawned += 1;
                self.replica_of.insert(replica, primary);
                self.flights.insert(
                    primary,
                    Flight {
                        meta,
                        votes: vec![(d, done)],
                        detected: false,
                        spawned: 2,
                    },
                );
                Routing::default()
            }
            None => {
                // Version aborted between completion and replica spawn:
                // the completion would be discarded anyway downstream,
                // but deliver honestly and count the missed validation.
                self.stats.degraded += 1;
                Routing {
                    deliver: Some(done),
                    ..Default::default()
                }
            }
        }
    }

    /// A replica vote arrived for `primary`.
    fn on_vote(&mut self, ctx: &mut dyn SchedCtx, primary: TaskId, done: Completion) -> Routing {
        let mut flight = match self.flights.remove(&primary) {
            Some(f) => f,
            None => {
                // Flight dropped by a version rollback; the vote is moot.
                self.stats.dropped_aborted += 1;
                return Routing::default();
            }
        };
        let Some(d) = (self.digest)(done.name, done.output.as_ref()) else {
            // Digest function changed its mind mid-flight (application
            // bug); degrade to the primary's original output.
            self.stats.degraded += 1;
            let primary_c = flight.votes.swap_remove(0).1;
            return Routing {
                deliver: Some(primary_c),
                ..Default::default()
            };
        };
        if let Some(pos) = flight.votes.iter().position(|(vd, _)| *vd == d) {
            return self.resolve(primary, flight, pos, done);
        }
        self.diverge(ctx, primary, flight, d, done)
    }

    /// Two digests agree: deliver the agreed output under the primary's
    /// identity and close the flight.
    fn resolve(
        &mut self,
        primary: TaskId,
        mut flight: Flight,
        pos: usize,
        done: Completion,
    ) -> Routing {
        if flight.detected {
            self.stats.sdc_resolved += 1;
            self.rec
                .emit_control(EventKind::SdcResolved { id: primary });
        } else {
            self.stats.replica_matches += 1;
            self.rec
                .emit_control(EventKind::ReplicaMatch { id: primary });
        }
        let deliver = if pos == 0 {
            // The primary's own digest won: deliver it untouched.
            flight.votes.swap_remove(0).1
        } else {
            // The primary was the corrupt vote. Deliver the fresh clean
            // output under the primary's identity so the inner workload
            // never learns replication happened.
            let p = &flight.votes[0].1;
            Completion {
                id: p.id,
                name: p.name,
                version: p.version,
                tag: p.tag,
                started: done.started,
                finished: done.finished,
                output: done.output,
            }
        };
        self.update_recall();
        Routing {
            deliver: Some(deliver),
            ..Default::default()
        }
    }

    /// The new vote matches nothing seen so far.
    fn diverge(
        &mut self,
        ctx: &mut dyn SchedCtx,
        primary: TaskId,
        mut flight: Flight,
        d: u64,
        done: Completion,
    ) -> Routing {
        let version = flight.meta.version;
        let name = flight.meta.name;
        let first = !flight.detected;
        flight.detected = true;
        if first {
            self.stats.sdc_detected += 1;
            self.rec.emit_control(EventKind::SdcDetected {
                id: primary,
                version,
            });
            self.update_recall();
        }
        flight.votes.push((d, done));
        if flight.spawned < self.max_votes {
            if let Some(replica) = ctx.spawn(replica_spec(&flight.meta, primary)) {
                flight.spawned += 1;
                self.stats.replicas_spawned += 1;
                self.replica_of.insert(replica, primary);
                self.flights.insert(primary, flight);
                let notice = first.then_some(SdcNotice {
                    id: primary,
                    name,
                    version,
                    unresolved: false,
                });
                return Routing {
                    notice,
                    ..Default::default()
                };
            }
        }
        // Vote budget exhausted (or the tiebreak spawn was rejected by a
        // concurrent rollback): no two digests ever agreed.
        self.stats.sdc_unresolved += 1;
        let notice = Some(SdcNotice {
            id: primary,
            name,
            version,
            unresolved: true,
        });
        if let Some(v) = version {
            // Roll the version back through the ordinary abort path; the
            // speculation layer above replays non-speculatively.
            Routing {
                notice,
                abort: Some(v),
                ..Default::default()
            }
        } else {
            // Nothing to roll back to: degrade to the primary's original
            // output rather than wedging the pipeline, and say so.
            self.stats.degraded += 1;
            let primary_c = flight.votes.swap_remove(0).1;
            Routing {
                notice,
                deliver: Some(primary_c),
                ..Default::default()
            }
        }
    }

    /// Drop all replication state of a rolled-back version. Replica
    /// completions of that version are discarded by the scheduler, so
    /// their flights can never resolve.
    fn drop_version(&mut self, version: SpecVersion) {
        self.tracked.retain(|_, p| p.version != Some(version));
        let before = self.flights.len();
        self.flights.retain(|_, f| f.meta.version != Some(version));
        self.stats.dropped_aborted += (before - self.flights.len()) as u64;
        let flights = &self.flights;
        self.replica_of
            .retain(|_, primary| flights.contains_key(primary));
    }

    /// Refresh the SDC-recall gauge against the fault injector's count of
    /// corruptions actually injected at the task-output site.
    fn update_recall(&mut self) {
        let injected = self.injector.injected_at(FaultSite::TaskOutput);
        // No corruptions injected means nothing to miss: recall 100 %.
        let recall = (self.stats.sdc_detected.min(injected) * 1000)
            .checked_div(injected)
            .unwrap_or(1000);
        self.rec.gauge_set(Gauge::SdcRecallPermille, recall);
    }
}

/// The interception context handed to the inner workload: spawns are
/// routed through the plane (to arm replication), aborts clean the
/// plane's state before reaching the scheduler.
struct SpyCtx<'a> {
    ctx: &'a mut dyn SchedCtx,
    plane: &'a mut Plane,
}

impl SchedCtx for SpyCtx<'_> {
    fn now(&self) -> crate::task::Time {
        self.ctx.now()
    }

    fn spawn(&mut self, spec: TaskSpec) -> Option<TaskId> {
        self.plane.spawn_tracked(self.ctx, spec)
    }

    fn abort_version(&mut self, version: SpecVersion) {
        self.plane.drop_version(version);
        self.ctx.abort_version(version);
    }

    fn workers(&self) -> usize {
        self.ctx.workers()
    }

    fn max_task_bytes(&self) -> Option<usize> {
        self.ctx.max_task_bytes()
    }
}

/// Wraps any [`Workload`] with the replication validation plane. See the
/// module docs for the protocol; under [`ValidationMode::Tolerance`] the
/// wrapper is a strict pass-through.
pub struct ReplicatingWorkload<W> {
    inner: W,
    plane: Plane,
}

impl<W: Workload> ReplicatingWorkload<W> {
    /// Wrap `inner`, dark. `seed` drives the deterministic ordinary-task
    /// sampler; `digest` maps task outputs to comparable digests.
    pub fn new(inner: W, mode: ValidationMode, seed: u64, digest: DigestFn) -> Self {
        Self::instrumented(inner, mode, seed, digest, &Instruments::default())
    }

    /// [`Self::new`], recording each vote outcome into `ins.recorder` (one
    /// call per fact, which also counts it) and computing the
    /// detection-recall gauge against `ins.faults`' count of corruptions
    /// actually injected at the task-output site.
    pub fn instrumented(
        inner: W,
        mode: ValidationMode,
        seed: u64,
        digest: DigestFn,
        ins: &Instruments,
    ) -> Self {
        ReplicatingWorkload {
            inner,
            plane: Plane {
                mode,
                seed,
                digest,
                max_votes: 5,
                tracked: HashMap::new(),
                flights: HashMap::new(),
                replica_of: HashMap::new(),
                stats: ReplicaStats::default(),
                rec: ins.recorder.clone(),
                injector: ins.faults.clone(),
            },
        }
    }

    /// Cap on total executions per vote (primary + replicas). Default 5.
    pub fn set_max_votes(&mut self, max_votes: u32) {
        self.plane.max_votes = max_votes.max(2);
    }

    /// The plane's counters so far.
    pub fn stats(&self) -> ReplicaStats {
        self.plane.stats
    }

    /// The validation mode this wrapper runs under.
    pub fn mode(&self) -> ValidationMode {
        self.plane.mode
    }

    /// The wrapped workload.
    pub fn inner(&self) -> &W {
        &self.inner
    }

    /// Unwrap the workload, once the run is over.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Workload> Workload for ReplicatingWorkload<W> {
    fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
        self.inner.on_start(&mut SpyCtx {
            ctx,
            plane: &mut self.plane,
        });
    }

    fn on_input(&mut self, ctx: &mut dyn SchedCtx, block: InputBlock) {
        self.inner.on_input(
            &mut SpyCtx {
                ctx,
                plane: &mut self.plane,
            },
            block,
        );
    }

    fn on_input_batch(&mut self, ctx: &mut dyn SchedCtx, batch: Vec<InputBlock>) {
        self.inner.on_input_batch(
            &mut SpyCtx {
                ctx,
                plane: &mut self.plane,
            },
            batch,
        );
    }

    fn on_input_done(&mut self, ctx: &mut dyn SchedCtx) {
        self.inner.on_input_done(&mut SpyCtx {
            ctx,
            plane: &mut self.plane,
        });
    }

    fn on_complete(&mut self, ctx: &mut dyn SchedCtx, done: Completion) {
        let routing = self.plane.route(ctx, done);
        let mut spy = SpyCtx {
            ctx,
            plane: &mut self.plane,
        };
        if let Some(notice) = routing.notice {
            self.inner.on_sdc(&mut spy, notice);
        }
        if let Some(done) = routing.deliver {
            self.inner.on_complete(&mut spy, done);
        }
        if let Some(version) = routing.abort {
            spy.abort_version(version);
        }
    }

    fn on_fault(&mut self, ctx: &mut dyn SchedCtx, fault: FaultNotice) {
        // The executor aborts the version *after* this callback, through
        // the raw context — clean the plane's state here so in-flight
        // votes of the dying version cannot resolve later.
        if let Some(v) = fault.version {
            self.plane.drop_version(v);
        }
        self.plane.tracked.remove(&fault.id);
        self.inner.on_fault(
            &mut SpyCtx {
                ctx,
                plane: &mut self.plane,
            },
            fault,
        );
    }

    fn on_sdc(&mut self, ctx: &mut dyn SchedCtx, sdc: SdcNotice) {
        self.inner.on_sdc(
            &mut SpyCtx {
                ctx,
                plane: &mut self.plane,
            },
            sdc,
        );
    }

    fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::Scheduler;
    use crate::task::{expect_payload, payload, Time};
    use crate::DispatchPolicy;

    /// Digest for the toy workloads below: every output is a `u64`.
    fn u64_digest() -> DigestFn {
        Arc::new(|_, out| out.downcast_ref::<u64>().copied())
    }

    /// Toy workload: spawns one regular task per input block; sums
    /// delivered outputs; records SDC notices.
    struct Summer {
        expected: usize,
        seen: usize,
        total: u64,
        delivered_ids: Vec<TaskId>,
        sdc_notices: Vec<SdcNotice>,
    }

    impl Summer {
        fn new(expected: usize) -> Self {
            Summer {
                expected,
                seen: 0,
                total: 0,
                delivered_ids: Vec::new(),
                sdc_notices: Vec::new(),
            }
        }
    }

    impl Workload for Summer {
        fn on_input(&mut self, ctx: &mut dyn SchedCtx, block: InputBlock) {
            let bytes = block.bytes;
            ctx.spawn(TaskSpec::regular(
                "sum",
                0,
                bytes.len(),
                block.index as u64,
                move |ctx| payload(ctx.input()[bytes.clone()].len() as u64),
            ));
        }

        fn on_complete(&mut self, _ctx: &mut dyn SchedCtx, done: Completion) {
            self.total += expect_payload::<u64>(done.output, "u64");
            self.delivered_ids.push(done.id);
            self.seen += 1;
        }

        fn on_sdc(&mut self, _ctx: &mut dyn SchedCtx, sdc: SdcNotice) {
            self.sdc_notices.push(sdc);
        }

        fn is_finished(&self) -> bool {
            self.seen == self.expected
        }
    }

    struct MiniCtx {
        sched: Scheduler,
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

    /// The input the blocks of these tests point into.
    const INPUT: &[u8] = &[0; 64];

    /// Drive the toy scheduler to quiescence, delivering completions
    /// through the wrapper.
    fn drain<W: Workload>(ctx: &mut MiniCtx, w: &mut ReplicatingWorkload<W>) {
        while let Some(mut d) = ctx.sched.dispatch() {
            let out = (d.run)(&TaskCtx::new(&d.abort, INPUT));
            let outcome = ctx.sched.complete(d.id);
            ctx.now += 1;
            if outcome == crate::sched::CompletionOutcome::Discard {
                continue;
            }
            let completion = Completion {
                id: d.id,
                name: d.name,
                version: d.version,
                tag: d.tag,
                started: ctx.now - 1,
                finished: ctx.now,
                output: out,
            };
            w.on_complete(ctx, completion);
        }
    }

    fn feed(ctx: &mut MiniCtx, w: &mut ReplicatingWorkload<Summer>, blocks: &[usize]) {
        w.on_start(ctx);
        let mut at = 0;
        for (i, len) in blocks.iter().enumerate() {
            let bytes = at..at + len;
            at += len;
            w.on_input(
                ctx,
                InputBlock {
                    index: i,
                    arrival: i as u64,
                    bytes,
                },
            );
        }
        w.on_input_done(ctx);
        drain(ctx, w);
    }

    #[test]
    fn tolerance_mode_is_a_pass_through() {
        let mut w =
            ReplicatingWorkload::new(Summer::new(3), ValidationMode::Tolerance, 42, u64_digest());
        let mut ctx = MiniCtx {
            sched: Scheduler::new(DispatchPolicy::NonSpeculative),
            now: 0,
        };
        feed(&mut ctx, &mut w, &[10, 20, 30]);
        assert!(w.is_finished());
        assert_eq!(w.inner().total, 60);
        assert_eq!(w.stats(), ReplicaStats::default());
    }

    #[test]
    fn the_batch_form_reaches_the_inner_workload_whole() {
        // The inner workload sees the batch as one, and its spawns from
        // there are still armed for replication.
        struct Batched {
            inner: Summer,
            batches: Vec<usize>,
        }
        impl Workload for Batched {
            fn on_input(&mut self, ctx: &mut dyn SchedCtx, block: InputBlock) {
                self.inner.on_input(ctx, block);
            }
            fn on_input_batch(&mut self, ctx: &mut dyn SchedCtx, batch: Vec<InputBlock>) {
                self.batches.push(batch.len());
                for block in batch {
                    self.inner.on_input(ctx, block);
                }
            }
            fn on_complete(&mut self, ctx: &mut dyn SchedCtx, done: Completion) {
                self.inner.on_complete(ctx, done);
            }
            fn is_finished(&self) -> bool {
                self.inner.is_finished()
            }
        }
        let inner = Batched {
            inner: Summer::new(3),
            batches: Vec::new(),
        };
        let mode = ValidationMode::Replicate { sample_rate: 1.0 };
        let mut w = ReplicatingWorkload::new(inner, mode, 42, u64_digest());
        let mut ctx = MiniCtx {
            sched: Scheduler::new(DispatchPolicy::NonSpeculative),
            now: 0,
        };
        let batch = [10usize, 20, 30]
            .iter()
            .enumerate()
            .scan(0, |at, (index, &len)| {
                let bytes = *at..*at + len;
                *at += len;
                Some(InputBlock {
                    index,
                    arrival: 0,
                    bytes,
                })
            })
            .collect();
        w.on_input_batch(&mut ctx, batch);
        drain(&mut ctx, &mut w);
        assert_eq!(w.inner().batches, [3]);
        assert_eq!(w.inner().inner.total, 60);
        assert_eq!(w.stats().replica_matches, 3);
    }

    #[test]
    fn clean_replicas_match_and_never_double_commit() {
        let mut w = ReplicatingWorkload::new(
            Summer::new(3),
            ValidationMode::Replicate { sample_rate: 1.0 },
            42,
            u64_digest(),
        );
        let rec = Recorder::counters(1);
        let mut ctx = MiniCtx {
            sched: Scheduler::instrumented(
                DispatchPolicy::NonSpeculative,
                &Instruments::recorded(rec.clone()),
            ),
            now: 0,
        };
        feed(&mut ctx, &mut w, &[10, 20, 30]);
        assert!(w.is_finished());
        assert_eq!(w.inner().total, 60, "each block committed exactly once");
        assert_eq!(w.inner().seen, 3, "replicas never reach the workload");
        let s = w.stats();
        assert_eq!(s.replicas_spawned, 3);
        assert_eq!(s.replica_matches, 3);
        assert_eq!(s.sdc_detected, 0);
        assert_eq!(
            rec.counter_total(tvs_metrics::Counter::ReplicaDispatches),
            3
        );
    }

    /// A workload whose single task returns a corrupt value on its first
    /// execution and the true value on every later one — the primary
    /// commits garbage, the replica and the tiebreak agree on truth.
    struct CorruptOnce {
        done: bool,
        delivered: Option<u64>,
        delivered_id: Option<TaskId>,
        spawned_id: Option<TaskId>,
        sdc_notices: Vec<SdcNotice>,
    }

    impl Workload for CorruptOnce {
        fn on_input(&mut self, ctx: &mut dyn SchedCtx, _block: InputBlock) {
            let mut runs = 0u64;
            self.spawned_id = ctx.spawn(TaskSpec::regular("val", 0, 8, 0, move |_| {
                runs += 1;
                payload(if runs == 1 { 666u64 } else { 7u64 })
            }));
        }

        fn on_complete(&mut self, _ctx: &mut dyn SchedCtx, done: Completion) {
            self.delivered = Some(expect_payload::<u64>(done.output, "u64"));
            self.delivered_id = Some(done.id);
            self.done = true;
        }

        fn on_sdc(&mut self, _ctx: &mut dyn SchedCtx, sdc: SdcNotice) {
            self.sdc_notices.push(sdc);
        }

        fn is_finished(&self) -> bool {
            self.done
        }
    }

    #[test]
    fn corrupt_primary_is_detected_and_outvoted() {
        let mut w = ReplicatingWorkload::new(
            CorruptOnce {
                done: false,
                delivered: None,
                delivered_id: None,
                spawned_id: None,
                sdc_notices: Vec::new(),
            },
            ValidationMode::Replicate { sample_rate: 1.0 },
            1,
            u64_digest(),
        );
        let mut ctx = MiniCtx {
            sched: Scheduler::new(DispatchPolicy::NonSpeculative),
            now: 0,
        };
        w.on_start(&mut ctx);
        let bytes = 0..8;
        w.on_input(
            &mut ctx,
            InputBlock {
                index: 0,
                arrival: 0,
                bytes,
            },
        );
        drain(&mut ctx, &mut w);
        assert!(w.is_finished());
        assert_eq!(
            w.inner().delivered,
            Some(7),
            "the clean tiebreak output wins, not the corrupt primary"
        );
        assert_eq!(
            w.inner().delivered_id,
            w.inner().spawned_id,
            "delivered under the primary's identity"
        );
        let s = w.stats();
        assert_eq!(s.sdc_detected, 1);
        assert_eq!(s.sdc_resolved, 1);
        assert_eq!(s.replica_matches, 0);
        assert_eq!(s.sdc_unresolved, 0);
        assert_eq!(
            w.inner().sdc_notices,
            vec![SdcNotice {
                id: w.inner().spawned_id.unwrap(),
                name: "val",
                version: None,
                unresolved: false,
            }]
        );
    }

    /// A task that returns a different value on every execution: votes
    /// can never agree, exhausting the budget.
    struct NeverAgrees {
        done: bool,
        delivered: Option<u64>,
        sdc_notices: Vec<SdcNotice>,
    }

    impl Workload for NeverAgrees {
        fn on_input(&mut self, ctx: &mut dyn SchedCtx, _block: InputBlock) {
            let mut runs = 0u64;
            ctx.spawn(TaskSpec::regular("chaos", 0, 8, 0, move |_| {
                runs += 1;
                payload(runs * 1000)
            }));
        }

        fn on_complete(&mut self, _ctx: &mut dyn SchedCtx, done: Completion) {
            self.delivered = Some(expect_payload::<u64>(done.output, "u64"));
            self.done = true;
        }

        fn on_sdc(&mut self, _ctx: &mut dyn SchedCtx, sdc: SdcNotice) {
            self.sdc_notices.push(sdc);
        }

        fn is_finished(&self) -> bool {
            self.done
        }
    }

    #[test]
    fn exhausted_unversioned_vote_degrades_to_the_primary() {
        let mut w = ReplicatingWorkload::new(
            NeverAgrees {
                done: false,
                delivered: None,
                sdc_notices: Vec::new(),
            },
            ValidationMode::Replicate { sample_rate: 1.0 },
            1,
            u64_digest(),
        );
        w.set_max_votes(3);
        let mut ctx = MiniCtx {
            sched: Scheduler::new(DispatchPolicy::NonSpeculative),
            now: 0,
        };
        w.on_start(&mut ctx);
        let bytes = 0..8;
        w.on_input(
            &mut ctx,
            InputBlock {
                index: 0,
                arrival: 0,
                bytes,
            },
        );
        drain(&mut ctx, &mut w);
        assert!(w.is_finished());
        assert_eq!(
            w.inner().delivered,
            Some(1000),
            "degrades to the primary's original output"
        );
        let s = w.stats();
        assert_eq!(s.sdc_detected, 1, "one detection per flight");
        assert_eq!(s.sdc_unresolved, 1);
        assert_eq!(s.sdc_resolved, 0);
        assert_eq!(s.degraded, 1);
        let notices = &w.inner().sdc_notices;
        assert_eq!(notices.len(), 2, "first detection + unresolved verdict");
        assert!(!notices[0].unresolved);
        assert!(notices[1].unresolved);
    }

    #[test]
    fn sampling_is_deterministic_and_checks_always_replicate() {
        let digest = u64_digest();
        let plane = |seed| {
            let w = ReplicatingWorkload::new(
                Summer::new(0),
                ValidationMode::Replicate { sample_rate: 0.5 },
                seed,
                Arc::clone(&digest),
            );
            w.plane
        };
        let a = plane(7);
        let b = plane(7);
        let c = plane(8);
        let decisions = |p: &Plane| {
            (0..64u64)
                .map(|tag| p.sampled("sum", tag))
                .collect::<Vec<_>>()
        };
        assert_eq!(decisions(&a), decisions(&b), "same seed, same sample");
        assert_ne!(decisions(&a), decisions(&c), "different seed differs");
        let hits = decisions(&a).iter().filter(|&&x| x).count();
        assert!(
            hits > 8 && hits < 56,
            "rate 0.5 samples a middling fraction, got {hits}/64"
        );
    }

    #[test]
    fn undigestible_outputs_pass_through_with_a_degraded_count() {
        // Digest only knows "sum" outputs of type u64; a String output
        // cannot be digested and must be delivered unreplicated.
        struct Stringy {
            done: bool,
            got: Option<String>,
        }
        impl Workload for Stringy {
            fn on_input(&mut self, ctx: &mut dyn SchedCtx, _block: InputBlock) {
                ctx.spawn(TaskSpec::regular("text", 0, 8, 0, |_| {
                    payload(String::from("hello"))
                }));
            }
            fn on_complete(&mut self, _ctx: &mut dyn SchedCtx, done: Completion) {
                self.got = Some(expect_payload::<String>(done.output, "String"));
                self.done = true;
            }
            fn is_finished(&self) -> bool {
                self.done
            }
        }
        let mut w = ReplicatingWorkload::new(
            Stringy {
                done: false,
                got: None,
            },
            ValidationMode::Replicate { sample_rate: 1.0 },
            1,
            u64_digest(),
        );
        let mut ctx = MiniCtx {
            sched: Scheduler::new(DispatchPolicy::NonSpeculative),
            now: 0,
        };
        w.on_start(&mut ctx);
        let bytes = 0..8;
        w.on_input(
            &mut ctx,
            InputBlock {
                index: 0,
                arrival: 0,
                bytes,
            },
        );
        drain(&mut ctx, &mut w);
        assert_eq!(w.inner().got.as_deref(), Some("hello"));
        assert_eq!(w.stats().degraded, 1);
        assert_eq!(w.stats().replicas_spawned, 0);
    }

    #[test]
    fn version_rollback_drops_inflight_votes() {
        // A speculative task completes and its replica is in flight when
        // the version is rolled back: the flight must be dropped and the
        // replica's completion discarded, committing nothing.
        struct Spec {
            delivered: u64,
        }
        impl Workload for Spec {
            fn on_input(&mut self, ctx: &mut dyn SchedCtx, _block: InputBlock) {
                ctx.spawn(TaskSpec::speculative("spec", 0, 8, 9, 0, |_| payload(1u64)));
            }
            fn on_complete(&mut self, _ctx: &mut dyn SchedCtx, _done: Completion) {
                self.delivered += 1;
            }
            fn is_finished(&self) -> bool {
                false
            }
        }
        let mut w = ReplicatingWorkload::new(
            Spec { delivered: 0 },
            ValidationMode::Replicate { sample_rate: 1.0 },
            1,
            u64_digest(),
        );
        let mut ctx = MiniCtx {
            sched: Scheduler::new(DispatchPolicy::Balanced),
            now: 0,
        };
        w.on_start(&mut ctx);
        let bytes = 0..8;
        w.on_input(
            &mut ctx,
            InputBlock {
                index: 0,
                arrival: 0,
                bytes,
            },
        );
        // Run only the primary; its completion spawns the replica.
        let mut d = ctx.sched.dispatch().expect("primary ready");
        let out = (d.run)(&TaskCtx::new(&d.abort, INPUT));
        assert_eq!(
            ctx.sched.complete(d.id),
            crate::sched::CompletionOutcome::Deliver
        );
        w.on_complete(
            &mut ctx,
            Completion {
                id: d.id,
                name: d.name,
                version: d.version,
                tag: d.tag,
                started: 0,
                finished: 1,
                output: out,
            },
        );
        assert_eq!(w.plane.flights.len(), 1, "vote in flight");
        // Roll the version back through the wrapper-visible path.
        let mut spy = SpyCtx {
            ctx: &mut ctx,
            plane: &mut w.plane,
        };
        spy.abort_version(9);
        assert!(
            w.plane.flights.is_empty(),
            "flight dropped with the version"
        );
        assert!(w.plane.replica_of.is_empty());
        assert_eq!(w.stats().dropped_aborted, 1);
        // The replica now dispatches already-aborted and is discarded.
        drain(&mut ctx, &mut w);
        assert_eq!(w.inner().delivered, 0, "nothing committed");
    }
}
