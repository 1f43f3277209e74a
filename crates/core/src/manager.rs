//! The speculation state machine.
//!
//! [`SpeculationManager`] is the piece that turns the paper's prose into
//! mechanism: it watches basis progress (completions of the speculation
//! source), decides when to predict and when to verify, digests check
//! verdicts, and emits [`Action`]s that the hosting workload executes
//! through the SRE scheduler (spawn a predictor, spawn a check, roll a
//! version back, commit, or fall back to the natural path).
//!
//! The manager is domain-agnostic: it holds the speculated value as an
//! opaque `T` and never inspects it. Domain logic (how to predict, how to
//! compare within tolerance) runs inside the predictor and check *tasks*;
//! their outcomes are fed back in.

use crate::breaker::{BreakerConfig, BreakerState, BreakerTransition, CircuitBreaker};
use crate::frequency::{SpeculationSchedule, VerificationPolicy};
use crate::ladder::{DegradationLadder, DegradationLevel, LadderConfig};
use crate::validate::CheckResult;
use crate::version::{VersionState, VersionTracker};
use tvs_metrics::{Counter, Gauge, MetricsHub};
use tvs_sre::{Instruments, SpecVersion};
use tvs_trace::{EventKind, Tracer};

/// What the hosting workload must do next.
#[derive(Debug, PartialEq, Eq)]
pub enum Action {
    /// Spawn a predictor task that builds a speculative value (from the
    /// current basis snapshot) and reports it via
    /// [`SpeculationManager::install_prediction`].
    StartPrediction {
        /// The version the prediction will carry.
        version: SpecVersion,
    },
    /// Spawn a check task comparing the active speculative value against a
    /// value built from the current basis snapshot; report via
    /// [`SpeculationManager::on_check_result`].
    SpawnCheck {
        /// The version under test.
        version: SpecVersion,
    },
    /// Roll back: abort the version in the scheduler, discard its wait
    /// buffers and any derived state.
    Rollback {
        /// The aborted version.
        version: SpecVersion,
    },
    /// A failed check's freshly-built candidate value was installed as the
    /// new active speculation ("a negative comparison generates a new
    /// filtering task that uses the new coefficients"); start speculative
    /// processing under this version.
    PromoteCandidate {
        /// The new active version.
        version: SpecVersion,
    },
    /// The final value is known and a speculation is active: spawn the
    /// decisive check; report via
    /// [`SpeculationManager::on_final_check_result`].
    SpawnFinalCheck {
        /// The version under final test.
        version: SpecVersion,
    },
    /// The speculation was validated against the final value: release the
    /// wait buffers ("commit the buffered data").
    Commit {
        /// The committed version.
        version: SpecVersion,
    },
    /// No valid speculation survives; execute the natural
    /// (non-speculative) path.
    RecomputeNaturally,
}

/// Aggregate speculation statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Predictor tasks requested.
    pub predictions: u64,
    /// Intermediate checks requested.
    pub checks: u64,
    /// Intermediate checks that passed.
    pub checks_passed: u64,
    /// Intermediate checks that failed (each causes a rollback).
    pub checks_failed: u64,
    /// Rollbacks (intermediate + final).
    pub rollbacks: u64,
    /// Stale verdicts ignored (their version was already gone).
    pub stale_results: u64,
    /// Executor-initiated aborts absorbed via
    /// [`SpeculationManager::on_external_abort`] (panicked or
    /// watchdog-cancelled speculative tasks).
    pub external_aborts: u64,
    /// Executor faults reported via [`SpeculationManager::record_fault`].
    pub faults: u64,
    /// Circuit-breaker trips (speculation suspended).
    pub breaker_trips: u64,
    /// Degradation-ladder level transitions (either direction), if a
    /// ladder is configured via [`SpeculationManager::set_ladder`].
    pub ladder_steps: u64,
    /// Replica vote sets that resolved clean, reported via
    /// [`SpeculationManager::on_replica_result`].
    pub replica_checks: u64,
    /// Silent-data-corruption detections (divergent replica digests)
    /// reported via [`SpeculationManager::on_replica_result`].
    pub sdc_detected: u64,
}

#[derive(Debug)]
enum Phase<T> {
    /// No speculation in flight.
    Idle { restart: bool },
    /// Predictor task outstanding.
    Pending { version: SpecVersion },
    /// Speculative value installed and driving speculative tasks.
    Active {
        version: SpecVersion,
        value: T,
        installed_at: u64,
    },
    /// Final check outstanding.
    FinalChecking { version: SpecVersion, value: T },
    /// Committed or recomputing; no further speculation.
    Done { committed: Option<SpecVersion> },
}

/// The speculation engine for one speculated DFG edge.
pub struct SpeculationManager<T> {
    schedule: SpeculationSchedule,
    verify: VerificationPolicy,
    tracker: VersionTracker,
    phase: Phase<T>,
    last_basis: u64,
    final_seen: bool,
    stats: ManagerStats,
    rollback_hook: Option<Box<dyn FnMut(SpecVersion) + Send>>,
    tracer: Tracer,
    metrics: MetricsHub,
    breaker: Option<CircuitBreaker>,
    ladder: Option<DegradationLadder>,
    /// `(root, depth)` per allocated version, indexed by `version - 1`
    /// (versions are dense from 1). Lets a candidate promotion inherit
    /// its parent's root and extend its depth in O(1).
    lineage: Vec<(SpecVersion, u32)>,
    lineage_roots: u64,
}

impl<T> std::fmt::Debug for SpeculationManager<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpeculationManager")
            .field("schedule", &self.schedule)
            .field("verify", &self.verify)
            .field("last_basis", &self.last_basis)
            .field("stats", &self.stats)
            .finish()
    }
}

impl<T> SpeculationManager<T> {
    /// A manager with the given speculation and verification frequencies,
    /// dark (no tracer, no hub).
    pub fn new(schedule: SpeculationSchedule, verify: VerificationPolicy) -> Self {
        Self::instrumented(schedule, verify, &Instruments::default())
    }

    /// [`Self::new`], routing speculation-lifecycle events (predictor
    /// fires, version opens, check verdicts, commits) into `ins.tracer`'s
    /// control ring and speculation-outcome counters plus the breaker-state
    /// and ladder-level gauges into `ins.metrics`' control shard. The
    /// manager always runs under its host's routing/commit lock, so ring
    /// and shard stay single-writer. Rollback events and counters are *not*
    /// fed here — the SRE scheduler owns them (one per `abort_version`,
    /// with the observed cascade depth attached).
    pub fn instrumented(
        schedule: SpeculationSchedule,
        verify: VerificationPolicy,
        ins: &Instruments,
    ) -> Self {
        SpeculationManager {
            schedule,
            verify,
            tracker: VersionTracker::new(),
            phase: Phase::Idle { restart: false },
            last_basis: 0,
            final_seen: false,
            stats: ManagerStats::default(),
            rollback_hook: None,
            tracer: ins.tracer.clone(),
            metrics: ins.metrics.clone(),
            breaker: None,
            ladder: None,
            lineage: Vec::new(),
            lineage_roots: 0,
        }
    }

    /// Enable the speculation circuit breaker: sustained rollbacks or
    /// executor faults trip it, suppressing new predictions (conservative
    /// dispatch) until a cooldown and a successful probe. Trip, probe and
    /// recover events flow to the tracer's control ring.
    pub fn set_breaker(&mut self, cfg: BreakerConfig) {
        self.breaker = Some(CircuitBreaker::new(cfg));
        self.publish_breaker_gauge();
    }

    /// The breaker's state, if one is configured.
    pub fn breaker_state(&self) -> Option<BreakerState> {
        self.breaker.as_ref().map(CircuitBreaker::state)
    }

    /// Enable the degradation ladder above the breaker: windows of bad
    /// speculation outcomes (and breaker trips, immediately) step the
    /// service level down one rung at a time — full speculation, capped
    /// cascade depth, non-speculative, checkpoint-and-pause — and
    /// sustained clean windows step it back up with hysteresis. Level
    /// transitions flow to the control ring as
    /// [`EventKind::LadderStep`] and mirror into
    /// [`Gauge::DegradationLevel`].
    pub fn set_ladder(&mut self, cfg: LadderConfig) {
        self.ladder = Some(DegradationLadder::new(cfg));
        self.publish_ladder_gauge();
    }

    /// The ladder's current service level, if one is configured.
    pub fn ladder_level(&self) -> Option<DegradationLevel> {
        self.ladder.as_ref().map(DegradationLadder::level)
    }

    /// Mirror the breaker's state into [`Gauge::BreakerState`]:
    /// 0 = no breaker, 1 = closed, 2 = open, 3 = half-open.
    fn publish_breaker_gauge(&self) {
        if !self.metrics.is_live() {
            return;
        }
        let v = match self.breaker.as_ref().map(CircuitBreaker::state) {
            None => 0,
            Some(BreakerState::Closed) => 1,
            Some(BreakerState::Open) => 2,
            Some(BreakerState::HalfOpen) => 3,
        };
        self.metrics.gauge_set(Gauge::BreakerState, v);
    }

    /// Mirror the ladder's level into [`Gauge::DegradationLevel`]
    /// (0 = full … 3 = checkpoint-and-pause; 0 also when no ladder).
    fn publish_ladder_gauge(&self) {
        if !self.metrics.is_live() {
            return;
        }
        let v = self
            .ladder
            .as_ref()
            .map_or(0, |l| u64::from(l.level().as_u32()));
        self.metrics.gauge_set(Gauge::DegradationLevel, v);
    }

    /// Feed one speculation outcome into the ladder (and, when the
    /// breaker just tripped, the immediate step-down), emitting
    /// [`EventKind::LadderStep`] for each transition taken.
    fn note_ladder(&mut self, ok: bool, breaker_tripped: bool) {
        let Some(l) = &mut self.ladder else { return };
        let mut steps = [None, None];
        steps[0] = l.observe(ok);
        if breaker_tripped {
            steps[1] = l.on_breaker_trip();
        }
        for (from, to) in steps.into_iter().flatten() {
            self.stats.ladder_steps += 1;
            self.tracer.emit_control(EventKind::LadderStep {
                from: from.as_u32(),
                to: to.as_u32(),
            });
        }
        self.publish_ladder_gauge();
    }

    /// Register a user-defined rollback routine, invoked with each aborted
    /// version — the extension the paper proposes "to enable more tasks to
    /// execute speculatively" (tasks with application-reversible effects).
    pub fn set_rollback_hook(&mut self, hook: impl FnMut(SpecVersion) + Send + 'static) {
        self.rollback_hook = Some(Box::new(hook));
    }

    /// The currently active speculative value, if any.
    pub fn active(&self) -> Option<(SpecVersion, &T)> {
        match &self.phase {
            Phase::Active { version, value, .. } => Some((*version, value)),
            _ => None,
        }
    }

    /// Whether a predictor task is outstanding: a prediction was requested
    /// and has neither been installed nor aborted yet.
    pub fn awaiting_prediction(&self) -> bool {
        matches!(self.phase, Phase::Pending { .. })
    }

    /// The value under final validation, if the manager is between
    /// [`Self::on_final`] and [`Self::on_final_check_result`].
    pub fn pending_final(&self) -> Option<(SpecVersion, &T)> {
        match &self.phase {
            Phase::FinalChecking { version, value } => Some((*version, value)),
            _ => None,
        }
    }

    /// The committed version, once decided.
    pub fn committed(&self) -> Option<SpecVersion> {
        match self.phase {
            Phase::Done { committed } => committed,
            _ => None,
        }
    }

    /// Whether the manager reached its terminal phase.
    pub fn is_done(&self) -> bool {
        matches!(self.phase, Phase::Done { .. })
    }

    /// Statistics so far.
    pub fn stats(&self) -> ManagerStats {
        self.stats
    }

    /// Version lifecycle introspection.
    pub fn version_state(&self, v: SpecVersion) -> Option<VersionState> {
        self.tracker.state(v)
    }

    /// Record the causal lineage of a freshly allocated version and emit
    /// the [`EventKind::LineageOpen`] declaration: fresh predictions are
    /// self-rooted at depth 0; promoted candidates inherit the parent's
    /// root one level deeper. The declaration rides the control ring, so
    /// every later event carrying this version number joins to its
    /// lineage offline (`LineageTable::from_log`).
    fn open_lineage(&mut self, version: SpecVersion, parent: Option<SpecVersion>) {
        let (root, parent_v, depth) = match parent {
            None => (version, 0, 0),
            Some(p) => {
                let (root, pd) = self.lineage.get(p as usize - 1).copied().unwrap_or((p, 0));
                (root, p, pd + 1)
            }
        };
        let slot = version as usize - 1;
        if self.lineage.len() <= slot {
            self.lineage.resize(slot + 1, (0, 0));
        }
        self.lineage[slot] = (root, depth);
        if depth == 0 {
            self.lineage_roots += 1;
            self.metrics
                .gauge_set(Gauge::LineageRoots, self.lineage_roots);
        }
        self.metrics.gauge_max(Gauge::LineageDepthMax, depth as u64);
        self.tracer.emit_control(EventKind::LineageOpen {
            version,
            root,
            parent: parent_v,
            depth,
        });
    }

    /// Distinct lineage roots opened so far (fresh, non-cascade
    /// predictions).
    pub fn lineage_roots(&self) -> u64 {
        self.lineage_roots
    }

    /// `(root, depth)` of `v`'s lineage, if this manager allocated it.
    pub fn lineage_of(&self, v: SpecVersion) -> Option<(SpecVersion, u32)> {
        self.lineage.get(v.checked_sub(1)? as usize).copied()
    }

    fn emit_rollback(&mut self, version: SpecVersion, out: &mut Vec<Action>) {
        self.tracker.abort(version);
        self.stats.rollbacks += 1;
        if let Some(hook) = &mut self.rollback_hook {
            hook(version);
        }
        out.push(Action::Rollback { version });
        self.breaker_failure();
    }

    fn breaker_failure(&mut self) {
        let basis = self.last_basis;
        let mut tripped = false;
        if let Some(b) = &mut self.breaker {
            if let Some(BreakerTransition::Tripped { failures, commits }) = b.record_failure(basis)
            {
                self.stats.breaker_trips += 1;
                self.tracer
                    .emit_control(EventKind::BreakerTrip { failures, commits });
                tripped = true;
            }
        }
        self.publish_breaker_gauge();
        self.note_ladder(false, tripped);
    }

    fn breaker_success(&mut self) {
        if let Some(b) = &mut self.breaker {
            if let Some(BreakerTransition::Recovered { successes }) = b.record_success() {
                self.tracer
                    .emit_control(EventKind::BreakerRecover { successes });
            }
        }
        self.publish_breaker_gauge();
        self.note_ladder(true, false);
    }

    /// An executor caught a fault (panicked task body, watchdog cancel)
    /// somewhere in this manager's pipeline. Counts toward the breaker's
    /// failure window — repeated machine faults degrade speculation to the
    /// natural path just like repeated mispredictions do.
    pub fn record_fault(&mut self) {
        self.stats.faults += 1;
        self.breaker_failure();
    }

    /// The replication validation plane compared a task's replica votes
    /// (see `tvs_sre::replica::ReplicatingWorkload`). A mismatch is
    /// silent data corruption — it feeds the breaker's failure window
    /// exactly like a loud fault, because a machine that corrupts
    /// outputs is a machine whose speculation cannot be trusted either.
    /// Matches are recorded for the stats only; they are routine, not
    /// evidence of health worth closing the breaker over.
    pub fn on_replica_result(&mut self, matched: bool) {
        if matched {
            self.stats.replica_checks += 1;
        } else {
            self.stats.sdc_detected += 1;
            self.breaker_failure();
        }
    }

    /// A basis event completed (the `basis`-th, 1-based). Returns the
    /// actions to take.
    pub fn on_basis(&mut self, basis: u64) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_basis_into(basis, &mut out);
        out
    }

    /// [`Self::on_basis`], appending actions to a caller-provided scratch
    /// vector instead of allocating one — the per-block hot-path variant
    /// (workloads keep one scratch `Vec<Action>` for the whole run).
    pub fn on_basis_into(&mut self, basis: u64, out: &mut Vec<Action>) {
        assert!(!self.final_seen, "basis events after the final value");
        assert!(basis >= self.last_basis, "basis events must be monotone");
        self.last_basis = basis;
        match &self.phase {
            Phase::Idle { restart } => {
                // Ask the schedule first: a half-open breaker's allows()
                // *claims* the single probe slot, so it must only be
                // consulted when a prediction would actually start —
                // otherwise the claim leaks and the probe never flies.
                // The ladder gate sits between for the same reason: at
                // NonSpeculative or below, no prediction will start, so
                // the breaker must not be asked (its probe would leak).
                let wants_start = self.schedule.should_start(basis, *restart);
                let ladder_allows = self
                    .ladder
                    .as_ref()
                    .is_none_or(|l| l.level().allows_speculation());
                let breaker_allows = wants_start
                    && ladder_allows
                    && match &mut self.breaker {
                        Some(b) => b.allows(basis),
                        None => true,
                    };
                self.publish_breaker_gauge();
                if breaker_allows {
                    let version = self.tracker.allocate(basis);
                    self.open_lineage(version, None);
                    self.phase = Phase::Pending { version };
                    self.stats.predictions += 1;
                    self.metrics.add_control(Counter::Predictions, 1);
                    self.tracer
                        .emit_control(EventKind::PredictorFire { version, basis });
                    if let Some(b) = &mut self.breaker {
                        if b.note_prediction(version) {
                            self.tracer
                                .emit_control(EventKind::BreakerProbe { version });
                        }
                    }
                    out.push(Action::StartPrediction { version });
                }
            }
            Phase::Active {
                version,
                installed_at,
                ..
            } => {
                if self.verify.should_check(basis, *installed_at) {
                    self.stats.checks += 1;
                    out.push(Action::SpawnCheck { version: *version });
                }
            }
            Phase::Pending { .. } | Phase::FinalChecking { .. } | Phase::Done { .. } => {}
        }
    }

    /// A predictor task delivered its value. Returns `false` when the
    /// version lost a race against rollback and the value was dropped.
    pub fn install_prediction(&mut self, version: SpecVersion, value: T) -> bool {
        match &self.phase {
            Phase::Pending { version: v } if *v == version => {
                if !self.tracker.activate(version) {
                    self.stats.stale_results += 1;
                    return false;
                }
                let installed_at = self.tracker.basis_of(version).expect("allocated");
                self.tracer.emit_control(EventKind::VersionOpen {
                    version,
                    basis: installed_at,
                });
                self.phase = Phase::Active {
                    version,
                    value,
                    installed_at,
                };
                true
            }
            _ => {
                self.stats.stale_results += 1;
                false
            }
        }
    }

    /// An intermediate check task reported. `candidate` is the fresh value
    /// the check built from basis event `candidate_basis` (promoted on
    /// failure; dropped on success).
    pub fn on_check_result(
        &mut self,
        version: SpecVersion,
        result: CheckResult,
        candidate: Option<(T, u64)>,
    ) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_check_result_into(version, result, candidate, &mut out);
        out
    }

    /// [`Self::on_check_result`] into a caller-provided scratch vector.
    pub fn on_check_result_into(
        &mut self,
        version: SpecVersion,
        result: CheckResult,
        candidate: Option<(T, u64)>,
        out: &mut Vec<Action>,
    ) {
        let is_current_active =
            matches!(&self.phase, Phase::Active { version: v, .. } if *v == version);
        if !is_current_active {
            self.stats.stale_results += 1;
            return;
        }
        if result.valid {
            self.stats.checks_passed += 1;
            self.metrics.add_control(Counter::ChecksPassed, 1);
            self.tracer.emit_control(EventKind::CheckPass {
                version,
                margin: result.delta,
            });
            self.breaker_success();
            return;
        }
        self.stats.checks_failed += 1;
        self.metrics.add_control(Counter::ChecksFailed, 1);
        self.tracer.emit_control(EventKind::CheckFail {
            version,
            margin: result.delta,
        });
        self.emit_rollback(version, out);
        match candidate {
            Some((value, candidate_basis)) => {
                // A tripped breaker suppresses candidate promotion the same
                // way it suppresses fresh predictions: mispredicting runs
                // fall back to conservative dispatch instead of chaining
                // doomed versions, until a cooldown and probe recover.
                // The ladder adds the middle rung: at CappedDepth the
                // promotion is allowed only while the cascade stays within
                // the configured depth cap (the candidate would sit one
                // level below the version that just failed); deeper rungs
                // suppress promotion entirely. The ladder is checked
                // before the breaker so a suppressed promotion cannot
                // leak a half-open probe claim.
                let ladder_allows = match &self.ladder {
                    None => true,
                    Some(l) => {
                        let lvl = l.level();
                        if !lvl.allows_speculation() {
                            false
                        } else if lvl == DegradationLevel::CappedDepth {
                            let parent_depth = self
                                .lineage
                                .get(version as usize - 1)
                                .map_or(0, |&(_, d)| d);
                            parent_depth < l.depth_cap()
                        } else {
                            true
                        }
                    }
                };
                let breaker_allows = ladder_allows
                    && match &mut self.breaker {
                        Some(b) => b.allows(candidate_basis),
                        None => true,
                    };
                self.publish_breaker_gauge();
                if breaker_allows {
                    let v2 = self.tracker.allocate(candidate_basis);
                    self.open_lineage(v2, Some(version));
                    assert!(self.tracker.activate(v2), "fresh version cannot be aborted");
                    self.stats.predictions += 1;
                    self.metrics.add_control(Counter::Predictions, 1);
                    self.tracer.emit_control(EventKind::VersionOpen {
                        version: v2,
                        basis: candidate_basis,
                    });
                    if let Some(b) = &mut self.breaker {
                        if b.note_prediction(v2) {
                            self.tracer
                                .emit_control(EventKind::BreakerProbe { version: v2 });
                        }
                    }
                    self.phase = Phase::Active {
                        version: v2,
                        value,
                        installed_at: candidate_basis,
                    };
                    out.push(Action::PromoteCandidate { version: v2 });
                } else {
                    self.phase = Phase::Idle { restart: true };
                }
            }
            None => {
                self.phase = Phase::Idle { restart: true };
            }
        }
    }

    /// The executor killed `version` from outside the check path — a
    /// speculative task body panicked or the watchdog cancelled it, and
    /// the executor already aborted the version in the scheduler. Brings
    /// the manager's phase in line and reuses the rollback funnel (undo
    /// hooks, stats, breaker, [`Action::Rollback`] — scheduler aborts are
    /// idempotent, so the host re-executing the abort is harmless).
    ///
    /// Counts as a fault *and* a rollback for the breaker window.
    pub fn on_external_abort(&mut self, version: SpecVersion) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_external_abort_into(version, &mut out);
        out
    }

    /// [`Self::on_external_abort`] into a caller-provided scratch vector.
    pub fn on_external_abort_into(&mut self, version: SpecVersion, out: &mut Vec<Action>) {
        self.stats.external_aborts += 1;
        match &self.phase {
            Phase::Pending { version: v } if *v == version => {
                self.emit_rollback(version, out);
                self.phase = Phase::Idle { restart: true };
            }
            Phase::Active { version: v, .. } if *v == version => {
                self.emit_rollback(version, out);
                self.phase = Phase::Idle { restart: true };
            }
            Phase::FinalChecking { version: v, .. } if *v == version => {
                // The decisive comparison can never pass a dead version:
                // go natural immediately.
                self.emit_rollback(version, out);
                self.phase = Phase::Done { committed: None };
                out.push(Action::RecomputeNaturally);
            }
            _ => {
                // The version was already gone (e.g. its check failed in
                // the same batch); nothing to roll back twice.
                self.stats.stale_results += 1;
            }
        }
    }

    /// The true final value became available. Returns either the final
    /// check to spawn or the decision to recompute naturally.
    pub fn on_final(&mut self) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_final_into(&mut out);
        out
    }

    /// [`Self::on_final`] into a caller-provided scratch vector.
    pub fn on_final_into(&mut self, out: &mut Vec<Action>) {
        assert!(!self.final_seen, "on_final called twice");
        self.final_seen = true;
        match std::mem::replace(&mut self.phase, Phase::Done { committed: None }) {
            Phase::Active { version, value, .. } => {
                self.phase = Phase::FinalChecking { version, value };
                out.push(Action::SpawnFinalCheck { version });
            }
            Phase::Pending { version } => {
                // The predictor never finished: kill it and go natural.
                self.emit_rollback(version, out);
                out.push(Action::RecomputeNaturally);
            }
            Phase::Idle { .. } => {
                out.push(Action::RecomputeNaturally);
            }
            Phase::FinalChecking { .. } | Phase::Done { .. } => {
                unreachable!("final value delivered in a terminal phase")
            }
        }
    }

    /// The final check reported: commit or recompute.
    pub fn on_final_check_result(
        &mut self,
        version: SpecVersion,
        result: CheckResult,
    ) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_final_check_result_into(version, result, &mut out);
        out
    }

    /// [`Self::on_final_check_result`] into a caller-provided scratch
    /// vector.
    pub fn on_final_check_result_into(
        &mut self,
        version: SpecVersion,
        result: CheckResult,
        out: &mut Vec<Action>,
    ) {
        match std::mem::replace(&mut self.phase, Phase::Done { committed: None }) {
            Phase::FinalChecking { version: v, .. } if v == version => {
                if result.valid {
                    self.tracker.commit(version);
                    self.metrics.add_control(Counter::ChecksPassed, 1);
                    self.metrics.add_control(Counter::Commits, 1);
                    self.tracer.emit_control(EventKind::CheckPass {
                        version,
                        margin: result.delta,
                    });
                    self.tracer.emit_control(EventKind::Commit { version });
                    self.phase = Phase::Done {
                        committed: Some(version),
                    };
                    self.breaker_success();
                    out.push(Action::Commit { version });
                } else {
                    self.stats.checks_failed += 1;
                    self.metrics.add_control(Counter::ChecksFailed, 1);
                    self.tracer.emit_control(EventKind::CheckFail {
                        version,
                        margin: result.delta,
                    });
                    self.emit_rollback(version, out);
                    out.push(Action::RecomputeNaturally);
                }
            }
            other => {
                self.phase = other;
                self.stats.stale_results += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::CheckResult;

    fn mgr(step: u64, verify: VerificationPolicy) -> SpeculationManager<&'static str> {
        SpeculationManager::new(SpeculationSchedule::with_step(step), verify)
    }

    /// Step 1, full verification, events into `tracer`.
    fn traced_mgr(tracer: &Tracer) -> SpeculationManager<&'static str> {
        SpeculationManager::instrumented(
            SpeculationSchedule::with_step(1),
            VerificationPolicy::Full,
            &Instruments::traced(tracer.clone()),
        )
    }

    #[test]
    fn no_rollback_happy_path() {
        let mut m = mgr(1, VerificationPolicy::EveryKth(2));
        // Basis 1: start prediction.
        let a = m.on_basis(1);
        assert_eq!(a, vec![Action::StartPrediction { version: 1 }]);
        assert!(m.install_prediction(1, "tree-v1"));
        assert_eq!(m.active(), Some((1, &"tree-v1")));
        // Basis 2: check due (every 2nd).
        assert_eq!(m.on_basis(2), vec![Action::SpawnCheck { version: 1 }]);
        assert!(m
            .on_check_result(1, CheckResult::pass(0.001), None)
            .is_empty());
        // Basis 3: no check (odd).
        assert!(m.on_basis(3).is_empty());
        // Final: decisive check, then commit.
        assert_eq!(m.on_final(), vec![Action::SpawnFinalCheck { version: 1 }]);
        assert_eq!(m.pending_final(), Some((1, &"tree-v1")));
        assert_eq!(
            m.on_final_check_result(1, CheckResult::pass(0.004)),
            vec![Action::Commit { version: 1 }]
        );
        assert_eq!(m.committed(), Some(1));
        assert!(m.is_done());
        let s = m.stats();
        assert_eq!(s.predictions, 1);
        assert_eq!(s.rollbacks, 0);
    }

    #[test]
    fn failed_check_promotes_candidate() {
        let mut m = mgr(1, VerificationPolicy::Full);
        m.on_basis(1);
        m.install_prediction(1, "v1");
        assert_eq!(m.on_basis(2), vec![Action::SpawnCheck { version: 1 }]);
        let acts = m.on_check_result(1, CheckResult::fail(0.09), Some(("v2", 2)));
        assert_eq!(
            acts,
            vec![
                Action::Rollback { version: 1 },
                Action::PromoteCandidate { version: 2 }
            ]
        );
        assert_eq!(m.active(), Some((2, &"v2")));
        assert_eq!(m.version_state(1), Some(VersionState::Aborted));
        assert_eq!(m.stats().rollbacks, 1);
        // The promoted version commits at final.
        m.on_final();
        let acts = m.on_final_check_result(2, CheckResult::pass(0.0));
        assert_eq!(acts, vec![Action::Commit { version: 2 }]);
    }

    #[test]
    fn failed_check_without_candidate_restarts_on_next_basis() {
        let mut m = mgr(100, VerificationPolicy::Full);
        // step=100 would normally delay the start...
        assert!(m.on_basis(99).is_empty());
        let a = m.on_basis(100);
        assert_eq!(a, vec![Action::StartPrediction { version: 1 }]);
        m.install_prediction(1, "v1");
        m.on_basis(101);
        let acts = m.on_check_result(1, CheckResult::fail(1.0), None);
        assert_eq!(acts, vec![Action::Rollback { version: 1 }]);
        // ...but a restart ignores the step.
        let a = m.on_basis(102);
        assert_eq!(a, vec![Action::StartPrediction { version: 2 }]);
    }

    #[test]
    fn failed_final_check_recomputes() {
        let mut m = mgr(0, VerificationPolicy::Optimistic);
        m.on_basis(1);
        m.install_prediction(1, "v1");
        // Optimistic: no intermediate checks ever.
        for b in 2..50 {
            assert!(m.on_basis(b).is_empty());
        }
        assert_eq!(m.on_final(), vec![Action::SpawnFinalCheck { version: 1 }]);
        let acts = m.on_final_check_result(1, CheckResult::fail(0.3));
        assert_eq!(
            acts,
            vec![Action::Rollback { version: 1 }, Action::RecomputeNaturally]
        );
        assert_eq!(m.committed(), None);
        assert!(m.is_done());
    }

    #[test]
    fn final_with_pending_prediction_recomputes() {
        let mut m = mgr(1, VerificationPolicy::baseline());
        m.on_basis(1);
        let acts = m.on_final();
        assert_eq!(
            acts,
            vec![Action::Rollback { version: 1 }, Action::RecomputeNaturally]
        );
        // The late prediction is dropped.
        assert!(!m.install_prediction(1, "late"));
        assert_eq!(m.stats().stale_results, 1);
    }

    #[test]
    fn final_without_any_speculation_recomputes() {
        let mut m = mgr(1000, VerificationPolicy::baseline());
        m.on_basis(1);
        m.on_basis(2);
        assert_eq!(m.on_final(), vec![Action::RecomputeNaturally]);
    }

    #[test]
    fn stale_check_results_ignored() {
        let mut m = mgr(1, VerificationPolicy::Full);
        m.on_basis(1);
        m.install_prediction(1, "v1");
        m.on_basis(2);
        // Two checks in flight: first fails, promoting v2; the second
        // (also against v1) arrives stale and must be ignored.
        m.on_check_result(1, CheckResult::fail(0.2), Some(("v2", 2)));
        let acts = m.on_check_result(1, CheckResult::fail(0.2), Some(("v3", 2)));
        assert!(acts.is_empty());
        assert_eq!(m.stats().stale_results, 1);
        assert_eq!(m.active().unwrap().0, 2);
    }

    #[test]
    fn lifecycle_events_reach_the_tracer() {
        let tracer = Tracer::enabled(1);
        let mut m = traced_mgr(&tracer);
        m.on_basis(1);
        m.install_prediction(1, "v1");
        m.on_basis(2);
        // Failed check with a candidate: fail + reopen under v2.
        m.on_check_result(1, CheckResult::fail(0.09), Some(("v2", 2)));
        m.on_basis(3);
        m.on_check_result(2, CheckResult::pass(0.01), None);
        m.on_final();
        m.on_final_check_result(2, CheckResult::pass(0.002));
        let log = tracer.drain().expect("enabled tracer drains");
        assert_eq!(log.count("predictor-fire"), 1);
        assert_eq!(log.count("version-open"), 2, "install + promote");
        assert_eq!(log.count("check-pass"), 2, "intermediate + final");
        assert_eq!(log.count("check-fail"), 1);
        assert_eq!(log.count("commit"), 1);
        assert_eq!(
            log.count("rollback"),
            0,
            "rollback events belong to the scheduler, not the manager"
        );
    }

    #[test]
    fn lineage_declarations_chain_cascades_to_their_root() {
        let tracer = Tracer::enabled(1);
        let mut m = traced_mgr(&tracer);
        // v1 fresh → fails → v2 promoted → fails → v3 promoted.
        m.on_basis(1);
        m.install_prediction(1, "v1");
        m.on_basis(2);
        m.on_check_result(1, CheckResult::fail(0.9), Some(("v2", 2)));
        m.on_basis(3);
        m.on_check_result(2, CheckResult::fail(0.9), Some(("v3", 3)));
        // A fresh line after the cascade dies.
        m.on_basis(4);
        m.on_check_result(3, CheckResult::fail(0.9), None);
        m.on_basis(5);

        assert_eq!(m.lineage_of(1), Some((1, 0)), "fresh line is self-rooted");
        assert_eq!(m.lineage_of(2), Some((1, 1)), "promotion inherits the root");
        assert_eq!(m.lineage_of(3), Some((1, 2)), "cascade deepens");
        assert_eq!(m.lineage_of(4), Some((4, 0)), "restart opens a new root");
        assert_eq!(m.lineage_roots(), 2);

        let log = tracer.drain().expect("enabled tracer drains");
        assert_eq!(log.count("lineage-open"), 4, "one declaration per version");
        let lineage = log.lineage();
        let v3 = lineage.lineage_of(3).expect("v3 joins");
        assert_eq!((v3.root, v3.parent, v3.depth), (1, Some(2), 2));
    }

    #[test]
    fn rollback_hook_fires() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        let seen = Arc::new(AtomicU32::new(0));
        let seen2 = Arc::clone(&seen);
        let mut m = mgr(1, VerificationPolicy::Full);
        m.set_rollback_hook(move |v| {
            seen2.store(v, Ordering::SeqCst);
        });
        m.on_basis(1);
        m.install_prediction(1, "v1");
        m.on_basis(2);
        m.on_check_result(1, CheckResult::fail(0.5), None);
        assert_eq!(seen.load(Ordering::SeqCst), 1);
    }

    fn breaker_cfg() -> BreakerConfig {
        BreakerConfig {
            window: 4,
            min_samples: 2,
            trip_ratio: 0.5,
            cooldown: 3,
            probe_successes: 1,
        }
    }

    #[test]
    fn breaker_trips_on_sustained_rollbacks_and_recovers_via_probe() {
        let tracer = Tracer::enabled(1);
        let mut m = traced_mgr(&tracer);
        m.set_breaker(breaker_cfg());
        assert_eq!(m.breaker_state(), Some(BreakerState::Closed));

        // Two failed speculations in a row: second rollback trips.
        assert_eq!(m.on_basis(1), vec![Action::StartPrediction { version: 1 }]);
        m.install_prediction(1, "v1");
        assert_eq!(m.on_basis(2), vec![Action::SpawnCheck { version: 1 }]);
        m.on_check_result(1, CheckResult::fail(0.9), None);
        assert_eq!(m.breaker_state(), Some(BreakerState::Closed));
        assert_eq!(m.on_basis(3), vec![Action::StartPrediction { version: 2 }]);
        m.install_prediction(2, "v2");
        assert_eq!(m.on_basis(4), vec![Action::SpawnCheck { version: 2 }]);
        m.on_check_result(2, CheckResult::fail(0.9), None);
        assert_eq!(m.breaker_state(), Some(BreakerState::Open));
        assert_eq!(m.stats().breaker_trips, 1);

        // Open: predictions suppressed despite the pending restart.
        assert!(m.on_basis(5).is_empty());
        assert!(m.on_basis(6).is_empty());

        // Cooldown over: half-open lets one probe through.
        assert_eq!(m.on_basis(7), vec![Action::StartPrediction { version: 3 }]);
        assert_eq!(m.breaker_state(), Some(BreakerState::HalfOpen));
        m.install_prediction(3, "v3");
        assert_eq!(m.on_basis(8), vec![Action::SpawnCheck { version: 3 }]);
        m.on_check_result(3, CheckResult::pass(0.01), None);
        assert_eq!(m.breaker_state(), Some(BreakerState::Closed));

        let log = tracer.drain().expect("enabled tracer drains");
        assert_eq!(log.count("breaker-trip"), 1);
        assert_eq!(log.count("breaker-probe"), 1);
        assert_eq!(log.count("breaker-recover"), 1);
    }

    #[test]
    fn tripped_breaker_suppresses_candidate_promotion() {
        let mut m = mgr(1, VerificationPolicy::Full);
        m.set_breaker(breaker_cfg());

        // First failure promotes its candidate: breaker still closed.
        m.on_basis(1);
        m.install_prediction(1, "v1");
        m.on_basis(2);
        let acts = m.on_check_result(1, CheckResult::fail(0.9), Some(("c1", 2)));
        assert_eq!(
            acts,
            vec![
                Action::Rollback { version: 1 },
                Action::PromoteCandidate { version: 2 }
            ]
        );

        // Second failure trips; the fresh candidate must NOT be promoted —
        // the run degrades to the natural path instead of chaining doomed
        // versions.
        m.on_basis(3);
        let acts = m.on_check_result(2, CheckResult::fail(0.9), Some(("c2", 3)));
        assert_eq!(acts, vec![Action::Rollback { version: 2 }]);
        assert_eq!(m.breaker_state(), Some(BreakerState::Open));
        assert_eq!(m.active(), None);
        assert_eq!(m.stats().breaker_trips, 1);

        // After the cooldown the restart flag lets a probe prediction out.
        assert!(m.on_basis(4).is_empty());
        assert!(m.on_basis(5).is_empty());
        assert_eq!(m.on_basis(6), vec![Action::StartPrediction { version: 3 }]);
        assert_eq!(m.breaker_state(), Some(BreakerState::HalfOpen));
    }

    #[test]
    fn breaker_trip_steps_the_ladder_down_within_one_window() {
        let tracer = Tracer::enabled(1);
        let mut m = traced_mgr(&tracer);
        m.set_breaker(breaker_cfg());
        // A window far larger than the test so only the trip can step.
        m.set_ladder(LadderConfig {
            window: 64,
            min_samples: 4,
            trip_ratio: 0.5,
            up_windows: 2,
            depth_cap: 1,
        });
        assert_eq!(m.ladder_level(), Some(DegradationLevel::Full));
        m.record_fault();
        assert_eq!(m.ladder_level(), Some(DegradationLevel::Full));
        m.record_fault(); // trips the breaker → immediate ladder step
        assert_eq!(m.breaker_state(), Some(BreakerState::Open));
        assert_eq!(m.ladder_level(), Some(DegradationLevel::CappedDepth));
        assert_eq!(m.stats().ladder_steps, 1);
        let log = tracer.drain().expect("drains");
        assert_eq!(log.count("breaker-trip"), 1);
        assert_eq!(log.count("ladder-step"), 1);
    }

    #[test]
    fn ladder_at_non_speculative_suppresses_predictions() {
        let mut m = mgr(1, VerificationPolicy::Full);
        m.set_ladder(LadderConfig {
            window: 2,
            min_samples: 1,
            trip_ratio: 0.5,
            up_windows: 2,
            depth_cap: 1,
        });
        // Two all-fail windows walk the ladder to NonSpeculative.
        let mut basis = 0;
        for expect_version in 1..=4u32 {
            basis += 1;
            assert_eq!(
                m.on_basis(basis),
                vec![Action::StartPrediction {
                    version: expect_version
                }],
                "speculation still allowed above NonSpeculative"
            );
            m.install_prediction(expect_version, "v");
            basis += 1;
            m.on_basis(basis);
            m.on_check_result(expect_version, CheckResult::fail(0.9), None);
        }
        assert_eq!(m.ladder_level(), Some(DegradationLevel::NonSpeculative));
        assert_eq!(m.stats().ladder_steps, 2);
        // Despite the pending restart, no prediction starts any more.
        assert!(m.on_basis(basis + 1).is_empty());
        assert!(m.on_basis(basis + 2).is_empty());
    }

    #[test]
    fn capped_depth_blocks_promotions_beyond_the_cap() {
        let mut m = mgr(1, VerificationPolicy::Full);
        m.set_ladder(LadderConfig {
            window: 2,
            min_samples: 1,
            trip_ratio: 0.5,
            up_windows: 2,
            depth_cap: 1,
        });
        // First failure (window still open, level Full): candidate
        // promoted to depth 1.
        m.on_basis(1);
        m.install_prediction(1, "v1");
        m.on_basis(2);
        let acts = m.on_check_result(1, CheckResult::fail(0.9), Some(("c1", 2)));
        assert_eq!(
            acts,
            vec![
                Action::Rollback { version: 1 },
                Action::PromoteCandidate { version: 2 }
            ]
        );
        assert_eq!(m.lineage_of(2), Some((1, 1)));
        // Second failure closes the window → CappedDepth; the candidate
        // would sit at depth 2 > cap 1, so promotion is suppressed.
        m.on_basis(3);
        let acts = m.on_check_result(2, CheckResult::fail(0.9), Some(("c2", 3)));
        assert_eq!(acts, vec![Action::Rollback { version: 2 }]);
        assert_eq!(m.ladder_level(), Some(DegradationLevel::CappedDepth));
        assert_eq!(m.active(), None);
        // Fresh predictions (depth 0) still start at CappedDepth...
        assert_eq!(m.on_basis(4), vec![Action::StartPrediction { version: 3 }]);
        assert_eq!(m.lineage_of(3), Some((3, 0)));
        // ...and their first promotion (depth 1 = cap) is still allowed.
        m.install_prediction(3, "v3");
        m.on_basis(5);
        let acts = m.on_check_result(3, CheckResult::fail(0.9), Some(("c3", 5)));
        assert_eq!(
            acts,
            vec![
                Action::Rollback { version: 3 },
                Action::PromoteCandidate { version: 4 }
            ]
        );
    }

    #[test]
    fn ladder_recovers_with_hysteresis_after_clean_windows() {
        let mut m = mgr(1, VerificationPolicy::Full);
        m.set_ladder(LadderConfig {
            window: 2,
            min_samples: 1,
            trip_ratio: 0.5,
            up_windows: 2,
            depth_cap: 1,
        });
        // One bad window: Full → CappedDepth.
        let mut basis = 0;
        for v in 1..=2u32 {
            basis += 1;
            m.on_basis(basis);
            m.install_prediction(v, "v");
            basis += 1;
            m.on_basis(basis);
            m.on_check_result(v, CheckResult::fail(0.9), None);
        }
        assert_eq!(m.ladder_level(), Some(DegradationLevel::CappedDepth));
        // One clean window (2 passes) is not enough — hysteresis.
        basis += 1;
        m.on_basis(basis);
        m.install_prediction(3, "v3");
        for _ in 0..2 {
            basis += 1;
            m.on_basis(basis);
            m.on_check_result(3, CheckResult::pass(0.0), None);
        }
        assert_eq!(m.ladder_level(), Some(DegradationLevel::CappedDepth));
        // The second consecutive clean window steps back up.
        for _ in 0..2 {
            basis += 1;
            m.on_basis(basis);
            m.on_check_result(3, CheckResult::pass(0.0), None);
        }
        assert_eq!(m.ladder_level(), Some(DegradationLevel::Full));
        assert_eq!(m.stats().ladder_steps, 2);
    }

    #[test]
    fn external_abort_rolls_back_the_active_version() {
        let mut m = mgr(1, VerificationPolicy::Full);
        m.on_basis(1);
        m.install_prediction(1, "v1");
        assert_eq!(
            m.on_external_abort(1),
            vec![Action::Rollback { version: 1 }]
        );
        assert_eq!(m.active(), None);
        assert_eq!(m.version_state(1), Some(VersionState::Aborted));
        let s = m.stats();
        assert_eq!(s.external_aborts, 1);
        assert_eq!(s.rollbacks, 1);
        // The restart flag is set: speculation resumes on the next basis.
        assert_eq!(m.on_basis(2), vec![Action::StartPrediction { version: 2 }]);
        // A second report for the same dead version is stale.
        assert!(m.on_external_abort(1).is_empty());
        assert_eq!(m.stats().stale_results, 1);
    }

    #[test]
    fn external_abort_during_final_check_recomputes() {
        let mut m = mgr(1, VerificationPolicy::Optimistic);
        m.on_basis(1);
        m.install_prediction(1, "v1");
        assert_eq!(m.on_final(), vec![Action::SpawnFinalCheck { version: 1 }]);
        assert_eq!(
            m.on_external_abort(1),
            vec![Action::Rollback { version: 1 }, Action::RecomputeNaturally]
        );
        assert!(m.is_done());
        assert_eq!(m.committed(), None);
        // The straggling final verdict is stale, not a second decision.
        assert!(m
            .on_final_check_result(1, CheckResult::pass(0.0))
            .is_empty());
    }

    #[test]
    fn executor_faults_alone_can_trip_the_breaker() {
        let tracer = Tracer::enabled(1);
        let mut m = traced_mgr(&tracer);
        m.set_breaker(breaker_cfg());
        m.record_fault();
        assert_eq!(m.breaker_state(), Some(BreakerState::Closed));
        m.record_fault();
        assert_eq!(m.breaker_state(), Some(BreakerState::Open));
        let s = m.stats();
        assert_eq!(s.faults, 2);
        assert_eq!(s.breaker_trips, 1);
        assert_eq!(s.rollbacks, 0, "faults trip without any rollback");
        let log = tracer.drain().expect("drains");
        assert_eq!(log.count("breaker-trip"), 1);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn non_monotone_basis_panics() {
        let mut m = mgr(1, VerificationPolicy::Full);
        m.on_basis(5);
        m.on_basis(4);
    }

    #[test]
    #[should_panic(expected = "on_final called twice")]
    fn double_final_panics() {
        let mut m = mgr(1000, VerificationPolicy::Full);
        m.on_final();
        m.on_final();
    }

    #[test]
    fn check_counts_accumulate() {
        let mut m = mgr(1, VerificationPolicy::Full);
        m.on_basis(1);
        m.install_prediction(1, "v");
        for b in 2..=5 {
            m.on_basis(b);
            m.on_check_result(1, CheckResult::pass(0.0), None);
        }
        let s = m.stats();
        assert_eq!(s.checks, 4);
        assert_eq!(s.checks_passed, 4);
        assert_eq!(s.checks_failed, 0);
    }
}
