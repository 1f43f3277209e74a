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

use crate::degrade::{Admit, Degrade, DegradeConfig, Level, Outcome, Step};
use crate::frequency::{SpeculationSchedule, VerificationPolicy};
use crate::validate::CheckResult;
use crate::version::{VersionState, VersionTracker};
use tvs_metrics::Recorder;
use tvs_sre::{Instruments, SpecVersion};
use tvs_trace::EventKind;

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
    /// Checks requested: the intermediate ones and the final one.
    pub checks: u64,
    /// Checks that passed, the final one included — what the recorder's
    /// `ChecksPassed` counts.
    pub checks_passed: u64,
    /// Checks that failed (each causes a rollback), the final one
    /// included — what the recorder's `ChecksFailed` counts.
    pub checks_failed: u64,
    /// Rollbacks (intermediate + final).
    pub rollbacks: u64,
    /// Stale verdicts ignored (their version was already gone).
    pub stale_results: u64,
    /// Executor-initiated aborts absorbed via
    /// [`SpeculationManager::on_external_abort`] (panicked speculative
    /// tasks).
    pub external_aborts: u64,
    /// Executor faults reported via [`SpeculationManager::record_fault`].
    pub faults: u64,
    /// Degradation steps toward less speculation.
    pub steps_down: u64,
    /// Degradation steps back toward full speculation.
    pub steps_up: u64,
    /// Probe predictions let through at [`Level::Probing`].
    pub probes: u64,
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
    rec: Recorder,
    degrade: Option<Degrade>,
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
    /// dark (no recorder) and never degrading.
    pub fn new(schedule: SpeculationSchedule, verify: VerificationPolicy) -> Self {
        Self::instrumented(schedule, verify, None, &Instruments::default())
    }

    /// [`Self::new`], recording each speculation-lifecycle fact (version
    /// lineage, predictor fire, version open, check verdict, commit,
    /// degradation step and probe) on `ins.recorder`'s control shard, one
    /// call per fact — which also charges the counters and gauges it
    /// implies. The manager always runs under its host's routing/commit
    /// lock, so the shard stays single-writer. Rollbacks are *not* recorded
    /// here — the SRE scheduler owns them (one per `abort_version`, with
    /// the observed cascade depth attached).
    ///
    /// With `degrade` set, every rollback, executor fault, SDC detection,
    /// passed check and commit feeds one [`Degrade`] machine, which is
    /// asked before every fresh prediction and candidate promotion
    /// (`None` = never degrade, the paper's behaviour).
    pub fn instrumented(
        schedule: SpeculationSchedule,
        verify: VerificationPolicy,
        degrade: Option<DegradeConfig>,
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
            rec: ins.recorder.clone(),
            degrade: degrade.map(Degrade::new),
            lineage: Vec::new(),
            lineage_roots: 0,
        }
    }

    /// The degradation machine's current service level, if one is
    /// configured.
    pub fn level(&self) -> Option<Level> {
        self.degrade.as_ref().map(Degrade::level)
    }

    /// Count and record a level change (the recorder's degradation-level
    /// gauge reads 0 until the first one, which is also what "no machine"
    /// reads).
    fn note_step(&mut self, step: Option<Step>) {
        let Some(Step { from, to, cause }) = step else {
            return;
        };
        if cause.is_down() {
            self.stats.steps_down += 1;
        } else {
            self.stats.steps_up += 1;
        }
        self.rec.emit_control(EventKind::DegradeStep {
            from: from as u32,
            to: to as u32,
            cause,
        });
    }

    /// Feed one speculation outcome to the degradation machine.
    fn observe(&mut self, outcome: Outcome) {
        let basis = self.last_basis;
        let step = self
            .degrade
            .as_mut()
            .and_then(|d| d.observe(basis, outcome));
        self.note_step(step);
    }

    /// May a version start `depth` levels into its cascade? Only asked when
    /// it otherwise would: a probe admission takes the probe slot.
    fn admit(&mut self, depth: u32) -> Admit {
        self.degrade.as_mut().map_or(Admit::Yes, |d| d.admit(depth))
    }

    /// `version` started on an [`Admit::Probe`] answer.
    fn note_probe(&mut self, admit: Admit, version: SpecVersion) {
        if admit == Admit::Probe {
            self.stats.probes += 1;
            self.rec.emit_control(EventKind::DegradeProbe { version });
        }
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
        }
        self.rec.emit_control(EventKind::LineageOpen {
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
        out.push(Action::Rollback { version });
        self.observe(Outcome::RolledBack);
    }

    /// An executor caught a fault (a panicked task body) somewhere in this
    /// manager's pipeline. Counts as a failed outcome —
    /// repeated machine faults degrade speculation to the natural path
    /// just like repeated mispredictions do.
    pub fn record_fault(&mut self) {
        self.stats.faults += 1;
        self.observe(Outcome::Fault);
    }

    /// The replication validation plane compared a task's replica votes
    /// (see `tvs_sre::replica::ReplicatingWorkload`). A mismatch is
    /// silent data corruption — it counts as a failed outcome exactly
    /// like a loud fault, because a machine that corrupts outputs is a
    /// machine whose speculation cannot be trusted either. Matches are
    /// recorded for the stats only; they are routine, not evidence of
    /// health worth stepping back up over.
    pub fn on_replica_result(&mut self, matched: bool) {
        if matched {
            self.stats.replica_checks += 1;
        } else {
            self.stats.sdc_detected += 1;
            self.observe(Outcome::Sdc);
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
        let step = self.degrade.as_mut().and_then(|d| d.tick(basis));
        self.note_step(step);
        match &self.phase {
            Phase::Idle { restart } => {
                // Schedule first: the machine is only asked when a
                // prediction would otherwise start.
                let wants_start = self.schedule.should_start(basis, *restart);
                let admit = if wants_start {
                    self.admit(0)
                } else {
                    Admit::No
                };
                if admit != Admit::No {
                    let version = self.tracker.allocate(basis);
                    self.open_lineage(version, None);
                    self.phase = Phase::Pending { version };
                    self.stats.predictions += 1;
                    self.rec
                        .emit_control(EventKind::PredictorFire { version, basis });
                    self.note_probe(admit, version);
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
                self.rec.emit_control(EventKind::VersionOpen {
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
            self.rec.emit_control(EventKind::CheckPass {
                version,
                margin: result.delta,
            });
            self.observe(Outcome::CheckPassed);
            return;
        }
        self.stats.checks_failed += 1;
        self.rec.emit_control(EventKind::CheckFail {
            version,
            margin: result.delta,
        });
        self.emit_rollback(version, out);
        match candidate {
            Some((value, candidate_basis)) => {
                // Degradation gates promotion like fresh predictions:
                // mispredicting runs fall back to the natural path instead
                // of chaining doomed versions. The candidate would sit one
                // level below the version that just failed.
                let parent_depth = self.lineage_of(version).map_or(0, |(_, d)| d);
                let admit = self.admit(parent_depth + 1);
                if admit != Admit::No {
                    let v2 = self.tracker.allocate(candidate_basis);
                    self.open_lineage(v2, Some(version));
                    assert!(self.tracker.activate(v2), "fresh version cannot be aborted");
                    self.stats.predictions += 1;
                    self.rec.emit_control(EventKind::VersionOpen {
                        version: v2,
                        basis: candidate_basis,
                    });
                    self.note_probe(admit, v2);
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
    /// speculative task body panicked, and the executor already aborted
    /// the version in the scheduler. Brings
    /// the manager's phase in line and reuses the rollback funnel (stats,
    /// degradation, [`Action::Rollback`] — scheduler aborts are
    /// idempotent, so the host re-executing the abort is harmless).
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
                self.stats.checks += 1;
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
                    self.stats.checks_passed += 1;
                    self.rec.emit_control(EventKind::CheckPass {
                        version,
                        margin: result.delta,
                    });
                    self.rec.emit_control(EventKind::Commit { version });
                    self.phase = Phase::Done {
                        committed: Some(version),
                    };
                    self.observe(Outcome::Committed);
                    out.push(Action::Commit { version });
                } else {
                    self.stats.checks_failed += 1;
                    self.rec.emit_control(EventKind::CheckFail {
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

    /// Step 1, full verification, events into `rec`.
    fn traced_mgr(rec: &Recorder) -> SpeculationManager<&'static str> {
        SpeculationManager::instrumented(
            SpeculationSchedule::with_step(1),
            VerificationPolicy::Full,
            None,
            &Instruments::recorded(rec.clone()),
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
        let rec = Recorder::enabled(1);
        let mut m = traced_mgr(&rec);
        m.on_basis(1);
        m.install_prediction(1, "v1");
        m.on_basis(2);
        // Failed check with a candidate: fail + reopen under v2.
        m.on_check_result(1, CheckResult::fail(0.09), Some(("v2", 2)));
        m.on_basis(3);
        m.on_check_result(2, CheckResult::pass(0.01), None);
        m.on_final();
        m.on_final_check_result(2, CheckResult::pass(0.002));
        let log = rec.drain().expect("enabled recorder drains");
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
        // Each recorded fact charged its counter: one call per fact.
        use tvs_metrics::Counter;
        assert_eq!(rec.counter_total(Counter::Predictions), 2);
        assert_eq!(rec.counter_total(Counter::ChecksPassed), 2);
        assert_eq!(rec.counter_total(Counter::ChecksFailed), 1);
        assert_eq!(rec.counter_total(Counter::Commits), 1);
    }

    #[test]
    fn lineage_declarations_chain_cascades_to_their_root() {
        let rec = Recorder::enabled(1);
        let mut m = traced_mgr(&rec);
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

        let log = rec.drain().expect("enabled recorder drains");
        assert_eq!(log.count("lineage-open"), 4, "one declaration per version");
        let lineage = log.lineage();
        let v3 = lineage.lineage_of(3).expect("v3 joins");
        assert_eq!((v3.root, v3.parent, v3.depth), (1, Some(2), 2));
    }

    /// Step 1, full verification, degrading under `cfg`.
    fn degrading_mgr(cfg: DegradeConfig, ins: &Instruments) -> SpeculationManager<&'static str> {
        SpeculationManager::instrumented(
            SpeculationSchedule::with_step(1),
            VerificationPolicy::Full,
            Some(cfg),
            ins,
        )
    }

    /// Two failures make a window of four bad.
    fn degrade_cfg() -> DegradeConfig {
        DegradeConfig {
            window: 4,
            trip_ratio: 0.5,
            clean_windows: 2,
            cooldown: 3,
        }
    }

    /// A window of two that is bad only when both outcomes failed.
    fn window_of_two(cooldown: u64) -> DegradeConfig {
        DegradeConfig {
            window: 2,
            trip_ratio: 1.0,
            clean_windows: 2,
            cooldown,
        }
    }

    /// Start a fresh prediction at the next basis, install it, and fail
    /// its first check with no candidate. Returns the basis reached.
    fn mispredict(m: &mut SpeculationManager<&'static str>, basis: u64, version: u32) -> u64 {
        assert_eq!(
            m.on_basis(basis + 1),
            vec![Action::StartPrediction { version }]
        );
        m.install_prediction(version, "v");
        assert_eq!(m.on_basis(basis + 2), vec![Action::SpawnCheck { version }]);
        m.on_check_result(version, CheckResult::fail(0.9), None);
        basis + 2
    }

    #[test]
    fn breaker_trips_on_sustained_rollbacks_and_recovers_via_probe() {
        let rec = Recorder::enabled(1);
        let mut m = degrading_mgr(degrade_cfg(), &Instruments::recorded(rec.clone()));
        assert_eq!(m.level(), Some(Level::Full));

        // Four failed speculations in a row: two bad windows.
        let mut basis = 0;
        for version in 1..=4 {
            basis = mispredict(&mut m, basis, version);
            let expect = [Level::Full, Level::Capped, Level::Capped, Level::Suspended];
            assert_eq!(m.level(), Some(expect[version as usize - 1]));
        }
        assert_eq!(m.stats().steps_down, 2);

        // Suspended: predictions held back despite the pending restart.
        assert!(m.on_basis(9).is_empty());
        assert!(m.on_basis(10).is_empty());

        // Cooldown over: one probe goes through.
        assert_eq!(m.on_basis(11), vec![Action::StartPrediction { version: 5 }]);
        assert_eq!(m.level(), Some(Level::Probing));
        m.install_prediction(5, "v5");
        assert_eq!(m.on_basis(12), vec![Action::SpawnCheck { version: 5 }]);
        m.on_check_result(5, CheckResult::pass(0.01), None);
        assert_eq!(m.level(), Some(Level::Capped));
        let s = m.stats();
        assert_eq!((s.steps_down, s.steps_up, s.probes), (2, 2, 1));

        let log = rec.drain().expect("enabled recorder drains");
        assert_eq!(log.count("degrade-step"), 4);
        assert_eq!(log.count("degrade-probe"), 1);
        let h = log.health();
        assert_eq!((h.steps_down, h.steps_up, h.probes), (2, 2, 1));
    }

    /// The absorbing-rung regression: with the manager idle at `Suspended`
    /// no prediction runs, so no outcome arrives — only the basis-driven
    /// cooldown can lift the level. Before the single machine, the ladder
    /// sat at its non-speculative rung forever.
    #[test]
    fn suspended_rung_is_left_by_cooldown_probe_and_clean_windows() {
        let mut m = degrading_mgr(window_of_two(5), &Instruments::default());
        let mut basis = 0;
        for version in 1..=4 {
            basis = mispredict(&mut m, basis, version);
        }
        assert_eq!(m.level(), Some(Level::Suspended), "two bad windows");
        let held_back = m.stats().predictions;

        // Clean operation from here on: basis events, passing checks.
        let mut restarted = None;
        for basis in basis + 1..basis + 20 {
            for action in m.on_basis(basis) {
                match action {
                    Action::StartPrediction { version } => {
                        restarted.get_or_insert(basis);
                        m.install_prediction(version, "v");
                    }
                    Action::SpawnCheck { version } => {
                        m.on_check_result(version, CheckResult::pass(0.0), None);
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert_eq!(
            restarted,
            Some(basis + 5),
            "the probe starts as the cooldown ends"
        );
        assert_eq!(m.stats().predictions, held_back + 1);
        assert_eq!(m.level(), Some(Level::Full));
        let s = m.stats();
        assert_eq!((s.steps_down, s.steps_up, s.probes), (2, 3, 1));
    }

    #[test]
    fn tripped_breaker_suppresses_candidate_promotion() {
        // One failure is a bad window.
        let mut m = degrading_mgr(
            DegradeConfig {
                window: 1,
                ..degrade_cfg()
            },
            &Instruments::default(),
        );
        assert_eq!(mispredict(&mut m, 0, 1), 2);
        assert_eq!(m.level(), Some(Level::Capped));

        // The second failure suspends; its candidate would sit at depth 1,
        // within the cap, but must NOT be promoted — the run degrades to
        // the natural path instead of chaining doomed versions.
        assert_eq!(m.on_basis(3), vec![Action::StartPrediction { version: 2 }]);
        m.install_prediction(2, "v2");
        m.on_basis(4);
        let acts = m.on_check_result(2, CheckResult::fail(0.9), Some(("c2", 4)));
        assert_eq!(acts, vec![Action::Rollback { version: 2 }]);
        assert_eq!(m.level(), Some(Level::Suspended));
        assert_eq!(m.active(), None);

        // After the cooldown the restart flag lets a probe prediction out.
        assert!(m.on_basis(5).is_empty());
        assert!(m.on_basis(6).is_empty());
        assert_eq!(m.on_basis(7), vec![Action::StartPrediction { version: 3 }]);
        assert_eq!(m.level(), Some(Level::Probing));
    }

    #[test]
    fn breaker_trip_steps_the_ladder_down_within_one_window() {
        let rec = Recorder::enabled(1);
        // A window far larger than the test: the verdict must land as soon
        // as it is decided, not when the window closes.
        let cfg = DegradeConfig {
            window: 64,
            trip_ratio: 2.0 / 64.0,
            ..degrade_cfg()
        };
        let mut m = degrading_mgr(cfg, &Instruments::recorded(rec.clone()));
        m.record_fault();
        assert_eq!(m.level(), Some(Level::Full));
        m.record_fault();
        assert_eq!(m.level(), Some(Level::Capped));
        assert_eq!(m.stats().steps_down, 1);
        let log = rec.drain().expect("drains");
        assert_eq!(log.count("degrade-step"), 1);
    }

    #[test]
    fn ladder_at_non_speculative_suppresses_predictions() {
        let mut m = degrading_mgr(window_of_two(100), &Instruments::default());
        // Two all-fail windows walk the machine to Suspended; speculation
        // is still allowed on the way there.
        let mut basis = 0;
        for version in 1..=4 {
            basis = mispredict(&mut m, basis, version);
        }
        assert_eq!(m.level(), Some(Level::Suspended));
        assert_eq!(m.stats().steps_down, 2);
        // Despite the pending restart, no prediction starts any more.
        assert!(m.on_basis(basis + 1).is_empty());
        assert!(m.on_basis(basis + 2).is_empty());
    }

    #[test]
    fn capped_depth_blocks_promotions_beyond_the_cap() {
        let mut m = degrading_mgr(window_of_two(100), &Instruments::default());
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
        // Second failure closes the window → Capped; the candidate would
        // sit at depth 2 > cap 1, so promotion is suppressed.
        m.on_basis(3);
        let acts = m.on_check_result(2, CheckResult::fail(0.9), Some(("c2", 3)));
        assert_eq!(acts, vec![Action::Rollback { version: 2 }]);
        assert_eq!(m.level(), Some(Level::Capped));
        assert_eq!(m.active(), None);
        // Fresh predictions (depth 0) still start at Capped...
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
        let mut m = degrading_mgr(window_of_two(100), &Instruments::default());
        // One bad window: Full → Capped.
        let mut basis = mispredict(&mut m, 0, 1);
        basis = mispredict(&mut m, basis, 2);
        assert_eq!(m.level(), Some(Level::Capped));
        // One clean window (2 passes) is not enough — hysteresis.
        basis += 1;
        m.on_basis(basis);
        m.install_prediction(3, "v3");
        for _ in 0..2 {
            basis += 1;
            m.on_basis(basis);
            m.on_check_result(3, CheckResult::pass(0.0), None);
        }
        assert_eq!(m.level(), Some(Level::Capped));
        // The second consecutive clean window steps back up.
        for _ in 0..2 {
            basis += 1;
            m.on_basis(basis);
            m.on_check_result(3, CheckResult::pass(0.0), None);
        }
        assert_eq!(m.level(), Some(Level::Full));
        let s = m.stats();
        assert_eq!((s.steps_down, s.steps_up), (1, 1));
    }

    /// Enumeration property (e): with no machine configured nothing is
    /// ever held back — every start the schedule wants and every candidate
    /// promotion goes through, whatever mix of failures came before. All
    /// sequences over six manager inputs up to length 6.
    #[test]
    fn absent_machine_never_gates_any_start() {
        const LEN: u32 = 6;
        let mut sequences = 0u64;
        for len in 0..=LEN {
            for code in 0..6u32.pow(len) {
                sequences += 1;
                let mut m = mgr(1, VerificationPolicy::Full);
                let mut basis = 0;
                for k in 0..len {
                    let active = m.active().map(|(v, _)| v);
                    match (code / 6u32.pow(k)) % 6 {
                        0 => {
                            basis += 1;
                            match (m.on_basis(basis).as_slice(), active) {
                                ([Action::StartPrediction { version }], None) => {
                                    assert!(m.install_prediction(*version, "v"));
                                }
                                ([Action::SpawnCheck { version }], Some(v)) => {
                                    assert_eq!(*version, v)
                                }
                                (other, _) => panic!("a start was held back: {other:?}"),
                            }
                        }
                        1 => m.record_fault(),
                        2 => m.on_replica_result(false),
                        input => {
                            let Some(v) = active else { continue };
                            let acts = match input {
                                3 => m.on_check_result(v, CheckResult::pass(0.0), None),
                                4 => m.on_check_result(v, CheckResult::fail(0.9), None),
                                _ => {
                                    m.on_check_result(v, CheckResult::fail(0.9), Some(("c", basis)))
                                }
                            };
                            match input {
                                3 => assert!(acts.is_empty()),
                                4 => assert_eq!(acts, [Action::Rollback { version: v }]),
                                _ => assert!(
                                    matches!(acts[1], Action::PromoteCandidate { .. }),
                                    "a promotion was held back: {acts:?}"
                                ),
                            }
                        }
                    }
                }
                assert_eq!(m.level(), None);
                let s = m.stats();
                assert_eq!((s.steps_down, s.steps_up, s.probes), (0, 0, 0));
            }
        }
        assert_eq!(sequences, (0..=LEN).map(|k| 6u64.pow(k)).sum::<u64>());
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
        let rec = Recorder::enabled(1);
        let mut m = degrading_mgr(degrade_cfg(), &Instruments::recorded(rec.clone()));
        m.record_fault();
        assert_eq!(m.level(), Some(Level::Full));
        m.record_fault();
        assert_eq!(m.level(), Some(Level::Capped));
        m.on_replica_result(false);
        m.record_fault();
        assert_eq!(m.level(), Some(Level::Suspended));
        let s = m.stats();
        assert_eq!((s.faults, s.sdc_detected), (3, 1));
        assert_eq!(s.steps_down, 2);
        assert_eq!(s.rollbacks, 0, "faults degrade without any rollback");
        let log = rec.drain().expect("drains");
        assert_eq!(log.count("degrade-step"), 2);
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

    /// The stats count every check the recorder counts, the final one
    /// included, whether it passes or fails.
    #[test]
    fn check_stats_agree_with_the_recorder() {
        use tvs_metrics::Counter;
        for final_valid in [true, false] {
            let rec = Recorder::enabled(1);
            let mut m = traced_mgr(&rec);
            m.on_basis(1);
            m.install_prediction(1, "v1");
            m.on_basis(2);
            m.on_check_result(1, CheckResult::fail(0.09), Some(("v2", 2)));
            m.on_basis(3);
            m.on_check_result(2, CheckResult::pass(0.01), None);
            m.on_final();
            let verdict = match final_valid {
                true => CheckResult::pass(0.002),
                false => CheckResult::fail(0.2),
            };
            m.on_final_check_result(2, verdict);
            let s = m.stats();
            assert_eq!(s.checks, 3, "two intermediate checks and the final one");
            assert_eq!(s.checks_passed, rec.counter_total(Counter::ChecksPassed));
            assert_eq!(s.checks_failed, rec.counter_total(Counter::ChecksFailed));
            assert_eq!(s.checks_passed + s.checks_failed, s.checks);
            assert_eq!(s.checks_passed, 1 + u64::from(final_valid));
        }
    }
}
