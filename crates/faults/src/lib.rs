//! Deterministic fault injection for the TVS runtime.
//!
//! The paper treats misspeculation as an *expected, recoverable* event;
//! this crate extends the same attitude to machine-level faults so the
//! rollback path can be exercised as a general fault-recovery path. A
//! [`FaultPlan`] is a seeded set of [`FaultRule`]s — "at [`FaultSite`] X,
//! inject [`FaultKind`] Y with probability p" — and a [`FaultInjector`] is
//! the cheap cloneable handle the runtime threads through its hot paths,
//! modelled on `tvs_metrics::Recorder`: the disabled injector is `None` inside
//! and every query is a single predictable branch.
//!
//! Determinism is the whole point: a draw's outcome is a pure function of
//! `(plan seed, site, occurrence index at that site)`, so a chaos run with
//! the same plan and a deterministic executor (the discrete-event
//! simulator) replays its faults exactly, and a threaded run replays them
//! per-site even though cross-site interleaving varies. Each failing seed
//! in the CI chaos matrix is therefore a reproducible bug report.
//!
//! What the kinds *mean* is up to the wiring point: executors understand
//! [`FaultKind::PanicTask`] and [`FaultKind::Stall`] at
//! [`FaultSite::TaskBody`] and delayed and duplicated completions at
//! [`FaultSite::Completion`], the speculation pipeline corrupts predicted
//! edge values, and the iosim feeder stalls. A site ignores kinds it has
//! no sensible interpretation for, so one chaotic plan can be aimed at
//! every site at once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use tvs_rng::SmallRng;

/// What to inject.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Panic the task body before it runs (the executor's `catch_unwind`
    /// must convert this into a fault, not a process abort).
    PanicTask,
    /// Stall for roughly this many µs before proceeding. Wiring points
    /// stall abort-aware (poll the task's abort flag), so a rollback of its
    /// version ends a stalled speculative task early.
    Stall {
        /// Stall duration, µs.
        us: u64,
    },
    /// Corrupt the value crossing this site (e.g. scramble a predicted
    /// edge value) — downstream validation must catch it.
    CorruptValue,
    /// Hold a completion back and deliver it later than it arrived.
    DelayCompletion {
        /// Delay, µs.
        us: u64,
    },
    /// Deliver a completion twice; the scheduler must tolerate the echo.
    DuplicateCompletion,
}

impl FaultKind {
    /// Stable kebab-case label (logs, chaos reports).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::PanicTask => "panic-task",
            FaultKind::Stall { .. } => "stall",
            FaultKind::CorruptValue => "corrupt-value",
            FaultKind::DelayCompletion { .. } => "delay-completion",
            FaultKind::DuplicateCompletion => "duplicate-completion",
        }
    }
}

/// Named injection sites wired through the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Executor, immediately before running a task body.
    TaskBody,
    /// Completion delivery (the threaded commit turn / the simulator's
    /// Done event).
    Completion,
    /// The predicted edge value, between predictor output and install.
    PredictedValue,
    /// The input feeder (the simulator's arrivals / the threaded feeder).
    Feeder,
    /// A task body's *output*, after it was computed but before it is
    /// delivered. [`FaultKind::CorruptValue`] here models a silent data
    /// corruption (SDC): the task neither panics nor stalls, it just
    /// returns wrong bytes. Tolerance checks do not necessarily observe
    /// the damage — this site exists so replication-based validation has
    /// something to catch.
    TaskOutput,
}

/// Number of distinct sites (occurrence counters are per-site).
const SITES: usize = 5;

impl FaultSite {
    fn index(self) -> usize {
        match self {
            FaultSite::TaskBody => 0,
            FaultSite::Completion => 1,
            FaultSite::PredictedValue => 2,
            FaultSite::Feeder => 3,
            FaultSite::TaskOutput => 4,
        }
    }

    /// Stable kebab-case label (logs, chaos reports).
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::TaskBody => "task-body",
            FaultSite::Completion => "completion",
            FaultSite::PredictedValue => "predicted-value",
            FaultSite::Feeder => "feeder",
            FaultSite::TaskOutput => "task-output",
        }
    }

    /// Per-site salt folded into the draw RNG so two sites with the same
    /// occurrence index see unrelated streams.
    fn salt(self) -> u64 {
        // Arbitrary odd constants; stability matters, values don't: each
        // site keeps its constant, so its draws (and every chaos and SDC
        // matrix) do not move when a site is added or removed.
        match self {
            FaultSite::TaskBody => 0x9E37_79B9_7F4A_7C15,
            FaultSite::Completion => 0xC2B2_AE3D_27D4_EB4F,
            FaultSite::PredictedValue => 0x1656_67B1_9E37_79F9,
            FaultSite::Feeder => 0x9E6C_63D0_876A_68E5,
            FaultSite::TaskOutput => 0xD6E8_FEB8_6659_FD93,
        }
    }
}

/// One injection rule: at `site`, inject `kind` with probability `rate`
/// per opportunity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRule {
    /// Where.
    pub site: FaultSite,
    /// What.
    pub kind: FaultKind,
    /// Probability per opportunity, clamped to `[0, 1]` at draw time.
    pub rate: f64,
}

/// A seeded, deterministic fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-draw RNG.
    pub seed: u64,
    /// The rules; at each opportunity they are tried in order and the
    /// first hit wins.
    pub rules: Vec<FaultRule>,
    /// Hard cap on injected faults across the run; once reached, every
    /// draw misses. Guarantees chaos runs make forward progress (retries
    /// eventually run clean).
    pub max_faults: u64,
}

impl FaultPlan {
    /// An empty plan (never injects) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
            max_faults: u64::MAX,
        }
    }

    /// Add a rule (builder-style).
    pub fn with_rule(mut self, site: FaultSite, kind: FaultKind, rate: f64) -> Self {
        self.rules.push(FaultRule { site, kind, rate });
        self
    }

    /// Cap total injected faults (builder-style).
    pub fn with_max_faults(mut self, max: u64) -> Self {
        self.max_faults = max;
        self
    }

    /// The CI chaos mix: every site armed with the kinds it understands,
    /// at rates low enough that bounded retry recovers, capped so every
    /// run terminates.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan::new(seed)
            .with_rule(FaultSite::TaskBody, FaultKind::PanicTask, 0.04)
            .with_rule(FaultSite::TaskBody, FaultKind::Stall { us: 300 }, 0.03)
            .with_rule(
                FaultSite::Completion,
                FaultKind::DelayCompletion { us: 200 },
                0.05,
            )
            .with_rule(FaultSite::Completion, FaultKind::DuplicateCompletion, 0.03)
            .with_rule(FaultSite::PredictedValue, FaultKind::CorruptValue, 0.25)
            .with_rule(FaultSite::Feeder, FaultKind::Stall { us: 200 }, 0.05)
            .with_max_faults(64)
    }

    /// The SDC-recall mix: only [`FaultSite::TaskOutput`] is armed, with
    /// [`FaultKind::CorruptValue`] — silent corruptions that never panic,
    /// never stall, and are invisible to retry. Capped low so a replica
    /// vote set always contains at least one clean execution under the
    /// recall tests' bounded re-execution.
    pub fn sdc(seed: u64) -> Self {
        FaultPlan::new(seed)
            .with_rule(FaultSite::TaskOutput, FaultKind::CorruptValue, 0.2)
            .with_max_faults(6)
    }
}

/// One injected fault, as recorded in the injector's log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectedFault {
    /// Where it was injected.
    pub site: FaultSite,
    /// What was injected.
    pub kind: FaultKind,
    /// Zero-based occurrence index at that site (the draw that hit).
    pub occurrence: u64,
}

struct Inner {
    plan: FaultPlan,
    /// Per-site opportunity counters.
    counters: [AtomicU64; SITES],
    /// Total faults injected (compared against `plan.max_faults`).
    injected: AtomicU64,
    /// Per-site injected counters (exact recall accounting needs "how
    /// many corruptions actually landed at TaskOutput", not the total).
    injected_site: [AtomicU64; SITES],
    /// Record of every injected fault, for chaos reports.
    log: Mutex<Vec<InjectedFault>>,
}

/// Cheap cloneable injection handle. [`FaultInjector::disabled`] (also
/// `Default`) carries no plan: every [`FaultInjector::draw`] is a single
/// branch returning `None`.
#[derive(Clone, Default)]
pub struct FaultInjector {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl FaultInjector {
    /// The no-op injector: never injects anything.
    pub fn disabled() -> Self {
        FaultInjector { inner: None }
    }

    /// An injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            inner: Some(Arc::new(Inner {
                plan,
                counters: Default::default(),
                injected: AtomicU64::new(0),
                injected_site: Default::default(),
                log: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether this handle can ever inject.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The plan's seed, if this handle carries a plan. Post-mortem
    /// bundles record it so a crashed run can be replayed bit-exactly.
    pub fn seed(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.plan.seed)
    }

    /// One injection opportunity at `site`. Returns the fault to act out,
    /// or `None` (the overwhelmingly common case). The outcome is a pure
    /// function of `(seed, site, occurrence-at-site)`.
    #[inline]
    pub fn draw(&self, site: FaultSite) -> Option<FaultKind> {
        self.draw_with_occurrence(site).map(|(kind, _)| kind)
    }

    /// Like [`FaultInjector::draw`], additionally returning the zero-based
    /// occurrence index of the opportunity that hit. Wiring points that
    /// *fabricate* corrupted data use the index to make each corruption
    /// payload occurrence-dependent, so two corruptions of the same value
    /// can never cancel out into identical (and thus digest-equal) wrong
    /// answers.
    #[inline]
    pub fn draw_with_occurrence(&self, site: FaultSite) -> Option<(FaultKind, u64)> {
        let inner = self.inner.as_ref()?;
        let n = inner.counters[site.index()].fetch_add(1, Ordering::Relaxed);
        let mut rng = SmallRng::seed_from_u64(
            inner
                .plan
                .seed
                .wrapping_add(site.salt().wrapping_mul(n.wrapping_add(1))),
        );
        for rule in inner.plan.rules.iter().filter(|r| r.site == site) {
            if rng.random::<f64>() < rule.rate.clamp(0.0, 1.0) {
                // Reserve a slot under the cap; undo the claim on overflow
                // so late drains of `injected()` stay exact.
                if inner.injected.fetch_add(1, Ordering::Relaxed) >= inner.plan.max_faults {
                    inner.injected.fetch_sub(1, Ordering::Relaxed);
                    return None;
                }
                inner.injected_site[site.index()].fetch_add(1, Ordering::Relaxed);
                inner
                    .log
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(InjectedFault {
                        site,
                        kind: rule.kind,
                        occurrence: n,
                    });
                return Some((rule.kind, n));
            }
        }
        None
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.injected.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Faults injected at one specific site so far (the denominator of
    /// an SDC recall ratio is `injected_at(FaultSite::TaskOutput)`).
    pub fn injected_at(&self, site: FaultSite) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.injected_site[site.index()].load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Snapshot of every injected fault (site, kind, occurrence).
    pub fn log(&self) -> Vec<InjectedFault> {
        self.inner
            .as_ref()
            .map(|i| i.log.lock().unwrap_or_else(PoisonError::into_inner).clone())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_never_fires() {
        let inj = FaultInjector::disabled();
        assert!(!inj.is_enabled());
        for _ in 0..1000 {
            assert_eq!(inj.draw(FaultSite::TaskBody), None);
        }
        assert_eq!(inj.injected(), 0);
        assert!(inj.log().is_empty());
    }

    #[test]
    fn empty_plan_never_fires() {
        let inj = FaultInjector::new(FaultPlan::new(7));
        for _ in 0..1000 {
            assert_eq!(inj.draw(FaultSite::Completion), None);
        }
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn rate_one_always_fires_and_is_logged() {
        let plan = FaultPlan::new(1).with_rule(FaultSite::TaskBody, FaultKind::PanicTask, 1.0);
        let inj = FaultInjector::new(plan);
        for n in 0..10u64 {
            assert_eq!(inj.draw(FaultSite::TaskBody), Some(FaultKind::PanicTask));
            assert_eq!(inj.log()[n as usize].occurrence, n);
        }
        // Other sites are untouched by the rule.
        assert_eq!(inj.draw(FaultSite::Feeder), None);
        assert_eq!(inj.injected(), 10);
    }

    #[test]
    fn draws_are_deterministic_per_seed_and_site() {
        let plan = |seed| {
            FaultPlan::new(seed)
                .with_rule(FaultSite::TaskBody, FaultKind::PanicTask, 0.3)
                .with_rule(FaultSite::TaskBody, FaultKind::Stall { us: 50 }, 0.3)
        };
        let a = FaultInjector::new(plan(42));
        let b = FaultInjector::new(plan(42));
        let seq_a: Vec<_> = (0..200).map(|_| a.draw(FaultSite::TaskBody)).collect();
        let seq_b: Vec<_> = (0..200).map(|_| b.draw(FaultSite::TaskBody)).collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().any(|d| d.is_some()), "some draws hit");
        assert!(seq_a.iter().any(|d| d.is_none()), "some draws miss");

        let c = FaultInjector::new(plan(43));
        let seq_c: Vec<_> = (0..200).map(|_| c.draw(FaultSite::TaskBody)).collect();
        assert_ne!(seq_a, seq_c, "different seed, different fault schedule");
    }

    #[test]
    fn max_faults_caps_injection() {
        let plan = FaultPlan::new(5)
            .with_rule(FaultSite::Feeder, FaultKind::Stall { us: 1 }, 1.0)
            .with_max_faults(3);
        let inj = FaultInjector::new(plan);
        let hits = (0..100)
            .filter(|_| inj.draw(FaultSite::Feeder).is_some())
            .count();
        assert_eq!(hits, 3);
        assert_eq!(inj.injected(), 3);
        assert_eq!(inj.log().len(), 3);
    }

    #[test]
    fn first_matching_rule_wins() {
        let plan = FaultPlan::new(9)
            .with_rule(FaultSite::Completion, FaultKind::DuplicateCompletion, 1.0)
            .with_rule(
                FaultSite::Completion,
                FaultKind::DelayCompletion { us: 9 },
                1.0,
            );
        let inj = FaultInjector::new(plan);
        assert_eq!(
            inj.draw(FaultSite::Completion),
            Some(FaultKind::DuplicateCompletion)
        );
    }

    #[test]
    fn clones_share_state() {
        let plan = FaultPlan::new(2).with_rule(FaultSite::Feeder, FaultKind::Stall { us: 5 }, 1.0);
        let inj = FaultInjector::new(plan);
        let inj2 = inj.clone();
        assert!(inj2.draw(FaultSite::Feeder).is_some());
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn chaos_plan_hits_every_armed_site_eventually() {
        let inj = FaultInjector::new(FaultPlan::chaos(1234).with_max_faults(u64::MAX));
        let mut hit = std::collections::HashSet::new();
        for _ in 0..5000 {
            for site in [
                FaultSite::TaskBody,
                FaultSite::Completion,
                FaultSite::PredictedValue,
                FaultSite::Feeder,
            ] {
                if inj.draw(site).is_some() {
                    hit.insert(site.label());
                }
            }
        }
        assert_eq!(hit.len(), 4, "all sites armed: {hit:?}");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(FaultKind::PanicTask.label(), "panic-task");
        assert_eq!(FaultKind::Stall { us: 1 }.label(), "stall");
        assert_eq!(FaultKind::CorruptValue.label(), "corrupt-value");
        assert_eq!(FaultSite::PredictedValue.label(), "predicted-value");
        assert_eq!(FaultSite::TaskOutput.label(), "task-output");
    }

    #[test]
    fn sdc_plan_only_arms_task_output() {
        let inj = FaultInjector::new(FaultPlan::sdc(7).with_max_faults(u64::MAX));
        let mut out_hits = 0;
        for _ in 0..500 {
            for site in [
                FaultSite::TaskBody,
                FaultSite::Completion,
                FaultSite::PredictedValue,
                FaultSite::Feeder,
            ] {
                assert_eq!(inj.draw(site), None, "sdc plan must not arm {site:?}");
            }
            if inj.draw(FaultSite::TaskOutput) == Some(FaultKind::CorruptValue) {
                out_hits += 1;
            }
        }
        assert!(out_hits > 0, "task-output corruption fires eventually");
        assert_eq!(inj.injected_at(FaultSite::TaskOutput), out_hits);
        assert_eq!(inj.injected(), out_hits);
    }

    #[test]
    fn occurrence_indices_match_the_log() {
        let plan = FaultPlan::new(3).with_rule(FaultSite::TaskOutput, FaultKind::CorruptValue, 0.5);
        let inj = FaultInjector::new(plan);
        let mut hits = Vec::new();
        for _ in 0..200 {
            if let Some((kind, occ)) = inj.draw_with_occurrence(FaultSite::TaskOutput) {
                assert_eq!(kind, FaultKind::CorruptValue);
                hits.push(occ);
            }
        }
        assert!(!hits.is_empty());
        let logged: Vec<u64> = inj.log().iter().map(|f| f.occurrence).collect();
        assert_eq!(hits, logged, "returned occurrences mirror the log");
        // Occurrence indices are strictly increasing: no two corruptions
        // can share a payload derived from them.
        assert!(hits.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn per_site_injection_counts_are_exact() {
        let plan = FaultPlan::new(11)
            .with_rule(FaultSite::TaskOutput, FaultKind::CorruptValue, 1.0)
            .with_rule(FaultSite::TaskBody, FaultKind::PanicTask, 1.0)
            .with_max_faults(5);
        let inj = FaultInjector::new(plan);
        for _ in 0..3 {
            inj.draw(FaultSite::TaskOutput);
        }
        for _ in 0..10 {
            inj.draw(FaultSite::TaskBody);
        }
        assert_eq!(inj.injected_at(FaultSite::TaskOutput), 3);
        assert_eq!(
            inj.injected_at(FaultSite::TaskBody),
            2,
            "cap shared across sites"
        );
        assert_eq!(inj.injected(), 5);
        assert_eq!(inj.injected_at(FaultSite::Feeder), 0);
    }
}
