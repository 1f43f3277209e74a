//! The four-point programmer interface.
//!
//! "In order to introduce value speculation to a streaming application, the
//! programmer provides the following four details to our programming
//! environment: 1) what to speculate [...] 2) how to speculate [...]
//! 3) where (not) to speculate [...] 4) how to validate speculations."
//!
//! [`SpeculationBuilder`] captures exactly those four details (plus the
//! frequency knobs of §II-B) and produces a [`SpeculationPlan`] from which
//! a configured [`SpeculationManager`]
//! is made. The paper notes this interface "can be supported by a compiler
//! through the introduction of keywords in high-level languages, or simply
//! through the addition of API functions" — this is the API-function form.

use crate::degrade::DegradeConfig;
use crate::frequency::{SpeculationSchedule, VerificationPolicy};
use crate::manager::SpeculationManager;
use crate::validate::Tolerance;
use tvs_sre::Instruments;

/// A complete speculation configuration for one DFG edge.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeculationPlan {
    /// (1) *what*: the DFG edge whose value is speculated, e.g.
    /// `"global-histogram -> tree"`.
    pub edge: &'static str,
    /// (2) *how*: the source of approximate data, e.g.
    /// `"partial reduce outcomes"`.
    pub source: &'static str,
    /// (3) *where (not)*: the side-effect barrier at which speculative
    /// data waits, e.g. `"output store"`.
    pub barrier: &'static str,
    /// (4) *how to validate*: the tolerance margin for the comparison task.
    pub tolerance: Tolerance,
    /// Speculation frequency (step size).
    pub schedule: SpeculationSchedule,
    /// Verification frequency.
    pub verification: VerificationPolicy,
}

impl SpeculationPlan {
    /// Instantiate the engine for this plan on a run's [`Instruments`]
    /// (`&Instruments::default()` for a dark one), degrading under
    /// `degrade` if given.
    pub fn manager<T>(
        &self,
        degrade: Option<DegradeConfig>,
        ins: &Instruments,
    ) -> SpeculationManager<T> {
        SpeculationManager::instrumented(self.schedule, self.verification, degrade, ins)
    }
}

/// Error from [`SpeculationBuilder::build`]: a required detail is missing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissingDetail(pub &'static str);

impl std::fmt::Display for MissingDetail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "speculation plan is missing detail: {}", self.0)
    }
}

impl std::error::Error for MissingDetail {}

/// Builder for a [`SpeculationPlan`].
#[derive(Debug, Default, Clone)]
pub struct SpeculationBuilder {
    edge: Option<&'static str>,
    source: Option<&'static str>,
    barrier: Option<&'static str>,
    tolerance: Option<Tolerance>,
    schedule: SpeculationSchedule,
    verification: VerificationPolicy,
}

impl Default for SpeculationSchedule {
    fn default() -> Self {
        SpeculationSchedule { step: 8 }
    }
}

impl Default for VerificationPolicy {
    fn default() -> Self {
        VerificationPolicy::baseline()
    }
}

impl SpeculationBuilder {
    /// An empty builder with the paper's baseline frequencies.
    pub fn new() -> Self {
        Self::default()
    }

    /// (1) what: the speculated edge.
    pub fn on_edge(mut self, edge: &'static str) -> Self {
        self.edge = Some(edge);
        self
    }

    /// (2) how: the approximate-data source.
    pub fn from_source(mut self, source: &'static str) -> Self {
        self.source = Some(source);
        self
    }

    /// (3) where (not): the side-effect barrier.
    pub fn barrier_at(mut self, barrier: &'static str) -> Self {
        self.barrier = Some(barrier);
        self
    }

    /// (4) how to validate: the tolerance margin.
    pub fn validate_within(mut self, tolerance: Tolerance) -> Self {
        self.tolerance = Some(tolerance);
        self
    }

    /// Speculation frequency (step size).
    pub fn schedule(mut self, schedule: SpeculationSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Verification frequency.
    pub fn verification(mut self, verification: VerificationPolicy) -> Self {
        self.verification = verification;
        self
    }

    /// Produce the plan, verifying all four details are present.
    pub fn build(self) -> Result<SpeculationPlan, MissingDetail> {
        Ok(SpeculationPlan {
            edge: self.edge.ok_or(MissingDetail("what (edge)"))?,
            source: self.source.ok_or(MissingDetail("how (source)"))?,
            barrier: self.barrier.ok_or(MissingDetail("where (barrier)"))?,
            tolerance: self
                .tolerance
                .ok_or(MissingDetail("how to validate (tolerance)"))?,
            schedule: self.schedule,
            verification: self.verification,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_plan_builds() {
        let plan = SpeculationBuilder::new()
            .on_edge("global-histogram -> tree")
            .from_source("partial reduce outcomes")
            .barrier_at("output store")
            .validate_within(Tolerance::percent(1.0))
            .schedule(SpeculationSchedule::with_step(8))
            .verification(VerificationPolicy::EveryKth(8))
            .build()
            .unwrap();
        assert_eq!(plan.edge, "global-histogram -> tree");
        assert_eq!(plan.tolerance, Tolerance::percent(1.0));
        let m: SpeculationManager<u32> = plan.manager(None, &Instruments::default());
        assert!(!m.is_done());
    }

    #[test]
    fn missing_details_are_reported() {
        let err = SpeculationBuilder::new().build().unwrap_err();
        assert_eq!(err, MissingDetail("what (edge)"));
        let err = SpeculationBuilder::new().on_edge("e").build().unwrap_err();
        assert_eq!(err, MissingDetail("how (source)"));
        let err = SpeculationBuilder::new()
            .on_edge("e")
            .from_source("s")
            .build()
            .unwrap_err();
        assert_eq!(err, MissingDetail("where (barrier)"));
        let err = SpeculationBuilder::new()
            .on_edge("e")
            .from_source("s")
            .barrier_at("b")
            .build()
            .unwrap_err();
        assert_eq!(err, MissingDetail("how to validate (tolerance)"));
    }

    #[test]
    fn defaults_are_paper_baseline() {
        let b = SpeculationBuilder::new();
        assert_eq!(b.schedule, SpeculationSchedule::with_step(8));
        assert_eq!(b.verification, VerificationPolicy::EveryKth(8));
    }

    #[test]
    fn missing_detail_displays() {
        let e = MissingDetail("what (edge)");
        assert!(e.to_string().contains("what (edge)"));
    }
}
