//! The observation-and-chaos context of one run.
//!
//! A run has exactly one recorder and one fault plan. Every layer that
//! records or draws — executor, scheduler, replication plane, speculation
//! manager, application workload — is handed the same [`Instruments`] when
//! it is built, so "all draws share one budget" and "every fact lands in
//! the one store" hold by construction instead of by every caller
//! remembering a matching pair of setters.

use crate::policy::DispatchPolicy;
use tvs_faults::FaultInjector;
use tvs_metrics::Recorder;

/// Recorder and fault injector of one run. Both are cheap cloneable
/// handles; the [`Default`] is the dark run: a disabled recorder and an
/// injector without a plan, each a single never-taken branch at its call
/// sites.
#[derive(Clone, Debug, Default)]
pub struct Instruments {
    /// The run's one store of runtime facts: events, counters, gauges and
    /// histograms. Size an enabled recorder for the run's worker count
    /// (`Recorder::enabled(workers)`).
    pub recorder: Recorder,
    /// Fault-injection plan consulted at every site of the run: task body,
    /// completion, feeder, predicted value, task output.
    pub faults: FaultInjector,
}

impl Instruments {
    /// Dark but for `recorder`.
    pub fn recorded(recorder: Recorder) -> Self {
        Instruments {
            recorder,
            ..Self::default()
        }
    }

    /// Dark but for the fault plan behind `faults`.
    pub fn faulty(faults: FaultInjector) -> Self {
        Instruments {
            faults,
            ..Self::default()
        }
    }

    /// What an executor with `workers` lanes runs on: a caller's recorder
    /// must be sized for those lanes (and is labelled with the policy);
    /// without one the executor still keeps its counters, in a
    /// counters-only recorder, so `RunMetrics` reads one store either way.
    pub(crate) fn for_executor(&self, workers: usize, policy: DispatchPolicy) -> Self {
        assert!(workers > 0, "need at least one worker");
        let recorder = if self.recorder.has_registry() {
            assert_eq!(
                self.recorder.workers(),
                workers,
                "recorder must be sized for the executor's worker count"
            );
            self.recorder.clone()
        } else {
            Recorder::counters(workers)
        };
        if recorder.is_enabled() {
            recorder.set_label(policy.label());
        }
        Instruments {
            recorder,
            ..self.clone()
        }
    }
}
