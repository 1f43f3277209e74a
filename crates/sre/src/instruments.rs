//! The observation-and-chaos context of one run.
//!
//! A run has exactly one event log, one metrics registry and one fault
//! plan. Every layer that emits, counts or draws — executor, scheduler,
//! replication plane, speculation manager, application workload — is
//! handed the same [`Instruments`] when it is built, so
//! "all draws share one budget and log" and "worker- and manager-side
//! events land in the same trace" hold by construction instead of by
//! every caller remembering a matching pair of setters.

use crate::policy::DispatchPolicy;
use tvs_faults::FaultInjector;
use tvs_metrics::MetricsHub;
use tvs_trace::Tracer;

/// Tracer, metrics hub and fault injector of one run. All three are cheap
/// cloneable handles; the [`Default`] is the dark run: a disabled tracer, a
/// disabled hub and an injector without a plan, each a single never-taken
/// branch at its call sites.
#[derive(Clone, Debug)]
pub struct Instruments {
    /// Speculation-lifecycle event sink. Size an enabled tracer for the
    /// run's worker count (`Tracer::enabled(workers)`).
    pub tracer: Tracer,
    /// Live telemetry registry. Size an enabled hub for the run's worker
    /// count (`MetricsHub::enabled(workers)`).
    pub metrics: MetricsHub,
    /// Fault-injection plan consulted at every site of the run: task body,
    /// completion, feeder, predicted value, task output.
    pub faults: FaultInjector,
}

impl Default for Instruments {
    fn default() -> Self {
        Instruments {
            tracer: Tracer::disabled(),
            metrics: MetricsHub::disabled(),
            faults: FaultInjector::disabled(),
        }
    }
}

impl Instruments {
    /// Dark but for `tracer`.
    pub fn traced(tracer: Tracer) -> Self {
        Instruments {
            tracer,
            ..Self::default()
        }
    }

    /// Dark but for `metrics`.
    pub fn metered(metrics: MetricsHub) -> Self {
        Instruments {
            metrics,
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

    /// What an executor with `workers` lanes runs on: a caller's hub must
    /// be sized for those lanes (and is labelled with the policy); without
    /// one the executor still keeps its own counters, in a counters-only
    /// registry — the same cost as the per-lane atomics it replaced — so
    /// `RunMetrics` and live snapshots read the same cells.
    pub(crate) fn for_executor(&self, workers: usize, policy: DispatchPolicy) -> Self {
        assert!(workers > 0, "need at least one worker");
        let metrics = if self.metrics.has_registry() {
            assert_eq!(
                self.metrics.workers(),
                workers,
                "metrics hub must be sized for the executor's worker count"
            );
            self.metrics.clone()
        } else {
            MetricsHub::internal(workers)
        };
        if metrics.is_live() {
            metrics.set_label(&format!("{policy:?}"));
        }
        Instruments {
            metrics,
            ..self.clone()
        }
    }
}
