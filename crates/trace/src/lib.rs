//! The speculation-lifecycle vocabulary of the TVS runtime and the
//! analyses of a recorded run.
//!
//! The paper's whole argument is about *where time goes* under tolerant
//! value speculation — wasted work, rollback cascades, check latency,
//! dispatch-policy effects — so the runtime records the full lifecycle as
//! typed events ([`EventKind`]): task dispatch / steal / park–unpark,
//! predictor fire, speculative version open and its lineage, check pass or
//! fail with the measured tolerance margin, commit, rollback with cascade
//! depth, faults, replica votes and degradation steps.
//!
//! This crate holds that vocabulary and what is computed from a drained
//! [`TraceLog`]; it records nothing itself. The one recorder that writes
//! events — and charges the counters, gauges and histograms each event
//! implies — is `tvs_metrics::Recorder`, which sits one crate up so that
//! its snapshots live next to it.
//!
//! Events carry both a wall-clock stamp and a virtual stamp (µs of
//! simulated time); [`TraceLog::timebase`] says which clock the run used.
//!
//! Exporters: [`TraceLog::to_perfetto_json`] (Chrome `trace_event` JSON —
//! one track per worker, async spans per speculative version; load it at
//! `ui.perfetto.dev` or `chrome://tracing`), [`TraceLog::to_event_csv`]
//! (flat event dump), [`TraceLog::health`] (derived speculation-health
//! aggregates: wasted-work timeline, rollback-cascade histogram, check
//! latency percentiles) and [`LineageTable::from_log`] (cost per
//! speculation line).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod event;
pub mod health;
pub mod lineage;
pub mod perfetto;

pub use event::{ClassTag, EventKind, StepCause, TaskSpan, Timebase, TraceEvent, TraceLog};
pub use health::{LatencyStats, SpecHealth, WasteBucket};
pub use lineage::{LineageCost, LineageId, LineageTable, VersionCost};
