//! Live-metrics-plane invariants across the executors.
//!
//! * Concurrent incrementers racing a snapshotting sampler never lose or
//!   double-count: the sum of all per-snapshot deltas plus the residual
//!   equals exactly what the incrementers wrote.
//! * The deterministic simulator's virtual-time snapshots are
//!   byte-deterministic: the same seed yields an identical JSONL stream.
//! * RunMetrics is a view of the registry (no double counting): the
//!   threaded executor's per-lane dispatch counts come from the hub.
//! * Snapshot JSONL round-trips losslessly, and the Prometheus exposition
//!   carries the totals.

use std::time::Duration;
use tvs_iosim::Uniform;
use tvs_metrics::{Counter, Gauge, Hist};
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::runner::{run_huffman, HuffmanRun, RunOutcome};
use tvs_sre::{x86_smp, DispatchPolicy, MetricsSnapshot, Recorder, Sampler};
use tvs_workloads::FileKind;

fn data() -> Vec<u8> {
    let mut d = tvs_workloads::generate(FileKind::Text, 32 * 1024, 7);
    d.extend(tvs_workloads::generate(FileKind::Pdf, 32 * 1024, 7));
    d
}

fn cfg(policy: DispatchPolicy) -> HuffmanConfig {
    let mut c = HuffmanConfig::disk_x86(policy);
    c.schedule = tvs_core::SpeculationSchedule::with_step(0);
    c
}

const ARRIVAL: Uniform = Uniform {
    gap_us: 2,
    start_us: 0,
};

/// `run` feeding `hub` (disabled: dark).
fn metered(mut run: HuffmanRun, hub: &Recorder) -> RunOutcome {
    run.instruments.recorder = hub.clone();
    let report = run_huffman(&run).expect("nothing injected, nothing fails");
    report.end.into_outcome()
}

/// On the simulator's 8 x86 workers.
fn sim_metered(d: &[u8], c: &HuffmanConfig, hub: &Recorder) -> RunOutcome {
    metered(HuffmanRun::sim(d, c, &x86_smp(8), &ARRIVAL), hub)
}

/// On 4 real threads, arrivals compressed 1000×.
fn threaded_metered(d: &[u8], c: &HuffmanConfig, hub: &Recorder) -> RunOutcome {
    metered(HuffmanRun::threaded(d, c, 4, &ARRIVAL, 1000), hub)
}

#[test]
fn concurrent_incrementers_race_sampler_without_loss() {
    // 4 writer threads hammer their shards while a 1 ms sampler snapshots
    // concurrently. Afterwards: sum(deltas over all snapshots) + residual
    // delta == total written. Any lost or double-counted increment breaks
    // the equality.
    const WRITERS: usize = 4;
    const PER_WRITER: u64 = 200_000;
    let hub = Recorder::enabled(WRITERS);
    let mut seen_deltas: Vec<u64> = Vec::new();
    let (tx, rx) = std::sync::mpsc::channel::<MetricsSnapshot>();
    let sampler = Sampler::spawn(hub.clone(), Duration::from_millis(1), move |snap| {
        tx.send(snap).expect("test alive");
    });
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let hub = hub.clone();
            std::thread::spawn(move || {
                for i in 0..PER_WRITER {
                    hub.add(w, Counter::TasksDelivered, 1);
                    if i % 64 == 0 {
                        hub.record(Hist::BlockServiceUs, i % 1000);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("writer");
    }
    sampler.stop(); // takes one final snapshot through the sink
    while let Ok(snap) = rx.try_recv() {
        seen_deltas.push(snap.counter(Counter::TasksDelivered).delta);
    }
    let expected = WRITERS as u64 * PER_WRITER;
    let from_deltas: u64 = seen_deltas.iter().sum();
    assert_eq!(
        from_deltas,
        expected,
        "snapshot deltas must partition the counter stream exactly \
         ({} snapshots)",
        seen_deltas.len()
    );
    assert_eq!(hub.counter_total(Counter::TasksDelivered), expected);
    let final_snap = hub.snapshot().expect("live hub");
    assert_eq!(final_snap.counter(Counter::TasksDelivered).delta, 0);
    assert_eq!(final_snap.counter(Counter::TasksDelivered).total, expected);
}

#[test]
fn sim_virtual_snapshots_are_byte_deterministic() {
    // The same input, config and virtual sampling tick must serialise to
    // an identical JSONL byte stream on every run — snapshots are stamped
    // by the virtual clock, not the wall clock.
    let d = data();
    let run = || -> String {
        let hub = Recorder::enabled(8);
        hub.enable_virtual_sampling(1_000);
        let _ = sim_metered(&d, &cfg(DispatchPolicy::Aggressive), &hub);
        hub.drain_virtual_snapshots()
            .iter()
            .map(|s| s.to_json_line())
            .collect::<Vec<_>>()
            .join("\n")
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty(), "virtual sampling produced snapshots");
    assert_eq!(a, b, "same seed must give identical JSONL bytes");
    // And the stream actually observed the speculation lifecycle.
    let last = MetricsSnapshot::from_json_line(a.lines().last().expect("non-empty"))
        .expect("last line parses");
    assert!(last.counter(Counter::Predictions).total > 0);
    assert!(last.counter(Counter::TasksDelivered).total > 0);
    assert!(
        last.counter(Counter::Commits).total + last.counter(Counter::Rollbacks).total > 0,
        "every speculative run ends in a commit or rollback"
    );
}

#[test]
fn sim_metering_does_not_perturb_results() {
    let d = data();
    for policy in DispatchPolicy::ALL {
        let c = cfg(policy);
        let plain = sim_metered(&d, &c, &Recorder::disabled());
        let hub = Recorder::enabled(8);
        hub.enable_virtual_sampling(1_000);
        let metered = sim_metered(&d, &c, &hub);
        assert_eq!(plain.metrics, metered.metrics, "{}", policy.label());
        assert_eq!(plain.latencies(), metered.latencies(), "{}", policy.label());
    }
}

#[test]
fn threaded_run_metrics_is_a_registry_view() {
    // Satellite 3: lane dispatches/steals live in the hub only; RunMetrics
    // reads them back, so the two can never diverge.
    let d = data();
    let hub = Recorder::enabled(4);
    let out = threaded_metered(&d, &cfg(DispatchPolicy::Aggressive), &hub);
    assert_eq!(
        out.metrics.lane_dispatches,
        hub.lane_counts(Counter::LaneDispatch),
        "RunMetrics lane dispatches are the hub's cells"
    );
    assert_eq!(out.metrics.steals, hub.counter_total(Counter::Steal));
    assert_eq!(
        out.metrics.tasks_delivered,
        hub.counter_total(Counter::TasksDelivered)
    );
    assert_eq!(out.metrics.rollbacks, hub.counter_total(Counter::Rollbacks));
    // Manager counters flowed into the same registry.
    let stats = out.result.spec_stats.expect("speculative run");
    assert_eq!(stats.predictions, hub.counter_total(Counter::Predictions));
    assert_eq!(
        stats.checks_failed,
        hub.counter_total(Counter::ChecksFailed)
    );
    // The workload published its encode-buffer gauge.
    let a = out.result.alloc_stats;
    assert_eq!(hub.gauge_get(Gauge::AllocHeap), a.heap_allocs);
}

#[test]
fn profiler_clocks_and_lineage_gauges_populate() {
    // Flight recorder: the worker time-accounting clocks and the
    // manager's lineage gauges feed the same registry on both executors.
    // Body time is charged to exactly one of the run/check clocks, so
    // together they must equal the busy total the executors already
    // report — a cheap conservation invariant over the new counters.
    let d = data();
    let hub = Recorder::enabled(4);
    let _ = threaded_metered(&d, &cfg(DispatchPolicy::Aggressive), &hub);
    assert!(hub.counter_total(Counter::TimeRunUs) > 0, "run clock ticks");
    assert_eq!(
        hub.counter_total(Counter::TimeRunUs) + hub.counter_total(Counter::TimeCheckUs),
        hub.counter_total(Counter::BusyUs),
        "threaded: body time lands in exactly one state clock"
    );

    let hub2 = Recorder::enabled(8);
    let _ = sim_metered(&d, &cfg(DispatchPolicy::Aggressive), &hub2);
    assert_eq!(
        hub2.counter_total(Counter::TimeRunUs) + hub2.counter_total(Counter::TimeCheckUs),
        hub2.counter_total(Counter::BusyUs),
        "sim: body time lands in exactly one state clock"
    );
    assert!(
        hub2.gauge_get(Gauge::LineageRoots) > 0,
        "a speculative run opens at least one lineage root"
    );
}

#[test]
fn snapshot_jsonl_round_trips_and_prometheus_exposes_totals() {
    let d = data();
    let hub = Recorder::enabled(8);
    hub.enable_virtual_sampling(1_000);
    let _ = sim_metered(&d, &cfg(DispatchPolicy::Balanced), &hub);
    let snaps = hub.drain_virtual_snapshots();
    assert!(!snaps.is_empty());
    for s in &snaps {
        let line = s.to_json_line();
        let back = MetricsSnapshot::from_json_line(&line).expect("parses");
        assert_eq!(back.to_json_line(), line, "lossless round-trip");
    }
    let last = snaps.last().expect("non-empty");
    let prom = last.to_prometheus();
    assert!(prom.contains(&format!(
        "tvs_tasks_delivered_total {}",
        last.counter(Counter::TasksDelivered).total
    )));
    assert!(prom.contains("tvs_lane_dispatch_total{lane=\"0\"}"));
    assert!(prom.contains("tvs_waste_ratio"));
    assert!(prom.contains("tvs_block_service_us_bucket"));
}
