//! Metrics-overhead guard: with ~100 µs task bodies — the coarse-grain
//! regime the paper targets — a threaded run with the live metrics plane
//! enabled (sharded registry, gauges, histograms, plus a 10 ms sampler
//! thread scraping snapshots) must stay close to a run with metrics
//! disabled.
//!
//! The lenient default (always on) only guards against a pathological
//! regression (2× floor — e.g. a lock added to the counter path), since
//! shared CI boxes are too noisy for a tight bound with other tests
//! running. Under `TVS_METRICS_STRICT=1` — the CI metrics job, which
//! times the two runs back to back on a single test thread — the bound is
//! the design budget: metrics-enabled within 3 % of disabled.

use std::time::{Duration, Instant};
use tvs_bench::microbench::blocks_at_once;
use tvs_sre::exec::threaded::{self, ThreadedConfig};
use tvs_sre::task::{payload, TaskSpec};
use tvs_sre::workload::{Completion, InputBlock, SchedCtx, Workload};
use tvs_sre::{DispatchPolicy, Instruments, MetricsHub, Sampler};

struct PerBlock {
    n: usize,
    seen: usize,
    spin: Duration,
}

impl Workload for PerBlock {
    fn on_input(&mut self, ctx: &mut dyn SchedCtx, b: InputBlock) {
        let spin = self.spin;
        ctx.spawn(TaskSpec::regular(
            "w",
            0,
            b.bytes.len(),
            b.index as u64,
            move |_| {
                let t = Instant::now();
                while t.elapsed() < spin {
                    std::hint::spin_loop();
                }
                payload(())
            },
        ));
    }
    fn on_complete(&mut self, _: &mut dyn SchedCtx, _: Completion) {
        self.seen += 1;
    }
    fn is_finished(&self) -> bool {
        self.seen == self.n
    }
}

/// Median seconds over `reps` runs of `n` 100 µs tasks on 4 workers, with
/// the metrics plane live (registry + sampler thread) or disabled. The
/// sampler's stop (final snapshot + join) happens outside the timed
/// region — the budget covers in-run emission, not post-run scraping.
fn median_secs(n: usize, metered: bool, reps: usize) -> f64 {
    const SPIN: Duration = Duration::from_micros(100);
    let cfg = ThreadedConfig::new(4);
    let mut secs: Vec<f64> = (0..reps)
        .map(|_| {
            let (input, inputs) = blocks_at_once(n, 16);
            let hub = if metered {
                MetricsHub::enabled(cfg.workers)
            } else {
                MetricsHub::disabled()
            };
            let sampler = if metered {
                Some(Sampler::spawn(
                    hub.clone(),
                    Duration::from_millis(10),
                    |_snap| {},
                ))
            } else {
                None
            };
            let wl = PerBlock {
                n,
                seen: 0,
                spin: SPIN,
            };
            let t = Instant::now();
            let ins = Instruments::metered(hub.clone());
            let (w, metrics) = threaded::run(
                wl,
                &cfg,
                DispatchPolicy::NonSpeculative,
                &input,
                inputs,
                &ins,
            )
            .expect("nothing injected, nothing fails");
            let el = t.elapsed().as_secs_f64();
            if let Some(s) = sampler {
                s.stop();
                let snap = hub.snapshot().expect("live hub snapshots");
                assert_eq!(
                    snap.lane_dispatch.iter().sum::<u64>(),
                    metrics.lane_dispatches.iter().sum::<u64>(),
                    "hub and RunMetrics agree on dispatches"
                );
            }
            assert_eq!(w.seen, n);
            el
        })
        .collect();
    secs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    secs[secs.len() / 2]
}

#[test]
fn metrics_overhead_stays_within_budget() {
    const N: usize = 256;
    const REPS: usize = 7;
    // Warm up both paths (thread spawn, allocator) before measuring.
    median_secs(N, false, 1);
    median_secs(N, true, 1);

    let off = median_secs(N, false, REPS);
    let on = median_secs(N, true, REPS);
    let ratio = on / off;
    println!(
        "metrics overhead on 100us bodies: off={:.3} ms, on={:.3} ms, ratio={ratio:.3}x",
        off * 1e3,
        on * 1e3
    );
    let strict = std::env::var("TVS_METRICS_STRICT").as_deref() == Ok("1");
    let ceiling = if strict { 1.03 } else { 2.0 };
    assert!(
        ratio <= ceiling,
        "metrics-enabled run {ratio:.3}x slower than disabled \
         (ceiling {ceiling}x, strict={strict})"
    );
}
