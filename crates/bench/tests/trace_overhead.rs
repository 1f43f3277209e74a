//! Tracing-overhead guard: with ~100 µs task bodies — the coarse-grain
//! regime the paper targets and the event rings are budgeted for — a
//! threaded run with the recorder enabled (event rings, counters, gauges
//! and histograms) must stay close to a dark run of the same workload.
//!
//! The lenient default (always on) only guards against a pathological
//! regression (2× floor — e.g. a lock added to the disabled path), since
//! shared CI boxes are too noisy for a tight bound with other tests
//! running. Under `TVS_TRACE_STRICT=1` — the CI observability job, which
//! times the two runs back to back on a single test thread — the bound is
//! the design budget: tracing-enabled within 5 % of disabled.

use std::time::{Duration, Instant};
use tvs_bench::microbench::blocks_at_once;
use tvs_sre::exec::threaded::{self, ThreadedConfig};
use tvs_sre::task::{payload, TaskSpec};
use tvs_sre::workload::{Completion, InputBlock, SchedCtx, Workload};
use tvs_sre::{DispatchPolicy, Instruments, Recorder};

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

/// Median seconds over `reps` runs of `n` 100 µs tasks on 4 workers,
/// with tracing on or off. Draining happens outside the timed region —
/// the budget covers emission, not post-run export.
fn median_secs(n: usize, traced: bool, reps: usize) -> f64 {
    const SPIN: Duration = Duration::from_micros(100);
    let cfg = ThreadedConfig::new(4);
    let mut secs: Vec<f64> = (0..reps)
        .map(|_| {
            let (input, inputs) = blocks_at_once(n, 16);
            let rec = if traced {
                Recorder::enabled(cfg.workers)
            } else {
                Recorder::disabled()
            };
            let wl = PerBlock {
                n,
                seen: 0,
                spin: SPIN,
            };
            let t = Instant::now();
            let ins = Instruments::recorded(rec.clone());
            let (w, _) = threaded::run(
                wl,
                &cfg,
                DispatchPolicy::NonSpeculative,
                &input,
                inputs,
                &ins,
            )
            .expect("nothing injected, nothing fails");
            let el = t.elapsed().as_secs_f64();
            if let Some(log) = rec.drain() {
                assert_eq!(log.count("task-end"), n, "every task left a span");
            }
            assert_eq!(w.seen, n);
            el
        })
        .collect();
    secs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    secs[secs.len() / 2]
}

#[test]
fn tracing_overhead_stays_within_budget() {
    const N: usize = 256;
    const REPS: usize = 7;
    // Warm up both paths (thread spawn, allocator) before measuring.
    median_secs(N, false, 1);
    median_secs(N, true, 1);

    let off = median_secs(N, false, REPS);
    let on = median_secs(N, true, REPS);
    let ratio = on / off;
    println!(
        "tracing overhead on 100us bodies: off={:.3} ms, on={:.3} ms, ratio={ratio:.3}x",
        off * 1e3,
        on * 1e3
    );
    let strict = std::env::var("TVS_TRACE_STRICT").as_deref() == Ok("1");
    let ceiling = if strict { 1.05 } else { 2.0 };
    assert!(
        ratio <= ceiling,
        "tracing-enabled run {ratio:.3}x slower than disabled \
         (ceiling {ceiling}x, strict={strict})"
    );
}
