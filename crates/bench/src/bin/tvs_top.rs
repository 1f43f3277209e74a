//! `tvs-top` — live terminal dashboard for the TVS metrics plane.
//!
//! Two data sources, one renderer:
//!
//! * **Live** (default): a per-policy health table from deterministic
//!   metered sim runs, then a threaded Huffman run with the live metrics
//!   plane attached — a [`Sampler`] scrapes [`MetricsSnapshot`]s on a
//!   fixed tick and each one is drawn as a dashboard frame (counters,
//!   per-lane dispatch/steal rates, degradation level, check-latency
//!   quantiles, and a sparkline waste-ratio timeline).
//! * **Replay** (`--replay results/metrics_x.jsonl`): render recorded
//!   snapshot lines (as written by `--record`, the `socket_stream`
//!   example, or any [`MetricsSnapshot::to_json_line`] producer) without
//!   running anything.
//!
//! Flags:
//!
//! * `--replay <file>` — render a recorded JSONL file instead of running.
//! * `--record <file>` — while live, append every snapshot as JSONL.
//! * `--frames <n>`   — stop after `n` frames (CI smoke; `0` = no frames,
//!   just the startup table and final summary).
//! * `--tick-ms <ms>` — sampler tick for the live run (default 100).
//! * `--plain`        — no ANSI cursor control; print frames sequentially.
//!
//! Run with `cargo run --release -p tvs-bench --bin tvs-top`.

use std::io::Write as _;
use std::sync::mpsc;
use std::time::Duration;
use tvs_iosim::Uniform;
use tvs_metrics::{Counter, Gauge, Hist};
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::runner::{run_huffman, HuffmanRun};
use tvs_sre::{x86_smp, DispatchPolicy, MetricsSnapshot, Recorder, Sampler};
use tvs_workloads::FileKind;

const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
const WORKERS: usize = 4;
const SIM_WORKERS: usize = 8;
const BYTES: usize = 128 * 1024;

struct Options {
    replay: Option<String>,
    record: Option<String>,
    frames: Option<usize>,
    tick_ms: u64,
    plain: bool,
}

fn parse_args() -> Options {
    let mut o = Options {
        replay: None,
        record: None,
        frames: None,
        tick_ms: 100,
        plain: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match a.as_str() {
            "--replay" => o.replay = Some(val("--replay")),
            "--record" => o.record = Some(val("--record")),
            "--frames" => o.frames = Some(val("--frames").parse().expect("--frames: integer")),
            "--tick-ms" => o.tick_ms = val("--tick-ms").parse().expect("--tick-ms: integer"),
            "--plain" => o.plain = true,
            other => {
                eprintln!("unknown flag {other}");
                eprintln!("usage: tvs-top [--replay F] [--record F] [--frames N] [--tick-ms MS] [--plain]");
                std::process::exit(2);
            }
        }
    }
    o
}

/// One sparkline cell for `ratio` in [0, 1].
fn spark(ratio: f64) -> char {
    let i = (ratio.clamp(0.0, 1.0) * (SPARK.len() - 1) as f64).round() as usize;
    SPARK[i]
}

/// Render one dashboard frame for `snap`, with `timeline` the waste-ratio
/// series of every snapshot so far (most recent last).
fn render_frame(snap: &MetricsSnapshot, timeline: &[f64], plain: bool) -> String {
    let mut s = String::new();
    if !plain {
        // Home the cursor and clear to the end of the screen.
        s.push_str("\x1b[H\x1b[J");
    }
    let label = if snap.label.is_empty() {
        "(unlabelled)"
    } else {
        &snap.label
    };
    s.push_str(&format!(
        "tvs-top · {label} · tick {} · t={} µs · {} workers\n\n",
        snap.tick, snap.t_us, snap.workers
    ));
    let c = |c: Counter| snap.counter(c);
    s.push_str(&format!(
        "  tasks   delivered {:>8} (+{:<5})  discarded {:>6} (+{:<4})  deleted-ready {:>5}\n",
        c(Counter::TasksDelivered).total,
        c(Counter::TasksDelivered).delta,
        c(Counter::TasksDiscarded).total,
        c(Counter::TasksDiscarded).delta,
        c(Counter::DeletedReady).total,
    ));
    s.push_str(&format!(
        "  spec    predictions {:>6}  checks {:>5}✓ {:>4}✗  commits {:>4}  rollbacks {:>5} (+{})\n",
        c(Counter::Predictions).total,
        c(Counter::ChecksPassed).total,
        c(Counter::ChecksFailed).total,
        c(Counter::Commits).total,
        c(Counter::Rollbacks).total,
        c(Counter::Rollbacks).delta,
    ));
    s.push_str(&format!(
        "  faults  {:>4} task, {:>3} retries, {:>3} watchdog\n",
        c(Counter::Faults).total,
        c(Counter::Retries).total,
        c(Counter::WatchdogCancels).total,
    ));
    s.push_str(&format!(
        "  level   {:<9}  cascade max {:>3}  ring occupancy {:>4}  encode allocs {}\n",
        snap.degradation_name(),
        snap.gauge(Gauge::CascadeMax),
        snap.gauge(Gauge::RingOccupancy),
        snap.gauge(Gauge::AllocHeap),
    ));
    // Per-lane dispatch/steal rates (deltas this tick).
    s.push_str("  lanes   ");
    for (lane, (d, st)) in snap
        .lane_dispatch_delta
        .iter()
        .zip(&snap.lane_steal_delta)
        .enumerate()
    {
        s.push_str(&format!("L{lane}:{d}+{st}s "));
    }
    s.push('\n');
    let check = snap.hist(Hist::CheckLatencyUs);
    let block = snap.hist(Hist::BlockServiceUs);
    s.push_str(&format!(
        "  latency check p50≤{} p99≤{} µs (n={})  block p50≤{} p99≤{} µs (n={})\n",
        check.quantile(0.50),
        check.quantile(0.99),
        check.count,
        block.quantile(0.50),
        block.quantile(0.99),
        block.count,
    ));
    // Sparkline waste-ratio timeline: last 64 ticks.
    let tail = &timeline[timeline.len().saturating_sub(64)..];
    let line: String = tail.iter().map(|r| spark(*r)).collect();
    s.push_str(&format!(
        "  waste   {:>5.1}%  [{line}]\n",
        100.0 * snap.waste_ratio()
    ));
    s
}

/// Startup table: one deterministic metered sim run per dispatch policy,
/// summarised from its final virtual-time snapshot.
fn policy_table(data: &[u8]) {
    println!(
        "{:<13} {:>6} {:>8} {:>7} {:>9} {:>7} {:>9}",
        "policy", "preds", "checks", "commits", "rollbacks", "waste%", "makespan"
    );
    for policy in DispatchPolicy::ALL {
        let mut cfg = HuffmanConfig::disk_x86(policy);
        cfg.schedule = tvs_core::SpeculationSchedule::with_step(0);
        let hub = Recorder::enabled(SIM_WORKERS);
        hub.enable_virtual_sampling(5_000);
        let arrival = Uniform {
            gap_us: 2,
            start_us: 0,
        };
        let mut run = HuffmanRun::sim(data, &cfg, &x86_smp(SIM_WORKERS), &arrival);
        run.instruments.recorder = hub.clone();
        let report = run_huffman(&run).expect("nothing injected, nothing fails");
        let out = report.end.into_outcome();
        let snaps = hub.drain_virtual_snapshots();
        let last = snaps.last().cloned().or_else(|| hub.snapshot());
        let Some(s) = last else { continue };
        let c = |c: Counter| s.counter(c).total;
        let waste = {
            let busy = c(Counter::BusyUs);
            let wasted = c(Counter::WastedUs);
            if busy + wasted == 0 {
                0.0
            } else {
                100.0 * wasted as f64 / (busy + wasted) as f64
            }
        };
        println!(
            "{:<13} {:>6} {:>8} {:>7} {:>9} {:>7.1} {:>9}",
            policy.label(),
            c(Counter::Predictions),
            c(Counter::ChecksPassed) + c(Counter::ChecksFailed),
            c(Counter::Commits),
            c(Counter::Rollbacks),
            waste,
            out.metrics.makespan,
        );
    }
}

fn replay(path: &str, opts: &Options) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let mut timeline = Vec::new();
    let mut frames = 0usize;
    let mut last = None;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let Some(snap) = MetricsSnapshot::from_json_line(line) else {
            eprintln!("skipping unparseable line");
            continue;
        };
        timeline.push(snap.waste_ratio());
        if opts.frames.is_none_or(|n| frames < n) {
            print!("{}", render_frame(&snap, &timeline, opts.plain));
            frames += 1;
        }
        last = Some(snap);
    }
    match last {
        Some(snap) => summarise(&snap, timeline.len()),
        None => println!("no snapshots in {path}"),
    }
}

fn summarise(snap: &MetricsSnapshot, ticks: usize) {
    println!(
        "\n== final: {} ticks, {} delivered, {} commits, {} rollbacks, waste {:.1}%, level {} ==",
        ticks,
        snap.counter(Counter::TasksDelivered).total,
        snap.counter(Counter::Commits).total,
        snap.counter(Counter::Rollbacks).total,
        100.0 * snap.waste_ratio(),
        snap.degradation_name(),
    );
}

fn live(opts: &Options) {
    let data = {
        let mut d = tvs_workloads::generate(FileKind::Text, BYTES / 2, 2011);
        d.extend(tvs_workloads::generate(FileKind::Pdf, BYTES / 2, 2011));
        d
    };
    println!("== tvs-top: per-policy sim health (deterministic) ==");
    policy_table(&data);

    println!("\n== live: threaded huffman, {WORKERS} workers, aggressive ==");
    let mut cfg = HuffmanConfig::disk_x86(DispatchPolicy::Aggressive);
    cfg.schedule = tvs_core::SpeculationSchedule::with_step(0);
    let hub = Recorder::enabled(WORKERS);

    let (tx, rx) = mpsc::channel::<MetricsSnapshot>();
    let sampler = Sampler::spawn(
        hub.clone(),
        Duration::from_millis(opts.tick_ms.max(1)),
        move |snap| {
            let _ = tx.send(snap);
        },
    );

    let run_hub = hub.clone();
    let runner = std::thread::spawn(move || {
        // ~10 ms between blocks: the run spans a few hundred ms, so the
        // sampler gets several ticks to draw (a real stream, not a burst).
        let arrival = Uniform {
            gap_us: 10_000,
            start_us: 0,
        };
        let mut run = HuffmanRun::threaded(&data, &cfg, WORKERS, &arrival, 1);
        run.instruments.recorder = run_hub;
        let report = run_huffman(&run).expect("nothing injected, nothing fails");
        report.end.into_outcome()
    });

    let mut recorder = opts.record.as_ref().map(|p| {
        if let Some(dir) = std::path::Path::new(p).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::File::create(p).unwrap_or_else(|e| panic!("cannot create {p}: {e}"))
    });
    let mut timeline = Vec::new();
    let mut frames = 0usize;
    let mut ticks = 0usize;
    let mut last = None;
    // Drain snapshots until the run finishes and the sampler is stopped.
    let mut done = false;
    while !done {
        if runner.is_finished() {
            done = true; // one final drain below after stop()
        }
        while let Ok(snap) = rx.try_recv() {
            ticks += 1;
            timeline.push(snap.waste_ratio());
            if let Some(f) = recorder.as_mut() {
                writeln!(f, "{}", snap.to_json_line()).expect("write jsonl");
            }
            if opts.frames.is_none_or(|n| frames < n) {
                print!("{}", render_frame(&snap, &timeline, opts.plain));
                frames += 1;
            }
            last = Some(snap);
        }
        if !done {
            std::thread::sleep(Duration::from_millis(opts.tick_ms.max(1) / 2 + 1));
        }
    }
    let out = runner.join().expect("runner thread");
    sampler.stop(); // takes the final snapshot through the sink
    while let Ok(snap) = rx.try_recv() {
        ticks += 1;
        timeline.push(snap.waste_ratio());
        if let Some(f) = recorder.as_mut() {
            writeln!(f, "{}", snap.to_json_line()).expect("write jsonl");
        }
        last = Some(snap);
    }
    match last {
        Some(snap) => summarise(&snap, ticks),
        None => println!("run finished before the first sampler tick"),
    }
    println!(
        "run: makespan {} µs, {} blocks, {} rollbacks",
        out.metrics.makespan,
        out.result.blocks.len(),
        out.metrics.rollbacks
    );
    if let Some(p) = &opts.record {
        println!("recorded -> {p}");
    }
}

fn main() {
    let opts = parse_args();
    match &opts.replay {
        Some(path) => replay(path, &opts),
        None => live(&opts),
    }
}
