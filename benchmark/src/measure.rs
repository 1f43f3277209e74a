//! One workload, measured: set-up, then either the measured phase
//! (`--trace 0`: tracer, hub and span recorder off, end-to-end metrics) or
//! the traced phase (`--trace 1`: the program's event log and metrics hub
//! read through their public API, the kernels replayed, every call
//! spanned; per-layer metrics).
//!
//! Load comes from this one thread. Within a compress the program's feeder
//! is an open loop (blocks are due on the arrival schedule whatever the
//! progress, and latency is timed from the due time); across compresses
//! the harness is a closed loop with one client.

use crate::spans::{self, Recorder};
use crate::stats::{median, percentile_sorted, Summary};
use crate::sut::{
    self, Clocks, Counters, EventFacts, Input, Kind, Output, Policy, RunFacts, RunSpec, SpecFacts,
    Variant, KERNELS, TASK_KINDS,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

pub struct WorkloadDef {
    pub name: &'static str,
    pub kind: Kind,
    pub input: Input,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "txt_mem",
        kind: Kind::Text,
        input: Input::Memory,
    },
    WorkloadDef {
        name: "pdf_mem",
        kind: Kind::Pdf,
        input: Input::Memory,
    },
    WorkloadDef {
        name: "txt_socket",
        kind: Kind::Text,
        input: Input::Socket,
    },
    WorkloadDef {
        name: "pdf_socket",
        kind: Kind::Pdf,
        input: Input::Socket,
    },
];

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One round per phase, one set-up: a smoke run, not a measurement.
    pub quick: bool,
}

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub summary: Summary,
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Set-up is repeated so that `setup_s` is a median, not one cold sample.
const SETUP_REPS: usize = 3;
/// Rounds run before measuring; excluded from every metric but `setup_s`.
const WARMUP_ROUNDS: usize = 5;
/// Share of a traced run's `--seconds` spent on pipeline variants; the
/// rest goes to the kernel replay.
const TRACED_PIPELINE_SHARE: f64 = 0.6;
/// Verified outputs remembered for byte comparison (see [`Verifier`]).
const VERIFIED_KEPT: usize = 4;
const MIB: f64 = (1u64 << 20) as f64;

/// Counts every run attempted and checks every output, outside the timed
/// region. A run fails if it panics, breaks the size contract or does not
/// decode to the input; a failure is counted, not fatal.
///
/// Decoding 4 MB takes several compresses' worth of time, and a pipeline
/// fed the same bytes commits the same few trees again and again, so an
/// output byte-identical to one already decoded is accepted on the
/// comparison alone.
struct Verifier<'a> {
    data: &'a [u8],
    reference: &'a Output,
    verified: Vec<Output>,
    attempted: u64,
    failed: u64,
}

impl<'a> Verifier<'a> {
    fn new(data: &'a [u8], reference: &'a Output) -> Self {
        Verifier {
            data,
            reference,
            verified: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn output_ok(&mut self, rec: &Recorder, policy: Policy, facts: &RunFacts) -> bool {
        let out = &facts.output;
        if facts.compressed_bits != out.bits() || facts.encoded_us.len() != facts.due_us.len() {
            return false;
        }
        match policy {
            // Non-speculative output is the serial codec's, bit for bit
            // (and the reference itself was decoded during set-up).
            Policy::NonSpeculative => out == self.reference,
            Policy::Balanced => {
                let limit = self.reference.bits() as f64 * (1.0 + sut::TOLERANCE);
                if out.bits() as f64 > limit {
                    return false;
                }
                if out == self.reference || self.verified.contains(out) {
                    return true;
                }
                if !sut::decodes_to(rec, out, self.data) {
                    return false;
                }
                if self.verified.len() == VERIFIED_KEPT {
                    self.verified.remove(0);
                }
                self.verified.push(out.clone());
                true
            }
        }
    }

    /// One compress: timed inside `sut::compress`, verified here.
    fn compress(&mut self, rec: &Recorder, spec: &RunSpec) -> Option<RunStats> {
        self.attempted += 1;
        let run = catch_unwind(AssertUnwindSafe(|| sut::compress(rec, self.data, spec)));
        let ok = match &run {
            Ok(facts) => rec.span("bench.verify", || self.output_ok(rec, spec.policy, facts)),
            Err(_) => false,
        };
        if !ok {
            self.failed += 1;
            eprintln!("FAILED run: {spec:?}");
            return None;
        }
        run.ok().map(RunStats::of)
    }

    /// One serial encode; its wall time in ms.
    fn serial(&mut self, rec: &Recorder) -> Option<f64> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(|| sut::serial(rec, self.data))) {
            Ok((out, wall_ns)) if &out == self.reference => Some(wall_ns as f64 / 1e6),
            _ => {
                self.failed += 1;
                eprintln!("FAILED run: serial");
                None
            }
        }
    }
}

/// Per-run numbers kept after the output and per-block vectors are gone.
struct RunStats {
    wall_ms: f64,
    cpu_ms: f64,
    lat_mean_us: f64,
    lat_p50_us: f64,
    lat_p99_us: f64,
    lag_mean_us: f64,
    lag_max_us: f64,
    last_due_us: f64,
    first_output_us: f64,
    compression_ratio: f64,
    blocks: f64,
    counters: Counters,
    spec: Option<SpecFacts>,
    events: Option<EventFacts>,
    clocks: Option<Clocks>,
}

impl RunStats {
    fn of(f: RunFacts) -> RunStats {
        // Latency runs from the time a block was *due*, not from the
        // feeder's own stamp, so a stalled feeder cannot hide; how late
        // the feeder ran is reported separately.
        let mut lat: Vec<u64> = (f.encoded_us.iter().zip(&f.due_us))
            .map(|(done, due)| done.saturating_sub(*due))
            .collect();
        lat.sort_unstable();
        let lag: Vec<u64> = (f.fed_us.iter().zip(&f.due_us))
            .map(|(fed, due)| fed.saturating_sub(*due))
            .collect();
        let n = lat.len() as f64;
        RunStats {
            wall_ms: f.wall_ns as f64 / 1e6,
            cpu_ms: f.cpu_ns as f64 / 1e6,
            lat_mean_us: lat.iter().sum::<u64>() as f64 / n,
            lat_p50_us: percentile_sorted(&lat, 50.0) as f64,
            lat_p99_us: percentile_sorted(&lat, 99.0) as f64,
            lag_mean_us: lag.iter().sum::<u64>() as f64 / n,
            lag_max_us: lag.iter().copied().max().unwrap_or(0) as f64,
            last_due_us: f.due_us.iter().copied().max().unwrap_or(0) as f64,
            first_output_us: f.encoded_us.iter().copied().min().unwrap_or(0) as f64,
            compression_ratio: f.src_bytes as f64 * 8.0 / f.compressed_bits as f64,
            blocks: n,
            counters: f.counters,
            spec: f.spec,
            events: f.events,
            clocks: f.clocks,
        }
    }

    /// Every task body that ran, delivered or not.
    fn tasks_run(&self) -> f64 {
        (self.counters.tasks_delivered + self.counters.tasks_discarded) as f64
    }
}

fn col(runs: &[RunStats], f: impl Fn(&RunStats) -> f64) -> Vec<f64> {
    runs.iter().map(f).collect()
}

fn median_of(runs: &[RunStats], f: impl Fn(&RunStats) -> f64) -> f64 {
    median(&col(runs, f)).expect("at least one run of every kind succeeded")
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn push(&mut self, name: impl Into<String>, unit: &'static str, values: &[f64]) {
        let name = name.into();
        let summary =
            Summary::of(values).unwrap_or_else(|| panic!("no successful sample for {name}"));
        assert!(
            summary.median.is_finite(),
            "{name} is not a number: {values:?}"
        );
        self.0.push(Metric {
            name,
            unit,
            summary,
        });
    }
}

struct Setup {
    data: Vec<u8>,
    reference: Output,
    generate_mb_s: f64,
    attempted: u64,
    failed: u64,
}

fn spec<'a>(wl: &WorkloadDef, policy: Policy, variant: Variant<'a>) -> RunSpec<'a> {
    RunSpec {
        input: wl.input,
        policy,
        variant,
        paced: true,
    }
}

/// Generate the input, take the serial reference (and decode it once),
/// run the warm-up rounds. Warm-up feeds every block at t = 0 on every
/// workload: it is there to fault in pages and fill allocator pools, and
/// pacing would only add sleep.
fn set_up(rec: &Recorder, wl: &WorkloadDef, seed: u64, warmup_rounds: usize) -> Setup {
    rec.span("bench.setup", || {
        let (data, generate_mb_s) = sut::generate(rec, wl.kind, seed);
        let (reference, _) = sut::serial(rec, &data);
        assert!(
            sut::decodes_to(rec, &reference, &data),
            "the serial reference must round-trip before anything is compared to it"
        );
        let mut v = Verifier::new(&data, &reference);
        for _ in 0..warmup_rounds {
            v.serial(rec);
            for policy in [Policy::NonSpeculative, Policy::Balanced] {
                v.compress(
                    rec,
                    &RunSpec {
                        paced: false,
                        ..spec(wl, policy, Variant::Plain)
                    },
                );
            }
        }
        let (attempted, failed) = (v.attempted, v.failed);
        drop(v);
        Setup {
            data,
            reference,
            generate_mb_s,
            attempted,
            failed,
        }
    })
}

/// Run one workload and return its metrics: end-to-end without `trace`,
/// per-layer with it.
pub fn run_workload(wl: &WorkloadDef, opt: &Options, out_dir: &Path) -> Report {
    let rec = Recorder::new(opt.trace);
    let report = rec.span("bench.workload", || run_phases(&rec, wl, opt, out_dir));
    if opt.trace {
        let all = rec.into_spans();
        let path = out_dir.join(format!("{}.spans.jsonl", wl.name));
        spans::write_jsonl(&path, &all).expect("the spans file is writable");
        print_span_table(&all, &path);
    }
    report
}

fn run_phases(rec: &Recorder, wl: &WorkloadDef, opt: &Options, out_dir: &Path) -> Report {
    let (setup_reps, warmup_rounds) = if opt.quick {
        (1, 1)
    } else {
        (SETUP_REPS, WARMUP_ROUNDS)
    };
    // One set-up's input is alive at a time: peak RSS is the workload's.
    let (mut setup_s, mut generate_mb_s) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut last = None;
    for _ in 0..setup_reps {
        drop(last.take());
        let t = Instant::now();
        let setup = set_up(rec, wl, opt.seed, warmup_rounds);
        setup_s.push(t.elapsed().as_secs_f64());
        generate_mb_s.push(setup.generate_mb_s);
        attempted += setup.attempted;
        failed += setup.failed;
        last = Some(setup);
    }
    let setup = last.expect("set-up ran at least once");

    let mut v = Verifier::new(&setup.data, &setup.reference);
    let mut m = Metrics::default();
    let budget = Duration::from_secs_f64(opt.seconds);
    if opt.trace {
        let ckpt_dir = out_dir.join(format!("ckpt-{}", wl.name));
        let traced = traced_phase(rec, wl, &mut v, budget, opt.quick, &ckpt_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        let mib = setup.data.len() as f64 / MIB;
        per_layer_metrics(&mut m, &traced, mib);
        m.push("workloads.generate_mb_s", "MiB/s", &generate_mb_s);
        let (entropy, tv) = sut::input_shape(rec, &setup.data);
        m.push("workloads.entropy_bits_per_byte", "bits/byte", &[entropy]);
        m.push("workloads.prefix_tv_distance", "ratio", &[tv]);
        attempted += traced.fixed_attempted;
        failed += traced.fixed_failed;
    } else {
        let measured = measured_phase(rec, wl, &mut v, budget, opt.quick);
        end_to_end_metrics(&mut m, &measured, setup.data.len() as f64 / MIB);
        m.push("setup_s", "s", &setup_s);
        // Read last, so it covers the whole workload.
        m.push("peak_rss_mb", "MiB", &[crate::os::peak_rss_mib()]);
    }
    Report {
        attempted: attempted + v.attempted,
        failed: failed + v.failed,
        metrics: m.0,
    }
}

/// Serial encodes per round on the socket workloads: a round there lasts a
/// second, and one 13 ms sample of it would leave `speedup_vs_serial` with
/// 19 noisy samples of its numerator.
const SOCKET_SERIAL_REPS: usize = 5;

#[derive(Default)]
struct Measured {
    balanced: Vec<RunStats>,
    /// Per round: serial wall ÷ `Balanced` wall, and `NonSpeculative` mean
    /// block latency ÷ `Balanced` mean block latency. The two sides of a
    /// ratio ran within the same round, so the slow drift of a shared box
    /// cancels instead of landing on one side only.
    speedup_vs_serial: Vec<f64>,
    latency_speedup_vs_nonspec: Vec<f64>,
    serial_runs: usize,
    nonspec_runs: usize,
}

/// Interleaved rounds of {serial, `NonSpeculative`, `Balanced`}, the order
/// rotating by one each round, until `budget` is spent. A socket
/// `NonSpeculative` run tells nothing a few of them do not (its latency is
/// the arrival schedule), so there it runs every third round only, the
/// rounds between reuse its latest sample, and the time goes to `Balanced`
/// samples.
fn measured_phase(
    rec: &Recorder,
    wl: &WorkloadDef,
    v: &mut Verifier,
    budget: Duration,
    quick: bool,
) -> Measured {
    let mut out = Measured::default();
    let serial_reps = match wl.input {
        Input::Memory => 1,
        Input::Socket => SOCKET_SERIAL_REPS,
    };
    let mut nonspec_latency = None;
    let start = Instant::now();
    for round in 0u64.. {
        rec.set_iter(round);
        let (mut serial_ms, mut balanced) = (Vec::new(), None);
        rec.span("bench.round", || {
            for step in 0..3 {
                match (round + step) % 3 {
                    0 => serial_ms.extend((0..serial_reps).filter_map(|_| v.serial(rec))),
                    1 if wl.input == Input::Memory || round % 3 == 0 => {
                        let run =
                            v.compress(rec, &spec(wl, Policy::NonSpeculative, Variant::Plain));
                        nonspec_latency = run.map(|r| r.lat_mean_us).or(nonspec_latency);
                        out.nonspec_runs += 1;
                    }
                    1 => {}
                    _ => balanced = v.compress(rec, &spec(wl, Policy::Balanced, Variant::Plain)),
                }
            }
        });
        out.serial_runs += serial_ms.len();
        if let Some(b) = balanced {
            out.speedup_vs_serial
                .extend(median(&serial_ms).map(|s| s / b.wall_ms));
            out.latency_speedup_vs_nonspec
                .extend(nonspec_latency.map(|n| n / b.lat_mean_us));
            out.balanced.push(b);
        }
        if quick || start.elapsed() >= budget {
            break;
        }
    }
    out
}

fn end_to_end_metrics(m: &mut Metrics, r: &Measured, mib: f64) {
    let b = &r.balanced;
    m.push(
        "throughput_mb_s",
        "MiB/s",
        &col(b, |x| mib / (x.wall_ms / 1e3)),
    );
    m.push("block_latency_mean_us", "us", &col(b, |x| x.lat_mean_us));
    m.push("block_latency_p99_us", "us", &col(b, |x| x.lat_p99_us));
    m.push(
        "latency_speedup_vs_nonspec",
        "ratio",
        &r.latency_speedup_vs_nonspec,
    );
    m.push("speedup_vs_serial", "ratio", &r.speedup_vs_serial);
    m.push("cpu_ms_per_mb", "ms/MiB", &col(b, |x| x.cpu_ms / mib));
    m.push(
        "compression_ratio",
        "ratio",
        &col(b, |x| x.compression_ratio),
    );
    eprintln!(
        "runs: {} serial, {} nonspec, {} balanced",
        r.serial_runs,
        r.nonspec_runs,
        b.len()
    );
}

#[derive(Default)]
struct Traced {
    nonspec: Vec<RunStats>,
    plain: Vec<RunStats>,
    events: Vec<RunStats>,
    metered: Vec<RunStats>,
    checkpointed: Vec<RunStats>,
    replicated: Vec<RunStats>,
    /// One-block compresses, µs: what a run costs before any work.
    fixed_run_us: Vec<f64>,
    fixed_attempted: u64,
    fixed_failed: u64,
    workload_new_us: Vec<f64>,
    engine_round_ns: Vec<f64>,
    /// Per kernel pass, ns per [`KERNELS`] entry.
    kernel_ns: Vec<[u64; 11]>,
    blocks: f64,
    groups: f64,
}

/// Interleaved rounds of the six pipeline variants (order rotating), then
/// the small fixed costs, then kernel passes for the rest of `budget`.
fn traced_phase(
    rec: &Recorder,
    wl: &WorkloadDef,
    v: &mut Verifier,
    budget: Duration,
    quick: bool,
    ckpt_dir: &Path,
) -> Traced {
    let mut out = Traced::default();
    let start = Instant::now();
    let pipeline_budget = budget.mul_f64(TRACED_PIPELINE_SHARE);
    for round in 0u64.. {
        rec.set_iter(round);
        rec.span("bench.round", || {
            for step in 0..6 {
                let (runs, policy, variant) = match (round + step) % 6 {
                    0 => (&mut out.nonspec, Policy::NonSpeculative, Variant::Plain),
                    1 => (&mut out.plain, Policy::Balanced, Variant::Plain),
                    2 => (&mut out.events, Policy::Balanced, Variant::Events),
                    3 => (&mut out.metered, Policy::Balanced, Variant::Metered),
                    4 => (
                        &mut out.checkpointed,
                        Policy::Balanced,
                        Variant::Checkpointed(ckpt_dir),
                    ),
                    _ => (&mut out.replicated, Policy::Balanced, Variant::Replicated),
                };
                runs.extend(v.compress(rec, &spec(wl, policy, variant)));
            }
        });
        if quick || start.elapsed() >= pipeline_budget {
            break;
        }
    }

    rec.span("bench.fixed_costs", || {
        let reps = if quick { 2 } else { 30 };
        let block = &v.data[..sut::BLOCK_BYTES.min(v.data.len())];
        let (reference, _) = sut::serial(rec, block);
        let mut one_block = Verifier::new(block, &reference);
        let fixed = RunSpec {
            input: Input::Memory,
            policy: Policy::Balanced,
            variant: Variant::Plain,
            paced: false,
        };
        for _ in 0..reps {
            out.fixed_run_us
                .extend(one_block.compress(rec, &fixed).map(|r| r.wall_ms * 1e3));
            out.workload_new_us
                .push(sut::workload_new_ns(rec, wl.input, v.data.len()) as f64 / 1e3);
        }
        out.fixed_attempted = one_block.attempted;
        out.fixed_failed = one_block.failed;
        out.engine_round_ns = sut::engine_round_ns(rec, if quick { 1 } else { 9 });
    });

    rec.span("bench.kernels", || {
        let mut replay = sut::Replay::new(v.data, wl.input);
        out.blocks = replay.blocks() as f64;
        out.groups = replay.groups() as f64;
        for pass in 0u64.. {
            rec.set_iter(pass);
            out.kernel_ns.push(replay.pass(rec));
            if quick || start.elapsed() >= budget {
                break;
            }
        }
    });
    out
}

fn per_layer_metrics(m: &mut Metrics, t: &Traced, mib: f64) {
    // huffman: the kernels, single-threaded, on this workload's blocks.
    let k = |i: usize| -> Vec<f64> { t.kernel_ns.iter().map(|p| p[i] as f64).collect() };
    let mb_s = |i: usize| -> Vec<f64> { k(i).iter().map(|ns| mib / (ns / 1e9)).collect() };
    let us = |i: usize| -> Vec<f64> { k(i).iter().map(|ns| ns / 1e3).collect() };
    let kernel = |name: &str| KERNELS.iter().position(|&n| n == name).expect("a kernel");
    m.push("huffman.count_mb_s", "MiB/s", &mb_s(kernel("count")));
    m.push(
        "huffman.count_fused_mb_s",
        "MiB/s",
        &mb_s(kernel("count_fused")),
    );
    m.push("huffman.reduce_ns", "ns", &k(kernel("reduce")));
    m.push("huffman.tree_us", "us", &us(kernel("tree")));
    m.push("huffman.predict_us", "us", &us(kernel("predict")));
    m.push("huffman.check_us", "us", &us(kernel("check")));
    m.push(
        "huffman.offset_ns_per_block",
        "ns/block",
        &k(kernel("offset"))
            .iter()
            .map(|ns| ns / t.blocks)
            .collect::<Vec<_>>(),
    );
    m.push("huffman.encode_mb_s", "MiB/s", &mb_s(kernel("encode")));
    m.push("huffman.concat_mb_s", "MiB/s", &mb_s(kernel("concat")));
    m.push(
        "huffman.serial_encode_mb_s",
        "MiB/s",
        &mb_s(kernel("serial_encode")),
    );
    m.push("huffman.decode_mb_s", "MiB/s", &mb_s(kernel("decode")));
    // What one compress needs of the kernels: the floor under cpu_ms_per_mb.
    let floor: Vec<f64> = (t.kernel_ns.iter())
        .map(|p| {
            let once = [
                "count", "tree", "predict", "check", "offset", "encode", "concat",
            ];
            let ns: u64 = once.iter().map(|n| p[kernel(n)]).sum();
            (ns as f64 + p[kernel("reduce")] as f64 * t.groups) / 1e6 / mib
        })
        .collect();
    m.push("huffman.kernel_cpu_ms_per_mb", "ms/MiB", &floor);

    // sre: the executor, from the plain (untraced) runs of this phase.
    let b = &t.plain;
    let c = |f: fn(&Counters) -> f64| col(b, |x| f(&x.counters));
    m.push(
        "sre.tasks_delivered",
        "count",
        &c(|c| c.tasks_delivered as f64),
    );
    m.push(
        "sre.tasks_discarded",
        "count",
        &c(|c| c.tasks_discarded as f64),
    );
    m.push(
        "sre.tasks_deleted_ready",
        "count",
        &c(|c| c.tasks_deleted_ready as f64),
    );
    m.push("sre.steals", "count", &c(|c| c.steals as f64));
    m.push("sre.steal_ratio", "ratio", &c(|c| c.steal_ratio));
    m.push("sre.lane_imbalance", "ratio", &c(|c| c.lane_imbalance));
    m.push("sre.busy_us", "us", &c(|c| c.busy_us as f64));
    m.push("sre.utilization", "ratio", &c(|c| c.utilization));
    m.push(
        "sre.overhead_cpu_ms_per_mb",
        "ms/MiB",
        &col(b, |x| (x.cpu_ms - x.counters.busy_us as f64 / 1e3) / mib),
    );
    m.push("sre.fixed_run_us", "us", &t.fixed_run_us);
    m.push("sre.nonspec_wall_ms", "ms", &col(&t.nonspec, |x| x.wall_ms));
    m.push(
        "sre.nonspec_block_latency_mean_us",
        "us",
        &col(&t.nonspec, |x| x.lat_mean_us),
    );
    m.push(
        "sre.nonspec_cpu_ms_per_mb",
        "ms/MiB",
        &col(&t.nonspec, |x| x.cpu_ms / mib),
    );
    m.push("sre.block_latency_p50_us", "us", &col(b, |x| x.lat_p50_us));
    let clock = |f: fn(&Clocks) -> u64| {
        col(&t.metered, |x| {
            f(x.clocks.as_ref().expect("metered run")) as f64
        })
    };
    m.push("sre.time_run_us", "us", &clock(|c| c.run));
    m.push("sre.time_steal_us", "us", &clock(|c| c.steal));
    m.push("sre.time_park_us", "us", &clock(|c| c.park));
    m.push("sre.time_check_us", "us", &clock(|c| c.check));
    m.push("sre.time_commit_us", "us", &clock(|c| c.commit));
    m.push("sre.time_router_wait_us", "us", &clock(|c| c.router_wait));
    let ev = |f: &dyn Fn(&EventFacts) -> f64| {
        col(&t.events, |x| f(x.events.as_ref().expect("events run")))
    };
    m.push(
        "sre.queue_wait_mean_us",
        "us",
        &ev(&|e| e.queue_wait_mean_us),
    );
    m.push("sre.parks", "count", &ev(&|e| e.parks as f64));
    let plain_ms = median_of(b, |x| x.wall_ms);
    let overhead_pct = |runs: &[RunStats]| col(runs, |x| (x.wall_ms / plain_ms - 1.0) * 100.0);
    m.push(
        "sre.replication_overhead_pct",
        "pct",
        &overhead_pct(&t.replicated),
    );

    // core: speculation control.
    let s = |f: fn(&SpecFacts) -> f64| col(b, |x| f(x.spec.as_ref().expect("Balanced speculates")));
    m.push("core.predictions", "count", &s(|s| s.predictions as f64));
    m.push("core.checks", "count", &s(|s| s.checks as f64));
    m.push(
        "core.checks_failed",
        "count",
        &s(|s| s.checks_failed as f64),
    );
    m.push("core.rollbacks", "count", &s(|s| s.rollbacks as f64));
    m.push(
        "core.check_pass_ratio",
        "ratio",
        // No check made means no check failed.
        &s(|s| match s.checks {
            0 => 1.0,
            n => s.checks_passed as f64 / n as f64,
        }),
    );
    m.push(
        "core.stale_results",
        "count",
        &s(|s| s.stale_results as f64),
    );
    // Wasted work counted from outside: what Balanced ran beyond what
    // the non-speculative run of the same input needed.
    let nonspec_tasks = median_of(&t.nonspec, RunStats::tasks_run);
    let nonspec_busy = median_of(&t.nonspec, |x| x.counters.busy_us as f64);
    m.push(
        "core.redundant_task_pct",
        "pct",
        &col(b, |x| (x.tasks_run() / nonspec_tasks - 1.0) * 100.0),
    );
    m.push(
        "core.redundant_busy_pct",
        "pct",
        &col(b, |x| {
            (x.counters.busy_us as f64 / nonspec_busy - 1.0) * 100.0
        }),
    );
    m.push("core.wasted_us", "us", &c(|c| c.wasted_us as f64));
    m.push(
        "core.heap_allocs_per_block",
        "count",
        &col(b, |x| x.counters.heap_allocs as f64 / x.blocks),
    );
    m.push("core.engine_round_ns", "ns", &t.engine_round_ns);
    m.push(
        "core.check_latency_p50_us",
        "us",
        &ev(&|e| e.check_latency_p50_us as f64),
    );
    m.push("core.trace_wasted_us", "us", &ev(&|e| e.wasted_us as f64));
    m.push("core.max_cascade", "count", &ev(&|e| e.max_cascade as f64));
    m.push(
        "core.checkpoint_overhead_pct",
        "pct",
        &overhead_pct(&t.checkpointed),
    );

    // iosim: the arrival schedule and how closely the feeder kept it.
    m.push(
        "iosim.schedule_span_ms",
        "ms",
        &col(b, |x| x.last_due_us / 1e3),
    );
    m.push("iosim.feeder_lag_mean_us", "us", &col(b, |x| x.lag_mean_us));
    m.push("iosim.feeder_lag_max_us", "us", &col(b, |x| x.lag_max_us));

    // pipelines: the Huffman application's own shape.
    m.push(
        "pipelines.completion_lag_us",
        "us",
        &col(b, |x| x.counters.makespan_us as f64 - x.last_due_us),
    );
    m.push(
        "pipelines.first_output_us",
        "us",
        &col(b, |x| x.first_output_us),
    );
    m.push("pipelines.workload_new_us", "us", &t.workload_new_us);
    for (i, kind) in TASK_KINDS.iter().enumerate() {
        m.push(
            format!("pipelines.task_us.{kind}"),
            "us",
            &ev(&|e| e.task_us[i] as f64),
        );
        m.push(
            format!("pipelines.task_n.{kind}"),
            "count",
            &ev(&|e| e.task_n[i] as f64),
        );
    }
    m.push(
        "pipelines.discarded_task_us",
        "us",
        &ev(&|e| e.discarded_task_us as f64),
    );

    // trace, metrics: what observing costs on the real pipeline.
    m.push("trace.overhead_pct", "pct", &overhead_pct(&t.events));
    m.push("trace.events_per_run", "count", &ev(&|e| e.events as f64));
    m.push("trace.dropped_events", "count", &ev(&|e| e.dropped as f64));
    m.push("metrics.overhead_pct", "pct", &overhead_pct(&t.metered));

    let task_us: f64 = median_of(&t.events, |x| {
        x.events
            .as_ref()
            .expect("events run")
            .task_us
            .iter()
            .sum::<u64>() as f64
    });
    eprintln!(
        "task_us.* sum {:.0} us (events runs) beside sre.busy_us {:.0} us (plain runs); \
         {} rounds, {} kernel passes",
        task_us,
        median_of(b, |x| x.counters.busy_us as f64),
        b.len(),
        t.kernel_ns.len()
    );
}

fn print_span_table(all: &[spans::Span], path: &Path) {
    eprintln!("spans: {} written to {}", all.len(), path.display());
    eprintln!("{:<46} {:>8} {:>12}", "span", "n", "self_ms");
    for (name, self_ns, n) in spans::self_time_by_name(all) {
        eprintln!("{name:<46} {n:>8} {:>12.3}", self_ns as f64 / 1e6);
    }
    let own = spans::self_times_ns(all);
    let cov = spans::child_coverage_ns(all);
    let root = &all[0];
    eprintln!(
        "root {}: self {} ns + child coverage {} ns = duration {} ns",
        root.name,
        own[0],
        cov[0],
        root.duration_ns()
    );
    assert_eq!(own[0] + cov[0], root.duration_ns());
}
