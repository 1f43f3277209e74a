//! Micro-benchmarks of the SRE runtime — scheduler throughput, version
//! rollback cost, simulator overhead per task — plus the threaded
//! executor's throughput matrix: tasks/sec across 1–16 workers, with short
//! (near-empty) and long (~100 µs) task bodies, and what the enabled
//! recorder, replication and checkpointing cost on top.
//!
//! Run with `cargo bench --bench runtime_micro`; numbers land in
//! `results/runtime_micro.csv` and `results/runtime_micro_throughput.csv`.

use std::sync::Arc;
use std::time::{Duration, Instant};
use tvs_bench::microbench::{bench, bench_with, black_box, blocks_at_once, write_csv, Opts};
use tvs_bench::results_dir;
use tvs_core::{ReplicatingWorkload, ValidationMode};
use tvs_sre::exec::sim::{self, SimConfig};
use tvs_sre::exec::threaded::{self, ThreadedConfig};
use tvs_sre::task::{payload, TaskSpec};
use tvs_sre::workload::{Completion, InputBlock, SchedCtx, Workload};
use tvs_sre::{x86_smp, DispatchPolicy, FixedCost, Instruments, Recorder, Scheduler};

/// One task per input block; each body spins for `spin` wall time
/// (zero = short body, dominated by runtime overhead).
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
                if !spin.is_zero() {
                    let t = Instant::now();
                    while t.elapsed() < spin {
                        std::hint::spin_loop();
                    }
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

fn bench_scheduler_cycle(rows: &mut Vec<tvs_bench::microbench::Measurement>) {
    for policy in [DispatchPolicy::NonSpeculative, DispatchPolicy::Balanced] {
        rows.push(bench(
            &format!("scheduler_cycle/{}", policy.label()),
            || {
                let mut s = Scheduler::new(policy);
                for i in 0..256u64 {
                    if policy.speculates() && i % 2 == 0 {
                        s.spawn(TaskSpec::speculative("s", 1, 0, 1, i, |_| payload(())));
                    } else {
                        s.spawn(TaskSpec::regular("r", 0, 0, i, |_| payload(())));
                    }
                }
                let mut n = 0;
                while let Some(d) = s.dispatch() {
                    s.charge(d.class, 10);
                    s.complete(d.id);
                    n += 1;
                }
                black_box(n)
            },
        ));
    }
}

fn bench_rollback(rows: &mut Vec<tvs_bench::microbench::Measurement>) {
    // Cost of aborting a version with many ready tasks (the destroy
    // propagation path).
    for n_tasks in [64usize, 512, 2048] {
        rows.push(bench(&format!("rollback/{n_tasks}"), || {
            let mut s = Scheduler::new(DispatchPolicy::Aggressive);
            for i in 0..n_tasks as u64 {
                s.spawn(TaskSpec::speculative("e", 1, 0, 1, i, |_| payload(())));
            }
            black_box(s.abort_version(1))
        }));
    }
}

fn bench_sim_executor(rows: &mut Vec<tvs_bench::microbench::Measurement>) {
    for n_tasks in [1024usize, 8192] {
        let input = vec![0u8; 16 * n_tasks];
        let inputs: Vec<InputBlock> = (0..n_tasks)
            .map(|i| InputBlock {
                index: i,
                arrival: i as u64,
                bytes: 16 * i..16 * (i + 1),
            })
            .collect();
        let cfg = SimConfig::new(x86_smp(16));
        rows.push(bench_with(
            &format!("sim_executor/tasks/{n_tasks}"),
            Opts::heavy(),
            || {
                let rep = sim::run(
                    PerBlock {
                        n: n_tasks,
                        seen: 0,
                        spin: Duration::ZERO,
                    },
                    &cfg,
                    DispatchPolicy::NonSpeculative,
                    &FixedCost(50),
                    &input,
                    inputs.clone(),
                    &Instruments::default(),
                );
                black_box(rep.expect("a dark run cannot fail").1.makespan)
            },
        ));
    }
}

/// What a throughput cell runs on the threaded executor.
#[derive(Clone, Copy, PartialEq)]
enum Exec {
    /// Dark.
    WorkStealing,
    /// Work-stealing with the recorder enabled (event rings, counters,
    /// gauges, histograms) — the recorder-overhead comparison cells.
    WorkStealingRecorded,
    /// Work-stealing with replication-based validation at sample rate 1.0
    /// — every task executed twice and digest-compared, the worst-case
    /// replication overhead.
    WorkStealingReplicated,
    /// The threaded Huffman pipeline without checkpointing — reference
    /// for the checkpoint-overhead comparison cells.
    HuffmanPlain,
    /// The threaded Huffman pipeline snapshotting at the default cadence.
    HuffmanCheckpointed,
}

impl Exec {
    fn label(self) -> &'static str {
        match self {
            Exec::WorkStealing => "work_stealing",
            Exec::WorkStealingRecorded => "work_stealing_recorded",
            Exec::WorkStealingReplicated => "work_stealing_replicated",
            Exec::HuffmanPlain => "huffman_plain",
            Exec::HuffmanCheckpointed => "huffman_checkpointed",
        }
    }
}

/// The unit-payload digest for the replication cells: every completion
/// digests to the same constant, so replicas always agree.
fn unit_digest(_name: &'static str, out: &dyn std::any::Any) -> Option<u64> {
    out.downcast_ref::<()>().map(|_| 0x5DC)
}

/// Median wall-clock seconds over `reps` full runs of `n` tasks.
fn run_once(exec: Exec, workers: usize, n: usize, spin: Duration, reps: usize) -> f64 {
    let cfg = ThreadedConfig::new(workers);
    let mut secs: Vec<f64> = (0..reps)
        .map(|_| {
            let (input, inputs) = blocks_at_once(n, 16);
            // The recorder lives outside the timed region: a cell measures
            // what a run pays for recording, not for draining afterwards.
            let ins = match exec {
                Exec::WorkStealingRecorded => Instruments::recorded(Recorder::enabled(workers)),
                _ => Instruments::default(),
            };
            let wl = PerBlock { n, seen: 0, spin };
            if exec == Exec::WorkStealingReplicated {
                let wl = ReplicatingWorkload::new(
                    wl,
                    ValidationMode::Replicate { sample_rate: 1.0 },
                    7,
                    Arc::new(unit_digest),
                );
                let t = Instant::now();
                let (w, m) = threaded::run(
                    wl,
                    &cfg,
                    DispatchPolicy::NonSpeculative,
                    &input,
                    inputs,
                    &ins,
                )
                .expect("nothing fails");
                let el = t.elapsed().as_secs_f64();
                assert_eq!(w.inner().seen, n);
                assert_eq!(m.replica_dispatches as usize, n);
                return el;
            }
            let t = Instant::now();
            let (w, m) = threaded::run(
                wl,
                &cfg,
                DispatchPolicy::NonSpeculative,
                &input,
                inputs,
                &ins,
            )
            .expect("nothing fails");
            let el = t.elapsed().as_secs_f64();
            drop(ins.recorder.drain());
            assert_eq!(w.seen, n);
            assert_eq!(m.tasks_delivered as usize, n);
            el
        })
        .collect();
    secs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    secs[secs.len() / 2]
}

struct Cell {
    exec: Exec,
    body: &'static str,
    workers: usize,
    tasks: usize,
    median_s: f64,
}

fn bench_executor_throughput() -> Vec<Cell> {
    const WORKER_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];
    const N_SHORT: usize = 1000;
    const N_LONG: usize = 64;
    const REPS: usize = 5;
    let mut cells = Vec::new();
    for (body, n, spin) in [
        ("short", N_SHORT, Duration::ZERO),
        ("long", N_LONG, Duration::from_micros(100)),
    ] {
        for workers in WORKER_COUNTS {
            let exec = Exec::WorkStealing;
            let median_s = run_once(exec, workers, n, spin, REPS);
            println!(
                "{:<14} {:<6} workers={:<3} {:>9.3} ms  {:>12.0} tasks/s",
                exec.label(),
                body,
                workers,
                median_s * 1e3,
                n as f64 / median_s,
            );
            cells.push(Cell {
                exec,
                body,
                workers,
                tasks: n,
                median_s,
            });
        }
    }
    cells
}

/// Overhead cells: work-stealing with `extra` on vs dark, at 4 workers, on
/// ~100 µs bodies (the coarse-grain regime the paper targets and the
/// budgets are set for — the enabled recorder ≤ 3 %; replication at
/// sample rate 1.0 costs ~2× compute but far less than 2× wall-clock while
/// idle workers absorb replicas) and on short bodies (the worst case, for
/// the job log only).
fn bench_overhead(cells: &mut Vec<Cell>, what: &str, extra: Exec) {
    const REPS: usize = 5;
    for (body, n, spin) in [
        ("short", 1000usize, Duration::ZERO),
        ("long", 64, Duration::from_micros(100)),
    ] {
        let mut medians = [0.0f64; 2];
        for (i, exec) in [Exec::WorkStealing, extra].into_iter().enumerate() {
            let median_s = run_once(exec, 4, n, spin, REPS);
            medians[i] = median_s;
            println!(
                "{:<24} {:<6} workers=4   {:>9.3} ms  {:>12.0} tasks/s",
                exec.label(),
                body,
                median_s * 1e3,
                n as f64 / median_s,
            );
            cells.push(Cell {
                exec,
                body,
                workers: 4,
                tasks: n,
                median_s,
            });
        }
        println!(
            "{what} overhead, {body} tasks @ 4 workers: {:.2}x",
            medians[1] / medians[0]
        );
    }
}

/// Checkpoint-overhead cells: the threaded Huffman pipeline appending to
/// its checkpoint journal at the default cadence vs not checkpointing at
/// all (the ≤3 % envelope — enforced strictly by the
/// `checkpoint_overhead` guard test under `TVS_CHECKPOINT_STRICT=1`).
fn bench_checkpoint_overhead(cells: &mut Vec<Cell>) {
    use tvs_core::CheckpointConfig;
    use tvs_iosim::Uniform;
    use tvs_pipelines::config::HuffmanConfig;
    use tvs_pipelines::runner::{run_huffman, HuffmanRun};
    const REPS: usize = 5;
    let mut cfg = HuffmanConfig::disk_x86(DispatchPolicy::Balanced);
    cfg.block_bytes = 1024;
    cfg.reduce_ratio = 4;
    cfg.offset_fanout = 4;
    cfg.schedule = tvs_core::SpeculationSchedule::with_step(1);
    let data = tvs_workloads::generate(tvs_workloads::FileKind::Text, 128 * 1024, 2011);
    let n = cfg.n_blocks(data.len());
    let arrival = Uniform {
        gap_us: 2,
        start_us: 0,
    };
    let dir = std::env::temp_dir().join(format!("tvs-micro-ckpt-{}", std::process::id()));
    let mut medians = [0.0f64; 2];
    for (i, exec) in [Exec::HuffmanPlain, Exec::HuffmanCheckpointed]
        .into_iter()
        .enumerate()
    {
        let mut secs: Vec<f64> = (0..REPS)
            .map(|_| {
                let mut c = cfg.clone();
                if exec == Exec::HuffmanCheckpointed {
                    c.checkpoint = Some(CheckpointConfig::at_default_cadence(&dir));
                }
                let t = Instant::now();
                let report = run_huffman(&HuffmanRun::threaded(&data, &c, 4, &arrival, 1000));
                let out = report.expect("a dark run cannot fail").end.into_outcome();
                assert_eq!(out.result.blocks.len(), n);
                t.elapsed().as_secs_f64()
            })
            .collect();
        secs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median_s = secs[secs.len() / 2];
        medians[i] = median_s;
        println!(
            "{:<22} {:<6} workers=4   {:>9.3} ms  {:>12.0} blocks/s",
            exec.label(),
            "128k",
            median_s * 1e3,
            n as f64 / median_s,
        );
        cells.push(Cell {
            exec,
            body: "128k",
            workers: 4,
            tasks: n,
            median_s,
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "checkpoint overhead, default cadence @ 4 workers: {:.2}x",
        medians[1] / medians[0]
    );
}

fn throughput_csv(cells: &[Cell], cores: usize) -> String {
    let mut out = String::from("executor,body,workers,cores,tasks,median_ms,tasks_per_sec\n");
    for c in cells {
        out.push_str(&format!(
            "{},{},{},{},{},{:.3},{:.0}\n",
            c.exec.label(),
            c.body,
            c.workers,
            cores,
            c.tasks,
            c.median_s * 1e3,
            c.tasks as f64 / c.median_s,
        ));
    }
    out
}

fn main() {
    let dir = results_dir();
    let mut rows = Vec::new();
    println!("== scheduler_cycle ==");
    bench_scheduler_cycle(&mut rows);
    println!("== rollback ==");
    bench_rollback(&mut rows);
    println!("== sim_executor ==");
    bench_sim_executor(&mut rows);
    write_csv(&dir.join("runtime_micro.csv"), &rows).expect("write csv");

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("== executor throughput (tasks/sec, median of 5 runs, {cores} cores) ==");
    let mut cells = bench_executor_throughput();
    for (what, extra) in [
        ("recorder", Exec::WorkStealingRecorded),
        ("replication", Exec::WorkStealingReplicated),
    ] {
        println!("== {what} overhead ==");
        bench_overhead(&mut cells, what, extra);
    }
    println!("== checkpoint overhead ==");
    bench_checkpoint_overhead(&mut cells);
    std::fs::create_dir_all(&dir).expect("results dir");
    let path = dir.join("runtime_micro_throughput.csv");
    std::fs::write(&path, throughput_csv(&cells, cores)).expect("write csv");
    println!("  -> {}", path.display());
}
