//! `tvs-chaos` — the CI fault-injection gauntlet.
//!
//! For every seed in a fixed matrix, build the standard chaos fault plan
//! (injected task panics, stalls, delayed/duplicated completions,
//! corrupted predicted values) and run the Huffman pipeline under it on
//! both the deterministic simulator and the real thread pool. Each run
//! must hold the **chaos invariant**: it either completes with output
//! that decodes byte-identically to the input (the fault-free result) or
//! fails with a structured [`RunFailure`] — never a process crash, never
//! silently wrong bytes. Simulated runs must additionally reproduce
//! exactly when re-run with the same seed.
//!
//! A final adversarial run — continuously drifting input on which every
//! prediction mispredicts — must degrade to the suspended level (a
//! `degrade-step` trace event reaching it) and still complete on the
//! natural path, on both executors. The simulator's event log is written
//! to `results/chaos_degrade_trace.json` / `_events.csv` as the CI
//! artifact.
//!
//! The SDC-recall and kill-and-resume matrices are written one file per
//! executor: the simulator's rows to `results/{sdc_recall,resume_matrix}.jsonl`
//! (deterministic, tracked), the threaded rows — which move with thread
//! timing — to `results/{sdc_recall,resume_matrix}_threaded.jsonl`.
//!
//! Run with `cargo run --release -p tvs-bench --bin tvs-chaos`.
//! Exits non-zero if any invariant is violated.

use tvs_bench::{results_dir, write_trace};
use tvs_core::checkpoint::JOURNAL_FILE;
use tvs_core::{
    CheckpointConfig, DegradeConfig, Level, SpeculationSchedule, StreamSnapshot, Tolerance,
    ValidationMode, VerificationPolicy,
};
use tvs_huffman::{decode_exact, CodeTable};
use tvs_iosim::Uniform;
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::huffman::decompress;
use tvs_pipelines::postmortem;
use tvs_pipelines::runner::{run_huffman, CheckpointedRun, HuffmanRun, RunFailure, RunOutcome};
use tvs_sre::{x86_smp, DispatchPolicy, FaultInjector, FaultPlan, FaultSite, Recorder, TraceLog};
use tvs_workloads::FileKind;

const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];
const EXECS: [&str; 2] = ["sim", "threaded"];

/// Write one matrix's rows, one file per executor (`rows[i]` holds
/// `EXECS[i]`'s): `<stem>.jsonl` for the simulator, `<stem>_threaded.jsonl`
/// for threads. Returns the violation count (0 or 1).
fn write_matrix(stem: &str, rows: &[String; 2]) -> u32 {
    let dir = results_dir();
    for (exec, lines) in EXECS.iter().zip(rows) {
        let name = match *exec {
            "sim" => format!("{stem}.jsonl"),
            exec => format!("{stem}_{exec}.jsonl"),
        };
        let path = dir.join(name);
        let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, lines));
        if let Err(e) = written {
            println!("VIOLATION: could not write {stem} artifact: {e}");
            return 1;
        }
        println!("{stem} ({exec}) -> {}", path.display());
    }
    0
}
const SIM_WORKERS: usize = 8;
const WORKERS: usize = 4;

/// A dark run of `data` under `cfg` on `exec`: the simulator's 8 x86
/// workers, or 4 real threads with arrivals compressed 1000×.
fn run_on<'a>(
    exec: &str,
    data: &'a [u8],
    cfg: &'a HuffmanConfig,
    arrival: &'a Uniform,
) -> HuffmanRun<'a> {
    if exec == "sim" {
        HuffmanRun::sim(data, cfg, &x86_smp(SIM_WORKERS), arrival)
    } else {
        HuffmanRun::threaded(data, cfg, WORKERS, arrival, 1000)
    }
}

/// `run` (built by [`run_on`] for `exec`) with the event log on: its
/// outcome and log, or how it failed.
fn traced(mut run: HuffmanRun, exec: &str) -> Result<(RunOutcome, TraceLog), RunFailure> {
    let workers = if exec == "sim" { SIM_WORKERS } else { WORKERS };
    run.instruments.recorder = Recorder::enabled(workers);
    let report = run_huffman(&run)?;
    let log = report.log.expect("enabled recorder drains");
    Ok((report.end.into_outcome(), log))
}

/// Bundle names are `postmortem_<rev>_<seed>`; the two forced dumps of the
/// degraded run use distinct fixed seeds so they coexist.
const DEGRADED_SEED_SIM: u64 = 2011;
const DEGRADED_SEED_THREADED: u64 = 2012;

/// Dump `log` as a degraded-run post-mortem bundle under `dir`, reload
/// it, and verify the conservation invariant. Returns the violation
/// count (0 or 1).
fn dump_bundle(dir: &std::path::Path, seed: u64, log: &TraceLog) -> u32 {
    let meta = postmortem::BundleMeta::for_log(
        postmortem::Trigger::Degraded,
        seed,
        DispatchPolicy::Aggressive.label(),
        log,
        None,
    );
    let path = match postmortem::write_bundle(dir, &meta, log, &[]) {
        Ok(p) => p,
        Err(e) => {
            println!("VIOLATION: could not write post-mortem bundle: {e}");
            return 1;
        }
    };
    match postmortem::load_bundle(&path).map_err(|e| format!("bundle does not reload: {e}")) {
        Ok(bundle) => match bundle.check() {
            Ok(()) => {
                println!("post-mortem bundle -> {}", path.display());
                0
            }
            Err(e) => {
                println!("VIOLATION: reloaded bundle fails conservation: {e}");
                1
            }
        },
        Err(e) => {
            println!("VIOLATION: {e}");
            1
        }
    }
}

fn cfg() -> HuffmanConfig {
    HuffmanConfig {
        collect_output: true,
        ..HuffmanConfig::disk_x86(DispatchPolicy::Balanced)
    }
}

/// The chaos invariant for one completed-or-failed run. Returns a short
/// status cell for the table, or `Err(reason)` on a violation.
fn check_invariant(
    res: Result<(RunOutcome, TraceLog), RunFailure>,
    data: &[u8],
) -> Result<String, String> {
    match res {
        Ok((out, log)) => {
            let Some((bytes, bits, lengths)) = out.result.output.as_ref() else {
                return Err("run completed without collected output".into());
            };
            let table = CodeTable::from_lengths(lengths);
            match decode_exact(bytes, 0, *bits, data.len(), &table) {
                Ok(back) if back == data => Ok(format!(
                    "ok ({} faults, {} rollbacks)",
                    out.metrics.faults,
                    log.health().rollbacks
                )),
                Ok(_) => Err("output decodes to WRONG bytes".into()),
                Err(e) => Err(format!("output does not decode: {e}")),
            }
        }
        // A structured failure is an allowed outcome — the invariant only
        // forbids crashes and silent corruption.
        Err(e) => Ok(format!("structured error: {e}")),
    }
}

/// Byte-identity check for the SDC matrix (no trace log involved).
fn decode_exactly(out: &RunOutcome, data: &[u8]) -> Result<(), String> {
    let Some((bytes, bits, lengths)) = out.result.output.as_ref() else {
        return Err("run completed without collected output".into());
    };
    let table = CodeTable::from_lengths(lengths);
    match decode_exact(bytes, 0, *bits, data.len(), &table) {
        Ok(back) if back == data => Ok(()),
        Ok(_) => Err("output decodes to WRONG bytes".into()),
        Err(e) => Err(format!("output does not decode: {e}")),
    }
}

fn main() {
    // Injected panics are caught and recovered by the executors; without
    // this hook each one still prints a message (plus a backtrace under
    // RUST_BACKTRACE=1, which CI sets), burying the report. Unexpected
    // panics keep a one-line diagnostic and fail the process as usual.
    std::panic::set_hook(Box::new(|info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| info.payload().downcast_ref::<String>().map(String::as_str))
            .unwrap_or("<non-string panic>");
        if !msg.contains("injected") {
            eprintln!("panic: {msg} ({:?})", info.location());
        }
    }));
    let data = tvs_workloads::generate(FileKind::Text, 64 * 1024, 2011);
    let arrival = Uniform {
        gap_us: 2,
        start_us: 0,
    };
    let c = cfg();
    let mut violations = 0u32;

    println!("== tvs-chaos: {} seeds, FaultPlan::chaos ==", SEEDS.len());
    println!("{:<6} {:<40} {:<40}", "seed", "sim", "threaded");
    // The chaos preset with the event log on. A fresh injector per run:
    // draw counters are run state, and the determinism check below depends
    // on starting from zero.
    let chaos = |exec: &str, seed: u64| {
        let mut run = run_on(exec, &data, &c, &arrival);
        run.instruments.faults = FaultInjector::new(FaultPlan::chaos(seed));
        traced(run, exec)
    };
    for seed in SEEDS {
        let first = chaos("sim", seed);
        let repeat_differs = match (&first, &chaos("sim", seed)) {
            (Ok((a, _)), Ok((b, _))) => a.metrics != b.metrics,
            (Err(a), Err(b)) => a != b,
            _ => true,
        };
        let sim_cell = match check_invariant(first, &data) {
            Ok(s) if repeat_differs => {
                violations += 1;
                format!("VIOLATION: nondeterministic replay ({s})")
            }
            Ok(s) => s,
            Err(e) => {
                violations += 1;
                format!("VIOLATION: {e}")
            }
        };

        let thr_cell = match check_invariant(chaos("threaded", seed), &data) {
            Ok(s) => s,
            Err(e) => {
                violations += 1;
                format!("VIOLATION: {e}")
            }
        };
        println!("{seed:<6} {sim_cell:<40} {thr_cell:<40}");
    }

    // Silent-data-corruption recall: FaultPlan::sdc flips bits in encoded
    // blocks *after* a successful encode — no panic, no stall, bit count
    // intact — so retry and the tolerance checks are both blind. Under
    // Replicate/Both every run must decode byte-identically AND, whenever
    // corruptions actually landed, detect at least one divergence.
    let mut sdc_cfg = HuffmanConfig {
        block_bytes: 1024,
        reduce_ratio: 4,
        offset_fanout: 4,
        schedule: SpeculationSchedule::with_step(1),
        verification: VerificationPolicy::Full,
        ..cfg()
    };
    let sdc_data = tvs_workloads::generate(FileKind::Text, 32 * 1024, 2011);
    let sdc_modes = [
        ("replicate", ValidationMode::Replicate { sample_rate: 1.0 }),
        ("both", ValidationMode::Both { sample_rate: 1.0 }),
    ];
    let mut recall_lines: [String; 2] = Default::default();
    println!(
        "\n== sdc recall: {} seeds x sim+threaded x replicate/both ==",
        SEEDS.len()
    );
    println!(
        "{:<6} {:<10} {:<10} {:<30}",
        "seed", "exec", "mode", "injected/detected"
    );
    for seed in SEEDS {
        for (mode_label, mode) in sdc_modes {
            sdc_cfg.validation = mode;
            for (lines, exec) in recall_lines.iter_mut().zip(EXECS) {
                let faults = FaultInjector::new(FaultPlan::sdc(seed));
                let mut run = run_on(exec, &sdc_data, &sdc_cfg, &arrival);
                run.instruments.faults = faults.clone();
                let report = match run_huffman(&run) {
                    Ok(report) => report,
                    Err(e) => {
                        violations += 1;
                        println!("{seed:<6} {exec:<10} {mode_label:<10} VIOLATION: {e}");
                        continue;
                    }
                };
                let injected = faults.injected_at(FaultSite::TaskOutput);
                let detected = report.replica.sdc_detected;
                let decoded = decode_exactly(&report.end.into_outcome(), &sdc_data);
                let ok = decoded.is_ok() && (injected == 0 || detected >= 1);
                lines.push_str(&format!(
                    "{{\"seed\":{seed},\"exec\":\"{exec}\",\"mode\":\"{mode_label}\",\"injected\":{injected},\"detected\":{detected},\"ok\":{ok}}}\n"
                ));
                let cell = if ok {
                    format!("{injected}/{detected}")
                } else {
                    violations += 1;
                    format!(
                        "VIOLATION: {injected} injected, {detected} detected — {}",
                        decoded.err().unwrap_or_else(|| "undetected".into())
                    )
                };
                println!("{seed:<6} {exec:<10} {mode_label:<10} {cell:<30}");
            }
        }
    }
    violations += write_matrix("sdc_recall", &recall_lines);

    // Kill-and-resume matrix: for every seed, halt a checkpointed run at
    // each kill block, require its journal on disk to replay to the halted
    // snapshot, resume from the journal, checkpointing into the same
    // directory, and require the resumed stream to be byte-identical to the
    // uninterrupted run, and the finished journal to hold that stream and
    // decompress to the input — on both executors. This is the
    // crash-recovery contract: a kill at any committed prefix loses no
    // bytes and changes no bytes.
    let resume_cfg = HuffmanConfig {
        block_bytes: 1024,
        reduce_ratio: 4,
        offset_fanout: 4,
        schedule: SpeculationSchedule::with_step(1),
        ..cfg()
    };
    const KILL_POINTS: [usize; 3] = [8, 24, 48];
    let mut resume_lines: [String; 2] = Default::default();
    println!(
        "\n== kill-and-resume: {} seeds x {:?} x sim+threaded ==",
        SEEDS.len(),
        KILL_POINTS
    );
    println!(
        "{:<6} {:<8} {:<10} {:<30}",
        "seed", "kill_at", "exec", "prefix/replayed"
    );
    for seed in SEEDS {
        let rd = tvs_workloads::generate(FileKind::Text, 64 * 1024, seed);
        let n_blocks = resume_cfg.n_blocks(rd.len());
        let base = tvs_bench::sim_outcome(&rd, &resume_cfg, &x86_smp(SIM_WORKERS), &arrival);
        let base_out = base.result.output.as_ref().expect("output collected");
        for kill_at in KILL_POINTS {
            for (lines, exec) in resume_lines.iter_mut().zip(EXECS) {
                let dir = std::env::temp_dir().join(format!(
                    "tvs-chaos-resume-{}-{seed}-{kill_at}-{exec}",
                    std::process::id()
                ));
                let mut kc = resume_cfg.clone();
                kc.checkpoint = Some(CheckpointConfig {
                    every_blocks: 4,
                    dir: dir.clone(),
                    halt_at_block: Some(kill_at),
                });
                let halted = run_huffman(&run_on(exec, &rd, &kc, &arrival));
                let snap = match halted.map(|report| report.end) {
                    Ok(CheckpointedRun::Halted(s)) => *s,
                    Ok(CheckpointedRun::Completed(_)) => {
                        violations += 1;
                        println!(
                            "{seed:<6} {kill_at:<8} {exec:<10} VIOLATION: completed, never halted"
                        );
                        continue;
                    }
                    Err(e) => {
                        violations += 1;
                        println!("{seed:<6} {kill_at:<8} {exec:<10} VIOLATION: {e}");
                        continue;
                    }
                };
                // The journal on disk must replay to the halted snapshot, and
                // the resume starts from what is on disk.
                let snap = match StreamSnapshot::load(&dir.join(JOURNAL_FILE)) {
                    Ok(on_disk) if on_disk == snap => on_disk,
                    loaded => {
                        violations += 1;
                        let why = loaded.map_or_else(|e| e.to_string(), |_| "differs".into());
                        println!(
                            "{seed:<6} {kill_at:<8} {exec:<10} VIOLATION: journal on disk: {why}"
                        );
                        continue;
                    }
                };
                if exec == "sim" && seed == SEEDS[0] && kill_at == KILL_POINTS[1] {
                    // Keep the halted run's own journal as a CI artifact;
                    // the smoke step audits it with
                    // `tvs-report --resume-audit`.
                    let keep = results_dir().join("resume_snapshot");
                    let to = keep.join(JOURNAL_FILE);
                    let kept = std::fs::create_dir_all(&keep)
                        .and_then(|()| std::fs::copy(dir.join(JOURNAL_FILE), &to));
                    match kept {
                        Ok(_) => println!("journal artifact -> {}", to.display()),
                        Err(e) => {
                            println!("VIOLATION: could not keep the journal artifact: {e}");
                            violations += 1;
                        }
                    }
                }
                // The resumed run appends to the halted run's journal, and
                // finishes it: the journal is then the compressed file.
                kc.checkpoint = Some(CheckpointConfig::new(4, &dir));
                let mut resume = run_on(exec, &rd, &kc, &arrival);
                resume.resume = Some(&snap);
                let prefix = snap.prefix as usize;
                let replayed = n_blocks - prefix;
                let cell = match run_huffman(&resume) {
                    Ok(report) => {
                        let out = report.end.into_outcome();
                        let ro = out.result.output.as_ref().expect("output collected");
                        let journal = std::fs::read(dir.join(JOURNAL_FILE)).unwrap_or_default();
                        let on_disk = StreamSnapshot::replay(&journal).map(|r| r.snapshot);
                        let durable = on_disk.is_ok_and(|s| {
                            (&s.stream_bytes, s.stream_bit_len) == (&base_out.0, base_out.1)
                        });
                        if (&ro.0, ro.1) != (&base_out.0, base_out.1) {
                            violations += 1;
                            "VIOLATION: resumed stream diverges".into()
                        } else if !durable || decompress(&journal).as_ref() != Ok(&rd) {
                            violations += 1;
                            "VIOLATION: finished journal is not the stream".into()
                        } else {
                            format!("ok ({prefix}/{replayed})")
                        }
                    }
                    Err(e) => {
                        violations += 1;
                        format!("VIOLATION: resume rejected: {e}")
                    }
                };
                let identical = !cell.starts_with("VIOLATION");
                lines.push_str(&format!(
                    "{{\"seed\":{seed},\"kill_at\":{kill_at},\"exec\":\"{exec}\",\"prefix\":{prefix},\"replayed\":{replayed},\"identical\":{identical}}}\n"
                ));
                println!("{seed:<6} {kill_at:<8} {exec:<10} {cell:<30}");
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
    violations += write_matrix("resume_matrix", &resume_lines);

    // Adversarial misprediction: drifting input, zero tolerance, tight
    // degradation window, cooldown longer than the run. Speculation must be
    // suspended and the run must still finish, on both executors.
    let mut dc = cfg();
    dc.block_bytes = 1024;
    dc.reduce_ratio = 4;
    dc.offset_fanout = 4;
    dc.policy = DispatchPolicy::Aggressive;
    dc.schedule = SpeculationSchedule::with_step(1);
    dc.verification = VerificationPolicy::Full;
    dc.tolerance = Tolerance { margin: 0.0 };
    dc.degrade = Some(DegradeConfig {
        window: 4,
        trip_ratio: 0.5,
        clean_windows: 2,
        cooldown: 1_000,
    });
    let adversarial: Vec<u8> = (0..32 * 1024usize)
        .map(|i| ((i / 1024) * 7 + i % 13) as u8)
        .collect();
    let slow = Uniform {
        gap_us: 100,
        start_us: 0,
    };
    let dir = results_dir();
    for (exec, seed) in [
        ("sim", DEGRADED_SEED_SIM),
        ("threaded", DEGRADED_SEED_THREADED),
    ] {
        let (out, log) =
            traced(run_on(exec, &adversarial, &dc, &slow), exec).expect("nothing injected");
        let h = log.health();
        let decoded = check_invariant(Ok((out, log.clone())), &adversarial);
        println!(
            "degradation ({exec}): {} step(s) down, {} up, {} probe(s) — {}",
            h.steps_down,
            h.steps_up,
            h.probes,
            decoded.as_deref().unwrap_or("(violation)"),
        );
        if !log
            .degrade_steps()
            .any(|(_, to, _)| to == Level::Suspended as u32)
        {
            println!("VIOLATION: 100% misprediction did not suspend speculation on {exec}");
            violations += 1;
        }
        if decoded.is_err() {
            violations += 1;
        }
        if exec == "sim" {
            match write_trace(&log, &dir, "chaos_degrade_trace") {
                Ok((json, csv)) => {
                    println!("degrade trace -> {} and {}", json.display(), csv.display())
                }
                Err(e) => {
                    println!("VIOLATION: could not write degrade trace artifact: {e}");
                    violations += 1;
                }
            }
        }
        // Forced post-mortem dump: the CI smoke step reloads the bundles
        // with `tvs-report --postmortem` and requires the offline cascade
        // reconstruction to conserve the live wasted-µs totals.
        violations += dump_bundle(&dir, seed, &log);
    }

    if violations > 0 {
        println!("\n{violations} chaos invariant violation(s)");
        std::process::exit(1);
    }
    println!("\nall chaos invariants held");
}
