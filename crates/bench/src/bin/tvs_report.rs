//! `tvs-report` — speculation-lifecycle analysis CLI.
//!
//! Runs the Huffman pipeline on the deterministic discrete-event executor
//! with event tracing enabled, once per dispatch policy, and prints the
//! speculation-health summary the paper's tuning discussion asks for:
//! wasted-work ratio, rollback-cascade-depth histogram, and check-task
//! latency percentiles. The aggressive run's full event log is written to
//! `results/huffman_trace.json` (Chrome trace-event / Perfetto JSON —
//! load it at `ui.perfetto.dev`) and `results/huffman_trace_events.csv`.
//!
//! Run with `cargo run --release -p tvs-bench --bin tvs-report`.
//! Exits non-zero if any run violates the health invariants (dropped
//! trace events, a negative waste ratio, or a lineage table that fails
//! to conserve the aggregate wasted-µs total — all signs of a broken
//! telemetry plane rather than a slow run).
//!
//! `tvs-report --postmortem <dir>` instead reloads a crash bundle
//! written by the flight recorder (see `tvs_pipelines::postmortem`) and
//! reconstructs the full rollback cascade forest offline, with
//! per-lineage wasted-µs totals checked against the manifest.

use tvs_bench::{results_dir, sim_events, write_trace};
use tvs_core::{AllocStats, DegradeConfig, SpeculationSchedule, Tolerance, VerificationPolicy};
use tvs_iosim::{Disk, Uniform};
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::postmortem;
use tvs_pipelines::runner::{run_huffman, HuffmanRun};
use tvs_sre::{x86_smp, DispatchPolicy, FaultInjector, FaultPlan, Instruments, Recorder};
use tvs_trace::TraceLog;
use tvs_workloads::FileKind;

const WORKERS: usize = 8;
const BYTES: usize = 256 * 1024;

/// Print one policy's health summary. Returns the number of health-
/// invariant violations (dropped events, negative waste ratio) so `main`
/// can fail the process instead of shipping a silently-broken report.
fn print_policy(
    policy: DispatchPolicy,
    log: &TraceLog,
    makespan: u64,
    alloc: Option<AllocStats>,
) -> u32 {
    let h = log.health();
    let mut violations = 0u32;
    println!(
        "{:<13} {:>7} {:>6} {:>6} {:>7} {:>9} {:>7.1} {:>9}",
        policy.label(),
        h.events,
        h.predictor_fires,
        h.versions_opened,
        h.commits,
        h.rollbacks,
        100.0 * h.waste_ratio(),
        makespan,
    );
    if h.dropped > 0 {
        violations += 1;
        let per_ring: Vec<String> = h
            .dropped_per_ring
            .iter()
            .enumerate()
            .filter(|(_, d)| **d > 0)
            .map(|(ring, d)| {
                if ring == log.workers {
                    format!("control x{d}")
                } else {
                    format!("worker {ring} x{d}")
                }
            })
            .collect();
        println!(
            "    ! VIOLATION: {} events dropped (ring overflow: {})",
            h.dropped,
            per_ring.join(", ")
        );
    }
    if h.waste_ratio() < 0.0 {
        violations += 1;
        println!(
            "    ! VIOLATION: negative waste ratio {:.3} (discard/execute counters inconsistent)",
            h.waste_ratio()
        );
    }
    if let Some(a) = alloc {
        println!(
            "    encode buffers: {} allocated, one per encode body that ran",
            a.heap_allocs
        );
    }
    if h.rollbacks > 0 {
        let hist: Vec<String> = h
            .cascade_hist
            .iter()
            .map(|(depth, n)| format!("depth {depth} x{n}"))
            .collect();
        println!(
            "    rollback cascades: {} (deepest {}, {} ready tasks deleted, {} bound cancelled)",
            hist.join(", "),
            h.max_cascade,
            h.cascade_total,
            h.cancelled_ready,
        );
    }
    let lat = h.check_latency;
    if lat.count > 0 {
        println!(
            "    check latency us: p50={} p90={} p99={} max={} (n={})",
            lat.p50, lat.p90, lat.p99, lat.max, lat.count
        );
    }
    // Per-lineage cost accounting: the offline version → lineage join
    // must conserve the aggregate wasted-µs total, and the costliest
    // lines are worth naming in the report.
    let lineage = log.lineage();
    if lineage.total_wasted_us() != h.wasted_us {
        violations += 1;
        println!(
            "    ! VIOLATION: lineage table accounts for {}us wasted but SpecHealth reports {}us",
            lineage.total_wasted_us(),
            h.wasted_us
        );
    }
    let mut roots = lineage.roots();
    if !roots.is_empty() {
        roots.sort_by_key(|r| std::cmp::Reverse(r.wasted_us));
        let worst: Vec<String> = roots
            .iter()
            .take(3)
            .map(|r| {
                format!(
                    "v{} wasted={}us depth<={}",
                    r.root, r.wasted_us, r.max_depth
                )
            })
            .collect();
        println!(
            "    lineage: {} root(s), {}us attributed waste; costliest: {}",
            roots.len(),
            lineage.total_wasted_us(),
            worst.join(", ")
        );
    }
    if h.faults + h.watchdog_cancels > 0 {
        println!(
            "    faults: {} task fault(s), {} watchdog cancel(s)",
            h.faults, h.watchdog_cancels
        );
    }
    if h.steps_down + h.steps_up + h.probes > 0 {
        println!(
            "    degradation: {} step(s) down, {} step(s) up, {} probe(s)",
            h.steps_down, h.steps_up, h.probes
        );
    }
    if h.replica_dispatches > 0 {
        println!(
            "    replication: {} replica(s), {} match(es), {} SDC detected ({} resolved)",
            h.replica_dispatches, h.replica_matches, h.sdc_detected, h.sdc_resolved
        );
    }
    violations
}

/// `--postmortem <dir>`: reload a crash bundle and reconstruct the
/// cascade forest offline. Exits non-zero when the bundle is unreadable
/// or its lineage table fails the conservation check.
fn postmortem_mode(dir: &str) -> ! {
    match postmortem::load_bundle(std::path::Path::new(dir)) {
        Ok(bundle) => {
            print!("{}", bundle.render_report());
            if let Err(e) = bundle.check() {
                eprintln!("conservation violation: {e}");
                std::process::exit(1);
            }
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("cannot load post-mortem bundle at {dir}: {e}");
            std::process::exit(1);
        }
    }
}

/// `--resume-audit <checkpoint.log>`: replay a checkpoint journal and
/// report what a crash right now would cost — checkpoint cadence, blocks
/// at risk past the committed prefix, and an estimated replay time from
/// the per-block lineage the journal records — plus how many records it
/// replayed and how many tail bytes it ignored. Exits non-zero when the
/// journal is unreadable or its header is damaged.
fn resume_audit_mode(path: &str) -> ! {
    let replay = std::fs::read(path)
        .map_err(|e| e.to_string())
        .and_then(|bytes| tvs_core::StreamSnapshot::replay(&bytes).map_err(|e| e.to_string()));
    let (snap, records, ignored) = match replay {
        Ok(r) => (r.snapshot, r.records, r.ignored_bytes),
        Err(e) => {
            eprintln!("cannot load checkpoint journal at {path}: {e}");
            std::process::exit(1);
        }
    };
    println!("== resume audit: {path} ==");
    println!(
        "source:           {} bytes = {} block(s) of {} bytes",
        snap.src_len,
        snap.n_blocks(),
        snap.block_bytes
    );
    println!(
        "committed prefix: {}/{} blocks, version {}",
        snap.prefix,
        snap.n_blocks(),
        if snap.committed_version == 0 {
            "none".to_string()
        } else {
            format!("v{}", snap.committed_version)
        }
    );
    println!(
        "durable stream:   {} bits ({} bytes on disk)",
        snap.stream_bit_len,
        snap.stream_bytes.len()
    );
    println!(
        "cadence:          every {} committed block(s) (worst-case loss window)",
        snap.cadence
    );
    println!("journal:          {records} record(s), {ignored} tail byte(s) ignored");
    let at_risk = snap.n_blocks().saturating_sub(snap.prefix);
    println!("blocks at risk:   {at_risk} (re-fed and re-encoded on resume)");
    // Replay estimate from the journal's recorded lineage: the mean
    // arrival→finalize span of committed blocks approximates the pipeline
    // latency each replayed block pays again; resumed blocks skip the
    // count/reduce/speculation phases, so this is an upper bound.
    let spans: Vec<u64> = snap
        .arrivals
        .iter()
        .zip(&snap.encoded_at)
        .map(|(&a, &e)| e.saturating_sub(a))
        .collect();
    if spans.is_empty() {
        println!("replay estimate:  n/a (no committed lineage yet — full re-run)");
    } else {
        let mean = spans.iter().sum::<u64>() / spans.len() as u64;
        let worst = spans.iter().copied().max().unwrap_or(0);
        println!(
            "replay estimate:  ≤ {} µs ({at_risk} block(s) × {mean} µs mean span; worst committed span {worst} µs)",
            at_risk * mean
        );
    }
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--postmortem") {
        match args.get(i + 1) {
            Some(dir) => postmortem_mode(dir),
            None => {
                eprintln!("usage: tvs-report --postmortem <bundle-dir>");
                std::process::exit(2);
            }
        }
    }
    if let Some(i) = args.iter().position(|a| a == "--resume-audit") {
        match args.get(i + 1) {
            Some(path) => resume_audit_mode(path),
            None => {
                eprintln!("usage: tvs-report --resume-audit <checkpoint.log>");
                std::process::exit(2);
            }
        }
    }
    // A two-phase stream (text, then PDF) whose symbol distribution shifts
    // mid-run: the step-0 prediction from the first block misfits the tail,
    // so tolerance checks fail and the report shows real rollbacks next to
    // the all-commits text phase.
    let mut data = tvs_workloads::generate(FileKind::Text, BYTES / 2, 2011);
    data.extend(tvs_workloads::generate(FileKind::Pdf, BYTES / 2, 2011));
    let platform = x86_smp(WORKERS);
    println!(
        "== tvs-report: huffman sim, text+pdf {} KiB, {WORKERS} workers, disk arrivals ==",
        BYTES / 1024
    );
    println!(
        "{:<13} {:>7} {:>6} {:>6} {:>7} {:>9} {:>7} {:>9}",
        "policy", "events", "fires", "opens", "commits", "rollbacks", "waste%", "makespan"
    );
    let mut keep = None;
    let mut violations = 0u32;
    for policy in DispatchPolicy::ALL {
        let mut cfg = HuffmanConfig::disk_x86(policy);
        // Step 0 predicts from the very first block, so even this small
        // input exercises the full speculation lifecycle.
        cfg.schedule = SpeculationSchedule::with_step(0);
        let (out, log) = sim_events(&data, &cfg, &platform, &Disk::default());
        violations += print_policy(
            policy,
            &log,
            out.metrics.makespan,
            Some(out.result.alloc_stats),
        );
        if policy.label() == "aggressive" {
            keep = Some(log);
        }
    }
    let log = keep.expect("aggressive run present");
    let (json, csv) =
        write_trace(&log, &results_dir(), "huffman_trace").expect("write trace files");
    println!("  -> {}", json.display());
    println!("  -> {}", csv.display());

    // Failure-model appendix: the same pipeline under the standard
    // injected-fault plan (caught panics, stalls, delayed/duplicated
    // completions, corrupted predictions), then an adversarial run whose
    // every prediction mispredicts, stepping the degradation machine
    // down. Injected panics are recovered by the executor; the hook keeps
    // their messages out of the report.
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
    println!("\n== chaos: aggressive under FaultPlan::chaos(2011) ==");
    let mut cfg = HuffmanConfig::disk_x86(DispatchPolicy::Aggressive);
    cfg.schedule = SpeculationSchedule::with_step(0);
    let disk = Disk::default();
    let mut chaos = HuffmanRun::sim(&data, &cfg, &platform, &disk);
    chaos.instruments = Instruments {
        recorder: Recorder::enabled(platform.workers),
        faults: FaultInjector::new(FaultPlan::chaos(2011)),
    };
    match run_huffman(&chaos) {
        Ok(report) => {
            let log = report.log.expect("enabled recorder drains");
            let out = report.end.into_outcome();
            violations += print_policy(
                DispatchPolicy::Aggressive,
                &log,
                out.metrics.makespan,
                Some(out.result.alloc_stats),
            )
        }
        Err(e) => println!("    structured failure: {e}"),
    }

    println!("== degradation: 100% misprediction with the degradation machine ==");
    let mut bc = HuffmanConfig::disk_x86(DispatchPolicy::Aggressive);
    bc.block_bytes = 1024;
    bc.reduce_ratio = 4;
    bc.offset_fanout = 4;
    bc.schedule = SpeculationSchedule::with_step(1);
    bc.verification = VerificationPolicy::Full;
    bc.tolerance = Tolerance { margin: 0.0 };
    bc.degrade = Some(DegradeConfig::default());
    let drifting: Vec<u8> = (0..32 * 1024usize)
        .map(|i| ((i / 1024) * 7 + i % 13) as u8)
        .collect();
    let slow = Uniform {
        gap_us: 100,
        start_us: 0,
    };
    let (out, log) = sim_events(&drifting, &bc, &platform, &slow);
    violations += print_policy(
        DispatchPolicy::Aggressive,
        &log,
        out.metrics.makespan,
        Some(out.result.alloc_stats),
    );
    // Flight-recorder self-check: dump the degraded run as a crash
    // bundle, reload it, and require the offline reconstruction to
    // conserve the live wasted-µs total.
    let meta = postmortem::BundleMeta::for_log(
        postmortem::Trigger::Degraded,
        2011,
        DispatchPolicy::Aggressive.label(),
        &log,
        None,
    );
    match postmortem::write_bundle(&results_dir(), &meta, &log, &[]) {
        Ok(path) => {
            println!("  -> {}", path.display());
            match postmortem::load_bundle(&path) {
                Ok(bundle) => {
                    if let Err(e) = bundle.check() {
                        println!("    ! VIOLATION: reloaded bundle fails conservation: {e}");
                        violations += 1;
                    }
                }
                Err(e) => {
                    println!("    ! VIOLATION: bundle does not reload: {e}");
                    violations += 1;
                }
            }
        }
        Err(e) => {
            println!("    ! VIOLATION: could not write post-mortem bundle: {e}");
            violations += 1;
        }
    }
    if violations > 0 {
        println!("\n{violations} health invariant violation(s)");
        std::process::exit(1);
    }
}
