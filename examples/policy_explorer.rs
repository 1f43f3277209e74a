//! Interactive exploration of the speculation parameter space.
//!
//! Runs the Huffman pipeline over any combination of workload, platform,
//! dispatch policy, speculation step, verification policy and tolerance,
//! and prints one row of results per configuration.
//!
//! Usage:
//!   cargo run --release --example policy_explorer -- [txt|bmp|pdf] [x86|cell] [disk|socket]
//!
//! With no arguments it sweeps policies for all three files on x86+disk.
//! Set `TVS_TRACE=1` to append a per-task-kind time breakdown and worker
//! utilisation for each configuration (from the run's event log), and
//! `TVS_TRACE_CSV=<dir>` to also write each log as a flat event CSV.

use std::collections::BTreeMap;
use tvs_core::{SpeculationSchedule, Tolerance, VerificationPolicy};
use tvs_iosim::{ArrivalModel, Disk, Socket};
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::runner::{run_huffman, HuffmanRun};
use tvs_sre::{cell_be, x86_smp, DispatchPolicy, Platform, Recorder};
use tvs_workloads::FileKind;

fn parse_kind(s: &str) -> FileKind {
    match s {
        "txt" => FileKind::Text,
        "bmp" => FileKind::Bmp,
        "pdf" => FileKind::Pdf,
        other => panic!("unknown file kind '{other}' (txt|bmp|pdf)"),
    }
}

fn run_row(
    label: &str,
    data: &[u8],
    cfg: &HuffmanConfig,
    platform: &Platform,
    arrival: &dyn ArrivalModel,
) {
    let trace_mode = std::env::var_os("TVS_TRACE").is_some();
    let mut run = HuffmanRun::sim(data, cfg, platform, arrival);
    if trace_mode {
        run.instruments.recorder = Recorder::enabled(platform.workers);
    }
    let report = run_huffman(&run).expect("a dark run cannot fail");
    let out = report.end.into_outcome();
    let stats = out.result.spec_stats.unwrap_or_default();
    println!(
        "{label:<46} {:>9.0} {:>9} {:>5} {:>6} {:>7} {:>9.3}",
        out.mean_latency(),
        out.completion_time(),
        stats.rollbacks,
        stats.checks,
        out.metrics.wasted_us / 1000,
        out.result.compression_ratio(),
    );
    let Some(log) = report.log else { return };
    if let Some(dir) = std::env::var_os("TVS_TRACE_CSV") {
        let path =
            std::path::Path::new(&dir).join(format!("{}.csv", label.replace([' ', '/'], "_")));
        std::fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir");
        std::fs::write(&path, log.to_event_csv()).expect("write trace");
        println!("    trace -> {}", path.display());
    }
    // Where the time went, per task kind, busiest first.
    let spans = log.tasks();
    let mut kinds: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for s in &spans {
        let k = kinds.entry(s.name).or_default();
        *k = (k.0 + 1, k.1 + s.busy_us(), k.2 + u64::from(s.discarded));
    }
    let mut kinds: Vec<_> = kinds.into_iter().collect();
    kinds.sort_by_key(|(_, (_, busy, _))| std::cmp::Reverse(*busy));
    for (kind, (count, busy, discarded)) in kinds {
        println!("    {kind:<12} {count:>5} tasks {busy:>8} us busy ({discarded} discarded)");
    }
    let busy: u64 = spans.iter().map(|s| s.busy_us()).sum();
    let capacity = (out.metrics.makespan * platform.workers as u64).max(1);
    println!(
        "    worker utilisation: mean {:.0}%",
        100.0 * busy as f64 / capacity as f64
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let kinds: Vec<FileKind> = match args.first() {
        Some(k) => vec![parse_kind(k)],
        None => FileKind::ALL.to_vec(),
    };
    let platform = match args.get(1).map(String::as_str) {
        Some("cell") => cell_be(16),
        _ => x86_smp(16),
    };
    let socket_mode = matches!(args.get(2).map(String::as_str), Some("socket"));

    println!(
        "{:<46} {:>9} {:>9} {:>5} {:>6} {:>7} {:>9}",
        "configuration", "lat(us)", "comp(us)", "rlbk", "checks", "waste", "ratio"
    );
    for kind in kinds {
        let data = tvs_workloads::generate_paper_sized(kind, 2011);
        let base = |p: DispatchPolicy| -> HuffmanConfig {
            match (platform.name, socket_mode) {
                ("cell", _) => HuffmanConfig::disk_cell(p),
                (_, true) => HuffmanConfig::socket_x86(p),
                _ => HuffmanConfig::disk_x86(p),
            }
        };
        let arrival: Box<dyn ArrivalModel> = if socket_mode {
            Box::new(Socket::default())
        } else {
            Box::new(Disk::default())
        };

        for policy in DispatchPolicy::ALL {
            let cfg = base(policy);
            let label = format!(
                "{} {} {} {}",
                kind.label(),
                platform.name,
                arrival.name(),
                policy.label()
            );
            run_row(&label, &data, &cfg, &platform, arrival.as_ref());
        }
        // Two extra columns of the design space on the balanced policy.
        for (name, vp) in [
            ("optimistic", VerificationPolicy::Optimistic),
            ("full", VerificationPolicy::Full),
        ] {
            let mut cfg = base(DispatchPolicy::Balanced);
            cfg.verification = vp;
            cfg.schedule = SpeculationSchedule::with_step(1);
            let label = format!(
                "{} {} {} balanced/{}",
                kind.label(),
                platform.name,
                arrival.name(),
                name
            );
            run_row(&label, &data, &cfg, &platform, arrival.as_ref());
        }
        for pct in [2.0, 5.0] {
            let mut cfg = base(DispatchPolicy::Balanced);
            cfg.tolerance = Tolerance::percent(pct);
            let label = format!(
                "{} {} {} balanced/tol={pct}%",
                kind.label(),
                platform.name,
                arrival.name()
            );
            run_row(&label, &data, &cfg, &platform, arrival.as_ref());
        }
        println!();
    }
}
