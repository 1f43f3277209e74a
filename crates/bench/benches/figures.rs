//! End-to-end figure-regeneration benchmarks: one representative run per
//! paper experiment family, so regressions in pipeline performance (wall
//! time of the harness itself) are tracked.
//!
//! Run with `cargo bench --bench figures`; numbers land in
//! `results/figures_bench.csv`.

//!
//! Set `TVS_EMIT_TRACE=1` to additionally write one traced aggressive
//! run's event log to `results/figures_trace.json` (Perfetto) and
//! `results/figures_trace_events.csv`.

use tvs_bench::microbench::{bench_with, black_box, Measurement, Opts};
use tvs_bench::{results_dir, sim_events, sim_outcome, write_trace};
use tvs_iosim::Disk;
use tvs_pipelines::config::HuffmanConfig;
use tvs_sre::{cell_be, x86_smp, DispatchPolicy};
use tvs_workloads::FileKind;

fn main() {
    let mut rows: Vec<Measurement> = Vec::new();
    let x86 = x86_smp(16);
    let cell = cell_be(16);
    for kind in FileKind::ALL {
        let data = tvs_workloads::generate(kind, 1 << 20, 2011);
        let cfg = HuffmanConfig::disk_x86(DispatchPolicy::Balanced);
        rows.push(bench_with(
            &format!("paper_runs/x86_balanced/{}", kind.label()),
            Opts::heavy(),
            || black_box(sim_outcome(&data, &cfg, &x86, &Disk::default())),
        ));
    }
    let data = tvs_workloads::generate(FileKind::Text, 1 << 20, 2011);
    let cfg = HuffmanConfig::disk_cell(DispatchPolicy::Balanced);
    rows.push(bench_with(
        "paper_runs/cell_balanced_txt",
        Opts::heavy(),
        || black_box(sim_outcome(&data, &cfg, &cell, &Disk::default())),
    ));
    tvs_bench::microbench::write_csv(&results_dir().join("figures_bench.csv"), &rows)
        .expect("write csv");

    if std::env::var_os("TVS_EMIT_TRACE").is_some() {
        let cfg = HuffmanConfig::disk_x86(DispatchPolicy::Aggressive);
        let (_, log) = sim_events(&data, &cfg, &x86, &Disk::default());
        let (json, csv) =
            write_trace(&log, &results_dir(), "figures_trace").expect("write trace files");
        println!("traced run -> {}", json.display());
        println!("traced run -> {}", csv.display());
    }
}
