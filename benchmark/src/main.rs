//! End-to-end benchmark of the threaded speculative Huffman pipeline.
//!
//! Three ways in (see `README.md`):
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one workload, one
//!   phase; the last line of standard output is the result as JSON. This is
//!   the form `BENCHMARK.json`'s command is run in.
//! * `run [--seed N] [--seconds S] [--quick]` — every workload, measured
//!   then traced, one child process each (so peak RSS is per workload and
//!   one pipeline is alive at a time); results land in `out/results.json`.
//! * `repeat [--seed N] [--seconds S] [--runs R]` — two sets of `R`
//!   measured runs per workload, compared against the bounds in
//!   `BENCHMARK.json`; non-zero exit on a miss.

mod measure;
mod os;
mod spans;
mod stats;
mod sut;

use measure::{Metric, Options, Report, WORKLOADS};
use stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use sut::{Contract, Declared, ResultLine};

/// The benchmark's own directory, as built.
const HOME: &str = env!("CARGO_MANIFEST_DIR");

fn out_dir() -> PathBuf {
    Path::new(HOME).join("out")
}

fn contract() -> Contract {
    let path = Path::new(HOME).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    sut::parse_contract(&text).expect("BENCHMARK.json has the contract's shape")
}

/// `--key value` pairs and bare `--flag`s after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == key)?;
        Some(
            self.0
                .get(at + 1)
                .unwrap_or_else(|| usage(&format!("{key} needs a value"))),
        )
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.value(key).map(|v| {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("bad value for {key}: {v}")))
        })
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "{problem}\n\
         usage: tvs-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--quick]\n\
         \x20      tvs-benchmark run    [--seed <n>] [--seconds <s>] [--quick]\n\
         \x20      tvs-benchmark repeat [--seed <n>] [--seconds <s>] [--runs <r>]",
        WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2)
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let sub = match argv.first().map(String::as_str) {
        Some("run") | Some("repeat") => argv.remove(0),
        _ => String::new(),
    };
    let args = Args(argv);
    match sub.as_str() {
        "run" => run_all(&args),
        "repeat" => repeat(&args),
        _ => one_workload(&args),
    }
}

/// The driver form: one workload, one phase, one JSON line.
fn one_workload(args: &Args) -> ExitCode {
    let name = args
        .value("--workload")
        .unwrap_or_else(|| usage("--workload is required"));
    let wl = (WORKLOADS.iter().find(|w| w.name == name))
        .unwrap_or_else(|| usage(&format!("unknown workload {name}")));
    let opt = Options {
        seed: args.parsed("--seed").unwrap_or(7),
        seconds: args.parsed("--seconds").unwrap_or(10.0),
        trace: match args.value("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => usage(&format!("--trace takes 0 or 1, not {other}")),
        },
        quick: args.flag("--quick"),
    };
    let report = measure::run_workload(wl, &opt, &out_dir());
    print_table(wl.name, &opt, &report);
    println!("{}", result_line(&report));
    ExitCode::SUCCESS
}

fn print_table(workload: &str, opt: &Options, r: &Report) {
    eprintln!(
        "workload {workload}  seed {}  seconds {}  trace {}  workers {}  nproc {}",
        opt.seed,
        opt.seconds,
        u8::from(opt.trace),
        sut::WORKERS,
        os::nproc()
    );
    eprintln!(
        "{:<36} {:>9} {:>6} {:>14} {:>14} {:>14}",
        "metric", "unit", "n", "median", "q1", "q3"
    );
    for Metric {
        name,
        unit,
        summary: s,
    } in &r.metrics
    {
        eprintln!(
            "{name:<36} {unit:>9} {:>6} {:>14.4} {:>14.4} {:>14.4}",
            s.n, s.median, s.q1, s.q3
        );
    }
    eprintln!(
        "{:<36} {:>9} {:>6} {:>14.4}   ({} failed of {} runs attempted)",
        "failed_share",
        "fraction",
        r.attempted,
        r.failed as f64 / r.attempted as f64,
        r.failed,
        r.attempted
    );
}

fn result_line(r: &Report) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.failed == 0,
        r.attempted,
        r.failed
    );
    for (i, m) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.summary.median, m.unit
        )
        .expect("writing to a String");
    }
    s.push_str("}}");
    s
}

/// Re-execute this binary in the driver form and parse its last line. The
/// child's table goes to this process's standard error when `show` is set.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    show: bool,
) -> ResultLine {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(if show {
            Stdio::inherit()
        } else {
            Stdio::null()
        });
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().expect("child process runs");
    assert!(
        out.status.success(),
        "{workload}: child exited {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("child prints UTF-8");
    let last = stdout.lines().last().expect("child printed a result line");
    sut::parse_result_line(last).unwrap_or_else(|| panic!("unparsable result line: {last}"))
}

/// What is wrong with one workload's readings against the contract's list.
fn name_problems(workload: &str, declared: &[Declared], got: &ResultLine) -> Vec<String> {
    let mut problems = Vec::new();
    let legal = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    for (name, value, unit) in &got.metrics {
        if !legal(name) {
            problems.push(format!("{workload}: illegal metric name {name:?}"));
        }
        match declared.iter().find(|d| &d.name == name) {
            None => problems.push(format!("{workload}: {name} is not in BENCHMARK.json")),
            Some(d) if &d.unit != unit => problems.push(format!(
                "{workload}: {name} has unit {unit}, BENCHMARK.json says {}",
                d.unit
            )),
            Some(_) => {}
        }
        if !value.is_finite() {
            problems.push(format!("{workload}: {name} is {value}"));
        }
    }
    for d in declared {
        if !got.metrics.iter().any(|(n, _, _)| n == &d.name) {
            problems.push(format!("{workload}: {} was not printed", d.name));
        }
    }
    problems
}

/// Every workload, measured then traced, one process each.
fn run_all(args: &Args) -> ExitCode {
    let contract = contract();
    let seed = args.parsed("--seed").unwrap_or(7);
    let seconds = (args.parsed("--seconds")).unwrap_or(contract.run_seconds as f64);
    let quick = args.flag("--quick");
    let mut problems = Vec::new();
    if contract.workloads != WORKLOADS.map(|w| w.name)
        || contract.workloads.len() > 8
        || contract.end_to_end.len() > 16
        || contract.per_layer.len() > 128
    {
        problems.push("BENCHMARK.json's workloads or metric counts are off".to_string());
    }
    let mut results = String::from("{\n");
    for (i, wl) in WORKLOADS.iter().enumerate() {
        let measured = child(wl.name, seed, seconds, false, quick, true);
        let traced = child(wl.name, seed, seconds, true, quick, true);
        problems.extend(name_problems(wl.name, &contract.end_to_end, &measured));
        problems.extend(name_problems(wl.name, &contract.per_layer, &traced));
        for r in [&measured, &traced] {
            if !r.correct || r.failed > 0 {
                problems.push(format!(
                    "{}: {} of {} runs failed",
                    wl.name, r.failed, r.attempted
                ));
            }
        }
        let sep = if i == 0 { "" } else { ",\n" };
        write!(results, "{sep}  \"{}\": {{", wl.name).expect("writing to a String");
        for (j, (name, value, unit)) in measured.metrics.iter().chain(&traced.metrics).enumerate() {
            let sep = if j == 0 { "" } else { "," };
            write!(
                results,
                "{sep}\n    \"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String");
        }
        results.push_str("\n  }");
    }
    results.push_str("\n}\n");
    let path = out_dir().join("results.json");
    std::fs::create_dir_all(out_dir()).expect("out/ can be created");
    std::fs::write(&path, results).expect("out/results.json is writable");
    eprintln!("results written to {}", path.display());
    for p in &problems {
        eprintln!("PROBLEM {p}");
    }
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Two sets of `--runs` measured runs per workload (the same seeds in both
/// sets), judged the way the bounds are meant: within a set every metric's
/// interquartile spread stays within its bound (`setup_s` excepted), and
/// the second set's median is not worse than the first's by more than it.
fn repeat(args: &Args) -> ExitCode {
    let contract = contract();
    let seed: u64 = args.parsed("--seed").unwrap_or(7);
    let seconds = (args.parsed("--seconds")).unwrap_or(contract.run_seconds as f64);
    let runs: u64 = args.parsed("--runs").unwrap_or(10);
    // sets[set][workload][metric] -> one value per run
    let mut sets: Vec<BTreeMap<&str, BTreeMap<String, Vec<f64>>>> = Vec::new();
    let mut missed = false;
    for set in 0..2 {
        let mut by_workload = BTreeMap::new();
        for wl in &WORKLOADS {
            let mut by_metric: BTreeMap<String, Vec<f64>> = BTreeMap::new();
            for i in 0..runs {
                let r = child(wl.name, seed + i, seconds, false, false, false);
                if r.failed > 0 {
                    eprintln!(
                        "MISS {}: {} of {} runs failed",
                        wl.name, r.failed, r.attempted
                    );
                    missed = true;
                }
                for (name, value, _) in r.metrics {
                    by_metric.entry(name).or_default().push(value);
                }
                eprintln!("set {set} {} run {i} done", wl.name);
            }
            by_workload.insert(wl.name, by_metric);
        }
        sets.push(by_workload);
    }
    println!(
        "{:<11} {:<27} {:>12} {:>8} {:>12} {:>8} {:>9} {:>6}",
        "workload", "metric", "median_1", "spread_1", "median_2", "spread_2", "worse_by", "bound"
    );
    for wl in &WORKLOADS {
        for d in &contract.end_to_end {
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            let summary = |set: usize| {
                Summary::of(&sets[set][wl.name][&d.name]).expect("the metric was printed")
            };
            let (a, b) = (summary(0), summary(1));
            let worse_by = if d.higher_is_better {
                (a.median - b.median) / a.median
            } else {
                (b.median - a.median) / a.median
            };
            let spread_matters = d.name != "setup_s";
            let miss =
                worse_by > bound || (spread_matters && (a.spread() > bound || b.spread() > bound));
            let near = spread_matters && a.spread().max(b.spread()) > bound / 3.0;
            missed |= miss;
            println!(
                "{:<11} {:<27} {:>12.4} {:>8.4} {:>12.4} {:>8.4} {:>+9.4} {:>6.3}{}",
                wl.name,
                d.name,
                a.median,
                a.spread(),
                b.median,
                b.spread(),
                worse_by,
                bound,
                if miss {
                    "  MISS"
                } else if near {
                    "  (spread above a third of the bound)"
                } else {
                    ""
                }
            );
        }
    }
    if missed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_parser() {
        let report = Report {
            attempted: 12,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "throughput_mb_s".into(),
                    unit: "MiB/s",
                    summary: Summary::of(&[301.25]).unwrap(),
                },
                Metric {
                    name: "setup_s".into(),
                    unit: "s",
                    summary: Summary::of(&[0.5]).unwrap(),
                },
            ],
        };
        let line = result_line(&report);
        assert!(!line.contains('\n'));
        let parsed = sut::parse_result_line(&line).expect("own output parses");
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (12, 0));
        assert!(parsed
            .metrics
            .contains(&("throughput_mb_s".into(), 301.25, "MiB/s".into())));
    }

    /// `BENCHMARK.json` against the contract's limits and this harness.
    #[test]
    fn benchmark_json_is_within_the_contract() {
        let c = contract();
        assert_eq!(c.workloads, WORKLOADS.map(|w| w.name));
        assert!((1..=60).contains(&c.run_seconds));
        assert!((2..=8).contains(&c.workloads.len()));
        assert!((1..=16).contains(&c.end_to_end.len()));
        assert!((1..=128).contains(&c.per_layer.len()));
        let mut seen = std::collections::BTreeSet::new();
        for d in c.end_to_end.iter().chain(&c.per_layer) {
            assert!(seen.insert(&d.name), "{} is declared twice", d.name);
            assert!(d.unit.len() <= 16 && !d.unit.is_empty());
            assert!(
                (d.unit.chars()).all(|ch| ch.is_ascii_alphanumeric() || "_/%.-".contains(ch)),
                "unit {}",
                d.unit
            );
        }
        for d in &c.end_to_end {
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", d.name);
        }
        let setup = (c.end_to_end.iter().find(|d| d.name == "setup_s")).expect("setup_s");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(c.per_layer.iter().all(|d| d.bound.is_none()));
    }
}
