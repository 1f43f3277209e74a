//! One function per paper figure.
//!
//! Exact experiment grid of §V, reproduced on the discrete-event executor.
//! The per-experiment index (parameters, modules, expectations) lives in
//! DESIGN.md; measured-vs-paper numbers are recorded in EXPERIMENTS.md.

use tvs_core::{SpeculationSchedule, Tolerance, VerificationPolicy};
use tvs_iosim::{ArrivalModel, Disk, Socket};
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::report::{Figure, Series};
use tvs_pipelines::runner::{run_huffman, HuffmanRun, RunOutcome};
use tvs_sre::{cell_be, x86_smp, DispatchPolicy, Platform, TraceLog, Tracer};
use tvs_workloads::FileKind;

/// Seed for the synthetic paper-sized inputs.
pub const DATA_SEED: u64 = 2011;

/// Paper worker count: "in both cases, we use 16 worker threads".
pub const WORKERS: usize = 16;

/// Generate (and cache per call) the paper-sized input for `kind`.
pub fn input_for(kind: FileKind) -> Vec<u8> {
    tvs_workloads::generate_paper_sized(kind, DATA_SEED)
}

/// The x86 evaluation platform.
pub fn x86() -> Platform {
    x86_smp(WORKERS)
}

/// The Cell evaluation platform.
pub fn cell() -> Platform {
    cell_be(WORKERS)
}

/// The disk arrival model ("reading from a hard disk cache ... very low
/// I/O latency"): fast enough that compute, not I/O, dominates.
pub fn disk() -> Disk {
    Disk::default()
}

/// The long-distance tunneled-socket arrival model.
pub fn socket() -> Socket {
    Socket::default()
}

/// One dark, from-scratch run on the discrete-event executor: what every
/// figure and ablation cell is.
pub fn sim_outcome(
    data: &[u8],
    cfg: &HuffmanConfig,
    platform: &Platform,
    arrival: &dyn ArrivalModel,
) -> RunOutcome {
    let report = run_huffman(&HuffmanRun::sim(data, cfg, platform, arrival));
    report.expect("a dark run cannot fail").end.into_outcome()
}

/// [`sim_outcome`] with the speculation-lifecycle event log on.
pub fn sim_events(
    data: &[u8],
    cfg: &HuffmanConfig,
    platform: &Platform,
    arrival: &dyn ArrivalModel,
) -> (RunOutcome, TraceLog) {
    let mut run = HuffmanRun::sim(data, cfg, platform, arrival);
    run.instruments.tracer = Tracer::enabled(platform.workers);
    let report = run_huffman(&run).expect("nothing injected, nothing fails");
    let log = report.log.expect("enabled tracer drains");
    (report.end.into_outcome(), log)
}

fn latency_series(label: &str, out: &RunOutcome) -> Series {
    Series::from_values(label, out.latencies().into_iter().map(|l| l as f64))
}

fn policy_cfg(base: fn(DispatchPolicy) -> HuffmanConfig, p: DispatchPolicy) -> HuffmanConfig {
    base(p)
}

/// Figures 3a–3d: per-element latency and completion time for TXT/BMP/PDF
/// under the four dispatch policies, x86 + disk.
pub fn fig3() -> Vec<Figure> {
    policy_figures("fig3", "x86", &x86(), HuffmanConfig::disk_x86)
}

/// Figures 4a–4d: the same grid on the Cell platform (16:1 ratios,
/// multiple-buffering prefetch queues).
pub fn fig4() -> Vec<Figure> {
    policy_figures("fig4", "Cell", &cell(), HuffmanConfig::disk_cell)
}

fn policy_figures(
    id: &str,
    plat_name: &str,
    platform: &Platform,
    base: fn(DispatchPolicy) -> HuffmanConfig,
) -> Vec<Figure> {
    let mut figs = Vec::new();
    let mut runtime_series: Vec<Series> = DispatchPolicy::ALL
        .iter()
        .map(|p| Series {
            label: p.label().into(),
            points: vec![],
        })
        .collect();
    for (fi, kind) in FileKind::ALL.iter().enumerate() {
        let data = input_for(*kind);
        let mut series = Vec::new();
        for (pi, policy) in DispatchPolicy::ALL.iter().enumerate() {
            let cfg = policy_cfg(base, *policy);
            let out = sim_outcome(&data, &cfg, platform, &disk());
            series.push(latency_series(policy.label(), &out));
            runtime_series[pi]
                .points
                .push((fi as f64, out.completion_time() as f64));
        }
        figs.push(Figure {
            id: format!("{id}{}", [b'a', b'b', b'c'][fi] as char),
            title: format!(
                "Latency per element, {} file, {plat_name}+disk",
                kind.label()
            ),
            x_label: "element".into(),
            y_label: "latency_us".into(),
            series,
        });
    }
    figs.push(Figure {
        id: format!("{id}d"),
        title: format!("Completion times, {plat_name}+disk (x: 0=TXT 1=BMP 2=PDF)"),
        x_label: "file".into(),
        y_label: "completion_us".into(),
        series: runtime_series,
    });
    figs
}

/// Figures 5a–5c: average latency vs speculation step size per policy.
/// Step 0 speculates from the first block histogram; the BMP axis stops at
/// 16 as in the paper.
pub fn fig5() -> Vec<Figure> {
    let platform = x86();
    let mut figs = Vec::new();
    for (fi, kind) in FileKind::ALL.iter().enumerate() {
        let data = input_for(*kind);
        let steps: &[u64] = if *kind == FileKind::Bmp {
            &[0, 1, 2, 4, 8, 16]
        } else {
            &[0, 1, 2, 4, 8, 16, 32]
        };
        let mut series = Vec::new();
        for policy in DispatchPolicy::ALL {
            let mut pts = Vec::new();
            if policy == DispatchPolicy::NonSpeculative {
                // One run; the baseline is flat across step sizes.
                let cfg = HuffmanConfig::disk_x86(policy);
                let out = sim_outcome(&data, &cfg, &platform, &disk());
                for (i, _) in steps.iter().enumerate() {
                    pts.push((i as f64, out.mean_latency()));
                }
            } else {
                for (i, &step) in steps.iter().enumerate() {
                    let mut cfg = HuffmanConfig::disk_x86(policy);
                    cfg.schedule = SpeculationSchedule::with_step(step);
                    let out = sim_outcome(&data, &cfg, &platform, &disk());
                    pts.push((i as f64, out.mean_latency()));
                }
            }
            series.push(Series {
                label: policy.label().into(),
                points: pts,
            });
        }
        figs.push(Figure {
            id: format!("fig5{}", [b'a', b'b', b'c'][fi] as char),
            title: format!(
                "Average latency vs step size, {} file, x86+disk (x index into steps {:?})",
                kind.label(),
                steps
            ),
            x_label: "step_index".into(),
            y_label: "avg_latency_us".into(),
            series,
        });
    }
    figs
}

/// Figures 6a–6d: verification-frequency comparison (non-spec / balanced
/// baseline / optimistic / full), x86 + disk.
pub fn fig6() -> Vec<Figure> {
    let platform = x86();
    let variants: [(&str, Option<VerificationPolicy>); 4] = [
        ("non-spec", None),
        ("balanced", Some(VerificationPolicy::baseline())),
        ("optimistic", Some(VerificationPolicy::Optimistic)),
        ("full", Some(VerificationPolicy::Full)),
    ];
    let mut figs = Vec::new();
    let mut runtime_series: Vec<Series> = variants
        .iter()
        .map(|(l, _)| Series {
            label: (*l).into(),
            points: vec![],
        })
        .collect();
    for (fi, kind) in FileKind::ALL.iter().enumerate() {
        let data = input_for(*kind);
        let mut series = Vec::new();
        for (vi, (label, verify)) in variants.iter().enumerate() {
            let cfg = match verify {
                None => HuffmanConfig::disk_x86(DispatchPolicy::NonSpeculative),
                Some(v) => {
                    let mut c = HuffmanConfig::disk_x86(DispatchPolicy::Balanced);
                    c.verification = *v;
                    // The optimistic extreme "speculates based on the first
                    // tree available (from the first reduce)".
                    if *v != VerificationPolicy::baseline() {
                        c.schedule = SpeculationSchedule::with_step(1);
                    }
                    c
                }
            };
            let out = sim_outcome(&data, &cfg, &platform, &disk());
            series.push(latency_series(label, &out));
            runtime_series[vi]
                .points
                .push((fi as f64, out.completion_time() as f64));
        }
        figs.push(Figure {
            id: format!("fig6{}", [b'a', b'b', b'c'][fi] as char),
            title: format!(
                "Latency per element vs verification policy, {} file, x86+disk",
                kind.label()
            ),
            x_label: "element".into(),
            y_label: "latency_us".into(),
            series,
        });
    }
    figs.push(Figure {
        id: "fig6d".into(),
        title: "Completion times vs verification policy, x86+disk (x: 0=TXT 1=BMP 2=PDF)".into(),
        x_label: "file".into(),
        y_label: "completion_us".into(),
        series: runtime_series,
    });
    figs
}

/// Figures 7a–7b: socket input — arrival time and latency per element for
/// TXT and PDF (balanced, 8:1 ratios).
pub fn fig7() -> Vec<Figure> {
    let platform = x86();
    let mut figs = Vec::new();
    for (fi, kind) in [FileKind::Text, FileKind::Pdf].iter().enumerate() {
        let data = input_for(*kind);
        let cfg = HuffmanConfig::socket_x86(DispatchPolicy::Balanced);
        let out = sim_outcome(&data, &cfg, &platform, &socket());
        let arrivals = Series::from_values("arrival_time", out.arrivals.iter().map(|&a| a as f64));
        figs.push(Figure {
            id: format!("fig7{}", [b'a', b'b'][fi] as char),
            title: format!(
                "Socket I/O: arrival time and latency, {} file",
                kind.label()
            ),
            x_label: "element".into(),
            y_label: "time_or_latency_us".into(),
            series: vec![arrivals, latency_series("latency", &out)],
        });
    }
    figs
}

/// Figure 8: latency per element with 2/4/8 CPUs under slow (socket) I/O.
/// Early speculation (step 1) keeps the serial prologue short so the
/// burst-drain behaviour — where worker count matters — dominates.
pub fn fig8() -> Vec<Figure> {
    let data = input_for(FileKind::Text);
    let mut cfg = HuffmanConfig::socket_x86(DispatchPolicy::Balanced);
    cfg.schedule = SpeculationSchedule::with_step(1);
    let mut series = Vec::new();
    for workers in [2usize, 4, 8] {
        let out = sim_outcome(&data, &cfg, &x86_smp(workers), &socket());
        series.push(latency_series(&format!("{workers} cpu"), &out));
    }
    vec![Figure {
        id: "fig8".into(),
        title: "Latency per element vs CPU count, TXT file, socket I/O".into(),
        x_label: "element".into(),
        y_label: "latency_us".into(),
        series,
    }]
}

/// Figures 9a–9b: tolerance margins 1 %, 2 %, 5 % on TXT and PDF
/// (aggressive dispatching, full verification — the configuration where
/// the late-detection effect shows).
pub fn fig9() -> Vec<Figure> {
    let platform = x86();
    let mut figs = Vec::new();
    for (fi, kind) in [FileKind::Text, FileKind::Pdf].iter().enumerate() {
        let data = input_for(*kind);
        let mut series = Vec::new();
        for pct in [1.0f64, 2.0, 5.0] {
            let mut cfg = HuffmanConfig::disk_x86(DispatchPolicy::Aggressive);
            cfg.tolerance = Tolerance::percent(pct);
            cfg.schedule = SpeculationSchedule::with_step(2);
            let out = sim_outcome(&data, &cfg, &platform, &disk());
            series.push(latency_series(&format!("{pct:.2}%"), &out));
        }
        figs.push(Figure {
            id: format!("fig9{}", [b'a', b'b'][fi] as char),
            title: format!(
                "Latency per element vs tolerance, {} file, x86+disk",
                kind.label()
            ),
            x_label: "element".into(),
            y_label: "latency_us".into(),
            series,
        });
    }
    figs
}

/// All figures, in order (the `all-figures` binary).
pub fn all_figures() -> Vec<Figure> {
    let mut v = Vec::new();
    v.extend(fig3());
    v.extend(fig4());
    v.extend(fig5());
    v.extend(fig6());
    v.extend(fig7());
    v.extend(fig8());
    v.extend(fig9());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_paper_sized() {
        assert_eq!(input_for(FileKind::Text).len(), 4 << 20);
        assert_eq!(input_for(FileKind::Bmp).len(), 2 << 20);
    }

    #[test]
    fn platforms_have_sixteen_workers() {
        assert_eq!(x86().workers, 16);
        assert_eq!(cell().workers, 16);
        assert_eq!(cell().prefetch_depth, 4);
    }
}
