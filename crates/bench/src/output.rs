//! CSV/summary emission for the figure binaries.

use std::path::{Path, PathBuf};
use tvs_pipelines::report::Figure;
use tvs_trace::TraceLog;

/// Directory figure CSVs are written to (`results/` under the workspace
/// root, overridable with `TVS_RESULTS_DIR`).
///
/// Anchored at the workspace root rather than the current directory so
/// `cargo bench` (which runs with the *package* directory as cwd) and the
/// figure binaries (run from the root) agree on where numbers land.
pub fn results_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("TVS_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    // crates/bench -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives two levels under the workspace root")
        .join("results")
}

/// Write each figure's CSV under `dir` and print its summary to stdout.
/// Set `TVS_PLOT=1` to also print compact ASCII plots of every curve.
pub fn emit(figures: &[Figure], dir: &Path) -> std::io::Result<()> {
    let plot = std::env::var_os("TVS_PLOT").is_some();
    std::fs::create_dir_all(dir)?;
    for f in figures {
        let path = dir.join(format!("{}.csv", f.id));
        std::fs::write(&path, f.to_csv())?;
        print!("{}", f.to_summary());
        if plot {
            print!("{}", f.to_ascii_plot(72, 14));
        }
        println!("  -> {}", path.display());
    }
    Ok(())
}

/// Write one drained speculation event log under `dir` in both export
/// formats: `<stem>.json` is Chrome trace-event / Perfetto JSON (load it
/// at `ui.perfetto.dev` or `chrome://tracing`), `<stem>_events.csv` is
/// the flat per-event dump. Returns `(json_path, csv_path)`.
pub fn write_trace(log: &TraceLog, dir: &Path, stem: &str) -> std::io::Result<(PathBuf, PathBuf)> {
    std::fs::create_dir_all(dir)?;
    let json = dir.join(format!("{stem}.json"));
    std::fs::write(&json, log.to_perfetto_json())?;
    let csv = dir.join(format!("{stem}_events.csv"));
    std::fs::write(&csv, log.to_event_csv())?;
    Ok((json, csv))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvs_pipelines::report::Series;

    #[test]
    fn emit_writes_csv_files() {
        let dir = std::env::temp_dir().join(format!("tvs-emit-test-{}", std::process::id()));
        let figs = vec![Figure {
            id: "figX".into(),
            title: "t".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![Series::from_values("a", [1.0])],
        }];
        emit(&figs, &dir).unwrap();
        let content = std::fs::read_to_string(dir.join("figX.csv")).unwrap();
        assert!(content.starts_with("x,a"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_trace_emits_both_formats() {
        use tvs_trace::{EventKind, Tracer};
        let tracer = Tracer::enabled(1);
        tracer.emit(
            0,
            EventKind::TaskStart {
                id: 1,
                name: "t",
                version: None,
                tag: 0,
            },
        );
        tracer.emit(
            0,
            EventKind::TaskEnd {
                id: 1,
                name: "t",
                version: None,
                discarded: false,
            },
        );
        let log = tracer.drain().unwrap();
        let dir = std::env::temp_dir().join(format!("tvs-trace-test-{}", std::process::id()));
        let (json, csv) = write_trace(&log, &dir, "t").unwrap();
        let j = std::fs::read_to_string(&json).unwrap();
        assert!(j.contains("traceEvents"), "perfetto envelope present");
        let c = std::fs::read_to_string(&csv).unwrap();
        assert!(c.starts_with("seq,"), "event csv header present");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
