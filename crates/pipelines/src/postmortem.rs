//! Post-mortem crash bundles — the flight recorder's black box.
//!
//! When a run dies (structured [`tvs_sre::RunError`], degraded run under
//! test, unresolved SDC, watchdog stall) or a caller asks explicitly, the
//! full observability state is dumped as one self-contained directory
//! under `results/postmortem_<rev>_<seed>/`:
//!
//! | member               | contents                                            |
//! |----------------------|-----------------------------------------------------|
//! | `MANIFEST.json`      | schema, rev, seed, trigger, policy, workers, timebase, health summary |
//! | `trace.json`         | Perfetto / Chrome trace-event JSON of the event log |
//! | `trace_events.csv`   | flat per-event dump ([`TraceLog::to_event_csv`])    |
//! | `lineage.csv`        | version → lineage cost join ([`LineageTable::to_csv`]) |
//! | `metrics.jsonl`      | metrics snapshots, one [`MetricsSnapshot`](tvs_metrics::MetricsSnapshot) JSONL line each (optional) |
//!
//! The write is atomic: members land in a `.tmp` sibling first and the
//! directory is renamed into place, so a bundle either exists completely
//! or not at all — a second crash mid-dump cannot leave a half-readable
//! bundle. `tvs-report --postmortem <dir>` reloads a bundle offline and
//! reconstructs the rollback cascade forest with per-lineage wasted-µs
//! totals; [`Bundle::check`] verifies the lineage table still conserves
//! the manifest's `wasted_us` total.
//!
//! Bundles are deterministic for simulator runs (virtual timebase): two
//! captures of the same seeded crash are byte-identical, which the
//! `postmortem_bundle` integration test asserts.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use tvs_trace::{LineageTable, Timebase, TraceLog};

/// Version of the bundle layout and `MANIFEST.json` schema (2: no
/// `replays` column in `lineage.csv`).
pub const BUNDLE_SCHEMA_VERSION: u64 = 2;

/// What fired the capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// The run returned a structured `RunError`.
    RunError,
    /// The degradation machine stepped down.
    Degraded,
    /// Replication detected a silent corruption that was never resolved.
    UnresolvedSdc,
    /// The watchdog cancelled a stalled task.
    WatchdogStall,
    /// Explicit capture requested by the caller.
    Explicit,
}

impl Trigger {
    /// Stable string form used in `MANIFEST.json`.
    pub fn name(self) -> &'static str {
        match self {
            Trigger::RunError => "run-error",
            Trigger::Degraded => "degraded",
            Trigger::UnresolvedSdc => "unresolved-sdc",
            Trigger::WatchdogStall => "watchdog-stall",
            Trigger::Explicit => "explicit",
        }
    }

    /// Inverse of [`Trigger::name`].
    pub fn parse(s: &str) -> Option<Trigger> {
        Some(match s {
            "run-error" => Trigger::RunError,
            "degraded" => Trigger::Degraded,
            "unresolved-sdc" => Trigger::UnresolvedSdc,
            "watchdog-stall" => Trigger::WatchdogStall,
            "explicit" => Trigger::Explicit,
            _ => return None,
        })
    }
}

/// Everything identifying one capture, serialised into `MANIFEST.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleMeta {
    /// Source revision the binary was built from (`TVS_REV`, or `dev`).
    pub rev: String,
    /// Fault-plan seed of the crashed run (0 when no injector was armed).
    pub seed: u64,
    /// What fired the capture.
    pub trigger: Trigger,
    /// Dispatch-policy label of the run.
    pub policy: String,
    /// Worker count of the run.
    pub workers: usize,
    /// Which clock stamped the trace (`wall-us` or `virtual-us`).
    pub timebase: String,
    /// The structured error message, when the trigger carried one.
    pub error: Option<String>,
    /// `SpecHealth::wasted_us` of the captured log — the conservation
    /// target the reloaded lineage table is checked against.
    pub wasted_us: u64,
    /// Event count of the captured log, for quick triage.
    pub events: u64,
    /// Rollback count of the captured log, for quick triage.
    pub rollbacks: u64,
}

/// The source revision bundles are filed under: `TVS_REV`, or `dev`.
pub fn rev() -> String {
    std::env::var("TVS_REV").unwrap_or_else(|_| "dev".into())
}

/// Directory crash bundles are written to when the caller doesn't pick
/// one: `$TVS_RESULTS_DIR`, or `results/` under the workspace root.
pub fn default_bundle_root() -> PathBuf {
    if let Some(dir) = std::env::var_os("TVS_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    // crates/pipelines -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives two levels under the workspace root")
        .join("results")
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                if let Some(c) = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                    out.push(c);
                }
            }
            Some(c) => out.push(c),
            None => {}
        }
    }
    out
}

/// Extract `"key":"value"` (string) from a flat one-line JSON object.
fn json_str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    // Scan to the closing quote, honouring backslash escapes.
    let mut end = 0;
    let mut escaped = false;
    for (i, c) in rest.char_indices() {
        if escaped {
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '"' {
            end = i;
            break;
        }
    }
    Some(json_unescape(&rest[..end]))
}

/// Extract `"key":<number>` from a flat one-line JSON object.
fn json_u64_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

impl BundleMeta {
    /// Build the manifest for a capture of `log`.
    pub fn for_log(
        trigger: Trigger,
        seed: u64,
        policy: &str,
        log: &TraceLog,
        error: Option<String>,
    ) -> BundleMeta {
        let h = log.health();
        BundleMeta {
            rev: rev(),
            seed,
            trigger,
            policy: policy.to_string(),
            workers: log.workers,
            timebase: match log.timebase {
                Timebase::Wall => "wall-us".into(),
                Timebase::Virtual => "virtual-us".into(),
            },
            error,
            wasted_us: h.wasted_us,
            events: h.events as u64,
            rollbacks: h.rollbacks,
        }
    }

    /// One-line `MANIFEST.json` body.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(s, "\"schema\":{}", BUNDLE_SCHEMA_VERSION);
        let _ = write!(s, ",\"rev\":\"{}\"", json_escape(&self.rev));
        let _ = write!(s, ",\"seed\":{}", self.seed);
        let _ = write!(s, ",\"trigger\":\"{}\"", self.trigger.name());
        let _ = write!(s, ",\"policy\":\"{}\"", json_escape(&self.policy));
        let _ = write!(s, ",\"workers\":{}", self.workers);
        let _ = write!(s, ",\"timebase\":\"{}\"", self.timebase);
        match &self.error {
            Some(e) => {
                let _ = write!(s, ",\"error\":\"{}\"", json_escape(e));
            }
            None => s.push_str(",\"error\":null"),
        }
        let _ = write!(s, ",\"wasted_us\":{}", self.wasted_us);
        let _ = write!(s, ",\"events\":{}", self.events);
        let _ = write!(s, ",\"rollbacks\":{}", self.rollbacks);
        s.push('}');
        s
    }

    /// Parse [`BundleMeta::to_json`] output. Rejects other schema
    /// versions (an older bundle's members no longer parse) and malformed
    /// manifests.
    pub fn from_json(line: &str) -> Option<BundleMeta> {
        let schema = json_u64_field(line, "schema")?;
        if schema != BUNDLE_SCHEMA_VERSION {
            return None;
        }
        Some(BundleMeta {
            rev: json_str_field(line, "rev")?,
            seed: json_u64_field(line, "seed")?,
            trigger: Trigger::parse(&json_str_field(line, "trigger")?)?,
            policy: json_str_field(line, "policy")?,
            workers: json_u64_field(line, "workers")? as usize,
            timebase: json_str_field(line, "timebase")?,
            error: json_str_field(line, "error"),
            wasted_us: json_u64_field(line, "wasted_us")?,
            events: json_u64_field(line, "events")?,
            rollbacks: json_u64_field(line, "rollbacks")?,
        })
    }
}

/// A reloaded crash bundle.
#[derive(Debug, Clone)]
pub struct Bundle {
    /// Parsed `MANIFEST.json`.
    pub meta: BundleMeta,
    /// The version → cost join reloaded from `lineage.csv`.
    pub lineage: LineageTable,
    /// Raw `trace_events.csv` contents.
    pub events_csv: String,
    /// Raw `metrics.jsonl` lines, when the bundle carried snapshots.
    pub metrics_jsonl: Vec<String>,
}

impl Bundle {
    /// Conservation check: the reloaded lineage table must account for
    /// exactly the wasted µs the live [`SpecHealth`](tvs_trace::SpecHealth)
    /// reported at capture time. Returns `Err` with a human-readable
    /// message on mismatch.
    pub fn check(&self) -> Result<(), String> {
        let got = self.lineage.total_wasted_us();
        if got == self.meta.wasted_us {
            Ok(())
        } else {
            Err(format!(
                "lineage table accounts for {got}us wasted but the manifest recorded {}us",
                self.meta.wasted_us
            ))
        }
    }

    /// The offline post-mortem report: manifest header, conservation
    /// verdict, per-root lineage totals and the full cascade forest.
    pub fn render_report(&self) -> String {
        let m = &self.meta;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== post-mortem: trigger={} rev={} seed={} policy={} workers={} timebase={} ==",
            m.trigger.name(),
            m.rev,
            m.seed,
            m.policy,
            m.workers,
            m.timebase
        );
        if let Some(e) = &m.error {
            let _ = writeln!(out, "error: {e}");
        }
        let _ = writeln!(
            out,
            "{} events, {} rollbacks, {}us wasted at capture",
            m.events, m.rollbacks, m.wasted_us
        );
        match self.check() {
            Ok(()) => {
                let _ = writeln!(
                    out,
                    "lineage conservation: OK ({}us fully attributed)",
                    self.lineage.total_wasted_us()
                );
            }
            Err(e) => {
                let _ = writeln!(out, "lineage conservation: VIOLATION — {e}");
            }
        }
        let roots = self.lineage.roots();
        let _ = writeln!(out, "lineages: {} root(s)", roots.len());
        for r in &roots {
            let _ = writeln!(
                out,
                "  root v{}: {} version(s), max depth {}, {} commit(s), {} rollback(s), wasted={}us",
                r.root, r.versions, r.max_depth, r.commits, r.rollbacks, r.wasted_us
            );
        }
        out.push_str("cascade forest:\n");
        out.push_str(&self.lineage.render_tree());
        out
    }
}

/// Write a bundle for `log` under `root`, returning the final bundle
/// directory (`root/postmortem_<rev>_<seed>`). Members are written into a
/// `.tmp` sibling and renamed into place; an existing bundle of the same
/// name is replaced.
pub fn write_bundle(
    root: &Path,
    meta: &BundleMeta,
    log: &TraceLog,
    metrics_jsonl: &[String],
) -> io::Result<PathBuf> {
    let name = format!("postmortem_{}_{}", meta.rev, meta.seed);
    let fin = root.join(&name);
    let tmp = root.join(format!("{name}.tmp-{}", std::process::id()));
    if tmp.exists() {
        std::fs::remove_dir_all(&tmp)?;
    }
    std::fs::create_dir_all(&tmp)?;
    std::fs::write(tmp.join("MANIFEST.json"), meta.to_json())?;
    std::fs::write(tmp.join("trace.json"), log.to_perfetto_json())?;
    std::fs::write(tmp.join("trace_events.csv"), log.to_event_csv())?;
    std::fs::write(tmp.join("lineage.csv"), log.lineage().to_csv())?;
    if !metrics_jsonl.is_empty() {
        let mut body = String::new();
        for line in metrics_jsonl {
            body.push_str(line);
            body.push('\n');
        }
        std::fs::write(tmp.join("metrics.jsonl"), body)?;
    }
    if fin.exists() {
        std::fs::remove_dir_all(&fin)?;
    }
    std::fs::rename(&tmp, &fin)?;
    Ok(fin)
}

/// Reload a bundle directory written by [`write_bundle`].
pub fn load_bundle(dir: &Path) -> Result<Bundle, String> {
    let read =
        |name: &str| std::fs::read_to_string(dir.join(name)).map_err(|e| format!("{name}: {e}"));
    let meta = BundleMeta::from_json(&read("MANIFEST.json")?)
        .ok_or_else(|| "MANIFEST.json: malformed or unknown schema".to_string())?;
    let lineage = LineageTable::from_csv(&read("lineage.csv")?)
        .ok_or_else(|| "lineage.csv: malformed".to_string())?;
    let events_csv = read("trace_events.csv")?;
    let metrics_jsonl = match std::fs::read_to_string(dir.join("metrics.jsonl")) {
        Ok(body) => body.lines().map(str::to_string).collect(),
        Err(_) => Vec::new(),
    };
    Ok(Bundle {
        meta,
        lineage,
        events_csv,
        metrics_jsonl,
    })
}

/// The always-on crash hook: capture `log` under the default results
/// directory, swallowing I/O errors (a failing dump must never mask the
/// original failure). Returns the bundle path when the dump succeeded.
pub fn capture(
    trigger: Trigger,
    seed: u64,
    policy: &str,
    log: &TraceLog,
    error: Option<String>,
) -> Option<PathBuf> {
    let meta = BundleMeta::for_log(trigger, seed, policy, log, error);
    match write_bundle(&default_bundle_root(), &meta, log, &[]) {
        Ok(path) => {
            eprintln!("post-mortem bundle: {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("post-mortem capture failed: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> BundleMeta {
        BundleMeta {
            rev: "abc123".into(),
            seed: 2011,
            trigger: Trigger::Degraded,
            policy: "aggressive".into(),
            workers: 8,
            timebase: "virtual-us".into(),
            error: Some("probe \"failed\"\nline2 \\ backslash".into()),
            wasted_us: 420,
            events: 99,
            rollbacks: 7,
        }
    }

    #[test]
    fn manifest_round_trips_with_awkward_error_strings() {
        let m = meta();
        let line = m.to_json();
        let lead = format!("{{\"schema\":{BUNDLE_SCHEMA_VERSION},");
        assert!(line.starts_with(&lead), "schema leads: {line}");
        let back = BundleMeta::from_json(&line).expect("manifest parses");
        assert_eq!(back, m);
    }

    #[test]
    fn manifest_none_error_round_trips() {
        let m = BundleMeta {
            error: None,
            ..meta()
        };
        let back = BundleMeta::from_json(&m.to_json()).expect("parses");
        assert_eq!(back.error, None);
        assert_eq!(back, m);
    }

    #[test]
    fn unknown_future_schema_is_rejected() {
        let line = meta().to_json().replacen(
            &format!("\"schema\":{BUNDLE_SCHEMA_VERSION}"),
            "\"schema\":999",
            1,
        );
        assert!(BundleMeta::from_json(&line).is_none());
    }

    #[test]
    fn trigger_names_round_trip() {
        for t in [
            Trigger::RunError,
            Trigger::Degraded,
            Trigger::UnresolvedSdc,
            Trigger::WatchdogStall,
            Trigger::Explicit,
        ] {
            assert_eq!(Trigger::parse(t.name()), Some(t));
        }
        assert_eq!(Trigger::parse("nonsense"), None);
    }
}
