//! Chrome `trace_event` / Perfetto JSON export.
//!
//! Output follows the (legacy but universally supported) JSON trace-event
//! format: load the file at <https://ui.perfetto.dev> or
//! `chrome://tracing`. Layout:
//!
//! * one **thread track per worker** (`tid = worker index`) carrying task
//!   execution spans (`ph: "X"`) and instant markers for dispatch / steal /
//!   park / unpark;
//! * a **"runtime" track** (`tid = workers`) for scheduler and speculation-
//!   manager events (rollback, cancel-ready, commit, …);
//! * one **async span per speculative version** (`ph: "b"/"e"`,
//!   `cat: "speculation"`, `id: version`) from version-open to commit or
//!   rollback, with predictor-fire and check verdicts as async instants
//!   (`ph: "n"`) inside it.
//!
//! Timestamps are µs (the format's native unit) in the log's timebase.

use crate::event::{EventKind, TraceEvent, TraceLog};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Escape a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
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

fn opt_version(v: Option<u32>) -> String {
    v.map(|v| v.to_string()).unwrap_or_else(|| "null".into())
}

/// An `f64` as a JSON value (`null` for non-finite values, which the JSON
/// grammar cannot express).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

impl TraceLog {
    /// Render the log as Chrome `trace_event` JSON (see module docs).
    pub fn to_perfetto_json(&self) -> String {
        let tb = self.timebase;
        let mut rows: Vec<String> = Vec::with_capacity(self.events.len() + self.workers + 2);

        // Metadata: process + per-track thread names.
        let pname = if self.label.is_empty() {
            "tvs".to_string()
        } else {
            format!("tvs ({})", json_escape(&self.label))
        };
        rows.push(format!(
            r#"{{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{{"name":"{pname}"}}}}"#
        ));
        for w in 0..self.workers {
            rows.push(format!(
                r#"{{"name":"thread_name","ph":"M","pid":1,"tid":{w},"args":{{"name":"worker {w}"}}}}"#
            ));
        }
        rows.push(format!(
            r#"{{"name":"thread_name","ph":"M","pid":1,"tid":{},"args":{{"name":"runtime"}}}}"#,
            self.workers
        ));

        // Pair task-start/end into complete ("X") spans per task id.
        let mut open: HashMap<u64, &TraceEvent> = HashMap::new();

        for e in &self.events {
            let ts = e.ts(tb);
            let tid = e.worker;
            match &e.kind {
                EventKind::TaskStart { id, .. } => {
                    open.insert(*id, e);
                }
                EventKind::TaskEnd {
                    id,
                    name,
                    version,
                    discarded,
                    ..
                } => {
                    let start_ts = open.remove(id).map(|s| s.ts(tb)).unwrap_or(ts);
                    let dur = ts.saturating_sub(start_ts);
                    rows.push(format!(
                        r#"{{"name":"{}","cat":"task","ph":"X","ts":{},"dur":{},"pid":1,"tid":{},"args":{{"id":{},"version":{},"discarded":{}}}}}"#,
                        json_escape(name),
                        start_ts,
                        dur,
                        tid,
                        id,
                        opt_version(*version),
                        discarded
                    ));
                }
                EventKind::Dispatch {
                    id,
                    name,
                    class,
                    version,
                    lane,
                } => {
                    rows.push(format!(
                        r#"{{"name":"dispatch {}","cat":"dispatch","ph":"i","s":"t","ts":{},"pid":1,"tid":{},"args":{{"id":{},"class":"{}","version":{},"lane":{}}}}}"#,
                        json_escape(name),
                        ts,
                        tid,
                        id,
                        class.label(),
                        opt_version(*version),
                        lane
                    ));
                }
                EventKind::Steal { id, victim } => {
                    rows.push(format!(
                        r#"{{"name":"steal","cat":"dispatch","ph":"i","s":"t","ts":{ts},"pid":1,"tid":{tid},"args":{{"id":{id},"victim":{victim}}}}}"#
                    ));
                }
                EventKind::Park | EventKind::Unpark => {
                    rows.push(format!(
                        r#"{{"name":"{}","cat":"worker","ph":"i","s":"t","ts":{},"pid":1,"tid":{}}}"#,
                        e.kind.label(),
                        ts,
                        tid
                    ));
                }
                EventKind::CancelReady { id, version } => {
                    rows.push(format!(
                        r#"{{"name":"cancel-ready","cat":"rollback","ph":"i","s":"t","ts":{ts},"pid":1,"tid":{tid},"args":{{"id":{id},"version":{version}}}}}"#
                    ));
                }
                EventKind::VersionOpen { version, basis } => {
                    rows.push(format!(
                        r#"{{"name":"v{version}","cat":"speculation","ph":"b","id":{version},"ts":{ts},"pid":1,"tid":{tid},"args":{{"basis":{basis}}}}}"#
                    ));
                }
                EventKind::LineageOpen {
                    version,
                    root,
                    parent,
                    depth,
                } => {
                    rows.push(format!(
                        r#"{{"name":"lineage-open","cat":"speculation","ph":"n","id":{version},"ts":{ts},"pid":1,"tid":{tid},"args":{{"root":{root},"parent":{parent},"depth":{depth}}}}}"#
                    ));
                }
                EventKind::Commit { version } => {
                    rows.push(format!(
                        r#"{{"name":"v{version}","cat":"speculation","ph":"e","id":{version},"ts":{ts},"pid":1,"tid":{tid},"args":{{"outcome":"commit"}}}}"#
                    ));
                }
                EventKind::Rollback {
                    version,
                    cascade_depth,
                } => {
                    rows.push(format!(
                        r#"{{"name":"v{version}","cat":"speculation","ph":"e","id":{version},"ts":{ts},"pid":1,"tid":{tid},"args":{{"outcome":"rollback","cascade_depth":{cascade_depth}}}}}"#
                    ));
                }
                EventKind::PredictorFire { version, basis } => {
                    rows.push(format!(
                        r#"{{"name":"predictor-fire","cat":"speculation","ph":"n","id":{version},"ts":{ts},"pid":1,"tid":{tid},"args":{{"basis":{basis}}}}}"#
                    ));
                }
                EventKind::CheckPass { version, margin }
                | EventKind::CheckFail { version, margin } => {
                    rows.push(format!(
                        r#"{{"name":"{}","cat":"speculation","ph":"n","id":{},"ts":{},"pid":1,"tid":{},"args":{{"margin":{}}}}}"#,
                        e.kind.label(),
                        version,
                        ts,
                        tid,
                        json_f64(*margin)
                    ));
                }
                EventKind::TaskFault {
                    id,
                    name,
                    version,
                    attempt,
                } => {
                    rows.push(format!(
                        r#"{{"name":"fault {}","cat":"fault","ph":"i","s":"t","ts":{},"pid":1,"tid":{},"args":{{"id":{},"version":{},"attempt":{}}}}}"#,
                        json_escape(name),
                        ts,
                        tid,
                        id,
                        opt_version(*version),
                        attempt
                    ));
                }
                EventKind::DegradeStep { from, to, cause } => {
                    rows.push(format!(
                        r#"{{"name":"degrade-step","cat":"degradation","ph":"i","s":"p","ts":{ts},"pid":1,"tid":{tid},"args":{{"from":{from},"to":{to},"cause":"{}"}}}}"#,
                        cause.label()
                    ));
                }
                EventKind::DegradeProbe { version } => {
                    rows.push(format!(
                        r#"{{"name":"degrade-probe","cat":"degradation","ph":"i","s":"t","ts":{ts},"pid":1,"tid":{tid},"args":{{"version":{version}}}}}"#
                    ));
                }
                EventKind::ReplicaDispatch { id, of } => {
                    rows.push(format!(
                        r#"{{"name":"replica-dispatch","cat":"replication","ph":"i","s":"t","ts":{ts},"pid":1,"tid":{tid},"args":{{"id":{id},"of":{of}}}}}"#
                    ));
                }
                EventKind::ReplicaMatch { id } => {
                    rows.push(format!(
                        r#"{{"name":"replica-match","cat":"replication","ph":"i","s":"t","ts":{ts},"pid":1,"tid":{tid},"args":{{"id":{id}}}}}"#
                    ));
                }
                EventKind::SdcDetected { id, version } => {
                    rows.push(format!(
                        r#"{{"name":"sdc-detected","cat":"replication","ph":"i","s":"p","ts":{},"pid":1,"tid":{},"args":{{"id":{},"version":{}}}}}"#,
                        ts,
                        tid,
                        id,
                        opt_version(*version)
                    ));
                }
                EventKind::SdcResolved { id } => {
                    rows.push(format!(
                        r#"{{"name":"sdc-resolved","cat":"replication","ph":"i","s":"t","ts":{ts},"pid":1,"tid":{tid},"args":{{"id":{id}}}}}"#
                    ));
                }
            }
        }

        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(&rows.join(",\n"));
        let _ = write!(
            out,
            "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped_events\":{},\"timebase\":\"{}\"}}}}",
            self.dropped,
            match tb {
                crate::event::Timebase::Wall => "wall",
                crate::event::Timebase::Virtual => "virtual",
            }
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ClassTag, Timebase};

    fn ev(seq: u64, worker: u32, ts: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            seq,
            worker,
            wall_us: ts,
            virt_us: ts,
            kind,
        }
    }

    fn log(events: Vec<TraceEvent>) -> TraceLog {
        TraceLog {
            workers: 2,
            timebase: Timebase::Virtual,
            events,
            dropped: 0,
            dropped_per_worker: vec![0, 0, 0],
            label: "balanced".into(),
        }
    }

    #[test]
    fn escapes_json_strings() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(json_escape("x\ny"), "x\\ny");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn task_spans_pair_start_and_end() {
        let l = log(vec![
            ev(
                0,
                0,
                10,
                EventKind::TaskStart {
                    id: 1,
                    name: "encode",
                    version: Some(2),
                    tag: 0,
                },
            ),
            ev(
                1,
                0,
                35,
                EventKind::TaskEnd {
                    id: 1,
                    name: "encode",
                    version: Some(2),
                    discarded: true,
                    class: ClassTag::Regular,
                    faulted: false,
                    busy_us: 0,
                },
            ),
        ]);
        let j = l.to_perfetto_json();
        assert!(j.contains(r#""name":"encode","cat":"task","ph":"X","ts":10,"dur":25"#));
        assert!(j.contains(r#""discarded":true"#));
        assert!(j.contains(r#""name":"worker 0""#));
        assert!(j.contains(r#""name":"runtime""#));
        assert!(j.contains("tvs (balanced)"));
    }

    #[test]
    fn version_lifecycle_renders_async_span() {
        let l = log(vec![
            ev(
                0,
                2,
                5,
                EventKind::VersionOpen {
                    version: 3,
                    basis: 4,
                },
            ),
            ev(
                1,
                2,
                9,
                EventKind::CheckFail {
                    version: 3,
                    margin: 0.07,
                },
            ),
            ev(
                2,
                2,
                9,
                EventKind::Rollback {
                    version: 3,
                    cascade_depth: 5,
                },
            ),
        ]);
        let j = l.to_perfetto_json();
        assert!(j.contains(r#""name":"v3","cat":"speculation","ph":"b","id":3,"ts":5"#));
        assert!(j.contains(r#""ph":"e","id":3,"ts":9"#));
        assert!(j.contains(r#""cascade_depth":5"#));
        assert!(j.contains(r#""name":"check-fail""#));
    }

    #[test]
    fn output_is_balanced_json() {
        // Cheap structural sanity: every brace/bracket opened is closed and
        // the stream starts/ends as one object. (CI additionally parses the
        // real file with python3 -m json.tool.)
        let l = log(vec![
            ev(0, 0, 1, EventKind::Park),
            ev(
                1,
                1,
                2,
                EventKind::Dispatch {
                    id: 9,
                    name: "count",
                    class: ClassTag::Regular,
                    version: None,
                    lane: 1,
                },
            ),
            ev(2, 0, 3, EventKind::Steal { id: 9, victim: 1 }),
            ev(3, 2, 4, EventKind::CancelReady { id: 10, version: 1 }),
            ev(
                4,
                2,
                5,
                EventKind::PredictorFire {
                    version: 1,
                    basis: 2,
                },
            ),
            ev(
                5,
                2,
                6,
                EventKind::Rollback {
                    version: 1,
                    cascade_depth: 3,
                },
            ),
            ev(6, 2, 7, EventKind::Commit { version: 1 }),
            ev(
                7,
                2,
                8,
                EventKind::CheckPass {
                    version: 1,
                    margin: 0.001,
                },
            ),
        ]);
        let j = l.to_perfetto_json();
        let mut depth = 0i64;
        let mut min_depth = i64::MAX;
        let mut in_str = false;
        let mut esc = false;
        for c in j.chars() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => {
                    depth -= 1;
                    min_depth = min_depth.min(depth);
                }
                _ => {}
            }
        }
        assert_eq!(depth, 0, "unbalanced braces/brackets");
        assert_eq!(min_depth, 0, "closed more than opened mid-stream");
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(
            j.contains(r#""version":null"#),
            "missing version renders as null"
        );
    }
}
