//! Flat CSV event dump, plus its RFC-4180-style field escaping and the
//! record splitter that reads it back.

use crate::event::{EventKind, TraceLog};
use std::fmt::Write as _;

/// Quote `field` per RFC 4180 when it contains a comma, quote, CR or LF;
/// otherwise return it verbatim. Embedded quotes are doubled.
pub fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Parse one CSV record produced with [`csv_escape`]d fields back into its
/// fields. Returns `None` on malformed quoting (unterminated quote, or a
/// closing quote not followed by a comma/end).
pub fn csv_split(line: &str) -> Option<Vec<String>> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    loop {
        match chars.peek() {
            None => {
                fields.push(std::mem::take(&mut cur));
                return Some(fields);
            }
            Some('"') => {
                chars.next();
                loop {
                    match chars.next() {
                        None => return None, // unterminated quote
                        Some('"') => {
                            if chars.peek() == Some(&'"') {
                                chars.next();
                                cur.push('"');
                            } else {
                                break;
                            }
                        }
                        Some(c) => cur.push(c),
                    }
                }
                match chars.peek() {
                    None => {}
                    Some(',') => {}
                    Some(_) => return None, // garbage after closing quote
                }
            }
            Some(_) => {
                while let Some(&c) = chars.peek() {
                    if c == ',' {
                        break;
                    }
                    chars.next();
                    cur.push(c);
                }
            }
        }
        match chars.next() {
            None => {
                fields.push(std::mem::take(&mut cur));
                return Some(fields);
            }
            Some(',') => fields.push(std::mem::take(&mut cur)),
            Some(_) => unreachable!("loop above consumes until comma or end"),
        }
    }
}

/// CSV header written by [`TraceLog::to_event_csv`].
pub const EVENT_CSV_HEADER: &str =
    "seq,worker,wall_us,virt_us,event,id,name,class,version,aux,aux2";

impl TraceLog {
    /// Render the log as a flat CSV event dump.
    ///
    /// Columns: `seq,worker,wall_us,virt_us,event,id,name,class,version,aux,aux2`
    /// where `aux`/`aux2` carry the event-specific payload — `lane` for
    /// dispatch, `victim` for steal, `tag` for task-start, `discarded` for
    /// task-end, `basis` for
    /// predictor-fire/version-open, `root`/`depth` for lineage-open (whose
    /// `id` column carries the parent version), `margin` for checks, `cascade_depth`
    /// for rollback, `attempt` for task-fault,
    /// `ran_us` for watchdog-cancel, `from`/`to` for degrade-step (whose
    /// `name` column carries the cause), the primary task id (`of`) for
    /// replica-dispatch and `worker`/`epoch` for worker-quarantine/respawn.
    /// Names are RFC-4180 quoted.
    pub fn to_event_csv(&self) -> String {
        let mut out = String::from(EVENT_CSV_HEADER);
        out.push('\n');
        for e in &self.events {
            let (id, name, class, version, aux, aux2) = match &e.kind {
                EventKind::Dispatch {
                    id,
                    name,
                    class,
                    version,
                    lane,
                } => (
                    id.to_string(),
                    csv_escape(name),
                    class.label().to_string(),
                    fmt_version(*version),
                    lane.to_string(),
                    String::new(),
                ),
                EventKind::Steal { id, victim } => (
                    id.to_string(),
                    String::new(),
                    String::new(),
                    String::new(),
                    victim.to_string(),
                    String::new(),
                ),
                EventKind::Park | EventKind::Unpark => Default::default(),
                EventKind::TaskStart {
                    id,
                    name,
                    version,
                    tag,
                } => (
                    id.to_string(),
                    csv_escape(name),
                    String::new(),
                    fmt_version(*version),
                    tag.to_string(),
                    String::new(),
                ),
                EventKind::TaskEnd {
                    id,
                    name,
                    version,
                    discarded,
                    ..
                } => (
                    id.to_string(),
                    csv_escape(name),
                    String::new(),
                    fmt_version(*version),
                    discarded.to_string(),
                    String::new(),
                ),
                EventKind::CancelReady { id, version } => (
                    id.to_string(),
                    String::new(),
                    String::new(),
                    version.to_string(),
                    String::new(),
                    String::new(),
                ),
                EventKind::LineageOpen {
                    version,
                    root,
                    parent,
                    depth,
                } => (
                    // The `id` column carries the parent version (0 =
                    // none): root and depth take aux/aux2, and three
                    // payload slots is all this schema has.
                    parent.to_string(),
                    String::new(),
                    String::new(),
                    version.to_string(),
                    root.to_string(),
                    depth.to_string(),
                ),
                EventKind::PredictorFire { version, basis }
                | EventKind::VersionOpen { version, basis } => (
                    String::new(),
                    String::new(),
                    String::new(),
                    version.to_string(),
                    basis.to_string(),
                    String::new(),
                ),
                EventKind::CheckPass { version, margin }
                | EventKind::CheckFail { version, margin } => (
                    String::new(),
                    String::new(),
                    String::new(),
                    version.to_string(),
                    margin.to_string(),
                    String::new(),
                ),
                EventKind::Commit { version } => (
                    String::new(),
                    String::new(),
                    String::new(),
                    version.to_string(),
                    String::new(),
                    String::new(),
                ),
                EventKind::Rollback {
                    version,
                    cascade_depth,
                } => (
                    String::new(),
                    String::new(),
                    String::new(),
                    version.to_string(),
                    cascade_depth.to_string(),
                    String::new(),
                ),
                EventKind::TaskFault {
                    id,
                    name,
                    version,
                    attempt,
                } => (
                    id.to_string(),
                    csv_escape(name),
                    String::new(),
                    fmt_version(*version),
                    attempt.to_string(),
                    String::new(),
                ),
                EventKind::WatchdogCancel {
                    id,
                    version,
                    ran_us,
                } => (
                    id.to_string(),
                    String::new(),
                    String::new(),
                    fmt_version(*version),
                    ran_us.to_string(),
                    String::new(),
                ),
                EventKind::DegradeStep { from, to, cause } => (
                    String::new(),
                    cause.label().to_string(),
                    String::new(),
                    String::new(),
                    from.to_string(),
                    to.to_string(),
                ),
                EventKind::DegradeProbe { version } => (
                    String::new(),
                    String::new(),
                    String::new(),
                    version.to_string(),
                    String::new(),
                    String::new(),
                ),
                EventKind::ReplicaDispatch { id, of } => (
                    id.to_string(),
                    String::new(),
                    String::new(),
                    String::new(),
                    of.to_string(),
                    String::new(),
                ),
                EventKind::ReplicaMatch { id } | EventKind::SdcResolved { id } => (
                    id.to_string(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                ),
                EventKind::SdcDetected { id, version } => (
                    id.to_string(),
                    String::new(),
                    String::new(),
                    fmt_version(*version),
                    String::new(),
                    String::new(),
                ),
                EventKind::WorkerQuarantine { worker, epoch }
                | EventKind::WorkerRespawn { worker, epoch } => (
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    worker.to_string(),
                    epoch.to_string(),
                ),
            };
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{}",
                e.seq,
                e.worker,
                e.wall_us,
                e.virt_us,
                e.kind.label(),
                id,
                name,
                class,
                version,
                aux,
                aux2
            );
        }
        out
    }
}

fn fmt_version(v: Option<u32>) -> String {
    v.map(|v| v.to_string()).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ClassTag, Timebase, TraceEvent};

    #[test]
    fn escape_round_trips_awkward_fields() {
        for s in ["plain", "a,b", "say \"hi\"", "multi\nline", "x,\"y\",z", ""] {
            let esc = csv_escape(s);
            let line = format!("{},tail", esc);
            let fields = csv_split(&line).unwrap();
            assert_eq!(
                fields,
                vec![s.to_string(), "tail".to_string()],
                "field {s:?}"
            );
        }
    }

    #[test]
    fn split_rejects_malformed_quoting() {
        assert!(csv_split("\"unterminated").is_none());
        assert!(csv_split("\"x\"y,z").is_none());
    }

    #[test]
    fn event_csv_has_one_row_per_event() {
        let log = TraceLog {
            workers: 1,
            timebase: Timebase::Wall,
            events: vec![
                TraceEvent {
                    seq: 0,
                    worker: 0,
                    wall_us: 3,
                    virt_us: 0,
                    kind: EventKind::Dispatch {
                        id: 7,
                        name: "en,code",
                        class: ClassTag::Speculative,
                        version: Some(2),
                        lane: 0,
                    },
                },
                TraceEvent {
                    seq: 1,
                    worker: 1,
                    wall_us: 9,
                    virt_us: 0,
                    kind: EventKind::Rollback {
                        version: 2,
                        cascade_depth: 4,
                    },
                },
            ],
            dropped: 0,
            dropped_per_worker: Vec::new(),
            label: String::new(),
        };
        let csv = log.to_event_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], EVENT_CSV_HEADER);
        assert_eq!(lines[1], "0,0,3,0,dispatch,7,\"en,code\",speculative,2,0,");
        assert_eq!(lines[2], "1,1,9,0,rollback,,,,2,4,");
        // The quoted name survives a parse.
        let fields = csv_split(lines[1]).unwrap();
        assert_eq!(fields[6], "en,code");
    }
}
