//! The benchmark's own span recorder.
//!
//! Every call from the harness into a layer's public function is wrapped
//! in a span (name, start, end, parent, iteration id). Spans stay in
//! memory during the run and are written as JSON lines when the workload
//! ends. A span's *self time* is its duration minus the part of that
//! interval its child spans cover. The harness is single-threaded, so one
//! open-span stack is the whole causal structure; spans inside the
//! program's own threads are a later issue.

use std::cell::{Cell, RefCell};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed (or, transiently, open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder's list.
    pub parent: Option<usize>,
    /// Round / pass id shared by every span of one iteration.
    pub iter: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. Disabled (the `--trace 0` case) it records
/// nothing and `span` is one branch around the call.
pub struct Recorder {
    enabled: bool,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    iter: Cell<u64>,
}

/// Closes its span when dropped, so a panicking call (caught further up
/// and counted as a failed run) still leaves a well-formed tree.
struct Close<'a> {
    rec: &'a Recorder,
    id: usize,
}

impl Drop for Close<'_> {
    fn drop(&mut self) {
        let end = self.rec.now_ns();
        self.rec.spans.borrow_mut()[self.id].end_ns = end;
        let popped = self.rec.open.borrow_mut().pop();
        debug_assert_eq!(popped, Some(self.id), "spans close in LIFO order");
    }
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            iter: Cell::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Iteration id stamped on spans opened from now on.
    pub fn set_iter(&self, iter: u64) {
        self.iter.set(iter);
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let start = self.now_ns();
            spans.push(Span {
                name,
                start_ns: start,
                end_ns: start,
                parent: self.open.borrow().last().copied(),
                iter: self.iter.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let _close = Close { rec: self, id };
        f()
    }

    /// The recorded spans, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.borrow().is_empty(), "a span is still open");
        self.spans.into_inner()
    }
}

/// Nanoseconds of each span's interval covered by its direct children
/// (overlapping children are counted once).
pub fn child_coverage_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    children
        .into_iter()
        .map(|mut iv| {
            iv.sort_unstable();
            let (mut covered, mut reach) = (0u64, 0u64);
            for (start, end) in iv {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            covered
        })
        .collect()
}

/// Self time of each span: duration minus child coverage.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    child_coverage_ns(spans)
        .iter()
        .zip(spans)
        .map(|(cov, s)| s.duration_ns().saturating_sub(*cov))
        .collect()
}

/// Total self time per span name, descending — the "where did the
/// harness's wall time go" table.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, usize)> {
    let mut by_name: std::collections::BTreeMap<&'static str, (u64, usize)> = Default::default();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let e = by_name.entry(s.name).or_default();
        e.0 += self_ns;
        e.1 += 1;
    }
    let mut rows: Vec<_> = by_name.into_iter().map(|(n, (t, c))| (n, t, c)).collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    rows
}

/// Write one JSON object per span: `id`, `name`, `start_ns`, `end_ns`,
/// `parent` (an id or null), `iter`, `self_ns`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, (s, self_ns)) in spans.iter().zip(self_times_ns(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"iter\":{},\"self_ns\":{self_ns}}}",
            s.name, s.start_ns, s.end_ns, s.iter
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            iter: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)), // overlaps a: covered once
            span("c", 80, 90, Some(0)),
            span("a.inner", 15, 20, Some(1)), // grandchild: not root's child
        ];
        let cov = child_coverage_ns(&spans);
        assert_eq!(cov, vec![60, 5, 0, 0, 0]);
        let own = self_times_ns(&spans);
        assert_eq!(own, vec![40, 25, 30, 10, 5]);
        assert_eq!(own[0] + cov[0], spans[0].duration_ns());
    }

    #[test]
    fn recorder_nests_and_survives_a_panic() {
        let rec = Recorder::new(true);
        rec.set_iter(3);
        rec.span("outer", || {
            rec.span("inner", || ());
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rec.span("boom", || panic!("expected in this test"))
            }));
            assert!(caught.is_err());
            rec.span("after", || ());
        });
        let spans = rec.into_spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("outer", None),
                ("inner", Some(0)),
                ("boom", Some(0)),
                ("after", Some(0))
            ]
        );
        assert!(spans.iter().all(|s| s.iter == 3 && s.end_ns >= s.start_ns));
        let own = self_times_ns(&spans);
        let cov = child_coverage_ns(&spans);
        assert_eq!(own[0] + cov[0], spans[0].duration_ns());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new(false);
        assert_eq!(rec.span("x", || 7), 7);
        assert!(rec.into_spans().is_empty());
    }
}
