//! Causal lineage of speculation versions.
//!
//! A rollback cascade is a *line* of versions: a root misprediction, the
//! candidate promoted after its failed check, the candidate promoted after
//! *that* one failed, and so on. The aggregate counters in
//! [`SpecHealth`](crate::health::SpecHealth) say how much work the run
//! wasted; this module says **which root misprediction paid for it**. The
//! speculation manager emits one [`EventKind::LineageOpen`] per version at
//! allocation time (root, parent edge, cascade depth), which makes every
//! later version-carrying event — dispatch, check, commit, rollback,
//! SDC — joinable to its root. [`LineageTable::from_log`]
//! performs that join offline over a drained [`TraceLog`].
//!
//! Conservation invariant: summing [`VersionCost::wasted_us`] over every
//! version plus [`LineageTable::unattributed_wasted_us`] (work discarded
//! without a version, e.g. regular tasks killed mid-fault) reproduces
//! `SpecHealth::wasted_us` exactly. The post-mortem acceptance test holds
//! the runtime to this.

use crate::event::{EventKind, TraceLog};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Causal identity of one speculation version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineageId {
    /// Root version of the speculation line this version belongs to.
    pub root: u32,
    /// Version whose failed check spawned this one (`None` for roots).
    pub parent: Option<u32>,
    /// Cascade depth below the root (0 for the root itself).
    pub depth: u32,
}

impl LineageId {
    /// The lineage of a fresh, non-cascade prediction: its own root.
    pub fn root_of(version: u32) -> Self {
        LineageId {
            root: version,
            parent: None,
            depth: 0,
        }
    }

    /// The lineage of a candidate promoted after `parent`'s check failed.
    pub fn child_of(parent_version: u32, parent: LineageId) -> Self {
        LineageId {
            root: parent.root,
            parent: Some(parent_version),
            depth: parent.depth + 1,
        }
    }
}

/// Attributed cost of one version within its lineage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VersionCost {
    /// The version.
    pub version: u32,
    /// Root of its speculation line.
    pub root: u32,
    /// Spawning version (0 = none; versions start at 1).
    pub parent: u32,
    /// Cascade depth below the root.
    pub depth: u32,
    /// Commits observed for this version (0 or 1 in well-formed runs).
    pub commits: u64,
    /// Rollbacks observed for this version.
    pub rollbacks: u64,
    /// Busy µs of this version's tasks that ended discarded.
    pub wasted_us: u64,
    /// Lane-bound tasks of this version cancelled before running.
    pub cancelled_ready: u64,
    /// Ready tasks deleted from the central queue by this version's
    /// aborts (the rollback's cascade fan-out).
    pub cascade_deleted: u64,
}

/// Aggregated cost of one speculation line (root + all descendants).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineageCost {
    /// Root version of the line.
    pub root: u32,
    /// Versions in the line, root included (cascade fan-out + 1).
    pub versions: u64,
    /// Deepest cascade depth reached below the root.
    pub max_depth: u32,
    /// Commits across the line.
    pub commits: u64,
    /// Rollbacks across the line.
    pub rollbacks: u64,
    /// Wasted µs attributed to the line.
    pub wasted_us: u64,
    /// Ready tasks cancelled or deleted by the line's aborts.
    pub cancelled_ready: u64,
    /// Cascade deletions (ready tasks deleted wholesale) across the line.
    pub cascade_deleted: u64,
}

/// CSV header written by [`LineageTable::to_csv`].
pub const LINEAGE_CSV_HEADER: &str =
    "version,root,parent,depth,commits,rollbacks,wasted_us,cancelled_ready,cascade_deleted";

/// The version → lineage join computed from one drained log, with
/// per-version and per-root cost attribution.
#[derive(Debug, Clone, Default)]
pub struct LineageTable {
    /// Per-version costs, sorted by version ascending.
    pub versions: Vec<VersionCost>,
    /// Busy µs of discarded tasks that carried no version (not part of
    /// any speculation line, but still wasted — kept so totals conserve).
    pub unattributed_wasted_us: u64,
}

impl LineageTable {
    /// Join every version-carrying event in `log` to its lineage.
    ///
    /// Versions that appear in the log without a `lineage-open` record
    /// (hand-built logs, or traces from before the flight recorder)
    /// become their own root at depth 0, so the table is total.
    pub fn from_log(log: &TraceLog) -> LineageTable {
        let mut ids: HashMap<u32, LineageId> = HashMap::new();
        // First pass: lineage declarations, then a default for any
        // version mentioned anywhere without one.
        for e in &log.events {
            if let EventKind::LineageOpen {
                version,
                root,
                parent,
                depth,
            } = e.kind
            {
                ids.insert(
                    version,
                    LineageId {
                        root,
                        parent: (parent != 0).then_some(parent),
                        depth,
                    },
                );
            }
        }
        for e in &log.events {
            if let Some(v) = e.kind.version() {
                ids.entry(v).or_insert_with(|| LineageId::root_of(v));
            }
        }

        let mut costs: HashMap<u32, VersionCost> = ids
            .iter()
            .map(|(&v, id)| {
                (
                    v,
                    VersionCost {
                        version: v,
                        root: id.root,
                        parent: id.parent.unwrap_or(0),
                        depth: id.depth,
                        ..Default::default()
                    },
                )
            })
            .collect();

        // Second pass: attribute costs. Wasted time comes from the same
        // spans SpecHealth reads, so the wasted-µs conservation invariant
        // holds by construction.
        let mut unattributed = 0u64;
        for s in log.tasks().iter().filter(|s| s.discarded) {
            match s.version.and_then(|v| costs.get_mut(&v)) {
                Some(c) => c.wasted_us += s.busy_us(),
                None => unattributed += s.busy_us(),
            }
        }
        for e in &log.events {
            match &e.kind {
                EventKind::Commit { version } => {
                    if let Some(c) = costs.get_mut(version) {
                        c.commits += 1;
                    }
                }
                EventKind::Rollback {
                    version,
                    cascade_depth,
                } => {
                    if let Some(c) = costs.get_mut(version) {
                        c.rollbacks += 1;
                        c.cascade_deleted += cascade_depth;
                    }
                }
                EventKind::CancelReady { version, .. } => {
                    if let Some(c) = costs.get_mut(version) {
                        c.cancelled_ready += 1;
                    }
                }
                _ => {}
            }
        }

        let mut versions: Vec<VersionCost> = costs.into_values().collect();
        versions.sort_unstable_by_key(|c| c.version);
        LineageTable {
            versions,
            unattributed_wasted_us: unattributed,
        }
    }

    /// The lineage of `version`, if it appears in the table.
    pub fn lineage_of(&self, version: u32) -> Option<LineageId> {
        self.cost_of(version).map(|c| LineageId {
            root: c.root,
            parent: (c.parent != 0).then_some(c.parent),
            depth: c.depth,
        })
    }

    /// The attributed cost of `version`, if it appears in the table.
    pub fn cost_of(&self, version: u32) -> Option<&VersionCost> {
        self.versions
            .binary_search_by_key(&version, |c| c.version)
            .ok()
            .map(|i| &self.versions[i])
    }

    /// Per-root aggregates, sorted by root ascending.
    pub fn roots(&self) -> Vec<LineageCost> {
        let mut by_root: HashMap<u32, LineageCost> = HashMap::new();
        for c in &self.versions {
            let r = by_root.entry(c.root).or_insert(LineageCost {
                root: c.root,
                ..Default::default()
            });
            r.versions += 1;
            r.max_depth = r.max_depth.max(c.depth);
            r.commits += c.commits;
            r.rollbacks += c.rollbacks;
            r.wasted_us += c.wasted_us;
            r.cancelled_ready += c.cancelled_ready + c.cascade_deleted;
            r.cascade_deleted += c.cascade_deleted;
        }
        let mut roots: Vec<LineageCost> = by_root.into_values().collect();
        roots.sort_unstable_by_key(|c| c.root);
        roots
    }

    /// Total wasted µs across every line plus the unattributed bucket —
    /// equals `SpecHealth::wasted_us` of the same log.
    pub fn total_wasted_us(&self) -> u64 {
        self.versions.iter().map(|c| c.wasted_us).sum::<u64>() + self.unattributed_wasted_us
    }

    /// Render the full rollback cascade forest: one tree per root, each
    /// version on its own line indented by cascade depth with its
    /// attributed costs. Deterministic (versions ascending at every
    /// level), so two reconstructions of the same run render identically.
    pub fn render_tree(&self) -> String {
        let mut children: HashMap<u32, Vec<u32>> = HashMap::new();
        let mut roots: Vec<u32> = Vec::new();
        for c in &self.versions {
            if c.parent == 0 {
                roots.push(c.version);
            } else {
                children.entry(c.parent).or_default().push(c.version);
            }
        }
        roots.sort_unstable();
        for kids in children.values_mut() {
            kids.sort_unstable();
        }
        let mut out = String::new();
        for root in roots {
            self.render_node(root, &children, &mut out);
        }
        if self.unattributed_wasted_us > 0 {
            let _ = writeln!(out, "(no version) wasted={}us", self.unattributed_wasted_us);
        }
        out
    }

    fn render_node(&self, v: u32, children: &HashMap<u32, Vec<u32>>, out: &mut String) {
        let Some(c) = self.cost_of(v) else { return };
        let indent = "  ".repeat(c.depth as usize);
        let arrow = if c.depth == 0 { "" } else { "└─ " };
        let outcome = if c.commits > 0 {
            "committed"
        } else if c.rollbacks > 0 {
            "rolled-back"
        } else {
            "open"
        };
        let _ = writeln!(
            out,
            "{indent}{arrow}v{} depth={} [{}] wasted={}us cancelled={} cascade={}",
            c.version, c.depth, outcome, c.wasted_us, c.cancelled_ready, c.cascade_deleted
        );
        if let Some(kids) = children.get(&v) {
            for &k in kids {
                self.render_node(k, children, out);
            }
        }
    }

    /// Serialise the table as CSV (header + one row per version, plus a
    /// final `version=0` row carrying the unattributed wasted µs). This
    /// is the `lineage.csv` member of the post-mortem bundle.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(LINEAGE_CSV_HEADER);
        out.push('\n');
        for c in &self.versions {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{}",
                c.version,
                c.root,
                c.parent,
                c.depth,
                c.commits,
                c.rollbacks,
                c.wasted_us,
                c.cancelled_ready,
                c.cascade_deleted
            );
        }
        if self.unattributed_wasted_us > 0 {
            let _ = writeln!(out, "0,0,0,0,0,0,{},0,0", self.unattributed_wasted_us);
        }
        out
    }

    /// Parse [`LineageTable::to_csv`] output. Returns `None` on a
    /// malformed header, row shape or field value.
    pub fn from_csv(csv: &str) -> Option<LineageTable> {
        let mut lines = csv.lines();
        if lines.next()? != LINEAGE_CSV_HEADER {
            return None;
        }
        let mut t = LineageTable::default();
        for line in lines {
            let f: Vec<&str> = line.split(',').collect();
            if f.len() != 9 {
                return None;
            }
            let n = |i: usize| -> Option<u64> { f[i].parse().ok() };
            let version: u32 = f[0].parse().ok()?;
            if version == 0 {
                t.unattributed_wasted_us = n(6)?;
                continue;
            }
            t.versions.push(VersionCost {
                version,
                root: f[1].parse().ok()?,
                parent: f[2].parse().ok()?,
                depth: f[3].parse().ok()?,
                commits: n(4)?,
                rollbacks: n(5)?,
                wasted_us: n(6)?,
                cancelled_ready: n(7)?,
                cascade_deleted: n(8)?,
            });
        }
        t.versions.sort_unstable_by_key(|c| c.version);
        Some(t)
    }
}

impl TraceLog {
    /// The version → lineage join of this log (see [`LineageTable`]).
    pub fn lineage(&self) -> LineageTable {
        LineageTable::from_log(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ClassTag, Timebase, TraceEvent};

    fn ev(seq: u64, ts: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            seq,
            worker: 0,
            wall_us: ts,
            virt_us: ts,
            kind,
        }
    }

    fn mk(events: Vec<TraceEvent>) -> TraceLog {
        TraceLog {
            workers: 1,
            timebase: Timebase::Virtual,
            events,
            dropped: 0,
            dropped_per_worker: vec![0, 0],
            label: String::new(),
        }
    }

    fn open(seq: u64, ts: u64, version: u32, root: u32, parent: u32, depth: u32) -> TraceEvent {
        ev(
            seq,
            ts,
            EventKind::LineageOpen {
                version,
                root,
                parent,
                depth,
            },
        )
    }

    fn spec_task(
        seq: u64,
        id: u64,
        version: u32,
        start: u64,
        end: u64,
        d: bool,
    ) -> [TraceEvent; 2] {
        [
            ev(
                seq,
                start,
                EventKind::TaskStart {
                    id,
                    name: "t",
                    version: Some(version),
                    tag: 0,
                },
            ),
            ev(
                seq + 1,
                end,
                EventKind::TaskEnd {
                    id,
                    name: "t",
                    version: Some(version),
                    discarded: d,
                    class: ClassTag::Regular,
                    faulted: false,
                    busy_us: 0,
                },
            ),
        ]
    }

    /// A two-deep cascade (v1 → v2 → v3 commits) plus an independent root
    /// v4 that commits clean.
    fn cascade_log() -> TraceLog {
        let mut events = vec![
            open(0, 0, 1, 1, 0, 0),
            open(1, 10, 2, 1, 1, 1),
            open(2, 20, 3, 1, 2, 2),
            open(3, 30, 4, 4, 0, 0),
        ];
        events.extend(spec_task(10, 100, 1, 0, 40, true));
        events.extend(spec_task(12, 101, 2, 10, 40, true));
        events.extend(spec_task(14, 102, 3, 20, 50, false));
        events.extend(spec_task(16, 103, 4, 30, 60, false));
        events.extend([
            ev(
                20,
                40,
                EventKind::Rollback {
                    version: 1,
                    cascade_depth: 3,
                },
            ),
            ev(
                22,
                45,
                EventKind::Rollback {
                    version: 2,
                    cascade_depth: 1,
                },
            ),
            ev(
                23,
                50,
                EventKind::CancelReady {
                    id: 200,
                    version: 2,
                },
            ),
            ev(24, 55, EventKind::Commit { version: 3 }),
            ev(25, 60, EventKind::Commit { version: 4 }),
        ]);
        mk(events)
    }

    #[test]
    fn cascade_attribution_joins_to_root() {
        let t = cascade_log().lineage();
        assert_eq!(t.lineage_of(1), Some(LineageId::root_of(1)));
        assert_eq!(
            t.lineage_of(3),
            Some(LineageId {
                root: 1,
                parent: Some(2),
                depth: 2
            })
        );
        let roots = t.roots();
        assert_eq!(roots.len(), 2);
        let r1 = &roots[0];
        assert_eq!(r1.root, 1);
        assert_eq!(r1.versions, 3, "v1, v2, v3 share the line");
        assert_eq!(r1.max_depth, 2);
        assert_eq!(r1.rollbacks, 2);
        assert_eq!(r1.commits, 1, "the line eventually commits at v3");
        assert_eq!(r1.wasted_us, 40 + 30, "v1's 40us + v2's 30us");
        assert_eq!(r1.cascade_deleted, 4);
        let r4 = &roots[1];
        assert_eq!(r4.root, 4);
        assert_eq!((r4.versions, r4.wasted_us, r4.commits), (1, 0, 1));
    }

    #[test]
    fn wasted_us_conserves_against_spec_health() {
        let log = cascade_log();
        let t = log.lineage();
        let h = log.health();
        assert_eq!(t.total_wasted_us(), h.wasted_us);
    }

    #[test]
    fn unversioned_waste_lands_in_the_unattributed_bucket() {
        let mut events = vec![
            ev(
                0,
                0,
                EventKind::TaskStart {
                    id: 1,
                    name: "t",
                    version: None,
                    tag: 0,
                },
            ),
            ev(
                1,
                25,
                EventKind::TaskEnd {
                    id: 1,
                    name: "t",
                    version: None,
                    discarded: true,
                    class: ClassTag::Regular,
                    faulted: false,
                    busy_us: 0,
                },
            ),
        ];
        events.extend(spec_task(2, 2, 7, 0, 10, true));
        let log = mk(events);
        let t = log.lineage();
        assert_eq!(t.unattributed_wasted_us, 25);
        // v7 never had a lineage-open: it defaults to its own root.
        assert_eq!(t.lineage_of(7), Some(LineageId::root_of(7)));
        assert_eq!(t.total_wasted_us(), log.health().wasted_us);
    }

    #[test]
    fn csv_round_trips() {
        let t = cascade_log().lineage();
        let csv = t.to_csv();
        let back = LineageTable::from_csv(&csv).expect("parses");
        assert_eq!(back.versions, t.versions);
        assert_eq!(back.unattributed_wasted_us, t.unattributed_wasted_us);
        assert_eq!(back.to_csv(), csv, "serialisation is a fixed point");
        assert!(LineageTable::from_csv("bogus\n1,2").is_none());
        assert!(LineageTable::from_csv(LINEAGE_CSV_HEADER)
            .map(|t| t.versions.is_empty())
            .unwrap_or(false));
    }

    #[test]
    fn tree_renders_deterministically_with_cascade_edges() {
        let t = cascade_log().lineage();
        let tree = t.render_tree();
        assert_eq!(tree, t.render_tree());
        let lines: Vec<&str> = tree.lines().collect();
        assert!(lines[0].starts_with("v1 depth=0 [rolled-back]"));
        assert!(lines[1].contains("└─ v2 depth=1"));
        assert!(lines[2].contains("└─ v3 depth=2 [committed]"));
        assert!(lines[3].starts_with("v4 depth=0 [committed]"));
    }
}
