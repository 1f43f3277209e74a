//! Ready queues with depth-favouring priority and FCFS tie-break.
//!
//! "Our platform uses a priority-based scheduling policy where depth is
//! favored, but uses FCFS for tasks of equal priority. [...] Value
//! predicting and verification tasks are given highest priority, no matter
//! where they are located in the pipeline."
//!
//! The queue is split three ways: a control queue (predictors and checks,
//! drained before any policy decision), a non-speculative queue and a
//! speculative queue; a [`DispatchPolicy`]
//! arbitrates between the latter two. Rollback needs to delete all ready
//! tasks of a version, so entries are indexed by version as well.

use crate::policy::{DispatchPolicy, LaneLoads, QueueKind};
use crate::task::{IdMap, SpecVersion, TaskClass, TaskId};
use std::collections::BTreeMap;

/// Orders ready tasks: deeper first, then FCFS (lower sequence number
/// first). `BTreeMap` iteration is ascending, so depth is stored inverted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Rank {
    inv_depth: u32,
    seq: u64,
}

impl Rank {
    fn new(depth: u32, seq: u64) -> Self {
        Rank {
            inv_depth: u32::MAX - depth,
            seq,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    rank: Rank,
    lane: Lane,
    version: Option<SpecVersion>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    Control,
    Normal,
    Speculative,
}

/// The ready-task structure of the scheduler.
#[derive(Debug, Default)]
pub struct ReadyQueue {
    control: BTreeMap<Rank, TaskId>,
    normal: BTreeMap<Rank, TaskId>,
    spec: BTreeMap<Rank, TaskId>,
    index: IdMap<IndexEntry>,
    seq: u64,
}

impl ReadyQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a ready task.
    pub fn push(&mut self, id: TaskId, class: TaskClass, depth: u32, version: Option<SpecVersion>) {
        let rank = Rank::new(depth, self.seq);
        self.seq += 1;
        let lane = match class {
            TaskClass::Predictor | TaskClass::Check => Lane::Control,
            TaskClass::Regular => Lane::Normal,
            TaskClass::Speculative => Lane::Speculative,
        };
        let map = match lane {
            Lane::Control => &mut self.control,
            Lane::Normal => &mut self.normal,
            Lane::Speculative => &mut self.spec,
        };
        map.insert(rank, id);
        self.index.insert(
            id,
            IndexEntry {
                rank,
                lane,
                version,
            },
        );
    }

    /// Take the next task to dispatch under `policy`, if any.
    ///
    /// Control tasks always win; otherwise the policy arbitrates between
    /// the non-speculative and speculative lanes using the caller-supplied
    /// per-lane busy time (for `Balanced`'s equal-share rule — the
    /// scheduler charges lanes as work is dispatched or completed).
    pub fn pop(
        &mut self,
        policy: DispatchPolicy,
        loads: LaneLoads,
        normal_pending_elsewhere: bool,
    ) -> Option<TaskId> {
        if let Some((_, id)) = self.control.pop_first() {
            self.index.remove(&id);
            return Some(id);
        }
        let kind = policy.choose(
            !self.normal.is_empty(),
            !self.spec.is_empty(),
            loads,
            normal_pending_elsewhere,
        )?;
        let map = match kind {
            QueueKind::Normal => &mut self.normal,
            QueueKind::Speculative => &mut self.spec,
        };
        let (_, id) = map.pop_first().expect("choose() saw a non-empty lane");
        self.index.remove(&id);
        Some(id)
    }

    /// Remove every ready task tagged with `version` (rollback's "ready
    /// tasks must be deleted"). Returns the removed ids.
    pub fn remove_version(&mut self, version: SpecVersion) -> Vec<TaskId> {
        let victims: Vec<TaskId> = self
            .index
            .iter()
            .filter(|(_, e)| e.version == Some(version))
            .map(|(&id, _)| id)
            .collect();
        for &id in &victims {
            let e = self.index.remove(&id).expect("indexed");
            let map = match e.lane {
                Lane::Control => &mut self.control,
                Lane::Normal => &mut self.normal,
                Lane::Speculative => &mut self.spec,
            };
            map.remove(&e.rank);
        }
        victims
    }

    /// Number of ready tasks in total.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no task is ready.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Ready counts per lane: `(control, normal, speculative)`.
    pub fn lane_lens(&self) -> (usize, usize, usize) {
        (self.control.len(), self.normal.len(), self.spec.len())
    }

    /// Whether a non-control task is dispatchable under `policy`.
    pub fn has_dispatchable(&self, policy: DispatchPolicy) -> bool {
        !self.control.is_empty()
            || !self.normal.is_empty()
            || (policy.speculates() && !self.spec.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DispatchPolicy::*;
    use crate::policy::LaneLoads;

    fn push_reg(q: &mut ReadyQueue, id: TaskId, depth: u32) {
        q.push(id, TaskClass::Regular, depth, None);
    }

    fn push_spec(q: &mut ReadyQueue, id: TaskId, depth: u32, v: SpecVersion) {
        q.push(id, TaskClass::Speculative, depth, Some(v));
    }

    #[test]
    fn depth_favoured_then_fcfs() {
        let mut q = ReadyQueue::new();
        push_reg(&mut q, 1, 0); // shallow, first
        push_reg(&mut q, 2, 5); // deep
        push_reg(&mut q, 3, 5); // deep, later
        push_reg(&mut q, 4, 2);
        assert_eq!(q.pop(NonSpeculative, LaneLoads::default(), false), Some(2)); // deepest, earliest
        assert_eq!(q.pop(NonSpeculative, LaneLoads::default(), false), Some(3)); // deepest, FCFS tie-break
        assert_eq!(q.pop(NonSpeculative, LaneLoads::default(), false), Some(4));
        assert_eq!(q.pop(NonSpeculative, LaneLoads::default(), false), Some(1));
        assert_eq!(q.pop(NonSpeculative, LaneLoads::default(), false), None);
    }

    #[test]
    fn control_tasks_preempt_everything() {
        let mut q = ReadyQueue::new();
        push_reg(&mut q, 1, 100);
        push_spec(&mut q, 2, 100, 0);
        q.push(3, TaskClass::Check, 0, None);
        q.push(4, TaskClass::Predictor, 0, Some(1));
        // Both control tasks first (FCFS between them since depth is MAX'd
        // by the TaskSpec constructors; here both depth 0 -> FCFS).
        assert_eq!(q.pop(Conservative, LaneLoads::default(), false), Some(3));
        assert_eq!(q.pop(Conservative, LaneLoads::default(), false), Some(4));
        assert_eq!(q.pop(Conservative, LaneLoads::default(), false), Some(1));
    }

    #[test]
    fn conservative_declines_spec_while_normal_is_bound_elsewhere() {
        let mut q = ReadyQueue::new();
        push_spec(&mut q, 1, 0, 0);
        // A non-speculative task waits in some worker's prefetch queue:
        // the machine is not idle, so conservative binds nothing.
        assert_eq!(q.pop(Conservative, LaneLoads::default(), true), None);
        // Other policies do not care.
        assert_eq!(q.pop(Aggressive, LaneLoads::default(), true), Some(1));
    }

    #[test]
    fn conservative_prefers_normal() {
        let mut q = ReadyQueue::new();
        push_spec(&mut q, 1, 9, 0);
        push_reg(&mut q, 2, 1);
        assert_eq!(q.pop(Conservative, LaneLoads::default(), false), Some(2));
        assert_eq!(q.pop(Conservative, LaneLoads::default(), false), Some(1)); // idle resources -> spec
    }

    #[test]
    fn aggressive_prefers_speculative() {
        let mut q = ReadyQueue::new();
        push_reg(&mut q, 1, 9);
        push_spec(&mut q, 2, 1, 0);
        assert_eq!(q.pop(Aggressive, LaneLoads::default(), false), Some(2));
        assert_eq!(q.pop(Aggressive, LaneLoads::default(), false), Some(1));
    }

    #[test]
    fn non_speculative_never_dispatches_spec() {
        let mut q = ReadyQueue::new();
        push_spec(&mut q, 1, 1, 0);
        assert_eq!(q.pop(NonSpeculative, LaneLoads::default(), false), None);
        assert!(!q.has_dispatchable(NonSpeculative));
        assert!(q.has_dispatchable(Conservative));
    }

    #[test]
    fn balanced_alternates_under_equal_charges() {
        // Emulate the scheduler: charge each lane equally per dispatch.
        let mut q = ReadyQueue::new();
        for i in 0..4 {
            push_reg(&mut q, 10 + i, 0);
            push_spec(&mut q, 20 + i, 0, 0);
        }
        let (mut bn, mut bs) = (0u64, 0u64);
        let mut order = Vec::new();
        while let Some(id) = q.pop(
            Balanced,
            LaneLoads {
                busy_normal_us: bn,
                busy_spec_us: bs,
                ..Default::default()
            },
            false,
        ) {
            if id >= 20 {
                bs += 10;
            } else {
                bn += 10;
            }
            order.push(id);
        }
        // Starts with normal (shares equal), then alternates.
        assert_eq!(order, vec![10, 20, 11, 21, 12, 22, 13, 23]);
    }

    #[test]
    fn balanced_weights_steer_towards_the_starved_lane() {
        let mut q = ReadyQueue::new();
        push_reg(&mut q, 1, 0);
        push_spec(&mut q, 2, 0, 0);
        // Speculation has consumed far more time: normal goes first.
        assert_eq!(
            q.pop(
                Balanced,
                LaneLoads {
                    busy_normal_us: 100,
                    busy_spec_us: 900,
                    ..Default::default()
                },
                false
            ),
            Some(1)
        );
        let mut q = ReadyQueue::new();
        push_reg(&mut q, 1, 0);
        push_spec(&mut q, 2, 0, 0);
        // Natural path has consumed more: speculation goes first.
        assert_eq!(
            q.pop(
                Balanced,
                LaneLoads {
                    busy_normal_us: 900,
                    busy_spec_us: 100,
                    ..Default::default()
                },
                false
            ),
            Some(2)
        );
    }

    #[test]
    fn remove_version_deletes_only_that_version() {
        let mut q = ReadyQueue::new();
        push_spec(&mut q, 1, 0, 7);
        push_spec(&mut q, 2, 0, 8);
        push_spec(&mut q, 3, 9, 7);
        push_reg(&mut q, 4, 0);
        let mut removed = q.remove_version(7);
        removed.sort_unstable();
        assert_eq!(removed, vec![1, 3]);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(Aggressive, LaneLoads::default(), false), Some(2));
        assert_eq!(q.pop(Aggressive, LaneLoads::default(), false), Some(4));
    }

    #[test]
    fn remove_version_on_empty_is_empty() {
        let mut q = ReadyQueue::new();
        assert!(q.remove_version(3).is_empty());
        assert!(q.is_empty());
    }

    #[test]
    fn lane_lens_track_contents() {
        let mut q = ReadyQueue::new();
        q.push(1, TaskClass::Check, 0, None);
        push_reg(&mut q, 2, 0);
        push_spec(&mut q, 3, 0, 0);
        push_spec(&mut q, 4, 0, 1);
        assert_eq!(q.lane_lens(), (1, 1, 2));
        assert_eq!(q.len(), 4);
    }
}
