//! Reversible speculative side effects — the paper's proposed extension.
//!
//! "Keeping speculative tasks free of side effects simplifies rollback ...
//! Note that our framework can be extended to support user-defined rollback
//! routines, to enable more tasks to execute speculatively." (§II-A)
//!
//! Where the [`WaitBuffer`](crate::buffer::WaitBuffer) *defers* effects
//! until commit, the [`UndoLog`] lets speculative tasks apply effects
//! immediately and journals how to reverse them: commit discards the
//! journal (effects stand), abort replays it backwards. [`JournaledCell`]
//! packages the common case of speculatively-overwritten state.

use crate::arena::{AllocStats, ScratchPool};
use tvs_metrics::{Counter, MetricsHub};
use tvs_sre::{FaultInjector, FaultKind, FaultSite, Instruments, SpecVersion};
use tvs_trace::{EventKind, Tracer};

/// An entry that knows how to reverse itself.
pub trait Undo {
    /// Reverse the recorded effect.
    fn undo(self);
}

impl<F: FnOnce()> Undo for F {
    fn undo(self) {
        self()
    }
}

/// A per-version journal of reversible effects.
///
/// Journals live in a small linear `version → Vec<E>` map whose entry
/// vectors are recycled through a [`ScratchPool`]: once the pool is warm,
/// recording, committing and aborting versions touches the heap only when
/// a journal outgrows every capacity seen before.
pub struct UndoLog<E: Undo> {
    journal: Vec<(SpecVersion, Vec<E>)>,
    pool: ScratchPool<E>,
    committed: u64,
    undone: u64,
    tracer: Tracer,
    metrics: MetricsHub,
    faults: FaultInjector,
}

impl<E: Undo> Default for UndoLog<E> {
    fn default() -> Self {
        Self::instrumented(&Instruments::default())
    }
}

impl<E: Undo> UndoLog<E> {
    /// An empty journal, dark.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty journal on a run's [`Instruments`]: an abort that actually
    /// replays entries emits an undo-replay event on `ins.tracer`'s control
    /// ring and feeds [`Counter::UndoReplays`] (one per entry) into
    /// `ins.metrics`' control shard — the journal is mutated under its
    /// host's routing lock, matching both sinks' single-writer discipline —
    /// and `ins.faults` is consulted at the `UndoJournal` site: a drawn
    /// `Stall` delays the replay of an abort (modelling slow reversal I/O),
    /// which chaos tests use to widen the window in which a second abort
    /// can land mid-rollback. Correctness must not depend on replay being
    /// fast.
    pub fn instrumented(ins: &Instruments) -> Self {
        UndoLog {
            journal: Vec::new(),
            pool: ScratchPool::new(),
            committed: 0,
            undone: 0,
            tracer: ins.tracer.clone(),
            metrics: ins.metrics.clone(),
            faults: ins.faults.clone(),
        }
    }

    /// Record the reversal for an effect just applied under `version`.
    pub fn record(&mut self, version: SpecVersion, entry: E) {
        match self.journal.iter_mut().find(|(v, _)| *v == version) {
            Some((_, entries)) => entries.push(entry),
            None => {
                let mut entries = self.pool.take();
                entries.push(entry);
                self.journal.push((version, entries));
            }
        }
    }

    /// Detach `version`'s journal, if any.
    fn remove(&mut self, version: SpecVersion) -> Option<Vec<E>> {
        let i = self.journal.iter().position(|(v, _)| *v == version)?;
        Some(self.journal.swap_remove(i).1)
    }

    /// Commit `version`: its effects stand; the journal is discarded.
    /// Returns the number of entries released.
    pub fn commit(&mut self, version: SpecVersion) -> usize {
        let n = match self.remove(version) {
            Some(entries) => {
                let n = entries.len();
                self.pool.put(entries); // drops the reversals unrun
                n
            }
            None => 0,
        };
        self.committed += n as u64;
        n
    }

    /// Abort `version`: replay its journal in reverse (LIFO) order —
    /// later effects are reversed first, as nested state changes require.
    /// Returns the number of entries undone.
    pub fn abort(&mut self, version: SpecVersion) -> usize {
        if let Some(FaultKind::Stall { us }) = self.faults.draw(FaultSite::UndoJournal) {
            std::thread::sleep(std::time::Duration::from_micros(us));
        }
        let mut entries = self.remove(version).unwrap_or_default();
        let n = entries.len();
        for e in entries.drain(..).rev() {
            e.undo();
        }
        self.pool.put(entries);
        self.undone += n as u64;
        if n > 0 {
            self.metrics.add_control(Counter::UndoReplays, n as u64);
            self.tracer.emit_control(EventKind::UndoReplay {
                version,
                entries: n as u64,
            });
        }
        n
    }

    /// Entries currently journalled for `version`.
    pub fn len_of(&self, version: SpecVersion) -> usize {
        self.journal
            .iter()
            .find(|(v, _)| *v == version)
            .map(|(_, entries)| entries.len())
            .unwrap_or(0)
    }

    /// `(committed, undone)` lifetime counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.committed, self.undone)
    }

    /// Heap-allocation counters of the internal journal pool.
    pub fn alloc_stats(&self) -> AllocStats {
        self.pool.stats()
    }

    /// Zero the internal pool's allocation counters (bench warm-up).
    pub fn reset_alloc_stats(&mut self) {
        self.pool.reset_stats();
    }
}

/// A value that speculative tasks may overwrite in place, with version-
/// scoped restore-on-abort.
///
/// A cell remembers, per version, the value it held before that version's
/// *first* write; aborting restores it, committing forgets it. Writes from
/// at most one speculative version may be outstanding at a time (matching
/// the engine's one-active-speculation discipline); interleaving two
/// versions' writes is a caller bug and panics.
#[derive(Debug)]
pub struct JournaledCell<T: Clone> {
    value: T,
    saved: Option<(SpecVersion, T)>,
}

impl<T: Clone> JournaledCell<T> {
    /// A cell holding `value`.
    pub fn new(value: T) -> Self {
        JournaledCell { value, saved: None }
    }

    /// Current (possibly speculative) value.
    pub fn get(&self) -> &T {
        &self.value
    }

    /// Non-speculative write: only legal with no speculation outstanding.
    pub fn set(&mut self, value: T) {
        assert!(
            self.saved.is_none(),
            "non-speculative write during speculation"
        );
        self.value = value;
    }

    /// Speculative write under `version`.
    pub fn set_speculative(&mut self, version: SpecVersion, value: T) {
        match &self.saved {
            None => self.saved = Some((version, self.value.clone())),
            Some((v, _)) => assert_eq!(
                *v, version,
                "interleaved speculative writers ({v} and {version})"
            ),
        }
        self.value = value;
    }

    /// Commit `version`'s writes (no-op if it never wrote here).
    pub fn commit(&mut self, version: SpecVersion) {
        if let Some((v, _)) = &self.saved {
            if *v == version {
                self.saved = None;
            }
        }
    }

    /// Abort `version`'s writes, restoring the pre-speculation value
    /// (no-op if it never wrote here).
    pub fn abort(&mut self, version: SpecVersion) {
        if let Some((v, _)) = &self.saved {
            if *v == version {
                let (_, old) = self.saved.take().expect("just checked");
                self.value = old;
            }
        }
    }

    /// Whether a speculative write is outstanding.
    pub fn is_speculative(&self) -> bool {
        self.saved.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn abort_replays_in_reverse_order() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut log: UndoLog<Box<dyn FnOnce()>> = UndoLog::new();
        for i in 0..3 {
            let order = Rc::clone(&order);
            log.record(1, Box::new(move || order.borrow_mut().push(i)));
        }
        assert_eq!(log.len_of(1), 3);
        assert_eq!(log.abort(1), 3);
        assert_eq!(*order.borrow(), vec![2, 1, 0], "LIFO undo");
        assert_eq!(log.stats(), (0, 3));
    }

    #[test]
    fn commit_discards_without_running() {
        let ran = Rc::new(RefCell::new(false));
        let mut log: UndoLog<Box<dyn FnOnce()>> = UndoLog::new();
        let ran2 = Rc::clone(&ran);
        log.record(2, Box::new(move || *ran2.borrow_mut() = true));
        assert_eq!(log.commit(2), 1);
        assert!(!*ran.borrow(), "commit must not execute reversals");
        assert_eq!(log.stats(), (1, 0));
    }

    #[test]
    fn versions_are_isolated() {
        let hits = Rc::new(RefCell::new(Vec::new()));
        let mut log: UndoLog<Box<dyn FnOnce()>> = UndoLog::new();
        for v in [1u32, 2, 1, 2] {
            let hits = Rc::clone(&hits);
            log.record(v, Box::new(move || hits.borrow_mut().push(v)));
        }
        log.abort(2);
        assert_eq!(*hits.borrow(), vec![2, 2]);
        log.commit(1);
        assert_eq!(*hits.borrow(), vec![2, 2], "committed entries never run");
    }

    #[test]
    fn stalled_replay_still_reverses_correctly() {
        use tvs_sre::FaultPlan;
        let faults = FaultInjector::new(FaultPlan::new(5).with_rule(
            FaultSite::UndoJournal,
            FaultKind::Stall { us: 500 },
            1.0,
        ));
        let mut log: UndoLog<Box<dyn FnOnce()>> =
            UndoLog::instrumented(&Instruments::faulty(faults));
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3 {
            let order = Rc::clone(&order);
            log.record(1, Box::new(move || order.borrow_mut().push(i)));
        }
        assert_eq!(log.abort(1), 3, "stall delays, never drops, the replay");
        assert_eq!(*order.borrow(), vec![2, 1, 0]);
    }

    #[test]
    fn unknown_version_is_noop() {
        let mut log: UndoLog<Box<dyn FnOnce()>> = UndoLog::new();
        assert_eq!(log.abort(9), 0);
        assert_eq!(log.commit(9), 0);
    }

    #[test]
    fn journaled_cell_abort_restores() {
        let mut cell = JournaledCell::new(10);
        cell.set_speculative(1, 20);
        cell.set_speculative(1, 30);
        assert_eq!(*cell.get(), 30);
        assert!(cell.is_speculative());
        cell.abort(1);
        assert_eq!(*cell.get(), 10, "restore the pre-speculation value");
        assert!(!cell.is_speculative());
    }

    #[test]
    fn journaled_cell_commit_keeps() {
        let mut cell = JournaledCell::new("base".to_string());
        cell.set_speculative(4, "spec".into());
        cell.commit(4);
        assert_eq!(cell.get(), "spec");
        // Post-commit, plain writes are legal again.
        cell.set("next".into());
        assert_eq!(cell.get(), "next");
    }

    #[test]
    fn journaled_cell_foreign_version_noop() {
        let mut cell = JournaledCell::new(1);
        cell.set_speculative(7, 2);
        cell.abort(8); // different version: nothing happens
        assert_eq!(*cell.get(), 2);
        cell.commit(8);
        assert!(cell.is_speculative());
        cell.abort(7);
        assert_eq!(*cell.get(), 1);
    }

    #[test]
    #[should_panic(expected = "interleaved speculative writers")]
    fn journaled_cell_rejects_interleaving() {
        let mut cell = JournaledCell::new(0);
        cell.set_speculative(1, 1);
        cell.set_speculative(2, 2);
    }

    #[test]
    #[should_panic(expected = "non-speculative write during speculation")]
    fn journaled_cell_rejects_mixed_writes() {
        let mut cell = JournaledCell::new(0);
        cell.set_speculative(1, 1);
        cell.set(2);
    }

    #[test]
    fn integrates_with_manager_rollback_hook() {
        use crate::frequency::{SpeculationSchedule, VerificationPolicy};
        use crate::manager::SpeculationManager;
        use crate::validate::CheckResult;
        use std::sync::{Arc, Mutex};

        // Shared undo journal driven by the manager's rollback hook — the
        // paper's "user-defined rollback routines" wired end to end.
        type SharedLog = Arc<Mutex<UndoLog<Box<dyn FnOnce() + Send>>>>;
        let log: SharedLog = Arc::new(Mutex::new(UndoLog::new()));
        let state = Arc::new(Mutex::new(0i64));

        let mut mgr: SpeculationManager<i64> =
            SpeculationManager::new(SpeculationSchedule::with_step(1), VerificationPolicy::Full);
        let log2 = Arc::clone(&log);
        mgr.set_rollback_hook(move |v| {
            log2.lock().unwrap().abort(v);
        });

        mgr.on_basis(1);
        mgr.install_prediction(1, 42);
        // A "speculative task with side effects": apply and journal.
        {
            let mut st = state.lock().unwrap();
            let old = *st;
            *st = 42;
            let state2 = Arc::clone(&state);
            log.lock().unwrap().record(
                1,
                Box::new(move || {
                    *state2.lock().unwrap() = old;
                }),
            );
        }
        assert_eq!(*state.lock().unwrap(), 42);
        // The check fails: the hook must restore the state.
        mgr.on_basis(2);
        mgr.on_check_result(1, CheckResult::fail(9.0), None);
        assert_eq!(
            *state.lock().unwrap(),
            0,
            "rollback hook reversed the effect"
        );
    }
}
