//! Reversible speculative side effects — the paper's proposed extension.
//!
//! "Keeping speculative tasks free of side effects simplifies rollback ...
//! Note that our framework can be extended to support user-defined rollback
//! routines, to enable more tasks to execute speculatively." (§II-A)
//!
//! Where the [`WaitBuffer`](crate::buffer::WaitBuffer) *defers* effects
//! until commit, the [`UndoLog`] lets speculative tasks apply effects
//! immediately and journals how to reverse them: commit discards the
//! journal (effects stand), abort replays it backwards.
//!
//! No pipeline here journals an effect: every Huffman and filter task is
//! side-effect free, and the Wait buffer is the one place speculative
//! state leaves the engine. The journal stays because the benchmark's
//! engine-round cell (`core.engine_round_ns`) drives it next to the Wait
//! buffer; it goes when that cell does.

use crate::per_version::{AllocStats, PerVersion};
use tvs_sre::SpecVersion;

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

/// A per-version journal of reversible effects, on the crate's one
/// per-version store: once its vectors are warm, recording, committing
/// and aborting versions touches the heap only when a journal outgrows
/// every capacity seen before.
pub struct UndoLog<E: Undo> {
    journal: PerVersion<E>,
    committed: u64,
    undone: u64,
}

impl<E: Undo> Default for UndoLog<E> {
    fn default() -> Self {
        UndoLog {
            journal: PerVersion::default(),
            committed: 0,
            undone: 0,
        }
    }
}

impl<E: Undo> UndoLog<E> {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the reversal for an effect just applied under `version`.
    pub fn record(&mut self, version: SpecVersion, entry: E) {
        self.journal.push(version, entry);
    }

    /// Commit `version`: its effects stand; the journal is discarded
    /// (its reversals are dropped unrun). Returns the number of entries
    /// released.
    pub fn commit(&mut self, version: SpecVersion) -> usize {
        let n = self
            .journal
            .release(version, |entries| entries.len())
            .unwrap_or(0);
        self.committed += n as u64;
        n
    }

    /// Abort `version`: replay its journal in reverse (LIFO) order —
    /// later effects are reversed first, as nested state changes require.
    /// Returns the number of entries undone.
    pub fn abort(&mut self, version: SpecVersion) -> usize {
        let n = self
            .journal
            .release(version, |entries| {
                let n = entries.len();
                entries.drain(..).rev().for_each(Undo::undo);
                n
            })
            .unwrap_or(0);
        self.undone += n as u64;
        n
    }

    /// `(committed, undone)` lifetime counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.committed, self.undone)
    }

    /// Heap-allocation counters of the internal store.
    pub fn alloc_stats(&self) -> AllocStats {
        self.journal.alloc_stats()
    }

    /// Zero the internal store's allocation counters (bench warm-up).
    pub fn reset_alloc_stats(&mut self) {
        self.journal.reset_alloc_stats();
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
        // A slow reversal (an entry that sleeps, as slow rollback I/O
        // would) delays the replay but never drops or reorders it.
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut log: UndoLog<Box<dyn FnOnce()>> = UndoLog::new();
        for i in 0..3 {
            let order = Rc::clone(&order);
            log.record(1, Box::new(move || order.borrow_mut().push(i)));
            if i == 1 {
                let stall = std::time::Duration::from_micros(500);
                log.record(1, Box::new(move || std::thread::sleep(stall)));
            }
        }
        assert_eq!(log.abort(1), 4, "stall delays, never drops, the replay");
        assert_eq!(*order.borrow(), vec![2, 1, 0]);
    }

    #[test]
    fn unknown_version_is_noop() {
        let mut log: UndoLog<Box<dyn FnOnce()>> = UndoLog::new();
        assert_eq!(log.abort(9), 0);
        assert_eq!(log.commit(9), 0);
    }
}
