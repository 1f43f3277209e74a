//! The Wait task: a side-effect barrier for speculative outputs.
//!
//! "When speculative data arrives at a state-modifying task such as writing
//! to disk or network I/O, it is buffered until the validity of the
//! speculation is confirmed." The [`WaitBuffer`] holds those outputs,
//! partitioned by speculation version and ordered by an application slot
//! key (block index for the Huffman encoder), until the version is either
//! committed (outputs released, in order) or aborted (outputs reclaimed).
//!
//! Storage is a small linear map of `version → Vec<(slot, value)>` with the
//! per-version vectors recycled through a [`ScratchPool`]: at any moment
//! only a handful of versions are live, appends are push-onto-Vec, and both
//! the slot ordering the committer needs and replace-on-duplicate are
//! established by one stable sort at commit time — instead of a B-tree node
//! allocation, or a scan of everything buffered, per buffered output.

use crate::arena::{AllocStats, ScratchPool};
use tvs_sre::SpecVersion;

/// Buffered speculative outputs awaiting validation.
#[derive(Debug)]
pub struct WaitBuffer<V> {
    /// Live versions and their buffered `(slot, value)` pairs. Linear — the
    /// speculation pipeline keeps at most a couple of versions in flight.
    by_version: Vec<(SpecVersion, Vec<(u64, V)>)>,
    /// Recycled per-version vectors (capacity survives commit/abort).
    pool: ScratchPool<(u64, V)>,
    /// Total values ever buffered (metrics).
    buffered: u64,
    /// Total slots discarded by aborts (metrics).
    discarded: u64,
}

impl<V> Default for WaitBuffer<V> {
    fn default() -> Self {
        WaitBuffer {
            by_version: Vec::new(),
            pool: ScratchPool::new(),
            buffered: 0,
            discarded: 0,
        }
    }
}

impl<V> WaitBuffer<V> {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    fn entry(&self, version: SpecVersion) -> Option<&Vec<(u64, V)>> {
        self.by_version
            .iter()
            .find(|(v, _)| *v == version)
            .map(|(_, vals)| vals)
    }

    /// Buffer `value` produced under `version` for slot `slot` (e.g. block
    /// index), in O(1). A later value for the same (version, slot) replaces
    /// the earlier one — resolved when the version commits or aborts, which
    /// is why, unlike a map's `insert`, this cannot hand the replaced value
    /// back. The accessors below all count a slot once, however many
    /// values were pushed for it.
    pub fn push(&mut self, version: SpecVersion, slot: u64, value: V) {
        self.buffered += 1;
        let idx = match self.by_version.iter().position(|(v, _)| *v == version) {
            Some(i) => i,
            None => {
                let vals = self.pool.take();
                self.by_version.push((version, vals));
                self.by_version.len() - 1
            }
        };
        self.by_version[idx].1.push((slot, value));
    }

    /// Release all outputs of a committed version into `out`, ordered by
    /// slot and with only the last value pushed for each slot, recycling
    /// the internal storage. The pooled twin of [`Self::commit`].
    pub fn commit_into(&mut self, version: SpecVersion, out: &mut Vec<(u64, V)>) {
        if let Some(i) = self.by_version.iter().position(|(v, _)| *v == version) {
            let (_, mut vals) = self.by_version.swap_remove(i);
            settle(&mut vals);
            out.append(&mut vals);
            self.pool.put(vals);
        }
    }

    /// Release all outputs of a committed version, ordered by slot.
    pub fn commit(&mut self, version: SpecVersion) -> Vec<(u64, V)> {
        let mut out = Vec::new();
        self.commit_into(version, &mut out);
        out
    }

    /// Reclaim (drop) all outputs of an aborted version; returns how many
    /// slots were discarded.
    pub fn abort(&mut self, version: SpecVersion) -> usize {
        match self.by_version.iter().position(|(v, _)| *v == version) {
            Some(i) => {
                let (_, mut vals) = self.by_version.swap_remove(i);
                settle(&mut vals);
                let n = vals.len();
                self.discarded += n as u64;
                self.pool.put(vals);
                n
            }
            None => 0,
        }
    }

    /// Number of slots currently held for `version`.
    pub fn len_of(&self, version: SpecVersion) -> usize {
        self.slots_of(version).len()
    }

    /// Slots currently buffered for `version`, ascending, each once.
    pub fn slots_of(&self, version: SpecVersion) -> Vec<u64> {
        let mut slots: Vec<u64> = self
            .entry(version)
            .map(|vals| vals.iter().map(|&(s, _)| s).collect())
            .unwrap_or_default();
        slots.sort_unstable();
        slots.dedup();
        slots
    }

    /// Total slots currently held across versions.
    pub fn len(&self) -> usize {
        self.by_version.iter().map(|&(v, _)| self.len_of(v)).sum()
    }

    /// Whether the buffer is entirely empty.
    pub fn is_empty(&self) -> bool {
        self.by_version.iter().all(|(_, vals)| vals.is_empty())
    }

    /// `(ever_buffered, ever_discarded)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.buffered, self.discarded)
    }

    /// Heap-allocation counters of the internal vector pool.
    pub fn alloc_stats(&self) -> AllocStats {
        self.pool.stats()
    }

    /// Zero the internal pool's allocation counters (bench warm-up).
    pub fn reset_alloc_stats(&mut self) {
        self.pool.reset_stats();
    }
}

/// Order a version's buffered values by slot and resolve replacement: of
/// the values pushed for one slot only the last survives. Values pushed in
/// ascending slot order, each slot once, are left as they are.
fn settle<V>(vals: &mut Vec<(u64, V)>) {
    if vals.windows(2).all(|w| w[0].0 < w[1].0) {
        return;
    }
    // Stable, so equal slots stay in push order; each run of equal slots
    // then collapses onto its last-pushed value.
    vals.sort_by_key(|&(slot, _)| slot);
    vals.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            std::mem::swap(later, kept);
        }
        same
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_releases_in_slot_order() {
        let mut b = WaitBuffer::new();
        b.push(1, 5, "f");
        b.push(1, 2, "c");
        b.push(1, 9, "j");
        let out = b.commit(1);
        assert_eq!(out, vec![(2, "c"), (5, "f"), (9, "j")]);
        assert!(b.is_empty());
    }

    #[test]
    fn versions_are_isolated() {
        let mut b = WaitBuffer::new();
        b.push(1, 0, 10);
        b.push(2, 0, 20);
        assert_eq!(b.len_of(1), 1);
        assert_eq!(b.len_of(2), 1);
        assert_eq!(b.abort(1), 1);
        assert_eq!(b.len_of(1), 0);
        assert_eq!(b.commit(2), vec![(0, 20)]);
    }

    #[test]
    fn replace_same_slot() {
        let mut b = WaitBuffer::new();
        b.push(1, 3, "old");
        b.push(1, 7, "other");
        b.push(1, 3, "newer");
        b.push(1, 3, "newest");
        assert_eq!(b.slots_of(1), vec![3, 7]);
        assert_eq!((b.len_of(1), b.len()), (2, 2));
        assert_eq!(b.commit(1), vec![(3, "newest"), (7, "other")]);
        // An abort counts a re-pushed slot once, too.
        b.push(2, 3, "old");
        b.push(2, 3, "new");
        assert_eq!(b.abort(2), 1);
        assert_eq!(b.stats(), (6, 1));
    }

    #[test]
    fn replacement_survives_a_large_out_of_order_version() {
        // Large enough that the stable sort takes its merge path, not the
        // small-slice insertion sort.
        let mut b = WaitBuffer::new();
        for slot in (0..2_000u64).rev() {
            b.push(1, slot, slot);
        }
        for slot in (0..2_000u64).step_by(3) {
            b.push(1, slot, slot + 10_000);
        }
        let out = b.commit(1);
        assert_eq!(out.len(), 2_000);
        for (i, &(slot, v)) in out.iter().enumerate() {
            assert_eq!(slot, i as u64);
            assert_eq!(v, if slot % 3 == 0 { slot + 10_000 } else { slot });
        }
    }

    #[test]
    fn commit_or_abort_of_unknown_version_is_empty() {
        let mut b: WaitBuffer<u8> = WaitBuffer::new();
        assert!(b.commit(7).is_empty());
        assert_eq!(b.abort(7), 0);
    }

    #[test]
    fn stats_track_buffered_and_discarded() {
        let mut b = WaitBuffer::new();
        b.push(1, 0, ());
        b.push(1, 1, ());
        b.push(2, 0, ());
        b.abort(1);
        assert_eq!(b.stats(), (3, 2));
        b.commit(2);
        assert_eq!(b.stats(), (3, 2));
    }

    #[test]
    fn slots_listing() {
        let mut b = WaitBuffer::new();
        b.push(4, 8, ());
        b.push(4, 1, ());
        assert_eq!(b.slots_of(4), vec![1, 8]);
        assert_eq!(b.slots_of(5), Vec::<u64>::new());
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn commit_into_appends_and_recycles_storage() {
        let mut b = WaitBuffer::new();
        b.push(1, 2, "b");
        b.push(1, 0, "a");
        let mut out = vec![(u64::MAX, "sentinel")];
        b.commit_into(1, &mut out);
        assert_eq!(out, vec![(u64::MAX, "sentinel"), (0, "a"), (2, "b")]);
        // The freed vector is pooled: the next version reuses it.
        b.push(2, 0, "c");
        assert_eq!(b.alloc_stats().reuses, 1);
    }

    #[test]
    fn steady_state_buffering_allocates_nothing() {
        let mut b = WaitBuffer::new();
        // Warm-up: one committed and one aborted version seed the pool.
        b.push(1, 0, 0u32);
        b.push(2, 0, 0u32);
        b.commit(1);
        b.abort(2);
        b.reset_alloc_stats();
        let mut out = Vec::with_capacity(4);
        for v in 3..100u32 {
            b.push(v, 1, v);
            b.push(v, 0, v);
            out.clear();
            b.commit_into(v, &mut out);
            assert_eq!(out.len(), 2);
        }
        assert_eq!(b.alloc_stats().heap_allocs, 0);
    }
}
