//! The one store behind the Wait buffer and the undo journal: a small
//! linear `version → Vec<T>` map whose vectors are recycled, so that once
//! a few versions have come and gone, pushing, committing and aborting
//! touch the heap only when a version outgrows every capacity seen before.

use tvs_sre::SpecVersion;

/// Heap-allocation counter: of a per-version store, the versions that
/// found no spare vector; of a Huffman run, its encode output buffers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocations that had to touch the heap.
    pub heap_allocs: u64,
}

/// Live versions' items plus the spare vectors released versions left.
/// Linear: the speculation pipeline keeps at most a few versions live
/// (a candidate promotion can make a second one).
#[derive(Debug)]
pub(crate) struct PerVersion<T> {
    live: Vec<(SpecVersion, Vec<T>)>,
    spare: Vec<Vec<T>>,
    stats: AllocStats,
}

impl<T> Default for PerVersion<T> {
    fn default() -> Self {
        PerVersion {
            live: Vec::new(),
            spare: Vec::new(),
            stats: AllocStats::default(),
        }
    }
}

impl<T> PerVersion<T> {
    /// Add `item` to `version`, opening it on a spare vector if it is not
    /// live.
    pub(crate) fn push(&mut self, version: SpecVersion, item: T) {
        let i = match self.live.iter().position(|(v, _)| *v == version) {
            Some(i) => i,
            None => {
                let items = self.spare.pop().unwrap_or_else(|| {
                    self.stats.heap_allocs += 1;
                    Vec::new()
                });
                self.live.push((version, items));
                self.live.len() - 1
            }
        };
        self.live[i].1.push(item);
    }

    /// Close `version`: hand its items to `f`, then clear the vector and
    /// keep it spare. `None` when `version` is not live.
    pub(crate) fn release<R>(
        &mut self,
        version: SpecVersion,
        f: impl FnOnce(&mut Vec<T>) -> R,
    ) -> Option<R> {
        let i = self.live.iter().position(|(v, _)| *v == version)?;
        let (_, mut items) = self.live.swap_remove(i);
        let r = f(&mut items);
        items.clear();
        self.spare.push(items);
        Some(r)
    }

    /// `version`'s items, empty when it is not live.
    pub(crate) fn get(&self, version: SpecVersion) -> &[T] {
        self.live
            .iter()
            .find(|(v, _)| *v == version)
            .map_or(&[], |(_, items)| items)
    }

    /// The live versions, in no particular order.
    pub(crate) fn versions(&self) -> impl Iterator<Item = SpecVersion> + '_ {
        self.live.iter().map(|&(v, _)| v)
    }

    pub(crate) fn alloc_stats(&self) -> AllocStats {
        self.stats
    }

    pub(crate) fn reset_alloc_stats(&mut self) {
        self.stats = AllocStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_release_round_trip() {
        let mut s = PerVersion::default();
        s.push(1, "one");
        s.push(2, "two");
        s.push(1, "uno");
        assert_eq!(s.get(1), ["one", "uno"]);
        assert_eq!(s.get(2), ["two"]);
        assert_eq!(s.release(1, |items| items.len()), Some(2));
        assert!(s.get(1).is_empty());
        assert_eq!(s.versions().collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn double_release_is_a_no_op() {
        let mut s = PerVersion::default();
        s.push(4, 1u32);
        assert_eq!(s.release(4, |items| items.len()), Some(1));
        assert_eq!(s.release(4, |items| items.len()), None);
        assert_eq!(s.versions().count(), 0);
    }

    #[test]
    fn a_recycled_vector_never_shows_old_items() {
        // The hazard of recycling: a version opened on a released
        // version's vector must not see (or release) what that one held.
        let mut s = PerVersion::default();
        s.push(1, "old");
        s.push(1, "older");
        s.release(1, |_| ());
        s.push(2, "new");
        assert_eq!(s.alloc_stats().heap_allocs, 1, "the vector is reused");
        assert_eq!(s.get(2), ["new"]);
        assert!(s.get(1).is_empty());
        assert_eq!(s.release(2, |items| items.clone()), Some(vec!["new"]));
    }

    #[test]
    fn steady_state_allocs_reach_zero() {
        // Warm-up: two live versions at once need two vectors.
        let mut s = PerVersion::default();
        s.push(1, 0u64);
        s.push(2, 0u64);
        s.release(2, |_| ());
        s.release(1, |_| ());
        assert_eq!(s.alloc_stats().heap_allocs, 2);
        s.reset_alloc_stats();
        // Steady state: churn at the same high-water mark is all reuse,
        // whichever of the two versions resolves first.
        for v in (3..100u32).step_by(2) {
            s.push(v, 1);
            s.push(v + 1, 2);
            let (first, second) = if v % 3 == 0 { (v, v + 1) } else { (v + 1, v) };
            s.release(first, |_| ());
            s.release(second, |_| ());
        }
        assert_eq!(s.alloc_stats().heap_allocs, 0);
    }

    #[test]
    fn a_spare_vector_keeps_its_capacity() {
        let mut s = PerVersion::default();
        for i in 0..1000u64 {
            s.push(1, i);
        }
        let cap = s.release(1, |items| items.capacity()).expect("live");
        s.push(2, 0);
        let (len, cap2) = s
            .release(2, |items| (items.len(), items.capacity()))
            .expect("live");
        assert_eq!((len, cap2), (1, cap), "capacity survives the release");
    }
}
