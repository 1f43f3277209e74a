//! Lock-free commit log: the completion channel from the worker that
//! finished a task to whichever thread routes it.
//!
//! A finished task's report is pushed here and then routed by the thread
//! that holds the commit lock (see [`super::threaded`]) — the pusher
//! itself when the lock is free, the current holder otherwise. The
//! [`CommitRing`] is a bounded multi-producer ring in the style of
//! Vyukov's MPMC queue, restricted to **one consumer at a time**: the
//! consumer role migrates between threads, and the commit lock that
//! serialises them also orders one consumer's `head` store before the
//! next one's load.
//!
//! * every slot carries an atomic **epoch** (`seq`): a slot with
//!   `seq == pos` is free for the producer claiming ticket `pos`, a slot
//!   with `seq == pos + 1` holds that ticket's value for the consumer, and
//!   the consumer's release stores `seq = pos + capacity` — handing the
//!   slot to the producer one **lap** (epoch) later. Reclamation is thus
//!   by epoch arithmetic, not by locks or deferred frees;
//! * producers claim tickets with one CAS on `tail`; the consumer of the
//!   moment owns `head` outright (no CAS on the pop path);
//! * the crate is `forbid(unsafe_code)`, so slot *storage* is a
//!   `Mutex<Option<T>>` — but the epoch protocol guarantees exactly one
//!   thread touches a slot between two epoch transitions, so those mutexes
//!   are uncontended by construction: `lock()` compiles to an uncontested
//!   atomic exchange, never a futex wait.
//!
//! Nothing here blocks or wakes anyone: there is no consumer to park. A
//! push is one CAS plus one slot write, and [`CommitRing::is_empty`] lets
//! a thread that just gave up the consumer role check — without taking it
//! back — whether a report arrived meanwhile.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use super::core::lock_recover;

/// One ring slot: an epoch counter plus (uncontended) value storage.
struct Slot<T> {
    /// Epoch/sequence word. See the module docs for the protocol.
    seq: AtomicU64,
    val: Mutex<Option<T>>,
}

/// Why a non-blocking push did not enqueue.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The ring is full (consumer a whole lap behind); value returned.
    Full(T),
    /// The ring was closed; value returned.
    Closed(T),
}

/// Counters describing ring traffic (observability + benches).
#[derive(Debug, Default, Clone, Copy)]
pub struct RingStats {
    /// Values successfully enqueued.
    pub pushes: u64,
    /// Push attempts that found the ring full and had to yield.
    pub full_retries: u64,
}

/// Bounded lock-free multi-producer ring with one consumer at a time. See
/// the module docs.
pub struct CommitRing<T> {
    slots: Box<[Slot<T>]>,
    mask: u64,
    /// Next ticket to be claimed by a producer.
    tail: AtomicU64,
    /// Next ticket to be consumed. Written only by the current consumer.
    head: AtomicU64,
    /// Set when the run stops draining.
    closed: AtomicBool,
    pushes: AtomicU64,
    full_retries: AtomicU64,
}

impl<T> CommitRing<T> {
    /// A ring with at least `capacity` slots (rounded up to a power of
    /// two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots: Box<[Slot<T>]> = (0..cap)
            .map(|i| Slot {
                seq: AtomicU64::new(i as u64),
                val: Mutex::new(None),
            })
            .collect();
        CommitRing {
            slots,
            mask: cap as u64 - 1,
            tail: AtomicU64::new(0),
            head: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            pushes: AtomicU64::new(0),
            full_retries: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Entries currently enqueued (claimed by producers, not yet popped).
    /// Racy by nature — both cursors move concurrently — but the error is
    /// bounded by in-flight operations, which is fine for telemetry.
    pub fn occupancy(&self) -> u64 {
        self.tail
            .load(Ordering::Relaxed)
            .wrapping_sub(self.head.load(Ordering::Relaxed))
    }

    /// Whether nothing is published at the head ticket, i.e. [`Self::pop`]
    /// would return `None`. Callable from any thread. While another thread
    /// is consuming, the answer can be stale in either direction; that
    /// consumer then owes its own check once it stops. With no consumer
    /// active, a value whose push completed (SeqCst) before this call is
    /// never missed.
    pub fn is_empty(&self) -> bool {
        let head = self.head.load(Ordering::SeqCst);
        let slot = &self.slots[(head & self.mask) as usize];
        slot.seq.load(Ordering::SeqCst) != head.wrapping_add(1)
    }

    /// Mark the ring closed: subsequent pushes fail with
    /// [`PushError::Closed`]. Called when the run stops draining.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    /// Whether [`Self::close`] was called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Traffic counters.
    pub fn stats(&self) -> RingStats {
        RingStats {
            pushes: self.pushes.load(Ordering::Relaxed),
            full_retries: self.full_retries.load(Ordering::Relaxed),
        }
    }

    /// Non-blocking enqueue.
    pub fn try_push(&self, value: T) -> Result<(), PushError<T>> {
        if self.is_closed() {
            return Err(PushError::Closed(value));
        }
        let mut tail = self.tail.load(Ordering::SeqCst);
        loop {
            let slot = &self.slots[(tail & self.mask) as usize];
            let seq = slot.seq.load(Ordering::SeqCst);
            if seq == tail {
                // The slot is free this epoch: try to claim ticket `tail`.
                match self.tail.compare_exchange_weak(
                    tail,
                    tail.wrapping_add(1),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                ) {
                    Ok(_) => {
                        // Sole owner of the slot until the seq bump below —
                        // this lock is uncontended by protocol.
                        *lock_recover(&slot.val) = Some(value);
                        slot.seq.store(tail.wrapping_add(1), Ordering::SeqCst);
                        self.pushes.fetch_add(1, Ordering::Relaxed);
                        return Ok(());
                    }
                    Err(current) => tail = current,
                }
            } else if seq.wrapping_sub(tail) as i64 > 0 {
                // Another producer advanced past us; reload and retry.
                tail = self.tail.load(Ordering::SeqCst);
            } else {
                // seq < tail: the consumer hasn't freed this slot from the
                // previous lap — the ring is full.
                return Err(PushError::Full(value));
            }
        }
    }

    /// Enqueue with backpressure. Fails only when the ring closes.
    ///
    /// A full ring means consumption is a whole lap behind; on an
    /// oversubscribed machine pure `yield_now` spinning can still eat the
    /// producer's whole timeslice before the consumer runs, so after a few
    /// yields the backoff escalates to short sleeps that genuinely cede
    /// the core.
    pub fn push(&self, mut value: T) -> Result<(), PushError<T>> {
        let mut attempts = 0u32;
        loop {
            match self.try_push(value) {
                Ok(()) => return Ok(()),
                Err(PushError::Closed(v)) => return Err(PushError::Closed(v)),
                Err(PushError::Full(v)) => {
                    self.full_retries.fetch_add(1, Ordering::Relaxed);
                    value = v;
                    attempts += 1;
                    if attempts < 8 {
                        std::thread::yield_now();
                    } else {
                        let us = (attempts - 7).min(20) as u64 * 5;
                        std::thread::sleep(Duration::from_micros(us));
                    }
                }
            }
        }
    }

    /// Non-blocking dequeue. **One consumer at a time**: callers serialise
    /// on a lock of their own (the commit lock in [`super::threaded`]).
    pub fn pop(&self) -> Option<T> {
        let head = self.head.load(Ordering::SeqCst);
        let slot = &self.slots[(head & self.mask) as usize];
        let seq = slot.seq.load(Ordering::SeqCst);
        if seq != head.wrapping_add(1) {
            return None; // nothing published at this ticket yet
        }
        let value = lock_recover(&slot.val).take();
        debug_assert!(value.is_some(), "epoch said published but slot empty");
        // Hand the slot to the producer one lap ahead: epoch reclamation.
        slot.seq
            .store(head.wrapping_add(self.slots.len() as u64), Ordering::SeqCst);
        self.head.store(head.wrapping_add(1), Ordering::SeqCst);
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let r: CommitRing<u32> = CommitRing::with_capacity(65);
        assert_eq!(r.capacity(), 128);
        let r: CommitRing<u32> = CommitRing::with_capacity(0);
        assert_eq!(r.capacity(), 2);
    }

    #[test]
    fn fifo_within_a_single_producer() {
        let r = CommitRing::with_capacity(8);
        assert!(r.is_empty());
        for i in 0..5 {
            r.push(i).unwrap();
        }
        assert!(!r.is_empty());
        for i in 0..5 {
            assert_eq!(r.pop(), Some(i));
        }
        assert_eq!(r.pop(), None);
        assert!(r.is_empty());
    }

    #[test]
    fn full_ring_rejects_then_accepts_after_pop() {
        let r: CommitRing<u32> = CommitRing::with_capacity(2);
        r.push(1).unwrap();
        r.push(2).unwrap();
        assert_eq!(r.try_push(3), Err(PushError::Full(3)));
        assert_eq!(r.pop(), Some(1));
        r.push(3).unwrap();
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), Some(3));
    }

    #[test]
    fn closed_ring_fails_sends() {
        let r: CommitRing<u32> = CommitRing::with_capacity(4);
        r.close();
        assert!(matches!(r.push(7), Err(PushError::Closed(7))));
    }

    #[test]
    fn epoch_reuse_across_many_laps() {
        // Wrap the 4-slot ring hundreds of times: the per-slot epoch
        // arithmetic must keep producer and consumer in lockstep.
        let r = CommitRing::with_capacity(4);
        for i in 0..1000u64 {
            r.push(i).unwrap();
            assert_eq!(r.pop(), Some(i), "lap {}", i / 4);
        }
        assert_eq!(r.stats().pushes, 1000);
    }

    #[test]
    fn mpsc_stress_delivers_every_value_exactly_once() {
        // The consumer role migrates: several threads take turns popping,
        // serialised by a mutex (as the commit lock does), while producers
        // keep pushing through a ring small enough to wrap constantly.
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 3;
        const PER_PRODUCER: u64 = 5_000;
        let r: Arc<CommitRing<u64>> = Arc::new(CommitRing::with_capacity(16));
        let seen: Arc<Mutex<Vec<Vec<u64>>>> = Arc::new(Mutex::new(vec![Vec::new(); PRODUCERS]));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|pid| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        r.push((pid as u64) << 32 | i).unwrap();
                    }
                })
            })
            .collect();
        let total = PRODUCERS as u64 * PER_PRODUCER;
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let (r, seen) = (Arc::clone(&r), Arc::clone(&seen));
                std::thread::spawn(move || loop {
                    // A short turn per lock hold, so the role really
                    // alternates between the consumer threads.
                    let mut seen = seen.lock().unwrap();
                    for _ in 0..8 {
                        match r.pop() {
                            Some(v) => seen[(v >> 32) as usize].push(v & 0xFFFF_FFFF),
                            None => break,
                        }
                    }
                    if seen.iter().map(|s| s.len() as u64).sum::<u64>() == total {
                        return;
                    }
                    drop(seen);
                    std::thread::yield_now();
                })
            })
            .collect();
        for h in producers.into_iter().chain(consumers) {
            h.join().unwrap();
        }
        assert!(r.is_empty());
        for (pid, vals) in seen.lock().unwrap().iter().enumerate() {
            assert_eq!(vals.len() as u64, PER_PRODUCER, "producer {pid}");
            // Per-producer FIFO survives the interleaving and the hand-offs.
            assert!(vals.windows(2).all(|w| w[0] < w[1]), "producer {pid} order");
        }
    }
}
