//! A shard's bounded event ring: overwrite-oldest, counting what it loses.
//!
//! Each [`crate::Recorder`] shard owns one when rings are on;
//! [`crate::Recorder::drain`] merges them into one time-ordered
//! `tvs_trace::TraceLog`. The tests here check what that log shows of the
//! rings: routing, overflow, order, timebase and label.

use crate::recorder::lock_recover;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use tvs_trace::TraceEvent;

/// A bounded event ring behind an uncontended mutex (one writer per shard
/// in steady state).
pub(crate) struct Ring {
    buf: Mutex<VecDeque<TraceEvent>>,
    /// Capacity in events (≥ 1).
    cap: usize,
    /// Events lost to overflow.
    dropped: AtomicU64,
}

impl Ring {
    pub(crate) fn new(cap: usize) -> Self {
        Ring {
            buf: Mutex::new(VecDeque::with_capacity(cap.min(1024))),
            cap,
            dropped: AtomicU64::new(0),
        }
    }

    /// Append `ev`, overwriting (and counting) the oldest event when full.
    pub(crate) fn push(&self, ev: TraceEvent) {
        let mut buf = lock_recover(&self.buf);
        if buf.len() >= self.cap {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(ev);
    }

    /// Move every held event to the end of `out`.
    pub(crate) fn drain_into(&self, out: &mut Vec<TraceEvent>) {
        out.extend(lock_recover(&self.buf).drain(..));
    }

    /// Events this ring has lost to overflow.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Counter, Recorder};
    use tvs_trace::{EventKind, Timebase};

    #[test]
    fn disabled_tracer_is_a_no_op_sink() {
        let t = Recorder::disabled();
        assert!(!t.is_enabled());
        t.emit(0, EventKind::Park);
        t.emit_control(EventKind::Commit { version: 1 });
        t.set_virtual_now(99);
        assert_eq!(t.counter_total(Counter::Commits), 0);
        assert!(t.drain().is_none());
    }

    #[test]
    fn events_route_to_worker_and_control_rings() {
        let t = Recorder::enabled(2);
        t.emit(0, EventKind::Park);
        t.emit(1, EventKind::Unpark);
        t.emit_control(EventKind::Commit { version: 3 });
        t.emit(99, EventKind::Park); // out of range -> control
        let log = t.drain().unwrap();
        assert_eq!(log.workers, 2);
        assert_eq!(log.events.len(), 4);
        assert_eq!(
            log.events.iter().filter(|e| e.worker == 2).count(),
            2,
            "control ring got the commit and the out-of-range event"
        );
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let t = Recorder::with_capacity(1, 4);
        for version in 0..10 {
            t.emit(0, EventKind::Commit { version });
        }
        assert_eq!(t.counter_total(Counter::Commits), 10, "counters see all");
        let log = t.drain().unwrap();
        assert_eq!(
            (log.dropped, log.dropped_per_worker.clone()),
            (6, vec![6, 0])
        );
        let versions: Vec<u32> = log.events.iter().filter_map(|e| e.kind.version()).collect();
        assert_eq!(versions, vec![6, 7, 8, 9], "oldest events were dropped");
    }

    #[test]
    fn virtual_clock_selects_timebase_and_orders_events() {
        let t = Recorder::enabled(1);
        t.set_virtual_now(100);
        t.emit(0, EventKind::Park);
        t.emit_at(0, 50, EventKind::Unpark); // explicit earlier stamp
        let log = t.drain().unwrap();
        assert_eq!(log.timebase, Timebase::Virtual);
        assert_eq!(
            log.events[0].kind,
            EventKind::Unpark,
            "sorted by virtual ts"
        );
        assert_eq!(log.events[0].virt_us, 50);
        assert_eq!(log.events[1].virt_us, 100);
        assert_eq!(log.span_us(), 100);
    }

    #[test]
    fn wall_timebase_when_sim_never_fed_the_clock() {
        let t = Recorder::enabled(1);
        t.emit(0, EventKind::Park);
        let log = t.drain().unwrap();
        assert_eq!(log.timebase, Timebase::Wall);
    }

    #[test]
    fn label_round_trips() {
        let t = Recorder::enabled(1);
        t.set_label("balanced");
        assert_eq!(t.drain().unwrap().label, "balanced");
    }

    #[test]
    fn seq_gives_total_order_across_rings() {
        let t = Recorder::enabled(2);
        for i in 0..50u32 {
            t.emit((i % 2) as usize, EventKind::Commit { version: i });
        }
        let log = t.drain().unwrap();
        let mut seqs: Vec<u64> = log.events.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 50, "sequence numbers are unique");
    }

    #[test]
    fn clone_shares_buffers() {
        let t = Recorder::enabled(1);
        let t2 = t.clone();
        t2.emit(0, EventKind::Park);
        assert_eq!(t.drain().unwrap().events.len(), 1);
    }
}
