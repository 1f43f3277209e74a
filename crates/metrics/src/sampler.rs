//! The wall-clock sampler thread.
//!
//! [`Sampler::spawn`] parks a background thread on a condvar and wakes it
//! every `tick` to take one [`MetricsSnapshot`] from the recorder and hand it
//! to the sink (a JSONL writer, a channel into `tvs-top`, an HTTP
//! responder's cache, …). [`Sampler::stop`] wakes the thread immediately,
//! takes one final snapshot so short runs still produce at least one
//! sample, and joins. Simulator runs don't use this thread at all — they
//! sample on virtual-time boundaries via
//! [`crate::Recorder::virtual_tick`] to stay deterministic.

use crate::snapshot::MetricsSnapshot;
use crate::Recorder;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

struct Shared {
    stop: Mutex<bool>,
    cv: Condvar,
}

/// Handle to a running sampler thread.
pub struct Sampler {
    shared: Arc<Shared>,
    handle: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Spawn a sampler over `rec`, snapshotting every `tick` into
    /// `sink`. The recorder must be enabled ([`Recorder::enabled`]) for
    /// snapshots to be produced; on any other the thread idles and
    /// the sink is never called.
    pub fn spawn<F>(rec: Recorder, tick: Duration, mut sink: F) -> Sampler
    where
        F: FnMut(MetricsSnapshot) + Send + 'static,
    {
        let shared = Arc::new(Shared {
            stop: Mutex::new(false),
            cv: Condvar::new(),
        });
        let inner = Arc::clone(&shared);
        let tick = tick.max(Duration::from_millis(1));
        let handle = std::thread::Builder::new()
            .name("tvs-metrics-sampler".into())
            .spawn(move || {
                loop {
                    {
                        // Park until the next tick or a stop request. The
                        // flag is checked *before* waiting as well: a stop
                        // signalled before the thread first parks would
                        // otherwise be a lost wakeup, leaving the final
                        // flush waiting out the whole tick.
                        let guard = match inner.stop.lock() {
                            Ok(g) => g,
                            Err(p) => p.into_inner(),
                        };
                        if *guard {
                            break;
                        }
                        let (guard, _timeout) = match inner.cv.wait_timeout(guard, tick) {
                            Ok(r) => r,
                            Err(p) => p.into_inner(),
                        };
                        if *guard {
                            break;
                        }
                    }
                    if let Some(snap) = rec.snapshot() {
                        sink(snap);
                    }
                }
                // Final snapshot on shutdown so short runs still record
                // at least one sample.
                if let Some(snap) = rec.snapshot() {
                    sink(snap);
                }
            })
            .expect("spawn sampler thread");
        Sampler {
            shared,
            handle: Some(handle),
        }
    }

    /// Request shutdown, wake the thread, take the final snapshot, join.
    pub fn stop(mut self) {
        self.signal_stop();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }

    fn signal_stop(&self) {
        match self.shared.stop.lock() {
            Ok(mut g) => *g = true,
            Err(p) => *p.into_inner() = true,
        }
        self.shared.cv.notify_all();
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.signal_stop();
            if let Some(h) = self.handle.take() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Counter;
    use std::sync::mpsc;

    #[test]
    fn samples_periodically_and_finally() {
        let hub = Recorder::enabled(1);
        hub.add(0, Counter::Commits, 5);
        let (tx, rx) = mpsc::channel();
        let sampler = Sampler::spawn(hub.clone(), Duration::from_millis(5), move |s| {
            let _ = tx.send(s);
        });
        std::thread::sleep(Duration::from_millis(40));
        sampler.stop();
        let snaps: Vec<_> = rx.try_iter().collect();
        assert!(!snaps.is_empty(), "at least the final snapshot");
        let last = snaps.last().unwrap();
        assert_eq!(last.counter(Counter::Commits).total, 5);
        // Ticks are strictly increasing.
        for w in snaps.windows(2) {
            assert!(w[1].tick > w[0].tick);
        }
    }

    #[test]
    fn stop_is_prompt_even_with_long_tick() {
        let hub = Recorder::enabled(1);
        let (tx, rx) = mpsc::channel();
        let sampler = Sampler::spawn(hub, Duration::from_secs(3600), move |s| {
            let _ = tx.send(s);
        });
        let t0 = std::time::Instant::now();
        sampler.stop();
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "stop must not wait out the tick"
        );
        assert_eq!(rx.try_iter().count(), 1, "exactly the final snapshot");
    }

    #[test]
    fn final_flush_sees_writes_made_right_before_stop() {
        // Race coverage: a counter bumped immediately before stop() must
        // land in the final flushed snapshot — stop() signals, the thread
        // exits its park loop, and the post-loop snapshot runs *after*
        // the signal, so the write is always visible.
        for _ in 0..32 {
            let hub = Recorder::enabled(1);
            let (tx, rx) = mpsc::channel();
            let sampler = Sampler::spawn(hub.clone(), Duration::from_secs(3600), move |s| {
                let _ = tx.send(s);
            });
            hub.add(0, Counter::Commits, 1);
            hub.add_control(Counter::Rollbacks, 2);
            sampler.stop();
            let snaps: Vec<_> = rx.try_iter().collect();
            let last = snaps.last().expect("final snapshot must flush");
            assert_eq!(last.counter(Counter::Commits).total, 1);
            assert_eq!(last.counter(Counter::Rollbacks).total, 2);
        }
    }

    #[test]
    fn drop_also_flushes_exactly_once() {
        let hub = Recorder::enabled(1);
        hub.add(0, Counter::Commits, 9);
        let (tx, rx) = mpsc::channel();
        {
            let _sampler = Sampler::spawn(hub, Duration::from_secs(3600), move |s| {
                let _ = tx.send(s);
            });
            // Dropped without stop(): Drop signals, joins, flushes.
        }
        let snaps: Vec<_> = rx.try_iter().collect();
        assert_eq!(
            snaps.len(),
            1,
            "drop path flushes exactly the final snapshot"
        );
        assert_eq!(snaps[0].counter(Counter::Commits).total, 9);
    }

    #[test]
    fn non_live_hub_never_sinks() {
        let hub = Recorder::counters(1);
        let (tx, rx) = mpsc::channel();
        let sampler = Sampler::spawn(hub, Duration::from_millis(2), move |s| {
            let _ = tx.send(s);
        });
        std::thread::sleep(Duration::from_millis(20));
        sampler.stop();
        assert_eq!(rx.try_iter().count(), 0);
    }
}
