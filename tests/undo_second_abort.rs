//! Undo-journal replay under a mid-cascade second abort: a rollback is
//! already replaying a version's journal when the abort of another
//! version arrives. Workload callbacks are serialized by every executor,
//! so the second abort queues behind the in-flight replay — the
//! invariants are that both journals replay exactly once, replay order
//! within a version stays LIFO, a duplicate abort is a no-op, and the
//! shared state lands back on its pre-speculation baseline.
//!
//! The same synthetic workload runs on both executors (sim, threaded); a
//! third test uses the `UndoJournal` stall fault to hold a threaded replay
//! open while a panicking task on another worker raises the second abort
//! for real.

use std::sync::{Arc, Mutex};
use tvs_core::undo::UndoLog;
use tvs_sre::exec::sim::{self, SimConfig};
use tvs_sre::exec::threaded::{self, ThreadedConfig};
use tvs_sre::task::payload;
use tvs_sre::{
    lock_recover, Completion, DispatchPolicy, FaultInjector, FaultKind, FaultNotice, FaultPlan,
    FaultSite, FixedCost, InputBlock, Instruments, SchedCtx, SpecVersion, TaskSpec, Workload,
};

const V1: SpecVersion = 1;
const V2: SpecVersion = 2;
const CELLS: usize = 8;

type Cells = Arc<Mutex<Vec<i64>>>;
type Journal = Arc<Mutex<UndoLog<Box<dyn FnOnce() + Send>>>>;

/// Speculatively overwrite `cells[lo..lo + 4]` with `base + i`, journalling
/// the reversal of each write under `version`. Effects are applied
/// immediately and journalled — the paper's "user-defined rollback
/// routines" discipline — with the cells lock dropped before the journal
/// lock is taken (replay acquires them in the opposite order). An optional
/// `probe` entry is journalled between the second and third write, so LIFO
/// replay runs it with exactly half the version's writes still applied.
fn write_and_journal(
    cells: &Cells,
    undo: &Journal,
    version: SpecVersion,
    lo: usize,
    base: i64,
    probe: Option<Box<dyn FnOnce() + Send>>,
) {
    let mut reversals: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    {
        let mut st = lock_recover(cells);
        for i in 0..4 {
            let idx = lo + i;
            let old = st[idx];
            st[idx] = base + i as i64;
            let cells = Arc::clone(cells);
            reversals.push(Box::new(move || {
                lock_recover(&cells)[idx] = old;
            }));
        }
    }
    let mut log = lock_recover(undo);
    let mut probe = probe;
    for (i, r) in reversals.into_iter().enumerate() {
        log.record(version, r);
        if i == 1 {
            if let Some(p) = probe.take() {
                log.record(version, p);
            }
        }
    }
}

/// Two speculative versions write disjoint cell ranges; once both writers
/// complete, the workload aborts V1, and a V1 undo entry snapshots the
/// half-replayed state at the moment the second abort "arrives". The V2
/// abort then queues behind the replay, exactly as a serialized callback
/// would, followed by a duplicate V1 abort and a post-abort spawn attempt.
struct TwoVersionCascade {
    cells: Cells,
    undo: Journal,
    /// Cells as seen mid-replay of V1 (set by the second undo entry).
    mid_snapshot: Arc<Mutex<Option<Vec<i64>>>>,
    writers_done: usize,
    /// (entries replayed for V1, for V2, for the duplicate V1 abort).
    replayed: Option<(usize, usize, usize)>,
    spawn_after_abort_refused: bool,
    finished: bool,
}

impl TwoVersionCascade {
    fn new() -> Self {
        TwoVersionCascade {
            cells: Arc::new(Mutex::new(vec![0; CELLS])),
            undo: Arc::new(Mutex::new(UndoLog::new())),
            mid_snapshot: Arc::new(Mutex::new(None)),
            writers_done: 0,
            replayed: None,
            spawn_after_abort_refused: false,
            finished: false,
        }
    }
}

impl Workload for TwoVersionCascade {
    fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
        for (version, lo, base) in [(V1, 0usize, 100i64), (V2, 4, 200)] {
            let cells = Arc::clone(&self.cells);
            let undo = Arc::clone(&self.undo);
            // V1 carries the mid-replay probe: it snapshots the cells at
            // the instant the second abort request lands, half-way through
            // V1's own rollback.
            let snap = (version == V1).then(|| Arc::clone(&self.mid_snapshot));
            ctx.spawn(TaskSpec::speculative(
                "spec-write",
                0,
                CELLS,
                version,
                lo as u64,
                move |_| {
                    let probe = snap.clone().map(|snap| {
                        let cells = Arc::clone(&cells);
                        Box::new(move || {
                            *lock_recover(&snap) = Some(lock_recover(&cells).clone());
                        }) as Box<dyn FnOnce() + Send>
                    });
                    write_and_journal(&cells, &undo, version, lo, base, probe);
                    payload(())
                },
            ));
        }
    }

    fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {}

    fn on_complete(&mut self, ctx: &mut dyn SchedCtx, _done: Completion) {
        self.writers_done += 1;
        if self.writers_done < 2 {
            return;
        }
        // Both versions' effects are live.
        assert_eq!(
            *lock_recover(&self.cells),
            vec![100, 101, 102, 103, 200, 201, 202, 203]
        );
        ctx.abort_version(V1);
        let n1 = lock_recover(&self.undo).abort(V1);
        // The second abort was requested while the replay above was
        // running; serialized callbacks process it next.
        ctx.abort_version(V2);
        let n2 = lock_recover(&self.undo).abort(V2);
        // A duplicate abort of an already-drained journal is a no-op.
        let dup = lock_recover(&self.undo).abort(V1);
        self.replayed = Some((n1, n2, dup));
        // The scheduler must refuse spawns for the aborted version.
        self.spawn_after_abort_refused = ctx
            .spawn(TaskSpec::speculative("late", 0, 0, V2, 9, |_| payload(())))
            .is_none();
        self.finished = true;
    }

    fn is_finished(&self) -> bool {
        self.finished
    }
}

fn assert_cascade_invariants(w: &TwoVersionCascade) {
    assert_eq!(
        *lock_recover(&w.cells),
        vec![0i64; CELLS],
        "cascade must restore the pre-speculation baseline"
    );
    // 4 journalled writes per version + the snapshot probe under V1.
    assert_eq!(w.replayed, Some((5, 4, 0)));
    assert_eq!(lock_recover(&w.undo).stats(), (0, 9));
    assert!(
        w.spawn_after_abort_refused,
        "aborted version accepts spawns"
    );
    // The probe ran after V1's cell-3 and cell-2 entries but before cells
    // 1/0 were restored and before V2's replay: a half-rolled-back world.
    let snap = lock_recover(&w.mid_snapshot).clone();
    assert_eq!(
        snap,
        Some(vec![100, 101, 0, 0, 200, 201, 202, 203]),
        "second abort must observe V1 mid-replay with V2 still applied"
    );
}

#[test]
fn sim_second_abort_mid_cascade() {
    let cfg = SimConfig::new(tvs_sre::x86_smp(4));
    let dark = Instruments::default();
    let report = sim::run(
        TwoVersionCascade::new(),
        &cfg,
        DispatchPolicy::Aggressive,
        &FixedCost(10),
        &[],
        Vec::new(),
        &dark,
    )
    .expect("a dark run cannot fail");
    assert_cascade_invariants(&report.0);
}

#[test]
fn threaded_second_abort_mid_cascade() {
    let cfg = ThreadedConfig::new(4);
    let (w, _) = threaded::run(
        TwoVersionCascade::new(),
        &cfg,
        DispatchPolicy::Aggressive,
        &[],
        Vec::new(),
        &Instruments::default(),
    )
    .expect("a dark run cannot fail");
    assert_cascade_invariants(&w);
}

/// The genuinely concurrent variant: an `UndoJournal` stall holds V1's
/// replay open on the callback thread while a V2 task panics on another
/// worker. The fault notice — the second abort — arrives while the
/// rollback is mid-replay and must queue behind it; whatever the
/// interleaving, both journals drain exactly once and the baseline state
/// is restored.
struct StalledReplayRace {
    cells: Cells,
    undo: Journal,
    cascade_done: bool,
    fault_seen: bool,
}

impl Workload for StalledReplayRace {
    fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
        // V2 applies its effects, journals them, lingers, then panics —
        // ideally inside V1's stalled replay window.
        let cells = Arc::clone(&self.cells);
        let undo = Arc::clone(&self.undo);
        ctx.spawn(TaskSpec::speculative(
            "doomed",
            0,
            CELLS,
            V2,
            1,
            move |_| {
                write_and_journal(&cells, &undo, V2, 4, 200, None);
                std::thread::sleep(std::time::Duration::from_millis(10));
                panic!("speculative task dies mid-flight");
            },
        ));
        let cells = Arc::clone(&self.cells);
        let undo = Arc::clone(&self.undo);
        ctx.spawn(TaskSpec::speculative(
            "writer",
            0,
            CELLS,
            V1,
            0,
            move |_| {
                std::thread::sleep(std::time::Duration::from_millis(3));
                write_and_journal(&cells, &undo, V1, 0, 100, None);
                payload(())
            },
        ));
    }

    fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {}

    fn on_complete(&mut self, ctx: &mut dyn SchedCtx, done: Completion) {
        assert_eq!(done.name, "writer");
        ctx.abort_version(V1);
        // The injected stall keeps this replay open for 20ms; "doomed"
        // panics at ~10ms, so its abort lands while we are in here.
        assert_eq!(lock_recover(&self.undo).abort(V1), 4);
        self.cascade_done = true;
    }

    fn on_fault(&mut self, _: &mut dyn SchedCtx, fault: FaultNotice) {
        assert_eq!(fault.version, Some(V2));
        assert_eq!(lock_recover(&self.undo).abort(V2), 4);
        self.fault_seen = true;
    }

    fn is_finished(&self) -> bool {
        self.cascade_done && self.fault_seen
    }
}

#[test]
fn threaded_abort_lands_during_stalled_replay() {
    // One injector for journal and executor; its plan only has a rule for
    // the journal's site.
    let ins = Instruments::faulty(FaultInjector::new(FaultPlan::new(3).with_rule(
        FaultSite::UndoJournal,
        FaultKind::Stall { us: 20_000 },
        1.0,
    )));
    let undo: Journal = Arc::new(Mutex::new(UndoLog::instrumented(&ins)));
    let w = StalledReplayRace {
        cells: Arc::new(Mutex::new(vec![0; CELLS])),
        undo,
        cascade_done: false,
        fault_seen: false,
    };
    let cfg = ThreadedConfig::new(4);
    let (w, m) = threaded::run(w, &cfg, DispatchPolicy::Aggressive, &[], Vec::new(), &ins)
        .expect("a speculative fault never fails the run");
    assert_eq!(
        *lock_recover(&w.cells),
        vec![0i64; CELLS],
        "both replays must restore the baseline"
    );
    assert_eq!(lock_recover(&w.undo).stats(), (0, 8));
    assert_eq!(m.faults, 1, "exactly one panicked task");
}
