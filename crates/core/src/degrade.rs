//! The degradation machine: one controller deciding whether a speculation
//! may start.
//!
//! Speculation pays only while predictions mostly commit: when the input
//! drifts faster than the predictor tracks, or faults keep killing
//! speculative tasks, every version rolls back and the work is thrown away.
//! [`Degrade`] watches speculation outcomes and walks the service level
//! down one rung at a time, and back up when the evidence is clean:
//!
//! ```text
//!        bad window        bad window            bad window
//!   Full ──────────▶ Capped ──────────▶ Suspended ──────────▶ Paused
//!     ▲               │  ▲                 │                   │  ▲
//!     └───────────────┘  │ probe passed    │ cooldown          │  │ probe
//!       clean windows    │                 ▼      cooldown     │  │ failed
//!                        └───────────── Probing ◀──────────────┘  │
//!                                          └──────────────────────┘
//! ```
//!
//! | level       | fresh prediction | promotion at depth `d` | leaves by                          |
//! |-------------|------------------|------------------------|------------------------------------|
//! | `Full`      | yes              | yes                    | bad window → `Capped`              |
//! | `Capped`    | yes              | `d ≤` [`DEPTH_CAP`]    | bad window → `Suspended`; [`DegradeConfig::clean_windows`] clean windows → `Full` |
//! | `Suspended` | no               | no                     | bad window → `Paused`; cooldown → `Probing` |
//! | `Probing`   | one probe        | one probe, `d ≤` cap   | outcome ok → `Capped`; failure → `Paused`   |
//! | `Paused`    | no               | no                     | cooldown → `Probing`               |
//!
//! A *window* is a tumbling count of [`DegradeConfig::window`] outcomes; it
//! is bad as soon as its failures reach `ceil(trip_ratio × window)` (the
//! verdict cannot change after that, so it lands early) and clean when it
//! closes below that. Every step restarts the window. At `Paused` the host
//! should also persist a checkpoint at every committed-prefix advance, so
//! an operator can stop the run without losing work.
//!
//! The machine is clock-free: cooldowns count *basis events*, the beat the
//! [`crate::SpeculationManager`] runs on, so it behaves identically under
//! the simulator and the threaded executor. This module's tests check the
//! table above on every input sequence up to a bounded length.

use tvs_trace::StepCause;

/// Deepest misprediction cascade a promoted candidate may sit at while the
/// machine is at [`Level::Capped`] (fresh predictions are depth 0).
pub const DEPTH_CAP: u32 = 1;

/// Tuning of the [`Degrade`] machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeConfig {
    /// Outcomes per tumbling window.
    pub window: u64,
    /// Failure fraction at which a window is bad.
    pub trip_ratio: f64,
    /// Consecutive clean windows at [`Level::Capped`] before [`Level::Full`]:
    /// the hysteresis that prevents flapping.
    pub clean_windows: u32,
    /// Basis events at a level that starts nothing before a probe may.
    pub cooldown: u64,
}

impl Default for DegradeConfig {
    fn default() -> Self {
        DegradeConfig {
            window: 8,
            trip_ratio: 0.5,
            clean_windows: 2,
            cooldown: 8,
        }
    }
}

/// One speculation outcome, as the manager sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// An intermediate check passed.
    CheckPassed,
    /// A version validated against the final value.
    Committed,
    /// A version was rolled back (failed check or external abort).
    RolledBack,
    /// The executor recovered a fault (a caught task panic).
    Fault,
    /// Replication detected a silent data corruption.
    Sdc,
}

/// Service level, healthiest first. The numeric value is exported as the
/// `degradation_level` gauge and in `degrade-step` trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum Level {
    /// Unrestricted speculation.
    Full = 0,
    /// Speculation with cascades capped at [`DEPTH_CAP`].
    Capped = 1,
    /// Natural path only: no predictions, no promotions.
    Suspended = 2,
    /// As `Suspended`, plus checkpoint eagerly.
    Paused = 3,
    /// One probe prediction at a time tests whether speculation recovered.
    Probing = 4,
}

/// Answer to [`Degrade::admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// Start it.
    Yes,
    /// Start it: it is the single probe (its slot is now taken).
    Probe,
    /// Hold it back.
    No,
}

/// A level change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Level before.
    pub from: Level,
    /// Level after.
    pub to: Level,
    /// What moved it; [`StepCause::is_down`] gives the direction.
    pub cause: StepCause,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum State {
    Full,
    Capped { clean: u32 },
    Suspended { since: u64 },
    Probing { in_flight: bool },
    Paused { since: u64 },
}

/// The degradation machine (see module docs).
#[derive(Debug, Clone)]
pub struct Degrade {
    cfg: DegradeConfig,
    /// Failures that make a window bad.
    trip: u64,
    state: State,
    /// Outcomes and failures in the open window.
    samples: u64,
    failures: u64,
}

impl Degrade {
    /// A machine at [`Level::Full`].
    pub fn new(cfg: DegradeConfig) -> Self {
        assert!(cfg.window >= 1, "degradation window must be non-empty");
        assert!(cfg.clean_windows >= 1, "stepping up needs a clean window");
        Degrade {
            cfg,
            trip: ((cfg.trip_ratio * cfg.window as f64).ceil() as u64).clamp(1, cfg.window),
            state: State::Full,
            samples: 0,
            failures: 0,
        }
    }

    /// Current service level.
    pub fn level(&self) -> Level {
        match self.state {
            State::Full => Level::Full,
            State::Capped { .. } => Level::Capped,
            State::Suspended { .. } => Level::Suspended,
            State::Probing { .. } => Level::Probing,
            State::Paused { .. } => Level::Paused,
        }
    }

    /// The `basis`-th basis event completed: a level that starts no
    /// speculation cools down into [`Level::Probing`]. This edge is what
    /// makes every rung leavable — at `Suspended` and `Paused` no
    /// prediction runs, so no outcome could ever lift them.
    pub fn tick(&mut self, basis: u64) -> Option<Step> {
        match self.state {
            State::Suspended { since } | State::Paused { since }
                if basis.saturating_sub(since) >= self.cfg.cooldown =>
            {
                self.go(State::Probing { in_flight: false }, StepCause::Cooldown)
            }
            _ => None,
        }
    }

    /// May a version start `depth` levels into a misprediction cascade
    /// (0 = a fresh prediction)? Call only when it would start: an
    /// [`Admit::Probe`] answer takes the probe slot until the next outcome.
    pub fn admit(&mut self, depth: u32) -> Admit {
        match &mut self.state {
            State::Full => Admit::Yes,
            State::Capped { .. } if depth <= DEPTH_CAP => Admit::Yes,
            State::Probing { in_flight } if !*in_flight && depth <= DEPTH_CAP => {
                *in_flight = true;
                Admit::Probe
            }
            _ => Admit::No,
        }
    }

    /// Record one outcome observed at basis event `basis`.
    pub fn observe(&mut self, basis: u64, outcome: Outcome) -> Option<Step> {
        let failed = matches!(outcome, Outcome::RolledBack | Outcome::Fault | Outcome::Sdc);
        match self.state {
            // Any outcome resolves the probe: the version is not compared,
            // a straggler beside the probe is as good a witness.
            State::Probing { .. } if failed => {
                return self.go(State::Paused { since: basis }, StepCause::ProbeFailed)
            }
            State::Probing { .. } => {
                return self.go(State::Capped { clean: 0 }, StepCause::ProbePassed)
            }
            State::Paused { .. } => return None,
            _ => {}
        }
        self.samples += 1;
        self.failures += u64::from(failed);
        if self.failures >= self.trip {
            let down = match self.state {
                State::Full => State::Capped { clean: 0 },
                State::Capped { .. } => State::Suspended { since: basis },
                _ => State::Paused { since: basis },
            };
            return self.go(down, StepCause::BadWindow);
        }
        if self.samples < self.cfg.window {
            return None;
        }
        (self.samples, self.failures) = (0, 0);
        if let State::Capped { clean } = &mut self.state {
            *clean += 1;
            if *clean >= self.cfg.clean_windows {
                return self.go(State::Full, StepCause::CleanWindows);
            }
        }
        None
    }

    fn go(&mut self, to: State, cause: StepCause) -> Option<Step> {
        let from = self.level();
        self.state = to;
        (self.samples, self.failures) = (0, 0);
        let to = self.level();
        Some(Step { from, to, cause })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Outcome::{CheckPassed as OK, RolledBack as FAIL};

    fn cfg(window: u64, trip_ratio: f64, clean_windows: u32, cooldown: u64) -> DegradeConfig {
        DegradeConfig {
            window,
            trip_ratio,
            clean_windows,
            cooldown,
        }
    }

    fn step(from: Level, to: Level, cause: StepCause) -> Option<Step> {
        Some(Step { from, to, cause })
    }

    /// Feed `n` outcomes at basis 0, returning the last step taken.
    fn feed(d: &mut Degrade, outcome: Outcome, n: usize) -> Option<Step> {
        (0..n).fold(None, |last, _| d.observe(0, outcome).or(last))
    }

    /// Window 4 at 50 % (two failures make it bad), two clean windows to
    /// climb, cooldown 3.
    fn small() -> Degrade {
        Degrade::new(cfg(4, 0.5, 2, 3))
    }

    #[test]
    fn stays_full_below_the_trip_ratio() {
        let mut d = Degrade::new(DegradeConfig::default());
        // One failure per three successes: two per window of eight, below
        // the four that make a window bad.
        for i in 0..48u64 {
            let outcome = if i % 4 == 0 { FAIL } else { OK };
            assert_eq!(d.observe(i, outcome), None);
            assert_eq!(d.level(), Level::Full);
            assert_eq!(d.admit(3), Admit::Yes);
        }
    }

    #[test]
    fn steps_down_after_windowed_failures() {
        let mut d = Degrade::new(cfg(4, 0.75, 1, 5));
        assert_eq!(d.observe(1, FAIL), None);
        assert_eq!(d.observe(1, OK), None);
        assert_eq!(d.observe(2, Outcome::Fault), None);
        assert_eq!(
            d.observe(3, Outcome::Sdc),
            step(Level::Full, Level::Capped, StepCause::BadWindow),
            "3 of 4 failed"
        );
        feed(&mut d, FAIL, 3);
        assert_eq!(d.level(), Level::Suspended);
        assert_eq!(d.admit(0), Admit::No);
        assert_eq!(d.tick(4), None, "still cooling down (suspended at 0)");
        assert_eq!(
            d.tick(5),
            step(Level::Suspended, Level::Probing, StepCause::Cooldown)
        );
    }

    #[test]
    fn probe_pass_steps_up_to_capped() {
        let mut d = small();
        feed(&mut d, FAIL, 4);
        assert_eq!(d.level(), Level::Suspended);
        d.tick(3);
        assert_eq!(d.admit(0), Admit::Probe);
        assert_eq!(
            d.observe(4, Outcome::Committed),
            step(Level::Probing, Level::Capped, StepCause::ProbePassed)
        );
        assert_eq!(d.admit(0), Admit::Yes, "capped admissions are not probes");
    }

    #[test]
    fn failed_probe_pauses_with_a_fresh_cooldown() {
        let mut d = small();
        feed(&mut d, FAIL, 4);
        d.tick(12);
        assert_eq!(d.admit(0), Admit::Probe);
        assert_eq!(
            d.observe(13, FAIL),
            step(Level::Probing, Level::Paused, StepCause::ProbeFailed)
        );
        assert_eq!(d.tick(15), None, "cooldown restarted at basis 13");
        assert_eq!(
            d.tick(16),
            step(Level::Paused, Level::Probing, StepCause::Cooldown)
        );
    }

    #[test]
    fn probing_admits_exactly_one_probe() {
        let mut d = small();
        feed(&mut d, FAIL, 4);
        d.tick(3);
        assert_eq!(
            d.admit(DEPTH_CAP + 1),
            Admit::No,
            "a deep cascade is no probe"
        );
        assert_eq!(d.admit(0), Admit::Probe);
        assert_eq!(d.admit(0), Admit::No, "one probe at a time");
        assert_eq!(d.admit(1), Admit::No);
        assert_eq!(d.level(), Level::Probing);
    }

    #[test]
    fn a_step_restarts_the_window() {
        let mut d = small();
        assert_eq!(d.observe(0, FAIL), None);
        feed(&mut d, FAIL, 1);
        assert_eq!(d.level(), Level::Capped);
        // The failure that closed the last window does not linger: one
        // fresh failure alone is not a bad window.
        assert_eq!(d.observe(0, FAIL), None);
        assert_eq!(d.level(), Level::Capped);
    }

    #[test]
    fn degrades_one_level_per_bad_window() {
        let mut d = small();
        assert_eq!(
            feed(&mut d, FAIL, 2),
            step(Level::Full, Level::Capped, StepCause::BadWindow)
        );
        assert_eq!(
            feed(&mut d, FAIL, 2),
            step(Level::Capped, Level::Suspended, StepCause::BadWindow)
        );
        assert_eq!(
            feed(&mut d, FAIL, 2),
            step(Level::Suspended, Level::Paused, StepCause::BadWindow)
        );
        // The bottom rung saturates.
        assert_eq!(feed(&mut d, FAIL, 8), None);
        assert_eq!(d.level(), Level::Paused);
    }

    #[test]
    fn recovery_requires_consecutive_clean_windows() {
        let mut d = small();
        feed(&mut d, FAIL, 2);
        assert_eq!(feed(&mut d, OK, 4), None, "one clean window is not enough");
        assert_eq!(d.level(), Level::Capped);
        assert_eq!(
            feed(&mut d, OK, 4),
            step(Level::Capped, Level::Full, StepCause::CleanWindows)
        );
    }

    #[test]
    fn a_step_down_resets_the_clean_streak() {
        let mut d = small();
        feed(&mut d, FAIL, 2);
        feed(&mut d, OK, 4); // clean streak = 1
        feed(&mut d, FAIL, 2); // → Suspended, streak forgotten
        d.tick(3);
        assert_eq!(d.admit(0), Admit::Probe);
        d.observe(3, OK); // → Capped
        assert_eq!(feed(&mut d, OK, 4), None, "streak restarted from zero");
        assert_eq!(feed(&mut d, OK, 4).map(|s| s.to), Some(Level::Full));
    }

    #[test]
    fn a_bad_verdict_lands_before_the_window_closes() {
        let mut d = Degrade::new(cfg(64, 2.0 / 64.0, 1, 0));
        assert_eq!(d.observe(0, OK), None);
        assert_eq!(d.observe(0, FAIL), None);
        assert_eq!(
            d.observe(0, FAIL).map(|s| s.to),
            Some(Level::Capped),
            "two failures decide a 64-outcome window"
        );
        // The window restarted: the next one needs 64 fresh outcomes.
        assert_eq!(feed(&mut d, OK, 63), None);
        assert_eq!(d.observe(0, OK).map(|s| s.to), Some(Level::Full));
    }

    #[test]
    fn level_numbering_is_stable() {
        let gauge = [
            Level::Full,
            Level::Capped,
            Level::Suspended,
            Level::Paused,
            Level::Probing,
        ]
        .map(|l| l as u32);
        assert_eq!(gauge, [0, 1, 2, 3, 4]);
    }

    // ------------------------------------------------------------------
    // Exhaustive enumeration
    // ------------------------------------------------------------------

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Input {
        Ok,
        Fail,
        Tick,
        Admit(u32),
    }

    /// `admit-fresh` is `Admit(0)`; promotions at the cap and beyond it.
    const ALPHABET: [Input; 6] = [
        Input::Ok,
        Input::Fail,
        Input::Tick,
        Input::Admit(0),
        Input::Admit(DEPTH_CAP),
        Input::Admit(DEPTH_CAP + 1),
    ];
    const MAX_LEN: u32 = 7;
    const WINDOW: u64 = 2;
    const TRIP: u64 = 1; // ceil(0.5 × 2)
    const CLEAN_WINDOWS: u32 = 1;
    const COOLDOWN: u64 = 2;

    /// Healthiest first; `Probing` sits between the rungs that speculate
    /// and the rungs that do not.
    fn rank(l: Level) -> usize {
        match l {
            Level::Full => 0,
            Level::Capped => 1,
            Level::Probing => 2,
            Level::Suspended => 3,
            Level::Paused => 4,
        }
    }

    /// What the enumeration remembers about the path to a node.
    #[derive(Clone, Copy, Default)]
    struct Path {
        basis: u64,
        /// Inputs of each kind since the last step.
        ticks: u64,
        outcomes: u64,
        failures: u64,
        /// Levels seen so far, as a bit per rank.
        visited: u8,
        probe_in_flight: bool,
    }

    #[derive(Default)]
    struct Explorer {
        sequences: u64,
        steps: [[u64; 5]; 5],
        /// (min, max) admissions out of [`BATTERY`] seen at each rank.
        budget: [Option<(usize, usize)>; 5],
        /// `(state, samples, failures, basis)` already proven live.
        live: std::collections::HashSet<(State, u64, u64, u64)>,
    }

    /// Admission requests put to a copy of every reachable state.
    const BATTERY: [u32; 5] = [0, DEPTH_CAP, DEPTH_CAP + 1, 0, DEPTH_CAP];

    impl Explorer {
        fn visit(&mut self, d: &Degrade, path: Path, len: u32) {
            self.sequences += 1;
            self.check_budget(d);
            self.check_liveness(d, path.basis);
            if len == MAX_LEN {
                return;
            }
            for input in ALPHABET {
                let (mut d, mut path) = (d.clone(), path);
                apply(&mut d, &mut path, input, &mut self.steps);
                self.visit(&d, path, len + 1);
            }
        }

        /// (d) Count how much of the battery this state admits.
        fn check_budget(&mut self, d: &Degrade) {
            let mut probe = d.clone();
            let admitted = BATTERY
                .iter()
                .filter(|&&depth| probe.admit(depth) != Admit::No)
                .count();
            assert_eq!(probe.level(), d.level(), "admit never changes the level");
            let (lo, hi) = self.budget[rank(d.level())].get_or_insert((admitted, admitted));
            (*lo, *hi) = ((*lo).min(admitted), (*hi).max(admitted));
        }

        /// (b) A clean suffix — basis ticks, fresh predictions asked for,
        /// every admitted or in-flight one passing — reaches `Full`.
        fn check_liveness(&mut self, d: &Degrade, basis: u64) {
            if !self.live.insert((d.state, d.samples, d.failures, basis)) {
                return;
            }
            let bound = COOLDOWN + 1 + u64::from(CLEAN_WINDOWS) * WINDOW;
            let mut s = d.clone();
            for b in basis + 1..=basis + bound {
                s.tick(b);
                let flying = s.state == State::Probing { in_flight: true };
                if s.admit(0) != Admit::No || flying {
                    s.observe(b, OK);
                }
            }
            assert_eq!(
                s.level(),
                Level::Full,
                "{d:?} at basis {basis} is not back to Full after {bound} clean basis events"
            );
        }
    }

    /// Apply one input and check (a), (c) and the probe half of (d) on it.
    fn apply(d: &mut Degrade, path: &mut Path, input: Input, steps: &mut [[u64; 5]; 5]) {
        let before = d.level();
        path.visited |= 1 << rank(before);
        let step = match input {
            Input::Ok | Input::Fail => {
                let failed = input == Input::Fail;
                path.outcomes += 1;
                path.failures += u64::from(failed);
                path.probe_in_flight = false;
                d.observe(path.basis, if failed { FAIL } else { OK })
            }
            Input::Tick => {
                path.basis += 1;
                path.ticks += 1;
                d.tick(path.basis)
            }
            Input::Admit(depth) => {
                if d.admit(depth) == Admit::Probe {
                    assert_eq!(before, Level::Probing, "probes only at Probing");
                    assert!(!path.probe_in_flight, "two probes in flight");
                    path.probe_in_flight = true;
                }
                None
            }
        };
        let Some(s) = step else {
            assert_eq!(d.level(), before, "a level change is always reported");
            return;
        };
        assert_eq!((s.from, s.to), (before, d.level()));
        assert_eq!(
            s.cause.is_down(),
            rank(s.to) > rank(s.from),
            "{s:?}: cause and direction disagree"
        );
        // (a) Every step is in the transition table, and only after the
        // evidence the table demands has accumulated since the last step:
        // opposite steps cannot share an input or follow each other faster
        // than a clean period, a bad window or a resolved probe.
        match (s.from, s.to) {
            (Level::Full, Level::Capped)
            | (Level::Capped, Level::Suspended)
            | (Level::Suspended, Level::Paused) => {
                assert_eq!(input, Input::Fail);
                assert!(path.failures >= TRIP, "{s:?} before a bad window");
            }
            (Level::Capped, Level::Full) => {
                assert_eq!(input, Input::Ok);
                assert!(path.outcomes >= u64::from(CLEAN_WINDOWS) * WINDOW);
                assert!(path.failures < TRIP * u64::from(CLEAN_WINDOWS));
            }
            (Level::Suspended | Level::Paused, Level::Probing) => {
                assert_eq!(input, Input::Tick);
                assert!(path.ticks >= COOLDOWN, "{s:?} before the cooldown");
            }
            (Level::Probing, Level::Capped) => assert_eq!(input, Input::Ok),
            (Level::Probing, Level::Paused) => assert_eq!(input, Input::Fail),
            _ => panic!("{s:?} is not in the transition table"),
        }
        // (c) Paused only through every rung above it.
        if s.to == Level::Paused {
            let above = (1 << rank(Level::Capped)) | (1 << rank(Level::Suspended));
            assert_eq!(path.visited & above, above, "{s:?} skipped a rung");
        }
        steps[rank(s.from)][rank(s.to)] += 1;
        (path.ticks, path.outcomes, path.failures) = (0, 0, 0);
    }

    #[test]
    fn every_input_sequence_up_to_the_bound_keeps_the_transition_table() {
        let mut ex = Explorer::default();
        let d = Degrade::new(cfg(WINDOW, 0.5, CLEAN_WINDOWS, COOLDOWN));
        assert_eq!(d.trip, TRIP);
        ex.visit(&d, Path::default(), 0);

        // Exhaustive, not sampled: every sequence of length 0..=MAX_LEN.
        let expected: u64 = (0..=MAX_LEN).map(|k| 6u64.pow(k)).sum();
        assert_eq!(ex.sequences, expected);
        assert!(expected >= 100_000);
        println!(
            "degrade enumeration: {expected} sequences over {} inputs, length <= {MAX_LEN}, \
             {} distinct (state, basis) pairs",
            ALPHABET.len(),
            ex.live.len()
        );

        // Every edge of the table was exercised (so (c)'s "reachable under
        // sustained failure" holds: Suspended → Paused is only ever taken
        // by a failure), and nothing else was (checked per step above).
        let edges = [
            (Level::Full, Level::Capped),
            (Level::Capped, Level::Suspended),
            (Level::Suspended, Level::Paused),
            (Level::Capped, Level::Full),
            (Level::Suspended, Level::Probing),
            (Level::Paused, Level::Probing),
            (Level::Probing, Level::Capped),
            (Level::Probing, Level::Paused),
        ];
        for (from, to) in edges {
            assert!(
                ex.steps[rank(from)][rank(to)] > 0,
                "{from:?} -> {to:?} never taken"
            );
        }

        // (d) Admissions are monotone non-increasing in rung.
        let budget = ex.budget.map(|b| b.expect("every level is reachable"));
        for pair in budget.windows(2) {
            assert!(
                pair[0].0 >= pair[1].1,
                "admissions not monotone: {budget:?}"
            );
        }
        assert_eq!(budget[rank(Level::Full)], (BATTERY.len(), BATTERY.len()));
        assert_eq!(budget[rank(Level::Probing)], (0, 1));
        assert_eq!(budget[rank(Level::Paused)], (0, 0));
    }
}
