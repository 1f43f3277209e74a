//! Equivalence of the pooled (arena/scratch-recycled) speculation engine
//! with a plain Vec/HashMap reference, under the `tvs-chaos` seed matrix.
//!
//! The hot-path pass replaced per-event allocation in the engine — the
//! wait buffer and undo journal now recycle their per-version storage
//! through [`ScratchPool`]s, and the pipeline reuses its action scratch.
//! None of that may change *behaviour*: undo cascades must replay
//! byte-identically to an unpooled reference, committed buffer drains must
//! produce the same `(slot, value)` stream, and the full pipeline must keep
//! the chaos invariant on both executors.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use tvs_core::{SpecVersion, UndoLog, WaitBuffer};
use tvs_huffman::{decode_exact, CodeTable};
use tvs_iosim::Uniform;
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::runner::{run_huffman, HuffmanReport, HuffmanRun, RunFailure};
use tvs_rng::SmallRng;
use tvs_sre::{x86_smp, DispatchPolicy, FaultInjector, FaultPlan, Instruments, Tracer};
use tvs_workloads::FileKind;

/// The `tvs-chaos` gauntlet's seed matrix — keep in sync with
/// `crates/bench/src/bin/tvs_chaos.rs`.
const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

const STATE_BYTES: usize = 256;
const ROUNDS: usize = 48;
/// Rounds before the allocation counters are reset; past this point the
/// pooled engine must run allocation-free.
const WARMUP_ROUNDS: usize = 16;

/// One seeded run: a pooled engine (persistent `UndoLog` + `WaitBuffer`,
/// storage recycled across versions) and an unpooled reference (fresh
/// `Vec` journal and `HashMap` buffer per version) are driven through an
/// identical speculative write/commit/abort schedule. After every round
/// the two byte states must be identical, and committed outputs must
/// drain in the same order with the same payloads.
fn run_engine_equivalence(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);

    // Shared mutable byte state for the pooled side; undo entries are
    // closures that restore single bytes, so a rollback is a cascade of
    // reverse-order byte restores.
    let pooled_state = Rc::new(RefCell::new(vec![0u8; STATE_BYTES]));
    let mut ref_state = vec![0u8; STATE_BYTES];

    type Entry = Box<dyn FnOnce()>;
    let mut undo: UndoLog<Entry> = UndoLog::new();
    let mut buffer: WaitBuffer<u64> = WaitBuffer::new();

    let mut pooled_commits: Vec<(u64, u64)> = Vec::new();
    let mut ref_commits: Vec<(u64, u64)> = Vec::new();
    let mut commit_scratch: Vec<(u64, u64)> = Vec::new();

    for round in 0..ROUNDS {
        if round == WARMUP_ROUNDS {
            undo.reset_alloc_stats();
            buffer.reset_alloc_stats();
        }
        let version = (round + 1) as SpecVersion;

        // Speculative writes with journalled undo on both sides.
        let mut ref_journal: Vec<(usize, u8)> = Vec::new();
        for _ in 0..rng.random_range(1..24usize) {
            let pos = rng.random_range(0..STATE_BYTES);
            let val = rng.random::<u8>();
            let old = pooled_state.borrow()[pos];
            pooled_state.borrow_mut()[pos] = val;
            let st = Rc::clone(&pooled_state);
            undo.record(version, Box::new(move || st.borrow_mut()[pos] = old));

            ref_journal.push((pos, ref_state[pos]));
            ref_state[pos] = val;
        }

        // Buffered speculative outputs (slots may repeat: replacement).
        let mut ref_buf: HashMap<u64, u64> = HashMap::new();
        for _ in 0..rng.random_range(0..16usize) {
            let slot = rng.random_range(0..12u64);
            let val = rng.random::<u64>();
            buffer.push(version, slot, val);
            ref_buf.insert(slot, val);
            assert_eq!(
                buffer.len_of(version),
                ref_buf.len(),
                "seed {seed} round {round}: a re-pushed slot must count once"
            );
        }

        if rng.random() {
            // Commit: journals retire, buffered outputs drain slot-sorted.
            undo.commit(version);
            commit_scratch.clear();
            buffer.commit_into(version, &mut commit_scratch);
            pooled_commits.extend(commit_scratch.iter().copied());
            let mut drained: Vec<(u64, u64)> = ref_buf.into_iter().collect();
            drained.sort_unstable_by_key(|&(slot, _)| slot);
            ref_commits.extend(drained);
        } else {
            // Abort: the undo cascade replays in reverse record order.
            undo.abort(version);
            buffer.abort(version);
            for (pos, old) in ref_journal.into_iter().rev() {
                ref_state[pos] = old;
            }
        }

        assert_eq!(
            *pooled_state.borrow(),
            ref_state,
            "seed {seed} round {round}: undo cascade diverged from the Vec reference"
        );
        assert_eq!(
            pooled_commits, ref_commits,
            "seed {seed} round {round}: committed output stream diverged"
        );
    }

    // The pooled engine's whole point: past warm-up it recycles instead
    // of allocating. One live version at a time means the pools always
    // have spare storage to hand back.
    assert_eq!(
        undo.alloc_stats().heap_allocs,
        0,
        "seed {seed}: undo journal heap-allocated after warm-up"
    );
    assert_eq!(
        buffer.alloc_stats().heap_allocs,
        0,
        "seed {seed}: wait buffer heap-allocated after warm-up"
    );
}

#[test]
fn pooled_engine_matches_vec_reference_under_chaos_seeds() {
    for seed in SEEDS {
        run_engine_equivalence(seed);
    }
}

fn cfg() -> HuffmanConfig {
    HuffmanConfig {
        collect_output: true,
        ..HuffmanConfig::disk_x86(DispatchPolicy::Balanced)
    }
}

/// The chaos invariant (same as the `tvs-chaos` gauntlet): a run either
/// completes with output that decodes byte-identically to the input, or
/// fails with a structured error — never silently wrong bytes.
fn assert_invariant(res: Result<HuffmanReport, RunFailure>, data: &[u8], what: &str, seed: u64) {
    // A structured `Err` is an allowed chaos outcome; only an Ok run must
    // round-trip exactly.
    if let Ok(report) = res {
        let out = report.end.into_outcome();
        let (bytes, bits, lengths) = out
            .result
            .output
            .as_ref()
            .unwrap_or_else(|| panic!("{what} seed {seed}: no collected output"));
        let table = CodeTable::from_lengths(lengths);
        let back = decode_exact(bytes, 0, *bits, data.len(), &table)
            .unwrap_or_else(|e| panic!("{what} seed {seed}: output does not decode: {e}"));
        assert_eq!(back, data, "{what} seed {seed}: decoded to WRONG bytes");
    }
}

#[test]
fn chaos_seeds_decode_byte_identically_on_both_executors() {
    let data = tvs_workloads::generate(FileKind::Text, 16 * 1024, 2011);
    let arrival = Uniform {
        gap_us: 2,
        start_us: 0,
    };
    let c = cfg();
    // The chaos preset with the event log on; a fresh injector per run
    // (draw counters are part of run state).
    let chaos = |run: HuffmanRun, workers: usize, seed: u64| {
        let instruments = Instruments {
            tracer: Tracer::enabled(workers),
            faults: FaultInjector::new(FaultPlan::chaos(seed)),
            ..Instruments::default()
        };
        run_huffman(&HuffmanRun { instruments, ..run })
    };
    for seed in SEEDS {
        let sim = chaos(HuffmanRun::sim(&data, &c, &x86_smp(8), &arrival), 8, seed);
        assert_invariant(sim, &data, "sim", seed);
        let thr = chaos(HuffmanRun::threaded(&data, &c, 4, &arrival, 1000), 4, seed);
        assert_invariant(thr, &data, "threaded", seed);
    }
}
