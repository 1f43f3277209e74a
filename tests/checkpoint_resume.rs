//! Checkpoint/restart and the degradation machine, end to end.
//!
//! A checkpointed run killed at block K and resumed from its snapshot
//! must produce a stream *byte-identical* to the uninterrupted run, on
//! both executors — the resume path encodes every re-fed block with the
//! snapshot's committed tree and never re-speculates — and so must a
//! resumed run killed and resumed again. Snapshots are bound to the input
//! and the output-shaping configuration, so resuming against the wrong
//! data or shape is a structured error, never a silently divergent stream;
//! a damaged or cut journal either fails to load or loads a shorter
//! prefix that still resumes byte-identically. The degradation machine must demonstrably
//! step down to its suspended level under sustained misprediction (sim
//! and threaded) and climb back to full speculation once the input
//! settles, and a supervised threaded run under duplicate-completion
//! injection must take the epoch-reject path rather than double-commit.

use std::path::{Path, PathBuf};
use tvs_core::checkpoint::JOURNAL_FILE;
use tvs_core::{
    CheckpointConfig, DegradeConfig, Level, ResumeError, StreamSnapshot, ValidationMode,
};
use tvs_huffman::decode_exact;
use tvs_iosim::Uniform;
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::huffman::decompress;
use tvs_pipelines::runner::{
    run_huffman, Executor, HuffmanReport, HuffmanRun, RunFailure, RunOutcome,
};
use tvs_sre::{
    x86_smp, DispatchPolicy, FaultInjector, FaultKind, FaultPlan, FaultSite, Recorder, TraceLog,
};
use tvs_trace::EventKind;

/// Stationary text with a rich alphabet: speculation commits cleanly,
/// so the committed tree — and therefore the output stream — is the
/// same on every executor and every resume.
fn stationary(n: usize) -> Vec<u8> {
    let mut pattern = b"etaoin shrdlu ".repeat(10);
    pattern.extend_from_slice(b"qzxjkvbw,.!?");
    (0..n).map(|i| pattern[i % pattern.len()]).collect()
}

/// Small blocks and ratios so 64 KiB exercises many blocks, reduces and
/// offset bursts; step 1 speculates from the first reduce outcome.
fn cfg() -> HuffmanConfig {
    let mut c = HuffmanConfig::disk_x86(DispatchPolicy::Balanced);
    c.block_bytes = 1024;
    c.reduce_ratio = 4;
    c.offset_fanout = 4;
    c.schedule = tvs_core::SpeculationSchedule::with_step(1);
    c.collect_output = true;
    c
}

const ARRIVAL: Uniform = Uniform {
    gap_us: 30,
    start_us: 0,
};

/// On the simulator's 8 x86 workers.
fn sim<'a>(data: &'a [u8], c: &'a HuffmanConfig) -> HuffmanRun<'a> {
    HuffmanRun::sim(data, c, &x86_smp(8), &ARRIVAL)
}

/// On 4 real threads, arrivals compressed 1000×.
fn threaded<'a>(data: &'a [u8], c: &'a HuffmanConfig) -> HuffmanRun<'a> {
    HuffmanRun::threaded(data, c, 4, &ARRIVAL, 1000)
}

/// Every block due at once: on 2 workers a batch holds a whole reduce group
/// per worker, so blocks are counted, reduced, offset and encoded a group of
/// 4 at a time, and a kill at block 6, 10 or 30 lands inside a group.
const AT_ONCE: Uniform = Uniform {
    gap_us: 0,
    start_us: 0,
};

/// On the simulator's 2 x86 workers, every block at once.
fn sim_at_once<'a>(data: &'a [u8], c: &'a HuffmanConfig) -> HuffmanRun<'a> {
    HuffmanRun::sim(data, c, &x86_smp(2), &AT_ONCE)
}

/// On 2 real threads, every block at once.
fn threaded_at_once<'a>(data: &'a [u8], c: &'a HuffmanConfig) -> HuffmanRun<'a> {
    HuffmanRun::threaded(data, c, 2, &AT_ONCE, 1000)
}

/// [`cfg`] without speculation.
fn natural() -> HuffmanConfig {
    let mut c = cfg();
    c.policy = DispatchPolicy::NonSpeculative;
    c
}

/// Kills `plain` at blocks 6, 10 and 30 (a journal record every 4 blocks)
/// and resumes it from the journal on disk: the halted snapshot is the one
/// on disk, and the resumed stream is `base`'s, byte for byte.
fn killed_in_a_group_resumes_identically(
    on: for<'a> fn(&'a [u8], &'a HuffmanConfig) -> HuffmanRun<'a>,
    data: &[u8],
    plain: &HuffmanConfig,
    base: &RunOutcome,
    name: &str,
) {
    for kill_at in [6usize, 10, 30] {
        let what = format!("{name}, {:?}, kill at {kill_at}", plain.policy);
        let dir = scratch_dir(&format!("{name}-{:?}-{kill_at}", plain.policy));
        let mut c = plain.clone();
        c.checkpoint = Some(CheckpointConfig {
            every_blocks: 4,
            dir: dir.clone(),
            halt_at_block: Some(kill_at),
        });
        let snap = halt_snapshot(on(data, &c));
        assert!(snap.prefix >= kill_at as u64, "{what}: {}", snap.prefix);
        let on_disk = StreamSnapshot::load(&dir.join(JOURNAL_FILE)).expect("halt persists");
        assert_eq!(on_disk, snap, "{what}");
        let resumed = resumed(on(data, plain), &on_disk).expect("snapshot matches");
        assert_eq!(output_of(&resumed), output_of(base), "{what}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A run that must complete.
fn outcome(run: HuffmanRun) -> RunOutcome {
    let report = run_huffman(&run).expect("nothing injected, nothing fails");
    report.end.into_outcome()
}

/// A run whose checkpoint plane must halt it.
fn halt_snapshot(run: HuffmanRun) -> StreamSnapshot {
    let report = run_huffman(&run).expect("nothing injected, nothing fails");
    report.end.into_snapshot()
}

/// `run`, resumed from `snap`.
fn resumed<'a>(run: HuffmanRun<'a>, snap: &'a StreamSnapshot) -> Result<RunOutcome, RunFailure> {
    let run = HuffmanRun {
        resume: Some(snap),
        ..run
    };
    run_huffman(&run).map(|report| report.end.into_outcome())
}

/// A run that must complete, with the event log on.
fn events(mut run: HuffmanRun) -> (RunOutcome, TraceLog) {
    let workers = match &run.on {
        Executor::Sim { cfg } => cfg.platform.workers,
        Executor::Threaded { cfg, .. } => cfg.workers,
    };
    run.instruments.recorder = Recorder::enabled(workers);
    let report = run_huffman(&run).expect("the run recovers");
    let log = report.log.expect("enabled recorder drains");
    (report.end.into_outcome(), log)
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tvs-ckpt-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The file names in `dir`, sorted.
fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .expect("the run wrote its directory")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

fn output_of(out: &RunOutcome) -> (&[u8], u64) {
    let (bytes, bits, _) = out.result.output.as_ref().expect("output collected");
    (bytes, *bits)
}

#[test]
fn sim_kill_and_resume_is_byte_identical() {
    let data = stationary(64 * 1024);
    let base = outcome(sim(&data, &cfg()));
    let (base_bytes, base_bits) = output_of(&base);
    for kill_at in [8usize, 24, 48] {
        let dir = scratch_dir(&format!("sim-{kill_at}"));
        let mut c = cfg();
        c.checkpoint = Some(CheckpointConfig {
            every_blocks: 4,
            dir: dir.clone(),
            halt_at_block: Some(kill_at),
        });
        let snap = halt_snapshot(sim(&data, &c));
        assert!(
            snap.prefix >= kill_at as u64,
            "halt fires once the committed prefix reaches the kill block"
        );
        // The durable copy on disk must be the same snapshot the halted
        // run reported in memory.
        let on_disk = StreamSnapshot::load(&CheckpointConfig::new(4, &dir).journal_path())
            .expect("halt always persists a snapshot");
        assert_eq!(on_disk, snap);

        let resumed =
            resumed(sim(&data, &cfg()), &on_disk).expect("snapshot matches input and config");
        let (res_bytes, res_bits) = output_of(&resumed);
        assert_eq!(res_bits, base_bits, "kill at {kill_at}: bit length differs");
        assert_eq!(
            res_bytes, base_bytes,
            "kill at {kill_at}: resumed stream is not byte-identical"
        );
        // And the stream still decodes back to the input.
        let (_, _, lengths) = resumed.result.output.as_ref().unwrap();
        let table = tvs_huffman::CodeTable::from_lengths(lengths);
        let decoded = decode_exact(res_bytes, 0, res_bits, data.len(), &table)
            .expect("resumed stream decodes");
        assert_eq!(decoded, data);
        let _ = std::fs::remove_dir_all(&dir);
    }
    for plain in [cfg(), natural()] {
        let base = outcome(sim_at_once(&data, &plain));
        killed_in_a_group_resumes_identically(sim_at_once, &data, &plain, &base, "sim-group");
    }
}

#[test]
fn threaded_kill_and_resume_is_byte_identical() {
    let data = stationary(64 * 1024);
    // Cross-executor identity holds for stationary input, so the sim run
    // is the reference for the threaded resumes too.
    let base = outcome(sim(&data, &cfg()));
    let (base_bytes, base_bits) = output_of(&base);
    let uninterrupted = outcome(threaded(&data, &cfg()));
    assert_eq!(output_of(&uninterrupted), (base_bytes, base_bits));
    for kill_at in [8usize, 32] {
        let dir = scratch_dir(&format!("thr-{kill_at}"));
        let mut c = cfg();
        c.checkpoint = Some(CheckpointConfig {
            every_blocks: 4,
            dir: dir.clone(),
            halt_at_block: Some(kill_at),
        });
        let snap = halt_snapshot(threaded(&data, &c));
        assert!(snap.prefix >= kill_at as u64);
        let resumed =
            resumed(threaded(&data, &cfg()), &snap).expect("snapshot matches input and config");
        let (res_bytes, res_bits) = output_of(&resumed);
        assert_eq!(res_bits, base_bits, "kill at {kill_at}: bit length differs");
        assert_eq!(
            res_bytes, base_bytes,
            "kill at {kill_at}: resumed stream is not byte-identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    for plain in [cfg(), natural()] {
        let base = outcome(sim_at_once(&data, &plain));
        let on = threaded_at_once;
        killed_in_a_group_resumes_identically(on, &data, &plain, &base, "thr-group");
    }
}

/// One half of a killed-and-resumed run with the event log on: on the
/// simulator, or on 2 real threads.
fn half_with_events<'a>(
    data: &'a [u8],
    c: &'a HuffmanConfig,
    on_threads: bool,
    resume: Option<&'a StreamSnapshot>,
) -> HuffmanReport {
    let (mut run, workers) = if on_threads {
        (HuffmanRun::threaded(data, c, 2, &ARRIVAL, 1000), 2)
    } else {
        (sim(data, c), 8)
    };
    run.instruments.recorder = Recorder::enabled(workers);
    run.resume = resume;
    run_huffman(&run).expect("nothing injected, nothing fails")
}

/// A combination the parent's fifteen entry points could not express:
/// kill at block 24 and resume, under full replication, with the event log
/// on, on both executors. The resumed stream is byte-identical to the
/// uninterrupted one and both halves drain a log.
#[test]
fn replicated_kill_and_resume_with_events_is_byte_identical() {
    let data = stationary(64 * 1024);
    let mut plain = cfg();
    plain.validation = ValidationMode::Replicate { sample_rate: 1.0 };
    let base = outcome(sim(&data, &plain));
    for on_threads in [false, true] {
        let dir = scratch_dir(&format!("replicated-{on_threads}"));
        let mut killed = plain.clone();
        killed.checkpoint = Some(CheckpointConfig {
            every_blocks: 4,
            dir: dir.clone(),
            halt_at_block: Some(24),
        });
        let first = half_with_events(&data, &killed, on_threads, None);
        assert!(first.log.is_some(), "the killed half has a log");
        assert!(first.replica.replicas_spawned > 0, "the killed half votes");
        let snap = first.end.into_snapshot();
        assert!(snap.prefix >= 24);
        let second = half_with_events(&data, &plain, on_threads, Some(&snap));
        let log = second.log.expect("the resumed half has a log");
        // On threads the halt can land after the last block committed: then
        // the resumed half has nothing left to run.
        if (snap.prefix as usize) < plain.n_blocks(data.len()) {
            assert!(log.count("task-end") > 0, "the resumed half ran tasks");
            assert!(second.replica.replicas_spawned > 0, "and voted on them");
        }
        let resumed = second.end.into_outcome();
        assert_eq!(
            output_of(&resumed),
            output_of(&base),
            "threads: {on_threads}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn resume_never_re_speculates() {
    let data = stationary(64 * 1024);
    let dir = scratch_dir("nospec");
    let mut c = cfg();
    c.checkpoint = Some(CheckpointConfig {
        every_blocks: 4,
        dir: dir.clone(),
        halt_at_block: Some(16),
    });
    let snap = halt_snapshot(sim(&data, &c));
    assert!(snap.committed_version > 0, "halt implies a committed tree");
    let resumed = resumed(sim(&data, &cfg()), &snap).expect("resumes");
    let stats = resumed.result.spec_stats.expect("policy speculates");
    assert_eq!(stats.predictions, 0, "resume must not predict again");
    assert_eq!(stats.rollbacks, 0, "resume must not roll back");
    assert_eq!(
        resumed.result.committed_version.map(u64::from),
        Some(snap.committed_version),
        "the snapshot's committed version carries through"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_rejects_mismatched_input_and_config() {
    let data = stationary(32 * 1024);
    let dir = scratch_dir("mismatch");
    let mut c = cfg();
    c.checkpoint = Some(CheckpointConfig {
        every_blocks: 4,
        dir: dir.clone(),
        halt_at_block: Some(8),
    });
    let snap = halt_snapshot(sim(&data, &c));
    let mismatch = Some(RunFailure::Resume(ResumeError::InputMismatch));

    // Wrong input bytes: one bit flipped past the committed prefix.
    let mut other = data.clone();
    let last = other.len() - 1;
    other[last] ^= 0x40;
    assert_eq!(resumed(sim(&other, &cfg()), &snap).err(), mismatch);

    // Wrong output shape: a different tolerance changes the digest.
    let mut reshaped = cfg();
    reshaped.tolerance = tvs_core::Tolerance::percent(5.0);
    assert_eq!(resumed(sim(&data, &reshaped), &snap).err(), mismatch);

    // A journal cut inside its header is a structured load error, not a
    // panic.
    let path = CheckpointConfig::new(4, &dir).journal_path();
    let bytes = std::fs::read(&path).expect("snapshot persisted");
    std::fs::write(&path, &bytes[..100]).unwrap();
    assert_eq!(StreamSnapshot::load(&path), Err(ResumeError::Truncated));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill at block 16, resume with checkpointing into the same directory and
/// kill again at block 40, then resume from what is on disk: the stream is
/// byte-identical to the uninterrupted run, on both executors.
#[test]
fn a_resumed_run_can_be_killed_and_resumed_again() {
    let data = stationary(64 * 1024);
    // On threads a speculative run commits in one burst that can swallow
    // the whole stream, and several workers finish blocks out of order, so
    // a kill could land past the last block: there, one worker runs the
    // natural path, which finalizes blocks a few at a time, in order.
    let mut natural = cfg();
    natural.policy = DispatchPolicy::NonSpeculative;
    for (on_threads, plain) in [(false, cfg()), (true, natural)] {
        let base = outcome(sim(&data, &plain));
        let on = |c| match on_threads {
            true => HuffmanRun::threaded(&data, c, 1, &ARRIVAL, 1000),
            false => sim(&data, c),
        };
        let dir = scratch_dir(&format!("twice-{on_threads}"));
        let killed_at = |block| {
            let mut c = plain.clone();
            c.checkpoint = Some(CheckpointConfig {
                every_blocks: 4,
                dir: dir.clone(),
                halt_at_block: Some(block),
            });
            c
        };
        let (first_cfg, second_cfg) = (killed_at(16), killed_at(40));
        let first = halt_snapshot(on(&first_cfg));
        assert!((16..40).contains(&first.prefix), "{}", first.prefix);
        let second = run_huffman(&HuffmanRun {
            resume: Some(&first),
            ..on(&second_cfg)
        })
        .expect("resumes")
        .end
        .into_snapshot();
        assert!(second.prefix >= 40);
        let on_disk = StreamSnapshot::load(&dir.join(JOURNAL_FILE)).expect("second halt persists");
        assert_eq!(on_disk, second, "threads: {on_threads}");
        let out = resumed(on(&plain), &on_disk).expect("resumes again");
        assert_eq!(output_of(&out), output_of(&base), "threads: {on_threads}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A kill mid-append. Halt at block 16, resume into the same directory and
/// halt at 40: the resumed run appends to the journal it loaded, whose
/// bytes it never rewrites. Every cut inside the first appended record
/// replays to the first halt's snapshot, and a run resumed from the cut
/// journal writes over the cut and finishes with a journal that is the
/// compressed file. A resume whose snapshot is not the directory's journal
/// writes a new journal from block 0, which resumes too. The directory
/// holds the journal and nothing else throughout, on both executors.
#[test]
fn a_resumed_run_appends_to_the_journal_it_loaded() {
    let data = stationary(64 * 1024);
    let mut natural = cfg();
    natural.policy = DispatchPolicy::NonSpeculative;
    for (on_threads, plain) in [(false, cfg()), (true, natural)] {
        let base = outcome(sim(&data, &plain));
        let on = |c| match on_threads {
            true => HuffmanRun::threaded(&data, c, 1, &ARRIVAL, 1000),
            false => sim(&data, c),
        };
        let dir = scratch_dir(&format!("append-{on_threads}"));
        let path = dir.join(JOURNAL_FILE);
        let checkpointed = |halt_at_block| {
            let mut c = plain.clone();
            c.checkpoint = Some(CheckpointConfig {
                every_blocks: 4,
                dir: dir.clone(),
                halt_at_block,
            });
            c
        };
        let (to_16, to_40, to_end) = (
            checkpointed(Some(16)),
            checkpointed(Some(40)),
            checkpointed(None),
        );
        let what = format!("threads: {on_threads}");

        let first = halt_snapshot(on(&to_16));
        assert_eq!(listing(&dir), [JOURNAL_FILE], "{what}");
        let loaded = std::fs::read(&path).unwrap();
        let second = run_huffman(&HuffmanRun {
            resume: Some(&first),
            ..on(&to_40)
        })
        .expect("resumes")
        .end
        .into_snapshot();
        assert_eq!(listing(&dir), [JOURNAL_FILE], "{what}");
        let appended = std::fs::read(&path).unwrap();
        assert_eq!(appended[..loaded.len()], loaded[..], "{what}");
        assert_eq!(StreamSnapshot::load(&path), Ok(second), "{what}");

        let replay = |bytes: &[u8]| StreamSnapshot::replay(bytes).expect("the header is intact");
        let records = replay(&loaded).records;
        let end = (loaded.len() + 1..=appended.len())
            .find(|&len| replay(&appended[..len]).records > records)
            .expect("the resumed run appended a record");
        for len in loaded.len()..end {
            assert_eq!(
                replay(&appended[..len]).snapshot,
                first,
                "{what}, cut at {len}"
            );
        }
        for len in [loaded.len() + 1, (loaded.len() + end) / 2, end - 1] {
            std::fs::write(&path, &appended[..len]).unwrap();
            let cut = StreamSnapshot::load(&path).unwrap();
            let out = resumed(on(&to_end), &cut).expect("resumes");
            assert_eq!(output_of(&out), output_of(&base), "{what}, cut at {len}");
            let finished = std::fs::read(&path).unwrap();
            assert_eq!(finished[..loaded.len()], loaded[..], "{what}, cut at {len}");
            assert_eq!(decompress(&finished).as_ref(), Ok(&data), "{what}");
            assert_eq!(listing(&dir), [JOURNAL_FILE], "{what}");
        }

        // The directory now holds a finished journal, not `first`'s.
        let third = run_huffman(&HuffmanRun {
            resume: Some(&first),
            ..on(&to_40)
        })
        .expect("resumes")
        .end
        .into_snapshot();
        let fresh = std::fs::read(&path).unwrap();
        let one_record = (0..=fresh.len())
            .filter_map(|len| StreamSnapshot::replay(&fresh[..len]).ok())
            .find(|r| r.records == 1)
            .expect("a record");
        assert!(
            one_record.snapshot.prefix > first.prefix,
            "{what}: the first record starts at block 0"
        );
        assert_eq!(StreamSnapshot::load(&path), Ok(third.clone()), "{what}");
        let out = resumed(on(&plain), &third).expect("resumes");
        assert_eq!(output_of(&out), output_of(&base), "{what}");
        assert_eq!(listing(&dir), [JOURNAL_FILE], "{what}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A kill that cuts the first record leaves a header that pins no tree: a
/// run resumed from it picks its own committed tree, so it must write its
/// own header too. The header here carries a table no run commits, and the
/// finished journal must still decompress to the input, on both executors.
#[test]
fn a_journal_without_a_record_gets_the_resumed_runs_header() {
    let data = stationary(64 * 1024);
    for on_threads in [false, true] {
        let dir = scratch_dir(&format!("no-record-{on_threads}"));
        let path = dir.join(JOURNAL_FILE);
        let mut c = cfg();
        c.checkpoint = Some(CheckpointConfig::new(4, &dir));
        let head = StreamSnapshot {
            config_digest: c.digest(),
            input_digest: tvs_core::checkpoint::input_digest(&data),
            src_len: data.len() as u64,
            block_bytes: c.block_bytes as u64,
            cadence: 4,
            code_lengths: vec![8; 256],
            committed_version: 99,
            ..StreamSnapshot::default()
        };
        let mut journal = tvs_core::Journal::new(&dir);
        journal.write(|| head, 0, |_| unreachable!(), &[]).unwrap();
        journal.trim().unwrap();
        // The first record, cut short.
        let mut cut = std::fs::read(&path).unwrap();
        cut.extend_from_slice(&[16, 0, 0, 0, 0]);
        std::fs::write(&path, &cut).unwrap();

        let snap = StreamSnapshot::load(&path).unwrap();
        assert_eq!((snap.prefix, &snap.code_lengths[..2]), (0, &[8, 8][..]));
        let run = match on_threads {
            true => threaded(&data, &c),
            false => sim(&data, &c),
        };
        resumed(run, &snap).expect("resumes");
        let finished = std::fs::read(&path).unwrap();
        let what = format!("threads: {on_threads}");
        assert_eq!(decompress(&finished).as_ref(), Ok(&data), "{what}");
        let ours = StreamSnapshot::load(&path).unwrap();
        assert!(ours.code_lengths != snap.code_lengths, "{what}");
        assert_eq!(listing(&dir), [JOURNAL_FILE], "{what}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The simulator's journal is a function of input and configuration: no
/// wall clock decides when a record is written.
#[test]
fn two_simulator_runs_write_byte_identical_journals() {
    let data = stationary(64 * 1024);
    let journals: Vec<Vec<u8>> = ["det-a", "det-b"]
        .into_iter()
        .map(|name| {
            let dir = scratch_dir(name);
            let mut c = cfg();
            c.checkpoint = Some(CheckpointConfig::new(4, &dir));
            outcome(sim(&data, &c));
            let bytes = std::fs::read(dir.join(JOURNAL_FILE)).expect("cadence writes");
            let _ = std::fs::remove_dir_all(&dir);
            bytes
        })
        .collect();
    assert!(!journals[0].is_empty());
    assert_eq!(journals[0], journals[1]);
}

/// A small halted run's journal, the snapshot it halted with, and the
/// uninterrupted run's output.
fn small_halted_journal(name: &str) -> (Vec<u8>, PathBuf, StreamSnapshot, RunOutcome) {
    let data = stationary(16 * 1024);
    let base = outcome(sim(&data, &cfg()));
    let dir = scratch_dir(name);
    let mut c = cfg();
    c.checkpoint = Some(CheckpointConfig {
        every_blocks: 4,
        dir: dir.clone(),
        halt_at_block: Some(8),
    });
    let snap = halt_snapshot(sim(&data, &c));
    let path = dir.join(JOURNAL_FILE);
    let bytes = std::fs::read(&path).expect("halt persists a journal");
    (bytes, path, snap, base)
}

/// Flip each byte of a halted run's journal in turn: it either fails to
/// load, or loads a prefix shorter than the halt's that resumes to the
/// uninterrupted stream.
#[test]
fn every_flipped_byte_of_a_journal_is_rejected_or_resumes_identically() {
    let (bytes, path, snap, base) = small_halted_journal("flip");
    let data = stationary(16 * 1024);
    let mut loaded_any = false;
    for i in 0..bytes.len() {
        let mut m = bytes.clone();
        m[i] ^= 0x01;
        std::fs::write(&path, &m).unwrap();
        let Ok(loaded) = StreamSnapshot::load(&path) else {
            continue;
        };
        loaded_any = true;
        assert!(
            loaded.prefix < snap.prefix,
            "byte {i}: the damaged record applied"
        );
        let out = resumed(sim(&data, &cfg()), &loaded);
        let out = out.unwrap_or_else(|e| panic!("byte {i}: loads but does not resume: {e}"));
        assert_eq!(
            output_of(&out),
            output_of(&base),
            "byte {i}: resumed stream differs"
        );
    }
    assert!(loaded_any, "a damaged record leaves the ones before it");
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

/// A journal cut inside its last record — a kill mid-append — loads the
/// previous record's prefix and resumes byte-identically from it.
#[test]
fn a_journal_cut_mid_record_resumes_from_the_previous_record() {
    let (bytes, path, snap, base) = small_halted_journal("cut");
    let data = stationary(16 * 1024);
    std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
    let loaded = StreamSnapshot::load(&path).expect("the header and earlier records are intact");
    assert!(0 < loaded.prefix && loaded.prefix < snap.prefix);
    let out = resumed(sim(&data, &cfg()), &loaded).expect("resumes");
    assert_eq!(output_of(&out), output_of(&base));
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

/// Adversarial drifting input: every block shifts the byte distribution,
/// so every prediction is stale by the time its check resolves.
fn drifting(n: usize) -> Vec<u8> {
    (0..n).map(|i| ((i / 1024) * 7 + i % 13) as u8).collect()
}

/// Zero tolerance under full verification, degrading on a window of four
/// outcomes; `cooldown` basis events before a probe.
fn degrading_cfg(cooldown: u64) -> HuffmanConfig {
    let mut c = cfg();
    c.policy = DispatchPolicy::Aggressive;
    c.verification = tvs_core::VerificationPolicy::Full;
    c.tolerance = tvs_core::Tolerance { margin: 0.0 };
    c.degrade = Some(DegradeConfig {
        window: 4,
        trip_ratio: 0.5,
        clean_windows: 2,
        cooldown,
    });
    c
}

const SLOW: Uniform = Uniform {
    gap_us: 100,
    start_us: 0,
};

fn assert_decodes_to(out: &RunOutcome, data: &[u8]) {
    let (bytes, bits, lengths) = out.result.output.as_ref().expect("output collected");
    let table = tvs_huffman::CodeTable::from_lengths(lengths);
    let decoded = decode_exact(bytes, 0, *bits, data.len(), &table).expect("stream decodes");
    assert_eq!(decoded, data);
}

#[test]
fn ladder_steps_down_when_the_breaker_trips_sim() {
    let data = drifting(32 * 1024);
    // A cooldown longer than the run: once suspended, it stays there.
    let c = degrading_cfg(1_000);
    let (out, log) = events(HuffmanRun::sim(&data, &c, &x86_smp(8), &SLOW));
    let levels: Vec<u32> = log.degrade_steps().map(|(_, to, _)| to).collect();
    assert_eq!(
        levels[..2],
        [Level::Capped as u32, Level::Suspended as u32],
        "100% misprediction must suspend speculation one rung at a time"
    );
    let stats = out.result.spec_stats.expect("speculative policy");
    let health = log.health();
    assert_eq!(
        (health.steps_down, health.steps_up, health.probes),
        (stats.steps_down, stats.steps_up, stats.probes)
    );
    assert_eq!((stats.steps_up, stats.probes), (0, 0), "still cooling down");
    // Degraded, not broken: the run still completes and decodes.
    assert_decodes_to(&out, &data);
}

#[test]
fn ladder_steps_down_when_the_breaker_trips_threaded() {
    let data = drifting(32 * 1024);
    let c = degrading_cfg(1_000);
    let (out, log) = events(HuffmanRun::threaded(&data, &c, 4, &SLOW, 100));
    let stats = out.result.spec_stats.expect("speculative policy");
    assert!(
        log.degrade_steps()
            .any(|(_, to, _)| to == Level::Suspended as u32),
        "sustained misprediction must suspend speculation on real threads \
         (steps down: {}, checks failed: {})",
        stats.steps_down,
        stats.checks_failed,
    );
    assert_decodes_to(&out, &data);
}

/// The absorbing-rung regression, end to end: the first half of the stream
/// mispredicts every time, the second half is stationary, and the cooldown
/// is far shorter than the stream. The run must step down, probe its way
/// back up and finish at full speculation.
#[test]
fn degraded_run_climbs_back_to_full_once_the_input_settles() {
    let mut data = drifting(64 * 1024);
    data.extend(stationary(192 * 1024));
    let mut c = degrading_cfg(4);
    c.tolerance = tvs_core::Tolerance::percent(1.0);
    let mut run = HuffmanRun::sim(&data, &c, &x86_smp(8), &SLOW);
    run.instruments.recorder = tvs_sre::Recorder::enabled(8);
    let hub = run.instruments.recorder.clone();
    let (out, log) = events(run);
    // The whole degradation story of this deterministic run, as the one
    // golden the repository keeps (instead of committed trace artifacts).
    let story: String = log
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::DegradeStep { from, to, cause } => {
                Some(format!("degrade-step {from} -> {to} {}\n", cause.label()))
            }
            EventKind::DegradeProbe { .. } => Some("degrade-probe\n".to_string()),
            _ => None,
        })
        .collect();
    assert_eq!(story, include_str!("golden/degrade_events_sim.txt"));
    let health = log.health();
    assert!(health.steps_down >= 1 && health.steps_up >= 1);
    assert_eq!(
        log.degrade_steps().last().map(|(_, to, _)| to),
        Some(Level::Full as u32)
    );
    assert_eq!(hub.gauge_get(tvs_metrics::Gauge::DegradationLevel), 0);
    // Back at full speculation the run commits a tolerated tree: the stream
    // round-trips exactly and is within the margin of the serial codec's.
    assert!(out.result.committed_version.is_some());
    assert_decodes_to(&out, &data);
    let serial = tvs_huffman::serial_encode(&data).expect("non-empty input");
    let (_, bits) = output_of(&out);
    assert!(bits >= serial.bit_len && bits as f64 <= serial.bit_len as f64 * 1.01);
}

#[test]
fn supervised_run_rejects_duplicate_completions_instead_of_double_committing() {
    // The acceptance scenario: duplicate completion reports injected into
    // a supervised threaded run must take the epoch-reject path — visible
    // in `stale_completions_rejected` — and leave the output stream
    // byte-identical to a clean run.
    let data = stationary(64 * 1024);
    let base = outcome(sim(&data, &cfg()));
    let (base_bytes, base_bits) = output_of(&base);
    let c = cfg();
    let mut run = threaded(&data, &c);
    if let Executor::Threaded { cfg: tcfg, .. } = &mut run.on {
        tcfg.supervisor = Some(tvs_sre::SupervisorConfig::default());
    }
    run.instruments.faults = FaultInjector::new(
        FaultPlan::new(7)
            .with_rule(FaultSite::Completion, FaultKind::DuplicateCompletion, 1.0)
            .with_max_faults(12),
    );
    let (out, _log) = events(run);
    assert!(
        out.metrics.stale_completions_rejected > 0,
        "the epoch-reject path must actually be taken"
    );
    assert_eq!(
        out.metrics.duplicate_completions, 0,
        "no echo may reach the commit path"
    );
    assert_eq!(output_of(&out), (base_bytes, base_bits));
}
