//! Speculation safety: no matter how wrong the predictions are or when
//! rollbacks strike, the committed output is always correct and every
//! block is finalised exactly once.

use tvs_core::{SpeculationSchedule, Tolerance, ValidationMode, VerificationPolicy};
use tvs_huffman::{decode_exact, serial_encode, CodeTable};
use tvs_iosim::{ArrivalModel, Custom, Disk, Uniform};
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::runner::{run_huffman, HuffmanRun, RunOutcome};
use tvs_rng::cases;
use tvs_sre::{x86_smp, DispatchPolicy, Platform};

/// Dark simulator run that must complete.
fn sim_outcome(
    data: &[u8],
    cfg: &HuffmanConfig,
    platform: &Platform,
    arrival: &dyn ArrivalModel,
) -> RunOutcome {
    let report = run_huffman(&HuffmanRun::sim(data, cfg, platform, arrival));
    report.expect("a dark run cannot fail").end.into_outcome()
}

fn decode_and_check(out: &RunOutcome, input: &[u8]) {
    let (bytes, bits, lengths) = out.result.output.as_ref().expect("output collected");
    let table = CodeTable::from_lengths(lengths);
    let decoded = decode_exact(bytes, 0, *bits, input.len(), &table).expect("decodes");
    assert_eq!(decoded, input);
}

/// Drifting data guaranteed to trip 1 % checks: three regimes with very
/// different alphabets.
fn adversarial_data(n: usize) -> Vec<u8> {
    (0..n)
        .map(|i| {
            let frac = i as f64 / n as f64;
            if frac < 0.3 {
                b'a' + (i % 4) as u8
            } else if frac < 0.6 {
                128 + (i % 32) as u8
            } else {
                (i % 251) as u8
            }
        })
        .collect()
}

fn small_cfg(
    policy: DispatchPolicy,
    step: u64,
    verify: VerificationPolicy,
    tol: f64,
) -> HuffmanConfig {
    HuffmanConfig {
        block_bytes: 1024,
        reduce_ratio: 4,
        offset_fanout: 4,
        policy,
        schedule: SpeculationSchedule::with_step(step),
        verification: verify,
        tolerance: Tolerance { margin: tol },
        predictor: Default::default(),
        collect_output: true,
        degrade: None,
        validation: ValidationMode::Tolerance,
        checkpoint: None,
    }
}

#[test]
fn forced_rollbacks_still_produce_correct_output() {
    let data = adversarial_data(128 * 1024);
    let cfg = small_cfg(
        DispatchPolicy::Aggressive,
        1,
        VerificationPolicy::Full,
        0.01,
    );
    let out = sim_outcome(&data, &cfg, &x86_smp(8), &Disk::default());
    assert!(out.metrics.rollbacks > 0, "adversarial data must roll back");
    decode_and_check(&out, &data);
}

#[test]
fn zero_tolerance_rejects_and_recomputes_optimally() {
    let data = adversarial_data(64 * 1024);
    let cfg = small_cfg(DispatchPolicy::Balanced, 1, VerificationPolicy::Full, 0.0);
    let out = sim_outcome(&data, &cfg, &x86_smp(8), &Disk::default());
    assert_eq!(
        out.result.committed_version, None,
        "zero tolerance cannot commit drifted trees"
    );
    decode_and_check(&out, &data);
    let serial = serial_encode(&data).unwrap();
    assert_eq!(
        out.result.compressed_bits, serial.bit_len,
        "natural path must be optimal"
    );
}

#[test]
fn infinite_tolerance_always_commits_first_prediction() {
    let data = adversarial_data(64 * 1024);
    let cfg = small_cfg(
        DispatchPolicy::Balanced,
        1,
        VerificationPolicy::Full,
        f64::INFINITY,
    );
    let out = sim_outcome(&data, &cfg, &x86_smp(8), &Disk::default());
    assert_eq!(out.metrics.rollbacks, 0);
    assert_eq!(out.result.committed_version, Some(1));
    decode_and_check(&out, &data);
    // The price of infinite tolerance: compression may be far from optimal
    // but the output is still *valid* — the paper's key Huffman property.
    let serial = serial_encode(&data).unwrap();
    assert!(out.result.compressed_bits >= serial.bit_len);
}

#[test]
fn wasted_work_is_accounted_not_leaked() {
    let data = adversarial_data(128 * 1024);
    let cfg = small_cfg(
        DispatchPolicy::Aggressive,
        1,
        VerificationPolicy::Full,
        0.005,
    );
    let out = sim_outcome(&data, &cfg, &x86_smp(8), &Disk::default());
    assert!(out.metrics.rollbacks > 0);
    assert!(
        out.metrics.tasks_discarded + out.metrics.tasks_deleted_ready > 0,
        "rollbacks must destroy speculative tasks"
    );
    assert!(out.metrics.wasted_us > 0);
    assert!(out.metrics.wasted_us <= out.metrics.busy_us);
    // Every block still finalised exactly once (result() would panic on
    // double-finalisation; the length check covers omission).
    assert_eq!(out.result.blocks.len(), 128);
}

#[test]
fn stalled_arrivals_mid_stream_are_tolerated() {
    // A long arrival gap right where speculation is active: the pipeline
    // must idle and resume, not deadlock.
    let n_blocks = 64usize;
    let schedule: Vec<u64> = (0..n_blocks as u64)
        .map(|i| if i < 32 { i * 10 } else { 500_000 + i * 10 })
        .collect();
    let data = adversarial_data(n_blocks * 1024);
    let cfg = small_cfg(
        DispatchPolicy::Balanced,
        1,
        VerificationPolicy::baseline(),
        0.01,
    );
    let out = sim_outcome(&data, &cfg, &x86_smp(4), &Custom(schedule));
    decode_and_check(&out, &data);
    assert!(out.completion_time() >= 500_000);
}

#[test]
fn all_blocks_arriving_at_once_work() {
    let data = adversarial_data(64 * 1024);
    let cfg = small_cfg(
        DispatchPolicy::Aggressive,
        0,
        VerificationPolicy::Full,
        0.01,
    );
    let out = sim_outcome(
        &data,
        &cfg,
        &x86_smp(8),
        &Uniform {
            gap_us: 0,
            start_us: 0,
        },
    );
    decode_and_check(&out, &data);
}

/// The safety invariant under arbitrary content, policy, frequency and
/// tolerance: the committed stream always decodes to the input. Hand-rolled
/// seeded cases (the offline build has no proptest).
#[test]
fn prop_committed_output_always_decodes() {
    cases(0x5AFE, 24, |rng, case| {
        let seed = rng.random_range(0..1000u64);
        let regime_a = rng.random_range(0..4u8);
        let regime_b = rng.random_range(0..4u8);
        let policy = [
            DispatchPolicy::Balanced,
            DispatchPolicy::Aggressive,
            DispatchPolicy::Conservative,
        ][rng.random_range(0..3usize)];
        let step = rng.random_range(0..6u64);
        let verify = [
            VerificationPolicy::baseline(),
            VerificationPolicy::Optimistic,
            VerificationPolicy::Full,
        ][rng.random_range(0..3usize)];
        let tol = [0.0, 0.005, 0.01, 0.05, 1.0][rng.random_range(0..5usize)];
        // Two-regime synthetic input: arbitrary drift severity.
        let n = 48 * 1024;
        let data: Vec<u8> = (0..n)
            .map(|i| {
                let r = if i < n / 2 { regime_a } else { regime_b };
                let x = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed)
                    >> 33;
                match r {
                    0 => b'a' + (x % 8) as u8,
                    1 => 128 + (x % 64) as u8,
                    2 => (x % 251) as u8,
                    _ => b'0' + (x % 10) as u8,
                }
            })
            .collect();
        let cfg = small_cfg(policy, step, verify, tol);
        let out = sim_outcome(&data, &cfg, &x86_smp(8), &Disk::default());
        // Safety: decodes to input...
        let (bytes, bits, lengths) = out.result.output.as_ref().expect("collected");
        let table = CodeTable::from_lengths(lengths);
        let decoded = decode_exact(bytes, 0, *bits, data.len(), &table).expect("decodes");
        assert_eq!(decoded, data, "case {case}");
        // ...every block exactly once...
        assert_eq!(out.result.blocks.len(), n / 1024, "case {case}");
        // ...and accounting is conservative.
        assert!(out.metrics.wasted_us <= out.metrics.busy_us, "case {case}");
        // If nothing was committed, the output must be optimal (natural path).
        if out.result.committed_version.is_none() {
            let serial = serial_encode(&data).unwrap();
            assert_eq!(out.result.compressed_bits, serial.bit_len, "case {case}");
        }
    });
}

/// Arbitrary (monotone) arrival schedules never deadlock the pipeline.
#[test]
fn prop_arbitrary_schedules_complete() {
    cases(0x5C4ED, 24, |rng, case| {
        let step = rng.random_range(0..4u64);
        let schedule: Vec<u64> = (0..32)
            .map(|_| rng.random_range(0..5_000u64))
            .scan(0u64, |acc, g| {
                *acc += g;
                Some(*acc)
            })
            .collect();
        let data = adversarial_data(32 * 1024);
        let cfg = small_cfg(
            DispatchPolicy::Balanced,
            step,
            VerificationPolicy::Full,
            0.01,
        );
        let out = sim_outcome(&data, &cfg, &x86_smp(4), &Custom(schedule));
        assert_eq!(out.result.blocks.len(), 32, "case {case}");
        let (bytes, bits, lengths) = out.result.output.as_ref().expect("collected");
        let table = CodeTable::from_lengths(lengths);
        let decoded = decode_exact(bytes, 0, *bits, data.len(), &table).expect("decodes");
        assert_eq!(decoded, data, "case {case}");
    });
}
