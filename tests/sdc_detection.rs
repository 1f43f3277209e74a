//! Replication-based validation end-to-end: silent data corruptions
//! injected into encode outputs (`FaultSite::TaskOutput`) must be
//! *detected* — not merely survived — under `ValidationMode::Replicate`,
//! on both executors, and the recovered output must stay byte-identical
//! to a clean encode of the input.
//!
//! The corruptions never panic, never stall and keep the bit count
//! intact, so retry and the tolerance checks are both blind to them:
//! the final test demonstrates that `Tolerance`-only validation ships a
//! corrupted stream for at least one seed.

use tvs_core::ValidationMode;
use tvs_huffman::{decode_exact, CodeTable};
use tvs_iosim::Uniform;
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::runner::{run_huffman, HuffmanRun, RunOutcome};
use tvs_sre::{
    x86_smp, DispatchPolicy, FaultInjector, FaultPlan, FaultSite, Instruments, ReplicaStats,
};

/// `run` under the silent-corruption plan behind `faults` (which the
/// caller keeps, to read the injection counts back): the outcome and the
/// replication plane's counters.
fn sdc(run: HuffmanRun, faults: &FaultInjector) -> (RunOutcome, ReplicaStats) {
    let instruments = Instruments::faulty(faults.clone());
    let report = run_huffman(&HuffmanRun { instruments, ..run }).expect("replicated run completes");
    (report.end.into_outcome(), report.replica)
}

const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

/// Stationary text with a realistically rich alphabet, so speculation
/// commits cleanly and corrupted encodes land in the committed stream.
fn stationary(n: usize) -> Vec<u8> {
    let mut pattern = b"etaoin shrdlu ".repeat(10);
    pattern.extend_from_slice(b"qzxjkvbw,.!?");
    (0..n).map(|i| pattern[i % pattern.len()]).collect()
}

fn cfg(validation: ValidationMode) -> HuffmanConfig {
    let mut c = HuffmanConfig::disk_x86(DispatchPolicy::Balanced);
    c.block_bytes = 1024;
    c.reduce_ratio = 4;
    c.offset_fanout = 4;
    c.schedule = tvs_core::SpeculationSchedule::with_step(1);
    c.verification = tvs_core::VerificationPolicy::Full;
    c.collect_output = true;
    c.validation = validation;
    c
}

/// `Ok(())` when the collected stream decodes byte-identically to
/// `input`; `Err` describes the divergence (wrong bytes or a stream the
/// decoder rejects outright).
fn decoded_matches(out: &RunOutcome, input: &[u8]) -> Result<(), String> {
    let (bytes, bits, lengths) = out.result.output.as_ref().expect("output collected");
    let table = CodeTable::from_lengths(lengths);
    match decode_exact(bytes, 0, *bits, input.len(), &table) {
        Ok(decoded) if decoded == input => Ok(()),
        Ok(_) => Err("stream decodes to different bytes".into()),
        Err(e) => Err(format!("stream no longer decodes: {e:?}")),
    }
}

const REPLICATE: ValidationMode = ValidationMode::Replicate { sample_rate: 1.0 };

#[test]
fn sim_detects_injected_corruption_and_recovers() {
    let data = stationary(32 * 1024);
    let arrival = Uniform {
        gap_us: 2,
        start_us: 0,
    };
    let c = cfg(REPLICATE);
    let mut total_injected = 0;
    for seed in SEEDS {
        let faults = FaultInjector::new(FaultPlan::sdc(seed));
        let (out, stats) = sdc(HuffmanRun::sim(&data, &c, &x86_smp(4), &arrival), &faults);
        let injected = faults.injected_at(FaultSite::TaskOutput);
        total_injected += injected;
        decoded_matches(&out, &data)
            .unwrap_or_else(|e| panic!("seed {seed}: corrupted output shipped: {e}"));
        if injected > 0 {
            assert!(
                stats.sdc_detected >= 1,
                "seed {seed}: {injected} corruptions injected, none detected: {stats:?}"
            );
        }
        assert!(
            stats.replicas_spawned > 0,
            "seed {seed}: replication never engaged"
        );
    }
    assert!(
        total_injected > 0,
        "the seed set must actually inject corruptions"
    );
}

#[test]
fn threaded_detects_injected_corruption_and_recovers() {
    let data = stationary(32 * 1024);
    let arrival = Uniform {
        gap_us: 1,
        start_us: 0,
    };
    let c = cfg(REPLICATE);
    let mut total_injected = 0;
    for seed in SEEDS {
        let faults = FaultInjector::new(FaultPlan::sdc(seed));
        let run = HuffmanRun::threaded(&data, &c, 4, &arrival, 1000);
        let (out, stats) = sdc(run, &faults);
        let injected = faults.injected_at(FaultSite::TaskOutput);
        total_injected += injected;
        decoded_matches(&out, &data)
            .unwrap_or_else(|e| panic!("seed {seed}: corrupted output shipped: {e}"));
        if injected > 0 {
            assert!(
                stats.sdc_detected >= 1,
                "seed {seed}: {injected} corruptions injected, none detected: {stats:?}"
            );
        }
    }
    assert!(
        total_injected > 0,
        "the seed set must actually inject corruptions"
    );
}

#[test]
fn sim_replicated_runs_are_deterministic() {
    let data = stationary(32 * 1024);
    let arrival = Uniform {
        gap_us: 2,
        start_us: 0,
    };
    let c = cfg(REPLICATE);
    let run = |seed: u64| {
        let faults = FaultInjector::new(FaultPlan::sdc(seed));
        sdc(HuffmanRun::sim(&data, &c, &x86_smp(4), &arrival), &faults)
    };
    let (a, sa) = run(13);
    let (b, sb) = run(13);
    assert_eq!(a.metrics, b.metrics, "replicated sim runs must reproduce");
    assert_eq!(a.result.compressed_bits, b.result.compressed_bits);
    assert_eq!(sa, sb, "replica vote outcomes must reproduce");
}

#[test]
fn tolerance_only_misses_silent_corruption() {
    // The negative control: the paper's tolerance checks judge *tree
    // quality*, not encode outputs, so a bit flipped after a successful
    // encode sails straight through. At least one seed must ship a
    // stream that no longer decodes to the input.
    let data = stationary(32 * 1024);
    let arrival = Uniform {
        gap_us: 2,
        start_us: 0,
    };
    let mut missed = 0;
    for seed in SEEDS {
        let faults = FaultInjector::new(FaultPlan::sdc(seed));
        let c = cfg(ValidationMode::Tolerance);
        let (out, stats) = sdc(HuffmanRun::sim(&data, &c, &x86_smp(4), &arrival), &faults);
        assert_eq!(
            stats.replicas_spawned, 0,
            "tolerance mode must not replicate"
        );
        assert_eq!(stats.sdc_detected, 0, "tolerance mode cannot detect SDC");
        if faults.injected_at(FaultSite::TaskOutput) > 0 && decoded_matches(&out, &data).is_err() {
            missed += 1;
        }
    }
    assert!(
        missed >= 1,
        "tolerance-only validation must demonstrably miss at least one corruption"
    );
}
