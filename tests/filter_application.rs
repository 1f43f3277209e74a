//! The iterative-filter application (the paper's Fig. 1 example) across
//! the speculation design space.

use tvs_core::{SpeculationSchedule, Tolerance, VerificationPolicy};
use tvs_pipelines::filter::{run_filter_sim, FilterConfig};
use tvs_sre::DispatchPolicy;

fn base(policy: DispatchPolicy) -> FilterConfig {
    FilterConfig {
        policy,
        ..Default::default()
    }
}

#[test]
fn speculation_cuts_filter_latency() {
    let (ns, _) = run_filter_sim(&base(DispatchPolicy::NonSpeculative), 128, 10, 8);
    let (sp, _) = run_filter_sim(&base(DispatchPolicy::Balanced), 128, 10, 8);
    assert!(sp.committed_version.is_some());
    assert!(
        sp.mean_latency() < ns.mean_latency() * 0.8,
        "speculative {} vs non-spec {}",
        sp.mean_latency(),
        ns.mean_latency()
    );
}

#[test]
fn outputs_match_committed_coefficients_in_all_modes() {
    use tvs_pipelines::filter::fir_checksum;
    for policy in [
        DispatchPolicy::NonSpeculative,
        DispatchPolicy::Balanced,
        DispatchPolicy::Aggressive,
        DispatchPolicy::Conservative,
        DispatchPolicy::BalancedTaskCount,
    ] {
        let (res, _) = run_filter_sim(&base(policy), 32, 10, 4);
        assert_eq!(res.blocks.len(), 32);
        for (i, b) in res.blocks.iter().enumerate() {
            // Recompute the block deterministically (same generator as the
            // harness) and compare checksums.
            let block: Vec<u8> = (0..4096)
                .map(|j| (((i * 31 + j) as u32).wrapping_mul(2654435761) >> 24) as u8)
                .collect();
            let expect = fir_checksum(&block, &res.coefficients);
            assert!(
                (b.checksum - expect).abs() <= 1e-9 * expect.abs().max(1.0),
                "{policy:?} block {i}"
            );
        }
    }
}

#[test]
fn earlier_speculation_is_better_despite_rollbacks() {
    // The paper's conclusion: "it is typically worthwhile to begin
    // speculating early; giving speculative tasks a head start maximizes
    // the opportunities for parallelism."
    let early = FilterConfig {
        policy: DispatchPolicy::Balanced,
        schedule: SpeculationSchedule::with_step(1),
        verification: VerificationPolicy::Full,
        ..Default::default()
    };
    let late = FilterConfig {
        policy: DispatchPolicy::Balanced,
        schedule: SpeculationSchedule::with_step(10),
        ..Default::default()
    };
    let (e, em) = run_filter_sim(&early, 128, 10, 8);
    let (l, lm) = run_filter_sim(&late, 128, 10, 8);
    assert!(
        em.rollbacks > 0,
        "early speculation must pay some rollbacks"
    );
    assert_eq!(lm.rollbacks, 0, "iterate 10 of 12 is converged");
    assert!(
        e.mean_latency() < l.mean_latency(),
        "early {} must still beat late {}",
        e.mean_latency(),
        l.mean_latency()
    );
}

#[test]
fn tighter_tolerance_needs_more_convergence() {
    // With mu = 0.5 the iterate halves its distance per step; the L2
    // tolerance decides which iterate first commits.
    let commits = |tol: f64, step: u64| {
        let cfg = FilterConfig {
            policy: DispatchPolicy::Balanced,
            schedule: SpeculationSchedule::with_step(step),
            verification: VerificationPolicy::Optimistic,
            tolerance: Tolerance { margin: tol },
            ..Default::default()
        };
        let (res, _) = run_filter_sim(&cfg, 16, 10, 4);
        res.committed_version.is_some()
    };
    // A loose margin commits an early iterate; a tight one rejects it.
    assert!(commits(0.2, 2));
    assert!(!commits(0.001, 2));
    // The same tight margin accepts a late iterate.
    assert!(commits(0.001, 11));
}

#[test]
fn committed_outputs_stay_within_tolerance_of_natural() {
    // A committed speculation uses the *speculated* iterate, not the final
    // one — that is the tolerance trade. The outputs must agree with the
    // natural run to within the accepted coefficient error (the iterate at
    // step 11 of 12 is within 0.5^11 of the fixed point).
    let (ns, _) = run_filter_sim(&base(DispatchPolicy::NonSpeculative), 16, 10, 4);
    let spec_cfg = FilterConfig {
        policy: DispatchPolicy::Balanced,
        schedule: SpeculationSchedule::with_step(11),
        ..Default::default()
    };
    let (sp, _) = run_filter_sim(&spec_cfg, 16, 10, 4);
    assert!(sp.committed_version.is_some());
    for (a, b) in ns.blocks.iter().zip(&sp.blocks) {
        let scale = a.checksum.abs().max(1.0);
        let rel = (a.checksum - b.checksum).abs() / scale;
        assert!(
            rel < 0.01,
            "committed output must stay within tolerance: {rel}"
        );
        assert!(
            rel > 0.0,
            "speculated coefficients differ from final ones by design"
        );
    }
}

#[test]
fn single_worker_and_many_blocks() {
    let (res, m) = run_filter_sim(&base(DispatchPolicy::Balanced), 200, 2, 1);
    assert_eq!(res.blocks.len(), 200);
    assert!(
        m.utilization() > 0.5,
        "one worker should be busy: {}",
        m.utilization()
    );
}
