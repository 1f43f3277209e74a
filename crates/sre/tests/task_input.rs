//! What a task body sees: its slice of the run's input, read in place
//! through `TaskCtx::input`, on either executor — on its first call, on an
//! in-place retry after an injected panic, and as a replica re-running the
//! shared body under `ValidationMode::Replicate`.

use std::ops::Range;
use std::sync::Arc;
use tvs_sre::exec::sim::{self, SimConfig};
use tvs_sre::exec::threaded::{self, ThreadedConfig};
use tvs_sre::task::{expect_payload, payload, TaskSpec};
use tvs_sre::workload::{Completion, InputBlock, SchedCtx, Workload};
use tvs_sre::{
    x86_smp, DispatchPolicy, FaultInjector, FaultKind, FaultPlan, FaultSite, FixedCost,
    Instruments, ReplicatingWorkload, RunMetrics, ValidationMode,
};

const BLOCKS: usize = 24;

/// FNV-1a over `bytes`, with their length folded in.
fn digest(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325 ^ bytes.len() as u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
}

/// One task per block whose body digests the block's slice of the input;
/// records the digest each block's delivered task returned.
struct Digests {
    seen: Vec<Option<u64>>,
}

impl Workload for Digests {
    fn on_input(&mut self, ctx: &mut dyn SchedCtx, block: InputBlock) {
        let bytes: Range<usize> = block.bytes;
        ctx.spawn(TaskSpec::regular(
            "digest",
            0,
            bytes.len(),
            block.index as u64,
            move |task| payload(digest(&task.input()[bytes.clone()])),
        ));
    }

    fn on_complete(&mut self, _: &mut dyn SchedCtx, done: Completion) {
        let slot = &mut self.seen[done.tag as usize];
        assert!(slot.is_none(), "block {} delivered twice", done.tag);
        *slot = Some(expect_payload::<u64>(done.output, "u64"));
    }

    fn is_finished(&self) -> bool {
        self.seen.iter().all(Option::is_some)
    }
}

/// An input of `BLOCKS` blocks of uneven length, and its blocks, due 3 µs
/// apart.
fn input() -> (Vec<u8>, Vec<InputBlock>) {
    let mut rng = tvs_rng::SmallRng::seed_from_u64(0x1A9_0B7);
    let lens: Vec<usize> = (0..BLOCKS).map(|_| rng.random_range(1..700usize)).collect();
    let data = tvs_rng::bytes(&mut rng, lens.iter().sum()..lens.iter().sum::<usize>() + 1);
    let mut at = 0;
    let blocks = lens
        .iter()
        .enumerate()
        .map(|(index, &len)| {
            let bytes = at..at + len;
            at += len;
            InputBlock {
                index,
                arrival: 3 * index as u64,
                bytes,
            }
        })
        .collect();
    (data, blocks)
}

/// `wl` on the simulator and on two threads, each under instruments
/// `ins()`.
/// Either retries a panicking body up to 9 times: no injected run of
/// panics fails it.
fn on_both<W: Workload + Send>(
    wl: impl Fn() -> W,
    mut ins: impl FnMut() -> Instruments,
    data: &[u8],
    blocks: &[InputBlock],
) -> [(W, RunMetrics); 2] {
    let policy = DispatchPolicy::NonSpeculative;
    let sim_cfg = SimConfig {
        max_attempts: 10,
        ..SimConfig::new(x86_smp(4))
    };
    let cost = FixedCost(10);
    let on_sim = sim::run(wl(), &sim_cfg, policy, &cost, data, blocks.to_vec(), &ins());
    let tcfg = ThreadedConfig {
        max_attempts: 10,
        ..ThreadedConfig::new(2)
    };
    let on_threads = threaded::run(wl(), &tcfg, policy, data, blocks.to_vec(), &ins());
    [
        on_sim.expect("the simulated run completes"),
        on_threads.expect("the threaded run completes"),
    ]
}

fn assert_saw_the_input(w: &Digests, data: &[u8], blocks: &[InputBlock], what: &str) {
    for b in blocks {
        let want = digest(&data[b.bytes.clone()]);
        assert_eq!(w.seen[b.index], Some(want), "{what}: block {}", b.index);
    }
}

fn digests() -> Digests {
    Digests {
        seen: vec![None; BLOCKS],
    }
}

#[test]
fn a_body_reads_its_slice_of_the_input_on_its_first_call() {
    let (data, blocks) = input();
    for (executor, (w, m)) in
        ["sim", "threads"]
            .into_iter()
            .zip(on_both(digests, Instruments::default, &data, &blocks))
    {
        assert_eq!(m.task_retries, 0, "{executor}");
        assert_saw_the_input(&w, &data, &blocks, executor);
    }
}

#[test]
fn a_retried_body_reads_the_same_bytes() {
    let (data, blocks) = input();
    // About every third attempt panics, eight in all: the retries fall on
    // blocks across the whole input, not only on the first ones.
    let injectors: Vec<FaultInjector> = (0..2)
        .map(|_| {
            let plan = FaultPlan::new(11)
                .with_rule(FaultSite::TaskBody, FaultKind::PanicTask, 0.3)
                .with_max_faults(8);
            FaultInjector::new(plan)
        })
        .collect();
    let mut next = injectors.iter();
    let panics = || Instruments::faulty(next.next().expect("one per executor").clone());
    let runs = on_both(digests, panics, &data, &blocks);
    for ((executor, (w, m)), faults) in ["sim", "threads"].into_iter().zip(runs).zip(&injectors) {
        assert!(faults.injected() > 0, "{executor}: panics were injected");
        assert_eq!(
            m.task_retries,
            faults.injected(),
            "{executor}: every injected panic retried"
        );
        assert_saw_the_input(&w, &data, &blocks, executor);
    }
}

#[test]
fn a_replica_reads_the_same_bytes_as_its_primary() {
    let (data, blocks) = input();
    let replicated = || {
        let mode = ValidationMode::Replicate { sample_rate: 1.0 };
        let digest_fn =
            |_: &'static str, out: &dyn std::any::Any| out.downcast_ref::<u64>().copied();
        ReplicatingWorkload::new(digests(), mode, 5, Arc::new(digest_fn))
    };
    for (executor, (w, m)) in ["sim", "threads"].into_iter().zip(on_both(
        replicated,
        Instruments::default,
        &data,
        &blocks,
    )) {
        assert_eq!(m.replica_dispatches, BLOCKS as u64, "{executor}");
        let stats = w.stats();
        assert_eq!(
            (stats.replica_matches, stats.sdc_detected),
            (BLOCKS as u64, 0),
            "{executor}: every replica digested what its primary did"
        );
        assert_saw_the_input(w.inner(), &data, &blocks, executor);
    }
}
