//! Determinism guarantees the whole methodology rests on: identical seeds
//! must give bitwise-identical golden runs, and identical faults must give
//! identical responses — including property-based checks over fault bits.
//! That a journal survives a kill and resume byte for byte is the kill axis
//! of the differential oracle (`tests/oracle/`), held here.

mod oracle;

use fastfit::prelude::*;
use npb::{mg_app, MgConfig};
use oracle::hold_slice;
use prng::Prng;
use simmpi::ctx::{RankCtx, RankOutput};
use simmpi::op::ReduceOp;
use simmpi::runtime::{run_job, AppFn, JobOutcome, JobSpec};
use std::sync::Arc;

fn noisy_app() -> AppFn {
    Arc::new(|ctx: &mut RankCtx| {
        let mut acc = 0.0f64;
        for _ in 0..4 {
            let x = ctx.rng().next_f64();
            acc += ctx.allreduce_one(x * 3.7, ReduceOp::Sum, ctx.world());
        }
        let mut out = RankOutput::new();
        out.push("acc", acc);
        out
    })
}

#[test]
fn golden_runs_bitwise_identical() {
    let spec = JobSpec {
        nranks: 8,
        ..Default::default()
    };
    let a = run_job(&spec, noisy_app());
    let b = run_job(&spec, noisy_app());
    match (a.outcome, b.outcome) {
        (JobOutcome::Completed { outputs: oa }, JobOutcome::Completed { outputs: ob }) => {
            for (x, y) in oa.iter().zip(&ob) {
                assert_eq!(x.scalars[0].1.to_bits(), y.scalars[0].1.to_bits());
            }
        }
        _ => panic!("must complete"),
    }
}

#[test]
fn different_seeds_differ() {
    let a = run_job(
        &JobSpec {
            nranks: 4,
            seed: 1,
            ..Default::default()
        },
        noisy_app(),
    );
    let b = run_job(
        &JobSpec {
            nranks: 4,
            seed: 2,
            ..Default::default()
        },
        noisy_app(),
    );
    match (a.outcome, b.outcome) {
        (JobOutcome::Completed { outputs: oa }, JobOutcome::Completed { outputs: ob }) => {
            assert_ne!(oa[0].scalars[0].1.to_bits(), ob[0].scalars[0].1.to_bits());
        }
        _ => panic!("must complete"),
    }
}

#[test]
fn mg_campaign_point_results_replay() {
    let w = Workload::new(
        "MG",
        mg_app(MgConfig {
            n: 8,
            cycles: 2,
            sweeps: 1,
        }),
        1e-7,
        4,
    );
    let c = Campaign::prepare(
        w,
        CampaignConfig {
            trials_per_point: 4,
            ..Default::default()
        },
    );
    let a = c.run_all();
    let b = c.run_all();
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(x.hist, y.hist, "point {:?}", x.point);
    }
}

/// Determinism must survive a crash: an MG campaign killed after a few
/// fresh trials and resumed from its journal journals what the
/// uninterrupted run does, bit for bit.
#[test]
fn mg_campaign_killed_and_resumed_is_identical() {
    hold_slice(
        module_path!(),
        "mg_campaign_killed_and_resumed_is_identical",
    );
}

/// The message channel, killed and resumed: the journal — retransmit
/// counts from the resilient transport included — is byte-identical.
#[test]
fn message_channel_journals_byte_identical_across_kill_resume() {
    hold_slice(
        module_path!(),
        "message_channel_journals_byte_identical_across_kill_resume",
    );
}

/// A timeline keys every trigger to the anchor rank's logical op counter,
/// so a killed and resumed campaign journals the same per-trial event
/// counts as the uninterrupted one.
#[test]
fn timeline_journals_byte_identical_across_kill_resume() {
    hold_slice(
        module_path!(),
        "timeline_journals_byte_identical_across_kill_resume",
    );
}

/// Cases per property; case `seed` draws its inputs from
/// `Prng::seed_from_u64(seed)`, and a failure names the seed.
const CASES: u64 = 12;

/// The same (point, bit) pair always classifies identically, whatever
/// the bit — determinism is per-fault, not just per-seed.
#[test]
fn same_fault_same_response() {
    for seed in 0..CASES {
        let bit = Prng::seed_from_u64(seed).gen_range(0..10_000) as u64;
        let w = Workload::new("noisy", noisy_app(), 0.0, 4);
        let c = Campaign::prepare(w, CampaignConfig::default());
        let point = c.points()[0];
        let t1 = c.run_trial(&point, bit);
        let t2 = c.run_trial(&point, bit);
        assert_eq!(t1.disposition, t2.disposition, "seed {seed}");
    }
}

/// Responses always land in the six Table I classes and unfired faults
/// are always SUCCESS (the run is a replay of the golden run).
#[test]
fn response_taxonomy_is_total() {
    for seed in 0..CASES {
        let mut rng = Prng::seed_from_u64(seed);
        let bit = rng.gen_range(0..1_000) as u64;
        let invocation = rng.gen_range(0..8) as u64;
        let w = Workload::new("noisy", noisy_app(), 0.0, 4);
        let c = Campaign::prepare(w, CampaignConfig::default());
        let mut point = c.points()[0];
        point.invocation = invocation;
        let t = c
            .run_trial(&point, bit)
            .disposition
            .outcome()
            .cloned()
            .expect("a classified trial");
        let (resp, fired) = (t.response, t.fired);
        // 4 invocations exist (0..4): beyond that the fault never fires.
        if invocation >= 4 {
            assert!(!fired, "seed {seed}");
            assert_eq!(resp, Response::Success, "seed {seed}");
        }
        assert!(ALL_RESPONSES.contains(&resp), "seed {seed}");
    }
}
