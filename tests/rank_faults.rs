//! End-to-end classification on the rank-fault channels: crash-stop
//! must classify deterministically as SEG_FAULT via the fail-stop
//! drain, fail-slow must finish as SUCCESS (a bounded delay is not a
//! hang), and a network partition must burn the op budget on the plain
//! transport (INF_LOOP), heal by retransmit on the resilient transport,
//! and exhaust into MPI_ERR when sticky.

use fastfit::prelude::*;
use simmpi::ctx::{RankCtx, RankOutput};
use simmpi::hook::{CollKind, ParamId};
use simmpi::op::ReduceOp;
use simmpi::runtime::AppFn;
use std::sync::Arc;

/// Non-sticky partition draw (`partition_from_bit`: 0 % 4 != 3, cut
/// draw 0 → cut after rank 1 of the equivalence cut space).
const NON_STICKY_BIT: u64 = 0;

/// Sticky partition draw (3 % 4 == 3): retransmissions are dropped too.
const STICKY_BIT: u64 = 3;

fn allreduce_workload(nranks: usize) -> Workload {
    let app: AppFn = Arc::new(|ctx: &mut RankCtx| {
        let x = ctx.allreduce_one(2.5f64 * (ctx.rank() + 1) as f64, ReduceOp::Sum, ctx.world());
        let mut out = RankOutput::new();
        out.push("x", x);
        out
    });
    Workload::new("allreduce-rank", app, 1e-15, nranks)
}

/// One rank-fault trial against rank 0 in the workload's only
/// collective.
fn rank_trial(w: &Workload, channel: FaultChannel, resilient: bool, bit: u64) -> TrialOutcome {
    let cfg = CampaignConfig {
        fault_channel: channel,
        resilient,
        ..Default::default()
    };
    let campaign = Campaign::prepare(w.clone(), cfg);
    let site = campaign.profile.sites()[0];
    let point = InjectionPoint {
        site,
        kind: CollKind::Allreduce,
        rank: 0,
        invocation: 0,
        param: ParamId::SendBuf,
    };
    campaign
        .run_trial(&point, bit)
        .disposition
        .outcome()
        .cloned()
        .expect("a classified trial")
}

#[test]
fn crash_stop_classifies_seg_fault_deterministically() {
    let w = allreduce_workload(4);
    // The fault bit does not shape a crash (the rank simply dies at the
    // collective entry), so every draw must classify identically: the
    // survivors drain via the fail-stop sweep and report the dead rank.
    for bit in [0, 7, 1000] {
        let t = rank_trial(&w, FaultChannel::CrashStop, false, bit);
        assert!(t.fired, "bit {bit}: crash must fire");
        assert_eq!(
            t.response,
            Response::SegFault,
            "bit {bit}: crash-stop classifies via the fail-stop drain"
        );
        assert_eq!(
            t.fatal_rank,
            Some(0),
            "bit {bit}: the crashed rank is the fatal rank"
        );
    }
}

#[test]
fn fail_slow_finishes_as_success_not_a_stall() {
    let w = allreduce_workload(4);
    // Different bits draw different bounded delays; all of them must
    // complete with the golden answer — a slow rank is not a hang, and
    // the wall-clock supervisor must not misfile it as INF_LOOP.
    for bit in [0, 13, 40] {
        let t = rank_trial(&w, FaultChannel::FailSlow, false, bit);
        assert!(t.fired, "bit {bit}: delay must fire");
        assert_eq!(
            t.response,
            Response::Success,
            "bit {bit}: a bounded delay is SUCCESS, not a stall"
        );
    }
}

#[test]
fn partition_burns_op_budget_on_plain_transport() {
    let w = allreduce_workload(4);
    let t = rank_trial(&w, FaultChannel::Partition, false, NON_STICKY_BIT);
    assert!(t.fired, "partition must drop a crossing message");
    // The cut starves the reduction: waiters burn the deterministic op
    // budget — INF_LOOP, never a wall-clock guess.
    assert_eq!(t.response, Response::InfLoop);
    assert_eq!(t.retransmits, 0, "plain transport never retransmits");
}

#[test]
fn partition_heals_under_resilient_transport() {
    let w = allreduce_workload(4);
    let t = rank_trial(&w, FaultChannel::Partition, true, NON_STICKY_BIT);
    assert!(t.fired, "partition must drop a crossing message");
    assert_eq!(
        t.response,
        Response::Success,
        "a transient cut heals by retransmit"
    );
    assert!(
        t.retransmits >= 1,
        "recovery must be visible as a retransmit"
    );
}

#[test]
fn sticky_partition_exhausts_resilient_retransmits_into_mpi_err() {
    let w = allreduce_workload(4);
    let t = rank_trial(&w, FaultChannel::Partition, true, STICKY_BIT);
    assert!(t.fired, "partition must drop a crossing message");
    // Sticky cuts drop every retransmission too: the resilient transport
    // gives up after its retry budget and surfaces a transport error.
    assert_eq!(
        t.response,
        Response::MpiErr,
        "an unhealable cut is an MPI-reported error, not a hang"
    );
    assert!(t.retransmits >= 1, "the transport must have tried");
}
