//! End-to-end graceful degradation on the message channel: single-drop
//! and single-bit-flip wire faults that classify INF_LOOP / WRONG_ANS on
//! the plain transport must classify SUCCESS under the resilient
//! transport, with the recovery visible as a retransmit count.

use fastfit::prelude::*;
use simmpi::ctx::{RankCtx, RankOutput};
use simmpi::hook::{CollKind, ParamId};
use simmpi::op::ReduceOp;
use simmpi::runtime::AppFn;
use std::sync::Arc;

/// Non-sticky silent drop of the target rank's first in-scope send
/// (`MsgFaultPlan::from_bit`: kind = 1 % 5 = Drop, nth_send = 0).
const DROP_BIT: u64 = 1;

/// Non-sticky flip of payload bit 62 on the first in-scope send
/// (9920 % 5 = 0 = Flip, 9920 / 160 = 62 — the top exponent bit of the
/// first f64 element, so the corruption is far outside any tolerance).
const FLIP_BIT: u64 = 9920;

fn bcast_workload(nranks: usize) -> Workload {
    let app: AppFn = Arc::new(|ctx: &mut RankCtx| {
        let mut data = [0.0f64; 4];
        if ctx.rank() == 0 {
            for (i, d) in data.iter_mut().enumerate() {
                *d = 2.5 + i as f64;
            }
        }
        ctx.bcast(&mut data, 0, ctx.world());
        let mut out = RankOutput::new();
        out.push("d0", data[0]);
        out.push("dsum", data.iter().sum());
        out
    });
    Workload::new("bcast-msg", app, 1e-15, nranks)
}

fn allreduce_workload(nranks: usize) -> Workload {
    let app: AppFn = Arc::new(|ctx: &mut RankCtx| {
        let x = ctx.allreduce_one(2.5f64 * (ctx.rank() + 1) as f64, ReduceOp::Sum, ctx.world());
        let mut out = RankOutput::new();
        out.push("x", x);
        out
    });
    Workload::new("allreduce-msg", app, 1e-15, nranks)
}

/// One message-channel trial against rank 0's sends in the workload's
/// only collective, on the plain or resilient transport.
fn msg_trial(w: &Workload, kind: CollKind, resilient: bool, bit: u64) -> TrialOutcome {
    let cfg = CampaignConfig {
        fault_channel: FaultChannel::Message,
        resilient,
        ..Default::default()
    };
    let campaign = Campaign::prepare(w.clone(), cfg);
    let site = campaign.profile.sites()[0];
    let point = InjectionPoint {
        site,
        kind,
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

fn assert_recovers(w: &Workload, kind: CollKind, bit: u64, plain_response: Response, label: &str) {
    let plain = msg_trial(w, kind, false, bit);
    assert!(plain.fired, "{label}: plain fault must hit a message");
    assert_eq!(plain.response, plain_response, "{label}: plain transport");
    assert_eq!(
        plain.retransmits, 0,
        "{label}: plain transport never retransmits"
    );

    let resilient = msg_trial(w, kind, true, bit);
    assert!(
        resilient.fired,
        "{label}: resilient fault must hit a message"
    );
    assert_eq!(
        resilient.response,
        Response::Success,
        "{label}: resilient transport must recover"
    );
    assert!(
        resilient.retransmits >= 1,
        "{label}: recovery must be visible as a retransmit"
    );
}

#[test]
fn bcast_single_drop_recovers_under_resilient_transport() {
    // Plain: the dropped tree edge starves a subtree; the receivers burn
    // the deterministic op budget — INF_LOOP, never a wall-clock guess.
    let w = bcast_workload(4);
    assert_recovers(
        &w,
        CollKind::Bcast,
        DROP_BIT,
        Response::InfLoop,
        "bcast drop",
    );
}

#[test]
fn bcast_single_bit_flip_recovers_under_resilient_transport() {
    // Plain: the corrupt payload propagates down the tree — WRONG_ANS.
    // Resilient: the checksum catches it and a retransmit delivers the
    // pristine payload.
    let w = bcast_workload(4);
    assert_recovers(
        &w,
        CollKind::Bcast,
        FLIP_BIT,
        Response::WrongAns,
        "bcast flip",
    );
}

#[test]
fn allreduce_single_drop_recovers_under_resilient_transport() {
    let w = allreduce_workload(4);
    assert_recovers(
        &w,
        CollKind::Allreduce,
        DROP_BIT,
        Response::InfLoop,
        "allreduce drop",
    );
}

#[test]
fn allreduce_single_bit_flip_recovers_under_resilient_transport() {
    let w = allreduce_workload(4);
    assert_recovers(
        &w,
        CollKind::Allreduce,
        FLIP_BIT,
        Response::WrongAns,
        "allreduce flip",
    );
}
