//! Cross-crate tests that specific fault classes produce the specific
//! Table I responses the paper's methodology predicts.

use fastfit::fault::{FaultSpec, InjectorHook};
use fastfit::prelude::*;
use simmpi::ctx::{RankCtx, RankOutput};
use simmpi::hook::{CallSite, CollKind, ParamId};
use simmpi::op::ReduceOp;
use simmpi::runtime::{run_job, AppFn, JobSpec};
use std::sync::Arc;
use std::time::Duration;

/// Workload with one allreduce; the site is discovered from the profile.
fn one_allreduce(nranks: usize) -> (Workload, CallSite) {
    let app: AppFn = Arc::new(|ctx: &mut RankCtx| {
        let x = ctx.allreduce_one(2.5f64 * (ctx.rank() + 1) as f64, ReduceOp::Sum, ctx.world());
        let mut out = RankOutput::new();
        out.push("x", x);
        out
    });
    let w = Workload::new("one", app, 1e-15, nranks);
    let probe = Campaign::prepare(w.clone(), CampaignConfig::default());
    let site = probe.profile.sites()[0];
    (w, site)
}

fn trial(w: &Workload, site: CallSite, param: ParamId, bit: u64) -> Response {
    let campaign = Campaign::prepare(w.clone(), CampaignConfig::default());
    let point = InjectionPoint {
        site,
        kind: CollKind::Allreduce,
        rank: 0,
        invocation: 0,
        param,
    };
    campaign
        .run_trial(&point, bit)
        .disposition
        .response()
        .expect("a classified trial")
}

#[test]
fn datatype_bit_flip_is_mpi_err() {
    let (w, site) = one_allreduce(4);
    for bit in [0u64, 5, 13, 21, 31] {
        assert_eq!(trial(&w, site, ParamId::Datatype, bit), Response::MpiErr);
    }
}

#[test]
fn op_bit_flip_is_mpi_err() {
    let (w, site) = one_allreduce(4);
    assert_eq!(trial(&w, site, ParamId::Op, 3), Response::MpiErr);
}

#[test]
fn comm_bit_flip_is_mpi_err() {
    let (w, site) = one_allreduce(4);
    for bit in [1u64, 8, 16, 30] {
        assert_eq!(trial(&w, site, ParamId::Comm, bit), Response::MpiErr);
    }
}

#[test]
fn count_high_bit_is_segfault_low_bit_is_protocol_error() {
    let (w, site) = one_allreduce(4);
    // Bit 20: count = 1 + 2^20 elements = ~8 MB read from an 8-byte
    // buffer: far past the page slack.
    assert_eq!(trial(&w, site, ParamId::Count, 20), Response::SegFault);
    // Bit 1: count = 3: reads 24 bytes from an 8-byte buffer — within the
    // page, so the library sends padded garbage and the peers see a size
    // mismatch (truncation-style MPI error).
    assert_eq!(trial(&w, site, ParamId::Count, 1), Response::MpiErr);
    // Bit 31: count goes negative: validation rejects it.
    assert_eq!(trial(&w, site, ParamId::Count, 31), Response::MpiErr);
}

#[test]
fn sendbuf_exponent_flip_is_wrong_answer_and_denormal_flip_is_success() {
    let (w, site) = one_allreduce(4);
    // Bit 62 (top exponent bit) of 2.5 changes the value massively.
    assert_eq!(trial(&w, site, ParamId::SendBuf, 62), Response::WrongAns);
    // Bit 0 (lowest mantissa bit) shifts the global sum by ~2e-17
    // relative — far inside the 1e-15 comparison tolerance, so the run
    // counts as SUCCESS: low-order data corruption is harmless.
    assert_eq!(trial(&w, site, ParamId::SendBuf, 0), Response::Success);
}

#[test]
fn recvbuf_flip_is_overwritten_success() {
    let (w, site) = one_allreduce(4);
    for bit in [0u64, 17, 40, 63] {
        assert_eq!(trial(&w, site, ParamId::RecvBuf, bit), Response::Success);
    }
}

#[test]
fn app_abort_propagates_from_error_handling() {
    // A workload whose error-handling collective detects the corruption.
    let app: AppFn = Arc::new(|ctx: &mut RankCtx| {
        let flag = 1i32;
        let ok = ctx.errhdl(|ctx| ctx.allreduce_one(flag, ReduceOp::Min, ctx.world()));
        if ok != 1 {
            ctx.abort(9, "corrupted flag detected");
        }
        RankOutput::new()
    });
    let w = Workload::new("flag", app, 0.0, 4);
    let campaign = Campaign::prepare(w, CampaignConfig::default());
    let point = campaign.points()[0];
    assert_eq!(point.param, ParamId::SendBuf);
    // Flip bit 0 of the i32 flag 1 -> 0: Min becomes 0 -> abort.
    let t = campaign
        .run_trial(&point, 0)
        .disposition
        .outcome()
        .cloned()
        .expect("a classified trial");
    let (resp, fired) = (t.response, t.fired);
    assert!(fired);
    assert_eq!(resp, Response::AppDetected);
}

#[test]
fn unfired_fault_is_success() {
    let (w, site) = one_allreduce(4);
    let campaign = Campaign::prepare(w, CampaignConfig::default());
    // Invocation 5 never happens (the site runs once).
    let point = InjectionPoint {
        site,
        kind: CollKind::Allreduce,
        rank: 0,
        invocation: 5,
        param: ParamId::SendBuf,
    };
    let t = campaign
        .run_trial(&point, 7)
        .disposition
        .outcome()
        .cloned()
        .expect("a classified trial");
    let (resp, fired) = (t.response, t.fired);
    assert!(!fired);
    assert_eq!(resp, Response::Success);
}

#[test]
fn root_divergence_can_deadlock() {
    // Bcast with a corrupted root on one rank: the trees disagree; the job
    // must end as INF_LOOP or an MPI error — never SUCCESS.
    let app: AppFn = Arc::new(|ctx: &mut RankCtx| {
        let mut data = [1.0f64; 4];
        ctx.bcast(&mut data, 0, ctx.world());
        let mut out = RankOutput::new();
        out.push("d", data[0]);
        out
    });
    let w = Workload::new("bc", app, 1e-15, 4);
    let campaign = Campaign::prepare(w, CampaignConfig::default());
    let site = campaign.profile.sites()[0];
    let mut saw_non_success = 0;
    for bit in [0u64, 1] {
        // root 0 -> 1 or 2 on rank 0 only.
        let point = InjectionPoint {
            site,
            kind: CollKind::Bcast,
            rank: 0,
            invocation: 0,
            param: ParamId::Root,
        };
        let t = campaign
            .run_trial(&point, bit)
            .disposition
            .outcome()
            .cloned()
            .expect("a classified trial");
        let (resp, fired) = (t.response, t.fired);
        assert!(fired);
        if resp != Response::Success {
            saw_non_success += 1;
        }
        assert!(
            matches!(
                resp,
                Response::InfLoop | Response::MpiErr | Response::WrongAns | Response::SegFault
            ),
            "unexpected response {resp}"
        );
    }
    assert!(saw_non_success > 0);
}

#[test]
fn injected_runs_share_the_golden_seed() {
    // The injected run must replay the golden run exactly when the fault
    // does not fire: otherwise WRONG_ANS would be noise, not signal.
    let app: AppFn = Arc::new(|ctx: &mut RankCtx| {
        let r = ctx.rng().next_f64();
        let x = ctx.allreduce_one(r, ReduceOp::Sum, ctx.world());
        let mut out = RankOutput::new();
        out.push("x", x);
        out
    });
    let w = Workload::new("seeded", app, 0.0, 4);
    let campaign = Campaign::prepare(w.clone(), CampaignConfig::default());
    let hook = Arc::new(InjectorHook::new(FaultSpec {
        point: InjectionPoint {
            site: CallSite {
                file: "nowhere.rs",
                line: 1,
            },
            kind: CollKind::Allreduce,
            rank: 0,
            invocation: 0,
            param: ParamId::SendBuf,
        },
        bit: 0,
        channel: FaultChannel::Param,
        timeline: FaultTimeline::default(),
    }));
    let spec = JobSpec {
        nranks: 4,
        seed: w.seed,
        timeout: Duration::from_secs(10),
        record: false,
        hook: Some(hook),
        ..Default::default()
    };
    let result = run_job(&spec, w.app.clone());
    let resp = classify(&result.outcome, &campaign.golden, 0.0);
    assert_eq!(resp, Response::Success, "exact replay under tol = 0");
}
