//! End-to-end classification under fault timelines: burst drops must
//! heal by retransmit on the resilient transport and starve the plain
//! one, a cascade must end in the fail-stop drain, and a transient
//! partition must measurably recover (SUCCESS) where the single-draw
//! sticky partition does not — the recovery-semantics claim the
//! timeline extension exists to test.

use fastfit::prelude::*;
use simmpi::ctx::{RankCtx, RankOutput};
use simmpi::hook::{CollKind, ParamId};
use simmpi::op::ReduceOp;
use simmpi::runtime::AppFn;
use std::sync::Arc;

/// `bit = 1` decodes `MsgFaultPlan` kind 1: a non-sticky Drop of the
/// target rank's first send.
const DROP_BIT: u64 = 1;

/// `bit = 3` decodes a *sticky* partition under the single-draw model
/// (`partition_from_bit`: 3 % 4 == 3). Heal timelines force sticky off —
/// that override is exactly what the recovery contrast below measures.
const STICKY_BIT: u64 = 3;

/// Five allreduce invocations at one site: enough logical headroom for
/// every committed timeline (bursts, cascade deltas, heal windows) to
/// play out on the anchor rank's collective-entry clock.
fn looped_workload(nranks: usize) -> Workload {
    let app: AppFn = Arc::new(|ctx: &mut RankCtx| {
        let mut acc = 0.0f64;
        for i in 0..5 {
            acc += ctx.allreduce_one(
                (ctx.rank() + 1) as f64 * (i + 1) as f64,
                ReduceOp::Sum,
                ctx.world(),
            );
        }
        let mut out = RankOutput::new();
        out.push("acc", acc);
        out
    });
    Workload::new("looped-allreduce", app, 1e-15, nranks)
}

/// One timeline trial anchored at rank 0's first invocation.
fn timeline_trial(w: &Workload, token: &str, resilient: bool, bit: u64) -> TrialOutcome {
    let mut cfg = CampaignConfig {
        resilient,
        ..Default::default()
    };
    cfg.set_timeline(FaultTimeline::parse(token).unwrap());
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
fn burst_drop_heals_under_resilient_transport() {
    let w = looped_workload(4);
    let t = timeline_trial(&w, "burst:1", true, DROP_BIT);
    assert!(t.fired, "the drop must hit a message");
    assert_eq!(t.events_fired, 1, "one scheduled event, one firing");
    assert_eq!(t.events_lifted, 0, "bursts have no lift point");
    assert_eq!(
        t.response,
        Response::Success,
        "a dropped message heals by retransmit"
    );
    assert!(t.retransmits >= 1, "recovery must be visible");
}

#[test]
fn burst_drop_starves_the_plain_transport() {
    let w = looped_workload(4);
    let t = timeline_trial(&w, "burst:1", false, DROP_BIT);
    assert!(t.fired, "the drop must hit a message");
    assert_eq!(
        t.response,
        Response::InfLoop,
        "without retransmission the reduction waits forever"
    );
    assert_eq!(t.retransmits, 0, "plain transport never retransmits");
}

/// A width-4 burst arms four plans on consecutive anchor entries (kinds
/// Drop/Duplicate/Delay/Truncate from `DROP_BIT + i`). Whatever the mix
/// classifies as, it must classify *identically* on every run, and the
/// per-event count must report every plan the transport applied.
#[test]
fn wide_burst_counts_events_and_replays_identically() {
    let w = looped_workload(4);
    let a = timeline_trial(&w, "burst:4", true, DROP_BIT);
    let b = timeline_trial(&w, "burst:4", true, DROP_BIT);
    assert!(a.fired);
    assert!(a.events_fired >= 2, "a wide burst is not a single event");
    assert_eq!(a.response, b.response, "replay must be bit-identical");
    assert_eq!(a.events_fired, b.events_fired);
    assert_eq!(a.retransmits, b.retransmits);
}

#[test]
fn cascade_ends_in_the_fail_stop_drain() {
    let w = looped_workload(4);
    let t = timeline_trial(&w, "cascade:2", false, 9);
    assert!(t.fired);
    assert_eq!(
        t.events_fired, 2,
        "the slow-down and the crash are separate events"
    );
    assert_eq!(
        t.response,
        Response::SegFault,
        "a fail-slow rank that later crash-stops drains like any crash"
    );
    assert_eq!(t.fatal_rank, Some(0), "the anchor rank is the casualty");
}

/// The recovery-semantics acceptance pair: the *same sticky draw* that
/// kills a single-draw partition campaign (retransmit exhaustion →
/// MPI_ERR) must classify SUCCESS when a heal timeline bounds the cut,
/// because the resilient transport outlives the window.
#[test]
fn transient_partition_recovers_where_sticky_does_not() {
    let w = looped_workload(4);

    let healed = timeline_trial(&w, "heal:2", true, STICKY_BIT);
    assert!(healed.fired, "the cut must drop a crossing message");
    assert_eq!(healed.events_lifted, 1, "the heal must be observed");
    assert_eq!(
        healed.response,
        Response::Success,
        "a bounded cut heals: retransmits outlive the window"
    );
    assert!(healed.retransmits >= 1);

    let cfg = CampaignConfig {
        fault_channel: FaultChannel::Partition,
        resilient: true,
        ..Default::default()
    };
    let campaign = Campaign::prepare(w.clone(), cfg);
    let point = InjectionPoint {
        site: campaign.profile.sites()[0],
        kind: CollKind::Allreduce,
        rank: 0,
        invocation: 0,
        param: ParamId::SendBuf,
    };
    let sticky = campaign
        .run_trial(&point, STICKY_BIT)
        .disposition
        .outcome()
        .cloned()
        .expect("a classified trial");
    assert_eq!(
        sticky.response,
        Response::MpiErr,
        "the unbounded cut exhausts the same transport"
    );
}

#[test]
fn transient_partition_still_starves_the_plain_transport() {
    let w = looped_workload(4);
    let t = timeline_trial(&w, "heal:2", false, STICKY_BIT);
    assert!(t.fired);
    assert_eq!(
        t.response,
        Response::InfLoop,
        "messages lost before the heal are gone for good without retransmission"
    );
}
