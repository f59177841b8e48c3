//! Arena-reuse poisoning: a campaign's arena pool must not leak state
//! from a trial that ended badly into the trial that follows it. After
//! each of the ugly endings — SEG_FAULT (rank panic), INF_LOOP via a
//! dropped message burning the op budget, MPI_ERR_TRANSPORT from an
//! exhausted resilient recovery, and a wall-clock quarantine — the next
//! trial on the *same* arena must classify exactly as the first trial of
//! a freshly prepared campaign does. A soak under CPU saturation repeats
//! the cycle to catch reset bugs that only show under scheduler pressure.

use fastfit::prelude::*;
use fastfit::supervise::{QuarantineReason, TrialDisposition};
use simmpi::ctx::{RankCtx, RankOutput};
use simmpi::hook::{CollKind, ParamId};
use simmpi::op::ReduceOp;
use simmpi::runtime::AppFn;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const NRANKS: usize = 4;

/// App behaviours, selected through a shared atomic so ONE prepared
/// campaign — and therefore one pooled arena — runs poison trials and
/// clean trials back to back on the same rank stacks.
const MODE_CLEAN: usize = 0;
const MODE_SEGFAULT: usize = 1;
const MODE_SLOW: usize = 2;

/// `MsgFaultPlan::from_bit` draws (see `simmpi::transport`):
/// non-sticky Delay of the first in-scope send (3 % 5 = Delay) — the
/// transport holds then delivers, so the trial completes SUCCESS with
/// the fault fired.
const DELAY_BIT: u64 = 3;
/// Non-sticky Drop of the first in-scope send (1 % 5 = Drop): on the
/// plain transport the starved ranks burn the deterministic op budget —
/// INF_LOOP.
const DROP_BIT: u64 = 1;
/// Sticky Drop (141 % 5 = Drop, (141 / 20) % 8 = 7): under the resilient
/// transport every retransmit is re-dropped until the receiver gives up
/// with MPI_ERR_TRANSPORT — a fatal, not a hang.
const STICKY_DROP_BIT: u64 = 141;

fn modal_app(mode: Arc<AtomicUsize>) -> AppFn {
    Arc::new(move |ctx: &mut RankCtx| {
        let m = mode.load(Ordering::SeqCst);
        let x = ctx.allreduce_one(2.5 * (ctx.rank() + 1) as f64, ReduceOp::Sum, ctx.world());
        match m {
            MODE_SEGFAULT => {
                if ctx.rank() == 1 {
                    // A genuine bounds panic (index laundered through
                    // black_box so it survives to runtime) — maps to
                    // FatalKind::SegFault.
                    let v = [0u8; 4];
                    let idx = std::hint::black_box(17usize);
                    let _ = std::hint::black_box(v[idx]);
                }
                ctx.barrier(ctx.world());
            }
            MODE_SLOW => {
                // Logical progress every couple of milliseconds for well
                // over any timeout this test configures: every attempt is
                // wall-clock-killed *while progressing*, which is the
                // retry-then-quarantine path, never the stall detector's.
                for _ in 0..200 {
                    ctx.barrier(ctx.world());
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            _ => {}
        }
        let mut out = RankOutput::new();
        out.push("x", x);
        out
    })
}

struct Rig {
    mode: Arc<AtomicUsize>,
    campaign: Campaign,
    point: InjectionPoint,
}

fn rig() -> Rig {
    let mode = Arc::new(AtomicUsize::new(MODE_CLEAN));
    let w = Workload::new("arena-poison", modal_app(mode.clone()), 1e-12, NRANKS);
    let cfg = CampaignConfig {
        fault_channel: FaultChannel::Message,
        min_timeout: Duration::from_millis(400),
        ..Default::default()
    };
    let mut campaign = Campaign::prepare(w, cfg);
    // `modal_app` changes behaviour between the golden run and the trials,
    // which breaks `Workload::app`'s contract on purpose: a trial whose
    // fault is absorbed ends with the golden run's remainder — correctly —
    // and never gets as far as the mode switch. This rig tests arena
    // reset, not classification, so it runs every trial to its end.
    campaign.pin_replay(false);
    let site = campaign.profile.sites()[0];
    let point = InjectionPoint {
        site,
        kind: CollKind::Allreduce,
        rank: 0,
        invocation: 0,
        param: ParamId::SendBuf,
    };
    Rig {
        mode,
        campaign,
        point,
    }
}

/// Two classification probes on clean app behaviour: a recovered delay
/// (must be SUCCESS) and a plain-transport drop (must be INF_LOOP via
/// the logical op budget). Their full `TrialOutcome`s — response, fired,
/// fatal rank, retransmit count — are the reset-completeness witness.
fn probes(rig: &Rig) -> (TrialOutcome, TrialOutcome) {
    (
        rig.campaign.run_trial_detailed(&rig.point, DELAY_BIT),
        rig.campaign.run_trial_detailed(&rig.point, DROP_BIT),
    )
}

/// The reference: a probe as the *first* trial of a freshly prepared
/// campaign, on an arena pool that has run nothing yet.
fn fresh_probe(bit: u64) -> TrialOutcome {
    let fresh = rig();
    fresh.campaign.run_trial_detailed(&fresh.point, bit)
}

const POISONS: [&str; 4] = [
    "seg_fault",
    "inf_loop_drop",
    "mpi_err_transport",
    "quarantine",
];

/// Run one poison trial on the rig's arena and assert it ended the way
/// the scenario demands (the poison itself must be real, or the reset
/// test proves nothing).
fn apply_poison(rig: &mut Rig, which: &str) {
    match which {
        "seg_fault" => {
            rig.mode.store(MODE_SEGFAULT, Ordering::SeqCst);
            let t = rig.campaign.run_trial_detailed(&rig.point, DELAY_BIT);
            rig.mode.store(MODE_CLEAN, Ordering::SeqCst);
            assert_eq!(t.response, Response::SegFault, "poison trial");
            assert_eq!(t.fatal_rank, Some(1), "poison trial");
        }
        "inf_loop_drop" => {
            let t = rig.campaign.run_trial_detailed(&rig.point, DROP_BIT);
            assert_eq!(t.response, Response::InfLoop, "poison trial");
        }
        "mpi_err_transport" => {
            rig.campaign.cfg.resilient = true;
            let t = rig.campaign.run_trial_detailed(&rig.point, STICKY_DROP_BIT);
            rig.campaign.cfg.resilient = false;
            assert_eq!(t.response, Response::MpiErr, "poison trial");
        }
        "quarantine" => {
            // Shrink the wall backstop far below the slow app's runtime;
            // every escalated attempt is killed mid-progress and the
            // supervisor quarantines. The kills leave ranks mid-app —
            // exactly the residue the arena must clear.
            rig.mode.store(MODE_SLOW, Ordering::SeqCst);
            let saved = (
                rig.campaign.cfg.timeout_mult,
                rig.campaign.cfg.min_timeout,
                rig.campaign.golden_wall,
            );
            rig.campaign.cfg.timeout_mult = 1;
            rig.campaign.cfg.min_timeout = Duration::from_millis(8);
            rig.campaign.golden_wall = Duration::from_millis(1);
            let s = rig.campaign.run_trial_supervised(&rig.point, DELAY_BIT);
            (
                rig.campaign.cfg.timeout_mult,
                rig.campaign.cfg.min_timeout,
                rig.campaign.golden_wall,
            ) = saved;
            rig.mode.store(MODE_CLEAN, Ordering::SeqCst);
            match s.disposition {
                TrialDisposition::Quarantined { reason, attempts } => {
                    assert_eq!(reason, QuarantineReason::WallClock, "poison trial");
                    assert!(attempts >= 2, "quarantine must have retried");
                }
                other => panic!("expected quarantine, got {:?}", other),
            }
        }
        other => panic!("unknown poison {}", other),
    }
}

/// After every poison scenario, classification on the reused arena must
/// equal a freshly prepared campaign's first trial — full `TrialOutcome`
/// equality, not just the response token.
#[test]
fn poisoned_arena_classifies_next_trial_like_fresh_campaign() {
    let baseline = (fresh_probe(DELAY_BIT), fresh_probe(DROP_BIT));
    assert_eq!(baseline.0.response, Response::Success, "fresh delay probe");
    assert!(baseline.0.fired, "fresh delay probe must fire");
    assert_eq!(baseline.1.response, Response::InfLoop, "fresh drop probe");

    let mut arena = rig();
    assert_eq!(probes(&arena), baseline, "unpoisoned arena");
    for which in POISONS {
        apply_poison(&mut arena, which);
        assert_eq!(probes(&arena), baseline, "after {} poison", which);
    }
}

/// Burn every core with spinners while `f` runs (the `tests/supervision.rs`
/// harness): state reset must hold when kills and teardowns race real
/// scheduler pressure, not just on an idle machine.
fn under_cpu_load<T>(f: impl FnOnce() -> T) -> T {
    let stop = Arc::new(AtomicBool::new(false));
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    let spinners: Vec<_> = (0..cores)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut x = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    std::hint::black_box(x);
                }
            })
        })
        .collect();
    let out = f();
    stop.store(true, Ordering::Relaxed);
    for s in spinners {
        s.join().unwrap();
    }
    out
}

/// 20 poison/classify cycles on one arena under CPU saturation. The
/// delay probe alone keeps each iteration cheap; the full two-probe
/// equality is covered above.
#[test]
fn arena_poison_soak_under_cpu_load() {
    let baseline = fresh_probe(DELAY_BIT);
    assert_eq!(baseline.response, Response::Success, "fresh delay probe");

    let mut arena = rig();
    under_cpu_load(|| {
        for i in 0..20 {
            let which = POISONS[i % POISONS.len()];
            apply_poison(&mut arena, which);
            let probe = arena.campaign.run_trial_detailed(&arena.point, DELAY_BIT);
            assert_eq!(probe, baseline, "iteration {} after {} poison", i, which);
        }
    });
}
