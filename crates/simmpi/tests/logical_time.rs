//! Logical time on the coop carrier: held messages and fail-slow sleeps
//! are timers on the job's clock, which the scheduler jumps instead of
//! waiting out — so a trial costs what its messages cost, and everything
//! a journal records still equals the threaded engine's, which lives on
//! the wall clock.

// The coop engine exists only where the stack switch is implemented.
#![cfg(target_arch = "x86_64")]

use simmpi::arena::JobArena;
use simmpi::control::HangKind;
use simmpi::ctx::{RankCtx, RankOutput};
use simmpi::hook::{CollCall, CollHook, CollKind};
use simmpi::op::ReduceOp;
use simmpi::runtime::{AppFn, JobOutcome, JobResult, JobSpec};
use simmpi::sched::{CoopArena, Engine};
use simmpi::transport::{
    MsgFaultKind, MsgFaultPlan, RankFaultPlan, FAIL_SLOW_MAX_MILLIS, MSG_DELAY,
};
use std::sync::Arc;
use std::time::Duration;

const ENGINES: [Engine; 2] = [Engine::Threads, Engine::Coop];

/// The plan that holds a rank's first send of the armed collective for
/// `MSG_DELAY`.
fn hold_first_send() -> MsgFaultPlan {
    MsgFaultPlan {
        kind: MsgFaultKind::Delay,
        nth_send: 0,
        payload_bit: 0,
        sticky: false,
    }
}

/// Arms both kinds of timer in one job: rank 1's first send of its second
/// allreduce is held for `MSG_DELAY`, and rank 2 stalls for the longest
/// fail-slow delay at its third.
struct TimerHook;

impl CollHook for TimerHook {
    fn before(&self, call: &mut CollCall<'_>) {
        if call.kind != CollKind::Allreduce {
            return;
        }
        if call.rank == 1 && call.invocation == 1 {
            call.msg_fault = Some(hold_first_send());
        }
        if call.rank == 2 && call.invocation == 2 {
            call.rank_fault = Some(RankFaultPlan::FailSlow {
                millis: FAIL_SLOW_MAX_MILLIS,
            });
        }
    }
}

/// Allreduces from one call site (so `invocation` counts them) with
/// per-rank RNG draws and a point-to-point ring in between.
fn timed_app() -> AppFn {
    Arc::new(|ctx: &mut RankCtx| {
        use rand::Rng;
        let n = ctx.size();
        let me = ctx.rank();
        let mut acc = 0.0f64;
        for round in 0..4 {
            let x: f64 = ctx.rng().gen();
            acc += ctx.allreduce_one(x + round as f64, ReduceOp::Sum, ctx.world());
            let mut got = [0.0f64];
            ctx.sendrecv(
                &[acc],
                (me + 1) % n,
                &mut got,
                (me + n - 1) % n,
                7,
                ctx.world(),
            );
            acc += got[0];
        }
        let mut out = RankOutput::new();
        out.push("acc", acc);
        out
    })
}

fn timed_spec(nranks: usize, resilient: bool) -> JobSpec {
    JobSpec {
        nranks,
        resilient_transport: resilient,
        hook: Some(Arc::new(TimerHook)),
        ..Default::default()
    }
}

fn output_bits(res: &JobResult) -> Vec<u64> {
    match &res.outcome {
        JobOutcome::Completed { outputs } => {
            outputs.iter().map(|o| o.scalars[0].1.to_bits()).collect()
        }
        other => panic!("job must complete, got {other:?}"),
    }
}

/// The headline: with a held message and a 45 ms sleeper in it, the coop
/// job is over in less wall time than one `MSG_DELAY`, and nothing but
/// the wall time tells the two engines apart.
#[test]
fn timers_cost_no_wall_time_under_coop_and_change_nothing_else() {
    for resilient in [false, true] {
        let spec = timed_spec(6, resilient);
        let threads = JobArena::with_engine(6, Engine::Threads).run(&spec, timed_app());
        assert_eq!(threads.transport.msg_faults_fired, 1, "the delay fired");
        assert!(
            threads.wall >= Duration::from_millis(FAIL_SLOW_MAX_MILLIS),
            "the threaded engine waits its timers out ({:?})",
            threads.wall
        );

        // Best of three, so a descheduled carrier cannot fail the bound.
        let mut arena = JobArena::with_engine(6, Engine::Coop);
        let runs: Vec<JobResult> = (0..3).map(|_| arena.run(&spec, timed_app())).collect();
        let fastest = runs.iter().map(|r| r.wall).min().unwrap();
        assert!(
            fastest < MSG_DELAY,
            "a coop job waits for no timer: {fastest:?} (resilient {resilient})"
        );
        for coop in &runs {
            assert_eq!(output_bits(coop), output_bits(&threads));
            assert_eq!(coop.transport, threads.transport);
            assert_eq!(coop.ops, threads.ops);
        }
    }
}

/// A rank polling with `test` parks blocked on a miss, so it cannot hold
/// logical time still while the message it waits for sits behind someone
/// else's timer.
#[test]
fn polling_rank_does_not_stop_the_clock() {
    struct DelaySub;
    impl CollHook for DelaySub {
        fn before(&self, call: &mut CollCall<'_>) {
            if call.kind == CollKind::Allreduce && call.rank == 1 {
                call.msg_fault = Some(hold_first_send());
            }
        }
    }
    let app: AppFn = Arc::new(|ctx: &mut RankCtx| {
        let world = ctx.world();
        let pair = ctx.comm_split(world, i32::from(ctx.rank() != 0), 0);
        let mut got = [0.0f64];
        if ctx.rank() == 0 {
            let req = ctx.irecv::<f64>(2, 9, world);
            while !ctx.test(&req) {}
            ctx.wait_into(req, &mut got);
        } else {
            // Rank 2 waits on rank 1's held message, and only then feeds
            // the poller.
            got[0] = ctx.allreduce_one(ctx.rank() as f64, ReduceOp::Sum, pair.unwrap());
            if ctx.rank() == 2 {
                ctx.send(&got, 0, 9, world);
            }
        }
        let mut out = RankOutput::new();
        out.push("got", got[0]);
        out
    });
    let spec = JobSpec {
        nranks: 3,
        timeout: Duration::from_secs(20),
        hook: Some(Arc::new(DelaySub)),
        ..Default::default()
    };
    for engine in ENGINES {
        let res = JobArena::with_engine(3, engine).run(&spec, app.clone());
        assert_eq!(res.transport.msg_faults_fired, 1, "{}", engine.name());
        assert_eq!(
            output_bits(&res),
            vec![3.0f64.to_bits(); 3],
            "{}",
            engine.name()
        );
        if engine == Engine::Coop {
            assert!(
                res.wall < Duration::from_secs(5),
                "no wait for the backstop"
            );
        }
    }
}

fn deadlock_app() -> AppFn {
    Arc::new(|ctx: &mut RankCtx| {
        if ctx.rank() == 0 {
            let mut buf = [0u8; 1];
            ctx.recv_into(&mut buf, 1, 99, ctx.world());
        } else {
            ctx.barrier(ctx.world());
        }
        RankOutput::new()
    })
}

/// One all-stuck round on one carrier is already the proof of a
/// deadlock; the stall quota runs out without a single sleep, however
/// large it is.
#[test]
fn deadlock_is_stalled_with_zero_sleeps() {
    let mut arena = CoopArena::new(3);
    let res = arena.run(
        &JobSpec {
            nranks: 3,
            timeout: Duration::from_secs(60),
            stall_quota: 5000,
            ..Default::default()
        },
        deadlock_app(),
    );
    assert_eq!(
        res.outcome,
        JobOutcome::TimedOut {
            kind: HangKind::Stalled
        }
    );
    assert_eq!(arena.naps(), 0);
}

/// The one pause left: with stall detection off nothing but the deadline
/// can end a deadlocked job, and the carrier naps instead of spinning a
/// core until then.
#[test]
fn stall_detection_off_naps_until_the_deadline() {
    let mut arena = CoopArena::new(3);
    let res = arena.run(
        &JobSpec {
            nranks: 3,
            timeout: Duration::from_millis(60),
            stall_quota: 0,
            ..Default::default()
        },
        deadlock_app(),
    );
    assert_eq!(
        res.outcome,
        JobOutcome::TimedOut {
            kind: HangKind::WallClock
        }
    );
    assert!(arena.naps() >= 10, "napped {} times", arena.naps());
}

/// A rank that spins on `send` never blocks and never yields, so on the
/// coop engine its supervisor never runs, and it has no op budget to
/// burn: its own once-per-1024-ops look at the deadline (coop) or the
/// supervisor's kill flag (threads) must still end it.
#[test]
fn budgetless_send_spinner_is_reaped_by_the_wall_clock() {
    let app: AppFn = Arc::new(|ctx: &mut RankCtx| {
        if ctx.rank() == 0 {
            // Empty payloads: the queue at rank 1 only grows.
            loop {
                ctx.send::<u8>(&[], 1, 7, ctx.world());
            }
        }
        RankOutput::new()
    });
    let spec = JobSpec {
        nranks: 2,
        timeout: Duration::from_millis(50),
        op_budget: None,
        ..Default::default()
    };
    for engine in ENGINES {
        let res = JobArena::with_engine(2, engine).run(&spec, app.clone());
        assert_eq!(
            res.outcome,
            JobOutcome::TimedOut {
                kind: HangKind::WallClock
            },
            "{}",
            engine.name()
        );
        assert!(
            res.wall < Duration::from_secs(5),
            "{}: reaped at the deadline, not later ({:?})",
            engine.name(),
            res.wall
        );
    }
}
