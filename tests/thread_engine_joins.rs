//! The thread-per-rank engine keeps nothing between jobs: when
//! `JobArena::run` returns, every rank thread it spawned has been joined,
//! however the job ended. One test, alone in its binary, so no sibling
//! test's rank threads share the process.

#![cfg(target_os = "linux")]

use simmpi::arena::JobArena;
use simmpi::control::{FatalKind, HangKind};
use simmpi::ctx::{RankCtx, RankOutput};
use simmpi::op::ReduceOp;
use simmpi::runtime::{AppFn, JobOutcome, JobSpec};
use simmpi::sched::Engine;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Names (`comm`) of this process's threads that are still rank threads.
fn rank_threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("listing /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .filter(|comm| comm.starts_with("simmpi-rank-"))
        .collect()
}

/// `join` returns when the kernel clears the thread's tid word, a moment
/// before it unlinks the task from `/proc`; allow for that moment, and no
/// more.
fn assert_no_rank_threads(after: &str) {
    let deadline = Instant::now() + Duration::from_millis(200);
    loop {
        let left = rank_threads();
        if left.is_empty() {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "rank threads left after the {after} job: {left:?}"
        );
        std::thread::yield_now();
    }
}

fn app(body: impl Fn(&mut RankCtx) + Send + Sync + 'static) -> AppFn {
    Arc::new(move |ctx: &mut RankCtx| {
        body(ctx);
        RankOutput::new()
    })
}

#[test]
fn threads_engine_leaves_no_rank_thread_behind() {
    const N: usize = 4;
    let spec = |timeout: Duration| JobSpec {
        nranks: N,
        timeout,
        ..Default::default()
    };
    let mut arena = JobArena::with_engine(N, Engine::Threads);
    assert_no_rank_threads("no");

    let res = arena.run(
        &spec(Duration::from_secs(30)),
        app(|ctx| {
            ctx.allreduce_one(1.0f64, ReduceOp::Sum, ctx.world());
        }),
    );
    assert!(matches!(res.outcome, JobOutcome::Completed { .. }));
    assert_no_rank_threads("completed");

    // One rank aborts; the others block on a barrier it never joins.
    let res = arena.run(
        &spec(Duration::from_secs(30)),
        app(|ctx| {
            if ctx.rank() == 2 {
                ctx.abort(3, "die");
            }
            ctx.barrier(ctx.world());
        }),
    );
    assert!(matches!(
        res.outcome,
        JobOutcome::Fatal {
            rank: 2,
            kind: FatalKind::AppAbort { .. }
        }
    ));
    assert_no_rank_threads("fatal");

    // Rank 0 waits for a message nobody sends: a proven deadlock.
    let res = arena.run(
        &spec(Duration::from_secs(30)),
        app(|ctx| {
            if ctx.rank() == 0 {
                let mut buf = [0u8; 1];
                ctx.recv_into(&mut buf, 1, 99, ctx.world());
            } else {
                ctx.barrier(ctx.world());
            }
        }),
    );
    assert_eq!(
        res.outcome,
        JobOutcome::TimedOut {
            kind: HangKind::Stalled
        }
    );
    assert_no_rank_threads("stalled");

    // Logical progress forever: only the wall-clock backstop ends it.
    let res = arena.run(
        &spec(Duration::from_millis(100)),
        app(|ctx| loop {
            ctx.barrier(ctx.world());
            std::thread::sleep(Duration::from_millis(1));
        }),
    );
    assert_eq!(
        res.outcome,
        JobOutcome::TimedOut {
            kind: HangKind::WallClock
        }
    );
    assert_no_rank_threads("wall-clock-killed");
    assert_eq!(arena.jobs_run(), 4);
}
