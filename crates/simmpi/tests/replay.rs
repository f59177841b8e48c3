//! Replaying a recorded job's collectives: for every collective kind, a
//! job that replays all but its last call computes bit for bit what the
//! recorded job did and sends only that last call's bytes; a log cut by
//! the cap replays only below the cut, on every rank alike; and the taint
//! guard ends a job whose fault reaches a rank still inside its prefix.

use simmpi::arena::JobArena;
use simmpi::comm::WORLD;
use simmpi::ctx::{RankCtx, RankOutput};
use simmpi::hook::{CollCall, CollHook, CollKind, ALL_COLL_KINDS};
use simmpi::op::ReduceOp;
use simmpi::replay::{ReplayLog, ReplayPrefix};
use simmpi::runtime::{AppFn, JobOutcome, JobResult, JobSpec};
use simmpi::sched::Engine;
use std::sync::Arc;
use std::time::Duration;

const ENGINES: [Engine; 2] = [Engine::Threads, Engine::Coop];
const RANKS: [usize; 3] = [3, 5, 8];

/// Elements per rank in the fixed-count collectives.
const K: usize = 3;

/// One call of `kind` with inputs derived from `acc` (so a wrong replayed
/// result would reach every later call), folded back into `acc`. Rooted
/// kinds root at the last rank, so rank 0 is a non-root.
fn call(ctx: &mut RankCtx, kind: CollKind, acc: &mut i64) {
    let w = ctx.world();
    let (me, n) = (ctx.rank(), ctx.size());
    let root = n - 1;
    let seed = *acc % 1000 + me as i64 + 1;
    let fill = |len: usize| -> Vec<i64> { (0..len as i64).map(|i| seed * 7 + i).collect() };
    // A sentinel the collective must overwrite — or, on a rank the kind
    // gives no result, leave alone.
    let blank = |len: usize| vec![-1i64; len];
    let counts: Vec<i32> = (1..=n as i32).collect();
    let displs: Vec<i32> = counts
        .iter()
        .scan(0, |at, c| {
            let d = *at;
            *at += c;
            Some(d)
        })
        .collect();
    let total: usize = counts.iter().map(|&c| c as usize).sum();
    let recv = match kind {
        CollKind::Barrier => {
            ctx.barrier(w);
            Vec::new()
        }
        CollKind::Bcast => {
            let mut buf = if me == root { fill(K) } else { blank(K) };
            ctx.bcast(&mut buf, root, w);
            buf
        }
        CollKind::Reduce => {
            let mut recv = blank(K);
            ctx.reduce(&fill(K), &mut recv, ReduceOp::Sum, root, w);
            recv
        }
        CollKind::Allreduce => {
            let mut recv = blank(K);
            ctx.allreduce(&fill(K), &mut recv, ReduceOp::Max, w);
            recv
        }
        CollKind::Scatter => {
            let send = if me == root { fill(K * n) } else { Vec::new() };
            let mut recv = blank(K);
            ctx.scatter(&send, &mut recv, root, w);
            recv
        }
        CollKind::Gather => {
            let mut recv = blank(if me == root { K * n } else { 0 });
            ctx.gather(&fill(K), &mut recv, root, w);
            recv
        }
        CollKind::Allgather => {
            let mut recv = blank(K * n);
            ctx.allgather(&fill(K), &mut recv, w);
            recv
        }
        CollKind::Alltoall => {
            let mut recv = blank(K * n);
            ctx.alltoall(&fill(K * n), &mut recv, w);
            recv
        }
        CollKind::Alltoallv => {
            // Rank r sends `c + 1` elements to rank c, so it receives
            // `me + 1` from everyone.
            let rc = vec![me as i32 + 1; n];
            let rd: Vec<i32> = (0..n as i32).map(|i| i * (me as i32 + 1)).collect();
            let mut recv = blank((me + 1) * n);
            ctx.alltoallv(&fill(total), &counts, &displs, &mut recv, &rc, &rd, w);
            recv
        }
        CollKind::Scan => {
            let mut recv = blank(K);
            ctx.scan(&fill(K), &mut recv, ReduceOp::Sum, w);
            recv
        }
        CollKind::Exscan => {
            let mut recv = blank(K);
            ctx.exscan(&fill(K), &mut recv, ReduceOp::Sum, w);
            recv
        }
        CollKind::ReduceScatter => {
            let mut recv = blank(K);
            ctx.reduce_scatter_block(&fill(K * n), &mut recv, ReduceOp::Sum, w);
            recv
        }
        CollKind::Scatterv => {
            let send = if me == root { fill(total) } else { Vec::new() };
            let mut recv = blank(me + 1);
            ctx.scatterv(&send, &counts, &displs, &mut recv, root, w);
            recv
        }
        CollKind::Gatherv => {
            let mut recv = blank(if me == root { total } else { 0 });
            ctx.gatherv(&fill(me + 1), &mut recv, &counts, &displs, root, w);
            recv
        }
        CollKind::Allgatherv => {
            let mut recv = blank(total);
            ctx.allgatherv(&fill(me + 1), &mut recv, &counts, &displs, w);
            recv
        }
    };
    for v in recv {
        *acc = acc.wrapping_mul(31).wrapping_add(v);
    }
}

/// Run `kinds` in order; the output is the accumulator after each call.
fn app(kinds: Vec<CollKind>) -> AppFn {
    Arc::new(move |ctx: &mut RankCtx| {
        let mut acc = 17i64;
        let mut out = RankOutput::new();
        for &kind in &kinds {
            call(ctx, kind, &mut acc);
            // Split: an i64 does not survive an f64.
            out.push(format!("{}-hi", kind.name()), (acc >> 32) as f64);
            out.push(format!("{}-lo", kind.name()), (acc & 0xFFFF_FFFF) as f64);
        }
        out
    })
}

fn run(
    engine: Engine,
    n: usize,
    app: AppFn,
    record: bool,
    replay: Option<ReplayPrefix>,
) -> JobResult {
    let spec = JobSpec {
        nranks: n,
        timeout: Duration::from_secs(30),
        record,
        replay,
        ..Default::default()
    };
    JobArena::with_engine(n, engine).run(&spec, app)
}

fn outputs(res: &JobResult) -> &[RankOutput] {
    match &res.outcome {
        JobOutcome::Completed { outputs } => outputs,
        other => panic!("job did not complete: {other:?}"),
    }
}

fn bits(outputs: &[RankOutput]) -> Vec<Vec<u64>> {
    outputs
        .iter()
        .map(|o| o.scalars.iter().map(|(_, v)| v.to_bits()).collect())
        .collect()
}

/// All 15 kinds, rotated so that `last` comes last.
fn kinds_ending_in(last: CollKind) -> Vec<CollKind> {
    let at = ALL_COLL_KINDS.iter().position(|&k| k == last).unwrap();
    let mut kinds = ALL_COLL_KINDS.to_vec();
    kinds.rotate_left(at + 1);
    assert_eq!(*kinds.last().unwrap(), last);
    kinds
}

#[test]
fn replaying_all_but_the_last_call_is_bitwise_the_recorded_job() {
    for engine in ENGINES {
        for n in RANKS {
            for last in ALL_COLL_KINDS {
                let what = format!("{} last, {n} ranks, {}", last.name(), engine.name());
                let kinds = kinds_ending_in(last);
                let calls = kinds.len() as u64;
                let mut recorded = run(engine, n, app(kinds.clone()), true, None);
                let golden = bits(outputs(&recorded));
                let log = Arc::new(recorded.replay_log.take().expect("recorded"));
                assert_eq!(log.entries(), calls * n as u64, "{what}");

                let prefix = ReplayPrefix {
                    log: log.clone(),
                    comm: WORLD.0,
                    seq: calls - 1,
                };
                let replayed = run(engine, n, app(kinds), false, Some(prefix));
                assert!(!replayed.diverged, "{what}");
                assert_eq!(bits(outputs(&replayed)), golden, "{what}");
                assert_eq!(replayed.replayed_calls, (calls - 1) * n as u64, "{what}");
                // Only the last call touched the fabric.
                let alone = run(engine, n, app(vec![last]), false, None);
                assert_eq!(
                    replayed.transport.bytes_sent, alone.transport.bytes_sent,
                    "{what}"
                );
                assert!(
                    recorded.transport.bytes_sent > replayed.transport.bytes_sent,
                    "{what}"
                );
            }
        }
    }
}

/// A non-root of a rooted gathering kind has *no* result in the log (the
/// algorithm hands it none) where the root has one; a barrier hands no
/// rank any.
#[test]
fn the_log_keeps_no_result_apart_from_an_empty_one() {
    let kinds = vec![
        CollKind::Reduce,
        CollKind::Gather,
        CollKind::Gatherv,
        CollKind::Barrier,
        CollKind::Allreduce,
    ];
    let n = 5;
    let recorded = run(Engine::platform(), n, app(kinds), true, None);
    let log = recorded.replay_log.expect("recorded");
    for seq in 0..3 {
        for rank in 0..n - 1 {
            assert_eq!(
                log.result(rank, WORLD.0, seq),
                Some(None),
                "seq {seq} rank {rank}"
            );
        }
        let root = log.result(n - 1, WORLD.0, seq).expect("root entry");
        assert!(root.is_some_and(|r| !r.is_empty()), "seq {seq}");
    }
    for rank in 0..n {
        assert_eq!(
            log.result(rank, WORLD.0, 3),
            Some(None),
            "barrier, rank {rank}"
        );
        let sum = log.result(rank, WORLD.0, 4).expect("allreduce entry");
        assert_eq!(sum.map(<[u8]>::len), Some(K * 8), "rank {rank}");
    }
}

/// A log cut by the cap holds the same sequence numbers on every rank, and
/// a job handed it replays exactly those — past the cut everyone exchanges
/// for real — and still computes the recorded outputs.
#[test]
fn a_truncated_log_replays_only_below_the_cut_on_every_rank() {
    for engine in ENGINES {
        for n in RANKS {
            let kinds = ALL_COLL_KINDS.to_vec();
            let calls = kinds.len() as u64;
            let recorded = run(engine, n, app(kinds.clone()), true, None);
            let golden = bits(outputs(&recorded));
            let mut log: ReplayLog = recorded.replay_log.expect("recorded");
            log.truncate_to(log.bytes() / 2);
            let cut = (0..calls)
                .find(|&s| log.result(0, WORLD.0, s).is_none())
                .expect("half the bytes cannot hold every call");
            assert!(cut > 0 && cut < calls, "cut at {cut}");
            for rank in 0..n {
                for seq in 0..calls {
                    assert_eq!(
                        log.result(rank, WORLD.0, seq).is_some(),
                        seq < cut,
                        "rank {rank} seq {seq}"
                    );
                }
            }
            let prefix = ReplayPrefix {
                log: Arc::new(log),
                comm: WORLD.0,
                seq: calls,
            };
            let replayed = run(engine, n, app(kinds), false, Some(prefix));
            assert!(!replayed.diverged);
            assert_eq!(
                replayed.replayed_calls,
                cut * n as u64,
                "{n} ranks, {}",
                engine.name()
            );
            assert_eq!(bits(outputs(&replayed)), golden);
        }
    }
}

/// A sequence number the seam never saw — `comm_split`'s internal
/// allgather — is a hole: exchanged for real by everyone, with the calls
/// around it and those on the split communicator replayed.
#[test]
fn comm_split_is_exchanged_for_real_between_replayed_calls() {
    let body: AppFn = Arc::new(|ctx: &mut RankCtx| {
        let w = ctx.world();
        let a = ctx.allreduce_one(ctx.rank() as i64 + 1, ReduceOp::Sum, w);
        let half = ctx
            .comm_split(w, (ctx.rank() % 2) as i32, ctx.rank() as i32)
            .expect("a colour");
        let b = ctx.allreduce_one(a + ctx.rank() as i64, ReduceOp::Sum, half);
        let c = ctx.allreduce_one(b, ReduceOp::Max, w);
        let mut out = RankOutput::new();
        out.push("c", c as f64);
        out
    });
    for engine in ENGINES {
        let n = 6;
        let recorded = run(engine, n, body.clone(), true, None);
        let golden = bits(outputs(&recorded));
        let log = Arc::new(recorded.replay_log.expect("recorded"));
        assert!(log.result(0, WORLD.0, 1).is_none(), "the split's allgather");
        // Anchor past everything on the world communicator: world calls 0
        // and 2 replay, the split's allgather (seq 1) does not.
        let on_world = ReplayPrefix {
            log: log.clone(),
            comm: WORLD.0,
            seq: 3,
        };
        let replayed = run(engine, n, body.clone(), false, Some(on_world));
        assert_eq!(replayed.replayed_calls, 2 * n as u64);
        assert_eq!(bits(outputs(&replayed)), golden);
        // Anchor on the split communicator: both colour groups share its
        // code, and each rank replays its own group's call.
        let code = simmpi::comm::handle_for_generation(1).0;
        let on_half = ReplayPrefix {
            log,
            comm: code,
            seq: 1,
        };
        let replayed = run(engine, n, body.clone(), false, Some(on_half));
        assert_eq!(replayed.replayed_calls, n as u64);
        assert_eq!(bits(outputs(&replayed)), golden);
    }
}

/// Flips rank `rank`'s send buffer at its `invocation`-th allreduce.
struct FlipAt {
    rank: usize,
    invocation: u64,
}

impl CollHook for FlipAt {
    fn before(&self, call: &mut CollCall<'_>) {
        if call.kind == CollKind::Allreduce
            && call.rank == self.rank
            && call.invocation == self.invocation
        {
            if let Some(buf) = call.sendbuf.as_deref_mut() {
                buf[0] ^= 1;
                call.corrupted = true;
            }
        }
    }
}

/// The guard: a hook acting at the anchor leaves the replayed prefix
/// alone (and the job computes what the un-replayed one does); a hook
/// acting on a call the job would replay ends it diverged, on both
/// engines, before the replayed result can be used.
#[test]
fn a_fault_inside_the_prefix_ends_the_job_diverged() {
    let body: AppFn = Arc::new(|ctx: &mut RankCtx| {
        let w = ctx.world();
        let mut acc = ctx.rank() as i64;
        for _ in 0..4 {
            acc = ctx.allreduce_one(acc + 1, ReduceOp::Sum, w);
        }
        let mut out = RankOutput::new();
        out.push("acc", acc as f64);
        out
    });
    for engine in ENGINES {
        let n = 4;
        let mut recorded = run(engine, n, body.clone(), true, None);
        let log = Arc::new(recorded.replay_log.take().expect("recorded"));
        let job = |invocation: u64, replay: bool| {
            let spec = JobSpec {
                nranks: n,
                timeout: Duration::from_secs(30),
                hook: Some(Arc::new(FlipAt {
                    rank: 1,
                    invocation,
                })),
                replay: replay.then(|| ReplayPrefix {
                    log: log.clone(),
                    comm: WORLD.0,
                    seq: 2,
                }),
                ..Default::default()
            };
            JobArena::with_engine(n, engine).run(&spec, body.clone())
        };
        // At the anchor (call 2): calls 0 and 1 replay, the fault lands.
        let (with, without) = (job(2, true), job(2, false));
        assert!(!with.diverged);
        assert_eq!(with.replayed_calls, 2 * n as u64);
        assert_eq!(bits(outputs(&with)), bits(outputs(&without)));
        assert_ne!(bits(outputs(&with)), bits(outputs(&recorded)));
        // Inside the prefix (call 1): diverged, and nothing to trust.
        let early = job(1, true);
        assert!(early.diverged, "{}", engine.name());
        assert!(matches!(early.outcome, JobOutcome::TimedOut { .. }));
    }
}
