//! A job no fault can reach completes its data-movement collectives by
//! rendezvous (DESIGN.md §12); the same job with a hook that does nothing
//! sends every message. The two must be indistinguishable: outcome,
//! output bits, records, ops, replay-log entries and payload bytes moved,
//! for every data-movement kind, on calls whose receives all get the
//! bytes they expect and on calls where one would not, with a member that
//! aborts and with a member that never arrives.

// The rendezvous lives on the coop engine, whose stack switch exists
// only here.
#![cfg(target_arch = "x86_64")]

use simmpi::arena::JobArena;
use simmpi::ctx::{RankCtx, RankOutput};
use simmpi::hook::{CollCall, CollHook};
use simmpi::op::ReduceOp;
use simmpi::runtime::{AppFn, JobOutcome, JobResult, JobSpec};
use simmpi::sched::{CoopArena, Engine};
use std::sync::Arc;

/// A hook that looks at every call and changes nothing: its job takes the
/// message path.
struct Bystander;

impl CollHook for Bystander {
    fn before(&self, _call: &mut CollCall<'_>) {}
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Barrier,
    Bcast,
    BcastLarge,
    Scatter,
    Scatterv,
    Gather,
    Gatherv,
    Allgather,
    Allgatherv,
    Alltoall,
    Alltoallv,
}

const KINDS: [Kind; 11] = [
    Kind::Barrier,
    Kind::Bcast,
    Kind::BcastLarge,
    Kind::Scatter,
    Kind::Scatterv,
    Kind::Gather,
    Kind::Gatherv,
    Kind::Allgather,
    Kind::Allgatherv,
    Kind::Alltoall,
    Kind::Alltoallv,
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Case {
    /// Every member makes the same call with matching counts.
    Congruent,
    /// The last rank's counts (or root, or algorithm) differ.
    Incongruent,
    /// The middle rank aborts before the call.
    Aborts,
    /// The last rank returns without making the call.
    NeverArrives,
}

const CASES: [Case; 4] = [
    Case::Congruent,
    Case::Incongruent,
    Case::Aborts,
    Case::NeverArrives,
];

/// Elements rank `r` sends or expects per peer in a v-collective.
fn vcount(r: usize, c: usize) -> i32 {
    (c + r % 3) as i32
}

fn displs(counts: &[i32]) -> Vec<i32> {
    counts
        .iter()
        .scan(0, |at, &c| {
            let d = *at;
            *at += c;
            Some(d)
        })
        .collect()
}

/// Make one `kind` call as rank `me`, skewed on the last rank when
/// `odd`; returns what landed in the receive buffer.
fn movement(ctx: &mut RankCtx, kind: Kind, odd: bool) -> Vec<i32> {
    let (n, me, w) = (ctx.size(), ctx.rank(), ctx.world());
    let skew = usize::from(odd && me + 1 == n);
    let c = 2 + skew;
    let root = (1 + skew) % n;
    let fill = |len: usize| -> Vec<i32> { (0..len).map(|i| (me * 1000 + i) as i32).collect() };
    let mut counts: Vec<i32> = (0..n).map(|r| vcount(r, 2)).collect();
    counts[n - 1] += skew as i32;
    let total = counts.iter().sum::<i32>() as usize;
    match kind {
        Kind::Barrier if skew == 1 => {
            let mut buf = fill(1);
            ctx.bcast(&mut buf, 0, w);
            buf
        }
        Kind::Barrier => {
            ctx.barrier(w);
            Vec::new()
        }
        Kind::Bcast => {
            let mut buf = fill(c);
            ctx.bcast(&mut buf, root, w);
            buf
        }
        Kind::BcastLarge => {
            // Past the threshold everywhere but on a skewed last rank.
            let mut buf = fill(if skew == 1 { 4 } else { 9000 });
            ctx.bcast(&mut buf, 0, w);
            buf
        }
        Kind::Scatter => {
            let send = fill(n * c);
            let mut recv = vec![-1; c];
            ctx.scatter(&send, &mut recv, root, w);
            recv
        }
        Kind::Scatterv => {
            let send = fill(total);
            let mut recv = vec![-1; counts[me] as usize];
            ctx.scatterv(&send, &counts, &displs(&counts), &mut recv, root, w);
            recv
        }
        Kind::Gather => {
            let send = fill(c);
            let mut recv = vec![-1; n * c];
            ctx.gather(&send, &mut recv, root, w);
            recv
        }
        Kind::Gatherv => {
            let send = fill(counts[me] as usize);
            let mut recv = vec![-1; total];
            ctx.gatherv(&send, &mut recv, &counts, &displs(&counts), root, w);
            recv
        }
        Kind::Allgather => {
            let send = fill(c);
            let mut recv = vec![-1; n * c];
            ctx.allgather(&send, &mut recv, w);
            recv
        }
        Kind::Allgatherv => {
            let send = fill(counts[me] as usize);
            let mut recv = vec![-1; total];
            ctx.allgatherv(&send, &mut recv, &counts, &displs(&counts), w);
            recv
        }
        Kind::Alltoall => {
            let send = fill(n * c);
            let mut recv = vec![-1; n * c];
            ctx.alltoall(&send, &mut recv, w);
            recv
        }
        Kind::Alltoallv => {
            // Rank r sends (r + p) % 3 + 1 elements to rank p.
            let pair = |a: usize, b: usize| ((a + b) % 3 + 1) as i32;
            let mut sc: Vec<i32> = (0..n).map(|p| pair(me, p)).collect();
            let rc: Vec<i32> = (0..n).map(|p| pair(p, me)).collect();
            if skew == 1 {
                sc[0] += 1;
            }
            let send = fill(sc.iter().sum::<i32>() as usize + 1);
            let mut recv = vec![-1; rc.iter().sum::<i32>() as usize];
            let (sd, rd) = (displs(&sc), displs(&rc));
            ctx.alltoallv(&send, &sc, &sd, &mut recv, &rc, &rd, w);
            recv
        }
    }
}

/// The job: the movement, an allreduce whose float sum depends on its
/// combine order, and the movement again.
fn app(kind: Kind, case: Case) -> AppFn {
    Arc::new(move |ctx: &mut RankCtx| {
        let (n, me) = (ctx.size(), ctx.rank());
        if case == Case::Aborts && me == n / 2 {
            ctx.abort(3, "a member aborts");
        }
        if case == Case::NeverArrives && me + 1 == n {
            return RankOutput::from_scalars(&[("absent", 1.0)]);
        }
        let odd = case == Case::Incongruent;
        let first = movement(ctx, kind, odd);
        let x = (me as f64 + 0.1) * 10f64.powi((me % 7) as i32 * 3 - 9);
        let sum = ctx.allreduce_one(x, ReduceOp::Sum, ctx.world());
        let again = movement(ctx, kind, odd);
        let digest = |v: &[i32]| {
            v.iter()
                .enumerate()
                .map(|(i, &x)| (i as f64 + 1.0) * f64::from(x))
                .sum::<f64>()
        };
        RankOutput::from_scalars(&[
            ("first", digest(&first)),
            ("sum", sum),
            ("again", digest(&again)),
        ])
    })
}

fn spec(n: usize, hook: bool) -> JobSpec {
    JobSpec {
        nranks: n,
        record: true,
        hook: hook.then(|| Arc::new(Bystander) as Arc<dyn CollHook>),
        ..JobSpec::default()
    }
}

/// Everything of a job result that must not depend on the path.
fn seen(res: &JobResult) -> String {
    let outputs = match &res.outcome {
        JobOutcome::Completed { outputs } => outputs
            .iter()
            .map(|o| {
                o.scalars
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_bits()))
                    .collect()
            })
            .collect(),
        _ => Vec::<Vec<(String, u64)>>::new(),
    };
    let log = res.replay_log.as_ref().expect("a recorded job has a log");
    let results: Vec<_> = res
        .records
        .iter()
        .enumerate()
        .flat_map(|(rank, calls)| {
            calls
                .iter()
                .map(move |c| (rank, c.seq, log.result(rank, c.comm_code, c.seq)))
        })
        .collect();
    format!(
        "outcome {:?}\noutputs {outputs:?}\nrecords {:?}\nops {:?}\nlog {} entries, {} bytes: {results:?}\nbytes_sent {}",
        res.outcome,
        res.records,
        res.ops,
        log.entries(),
        log.bytes(),
        res.transport.bytes_sent,
    )
}

#[test]
fn rendezvous_and_messages_are_indistinguishable() {
    for n in [1, 2, 3, 5, 8, 16, 128] {
        let mut arena = JobArena::with_engine(n, Engine::Coop);
        assert_eq!(arena.engine(), Engine::Coop);
        for kind in KINDS {
            for case in CASES {
                let by_rendezvous = arena.run(&spec(n, false), app(kind, case));
                let by_messages = arena.run(&spec(n, true), app(kind, case));
                let (a, b) = (seen(&by_rendezvous), seen(&by_messages));
                assert!(
                    a == b,
                    "{kind:?} {case:?} at {n} ranks:\n-- rendezvous\n{a}\n-- messages\n{b}"
                );
                if case == Case::Congruent {
                    assert!(
                        matches!(by_rendezvous.outcome, JobOutcome::Completed { .. }),
                        "{kind:?} at {n} ranks: {:?}",
                        by_rendezvous.outcome
                    );
                }
            }
        }
    }
}

/// The path is really taken: a congruent all-to-all job resumes its
/// ranks a small fixed number of times per call by rendezvous, and once
/// per message step by messages.
#[test]
fn a_congruent_job_parks_each_member_once_per_call() {
    let n = 16;
    let resumes = |hook: bool| {
        let mut arena = CoopArena::new(n);
        arena.set_trace(true);
        let res = arena.run(&spec(n, hook), app(Kind::Alltoall, Case::Congruent));
        assert!(matches!(res.outcome, JobOutcome::Completed { .. }));
        arena.take_trace().len()
    };
    let (rendezvous, messages) = (resumes(false), resumes(true));
    assert!(
        rendezvous * 3 < messages,
        "{rendezvous} resumes by rendezvous, {messages} by messages"
    );
}
