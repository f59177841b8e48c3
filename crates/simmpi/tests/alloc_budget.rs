//! A message allocates its payload and nothing else: a whole 128-rank
//! job makes at most one heap call per message plus a fixed number per
//! rank. Anything that allocates per received message (decoding a
//! reduction's operands), per call and rank count (copying a member
//! list), or per `(src, dst)` pair (a seqno set) breaks the budget. The
//! message rows run under a hook that changes nothing, as every trial
//! does: a job without one moves its data-movement collectives by
//! rendezvous, and that row has no per-message term at all — and parks
//! each rank a fixed number of times per call.
//!
//! The count is taken by a counting global allocator on the calling
//! thread only: the coop engine runs every rank of the job there.

// The coop engine exists only where the stack switch is implemented.
#![cfg(target_arch = "x86_64")]

use simmpi::ctx::{RankCtx, RankOutput};
use simmpi::hook::{CollCall, CollHook};
use simmpi::op::ReduceOp;
use simmpi::runtime::{AppFn, JobOutcome, JobResult, JobSpec};
use simmpi::sched::CoopArena;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Heap calls (`alloc`, `alloc_zeroed`, `realloc`) made on this thread
/// while counting; `None` while not.
struct Counting;

thread_local! {
    static CALLS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note() {
    let _ = CALLS.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const N: usize = 128;
/// All-to-all rounds (one alltoall and one alltoallv each) per job.
const EXCHANGES: usize = 2;
/// Allreduce + ring rounds per job.
const RINGS: usize = 16;
/// Heap calls allowed per rank on top of one per message: a rank's
/// context, coroutine and job bookkeeping, and each call's buffer
/// images, result and v-collective count vectors. Measured at 42.2
/// (all-to-all job) and 25.6 (allreduce/ring job).
const PER_RANK: u64 = 48;

/// Resumes a rank may take per data-movement call by rendezvous, on top
/// of the one that starts it: it parks once per call. The all-to-all job
/// takes 636 of the 640 this allows (each call's last arrival goes on
/// without parking).
const RESUMES_PER_CALL: usize = 1;

/// A hook that changes nothing: its job sends every message.
struct Bystander;

impl CollHook for Bystander {
    fn before(&self, _call: &mut CollCall<'_>) {}
}

/// Run `app` twice on one coop arena, with a hook that changes nothing
/// when `messages`, and count the heap calls of the second job, so what
/// the arena keeps between jobs is not counted. Also returns the second
/// job's coroutine resumes.
fn counted_job(app: AppFn, resilient: bool, messages: bool) -> (u64, usize, JobResult) {
    let mut arena = CoopArena::new(N);
    let spec = JobSpec {
        nranks: N,
        resilient_transport: resilient,
        hook: messages.then(|| Arc::new(Bystander) as Arc<dyn CollHook>),
        ..JobSpec::default()
    };
    let warm = arena.run(&spec, app.clone());
    assert!(matches!(warm.outcome, JobOutcome::Completed { .. }));
    arena.set_trace(true);
    CALLS.with(|c| c.set(Some(0)));
    let res = arena.run(&spec, app);
    let calls = CALLS.with(|c| c.replace(None)).unwrap();
    let resumes = arena.take_trace().len();
    assert!(
        matches!(res.outcome, JobOutcome::Completed { .. }),
        "{:?}",
        res.outcome
    );
    (calls, resumes, res)
}

fn assert_within_budget(what: &str, calls: u64, messages: u64) {
    let budget = messages + PER_RANK * N as u64;
    eprintln!(
        "{what}: {calls} heap calls for {messages} messages = messages + {:.1} per rank (budget {PER_RANK})",
        (calls as f64 - messages as f64) / N as f64
    );
    assert!(
        calls <= budget,
        "{what}: {calls} heap calls > {messages} messages + {PER_RANK}·{N} ranks"
    );
}

/// `EXCHANGES` all-to-alls and as many alltoallvs of one `i32` per peer,
/// on the resilient fabric: `2·EXCHANGES·n·(n−1)` messages of 4 bytes.
fn exchange_app() -> AppFn {
    Arc::new(|ctx: &mut RankCtx| {
        let (n, me) = (ctx.size(), ctx.rank() as i32);
        let send: Vec<i32> = (0..n as i32).map(|p| me * 1000 + p).collect();
        let ones = vec![1i32; n];
        let displs: Vec<i32> = (0..n as i32).collect();
        let mut recv = vec![0i32; n];
        let mut sum = 0i64;
        for _ in 0..EXCHANGES {
            ctx.alltoall(&send, &mut recv, ctx.world());
            sum += recv.iter().map(|&x| x as i64).sum::<i64>();
            ctx.alltoallv(
                &send,
                &ones,
                &displs,
                &mut recv,
                &ones,
                &displs,
                ctx.world(),
            );
            sum += recv.iter().map(|&x| x as i64).sum::<i64>();
        }
        RankOutput::from_scalars(&[("sum", sum as f64)])
    })
}

/// `RINGS` recursive-doubling allreduces of one `f64` (`n·log2 n`
/// messages of 8 bytes each) and as many ring `sendrecv`s (`n` messages
/// of 8 bytes each), on the plain fabric.
fn ring_app() -> AppFn {
    Arc::new(|ctx: &mut RankCtx| {
        let (n, me) = (ctx.size(), ctx.rank());
        let mut x = me as f64;
        for _ in 0..RINGS {
            x = ctx.allreduce_one(x, ReduceOp::Sum, ctx.world()) / n as f64;
            let mut got = [0.0f64];
            ctx.sendrecv(
                &[x],
                (me + 1) % n,
                &mut got,
                (me + n - 1) % n,
                3,
                ctx.world(),
            );
            x = got[0];
        }
        RankOutput::from_scalars(&[("x", x)])
    })
}

/// Every rank of the all-to-all job got what it was sent.
fn assert_exchanged(res: &JobResult) {
    let JobOutcome::Completed { outputs } = &res.outcome else {
        unreachable!()
    };
    // Rank r receives p·1000 + r from every p, twice per round.
    let want = |r: usize| (2 * EXCHANGES * (1000 * N * (N - 1) / 2 + N * r)) as f64;
    for (r, out) in outputs.iter().enumerate() {
        assert_eq!(out.scalars[0].1, want(r), "rank {r}");
    }
}

#[test]
fn all_to_all_job_allocates_one_payload_per_message() {
    let (calls, _, res) = counted_job(exchange_app(), true, true);
    let messages = (2 * EXCHANGES * N * (N - 1)) as u64;
    assert_eq!(res.transport.bytes_sent, 4 * messages);
    assert_exchanged(&res);
    assert_within_budget("alltoall/alltoallv", calls, messages);
}

/// The same job without a hook: no message at all, so heap calls have no
/// per-message term, the same payload counts as moved, and each rank is
/// resumed a fixed number of times per call.
#[test]
fn all_to_all_job_by_rendezvous_allocates_no_message() {
    let (calls, resumes, res) = counted_job(exchange_app(), true, false);
    let moved = (2 * EXCHANGES * N * (N - 1)) as u64;
    assert_eq!(res.transport.bytes_sent, 4 * moved);
    assert_exchanged(&res);
    assert_within_budget("alltoall/alltoallv by rendezvous", calls, 0);
    let per_call = (resumes as f64 / N as f64 - 1.0) / (2 * EXCHANGES) as f64;
    eprintln!(
        "alltoall/alltoallv by rendezvous: {resumes} resumes = 1 + {per_call:.2} per rank per call"
    );
    assert!(
        resumes <= N * (1 + RESUMES_PER_CALL * 2 * EXCHANGES),
        "{resumes} resumes > {N} ranks · (1 + {RESUMES_PER_CALL}·{} calls)",
        2 * EXCHANGES
    );
}

#[test]
fn allreduce_and_ring_job_allocates_one_payload_per_message() {
    let (calls, _, res) = counted_job(ring_app(), false, true);
    let log2n = N.trailing_zeros() as usize;
    let messages = (RINGS * (N * log2n + N)) as u64;
    assert_eq!(res.transport.bytes_sent, 8 * messages);
    assert_within_budget("allreduce/sendrecv", calls, messages);
}
