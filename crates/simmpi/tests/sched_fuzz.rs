//! Scheduler fuzz/torture suite: the cooperative scheduler's rank-step
//! order must be a pure function of the program — invariant under
//! adversarial ready-queue perturbation, under any number of concurrent
//! carrier threads, and under full CPU saturation. The canonicalizing
//! sort in `CoopArena::round_order` is the load-bearing line; these
//! tests are what would catch anyone deleting it.

use simmpi::ctx::{RankCtx, RankOutput};
use simmpi::hook::{CollCall, CollHook, CollKind};
use simmpi::op::ReduceOp;
use simmpi::runtime::{AppFn, JobOutcome, JobResult, JobSpec};
use simmpi::sched::CoopArena;
use simmpi::transport::{MsgFaultKind, MsgFaultPlan, RankFaultPlan};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Saturate every core with spinner threads while `f` runs, so carrier
/// threads are constantly preempted mid-round — the situation that
/// would surface any hidden wall-clock dependence in the schedule.
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

/// Communication-heavy app: point-to-point rings plus collectives, with
/// per-rank RNG draws so any schedule-visible divergence corrupts the
/// journalled outputs, not just the trace.
fn churn_app() -> AppFn {
    Arc::new(|ctx: &mut RankCtx| {
        use rand::Rng;
        let n = ctx.size();
        let me = ctx.rank();
        let mut acc = 0.0f64;
        for round in 0..3 {
            let x: f64 = ctx.rng().gen();
            acc += ctx.allreduce_one(x, ReduceOp::Sum, ctx.world());
            let to = (me + 1) % n;
            let from = (me + n - 1) % n;
            let sent = [acc + round as f64];
            let mut got = [0.0f64];
            if me.is_multiple_of(2) {
                ctx.send(&sent, to, 7, ctx.world());
                ctx.recv_into(&mut got, from, 7, ctx.world());
            } else {
                ctx.recv_into(&mut got, from, 7, ctx.world());
                ctx.send(&sent, to, 7, ctx.world());
            }
            acc += got[0];
            acc = ctx.allreduce_one(acc, ReduceOp::Max, ctx.world());
        }
        let mut out = RankOutput::new();
        out.push("acc", acc);
        out
    })
}

fn spec(nranks: usize) -> JobSpec {
    JobSpec {
        nranks,
        ..Default::default()
    }
}

fn outputs(res: &JobResult) -> Vec<u64> {
    match &res.outcome {
        JobOutcome::Completed { outputs } => {
            outputs.iter().map(|o| o.scalars[0].1.to_bits()).collect()
        }
        other => panic!("job must complete, got {other:?}"),
    }
}

/// One traced coop run of `churn_app` with an optional perturbation
/// seed. Returns the rank-step trace and the bitwise outputs.
fn traced_run(nranks: usize, perturb: Option<u64>) -> (Vec<u32>, Vec<u64>) {
    traced_run_of(&spec(nranks), perturb)
}

fn traced_run_of(spec: &JobSpec, perturb: Option<u64>) -> (Vec<u32>, Vec<u64>) {
    let mut arena = CoopArena::new(spec.nranks);
    arena.set_perturb(perturb);
    arena.set_trace(true);
    let res = arena.run(spec, churn_app());
    (arena.take_trace(), outputs(&res))
}

/// Arms timers all over `churn_app`: every rank's second and fifth
/// allreduce has its first send held for `MSG_DELAY`, and ranks stall
/// for rank-dependent fail-slow delays at their third, so several timers
/// with different due times are pending at once.
struct TimersEverywhere;

impl CollHook for TimersEverywhere {
    fn before(&self, call: &mut CollCall<'_>) {
        if call.kind != CollKind::Allreduce {
            return;
        }
        // `churn_app` has two allreduce sites; tell them apart by line
        // parity so both get timers.
        let step = call.invocation * 2 + u64::from(call.site.line % 2);
        if step == 1 || step == 4 {
            call.msg_fault = Some(MsgFaultPlan {
                kind: MsgFaultKind::Delay,
                nth_send: 0,
                payload_bit: 0,
                sticky: false,
            });
        }
        if step == 2 {
            call.rank_fault = Some(RankFaultPlan::FailSlow {
                millis: 5 + 7 * (call.rank as u64 % 5),
            });
        }
    }
}

/// Adversarial ready-queue perturbation must not move a single rank
/// step: the trace and the bitwise outputs are identical for any
/// collection-order shuffle seed.
#[test]
fn perturbed_ready_queue_never_changes_rank_step_order() {
    for nranks in [3, 8] {
        let (reference, ref_out) = traced_run(nranks, None);
        assert!(!reference.is_empty(), "trace must record rank steps");
        // A deterministic spread of adversary seeds, including the
        // degenerate all-bits patterns.
        let seeds = [1u64, 2, 3, 0xDEAD_BEEF, u64::MAX, 0x5EED_5EED, 42, 7777];
        for seed in seeds {
            let (trace, out) = traced_run(nranks, Some(seed));
            assert_eq!(
                trace, reference,
                "perturb seed {seed:#x} changed the rank-step order ({nranks} ranks)"
            );
            assert_eq!(out, ref_out, "perturb seed {seed:#x} changed outputs");
        }
    }
}

/// Carrier-thread count is a pool-level throughput knob, never a
/// semantic one: any number of concurrent carrier threads, each running
/// its own arena, produces the identical trace and outputs.
#[test]
fn randomized_carrier_thread_counts_are_trace_invariant() {
    let (reference, ref_out) = traced_run(4, None);
    // Derived pseudo-random carrier counts — fixed seed, no time/rand
    // dependence, covering 1..=8 carriers across iterations.
    let mut x = 0x9E37_79B9u64;
    for iter in 0..5 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let carriers = 1 + (x % 8) as usize;
        let runs: Vec<(Vec<u32>, Vec<u64>)> = under_cpu_load(|| {
            let handles: Vec<_> = (0..carriers)
                .map(|c| {
                    let perturb = if c % 2 == 0 { None } else { Some(x ^ c as u64) };
                    std::thread::Builder::new()
                        .name(format!("carrier-{c}"))
                        .spawn(move || traced_run(4, perturb))
                        .expect("spawn carrier")
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, (trace, out)) in runs.iter().enumerate() {
            assert_eq!(
                trace, &reference,
                "carrier {i}/{carriers} (iter {iter}) diverged from the reference trace"
            );
            assert_eq!(out, &ref_out, "carrier {i}/{carriers} diverged in outputs");
        }
    }
}

/// 20-run soak under full CPU saturation: preemption of the single
/// carrier thread at arbitrary points must never reorder rank steps,
/// and arena reuse across jobs must not leak state between runs.
#[test]
fn soak_20_runs_under_cpu_saturation_trace_stable() {
    let (reference, ref_out) = traced_run(6, None);
    under_cpu_load(|| {
        let mut arena = CoopArena::new(6);
        for run in 0..20 {
            arena.set_perturb(if run % 3 == 0 { Some(run) } else { None });
            arena.set_trace(true);
            let res = arena.run(&spec(6), churn_app());
            assert_eq!(
                arena.take_trace(),
                reference,
                "soak run {run} diverged from the reference trace"
            );
            assert_eq!(outputs(&res), ref_out, "soak run {run} diverged in outputs");
        }
        assert_eq!(arena.jobs_run(), 20);
    });
}

/// With timers armed the schedule used to depend on when the host's clock
/// crossed each due time. On the job's logical clock it cannot: held
/// messages and fail-slow sleeps pending all over the job leave the
/// rank-step trace perturbation-invariant, identical run to run, and
/// identical under CPU saturation.
#[test]
fn timers_armed_trace_is_perturbation_invariant_and_repeatable() {
    for nranks in [3, 8] {
        let spec = JobSpec {
            hook: Some(Arc::new(TimersEverywhere)),
            ..spec(nranks)
        };
        let (reference, ref_out) = traced_run_of(&spec, None);
        let (clean, clean_out) = traced_run(nranks, None);
        assert_ne!(reference, clean, "the timers must reshape the schedule");
        assert_eq!(ref_out, clean_out, "and must not reach the outputs");
        for seed in [1u64, 0xDEAD_BEEF, u64::MAX, 42] {
            let (trace, out) = traced_run_of(&spec, Some(seed));
            assert_eq!(
                trace, reference,
                "perturb seed {seed:#x} moved a rank step with timers armed ({nranks} ranks)"
            );
            assert_eq!(out, ref_out);
        }
        under_cpu_load(|| {
            for run in 0..5 {
                let (trace, out) = traced_run_of(&spec, None);
                assert_eq!(
                    trace, reference,
                    "run {run} under load diverged with timers armed ({nranks} ranks)"
                );
                assert_eq!(out, ref_out);
            }
        });
    }
}
