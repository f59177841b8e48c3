//! The job: its specification, its outcome taxonomy, and [`run_job`].
//! The engines that execute one, the supervisor that watches it and the
//! collapse of per-rank exits into a single outcome live in
//! [`crate::arena`] and [`crate::sched`].
//!
//! The outcome taxonomy maps one-to-one onto the paper's Table I:
//!
//! | Job outcome                    | Paper response |
//! |--------------------------------|----------------|
//! | `Completed` + same output      | `SUCCESS`      |
//! | `Completed` + different output | `WRONG_ANS`    |
//! | `Fatal(AppAbort)`              | `APP_DETECTED` |
//! | `Fatal(Mpi)`                   | `MPI_ERR`      |
//! | `Fatal(SegFault)`              | `SEG_FAULT`    |
//! | `TimedOut`                     | `INF_LOOP`     |
//!
//! (The output comparison lives in the `fastfit` crate, which owns the
//! golden run.)
//!
//! `TimedOut` carries a [`HangKind`] saying *how* the hang was diagnosed:
//! `OpBudget` (a rank blew its logical op budget — livelock) and `Stalled`
//! (the stall sweep proved every live rank blocked on an unsatisfiable
//! receive — deadlock) are deterministic and safe to classify `INF_LOOP`;
//! `WallClock` means only the infrastructure backstop fired and the trial
//! is suspect — the supervisor layer above decides whether to retry it.

use crate::arena::JobArena;
use crate::control::{FatalKind, HangKind};
use crate::ctx::{RankCtx, RankOutput};
use crate::hook::CollHook;
use crate::record::CallRecord;
use crate::replay::{ReplayLog, ReplayPrefix};
use crate::transport::TransportStats;
use std::panic;
use std::sync::Arc;
use std::time::Duration;

/// Prefix the thread-per-rank engine names its rank threads with, so the
/// global panic hook can silence their (intentional) unwinds.
pub(crate) const RANK_THREAD_PREFIX: &str = "simmpi-rank-";

/// The application entry point: one closure, run by every rank.
pub type AppFn = Arc<dyn Fn(&mut RankCtx) -> RankOutput + Send + Sync>;

/// Specification of one simulated MPI job.
#[derive(Clone)]
pub struct JobSpec {
    /// Number of ranks.
    pub nranks: usize,
    /// Seed for the per-rank application RNGs.
    pub seed: u64,
    /// Wall-clock backstop before the watchdog gives up on the job. With
    /// an op budget and stall detection active this should only ever fire
    /// on infrastructure trouble, never on a genuine `INF_LOOP`.
    pub timeout: Duration,
    /// Per-rank logical op budget; `None` = unlimited. Exceeding it is a
    /// deterministic livelock kill ([`HangKind::OpBudget`]).
    pub op_budget: Option<u64>,
    /// Consecutive same-epoch all-stuck sweeps required before the stall
    /// detector declares a deadlock; `0` disables stall detection.
    pub stall_quota: u32,
    /// Record per-call profiling data, and what every collective call
    /// returned on every rank ([`JobResult::replay_log`]).
    pub record: bool,
    /// Run the fabric in resilient mode: per-message checksums, duplicate
    /// suppression, and bounded retransmission of corrupt/dropped
    /// deliveries (see [`Fabric::with_mode`]).
    pub resilient_transport: bool,
    /// Interposition hook (fault injector); `None` = clean run.
    pub hook: Option<Arc<dyn CollHook>>,
    /// Replay the collectives ahead of the hook's first possible action
    /// from a recorded run of the same application instead of exchanging
    /// them (see [`crate::replay`]); `None` = exchange everything. A job
    /// that cannot prove the recorded results are its own ends
    /// [`JobResult::diverged`] and must be run again without this. A job
    /// that has both this and a `hook` also watches for the moment its
    /// fault is gone, and ends there ([`JobResult::absorbed`]).
    pub replay: Option<ReplayPrefix>,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            nranks: 16,
            seed: 0x5EED,
            timeout: Duration::from_secs(10),
            op_budget: None,
            stall_quota: 3,
            record: false,
            resilient_transport: false,
            hook: None,
            replay: None,
        }
    }
}

impl std::fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpec")
            .field("nranks", &self.nranks)
            .field("seed", &self.seed)
            .field("timeout", &self.timeout)
            .field("op_budget", &self.op_budget)
            .field("stall_quota", &self.stall_quota)
            .field("record", &self.record)
            .field("resilient_transport", &self.resilient_transport)
            .field("hook", &self.hook.is_some())
            .field("replay", &self.replay.as_ref().map(|r| (r.comm, r.seq)))
            .finish()
    }
}

/// How the job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// All ranks returned normally.
    Completed {
        /// Per-rank outputs, indexed by rank.
        outputs: Vec<RankOutput>,
    },
    /// The job died from a fatal event. When several ranks fail (e.g. the
    /// same corrupt payload trips validation on every receiver), the
    /// outcome is attributed to the lowest-ranked fatal recorded during
    /// the fail-stop drain — deterministic, unlike wall-clock arrival
    /// order.
    Fatal {
        /// Lowest rank on which a fatal event fired.
        rank: usize,
        /// What happened on that rank.
        kind: FatalKind,
    },
    /// The watchdog killed the job (deadlock / infinite loop / backstop).
    TimedOut {
        /// How the hang was diagnosed; `WallClock` is infrastructure-suspect.
        kind: HangKind,
    },
}

/// Result of one job run.
#[derive(Debug)]
pub struct JobResult {
    /// Outcome (see table above).
    pub outcome: JobOutcome,
    /// Per-rank call records (empty unless `JobSpec::record`).
    pub records: Vec<Vec<CallRecord>>,
    /// Per-rank logical op counts at teardown (indexed by rank). For a
    /// completed golden run these are the op-budget baseline.
    pub ops: Vec<u64>,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Message-fault / recovery counters from the fabric.
    pub transport: TransportStats,
    /// What every collective call returned on every rank (`None` unless
    /// `JobSpec::record`).
    pub replay_log: Option<ReplayLog>,
    /// Collective calls (summed over ranks) that returned a recorded
    /// result instead of exchanging one (0 without `JobSpec::replay`).
    pub replayed_calls: u64,
    /// The job was killed because a rank still inside its replayed prefix
    /// was touched by the fault: what it replayed may not be what it would
    /// have exchanged. `outcome` is then the infrastructure-suspect
    /// `TimedOut { WallClock }` and means nothing; run the job again
    /// without `JobSpec::replay`.
    pub diverged: bool,
    /// The job was ended because nothing could make it differ from its
    /// recorded run any more — the hook's schedule spent, every rank
    /// untainted, nothing tainted or faulted in flight (the open set of
    /// [`crate::transport`]): the rest of it is the recorded run's, and
    /// its outputs are the recorded outputs. `outcome` is then the same
    /// placeholder as for `diverged`; `transport` is final for everything
    /// a fault can move (a fault-free remainder fires and retransmits
    /// nothing). Only a job with both `JobSpec::hook` and
    /// `JobSpec::replay` ever ends this way.
    pub absorbed: bool,
}

/// Install a process-wide panic hook that silences the structured unwinds
/// of rank threads (fault trials panic by design; default printing would
/// flood stderr). Installed once per process.
pub(crate) fn install_quiet_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            // Rank unwinds are intentional control flow on both engines:
            // a dedicated rank thread (threaded engine) or a rank
            // coroutine on a carrier thread (coop engine).
            let in_rank_thread = std::thread::current()
                .name()
                .map(|n| n.starts_with(RANK_THREAD_PREFIX))
                .unwrap_or(false);
            if !in_rank_thread && !crate::sched::in_coroutine() {
                default(info);
            }
        }));
    });
}

/// Run `app` on `spec.nranks` simulated ranks and collect the outcome.
///
/// This is the one-shot path: a throwaway [`JobArena`]. Callers that run
/// many jobs should hold a [`JobArena`] (or [`crate::arena::ArenaPool`])
/// and reuse it — same semantics, and the coop engine's rank stacks are
/// allocated once instead of per job.
pub fn run_job(spec: &JobSpec, app: AppFn) -> JobResult {
    JobArena::new(spec.nranks).run(spec, app)
}

pub(crate) fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::MpiError;
    use crate::op::ReduceOp;
    use std::time::Instant;

    fn spec(n: usize) -> JobSpec {
        JobSpec {
            nranks: n,
            timeout: Duration::from_secs(5),
            ..Default::default()
        }
    }

    #[test]
    fn clean_allreduce_job_completes() {
        let res = run_job(
            &spec(8),
            Arc::new(|ctx: &mut RankCtx| {
                let total = ctx.allreduce_one(ctx.rank() as f64, ReduceOp::Sum, ctx.world());
                let mut out = RankOutput::new();
                out.push("total", total);
                out
            }),
        );
        match res.outcome {
            JobOutcome::Completed { outputs } => {
                for o in outputs {
                    assert_eq!(o.scalars[0].1, 28.0);
                }
            }
            other => panic!("unexpected outcome {:?}", other),
        }
    }

    #[test]
    fn app_abort_is_fatal_app_detected() {
        let res = run_job(
            &spec(4),
            Arc::new(|ctx: &mut RankCtx| {
                ctx.barrier(ctx.world());
                if ctx.rank() == 2 {
                    ctx.abort(3, "inconsistent state detected");
                }
                // Other ranks block forever on a barrier that rank 2 never
                // joins; the abort must tear them down.
                ctx.barrier(ctx.world());
                RankOutput::new()
            }),
        );
        match res.outcome {
            JobOutcome::Fatal { rank, kind } => {
                assert_eq!(rank, 2);
                assert!(matches!(kind, FatalKind::AppAbort { code: 3, .. }));
            }
            other => panic!("unexpected outcome {:?}", other),
        }
    }

    #[test]
    fn invalid_comm_is_mpi_err() {
        use crate::comm::CommHandle;
        let res = run_job(
            &spec(4),
            Arc::new(|ctx: &mut RankCtx| {
                if ctx.rank() == 0 {
                    ctx.barrier(CommHandle(0xDEAD_BEEF));
                } else {
                    ctx.barrier(ctx.world());
                }
                RankOutput::new()
            }),
        );
        match res.outcome {
            JobOutcome::Fatal { rank: 0, kind } => {
                assert_eq!(kind, FatalKind::Mpi(MpiError::Comm));
            }
            other => panic!("unexpected outcome {:?}", other),
        }
    }

    #[test]
    fn concurrent_fatals_attribute_to_lowest_rank_every_run() {
        // Two ranks fail "simultaneously" (no synchronization orders their
        // detections); the fail-stop drain must collect both and attribute
        // rank 0 on every run — the flaky alternative is whichever thread
        // won the race to record first.
        for run in 0..20 {
            let res = run_job(
                &spec(4),
                Arc::new(|ctx: &mut RankCtx| {
                    if ctx.rank() < 2 {
                        ctx.abort(7, "concurrent failure");
                    }
                    ctx.barrier(ctx.world());
                    RankOutput::new()
                }),
            );
            match res.outcome {
                JobOutcome::Fatal { rank, kind } => {
                    assert_eq!(rank, 0, "run {}", run);
                    assert!(
                        matches!(kind, FatalKind::AppAbort { code: 7, .. }),
                        "run {}: {:?}",
                        run,
                        kind
                    );
                }
                other => panic!("run {}: unexpected outcome {:?}", run, other),
            }
        }
    }

    #[test]
    fn genuine_panic_maps_to_segfault() {
        let res = run_job(
            &spec(2),
            Arc::new(|ctx: &mut RankCtx| {
                let v = [0u8; 4];
                if ctx.rank() == 1 {
                    // Out-of-bounds index: a real bounds panic (the index
                    // is laundered through black_box so the compiler
                    // cannot prove it at build time).
                    let idx = std::hint::black_box(10usize);
                    let _ = std::hint::black_box(v[idx]);
                }
                ctx.barrier(ctx.world());
                RankOutput::new()
            }),
        );
        match res.outcome {
            JobOutcome::Fatal { rank: 1, kind } => {
                assert!(matches!(kind, FatalKind::SegFault { .. }));
            }
            other => panic!("unexpected outcome {:?}", other),
        }
    }

    #[test]
    fn deadlock_times_out_as_inf_loop() {
        let t0 = Instant::now();
        let res = run_job(
            &JobSpec {
                nranks: 3,
                // Generous wall backstop: the stall sweep, not the clock,
                // must catch this deadlock.
                timeout: Duration::from_secs(30),
                ..Default::default()
            },
            Arc::new(|ctx: &mut RankCtx| {
                if ctx.rank() == 0 {
                    // Rank 0 never joins the barrier.
                    let mut buf = [0u8; 1];
                    ctx.recv_into(&mut buf, 1, 99, ctx.world());
                } else {
                    ctx.barrier(ctx.world());
                }
                RankOutput::new()
            }),
        );
        assert_eq!(
            res.outcome,
            JobOutcome::TimedOut {
                kind: HangKind::Stalled
            }
        );
        assert!(t0.elapsed() < Duration::from_secs(10), "teardown is prompt");
    }

    #[test]
    fn op_budget_exhaustion_is_deterministic_inf_loop() {
        let run = || {
            run_job(
                &JobSpec {
                    nranks: 2,
                    timeout: Duration::from_secs(30),
                    op_budget: Some(64),
                    ..Default::default()
                },
                Arc::new(|ctx: &mut RankCtx| {
                    // Livelock: endless collectives, never converging.
                    loop {
                        let _ = ctx.allreduce_one(1.0f64, ReduceOp::Sum, ctx.world());
                    }
                }),
            )
        };
        let a = run();
        assert_eq!(
            a.outcome,
            JobOutcome::TimedOut {
                kind: HangKind::OpBudget
            }
        );
        // Op accounting is logical, so the kill point is reproducible.
        let b = run();
        assert_eq!(a.outcome, b.outcome);
        assert!(a.ops.iter().any(|&o| o >= 64), "some rank hit the budget");
    }

    #[test]
    fn wall_clock_backstop_is_flagged_suspect() {
        // A rank that keeps making logical progress but never finishes:
        // only the wall-clock backstop can stop it, and the outcome must
        // say so (the supervisor upstream treats it as retryable, not as
        // a proven INF_LOOP).
        let res = run_job(
            &JobSpec {
                nranks: 1,
                timeout: Duration::from_millis(100),
                ..Default::default()
            },
            Arc::new(|ctx: &mut RankCtx| loop {
                ctx.yield_point();
                std::thread::sleep(Duration::from_millis(1));
            }),
        );
        assert_eq!(
            res.outcome,
            JobOutcome::TimedOut {
                kind: HangKind::WallClock
            }
        );
        assert!(res.ops[0] > 0, "the rank was progressing when killed");
    }

    #[test]
    fn completed_run_reports_op_counts() {
        let res = run_job(
            &spec(4),
            Arc::new(|ctx: &mut RankCtx| {
                let _ = ctx.allreduce_one(1.0f64, ReduceOp::Sum, ctx.world());
                RankOutput::new()
            }),
        );
        assert!(matches!(res.outcome, JobOutcome::Completed { .. }));
        assert_eq!(res.ops.len(), 4);
        assert!(res.ops.iter().all(|&o| o > 0), "collectives count as ops");
    }

    #[test]
    fn records_collected_when_enabled() {
        let mut s = spec(4);
        s.record = true;
        let res = run_job(
            &s,
            Arc::new(|ctx: &mut RankCtx| {
                ctx.set_phase(crate::record::Phase::Compute);
                ctx.frame("solver", |ctx| {
                    for _ in 0..3 {
                        ctx.allreduce_one(1.0f64, ReduceOp::Sum, ctx.world());
                    }
                });
                ctx.barrier(ctx.world());
                RankOutput::new()
            }),
        );
        assert!(matches!(res.outcome, JobOutcome::Completed { .. }));
        assert_eq!(res.records.len(), 4);
        for rank_recs in &res.records {
            assert_eq!(rank_recs.len(), 4); // 3 allreduce + 1 barrier
            assert_eq!(rank_recs[0].stack, vec!["main", "solver"]);
            assert_eq!(rank_recs[0].invocation, 0);
            assert_eq!(rank_recs[2].invocation, 2);
            assert_eq!(rank_recs[3].stack, vec!["main"]);
        }
    }

    #[test]
    fn scan_exscan_reduce_scatter_through_ctx() {
        let res = run_job(
            &spec(6),
            Arc::new(|ctx: &mut RankCtx| {
                let world = ctx.world();
                let me = ctx.rank() as i64;
                // Inclusive scan of rank+1.
                let mut incl = [0i64; 1];
                ctx.scan(&[me + 1], &mut incl, ReduceOp::Sum, world);
                // Exclusive scan.
                let mut excl = [0i64; 1];
                ctx.exscan(&[me + 1], &mut excl, ReduceOp::Sum, world);
                // Reduce-scatter of a vector of ones.
                let send = vec![1i64; ctx.size()];
                let mut block = [0i64; 1];
                ctx.reduce_scatter_block(&send, &mut block, ReduceOp::Sum, world);
                let mut out = RankOutput::new();
                out.push("incl", incl[0] as f64);
                out.push("excl", excl[0] as f64);
                out.push("block", block[0] as f64);
                out
            }),
        );
        match res.outcome {
            JobOutcome::Completed { outputs } => {
                for (r, o) in outputs.iter().enumerate() {
                    let expect_incl: i64 = (1..=r as i64 + 1).sum();
                    assert_eq!(o.scalars[0].1, expect_incl as f64, "rank {}", r);
                    if r > 0 {
                        let expect_excl: i64 = (1..=r as i64).sum();
                        assert_eq!(o.scalars[1].1, expect_excl as f64);
                    }
                    assert_eq!(o.scalars[2].1, 6.0, "6 ranks contribute 1 each");
                }
            }
            other => panic!("unexpected outcome {:?}", other),
        }
    }

    #[test]
    fn large_payloads_use_tuned_algorithms_transparently() {
        // Payloads over the thresholds flow through bcast_large /
        // rabenseifner; results must be identical to the small path.
        let res = run_job(
            &spec(8),
            Arc::new(|ctx: &mut RankCtx| {
                let world = ctx.world();
                let n = crate::ctx::BCAST_LARGE_THRESHOLD / 8 + 1024;
                let mut buf = vec![0.0f64; n];
                if ctx.rank() == 0 {
                    for (i, v) in buf.iter_mut().enumerate() {
                        *v = i as f64 * 0.5;
                    }
                }
                ctx.bcast(&mut buf, 0, world);
                let spot = buf[n - 1];

                let m = crate::ctx::ALLREDUCE_LARGE_THRESHOLD / 8 + 512;
                // Make the count divisible by nranks so Rabenseifner runs.
                let m = (m / ctx.size()) * ctx.size();
                let send = vec![1.0f64; m];
                let mut recv = vec![0.0f64; m];
                ctx.allreduce(&send, &mut recv, ReduceOp::Sum, world);
                let mut out = RankOutput::new();
                out.push("spot", spot);
                out.push("sum", recv[m / 2]);
                out
            }),
        );
        match res.outcome {
            JobOutcome::Completed { outputs } => {
                let n = crate::ctx::BCAST_LARGE_THRESHOLD / 8 + 1024;
                for o in &outputs {
                    assert_eq!(o.scalars[0].1, (n - 1) as f64 * 0.5);
                    assert_eq!(o.scalars[1].1, 8.0);
                }
            }
            other => panic!("unexpected outcome {:?}", other),
        }
    }

    #[test]
    fn determinism_same_seed_same_output() {
        let app: AppFn = Arc::new(|ctx: &mut RankCtx| {
            use rand::Rng;
            let x: f64 = ctx.rng().gen();
            let total = ctx.allreduce_one(x, ReduceOp::Sum, ctx.world());
            let mut out = RankOutput::new();
            out.push("t", total);
            out
        });
        let a = run_job(&spec(8), app.clone());
        let b = run_job(&spec(8), app);
        match (a.outcome, b.outcome) {
            (JobOutcome::Completed { outputs: oa }, JobOutcome::Completed { outputs: ob }) => {
                assert_eq!(oa[0].scalars[0].1.to_bits(), ob[0].scalars[0].1.to_bits());
            }
            _ => panic!("jobs must complete"),
        }
    }

    #[test]
    fn comm_split_subgroups_reduce_independently() {
        let res = run_job(
            &spec(8),
            Arc::new(|ctx: &mut RankCtx| {
                let color = (ctx.rank() % 2) as i32;
                let sub = ctx
                    .comm_split(ctx.world(), color, ctx.rank() as i32)
                    .expect("nonnegative color");
                let total = ctx.allreduce_one(ctx.rank() as f64, ReduceOp::Sum, sub);
                let mut out = RankOutput::new();
                out.push("t", total);
                out
            }),
        );
        match res.outcome {
            JobOutcome::Completed { outputs } => {
                // Evens: 0+2+4+6 = 12, odds: 1+3+5+7 = 16.
                for (r, o) in outputs.iter().enumerate() {
                    let expect = if r % 2 == 0 { 12.0 } else { 16.0 };
                    assert_eq!(o.scalars[0].1, expect, "rank {}", r);
                }
            }
            other => panic!("unexpected outcome {:?}", other),
        }
    }

    #[test]
    fn p2p_ring_passes_token() {
        let res = run_job(
            &spec(5),
            Arc::new(|ctx: &mut RankCtx| {
                let n = ctx.size();
                let me = ctx.rank();
                let world = ctx.world();
                let mut token = [0i32; 1];
                if me == 0 {
                    token[0] = 100;
                    ctx.send(&token, 1, 7, world);
                    ctx.recv_into(&mut token, n - 1, 7, world);
                } else {
                    ctx.recv_into(&mut token, me - 1, 7, world);
                    token[0] += 1;
                    ctx.send(&token, (me + 1) % n, 7, world);
                }
                let mut out = RankOutput::new();
                out.push("token", token[0] as f64);
                out
            }),
        );
        match res.outcome {
            JobOutcome::Completed { outputs } => {
                assert_eq!(outputs[0].scalars[0].1, 104.0);
            }
            other => panic!("unexpected outcome {:?}", other),
        }
    }
}

#[cfg(test)]
mod nonblocking_tests {
    use super::*;
    use crate::op::ReduceOp;
    use std::time::Duration;

    #[test]
    fn irecv_test_wait_roundtrip() {
        let res = run_job(
            &JobSpec {
                nranks: 2,
                timeout: Duration::from_secs(5),
                ..Default::default()
            },
            Arc::new(|ctx: &mut RankCtx| {
                let world = ctx.world();
                let mut out = RankOutput::new();
                if ctx.rank() == 0 {
                    // Post the receive before the sender has sent.
                    let req = ctx.irecv::<f64>(1, 7, world);
                    assert!(!ctx.test(&req), "nothing sent yet");
                    ctx.barrier(world); // lets rank 1 send
                                        // Poll until the message lands (eager, so promptly).
                    while !ctx.test(&req) {
                        std::thread::yield_now();
                    }
                    let mut buf = [0.0f64; 4];
                    let n = ctx.wait_into(req, &mut buf);
                    assert_eq!(n, 2);
                    out.push("sum", buf[0] + buf[1]);
                } else {
                    ctx.barrier(world);
                    ctx.send(&[1.5f64, 2.5], 0, 7, world);
                    out.push("sum", 4.0);
                }
                // Keep collective counts aligned across ranks.
                let _ = ctx.allreduce_one(1.0f64, ReduceOp::Sum, world);
                out
            }),
        );
        match res.outcome {
            JobOutcome::Completed { outputs } => {
                assert_eq!(outputs[0].scalars[0].1, 4.0);
            }
            other => panic!("unexpected outcome {:?}", other),
        }
    }

    #[test]
    fn wait_into_truncation_is_fatal() {
        let res = run_job(
            &JobSpec {
                nranks: 2,
                timeout: Duration::from_secs(5),
                ..Default::default()
            },
            Arc::new(|ctx: &mut RankCtx| {
                let world = ctx.world();
                if ctx.rank() == 0 {
                    let req = ctx.irecv::<f64>(1, 9, world);
                    let mut small = [0.0f64; 1];
                    ctx.wait_into(req, &mut small);
                } else {
                    ctx.send(&[1.0f64; 8], 0, 9, world);
                }
                RankOutput::new()
            }),
        );
        match res.outcome {
            JobOutcome::Fatal { kind, .. } => {
                assert_eq!(kind, FatalKind::Mpi(crate::error::MpiError::Truncate));
            }
            other => panic!("unexpected outcome {:?}", other),
        }
    }
}

#[cfg(test)]
mod vcollective_tests {
    use super::*;
    use std::time::Duration;

    fn spec(n: usize) -> JobSpec {
        JobSpec {
            nranks: n,
            timeout: Duration::from_secs(10),
            ..Default::default()
        }
    }

    #[test]
    fn scatterv_gatherv_roundtrip_through_ctx() {
        let res = run_job(
            &spec(4),
            Arc::new(|ctx: &mut RankCtx| {
                let world = ctx.world();
                let me = ctx.rank();
                let n = ctx.size();
                let counts: Vec<i32> = (1..=n as i32).collect();
                let displs: Vec<i32> = {
                    let mut d = vec![0i32; n];
                    for i in 1..n {
                        d[i] = d[i - 1] + counts[i - 1];
                    }
                    d
                };
                let total: i32 = counts.iter().sum();
                // Root scatters 1,2,3,4 elements to ranks 0..3.
                let send: Vec<i64> = if me == 0 {
                    (0..total as i64).collect()
                } else {
                    Vec::new()
                };
                let mut mine = vec![0i64; me + 1];
                ctx.scatterv(&send, &counts, &displs, &mut mine, 0, world);
                // Gather them back; root must recover the original.
                let mut back = vec![0i64; if me == 0 { total as usize } else { 0 }];
                ctx.gatherv(&mine, &mut back, &counts, &displs, 0, world);
                let mut out = RankOutput::new();
                out.push("first", *mine.first().unwrap() as f64);
                if me == 0 {
                    let intact = back == (0..total as i64).collect::<Vec<_>>();
                    out.push("roundtrip", f64::from(intact));
                }
                out
            }),
        );
        match res.outcome {
            JobOutcome::Completed { outputs } => {
                assert_eq!(outputs[0].scalars[1].1, 1.0, "roundtrip intact");
                assert_eq!(outputs[1].scalars[0].1, 1.0, "rank 1 got element 1");
                assert_eq!(outputs[3].scalars[0].1, 6.0, "rank 3 starts at displ 6");
            }
            other => panic!("unexpected outcome {:?}", other),
        }
    }

    #[test]
    fn allgatherv_through_ctx() {
        let res = run_job(
            &spec(3),
            Arc::new(|ctx: &mut RankCtx| {
                let world = ctx.world();
                let me = ctx.rank();
                let counts = [2i32, 1, 3];
                let displs = [0i32, 2, 3];
                let send = vec![me as f64 + 0.5; counts[me] as usize];
                let mut recv = vec![0.0f64; 6];
                ctx.allgatherv(&send, &mut recv, &counts, &displs, world);
                let mut out = RankOutput::new();
                for (i, v) in recv.iter().enumerate() {
                    out.push(format!("v{}", i), *v);
                }
                out
            }),
        );
        match res.outcome {
            JobOutcome::Completed { outputs } => {
                let expect = [0.5, 0.5, 1.5, 2.5, 2.5, 2.5];
                for o in outputs {
                    let got: Vec<f64> = o.scalars.iter().map(|s| s.1).collect();
                    assert_eq!(got, expect);
                }
            }
            other => panic!("unexpected outcome {:?}", other),
        }
    }
}
