//! Trial-supervision guarantees: hang classification must be *logical*
//! (deterministic under arbitrary CPU load), wall-clock kills of
//! progressing ranks must be retried rather than misfiled as INF_LOOP,
//! and journals containing quarantined trials must survive kill/resume
//! byte-for-byte.

use fastfit::prelude::*;
use fastfit::supervise::{supervise, AttemptOutcome};
use fastfit_store::journal::{read_journal, JOURNAL_FILE};
use fastfit_store::{CampaignMeta, CampaignStore};
use simmpi::arena::JobArena;
use simmpi::control::HangKind;
use simmpi::ctx::{RankCtx, RankOutput};
use simmpi::hook::{CallSite, CollKind, ParamId};
use simmpi::op::ReduceOp;
use simmpi::runtime::{run_job, AppFn, JobOutcome, JobSpec};
use simmpi::sched::Engine;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Rank 0 waits for a message nobody sends; the rest enter a barrier
/// rank 0 never joins. A genuine communication deadlock.
fn deadlocked_app() -> AppFn {
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

/// Burn every core with spinners while `f` runs, so the deadlock sweep
/// races real scheduler noise — the situation that made wall-clock hang
/// detection nondeterministic.
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

/// A deadlocked workload must classify INF_LOOP via the *logical* stall
/// detector — identically on every run, regardless of CPU load — never
/// via the wall clock.
#[test]
fn deadlock_classifies_inf_loop_identically_under_load() {
    under_cpu_load(|| {
        for i in 0..20 {
            let res = run_job(
                &JobSpec {
                    nranks: 3,
                    // Wall backstop far beyond the test budget: if the
                    // clock (not the epoch sweep) caught this, the run
                    // would blow the suite's time limit long before.
                    timeout: Duration::from_secs(120),
                    ..Default::default()
                },
                deadlocked_app(),
            );
            let kind = match &res.outcome {
                JobOutcome::TimedOut { kind } => *kind,
                other => panic!("run {}: deadlock not caught: {:?}", i, other),
            };
            assert_eq!(kind, HangKind::Stalled, "run {}", i);
            assert!(kind.is_deterministic(), "run {}", i);
            assert_eq!(
                classify(&res.outcome, &[], 0.0),
                Response::InfLoop,
                "run {}",
                i
            );
        }
    });
}

/// A message *delay* is not a deadlock: the transport holds the message,
/// the receiver's wait is backed by a held-but-deliverable entry, and the
/// logical stall sweep must keep its hands off. Across 20 saturated runs
/// the trial must complete SUCCESS — never INF_LOOP, however starved the
/// scheduler is while the message sits in the hold queue.
#[test]
fn message_delay_under_load_is_never_inf_loop() {
    let app: AppFn = Arc::new(|ctx: &mut RankCtx| {
        let x = ctx.allreduce_one((ctx.rank() + 1) as f64, ReduceOp::Sum, ctx.world());
        let mut out = RankOutput::new();
        out.push("x", x);
        out
    });
    let w = Workload::new("delayed", app, 1e-15, 4);
    let campaign = Campaign::prepare(
        w,
        CampaignConfig {
            fault_channel: FaultChannel::Message,
            ..Default::default()
        },
    );
    let target = fastfit::space::InjectionPoint {
        site: campaign.profile.sites()[0],
        kind: CollKind::Allreduce,
        rank: 0,
        invocation: 0,
        param: ParamId::SendBuf,
    };
    // MsgFaultPlan::from_bit(3): kind 3 = Delay, first send, non-sticky.
    const DELAY_BIT: u64 = 3;
    under_cpu_load(|| {
        for i in 0..20 {
            let trial = campaign.run_trial(&target, DELAY_BIT);
            assert_eq!(trial.retries, 0, "run {}: the first attempt stands", i);
            let out = trial
                .disposition
                .outcome()
                .cloned()
                .expect("a classified trial");
            assert!(out.fired, "run {}: delay must hit a message", i);
            assert_ne!(
                out.response,
                Response::InfLoop,
                "run {}: a held-but-deliverable message is not a stall",
                i
            );
            assert_eq!(out.response, Response::Success, "run {}", i);
        }
    });
}

/// A rank that keeps making logical progress but outlives the wall clock
/// is infrastructure-suspect: the supervisor must retry it with a bigger
/// budget (where it completes) — never stamp INF_LOOP on first strike.
#[test]
fn wall_clock_kill_of_progressing_rank_is_retried_not_inf_loop() {
    let run_attempt = |escalation: u32| {
        let spec = JobSpec {
            nranks: 1,
            timeout: Duration::from_millis(100) * (1u32 << escalation.min(10)),
            ..Default::default()
        };
        // ~150ms of real work in 15ms slices, each announcing progress:
        // more than the first attempt's 100ms, under half the last's 400ms.
        let app: AppFn = Arc::new(|ctx: &mut RankCtx| {
            for _ in 0..10 {
                ctx.yield_point();
                std::thread::sleep(Duration::from_millis(15));
            }
            RankOutput::new()
        });
        match run_job(&spec, app).outcome {
            JobOutcome::TimedOut {
                kind: HangKind::WallClock,
            } => AttemptOutcome::Suspect(QuarantineReason::WallClock),
            JobOutcome::TimedOut { kind } => {
                panic!("progressing rank misdiagnosed as deterministic {:?}", kind)
            }
            JobOutcome::Completed { .. } => AttemptOutcome::Trusted(TrialOutcome {
                response: Response::Success,
                fired: true,
                fatal_rank: None,
                retransmits: 0,
                events_fired: 1,
                events_lifted: 0,
            }),
            other => panic!("unexpected outcome {:?}", other),
        }
    };

    let supervised = supervise(run_attempt);
    match supervised.disposition {
        TrialDisposition::Classified(out) => {
            assert_eq!(out.response, Response::Success);
            assert!(
                supervised.retries >= 1,
                "the 100ms first attempt cannot fit 150ms of sleeping"
            );
        }
        TrialDisposition::Quarantined { attempts, reason } => panic!(
            "escalation to 400ms never fit a 150ms app: quarantined after {} attempts ({:?})",
            attempts, reason
        ),
    }
}

/// The attempt script of [`a_retry_gets_more_wall_time_never_more_op_budget`]:
/// rank 0 runs `ops` yield points before the collective (none in the
/// golden run) — or, in the one job that takes `kill_next`, makes slow
/// logical progress until the wall-clock backstop kills it.
struct BudgetScript {
    kill_next: AtomicBool,
    ops: AtomicU64,
}

fn budget_script_app(script: Arc<BudgetScript>) -> AppFn {
    Arc::new(move |ctx: &mut RankCtx| {
        if ctx.rank() == 0 {
            if script.kill_next.swap(false, Ordering::SeqCst) {
                loop {
                    ctx.yield_point();
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            for _ in 0..script.ops.load(Ordering::SeqCst) {
                ctx.yield_point();
            }
        }
        let x = ctx.allreduce_one(ctx.rank() as f64, ReduceOp::Sum, ctx.world());
        let mut out = RankOutput::new();
        out.push("x", x);
        out
    })
}

/// A retry gets a longer backstop and the same op budget: a trial that
/// runs 1.5 × the budget is `INF_LOOP` whether or not the host's speed
/// cost it an attempt first. (Were the budget doubled per retry, the
/// retried trial would complete inside 2 × the budget and classify
/// otherwise — an outcome decided by host timing.)
#[test]
fn a_retry_gets_more_wall_time_never_more_op_budget() {
    let script = Arc::new(BudgetScript {
        kill_next: AtomicBool::new(false),
        ops: AtomicU64::new(0),
    });
    let w = Workload::new("budget", budget_script_app(script.clone()), 1e-15, 2);
    let campaign = Campaign::prepare(w, CampaignConfig::default());
    script
        .ops
        .store(campaign.op_budget() * 3 / 2, Ordering::SeqCst);
    let point = campaign.points()[0];
    let unkilled = campaign.run_trial(&point, 0);
    assert_eq!(unkilled.retries, 0, "the first attempt stands");
    assert_eq!(unkilled.disposition.response(), Some(Response::InfLoop));

    script.kill_next.store(true, Ordering::SeqCst);
    let killed = campaign.run_trial(&point, 0);
    assert!(!script.kill_next.load(Ordering::SeqCst), "the script ran");
    assert_eq!(killed.retries, 1, "one wall-clock kill, one retry");
    assert_eq!(
        killed.disposition, unkilled.disposition,
        "the retry classifies as the unkilled trial"
    );
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "fastfit-supervision-{}-{}",
        tag,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn point(invocation: u64) -> fastfit::space::InjectionPoint {
    fastfit::space::InjectionPoint {
        site: CallSite {
            file: "app.rs",
            line: 3,
        },
        kind: CollKind::Allreduce,
        rank: 0,
        invocation,
        param: ParamId::SendBuf,
    }
}

/// The deterministic trial script: `(point, trial, bit, disposition)` in
/// measurement order, with quarantines interleaved among classifications.
fn trial_script() -> Vec<(fastfit::space::InjectionPoint, usize, u64, TrialDisposition)> {
    let classified = |r| {
        TrialDisposition::Classified(TrialOutcome {
            response: r,
            fired: true,
            fatal_rank: None,
            retransmits: 0,
            events_fired: 1,
            events_lifted: 0,
        })
    };
    let mut script = Vec::new();
    for (i, (inv, trial)) in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
        .into_iter()
        .enumerate()
    {
        let disposition = match i % 3 {
            1 => TrialDisposition::Quarantined {
                attempts: 3,
                reason: QuarantineReason::WallClock,
            },
            2 => classified(Response::WrongAns),
            _ => classified(Response::Success),
        };
        script.push((point(inv), trial, 1000 + 17 * i as u64, disposition));
    }
    script
}

fn script_meta() -> CampaignMeta {
    CampaignMeta {
        workload: "supervision-unit".into(),
        nranks: 2,
        app_seed: 1,
        tolerance: 0.0,
        trials_per_point: 2,
        params: "data".into(),
        campaign_seed: 7,
        fault_channel: FaultChannel::Param,
        resilient: false,
        colls: None,
        ml: None,
        point_keys: (0..3).map(|i| point_key(&point(i))).collect(),
        timeline: FaultTimeline::default(),
        class: None,
    }
}

/// Replays what it can, measures the rest (per the script), crashing
/// after `crash_after_fresh` fresh trials when given. `retry_salt` skews
/// the reported retry counts — retries are load-dependent telemetry and
/// must never leak into the journal.
fn drive_campaign(store: &CampaignStore, crash_after_fresh: Option<usize>, retry_salt: u32) {
    let mut fresh = 0;
    for (p, trial, bit, disposition) in trial_script() {
        let (d, retries, replayed) = match store.replay(&p, trial, bit) {
            Some(d) => (d, 0, true),
            None => {
                if crash_after_fresh == Some(fresh) {
                    return;
                }
                fresh += 1;
                (disposition, retry_salt + fresh as u32 % 2, false)
            }
        };
        store.on_event(&ProgressEvent::TrialFinished {
            point: &p,
            trial,
            bit,
            disposition: &d,
            retries,
            replayed,
        });
    }
}

fn journal_trials(dir: &Path) -> Vec<fastfit_store::TrialRecord> {
    read_journal(&dir.join(JOURNAL_FILE)).unwrap().trials
}

/// A campaign holding retried *and* quarantined trials, killed partway
/// and resumed, must journal exactly what an uninterrupted run journals:
/// quarantines replay as quarantines and retry counts stay out of the
/// record.
#[test]
fn killed_and_resumed_journal_with_quarantines_is_identical() {
    let dir_a = tmp_dir("uninterrupted");
    let dir_b = tmp_dir("resumed");

    let store_a = CampaignStore::open(&dir_a, script_meta()).unwrap();
    drive_campaign(&store_a, None, 0);
    store_a.finish().unwrap();

    // Crash after 3 fresh trials (one of them quarantined)...
    let store_b = CampaignStore::open(&dir_b, script_meta()).unwrap();
    drive_campaign(&store_b, Some(3), 0);
    drop(store_b);
    // ...then resume with *different* retry luck.
    let store_b = CampaignStore::open(&dir_b, script_meta()).unwrap();
    assert_eq!(store_b.replayable_trials(), 3);
    assert!(
        store_b
            .replay(&point(0), 1, 1017)
            .is_some_and(|d| matches!(d, TrialDisposition::Quarantined { .. })),
        "the journaled quarantine must replay as a quarantine"
    );
    drive_campaign(&store_b, None, 5);
    store_b.finish().unwrap();

    assert_eq!(
        journal_trials(&dir_a),
        journal_trials(&dir_b),
        "kill/resume with quarantined trials must replay to the same journal"
    );
    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}

/// Re-proof of the deadlock guarantee on the cooperative engine: the
/// coop round-epoch stall sweep (not a watchdog thread, not the wall
/// clock) must classify a genuine deadlock INF_LOOP identically on
/// every run, however saturated the host. The 120s wall backstop is the
/// tell — if the clock caught this, the 20-run loop would blow the
/// suite's time budget long before finishing.
#[test]
fn coop_deadlock_classifies_inf_loop_under_load() {
    under_cpu_load(|| {
        let mut arena = JobArena::with_engine(3, Engine::Coop);
        for i in 0..20 {
            let res = arena.run(
                &JobSpec {
                    nranks: 3,
                    timeout: Duration::from_secs(120),
                    ..Default::default()
                },
                deadlocked_app(),
            );
            let kind = match &res.outcome {
                JobOutcome::TimedOut { kind } => *kind,
                other => panic!("coop run {}: deadlock not caught: {:?}", i, other),
            };
            assert_eq!(kind, HangKind::Stalled, "coop run {}", i);
            assert!(kind.is_deterministic(), "coop run {}", i);
            assert_eq!(
                classify(&res.outcome, &[], 0.0),
                Response::InfLoop,
                "coop run {}",
                i
            );
        }
    });
}

/// A fail-slow rank makes progress — just slowly. On the coop engine
/// the injected delay parks the coroutine instead of blocking the
/// carrier, and the stall sweep must see the parked-with-a-timer rank
/// as *live*: across saturated runs on both engines the trial completes
/// SUCCESS, never INF_LOOP.
#[test]
fn fail_slow_is_never_misfiled_as_stall_on_either_engine() {
    let app = || -> AppFn {
        Arc::new(|ctx: &mut RankCtx| {
            let x = ctx.allreduce_one((ctx.rank() + 1) as f64, ReduceOp::Sum, ctx.world());
            let mut out = RankOutput::new();
            out.push("x", x);
            out
        })
    };
    for engine in [Engine::Threads, Engine::Coop] {
        let mut campaign = Campaign::prepare(
            Workload::new("failslow", app(), 1e-15, 4),
            CampaignConfig {
                fault_channel: FaultChannel::FailSlow,
                ..Default::default()
            },
        );
        campaign.pin_engine(engine);
        let target = fastfit::space::InjectionPoint {
            site: campaign.profile.sites()[0],
            kind: CollKind::Allreduce,
            rank: 0,
            invocation: 0,
            param: ParamId::SendBuf,
        };
        under_cpu_load(|| {
            for i in 0..10 {
                // Any bit decodes to a FailSlow plan (5..~50ms of delay).
                let trial = campaign.run_trial(&target, 11 + i);
                assert_eq!(
                    trial.retries,
                    0,
                    "{}: run {i}: the first attempt stands",
                    engine.name()
                );
                let out = trial
                    .disposition
                    .outcome()
                    .cloned()
                    .expect("a classified trial");
                assert!(out.fired, "{}: run {i}: fail-slow must fire", engine.name());
                assert_ne!(
                    out.response,
                    Response::InfLoop,
                    "{}: run {i}: a slow rank is not a stall",
                    engine.name()
                );
                assert_eq!(
                    out.response,
                    Response::Success,
                    "{}: run {i}",
                    engine.name()
                );
            }
        });
    }
}

/// Op budgets are the deterministic livelock bound: a spinning job must
/// exhaust its budget at the *same per-rank op ordinals* on both
/// engines — the op counter counts logical operations, never schedule
/// artifacts.
#[test]
fn op_budget_fires_at_identical_ordinals_on_both_engines() {
    let spinner = || -> AppFn {
        Arc::new(|ctx: &mut RankCtx| loop {
            ctx.allreduce_one(1.0, ReduceOp::Sum, ctx.world());
        })
    };
    let spec = JobSpec {
        nranks: 3,
        op_budget: Some(64),
        timeout: Duration::from_secs(120),
        ..Default::default()
    };
    let run_on = |engine: Engine| {
        let mut arena = JobArena::with_engine(3, engine);
        let res = arena.run(&spec, spinner());
        match &res.outcome {
            JobOutcome::TimedOut { kind } => assert_eq!(
                *kind,
                HangKind::OpBudget,
                "{}: livelock must exhaust the op budget",
                engine.name()
            ),
            other => panic!("{}: unexpected outcome {other:?}", engine.name()),
        }
        res.ops
    };
    let threads_ops = run_on(Engine::Threads);
    let coop_ops = run_on(Engine::Coop);
    // The firing ordinal — the victim's op count when the budget trips —
    // is budget+1 by construction and must be identical on both engines.
    // (Bystander ranks' teardown counts depend on where the kill flag
    // caught them, which the threaded engine cannot pin down; the coop
    // engine can, proven below.)
    assert_eq!(
        threads_ops.iter().max(),
        coop_ops.iter().max(),
        "budget must fire at the same op ordinal on both engines"
    );
    assert_eq!(coop_ops.iter().max(), Some(&65), "budget 64 fires at op 65");
    // Coop goes further: single-carrier scheduling makes even the
    // bystanders' teardown ordinals reproducible, run over run.
    let coop_again = run_on(Engine::Coop);
    assert_eq!(
        coop_ops, coop_again,
        "coop per-rank teardown ordinals must be bit-stable across runs"
    );
}
