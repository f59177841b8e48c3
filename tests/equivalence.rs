//! The differential oracle's own checks, and the mechanisms it cannot
//! see in a journal. The oracle (`tests/oracle/`) plans which variants of
//! which campaign identities run; the suites that hold the plan are its
//! slices, one per test of `sched_equivalence`, `pipeline_equivalence`,
//! `prefix_equivalence`, `absorb_equivalence`, `determinism`, `serve` and
//! `fleet`. Here the
//! plan is held to covering every pair of axis values and to being held
//! whole by those suites. The tests after that check a mechanism rather
//! than a journal: the guard programs of absorption and of prefix replay,
//! and the pipeline's commit point.

mod oracle;

use fastfit::prelude::*;
use fastfit_store::journal::JOURNAL_FILE;
use fastfit_store::{campaign_meta, durable_journal_lines, journal_content_sha, CampaignStore};
use oracle::Path::{Daemon, Fleet, InProcess};
use oracle::*;
use simmpi::arena::CarrierCharge;
use simmpi::ctx::{RankCtx, RankOutput};
use simmpi::hook::{CollKind, ParamId};
use simmpi::op::ReduceOp;
use simmpi::runtime::AppFn;
use simmpi::sched::Engine;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

// ---- the plan ----

#[test]
fn the_plan_covers_every_pair_of_axis_values() {
    let ids = identities();
    let plan = plan(&ids);
    for (i, id) in ids.iter().enumerate() {
        let mine: Vec<&Variant> = plan
            .iter()
            .filter(|(j, _)| *j == i)
            .map(|(_, v)| v)
            .collect();
        assert!(mine.iter().any(|v| v.engine == Engine::Coop), "{id:?}");
        assert!(mine.iter().any(|v| v.replay), "{id:?}");
        assert!(mine.iter().all(|v| !v.split || id.splits()), "{id:?}");
        let split = |v: &&Variant| v.split && v.kill.is_none();
        assert!(!id.splits() || mine.iter().any(split), "{id:?}");
        // A served row runs through an uninterrupted daemon and a fleet;
        // no other row leaves this process.
        let daemon = |v: &&Variant| v.path == Daemon && v.kill.is_none();
        let served = [
            mine.iter().any(daemon),
            mine.iter().any(|v| v.path == Fleet),
        ];
        match id.spec() {
            Some(_) => assert_eq!(served, [true, true], "{id:?}"),
            None => assert!(mine.iter().all(|v| v.path == InProcess), "{id:?}"),
        }
        assert!(
            !mine.contains(&&REFERENCE),
            "{id:?}: a variant is the reference"
        );
    }
    let killed = |(_, v): &(usize, Variant)| v.path == Daemon && v.kill.is_some();
    assert!(plan.iter().any(killed), "a daemon is stopped and restarted");
    let covered: BTreeSet<[usize; 4]> = plan
        .iter()
        .flat_map(|(i, v)| pairs(coords(&ids[*i], v)))
        .collect();
    let missing: Vec<_> = needed_pairs().difference(&covered).copied().collect();
    assert!(missing.is_empty(), "pairs covered nowhere: {missing:?}");
}

/// Every planned run is picked by a test of some suite, every test picks
/// one at least, and each test is in its suite by the name it is picked
/// under — so no part of the plan goes unheld.
#[test]
fn every_planned_run_is_held_by_a_suite() {
    let ids = identities();
    let plan = plan(&ids);
    let slices = slices();
    for (i, v) in &plan {
        assert!(
            slices.iter().any(|s| s.picks(&ids[*i], v)),
            "{:?} as {v:?}: no suite holds it",
            ids[*i]
        );
    }
    let tests = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests");
    for s in &slices {
        assert!(
            plan.iter().any(|(i, v)| s.picks(&ids[*i], v)),
            "{}::{} picks no planned run",
            s.suite,
            s.test
        );
        let suite = std::fs::read_to_string(tests.join(format!("{}.rs", s.suite))).unwrap();
        assert!(
            suite.contains(&format!("fn {}()", s.test))
                && suite.contains(&format!("\"{}\"", s.test)),
            "{}.rs holds no test {} of its slice",
            s.suite,
            s.test
        );
    }
}

// ---- the prefix replay guard ----

/// A three-rank program the replay argument does *not* cover: the anchor
/// rank's fault reaches another rank before that rank has made a call the
/// trial would replay.
///
/// Rank 0 is a leaf of the `reduce` rooted at rank 1 (call 0): it sends
/// its contribution and leaves without a receive. It then roots the
/// `bcast` (call 1) — so it leaves that too — and sends the broadcast
/// buffer point-to-point to rank 2, which receives it *before*
/// contributing a value derived from it to call 0. A fault in the bcast's
/// buffer on rank 0 therefore changes what the root sums in call 0, a
/// call ahead of the anchor: replaying it would hand the root the golden
/// sum.
fn leaf_first_app() -> AppFn {
    Arc::new(|ctx: &mut RankCtx| {
        let w = ctx.world();
        let mut sum = [0.0f64];
        let mut buf = [1.5f64];
        match ctx.rank() {
            0 => {
                ctx.reduce(&[2.0f64], &mut sum, ReduceOp::Sum, 1, w);
                ctx.bcast(&mut buf, 0, w);
                ctx.send(&buf, 2, 9, w);
            }
            1 => {
                ctx.reduce(&[3.0f64], &mut sum, ReduceOp::Sum, 1, w);
                ctx.bcast(&mut buf, 0, w);
                // The root checks what it summed, as applications do.
                if sum[0].is_nan() || sum[0].abs() >= 1e6 {
                    ctx.abort(2, "implausible sum");
                }
            }
            _ => {
                let mut early = [0.0f64];
                ctx.recv_into(&mut early, 0, 9, w);
                ctx.reduce(&[early[0] * 4.0], &mut sum, ReduceOp::Sum, 1, w);
                ctx.bcast(&mut buf, 0, w);
            }
        }
        let mut out = RankOutput::new();
        out.push("sum", sum[0]);
        out.push("buf", buf[0]);
        out
    })
}

/// With replay on, every such trial diverges, is discarded and run again
/// without replay: outcome and fatal rank are those of the campaign that
/// never replays — a corrupted sum at the root, or the root's abort — the
/// fallback counter says how often that happened, and the supervisor's
/// retry count never hears of it.
#[test]
fn a_fault_that_outruns_the_prefix_falls_back_to_the_real_exchange() {
    let _alone = alone();
    for engine in [Engine::Threads, Engine::Coop] {
        let campaign = |replay: bool| {
            let w = Workload::new("leaf-first", leaf_first_app(), 0.0, 3);
            let mut c = Campaign::prepare(w, CampaignConfig::default());
            c.pin_engine(engine);
            c.pin_width(1);
            c.pin_replay(replay);
            c
        };
        let (with, without) = (campaign(true), campaign(false));
        let point = with.profile.records[0]
            .iter()
            .find(|r| r.kind == CollKind::Bcast)
            .map(|r| InjectionPoint {
                site: r.site,
                kind: r.kind,
                rank: 0,
                invocation: r.invocation,
                param: ParamId::SendBuf,
            })
            .expect("rank 0 broadcasts");
        assert_eq!(with.anchor(&point), Some((simmpi::comm::WORLD.0, 1)));

        // Mantissa, exponent and sign bits: small and implausible errors.
        let bits = [0u64, 17, 40, 51, 52, 55, 61, 62, 63];
        let mut responses = ResponseHistogram::new();
        for &bit in &bits {
            let got = with.run_trial(&point, bit).disposition;
            assert_eq!(got, without.run_trial(&point, bit).disposition, "bit {bit}");
            let got = got.outcome().cloned().expect("a classified trial");
            assert!(got.fired);
            assert_ne!(got.response, Response::Success, "bit {bit} reaches the sum");
            assert_eq!(
                got.fatal_rank,
                (got.response == Response::AppDetected).then_some(1),
                "bit {bit}"
            );
            responses.add(got.response);
        }
        assert!(responses.count(Response::WrongAns) > 0, "{responses:?}");
        assert!(responses.count(Response::AppDetected) > 0, "{responses:?}");
        assert_eq!(with.replay_stats().fallbacks, bits.len() as u64);
        assert_eq!(without.replay_stats().fallbacks, 0);

        // The supervised path: same measurement, no retry charged.
        let retries = CountRetries::default();
        let measured = with.measure_point(&point, 6, 99, &retries);
        let reference = without.measure_point(&point, 6, 99, &NullObserver);
        assert_eq!(measured.hist, reference.hist);
        assert_eq!(measured.fatal_ranks, reference.fatal_ranks);
        assert_eq!(retries.retries.load(Ordering::SeqCst), 0);
        assert_eq!(with.replay_stats().fallbacks, bits.len() as u64 + 6);
        // A diverged attempt's replayed calls are not counted: the job
        // that stands replayed nothing.
        assert_eq!(with.replay_stats().replayed_calls, 0);
    }
}

// ---- the absorption guards ----
//
// Each of the three rules that lets the open set empty holds only under a
// condition. Each test below builds the program that condition exists
// for — with it removed, the trial would end absorbed and journal
// `SUCCESS` — and holds the default campaign to the reference's outcome
// and fatal rank, with no trial absorbed.

/// The default campaign and the reference over one guard program.
fn guard_pair(
    name: &str,
    app: AppFn,
    nranks: usize,
    cfg: CampaignConfig,
    engine: Engine,
) -> (Campaign, Campaign) {
    let w = Workload::new(name, app, 0.0, nranks);
    let golden = Arc::new(GoldenRun::record(&w));
    let at = Variant {
        engine,
        ..REFERENCE
    };
    let default = Variant { replay: true, ..at };
    (
        campaign(&golden, w.clone(), cfg.clone(), default, None),
        campaign(&golden, w, cfg, at, None),
    )
}

/// `rank`'s first call of `kind`, as an injection point on `param`.
fn point_at(c: &Campaign, rank: usize, kind: CollKind, param: ParamId) -> InjectionPoint {
    c.profile.records[rank]
        .iter()
        .find(|r| r.kind == kind)
        .map(|r| InjectionPoint {
            site: r.site,
            kind,
            rank,
            invocation: r.invocation,
            param,
        })
        .expect("the rank makes such a call")
}

/// Every bit draw in `bits` at `point`: the default campaign must come to
/// what the reference does, absorbing nothing. Returns the responses.
fn assert_guarded(
    with: &Campaign,
    reference: &Campaign,
    point: &InjectionPoint,
    bits: &[u64],
) -> ResponseHistogram {
    let mut responses = ResponseHistogram::new();
    for &bit in bits {
        let got = with.run_trial(point, bit).disposition;
        assert_eq!(
            got,
            reference.run_trial(point, bit).disposition,
            "bit {bit}"
        );
        let got = got.outcome().cloned().expect("a classified trial");
        assert!(got.fired, "bit {bit}");
        responses.add(got.response);
    }
    let stats = checked_stats(with, true, "guard");
    assert_eq!(stats.trial_jobs, bits.len() as u64);
    assert_eq!(stats.absorbed_trials, 0, "{responses:?}");
    checked_stats(reference, false, "guard reference");
    responses
}

/// Rank 1, a non-root of the `reduce`, passes the receive buffer the call
/// left alone on to rank 2 — inside a collective (`p2p` false) or
/// point-to-point beside one — and every collective after that returns
/// the golden result on every rank.
fn untouched_buffer_app(p2p: bool) -> AppFn {
    Arc::new(move |ctx: &mut RankCtx| {
        let w = ctx.world();
        let me = ctx.rank();
        let mut sum = [7.0f64];
        ctx.reduce(&[me as f64 + 1.0], &mut sum, ReduceOp::Sum, 0, w);
        let mut got = [0.0f64];
        if p2p {
            match me {
                1 => ctx.send(&sum, 2, 5, w),
                2 => {
                    ctx.recv_into(&mut got, 1, 5, w);
                }
                _ => {}
            }
        } else {
            got = sum;
            ctx.bcast(&mut got, 1, w);
        }
        let max = ctx.allreduce_one(me as f64, ReduceOp::Max, w);
        ctx.barrier(w);
        let mut out = RankOutput::new();
        out.push("got", got[0]);
        out.push("max", max);
        out
    })
}

/// Rule (c), the overlay: a `reduce` hands a non-root no result, so a flip
/// in its receive image is written back into the user's buffer whole. The
/// call "returned the recorded result" — none — but the rank is not clean:
/// it broadcasts the flipped value next.
#[test]
fn a_flip_the_result_does_not_overwrite_stays_with_its_rank() {
    let _alone = alone();
    for engine in [Engine::Threads, Engine::Coop] {
        let (with, reference) = guard_pair(
            "untouched",
            untouched_buffer_app(false),
            3,
            CampaignConfig::default(),
            engine,
        );
        let point = point_at(&with, 1, CollKind::Reduce, ParamId::RecvBuf);
        let responses = assert_guarded(&with, &reference, &point, &[0, 17, 51, 52, 62, 63]);
        assert_eq!(responses.count(Response::WrongAns), 6, "{responses:?}");
    }
}

/// Rule (b), the entry: only taint taken *inside* a collective is settled
/// by that collective's result. Rank 2 takes rank 1's flipped buffer
/// point-to-point; the allreduce and the barrier that follow return the
/// golden result on every rank, rank 1 and rank 2 included — and clear
/// neither, because neither entered them clean.
#[test]
fn a_golden_result_does_not_clear_taint_taken_outside_its_call() {
    let _alone = alone();
    for engine in [Engine::Threads, Engine::Coop] {
        let (with, reference) = guard_pair(
            "beside",
            untouched_buffer_app(true),
            3,
            CampaignConfig::default(),
            engine,
        );
        let point = point_at(&with, 1, CollKind::Reduce, ParamId::RecvBuf);
        let responses = assert_guarded(&with, &reference, &point, &[0, 17, 51, 52, 62, 63]);
        assert_eq!(responses.count(Response::WrongAns), 6, "{responses:?}");
    }
}

/// Rule (c), by value: seven ranks broadcast from root 4, and bit 2 of
/// rank 6's `root` flips it to 0. Rank 6 hangs off rank 4 in both trees —
/// same parent, same round — so its call returns the recorded payload with
/// every image intact. But in the tree it was *meant* to be in it has a
/// child, rank 0, and in the tree it thinks it is in it has none: the
/// message that flip deleted is the one rank 0 waits for, for ever.
#[test]
fn a_root_flip_changes_which_messages_exist_and_never_heals() {
    let _alone = alone();
    let app: AppFn = Arc::new(|ctx: &mut RankCtx| {
        let w = ctx.world();
        let mut buf = [if ctx.rank() == 4 { 4.25f64 } else { 0.0 }; 2];
        ctx.bcast(&mut buf, 4, w);
        let sum = ctx.allreduce_one(buf[1], ReduceOp::Sum, w);
        let mut out = RankOutput::new();
        out.push("sum", sum);
        out
    });
    for engine in [Engine::Threads, Engine::Coop] {
        let cfg = CampaignConfig::default();
        let (with, reference) = guard_pair("root", app.clone(), 7, cfg, engine);
        let point = point_at(&with, 6, CollKind::Bcast, ParamId::Root);
        let responses = assert_guarded(&with, &reference, &point, &[2]);
        assert_eq!(responses.count(Response::InfLoop), 1, "{responses:?}");
    }
}

/// Ranks enough for the ring allgather's step number to wrap its eight
/// tag bits: step 256 of the ring carries step 0's tag.
const RING: usize = 258;

/// Rule (a), the twin: on the plain fabric the second copy of a duplicated
/// message lingers, and the next receive with the same source and tag
/// takes it *instead of* the message it was posted for. In a ring
/// allgather of 258 ranks that receive exists — so the first twin's
/// receiver is not clean merely because the bytes it got were right, and
/// the lingering copy stays in the open set until somebody consumes it.
#[test]
fn a_lingering_twin_is_consumed_by_a_later_receive_with_its_tag() {
    let _alone = alone();
    let app: AppFn = Arc::new(|ctx: &mut RankCtx| {
        let w = ctx.world();
        let mut all = vec![0.0f64; ctx.size()];
        ctx.allgather(&[ctx.rank() as f64 + 1.0], &mut all, w);
        // Position-weighted: a block in the wrong place changes it.
        let mix: f64 = all
            .iter()
            .enumerate()
            .map(|(i, v)| v * (i + 1) as f64)
            .sum();
        let mut out = RankOutput::new();
        out.push("mix", mix);
        out
    });
    for engine in [Engine::Threads, Engine::Coop] {
        let cfg = CampaignConfig {
            fault_channel: FaultChannel::Message,
            ..Default::default()
        };
        let (with, reference) = guard_pair("twin", app.clone(), RING, cfg, engine);
        let point = point_at(&with, 0, CollKind::Allgather, ParamId::SendBuf);
        // Draw 2: duplicate rank 0's first send of the call, not sticky.
        let responses = assert_guarded(&with, &reference, &point, &[2]);
        assert_eq!(responses.count(Response::WrongAns), 1, "{responses:?}");
    }
}

// ---- the pipeline's commit point ----

/// [`prefix_app`] that counts the jobs it starts once armed (after the
/// golden run), so a test can tell how far ahead of the commit point the
/// pipeline has run.
fn counting_app(armed: Arc<AtomicBool>, jobs: Arc<AtomicUsize>) -> AppFn {
    let inner = prefix_app();
    Arc::new(move |ctx: &mut RankCtx| {
        if ctx.rank() == 0 && armed.load(Ordering::SeqCst) {
            jobs.fetch_add(1, Ordering::SeqCst);
        }
        inner(ctx)
    })
}

/// kill/resume with the crash inside `on_event`, mid-pipeline: the torn
/// journal holds exactly the committed prefix — trials that had already
/// run (or were running) ahead of the crash point are absent — and the
/// resumed journal is the uninterrupted one.
#[test]
fn crash_inside_on_event_tears_at_the_commit_point_and_resumes_identically() {
    let _alone = alone();
    const CRASH_AFTER: usize = 5;
    let armed = Arc::new(AtomicBool::new(false));
    let jobs = Arc::new(AtomicUsize::new(0));
    let campaign = |width: usize| {
        armed.store(false, Ordering::SeqCst);
        let cfg = CampaignConfig {
            trials_per_point: 4,
            fault_channel: FaultChannel::Message,
            resilient: true,
            ..Default::default()
        };
        let c = synthetic_campaign(counting_app(armed.clone(), jobs.clone()), cfg, width);
        armed.store(true, Ordering::SeqCst);
        c
    };

    let dir_ref = tmp_dir("crash-ref");
    let c_ref = campaign(1);
    let meta = campaign_meta(&c_ref, c_ref.points(), None);
    let store_ref = CampaignStore::open(&dir_ref, meta.clone()).unwrap();
    c_ref.run_all_observed(&store_ref);
    store_ref.finish().unwrap();
    let reference = trial_lines(&dir_ref);
    assert!(reference.len() > CRASH_AFTER + 8, "campaign too small");

    let dir = tmp_dir("crash-w4");
    let c = campaign(4);
    jobs.store(0, Ordering::SeqCst);
    let crasher = CrashAfter {
        ahead: Some(jobs.clone()),
        ..CrashAfter::new(
            CampaignStore::open(&dir, meta.clone()).unwrap(),
            CRASH_AFTER,
        )
    };
    let crashed = catch_unwind(AssertUnwindSafe(|| c.run_all_observed(&crasher)));
    assert!(crashed.is_err(), "crash must interrupt the run");
    drop(crasher);
    assert!(
        jobs.load(Ordering::SeqCst) > CRASH_AFTER,
        "the pipeline ran ahead of the crash point"
    );
    assert_eq!(
        trial_lines(&dir),
        reference[..CRASH_AFTER],
        "the torn journal is exactly the committed prefix"
    );

    let store = CampaignStore::open(&dir, meta).unwrap();
    assert_eq!(store.replayable_trials(), CRASH_AFTER);
    campaign(4).run_all_observed(&store);
    store.finish().unwrap();
    assert_eq!(
        durable_journal_lines(&dir).unwrap(),
        durable_journal_lines(&dir_ref).unwrap(),
        "kill/resume at width 4 must replay to the width-1 journal"
    );
    assert_eq!(
        journal_content_sha(&dir).unwrap(),
        journal_content_sha(&dir_ref).unwrap()
    );
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&dir_ref).unwrap();
}

/// `hold_after(n)` parks the commit point after the `n`th fresh trial
/// while helpers fill the window behind it; the cancel that releases it
/// discards all of that: exactly `n` trials are journaled.
#[test]
fn hold_after_then_cancel_at_width_4_journals_exactly_n_trials() {
    let _alone = alone();
    const N: u64 = 5;
    let dir = tmp_dir("hold");
    let cfg = CampaignConfig {
        trials_per_point: 6,
        ..Default::default()
    };
    let c = synthetic_campaign(prefix_app(), cfg, 4);
    let token = c.cancel_token();
    token.hold_after(N);
    let store = CampaignStore::open(&dir, campaign_meta(&c, c.points(), None)).unwrap();
    let result = std::thread::scope(|s| {
        let run = s.spawn(|| c.run_all_observed(&store));
        assert!(token.wait_held(Duration::from_secs(60)), "campaign parks");
        assert_eq!(trial_lines(&dir).len() as u64, N);
        token.cancel();
        run.join().expect("campaign thread")
    });
    assert!(result.cancelled);
    assert_eq!(
        result
            .results
            .iter()
            .map(|r| r.hist.total() + r.quarantined)
            .sum::<u64>(),
        N
    );
    store.finish().unwrap();
    assert_eq!(trial_lines(&dir).len() as u64, N);
    assert_eq!(CarrierCharge::running(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The attempt script: once armed, the first two of every seventh job
/// started — first attempts and retries alike, on whichever thread runs
/// them — make logical progress forever and are ended by the wall-clock
/// backstop. Two stalls at most, so no trial can spend all three of its
/// attempts on them.
struct StallScript {
    armed: AtomicBool,
    jobs: AtomicUsize,
    stalled: AtomicUsize,
}

fn scripted_app(script: Arc<StallScript>) -> AppFn {
    let inner = prefix_app();
    Arc::new(move |ctx: &mut RankCtx| {
        if ctx.rank() == 0
            && script.armed.load(Ordering::SeqCst)
            && script.jobs.fetch_add(1, Ordering::SeqCst) % 7 == 3
            && script
                .stalled
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                    (n < 2).then_some(n + 1)
                })
                .is_ok()
        {
            loop {
                ctx.yield_point();
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        inner(ctx)
    })
}

/// A supervisor retry runs inside whichever thread claimed the trial:
/// every scripted wall-clock kill is answered by exactly one retry
/// reported with that trial, the trial commits in its canonical place with
/// the disposition an undisturbed run gives it, and `retries` stays
/// telemetry — the journal is the undisturbed width-1 one.
#[test]
fn scripted_retries_on_any_pipeline_thread_stay_out_of_the_journal() {
    let _alone = alone();
    let run = |width: usize, stalls: bool| {
        let dir = tmp_dir(&format!("retry-w{width}-{stalls}"));
        let script = Arc::new(StallScript {
            armed: AtomicBool::new(false),
            jobs: AtomicUsize::new(0),
            stalled: AtomicUsize::new(0),
        });
        let cfg = CampaignConfig {
            trials_per_point: 4,
            ..Default::default()
        };
        let c = synthetic_campaign(scripted_app(script.clone()), cfg, width);
        script.armed.store(stalls, Ordering::SeqCst);
        let store = CampaignStore::open(&dir, campaign_meta(&c, c.points(), None)).unwrap();
        let observer = CountRetries {
            store: Some(&store),
            retries: AtomicUsize::new(0),
        };
        let res = c.run_all_observed(&observer);
        store.finish().unwrap();
        assert_eq!(res.quarantined, 0, "every scripted stall is retried away");
        let journal = std::fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
        assert!(!journal.contains("retries"), "retries are never journaled");
        let lines = durable_journal_lines(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        (
            lines,
            observer.retries.load(Ordering::SeqCst),
            script.stalled.load(Ordering::SeqCst),
        )
    };
    let (reference, retries, stalled) = run(1, false);
    assert_eq!((retries, stalled), (0, 0));
    for &width in &WIDTHS {
        let (lines, retries, stalled) = run(width, true);
        assert_eq!(stalled, 2, "width {width}: the script stalls two jobs");
        assert_eq!(
            retries, stalled,
            "width {width}: one reported retry per wall-clock kill"
        );
        assert_eq!(
            lines, reference,
            "width {width}: retried trials journal like undisturbed ones"
        );
    }
}
