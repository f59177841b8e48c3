//! Prefix-replay equivalence suite: returning the golden run's recorded
//! result for the collectives ahead of a trial's injection point must be
//! an *invisible* optimisation. A campaign with replay pinned off (every
//! collective of every trial exchanged for real, on the thread engine,
//! one trial at a time) and the same campaign replaying — on both
//! engines, at pipeline widths 1 and 2 — must journal byte-identical meta
//! and trial records: for every fault channel on both transports, under
//! fault timelines, through the ML feedback loop cold and warm, across a
//! fleet range split inside a point, and across a crash and resume. The
//! last test exercises the guard that makes this hold for a program the
//! argument does not cover.

use fastfit::prelude::*;
use fastfit_store::journal::JOURNAL_FILE;
use fastfit_store::{
    campaign_meta, campaign_meta_ml, journal_content_sha, CampaignStore, MlIdentity,
};
use randomforest::RandomForest;
use simmpi::ctx::{RankCtx, RankOutput};
use simmpi::hook::{CollKind, ParamId};
use simmpi::op::ReduceOp;
use simmpi::runtime::AppFn;
use simmpi::sched::Engine;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Where the reference runs: nothing replayed, nothing speculated.
const REFERENCE: (Engine, usize) = (Engine::Threads, 1);

/// Where a replaying campaign is held against it: `(engine, width)`.
const REPLAYING: [(Engine, usize); 3] =
    [(Engine::Threads, 1), (Engine::Coop, 1), (Engine::Coop, 2)];

/// Helpers claim trials only while the *process* has a carrier to spare,
/// so tests that run side by side would keep each other's helpers out.
/// Each test holds this for its whole body: the count is then its own.
fn alone() -> MutexGuard<'static, ()> {
    static ALONE: Mutex<()> = Mutex::new(());
    ALONE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("fastfit-prefixeq-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// An app with a prefix worth replaying in front of most of its points:
/// per-rank RNG draws feed seven call sites on two communicators (the
/// world and the two halves of a split, which share a handle code), with a
/// point-to-point ring between them, and every result feeds the next
/// call — a replayed result that differed from the exchanged one by a bit
/// would reach the journalled outputs.
fn prefix_app() -> AppFn {
    Arc::new(|ctx: &mut RankCtx| {
        use rand::Rng;
        let w = ctx.world();
        let (me, n) = (ctx.rank(), ctx.size());
        let draw = |ctx: &mut RankCtx| ctx.rng().gen::<f64>() * 3.7;
        let x = draw(ctx);
        let mut acc = ctx.allreduce_one(x, ReduceOp::Sum, w);
        let mut got = [0.0f64];
        ctx.sendrecv(
            &[acc + me as f64],
            (me + 1) % n,
            &mut got,
            (me + n - 1) % n,
            7,
            w,
        );
        acc += got[0];
        let half = ctx
            .comm_split(w, (me % 2) as i32, me as i32)
            .expect("a colour");
        for _ in 0..3 {
            let x = draw(ctx);
            acc += ctx.allreduce_one(x + acc / 7.0, ReduceOp::Max, half);
        }
        let mut seedling = [if me == 0 { acc } else { 0.0 }; 2];
        ctx.bcast(&mut seedling, 0, w);
        acc += seedling[1];
        let send: Vec<f64> = (0..n).map(|i| acc + i as f64).collect();
        let mut recv = vec![0.0f64; n];
        ctx.alltoall(&send, &mut recv, w);
        acc += recv.iter().sum::<f64>();
        ctx.barrier(w);
        let mut total = [0.0f64];
        ctx.reduce(&[acc], &mut total, ReduceOp::Sum, n - 1, w);
        let x = draw(ctx);
        acc += ctx.allreduce_one(x + total[0], ReduceOp::Sum, w);
        let mut out = RankOutput::new();
        out.push("acc", acc);
        out
    })
}

fn prefix_campaign(
    cfg: CampaignConfig,
    (engine, width): (Engine, usize),
    replay: bool,
) -> Campaign {
    let w = Workload::new("prefix", prefix_app(), 0.0, 4);
    let mut c = Campaign::prepare_on_engine(w, cfg, engine);
    c.pin_width(width);
    c.pin_replay(replay);
    c
}

/// The durable journal lines: meta + trial records (phase/round records
/// carry wall-clock telemetry and are excluded from byte-identity).
fn durable_journal_lines(dir: &Path) -> Vec<String> {
    std::fs::read_to_string(dir.join(JOURNAL_FILE))
        .expect("journal exists")
        .lines()
        .filter(|l| !l.contains("\"t\":\"phase\"") && !l.contains("\"t\":\"round\""))
        .map(String::from)
        .collect()
}

/// What a finished store holds, then remove it.
fn harvest(dir: &Path) -> (Vec<String>, String) {
    let out = (
        durable_journal_lines(dir),
        journal_content_sha(dir).expect("journal sha"),
    );
    std::fs::remove_dir_all(dir).unwrap();
    out
}

/// A replaying campaign on this suite's SPMD app replays something and
/// never has to fall back; one pinned off does neither.
fn assert_stats(c: &Campaign, replay: bool, what: &str) {
    let stats = c.replay_stats();
    assert_eq!(stats.fallbacks, 0, "{what}: no attempt diverges");
    assert_eq!(stats.replayed_calls > 0, replay, "{what}: {stats:?}");
    assert!(stats.log_bytes > 0, "{what}: the golden run recorded a log");
}

/// Run one plain campaign, journalled to a fresh store. Returns the
/// durable journal lines and the canonical SHA.
fn journal_at(
    tag: &str,
    at: (Engine, usize),
    replay: bool,
    cfg: CampaignConfig,
) -> (Vec<String>, String) {
    let what = format!("{tag}-{}-w{}-{replay}", at.0.name(), at.1);
    let dir = tmp_dir(&what);
    let c = prefix_campaign(cfg, at, replay);
    let store = CampaignStore::open(&dir, campaign_meta(&c, c.points(), None)).expect("open store");
    let res = c.run_all_observed(&store);
    assert!(!res.cancelled);
    store.finish().expect("finish store");
    assert_stats(&c, replay, &what);
    harvest(&dir)
}

/// Every replaying configuration must journal what the reference does.
/// Returns the reference's lines.
fn assert_replay_invisible(tag: &str, cfg: impl Fn() -> CampaignConfig) -> Vec<String> {
    let reference = journal_at(tag, REFERENCE, false, cfg());
    assert!(
        reference.0.len() > 1,
        "{tag}: the campaign measured nothing"
    );
    for at in REPLAYING {
        assert_eq!(
            journal_at(tag, at, true, cfg()),
            reference,
            "{tag}: journal bytes must not depend on prefix replay ({} engine, width {})",
            at.0.name(),
            at.1
        );
    }
    reference.0
}

/// The full matrix: every fault channel × both transports; the parameter
/// channel over every parameter, so handle, count and root flips are in.
#[test]
fn all_channels_journal_byte_identical_with_and_without_replay() {
    let _alone = alone();
    let mut unfired = 0;
    for channel in ALL_FAULT_CHANNELS {
        for resilient in [false, true] {
            let lines =
                assert_replay_invisible(&format!("mat-{}-{resilient}", channel.token()), || {
                    CampaignConfig {
                        trials_per_point: 3,
                        params: match channel {
                            FaultChannel::Param => ParamsMode::All,
                            _ => ParamsMode::DataBuffer,
                        },
                        fault_channel: channel,
                        resilient,
                        ..Default::default()
                    }
                });
            unfired += lines
                .iter()
                .filter(|l| l.contains("\"fired\":false"))
                .count();
        }
    }
    // Trials whose fault never lands (a message plan aimed past the call's
    // last send, a partition no scoped message crosses) replay their
    // prefix like any other and are part of the comparison.
    assert!(unfired > 0, "the matrix holds trials that never fired");
}

/// Timeline events past the anchor trigger on the anchor rank's count of
/// collective entries, which replayed calls tick like exchanged ones:
/// bursts, a burst riding a healing partition, and a slow-then-dead rank
/// journal the same event counts either way.
#[test]
fn timelines_journal_byte_identical_with_and_without_replay() {
    let _alone = alone();
    for (token, resilient) in [
        ("burst:4", false),
        ("burst:4", true),
        ("burst:2+heal:3", true),
        ("cascade:2", false),
    ] {
        assert_replay_invisible(&format!("tl-{token}-{resilient}"), || {
            let mut cfg = CampaignConfig {
                trials_per_point: 3,
                resilient,
                ..Default::default()
            };
            cfg.set_timeline(FaultTimeline::parse(token).unwrap());
            cfg
        });
    }
}

fn ml_cfg() -> MlConfig {
    MlConfig {
        accuracy_threshold: 0.6,
        initial_batch: 3,
        batch: 2,
        ..Default::default()
    }
}

const TARGET: MlTarget = MlTarget::RateLevels(3);

fn ml_campaign(at: (Engine, usize), replay: bool) -> Campaign {
    prefix_campaign(
        CampaignConfig {
            trials_per_point: 3,
            ..Default::default()
        },
        at,
        replay,
    )
}

/// One ML campaign, journalled: cold through `run_with_ml_observed`, or
/// warm-started from `prior` in entropy order.
fn ml_journal_at(
    tag: &str,
    at: (Engine, usize),
    replay: bool,
    prior: Option<&RandomForest>,
) -> Vec<String> {
    let what = format!("{tag}-{}-w{}-{replay}", at.0.name(), at.1);
    let dir = tmp_dir(&what);
    let c = ml_campaign(at, replay);
    let cfg = ml_cfg();
    let ordering = match prior {
        Some(_) => MlOrdering::Entropy,
        None => MlOrdering::Scan,
    };
    let meta = campaign_meta_ml(
        &c,
        c.points(),
        Some(MlIdentity {
            target: TARGET,
            config: &cfg,
            warm: prior.map(|_| "a".repeat(64)),
            ordering,
        }),
    );
    let store = CampaignStore::open(&dir, meta).expect("open store");
    match prior {
        None => c.run_with_ml_observed(TARGET, &cfg, &store),
        Some(_) => c.run_with_ml_active(
            TARGET,
            &cfg,
            ActiveOptions { prior, ordering },
            &store,
            &mut |_, _| {},
        ),
    };
    store.finish().expect("finish store");
    assert_stats(&c, replay, &what);
    harvest(&dir).0
}

/// Which points the ML loop measures depends on the labels of those
/// before: a single trial classified differently would change the whole
/// trajectory, cold or warm.
#[test]
fn ml_campaigns_journal_byte_identical_with_and_without_replay() {
    let _alone = alone();
    // The warm case's prior: the last forest of one unobserved cold loop.
    let mut prior = None;
    ml_campaign(REFERENCE, false).run_with_ml_active(
        TARGET,
        &ml_cfg(),
        ActiveOptions::default(),
        &NullObserver,
        &mut |_, forest| prior = Some(forest.clone()),
    );
    let prior = prior.expect("the loop trained a forest");
    let cold = ml_journal_at("ml-cold", REFERENCE, false, None);
    let warm = ml_journal_at("ml-warm", REFERENCE, false, Some(&prior));
    assert!(cold.len() > 1 && warm.len() > 1);
    for at in REPLAYING {
        assert_eq!(
            ml_journal_at("ml-cold", at, true, None),
            cold,
            "cold ML journal must not depend on prefix replay ({at:?})"
        );
        assert_eq!(
            ml_journal_at("ml-warm", at, true, Some(&prior)),
            warm,
            "warm ML journal must not depend on prefix replay ({at:?})"
        );
    }
}

fn resilient_message_cfg() -> CampaignConfig {
    CampaignConfig {
        trials_per_point: 5,
        fault_channel: FaultChannel::Message,
        resilient: true,
        ..Default::default()
    }
}

/// Two fleet-style trial ranges of a replaying campaign, split at an
/// uneven boundary *inside* a point and appended to one store: the
/// journal of an unsplit run that replays nothing.
#[test]
fn trial_ranges_split_inside_a_point_merge_to_the_unreplayed_journal() {
    let _alone = alone();
    let dir_ref = tmp_dir("range-ref");
    let c = prefix_campaign(resilient_message_cfg(), REFERENCE, false);
    let meta = campaign_meta(&c, c.points(), None);
    let store = CampaignStore::open(&dir_ref, meta.clone()).unwrap();
    c.run_all_observed(&store);
    store.finish().unwrap();
    let reference = harvest(&dir_ref);

    for at in REPLAYING {
        let dir = tmp_dir(&format!("range-split-{}-w{}", at.0.name(), at.1));
        let c = prefix_campaign(resilient_message_cfg(), at, true);
        let total = c.trial_count();
        let split = total / 2 + 2;
        assert_ne!(split % 5, 0, "the split must fall inside a point");
        let store = CampaignStore::open(&dir, meta.clone()).unwrap();
        assert!(c.run_trial_range_observed(0, split, &store));
        assert!(c.run_trial_range_observed(split, total, &store));
        store.finish().unwrap();
        assert_stats(&c, true, "range split");
        assert_eq!(harvest(&dir), reference, "{at:?}");
    }
}

/// Observer that persists to a store but simulates a crash (panics)
/// after a fixed budget of fresh — journal-backed — trials.
struct CrashAfter {
    store: CampaignStore,
    fresh_budget: AtomicUsize,
}

impl CampaignObserver for CrashAfter {
    fn replay(&self, point: &InjectionPoint, trial: usize, bit: u64) -> Option<TrialDisposition> {
        self.store.replay(point, trial, bit)
    }

    fn on_event(&self, event: &ProgressEvent<'_>) {
        self.store.on_event(event);
        if let ProgressEvent::TrialFinished {
            replayed: false, ..
        } = event
        {
            if self.fresh_budget.fetch_sub(1, Ordering::SeqCst) == 1 {
                panic!("simulated crash mid-campaign");
            }
        }
    }
}

/// A replaying campaign crashed mid-measurement and resumed from its
/// journal converges to the journal of an uninterrupted run that replays
/// nothing.
#[test]
fn kill_resume_with_replay_matches_the_uninterrupted_unreplayed_run() {
    let _alone = alone();
    let dir_ref = tmp_dir("killresume-ref");
    let c = prefix_campaign(resilient_message_cfg(), REFERENCE, false);
    let meta = campaign_meta(&c, c.points(), None);
    let store = CampaignStore::open(&dir_ref, meta.clone()).unwrap();
    c.run_all_observed(&store);
    store.finish().unwrap();
    let reference = harvest(&dir_ref);

    for at in REPLAYING {
        let dir = tmp_dir(&format!("killresume-{}-w{}", at.0.name(), at.1));
        let crasher = CrashAfter {
            store: CampaignStore::open(&dir, meta.clone()).unwrap(),
            fresh_budget: AtomicUsize::new(7),
        };
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            prefix_campaign(resilient_message_cfg(), at, true).run_all_observed(&crasher)
        }));
        assert!(crashed.is_err(), "crash must interrupt the run");
        drop(crasher);
        let store = CampaignStore::open(&dir, meta.clone()).unwrap();
        assert_eq!(store.replayable_trials(), 7);
        let c = prefix_campaign(resilient_message_cfg(), at, true);
        c.run_all_observed(&store);
        store.finish().unwrap();
        assert_stats(&c, true, "resume");
        assert_eq!(harvest(&dir), reference, "{at:?}");
    }
}

// ---- the guard ----

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

/// Observer adding up the retries it is told about.
#[derive(Default)]
struct CountRetries(AtomicUsize);

impl CampaignObserver for CountRetries {
    fn on_event(&self, event: &ProgressEvent<'_>) {
        if let ProgressEvent::TrialFinished { retries, .. } = event {
            self.0.fetch_add(*retries as usize, Ordering::SeqCst);
        }
    }
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
            let mut c = Campaign::prepare_on_engine(w, CampaignConfig::default(), engine);
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
            let got = with.run_trial_detailed(&point, bit);
            assert_eq!(got, without.run_trial_detailed(&point, bit), "bit {bit}");
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
        let measured = with.measure_point_observed(&point, 6, 99, &retries);
        let reference = without.measure_point(&point, 6, 99);
        assert_eq!(measured.hist, reference.hist);
        assert_eq!(measured.fatal_ranks, reference.fatal_ranks);
        assert_eq!(retries.0.load(Ordering::SeqCst), 0);
        assert_eq!(with.replay_stats().fallbacks, bits.len() as u64 + 6);
        // A diverged attempt's replayed calls are not counted: the job
        // that stands replayed nothing.
        assert_eq!(with.replay_stats().replayed_calls, 0);
    }
}
