//! Trial-pipeline equivalence suite: running trials ahead of the commit
//! point must be an *invisible* optimisation. A campaign pinned to width
//! 1 (no helper thread: claim, run, commit, one trial after another) and
//! the same campaign pinned to widths 2 and 4 must journal byte-identical
//! meta and trial records — for every fault channel on both transports,
//! under a fault timeline, through the ML feedback loop, across a fleet
//! range split, across a crash inside `on_event`, under cancellation, and
//! when the supervisor retries a trial on whichever thread claimed it.

use fastfit::prelude::*;
use fastfit_store::journal::JOURNAL_FILE;
use fastfit_store::{
    campaign_meta, durable_journal_lines, journal_content_sha, CampaignStore, MlIdentity,
};
use randomforest::RandomForest;
use simmpi::arena::CarrierCharge;
use simmpi::ctx::{RankCtx, RankOutput};
use simmpi::op::ReduceOp;
use simmpi::runtime::AppFn;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Width 1 is the reference; 2 and 4 speculate.
const WIDTHS: [usize; 3] = [1, 2, 4];

/// Helpers claim trials only while the *process* has a carrier to spare,
/// so tests that run side by side would keep each other's helpers out.
/// Each test holds this for its whole body: the count is then its own.
fn alone() -> MutexGuard<'static, ()> {
    static ALONE: Mutex<()> = Mutex::new(());
    ALONE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("fastfit-pipeeq-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Communication-heavy app with per-rank RNG draws, in the manner of
/// `sched_equivalence`'s: any state leaking between trials that run side
/// by side would show up in the journalled outputs. Six call sites, so a
/// campaign has enough points for the pipeline to cross their boundaries.
fn noisy_app() -> AppFn {
    Arc::new(|ctx: &mut RankCtx| {
        let w = ctx.world();
        let draw = |ctx: &mut RankCtx| ctx.rng().next_f64() * 3.7;
        let mut acc = 0.0f64;
        let x = draw(ctx);
        acc += ctx.allreduce_one(x, ReduceOp::Sum, w);
        let x = draw(ctx);
        acc += ctx.allreduce_one(x + acc, ReduceOp::Max, w);
        let x = draw(ctx);
        acc += ctx.allreduce_one(x, ReduceOp::Sum, w);
        ctx.barrier(w);
        let x = draw(ctx);
        acc += ctx.allreduce_one(x * acc, ReduceOp::Min, w);
        let x = draw(ctx);
        acc += ctx.allreduce_one(x, ReduceOp::Sum, w);
        let mut out = RankOutput::new();
        out.push("acc", acc);
        out
    })
}

fn noisy_campaign(cfg: CampaignConfig, width: usize) -> Campaign {
    let mut c = Campaign::prepare(Workload::new("noisy", noisy_app(), 0.0, 4), cfg);
    c.pin_width(width);
    c
}

fn trial_lines(dir: &Path) -> Vec<String> {
    durable_journal_lines(dir)
        .unwrap()
        .into_iter()
        .filter(|l| l.contains("\"t\":\"trial\""))
        .collect()
}

/// Run one plain noisy-app campaign at `width`, journalled to a fresh
/// store. Returns the durable journal lines and the canonical SHA.
fn journal_at(tag: &str, width: usize, cfg: CampaignConfig) -> (Vec<String>, String) {
    let dir = tmp_dir(&format!("{tag}-w{width}"));
    let c = noisy_campaign(cfg, width);
    let store = CampaignStore::open(&dir, campaign_meta(&c, c.points(), None)).expect("open store");
    let res = c.run_all_observed(&store);
    assert!(!res.cancelled);
    store.finish().expect("finish store");
    let out = (
        durable_journal_lines(&dir).unwrap(),
        journal_content_sha(&dir).expect("journal sha"),
    );
    std::fs::remove_dir_all(&dir).unwrap();
    out
}

/// Every width must journal what width 1 journals.
fn assert_widths_agree(tag: &str, cfg: impl Fn() -> CampaignConfig) {
    let reference = journal_at(tag, WIDTHS[0], cfg());
    assert!(
        reference.0.len() > 1,
        "{tag}: the campaign measured nothing"
    );
    for &width in &WIDTHS[1..] {
        assert_eq!(
            journal_at(tag, width, cfg()),
            reference,
            "{tag}: journal bytes must not depend on the pipeline width ({width} vs 1)"
        );
    }
}

/// The full matrix: every fault channel × both transports.
#[test]
fn all_channels_journal_byte_identical_across_widths() {
    let _alone = alone();
    for channel in ALL_FAULT_CHANNELS {
        for resilient in [false, true] {
            assert_widths_agree(&format!("mat-{}-{resilient}", channel.token()), || {
                CampaignConfig {
                    trials_per_point: 3,
                    fault_channel: channel,
                    resilient,
                    ..Default::default()
                }
            });
        }
    }
}

/// `burst:4` arms four consecutive fault kinds per trial; nearly every
/// trial holds a message on a timer. Event counts per trial are journaled.
#[test]
fn timeline_journals_byte_identical_across_widths() {
    let _alone = alone();
    for resilient in [false, true] {
        assert_widths_agree(&format!("burst4-{resilient}"), || {
            let mut cfg = CampaignConfig {
                trials_per_point: 4,
                resilient,
                ..Default::default()
            };
            cfg.set_timeline(FaultTimeline::parse("burst:4").unwrap());
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

fn ml_campaign(width: usize) -> Campaign {
    noisy_campaign(
        CampaignConfig {
            trials_per_point: 3,
            ..Default::default()
        },
        width,
    )
}

/// One ML campaign at `width`, journalled: cold, or warm-started from
/// `prior` in entropy order.
fn ml_journal_at(tag: &str, width: usize, prior: Option<&RandomForest>) -> Vec<String> {
    let dir = tmp_dir(&format!("{tag}-w{width}"));
    let c = ml_campaign(width);
    let cfg = ml_cfg();
    let ordering = match prior {
        Some(_) => MlOrdering::Entropy,
        None => MlOrdering::Scan,
    };
    let meta = campaign_meta(
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
    c.run_ml_loop(
        c.points(),
        Campaign::point_seed,
        TARGET,
        &cfg,
        ActiveOptions { prior, ordering },
        &store,
        &mut |_, _| {},
    );
    store.finish().expect("finish store");
    let lines = durable_journal_lines(&dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    lines
}

/// The ML loop feeds the pipeline one point at a time; which points it
/// measures depends on the labels of those before, so a single trial
/// committed differently would change the whole trajectory.
#[test]
fn ml_campaign_journals_byte_identical_across_widths() {
    let _alone = alone();
    // The warm case's prior: the last forest of one unobserved cold loop.
    let mut prior = None;
    let c = ml_campaign(1);
    c.run_ml_loop(
        c.points(),
        Campaign::point_seed,
        TARGET,
        &ml_cfg(),
        ActiveOptions::default(),
        &NullObserver,
        &mut |_, forest| prior = Some(forest.clone()),
    );
    let prior = prior.expect("the loop trained a forest");
    let cold = ml_journal_at("ml-cold", 1, None);
    let warm = ml_journal_at("ml-warm", 1, Some(&prior));
    assert!(cold.len() > 1 && warm.len() > 1);
    for &width in &WIDTHS[1..] {
        assert_eq!(
            ml_journal_at("ml-cold", width, None),
            cold,
            "cold ML journal must not depend on the pipeline width ({width} vs 1)"
        );
        assert_eq!(
            ml_journal_at("ml-warm", width, Some(&prior)),
            warm,
            "warm ML journal must not depend on the pipeline width ({width} vs 1)"
        );
    }
}

/// Two fleet-style trial ranges, split at an uneven boundary *inside* a
/// point and run at width 4, appended to one store: the trial records of
/// an unsplit width-1 run.
#[test]
fn trial_ranges_split_inside_a_point_merge_to_the_serial_journal() {
    let _alone = alone();
    let cfg = || CampaignConfig {
        trials_per_point: 5,
        fault_channel: FaultChannel::Message,
        resilient: true,
        ..Default::default()
    };
    let dir_ref = tmp_dir("range-ref");
    let c = noisy_campaign(cfg(), 1);
    let meta = campaign_meta(&c, c.points(), None);
    let store = CampaignStore::open(&dir_ref, meta.clone()).unwrap();
    c.run_all_observed(&store);
    store.finish().unwrap();

    let dir = tmp_dir("range-split");
    let c = noisy_campaign(cfg(), 4);
    let total = c.trial_count();
    let split = total / 2 + 2;
    assert_ne!(split % 5, 0, "the split must fall inside a point");
    let store = CampaignStore::open(&dir, meta).unwrap();
    assert!(c.run_trial_range_observed(0, split, &store));
    assert!(c.run_trial_range_observed(split, total, &store));
    store.finish().unwrap();

    assert_eq!(trial_lines(&dir), trial_lines(&dir_ref));
    assert_eq!(
        journal_content_sha(&dir).unwrap(),
        journal_content_sha(&dir_ref).unwrap()
    );
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&dir_ref).unwrap();
}

/// `noisy_app` that counts the jobs it starts once armed (after the
/// golden run), so a test can tell how far ahead of the commit point the
/// pipeline has run.
fn counting_app(armed: Arc<AtomicBool>, jobs: Arc<AtomicUsize>) -> AppFn {
    let inner = noisy_app();
    Arc::new(move |ctx: &mut RankCtx| {
        if ctx.rank() == 0 && armed.load(Ordering::SeqCst) {
            jobs.fetch_add(1, Ordering::SeqCst);
        }
        inner(ctx)
    })
}

/// Wait (bounded) until `jobs` reaches `want`.
fn wait_for_jobs(jobs: &AtomicUsize, want: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while jobs.load(Ordering::SeqCst) < want {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

/// Observer that persists to a store but simulates a crash (panics)
/// inside `on_event` after a fixed budget of fresh trials — once the
/// pipeline is provably running ahead of that trial.
struct CrashAfter {
    store: CampaignStore,
    fresh_budget: usize,
    fresh: AtomicUsize,
    jobs: Arc<AtomicUsize>,
}

impl CampaignObserver for CrashAfter {
    fn replay(
        &self,
        point: &fastfit::space::InjectionPoint,
        trial: usize,
        bit: u64,
    ) -> Option<TrialDisposition> {
        self.store.replay(point, trial, bit)
    }

    fn on_event(&self, event: &ProgressEvent<'_>) {
        self.store.on_event(event);
        if let ProgressEvent::TrialFinished {
            replayed: false, ..
        } = event
        {
            if self.fresh.fetch_add(1, Ordering::SeqCst) + 1 == self.fresh_budget {
                assert!(
                    wait_for_jobs(&self.jobs, self.fresh_budget + 2),
                    "no trial ran ahead of the commit point"
                );
                panic!("simulated crash mid-pipeline");
            }
        }
    }
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
        let w = Workload::new("noisy", counting_app(armed.clone(), jobs.clone()), 0.0, 4);
        let mut c = Campaign::prepare(
            w,
            CampaignConfig {
                trials_per_point: 4,
                fault_channel: FaultChannel::Message,
                resilient: true,
                ..Default::default()
            },
        );
        c.pin_width(width);
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
        store: CampaignStore::open(&dir, meta.clone()).unwrap(),
        fresh_budget: CRASH_AFTER,
        fresh: AtomicUsize::new(0),
        jobs: jobs.clone(),
    };
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        c.run_all_observed(&crasher)
    }));
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
    let c = noisy_campaign(
        CampaignConfig {
            trials_per_point: 6,
            ..Default::default()
        },
        4,
    );
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
    let inner = noisy_app();
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

/// Observer that forwards to a store and adds up the `retries` it is told.
struct CountRetries<'a> {
    store: &'a CampaignStore,
    retries: AtomicUsize,
}

impl CampaignObserver for CountRetries<'_> {
    fn on_event(&self, event: &ProgressEvent<'_>) {
        if let ProgressEvent::TrialFinished { retries, .. } = event {
            self.retries.fetch_add(*retries as usize, Ordering::SeqCst);
        }
        self.store.on_event(event);
    }
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
        let mut c = Campaign::prepare(
            Workload::new("noisy", scripted_app(script.clone()), 0.0, 4),
            CampaignConfig {
                trials_per_point: 4,
                ..Default::default()
            },
        );
        c.pin_width(width);
        script.armed.store(stalls, Ordering::SeqCst);
        let store = CampaignStore::open(&dir, campaign_meta(&c, c.points(), None)).unwrap();
        let observer = CountRetries {
            store: &store,
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
