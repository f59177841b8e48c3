//! Absorption-equivalence suite: ending a trial the moment its fault is
//! gone — and handing it the golden outputs — must be an *invisible*
//! optimisation. A campaign pinned to the reference path (every
//! collective of every trial exchanged for real, every trial run to its
//! end, on the thread engine, one trial at a time) and the same campaign
//! as it runs by default — on both engines, at pipeline widths 1 and 2 —
//! must journal byte-identical meta and trial records: on the seven real
//! kernels for every fault channel on both transports, under fault
//! timelines, through the ML feedback loop cold and warm, across a fleet
//! range split inside a point, and across a crash and resume. The suite
//! also holds the counts to what the rules promise (every `SUCCESS` trial
//! of a message campaign on the resilient fabric absorbs; a faulty rank or
//! a partition never does; nothing ever falls back), and the guard tests
//! at the end build, for each rule that lets a rank be clean again, the
//! program its condition exists for.

use fastfit::prelude::*;
use fastfit_store::journal::JOURNAL_FILE;
use fastfit_store::{
    campaign_meta, campaign_meta_ml, journal_content_sha, CampaignStore, MlIdentity,
};
use minimd::{md_app, MdConfig};
use npb::{kernel_by_name, Class};
use randomforest::RandomForest;
use simmpi::arena::ArenaPool;
use simmpi::ctx::{RankCtx, RankOutput};
use simmpi::hook::{CollKind, ParamId, ALL_COLL_KINDS};
use simmpi::op::ReduceOp;
use simmpi::runtime::AppFn;
use simmpi::sched::Engine;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Where the reference runs: nothing replayed, nothing ended early,
/// nothing speculated.
const REFERENCE: (Engine, usize) = (Engine::Threads, 1);

/// Where a campaign running by default is held against it:
/// `(engine, width)`.
const DEFAULT: [(Engine, usize); 3] = [(Engine::Threads, 1), (Engine::Coop, 1), (Engine::Coop, 2)];

/// The kernels, at the rank count the matrix runs them at.
const KERNELS: [&str; 7] = ["IS", "FT", "MG", "LU", "CG", "HALO", "LAMMPS"];
const RANKS: usize = 16;

/// Points measured per campaign of the kernel matrix, spread evenly over
/// the pruned list (one trial each): enough to reach every call site of
/// every kernel over the matrix, few enough for a debug build.
const SAMPLE: usize = 4;

/// Helpers claim trials only while the *process* has a carrier to spare,
/// so tests that run side by side would keep each other's helpers out.
/// Each test holds this for its whole body: the count is then its own.
fn alone() -> MutexGuard<'static, ()> {
    static ALONE: Mutex<()> = Mutex::new(());
    ALONE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("fastfit-absorbeq-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn workload(kernel: &str, nranks: usize) -> Workload {
    if kernel == "LAMMPS" {
        let app = md_app(MdConfig {
            steps: 4,
            ..Default::default()
        });
        Workload::new(kernel, app, minimd::OUTPUT_TOLERANCE, nranks)
    } else {
        let (app, tolerance) = kernel_by_name(kernel, Class::Mini);
        Workload::new(kernel, app, tolerance, nranks)
    }
}

/// Every collective but `MPI_Bcast`: a flipped input broadcast can hand a
/// kernel a size it then computes on without a single MPI call, which no
/// logical detector ends (ROADMAP item 1; fitbench leaves it out alike).
fn all_but_bcast() -> Vec<CollKind> {
    ALL_COLL_KINDS
        .into_iter()
        .filter(|&k| k != CollKind::Bcast)
        .collect()
}

/// A campaign over `sample` evenly spread points of what `cfg` prunes
/// `golden` to (all of them when `None`), at `(engine, width)`: on the
/// reference path, or as campaigns run by default.
fn campaign(
    golden: &Arc<GoldenRun>,
    w: Workload,
    cfg: CampaignConfig,
    (engine, width): (Engine, usize),
    reference: bool,
    sample: Option<usize>,
) -> Campaign {
    let pool = Arc::new(ArenaPool::with_engine(w.nranks, engine));
    let mut c = Campaign::from_golden(w, cfg, golden.clone(), &NullObserver, Some(pool));
    c.pin_width(width);
    if reference {
        c.pin_replay(false);
    }
    if let Some(k) = sample.filter(|&k| k < c.points().len()) {
        let n = c.points().len();
        let keep: Vec<usize> = (0..k).map(|i| i * (n - 1) / (k - 1).max(1)).collect();
        c.context.points = keep.iter().map(|&i| c.context.points[i]).collect();
        c.context.group_sizes = keep.iter().map(|&i| c.context.group_sizes[i]).collect();
    }
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

/// What the reference must never do, and nobody ever: the reference ends
/// no trial early and replays nothing; no attempt of either falls back.
fn checked_stats(c: &Campaign, reference: bool, what: &str) -> ReplayStats {
    let stats = c.replay_stats();
    assert_eq!(stats.fallbacks, 0, "{what}: no attempt diverges");
    if reference {
        assert_eq!(
            (stats.absorbed_trials, stats.replayed_calls),
            (0, 0),
            "{what}"
        );
    }
    stats
}

/// Run one campaign to its end, journalled to a fresh store.
fn journal_of(c: &Campaign, reference: bool, what: &str) -> ((Vec<String>, String), ReplayStats) {
    let dir = tmp_dir(what);
    let store = CampaignStore::open(&dir, campaign_meta(c, c.points(), None)).expect("open store");
    let res = c.run_all_observed(&store);
    assert!(!res.cancelled);
    store.finish().expect("finish store");
    (harvest(&dir), checked_stats(c, reference, what))
}

fn successes(lines: &[String]) -> u64 {
    lines
        .iter()
        .filter(|l| l.contains("\"resp\":\"SUCCESS\""))
        .count() as u64
}

/// What one campaign of the matrix came to: `SUCCESS` trials journalled,
/// and how many trials ended at absorption (the same number on every
/// default configuration: whether a trial's open set empties does not
/// depend on the schedule).
struct Tally {
    successes: u64,
    absorbed: u64,
}

/// Every default configuration must journal what the reference does.
fn assert_absorption_invisible(
    tag: &str,
    golden: &Arc<GoldenRun>,
    w: &Workload,
    cfg: impl Fn() -> CampaignConfig,
    sample: Option<usize>,
) -> Tally {
    let what = |at: (Engine, usize)| format!("{tag}-{}-w{}", at.0.name(), at.1);
    let c = campaign(golden, w.clone(), cfg(), REFERENCE, true, sample);
    let (reference, _) = journal_of(&c, true, &format!("{}-ref", what(REFERENCE)));
    assert!(
        reference.0.len() > 1,
        "{tag}: the campaign measured nothing"
    );
    let mut absorbed = None;
    for at in DEFAULT {
        let c = campaign(golden, w.clone(), cfg(), at, false, sample);
        let (journal, stats) = journal_of(&c, false, &what(at));
        assert_eq!(
            journal,
            reference,
            "{tag}: journal bytes must not depend on where a trial ends ({} engine, width {})",
            at.0.name(),
            at.1
        );
        assert!(stats.trial_jobs + 1 >= reference.0.len() as u64, "{tag}");
        assert_eq!(
            *absorbed.get_or_insert(stats.absorbed_trials),
            stats.absorbed_trials,
            "{tag}: {at:?}"
        );
    }
    Tally {
        successes: successes(&reference.0),
        absorbed: absorbed.expect("three default runs"),
    }
}

/// The kernel matrix: seven kernels × {param `data`, param `all`, message,
/// crash-stop, fail-slow, partition} × both transports.
#[test]
fn seven_kernels_journal_byte_identical_on_every_channel_and_transport() {
    let _alone = alone();
    let mut absorbed_param_data = 0;
    for kernel in KERNELS {
        let w = workload(kernel, RANKS);
        let golden = Arc::new(GoldenRun::record(&w));
        let flavours = [
            ("data", FaultChannel::Param, ParamsMode::DataBuffer),
            ("all", FaultChannel::Param, ParamsMode::All),
            ("message", FaultChannel::Message, ParamsMode::DataBuffer),
            (
                "crash-stop",
                FaultChannel::CrashStop,
                ParamsMode::DataBuffer,
            ),
            ("fail-slow", FaultChannel::FailSlow, ParamsMode::DataBuffer),
            ("partition", FaultChannel::Partition, ParamsMode::DataBuffer),
        ];
        for (name, channel, params) in flavours {
            for resilient in [false, true] {
                let tag = format!("{kernel}-{name}-{resilient}");
                let cfg = || CampaignConfig {
                    trials_per_point: 1,
                    params: params.clone(),
                    fault_channel: channel,
                    resilient,
                    colls: Some(all_but_bcast()),
                    ..Default::default()
                };
                let t = assert_absorption_invisible(&tag, &golden, &w, cfg, Some(SAMPLE));
                assert!(t.absorbed <= t.successes, "{tag}: only a SUCCESS absorbs");
                match channel {
                    FaultChannel::Message if resilient => assert_eq!(
                        t.absorbed, t.successes,
                        "{tag}: what the fabric repairs is gone"
                    ),
                    FaultChannel::Param if name == "data" => absorbed_param_data += t.absorbed,
                    FaultChannel::Param | FaultChannel::Message => {}
                    _ => assert_eq!(t.absorbed, 0, "{tag}: a condition, not an event"),
                }
            }
        }
    }
    assert!(
        absorbed_param_data > 0,
        "a flipped buffer the result overwrites, or that no result depends on, is gone"
    );
}

/// HALO at 64 ranks under fault timelines: a burst ends absorbed once its
/// last event has had its entry and been repaired; a schedule that holds a
/// faulty rank or a partition never does.
#[test]
fn timelines_journal_byte_identical_and_only_bursts_absorb() {
    let _alone = alone();
    let w = workload("HALO", 64);
    let golden = Arc::new(GoldenRun::record(&w));
    let mut absorbed_bursts = 0;
    for (token, resilient) in [
        ("burst:4", true),
        ("burst:4", false),
        ("burst:2+heal:3", true),
        ("cascade:2", false),
        ("heal:3", true),
    ] {
        let tag = format!("tl-{token}-{resilient}");
        let cfg = || {
            let mut cfg = CampaignConfig {
                trials_per_point: 1,
                resilient,
                colls: Some(all_but_bcast()),
                ..Default::default()
            };
            cfg.set_timeline(FaultTimeline::parse(token).unwrap());
            cfg
        };
        let t = assert_absorption_invisible(&tag, &golden, &w, cfg, Some(SAMPLE));
        if token == "burst:4" {
            absorbed_bursts += t.absorbed;
        } else {
            assert_eq!(t.absorbed, 0, "{tag}: never spent");
        }
    }
    assert!(absorbed_bursts > 0, "a burst that fits the run is spent");
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

/// The campaign the ML, range-split and resume tests share: IS, every
/// point of the data-buffer campaign, three trials each.
fn is_campaign(
    golden: &Arc<GoldenRun>,
    cfg: &CampaignConfig,
    at: (Engine, usize),
    reference: bool,
) -> Campaign {
    campaign(
        golden,
        workload("IS", RANKS),
        cfg.clone(),
        at,
        reference,
        None,
    )
}

fn is_param_cfg() -> CampaignConfig {
    CampaignConfig {
        trials_per_point: 3,
        colls: Some(all_but_bcast()),
        ..Default::default()
    }
}

/// One ML campaign, journalled: cold through `run_with_ml_observed`, or
/// warm-started from `prior` in entropy order.
fn ml_journal_of(c: &Campaign, what: &str, prior: Option<&RandomForest>) -> Vec<String> {
    let dir = tmp_dir(what);
    let cfg = ml_cfg();
    let ordering = match prior {
        Some(_) => MlOrdering::Entropy,
        None => MlOrdering::Scan,
    };
    let meta = campaign_meta_ml(
        c,
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
    harvest(&dir).0
}

/// Which points the ML loop measures depends on the labels of those
/// before: a single trial classified differently would change the whole
/// trajectory, cold or warm.
#[test]
fn ml_campaigns_journal_byte_identical_cold_and_warm() {
    let _alone = alone();
    let golden = Arc::new(GoldenRun::record(&workload("IS", RANKS)));
    let cfg = is_param_cfg();
    // The warm case's prior: the last forest of one unobserved cold loop.
    let mut prior = None;
    is_campaign(&golden, &cfg, REFERENCE, true).run_with_ml_active(
        TARGET,
        &ml_cfg(),
        ActiveOptions::default(),
        &NullObserver,
        &mut |_, forest| prior = Some(forest.clone()),
    );
    let prior = prior.expect("the loop trained a forest");
    let reference = is_campaign(&golden, &cfg, REFERENCE, true);
    let cold = ml_journal_of(&reference, "ml-cold-ref", None);
    let warm = ml_journal_of(&reference, "ml-warm-ref", Some(&prior));
    checked_stats(&reference, true, "ml reference");
    assert!(cold.len() > 1 && warm.len() > 1);
    for at in DEFAULT {
        let c = is_campaign(&golden, &cfg, at, false);
        let what = format!("ml-{}-w{}", at.0.name(), at.1);
        assert_eq!(ml_journal_of(&c, &what, None), cold, "cold, {at:?}");
        assert_eq!(ml_journal_of(&c, &what, Some(&prior)), warm, "warm, {at:?}");
        assert!(
            checked_stats(&c, false, &what).absorbed_trials > 0,
            "{what}"
        );
    }
}

fn resilient_message_cfg() -> CampaignConfig {
    CampaignConfig {
        trials_per_point: 3,
        fault_channel: FaultChannel::Message,
        resilient: true,
        colls: Some(all_but_bcast()),
        ..Default::default()
    }
}

/// The un-absorbed, uninterrupted, unsplit journal of the message campaign.
fn resilient_message_reference(golden: &Arc<GoldenRun>) -> (Vec<String>, String) {
    let c = is_campaign(golden, &resilient_message_cfg(), REFERENCE, true);
    journal_of(&c, true, "resilient-message-ref").0
}

/// Two fleet-style trial ranges of a default campaign, split at an uneven
/// boundary *inside* a point and appended to one store: the journal of an
/// unsplit run that ends nothing early.
#[test]
fn trial_ranges_split_inside_a_point_merge_to_the_unabsorbed_journal() {
    let _alone = alone();
    let golden = Arc::new(GoldenRun::record(&workload("IS", RANKS)));
    let reference = resilient_message_reference(&golden);
    for at in DEFAULT {
        let what = format!("range-split-{}-w{}", at.0.name(), at.1);
        let dir = tmp_dir(&what);
        let c = is_campaign(&golden, &resilient_message_cfg(), at, false);
        let total = c.trial_count();
        // One trial into the point nearest the middle.
        let split = total / 2 / 3 * 3 + 1;
        let store = CampaignStore::open(&dir, campaign_meta(&c, c.points(), None)).unwrap();
        assert!(c.run_trial_range_observed(0, split, &store));
        assert!(c.run_trial_range_observed(split, total, &store));
        store.finish().unwrap();
        assert_eq!(harvest(&dir), reference, "{at:?}");
        let stats = checked_stats(&c, false, &what);
        assert_eq!(stats.absorbed_trials, successes(&reference.0), "{what}");
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

/// A default campaign crashed mid-measurement and resumed from its
/// journal converges to the journal of an uninterrupted run that ends
/// nothing early.
#[test]
fn crash_and_resume_matches_the_uninterrupted_unabsorbed_run() {
    let _alone = alone();
    let golden = Arc::new(GoldenRun::record(&workload("IS", RANKS)));
    let reference = resilient_message_reference(&golden);
    for at in DEFAULT {
        let what = format!("crash-resume-{}-w{}", at.0.name(), at.1);
        let dir = tmp_dir(&what);
        let c = is_campaign(&golden, &resilient_message_cfg(), at, false);
        let meta = campaign_meta(&c, c.points(), None);
        let crasher = CrashAfter {
            store: CampaignStore::open(&dir, meta.clone()).unwrap(),
            fresh_budget: AtomicUsize::new(7),
        };
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.run_all_observed(&crasher)
        }));
        assert!(crashed.is_err(), "crash must interrupt the run");
        drop(crasher);
        let store = CampaignStore::open(&dir, meta).unwrap();
        assert_eq!(store.replayable_trials(), 7);
        let c = is_campaign(&golden, &resilient_message_cfg(), at, false);
        c.run_all_observed(&store);
        store.finish().unwrap();
        assert_eq!(harvest(&dir), reference, "{at:?}");
        assert!(
            checked_stats(&c, false, &what).absorbed_trials > 0,
            "{what}"
        );
    }
}

// ---- the guards ----
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
    let at = (engine, 1);
    (
        campaign(&golden, w.clone(), cfg.clone(), at, false, None),
        campaign(&golden, w, cfg, at, true, None),
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
        let got = with.run_trial_detailed(point, bit);
        assert_eq!(got, reference.run_trial_detailed(point, bit), "bit {bit}");
        assert!(got.fired, "bit {bit}");
        responses.add(got.response);
    }
    let stats = checked_stats(with, false, "guard");
    assert_eq!(stats.trial_jobs, bits.len() as u64);
    assert_eq!(stats.absorbed_trials, 0, "{responses:?}");
    checked_stats(reference, true, "guard reference");
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
