//! End-to-end store tests over a real (tiny) campaign: durability,
//! interruption mid-run, and exact resume — for both the plain
//! measurement loop and the ML feedback loop.

use fastfit::prelude::*;
use fastfit_store::journal::{read_journal, JOURNAL_FILE};
use fastfit_store::telemetry::CampaignState;
use fastfit_store::{campaign_meta, CampaignStore, MlIdentity, StatusSnapshot};
use simmpi::ctx::{RankCtx, RankOutput};
use simmpi::op::ReduceOp;
use simmpi::record::Phase;
use simmpi::runtime::AppFn;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn tiny_workload(nranks: usize) -> Workload {
    let app: AppFn = Arc::new(|ctx: &mut RankCtx| {
        ctx.set_phase(Phase::Compute);
        let mut acc = 0.0f64;
        ctx.frame("loop", |ctx| {
            for _ in 0..3 {
                acc = ctx.allreduce_one(1.0 + acc / 10.0, ReduceOp::Sum, ctx.world());
            }
        });
        ctx.set_phase(Phase::End);
        ctx.barrier(ctx.world());
        let mut out = RankOutput::new();
        out.push("acc", acc);
        out
    });
    Workload::new("store-tiny", app, 1e-9, nranks)
}

fn quick_cfg() -> CampaignConfig {
    CampaignConfig {
        trials_per_point: 6,
        ..Default::default()
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("fastfit-store-it-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn results_digest(r: &CampaignResult) -> Vec<String> {
    r.results
        .iter()
        .map(|pr| {
            format!(
                "{} {:?} fired={} fatal={:?}",
                point_key(&pr.point),
                pr.hist,
                pr.fired,
                pr.fatal_ranks
            )
        })
        .collect()
}

/// An observer that forwards to a store but panics after a budget of
/// fresh trials — simulating a campaign killed mid-measurement.
struct KillSwitch {
    store: CampaignStore,
    fresh_budget: AtomicUsize,
}

impl CampaignObserver for KillSwitch {
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
            if self.fresh_budget.fetch_sub(1, Ordering::SeqCst) == 1 {
                panic!("kill switch: simulated crash");
            }
        }
    }
}

#[test]
fn run_all_is_durable_and_resumes_exactly() {
    let dir = tmp_dir("run-all");

    // Reference: uninterrupted, storeless run.
    let c = Campaign::prepare(tiny_workload(4), quick_cfg());
    let reference = results_digest(&c.run_all());

    // First attempt: crash after 5 fresh trials.
    let c1 = Campaign::prepare(tiny_workload(4), quick_cfg());
    let meta = campaign_meta(&c1, c1.points(), None);
    let killer = KillSwitch {
        store: CampaignStore::open(&dir, meta.clone()).unwrap(),
        fresh_budget: AtomicUsize::new(5),
    };
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        c1.run_all_observed(&killer)
    }));
    assert!(crashed.is_err(), "the kill switch must fire");

    // Resume: the journal holds the 5 paid-for trials.
    let store = CampaignStore::open(&dir, meta).unwrap();
    assert_eq!(store.replayable_trials(), 5);
    let c2 = Campaign::prepare(tiny_workload(4), quick_cfg());
    let resumed = c2.run_all_observed(&store);
    store.finish().unwrap();
    assert_eq!(
        results_digest(&resumed),
        reference,
        "resumed campaign must equal the uninterrupted one"
    );

    // Telemetry separates replays from fresh work and is marked done.
    let status = StatusSnapshot::read_from(&dir).unwrap();
    assert_eq!(status.state, CampaignState::Done);
    assert_eq!(status.trials_replayed, 5);
    assert_eq!(
        status.trials_fresh + status.trials_replayed,
        status.trials_total
    );
    assert_eq!(status.points_done, c2.points().len() as u64);

    // A third open replays everything: zero fresh trials re-run.
    let store3 = CampaignStore::open(&dir, campaign_meta(&c2, c2.points(), None)).unwrap();
    assert_eq!(
        store3.replayable_trials(),
        c2.points().len() * c2.cfg.trials_per_point
    );
    let replayed_all = c2.run_all_observed(&store3);
    assert_eq!(results_digest(&replayed_all), reference);
    let snap = store3.snapshot(CampaignState::Done);
    assert_eq!(snap.trials_fresh, 0, "full replay pays for nothing");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// An observer that forwards to a store and, after every finished trial,
/// checks the store's live counts against its journal on disk.
struct Audit {
    store: CampaignStore,
    /// Trial lines the journal held when the store was opened.
    at_open: usize,
    audited: AtomicUsize,
}

impl Audit {
    fn new(store: CampaignStore) -> Audit {
        let at_open = journal_trials(store.dir());
        Audit {
            store,
            at_open,
            audited: AtomicUsize::new(0),
        }
    }
}

fn journal_trials(dir: &std::path::Path) -> usize {
    read_journal(&dir.join(JOURNAL_FILE)).unwrap().trials.len()
}

impl CampaignObserver for Audit {
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
        if let ProgressEvent::TrialFinished { .. } = event {
            let s = self.store.snapshot(CampaignState::Running);
            assert_eq!(
                s.responses.iter().sum::<u64>() + s.trials_quarantined,
                s.trials_fresh + s.trials_replayed,
                "histogram and quarantines cover every observed trial"
            );
            assert_eq!(
                s.trials_fresh as usize,
                journal_trials(self.store.dir()) - self.at_open,
                "every fresh trial counted is journaled, and no other"
            );
            self.audited.fetch_add(1, Ordering::SeqCst);
        }
    }
}

#[test]
fn status_counts_equal_the_journal_during_a_run() {
    let total = |c: &Campaign| c.points().len() * c.cfg.trials_per_point;

    // A fresh run.
    let fresh = tmp_dir("audit-fresh");
    let c = Campaign::prepare(tiny_workload(4), quick_cfg());
    let audit =
        Audit::new(CampaignStore::open(&fresh, campaign_meta(&c, c.points(), None)).unwrap());
    c.run_all_observed(&audit);
    assert_eq!(audit.audited.load(Ordering::SeqCst), total(&c));
    assert_eq!(audit.store.snapshot(CampaignState::Done).trials_replayed, 0);

    // A resumed run: 5 trials replayed, the rest fresh.
    let dir = tmp_dir("audit-resumed");
    let meta = campaign_meta(&c, c.points(), None);
    let killer = KillSwitch {
        store: CampaignStore::open(&dir, meta.clone()).unwrap(),
        fresh_budget: AtomicUsize::new(5),
    };
    let crashed =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.run_all_observed(&killer)));
    assert!(crashed.is_err(), "the kill switch must fire");
    let audit = Audit::new(CampaignStore::open(&dir, meta).unwrap());
    assert_eq!(audit.at_open, 5);
    c.run_all_observed(&audit);
    assert_eq!(audit.audited.load(Ordering::SeqCst), total(&c));
    let s = audit.store.snapshot(CampaignState::Done);
    assert_eq!(s.trials_replayed, 5);
    assert_eq!(s.trials_fresh as usize, total(&c) - 5);

    for d in [fresh, dir] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

/// The §III-C loop over the pruned points, cold, reporting to `observer`.
fn run_ml(
    c: &Campaign,
    target: MlTarget,
    ml: &MlConfig,
    observer: &dyn CampaignObserver,
) -> (CampaignResult, MlOutcome) {
    c.run_ml_loop(
        c.points(),
        Campaign::point_seed,
        target,
        ml,
        ActiveOptions::default(),
        observer,
        &mut |_, _| {},
    )
}

#[test]
fn ml_campaign_resumes_mid_loop() {
    let dir = tmp_dir("ml");
    let ml_cfg = MlConfig {
        initial_batch: 2,
        batch: 1,
        accuracy_threshold: 0.5,
        ..Default::default()
    };
    let target = MlTarget::RateLevels(2);

    // Reference trajectory.
    let c = Campaign::prepare(tiny_workload(4), quick_cfg());
    let (ref_result, ref_outcome) = run_ml(&c, target, &ml_cfg, &NullObserver);
    let reference = results_digest(&ref_result);

    // Crash partway through the feedback loop.
    let c1 = Campaign::prepare(tiny_workload(4), quick_cfg());
    let meta = campaign_meta(
        &c1,
        c1.points(),
        Some(MlIdentity {
            target,
            config: &ml_cfg,
            warm: None,
            ordering: MlOrdering::Scan,
        }),
    );
    let killer = KillSwitch {
        store: CampaignStore::open(&dir, meta.clone()).unwrap(),
        fresh_budget: AtomicUsize::new(7),
    };
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_ml(&c1, target, &ml_cfg, &killer)
    }));
    assert!(crashed.is_err());

    // Resume: the loop replays its own trajectory (same seed, same
    // labels) and continues from the first unmeasured trial.
    let store = CampaignStore::open(&dir, meta).unwrap();
    assert!(store.replayable_trials() >= 7);
    let c2 = Campaign::prepare(tiny_workload(4), quick_cfg());
    let (resumed, outcome) = run_ml(&c2, target, &ml_cfg, &store);
    store.finish().unwrap();
    assert_eq!(results_digest(&resumed), reference);
    assert_eq!(outcome.measured, ref_outcome.measured);
    assert_eq!(outcome.rounds, ref_outcome.rounds);
    assert_eq!(outcome.predicted, ref_outcome.predicted);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A `mini` journal names no class, like one written before journals
/// recorded classes; reopened for a `mini` campaign, its trials must
/// reproduce. One without classes is not checked.
#[test]
fn a_journal_without_a_class_is_checked_against_a_mini_campaign() {
    let dir = tmp_dir("class-check");
    let mut mini = tiny_workload(4);
    mini.class = Some("mini".into());
    let c = Campaign::prepare(mini, quick_cfg());
    let meta = campaign_meta(&c, c.points(), None);
    let store = CampaignStore::open(&dir, meta.clone()).unwrap();
    c.run_all_observed(&store);
    store.finish().unwrap();
    let journal = dir.join(fastfit_store::journal::JOURNAL_FILE);
    let text = std::fs::read_to_string(&journal).unwrap();
    assert!(!text.lines().next().unwrap().contains("class"));

    let reopened = CampaignStore::open(&dir, meta.clone()).unwrap();
    reopened
        .check_class(&c, c.points())
        .expect("its own trials reproduce");

    // Records no `mini` run of this campaign would write.
    std::fs::write(&journal, text.replace("\"fired\":true", "\"fired\":false")).unwrap();
    let reopened = CampaignStore::open(&dir, meta).unwrap();
    let err = reopened.check_class(&c, c.points()).unwrap_err();
    assert!(
        matches!(&err, fastfit_store::StoreError::Mismatch(m) if m.contains("records no problem class")),
        "{err}"
    );
    let classless = Campaign::prepare(tiny_workload(4), quick_cfg());
    let reopened = CampaignStore::open(&dir, campaign_meta(&classless, classless.points(), None))
        .expect("the class is not part of a mini campaign's ID");
    assert!(reopened.check_class(&classless, classless.points()).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_with_changed_config_is_refused() {
    let dir = tmp_dir("refused");
    let c = Campaign::prepare(tiny_workload(4), quick_cfg());
    CampaignStore::open(&dir, campaign_meta(&c, c.points(), None)).unwrap();

    let mut changed = quick_cfg();
    changed.trials_per_point += 1;
    let c2 = Campaign::prepare(tiny_workload(4), changed);
    let err = CampaignStore::open(&dir, campaign_meta(&c2, c2.points(), None));
    assert!(
        matches!(err, Err(fastfit_store::StoreError::Mismatch(_))),
        "a different trial count is a different campaign"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
