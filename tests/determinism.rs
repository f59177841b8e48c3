//! Determinism guarantees the whole methodology rests on: identical seeds
//! must give bitwise-identical golden runs, and identical faults must give
//! identical responses — including property-based checks over fault bits.

use fastfit::prelude::*;
use fastfit_store::journal::JOURNAL_FILE;
use fastfit_store::{campaign_meta, CampaignStore};
use npb::{mg_app, MgConfig};
use proptest::prelude::*;
use simmpi::ctx::{RankCtx, RankOutput};
use simmpi::op::ReduceOp;
use simmpi::runtime::{run_job, AppFn, JobOutcome, JobSpec};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn noisy_app() -> AppFn {
    Arc::new(|ctx: &mut RankCtx| {
        use rand::Rng;
        let mut acc = 0.0f64;
        for _ in 0..4 {
            let x: f64 = ctx.rng().gen();
            acc += ctx.allreduce_one(x * 3.7, ReduceOp::Sum, ctx.world());
        }
        let mut out = RankOutput::new();
        out.push("acc", acc);
        out
    })
}

#[test]
fn golden_runs_bitwise_identical() {
    let spec = JobSpec {
        nranks: 8,
        ..Default::default()
    };
    let a = run_job(&spec, noisy_app());
    let b = run_job(&spec, noisy_app());
    match (a.outcome, b.outcome) {
        (JobOutcome::Completed { outputs: oa }, JobOutcome::Completed { outputs: ob }) => {
            for (x, y) in oa.iter().zip(&ob) {
                assert_eq!(x.scalars[0].1.to_bits(), y.scalars[0].1.to_bits());
            }
        }
        _ => panic!("must complete"),
    }
}

#[test]
fn different_seeds_differ() {
    let a = run_job(
        &JobSpec {
            nranks: 4,
            seed: 1,
            ..Default::default()
        },
        noisy_app(),
    );
    let b = run_job(
        &JobSpec {
            nranks: 4,
            seed: 2,
            ..Default::default()
        },
        noisy_app(),
    );
    match (a.outcome, b.outcome) {
        (JobOutcome::Completed { outputs: oa }, JobOutcome::Completed { outputs: ob }) => {
            assert_ne!(oa[0].scalars[0].1.to_bits(), ob[0].scalars[0].1.to_bits());
        }
        _ => panic!("must complete"),
    }
}

#[test]
fn mg_campaign_point_results_replay() {
    let w = Workload::new(
        "MG",
        mg_app(MgConfig {
            n: 8,
            cycles: 2,
            sweeps: 1,
        }),
        1e-7,
        4,
    );
    let c = Campaign::prepare(
        w,
        CampaignConfig {
            trials_per_point: 4,
            ..Default::default()
        },
    );
    let a = c.run_all();
    let b = c.run_all();
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(x.hist, y.hist, "point {:?}", x.point);
    }
}

/// Observer that persists to a store but simulates a crash (panics) after
/// a fixed budget of fresh — journal-backed — trials.
struct CrashAfter {
    store: CampaignStore,
    fresh_budget: AtomicUsize,
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
            if self.fresh_budget.fetch_sub(1, Ordering::SeqCst) == 1 {
                panic!("simulated crash mid-campaign");
            }
        }
    }
}

/// Determinism must survive a crash: a campaign killed mid-measurement and
/// resumed from its journal yields the same point histograms — bit for
/// bit — as one that ran uninterrupted.
#[test]
fn mg_campaign_killed_and_resumed_is_identical() {
    fn mg_campaign() -> Campaign {
        let w = Workload::new(
            "MG",
            mg_app(MgConfig {
                n: 8,
                cycles: 2,
                sweeps: 1,
            }),
            1e-7,
            4,
        );
        Campaign::prepare(
            w,
            CampaignConfig {
                trials_per_point: 3,
                ..Default::default()
            },
        )
    }
    let dir = std::env::temp_dir().join(format!("fastfit-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let reference = mg_campaign().run_all();

    // Kill the campaign partway in; the journal keeps what was paid for.
    let c1 = mg_campaign();
    let meta = campaign_meta(&c1, c1.points(), None);
    let crasher = CrashAfter {
        store: CampaignStore::open(&dir, meta.clone()).unwrap(),
        fresh_budget: AtomicUsize::new(4),
    };
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        c1.run_all_observed(&crasher)
    }));
    assert!(crashed.is_err(), "crash must interrupt the run");

    // Resume: replay the journal, measure the rest, merge.
    let store = CampaignStore::open(&dir, meta).unwrap();
    assert_eq!(store.replayable_trials(), 4);
    let c2 = mg_campaign();
    let resumed = c2.run_all_observed(&store);
    store.finish().unwrap();

    assert_eq!(resumed.results.len(), reference.results.len());
    for (x, y) in resumed.results.iter().zip(&reference.results) {
        assert_eq!(x.point, y.point);
        assert_eq!(x.hist, y.hist, "point {:?}", x.point);
        assert_eq!(x.fired, y.fired, "point {:?}", x.point);
        assert_eq!(x.fatal_ranks, y.fatal_ranks, "point {:?}", x.point);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The durable journal lines: meta + trial records. Phase/round records
/// carry wall-clock seconds — honest telemetry, excluded from the
/// byte-identity claim.
fn durable_journal_lines(dir: &std::path::Path) -> Vec<String> {
    std::fs::read_to_string(dir.join(JOURNAL_FILE))
        .unwrap()
        .lines()
        .filter(|l| !l.contains("\"t\":\"phase\"") && !l.contains("\"t\":\"round\""))
        .map(String::from)
        .collect()
}

/// Message-channel determinism, end to end: the same seed, config, and
/// fault channel must journal byte-identical meta and trial records —
/// including retransmit counts from the resilient transport — whether the
/// campaign runs uninterrupted or is killed and resumed.
#[test]
fn message_channel_journals_byte_identical_across_kill_resume() {
    fn msg_campaign() -> Campaign {
        let w = Workload::new("noisy", noisy_app(), 0.0, 4);
        Campaign::prepare(
            w,
            CampaignConfig {
                trials_per_point: 3,
                fault_channel: FaultChannel::Message,
                resilient: true,
                ..Default::default()
            },
        )
    }
    let dir_a = std::env::temp_dir().join(format!("fastfit-msg-det-a-{}", std::process::id()));
    let dir_b = std::env::temp_dir().join(format!("fastfit-msg-det-b-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);

    // Uninterrupted reference run.
    let c_a = msg_campaign();
    let meta = campaign_meta(&c_a, c_a.points(), None);
    assert_eq!(meta.fault_channel, FaultChannel::Message);
    assert!(meta.resilient);
    let store_a = CampaignStore::open(&dir_a, meta.clone()).unwrap();
    c_a.run_all_observed(&store_a);
    store_a.finish().unwrap();

    // Killed after 2 fresh trials, then resumed from the journal.
    let crasher = CrashAfter {
        store: CampaignStore::open(&dir_b, meta.clone()).unwrap(),
        fresh_budget: AtomicUsize::new(2),
    };
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        msg_campaign().run_all_observed(&crasher)
    }));
    assert!(crashed.is_err(), "crash must interrupt the run");
    let store_b = CampaignStore::open(&dir_b, meta).unwrap();
    assert_eq!(store_b.replayable_trials(), 2);
    msg_campaign().run_all_observed(&store_b);
    store_b.finish().unwrap();

    assert_eq!(
        durable_journal_lines(&dir_a),
        durable_journal_lines(&dir_b),
        "message-channel kill/resume must replay to a byte-identical journal"
    );
    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}

/// Timeline determinism, end to end: a burst+heal schedule keys every
/// trigger to the anchor rank's logical op counter, so a campaign killed
/// mid-measurement and resumed from its journal must replay to a
/// byte-identical journal — including the per-trial `ef`/`el` event
/// counts and resilient-transport retransmit totals.
#[test]
fn timeline_journals_byte_identical_across_kill_resume() {
    fn tl_campaign() -> Campaign {
        let w = Workload::new("noisy", noisy_app(), 0.0, 4);
        let mut cfg = CampaignConfig {
            trials_per_point: 3,
            resilient: true,
            ..Default::default()
        };
        cfg.set_timeline(FaultTimeline::parse("burst:2+heal:3").unwrap());
        Campaign::prepare(w, cfg)
    }
    let dir_a = std::env::temp_dir().join(format!("fastfit-tl-det-a-{}", std::process::id()));
    let dir_b = std::env::temp_dir().join(format!("fastfit-tl-det-b-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);

    // Uninterrupted reference run. The timeline is part of the campaign
    // identity: the meta must carry it, with the channel pinned to the
    // schedule's primary.
    let c_a = tl_campaign();
    let meta = campaign_meta(&c_a, c_a.points(), None);
    assert_eq!(meta.timeline.token(), "burst:2+heal:3");
    assert_eq!(meta.fault_channel, FaultChannel::Message);
    let store_a = CampaignStore::open(&dir_a, meta.clone()).unwrap();
    c_a.run_all_observed(&store_a);
    store_a.finish().unwrap();

    // Killed after 2 fresh trials, then resumed from the journal.
    let crasher = CrashAfter {
        store: CampaignStore::open(&dir_b, meta.clone()).unwrap(),
        fresh_budget: AtomicUsize::new(2),
    };
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        tl_campaign().run_all_observed(&crasher)
    }));
    assert!(crashed.is_err(), "crash must interrupt the run");
    let store_b = CampaignStore::open(&dir_b, meta).unwrap();
    assert_eq!(store_b.replayable_trials(), 2);
    tl_campaign().run_all_observed(&store_b);
    store_b.finish().unwrap();

    assert_eq!(
        durable_journal_lines(&dir_a),
        durable_journal_lines(&dir_b),
        "timeline kill/resume must replay to a byte-identical journal"
    );
    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, .. ProptestConfig::default()
    })]

    /// The same (point, bit) pair always classifies identically, whatever
    /// the bit — determinism is per-fault, not just per-seed.
    #[test]
    fn same_fault_same_response(bit in 0u64..10_000) {
        let w = Workload::new("noisy", noisy_app(), 0.0, 4);
        let c = Campaign::prepare(w, CampaignConfig::default());
        let point = c.points()[0];
        let (r1, f1) = c.run_trial(&point, bit);
        let (r2, f2) = c.run_trial(&point, bit);
        prop_assert_eq!(r1, r2);
        prop_assert_eq!(f1, f2);
    }

    /// Responses always land in the six Table I classes and unfired faults
    /// are always SUCCESS (the run is a replay of the golden run).
    #[test]
    fn response_taxonomy_is_total(bit in 0u64..1_000, invocation in 0u64..8) {
        let w = Workload::new("noisy", noisy_app(), 0.0, 4);
        let c = Campaign::prepare(w, CampaignConfig::default());
        let mut point = c.points()[0];
        point.invocation = invocation;
        let (resp, fired) = c.run_trial(&point, bit);
        // 4 invocations exist (0..4): beyond that the fault never fires.
        if invocation >= 4 {
            prop_assert!(!fired);
            prop_assert_eq!(resp, Response::Success);
        }
        prop_assert!(ALL_RESPONSES.contains(&resp));
    }
}
