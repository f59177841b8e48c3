//! Scheduler-equivalence torture suite: the cooperative rank scheduler
//! must be an *invisible* optimisation. A campaign pinned to the coop
//! engine and one pinned to the thread-per-rank engine must journal
//! byte-identical meta and trial records — same outcomes, same
//! retransmit counts, same fatal attribution, same op ordinals — for
//! every fault channel, on both transports, under fault timelines,
//! across kill -9/resume, and across a fleet range-shard split. This is
//! what makes it honest to exclude the scheduler from campaign identity.

use fastfit::prelude::*;
use fastfit_serve::{
    http_request, http_request_retry, resolve_config, resolve_workload, run_worker, start,
    CampaignSpec, ServeConfig, WorkerConfig,
};
use fastfit_store::journal::JOURNAL_FILE;
use fastfit_store::json::Json;
use fastfit_store::{campaign_meta, journal_content_sha, CampaignStore};
use simmpi::ctx::{RankCtx, RankOutput};
use simmpi::op::ReduceOp;
use simmpi::runtime::AppFn;
use simmpi::sched::Engine;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Both engines, always compared in this order.
const ENGINES: [Engine; 2] = [Engine::Threads, Engine::Coop];

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("fastfit-schedeq-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Communication-heavy app with per-rank RNG draws: any divergence in
/// scheduling-visible state (message order, reduction order, RNG
/// streams) shows up in the journalled outputs.
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

/// Run one noisy-app campaign pinned to `engine`, journalled to a fresh
/// store. Returns the durable journal lines and the canonical SHA.
fn journal_on(tag: &str, engine: Engine, cfg: CampaignConfig) -> (Vec<String>, String) {
    let dir = tmp_dir(&format!("{tag}-{}", engine.name()));
    let w = Workload::new("noisy", noisy_app(), 0.0, 4);
    let c = Campaign::prepare_on_engine(w, cfg, engine);
    let meta = campaign_meta(&c, c.points(), None);
    let store = CampaignStore::open(&dir, meta).expect("open store");
    c.run_all_observed(&store);
    store.finish().expect("finish store");
    let lines = durable_journal_lines(&dir);
    let sha = journal_content_sha(&dir).expect("journal sha");
    std::fs::remove_dir_all(&dir).unwrap();
    (lines, sha)
}

/// The full matrix: every fault channel × both transports must journal
/// byte-identical records (and the same canonical SHA) on both engines.
#[test]
fn all_channels_journal_byte_identical_across_engines() {
    for channel in ALL_FAULT_CHANNELS {
        for resilient in [false, true] {
            let cfg = || CampaignConfig {
                trials_per_point: 2,
                fault_channel: channel,
                resilient,
                ..Default::default()
            };
            let (threads, sha_t) = journal_on(
                &format!("mat-{}-{}", channel.token(), resilient),
                Engine::Threads,
                cfg(),
            );
            let (coop, sha_c) = journal_on(
                &format!("mat-{}-{}", channel.token(), resilient),
                Engine::Coop,
                cfg(),
            );
            assert_eq!(
                threads, coop,
                "journal bytes must not depend on the rank scheduler \
                 (channel {:?}, resilient {resilient})",
                channel
            );
            assert_eq!(
                sha_t, sha_c,
                "canonical journal SHA must not depend on the rank scheduler \
                 (channel {:?}, resilient {resilient})",
                channel
            );
        }
    }
}

/// Timeline schedules key every trigger to logical op counters, so a
/// burst + heal schedule must fire at the same ordinals — and journal
/// the same per-trial event counts — on both engines.
#[test]
fn timeline_journals_byte_identical_across_engines() {
    let cfg = || {
        let mut cfg = CampaignConfig {
            trials_per_point: 3,
            resilient: true,
            ..Default::default()
        };
        cfg.set_timeline(FaultTimeline::parse("burst:2+heal:3").unwrap());
        cfg
    };
    let journals: Vec<_> = ENGINES
        .iter()
        .map(|&e| journal_on("timeline", e, cfg()))
        .collect();
    assert_eq!(
        journals[0], journals[1],
        "burst+heal timeline journal must not depend on the rank scheduler"
    );
}

/// Timers are where the engines differ most: the threaded engine waits
/// a held message's `MSG_DELAY` and a fail-slow stall out on the wall
/// clock, the coop engine jumps its logical clock over them. Message
/// draws (a fifth of them delays), fail-slow stalls and `burst:4` (four
/// consecutive fault kinds per trial, so nearly every trial holds a
/// message) must journal the same bytes either way, on both transports.
#[test]
fn timer_faults_journal_byte_identical_across_engines() {
    let cases: [(&str, FaultChannel, Option<&str>); 3] = [
        ("delay", FaultChannel::Message, None),
        ("failslow", FaultChannel::FailSlow, None),
        ("burst4", FaultChannel::Message, Some("burst:4")),
    ];
    for (tag, channel, timeline) in cases {
        for resilient in [false, true] {
            let cfg = || {
                let mut cfg = CampaignConfig {
                    trials_per_point: 4,
                    fault_channel: channel,
                    resilient,
                    ..Default::default()
                };
                if let Some(t) = timeline {
                    cfg.set_timeline(FaultTimeline::parse(t).unwrap());
                }
                cfg
            };
            let journals: Vec<_> = ENGINES
                .iter()
                .map(|&e| journal_on(&format!("timer-{tag}-{resilient}"), e, cfg()))
                .collect();
            assert_eq!(
                journals[0], journals[1],
                "{tag} journal must not depend on the rank scheduler (resilient {resilient})"
            );
        }
    }
}

/// Observer that persists to a store but simulates a crash (panics)
/// after a fixed budget of fresh — journal-backed — trials.
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

/// kill -9/resume on the coop engine: a coop campaign crashed
/// mid-measurement and resumed from its journal must converge to the
/// byte-identical journal of an uninterrupted *threaded* run — crash
/// recovery and engine exclusion proven in one shot.
#[test]
fn coop_kill_resume_matches_uninterrupted_threaded_run() {
    let campaign = |engine: Engine| {
        let w = Workload::new("noisy", noisy_app(), 0.0, 4);
        Campaign::prepare_on_engine(
            w,
            CampaignConfig {
                trials_per_point: 3,
                fault_channel: FaultChannel::Message,
                resilient: true,
                ..Default::default()
            },
            engine,
        )
    };

    // Uninterrupted threaded reference.
    let dir_ref = tmp_dir("killresume-ref");
    let c_ref = campaign(Engine::Threads);
    let meta = campaign_meta(&c_ref, c_ref.points(), None);
    let store_ref = CampaignStore::open(&dir_ref, meta.clone()).unwrap();
    c_ref.run_all_observed(&store_ref);
    store_ref.finish().unwrap();

    // Coop run killed after 2 fresh trials, then resumed on coop.
    let dir = tmp_dir("killresume-coop");
    let crasher = CrashAfter {
        store: CampaignStore::open(&dir, meta.clone()).unwrap(),
        fresh_budget: AtomicUsize::new(2),
    };
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        campaign(Engine::Coop).run_all_observed(&crasher)
    }));
    assert!(crashed.is_err(), "crash must interrupt the run");
    let store = CampaignStore::open(&dir, meta).unwrap();
    assert_eq!(store.replayable_trials(), 2);
    campaign(Engine::Coop).run_all_observed(&store);
    store.finish().unwrap();

    assert_eq!(
        durable_journal_lines(&dir),
        durable_journal_lines(&dir_ref),
        "coop kill/resume must replay to the threaded reference journal"
    );
    assert_eq!(
        journal_content_sha(&dir).unwrap(),
        journal_content_sha(&dir_ref).unwrap(),
    );
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&dir_ref).unwrap();
}

// ---- fleet range-shard equality on the coop engine ----

const DEADLINE: Duration = Duration::from_secs(300);

fn submit(addr: &str, spec: &CampaignSpec) -> String {
    let body = spec.to_json().encode();
    let r = http_request(
        addr,
        "POST",
        "/campaigns",
        Some(("application/json", &body)),
    )
    .expect("daemon reachable");
    assert_eq!(r.status, 201, "{}", r.body);
    Json::parse(&r.body)
        .unwrap()
        .get("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string()
}

fn wait_done(addr: &str, id: &str) {
    let deadline = Instant::now() + DEADLINE;
    loop {
        let r = http_request_retry(addr, "GET", &format!("/campaigns/{id}/status"), None, 6)
            .expect("daemon reachable");
        if r.status == 200 {
            if let Ok(j) = Json::parse(&r.body) {
                if j.get("state").and_then(|s| s.as_str()) == Some("done") {
                    return;
                }
            }
        }
        assert!(Instant::now() < deadline, "campaign did not finish");
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Two coop workers lease trial ranges of one campaign from a coop
/// coordinator; the merged journal must be byte-identical to a local
/// run pinned to the *threaded* engine — the range split and the
/// scheduler are both invisible.
#[test]
fn fleet_range_shard_on_coop_matches_threaded_local_run() {
    let root = tmp_dir("fleet-coop");
    let h = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        worker_budget: 8,
        fleet: true,
        lease_trials: 4,
        lease_ttl: Duration::from_secs(3),
        ..ServeConfig::new(&root)
    })
    .expect("coordinator starts");
    let addr = h.addr().to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = ["coop-a", "coop-b"]
        .iter()
        .map(|n| {
            let cfg = WorkerConfig::new(&addr, *n);
            let stop = stop.clone();
            std::thread::Builder::new()
                .name(format!("fleet-worker-{n}"))
                .spawn(move || {
                    let stop_fn = move || stop.load(Ordering::SeqCst);
                    run_worker(&cfg, &stop_fn).expect("worker loop")
                })
                .expect("spawn worker thread")
        })
        .collect();

    let mut spec = CampaignSpec::new("IS");
    spec.ranks = Some(4);
    spec.trials = Some(3);
    spec.seed = Some(11);
    let id = submit(&addr, &spec);
    wait_done(&addr, &id);
    let daemon_dir = root.join("campaigns").join(&id);

    // Threaded local reference of the same spec.
    let local = tmp_dir("fleet-coop-local");
    let c = Campaign::prepare_on_engine(
        resolve_workload(&spec),
        resolve_config(&spec),
        Engine::Threads,
    );
    let meta = campaign_meta(&c, c.points(), None);
    let store = CampaignStore::open(&local, meta).expect("open local store");
    c.run_all_observed(&store);
    store.finish().expect("finish local store");

    assert_eq!(
        durable_journal_lines(&daemon_dir),
        durable_journal_lines(&local),
        "coop fleet journal must be byte-identical to a threaded local run"
    );
    assert_eq!(
        journal_content_sha(&daemon_dir).unwrap(),
        journal_content_sha(&local).unwrap(),
        "canonical journal SHA must match across shard split and scheduler"
    );

    stop.store(true, Ordering::SeqCst);
    for w in workers {
        w.join().expect("worker thread");
    }
    h.shutdown();
    std::fs::remove_dir_all(&local).unwrap();
    std::fs::remove_dir_all(&root).unwrap();
}
