//! End-to-end tests of the campaign service daemon (`fastfit-served`):
//! the tentpole determinism claim (a campaign run through the daemon,
//! even concurrently with another, journals byte-identically to the same
//! campaign run locally), cooperative cancellation, and `kill -9`
//! crash/restart recovery of both the submission queue and the
//! campaigns' trial journals.

use fastfit::prelude::*;
use fastfit_mlstore::{ModelRegistry, StoredModel, MODELS_DIR};
use fastfit_serve::{
    http_request, resolve_config, resolve_workload, start, CampaignSpec, ServeConfig,
};
use fastfit_store::journal::JOURNAL_FILE;
use fastfit_store::json::Json;
use fastfit_store::{campaign_meta, ml_target_token, read_store_meta, CampaignStore};
use randomforest::{ForestParams, RandomForest};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Generous deadline for a debug-build IS campaign.
const DEADLINE: Duration = Duration::from_secs(300);

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("fastfit-serve-e2e-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn serve_cfg(root: &Path) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        worker_budget: 8,
        ..ServeConfig::new(root)
    }
}

/// A small plain IS campaign on the parameter channel.
fn param_spec() -> CampaignSpec {
    let mut s = CampaignSpec::new("IS");
    s.ranks = Some(4);
    s.trials = Some(3);
    s.seed = Some(11);
    s
}

/// The same campaign shifted to the message channel on the resilient
/// transport — the second fault channel of the byte-identity claim.
fn message_spec() -> CampaignSpec {
    let mut s = param_spec();
    s.fault_channel = Some(FaultChannel::Message);
    s.resilient = Some(true);
    s
}

fn get(addr: &str, path: &str) -> fastfit_serve::Response {
    http_request(addr, "GET", path, None).expect("daemon reachable")
}

fn submit(addr: &str, spec: &CampaignSpec) -> String {
    let body = spec.to_json().encode();
    let r = http_request(
        addr,
        "POST",
        "/campaigns",
        Some(("application/json", &body)),
    )
    .expect("daemon reachable");
    assert_eq!(r.status, 201, "submission accepted: {}", r.body);
    Json::parse(&r.body)
        .unwrap()
        .get("id")
        .and_then(Json::as_str)
        .expect("receipt carries an id")
        .to_string()
}

/// Poll a campaign's status until `pred(state_token, body)` holds.
fn wait_status(addr: &str, id: &str, what: &str, pred: impl Fn(&str, &Json) -> bool) -> Json {
    let deadline = Instant::now() + DEADLINE;
    loop {
        let r = get(addr, &format!("/campaigns/{id}/status"));
        assert_eq!(r.status, 200, "{}", r.body);
        let v = Json::parse(&r.body).expect("status is JSON");
        let state = v
            .get("state")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        assert_ne!(state, "failed", "campaign {id} failed: {}", r.body);
        if pred(&state, &v) {
            return v;
        }
        assert!(
            Instant::now() < deadline,
            "campaign {id} never reached {what}; last status: {}",
            r.body
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Run `body` on its own thread and fail if it has not returned within
/// `limit`. The daemon's waits have no timeout to fall back on, so a lost
/// wakeup parks a thread for good; the limit is far above any honest run
/// and can only trip on a hang.
fn within(limit: Duration, what: &str, body: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    let t = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(limit) {
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("{what}: still not back after {limit:?}; a wakeup was lost")
        }
        // Returned, or panicked (the sender dropped): surface the panic.
        _ => {
            if let Err(panic) = t.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

/// Run `spec` locally — the exact code path `fastfit-cli campaign` takes
/// (same resolution, plain store observer) — and return its results.
fn run_local(spec: &CampaignSpec, dir: &Path) -> Vec<PointResult> {
    let c = Campaign::prepare(resolve_workload(spec), resolve_config(spec));
    let meta = campaign_meta(&c, c.points(), None);
    let store = CampaignStore::open(dir, meta).expect("open local store");
    let r = c.run_all_observed(&store);
    store.finish().expect("finish local store");
    r.results
}

/// The durable journal lines: meta + trial records. Phase/round records
/// carry wall-clock seconds — honest telemetry, excluded from the
/// byte-identity claim.
fn durable_journal_lines(dir: &Path) -> Vec<String> {
    std::fs::read_to_string(dir.join(JOURNAL_FILE))
        .expect("journal exists")
        .lines()
        .filter(|l| !l.contains("\"t\":\"phase\"") && !l.contains("\"t\":\"round\""))
        .map(String::from)
        .collect()
}

/// Two campaigns submitted together — one per fault channel, sharing the
/// daemon's rank-4 worker pool — must each journal byte-identically to a
/// serial local run of the same spec, and the daemon's `results.csv`
/// must equal the local export.
#[test]
fn concurrent_daemon_campaigns_journal_byte_identical_to_local_runs() {
    let root = tmp_dir("concurrent");
    let h = start(serve_cfg(&root)).expect("daemon starts");
    let addr = h.addr().to_string();

    let specs = [param_spec(), message_spec()];
    let ids: Vec<String> = specs.iter().map(|s| submit(&addr, s)).collect();
    for id in &ids {
        wait_status(&addr, id, "done", |state, _| state == "done");
    }

    let metrics = get(&addr, "/metrics").body;
    assert!(metrics.contains("campaigns_done 2"), "{metrics}");
    assert!(metrics.contains("campaigns_failed 0"), "{metrics}");

    for (spec, id) in specs.iter().zip(&ids) {
        let local = tmp_dir(&format!("local-{id}"));
        let results = run_local(spec, &local);
        let daemon_dir = root.join("campaigns").join(id);
        assert_eq!(
            durable_journal_lines(&daemon_dir),
            durable_journal_lines(&local),
            "daemon campaign {id} must journal byte-identically to a local run"
        );
        let channel = resolve_config(spec).fault_channel;
        let csv = get(&addr, &format!("/campaigns/{id}/results.csv"));
        assert_eq!(csv.status, 200);
        assert_eq!(
            csv.body,
            points_csv(&results, channel),
            "results.csv for {id} must equal the local export"
        );
        std::fs::remove_dir_all(&local).unwrap();
    }

    h.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// Cancelling a running campaign stops it between trials, checkpoints a
/// repairable journal, and marks the store `cancelled`; resuming that
/// journal locally completes it byte-identically to an uninterrupted run.
#[test]
fn cancelled_campaign_leaves_repairable_journal() {
    let root = tmp_dir("cancel");
    let h = start(serve_cfg(&root)).expect("daemon starts");
    let addr = h.addr().to_string();

    // The campaign parks after its third journaled trial, so the cancel
    // lands mid-flight however fast a trial is.
    h.hold_campaigns_after(3);
    let mut spec = param_spec();
    spec.trials = Some(24);
    let id = submit(&addr, &spec);
    assert!(
        h.wait_held(&id, DEADLINE),
        "campaign reached the hold after three trials"
    );
    let r = http_request(&addr, "DELETE", &format!("/campaigns/{id}"), None).unwrap();
    assert!(
        r.status == 202 || r.status == 200,
        "cancel accepted: {} {}",
        r.status,
        r.body
    );
    let last = wait_status(&addr, &id, "cancelled", |state, _| state == "cancelled");
    let journaled = last.get("trials_fresh").and_then(Json::as_u64).unwrap_or(0);
    h.shutdown();

    // Repair: resume the daemon's store directory locally to completion.
    let daemon_dir = root.join("campaigns").join(&id);
    let c = Campaign::prepare(resolve_workload(&spec), resolve_config(&spec));
    assert_eq!(journaled, 3, "the campaign stopped where it was held");
    let meta = campaign_meta(&c, c.points(), None);
    let store = CampaignStore::open(&daemon_dir, meta).expect("reopen cancelled store");
    assert_eq!(
        store.replayable_trials(),
        3,
        "cancelled journal replays its paid-for trials"
    );
    c.run_all_observed(&store);
    store.finish().expect("finish resumed store");

    let local = tmp_dir("cancel-reference");
    run_local(&spec, &local);
    assert_eq!(
        durable_journal_lines(&daemon_dir),
        durable_journal_lines(&local),
        "cancel + resume must replay to a byte-identical journal"
    );
    std::fs::remove_dir_all(&local).unwrap();
    std::fs::remove_dir_all(&root).unwrap();
}

/// A daemon with nothing to do has its accept loop blocked in `accept`
/// and its scheduler parked with no deadline. `shutdown()` must wake and
/// join both.
#[test]
fn idle_daemon_shuts_down() {
    within(
        Duration::from_secs(60),
        "shutdown of an idle daemon",
        || {
            let root = tmp_dir("idle-shutdown");
            let h = start(ServeConfig {
                max_campaigns: 0,
                ..serve_cfg(&root)
            })
            .expect("daemon starts");
            h.shutdown();
            std::fs::remove_dir_all(&root).unwrap();
        },
    );
}

/// Four clients submit 100 one-trial campaigns into two slots. Every
/// admission but the first two happens because a `finish` woke the
/// scheduler, racing the submissions that wake it too; one missed wakeup
/// leaves a campaign queued forever.
#[test]
fn hundred_concurrent_submissions_all_reach_done() {
    within(DEADLINE * 2, "100 queued campaigns", || {
        let root = tmp_dir("hundred");
        let h = start(serve_cfg(&root)).expect("daemon starts");
        let addr = h.addr().to_string();
        let clients: Vec<_> = (0..4u64)
            .map(|c| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    for i in 0..25 {
                        let mut spec = param_spec();
                        spec.ranks = Some(2);
                        spec.trials = Some(1);
                        spec.seed = Some(100 * c + i);
                        submit(&addr, &spec);
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().expect("client thread");
        }
        loop {
            let listing = Json::parse(&get(&addr, "/campaigns").body).expect("listing is JSON");
            let states: Vec<&str> = listing
                .as_arr()
                .expect("listing is an array")
                .iter()
                .filter_map(|e| e.get("state").and_then(Json::as_str))
                .collect();
            assert_eq!(states.len(), 100);
            assert!(!states.contains(&"failed"), "a campaign failed: {states:?}");
            if states.iter().all(|s| *s == "done") {
                break;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        assert!(get(&addr, "/metrics").body.contains("campaigns_done 100"));
        h.shutdown();
        std::fs::remove_dir_all(&root).unwrap();
    });
}

/// Helper process for the kill -9 test: runs a daemon on an ephemeral
/// port, publishes the bound address, and serves until killed. Ignored —
/// it is re-executed explicitly by `killed_daemon_resumes_on_restart`,
/// never run as a test.
#[test]
#[ignore = "helper process for the kill -9 test"]
fn serve_daemon_child() {
    let Ok(root) = std::env::var("FASTFIT_SERVE_ROOT") else {
        return;
    };
    let addr_file = std::env::var("FASTFIT_SERVE_ADDR_FILE").expect("addr file env");
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        worker_budget: 8,
        ..ServeConfig::new(root)
    };
    let h = start(cfg).expect("child daemon starts");
    std::fs::write(&addr_file, h.addr().to_string()).expect("publish addr");
    loop {
        std::thread::sleep(Duration::from_secs(1));
    }
}

fn spawn_daemon_child(root: &Path, addr_file: &Path) -> (std::process::Child, String) {
    let _ = std::fs::remove_file(addr_file);
    let child = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["serve_daemon_child", "--exact", "--ignored", "--nocapture"])
        .env("FASTFIT_SERVE_ROOT", root)
        .env("FASTFIT_SERVE_ADDR_FILE", addr_file)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn daemon child");
    let deadline = Instant::now() + Duration::from_secs(60);
    let addr = loop {
        if let Ok(s) = std::fs::read_to_string(addr_file) {
            if !s.is_empty() {
                break s;
            }
        }
        assert!(
            Instant::now() < deadline,
            "daemon child never published its address"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    (child, addr)
}

/// `kill -9` the daemon mid-campaign; a restarted daemon on the same
/// root recovers the submission from the queue journal, resumes the
/// campaign from its trial journal, and completes it with a journal
/// byte-identical to an uninterrupted run.
#[test]
fn killed_daemon_resumes_on_restart() {
    let root = tmp_dir("kill9");
    std::fs::create_dir_all(&root).unwrap();
    let addr_file = root.join("daemon.addr");

    let (mut child, addr) = spawn_daemon_child(&root, &addr_file);
    let mut spec = param_spec();
    spec.trials = Some(24);
    let id = submit(&addr, &spec);
    // Let it pay for some trials, then pull the plug — SIGKILL, no
    // cleanup, mid-campaign.
    wait_status(&addr, &id, "second fresh trial", |_, v| {
        v.get("trials_fresh").and_then(Json::as_u64).unwrap_or(0) >= 2
    });
    child.kill().expect("SIGKILL daemon");
    let _ = child.wait();

    // Restart on the same root: the queue owes the campaign, the store
    // journal supplies its progress.
    let (mut child, addr) = spawn_daemon_child(&root, &addr_file);
    wait_status(&addr, &id, "done after restart", |state, _| state == "done");
    let metrics = get(&addr, "/metrics").body;
    assert!(metrics.contains("campaigns_done 1"), "{metrics}");
    child.kill().expect("stop restarted daemon");
    let _ = child.wait();

    let local = tmp_dir("kill9-reference");
    run_local(&spec, &local);
    assert_eq!(
        durable_journal_lines(&root.join("campaigns").join(&id)),
        durable_journal_lines(&local),
        "killed + restarted daemon must complete a byte-identical journal"
    );
    std::fs::remove_dir_all(&local).unwrap();
    std::fs::remove_dir_all(&root).unwrap();
}

/// A registry model compatible with the daemon's ML campaigns: the
/// production feature schema and the `rate_levels:3` target that
/// `resolve_ml` assigns every spec.
fn registry_model(workload: &str, seed: u64) -> StoredModel {
    let mut x = Vec::new();
    let mut y = Vec::new();
    for i in 0..90 {
        let cls = i % 3;
        let mut f = vec![0.0; FEATURE_NAMES.len()];
        f[0] = cls as f64;
        f[1] = (i % 7) as f64 * 0.1;
        x.push(f);
        y.push(cls);
    }
    StoredModel {
        workload: workload.into(),
        channel: "param".into(),
        transport: "plain".into(),
        target: ml_target_token(MlTarget::RateLevels(3)),
        features: FEATURE_NAMES.iter().map(|s| s.to_string()).collect(),
        forest: RandomForest::fit(
            &x,
            &y,
            3,
            &ForestParams {
                n_trees: 5,
                seed,
                ..Default::default()
            },
        ),
    }
}

/// An interrupted `warm_start:"auto"` campaign must recover onto the
/// model its own journal recorded, not re-resolve `auto` against a
/// registry that has since gained newer schema-compatible models (the
/// interrupted run's own round forests, or a sibling campaign's).
/// Re-resolving would change the campaign identity and the store would
/// refuse the journal, failing the recovery.
#[test]
fn restarted_daemon_repins_warm_auto_to_the_journaled_model() {
    let root = tmp_dir("warm-auto-restart");
    std::fs::create_dir_all(&root).unwrap();
    let reg = ModelRegistry::open(&root.join(MODELS_DIR)).unwrap();
    let id_a = reg.put(&registry_model("is", 7)).unwrap();

    let h = start(serve_cfg(&root)).expect("daemon starts");
    let addr = h.addr().to_string();
    let mut spec = param_spec();
    spec.trials = Some(12);
    // Unreachable threshold: the loop keeps measuring, so the shutdown
    // below lands mid-campaign.
    spec.ml_threshold = Some(0.99);
    spec.warm_start = Some("auto".into());
    let id = submit(&addr, &spec);
    wait_status(&addr, &id, "second fresh trial", |_, v| {
        v.get("trials_fresh").and_then(Json::as_u64).unwrap_or(0) >= 2
    });
    h.shutdown();

    // The registry moves on while the campaign is down: a newer
    // compatible model lands. Recovery must not re-resolve onto it.
    reg.put(&registry_model("ft", 8)).unwrap();

    let h = start(serve_cfg(&root)).expect("daemon restarts");
    let addr = h.addr().to_string();
    wait_status(&addr, &id, "done after restart", |state, _| state == "done");
    h.shutdown();

    let (_, meta) = read_store_meta(&root.join("campaigns").join(&id)).unwrap();
    assert_eq!(
        meta.ml.and_then(|m| m.warm).as_deref(),
        Some(id_a.as_str()),
        "recovered campaign must keep its journaled warm-start prior"
    );
    std::fs::remove_dir_all(&root).unwrap();
}
