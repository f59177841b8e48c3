//! End-to-end tests of the campaign service daemon (`fastfit-cli serve`):
//! the tentpole determinism claim (a campaign run through the daemon,
//! even concurrently with another, or stopped and restarted, journals
//! byte-identically to the reference run of its spec: the daemon path of
//! the differential oracle in `tests/oracle/`), cooperative cancellation,
//! and `kill -9` crash/restart recovery of both the submission queue and
//! the campaigns' trial journals.

mod oracle;

use fastfit::prelude::*;
use fastfit_mlstore::{ModelRegistry, StoredModel, MODELS_DIR};
use fastfit_serve::{
    http_request, resolve_config, resolve_ml, resolve_workload, start, CampaignRun, CampaignSpec,
    PointSet, Ran, ServeConfig, RESULTS_FILE,
};
use fastfit_store::json::Json;
use fastfit_store::{
    campaign_meta, ml_target_token, read_store_meta, CampaignState, CampaignStore, MlIdentity,
    StatusSnapshot,
};
use npb::Class;
use oracle::*;
use randomforest::{ForestParams, RandomForest};
use std::path::Path;
use std::time::{Duration, Instant};

/// The oracle's uninterrupted daemon runs, submitted to one daemon at
/// once: two campaigns share its rank-4 worker pool, and each journals
/// its reference's lines and serves its reference's `results.csv`.
#[test]
fn concurrent_daemon_campaigns_journal_byte_identical_to_local_runs() {
    hold_slice(
        module_path!(),
        "concurrent_daemon_campaigns_journal_byte_identical_to_local_runs",
    );
}

/// The oracle's daemon kills: a campaign held after a few trials, the
/// daemon shut down under it and started again on the same root, resumes
/// from its journal to its reference's lines and `results.csv`.
#[test]
fn daemon_stopped_mid_campaign_resumes_byte_identical_on_restart() {
    hold_slice(
        module_path!(),
        "daemon_stopped_mid_campaign_resumes_byte_identical_on_restart",
    );
}

/// Cancelling a running campaign stops it between trials, checkpoints a
/// repairable journal, and marks the store `cancelled`; resuming that
/// journal locally completes it to its reference's journal.
#[test]
fn cancelled_campaign_leaves_repairable_journal() {
    let root = tmp_dir("cancel");
    let h = start(serve_cfg(&root)).expect("daemon starts");
    let addr = h.addr().to_string();

    // The campaign parks after its third journaled trial, so the cancel
    // lands mid-flight however fast a trial is.
    h.hold_campaigns_after(3);
    let spec = param_spec();
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
    assert_reference(&spec, &daemon_dir);
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

/// Helper process for the child-daemon tests: runs a daemon on an
/// ephemeral port, publishes the bound address, and serves until killed.
/// Ignored — it is re-executed explicitly by [`spawn_daemon_child`],
/// never run as a test.
#[test]
#[ignore = "helper process for the kill -9 test"]
fn serve_daemon_child() {
    let Ok(root) = std::env::var("FASTFIT_SERVE_ROOT") else {
        return;
    };
    let addr_file = std::env::var("FASTFIT_SERVE_ADDR_FILE").expect("addr file env");
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        worker_budget: 8,
        ..ServeConfig::new(root)
    };
    if std::env::var("FASTFIT_SERVE_PAUSED").is_ok() {
        // Accept and journal submissions, run none.
        cfg.max_campaigns = 0;
    }
    let h = start(cfg).expect("child daemon starts");
    std::fs::write(&addr_file, h.addr().to_string()).expect("publish addr");
    loop {
        std::thread::sleep(Duration::from_secs(1));
    }
}

/// A daemon child on `root`, with `env` applied to it on top (a `None`
/// value removes the variable), and the address it serves on.
fn spawn_daemon_child(root: &Path, env: &[(&str, Option<&str>)]) -> (std::process::Child, String) {
    std::fs::create_dir_all(root).unwrap();
    let addr_file = &root.join("daemon.addr");
    let _ = std::fs::remove_file(addr_file);
    let mut cmd = std::process::Command::new(std::env::current_exe().unwrap());
    cmd.args(["serve_daemon_child", "--exact", "--ignored", "--nocapture"])
        .env("FASTFIT_SERVE_ROOT", root)
        .env("FASTFIT_SERVE_ADDR_FILE", addr_file)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    for (name, value) in env {
        match value {
            Some(v) => cmd.env(name, v),
            None => cmd.env_remove(name),
        };
    }
    let child = cmd.spawn().expect("spawn daemon child");
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
/// campaign from its trial journal, and completes it to its reference's
/// journal.
#[test]
fn killed_daemon_resumes_on_restart() {
    let root = tmp_dir("kill9");
    let (mut child, addr) = spawn_daemon_child(&root, &[]);
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
    let (mut child, addr) = spawn_daemon_child(&root, &[]);
    wait_done(&addr, &id);
    assert_metrics(&addr, &["campaigns_done 1"]);
    child.kill().expect("stop restarted daemon");
    let _ = child.wait();
    assert_reference(&spec, &root.join("campaigns").join(&id));
    std::fs::remove_dir_all(&root).unwrap();
}

/// A campaign a shutdown stopped is re-queued by the next start, and
/// every endpoint says so: status, listing and `/metrics` all read the
/// scheduler's `queued`, while status keeps the counts of the
/// `status.json` the stopped store checkpointed as `interrupted`.
#[test]
fn a_restarted_daemon_shows_one_state_on_every_endpoint() {
    let root = tmp_dir("restart-one-state");
    let h = start(serve_cfg(&root)).expect("daemon starts");
    let addr = h.addr().to_string();
    h.hold_campaigns_after(3);
    let mut spec = param_spec();
    spec.trials = Some(24);
    let id = submit(&addr, &spec);
    assert!(
        h.wait_held(&id, DEADLINE),
        "campaign reached the hold after three trials"
    );
    h.shutdown();
    let dir = root.join("campaigns").join(&id);
    let file = StatusSnapshot::read_from(&dir).expect("the stop checkpointed status.json");
    assert_eq!(file.state, CampaignState::Interrupted);

    // Restarted with no room to run anything, the campaign stays owed.
    let h = start(ServeConfig {
        max_campaigns: 0,
        ..serve_cfg(&root)
    })
    .expect("daemon restarts");
    let addr = h.addr().to_string();
    let status = Json::parse(&get(&addr, &format!("/campaigns/{id}/status")).body).unwrap();
    assert_eq!(
        status.get("state").and_then(Json::as_str),
        Some("queued"),
        "{}",
        status.encode()
    );
    assert_eq!(status.get("trials_fresh").and_then(Json::as_u64), Some(3));
    let listing = Json::parse(&get(&addr, "/campaigns").body).unwrap();
    let listed = listing
        .as_arr()
        .expect("listing is an array")
        .iter()
        .find(|e| e.get("id").and_then(Json::as_str) == Some(&id))
        .and_then(|e| e.get("state").and_then(Json::as_str));
    assert_eq!(listed, Some("queued"), "{}", listing.encode());
    assert_metrics(&addr, &["campaigns_queued 1", "campaigns_running 0"]);
    h.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// The daemon pins what a submission leaves unset from its own
/// environment and journals the pinned spec. A daemon started with
/// `FASTFIT_CLASS=small` acknowledges an FT spec that names no class and
/// is killed before running it; restarted without the variable, it still
/// runs the campaign at `small`.
#[test]
fn restarted_daemon_runs_the_class_it_pinned_at_submission() {
    let root = tmp_dir("class-pin");
    let spec = CampaignSpec {
        ranks: Some(4),
        trials: Some(1),
        ..CampaignSpec::new("FT")
    };
    let at = |class| CampaignSpec {
        class: Some(class),
        ..spec.clone()
    };
    assert_ne!(
        spec_reference(&at(Class::Small)).lines[1..],
        spec_reference(&at(Class::Mini)).lines[1..],
        "the class must change FT's trials for this test to mean anything"
    );

    let (mut child, addr) = spawn_daemon_child(
        &root,
        &[
            ("FASTFIT_CLASS", Some("small")),
            ("FASTFIT_SERVE_PAUSED", Some("1")),
        ],
    );
    let id = submit(&addr, &spec);
    child.kill().expect("SIGKILL daemon");
    let _ = child.wait();

    let (mut child, addr) = spawn_daemon_child(&root, &[("FASTFIT_CLASS", None)]);
    wait_done(&addr, &id);
    child.kill().expect("stop restarted daemon");
    let _ = child.wait();
    assert_reference(&at(Class::Small), &root.join("campaigns").join(&id));
    std::fs::remove_dir_all(root).unwrap();
}

/// A malformed default in the daemon's environment is a 400 naming the
/// variable, not a silent fall-back to the built-in default.
#[test]
fn malformed_environment_defaults_are_refused_at_submission() {
    for (name, bad) in [
        ("FASTFIT_CLASS", "smal"),
        ("FASTFIT_TRIALS", "abc"),
        ("FASTFIT_RANKS", "0"),
    ] {
        let root = tmp_dir(&format!("bad-env-{name}"));
        let (mut child, addr) = spawn_daemon_child(&root, &[(name, Some(bad))]);
        let r = post(
            &addr,
            "/campaigns",
            &CampaignSpec::new("IS").to_json().encode(),
        );
        child.kill().expect("stop daemon");
        let _ = child.wait();
        assert_eq!(r.status, 400, "{name}={bad}: {}", r.body);
        assert!(r.body.contains(name), "{name}={bad}: {}", r.body);
        std::fs::remove_dir_all(&root).unwrap();
    }
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
    wait_done(&addr, &id);
    h.shutdown();

    let (_, meta) = read_store_meta(&root.join("campaigns").join(&id)).unwrap();
    assert_eq!(
        meta.ml.and_then(|m| m.warm).as_deref(),
        Some(id_a.as_str()),
        "recovered campaign must keep its journaled warm-start prior"
    );
    std::fs::remove_dir_all(&root).unwrap();
}

/// The runner's stop path, in-process. A run held after three journaled
/// trials and then cancelled comes back `Stopped`, writes no
/// `results.csv`, and the caller's checkpoint leaves `status.json` in the
/// caller's state — the daemon's `cancelled`, the CLI's `interrupted`. A
/// second run on the same directory replays the three trials and
/// completes to the reference's journal and export.
#[test]
fn a_stopped_run_is_checkpointed_by_its_caller_and_completed_by_the_next() {
    let spec = param_spec();
    for state in [CampaignState::Cancelled, CampaignState::Interrupted] {
        let dir = tmp_dir(&format!("runner-stop-{}", state.name()));
        let c = Campaign::prepare(resolve_workload(&spec), resolve_config(&spec));
        let token = c.cancel_token();
        token.hold_after(3);
        let run = CampaignRun::open(&c, &spec, Some(&dir), None).expect("runner opens");
        let ran = std::thread::scope(|s| {
            let measuring = s.spawn(|| run.measure(&NullObserver));
            assert!(token.wait_held(DEADLINE), "the run reached the hold");
            token.cancel();
            measuring.join().expect("measure returns")
        });
        assert!(matches!(ran, Ok(Ran::Stopped { .. })), "{state:?}");
        assert!(
            !dir.join(RESULTS_FILE).exists(),
            "a stopped run exports nothing"
        );
        run.store.as_ref().unwrap().checkpoint(state).unwrap();
        assert_eq!(StatusSnapshot::read_from(&dir).unwrap().state, state);
        drop(run);

        let c = Campaign::prepare(resolve_workload(&spec), resolve_config(&spec));
        let run = CampaignRun::open(&c, &spec, Some(&dir), None).expect("runner reopens");
        assert_eq!(
            run.store.as_ref().unwrap().replayable_trials(),
            3,
            "{state:?}"
        );
        assert!(matches!(run.measure(&NullObserver), Ok(Ran::Done { .. })));
        assert!(dir.join(RESULTS_FILE).exists(), "{state:?}");
        assert_reference(&spec, &dir);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The ML order a journal records wins over the one the warm start
/// implies: a cold campaign whose journal meta says `entropy` reopens
/// under that journal's campaign ID, while a fresh directory takes the
/// cold default, scan.
#[test]
fn a_journaled_ml_order_reopens_under_its_campaign_id() {
    let mut spec = param_spec();
    spec.ml_threshold = Some(0.65);
    let c = Campaign::prepare(resolve_workload(&spec), resolve_config(&spec));
    let (target, config) = resolve_ml(&spec).unwrap();
    let meta = campaign_meta(
        &c,
        &c.invocation_points(),
        Some(MlIdentity {
            target,
            config: &config,
            warm: None,
            ordering: MlOrdering::Entropy,
        }),
    );
    let dir = tmp_dir("runner-order");
    let id = CampaignStore::open(&dir, meta).unwrap().id().to_string();
    let run = CampaignRun::open(&c, &spec, Some(&dir), None).expect("journaled order reopens");
    assert_eq!(run.store.as_ref().unwrap().id(), id);
    drop(run);

    let fresh = tmp_dir("runner-order-fresh");
    let run = CampaignRun::open(&c, &spec, Some(&fresh), None).unwrap();
    assert_ne!(
        run.store.as_ref().unwrap().id(),
        id,
        "a fresh cold run scans"
    );
    drop(run);
    for d in [dir, fresh] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

/// A plain spec over `points: "invocations"` is the campaign `experiments`
/// journaled for LAMMPS-ML before it ran through `CampaignRun`: the
/// invocation points measured with the plain per-point seeds into a
/// store opened under `campaign_meta` with no ML identity, which is how
/// the oracle builds its reference. Same meta line, same journal.
#[test]
fn invocation_points_run_as_the_store_journaled_them() {
    let spec = CampaignSpec {
        points: Some(PointSet::Invocations),
        ..param_spec()
    };
    let c = Campaign::prepare(resolve_workload(&spec), resolve_config(&spec));
    let points = c.invocation_points();
    assert!(points.len() > c.points().len(), "semantic pruning only");
    let dir = tmp_dir("runner-invocations");
    let run = CampaignRun::open(&c, &spec, Some(&dir), None).unwrap();
    assert_eq!(run.id, run.store.as_ref().unwrap().id());
    assert_eq!(run.points.len(), points.len());
    assert!(matches!(run.measure(&NullObserver), Ok(Ran::Done { .. })));
    assert_reference(&spec, &dir);
    std::fs::remove_dir_all(dir).unwrap();
}
