//! End-to-end tests of fleet mode: a coordinator daemon sharding a
//! campaign into trial-range leases executed by worker loops, with the
//! tentpole claims of ISSUE 7 — the merged journal is **byte-identical**
//! to a single-host run of the same campaign, a SIGKILLed worker
//! mid-lease loses nothing (the re-leased range re-journals
//! identically), and a coordinator kill -9 + restart folds workers and
//! outstanding leases back from the queue log and converges to the same
//! canonical journal SHA.

use fastfit::prelude::*;
use fastfit_serve::{
    http_request, http_request_retry, resolve_config, resolve_workload, run_worker, start,
    CampaignSpec, ServeConfig, WorkerConfig,
};
use fastfit_store::journal::JOURNAL_FILE;
use fastfit_store::json::Json;
use fastfit_store::{campaign_meta, journal_content_sha, CampaignStore};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Generous deadline for debug-build IS campaigns with worker churn.
const DEADLINE: Duration = Duration::from_secs(300);

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("fastfit-fleet-e2e-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Coordinator config: fleet mode, small leases, short heartbeat TTL so
/// expiry tests run in seconds.
fn fleet_cfg(root: &Path, ttl: Duration) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        worker_budget: 8,
        fleet: true,
        lease_trials: 4,
        lease_ttl: ttl,
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

fn get(addr: &str, path: &str) -> fastfit_serve::Response {
    // Retried: fleet tests restart coordinators mid-flight.
    http_request_retry(addr, "GET", path, None, 6).expect("daemon reachable")
}

fn submit(addr: &str, spec: &CampaignSpec) -> String {
    let body = spec.to_json().encode();
    let r = http_request_retry(
        addr,
        "POST",
        "/campaigns",
        Some(("application/json", &body)),
        6,
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

/// Run `spec` locally — the single-host reference the fleet must match
/// byte-for-byte.
fn run_local(spec: &CampaignSpec, dir: &Path) -> Vec<PointResult> {
    let c = Campaign::prepare(resolve_workload(spec), resolve_config(spec));
    let meta = campaign_meta(&c, c.points(), None);
    let store = CampaignStore::open(dir, meta).expect("open local store");
    let r = c.run_all_observed(&store);
    store.finish().expect("finish local store");
    r.results
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

/// Spawn an in-thread worker loop that stops when `stop` is raised.
fn spawn_worker(addr: &str, name: &str, stop: Arc<AtomicBool>) -> std::thread::JoinHandle<u64> {
    let cfg = WorkerConfig::new(addr, name);
    std::thread::Builder::new()
        .name(format!("fleet-worker-{name}"))
        .spawn(move || {
            let stop_fn = move || stop.load(Ordering::SeqCst);
            run_worker(&cfg, &stop_fn).expect("worker loop")
        })
        .expect("spawn worker thread")
}

fn assert_fleet_matches_local(spec: &CampaignSpec, daemon_dir: &Path, tag: &str) {
    let local = tmp_dir(tag);
    run_local(spec, &local);
    assert_eq!(
        durable_journal_lines(daemon_dir),
        durable_journal_lines(&local),
        "fleet journal must be byte-identical to a single-host run"
    );
    assert_eq!(
        journal_content_sha(daemon_dir).expect("fleet journal sha"),
        journal_content_sha(&local).expect("local journal sha"),
        "canonical journal SHA must match the single-host run"
    );
    std::fs::remove_dir_all(&local).unwrap();
}

/// Two workers lease ranges of one campaign; the merged journal and the
/// exported results.csv are byte-identical to a single-host run.
#[test]
fn fleet_campaign_merges_byte_identical_to_single_host() {
    let root = tmp_dir("merge");
    let h = start(fleet_cfg(&root, Duration::from_secs(3))).expect("coordinator starts");
    let addr = h.addr().to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = ["w-a", "w-b"]
        .iter()
        .map(|n| spawn_worker(&addr, n, stop.clone()))
        .collect();

    let spec = param_spec();
    let id = submit(&addr, &spec);
    wait_status(&addr, &id, "done", |state, _| state == "done");

    let daemon_dir = root.join("campaigns").join(&id);
    assert_fleet_matches_local(&spec, &daemon_dir, "merge-local");

    // results.csv is reconstructed from the merged journal and must
    // equal the local export.
    let local = tmp_dir("merge-csv");
    let results = run_local(&spec, &local);
    let csv = get(&addr, &format!("/campaigns/{id}/results.csv"));
    assert_eq!(csv.status, 200);
    assert_eq!(
        csv.body,
        points_csv(&results, resolve_config(&spec).fault_channel),
        "fleet results.csv must equal the local export"
    );
    std::fs::remove_dir_all(&local).unwrap();

    let metrics = get(&addr, "/metrics").body;
    assert!(metrics.contains("fleet_enabled 1"), "{metrics}");
    assert!(metrics.contains("fleet_workers_registered 2"), "{metrics}");

    stop.store(true, Ordering::SeqCst);
    for w in workers {
        w.join().expect("worker thread");
    }
    h.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// Both workers are parked inside a held `/fleet/lease` when the
/// campaign arrives: opening its pool must wake them, and the runner —
/// which waits for coverage with no timeout to fall back on — must be
/// woken by the upload that completes it.
#[test]
fn campaign_submitted_to_parked_workers_completes() {
    let (done, finished) = std::sync::mpsc::channel();
    let body = std::thread::spawn(move || {
        let root = tmp_dir("parked");
        let h = start(fleet_cfg(&root, Duration::from_secs(3))).expect("coordinator starts");
        let addr = h.addr().to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = ["park-a", "park-b"]
            .iter()
            .map(|n| spawn_worker(&addr, n, stop.clone()))
            .collect();
        // A registered worker asks for a lease at once and, with no
        // campaign, is held; half a second sees both through an empty
        // answer and into their next held poll.
        while !get(&addr, "/metrics")
            .body
            .contains("fleet_workers_registered 2")
        {
            std::thread::sleep(Duration::from_millis(20));
        }
        std::thread::sleep(Duration::from_millis(500));

        let spec = param_spec();
        let id = submit(&addr, &spec);
        wait_status(&addr, &id, "done", |state, _| state == "done");
        assert_fleet_matches_local(&spec, &root.join("campaigns").join(&id), "parked-local");

        stop.store(true, Ordering::SeqCst);
        for w in workers {
            w.join().expect("worker thread");
        }
        h.shutdown();
        std::fs::remove_dir_all(&root).unwrap();
        let _ = done.send(());
    });
    // Far above any honest run: this can only trip on a hang.
    if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(DEADLINE * 2) {
        panic!("fleet campaign still not done; a wakeup was lost");
    }
    if let Err(panic) = body.join() {
        std::panic::resume_unwind(panic);
    }
}

/// A burst+heal timeline sharded across two workers: trigger state is
/// per-trial (anchored to the rank-0 op counter inside each job), so the
/// range split must be invisible — the merged journal, including the
/// per-trial event counts, is byte-identical to a single-host run.
#[test]
fn fleet_timeline_campaign_merges_byte_identical_to_single_host() {
    let root = tmp_dir("tl-merge");
    let h = start(fleet_cfg(&root, Duration::from_secs(3))).expect("coordinator starts");
    let addr = h.addr().to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = ["tl-a", "tl-b"]
        .iter()
        .map(|n| spawn_worker(&addr, n, stop.clone()))
        .collect();

    let mut spec = param_spec();
    spec.resilient = Some(true);
    spec.timeline = Some("burst:2+heal:3".into());
    let id = submit(&addr, &spec);
    wait_status(&addr, &id, "done", |state, _| state == "done");

    let daemon_dir = root.join("campaigns").join(&id);
    // The schedule must be part of the merged campaign's identity.
    let meta_line = durable_journal_lines(&daemon_dir)
        .into_iter()
        .next()
        .expect("journal has a meta line");
    assert!(
        meta_line.contains("\"timeline\":\"burst:2+heal:3\""),
        "fleet meta must carry the timeline: {meta_line}"
    );
    assert_fleet_matches_local(&spec, &daemon_dir, "tl-merge-local");

    stop.store(true, Ordering::SeqCst);
    for w in workers {
        w.join().expect("worker thread");
    }
    h.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// Helper process for the worker-SIGKILL test: registers as a worker,
/// takes ONE lease, heartbeats it forever without executing a single
/// trial, and publishes a marker once the lease is held. The parent
/// SIGKILLs it — a worker dying mid-lease at a deterministic point.
#[test]
#[ignore = "helper process for the worker kill -9 test"]
fn fleet_hang_worker_child() {
    let Ok(addr) = std::env::var("FASTFIT_FLEET_ADDR") else {
        return;
    };
    let marker = std::env::var("FASTFIT_FLEET_MARKER").expect("marker env");
    let body = Json::obj([("name", Json::Str("hangman".into()))]).encode();
    let r = http_request(
        &addr,
        "POST",
        "/fleet/workers",
        Some(("application/json", &body)),
    )
    .expect("register");
    assert_eq!(r.status, 201, "{}", r.body);
    let me = Json::parse(&r.body)
        .unwrap()
        .get("worker")
        .and_then(Json::as_str)
        .expect("worker id")
        .to_string();
    let lease_body = Json::obj([("worker", Json::Str(me.clone()))]).encode();
    let lease = loop {
        let r = http_request(
            &addr,
            "POST",
            "/fleet/lease",
            Some(("application/json", &lease_body)),
        )
        .expect("lease poll");
        assert_eq!(r.status, 200, "{}", r.body);
        let v = Json::parse(&r.body).unwrap();
        match v.get("lease") {
            Some(Json::Null) | None => std::thread::sleep(Duration::from_millis(100)),
            Some(l) => {
                break l
                    .get("id")
                    .and_then(Json::as_str)
                    .expect("lease id")
                    .to_string()
            }
        }
    };
    std::fs::write(&marker, &lease).expect("publish marker");
    let hb = Json::obj([("worker", Json::Str(me)), ("lease", Json::Str(lease))]).encode();
    loop {
        let _ = http_request(
            &addr,
            "POST",
            "/fleet/heartbeat",
            Some(("application/json", &hb)),
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// SIGKILL a worker mid-lease: its range expires after the heartbeat
/// deadline and is re-leased (with backoff) to a live worker; the final
/// journal is still byte-identical to a single-host run, and the expiry
/// and re-lease are visible in `/metrics`.
#[test]
fn killed_worker_loses_nothing_and_range_is_released() {
    let root = tmp_dir("worker-kill");
    std::fs::create_dir_all(&root).unwrap();
    // Short TTL so the hung lease expires in about a second.
    let h = start(fleet_cfg(&root, Duration::from_secs(1))).expect("coordinator starts");
    let addr = h.addr().to_string();

    let spec = param_spec();
    let id = submit(&addr, &spec);
    // Wait until the campaign is leasing (pool registered), then hand
    // its first range to the hang child.
    let deadline = Instant::now() + DEADLINE;
    loop {
        let r = get(&addr, "/fleet/status");
        let v = Json::parse(&r.body).unwrap();
        let leasing = v
            .get("campaigns")
            .and_then(Json::as_arr)
            .is_some_and(|c| !c.is_empty());
        if leasing {
            break;
        }
        assert!(Instant::now() < deadline, "campaign never started leasing");
        std::thread::sleep(Duration::from_millis(50));
    }

    let marker = root.join("hang.lease");
    let mut child = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "fleet_hang_worker_child",
            "--exact",
            "--ignored",
            "--nocapture",
        ])
        .env("FASTFIT_FLEET_ADDR", &addr)
        .env("FASTFIT_FLEET_MARKER", &marker)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn hang worker child");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !marker.exists() {
        assert!(Instant::now() < deadline, "hang child never took a lease");
        std::thread::sleep(Duration::from_millis(50));
    }

    // The child holds (and heartbeats) one lease. Kill it mid-lease;
    // a live worker must pick up the expired range.
    child.kill().expect("SIGKILL hang worker");
    let _ = child.wait();
    let stop = Arc::new(AtomicBool::new(false));
    let worker = spawn_worker(&addr, "survivor", stop.clone());

    wait_status(&addr, &id, "done", |state, _| state == "done");
    let metrics = get(&addr, "/metrics").body;
    let gauge = |name: &str| -> u64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
            .unwrap_or(0)
    };
    assert!(
        gauge("fleet_leases_expired_total ") >= 1,
        "the hung lease must expire: {metrics}"
    );
    assert!(
        gauge("fleet_releases_total ") >= 1,
        "the expired range must be re-leased: {metrics}"
    );

    assert_fleet_matches_local(
        &spec,
        &root.join("campaigns").join(&id),
        "worker-kill-local",
    );

    stop.store(true, Ordering::SeqCst);
    worker.join().expect("worker thread");
    h.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// Helper process for the coordinator kill -9 test: runs a fleet
/// coordinator on a fixed port (so a restart is reachable at the same
/// address) and serves until killed.
#[test]
#[ignore = "helper process for the coordinator kill -9 test"]
fn fleet_coordinator_child() {
    let Ok(root) = std::env::var("FASTFIT_FLEET_ROOT") else {
        return;
    };
    let addr = std::env::var("FASTFIT_FLEET_BIND").expect("bind addr env");
    let ready = std::env::var("FASTFIT_FLEET_READY").expect("ready file env");
    let cfg = ServeConfig {
        addr,
        worker_budget: 8,
        fleet: true,
        lease_trials: 2,
        lease_ttl: Duration::from_secs(2),
        ..ServeConfig::new(root)
    };
    let h = start(cfg).expect("coordinator child starts");
    std::fs::write(&ready, h.addr().to_string()).expect("publish ready");
    loop {
        std::thread::sleep(Duration::from_secs(1));
    }
}

fn spawn_coordinator(root: &Path, bind: &str, ready: &Path) -> std::process::Child {
    let _ = std::fs::remove_file(ready);
    let child = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "fleet_coordinator_child",
            "--exact",
            "--ignored",
            "--nocapture",
        ])
        .env("FASTFIT_FLEET_ROOT", root)
        .env("FASTFIT_FLEET_BIND", bind)
        .env("FASTFIT_FLEET_READY", ready)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn coordinator child");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !ready.exists() {
        assert!(
            Instant::now() < deadline,
            "coordinator child never became ready"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    child
}

/// kill -9 the coordinator mid-campaign: a restart on the same root and
/// address folds registered workers and outstanding leases back from
/// the queue log, the surviving workers reconnect through their retry
/// clients, and the completed campaign's canonical journal is still
/// byte-identical to a single-host run — no trial duplicated or lost.
#[test]
fn killed_coordinator_resumes_leases_on_restart() {
    let root = tmp_dir("coord-kill");
    std::fs::create_dir_all(&root).unwrap();
    // Reserve a port for both coordinator incarnations.
    let bind = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe port");
        let addr = probe.local_addr().unwrap().to_string();
        drop(probe);
        addr
    };
    let ready = root.join("coordinator.ready");

    let mut child = spawn_coordinator(&root, &bind, &ready);
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = ["surv-a", "surv-b"]
        .iter()
        .map(|n| spawn_worker(&bind, n, stop.clone()))
        .collect();

    let mut spec = param_spec();
    spec.trials = Some(6);
    let id = submit(&bind, &spec);

    // Let the fleet make real progress (segments on disk, leases in
    // flight), then pull the plug on the coordinator.
    wait_status(&bind, &id, "first fleet trials", |_, v| {
        v.get("trials_fresh").and_then(Json::as_u64).unwrap_or(0) >= 2
    });
    child.kill().expect("SIGKILL coordinator");
    let _ = child.wait();

    // Restart on the same root and address. The queue log owes the
    // campaign, the fleet fold restores worker ids and outstanding
    // leases, and the segment scan resumes exactly what is still owed.
    let mut child = spawn_coordinator(&root, &bind, &ready);
    wait_status(&bind, &id, "done after restart", |state, _| state == "done");

    assert_fleet_matches_local(&spec, &root.join("campaigns").join(&id), "coord-kill-local");

    stop.store(true, Ordering::SeqCst);
    for w in workers {
        w.join().expect("worker thread");
    }
    child.kill().expect("stop restarted coordinator");
    let _ = child.wait();
    std::fs::remove_dir_all(&root).unwrap();
}
