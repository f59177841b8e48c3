//! The service paths of the oracle, and the one HTTP harness every suite
//! that drives a daemon or a fleet uses: configs, requests, submissions,
//! status waits and in-process workers.

use super::{run_dir, Run};
use fastfit_serve::{
    http_request_retry, run_worker, start, CampaignSpec, Response, ServeConfig, WorkerConfig,
};
use fastfit_store::json::Json;
use fastfit_store::{CampaignState, StatusSnapshot};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Generous deadline for a debug-build campaign with daemon or worker churn.
pub const DEADLINE: Duration = Duration::from_secs(300);

/// A fresh directory of this process named by `tag`.
pub fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("fastfit-test-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A small plain IS campaign on the parameter channel: the oracle's
/// four-rank IS row, as the service suites submit it.
pub fn param_spec() -> CampaignSpec {
    CampaignSpec {
        ranks: Some(4),
        trials: Some(3),
        seed: Some(11),
        ..CampaignSpec::new("IS")
    }
}

/// A daemon on an ephemeral port.
pub fn serve_cfg(root: &Path) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        worker_budget: 8,
        ..ServeConfig::new(root)
    }
}

/// A fleet coordinator: small leases, and a heartbeat deadline of `ttl`
/// so that expiry tests run in seconds.
pub fn fleet_cfg(root: &Path, ttl: Duration) -> ServeConfig {
    ServeConfig {
        fleet: true,
        lease_trials: 4,
        lease_ttl: ttl,
        ..serve_cfg(root)
    }
}

/// One request, retried: fleet tests restart coordinators mid-flight.
fn request(addr: &str, method: &str, path: &str, body: Option<&str>) -> Response {
    let body = body.map(|b| ("application/json", b));
    http_request_retry(addr, method, path, body, 6).expect("daemon reachable")
}

pub fn get(addr: &str, path: &str) -> Response {
    request(addr, "GET", path, None)
}

pub fn post(addr: &str, path: &str, body: &str) -> Response {
    request(addr, "POST", path, Some(body))
}

/// `POST /campaigns` the spec; the campaign's ID.
pub fn submit(addr: &str, spec: &CampaignSpec) -> String {
    let r = post(addr, "/campaigns", &spec.to_json().encode());
    assert_eq!(r.status, 201, "submission accepted: {}", r.body);
    Json::parse(&r.body)
        .unwrap()
        .get("id")
        .and_then(Json::as_str)
        .expect("receipt carries an id")
        .to_string()
}

/// Poll a campaign's status until `pred(state_token, body)` holds.
pub fn wait_status(addr: &str, id: &str, what: &str, pred: impl Fn(&str, &Json) -> bool) -> Json {
    let deadline = Instant::now() + DEADLINE;
    loop {
        let r = get(addr, &format!("/campaigns/{id}/status"));
        assert_eq!(r.status, 200, "{}", r.body);
        let v = Json::parse(&r.body).expect("status is JSON");
        let state = v.get("state").and_then(Json::as_str).unwrap_or("");
        assert_ne!(state, "failed", "campaign {id} failed: {}", r.body);
        if pred(state, &v) {
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

pub fn wait_done(addr: &str, id: &str) {
    wait_status(addr, id, "done", |state, _| state == "done");
}

/// Assert that `/metrics` shows every line of `lines`.
pub fn assert_metrics(addr: &str, lines: &[&str]) {
    let metrics = get(addr, "/metrics").body;
    for line in lines {
        assert!(
            metrics.lines().any(|l| l == *line),
            "/metrics lacks {line}:\n{metrics}"
        );
    }
}

/// Run `body` on its own thread and fail if it has not returned within
/// `limit`. The daemon's waits have no timeout to fall back on, so a lost
/// wakeup parks a thread for good; the limit is far above any honest run
/// and can only trip on a hang.
pub fn within(limit: Duration, what: &str, body: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    let t = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(limit) {
        panic!("{what}: still not back after {limit:?}; a wakeup was lost")
    }
    // Returned, or panicked (the sender dropped): surface the panic.
    if let Err(panic) = t.join() {
        std::panic::resume_unwind(panic);
    }
}

/// An in-thread worker loop that calls `stop` between leases; joined, the
/// trials it ran.
pub fn spawn_worker(
    addr: &str,
    name: &str,
    stop: impl Fn() -> bool + Send + Sync + 'static,
) -> JoinHandle<u64> {
    let cfg = WorkerConfig::new(addr, name);
    std::thread::Builder::new()
        .name(format!("fleet-worker-{name}"))
        .spawn(move || run_worker(&cfg, &stop).expect("worker loop"))
        .expect("spawn worker thread")
}

/// Workers, one per name, that run until [`Workers::stop`].
pub struct Workers {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<u64>>,
}

impl Workers {
    pub fn spawn(addr: &str, names: &[&str]) -> Workers {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = names
            .iter()
            .map(|name| {
                let stop = stop.clone();
                spawn_worker(addr, name, move || stop.load(Ordering::SeqCst))
            })
            .collect();
        Workers { stop, threads }
    }

    /// Stop every worker at its next lease boundary; the trials each ran.
    pub fn stop(self) -> Vec<u64> {
        self.stop.store(true, Ordering::SeqCst);
        let joined = self.threads.into_iter().map(|t| t.join());
        joined.map(|r| r.expect("worker thread")).collect()
    }
}

// ---- the service paths ----

/// What the service journaled and serves for campaign `id` under `root`.
fn served(addr: &str, root: &Path, id: &str) -> Run {
    let csv = get(addr, &format!("/campaigns/{id}/results.csv"));
    assert_eq!(csv.status, 200, "{}", csv.body);
    Run {
        csv: Some(csv.body),
        ..Run::read(&root.join("campaigns").join(id))
    }
}

/// `specs` submitted at once to one in-process daemon, so that two
/// campaigns run side by side. With `kill`, every campaign is held after
/// that many journaled trials (no more than the daemon runs at once) and
/// the daemon shut down; started again on the same root, it re-queues the
/// interrupted campaigns and resumes them from their journals.
pub fn daemon_runs(specs: &[CampaignSpec], kill: Option<usize>) -> Vec<Run> {
    let root = run_dir();
    let mut h = start(serve_cfg(&root)).expect("daemon starts");
    if let Some(k) = kill {
        h.hold_campaigns_after(k as u64);
    }
    let addr = h.addr().to_string();
    let ids: Vec<String> = specs.iter().map(|s| submit(&addr, s)).collect();
    if kill.is_some() {
        for id in &ids {
            assert!(h.wait_held(id, DEADLINE), "{id} reached the hold");
        }
        h.shutdown();
        for id in &ids {
            let dir = root.join("campaigns").join(id);
            let stopped = StatusSnapshot::read_from(&dir).expect("the stop checkpointed");
            assert_eq!(stopped.state, CampaignState::Interrupted, "{id}");
        }
        h = start(serve_cfg(&root)).expect("daemon restarts");
    }
    let addr = h.addr().to_string();
    for id in &ids {
        wait_done(&addr, id);
    }
    let done = format!("campaigns_done {}", ids.len());
    assert_metrics(&addr, &[&done, "campaigns_failed 0"]);
    let runs = ids.iter().map(|id| served(&addr, &root, id)).collect();
    h.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
    runs
}

/// `spec` run by an in-process coordinator and two in-process workers.
/// A lease is one trial longer than a point, so lease boundaries fall
/// inside points and every fleet run is a split.
pub fn fleet_run(spec: &CampaignSpec) -> Run {
    let trials = spec.trials.expect("a pinned spec") as u64;
    assert!(trials > 1, "a lease boundary can fall inside a point");
    let root = run_dir();
    let h = start(ServeConfig {
        lease_trials: trials + 1,
        ..fleet_cfg(&root, Duration::from_secs(3))
    })
    .expect("coordinator starts");
    let addr = h.addr().to_string();
    let workers = Workers::spawn(&addr, &["w-a", "w-b"]);
    let id = submit(&addr, spec);
    wait_done(&addr, &id);
    assert_metrics(&addr, &["fleet_enabled 1", "fleet_workers_registered 2"]);
    let run = served(&addr, &root, &id);
    workers.stop();
    h.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
    run
}
