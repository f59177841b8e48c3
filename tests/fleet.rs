//! End-to-end tests of fleet mode: a coordinator daemon sharding a
//! campaign into trial-range leases executed by worker loops. That the
//! merged journal is **byte-identical** to the reference run of its spec
//! is the fleet path of the differential oracle in `tests/oracle/`, held
//! here; so is what a SIGKILLed worker mid-lease (the re-leased range
//! re-journals identically) and a coordinator kill -9 + restart (workers
//! and outstanding leases fold back from the queue log) leave behind.

mod oracle;

use fastfit_serve::{
    http_request, read_queue, start, CampaignSpec, PointSet, QueueEvent, ServeConfig,
};
use fastfit_store::json::Json;
use oracle::*;
use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Two workers lease ranges of one campaign of the parameter channel; the
/// merged journal and the results.csv rebuilt from it are the reference's.
#[test]
fn fleet_campaign_merges_byte_identical_to_single_host() {
    hold_slice(
        module_path!(),
        "fleet_campaign_merges_byte_identical_to_single_host",
    );
}

/// Two workers on the platform's engine (coop on x86_64) lease trial
/// ranges of a message-channel campaign; the merged journal is its
/// reference's, run on the *threaded* engine: the range split and the
/// scheduler are both invisible.
#[test]
fn fleet_range_shard_on_coop_matches_threaded_local_run() {
    hold_slice(
        module_path!(),
        "fleet_range_shard_on_coop_matches_threaded_local_run",
    );
}

/// A burst+heal timeline sharded across two workers: trigger state is
/// per-trial (anchored to the rank-0 op counter inside each job), so the
/// range split is invisible, the per-trial event counts included, and
/// the merged meta names the schedule.
#[test]
fn fleet_timeline_campaign_merges_byte_identical_to_single_host() {
    hold_slice(
        module_path!(),
        "fleet_timeline_campaign_merges_byte_identical_to_single_host",
    );
}

/// Both workers are parked inside a held `/fleet/lease` when the
/// campaign arrives: opening its pool must wake them, and the runner —
/// which waits for coverage with no timeout to fall back on — must be
/// woken by the upload that completes it.
#[test]
fn campaign_submitted_to_parked_workers_completes() {
    within(DEADLINE * 2, "a campaign for parked workers", || {
        let root = tmp_dir("parked");
        let h = start(fleet_cfg(&root, Duration::from_secs(3))).expect("coordinator starts");
        let addr = h.addr().to_string();
        let workers = Workers::spawn(&addr, &["park-a", "park-b"]);
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

        let id = submit(&addr, &param_spec());
        wait_done(&addr, &id);
        assert_reference(&param_spec(), &root.join("campaigns").join(&id));
        workers.stop();
        h.shutdown();
        std::fs::remove_dir_all(&root).unwrap();
    });
}

/// Holds fleet workers between leases: a worker parks in [`LeaseGate::park`]
/// until [`LeaseGate::release`].
#[derive(Default)]
struct LeaseGate {
    /// (workers parked, released)
    state: Mutex<(usize, bool)>,
    cv: Condvar,
}

impl LeaseGate {
    fn released(&self) -> bool {
        self.state.lock().expect("gate lock").1
    }

    fn park(&self) {
        let mut st = self.state.lock().expect("gate lock");
        if st.1 {
            return;
        }
        st.0 += 1;
        self.cv.notify_all();
        let _released = self.cv.wait_while(st, |st| !st.1).expect("gate lock");
    }

    fn wait_parked(&self, workers: usize) {
        let st = self.state.lock().expect("gate lock");
        let (_st, wait) = self
            .cv
            .wait_timeout_while(st, DEADLINE, |st| st.0 < workers)
            .expect("gate lock");
        assert!(!wait.timed_out(), "workers never parked");
    }

    fn release(&self) {
        self.state.lock().expect("gate lock").1 = true;
        self.cv.notify_all();
    }
}

/// Leases the worker registered as `name` completed, per the queue log
/// in `root`.
fn leases_done_by(root: &Path, name: &str) -> usize {
    let events = read_queue(root).expect("queue log readable");
    let workers: HashSet<&str> = events
        .iter()
        .filter_map(|e| match e {
            QueueEvent::Worker { id, name: n } if n == name => Some(id.as_str()),
            _ => None,
        })
        .collect();
    let leases: HashSet<&str> = events
        .iter()
        .filter_map(|e| match e {
            QueueEvent::Lease { id, worker, .. } if workers.contains(worker.as_str()) => {
                Some(id.as_str())
            }
            _ => None,
        })
        .collect();
    events
        .iter()
        .filter(|e| matches!(e, QueueEvent::LeaseDone { id } if leases.contains(id.as_str())))
        .count()
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
    let me = register(&addr, "hangman");
    let lease = take_lease(&addr, &me);
    std::fs::write(&marker, &lease).expect("publish marker");
    let hb = Json::obj([("worker", Json::Str(me)), ("lease", Json::Str(lease))]).encode();
    loop {
        post(&addr, "/fleet/heartbeat", &hb);
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Register a worker named `name` by hand; its ID.
fn register(addr: &str, name: &str) -> String {
    let body = Json::obj([("name", Json::Str(name.into()))]).encode();
    let r = post(addr, "/fleet/workers", &body);
    assert_eq!(r.status, 201, "{}", r.body);
    let v = Json::parse(&r.body).unwrap();
    v.get("worker").and_then(Json::as_str).unwrap().to_string()
}

/// Ask for a lease as `worker` until one is granted (an empty answer
/// comes after the coordinator held the poll open); its ID.
fn take_lease(addr: &str, worker: &str) -> String {
    let ask = Json::obj([("worker", Json::Str(worker.into()))]).encode();
    loop {
        let r = post(addr, "/fleet/lease", &ask);
        assert_eq!(r.status, 200, "{}", r.body);
        let grant = Json::parse(&r.body).unwrap();
        if let Some(id) = grant.get("lease").and_then(|l| l.get("id")) {
            return id.as_str().unwrap().to_string();
        }
    }
}

/// SIGKILL a worker mid-lease: its range expires after the heartbeat
/// deadline and is re-leased (with backoff) to a live worker; the final
/// journal is still its reference's, and the expiry and re-lease are
/// visible in `/metrics`.
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
    let worker = Workers::spawn(&addr, &["survivor"]);
    wait_done(&addr, &id);
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

    assert_reference(&spec, &root.join("campaigns").join(&id));
    worker.stop();
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

/// A free loopback address: a coordinator restarted on it is reachable
/// where its workers knew it.
fn free_addr() -> String {
    let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe port");
    probe.local_addr().unwrap().to_string()
}

/// A coordinator child on `root` and `bind`, with `env` set in it on top,
/// once it serves.
fn spawn_coordinator(root: &Path, bind: &str, env: &[(&str, &str)]) -> std::process::Child {
    let ready = root.join("coordinator.ready");
    let _ = std::fs::remove_file(&ready);
    let child = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "fleet_coordinator_child",
            "--exact",
            "--ignored",
            "--nocapture",
        ])
        .env("FASTFIT_FLEET_ROOT", root)
        .env("FASTFIT_FLEET_BIND", bind)
        .env("FASTFIT_FLEET_READY", &ready)
        .envs(env.iter().copied())
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

/// kill -9 the coordinator mid-campaign, with both workers parked
/// between leases: a restart on the same root and address folds registered
/// workers back from the queue log, the surviving workers carry on with
/// their ids, and the completed campaign's canonical journal is still
/// its reference's — no trial duplicated or lost.
#[test]
fn killed_coordinator_resumes_leases_on_restart() {
    let root = tmp_dir("coord-kill");
    std::fs::create_dir_all(&root).unwrap();
    // One address for both coordinator incarnations.
    let bind = free_addr();
    let mut child = spawn_coordinator(&root, &bind, &[]);
    let stop = Arc::new(AtomicBool::new(false));
    // Each worker parks between leases once it has completed one, so the
    // kill lands with segments on disk and most of the campaign owed,
    // however fast the trials run.
    let gate = Arc::new(LeaseGate::default());
    let workers: Vec<_> = ["surv-a", "surv-b"]
        .into_iter()
        .map(|name| {
            let (root, gate, stop) = (root.clone(), gate.clone(), stop.clone());
            spawn_worker(&bind, name, move || {
                if !gate.released() && leases_done_by(&root, name) > 0 {
                    gate.park();
                }
                stop.load(Ordering::SeqCst)
            })
        })
        .collect();

    let mut spec = param_spec();
    spec.trials = Some(6);
    let id = submit(&bind, &spec);

    gate.wait_parked(2);
    child.kill().expect("SIGKILL coordinator");
    let _ = child.wait();

    // Restart on the same root and address. The queue log owes the
    // campaign, the fleet fold restores worker ids, and the segment scan
    // resumes exactly what is still owed.
    let mut child = spawn_coordinator(&root, &bind, &[]);
    gate.release();
    wait_done(&bind, &id);
    assert_reference(&spec, &root.join("campaigns").join(&id));
    stop.store(true, Ordering::SeqCst);
    for w in workers {
        w.join().expect("worker thread");
    }
    child.kill().expect("stop restarted coordinator");
    let _ = child.wait();
    std::fs::remove_dir_all(&root).unwrap();
}

/// A lease carries the spec the coordinator pinned. The coordinator runs
/// with `FASTFIT_CLASS=small`, the workers — threads of this process —
/// with no class, and an FT spec naming none merges into the single-host
/// `small` journal.
#[test]
fn fleet_workers_run_the_class_the_coordinator_pinned() {
    let root = tmp_dir("class-pin");
    std::fs::create_dir_all(&root).unwrap();
    let bind = free_addr();
    let mut child = spawn_coordinator(&root, &bind, &[("FASTFIT_CLASS", "small")]);
    let workers = Workers::spawn(&bind, &["class-a", "class-b"]);

    let spec = CampaignSpec {
        ranks: Some(4),
        trials: Some(1),
        ..CampaignSpec::new("FT")
    };
    let id = submit(&bind, &spec);
    wait_done(&bind, &id);
    let small = CampaignSpec {
        class: Some(npb::Class::Small),
        ..spec
    };
    assert_reference(&small, &root.join("campaigns").join(&id));
    workers.stop();
    child.kill().expect("stop coordinator");
    let _ = child.wait();
    std::fs::remove_dir_all(&root).unwrap();
}

/// What a coordinator restart must fold back from `queue.jsonl`: the
/// campaign listing, a scenario's aggregate status, the journaled
/// transition counters of `/metrics`, and the fleet's worker and lease
/// IDs.
fn journaled_view(addr: &str, scenario: &str) -> (String, String, Vec<String>, Vec<String>) {
    let counters = get(addr, "/metrics")
        .body
        .lines()
        .filter(|l| {
            ["accepted", "done", "cancelled", "failed"]
                .iter()
                .any(|c| l.starts_with(&format!("campaigns_{c} ")))
        })
        .map(str::to_string)
        .collect();
    let fleet = Json::parse(&get(addr, "/fleet/status").body).expect("fleet status is JSON");
    let ids = |key: &str| -> Vec<String> {
        fleet
            .get(key)
            .and_then(Json::as_arr)
            .expect("fleet status lists")
            .iter()
            .map(|v| v.get("id").and_then(Json::as_str).unwrap().to_string())
            .collect()
    };
    let fleet_ids = [ids("workers"), ids("leases")].concat();
    (
        get(addr, "/campaigns").body,
        get(addr, &format!("/scenarios/{scenario}/status")).body,
        counters,
        fleet_ids,
    )
}

/// Wait until the listing shows campaign `id` in `state`.
fn wait_listed(addr: &str, id: &str, state: &str) {
    let deadline = Instant::now() + DEADLINE;
    loop {
        let body = get(addr, "/campaigns").body;
        let listed = Json::parse(&body).expect("listing is JSON");
        let shown = listed
            .as_arr()
            .expect("listing is an array")
            .iter()
            .find(|e| e.get("id").and_then(Json::as_str) == Some(id))
            .and_then(|e| e.get("state").and_then(Json::as_str).map(str::to_string));
        if shown.as_deref() == Some(state) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{id} never listed {state}: {body}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Every journaled transition — a failed campaign, worker registrations,
/// leases granted and completed, a campaign done, a scenario batch, a
/// queued campaign cancelled, a lease still held — leaves the daemon in a
/// state a restart on the same root folds back exactly. The one running
/// campaign lists as queued after the restart: running is not journaled,
/// the campaign is owed.
#[test]
fn a_restart_folds_back_the_state_the_daemon_ran_with() {
    let root = tmp_dir("fold-parity");
    // `c0001`'s store directory is taken by a file, so it fails.
    std::fs::create_dir_all(root.join("campaigns")).unwrap();
    std::fs::write(root.join("campaigns").join("c0001"), "in the way").unwrap();
    let cfg = ServeConfig {
        max_campaigns: 1,
        ..fleet_cfg(&root, Duration::from_secs(120))
    };
    let h = start(cfg.clone()).expect("coordinator starts");
    let addr = h.addr().to_string();

    assert_eq!(submit(&addr, &param_spec()), "c0001");
    wait_listed(&addr, "c0001", "failed");

    // A worker registers, leases and completes `c0002` to done.
    let worker = Workers::spawn(&addr, &["fold-a"]);
    let c2 = submit(&addr, &param_spec());
    wait_done(&addr, &c2);
    assert!(worker.stop()[0] > 0);

    // A second worker, by hand, takes a lease of `c0003` and keeps it.
    let w2 = register(&addr, "fold-b");
    let c3 = submit(&addr, &param_spec());
    let lease = take_lease(&addr, &w2);

    // A scenario batch queues behind `c0003`; one member is cancelled.
    let r = post(
        &addr,
        "/scenarios",
        r#"{"name":"fold-sweep","base":{"trials":2,"seed":11},
            "axes":{"workload":["IS"],"ranks":[2],"fault_channel":["param","crash-stop"]}}"#,
    );
    assert_eq!(r.status, 201, "{}", r.body);
    let receipt = Json::parse(&r.body).unwrap();
    let sid = receipt
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let r = http_request(&addr, "DELETE", "/campaigns/c0004", None).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);

    let (listing, scenario, counters, fleet) = journaled_view(&addr, &sid);
    assert_eq!(
        counters,
        [
            "campaigns_accepted 5",
            "campaigns_done 1",
            "campaigns_cancelled 1",
            "campaigns_failed 1"
        ]
    );
    assert_eq!(fleet, ["w0001".to_string(), w2, lease]);
    let running = format!("{{\"id\":\"{c3}\",\"ranks\":4,\"state\":\"running\"");
    assert!(listing.contains(&running), "{listing}");
    h.shutdown();

    // Restarted with no room to run anything, the daemon shows what it
    // folded.
    let h = start(ServeConfig {
        max_campaigns: 0,
        ..cfg
    })
    .expect("coordinator restarts");
    let addr = h.addr().to_string();
    let queued = running.replace("running", "queued");
    assert_eq!(
        journaled_view(&addr, &sid),
        (
            listing.replace(&running, &queued),
            scenario,
            counters,
            fleet
        )
    );
    h.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// A coordinator refuses at admission, with a 400, the two kinds of
/// campaign a lease cannot shard: an ML campaign, whose next point depends
/// on what was measured, and one over the invocation points, since a
/// lease ranges over the pruned points. Neither reaches the queue log.
#[test]
fn a_coordinator_refuses_what_a_lease_cannot_shard() {
    let root = tmp_dir("refusals");
    let h = start(fleet_cfg(&root, Duration::from_secs(3))).expect("coordinator starts");
    let addr = h.addr().to_string();
    let queue = || std::fs::read(root.join("queue.jsonl")).ok();
    let before = queue();
    let ml = CampaignSpec {
        ml_threshold: Some(0.65),
        ..param_spec()
    };
    let invocations = CampaignSpec {
        points: Some(PointSet::Invocations),
        ..param_spec()
    };
    for (spec, reason) in [(ml, "ml campaigns"), (invocations, "invocations")] {
        let r = post(&addr, "/campaigns", &spec.to_json().encode());
        assert_eq!(r.status, 400, "{}", r.body);
        assert!(r.body.contains(reason), "{}", r.body);
    }
    assert_eq!(queue(), before, "a refused spec is not journaled");
    h.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}
