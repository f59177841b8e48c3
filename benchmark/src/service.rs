//! The daemon side of the service workloads: an in-process
//! `fastfit_serve` daemon (and, for the fleet, two `run_worker` threads)
//! plus the one closed-loop HTTP client that drives it.
//!
//! The client holds one connection at a time and sends its next request
//! only after the previous reply, so a slower daemon receives less load.

use crate::checks::Tally;
use crate::plan::{Workload, LEASE_TRIALS, POLL_MS};
use crate::trace::{SpanId, Tracer};
use fastfit_serve::{http_request, run_worker, start, DaemonHandle, ServeConfig, WorkerConfig};
use fastfit_store::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Fleet workers per coordinator: one per core of the reference host.
pub const FLEET_WORKERS: usize = 2;

/// A unit must finish well inside the driver's per-run limit; past this
/// the client stops waiting and the unit counts its campaigns as failed.
const UNIT_DEADLINE: Duration = Duration::from_secs(100);

/// A running daemon with its fleet workers.
pub struct Service {
    handle: DaemonHandle,
    /// `host:port` the daemon bound.
    pub addr: String,
    /// The daemon's root (queue log, `campaigns/<id>/`).
    pub root: PathBuf,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<std::io::Result<u64>>>,
}

impl Service {
    /// Start the daemon `w` needs on `root`: the serve defaults
    /// (`max_campaigns`, worker budget 32, default engine), fleet mode
    /// with [`FLEET_WORKERS`] registered workers for `fleet-shard`.
    pub fn start(w: Workload, root: &Path, max_campaigns: usize) -> Result<Service, String> {
        let fleet = w == Workload::FleetShard;
        let handle = start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            worker_budget: 32,
            max_campaigns,
            fleet,
            lease_trials: LEASE_TRIALS,
            ..ServeConfig::new(root)
        })
        .map_err(|e| format!("daemon start: {e}"))?;
        let addr = handle.addr().to_string();
        let mut svc = Service {
            handle,
            addr,
            root: root.to_path_buf(),
            stop: Arc::new(AtomicBool::new(false)),
            workers: Vec::new(),
        };
        if fleet {
            for i in 0..FLEET_WORKERS {
                let cfg = WorkerConfig::new(svc.addr.clone(), format!("bench-{i}"));
                let stop = svc.stop.clone();
                let h = std::thread::Builder::new()
                    .name(format!("fitbench-worker-{i}"))
                    .spawn(move || run_worker(&cfg, &|| stop.load(Ordering::SeqCst)))
                    .map_err(|e| format!("spawn worker: {e}"))?;
                svc.workers.push(h);
            }
            svc.wait_registered()?;
        }
        Ok(svc)
    }

    /// Block until every worker has registered: registration belongs to
    /// set-up, not to the first campaign.
    fn wait_registered(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let r = http_request(&self.addr, "GET", "/metrics", None)
                .map_err(|e| format!("metrics during registration: {e}"))?;
            if metric(&r.body, "fleet_workers_registered") >= self.workers.len() as u64 {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err("fleet workers never registered".into());
            }
            std::thread::sleep(Duration::from_millis(POLL_MS));
        }
    }

    /// Directory of campaign `id` under the daemon root.
    pub fn campaign_dir(&self, id: &str) -> PathBuf {
        self.root.join("campaigns").join(id)
    }

    /// Stop workers first (a worker polling a dead coordinator would sit
    /// out its whole retry budget), then the daemon; waits for every
    /// thread. Returns the leases the workers completed.
    pub fn stop(self) -> u64 {
        self.stop.store(true, Ordering::SeqCst);
        let mut leases = 0;
        for h in self.workers {
            if let Ok(Ok(n)) = h.join() {
                leases += n;
            }
        }
        self.handle.shutdown();
        leases
    }
}

/// Value of `name` in a `/metrics` body (`name value` per line); 0 when
/// absent.
pub fn metric(body: &str, name: &str) -> u64 {
    body.lines()
        .find_map(|l| {
            let (k, v) = l.split_once(' ')?;
            (k == name).then(|| v.trim().parse::<f64>().ok())?
        })
        .map(|v| v as u64)
        .unwrap_or(0)
}

/// The closed-loop client. Every request is an attempted operation; a
/// reply outside the expected status is a failed one.
pub struct Client<'a> {
    addr: String,
    tracer: &'a Tracer,
    parent: Option<SpanId>,
    /// Requests sent and refused so far.
    pub tally: Tally,
    /// Round-trip milliseconds by route (`status`, `submit`, ...).
    pub latency_ms: BTreeMap<&'static str, Vec<f64>>,
}

impl<'a> Client<'a> {
    /// A client for the daemon at `addr`; spans go under `parent`.
    pub fn new(addr: &str, tracer: &'a Tracer, parent: Option<SpanId>) -> Client<'a> {
        Client {
            addr: addr.to_string(),
            tracer,
            parent,
            tally: Tally::default(),
            latency_ms: BTreeMap::new(),
        }
    }

    /// One request; `None` (and a failure counted) unless the reply has
    /// status `expect`.
    pub fn call(
        &mut self,
        route: &'static str,
        method: &str,
        path: &str,
        body: Option<&str>,
        expect: u16,
    ) -> Option<String> {
        let t0 = Instant::now();
        let reply = http_request(
            &self.addr,
            method,
            path,
            body.map(|b| ("application/json", b)),
        );
        let t1 = Instant::now();
        self.tracer
            .record(&format!("http.{route}"), path, self.parent, t0, t1);
        self.latency_ms
            .entry(route)
            .or_default()
            .push(t1.duration_since(t0).as_secs_f64() * 1e3);
        let ok = matches!(&reply, Ok(r) if r.status == expect);
        self.tally.check(ok, || match &reply {
            Ok(r) => format!(
                "{method} {path}: status {} (want {expect}): {}",
                r.status,
                r.body.trim()
            ),
            Err(e) => format!("{method} {path}: {e}"),
        });
        reply.ok().filter(|_| ok).map(|r| r.body)
    }

    /// `POST` a JSON document, returning the parsed 201 receipt.
    pub fn post(&mut self, route: &'static str, path: &str, doc: &Json) -> Option<Json> {
        let body = self.call(route, "POST", path, Some(&doc.encode()), 201)?;
        Json::parse(&body).ok()
    }

    /// `GET` a JSON status document and return its `state`.
    fn state(&mut self, path: &str) -> Option<(String, Json)> {
        let body = self.call("status", "GET", path, None, 200)?;
        let v = Json::parse(&body).ok()?;
        let state = v.get("state").and_then(Json::as_str)?.to_string();
        Some((state, v))
    }

    /// Poll `path` every [`POLL_MS`] until its `state` is terminal
    /// (anything but `queued`/`running`), returning the last state.
    /// `on_poll` sees every status document (admission timing).
    pub fn wait_terminal(&mut self, path: &str, mut on_poll: impl FnMut(&Json)) -> String {
        let deadline = Instant::now() + UNIT_DEADLINE;
        loop {
            match self.state(path) {
                Some((state, doc)) => {
                    on_poll(&doc);
                    if state != "queued" && state != "running" {
                        return state;
                    }
                }
                None => return "unreachable".into(),
            }
            if Instant::now() > deadline {
                return "timeout".into();
            }
            std::thread::sleep(Duration::from_millis(POLL_MS));
        }
    }

    /// Fetch `results.csv` of campaign `id` (empty on failure).
    pub fn results_csv(&mut self, id: &str) -> String {
        self.call(
            "results_csv",
            "GET",
            &format!("/campaigns/{id}/results.csv"),
            None,
            200,
        )
        .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_parse() {
        let body = "campaigns_done 3\ntrials_per_sec 12.500\nfleet_leases_expired_total 0\n";
        assert_eq!(metric(body, "campaigns_done"), 3);
        assert_eq!(metric(body, "trials_per_sec"), 12);
        assert_eq!(metric(body, "fleet_leases_expired_total"), 0);
        assert_eq!(metric(body, "absent"), 0);
    }
}
