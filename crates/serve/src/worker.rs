//! The fleet worker: a daemon-less execution loop that leases trial
//! ranges from a coordinator, runs them through the ordinary
//! Campaign/ArenaPool machinery, and uploads the resulting journal
//! records.
//!
//! Workers are deliberately stateless: everything they know — the
//! campaign spec, the range, the heartbeat TTL — arrives inside the
//! lease grant, and nothing they produce is durable until the
//! coordinator writes the segment. A worker may therefore be SIGKILLed
//! at any instant and lose nothing but wall-clock time: the coordinator
//! expires the silent lease and hands the exact range to someone else,
//! and the shared per-point seed stream guarantees the redo journals
//! byte-identically.
//!
//! Workers also outlive the coordinator: every control-plane call goes
//! through [`http_request_retry`], and a lease poll that still fails
//! after the retry budget just waits and tries again, so a coordinator
//! kill -9 + restart looks like a slow RPC, not a fatal error.

use std::collections::HashMap;
use std::io;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Mutex;
use std::time::Duration;

use crate::http::http_request_retry;
use crate::spec::CampaignSpec;
use crate::workload::{resolve_config, resolve_workload, validate_spec};
use fastfit::prelude::{
    point_key, Campaign, CampaignObserver, CancelToken, FaultChannel, ProgressEvent,
};
use fastfit_store::json::Json;
use fastfit_store::{campaign_meta, Record, TrialRecord};

/// Worker configuration.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Coordinator address (`host:port`).
    pub addr: String,
    /// Self-reported display name (shows up in `/fleet/status`).
    pub name: String,
    /// HTTP retry attempts per control-plane call. The jittered backoff
    /// behind it spans a few seconds — enough to ride out a coordinator
    /// restart.
    pub attempts: u32,
    /// Wait before the next lease poll when the coordinator is
    /// unreachable, or answers an empty poll without a `retry_ms` hint.
    pub idle_wait: Duration,
}

impl WorkerConfig {
    /// Defaults: 8 retry attempts per call, 200 ms idle poll.
    pub fn new(addr: impl Into<String>, name: impl Into<String>) -> WorkerConfig {
        WorkerConfig {
            addr: addr.into(),
            name: name.into(),
            attempts: 8,
            idle_wait: Duration::from_millis(200),
        }
    }
}

/// Observer that encodes every fresh trial as the journal line the
/// store would have written — the coordinator persists these lines
/// verbatim into the lease's segment, which is what makes the merged
/// journal byte-identical to a single-host run.
struct RecordCollector {
    channel: FaultChannel,
    lines: Mutex<Vec<String>>,
}

impl CampaignObserver for RecordCollector {
    fn on_event(&self, event: &ProgressEvent<'_>) {
        if let ProgressEvent::TrialFinished {
            point,
            trial,
            bit,
            disposition,
            replayed: false,
            ..
        } = event
        {
            let record = Record::Trial(TrialRecord {
                key: point_key(point),
                trial: *trial,
                bit: *bit,
                channel: self.channel,
                disposition: (*disposition).clone(),
            });
            self.lines
                .lock()
                .expect("record collector lock poisoned")
                .push(record.encode());
        }
    }
}

fn post_retry(cfg: &WorkerConfig, path: &str, body: &str) -> io::Result<crate::http::Response> {
    http_request_retry(
        &cfg.addr,
        "POST",
        path,
        Some(("application/json", body)),
        cfg.attempts,
    )
}

/// Register with the coordinator, returning the assigned worker id.
fn register(cfg: &WorkerConfig) -> io::Result<String> {
    let body = Json::obj([("name", Json::Str(cfg.name.clone()))]).encode();
    let r = post_retry(cfg, "/fleet/workers", &body)?;
    if r.status != 201 {
        return Err(io::Error::other(format!(
            "registration rejected ({}): {}",
            r.status,
            r.body.trim()
        )));
    }
    Json::parse(&r.body)
        .ok()
        .and_then(|v| v.get("worker").and_then(Json::as_str).map(String::from))
        .ok_or_else(|| io::Error::other("unreadable registration receipt"))
}

/// Report a lease as failed (spec rejected, identity mismatch) so the
/// coordinator fails the campaign instead of re-leasing forever.
fn report_error(cfg: &WorkerConfig, worker: &str, lease: &str, error: &str) {
    let body = Json::obj([
        ("worker", Json::Str(worker.to_string())),
        ("lease", Json::Str(lease.to_string())),
        ("error", Json::Str(error.to_string())),
    ])
    .encode();
    let _ = post_retry(cfg, "/fleet/complete", &body);
}

/// One granted lease, decoded.
struct Grant {
    id: String,
    campaign: String,
    sha: String,
    spec: Json,
    start: u64,
    len: u64,
    ttl: Duration,
}

fn decode_grant(lease: &Json) -> Option<Grant> {
    Some(Grant {
        id: lease.get("id")?.as_str()?.to_string(),
        campaign: lease.get("campaign")?.as_str()?.to_string(),
        sha: lease.get("sha")?.as_str()?.to_string(),
        spec: lease.get("spec")?.clone(),
        start: lease.get("start")?.as_u64()?,
        len: lease.get("len")?.as_u64()?,
        ttl: Duration::from_millis(lease.get("ttl_ms")?.as_u64()?),
    })
}

/// Run the worker loop until `stop` returns true: register, lease,
/// execute, upload, repeat. Returns the number of leases completed.
///
/// Prepared campaigns are cached by campaign id — every lease of the
/// same campaign reuses one golden run and one arena pool.
pub fn run_worker(cfg: &WorkerConfig, stop: &(dyn Fn() -> bool + Sync)) -> io::Result<u64> {
    let mut worker_id = register(cfg)?;
    eprintln!("fastfit-worker: registered as {worker_id} at {}", cfg.addr);
    let mut campaigns: HashMap<String, Campaign> = HashMap::new();
    let mut completed = 0u64;
    while !stop() {
        let body = Json::obj([("worker", Json::Str(worker_id.clone()))]).encode();
        let resp = match post_retry(cfg, "/fleet/lease", &body) {
            Ok(r) => r,
            Err(_) => {
                // Coordinator unreachable past the retry budget. Keep
                // polling: workers outlive coordinator restarts.
                std::thread::sleep(cfg.idle_wait);
                continue;
            }
        };
        if resp.status == 410 {
            // The coordinator does not know us (wiped root). Start over.
            worker_id = register(cfg)?;
            continue;
        }
        if resp.status != 200 {
            return Err(io::Error::other(format!(
                "lease request failed ({}): {}",
                resp.status,
                resp.body.trim()
            )));
        }
        let v = Json::parse(&resp.body)
            .map_err(|e| io::Error::other(format!("unreadable lease response: {e}")))?;
        let grant = match v.get("lease") {
            Some(Json::Null) | None => {
                // The coordinator holds an idle poll open itself and
                // answers `retry_ms: 0`; only one that wants a pause
                // (an older one, or one shutting down) names a wait.
                let wait = v
                    .get("retry_ms")
                    .and_then(Json::as_u64)
                    .map(Duration::from_millis)
                    .unwrap_or(cfg.idle_wait);
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                continue;
            }
            Some(lease) => match decode_grant(lease) {
                Some(g) => g,
                None => return Err(io::Error::other("malformed lease grant")),
            },
        };

        // Prepare (or reuse) the campaign, and prove we prepared the
        // same one the coordinator did: the content-addressed campaign
        // id covers workload, config, and the pruned point set.
        if !campaigns.contains_key(&grant.campaign) {
            let spec = match CampaignSpec::from_json(&grant.spec).and_then(|s| {
                validate_spec(&s)?;
                Ok(s)
            }) {
                Ok(s) => s,
                Err(e) => {
                    report_error(cfg, &worker_id, &grant.id, &format!("bad lease spec: {e}"));
                    continue;
                }
            };
            let campaign = Campaign::prepare(resolve_workload(&spec), resolve_config(&spec));
            let local_sha = campaign_meta(&campaign, campaign.points(), None).campaign_id();
            if local_sha != grant.sha {
                report_error(
                    cfg,
                    &worker_id,
                    &grant.id,
                    &format!(
                        "campaign identity mismatch (coordinator {}, worker {local_sha})",
                        grant.sha
                    ),
                );
                continue;
            }
            campaigns.insert(grant.campaign.clone(), campaign);
        }
        let campaign = campaigns.get(&grant.campaign).expect("cached campaign");

        // Heartbeat from a side thread at a third of the TTL, until the
        // sender side of `lease_over` is dropped. A heartbeat answered
        // with `ok:false` means the lease expired under us — cancel the
        // measurement loop and drop the records.
        let (lease_running, lease_over) = mpsc::channel::<()>();
        let heartbeat = {
            let cfg = cfg.clone();
            let worker = worker_id.clone();
            let lease = grant.id.clone();
            let token = campaign.cancel_token();
            let interval = (grant.ttl / 3).max(Duration::from_millis(50));
            std::thread::spawn(move || {
                let body = Json::obj([("worker", Json::Str(worker)), ("lease", Json::Str(lease))])
                    .encode();
                while lease_over.recv_timeout(interval) == Err(RecvTimeoutError::Timeout) {
                    if let Ok(r) = post_retry(&cfg, "/fleet/heartbeat", &body) {
                        let ok = Json::parse(&r.body)
                            .ok()
                            .and_then(|v| v.get("ok").and_then(Json::as_bool))
                            .unwrap_or(false);
                        if !ok {
                            token.cancel();
                            return true;
                        }
                    }
                }
                false
            })
        };

        let collector = RecordCollector {
            channel: campaign.cfg.fault_channel,
            lines: Mutex::new(Vec::new()),
        };
        let finished =
            campaign.run_trial_range_observed(grant.start, grant.start + grant.len, &collector);
        drop(lease_running);
        let lost = heartbeat.join().unwrap_or(false);

        if lost || !finished {
            // Lease expired (or we are stopping): un-poison the cached
            // campaign's token and throw the partial records away — the
            // coordinator already re-leased the range.
            campaigns
                .get_mut(&grant.campaign)
                .expect("cached campaign")
                .set_cancel_token(CancelToken::new());
            continue;
        }

        let lines = collector
            .lines
            .into_inner()
            .expect("record collector lock poisoned");
        let upload = Json::obj([
            ("worker", Json::Str(worker_id.clone())),
            ("lease", Json::Str(grant.id.clone())),
            (
                "records",
                Json::Arr(lines.into_iter().map(Json::Str).collect()),
            ),
        ])
        .encode();
        match post_retry(cfg, "/fleet/complete", &upload) {
            Ok(r) if r.status == 410 => {
                // Coordinator lost our registration between lease and
                // upload (root wiped). The records are unusable.
                worker_id = register(cfg)?;
            }
            Ok(r) if r.status == 200 => {
                let ok = Json::parse(&r.body)
                    .ok()
                    .and_then(|v| v.get("ok").and_then(Json::as_bool))
                    .unwrap_or(false);
                if ok {
                    completed += 1;
                }
            }
            // Expired/rejected or coordinator gone past the retry
            // budget: the range will be (or was) re-leased; the redo
            // journals identically, so dropping the upload is safe.
            Ok(_) | Err(_) => {}
        }
    }
    Ok(completed)
}
