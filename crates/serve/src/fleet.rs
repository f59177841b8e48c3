//! Fleet coordination: the lease table behind the daemon's coordinator
//! mode.
//!
//! In fleet mode the coordinator never executes trials itself. Each
//! admitted campaign is prepared locally (the golden run pins the
//! pruned point set and the campaign identity), its trial space
//! `0..points × trials_per_point` is chunked into contiguous ranges,
//! and registered workers lease ranges over the HTTP plane:
//!
//! ```text
//! POST /fleet/workers    register        -> worker id (journaled first)
//! POST /fleet/lease      take a range    -> lease id + campaign spec
//! POST /fleet/heartbeat  renew deadline  -> ok / expired
//! POST /fleet/complete   upload records  -> segment written, lease done
//! ```
//!
//! Robustness invariants:
//!
//! - A lease is journaled to the fsynced queue log *before* it is handed
//!   to the worker, and `LeaseDone` *after* its segment is durably on
//!   disk — a coordinator kill -9 can lose neither a granted range nor a
//!   completed one.
//! - A worker that misses its heartbeat deadline loses the lease: the
//!   exact range goes back to pending with exponential backoff and is
//!   re-leased. Trial draws are derived from the per-point seed stream
//!   ([`fastfit::campaign::Campaign::run_trial_range_observed`]), so the
//!   redone range journals byte-identically no matter which worker runs
//!   it.
//! - The merge is ordered by `(point index, trial index)` — never by
//!   arrival — so the canonical journal is byte-identical to a
//!   single-host run of the same campaign.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::daemon::{err_json, store_err, Daemon};
use crate::queue::{seq_of, QueueEvent};
use crate::run::write_results;
use crate::spec::{CampaignSpec, PointSet};
use fastfit::prelude::{CancelToken, InjectionPoint, PointResult};
use fastfit_store::journal::JOURNAL_FILE;
use fastfit_store::json::Json;
use fastfit_store::{
    campaign_meta, load_segments, merge_segments, write_segment, CampaignMeta, CampaignState,
    Record, TrialRecord,
};

/// How long `/fleet/lease` is held open while no range is grantable.
/// A worker's stop flag is looked at between polls, so this also bounds
/// how long a stopping worker lingers.
const IDLE_RETRY_MS: u64 = 200;

/// Re-lease backoff: base doubles per failed attempt on the same range,
/// capped — a range that keeps killing its workers stops hogging the
/// lease queue without ever being abandoned.
const RELEASE_BACKOFF_BASE: Duration = Duration::from_millis(250);
const RELEASE_BACKOFF_CAP: Duration = Duration::from_secs(10);

/// A registered worker.
pub(crate) struct WorkerInfo {
    pub(crate) id: String,
    pub(crate) name: String,
    /// Last control-plane contact (register, lease, heartbeat,
    /// complete). Drives the `fleet_workers_alive` gauge.
    last_seen: Instant,
}

/// A granted, not-yet-completed lease.
pub(crate) struct ActiveLease {
    pub(crate) id: String,
    campaign: String,
    pub(crate) start: u64,
    end: u64,
    pub(crate) worker: String,
    /// Missing a heartbeat past this instant expires the lease.
    deadline: Instant,
    /// How many holders already lost this range (0 = first grant).
    attempt: u32,
}

/// A leasable range waiting for a worker.
struct PendingRange {
    start: u64,
    end: u64,
    /// Expiry count inherited from lost leases of this range.
    attempt: u32,
    /// Backoff gate: not leased before this instant.
    eligible_at: Instant,
}

/// Per-campaign range pool: what is pending, what segments cover, and
/// how workers should reconstruct the campaign.
struct RangePool {
    campaign: String,
    /// Content-addressed campaign identity; workers verify their locally
    /// prepared campaign against it before executing a single trial.
    campaign_sha: String,
    /// The pinned spec workers prepare from (shipped inside every lease
    /// grant), so a worker's own environment cannot change the campaign.
    spec: Json,
    total: u64,
    pending: Vec<PendingRange>,
    /// Ranges durably covered by segment files (may overlap after a
    /// re-lease race; the merge dedups identical trials).
    covered: Vec<(u64, u64)>,
    /// First worker-reported execution error, if any; fails the
    /// campaign.
    failed: Option<String>,
}

/// Worker registry, lease table and campaign range pools. One per
/// daemon, behind [`Daemon::fleet`]; lock order is fleet → queue log.
/// What the queue log carries — workers, granted and completed leases,
/// sequence numbers — changes only through [`FleetState::apply`]; heartbeat
/// deadlines, expiry and the range pools are runtime state.
pub(crate) struct FleetState {
    pub(crate) workers: Vec<WorkerInfo>,
    pub(crate) leases: Vec<ActiveLease>,
    pools: Vec<RangePool>,
    pub(crate) next_wseq: u64,
    pub(crate) next_lseq: u64,
    ttl: Duration,
    expired_total: u64,
    releases_total: u64,
}

impl FleetState {
    pub(crate) fn new(ttl: Duration) -> FleetState {
        FleetState {
            workers: Vec::new(),
            leases: Vec::new(),
            pools: Vec::new(),
            next_wseq: 1,
            next_lseq: 1,
            ttl,
            expired_total: 0,
            releases_total: 0,
        }
    }

    /// Advance by one queue event: how a worker registration, a lease
    /// grant or completion, and a campaign's terminal state (which
    /// retires its leases) enter the fleet, both when `start` folds the
    /// log and when a handler has just appended the event. A worker is
    /// seen and a lease's heartbeat deadline runs from `now`, so after a
    /// coordinator restart a live holder gets one full TTL to reappear.
    pub(crate) fn apply(&mut self, ev: &QueueEvent, now: Instant) {
        match ev {
            QueueEvent::Worker { id, name } => {
                if let Some(n) = seq_of(id) {
                    self.next_wseq = self.next_wseq.max(n + 1);
                }
                self.workers.push(WorkerInfo {
                    id: id.clone(),
                    name: name.clone(),
                    last_seen: now,
                });
            }
            QueueEvent::Lease {
                id,
                campaign,
                start,
                len,
                worker,
            } => {
                if let Some(n) = seq_of(id) {
                    self.next_lseq = self.next_lseq.max(n + 1);
                }
                let end = start + len;
                // A range is granted again only after its earlier lease
                // expired, which the log does not record: the new grant
                // supersedes any lease it overlaps. (At runtime this drops
                // nothing — pending ranges never overlap an active lease.)
                self.leases
                    .retain(|l| &l.campaign != campaign || l.end <= *start || l.start >= end);
                self.leases.push(ActiveLease {
                    id: id.clone(),
                    campaign: campaign.clone(),
                    start: *start,
                    end,
                    worker: worker.clone(),
                    deadline: now + self.ttl,
                    attempt: 0,
                });
            }
            QueueEvent::LeaseDone { id } => self.leases.retain(|l| &l.id != id),
            QueueEvent::Done { id }
            | QueueEvent::Cancelled { id }
            | QueueEvent::Failed { id, .. } => self.leases.retain(|l| &l.campaign != id),
            QueueEvent::Submitted { .. } | QueueEvent::Scenario { .. } => {}
        }
    }

    fn touch(&mut self, worker: &str) -> bool {
        match self.workers.iter_mut().find(|w| w.id == worker) {
            Some(w) => {
                w.last_seen = Instant::now();
                true
            }
            None => false,
        }
    }

    fn pool_mut(&mut self, campaign: &str) -> Option<&mut RangePool> {
        self.pools.iter_mut().find(|p| p.campaign == campaign)
    }
}

/// Split everything in `0..total` not claimed by `busy` into pending
/// ranges of at most `lease_trials` trials. Used at pool registration:
/// `busy` is the union of on-disk segments and restored active leases,
/// so a coordinator restart under a *different* `--lease-trials` never
/// orphans a partial range — pending is computed by subtraction, not by
/// re-chunking from zero.
fn chunk_gaps(
    total: u64,
    lease_trials: u64,
    busy: &[(u64, u64)],
    now: Instant,
) -> Vec<PendingRange> {
    let mut spans: Vec<(u64, u64)> = busy.iter().copied().filter(|(s, e)| e > s).collect();
    spans.sort_unstable();
    let mut out = Vec::new();
    let push_gap = |lo: u64, hi: u64, out: &mut Vec<PendingRange>| {
        let mut s = lo;
        while s < hi {
            let e = (s + lease_trials).min(hi);
            out.push(PendingRange {
                start: s,
                end: e,
                attempt: 0,
                eligible_at: now,
            });
            s = e;
        }
    };
    let mut cursor = 0u64;
    for (s, e) in spans {
        if s > cursor {
            push_gap(cursor, s.min(total), &mut out);
        }
        cursor = cursor.max(e);
        if cursor >= total {
            break;
        }
    }
    if cursor < total {
        push_gap(cursor, total, &mut out);
    }
    out
}

/// Whether the union of `ranges` covers all of `0..total`.
fn covers(ranges: &[(u64, u64)], total: u64) -> bool {
    if total == 0 {
        return true;
    }
    let mut spans: Vec<(u64, u64)> = ranges.to_vec();
    spans.sort_unstable();
    let mut cursor = 0u64;
    for (s, e) in spans {
        if s > cursor {
            return false;
        }
        cursor = cursor.max(e);
        if cursor >= total {
            return true;
        }
    }
    false
}

/// Total trials in the union of `ranges` (overlaps counted once).
fn union_len(ranges: &[(u64, u64)]) -> u64 {
    let mut spans: Vec<(u64, u64)> = ranges.to_vec();
    spans.sort_unstable();
    let mut len = 0u64;
    let mut cursor = 0u64;
    for (s, e) in spans {
        let s = s.max(cursor);
        if e > s {
            len += e - s;
            cursor = e;
        }
    }
    len
}

fn release_backoff(attempt: u32) -> Duration {
    let shift = attempt.saturating_sub(1).min(6);
    (RELEASE_BACKOFF_BASE * 2u32.pow(shift)).min(RELEASE_BACKOFF_CAP)
}

fn body_json(body: &[u8]) -> Result<Json, (u16, Json)> {
    let text = std::str::from_utf8(body).map_err(|_| (400, err_json("body is not UTF-8")))?;
    Json::parse(text).map_err(|e| (400, err_json(&format!("invalid JSON body: {e}"))))
}

fn body_field<'a>(v: &'a Json, key: &str) -> Result<&'a str, (u16, Json)> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| (400, err_json(&format!("missing field: {key}"))))
}

impl Daemon {
    /// `POST /fleet/workers` — register a worker, assign it a durable id.
    pub(crate) fn fleet_register(&self, body: &[u8]) -> (u16, Json) {
        if !self.cfg.fleet {
            return (
                409,
                err_json("daemon is not a fleet coordinator (start it with --fleet)"),
            );
        }
        let v = match body_json(body) {
            Ok(v) => v,
            Err(r) => return r,
        };
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("worker")
            .to_string();
        let mut fl = self.fleet.lock().expect("fleet lock poisoned");
        let id = format!("w{:04}", fl.next_wseq);
        let ev = QueueEvent::Worker {
            id: id.clone(),
            name,
        };
        // Journal before acknowledging: a coordinator restart must keep
        // every id it ever handed out, or a surviving worker's leases
        // would dangle under an unknown id.
        if let Err(e) = self.append_event(&ev) {
            return (500, err_json(&format!("queue journal write failed: {e}")));
        }
        fl.apply(&ev, Instant::now());
        (201, Json::obj([("worker", Json::Str(id))]))
    }

    /// `POST /fleet/lease` — grant the next eligible pending range.
    pub(crate) fn fleet_lease(&self, body: &[u8]) -> (u16, Json) {
        let v = match body_json(body) {
            Ok(v) => v,
            Err(r) => return r,
        };
        let worker = match body_field(&v, "worker") {
            Ok(w) => w.to_string(),
            Err(r) => return r,
        };
        let mut fl = self.fleet.lock().expect("fleet lock poisoned");
        if !fl.touch(&worker) {
            // 410: the worker predates this coordinator's log (wiped
            // root). It re-registers and retries.
            return (410, err_json("unknown worker; re-register"));
        }
        // Long poll: with nothing grantable the request parks on the
        // fleet condvar, so a worker learns of a new pool or a re-leased
        // range when it appears. The hold is bounded; an empty answer
        // tells the worker to ask again at once, except during shutdown,
        // when asking again would only spin.
        let held_until = Instant::now() + Duration::from_millis(IDLE_RETRY_MS);
        let (pi, ri, now) = loop {
            let now = Instant::now();
            let slot = fl.pools.iter().enumerate().find_map(|(pi, p)| {
                if p.failed.is_some() {
                    return None;
                }
                p.pending
                    .iter()
                    .position(|r| r.eligible_at <= now)
                    .map(|ri| (pi, ri))
            });
            if let Some((pi, ri)) = slot {
                break (pi, ri, now);
            }
            let left = held_until.saturating_duration_since(now);
            let stopping = self.is_shutting_down();
            if stopping || left.is_zero() {
                let retry_ms = if stopping { IDLE_RETRY_MS } else { 0 };
                return (
                    200,
                    Json::obj([("lease", Json::Null), ("retry_ms", Json::U64(retry_ms))]),
                );
            }
            fl = self
                .fleet_cv
                .wait_timeout(fl, left)
                .expect("fleet lock poisoned")
                .0;
        };
        let id = format!("l{:04}", fl.next_lseq);
        let (start, end, attempt) = {
            let r = &fl.pools[pi].pending[ri];
            (r.start, r.end, r.attempt)
        };
        let campaign = fl.pools[pi].campaign.clone();
        let ev = QueueEvent::Lease {
            id: id.clone(),
            campaign: campaign.clone(),
            start,
            len: end - start,
            worker,
        };
        // Journal before handing out: a granted range must survive a
        // coordinator kill -9 so the restart can wait for (or expire)
        // it instead of silently double-leasing.
        if let Err(e) = self.append_event(&ev) {
            return (500, err_json(&format!("queue journal write failed: {e}")));
        }
        fl.pools[pi].pending.remove(ri);
        fl.apply(&ev, now);
        // How often the range was lost before is not journaled.
        fl.leases.last_mut().expect("the grant was applied").attempt = attempt;
        if attempt > 0 {
            fl.releases_total += 1;
        }
        let ttl = fl.ttl;
        let pool = &fl.pools[pi];
        let grant = Json::obj([(
            "lease",
            Json::obj([
                ("id", Json::Str(id)),
                ("campaign", Json::Str(campaign)),
                ("sha", Json::Str(pool.campaign_sha.clone())),
                ("spec", pool.spec.clone()),
                ("start", Json::U64(start)),
                ("len", Json::U64(end - start)),
                ("ttl_ms", Json::U64(ttl.as_millis() as u64)),
            ]),
        )]);
        drop(fl);
        // The reaper has a new deadline to sleep until.
        self.wake_scheduler();
        (200, grant)
    }

    /// `POST /fleet/heartbeat` — renew a lease's deadline.
    pub(crate) fn fleet_heartbeat(&self, body: &[u8]) -> (u16, Json) {
        let v = match body_json(body) {
            Ok(v) => v,
            Err(r) => return r,
        };
        let (worker, lease) = match (body_field(&v, "worker"), body_field(&v, "lease")) {
            (Ok(w), Ok(l)) => (w.to_string(), l.to_string()),
            (Err(r), _) | (_, Err(r)) => return r,
        };
        let mut fl = self.fleet.lock().expect("fleet lock poisoned");
        if !fl.touch(&worker) {
            return (410, err_json("unknown worker; re-register"));
        }
        let ttl = fl.ttl;
        match fl
            .leases
            .iter_mut()
            .find(|l| l.id == lease && l.worker == worker)
        {
            Some(l) => {
                l.deadline = Instant::now() + ttl;
                (200, Json::obj([("ok", Json::Bool(true))]))
            }
            // Expired and possibly re-leased: the worker must abandon
            // the range (its upload would be discarded anyway).
            None => (
                200,
                Json::obj([
                    ("ok", Json::Bool(false)),
                    ("reason", Json::Str("expired".into())),
                ]),
            ),
        }
    }

    /// `POST /fleet/complete` — persist a finished lease's records as a
    /// segment (or record the worker's execution error).
    pub(crate) fn fleet_complete(&self, body: &[u8]) -> (u16, Json) {
        let v = match body_json(body) {
            Ok(v) => v,
            Err(r) => return r,
        };
        let (worker, lease_id) = match (body_field(&v, "worker"), body_field(&v, "lease")) {
            (Ok(w), Ok(l)) => (w.to_string(), l.to_string()),
            (Err(r), _) | (_, Err(r)) => return r,
        };
        let mut fl = self.fleet.lock().expect("fleet lock poisoned");
        if !fl.touch(&worker) {
            return (410, err_json("unknown worker; re-register"));
        }
        let held = fl
            .leases
            .iter()
            .find(|l| l.id == lease_id && l.worker == worker)
            .map(|l| (l.campaign.clone(), l.start, l.end));
        let Some((campaign, start, end)) = held else {
            // Expired (and possibly redone elsewhere). The worker throws
            // the records away; if a duplicate segment already landed,
            // the merge dedups it.
            return (
                200,
                Json::obj([
                    ("ok", Json::Bool(false)),
                    ("reason", Json::Str("expired".into())),
                ]),
            );
        };
        if let Some(err) = v.get("error").and_then(Json::as_str) {
            // The campaign fails; its `Failed` event retires the lease.
            if let Some(pool) = fl.pool_mut(&campaign) {
                pool.failed = Some(format!("worker {worker}: {err}"));
            }
            self.fleet_cv.notify_all();
            return (200, Json::obj([("ok", Json::Bool(true))]));
        }
        let Some(items) = v.get("records").and_then(Json::as_arr) else {
            return (400, err_json("missing field: records"));
        };
        let mut trials: Vec<TrialRecord> = Vec::with_capacity(items.len());
        for item in items {
            let line = match item.as_str() {
                Some(l) => l,
                None => return (400, err_json("records must be journal lines")),
            };
            match Record::decode(line) {
                Ok(Some(Record::Trial(t))) => trials.push(t),
                _ => return (400, err_json("records must be trial journal lines")),
            }
        }
        if trials.len() as u64 != end - start {
            return (
                400,
                err_json(&format!(
                    "lease {lease_id} covers {} trials, got {}",
                    end - start,
                    trials.len()
                )),
            );
        }
        // Durability order: segment on disk, then LeaseDone in the log,
        // then the in-memory lease drops. A crash between the first two
        // re-leases a range whose segment already exists — the merge
        // dedups the identical duplicate.
        let dir = self.campaign_dir(&campaign);
        if let Err(e) = write_segment(&dir, &campaign, start, end, &trials) {
            return (500, err_json(&format!("segment write failed: {e}")));
        }
        let ev = QueueEvent::LeaseDone { id: lease_id };
        if let Err(e) = self.append_event(&ev) {
            return (500, err_json(&format!("queue journal write failed: {e}")));
        }
        fl.apply(&ev, Instant::now());
        if let Some(pool) = fl.pool_mut(&campaign) {
            pool.covered.push((start, end));
            if covers(&pool.covered, pool.total) {
                self.fleet_cv.notify_all();
            }
        }
        self.metrics
            .trials_fresh
            .fetch_add(end - start, std::sync::atomic::Ordering::Relaxed);
        (200, Json::obj([("ok", Json::Bool(true))]))
    }

    /// `GET /fleet/status` — workers, leases and per-campaign coverage.
    pub(crate) fn fleet_status_json(&self) -> (u16, Json) {
        let fl = self.fleet.lock().expect("fleet lock poisoned");
        let now = Instant::now();
        let alive_ttl = fl.ttl * 2;
        let workers = fl
            .workers
            .iter()
            .map(|w| {
                Json::obj([
                    ("id", Json::Str(w.id.clone())),
                    ("name", Json::Str(w.name.clone())),
                    (
                        "alive",
                        Json::Bool(now.duration_since(w.last_seen) < alive_ttl),
                    ),
                ])
            })
            .collect();
        let leases = fl
            .leases
            .iter()
            .map(|l| {
                Json::obj([
                    ("id", Json::Str(l.id.clone())),
                    ("campaign", Json::Str(l.campaign.clone())),
                    ("worker", Json::Str(l.worker.clone())),
                    ("start", Json::U64(l.start)),
                    ("len", Json::U64(l.end - l.start)),
                    (
                        "expires_ms",
                        Json::U64(l.deadline.saturating_duration_since(now).as_millis() as u64),
                    ),
                ])
            })
            .collect();
        let campaigns = fl
            .pools
            .iter()
            .map(|p| {
                Json::obj([
                    ("id", Json::Str(p.campaign.clone())),
                    ("total", Json::U64(p.total)),
                    ("covered", Json::U64(union_len(&p.covered).min(p.total))),
                    ("pending_ranges", Json::U64(p.pending.len() as u64)),
                    (
                        "leases",
                        Json::U64(
                            fl.leases
                                .iter()
                                .filter(|l| l.campaign == p.campaign)
                                .count() as u64,
                        ),
                    ),
                ])
            })
            .collect();
        (
            200,
            Json::obj([
                ("fleet", Json::Bool(self.cfg.fleet)),
                ("workers", Json::Arr(workers)),
                ("leases", Json::Arr(leases)),
                ("campaigns", Json::Arr(campaigns)),
            ]),
        )
    }

    /// Leasing progress of one campaign: `(trials covered, total)`.
    /// `None` when the campaign has no registered range pool.
    pub(crate) fn fleet_progress(&self, id: &str) -> Option<(u64, u64)> {
        let fl = self.fleet.lock().expect("fleet lock poisoned");
        let p = fl.pools.iter().find(|p| p.campaign == id)?;
        Some((union_len(&p.covered).min(p.total), p.total))
    }

    /// Fleet gauges appended to `/metrics`.
    pub(crate) fn fleet_metrics_text(&self) -> String {
        let fl = self.fleet.lock().expect("fleet lock poisoned");
        let now = Instant::now();
        let alive_ttl = fl.ttl * 2;
        let alive = fl
            .workers
            .iter()
            .filter(|w| now.duration_since(w.last_seen) < alive_ttl)
            .count();
        format!(
            "fleet_enabled {}\nfleet_workers_registered {}\nfleet_workers_alive {}\nfleet_leases_active {}\nfleet_leases_expired_total {}\nfleet_releases_total {}\n",
            u8::from(self.cfg.fleet),
            fl.workers.len(),
            alive,
            fl.leases.len(),
            fl.expired_total,
            fl.releases_total,
        )
    }

    /// Expire leases whose heartbeat deadline passed; their exact ranges
    /// go back to pending with exponential backoff. Runs whenever the
    /// scheduler wakes, and returns the next instant it has work — the
    /// earliest heartbeat deadline or backoff expiry — for the scheduler
    /// to sleep until (`None`: nothing is timed). Held `/fleet/lease`
    /// requests are woken when a range is grantable. Leases of campaigns
    /// without a registered pool — restored from the log before their
    /// campaign was re-admitted — are left alone: their clock starts when
    /// the pool registers.
    pub(crate) fn reap_leases(&self) -> Option<Instant> {
        if !self.cfg.fleet {
            return None;
        }
        let mut fl = self.fleet.lock().expect("fleet lock poisoned");
        let now = Instant::now();
        let mut i = 0;
        while i < fl.leases.len() {
            let expired = fl.leases[i].deadline <= now;
            let pooled = {
                let c = &fl.leases[i].campaign;
                fl.pools.iter().any(|p| &p.campaign == c)
            };
            if expired && pooled {
                let l = fl.leases.remove(i);
                fl.expired_total += 1;
                let attempt = l.attempt + 1;
                let eligible_at = now + release_backoff(attempt);
                let pool = fl.pool_mut(&l.campaign).expect("pooled lease has a pool");
                pool.pending.push(PendingRange {
                    start: l.start,
                    end: l.end,
                    attempt,
                    eligible_at,
                });
            } else {
                i += 1;
            }
        }
        let mut next = fl
            .leases
            .iter()
            .filter(|l| fl.pools.iter().any(|p| p.campaign == l.campaign))
            .map(|l| l.deadline)
            .min();
        let mut grantable = false;
        for r in fl
            .pools
            .iter()
            .filter(|p| p.failed.is_none())
            .flat_map(|p| &p.pending)
        {
            if r.eligible_at <= now {
                grantable = true;
            } else {
                next = Some(next.map_or(r.eligible_at, |n| n.min(r.eligible_at)));
            }
        }
        if grantable {
            self.fleet_cv.notify_all();
        }
        next
    }

    /// Open a campaign's range pool for leasing. Pending ranges are the
    /// subtraction of on-disk segments and restored in-flight leases
    /// from the full trial space, so a restart resumes exactly what is
    /// still owed.
    fn fleet_open_pool(
        &self,
        id: &str,
        spec: &CampaignSpec,
        meta: &CampaignMeta,
        total: u64,
        dir: &Path,
    ) {
        let segments = load_segments(dir, id);
        let covered: Vec<(u64, u64)> = segments.iter().map(|s| (s.start, s.end)).collect();
        let mut fl = self.fleet.lock().expect("fleet lock poisoned");
        let now = Instant::now();
        let mut busy = covered.clone();
        let ttl = fl.ttl;
        for l in fl.leases.iter_mut().filter(|l| l.campaign == id) {
            // A restored lease's heartbeat clock starts now, not at
            // recovery: its holder gets one full TTL from the moment
            // the range is actually contested again.
            l.deadline = l.deadline.max(now + ttl);
            busy.push((l.start, l.end));
        }
        let pending = chunk_gaps(total, self.cfg.lease_trials.max(1), &busy, now);
        fl.pools.retain(|p| p.campaign != id);
        fl.pools.push(RangePool {
            campaign: id.to_string(),
            campaign_sha: meta.campaign_id(),
            spec: spec.to_json(),
            total,
            pending,
            covered,
            failed: None,
        });
        drop(fl);
        self.fleet_cv.notify_all();
        // Restored leases just got their deadlines.
        self.wake_scheduler();
    }

    /// Stop leasing a campaign's ranges. Its still-active leases stay
    /// until the campaign's terminal event retires them (their workers
    /// then get `expired` on the next heartbeat or upload and move on);
    /// an interrupted campaign keeps them, as its queue log does.
    fn fleet_close_pool(&self, id: &str) {
        let mut fl = self.fleet.lock().expect("fleet lock poisoned");
        fl.pools.retain(|p| p.campaign != id);
    }

    /// Run one campaign through the fleet: prepare through the daemon's
    /// golden store, lease the trial space to workers, wait for segment
    /// coverage, merge deterministically, export results. The merged
    /// journal is byte-identical to [`Daemon::run_campaign`] on a single
    /// host.
    pub(crate) fn run_campaign_fleet(
        &self,
        id: &str,
        spec: &CampaignSpec,
        token: CancelToken,
    ) -> Result<CampaignState, String> {
        if spec.ml_threshold.is_some() || spec.points == Some(PointSet::Invocations) {
            return Err("ml and invocation-point campaigns cannot run on a fleet".to_string());
        }
        let campaign = self.prepare(spec, token.clone())?;
        let dir = self.campaign_dir(id);
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create campaign dir: {e}"))?;
        let points: Vec<InjectionPoint> = campaign.points().to_vec();
        let meta = campaign_meta(&campaign, &points, None);
        let total = campaign.trial_count();
        self.fleet_open_pool(id, spec, &meta, total, &dir);

        // Wait for coverage on the fleet condvar: `fleet_complete` wakes
        // it when the last range lands or a worker reports failure,
        // cancel and shutdown wake it to look at the token.
        let mut fl = self.fleet.lock().expect("fleet lock poisoned");
        let failed = loop {
            if token.is_cancelled() {
                drop(fl);
                self.fleet_close_pool(id);
                return if self.is_shutting_down() {
                    Ok(CampaignState::Interrupted)
                } else {
                    Ok(CampaignState::Cancelled)
                };
            }
            match fl.pools.iter().find(|p| p.campaign == id) {
                Some(p) => match &p.failed {
                    Some(e) => break Some(e.clone()),
                    None if covers(&p.covered, total) => break None,
                    None => {}
                },
                None => break Some("range pool vanished".to_string()),
            }
            fl = self.fleet_cv.wait(fl).expect("fleet lock poisoned");
        };
        drop(fl);
        // Coverage is complete or a worker failed: stop leasing (stray
        // duplicate leases die with the campaign's terminal event).
        self.fleet_close_pool(id);
        if let Some(e) = failed {
            return Err(e);
        }
        // Fold the segments into the canonical journal. The merge is
        // atomic and idempotent — a kill -9 here re-merges to the same
        // bytes on restart.
        let segments = load_segments(&dir, id);
        merge_segments(&dir, &meta, &segments).map_err(store_err)?;
        let contents =
            fastfit_store::journal::read_journal(&dir.join(JOURNAL_FILE)).map_err(store_err)?;
        let results = reconstruct_results(&points, &meta, &contents.trials);
        write_results(&dir, &campaign, &results)?;
        Ok(CampaignState::Done)
    }
}

/// Fold merged trial records back into per-point results (the shape
/// `points_csv` exports) through [`PointResult::add`], the fold a local
/// run aggregates them with in memory.
fn reconstruct_results(
    points: &[InjectionPoint],
    meta: &CampaignMeta,
    trials: &[TrialRecord],
) -> Vec<PointResult> {
    let index: HashMap<&str, usize> = meta
        .point_keys
        .iter()
        .enumerate()
        .map(|(i, k)| (k.as_str(), i))
        .collect();
    let mut results: Vec<PointResult> = points.iter().map(|p| PointResult::new(*p)).collect();
    for t in trials {
        if let Some(&pi) = index.get(t.key.as_str()) {
            results[pi].add(&t.disposition);
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    fn now() -> Instant {
        Instant::now()
    }

    #[test]
    fn chunking_splits_gaps_without_orphaning_partial_ranges() {
        // Fresh space: plain chunks.
        let p = chunk_gaps(10, 4, &[], now());
        let spans: Vec<(u64, u64)> = p.iter().map(|r| (r.start, r.end)).collect();
        assert_eq!(spans, vec![(0, 4), (4, 8), (8, 10)]);

        // Restart with a different lease size over a partial range: the
        // leftover sub-range [6,8) must still be chunked — nothing is
        // orphaned by re-chunking from zero.
        let p = chunk_gaps(10, 4, &[(0, 6), (8, 10)], now());
        let spans: Vec<(u64, u64)> = p.iter().map(|r| (r.start, r.end)).collect();
        assert_eq!(spans, vec![(6, 8)]);

        // Overlapping busy spans collapse.
        let p = chunk_gaps(10, 100, &[(0, 5), (3, 7)], now());
        let spans: Vec<(u64, u64)> = p.iter().map(|r| (r.start, r.end)).collect();
        assert_eq!(spans, vec![(7, 10)]);

        assert!(chunk_gaps(6, 3, &[(0, 6)], now()).is_empty());
    }

    #[test]
    fn coverage_sweep_handles_overlap_and_gaps() {
        assert!(covers(&[], 0));
        assert!(!covers(&[], 1));
        assert!(covers(&[(0, 4), (4, 10)], 10));
        assert!(covers(&[(4, 10), (0, 6)], 10));
        assert!(!covers(&[(0, 4), (5, 10)], 10));
        assert!(!covers(&[(1, 10)], 10));
        assert_eq!(union_len(&[(0, 4), (2, 6), (8, 9)]), 7);
    }

    #[test]
    fn release_backoff_doubles_and_caps() {
        assert_eq!(release_backoff(1), Duration::from_millis(250));
        assert_eq!(release_backoff(2), Duration::from_millis(500));
        assert_eq!(release_backoff(4), Duration::from_millis(2000));
        assert_eq!(release_backoff(100), Duration::from_secs(10));
    }
}
