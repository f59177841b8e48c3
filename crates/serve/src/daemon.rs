//! The campaign service daemon: a multi-campaign scheduler behind a
//! thread-per-connection HTTP front end.
//!
//! ## Scheduling
//!
//! The scheduler owns a **global worker budget** priced in *carrier
//! threads* — the OS threads a campaign's arena actually occupies. Under
//! the thread-per-rank engine a campaign costs its rank count; under the
//! cooperative engine every arena multiplexes its ranks onto a single
//! carrier and costs 1, so the same budget admits far more concurrent
//! coop campaigns. Queued campaigns are admitted in submission order
//! while both limits hold: at most `max_campaigns` running, and the
//! running campaigns' combined carrier cost within the budget. A
//! campaign wider than the whole budget is admitted only when nothing
//! else runs, so an oversized submission degrades to serial execution
//! instead of starving forever. Campaigns with the same rank count share
//! one [`ArenaPool`] from a registry keyed by rank count — idle worker
//! arenas migrate between campaigns instead of piling up per campaign.
//!
//! The budget admits *campaigns*. A running campaign may besides run
//! trials ahead of its commit point on cores nothing else is using (the
//! trial pipeline's helper threads, `fastfit::campaign`); those are held
//! to the host's `available_parallelism()` by a process-wide carrier
//! count, so two campaigns on two cores stay at one carrier each and a
//! lone one takes both.
//!
//! ## Durability
//!
//! Submissions are journaled to `queue.jsonl` (one fsync per request)
//! before they are acknowledged; per-campaign trial progress lives in each
//! campaign's own store directory under `campaigns/<id>/`. Restart
//! recovery is therefore two-layer: the queue log says *which* campaigns
//! are still owed, and each campaign's journal replays *how far* it got
//! — the ordinary checkpoint/resume path, which is what makes a daemon
//! campaign journal byte-identical to a local run of the same spec.

use crate::cost::GoldenCostModel;
use crate::fleet::FleetState;
use crate::http::{read_request_limited, write_response, HttpLimits, Request};
use crate::queue::{
    fleet_records, pending_submissions, read_queue, scenario_records, QueueEvent, QueueLog,
};
use crate::spec::CampaignSpec;
use crate::workload::{resolve_config, resolve_ml, resolve_workload, validate_spec};
use fastfit::observe::{CampaignObserver, CampaignPhase, NullObserver, ProgressEvent};
use fastfit::prelude::{
    ml_driven_active, points_csv, ActiveOptions, Campaign, CancelToken, InjectionPoint, Levels,
    MlConfig, MlOrdering, MlTarget, PointResult, TrialDisposition, FEATURE_NAMES,
};
use fastfit_mlstore::{schema_hash, ModelRegistry, StoredModel, MODELS_DIR};
use fastfit_scenario::{filter_by_cost, ConcreteScenario, Grammar};
use fastfit_store::json::Json;
use fastfit_store::telemetry::STATUS_FILE;
use fastfit_store::{
    campaign_meta_ml, ml_target_token, read_store_meta, CampaignState, CampaignStore, MlIdentity,
    StoreError,
};
use simmpi::arena::ArenaPool;
use simmpi::sched::Engine;
use std::collections::HashMap;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Back-off after a failed `accept` (descriptor exhaustion persists
/// until a handler exits). Shutdown cuts it short.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Daemon root: holds `queue.jsonl` and `campaigns/<id>/` stores.
    pub root: PathBuf,
    /// Global worker budget: carrier threads the running campaigns'
    /// arenas may occupy at once (a campaign costs
    /// `Engine::carrier_threads(ranks)`: 1 under coop, its rank count on
    /// the thread-per-rank engine).
    pub worker_budget: usize,
    /// Campaigns allowed to run concurrently.
    pub max_campaigns: usize,
    /// Coordinator mode: campaigns are sharded into trial-range leases
    /// executed by registered fleet workers instead of running locally.
    pub fleet: bool,
    /// Trials per lease in fleet mode.
    pub lease_trials: u64,
    /// Heartbeat deadline: a lease not renewed within this window is
    /// expired and re-leased (with exponential backoff).
    pub lease_ttl: Duration,
}

impl ServeConfig {
    /// A config rooted at `root` on the default address with modest
    /// concurrency (two campaigns, 32 carriers of budget), fleet mode off.
    pub fn new(root: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            addr: DEFAULT_ADDR.to_string(),
            root: root.into(),
            worker_budget: 32,
            max_campaigns: 2,
            fleet: false,
            lease_trials: 8,
            lease_ttl: Duration::from_secs(3),
        }
    }
}

/// The default control-plane address.
pub const DEFAULT_ADDR: &str = "127.0.0.1:8717";

/// In-memory lifecycle of one submission (the queue log keeps only
/// submit + terminal transitions; `Running`/`Interrupted` are
/// reconstructible and deliberately not journaled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryState {
    /// Waiting for budget.
    Queued,
    /// A runner thread owns it.
    Running,
    /// Completed; `results.csv` and final `status.json` written.
    Done,
    /// Cooperatively cancelled.
    Cancelled,
    /// Could not run.
    Failed(String),
    /// Stopped by daemon shutdown after a clean checkpoint; re-queued on
    /// the next start.
    Interrupted,
}

impl EntryState {
    /// Status token shown in listings and minimal status bodies.
    pub fn token(&self) -> &'static str {
        match self {
            EntryState::Queued => "queued",
            EntryState::Running => "running",
            EntryState::Done => "done",
            EntryState::Cancelled => "cancelled",
            EntryState::Failed(_) => "failed",
            EntryState::Interrupted => "interrupted",
        }
    }
}

pub(crate) struct Entry {
    id: String,
    spec: CampaignSpec,
    /// Ranks this campaign will occupy (resolved at submit time for
    /// admission arithmetic).
    ranks: usize,
    state: EntryState,
    /// Cancellation token handed to the campaign when it runs.
    cancel: CancelToken,
    /// A `DELETE` arrived while running; the runner finalizes it as
    /// `Cancelled` (vs. daemon shutdown, which finalizes `Interrupted`).
    cancel_requested: bool,
}

/// One accepted scenario batch: the grouping the aggregate status view
/// reports over. Member campaigns are ordinary queue entries.
struct ScenarioEntry {
    id: String,
    name: String,
    campaigns: Vec<String>,
}

pub(crate) struct SchedState {
    entries: Vec<Entry>,
    next_seq: u64,
    scenarios: Vec<ScenarioEntry>,
    next_scenario_seq: u64,
    /// Runner threads still alive (shutdown waits for zero).
    runners: usize,
}

/// Monotone service counters behind `GET /metrics`.
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    accepted: AtomicU64,
    done: AtomicU64,
    cancelled: AtomicU64,
    failed: AtomicU64,
    /// Fresh (executed, not replayed) trials across all campaigns.
    pub(crate) trials_fresh: AtomicU64,
    /// Collective calls that returned the golden run's recorded result
    /// instead of exchanging one, over the campaigns measured so far.
    prefix_calls_replayed: AtomicU64,
    /// Trial attempts that diverged from their replayed prefix and were
    /// run again without it.
    prefix_fallbacks: AtomicU64,
    /// Trials that ended the moment their fault was absorbed.
    trials_absorbed: AtomicU64,
}

/// The daemon. Shared by the accept loop, handler threads, the
/// scheduler and every campaign runner.
pub struct Daemon {
    pub(crate) cfg: ServeConfig,
    started: Instant,
    state: Mutex<SchedState>,
    /// Paired with `state`: the scheduler parks here until a submission,
    /// a freed slot, a new lease deadline or shutdown; `shutdown()` waits
    /// here for the last runner.
    sched_cv: Condvar,
    /// The durable queue log. Its own lock (not part of the scheduler
    /// state) so fleet handlers can journal lease events without
    /// touching the scheduler; lock order is always state → fleet → log.
    pub(crate) log: Mutex<QueueLog>,
    /// Fleet-mode worker registry, lease table and range pools.
    pub(crate) fleet: Mutex<FleetState>,
    /// Paired with `fleet`: fleet runners wait here for coverage, held
    /// `/fleet/lease` requests for a grantable range.
    pub(crate) fleet_cv: Condvar,
    /// Shared worker pools, keyed by rank count.
    pools: Mutex<HashMap<usize, Arc<ArenaPool>>>,
    /// Golden-run cost model for scenario `max_cost` filtering (profile
    /// cache shared across submissions).
    cost: GoldenCostModel,
    pub(crate) metrics: Metrics,
    shutdown: AtomicBool,
    /// Test seam ([`DaemonHandle::hold_campaigns_after`]): the trial
    /// count campaigns admitted from now on park after; 0 = no gate.
    hold_after: AtomicU64,
}

impl Daemon {
    /// Wake the scheduler for a change made outside the `state` lock.
    /// Passing through the lock orders the change before the scheduler's
    /// next check, so the wakeup cannot fall between check and park.
    pub(crate) fn wake_scheduler(&self) {
        drop(self.state.lock().expect("scheduler lock poisoned"));
        self.sched_cv.notify_all();
    }

    /// The same for waiters on the fleet condvar (cancel, shutdown).
    fn wake_fleet(&self) {
        drop(self.fleet.lock().expect("fleet lock poisoned"));
        self.fleet_cv.notify_all();
    }

    fn campaigns_dir(&self) -> PathBuf {
        self.cfg.root.join("campaigns")
    }

    pub(crate) fn campaign_dir(&self, id: &str) -> PathBuf {
        self.campaigns_dir().join(id)
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The daemon's model registry (`<root>/models/`), shared by ML
    /// campaign warm starts and the `/models` routes.
    pub(crate) fn model_registry(&self) -> Result<ModelRegistry, StoreError> {
        ModelRegistry::open(&self.cfg.root.join(MODELS_DIR))
    }

    /// Handle `GET /models`.
    fn models_list(&self) -> (u16, Json) {
        match self.model_registry().and_then(|r| r.list()) {
            Ok(entries) => (
                200,
                Json::obj([(
                    "models",
                    Json::Arr(entries.iter().map(|e| e.to_json()).collect()),
                )]),
            ),
            Err(e) => (500, err_json(&format!("model registry error: {e}"))),
        }
    }

    /// Handle `GET /models/{id}`: the canonical model document.
    fn model_get(&self, id: &str) -> Result<String, (u16, Json)> {
        let registry = self
            .model_registry()
            .map_err(|e| (500, err_json(&format!("model registry error: {e}"))))?;
        match registry.get(id) {
            Ok(model) => Ok(model.encode() + "\n"),
            Err(StoreError::Mismatch(msg)) => Err((400, err_json(&msg))),
            // Only an absent object is "no such model"; permission or
            // disk failures must not masquerade as a 404.
            Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                Err((404, err_json("no such model")))
            }
            Err(e) => Err((500, err_json(&format!("model registry error: {e}")))),
        }
    }

    pub(crate) fn pool_for(&self, ranks: usize) -> Arc<ArenaPool> {
        self.pools
            .lock()
            .expect("pool registry lock poisoned")
            .entry(ranks)
            .or_insert_with(|| Arc::new(ArenaPool::new(ranks)))
            .clone()
    }

    /// What a campaign of `ranks` ranks costs against the worker budget:
    /// the carrier threads its arena actually occupies on this
    /// platform's engine.
    fn carrier_cost(&self, ranks: usize) -> usize {
        Engine::platform().carrier_threads(ranks)
    }

    /// Handle `POST /campaigns`.
    fn submit(&self, body: &[u8]) -> (u16, Json) {
        if self.is_shutting_down() {
            return (503, err_json("daemon is shutting down"));
        }
        let parsed = std::str::from_utf8(body)
            .map_err(|_| "body is not UTF-8".to_string())
            .and_then(|text| Json::parse(text).map_err(|e| format!("invalid JSON: {e}")))
            .and_then(|v| CampaignSpec::from_json(&v));
        let spec = match parsed {
            Ok(s) => s,
            Err(e) => return (400, err_json(&e)),
        };
        if let Err(e) = validate_spec(&spec) {
            return (400, err_json(&e));
        }
        if self.cfg.fleet && spec.ml_threshold.is_some() {
            return (
                400,
                err_json("ml campaigns cannot run on a fleet: adaptive sampling decides the next point from prior results, so the trial space is not shardable into independent ranges"),
            );
        }
        let ranks = spec.ranks.unwrap_or_else(crate::workload::default_ranks);
        let mut st = self.state.lock().expect("scheduler lock poisoned");
        let seq = st.next_seq;
        let id = format!("c{seq:04}");
        let event = QueueEvent::Submitted {
            id: id.clone(),
            seq,
            spec: spec.clone(),
        };
        // Durable before acknowledged: an id the client has seen must
        // survive kill -9.
        if let Err(e) = self.append_event(&event) {
            return (500, err_json(&format!("queue journal write failed: {e}")));
        }
        st.next_seq = seq + 1;
        st.entries.push(Entry {
            id: id.clone(),
            spec,
            ranks,
            state: EntryState::Queued,
            cancel: CancelToken::new(),
            cancel_requested: false,
        });
        drop(st);
        self.sched_cv.notify_all();
        self.metrics.accepted.fetch_add(1, Ordering::Relaxed);
        (201, Json::obj([("id", Json::Str(id))]))
    }

    /// Handle `POST /scenarios`: parse the grammar, expand the cross
    /// product, price it when the grammar carries `max_cost`, validate
    /// every surviving scenario, then journal the batch — one durable
    /// `Submitted` event per campaign (each indistinguishable from an
    /// individual `POST /campaigns`) followed by the `Scenario` grouping
    /// record. Validation precedes journaling, so a batch is accepted
    /// atomically or not at all.
    fn submit_scenario(&self, body: &[u8]) -> (u16, Json) {
        if self.is_shutting_down() {
            return (503, err_json("daemon is shutting down"));
        }
        let parsed = std::str::from_utf8(body)
            .map_err(|_| "body is not UTF-8".to_string())
            .and_then(|text| Json::parse(text).map_err(|e| format!("invalid JSON: {e}")))
            .and_then(|v| Grammar::from_json(&v));
        let grammar = match parsed {
            Ok(g) => g,
            Err(e) => return (400, err_json(&e)),
        };
        let scenarios = match grammar.expand() {
            Ok(s) => s,
            Err(e) => return (400, err_json(&e)),
        };
        for s in &scenarios {
            let checked = CampaignSpec::from_json(&s.to_spec_json()).and_then(|spec| {
                validate_spec(&spec)?;
                if self.cfg.fleet && spec.ml_threshold.is_some() {
                    return Err("ml campaigns cannot run on a fleet".to_string());
                }
                Ok(())
            });
            if let Err(e) = checked {
                return (400, err_json(&format!("scenario {}: {e}", s.label())));
            }
        }
        let total = scenarios.len();
        let (kept, dropped): (Vec<ConcreteScenario>, usize) = match grammar.max_cost {
            None => (scenarios, 0),
            Some(max) => match filter_by_cost(scenarios, &self.cost, max) {
                Ok(f) => (
                    f.kept.into_iter().map(|(s, _)| s).collect(),
                    f.dropped.len(),
                ),
                Err(e) => return (400, err_json(&e)),
            },
        };
        if kept.is_empty() {
            return (
                400,
                err_json(&format!(
                    "max_cost {} drops all {total} scenarios",
                    grammar.max_cost.unwrap_or(0)
                )),
            );
        }
        let mut st = self.state.lock().expect("scheduler lock poisoned");
        let sid = format!("s{:04}", st.next_scenario_seq);
        let mut ids = Vec::new();
        let mut events = Vec::new();
        let mut entries = Vec::new();
        for (seq, s) in (st.next_seq..).zip(kept) {
            let spec = CampaignSpec::from_json(&s.to_spec_json())
                .expect("scenario validated above lowers cleanly");
            let id = format!("c{seq:04}");
            events.push(QueueEvent::Submitted {
                id: id.clone(),
                seq,
                spec: spec.clone(),
            });
            let ranks = spec.ranks.unwrap_or_else(crate::workload::default_ranks);
            entries.push(Entry {
                id: id.clone(),
                spec,
                ranks,
                state: EntryState::Queued,
                cancel: CancelToken::new(),
                cancel_requested: false,
            });
            ids.push(id);
        }
        events.push(QueueEvent::Scenario {
            id: sid.clone(),
            name: grammar.template.name.clone(),
            campaigns: ids.clone(),
        });
        // The whole batch in one write and one fsync: nothing of it is
        // visible to the scheduler unless all of it is durable.
        let appended = self
            .log
            .lock()
            .expect("queue log lock poisoned")
            .append_all(&events);
        if let Err(e) = appended {
            return (500, err_json(&format!("queue journal write failed: {e}")));
        }
        st.next_seq += entries.len() as u64;
        st.entries.extend(entries);
        st.next_scenario_seq += 1;
        st.scenarios.push(ScenarioEntry {
            id: sid.clone(),
            name: grammar.template.name.clone(),
            campaigns: ids.clone(),
        });
        drop(st);
        self.sched_cv.notify_all();
        self.metrics
            .accepted
            .fetch_add(ids.len() as u64, Ordering::Relaxed);
        (
            201,
            Json::obj([
                ("id", Json::Str(sid)),
                ("count", Json::U64(ids.len() as u64)),
                ("dropped", Json::U64(dropped as u64)),
                (
                    "campaigns",
                    Json::Arr(ids.into_iter().map(Json::Str).collect()),
                ),
            ]),
        )
    }

    /// Handle `GET /scenarios`.
    fn list_scenarios(&self) -> Json {
        let st = self.state.lock().expect("scheduler lock poisoned");
        let items = st
            .scenarios
            .iter()
            .map(|sc| {
                let done = sc
                    .campaigns
                    .iter()
                    .filter(|cid| {
                        st.entries
                            .iter()
                            .any(|e| &e.id == *cid && e.state == EntryState::Done)
                    })
                    .count();
                Json::obj([
                    ("id", Json::Str(sc.id.clone())),
                    ("name", Json::Str(sc.name.clone())),
                    ("count", Json::U64(sc.campaigns.len() as u64)),
                    ("done", Json::U64(done as u64)),
                ])
            })
            .collect();
        Json::Arr(items)
    }

    /// Handle `GET /scenarios/{id}/status`: the aggregate view — one
    /// state per member campaign, a state histogram, and a single
    /// rollup: `running` while any member runs, else `queued` while any
    /// waits, else `done` when every member finished, else `mixed`.
    fn scenario_status(&self, id: &str) -> Option<Json> {
        let st = self.state.lock().expect("scheduler lock poisoned");
        let sc = st.scenarios.iter().find(|s| s.id == id)?;
        let mut counts: std::collections::BTreeMap<&'static str, u64> = Default::default();
        let members: Vec<Json> = sc
            .campaigns
            .iter()
            .map(|cid| {
                let token = st
                    .entries
                    .iter()
                    .find(|e| &e.id == cid)
                    .map(|e| e.state.token())
                    // A crash between the member submissions and the
                    // scenario record cannot produce this (members are
                    // journaled first), but a hand-edited queue can.
                    .unwrap_or("unknown");
                *counts.entry(token).or_insert(0) += 1;
                Json::obj([
                    ("id", Json::Str(cid.clone())),
                    ("state", Json::Str(token.into())),
                ])
            })
            .collect();
        let total: u64 = counts.values().sum();
        let rollup = if counts.contains_key("running") {
            "running"
        } else if counts.contains_key("queued") {
            "queued"
        } else if counts.get("done").copied() == Some(total) {
            "done"
        } else {
            "mixed"
        };
        Some(Json::obj([
            ("id", Json::Str(sc.id.clone())),
            ("name", Json::Str(sc.name.clone())),
            ("state", Json::Str(rollup.into())),
            (
                "counts",
                Json::Obj(
                    counts
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), Json::U64(v)))
                        .collect(),
                ),
            ),
            ("campaigns", Json::Arr(members)),
        ]))
    }

    /// Handle `GET /campaigns`.
    fn list(&self) -> Json {
        let st = self.state.lock().expect("scheduler lock poisoned");
        let items = st
            .entries
            .iter()
            .map(|e| {
                let shown = if e.cancel_requested && e.state == EntryState::Running {
                    "cancelling"
                } else {
                    e.state.token()
                };
                Json::obj([
                    ("id", Json::Str(e.id.clone())),
                    ("workload", Json::Str(e.spec.workload.clone())),
                    ("ranks", Json::U64(e.ranks as u64)),
                    ("state", Json::Str(shown.into())),
                ])
            })
            .collect();
        Json::Arr(items)
    }

    /// Handle `GET /campaigns/{id}/status`: the campaign's `status.json`
    /// bytes verbatim once the store has written one; before that (and
    /// for failed campaigns that never opened a store) a minimal object
    /// carrying the scheduler's view.
    fn status(&self, id: &str) -> Option<(u16, String)> {
        let state = {
            let st = self.state.lock().expect("scheduler lock poisoned");
            st.entries.iter().find(|e| e.id == id)?.state.clone()
        };
        // A failed campaign's status.json (if it got far enough to have
        // one) froze at whatever the store last wrote; the scheduler's
        // verdict is the truth, so serve it instead.
        if let EntryState::Failed(e) = &state {
            let body = Json::obj([
                ("state", Json::Str("failed".into())),
                ("error", Json::Str(e.clone())),
            ]);
            return Some((200, body.encode() + "\n"));
        }
        let path = self.campaign_dir(id).join(STATUS_FILE);
        if let Ok(bytes) = std::fs::read_to_string(&path) {
            return Some((200, bytes));
        }
        // Fleet campaigns have no store-written status.json while they
        // lease; surface the range pool's coverage instead.
        let mut fields = vec![("state", Json::Str(state.token().into()))];
        if self.cfg.fleet {
            if let Some((covered, total)) = self.fleet_progress(id) {
                fields.push(("trials_fresh", Json::U64(covered)));
                fields.push(("trials_total", Json::U64(total)));
            }
        }
        let body = Json::obj(fields);
        Some((200, body.encode() + "\n"))
    }

    /// Handle `DELETE /campaigns/{id}`.
    fn cancel(&self, id: &str) -> (u16, Json) {
        let mut st = self.state.lock().expect("scheduler lock poisoned");
        let Some(entry) = st.entries.iter_mut().find(|e| e.id == id) else {
            return (404, err_json("no such campaign"));
        };
        match entry.state {
            EntryState::Queued => {
                entry.state = EntryState::Cancelled;
                let ev = QueueEvent::Cancelled { id: id.to_string() };
                if let Err(e) = self.append_event(&ev) {
                    return (500, err_json(&format!("queue journal write failed: {e}")));
                }
                self.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
                (200, Json::obj([("state", Json::Str("cancelled".into()))]))
            }
            EntryState::Running => {
                entry.cancel_requested = true;
                entry.cancel.cancel();
                drop(st);
                // A fleet runner waits for coverage, not on the token.
                self.wake_fleet();
                (202, Json::obj([("state", Json::Str("cancelling".into()))]))
            }
            _ => (
                409,
                err_json(&format!("campaign is already {}", entry.state.token())),
            ),
        }
    }

    /// Handle `GET /metrics` (text, one `name value` per line).
    fn metrics_text(&self) -> String {
        let (queued, running, occupancy) = {
            let st = self.state.lock().expect("scheduler lock poisoned");
            let queued = st
                .entries
                .iter()
                .filter(|e| e.state == EntryState::Queued)
                .count();
            let running: Vec<&Entry> = st
                .entries
                .iter()
                .filter(|e| e.state == EntryState::Running)
                .collect();
            let occupancy: usize = running.iter().map(|e| self.carrier_cost(e.ranks)).sum();
            (queued, running.len(), occupancy)
        };
        let busy: u64 = self
            .pools
            .lock()
            .expect("pool registry lock poisoned")
            .values()
            .map(|p| p.busy_workers())
            .sum();
        let trials = self.metrics.trials_fresh.load(Ordering::Relaxed);
        let elapsed = self.started.elapsed().as_secs_f64();
        let tps = if elapsed > 0.0 {
            trials as f64 / elapsed
        } else {
            0.0
        };
        let mut text = format!(
            "campaigns_accepted {}\n\
             campaigns_queued {}\n\
             campaigns_running {}\n\
             campaigns_done {}\n\
             campaigns_cancelled {}\n\
             campaigns_failed {}\n\
             trials_total {}\n\
             trials_per_sec {:.3}\n\
             worker_budget {}\n\
             worker_occupancy {}\n\
             pool_workers_busy {}\n\
             sched_engine {}\n\
             prefix_calls_replayed {}\n\
             prefix_fallbacks {}\n\
             trials_absorbed {}\n",
            self.metrics.accepted.load(Ordering::Relaxed),
            queued,
            running,
            self.metrics.done.load(Ordering::Relaxed),
            self.metrics.cancelled.load(Ordering::Relaxed),
            self.metrics.failed.load(Ordering::Relaxed),
            trials,
            tps,
            self.cfg.worker_budget,
            occupancy,
            busy,
            Engine::platform().name(),
            self.metrics.prefix_calls_replayed.load(Ordering::Relaxed),
            self.metrics.prefix_fallbacks.load(Ordering::Relaxed),
            self.metrics.trials_absorbed.load(Ordering::Relaxed),
        );
        text.push_str(&self.fleet_metrics_text());
        text
    }

    /// One admission decision, under the scheduler's own hold of the
    /// `state` lock: pick the first queued campaign that fits the budget
    /// and count its runner. Returns its id, token and spec.
    fn admit(&self, st: &mut SchedState) -> Option<(String, CampaignSpec, CancelToken)> {
        let running: Vec<usize> = st
            .entries
            .iter()
            .filter(|e| e.state == EntryState::Running)
            .map(|e| self.carrier_cost(e.ranks))
            .collect();
        if running.len() >= self.cfg.max_campaigns {
            return None;
        }
        let occupancy: usize = running.iter().sum();
        let budget = self.cfg.worker_budget;
        let idx = st.entries.iter().position(|e| {
            e.state == EntryState::Queued
                // Fits, or nothing is running (an oversized campaign
                // must not starve — it just runs alone).
                && (occupancy + self.carrier_cost(e.ranks) <= budget || occupancy == 0)
        })?;
        st.runners += 1;
        let entry = &mut st.entries[idx];
        entry.state = EntryState::Running;
        entry
            .cancel
            .hold_after(self.hold_after.load(Ordering::Relaxed));
        Some((entry.id.clone(), entry.spec.clone(), entry.cancel.clone()))
    }

    /// Append one event to the durable queue log (fsync before return).
    pub(crate) fn append_event(&self, event: &QueueEvent) -> std::io::Result<()> {
        self.log
            .lock()
            .expect("queue log lock poisoned")
            .append(event)
    }

    /// Record a runner's terminal transition: journal it when the queue
    /// log owes one, then make it visible and release the runner's slot.
    /// Durable before visible, and the fsync happens outside the `state`
    /// lock so status and listing requests never wait on the disk.
    pub(crate) fn finish(&self, id: &str, state: EntryState) {
        let event = match &state {
            EntryState::Done => {
                self.metrics.done.fetch_add(1, Ordering::Relaxed);
                Some(QueueEvent::Done { id: id.to_string() })
            }
            EntryState::Cancelled => {
                self.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
                Some(QueueEvent::Cancelled { id: id.to_string() })
            }
            EntryState::Failed(e) => {
                self.metrics.failed.fetch_add(1, Ordering::Relaxed);
                Some(QueueEvent::Failed {
                    id: id.to_string(),
                    error: e.clone(),
                })
            }
            // Interrupted is deliberately not journaled: the submission
            // is still owed, and the next start re-queues it.
            _ => None,
        };
        if let Some(ev) = &event {
            if let Err(e) = self.append_event(ev) {
                eprintln!("fastfit-served: queue journal write failed: {e}");
            }
        }
        let mut st = self.state.lock().expect("scheduler lock poisoned");
        if let Some(entry) = st.entries.iter_mut().find(|e| e.id == id) {
            entry.state = state;
        }
        st.runners -= 1;
        drop(st);
        self.sched_cv.notify_all();
    }

    /// Run one campaign to a terminal state. Everything that can fail
    /// returns an error string; the caller turns panics and errors into
    /// `Failed`.
    fn run_campaign(&self, id: &str, spec: &CampaignSpec, token: CancelToken) -> RunResult {
        validate_spec(spec).map_err(RunError::Fatal)?;
        let workload = resolve_workload(spec);
        let cfg = resolve_config(spec);
        let pool = self.pool_for(workload.nranks);
        let mut campaign = Campaign::prepare_with_pool(workload, cfg, &NullObserver, Some(pool));
        // Close the admit/shutdown race: a shutdown that landed while the
        // golden run was preparing must still stop this campaign.
        if self.is_shutting_down() {
            token.cancel();
        }
        campaign.set_cancel_token(token);
        let dir = self.campaign_dir(id);
        let ml = resolve_ml(spec);
        let points: Vec<InjectionPoint> = match &ml {
            Some(_) => campaign.invocation_points(),
            None => campaign.points().to_vec(),
        };
        // Resolve warm-start *before* the store opens: the resolved model
        // ID joins the campaign identity, so `auto` must pin down to a
        // concrete model here. A restart-recovered campaign must re-seed
        // from the model its own journal recorded, not from whatever is
        // newest *now* — the interrupted run's rounds (or a sibling ML
        // campaign's) may have registered newer schema-compatible forests
        // in between, and re-resolving would change the campaign ID and
        // get refused by the store's identity check. Only a first run (no
        // journal yet) resolves `auto` against the registry.
        let mut prior: Option<StoredModel> = None;
        if let (Some((target, _)), Some(w)) = (&ml, &spec.warm_start) {
            let registry = self.model_registry().map_err(store_err)?;
            let schema = schema_hash(&FEATURE_NAMES);
            let target_token = ml_target_token(*target);
            let journaled = if w == "auto" {
                read_store_meta(&dir)
                    .ok()
                    .and_then(|(_, m)| m.ml.and_then(|ml_meta| ml_meta.warm))
            } else {
                None
            };
            let model_id = if let Some(id) = journaled {
                id
            } else if w == "auto" {
                registry
                    .resolve_auto(&schema, &target_token)
                    .map_err(store_err)?
                    .map(|e| e.id)
                    .ok_or_else(|| {
                        RunError::Fatal(
                            "warm_start \"auto\": no compatible model registered".into(),
                        )
                    })?
            } else {
                w.clone()
            };
            let model = registry
                .get(&model_id)
                .map_err(|e| RunError::Fatal(format!("warm_start model: {e}")))?;
            if model.schema() != schema || model.target != target_token {
                return Err(RunError::Fatal(format!(
                    "warm_start model {} has target {} over another schema; campaign needs {}",
                    &model_id[..16],
                    model.target,
                    target_token
                )));
            }
            prior = Some(model);
        }
        // Warm campaigns rank pending points by vote entropy; cold ML
        // campaigns keep the historic scan order (and their IDs).
        let ordering = if prior.is_some() {
            MlOrdering::Entropy
        } else {
            MlOrdering::Scan
        };
        let meta = campaign_meta_ml(
            &campaign,
            &points,
            ml.as_ref().map(|(target, ml_cfg)| MlIdentity {
                target: *target,
                config: ml_cfg,
                warm: prior.as_ref().map(StoredModel::id),
                ordering,
            }),
        );
        let store = CampaignStore::open(&dir, meta).map_err(store_err)?;
        // The profile phase ran during prepare (the store's identity
        // needs the pruned points); backfill its timing.
        store.on_event(&ProgressEvent::PhaseFinished {
            phase: CampaignPhase::Profile,
            wall: campaign.golden_wall,
        });
        let observer = RunnerObserver {
            store: &store,
            metrics: &self.metrics,
        };
        let results = match &ml {
            None => campaign.run_all_observed(&observer).results,
            Some((target, ml_cfg)) => {
                let registry = self.model_registry().map_err(store_err)?;
                let opts = ActiveOptions {
                    prior: prior.as_ref().map(|m| &m.forest),
                    ordering,
                };
                let target_token = ml_target_token(*target);
                run_ml_observed(
                    &campaign,
                    &points,
                    *target,
                    ml_cfg,
                    opts,
                    &observer,
                    &mut |forest| {
                        // Persist the round's forest; a registry failure
                        // costs the model, never the campaign.
                        let m = StoredModel {
                            workload: campaign.workload.name.clone(),
                            channel: campaign.cfg.fault_channel.token().to_string(),
                            transport: if campaign.cfg.resilient {
                                "resilient".into()
                            } else {
                                "plain".into()
                            },
                            target: target_token.clone(),
                            features: FEATURE_NAMES.iter().map(|s| s.to_string()).collect(),
                            forest: forest.clone(),
                        };
                        if let Err(e) = registry.put(&m) {
                            eprintln!("fastfit-served: model registration failed: {e}");
                        }
                    },
                )
            }
        };
        let replay = campaign.replay_stats();
        self.metrics
            .prefix_calls_replayed
            .fetch_add(replay.replayed_calls, Ordering::Relaxed);
        self.metrics
            .prefix_fallbacks
            .fetch_add(replay.fallbacks, Ordering::Relaxed);
        self.metrics
            .trials_absorbed
            .fetch_add(replay.absorbed_trials, Ordering::Relaxed);
        if campaign.cancel_token().is_cancelled() {
            // Shutdown interrupts; an explicit DELETE cancels. Same
            // checkpoint, different lifecycle state.
            let state = if self.is_shutting_down() {
                CampaignState::Interrupted
            } else {
                CampaignState::Cancelled
            };
            store.checkpoint(state).map_err(store_err)?;
            return match state {
                CampaignState::Interrupted => Ok(EntryState::Interrupted),
                _ => Ok(EntryState::Cancelled),
            };
        }
        let csv = points_csv(&results, campaign.cfg.fault_channel);
        std::fs::write(dir.join("results.csv"), csv)
            .map_err(|e| RunError::Fatal(format!("cannot write results.csv: {e}")))?;
        store.finish().map_err(store_err)?;
        Ok(EntryState::Done)
    }
}

/// Error from one campaign run.
pub(crate) enum RunError {
    Fatal(String),
}

pub(crate) type RunResult = Result<EntryState, RunError>;

pub(crate) fn store_err(e: StoreError) -> RunError {
    RunError::Fatal(format!("store error: {e}"))
}

/// Best-effort human-readable text from a runner panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "runner panicked".to_string()
    }
}

pub(crate) fn err_json(msg: &str) -> Json {
    Json::obj([("error", Json::Str(msg.into()))])
}

/// The measurement loop of an ML-driven campaign, identical to the
/// CLI's: the §III-C feedback loop over the post-semantic invocation
/// population with the CLI's per-point seeds (`0xC11 + i`), so a spec
/// submitted to the daemon journals byte-identically to `fastfit-cli
/// campaign --ml` with the same knobs.
fn run_ml_observed(
    campaign: &Campaign,
    points: &[InjectionPoint],
    target: MlTarget,
    ml_cfg: &MlConfig,
    opts: ActiveOptions<'_>,
    observer: &dyn CampaignObserver,
    on_model: &mut dyn FnMut(&randomforest::RandomForest),
) -> Vec<PointResult> {
    let features: Vec<Vec<f64>> = points
        .iter()
        .map(|p| campaign.extractor.features(p))
        .collect();
    let trials = campaign.cfg.trials_per_point;
    let t0 = Instant::now();
    observer.on_event(&ProgressEvent::MeasureStarted {
        points_total: points.len(),
        trials_per_point: trials,
    });
    let cancel = campaign.cancel_token();
    let mut measured = Vec::new();
    let _ = ml_driven_active(
        &features,
        target,
        |i| {
            let pr =
                campaign.measure_point_observed(&points[i], trials, 0xC11 + i as u64, observer);
            let label = match target {
                MlTarget::ErrorType => pr.hist.dominant().index(),
                MlTarget::RateLevels(k) => Levels::even(k).of(pr.error_rate()),
            };
            if !cancel.is_cancelled() {
                observer.on_event(&ProgressEvent::PointFinished {
                    point: &points[i],
                    result: &pr,
                });
            }
            measured.push(pr);
            label
        },
        ml_cfg,
        opts,
        |round, forest| {
            observer.on_event(&ProgressEvent::LearnRound {
                round: round.round,
                measured: round.measured,
                accuracy: round.accuracy,
                predicted: round.predicted,
                oob_accuracy: round.oob_accuracy,
                ordering: round.ordering.token(),
            });
            on_model(forest);
        },
    );
    observer.on_event(&ProgressEvent::PhaseFinished {
        phase: CampaignPhase::Learn,
        wall: t0.elapsed(),
    });
    measured
}

/// Observer composing the campaign store with the daemon's service
/// counters.
struct RunnerObserver<'a> {
    store: &'a CampaignStore,
    metrics: &'a Metrics,
}

impl CampaignObserver for RunnerObserver<'_> {
    fn replay(&self, point: &InjectionPoint, trial: usize, bit: u64) -> Option<TrialDisposition> {
        self.store.replay(point, trial, bit)
    }

    fn on_event(&self, event: &ProgressEvent<'_>) {
        if let ProgressEvent::TrialFinished {
            replayed: false, ..
        } = event
        {
            self.metrics.trials_fresh.fetch_add(1, Ordering::Relaxed);
        }
        self.store.on_event(event);
    }
}

/// A started daemon: the handle the binary and the tests hold.
pub struct DaemonHandle {
    daemon: Arc<Daemon>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    scheduler: Option<JoinHandle<()>>,
}

impl DaemonHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon itself (metrics, state inspection).
    pub fn daemon(&self) -> &Arc<Daemon> {
        &self.daemon
    }

    /// Test seam: every campaign admitted from now on parks at the trial
    /// boundary after its `trials`th journaled trial until it is
    /// cancelled (`CancelToken::hold_after`).
    #[doc(hidden)]
    pub fn hold_campaigns_after(&self, trials: u64) {
        self.daemon.hold_after.store(trials, Ordering::Relaxed);
    }

    /// Test seam: wait until campaign `id` is parked at that gate.
    /// `false` on timeout or an unknown id.
    #[doc(hidden)]
    pub fn wait_held(&self, id: &str, timeout: Duration) -> bool {
        let st = self.daemon.state.lock().expect("scheduler lock poisoned");
        let token = st
            .entries
            .iter()
            .find(|e| e.id == id)
            .map(|e| e.cancel.clone());
        drop(st);
        token.is_some_and(|t| t.wait_held(timeout))
    }

    /// Ask the daemon to stop: new submissions get 503, running
    /// campaigns are cancelled (checkpointing as `interrupted`), the
    /// accept and scheduler loops wind down.
    pub fn request_shutdown(&self) {
        let d = &self.daemon;
        d.shutdown.store(true, Ordering::SeqCst);
        let st = d.state.lock().expect("scheduler lock poisoned");
        for e in st.entries.iter().filter(|e| e.state == EntryState::Running) {
            e.cancel.cancel();
        }
        drop(st);
        d.sched_cv.notify_all();
        d.wake_fleet();
        // The accept loop blocks in `accept`; a throwaway connection is
        // the event that makes it look at the flag.
        let mut addr = self.addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
    }

    /// Request shutdown and wait for every thread (including campaign
    /// runners, which finish their in-flight trial and checkpoint).
    pub fn shutdown(mut self) {
        self.request_shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
        let st = self.daemon.state.lock().expect("scheduler lock poisoned");
        let _st = self
            .daemon
            .sched_cv
            .wait_while(st, |st| st.runners > 0)
            .expect("scheduler lock poisoned");
    }
}

/// Start a daemon: recover the queue, bind the listener, spawn the
/// accept and scheduler loops.
pub fn start(cfg: ServeConfig) -> std::io::Result<DaemonHandle> {
    std::fs::create_dir_all(cfg.root.join("campaigns"))?;
    let events = read_queue(&cfg.root).map_err(|e| {
        std::io::Error::new(
            e.kind(),
            format!("queue recovery failed in {}: {e}", cfg.root.display()),
        )
    })?;
    let (pending, next_seq) = pending_submissions(&events);
    // Rebuild the full listing (terminal states included) so a restarted
    // daemon still answers GET /campaigns for past work.
    let mut entries: Vec<Entry> = Vec::new();
    let mut accepted = 0u64;
    let (mut done, mut cancelled, mut failed) = (0u64, 0u64, 0u64);
    for ev in &events {
        match ev {
            QueueEvent::Submitted { id, spec, .. } => {
                accepted += 1;
                entries.push(Entry {
                    id: id.clone(),
                    ranks: spec.ranks.unwrap_or_else(crate::workload::default_ranks),
                    spec: spec.clone(),
                    state: EntryState::Queued,
                    cancel: CancelToken::new(),
                    cancel_requested: false,
                });
            }
            QueueEvent::Done { id } => {
                done += 1;
                set_state(&mut entries, id, EntryState::Done);
            }
            QueueEvent::Cancelled { id } => {
                cancelled += 1;
                set_state(&mut entries, id, EntryState::Cancelled);
            }
            QueueEvent::Failed { id, error } => {
                failed += 1;
                set_state(&mut entries, id, EntryState::Failed(error.clone()));
            }
            QueueEvent::Scenario { .. }
            | QueueEvent::Worker { .. }
            | QueueEvent::Lease { .. }
            | QueueEvent::LeaseDone { .. } => {}
        }
    }
    let (scenario_recs, next_scenario_seq) = scenario_records(&events);
    let scenarios = scenario_recs
        .into_iter()
        .map(|(id, name, campaigns)| ScenarioEntry {
            id,
            name,
            campaigns,
        })
        .collect();
    let recovered = pending.len();
    // Fleet fold: worker registrations and outstanding (granted, never
    // completed) leases survive a coordinator kill -9. Live workers keep
    // their ids and in-flight ranges across the restart.
    let (fleet_workers, restored_leases, next_wseq, next_lseq) = fleet_records(&events);
    let fleet = FleetState::recovered(
        fleet_workers,
        restored_leases,
        next_wseq,
        next_lseq,
        cfg.lease_ttl,
    );
    let log = QueueLog::open(&cfg.root)?;
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let daemon = Arc::new(Daemon {
        cfg,
        started: Instant::now(),
        state: Mutex::new(SchedState {
            entries,
            next_seq,
            scenarios,
            next_scenario_seq,
            runners: 0,
        }),
        sched_cv: Condvar::new(),
        log: Mutex::new(log),
        fleet: Mutex::new(fleet),
        fleet_cv: Condvar::new(),
        pools: Mutex::new(HashMap::new()),
        cost: GoldenCostModel::new(),
        metrics: Metrics {
            accepted: AtomicU64::new(accepted),
            done: AtomicU64::new(done),
            cancelled: AtomicU64::new(cancelled),
            failed: AtomicU64::new(failed),
            trials_fresh: AtomicU64::new(0),
            prefix_calls_replayed: AtomicU64::new(0),
            prefix_fallbacks: AtomicU64::new(0),
            trials_absorbed: AtomicU64::new(0),
        },
        shutdown: AtomicBool::new(false),
        hold_after: AtomicU64::new(0),
    });
    if recovered > 0 {
        eprintln!("fastfit-served: recovered {recovered} unfinished campaign(s) from the queue");
    }

    let accept_daemon = daemon.clone();
    let accept = std::thread::Builder::new()
        .name("fastfit-accept".into())
        .spawn(move || accept_loop(listener, accept_daemon))?;

    let sched_daemon = daemon.clone();
    let scheduler = std::thread::Builder::new()
        .name("fastfit-scheduler".into())
        .spawn(move || scheduler_loop(sched_daemon))?;

    Ok(DaemonHandle {
        daemon,
        addr,
        accept: Some(accept),
        scheduler: Some(scheduler),
    })
}

fn set_state(entries: &mut [Entry], id: &str, state: EntryState) {
    if let Some(e) = entries.iter_mut().find(|e| e.id == id) {
        e.state = state;
    }
}

fn accept_loop(listener: TcpListener, daemon: Arc<Daemon>) {
    loop {
        let accepted = listener.accept();
        if daemon.is_shutting_down() {
            return;
        }
        match accepted {
            Ok((mut stream, _)) => {
                let d = daemon.clone();
                let _ = std::thread::Builder::new()
                    .name("fastfit-http".into())
                    .spawn(move || {
                        match read_request_limited(&mut stream, &HttpLimits::default()) {
                            Ok(req) => handle(&d, &req, &mut stream),
                            Err(e) => {
                                let body = err_json(&e.message).encode();
                                let _ = write_response(
                                    &mut stream,
                                    e.status,
                                    "application/json",
                                    body.as_bytes(),
                                );
                            }
                        }
                    });
            }
            Err(e) => {
                eprintln!("fastfit-served: accept failed: {e}");
                let st = daemon.state.lock().expect("scheduler lock poisoned");
                let _ = daemon
                    .sched_cv
                    .wait_timeout_while(st, ACCEPT_BACKOFF, |_| !daemon.is_shutting_down());
            }
        }
    }
}

/// The scheduler: admit what fits, spawn its runner, and otherwise park
/// on `sched_cv` until something that could change the answer happens.
/// Admission is decided under the `state` lock the wait releases, so a
/// submission or a freed slot between the two cannot be missed. In fleet
/// mode the park ends at the reaper's next deadline at the latest.
fn scheduler_loop(daemon: Arc<Daemon>) {
    let mut st = daemon.state.lock().expect("scheduler lock poisoned");
    loop {
        if daemon.is_shutting_down() {
            return;
        }
        if let Some((id, spec, token)) = daemon.admit(&mut st) {
            drop(st);
            spawn_runner(&daemon, id, spec, token);
            st = daemon.state.lock().expect("scheduler lock poisoned");
            continue;
        }
        // Expired leases go back to pending with exponential backoff.
        // Reaping under the `state` lock (order state → fleet) is what
        // lets a lease granted right after it wake this very wait.
        st = match daemon.reap_leases() {
            None => daemon.sched_cv.wait(st).expect("scheduler lock poisoned"),
            Some(at) => {
                let left = at.saturating_duration_since(Instant::now());
                let (st, _) = daemon
                    .sched_cv
                    .wait_timeout(st, left)
                    .expect("scheduler lock poisoned");
                st
            }
        };
    }
}

fn spawn_runner(daemon: &Arc<Daemon>, id: String, spec: CampaignSpec, token: CancelToken) {
    let d = daemon.clone();
    let run_id = id.clone();
    let spawned = std::thread::Builder::new()
        .name(format!("fastfit-run-{id}"))
        .spawn(move || {
            let id = run_id;
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if d.cfg.fleet {
                    d.run_campaign_fleet(&id, &spec, token)
                } else {
                    d.run_campaign(&id, &spec, token)
                }
            }));
            let state = match outcome {
                Ok(Ok(state)) => state,
                Ok(Err(RunError::Fatal(e))) => EntryState::Failed(e),
                Err(panic) => EntryState::Failed(panic_text(&panic)),
            };
            d.finish(&id, state);
        });
    if spawned.is_err() {
        daemon.finish(&id, EntryState::Failed("cannot spawn runner".into()));
    }
}

/// Route one request.
fn handle(daemon: &Daemon, req: &Request, stream: &mut std::net::TcpStream) {
    let path = req.path.split('?').next().unwrap_or("");
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let respond_json = |stream: &mut std::net::TcpStream, status: u16, body: Json| {
        let text = body.encode() + "\n";
        let _ = write_response(stream, status, "application/json", text.as_bytes());
    };
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["campaigns"]) => {
            let (status, body) = daemon.submit(&req.body);
            respond_json(stream, status, body);
        }
        ("GET", ["campaigns"]) => respond_json(stream, 200, daemon.list()),
        ("GET", ["campaigns", id, "status"]) => match daemon.status(id) {
            Some((status, body)) => {
                let _ = write_response(stream, status, "application/json", body.as_bytes());
            }
            None => respond_json(stream, 404, err_json("no such campaign")),
        },
        ("GET", ["campaigns", id, "results.csv"]) => {
            match std::fs::read(daemon.campaign_dir(id).join("results.csv")) {
                Ok(bytes) => {
                    let _ = write_response(stream, 200, "text/csv", &bytes);
                }
                Err(_) => respond_json(stream, 404, err_json("no results yet")),
            }
        }
        ("DELETE", ["campaigns", id]) => {
            let (status, body) = daemon.cancel(id);
            respond_json(stream, status, body);
        }
        ("POST", ["scenarios"]) => {
            let (status, body) = daemon.submit_scenario(&req.body);
            respond_json(stream, status, body);
        }
        ("GET", ["scenarios"]) => respond_json(stream, 200, daemon.list_scenarios()),
        ("GET", ["scenarios", id, "status"]) => match daemon.scenario_status(id) {
            Some(body) => respond_json(stream, 200, body),
            None => respond_json(stream, 404, err_json("no such scenario")),
        },
        ("GET", ["metrics"]) => {
            let text = daemon.metrics_text();
            let _ = write_response(stream, 200, "text/plain", text.as_bytes());
        }
        ("GET", ["models"]) => {
            let (status, body) = daemon.models_list();
            respond_json(stream, status, body);
        }
        ("GET", ["models", id]) => match daemon.model_get(id) {
            Ok(text) => {
                let _ = write_response(stream, 200, "application/json", text.as_bytes());
            }
            Err((status, body)) => respond_json(stream, status, body),
        },
        ("POST", ["fleet", "workers"]) => {
            let (status, body) = daemon.fleet_register(&req.body);
            respond_json(stream, status, body);
        }
        ("POST", ["fleet", "lease"]) => {
            let (status, body) = daemon.fleet_lease(&req.body);
            respond_json(stream, status, body);
        }
        ("POST", ["fleet", "heartbeat"]) => {
            let (status, body) = daemon.fleet_heartbeat(&req.body);
            respond_json(stream, status, body);
        }
        ("POST", ["fleet", "complete"]) => {
            let (status, body) = daemon.fleet_complete(&req.body);
            respond_json(stream, status, body);
        }
        ("GET", ["fleet", "status"]) => {
            let (status, body) = daemon.fleet_status_json();
            respond_json(stream, status, body);
        }
        (_, ["campaigns", ..])
        | (_, ["metrics"])
        | (_, ["models", ..])
        | (_, ["scenarios", ..])
        | (_, ["fleet", ..]) => {
            respond_json(stream, 405, err_json("method not allowed"));
        }
        _ => respond_json(stream, 404, err_json("no such endpoint")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::http_request;

    fn tmp_root(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "fastfit-daemon-{}-{}-{:?}",
            tag,
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn ephemeral(root: &std::path::Path) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            worker_budget: 8,
            ..ServeConfig::new(root)
        }
    }

    #[test]
    fn control_plane_rejects_garbage() {
        let root = tmp_root("reject");
        let h = start(ephemeral(&root)).unwrap();
        let addr = h.addr().to_string();
        let r = http_request(
            &addr,
            "POST",
            "/campaigns",
            Some(("application/json", "nope")),
        )
        .unwrap();
        assert_eq!(r.status, 400);
        let r = http_request(
            &addr,
            "POST",
            "/campaigns",
            Some(("application/json", "{\"workload\":\"HPL\"}")),
        )
        .unwrap();
        assert_eq!(r.status, 400);
        assert!(r.body.contains("unknown workload"));
        let r = http_request(&addr, "GET", "/campaigns/c9999/status", None).unwrap();
        assert_eq!(r.status, 404);
        let r = http_request(&addr, "DELETE", "/campaigns/c9999", None).unwrap();
        assert_eq!(r.status, 404);
        let r = http_request(&addr, "PUT", "/metrics", None).unwrap();
        assert_eq!(r.status, 405);
        let r = http_request(&addr, "GET", "/teapot", None).unwrap();
        assert_eq!(r.status, 404);
        let r = http_request(&addr, "GET", "/metrics", None).unwrap();
        assert_eq!(r.status, 200);
        assert!(r.body.contains("campaigns_accepted 0"));
        assert!(r.body.contains("worker_budget 8"));
        h.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn cancel_queued_campaign_without_running_it() {
        let root = tmp_root("cancel-queued");
        // Zero-budget daemon: nothing is ever admitted, so the
        // submission stays queued for as long as we need.
        let cfg = ServeConfig {
            max_campaigns: 0,
            ..ephemeral(&root)
        };
        let h = start(cfg).unwrap();
        let addr = h.addr().to_string();
        let r = http_request(
            &addr,
            "POST",
            "/campaigns",
            Some(("application/json", "{\"workload\":\"IS\",\"ranks\":2}")),
        )
        .unwrap();
        assert_eq!(r.status, 201);
        let id = Json::parse(&r.body)
            .unwrap()
            .get("id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        let r = http_request(&addr, "GET", &format!("/campaigns/{id}/status"), None).unwrap();
        assert_eq!(r.status, 200);
        assert!(r.body.contains("queued"), "{}", r.body);
        let r = http_request(&addr, "DELETE", &format!("/campaigns/{id}"), None).unwrap();
        assert_eq!(r.status, 200);
        // Cancelling twice is a conflict.
        let r = http_request(&addr, "DELETE", &format!("/campaigns/{id}"), None).unwrap();
        assert_eq!(r.status, 409);
        let r = http_request(&addr, "GET", "/campaigns", None).unwrap();
        assert!(r.body.contains("cancelled"), "{}", r.body);
        h.shutdown();
        // The cancellation is durable: a restarted daemon does not
        // re-run the campaign.
        let h = start(ServeConfig {
            max_campaigns: 0,
            ..ephemeral(&root)
        })
        .unwrap();
        let r = http_request(&h.addr().to_string(), "GET", "/campaigns", None).unwrap();
        assert!(r.body.contains("cancelled"), "{}", r.body);
        h.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }
}
