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
//! campaign journal byte-identical to a local run of the same spec. The
//! queue log's events change in-memory state in one place each,
//! `SchedState::apply` and `FleetState::apply`: a handler appends an
//! event and applies it, and `start` applies every logged event, so a
//! restarted daemon holds the state the one that wrote the log ran with.

use crate::cost::GoldenCostModel;
use crate::fleet::FleetState;
use crate::golden::GoldenStore;
use crate::http::{read_request_limited, write_response, HttpLimits, Request};
use crate::queue::{seq_of, QueueEvent, QueueLog};
use crate::run::{CampaignRun, Ran, RESULTS_FILE};
use crate::spec::{CampaignSpec, PointSet};
use crate::workload::{golden_key, pin_spec, resolve_config, validate_spec};
use fastfit::observe::{CampaignObserver, ProgressEvent};
use fastfit::prelude::{Campaign, CancelToken};
use fastfit_mlstore::{ModelRegistry, MODELS_DIR};
use fastfit_scenario::Grammar;
use fastfit_store::json::Json;
use fastfit_store::telemetry::STATUS_FILE;
use fastfit_store::{CampaignState, StoreError};
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

/// One submission as the scheduler holds it. Its `state` is what every
/// endpoint reports for the campaign: the queue log keeps only submit and
/// terminal transitions, so `Running` and `Interrupted` (a shutdown stop,
/// re-queued on the next start) live here alone.
pub(crate) struct Entry {
    pub(crate) id: String,
    /// The pinned spec ([`pin_spec`]): what the queue log journals and
    /// the campaign resolves, whatever the environment does meanwhile.
    spec: CampaignSpec,
    pub(crate) state: CampaignState,
    /// Why a `Failed` campaign could not run.
    error: Option<String>,
    /// Cancellation token handed to the campaign when it runs.
    cancel: CancelToken,
}

impl Entry {
    fn queued(id: String, spec: CampaignSpec) -> Entry {
        Entry {
            id,
            spec,
            state: CampaignState::Queued,
            error: None,
            cancel: CancelToken::new(),
        }
    }

    /// Ranks this campaign occupies (admission arithmetic).
    fn ranks(&self) -> usize {
        self.spec.ranks.expect("queued specs are pinned")
    }
}

/// One accepted scenario batch: the grouping the aggregate status view
/// reports over. Member campaigns are ordinary queue entries.
pub(crate) struct ScenarioEntry {
    pub(crate) id: String,
    name: String,
    pub(crate) campaigns: Vec<String>,
}

/// The scheduler's state. What the queue log carries — entries, their
/// terminal states, scenarios, sequence numbers and the transition
/// counters behind `/metrics` — changes only through [`SchedState::apply`].
pub(crate) struct SchedState {
    pub(crate) entries: Vec<Entry>,
    pub(crate) next_seq: u64,
    pub(crate) scenarios: Vec<ScenarioEntry>,
    pub(crate) next_scenario_seq: u64,
    pub(crate) accepted: u64,
    pub(crate) done: u64,
    pub(crate) cancelled: u64,
    pub(crate) failed: u64,
    /// Runner threads still alive (shutdown waits for zero).
    runners: usize,
}

impl SchedState {
    pub(crate) fn new() -> SchedState {
        SchedState {
            entries: Vec::new(),
            next_seq: 1,
            scenarios: Vec::new(),
            next_scenario_seq: 1,
            accepted: 0,
            done: 0,
            cancelled: 0,
            failed: 0,
            runners: 0,
        }
    }

    /// Advance by one queue event: how a submission, a terminal state or
    /// a scenario record enters the scheduler, both when `start` folds the
    /// log and when a handler has just appended the event. A terminal
    /// event keeps the entry (listings show past work).
    pub(crate) fn apply(&mut self, ev: &QueueEvent) {
        let (id, state, error) = match ev {
            QueueEvent::Submitted { id, seq, spec } => {
                self.next_seq = self.next_seq.max(seq + 1);
                self.entries.push(Entry::queued(id.clone(), spec.clone()));
                self.accepted += 1;
                return;
            }
            QueueEvent::Scenario {
                id,
                name,
                campaigns,
            } => {
                if let Some(n) = seq_of(id) {
                    self.next_scenario_seq = self.next_scenario_seq.max(n + 1);
                }
                self.scenarios.push(ScenarioEntry {
                    id: id.clone(),
                    name: name.clone(),
                    campaigns: campaigns.clone(),
                });
                return;
            }
            QueueEvent::Done { id } => {
                self.done += 1;
                (id, CampaignState::Done, None)
            }
            QueueEvent::Cancelled { id } => {
                self.cancelled += 1;
                (id, CampaignState::Cancelled, None)
            }
            QueueEvent::Failed { id, error } => {
                self.failed += 1;
                (id, CampaignState::Failed, Some(error.clone()))
            }
            QueueEvent::Worker { .. } | QueueEvent::Lease { .. } | QueueEvent::LeaseDone { .. } => {
                return
            }
        };
        if let Some(e) = self.entry_mut(id) {
            e.state = state;
            e.error = error;
        }
    }

    fn entry(&self, id: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.id == id)
    }

    fn entry_mut(&mut self, id: &str) -> Option<&mut Entry> {
        self.entries.iter_mut().find(|e| e.id == id)
    }
}

/// Monotone service counters behind `GET /metrics`.
#[derive(Debug, Default)]
pub(crate) struct Metrics {
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
    /// Where runners, the fleet coordinator and the cost model prepare
    /// campaigns: one golden run per golden key, shared.
    pub(crate) golden: Arc<GoldenStore>,
    /// Golden-run cost model for scenario `max_cost` filtering, over
    /// `golden`.
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

    /// Handle `POST /campaigns`: a batch of one, with no scenario record.
    fn submit(&self, body: &[u8]) -> (u16, Json) {
        if self.is_shutting_down() {
            return (503, err_json("daemon is shutting down"));
        }
        let admitted = parse_body(body, CampaignSpec::from_json).and_then(|s| self.admit_spec(&s));
        let spec = match admitted {
            Ok(s) => s,
            Err(e) => return (400, err_json(&e)),
        };
        match self.enqueue(vec![spec], None) {
            Ok((mut ids, _)) => (201, Json::obj([("id", Json::Str(ids.remove(0)))])),
            Err(e) => e,
        }
    }

    /// Handle `POST /scenarios`: parse the grammar, expand the cross
    /// product, admit every scenario's spec, price the batch when the
    /// grammar carries `max_cost`, then enqueue what survives as one
    /// batch. Every member is admitted before anything is journaled, so a
    /// batch is accepted atomically or not at all.
    fn submit_scenario(&self, body: &[u8]) -> (u16, Json) {
        if self.is_shutting_down() {
            return (503, err_json("daemon is shutting down"));
        }
        let grammar = match parse_body(body, Grammar::from_json) {
            Ok(g) => g,
            Err(e) => return (400, err_json(&e)),
        };
        let scenarios = match grammar.expand() {
            Ok(s) => s,
            Err(e) => return (400, err_json(&e)),
        };
        let mut kept = Vec::with_capacity(scenarios.len());
        for s in &scenarios {
            let admitted =
                CampaignSpec::from_json(&s.to_spec_json()).and_then(|c| self.admit_spec(&c));
            match admitted {
                Ok(spec) => kept.push(spec),
                Err(e) => return (400, err_json(&format!("scenario {}: {e}", s.label()))),
            }
        }
        let total = kept.len();
        if let Some(max) = grammar.max_cost {
            kept.retain(|spec| self.cost.price(spec) <= max);
        }
        let dropped = total - kept.len();
        if kept.is_empty() {
            return (
                400,
                err_json(&format!(
                    "max_cost {} drops all {total} scenarios",
                    grammar.max_cost.unwrap_or(0)
                )),
            );
        }
        let (ids, sid) = match self.enqueue(kept, Some(&grammar.template.name)) {
            Ok(r) => r,
            Err(e) => return e,
        };
        (
            201,
            Json::obj([
                ("id", Json::Str(sid.expect("a scenario batch is recorded"))),
                ("count", Json::U64(ids.len() as u64)),
                ("dropped", Json::U64(dropped as u64)),
                (
                    "campaigns",
                    Json::Arr(ids.into_iter().map(Json::Str).collect()),
                ),
            ]),
        )
    }

    /// Admission of one submitted spec: pinned against the daemon's
    /// environment once (the queue log journals the pinned spec), then
    /// validated and held to the fleet rules.
    fn admit_spec(&self, spec: &CampaignSpec) -> Result<CampaignSpec, String> {
        let spec = pin_spec(spec)?;
        validate_spec(&spec)?;
        let shardable = spec.ml_threshold.is_none() && spec.points != Some(PointSet::Invocations);
        if self.cfg.fleet && !shardable {
            return Err("ml campaigns and points \"invocations\" cannot run on a fleet: a lease is a range of the pruned points' trials, and adaptive sampling decides the next point from prior results".to_string());
        }
        Ok(spec)
    }

    /// Enqueue admitted specs: allocate their IDs, journal one
    /// `Submitted` event per campaign — followed by the `Scenario`
    /// grouping record when `scenario` names a sweep — in one write and
    /// one fsync, then apply the batch. Durable before acknowledged, and
    /// nothing of it is visible to the scheduler unless all of it is
    /// durable. Returns the campaign IDs and the scenario ID.
    fn enqueue(
        &self,
        specs: Vec<CampaignSpec>,
        scenario: Option<&str>,
    ) -> Result<(Vec<String>, Option<String>), (u16, Json)> {
        let mut st = self.state.lock().expect("scheduler lock poisoned");
        let mut ids = Vec::with_capacity(specs.len());
        let mut events = Vec::with_capacity(specs.len() + 1);
        for (seq, spec) in (st.next_seq..).zip(specs) {
            let id = format!("c{seq:04}");
            ids.push(id.clone());
            events.push(QueueEvent::Submitted { id, seq, spec });
        }
        let sid = scenario.map(|name| {
            let sid = format!("s{:04}", st.next_scenario_seq);
            events.push(QueueEvent::Scenario {
                id: sid.clone(),
                name: name.to_string(),
                campaigns: ids.clone(),
            });
            sid
        });
        let appended = self
            .log
            .lock()
            .expect("queue log lock poisoned")
            .append_all(&events);
        if let Err(e) = appended {
            return Err((500, err_json(&format!("queue journal write failed: {e}"))));
        }
        self.apply(&mut st, &events);
        drop(st);
        self.sched_cv.notify_all();
        Ok((ids, sid))
    }

    /// Advance in-memory state by events the queue log holds, as `start`
    /// folds them: the scheduler's, then the fleet's (lock order state →
    /// fleet).
    fn apply(&self, st: &mut SchedState, events: &[QueueEvent]) {
        let mut fl = self.fleet.lock().expect("fleet lock poisoned");
        let now = Instant::now();
        for ev in events {
            st.apply(ev);
            fl.apply(ev, now);
        }
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
                        st.entry(cid)
                            .is_some_and(|e| e.state == CampaignState::Done)
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
        // A crash between the member submissions and the scenario record
        // cannot leave a member without an entry (members are journaled
        // first), but a hand-edited queue can.
        let states: Vec<Option<CampaignState>> = sc
            .campaigns
            .iter()
            .map(|cid| st.entry(cid).map(|e| e.state))
            .collect();
        let token = |s: &Option<CampaignState>| s.map_or("unknown", CampaignState::name);
        let mut counts: std::collections::BTreeMap<&'static str, u64> = Default::default();
        let members: Vec<Json> = sc
            .campaigns
            .iter()
            .zip(&states)
            .map(|(cid, s)| {
                *counts.entry(token(s)).or_insert(0) += 1;
                Json::obj([
                    ("id", Json::Str(cid.clone())),
                    ("state", Json::Str(token(s).into())),
                ])
            })
            .collect();
        let any = |s: CampaignState| states.contains(&Some(s));
        let rollup = if any(CampaignState::Running) {
            CampaignState::Running.name()
        } else if any(CampaignState::Queued) {
            CampaignState::Queued.name()
        } else if states.iter().all(|s| *s == Some(CampaignState::Done)) {
            CampaignState::Done.name()
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
                Json::obj([
                    ("id", Json::Str(e.id.clone())),
                    ("workload", Json::Str(e.spec.workload.clone())),
                    ("ranks", Json::U64(e.ranks() as u64)),
                    ("state", Json::Str(e.state.name().into())),
                ])
            })
            .collect();
        Json::Arr(items)
    }

    /// Handle `GET /campaigns/{id}/status`: the counts of the campaign's
    /// `status.json` (`{}` before the store writes one) under the
    /// scheduler's state, plus the error of a failed campaign. The store's
    /// own `state` is not served: it says `done` before the queue log
    /// does, and a restart re-queues what it calls `interrupted`.
    fn status(&self, id: &str) -> Option<Json> {
        let (state, error) = {
            let st = self.state.lock().expect("scheduler lock poisoned");
            let e = st.entry(id)?;
            (e.state, e.error.clone())
        };
        let file = std::fs::read_to_string(self.campaign_dir(id).join(STATUS_FILE)).ok();
        let mut body = match file.as_deref().map(Json::parse) {
            Some(Ok(Json::Obj(m))) => m,
            _ => Default::default(),
        };
        body.insert("state".into(), Json::Str(state.name().into()));
        if let Some(e) = error {
            body.insert("error".into(), Json::Str(e));
        }
        // Fleet campaigns have no store-written status.json while they
        // lease; surface the range pool's coverage instead.
        if file.is_none() && self.cfg.fleet {
            if let Some((covered, total)) = self.fleet_progress(id) {
                body.insert("trials_fresh".into(), Json::U64(covered));
                body.insert("trials_total".into(), Json::U64(total));
            }
        }
        Some(Json::Obj(body))
    }

    /// Handle `DELETE /campaigns/{id}`.
    fn cancel(&self, id: &str) -> (u16, Json) {
        let mut st = self.state.lock().expect("scheduler lock poisoned");
        let Some(entry) = st.entry_mut(id) else {
            return (404, err_json("no such campaign"));
        };
        match entry.state {
            CampaignState::Queued => {
                let ev = QueueEvent::Cancelled { id: id.to_string() };
                if let Err(e) = self.append_event(&ev) {
                    return (500, err_json(&format!("queue journal write failed: {e}")));
                }
                self.apply(&mut st, std::slice::from_ref(&ev));
                let cancelled = CampaignState::Cancelled.name();
                (200, Json::obj([("state", Json::Str(cancelled.into()))]))
            }
            // The campaign stays `running` until its runner finishes it
            // `cancelled`; the body answers the request, not the state.
            CampaignState::Running => {
                entry.cancel.cancel();
                drop(st);
                // A fleet runner waits for coverage, not on the token.
                self.wake_fleet();
                (202, Json::obj([("state", Json::Str("cancelling".into()))]))
            }
            state => (
                409,
                err_json(&format!("campaign is already {}", state.name())),
            ),
        }
    }

    /// Handle `GET /metrics` (text, one `name value` per line).
    fn metrics_text(&self) -> String {
        let (queued, running, occupancy, (accepted, done, cancelled, failed)) = {
            let st = self.state.lock().expect("scheduler lock poisoned");
            let queued = st
                .entries
                .iter()
                .filter(|e| e.state == CampaignState::Queued)
                .count();
            let running: Vec<&Entry> = st
                .entries
                .iter()
                .filter(|e| e.state == CampaignState::Running)
                .collect();
            let occupancy: usize = running.iter().map(|e| self.carrier_cost(e.ranks())).sum();
            let counts = (st.accepted, st.done, st.cancelled, st.failed);
            (queued, running.len(), occupancy, counts)
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
             trials_absorbed {}\n\
             golden_runs_recorded {}\n\
             golden_runs_reused {}\n",
            accepted,
            queued,
            running,
            done,
            cancelled,
            failed,
            trials,
            tps,
            self.cfg.worker_budget,
            occupancy,
            busy,
            Engine::platform().name(),
            self.metrics.prefix_calls_replayed.load(Ordering::Relaxed),
            self.metrics.prefix_fallbacks.load(Ordering::Relaxed),
            self.metrics.trials_absorbed.load(Ordering::Relaxed),
            self.golden.recorded(),
            self.golden.reused(),
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
            .filter(|e| e.state == CampaignState::Running)
            .map(|e| self.carrier_cost(e.ranks()))
            .collect();
        if running.len() >= self.cfg.max_campaigns {
            return None;
        }
        let occupancy: usize = running.iter().sum();
        let budget = self.cfg.worker_budget;
        let idx = st.entries.iter().position(|e| {
            e.state == CampaignState::Queued
                // Fits, or nothing is running (an oversized campaign
                // must not starve — it just runs alone).
                && (occupancy + self.carrier_cost(e.ranks()) <= budget || occupancy == 0)
        })?;
        st.runners += 1;
        let entry = &mut st.entries[idx];
        entry.state = CampaignState::Running;
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

    /// Record a runner's terminal transition (an error is `Failed`):
    /// journal it when the queue log owes one, then apply it and release
    /// the runner's slot. Durable before visible, and the fsync happens
    /// outside the `state` lock so status and listing requests never wait
    /// on the disk.
    pub(crate) fn finish(&self, id: &str, outcome: Result<CampaignState, String>) {
        let event = match &outcome {
            Ok(CampaignState::Done) => Some(QueueEvent::Done { id: id.to_string() }),
            Ok(CampaignState::Cancelled) => Some(QueueEvent::Cancelled { id: id.to_string() }),
            Err(e) => Some(QueueEvent::Failed {
                id: id.to_string(),
                error: e.clone(),
            }),
            // Interrupted is deliberately not journaled: the submission
            // is still owed, and the next start re-queues it.
            Ok(_) => None,
        };
        if let Some(ev) = &event {
            if let Err(e) = self.append_event(ev) {
                eprintln!("fastfit-serve: queue journal write failed: {e}");
            }
        }
        let mut st = self.state.lock().expect("scheduler lock poisoned");
        match &event {
            Some(ev) => self.apply(&mut st, std::slice::from_ref(ev)),
            None => {
                if let (Some(entry), Ok(state)) = (st.entry_mut(id), outcome) {
                    entry.state = state;
                }
            }
        }
        st.runners -= 1;
        drop(st);
        self.sched_cv.notify_all();
    }

    /// Prepare the campaign `spec` describes through the golden store,
    /// stopped by `token`.
    pub(crate) fn prepare(
        &self,
        spec: &CampaignSpec,
        token: CancelToken,
    ) -> Result<Campaign, String> {
        validate_spec(spec)?;
        let key = golden_key(spec);
        let pool = self.pool_for(key.ranks());
        let mut campaign = self.golden.prepare(&key, resolve_config(spec), Some(pool));
        // Close the admit/shutdown race: a shutdown that landed while the
        // golden run was preparing must still stop this campaign.
        if self.is_shutting_down() {
            token.cancel();
        }
        campaign.set_cancel_token(token);
        Ok(campaign)
    }

    /// Run one campaign to a terminal state. Everything that can fail
    /// returns an error string; the caller turns panics and errors into
    /// `Failed`.
    fn run_campaign(
        &self,
        id: &str,
        spec: &CampaignSpec,
        token: CancelToken,
    ) -> Result<CampaignState, String> {
        let campaign = self.prepare(spec, token)?;
        let registry = spec.ml_threshold.map(|_| self.model_registry());
        let registry = registry.transpose().map_err(store_err)?;
        let dir = self.campaign_dir(id);
        let run = CampaignRun::open(&campaign, spec, Some(&dir), registry.as_ref())?;
        let ran = run.measure(&FreshTrials(&self.metrics));
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
        match ran? {
            Ran::Done { .. } => Ok(CampaignState::Done),
            Ran::Stopped { .. } => {
                // Shutdown interrupts; an explicit DELETE cancels. Same
                // checkpoint, different lifecycle state.
                let state = if self.is_shutting_down() {
                    CampaignState::Interrupted
                } else {
                    CampaignState::Cancelled
                };
                if let Some(store) = &run.store {
                    store.checkpoint(state).map_err(store_err)?;
                }
                Ok(state)
            }
        }
    }
}

pub(crate) fn store_err(e: StoreError) -> String {
    format!("store error: {e}")
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

/// A request body as the JSON document `from_json` reads.
fn parse_body<T>(
    body: &[u8],
    from_json: impl FnOnce(&Json) -> Result<T, String>,
) -> Result<T, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    from_json(&Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?)
}

pub(crate) fn err_json(msg: &str) -> Json {
    Json::obj([("error", Json::Str(msg.into()))])
}

/// Counts a runner's fresh trials into the daemon's service counters.
struct FreshTrials<'a>(&'a Metrics);

impl CampaignObserver for FreshTrials<'_> {
    fn on_event(&self, event: &ProgressEvent<'_>) {
        if let ProgressEvent::TrialFinished {
            replayed: false, ..
        } = event
        {
            self.0.trials_fresh.fetch_add(1, Ordering::Relaxed);
        }
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
        let token = st.entry(id).map(|e| e.cancel.clone());
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
        for e in st
            .entries
            .iter()
            .filter(|e| e.state == CampaignState::Running)
        {
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
    let (log, mut events) = QueueLog::recover(&cfg.root).map_err(|e| {
        std::io::Error::new(
            e.kind(),
            format!("queue recovery failed in {}: {e}", cfg.root.display()),
        )
    })?;
    // Fold the log through the runtime's own `apply`s: the full listing
    // (terminal states included, so a restarted daemon still answers
    // GET /campaigns for past work), scenarios, registered workers and
    // outstanding leases, whose holders get one heartbeat TTL from now.
    let mut sched = SchedState::new();
    let mut fleet = FleetState::new(cfg.lease_ttl);
    let now = Instant::now();
    for ev in &mut events {
        // A submission an older daemon logged unpinned is pinned here,
        // once, under this daemon's environment.
        if let QueueEvent::Submitted { id, spec, .. } = ev {
            *spec = pin_spec(spec).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("cannot recover campaign {id}: {e}"),
                )
            })?;
        }
        sched.apply(ev);
        fleet.apply(ev, now);
    }
    let recovered = sched
        .entries
        .iter()
        .filter(|e| e.state == CampaignState::Queued)
        .count();
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let golden = Arc::new(GoldenStore::default());
    let daemon = Arc::new(Daemon {
        cfg,
        started: Instant::now(),
        state: Mutex::new(sched),
        sched_cv: Condvar::new(),
        log: Mutex::new(log),
        fleet: Mutex::new(fleet),
        fleet_cv: Condvar::new(),
        pools: Mutex::new(HashMap::new()),
        cost: GoldenCostModel::over(golden.clone()),
        golden,
        metrics: Metrics::default(),
        shutdown: AtomicBool::new(false),
        hold_after: AtomicU64::new(0),
    });
    if recovered > 0 {
        eprintln!("fastfit-serve: recovered {recovered} unfinished campaign(s) from the queue");
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
                eprintln!("fastfit-serve: accept failed: {e}");
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
            d.finish(&id, outcome.unwrap_or_else(|panic| Err(panic_text(&panic))));
        });
    if spawned.is_err() {
        daemon.finish(&id, Err("cannot spawn runner".into()));
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
            Some(body) => respond_json(stream, 200, body),
            None => respond_json(stream, 404, err_json("no such campaign")),
        },
        ("GET", ["campaigns", id, "results.csv"]) => {
            match std::fs::read(daemon.campaign_dir(id).join(RESULTS_FILE)) {
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
