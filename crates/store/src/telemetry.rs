//! Live campaign telemetry: lock-free counters flushed to `status.json`.
//!
//! The measurement loop commits thousands of trials while other threads
//! (the daemon's HTTP handlers) read snapshots, so the hot path is all
//! `AtomicU64` — no locks, no allocation. A
//! snapshot is periodically rendered to `status.json` in the campaign
//! directory (atomic tmp + rename, so readers never observe a partial
//! file); `fastfit-cli status <dir>` is just a pretty-printer over it.

use crate::json::Json;
use crate::StoreError;
use fastfit::prelude::{CampaignPhase, FaultChannel, ALL_FAULT_CHANNELS, ALL_RESPONSES};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use fastfit::observe::ALL_PHASES;

/// Status file name inside a campaign directory.
pub const STATUS_FILE: &str = "status.json";

/// `status.json` key of one channel's response histogram
/// (`responses_param`, `responses_message`, `responses_crash_stop`, ...).
fn channel_hist_key(ch: FaultChannel) -> String {
    format!("responses_{}", ch.token().replace('-', "_"))
}

/// Campaign lifecycle states recorded in `status.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignState {
    /// Measurement in progress (or the process died without finishing —
    /// a `running` status older than its campaign's process is exactly
    /// the resume case).
    Running,
    /// Campaign finished.
    Done,
    /// Cooperatively cancelled (a `DELETE /campaigns/{id}` or explicit
    /// cancel): the journal is checkpointed and resumable, but nobody
    /// intends to resume it.
    Cancelled,
    /// Interrupted by an external signal (SIGINT/SIGTERM) after a clean
    /// checkpoint: resumable, and resuming is the expected next step.
    Interrupted,
}

impl CampaignState {
    /// The token recorded in `status.json`.
    pub fn name(self) -> &'static str {
        match self {
            CampaignState::Running => "running",
            CampaignState::Done => "done",
            CampaignState::Cancelled => "cancelled",
            CampaignState::Interrupted => "interrupted",
        }
    }

    /// Decode a `status.json` state token.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "running" => Some(CampaignState::Running),
            "done" => Some(CampaignState::Done),
            "cancelled" => Some(CampaignState::Cancelled),
            "interrupted" => Some(CampaignState::Interrupted),
            _ => None,
        }
    }

    /// Whether this state means the campaign stopped short of completion
    /// with a resumable journal behind it.
    pub fn is_resumable_stop(self) -> bool {
        matches!(self, CampaignState::Cancelled | CampaignState::Interrupted)
    }
}

/// Live counters for one running campaign. All relaxed atomics: counts
/// are monotone and a snapshot being a few trials stale is fine.
#[derive(Debug)]
pub struct Telemetry {
    started: Instant,
    points_total: AtomicU64,
    trials_per_point: AtomicU64,
    points_done: AtomicU64,
    trials_fresh: AtomicU64,
    trials_replayed: AtomicU64,
    /// Extra supervised attempts spent on retries (fresh trials only).
    trials_retried: AtomicU64,
    /// Trials whose disposition is quarantined (no response classified).
    trials_quarantined: AtomicU64,
    responses: [AtomicU64; 6],
    /// Per-channel response histograms, indexed by
    /// [`FaultChannel::index`]. The combined `responses` stays
    /// authoritative; these split it so a mixed-history directory still
    /// reads sensibly.
    responses_by_channel: [[AtomicU64; 6]; 5],
    /// Resilient-transport recoveries observed across all trials.
    retransmits: AtomicU64,
    /// Timeline fault events that fired, per channel
    /// ([`FaultChannel::index`] order — the channel is the trial's, i.e.
    /// the timeline's primary). Single-draw trials contribute 0 or 1.
    events_fired_by_channel: [AtomicU64; 5],
    /// Timeline fault events that lifted (healed), per channel.
    events_lifted_by_channel: [AtomicU64; 5],
    /// Per-phase wall micros, `ALL_PHASES` order.
    phase_us: [AtomicU64; 4],
    learn_rounds: AtomicU64,
    /// Latest held-out accuracy, stored as `f64::to_bits`.
    learn_accuracy_bits: AtomicU64,
    /// Full per-round ML convergence history. The ML loop is serial and
    /// rounds are rare (one per batch), so a mutex off the trial hot
    /// path is fine.
    ml_rounds: Mutex<Vec<MlRoundStat>>,
}

/// One ML feedback round as recorded in `status.json`'s `ml_rounds`.
#[derive(Debug, Clone, PartialEq)]
pub struct MlRoundStat {
    /// 1-based round number.
    pub round: u64,
    /// Points measured so far.
    pub measured: u64,
    /// Points still unmeasured after this round.
    pub predicted: u64,
    /// Stopping accuracy after this round.
    pub accuracy: f64,
    /// Out-of-bag accuracy of the round's forest.
    pub oob_accuracy: Option<f64>,
    /// Pending-point ordering in effect (`scan` | `entropy`).
    pub ordering: String,
}

impl MlRoundStat {
    fn to_json(&self) -> Json {
        Json::obj([
            ("round", Json::U64(self.round)),
            ("measured", Json::U64(self.measured)),
            ("predicted", Json::U64(self.predicted)),
            ("accuracy", Json::F64(self.accuracy)),
            (
                "oob_accuracy",
                self.oob_accuracy.map(Json::F64).unwrap_or(Json::Null),
            ),
            ("ordering", Json::Str(self.ordering.clone())),
        ])
    }

    fn from_json(v: &Json) -> Option<MlRoundStat> {
        Some(MlRoundStat {
            round: v.get("round").and_then(Json::as_u64)?,
            measured: v.get("measured").and_then(Json::as_u64)?,
            predicted: v.get("predicted").and_then(Json::as_u64).unwrap_or(0),
            accuracy: v.get("accuracy").and_then(Json::as_f64)?,
            oob_accuracy: v.get("oob_accuracy").and_then(Json::as_f64),
            ordering: v
                .get("ordering")
                .and_then(Json::as_str)
                .unwrap_or("scan")
                .to_string(),
        })
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry {
            started: Instant::now(),
            points_total: AtomicU64::new(0),
            trials_per_point: AtomicU64::new(0),
            points_done: AtomicU64::new(0),
            trials_fresh: AtomicU64::new(0),
            trials_replayed: AtomicU64::new(0),
            trials_retried: AtomicU64::new(0),
            trials_quarantined: AtomicU64::new(0),
            responses: Default::default(),
            responses_by_channel: Default::default(),
            retransmits: AtomicU64::new(0),
            events_fired_by_channel: Default::default(),
            events_lifted_by_channel: Default::default(),
            phase_us: Default::default(),
            learn_rounds: AtomicU64::new(0),
            learn_accuracy_bits: AtomicU64::new(f64::NAN.to_bits()),
            ml_rounds: Mutex::new(Vec::new()),
        }
    }
}

impl Telemetry {
    /// Fresh telemetry; the trials/sec clock starts now.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the measurement loop's extent (points × trials).
    pub fn set_totals(&self, points_total: usize, trials_per_point: usize) {
        self.points_total
            .store(points_total as u64, Ordering::Relaxed);
        self.trials_per_point
            .store(trials_per_point as u64, Ordering::Relaxed);
    }

    /// Record one finished trial. `response` is `None` for a quarantined
    /// disposition; `retries` is the extra supervised attempts the trial
    /// needed (always 0 for replays). `channel` attributes the response
    /// to the per-channel histogram; `retransmits` is the trial's
    /// resilient-transport recovery count (0 in plain mode).
    pub fn trial_finished(
        &self,
        response: Option<fastfit::prelude::Response>,
        retries: u32,
        replayed: bool,
        channel: FaultChannel,
        retransmits: u64,
    ) {
        if replayed {
            self.trials_replayed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.trials_fresh.fetch_add(1, Ordering::Relaxed);
            self.trials_retried
                .fetch_add(retries as u64, Ordering::Relaxed);
        }
        self.retransmits.fetch_add(retransmits, Ordering::Relaxed);
        match response {
            Some(r) => {
                self.responses[r.index()].fetch_add(1, Ordering::Relaxed);
                self.responses_by_channel[channel.index()][r.index()]
                    .fetch_add(1, Ordering::Relaxed);
            }
            None => {
                self.trials_quarantined.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Record one classified trial's timeline event ground truth:
    /// `fired` events triggered and `lifted` events healed, attributed
    /// to the campaign channel. Single-draw trials report `fired` 0/1
    /// and `lifted` 0, keeping the rollup meaningful across mixed
    /// directories.
    pub fn events_observed(&self, channel: FaultChannel, fired: u64, lifted: u64) {
        self.events_fired_by_channel[channel.index()].fetch_add(fired, Ordering::Relaxed);
        self.events_lifted_by_channel[channel.index()].fetch_add(lifted, Ordering::Relaxed);
    }

    /// Record one finished point.
    pub fn point_finished(&self) {
        self.points_done.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a finished phase's wall time.
    pub fn phase_finished(&self, phase: CampaignPhase, wall: std::time::Duration) {
        let idx = ALL_PHASES.iter().position(|p| *p == phase).unwrap();
        self.phase_us[idx].store(wall.as_micros() as u64, Ordering::Relaxed);
    }

    /// Record a finished ML round: the latest accuracy for the headline
    /// counters, plus a full convergence entry for `ml_rounds`.
    pub fn learn_round(
        &self,
        round: usize,
        accuracy: f64,
        measured: usize,
        predicted: usize,
        oob_accuracy: Option<f64>,
        ordering: &str,
    ) {
        self.learn_rounds.store(round as u64, Ordering::Relaxed);
        self.learn_accuracy_bits
            .store(accuracy.to_bits(), Ordering::Relaxed);
        self.ml_rounds
            .lock()
            .expect("ml_rounds lock poisoned")
            .push(MlRoundStat {
                round: round as u64,
                measured: measured as u64,
                predicted: predicted as u64,
                accuracy,
                oob_accuracy,
                ordering: ordering.to_string(),
            });
    }

    /// Total trials observed (fresh + replayed).
    pub fn trials_done(&self) -> u64 {
        self.trials_fresh.load(Ordering::Relaxed) + self.trials_replayed.load(Ordering::Relaxed)
    }

    /// Render the counters into a snapshot.
    pub fn snapshot(
        &self,
        campaign_id: &str,
        workload: &str,
        state: CampaignState,
    ) -> StatusSnapshot {
        let elapsed = self.started.elapsed().as_secs_f64();
        let fresh = self.trials_fresh.load(Ordering::Relaxed);
        let replayed = self.trials_replayed.load(Ordering::Relaxed);
        let retried = self.trials_retried.load(Ordering::Relaxed);
        let quarantined = self.trials_quarantined.load(Ordering::Relaxed);
        let points_total = self.points_total.load(Ordering::Relaxed);
        let trials_per_point = self.trials_per_point.load(Ordering::Relaxed);
        let trials_total = points_total * trials_per_point;
        // Throughput counts only *fresh* trials: replays are free, and
        // folding them in would make the resumed campaign's ETA absurd.
        let trials_per_sec = if elapsed > 0.0 {
            fresh as f64 / elapsed
        } else {
            0.0
        };
        let remaining = trials_total.saturating_sub(fresh + replayed);
        let eta_secs = if trials_per_sec > 0.0 && remaining > 0 {
            Some(remaining as f64 / trials_per_sec)
        } else {
            None
        };
        let mut responses = [0u64; 6];
        let mut responses_by_channel = [[0u64; 6]; 5];
        for i in 0..6 {
            responses[i] = self.responses[i].load(Ordering::Relaxed);
            for (c, per) in self.responses_by_channel.iter().enumerate() {
                responses_by_channel[c][i] = per[i].load(Ordering::Relaxed);
            }
        }
        let mut events_fired_by_channel = [0u64; 5];
        let mut events_lifted_by_channel = [0u64; 5];
        for c in 0..5 {
            events_fired_by_channel[c] = self.events_fired_by_channel[c].load(Ordering::Relaxed);
            events_lifted_by_channel[c] = self.events_lifted_by_channel[c].load(Ordering::Relaxed);
        }
        let mut phase_secs = [None; 4];
        for (i, us) in self.phase_us.iter().enumerate() {
            let v = us.load(Ordering::Relaxed);
            if v > 0 {
                phase_secs[i] = Some(v as f64 / 1e6);
            }
        }
        let accuracy = f64::from_bits(self.learn_accuracy_bits.load(Ordering::Relaxed));
        StatusSnapshot {
            campaign_id: campaign_id.to_string(),
            workload: workload.to_string(),
            state,
            points_done: self.points_done.load(Ordering::Relaxed),
            points_total,
            trials_fresh: fresh,
            trials_replayed: replayed,
            trials_retried: retried,
            trials_quarantined: quarantined,
            trials_total,
            responses,
            responses_by_channel,
            retransmits: self.retransmits.load(Ordering::Relaxed),
            events_fired_by_channel,
            events_lifted_by_channel,
            phase_secs,
            learn_rounds: self.learn_rounds.load(Ordering::Relaxed),
            learn_accuracy: if accuracy.is_nan() {
                None
            } else {
                Some(accuracy)
            },
            ml_rounds: self
                .ml_rounds
                .lock()
                .expect("ml_rounds lock poisoned")
                .clone(),
            elapsed_secs: elapsed,
            trials_per_sec,
            eta_secs,
        }
    }
}

/// One rendered status — the schema of `status.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusSnapshot {
    /// Content-addressed campaign ID.
    pub campaign_id: String,
    /// Workload display name.
    pub workload: String,
    /// Lifecycle state.
    pub state: CampaignState,
    /// Points fully measured this run.
    pub points_done: u64,
    /// Points the measurement loop covers.
    pub points_total: u64,
    /// Freshly executed trials this run.
    pub trials_fresh: u64,
    /// Trials replayed from the journal this run.
    pub trials_replayed: u64,
    /// Extra supervised attempts spent on retries this run (telemetry
    /// only — retries are load-dependent and never journaled).
    pub trials_retried: u64,
    /// Trials observed with a quarantined disposition (fresh + replayed).
    pub trials_quarantined: u64,
    /// `points_total × trials_per_point`.
    pub trials_total: u64,
    /// Response histogram over all observed trials, `ALL_RESPONSES` order.
    pub responses: [u64; 6],
    /// Responses attributed to each fault channel
    /// (`ALL_FAULT_CHANNELS`/[`FaultChannel::index`] order).
    pub responses_by_channel: [[u64; 6]; 5],
    /// Resilient-transport recoveries summed over all observed trials.
    pub retransmits: u64,
    /// Timeline fault events that fired, per channel
    /// ([`FaultChannel::index`] order).
    pub events_fired_by_channel: [u64; 5],
    /// Timeline fault events that lifted (healed), per channel.
    pub events_lifted_by_channel: [u64; 5],
    /// Wall seconds of each completed phase, `ALL_PHASES` order.
    pub phase_secs: [Option<f64>; 4],
    /// ML rounds completed (0 when not ML-driven).
    pub learn_rounds: u64,
    /// Latest held-out accuracy.
    pub learn_accuracy: Option<f64>,
    /// Per-round ML convergence history (empty when not ML-driven).
    pub ml_rounds: Vec<MlRoundStat>,
    /// Wall seconds since this process started observing.
    pub elapsed_secs: f64,
    /// Fresh-trial throughput.
    pub trials_per_sec: f64,
    /// Estimated seconds to completion (absent when unknown or done).
    pub eta_secs: Option<f64>,
}

impl StatusSnapshot {
    /// Encode as JSON.
    pub fn to_json(&self) -> Json {
        let resp_obj = |hist: &[u64; 6]| {
            let mut m = std::collections::BTreeMap::new();
            for (i, r) in ALL_RESPONSES.iter().enumerate() {
                m.insert(r.name().to_string(), Json::U64(hist[i]));
            }
            Json::Obj(m)
        };
        let mut phase_map = std::collections::BTreeMap::new();
        for (i, p) in ALL_PHASES.iter().enumerate() {
            if let Some(s) = self.phase_secs[i] {
                phase_map.insert(p.name().to_string(), Json::F64(s));
            }
        }
        let mut v = Json::obj([
            ("campaign_id", Json::Str(self.campaign_id.clone())),
            ("workload", Json::Str(self.workload.clone())),
            ("state", Json::Str(self.state.name().into())),
            ("points_done", Json::U64(self.points_done)),
            ("points_total", Json::U64(self.points_total)),
            ("trials_fresh", Json::U64(self.trials_fresh)),
            ("trials_replayed", Json::U64(self.trials_replayed)),
            ("trials_retried", Json::U64(self.trials_retried)),
            ("trials_quarantined", Json::U64(self.trials_quarantined)),
            ("trials_total", Json::U64(self.trials_total)),
            ("responses", resp_obj(&self.responses)),
            ("retransmits", Json::U64(self.retransmits)),
            ("phase_secs", Json::Obj(phase_map)),
            ("learn_rounds", Json::U64(self.learn_rounds)),
            (
                "learn_accuracy",
                self.learn_accuracy.map(Json::F64).unwrap_or(Json::Null),
            ),
            ("elapsed_secs", Json::F64(self.elapsed_secs)),
            ("trials_per_sec", Json::F64(self.trials_per_sec)),
            (
                "eta_secs",
                self.eta_secs.map(Json::F64).unwrap_or(Json::Null),
            ),
        ]);
        if let Json::Obj(m) = &mut v {
            // Per-round ML history encodes only when non-empty, so every
            // non-ML snapshot keeps its old keys byte-for-byte.
            if !self.ml_rounds.is_empty() {
                m.insert(
                    "ml_rounds".to_string(),
                    Json::Arr(self.ml_rounds.iter().map(MlRoundStat::to_json).collect()),
                );
            }
            for ch in ALL_FAULT_CHANNELS {
                m.insert(
                    channel_hist_key(ch),
                    resp_obj(&self.responses_by_channel[ch.index()]),
                );
                // Event rollups encode only when nonzero, so snapshots of
                // campaigns that never fired an event keep their old keys.
                let slug = ch.token().replace('-', "_");
                if self.events_fired_by_channel[ch.index()] > 0 {
                    m.insert(
                        format!("events_fired_{slug}"),
                        Json::U64(self.events_fired_by_channel[ch.index()]),
                    );
                }
                if self.events_lifted_by_channel[ch.index()] > 0 {
                    m.insert(
                        format!("events_lifted_{slug}"),
                        Json::U64(self.events_lifted_by_channel[ch.index()]),
                    );
                }
            }
        }
        v
    }

    /// Decode from JSON.
    pub fn from_json(v: &Json) -> Result<StatusSnapshot, StoreError> {
        let s = |k: &str| -> Result<String, StoreError> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| StoreError::Corrupt(format!("status missing {:?}", k)))
        };
        let u = |k: &str| -> Result<u64, StoreError> {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| StoreError::Corrupt(format!("status missing {:?}", k)))
        };
        let f = |k: &str| -> Result<f64, StoreError> {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| StoreError::Corrupt(format!("status missing {:?}", k)))
        };
        let state_name = s("state")?;
        let state = CampaignState::from_name(&state_name)
            .ok_or_else(|| StoreError::Corrupt(format!("unknown state {:?}", state_name)))?;
        let read_hist = |k: &str| {
            let mut hist = [0u64; 6];
            if let Some(m) = v.get(k) {
                for (i, r) in ALL_RESPONSES.iter().enumerate() {
                    hist[i] = m.get(r.name()).and_then(Json::as_u64).unwrap_or(0);
                }
            }
            hist
        };
        let responses = read_hist("responses");
        // Per-channel histograms are absent in older snapshots (and newer
        // channels are absent in merely-old ones); default each to empty.
        let mut responses_by_channel = [[0u64; 6]; 5];
        let mut events_fired_by_channel = [0u64; 5];
        let mut events_lifted_by_channel = [0u64; 5];
        for ch in ALL_FAULT_CHANNELS {
            responses_by_channel[ch.index()] = read_hist(&channel_hist_key(ch));
            let slug = ch.token().replace('-', "_");
            events_fired_by_channel[ch.index()] = v
                .get(&format!("events_fired_{slug}"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            events_lifted_by_channel[ch.index()] = v
                .get(&format!("events_lifted_{slug}"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
        }
        let mut phase_secs = [None; 4];
        if let Some(m) = v.get("phase_secs") {
            for (i, p) in ALL_PHASES.iter().enumerate() {
                phase_secs[i] = m.get(p.name()).and_then(Json::as_f64);
            }
        }
        Ok(StatusSnapshot {
            campaign_id: s("campaign_id")?,
            workload: s("workload")?,
            state,
            points_done: u("points_done")?,
            points_total: u("points_total")?,
            trials_fresh: u("trials_fresh")?,
            trials_replayed: u("trials_replayed")?,
            // Absent in pre-supervision snapshots; tolerate for rolling
            // upgrades of `status` readers.
            trials_retried: u("trials_retried").unwrap_or(0),
            trials_quarantined: u("trials_quarantined").unwrap_or(0),
            trials_total: u("trials_total")?,
            responses,
            responses_by_channel,
            retransmits: u("retransmits").unwrap_or(0),
            events_fired_by_channel,
            events_lifted_by_channel,
            phase_secs,
            learn_rounds: u("learn_rounds").unwrap_or(0),
            learn_accuracy: v.get("learn_accuracy").and_then(Json::as_f64),
            ml_rounds: match v.get("ml_rounds") {
                Some(Json::Arr(items)) => items.iter().filter_map(MlRoundStat::from_json).collect(),
                _ => Vec::new(),
            },
            elapsed_secs: f("elapsed_secs")?,
            trials_per_sec: f("trials_per_sec")?,
            eta_secs: v.get("eta_secs").and_then(Json::as_f64),
        })
    }

    /// Write atomically to `dir/status.json` (tmp + rename: a concurrent
    /// reader sees either the old snapshot or the new one, never a torn
    /// file).
    pub fn write_to(&self, dir: &Path) -> Result<(), StoreError> {
        let tmp = dir.join(".status.json.tmp");
        let target = dir.join(STATUS_FILE);
        std::fs::write(&tmp, self.to_json().encode() + "\n").map_err(StoreError::Io)?;
        std::fs::rename(&tmp, &target).map_err(StoreError::Io)?;
        Ok(())
    }

    /// Read `dir/status.json`.
    pub fn read_from(dir: &Path) -> Result<StatusSnapshot, StoreError> {
        let text = std::fs::read_to_string(dir.join(STATUS_FILE)).map_err(StoreError::Io)?;
        StatusSnapshot::from_json(&Json::parse(&text).map_err(StoreError::Json)?)
    }

    /// Human-readable multi-line rendering (the `status` CLI verb).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "campaign {} ({})\n",
            &self.campaign_id[..16.min(self.campaign_id.len())],
            self.workload
        ));
        out.push_str(&format!("state:    {}\n", self.state.name()));
        let pct = if self.trials_total > 0 {
            100.0 * (self.trials_fresh + self.trials_replayed) as f64 / self.trials_total as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "points:   {}/{}\ntrials:   {}/{} ({:.1}%), {} replayed\n",
            self.points_done,
            self.points_total,
            self.trials_fresh + self.trials_replayed,
            self.trials_total,
            pct,
            self.trials_replayed
        ));
        if self.trials_retried > 0 || self.trials_quarantined > 0 {
            out.push_str(&format!(
                "suspect:  {} retried attempt(s), {} quarantined trial(s)\n",
                self.trials_retried, self.trials_quarantined
            ));
        }
        out.push_str(&format!(
            "rate:     {:.1} trials/s, elapsed {:.1}s",
            self.trials_per_sec, self.elapsed_secs
        ));
        match self.eta_secs {
            Some(eta) => out.push_str(&format!(", ETA {:.0}s\n", eta)),
            None => out.push('\n'),
        }
        let hist_line = |out: &mut String, label: &str, hist: &[u64; 6]| {
            out.push_str(label);
            for (i, r) in ALL_RESPONSES.iter().enumerate() {
                if hist[i] > 0 {
                    out.push_str(&format!(" {}={}", r.name(), hist[i]));
                }
            }
            out.push('\n');
        };
        hist_line(&mut out, "responses:", &self.responses);
        // Per-channel splits only when at least two channels contributed —
        // a single-channel campaign's split would repeat the line above.
        let contributing = ALL_FAULT_CHANNELS
            .iter()
            .filter(|ch| self.responses_by_channel[ch.index()].iter().sum::<u64>() > 0)
            .count();
        if contributing > 1 {
            for ch in ALL_FAULT_CHANNELS {
                let hist = &self.responses_by_channel[ch.index()];
                if hist.iter().sum::<u64>() > 0 {
                    hist_line(
                        &mut out,
                        &format!("  {:<10}", format!("{}:", ch.token())),
                        hist,
                    );
                }
            }
        }
        if self.retransmits > 0 {
            out.push_str(&format!("recovery: {} retransmit(s)\n", self.retransmits));
        }
        // Timeline rollup: lifted events exist only under heal timelines,
        // so single-draw campaigns render exactly as before.
        let lifted: u64 = self.events_lifted_by_channel.iter().sum();
        if lifted > 0 {
            let fired: u64 = self.events_fired_by_channel.iter().sum();
            out.push_str(&format!(
                "events:   {} fired, {} lifted (healed)\n",
                fired, lifted
            ));
        }
        for (i, p) in ALL_PHASES.iter().enumerate() {
            if let Some(s) = self.phase_secs[i] {
                out.push_str(&format!("phase {:<8} {:.3}s\n", p.name(), s));
            }
        }
        if self.learn_rounds > 0 {
            out.push_str(&format!(
                "learn:    {} rounds, accuracy {}\n",
                self.learn_rounds,
                self.learn_accuracy
                    .map(|a| format!("{:.1}%", 100.0 * a))
                    .unwrap_or_else(|| "?".into())
            ));
            for r in &self.ml_rounds {
                out.push_str(&format!(
                    "  round {:<3} measured {:<5} predicted {:<5} acc {:.1}%{} [{}]\n",
                    r.round,
                    r.measured,
                    r.predicted,
                    100.0 * r.accuracy,
                    r.oob_accuracy
                        .map(|o| format!(" oob {:.1}%", 100.0 * o))
                        .unwrap_or_default(),
                    r.ordering
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastfit::prelude::Response;
    use std::time::Duration;

    #[test]
    fn counters_accumulate() {
        let t = Telemetry::new();
        t.set_totals(10, 4);
        for _ in 0..3 {
            t.trial_finished(Some(Response::Success), 0, false, FaultChannel::Param, 0);
        }
        t.trial_finished(Some(Response::MpiErr), 0, true, FaultChannel::Param, 0);
        t.point_finished();
        t.phase_finished(CampaignPhase::Profile, Duration::from_millis(1500));
        t.learn_round(1, 0.5, 12, 28, Some(0.55), "scan");
        t.learn_round(2, 0.7, 18, 22, Some(0.66), "entropy");
        let s = t.snapshot("abc123", "tiny", CampaignState::Running);
        assert_eq!(s.points_done, 1);
        assert_eq!(s.points_total, 10);
        assert_eq!(s.trials_fresh, 3);
        assert_eq!(s.trials_replayed, 1);
        assert_eq!(s.trials_total, 40);
        assert_eq!(s.responses[Response::Success.index()], 3);
        assert_eq!(s.responses[Response::MpiErr.index()], 1);
        assert!((s.phase_secs[0].unwrap() - 1.5).abs() < 1e-9);
        assert_eq!(s.learn_rounds, 2);
        assert!((s.learn_accuracy.unwrap() - 0.7).abs() < 1e-12);
        assert_eq!(s.ml_rounds.len(), 2);
        assert_eq!(s.ml_rounds[1].measured, 18);
        assert_eq!(s.ml_rounds[1].predicted, 22);
        assert_eq!(s.ml_rounds[1].ordering, "entropy");
        assert!(s.eta_secs.is_some(), "36 trials remain at nonzero rate");
    }

    #[test]
    fn ml_rounds_encode_only_when_present_and_roundtrip() {
        // Non-ML snapshot: no ml_rounds key at all.
        let t = Telemetry::new();
        let s = t.snapshot("id", "w", CampaignState::Running);
        assert!(!s.to_json().encode().contains("ml_rounds"));

        // ML snapshot: full per-round history survives the roundtrip.
        t.learn_round(1, 0.5, 12, 28, None, "scan");
        t.learn_round(2, 0.72, 18, 22, Some(0.61), "entropy");
        let s = t.snapshot("id", "w", CampaignState::Done);
        let v = s.to_json();
        assert!(v.get("ml_rounds").is_some());
        let back = StatusSnapshot::from_json(&v).unwrap();
        assert_eq!(back.ml_rounds, s.ml_rounds);
        assert_eq!(back.ml_rounds[0].oob_accuracy, None);
        assert_eq!(back.ml_rounds[1].oob_accuracy, Some(0.61));
        let text = s.render();
        assert!(text.contains("round 2"), "{text}");
        assert!(text.contains("[entropy]"), "{text}");

        // Older snapshots without the key still parse to empty history.
        let mut v2 = s.to_json();
        if let Json::Obj(m) = &mut v2 {
            m.remove("ml_rounds");
        }
        assert!(StatusSnapshot::from_json(&v2).unwrap().ml_rounds.is_empty());
    }

    #[test]
    fn snapshot_json_roundtrip_and_atomic_write() {
        let t = Telemetry::new();
        t.set_totals(2, 3);
        t.trial_finished(Some(Response::WrongAns), 0, false, FaultChannel::Message, 2);
        let snap = t.snapshot("deadbeef", "w", CampaignState::Done);
        let back = StatusSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back.campaign_id, snap.campaign_id);
        assert_eq!(back.state, CampaignState::Done);
        assert_eq!(back.responses, snap.responses);

        let dir = std::env::temp_dir().join(format!(
            "fastfit-status-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        snap.write_to(&dir).unwrap();
        let read = StatusSnapshot::read_from(&dir).unwrap();
        assert_eq!(read.trials_fresh, 1);
        assert!(!dir.join(".status.json.tmp").exists());
        assert!(!read.render().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retries_and_quarantines_are_counted() {
        let t = Telemetry::new();
        t.set_totals(1, 4);
        // A classified trial that needed two extra attempts.
        t.trial_finished(Some(Response::InfLoop), 2, false, FaultChannel::Param, 0);
        // A fresh quarantined trial (no response) after three attempts.
        t.trial_finished(None, 2, false, FaultChannel::Param, 0);
        // A quarantined record replayed from the journal: counts as
        // quarantined but contributes no retries.
        t.trial_finished(None, 0, true, FaultChannel::Param, 0);
        let s = t.snapshot("id", "w", CampaignState::Running);
        assert_eq!(s.trials_fresh, 2);
        assert_eq!(s.trials_replayed, 1);
        assert_eq!(s.trials_retried, 4);
        assert_eq!(s.trials_quarantined, 2);
        assert_eq!(s.responses.iter().sum::<u64>(), 1, "quarantine ≠ response");
        let back = StatusSnapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(back.trials_retried, 4);
        assert_eq!(back.trials_quarantined, 2);
        assert!(s.render().contains("2 quarantined"), "{}", s.render());
    }

    #[test]
    fn snapshots_without_supervision_fields_still_parse() {
        let t = Telemetry::new();
        let snap = t.snapshot("id", "w", CampaignState::Running);
        let mut v = snap.to_json();
        if let Json::Obj(m) = &mut v {
            m.remove("trials_retried");
            m.remove("trials_quarantined");
        }
        let back = StatusSnapshot::from_json(&v).unwrap();
        assert_eq!(back.trials_retried, 0);
        assert_eq!(back.trials_quarantined, 0);
    }

    #[test]
    fn lifecycle_state_tokens_roundtrip() {
        for state in [
            CampaignState::Running,
            CampaignState::Done,
            CampaignState::Cancelled,
            CampaignState::Interrupted,
        ] {
            assert_eq!(CampaignState::from_name(state.name()), Some(state));
        }
        assert_eq!(CampaignState::from_name("bogus"), None);
        assert!(CampaignState::Cancelled.is_resumable_stop());
        assert!(CampaignState::Interrupted.is_resumable_stop());
        assert!(!CampaignState::Done.is_resumable_stop());
        assert!(!CampaignState::Running.is_resumable_stop());
        // The snapshot schema carries the new states verbatim.
        let t = Telemetry::new();
        let snap = t.snapshot("id", "w", CampaignState::Cancelled);
        let back = StatusSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back.state, CampaignState::Cancelled);
    }

    #[test]
    fn per_channel_histograms_cover_all_five_channels() {
        let t = Telemetry::new();
        t.set_totals(5, 1);
        t.trial_finished(Some(Response::Success), 0, false, FaultChannel::Param, 0);
        t.trial_finished(Some(Response::MpiErr), 0, false, FaultChannel::Message, 3);
        t.trial_finished(
            Some(Response::SegFault),
            0,
            false,
            FaultChannel::CrashStop,
            0,
        );
        t.trial_finished(Some(Response::Success), 0, false, FaultChannel::FailSlow, 0);
        t.trial_finished(
            Some(Response::InfLoop),
            0,
            false,
            FaultChannel::Partition,
            0,
        );
        let s = t.snapshot("id", "w", CampaignState::Running);
        for (ch, resp) in [
            (FaultChannel::Param, Response::Success),
            (FaultChannel::Message, Response::MpiErr),
            (FaultChannel::CrashStop, Response::SegFault),
            (FaultChannel::FailSlow, Response::Success),
            (FaultChannel::Partition, Response::InfLoop),
        ] {
            assert_eq!(
                s.responses_by_channel[ch.index()][resp.index()],
                1,
                "{:?}",
                ch
            );
            assert_eq!(
                s.responses_by_channel[ch.index()].iter().sum::<u64>(),
                1,
                "{:?}",
                ch
            );
        }
        // JSON carries one histogram key per channel and roundtrips.
        let v = s.to_json();
        for key in [
            "responses_param",
            "responses_message",
            "responses_crash_stop",
            "responses_fail_slow",
            "responses_partition",
        ] {
            assert!(v.get(key).is_some(), "missing {key}");
        }
        let back = StatusSnapshot::from_json(&v).unwrap();
        assert_eq!(back.responses_by_channel, s.responses_by_channel);
        // All five channels contributed, so the rendering splits them out.
        let text = s.render();
        for tok in [
            "param:",
            "message:",
            "crash-stop:",
            "fail-slow:",
            "partition:",
        ] {
            assert!(text.contains(tok), "render misses {tok}:\n{text}");
        }
    }

    #[test]
    fn event_rollups_encode_only_when_nonzero_and_roundtrip() {
        // No events: the snapshot carries no events_* keys at all and the
        // rendering has no events line (single-draw back-compat).
        let t = Telemetry::new();
        t.trial_finished(Some(Response::Success), 0, false, FaultChannel::Param, 0);
        let s = t.snapshot("id", "w", CampaignState::Running);
        let enc = s.to_json().encode();
        assert!(!enc.contains("events_fired"), "{}", enc);
        assert!(!enc.contains("events_lifted"), "{}", enc);
        assert!(!s.render().contains("events:"), "{}", s.render());

        // A burst+heal timeline trial: 5 events fired, 1 lifted.
        t.events_observed(FaultChannel::Message, 5, 1);
        t.events_observed(FaultChannel::Message, 3, 0);
        let s = t.snapshot("id", "w", CampaignState::Running);
        assert_eq!(s.events_fired_by_channel[FaultChannel::Message.index()], 8);
        assert_eq!(s.events_lifted_by_channel[FaultChannel::Message.index()], 1);
        let v = s.to_json();
        assert!(v.get("events_fired_message").is_some());
        assert!(v.get("events_lifted_message").is_some());
        assert!(v.get("events_fired_param").is_none(), "zero stays absent");
        let back = StatusSnapshot::from_json(&v).unwrap();
        assert_eq!(back.events_fired_by_channel, s.events_fired_by_channel);
        assert_eq!(back.events_lifted_by_channel, s.events_lifted_by_channel);
        assert!(s.render().contains("8 fired, 1 lifted"), "{}", s.render());
    }

    #[test]
    fn replayed_trials_do_not_inflate_throughput() {
        let t = Telemetry::new();
        t.set_totals(1, 100);
        for _ in 0..50 {
            t.trial_finished(Some(Response::Success), 0, true, FaultChannel::Param, 0);
        }
        let s = t.snapshot("id", "w", CampaignState::Running);
        assert_eq!(s.trials_per_sec, 0.0, "replays are not throughput");
        assert!(s.eta_secs.is_none(), "no fresh rate, no ETA");
    }
}
