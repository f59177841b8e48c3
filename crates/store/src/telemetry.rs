//! The `status.json` schema: one campaign's progress, response
//! histograms, throughput and ETA.
//!
//! [`CampaignStore`](crate::CampaignStore) keeps a [`StatusSnapshot`] as
//! its live counts, updated under the journal lock it already takes per
//! event, and periodically writes a copy to `status.json` in the campaign
//! directory (atomic tmp + rename, so readers never observe a partial
//! file); `fastfit-cli status <dir>` is just a pretty-printer over it.

use crate::id::short_id;
use crate::json::Json;
use crate::StoreError;
use fastfit::observe::ALL_PHASES;
use fastfit::prelude::{FaultChannel, ALL_FAULT_CHANNELS, ALL_RESPONSES};
use std::path::Path;

/// Status file name inside a campaign directory.
pub const STATUS_FILE: &str = "status.json";

/// `status.json` key of one channel's response histogram
/// (`responses_param`, `responses_message`, `responses_crash_stop`, ...).
fn channel_hist_key(ch: FaultChannel) -> String {
    format!("responses_{}", ch.token().replace('-', "_"))
}

/// A campaign's lifecycle: the state `status.json` records and every
/// daemon endpoint reports. A store writes `Running`, `Done`, `Cancelled`
/// and `Interrupted`; `Queued` and `Failed` are the daemon scheduler's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CampaignState {
    /// Submitted to a daemon and waiting for budget.
    Queued,
    /// Measurement in progress (or the process died without finishing —
    /// a `running` status older than its campaign's process is exactly
    /// the resume case).
    #[default]
    Running,
    /// Campaign finished.
    Done,
    /// Cooperatively cancelled (a `DELETE /campaigns/{id}` or explicit
    /// cancel): the journal is checkpointed and resumable, but nobody
    /// intends to resume it.
    Cancelled,
    /// Could not run; the daemon keeps the error text beside the state.
    Failed,
    /// Interrupted by an external signal (SIGINT/SIGTERM) after a clean
    /// checkpoint: resumable, and resuming is the expected next step.
    Interrupted,
}

impl CampaignState {
    /// The token recorded in `status.json`.
    pub fn name(self) -> &'static str {
        match self {
            CampaignState::Queued => "queued",
            CampaignState::Running => "running",
            CampaignState::Done => "done",
            CampaignState::Cancelled => "cancelled",
            CampaignState::Failed => "failed",
            CampaignState::Interrupted => "interrupted",
        }
    }

    /// Decode a `status.json` state token.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "queued" => Some(CampaignState::Queued),
            "running" => Some(CampaignState::Running),
            "done" => Some(CampaignState::Done),
            "cancelled" => Some(CampaignState::Cancelled),
            "failed" => Some(CampaignState::Failed),
            "interrupted" => Some(CampaignState::Interrupted),
            _ => None,
        }
    }

    /// Whether the campaign has stopped moving: every state but `Queued`
    /// and `Running`.
    pub fn is_terminal(self) -> bool {
        !matches!(self, CampaignState::Queued | CampaignState::Running)
    }

    /// Whether this state means the campaign stopped short of completion
    /// with a resumable journal behind it.
    pub fn is_resumable_stop(self) -> bool {
        matches!(self, CampaignState::Cancelled | CampaignState::Interrupted)
    }
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

/// One rendered status — the schema of `status.json`.
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// (`ALL_FAULT_CHANNELS`/[`FaultChannel::index`] order). The combined
    /// `responses` stays authoritative; these split it so a mixed-history
    /// directory still reads sensibly.
    pub responses_by_channel: [[u64; 6]; 5],
    /// Resilient-transport recoveries summed over all observed trials.
    pub retransmits: u64,
    /// Timeline fault events that fired, per channel
    /// ([`FaultChannel::index`] order — the channel is the trial's, i.e.
    /// the timeline's primary). Single-draw trials contribute 0 or 1.
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
            short_id(&self.campaign_id),
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

    fn snap(state: CampaignState) -> StatusSnapshot {
        StatusSnapshot {
            campaign_id: "id".into(),
            workload: "w".into(),
            state,
            ..StatusSnapshot::default()
        }
    }

    fn round(round: u64, accuracy: f64, oob_accuracy: Option<f64>, ordering: &str) -> MlRoundStat {
        MlRoundStat {
            round,
            measured: 6 * round + 6,
            predicted: 34 - 6 * round,
            accuracy,
            oob_accuracy,
            ordering: ordering.into(),
        }
    }

    #[test]
    fn ml_rounds_encode_only_when_present_and_roundtrip() {
        // Non-ML snapshot: no ml_rounds key at all.
        let s = snap(CampaignState::Running);
        assert!(!s.to_json().encode().contains("ml_rounds"));

        // ML snapshot: full per-round history survives the roundtrip.
        let s = StatusSnapshot {
            learn_rounds: 2,
            learn_accuracy: Some(0.72),
            ml_rounds: vec![
                round(1, 0.5, None, "scan"),
                round(2, 0.72, Some(0.61), "entropy"),
            ],
            ..snap(CampaignState::Done)
        };
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
        let mut snap = StatusSnapshot {
            campaign_id: "deadbeef".into(),
            points_total: 2,
            trials_total: 6,
            trials_fresh: 1,
            retransmits: 2,
            ..snap(CampaignState::Done)
        };
        snap.responses[Response::WrongAns.index()] = 1;
        snap.responses_by_channel[FaultChannel::Message.index()][Response::WrongAns.index()] = 1;
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
    fn snapshots_without_supervision_fields_still_parse() {
        let mut v = snap(CampaignState::Running).to_json();
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
        let all = [
            CampaignState::Queued,
            CampaignState::Running,
            CampaignState::Done,
            CampaignState::Cancelled,
            CampaignState::Failed,
            CampaignState::Interrupted,
        ];
        for state in all {
            assert_eq!(CampaignState::from_name(state.name()), Some(state));
            // The snapshot schema carries every state verbatim.
            let back = StatusSnapshot::from_json(&snap(state).to_json()).unwrap();
            assert_eq!(back.state, state);
        }
        assert_eq!(CampaignState::from_name("bogus"), None);
        assert!(CampaignState::Cancelled.is_resumable_stop());
        assert!(CampaignState::Interrupted.is_resumable_stop());
        for state in [
            CampaignState::Queued,
            CampaignState::Running,
            CampaignState::Done,
            CampaignState::Failed,
        ] {
            assert!(!state.is_resumable_stop(), "{state:?}");
        }
        let moving: Vec<_> = all.into_iter().filter(|s| !s.is_terminal()).collect();
        assert_eq!(moving, [CampaignState::Queued, CampaignState::Running]);
    }

    #[test]
    fn per_channel_histograms_cover_all_five_channels() {
        let mut s = StatusSnapshot {
            points_total: 5,
            trials_total: 5,
            trials_fresh: 5,
            retransmits: 3,
            ..snap(CampaignState::Running)
        };
        let cells = [
            (FaultChannel::Param, Response::Success),
            (FaultChannel::Message, Response::MpiErr),
            (FaultChannel::CrashStop, Response::SegFault),
            (FaultChannel::FailSlow, Response::Success),
            (FaultChannel::Partition, Response::InfLoop),
        ];
        for (ch, resp) in cells {
            s.responses[resp.index()] += 1;
            s.responses_by_channel[ch.index()][resp.index()] += 1;
        }
        for (ch, resp) in cells {
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
        let mut s = StatusSnapshot {
            trials_fresh: 1,
            ..snap(CampaignState::Running)
        };
        s.responses[Response::Success.index()] = 1;
        s.responses_by_channel[FaultChannel::Param.index()][Response::Success.index()] = 1;
        let enc = s.to_json().encode();
        assert!(!enc.contains("events_fired"), "{}", enc);
        assert!(!enc.contains("events_lifted"), "{}", enc);
        assert!(!s.render().contains("events:"), "{}", s.render());

        // Burst+heal timeline trials: 5 + 3 events fired, 1 lifted.
        s.events_fired_by_channel[FaultChannel::Message.index()] = 5 + 3;
        s.events_lifted_by_channel[FaultChannel::Message.index()] = 1;
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
}
