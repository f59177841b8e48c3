//! The campaign store: a directory-backed [`CampaignObserver`].
//!
//! One store owns one campaign directory:
//!
//! ```text
//! <dir>/journal.jsonl   write-ahead trial journal (append-only)
//! <dir>/status.json     latest telemetry snapshot (atomic replace)
//! ```
//!
//! [`CampaignStore::open`] either starts a fresh journal (writing the
//! meta record first) or resumes an existing one — after verifying that
//! the journal's content-addressed campaign ID matches the campaign
//! being run. On resume the journaled trials become the replay map the
//! campaign loop consults before paying for a trial; fresh trials are
//! appended as they commit. A campaign calls `on_event` from its calling
//! thread only, in canonical trial order — so the journal is the same
//! whatever ran ahead of the commit point — and `replay`, a read of the
//! immutable replay map, from whichever thread claimed the trial. The
//! store is nonetheless safe to share (the daemon reads snapshots from
//! HTTP threads): counters are atomic and the journal writer sits behind
//! a mutex.

use crate::journal::{
    read_journal, repair_journal, CampaignMeta, JournalWriter, MlMeta, Record, TrialRecord,
    JOURNAL_FILE,
};
use crate::telemetry::{CampaignState, StatusSnapshot, Telemetry};
use crate::StoreError;
use fastfit::observe::{point_key, CampaignObserver, ProgressEvent};
use fastfit::prelude::{Campaign, MlConfig, MlOrdering, MlTarget, TrialDisposition};
use fastfit::space::InjectionPoint;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Minimum interval between `status.json` flushes on the trial path.
/// Phase boundaries and `finish` flush unconditionally.
const STATUS_FLUSH_INTERVAL: Duration = Duration::from_millis(250);

struct WriterState {
    journal: JournalWriter,
    last_status_flush: Instant,
}

/// A directory-backed campaign observer: durable journal + live status.
pub struct CampaignStore {
    dir: PathBuf,
    id: String,
    meta: CampaignMeta,
    /// `(point key, trial index) → (bit, disposition)` for every
    /// journaled trial — quarantined trials replay as quarantined, so a
    /// resumed journal matches an uninterrupted one. Consulted (with bit
    /// validation) before each fresh trial.
    replay: HashMap<(String, usize), (u64, TrialDisposition)>,
    writer: Mutex<WriterState>,
    telemetry: Telemetry,
}

impl CampaignStore {
    /// Open `dir` for `meta`'s campaign. Creates the directory and a
    /// fresh journal if none exists; otherwise resumes — repairing a
    /// truncated tail, verifying the campaign ID, and loading the replay
    /// map. Refuses to touch a journal recorded by a *different*
    /// campaign (any metadata difference changes the ID).
    pub fn open(dir: &Path, meta: CampaignMeta) -> Result<CampaignStore, StoreError> {
        std::fs::create_dir_all(dir).map_err(StoreError::Io)?;
        let id = meta.campaign_id();
        let journal_path = dir.join(JOURNAL_FILE);
        let mut replay = HashMap::new();
        let fresh = !journal_path.exists();
        if !fresh {
            let contents = repair_journal(&journal_path)?;
            match &contents.meta {
                Some((recorded_id, _)) if *recorded_id == id => {}
                Some((recorded_id, recorded_meta)) => {
                    return Err(StoreError::Mismatch(format!(
                        "campaign directory {} holds campaign {} (workload {:?}); \
                         refusing to resume campaign {} (workload {:?})",
                        dir.display(),
                        &recorded_id[..16],
                        recorded_meta.workload,
                        &id[..16],
                        meta.workload,
                    )));
                }
                None => {
                    return Err(StoreError::Corrupt(format!(
                        "journal {} has no meta record",
                        journal_path.display()
                    )));
                }
            }
            for t in contents.trials {
                replay.insert((t.key.clone(), t.trial), (t.bit, t.disposition));
            }
        }
        let mut journal = JournalWriter::open(&journal_path)?;
        if fresh {
            journal.append(&Record::Meta {
                id: id.clone(),
                meta: meta.clone(),
            })?;
            journal.sync()?;
        }
        Ok(CampaignStore {
            dir: dir.to_path_buf(),
            id,
            meta,
            replay,
            writer: Mutex::new(WriterState {
                journal,
                last_status_flush: Instant::now() - STATUS_FLUSH_INTERVAL,
            }),
            telemetry: Telemetry::new(),
        })
    }

    /// The content-addressed campaign ID.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The campaign metadata this store was opened for.
    pub fn meta(&self) -> &CampaignMeta {
        &self.meta
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Trials loaded from the journal at open (the resume head start).
    pub fn replayable_trials(&self) -> usize {
        self.replay.len()
    }

    /// Current telemetry snapshot.
    pub fn snapshot(&self, state: CampaignState) -> StatusSnapshot {
        self.telemetry
            .snapshot(&self.id, &self.meta.workload, state)
    }

    /// Mark the campaign complete: fsync the journal and write the final
    /// `status.json` with `state: done`.
    pub fn finish(&self) -> Result<(), StoreError> {
        self.checkpoint(CampaignState::Done)
    }

    /// Checkpoint the store at an explicit lifecycle state: fsync the
    /// journal, then write `status.json` with `state`. This is the
    /// cooperative-stop path — `Cancelled` for a user cancel,
    /// `Interrupted` for SIGINT/SIGTERM — and leaves the directory
    /// exactly as resumable as a crash would (every journaled trial is
    /// complete and durable).
    pub fn checkpoint(&self, state: CampaignState) -> Result<(), StoreError> {
        self.writer
            .lock()
            .expect("store writer lock poisoned")
            .journal
            .sync()?;
        self.snapshot(state).write_to(&self.dir)
    }

    fn journal_append(&self, record: &Record) {
        let mut w = self.writer.lock().expect("store writer lock poisoned");
        // A campaign that cannot journal has lost its durability
        // guarantee; aborting loudly beats silently burning trials that
        // a resume would re-run anyway.
        w.journal
            .append(record)
            .unwrap_or_else(|e| panic!("campaign journal write failed: {}", e));
    }

    fn flush_status(&self, force: bool) {
        let mut w = self.writer.lock().expect("store writer lock poisoned");
        if !force && w.last_status_flush.elapsed() < STATUS_FLUSH_INTERVAL {
            return;
        }
        w.last_status_flush = Instant::now();
        drop(w); // snapshot/write need no lock; keep the hot path short
        if let Err(e) = self.snapshot(CampaignState::Running).write_to(&self.dir) {
            eprintln!("fastfit-store: status flush failed: {}", e);
        }
    }
}

impl CampaignObserver for CampaignStore {
    fn replay(&self, point: &InjectionPoint, trial: usize, bit: u64) -> Option<TrialDisposition> {
        let (recorded_bit, disposition) = self.replay.get(&(point_key(point), trial))?;
        // A bit mismatch means the RNG stream diverged from the recorded
        // run — the record belongs to a different fault, so re-run. The
        // campaign-ID check makes this unreachable in practice; it is a
        // last line of defence, not a recovery path.
        (*recorded_bit == bit).then(|| disposition.clone())
    }

    fn on_event(&self, event: &ProgressEvent<'_>) {
        match event {
            ProgressEvent::MeasureStarted {
                points_total,
                trials_per_point,
            } => {
                self.telemetry.set_totals(*points_total, *trials_per_point);
                self.flush_status(true);
            }
            ProgressEvent::TrialFinished {
                point,
                trial,
                bit,
                disposition,
                retries,
                replayed,
            } => {
                if !replayed {
                    self.journal_append(&Record::Trial(TrialRecord {
                        key: point_key(point),
                        trial: *trial,
                        bit: *bit,
                        channel: self.meta.fault_channel,
                        disposition: (*disposition).clone(),
                    }));
                }
                let retransmits = match disposition {
                    TrialDisposition::Classified(o) => o.retransmits,
                    TrialDisposition::Quarantined { .. } => 0,
                };
                self.telemetry.trial_finished(
                    disposition.response(),
                    *retries,
                    *replayed,
                    self.meta.fault_channel,
                    retransmits,
                );
                if let TrialDisposition::Classified(o) = disposition {
                    self.telemetry.events_observed(
                        self.meta.fault_channel,
                        o.events_fired,
                        o.events_lifted,
                    );
                }
                self.flush_status(false);
            }
            ProgressEvent::PointFinished { .. } => {
                self.telemetry.point_finished();
            }
            ProgressEvent::PhaseFinished { phase, wall } => {
                self.telemetry.phase_finished(*phase, *wall);
                self.journal_append(&Record::Phase {
                    phase: *phase,
                    secs: wall.as_secs_f64(),
                });
                self.flush_status(true);
            }
            ProgressEvent::LearnRound {
                round,
                measured,
                accuracy,
                predicted,
                oob_accuracy,
                ordering,
            } => {
                self.telemetry.learn_round(
                    *round,
                    *accuracy,
                    *measured,
                    *predicted,
                    *oob_accuracy,
                    ordering,
                );
                self.journal_append(&Record::Round {
                    round: *round,
                    measured: *measured,
                    accuracy: *accuracy,
                    predicted: *predicted,
                    oob_accuracy: *oob_accuracy,
                    ordering: (*ordering != "scan").then(|| ordering.to_string()),
                });
                self.flush_status(true);
            }
        }
    }
}

/// Token for an [`MlTarget`], stored in the campaign metadata.
pub fn ml_target_token(target: MlTarget) -> String {
    match target {
        MlTarget::ErrorType => "error_type".to_string(),
        MlTarget::RateLevels(k) => format!("rate_levels:{}", k),
    }
}

/// Build the [`CampaignMeta`] for a prepared campaign over an explicit
/// point list (`campaign.points()` for the standard loop,
/// `campaign.invocation_points()` for the CLI's per-invocation ML
/// study). `ml` must be given exactly when the campaign is ML-driven:
/// its configuration changes the measurement trajectory, so it is part
/// of the campaign identity.
pub fn campaign_meta(
    campaign: &Campaign,
    points: &[InjectionPoint],
    ml: Option<(MlTarget, &MlConfig)>,
) -> CampaignMeta {
    campaign_meta_ml(
        campaign,
        points,
        ml.map(|(target, config)| MlIdentity {
            target,
            config,
            warm: None,
            ordering: MlOrdering::Scan,
        }),
    )
}

/// Everything about the ML loop that shapes the measurement trajectory —
/// and is therefore part of the campaign identity.
pub struct MlIdentity<'a> {
    /// Prediction target.
    pub target: MlTarget,
    /// Loop configuration.
    pub config: &'a MlConfig,
    /// Resolved registry ID of the warm-start prior (never `auto`).
    pub warm: Option<String>,
    /// Pending-point ordering.
    pub ordering: MlOrdering,
}

/// As [`campaign_meta`], with warm-start provenance and ordering in the
/// ML identity.
pub fn campaign_meta_ml(
    campaign: &Campaign,
    points: &[InjectionPoint],
    ml: Option<MlIdentity<'_>>,
) -> CampaignMeta {
    CampaignMeta {
        workload: campaign.workload.name.clone(),
        nranks: campaign.workload.nranks,
        app_seed: campaign.workload.seed,
        tolerance: campaign.workload.tolerance,
        trials_per_point: campaign.cfg.trials_per_point,
        params: campaign.cfg.params.token(),
        campaign_seed: campaign.cfg.seed,
        fault_channel: campaign.cfg.fault_channel,
        resilient: campaign.cfg.resilient,
        colls: campaign.cfg.colls.as_ref().map(|kinds| {
            // Sorted display names: the set, not its spelling order, is
            // the campaign identity.
            let mut names: Vec<String> = kinds.iter().map(|k| k.name().to_string()).collect();
            names.sort();
            names.dedup();
            names
        }),
        ml: ml.map(|m| MlMeta {
            target: ml_target_token(m.target),
            // The debug encoding covers every MlConfig field; hashing it
            // keeps the metadata schema stable as fields are added.
            config_digest: crate::id::sha256_hex(format!("{:?}", m.config).as_bytes()),
            warm: m.warm,
            // Scan is the historic default: encoding it only when set
            // keeps every pre-ordering campaign ID unchanged.
            order: (m.ordering != MlOrdering::Scan).then(|| m.ordering.token().to_string()),
        }),
        point_keys: points.iter().map(point_key).collect(),
        timeline: campaign.cfg.timeline.clone(),
    }
}

/// Read the campaign identity recorded in a store directory without
/// opening it for writing (the `status`/`resume` CLI verbs).
pub fn read_store_meta(dir: &Path) -> Result<(String, CampaignMeta), StoreError> {
    let contents = read_journal(&dir.join(JOURNAL_FILE))?;
    contents
        .meta
        .ok_or_else(|| StoreError::Corrupt("journal has no meta record".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastfit::prelude::{FaultChannel, FaultTimeline, QuarantineReason, Response, TrialOutcome};
    use simmpi::hook::{CallSite, CollKind, ParamId};

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "fastfit-store-{}-{}-{:?}",
            tag,
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn point() -> InjectionPoint {
        InjectionPoint {
            site: CallSite {
                file: "app.rs",
                line: 7,
            },
            kind: CollKind::Allreduce,
            rank: 0,
            invocation: 0,
            param: ParamId::SendBuf,
        }
    }

    fn meta() -> CampaignMeta {
        CampaignMeta {
            workload: "unit".into(),
            nranks: 2,
            app_seed: 1,
            tolerance: 0.0,
            trials_per_point: 3,
            params: "data".into(),
            campaign_seed: 9,
            fault_channel: FaultChannel::Param,
            resilient: false,
            colls: None,
            ml: None,
            point_keys: vec![point_key(&point())],
            timeline: FaultTimeline::default(),
        }
    }

    fn disp(resp: Response) -> TrialDisposition {
        TrialDisposition::Classified(TrialOutcome {
            response: resp,
            fired: true,
            fatal_rank: None,
            retransmits: 0,
            events_fired: 1,
            events_lifted: 0,
        })
    }

    #[test]
    fn open_journal_reopen_replays() {
        let dir = tmp_dir("reopen");
        let p = point();
        {
            let store = CampaignStore::open(&dir, meta()).unwrap();
            assert_eq!(store.replayable_trials(), 0);
            let d = disp(Response::WrongAns);
            store.on_event(&ProgressEvent::TrialFinished {
                point: &p,
                trial: 0,
                bit: 0xDEAD_BEEF_0BAD_F00D,
                disposition: &d,
                retries: 1,
                replayed: false,
            });
            let q = TrialDisposition::Quarantined {
                attempts: 3,
                reason: QuarantineReason::WallClock,
            };
            store.on_event(&ProgressEvent::TrialFinished {
                point: &p,
                trial: 1,
                bit: 42,
                disposition: &q,
                retries: 2,
                replayed: false,
            });
            store.finish().unwrap();
        }
        let store = CampaignStore::open(&dir, meta()).unwrap();
        assert_eq!(store.replayable_trials(), 2);
        // Matching bit replays; a different bit (config drift) does not.
        assert_eq!(
            store.replay(&p, 0, 0xDEAD_BEEF_0BAD_F00D),
            Some(disp(Response::WrongAns))
        );
        assert_eq!(store.replay(&p, 0, 1), None);
        // Quarantined trials replay as quarantined — a resume never
        // silently re-runs (or fabricates a response for) one.
        assert_eq!(
            store.replay(&p, 1, 42),
            Some(TrialDisposition::Quarantined {
                attempts: 3,
                reason: QuarantineReason::WallClock,
            })
        );
        assert_eq!(store.replay(&p, 2, 0xDEAD_BEEF_0BAD_F00D), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_campaign_is_refused() {
        let dir = tmp_dir("mismatch");
        CampaignStore::open(&dir, meta()).unwrap();
        let other = CampaignMeta {
            campaign_seed: 10,
            ..meta()
        };
        match CampaignStore::open(&dir, other) {
            Err(StoreError::Mismatch(msg)) => {
                assert!(msg.contains("refusing to resume"), "{}", msg)
            }
            other => panic!("expected Mismatch, got {:?}", other.map(|_| ())),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn status_reflects_events() {
        let dir = tmp_dir("status");
        let store = CampaignStore::open(&dir, meta()).unwrap();
        store.on_event(&ProgressEvent::MeasureStarted {
            points_total: 1,
            trials_per_point: 3,
        });
        let d = disp(Response::Success);
        store.on_event(&ProgressEvent::TrialFinished {
            point: &point(),
            trial: 0,
            bit: 1,
            disposition: &d,
            retries: 1,
            replayed: false,
        });
        let q = TrialDisposition::Quarantined {
            attempts: 3,
            reason: QuarantineReason::Harness,
        };
        store.on_event(&ProgressEvent::TrialFinished {
            point: &point(),
            trial: 1,
            bit: 2,
            disposition: &q,
            retries: 2,
            replayed: false,
        });
        store.finish().unwrap();
        let s = StatusSnapshot::read_from(&dir).unwrap();
        assert_eq!(s.state, CampaignState::Done);
        assert_eq!(s.trials_fresh, 2);
        assert_eq!(s.trials_total, 3);
        assert_eq!(s.trials_retried, 3);
        assert_eq!(s.trials_quarantined, 1);
        assert_eq!(s.campaign_id, store.id());
        let (id, m) = read_store_meta(&dir).unwrap();
        assert_eq!(id, store.id());
        assert_eq!(m, meta());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_cancelled_is_resumable() {
        let dir = tmp_dir("cancelled");
        {
            let store = CampaignStore::open(&dir, meta()).unwrap();
            let d = disp(Response::Success);
            store.on_event(&ProgressEvent::TrialFinished {
                point: &point(),
                trial: 0,
                bit: 7,
                disposition: &d,
                retries: 0,
                replayed: false,
            });
            store.checkpoint(CampaignState::Cancelled).unwrap();
        }
        let s = StatusSnapshot::read_from(&dir).unwrap();
        assert_eq!(s.state, CampaignState::Cancelled);
        assert!(s.state.is_resumable_stop());
        // The journaled trial survives and replays on reopen.
        let store = CampaignStore::open(&dir, meta()).unwrap();
        assert_eq!(store.replayable_trials(), 1);
        assert_eq!(store.replay(&point(), 0, 7), Some(disp(Response::Success)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ml_target_tokens() {
        assert_eq!(ml_target_token(MlTarget::ErrorType), "error_type");
        assert_eq!(ml_target_token(MlTarget::RateLevels(3)), "rate_levels:3");
    }
}
