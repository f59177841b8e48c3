//! The daemon's durable submission queue: `queue.jsonl`.
//!
//! An append-only event log, one JSON object per line, fsynced per
//! append (submissions are rare; durability beats throughput here):
//!
//! ```text
//! {"t":"submit","id":"c0001","seq":1,"spec":{"workload":"IS",...}}
//! {"t":"done","id":"c0001"}
//! {"t":"cancelled","id":"c0002"}
//! {"t":"failed","id":"c0003","error":"..."}
//! ```
//!
//! Restart recovery is a pure fold over the log: a `submit` without a
//! terminal event is work the daemon still owes — re-enqueued on the
//! next start, where the campaign's own store journal supplies the
//! trial-level progress via the ordinary resume path. The fold is the
//! daemon's runtime rule, not a copy of it: each event is applied by one
//! function per state (`SchedState::apply` for campaigns and scenarios,
//! `FleetState::apply` for workers and leases), called on every event at
//! start and on each event a handler has just appended. Note what is *not*
//! here: no "running" event. Transitioning to running durably would add
//! a write per schedule for no recovery value — a campaign that was
//! running when the daemon died must be re-run (resumed) either way.
//!
//! Like the trial journal, the log is a
//! [`LineLog`](fastfit_store::durable::LineLog): a torn final line
//! (`kill -9` mid-append) is dropped, corruption anywhere else refused.

use crate::spec::CampaignSpec;
use fastfit_store::durable::LineLog;
use fastfit_store::json::Json;
use fastfit_store::StoreError;
use std::io;
use std::path::Path;

/// Queue log file name inside the daemon root.
pub const QUEUE_FILE: &str = "queue.jsonl";

/// One queue event.
#[derive(Debug, Clone, PartialEq)]
pub enum QueueEvent {
    /// A campaign was accepted: daemon-assigned `id` (sequential, so two
    /// submissions of the *same spec* remain distinct campaigns) plus the
    /// spec as the daemon pinned it, so a restart under another
    /// environment recovers the same campaign.
    Submitted {
        /// Daemon-assigned campaign ID (`cNNNN`).
        id: String,
        /// Monotone submission sequence number.
        seq: u64,
        /// The submitted spec, pinned (`ranks`, `trials`, `class` set).
        spec: CampaignSpec,
    },
    /// The campaign ran to completion.
    Done {
        /// Campaign ID.
        id: String,
    },
    /// The campaign was cooperatively cancelled.
    Cancelled {
        /// Campaign ID.
        id: String,
    },
    /// The campaign could not run (bad spec reaching a runner, store
    /// error, runner panic).
    Failed {
        /// Campaign ID.
        id: String,
        /// Human-readable reason.
        error: String,
    },
    /// A scenario batch was accepted: the aggregate grouping record for
    /// a `POST /scenarios` expansion. Appended *after* the per-campaign
    /// `Submitted` events it references, so a crash mid-batch leaves
    /// orphan campaigns (which still run — they are durably owed) rather
    /// than a scenario pointing at campaigns that were never journaled.
    Scenario {
        /// Daemon-assigned scenario ID (`sNNNN`).
        id: String,
        /// The grammar's sweep name.
        name: String,
        /// Member campaign IDs, in enumeration order.
        campaigns: Vec<String>,
    },
    /// A fleet worker registered. Journaled before the registration is
    /// acknowledged, so a worker id handed out survives coordinator
    /// kill -9 — the worker keeps heartbeating the restarted daemon
    /// without re-registering.
    Worker {
        /// Daemon-assigned worker ID (`wNNNN`).
        id: String,
        /// The worker's self-reported display name.
        name: String,
    },
    /// A trial-range lease was granted to a worker. Journaled before the
    /// lease is handed out; a restarted coordinator folds granted-minus-
    /// completed leases back as outstanding (with fresh deadlines), so a
    /// live worker's in-flight range is neither double-granted nor
    /// orphaned across a coordinator crash.
    Lease {
        /// Daemon-assigned lease ID (`lNNNN`).
        id: String,
        /// The campaign the range belongs to.
        campaign: String,
        /// Global trial index of the first leased trial.
        start: u64,
        /// Trials in the lease.
        len: u64,
        /// The worker holding it.
        worker: String,
    },
    /// A lease's segment was durably written (fsynced) to the campaign
    /// directory. Journaled after the segment file rename, before the
    /// worker is acknowledged.
    LeaseDone {
        /// Lease ID.
        id: String,
    },
}

impl QueueEvent {
    /// Encode as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let v = match self {
            QueueEvent::Submitted { id, seq, spec } => Json::obj([
                ("t", Json::Str("submit".into())),
                ("id", Json::Str(id.clone())),
                ("seq", Json::U64(*seq)),
                ("spec", spec.to_json()),
            ]),
            QueueEvent::Done { id } => Json::obj([
                ("t", Json::Str("done".into())),
                ("id", Json::Str(id.clone())),
            ]),
            QueueEvent::Cancelled { id } => Json::obj([
                ("t", Json::Str("cancelled".into())),
                ("id", Json::Str(id.clone())),
            ]),
            QueueEvent::Failed { id, error } => Json::obj([
                ("t", Json::Str("failed".into())),
                ("id", Json::Str(id.clone())),
                ("error", Json::Str(error.clone())),
            ]),
            QueueEvent::Scenario {
                id,
                name,
                campaigns,
            } => Json::obj([
                ("t", Json::Str("scenario".into())),
                ("id", Json::Str(id.clone())),
                ("name", Json::Str(name.clone())),
                (
                    "campaigns",
                    Json::Arr(campaigns.iter().cloned().map(Json::Str).collect()),
                ),
            ]),
            QueueEvent::Worker { id, name } => Json::obj([
                ("t", Json::Str("worker".into())),
                ("id", Json::Str(id.clone())),
                ("name", Json::Str(name.clone())),
            ]),
            QueueEvent::Lease {
                id,
                campaign,
                start,
                len,
                worker,
            } => Json::obj([
                ("t", Json::Str("lease".into())),
                ("id", Json::Str(id.clone())),
                ("campaign", Json::Str(campaign.clone())),
                ("start", Json::U64(*start)),
                ("len", Json::U64(*len)),
                ("worker", Json::Str(worker.clone())),
            ]),
            QueueEvent::LeaseDone { id } => Json::obj([
                ("t", Json::Str("lease_done".into())),
                ("id", Json::Str(id.clone())),
            ]),
        };
        v.encode()
    }

    /// Decode one line.
    pub fn decode(line: &str) -> Result<QueueEvent, String> {
        let v = Json::parse(line).map_err(|e| format!("bad queue line: {e}"))?;
        let tag = v.get("t").and_then(Json::as_str).ok_or("missing \"t\"")?;
        let id = v
            .get("id")
            .and_then(Json::as_str)
            .ok_or("missing \"id\"")?
            .to_string();
        match tag {
            "submit" => {
                let seq = v.get("seq").and_then(Json::as_u64).ok_or("missing seq")?;
                let spec = CampaignSpec::from_json(v.get("spec").ok_or("missing spec")?)?;
                Ok(QueueEvent::Submitted { id, seq, spec })
            }
            "done" => Ok(QueueEvent::Done { id }),
            "cancelled" => Ok(QueueEvent::Cancelled { id }),
            "scenario" => {
                let name = v
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("missing scenario name")?
                    .to_string();
                let Some(Json::Arr(items)) = v.get("campaigns") else {
                    return Err("missing scenario campaigns".into());
                };
                let campaigns = items
                    .iter()
                    .map(|it| {
                        it.as_str()
                            .map(str::to_string)
                            .ok_or("scenario campaign ids must be strings".to_string())
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(QueueEvent::Scenario {
                    id,
                    name,
                    campaigns,
                })
            }
            "failed" => {
                let error = v
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                Ok(QueueEvent::Failed { id, error })
            }
            "worker" => {
                let name = v
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("missing worker name")?
                    .to_string();
                Ok(QueueEvent::Worker { id, name })
            }
            "lease" => {
                let campaign = v
                    .get("campaign")
                    .and_then(Json::as_str)
                    .ok_or("missing lease campaign")?
                    .to_string();
                let start = v
                    .get("start")
                    .and_then(Json::as_u64)
                    .ok_or("missing lease start")?;
                let len = v
                    .get("len")
                    .and_then(Json::as_u64)
                    .ok_or("missing lease len")?;
                let worker = v
                    .get("worker")
                    .and_then(Json::as_str)
                    .ok_or("missing lease worker")?
                    .to_string();
                Ok(QueueEvent::Lease {
                    id,
                    campaign,
                    start,
                    len,
                    worker,
                })
            }
            "lease_done" => Ok(QueueEvent::LeaseDone { id }),
            other => Err(format!("unknown queue event {other:?}")),
        }
    }
}

/// Append-side handle on the queue log.
#[derive(Debug)]
pub struct QueueLog {
    log: LineLog,
}

impl QueueLog {
    /// Open (creating if needed) the queue log in `root` for appending
    /// and return every intact event it holds. A torn tail is truncated
    /// away first, so the next append starts on a fresh line.
    pub fn recover(root: &Path) -> io::Result<(QueueLog, Vec<QueueEvent>)> {
        let (log, read) = LineLog::open(&root.join(QUEUE_FILE), QueueEvent::decode)?;
        Ok((QueueLog { log }, read.records))
    }

    /// As [`recover`](QueueLog::recover), for the handle alone.
    pub fn open(root: &Path) -> io::Result<QueueLog> {
        Ok(Self::recover(root)?.0)
    }

    /// Append one event durably (write + fsync before returning, so an
    /// acknowledged submission survives `kill -9`).
    pub fn append(&mut self, event: &QueueEvent) -> io::Result<()> {
        self.append_all(std::slice::from_ref(event))
    }

    /// Append a batch durably: the same lines [`QueueLog::append`] would
    /// write one by one, in one write and one fsync.
    pub fn append_all(&mut self, events: &[QueueEvent]) -> io::Result<()> {
        self.log.append(events.iter().map(QueueEvent::encode))?;
        self.log.sync()
    }
}

/// Read every intact event from the queue log without changing it (a
/// missing log is an empty one).
pub fn read_queue(root: &Path) -> io::Result<Vec<QueueEvent>> {
    match LineLog::read(&root.join(QUEUE_FILE), QueueEvent::decode) {
        Ok(read) => Ok(read.records),
        Err(StoreError::Io(e)) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e.into()),
    }
}

/// The sequence number in a daemon-assigned ID (`c0007` → 7), for the
/// folds that keep the next free one.
pub(crate) fn seq_of(id: &str) -> Option<u64> {
    id.get(1..)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::SchedState;
    use crate::fleet::FleetState;
    use fastfit_store::CampaignState;
    use std::path::PathBuf;
    use std::time::{Duration, Instant};

    fn tmp_root(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "fastfit-queue-{}-{}-{:?}",
            tag,
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// The daemon's restart fold: every event through both `apply`s.
    fn fold(events: &[QueueEvent]) -> (SchedState, FleetState) {
        let mut sched = SchedState::new();
        let mut fleet = FleetState::new(Duration::from_secs(3));
        let now = Instant::now();
        for ev in events {
            sched.apply(ev);
            fleet.apply(ev, now);
        }
        (sched, fleet)
    }

    /// The campaigns a fold still owes, in submission order.
    fn pending(sched: &SchedState) -> Vec<&str> {
        sched
            .entries
            .iter()
            .filter(|e| e.state == CampaignState::Queued)
            .map(|e| e.id.as_str())
            .collect()
    }

    fn submit(id: &str, seq: u64) -> QueueEvent {
        QueueEvent::Submitted {
            id: id.into(),
            seq,
            spec: CampaignSpec::new("IS"),
        }
    }

    #[test]
    fn events_roundtrip() {
        for ev in [
            submit("c0001", 1),
            QueueEvent::Done { id: "c0001".into() },
            QueueEvent::Cancelled { id: "c0002".into() },
            QueueEvent::Failed {
                id: "c0003".into(),
                error: "boom".into(),
            },
            QueueEvent::Scenario {
                id: "s0001".into(),
                name: "sweep".into(),
                campaigns: vec!["c0001".into(), "c0002".into()],
            },
            QueueEvent::Worker {
                id: "w0001".into(),
                name: "node-a".into(),
            },
            QueueEvent::Lease {
                id: "l0001".into(),
                campaign: "c0001".into(),
                start: 24,
                len: 8,
                worker: "w0001".into(),
            },
            QueueEvent::LeaseDone { id: "l0001".into() },
        ] {
            assert_eq!(QueueEvent::decode(&ev.encode()).unwrap(), ev);
        }
        assert!(QueueEvent::decode("{\"t\":\"levitate\",\"id\":\"x\"}").is_err());
    }

    #[test]
    fn fleet_fold_restores_outstanding_leases_only() {
        let lease = |id: &str, campaign: &str, start: u64| QueueEvent::Lease {
            id: id.into(),
            campaign: campaign.into(),
            start,
            len: 8,
            worker: "w0001".into(),
        };
        let events = vec![
            submit("c0001", 1),
            submit("c0002", 2),
            QueueEvent::Worker {
                id: "w0001".into(),
                name: "node-a".into(),
            },
            QueueEvent::Worker {
                id: "w0002".into(),
                name: "node-b".into(),
            },
            lease("l0001", "c0001", 0),
            lease("l0002", "c0001", 8),
            lease("l0003", "c0002", 0),
            QueueEvent::LeaseDone { id: "l0001".into() },
            // Terminal campaign state retires its leases wholesale.
            QueueEvent::Done { id: "c0002".into() },
        ];
        let (sched, fleet) = fold(&events);
        let workers: Vec<(&str, &str)> = fleet
            .workers
            .iter()
            .map(|w| (w.id.as_str(), w.name.as_str()))
            .collect();
        assert_eq!(workers, [("w0001", "node-a"), ("w0002", "node-b")]);
        assert_eq!(fleet.next_wseq, 3);
        assert_eq!(fleet.next_lseq, 4);
        assert_eq!(
            fleet.leases.len(),
            1,
            "only the ungranted c0001 lease remains"
        );
        assert_eq!(fleet.leases[0].id, "l0002");
        assert_eq!(fleet.leases[0].start, 8);
        // Fleet events add no campaign-level work.
        assert_eq!(pending(&sched), ["c0001"]);
    }

    #[test]
    fn a_regranted_range_supersedes_its_expired_lease() {
        // The reaper journals nothing when `l0001` expires; the log only
        // shows its range granted again. An adjacent range and another
        // campaign's same range are not superseded.
        let lease = |id: &str, campaign: &str, start: u64, worker: &str| QueueEvent::Lease {
            id: id.into(),
            campaign: campaign.into(),
            start,
            len: 4,
            worker: worker.into(),
        };
        let events = vec![
            QueueEvent::Worker {
                id: "w0001".into(),
                name: "node-a".into(),
            },
            QueueEvent::Worker {
                id: "w0002".into(),
                name: "node-b".into(),
            },
            lease("l0001", "c0001", 0, "w0001"),
            lease("l0002", "c0001", 0, "w0002"),
        ];
        let (_, fleet) = fold(&events);
        let leases: Vec<(&str, &str)> = fleet
            .leases
            .iter()
            .map(|l| (l.id.as_str(), l.worker.as_str()))
            .collect();
        assert_eq!(leases, [("l0002", "w0002")], "the expired lease stays dead");

        let mut more = events;
        more.push(lease("l0003", "c0001", 4, "w0001"));
        more.push(lease("l0004", "c0002", 0, "w0001"));
        let (_, fleet) = fold(&more);
        let ids: Vec<&str> = fleet.leases.iter().map(|l| l.id.as_str()).collect();
        assert_eq!(ids, ["l0002", "l0003", "l0004"]);
    }

    #[test]
    fn scenarios_fold_and_do_not_pend() {
        let events = vec![
            submit("c0001", 1),
            submit("c0002", 2),
            QueueEvent::Scenario {
                id: "s0001".into(),
                name: "sweep".into(),
                campaigns: vec!["c0001".into(), "c0002".into()],
            },
            QueueEvent::Done { id: "c0001".into() },
        ];
        let (sched, _) = fold(&events);
        assert_eq!(sched.next_seq, 3);
        assert_eq!(pending(&sched).len(), 1, "scenario record adds no work");
        assert_eq!(sched.next_scenario_seq, 2);
        assert_eq!(sched.scenarios.len(), 1);
        assert_eq!(sched.scenarios[0].id, "s0001");
        assert_eq!(sched.scenarios[0].campaigns, vec!["c0001", "c0002"]);
    }

    #[test]
    fn append_read_fold() {
        let root = tmp_root("fold");
        let mut log = QueueLog::open(&root).unwrap();
        log.append(&submit("c0001", 1)).unwrap();
        log.append(&submit("c0002", 2)).unwrap();
        log.append(&QueueEvent::Done { id: "c0001".into() })
            .unwrap();
        log.append(&submit("c0003", 3)).unwrap();
        log.append(&QueueEvent::Failed {
            id: "c0002".into(),
            error: "bad".into(),
        })
        .unwrap();
        let events = read_queue(&root).unwrap();
        assert_eq!(events.len(), 5);
        let (sched, _) = fold(&events);
        assert_eq!(sched.next_seq, 4);
        assert_eq!(pending(&sched), ["c0003"]);
        assert_eq!(
            (sched.accepted, sched.done, sched.cancelled, sched.failed),
            (3, 1, 0, 1)
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn batch_append_writes_the_bytes_of_single_appends() {
        let events = [
            submit("c0001", 1),
            submit("c0002", 2),
            QueueEvent::Scenario {
                id: "s0001".into(),
                name: "sweep".into(),
                campaigns: vec!["c0001".into(), "c0002".into()],
            },
        ];
        let (one, all) = (tmp_root("batch-one"), tmp_root("batch-all"));
        let mut log = QueueLog::open(&one).unwrap();
        for ev in &events {
            log.append(ev).unwrap();
        }
        QueueLog::open(&all).unwrap().append_all(&events).unwrap();
        assert_eq!(
            std::fs::read(all.join(QUEUE_FILE)).unwrap(),
            std::fs::read(one.join(QUEUE_FILE)).unwrap()
        );
        assert_eq!(read_queue(&all).unwrap(), events);
        std::fs::remove_dir_all(&one).unwrap();
        std::fs::remove_dir_all(&all).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_mid_file_corruption_is_refused() {
        let root = tmp_root("torn");
        let mut log = QueueLog::open(&root).unwrap();
        log.append(&submit("c0001", 1)).unwrap();
        // Simulate a crash mid-append: half an event, no newline.
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(root.join(QUEUE_FILE))
            .unwrap();
        f.write_all(b"{\"t\":\"done\",\"id").unwrap();
        drop(f);
        let events = read_queue(&root).unwrap();
        assert_eq!(events.len(), 1, "torn tail dropped");
        // The restart after the crash appends; the one after that must
        // still read the log.
        QueueLog::open(&root)
            .unwrap()
            .append(&QueueEvent::Done { id: "c0001".into() })
            .unwrap();
        assert_eq!(
            read_queue(&root).unwrap(),
            [submit("c0001", 1), QueueEvent::Done { id: "c0001".into() }]
        );

        // Corruption before the tail is an error, not a silent skip.
        std::fs::write(
            root.join(QUEUE_FILE),
            "garbage\n{\"t\":\"done\",\"id\":\"c0001\"}\n",
        )
        .unwrap();
        assert!(read_queue(&root).is_err());

        let missing = tmp_root("missing");
        assert!(read_queue(&missing).unwrap().is_empty());
        std::fs::remove_dir_all(&root).unwrap();
        std::fs::remove_dir_all(&missing).unwrap();
    }
}
