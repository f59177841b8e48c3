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
//! trial-level progress via the ordinary resume path. Note what is *not*
//! here: no "running" event. Transitioning to running durably would add
//! a write per schedule for no recovery value — a campaign that was
//! running when the daemon died must be re-run (resumed) either way.
//!
//! Like the trial journal, the reader tolerates a torn final line
//! (`kill -9` mid-append) but refuses corruption anywhere else.

use crate::spec::CampaignSpec;
use fastfit_store::json::Json;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

/// Queue log file name inside the daemon root.
pub const QUEUE_FILE: &str = "queue.jsonl";

/// One queue event.
#[derive(Debug, Clone, PartialEq)]
pub enum QueueEvent {
    /// A campaign was accepted: daemon-assigned `id` (sequential, so two
    /// submissions of the *same spec* remain distinct campaigns) plus the
    /// spec verbatim.
    Submitted {
        /// Daemon-assigned campaign ID (`cNNNN`).
        id: String,
        /// Monotone submission sequence number.
        seq: u64,
        /// The submitted spec.
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
    file: File,
}

impl QueueLog {
    /// Open (creating if needed) the queue log in `root`.
    pub fn open(root: &Path) -> io::Result<QueueLog> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(root.join(QUEUE_FILE))?;
        Ok(QueueLog { file })
    }

    /// Append one event durably (write + fsync before returning, so an
    /// acknowledged submission survives `kill -9`).
    pub fn append(&mut self, event: &QueueEvent) -> io::Result<()> {
        self.append_all(std::slice::from_ref(event))
    }

    /// Append a batch durably: the same lines [`QueueLog::append`] would
    /// write one by one, in one write and one fsync. A crash mid-write
    /// leaves a prefix of whole lines plus at most one torn tail, which
    /// [`read_queue`] drops.
    pub fn append_all(&mut self, events: &[QueueEvent]) -> io::Result<()> {
        let mut buf = String::new();
        for event in events {
            buf.push_str(&event.encode());
            buf.push('\n');
        }
        self.file.write_all(buf.as_bytes())?;
        self.file.sync_data()
    }
}

/// Read every intact event from the queue log. A torn final line (crash
/// mid-append) is dropped — by construction nothing after it exists — but
/// a damaged line elsewhere is corruption and refused.
pub fn read_queue(root: &Path) -> io::Result<Vec<QueueEvent>> {
    let path = root.join(QUEUE_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut events = Vec::new();
    let lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    for (i, raw) in lines.iter().enumerate() {
        if raw.is_empty() {
            continue;
        }
        // The final chunk is torn unless the file ended with a newline.
        let is_tail = i == lines.len() - 1;
        let parsed = std::str::from_utf8(raw)
            .map_err(|e| e.to_string())
            .and_then(|line| QueueEvent::decode(line).map_err(|e| e.to_string()));
        match parsed {
            Ok(ev) => events.push(ev),
            Err(_) if is_tail => break,
            Err(e) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("queue log {} line {}: {}", path.display(), i + 1, e),
                ));
            }
        }
    }
    Ok(events)
}

/// The fold: submissions still owed (no terminal event), in submission
/// order, plus the next free sequence number.
pub fn pending_submissions(events: &[QueueEvent]) -> (Vec<(String, u64, CampaignSpec)>, u64) {
    let mut next_seq = 1;
    let mut pending: Vec<(String, u64, CampaignSpec)> = Vec::new();
    for ev in events {
        match ev {
            QueueEvent::Submitted { id, seq, spec } => {
                next_seq = next_seq.max(seq + 1);
                pending.push((id.clone(), *seq, spec.clone()));
            }
            QueueEvent::Done { id } | QueueEvent::Cancelled { id } => {
                pending.retain(|(p, _, _)| p != id);
            }
            QueueEvent::Failed { id, .. } => {
                pending.retain(|(p, _, _)| p != id);
            }
            // Scenario records group campaigns; they carry no work of
            // their own. Fleet events describe workers and leases, not
            // campaign-level work.
            QueueEvent::Scenario { .. }
            | QueueEvent::Worker { .. }
            | QueueEvent::Lease { .. }
            | QueueEvent::LeaseDone { .. } => {}
        }
    }
    (pending, next_seq)
}

/// A lease restored from the queue log: granted, never completed.
#[derive(Debug, Clone, PartialEq)]
pub struct RestoredLease {
    /// Lease ID (`lNNNN`).
    pub id: String,
    /// Campaign the range belongs to.
    pub campaign: String,
    /// Global trial index of the first leased trial.
    pub start: u64,
    /// Trials in the lease.
    pub len: u64,
    /// Worker that held it when the coordinator died.
    pub worker: String,
}

/// The fleet fold: registered workers (id, name) in registration order,
/// outstanding leases (granted minus completed), and the next free
/// worker/lease sequence numbers. A restarted coordinator seeds its
/// fleet state from this so live workers keep their ids and in-flight
/// ranges across a coordinator kill -9.
pub fn fleet_records(
    events: &[QueueEvent],
) -> (Vec<(String, String)>, Vec<RestoredLease>, u64, u64) {
    let mut workers: Vec<(String, String)> = Vec::new();
    let mut leases: Vec<RestoredLease> = Vec::new();
    let (mut next_wseq, mut next_lseq) = (1, 1);
    for ev in events {
        match ev {
            QueueEvent::Worker { id, name } => {
                if let Some(n) = id.strip_prefix('w').and_then(|n| n.parse::<u64>().ok()) {
                    next_wseq = next_wseq.max(n + 1);
                }
                workers.push((id.clone(), name.clone()));
            }
            QueueEvent::Lease {
                id,
                campaign,
                start,
                len,
                worker,
            } => {
                if let Some(n) = id.strip_prefix('l').and_then(|n| n.parse::<u64>().ok()) {
                    next_lseq = next_lseq.max(n + 1);
                }
                leases.push(RestoredLease {
                    id: id.clone(),
                    campaign: campaign.clone(),
                    start: *start,
                    len: *len,
                    worker: worker.clone(),
                });
            }
            QueueEvent::LeaseDone { id } => leases.retain(|l| &l.id != id),
            // A campaign reaching a terminal state retires its leases.
            QueueEvent::Done { id }
            | QueueEvent::Cancelled { id }
            | QueueEvent::Failed { id, .. } => {
                leases.retain(|l| &l.campaign != id);
            }
            QueueEvent::Submitted { .. } | QueueEvent::Scenario { .. } => {}
        }
    }
    (workers, leases, next_wseq, next_lseq)
}

/// The scenario fold: every scenario grouping record in submission
/// order, plus the next free scenario sequence number (scenario IDs are
/// `sNNNN`, numbered independently of campaign IDs).
pub fn scenario_records(events: &[QueueEvent]) -> (Vec<(String, String, Vec<String>)>, u64) {
    let mut next_seq = 1;
    let mut records = Vec::new();
    for ev in events {
        if let QueueEvent::Scenario {
            id,
            name,
            campaigns,
        } = ev
        {
            if let Some(n) = id.strip_prefix('s').and_then(|n| n.parse::<u64>().ok()) {
                next_seq = next_seq.max(n + 1);
            }
            records.push((id.clone(), name.clone(), campaigns.clone()));
        }
    }
    (records, next_seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

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
        let (workers, leases, next_wseq, next_lseq) = fleet_records(&events);
        assert_eq!(
            workers,
            vec![
                ("w0001".to_string(), "node-a".to_string()),
                ("w0002".to_string(), "node-b".to_string()),
            ]
        );
        assert_eq!(next_wseq, 3);
        assert_eq!(next_lseq, 4);
        assert_eq!(leases.len(), 1, "only the ungranted c0001 lease remains");
        assert_eq!(leases[0].id, "l0002");
        assert_eq!(leases[0].start, 8);
        // Fleet events add no campaign-level work.
        let (pending, _) = pending_submissions(&events);
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].0, "c0001");
    }

    #[test]
    fn scenario_records_fold_and_do_not_pend() {
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
        let (pending, next_seq) = pending_submissions(&events);
        assert_eq!(next_seq, 3);
        assert_eq!(pending.len(), 1, "scenario record adds no work");
        let (records, next_sseq) = scenario_records(&events);
        assert_eq!(next_sseq, 2);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].0, "s0001");
        assert_eq!(records[0].2, vec!["c0001", "c0002"]);
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
        let (pending, next_seq) = pending_submissions(&events);
        assert_eq!(next_seq, 4);
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].0, "c0003");
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
        let mut f = OpenOptions::new()
            .append(true)
            .open(root.join(QUEUE_FILE))
            .unwrap();
        f.write_all(b"{\"t\":\"done\",\"id").unwrap();
        drop(f);
        let events = read_queue(&root).unwrap();
        assert_eq!(events.len(), 1, "torn tail dropped");

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
