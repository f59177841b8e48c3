//! The golden run's collective results, and the prefix of a trial that
//! replays them instead of exchanging them again.
//!
//! A recorded job ([`JobSpec::record`](crate::runtime::JobSpec)) stores,
//! next to every [`CallRecord`](crate::record::CallRecord), what the call's
//! algorithm returned on each rank, under the call's real
//! `(communicator, sequence number)`. A trial whose [`JobSpec`] carries
//! that [`ReplayLog`] and the *anchor* — the `(communicator, seq q)` of the
//! first call its fault can touch — returns the recorded result for every
//! call on the anchor's communicator with `seq < q` that has an entry, and
//! sends no message for it. Everything else about the call (kill check, op
//! accounting, invocation counts, the hook, validation, the sequence
//! number) happens as always, in `RankCtx::pre_coll`.
//!
//! Whether a call is replayed is a function of the shared log and `q`
//! alone, so every participant of one collective decides alike. That the
//! recorded result *is* the result is checked, not assumed — see the taint
//! guard in [`crate::transport::Fabric`] and DESIGN.md §20.
//!
//! [`JobSpec`]: crate::runtime::JobSpec

use std::sync::Arc;

/// Most bytes of recorded results (payload plus a fixed per-entry charge)
/// one log keeps. A run that records more keeps the lowest sequence
/// numbers that fit; calls past the cut are exchanged for real by every
/// rank.
pub const REPLAY_LOG_CAP_BYTES: u64 = 64 << 20;

/// What a collective's algorithm handed one rank: `None` where it hands
/// the rank nothing at all (a non-root of `reduce` / `gather` / `gatherv`),
/// which is not the same as an empty result.
pub type CallResult = Option<Vec<u8>>;

/// One recorded call of one rank: `(communicator code, seq, result)`.
pub(crate) type RecordedCall = (u32, u64, CallResult);

/// Where one recorded call's result lies in [`ReplayLog::data`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    /// A sequence number the seam never saw (`comm_split`'s internal
    /// allgather): a hole.
    Absent,
    /// Recorded, and the algorithm handed the rank nothing.
    NoResult,
    /// Recorded: `data[at..at + len]`.
    Bytes { at: usize, len: usize },
}

/// Fixed charge per entry against the cap, so a log of empty results
/// (barriers) is bounded too.
const ENTRY_OVERHEAD: u64 = std::mem::size_of::<Entry>() as u64;

/// One rank's calls on one communicator code, indexed by sequence number.
struct CommCalls {
    code: u32,
    calls: Vec<Entry>,
}

/// The per-rank results of every collective call of one recorded job.
///
/// Entries are per rank because two communicators may share a code (the
/// colour groups of one `comm_split`); a rank belongs to at most one of
/// them, so `(rank, code, seq)` names one call.
pub struct ReplayLog {
    ranks: Vec<Vec<CommCalls>>,
    /// Every result's bytes, lowest sequence numbers first. One buffer
    /// rather than one allocation per entry: thousands of small
    /// long-lived blocks scattered among a golden run's message buffers
    /// would keep its whole heap resident for the length of the campaign.
    data: Vec<u8>,
    entries: u64,
    bytes: u64,
}

impl ReplayLog {
    /// Build the log of a finished job from what each rank recorded, cut
    /// to [`REPLAY_LOG_CAP_BYTES`].
    pub(crate) fn from_ranks(per_rank: Vec<Vec<RecordedCall>>) -> ReplayLog {
        // Lowest sequence numbers first, so the cap cuts the tail.
        let mut recorded: Vec<(usize, RecordedCall)> = per_rank
            .into_iter()
            .enumerate()
            .flat_map(|(rank, calls)| calls.into_iter().map(move |call| (rank, call)))
            .collect();
        recorded.sort_by_key(|(_, (_, seq, _))| *seq);
        let payload = recorded
            .iter()
            .map(|(_, (_, _, result))| result.as_ref().map_or(0, Vec::len))
            .sum();
        let mut log = ReplayLog {
            ranks: Vec::new(),
            data: Vec::with_capacity(payload),
            entries: 0,
            bytes: 0,
        };
        for (rank, (code, seq, result)) in recorded {
            if log.ranks.len() <= rank {
                log.ranks.resize_with(rank + 1, Vec::new);
            }
            let comms = &mut log.ranks[rank];
            let pos = comms
                .iter()
                .position(|c| c.code == code)
                .unwrap_or_else(|| {
                    comms.push(CommCalls {
                        code,
                        calls: Vec::new(),
                    });
                    comms.len() - 1
                });
            let calls = &mut comms[pos].calls;
            let seq = seq as usize;
            if calls.len() <= seq {
                calls.resize(seq + 1, Entry::Absent);
            }
            calls[seq] = match result {
                None => Entry::NoResult,
                Some(bytes) => {
                    let at = log.data.len();
                    log.data.extend_from_slice(&bytes);
                    Entry::Bytes {
                        at,
                        len: bytes.len(),
                    }
                }
            };
        }
        log.truncate_to(REPLAY_LOG_CAP_BYTES);
        log
    }

    /// Keep the lowest sequence numbers whose entries — on every rank and
    /// communicator together — fit in `cap_bytes`, and drop the rest. The
    /// cut is one sequence number for the whole log, so all participants
    /// of a call keep it or lose it together. Applied with
    /// [`REPLAY_LOG_CAP_BYTES`] to every recorded log; public so a test
    /// can cut lower.
    pub fn truncate_to(&mut self, cap_bytes: u64) {
        let mut per_seq: Vec<u64> = Vec::new();
        for calls in self.ranks.iter().flatten().map(|c| &c.calls) {
            if per_seq.len() < calls.len() {
                per_seq.resize(calls.len(), 0);
            }
            for (seq, entry) in calls.iter().enumerate() {
                per_seq[seq] += match entry {
                    Entry::Absent => 0,
                    Entry::NoResult => ENTRY_OVERHEAD,
                    Entry::Bytes { len, .. } => ENTRY_OVERHEAD + *len as u64,
                };
            }
        }
        let mut kept = 0u64;
        let cut = per_seq
            .iter()
            .position(|&b| {
                kept += b;
                kept > cap_bytes
            })
            .unwrap_or(per_seq.len());
        self.bytes = per_seq[..cut].iter().sum();
        self.entries = 0;
        let mut data_end = 0;
        for comm in self.ranks.iter_mut().flatten() {
            comm.calls.truncate(cut);
            for entry in &comm.calls {
                self.entries += u64::from(*entry != Entry::Absent);
                if let Entry::Bytes { at, len } = entry {
                    data_end = data_end.max(at + len);
                }
            }
        }
        // `data` is in sequence order: what was cut is its tail.
        self.data.truncate(data_end);
        self.data.shrink_to_fit();
    }

    fn calls(&self, rank: usize, comm: u32) -> &[Entry] {
        self.ranks
            .get(rank)
            .and_then(|comms| comms.iter().find(|c| c.code == comm))
            .map_or(&[], |c| &c.calls)
    }

    /// What `rank`'s call `(comm, seq)` returned in the recorded run, if
    /// the log holds it: `Some(None)` where the algorithm handed the rank
    /// nothing (see [`CallResult`]).
    pub fn result(&self, rank: usize, comm: u32, seq: u64) -> Option<Option<&[u8]>> {
        match *self.calls(rank, comm).get(seq as usize)? {
            Entry::Absent => None,
            Entry::NoResult => Some(None),
            Entry::Bytes { at, len } => Some(Some(&self.data[at..at + len])),
        }
    }

    /// The highest sequence number below `before` at which `rank` has an
    /// entry on `comm`: the last call a trial anchored at `(comm, before)`
    /// replays on that rank.
    pub fn last_before(&self, rank: usize, comm: u32, before: u64) -> Option<u64> {
        let calls = self.calls(rank, comm);
        let end = calls.len().min(before as usize);
        calls[..end]
            .iter()
            .rposition(|e| *e != Entry::Absent)
            .map(|s| s as u64)
    }

    /// Entries held (one per rank per recorded call).
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Bytes held, as charged against the cap.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl std::fmt::Debug for ReplayLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayLog")
            .field("ranks", &self.ranks.len())
            .field("entries", &self.entries)
            .field("bytes", &self.bytes)
            .finish()
    }
}

/// The part of a trial that is a bit-for-bit re-run of the recorded job:
/// the recorded job's log and the anchor `(comm, seq)` before which calls
/// on `comm` are replayed from it.
#[derive(Debug, Clone)]
pub struct ReplayPrefix {
    /// The recorded job's results.
    pub log: Arc<ReplayLog>,
    /// Communicator code of the anchor call.
    pub comm: u32,
    /// The anchor's sequence number on `comm`.
    pub seq: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log() -> ReplayLog {
        // Two ranks, world code 7: seq 0 and 2 recorded (1 is a hole),
        // rank 1 a non-root at seq 2; rank 0 alone on code 9.
        ReplayLog::from_ranks(vec![
            vec![
                (7, 0, Some(vec![1, 2, 3])),
                (7, 2, Some(vec![4])),
                (9, 0, Some(vec![])),
            ],
            vec![(7, 0, Some(vec![5, 6, 7])), (7, 2, None)],
        ])
    }

    #[test]
    fn entries_are_per_rank_and_keep_no_result_apart_from_empty() {
        let log = log();
        assert_eq!(log.result(0, 7, 0), Some(Some(&[1, 2, 3][..])));
        assert_eq!(log.result(1, 7, 0), Some(Some(&[5, 6, 7][..])));
        assert_eq!(log.result(0, 7, 2), Some(Some(&[4][..])));
        assert_eq!(log.result(1, 7, 2), Some(None), "a non-root has no result");
        assert_eq!(
            log.result(0, 9, 0),
            Some(Some(&[][..])),
            "an empty one is one"
        );
        assert_eq!(log.result(0, 7, 1), None, "a hole is no entry");
        assert_eq!(log.result(1, 9, 0), None, "rank 1 never called on code 9");
        assert_eq!(log.result(2, 7, 0), None);
        assert_eq!(log.entries(), 5);
        assert_eq!(log.bytes(), 5 * ENTRY_OVERHEAD + 7);
    }

    #[test]
    fn last_before_skips_holes_and_respects_the_anchor() {
        let log = log();
        assert_eq!(log.last_before(0, 7, 0), None);
        assert_eq!(log.last_before(0, 7, 1), Some(0));
        assert_eq!(log.last_before(0, 7, 2), Some(0), "seq 1 is a hole");
        assert_eq!(log.last_before(0, 7, 9), Some(2));
        assert_eq!(log.last_before(1, 9, 9), None);
    }

    #[test]
    fn truncation_cuts_every_rank_at_one_sequence_number() {
        let mut log = log();
        // Seq 0 costs 3 entries (incl. code 9) + 6 bytes; seq 2 does not fit.
        log.truncate_to(3 * ENTRY_OVERHEAD + 6);
        assert_eq!(log.entries(), 3);
        assert_eq!(log.bytes(), 3 * ENTRY_OVERHEAD + 6);
        for rank in 0..2 {
            assert!(log.result(rank, 7, 0).is_some());
            assert!(log.result(rank, 7, 2).is_none(), "rank {rank} past the cut");
        }
        log.truncate_to(0);
        assert_eq!((log.entries(), log.bytes()), (0, 0));
        assert_eq!(log.last_before(0, 7, 9), None);
    }
}
