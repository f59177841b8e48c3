//! Output checks and the failure tally.
//!
//! Everything the benchmark asks of the system is counted in
//! `attempted`; everything that did not come back right — a quarantined
//! trial, a campaign that is not `done`, an HTTP reply outside the
//! expected status, an output check that does not hold — is counted in
//! `failed`. A run is `correct` only when `failed` is 0.

use fastfit::prelude::ALL_RESPONSES;
use fastfit_store::journal::{read_journal, JOURNAL_FILE};
use fastfit_store::{CampaignMeta, CampaignState, StatusSnapshot, TrialRecord};
use std::path::Path;

/// Running count of operations attempted and failed, with one line per
/// failure for the report.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    /// Trials + campaigns + HTTP requests + output checks.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
    /// What failed.
    pub notes: Vec<String>,
}

impl Tally {
    /// Count `n` operations that have no individual verdict (trials).
    pub fn add(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.notes.push(format!("{failed} x {what}"));
        }
    }

    /// Count one operation; `what` is only built when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
        ok
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }
}

/// What a finished campaign directory holds.
pub struct Artifacts {
    /// The journal's meta record.
    pub meta: CampaignMeta,
    /// Its trial records, in file order.
    pub trials: Vec<TrialRecord>,
    /// Bytes of the trial lines (newlines included): exact for a given
    /// campaign identity, unlike the phase lines, which carry wall time.
    pub trial_line_bytes: u64,
    /// `status.json`, when the campaign ran through a store (fleet
    /// campaigns are merged from segments and have none).
    pub status: Option<StatusSnapshot>,
}

impl Artifacts {
    /// Read a campaign directory back.
    pub fn load(dir: &Path) -> Result<Artifacts, String> {
        let path = dir.join(JOURNAL_FILE);
        let contents = read_journal(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let (_, meta) = contents
            .meta
            .ok_or_else(|| format!("{}: no meta record", path.display()))?;
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let trial_line_bytes = text
            .lines()
            .filter(|l| l.ends_with("\"t\":\"trial\"}"))
            .map(|l| l.len() as u64 + 1)
            .sum();
        Ok(Artifacts {
            meta,
            trials: contents.trials,
            trial_line_bytes,
            status: StatusSnapshot::read_from(dir).ok(),
        })
    }

    /// Journaled trials that carry no classification.
    pub fn quarantined(&self) -> u64 {
        self.trials
            .iter()
            .filter(|t| t.disposition.response().is_none())
            .count() as u64
    }

    /// Response histogram over the journaled trials, `ALL_RESPONSES`
    /// order.
    pub fn responses(&self) -> [u64; 6] {
        let mut h = [0u64; 6];
        for r in self.trials.iter().filter_map(|t| t.disposition.response()) {
            h[r.index()] += 1;
        }
        debug_assert_eq!(ALL_RESPONSES.len(), h.len());
        h
    }
}

/// How a campaign reached its directory, which decides what it must
/// hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every kept point measured through a `CampaignStore`.
    Plain,
    /// ML-driven: a subset of points measured, the rest predicted.
    Ml,
    /// Merged from fleet segments: a journal but no `status.json`.
    Fleet,
}

/// Data rows of a `results.csv` body (lines after the header).
pub fn csv_rows(csv: &str) -> u64 {
    csv.lines()
        .skip(1)
        .filter(|l| !l.trim().is_empty())
        .count() as u64
}

/// Check one finished campaign: trials counted as attempted (quarantined
/// ones as failed), then the output checks. `csv` is the `results.csv`
/// the user ended up holding.
pub fn check_campaign(
    tally: &mut Tally,
    label: &str,
    dir: &Path,
    csv: &str,
    kind: Kind,
    ml_threshold: f64,
) -> Option<Artifacts> {
    let art = match Artifacts::load(dir) {
        Ok(a) => a,
        Err(e) => {
            tally.check(false, || format!("{label}: unreadable campaign directory: {e}"));
            return None;
        }
    };
    let lines = art.trials.len() as u64;
    tally.add(lines, art.quarantined(), &format!("{label}: quarantined trial"));
    let rows = csv_rows(csv);
    let tpp = art.meta.trials_per_point as u64;
    let points = art.meta.point_keys.len() as u64;
    match (kind, &art.status) {
        (Kind::Fleet, _) => {
            tally.check(lines == points * tpp, || {
                format!(
                    "{label}: merged journal has {lines} trial lines, want {points} points x {tpp}"
                )
            });
            tally.check(rows == points, || {
                format!("{label}: results.csv has {rows} rows, want {points}")
            });
        }
        (_, None) => {
            tally.check(false, || format!("{label}: no status.json"));
        }
        (_, Some(st)) => {
            tally.check(st.state == CampaignState::Done, || {
                format!("{label}: state {}", st.state.name())
            });
            let hist: u64 = st.responses.iter().sum::<u64>() + st.trials_quarantined;
            // A plain campaign measures every kept point; an ML one stops
            // early, so its total is what it ran, not the whole space.
            let want = match kind {
                Kind::Ml => st.trials_fresh + st.trials_replayed,
                _ => st.trials_total,
            };
            tally.check(hist == want && want == lines, || {
                format!(
                    "{label}: histogram sums to {hist}, trials_total {want}, journal has {lines} trial lines"
                )
            });
            let want_rows = match kind {
                Kind::Ml => st.points_done,
                _ => points,
            };
            tally.check(rows == want_rows, || {
                format!("{label}: results.csv has {rows} rows, want {want_rows}")
            });
            if kind == Kind::Ml {
                let acc = st.ml_rounds.last().map(|r| r.accuracy);
                tally.check(acc.is_some_and(|a| a >= ml_threshold), || {
                    format!("{label}: final ML accuracy {acc:?} below {ml_threshold}")
                });
            }
        }
    }
    Some(art)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_and_notes() {
        let mut t = Tally::default();
        assert!(t.check(true, || unreachable!()));
        assert!(!t.check(false, || "boom".into()));
        t.add(10, 0, "trial");
        t.add(5, 2, "quarantined trial");
        assert_eq!((t.attempted, t.failed), (17, 3));
        assert_eq!(t.notes, vec!["boom", "2 x quarantined trial"]);
        let mut u = Tally::default();
        u.merge(t);
        assert_eq!((u.attempted, u.failed), (17, 3));
    }

    #[test]
    fn csv_rows_skip_header_and_blank_tail() {
        assert_eq!(csv_rows("h\na\nb\n"), 2);
        assert_eq!(csv_rows("h\n"), 0);
        assert_eq!(csv_rows(""), 0);
    }
}
