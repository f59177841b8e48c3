//! Campaign observation seam: replay + progress events.
//!
//! Long campaigns need two things the plain `Campaign` loops don't give
//! them: *durability* (every measured trial recorded as it happens, so an
//! interrupted campaign can resume instead of restart) and *observability*
//! (live progress while thousands of trials run). Both are served by one
//! narrow trait, [`CampaignObserver`]: the campaign loop asks the observer
//! to `replay` a trial before paying for it, and reports every completed
//! unit of work through `on_event`.
//!
//! The persistence backend lives in the separate `fastfit-store` crate
//! (write-ahead trial journal + `status.json` telemetry); this module only
//! defines the seam so that `fastfit` itself stays free of I/O policy.
//! [`NullObserver`] keeps the non-persistent paths zero-cost.

use crate::campaign::PointResult;
use crate::space::InjectionPoint;
use crate::supervise::TrialDisposition;
use std::time::Duration;

/// Stable textual identity of an injection point, usable as a journal key
/// across processes and runs. Uses the full source path (not the shortened
/// `Display` form) so distinct sites can never collide.
pub fn point_key(p: &InjectionPoint) -> String {
    format!(
        "{}:{}|{}|r{}|i{}|{}",
        p.site.file,
        p.site.line,
        p.kind.name(),
        p.rank,
        p.invocation,
        p.param.name()
    )
}

/// The campaign phases of §IV, for phase-timing telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignPhase {
    /// Golden recorded run.
    Profile,
    /// Semantic + context pruning.
    Prune,
    /// Fault-injection measurement.
    Measure,
    /// ML feedback loop (train/verify rounds).
    Learn,
}

/// All phases in execution order.
pub const ALL_PHASES: [CampaignPhase; 4] = [
    CampaignPhase::Profile,
    CampaignPhase::Prune,
    CampaignPhase::Measure,
    CampaignPhase::Learn,
];

impl CampaignPhase {
    /// Lower-case name used in journals and status snapshots.
    pub fn name(self) -> &'static str {
        match self {
            CampaignPhase::Profile => "profile",
            CampaignPhase::Prune => "prune",
            CampaignPhase::Measure => "measure",
            CampaignPhase::Learn => "learn",
        }
    }

    /// Inverse of [`CampaignPhase::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        ALL_PHASES.iter().copied().find(|p| p.name() == name)
    }
}

/// One unit of campaign progress, reported as it completes.
#[derive(Debug)]
pub enum ProgressEvent<'a> {
    /// The measurement loop is about to start (or resume) over this point
    /// set.
    MeasureStarted {
        /// Points the loop will cover.
        points_total: usize,
        /// Trials per point.
        trials_per_point: usize,
    },
    /// One fault-injection test finished (or was replayed from a journal).
    TrialFinished {
        /// The injection point.
        point: &'a InjectionPoint,
        /// Trial index within the point (`0..trials_per_point`).
        trial: usize,
        /// The injected bit.
        bit: u64,
        /// What the supervised trial contributed: a classification or a
        /// quarantine marker.
        disposition: &'a TrialDisposition,
        /// Extra attempts the supervisor needed before this disposition
        /// stood (0 = first try). Telemetry only — load-dependent, so it
        /// is never journaled.
        retries: u32,
        /// `true` when the disposition came from
        /// [`CampaignObserver::replay`] instead of a fresh execution.
        replayed: bool,
    },
    /// All trials of one point finished.
    PointFinished {
        /// The injection point.
        point: &'a InjectionPoint,
        /// The aggregated measurement.
        result: &'a PointResult,
    },
    /// A campaign phase completed.
    PhaseFinished {
        /// Which phase.
        phase: CampaignPhase,
        /// Its wall time.
        wall: Duration,
    },
    /// One ML feedback round completed (train + verify).
    LearnRound {
        /// 1-based round number.
        round: usize,
        /// Points measured so far.
        measured: usize,
        /// Stopping accuracy after this round (held-out, or the
        /// warm-start prior's score when that is higher).
        accuracy: f64,
        /// Points still unmeasured after this round.
        predicted: usize,
        /// Out-of-bag accuracy of this round's forest.
        oob_accuracy: Option<f64>,
        /// Pending-point ordering in effect (`MlOrdering::token`).
        ordering: &'static str,
    },
}

/// Observer of a running campaign. All methods have no-op defaults so
/// implementations opt into exactly the hooks they need.
///
/// Threading contract: a measurement calls `on_event` from its calling
/// thread only, in canonical `(point, trial)` order, whatever ran ahead
/// of the commit point. `replay` is read-only and may be called ahead of
/// commit, from any of the measurement's threads and concurrently —
/// hence `Send + Sync`. A trial whose `replay` was consulted is not
/// necessarily reported: a cancel or a crash discards what ran ahead.
pub trait CampaignObserver: Send + Sync {
    /// Return the recorded disposition of `(point, trial)` if this exact
    /// trial was already measured (checkpoint/resume) — quarantined trials
    /// replay as quarantined, keeping resumed journals identical to
    /// uninterrupted ones. `bit` is the fault the campaign is about to
    /// inject; implementations should treat a bit mismatch against their
    /// record as "not recorded" — it means the configuration changed and
    /// the record is for a different fault.
    fn replay(
        &self,
        _point: &InjectionPoint,
        _trial: usize,
        _bit: u64,
    ) -> Option<TrialDisposition> {
        None
    }

    /// Observe one progress event.
    fn on_event(&self, _event: &ProgressEvent<'_>) {}
}

/// The do-nothing observer used by the plain (non-persistent) campaign
/// entry points.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl CampaignObserver for NullObserver {}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::hook::{CallSite, CollKind, ParamId};

    #[test]
    fn point_keys_are_distinct_and_stable() {
        let mk = |line, rank, inv, param| InjectionPoint {
            site: CallSite {
                file: "dir/app.rs",
                line,
            },
            kind: CollKind::Allreduce,
            rank,
            invocation: inv,
            param,
        };
        let a = mk(4, 0, 0, ParamId::SendBuf);
        assert_eq!(point_key(&a), "dir/app.rs:4|MPI_Allreduce|r0|i0|sendbuf");
        let mut keys = std::collections::HashSet::new();
        for (line, rank, inv, param) in [
            (4, 0, 0, ParamId::SendBuf),
            (4, 0, 0, ParamId::Comm),
            (4, 0, 1, ParamId::SendBuf),
            (4, 1, 0, ParamId::SendBuf),
            (5, 0, 0, ParamId::SendBuf),
        ] {
            assert!(keys.insert(point_key(&mk(line, rank, inv, param))));
        }
    }

    #[test]
    fn phase_names_roundtrip() {
        for p in ALL_PHASES {
            assert_eq!(CampaignPhase::from_name(p.name()), Some(p));
        }
        assert_eq!(CampaignPhase::from_name("nope"), None);
    }
}
