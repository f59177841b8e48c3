//! Trial supervision: retry infrastructure-suspect runs, quarantine
//! persistent ambiguity.
//!
//! The runtime's watchdog ([`simmpi::control::HangKind`]) distinguishes
//! *deterministic* hang proofs (op-budget exhaustion, the all-stuck stall
//! sweep) from the *wall-clock backstop*. The first two classify `INF_LOOP`
//! with a clear conscience; the backstop only says "the machine was too
//! slow to tell" — on a loaded host a perfectly healthy trial can be
//! wall-clock-killed mid-progress. Recording that as `INF_LOOP` would make
//! campaign results load-dependent and break bit-identical resume.
//!
//! The same split holds on both rank engines. The cooperative scheduler
//! ([`simmpi::sched`]) runs its stall sweep on round epochs instead of
//! watchdog polls, but the *evidence* is identical — every live rank
//! parked with no transport progress across a full scheduling round — so
//! a deadlock classifies `INF_LOOP` deterministically on either engine,
//! at the same op ordinals, and the wall-clock backstop remains the only
//! load-sensitive path. Supervision therefore needs no engine awareness:
//! it sees the same `HangKind` taxonomy either way.
//!
//! [`supervise`] wraps each trial attempt: trustworthy outcomes pass
//! straight through as [`TrialDisposition::Classified`]; suspect ones
//! (wall-clock kill while progressing, a panic escaping the job harness)
//! are retried at once, [`MAX_RETRIES`] times, each with twice the wall
//! backstop of the one before and the same op budget; if every attempt
//! stays suspect the trial is recorded as
//! [`TrialDisposition::Quarantined`] — never a fabricated response. The
//! campaign loop still consumes the trial's fault bit, so the RNG stream
//! and the journal stay aligned for resume, and downstream statistics
//! simply exclude quarantined trials.

use crate::campaign::TrialOutcome;

/// Why a trial ended up quarantined after exhausting its retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// Every attempt was killed by the wall-clock backstop while its ranks
    /// were still making logical progress.
    WallClock,
    /// Every attempt died on harness trouble (a panic escaping the job
    /// runner, e.g. thread-spawn failure) rather than on the fault.
    Harness,
}

impl QuarantineReason {
    /// Stable token used in journals and status reports.
    pub fn token(self) -> &'static str {
        match self {
            QuarantineReason::WallClock => "wall_clock",
            QuarantineReason::Harness => "harness",
        }
    }

    /// Inverse of [`QuarantineReason::token`].
    pub fn from_token(tok: &str) -> Option<Self> {
        match tok {
            "wall_clock" => Some(QuarantineReason::WallClock),
            "harness" => Some(QuarantineReason::Harness),
            _ => None,
        }
    }
}

/// What one supervised trial contributes to the campaign: either a
/// trustworthy Table-I classification or a quarantine marker.
#[derive(Debug, Clone, PartialEq)]
pub enum TrialDisposition {
    /// The trial produced a trustworthy outcome.
    Classified(TrialOutcome),
    /// Every attempt stayed infrastructure-suspect; no response is
    /// recorded (recording one would be fabrication).
    Quarantined {
        /// Attempts made (initial try + retries).
        attempts: u32,
        /// The dominant failure mode across the attempts.
        reason: QuarantineReason,
    },
}

impl TrialDisposition {
    /// The classified outcome, if the trial was not quarantined.
    pub fn outcome(&self) -> Option<&TrialOutcome> {
        match self {
            TrialDisposition::Classified(t) => Some(t),
            TrialDisposition::Quarantined { .. } => None,
        }
    }

    /// The classified response, if any.
    pub fn response(&self) -> Option<crate::response::Response> {
        self.outcome().map(|t| t.response)
    }
}

/// One attempt's verdict, as reported by the attempt closure.
#[derive(Debug, Clone, PartialEq)]
pub enum AttemptOutcome {
    /// The outcome is deterministic (completed, fatal, or a proven hang):
    /// classify it and move on.
    Trusted(TrialOutcome),
    /// The outcome is infrastructure-suspect: retry with a longer backstop.
    Suspect(QuarantineReason),
}

/// A supervised trial: its disposition plus how many extra attempts it
/// cost. `retries` is load-dependent telemetry — it is surfaced in
/// `status.json` but deliberately kept out of the journal so that resumed
/// and uninterrupted campaigns produce identical journals.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedTrial {
    /// The trial's contribution to the campaign.
    pub disposition: TrialDisposition,
    /// Attempts beyond the first that were needed (0 = first try stood).
    pub retries: u32,
}

/// Retries an infrastructure-suspect trial gets before it is quarantined.
/// A constant, not a setting: how many attempts a quarantined trial took
/// is journaled, so the retry count is part of what a campaign ID names.
pub const MAX_RETRIES: u32 = 2;

/// Run `attempt` until it yields a trusted outcome or [`MAX_RETRIES`]
/// retries are spent. The closure receives the escalation level (0 for
/// the first attempt, +1 per retry); the caller doubles its wall-clock
/// backstop per level, so a retried trial gets strictly more time. Retries
/// follow at once: the longer backstop, not a pause, is what gives a
/// loaded host room.
pub fn supervise(mut attempt: impl FnMut(u32) -> AttemptOutcome) -> SupervisedTrial {
    let mut last_reason = QuarantineReason::WallClock;
    for escalation in 0..=MAX_RETRIES {
        match attempt(escalation) {
            AttemptOutcome::Trusted(outcome) => {
                return SupervisedTrial {
                    disposition: TrialDisposition::Classified(outcome),
                    retries: escalation,
                };
            }
            AttemptOutcome::Suspect(reason) => last_reason = reason,
        }
    }
    SupervisedTrial {
        disposition: TrialDisposition::Quarantined {
            attempts: MAX_RETRIES + 1,
            reason: last_reason,
        },
        retries: MAX_RETRIES,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response::Response;

    fn ok() -> TrialOutcome {
        TrialOutcome {
            response: Response::Success,
            fired: true,
            fatal_rank: None,
            retransmits: 0,
            events_fired: 1,
            events_lifted: 0,
        }
    }

    #[test]
    fn trusted_first_attempt_passes_through() {
        let t = supervise(|esc| {
            assert_eq!(esc, 0);
            AttemptOutcome::Trusted(ok())
        });
        assert_eq!(t.retries, 0);
        assert_eq!(t.disposition.response(), Some(Response::Success));
    }

    #[test]
    fn suspect_attempts_are_retried_with_escalation() {
        let mut seen = Vec::new();
        let t = supervise(|esc| {
            seen.push(esc);
            if esc < MAX_RETRIES {
                AttemptOutcome::Suspect(QuarantineReason::WallClock)
            } else {
                AttemptOutcome::Trusted(ok())
            }
        });
        assert_eq!(seen, vec![0, 1, 2], "each retry escalates by one level");
        assert_eq!(t.retries, 2);
        assert!(matches!(t.disposition, TrialDisposition::Classified(_)));
    }

    #[test]
    fn exhausted_retries_quarantine_instead_of_fabricating() {
        let mut calls = 0u32;
        let t = supervise(|_| {
            calls += 1;
            AttemptOutcome::Suspect(QuarantineReason::Harness)
        });
        assert_eq!(calls, 3, "initial attempt + 2 retries");
        assert_eq!(t.retries, 2);
        assert_eq!(
            t.disposition,
            TrialDisposition::Quarantined {
                attempts: 3,
                reason: QuarantineReason::Harness,
            }
        );
        assert_eq!(t.disposition.response(), None);
    }

    #[test]
    fn reason_tokens_roundtrip() {
        for r in [QuarantineReason::WallClock, QuarantineReason::Harness] {
            assert_eq!(QuarantineReason::from_token(r.token()), Some(r));
        }
        assert_eq!(QuarantineReason::from_token("nope"), None);
    }
}
