//! # mpiprof — profiling substrate for the FastFIT reproduction
//!
//! The paper's profiling phase collects three kinds of information with
//! external tools (mpiP for communication profiles, Callgrind/gprof for
//! call graphs, `backtrace()` for call stacks at injection points). In the
//! simulated runtime, every collective call is recorded natively
//! ([`simmpi::record::CallRecord`]); this crate turns those records into:
//!
//! - an [`profile::ApplicationProfile`] with per-site statistics (the ML
//!   features `nInv`, `StackDep`, `nDiffStack`, `ErrHal`, `Phase`) and
//!   call-stack groups (§III-B context pruning),
//! - per-rank [`callgraph::CallGraph`]s,
//! - [`equivalence::rank_classes`] — the call-graph + trace equivalence
//!   partition of §III-A, and
//! - an mpiP-style [`report::communication_report`] and per-rank
//!   [`report::imbalance_report`].
//!
//! ```
//! use mpiprof::{profile_app, rank_classes};
//! use simmpi::op::ReduceOp;
//! use simmpi::prelude::*;
//! use std::sync::Arc;
//!
//! let spec = JobSpec { nranks: 4, ..Default::default() };
//! let (profile, _golden) = profile_app(&spec, Arc::new(|ctx: &mut RankCtx| {
//!     ctx.allreduce_one(1.0f64, ReduceOp::Sum, ctx.world());
//!     RankOutput::new()
//! }));
//! // A symmetric allreduce leaves all ranks equivalent: one class.
//! assert_eq!(rank_classes(&profile), vec![vec![0, 1, 2, 3]]);
//! ```

pub mod callgraph;
pub mod equivalence;
pub mod profile;
pub mod report;

pub use callgraph::CallGraph;
pub use equivalence::{rank_classes, rank_signature};
pub use profile::{ApplicationProfile, SiteStats, StackGroup};
pub use report::{communication_report, imbalance_report};

use simmpi::runtime::{run_job, AppFn, JobOutcome, JobSpec};
use std::time::Duration;

/// Everything the profiling run produces: the profile, the golden outputs,
/// and the runtime accounting the campaign layer derives its watchdog
/// budgets from.
pub struct ProfiledRun {
    /// Per-site statistics and stack groups.
    pub profile: ApplicationProfile,
    /// Golden (fault-free) outputs, indexed by rank.
    pub outputs: Vec<simmpi::ctx::RankOutput>,
    /// Per-rank logical op counts of the clean run (sends, receives,
    /// collective entries, yield points) — the baseline for the
    /// deterministic op-budget watchdog.
    pub ops: Vec<u64>,
    /// Wall time of the clean run.
    pub wall: Duration,
    /// What every collective call of the clean run returned on every rank:
    /// what a fault trial replays ahead of its injection point instead of
    /// exchanging it again.
    pub log: simmpi::replay::ReplayLog,
}

/// Run one recorded (profiling) execution of `app` and return its profile
/// together with the golden outputs. Panics if the clean run does not
/// complete — a clean run must succeed before any fault injection makes
/// sense.
pub fn profile_app(
    spec: &JobSpec,
    app: AppFn,
) -> (ApplicationProfile, Vec<simmpi::ctx::RankOutput>) {
    let run = profile_app_run(spec, app);
    (run.profile, run.outputs)
}

/// As [`profile_app`], additionally reporting the clean run's per-rank
/// logical op counts and wall time.
pub fn profile_app_run(spec: &JobSpec, app: AppFn) -> ProfiledRun {
    let mut spec = spec.clone();
    spec.record = true;
    spec.hook = None;
    let result = run_job(&spec, app);
    match result.outcome {
        JobOutcome::Completed { outputs } => ProfiledRun {
            profile: ApplicationProfile::new(result.records),
            outputs,
            ops: result.ops,
            wall: result.wall,
            log: result.replay_log.expect("a recorded job returns its log"),
        },
        other => panic!(
            "profiling run must complete cleanly, got {:?} (records from {} ranks)",
            other,
            result.records.len()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::op::ReduceOp;
    use simmpi::prelude::*;
    use std::sync::Arc;

    #[test]
    fn profile_app_records_and_classes() {
        let spec = JobSpec {
            nranks: 6,
            ..Default::default()
        };
        let (profile, outputs) = profile_app(
            &spec,
            Arc::new(|ctx: &mut RankCtx| {
                ctx.set_phase(Phase::Compute);
                ctx.frame("solve", |ctx| {
                    for _ in 0..4 {
                        ctx.allreduce_one(1.0f64, ReduceOp::Sum, ctx.world());
                    }
                    let mut x = [0.0f64; 1];
                    if ctx.rank() == 0 {
                        x[0] = 3.5;
                    }
                    ctx.bcast(&mut x, 0, ctx.world());
                });
                RankOutput::new()
            }),
        );
        assert_eq!(outputs.len(), 6);
        assert_eq!(profile.nranks, 6);
        assert_eq!(profile.sites().len(), 2);
        // The bcast root (rank 0) differs from everyone else; allreduce is
        // symmetric. So: {0}, {1..5}.
        let classes = rank_classes(&profile);
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0], vec![0]);
        assert_eq!(classes[1], vec![1, 2, 3, 4, 5]);
        let report = communication_report(&profile);
        assert!(report.contains("MPI_Bcast"));
    }

    #[test]
    fn profiled_run_reports_op_baseline() {
        let spec = JobSpec {
            nranks: 4,
            ..Default::default()
        };
        let run = profile_app_run(
            &spec,
            Arc::new(|ctx: &mut RankCtx| {
                ctx.allreduce_one(1.0f64, ReduceOp::Sum, ctx.world());
                RankOutput::new()
            }),
        );
        assert_eq!(run.ops.len(), 4);
        assert!(
            run.ops.iter().all(|&o| o > 0),
            "every rank's collective traffic is accounted: {:?}",
            run.ops
        );
    }
}
