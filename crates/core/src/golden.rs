//! The golden artefact: everything the profiling phase yields, in one
//! piece that campaigns over the same application can share.
//!
//! One clean recorded run of a workload is shaped by the application, its
//! rank count and its seed — nothing in [`CampaignConfig`] reaches it — so
//! campaigns that differ only in what they inject (channel, transport,
//! timeline, parameters, collective subset, trials, fault seed) can prune
//! from, and replay the prefix of, the same [`GoldenRun`].
//!
//! [`CampaignConfig`]: crate::campaign::CampaignConfig

use crate::campaign::Workload;
use crate::space::InjectionPoint;
use mpiprof::{profile_app_run, ApplicationProfile};
use simmpi::ctx::RankOutput;
use simmpi::replay::ReplayLog;
use simmpi::runtime::JobSpec;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one profiling run of a workload yielded.
#[derive(Debug)]
pub struct GoldenRun {
    /// The profiling-phase output.
    pub profile: ApplicationProfile,
    /// Golden (fault-free) outputs.
    pub golden: Vec<RankOutput>,
    /// Per-rank logical op counts of the golden run — the baseline the
    /// deterministic op budget is derived from.
    pub golden_ops: Vec<u64>,
    /// Wall time of the golden run.
    pub wall: Duration,
    /// What every collective call of the golden run returned on every
    /// rank: the prefix a trial replays instead of exchanging it again.
    pub log: Arc<ReplayLog>,
}

impl GoldenRun {
    /// The profiling phase: one clean recorded run of `workload`.
    pub fn record(workload: &Workload) -> GoldenRun {
        let spec = JobSpec {
            nranks: workload.nranks,
            seed: workload.seed,
            timeout: Duration::from_secs(60),
            record: true,
            hook: None,
            ..Default::default()
        };
        let t0 = Instant::now();
        let run = profile_app_run(&spec, workload.app.clone());
        GoldenRun {
            profile: run.profile,
            golden: run.outputs,
            golden_ops: run.ops,
            log: Arc::new(run.log),
            wall: t0.elapsed(),
        }
    }

    /// The `(communicator code, sequence number)` the golden run issued
    /// `point`'s call under on `point.rank`: the anchor every fault event
    /// of a trial at `point` fires at or after. `None` for a point the
    /// golden run never reached.
    pub fn anchor(&self, point: &InjectionPoint) -> Option<(u32, u64)> {
        self.profile
            .records
            .get(point.rank)?
            .iter()
            .find(|r| r.site == point.site && r.invocation == point.invocation)
            .map(|r| (r.comm_code, r.seq))
    }
}
