//! # fastfit — Fast Fault Injection and Sensitivity Analysis for
//! Collective Communications
//!
//! A reproduction of the FastFIT tool (Feng, Gorentla Venkata, Li, Sun —
//! IEEE CLUSTER 2015) over a simulated MPI runtime. FastFIT studies how
//! applications respond to faulty collective communications while pruning
//! the enormous fault-injection space with three techniques:
//!
//! 1. **Semantic-driven** ([`prune::semantic`]) — collective role semantics
//!    plus call-graph/trace rank equivalence keep one representative rank
//!    per equivalence class.
//! 2. **Application-context-driven** ([`prune::context`]) — one
//!    representative invocation per distinct call stack at each site.
//! 3. **ML-driven** ([`prune::ml`]) — a random forest trained in a
//!    feedback loop predicts the sensitivity of untested points once its
//!    held-out accuracy passes a user threshold.
//!
//! The fault model ([`fault`]) is one bit flip in one input parameter of
//! one collective invocation; responses ([`response`]) are classified into
//! the paper's six types. [`campaign`] orchestrates the profiling,
//! injection and learning phases, and [`report`] aggregates the results
//! into the tables and figures of the paper's evaluation.
//!
//! ## Quickstart
//!
//! ```no_run
//! use fastfit::prelude::*;
//! use std::sync::Arc;
//! use simmpi::op::ReduceOp;
//!
//! // Any function of a RankCtx is a workload.
//! let app: simmpi::runtime::AppFn = Arc::new(|ctx| {
//!     let sum = ctx.allreduce_one(1.0f64, ReduceOp::Sum, ctx.world());
//!     let mut out = simmpi::ctx::RankOutput::new();
//!     out.push("sum", sum);
//!     out
//! });
//! let workload = Workload::new("demo", app, 1e-12, 8);
//! let campaign = Campaign::prepare(workload, CampaignConfig::default());
//! println!("{} points survive of {}", campaign.points().len(), campaign.full_points);
//! let result = campaign.run_all();
//! println!("error rate: {:.1}%", 100.0 * result.aggregate().error_rate());
//! ```

pub mod campaign;
pub mod export;
pub mod fault;
pub mod features;
pub mod golden;
pub mod observe;
pub mod prune;
pub mod report;
pub mod response;
pub mod space;
pub mod supervise;
pub mod timeline;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::campaign::{
        Campaign, CampaignConfig, CampaignResult, CancelToken, PointResult, Pruned, ReplayStats,
        TrialOutcome, Workload, DEFAULT_APP_SEED,
    };
    pub use crate::export::{histograms_csv, maybe_write, points_csv, series_csv};
    pub use crate::fault::{FaultSpec, InjectorHook};
    pub use crate::features::{FeatureExtractor, FEATURE_NAMES, TABLE4_COLUMNS};
    pub use crate::golden::GoldenRun;
    pub use crate::observe::{
        point_key, CampaignObserver, CampaignPhase, NullObserver, ProgressEvent,
    };
    pub use crate::prune::{
        context_prune, ml_driven, ml_driven_active, semantic_prune, ActiveOptions, ContextPrune,
        MlConfig, MlOrdering, MlOutcome, MlRound, MlTarget, SemanticPrune,
    };
    pub use crate::report::{
        correlation_table, per_kind_histograms, per_kind_levels, per_param_histograms,
        render_histogram_table, render_level_table, render_table3, render_table4, Table3Row,
    };
    pub use crate::response::{
        classify, level_15_85, trials_for_half_width, wilson_95, wilson_interval, Levels, Response,
        ResponseHistogram, ALL_RESPONSES,
    };
    pub use crate::space::{
        full_space, full_space_count, FaultChannel, InjectionPoint, ParamsMode, ALL_FAULT_CHANNELS,
    };
    pub use crate::supervise::{QuarantineReason, SupervisedTrial, TrialDisposition};
    pub use crate::timeline::{FaultTimeline, TimelineEvent};
}
