//! # simmpi — a simulated MPI runtime
//!
//! This crate stands in for the MPI library + PMPI interposition layer that
//! the FastFIT paper instruments on a real supercomputer. It provides:
//!
//! - **Ranks as coroutines** on the calling thread ([`sched`]; rank
//!   threads where the stack switch is not implemented) over a
//!   channel-based [`transport::Fabric`];
//! - **Collectives** ([`coll`]) implemented with the classic deterministic
//!   algorithms (binomial trees, recursive doubling, ring, pairwise
//!   exchange, dissemination barrier, linear scans), size-tuned variants
//!   (Rabenseifner allreduce, van de Geijn scatter+allgather broadcast)
//!   selected automatically, and the v-variants (Alltoallv, Scatterv,
//!   Gatherv, Allgatherv);
//! - **MPI-style validation** of opaque handles and counts with the
//!   `MPI_ERRORS_ARE_FATAL` semantics (`error`, `datatype`, `op`, `comm`);
//! - **A PMPI-like interposition hook** ([`hook`]) that sees the raw,
//!   corruptible call descriptor before validation — the seam where the
//!   fault injector sits;
//! - **A page-granular memory model** for out-of-bounds effects of
//!   corrupted counts (reads within a page succeed and return garbage,
//!   anything further is a simulated segmentation fault);
//! - **A supervised job runner** ([`arena`], [`runtime`]) with one
//!   watchdog for both engines that turns deadlocks into clean
//!   `INF_LOOP`-style outcomes and maps rank panics onto the paper's
//!   response taxonomy;
//! - **Call recording** ([`record`]) with phases, error-handling flags and
//!   annotated call stacks — the data source for the profiling substrate —
//!   and of every call's *result* ([`replay`]), which a fault trial returns
//!   for the collectives ahead of its injection point instead of
//!   exchanging them again — and is compared with again past it, where the
//!   fabric's open set ([`transport`]) ends a trial the moment nothing
//!   carries its fault any more.
//!
//! ## Quick example
//!
//! ```
//! use simmpi::prelude::*;
//! use std::sync::Arc;
//!
//! let spec = JobSpec { nranks: 4, ..Default::default() };
//! let result = run_job(&spec, Arc::new(|ctx: &mut RankCtx| {
//!     let sum = ctx.allreduce_one(ctx.rank() as f64, ReduceOp::Sum, ctx.world());
//!     let mut out = RankOutput::new();
//!     out.push("sum", sum);
//!     out
//! }));
//! match result.outcome {
//!     JobOutcome::Completed { outputs } => assert_eq!(outputs[0].scalars[0].1, 6.0),
//!     other => panic!("{other:?}"),
//! }
//! ```

pub mod arena;
pub mod coll;
pub mod comm;
pub mod control;
pub mod ctx;
pub mod datatype;
pub mod error;
pub mod hook;
pub mod op;
pub mod record;
pub mod replay;
pub mod runtime;
pub mod sched;
pub mod transport;

/// Convenient re-exports for application code.
pub mod prelude {
    pub use crate::arena::{ArenaPool, JobArena};
    pub use crate::comm::{CommHandle, WORLD};
    pub use crate::control::{DetectedBy, FatalKind};
    pub use crate::ctx::{RankCtx, RankOutput};
    pub use crate::datatype::{Complex64, Datatype, MpiType};
    pub use crate::error::MpiError;
    pub use crate::hook::{CallSite, CollCall, CollHook, CollKind, CollParams, ParamId};
    pub use crate::op::ReduceOp;
    pub use crate::record::{CallRecord, Phase};
    pub use crate::runtime::{run_job, AppFn, JobOutcome, JobResult, JobSpec};
    pub use crate::transport::{MsgFaultKind, MsgFaultPlan, TransportStats};
}
