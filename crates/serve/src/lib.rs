//! fastfit-serve — the FastFIT campaign service.
//!
//! A pure-`std` daemon (run as `fastfit-cli serve`) that accepts campaign
//! submissions over a minimal HTTP/1.1 control plane, schedules up to K
//! campaigns concurrently under a global worker budget, shares worker
//! [`ArenaPool`]s between campaigns of the same rank count, and journals
//! every submission durably so `kill -9` + restart resumes both the
//! queue and each campaign's trial-level progress.
//!
//! The load-bearing property is determinism: a campaign run through the
//! daemon journals **byte-identically** to the same campaign run locally
//! with `fastfit-cli campaign`. Scheduling affects *when* a campaign
//! runs, never *what* it measures — every door pins a [`CampaignSpec`]
//! against its environment once and resolves it through the one resolver
//! ([`workload`]), and per-trial fault selection is seeded per point, not
//! per schedule.
//!
//! Module map:
//!
//! - [`http`] — hand-rolled HTTP/1.1 reader/writer + tiny client.
//! - [`spec`] — the campaign description (`POST /campaigns` body).
//! - [`workload`] — the environment's one reader (`pin_spec`), spec →
//!   `Workload`/`CampaignConfig` resolution, warm starts and round-model
//!   registration.
//! - [`run`] — the one campaign runner: a prepared campaign and its spec
//!   to a journaled result and `results.csv` (daemon runners, the CLI,
//!   `experiments`).
//! - [`queue`] — the durable submission queue (`queue.jsonl`); the
//!   daemon and the fleet apply each of its events through one function,
//!   at restart and at runtime alike.
//! - `golden` — the golden store: one golden run per golden key and its
//!   pruning, shared by a daemon's pricer, runners and fleet coordinator
//!   (a fleet worker has its own).
//! - [`cost`] — golden-run cost model for scenario `max_cost` filters.
//! - [`daemon`] — scheduler, runners, and the HTTP route table
//!   (including `POST /scenarios` batch expansion).
//! - [`fleet`] — coordinator mode: worker registry, trial-range leases
//!   with heartbeats, and the deterministic segment merge.
//! - [`worker`] — the fleet worker loop (lease → execute → upload).
//! - [`signal`] — SIGINT/SIGTERM → cooperative cancellation.
//!
//! [`ArenaPool`]: simmpi::arena::ArenaPool

pub mod cost;
pub mod daemon;
pub mod fleet;
mod golden;
pub mod http;
pub mod queue;
pub mod run;
pub mod signal;
pub mod spec;
pub mod worker;
pub mod workload;

pub use cost::GoldenCostModel;
pub use daemon::{start, DaemonHandle, ServeConfig, DEFAULT_ADDR};
pub use http::{http_request, http_request_retry, HttpLimits, Response};
pub use queue::{read_queue, QueueEvent, QueueLog};
pub use run::{CampaignRun, Ran, RESULTS_FILE};
pub use spec::{CampaignSpec, PointSet};
pub use worker::{run_worker, WorkerConfig};
pub use workload::{
    campaign_identity, pin_spec, resolve_config, resolve_ml, resolve_workload, validate_spec,
};
