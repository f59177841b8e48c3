//! # fastfit-bench — experiment harness for the FastFIT reproduction
//!
//! Builders that wire the workload crates (`npb`, `minimd`) into
//! [`fastfit::campaign::Workload`]s with the right rank counts and
//! comparison tolerances, shared by the `experiments` binary (which
//! regenerates every table and figure of the paper) and the criterion
//! benches.
//!
//! Scale knobs (all environment variables):
//! - `FASTFIT_RANKS` — simulated ranks per job (default 16; paper: 32)
//! - `FASTFIT_TRIALS` — fault-injection tests per point (default 24;
//!   paper: ≥ 100)
//! - `FASTFIT_CLASS` — `mini` / `small` / `standard` problem sizes
//! - `FASTFIT_TIMEOUT_MULT` — the wall-clock backstop is the golden run's
//!   wall time × this (default 30; the variable replaces the default, so
//!   raise it above 30 on loaded/slow machines; hang classification
//!   itself is logical, so results do not change)
//! - `FASTFIT_MAX_RETRIES` — retries for infrastructure-suspect trials
//!   before quarantine (default 2)

pub mod bench;

use fastfit::prelude::*;
use minimd::{md_app, MdConfig};
use npb::{kernel_by_name, Class};

/// Build one of the NPB workloads at the environment's class and rank
/// count ([`default_ranks`]: the kernels' divisibility constraints
/// applied to `FASTFIT_RANKS`).
pub fn npb_workload(name: &str) -> Workload {
    let class = Class::from_env();
    let (app, tol) = kernel_by_name(name, class);
    Workload::new(name, app, tol, default_ranks())
}

/// Build the LAMMPS-analog workload. `steps` tunes the run length (more
/// steps = more invocations per call site, which Figure 3 needs).
pub fn lammps_workload(steps: usize) -> Workload {
    let app = md_app(MdConfig {
        steps,
        ..Default::default()
    });
    Workload::new("LAMMPS", app, minimd::OUTPUT_TOLERANCE, default_ranks())
}

/// The campaign configuration used by the experiments (trials from
/// `FASTFIT_TRIALS`).
pub fn experiment_campaign_config(params: ParamsMode) -> CampaignConfig {
    let mut cfg = CampaignConfig::from_env();
    cfg.params = params;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_builders_resolve() {
        for k in npb::KERNELS {
            let w = npb_workload(k);
            assert_eq!(w.name, k);
            assert!(w.nranks >= 2);
        }
        let l = lammps_workload(6);
        assert_eq!(l.name, "LAMMPS");
        assert!(l.tolerance > 0.0);
    }
}
