//! The daemon's scenario cost model: predicted trial cost from
//! golden-run op counts.
//!
//! The scenario algebra's `filter` combinator needs a price per
//! scenario *before* anything runs. The honest price comes from the
//! same machinery that will eventually run the campaign: resolve the
//! lowered spec exactly as a submission would be resolved, run the
//! profile phase (`GoldenRun::record` — the golden run), prune it
//! (`Campaign::from_golden`), and read off
//!
//! ```text
//! cost = pruned points × trials per point × golden collective ops
//! ```
//!
//! — the number of collective invocations the measurement phase will
//! drive, which is what wall-clock tracks in this simulator. Two caches
//! keep a sweep cheap. The golden run is cached by what shapes it — the
//! workload, its problem class, rank count, step count and app seed;
//! channel, transport, timeline, params and collective subset never
//! reach the golden job — so a grammar sweeping those over one workload
//! runs it once (the last few runs are kept, not all: a golden run holds
//! a profile and a result log). The price is cached by what shapes the pruned space
//! (the lowered spec minus trials and fault seed): pruning is per member,
//! since params and the collective subset pick the points.

use crate::spec::CampaignSpec;
use crate::workload::{resolve_config, resolve_workload, validate_spec};
use fastfit::prelude::{Campaign, GoldenRun, NullObserver, Workload};
use fastfit_scenario::{ConcreteScenario, CostModel};
use npb::Class;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Cost model backed by real golden runs, with a golden-run cache under
/// a price cache.
#[derive(Debug, Default)]
pub struct GoldenCostModel {
    /// `(pruned points, golden ops per run)` keyed by the spec wire form
    /// minus the knobs that do not shape the pruned space.
    cache: Mutex<HashMap<String, (u64, u64)>>,
    /// The last [`GOLDEN_CACHE_RUNS`] golden runs priced from, keyed by
    /// what shapes them ([`GoldenCostModel::golden_key`]), oldest first.
    golden: Mutex<VecDeque<(String, Arc<GoldenRun>)>>,
}

/// Golden runs the model keeps. Sharing pays within one sweep — its
/// members differ in what they inject, over a handful of (workload,
/// ranks) pairs — and a golden run holds a profile and a result log, so
/// a daemon pricing sweep after sweep must not keep them all.
const GOLDEN_CACHE_RUNS: usize = 4;

impl GoldenCostModel {
    /// A fresh model with an empty profile cache.
    pub fn new() -> GoldenCostModel {
        GoldenCostModel::default()
    }

    /// Cache key: the lowered spec minus `trials` and `seed` — trials
    /// scale cost linearly without changing the space, and the campaign
    /// seed picks fault bits, not points.
    fn key(s: &ConcreteScenario) -> String {
        let mut stripped = s.clone();
        stripped.trials = None;
        stripped.seed = None;
        stripped.to_spec_json().encode()
    }

    /// Everything `resolve_workload` reads: the kernel, the problem class
    /// (NPB kernels take it from the environment), the resolved rank
    /// count, the step count (LAMMPS) and the app seed.
    fn golden_key(spec: &CampaignSpec, workload: &Workload) -> String {
        format!(
            "{}/{:?}/{}/{:?}/{}",
            workload.name,
            Class::from_env(),
            workload.nranks,
            spec.steps,
            workload.seed
        )
    }

    /// The golden run of `workload`: a cached one, or recorded now.
    fn golden_run(&self, spec: &CampaignSpec, workload: &Workload) -> Arc<GoldenRun> {
        let key = GoldenCostModel::golden_key(spec, workload);
        let lock = || self.golden.lock().expect("golden cache lock poisoned");
        let cached = lock()
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, r)| r.clone());
        cached.unwrap_or_else(|| {
            // Outside the lock: pricing other workloads does not wait.
            let run = Arc::new(GoldenRun::record(workload));
            let mut cache = lock();
            if cache.len() == GOLDEN_CACHE_RUNS {
                cache.pop_front();
            }
            cache.push_back((key, run.clone()));
            run
        })
    }
}

impl CostModel for GoldenCostModel {
    fn predicted_cost(&self, s: &ConcreteScenario) -> Result<u64, String> {
        let spec = CampaignSpec::from_json(&s.to_spec_json())
            .map_err(|e| format!("scenario does not lower to a valid spec: {e}"))?;
        validate_spec(&spec)?;
        let cfg = resolve_config(&spec);
        let trials = cfg.trials_per_point as u64;
        let key = GoldenCostModel::key(s);
        if let Some(&(points, ops)) = self
            .cache
            .lock()
            .expect("cost cache lock poisoned")
            .get(&key)
        {
            return Ok(points * trials * ops);
        }
        let workload = resolve_workload(&spec);
        let golden = self.golden_run(&spec, &workload);
        let campaign = Campaign::from_golden(workload, cfg, golden, &NullObserver, None);
        let points = campaign.points().len() as u64;
        let ops: u64 = campaign.golden_ops.iter().sum();
        self.cache
            .lock()
            .expect("cost cache lock poisoned")
            .insert(key, (points, ops));
        Ok(points * trials * ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastfit::prelude::FaultChannel;
    use fastfit_scenario::{Axis, Template};

    #[test]
    fn golden_cost_scales_with_trials_and_caches_profiles() {
        let scenarios = Template::new("t")
            .with_trials(2)
            .with_app_seed(1)
            .plug(Axis::Workloads(vec!["IS".into()]))
            .plug(Axis::Ranks(vec![2]))
            .plug(Axis::Channels(vec![FaultChannel::Param]))
            .enumerate()
            .unwrap();
        let model = GoldenCostModel::new();
        let c2 = model.predicted_cost(&scenarios[0]).unwrap();
        assert!(c2 > 0, "a real campaign has nonzero predicted cost");
        // Double the trials, double the price — and the second call hits
        // the profile cache (same key once trials are stripped).
        let mut s4 = scenarios[0].clone();
        s4.trials = Some(4);
        assert_eq!(model.predicted_cost(&s4).unwrap(), 2 * c2);
        assert_eq!(model.cache.lock().unwrap().len(), 1);
        // Channel and transport shape the price key but not the golden
        // run: a member differing only in them reuses it, and prices the
        // same (the data-buffer points do not depend on either).
        let mut other = scenarios[0].clone();
        other.fault_channel = FaultChannel::Message;
        other.resilient = true;
        assert_eq!(model.predicted_cost(&other).unwrap(), c2);
        assert_eq!(model.cache.lock().unwrap().len(), 2);
        assert_eq!(model.golden.lock().unwrap().len(), 1);
        // Another app seed is another golden run, and the model keeps
        // only the last few.
        for app_seed in 2..8 {
            let mut reseeded = scenarios[0].clone();
            reseeded.app_seed = Some(app_seed);
            model.predicted_cost(&reseeded).unwrap();
        }
        assert_eq!(model.golden.lock().unwrap().len(), GOLDEN_CACHE_RUNS);
        assert_eq!(model.cache.lock().unwrap().len(), 8);
        // An invalid workload is an error, not a price.
        let mut bad = scenarios[0].clone();
        bad.workload = "HPL".into();
        assert!(model.predicted_cost(&bad).is_err());
    }
}
