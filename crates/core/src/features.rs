//! Application-feature extraction (§III-C).
//!
//! Six features feed the prediction model: `Type`, `Phase`, `ErrHal`,
//! `nInv`, `StackDep`, `nDiffStack`. For Table IV the phase and
//! error-handling features are expanded one-hot, matching the paper's
//! column set (Init/Input/Compute/End, ErrHdl/Non-ErrHdl, nInv,
//! nDiffGraph, StackDepth).

use crate::space::InjectionPoint;
use mpiprof::{ApplicationProfile, SiteStats};
use simmpi::hook::{CallSite, ALL_COLL_KINDS};
use std::collections::HashMap;

/// Names of the six model features, in vector order.
pub const FEATURE_NAMES: [&str; 6] = ["Type", "Phase", "ErrHdl", "nInv", "StackDep", "nDiffStack"];

/// Names of the expanded Table IV columns.
pub const TABLE4_COLUMNS: [&str; 9] = [
    "Init Phase",
    "Input Phase",
    "Compute Phase",
    "End Phase",
    "ErrHdl",
    "Non-ErrHdl",
    "nInv",
    "nDiffGraph",
    "StackDepth",
];

/// Per-(rank, site) feature lookup built once from a profile.
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    stats: HashMap<(usize, CallSite), SiteStats>,
}

impl FeatureExtractor {
    /// Build the lookup for every rank of the profile.
    pub fn new(profile: &ApplicationProfile) -> Self {
        let mut stats = HashMap::new();
        for rank in 0..profile.nranks {
            for st in profile.site_stats(rank) {
                stats.insert((rank, st.site), st);
            }
        }
        FeatureExtractor { stats }
    }

    /// Site statistics backing a point's features.
    pub fn stats_for(&self, point: &InjectionPoint) -> Option<&SiteStats> {
        self.stats.get(&(point.rank, point.site))
    }

    /// The six-feature vector for an injection point.
    pub fn features(&self, point: &InjectionPoint) -> Vec<f64> {
        let st = self
            .stats_for(point)
            .unwrap_or_else(|| panic!("no profile stats for {:?}", point.site));
        let type_idx = ALL_COLL_KINDS
            .iter()
            .position(|k| *k == st.kind)
            .unwrap_or(0) as f64;
        vec![
            type_idx,
            st.phase.index() as f64,
            f64::from(st.errhdl),
            st.n_inv as f64,
            st.avg_stack_depth,
            st.n_diff_stacks as f64,
        ]
    }

    /// The expanded Table IV feature vector (one-hot phases and
    /// error-handling, then the numeric features).
    pub fn table4_features(&self, point: &InjectionPoint) -> Vec<f64> {
        let st = self
            .stats_for(point)
            .unwrap_or_else(|| panic!("no profile stats for {:?}", point.site));
        let mut v = vec![0.0; 4];
        v[st.phase.index()] = 1.0;
        v.push(f64::from(st.errhdl));
        v.push(f64::from(!st.errhdl));
        v.push(st.n_inv as f64);
        v.push(st.n_diff_stacks as f64);
        v.push(st.avg_stack_depth);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::hook::{CollKind, ParamId};
    use simmpi::record::{CallRecord, Phase};

    fn profile() -> ApplicationProfile {
        let rec = |inv: u64, errhdl: bool| CallRecord {
            site: CallSite {
                file: "a.rs",
                line: 3,
            },
            kind: CollKind::Allreduce,
            invocation: inv,
            comm_code: 1,
            seq: 0,
            comm_size: 2,
            count: 2,
            root: 0,
            is_root: false,
            phase: Phase::Compute,
            errhdl,
            stack: vec!["main", "f"],
            bytes: 16,
        };
        ApplicationProfile::new(vec![vec![rec(0, false), rec(1, true)], vec![]])
    }

    fn point() -> InjectionPoint {
        InjectionPoint {
            site: CallSite {
                file: "a.rs",
                line: 3,
            },
            kind: CollKind::Allreduce,
            rank: 0,
            invocation: 0,
            param: ParamId::SendBuf,
        }
    }

    #[test]
    fn six_features_in_order() {
        let fx = FeatureExtractor::new(&profile());
        let f = fx.features(&point());
        assert_eq!(f.len(), FEATURE_NAMES.len());
        assert_eq!(f[0], 3.0, "Allreduce is kind index 3");
        assert_eq!(f[1], Phase::Compute.index() as f64);
        assert_eq!(f[2], 1.0, "any errhdl invocation marks the site");
        assert_eq!(f[3], 2.0, "two invocations");
        assert_eq!(f[4], 2.0, "stack depth main/f");
        assert_eq!(f[5], 1.0, "one distinct stack");
    }

    #[test]
    fn table4_one_hot() {
        let fx = FeatureExtractor::new(&profile());
        let f = fx.table4_features(&point());
        assert_eq!(f.len(), TABLE4_COLUMNS.len());
        assert_eq!(&f[..4], &[0.0, 0.0, 1.0, 0.0], "compute phase one-hot");
        assert_eq!(f[4], 1.0);
        assert_eq!(f[5], 0.0);
    }

    #[test]
    #[should_panic(expected = "no profile stats")]
    fn unknown_site_panics() {
        let fx = FeatureExtractor::new(&profile());
        let mut p = point();
        p.rank = 1; // rank 1 has no records
        let _ = fx.features(&p);
    }
}
