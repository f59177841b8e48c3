//! Application-context-driven fault injection (§III-B).
//!
//! Invocations of the same call site that share the same call stack
//! respond alike (the paper's Figure 3 shows their error rates clustering
//! in a narrow Gaussian), so one representative invocation per distinct
//! stack suffices.

use crate::prune::semantic::SemanticPrune;
use crate::space::{InjectionPoint, ParamsMode};
use mpiprof::ApplicationProfile;

/// Result of context pruning for a set of representative ranks.
#[derive(Debug, Clone)]
pub struct ContextPrune {
    /// The surviving injection points (one invocation per distinct stack,
    /// per site, per representative rank, per parameter).
    pub points: Vec<InjectionPoint>,
    /// Invocation-level points before context pruning (representative
    /// ranks only): sites × invocations × params.
    pub before: u64,
    /// How many invocations each surviving point stands for (aligned with
    /// `points`).
    pub group_sizes: Vec<u64>,
}

impl ContextPrune {
    /// Fraction of invocation-level points removed (the paper's "App"
    /// column of Table III; 87.6% for LAMMPS, 40% for LU).
    pub fn reduction(&self) -> f64 {
        if self.before == 0 {
            return 0.0;
        }
        1.0 - self.points.len() as f64 / self.before as f64
    }
}

/// Keep one representative invocation per distinct call stack, for every
/// site on every representative rank.
pub fn context_prune(
    profile: &ApplicationProfile,
    semantic: &SemanticPrune,
    mode: &ParamsMode,
) -> ContextPrune {
    let mut points = Vec::new();
    let mut group_sizes = Vec::new();
    let mut before = 0u64;
    for &rank in &semantic.representatives {
        for st in profile.site_stats(rank) {
            let params = mode.params_for(st.kind);
            before += st.n_inv * params.len() as u64;
            for group in profile.stack_groups(rank, st.site) {
                for &param in &params {
                    points.push(InjectionPoint {
                        site: st.site,
                        kind: st.kind,
                        rank,
                        invocation: group.representative(),
                        param,
                    });
                    group_sizes.push(group.invocations.len() as u64);
                }
            }
        }
    }
    ContextPrune {
        points,
        before,
        group_sizes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::semantic::semantic_prune;
    use simmpi::hook::{CallSite, CollKind};
    use simmpi::record::{CallRecord, Phase};

    fn rec(inv: u64, stack: Vec<&'static str>) -> CallRecord {
        CallRecord {
            site: CallSite {
                file: "a.rs",
                line: 1,
            },
            kind: CollKind::Allreduce,
            invocation: inv,
            comm_code: 1,
            seq: 0,
            comm_size: 4,
            count: 2,
            root: 0,
            is_root: false,
            phase: Phase::Compute,
            errhdl: false,
            stack,
            bytes: 16,
        }
    }

    #[test]
    fn one_point_per_distinct_stack() {
        // 10 invocations, 2 distinct stacks -> 2 surviving points, 80%.
        let mk = || -> Vec<CallRecord> {
            (0..10)
                .map(|i| {
                    let stack = if i % 5 == 0 {
                        vec!["main", "setup"]
                    } else {
                        vec!["main", "loop"]
                    };
                    rec(i, stack)
                })
                .collect()
        };
        let p = ApplicationProfile::new(vec![mk(), mk(), mk(), mk()]);
        let s = semantic_prune(&p);
        assert_eq!(s.representatives, vec![0]);
        let c = context_prune(&p, &s, &ParamsMode::DataBuffer);
        assert_eq!(c.points.len(), 2);
        assert_eq!(c.before, 10);
        assert!((c.reduction() - 0.8).abs() < 1e-12);
        // Representatives are the first invocation of each group.
        let invs: Vec<u64> = c.points.iter().map(|p| p.invocation).collect();
        assert_eq!(invs, vec![0, 1]);
        assert_eq!(c.group_sizes, vec![2, 8]);
    }

    #[test]
    fn single_stack_keeps_one() {
        let mk = || -> Vec<CallRecord> { (0..7).map(|i| rec(i, vec!["main"])).collect() };
        let p = ApplicationProfile::new(vec![mk(), mk()]);
        let s = semantic_prune(&p);
        let c = context_prune(&p, &s, &ParamsMode::DataBuffer);
        assert_eq!(c.points.len(), 1);
        assert!((c.reduction() - (1.0 - 1.0 / 7.0)).abs() < 1e-12);
    }

    #[test]
    fn all_params_multiplies_points() {
        let mk = || -> Vec<CallRecord> { (0..3).map(|i| rec(i, vec!["main"])).collect() };
        let p = ApplicationProfile::new(vec![mk()]);
        let s = semantic_prune(&p);
        let c = context_prune(&p, &s, &ParamsMode::All);
        // 1 group × 6 allreduce params.
        assert_eq!(c.points.len(), 6);
        assert_eq!(c.before, 18);
    }
}
