//! Semantic-driven fault injection (§III-A).
//!
//! Collective semantics say that for rooted collectives the root behaves
//! differently from the non-roots, and all non-roots alike; for non-rooted
//! collectives all participants behave alike. On top of that, two ranks
//! are only merged when their call graphs *and* communication traces match
//! (computed by `mpiprof::rank_classes`) — root roles are part of the
//! trace, so the root/non-root distinction falls out of the same
//! partition. One representative rank per class survives.

use mpiprof::{rank_classes, ApplicationProfile};

/// Result of semantic pruning.
#[derive(Debug, Clone)]
pub struct SemanticPrune {
    /// Equivalence classes (members ascending, ordered by first member).
    pub classes: Vec<Vec<usize>>,
    /// One representative rank per class (the smallest member).
    pub representatives: Vec<usize>,
    /// Total ranks.
    pub nranks: usize,
}

impl SemanticPrune {
    /// Fraction of per-rank injection points removed: `1 - reps/nranks`
    /// (the paper's "MPI" column of Table III).
    pub fn reduction(&self) -> f64 {
        if self.nranks == 0 {
            return 0.0;
        }
        1.0 - self.representatives.len() as f64 / self.nranks as f64
    }

    /// The class a rank belongs to.
    pub fn class_of(&self, rank: usize) -> Option<usize> {
        self.classes.iter().position(|c| c.contains(&rank))
    }
}

/// Partition ranks and pick representatives.
pub fn semantic_prune(profile: &ApplicationProfile) -> SemanticPrune {
    let classes = rank_classes(profile);
    let representatives = classes.iter().map(|c| c[0]).collect();
    SemanticPrune {
        classes,
        representatives,
        nranks: profile.nranks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::hook::{CallSite, CollKind};
    use simmpi::record::{CallRecord, Phase};

    fn rec(kind: CollKind, is_root: bool) -> CallRecord {
        CallRecord {
            site: CallSite {
                file: "a.rs",
                line: 1,
            },
            kind,
            invocation: 0,
            comm_code: 1,
            seq: 0,
            comm_size: 8,
            count: 4,
            root: 0,
            is_root,
            phase: Phase::Compute,
            errhdl: false,
            stack: vec!["main"],
            bytes: 32,
        }
    }

    #[test]
    fn symmetric_app_keeps_one_rep() {
        let recs: Vec<Vec<CallRecord>> = (0..8)
            .map(|_| vec![rec(CollKind::Allreduce, false)])
            .collect();
        let p = ApplicationProfile::new(recs);
        let s = semantic_prune(&p);
        assert_eq!(s.representatives, vec![0]);
        assert!((s.reduction() - 0.875).abs() < 1e-12, "1 - 1/8");
    }

    #[test]
    fn rooted_app_keeps_root_plus_one() {
        let recs: Vec<Vec<CallRecord>> = (0..8)
            .map(|r| vec![rec(CollKind::Reduce, r == 0)])
            .collect();
        let p = ApplicationProfile::new(recs);
        let s = semantic_prune(&p);
        assert_eq!(s.representatives, vec![0, 1], "root + one non-root");
        assert!((s.reduction() - 0.75).abs() < 1e-12);
        assert_eq!(s.class_of(5), Some(1));
        assert_eq!(s.class_of(0), Some(0));
    }

    #[test]
    fn paper_scale_reduction_for_32_ranks() {
        // With 32 symmetric ranks the reduction matches Table III's ~96.9%.
        let recs: Vec<Vec<CallRecord>> = (0..32)
            .map(|_| vec![rec(CollKind::Allreduce, false)])
            .collect();
        let s = semantic_prune(&ApplicationProfile::new(recs));
        assert!((s.reduction() - (1.0 - 1.0 / 32.0)).abs() < 1e-12);
    }
}
