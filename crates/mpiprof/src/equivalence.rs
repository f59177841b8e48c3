//! Rank-equivalence analysis (§III-A, second half).
//!
//! Two MPI processes are treated as equivalent when they have the same
//! call graph *and* the same communication trace (sequence of collective
//! calls with sites, kinds, communicators, payload sizes and root roles).
//! One representative per equivalence class is enough for fault injection.

use crate::callgraph::CallGraph;
use crate::profile::ApplicationProfile;
use simmpi::record::CallRecord;
use std::collections::BTreeMap;

/// Fingerprint of one rank's communication trace.
fn trace_fingerprint(records: &[CallRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix_u64 = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for r in records {
        mix_u64(r.site.line as u64);
        mix_u64(r.site.file.len() as u64);
        mix_u64(r.kind as u64);
        mix_u64(r.comm_code as u64);
        // Payload sizes are compared at order-of-magnitude granularity:
        // data-dependent jitter (e.g. uneven sort buckets) does not make
        // two SPMD ranks behaviourally different, only a structurally
        // different volume does.
        mix_u64(64 - (r.bytes as u64).leading_zeros() as u64);
        mix_u64(r.is_root as u64);
        mix_u64(r.stack_hash());
        mix_u64(r.phase.index() as u64);
        mix_u64(r.errhdl as u64);
    }
    h
}

/// The combined (call-graph, trace) signature used for equivalence.
pub fn rank_signature(records: &[CallRecord]) -> (u64, u64) {
    (
        CallGraph::from_records(records).fingerprint(),
        trace_fingerprint(records),
    )
}

/// Partition the ranks of a profiled run into equivalence classes. Each
/// class lists its member ranks ascending; classes are ordered by their
/// smallest member. The first member of each class is its representative.
pub fn rank_classes(profile: &ApplicationProfile) -> Vec<Vec<usize>> {
    let mut by_sig: BTreeMap<(u64, u64), Vec<usize>> = BTreeMap::new();
    for (rank, records) in profile.records.iter().enumerate() {
        by_sig
            .entry(rank_signature(records))
            .or_default()
            .push(rank);
    }
    let mut classes: Vec<Vec<usize>> = by_sig.into_values().collect();
    classes.sort_by_key(|c| c[0]);
    classes
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::hook::{CallSite, CollKind};
    use simmpi::record::Phase;

    fn rec(line: u32, kind: CollKind, is_root: bool, bytes: usize) -> CallRecord {
        CallRecord {
            site: CallSite {
                file: "app.rs",
                line,
            },
            kind,
            invocation: 0,
            comm_code: 1,
            seq: 0,
            comm_size: 4,
            count: 1,
            root: 0,
            is_root,
            phase: Phase::Compute,
            errhdl: false,
            stack: vec!["main", "solve"],
            bytes,
        }
    }

    #[test]
    fn identical_ranks_collapse_to_one_class() {
        let recs = vec![rec(1, CollKind::Allreduce, false, 8)];
        let p = ApplicationProfile::new(vec![recs.clone(), recs.clone(), recs]);
        let classes = rank_classes(&p);
        assert_eq!(classes, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn root_role_separates_ranks() {
        // Rank 0 is the root of a reduce; 1..3 are not.
        let mk = |is_root| vec![rec(5, CollKind::Reduce, is_root, 8)];
        let p = ApplicationProfile::new(vec![mk(true), mk(false), mk(false), mk(false)]);
        let classes = rank_classes(&p);
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0], vec![0]);
        assert_eq!(classes[1], vec![1, 2, 3]);
    }

    #[test]
    fn different_payloads_separate_ranks() {
        let p = ApplicationProfile::new(vec![
            vec![rec(1, CollKind::Allgather, false, 8)],
            vec![rec(1, CollKind::Allgather, false, 16)],
        ]);
        assert_eq!(rank_classes(&p).len(), 2);
    }

    #[test]
    fn trace_order_matters() {
        let a = vec![
            rec(1, CollKind::Barrier, false, 0),
            rec(2, CollKind::Allreduce, false, 8),
        ];
        let b = vec![
            rec(2, CollKind::Allreduce, false, 8),
            rec(1, CollKind::Barrier, false, 0),
        ];
        assert_ne!(rank_signature(&a), rank_signature(&b));
    }
}
