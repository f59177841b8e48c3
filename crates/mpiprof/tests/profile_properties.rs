//! Property-based tests of the profiling substrate over synthetic and
//! recorded call histories.

use mpiprof::{rank_classes, rank_signature, ApplicationProfile};
use proptest::prelude::*;
use simmpi::hook::{CallSite, ALL_COLL_KINDS};
use simmpi::record::{CallRecord, ALL_PHASES};

/// Synthesize a record from small integers (so proptest can shrink).
fn rec(
    site_line: u32,
    kind_idx: usize,
    inv: u64,
    stack_idx: usize,
    phase_idx: usize,
) -> CallRecord {
    const STACKS: [&[&str]; 4] = [
        &["main"],
        &["main", "solve"],
        &["main", "solve", "norm"],
        &["main", "io"],
    ];
    CallRecord {
        site: CallSite {
            file: "app.rs",
            line: 1 + site_line % 5,
        },
        kind: ALL_COLL_KINDS[kind_idx % ALL_COLL_KINDS.len()],
        invocation: inv,
        comm_code: 1,
        seq: 0,
        comm_size: 4,
        count: 2,
        root: 0,
        is_root: false,
        phase: ALL_PHASES[phase_idx % ALL_PHASES.len()],
        errhdl: false,
        stack: STACKS[stack_idx % STACKS.len()].to_vec(),
        bytes: 16,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Stack groups partition the invocations of a site: every invocation
    /// appears in exactly one group, and representatives are group minima.
    #[test]
    fn stack_groups_partition(events in proptest::collection::vec((0u32..5, 0usize..12, 0usize..4, 0usize..4), 0..40)) {
        // Re-index invocations per site, as the runtime does.
        let mut inv_counter = std::collections::HashMap::new();
        let records: Vec<CallRecord> = events
            .iter()
            .map(|&(line, kind, stack, phase)| {
                let site_key = 1 + line % 5;
                let c = inv_counter.entry(site_key).or_insert(0u64);
                let inv = *c;
                *c += 1;
                rec(line, kind, inv, stack, phase)
            })
            .collect();
        let p = ApplicationProfile::new(vec![records.clone()]);
        for site in p.sites() {
            let site_records = p.site_records(0, site);
            let groups = p.stack_groups(0, site);
            let total: usize = groups.iter().map(|g| g.invocations.len()).sum();
            prop_assert_eq!(total, site_records.len());
            let mut seen = std::collections::HashSet::new();
            for g in &groups {
                prop_assert!(!g.invocations.is_empty());
                prop_assert_eq!(g.representative(), *g.invocations.iter().min().unwrap());
                for &i in &g.invocations {
                    prop_assert!(seen.insert(i), "invocation {} in two groups", i);
                }
            }
        }
    }

    /// Site stats are internally consistent with the raw records.
    #[test]
    fn site_stats_consistent(events in proptest::collection::vec((0u32..5, 0usize..12, 0usize..4, 0usize..4), 1..40)) {
        let mut inv_counter = std::collections::HashMap::new();
        let records: Vec<CallRecord> = events
            .iter()
            .map(|&(line, _kind, stack, phase)| {
                // One kind per site line, as in real code.
                let site_key = 1 + line % 5;
                let c = inv_counter.entry(site_key).or_insert(0u64);
                let inv = *c;
                *c += 1;
                rec(line, site_key as usize, inv, stack, phase)
            })
            .collect();
        let p = ApplicationProfile::new(vec![records.clone()]);
        let total: u64 = p.site_stats(0).iter().map(|s| s.n_inv).sum();
        prop_assert_eq!(total, records.len() as u64);
        for st in p.site_stats(0) {
            let groups = p.stack_groups(0, st.site);
            prop_assert_eq!(st.n_diff_stacks, groups.len());
            prop_assert!(st.avg_stack_depth >= 1.0);
            prop_assert!(st.avg_stack_depth <= 3.0);
        }
        let hist_total: u64 = p.kind_histogram().values().sum();
        prop_assert_eq!(hist_total, p.total_invocations());
    }

    /// Rank equivalence is an equivalence relation over rank histories:
    /// identical histories always land in the same class, and every rank
    /// appears in exactly one class.
    #[test]
    fn rank_classes_partition(nranks in 1usize..8, twist in 0usize..8) {
        let base: Vec<CallRecord> = (0..4).map(|i| rec(1, 3, i, 1, 2)).collect();
        let mut per_rank = vec![base.clone(); nranks];
        // Twist one rank's history (if the index lands in range).
        if twist < nranks {
            per_rank[twist].push(rec(2, 0, 0, 0, 1));
        }
        let p = ApplicationProfile::new(per_rank.clone());
        let classes = rank_classes(&p);
        let mut seen = vec![false; nranks];
        for class in &classes {
            for &r in class {
                prop_assert!(!seen[r]);
                seen[r] = true;
            }
            // All members of a class share the signature.
            let sig = rank_signature(&per_rank[class[0]]);
            for &r in class {
                prop_assert_eq!(rank_signature(&per_rank[r]), sig);
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        if twist < nranks && nranks > 1 {
            prop_assert_eq!(classes.len(), 2);
        }
    }
}
