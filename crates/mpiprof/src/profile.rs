//! The application profile: everything FastFIT's profiling phase needs,
//! aggregated from the per-rank call records of one recorded run.

use simmpi::hook::{CallSite, CollKind};
use simmpi::record::{CallRecord, Phase};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Per-site statistics on one rank — the raw material for the paper's ML
/// features (`Type`, `Phase`, `ErrHal`, `nInv`, `StackDep`, `nDiffStack`).
#[derive(Debug, Clone)]
pub struct SiteStats {
    /// Call site.
    pub site: CallSite,
    /// Collective type at this site.
    pub kind: CollKind,
    /// Number of invocations on this rank (`nInv`).
    pub n_inv: u64,
    /// Mean annotated call-stack depth across invocations (`StackDep`).
    pub avg_stack_depth: f64,
    /// Number of distinct call stacks across invocations (`nDiffStack`).
    pub n_diff_stacks: usize,
    /// Whether any invocation ran inside error-handling code (`ErrHal`).
    pub errhdl: bool,
    /// Most common phase across invocations (`Phase`).
    pub phase: Phase,
    /// Communicator code used (most common).
    pub comm_code: u32,
    /// Size of that communicator.
    pub comm_size: usize,
    /// Whether this rank is the root of the rooted collective here.
    pub is_root: bool,
    /// Mean payload bytes per invocation.
    pub avg_bytes: f64,
}

/// A group of invocations of one site that share a call stack — the unit of
/// the paper's application-context pruning (§III-B).
#[derive(Debug, Clone)]
pub struct StackGroup {
    /// Stack hash.
    pub hash: u64,
    /// The shared stack (outermost first).
    pub stack: Vec<&'static str>,
    /// Invocation indices in this group, ascending.
    pub invocations: Vec<u64>,
}

impl StackGroup {
    /// The representative invocation for the group (the first).
    pub fn representative(&self) -> u64 {
        self.invocations[0]
    }
}

/// The profile of one recorded application run.
#[derive(Debug, Clone)]
pub struct ApplicationProfile {
    /// Number of ranks in the recorded job.
    pub nranks: usize,
    /// Raw per-rank call records.
    pub records: Vec<Vec<CallRecord>>,
}

impl ApplicationProfile {
    /// Build a profile from the records a recorded job produced.
    pub fn new(records: Vec<Vec<CallRecord>>) -> Self {
        ApplicationProfile {
            nranks: records.len(),
            records,
        }
    }

    /// All call sites observed anywhere, sorted.
    pub fn sites(&self) -> Vec<CallSite> {
        let mut set: HashSet<CallSite> = HashSet::new();
        for rank in &self.records {
            for r in rank {
                set.insert(r.site);
            }
        }
        let mut v: Vec<CallSite> = set.into_iter().collect();
        v.sort();
        v
    }

    /// Records of one site on one rank, in invocation order.
    pub fn site_records(&self, rank: usize, site: CallSite) -> Vec<&CallRecord> {
        self.records
            .get(rank)
            .map(|rs| rs.iter().filter(|r| r.site == site).collect())
            .unwrap_or_default()
    }

    /// Per-site statistics on one rank, sorted by site.
    pub fn site_stats(&self, rank: usize) -> Vec<SiteStats> {
        let mut by_site: BTreeMap<CallSite, Vec<&CallRecord>> = BTreeMap::new();
        if let Some(rs) = self.records.get(rank) {
            for r in rs {
                by_site.entry(r.site).or_default().push(r);
            }
        }
        by_site
            .into_iter()
            .map(|(site, recs)| {
                let n = recs.len() as f64;
                let mut phases: HashMap<Phase, usize> = HashMap::new();
                let mut stacks: HashSet<u64> = HashSet::new();
                let mut depth_sum = 0.0;
                let mut bytes_sum = 0.0;
                let mut errhdl = false;
                let mut is_root = false;
                for r in &recs {
                    *phases.entry(r.phase).or_default() += 1;
                    stacks.insert(r.stack_hash());
                    depth_sum += r.stack.len() as f64;
                    bytes_sum += r.bytes as f64;
                    errhdl |= r.errhdl;
                    is_root |= r.is_root;
                }
                let phase = phases
                    .into_iter()
                    .max_by_key(|(p, c)| (*c, p.index()))
                    .map(|(p, _)| p)
                    .unwrap_or(Phase::Compute);
                let first = recs[0];
                SiteStats {
                    site,
                    kind: first.kind,
                    n_inv: recs.len() as u64,
                    avg_stack_depth: depth_sum / n,
                    n_diff_stacks: stacks.len(),
                    errhdl,
                    phase,
                    comm_code: first.comm_code,
                    comm_size: first.comm_size,
                    is_root,
                    avg_bytes: bytes_sum / n,
                }
            })
            .collect()
    }

    /// Group the invocations of `site` on `rank` by call stack (§III-B).
    /// Groups are ordered by first appearance.
    pub fn stack_groups(&self, rank: usize, site: CallSite) -> Vec<StackGroup> {
        let mut order: Vec<u64> = Vec::new();
        let mut groups: HashMap<u64, StackGroup> = HashMap::new();
        for r in self.site_records(rank, site) {
            let h = r.stack_hash();
            let g = groups.entry(h).or_insert_with(|| {
                order.push(h);
                StackGroup {
                    hash: h,
                    stack: r.stack.clone(),
                    invocations: Vec::new(),
                }
            });
            g.invocations.push(r.invocation);
        }
        order
            .into_iter()
            .map(|h| {
                let mut g = groups.remove(&h).expect("group exists");
                g.invocations.sort_unstable();
                g
            })
            .collect()
    }

    /// Total number of collective invocations across all ranks.
    pub fn total_invocations(&self) -> u64 {
        self.records.iter().map(|r| r.len() as u64).sum()
    }

    /// Invocation counts per collective kind across all ranks.
    pub fn kind_histogram(&self) -> BTreeMap<CollKind, u64> {
        let mut h = BTreeMap::new();
        for rank in &self.records {
            for r in rank {
                *h.entry(r.kind).or_default() += 1;
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::hook::CallSite;
    use simmpi::record::CallRecord;

    fn rec(
        site: CallSite,
        inv: u64,
        stack: Vec<&'static str>,
        phase: Phase,
        errhdl: bool,
    ) -> CallRecord {
        CallRecord {
            site,
            kind: CollKind::Allreduce,
            invocation: inv,
            comm_code: 7,
            seq: 0,
            comm_size: 4,
            count: 1,
            root: 0,
            is_root: false,
            phase,
            errhdl,
            stack,
            bytes: 8,
        }
    }

    fn site(line: u32) -> CallSite {
        CallSite {
            file: "app.rs",
            line,
        }
    }

    #[test]
    fn site_stats_aggregates() {
        let s = site(10);
        let records = vec![vec![
            rec(s, 0, vec!["main", "a"], Phase::Compute, false),
            rec(s, 1, vec!["main", "a", "b"], Phase::Compute, true),
            rec(s, 2, vec!["main", "a"], Phase::End, false),
        ]];
        let p = ApplicationProfile::new(records);
        let stats = p.site_stats(0);
        assert_eq!(stats.len(), 1);
        let st = &stats[0];
        assert_eq!(st.n_inv, 3);
        assert_eq!(st.n_diff_stacks, 2);
        assert!(st.errhdl);
        assert_eq!(st.phase, Phase::Compute);
        assert!((st.avg_stack_depth - (2.0 + 3.0 + 2.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn stack_groups_partition_invocations() {
        let s = site(20);
        let records = vec![vec![
            rec(s, 0, vec!["main", "x"], Phase::Compute, false),
            rec(s, 1, vec!["main", "y"], Phase::Compute, false),
            rec(s, 2, vec!["main", "x"], Phase::Compute, false),
            rec(s, 3, vec!["main", "x"], Phase::Compute, false),
        ]];
        let p = ApplicationProfile::new(records);
        let groups = p.stack_groups(0, s);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].invocations, vec![0, 2, 3]);
        assert_eq!(groups[0].representative(), 0);
        assert_eq!(groups[1].invocations, vec![1]);
        let total: usize = groups.iter().map(|g| g.invocations.len()).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn sites_sorted_and_deduped() {
        let records = vec![
            vec![rec(site(30), 0, vec!["main"], Phase::Init, false)],
            vec![
                rec(site(10), 0, vec!["main"], Phase::Init, false),
                rec(site(30), 0, vec!["main"], Phase::Init, false),
            ],
        ];
        let p = ApplicationProfile::new(records);
        let sites = p.sites();
        assert_eq!(sites.len(), 2);
        assert!(sites[0] < sites[1]);
        assert_eq!(p.total_invocations(), 3);
    }
}
