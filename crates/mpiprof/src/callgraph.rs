//! Call graphs reconstructed from annotated call stacks — the Callgrind /
//! gprof analog of the profiling phase.

use simmpi::record::CallRecord;
use std::collections::BTreeSet;

/// A call graph: nodes are annotated function names, edges are observed
/// caller→callee pairs (including the pseudo-leaf for the collective
/// itself, e.g. `"norm" → "MPI_Allreduce"`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CallGraph {
    /// Function names.
    pub nodes: BTreeSet<&'static str>,
    /// Caller → callee edges.
    pub edges: BTreeSet<(&'static str, &'static str)>,
}

impl CallGraph {
    /// Build the call graph of one rank from its call records.
    pub fn from_records(records: &[CallRecord]) -> Self {
        let mut g = CallGraph::default();
        for r in records {
            for w in r.stack.windows(2) {
                g.nodes.insert(w[0]);
                g.nodes.insert(w[1]);
                g.edges.insert((w[0], w[1]));
            }
            if let Some(leaf) = r.stack.last() {
                g.nodes.insert(leaf);
                g.nodes.insert(r.kind.name());
                g.edges.insert((leaf, r.kind.name()));
            }
        }
        g
    }

    /// A stable fingerprint of the graph (used for rank-equivalence).
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |s: &str| {
            for b in s.as_bytes() {
                h ^= *b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            h ^= 0xFE;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for (a, b) in &self.edges {
            mix(a);
            mix(b);
        }
        h
    }

    /// Render as DOT for human inspection.
    pub fn to_dot(&self) -> String {
        let mut s = String::from("digraph callgraph {\n");
        for (a, b) in &self.edges {
            s.push_str(&format!("  \"{}\" -> \"{}\";\n", a, b));
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::hook::{CallSite, CollKind};
    use simmpi::record::Phase;

    fn rec(stack: Vec<&'static str>, kind: CollKind) -> CallRecord {
        CallRecord {
            site: CallSite {
                file: "x.rs",
                line: 1,
            },
            kind,
            invocation: 0,
            comm_code: 0,
            seq: 0,
            comm_size: 2,
            count: 0,
            root: 0,
            is_root: false,
            phase: Phase::Compute,
            errhdl: false,
            stack,
            bytes: 0,
        }
    }

    #[test]
    fn edges_from_stacks() {
        let g = CallGraph::from_records(&[
            rec(vec!["main", "solve", "norm"], CollKind::Allreduce),
            rec(vec!["main", "io"], CollKind::Bcast),
        ]);
        assert!(g.edges.contains(&("main", "solve")));
        assert!(g.edges.contains(&("solve", "norm")));
        assert!(g.edges.contains(&("norm", "MPI_Allreduce")));
        assert!(g.edges.contains(&("io", "MPI_Bcast")));
        assert!(!g.edges.contains(&("main", "norm")));
    }

    #[test]
    fn fingerprint_detects_differences() {
        let a = CallGraph::from_records(&[rec(vec!["main", "a"], CollKind::Barrier)]);
        let b = CallGraph::from_records(&[rec(vec!["main", "b"], CollKind::Barrier)]);
        let a2 = CallGraph::from_records(&[rec(vec!["main", "a"], CollKind::Barrier)]);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), a2.fingerprint());
    }

    #[test]
    fn dot_renders() {
        let g = CallGraph::from_records(&[rec(vec!["main", "a"], CollKind::Barrier)]);
        let dot = g.to_dot();
        assert!(dot.contains("\"a\" -> \"MPI_Barrier\""));
    }
}
