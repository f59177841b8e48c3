//! mpiP-style communication and load-imbalance reports.

use crate::profile::ApplicationProfile;
use std::fmt::Write as _;

/// Render an mpiP-like text report of the communication profile: one row
/// per call site with type, invocation counts, distinct stacks, payload
/// sizes, and a per-kind summary.
pub fn communication_report(profile: &ApplicationProfile) -> String {
    let mut out = String::new();
    let total = profile.total_invocations();
    let _ = writeln!(
        out,
        "--- Communication profile ({} ranks, {} collective invocations) ---",
        profile.nranks, total
    );
    let _ = writeln!(
        out,
        "{:<22} {:<15} {:>6} {:>8} {:>10} {:>7} {:>8} {:>6}",
        "site", "collective", "nInv", "nStacks", "avgDepth", "errHdl", "bytes", "%calls"
    );
    // Use rank 0 as the reporting rank (SPMD view); root roles come from
    // the per-site stats which fold in all invocations of that rank.
    let stats = profile.site_stats(0);
    for st in &stats {
        let pct = if total > 0 {
            100.0 * (st.n_inv as f64 * profile.nranks as f64) / total as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:<22} {:<15} {:>6} {:>8} {:>10.2} {:>7} {:>8.0} {:>5.1}%",
            format!("{}", st.site),
            st.kind.name(),
            st.n_inv,
            st.n_diff_stacks,
            st.avg_stack_depth,
            if st.errhdl { "yes" } else { "no" },
            st.avg_bytes,
            pct
        );
    }
    let _ = writeln!(out, "--- Per-kind totals ---");
    for (kind, count) in profile.kind_histogram() {
        let pct = if total > 0 {
            100.0 * count as f64 / total as f64
        } else {
            0.0
        };
        let _ = writeln!(out, "{:<15} {:>8}  {:>5.1}%", kind.name(), count, pct);
    }
    out
}

/// Per-rank communication volume and imbalance summary: total calls and
/// payload bytes per rank, plus the max/mean imbalance factor — the
/// load-balance view an mpiP report ends with.
pub fn imbalance_report(profile: &ApplicationProfile) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "--- Per-rank communication volume ---");
    let _ = writeln!(out, "{:<6} {:>8} {:>12}", "rank", "calls", "bytes");
    let mut totals = Vec::with_capacity(profile.nranks);
    for (rank, recs) in profile.records.iter().enumerate() {
        let bytes: u64 = recs.iter().map(|r| r.bytes as u64).sum();
        let _ = writeln!(out, "{:<6} {:>8} {:>12}", rank, recs.len(), bytes);
        totals.push(bytes as f64);
    }
    if !totals.is_empty() {
        let mean = totals.iter().sum::<f64>() / totals.len() as f64;
        let max = totals.iter().cloned().fold(0.0f64, f64::max);
        let imbalance = if mean > 0.0 { max / mean } else { 1.0 };
        let _ = writeln!(out, "imbalance (max/mean bytes): {:.3}", imbalance);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::hook::{CallSite, CollKind};
    use simmpi::record::{CallRecord, Phase};

    #[test]
    fn report_contains_sites_and_totals() {
        let rec = CallRecord {
            site: CallSite {
                file: "kernel.rs",
                line: 99,
            },
            kind: CollKind::Allreduce,
            invocation: 0,
            comm_code: 1,
            seq: 0,
            comm_size: 2,
            count: 4,
            root: 0,
            is_root: false,
            phase: Phase::Compute,
            errhdl: true,
            stack: vec!["main", "f"],
            bytes: 32,
        };
        let p = ApplicationProfile::new(vec![vec![rec.clone()], vec![rec]]);
        let report = communication_report(&p);
        assert!(report.contains("kernel.rs:99"));
        assert!(report.contains("MPI_Allreduce"));
        assert!(report.contains("yes"));
        assert!(report.contains("Per-kind totals"));
    }

    #[test]
    fn empty_profile_reports_cleanly() {
        let p = ApplicationProfile::new(vec![vec![], vec![]]);
        let report = communication_report(&p);
        assert!(report.contains("0 collective invocations"));
        let imb = imbalance_report(&p);
        assert!(imb.contains("imbalance"));
    }

    #[test]
    fn imbalance_factor_computed() {
        let rec = |bytes: usize| CallRecord {
            site: CallSite {
                file: "k.rs",
                line: 1,
            },
            kind: CollKind::Allgather,
            invocation: 0,
            comm_code: 1,
            seq: 0,
            comm_size: 2,
            count: 1,
            root: 0,
            is_root: false,
            phase: Phase::Compute,
            errhdl: false,
            stack: vec!["main"],
            bytes,
        };
        // Rank 0 moves 3x the mean of (30, 10): max/mean = 30/20 = 1.5.
        let p = ApplicationProfile::new(vec![vec![rec(30)], vec![rec(10)]]);
        let imb = imbalance_report(&p);
        assert!(imb.contains("1.500"), "{}", imb);
        assert!(imb.contains("30"));
    }
}
