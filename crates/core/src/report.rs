//! Sensitivity aggregation and report tables — the data behind the
//! paper's Figures 7–11 and Tables III–IV.

use crate::campaign::{Campaign, CampaignResult, PointResult};
use crate::features::TABLE4_COLUMNS;
use crate::response::{level_15_85, Response, ResponseHistogram, ALL_RESPONSES};
use randomforest::correlation_eq1;
use simmpi::hook::{CollKind, ParamId};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregate response histograms per collective kind.
pub fn per_kind_histograms(results: &[PointResult]) -> BTreeMap<CollKind, ResponseHistogram> {
    let mut map: BTreeMap<CollKind, ResponseHistogram> = BTreeMap::new();
    for r in results {
        map.entry(r.point.kind).or_default().merge(&r.hist);
    }
    map
}

/// Aggregate response histograms per injected parameter.
pub fn per_param_histograms(results: &[PointResult]) -> BTreeMap<ParamId, ResponseHistogram> {
    let mut map: BTreeMap<ParamId, ResponseHistogram> = BTreeMap::new();
    for r in results {
        map.entry(r.point.param).or_default().merge(&r.hist);
    }
    map
}

/// Per-kind error-rate-level distribution with the paper's 15%/85%
/// thresholds (Figures 8 and 11): for each collective kind, the number of
/// points whose error rate is low / med / high.
pub fn per_kind_levels(results: &[PointResult]) -> BTreeMap<CollKind, [u64; 3]> {
    let mut map: BTreeMap<CollKind, [u64; 3]> = BTreeMap::new();
    for r in results {
        map.entry(r.point.kind).or_insert([0; 3])[level_15_85(r.error_rate())] += 1;
    }
    map
}

/// One row of Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Workload name.
    pub app: String,
    /// Semantic (rank) reduction — the "MPI" column.
    pub mpi: f64,
    /// Context (invocation) reduction — the "App" column.
    pub app_ctx: f64,
    /// ML test savings — the "ML" column (`None` = NA, as for NPB).
    pub ml: Option<f64>,
    /// Combined reduction.
    pub total: f64,
}

impl Table3Row {
    /// Compose the columns multiplicatively, as the paper's totals do
    /// (e.g. LAMMPS: 1 − (1−.9724)(1−.8758)(1−.5333) = 99.84%).
    pub fn new(app: impl Into<String>, mpi: f64, app_ctx: f64, ml: Option<f64>) -> Self {
        let keep = (1.0 - mpi) * (1.0 - app_ctx) * (1.0 - ml.unwrap_or(0.0));
        Table3Row {
            app: app.into(),
            mpi,
            app_ctx,
            ml,
            total: 1.0 - keep,
        }
    }

    /// Build from a prepared campaign plus an optional ML savings figure.
    pub fn from_campaign(c: &Campaign, ml: Option<f64>) -> Self {
        Table3Row::new(
            c.workload.name.clone(),
            c.semantic.reduction(),
            c.context.reduction(),
            ml,
        )
    }
}

/// Table IV: correlation between each application feature and the
/// error-rate level over the measured points, using Equation 1 (Pearson
/// mapped to \[0,1\]).
pub fn correlation_table(campaign: &Campaign, results: &[PointResult]) -> Vec<(String, f64)> {
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); TABLE4_COLUMNS.len()];
    let mut levels: Vec<f64> = Vec::new();
    for r in results {
        let f = campaign.extractor.table4_features(&r.point);
        for (c, v) in columns.iter_mut().zip(&f) {
            c.push(*v);
        }
        levels.push(level_15_85(r.error_rate()) as f64);
    }
    TABLE4_COLUMNS
        .iter()
        .zip(&columns)
        .map(|(name, col)| (name.to_string(), correlation_eq1(col, &levels)))
        .collect()
}

/// Render a response histogram as a percentage row.
pub fn histogram_row(h: &ResponseHistogram) -> String {
    ALL_RESPONSES
        .iter()
        .map(|r| format!("{}: {:5.1}%", r.name(), 100.0 * h.fraction(*r)))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Render a stacked-percentage table (one labelled histogram per row) —
/// the textual form of Figures 7, 9 and 10.
pub fn render_histogram_table<K: std::fmt::Display>(
    title: &str,
    rows: &[(K, &ResponseHistogram)],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "--- {} ---", title);
    let _ = writeln!(
        out,
        "{:<16} {:>9} {:>13} {:>9} {:>10} {:>10} {:>9}   (n)",
        "", "SUCCESS", "APP_DETECTED", "MPI_ERR", "SEG_FAULT", "WRONG_ANS", "INF_LOOP"
    );
    for (label, h) in rows {
        let _ = writeln!(
            out,
            "{:<16} {:>8.1}% {:>12.1}% {:>8.1}% {:>9.1}% {:>9.1}% {:>8.1}%   ({})",
            format!("{}", label),
            100.0 * h.fraction(Response::Success),
            100.0 * h.fraction(Response::AppDetected),
            100.0 * h.fraction(Response::MpiErr),
            100.0 * h.fraction(Response::SegFault),
            100.0 * h.fraction(Response::WrongAns),
            100.0 * h.fraction(Response::InfLoop),
            h.total(),
        );
    }
    out
}

/// Render a per-kind level table — the textual form of Figures 8 and 11.
pub fn render_level_table(title: &str, levels: &BTreeMap<CollKind, [u64; 3]>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "--- {} (error-rate levels, low ≤15% < med < 85% ≤ high) ---",
        title
    );
    let _ = writeln!(out, "{:<16} {:>6} {:>6} {:>6}", "", "low", "med", "high");
    for (kind, counts) in levels {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            continue;
        }
        let pct = |c: u64| 100.0 * c as f64 / total as f64;
        let _ = writeln!(
            out,
            "{:<16} {:>5.1}% {:>5.1}% {:>5.1}%",
            kind.name(),
            pct(counts[0]),
            pct(counts[1]),
            pct(counts[2])
        );
    }
    out
}

/// Render Table III.
pub fn render_table3(rows: &[Table3Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "--- Table III: reduction after the three techniques ---"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>8} {:>8} {:>8}",
        "App", "MPI", "App", "ML", "Total"
    );
    for r in rows {
        let ml =
            r.ml.map(|v| format!("{:7.2}%", 100.0 * v))
                .unwrap_or_else(|| "     NA".to_string());
        let _ = writeln!(
            out,
            "{:<10} {:>7.2}% {:>7.2}% {} {:>7.2}%",
            r.app,
            100.0 * r.mpi,
            100.0 * r.app_ctx,
            ml,
            100.0 * r.total
        );
    }
    out
}

/// Render Table IV.
pub fn render_table4(rows: &[(String, f64)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "--- Table IV: feature ↔ error-rate-level correlation (Eq. 1) ---"
    );
    for (name, v) in rows {
        let _ = writeln!(out, "{:<16} {:.2}", name, v);
    }
    out
}

/// Simple horizontal ASCII bar, for histogram figures.
pub fn bar(frac: f64, width: usize) -> String {
    let filled = (frac.clamp(0.0, 1.0) * width as f64).round() as usize;
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < filled { '#' } else { '.' });
    }
    s
}

/// Summary of a full campaign run, for logging.
pub fn campaign_summary(c: &Campaign, r: &CampaignResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload={} ranks={} channel={}{} full_points={} pruned_points={} ({:.2}% reduction) trials={} wall={:?}",
        c.workload.name,
        c.workload.nranks,
        c.cfg.fault_channel.token(),
        if c.cfg.resilient { " resilient" } else { "" },
        c.full_points,
        c.points().len(),
        100.0 * c.total_reduction(),
        r.total_trials,
        r.wall
    );
    let retransmits: u64 = r.results.iter().map(|p| p.retransmits).sum();
    if retransmits > 0 {
        let _ = writeln!(out, "transport recoveries: {} retransmit(s)", retransmits);
    }
    let _ = writeln!(out, "{}", replay_summary(c));
    let _ = writeln!(out, "{}", histogram_row(&r.aggregate()));
    out
}

/// Where the campaign's trials met the golden run so far, on one line:
/// calls that returned its recorded result, the size of the log they came
/// from, attempts that diverged and ran again without it, and trials that
/// ended the moment their fault was gone.
pub fn replay_summary(c: &Campaign) -> String {
    let s = c.replay_stats();
    format!(
        "prefix replay: {} collective call(s) replayed from a {}-byte golden result log, {} diverged attempt(s) re-run without it; {} of {} trials ended at absorption",
        s.replayed_calls, s.log_bytes, s.fallbacks, s.absorbed_trials, s.trial_jobs
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::InjectionPoint;
    use simmpi::hook::CallSite;

    fn pr(kind: CollKind, param: ParamId, responses: &[(Response, u64)]) -> PointResult {
        let mut hist = ResponseHistogram::new();
        for (r, n) in responses {
            for _ in 0..*n {
                hist.add(*r);
            }
        }
        PointResult {
            point: InjectionPoint {
                site: CallSite {
                    file: "x.rs",
                    line: 1,
                },
                kind,
                rank: 0,
                invocation: 0,
                param,
            },
            hist,
            fired: 0,
            fatal_ranks: Vec::new(),
            quarantined: 0,
            retransmits: 0,
            events_fired: 0,
            events_lifted: 0,
        }
    }

    #[test]
    fn per_kind_aggregation() {
        let results = vec![
            pr(
                CollKind::Allreduce,
                ParamId::SendBuf,
                &[(Response::Success, 9), (Response::WrongAns, 1)],
            ),
            pr(
                CollKind::Allreduce,
                ParamId::SendBuf,
                &[(Response::Success, 8), (Response::SegFault, 2)],
            ),
            pr(CollKind::Barrier, ParamId::Comm, &[(Response::MpiErr, 10)]),
        ];
        let by_kind = per_kind_histograms(&results);
        assert_eq!(by_kind[&CollKind::Allreduce].total(), 20);
        assert_eq!(by_kind[&CollKind::Barrier].fraction(Response::MpiErr), 1.0);
        let levels = per_kind_levels(&results);
        assert_eq!(levels[&CollKind::Allreduce], [1, 1, 0], "10% low, 20% med");
        assert_eq!(levels[&CollKind::Barrier], [0, 0, 1], "100% is high");
    }

    #[test]
    fn table3_composes_multiplicatively() {
        // The paper's LAMMPS row.
        let row = Table3Row::new("LAMMPS", 0.9724, 0.8758, Some(0.5333));
        assert!((row.total - 0.9984).abs() < 2e-4, "total {}", row.total);
        // And an NPB-style row without ML.
        let row = Table3Row::new("IS", 0.9688, 0.90, None);
        assert!((row.total - 0.99688).abs() < 1e-5);
        let text = render_table3(&[row]);
        assert!(text.contains("NA"));
    }

    #[test]
    fn rendering_contains_labels() {
        let results = vec![pr(
            CollKind::Reduce,
            ParamId::Op,
            &[(Response::MpiErr, 5), (Response::Success, 5)],
        )];
        let by_param = per_param_histograms(&results);
        let rows: Vec<(&str, &ResponseHistogram)> =
            by_param.iter().map(|(p, h)| (p.name(), h)).collect();
        let table = render_histogram_table("params", &rows);
        assert!(table.contains("op"));
        assert!(table.contains("50.0%"));
        assert_eq!(bar(0.5, 10), "#####.....");
    }
}
