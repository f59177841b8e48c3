//! CSV export of campaign data, so the regenerated figures can be plotted
//! externally (the `experiments` binary writes these next to its text
//! output when it is given `--csv DIR`).

use crate::campaign::PointResult;
use crate::response::{wilson_95, ResponseHistogram, ALL_RESPONSES};
use crate::space::FaultChannel;
use std::fmt::Write as _;

/// Quote a CSV field per RFC 4180: fields containing commas, quotes or
/// line breaks are wrapped in double quotes with embedded quotes doubled.
/// Call sites and histogram labels flow through here — a site path with a
/// comma (or a future workload label with one) must not shift columns.
pub fn csv_field(value: &str) -> String {
    if value.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", value.replace('"', "\"\""))
    } else {
        value.to_string()
    }
}

/// Per-point results as CSV: one row per injection point with the fault
/// channel the campaign injected on, the full response histogram, the
/// resilient-transport recovery count, error rate and its 95% Wilson
/// interval. The channel is campaign-level (every point in one run shares
/// it), so it is a parameter rather than a `PointResult` field.
pub fn points_csv(results: &[PointResult], channel: FaultChannel) -> String {
    let mut out = String::from(
        "site,kind,rank,invocation,param,fault_channel,trials,fired,retransmits,events_fired,events_lifted,success,app_detected,mpi_err,seg_fault,wrong_ans,inf_loop,error_rate,wilson_lo,wilson_hi\n",
    );
    for r in results {
        let errors = r.hist.total() - r.hist.count(crate::response::Response::Success);
        let (lo, hi) = wilson_95(errors, r.hist.total());
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.6},{:.6},{:.6}",
            csv_field(&r.point.site.to_string()),
            r.point.kind.name(),
            r.point.rank,
            r.point.invocation,
            r.point.param.name(),
            channel.token(),
            r.hist.total(),
            r.fired,
            r.retransmits,
            r.events_fired,
            r.events_lifted,
            r.hist.count(ALL_RESPONSES[0]),
            r.hist.count(ALL_RESPONSES[1]),
            r.hist.count(ALL_RESPONSES[2]),
            r.hist.count(ALL_RESPONSES[3]),
            r.hist.count(ALL_RESPONSES[4]),
            r.hist.count(ALL_RESPONSES[5]),
            r.error_rate(),
            lo,
            hi
        );
    }
    out
}

/// Labelled histograms as CSV (one row per label; fractions per response).
pub fn histograms_csv<L: std::fmt::Display>(rows: &[(L, ResponseHistogram)]) -> String {
    let mut out =
        String::from("label,total,success,app_detected,mpi_err,seg_fault,wrong_ans,inf_loop\n");
    for (label, h) in rows {
        let _ = write!(out, "{},{}", csv_field(&label.to_string()), h.total());
        for r in ALL_RESPONSES {
            let _ = write!(out, ",{:.6}", h.fraction(r));
        }
        out.push('\n');
    }
    out
}

/// A generic two-column series as CSV.
pub fn series_csv(x_name: &str, y_name: &str, series: &[(f64, f64)]) -> String {
    let mut out = format!("{},{}\n", x_name, y_name);
    for (x, y) in series {
        let _ = writeln!(out, "{:.6},{:.6}", x, y);
    }
    out
}

/// Write `content` to `dir/name` if `dir` is `Some`, creating the
/// directory. Errors are reported, not fatal (the text output is the
/// primary artifact).
pub fn maybe_write(dir: &Option<String>, name: &str, content: &str) {
    if let Some(dir) = dir {
        let path = std::path::Path::new(dir).join(name);
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, content)) {
            eprintln!("csv export to {} failed: {}", path.display(), e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response::{Response, ResponseHistogram};
    use crate::space::InjectionPoint;
    use simmpi::hook::{CallSite, CollKind, ParamId};

    fn sample_result() -> PointResult {
        let mut hist = ResponseHistogram::new();
        for _ in 0..7 {
            hist.add(Response::Success);
        }
        for _ in 0..3 {
            hist.add(Response::SegFault);
        }
        PointResult {
            point: InjectionPoint {
                site: CallSite {
                    file: "a.rs",
                    line: 12,
                },
                kind: CollKind::Allreduce,
                rank: 1,
                invocation: 4,
                param: ParamId::Count,
            },
            hist,
            fired: 10,
            fatal_ranks: vec![1, 1, 2],
            quarantined: 0,
            retransmits: 0,
            events_fired: 10,
            events_lifted: 0,
        }
    }

    #[test]
    fn points_csv_shape() {
        let csv = points_csv(&[sample_result()], FaultChannel::Param);
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].split(',').count(), lines[1].split(',').count());
        assert!(lines[1].contains("MPI_Allreduce"));
        assert!(lines[1].contains("count"));
        assert!(lines[1].contains(",param,"), "channel column: {}", lines[1]);
        assert!(
            lines[1].contains("0.3000"),
            "error rate column: {}",
            lines[1]
        );
    }

    #[test]
    fn points_csv_carries_message_channel_and_retransmits() {
        let mut r = sample_result();
        r.retransmits = 5;
        let csv = points_csv(&[r], FaultChannel::Message);
        let header = csv.lines().next().unwrap();
        let line = csv.trim().lines().nth(1).unwrap();
        let chan_col = header
            .split(',')
            .position(|c| c == "fault_channel")
            .unwrap();
        let rtx_col = header.split(',').position(|c| c == "retransmits").unwrap();
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields[chan_col], "message");
        assert_eq!(fields[rtx_col], "5");
    }

    #[test]
    fn points_csv_carries_event_columns() {
        let mut r = sample_result();
        r.events_fired = 23;
        r.events_lifted = 4;
        let csv = points_csv(&[r], FaultChannel::Message);
        let header = csv.lines().next().unwrap();
        let line = csv.trim().lines().nth(1).unwrap();
        let col = |name: &str| header.split(',').position(|c| c == name).unwrap();
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields[col("events_fired")], "23");
        assert_eq!(fields[col("events_lifted")], "4");
    }

    #[test]
    fn points_csv_carries_rank_fault_channel_tokens() {
        for ch in [
            crate::space::FaultChannel::CrashStop,
            crate::space::FaultChannel::FailSlow,
            crate::space::FaultChannel::Partition,
        ] {
            let csv = points_csv(&[sample_result()], ch);
            let header = csv.lines().next().unwrap();
            let line = csv.trim().lines().nth(1).unwrap();
            let chan_col = header
                .split(',')
                .position(|c| c == "fault_channel")
                .unwrap();
            assert_eq!(line.split(',').nth(chan_col), Some(ch.token()));
        }
    }

    #[test]
    fn histograms_csv_fractions_sum_to_one() {
        let r = sample_result();
        let csv = histograms_csv(&[("row1", r.hist.clone())]);
        let line = csv.trim().lines().nth(1).unwrap();
        let fields: Vec<f64> = line
            .split(',')
            .skip(2)
            .map(|f| f.parse().unwrap())
            .collect();
        assert!((fields.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn series_csv_roundtrip() {
        let csv = series_csv("threshold", "reduction", &[(0.45, 0.85), (0.65, 0.55)]);
        assert!(csv.starts_with("threshold,reduction\n"));
        assert_eq!(csv.trim().lines().count(), 3);
    }

    #[test]
    fn maybe_write_none_is_noop() {
        maybe_write(&None, "x.csv", "a,b\n");
    }

    #[test]
    fn csv_field_quotes_per_rfc4180() {
        assert_eq!(csv_field("plain.rs:12"), "plain.rs:12");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("line\nbreak"), "\"line\nbreak\"");
        assert_eq!(csv_field(""), "");
    }

    #[test]
    fn points_csv_quotes_awkward_site() {
        let mut r = sample_result();
        r.point.site = CallSite {
            file: "dir,with\"odd.rs",
            line: 7,
        };
        let csv = points_csv(&[r], FaultChannel::Param);
        let line = csv.trim().lines().nth(1).unwrap();
        assert!(
            line.starts_with("\"dir,with\"\"odd.rs:7\","),
            "site must be RFC-4180 quoted: {}",
            line
        );
        // The quoted site keeps the column count stable: splitting on commas
        // outside quotes must still yield the header's 18 columns.
        let mut cols = 1;
        let mut in_quotes = false;
        for ch in line.chars() {
            match ch {
                '"' => in_quotes = !in_quotes,
                ',' if !in_quotes => cols += 1,
                _ => {}
            }
        }
        assert_eq!(cols, csv.lines().next().unwrap().split(',').count());
    }

    #[test]
    fn histograms_csv_quotes_label() {
        let r = sample_result();
        let csv = histograms_csv(&[("cfg,a=1", r.hist)]);
        let line = csv.trim().lines().nth(1).unwrap();
        assert!(line.starts_with("\"cfg,a=1\","), "label quoted: {}", line);
    }
}
