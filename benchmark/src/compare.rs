//! `fitbench compare A.json B.json`: two sets of runs, metric by metric.
//!
//! Each report holds the runs `fitbench run` appended to it. For every
//! workload the end-to-end metrics of the untraced runs are reduced to a
//! median and the quartile distance the driver uses
//! (`statistics.quantiles(v, n=4)`), and B's median is held against A's
//! with the bound the manifest fixes for that metric. Counts that repeat
//! exactly must be identical wherever both sets ran the same seed.

use crate::manifest::{lookup, Better, MetricDef, END_TO_END};
use crate::plan::ALL_WORKLOADS;
use crate::stats::{median, quartiles, spread};
use fastfit_store::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What `compare` concluded about one end-to-end metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Within,
    /// Every run of B reads better than every run of A.
    Better,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread of a set is wider than the bound, so the
    /// medians cannot resolve a change of that size.
    Unresolved,
}

impl Verdict {
    fn token(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Better => "better",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's own
/// direction (positive = worse).
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Judge one end-to-end metric from the two sets' values.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let bound = def.bound.unwrap_or(f64::INFINITY);
    let all_better = !a.is_empty()
        && !b.is_empty()
        && a.iter()
            .all(|&x| b.iter().all(|&y| worse_by(def, x, y) < 0.0));
    // Set-up time is reported as a median of medians over a handful of
    // tens of milliseconds; the driver exempts its spread and so do we.
    let wide = def.name != "setup_s" && (spread(a) > bound || spread(b) > bound);
    if all_better {
        Verdict::Better
    } else if wide {
        Verdict::Unresolved
    } else if worse_by(def, median(a), median(b)) > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    }
}

/// One run of a report.
struct Run<'a> {
    workload: &'a str,
    seed: u64,
    trace: bool,
    metrics: &'a Json,
    exact: &'a Json,
    failed: u64,
}

fn runs(doc: &Json) -> Result<Vec<Run<'_>>, String> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .ok_or("report has no \"runs\" array")?
        .iter()
        .map(|r| {
            Ok(Run {
                workload: r
                    .get("workload")
                    .and_then(Json::as_str)
                    .ok_or("run without a workload")?,
                seed: r.get("seed").and_then(Json::as_u64).ok_or("run without a seed")?,
                trace: r.get("trace").and_then(Json::as_bool).unwrap_or(false),
                metrics: r.get("metrics").ok_or("run without metrics")?,
                exact: r.get("exact").ok_or("run without exact counts")?,
                failed: r.get("failed").and_then(Json::as_u64).unwrap_or(0),
            })
        })
        .collect()
}

fn values(runs: &[Run<'_>], workload: &str, trace: bool, name: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.get(name).and_then(Json::as_f64))
        .collect()
}

fn describe(v: &[f64]) -> String {
    match quartiles(v) {
        Some((q1, q3)) => format!(
            "{:.4} [{:.4}..{:.4}] n={} spread {:.1}%",
            median(v),
            q1,
            q3,
            v.len(),
            100.0 * spread(v)
        ),
        None => format!("{:.4} n={}", median(v), v.len()),
    }
}

/// Compare two parsed reports. Returns the printable table and whether
/// the comparison passes: no metric regressed or unresolved, no exact
/// count differing, no failed operation in either set.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let (ra, rb) = (runs(a)?, runs(b)?);
    let mut out = String::new();
    let mut pass = true;
    for w in ALL_WORKLOADS.map(|w| w.name()) {
        let mut lines = Vec::new();
        for def in &END_TO_END {
            let (va, vb) = (values(&ra, w, false, def.name), values(&rb, w, false, def.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = judge(def, &va, &vb);
            pass &= matches!(verdict, Verdict::Within | Verdict::Better);
            lines.push(format!(
                "  {:<34} A {}  B {}  delta {:+.1}% of {:.4} (bound {:.0}%)  {}",
                format!("{} [{}]", def.name, def.unit),
                describe(&va),
                describe(&vb),
                100.0 * worse_by(def, median(&va), median(&vb)),
                median(&va),
                100.0 * def.bound.unwrap_or(0.0),
                verdict.token()
            ));
        }
        // Per-layer medians of the traced runs: no bound, so no verdict;
        // the delta is given with its base.
        let mut names: Vec<&str> = ra
            .iter()
            .filter(|r| r.workload == w && r.trace)
            .filter_map(|r| match r.metrics {
                Json::Obj(m) => Some(m.keys().map(String::as_str)),
                _ => None,
            })
            .flatten()
            .collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            let (Some(def), va, vb) = (
                lookup(name),
                values(&ra, w, true, name),
                values(&rb, w, true, name),
            ) else {
                continue;
            };
            if vb.is_empty() || def.exact {
                continue;
            }
            lines.push(format!(
                "  {:<34} A {:.4} n={}  B {:.4} n={}  delta {:+.1}% of {:.4}",
                format!("{} [{}]", def.name, def.unit),
                median(&va),
                va.len(),
                median(&vb),
                vb.len(),
                100.0 * worse_by(def, median(&va), median(&vb)),
                median(&va),
            ));
        }
        // Exact counts: identical wherever both sets ran the same seed.
        let mut by_seed: BTreeMap<u64, (Option<&Json>, Option<&Json>)> = BTreeMap::new();
        for r in ra.iter().filter(|r| r.workload == w) {
            by_seed.entry(r.seed).or_default().0 = Some(r.exact);
        }
        for r in rb.iter().filter(|r| r.workload == w) {
            by_seed.entry(r.seed).or_default().1 = Some(r.exact);
        }
        let mut shared = 0;
        for (seed, pair) in by_seed {
            let (Some(Json::Obj(ea)), Some(Json::Obj(eb))) = pair else {
                continue;
            };
            shared += 1;
            for (name, x) in ea {
                let y = eb.get(name);
                if y != Some(x) {
                    pass = false;
                    lines.push(format!(
                        "  {name}: seed {seed}: A {} B {}  MISMATCH (must repeat exactly)",
                        x.encode(),
                        y.map(Json::encode).unwrap_or_else(|| "absent".into())
                    ));
                }
            }
        }
        let failed: u64 = ra
            .iter()
            .chain(&rb)
            .filter(|r| r.workload == w)
            .map(|r| r.failed)
            .sum();
        if failed > 0 {
            pass = false;
            lines.push(format!("  {failed} failed operation(s) across the two sets  FAILED"));
        }
        if !lines.is_empty() {
            let _ = writeln!(out, "{w}  (exact counts compared on {shared} shared seed(s))");
            for l in lines {
                let _ = writeln!(out, "{l}");
            }
        }
    }
    if out.is_empty() {
        return Err("the two reports share no workload".into());
    }
    let _ = writeln!(out, "{}", if pass { "compare: PASS" } else { "compare: FAIL" });
    Ok((out, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        lookup(name).expect("declared metric")
    }

    fn around(center: f64, rel: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + rel * (i as f64 - 4.5) / 4.5))
            .collect()
    }

    #[test]
    fn verdicts() {
        // A bound of the test's own, so the manifest's can move.
        let m = &MetricDef {
            bound: Some(0.07),
            ..*def("makespan_s")
        };
        // Tight sets, 2 % apart: inside the 7 % bound.
        assert_eq!(judge(m, &around(2.0, 0.01), &around(2.04, 0.01)), Verdict::Within);
        // Tight sets, 12 % apart.
        assert_eq!(
            judge(m, &around(2.0, 0.01), &around(2.24, 0.01)),
            Verdict::Regressed
        );
        // A set whose own quartiles are 15 % apart cannot resolve 7 %.
        assert_eq!(
            judge(m, &around(2.0, 0.15), &around(2.0, 0.01)),
            Verdict::Unresolved
        );
        // ...unless every run of B beats every run of A.
        assert_eq!(
            judge(m, &around(2.0, 0.15), &around(1.0, 0.01)),
            Verdict::Better
        );
        // Improvement within the noise is still just "within".
        assert_eq!(judge(m, &around(2.0, 0.01), &around(1.99, 0.01)), Verdict::Within);
        // setup_s spread is exempt, its median is not.
        let s = &MetricDef {
            bound: Some(0.2),
            ..*def("setup_s")
        };
        assert_eq!(judge(s, &around(0.05, 0.4), &around(0.05, 0.4)), Verdict::Within);
        assert_eq!(judge(s, &around(0.05, 0.4), &around(0.08, 0.4)), Verdict::Regressed);
    }

    #[test]
    fn direction_flips_for_higher_is_better() {
        let h = def("core.trials_per_s");
        assert!(worse_by(h, 100.0, 90.0) > 0.0);
        assert!(worse_by(def("makespan_s"), 100.0, 90.0) < 0.0);
        assert_eq!(worse_by(h, 0.0, 5.0), 0.0);
    }

    fn report(makespan: f64, trials: u64, failed: u64) -> Json {
        let run = |seed: u64| {
            Json::obj([
                ("workload", Json::Str("compute-local".into())),
                ("seed", Json::U64(seed)),
                ("trace", Json::Bool(false)),
                ("failed", Json::U64(failed)),
                (
                    "metrics",
                    Json::obj([("makespan_s", Json::F64(makespan + seed as f64 * 1e-3))]),
                ),
                ("exact", Json::obj([("core.trials", Json::F64(trials as f64))])),
            ])
        };
        Json::obj([("runs", Json::Arr((1..=4).map(run).collect()))])
    }

    #[test]
    fn reports_pass_fail_and_exact_mismatch() {
        let (text, pass) = compare(&report(2.0, 138, 0), &report(2.02, 138, 0)).unwrap();
        assert!(pass, "{text}");
        assert!(text.contains("makespan_s") && text.contains("4 shared seed"));
        let (text, pass) = compare(&report(2.0, 138, 0), &report(2.8, 138, 0)).unwrap();
        assert!(!pass && text.contains("REGRESSED"), "{text}");
        let (text, pass) = compare(&report(2.0, 138, 0), &report(2.0, 139, 0)).unwrap();
        assert!(!pass && text.contains("MISMATCH"), "{text}");
        let (text, pass) = compare(&report(2.0, 138, 0), &report(2.0, 138, 1)).unwrap();
        assert!(!pass && text.contains("FAILED"), "{text}");
        assert!(compare(&Json::obj([]), &report(2.0, 1, 0)).is_err());
    }
}
