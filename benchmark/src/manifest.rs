//! Every metric `fitbench` emits, and the check that `BENCHMARK.json`
//! declares exactly that set.
//!
//! The table below is the single list results are built from: a value
//! whose name is not here cannot be emitted, and a name here that a run
//! did not produce is an error. `check-manifest` then holds the table
//! against `BENCHMARK.json` in both directions, with unit, direction
//! and bound.

use crate::plan::ALL_WORKLOADS;
use fastfit_store::json::Json;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The token `BENCHMARK.json` uses.
    pub fn token(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, `layer.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end metrics carry the share of the parent's median by
    /// which they may worsen; per-layer metrics have none.
    pub bound: Option<f64>,
    /// A count that repeats exactly for a given seed: `compare` requires
    /// it identical, not close.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
        exact: false,
    }
}

const fn timed(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: true,
    }
}

/// The end-to-end metrics: what a user of the system sees.
pub const END_TO_END: [MetricDef; 3] = [
    e2e("makespan_s", "s", 0.25),
    e2e("cpu_s", "s", 0.25),
    e2e("setup_s", "s", 0.25),
];

/// The per-layer metrics, grouped by the module they time.
pub const PER_LAYER: [MetricDef; 77] = [
    timed("peak_rss_mb", "MiB"),
    timed("simmpi.dispatch_us", "us"),
    timed("simmpi.clean_job_ms", "ms"),
    timed("simmpi.allreduce_plain_us", "us"),
    timed("simmpi.allreduce_resilient_us", "us"),
    timed("simmpi.sendrecv_16_us", "us"),
    timed("simmpi.sendrecv_128_us", "us"),
    exact("simmpi.ops_per_job", "count"),
    exact("simmpi.colls_per_job", "count"),
    exact("simmpi.bytes_per_job", "B"),
    exact("simmpi.retransmits", "count"),
    timed("mpiprof.profile_ms", "ms"),
    timed("mpiprof.record_overhead_frac", "ratio"),
    timed("core.prepare_ms", "ms"),
    timed("core.prune_ms", "ms"),
    exact("core.points_full", "count"),
    exact("core.points_kept", "count"),
    timed("core.trial_ms_p50", "ms"),
    timed("core.trial_ms_p95", "ms"),
    timed("core.trial_ms_max", "ms"),
    timed("core.trial_ms_success_p50", "ms"),
    timed("core.hang_share", "ratio"),
    higher("core.trials_per_s", "1/s"),
    timed("core.overhead_ratio", "ratio"),
    timed("core.classify_us", "us"),
    higher("core.prefix_op_frac", "ratio"),
    exact("core.trials", "count"),
    timed("core.retried", "count"),
    exact("core.quarantined", "count"),
    exact("core.ml_rounds", "count"),
    exact("core.ml_measured_points", "count"),
    timed("core.export_ms", "ms"),
    exact("core.resp.SUCCESS", "count"),
    exact("core.resp.APP_DETECTED", "count"),
    exact("core.resp.MPI_ERR", "count"),
    exact("core.resp.SEG_FAULT", "count"),
    exact("core.resp.WRONG_ANS", "count"),
    exact("core.resp.INF_LOOP", "count"),
    timed("npb.ft_golden_ms", "ms"),
    timed("npb.is_golden_ms", "ms"),
    timed("npb.lu_golden_ms", "ms"),
    timed("npb.halo_golden_ms", "ms"),
    timed("minimd.golden_ms", "ms"),
    timed("store.on_trial_us_p50", "us"),
    timed("store.on_trial_us_p99", "us"),
    timed("store.append_us", "us"),
    timed("store.sync_ms", "ms"),
    timed("store.status_write_ms", "ms"),
    exact("store.journal_bytes_per_trial", "B"),
    timed("store.open_replay_ms", "ms"),
    timed("store.segment_write_ms", "ms"),
    timed("store.merge_ms", "ms"),
    timed("store.content_sha_ms", "ms"),
    timed("scenario.expand_us", "us"),
    exact("scenario.members", "count"),
    timed("serve.cost.price_ms", "ms"),
    timed("serve.cost.price_cached_us", "us"),
    timed("serve.http.scenario_submit_ms", "ms"),
    timed("serve.http.submit_ms_p50", "ms"),
    timed("serve.http.status_ms_p50", "ms"),
    timed("serve.http.status_ms_p99", "ms"),
    timed("serve.http.results_csv_ms_p50", "ms"),
    timed("serve.http.metrics_ms_p50", "ms"),
    timed("serve.queue.append_ms", "ms"),
    exact("serve.queue.events", "count"),
    timed("serve.daemon.admission_wait_ms_p50", "ms"),
    higher("serve.daemon.concurrency_ratio", "ratio"),
    exact("serve.fleet.leases_granted", "count"),
    exact("serve.fleet.leases_expired", "count"),
    higher("serve.worker.trials_per_s", "1/s"),
    higher("serve.fleet.shard_efficiency", "ratio"),
    timed("randomforest.fit_ms", "ms"),
    timed("randomforest.predict_us", "us"),
    timed("mlstore.put_ms", "ms"),
    timed("mlstore.get_ms", "ms"),
    timed("mlstore.resolve_auto_ms", "ms"),
    timed("trace_overhead_frac", "ratio"),
];

/// Look a metric up by name in either table.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

fn check_metrics(section: &str, declared: Option<&Json>, table: &[MetricDef]) -> Vec<String> {
    let mut problems = Vec::new();
    let Some(items) = declared.and_then(Json::as_arr) else {
        return vec![format!("BENCHMARK.json has no {section:?} array")];
    };
    for item in items {
        let name = item.get("name").and_then(Json::as_str).unwrap_or("");
        let Some(def) = table.iter().find(|m| m.name == name) else {
            problems.push(format!(
                "{section}: {name:?} is declared but fitbench never emits it"
            ));
            continue;
        };
        let unit = item.get("unit").and_then(Json::as_str);
        if unit != Some(def.unit) {
            problems.push(format!(
                "{section}: {name} declares unit {unit:?}, fitbench emits {:?}",
                def.unit
            ));
        }
        let better = item.get("better").and_then(Json::as_str);
        if better != Some(def.better.token()) {
            problems.push(format!(
                "{section}: {name} declares better {better:?}, fitbench says {:?}",
                def.better.token()
            ));
        }
        let bound = item.get("bound").and_then(Json::as_f64);
        if bound != def.bound {
            problems.push(format!(
                "{section}: {name} declares bound {bound:?}, fitbench holds {:?}",
                def.bound
            ));
        }
    }
    for def in table {
        let n = items
            .iter()
            .filter(|i| i.get("name").and_then(Json::as_str) == Some(def.name))
            .count();
        if n != 1 {
            problems.push(format!(
                "{section}: fitbench emits {} but BENCHMARK.json declares it {n} times",
                def.name
            ));
        }
    }
    problems
}

/// Hold the tables above against a parsed `BENCHMARK.json`: every
/// emitted name declared once with the same unit, direction and bound,
/// every declared name emitted, and the four workloads named with a
/// reason. Returns one line per disagreement.
pub fn check_manifest(doc: &Json) -> Vec<String> {
    let mut problems = check_metrics("end_to_end", doc.get("end_to_end"), &END_TO_END);
    problems.extend(check_metrics("per_layer", doc.get("per_layer"), &PER_LAYER));
    let declared: Vec<(&str, &str)> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|w| {
            (
                w.get("name").and_then(Json::as_str).unwrap_or(""),
                w.get("why").and_then(Json::as_str).unwrap_or(""),
            )
        })
        .collect();
    for w in ALL_WORKLOADS {
        match declared.iter().filter(|(n, _)| *n == w.name()).count() {
            1 => {}
            n => problems.push(format!(
                "workloads: {} is declared {n} times",
                w.name()
            )),
        }
    }
    for (name, why) in &declared {
        if crate::plan::Workload::from_name(name).is_none() {
            problems.push(format!("workloads: {name:?} is declared but not a workload"));
        }
        if why.trim().is_empty() {
            problems.push(format!("workloads: {name} gives no reason"));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> Json {
        Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        assert_eq!(check_manifest(&committed()), Vec::<String>::new());
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert_eq!(lookup("setup_s").map(|m| m.unit), Some("s"));
        assert!(lookup("nope").is_none());
    }

    /// Drop or alter one declared entry and the check must say so.
    fn edited(section: &str, name: &str, edit: impl Fn(&mut Json) -> bool) -> Vec<String> {
        let mut doc = committed();
        if let Json::Obj(m) = &mut doc {
            if let Some(Json::Arr(items)) = m.get_mut(section) {
                items.retain_mut(|it| {
                    it.get("name").and_then(Json::as_str) != Some(name) || edit(it)
                });
            }
        }
        check_manifest(&doc)
    }

    #[test]
    fn missing_undeclared_and_altered_entries_are_reported() {
        let gone = edited("per_layer", "store.sync_ms", |_| false);
        assert_eq!(gone.len(), 1, "{gone:?}");
        assert!(gone[0].contains("store.sync_ms") && gone[0].contains("0 times"));

        let renamed = edited("per_layer", "store.sync_ms", |it| {
            if let Json::Obj(m) = it {
                m.insert("name".into(), Json::Str("store.fsync_ms".into()));
            }
            true
        });
        assert_eq!(renamed.len(), 2, "{renamed:?}");
        assert!(renamed.iter().any(|p| p.contains("never emits")));

        let unit = edited("end_to_end", "makespan_s", |it| {
            if let Json::Obj(m) = it {
                m.insert("unit".into(), Json::Str("ms".into()));
                m.insert("bound".into(), Json::F64(0.2));
            }
            true
        });
        assert_eq!(unit.len(), 2, "{unit:?}");

        let workload = edited("workloads", "fleet-shard", |_| false);
        assert_eq!(workload.len(), 1, "{workload:?}");
        assert!(workload[0].contains("fleet-shard"));
    }
}
