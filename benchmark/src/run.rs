//! One benchmark run: units until the time is up, the reference checks,
//! the probes of a traced run, and the result.

use crate::checks::Tally;
use crate::local::{run_campaign, spec_label, CampaignTimings, LocalRun, TrialSample};
use crate::manifest::{MetricDef, END_TO_END, PER_LAYER};
use crate::plan::{unit_seed, Workload};
use crate::probes::{run_probes, ProbeInput, Values};
use crate::service::FLEET_WORKERS;
use crate::stats::{capped_percentile, max, median};
use crate::sys;
use crate::trace::{self, Tracer};
use crate::units::{run_unit, UnitOpts, UnitOut};
use fastfit::prelude::{Response, ALL_RESPONSES};
use fastfit_store::journal_content_sha;
use fastfit_store::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Arguments of `fitbench run`.
pub struct RunArgs {
    /// Workload to run.
    pub workload: Workload,
    /// Seed every input is made from.
    pub seed: u64,
    /// How long to keep starting units.
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Directory for scratch, traces and reports (`benchmark/out`).
    pub out: PathBuf,
    /// Report file this run is appended to.
    pub report: PathBuf,
    /// How the crates were built (`real` | `offline-stubs`), recorded.
    pub deps: String,
}

/// Result of a run, ready to print and append to the report.
pub struct RunResult {
    /// Every output check held and nothing failed.
    pub correct: bool,
    /// Operations attempted and failed, with the failures.
    pub tally: Tally,
    /// The metrics this run reports, in manifest order.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// Exact counts of unit 0 (reported on both passes).
    pub exact: BTreeMap<&'static str, f64>,
    /// Every untraced unit measured, in order. The end-to-end metrics are
    /// [`typical_mean`]s over these; the report keeps them all.
    pub units: Vec<UnitRow>,
    /// Remarks for the human reader (sample counts, substitutions).
    pub notes: Vec<String>,
}

/// What the report keeps of one measured unit.
pub struct UnitRow {
    setup_s: f64,
    makespan_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    trials: u64,
}

/// Campaigns of `serve-sweep` whose journals are compared with a
/// single-host run after the window: the first member and one the seed
/// picks.
fn sampled(w: Workload, seed: u64, campaigns: usize) -> Vec<usize> {
    match w {
        Workload::FleetShard => (0..campaigns).collect(),
        Workload::ServeSweep => {
            // The last campaign is the ML member: not a plain spec.
            let members = campaigns.saturating_sub(1).max(1) as u64;
            vec![0, 1 + (seed % (members - 1).max(1)) as usize]
        }
        _ => Vec::new(),
    }
}

/// The byte-identity contract, checked from outside: rerun each sampled
/// campaign of `unit` in-process and require the same journal content
/// hash the service produced. Returns the reference runs (they double as
/// the in-process trial samples of a service workload).
fn reference_runs(
    w: Workload,
    seed: u64,
    unit: &UnitOut,
    dir: &Path,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<Vec<LocalRun>, String> {
    let mut runs = Vec::new();
    for i in sampled(w, seed, unit.campaigns.len()) {
        let Some(c) = unit.campaigns.get(i) else {
            continue;
        };
        let run = run_campaign(&c.spec, &dir.join(format!("ref{i}")), tracer, None)?;
        let served = journal_content_sha(&c.dir);
        let local = journal_content_sha(&run.dir);
        tally.check(matches!((&served, &local), (Ok(a), Ok(b)) if a == b), || {
            format!(
                "{}: journal content differs from a single-host run ({served:?} vs {local:?})",
                c.label
            )
        });
        runs.push(run);
    }
    Ok(runs)
}

/// Exact counts of one unit: identical for two runs with the same seed.
fn exact_counts(w: Workload, unit: &UnitOut) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let arts: Vec<_> = unit
        .campaigns
        .iter()
        .filter_map(|c| c.artifacts.as_ref())
        .collect();
    let trials: u64 = arts.iter().map(|a| a.trials.len() as u64).sum();
    let bytes: u64 = arts.iter().map(|a| a.trial_line_bytes).sum();
    m.insert("core.trials", trials as f64);
    m.insert(
        "core.quarantined",
        arts.iter().map(|a| a.quarantined()).sum::<u64>() as f64,
    );
    m.insert(
        "core.points_kept",
        arts.iter().map(|a| a.meta.point_keys.len()).sum::<usize>() as f64,
    );
    let mut hist = [0u64; 6];
    for a in &arts {
        for (h, n) in hist.iter_mut().zip(a.responses()) {
            *h += n;
        }
    }
    const RESP: [&str; 6] = [
        "core.resp.SUCCESS",
        "core.resp.APP_DETECTED",
        "core.resp.MPI_ERR",
        "core.resp.SEG_FAULT",
        "core.resp.WRONG_ANS",
        "core.resp.INF_LOOP",
    ];
    for (r, name) in ALL_RESPONSES.iter().zip(RESP) {
        debug_assert!(name.ends_with(r.name()));
        m.insert(name, hist[r.index()] as f64);
    }
    m.insert(
        "simmpi.retransmits",
        arts.iter()
            .flat_map(|a| &a.trials)
            .filter_map(|t| t.disposition.outcome())
            .map(|o| o.retransmits)
            .sum::<u64>() as f64,
    );
    m.insert(
        "store.journal_bytes_per_trial",
        if trials > 0 {
            bytes as f64 / trials as f64
        } else {
            0.0
        },
    );
    let ml = arts
        .iter()
        .filter_map(|a| a.status.as_ref())
        .find(|s| !s.ml_rounds.is_empty());
    m.insert(
        "core.ml_rounds",
        ml.map(|s| s.ml_rounds.len() as f64).unwrap_or(0.0),
    );
    m.insert(
        "core.ml_measured_points",
        ml.map(|s| s.points_done as f64).unwrap_or(0.0),
    );
    m.insert("serve.queue.events", unit.queue_events as f64);
    m.insert("serve.fleet.leases_granted", unit.leases.0 as f64);
    m.insert("serve.fleet.leases_expired", unit.leases.1 as f64);
    debug_assert!(w.is_service() || unit.queue_events == 0);
    m
}

/// Per-layer values observed on the in-process runs and the units that
/// went through a daemon (`http_units`): trial and store-call
/// distributions, phase timings, HTTP round trips.
fn observed_values(
    http_units: &[&UnitOut],
    untraced: &[UnitOut],
    timings: &[&CampaignTimings],
    samples: &[&TrialSample],
    notes: &mut Vec<String>,
) -> Values {
    let mut v = Values::new();
    let trial_ms: Vec<f64> = samples.iter().map(|s| s.trial_ms).collect();
    let store_us: Vec<f64> = samples.iter().map(|s| s.store_us).collect();
    let success: Vec<f64> = samples
        .iter()
        .filter(|s| s.response == Some(Response::Success))
        .map(|s| s.trial_ms)
        .collect();
    let (p, p95) = capped_percentile(&trial_ms, 95.0);
    notes.push(format!(
        "core.trial_ms: n={} (tail reported at p{p}), success n={}",
        trial_ms.len(),
        success.len()
    ));
    v.insert("core.trial_ms_p50", median(&trial_ms));
    v.insert("core.trial_ms_p95", p95);
    v.insert("core.trial_ms_max", max(&trial_ms));
    v.insert("core.trial_ms_success_p50", median(&success));
    let hang: f64 = samples
        .iter()
        .filter(|s| s.response == Some(Response::InfLoop))
        .map(|s| s.trial_ms)
        .sum();
    let measure: f64 = samples.iter().map(|s| s.trial_ms + s.store_us * 1e-3).sum();
    // (`ratio` also keeps an empty sum's -0.0 out of the report.)
    v.insert("core.hang_share", ratio(hang, measure));
    v.insert(
        "core.retried",
        samples.iter().map(|s| u64::from(s.retries)).sum::<u64>() as f64,
    );
    let (p, p99) = capped_percentile(&store_us, 99.0);
    notes.push(format!(
        "store.on_trial_us: n={} (tail reported at p{p})",
        store_us.len()
    ));
    v.insert("store.on_trial_us_p50", median(&store_us));
    v.insert("store.on_trial_us_p99", p99);

    let timing = |f: fn(&CampaignTimings) -> f64| {
        median(&timings.iter().map(|t| f(t)).collect::<Vec<_>>())
    };
    v.insert("core.prepare_ms", timing(|t| t.prepare_ms));
    v.insert("core.prune_ms", timing(|t| t.prune_ms));
    v.insert("core.export_ms", timing(|t| t.export_ms));

    let tps: Vec<f64> = untraced
        .iter()
        .map(|u| u.trials_journaled() as f64 / u.makespan_s)
        .collect();
    v.insert("core.trials_per_s", median(&tps));

    let http = |route: &str| -> Vec<f64> {
        http_units
            .iter()
            .filter_map(|u| u.http_ms.get(route))
            .flatten()
            .copied()
            .collect()
    };
    v.insert("serve.http.scenario_submit_ms", median(&http("scenario_submit")));
    v.insert("serve.http.submit_ms_p50", median(&http("submit")));
    let status = http("status");
    let (p, p99) = capped_percentile(&status, 99.0);
    if !status.is_empty() {
        notes.push(format!(
            "serve.http.status_ms: n={} polls (tail reported at p{p})",
            status.len()
        ));
    }
    v.insert("serve.http.status_ms_p50", median(&status));
    v.insert("serve.http.status_ms_p99", p99);
    v.insert("serve.http.results_csv_ms_p50", median(&http("results_csv")));
    v.insert("serve.http.metrics_ms_p50", median(&http("metrics")));
    let waits: Vec<f64> = http_units
        .iter()
        .filter_map(|u| u.admission_wait_ms)
        .collect();
    v.insert("serve.daemon.admission_wait_ms_p50", median(&waits));
    v
}

/// The value a run reports for a per-unit quantity. `values[i]` belongs
/// to repetition `i / distinct` of distinct unit `i % distinct`: reduce the
/// repetitions of each distinct unit to one value, then take the mean over
/// the units, which averages the seed's work over all of them.
///
/// Repetitions of one unit do identical work, so they differ only by what
/// else the host was doing. An in-process unit is one CPU-bound thread:
/// the host only ever adds to its time, so its *quietest* repetition is
/// the estimate. A service unit sleeps between polls and waits on lease
/// round trips, so a lucky alignment can also subtract: its *median*
/// repetition is (README, "How one run becomes one number").
pub fn typical_mean(values: &[f64], distinct: usize, service: bool) -> f64 {
    let per_unit: Vec<f64> = (0..distinct.min(values.len()))
        .map(|j| {
            let reps: Vec<f64> = values[j..].iter().step_by(distinct).copied().collect();
            if service {
                median(&reps)
            } else {
                reps.into_iter().fold(f64::INFINITY, f64::min)
            }
        })
        .collect();
    per_unit.iter().sum::<f64>() / per_unit.len().max(1) as f64
}

/// `a / b`, or 0 when there is nothing to divide by (a layer the
/// workload does not cross reports 0, never NaN).
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 && a > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// The scratch directory of this process under `out`, on a filesystem
/// where fsync means something. Returns it with the filesystem's type.
fn make_scratch(out: &Path, w: Workload) -> Result<(PathBuf, String), String> {
    let scratch = out
        .join("scratch")
        .join(format!("{}-{}", w.name(), std::process::id()));
    remove_dir(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let fs = sys::fs_type(&scratch);
    if sys::is_memory_fs(&fs) {
        remove_dir(&scratch);
        return Err(format!(
            "scratch {} is on {fs}: fsync costs nothing there and every store / \
             serve.queue number would be fiction; run from a disk-backed checkout",
            scratch.display()
        ));
    }
    Ok((scratch, fs))
}

/// The units of one run, in the order they ran. `untraced[i]` (and, on a
/// traced run, `traced[i]` right after it) is repetition `i / distinct` of
/// distinct unit `i % distinct`.
struct Measured {
    untraced: Vec<UnitOut>,
    traced: Vec<UnitOut>,
}

/// Repeat the distinct units round-robin until `seconds` have passed. The
/// directory of iteration 0 stays on disk for the reference checks and
/// probes.
fn measure(args: &RunArgs, scratch: &Path, on: &Tracer) -> Result<Measured, String> {
    let w = args.workload;
    let off = Tracer::new(false);
    let mut m = Measured {
        untraced: Vec::new(),
        traced: Vec::new(),
    };
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    for k in 0.. {
        let seed = unit_seed(args.seed, (k % w.distinct_units()) as u64);
        let passes = [("", &off, &mut m.untraced), ("t", on, &mut m.traced)];
        for (pass, tracer, units) in passes {
            if !tracer.enabled() && pass == "t" {
                continue;
            }
            let dir = scratch.join(format!("u{k}{pass}"));
            units.push(run_unit(&UnitOpts {
                workload: w,
                seed,
                dir: &dir,
                tracer,
                max_campaigns: 2,
            })?);
            if k > 0 {
                remove_dir(&dir);
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    Ok(m)
}

/// Repetitions of one distinct unit do the same work, so what they
/// journal must agree: the counts read from the journals of repetition
/// `r` against those of repetition 0. (Queue and lease counts are left
/// out: an expired lease is timing, not a wrong answer.)
fn check_repetitions(w: Workload, units: &[UnitOut], tally: &mut Tally) {
    let journaled = |u: &UnitOut| -> Vec<(&'static str, u64)> {
        exact_counts(w, u)
            .into_iter()
            .filter(|(name, _)| !name.starts_with("serve."))
            .map(|(name, v)| (name, v.to_bits()))
            .collect()
    };
    let distinct = w.distinct_units();
    let counts: Vec<_> = units.iter().map(journaled).collect();
    for (i, c) in counts.iter().enumerate().skip(distinct) {
        tally.check(*c == counts[i % distinct], || {
            format!(
                "{}: repetition {} of unit {} journaled different counts than its first run",
                w.name(),
                i / distinct,
                i % distinct
            )
        });
    }
}

/// Run the benchmark once.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let w = args.workload;
    // The path users run: default engine, default knobs. Whatever the
    // caller's shell exports must not leak into the measurement.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("FASTFIT_") {
            std::env::remove_var(k);
        }
    }
    std::env::set_var("FASTFIT_CLASS", w.class());
    let (scratch, fs) = make_scratch(&args.out, w)?;

    let on = Tracer::new(args.trace);
    let Measured { untraced, traced } = measure(args, &scratch, &on)?;

    let mut tally = Tally::default();
    for u in untraced.iter().chain(&traced) {
        tally.merge(u.tally.clone());
    }
    check_repetitions(w, &untraced, &mut tally);
    let mut notes = Vec::new();
    let seed0 = unit_seed(args.seed, 0);
    let t_ref = Instant::now();
    let refs = reference_runs(w, seed0, &untraced[0], &scratch, &on, &mut tally)?;
    let ref_wall = t_ref.elapsed().as_secs_f64();
    let exact = exact_counts(w, &untraced[0]);

    let mut metrics = Vec::new();
    if !args.trace {
        let col = |f: fn(&UnitOut) -> f64| {
            typical_mean(
                &untraced.iter().map(f).collect::<Vec<_>>(),
                w.distinct_units(),
                w.is_service(),
            )
        };
        for def in &END_TO_END {
            let value = match def.name {
                "makespan_s" => col(|u| u.makespan_s),
                "cpu_s" => col(|u| u.cpu_s),
                "setup_s" => col(|u| u.setup_s),
                other => return Err(format!("no value for end-to-end metric {other}")),
            };
            metrics.push((def, value));
        }
    } else {
        let mut v = layer_values(&mut LayerInput {
            w,
            seed0,
            scratch: &scratch,
            tracer: &on,
            untraced: &untraced,
            traced: &traced,
            refs: &refs,
            ref_wall,
            tally: &mut tally,
            notes: &mut notes,
        })?;
        v.extend(exact.iter().map(|(name, value)| (*name, *value)));
        for def in &PER_LAYER {
            let value = v
                .get(def.name)
                .copied()
                .ok_or_else(|| format!("no value for per-layer metric {}", def.name))?;
            metrics.push((def, value));
        }
        let spans = on.spans();
        let doc = trace::to_json(w.name(), args.seed, &spans);
        let path = args.out.join(format!("{}.trace.json", w.name()));
        std::fs::write(&path, doc.encode() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!("trace: {} spans in {}", spans.len(), path.display()));
    }
    remove_dir(&scratch);

    let units: Vec<_> = untraced
        .iter()
        .map(|u| UnitRow {
            setup_s: u.setup_s,
            makespan_s: u.makespan_s,
            cpu_s: u.cpu_s,
            peak_rss_mb: u.peak_rss_mb,
            trials: u.trials_journaled(),
        })
        .collect();
    notes.push(format!(
        "{} unit(s) of {} ({} distinct) measured in {} s; scratch on {fs}; nproc {}; deps {}",
        units.len(),
        w.name(),
        w.distinct_units(),
        args.seconds,
        sys::nproc(),
        args.deps
    ));
    Ok(RunResult {
        correct: tally.failed == 0,
        tally,
        metrics,
        exact,
        units,
        notes,
    })
}

/// What the per-layer values of a traced run are computed from.
struct LayerInput<'a> {
    w: Workload,
    seed0: u64,
    scratch: &'a Path,
    tracer: &'a Tracer,
    untraced: &'a [UnitOut],
    traced: &'a [UnitOut],
    /// The single-host reference runs, and how long they took together.
    refs: &'a [LocalRun],
    ref_wall: f64,
    tally: &'a mut Tally,
    notes: &'a mut Vec<String>,
}

/// Every per-layer value of a traced run but the exact counts: what the
/// traced units and in-process runs showed, the probes, and the
/// comparisons that need one more unit (the serial sweep, the daemon
/// probe of a workload that has no daemon).
fn layer_values(i: &mut LayerInput<'_>) -> Result<Values, String> {
    let (w, untraced, traced, refs) = (i.w, i.untraced, i.traced, i.refs);
    let extra_unit = |workload: Workload, name: &str, max_campaigns: usize| {
        run_unit(&UnitOpts {
            workload,
            seed: i.seed0,
            dir: &i.scratch.join(name),
            tracer: &Tracer::new(false),
            max_campaigns,
        })
    };
    // HTTP round trips come from the traced units of `serve-sweep`; any
    // other workload sends one sweep through a daemon of its own to have
    // them measured on the same host in the same minute.
    let daemon_probe = match w {
        Workload::ServeSweep => None,
        _ => {
            std::env::set_var("FASTFIT_CLASS", Workload::ServeSweep.class());
            let unit = extra_unit(Workload::ServeSweep, "daemon-probe", 2);
            std::env::set_var("FASTFIT_CLASS", w.class());
            Some(unit?)
        }
    };
    if let Some(u) = &daemon_probe {
        i.tally.merge(u.tally.clone());
    }
    let http_units: Vec<&UnitOut> = traced.iter().chain(&daemon_probe).collect();

    // In-process runs to read trial and phase timings from: the traced
    // units of a local workload, the references of a service.
    let samples: Vec<&TrialSample> = traced
        .iter()
        .flat_map(|u| &u.trials)
        .chain(refs.iter().flat_map(|r| &r.trials))
        .collect();
    let timings: Vec<&CampaignTimings> = traced
        .iter()
        .flat_map(|u| &u.campaigns)
        .filter_map(|c| c.timings.as_ref())
        .chain(refs.iter().map(|r| &r.timings))
        .collect();
    let mut v = observed_values(&http_units, untraced, &timings, &samples, i.notes);

    // The primary campaign as an in-process run: the first campaign of
    // the kept traced unit, or a service's first reference.
    let (primary_dir, primary_results) = match refs.first() {
        Some(r) => (r.dir.as_path(), r.results.as_slice()),
        None => {
            let c = &traced[0].campaigns[0];
            (c.dir.as_path(), c.results.as_slice())
        }
    };
    let probes = i.tracer.span("probes", "", None, |parent| {
        run_probes(&ProbeInput {
            spec: &untraced[0].campaigns[0].spec,
            dir: primary_dir,
            results: primary_results,
            seed: i.seed0,
            scratch: &i.scratch.join("probe"),
            tracer: i.tracer,
            parent,
        })
    })?;
    v.extend(probes);

    // Same kernel on both sides: only the primary campaign's trials.
    let primary = spec_label(&untraced[0].campaigns[0].spec);
    let primary_success: Vec<f64> = samples
        .iter()
        .filter(|s| s.campaign == primary && s.response == Some(Response::Success))
        .map(|s| s.trial_ms)
        .collect();
    v.insert(
        "core.overhead_ratio",
        ratio(median(&primary_success), v["simmpi.clean_job_ms"]),
    );
    let pairs: Vec<f64> = traced
        .iter()
        .zip(untraced)
        .map(|(t, u)| t.makespan_s / u.makespan_s - 1.0)
        .collect();
    v.insert("trace_overhead_frac", median(&pairs));
    v.insert(
        "peak_rss_mb",
        max(&untraced.iter().map(|u| u.peak_rss_mb).collect::<Vec<_>>()),
    );
    v.insert(
        "core.points_full",
        if w.is_service() {
            refs.iter().map(|r| r.points_full).sum::<u64>() as f64
        } else {
            untraced[0].campaigns.iter().map(|c| c.points_full).sum::<u64>() as f64
        },
    );

    v.insert("serve.daemon.concurrency_ratio", 0.0);
    v.insert("serve.fleet.shard_efficiency", 0.0);
    v.insert("serve.worker.trials_per_s", 0.0);
    match w {
        Workload::ServeSweep => {
            // The same sweep with one campaign at a time.
            let serial = extra_unit(w, "serial", 1)?;
            i.tally.merge(serial.tally.clone());
            v.insert(
                "serve.daemon.concurrency_ratio",
                serial.makespan_s / untraced[0].makespan_s,
            );
        }
        Workload::FleetShard => {
            v.insert(
                "serve.fleet.shard_efficiency",
                i.ref_wall / untraced[0].makespan_s,
            );
            let tps: Vec<f64> = untraced
                .iter()
                .map(|u| u.trials_journaled() as f64 / u.makespan_s / FLEET_WORKERS as f64)
                .collect();
            v.insert("serve.worker.trials_per_s", median(&tps));
            i.notes.push(format!(
                "fleet: {} leases completed by the workers in unit 0",
                untraced[0].worker_leases
            ));
        }
        _ => {}
    }
    Ok(v)
}

/// The report entry of one run.
pub fn report_entry(args: &RunArgs, r: &RunResult) -> Json {
    let metrics = r
        .metrics
        .iter()
        .map(|(def, v)| (def.name.to_string(), Json::F64(*v)))
        .collect();
    let exact = r
        .exact
        .iter()
        .map(|(k, v)| (k.to_string(), Json::F64(*v)))
        .collect();
    Json::obj([
        ("workload", Json::Str(args.workload.name().into())),
        ("seed", Json::U64(args.seed)),
        ("seconds", Json::U64(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        (
            "units",
            Json::Arr(
                r.units
                    .iter()
                    .map(|u| {
                        Json::obj([
                            ("setup_s", Json::F64(u.setup_s)),
                            ("makespan_s", Json::F64(u.makespan_s)),
                            ("cpu_s", Json::F64(u.cpu_s)),
                            ("peak_rss_mb", Json::F64(u.peak_rss_mb)),
                            ("trials", Json::U64(u.trials)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("correct", Json::Bool(r.correct)),
        ("attempted", Json::U64(r.tally.attempted)),
        ("failed", Json::U64(r.tally.failed)),
        (
            "failed_frac",
            Json::F64(r.tally.failed as f64 / r.tally.attempted.max(1) as f64),
        ),
        ("metrics", Json::Obj(metrics)),
        ("exact", Json::Obj(exact)),
        (
            "notes",
            Json::Arr(
                r.notes
                    .iter()
                    .chain(&r.tally.notes)
                    .map(|n| Json::Str(n.clone()))
                    .collect(),
            ),
        ),
    ])
}

/// Append `entry` to the report at `path` (created with the environment
/// header when absent).
pub fn append_report(path: &Path, args: &RunArgs, entry: Json) -> Result<(), String> {
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .filter(|d| d.get("runs").and_then(Json::as_arr).is_some())
        .unwrap_or_else(|| {
            Json::obj([
                (
                    "env",
                    Json::obj([
                        ("deps", Json::Str(args.deps.clone())),
                        ("nproc", Json::U64(sys::nproc() as u64)),
                        ("scratch_fs", Json::Str(sys::fs_type(&args.out))),
                    ]),
                ),
                ("runs", Json::Arr(Vec::new())),
            ])
        });
    if let Json::Obj(m) = &mut doc {
        if let Some(Json::Arr(runs)) = m.get_mut("runs") {
            runs.push(entry);
        }
    }
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
    }
    std::fs::write(path, doc.encode() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// The last line of standard output: the object the driver reads.
pub fn result_line(r: &RunResult) -> String {
    let metrics = r
        .metrics
        .iter()
        .map(|(def, v)| {
            (
                def.name.to_string(),
                Json::obj([
                    ("value", Json::F64(*v)),
                    ("unit", Json::Str(def.unit.into())),
                ]),
            )
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(r.correct)),
        ("attempted", Json::U64(r.tally.attempted.max(1))),
        ("failed", Json::U64(r.tally.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .encode()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typical_mean_reduces_repetitions_then_averages_units() {
        // Two distinct units, three repetitions each, round-robin.
        let v = [1.0, 10.0, 3.0, 12.0, 2.0, 14.0];
        // Quietest: min(1,3,2) = 1 and min(10,12,14) = 10.
        assert_eq!(typical_mean(&v, 2, false), 5.5);
        // Median: 2 and 12.
        assert_eq!(typical_mean(&v, 2, true), 7.0);
        // Fewer values than distinct units: the ones there are.
        assert_eq!(typical_mean(&[4.0], 3, false), 4.0);
    }
}
