//! One unit of each workload: set-up, the timed window, the cheap output
//! checks, teardown.
//!
//! The timed window opens at the first `Campaign::prepare_observed` call
//! (local workloads) or the first `POST` (service workloads) and closes
//! when the last `results.csv` is in hand. Golden profiling and pruning
//! are inside it: every campaign a user runs pays them. Scratch
//! directories, workload construction, daemon and worker start-up,
//! worker registration and one warm-up clean job per distinct (kernel,
//! ranks) are set-up, timed separately, so work moved out of the window
//! into set-up still shows.

use crate::checks::{check_campaign, Artifacts, Kind, Tally};
use crate::local::{run_campaign, spec_label, CampaignTimings, TrialSample};
use crate::plan::{
    campaign_specs, ml_member, sweep_grammar, warmup_pairs, Workload, ML_THRESHOLD,
};
use crate::service::{metric, Client, Service};
use crate::sys::{cpu_seconds, peak_rss_mb, reset_peak_rss};
use crate::trace::{SpanId, Tracer};
use fastfit::prelude::PointResult;
use fastfit_scenario::Grammar;
use fastfit_serve::{read_queue, resolve_workload, CampaignSpec, QueueEvent};
use fastfit_store::json::Json;
use simmpi::arena::JobArena;
use simmpi::runtime::{JobOutcome, JobSpec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One finished campaign of a unit, as the user ends up holding it.
pub struct CampaignOut {
    /// Label ([`spec_label`]).
    pub label: String,
    /// The spec that produced it (the single-host reference reruns it).
    pub spec: CampaignSpec,
    /// Its directory (journal, status, results.csv).
    pub dir: PathBuf,
    /// What the directory holds; `None` when it could not be read back.
    pub artifacts: Option<Artifacts>,
    /// Size of the unpruned space (local runs only; 0 through a daemon,
    /// which does not report it).
    pub points_full: u64,
    /// Call timings (local runs only).
    pub timings: Option<CampaignTimings>,
    /// Per-point results (local runs only; empty through a daemon).
    pub results: Vec<PointResult>,
}

/// Everything one unit produced.
pub struct UnitOut {
    /// Set-up wall seconds.
    pub setup_s: f64,
    /// The timed window, wall seconds.
    pub makespan_s: f64,
    /// User + system CPU seconds of the process over the same window.
    pub cpu_s: f64,
    /// Resident-set high-water of the process from the unit's start to the
    /// end of its window, MiB.
    pub peak_rss_mb: f64,
    /// Attempted/failed operations of the unit (checks included).
    pub tally: Tally,
    /// Its campaigns, in submission order.
    pub campaigns: Vec<CampaignOut>,
    /// Per-trial samples (traced local units only).
    pub trials: Vec<TrialSample>,
    /// HTTP round trips by route, milliseconds (service units).
    pub http_ms: BTreeMap<&'static str, Vec<f64>>,
    /// 201 → first member seen `running`, milliseconds (serve-sweep).
    pub admission_wait_ms: Option<f64>,
    /// Lines the daemon appended to `queue.jsonl` (service units).
    pub queue_events: u64,
    /// Leases granted / expired (fleet units).
    pub leases: (u64, u64),
    /// Leases the workers reported complete (fleet units).
    pub worker_leases: u64,
}

impl UnitOut {
    /// Trials journaled across the unit's campaigns.
    pub fn trials_journaled(&self) -> u64 {
        self.campaigns
            .iter()
            .filter_map(|c| c.artifacts.as_ref())
            .map(|a| a.trials.len() as u64)
            .sum()
    }
}

/// Options of one unit.
pub struct UnitOpts<'a> {
    /// Which workload.
    pub workload: Workload,
    /// The unit's seed ([`crate::plan::unit_seed`]).
    pub seed: u64,
    /// Scratch directory of the unit (created here, removed by the caller).
    pub dir: &'a Path,
    /// Span collector (disabled on the untraced pass).
    pub tracer: &'a Tracer,
    /// Campaigns the daemon may run at once (`serve-sweep` only; 2 is the
    /// workload, 1 the serial baseline of `concurrency_ratio`).
    pub max_campaigns: usize,
}

/// Run one clean, un-hooked, unrecorded job of `kernel` at `ranks`: the
/// warm-up every distinct (kernel, ranks) gets during set-up, so the
/// window does not pay first-touch costs a long-running user would not.
fn warm_up(kernel: &str, ranks: usize) -> Result<(), String> {
    let w = resolve_workload(&CampaignSpec {
        ranks: Some(ranks),
        steps: Some(10),
        ..CampaignSpec::new(kernel)
    });
    let spec = JobSpec {
        nranks: ranks,
        seed: w.seed,
        timeout: Duration::from_secs(60),
        ..Default::default()
    };
    match JobArena::new(ranks).run(&spec, w.app).outcome {
        JobOutcome::Completed { .. } => Ok(()),
        other => Err(format!("warm-up {kernel}/{ranks} did not complete: {other:?}")),
    }
}

/// The clocks of a timed window.
struct Window {
    t0: Instant,
    cpu0: f64,
}

impl Window {
    fn open() -> Window {
        Window {
            t0: Instant::now(),
            cpu0: cpu_seconds(),
        }
    }

    /// `(makespan_s, cpu_s, peak_rss_mb)` now.
    fn close(self) -> (f64, f64, f64) {
        (
            self.t0.elapsed().as_secs_f64(),
            cpu_seconds() - self.cpu0,
            peak_rss_mb(),
        )
    }
}

/// Run one unit.
pub fn run_unit(o: &UnitOpts<'_>) -> Result<UnitOut, String> {
    reset_peak_rss();
    let unit = o.tracer.open("unit", o.workload.name(), None);
    let out = match o.workload {
        Workload::ComputeLocal | Workload::WideResilient => local_unit(o, unit),
        Workload::ServeSweep => sweep_unit(o, unit),
        Workload::FleetShard => fleet_unit(o, unit),
    };
    o.tracer.close(unit);
    out
}

fn set_up(o: &UnitOpts<'_>, unit: Option<SpanId>) -> Result<(), String> {
    o.tracer.span("setup.scratch", "", unit, |_| {
        std::fs::create_dir_all(o.dir).map_err(|e| format!("{}: {e}", o.dir.display()))
    })?;
    o.tracer.span("setup.warm_up", "", unit, |_| {
        warmup_pairs(o.workload)
            .into_iter()
            .try_for_each(|(kernel, ranks)| warm_up(kernel, ranks))
    })
}

fn local_unit(o: &UnitOpts<'_>, unit: Option<SpanId>) -> Result<UnitOut, String> {
    let t_setup = Instant::now();
    set_up(o, unit)?;
    let specs = campaign_specs(o.workload, o.seed);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let clocks = Window::open();
    let window = o.tracer.open("window", "", unit);
    let mut runs = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        runs.push(run_campaign(
            spec,
            &o.dir.join(format!("c{i}")),
            o.tracer,
            window,
        )?);
    }
    o.tracer.close(window);
    let measured = clocks.close();

    let mut tally = Tally::default();
    let mut campaigns = Vec::new();
    let mut trials = Vec::new();
    for (spec, run) in specs.into_iter().zip(runs) {
        tally.check(!run.cancelled, || format!("{}: cancelled", run.label));
        let csv = std::fs::read_to_string(run.dir.join("results.csv")).unwrap_or_default();
        let artifacts = check_campaign(
            &mut tally,
            &run.label,
            &run.dir,
            &csv,
            Kind::Plain,
            ML_THRESHOLD,
        );
        trials.extend(run.trials);
        campaigns.push(CampaignOut {
            label: run.label,
            spec,
            dir: run.dir,
            artifacts,
            points_full: run.points_full,
            timings: Some(run.timings),
            results: run.results,
        });
    }
    let (makespan_s, cpu_s, peak_rss_mb) = measured;
    Ok(UnitOut {
        setup_s,
        makespan_s,
        cpu_s,
        peak_rss_mb,
        tally,
        campaigns,
        trials,
        http_ms: BTreeMap::new(),
        admission_wait_ms: None,
        queue_events: 0,
        leases: (0, 0),
        worker_leases: 0,
    })
}

/// Campaign ids of a 201 receipt (`{"id":..}` or `{"campaigns":[..]}`).
fn receipt_ids(receipt: &Json) -> Vec<String> {
    match receipt.get("campaigns").and_then(Json::as_arr) {
        Some(ids) => ids
            .iter()
            .filter_map(|v| v.as_str().map(String::from))
            .collect(),
        None => receipt
            .get("id")
            .and_then(Json::as_str)
            .map(|s| vec![s.to_string()])
            .unwrap_or_default(),
    }
}

/// One campaign a service unit submitted, as its window left it.
struct ServedCampaign {
    id: String,
    spec: CampaignSpec,
    kind: Kind,
    /// The `results.csv` the client fetched (empty on failure).
    csv: String,
    /// The last state the daemon reported.
    state: String,
}

/// What a service unit's window leaves for the checks.
struct Served {
    /// Submission order.
    campaigns: Vec<ServedCampaign>,
    admission_wait_ms: Option<f64>,
}

/// Close a service unit: `/metrics`, the output checks, queue and lease
/// counts, then stop workers and daemon.
fn finish_service(
    svc: Service,
    mut client: Client<'_>,
    served: Served,
    setup_s: f64,
    (makespan_s, cpu_s, peak_rss_mb): (f64, f64, f64),
) -> UnitOut {
    let metrics = client
        .call("metrics", "GET", "/metrics", None, 200)
        .unwrap_or_default();
    let mut tally = std::mem::take(&mut client.tally);
    let mut campaigns = Vec::new();
    for ServedCampaign {
        id,
        spec,
        kind,
        csv,
        state,
    } in served.campaigns
    {
        let label = format!("{id} {}", spec_label(&spec));
        tally.check(state == "done", || format!("{label}: state {state}"));
        let dir = svc.campaign_dir(&id);
        let artifacts = check_campaign(&mut tally, &label, &dir, &csv, kind, ML_THRESHOLD);
        campaigns.push(CampaignOut {
            label,
            spec,
            dir,
            artifacts,
            points_full: 0,
            timings: None,
            results: Vec::new(),
        });
    }
    let events = read_queue(&svc.root).unwrap_or_default();
    let granted = events
        .iter()
        .filter(|e| matches!(e, QueueEvent::Lease { .. }))
        .count() as u64;
    let expired = metric(&metrics, "fleet_leases_expired_total");
    let worker_leases = svc.stop();
    UnitOut {
        setup_s,
        makespan_s,
        cpu_s,
        peak_rss_mb,
        tally,
        campaigns,
        trials: Vec::new(),
        http_ms: std::mem::take(&mut client.latency_ms),
        admission_wait_ms: served.admission_wait_ms,
        queue_events: events.len() as u64,
        leases: (granted, expired),
        worker_leases,
    }
}

fn sweep_unit(o: &UnitOpts<'_>, unit: Option<SpanId>) -> Result<UnitOut, String> {
    let t_setup = Instant::now();
    set_up(o, unit)?;
    let grammar = sweep_grammar(o.seed);
    let ml_spec = ml_member(o.seed);
    // The members in the daemon's own enumeration order, so the
    // single-host reference can rerun exactly what member `i` was.
    let members: Vec<CampaignSpec> = Grammar::from_json(&grammar)
        .and_then(|g| g.expand())?
        .iter()
        .map(|s| CampaignSpec::from_json(&s.to_spec_json()))
        .collect::<Result<_, _>>()?;
    let svc = o.tracer.span("setup.daemon", "", unit, |_| {
        Service::start(o.workload, &o.dir.join("root"), o.max_campaigns)
    })?;
    let setup_s = t_setup.elapsed().as_secs_f64();

    let clocks = Window::open();
    let window = o.tracer.open("window", "", unit);
    let mut client = Client::new(&svc.addr, o.tracer, window);
    let receipt = client.post("scenario_submit", "/scenarios", &grammar);
    let accepted = Instant::now();
    let sid = receipt
        .as_ref()
        .and_then(|r| r.get("id").and_then(Json::as_str))
        .unwrap_or("")
        .to_string();
    let member_ids = receipt.as_ref().map(receipt_ids).unwrap_or_default();
    let ml_id = client
        .post("submit", "/campaigns", &ml_spec.to_json())
        .as_ref()
        .map(receipt_ids)
        .and_then(|ids| ids.into_iter().next());

    let mut admission_wait_ms = None;
    let sweep_state = client.wait_terminal(&format!("/scenarios/{sid}/status"), |doc| {
        let started = ["running", "done"].iter().any(|k| {
            doc.get("counts")
                .and_then(|c| c.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0)
                > 0
        });
        if started && admission_wait_ms.is_none() {
            admission_wait_ms = Some(accepted.elapsed().as_secs_f64() * 1e3);
        }
    });
    let ml_state = match &ml_id {
        Some(id) => client.wait_terminal(&format!("/campaigns/{id}/status"), |_| ()),
        None => "rejected".into(),
    };
    let mut campaigns = Vec::new();
    for (id, spec) in member_ids.iter().zip(&members) {
        let csv = client.results_csv(id);
        // The rollup is `done` only when every member is.
        campaigns.push(ServedCampaign {
            id: id.clone(),
            spec: spec.clone(),
            kind: Kind::Plain,
            csv,
            state: sweep_state.clone(),
        });
    }
    if let Some(id) = &ml_id {
        let csv = client.results_csv(id);
        campaigns.push(ServedCampaign {
            id: id.clone(),
            spec: ml_spec,
            kind: Kind::Ml,
            csv,
            state: ml_state,
        });
    }
    o.tracer.close(window);
    let measured = clocks.close();

    client.tally.check(member_ids.len() == members.len(), || {
        format!(
            "scenario receipt names {} campaigns, grammar expands to {}",
            member_ids.len(),
            members.len()
        )
    });
    let served = Served {
        campaigns,
        admission_wait_ms,
    };
    Ok(finish_service(svc, client, served, setup_s, measured))
}

fn fleet_unit(o: &UnitOpts<'_>, unit: Option<SpanId>) -> Result<UnitOut, String> {
    let t_setup = Instant::now();
    set_up(o, unit)?;
    let svc = o.tracer.span("setup.daemon", "", unit, |_| {
        Service::start(o.workload, &o.dir.join("root"), o.max_campaigns)
    })?;
    let specs = campaign_specs(o.workload, o.seed);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let clocks = Window::open();
    let window = o.tracer.open("window", "", unit);
    let mut client = Client::new(&svc.addr, o.tracer, window);
    let ids: Vec<Option<String>> = specs
        .iter()
        .map(|spec| {
            client
                .post("submit", "/campaigns", &spec.to_json())
                .as_ref()
                .map(receipt_ids)
                .and_then(|ids| ids.into_iter().next())
        })
        .collect();
    let mut campaigns = Vec::new();
    for (id, spec) in ids.into_iter().zip(&specs) {
        let Some(id) = id else { continue };
        let state = client.wait_terminal(&format!("/campaigns/{id}/status"), |_| ());
        campaigns.push(ServedCampaign {
            id,
            spec: spec.clone(),
            kind: Kind::Fleet,
            csv: String::new(),
            state,
        });
    }
    for c in &mut campaigns {
        c.csv = client.results_csv(&c.id);
    }
    o.tracer.close(window);
    let measured = clocks.close();

    client.tally.check(campaigns.len() == specs.len(), || {
        format!("{} of {} campaigns accepted", campaigns.len(), specs.len())
    });
    let served = Served {
        campaigns,
        admission_wait_ms: None,
    };
    Ok(finish_service(svc, client, served, setup_s, measured))
}
