//! One campaign run in-process: the `fastfit-cli campaign --store` path.
//!
//! `prepare → open store → run_all_observed → points_csv → finish`,
//! called through the crates' public functions and nothing else. Local
//! workloads run their units through here; service workloads use it
//! after the timed window for the single-host reference their journals
//! must equal.

use crate::trace::{SpanId, Tracer};
use fastfit::observe::{CampaignObserver, CampaignPhase, ProgressEvent};
use fastfit::prelude::{
    points_csv, Campaign, InjectionPoint, PointResult, Response, TrialDisposition,
};
use fastfit_serve::{resolve_config, resolve_workload, validate_spec, CampaignSpec};
use fastfit_store::{campaign_meta, CampaignStore};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// Short human label of a spec: `LAMMPS/16/param/plain`.
pub fn spec_label(spec: &CampaignSpec) -> String {
    let cfg = resolve_config(spec);
    format!(
        "{}/{}/{}/{}{}",
        spec.workload.to_uppercase(),
        spec.ranks.unwrap_or(0),
        cfg.fault_channel.token(),
        if cfg.resilient { "resilient" } else { "plain" },
        if cfg.timeline.is_single() {
            String::new()
        } else {
            format!("/{}", cfg.timeline.token())
        }
    )
}

/// One measured trial as the benchmark saw it from the observer seam.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialSample {
    /// Label of the campaign the trial belongs to.
    pub campaign: String,
    /// Gap since the previous `TrialFinished` returned (or since the
    /// measure loop started), milliseconds: the trial itself, without the
    /// store call that follows it.
    pub trial_ms: f64,
    /// Time inside `CampaignStore::on_event` for this trial,
    /// microseconds: journal append, telemetry, throttled status flush.
    pub store_us: f64,
    /// Classification (`None` = quarantined).
    pub response: Option<Response>,
    /// Extra supervised attempts.
    pub retries: u32,
}

/// Phase and call timings of one campaign, milliseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignTimings {
    /// Whole `Campaign::prepare_observed` call.
    pub prepare_ms: f64,
    /// The `Profile` phase it reported (golden recorded run).
    pub profile_ms: f64,
    /// The `Prune` phase it reported.
    pub prune_ms: f64,
    /// `CampaignStore::open`.
    pub open_ms: f64,
    /// `run_all_observed`.
    pub measure_ms: f64,
    /// `points_csv` + writing `results.csv`.
    pub export_ms: f64,
    /// `CampaignStore::finish`.
    pub finish_ms: f64,
}

/// What a local campaign run hands back.
pub struct LocalRun {
    /// Label ([`spec_label`]).
    pub label: String,
    /// Store directory (journal, status, results.csv).
    pub dir: PathBuf,
    /// Size of the unpruned space.
    pub points_full: u64,
    /// Per-point results.
    pub results: Vec<PointResult>,
    /// Whether the run was cut short (never, unless something cancels).
    pub cancelled: bool,
    /// Call timings.
    pub timings: CampaignTimings,
    /// Per-trial samples; empty on an untraced run.
    pub trials: Vec<TrialSample>,
}

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e3
}

/// Observer for `prepare_observed`: turns the `Profile` and `Prune`
/// phase reports into spans and timings.
struct PhaseObserver<'a> {
    tracer: &'a Tracer,
    label: &'a str,
    parent: Option<SpanId>,
    phases: Mutex<(f64, f64)>,
}

impl CampaignObserver for PhaseObserver<'_> {
    fn on_event(&self, event: &ProgressEvent<'_>) {
        if let ProgressEvent::PhaseFinished { phase, wall } = event {
            let end = Instant::now();
            let name = match phase {
                CampaignPhase::Profile => "core.profile",
                CampaignPhase::Prune => "core.prune",
                _ => return,
            };
            // The phase is reported when it ends; it began `wall` ago.
            let start = end.checked_sub(*wall).unwrap_or(end);
            self.tracer
                .record(name, self.label, self.parent, start, end);
            let mut p = self.phases.lock().expect("phase lock poisoned");
            match phase {
                CampaignPhase::Profile => p.0 = wall.as_secs_f64() * 1e3,
                _ => p.1 = wall.as_secs_f64() * 1e3,
            }
        }
    }
}

/// Observer for the measure loop on a traced run: forwards everything
/// to the store, timing each forwarded trial and the gap before it.
struct TimedStore<'a> {
    store: &'a CampaignStore,
    tracer: &'a Tracer,
    label: &'a str,
    parent: Option<SpanId>,
    state: Mutex<(Instant, Vec<TrialSample>)>,
}

impl CampaignObserver for TimedStore<'_> {
    fn replay(&self, point: &InjectionPoint, trial: usize, bit: u64) -> Option<TrialDisposition> {
        self.store.replay(point, trial, bit)
    }

    fn on_event(&self, event: &ProgressEvent<'_>) {
        let ProgressEvent::TrialFinished {
            disposition,
            retries,
            ..
        } = event
        else {
            self.store.on_event(event);
            // Anything the store does between trials (a forced status
            // flush at `MeasureStarted`) is not part of the next trial.
            self.state.lock().expect("sample lock poisoned").0 = Instant::now();
            return;
        };
        let arrived = Instant::now();
        self.store.on_event(event);
        let returned = Instant::now();
        let mut st = self.state.lock().expect("sample lock poisoned");
        let began = st.0;
        self.tracer
            .record("core.trial", self.label, self.parent, began, arrived);
        self.tracer
            .record("store.on_event", self.label, self.parent, arrived, returned);
        st.1.push(TrialSample {
            campaign: self.label.to_string(),
            trial_ms: arrived.duration_since(began).as_secs_f64() * 1e3,
            store_us: returned.duration_since(arrived).as_secs_f64() * 1e6,
            response: disposition.response(),
            retries: *retries,
        });
        st.0 = returned;
    }
}

/// Run `spec` to a finished store directory at `dir` with `results.csv`
/// beside the journal. With an enabled tracer every call is a span under
/// `parent` and every trial is sampled; with a disabled one the store
/// itself is the observer, exactly as the CLI wires it.
pub fn run_campaign(
    spec: &CampaignSpec,
    dir: &Path,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<LocalRun, String> {
    validate_spec(spec)?;
    let label = spec_label(spec);
    let root = tracer.open("campaign", &label, parent);
    let mut timings = CampaignTimings::default();

    let t = Instant::now();
    let prep = tracer.open("core.prepare", &label, root);
    let phases = PhaseObserver {
        tracer,
        label: &label,
        parent: prep,
        phases: Mutex::new((0.0, 0.0)),
    };
    let campaign =
        Campaign::prepare_observed(resolve_workload(spec), resolve_config(spec), &phases);
    tracer.close(prep);
    timings.prepare_ms = ms(t);
    (timings.profile_ms, timings.prune_ms) =
        phases.phases.into_inner().expect("phase lock poisoned");

    let t = Instant::now();
    let store = tracer.span("store.open", &label, root, |_| {
        let meta = campaign_meta(&campaign, campaign.points(), None);
        let store = CampaignStore::open(dir, meta).map_err(|e| e.to_string())?;
        // The profile phase ran before the store existed (its identity
        // needs the pruned points); backfill it as the CLI does.
        store.on_event(&ProgressEvent::PhaseFinished {
            phase: CampaignPhase::Profile,
            wall: campaign.golden_wall,
        });
        Ok::<_, String>(store)
    })?;
    timings.open_ms = ms(t);

    let t = Instant::now();
    let measure = tracer.open("core.measure", &label, root);
    let (result, trials) = if tracer.enabled() {
        let timed = TimedStore {
            store: &store,
            tracer,
            label: &label,
            parent: measure,
            state: Mutex::new((Instant::now(), Vec::new())),
        };
        let r = campaign.run_all_observed(&timed);
        (r, timed.state.into_inner().expect("sample lock poisoned").1)
    } else {
        (campaign.run_all_observed(&store), Vec::new())
    };
    tracer.close(measure);
    timings.measure_ms = ms(t);

    let t = Instant::now();
    tracer.span("core.export", &label, root, |_| {
        let csv = points_csv(&result.results, campaign.cfg.fault_channel);
        std::fs::write(dir.join("results.csv"), csv).map_err(|e| format!("results.csv: {e}"))
    })?;
    timings.export_ms = ms(t);

    let t = Instant::now();
    tracer.span("store.finish", &label, root, |_| {
        store.finish().map_err(|e| e.to_string())
    })?;
    timings.finish_ms = ms(t);
    tracer.close(root);

    Ok(LocalRun {
        label,
        dir: dir.to_path_buf(),
        points_full: campaign.full_points,
        results: result.results,
        cancelled: result.cancelled,
        timings,
        trials,
    })
}
