//! Running a prepared campaign: the one path from a [`Campaign`] and its
//! [`CampaignSpec`] to a journaled result.
//!
//! The daemon's runners, `fastfit-cli campaign`/`resume` and every whole
//! campaign of the `experiments` binary run a campaign here. A run takes
//! two steps, so a caller can report between them:
//!
//! - [`CampaignRun::open`] resolves what the spec adds to the prepared
//!   campaign — the point set, the ML target, the warm-start model (a
//!   journaled ID wins over `auto`) and the ML order (a journal's recorded
//!   one, else the one the warm start implies) — derives the campaign
//!   identity from them and opens the store under it (`open_store`).
//! - [`CampaignRun::measure`] runs every trial of the points `open`
//!   resolved, through the ML feedback loop when the spec asks for it. A
//!   stop (the campaign's cancel token) comes back as [`Ran::Stopped`] and
//!   the caller checkpoints the store in whichever state its stop means; a
//!   finished campaign has its `results.csv` written (`write_results`) and
//!   its store finished.

use crate::spec::CampaignSpec;
use crate::workload::{campaign_identity, register_model, resolve_ml, resolve_warm_start};
use fastfit::observe::{CampaignObserver, CampaignPhase, ProgressEvent};
use fastfit::prelude::{
    points_csv, ActiveOptions, Campaign, CampaignResult, InjectionPoint, MlConfig, MlOrdering,
    MlOutcome, MlTarget, PointResult, TrialDisposition,
};
use fastfit_mlstore::{ModelRegistry, StoredModel};
use fastfit_store::durable::replace_file;
use fastfit_store::journal::CampaignMeta;
use fastfit_store::{read_store_meta, CampaignStore, StoreError};
use std::path::Path;

/// The per-point export a finished campaign leaves in its directory.
pub const RESULTS_FILE: &str = "results.csv";

/// Open (or resume) the store in `dir` for a prepared campaign over
/// `points`: refuse a directory holding another campaign, a journal
/// another random stream drew or a class-less journal written at another
/// class, and backfill the profile phase's timing (the golden run ran
/// during prepare, before the store existed).
fn open_store(
    dir: &Path,
    campaign: &Campaign,
    points: &[InjectionPoint],
    meta: CampaignMeta,
) -> Result<CampaignStore, StoreError> {
    let seed = match meta.ml {
        Some(_) => Campaign::invocation_seed,
        None => Campaign::point_seed,
    };
    let store = CampaignStore::open(dir, meta)?;
    // The stream first: a journal another generator drew reproduces at no
    // class, and its bits are checked without running a trial.
    store.check_stream(campaign, points, seed)?;
    store.check_class(campaign, points)?;
    store.on_event(&ProgressEvent::PhaseFinished {
        phase: CampaignPhase::Profile,
        wall: campaign.golden_wall,
    });
    Ok(store)
}

/// Write `campaign`'s `results.csv` into `dir` atomically and durably: a
/// reader sees no file or the whole export, and once this returns the
/// export survives a crash.
pub(crate) fn write_results(
    dir: &Path,
    campaign: &Campaign,
    results: &[PointResult],
) -> Result<(), String> {
    let csv = points_csv(results, campaign.cfg.fault_channel);
    replace_file(&dir.join(RESULTS_FILE), csv.as_bytes())
        .map_err(|e| format!("cannot write {RESULTS_FILE}: {e}"))
}

/// A prepared campaign with everything its spec adds resolved and its
/// store (if any) open, ready to [`measure`](CampaignRun::measure). Only
/// [`open`](CampaignRun::open) builds one; its public fields are what it
/// resolved, for the caller to report.
pub struct CampaignRun<'a> {
    campaign: &'a Campaign,
    /// The ML target and loop configuration, for an ML campaign.
    pub ml: Option<(MlTarget, MlConfig)>,
    /// The resolved warm-start model.
    pub prior: Option<StoredModel>,
    ordering: MlOrdering,
    /// The points the campaign measures (an ML campaign's population).
    pub points: Vec<InjectionPoint>,
    /// The campaign ID of the resolved identity: the store's, when one is
    /// open.
    pub id: String,
    /// The open store, when the run is journaled.
    pub store: Option<CampaignStore>,
    registry: Option<&'a ModelRegistry>,
}

/// How [`CampaignRun::measure`] ended. Both carry what was measured.
pub enum Ran {
    /// Every trial ran; `results.csv` is written and the store finished.
    Done {
        result: CampaignResult,
        ml: Option<MlOutcome>,
    },
    /// The cancel token stopped the campaign at a trial boundary. The
    /// store is left for the caller to checkpoint.
    Stopped {
        result: CampaignResult,
        ml: Option<MlOutcome>,
    },
}

impl<'a> CampaignRun<'a> {
    /// Resolve `spec`'s ML target, warm start and ML order for the
    /// prepared `campaign` and open its store in `dir` (none: the campaign
    /// runs unjournaled). `registry` supplies the warm-start model and
    /// receives each feedback round's forest; a warm start needs one.
    pub fn open(
        campaign: &'a Campaign,
        spec: &CampaignSpec,
        dir: Option<&Path>,
        registry: Option<&'a ModelRegistry>,
    ) -> Result<CampaignRun<'a>, String> {
        let ml = resolve_ml(spec);
        // What an ML journal already in `dir` pins: its warm-start model
        // and its ML order (none recorded means scan).
        let journaled = dir
            .filter(|_| ml.is_some())
            .and_then(|d| read_store_meta(d).ok()?.1.ml);
        let order = match journaled.as_ref().map(|j| j.order.as_deref()) {
            None => None,
            Some(None) => Some(MlOrdering::Scan),
            Some(Some(tok)) => Some(
                MlOrdering::from_token(tok)
                    .ok_or_else(|| format!("journal has unknown ml ordering {tok:?}"))?,
            ),
        };
        // The warm start resolves before the store opens: the model ID
        // joins the campaign identity.
        let prior = match (&ml, &spec.warm_start) {
            (Some((target, _)), Some(w)) => {
                let reg = registry.ok_or("warm_start needs a model registry")?;
                let pinned = journaled.as_ref().and_then(|j| j.warm.as_deref());
                Some(resolve_warm_start(reg, w, *target, pinned)?)
            }
            _ => None,
        };
        let warm = prior.as_ref().map(StoredModel::id);
        let (points, meta, ordering) = campaign_identity(campaign, spec, warm, order);
        let id = meta.campaign_id();
        let store = dir
            .map(|d| {
                open_store(d, campaign, &points, meta)
                    .map_err(|e| format!("cannot open store {}: {}", d.display(), e))
            })
            .transpose()?;
        Ok(CampaignRun {
            campaign,
            ml,
            prior,
            ordering,
            points,
            id,
            store,
            registry,
        })
    }

    /// Run the campaign, journaling every trial to the store and telling
    /// `tee` every progress event first. Errs only when a finished
    /// campaign's `results.csv` or final store flush fails.
    pub fn measure(&self, tee: &dyn CampaignObserver) -> Result<Ran, String> {
        let observer = Journaled {
            store: self.store.as_ref(),
            tee,
        };
        let c = self.campaign;
        let (result, ml) = match &self.ml {
            None => (c.run_points_observed(&self.points, &observer), None),
            Some((target, ml_cfg)) => {
                let opts = ActiveOptions {
                    prior: self.prior.as_ref().map(|m| &m.forest),
                    ordering: self.ordering,
                };
                let (result, out) = c.run_ml_loop(
                    &self.points,
                    Campaign::invocation_seed,
                    *target,
                    ml_cfg,
                    opts,
                    &observer,
                    &mut |_, forest| {
                        let Some(reg) = self.registry else { return };
                        if let Err(e) = register_model(reg, c, *target, forest) {
                            eprintln!("warning: model registration failed: {e}");
                        }
                    },
                );
                (result, Some(out))
            }
        };
        if c.cancel_token().is_cancelled() {
            return Ok(Ran::Stopped { result, ml });
        }
        if let Some(store) = &self.store {
            write_results(store.dir(), c, &result.results)?;
            store
                .finish()
                .map_err(|e| format!("final store flush failed: {e}"))?;
        }
        Ok(Ran::Done { result, ml })
    }
}

/// The store journals and answers replays; the tee sees every event first.
struct Journaled<'a> {
    store: Option<&'a CampaignStore>,
    tee: &'a dyn CampaignObserver,
}

impl CampaignObserver for Journaled<'_> {
    fn replay(&self, point: &InjectionPoint, trial: usize, bit: u64) -> Option<TrialDisposition> {
        self.store?.replay(point, trial, bit)
    }

    fn on_event(&self, event: &ProgressEvent<'_>) {
        self.tee.on_event(event);
        if let Some(store) = self.store {
            store.on_event(event);
        }
    }
}
