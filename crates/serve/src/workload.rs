//! Spec → `Workload`/`CampaignConfig` resolution: the one resolver, and
//! the one reader of the environment.
//!
//! Every door a campaign comes in by — `POST /campaigns`, a fleet lease,
//! `fastfit-cli` flags, `fastfit-cli resume` (a spec rebuilt from the
//! journal by [`CampaignSpec::from_meta`]) and the `experiments` binary —
//! describes it as a [`CampaignSpec`] and resolves it here. The three
//! identity knobs a host may default (`ranks`, `trials`, `class`) are
//! pinned from the environment by [`pin_spec`]; the daemon journals the
//! pinned spec, a fleet lease carries it and a journal's meta records it,
//! so a restart, a worker or a `resume` under another shell resolves the
//! same campaign. Everything else a spec leaves unset is a constant. The
//! resolved values are the campaign identity, so one resolver is what
//! makes "same campaign ⇒ same campaign ID ⇒ byte-identical journal" hold
//! across doors. Each door pins and then validates ([`validate_spec`]) up
//! front, so a bad submission — or a malformed `FASTFIT_*` value — is an
//! HTTP 400 (or a CLI exit 2), not a panic inside a runner thread.

use crate::spec::{CampaignSpec, PointSet};
use fastfit::prelude::{
    Campaign, CampaignConfig, FaultTimeline, InjectionPoint, MlConfig, MlOrdering, MlTarget,
    Workload, DEFAULT_APP_SEED, FEATURE_NAMES,
};
use fastfit_mlstore::{schema_hash, ModelRegistry, StoredModel};
use fastfit_store::journal::CampaignMeta;
use fastfit_store::{campaign_meta, ml_target_token, short_id, MlIdentity, StoreError};
use minimd::{md_app, MdConfig};
use npb::{kernel_by_name, Class, ALL_KERNELS};
use randomforest::RandomForest;

/// Default LAMMPS run length (the CLI's `--steps` default).
pub const DEFAULT_LAMMPS_STEPS: usize = 10;

/// What the environment of this process supplies: the three identity
/// defaults [`pin_spec`] fills in. The only reader of them. A variable is read
/// when its value is asked for, so one a spec does not need cannot refuse
/// it; an unset or empty one takes the built-in default and a malformed
/// one is an error naming it, never a silent fall-back.
struct EnvDefaults<'a> {
    var: &'a dyn Fn(&str) -> Option<String>,
}

fn process_var(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

impl EnvDefaults<'_> {
    /// This process's environment.
    fn load() -> EnvDefaults<'static> {
        EnvDefaults { var: &process_var }
    }

    /// `ranks`, else `FASTFIT_RANKS` (default 16) rounded down to a power
    /// of two and capped at 16 — FT's slab layout and MG's grid need the
    /// rank count to divide the problem edge — and at least 2.
    fn ranks(&self, ranks: Option<usize>) -> Result<usize, String> {
        if let Some(r) = ranks {
            return Ok(r);
        }
        let ranks = self
            .value("FASTFIT_RANKS", "an integer in 1..=256", |v| {
                v.parse::<usize>().ok().filter(|n| (1..=256).contains(n))
            })?
            .unwrap_or(16);
        let mut pow2 = 1usize;
        while pow2 * 2 <= ranks && pow2 * 2 <= 16 {
            pow2 *= 2;
        }
        Ok(pow2.max(2))
    }

    /// `trials`, else `FASTFIT_TRIALS`: trials per injection point.
    fn trials(&self, trials: Option<usize>) -> Result<usize, String> {
        match trials {
            Some(t) => Ok(t),
            None => Ok(self
                .value("FASTFIT_TRIALS", "a positive integer", |v| {
                    v.parse::<usize>().ok().filter(|&n| n > 0)
                })?
                .unwrap_or(CampaignConfig::default().trials_per_point)),
        }
    }

    /// `class`, else `FASTFIT_CLASS`: the NPB problem class.
    fn class(&self, class: Option<Class>) -> Result<Class, String> {
        match class {
            Some(c) => Ok(c),
            None => Ok(self
                .value(
                    "FASTFIT_CLASS",
                    "mini, small or standard",
                    Class::from_token,
                )?
                .unwrap_or_default()),
        }
    }

    /// One variable: `None` when unset or empty, an error naming it when
    /// `parse` refuses its value.
    fn value<T>(
        &self,
        name: &str,
        expected: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match (self.var)(name) {
            Some(v) if !v.is_empty() => parse(&v)
                .map(Some)
                .ok_or_else(|| format!("{name} must be {expected}, got {v:?}")),
            _ => Ok(None),
        }
    }

    /// The spec with its unset `ranks`, `trials` and `class` filled in.
    fn pin(&self, spec: &CampaignSpec) -> Result<CampaignSpec, String> {
        Ok(CampaignSpec {
            ranks: Some(self.ranks(spec.ranks)?),
            trials: Some(self.trials(spec.trials)?),
            class: Some(self.class(spec.class)?),
            ..spec.clone()
        })
    }
}

/// The spec with its unset `ranks`, `trials` and `class` filled from this
/// process's environment (`FASTFIT_RANKS`, `FASTFIT_TRIALS`,
/// `FASTFIT_CLASS`). Knobs the spec sets are kept, and their variables are
/// not read, so pinning a pinned spec changes nothing. Every door pins
/// once, where the spec enters, and then runs [`validate_spec`]; what is
/// journaled, leased or resumed from is the pinned spec. Errs, naming the
/// variable, when a default it reads is malformed.
pub fn pin_spec(spec: &CampaignSpec) -> Result<CampaignSpec, String> {
    EnvDefaults::load().pin(spec)
}

/// The resolvers' answer to a malformed value [`pin_spec`] refuses at the
/// door: they have no error to return.
fn unpinned<T>(e: String) -> T {
    panic!("{e}")
}

/// Validate a spec without building anything or reading the environment:
/// the submission-time check behind HTTP 400, run on the pinned spec.
/// Returns a human-readable reason on rejection.
pub fn validate_spec(spec: &CampaignSpec) -> Result<(), String> {
    let name = spec.workload.to_uppercase();
    if name != "LAMMPS" && !ALL_KERNELS.contains(&name.as_str()) {
        return Err(format!(
            "unknown workload {:?} (expected IS/FT/MG/LU/CG/HALO/LAMMPS)",
            spec.workload
        ));
    }
    if let Some(r) = spec.ranks {
        if !(1..=256).contains(&r) {
            return Err(format!("ranks must be in 1..=256, got {r}"));
        }
    }
    if spec.trials == Some(0) {
        return Err("trials must be at least 1".into());
    }
    if let Some(t) = spec.ml_threshold {
        if !(0.0..=1.0).contains(&t) {
            return Err(format!("ml_threshold must be in [0, 1], got {t}"));
        }
    }
    if spec.ml_threshold.is_some() && spec.points == Some(PointSet::Pruned) {
        return Err("points \"pruned\" cannot run an ML campaign: the ML loop works through the invocation points".into());
    }
    if let Some(w) = &spec.warm_start {
        if spec.ml_threshold.is_none() {
            return Err("warm_start requires ml_threshold (it warms the ML loop)".into());
        }
        let is_id = w.len() == 64 && w.bytes().all(|b| b.is_ascii_hexdigit());
        if w != "auto" && !is_id {
            return Err(format!(
                "warm_start must be \"auto\" or a 64-hex model ID, got {w:?}"
            ));
        }
    }
    if let Some(tok) = &spec.timeline {
        let timeline = FaultTimeline::parse(tok)?;
        // One message event alone is the message channel's single draw:
        // the same trials, so it gets one spelling and one campaign ID.
        if timeline.token() == "burst:1" {
            return Err(format!(
                "timeline {tok:?} is one message fault: submit fault_channel \"message\" with no timeline"
            ));
        }
        // A non-single timeline owns the channel: an explicit
        // fault_channel that disagrees with the first segment's channel
        // would silently journal a campaign the submitter did not ask
        // for, so it is refused instead of overridden.
        if let (Some(primary), Some(requested)) = (timeline.primary_channel(), spec.fault_channel) {
            if primary != requested {
                return Err(format!(
                    "timeline {:?} injects on the {} channel, but fault_channel says {}",
                    timeline.token(),
                    primary.token(),
                    requested.token()
                ));
            }
        }
    }
    Ok(())
}

/// What a golden run is a function of: the values [`resolve_workload`]
/// builds the workload from, resolved — the kernel, its problem class
/// (none for LAMMPS), the rank count, the run length (LAMMPS only) and the
/// app seed. Two specs with one key record the same golden run; nothing
/// else in a spec (channel, transport, timeline, params, collective
/// subset, trials, fault seed, ML knobs) reaches it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct GoldenKey {
    app: GoldenApp,
    ranks: usize,
    app_seed: u64,
}

/// The application half of a [`GoldenKey`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum GoldenApp {
    /// An NPB kernel (upper-case name) at a problem class.
    Kernel(String, Class),
    /// LAMMPS (miniMD) for a number of steps.
    Lammps(usize),
}

impl GoldenKey {
    /// Ranks per job.
    pub(crate) fn ranks(&self) -> usize {
        self.ranks
    }

    /// The workload this key describes.
    pub(crate) fn workload(&self) -> Workload {
        let mut w = match &self.app {
            GoldenApp::Kernel(name, class) => {
                let (app, tol) = kernel_by_name(name, *class);
                let mut w = Workload::new(name.clone(), app, tol, self.ranks);
                w.class = Some(class.token().to_string());
                w
            }
            GoldenApp::Lammps(steps) => {
                let app = md_app(MdConfig {
                    steps: *steps,
                    ..Default::default()
                });
                Workload::new("LAMMPS", app, minimd::OUTPUT_TOLERANCE, self.ranks)
            }
        };
        w.seed = self.app_seed;
        w
    }
}

/// The golden key of the spec, its unset knobs pinned as [`pin_spec`]
/// would. Panics where [`resolve_workload`] does.
pub(crate) fn golden_key(spec: &CampaignSpec) -> GoldenKey {
    let env = EnvDefaults::load();
    let ranks = env.ranks(spec.ranks).unwrap_or_else(unpinned);
    let app = if spec.workload.eq_ignore_ascii_case("lammps") {
        GoldenApp::Lammps(spec.steps.unwrap_or(DEFAULT_LAMMPS_STEPS))
    } else {
        let class = env.class(spec.class).unwrap_or_else(unpinned);
        GoldenApp::Kernel(spec.workload.to_uppercase(), class)
    };
    GoldenKey {
        app,
        ranks,
        app_seed: spec.app_seed.unwrap_or(DEFAULT_APP_SEED),
    }
}

/// Build the workload the spec names, its unset knobs pinned as
/// [`pin_spec`] would: the workload of its golden key. Call
/// [`validate_spec`] first; this panics on unknown workload names (as
/// `kernel_by_name` does) and on a malformed default it has to read.
pub fn resolve_workload(spec: &CampaignSpec) -> Workload {
    golden_key(spec).workload()
}

/// Build the campaign configuration of the spec: its knobs over
/// `CampaignConfig::default()` (unset trials pinned as [`pin_spec`]
/// would). Nothing else: how a trial is supervised is a constant of the
/// core, never this process's environment. Panics where [`pin_spec`] errs.
pub fn resolve_config(spec: &CampaignSpec) -> CampaignConfig {
    let mut cfg = CampaignConfig {
        trials_per_point: EnvDefaults::load()
            .trials(spec.trials)
            .unwrap_or_else(unpinned),
        ..CampaignConfig::default()
    };
    if let Some(p) = &spec.params {
        cfg.params = p.clone();
    }
    if let Some(c) = spec.fault_channel {
        cfg.fault_channel = c;
    }
    if let Some(r) = spec.resilient {
        cfg.resilient = r;
    }
    if let Some(s) = spec.seed {
        cfg.seed = s;
    }
    if let Some(colls) = &spec.colls {
        cfg.colls = Some(colls.clone());
    }
    if let Some(tok) = &spec.timeline {
        // validate_spec already vetted the token; `set_timeline` pins
        // cfg.fault_channel to the timeline's primary channel, so the
        // timeline override must come last.
        if let Ok(t) = FaultTimeline::parse(tok) {
            cfg.set_timeline(t);
        }
    }
    cfg
}

/// The ML target and configuration an ML-driven spec implies (the CLI's
/// `--ml --threshold T`). `None` for plain campaigns.
pub fn resolve_ml(spec: &CampaignSpec) -> Option<(MlTarget, MlConfig)> {
    spec.ml_threshold.map(|threshold| {
        (
            MlTarget::RateLevels(3),
            MlConfig {
                accuracy_threshold: threshold,
                ..Default::default()
            },
        )
    })
}

/// The points a prepared campaign measures, the journal meta its store
/// opens with, and the ML loop's pending-point order. The spec's point
/// set picks the points: the pruned [`Campaign::points`] by default, the
/// post-semantic [`Campaign::invocation_points`] population for
/// `invocations` and for every ML campaign. The meta names the set by its
/// point keys, so the set adds no key of its own. `warm` is the resolved
/// warm-start model ID. The order follows the warm start (entropy when
/// warm, the historic scan when cold) unless `order` — a journal's
/// recorded order, which the runner (`crate::run`) honours — says
/// otherwise.
pub fn campaign_identity(
    campaign: &Campaign,
    spec: &CampaignSpec,
    warm: Option<String>,
    order: Option<MlOrdering>,
) -> (Vec<InjectionPoint>, CampaignMeta, MlOrdering) {
    let ml = resolve_ml(spec);
    let points = match (&ml, spec.points.unwrap_or_default()) {
        (Some(_), _) | (None, PointSet::Invocations) => campaign.invocation_points(),
        (None, PointSet::Pruned) => campaign.points().to_vec(),
    };
    let ordering = order.unwrap_or(if warm.is_some() {
        MlOrdering::Entropy
    } else {
        MlOrdering::Scan
    });
    let meta = campaign_meta(
        campaign,
        &points,
        ml.as_ref().map(|(target, config)| MlIdentity {
            target: *target,
            config,
            warm,
            ordering,
        }),
    );
    (points, meta, ordering)
}

/// Resolve a spec's `warm_start` (`"auto"` or a model ID) to the registry
/// model it names, refusing one trained for another feature schema or
/// prediction target (the forest would panic on the wrong input width).
/// The resolved ID joins the campaign identity, so `auto` must pin down
/// to a concrete model — and a campaign whose journal already recorded one
/// (`journaled`) re-seeds from *that* model, not from whatever is newest
/// now: its own rounds (or a sibling campaign's) may have registered newer
/// compatible forests since, and re-resolving would change the campaign
/// ID and get the journal refused.
pub(crate) fn resolve_warm_start(
    registry: &ModelRegistry,
    warm: &str,
    target: MlTarget,
    journaled: Option<&str>,
) -> Result<StoredModel, String> {
    let schema = schema_hash(&FEATURE_NAMES);
    let target_token = ml_target_token(target);
    let id = match journaled.filter(|_| warm == "auto") {
        Some(id) => id.to_string(),
        None if warm == "auto" => registry
            .resolve_auto(&schema, &target_token)
            .map_err(|e| {
                format!(
                    "cannot read model registry {}: {e}",
                    registry.root().display()
                )
            })?
            .map(|entry| entry.id)
            .ok_or_else(|| {
                format!(
                    "warm_start \"auto\": no compatible model in {}",
                    registry.root().display()
                )
            })?,
        None => warm.to_string(),
    };
    let short = short_id(&id);
    let model = registry
        .get(&id)
        .map_err(|e| format!("warm_start model {short}: the registry cannot supply it ({e})"))?;
    if model.schema() != schema || model.target != target_token {
        return Err(format!(
            "warm_start model {short} has target {} over another feature schema; this campaign needs {target_token}",
            model.target
        ));
    }
    Ok(model)
}

/// Register a feedback round's forest under the campaign's key (workload,
/// channel, transport, target). A failure costs the model, never the
/// campaign: callers report it and carry on.
pub(crate) fn register_model(
    registry: &ModelRegistry,
    campaign: &Campaign,
    target: MlTarget,
    forest: &RandomForest,
) -> Result<(), StoreError> {
    let model = StoredModel {
        workload: campaign.workload.name.clone(),
        channel: campaign.cfg.fault_channel.token().to_string(),
        transport: if campaign.cfg.resilient {
            "resilient"
        } else {
            "plain"
        }
        .to_string(),
        target: ml_target_token(target),
        features: FEATURE_NAMES.iter().map(|s| s.to_string()).collect(),
        forest: forest.clone(),
    };
    registry.put(&model).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastfit::prelude::FaultChannel;

    /// An environment holding only `name=value`.
    fn only(name: &'static str, value: &'static str) -> impl Fn(&str) -> Option<String> {
        move |k: &str| (k == name).then(|| value.to_string())
    }

    #[test]
    fn environment_defaults_parse_strictly_and_name_the_variable() {
        let unset = EnvDefaults { var: &|_| None };
        assert_eq!(
            (unset.ranks(None), unset.trials(None), unset.class(None)),
            (Ok(16), Ok(24), Ok(Class::Mini))
        );
        // Empty is unset.
        let empty = EnvDefaults {
            var: &|_| Some(String::new()),
        };
        assert_eq!(empty.ranks(None), Ok(16));
        for (v, ranks) in [("12", 8), ("1", 2), ("64", 16)] {
            let var = only("FASTFIT_RANKS", v);
            assert_eq!(EnvDefaults { var: &var }.ranks(None), Ok(ranks), "{v}");
        }
        let var = only("FASTFIT_CLASS", "W");
        assert_eq!(EnvDefaults { var: &var }.class(None), Ok(Class::Small));
        for (name, bad) in [
            ("FASTFIT_RANKS", "0"),
            ("FASTFIT_RANKS", "300"),
            ("FASTFIT_TRIALS", "abc"),
            ("FASTFIT_TRIALS", "0"),
            ("FASTFIT_CLASS", "smal"),
        ] {
            let var = only(name, bad);
            let err = EnvDefaults { var: &var }
                .pin(&CampaignSpec::new("FT"))
                .expect_err(bad);
            assert!(err.contains(name) && err.contains(bad), "{err}");
        }
    }

    #[test]
    fn pinning_fills_only_unset_knobs() {
        let full = CampaignSpec {
            ranks: Some(4),
            trials: Some(2),
            class: Some(Class::Standard),
            ..CampaignSpec::new("FT")
        };
        assert_eq!(pin_spec(&full).unwrap(), full);
        // A knob the spec sets never reads its variable, so a malformed
        // default it does not need cannot refuse it.
        for (name, bad) in [
            ("FASTFIT_RANKS", "0"),
            ("FASTFIT_TRIALS", "abc"),
            ("FASTFIT_CLASS", "smal"),
        ] {
            let var = only(name, bad);
            assert_eq!(EnvDefaults { var: &var }.pin(&full), Ok(full.clone()));
        }
        let pinned = pin_spec(&CampaignSpec::new("FT")).unwrap();
        assert!(pinned.ranks.is_some() && pinned.trials.is_some() && pinned.class.is_some());
        assert_eq!(pin_spec(&pinned).unwrap(), pinned, "pinning is idempotent");
        // The class reaches NPB workloads only.
        assert_eq!(resolve_workload(&full).class.as_deref(), Some("standard"));
        let lammps = CampaignSpec {
            class: Some(Class::Standard),
            ..CampaignSpec::new("LAMMPS")
        };
        assert_eq!(resolve_workload(&lammps).class, None);
    }

    #[test]
    fn validation_catches_bad_specs() {
        assert!(validate_spec(&CampaignSpec::new("IS")).is_ok());
        assert!(validate_spec(&CampaignSpec::new("lammps")).is_ok());
        assert!(validate_spec(&CampaignSpec::new("HPL"))
            .unwrap_err()
            .contains("unknown workload"));
        let mut s = CampaignSpec::new("IS");
        s.trials = Some(0);
        assert!(validate_spec(&s).is_err());
        let mut s = CampaignSpec::new("IS");
        s.ranks = Some(0);
        assert!(validate_spec(&s).is_err());
        let mut s = CampaignSpec::new("IS");
        s.ml_threshold = Some(1.5);
        assert!(validate_spec(&s).is_err());
        s.ml_threshold = Some(0.65);
        s.points = Some(PointSet::Invocations);
        assert!(validate_spec(&s).is_ok());
        s.points = Some(PointSet::Pruned);
        assert!(validate_spec(&s).unwrap_err().contains("points"));
        // A lone one-event burst is the message channel's single draw.
        let mut s = CampaignSpec::new("IS");
        for tok in ["burst:1", "burst:1:5"] {
            s.timeline = Some(tok.into());
            let refused = validate_spec(&s).unwrap_err();
            assert!(refused.contains("fault_channel \"message\""), "{refused}");
        }
        s.timeline = Some("burst:1+heal:3".into());
        assert!(validate_spec(&s).is_ok());
    }

    #[test]
    fn warm_start_specs_validate() {
        // warm_start without ml_threshold is meaningless.
        let mut s = CampaignSpec::new("IS");
        s.warm_start = Some("auto".into());
        assert!(validate_spec(&s).unwrap_err().contains("ml_threshold"));
        s.ml_threshold = Some(0.65);
        assert!(validate_spec(&s).is_ok());
        // A 64-hex ID is fine; anything else is a 400.
        s.warm_start = Some("b".repeat(64));
        assert!(validate_spec(&s).is_ok());
        s.warm_start = Some("latest".into());
        assert!(validate_spec(&s).unwrap_err().contains("warm_start"));
        s.warm_start = Some("z".repeat(64));
        assert!(validate_spec(&s).is_err());
    }

    #[test]
    fn timeline_specs_validate_and_pin_the_channel() {
        let mut s = CampaignSpec::new("IS");
        s.timeline = Some("burst:4+heal:6".into());
        assert!(validate_spec(&s).is_ok());
        let cfg = resolve_config(&s);
        assert_eq!(cfg.timeline.token(), "burst:4+heal:6");
        assert_eq!(cfg.fault_channel, FaultChannel::Message);

        // The timeline's primary channel wins over an agreeing explicit
        // channel; a disagreeing one is a 400, not a silent override.
        s.fault_channel = Some(FaultChannel::Message);
        assert!(validate_spec(&s).is_ok());
        s.fault_channel = Some(FaultChannel::Param);
        assert!(validate_spec(&s).unwrap_err().contains("fault_channel"));

        let mut s = CampaignSpec::new("IS");
        s.timeline = Some("burst:0".into());
        assert!(validate_spec(&s).is_err());
        s.timeline = Some("single".into());
        s.fault_channel = Some(FaultChannel::Param);
        assert!(validate_spec(&s).is_ok(), "single constrains nothing");
        let cfg = resolve_config(&s);
        assert!(cfg.timeline.is_single());
        assert_eq!(cfg.fault_channel, FaultChannel::Param);
    }

    #[test]
    fn resolution_applies_spec_overrides() {
        let mut spec = CampaignSpec::new("is");
        spec.ranks = Some(4);
        spec.trials = Some(7);
        spec.fault_channel = Some(FaultChannel::Message);
        spec.resilient = Some(true);
        spec.seed = Some(99);
        spec.app_seed = Some(123);
        spec.colls = Some(vec![simmpi::hook::CollKind::Allreduce]);
        let w = resolve_workload(&spec);
        assert_eq!(w.name, "IS");
        assert_eq!(w.nranks, 4);
        assert_eq!(w.seed, 123);
        let cfg = resolve_config(&spec);
        assert_eq!(cfg.trials_per_point, 7);
        assert_eq!(cfg.fault_channel, FaultChannel::Message);
        assert!(cfg.resilient);
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.colls, Some(vec![simmpi::hook::CollKind::Allreduce]));
        assert!(resolve_ml(&spec).is_none());
        spec.ml_threshold = Some(0.6);
        let (target, ml) = resolve_ml(&spec).unwrap();
        assert_eq!(target, MlTarget::RateLevels(3));
        assert!((ml.accuracy_threshold - 0.6).abs() < 1e-12);
    }

    #[test]
    fn golden_key_is_what_the_workload_is_built_from() {
        use fastfit::prelude::GoldenRun;
        let is = CampaignSpec {
            ranks: Some(4),
            class: Some(Class::Mini),
            ..CampaignSpec::new("IS")
        };
        let lammps = CampaignSpec {
            ranks: Some(4),
            ..CampaignSpec::new("LAMMPS")
        };
        // Every field in the key changes it.
        for (spec, base) in [
            (
                CampaignSpec {
                    workload: "LU".into(),
                    ..is.clone()
                },
                &is,
            ),
            (lammps.clone(), &is),
            (
                CampaignSpec {
                    class: Some(Class::Small),
                    ..is.clone()
                },
                &is,
            ),
            (
                CampaignSpec {
                    ranks: Some(8),
                    ..is.clone()
                },
                &is,
            ),
            (
                CampaignSpec {
                    app_seed: Some(7),
                    ..is.clone()
                },
                &is,
            ),
            (
                CampaignSpec {
                    steps: Some(3),
                    ..lammps.clone()
                },
                &lammps,
            ),
        ] {
            assert_ne!(golden_key(&spec), golden_key(base), "{spec:?}");
        }
        // Specs that spell one key differently — a default written out, a
        // knob the workload ignores — record the same golden run.
        for (a, b) in [
            (
                is.clone(),
                CampaignSpec {
                    workload: "is".into(),
                    steps: Some(3),
                    app_seed: Some(DEFAULT_APP_SEED),
                    ..is.clone()
                },
            ),
            (
                lammps.clone(),
                CampaignSpec {
                    steps: Some(DEFAULT_LAMMPS_STEPS),
                    class: Some(Class::Small),
                    ..lammps.clone()
                },
            ),
        ] {
            assert_eq!(golden_key(&a), golden_key(&b), "{b:?}");
            let ga = GoldenRun::record(&resolve_workload(&a));
            let gb = GoldenRun::record(&resolve_workload(&b));
            assert_eq!(ga.golden, gb.golden);
            assert_eq!(ga.golden_ops, gb.golden_ops);
            assert_eq!(
                format!("{:?}", ga.profile.records),
                format!("{:?}", gb.profile.records)
            );
        }
    }
}
