//! The campaign description: the JSON body of `POST /campaigns`, and the
//! form every other door (fleet lease, `fastfit-cli` flags, `resume`,
//! `experiments`) builds before resolving a campaign.
//!
//! A spec carries exactly the knobs that shape *which* campaign runs. The
//! three a host may default — `ranks`, `trials` and `class` — are pinned
//! from the environment once, where the spec enters
//! ([`crate::workload::pin_spec`]); everything else defaults to a
//! constant. A pinned spec resolves to the same `CampaignMeta`, the same
//! campaign ID and a byte-identical journal in any process, whatever its
//! environment and whichever door the spec came in by.

use fastfit::prelude::{FaultChannel, MlConfig, ParamsMode};
use fastfit_store::journal::CampaignMeta;
use fastfit_store::json::Json;
use npb::Class;
use simmpi::hook::CollKind;

/// A campaign submission. `ranks`, `trials` and `class` left unset are
/// pinned from the environment of the process the spec enters; every
/// other unset knob takes a constant default.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Workload name: `IS`/`FT`/`MG`/`LU`/`CG`/`HALO` or `LAMMPS`.
    pub workload: String,
    /// Ranks per job; pinned from `FASTFIT_RANKS` (rounded down to a
    /// power of two, 2..=16) when unset.
    pub ranks: Option<usize>,
    /// Trials per injection point; pinned from `FASTFIT_TRIALS` (else 24)
    /// when unset.
    pub trials: Option<usize>,
    /// NPB problem class; pinned from `FASTFIT_CLASS` (else `mini`) when
    /// unset. LAMMPS has no classes and ignores it.
    pub class: Option<Class>,
    /// Parameter mode token (`data`, `all`, `only:...`); default `data`.
    pub params: Option<ParamsMode>,
    /// Fault channel; default `param`.
    pub fault_channel: Option<FaultChannel>,
    /// Run on the resilient transport; default the plain one.
    pub resilient: Option<bool>,
    /// Campaign seed override (fault-bit selection).
    pub seed: Option<u64>,
    /// Application seed override (golden and injected runs).
    pub app_seed: Option<u64>,
    /// LAMMPS run length; default 10 (ignored for NPB kernels).
    pub steps: Option<usize>,
    /// Collective subset (`MPI_*` names): measure only points at these
    /// collective kinds. `None` measures every kind the pruner keeps.
    pub colls: Option<Vec<CollKind>>,
    /// ML feedback loop: measure until held-out accuracy passes this
    /// threshold, predict the rest. Present ⇒ ML-driven campaign.
    pub ml_threshold: Option<f64>,
    /// Fault-timeline token (`single`, `burst:W[:G]`, `cascade:D`,
    /// `heal:D`, `+`-joined); default `single`. Validated at submission;
    /// a non-single timeline pins the campaign's fault channel to the
    /// timeline's primary channel.
    pub timeline: Option<String>,
    /// Warm-start the ML loop from a registered sensitivity model:
    /// a 64-hex model ID, or `"auto"` to use the newest registered
    /// model whose feature schema and target match. Requires
    /// `ml_threshold`. Warm campaigns order pending points by vote
    /// entropy.
    pub warm_start: Option<String>,
    /// The point set a plain campaign measures; default
    /// [`PointSet::Pruned`]. An ML campaign works through
    /// [`PointSet::Invocations`] whatever this says, and refuses `pruned`.
    pub points: Option<PointSet>,
}

/// Which injection points a campaign measures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PointSet {
    /// `Campaign::points`: the set left after semantic and context
    /// pruning.
    #[default]
    Pruned,
    /// `Campaign::invocation_points`: every invocation of every call site
    /// on the representative ranks, after semantic pruning only.
    Invocations,
}

impl PointSet {
    /// The spec token: `pruned` or `invocations`.
    pub fn token(self) -> &'static str {
        match self {
            PointSet::Pruned => "pruned",
            PointSet::Invocations => "invocations",
        }
    }

    /// The point set a token names.
    pub fn from_token(tok: &str) -> Option<PointSet> {
        match tok {
            "pruned" => Some(PointSet::Pruned),
            "invocations" => Some(PointSet::Invocations),
            _ => None,
        }
    }
}

impl CampaignSpec {
    /// The JSON keys of a spec, one per field: every key
    /// [`CampaignSpec::from_json`] accepts and [`CampaignSpec::to_json`]
    /// may write.
    pub const FIELDS: [&'static str; 15] = [
        "workload",
        "ranks",
        "trials",
        "class",
        "params",
        "fault_channel",
        "resilient",
        "seed",
        "app_seed",
        "steps",
        "colls",
        "ml_threshold",
        "timeline",
        "warm_start",
        "points",
    ];

    /// A plain spec for `workload` with every knob defaulted.
    pub fn new(workload: impl Into<String>) -> CampaignSpec {
        CampaignSpec {
            workload: workload.into(),
            ranks: None,
            trials: None,
            class: None,
            params: None,
            fault_channel: None,
            resilient: None,
            seed: None,
            app_seed: None,
            steps: None,
            colls: None,
            ml_threshold: None,
            timeline: None,
            warm_start: None,
            points: None,
        }
    }

    /// The spec of a journaled campaign, for `resume`: every identity knob
    /// the journal records is given explicitly, so the resuming
    /// environment's defaults cannot change it (a journal without a
    /// `class` key is read as `mini`; one from before classes were
    /// journaled is sampled against that by
    /// `CampaignStore::check_class`). LAMMPS' run length and the point set
    /// are not journaled (`steps` and `points` stay unset) and an ML
    /// campaign gets the default threshold; a campaign that ran with other
    /// values needs them re-given, and a wrong one is refused by the
    /// campaign-ID check.
    pub fn from_meta(meta: &CampaignMeta) -> Result<CampaignSpec, String> {
        let params = ParamsMode::from_token(&meta.params)
            .ok_or_else(|| format!("journal has unknown params mode {:?}", meta.params))?;
        let class = match &meta.class {
            None => Class::default(),
            Some(tok) => Class::from_token(tok)
                .ok_or_else(|| format!("journal has unknown problem class {tok:?}"))?,
        };
        let colls = match &meta.colls {
            None => None,
            Some(names) => Some(
                names
                    .iter()
                    .map(|n| {
                        CollKind::from_name(n)
                            .ok_or_else(|| format!("journal has unknown collective {n:?}"))
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            ),
        };
        Ok(CampaignSpec {
            workload: meta.workload.clone(),
            ranks: Some(meta.nranks),
            trials: Some(meta.trials_per_point),
            class: Some(class),
            params: Some(params),
            fault_channel: Some(meta.fault_channel),
            resilient: Some(meta.resilient),
            seed: Some(meta.campaign_seed),
            app_seed: Some(meta.app_seed),
            steps: None,
            colls,
            ml_threshold: meta
                .ml
                .as_ref()
                .map(|_| MlConfig::default().accuracy_threshold),
            timeline: Some(meta.timeline.token().to_string()),
            warm_start: meta.ml.as_ref().and_then(|ml| ml.warm.clone()),
            points: None,
        })
    }

    /// Encode as JSON (optional fields omitted when unset, so the queue
    /// log stays minimal and stable).
    pub fn to_json(&self) -> Json {
        let mut m = std::collections::BTreeMap::new();
        m.insert("workload".into(), Json::Str(self.workload.clone()));
        if let Some(r) = self.ranks {
            m.insert("ranks".into(), Json::U64(r as u64));
        }
        if let Some(t) = self.trials {
            m.insert("trials".into(), Json::U64(t as u64));
        }
        if let Some(c) = self.class {
            m.insert("class".into(), Json::Str(c.token().into()));
        }
        if let Some(p) = &self.params {
            m.insert("params".into(), Json::Str(p.token()));
        }
        if let Some(c) = self.fault_channel {
            m.insert("fault_channel".into(), Json::Str(c.token().into()));
        }
        if let Some(r) = self.resilient {
            m.insert("resilient".into(), Json::Bool(r));
        }
        if let Some(s) = self.seed {
            m.insert("seed".into(), Json::U64(s));
        }
        if let Some(s) = self.app_seed {
            m.insert("app_seed".into(), Json::U64(s));
        }
        if let Some(s) = self.steps {
            m.insert("steps".into(), Json::U64(s as u64));
        }
        if let Some(colls) = &self.colls {
            m.insert(
                "colls".into(),
                Json::Arr(
                    colls
                        .iter()
                        .map(|k| Json::Str(k.name().to_string()))
                        .collect(),
                ),
            );
        }
        if let Some(t) = self.ml_threshold {
            m.insert("ml_threshold".into(), Json::F64(t));
        }
        if let Some(t) = &self.timeline {
            m.insert("timeline".into(), Json::Str(t.clone()));
        }
        if let Some(w) = &self.warm_start {
            m.insert("warm_start".into(), Json::Str(w.clone()));
        }
        if let Some(p) = self.points {
            m.insert("points".into(), Json::Str(p.token().into()));
        }
        Json::Obj(m)
    }

    /// Decode from JSON. Unknown keys are rejected — a typo'd knob
    /// silently ignored would run the *wrong campaign* and journal it
    /// durably, the worst possible failure mode for a submission API.
    pub fn from_json(v: &Json) -> Result<CampaignSpec, String> {
        let Json::Obj(m) = v else {
            return Err("campaign spec must be a JSON object".into());
        };
        for key in m.keys() {
            if !CampaignSpec::FIELDS.contains(&key.as_str()) {
                return Err(format!("unknown spec field {key:?}"));
            }
        }
        let workload = v
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("spec needs a \"workload\" string")?
            .to_string();
        let number = |k| field(v, k, "a non-negative integer", Json::as_u64);
        let token = |k| field(v, k, "a string token", Json::as_str);
        let class = token("class")?
            .map(|tok| {
                Class::from_token(tok)
                    .ok_or_else(|| format!("unknown class {tok:?} (mini|small|standard)"))
            })
            .transpose()?;
        let params = token("params")?
            .map(|tok| ParamsMode::from_token(tok).ok_or_else(|| format!("unknown params {tok:?}")))
            .transpose()?;
        let fault_channel = token("fault_channel")?
            .map(|tok| {
                FaultChannel::from_token(tok).ok_or_else(|| {
                    format!("unknown fault_channel {tok:?} (param|message|crash-stop|fail-slow|partition)")
                })
            })
            .transpose()?;
        let points = token("points")?
            .map(|tok| {
                PointSet::from_token(tok)
                    .ok_or_else(|| format!("unknown points {tok:?} (pruned|invocations)"))
            })
            .transpose()?;
        let colls = match v.get("colls") {
            None => None,
            Some(Json::Arr(items)) => {
                if items.is_empty() {
                    return Err("\"colls\" must name at least one collective".into());
                }
                Some(
                    items
                        .iter()
                        .map(|it| {
                            let name = it
                                .as_str()
                                .ok_or("\"colls\" entries must be MPI_* name strings")?;
                            CollKind::from_name(name)
                                .ok_or_else(|| format!("unknown collective {name:?}"))
                        })
                        .collect::<Result<Vec<_>, String>>()?,
                )
            }
            Some(_) => return Err("\"colls\" must be an array of MPI_* names".into()),
        };
        Ok(CampaignSpec {
            workload,
            ranks: number("ranks")?.map(|n| n as usize),
            trials: number("trials")?.map(|n| n as usize),
            class,
            params,
            fault_channel,
            resilient: field(v, "resilient", "a boolean", Json::as_bool)?,
            seed: number("seed")?,
            app_seed: number("app_seed")?,
            steps: number("steps")?.map(|n| n as usize),
            colls,
            ml_threshold: field(v, "ml_threshold", "a number", Json::as_f64)?,
            timeline: token("timeline")?.map(String::from),
            warm_start: field(v, "warm_start", "a model ID or \"auto\"", Json::as_str)?
                .map(String::from),
            points,
        })
    }
}

/// Key `k` of `v`, if present, as `read` makes it; an error naming the key
/// and what it `must` be when `read` refuses it.
fn field<'a, T>(
    v: &'a Json,
    k: &str,
    must: &str,
    read: impl Fn(&'a Json) -> Option<T>,
) -> Result<Option<T>, String> {
    v.get(k)
        .map(|x| read(x).ok_or_else(|| format!("{k:?} must be {must}")))
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_spec_roundtrips() {
        let spec = CampaignSpec::new("IS");
        let back = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        // Optional fields are omitted from the wire form entirely.
        assert_eq!(spec.to_json().encode(), "{\"workload\":\"IS\"}");
    }

    #[test]
    fn full_spec_roundtrips() {
        let spec = CampaignSpec {
            workload: "LAMMPS".into(),
            ranks: Some(8),
            trials: Some(12),
            class: Some(Class::Standard),
            params: Some(ParamsMode::All),
            fault_channel: Some(FaultChannel::Message),
            resilient: Some(true),
            seed: Some(0xFA57),
            app_seed: Some(0x5EED),
            steps: Some(6),
            colls: Some(vec![CollKind::Allreduce, CollKind::Bcast]),
            ml_threshold: Some(0.65),
            timeline: None,
            warm_start: Some("auto".into()),
            points: Some(PointSet::Invocations),
        };
        let back = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        assert!(spec
            .to_json()
            .encode()
            .contains("\"colls\":[\"MPI_Allreduce\",\"MPI_Bcast\"]"));
        assert!(spec.to_json().encode().contains("\"class\":\"standard\""));
        assert!(spec
            .to_json()
            .encode()
            .contains("\"points\":\"invocations\""));
        let full = CampaignSpec {
            timeline: Some("single".into()),
            ..spec.clone()
        };
        let Json::Obj(keys) = full.to_json() else {
            panic!("a spec encodes as an object")
        };
        assert!(keys.keys().eq(CampaignSpec::FIELDS
            .iter()
            .copied()
            .collect::<std::collections::BTreeSet<_>>()));
        for (key, bad) in [("class", "smal"), ("points", "all")] {
            let bad = Json::parse(&format!("{{\"workload\":\"IS\",\"{key}\":\"{bad}\"}}")).unwrap();
            assert!(CampaignSpec::from_json(&bad).unwrap_err().contains(key));
        }
    }

    #[test]
    fn timeline_token_roundtrips() {
        let spec = CampaignSpec {
            timeline: Some("burst:4+heal:6".into()),
            fault_channel: Some(FaultChannel::Message),
            ..CampaignSpec::new("IS")
        };
        let enc = spec.to_json().encode();
        assert!(enc.contains("\"timeline\":\"burst:4+heal:6\""), "{enc}");
        let back = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        let bad = Json::parse("{\"workload\":\"IS\",\"timeline\":7}").unwrap();
        assert!(CampaignSpec::from_json(&bad).is_err());
    }

    #[test]
    fn rank_fault_channel_tokens_parse() {
        for tok in ["crash-stop", "fail-slow", "partition"] {
            let v = Json::parse(&format!(
                "{{\"workload\":\"IS\",\"fault_channel\":\"{tok}\"}}"
            ))
            .unwrap();
            let spec = CampaignSpec::from_json(&v).unwrap();
            assert_eq!(spec.fault_channel.map(FaultChannel::token), Some(tok));
        }
    }

    #[test]
    fn bad_colls_are_rejected() {
        for body in [
            "{\"workload\":\"IS\",\"colls\":[]}",
            "{\"workload\":\"IS\",\"colls\":[\"MPI_Sendrecv\"]}",
            "{\"workload\":\"IS\",\"colls\":7}",
            "{\"workload\":\"IS\",\"colls\":[3]}",
        ] {
            let v = Json::parse(body).unwrap();
            assert!(CampaignSpec::from_json(&v).is_err(), "{body}");
        }
    }

    #[test]
    fn warm_start_token_roundtrips() {
        let spec = CampaignSpec {
            ml_threshold: Some(0.6),
            warm_start: Some("auto".into()),
            ..CampaignSpec::new("FT")
        };
        let enc = spec.to_json().encode();
        assert!(enc.contains("\"warm_start\":\"auto\""), "{enc}");
        assert_eq!(CampaignSpec::from_json(&spec.to_json()).unwrap(), spec);
        let bad = Json::parse("{\"workload\":\"IS\",\"warm_start\":3}").unwrap();
        assert!(CampaignSpec::from_json(&bad).is_err());
    }

    /// `resume` rebuilds a campaign from its journal: the spec
    /// `from_meta` recovers must resolve back to the very same meta.
    #[test]
    fn journaled_meta_resolves_back_to_itself() {
        use crate::workload::{campaign_identity, resolve_config, resolve_workload};
        use fastfit::prelude::Campaign;
        let meta_of = |spec: &CampaignSpec| {
            let c = Campaign::prepare(resolve_workload(spec), resolve_config(spec));
            campaign_identity(&c, spec, spec.warm_start.clone(), None).1
        };
        let base = CampaignSpec {
            ranks: Some(4),
            trials: Some(1),
            ..CampaignSpec::new("IS")
        };
        let mut specs = Vec::new();
        for channel in ["param", "message", "crash-stop", "fail-slow", "partition"] {
            for resilient in [false, true] {
                specs.push(CampaignSpec {
                    fault_channel: FaultChannel::from_token(channel),
                    resilient: Some(resilient),
                    ..base.clone()
                });
            }
        }
        specs.push(CampaignSpec {
            timeline: Some("burst:4".into()),
            seed: Some(99),
            app_seed: Some(5),
            ..base.clone()
        });
        specs.push(CampaignSpec {
            colls: Some(vec![CollKind::Allreduce, CollKind::Alltoallv]),
            ..base.clone()
        });
        for params in ["all", "only:sendbuf+count"] {
            specs.push(CampaignSpec {
                params: ParamsMode::from_token(params),
                ..base.clone()
            });
        }
        for class in [Class::Small, Class::Standard] {
            specs.push(CampaignSpec {
                class: Some(class),
                ..base.clone()
            });
        }
        let ml = CampaignSpec {
            ml_threshold: Some(MlConfig::default().accuracy_threshold),
            ..base.clone()
        };
        specs.push(ml.clone());
        specs.push(CampaignSpec {
            warm_start: Some("a".repeat(64)),
            ..ml
        });
        for spec in &specs {
            let m = meta_of(spec);
            let back = CampaignSpec::from_meta(&m).expect("journaled meta converts");
            assert_eq!(meta_of(&back), m, "{spec:?}");
        }
    }

    #[test]
    fn unknown_fields_and_bad_types_are_rejected() {
        let bad = Json::parse("{\"workload\":\"IS\",\"trails\":4}").unwrap();
        assert!(CampaignSpec::from_json(&bad)
            .unwrap_err()
            .contains("trails"));
        let bad = Json::parse("{\"workload\":\"IS\",\"fault_channel\":\"radio\"}").unwrap();
        assert!(CampaignSpec::from_json(&bad).is_err());
        let bad = Json::parse("{\"ranks\":4}").unwrap();
        assert!(CampaignSpec::from_json(&bad).is_err());
        let bad = Json::parse("[1,2]").unwrap();
        assert!(CampaignSpec::from_json(&bad).is_err());
    }
}
