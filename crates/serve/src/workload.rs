//! Spec → `Workload`/`CampaignConfig` resolution.
//!
//! This mirrors `fastfit-cli`'s flag handling exactly — same builders,
//! same environment defaults, same override precedence (spec beats daemon
//! env) — because the resolved values are the campaign identity: any
//! divergence here would give the daemon a different campaign ID than the
//! CLI for the same request, and the byte-identity guarantee would be
//! unfalsifiable. Validation happens up front so a bad submission is an
//! HTTP 400, not a panic inside a runner thread.

use crate::spec::CampaignSpec;
use fastfit::prelude::{CampaignConfig, FaultTimeline, MlConfig, MlTarget, Workload};
use minimd::{md_app, MdConfig};
use npb::{kernel_by_name, Class, ALL_KERNELS};

/// Default LAMMPS run length (the CLI's `--steps` default).
pub const DEFAULT_LAMMPS_STEPS: usize = 10;

/// Rank count for a spec that names none (one rule, in `fastfit`).
pub use fastfit::campaign::default_ranks;

/// Validate a spec without building anything: the submission-time check
/// behind HTTP 400. Returns a human-readable reason on rejection.
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

/// Build the workload a spec names. Call [`validate_spec`] first; this
/// panics on unknown workload names (as `kernel_by_name` does).
pub fn resolve_workload(spec: &CampaignSpec) -> Workload {
    let mut w = if spec.workload.eq_ignore_ascii_case("lammps") {
        let app = md_app(MdConfig {
            steps: spec.steps.unwrap_or(DEFAULT_LAMMPS_STEPS),
            ..Default::default()
        });
        Workload::new("LAMMPS", app, minimd::OUTPUT_TOLERANCE, default_ranks())
    } else {
        let (app, tol) = kernel_by_name(&spec.workload, Class::from_env());
        Workload::new(spec.workload.to_uppercase(), app, tol, default_ranks())
    };
    if let Some(r) = spec.ranks {
        w.nranks = r;
    }
    if let Some(s) = spec.app_seed {
        w.seed = s;
    }
    w
}

/// Build the campaign configuration: daemon environment defaults
/// (`CampaignConfig::from_env`) with the spec's explicit knobs layered on
/// top — the same precedence the CLI gives its flags.
pub fn resolve_config(spec: &CampaignSpec) -> CampaignConfig {
    let mut cfg = CampaignConfig::from_env();
    if let Some(t) = spec.trials {
        cfg.trials_per_point = t;
    }
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
/// `--ml --threshold T` equivalent). `None` for plain campaigns.
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

#[cfg(test)]
mod tests {
    use super::*;
    use fastfit::prelude::FaultChannel;

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
}
