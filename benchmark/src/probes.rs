//! Per-layer probes: small timed calls into one layer's public
//! functions, run after the timed window of a traced run.
//!
//! A probe answers "what does this one call cost here, now" — a barrier
//! job on `JobArena`, a `JournalWriter` append, a `GoldenCostModel`
//! price — so a change to a layer has a number that moves with it even
//! when the workload's own makespan is too noisy to show it. Probes that
//! depend on a kernel use the workload's *primary* campaign: the first
//! one of the unit.

use crate::checks::Artifacts;
use crate::plan::sweep_grammar;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use fastfit::prelude::{
    classify, Campaign, Levels, PointResult, FEATURE_NAMES,
};
use fastfit_mlstore::{schema_hash, ModelRegistry, StoredModel};
use fastfit_scenario::{CostModel, Grammar};
use fastfit_serve::{
    resolve_config, resolve_workload, CampaignSpec, GoldenCostModel, QueueEvent, QueueLog,
};
use fastfit_store::journal::{JournalWriter, JOURNAL_FILE};
use fastfit_store::{
    journal_content_sha, load_segments, merge_segments, write_segment, CampaignStore, Record,
    StatusSnapshot,
};
use mpiprof::profile_app_run;
use randomforest::{ForestParams, RandomForest};
use simmpi::arena::JobArena;
use simmpi::ctx::{RankCtx, RankOutput};
use simmpi::op::ReduceOp;
use simmpi::runtime::{AppFn, JobOutcome, JobSpec};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Records the `JournalWriter` probe appends.
pub const JOURNAL_RECORDS: usize = 20_000;

/// Trials per segment in the segment probe (the fleet's lease size).
const SEGMENT_TRIALS: usize = crate::plan::LEASE_TRIALS as usize;

/// Collective calls per job in the allreduce and sendrecv probes.
const CALLS_PER_JOB: usize = 200;

/// Probe results: metric name → value.
pub type Values = BTreeMap<&'static str, f64>;

/// What the probes work on.
pub struct ProbeInput<'a> {
    /// The primary campaign's spec.
    pub spec: &'a CampaignSpec,
    /// A finished store directory of that campaign, run in-process.
    pub dir: &'a Path,
    /// Its per-point results.
    pub results: &'a [PointResult],
    /// The unit seed (grammar and synthetic-record seeds).
    pub seed: u64,
    /// Scratch directory the probes may fill and remove.
    pub scratch: &'a Path,
    /// Span collector.
    pub tracer: &'a Tracer,
    /// Parent span.
    pub parent: Option<SpanId>,
}

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Median seconds of `n` calls of `f`.
fn median_secs(n: usize, mut f: impl FnMut()) -> f64 {
    median(&(0..n).map(|_| secs(&mut f)).collect::<Vec<_>>())
}

fn clean_spec(nranks: usize, seed: u64, resilient: bool) -> JobSpec {
    JobSpec {
        nranks,
        seed,
        timeout: Duration::from_secs(60),
        resilient_transport: resilient,
        ..Default::default()
    }
}

fn must_complete(outcome: &JobOutcome, what: &str) -> Result<(), String> {
    match outcome {
        JobOutcome::Completed { .. } => Ok(()),
        other => Err(format!("{what}: clean job ended {other:?}")),
    }
}

/// Median seconds of one clean job of `app` on a fresh arena (one
/// warm-up job first).
fn job_secs(nranks: usize, resilient: bool, app: &AppFn, n: usize) -> Result<f64, String> {
    let spec = clean_spec(nranks, 0x5EED, resilient);
    let mut arena = JobArena::new(nranks);
    must_complete(&arena.run(&spec, app.clone()).outcome, "probe warm-up")?;
    Ok(median_secs(n, || {
        std::hint::black_box(arena.run(&spec, app.clone()));
    }))
}

fn barrier_app() -> AppFn {
    Arc::new(|ctx: &mut RankCtx| {
        let w = ctx.world();
        ctx.barrier(w);
        RankOutput::new()
    })
}

fn allreduce_app() -> AppFn {
    Arc::new(|ctx: &mut RankCtx| {
        let w = ctx.world();
        let send = [ctx.rank() as f64; 8];
        let mut recv = [0.0f64; 8];
        for _ in 0..CALLS_PER_JOB {
            ctx.allreduce(&send, &mut recv, ReduceOp::Sum, w);
        }
        let mut out = RankOutput::new();
        out.push("sum", recv[0]);
        out
    })
}

/// Ring exchange of 1 KiB (128 doubles) with both neighbours.
fn sendrecv_app() -> AppFn {
    Arc::new(|ctx: &mut RankCtx| {
        let (w, n, me) = (ctx.world(), ctx.size(), ctx.rank());
        let (right, left) = ((me + 1) % n, (me + n - 1) % n);
        let send = [me as f64; 128];
        let mut recv = [0.0f64; 128];
        for _ in 0..CALLS_PER_JOB {
            ctx.sendrecv(&send, right, &mut recv, left, 7, w);
        }
        let mut out = RankOutput::new();
        out.push("last", recv[0]);
        out
    })
}

/// `simmpi`: dispatch, the collectives the kernels lean on, the clean
/// job of the primary kernel; `mpiprof`: the recorded run over it;
/// `core`: classification and the prefix share of the golden profile.
fn runtime_probes(campaign: &Campaign, v: &mut Values) -> Result<(), String> {
    let (workload, cfg) = (&campaign.workload, &campaign.cfg);
    let n = workload.nranks;

    let dispatch = job_secs(n, false, &barrier_app(), 200)?;
    v.insert("simmpi.dispatch_us", dispatch * 1e6);
    let per_call = |job: f64| (job - dispatch).max(0.0) / CALLS_PER_JOB as f64 * 1e6;
    let reps = if n > 32 { 5 } else { 15 };
    v.insert(
        "simmpi.allreduce_plain_us",
        per_call(job_secs(n, false, &allreduce_app(), reps)?),
    );
    v.insert(
        "simmpi.allreduce_resilient_us",
        per_call(job_secs(n, true, &allreduce_app(), reps)?),
    );
    for (name, ranks, reps) in [
        ("simmpi.sendrecv_16_us", 16, 15),
        ("simmpi.sendrecv_128_us", 128, 5),
    ] {
        let base = job_secs(ranks, false, &barrier_app(), 20)?;
        let job = job_secs(ranks, false, &sendrecv_app(), reps)?;
        v.insert(name, (job - base).max(0.0) / CALLS_PER_JOB as f64 * 1e6);
    }

    // The primary kernel on the campaign's own pool and fabric mode:
    // what a trial would cost if the harness added nothing.
    let spec = clean_spec(n, workload.seed, cfg.resilient);
    let pool = campaign.arena_pool();
    let first = pool.run(&spec, workload.app.clone());
    must_complete(&first.outcome, "primary clean job")?;
    let clean = median_secs(15, || {
        std::hint::black_box(pool.run(&spec, workload.app.clone()));
    });
    v.insert("simmpi.clean_job_ms", clean * 1e3);
    v.insert(
        "simmpi.ops_per_job",
        campaign.golden_ops.iter().sum::<u64>() as f64,
    );
    v.insert(
        "simmpi.colls_per_job",
        campaign.profile.total_invocations() as f64,
    );
    let bytes: usize = campaign.profile.records.iter().flatten().map(|r| r.bytes).sum();
    v.insert("simmpi.bytes_per_job", bytes as f64);

    let profiled = median_secs(7, || {
        std::hint::black_box(profile_app_run(&spec, workload.app.clone()).ops.len());
    });
    v.insert("mpiprof.profile_ms", profiled * 1e3);
    v.insert("mpiprof.record_overhead_frac", profiled / clean - 1.0);

    let batch = 200;
    let classify_s = median_secs(25, || {
        for _ in 0..batch {
            std::hint::black_box(classify(
                std::hint::black_box(&first.outcome),
                &campaign.golden,
                workload.tolerance,
            ));
        }
    });
    v.insert("core.classify_us", classify_s / batch as f64 * 1e6);

    // Share of a trial that replays the golden run bit for bit: the
    // anchor collective's ordinal on its rank over that rank's count.
    let fracs: Vec<f64> = campaign
        .points()
        .iter()
        .filter_map(|pt| {
            let recs = &campaign.profile.records[pt.rank];
            let at = recs
                .iter()
                .position(|r| r.site == pt.site && r.invocation == pt.invocation)?;
            Some(at as f64 / recs.len() as f64)
        })
        .collect();
    v.insert(
        "core.prefix_op_frac",
        fracs.iter().sum::<f64>() / fracs.len().max(1) as f64,
    );
    Ok(())
}

/// `npb` / `minimd`: each kernel alone on two ranks, where the transport
/// has the least to do.
fn kernel_probes(v: &mut Values) -> Result<(), String> {
    for (name, kernel) in [
        ("npb.ft_golden_ms", "FT"),
        ("npb.is_golden_ms", "IS"),
        ("npb.lu_golden_ms", "LU"),
        ("npb.halo_golden_ms", "HALO"),
        ("minimd.golden_ms", "LAMMPS"),
    ] {
        let w = resolve_workload(&CampaignSpec {
            ranks: Some(2),
            steps: Some(10),
            ..CampaignSpec::new(kernel)
        });
        v.insert(name, job_secs(2, false, &w.app, 7)? * 1e3);
    }
    Ok(())
}

/// `store`: the journal writer, the status file, reopening a finished
/// journal, and the fleet's segment write / merge / content hash.
fn store_probes(p: &ProbeInput<'_>, v: &mut Values) -> Result<(), String> {
    let err = |e: fastfit_store::StoreError| e.to_string();
    let art = Artifacts::load(p.dir)?;
    if art.trials.is_empty() {
        return Err("store probes: primary campaign journaled no trials".into());
    }

    let jdir = p.scratch.join("journal");
    std::fs::create_dir_all(&jdir).map_err(|e| e.to_string())?;
    let mut writer = JournalWriter::open(&jdir.join(JOURNAL_FILE)).map_err(err)?;
    let (mut appends, mut syncs) = (Vec::new(), Vec::new());
    // One explicit sync per SYNC_EVERY - 1 appends, so the writer's own
    // periodic fsync never fires inside a timed append.
    let batch = JournalWriter::SYNC_EVERY - 1;
    for i in 0..JOURNAL_RECORDS {
        let record = Record::Trial(art.trials[i % art.trials.len()].clone());
        let t = Instant::now();
        writer.append(&record).map_err(err)?;
        appends.push(t.elapsed().as_secs_f64());
        if i % batch == batch - 1 {
            let t = Instant::now();
            writer.sync().map_err(err)?;
            syncs.push(t.elapsed().as_secs_f64());
        }
    }
    drop(writer);
    v.insert("store.append_us", median(&appends) * 1e6);
    v.insert("store.sync_ms", median(&syncs) * 1e3);

    let status = StatusSnapshot::read_from(p.dir).map_err(err)?;
    let sdir = p.scratch.join("status");
    std::fs::create_dir_all(&sdir).map_err(|e| e.to_string())?;
    let mut failed = None;
    let write = median_secs(50, || {
        if let Err(e) = status.write_to(&sdir) {
            failed = Some(e.to_string());
        }
    });
    if let Some(e) = failed {
        return Err(format!("status probe: {e}"));
    }
    v.insert("store.status_write_ms", write * 1e3);

    let mut opened = Vec::new();
    for _ in 0..7 {
        let t = Instant::now();
        let store = CampaignStore::open(p.dir, art.meta.clone()).map_err(err)?;
        opened.push(t.elapsed().as_secs_f64());
        if store.replayable_trials() != art.trials.len() {
            return Err("open probe: replay map misses journaled trials".into());
        }
    }
    v.insert("store.open_replay_ms", median(&opened) * 1e3);

    let mdir = p.scratch.join("merge");
    std::fs::create_dir_all(&mdir).map_err(|e| e.to_string())?;
    let id = art.meta.campaign_id();
    let mut writes = Vec::new();
    for (i, chunk) in art.trials.chunks(SEGMENT_TRIALS).enumerate() {
        let start = (i * SEGMENT_TRIALS) as u64;
        let t = Instant::now();
        write_segment(&mdir, &id, start, start + chunk.len() as u64, chunk).map_err(err)?;
        writes.push(t.elapsed().as_secs_f64());
    }
    v.insert("store.segment_write_ms", median(&writes) * 1e3);
    let t = Instant::now();
    let segments = load_segments(&mdir, &id);
    let merged = merge_segments(&mdir, &art.meta, &segments).map_err(err)?;
    v.insert("store.merge_ms", t.elapsed().as_secs_f64() * 1e3);
    let mut sha = String::new();
    let hashed = median_secs(7, || sha = journal_content_sha(&mdir).unwrap_or_default());
    v.insert("store.content_sha_ms", hashed * 1e3);
    // The probe doubles as a check of the byte-identity contract: a
    // journal split into segments and merged hashes like the original.
    if sha != merged || sha != journal_content_sha(p.dir).map_err(err)? {
        return Err("merge probe: merged journal differs from the original".into());
    }
    Ok(())
}

/// `scenario` / `serve.cost` / `serve.queue`: grammar expansion, cold
/// and cached pricing of the 16 sweep members, one durable queue append.
fn control_probes(p: &ProbeInput<'_>, v: &mut Values) -> Result<(), String> {
    let doc = sweep_grammar(p.seed);
    let mut members = Vec::new();
    let mut failed = None;
    let expand = median_secs(200, || {
        match Grammar::from_json(&doc).and_then(|g| g.expand()) {
            Ok(m) => members = m,
            Err(e) => failed = Some(e),
        }
    });
    if let Some(e) = failed {
        return Err(format!("expand probe: {e}"));
    }
    v.insert("scenario.expand_us", expand * 1e6);
    v.insert("scenario.members", members.len() as f64);

    let model = GoldenCostModel::new();
    let t = Instant::now();
    for m in &members {
        model.predicted_cost(m)?;
    }
    v.insert("serve.cost.price_ms", t.elapsed().as_secs_f64() * 1e3);
    let cached: Vec<f64> = members
        .iter()
        .map(|m| secs(|| drop(std::hint::black_box(model.predicted_cost(m)))))
        .collect();
    v.insert("serve.cost.price_cached_us", median(&cached) * 1e6);

    let qdir = p.scratch.join("queue");
    std::fs::create_dir_all(&qdir).map_err(|e| e.to_string())?;
    let mut log = QueueLog::open(&qdir).map_err(|e| e.to_string())?;
    let mut appends = Vec::new();
    for i in 0..60 {
        let ev = QueueEvent::Done {
            id: format!("c{i:04}"),
        };
        let t = Instant::now();
        log.append(&ev).map_err(|e| e.to_string())?;
        appends.push(t.elapsed().as_secs_f64());
    }
    v.insert("serve.queue.append_ms", median(&appends) * 1e3);
    Ok(())
}

/// `randomforest` / `mlstore`: fit and predict over the primary
/// campaign's feature matrix, then register, fetch and resolve the
/// model.
fn ml_probes(p: &ProbeInput<'_>, campaign: &Campaign, v: &mut Values) -> Result<(), String> {
    let err = |e: fastfit_store::StoreError| e.to_string();
    // Every invocation point takes the level measured at its site's
    // representative: the matrix the ML loop would generalise over.
    let levels = Levels::even(3);
    let by_site: HashMap<_, usize> = p
        .results
        .iter()
        .map(|r| {
            (
                (r.point.site, r.point.param),
                levels.of(r.error_rate()),
            )
        })
        .collect();
    let (mut x, mut y) = (Vec::new(), Vec::new());
    for pt in campaign.invocation_points() {
        if let Some(&label) = by_site.get(&(pt.site, pt.param)) {
            x.push(campaign.extractor.features(&pt));
            y.push(label);
        }
    }
    if x.is_empty() {
        return Err("ml probes: no labelled points".into());
    }
    let fit = |seed: u64| {
        RandomForest::fit(
            &x,
            &y,
            levels.k,
            &ForestParams {
                seed,
                ..Default::default()
            },
        )
    };
    let mut forests = Vec::new();
    let fit_s = median_secs(5, || forests.push(fit(p.seed.wrapping_add(forests.len() as u64))));
    v.insert("randomforest.fit_ms", fit_s * 1e3);
    let forest = &forests[0];
    let rows = x.len();
    let predict = median_secs(20, || {
        for row in &x {
            std::hint::black_box(forest.predict(row));
        }
    });
    v.insert("randomforest.predict_us", predict / rows as f64 * 1e6);

    let registry = ModelRegistry::open(&p.scratch.join("models")).map_err(err)?;
    let target = "rate_levels:3".to_string();
    let (mut puts, mut ids) = (Vec::new(), Vec::new());
    for forest in &forests {
        let model = StoredModel {
            workload: campaign.workload.name.clone(),
            channel: campaign.cfg.fault_channel.token().to_string(),
            transport: if campaign.cfg.resilient {
                "resilient".into()
            } else {
                "plain".into()
            },
            target: target.clone(),
            features: FEATURE_NAMES.iter().map(|s| s.to_string()).collect(),
            forest: forest.clone(),
        };
        let t = Instant::now();
        ids.push(registry.put(&model).map_err(err)?);
        puts.push(t.elapsed().as_secs_f64());
    }
    v.insert("mlstore.put_ms", median(&puts) * 1e3);
    let mut gets = Vec::new();
    for id in &ids {
        let t = Instant::now();
        registry.get(id).map_err(err)?;
        gets.push(t.elapsed().as_secs_f64());
    }
    v.insert("mlstore.get_ms", median(&gets) * 1e3);
    let schema = schema_hash(&FEATURE_NAMES);
    let mut found = None;
    let resolve = median_secs(20, || {
        found = registry.resolve_auto(&schema, &target).ok().flatten();
    });
    v.insert("mlstore.resolve_auto_ms", resolve * 1e3);
    // `auto` resolves the newest compatible entry.
    if found.map(|e| e.id) != ids.last().cloned() {
        return Err("resolve probe: auto did not resolve the newest model".into());
    }
    Ok(())
}

/// Run every probe, each under its own span.
pub fn run_probes(p: &ProbeInput<'_>) -> Result<Values, String> {
    let mut v = Values::new();
    // The primary campaign, prepared once for the probes that need its
    // golden run, arena pool or feature extractor.
    let campaign = Campaign::prepare(resolve_workload(p.spec), resolve_config(p.spec));
    let span = |name: &str, f: &mut dyn FnMut() -> Result<(), String>| {
        p.tracer.span(name, "probe", p.parent, |_| f())
    };
    span("probe.runtime", &mut || runtime_probes(&campaign, &mut v))?;
    span("probe.kernels", &mut || kernel_probes(&mut v))?;
    span("probe.store", &mut || store_probes(p, &mut v))?;
    span("probe.control", &mut || control_probes(p, &mut v))?;
    span("probe.ml", &mut || ml_probes(p, &campaign, &mut v))?;
    Ok(v)
}
