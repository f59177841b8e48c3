//! Reproducible benchmark harness — the `bench` verb of the `experiments`
//! binary.
//!
//! Measures the throughput-critical paths of the reproduction and writes a
//! schema-stable `BENCH.json` so every PR can diff the perf trajectory:
//!
//! - **golden-run latency** per workload (clean run, no fault, no record);
//! - **trials/sec** per workload over a fixed seeded trial sequence, on
//!   the campaign's [`simmpi::arena::ArenaPool`] (`arena_trials_per_sec`,
//!   the name the committed `BENCH_PR*.json` trajectory uses);
//! - **rank-scheduler A/B**: the same trials, and a barrier-only dispatch
//!   micro, on the coop and the thread-per-rank engine;
//! - **journal append throughput** of the write-ahead trial journal;
//! - **service throughput**: submission round-trip latency against a live
//!   `fastfit-served` daemon and the aggregate trials/sec of N campaigns
//!   run concurrently through it versus the same campaigns run serially.
//!
//! Trials/sec comes from the campaign store's [`Telemetry`] — the same
//! fresh-trials-only counter `status.json` reports — so the bench and the
//! live campaign telemetry can never drift apart.
//!
//! Knobs: `FASTFIT_BENCH_TRIALS` (trials per workload, default 32), `FASTFIT_BENCH_JOURNAL_RECORDS` (default 20000), `FASTFIT_BENCH_OUT`
//! (output path, default `BENCH.json`), plus the usual `FASTFIT_RANKS` /
//! `FASTFIT_CLASS` scale knobs.

use crate::{lammps_workload, npb_workload};
use fastfit::prelude::*;
use fastfit_mlstore::{ModelRegistry, StoredModel};
use fastfit_serve::{http_request, start, CampaignSpec, ServeConfig};
use fastfit_store::journal::{JournalWriter, Record, TrialRecord};
use fastfit_store::json::Json;
use fastfit_store::{ml_target_token, Telemetry};
use simmpi::arena::JobArena;
use simmpi::runtime::JobSpec;
use simmpi::sched::Engine;
use std::path::Path;
use std::time::{Duration, Instant};

/// Schema version of `BENCH.json`. Bump only when a key is renamed or
/// removed; adding keys is backward-compatible.
pub const BENCH_SCHEMA: u32 = 2;

/// The workloads the bench sweeps, in report order.
pub const BENCH_WORKLOADS: [&str; 5] = ["IS", "FT", "MG", "LU", "minimd"];

/// Fixed seed for the bench's fault-bit draws: every run (and both sides
/// of the scheduler A/B) replays the identical trial sequence.
const BENCH_POINT_SEED: u64 = 0xBE7C;

/// Clean golden runs timed per workload (the minimum is reported).
const GOLDEN_RUNS: usize = 3;

/// Interleaved measurement rounds per scheduler-A/B workload: each round
/// times a batch of trials on either engine back-to-back, so slow drift in
/// machine load cancels out of the speedup ratio.
const BENCH_ROUNDS: usize = 4;

/// Jobs per engine in the scheduler A/B dispatch micro.
const DISPATCH_JOBS: usize = 40;

/// Campaigns submitted per round in the service benchmark.
const SERVE_CAMPAIGNS: usize = 2;

/// Workloads in the scheduler A/B section: the communication-bound pair
/// where rank multiplexing (not parallel compute) dominates trial cost.
pub const SCHED_BENCH_WORKLOADS: [&str; 2] = ["IS", "HALO"];

/// Ranks in the scheduler A/B section: wider than the main sweep's
/// FT/MG-constrained cap, because cheap wide trials are exactly what
/// the coop engine buys — at this width the thread-per-rank engine
/// pays real wakeup fan-out on every collective.
const SCHED_BENCH_RANKS: usize = 128;

/// Ranks in the scheduler A/B dispatch micro.
const SCHED_DISPATCH_RANKS: usize = 64;

/// Bench configuration (resolved from the environment).
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Supervised trials measured per workload.
    pub trials: usize,
    /// Records appended in the journal-throughput measurement.
    pub journal_records: usize,
    /// Output path for `BENCH.json`.
    pub out: String,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            trials: 32,
            journal_records: 20_000,
            out: "BENCH.json".into(),
        }
    }
}

impl BenchConfig {
    /// Defaults with `FASTFIT_BENCH_TRIALS` / `FASTFIT_BENCH_JOURNAL_RECORDS`
    /// / `FASTFIT_BENCH_OUT` applied.
    pub fn from_env() -> Self {
        let mut cfg = BenchConfig::default();
        if let Ok(t) = std::env::var("FASTFIT_BENCH_TRIALS") {
            if let Ok(t) = t.parse::<usize>() {
                cfg.trials = t.max(1);
            }
        }
        if let Ok(r) = std::env::var("FASTFIT_BENCH_JOURNAL_RECORDS") {
            if let Ok(r) = r.parse::<usize>() {
                cfg.journal_records = r.max(1);
            }
        }
        if let Ok(o) = std::env::var("FASTFIT_BENCH_OUT") {
            if !o.is_empty() {
                cfg.out = o;
            }
        }
        cfg
    }
}

/// Measurements for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadBench {
    /// Workload display name.
    pub name: String,
    /// Ranks per job.
    pub nranks: usize,
    /// Surviving injection points after pruning.
    pub points: usize,
    /// Best-of-[`GOLDEN_RUNS`] clean-run latency, seconds.
    pub golden_secs: f64,
    /// Fresh-trial throughput on the campaign's arena pool.
    pub arena_trials_per_sec: f64,
}

/// The full bench report — the in-memory form of `BENCH.json`.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Ranks per job (`FASTFIT_RANKS`-derived).
    pub ranks: usize,
    /// Problem class token (`FASTFIT_CLASS`).
    pub class: String,
    /// Trials per workload.
    pub trials: usize,
    /// Per-workload measurements, [`BENCH_WORKLOADS`] order.
    pub workloads: Vec<WorkloadBench>,
    /// Records appended in the journal measurement.
    pub journal_records: usize,
    /// Journal write-ahead append throughput, records/sec.
    pub journal_appends_per_sec: f64,
    /// Campaign-service benchmark (daemon submission + scheduler throughput).
    pub serve: ServeBench,
    /// Rank-scheduler A/B (coop vs thread-per-rank engines).
    pub sched: SchedBench,
    /// Active-learning cold-vs-warm comparison.
    pub ml: MlBench,
}

/// Forwards per-trial completions to the store [`Telemetry`] so the bench
/// reads trials/sec from the same counter `status.json` uses.
struct TelemetryObserver<'a> {
    telemetry: &'a Telemetry,
    channel: FaultChannel,
}

impl CampaignObserver for TelemetryObserver<'_> {
    fn on_event(&self, event: &ProgressEvent<'_>) {
        if let ProgressEvent::TrialFinished {
            disposition,
            retries,
            replayed,
            ..
        } = event
        {
            let (response, retransmits) = match disposition {
                TrialDisposition::Classified(t) => (Some(t.response), t.retransmits),
                TrialDisposition::Quarantined { .. } => (None, 0),
            };
            self.telemetry
                .trial_finished(response, *retries, *replayed, self.channel, retransmits);
        }
    }
}

/// Best-of-N clean-run latency on one arena (first run warms it, then
/// [`GOLDEN_RUNS`] timed runs).
fn golden_latency(w: &Workload) -> f64 {
    let spec = JobSpec {
        nranks: w.nranks,
        seed: w.seed,
        timeout: Duration::from_secs(60),
        ..Default::default()
    };
    let mut arena = JobArena::new(w.nranks);
    let _ = arena.run(&spec, w.app.clone());
    let mut best = f64::INFINITY;
    for _ in 0..GOLDEN_RUNS {
        let t0 = Instant::now();
        let r = arena.run(&spec, w.app.clone());
        assert!(
            matches!(r.outcome, simmpi::runtime::JobOutcome::Completed { .. }),
            "golden run must complete"
        );
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Measure fresh-trial throughput of `campaign` over its first surviving
/// point, through the store telemetry. Returns `(trials, secs)` so
/// interleaved rounds can be combined into one rate.
fn run_trial_batch(campaign: &Campaign, trials: usize) -> (u64, f64) {
    let point = campaign.points()[0];
    let telemetry = Telemetry::new();
    telemetry.set_totals(1, trials);
    let observer = TelemetryObserver {
        telemetry: &telemetry,
        channel: campaign.cfg.fault_channel,
    };
    let _ = campaign.measure_point_observed(&point, trials, BENCH_POINT_SEED, &observer);
    let snap = telemetry.snapshot(
        "bench",
        &campaign.workload.name,
        fastfit_store::CampaignState::Done,
    );
    (snap.trials_fresh, snap.elapsed_secs)
}

/// Measure one workload: golden latency, then a fixed seeded trial
/// sequence on the campaign's arena pool.
fn bench_workload(w: Workload, trials: usize) -> WorkloadBench {
    let name = w.name.clone();
    let nranks = w.nranks;
    eprintln!("[bench] {}: golden latency ({} runs)...", name, GOLDEN_RUNS);
    let golden_secs = golden_latency(&w);
    let campaign = Campaign::prepare(w, CampaignConfig::from_env());
    assert!(
        !campaign.points().is_empty(),
        "workload must have injection points"
    );
    // Warm the arena pool so one-time setup stays out of the timed window.
    let _ = run_trial_batch(&campaign, 1);
    eprintln!("[bench] {}: {} trials...", name, trials);
    let (done, secs) = run_trial_batch(&campaign, trials);
    let arena_tps = if secs > 0.0 { done as f64 / secs } else { 0.0 };
    eprintln!(
        "[bench] {}: golden {:.1} ms, {:.1} trials/s",
        name,
        golden_secs * 1e3,
        arena_tps
    );
    WorkloadBench {
        name,
        nranks,
        points: campaign.points().len(),
        golden_secs,
        arena_trials_per_sec: arena_tps,
    }
}

/// Rank-scheduler A/B result for one workload: the identical seeded
/// trial sequence, whole trials end to end, on the cooperative and the
/// thread-per-rank engine.
#[derive(Debug, Clone)]
pub struct SchedWorkloadBench {
    /// Workload name.
    pub name: String,
    /// Ranks per job.
    pub nranks: usize,
    /// Whole-trial throughput on the cooperative engine.
    pub coop_trials_per_sec: f64,
    /// Whole-trial throughput on the thread-per-rank engine.
    pub threads_trials_per_sec: f64,
    /// `coop / threads`.
    pub speedup: f64,
}

/// Scheduler A/B section: per-workload whole-trial throughput plus a
/// wide barrier-only dispatch micro (same interleaved-rounds protocol).
#[derive(Debug, Clone)]
pub struct SchedBench {
    /// Per-workload A/B, [`SCHED_BENCH_WORKLOADS`] order.
    pub workloads: Vec<SchedWorkloadBench>,
    /// Ranks per job in the dispatch micro.
    pub dispatch_ranks: usize,
    /// Jobs timed per engine in the dispatch micro.
    pub dispatch_jobs: usize,
    /// Mean coop dispatch time, seconds/job.
    pub dispatch_coop_secs_per_job: f64,
    /// Mean threaded dispatch time, seconds/job.
    pub dispatch_threads_secs_per_job: f64,
    /// `threads_secs_per_job / coop_secs_per_job`.
    pub dispatch_speedup: f64,
}

/// One workload through both engines: two campaigns prepared from the
/// same spec, each pinned to its engine, measured in interleaved rounds
/// so load drift cancels out of the ratio. The two campaigns journal
/// byte-identical trials (the sched_equivalence suite proves it), so
/// the wall-clock ratio is a pure scheduler comparison.
fn bench_sched_workload(name: &str, trials: usize) -> SchedWorkloadBench {
    let wide = || {
        let (app, tol) = npb::kernel_by_name(name, npb::Class::from_env());
        Workload::new(name, app, tol, SCHED_BENCH_RANKS)
    };
    let mut coop = Campaign::prepare_on_engine(wide(), CampaignConfig::from_env(), Engine::Coop);
    // One trial at a time on both sides: the thread engine never runs
    // trials ahead (DESIGN.md §19), and this ratio is about the engines.
    coop.pin_width(1);
    let threads = Campaign::prepare_on_engine(wide(), CampaignConfig::from_env(), Engine::Threads);
    let nranks = coop.workload.nranks;
    // Warm both pools so neither engine pays one-time setup in the
    // timed window.
    let _ = run_trial_batch(&coop, 1);
    let _ = run_trial_batch(&threads, 1);
    let rounds = BENCH_ROUNDS.min(trials).max(1);
    let batch = trials.div_ceil(rounds);
    let (mut coop_done, mut coop_secs) = (0u64, 0f64);
    let (mut thr_done, mut thr_secs) = (0u64, 0f64);
    let mut left = trials;
    while left > 0 {
        let n = batch.min(left);
        let (d, s) = run_trial_batch(&coop, n);
        coop_done += d;
        coop_secs += s;
        let (d, s) = run_trial_batch(&threads, n);
        thr_done += d;
        thr_secs += s;
        left -= n;
    }
    let coop_tps = if coop_secs > 0.0 {
        coop_done as f64 / coop_secs
    } else {
        0.0
    };
    let thr_tps = if thr_secs > 0.0 {
        thr_done as f64 / thr_secs
    } else {
        0.0
    };
    SchedWorkloadBench {
        name: name.into(),
        nranks,
        coop_trials_per_sec: coop_tps,
        threads_trials_per_sec: thr_tps,
        speedup: if thr_tps > 0.0 {
            coop_tps / thr_tps
        } else {
            0.0
        },
    }
}

/// The scheduler A/B sweep: whole-trial throughput per workload, then
/// the wide barrier-only dispatch micro on both engines.
fn bench_sched(trials: usize) -> SchedBench {
    let workloads: Vec<SchedWorkloadBench> = SCHED_BENCH_WORKLOADS
        .iter()
        .map(|name| {
            eprintln!(
                "[bench] sched A/B {}: {} trials per engine...",
                name, trials
            );
            let b = bench_sched_workload(name, trials);
            eprintln!(
                "[bench] sched A/B {}: coop {:.1} trials/s, threads {:.1} trials/s, speedup {:.2}x",
                b.name, b.coop_trials_per_sec, b.threads_trials_per_sec, b.speedup
            );
            b
        })
        .collect();

    let app: simmpi::runtime::AppFn = std::sync::Arc::new(|ctx: &mut simmpi::ctx::RankCtx| {
        let w = ctx.world();
        ctx.barrier(w);
        simmpi::ctx::RankOutput::new()
    });
    let spec = JobSpec {
        nranks: SCHED_DISPATCH_RANKS,
        timeout: Duration::from_secs(30),
        ..Default::default()
    };
    let mut coop = JobArena::with_engine(SCHED_DISPATCH_RANKS, Engine::Coop);
    let mut threads = JobArena::with_engine(SCHED_DISPATCH_RANKS, Engine::Threads);
    let _ = coop.run(&spec, app.clone());
    let _ = threads.run(&spec, app.clone());
    let rounds = 4;
    let per_round = DISPATCH_JOBS.div_ceil(rounds);
    let (mut coop_secs, mut thr_secs) = (0f64, 0f64);
    let mut jobs = 0usize;
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..per_round {
            let _ = coop.run(&spec, app.clone());
        }
        coop_secs += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for _ in 0..per_round {
            let _ = threads.run(&spec, app.clone());
        }
        thr_secs += t0.elapsed().as_secs_f64();
        jobs += per_round;
    }
    let coop_per = coop_secs / jobs as f64;
    let thr_per = thr_secs / jobs as f64;
    eprintln!(
        "[bench] sched dispatch ({} ranks): coop {:.3} ms/job, threads {:.3} ms/job, speedup {:.2}x",
        SCHED_DISPATCH_RANKS,
        coop_per * 1e3,
        thr_per * 1e3,
        if coop_per > 0.0 { thr_per / coop_per } else { 0.0 }
    );
    SchedBench {
        workloads,
        dispatch_ranks: SCHED_DISPATCH_RANKS,
        dispatch_jobs: jobs,
        dispatch_coop_secs_per_job: coop_per,
        dispatch_threads_secs_per_job: thr_per,
        dispatch_speedup: if coop_per > 0.0 {
            thr_per / coop_per
        } else {
            0.0
        },
    }
}

/// Accuracy threshold the active-learning section drives both loops to
/// (the paper's campaign setting).
const ML_BENCH_THRESHOLD: f64 = 0.65;

/// Trials per measured point in the active-learning section, scaled down
/// from the workload-bench knob: the ML loop measures whole batches of
/// points, so the per-point count must stay small to keep the section
/// comparable in cost to the others.
fn ml_bench_trials(bench_trials: usize) -> usize {
    bench_trials.div_ceil(8).max(1)
}

/// One ML-loop execution: measured trials and wall time to the accuracy
/// threshold.
#[derive(Debug, Clone)]
pub struct MlRunBench {
    /// Points actually measured.
    pub measured: usize,
    /// Feedback rounds executed.
    pub rounds: usize,
    /// Stopping accuracy at the final round.
    pub accuracy: f64,
    /// Wall time of the loop (measurement + training), seconds.
    pub secs: f64,
}

/// Cold-vs-warm active-learning comparison for one workload.
#[derive(Debug, Clone)]
pub struct MlWorkloadBench {
    /// Workload name.
    pub name: String,
    /// Invocation-population size the loop draws from.
    pub points: usize,
    /// Batch loop from scratch (scan order, no prior).
    pub cold: MlRunBench,
    /// Warm-started from the cold run's registered model, entropy order.
    pub warm: MlRunBench,
    /// `1 - warm.measured / cold.measured`.
    pub saved_fraction: f64,
}

/// The active-learning section of the report: measured-trial counts and
/// wall time to the same accuracy threshold, cold vs warm-started.
#[derive(Debug, Clone)]
pub struct MlBench {
    /// Accuracy threshold both loops stop at.
    pub threshold: f64,
    /// Trials per measured point.
    pub trials_per_point: usize,
    /// Per-workload comparison, [`BENCH_WORKLOADS`] order.
    pub workloads: Vec<MlWorkloadBench>,
}

/// Run one ML loop over a prepared campaign's invocation population;
/// returns the loop stats and the final forest.
fn ml_run(
    c: &Campaign,
    points: &[InjectionPoint],
    features: &[Vec<f64>],
    trials: usize,
    ml_cfg: &MlConfig,
    opts: ActiveOptions<'_>,
) -> (MlRunBench, Option<randomforest::RandomForest>) {
    let t0 = Instant::now();
    let out = ml_driven_active(
        features,
        MlTarget::RateLevels(3),
        |i| {
            let pr = c.measure_point(&points[i], trials, BENCH_POINT_SEED ^ i as u64);
            Levels::even(3).of(pr.error_rate())
        },
        ml_cfg,
        opts,
        |_, _| {},
    );
    (
        MlRunBench {
            measured: out.measured.len(),
            rounds: out.rounds,
            accuracy: out.final_accuracy,
            secs: t0.elapsed().as_secs_f64(),
        },
        out.model,
    )
}

/// One workload through the active-learning comparison: a cold batch
/// loop, its final model registered, then a warm-started entropy-ordered
/// re-run seeded from the registry — the same transfer path
/// `--warm-start auto` takes in the CLI and daemon.
fn bench_ml_workload(name: &str, trials: usize, registry: &ModelRegistry) -> MlWorkloadBench {
    let c = Campaign::prepare(bench_workload_by_name(name), CampaignConfig::from_env());
    let points = c.invocation_points();
    let features: Vec<Vec<f64>> = points.iter().map(|p| c.extractor.features(p)).collect();
    let ml_cfg = MlConfig {
        accuracy_threshold: ML_BENCH_THRESHOLD,
        ..Default::default()
    };
    let (cold, forest) = ml_run(
        &c,
        &points,
        &features,
        trials,
        &ml_cfg,
        ActiveOptions::default(),
    );
    let forest = forest.expect("the cold loop measured at least one batch");
    let model = StoredModel {
        workload: c.workload.name.clone(),
        channel: c.cfg.fault_channel.token().to_string(),
        transport: if c.cfg.resilient {
            "resilient"
        } else {
            "plain"
        }
        .to_string(),
        target: ml_target_token(MlTarget::RateLevels(3)),
        features: FEATURE_NAMES.iter().map(|s| s.to_string()).collect(),
        forest,
    };
    registry.put(&model).expect("model registration");
    let entry = registry
        .resolve_auto(&model.schema(), &model.target)
        .expect("registry readable")
        .expect("the model just registered resolves");
    let prior = registry.get(&entry.id).expect("registered model loads");
    let (warm, _) = ml_run(
        &c,
        &points,
        &features,
        trials,
        &ml_cfg,
        ActiveOptions {
            prior: Some(&prior.forest),
            ordering: MlOrdering::Entropy,
        },
    );
    let saved_fraction = if cold.measured > 0 {
        1.0 - warm.measured as f64 / cold.measured as f64
    } else {
        0.0
    };
    MlWorkloadBench {
        name: name.into(),
        points: points.len(),
        cold,
        warm,
        saved_fraction,
    }
}

/// The active-learning sweep over [`BENCH_WORKLOADS`], through a scratch
/// model registry.
pub fn bench_ml(bench_trials: usize) -> MlBench {
    let trials = ml_bench_trials(bench_trials);
    let dir = std::env::temp_dir().join(format!("fastfit-bench-models-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = ModelRegistry::open(&dir).expect("scratch registry opens");
    let workloads: Vec<MlWorkloadBench> = BENCH_WORKLOADS
        .iter()
        .map(|name| {
            eprintln!(
                "[bench] ml {}: cold + warm loops ({} trials/point, threshold {:.0}%)...",
                name,
                trials,
                100.0 * ML_BENCH_THRESHOLD
            );
            let b = bench_ml_workload(name, trials, &registry);
            eprintln!(
                "[bench] ml {}: cold {} measured in {:.1}s, warm {} in {:.1}s ({:.0}% fewer measurements)",
                b.name,
                b.cold.measured,
                b.cold.secs,
                b.warm.measured,
                b.warm.secs,
                100.0 * b.saved_fraction
            );
            b
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    MlBench {
        threshold: ML_BENCH_THRESHOLD,
        trials_per_point: trials,
        workloads,
    }
}

/// Measure write-ahead journal append throughput in a scratch directory.
fn journal_throughput(records: usize) -> f64 {
    let dir = std::env::temp_dir().join(format!("fastfit-bench-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creating journal scratch dir");
    let path = dir.join("journal.jsonl");
    let mut writer = JournalWriter::open(&path).expect("opening scratch journal");
    let t0 = Instant::now();
    for i in 0..records {
        let record = Record::Trial(TrialRecord::classified(
            format!("bench/app.rs:42|MPI_Allreduce|r0|i{}|sendbuf", i % 7),
            i,
            (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            TrialOutcome {
                response: ALL_RESPONSES[i % ALL_RESPONSES.len()],
                fired: true,
                fatal_rank: None,
                retransmits: 0,
                events_fired: 1,
                events_lifted: 0,
            },
        ));
        writer.append(&record).expect("journal append");
    }
    writer.sync().expect("journal sync");
    let secs = t0.elapsed().as_secs_f64();
    drop(writer);
    let _ = std::fs::remove_dir_all(&dir);
    if secs > 0.0 {
        records as f64 / secs
    } else {
        0.0
    }
}

/// Service benchmark result: submission latency against a live daemon and
/// concurrent-vs-serial campaign throughput through the scheduler.
#[derive(Debug, Clone)]
pub struct ServeBench {
    /// Campaigns submitted per round.
    pub campaigns: usize,
    /// Trials per injection point in each campaign.
    pub trials_per_campaign: usize,
    /// Best observed `POST /campaigns` round-trip (durable ack), seconds.
    pub submit_roundtrip_secs: f64,
    /// Aggregate fresh-trial throughput with all campaigns admitted at once.
    pub concurrent_trials_per_sec: f64,
    /// Aggregate fresh-trial throughput with `max_campaigns = 1`.
    pub serial_trials_per_sec: f64,
    /// `concurrent_trials_per_sec / serial_trials_per_sec`.
    pub speedup: f64,
}

/// The campaign every service-bench round submits: the smallest kernel at
/// the experiment rank count, fixed seed so rounds are comparable.
fn serve_spec(trials: usize) -> CampaignSpec {
    let mut s = CampaignSpec::new("IS");
    s.ranks = Some(default_ranks());
    s.trials = Some(trials);
    s.seed = Some(BENCH_POINT_SEED);
    s
}

/// Submit `spec` and return `(campaign id, round-trip seconds)`. The timed
/// window covers the durable queue append — the daemon acks only after
/// the submission survives a crash.
fn serve_submit(addr: &str, spec: &CampaignSpec) -> (String, f64) {
    let body = spec.to_json().encode();
    let t0 = Instant::now();
    let r = http_request(
        addr,
        "POST",
        "/campaigns",
        Some(("application/json", &body)),
    )
    .expect("bench daemon reachable");
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(r.status, 201, "bench submission accepted: {}", r.body);
    let id = Json::parse(&r.body)
        .expect("receipt is JSON")
        .get("id")
        .and_then(Json::as_str)
        .expect("receipt carries an id")
        .to_string();
    (id, secs)
}

/// Poll a campaign to completion and return its fresh-trial count.
fn serve_wait_done(addr: &str, id: &str) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(600);
    loop {
        let r = http_request(addr, "GET", &format!("/campaigns/{id}/status"), None)
            .expect("bench daemon reachable");
        let v = Json::parse(&r.body).expect("status is JSON");
        let state = v.get("state").and_then(Json::as_str).unwrap_or("");
        assert_ne!(state, "failed", "bench campaign {id} failed: {}", r.body);
        if state == "done" {
            return v.get("trials_fresh").and_then(Json::as_u64).unwrap_or(0);
        }
        assert!(
            Instant::now() < deadline,
            "bench campaign {id} never finished; last status: {}",
            r.body
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One service round: a fresh daemon on `root` admitting up to
/// `max_campaigns` at once, [`SERVE_CAMPAIGNS`] identical submissions run
/// to completion. Returns `(aggregate trials/sec, best submit seconds)`.
fn serve_round(root: &Path, max_campaigns: usize, trials: usize) -> (f64, f64) {
    let nranks = default_ranks();
    let h = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        worker_budget: SERVE_CAMPAIGNS * nranks,
        max_campaigns,
        ..ServeConfig::new(root)
    })
    .expect("bench daemon starts");
    let addr = h.addr().to_string();
    let spec = serve_spec(trials);
    let t0 = Instant::now();
    let mut submit_secs = f64::INFINITY;
    let ids: Vec<String> = (0..SERVE_CAMPAIGNS)
        .map(|_| {
            let (id, secs) = serve_submit(&addr, &spec);
            submit_secs = submit_secs.min(secs);
            id
        })
        .collect();
    let done: u64 = ids.iter().map(|id| serve_wait_done(&addr, id)).sum();
    let secs = t0.elapsed().as_secs_f64();
    h.shutdown();
    let tps = if secs > 0.0 { done as f64 / secs } else { 0.0 };
    (tps, submit_secs)
}

/// Measure the campaign service: [`SERVE_CAMPAIGNS`] identical IS
/// campaigns through a live daemon, once fully concurrent and once
/// serialised (`max_campaigns = 1`), in scratch roots. Campaigns run
/// every surviving point, so the per-point trial count is scaled down
/// from the workload-bench knob to keep the rounds comparable in cost.
pub fn bench_serve(bench_trials: usize) -> ServeBench {
    let trials = bench_trials.div_ceil(4).max(1);
    let base = std::env::temp_dir().join(format!("fastfit-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    eprintln!(
        "[bench] serve: {} campaigns x {} trials/point, concurrent...",
        SERVE_CAMPAIGNS, trials
    );
    let (concurrent_tps, submit_a) = serve_round(&base.join("concurrent"), SERVE_CAMPAIGNS, trials);
    eprintln!("[bench] serve: serial baseline (max_campaigns = 1)...");
    let (serial_tps, submit_b) = serve_round(&base.join("serial"), 1, trials);
    let _ = std::fs::remove_dir_all(&base);
    let bench = ServeBench {
        campaigns: SERVE_CAMPAIGNS,
        trials_per_campaign: trials,
        submit_roundtrip_secs: submit_a.min(submit_b),
        concurrent_trials_per_sec: concurrent_tps,
        serial_trials_per_sec: serial_tps,
        speedup: if serial_tps > 0.0 {
            concurrent_tps / serial_tps
        } else {
            0.0
        },
    };
    eprintln!(
        "[bench] serve: submit {:.2} ms, concurrent {:.1} trials/s, serial {:.1} trials/s, speedup {:.2}x",
        bench.submit_roundtrip_secs * 1e3,
        bench.concurrent_trials_per_sec,
        bench.serial_trials_per_sec,
        bench.speedup
    );
    bench
}

/// Build one of the bench workloads by name ([`BENCH_WORKLOADS`]).
pub fn bench_workload_by_name(name: &str) -> Workload {
    if name == "minimd" {
        lammps_workload(6)
    } else {
        npb_workload(name)
    }
}

/// Run the full bench sweep.
pub fn run_bench(cfg: &BenchConfig) -> BenchReport {
    let class = match npb::Class::from_env() {
        npb::Class::Mini => "mini",
        npb::Class::Small => "small",
        npb::Class::Standard => "standard",
    };
    let workloads: Vec<WorkloadBench> = BENCH_WORKLOADS
        .iter()
        .map(|name| bench_workload(bench_workload_by_name(name), cfg.trials))
        .collect();
    eprintln!(
        "[bench] journal append throughput ({} records)...",
        cfg.journal_records
    );
    let journal_appends_per_sec = journal_throughput(cfg.journal_records);
    eprintln!("[bench] journal: {:.0} appends/s", journal_appends_per_sec);
    let serve = bench_serve(cfg.trials);
    eprintln!("[bench] rank-scheduler A/B (coop vs threads)...");
    let sched = bench_sched(cfg.trials);
    eprintln!("[bench] active learning (cold vs warm-started ML loops)...");
    let ml = bench_ml(cfg.trials);
    BenchReport {
        ranks: default_ranks(),
        class: class.into(),
        trials: cfg.trials,
        workloads,
        journal_records: cfg.journal_records,
        journal_appends_per_sec,
        serve,
        sched,
        ml,
    }
}

/// Encode one [`MlRunBench`] side of the cold/warm comparison.
fn ml_run_json(r: &MlRunBench) -> Json {
    Json::obj([
        ("measured", Json::U64(r.measured as u64)),
        ("rounds", Json::U64(r.rounds as u64)),
        ("accuracy", Json::F64(r.accuracy)),
        ("secs", Json::F64(r.secs)),
    ])
}

impl BenchReport {
    /// Encode as the schema-stable `BENCH.json` document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::U64(u64::from(BENCH_SCHEMA))),
            (
                "config",
                Json::obj([
                    ("ranks", Json::U64(self.ranks as u64)),
                    ("class", Json::Str(self.class.clone())),
                    ("trials", Json::U64(self.trials as u64)),
                ]),
            ),
            (
                "workloads",
                Json::Arr(
                    self.workloads
                        .iter()
                        .map(|w| {
                            Json::obj([
                                ("name", Json::Str(w.name.clone())),
                                ("nranks", Json::U64(w.nranks as u64)),
                                ("points", Json::U64(w.points as u64)),
                                ("golden_secs", Json::F64(w.golden_secs)),
                                ("arena_trials_per_sec", Json::F64(w.arena_trials_per_sec)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "journal",
                Json::obj([
                    ("records", Json::U64(self.journal_records as u64)),
                    ("appends_per_sec", Json::F64(self.journal_appends_per_sec)),
                ]),
            ),
            (
                "serve",
                Json::obj([
                    ("campaigns", Json::U64(self.serve.campaigns as u64)),
                    (
                        "trials_per_campaign",
                        Json::U64(self.serve.trials_per_campaign as u64),
                    ),
                    (
                        "submit_roundtrip_secs",
                        Json::F64(self.serve.submit_roundtrip_secs),
                    ),
                    (
                        "concurrent_trials_per_sec",
                        Json::F64(self.serve.concurrent_trials_per_sec),
                    ),
                    (
                        "serial_trials_per_sec",
                        Json::F64(self.serve.serial_trials_per_sec),
                    ),
                    ("speedup", Json::F64(self.serve.speedup)),
                ]),
            ),
            (
                "sched",
                Json::obj([
                    (
                        "workloads",
                        Json::Arr(
                            self.sched
                                .workloads
                                .iter()
                                .map(|w| {
                                    Json::obj([
                                        ("name", Json::Str(w.name.clone())),
                                        ("nranks", Json::U64(w.nranks as u64)),
                                        ("coop_trials_per_sec", Json::F64(w.coop_trials_per_sec)),
                                        (
                                            "threads_trials_per_sec",
                                            Json::F64(w.threads_trials_per_sec),
                                        ),
                                        ("speedup", Json::F64(w.speedup)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "dispatch",
                        Json::obj([
                            ("ranks", Json::U64(self.sched.dispatch_ranks as u64)),
                            ("jobs", Json::U64(self.sched.dispatch_jobs as u64)),
                            (
                                "coop_secs_per_job",
                                Json::F64(self.sched.dispatch_coop_secs_per_job),
                            ),
                            (
                                "threads_secs_per_job",
                                Json::F64(self.sched.dispatch_threads_secs_per_job),
                            ),
                            ("speedup", Json::F64(self.sched.dispatch_speedup)),
                        ]),
                    ),
                ]),
            ),
            (
                "ml",
                Json::obj([
                    ("threshold", Json::F64(self.ml.threshold)),
                    (
                        "trials_per_point",
                        Json::U64(self.ml.trials_per_point as u64),
                    ),
                    (
                        "workloads",
                        Json::Arr(
                            self.ml
                                .workloads
                                .iter()
                                .map(|w| {
                                    Json::obj([
                                        ("name", Json::Str(w.name.clone())),
                                        ("points", Json::U64(w.points as u64)),
                                        ("cold", ml_run_json(&w.cold)),
                                        ("warm", ml_run_json(&w.warm)),
                                        ("saved_fraction", Json::F64(w.saved_fraction)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
        ])
    }

    /// Write the report to `path` (single JSON document + newline).
    pub fn write_to(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().encode() + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_schema_stable() {
        let report = BenchReport {
            ranks: 8,
            class: "mini".into(),
            trials: 4,
            workloads: vec![WorkloadBench {
                name: "IS".into(),
                nranks: 8,
                points: 3,
                golden_secs: 0.01,
                arena_trials_per_sec: 100.0,
            }],
            journal_records: 100,
            journal_appends_per_sec: 5e4,
            serve: ServeBench {
                campaigns: 2,
                trials_per_campaign: 8,
                submit_roundtrip_secs: 1e-3,
                concurrent_trials_per_sec: 120.0,
                serial_trials_per_sec: 100.0,
                speedup: 1.2,
            },
            sched: SchedBench {
                workloads: vec![SchedWorkloadBench {
                    name: "IS".into(),
                    nranks: 8,
                    coop_trials_per_sec: 300.0,
                    threads_trials_per_sec: 60.0,
                    speedup: 5.0,
                }],
                dispatch_ranks: 64,
                dispatch_jobs: 40,
                dispatch_coop_secs_per_job: 1e-4,
                dispatch_threads_secs_per_job: 1e-3,
                dispatch_speedup: 10.0,
            },
            ml: MlBench {
                threshold: 0.65,
                trials_per_point: 4,
                workloads: vec![MlWorkloadBench {
                    name: "IS".into(),
                    points: 40,
                    cold: MlRunBench {
                        measured: 24,
                        rounds: 3,
                        accuracy: 0.7,
                        secs: 1.5,
                    },
                    warm: MlRunBench {
                        measured: 6,
                        rounds: 1,
                        accuracy: 0.8,
                        secs: 0.4,
                    },
                    saved_fraction: 0.75,
                }],
            },
        };
        let v = report.to_json();
        assert_eq!(v.get("schema").and_then(Json::as_u64), Some(2));
        let cfg = v.get("config").expect("config key");
        assert_eq!(cfg.get("ranks").and_then(Json::as_u64), Some(8));
        assert_eq!(cfg.get("class").and_then(Json::as_str), Some("mini"));
        let ws = v.get("workloads").and_then(Json::as_arr).expect("array");
        assert_eq!(ws.len(), 1);
        for key in [
            "name",
            "nranks",
            "points",
            "golden_secs",
            "arena_trials_per_sec",
        ] {
            assert!(ws[0].get(key).is_some(), "workload missing {:?}", key);
        }
        let j = v.get("journal").expect("journal key");
        assert_eq!(j.get("records").and_then(Json::as_u64), Some(100));
        let s = v.get("serve").expect("serve key");
        for key in [
            "campaigns",
            "trials_per_campaign",
            "submit_roundtrip_secs",
            "concurrent_trials_per_sec",
            "serial_trials_per_sec",
            "speedup",
        ] {
            assert!(s.get(key).is_some(), "serve missing {:?}", key);
        }
        assert_eq!(s.get("campaigns").and_then(Json::as_u64), Some(2));
        let sc = v.get("sched").expect("sched key");
        let sw = sc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("sched workloads array");
        assert_eq!(sw.len(), 1);
        for key in [
            "name",
            "nranks",
            "coop_trials_per_sec",
            "threads_trials_per_sec",
            "speedup",
        ] {
            assert!(sw[0].get(key).is_some(), "sched workload missing {:?}", key);
        }
        let sd = sc.get("dispatch").expect("sched dispatch key");
        for key in [
            "ranks",
            "jobs",
            "coop_secs_per_job",
            "threads_secs_per_job",
            "speedup",
        ] {
            assert!(sd.get(key).is_some(), "sched dispatch missing {:?}", key);
        }
        assert_eq!(sd.get("ranks").and_then(Json::as_u64), Some(64));
        let ml = v.get("ml").expect("ml key");
        assert!(ml.get("threshold").and_then(Json::as_f64).is_some());
        assert_eq!(ml.get("trials_per_point").and_then(Json::as_u64), Some(4));
        let mw = ml
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("ml workloads array");
        assert_eq!(mw.len(), 1);
        for key in ["name", "points", "cold", "warm", "saved_fraction"] {
            assert!(mw[0].get(key).is_some(), "ml workload missing {:?}", key);
        }
        for side in ["cold", "warm"] {
            let r = mw[0].get(side).expect("run object");
            for key in ["measured", "rounds", "accuracy", "secs"] {
                assert!(r.get(key).is_some(), "{side} run missing {:?}", key);
            }
        }
        // The document round-trips through the parser.
        let back = Json::parse(&v.encode()).unwrap();
        assert_eq!(back.encode(), v.encode());
    }

    #[test]
    fn journal_throughput_measures_and_cleans_up() {
        let rate = journal_throughput(256);
        assert!(rate > 0.0);
    }

    #[test]
    fn serve_bench_smoke() {
        // One trial per point through both daemon rounds: exercises
        // submission, the scheduler at both concurrency settings, and
        // the speedup arithmetic.
        let sb = bench_serve(1);
        assert_eq!(sb.campaigns, SERVE_CAMPAIGNS);
        assert_eq!(sb.trials_per_campaign, 1);
        assert!(sb.submit_roundtrip_secs > 0.0);
        assert!(sb.concurrent_trials_per_sec > 0.0);
        assert!(sb.serial_trials_per_sec > 0.0);
    }

    #[test]
    fn sched_bench_smoke() {
        // A two-trial A/B of the smallest kernel: exercises both
        // engine-pinned campaigns and the speedup arithmetic.
        let b = bench_sched_workload("IS", 2);
        assert_eq!(b.name, "IS");
        assert!(b.coop_trials_per_sec > 0.0);
        assert!(b.threads_trials_per_sec > 0.0);
        assert!(b.speedup > 0.0);
    }

    #[test]
    fn ml_bench_smoke() {
        // One-trial cold + warm loops over the smallest kernel, through a
        // real scratch registry: exercises registration, auto resolution,
        // the warm-started run, and the saved-fraction arithmetic.
        let dir = std::env::temp_dir().join(format!("fastfit-mlbench-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = ModelRegistry::open(&dir).expect("scratch registry opens");
        let b = bench_ml_workload("IS", 1, &registry);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(b.name, "IS");
        assert!(b.points > 0);
        assert!(b.cold.measured > 0 && b.cold.secs > 0.0);
        assert!(b.warm.measured > 0 && b.warm.secs > 0.0);
        assert!(b.warm.measured <= b.points);
        assert!(b.saved_fraction.is_finite());
    }

    #[test]
    fn is_bench_smoke() {
        // A two-trial sweep of the smallest kernel: exercises golden
        // latency and the trial-rate arithmetic.
        let wb = bench_workload(bench_workload_by_name("IS"), 2);
        assert_eq!(wb.name, "IS");
        assert!(wb.golden_secs > 0.0);
        assert!(wb.arena_trials_per_sec > 0.0);
        assert!(wb.points > 0);
    }
}
