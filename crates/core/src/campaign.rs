//! Campaign orchestration — FastFIT's three-phase architecture (§IV):
//! profiling, injection, and learning.
//!
//! [`Campaign::prepare`] runs the profiling phase (one recorded clean run,
//! [`GoldenRun::record`]) and applies semantic + context pruning
//! ([`Campaign::from_golden`]). [`Campaign::run_all`] measures
//! every surviving point with `trials_per_point` random single-bit faults.
//! [`Campaign::run_with_ml`] instead drives the §III-C feedback loop,
//! measuring points until the model is accurate enough and predicting the
//! rest.
//!
//! Every one of them measures through the same loop,
//! `Campaign::measure_segments`: the calling thread commits trials to the
//! observer strictly in canonical `(point, trial)` order while scoped
//! helper threads run trials ahead of it on the host's idle cores — as
//! many as the *process* has carriers to spare — so a campaign journals
//! exactly what it would running one trial at a time (DESIGN.md §19).
//!
//! A trial is a bit-for-bit re-run of the golden job up to its injection
//! point, and its collectives ahead of that point return what the golden
//! run recorded instead of exchanging it again (DESIGN.md §20) — the
//! un-replayed path stays as the fallback for an attempt that cannot prove
//! the recorded results are its own, and as the reference
//! `tests/prefix_equivalence.rs` compares against. It is one again from
//! the moment its fault is gone — repaired by the transport, never sent,
//! overwritten by the result — and ends there with the golden outputs
//! (DESIGN.md §21; reference: `tests/absorb_equivalence.rs`).

use crate::fault::{FaultSpec, InjectorHook};
use crate::features::FeatureExtractor;
use crate::golden::GoldenRun;
use crate::observe::{CampaignObserver, CampaignPhase, NullObserver, ProgressEvent};
use crate::prune::{
    context_prune, ml_driven_active, semantic_prune, ActiveOptions, ContextPrune, MlConfig,
    MlOutcome, MlRound, MlTarget, SemanticPrune,
};
use crate::response::{classify, Response, ResponseHistogram};
use crate::space::{full_space_count, FaultChannel, InjectionPoint, ParamsMode};
use crate::supervise::{
    AttemptOutcome, QuarantineReason, SupervisedTrial, TrialDisposition, TrialSupervisor,
};
use crate::timeline::FaultTimeline;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use simmpi::arena::{ArenaPool, CarrierCharge};
use simmpi::control::HangKind;
use simmpi::hook::CollKind;
use simmpi::replay::ReplayPrefix;
use simmpi::runtime::{AppFn, JobOutcome, JobResult, JobSpec};
use simmpi::sched::Engine;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Name prefix of the scoped threads that run trials ahead of a
/// campaign's commit point (`fastfit-trial-0`, ...). They exist only
/// inside a measurement call and are joined before it returns or unwinds.
pub const HELPER_THREAD_PREFIX: &str = "fastfit-trial-";

/// Cooperative cancellation handle shared between a campaign and its
/// controller (a service scheduler, a signal handler).
///
/// The measurement loop checks the token **between commits** — never
/// inside a trial — so cancellation always lands on a journal-record
/// boundary: every trial the store has journaled is complete, trials run
/// ahead of the commit point are discarded, and a cancelled campaign's
/// directory is exactly as resumable as one interrupted by a crash. The
/// token itself carries no policy; whoever observes `cancelled` on the
/// result decides whether that means `cancelled` or `interrupted`.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<CancelState>);

#[derive(Debug, Default)]
struct CancelState {
    cancelled: AtomicBool,
    /// Test seam, see [`CancelToken::hold_after`].
    gate: Mutex<Gate>,
    gate_cv: Condvar,
}

#[derive(Debug, Default)]
struct Gate {
    /// Fresh trials still to journal before the gate shuts; 0 = not armed.
    remaining: u64,
    /// The gate is shut: campaign threads park at it until cancelled.
    shut: bool,
}

impl CancelToken {
    /// Fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; takes effect at the next
    /// between-trials check of every campaign holding a clone.
    pub fn cancel(&self) {
        self.0.cancelled.store(true, Ordering::Relaxed);
        // Through the lock, so a campaign about to park cannot miss it.
        drop(self.0.gate.lock().expect("cancel gate poisoned"));
        self.0.gate_cv.notify_all();
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.cancelled.load(Ordering::Relaxed)
    }

    /// Test seam: park the campaign at the trial boundary after its
    /// `trials`th fresh (journaled, not replayed) trial until the token is
    /// cancelled, so a test can cancel a campaign that is provably
    /// mid-flight however fast its trials are. 0 arms nothing.
    #[doc(hidden)]
    pub fn hold_after(&self, trials: u64) {
        self.0.gate.lock().expect("cancel gate poisoned").remaining = trials;
    }

    /// Test seam: wait until the campaign is parked at the
    /// [`hold_after`](CancelToken::hold_after) gate. `false` on timeout.
    #[doc(hidden)]
    pub fn wait_held(&self, timeout: Duration) -> bool {
        let gate = self.0.gate.lock().expect("cancel gate poisoned");
        let (gate, _) = self
            .0
            .gate_cv
            .wait_timeout_while(gate, timeout, |g| !g.shut)
            .expect("cancel gate poisoned");
        gate.shut
    }

    /// The campaign's side of the gate: one fresh trial was journaled.
    /// Once the armed count is reached the gate is shut — this and every
    /// later trial boundary (of every campaign holding a clone) parks
    /// until the token is cancelled. Only committing threads call this, so
    /// trials running ahead of a parked commit point are never journaled.
    fn trial_journaled(&self) {
        let mut gate = self.0.gate.lock().expect("cancel gate poisoned");
        if !gate.shut {
            if gate.remaining == 0 {
                return;
            }
            gate.remaining -= 1;
            if gate.remaining > 0 {
                return;
            }
            gate.shut = true;
            self.0.gate_cv.notify_all();
        }
        let _parked = self
            .0
            .gate_cv
            .wait_while(gate, |_| !self.is_cancelled())
            .expect("cancel gate poisoned");
    }
}

/// A workload under study: the application plus the comparison tolerance
/// for `WRONG_ANS` detection.
#[derive(Clone)]
pub struct Workload {
    /// Display name ("IS", "LAMMPS", ...).
    pub name: String,
    /// The application entry point. **Contract:** what a rank does is a
    /// deterministic function of its rank, the seed and the messages it
    /// receives — not of the clock, the schedule, the engine, or state
    /// that outlives a job. Byte-identical journals across engines,
    /// resume, prefix replay and ending a trial when its fault is absorbed
    /// all assume it: each substitutes "what the golden run did" for
    /// running it again.
    pub app: AppFn,
    /// Relative tolerance when comparing outputs to the golden run (0 =
    /// exact; statistical codes like minimd use a loose tolerance).
    pub tolerance: f64,
    /// Ranks per job.
    pub nranks: usize,
    /// Application seed (identical for golden and injected runs).
    pub seed: u64,
}

impl Workload {
    /// Construct a workload.
    pub fn new(name: impl Into<String>, app: AppFn, tolerance: f64, nranks: usize) -> Self {
        Workload {
            name: name.into(),
            app,
            tolerance,
            nranks,
            seed: 0x5EED,
        }
    }
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("tolerance", &self.tolerance)
            .field("nranks", &self.nranks)
            .finish()
    }
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Fault-injection tests per injection point (the paper uses ≥ 100;
    /// the default is scaled down so the experiments finish in minutes,
    /// override with `FASTFIT_TRIALS`).
    pub trials_per_point: usize,
    /// Which parameters to inject (§V-C default: the data buffer).
    pub params: ParamsMode,
    /// Wall-clock backstop = `max(golden_wall × timeout_mult, min_timeout)`.
    /// With the logical watchdog active this should only fire on
    /// infrastructure trouble, never decide a classification.
    pub timeout_mult: u32,
    /// Lower bound on the wall-clock backstop.
    pub min_timeout: Duration,
    /// Logical op budget = `max(golden_ops_max × op_budget_mult,
    /// min_op_budget)` — the deterministic livelock bound, derived from
    /// the golden run's per-rank op counts.
    pub op_budget_mult: u32,
    /// Lower bound on the op budget (tiny workloads need headroom for
    /// fault-perturbed control flow).
    pub min_op_budget: u64,
    /// Retries granted to infrastructure-suspect trials before they are
    /// quarantined (`FASTFIT_MAX_RETRIES`).
    pub max_retries: u32,
    /// Base backoff before a retry; doubles per attempt.
    pub retry_backoff: Duration,
    /// Seed for fault-bit selection.
    pub seed: u64,
    /// Which layer receives the faults: `Param` (the paper's bit flips in
    /// collective input parameters) or `Message` (transport-level faults
    /// on individual in-flight messages).
    pub fault_channel: FaultChannel,
    /// Run trials on the resilient transport (checksum/ack/retransmit
    /// recovery) instead of the plain one.
    pub resilient: bool,
    /// Restrict the campaign to injection points whose call site executes
    /// one of these collective kinds (`None` = all kinds). Part of the
    /// campaign identity: it changes the measured point set.
    pub colls: Option<Vec<CollKind>>,
    /// The per-trial fault schedule. The default single-draw timeline is
    /// the paper's model (one fault per trial); non-single timelines arm
    /// an ordered schedule of correlated events anchored at each point,
    /// and `fault_channel` must equal the timeline's primary channel.
    /// Part of the campaign identity.
    pub timeline: FaultTimeline,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            trials_per_point: 24,
            params: ParamsMode::DataBuffer,
            timeout_mult: 30,
            min_timeout: Duration::from_millis(400),
            op_budget_mult: 32,
            min_op_budget: 10_000,
            max_retries: 2,
            retry_backoff: Duration::from_millis(25),
            seed: 0xFA57,
            fault_channel: FaultChannel::Param,
            resilient: false,
            colls: None,
            timeline: FaultTimeline::default(),
        }
    }
}

impl CampaignConfig {
    /// Default configuration with the environment overrides applied:
    /// `FASTFIT_TRIALS` (trials per point), `FASTFIT_TIMEOUT_MULT`
    /// (wall-clock backstop multiplier), `FASTFIT_MAX_RETRIES` (retries
    /// before quarantine).
    pub fn from_env() -> Self {
        let mut cfg = CampaignConfig::default();
        if let Ok(t) = std::env::var("FASTFIT_TRIALS") {
            if let Ok(t) = t.parse::<usize>() {
                cfg.trials_per_point = t.max(1);
            }
        }
        if let Ok(m) = std::env::var("FASTFIT_TIMEOUT_MULT") {
            if let Ok(m) = m.parse::<u32>() {
                cfg.timeout_mult = m.max(1);
            }
        }
        if let Ok(r) = std::env::var("FASTFIT_MAX_RETRIES") {
            if let Ok(r) = r.parse::<u32>() {
                cfg.max_retries = r;
            }
        }
        if let Ok(c) = std::env::var("FASTFIT_FAULT_CHANNEL") {
            if let Some(c) = FaultChannel::from_token(&c) {
                cfg.fault_channel = c;
            }
        }
        if let Ok(r) = std::env::var("FASTFIT_RESILIENT") {
            cfg.resilient = matches!(r.as_str(), "1" | "true" | "yes");
        }
        if let Ok(t) = std::env::var("FASTFIT_TIMELINE") {
            if let Ok(t) = FaultTimeline::parse(&t) {
                cfg.set_timeline(t);
            }
        }
        cfg
    }

    /// Install a fault timeline, forcing `fault_channel` onto the
    /// timeline's primary channel (the two are one identity; the token
    /// wins over any previously set channel).
    pub fn set_timeline(&mut self, timeline: FaultTimeline) {
        if let Some(primary) = timeline.primary_channel() {
            self.fault_channel = primary;
        }
        self.timeline = timeline;
    }

    /// The retry policy this configuration implies.
    pub fn supervisor(&self) -> TrialSupervisor {
        TrialSupervisor {
            max_retries: self.max_retries,
            backoff: self.retry_backoff,
            ..TrialSupervisor::default()
        }
    }
}

/// Rank count shared by the experiments, honouring `FASTFIT_RANKS`
/// (default 16; the paper uses 32).
pub fn ranks_from_env() -> usize {
    std::env::var("FASTFIT_RANKS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| (1..=256).contains(&n))
        .unwrap_or(16)
}

/// Rank count for a workload that does not name one: `FASTFIT_RANKS`
/// rounded down to a power of two and capped at 16 (FT's slab layout and
/// MG's grid need the rank count to divide the problem edge), at least 2.
/// The one rule behind the experiment harness, the CLI and the daemon.
pub fn default_ranks() -> usize {
    let n = ranks_from_env();
    let mut p = 1usize;
    while p * 2 <= n && p * 2 <= 16 {
        p *= 2;
    }
    p.max(2)
}

/// Measurements for one injection point.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// The point.
    pub point: InjectionPoint,
    /// Response histogram over the trials.
    pub hist: ResponseHistogram,
    /// Trials in which the fault actually fired.
    pub fired: u64,
    /// For trials that ended in a fatal event (`APP_DETECTED`, `MPI_ERR`,
    /// `SEG_FAULT`): the rank the event fired on. Together with
    /// `point.rank` this measures *error propagation between processes* —
    /// whether a fault injected at one rank is detected locally or
    /// surfaces somewhere else first (the unexplored question the paper's
    /// introduction raises).
    pub fatal_ranks: Vec<usize>,
    /// Trials quarantined by the supervisor (persistently
    /// infrastructure-suspect; excluded from `hist`).
    pub quarantined: u64,
    /// Retransmissions the resilient transport performed across the
    /// classified trials (always 0 on the plain transport).
    pub retransmits: u64,
    /// Timeline events that fired across the classified trials. Equals
    /// `fired` for single-draw campaigns (each trial carries one event).
    pub events_fired: u64,
    /// Timeline events that lifted (healed) across the classified trials
    /// (always 0 for single-draw campaigns).
    pub events_lifted: u64,
}

impl PointResult {
    /// The measurement of `point` before any trial.
    fn empty(point: InjectionPoint) -> PointResult {
        PointResult {
            point,
            hist: ResponseHistogram::new(),
            fired: 0,
            fatal_ranks: Vec::new(),
            quarantined: 0,
            retransmits: 0,
            events_fired: 0,
            events_lifted: 0,
        }
    }

    /// Fold one committed trial in.
    fn add(&mut self, disposition: TrialDisposition) {
        match disposition {
            TrialDisposition::Classified(t) => {
                self.hist.add(t.response);
                self.fired += u64::from(t.fired);
                self.retransmits += t.retransmits;
                self.events_fired += t.events_fired;
                self.events_lifted += t.events_lifted;
                self.fatal_ranks.extend(t.fatal_rank);
            }
            TrialDisposition::Quarantined { .. } => self.quarantined += 1,
        }
    }

    /// Fraction of fatal trials whose first fatal event fired on a rank
    /// *other* than the injected one (`None` if no trial was fatal).
    pub fn remote_detection_fraction(&self) -> Option<f64> {
        if self.fatal_ranks.is_empty() {
            return None;
        }
        let remote = self
            .fatal_ranks
            .iter()
            .filter(|&&r| r != self.point.rank)
            .count();
        Some(remote as f64 / self.fatal_ranks.len() as f64)
    }
}

impl PointResult {
    /// Error rate at this point (§II).
    pub fn error_rate(&self) -> f64 {
        self.hist.error_rate()
    }
}

/// Everything observed in one fault-injection test.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutcome {
    /// Table-I classification.
    pub response: Response,
    /// Whether the fault actually fired.
    pub fired: bool,
    /// Rank of the first fatal event, for fatal responses.
    pub fatal_rank: Option<usize>,
    /// Retransmissions the resilient transport performed during the trial
    /// (deterministic — a count of recovered deliveries, not wall-clock
    /// dependent — and therefore safe to journal).
    pub retransmits: u64,
    /// Timeline events that fired during the trial. For single-draw
    /// campaigns this is exactly `fired as u64` (one event per trial);
    /// under a timeline it counts per-event ground truth from the hook
    /// and the transport.
    pub events_fired: u64,
    /// Timeline events that lifted (healed) during the trial — a transient
    /// partition whose heal point was reached. Always 0 for single-draw
    /// campaigns.
    pub events_lifted: u64,
}

/// Result of a measurement campaign.
#[derive(Debug)]
pub struct CampaignResult {
    /// Per-point measurements.
    pub results: Vec<PointResult>,
    /// Total fault-injection tests that produced a classification.
    pub total_trials: u64,
    /// Trials quarantined across all points (graceful degradation: the
    /// campaign completed, but these trials contribute no response).
    pub quarantined: u64,
    /// Wall time of the injection phase.
    pub wall: Duration,
    /// Whether the campaign was cancelled before measuring everything
    /// (cooperative: the last journaled trial is complete, and the store
    /// directory resumes like one interrupted by a crash).
    pub cancelled: bool,
}

impl CampaignResult {
    /// Aggregate histogram across all points.
    pub fn aggregate(&self) -> ResponseHistogram {
        let mut h = ResponseHistogram::new();
        for r in &self.results {
            h.merge(&r.hist);
        }
        h
    }
}

/// One point's share of a measurement: trials `lo..hi` of the bit-draw
/// stream seeded `seed`. A measurement's canonical `(point, trial, bit)`
/// sequence is its segments in order, each in trial order.
struct Segment<'a> {
    point: &'a InjectionPoint,
    lo: usize,
    hi: usize,
    seed: u64,
}

/// One trial of the canonical sequence, handed to whichever thread
/// claimed it.
#[derive(Clone, Copy)]
struct Claim {
    /// Index of the trial's segment.
    seg: usize,
    trial: usize,
    bit: u64,
}

/// What running (or replaying) a claimed trial produced.
struct Finished {
    trial: SupervisedTrial,
    /// The disposition came from `observer.replay`, not a fresh run.
    replayed: bool,
}

/// Generator of the canonical sequence: the next trial nobody has
/// claimed yet.
struct Cursor<'a> {
    segments: &'a [Segment<'a>],
    seg: usize,
    trial: usize,
    /// Bit-draw stream of segment `seg`, seeded on its first draw.
    rng: Option<ChaCha8Rng>,
}

impl Cursor<'_> {
    fn next(&mut self) -> Option<Claim> {
        loop {
            let segment = self.segments.get(self.seg)?;
            if self.trial >= segment.hi {
                self.seg += 1;
                self.trial = 0;
                self.rng = None;
                continue;
            }
            // Every trial consumes its bit draw — skipped ones too, and
            // whatever its disposition turns out to be — so the stream
            // stays aligned across resumes and across slice boundaries.
            let bit: u64 = self
                .rng
                .get_or_insert_with(|| ChaCha8Rng::seed_from_u64(segment.seed))
                .gen();
            let trial = self.trial;
            self.trial += 1;
            if trial >= segment.lo {
                return Some(Claim {
                    seg: self.seg,
                    trial,
                    bit,
                });
            }
        }
    }
}

/// A claimed trial's place in the window: its result once it has one (a
/// helper's caught panic travels as the `Err`).
type Slot = Option<std::thread::Result<Finished>>;

/// What the threads of one measurement call share.
struct Pipeline<'a> {
    state: Mutex<PipelineState<'a>>,
    /// Signalled when a helper hands a result in.
    head_ready: Condvar,
    /// Signalled when a commit finds a carrier spare, and at stop.
    room: Condvar,
    /// Most trials claimed but not yet committed.
    capacity: usize,
}

struct PipelineState<'a> {
    cursor: Cursor<'a>,
    /// Claimed, uncommitted trials in canonical order; the front is the
    /// head of the line, the next to commit.
    window: VecDeque<(Claim, Slot)>,
    /// Trials the calling thread has taken off the front.
    committed: usize,
    /// The calling thread has left the loop (done, cancelled or
    /// unwinding): helpers claim nothing more.
    stop: bool,
}

impl<'a> Pipeline<'a> {
    fn lock(&self) -> MutexGuard<'_, PipelineState<'a>> {
        self.state.lock().expect("trial pipeline lock poisoned")
    }
}

impl PipelineState<'_> {
    /// Claim the next trial of the sequence; the second value says where
    /// its result goes ([`PipelineState::finish`]).
    fn claim(&mut self) -> Option<(Claim, usize)> {
        let claim = self.cursor.next()?;
        self.window.push_back((claim, None));
        Some((claim, self.committed + self.window.len() - 1))
    }

    fn finish(&mut self, slot: usize, done: std::thread::Result<Finished>) {
        self.window[slot - self.committed].1 = Some(done);
    }
}

/// Tells a pipeline's helpers to stop when dropped.
struct StopOnExit<'a, 'b>(&'a Pipeline<'b>);

impl Drop for StopOnExit<'_, '_> {
    fn drop(&mut self) {
        // Every update leaves the state valid, and this may run during
        // an unwind: take the guard poisoned or not.
        let mut state = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.stop = true;
        drop(state);
        self.0.room.notify_all();
    }
}

/// Where a campaign's prefix replay went (telemetry: never journaled, and
/// outside campaign identity like the engine and the pipeline width).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayStats {
    /// Collective calls, summed over ranks and trials, that returned the
    /// golden run's recorded result instead of exchanging one.
    pub replayed_calls: u64,
    /// Trial attempts that ended diverged — the fault reached a rank still
    /// inside its replayed prefix — and were run again without replay.
    pub fallbacks: u64,
    /// Bytes of recorded results the golden run's log holds.
    pub log_bytes: u64,
    /// Trial jobs whose result stands (every attempt but the diverged).
    pub trial_jobs: u64,
    /// Of those, the ones that ended at absorption: the moment nothing
    /// carried the fault any more, with the golden outputs for theirs.
    pub absorbed_trials: u64,
}

/// A prepared campaign: the golden run + pruning products.
///
/// Reads of `campaign.profile`, `campaign.golden` and
/// `campaign.golden_ops` go through to the shared [`GoldenRun`].
pub struct Campaign {
    /// The workload under study.
    pub workload: Workload,
    /// Configuration.
    pub cfg: CampaignConfig,
    /// What the profiling phase yielded (profile, golden outputs and op
    /// counts, result log); shared with every campaign pruned from it.
    pub golden_run: Arc<GoldenRun>,
    /// Wall time of the golden run: the base of this campaign's
    /// wall-clock backstop.
    pub golden_wall: Duration,
    /// §III-A result.
    pub semantic: SemanticPrune,
    /// §III-B result (the surviving points).
    pub context: ContextPrune,
    /// Size of the unpruned space.
    pub full_points: u64,
    /// Feature lookup for §III-C.
    pub extractor: FeatureExtractor,
    /// The arena pool every trial runs on. One arena per concurrent
    /// caller (each thread of the trial pipeline checks out its own),
    /// reused across trials and points. Shared (`Arc`) so a multi-campaign
    /// scheduler can hand several same-rank-count campaigns one pool.
    arena: Arc<ArenaPool>,
    /// Trials the measurement loop may have running at once, and the
    /// process-wide carrier count its helper threads stay within: the
    /// host's `available_parallelism()` (see [`Campaign::pin_width`]).
    width: usize,
    /// Cooperative cancellation flag, checked between trials and between
    /// points. Defaults to a private never-cancelled token.
    cancel: CancelToken,
    /// Replay the golden prefix of every trial (see [`Campaign::pin_replay`]).
    replay: bool,
    replayed_calls: AtomicU64,
    replay_fallbacks: AtomicU64,
    trial_jobs: AtomicU64,
    absorbed_trials: AtomicU64,
}

impl std::ops::Deref for Campaign {
    type Target = GoldenRun;

    fn deref(&self) -> &GoldenRun {
        &self.golden_run
    }
}

impl Campaign {
    /// Profiling phase: one clean recorded run, then semantic and context
    /// pruning.
    pub fn prepare(workload: Workload, cfg: CampaignConfig) -> Campaign {
        Campaign::prepare_observed(workload, cfg, &NullObserver)
    }

    /// As [`Campaign::prepare`], reporting profile/prune phase timings to
    /// `observer`.
    pub fn prepare_observed(
        workload: Workload,
        cfg: CampaignConfig,
        observer: &dyn CampaignObserver,
    ) -> Campaign {
        Campaign::prepare_with_pool(workload, cfg, observer, None)
    }

    /// As [`Campaign::prepare`], but with trials pinned to `engine`
    /// instead of the platform's: a private engine-pinned [`ArenaPool`].
    /// This is the in-process A/B seam the scheduler-equivalence suite and
    /// the coop-vs-threads bench rounds use — two campaigns prepared from
    /// the same spec on different engines must produce byte-identical
    /// journals.
    pub fn prepare_on_engine(workload: Workload, cfg: CampaignConfig, engine: Engine) -> Campaign {
        let pool = Arc::new(ArenaPool::with_engine(workload.nranks, engine));
        Campaign::prepare_with_pool(workload, cfg, &NullObserver, Some(pool))
    }

    /// As [`Campaign::prepare_observed`], running trials on a caller-owned
    /// [`ArenaPool`] instead of a private one. The scheduler hook for a
    /// campaign service: campaigns with the same rank count can share one
    /// pool so idle arenas migrate between them instead of piling up
    /// per-campaign. `pool.nranks()` must match the workload; `None`
    /// creates a private pool (the classic behaviour).
    pub fn prepare_with_pool(
        workload: Workload,
        cfg: CampaignConfig,
        observer: &dyn CampaignObserver,
        pool: Option<Arc<ArenaPool>>,
    ) -> Campaign {
        let golden = Arc::new(GoldenRun::record(&workload));
        observer.on_event(&ProgressEvent::PhaseFinished {
            phase: CampaignPhase::Profile,
            wall: golden.wall,
        });
        Campaign::from_golden(workload, cfg, golden, observer, pool)
    }

    /// The pruning half of [`Campaign::prepare_with_pool`]: semantic and
    /// context pruning of a golden run that was recorded earlier — by
    /// [`GoldenRun::record`] on this `workload`, possibly for another
    /// campaign (nothing in `cfg` shapes a golden run).
    pub fn from_golden(
        workload: Workload,
        cfg: CampaignConfig,
        golden: Arc<GoldenRun>,
        observer: &dyn CampaignObserver,
        pool: Option<Arc<ArenaPool>>,
    ) -> Campaign {
        if let Some(p) = &pool {
            assert_eq!(
                p.nranks(),
                workload.nranks,
                "shared ArenaPool rank count must match the workload"
            );
        }
        let profile = &golden.profile;
        assert_eq!(
            profile.nranks, workload.nranks,
            "the golden run must be one of this workload"
        );
        let t1 = Instant::now();
        let semantic = semantic_prune(profile);
        let mut context = context_prune(profile, &semantic, &cfg.params);
        // The collective-subset knob restricts the measured point set (and
        // with it the campaign identity) *after* pruning, so a scenario
        // sweep over collective subsets reuses the same pruning pipeline.
        if let Some(kinds) = &cfg.colls {
            context.points.retain(|p| kinds.contains(&p.kind));
        }
        let full_points = full_space_count(profile, &cfg.params);
        let extractor = FeatureExtractor::new(profile);
        observer.on_event(&ProgressEvent::PhaseFinished {
            phase: CampaignPhase::Prune,
            wall: t1.elapsed(),
        });
        let arena = pool.unwrap_or_else(|| Arc::new(ArenaPool::new(workload.nranks)));
        Campaign {
            workload,
            cfg,
            golden_wall: golden.wall,
            golden_run: golden,
            semantic,
            context,
            full_points,
            extractor,
            arena,
            width: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cancel: CancelToken::new(),
            replay: true,
            replayed_calls: AtomicU64::new(0),
            replay_fallbacks: AtomicU64::new(0),
            trial_jobs: AtomicU64::new(0),
            absorbed_trials: AtomicU64::new(0),
        }
    }

    /// Test seam: `false` exchanges every collective of every trial for
    /// real and runs every trial to its end — the path a diverged attempt
    /// falls back to, and the reference `tests/prefix_equivalence.rs` and
    /// `tests/absorb_equivalence.rs` hold the default against.
    #[doc(hidden)]
    pub fn pin_replay(&mut self, replay: bool) {
        self.replay = replay;
    }

    /// Where this campaign's prefix replay went so far.
    pub fn replay_stats(&self) -> ReplayStats {
        ReplayStats {
            replayed_calls: self.replayed_calls.load(Ordering::Relaxed),
            fallbacks: self.replay_fallbacks.load(Ordering::Relaxed),
            log_bytes: self.log.bytes(),
            trial_jobs: self.trial_jobs.load(Ordering::Relaxed),
            absorbed_trials: self.absorbed_trials.load(Ordering::Relaxed),
        }
    }

    /// Test seam: use `width` in place of `available_parallelism()` —
    /// for the number of helper threads and for the carrier limit they
    /// stay within alike — so a 1-CPU host can exercise the pipeline and
    /// a many-core one can pin the serial order.
    #[doc(hidden)]
    pub fn pin_width(&mut self, width: usize) {
        self.width = width.max(1);
    }

    /// Install a cancellation token. Clones of the token held elsewhere
    /// (a service scheduler, a signal watcher) cancel this campaign's
    /// measurement loops at the next between-trials boundary.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = token;
    }

    /// The campaign's cancellation token (clone it to cancel from another
    /// thread).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The worker pool this campaign runs trials on (shared with the
    /// scheduler when prepared via [`Campaign::prepare_with_pool`]).
    pub fn arena_pool(&self) -> &Arc<ArenaPool> {
        &self.arena
    }

    /// The injection points that survived pruning.
    pub fn points(&self) -> &[InjectionPoint] {
        &self.context.points
    }

    /// Overall point reduction versus the full space (Table III "Total").
    pub fn total_reduction(&self) -> f64 {
        if self.full_points == 0 {
            return 0.0;
        }
        1.0 - self.points().len() as f64 / self.full_points as f64
    }

    /// Per-rank logical op budget for fault trials: a generous multiple of
    /// the golden run's busiest rank. Deterministic — derived from logical
    /// op counts, not wall time — so exceeding it is a proof of livelock,
    /// not a symptom of machine load.
    pub fn op_budget(&self) -> u64 {
        let golden_max = self.golden_ops.iter().copied().max().unwrap_or(0);
        golden_max
            .saturating_mul(u64::from(self.cfg.op_budget_mult))
            .max(self.cfg.min_op_budget)
    }

    /// Job spec for one trial attempt at the given escalation level (0 for
    /// the first attempt; each retry doubles both the wall backstop and
    /// the op budget so a retried trial gets strictly more room).
    fn trial_spec(
        &self,
        hook: Arc<InjectorHook>,
        escalation: u32,
        replay: Option<ReplayPrefix>,
    ) -> JobSpec {
        let grow = 1u32 << escalation.min(10);
        JobSpec {
            nranks: self.workload.nranks,
            seed: self.workload.seed,
            timeout: (self.golden_wall * self.cfg.timeout_mult).max(self.cfg.min_timeout) * grow,
            op_budget: Some(self.op_budget().saturating_mul(u64::from(grow))),
            record: false,
            resilient_transport: self.cfg.resilient,
            hook: Some(hook),
            replay,
            ..Default::default()
        }
    }

    /// Run the job of one trial attempt: with the golden prefix replayed
    /// up to the call the golden run issued at `point` — the first call
    /// any event of the trial's timeline can act on — and, should that
    /// attempt end diverged, once more with every collective exchanged for
    /// real. The diverged attempt is discarded whole (fresh hook, fresh
    /// job): it touches neither the supervisor's retry count nor the
    /// journal. A job carrying the prefix also watches for the moment its
    /// fault is gone and ends there (DESIGN.md §21): the rest of it is the
    /// golden run's, so the golden outputs stand in for its outcome, and
    /// what a fault can move — fired, retransmits, event counts — is
    /// final in the hook and the transport counters. The one place a
    /// trial's job is run.
    fn run_trial_job(
        &self,
        point: &InjectionPoint,
        bit: u64,
        escalation: u32,
    ) -> (Arc<InjectorHook>, JobResult) {
        let mut replay = self
            .replay
            .then(|| self.anchor(point))
            .flatten()
            .map(|(comm, seq)| ReplayPrefix {
                log: self.log.clone(),
                comm,
                seq,
            });
        loop {
            let hook = Arc::new(InjectorHook::new(self.fault_spec(point, bit)));
            let spec = self.trial_spec(hook.clone(), escalation, replay.take());
            let mut result = self.arena.run(&spec, self.workload.app.clone());
            if result.diverged {
                self.replay_fallbacks.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.replayed_calls
                .fetch_add(result.replayed_calls, Ordering::Relaxed);
            self.trial_jobs.fetch_add(1, Ordering::Relaxed);
            if result.absorbed {
                self.absorbed_trials.fetch_add(1, Ordering::Relaxed);
                result.outcome = JobOutcome::Completed {
                    outputs: self.golden.clone(),
                };
            }
            return (hook, result);
        }
    }

    /// The fault spec for one trial draw under this campaign's channel.
    fn fault_spec(&self, point: &InjectionPoint, bit: u64) -> FaultSpec {
        FaultSpec {
            point: *point,
            bit,
            channel: self.cfg.fault_channel,
            timeline: self.cfg.timeline.clone(),
        }
    }

    /// Ground truth for a finished trial: `(fired, events_fired,
    /// events_lifted)`.
    ///
    /// Single-draw campaigns keep the historical convention: parameter and
    /// rank faults fire at the hook (the targeted invocation was reached);
    /// message faults and partitions fire at the wire, so the transport has
    /// the ground truth (an armed plan whose `nth_send` exceeds the
    /// collective's traffic never hits a message; a partition whose cut no
    /// scoped message crosses never drops one). `events_fired` is then
    /// 0 or 1 and `events_lifted` is 0.
    ///
    /// Timeline campaigns count per event: rank events (fail-slow,
    /// crash-stop) at the hook, message events at the wire, and the
    /// partition event fired iff its cut dropped at least one scoped
    /// message. A trial `fired` when any event did. (For hang-killed
    /// trials [`Campaign::classify_trial`] collapses the counts back to
    /// the fired boolean — the teardown snapshot is not ground truth.)
    fn trial_events(
        &self,
        hook: &InjectorHook,
        transport: &simmpi::transport::TransportStats,
    ) -> (bool, u64, u64) {
        if self.cfg.timeline.is_single() {
            let fired = match self.cfg.fault_channel {
                FaultChannel::Param | FaultChannel::CrashStop | FaultChannel::FailSlow => {
                    hook.fired()
                }
                FaultChannel::Message | FaultChannel::Partition => transport.fault_fired,
            };
            return (fired, u64::from(fired), 0);
        }
        let events_fired = hook.events_fired()
            + transport.msg_faults_fired
            + u64::from(transport.partition_drops > 0);
        (events_fired > 0, events_fired, hook.events_lifted())
    }

    /// Execute one fault-injection test: flip `bit` at `point`, run the
    /// job, classify against the golden outputs. Also reports whether the
    /// fault fired.
    pub fn run_trial(&self, point: &InjectionPoint, bit: u64) -> (Response, bool) {
        let t = self.run_trial_detailed(point, bit);
        (t.response, t.fired)
    }

    /// As [`Campaign::run_trial`], additionally reporting the rank of the
    /// first fatal event (error-propagation information).
    ///
    /// This is the *unsupervised* single-shot path: a wall-clock backstop
    /// kill classifies `INF_LOOP` here. Campaign measurement goes through
    /// [`Campaign::run_trial_supervised`], which retries such suspect
    /// outcomes instead.
    pub fn run_trial_detailed(&self, point: &InjectionPoint, bit: u64) -> TrialOutcome {
        let (hook, result) = self.run_trial_job(point, bit, 0);
        let events = self.trial_events(&hook, &result.transport);
        self.classify_trial(&result.outcome, events, result.transport.retransmits)
    }

    fn classify_trial(
        &self,
        outcome: &JobOutcome,
        (fired, events_fired, events_lifted): (bool, u64, u64),
        retransmits: u64,
    ) -> TrialOutcome {
        let response = classify(outcome, &self.golden, self.workload.tolerance);
        let fatal_rank = match outcome {
            JobOutcome::Fatal { rank, .. } => Some(*rank),
            _ => None,
        };
        // A trial the hang detector killed has no deterministic per-event
        // count: teardown catches in-flight ranks wherever the sweep (or
        // another rank's op-budget burn) found them, so whether a later
        // scheduled event got to fire before the snapshot is a wall-clock
        // race. The ground truth a hang leaves behind is *that* the
        // schedule drew blood, not how many events landed — so the
        // counters collapse to the fired boolean (exactly the single-draw
        // convention), keeping journals byte-identical across execution
        // engines, kill/resume, and fleet sharding.
        let (events_fired, events_lifted) = if matches!(outcome, JobOutcome::TimedOut { .. }) {
            (u64::from(fired), 0)
        } else {
            (events_fired, events_lifted)
        };
        TrialOutcome {
            response,
            fired,
            fatal_rank,
            retransmits,
            events_fired,
            events_lifted,
        }
    }

    /// One supervised trial attempt: deterministic outcomes (completed,
    /// fatal, proven hang) are trusted; a wall-clock backstop kill or a
    /// panic escaping the job harness is reported as suspect so the
    /// supervisor can retry with bigger budgets.
    fn run_trial_attempt(
        &self,
        point: &InjectionPoint,
        bit: u64,
        escalation: u32,
    ) -> AttemptOutcome {
        let (hook, result) = match catch_unwind(AssertUnwindSafe(|| {
            self.run_trial_job(point, bit, escalation)
        })) {
            Ok(r) => r,
            // Harness trouble (e.g. thread-spawn failure under fd/mem
            // pressure), not a property of the fault.
            Err(_) => return AttemptOutcome::Suspect(QuarantineReason::Harness),
        };
        match result.outcome {
            JobOutcome::TimedOut {
                kind: HangKind::WallClock,
            } => AttemptOutcome::Suspect(QuarantineReason::WallClock),
            outcome => {
                let events = self.trial_events(&hook, &result.transport);
                AttemptOutcome::Trusted(self.classify_trial(
                    &outcome,
                    events,
                    result.transport.retransmits,
                ))
            }
        }
    }

    /// Execute one fault-injection test under the retry/quarantine policy
    /// of [`CampaignConfig::max_retries`]. Deterministic outcomes pass
    /// through on the first attempt; infrastructure-suspect ones are
    /// retried with escalating wall/op budgets; persistent ambiguity is
    /// quarantined rather than given a fabricated response.
    pub fn run_trial_supervised(&self, point: &InjectionPoint, bit: u64) -> SupervisedTrial {
        self.cfg
            .supervisor()
            .run(|escalation| self.run_trial_attempt(point, bit, escalation))
    }

    /// Measure one point with `trials` random single-bit faults.
    pub fn measure_point(&self, point: &InjectionPoint, trials: usize, seed: u64) -> PointResult {
        self.measure_point_observed(point, trials, seed, &NullObserver)
    }

    /// As [`Campaign::measure_point`], consulting `observer` before every
    /// trial (checkpoint/resume) and reporting each completed trial.
    ///
    /// The fault bit of trial `i` is always the `i`-th draw from the
    /// point's seeded RNG — replayed trials advance the stream exactly
    /// like fresh ones — so a resumed point is bit-for-bit the same
    /// measurement as an uninterrupted one.
    pub fn measure_point_observed(
        &self,
        point: &InjectionPoint,
        trials: usize,
        seed: u64,
        observer: &dyn CampaignObserver,
    ) -> PointResult {
        self.measure_point_slice_observed(point, 0, trials, seed, observer)
    }

    /// As [`Campaign::measure_point_observed`], executing only trials
    /// `lo..hi` of the point's stream. Trials below `lo` consume their
    /// bit draw without running, so trial `i` of any slice sees exactly
    /// the bit it would in a full run — the seam that lets a fleet
    /// worker execute a contiguous sub-range of a campaign against the
    /// shared per-point bit-draw stream and journal records identical to
    /// a single-host run's.
    pub fn measure_point_slice_observed(
        &self,
        point: &InjectionPoint,
        lo: usize,
        hi: usize,
        seed: u64,
        observer: &dyn CampaignObserver,
    ) -> PointResult {
        let mut measured = None;
        let segment = Segment {
            point,
            lo,
            hi,
            seed,
        };
        self.measure_segments(&[segment], observer, &mut |r| measured = Some(r));
        // Cancelled before its first trial committed.
        measured.unwrap_or_else(|| PointResult::empty(*point))
    }

    /// The measurement loop — the only one: commit the trials of
    /// `segments` to `observer` strictly in canonical order, while up to
    /// `width − 1` helper threads run trials ahead of the commit point.
    ///
    /// The calling thread is the only one that checks cancellation, calls
    /// `observer.on_event` or passes the [`CancelToken::hold_after`] gate;
    /// it takes the next unclaimed trial itself whenever the head of the
    /// line is not ready, so with no helper (width 1, the thread-per-rank
    /// engine, a gate that never opens) it claims, runs and commits one
    /// trial after another. A trial is a pure function of (campaign,
    /// point, bit) and the one load-sensitive outcome, the wall-clock
    /// backstop, is retried and never journaled — so what is committed
    /// does not depend on who ran it, or on how many ran at once.
    ///
    /// `on_point` receives each segment's measurement once its last
    /// trial has committed, and that of a segment a cancel cut short if
    /// any of its trials had.
    fn measure_segments(
        &self,
        segments: &[Segment<'_>],
        observer: &dyn CampaignObserver,
        on_point: &mut dyn FnMut(PointResult),
    ) {
        let trials: usize = segments.iter().map(|s| s.hi.saturating_sub(s.lo)).sum();
        // The thread-per-rank engine fills the host with one job's rank
        // threads and waits on the wall clock; it never speculates.
        let helpers = match self.arena.engine() {
            Engine::Coop => (self.width - 1).min(trials.saturating_sub(1)),
            Engine::Threads => 0,
        };
        let pipe = Pipeline {
            state: Mutex::new(PipelineState {
                cursor: Cursor {
                    segments,
                    seg: 0,
                    trial: 0,
                    rng: None,
                },
                window: VecDeque::new(),
                committed: 0,
                stop: false,
            }),
            head_ready: Condvar::new(),
            room: Condvar::new(),
            // Enough claimed-but-uncommitted trials that a carrier whose
            // result waits behind a slow head of line still finds work;
            // also the most a cancel or a crash can throw away.
            capacity: 2 * self.width,
        };
        // This thread is a running carrier for the whole call, whatever
        // else the process runs; helpers charge per trial, and only while
        // the process stays within `width` carriers.
        let _carrier = self.arena.charge_carriers();
        std::thread::scope(|scope| {
            // Dropped when this closure returns *or unwinds*, before the
            // scope joins: helpers finish the trial they are in and leave.
            let _stop = StopOnExit(&pipe);
            let mut spawned = 0;
            // A helper is worth waking (or creating) only while the
            // process has a carrier to spare; otherwise it would find the
            // same count and go back to sleep.
            let mut recruit = || {
                if CarrierCharge::running() >= self.width {
                    return;
                }
                pipe.room.notify_all();
                if spawned < helpers {
                    let helper = std::thread::Builder::new()
                        .name(format!("{HELPER_THREAD_PREFIX}{spawned}"))
                        .spawn_scoped(scope, || self.speculate(&pipe, segments, observer));
                    // Under thread or memory pressure: fewer helpers,
                    // same journal.
                    spawned += usize::from(helper.is_ok());
                }
            };
            for (index, segment) in segments.iter().enumerate() {
                let mut result = PointResult::empty(*segment.point);
                for _ in segment.lo..segment.hi {
                    // Cancellation lands only on trial boundaries: every
                    // journaled trial is complete, so a cancelled
                    // directory resumes exactly like a crashed one.
                    // Results already run ahead of here are dropped.
                    if self.cancel.is_cancelled() {
                        if result.hist.total() + result.quarantined > 0 {
                            on_point(result);
                        }
                        return;
                    }
                    recruit();
                    let (claim, done) = self.head_of_line(&pipe, segments, observer);
                    debug_assert_eq!(claim.seg, index, "commits follow the canonical order");
                    observer.on_event(&ProgressEvent::TrialFinished {
                        point: segment.point,
                        trial: claim.trial,
                        bit: claim.bit,
                        disposition: &done.trial.disposition,
                        retries: done.trial.retries,
                        replayed: done.replayed,
                    });
                    if !done.replayed {
                        self.cancel.trial_journaled();
                    }
                    result.add(done.trial.disposition);
                }
                on_point(result);
            }
        });
    }

    /// The calling thread's half of the pipeline: return the head-of-line
    /// trial with its result, running the next unclaimed trial itself
    /// (the head, when nothing runs ahead) for as long as the head is not
    /// ready and the window has room.
    fn head_of_line(
        &self,
        pipe: &Pipeline<'_>,
        segments: &[Segment<'_>],
        observer: &dyn CampaignObserver,
    ) -> (Claim, Finished) {
        let mut state = pipe.lock();
        loop {
            if matches!(state.window.front(), Some((_, Some(_)))) {
                let Some((claim, Some(done))) = state.window.pop_front() else {
                    unreachable!("the front was just matched");
                };
                state.committed += 1;
                drop(state);
                // A panic a helper caught surfaces here, at the trial's
                // own place in the order, as if this thread had run it.
                return (claim, done.unwrap_or_else(|panic| resume_unwind(panic)));
            }
            if state.window.len() < pipe.capacity {
                if let Some((claim, slot)) = state.claim() {
                    drop(state);
                    let done = self.execute(segments[claim.seg].point, claim, observer);
                    state = pipe.lock();
                    state.finish(slot, Ok(done));
                    continue;
                }
            }
            assert!(
                !state.window.is_empty(),
                "the canonical sequence ended before its last commit"
            );
            // Window full or sequence exhausted: the head is on a helper.
            state = pipe
                .head_ready
                .wait(state)
                .expect("trial pipeline lock poisoned");
        }
    }

    /// A helper thread's whole life: claim the next trial while the
    /// window has room and the process a carrier to spare, run it, hand
    /// the result in; leave when told to stop or when nothing is left.
    fn speculate(
        &self,
        pipe: &Pipeline<'_>,
        segments: &[Segment<'_>],
        observer: &dyn CampaignObserver,
    ) {
        let mut state = pipe.lock();
        while !state.stop {
            let charge = if state.window.len() < pipe.capacity {
                self.arena.charge_carriers_within(self.width)
            } else {
                None
            };
            let Some(charge) = charge else {
                // Woken by the next commit that finds a carrier spare.
                state = pipe.room.wait(state).expect("trial pipeline lock poisoned");
                continue;
            };
            let Some((claim, slot)) = state.claim() else {
                return;
            };
            drop(state);
            let done = catch_unwind(AssertUnwindSafe(|| {
                self.execute(segments[claim.seg].point, claim, observer)
            }));
            drop(charge);
            state = pipe.lock();
            state.finish(slot, done);
            pipe.head_ready.notify_one();
        }
    }

    /// Produce one claimed trial's result, on whichever thread claimed
    /// it: the journaled disposition if the observer has one, else a
    /// fresh supervised run (retries and their backoff included).
    fn execute(
        &self,
        point: &InjectionPoint,
        claim: Claim,
        observer: &dyn CampaignObserver,
    ) -> Finished {
        match observer.replay(point, claim.trial, claim.bit) {
            Some(disposition) => Finished {
                trial: SupervisedTrial {
                    disposition,
                    retries: 0,
                },
                replayed: true,
            },
            None => Finished {
                trial: self.run_trial_supervised(point, claim.bit),
                replayed: false,
            },
        }
    }

    /// The RNG seed for the point at `idx` in measurement order. Public
    /// so a fleet worker measuring a sub-range can seed each point's
    /// stream exactly as a single-host run would.
    pub fn point_seed(&self, idx: usize) -> u64 {
        self.cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(idx as u64)
    }

    /// Total trials a plain (non-ML) run of this campaign performs —
    /// the global trial-index space a fleet coordinator shards into
    /// leases.
    pub fn trial_count(&self) -> u64 {
        (self.points().len() * self.cfg.trials_per_point) as u64
    }

    /// Execute the contiguous global trial range `start..end` of a plain
    /// campaign, where global index `g = point_index × trials_per_point
    /// + trial`. Trials are reported to `observer` with the same
    /// (point, trial, bit) coordinates a full [`Campaign::run_all_observed`]
    /// run would use, so the records a range produces are byte-identical
    /// to the corresponding slice of a single-host journal. Returns
    /// `true` when the whole range completed (not cancelled).
    pub fn run_trial_range_observed(
        &self,
        start: u64,
        end: u64,
        observer: &dyn CampaignObserver,
    ) -> bool {
        let tpp = self.cfg.trials_per_point as u64;
        let points = self.points();
        let end = end.min(points.len() as u64 * tpp);
        let mut segments = Vec::new();
        let mut g = start;
        while g < end {
            let pi = (g / tpp) as usize;
            segments.push(Segment {
                point: &points[pi],
                lo: (g % tpp) as usize,
                hi: (tpp.min(end - pi as u64 * tpp)) as usize,
                seed: self.point_seed(pi),
            });
            g = (pi as u64 + 1) * tpp;
        }
        self.measure_segments(&segments, observer, &mut |_| {});
        !self.cancel.is_cancelled()
    }

    /// Injection phase without ML: measure every surviving point.
    pub fn run_all(&self) -> CampaignResult {
        let points = self.points().to_vec();
        self.run_points(&points)
    }

    /// As [`Campaign::run_all`], journaling/reporting through `observer`.
    pub fn run_all_observed(&self, observer: &dyn CampaignObserver) -> CampaignResult {
        let points = self.points().to_vec();
        self.run_points_observed(&points, observer)
    }

    /// Measure an explicit set of points (used for ablations and for
    /// studies that bypass one of the pruning stages).
    pub fn run_points(&self, points: &[InjectionPoint]) -> CampaignResult {
        self.run_points_observed(points, &NullObserver)
    }

    /// As [`Campaign::run_points`], consulting `observer` for replayable
    /// trials and reporting measure-phase progress.
    pub fn run_points_observed(
        &self,
        points: &[InjectionPoint],
        observer: &dyn CampaignObserver,
    ) -> CampaignResult {
        let t0 = Instant::now();
        let trials = self.cfg.trials_per_point;
        observer.on_event(&ProgressEvent::MeasureStarted {
            points_total: points.len(),
            trials_per_point: trials,
        });
        let segments: Vec<Segment<'_>> = points
            .iter()
            .enumerate()
            .map(|(i, point)| Segment {
                point,
                lo: 0,
                hi: trials,
                seed: self.point_seed(i),
            })
            .collect();
        let mut results = Vec::with_capacity(points.len());
        self.measure_segments(&segments, observer, &mut |r| {
            // A cancelled point is partial — don't journal it as finished.
            if !self.cancel.is_cancelled() {
                observer.on_event(&ProgressEvent::PointFinished {
                    point: &r.point,
                    result: &r,
                });
            }
            results.push(r);
        });
        let total_trials = results.iter().map(|r| r.hist.total()).sum();
        let quarantined = results.iter().map(|r| r.quarantined).sum();
        observer.on_event(&ProgressEvent::PhaseFinished {
            phase: CampaignPhase::Measure,
            wall: t0.elapsed(),
        });
        CampaignResult {
            results,
            total_trials,
            quarantined,
            wall: t0.elapsed(),
            cancelled: self.cancel.is_cancelled(),
        }
    }

    /// Injection points after semantic pruning only (every invocation of
    /// every site on the representative ranks). This is the population the
    /// ML stage works through at paper scale; the context-pruned
    /// [`Campaign::points`] set is its deduplicated form.
    pub fn invocation_points(&self) -> Vec<InjectionPoint> {
        let mut points = Vec::new();
        for &rank in &self.semantic.representatives {
            for st in self.profile.site_stats(rank) {
                if let Some(kinds) = &self.cfg.colls {
                    if !kinds.contains(&st.kind) {
                        continue;
                    }
                }
                for inv in 0..st.n_inv {
                    for param in self.cfg.params.params_for(st.kind) {
                        points.push(InjectionPoint {
                            site: st.site,
                            kind: st.kind,
                            rank,
                            invocation: inv,
                            param,
                        });
                    }
                }
            }
        }
        points
    }

    /// Injection + learning phases: the §III-C feedback loop. Returns the
    /// measured point results and the ML outcome (model, predictions,
    /// savings).
    pub fn run_with_ml(&self, target: MlTarget, ml: &MlConfig) -> (CampaignResult, MlOutcome) {
        self.run_with_ml_observed(target, ml, &NullObserver)
    }

    /// As [`Campaign::run_with_ml`], consulting `observer` for replayable
    /// trials and reporting per-round learning progress. Because the
    /// measurement order and the train/verify splits depend only on
    /// `ml.seed` and the measured labels, replaying the journaled trials
    /// reproduces the feedback loop's exact trajectory — a campaign
    /// interrupted mid-loop resumes at the first unmeasured trial.
    pub fn run_with_ml_observed(
        &self,
        target: MlTarget,
        ml: &MlConfig,
        observer: &dyn CampaignObserver,
    ) -> (CampaignResult, MlOutcome) {
        self.run_with_ml_active(
            target,
            ml,
            ActiveOptions::default(),
            observer,
            &mut |_, _| {},
        )
    }

    /// The active-learning form of [`Campaign::run_with_ml_observed`]:
    /// optionally warm-started from a prior forest and entropy-ordered.
    /// `on_model` fires after every feedback round with the round report
    /// and the forest trained on everything measured so far — the model
    /// registry's persistence hook. Per-point trial seeds are keyed to
    /// the point's index in the stable population, so reordering or
    /// skipping measurements never changes the bytes of the trials that
    /// *are* measured.
    pub fn run_with_ml_active(
        &self,
        target: MlTarget,
        ml: &MlConfig,
        opts: ActiveOptions<'_>,
        observer: &dyn CampaignObserver,
        on_model: &mut dyn FnMut(&MlRound, &randomforest::RandomForest),
    ) -> (CampaignResult, MlOutcome) {
        let t0 = Instant::now();
        let features: Vec<Vec<f64>> = self
            .points()
            .iter()
            .map(|p| self.extractor.features(p))
            .collect();
        let mut measured_results: Vec<PointResult> = Vec::new();
        let trials = self.cfg.trials_per_point;
        observer.on_event(&ProgressEvent::MeasureStarted {
            points_total: self.points().len(),
            trials_per_point: trials,
        });
        let outcome = ml_driven_active(
            &features,
            target,
            |i| {
                let pr = self.measure_point_observed(
                    &self.points()[i],
                    trials,
                    self.point_seed(i),
                    observer,
                );
                let label = match target {
                    MlTarget::ErrorType => pr.hist.dominant().index(),
                    MlTarget::RateLevels(k) => crate::response::Levels::even(k).of(pr.error_rate()),
                };
                // After cancellation the loop drains with empty
                // measurements; don't journal those as finished points.
                if !self.cancel.is_cancelled() {
                    observer.on_event(&ProgressEvent::PointFinished {
                        point: &self.points()[i],
                        result: &pr,
                    });
                }
                measured_results.push(pr);
                label
            },
            ml,
            opts,
            |round, forest| {
                observer.on_event(&ProgressEvent::LearnRound {
                    round: round.round,
                    measured: round.measured,
                    accuracy: round.accuracy,
                    predicted: round.predicted,
                    oob_accuracy: round.oob_accuracy,
                    ordering: round.ordering.token(),
                });
                on_model(round, forest);
            },
        );
        observer.on_event(&ProgressEvent::PhaseFinished {
            phase: CampaignPhase::Learn,
            wall: t0.elapsed(),
        });
        let total_trials = measured_results.iter().map(|r| r.hist.total()).sum();
        let quarantined = measured_results.iter().map(|r| r.quarantined).sum();
        (
            CampaignResult {
                results: measured_results,
                total_trials,
                quarantined,
                wall: t0.elapsed(),
                cancelled: self.cancel.is_cancelled(),
            },
            outcome,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::ctx::{RankCtx, RankOutput};
    use simmpi::hook::ParamId;
    use simmpi::op::ReduceOp;
    use simmpi::record::Phase;

    /// A small app with one allreduce in a loop and a verifying end phase.
    fn tiny_workload(nranks: usize) -> Workload {
        let app: AppFn = Arc::new(|ctx: &mut RankCtx| {
            ctx.set_phase(Phase::Compute);
            let mut acc = 0.0f64;
            ctx.frame("loop", |ctx| {
                for _ in 0..3 {
                    acc = ctx.allreduce_one(1.0 + acc / 10.0, ReduceOp::Sum, ctx.world());
                }
            });
            ctx.set_phase(Phase::End);
            ctx.barrier(ctx.world());
            let mut out = RankOutput::new();
            out.push("acc", acc);
            out
        });
        Workload::new("tiny", app, 1e-9, nranks)
    }

    fn quick_cfg() -> CampaignConfig {
        CampaignConfig {
            trials_per_point: 6,
            min_timeout: Duration::from_millis(300),
            ..Default::default()
        }
    }

    #[test]
    fn default_ranks_are_pow2_capped() {
        let r = default_ranks();
        assert!(r.is_power_of_two() && (2..=16).contains(&r));
    }

    #[test]
    fn prepare_prunes_space() {
        let c = Campaign::prepare(tiny_workload(8), quick_cfg());
        // Full space: (3 allreduce invocations x 1 param + 1 barrier x 1
        // param) x 8 ranks = 32.
        assert_eq!(c.full_points, 32);
        // Semantic: all ranks equivalent -> 1 rep. Context: one stack per
        // site -> 1 invocation each -> 2 points (allreduce + barrier).
        assert_eq!(c.semantic.representatives, vec![0]);
        assert_eq!(c.points().len(), 2);
        assert!(c.total_reduction() > 0.9);
    }

    #[test]
    fn sendbuf_faults_mostly_benign_or_wrong_ans() {
        let c = Campaign::prepare(tiny_workload(4), quick_cfg());
        let point = c
            .points()
            .iter()
            .find(|p| p.param == ParamId::SendBuf)
            .copied()
            .expect("allreduce point has a sendbuf");
        let pr = c.measure_point(&point, 8, 42);
        assert_eq!(pr.hist.total(), 8);
        assert_eq!(pr.fired, 8, "every trial reaches invocation 0");
        // A single f64's bit flips either vanish in tolerance, change the
        // answer, or (rarely) nothing else — never an MPI error.
        assert_eq!(pr.hist.count(Response::MpiErr), 0);
        assert_eq!(pr.hist.count(Response::SegFault), 0);
    }

    #[test]
    fn comm_faults_on_barrier_raise_mpi_err() {
        let c = Campaign::prepare(tiny_workload(4), quick_cfg());
        let point = c
            .points()
            .iter()
            .find(|p| p.param == ParamId::Comm)
            .copied()
            .expect("barrier point injects comm");
        let pr = c.measure_point(&point, 8, 43);
        // A bit-flipped communicator handle is (almost) always invalid.
        assert!(
            pr.hist.count(Response::MpiErr) >= 6,
            "histogram: {:?}",
            pr.hist
        );
    }

    #[test]
    fn measurement_is_deterministic() {
        let c = Campaign::prepare(tiny_workload(4), quick_cfg());
        let p = c.points()[0];
        let a = c.measure_point(&p, 5, 7);
        let b = c.measure_point(&p, 5, 7);
        assert_eq!(a.hist, b.hist);
    }

    #[test]
    fn run_all_covers_every_point() {
        let c = Campaign::prepare(tiny_workload(4), quick_cfg());
        let res = c.run_all();
        assert_eq!(res.results.len(), c.points().len());
        assert_eq!(res.total_trials, (c.points().len() * 6) as u64);
        assert!(!res.cancelled);
        let agg = res.aggregate();
        assert_eq!(agg.total(), res.total_trials);
    }

    /// Observer that trips a cancel token after N fresh trials.
    struct CancelAfter {
        token: CancelToken,
        after: usize,
        seen: std::sync::atomic::AtomicUsize,
    }

    impl CampaignObserver for CancelAfter {
        fn replay(
            &self,
            _point: &InjectionPoint,
            _trial: usize,
            _bit: u64,
        ) -> Option<TrialDisposition> {
            None
        }

        fn on_event(&self, event: &ProgressEvent<'_>) {
            if let ProgressEvent::TrialFinished { .. } = event {
                let n = self.seen.fetch_add(1, Ordering::SeqCst) + 1;
                if n >= self.after {
                    self.token.cancel();
                }
            }
        }
    }

    #[test]
    fn cancel_stops_between_trials_and_marks_result() {
        let c = Campaign::prepare(tiny_workload(4), quick_cfg());
        let obs = CancelAfter {
            token: c.cancel_token(),
            after: 3,
            seen: std::sync::atomic::AtomicUsize::new(0),
        };
        let res = c.run_all_observed(&obs);
        assert!(res.cancelled);
        // Exactly one more trial may land after the token trips (the one
        // whose TrialFinished fired it); nothing else runs.
        let ran: u64 = res
            .results
            .iter()
            .map(|r| r.hist.total() + r.quarantined)
            .sum();
        assert!(ran <= 4, "ran {ran} trials after cancelling at 3");
        assert!(ran >= 3);
        // Full measurement would have been points * 6 trials.
        assert!(ran < (c.points().len() * 6) as u64);
    }

    /// Observer collecting the (key, trial, bit) stream of finished
    /// trials — the coordinates the fleet seam must reproduce exactly.
    #[derive(Default)]
    struct Collect {
        seen: std::sync::Mutex<Vec<(String, usize, u64)>>,
    }

    impl CampaignObserver for Collect {
        fn on_event(&self, event: &ProgressEvent<'_>) {
            if let ProgressEvent::TrialFinished {
                point, trial, bit, ..
            } = event
            {
                self.seen
                    .lock()
                    .unwrap()
                    .push((crate::observe::point_key(point), *trial, *bit));
            }
        }
    }

    #[test]
    fn trial_ranges_reassemble_the_full_stream() {
        let c = Campaign::prepare(tiny_workload(4), quick_cfg());
        let full = Collect::default();
        c.run_all_observed(&full);
        let total = c.trial_count();
        assert_eq!(total, (c.points().len() * 6) as u64);
        // Split at an uneven boundary *inside* a point: the second range
        // must skip exactly the bit draws the first one consumed.
        let split = total / 2 + 1;
        let part = Collect::default();
        assert!(c.run_trial_range_observed(0, split, &part));
        assert!(c.run_trial_range_observed(split, total, &part));
        assert_eq!(*part.seen.lock().unwrap(), *full.seen.lock().unwrap());
    }

    #[test]
    fn shared_pool_campaigns_match_private_pool() {
        let pool = Arc::new(ArenaPool::new(4));
        let shared = Campaign::prepare_with_pool(
            tiny_workload(4),
            quick_cfg(),
            &NullObserver,
            Some(pool.clone()),
        );
        let private = Campaign::prepare(tiny_workload(4), quick_cfg());
        let a = shared.run_all();
        let b = private.run_all();
        assert_eq!(a.aggregate(), b.aggregate());
        assert!(pool.idle() >= 1, "shared pool retains the arena");
    }
}
