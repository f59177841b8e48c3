//! The execution front door ([`JobArena`], [`ArenaPool`]) and everything
//! the two engines share: per-job state, the rank body, the supervisor.
//!
//! A job runs on one of two engines. The cooperative scheduler
//! ([`crate::sched::CoopArena`]) multiplexes every rank onto the calling
//! thread and is what runs wherever its stack switch exists (x86_64). The
//! thread-per-rank engine (`run_on_threads`) spawns one named OS thread
//! per rank, supervises, and joins; it keeps nothing between jobs.
//! It is the only engine on other targets and the reference the
//! byte-identity suites compare coop against.
//!
//! ## Job isolation: everything is per-job
//!
//! All semantically meaningful state — the [`Fabric`] (mailboxes, armed
//! faults, seqnos, epoch counter), the [`JobControl`] (deadline, op
//! counters, fatal/hang verdicts), the `RankCtx` (communicator registry,
//! RNG, records) and the output/record slots — is constructed fresh for
//! every job and lives inside that job's own `JobState`. What an arena
//! keeps across jobs (coop: the coroutine stacks) carries no meaning. The
//! fail-stop drain and the stall sweep therefore observe exactly the
//! state of the job they supervise.
//!
//! ## One supervisor
//!
//! Both engines run the same `run_rank` body over the same `JobState`
//! and hand every teardown decision to the same `Supervisor`; the
//! [`JobOutcome`] is derived in one place from what the job's
//! [`JobControl`] recorded. An engine contributes only how ranks are
//! multiplexed and how it observes that every live rank is parked. Neither
//! can preempt a rank: one that never reaches a poll point (a send, a
//! receive, a collective, a yield) hangs its job on either engine.

use crate::control::{FatalKind, HangKind, JobControl, RankPanic};
use crate::ctx::{RankCtx, RankOutput};
use crate::hook::CollHook;
use crate::lock;
use crate::record::CallRecord;
use crate::replay::{RecordedCall, ReplayLog, ReplayPrefix};
use crate::runtime::{
    install_quiet_panic_hook, panic_message, AppFn, JobOutcome, JobResult, JobSpec,
    RANK_THREAD_PREFIX,
};
use crate::sched::{CoopArena, Engine};
use crate::transport::Fabric;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often the thread-per-rank engine looks at its job (completion
/// wait + supervisor step).
const SWEEP: Duration = Duration::from_millis(5);

/// All state of one job, allocated fresh per submission and shared
/// verbatim by both engines — which is what makes engine equivalence hold
/// by construction rather than by re-implementation.
pub(crate) struct JobState {
    pub(crate) nranks: usize,
    pub(crate) seed: u64,
    pub(crate) record: bool,
    pub(crate) hook: Option<Arc<dyn CollHook>>,
    pub(crate) replay: Option<ReplayPrefix>,
    /// No fault can reach the job — it has no hook and runs on the coop
    /// engine — so its data-movement collectives complete by rendezvous
    /// ([`crate::coll::rendezvous`]). Nothing else selects that path.
    pub(crate) rendezvous: bool,
    app: AppFn,
    pub(crate) fabric: Arc<Fabric>,
    pub(crate) ctl: Arc<JobControl>,
    outputs: Vec<Mutex<Option<RankOutput>>>,
    records: Vec<Mutex<Vec<CallRecord>>>,
    /// What each rank's collective calls returned (recorded jobs).
    results: Vec<Mutex<Vec<RecordedCall>>>,
    /// Calls that returned a recorded result, over all ranks.
    replayed: AtomicU64,
}

impl JobState {
    /// Fresh per-job state for `spec` (fabric, control, output slots).
    /// The engine decides the fabric's clock: logical under coop, wall
    /// time on rank threads.
    fn for_spec(spec: &JobSpec, app: AppFn, engine: Engine) -> Arc<JobState> {
        let n = spec.nranks;
        Arc::new(JobState {
            nranks: n,
            seed: spec.seed,
            record: spec.record,
            hook: spec.hook.clone(),
            replay: spec.replay.clone(),
            rendezvous: spec.hook.is_none() && engine == Engine::Coop,
            app,
            fabric: Fabric::with_clock(n, spec.resilient_transport, engine == Engine::Coop),
            ctl: Arc::new(JobControl::with_budget(n, spec.timeout, spec.op_budget)),
            outputs: (0..n).map(|_| Mutex::new(None)).collect(),
            records: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            results: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            replayed: AtomicU64::new(0),
        })
    }
}

/// The body of one rank for one job: construct a fresh `RankCtx`, run the
/// app under `catch_unwind`, map structured panics onto the fatal
/// taxonomy, publish records/outputs into the job's own slots. Identical
/// on both engines — a rank thread calls it directly, the coop scheduler
/// runs it as a coroutine entry.
pub(crate) fn run_rank(rank: usize, job: &JobState) {
    let mut ctx = RankCtx::new(rank, job);
    let result = panic::catch_unwind(AssertUnwindSafe(|| (job.app)(&mut ctx)));
    *lock(&job.records[rank]) = ctx.take_records();
    *lock(&job.results[rank]) = ctx.take_results();
    job.replayed.fetch_add(ctx.replayed(), Ordering::Relaxed);
    match result {
        Ok(out) => {
            *lock(&job.outputs[rank]) = Some(out);
        }
        Err(payload) => {
            let fatal = match payload.downcast::<RankPanic>() {
                Ok(rp) => match *rp {
                    RankPanic::Mpi(e) => Some(FatalKind::Mpi(e)),
                    RankPanic::SegFault(d) => Some(FatalKind::SegFault { detail: d }),
                    RankPanic::AppAbort { code, msg } => Some(FatalKind::AppAbort { code, msg }),
                    // Victim of a teardown started elsewhere.
                    RankPanic::Killed => None,
                },
                // A genuine Rust panic (slice bounds, arithmetic overflow,
                // ...) is the closest analog of a memory fault in
                // application code.
                Err(other) => Some(FatalKind::SegFault {
                    detail: panic_message(&other),
                }),
            };
            if let Some(kind) = fatal {
                job.ctl.record_fatal(rank, kind);
            }
        }
    }
    job.ctl.rank_done();
}

/// What [`Supervisor::step`] asks of the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Keep running and look again.
    Continue,
    /// Every live rank is parked and nothing is proven: only a timer or
    /// the wall-clock deadline can move the job on.
    Idle,
    /// The job is over and has been killed; drain the ranks. The reason
    /// is in its [`JobControl`].
    Stop,
}

/// The one watchdog both engines run a job under: wall-clock attribution,
/// the deterministic stall sweep, the fail-stop drain, and the derivation
/// of the [`JobOutcome`].
pub(crate) struct Supervisor {
    pub(crate) job: Arc<JobState>,
    stall_quota: u32,
    /// Consecutive stall candidates seen at fabric epoch `streak_epoch`.
    streak: u32,
    streak_epoch: u64,
}

impl Supervisor {
    /// Run one job: build its state, let `drive` execute the ranks under
    /// [`Supervisor::step`] until they finish or it says [`Verdict::Stop`]
    /// — `drive` returns once every rank has exited — and derive the
    /// result.
    pub(crate) fn run(
        spec: &JobSpec,
        app: AppFn,
        engine: Engine,
        drive: impl FnOnce(&mut Supervisor),
    ) -> JobResult {
        let start = Instant::now();
        let mut sup = Supervisor {
            job: JobState::for_spec(spec, app, engine),
            stall_quota: spec.stall_quota,
            streak: 0,
            streak_epoch: 0,
        };
        drive(&mut sup);
        sup.result(start)
    }

    /// One look at a running job. `parked_at` is the fabric epoch at which
    /// the engine believes every live rank is parked, or `None` when it
    /// knows some rank can still run: the coop scheduler passes it after a
    /// round in which every rank blocked and the epoch did not move; the
    /// thread engine cannot see its ranks and passes the current epoch on
    /// every tick.
    ///
    /// Only a parked job is swept: the sweep checks that every rank is
    /// finished or provably blocked on an unsatisfiable receive, and that
    /// the epoch is still the one given. An unchanged epoch means no
    /// message moved anywhere while every live rank was observed blocked
    /// — any real progress would have bumped it — so `stall_quota`
    /// consecutive candidates at one epoch prove a deadlock regardless of
    /// machine load. The wall-clock deadline is only ever attributed when
    /// no deterministic detector claimed the job first.
    pub(crate) fn step(&mut self, parked_at: Option<u64>) -> Verdict {
        let JobState {
            nranks: n,
            fabric,
            ctl,
            ..
        } = &*self.job;
        if ctl.should_die() {
            // Killed by a rank's deterministic hang kill (op budget), by
            // the fabric on purpose (diverged, or absorbed: no hang, and
            // none is recorded), or past the deadline.
            let ended = fabric.diverged() || fabric.absorbed();
            if !ended && ctl.fatal().is_none() && ctl.hang().is_none() {
                ctl.record_hang(HangKind::WallClock);
            }
            ctl.kill();
            return Verdict::Stop;
        }
        let Some(e0) = parked_at else {
            self.streak = 0;
            return Verdict::Continue;
        };
        let candidate = self.stall_quota > 0 && {
            let stuck = (0..*n).filter(|&r| fabric.stuck(r)).count();
            stuck > 0 && stuck + ctl.done_count() >= *n && fabric.epoch() == e0
        };
        if !candidate {
            self.streak = 0;
            return Verdict::Idle;
        }
        if ctl.fatal().is_some() {
            // Fail-stop drain complete: some rank failed, and every
            // survivor is now provably blocked — no rank can run, so the
            // fatal set can no longer grow. A drained failure, not a
            // deadlock: no hang is recorded.
            ctl.kill();
            return Verdict::Stop;
        }
        if self.streak_epoch != e0 {
            self.streak = 0;
            self.streak_epoch = e0;
        }
        self.streak += 1;
        if self.streak < self.stall_quota {
            return Verdict::Continue;
        }
        ctl.record_hang(HangKind::Stalled);
        Verdict::Stop
    }

    /// Collapse what the ranks left behind into the job's result. Called
    /// once every rank has exited.
    fn result(self, start: Instant) -> JobResult {
        let JobState {
            record,
            fabric,
            ctl,
            outputs,
            records,
            results,
            replayed,
            ..
        } = &*self.job;
        let (diverged, absorbed) = (fabric.diverged(), fabric.absorbed());
        let outcome = if diverged || absorbed {
            // The fabric ended the job: what the ranks left behind is not
            // its outcome. Should a caller miss the flag, it reads
            // "suspect, retry".
            JobOutcome::TimedOut {
                kind: HangKind::WallClock,
            }
        } else if let Some((rank, kind)) = ctl.fatal() {
            JobOutcome::Fatal { rank, kind }
        } else if let Some(kind) = ctl.hang() {
            JobOutcome::TimedOut { kind }
        } else {
            match outputs.iter().map(|m| lock(m).take()).collect() {
                Some(outputs) => JobOutcome::Completed { outputs },
                // A rank vanished without a fatal record or a hang: treat
                // as wall-clock-suspect (should not happen).
                None => JobOutcome::TimedOut {
                    kind: HangKind::WallClock,
                },
            }
        };
        JobResult {
            outcome,
            records: records
                .iter()
                .map(|m| std::mem::take(&mut *lock(m)))
                .collect(),
            ops: ctl.ops_snapshot(),
            wall: start.elapsed(),
            transport: fabric.stats(),
            replay_log: record.then(|| {
                ReplayLog::from_ranks(
                    results
                        .iter()
                        .map(|m| std::mem::take(&mut *lock(m)))
                        .collect(),
                )
            }),
            replayed_calls: replayed.load(Ordering::Relaxed),
            diverged,
            absorbed,
        }
    }
}

/// The thread-per-rank engine: one named OS thread per rank for the
/// length of the job, the supervisor stepped every [`SWEEP`], every
/// thread joined before returning. Killed ranks leave blocking receives
/// within the transport poll interval.
fn run_on_threads(spec: &JobSpec, app: AppFn) -> JobResult {
    Supervisor::run(spec, app, Engine::Threads, |sup| {
        let job = sup.job.clone();
        let mut ranks = Vec::with_capacity(spec.nranks);
        for rank in 0..spec.nranks {
            let state = job.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("{RANK_THREAD_PREFIX}{rank}"))
                .spawn(move || run_rank(rank, &state));
            match spawned {
                Ok(handle) => ranks.push(handle),
                Err(e) => {
                    // The ranks already running would wait on this one.
                    job.ctl.kill();
                    for handle in ranks {
                        let _ = handle.join();
                    }
                    panic!("spawning rank thread: {e}");
                }
            }
        }
        while !job.ctl.wait_done_for(SWEEP) && sup.step(Some(job.fabric.epoch())) != Verdict::Stop {
        }
        // `run_rank` catches a rank's own panics; one that escapes it is a
        // harness bug, reported once every thread is home.
        let escaped = ranks
            .into_iter()
            .filter_map(|handle| handle.join().err())
            .count();
        assert_eq!(escaped, 0, "rank thread panicked outside its unwind guard");
    })
}

/// The execution front door: one arena, either engine.
///
/// [`JobArena::new`] runs on the platform's engine ([`Engine::platform`]);
/// [`JobArena::with_engine`] pins one — the in-process seam the
/// equivalence suites and the coop-vs-threads bench rounds use. Everything
/// journal-visible is engine-independent (proved by
/// `tests/sched_equivalence.rs`).
pub struct JobArena {
    nranks: usize,
    jobs_run: u64,
    /// The coop engine with its pooled coroutine stacks; `None` is the
    /// thread-per-rank engine, which keeps nothing between jobs.
    coop: Option<CoopArena>,
}

impl JobArena {
    /// An arena on the platform's engine.
    pub fn new(nranks: usize) -> JobArena {
        JobArena::with_engine(nranks, Engine::platform())
    }

    /// An arena pinned to `engine` (degrades to threads where the coop
    /// scheduler is unavailable).
    pub fn with_engine(nranks: usize, engine: Engine) -> JobArena {
        install_quiet_panic_hook();
        JobArena {
            nranks,
            jobs_run: 0,
            coop: (engine.effective() == Engine::Coop).then(|| CoopArena::new(nranks)),
        }
    }

    /// The engine this arena runs on.
    pub fn engine(&self) -> Engine {
        match self.coop {
            Some(_) => Engine::Coop,
            None => Engine::Threads,
        }
    }

    /// Rank count the arena was built for.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Jobs executed on this arena so far.
    pub fn jobs_run(&self) -> u64 {
        self.jobs_run
    }

    /// OS threads a running job occupies on this arena: `nranks` rank
    /// threads on the threaded engine, just the calling thread on coop.
    pub fn carrier_threads(&self) -> usize {
        self.engine().carrier_threads(self.nranks)
    }

    /// Run one job. Both engines execute the identical `run_rank` body
    /// over identical per-job state under the same `Supervisor`; only
    /// the multiplexing differs.
    pub fn run(&mut self, spec: &JobSpec, app: AppFn) -> JobResult {
        assert_eq!(
            spec.nranks, self.nranks,
            "JobArena built for {} ranks cannot run a {}-rank job",
            self.nranks, spec.nranks
        );
        self.jobs_run += 1;
        match &mut self.coop {
            Some(coop) => coop.run(spec, app),
            None => run_on_threads(spec, app),
        }
    }
}

/// Carrier threads this process has committed to running jobs: what
/// [`CarrierCharge`]s currently hold. Process-wide, because the cores
/// the carriers compete for are.
static CARRIERS: AtomicUsize = AtomicUsize::new(0);

/// A charge against the process-wide count of running carrier threads,
/// returned when dropped (also on unwind). A campaign's measurement loop
/// holds one for its calling thread, and each thread that runs trials
/// ahead of it takes one per trial — conditionally, so the process as a
/// whole never speculates past the cores it has (see
/// [`ArenaPool::charge_carriers_within`]).
#[derive(Debug)]
pub struct CarrierCharge(usize);

impl CarrierCharge {
    /// Carrier threads charged right now, process-wide.
    pub fn running() -> usize {
        CARRIERS.load(Ordering::SeqCst)
    }
}

impl Drop for CarrierCharge {
    fn drop(&mut self) {
        CARRIERS.fetch_sub(self.0, Ordering::SeqCst);
    }
}

/// A checkout/checkin pool of [`JobArena`]s, for callers that run jobs
/// from several threads (a campaign's trial pipeline, the daemon's
/// concurrent campaigns). Each concurrent caller gets its own arena —
/// created on first use, parked in the pool afterwards — so coroutine
/// stacks are reused across both trials and points without any
/// cross-trial sharing of job state.
pub struct ArenaPool {
    nranks: usize,
    engine: Engine,
    arenas: Mutex<Vec<JobArena>>,
    /// Arenas ever created by this pool.
    created: AtomicU64,
    /// Jobs dispatched through the pool.
    jobs: AtomicU64,
    /// Arenas currently checked out (running a job). Together with the
    /// engine's carrier count this is the pool's live thread occupancy —
    /// what a multi-campaign scheduler budgets against.
    busy: AtomicU64,
}

impl ArenaPool {
    /// Create an empty pool of `nranks`-rank arenas on the platform's
    /// engine.
    pub fn new(nranks: usize) -> ArenaPool {
        ArenaPool::with_engine(nranks, Engine::platform())
    }

    /// As [`ArenaPool::new`] with the engine pinned.
    pub fn with_engine(nranks: usize, engine: Engine) -> ArenaPool {
        ArenaPool {
            nranks,
            engine: engine.effective(),
            arenas: Mutex::new(Vec::new()),
            created: AtomicU64::new(0),
            jobs: AtomicU64::new(0),
            busy: AtomicU64::new(0),
        }
    }

    /// Rank count of the pooled arenas.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Engine the pooled arenas run on.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Arenas currently parked (idle) in the pool.
    pub fn idle(&self) -> usize {
        lock(&self.arenas).len()
    }

    /// Arenas ever created by this pool.
    pub fn arenas_created(&self) -> u64 {
        self.created.load(Ordering::Relaxed)
    }

    /// Jobs dispatched through the pool.
    pub fn jobs_dispatched(&self) -> u64 {
        self.jobs.load(Ordering::Relaxed)
    }

    /// Carrier threads currently executing jobs through this pool
    /// (checked-out arenas × carrier threads per arena). On the threaded
    /// engine that is ranks-per-arena; on coop each checked-out arena
    /// occupies exactly the one calling thread, which is what a worker
    /// budget should charge for.
    pub fn busy_workers(&self) -> u64 {
        self.busy.load(Ordering::Relaxed) * self.carrier_cost() as u64
    }

    /// Carrier threads one job of this pool occupies.
    fn carrier_cost(&self) -> usize {
        self.engine.carrier_threads(self.nranks)
    }

    /// Charge one job's carrier threads to the process-wide count,
    /// unconditionally: the caller runs its jobs whatever else does.
    pub fn charge_carriers(&self) -> CarrierCharge {
        let cost = self.carrier_cost();
        CARRIERS.fetch_add(cost, Ordering::SeqCst);
        CarrierCharge(cost)
    }

    /// Charge one job's carrier threads only if the process-wide count
    /// stays within `limit` — check and charge are one atomic step, so
    /// concurrent callers cannot jointly overshoot.
    pub fn charge_carriers_within(&self, limit: usize) -> Option<CarrierCharge> {
        let cost = self.carrier_cost();
        CARRIERS
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |running| {
                (running + cost <= limit).then_some(running + cost)
            })
            .ok()
            .map(|_| CarrierCharge(cost))
    }

    /// Run one job on a pooled arena (checking one out, or creating a new
    /// one if all are busy), then return the arena to the pool.
    pub fn run(&self, spec: &JobSpec, app: AppFn) -> JobResult {
        let mut arena = lock(&self.arenas).pop().unwrap_or_else(|| {
            self.created.fetch_add(1, Ordering::Relaxed);
            JobArena::with_engine(self.nranks, self.engine)
        });
        self.jobs.fetch_add(1, Ordering::Relaxed);
        self.busy.fetch_add(1, Ordering::Relaxed);
        let result = arena.run(spec, app);
        self.busy.fetch_sub(1, Ordering::Relaxed);
        lock(&self.arenas).push(arena);
        result
    }
}

impl std::fmt::Debug for ArenaPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArenaPool")
            .field("nranks", &self.nranks)
            .field("idle", &self.idle())
            .field("created", &self.arenas_created())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::NOTIFIES;
    use crate::op::ReduceOp;

    fn spec(n: usize) -> JobSpec {
        JobSpec {
            nranks: n,
            timeout: Duration::from_secs(5),
            ..Default::default()
        }
    }

    fn sum_app() -> AppFn {
        Arc::new(|ctx: &mut RankCtx| {
            let total = ctx.allreduce_one(ctx.rank() as f64, ReduceOp::Sum, ctx.world());
            let mut out = RankOutput::new();
            out.push("total", total);
            out
        })
    }

    #[test]
    fn arena_runs_jobs_back_to_back() {
        let mut arena = JobArena::new(8);
        for _ in 0..5 {
            let res = arena.run(&spec(8), sum_app());
            match res.outcome {
                JobOutcome::Completed { outputs } => {
                    for o in outputs {
                        assert_eq!(o.scalars[0].1, 28.0);
                    }
                }
                other => panic!("unexpected outcome {:?}", other),
            }
        }
        assert_eq!(arena.jobs_run(), 5);
    }

    #[test]
    fn arena_survives_fatal_jobs() {
        let mut arena = JobArena::new(4);
        // A job that dies from an abort...
        let res = arena.run(
            &spec(4),
            Arc::new(|ctx: &mut RankCtx| {
                ctx.barrier(ctx.world());
                if ctx.rank() == 2 {
                    ctx.abort(3, "die");
                }
                ctx.barrier(ctx.world());
                RankOutput::new()
            }),
        );
        assert!(matches!(res.outcome, JobOutcome::Fatal { rank: 2, .. }));
        // ...must not poison the next job on the same arena.
        let res = arena.run(&spec(4), sum_app());
        match res.outcome {
            JobOutcome::Completed { outputs } => assert_eq!(outputs[0].scalars[0].1, 6.0),
            other => panic!("unexpected outcome {:?}", other),
        }
    }

    #[test]
    fn arena_survives_deadlock_kill() {
        let mut arena = JobArena::new(3);
        let res = arena.run(
            &JobSpec {
                nranks: 3,
                timeout: Duration::from_secs(30),
                ..Default::default()
            },
            Arc::new(|ctx: &mut RankCtx| {
                if ctx.rank() == 0 {
                    let mut buf = [0u8; 1];
                    ctx.recv_into(&mut buf, 1, 99, ctx.world());
                } else {
                    ctx.barrier(ctx.world());
                }
                RankOutput::new()
            }),
        );
        assert_eq!(
            res.outcome,
            JobOutcome::TimedOut {
                kind: HangKind::Stalled
            }
        );
        let res = arena.run(&spec(3), sum_app());
        assert!(matches!(res.outcome, JobOutcome::Completed { .. }));
    }

    #[test]
    fn pool_checkout_checkin_reuses_arenas() {
        let pool = ArenaPool::new(4);
        assert_eq!(pool.idle(), 0);
        let r = pool.run(&spec(4), sum_app());
        assert!(matches!(r.outcome, JobOutcome::Completed { .. }));
        assert_eq!(pool.idle(), 1);
        let r = pool.run(&spec(4), sum_app());
        assert!(matches!(r.outcome, JobOutcome::Completed { .. }));
        assert_eq!(pool.idle(), 1, "the parked arena was reused");
        assert_eq!(pool.arenas_created(), 1);
        assert_eq!(pool.jobs_dispatched(), 2);
        assert_eq!(pool.busy_workers(), 0, "nothing in flight after run");
    }

    #[test]
    fn carrier_charges_are_conditional_and_returned_on_drop() {
        // The only test in this binary that charges, so the process-wide
        // count is its own.
        let pool = ArenaPool::with_engine(4, Engine::Threads);
        assert_eq!(CarrierCharge::running(), 0);
        let caller = pool.charge_carriers();
        assert_eq!(CarrierCharge::running(), 4);
        assert!(pool.charge_carriers_within(7).is_none());
        assert_eq!(
            CarrierCharge::running(),
            4,
            "a refused charge takes nothing"
        );
        let helper = pool.charge_carriers_within(8).expect("8 carriers fit in 8");
        assert_eq!(CarrierCharge::running(), 8);
        drop(caller);
        drop(helper);
        assert_eq!(CarrierCharge::running(), 0);
    }

    /// An all-to-all, a sendrecv ring and an allreduce, each folded into
    /// the rank's output.
    fn exchange_app() -> AppFn {
        Arc::new(|ctx: &mut RankCtx| {
            let (w, n, me) = (ctx.world(), ctx.size(), ctx.rank());
            let send: Vec<f64> = (0..n * 4).map(|i| (me * 1000 + i) as f64).collect();
            let mut all = vec![0.0f64; n * 4];
            ctx.alltoall(&send, &mut all, w);
            let (right, left) = ((me + 1) % n, (me + n - 1) % n);
            let mut ring = [me as f64; 32];
            for _ in 0..8 {
                let out = ring;
                ctx.sendrecv(&out, right, &mut ring, left, 7, w);
            }
            let mut sum = [0.0f64; 4];
            ctx.allreduce(&all[..4], &mut sum, ReduceOp::Sum, w);
            let mut out = RankOutput::new();
            out.push("alltoall", all.iter().sum());
            out.push("ring", ring.iter().sum());
            out.push("allreduce", sum.iter().sum());
            out
        })
    }

    #[test]
    fn coop_job_makes_no_wake_calls() {
        let before = NOTIFIES.with(|n| n.get());
        let coop = JobArena::with_engine(16, Engine::Coop).run(&spec(16), exchange_app());
        assert_eq!(
            NOTIFIES.with(|n| n.get()) - before,
            0,
            "a coop job woke a condvar nobody sleeps on"
        );
        assert!(matches!(coop.outcome, JobOutcome::Completed { .. }));
        let threads = JobArena::with_engine(16, Engine::Threads).run(&spec(16), exchange_app());
        assert_eq!(coop.outcome, threads.outcome);
        assert_eq!(coop.ops, threads.ops);
    }

    #[test]
    fn thread_engine_ping_pong_is_never_left_to_its_nap() {
        // Most of the 1000 receives sleep on their mailbox before the reply
        // lands. Woken by the sender, the job takes milliseconds; were the
        // wakeup lost, each of those would sleep out the 2 ms nap — over a
        // second in all.
        const ROUND_TRIPS: usize = 500;
        let res = JobArena::with_engine(2, Engine::Threads).run(
            &JobSpec {
                nranks: 2,
                timeout: Duration::from_secs(30),
                ..Default::default()
            },
            Arc::new(|ctx: &mut RankCtx| {
                let (w, me) = (ctx.world(), ctx.rank());
                let mut ball = [0u64];
                for _ in 0..ROUND_TRIPS {
                    if me == 0 {
                        ctx.send(&ball, 1, 3, w);
                        ctx.recv_into(&mut ball, 1, 3, w);
                    } else {
                        ctx.recv_into(&mut ball, 0, 3, w);
                        ball[0] += 1;
                        ctx.send(&ball, 0, 3, w);
                    }
                }
                let mut out = RankOutput::new();
                out.push("ball", ball[0] as f64);
                out
            }),
        );
        match res.outcome {
            JobOutcome::Completed { outputs } => {
                assert_eq!(outputs[0].scalars[0].1, ROUND_TRIPS as f64)
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert!(
            res.wall < Duration::from_millis(500),
            "{ROUND_TRIPS} round trips took {:?}: a wakeup was lost",
            res.wall
        );
    }

    #[test]
    #[should_panic(expected = "cannot run a")]
    fn arena_rejects_mismatched_rank_count() {
        let mut arena = JobArena::new(4);
        let _ = arena.run(&spec(8), sum_app());
    }
}
