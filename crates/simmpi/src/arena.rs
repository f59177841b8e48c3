//! Persistent rank-worker pool: spawn the per-rank OS threads once, reuse
//! them across jobs.
//!
//! A fault-injection campaign runs thousands of short trials; paying full
//! thread spawn/teardown for every rank on every trial dominates the cost
//! of small workloads. A [`JobArena`] keeps one long-lived worker thread
//! per rank and hands each of them a fresh job through a per-rank mailbox.
//!
//! ## Job isolation: everything but the thread is per-job
//!
//! Reuse is safe because the *only* thing shared between consecutive jobs
//! is the OS thread itself. All semantically meaningful state — the
//! [`Fabric`] (mailboxes, armed faults, seqnos, epoch counter), the
//! [`JobControl`] (deadline, op counters, fatal/hang verdicts), the
//! `RankCtx` (communicator registry, RNG, records) and the output/record
//! slots — is constructed fresh for every job and lives inside that job's
//! own [`JobState`] allocation. The fail-stop drain and the stall sweep
//! therefore observe exactly the state of the job they supervise; nothing
//! from a previous trial can leak into their verdicts.
//!
//! ## Epoch tagging: stragglers cannot contaminate the next job
//!
//! Every submission carries a monotonically increasing arena epoch. A
//! worker publishes "done" by storing the epoch of the job it just
//! finished; the drain after a job waits for `done_epoch == epoch`, so a
//! completion signal from an older job can never satisfy it. A rank that
//! outlives its job's kill (a long pure-compute stretch between poll
//! points) only holds the *old* job's `Arc<JobState>` — its late writes
//! land in state nobody will read again. If such a straggler fails to
//! drain within the grace window the arena abandons the whole mailbox
//! (the zombie keeps a reference to the orphaned slot) and respawns a
//! fresh worker thread before the next submission, so a wedged rank can
//! delay but never corrupt a later trial.

use crate::control::{FatalKind, HangKind, JobControl, RankPanic};
use crate::ctx::{RankCtx, RankOutput};
use crate::hook::CollHook;
use crate::record::CallRecord;
use crate::runtime::{
    install_quiet_panic_hook, panic_message, AppFn, JobOutcome, JobResult, JobSpec,
    RANK_THREAD_PREFIX,
};
use crate::sched::Engine;
use crate::transport::Fabric;
use parking_lot::{Condvar, Mutex};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Watchdog sweep interval (completion wait + stall sweep cadence).
const SWEEP: Duration = Duration::from_millis(5);

/// How long the post-job drain waits for a worker to come home before the
/// arena declares it wedged and schedules a replacement thread. Ranks wake
/// from blocking receives within the transport poll interval once killed,
/// so this only fires on a pathological pure-compute stretch with no poll
/// points — the case where the old fresh-spawn `run_job` would have
/// blocked in `join` just as long.
const DRAIN_GRACE: Duration = Duration::from_secs(30);

/// All state of one job, allocated fresh per submission. A straggler from
/// a killed job keeps the old `JobState` alive through its `Arc`; the next
/// job gets a new allocation, so late writes are structurally harmless.
/// Shared verbatim by both engines: the coop scheduler
/// ([`crate::sched::CoopArena`]) runs the same [`run_rank`] body over the
/// same state, which is what makes engine equivalence hold by
/// construction rather than by re-implementation.
pub(crate) struct JobState {
    nranks: usize,
    seed: u64,
    record: bool,
    hook: Option<Arc<dyn CollHook>>,
    app: AppFn,
    pub(crate) fabric: Arc<Fabric>,
    pub(crate) ctl: Arc<JobControl>,
    pub(crate) outputs: Vec<Mutex<Option<RankOutput>>>,
    pub(crate) records: Vec<Mutex<Vec<CallRecord>>>,
}

impl JobState {
    /// Fresh per-job state for `spec` (fabric, control, output slots).
    /// The engine decides the fabric's clock: logical under coop, wall
    /// time on rank threads.
    pub(crate) fn for_spec(spec: &JobSpec, app: AppFn, engine: Engine) -> Arc<JobState> {
        let n = spec.nranks;
        Arc::new(JobState {
            nranks: n,
            seed: spec.seed,
            record: spec.record,
            hook: spec.hook.clone(),
            app,
            fabric: Fabric::with_clock(n, spec.resilient_transport, engine == Engine::Coop),
            ctl: Arc::new(JobControl::with_budget(n, spec.timeout, spec.op_budget)),
            outputs: (0..n).map(|_| Mutex::new(None)).collect(),
            records: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
        })
    }
}

/// One job submission as seen by a worker: the job plus the arena epoch it
/// belongs to.
struct WorkItem {
    epoch: u64,
    job: Arc<JobState>,
}

/// The mailbox shared between the arena and one worker thread.
struct WorkerShared {
    slot: Mutex<Slot>,
    cv: Condvar,
}

struct Slot {
    /// Next job for this worker, if any.
    pending: Option<WorkItem>,
    /// Epoch of the last job this worker finished.
    done_epoch: u64,
    /// Arena shutdown flag (set on drop).
    shutdown: bool,
}

struct Worker {
    rank: usize,
    shared: Arc<WorkerShared>,
    handle: Option<JoinHandle<()>>,
    /// The last drain timed out on this worker; it must be replaced (its
    /// mailbox abandoned to the zombie thread) before the next job.
    wedged: bool,
}

impl Worker {
    fn spawn(rank: usize) -> Worker {
        let shared = Arc::new(WorkerShared {
            slot: Mutex::new(Slot {
                pending: None,
                done_epoch: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let thread_shared = shared.clone();
        let handle = std::thread::Builder::new()
            .name(format!("{}{}", RANK_THREAD_PREFIX, rank))
            .spawn(move || worker_loop(rank, thread_shared))
            .expect("spawning rank worker thread");
        Worker {
            rank,
            shared,
            handle: Some(handle),
            wedged: false,
        }
    }
}

fn worker_loop(rank: usize, shared: Arc<WorkerShared>) {
    loop {
        let item = {
            let mut slot = shared.slot.lock();
            loop {
                if slot.shutdown {
                    return;
                }
                if let Some(item) = slot.pending.take() {
                    break item;
                }
                shared.cv.wait(&mut slot);
            }
        };
        run_rank(rank, &item.job);
        let mut slot = shared.slot.lock();
        slot.done_epoch = item.epoch;
        shared.cv.notify_all();
    }
}

/// The body of one rank for one job: construct a fresh `RankCtx`, run the
/// app under `catch_unwind`, map structured panics onto the fatal
/// taxonomy, publish records/outputs into the job's own slots. Identical
/// on both engines — a worker thread calls it directly, the coop
/// scheduler runs it as a coroutine entry.
pub(crate) fn run_rank(rank: usize, job: &JobState) {
    let mut ctx = RankCtx::new(
        rank,
        job.nranks,
        job.fabric.clone(),
        job.ctl.clone(),
        job.hook.clone(),
        job.record,
        job.seed,
    );
    let result = panic::catch_unwind(AssertUnwindSafe(|| (job.app)(&mut ctx)));
    *job.records[rank].lock() = ctx.take_records();
    match result {
        Ok(out) => {
            *job.outputs[rank].lock() = Some(out);
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

/// A persistent pool of rank worker threads, reused across jobs — the
/// thread-per-rank engine (`FASTFIT_SCHED=threads`).
///
/// Construction spawns `nranks` threads; [`ThreadArena::run`] then
/// executes any number of jobs on them, paying only a mailbox handoff per
/// job instead of `nranks` thread spawns + joins. All jobs run on the
/// arena must use the same rank count.
pub struct ThreadArena {
    nranks: usize,
    epoch: u64,
    workers: Vec<Worker>,
    jobs_run: u64,
    respawns: u64,
}

impl ThreadArena {
    /// Spawn an arena of `nranks` persistent worker threads.
    pub fn new(nranks: usize) -> ThreadArena {
        install_quiet_panic_hook();
        ThreadArena {
            nranks,
            epoch: 0,
            workers: (0..nranks).map(Worker::spawn).collect(),
            jobs_run: 0,
            respawns: 0,
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

    /// Worker threads replaced because a straggler failed to drain.
    pub fn respawns(&self) -> u64 {
        self.respawns
    }

    /// Run one job on the pool. Semantically identical to
    /// [`crate::runtime::run_job`] (which is itself a one-shot arena):
    /// same supervision loop, same outcome derivation, same determinism.
    pub fn run(&mut self, spec: &JobSpec, app: AppFn) -> JobResult {
        assert_eq!(
            spec.nranks, self.nranks,
            "ThreadArena built for {} ranks cannot run a {}-rank job",
            self.nranks, spec.nranks
        );
        let start = Instant::now();
        let n = self.nranks;
        self.epoch += 1;
        self.jobs_run += 1;
        let epoch = self.epoch;
        let job = JobState::for_spec(spec, app, Engine::Threads);
        let ctl = job.ctl.clone();
        let fabric = job.fabric.clone();

        // Submit: replace any worker abandoned by the previous drain, then
        // post the epoch-tagged work item into each mailbox.
        for i in 0..n {
            if self.workers[i].wedged {
                // Abandon the old mailbox to the zombie thread (it holds
                // its own Arc<WorkerShared>); detach its handle.
                let rank = self.workers[i].rank;
                drop(self.workers[i].handle.take());
                self.workers[i] = Worker::spawn(rank);
                self.respawns += 1;
            }
            let w = &self.workers[i];
            let mut slot = w.shared.slot.lock();
            debug_assert!(slot.pending.is_none(), "mailbox busy at submit");
            slot.pending = Some(WorkItem {
                epoch,
                job: job.clone(),
            });
            w.shared.cv.notify_all();
        }

        // Supervision loop. Between short waits for completion it runs the
        // deterministic stall sweep: read the fabric epoch, check that
        // every rank is finished or provably blocked on an unsatisfiable
        // receive, re-read the epoch. An unchanged epoch across the sweep
        // means no message moved anywhere while every live rank was
        // observed blocked — any real progress would have bumped it, so
        // consecutive same-epoch candidate sweeps prove a deadlock
        // regardless of machine load. The wall-clock deadline only fires
        // when neither deterministic detector claimed the job first.
        let mut stall_streak: u32 = 0;
        let mut streak_epoch: u64 = 0;
        let finished_in_time = loop {
            if ctl.wait_done_for(SWEEP) {
                break true;
            }
            if ctl.should_die() {
                // Killed by a fatal event, a deterministic hang kill, or
                // the wall-clock deadline. Attribute the backstop only if
                // nothing deterministic claimed the job.
                if ctl.fatal().is_none() && ctl.hang().is_none() {
                    ctl.record_hang(HangKind::WallClock);
                }
                ctl.kill();
                break false;
            }
            if spec.stall_quota == 0 {
                continue;
            }
            let e0 = fabric.epoch();
            let stuck = (0..n).filter(|&r| fabric.stuck(r)).count();
            let candidate = stuck > 0 && stuck + ctl.done_count() >= n && fabric.epoch() == e0;
            if candidate && ctl.fatal().is_some() {
                // Fail-stop drain complete: some rank failed, and every
                // survivor is now provably blocked — no rank can run, so
                // the fatal set can no longer grow. Tear down and
                // attribute; this is a drained failure, not a deadlock,
                // so no hang is recorded.
                break false;
            }
            if candidate && (stall_streak == 0 || streak_epoch == e0) {
                stall_streak += 1;
                streak_epoch = e0;
                if stall_streak >= spec.stall_quota {
                    ctl.record_hang(HangKind::Stalled);
                    break false;
                }
            } else {
                stall_streak = 0;
            }
        };
        if !finished_in_time {
            ctl.kill();
        }

        // Drain: wait for every worker to report *this* epoch done (an
        // older epoch can never satisfy the wait). Workers wake from
        // blocking recvs within the poll interval once killed; a worker
        // that misses the grace window is marked wedged and replaced
        // before the next submission.
        let drain_deadline = Instant::now() + DRAIN_GRACE;
        for w in &mut self.workers {
            let mut slot = w.shared.slot.lock();
            while slot.done_epoch < epoch {
                let remaining = drain_deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    w.wedged = true;
                    break;
                }
                let _ = w.shared.cv.wait_for(&mut slot, remaining);
            }
        }

        let recs: Vec<Vec<CallRecord>> = job
            .records
            .iter()
            .map(|m| std::mem::take(&mut *m.lock()))
            .collect();
        let outcome = if let Some((rank, kind)) = ctl.fatal() {
            JobOutcome::Fatal { rank, kind }
        } else if let Some(kind) = ctl.hang() {
            JobOutcome::TimedOut { kind }
        } else if !finished_in_time {
            JobOutcome::TimedOut {
                kind: HangKind::WallClock,
            }
        } else {
            let outs: Option<Vec<RankOutput>> =
                job.outputs.iter().map(|m| m.lock().clone()).collect();
            match outs {
                Some(outputs) => JobOutcome::Completed { outputs },
                // A rank vanished without a fatal record or timeout: treat
                // as a wall-clock-suspect hang (should not happen).
                None => JobOutcome::TimedOut {
                    kind: HangKind::WallClock,
                },
            }
        };
        JobResult {
            outcome,
            records: recs,
            ops: ctl.ops_snapshot(),
            wall: start.elapsed(),
            transport: fabric.stats(),
        }
    }
}

impl Drop for ThreadArena {
    fn drop(&mut self) {
        for w in &mut self.workers {
            {
                let mut slot = w.shared.slot.lock();
                slot.shutdown = true;
                w.shared.cv.notify_all();
            }
            if let Some(h) = w.handle.take() {
                if w.wedged {
                    // A zombie may never check the flag; detach it.
                    drop(h);
                } else {
                    let _ = h.join();
                }
            }
        }
    }
}

/// The execution-engine front door: one arena, either engine.
///
/// `JobArena::new` picks the engine from `FASTFIT_SCHED` (coop by
/// default); [`JobArena::with_engine`] pins it — the equivalence suite and
/// the coop-vs-threads bench rounds construct one of each. Everything
/// journal-visible is engine-independent (proved by
/// `tests/sched_equivalence.rs`), so the choice is a pure throughput knob.
pub struct JobArena {
    inner: ArenaInner,
}

enum ArenaInner {
    Threads(ThreadArena),
    Coop(Box<crate::sched::CoopArena>),
}

impl JobArena {
    /// An arena on the environment-selected engine (`FASTFIT_SCHED`).
    pub fn new(nranks: usize) -> JobArena {
        JobArena::with_engine(nranks, Engine::from_env())
    }

    /// An arena pinned to `engine` (degrades to threads where the coop
    /// scheduler is unavailable).
    pub fn with_engine(nranks: usize, engine: Engine) -> JobArena {
        let inner = match engine.effective() {
            Engine::Threads => ArenaInner::Threads(ThreadArena::new(nranks)),
            Engine::Coop => ArenaInner::Coop(Box::new(crate::sched::CoopArena::new(nranks))),
        };
        JobArena { inner }
    }

    /// The engine this arena runs on.
    pub fn engine(&self) -> Engine {
        match &self.inner {
            ArenaInner::Threads(_) => Engine::Threads,
            ArenaInner::Coop(_) => Engine::Coop,
        }
    }

    /// Rank count the arena was built for.
    pub fn nranks(&self) -> usize {
        match &self.inner {
            ArenaInner::Threads(a) => a.nranks(),
            ArenaInner::Coop(a) => a.nranks(),
        }
    }

    /// Jobs executed on this arena so far.
    pub fn jobs_run(&self) -> u64 {
        match &self.inner {
            ArenaInner::Threads(a) => a.jobs_run(),
            ArenaInner::Coop(a) => a.jobs_run(),
        }
    }

    /// Worker threads replaced because a straggler failed to drain (the
    /// coop engine has no wedge case, so always 0 there).
    pub fn respawns(&self) -> u64 {
        match &self.inner {
            ArenaInner::Threads(a) => a.respawns(),
            ArenaInner::Coop(_) => 0,
        }
    }

    /// OS threads a running job occupies on this arena: `nranks` worker
    /// threads on the threaded engine, just the calling thread on coop.
    pub fn carrier_threads(&self) -> usize {
        self.engine().carrier_threads(self.nranks())
    }

    /// Run one job. Both engines execute the identical [`run_rank`] body
    /// over identical per-job state and apply the identical supervision
    /// verdicts; only the multiplexing differs.
    pub fn run(&mut self, spec: &JobSpec, app: AppFn) -> JobResult {
        assert_eq!(
            spec.nranks,
            self.nranks(),
            "JobArena built for {} ranks cannot run a {}-rank job",
            self.nranks(),
            spec.nranks
        );
        match &mut self.inner {
            ArenaInner::Threads(a) => a.run(spec, app),
            ArenaInner::Coop(a) => a.run(spec, app),
        }
    }
}

/// A checkout/checkin pool of [`JobArena`]s, for callers that run jobs
/// from several threads (e.g. rayon point-parallel campaigns). Each
/// concurrent caller gets its own arena — created on first use, parked in
/// the pool afterwards — so worker threads (or coroutine stacks) are
/// reused across both trials and points without any cross-trial sharing
/// of job state.
pub struct ArenaPool {
    nranks: usize,
    engine: Engine,
    arenas: Mutex<Vec<JobArena>>,
    /// Arenas ever spawned by this pool (each holds its engine's carrier
    /// threads for its lifetime).
    created: AtomicU64,
    /// Jobs dispatched through the pool.
    jobs: AtomicU64,
    /// Arenas currently checked out (running a job). Together with the
    /// engine's carrier count this is the pool's live thread occupancy —
    /// what a multi-campaign scheduler budgets against.
    busy: AtomicU64,
}

impl ArenaPool {
    /// Create an empty pool whose arenas will all have `nranks` workers,
    /// on the environment-selected engine.
    pub fn new(nranks: usize) -> ArenaPool {
        ArenaPool::with_engine(nranks, Engine::from_env())
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
        self.arenas.lock().len()
    }

    /// Arenas ever spawned by this pool.
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
        self.busy.load(Ordering::Relaxed) * self.engine.carrier_threads(self.nranks) as u64
    }

    /// Run one job on a pooled arena (checking one out, or spawning a new
    /// one if all are busy), then return the arena to the pool.
    pub fn run(&self, spec: &JobSpec, app: AppFn) -> JobResult {
        let mut arena = self.arenas.lock().pop().unwrap_or_else(|| {
            self.created.fetch_add(1, Ordering::Relaxed);
            JobArena::with_engine(self.nranks, self.engine)
        });
        self.jobs.fetch_add(1, Ordering::Relaxed);
        self.busy.fetch_add(1, Ordering::Relaxed);
        let result = arena.run(spec, app);
        self.busy.fetch_sub(1, Ordering::Relaxed);
        self.arenas.lock().push(arena);
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
    fn arena_reuses_workers_across_jobs() {
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
        assert_eq!(arena.respawns(), 0, "no worker was replaced");
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
        // ...must not poison the next job on the same workers.
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
        assert_eq!(arena.respawns(), 0, "killed ranks drained promptly");
    }

    #[test]
    fn arena_matches_run_job_bitwise() {
        let app: AppFn = Arc::new(|ctx: &mut RankCtx| {
            use rand::Rng;
            let x: f64 = ctx.rng().gen();
            let total = ctx.allreduce_one(x, ReduceOp::Sum, ctx.world());
            let mut out = RankOutput::new();
            out.push("t", total);
            out
        });
        let mut arena = JobArena::new(8);
        let a = arena.run(&spec(8), app.clone());
        let b = crate::runtime::run_job(&spec(8), app);
        match (a.outcome, b.outcome) {
            (JobOutcome::Completed { outputs: oa }, JobOutcome::Completed { outputs: ob }) => {
                assert_eq!(oa[0].scalars[0].1.to_bits(), ob[0].scalars[0].1.to_bits());
            }
            _ => panic!("jobs must complete"),
        }
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
    #[should_panic(expected = "cannot run a")]
    fn arena_rejects_mismatched_rank_count() {
        let mut arena = JobArena::new(4);
        let _ = arena.run(&spec(8), sum_app());
    }
}
