//! Job-wide control state: kill flag, logical-progress accounting, hang
//! diagnosis, and the fatal-event record.
//!
//! Every blocking wait inside the runtime polls this state so that a job
//! whose ranks are deadlocked (the paper's `INF_LOOP` outcome) can be torn
//! down by the watchdog without leaking threads, and so that a fatal event
//! on one rank (MPI error, simulated segfault, application abort) brings
//! the whole job down like `MPI_ERRORS_ARE_FATAL` / `MPI_Abort` would.
//!
//! Fatal events follow a *fail-stop drain*: recording one does not kill
//! the job. The failed rank simply exits; every surviving rank keeps
//! running until it deterministically completes, fails on its own, or
//! blocks on a peer that is gone — at which point the runner's logical
//! stall sweep proves quiescence and tears the job down. Killing eagerly
//! would make the set of recorded fatals a race (whichever rank detected
//! the error a microsecond earlier would cut its peers off mid-detection),
//! and with it the attributed rank. Draining makes the set — and the
//! lowest-rank attribution over it — a pure function of program logic.
//!
//! Hang detection is *logical*, not wall-clock: every rank bumps a
//! monotonic per-rank op counter at sends, receives, collective entries
//! and explicit yield points ([`JobControl::note_op`]). A job dies
//! deterministically when a rank exhausts its op budget (livelock) or
//! when the runner's stall sweep proves every live rank is blocked on a
//! receive no one will ever satisfy (deadlock). The wall-clock deadline
//! remains only as an infrastructure backstop; a wall-clock kill while
//! ranks were still progressing is *suspect*, not a classification.

use crate::error::MpiError;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A fatal event observed on one rank. Wall-clock arrival order is racy
/// when several ranks detect the same corruption near-simultaneously, so
/// classification never uses it: all fatals recorded during the fail-stop
/// drain are kept, and the job outcome is attributed to the lowest-ranked
/// one — a deterministic choice over a deterministic set.
#[derive(Debug, Clone, PartialEq)]
pub enum FatalKind {
    /// The application itself detected a problem and aborted
    /// (`MPI_Abort` analog) — classified `APP_DETECTED`.
    AppAbort {
        /// Exit code passed to the abort call.
        code: i32,
        /// Human-readable message from the application.
        msg: String,
    },
    /// The simulated MPI library raised a fatal error — classified `MPI_ERR`.
    Mpi(MpiError),
    /// A memory violation (out-of-bounds access) — classified `SEG_FAULT`.
    SegFault {
        /// Description of the violated access.
        detail: String,
    },
}

/// Which layer detected a fatal event. Parameter faults are caught by the
/// application (`MPI_Abort`), the MPI library (argument validation), or the
/// memory model; message faults add a fourth detector — the resilient
/// transport, which surfaces unrecoverable deliveries as
/// `MPI_ERR_TRANSPORT`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectedBy {
    /// The application's own checks (`MPI_Abort` analog).
    App,
    /// MPI library argument/protocol validation.
    Mpi,
    /// The simulated memory model (out-of-bounds access).
    Memory,
    /// The resilient transport (retransmission budget exhausted).
    Transport,
}

impl DetectedBy {
    /// Short token used in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            DetectedBy::App => "app",
            DetectedBy::Mpi => "mpi",
            DetectedBy::Memory => "memory",
            DetectedBy::Transport => "transport",
        }
    }
}

impl FatalKind {
    /// Which layer detected this fatal event.
    pub fn detected_by(&self) -> DetectedBy {
        match self {
            FatalKind::AppAbort { .. } => DetectedBy::App,
            FatalKind::Mpi(MpiError::Transport) => DetectedBy::Transport,
            FatalKind::Mpi(_) => DetectedBy::Mpi,
            FatalKind::SegFault { .. } => DetectedBy::Memory,
        }
    }
}

/// Why the watchdog tore a job down. Distinguishing the deterministic
/// hang proofs from the wall-clock backstop is what lets the trial
/// supervisor retry infrastructure-suspect kills instead of recording a
/// wrong `INF_LOOP`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HangKind {
    /// A rank exceeded its logical op budget: the job executed far more
    /// sends/receives/collectives than the golden run ever needed
    /// (livelock). Deterministic — op counts do not depend on machine
    /// load.
    OpBudget,
    /// Every live rank was blocked on a receive with no deliverable
    /// message across the stall quota (deadlock). Deterministic — the
    /// sweep proves no rank can ever make progress.
    Stalled,
    /// The wall-clock backstop expired while ranks were still making
    /// logical progress. Infrastructure-suspect: a loaded machine, not
    /// the fault, may have caused this.
    WallClock,
}

impl HangKind {
    /// Short token used in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            HangKind::OpBudget => "op_budget",
            HangKind::Stalled => "stalled",
            HangKind::WallClock => "wall_clock",
        }
    }

    /// Whether this kind is a deterministic hang proof (`true`) or the
    /// wall-clock backstop (`false`).
    pub fn is_deterministic(self) -> bool {
        !matches!(self, HangKind::WallClock)
    }
}

/// Panic payloads used for structured unwinding of rank threads.
///
/// The job runner downcasts panic payloads to this type; any *other* panic
/// (e.g. a genuine slice bounds failure in application code) is treated as a
/// memory violation, the closest analog of a segmentation fault.
#[derive(Debug, Clone, PartialEq)]
pub enum RankPanic {
    /// Fatal MPI library error on this rank.
    Mpi(MpiError),
    /// Simulated memory violation on this rank.
    SegFault(String),
    /// This rank called [`abort`](crate::ctx::RankCtx::abort).
    AppAbort {
        /// Exit code.
        code: i32,
        /// Message.
        msg: String,
    },
    /// This rank was stopped because the job was killed (watchdog timeout
    /// or fatal event on a peer rank).
    Killed,
}

/// How many of a rank's ops pass between its own reads of the wall-clock
/// deadline in [`JobControl::note_op`].
const DEADLINE_CHECK_OPS: u64 = 1024;

/// Shared control block for one job.
#[derive(Debug)]
pub struct JobControl {
    killed: AtomicBool,
    deadline: Instant,
    /// Per-rank logical op budget; `None` = unlimited (golden runs).
    op_budget: Option<u64>,
    /// Per-rank monotonic op counters, bumped at sends, receives,
    /// collective entries and yield points.
    ops: Vec<AtomicU64>,
    fatal: Mutex<Vec<(usize, FatalKind)>>,
    hang: Mutex<Option<HangKind>>,
    done: Mutex<usize>,
    done_cv: Condvar,
    nranks: usize,
}

impl JobControl {
    /// Create a control block for `nranks` ranks with the given wall-clock
    /// timeout and no op budget.
    pub fn new(nranks: usize, timeout: Duration) -> Self {
        Self::with_budget(nranks, timeout, None)
    }

    /// Create a control block with a per-rank logical op budget.
    pub fn with_budget(nranks: usize, timeout: Duration, op_budget: Option<u64>) -> Self {
        JobControl {
            killed: AtomicBool::new(false),
            deadline: Instant::now() + timeout,
            op_budget,
            ops: (0..nranks).map(|_| AtomicU64::new(0)).collect(),
            fatal: Mutex::new(Vec::new()),
            hang: Mutex::new(None),
            done: Mutex::new(0),
            done_cv: Condvar::new(),
            nranks,
        }
    }

    /// Absolute deadline of the job.
    pub fn deadline(&self) -> Instant {
        self.deadline
    }

    /// Ask every rank to stop at its next poll point.
    pub fn kill(&self) {
        self.killed.store(true, Ordering::Release);
    }

    /// Whether [`kill`](JobControl::kill) was called. This is all a rank
    /// reads at its poll points; the deadline is the supervisors' to
    /// watch.
    pub fn killed(&self) -> bool {
        self.killed.load(Ordering::Acquire)
    }

    /// Whether the job has been killed or has passed its deadline. Reads
    /// the wall clock: for the supervisors (every sweep or round) and for
    /// a rank's rare slow paths, not for per-message polls.
    pub fn should_die(&self) -> bool {
        self.killed() || Instant::now() >= self.deadline
    }

    /// Record a fatal event from `rank`. Deliberately does *not* kill the
    /// job: the fail-stop drain lets every other rank reach its own
    /// deterministic fate (complete, fail, or block) before the runner
    /// tears the job down, so the set of recorded fatals — and the
    /// attribution over it — cannot depend on detection timing.
    pub fn record_fatal(&self, rank: usize, kind: FatalKind) {
        self.fatal.lock().push((rank, kind));
    }

    /// The fatal event the job is attributed to: the lowest-ranked one
    /// recorded. (A rank records at most one fatal — it unwinds on the
    /// first — so the minimum is unique.)
    pub fn fatal(&self) -> Option<(usize, FatalKind)> {
        self.fatal
            .lock()
            .iter()
            .min_by_key(|(rank, _)| *rank)
            .cloned()
    }

    /// Record why the watchdog is tearing the job down (first diagnosis
    /// wins) and kill the job.
    pub fn record_hang(&self, kind: HangKind) {
        {
            let mut slot = self.hang.lock();
            if slot.is_none() {
                *slot = Some(kind);
            }
        }
        self.kill();
    }

    /// The recorded hang diagnosis, if any.
    pub fn hang(&self) -> Option<HangKind> {
        *self.hang.lock()
    }

    /// Bump `rank`'s logical progress counter. Called at every send,
    /// receive, collective entry and yield point. Unwinds with
    /// [`RankPanic::Killed`] once the rank exhausts its op budget — the
    /// deterministic livelock kill.
    ///
    /// Every [`DEADLINE_CHECK_OPS`]th op also reads the wall clock: a rank
    /// that never blocks or yields (so, on the coop engine, never lets
    /// its supervisor run) is still reaped at the deadline in a job with
    /// no budget.
    pub fn note_op(&self, rank: usize) {
        let n = self.ops[rank].fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(budget) = self.op_budget {
            if n > budget {
                self.record_hang(HangKind::OpBudget);
                std::panic::panic_any(RankPanic::Killed);
            }
        }
        if n.is_multiple_of(DEADLINE_CHECK_OPS) && Instant::now() >= self.deadline {
            self.record_hang(HangKind::WallClock);
            std::panic::panic_any(RankPanic::Killed);
        }
    }

    /// Whether this job runs under a logical op budget. The transport uses
    /// this to decide whether a dropped-message livelock can be resolved
    /// deterministically (budget burn) or must fall to the wall-clock
    /// backstop.
    pub fn has_budget(&self) -> bool {
        self.op_budget.is_some()
    }

    /// `rank`'s logical op count so far.
    pub fn ops(&self, rank: usize) -> u64 {
        self.ops[rank].load(Ordering::Relaxed)
    }

    /// Per-rank op counts (indexed by rank).
    pub fn ops_snapshot(&self) -> Vec<u64> {
        self.ops.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// Poll point used by blocking waits and collective entries. Panics with
    /// [`RankPanic::Killed`] once the job is being torn down. Reads the
    /// kill flag only — both supervisors read the clock every sweep and
    /// set the flag at the deadline.
    pub fn check(&self) {
        if self.killed() {
            std::panic::panic_any(RankPanic::Killed);
        }
    }

    /// Mark one rank as finished and wake the waiter.
    pub fn rank_done(&self) {
        let mut d = self.done.lock();
        *d += 1;
        self.done_cv.notify_all();
    }

    /// Ranks that have finished (normally or by unwinding).
    pub fn done_count(&self) -> usize {
        *self.done.lock()
    }

    /// Block until all ranks finished or `dur` elapsed. Returns `true`
    /// once all ranks are done. Unlike [`JobControl::wait_all_done`] this
    /// does not give up at the deadline — the runner's supervision loop
    /// owns that policy.
    pub fn wait_done_for(&self, dur: Duration) -> bool {
        let mut d = self.done.lock();
        let until = Instant::now() + dur;
        while *d < self.nranks {
            let now = Instant::now();
            if now >= until {
                return false;
            }
            self.done_cv.wait_for(&mut d, until - now);
        }
        true
    }

    /// Block until all ranks finished or the deadline passed. Returns `true`
    /// if all ranks finished in time.
    pub fn wait_all_done(&self) -> bool {
        let mut d = self.done.lock();
        while *d < self.nranks {
            let now = Instant::now();
            if now >= self.deadline || self.killed.load(Ordering::Acquire) {
                return *d >= self.nranks;
            }
            let budget = self.deadline - now;
            self.done_cv
                .wait_for(&mut d, budget.min(Duration::from_millis(20)));
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fatal_attribution_is_lowest_rank_and_never_kills() {
        let ctl = JobControl::new(2, Duration::from_secs(1));
        ctl.record_fatal(1, FatalKind::Mpi(MpiError::Comm));
        assert!(
            !ctl.should_die(),
            "fail-stop drain: the watchdog, not the recorder, tears the job down"
        );
        ctl.record_fatal(0, FatalKind::SegFault { detail: "x".into() });
        let (rank, kind) = ctl.fatal().unwrap();
        assert_eq!(rank, 0, "attribution is by rank, not arrival order");
        assert_eq!(kind, FatalKind::SegFault { detail: "x".into() });
    }

    #[test]
    fn detected_by_attributes_each_layer() {
        assert_eq!(
            FatalKind::AppAbort {
                code: 1,
                msg: "x".into()
            }
            .detected_by(),
            DetectedBy::App
        );
        assert_eq!(
            FatalKind::Mpi(MpiError::Count).detected_by(),
            DetectedBy::Mpi
        );
        assert_eq!(
            FatalKind::Mpi(MpiError::Transport).detected_by(),
            DetectedBy::Transport
        );
        assert_eq!(
            FatalKind::SegFault { detail: "x".into() }.detected_by(),
            DetectedBy::Memory
        );
        let names: std::collections::HashSet<_> = [
            DetectedBy::App,
            DetectedBy::Mpi,
            DetectedBy::Memory,
            DetectedBy::Transport,
        ]
        .iter()
        .map(|d| d.name())
        .collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn first_hang_diagnosis_wins() {
        let ctl = JobControl::new(1, Duration::from_secs(1));
        ctl.record_hang(HangKind::Stalled);
        ctl.record_hang(HangKind::WallClock);
        assert_eq!(ctl.hang(), Some(HangKind::Stalled));
        assert!(ctl.should_die());
    }

    #[test]
    fn deadline_expiry_sets_should_die() {
        let ctl = JobControl::new(1, Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        assert!(ctl.should_die());
    }

    #[test]
    fn check_panics_with_killed() {
        let ctl = JobControl::new(1, Duration::from_secs(5));
        ctl.kill();
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ctl.check())).unwrap_err();
        let rp = err.downcast_ref::<RankPanic>().unwrap();
        assert_eq!(*rp, RankPanic::Killed);
    }

    #[test]
    fn note_op_counts_and_enforces_budget() {
        let ctl = JobControl::with_budget(2, Duration::from_secs(5), Some(3));
        for _ in 0..3 {
            ctl.note_op(0);
        }
        assert_eq!(ctl.ops(0), 3);
        assert_eq!(ctl.ops(1), 0);
        assert!(!ctl.should_die(), "budget not yet exceeded");
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ctl.note_op(0))).unwrap_err();
        assert_eq!(*err.downcast_ref::<RankPanic>().unwrap(), RankPanic::Killed);
        assert_eq!(ctl.hang(), Some(HangKind::OpBudget));
        assert!(ctl.should_die());
        assert_eq!(ctl.ops_snapshot(), vec![4, 0]);
    }

    #[test]
    fn unlimited_budget_never_kills() {
        let ctl = JobControl::new(1, Duration::from_secs(5));
        for _ in 0..100_000 {
            ctl.note_op(0);
        }
        assert!(!ctl.should_die());
        assert_eq!(ctl.ops(0), 100_000);
    }

    #[test]
    fn wait_all_done_completes() {
        let ctl = Arc::new(JobControl::new(3, Duration::from_secs(5)));
        let mut handles = vec![];
        for _ in 0..3 {
            let c = ctl.clone();
            handles.push(std::thread::spawn(move || c.rank_done()));
        }
        assert!(ctl.wait_all_done());
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ctl.done_count(), 3);
    }

    #[test]
    fn wait_all_done_times_out() {
        let ctl = JobControl::new(1, Duration::from_millis(10));
        assert!(!ctl.wait_all_done());
    }

    #[test]
    fn wait_done_for_is_deadline_free() {
        // A control block whose deadline already passed still waits the
        // requested slice — supervision policy lives in the runner.
        let ctl = JobControl::new(1, Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(3));
        assert!(!ctl.wait_done_for(Duration::from_millis(5)));
        ctl.rank_done();
        assert!(ctl.wait_done_for(Duration::from_millis(5)));
    }
}
