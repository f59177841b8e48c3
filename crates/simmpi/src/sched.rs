//! Cooperative rank scheduler: ranks as stackful coroutines multiplexed
//! onto one carrier thread, driven by a deterministic round-robin loop.
//!
//! The thread-per-rank engine pays an OS context switch for every message
//! handoff; a 16-rank trial on one core is a context-switch storm. This
//! module multiplexes all ranks of a job onto the *calling* thread: each
//! rank is a stackful coroutine that runs to its next blocking point (a
//! receive with no matching message, an injected fail-slow delay, a
//! cooperative yield) and then switches back to the scheduler with two
//! instructions' worth of register traffic instead of a trip through the
//! kernel.
//!
//! ## Determinism
//!
//! The scheduler is a fixed-order round-robin: every round resumes every
//! unfinished rank exactly once, in ascending rank order. Which rank runs
//! next therefore never depends on OS scheduling, machine load, or carrier
//! parallelism — the rank-step sequence is a pure function of the program
//! and the armed faults. Everything the trial journal records (outcome
//! classification, retransmit counts, fatal-rank attribution, op-budget
//! ordinals, timeline event counts) was already schedule-independent on
//! the threaded engine, so the two engines journal byte-identical records
//! and the engine is *excluded* from journal identity.
//! `tests/sched_equivalence.rs` holds the proof obligation.
//!
//! ## Supervision and time
//!
//! A coop job runs on *logical* time: its fabric's clock
//! ([`Fabric::now`](crate::transport::Fabric::now)) stands still while any
//! rank can run. Held (delay-faulted) messages and [`rank_sleep`] are
//! timers on that clock. When a round ends with every live rank parked
//! blocked and the fabric epoch unmoved, nothing can happen until a timer
//! fires, so the scheduler jumps the clock to the earliest one — no host
//! time passes, and the order timers fire in is a function of the program.
//! A sleeping rank is skipped by the round loop until its timer is due.
//!
//! The watchdog is the one both engines share (`Supervisor::step` in
//! [`crate::arena`]): the scheduler
//! steps it once between rounds — its read of the wall clock is the only
//! one on the coop path (a rank that never yields reads it itself, once
//! per 1024 ops, in `JobControl::note_op`) — and reports the job parked
//! only after that same all-blocked, unmoved round, so that is the only
//! time the stall sweep runs. Held and recoverable (dropped-but-resilient)
//! messages keep [`Fabric::stuck`](crate::transport::Fabric::stuck) false,
//! so delays are never misfiled as deadlocks. Stall candidates follow each
//! other without a pause: on one carrier the first already is the proof.
//!
//! The one pause left: an all-blocked, unmoved round that is neither a
//! stall candidate nor has a timer to jump to (stall detection off, or a
//! budget-less receive of a dropped message) can only end at the
//! wall-clock deadline, and naps a millisecond rather than spin a core.
//!
//! Teardown: a suspended coroutine is always parked at a yield point that
//! re-checks the kill flag, so resuming every live rank until all finish
//! is guaranteed to terminate.
//!
//! ## Engine selection
//!
//! The platform picks: coop on x86_64 (the stack switch is hand-written
//! sysv64 assembly), threads elsewhere ([`Engine::platform`]). Tests and
//! the coop-vs-threads bench pin an [`Engine`] through
//! [`JobArena::with_engine`](crate::arena::JobArena::with_engine) /
//! [`ArenaPool::with_engine`](crate::arena::ArenaPool::with_engine); no
//! user-facing setting selects one, and the engine is deliberately *not*
//! part of any campaign or journal identity.

use crate::arena::{run_rank, Supervisor, Verdict};
use crate::runtime::{install_quiet_panic_hook, AppFn, JobResult, JobSpec};
use crate::transport::Fabric;
use std::time::Duration;

/// Which execution engine runs a job's ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// One OS thread per rank: the only engine where the stack switch is
    /// not implemented, and the reference coop is proved against.
    Threads,
    /// All ranks as coroutines on the calling thread.
    Coop,
}

impl Engine {
    /// The engine jobs run on here: the cooperative scheduler where the
    /// stack switch is implemented, rank threads elsewhere.
    pub fn platform() -> Engine {
        if cfg!(target_arch = "x86_64") {
            Engine::Coop
        } else {
            Engine::Threads
        }
    }

    /// The engine that will actually run when this one is pinned: `Coop`
    /// degrades to `Threads` on targets without a stack switch.
    pub fn effective(self) -> Engine {
        match self {
            Engine::Coop => Engine::platform(),
            Engine::Threads => Engine::Threads,
        }
    }

    /// Carrier threads one job occupies under this engine — what a worker
    /// budget should count. The threaded engine burns one OS thread per
    /// rank; the coop engine multiplexes every rank onto the caller.
    pub fn carrier_threads(self, nranks: usize) -> usize {
        match self.effective() {
            Engine::Threads => nranks,
            Engine::Coop => 1,
        }
    }

    /// Token used in reports and the daemon's `sched_engine` gauge.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Threads => "threads",
            Engine::Coop => "coop",
        }
    }
}

/// Why a coroutine handed control back to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Park {
    /// Voluntary yield; the rank can run again immediately.
    Ready,
    /// Waiting on something another rank (or a timer) must provide. When
    /// *every* live rank parks blocked with no fabric progress, only a
    /// timer can move the job on.
    Blocked,
    /// Asleep until the job clock reads this time; blocked, and not
    /// resumed before then.
    Sleeping(Duration),
}

#[cfg(target_arch = "x86_64")]
mod coro {
    //! The stackful coroutine: a hand-rolled sysv64 stack switch plus the
    //! thread-local "current coroutine" pointer the yield points use.
    //!
    //! Only callee-saved state needs to move across a *cooperative*
    //! switch — the compiler already assumes caller-saved registers die
    //! across any call — so a switch is six pushes, a stack-pointer swap,
    //! six pops and a `ret`: tens of nanoseconds against the ~2µs of a
    //! contended futex wake + kernel context switch.

    use super::Park;
    use std::alloc::{alloc, dealloc, Layout};
    use std::arch::naked_asm;
    use std::cell::Cell;
    use std::panic::{self, AssertUnwindSafe};
    use std::ptr;
    use std::sync::OnceLock;

    /// Default coroutine stack size (bytes); `FASTFIT_COOP_STACK`
    /// overrides. Virtual allocation — untouched pages stay uncommitted —
    /// so 1024 ranks cost address space, not resident memory.
    const DEFAULT_STACK: usize = 1 << 20;

    /// Save the current callee-saved state + stack pointer into `*save`,
    /// then restore from `restore` and return *there*. The function
    /// "returns" on the other stack; the original context resumes when
    /// someone switches back to the saved pointer.
    #[unsafe(naked)]
    unsafe extern "sysv64" fn switch_stacks(save: *mut *mut u8, restore: *mut u8) {
        naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }

    /// First frame of a fresh coroutine: the initial `r12` slot carries
    /// the `CoroState` pointer (callee-saved, so it survives the pops in
    /// `switch_stacks`). Entry has `rsp ≡ 0 (mod 16)`, so the `call`
    /// gives `coro_entry` the standard `≡ 8` frame alignment.
    #[unsafe(naked)]
    unsafe extern "sysv64" fn trampoline() {
        naked_asm!(
            "mov rdi, r12",
            "call {entry}",
            "ud2",
            entry = sym coro_entry,
        )
    }

    /// Body of every coroutine: run the entry closure (the panic guard is
    /// a backstop — `run_rank` catches rank panics itself; unwinding must
    /// never cross the assembly switch), mark finished, and hand control
    /// back forever.
    unsafe extern "sysv64" fn coro_entry(st: *const CoroState) {
        let state = unsafe { &*st };
        let f = state.entry.take().expect("coroutine entered twice");
        let _ = panic::catch_unwind(AssertUnwindSafe(f));
        state.finished.set(true);
        loop {
            unsafe { switch_stacks(state.coro_rsp.as_ptr(), state.sched_rsp.get()) };
        }
    }

    thread_local! {
        /// The coroutine currently executing on this thread (null when the
        /// scheduler — or plain non-coop code — is running).
        static CURRENT: Cell<*const CoroState> = const { Cell::new(ptr::null()) };
    }

    struct CoroState {
        /// Suspended coroutine stack pointer (valid while parked).
        coro_rsp: Cell<*mut u8>,
        /// Scheduler stack pointer to switch back to (valid while running).
        sched_rsp: Cell<*mut u8>,
        finished: Cell<bool>,
        park: Cell<Park>,
        entry: Cell<Option<Box<dyn FnOnce()>>>,
    }

    /// A reusable coroutine stack (16-byte aligned, reused across jobs so
    /// a campaign pays the allocation once per rank, not per trial).
    pub struct Stack {
        base: *mut u8,
        layout: Layout,
    }

    // One scheduler owns a Stack at a time; nothing aliases the buffer
    // while it crosses threads inside an idle arena.
    unsafe impl Send for Stack {}

    impl Stack {
        pub fn new() -> Stack {
            // Read once per process: an arena allocates one stack per
            // rank, and `env::var` takes the process environment lock.
            static SIZE: OnceLock<usize> = OnceLock::new();
            let size = *SIZE.get_or_init(|| {
                std::env::var("FASTFIT_COOP_STACK")
                    .ok()
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or(DEFAULT_STACK)
                    .max(64 * 1024)
                    & !0xF
            });
            let layout = Layout::from_size_align(size, 16).expect("stack layout");
            let base = unsafe { alloc(layout) };
            assert!(!base.is_null(), "coroutine stack allocation failed");
            Stack { base, layout }
        }

        fn top(&self) -> *mut u8 {
            unsafe { self.base.add(self.layout.size()) }
        }
    }

    impl Drop for Stack {
        fn drop(&mut self) {
            unsafe { dealloc(self.base, self.layout) };
        }
    }

    /// One rank of one job, parked or running on its [`Stack`].
    pub struct Coroutine {
        state: Box<CoroState>,
    }

    // The scheduler thread is the only one that ever touches the state.
    unsafe impl Send for Coroutine {}

    impl Coroutine {
        /// Park a fresh coroutine on `stack`, ready to run `entry` at the
        /// first [`Coroutine::resume`].
        pub fn new(stack: &Stack, entry: Box<dyn FnOnce()>) -> Coroutine {
            let state = Box::new(CoroState {
                coro_rsp: Cell::new(ptr::null_mut()),
                sched_rsp: Cell::new(ptr::null_mut()),
                finished: Cell::new(false),
                park: Cell::new(Park::Ready),
                entry: Cell::new(Some(entry)),
            });
            let st: *const CoroState = &*state;
            unsafe {
                let top = stack.top();
                let slot = |i: usize| top.sub(8 * i) as *mut usize;
                // Layout the first `switch_stacks` restore pops through:
                // [r15 r14 r13 r12 rbx rbp ret] growing upward to `top`.
                slot(1).write(trampoline as *const () as usize);
                slot(2).write(0); // rbp
                slot(3).write(0); // rbx
                slot(4).write(st as usize); // r12 → CoroState for trampoline
                slot(5).write(0); // r13
                slot(6).write(0); // r14
                slot(7).write(0); // r15
                state.coro_rsp.set(top.sub(8 * 7));
            }
            Coroutine { state }
        }

        pub fn finished(&self) -> bool {
            self.state.finished.get()
        }

        /// How the coroutine last parked.
        pub fn park(&self) -> Park {
            self.state.park.get()
        }

        /// Run the coroutine until it yields or finishes.
        pub fn resume(&self) {
            debug_assert!(!self.finished(), "resumed a finished coroutine");
            let st: *const CoroState = &*self.state;
            // Default park: finishing (or a Ready yield) marks runnable.
            self.state.park.set(Park::Ready);
            CURRENT.with(|c| c.set(st));
            unsafe {
                switch_stacks(self.state.sched_rsp.as_ptr(), self.state.coro_rsp.get());
            }
            CURRENT.with(|c| c.set(ptr::null()));
        }
    }

    /// Whether the calling code is executing inside a rank coroutine.
    pub fn in_coroutine() -> bool {
        CURRENT.with(|c| !c.get().is_null())
    }

    fn park(reason: Park) {
        let st = CURRENT.with(|c| c.get());
        if st.is_null() {
            return;
        }
        unsafe {
            let state = &*st;
            state.park.set(reason);
            switch_stacks(state.coro_rsp.as_ptr(), state.sched_rsp.get());
        }
    }

    /// Voluntary yield: hand the carrier to the next rank in the round.
    /// No-op outside a coroutine.
    pub fn yield_now() {
        park(Park::Ready);
    }

    /// Yield while waiting on progress only another rank or a timer can
    /// make. No-op outside a coroutine.
    pub fn yield_blocked() {
        park(Park::Blocked);
    }

    /// Park until the job clock reads `until`: the scheduler does not
    /// resume the rank before then, except to tear the job down. No-op
    /// outside a coroutine.
    pub fn sleep_until(until: std::time::Duration) {
        park(Park::Sleeping(until));
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod coro {
    //! Fallback for targets without a stack switch: the coop engine is
    //! never selected ([`super::Engine::effective`]), so the yield points
    //! compile to no-ops and the coroutine types are uninstantiable.

    pub struct Stack;
    pub struct Coroutine;

    impl Stack {
        pub fn new() -> Stack {
            Stack
        }
    }

    impl Coroutine {
        pub fn new(_stack: &Stack, _entry: Box<dyn FnOnce()>) -> Coroutine {
            unreachable!("coop engine is unavailable on this target")
        }
        pub fn finished(&self) -> bool {
            true
        }
        pub fn park(&self) -> super::Park {
            super::Park::Ready
        }
        pub fn resume(&self) {}
    }

    pub fn in_coroutine() -> bool {
        false
    }
    pub fn yield_now() {}
    pub fn yield_blocked() {}
    pub fn sleep_until(_until: std::time::Duration) {}
}

pub use coro::in_coroutine;
pub(crate) use coro::{yield_blocked, yield_now, Coroutine, Stack};

/// Sleep that suspends only the calling *rank*: inside a coroutine the
/// rank parks on a timer of the job clock (other ranks keep the carrier
/// busy, and the scheduler jumps the clock once none can); on a rank
/// thread it is a plain sleep. Used by the fail-slow fault and any other
/// injected delay. Returns early when the job is torn down — callers
/// check the kill flag next.
pub fn rank_sleep(fabric: &Fabric, dur: Duration) {
    if in_coroutine() {
        coro::sleep_until(fabric.now() + dur);
    } else {
        std::thread::sleep(dur);
    }
}

/// Pause between rounds while the job can only end at its wall-clock
/// deadline (see the module docs): nothing runnable, no timer to jump to,
/// and no stall streak running.
const DEADLINE_NAP: Duration = Duration::from_millis(1);

/// The cooperative engine's arena: per-rank coroutine stacks, reused
/// across jobs so a campaign pays the allocation once per rank.
pub struct CoopArena {
    nranks: usize,
    stacks: Vec<Stack>,
    jobs_run: u64,
    /// [`DEADLINE_NAP`]s taken so far.
    naps: u64,
    /// Test-only adversary: seed for shuffling the order ranks are
    /// *collected* into each round's run list. The scheduler canonicalizes
    /// by sorting, so the trace must be invariant — the fuzz suite proves
    /// that sort is load-bearing.
    perturb: Option<u64>,
    /// When set, [`CoopArena::run`] appends the rank-step order (every
    /// coroutine resume, in execution order) here.
    trace: Option<Vec<u32>>,
}

impl CoopArena {
    pub fn new(nranks: usize) -> CoopArena {
        install_quiet_panic_hook();
        CoopArena {
            nranks,
            stacks: Vec::new(),
            jobs_run: 0,
            naps: 0,
            perturb: None,
            trace: None,
        }
    }

    pub fn nranks(&self) -> usize {
        self.nranks
    }

    pub fn jobs_run(&self) -> u64 {
        self.jobs_run
    }

    /// Times the round loop has slept so far (see the module docs: only a
    /// job that can end no other way than at its wall-clock deadline
    /// sleeps at all).
    pub fn naps(&self) -> u64 {
        self.naps
    }

    /// Arm the adversarial ready-list perturbation (tests only).
    pub fn set_perturb(&mut self, seed: Option<u64>) {
        self.perturb = seed;
    }

    /// Start (or clear) rank-step tracing for subsequent jobs.
    pub fn set_trace(&mut self, on: bool) {
        self.trace = if on { Some(Vec::new()) } else { None };
    }

    /// The rank-step trace accumulated since tracing was enabled.
    pub fn take_trace(&mut self) -> Vec<u32> {
        self.trace.take().unwrap_or_default()
    }

    /// Collect the live ranks for one round and canonicalize the order.
    /// The collection order is adversary-controlled under `perturb`; the
    /// ascending sort is what makes the schedule deterministic.
    fn round_order(&mut self, live: &[bool], round: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.nranks).filter(|&r| live[r]).collect();
        if let Some(seed) = self.perturb {
            let mut x = seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for i in (1..order.len()).rev() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                order.swap(i, (x % (i as u64 + 1)) as usize);
            }
        }
        order.sort_unstable();
        order
    }

    /// Run one job, multiplexing all ranks onto the calling thread, under
    /// the supervisor both engines share.
    pub fn run(&mut self, spec: &JobSpec, app: AppFn) -> JobResult {
        assert_eq!(
            spec.nranks, self.nranks,
            "CoopArena built for {} ranks cannot run a {}-rank job",
            self.nranks, spec.nranks
        );
        self.jobs_run += 1;
        Supervisor::run(spec, app, Engine::Coop, |sup| self.drive(sup))
    }

    /// The round loop. It doubles as the job's clock (module docs,
    /// "Supervision and time"): a round after which every live rank is
    /// blocked and the epoch has not moved is where the supervisor sweeps
    /// for a proven deadlock or a drained failure, and failing that the
    /// clock jumps to the earliest timer.
    fn drive(&mut self, sup: &mut Supervisor) {
        let n = self.nranks;
        while self.stacks.len() < n {
            self.stacks.push(Stack::new());
        }
        let job = sup.job.clone();
        let (ctl, fabric) = (&job.ctl, &job.fabric);
        let coros: Vec<Coroutine> = (0..n)
            .map(|rank| {
                let job = job.clone();
                Coroutine::new(&self.stacks[rank], Box::new(move || run_rank(rank, &job)))
            })
            .collect();

        let mut live = vec![true; n];
        let mut round: u64 = 0;
        loop {
            let e0 = fabric.epoch();
            let now = fabric.now();
            let order = self.round_order(&live, round);
            round += 1;
            if order.is_empty() {
                break;
            }
            let mut all_blocked = true;
            // Earliest wake time among the ranks asleep after this round.
            let mut next_wake: Option<Duration> = None;
            for &r in &order {
                let asleep = matches!(coros[r].park(), Park::Sleeping(until) if until > now);
                if !asleep {
                    if let Some(t) = self.trace.as_mut() {
                        t.push(r as u32);
                    }
                    coros[r].resume();
                    if coros[r].finished() {
                        live[r] = false;
                        continue;
                    }
                }
                match coros[r].park() {
                    Park::Ready => all_blocked = false,
                    Park::Blocked => {}
                    Park::Sleeping(until) => {
                        next_wake = Some(next_wake.map_or(until, |t| t.min(until)));
                    }
                }
            }
            if ctl.done_count() == n {
                break;
            }
            // A rank waiting in `recv` always parks blocked, so only an
            // all-blocked round that moved nothing can be a stall
            // candidate — the sweep (one mailbox lock per rank) is not
            // worth taking after any other.
            let parked = (all_blocked && fabric.epoch() == e0).then_some(e0);
            match sup.step(parked) {
                Verdict::Stop => break,
                Verdict::Continue => {}
                // Nothing can run and nothing is proven: jump to the
                // earliest timer, or wait out the deadline.
                Verdict::Idle => match next_wake.into_iter().chain(fabric.next_held_due()).min() {
                    Some(t) => fabric.advance_to(t),
                    None => {
                        self.naps += 1;
                        std::thread::sleep(DEADLINE_NAP);
                    }
                },
            }
        }

        // Teardown: every parked coroutine sits at a yield point that
        // re-checks the kill flag (a sleeper's `rank_sleep` returns to
        // one), so resuming in rounds terminates.
        while coros.iter().any(|c| !c.finished()) {
            for coro in coros.iter().filter(|c| !c.finished()) {
                coro.resume();
            }
        }
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use crate::control::HangKind;
    use crate::ctx::{RankCtx, RankOutput};
    use crate::op::ReduceOp;
    use crate::runtime::JobOutcome;
    use std::sync::Arc;

    fn spec(n: usize) -> JobSpec {
        JobSpec {
            nranks: n,
            timeout: Duration::from_secs(10),
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
    fn raw_coroutine_switches_and_finishes() {
        let stack = Stack::new();
        let out = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let o = out.clone();
        let co = Coroutine::new(
            &stack,
            Box::new(move || {
                o.store(1, std::sync::atomic::Ordering::SeqCst);
                yield_now();
                o.store(2, std::sync::atomic::Ordering::SeqCst);
            }),
        );
        co.resume();
        assert_eq!(out.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert!(!co.finished());
        co.resume();
        assert_eq!(out.load(std::sync::atomic::Ordering::SeqCst), 2);
        assert!(co.finished());
    }

    #[test]
    fn coop_runs_collectives_to_completion() {
        let mut arena = CoopArena::new(8);
        for _ in 0..3 {
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
        assert_eq!(arena.jobs_run(), 3);
    }

    #[test]
    fn coop_classifies_deadlock_stalled() {
        let mut arena = CoopArena::new(3);
        let res = arena.run(
            &JobSpec {
                nranks: 3,
                timeout: Duration::from_secs(60),
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
        // The arena survives the kill and runs the next job cleanly.
        let res = arena.run(&spec(3), sum_app());
        assert!(matches!(res.outcome, JobOutcome::Completed { .. }));
    }

    #[test]
    fn coop_trace_is_deterministic_and_perturbation_invariant() {
        let run_traced = |perturb: Option<u64>| {
            let mut arena = CoopArena::new(4);
            arena.set_perturb(perturb);
            arena.set_trace(true);
            let res = arena.run(&spec(4), sum_app());
            assert!(matches!(res.outcome, JobOutcome::Completed { .. }));
            arena.take_trace()
        };
        let base = run_traced(None);
        assert!(!base.is_empty());
        for seed in [1, 0xDEAD, u64::MAX] {
            assert_eq!(
                base,
                run_traced(Some(seed)),
                "ready-list perturbation (seed {seed}) changed the rank-step order"
            );
        }
    }

    #[test]
    fn engine_carrier_accounting() {
        assert_eq!(Engine::Threads.carrier_threads(16), 16);
        assert_eq!(Engine::Coop.effective(), Engine::Coop);
        assert_eq!(Engine::Coop.carrier_threads(16), 1);
        assert_eq!(Engine::Coop.name(), "coop");
    }
}
