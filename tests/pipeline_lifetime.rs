//! Lifetime and gate of the trial pipeline's helper threads: however a
//! measurement call ends — completed, cancelled, unwinding from a panic
//! inside `on_event` — every helper has been joined and every carrier
//! charge returned when it does; helpers of all the campaigns in the
//! process together never run more jobs at once than the (pinned) host
//! has carriers; the thread-per-rank engine never speculates. One test,
//! alone in its binary: the carrier count and `/proc/self/task` are
//! process-wide, so no sibling test may run campaigns beside it.

#![cfg(target_os = "linux")]

use fastfit::campaign::HELPER_THREAD_PREFIX;
use fastfit::prelude::*;
use simmpi::arena::CarrierCharge;
use simmpi::ctx::{RankCtx, RankOutput};
use simmpi::op::ReduceOp;
use simmpi::runtime::AppFn;
use simmpi::sched::Engine;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Names (`comm`) of this process's threads that are pipeline helpers.
fn helper_threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("listing /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .filter(|comm| comm.starts_with(HELPER_THREAD_PREFIX))
        .collect()
}

/// `join` returns when the kernel clears the thread's tid word, a moment
/// before it unlinks the task from `/proc`; allow for that moment, and no
/// more (the allowance `thread_engine_joins` makes).
fn assert_nothing_left(after: &str) {
    assert_eq!(
        CarrierCharge::running(),
        0,
        "carrier charges left after the {after} run"
    );
    let deadline = Instant::now() + Duration::from_millis(200);
    loop {
        let left = helper_threads();
        if left.is_empty() {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "helper threads left after the {after} run: {left:?}"
        );
        std::thread::yield_now();
    }
}

/// What the metered app keeps count of, across every campaign using it.
#[derive(Default)]
struct Meter {
    /// Off during golden runs.
    armed: AtomicBool,
    /// Jobs between their rank 0's first and last statement right now.
    running: AtomicUsize,
    /// Most ever seen at once.
    high: AtomicUsize,
    /// Jobs started.
    started: AtomicUsize,
    /// Jobs ended, however.
    finished: AtomicUsize,
    /// A job holds its place until `high` has reached this (or `patience`
    /// has run out), so that the concurrency a test expects is forced
    /// rather than hoped for. 0 = never wait.
    want: AtomicUsize,
    /// When jobs stop holding their place: 5 s after the meter was armed,
    /// so a failing scenario fails in seconds.
    patience: Mutex<Option<Instant>>,
    /// One-shot: the first job on the *calling* thread holds its place
    /// until three others have ended — with width 2, until the helper has
    /// run the window full behind it — then starts the meter afresh at
    /// `want` 2. Until then a job on a helper waits too, so the calling
    /// thread finds the head of the line not ready and runs a job itself
    /// however far ahead of it a helper got.
    hold_caller: AtomicBool,
    /// Whether any job ever saw a helper thread in the process.
    helper_seen: AtomicBool,
}

/// Rank 0's stay inside a metered job; ends however the rank leaves it
/// (an injected fault unwinds it).
struct Running<'a>(&'a Meter);

impl Drop for Running<'_> {
    fn drop(&mut self) {
        self.0.running.fetch_sub(1, Ordering::SeqCst);
        self.0.finished.fetch_add(1, Ordering::SeqCst);
    }
}

fn on_helper_thread() -> bool {
    std::thread::current()
        .name()
        .is_some_and(|n| n.starts_with(HELPER_THREAD_PREFIX))
}

/// One allreduce and a barrier, metered on rank 0 (the last barrier keeps
/// rank 0 inside the job until every rank has got that far).
fn metered_app(meter: Arc<Meter>) -> AppFn {
    Arc::new(move |ctx: &mut RankCtx| {
        let metered = ctx.rank() == 0 && meter.armed.load(Ordering::SeqCst);
        let _running = metered.then(|| {
            meter.started.fetch_add(1, Ordering::SeqCst);
            let now = meter.running.fetch_add(1, Ordering::SeqCst) + 1;
            meter.high.fetch_max(now, Ordering::SeqCst);
            if !helper_threads().is_empty() {
                meter.helper_seen.store(true, Ordering::SeqCst);
            }
            let deadline = meter.patience.lock().unwrap().expect("armed");
            if on_helper_thread() {
                while meter.hold_caller.load(Ordering::SeqCst) && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            }
            if !on_helper_thread() && meter.hold_caller.swap(false, Ordering::SeqCst) {
                while meter.finished.load(Ordering::SeqCst) < 3 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                meter.high.store(1, Ordering::SeqCst);
                meter.want.store(2, Ordering::SeqCst);
            } else {
                while meter.high.load(Ordering::SeqCst) < meter.want.load(Ordering::SeqCst)
                    && Instant::now() < deadline
                {
                    std::thread::yield_now();
                }
            }
            Running(&meter)
        });
        let x = ctx.allreduce_one(ctx.rank() as f64 + 1.0, ReduceOp::Sum, ctx.world());
        ctx.barrier(ctx.world());
        let mut out = RankOutput::new();
        out.push("x", x);
        out
    })
}

fn metered_campaign(meter: &Arc<Meter>, engine: Engine, width: usize) -> Campaign {
    meter.armed.store(false, Ordering::SeqCst);
    let mut c = Campaign::prepare(
        Workload::new("metered", metered_app(meter.clone()), 0.0, 4),
        CampaignConfig {
            trials_per_point: 12,
            ..Default::default()
        },
    );
    // A 60 s backstop (30 × the golden wall): far beyond the 5 s a job
    // may hold its place.
    c.golden_wall = Duration::from_secs(2);
    c.pin_engine(engine);
    c.pin_width(width);
    c
}

fn arm(meter: &Meter, want: usize) {
    meter.running.store(0, Ordering::SeqCst);
    meter.high.store(0, Ordering::SeqCst);
    meter.started.store(0, Ordering::SeqCst);
    meter.finished.store(0, Ordering::SeqCst);
    meter.want.store(want, Ordering::SeqCst);
    meter.hold_caller.store(false, Ordering::SeqCst);
    *meter.patience.lock().unwrap() = Some(Instant::now() + Duration::from_secs(5));
    meter.helper_seen.store(false, Ordering::SeqCst);
    meter.armed.store(true, Ordering::SeqCst);
}

/// Observer that panics inside `on_event` after `after` trials, once the
/// pipeline has provably started trials beyond them.
struct PanicAfter<'a> {
    after: usize,
    seen: AtomicUsize,
    meter: &'a Meter,
}

impl CampaignObserver for PanicAfter<'_> {
    fn on_event(&self, event: &ProgressEvent<'_>) {
        if let ProgressEvent::TrialFinished { .. } = event {
            if self.seen.fetch_add(1, Ordering::SeqCst) + 1 == self.after {
                let deadline = Instant::now() + Duration::from_secs(10);
                while self.meter.started.load(Ordering::SeqCst) <= self.after {
                    assert!(Instant::now() < deadline, "nothing ran ahead of the commit");
                    std::thread::yield_now();
                }
                panic!("observer failure mid-pipeline");
            }
        }
    }
}

#[test]
fn helpers_are_joined_charges_returned_and_the_gate_holds() {
    if Engine::platform() != Engine::Coop {
        // Only the coop engine speculates; elsewhere there is no helper
        // to leak and no gate to hold.
        return;
    }
    let meter = Arc::new(Meter::default());
    assert_nothing_left("no");

    // A lone campaign pinned to 2 reaches 2 jobs at once — and, while it
    // runs, its helper is a named thread of the process.
    let c = metered_campaign(&meter, Engine::Coop, 2);
    arm(&meter, 2);
    let res = c.run_all();
    assert!(!res.cancelled);
    assert_eq!(res.total_trials, c.trial_count());
    assert_eq!(
        meter.high.load(Ordering::SeqCst),
        2,
        "width 2 runs 2 jobs at once"
    );
    assert!(meter.helper_seen.load(Ordering::SeqCst));
    assert_nothing_left("completed");

    // A helper that ran the window full behind a slow head of line and
    // went to sleep is woken by the commits that follow: the campaign is
    // back to 2 jobs at once afterwards.
    let c = metered_campaign(&meter, Engine::Coop, 2);
    arm(&meter, 0);
    meter.hold_caller.store(true, Ordering::SeqCst);
    assert!(!c.run_all().cancelled);
    assert!(
        !meter.hold_caller.load(Ordering::SeqCst),
        "the calling thread ran a job"
    );
    assert_eq!(
        meter.high.load(Ordering::SeqCst),
        2,
        "the helper was woken after the window drained"
    );
    assert_nothing_left("window-full");

    // Cancelled mid-flight at width 4, helpers busy ahead of the gate.
    let c = metered_campaign(&meter, Engine::Coop, 4);
    arm(&meter, 0);
    let token = c.cancel_token();
    token.hold_after(3);
    std::thread::scope(|s| {
        let run = s.spawn(|| c.run_all());
        assert!(token.wait_held(Duration::from_secs(60)), "campaign parks");
        token.cancel();
        assert!(run.join().expect("campaign thread").cancelled);
    });
    assert_nothing_left("cancelled");

    // Unwinding from a panic inside `on_event`, trials in flight ahead.
    let c = metered_campaign(&meter, Engine::Coop, 4);
    arm(&meter, 0);
    let observer = PanicAfter {
        after: 3,
        seen: AtomicUsize::new(0),
        meter: &meter,
    };
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        c.run_all_observed(&observer)
    }));
    assert!(unwound.is_err(), "the observer's panic reaches the caller");
    assert_nothing_left("panicked");

    // Two campaigns from two threads, both pinned to 4, share one gate:
    // never more than 4 jobs between them. Holding each job until 4 run
    // at once shows the gate also lets them get that far.
    let campaigns = [
        metered_campaign(&meter, Engine::Coop, 4),
        metered_campaign(&meter, Engine::Coop, 4),
    ];
    arm(&meter, 4);
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for c in &campaigns {
            s.spawn(|| {
                start.wait();
                assert!(!c.run_all().cancelled);
            });
        }
    });
    assert_eq!(
        meter.high.load(Ordering::SeqCst),
        4,
        "two width-4 campaigns run 4 jobs at once between them, never 5"
    );
    assert_nothing_left("two-campaign");

    // The thread-per-rank engine never speculates.
    let c = metered_campaign(&meter, Engine::Threads, 4);
    arm(&meter, 0);
    assert!(!c.run_all().cancelled);
    assert_eq!(meter.high.load(Ordering::SeqCst), 1);
    assert!(!meter.helper_seen.load(Ordering::SeqCst));
    assert_nothing_left("thread-engine");
}
