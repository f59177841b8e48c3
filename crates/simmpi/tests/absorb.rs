//! Ending a job when its fault is absorbed: a job that carries a hook and
//! a recorded run to be compared with stops the moment nothing can make
//! it differ from that run any more — and only then. For every message
//! fault kind on both transports and both engines, the watched job ends
//! absorbed exactly where the un-watched one goes on to compute the
//! recorded outputs, with the same transport counters; a fault that
//! reaches an application (a plain-fabric flip, truncation, drop or
//! lingering twin, a sticky plan, a tainted point-to-point message, a
//! probe hit) never ends one; and a hook that changes a by-value
//! parameter never heals, whatever its call then returns.

use simmpi::arena::JobArena;
use simmpi::comm::{handle_for_generation, WORLD};
use simmpi::control::HangKind;
use simmpi::ctx::{RankCtx, RankOutput};
use simmpi::hook::{CollCall, CollHook};
use simmpi::op::ReduceOp;
use simmpi::replay::{ReplayLog, ReplayPrefix};
use simmpi::runtime::{AppFn, JobOutcome, JobResult, JobSpec};
use simmpi::sched::Engine;
use simmpi::transport::{MsgFaultKind, MsgFaultPlan, TransportStats, ALL_MSG_FAULT_KINDS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const ENGINES: [Engine; 2] = [Engine::Threads, Engine::Coop];

/// What a [`Once`] hook does to the one call it acts on.
#[derive(Clone, Copy)]
enum Act {
    /// Arm a message plan for the call's traffic.
    Plan(MsgFaultPlan),
    /// Flip the lowest bit of this byte of the receive image.
    FlipRecv(usize),
    /// Hand the call another communicator.
    Comm(u32),
}

/// Acts on `rank`'s `entry`-th collective entry (counted over all call
/// sites), and says so once that entry has been made.
struct Once {
    rank: usize,
    entry: u64,
    act: Act,
    entries: AtomicU64,
}

impl Once {
    fn hook(rank: usize, entry: u64, act: Act) -> Arc<dyn CollHook> {
        Arc::new(Once {
            rank,
            entry,
            act,
            entries: AtomicU64::new(0),
        })
    }
}

impl CollHook for Once {
    fn before(&self, call: &mut CollCall<'_>) {
        if call.rank != self.rank || self.entries.fetch_add(1, Ordering::SeqCst) != self.entry {
            return;
        }
        match self.act {
            Act::Plan(plan) => call.msg_fault = Some(plan),
            Act::FlipRecv(byte) => {
                call.recvbuf.as_deref_mut().expect("a receive image")[byte] ^= 1;
                call.corrupted = true;
            }
            Act::Comm(code) => {
                call.params.comm = code;
                call.corrupted = true;
            }
        }
    }

    fn spent(&self, rank: usize) -> bool {
        rank == self.rank && self.entries.load(Ordering::SeqCst) > self.entry
    }
}

fn spec(n: usize) -> JobSpec {
    JobSpec {
        nranks: n,
        timeout: Duration::from_secs(30),
        op_budget: Some(5_000),
        ..Default::default()
    }
}

/// The recorded run of `app`: its outputs and its log.
fn record(engine: Engine, n: usize, app: &AppFn) -> (Vec<RankOutput>, Arc<ReplayLog>) {
    let recorded = JobArena::with_engine(n, engine).run(
        &JobSpec {
            record: true,
            ..spec(n)
        },
        app.clone(),
    );
    let JobOutcome::Completed { outputs } = recorded.outcome else {
        panic!("the recorded run did not complete: {:?}", recorded.outcome)
    };
    (outputs, Arc::new(recorded.replay_log.expect("recorded")))
}

/// One job of `app` under `hook`: watched — anchored at world call `seq`
/// of `log` — or not.
fn run(
    engine: Engine,
    n: usize,
    app: &AppFn,
    resilient: bool,
    hook: Arc<dyn CollHook>,
    watch: Option<(&Arc<ReplayLog>, u64)>,
) -> JobResult {
    let spec = JobSpec {
        resilient_transport: resilient,
        hook: Some(hook),
        replay: watch.map(|(log, seq)| ReplayPrefix {
            log: log.clone(),
            comm: WORLD.0,
            seq,
        }),
        ..spec(n)
    };
    JobArena::with_engine(n, engine).run(&spec, app.clone())
}

/// The counters a fault can move. (How many bytes a job sent before it
/// was ended is not one of them.)
fn counters(res: &JobResult) -> TransportStats {
    TransportStats {
        bytes_sent: 0,
        ..res.transport
    }
}

/// What a job that ended absorbed leaves in `outcome`.
const PLACEHOLDER: JobOutcome = JobOutcome::TimedOut {
    kind: HangKind::WallClock,
};

/// Six allreduces, each fed by the last: a wrong sum anywhere reaches
/// every rank's output.
fn sums_app() -> AppFn {
    Arc::new(|ctx: &mut RankCtx| {
        let mut acc = ctx.rank() as i64 + 1;
        for round in 0..6 {
            acc = ctx.allreduce_one(acc * 3 + round, ReduceOp::Sum, ctx.world()) % 1_000_003;
        }
        let mut out = RankOutput::new();
        out.push("acc", acc as f64);
        out
    })
}

/// Every message fault kind, on both transports and both engines, armed
/// on rank 1's third allreduce: the resilient fabric hands every receiver
/// exactly the bytes sent and the job ends absorbed; on the plain fabric
/// only a delay does, and everything else runs to the end it always had.
#[test]
fn every_message_fault_kind_ends_absorbed_exactly_where_it_is_repaired() {
    let (n, anchor) = (4, 2);
    let app = sums_app();
    for engine in ENGINES {
        let (golden, log) = record(engine, n, &app);
        for resilient in [false, true] {
            for kind in ALL_MSG_FAULT_KINDS {
                let what = format!("{} {}, resilient {resilient}", engine.name(), kind.name());
                let hook = || {
                    let plan = MsgFaultPlan {
                        kind,
                        nth_send: 0,
                        payload_bit: 0,
                        sticky: false,
                    };
                    Once::hook(1, anchor, Act::Plan(plan))
                };
                let watched = run(engine, n, &app, resilient, hook(), Some((&log, anchor)));
                let reference = run(engine, n, &app, resilient, hook(), None);
                assert!(!reference.absorbed, "{what}: nothing watched");
                assert!(watched.transport.fault_fired, "{what}");
                assert_eq!(counters(&watched), counters(&reference), "{what}");
                assert_eq!(
                    watched.absorbed,
                    resilient || kind == MsgFaultKind::Delay,
                    "{what}"
                );
                if watched.absorbed {
                    assert_eq!(watched.outcome, PLACEHOLDER, "{what}");
                    assert!(
                        watched.transport.bytes_sent < reference.transport.bytes_sent,
                        "{what}: the job ended early"
                    );
                    assert_eq!(
                        reference.outcome,
                        JobOutcome::Completed {
                            outputs: golden.clone()
                        },
                        "{what}: the remainder is the recorded run's"
                    );
                } else {
                    assert_eq!(watched.outcome, reference.outcome, "{what}");
                    // The fault reached an application — or, a twin,
                    // lingers where a later receive could still take it.
                    let harmless = JobOutcome::Completed {
                        outputs: golden.clone(),
                    };
                    assert_eq!(
                        reference.outcome == harmless,
                        kind == MsgFaultKind::Duplicate,
                        "{what}"
                    );
                }
            }
        }
    }
}

/// A plan aimed past its call's last send never fires: the job ends the
/// moment the rank leaves the call, with nothing fired.
#[test]
fn a_plan_that_never_fires_is_absorbed_on_leaving_its_call() {
    let (n, anchor) = (4, 3);
    let app = sums_app();
    for engine in ENGINES {
        let (_, log) = record(engine, n, &app);
        for resilient in [false, true] {
            let plan = MsgFaultPlan {
                kind: MsgFaultKind::Drop,
                nth_send: 3,
                payload_bit: 0,
                sticky: true,
            };
            let hook = Once::hook(2, anchor, Act::Plan(plan));
            let watched = run(engine, n, &app, resilient, hook, Some((&log, anchor)));
            assert!(watched.absorbed);
            assert_eq!(counters(&watched), TransportStats::default());
        }
    }
}

/// A sticky plan defeats the resilient fabric: its receiver dies of the
/// fault, tainted for good, and the job ends the way it always did.
#[test]
fn a_sticky_plan_is_never_absorbed() {
    let (n, anchor) = (4, 2);
    let app = sums_app();
    for engine in ENGINES {
        let (_, log) = record(engine, n, &app);
        for kind in [
            MsgFaultKind::Flip,
            MsgFaultKind::Drop,
            MsgFaultKind::Truncate,
        ] {
            let hook = || {
                let plan = MsgFaultPlan {
                    kind,
                    nth_send: 1,
                    payload_bit: 9,
                    sticky: true,
                };
                Once::hook(0, anchor, Act::Plan(plan))
            };
            let watched = run(engine, n, &app, true, hook(), Some((&log, anchor)));
            let reference = run(engine, n, &app, true, hook(), None);
            assert!(!watched.absorbed, "{}", kind.name());
            assert!(matches!(watched.outcome, JobOutcome::Fatal { .. }));
            assert_eq!(watched.outcome, reference.outcome, "{}", kind.name());
            assert_eq!(counters(&watched), counters(&reference), "{}", kind.name());
        }
    }
}

/// Rank 1, a non-root of the `reduce`, has its receive image flipped:
/// the call hands it no result, so nothing overwrites the flip, and it
/// then passes the buffer on point-to-point to rank 2 — which consumes it
/// (`probe_only` false) or only ever probes for it. Every collective
/// after that returns the recorded result on every rank.
fn pass_it_on_app(probe_only: bool) -> AppFn {
    Arc::new(move |ctx: &mut RankCtx| {
        let w = ctx.world();
        let me = ctx.rank();
        let mut sum = [7i64];
        ctx.reduce(&[me as i64 + 1], &mut sum, ReduceOp::Sum, 0, w);
        let mut got = [0i64];
        match me {
            1 => ctx.send(&sum, 2, 5, w),
            2 if probe_only => {
                let req = ctx.irecv::<i64>(1, 5, w);
                while !ctx.test(&req) {}
            }
            2 => {
                ctx.recv_into(&mut got, 1, 5, w);
            }
            _ => {}
        }
        let max = ctx.allreduce_one(me as i64, ReduceOp::Max, w);
        ctx.barrier(w);
        let mut out = RankOutput::new();
        out.push("sum", sum[0] as f64);
        out.push("got", got[0] as f64);
        out.push("max", max as f64);
        out
    })
}

/// Taint taken outside a collective — a point-to-point receipt, a probe
/// hit — is for good: the golden results of the collectives that follow
/// clear nobody, and the job computes what it always did.
#[test]
fn a_tainted_point_to_point_message_consumed_or_probed_is_never_absorbed() {
    let n = 3;
    for probe_only in [false, true] {
        let app = pass_it_on_app(probe_only);
        for engine in ENGINES {
            let (golden, log) = record(engine, n, &app);
            let hook = || Once::hook(1, 0, Act::FlipRecv(0));
            let watched = run(engine, n, &app, false, hook(), Some((&log, 0)));
            let reference = run(engine, n, &app, false, hook(), None);
            assert!(!watched.absorbed, "probe only: {probe_only}");
            assert_eq!(watched.outcome, reference.outcome);
            let JobOutcome::Completed { outputs } = watched.outcome else {
                panic!("{:?}", watched.outcome)
            };
            assert_ne!(outputs[1], golden[1], "rank 1 keeps the flipped buffer");
            assert_eq!(outputs[2] != golden[2], !probe_only);
        }
    }
}

/// Rank 3 — a leaf of the binomial tree rooted at 0 — has the
/// communicator of its first broadcast changed to a duplicate of the
/// world with the same members. Nobody waits for a leaf, so the others go
/// on to the second broadcast, which *is* on the duplicate and carries the
/// same bytes: rank 3's first call returns exactly the result the log
/// holds for it, with every image intact. But the call it made is not the
/// recorded one — its second broadcast now waits for a message that was
/// never sent — and a by-value change never heals: the job hangs,
/// watched or not.
#[test]
fn a_communicator_change_never_heals_whatever_the_call_returns() {
    let n = 4;
    let app: AppFn = Arc::new(|ctx: &mut RankCtx| {
        let w = ctx.world();
        let dup = ctx.comm_dup(w);
        let mut out = RankOutput::new();
        for comm in [w, dup] {
            let mut buf = [if ctx.rank() == 0 { 42i64 } else { 0 }; 2];
            ctx.bcast(&mut buf, 0, comm);
            out.push("buf", buf[1] as f64);
        }
        out
    });
    for engine in ENGINES {
        let (_, log) = record(engine, n, &app);
        let dup = handle_for_generation(1).0;
        assert_eq!(
            log.result(3, WORLD.0, 0),
            log.result(3, dup, 0),
            "both broadcasts hand rank 3 the same bytes"
        );
        let hook = || Once::hook(3, 0, Act::Comm(dup));
        let watched = run(engine, n, &app, false, hook(), Some((&log, 0)));
        let reference = run(engine, n, &app, false, hook(), None);
        assert!(!watched.absorbed, "{}", engine.name());
        assert_eq!(
            watched.outcome,
            JobOutcome::TimedOut {
                kind: HangKind::Stalled
            }
        );
        assert_eq!(watched.outcome, reference.outcome);
    }
}
