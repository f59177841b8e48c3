//! The differential oracle: *same campaign identity ⇒ byte-identical
//! journal*. The thread-per-rank engine, one trial at a time, every
//! collective exchanged and every trial run to its end, unsplit and
//! uninterrupted, in this process, is the reference path. The coop engine,
//! the trial pipeline, prefix replay with absorption, a range split inside
//! a point, a kill followed by a resume, and the service (a daemon, a
//! fleet of workers) are each a way to run the same campaign for less, and
//! each must be invisible in what it journals.
//!
//! Each row of a table of campaign identities (app or kernel, channel,
//! transport, timeline, ML cold or warm) runs once on the reference path.
//! A seeded plan then runs it again under variant vectors drawn from the
//! product of those axes, and every variant must journal the reference's
//! durable lines and content SHA (and serve its `results.csv`, on a
//! service path). Every row also holds the counts to what the rules
//! promise: nothing falls back, the reference replays and absorbs nothing,
//! and which trials end absorbed depends on the channel. The rows the
//! service suites submit run through the service instead
//! ([`Path::Daemon`], [`Path::Fleet`]), against a reference built from
//! their [`CampaignSpec`]; a lifecycle test holds what a service left
//! behind to the reference of its spec through [`assert_reference`].
//!
//! The suites that hold the plan are [`slices`]: each test of
//! `sched_equivalence`, `pipeline_equivalence`, `prefix_equivalence`,
//! `absorb_equivalence`, `determinism`, `serve` and `fleet` holds the
//! planned runs its selector picks, and `tests/equivalence.rs` proves every
//! planned run is picked by one. A new mechanism becomes one more axis of
//! [`Variant`]; a new family of campaigns, one more set of rows in
//! [`identities`].
//!
//! Each test binary that declares `mod oracle;` uses a part of it.
#![allow(dead_code)]

mod service;

pub use service::*;

use fastfit::prelude::*;
use fastfit_serve::{
    pin_spec, resolve_config, resolve_workload, CampaignSpec, PointSet, RESULTS_FILE,
};
use fastfit_store::{
    campaign_meta, durable_journal_lines, journal_content_sha, CampaignStore, MlIdentity,
};
use minimd::{md_app, MdConfig};
use npb::{kernel_by_name, Class};
use prng::Prng;
use randomforest::RandomForest;
use simmpi::arena::ArenaPool;
use simmpi::ctx::{RankCtx, RankOutput};
use simmpi::hook::{CollKind, ALL_COLL_KINDS};
use simmpi::op::ReduceOp;
use simmpi::runtime::AppFn;
use simmpi::sched::Engine;
use std::collections::{BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Helpers claim trials only while the *process* has a carrier to spare,
/// so tests that run side by side would keep each other's helpers out.
/// Every test that runs a campaign holds this for its whole body: the
/// count is then its own.
pub fn alone() -> MutexGuard<'static, ()> {
    static ALONE: Mutex<()> = Mutex::new(());
    ALONE.lock().unwrap_or_else(PoisonError::into_inner)
}

pub fn trial_lines(dir: &std::path::Path) -> Vec<String> {
    durable_journal_lines(dir)
        .unwrap()
        .into_iter()
        .filter(|l| l.contains("\"t\":\"trial\""))
        .collect()
}

pub fn count(lines: &[String], needle: &str) -> u64 {
    lines.iter().filter(|l| l.contains(needle)).count() as u64
}

/// Observer that persists to a store but simulates a crash (panics)
/// inside `on_event` once `budget` fresh trials have committed. With
/// `ahead`, it first waits until two more trial jobs than that have
/// started, so the crash provably lands while the pipeline runs ahead.
pub struct CrashAfter {
    pub store: CampaignStore,
    pub budget: usize,
    pub fresh: AtomicUsize,
    pub ahead: Option<Arc<AtomicUsize>>,
}

impl CrashAfter {
    pub fn new(store: CampaignStore, budget: usize) -> CrashAfter {
        CrashAfter {
            store,
            budget,
            fresh: AtomicUsize::new(0),
            ahead: None,
        }
    }
}

impl CampaignObserver for CrashAfter {
    fn replay(&self, point: &InjectionPoint, trial: usize, bit: u64) -> Option<TrialDisposition> {
        self.store.replay(point, trial, bit)
    }

    fn on_event(&self, event: &ProgressEvent<'_>) {
        self.store.on_event(event);
        if let ProgressEvent::TrialFinished {
            replayed: false, ..
        } = event
        {
            if self.fresh.fetch_add(1, Ordering::SeqCst) + 1 == self.budget {
                if let Some(jobs) = &self.ahead {
                    assert!(
                        wait_for_jobs(jobs, self.budget + 2),
                        "no trial ran ahead of the commit point"
                    );
                }
                panic!("simulated crash mid-campaign");
            }
        }
    }
}

/// Wait (bounded) until `jobs` reaches `want`.
pub fn wait_for_jobs(jobs: &AtomicUsize, want: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while jobs.load(Ordering::SeqCst) < want {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

/// Observer adding up the retries it is told about, forwarding to `store`.
#[derive(Default)]
pub struct CountRetries<'a> {
    pub store: Option<&'a CampaignStore>,
    pub retries: AtomicUsize,
}

impl CampaignObserver for CountRetries<'_> {
    fn on_event(&self, event: &ProgressEvent<'_>) {
        if let ProgressEvent::TrialFinished { retries, .. } = event {
            self.retries.fetch_add(*retries as usize, Ordering::SeqCst);
        }
        if let Some(store) = self.store {
            store.on_event(event);
        }
    }
}

/// A communication-heavy app with a prefix worth replaying in front of
/// most of its points: per-rank RNG draws feed seven call sites on two
/// communicators (the world and the two halves of a split, which share a
/// handle code), with a point-to-point ring between them, and every result
/// feeds the next call. Any state that leaked between trials, or a
/// replayed result that differed from the exchanged one by a bit, would
/// reach the journalled outputs.
pub fn prefix_app() -> AppFn {
    Arc::new(|ctx: &mut RankCtx| {
        let w = ctx.world();
        let (me, n) = (ctx.rank(), ctx.size());
        let draw = |ctx: &mut RankCtx| ctx.rng().next_f64() * 3.7;
        let x = draw(ctx);
        let mut acc = ctx.allreduce_one(x, ReduceOp::Sum, w);
        let mut got = [0.0f64];
        ctx.sendrecv(
            &[acc + me as f64],
            (me + 1) % n,
            &mut got,
            (me + n - 1) % n,
            7,
            w,
        );
        acc += got[0];
        let half = ctx
            .comm_split(w, (me % 2) as i32, me as i32)
            .expect("a colour");
        for _ in 0..3 {
            let x = draw(ctx);
            acc += ctx.allreduce_one(x + acc / 7.0, ReduceOp::Max, half);
        }
        let mut seedling = [if me == 0 { acc } else { 0.0 }; 2];
        ctx.bcast(&mut seedling, 0, w);
        acc += seedling[1];
        let send: Vec<f64> = (0..n).map(|i| acc + i as f64).collect();
        let mut recv = vec![0.0f64; n];
        ctx.alltoall(&send, &mut recv, w);
        acc += recv.iter().sum::<f64>();
        ctx.barrier(w);
        let mut total = [0.0f64];
        ctx.reduce(&[acc], &mut total, ReduceOp::Sum, n - 1, w);
        let x = draw(ctx);
        acc += ctx.allreduce_one(x + total[0], ReduceOp::Sum, w);
        let mut out = RankOutput::new();
        out.push("acc", acc);
        out
    })
}

/// The synthetic workload running `app` (a wrapper of [`prefix_app`]),
/// pinned to `width`, on the default path.
pub fn synthetic_campaign(app: AppFn, cfg: CampaignConfig, width: usize) -> Campaign {
    let w = Workload {
        app,
        ..App::Synthetic.workload()
    };
    let mut c = Campaign::prepare(w, cfg);
    c.pin_width(width);
    c
}

/// Every collective but `MPI_Bcast`: a flipped input broadcast can hand a
/// kernel a size it then computes on without a single MPI call, which no
/// logical detector ends (ROADMAP item 1; fitbench leaves it out alike).
pub fn all_but_bcast() -> Vec<CollKind> {
    ALL_COLL_KINDS
        .into_iter()
        .filter(|&k| k != CollKind::Bcast)
        .collect()
}

pub fn ml_cfg() -> MlConfig {
    MlConfig {
        accuracy_threshold: 0.6,
        initial_batch: 3,
        batch: 2,
        ..Default::default()
    }
}

pub const TARGET: MlTarget = MlTarget::RateLevels(3);

/// A warm-started loop measures in entropy order, a cold one in scan order.
pub fn ordering(prior: Option<&RandomForest>) -> MlOrdering {
    match prior {
        Some(_) => MlOrdering::Entropy,
        None => MlOrdering::Scan,
    }
}

// ---- the identities ----

/// What a campaign injects into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// [`prefix_app`] at four ranks.
    Synthetic,
    /// A real kernel at a rank count, class `mini`.
    Kernel(&'static str, usize),
}

impl App {
    fn workload(self) -> Workload {
        match self {
            App::Synthetic => Workload::new("prefix", prefix_app(), 0.0, 4),
            App::Kernel("LAMMPS", n) => {
                let app = md_app(MdConfig {
                    steps: 4,
                    ..Default::default()
                });
                Workload::new("LAMMPS", app, minimd::OUTPUT_TOLERANCE, n)
            }
            App::Kernel(kernel, n) => {
                let (app, tolerance) = kernel_by_name(kernel, Class::Mini);
                Workload::new(kernel, app, tolerance, n)
            }
        }
    }

    /// One golden run per app, shared by every campaign on it.
    fn golden(self) -> Arc<GoldenRun> {
        static GOLDEN: OnceLock<Mutex<HashMap<App, Arc<GoldenRun>>>> = OnceLock::new();
        let mut cache = GOLDEN.get_or_init(Default::default).lock().unwrap();
        let golden = cache.entry(self);
        golden
            .or_insert_with(|| Arc::new(GoldenRun::record(&self.workload())))
            .clone()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ml {
    Cold,
    /// Warm-started in entropy order from the last forest of the cold
    /// row's reference run on the same app.
    Warm,
}

/// The identity families the plan's coverage is counted over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Synthetic,
    Kernel,
    Ml,
}

/// What a row promises about absorption on the replaying path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Absorbs {
    Any,
    /// A faulty rank, a partition or a healing schedule is a condition,
    /// not an event: it is never spent.
    Nothing,
    /// What the resilient fabric repairs is gone: every `SUCCESS`.
    EverySuccess,
    Something,
}

/// One campaign identity: everything its journal may depend on.
#[derive(Debug, Clone)]
pub struct Identity {
    app: App,
    channel: FaultChannel,
    /// Every parameter instead of the data buffers alone.
    all_params: bool,
    resilient: bool,
    timeline: Option<&'static str>,
    ml: Option<Ml>,
    trials: usize,
    /// Points measured, spread evenly over the pruned list (`None`: all).
    sample: Option<usize>,
    /// A campaign the service suites submit: it runs through the daemon
    /// and the fleet, and nowhere else but on the reference path.
    served: bool,
}

/// The kernels, at the rank count their channel matrix runs them at.
const KERNELS: [&str; 7] = ["IS", "FT", "MG", "LU", "CG", "HALO", "LAMMPS"];
const RANKS: usize = 16;

/// Points per campaign of the kernel matrix: enough to reach every call
/// site of every kernel over the matrix, few enough for a debug build.
const SAMPLE: usize = 4;

/// The table. Synthetic rows: every channel (the parameter channel over
/// every parameter, so handle, count and root flips are in) × both
/// transports, and four timelines. Kernel rows: seven kernels × six
/// flavours × both transports, HALO at 64 ranks under five timelines, and
/// IS's whole resilient message campaign at three trials a point (the row
/// a split can land inside a point of). ML rows: cold and warm, on the
/// synthetic app and on IS. Last, the campaigns the service suites submit:
/// IS at four ranks on the parameter channel, the resilient message
/// channel and a burst-and-heal schedule. (IS's whole campaign at 16 ranks
/// takes no service path: its reference alone would cost each service
/// suite as much as a row of its own.)
pub fn identities() -> Vec<Identity> {
    let row = |app, channel, resilient| Identity {
        app,
        channel,
        all_params: false,
        resilient,
        timeline: None,
        ml: None,
        trials: 3,
        sample: None,
        served: false,
    };
    let mut rows = Vec::new();
    for channel in ALL_FAULT_CHANNELS {
        for resilient in [false, true] {
            let all_params = channel == FaultChannel::Param;
            rows.push(Identity {
                all_params,
                ..row(App::Synthetic, channel, resilient)
            });
        }
    }
    let timeline = |app, token, resilient| Identity {
        timeline: Some(token),
        ..row(app, FaultChannel::Message, resilient)
    };
    for (token, resilient) in [
        ("burst:4", false),
        ("burst:4", true),
        ("burst:2+heal:3", true),
        ("cascade:2", false),
    ] {
        rows.push(timeline(App::Synthetic, token, resilient));
    }
    let flavours = [
        (FaultChannel::Param, false),
        (FaultChannel::Param, true),
        (FaultChannel::Message, false),
        (FaultChannel::CrashStop, false),
        (FaultChannel::FailSlow, false),
        (FaultChannel::Partition, false),
    ];
    for kernel in KERNELS {
        for (channel, all_params) in flavours {
            for resilient in [false, true] {
                rows.push(Identity {
                    all_params,
                    trials: 1,
                    sample: Some(SAMPLE),
                    ..row(App::Kernel(kernel, RANKS), channel, resilient)
                });
            }
        }
    }
    for (token, resilient) in [
        ("burst:4", true),
        ("burst:4", false),
        ("burst:2+heal:3", true),
        ("cascade:2", false),
        ("heal:3", true),
    ] {
        rows.push(Identity {
            trials: 1,
            sample: Some(SAMPLE),
            ..timeline(App::Kernel("HALO", 64), token, resilient)
        });
    }
    rows.push(row(App::Kernel("IS", RANKS), FaultChannel::Message, true));
    for app in [App::Synthetic, App::Kernel("IS", RANKS)] {
        for ml in [Ml::Cold, Ml::Warm] {
            rows.push(Identity {
                ml: Some(ml),
                ..row(app, FaultChannel::Param, false)
            });
        }
    }
    for (channel, resilient, timeline) in [
        (FaultChannel::Param, false, None),
        (FaultChannel::Message, true, None),
        (FaultChannel::Message, true, Some("burst:2+heal:3")),
    ] {
        rows.push(Identity {
            timeline,
            served: true,
            ..row(App::Kernel("IS", 4), channel, resilient)
        });
    }
    rows
}

impl Identity {
    fn family(&self) -> Family {
        match (self.ml, self.app) {
            (Some(_), _) => Family::Ml,
            (None, App::Synthetic) => Family::Synthetic,
            (None, App::Kernel(..)) => Family::Kernel,
        }
    }

    /// A trial range can be split inside one of its points.
    pub fn splits(&self) -> bool {
        self.ml.is_none() && self.trials > 1
    }

    /// The spec a served row is submitted as: [`param_spec`] with the
    /// row's channel, transport and timeline, at the oracle's class. No
    /// other row has one: no spec names the synthetic app, and sampled
    /// points and the oracle's ML knobs are no spec's keys.
    pub fn spec(&self) -> Option<CampaignSpec> {
        let App::Kernel(kernel, ranks) = self.app else {
            return None;
        };
        let channel = self.timeline.is_none() && self.channel != FaultChannel::Param;
        self.served.then(|| CampaignSpec {
            class: Some(Class::Mini),
            ranks: Some(ranks),
            trials: Some(self.trials),
            params: self.all_params.then_some(ParamsMode::All),
            fault_channel: channel.then_some(self.channel),
            resilient: self.resilient.then_some(true),
            timeline: self.timeline.map(String::from),
            ..CampaignSpec {
                workload: kernel.into(),
                ..param_spec()
            }
        })
    }

    fn workload(&self) -> Workload {
        match self.spec() {
            Some(spec) => resolve_workload(&spec),
            None => self.app.workload(),
        }
    }

    fn cfg(&self) -> CampaignConfig {
        if let Some(spec) = self.spec() {
            return resolve_config(&spec);
        }
        let mut cfg = CampaignConfig {
            trials_per_point: self.trials,
            params: match self.all_params {
                true => ParamsMode::All,
                false => ParamsMode::DataBuffer,
            },
            fault_channel: self.channel,
            resilient: self.resilient,
            colls: matches!(self.app, App::Kernel(..)).then(all_but_bcast),
            ..Default::default()
        };
        if let Some(token) = self.timeline {
            cfg.set_timeline(FaultTimeline::parse(token).unwrap());
        }
        cfg
    }

    fn absorbs(&self) -> Absorbs {
        match (self.timeline, self.channel) {
            (Some("burst:4"), _) => Absorbs::Any,
            (Some(_), _) => Absorbs::Nothing,
            _ if self.ml == Some(Ml::Cold) && self.app != App::Synthetic => Absorbs::Something,
            (None, FaultChannel::Message) if self.resilient => Absorbs::EverySuccess,
            (None, FaultChannel::Param | FaultChannel::Message) => Absorbs::Any,
            (None, _) => Absorbs::Nothing,
        }
    }
}

// ---- the variants ----

/// Which way a run reaches its campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// A `Campaign` measured in this process: the reference's path.
    InProcess,
    /// `POST /campaigns` to an in-process daemon.
    Daemon,
    /// An in-process coordinator leasing the trial space to two workers.
    Fleet,
}

const PATHS: [Path; 3] = [Path::InProcess, Path::Daemon, Path::Fleet];

/// How one run of an identity is carried out. Campaign identity leaves
/// every field out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    pub path: Path,
    pub engine: Engine,
    /// [`HOST`]: unpinned, the host's.
    pub width: usize,
    /// Prefix replay and absorption (one seam: `pin_replay`).
    pub replay: bool,
    /// Two trial ranges, split one trial into the middle point (on the
    /// fleet: leases one trial longer than a point).
    pub split: bool,
    /// Crash after this many fresh trials, then resume from the journal
    /// (on a daemon: hold its campaign there, shut it down and start it
    /// again).
    pub kill: Option<usize>,
}

pub const REFERENCE: Variant = Variant {
    path: Path::InProcess,
    engine: Engine::Threads,
    width: 1,
    replay: false,
    split: false,
    kill: None,
};

/// The widths an in-process run pins.
pub const WIDTHS: [usize; 3] = [1, 2, 4];

/// The width a service runs at: whatever the host gives a campaign.
pub const HOST: usize = 0;

/// Axes of the plan's coverage: family, engine, width (the pinned ones,
/// then the host's), replay, split, kill, path.
const AXES: usize = 7;
type Coords = [usize; AXES];

const PLAN_SEED: u64 = 0x0DD5_EED5;

pub fn coords(id: &Identity, v: &Variant) -> Coords {
    [
        id.family() as usize,
        (v.engine == Engine::Coop) as usize,
        WIDTHS
            .iter()
            .position(|&w| w == v.width)
            .unwrap_or(WIDTHS.len()),
        v.replay as usize,
        v.split as usize,
        v.kill.is_some() as usize,
        v.path as usize,
    ]
}

/// Every pair of axis values a vector holds, as `[axis, value, axis, value]`.
pub fn pairs(c: Coords) -> impl Iterator<Item = [usize; 4]> {
    (0..AXES).flat_map(move |a| (a + 1..AXES).map(move |b| [a, c[a], b, c[b]]))
}

/// A service path's vector: the service runs a kernel campaign on
/// `Engine::platform()` (what a coop pin runs everywhere, as
/// `Engine::effective` says) at the host's width, replaying; the fleet
/// always splits and takes no kill (the child-process kill tests of
/// `tests/fleet.rs` do).
fn served(path: Path) -> Coords {
    let fleet = path == Path::Fleet;
    let kernel = Family::Kernel as usize;
    [kernel, 1, WIDTHS.len(), 1, fleet as usize, 0, path as usize]
}

/// Whether some identity can run as `c`: on a service path as [`served`]
/// says, its kill aside; in process at a pinned width, and no ML campaign
/// splits.
fn legal(c: &Coords) -> bool {
    match c[6] {
        0 => c[2] < WIDTHS.len() && !(c[0] == Family::Ml as usize && c[4] == 1),
        path => c[..5] == served(PATHS[path])[..5] && !(PATHS[path] == Path::Fleet && c[5] == 1),
    }
}

/// Whether `id` can take `value` on `axis`: a served row runs only
/// through the service.
fn fits(id: &Identity, axis: usize, value: usize) -> bool {
    let takes = |path| {
        let mut c = served(path);
        c[axis] = value;
        legal(&c)
    };
    match axis {
        0 => id.family() as usize == value,
        _ if id.served => takes(Path::Daemon) || takes(Path::Fleet),
        2 => value < WIDTHS.len(),
        4 => value == 0 || id.splits(),
        6 => value == Path::InProcess as usize,
        _ => true,
    }
}

/// Every pair some legal vector holds.
pub fn needed_pairs() -> BTreeSet<[usize; 4]> {
    let sizes = [3, 2, WIDTHS.len() + 1, 2, 2, 2, 3];
    let total: usize = sizes.iter().product();
    (0..total)
        .map(|mut n| {
            sizes.map(|s| {
                let v = n % s;
                n /= s;
                v
            })
        })
        .filter(legal)
        .flat_map(pairs)
        .collect()
}

/// A random legal vector for `id`, with `forced` axis values.
fn draw(rng: &mut Prng, id: &Identity, forced: &[(usize, usize)]) -> Coords {
    loop {
        let mut c = match id.served {
            true => {
                let path = [Path::Daemon, Path::Fleet][rng.gen_range(0..2)];
                let mut c = served(path);
                c[5] = rng.gen_range(0..2);
                c
            }
            false => [
                id.family() as usize,
                rng.gen_range(0..2),
                rng.gen_range(0..WIDTHS.len()),
                rng.gen_range(0..2),
                if id.splits() { rng.gen_range(0..2) } else { 0 },
                rng.gen_range(0..2),
                Path::InProcess as usize,
            ],
        };
        for &(axis, value) in forced {
            c[axis] = value;
        }
        if legal(&c) {
            return c;
        }
    }
}

/// The plan. Every identity gets two coop variants: in process, their
/// other axes drawn, one replaying and uninterrupted and one killed and
/// resumed; a served row, an uninterrupted daemon run and a fleet run. One
/// that can split, and holds no uninterrupted split yet, gets one. Then,
/// while a pair of axis values is covered nowhere, the best of eight drawn
/// vectors that hold it (never the reference's own), on identities that
/// can take it.
pub fn plan(ids: &[Identity]) -> Vec<(usize, Variant)> {
    let mut rng = Prng::seed_from_u64(PLAN_SEED);
    let mut plan: Vec<(usize, Coords)> = ids
        .iter()
        .enumerate()
        .flat_map(|(i, id)| {
            if id.served {
                return [(i, served(Path::Daemon)), (i, served(Path::Fleet))];
            }
            let replaying = draw(&mut rng, id, &[(1, 1), (3, 1), (5, 0)]);
            let killed = draw(&mut rng, id, &[(1, 1), (5, 1)]);
            [(i, replaying), (i, killed)]
        })
        .collect();
    let split = |c: &Coords| c[4] == 1 && c[5] == 0;
    for (i, id) in ids.iter().enumerate() {
        if id.splits() && !plan.iter().any(|(j, c)| *j == i && split(c)) {
            plan.push((i, draw(&mut rng, id, &[(4, 1), (5, 0)])));
        }
    }
    let mut open = needed_pairs();
    for p in plan.iter().flat_map(|(_, c)| pairs(*c)) {
        open.remove(&p);
    }
    while let Some(&[a, x, b, y]) = open.iter().next() {
        let able: Vec<usize> = (0..ids.len())
            .filter(|&i| fits(&ids[i], a, x) && fits(&ids[i], b, y))
            .collect();
        let candidates: Vec<(usize, Coords)> = (0..8)
            .map(|_| {
                let i = able[rng.gen_range(0..able.len())];
                loop {
                    let c = draw(&mut rng, &ids[i], &[(a, x), (b, y)]);
                    if c[1..] != [0; AXES - 1] {
                        break (i, c);
                    }
                }
            })
            .collect();
        let gain = |c: &Coords| pairs(*c).filter(|p| open.contains(p)).count();
        let best = *candidates
            .iter()
            .rev()
            .max_by_key(|(_, c)| gain(c))
            .unwrap();
        for p in pairs(best.1) {
            open.remove(&p);
        }
        plan.push(best);
    }
    plan.into_iter()
        .map(|(i, c)| {
            let variant = Variant {
                path: PATHS[c[6]],
                engine: [Engine::Threads, Engine::Coop][c[1]],
                width: *WIDTHS.get(c[2]).unwrap_or(&HOST),
                replay: c[3] == 1,
                split: c[4] == 1,
                kill: (c[5] == 1).then(|| 1 + rng.gen_range(0..3)),
            };
            (i, variant)
        })
        .collect()
}

// ---- running a row ----

/// `id`'s campaign over `golden`'s sampled points, run as `v` says.
pub fn campaign(
    golden: &Arc<GoldenRun>,
    w: Workload,
    cfg: CampaignConfig,
    v: Variant,
    sample: Option<usize>,
) -> Campaign {
    let pool = Arc::new(ArenaPool::with_engine(w.nranks, v.engine));
    let pruned = Pruned::new(golden, &cfg);
    let mut c = Campaign::from_pruned(w, cfg, golden.clone(), pruned, Some(pool));
    c.pin_width(v.width);
    c.pin_replay(v.replay);
    if let Some(k) = sample.filter(|&k| k < c.points().len()) {
        let n = c.points().len();
        let keep: Vec<usize> = (0..k).map(|i| i * (n - 1) / (k - 1).max(1)).collect();
        c.context.points = keep.iter().map(|&i| c.context.points[i]).collect();
        c.context.group_sizes = keep.iter().map(|&i| c.context.group_sizes[i]).collect();
    }
    c
}

/// `c`'s stats, held to what every run promises: nothing falls back, and
/// with replay pinned off nothing is replayed or absorbed.
pub fn checked_stats(c: &Campaign, replay: bool, what: &str) -> ReplayStats {
    let stats = c.replay_stats();
    assert_eq!(stats.fallbacks, 0, "{what}: no attempt diverges");
    if !replay {
        assert_eq!(
            (stats.absorbed_trials, stats.replayed_calls),
            (0, 0),
            "{what}"
        );
    }
    stats
}

/// What one run of an identity journaled.
pub struct Run {
    pub lines: Vec<String>,
    sha: String,
    /// Summed over the campaigns the run took (two for a kill). A service
    /// path's campaigns run where they are not seen.
    stats: Option<ReplayStats>,
    /// The ML loop's last forest.
    forest: Option<RandomForest>,
    /// The per-point export: the reference's of a plain campaign, and the
    /// `results.csv` a service path serves.
    csv: Option<String>,
}

impl Run {
    /// What the store in `dir` journaled, and the `results.csv` it holds.
    fn read(dir: &std::path::Path) -> Run {
        Run {
            lines: durable_journal_lines(dir).unwrap(),
            sha: journal_content_sha(dir).expect("journal sha"),
            stats: None,
            forest: None,
            csv: std::fs::read_to_string(dir.join(RESULTS_FILE)).ok(),
        }
    }

    /// Hold this run to `reference`: its durable lines, its content SHA
    /// and, where it has one, its export.
    fn assert_journals(&self, reference: &Run, what: &str) {
        assert!(
            self.lines == reference.lines && self.sha == reference.sha,
            "{what} journals what its reference does not: {}",
            first_difference(&self.lines, &reference.lines)
        );
        if let Some(csv) = &self.csv {
            let exported = reference.csv.as_ref() == Some(csv);
            assert!(
                exported,
                "{what}: results.csv is not its reference's export"
            );
        }
    }
}

/// Measure `c` to `observer` as `v` and `id` say: the ML loop, two trial
/// ranges split one trial into the middle point, or one plain run.
fn drive(
    id: &Identity,
    c: &Campaign,
    v: Variant,
    observer: &dyn CampaignObserver,
    prior: Option<&RandomForest>,
) -> Option<RandomForest> {
    if id.ml.is_some() {
        let mut last = None;
        let options = ActiveOptions {
            prior,
            ordering: ordering(prior),
        };
        let (points, cfg) = (c.points(), ml_cfg());
        c.run_ml_loop(
            points,
            Campaign::point_seed,
            TARGET,
            &cfg,
            options,
            observer,
            &mut |_, f| last = Some(f.clone()),
        );
        return last;
    }
    if v.split {
        let (total, tpp) = (c.trial_count(), id.trials as u64);
        let split = total / 2 / tpp * tpp + 1;
        assert_ne!(split % tpp, 0, "the split lands inside a point");
        assert!(c.run_trial_range_observed(0, split, observer));
        assert!(c.run_trial_range_observed(split, total, observer));
    } else {
        assert!(!c.run_all_observed(observer).cancelled);
    }
    None
}

/// Numbers the fresh directories of this process's runs.
static RUNS: AtomicUsize = AtomicUsize::new(0);

fn run_dir() -> std::path::PathBuf {
    tmp_dir(&format!("run-{}", RUNS.fetch_add(1, Ordering::SeqCst)))
}

/// Run row `i` of `ids` as `v`.
fn run(ids: &[Identity], i: usize, v: Variant) -> Run {
    let spec = || ids[i].spec().expect("a service path runs a spec");
    match v.path {
        Path::InProcess => run_in_process(ids, i, v),
        Path::Daemon => daemon_runs(&[spec()], v.kill).remove(0),
        Path::Fleet => fleet_run(&spec()),
    }
}

/// Run row `i` of `ids` as `v` in this process, journalled to a fresh
/// store.
fn run_in_process(ids: &[Identity], i: usize, v: Variant) -> Run {
    let id = &ids[i];
    let what = format!("{id:?} as {v:?}");
    let prior = match id.ml {
        Some(Ml::Warm) => {
            let cold = ids
                .iter()
                .position(|r| r.app == id.app && r.ml == Some(Ml::Cold));
            reference(ids, cold.expect("a cold row")).forest.clone()
        }
        _ => None,
    };
    let prior = prior.as_ref();
    let golden = id.app.golden();
    let build = || campaign(&golden, id.workload(), id.cfg(), v, id.sample);
    let ml_cfg = ml_cfg();
    let ml = id.ml.map(|_| MlIdentity {
        target: TARGET,
        config: &ml_cfg,
        warm: prior.map(|_| "a".repeat(64)),
        ordering: ordering(prior),
    });
    let c = build();
    let meta = campaign_meta(&c, c.points(), ml);
    let dir = run_dir();
    let mut stats = Vec::new();
    if let Some(k) = v.kill {
        let budget = match id.ml {
            Some(_) => k,
            None => k.min(c.trial_count() as usize - 1),
        };
        let crasher = CrashAfter::new(CampaignStore::open(&dir, meta.clone()).unwrap(), budget);
        let crashed = catch_unwind(AssertUnwindSafe(|| drive(id, &c, v, &crasher, prior)));
        assert!(crashed.is_err(), "{what}: the crash interrupts the run");
        drop(crasher);
        stats.push(checked_stats(&c, v.replay, &what));
        let store = CampaignStore::open(&dir, meta.clone()).unwrap();
        assert_eq!(store.replayable_trials(), budget, "{what}");
        drop(store);
    }
    let c = if v.kill.is_some() { build() } else { c };
    let store = CampaignStore::open(&dir, meta).expect("open store");
    let forest = drive(id, &c, v, &store, prior);
    store.finish().expect("finish store");
    stats.push(checked_stats(&c, v.replay, &what));
    let run = Run {
        stats: stats.into_iter().reduce(add),
        forest,
        ..Run::read(&dir)
    };
    std::fs::remove_dir_all(&dir).unwrap();
    run
}

fn add(a: ReplayStats, b: ReplayStats) -> ReplayStats {
    ReplayStats {
        replayed_calls: a.replayed_calls + b.replayed_calls,
        fallbacks: a.fallbacks + b.fallbacks,
        log_bytes: a.log_bytes.max(b.log_bytes),
        trial_jobs: a.trial_jobs + b.trial_jobs,
        absorbed_trials: a.absorbed_trials + b.absorbed_trials,
    }
}

/// Every run this process made, by what it ran (a row's variant, a
/// spec's reference), made once: the tests of a suite that pick the same
/// planned run, and every run of a row that holds it against its
/// reference, share one.
fn memo(key: String, make: impl FnOnce() -> Run) -> Arc<Run> {
    type Memo = Vec<(String, Arc<OnceLock<Arc<Run>>>)>;
    static MEMO: Mutex<Memo> = Mutex::new(Vec::new());
    let cell = {
        let mut memo = MEMO.lock().unwrap_or_else(PoisonError::into_inner);
        match memo.iter().find(|(k, _)| *k == key) {
            Some((_, cell)) => cell.clone(),
            None => {
                memo.push((key, Arc::default()));
                memo.last().unwrap().1.clone()
            }
        }
    };
    cell.get_or_init(|| Arc::new(make())).clone()
}

fn variant_key(i: usize, v: Variant) -> String {
    format!("{i} {v:?}")
}

/// Row `i` of `ids` run as `v`, once per process.
fn held(ids: &[Identity], i: usize, v: Variant) -> Arc<Run> {
    memo(variant_key(i, v), || run(ids, i, v))
}

/// Row `i`'s reference run: its spec's, if a spec names it.
fn reference(ids: &[Identity], i: usize) -> Arc<Run> {
    let id = &ids[i];
    let r = match id.spec() {
        Some(spec) => spec_reference(&spec),
        None => held(ids, i, REFERENCE),
    };
    let (meta, channel) = (&r.lines[0], id.cfg().fault_channel);
    assert!(r.lines.len() > 1, "{id:?}: the campaign measured nothing");
    // The meta line names the timeline, the channel it pins (a param
    // channel goes unnamed) and the transport.
    assert!(meta.contains(id.timeline.unwrap_or("")), "{id:?}: {meta}");
    let named = format!("\"fault_channel\":\"{}\"", channel.token());
    assert_eq!(
        meta.contains(&named),
        channel != FaultChannel::Param,
        "{meta}"
    );
    assert_eq!(meta.contains("\"resilient\":true"), id.resilient, "{meta}");
    r
}

/// The reference path's run of `spec`, pinned, once per process: the
/// spec's point set measured by `run_points_observed` into a store opened
/// under `campaign_meta`, never through the runner the service and the
/// CLI share, so that the runner is checked rather than reused. Plain
/// specs only.
pub fn spec_reference(spec: &CampaignSpec) -> Arc<Run> {
    let spec = pin_spec(spec).expect("a spec the service admits");
    memo(spec.to_json().encode(), || reference_run(&spec))
}

fn reference_run(spec: &CampaignSpec) -> Run {
    assert!(spec.ml_threshold.is_none(), "{spec:?}: a plain spec");
    let w = resolve_workload(spec);
    let golden = Arc::new(GoldenRun::record(&w));
    let c = campaign(&golden, w, resolve_config(spec), REFERENCE, None);
    let points = match spec.points.unwrap_or_default() {
        PointSet::Pruned => c.points().to_vec(),
        PointSet::Invocations => c.invocation_points(),
    };
    let dir = run_dir();
    let store = CampaignStore::open(&dir, campaign_meta(&c, &points, None)).expect("open store");
    let result = c.run_points_observed(&points, &store);
    store.finish().expect("finish store");
    let run = Run {
        stats: Some(checked_stats(&c, false, &format!("{spec:?}"))),
        csv: Some(points_csv(&result.results, c.cfg.fault_channel)),
        ..Run::read(&dir)
    };
    std::fs::remove_dir_all(&dir).unwrap();
    run
}

/// Hold what a service or a runner left in `dir` to the reference of
/// `spec`: its durable lines, its content SHA and, where it wrote one,
/// its `results.csv`.
pub fn assert_reference(spec: &CampaignSpec, dir: &std::path::Path) {
    let what = format!("{} ({spec:?})", dir.display());
    Run::read(dir).assert_journals(&spec_reference(spec), &what);
}

/// Where two journals first part.
fn first_difference(got: &[String], want: &[String]) -> String {
    match got.iter().zip(want).position(|(g, w)| g != w) {
        Some(n) => format!("line {n}:\n  got  {}\n  want {}", got[n], want[n]),
        None => format!("{} lines where the reference has {}", got.len(), want.len()),
    }
}

/// What the aggregate checks of a set of rows need.
#[derive(Default)]
pub struct Totals {
    /// Trials that never fired, over the references held against.
    pub unfired: u64,
    /// Absorbed trials on param `data` rows and on `burst:4` rows.
    pub absorbed_param_data: u64,
    pub absorbed_bursts: u64,
    pub variants: usize,
}

/// Run every planned variant `select` picks against its row's reference,
/// and hold each to its row's checks.
fn hold(select: impl Fn(&Identity, &Variant) -> bool) -> Totals {
    let ids = identities();
    let picked: Vec<(usize, Variant)> = plan(&ids)
        .into_iter()
        .filter(|(i, v)| select(&ids[*i], v))
        .collect();
    // The uninterrupted daemon runs go to one daemon at once, so that
    // campaigns run side by side.
    let batch: Vec<&(usize, Variant)> = picked
        .iter()
        .filter(|(_, v)| v.path == Path::Daemon && !v.killed())
        .collect();
    if !batch.is_empty() {
        let specs: Vec<CampaignSpec> = batch.iter().map(|(i, _)| ids[*i].spec().unwrap()).collect();
        for (&(i, v), run) in batch.into_iter().zip(daemon_runs(&specs, None)) {
            memo(variant_key(i, v), || run);
        }
    }
    let mut totals = Totals::default();
    for (i, id) in ids.iter().enumerate() {
        let mut same = None;
        for &(_, v) in picked.iter().filter(|(j, _)| *j == i) {
            let reference = reference(&ids, i);
            let run = held(&ids, i, v);
            run.assert_journals(&reference, &format!("{id:?} as {v:?}"));
            totals.variants += 1;
            totals.unfired += count(&reference.lines, "\"fired\":false");
            let Some(stats) = run.stats else {
                continue;
            };
            let what = format!("{id:?} as {v:?}: {stats:?}");
            if v.replay && id.app == App::Synthetic {
                assert!(stats.replayed_calls > 0 && stats.log_bytes > 0, "{what}");
            }
            if !v.replay {
                continue;
            }
            let (absorbed, killed) = (stats.absorbed_trials, v.kill.is_some());
            let trials = count(&reference.lines, "\"t\":\"trial\"");
            let successes = count(&reference.lines, "\"resp\":\"SUCCESS\"");
            assert!(stats.trial_jobs >= trials, "{what}");
            // A killed run's two campaigns run every trial at least once,
            // and those that ran ahead of the crash twice.
            match id.absorbs() {
                Absorbs::Any => {}
                Absorbs::Nothing => assert_eq!(absorbed, 0, "{what}"),
                Absorbs::EverySuccess if killed => assert!(absorbed >= successes, "{what}"),
                Absorbs::EverySuccess => assert_eq!(absorbed, successes, "{what}"),
                Absorbs::Something => assert!(absorbed > 0, "{what}"),
            }
            if killed {
                continue;
            }
            assert_eq!(*same.get_or_insert(absorbed), absorbed, "{what}");
            assert!(absorbed <= successes, "{what}: only a SUCCESS absorbs");
            if id.channel == FaultChannel::Param && !id.all_params && id.family() == Family::Kernel
            {
                totals.absorbed_param_data += absorbed;
            }
            if id.timeline == Some("burst:4") {
                totals.absorbed_bursts += absorbed;
            }
        }
    }
    assert!(totals.variants > 0, "the plan holds rows here");
    totals
}

// ---- the suites ----

impl Identity {
    fn synthetic(&self) -> bool {
        self.app == App::Synthetic
    }

    fn kernel(&self) -> bool {
        matches!(self.app, App::Kernel(..))
    }

    /// Neither a timeline nor an ML loop: one fault channel, one transport.
    fn channel_row(&self) -> bool {
        self.timeline.is_none() && self.ml.is_none()
    }

    /// Faults a timer ends: the wire channel's held messages, fail-slow
    /// delays, and a burst's schedule.
    fn timer_faults(&self) -> bool {
        let timer = matches!(self.channel, FaultChannel::Message | FaultChannel::FailSlow);
        match self.timeline {
            Some(token) => token == "burst:4",
            None => timer && self.ml.is_none(),
        }
    }
}

impl Variant {
    fn coop(&self) -> bool {
        self.engine == Engine::Coop
    }

    fn in_process(&self) -> bool {
        self.path == Path::InProcess
    }

    fn killed(&self) -> bool {
        self.kill.is_some()
    }
}

/// One test's share of the plan: the suite (test binary) it is in, its
/// name, and which planned runs it holds. Shares overlap inside a suite,
/// which runs a planned run once however many of its tests pick it.
pub struct Slice {
    pub suite: &'static str,
    pub test: &'static str,
    select: fn(&Identity, &Variant) -> bool,
}

impl Slice {
    pub fn picks(&self, id: &Identity, v: &Variant) -> bool {
        (self.select)(id, v)
    }
}

/// Every suite's tests. A suite sticks to one part of the table where it
/// can, as each test binary makes its own references: the engine, width
/// and replay suites hold the synthetic rows, the absorption suite the
/// kernels in this process, `determinism` kill rows of both, and `serve`
/// and `fleet` the served rows' service paths.
pub fn slices() -> Vec<Slice> {
    let slice = |suite, test, select| Slice {
        suite,
        test,
        select,
    };
    vec![
        // The engine axis: coop runs against the threads reference.
        slice(
            "sched_equivalence",
            "all_channels_journal_byte_identical_across_engines",
            |id, v| id.synthetic() && id.channel_row() && v.coop() && !v.killed(),
        ),
        slice(
            "sched_equivalence",
            "timeline_journals_byte_identical_across_engines",
            |id, v| id.synthetic() && id.timeline.is_some() && v.coop() && !v.killed(),
        ),
        slice(
            "sched_equivalence",
            "timer_faults_journal_byte_identical_across_engines",
            |id, v| id.synthetic() && id.timer_faults() && v.coop() && !v.killed(),
        ),
        slice(
            "sched_equivalence",
            "coop_kill_resume_matches_uninterrupted_threaded_run",
            |id, v| id.synthetic() && v.coop() && v.killed(),
        ),
        // The width axis: a pipeline against one trial at a time.
        slice(
            "pipeline_equivalence",
            "all_channels_journal_byte_identical_across_widths",
            |id, v| id.synthetic() && id.channel_row() && v.width > 1 && !v.killed(),
        ),
        slice(
            "pipeline_equivalence",
            "timeline_journals_byte_identical_across_widths",
            |id, v| id.synthetic() && id.timeline.is_some() && v.width > 1 && !v.killed(),
        ),
        slice(
            "pipeline_equivalence",
            "ml_campaign_journals_byte_identical_across_widths",
            |id, v| id.synthetic() && id.ml.is_some() && v.width > 1 && !v.killed(),
        ),
        slice(
            "pipeline_equivalence",
            "trial_ranges_split_inside_a_point_merge_to_the_serial_journal",
            |id, v| id.synthetic() && v.split && !v.killed(),
        ),
        // The replay axis: prefix replay and absorption against neither.
        slice(
            "prefix_equivalence",
            "all_channels_journal_byte_identical_with_and_without_replay",
            |id, v| id.synthetic() && id.channel_row() && v.replay && !v.killed(),
        ),
        slice(
            "prefix_equivalence",
            "timelines_journal_byte_identical_with_and_without_replay",
            |id, v| id.synthetic() && id.timeline.is_some() && v.replay && !v.killed(),
        ),
        slice(
            "prefix_equivalence",
            "ml_campaigns_journal_byte_identical_with_and_without_replay",
            |id, v| id.synthetic() && id.ml.is_some() && v.replay && !v.killed(),
        ),
        slice(
            "prefix_equivalence",
            "trial_ranges_split_inside_a_point_merge_to_the_unreplayed_journal",
            |id, v| id.synthetic() && v.split && v.replay && !v.killed(),
        ),
        slice(
            "prefix_equivalence",
            "kill_resume_with_replay_matches_the_uninterrupted_unreplayed_run",
            |id, v| id.synthetic() && v.replay && v.killed(),
        ),
        // The kernels, where absorption has real programs to work on.
        slice(
            "absorb_equivalence",
            "seven_kernels_journal_byte_identical_on_every_channel_and_transport",
            |id, v| v.in_process() && id.kernel() && id.channel_row() && !v.killed(),
        ),
        slice(
            "absorb_equivalence",
            "timelines_journal_byte_identical_and_only_bursts_absorb",
            |id, v| v.in_process() && id.kernel() && id.timeline.is_some() && !v.killed(),
        ),
        slice(
            "absorb_equivalence",
            "ml_campaigns_journal_byte_identical_cold_and_warm",
            |id, v| v.in_process() && id.kernel() && id.ml.is_some() && !v.killed(),
        ),
        slice(
            "absorb_equivalence",
            "trial_ranges_split_inside_a_point_merge_to_the_unabsorbed_journal",
            |id, v| v.in_process() && id.kernel() && v.split && !v.killed(),
        ),
        slice(
            "absorb_equivalence",
            "crash_and_resume_matches_the_uninterrupted_unabsorbed_run",
            |id, v| {
                v.in_process() && id.kernel() && id.app != App::Kernel("MG", RANKS) && v.killed()
            },
        ),
        // The kill axis.
        slice(
            "determinism",
            "mg_campaign_killed_and_resumed_is_identical",
            |id, v| id.app == App::Kernel("MG", RANKS) && v.killed(),
        ),
        slice(
            "determinism",
            "message_channel_journals_byte_identical_across_kill_resume",
            |id, v| {
                id.synthetic()
                    && id.channel_row()
                    && id.channel == FaultChannel::Message
                    && v.killed()
            },
        ),
        slice(
            "determinism",
            "timeline_journals_byte_identical_across_kill_resume",
            |id, v| id.synthetic() && id.timeline.is_some() && v.killed(),
        ),
        // The service paths.
        slice(
            "serve",
            "concurrent_daemon_campaigns_journal_byte_identical_to_local_runs",
            |_, v| v.path == Path::Daemon && !v.killed(),
        ),
        slice(
            "serve",
            "daemon_stopped_mid_campaign_resumes_byte_identical_on_restart",
            |_, v| v.path == Path::Daemon && v.killed(),
        ),
        slice(
            "fleet",
            "fleet_campaign_merges_byte_identical_to_single_host",
            |id, v| v.path == Path::Fleet && id.channel_row() && id.channel == FaultChannel::Param,
        ),
        slice(
            "fleet",
            "fleet_range_shard_on_coop_matches_threaded_local_run",
            |id, v| v.path == Path::Fleet && id.channel_row() && id.channel != FaultChannel::Param,
        ),
        slice(
            "fleet",
            "fleet_timeline_campaign_merges_byte_identical_to_single_host",
            |id, v| v.path == Path::Fleet && id.timeline.is_some(),
        ),
    ]
}

/// Hold the planned runs that test `test` of suite `suite` picks, with no
/// other campaign running in the process.
pub fn hold_slice(suite: &str, test: &str) -> Totals {
    let _alone = alone();
    let slices = slices();
    let slice = slices
        .iter()
        .find(|s| (s.suite, s.test) == (suite, test))
        .unwrap_or_else(|| panic!("no slice of the plan is named {suite}::{test}"));
    hold(slice.select)
}
