//! fastfit-cli — run FastFIT campaigns on the built-in workloads from the
//! command line.
//!
//! ```text
//! fastfit-cli profile  --workload <IS|FT|MG|LU|CG|HALO|LAMMPS> [campaign flags]
//! fastfit-cli campaign --workload <...> [--trials N] [--params data|all|only:...]
//!                      [--ranks N] [--class C] [--seed N] [--app-seed N]
//!                      [--ml [--threshold 0.65]] [--csv DIR] [--store DIR]
//! fastfit-cli point    --workload <...> --site <file.rs:LINE> --param <p>
//!                      [--rank R] [--invocation I] [--trials N]
//! fastfit-cli status   <DIR>
//! fastfit-cli resume   <DIR> [--steps N] [--points P] [--threshold 0.65] [--csv DIR]
//! ```
//!
//! `profile` prints the communication profile and pruning inventory;
//! `campaign` runs the full injection study and prints the sensitivity
//! tables; `point` drills into one injection point. With `--store DIR`
//! the campaign journals every trial to a durable store directory;
//! `status` pretty-prints a store's live `status.json`, and `resume`
//! re-runs an interrupted campaign from its journal, replaying paid-for
//! trials instead of re-executing them.
//!
//! Every flag is a row of [`FLAGS`]. The campaign flags each set one key
//! of the [`CampaignSpec`] JSON that `submit` POSTs to the daemon, and the
//! CLI parses that document with the daemon's own parser, pins and
//! validates it as the daemon admits a submission, and resolves it through
//! the daemon's resolver: a campaign run here and the same spec submitted
//! there journal byte-identically. What the flags leave unset of ranks,
//! trials and problem class comes from `FASTFIT_RANKS`/`FASTFIT_TRIALS`/
//! `FASTFIT_CLASS` of whichever process pins the spec: this one for the
//! local verbs, the daemon for `submit`.

use fastfit::observe::NullObserver;
use fastfit::prelude::*;
use fastfit_mlstore::{ModelRegistry, MODELS_DIR};
use fastfit_scenario::{CostModel, Grammar};
use fastfit_serve::{
    http_request_retry, pin_spec, resolve_config, resolve_workload, run_worker, signal,
    validate_spec, CampaignRun, CampaignSpec, GoldenCostModel, Ran, ServeConfig, WorkerConfig,
    DEFAULT_ADDR,
};
use fastfit_store::json::Json;
use fastfit_store::telemetry::STATUS_FILE;
use fastfit_store::{read_store_meta, short_id, CampaignState, StatusSnapshot};
use simmpi::hook::{CallSite, ParamId};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Poll cadence for `status --watch` and `watch`.
const WATCH_POLL: Duration = Duration::from_millis(500);

/// How a flag takes its argument.
#[derive(Clone, Copy)]
enum Kind {
    /// On when given; a value after it is refused.
    Switch,
    /// One value, of the shape named (shown by `usage`).
    Value(&'static str),
}
use Kind::{Switch, Value};

/// One flag of the CLI.
struct Flag {
    name: &'static str,
    kind: Kind,
    /// The verbs that take it; any other refuses it.
    verbs: &'static [&'static str],
    /// For a campaign flag, the `CampaignSpec` JSON key it sets.
    key: Option<&'static str>,
    /// What it does, for `usage`.
    help: &'static str,
}

#[rustfmt::skip]
const fn flag(name: &'static str, kind: Kind, verbs: &'static [&'static str],
              key: Option<&'static str>, help: &'static str) -> Flag {
    Flag { name, kind, verbs, key, help }
}

/// The verbs that describe a campaign by its flags.
const SPEC: &[&str] = &["profile", "campaign", "point", "submit"];
/// Those and `resume`, which re-gives what a journal does not record.
const SPEC_RESUME: &[&str] = &["profile", "campaign", "point", "submit", "resume"];
/// The verbs that talk to a daemon (`serve` listens there).
const DAEMON: &[&str] = &[
    "serve", "worker", "fleet", "submit", "scenario", "watch", "cancel",
];

/// Every flag of every verb: what [`Flags::parse`] accepts, what
/// [`spec_json`] lowers to a campaign spec, and what [`usage`] lists.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag("workload", Value("IS|FT|MG|LU|CG|HALO|LAMMPS"), SPEC, Some("workload"), "the application"),
    flag("ranks", Value("N"), SPEC, Some("ranks"), "ranks per job (else FASTFIT_RANKS)"),
    flag("trials", Value("N"), SPEC, Some("trials"), "trials per injection point (else FASTFIT_TRIALS)"),
    flag("class", Value("mini|small|standard"), SPEC, Some("class"), "NPB problem class (else FASTFIT_CLASS)"),
    flag("params", Value("data|all|only:sendbuf+count"), SPEC, Some("params"), "the call parameters to inject into"),
    flag("fault-channel", Value("param|message|crash-stop|fail-slow|partition"), SPEC, Some("fault_channel"),
         "call parameters, wire messages, rank kill, rank delay or a network cut"),
    flag("resilient-transport", Switch, SPEC, Some("resilient"), "checksum/ack/retransmit recovery"),
    flag("seed", Value("N"), SPEC, Some("seed"), "fault-bit selection"),
    flag("app-seed", Value("N"), SPEC, Some("app_seed"), "the application's seed"),
    flag("steps", Value("N"), SPEC_RESUME, Some("steps"), "LAMMPS run length"),
    flag("points", Value("pruned|invocations"), SPEC_RESUME, Some("points"),
         "the pruned points, or every invocation on the representative ranks"),
    flag("colls", Value("MPI_Allreduce,MPI_Bcast,..."), SPEC, Some("colls"), "measure only these collectives"),
    flag("timeline", Value("single|burst:W[:G]|cascade:D|heal:D"), SPEC, Some("timeline"),
         "a correlated fault schedule (join with +); pins the channel to its first event's"),
    flag("ml", Switch, SPEC, Some("ml_threshold"), "measure through the ML feedback loop, predict the rest"),
    flag("threshold", Value("0.65"), SPEC_RESUME, None, "the ML loop's accuracy threshold (an ML campaign only)"),
    flag("warm-start", Value("MODEL-ID|auto"), SPEC, Some("warm_start"),
         "seed the ML loop from a registered model (auto: the newest compatible one)"),
    flag("csv", Value("DIR"), &["campaign", "resume"], None, "write the measured points as CSV"),
    flag("store", Value("DIR"), &["campaign"], None, "journal the campaign, for status and resume"),
    flag("registry", Value("DIR"), &["campaign", "resume"], None, "model registry (default <store>/models)"),
    flag("site", Value("FILE.rs:LINE"), &["point"], None, "the call site"),
    flag("param", Value("sendbuf|recvbuf|count|datatype|op|root|comm"), &["point"], None, "the parameter"),
    flag("rank", Value("R"), &["point"], None, "the injected rank (default the first representative)"),
    flag("invocation", Value("I"), &["point"], None, "the call site's invocation"),
    flag("addr", Value("HOST:PORT"), DAEMON, None, "the daemon's address"),
    flag("root", Value("DIR"), &["serve"], None, "the daemon's state directory"),
    flag("budget", Value("N"), &["serve"], None, "rank threads the daemon's campaigns share"),
    flag("max-campaigns", Value("K"), &["serve"], None, "campaigns running at once"),
    flag("fleet", Switch, &["serve"], None, "coordinate fleet workers"),
    flag("lease-trials", Value("N"), &["serve"], None, "trials per fleet lease"),
    flag("lease-ttl-ms", Value("MS"), &["serve"], None, "how long a silent worker keeps its lease"),
    flag("name", Value("NAME"), &["worker"], None, "the worker's name"),
    flag("grammar", Value("FILE"), &["scenario"], None, "the scenario grammar"),
    flag("max-cost", Value("N"), &["scenario"], None, "drop the scenarios that cost more"),
    flag("costs", Switch, &["scenario"], None, "price each scenario by a local golden run"),
    flag("submit", Switch, &["scenario"], None, "POST the grammar to the daemon"),
    flag("watch", Switch, &["status"], None, "redraw until the campaign stops running"),
];

/// Report a refused invocation and exit 2.
fn refuse(msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// Report a failure to do what the invocation asked and exit 1.
fn fail(msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(1)
}

/// The flags one invocation gave, by name: a value flag's value, `""` for
/// a switch.
struct Flags(HashMap<&'static str, String>);

impl Flags {
    /// The `--name [value]` arguments of `verb`. A flag the verb does not
    /// take, a switch given a value and a value flag given none each exit
    /// 2 naming the flag: a misspelt, retired or misread flag is refused
    /// instead of leaving its knob at the default.
    fn parse(verb: &str, args: &[String]) -> Flags {
        let mut given = HashMap::new();
        let mut args = args.iter().peekable();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                refuse(format!("unexpected argument {arg:?}"))
            };
            let Some(flag) = FLAGS
                .iter()
                .find(|f| f.name == name && f.verbs.contains(&verb))
            else {
                refuse(format!("{verb} takes no flag --{name}"))
            };
            let value = match (flag.kind, args.next_if(|v| !v.starts_with("--"))) {
                (Switch, None) => String::new(),
                (Value(_), Some(v)) => v.clone(),
                (Switch, Some(v)) => {
                    refuse(format!("--{name} is a switch and takes no value: {v:?}"))
                }
                (Value(shape), None) => refuse(format!("--{name} needs a value ({shape})")),
            };
            given.insert(flag.name, value);
        }
        Flags(given)
    }

    /// A value flag's value, if given.
    fn get(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }

    /// Whether a switch was given.
    fn on(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// A numeric flag, if given: an unparsable value is an error (exit 2),
    /// never a silent fall-back to the default.
    fn number<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.get(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| refuse(format!("bad --{name} value {v:?}")))
        })
    }
}

/// The head of [`usage`]: the verbs and what they act on.
const USAGE: &str = "usage: fastfit-cli <verb> [flags]
  profile|campaign|point|submit --workload W   a campaign, described by its flags
  status|resume|journal-sha DIR                a campaign store
  models DIR                                   a model registry (e.g. <store>/models)
  serve, worker, fleet                         the daemon, a fleet worker, the fleet's state
  watch|cancel ID                              a campaign on the daemon
  scenario --grammar FILE                      preview, price or submit a scenario sweep
flags (and the verbs that take them):";

fn usage() -> ! {
    eprintln!("{USAGE}");
    for f in FLAGS {
        let shape = match f.kind {
            Switch => String::new(),
            Value(shape) => format!(" {shape}"),
        };
        let verbs = f.verbs.join(" ");
        eprintln!("  --{}{shape}\n        {} [{verbs}]", f.name, f.help);
    }
    refuse(
        "env: FASTFIT_RANKS FASTFIT_TRIALS FASTFIT_CLASS (mini|small|standard) fill the\n\
         \x20    ranks/trials/class a campaign leaves unset; the journal records them, so\n\
         \x20    resume reads none (submit: the daemon's env fills them)\n\
         the campaign flags are checked as the daemon checks a submission: a value it\n\
         would answer with a 400, a number that does not parse, a flag the verb does\n\
         not take, a switch given a value, or a malformed FASTFIT_* value exits 2.",
    )
}

/// The campaign the flags describe, as the JSON document `POST /campaigns`
/// takes: each campaign flag given sets its key on `base` (none, or a
/// journal's spec for `resume`). Numbers are parsed here, so that a bad
/// one names its flag; every token is left to [`CampaignSpec::from_json`].
fn spec_json(flags: &Flags, base: Option<&CampaignSpec>) -> Json {
    let mut doc = match base.map(CampaignSpec::to_json) {
        Some(Json::Obj(doc)) => doc,
        _ => BTreeMap::new(),
    };
    for flag in FLAGS {
        let (Some(key), Some(value)) = (flag.key, flags.get(flag.name)) else {
            continue;
        };
        let json = match key {
            "ranks" | "trials" | "seed" | "app_seed" | "steps" => {
                Json::U64(flags.number(flag.name).expect("given"))
            }
            "resilient" => Json::Bool(true),
            "ml_threshold" => Json::F64(MlConfig::default().accuracy_threshold),
            "colls" => Json::Arr(
                value
                    .split(',')
                    .map(|n| Json::Str(n.trim().into()))
                    .collect(),
            ),
            _ => Json::Str(value.to_string()),
        };
        doc.insert(key.to_string(), json);
    }
    if let Some(t) = flags.number("threshold") {
        match doc.get_mut("ml_threshold") {
            Some(threshold) => *threshold = Json::F64(t),
            None => refuse("--threshold needs an ML campaign (--ml)"),
        }
    }
    Json::Obj(doc)
}

/// The spec the flags describe over `base`, parsed by the parser the
/// daemon's `POST /campaigns` runs: what it answers with a 400 exits 2
/// with the same message.
fn lower(flags: &Flags, base: Option<&CampaignSpec>) -> CampaignSpec {
    CampaignSpec::from_json(&spec_json(flags, base)).unwrap_or_else(|e| refuse(e))
}

/// A spec pinned against this process's environment and validated, as the
/// daemon admits a submission (a malformed `FASTFIT_*` value exits 2).
fn admit(spec: &CampaignSpec) -> CampaignSpec {
    let spec = pin_spec(spec).unwrap_or_else(|e| refuse(e));
    validate_spec(&spec).unwrap_or_else(|e| refuse(e));
    spec
}

/// Prepare the campaign an admitted spec describes.
fn prepare(spec: &CampaignSpec) -> Campaign {
    Campaign::prepare(resolve_workload(spec), resolve_config(spec))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((verb, rest)) = args.split_first() else {
        usage()
    };
    let verb = verb.as_str();
    // The verbs that name a directory or a campaign ID before any flag.
    let (arg, rest) = match verb {
        "status" | "resume" | "journal-sha" | "models" | "watch" | "cancel" => {
            match rest.split_first() {
                Some((arg, rest)) if !arg.starts_with("--") => (arg.as_str(), rest),
                _ => {
                    eprintln!("{verb} needs a directory or campaign ID");
                    usage()
                }
            }
        }
        "profile" | "campaign" | "point" | "serve" | "worker" | "fleet" | "submit" | "scenario" => {
            ("", rest)
        }
        _ => usage(),
    };
    let flags = Flags::parse(verb, rest);
    match verb {
        "profile" => cmd_profile(&flags),
        "campaign" => cmd_campaign(&flags),
        "point" => cmd_point(&flags),
        "serve" => cmd_serve(&flags),
        "worker" => cmd_worker(&flags),
        "fleet" => cmd_fleet(&flags),
        "submit" => cmd_submit(&flags),
        "scenario" => cmd_scenario(&flags),
        "journal-sha" => match fastfit_store::journal_content_sha(Path::new(arg)) {
            Ok(sha) => println!("{sha}"),
            Err(e) => fail(format!("cannot hash journal in {arg}: {e}")),
        },
        "models" => cmd_models(Path::new(arg)),
        "status" => cmd_status(Path::new(arg), flags.on("watch")),
        "resume" => cmd_resume(Path::new(arg), &flags),
        "watch" => cmd_watch(arg, &flags),
        "cancel" => cmd_cancel(arg, &flags),
        _ => unreachable!("an unknown verb got usage"),
    }
}

/// The daemon address for the client verbs: `--addr` or the default.
fn serve_addr(flags: &Flags) -> String {
    flags.get("addr").unwrap_or(DEFAULT_ADDR).to_string()
}

/// Retry attempts for client verbs: with the jittered backoff in
/// [`http_request_retry`] this rides out a daemon restart of a few
/// seconds instead of failing on the first connection-refused.
const CLIENT_ATTEMPTS: u32 = 6;

fn request_or_die(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<(&str, &str)>,
) -> fastfit_serve::Response {
    http_request_retry(addr, method, path, body, CLIENT_ATTEMPTS)
        .unwrap_or_else(|e| fail(format!("cannot reach fastfit-cli serve at {addr}: {e}")))
}

/// `fastfit-cli serve` — run the campaign service in the foreground until
/// SIGINT/SIGTERM.
fn cmd_serve(flags: &Flags) {
    let mut cfg = ServeConfig::new(flags.get("root").unwrap_or("fastfit-serve"));
    if let Some(a) = flags.get("addr") {
        cfg.addr = a.to_string();
    }
    if let Some(b) = flags.number("budget") {
        cfg.worker_budget = b;
    }
    if let Some(k) = flags.number("max-campaigns") {
        cfg.max_campaigns = k;
    }
    cfg.fleet = flags.on("fleet");
    if let Some(n) = flags.number("lease-trials") {
        cfg.lease_trials = n;
    }
    if let Some(ms) = flags.number("lease-ttl-ms") {
        cfg.lease_ttl = Duration::from_millis(ms);
    }
    if cfg.worker_budget == 0 || cfg.max_campaigns == 0 {
        refuse("--budget and --max-campaigns must be at least 1");
    }
    if cfg.fleet && (cfg.lease_trials == 0 || cfg.lease_ttl.is_zero()) {
        refuse("--lease-trials and --lease-ttl-ms must be at least 1");
    }
    signal::install_shutdown_handler();
    let handle = fastfit_serve::start(cfg.clone())
        .unwrap_or_else(|e| fail(format!("cannot start fastfit-cli serve: {e}")));
    println!(
        "fastfit-cli serve listening on {} (root {}, budget {}, max {} concurrent campaigns{})",
        handle.addr(),
        cfg.root.display(),
        cfg.worker_budget,
        cfg.max_campaigns,
        if cfg.fleet { ", fleet coordinator" } else { "" }
    );
    while !signal::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("shutdown signal received, checkpointing running campaigns");
    handle.shutdown();
    std::process::exit(130);
}

/// `fastfit-cli worker` — join a fleet coordinator and execute leased
/// trial ranges until SIGINT/SIGTERM.
fn cmd_worker(flags: &Flags) {
    let addr = serve_addr(flags);
    let name = flags
        .get("name")
        .map_or_else(|| format!("worker-{}", std::process::id()), String::from);
    signal::install_shutdown_handler();
    let cfg = WorkerConfig::new(addr, name);
    match run_worker(&cfg, &signal::shutdown_requested) {
        Ok(leases) => {
            eprintln!("fastfit-worker: stopping after {leases} completed lease(s)");
            std::process::exit(130);
        }
        Err(e) => fail(format!("fastfit-worker: {e}")),
    }
}

/// `fastfit-cli fleet` — show the coordinator's worker/lease/coverage
/// state.
fn cmd_fleet(flags: &Flags) {
    let addr = serve_addr(flags);
    let r = request_or_die(&addr, "GET", "/fleet/status", None);
    if r.status != 200 {
        fail(format!(
            "fleet status failed ({}): {}",
            r.status,
            r.body.trim()
        ));
    }
    let v = Json::parse(&r.body).unwrap_or(Json::Null);
    let enabled = v.get("fleet").and_then(Json::as_bool).unwrap_or(false);
    println!(
        "fleet mode: {}",
        if enabled { "coordinator" } else { "off" }
    );
    let workers = v.get("workers").and_then(Json::as_arr).unwrap_or(&[]);
    println!("workers ({}):", workers.len());
    for w in workers {
        println!(
            "  {}  {}  {}",
            w.get("id").and_then(Json::as_str).unwrap_or("?"),
            w.get("name").and_then(Json::as_str).unwrap_or("?"),
            if w.get("alive").and_then(Json::as_bool).unwrap_or(false) {
                "alive"
            } else {
                "silent"
            }
        );
    }
    let leases = v.get("leases").and_then(Json::as_arr).unwrap_or(&[]);
    println!("active leases ({}):", leases.len());
    for l in leases {
        let start = l.get("start").and_then(Json::as_u64).unwrap_or(0);
        let len = l.get("len").and_then(Json::as_u64).unwrap_or(0);
        println!(
            "  {}  {}  trials {}..{}  worker {}  expires in {} ms",
            l.get("id").and_then(Json::as_str).unwrap_or("?"),
            l.get("campaign").and_then(Json::as_str).unwrap_or("?"),
            start,
            start + len,
            l.get("worker").and_then(Json::as_str).unwrap_or("?"),
            l.get("expires_ms").and_then(Json::as_u64).unwrap_or(0),
        );
    }
    let campaigns = v.get("campaigns").and_then(Json::as_arr).unwrap_or(&[]);
    println!("campaigns leasing ({}):", campaigns.len());
    for c in campaigns {
        println!(
            "  {}  {}/{} trials covered, {} range(s) pending, {} lease(s) out",
            c.get("id").and_then(Json::as_str).unwrap_or("?"),
            c.get("covered").and_then(Json::as_u64).unwrap_or(0),
            c.get("total").and_then(Json::as_u64).unwrap_or(0),
            c.get("pending_ranges").and_then(Json::as_u64).unwrap_or(0),
            c.get("leases").and_then(Json::as_u64).unwrap_or(0),
        );
    }
}

/// `fastfit-cli submit` — build a campaign spec from the same flags the
/// `campaign` verb takes and POST it to the daemon.
fn cmd_submit(flags: &Flags) {
    let spec = lower(flags, None);
    validate_spec(&spec).unwrap_or_else(|e| refuse(e));
    let addr = serve_addr(flags);
    let body = spec.to_json().encode();
    let r = request_or_die(
        &addr,
        "POST",
        "/campaigns",
        Some(("application/json", &body)),
    );
    if r.status != 201 {
        fail(format!(
            "submission rejected ({}): {}",
            r.status,
            r.body.trim()
        ));
    }
    let id = Json::parse(&r.body)
        .ok()
        .and_then(|v| v.get("id").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_else(|| {
            fail(format!(
                "daemon returned an unreadable submission receipt: {}",
                r.body
            ))
        });
    println!("submitted campaign {id} to {addr}");
    println!("follow it with: fastfit-cli watch {id} --addr {addr}");
}

/// `fastfit-cli scenario` — expand a scenario grammar: preview the cross
/// product (optionally priced by local golden runs), and with `--submit`
/// POST the grammar to the daemon's `/scenarios` endpoint, which expands
/// it server-side into one durable queue entry per campaign.
fn cmd_scenario(flags: &Flags) {
    let path = flags.get("grammar").unwrap_or_else(|| usage());
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format!("cannot read grammar {path}: {e}")));
    let mut grammar =
        Grammar::parse(&text).unwrap_or_else(|e| refuse(format!("bad grammar {path}: {e}")));
    let cli_max_cost = flags.number("max-cost");
    if cli_max_cost.is_some() {
        grammar.max_cost = cli_max_cost;
    }
    let scenarios = grammar
        .expand()
        .unwrap_or_else(|e| refuse(format!("grammar {path} does not enumerate: {e}")));
    println!(
        "scenario sweep {:?}: {} scenarios",
        grammar.template.name,
        scenarios.len()
    );
    // Price the sweep locally (golden-run profiles) when a budget is in
    // play or an explicit preview was asked for.
    let priced = grammar.max_cost.is_some() || flags.on("costs");
    if priced {
        let model = GoldenCostModel::new();
        let mut kept = 0;
        for s in &scenarios {
            match model.predicted_cost(s) {
                Ok(cost) => {
                    let over = grammar.max_cost.is_some_and(|m| cost > m);
                    kept += usize::from(!over);
                    println!(
                        "  {:<44} cost {:>10}{}",
                        s.label(),
                        cost,
                        if over { "  (over budget: dropped)" } else { "" }
                    );
                }
                Err(e) => fail(format!("cannot price scenario {}: {e}", s.label())),
            }
        }
        if let Some(max) = grammar.max_cost {
            println!(
                "kept {kept} of {} scenarios under max_cost {max}",
                scenarios.len()
            );
        }
    } else {
        for s in &scenarios {
            println!("  {}", s.label());
        }
    }
    if !flags.on("submit") {
        return;
    }
    // Ship the grammar itself (with any --max-cost override patched in):
    // the daemon re-expands and cost-filters server-side, so what is
    // journaled is exactly what its own model accepted.
    let body = match cli_max_cost {
        None => text,
        Some(m) => {
            let mut v = Json::parse(&text).expect("grammar parsed above");
            if let Json::Obj(map) = &mut v {
                map.insert("max_cost".into(), Json::U64(m));
            }
            v.encode()
        }
    };
    let addr = serve_addr(flags);
    let r = request_or_die(
        &addr,
        "POST",
        "/scenarios",
        Some(("application/json", &body)),
    );
    if r.status != 201 {
        fail(format!(
            "scenario rejected ({}): {}",
            r.status,
            r.body.trim()
        ));
    }
    let receipt = Json::parse(&r.body).unwrap_or(Json::Null);
    let sid = receipt
        .get("id")
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_string();
    let count = receipt.get("count").and_then(Json::as_u64).unwrap_or(0);
    let dropped = receipt.get("dropped").and_then(Json::as_u64).unwrap_or(0);
    println!("submitted scenario {sid} to {addr}: {count} campaigns ({dropped} dropped by cost)");
    if let Some(Json::Arr(ids)) = receipt.get("campaigns") {
        for id in ids.iter().filter_map(Json::as_str) {
            println!("  campaign {id}");
        }
    }
    println!("aggregate status: GET http://{addr}/scenarios/{sid}/status");
}

/// The lifecycle state of a status body (full snapshot or minimal form).
fn status_state(body: &str) -> Option<CampaignState> {
    let v = Json::parse(body).ok()?;
    CampaignState::from_name(v.get("state")?.as_str()?)
}

/// Redraw a single-screen status view (shared by `watch` and
/// `status --watch`).
fn render_status_screen(header: &str, body: &str) {
    println!("\x1b[2J\x1b[H{header}");
    match Json::parse(body)
        .ok()
        .and_then(|v| StatusSnapshot::from_json(&v).ok())
    {
        Some(s) => print!("{}", s.render()),
        None => println!(
            "state: {}",
            status_state(body).map_or("?", CampaignState::name)
        ),
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
}

/// `fastfit-cli watch` — poll the daemon for a campaign's status until it
/// reaches a terminal state.
fn cmd_watch(id: &str, flags: &Flags) {
    let addr = serve_addr(flags);
    let mut last = String::new();
    loop {
        let r = request_or_die(&addr, "GET", &format!("/campaigns/{id}/status"), None);
        if r.status != 200 {
            fail(format!(
                "status of {id} unavailable ({}): {}",
                r.status,
                r.body.trim()
            ));
        }
        if r.body != last {
            render_status_screen(&format!("campaign {id} @ {addr}"), &r.body);
            last = r.body.clone();
        }
        match status_state(&r.body) {
            Some(CampaignState::Done) => return,
            Some(state) if state.is_terminal() => std::process::exit(1),
            _ => std::thread::sleep(WATCH_POLL),
        }
    }
}

/// `fastfit-cli cancel` — ask the daemon to stop a campaign.
fn cmd_cancel(id: &str, flags: &Flags) {
    let addr = serve_addr(flags);
    let r = request_or_die(&addr, "DELETE", &format!("/campaigns/{id}"), None);
    match r.status {
        200 => println!("campaign {id} cancelled (was still queued)"),
        202 => println!("campaign {id} cancelling at the next trial boundary"),
        s => fail(format!("cancel failed ({s}): {}", r.body.trim())),
    }
}

fn cmd_profile(flags: &Flags) {
    let c = prepare(&admit(&lower(flags, None)));
    print!("{}", mpiprof::communication_report(&c.profile));
    println!(
        "\nrank equivalence classes: {:?}\nfull injection space: {} points; after semantic+context pruning: {} ({:.2}% reduction)",
        c.semantic.classes,
        c.full_points,
        c.points().len(),
        100.0 * c.total_reduction()
    );
    println!("golden run of {}: {:?}", c.workload.name, c.golden_wall);
    println!("{}", fastfit::report::replay_summary(&c));
}

/// The model registry for this invocation: `--registry DIR` beats the
/// campaign store's own `models/` subdirectory; `None` when the campaign
/// runs storeless and no registry was named (models are then neither
/// looked up nor saved).
fn registry_for(flags: &Flags, store: Option<&Path>) -> Option<ModelRegistry> {
    let dir = flags
        .get("registry")
        .map(PathBuf::from)
        .or_else(|| store.map(|d| d.join(MODELS_DIR)))?;
    match ModelRegistry::open(&dir) {
        Ok(r) => Some(r),
        Err(e) => fail(format!(
            "cannot open model registry {}: {}",
            dir.display(),
            e
        )),
    }
}

/// Run the campaign `spec` describes to completion and print its tables:
/// journaled to `dir` when given, through the ML feedback loop when the
/// spec is ML-driven. One body serves `campaign` and `resume`.
fn run_campaign(spec: &CampaignSpec, flags: &Flags, dir: Option<&Path>) {
    let c = prepare(spec);
    println!(
        "{}: {} -> {} injection points ({:.2}% pruned), {} trials/point",
        c.workload.name,
        c.full_points,
        c.points().len(),
        100.0 * c.total_reduction(),
        c.cfg.trials_per_point
    );
    // Ctrl-C / SIGTERM stop the campaign at the next trial boundary; with
    // a store present the journal is checkpointed for a later resume.
    signal::install_shutdown_handler();
    signal::cancel_on_shutdown(c.cancel_token());
    let registry = spec.ml_threshold.and_then(|_| registry_for(flags, dir));
    if spec.warm_start.is_some() && registry.is_none() {
        refuse("--warm-start needs --store or --registry (somewhere to look models up)");
    }
    let run = CampaignRun::open(&c, spec, dir, registry.as_ref()).unwrap_or_else(|e| fail(e));
    if let Some(model) = &run.prior {
        println!(
            "warm start: model {} ({} on the {} channel{})",
            short_id(&model.id()),
            model.workload,
            model.channel,
            model
                .forest
                .oob_accuracy()
                .map(|o| format!(", oob {:.1}%", 100.0 * o))
                .unwrap_or_default()
        );
    }
    if let Some(store) = &run.store {
        println!(
            "store {} (campaign {}): {} journaled trials to replay",
            store.dir().display(),
            short_id(store.id()),
            store.replayable_trials()
        );
    }
    let ran = match run.measure(&NullObserver) {
        Ok(ran) => ran,
        Err(e) => return eprintln!("warning: {e}"),
    };
    let (Ran::Done { result, ml } | Ran::Stopped { result, ml }) = &ran;
    let csv = flags.get("csv").map(String::from);
    match (&run.ml, ml) {
        (Some((target, ml_cfg)), Some(out)) => {
            report_ml(&c, &run.points, *target, ml_cfg, result, out, &csv)
        }
        _ => report_plain(&c, result, &csv),
    }
    if let Ran::Stopped { .. } = ran {
        // A shutdown signal stopped the campaign mid-run: checkpoint the
        // journal and exit 130 like any interrupted foreground process.
        match &run.store {
            Some(s) => match s.checkpoint(CampaignState::Interrupted) {
                Ok(()) => eprintln!(
                    "interrupted: journal checkpointed; resume with `fastfit-cli resume {}`",
                    s.dir().display()
                ),
                Err(e) => eprintln!("warning: interrupt checkpoint failed: {e}"),
            },
            None => eprintln!("interrupted (no --store: partial measurements are discarded)"),
        }
        std::process::exit(130);
    }
    if let Some(store) = &run.store {
        println!("campaign state saved to {}", store.dir().display());
    }
}

/// The sensitivity tables of a plain campaign.
fn report_plain(c: &Campaign, r: &CampaignResult, csv: &Option<String>) {
    let by_kind = per_kind_histograms(&r.results);
    let rows: Vec<(&str, &ResponseHistogram)> =
        by_kind.iter().map(|(k, h)| (k.name(), h)).collect();
    println!(
        "{}",
        render_histogram_table("per-collective responses", &rows)
    );
    let levels = per_kind_levels(&r.results);
    println!(
        "{}",
        render_level_table("per-collective error-rate levels", &levels)
    );
    println!("{}", fastfit::report::campaign_summary(c, r));
    maybe_write(
        csv,
        "cli_points.csv",
        &points_csv(&r.results, c.cfg.fault_channel),
    );
}

/// What the ML feedback loop measured, predicted and saved.
fn report_ml(
    c: &Campaign,
    points: &[InjectionPoint],
    target: MlTarget,
    ml_cfg: &MlConfig,
    r: &CampaignResult,
    out: &MlOutcome,
    csv: &Option<String>,
) {
    println!(
        "ML feedback loop: measured {} of {} points in {} rounds (accuracy {:.1}%, threshold {:.0}%); {:.1}% of tests saved",
        out.measured.len(),
        points.len(),
        out.rounds,
        100.0 * out.final_accuracy,
        100.0 * ml_cfg.accuracy_threshold,
        100.0 * out.tests_saved
    );
    println!("{}", fastfit::report::replay_summary(c));
    let names: Vec<String> = match target {
        MlTarget::ErrorType => ALL_RESPONSES.iter().map(|r| r.name().to_string()).collect(),
        MlTarget::RateLevels(k) => Levels::even(k).names(),
    };
    for (idx, label) in out.predicted.iter().take(10) {
        println!(
            "  predicted {:<8} {} {} inv{}",
            names[*label],
            points[*idx].kind.name(),
            points[*idx].site,
            points[*idx].invocation
        );
    }
    maybe_write(
        csv,
        "cli_measured.csv",
        &points_csv(&r.results, c.cfg.fault_channel),
    );
}

fn cmd_campaign(flags: &Flags) {
    let store = flags.get("store").map(Path::new);
    run_campaign(&admit(&lower(flags, None)), flags, store);
}

fn cmd_status(dir: &Path, watch: bool) {
    match read_store_meta(dir) {
        Ok((id, meta)) => {
            println!(
                "store {}\ncampaign {} — workload {}{}, {} ranks, {} points × {} trials, params {}, channel {}{}{}{}",
                dir.display(),
                short_id(&id),
                meta.workload,
                meta.class
                    .as_ref()
                    .map(|c| format!(" (class {c})"))
                    .unwrap_or_default(),
                meta.nranks,
                meta.point_keys.len(),
                meta.trials_per_point,
                meta.params,
                meta.fault_channel.token(),
                if meta.timeline.is_single() {
                    String::new()
                } else {
                    format!(", timeline {}", meta.timeline.token())
                },
                if meta.resilient {
                    " (resilient transport)"
                } else {
                    ""
                },
                meta.ml
                    .as_ref()
                    .map(|m| {
                        format!(
                            ", ml target {}{}{}",
                            m.target,
                            m.warm
                                .as_ref()
                                .map(|w| format!(", warm-started from {}", short_id(w)))
                                .unwrap_or_default(),
                            m.order
                                .as_ref()
                                .map(|o| format!(", {o} order"))
                                .unwrap_or_default()
                        )
                    })
                    .unwrap_or_default()
            );
        }
        Err(e) => fail(format!("cannot read journal in {}: {}", dir.display(), e)),
    }
    if !watch {
        match StatusSnapshot::read_from(dir) {
            Ok(s) => print!("{}", s.render()),
            Err(e) => println!("no readable status.json yet ({})", e),
        }
        return;
    }
    // --watch: re-render on every status.json mtime change, single-screen
    // refresh, until the campaign reaches a terminal state.
    let path = dir.join(STATUS_FILE);
    let header = format!("store {}", dir.display());
    let mut last_mtime = None;
    loop {
        let mtime = std::fs::metadata(&path)
            .ok()
            .and_then(|m| m.modified().ok());
        if mtime != last_mtime {
            last_mtime = mtime;
            match std::fs::read_to_string(&path) {
                Ok(body) => {
                    render_status_screen(&header, &body);
                    if status_state(&body).is_none_or(CampaignState::is_terminal) {
                        return;
                    }
                }
                Err(e) => println!("no readable status.json yet ({e})"),
            }
        }
        std::thread::sleep(WATCH_POLL);
    }
}

/// Rebuild the campaign a store directory belongs to and run it to
/// completion. The journal's metadata becomes the campaign's spec
/// ([`CampaignSpec::from_meta`]), the flags are lowered onto it as onto an
/// empty one, and it resolves like any other; LAMMPS run length
/// (`--steps`), the point set (`--points`) and the ML threshold
/// (`--threshold`) must be re-given when they differed from the defaults —
/// a wrong value is caught by the campaign-ID check, not silently
/// mismeasured.
fn cmd_resume(dir: &Path, flags: &Flags) {
    let (id, meta) = read_store_meta(dir)
        .unwrap_or_else(|e| fail(format!("cannot read journal in {}: {}", dir.display(), e)));
    println!(
        "resuming campaign {} — workload {}, {} points × {} trials",
        short_id(&id),
        meta.workload,
        meta.point_keys.len(),
        meta.trials_per_point
    );
    let journaled = CampaignSpec::from_meta(&meta).unwrap_or_else(|e| fail(e));
    run_campaign(&admit(&lower(flags, Some(&journaled))), flags, Some(dir));
}

/// `fastfit-cli models <DIR>` — list the registered sensitivity models in
/// a registry directory, newest last (registration order).
fn cmd_models(dir: &Path) {
    let reg = ModelRegistry::open(dir).unwrap_or_else(|e| {
        fail(format!(
            "cannot open model registry {}: {}",
            dir.display(),
            e
        ))
    });
    let entries = reg.list().unwrap_or_else(|e| {
        fail(format!(
            "cannot read model registry {}: {}",
            dir.display(),
            e
        ))
    });
    if entries.is_empty() {
        println!("no models registered in {}", dir.display());
        return;
    }
    println!(
        "{:<16} {:<8} {:<11} {:<9} {:<14} {:>6}",
        "id", "workload", "channel", "transport", "target", "oob"
    );
    for e in &entries {
        println!(
            "{:<16} {:<8} {:<11} {:<9} {:<14} {:>6}",
            short_id(&e.id),
            e.workload,
            e.channel,
            e.transport,
            e.target,
            e.oob
                .map(|o| format!("{:.1}%", 100.0 * o))
                .unwrap_or_else(|| "-".into())
        );
    }
    println!(
        "{} model(s); warm-start with --warm-start <id|auto>",
        entries.len()
    );
}

fn cmd_point(flags: &Flags) {
    let spec = admit(&lower(flags, None));
    let rank: Option<usize> = flags.number("rank");
    let invocation = flags.number("invocation").unwrap_or(0);
    let param = match flags.get("param") {
        None => ParamId::SendBuf,
        Some(name) => ParamId::from_name(name)
            .unwrap_or_else(|| refuse(format!("unknown parameter {name:?}"))),
    };
    let site_arg = flags.get("site").unwrap_or_else(|| usage());
    let (file_part, line_part) = site_arg.rsplit_once(':').unwrap_or_else(|| usage());
    let line: u32 = line_part.parse().unwrap_or_else(|_| usage());
    let c = prepare(&spec);
    let site: CallSite = c
        .profile
        .sites()
        .into_iter()
        .find(|s| s.line == line && s.file.ends_with(file_part))
        .unwrap_or_else(|| {
            eprintln!("site {site_arg} not found; known sites:");
            for s in c.profile.sites() {
                eprintln!("  {}", s);
            }
            std::process::exit(2);
        });
    let rank = rank.unwrap_or(c.semantic.representatives[0]);
    let kind = c
        .profile
        .site_records(rank, site)
        .first()
        .map(|r| r.kind)
        .unwrap_or_else(|| refuse(format!("no records for site {site} on rank {rank}")));
    let point = InjectionPoint {
        site,
        kind,
        rank,
        invocation,
        param,
    };
    let pr = c.measure_point(&point, c.cfg.trials_per_point, 0xD01, &NullObserver);
    println!(
        "{} {} {} rank{} inv{}: {} trials, fault fired in {}",
        kind.name(),
        site,
        param.name(),
        rank,
        invocation,
        pr.hist.total(),
        pr.fired
    );
    println!("{}", fastfit::report::histogram_row(&pr.hist));
    if pr.quarantined > 0 {
        println!(
            "{} trial(s) quarantined (infrastructure-suspect; excluded from the histogram)",
            pr.quarantined
        );
    }
    if pr.retransmits > 0 {
        println!(
            "resilient transport recovered {} delivery/deliveries by retransmit",
            pr.retransmits
        );
    }
    let errors = pr.hist.total() - pr.hist.count(Response::Success);
    let (lo, hi) = wilson_95(errors, pr.hist.total());
    println!(
        "error rate {:.1}% (95% interval [{:.1}%, {:.1}%])",
        100.0 * pr.error_rate(),
        100.0 * lo,
        100.0 * hi
    );
    if let Some(remote) = pr.remote_detection_fraction() {
        println!(
            "fatal events detected on the injected rank {:.0}% of the time, remotely {:.0}%",
            100.0 * (1.0 - remote),
            100.0 * remote
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every spec field is set by exactly one flag, and no flag sets a key
    /// the spec does not have.
    #[test]
    fn every_spec_field_has_one_flag() {
        for field in CampaignSpec::FIELDS {
            let rows: Vec<&str> = FLAGS
                .iter()
                .filter(|f| f.key == Some(field))
                .map(|f| f.name)
                .collect();
            assert_eq!(rows.len(), 1, "{field} is set by {rows:?}");
        }
        for f in FLAGS.iter().filter(|f| f.key.is_some()) {
            assert!(
                CampaignSpec::FIELDS.contains(&f.key.unwrap()),
                "--{}",
                f.name
            );
            assert_eq!(
                f.verbs[..SPEC.len()],
                *SPEC,
                "--{} is a campaign flag",
                f.name
            );
        }
    }

    /// A flag has one row: its verbs, key and help are in one place.
    #[test]
    fn each_flag_has_one_row() {
        for (i, f) in FLAGS.iter().enumerate() {
            let twin = FLAGS[..i].iter().any(|g| g.name == f.name);
            assert!(!twin, "--{} has two rows", f.name);
        }
    }
}
