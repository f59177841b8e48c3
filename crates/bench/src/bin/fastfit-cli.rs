//! fastfit-cli — run FastFIT campaigns on the built-in workloads from the
//! command line.
//!
//! ```text
//! fastfit-cli profile  --workload <IS|FT|MG|LU|CG|HALO|LAMMPS>
//! fastfit-cli campaign --workload <...> [--trials N] [--params data|all]
//!                      [--ranks N] [--ml [--threshold 0.65]] [--csv DIR]
//!                      [--store DIR] [--timeline single|burst:W[:G]|cascade:D|heal:D|...]
//! fastfit-cli point    --workload <...> --site <file.rs:LINE> --param <p>
//!                      [--rank R] [--invocation I] [--trials N]
//! fastfit-cli status   <DIR>
//! fastfit-cli resume   <DIR> [--steps N] [--threshold 0.65] [--csv DIR]
//! ```
//!
//! `profile` prints the communication profile and pruning inventory;
//! `campaign` runs the full injection study and prints the sensitivity
//! tables; `point` drills into one injection point. With `--store DIR`
//! (or `FASTFIT_STORE_DIR` set) the campaign journals every trial to a
//! durable store directory; `status` pretty-prints a store's live
//! `status.json`, and `resume` re-runs an interrupted campaign from its
//! journal, replaying paid-for trials instead of re-executing them.

use fastfit::observe::ProgressEvent;
use fastfit::prelude::*;
use fastfit_bench::{lammps_workload, npb_workload};
use fastfit_mlstore::{schema_hash, ModelRegistry, StoredModel, MODELS_DIR};
use fastfit_scenario::{filter_by_cost, CostModel, Grammar};
use fastfit_serve::{
    http_request_retry, run_worker, signal, validate_spec, CampaignSpec, GoldenCostModel,
    ServeConfig, WorkerConfig, DEFAULT_ADDR,
};
use fastfit_store::json::Json;
use fastfit_store::telemetry::STATUS_FILE;
use fastfit_store::{
    campaign_meta_ml, ml_target_token, read_store_meta, CampaignState, CampaignStore, MlIdentity,
    StatusSnapshot,
};
use randomforest::RandomForest;
use simmpi::hook::{CallSite, CollKind, ParamId};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Poll cadence for `status --watch` and `watch`.
const WATCH_POLL: Duration = Duration::from_millis(500);

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            let value = if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                i += 1;
                args[i].clone()
            } else {
                "true".to_string()
            };
            map.insert(key.to_string(), value);
        } else {
            eprintln!("unexpected argument {:?}", args[i]);
            std::process::exit(2);
        }
        i += 1;
    }
    map
}

fn usage() -> ! {
    eprintln!(
        "usage: fastfit-cli <profile|campaign|point> --workload <IS|FT|MG|LU|CG|HALO|LAMMPS> [flags]\n\
         \x20      fastfit-cli status <DIR> [--watch]\n\
         \x20      fastfit-cli resume <DIR> [--steps N] [--threshold 0.65] [--csv DIR]\n\
         \x20      fastfit-cli serve  [--addr HOST:PORT] [--root DIR] [--budget N] [--max-campaigns K]\n\
         \x20                         [--fleet [--lease-trials N] [--lease-ttl-ms MS]]\n\
         \x20      fastfit-cli worker [--addr HOST:PORT] [--name NAME]\n\
         \x20      fastfit-cli fleet  [--addr HOST:PORT]\n\
         \x20      fastfit-cli journal-sha <DIR>\n\
         \x20      fastfit-cli models <REGISTRY-DIR> (e.g. <store>/models)\n\
         \x20      fastfit-cli submit --workload <...> [campaign flags] [--seed N] [--app-seed N] [--addr HOST:PORT]\n\
         \x20      fastfit-cli watch  <ID> [--addr HOST:PORT]\n\
         \x20      fastfit-cli cancel <ID> [--addr HOST:PORT]\n\
         \x20      fastfit-cli scenario --grammar FILE [--max-cost N] [--costs]\n\
         \x20                           [--submit [--addr HOST:PORT]]\n\
         flags: --trials N  --params data|all  --ranks N  --ml  --threshold 0.65\n\
         \x20      --csv DIR  --store DIR (or FASTFIT_STORE_DIR)\n\
                --warm-start <model-id|auto> (seed the ML loop from a\n\
                \x20 registered model; auto picks the newest compatible one)\n\
                --ml-order scan|entropy (pending-point order; warm loops\n\
                \x20 default to entropy, cold loops to scan)\n\
                --registry DIR (model registry; default <store>/models)\n\
                --fault-channel param|message|crash-stop|fail-slow|partition\n\
                \x20 (call parameters, wire messages, rank kill, rank delay,\n\
                \x20  or a network cut between two rank groups)\n\
                --colls MPI_Allreduce,MPI_Bcast,... (measure only these kinds)\n\
                --timeline single|burst:W[:G]|cascade:D|heal:D (join with +)\n\
                \x20 (correlated fault schedule anchored at the injection\n\
                \x20  point; pins the fault channel to the schedule's first\n\
                \x20  event)\n\
                --resilient-transport (checksum/ack/retransmit recovery)\n\
                --max-retries N (suspect-trial retries before quarantine)\n\
                --op-budget-mult N (INF_LOOP op budget, × golden op count)\n\
                --site file.rs:LINE  --param sendbuf|recvbuf|count|datatype|op|root|comm\n\
                --rank R  --invocation I  --steps N (LAMMPS run length)\n\
         env:   FASTFIT_TIMEOUT_MULT (wall backstop = golden wall x this; default 30)\n\
                FASTFIT_MAX_RETRIES  FASTFIT_RANKS  FASTFIT_STORE_DIR\n\
                FASTFIT_FAULT_CHANNEL  FASTFIT_RESILIENT  FASTFIT_TIMELINE\n\
         --workload, --ranks and --trials are checked as the daemon checks a submission;\n\
         a value it would answer with a 400 (or one that does not parse) exits 2."
    );
    std::process::exit(2)
}

/// A numeric flag, if given: an unparsable value is an error (exit 2),
/// never a silent fall-back to the default.
fn parse_flag<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str) -> Option<T> {
    flags.get(key).map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("bad --{key} value {v:?}");
            std::process::exit(2);
        })
    })
}

/// Build the workload the identity flags name. They are first held, as
/// the submission document the daemon would get, to the daemon's own
/// admission check: what `POST /campaigns` answers with a 400,
/// `profile`/`campaign`/`point` refuse with exit 2 and the same message.
fn build_workload(flags: &HashMap<String, String>) -> Workload {
    let mut spec = CampaignSpec::new(flags.get("workload").cloned().unwrap_or_else(|| usage()));
    spec.ranks = parse_flag(flags, "ranks");
    spec.trials = parse_flag(flags, "trials");
    if let Err(e) = validate_spec(&spec) {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let mut w = if spec.workload.eq_ignore_ascii_case("lammps") {
        let steps = flags
            .get("steps")
            .and_then(|s| s.parse().ok())
            .unwrap_or(10);
        lammps_workload(steps)
    } else {
        npb_workload(&spec.workload)
    };
    if let Some(r) = spec.ranks {
        w.nranks = r;
    }
    w
}

/// Trial-supervision knobs shared by `campaign`, `point` and `resume`.
/// These shape *how* trials execute, not *which* trials run, so they are
/// not part of the campaign identity and may differ across a resume.
fn apply_supervision_flags(cfg: &mut CampaignConfig, flags: &HashMap<String, String>) {
    if let Some(r) = flags.get("max-retries").and_then(|s| s.parse().ok()) {
        cfg.max_retries = r;
    }
    if let Some(m) = flags.get("op-budget-mult").and_then(|s| s.parse().ok()) {
        cfg.op_budget_mult = m;
    }
}

fn build_config(flags: &HashMap<String, String>) -> CampaignConfig {
    let mut cfg = CampaignConfig::from_env();
    if let Some(t) = parse_flag(flags, "trials") {
        cfg.trials_per_point = t;
    }
    cfg.params = match flags.get("params").map(String::as_str) {
        Some("all") => ParamsMode::All,
        _ => ParamsMode::DataBuffer,
    };
    if let Some(tok) = flags.get("fault-channel") {
        cfg.fault_channel = FaultChannel::from_token(tok).unwrap_or_else(|| {
            eprintln!(
                "unknown fault channel {:?} (param|message|crash-stop|fail-slow|partition)",
                tok
            );
            std::process::exit(2);
        });
    }
    if flags.contains_key("resilient-transport") {
        cfg.resilient = true;
    }
    if let Some(arg) = flags.get("colls") {
        cfg.colls = Some(parse_colls(arg));
    }
    if let Some(tok) = flags.get("timeline") {
        // The timeline pins the campaign's fault channel to its first
        // event's channel; a contradicting --fault-channel is refused
        // rather than silently overridden (same rule as the daemon).
        let t = parse_timeline(tok);
        if let Some(primary) = t.primary_channel() {
            if flags.contains_key("fault-channel") && cfg.fault_channel != primary {
                eprintln!(
                    "--timeline {:?} injects on the {} channel, but --fault-channel says {}",
                    t.token(),
                    primary.token(),
                    cfg.fault_channel.token()
                );
                std::process::exit(2);
            }
        }
        cfg.set_timeline(t);
    }
    apply_supervision_flags(&mut cfg, flags);
    cfg
}

/// Parse a `--timeline` token or exit with the parser's diagnostic.
fn parse_timeline(tok: &str) -> FaultTimeline {
    FaultTimeline::parse(tok).unwrap_or_else(|e| {
        eprintln!("bad --timeline {tok:?}: {e}");
        std::process::exit(2);
    })
}

/// Parse a `--colls` list: comma-separated `MPI_*` display names.
fn parse_colls(arg: &str) -> Vec<CollKind> {
    arg.split(',')
        .map(|name| {
            CollKind::from_name(name.trim()).unwrap_or_else(|| {
                eprintln!("unknown collective {:?} (MPI_* display names)", name.trim());
                std::process::exit(2);
            })
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage()
    };
    match cmd.as_str() {
        "profile" => cmd_profile(&parse_flags(rest)),
        "campaign" => cmd_campaign(&parse_flags(rest)),
        "point" => cmd_point(&parse_flags(rest)),
        "serve" => cmd_serve(&parse_flags(rest)),
        "worker" => cmd_worker(&parse_flags(rest)),
        "fleet" => cmd_fleet(&parse_flags(rest)),
        "submit" => cmd_submit(&parse_flags(rest)),
        "scenario" => cmd_scenario(&parse_flags(rest)),
        "journal-sha" => {
            let Some((dir, _)) = rest.split_first().filter(|(d, _)| !d.starts_with("--")) else {
                eprintln!("journal-sha needs a store directory");
                usage()
            };
            match fastfit_store::journal_content_sha(Path::new(dir)) {
                Ok(sha) => println!("{sha}"),
                Err(e) => {
                    eprintln!("cannot hash journal in {dir}: {e}");
                    std::process::exit(1);
                }
            }
        }
        "models" => {
            let Some((dir, _)) = rest.split_first().filter(|(d, _)| !d.starts_with("--")) else {
                eprintln!("models needs a registry directory (e.g. <store>/models)");
                usage()
            };
            cmd_models(Path::new(dir));
        }
        "status" | "resume" => {
            let Some((dir, flag_args)) = rest.split_first().filter(|(d, _)| !d.starts_with("--"))
            else {
                eprintln!("{} needs a store directory", cmd);
                usage()
            };
            let flags = parse_flags(flag_args);
            if cmd == "status" {
                cmd_status(Path::new(dir), flags.contains_key("watch"));
            } else {
                cmd_resume(Path::new(dir), &flags);
            }
        }
        "watch" | "cancel" => {
            let Some((id, flag_args)) = rest.split_first().filter(|(d, _)| !d.starts_with("--"))
            else {
                eprintln!("{} needs a campaign ID", cmd);
                usage()
            };
            let flags = parse_flags(flag_args);
            if cmd == "watch" {
                cmd_watch(id, &flags);
            } else {
                cmd_cancel(id, &flags);
            }
        }
        _ => usage(),
    }
}

/// The daemon address for the client verbs: `--addr` or the default.
fn serve_addr(flags: &HashMap<String, String>) -> String {
    flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| DEFAULT_ADDR.to_string())
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
    http_request_retry(addr, method, path, body, CLIENT_ATTEMPTS).unwrap_or_else(|e| {
        eprintln!("cannot reach fastfit-served at {addr}: {e}");
        std::process::exit(1);
    })
}

/// `fastfit-cli serve` — run the campaign service in the foreground until
/// SIGINT/SIGTERM.
fn cmd_serve(flags: &HashMap<String, String>) {
    let mut cfg = ServeConfig::new(
        flags
            .get("root")
            .cloned()
            .unwrap_or_else(|| "fastfit-serve".into()),
    );
    if let Some(a) = flags.get("addr") {
        cfg.addr = a.clone();
    }
    if let Some(b) = flags.get("budget").and_then(|s| s.parse().ok()) {
        cfg.worker_budget = b;
    }
    if let Some(k) = flags.get("max-campaigns").and_then(|s| s.parse().ok()) {
        cfg.max_campaigns = k;
    }
    cfg.fleet = flags.contains_key("fleet");
    if let Some(n) = flags.get("lease-trials").and_then(|s| s.parse().ok()) {
        cfg.lease_trials = n;
    }
    if let Some(ms) = flags.get("lease-ttl-ms").and_then(|s| s.parse().ok()) {
        cfg.lease_ttl = Duration::from_millis(ms);
    }
    if cfg.worker_budget == 0 || cfg.max_campaigns == 0 {
        eprintln!("--budget and --max-campaigns must be at least 1");
        std::process::exit(2);
    }
    if cfg.fleet && (cfg.lease_trials == 0 || cfg.lease_ttl.is_zero()) {
        eprintln!("--lease-trials and --lease-ttl-ms must be at least 1");
        std::process::exit(2);
    }
    signal::install_shutdown_handler();
    let handle = fastfit_serve::start(cfg.clone()).unwrap_or_else(|e| {
        eprintln!("cannot start fastfit-served: {e}");
        std::process::exit(1);
    });
    println!(
        "fastfit-served listening on {} (root {}, budget {}, max {} concurrent campaigns{})",
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
fn cmd_worker(flags: &HashMap<String, String>) {
    let addr = serve_addr(flags);
    let name = flags
        .get("name")
        .cloned()
        .unwrap_or_else(|| format!("worker-{}", std::process::id()));
    signal::install_shutdown_handler();
    let cfg = WorkerConfig::new(addr, name);
    match run_worker(&cfg, &signal::shutdown_requested) {
        Ok(leases) => {
            eprintln!("fastfit-worker: stopping after {leases} completed lease(s)");
            std::process::exit(130);
        }
        Err(e) => {
            eprintln!("fastfit-worker: {e}");
            std::process::exit(1);
        }
    }
}

/// `fastfit-cli fleet` — show the coordinator's worker/lease/coverage
/// state.
fn cmd_fleet(flags: &HashMap<String, String>) {
    let addr = serve_addr(flags);
    let r = request_or_die(&addr, "GET", "/fleet/status", None);
    if r.status != 200 {
        eprintln!("fleet status failed ({}): {}", r.status, r.body.trim());
        std::process::exit(1);
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
fn cmd_submit(flags: &HashMap<String, String>) {
    let workload = flags.get("workload").cloned().unwrap_or_else(|| usage());
    let mut spec = CampaignSpec::new(workload);
    spec.ranks = parse_flag(flags, "ranks");
    spec.trials = parse_flag(flags, "trials");
    spec.params = flags.get("params").map(|tok| {
        ParamsMode::from_token(tok).unwrap_or_else(|| {
            eprintln!("unknown params mode {tok:?}");
            std::process::exit(2);
        })
    });
    spec.fault_channel = flags.get("fault-channel").map(|tok| {
        FaultChannel::from_token(tok).unwrap_or_else(|| {
            eprintln!(
                "unknown fault channel {tok:?} (param|message|crash-stop|fail-slow|partition)"
            );
            std::process::exit(2);
        })
    });
    if flags.contains_key("resilient-transport") {
        spec.resilient = Some(true);
    }
    spec.colls = flags.get("colls").map(|arg| parse_colls(arg));
    // Parse locally for the early diagnostic; the daemon re-validates.
    spec.timeline = flags
        .get("timeline")
        .map(|tok| parse_timeline(tok).token().to_string());
    spec.seed = flags.get("seed").and_then(|s| s.parse().ok());
    spec.app_seed = flags.get("app-seed").and_then(|s| s.parse().ok());
    spec.steps = flags.get("steps").and_then(|s| s.parse().ok());
    if flags.contains_key("ml") {
        spec.ml_threshold = Some(
            flags
                .get("threshold")
                .and_then(|s| s.parse().ok())
                .unwrap_or(0.65),
        );
    }
    let addr = serve_addr(flags);
    let body = spec.to_json().encode();
    let r = request_or_die(
        &addr,
        "POST",
        "/campaigns",
        Some(("application/json", &body)),
    );
    if r.status != 201 {
        eprintln!("submission rejected ({}): {}", r.status, r.body.trim());
        std::process::exit(1);
    }
    let id = Json::parse(&r.body)
        .ok()
        .and_then(|v| v.get("id").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_else(|| {
            eprintln!(
                "daemon returned an unreadable submission receipt: {}",
                r.body
            );
            std::process::exit(1);
        });
    println!("submitted campaign {id} to {addr}");
    println!("follow it with: fastfit-cli watch {id} --addr {addr}");
}

/// `fastfit-cli scenario` — expand a scenario grammar: preview the cross
/// product (optionally priced by local golden runs), and with `--submit`
/// POST the grammar to the daemon's `/scenarios` endpoint, which expands
/// it server-side into one durable queue entry per campaign.
fn cmd_scenario(flags: &HashMap<String, String>) {
    let path = flags.get("grammar").cloned().unwrap_or_else(|| usage());
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read grammar {path}: {e}");
        std::process::exit(1);
    });
    let mut grammar = Grammar::parse(&text).unwrap_or_else(|e| {
        eprintln!("bad grammar {path}: {e}");
        std::process::exit(2);
    });
    let cli_max_cost = flags.get("max-cost").map(|s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("--max-cost must be a non-negative integer");
            std::process::exit(2);
        })
    });
    if cli_max_cost.is_some() {
        grammar.max_cost = cli_max_cost;
    }
    let scenarios = grammar.expand().unwrap_or_else(|e| {
        eprintln!("grammar {path} does not enumerate: {e}");
        std::process::exit(2);
    });
    println!(
        "scenario sweep {:?}: {} scenarios",
        grammar.template.name,
        scenarios.len()
    );
    // Price the sweep locally (golden-run profiles) when a budget is in
    // play or an explicit preview was asked for.
    let priced = grammar.max_cost.is_some() || flags.contains_key("costs");
    if priced {
        let model = GoldenCostModel::new();
        for s in &scenarios {
            match model.predicted_cost(s) {
                Ok(cost) => {
                    let over = grammar.max_cost.is_some_and(|m| cost > m);
                    println!(
                        "  {:<44} cost {:>10}{}",
                        s.label(),
                        cost,
                        if over { "  (over budget: dropped)" } else { "" }
                    );
                }
                Err(e) => {
                    eprintln!("cannot price scenario {}: {e}", s.label());
                    std::process::exit(1);
                }
            }
        }
        if let Some(max) = grammar.max_cost {
            let f =
                filter_by_cost(scenarios.clone(), &model, max).expect("all scenarios priced above");
            println!(
                "kept {} of {} scenarios under max_cost {max}",
                f.kept.len(),
                scenarios.len()
            );
        }
    } else {
        for s in &scenarios {
            println!("  {}", s.label());
        }
    }
    if !flags.contains_key("submit") {
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
        eprintln!("scenario rejected ({}): {}", r.status, r.body.trim());
        std::process::exit(1);
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

/// The `state` token of a status body (full snapshot or minimal form).
fn status_state(body: &str) -> String {
    Json::parse(body)
        .ok()
        .and_then(|v| v.get("state").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_default()
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
        None => println!("state: {}", status_state(body)),
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
}

/// `fastfit-cli watch` — poll the daemon for a campaign's status until it
/// reaches a terminal state.
fn cmd_watch(id: &str, flags: &HashMap<String, String>) {
    let addr = serve_addr(flags);
    let mut last = String::new();
    loop {
        let r = request_or_die(&addr, "GET", &format!("/campaigns/{id}/status"), None);
        if r.status != 200 {
            eprintln!(
                "status of {id} unavailable ({}): {}",
                r.status,
                r.body.trim()
            );
            std::process::exit(1);
        }
        if r.body != last {
            render_status_screen(&format!("campaign {id} @ {addr}"), &r.body);
            last = r.body.clone();
        }
        match status_state(&r.body).as_str() {
            "done" => return,
            "cancelled" | "failed" | "interrupted" => std::process::exit(1),
            _ => std::thread::sleep(WATCH_POLL),
        }
    }
}

/// `fastfit-cli cancel` — ask the daemon to stop a campaign.
fn cmd_cancel(id: &str, flags: &HashMap<String, String>) {
    let addr = serve_addr(flags);
    let r = request_or_die(&addr, "DELETE", &format!("/campaigns/{id}"), None);
    match r.status {
        200 => println!("campaign {id} cancelled (was still queued)"),
        202 => println!("campaign {id} cancelling at the next trial boundary"),
        s => {
            eprintln!("cancel failed ({s}): {}", r.body.trim());
            std::process::exit(1);
        }
    }
}

fn cmd_profile(flags: &HashMap<String, String>) {
    let w = build_workload(flags);
    let name = w.name.clone();
    let c = Campaign::prepare(w, build_config(flags));
    print!("{}", mpiprof::communication_report(&c.profile));
    println!(
        "\nrank equivalence classes: {:?}\nfull injection space: {} points; after semantic+context pruning: {} ({:.2}% reduction)",
        c.semantic.classes,
        c.full_points,
        c.points().len(),
        100.0 * c.total_reduction()
    );
    println!("golden run of {}: {:?}", name, c.golden_wall);
    println!("{}", fastfit::report::replay_summary(&c));
}

/// The store directory for this invocation: `--store` beats
/// `FASTFIT_STORE_DIR`; absent both, campaigns run without persistence.
fn store_dir(flags: &HashMap<String, String>) -> Option<String> {
    flags
        .get("store")
        .cloned()
        .or_else(|| std::env::var("FASTFIT_STORE_DIR").ok())
        .filter(|s| !s.is_empty())
}

/// Open (or resume) the store for a prepared campaign, reporting how much
/// journaled work it brings. Exits with a diagnostic when the directory
/// belongs to a different campaign.
fn open_store(
    dir: &Path,
    c: &Campaign,
    points: &[InjectionPoint],
    ml: Option<MlIdentity<'_>>,
) -> CampaignStore {
    let meta = campaign_meta_ml(c, points, ml);
    let store = CampaignStore::open(dir, meta).unwrap_or_else(|e| {
        eprintln!("cannot open store {}: {}", dir.display(), e);
        std::process::exit(1);
    });
    // The profile phase already ran (store identity needs the pruned
    // points); backfill its timing so status.json shows it.
    store.on_event(&ProgressEvent::PhaseFinished {
        phase: CampaignPhase::Profile,
        wall: c.golden_wall,
    });
    println!(
        "store {} (campaign {}): {} journaled trials to replay",
        dir.display(),
        &store.id()[..16],
        store.replayable_trials()
    );
    store
}

/// The plain (non-ML) campaign: measure every pruned point, print the
/// sensitivity tables. One body serves `campaign` and `resume`.
fn run_plain_campaign(c: &Campaign, csv: &Option<String>, store: Option<&CampaignStore>) {
    let r = match store {
        Some(s) => c.run_all_observed(s),
        None => c.run_all(),
    };
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
    println!("{}", fastfit::report::campaign_summary(c, &r));
    maybe_write(
        csv,
        "cli_points.csv",
        &points_csv(&r.results, c.cfg.fault_channel),
    );
}

/// The model registry for this invocation: `--registry DIR` beats the
/// campaign store's own `models/` subdirectory; `None` when the campaign
/// runs storeless and no registry was named (models are then neither
/// looked up nor saved).
fn registry_for(flags: &HashMap<String, String>, store: Option<&Path>) -> Option<ModelRegistry> {
    let dir = flags
        .get("registry")
        .map(PathBuf::from)
        .or_else(|| store.map(|d| d.join(MODELS_DIR)))?;
    match ModelRegistry::open(&dir) {
        Ok(r) => Some(r),
        Err(e) => {
            eprintln!("cannot open model registry {}: {}", dir.display(), e);
            std::process::exit(1);
        }
    }
}

/// Resolve `--warm-start <id|auto>` against the registry, refusing models
/// trained for a different feature schema or prediction target — a
/// mismatched prior would not just predict badly, it would panic inside
/// the forest on the wrong input width.
fn resolve_warm_start(
    registry: Option<&ModelRegistry>,
    spec: &str,
    target: MlTarget,
) -> StoredModel {
    let Some(reg) = registry else {
        eprintln!("--warm-start needs --store or --registry (somewhere to look models up)");
        std::process::exit(2);
    };
    let schema = schema_hash(&FEATURE_NAMES);
    let target_tok = ml_target_token(target);
    let model = if spec == "auto" {
        match reg.resolve_auto(&schema, &target_tok) {
            Ok(Some(entry)) => reg.get(&entry.id).unwrap_or_else(|e| {
                eprintln!(
                    "registry lists model {} but cannot supply it: {}",
                    &entry.id[..16],
                    e
                );
                std::process::exit(1);
            }),
            Ok(None) => {
                eprintln!(
                    "--warm-start auto: no compatible model in {}",
                    reg.root().display()
                );
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("cannot read model registry {}: {}", reg.root().display(), e);
                std::process::exit(1);
            }
        }
    } else {
        reg.get(spec).unwrap_or_else(|e| {
            eprintln!("cannot load warm-start model {spec:?}: {e}");
            std::process::exit(1);
        })
    };
    if model.schema() != schema || model.target != target_tok {
        eprintln!(
            "model {} was trained for target {} over a different feature schema; this campaign needs target {}",
            &model.id()[..16],
            model.target,
            target_tok
        );
        std::process::exit(1);
    }
    println!(
        "warm start: model {} ({} on the {} channel{})",
        &model.id()[..16],
        model.workload,
        model.channel,
        model
            .forest
            .oob_accuracy()
            .map(|o| format!(", oob {:.1}%", 100.0 * o))
            .unwrap_or_default()
    );
    model
}

/// Register a round's forest under this campaign's key. Registry failures
/// are reported but never fail the campaign — the model store is an
/// accelerator, not a correctness dependency.
fn register_model(reg: &ModelRegistry, c: &Campaign, target: MlTarget, forest: &RandomForest) {
    let model = StoredModel {
        workload: c.workload.name.clone(),
        channel: c.cfg.fault_channel.token().to_string(),
        transport: if c.cfg.resilient {
            "resilient"
        } else {
            "plain"
        }
        .to_string(),
        target: ml_target_token(target),
        features: FEATURE_NAMES.iter().map(|s| s.to_string()).collect(),
        forest: forest.clone(),
    };
    if let Err(e) = reg.put(&model) {
        eprintln!("warning: model registration failed: {e}");
    }
}

/// The ML feedback-loop campaign over the post-semantic invocation
/// population, observed so it can journal and resume. One body serves
/// `campaign --ml` and `resume`; the measurement order, seeds and splits
/// depend only on the (journaled) configuration plus the warm-start
/// prior, so a resumed loop replays its own trajectory exactly.
fn run_ml_campaign(
    c: &Campaign,
    target: MlTarget,
    ml_cfg: &MlConfig,
    csv: &Option<String>,
    store: Option<&CampaignStore>,
    opts: ActiveOptions<'_>,
    on_model: &mut dyn FnMut(&RandomForest),
) {
    let observer: &dyn CampaignObserver = match store {
        Some(s) => s,
        None => &NullObserver,
    };
    let points = c.invocation_points();
    let features: Vec<Vec<f64>> = points.iter().map(|p| c.extractor.features(p)).collect();
    let trials = c.cfg.trials_per_point;
    let t0 = std::time::Instant::now();
    observer.on_event(&ProgressEvent::MeasureStarted {
        points_total: points.len(),
        trials_per_point: trials,
    });
    let mut measured = Vec::new();
    let out = ml_driven_active(
        &features,
        target,
        |i| {
            let pr = c.measure_point_observed(&points[i], trials, 0xC11 + i as u64, observer);
            let label = match target {
                MlTarget::ErrorType => pr.hist.dominant().index(),
                MlTarget::RateLevels(k) => Levels::even(k).of(pr.error_rate()),
            };
            // A cancellation mid-point leaves it partially measured; it
            // must not journal as finished or a resume would trust it.
            if !c.cancel_token().is_cancelled() {
                observer.on_event(&ProgressEvent::PointFinished {
                    point: &points[i],
                    result: &pr,
                });
            }
            measured.push(pr);
            label
        },
        ml_cfg,
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
            on_model(forest);
        },
    );
    observer.on_event(&ProgressEvent::PhaseFinished {
        phase: CampaignPhase::Learn,
        wall: t0.elapsed(),
    });
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
        &points_csv(&measured, c.cfg.fault_channel),
    );
}

fn finish_store(store: &CampaignStore) {
    if let Err(e) = store.finish() {
        eprintln!("warning: final store flush failed: {}", e);
    } else {
        println!("campaign state saved to {}", store.dir().display());
    }
}

fn cmd_campaign(flags: &HashMap<String, String>) {
    let w = build_workload(flags);
    let cfg = build_config(flags);
    let csv = flags.get("csv").cloned();
    let c = Campaign::prepare(w, cfg);
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

    if flags.contains_key("ml") {
        let threshold = flags
            .get("threshold")
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.65);
        let target = MlTarget::RateLevels(3);
        let ml_cfg = MlConfig {
            accuracy_threshold: threshold,
            ..Default::default()
        };
        let dir = store_dir(flags);
        let registry = registry_for(flags, dir.as_deref().map(Path::new));
        // Warm campaigns order pending points by vote entropy unless
        // `--ml-order` says otherwise; cold campaigns keep the scan order
        // (and so their campaign IDs) they always had.
        let warm = flags.get("warm-start").cloned();
        let ordering = match flags.get("ml-order").map(String::as_str) {
            Some(tok) => MlOrdering::from_token(tok).unwrap_or_else(|| {
                eprintln!("unknown --ml-order {tok:?} (scan|entropy)");
                std::process::exit(2);
            }),
            None if warm.is_some() => MlOrdering::Entropy,
            None => MlOrdering::Scan,
        };
        let prior = warm
            .as_deref()
            .map(|w| resolve_warm_start(registry.as_ref(), w, target));
        let opts = ActiveOptions {
            prior: prior.as_ref().map(|m| &m.forest),
            ordering,
        };
        let mut on_model = |forest: &RandomForest| {
            if let Some(reg) = &registry {
                register_model(reg, &c, target, forest);
            }
        };
        match dir {
            Some(dir) => {
                let points = c.invocation_points();
                let ml = MlIdentity {
                    target,
                    config: &ml_cfg,
                    warm: prior.as_ref().map(StoredModel::id),
                    ordering,
                };
                let store = open_store(Path::new(&dir), &c, &points, Some(ml));
                run_ml_campaign(&c, target, &ml_cfg, &csv, Some(&store), opts, &mut on_model);
                exit_if_interrupted(&c, Some(&store));
                finish_store(&store);
            }
            None => {
                run_ml_campaign(&c, target, &ml_cfg, &csv, None, opts, &mut on_model);
                exit_if_interrupted(&c, None);
            }
        }
        return;
    }

    match store_dir(flags) {
        Some(dir) => {
            let store = open_store(Path::new(&dir), &c, c.points(), None);
            run_plain_campaign(&c, &csv, Some(&store));
            exit_if_interrupted(&c, Some(&store));
            finish_store(&store);
        }
        None => {
            run_plain_campaign(&c, &csv, None);
            exit_if_interrupted(&c, None);
        }
    }
}

fn cmd_status(dir: &Path, watch: bool) {
    match read_store_meta(dir) {
        Ok((id, meta)) => {
            println!(
                "store {}\ncampaign {} — workload {}, {} ranks, {} points × {} trials, params {}, channel {}{}{}{}",
                dir.display(),
                &id[..16],
                meta.workload,
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
                                .map(|w| format!(", warm-started from {}", &w[..16]))
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
        Err(e) => {
            eprintln!("cannot read journal in {}: {}", dir.display(), e);
            std::process::exit(1);
        }
    }
    if !watch {
        match StatusSnapshot::read_from(dir) {
            Ok(s) => print!("{}", s.render()),
            Err(e) => println!("no readable status.json yet ({})", e),
        }
        return;
    }
    // --watch: re-render on every status.json mtime change, single-screen
    // refresh, until the campaign leaves the running state.
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
                    if status_state(&body) != CampaignState::Running.name() {
                        return;
                    }
                }
                Err(e) => println!("no readable status.json yet ({e})"),
            }
        }
        std::thread::sleep(WATCH_POLL);
    }
}

/// If a shutdown signal stopped the campaign mid-run, checkpoint the
/// journal (state `interrupted`) when a store is present and exit 130
/// like any interrupted foreground process. No-op otherwise.
fn exit_if_interrupted(c: &Campaign, store: Option<&CampaignStore>) {
    if !c.cancel_token().is_cancelled() {
        return;
    }
    match store {
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

/// Rebuild the campaign a store directory belongs to and run it to
/// completion. The journal's metadata supplies workload, ranks, seeds,
/// trial count and parameter mode; LAMMPS run length (`--steps`) and the
/// ML threshold (`--threshold`) must be re-given when they differed from
/// the defaults — a wrong value is caught by the campaign-ID check, not
/// silently mismeasured.
fn cmd_resume(dir: &Path, flags: &HashMap<String, String>) {
    let (id, meta) = read_store_meta(dir).unwrap_or_else(|e| {
        eprintln!("cannot read journal in {}: {}", dir.display(), e);
        std::process::exit(1);
    });
    println!(
        "resuming campaign {} — workload {}, {} points × {} trials",
        &id[..16],
        meta.workload,
        meta.point_keys.len(),
        meta.trials_per_point
    );
    let mut w = if meta.workload.eq_ignore_ascii_case("lammps") {
        let steps = flags
            .get("steps")
            .and_then(|s| s.parse().ok())
            .unwrap_or(10);
        lammps_workload(steps)
    } else {
        npb_workload(&meta.workload)
    };
    w.nranks = meta.nranks;
    w.seed = meta.app_seed;
    let mut cfg = CampaignConfig::from_env();
    cfg.trials_per_point = meta.trials_per_point;
    cfg.seed = meta.campaign_seed;
    cfg.params = ParamsMode::from_token(&meta.params).unwrap_or_else(|| {
        eprintln!("journal has unknown params mode {:?}", meta.params);
        std::process::exit(1);
    });
    // The fault channel, transport mode and fault timeline are part of
    // the campaign identity: a resume must re-inject on the journaled
    // channel with the journaled schedule (overriding any
    // FASTFIT_TIMELINE in the resuming environment).
    cfg.fault_channel = meta.fault_channel;
    cfg.resilient = meta.resilient;
    cfg.timeline = meta.timeline.clone();
    // Ditto the collective subset: the journaled points only exist under
    // the same restriction.
    if let Some(names) = &meta.colls {
        cfg.colls = Some(
            names
                .iter()
                .map(|n| {
                    CollKind::from_name(n).unwrap_or_else(|| {
                        eprintln!("journal has unknown collective {n:?}");
                        std::process::exit(1);
                    })
                })
                .collect(),
        );
    }
    apply_supervision_flags(&mut cfg, flags);
    let csv = flags.get("csv").cloned();
    let c = Campaign::prepare(w, cfg);
    signal::install_shutdown_handler();
    signal::cancel_on_shutdown(c.cancel_token());
    match &meta.ml {
        Some(ml_meta) => {
            let target = if ml_meta.target == "error_type" {
                MlTarget::ErrorType
            } else if let Some(k) = ml_meta
                .target
                .strip_prefix("rate_levels:")
                .and_then(|k| k.parse().ok())
            {
                MlTarget::RateLevels(k)
            } else {
                eprintln!("journal has unknown ml target {:?}", ml_meta.target);
                std::process::exit(1);
            };
            let threshold = flags
                .get("threshold")
                .and_then(|s| s.parse().ok())
                .unwrap_or(0.65);
            let ml_cfg = MlConfig {
                accuracy_threshold: threshold,
                ..Default::default()
            };
            // Warm-start provenance and ordering are part of the campaign
            // identity: a resumed warm loop must seed round 0 from the
            // *same* prior or its measurement trajectory diverges from the
            // journal. The model is re-fetched from the registry
            // (`--registry DIR`, default `<DIR>/models`); if the registry
            // cannot supply it the resume is refused rather than replayed
            // on a different trajectory.
            let ordering = match ml_meta.order.as_deref() {
                Some(tok) => MlOrdering::from_token(tok).unwrap_or_else(|| {
                    eprintln!("journal has unknown ml ordering {tok:?}");
                    std::process::exit(1);
                }),
                None => MlOrdering::Scan,
            };
            let registry = registry_for(flags, Some(dir));
            let prior: Option<StoredModel> = ml_meta.warm.as_ref().map(|model_id| {
                let Some(reg) = registry.as_ref() else {
                    unreachable!("the store directory always implies a registry path")
                };
                match reg.get(model_id) {
                    Ok(m) => m,
                    Err(e) => {
                        eprintln!(
                            "this campaign was warm-started from model {} but the registry cannot supply it ({}); re-give --registry",
                            &model_id[..16],
                            e
                        );
                        std::process::exit(1);
                    }
                }
            });
            let opts = ActiveOptions {
                prior: prior.as_ref().map(|m| &m.forest),
                ordering,
            };
            let mut on_model = |forest: &RandomForest| {
                if let Some(reg) = &registry {
                    register_model(reg, &c, target, forest);
                }
            };
            let points = c.invocation_points();
            let ml = MlIdentity {
                target,
                config: &ml_cfg,
                warm: ml_meta.warm.clone(),
                ordering,
            };
            let store = open_store(dir, &c, &points, Some(ml));
            run_ml_campaign(&c, target, &ml_cfg, &csv, Some(&store), opts, &mut on_model);
            exit_if_interrupted(&c, Some(&store));
            finish_store(&store);
        }
        None => {
            let store = open_store(dir, &c, c.points(), None);
            run_plain_campaign(&c, &csv, Some(&store));
            exit_if_interrupted(&c, Some(&store));
            finish_store(&store);
        }
    }
}

/// `fastfit-cli models <DIR>` — list the registered sensitivity models in
/// a registry directory, newest last (registration order).
fn cmd_models(dir: &Path) {
    let reg = ModelRegistry::open(dir).unwrap_or_else(|e| {
        eprintln!("cannot open model registry {}: {}", dir.display(), e);
        std::process::exit(1);
    });
    let entries = reg.list().unwrap_or_else(|e| {
        eprintln!("cannot read model registry {}: {}", dir.display(), e);
        std::process::exit(1);
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
            &e.id[..16],
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

fn cmd_point(flags: &HashMap<String, String>) {
    let w = build_workload(flags);
    let c = Campaign::prepare(w, build_config(flags));
    let site_arg = flags.get("site").cloned().unwrap_or_else(|| usage());
    let (file_part, line_part) = site_arg.rsplit_once(':').unwrap_or_else(|| usage());
    let line: u32 = line_part.parse().unwrap_or_else(|_| usage());
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
    let param = match flags.get("param").map(String::as_str) {
        Some("sendbuf") | None => ParamId::SendBuf,
        Some("recvbuf") => ParamId::RecvBuf,
        Some("count") => ParamId::Count,
        Some("datatype") => ParamId::Datatype,
        Some("op") => ParamId::Op,
        Some("root") => ParamId::Root,
        Some("comm") => ParamId::Comm,
        Some(other) => {
            eprintln!("unknown parameter {other:?}");
            std::process::exit(2);
        }
    };
    let rank = flags
        .get("rank")
        .and_then(|s| s.parse().ok())
        .unwrap_or(c.semantic.representatives[0]);
    let invocation = flags
        .get("invocation")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let kind = c
        .profile
        .site_records(rank, site)
        .first()
        .map(|r| r.kind)
        .unwrap_or_else(|| {
            eprintln!("no records for site {} on rank {}", site, rank);
            std::process::exit(2);
        });
    let point = InjectionPoint {
        site,
        kind,
        rank,
        invocation,
        param,
    };
    let pr = c.measure_point(&point, c.cfg.trials_per_point, 0xD01);
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
