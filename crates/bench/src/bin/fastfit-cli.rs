//! fastfit-cli — run FastFIT campaigns on the built-in workloads from the
//! command line.
//!
//! ```text
//! fastfit-cli profile  --workload <IS|FT|MG|LU|CG|HALO|LAMMPS>
//! fastfit-cli campaign --workload <...> [--trials N] [--params data|all|only:...]
//!                      [--ranks N] [--seed N] [--app-seed N] [--ml [--threshold 0.65]]
//!                      [--csv DIR] [--store DIR] [--timeline single|burst:W[:G]|...]
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
//!
//! The campaign flags describe a [`CampaignSpec`] — the document `submit`
//! POSTs to the daemon — and every verb resolves it through the daemon's
//! own resolver, so a campaign run here and the same spec submitted there
//! journal byte-identically. What the flags leave unset of ranks, trials
//! and problem class comes from `FASTFIT_RANKS`/`FASTFIT_TRIALS`/
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
use simmpi::hook::{CallSite, CollKind, ParamId};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Poll cadence for `status --watch` and `watch`.
const WATCH_POLL: Duration = Duration::from_millis(500);

/// The flags [`spec_from_flags`] reads: every verb that describes a
/// campaign accepts them.
const SPEC_FLAGS: &str = "workload ranks trials params fault-channel resilient-transport seed \
                          app-seed steps colls timeline ml threshold warm-start";

/// `--key [value]` pairs. A key that no list of `accepted` (names
/// separated by whitespace) holds exits 2 naming it, so a misspelt or
/// retired flag is refused instead of leaving its knob at the default.
fn parse_flags(verb: &str, args: &[String], accepted: &[&str]) -> HashMap<String, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            if !accepted
                .iter()
                .any(|l| l.split_whitespace().any(|n| n == key))
            {
                eprintln!("{verb} takes no flag --{key}");
                std::process::exit(2);
            }
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
         \x20      fastfit-cli submit --workload <...> [campaign flags] [--addr HOST:PORT]\n\
         \x20      fastfit-cli watch  <ID> [--addr HOST:PORT]\n\
         \x20      fastfit-cli cancel <ID> [--addr HOST:PORT]\n\
         \x20      fastfit-cli scenario --grammar FILE [--max-cost N] [--costs]\n\
         \x20                           [--submit [--addr HOST:PORT]]\n\
         flags: --trials N  --params data|all|only:sendbuf+count  --ranks N\n\
         \x20      --seed N (fault-bit selection)  --app-seed N (application)\n\
         \x20      --ml  --threshold 0.65  --csv DIR  --store DIR (or FASTFIT_STORE_DIR)\n\
                --warm-start <model-id|auto> (seed the ML loop from a\n\
                \x20 registered model; auto picks the newest compatible one;\n\
                \x20 a warm loop measures by vote entropy, a cold one in scan order)\n\
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
                --site file.rs:LINE  --param sendbuf|recvbuf|count|datatype|op|root|comm\n\
                --rank R  --invocation I  --steps N (LAMMPS run length)\n\
         env:   FASTFIT_RANKS  FASTFIT_TRIALS  FASTFIT_CLASS (mini|small|standard)\n\
                \x20 fill the --ranks/--trials/class a campaign leaves unset; the journal\n\
                \x20 records them, so resume reads none (submit: the daemon's env fills them)\n\
                FASTFIT_STORE_DIR\n\
         the campaign flags are checked as the daemon checks a submission: a value it\n\
         would answer with a 400, a number that does not parse, a flag the verb does\n\
         not take, or a malformed FASTFIT_* value exits 2."
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

/// The campaign the flags describe, as the spec `submit` would POST — the
/// only mapping from flags to campaign identity. It is held to the
/// daemon's own admission check: what `POST /campaigns` answers with a
/// 400, every verb refuses with exit 2 and the same message.
fn spec_from_flags(flags: &HashMap<String, String>) -> CampaignSpec {
    let mut spec = CampaignSpec::new(flags.get("workload").cloned().unwrap_or_else(|| usage()));
    spec.ranks = parse_flag(flags, "ranks");
    spec.trials = parse_flag(flags, "trials");
    spec.params = flags.get("params").map(|tok| {
        ParamsMode::from_token(tok).unwrap_or_else(|| {
            eprintln!("unknown params mode {tok:?} (data|all|only:sendbuf+count+...)");
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
    spec.seed = parse_flag(flags, "seed");
    spec.app_seed = parse_flag(flags, "app-seed");
    spec.steps = parse_flag(flags, "steps");
    spec.colls = flags.get("colls").map(|arg| parse_colls(arg));
    // The canonical token; one that does not parse is left for
    // `validate_spec` to refuse with the daemon's message.
    spec.timeline = flags.get("timeline").map(|tok| {
        FaultTimeline::parse(tok).map_or_else(|_| tok.clone(), |t| t.token().to_string())
    });
    let threshold = parse_flag(flags, "threshold");
    if flags.contains_key("ml") {
        spec.ml_threshold = Some(threshold.unwrap_or(MlConfig::default().accuracy_threshold));
    }
    spec.warm_start = flags.get("warm-start").cloned();
    if let Err(e) = validate_spec(&spec) {
        eprintln!("{e}");
        std::process::exit(2);
    }
    spec
}

/// Prepare the campaign a spec describes, pinned against this process's
/// environment (a malformed `FASTFIT_*` value exits 2).
fn prepare(spec: &CampaignSpec) -> Campaign {
    let spec = &pin_spec(spec).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    Campaign::prepare(resolve_workload(spec), resolve_config(spec))
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
    let flags = |accepted: &[&str]| parse_flags(cmd, rest, accepted);
    match cmd.as_str() {
        "profile" => cmd_profile(&flags(&[SPEC_FLAGS])),
        "campaign" => cmd_campaign(&flags(&[SPEC_FLAGS, "csv store registry"])),
        "point" => cmd_point(&flags(&[SPEC_FLAGS, "site param rank invocation"])),
        "serve" => cmd_serve(&flags(&[
            "addr root budget max-campaigns fleet lease-trials lease-ttl-ms",
        ])),
        "worker" => cmd_worker(&flags(&["addr name"])),
        "fleet" => cmd_fleet(&flags(&["addr"])),
        "submit" => cmd_submit(&flags(&[SPEC_FLAGS, "addr"])),
        "scenario" => cmd_scenario(&flags(&["grammar max-cost costs submit addr"])),
        "journal-sha" => {
            let Some((dir, extra)) = rest.split_first().filter(|(d, _)| !d.starts_with("--"))
            else {
                eprintln!("journal-sha needs a store directory");
                usage()
            };
            parse_flags(cmd, extra, &[]);
            match fastfit_store::journal_content_sha(Path::new(dir)) {
                Ok(sha) => println!("{sha}"),
                Err(e) => {
                    eprintln!("cannot hash journal in {dir}: {e}");
                    std::process::exit(1);
                }
            }
        }
        "models" => {
            let Some((dir, extra)) = rest.split_first().filter(|(d, _)| !d.starts_with("--"))
            else {
                eprintln!("models needs a registry directory (e.g. <store>/models)");
                usage()
            };
            parse_flags(cmd, extra, &[]);
            cmd_models(Path::new(dir));
        }
        "status" | "resume" => {
            let Some((dir, flag_args)) = rest.split_first().filter(|(d, _)| !d.starts_with("--"))
            else {
                eprintln!("{} needs a store directory", cmd);
                usage()
            };
            if cmd == "status" {
                let flags = parse_flags(cmd, flag_args, &["watch"]);
                cmd_status(Path::new(dir), flags.contains_key("watch"));
            } else {
                let accepted = ["steps threshold csv registry"];
                cmd_resume(Path::new(dir), &parse_flags(cmd, flag_args, &accepted));
            }
        }
        "watch" | "cancel" => {
            let Some((id, flag_args)) = rest.split_first().filter(|(d, _)| !d.starts_with("--"))
            else {
                eprintln!("{} needs a campaign ID", cmd);
                usage()
            };
            let flags = parse_flags(cmd, flag_args, &["addr"]);
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
        eprintln!("cannot reach fastfit-cli serve at {addr}: {e}");
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
    if let Some(b) = parse_flag(flags, "budget") {
        cfg.worker_budget = b;
    }
    if let Some(k) = parse_flag(flags, "max-campaigns") {
        cfg.max_campaigns = k;
    }
    cfg.fleet = flags.contains_key("fleet");
    if let Some(n) = parse_flag(flags, "lease-trials") {
        cfg.lease_trials = n;
    }
    if let Some(ms) = parse_flag(flags, "lease-ttl-ms") {
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
        eprintln!("cannot start fastfit-cli serve: {e}");
        std::process::exit(1);
    });
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
    let spec = spec_from_flags(flags);
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
                Err(e) => {
                    eprintln!("cannot price scenario {}: {e}", s.label());
                    std::process::exit(1);
                }
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
    let c = prepare(&spec_from_flags(flags));
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

/// The store directory for this invocation: `--store` beats
/// `FASTFIT_STORE_DIR`; absent both, campaigns run without persistence.
fn store_dir(flags: &HashMap<String, String>) -> Option<PathBuf> {
    flags
        .get("store")
        .cloned()
        .or_else(|| std::env::var("FASTFIT_STORE_DIR").ok())
        .filter(|s| !s.is_empty())
        .map(PathBuf::from)
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

/// Run the campaign `spec` describes to completion and print its tables:
/// journaled to `dir` when given, through the ML feedback loop when the
/// spec is ML-driven. One body serves `campaign` and `resume`.
fn run_campaign(spec: &CampaignSpec, flags: &HashMap<String, String>, dir: Option<&Path>) {
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
        eprintln!("--warm-start needs --store or --registry (somewhere to look models up)");
        std::process::exit(2);
    }
    let run = CampaignRun::open(&c, spec, dir, registry.as_ref()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
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
    let csv = flags.get("csv").cloned();
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

fn cmd_campaign(flags: &HashMap<String, String>) {
    run_campaign(&spec_from_flags(flags), flags, store_dir(flags).as_deref());
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

/// Rebuild the campaign a store directory belongs to and run it to
/// completion. The journal's metadata becomes the campaign's spec
/// ([`CampaignSpec::from_meta`]) and resolves like any other; LAMMPS run
/// length (`--steps`) and the ML threshold (`--threshold`) must be
/// re-given when they differed from the defaults — a wrong value is
/// caught by the campaign-ID check, not silently mismeasured.
fn cmd_resume(dir: &Path, flags: &HashMap<String, String>) {
    let (id, meta) = read_store_meta(dir).unwrap_or_else(|e| {
        eprintln!("cannot read journal in {}: {}", dir.display(), e);
        std::process::exit(1);
    });
    println!(
        "resuming campaign {} — workload {}, {} points × {} trials",
        short_id(&id),
        meta.workload,
        meta.point_keys.len(),
        meta.trials_per_point
    );
    let mut spec = CampaignSpec::from_meta(&meta).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    if let Some(steps) = parse_flag(flags, "steps") {
        spec.steps = Some(steps);
    }
    if let (Some(t), Some(_)) = (parse_flag(flags, "threshold"), &spec.ml_threshold) {
        spec.ml_threshold = Some(t);
    }
    if let Err(e) = validate_spec(&spec) {
        eprintln!("{e}");
        std::process::exit(2);
    }
    run_campaign(&spec, flags, Some(dir));
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

fn cmd_point(flags: &HashMap<String, String>) {
    let spec = spec_from_flags(flags);
    let rank: Option<usize> = parse_flag(flags, "rank");
    let invocation = parse_flag(flags, "invocation").unwrap_or(0);
    let c = prepare(&spec);
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
    let rank = rank.unwrap_or(c.semantic.representatives[0]);
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
