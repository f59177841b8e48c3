//! End-to-end tests of the scenario algebra against the daemon: a
//! grammar POSTed to `/scenarios` must expand server-side into durable
//! per-campaign queue entries whose journals are the reference runs of
//! the same specs (`tests/oracle/`), the aggregate status view must roll
//! the members up, and the committed example grammar must meet the
//! coverage floor it documents.

mod oracle;

use fastfit::prelude::*;
use fastfit_scenario::{CostModel, Grammar};
use fastfit_serve::{http_request, start, CampaignSpec, GoldenCostModel};
use fastfit_store::json::Json;
use oracle::*;
use std::collections::HashSet;
use std::path::Path;
use std::time::{Duration, Instant};

/// A small sweep: one workload, two fault channels (one of them a
/// rank-fault channel), everything else pinned.
const SWEEP: &str = r#"{
    "name": "e2e-sweep",
    "base": {"trials": 2, "seed": 11, "app_seed": 1},
    "axes": {
        "workload": ["IS"],
        "ranks": [2],
        "fault_channel": ["param", "crash-stop"]
    }
}"#;

/// The value of one `/metrics` counter.
fn metric(addr: &str, name: &str) -> u64 {
    let text = get(addr, "/metrics").body;
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no {name} in /metrics:\n{text}"))
}

/// Campaign `ids[i]` under `root` journals the reference of the `i`th
/// scenario `grammar` enumerates.
fn assert_members_journal_their_references(grammar: &str, root: &Path, ids: &[String]) {
    let scenarios = Grammar::parse(grammar).unwrap().expand().unwrap();
    assert_eq!(scenarios.len(), ids.len());
    for (s, id) in scenarios.iter().zip(ids) {
        let spec = CampaignSpec::from_json(&s.to_spec_json()).unwrap();
        assert_reference(&spec, &root.join("campaigns").join(id));
    }
}

#[test]
fn example_grammar_meets_the_coverage_floor() {
    let text = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios/channel-sweep.json"),
    )
    .expect("committed example grammar");
    let grammar = Grammar::parse(&text).expect("example grammar parses");
    let scenarios = grammar.expand().expect("example grammar enumerates");
    assert!(
        scenarios.len() >= 24,
        "coverage floor: got {} scenarios",
        scenarios.len()
    );
    let workloads: HashSet<&str> = scenarios.iter().map(|s| s.workload.as_str()).collect();
    let channels: HashSet<FaultChannel> = scenarios.iter().map(|s| s.fault_channel).collect();
    let transports: HashSet<bool> = scenarios.iter().map(|s| s.resilient).collect();
    let ranks: HashSet<usize> = scenarios.iter().map(|s| s.ranks).collect();
    assert!(workloads.len() >= 2, "{workloads:?}");
    assert!(channels.len() >= 3, "{channels:?}");
    assert!(
        channels.iter().any(|c| matches!(
            c,
            FaultChannel::CrashStop | FaultChannel::FailSlow | FaultChannel::Partition
        )),
        "at least one rank-fault channel: {channels:?}"
    );
    assert_eq!(transports.len(), 2, "both transport modes");
    assert!(ranks.len() >= 2, "{ranks:?}");
    // Every scenario lowers to a spec the daemon would accept.
    for s in &scenarios {
        let spec = CampaignSpec::from_json(&s.to_spec_json())
            .unwrap_or_else(|e| panic!("{}: {e}", s.label()));
        fastfit_serve::validate_spec(&spec).unwrap_or_else(|e| panic!("{}: {e}", s.label()));
    }
}

#[test]
fn scenario_batch_is_durable_and_journals_byte_identically_to_cli_runs() {
    let root = tmp_dir("sweep");
    let h = start(serve_cfg(&root)).expect("daemon starts");
    let addr = h.addr().to_string();

    let r = post(&addr, "/scenarios", SWEEP);
    assert_eq!(r.status, 201, "{}", r.body);
    let receipt = Json::parse(&r.body).unwrap();
    let sid = receipt
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    assert_eq!(receipt.get("count").and_then(Json::as_u64), Some(2));
    let Some(Json::Arr(ids)) = receipt.get("campaigns") else {
        panic!("receipt lists campaigns: {}", r.body);
    };
    let ids: Vec<String> = ids
        .iter()
        .map(|v| v.as_str().unwrap().to_string())
        .collect();
    assert_eq!(ids.len(), 2);

    // The expansion is durable: one submit line per campaign plus the
    // scenario grouping record, all journaled before the 201.
    let queue = std::fs::read_to_string(root.join("queue.jsonl")).expect("queue journal");
    for id in &ids {
        assert!(
            queue
                .lines()
                .any(|l| l.contains("\"t\":\"submit\"") && l.contains(&format!("\"id\":\"{id}\""))),
            "campaign {id} journaled individually:\n{queue}"
        );
    }
    assert!(
        queue
            .lines()
            .any(|l| l.contains("\"t\":\"scenario\"") && l.contains(&format!("\"id\":\"{sid}\""))),
        "scenario record journaled:\n{queue}"
    );

    // The aggregate view exists and rolls up to done.
    let r = get(&addr, "/scenarios");
    assert_eq!(r.status, 200);
    assert!(r.body.contains(&sid), "{}", r.body);
    let deadline = Instant::now() + DEADLINE;
    loop {
        let r = get(&addr, &format!("/scenarios/{sid}/status"));
        assert_eq!(r.status, 200, "{}", r.body);
        let v = Json::parse(&r.body).unwrap();
        let state = v.get("state").and_then(Json::as_str).unwrap_or("");
        assert_ne!(state, "mixed", "no member may fail: {}", r.body);
        if state == "done" {
            let Some(Json::Arr(members)) = v.get("campaigns") else {
                panic!("aggregate lists members: {}", r.body);
            };
            assert_eq!(members.len(), 2);
            break;
        }
        assert!(
            Instant::now() < deadline,
            "sweep never finished; last status: {}",
            r.body
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    // The members differ only in their channel: one golden run serves both.
    assert_eq!(metric(&addr, "golden_runs_recorded"), 1);
    h.shutdown();

    // Byte-identity: each member campaign journals its spec's reference.
    // The grammar's enumeration order is the submission order, so
    // scenario i is campaign ids[i].
    assert_members_journal_their_references(SWEEP, &root, &ids);

    // The scenario registry survives a restart (folded from the queue).
    let h = start(serve_cfg(&root)).expect("daemon restarts");
    let r = get(&h.addr().to_string(), &format!("/scenarios/{sid}/status"));
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"state\":\"done\""), "{}", r.body);
    h.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn scenario_endpoint_rejects_bad_grammars() {
    let root = tmp_dir("reject");
    let h = start(serve_cfg(&root)).expect("daemon starts");
    let addr = h.addr().to_string();
    for (body, needle) in [
        ("nope", "invalid JSON"),
        (r#"{"name":"x"}"#, "axes"),
        (
            r#"{"name":"x","axes":{"workload":["IS"],"ranks":[2],"fault_channel":["radio"]}}"#,
            "unknown fault_channel",
        ),
        (
            r#"{"name":"x","axes":{"workload":["HPL"],"ranks":[2]}}"#,
            "unknown workload",
        ),
        (
            r#"{"name":"x","axes":{"workload":["IS"],"ranks":[2]},"max_cost":0}"#,
            "drops all",
        ),
    ] {
        let r = post(&addr, "/scenarios", body);
        assert_eq!(r.status, 400, "{body} -> {}", r.body);
        assert!(r.body.contains(needle), "{body} -> {}", r.body);
    }
    // Nothing was journaled for any rejected batch.
    assert!(
        !root.join("queue.jsonl").exists() || {
            let q = std::fs::read_to_string(root.join("queue.jsonl")).unwrap();
            q.trim().is_empty()
        }
    );
    let r = get(&addr, "/scenarios/s9999/status");
    assert_eq!(r.status, 404);
    let r = http_request(&addr, "PUT", "/scenarios", None).unwrap();
    assert_eq!(r.status, 405);
    h.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// `max_cost` on the daemon path: a member priced at or under it is kept,
/// one priced over it is dropped and counted in the receipt's `dropped`.
#[test]
fn max_cost_keeps_members_at_or_under_it_and_counts_the_rest() {
    let grammar = |max_cost: u64| {
        format!(
            r#"{{
                "name": "budget",
                "base": {{"trials": 1, "seed": 11, "app_seed": 1}},
                "axes": {{"workload": ["IS"], "ranks": [2, 4]}},
                "max_cost": {max_cost}
            }}"#
        )
    };
    let model = GoldenCostModel::new();
    let costs: Vec<u64> = Grammar::parse(&grammar(0))
        .unwrap()
        .expand()
        .unwrap()
        .iter()
        .map(|s| model.predicted_cost(s).unwrap())
        .collect();
    assert!(costs[0] < costs[1], "ranks 4 must cost more: {costs:?}");

    let root = tmp_dir("budget");
    let h = start(serve_cfg(&root)).expect("daemon starts");
    let addr = h.addr().to_string();
    for (max_cost, count, dropped) in [(costs[0], 1, 1), (costs[1], 2, 0)] {
        let r = post(&addr, "/scenarios", &grammar(max_cost));
        assert_eq!(r.status, 201, "{}", r.body);
        let receipt = Json::parse(&r.body).unwrap();
        assert_eq!(receipt.get("count").and_then(Json::as_u64), Some(count));
        assert_eq!(receipt.get("dropped").and_then(Json::as_u64), Some(dropped));
    }
    // The member kept at the tighter budget is the cheaper one.
    let queue = std::fs::read_to_string(root.join("queue.jsonl")).expect("queue journal");
    let first = queue
        .lines()
        .find(|l| l.contains("\"t\":\"submit\""))
        .expect("a submit line");
    assert!(first.contains("\"ranks\":2"), "{first}");
    h.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A priced sweep: pricing and running its members record the one golden
/// run they share once, and every member still journals its spec's
/// reference.
#[test]
fn priced_sweep_records_its_golden_run_once() {
    const PRICED: &str = r#"{
        "name": "priced-sweep",
        "base": {"trials": 2, "seed": 11, "app_seed": 1},
        "axes": {
            "workload": ["IS"],
            "ranks": [2],
            "fault_channel": ["param", "crash-stop"],
            "resilient": [false, true]
        },
        "max_cost": 1000000000000
    }"#;
    let root = tmp_dir("priced");
    let h = start(serve_cfg(&root)).expect("daemon starts");
    let addr = h.addr().to_string();
    let r = post(&addr, "/scenarios", PRICED);
    assert_eq!(r.status, 201, "{}", r.body);
    let receipt = Json::parse(&r.body).unwrap();
    let sid = receipt
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let Some(Json::Arr(ids)) = receipt.get("campaigns") else {
        panic!("receipt lists campaigns: {}", r.body);
    };
    let ids: Vec<String> = ids.iter().map(|v| v.as_str().unwrap().into()).collect();
    assert_eq!(ids.len(), 4);
    let deadline = Instant::now() + DEADLINE;
    loop {
        let body = get(&addr, &format!("/scenarios/{sid}/status")).body;
        let v = Json::parse(&body).unwrap();
        match v.get("state").and_then(Json::as_str) {
            Some("done") => break,
            Some("mixed") => panic!("no member may fail: {body}"),
            _ => assert!(Instant::now() < deadline, "sweep never finished: {body}"),
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    // Four prices and four runs: one recording, seven reuses.
    assert_eq!(metric(&addr, "golden_runs_recorded"), 1);
    assert_eq!(metric(&addr, "golden_runs_reused"), 7);
    h.shutdown();

    assert_members_journal_their_references(PRICED, &root, &ids);
    let _ = std::fs::remove_dir_all(&root);
}
