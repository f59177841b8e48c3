//! `fastfit-cli` at its surface: the flags describe a `CampaignSpec`, and
//! the campaign they journal is the one the daemon's resolver makes of
//! that spec; the network verbs (`serve`, `submit`, `watch`, `scenario`,
//! `worker`, `fleet`, `journal-sha`) run end to end. Every test runs the
//! built binary with 4 ranks and 1 trial per point, on the `mini` problem
//! class unless the class is what it tests; a committed grammar runs at
//! its own ranks and trials. A test waits on a daemon with `watch`.

use fastfit::prelude::{Campaign, MlConfig, MlTarget, FEATURE_NAMES};
use fastfit_mlstore::{ModelRegistry, StoredModel, MODELS_DIR};
use fastfit_scenario::Grammar;
use fastfit_serve::{
    campaign_identity, http_request, resolve_config, resolve_workload, start, CampaignSpec,
    ServeConfig, RESULTS_FILE,
};
use fastfit_store::journal::{CampaignMeta, JOURNAL_FILE};
use fastfit_store::json::Json;
use fastfit_store::{durable_journal_lines, ml_target_token, read_store_meta};
use npb::Class;
use prng::Prng;
use randomforest::{ForestParams, RandomForest};
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

const SMALL: [&str; 4] = ["--ranks", "4", "--trials", "1"];

/// Run the CLI with `args` on the `mini` class. The test process resolves
/// specs under the same environment, so both sides see one scale.
fn cli(args: &[&str]) -> Output {
    cli_with(args, &[])
}

/// As [`cli`], with `env` applied to the child on top: a `None` value
/// removes the variable.
fn cli_with(args: &[&str], env: &[(&str, Option<&str>)]) -> Output {
    std::env::set_var("FASTFIT_CLASS", "mini");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fastfit-cli"));
    cmd.args(args);
    for (name, value) in env {
        match value {
            Some(v) => cmd.env(name, v),
            None => cmd.env_remove(name),
        };
    }
    cmd.output().expect("fastfit-cli runs")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("fastfit-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// `campaign --store DIR` with the small scale plus `extra`; the journal
/// meta it wrote and its campaign ID.
fn campaign(dir: &Path, extra: &[&str]) -> (String, CampaignMeta) {
    campaign_with(dir, extra, &[])
}

/// As [`campaign`], with `env` applied as in [`cli_with`].
fn campaign_with(
    dir: &Path,
    extra: &[&str],
    env: &[(&str, Option<&str>)],
) -> (String, CampaignMeta) {
    let mut args = vec!["campaign", "--store", dir.to_str().unwrap()];
    args.extend(SMALL);
    args.extend(extra);
    let out = cli_with(&args, env);
    assert!(
        out.status.success(),
        "campaign {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    read_store_meta(dir).expect("campaign journaled")
}

/// The durable journal lines: meta and trial records. Phase and round
/// records carry wall-clock seconds and are not part of the identity.
fn durable_lines(dir: &Path) -> Vec<String> {
    std::fs::read_to_string(dir.join(JOURNAL_FILE))
        .expect("journal exists")
        .lines()
        .filter(|l| !l.contains("\"t\":\"phase\"") && !l.contains("\"t\":\"round\""))
        .map(String::from)
        .collect()
}

#[test]
fn workload_case_does_not_change_the_campaign() {
    let lower = tmp_dir("lower");
    let upper = tmp_dir("upper");
    let (id_lower, meta) = campaign(&lower, &["--workload", "is"]);
    let (id_upper, _) = campaign(&upper, &["--workload", "IS"]);
    assert_eq!(meta.workload, "IS");
    assert_eq!(id_lower, id_upper);

    let spec = CampaignSpec {
        ranks: Some(4),
        trials: Some(1),
        ..CampaignSpec::new("is")
    };
    let c = Campaign::prepare(resolve_workload(&spec), resolve_config(&spec));
    let (_, resolved, _) = campaign_identity(&c, &spec, None, None);
    assert_eq!(id_upper, resolved.campaign_id());
    for d in [lower, upper] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

#[test]
fn seeds_and_params_reach_the_journal() {
    let dir = tmp_dir("seeds");
    let (_, meta) = campaign(
        &dir,
        &[
            "--workload",
            "IS",
            "--seed",
            "77",
            "--app-seed",
            "5",
            "--params",
            "only:sendbuf",
        ],
    );
    assert_eq!(meta.campaign_seed, 77);
    assert_eq!(meta.app_seed, 5);
    assert_eq!(meta.params, "only:sendbuf");
    std::fs::remove_dir_all(dir).unwrap();

    let out = cli(&["campaign", "--workload", "IS", "--params", "dta"]);
    assert_eq!(out.status.code(), Some(2), "a params typo is refused");
}

#[test]
fn unparsable_numbers_exit_2_naming_the_flag() {
    let cases: [(&[&str], &str); 10] = [
        (
            &["campaign", "--workload", "LAMMPS", "--steps", "x"],
            "--steps",
        ),
        (
            &["campaign", "--workload", "IS", "--ml", "--threshold", "x"],
            "--threshold",
        ),
        (&["campaign", "--workload", "IS", "--seed", "x"], "--seed"),
        (&["point", "--workload", "IS", "--rank", "x"], "--rank"),
        (
            &["point", "--workload", "IS", "--invocation", "x"],
            "--invocation",
        ),
        // A flag the verb does not take, misspelt or retired, is refused
        // rather than leaving its knob at the default.
        (&["campaign", "--trails", "5"], "--trails"),
        (&["campaign", "--max-retries", "2"], "--max-retries"),
        (&["journal-sha", "no-such-dir", "--all"], "--all"),
        (&["serve", "--budget", "x"], "--budget"),
        (
            &["serve", "--fleet", "--lease-trials", "x"],
            "--lease-trials",
        ),
    ];
    for (args, flag) in cases {
        assert_refused(args, flag);
    }
    // A malformed default the environment supplies is refused the same
    // way, naming the variable, instead of becoming the built-in default.
    let env_cases: [(&[&str], &str, &str); 3] = [
        (&["--ranks", "2", "--trials", "1"], "FASTFIT_CLASS", "smal"),
        (&["--ranks", "2"], "FASTFIT_TRIALS", "abc"),
        (&["--trials", "1"], "FASTFIT_RANKS", "0"),
    ];
    for (flags, name, bad) in env_cases {
        let mut args = vec!["campaign", "--workload", "IS"];
        args.extend(flags);
        let out = cli_with(&args, &[(name, Some(bad))]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}={bad}: {stderr}");
        assert!(
            stderr.contains(name),
            "{name}={bad} must be named: {stderr}"
        );
    }
}

/// `fastfit-cli args` exits 2 naming `flag` in its own message, not in
/// the usage text (which names every flag).
fn assert_refused(args: &[&str], flag: &str) {
    let out = cli(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
    assert!(
        !stderr.contains("usage:"),
        "{args:?} fell to usage: {stderr}"
    );
}

/// A cheap campaign: IS on 2 ranks, 1 trial per point, `MPI_Allreduce`
/// points only.
const CHEAP: [&str; 8] = [
    "--workload",
    "IS",
    "--ranks",
    "2",
    "--trials",
    "1",
    "--colls",
    "MPI_Allreduce",
];

/// A switch given a value is refused, not read as on: `false` after
/// `--resilient-transport` once journaled a resilient campaign.
#[test]
fn a_switch_given_a_value_is_refused() {
    let dir = tmp_dir("switch");
    let d = dir.to_str().unwrap();
    let campaign = |switch: &'static str, value: &'static str| {
        [&["campaign", "--store", d, switch, value][..], &CHEAP].concat()
    };
    let cases: [(Vec<&str>, &str); 6] = [
        (
            campaign("--resilient-transport", "false"),
            "--resilient-transport",
        ),
        (campaign("--ml", "no"), "--ml"),
        (vec!["serve", "--fleet", "off", "--budget", "0"], "--fleet"),
        (
            vec!["scenario", "--grammar", "none.json", "--costs", "no"],
            "--costs",
        ),
        (
            vec!["scenario", "--grammar", "none.json", "--submit", "no"],
            "--submit",
        ),
        (vec!["status", d, "--watch", "no"], "--watch"),
    ];
    for (args, flag) in cases {
        assert_refused(&args, flag);
    }
    assert!(!dir.exists(), "a refused campaign journals nothing");
}

/// `--threshold` tunes the ML loop, so a campaign without one refuses it
/// instead of running plain: each verb that describes a campaign, and
/// `resume` of a plain journal.
#[test]
fn a_threshold_without_ml_is_refused() {
    let dir = tmp_dir("threshold");
    let d = dir.to_str().unwrap();
    let verbs: [&[&str]; 4] = [
        &["campaign", "--store", d],
        &["profile"],
        &["point", "--site", "is.rs:1"],
        &["submit", "--addr", "127.0.0.1:1"],
    ];
    for verb in verbs {
        assert_refused(
            &[verb, &CHEAP, &["--threshold", "0.6"]].concat(),
            "--threshold",
        );
    }
    assert!(!dir.exists(), "a refused campaign journals nothing");
    campaign(&dir, &["--workload", "IS", "--colls", "MPI_Allreduce"]);
    assert_refused(&["resume", d, "--threshold", "0.6"], "--threshold");
    std::fs::remove_dir_all(dir).unwrap();
}

/// Every spec field has a flag, and `campaign --store D` with it journals
/// the campaign the daemon's parser and resolver make of the matching
/// `POST /campaigns` JSON. Each case changes one field of [`CHEAP`].
/// `warm_start` needs a registered model: that case is
/// `daemon_and_cli_run_one_warm_ml_campaign_identically`.
#[test]
fn each_spec_flag_journals_the_campaign_its_json_describes() {
    let cheap: [(&str, &[&str], &str); 4] = [
        ("workload", &CHEAP[0..2], "\"IS\""),
        ("ranks", &CHEAP[2..4], "2"),
        ("trials", &CHEAP[4..6], "1"),
        ("colls", &CHEAP[6..8], "[\"MPI_Allreduce\"]"),
    ];
    let cases: [(&str, &[&str], &str); 14] = [
        ("workload", &["--workload", "is"], "\"is\""),
        ("ranks", &["--ranks", "4"], "4"),
        ("trials", &["--trials", "2"], "2"),
        ("class", &["--class", "small"], "\"small\""),
        ("params", &["--params", "all"], "\"all\""),
        (
            "fault_channel",
            &["--fault-channel", "message"],
            "\"message\"",
        ),
        ("resilient", &["--resilient-transport"], "true"),
        ("seed", &["--seed", "77"], "77"),
        ("app_seed", &["--app-seed", "5"], "5"),
        ("steps", &["--steps", "3"], "3"),
        (
            "colls",
            &["--colls", "MPI_Allreduce,MPI_Alltoall"],
            "[\"MPI_Allreduce\",\"MPI_Alltoall\"]",
        ),
        ("ml_threshold", &["--ml", "--threshold", "0.6"], "0.6"),
        ("timeline", &["--timeline", "burst:2"], "\"burst:2\""),
        ("points", &["--points", "invocations"], "\"invocations\""),
    ];
    for field in CampaignSpec::FIELDS {
        let covered = field == "warm_start" || cases.iter().any(|(f, ..)| *f == field);
        assert!(covered, "no case sets {field}");
    }
    let mut ids = std::collections::BTreeSet::new();
    for (field, flags, value) in cases {
        let dir = tmp_dir(&format!("field-{field}"));
        let mut args = vec!["campaign", "--store", dir.to_str().unwrap()];
        let mut json = vec![format!("\"{field}\":{value}")];
        for (other, flags, value) in cheap.iter().filter(|(f, ..)| *f != field) {
            args.extend(*flags);
            json.push(format!("\"{other}\":{value}"));
        }
        args.extend(flags);
        let out = cli(&args);
        assert!(
            out.status.success(),
            "{field}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let (id, _) = read_store_meta(&dir).expect("campaign journaled");

        let doc = Json::parse(&format!("{{{}}}", json.join(","))).unwrap();
        let spec = CampaignSpec::from_json(&doc).unwrap();
        let c = Campaign::prepare(resolve_workload(&spec), resolve_config(&spec));
        let (_, resolved, _) = campaign_identity(&c, &spec, None, None);
        assert_eq!(id, resolved.campaign_id(), "{field}: {}", doc.encode());
        ids.insert(id);
        std::fs::remove_dir_all(dir).unwrap();
    }
    // Each flag reaches the campaign ID, but for the two that leave IS
    // as it was: the workload's case and LAMMPS' run length.
    assert_eq!(ids.len(), cases.len() - 1);
    // A token the spec does not know, and the pruned set for the ML loop,
    // are refused.
    for bad in [&["--points", "all"][..], &["--ml", "--points", "pruned"]] {
        assert_refused(&[&["campaign"][..], &CHEAP, bad].concat(), "points");
    }
}

/// Copy `full`'s journal into `cut`, up to and including its `k`th trial
/// line.
fn cut_journal(full: &Path, cut: &Path, k: usize) {
    let text = std::fs::read_to_string(full.join(JOURNAL_FILE)).unwrap();
    let trials = text
        .lines()
        .filter(|l| l.contains("\"t\":\"trial\""))
        .count();
    assert!(trials > k, "{trials} trial lines, need more than {k}");
    let mut kept = Vec::new();
    let mut seen = 0;
    for line in text.lines() {
        kept.push(line);
        seen += usize::from(line.contains("\"t\":\"trial\""));
        if seen == k {
            break;
        }
    }
    std::fs::create_dir_all(cut).unwrap();
    std::fs::write(cut.join(JOURNAL_FILE), kept.join("\n") + "\n").unwrap();
}

/// Cut a finished campaign's journal after `k` trial lines, `resume` the
/// cut copy, and compare it with the uninterrupted journal.
fn resume_matches_uninterrupted(tag: &str, extra: &[&str], k: usize) {
    let full = tmp_dir(&format!("{tag}-full"));
    let cut = tmp_dir(&format!("{tag}-cut"));
    let mut args = vec!["--workload", "IS"];
    args.extend(extra);
    campaign(&full, &args);
    cut_journal(&full, &cut, k);

    let out = cli(&["resume", cut.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{tag}: resume failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(durable_lines(&cut), durable_lines(&full), "{tag}");
    for d in [full, cut] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

/// The ID of FT at 4 ranks, 1 trial per point, `mini` — the one every
/// build has given it.
const FT_MINI_ID: &str = "ea313a59207b368607aaf3100fcab290e86b2a4210fa80d9b3b795060e655607";

/// The problem class is pinned into the journal. A `small` campaign
/// records it, and `resume` finishes a cut copy of it identically whatever
/// `FASTFIT_CLASS` says — unset or malformed. A `mini` campaign records no
/// class, so its ID is the one `mini` journals have always carried.
#[test]
fn the_class_is_journaled_and_resume_reads_it_back() {
    let mini = tmp_dir("class-mini");
    let (id, meta) = campaign(&mini, &["--workload", "FT"]);
    assert_eq!(id, FT_MINI_ID);
    assert_eq!(meta.class, None);
    let mini_lines = durable_lines(&mini);
    assert!(!mini_lines[0].contains("class"), "{}", mini_lines[0]);

    let small = tmp_dir("class-small");
    campaign_with(
        &small,
        &["--workload", "FT"],
        &[("FASTFIT_CLASS", Some("small"))],
    );
    let small_lines = durable_lines(&small);
    assert!(
        small_lines[0].contains("\"class\":\"small\""),
        "{}",
        small_lines[0]
    );
    assert_ne!(
        small_lines[1..],
        mini_lines[1..],
        "the class changes what FT measures"
    );

    for (k, class) in [(3, None), (8, Some("smal"))] {
        let cut = tmp_dir(&format!("class-small-cut-{k}"));
        cut_journal(&small, &cut, k);
        let out = cli_with(
            &["resume", cut.to_str().unwrap()],
            &[("FASTFIT_CLASS", class)],
        );
        assert!(
            out.status.success(),
            "resume under FASTFIT_CLASS={class:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(durable_lines(&cut), small_lines, "{class:?}");
        std::fs::remove_dir_all(cut).unwrap();
    }
    for d in [mini, small] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

/// A journal written at `small` by a build that did not journal the class
/// has the `mini` meta line: FT has one campaign ID at both classes.
/// `resume` reads it as `mini`, runs its journaled trials again, finds one
/// that does not reproduce, and refuses the store untouched instead of
/// finishing it at `mini`.
#[test]
fn a_classless_journal_written_at_another_class_is_refused() {
    let mini = tmp_dir("legacy-mini");
    let small = tmp_dir("legacy-small");
    campaign(&mini, &["--workload", "FT"]);
    campaign_with(
        &small,
        &["--workload", "FT"],
        &[("FASTFIT_CLASS", Some("small"))],
    );
    let mini_text = std::fs::read_to_string(mini.join(JOURNAL_FILE)).unwrap();
    let small_text = std::fs::read_to_string(small.join(JOURNAL_FILE)).unwrap();
    let legacy_text: Vec<&str> = mini_text
        .lines()
        .take(1)
        .chain(small_text.lines().skip(1))
        .collect();
    std::fs::write(small.join(JOURNAL_FILE), legacy_text.join("\n") + "\n").unwrap();
    assert_eq!(read_store_meta(&small).unwrap().0, FT_MINI_ID);

    // The first eight trials hold one that FT measures differently at
    // `small` and `mini`.
    let cut = tmp_dir("legacy-cut");
    cut_journal(&small, &cut, 8);
    let before = std::fs::read_to_string(cut.join(JOURNAL_FILE)).unwrap();
    let out = cli_with(
        &["resume", cut.to_str().unwrap()],
        &[("FASTFIT_CLASS", None)],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("records no problem class"), "{stderr}");
    assert_eq!(
        std::fs::read_to_string(cut.join(JOURNAL_FILE)).unwrap(),
        before,
        "a refused journal is left as it was"
    );
    for d in [mini, small, cut] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

/// A journal whose meta records an ID shorter than the 16 characters the
/// CLI shows is reported, not a crash: `status` prints it whole and
/// `resume` refuses it as another campaign's.
#[test]
fn a_journal_with_a_short_id_is_shown_whole() {
    let dir = tmp_dir("short-id");
    let (id, _) = campaign(&dir, &["--workload", "IS"]);
    let journal = dir.join(JOURNAL_FILE);
    let text = std::fs::read_to_string(&journal).unwrap();
    std::fs::write(&journal, text.replace(&id, "abc")).unwrap();

    let out = cli(&["status", dir.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("campaign abc — workload IS"), "{stdout}");

    let out = cli(&["resume", dir.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("holds campaign abc "), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A journal whose bits another random stream drew (a build on another
/// generator wrote it under the same campaign ID) is refused by `resume`
/// and left as it was, where it used to be extended with every journaled
/// trial run again under a new bit. The untouched journal resumes as
/// before. Plain campaigns seed a trial's bit by its point's place in the
/// pruned set, ML campaigns by its place in the ML population: both are
/// checked. The campaigns run at `small`, a class their journals record,
/// so no class check runs their trials again first.
#[test]
fn a_journal_drawn_by_another_stream_is_refused() {
    for (tag, extra) in [("stream-plain", &[][..]), ("stream-ml", &["--ml"][..])] {
        let full = tmp_dir(tag);
        let mut args = vec!["--workload", "IS"];
        args.extend(extra);
        campaign_with(&full, &args, &[("FASTFIT_CLASS", Some("small"))]);
        let untouched = tmp_dir(&format!("{tag}-untouched"));
        cut_journal(&full, &untouched, 3);
        let redrawn = tmp_dir(&format!("{tag}-redrawn"));
        cut_journal(&full, &redrawn, 3);

        let out = cli(&["resume", untouched.to_str().unwrap()]);
        assert!(
            out.status.success(),
            "{tag}: resume failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(durable_lines(&untouched), durable_lines(&full), "{tag}");

        let journal = redrawn.join(JOURNAL_FILE);
        let mut other = Prng::seed_from_u64(0xBAD_5EED);
        let text: Vec<String> = std::fs::read_to_string(&journal)
            .unwrap()
            .lines()
            .map(|line| match line.split_once("\"bit\":") {
                Some((head, tail)) => {
                    let digits = tail.find(|c: char| !c.is_ascii_digit()).unwrap();
                    format!("{head}\"bit\":{}{}", other.next_u64(), &tail[digits..])
                }
                None => line.to_string(),
            })
            .collect();
        std::fs::write(&journal, text.join("\n") + "\n").unwrap();
        let before = std::fs::read_to_string(&journal).unwrap();
        let out = cli(&["resume", redrawn.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{tag}: {stderr}");
        assert!(
            stderr.contains("drawn by another random stream"),
            "{tag}: {stderr}"
        );
        assert_eq!(
            std::fs::read_to_string(&journal).unwrap(),
            before,
            "{tag}: a refused journal is left as it was"
        );
        for d in [full, untouched, redrawn] {
            std::fs::remove_dir_all(d).unwrap();
        }
    }
}

#[test]
fn resume_reproduces_a_plain_journal() {
    resume_matches_uninterrupted("plain", &[], 3);
}

#[test]
fn resume_reproduces_an_ml_journal() {
    resume_matches_uninterrupted("ml", &["--ml"], 3);
}

/// A model both registries hold: the production feature schema and the
/// `rate_levels:3` target every ML spec resolves to.
fn warm_model() -> StoredModel {
    let (x, y): (Vec<Vec<f64>>, Vec<usize>) = (0..60)
        .map(|i| {
            let mut f = vec![0.0; FEATURE_NAMES.len()];
            f[0] = (i % 3) as f64;
            f[1] = (i % 7) as f64 * 0.1;
            (f, i % 3)
        })
        .unzip();
    StoredModel {
        workload: "IS".into(),
        channel: "param".into(),
        transport: "plain".into(),
        target: ml_target_token(MlTarget::RateLevels(3)),
        features: FEATURE_NAMES.iter().map(|s| s.to_string()).collect(),
        forest: RandomForest::fit(
            &x,
            &y,
            3,
            &ForestParams {
                n_trees: 5,
                seed: 3,
                ..Default::default()
            },
        ),
    }
}

/// One warm-started ML campaign, run by `fastfit-cli campaign --ml
/// --warm-start <id> --store D` and by the daemon from the spec those
/// flags describe, with the model in both registries: the two runs
/// journal the same durable lines and write the same `results.csv`.
#[test]
fn daemon_and_cli_run_one_warm_ml_campaign_identically() {
    let local = tmp_dir("ml-cli");
    let root = tmp_dir("ml-daemon");
    let model = warm_model();
    let id = ModelRegistry::open(&local.join(MODELS_DIR))
        .unwrap()
        .put(&model)
        .unwrap();
    let daemon_reg = ModelRegistry::open(&root.join(MODELS_DIR)).unwrap();
    assert_eq!(daemon_reg.put(&model).unwrap(), id);
    campaign(&local, &["--workload", "IS", "--ml", "--warm-start", &id]);

    let spec = CampaignSpec {
        ranks: Some(4),
        trials: Some(1),
        class: Some(Class::Mini),
        ml_threshold: Some(MlConfig::default().accuracy_threshold),
        warm_start: Some(id),
        ..CampaignSpec::new("IS")
    };
    let h = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::new(&root)
    })
    .expect("daemon starts");
    let addr = h.addr().to_string();
    let body = spec.to_json().encode();
    let r = http_request(
        &addr,
        "POST",
        "/campaigns",
        Some(("application/json", &body)),
    )
    .unwrap();
    assert_eq!(r.status, 201, "{}", r.body);
    let cid = Json::parse(&r.body)
        .unwrap()
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let r = http_request(&addr, "GET", &format!("/campaigns/{cid}/status"), None).unwrap();
        let state = Json::parse(&r.body)
            .ok()
            .and_then(|v| v.get("state").and_then(Json::as_str).map(String::from))
            .unwrap_or_default();
        assert!(
            !["failed", "cancelled"].contains(&state.as_str()),
            "{}",
            r.body
        );
        if state == "done" {
            break;
        }
        assert!(Instant::now() < deadline, "never done: {}", r.body);
        std::thread::sleep(Duration::from_millis(100));
    }
    h.shutdown();

    let daemon_dir = root.join("campaigns").join(&cid);
    assert_eq!(
        durable_journal_lines(&daemon_dir).unwrap(),
        durable_journal_lines(&local).unwrap()
    );
    assert_eq!(
        std::fs::read_to_string(daemon_dir.join(RESULTS_FILE)).unwrap(),
        std::fs::read_to_string(local.join(RESULTS_FILE)).unwrap()
    );
    for d in [local, root] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

/// `cli(args)`, which must succeed; its stdout.
fn cli_ok(args: &[&str]) -> String {
    let out = cli(args);
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// A committed example grammar.
fn example(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../examples/scenarios/{name}"))
}

/// A `fastfit-cli` child, killed and reaped when dropped, whether the test
/// passes or panics. It holds the pipe it was read from open.
struct Running {
    child: Child,
    pipe: BufReader<Box<dyn Read>>,
}

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Start `fastfit-cli args` and read its stdout, or its stderr, up to the
/// first line that contains `marker`: the child and that line.
fn spawn_until(args: &[&str], stderr: bool, marker: &str) -> (Running, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fastfit-cli"));
    cmd.args(args).env("FASTFIT_CLASS", "mini");
    if stderr {
        cmd.stderr(Stdio::piped());
    } else {
        cmd.stdout(Stdio::piped());
    }
    let mut child = cmd.spawn().expect("fastfit-cli starts");
    let pipe: Box<dyn Read> = if stderr {
        Box::new(child.stderr.take().unwrap())
    } else {
        Box::new(child.stdout.take().unwrap())
    };
    let mut running = Running {
        child,
        pipe: BufReader::new(pipe),
    };
    let mut line = String::new();
    while !line.contains(marker) {
        line.clear();
        let n = running.pipe.read_line(&mut line).unwrap();
        assert_ne!(n, 0, "{args:?} ended before printing {marker:?}");
    }
    (running, line)
}

/// `fastfit-cli serve` on `root` at a free port, plus `extra` flags: the
/// daemon and the address its `listening on` line names.
fn serve(root: &Path, extra: &[&str]) -> (Running, String) {
    let mut args = vec![
        "serve",
        "--root",
        root.to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
    ];
    args.extend(extra);
    let (daemon, line) = spawn_until(&args, false, "listening on ");
    let addr = line.split("listening on ").nth(1).unwrap();
    (daemon, addr.split_whitespace().next().unwrap().to_string())
}

/// `submit` the small scale plus `extra` to `addr`; the campaign ID.
fn submit(addr: &str, extra: &[&str]) -> String {
    let mut args = vec!["submit", "--addr", addr];
    args.extend(SMALL);
    args.extend(extra);
    let receipt = cli_ok(&args);
    let id = receipt.lines().next().and_then(|l| l.split(' ').nth(2));
    id.unwrap_or_else(|| panic!("no ID in {receipt:?}"))
        .to_string()
}

/// `watch` campaign `id` until it ends; it must end done.
fn watch(addr: &str, id: &str) {
    cli_ok(&["watch", id, "--addr", addr]);
}

/// `GET path`, which must answer 200; the body.
fn get(addr: &str, path: &str) -> String {
    let r = http_request(addr, "GET", path, None).expect("daemon reachable");
    assert_eq!(r.status, 200, "GET {path}: {}", r.body);
    r.body
}

/// The lines of `/metrics`.
fn metrics(addr: &str) -> Vec<String> {
    get(addr, "/metrics").lines().map(String::from).collect()
}

/// An operator's session with the daemon: `serve` on a free port, `submit`,
/// `watch`, `/metrics` and `results.csv`; then the committed channel
/// grammar previewed, and a four-member grammar submitted to a second
/// daemon, whose queue journals each member and whose golden store
/// records their one golden run once.
#[test]
fn serve_submit_watch_and_scenario_verbs_run_end_to_end() {
    let root = tmp_dir("serve");
    let (_daemon, addr) = serve(&root, &[]);
    let id = submit(&addr, &["--workload", "IS"]);
    watch(&addr, &id);
    let m = metrics(&addr);
    for line in ["campaigns_done 1", "campaigns_failed 0"] {
        assert!(m.iter().any(|l| l == line), "{line} in {m:?}");
    }
    let csv = get(&addr, &format!("/campaigns/{id}/results.csv"));
    assert!(csv.starts_with("site,kind,"), "{csv}");
    assert!(csv.lines().count() > 1, "results.csv has no rows");

    let preview = cli_ok(&[
        "scenario",
        "--grammar",
        example("channel-sweep.json").to_str().unwrap(),
    ]);
    let members = preview.lines().filter(|l| l.starts_with("  ")).count();
    assert!(
        members >= 24,
        "coverage floor: {members} members\n{preview}"
    );

    let sweep_root = tmp_dir("serve-sweep");
    let (_sweep_daemon, sweep_addr) = serve(&sweep_root, &[]);
    let grammar = sweep_root.join("sweep.json");
    std::fs::write(
        &grammar,
        r#"{"name": "verb-sweep", "base": {"trials": 2, "seed": 11, "app_seed": 1},
            "axes": {"workload": ["IS"], "ranks": [2],
                     "fault_channel": ["param", "crash-stop"], "resilient": [false, true]}}"#,
    )
    .unwrap();
    let receipt = cli_ok(&[
        "scenario",
        "--grammar",
        grammar.to_str().unwrap(),
        "--submit",
        "--addr",
        &sweep_addr,
    ]);
    assert!(receipt.contains(": 4 campaigns"), "{receipt}");
    let queue = std::fs::read_to_string(sweep_root.join("queue.jsonl")).unwrap();
    let events = |t: &str| queue.lines().filter(|l| l.contains(t)).count();
    assert_eq!(events("\"t\":\"submit\""), 4, "{queue}");
    assert_eq!(events("\"t\":\"scenario\""), 1, "{queue}");
    for line in receipt.lines() {
        if let Some(member) = line.strip_prefix("  campaign ") {
            watch(&sweep_addr, member);
        }
    }
    let m = metrics(&sweep_addr);
    assert!(m.iter().any(|l| l == "golden_runs_recorded 1"), "{m:?}");
    for d in [root, sweep_root] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

/// A fleet coordinator and two `worker` processes run one campaign in
/// leases of 4 trials: `/metrics` shows the fleet gauges, `fleet` shows the
/// coordinator, and the merged journal hashes as the same spec run on a
/// plain daemon.
#[test]
fn fleet_verbs_shard_a_campaign_that_hashes_as_on_one_host() {
    let root = tmp_dir("fleet");
    let (_coordinator, addr) = serve(&root, &["--fleet", "--lease-trials", "4"]);
    let _workers: Vec<Running> = ["w1", "w2"]
        .iter()
        .map(|name| {
            let args = ["worker", "--addr", &addr, "--name", name];
            spawn_until(&args, true, "registered as").0
        })
        .collect();
    let spec = ["--workload", "IS", "--seed", "11"];
    let id = submit(&addr, &spec);
    watch(&addr, &id);
    let m = metrics(&addr);
    for line in ["fleet_enabled 1", "fleet_workers_registered 2"] {
        assert!(m.iter().any(|l| l == line), "{line} in {m:?}");
    }
    for name in [
        "fleet_workers_alive ",
        "fleet_leases_active ",
        "fleet_leases_expired_total ",
        "fleet_releases_total ",
    ] {
        assert!(m.iter().any(|l| l.starts_with(name)), "{name} in {m:?}");
    }
    let fleet = cli_ok(&["fleet", "--addr", &addr]);
    assert!(fleet.contains("fleet mode: coordinator"), "{fleet}");
    assert!(fleet.contains("workers (2):"), "{fleet}");

    let single = tmp_dir("fleet-single");
    let (_daemon, single_addr) = serve(&single, &[]);
    let single_id = submit(&single_addr, &spec);
    watch(&single_addr, &single_id);
    let sha = |dir: PathBuf| cli_ok(&["journal-sha", dir.to_str().unwrap()]);
    assert_eq!(
        sha(root.join("campaigns").join(&id)),
        sha(single.join("campaigns").join(&single_id)),
        "the fleet's merged journal is the single-host one"
    );
    for d in [root, single] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

/// What a campaign's `status.json` rolls up: its response histograms,
/// `events_*` counts and `retransmits`, each encoded.
fn rollup(dir: &Path) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(dir.join("status.json")).unwrap();
    let Json::Obj(fields) = Json::parse(&text).unwrap() else {
        panic!("status.json is an object: {text}");
    };
    let rolled = ["responses", "events_", "retransmits"];
    fields
        .into_iter()
        .filter(|(k, _)| rolled.iter().any(|r| k.starts_with(r)))
        .map(|(k, v)| (k, v.encode()))
        .collect()
}

/// The committed burst+heal grammar (IS and HALO, 4 ranks, 2 trials per
/// point, at `mini`) run twice through one in-process daemon: every
/// member's rollups are the same in both runs, since timeline triggers
/// key to logical op progress, and both `burst:2+heal:3` members classify
/// trials SUCCESS after a lifted cut, which the resilient transport
/// recovers from by retransmitting.
#[test]
fn timeline_sweep_reruns_identically_and_heals() {
    std::env::set_var("FASTFIT_CLASS", "mini");
    let root = tmp_dir("timeline");
    let h = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::new(&root)
    })
    .expect("daemon starts");
    let addr = h.addr().to_string();
    let grammar = std::fs::read_to_string(example("timeline-sweep.json")).unwrap();
    let runs: Vec<Vec<Vec<(String, String)>>> = (0..2)
        .map(|_| {
            let body = Some(("application/json", grammar.as_str()));
            let r = http_request(&addr, "POST", "/scenarios", body).unwrap();
            assert_eq!(r.status, 201, "{}", r.body);
            let receipt = Json::parse(&r.body).unwrap();
            let ids = receipt.get("campaigns").and_then(Json::as_arr).unwrap();
            ids.iter()
                .map(|id| {
                    let id = id.as_str().unwrap();
                    watch(&addr, id);
                    rollup(&root.join("campaigns").join(id))
                })
                .collect()
        })
        .collect();
    h.shutdown();
    assert_eq!(runs[0], runs[1], "a rerun rolls up identically");

    let members = Grammar::parse(&grammar).unwrap().expand().unwrap();
    assert_eq!(members.len(), runs[0].len());
    let heals: Vec<&Vec<(String, String)>> = members
        .iter()
        .zip(&runs[0])
        .filter(|(s, _)| s.timeline.as_deref() == Some("burst:2+heal:3"))
        .map(|(_, rollup)| rollup)
        .collect();
    assert_eq!(heals.len(), 2);
    for rollup in heals {
        let field = |k: &str| rollup.iter().find(|(f, _)| f == k).map(|(_, v)| v.clone());
        let responses = Json::parse(&field("responses").unwrap()).unwrap();
        let success = responses.get("SUCCESS").and_then(Json::as_u64);
        assert!(
            success > Some(0),
            "the heal path classifies SUCCESS: {rollup:?}"
        );
        let count = |k: &str| field(k).and_then(|v| v.parse::<u64>().ok());
        assert!(
            count("events_lifted_message") > Some(0),
            "a cut lifts: {rollup:?}"
        );
        assert!(
            count("retransmits") > Some(0),
            "recovery retransmits: {rollup:?}"
        );
    }
    std::fs::remove_dir_all(root).unwrap();
}

/// Cross-workload transfer through the CLI: an IS ML campaign registers
/// its forest, `models` lists it, and FT warm-started from the registry
/// by `auto` measures strictly fewer points than cold FT, orders by vote
/// entropy and reports an out-of-bag accuracy every round. At threshold
/// 0.6, cold FT measures 12 points and warm FT 6.
#[test]
fn an_is_model_warm_starts_ft_with_fewer_points() {
    let dir = tmp_dir("transfer");
    let registry = dir.join("models");
    let reg = registry.to_str().unwrap();
    let ml = ["--ml", "--threshold", "0.6"];
    campaign(
        &dir.join("is"),
        &[&["--workload", "IS", "--registry", reg][..], &ml].concat(),
    );
    let models = cli_ok(&["models", reg]);
    assert!(models.contains("1 model(s)"), "{models}");
    assert!(
        models
            .lines()
            .any(|l| l.split_whitespace().nth(1) == Some("IS")),
        "{models}"
    );
    let ft = ["--workload", "FT"];
    campaign(&dir.join("cold"), &[&ft[..], &ml].concat());
    let warm = [&ft[..], &ml, &["--warm-start", "auto", "--registry", reg]].concat();
    campaign(&dir.join("warm"), &warm);

    let rounds = |run: &str| {
        let text = std::fs::read_to_string(dir.join(run).join("status.json")).unwrap();
        let status = Json::parse(&text).unwrap();
        status
            .get("ml_rounds")
            .and_then(Json::as_arr)
            .unwrap()
            .to_vec()
    };
    let measured = |rounds: &[Json]| -> u64 {
        rounds
            .iter()
            .map(|r| r.get("measured").and_then(Json::as_u64).unwrap())
            .sum()
    };
    let (cold, warm) = (rounds("cold"), rounds("warm"));
    assert!(
        measured(&warm) < measured(&cold),
        "warm {} points, cold {}",
        measured(&warm),
        measured(&cold)
    );
    assert_eq!(
        warm[0].get("ordering").and_then(Json::as_str),
        Some("entropy")
    );
    for round in &warm {
        let oob = round.get("oob_accuracy");
        assert!(oob.is_some_and(|v| *v != Json::Null), "{}", round.encode());
    }
    std::fs::remove_dir_all(dir).unwrap();
}

/// `experiments` runs each of its whole campaigns through the runner
/// `fastfit-cli campaign` uses: at 4 ranks and 2 trials per point, Figure
/// 10, the CG extension and the two transports, run twice on one store,
/// measure nothing fresh the second time and write the same CSVs; each
/// campaign's directory holds its `results.csv`, and the CG campaign's
/// directory is named by the campaign ID the CLI journals for the same
/// flags, with the same `journal-sha`.
#[test]
fn experiments_journal_each_campaign_as_the_cli_does() {
    let dir = tmp_dir("experiments");
    let store = dir.join("store");
    let scale = [("FASTFIT_RANKS", Some("4")), ("FASTFIT_TRIALS", Some("2"))];
    let run = |csv: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["fig10", "ext-cg", "ext-transport", "--store"])
            .arg(&store)
            .arg("--csv")
            .arg(dir.join(csv))
            .envs(scale.map(|(k, v)| (k, v.unwrap())))
            .env("FASTFIT_CLASS", "mini")
            .output()
            .expect("experiments runs");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(out.status.success(), "{stderr}");
        stderr
    };
    run("csv1");
    let again = run("csv2");
    let reports: Vec<&str> = again.lines().filter(|l| l.contains(" fresh ")).collect();
    assert_eq!(reports.len(), 4, "{again}");
    for line in reports {
        assert!(line.contains(", 0 fresh "), "a rerun measures: {line}");
    }
    let csvs = std::fs::read_dir(dir.join("csv1")).unwrap();
    let mut names: Vec<_> = csvs.map(|e| e.unwrap().file_name()).collect();
    names.sort();
    assert_eq!(names.len(), 4, "{names:?}");
    for name in names {
        assert_eq!(
            std::fs::read(dir.join("csv1").join(&name)).unwrap(),
            std::fs::read(dir.join("csv2").join(&name)).unwrap(),
            "{name:?}"
        );
    }
    let campaigns: Vec<PathBuf> = std::fs::read_dir(&store)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(campaigns.len(), 4, "{campaigns:?}");
    for d in &campaigns {
        assert!(d.join(RESULTS_FILE).is_file(), "{}", d.display());
    }

    let cg = dir.join("cg");
    let flags = ["campaign", "--workload", "CG", "--params", "all", "--store"];
    let out = cli_with(&[&flags[..], &[cg.to_str().unwrap()]].concat(), &scale);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (id, _) = read_store_meta(&cg).unwrap();
    let sha = |d: &Path| cli_ok(&["journal-sha", d.to_str().unwrap()]);
    assert_eq!(sha(&store.join(&id)), sha(&cg));
    std::fs::remove_dir_all(dir).unwrap();
}
