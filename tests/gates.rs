//! The one-path rules, checked on the source. Each test is one rule: a
//! name that stays deleted, or a call that stands in exactly one place.
//! Every check reads the Rust sources of `crates/*/src`, `crates/*/tests`,
//! `src`, `tests` and `examples` without their `#[cfg(test)]` items, so a
//! unit test may name what production code may not. This file is not
//! read: its own patterns would match.

use std::path::Path;
use std::sync::OnceLock;

/// A Rust source: its path from the repository root, `/`-separated, and
/// its text with every test-only line blanked.
struct Source {
    path: String,
    text: String,
}

/// `full` with every test-only item blanked, line for line: a line that
/// opens with `#[cfg(test)]` or `#[cfg(all(test, ...))]`, and the item
/// after it through its first unindented line that ends in `}` or `;`. An
/// item, not the rest of the file: `simmpi/src/control.rs` has production
/// code after a test-only `thread_local!`.
fn outside_cfg_test(full: &str) -> String {
    let (mut out, mut skipping) = (String::new(), false);
    for line in full.split_inclusive('\n') {
        let l = line.trim_end();
        skipping |= l.starts_with("#[cfg(test)]") || l.starts_with("#[cfg(all(test");
        if skipping {
            out.push('\n');
            let unindented = l.starts_with(|c: char| !c.is_whitespace());
            skipping = !(unindented && (l.ends_with('}') || l.ends_with(';')));
        } else {
            out.push_str(line);
        }
    }
    out
}

fn sources() -> &'static [Source] {
    static SOURCES: OnceLock<Vec<Source>> = OnceLock::new();
    SOURCES.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut paths = Vec::new();
        for dir in ["src", "tests", "examples"] {
            collect(root, dir, &mut paths);
        }
        for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
            let name = krate.unwrap().file_name().into_string().unwrap();
            collect(root, &format!("crates/{name}/src"), &mut paths);
            collect(root, &format!("crates/{name}/tests"), &mut paths);
        }
        paths.sort();
        paths
            .into_iter()
            .filter(|path| path != "tests/gates.rs")
            .map(|path| {
                let full = std::fs::read_to_string(root.join(&path)).unwrap();
                let text = outside_cfg_test(&full);
                Source { path, text }
            })
            .collect()
    })
}

fn collect(root: &Path, dir: &str, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(root.join(dir)) else {
        return;
    };
    for entry in entries {
        let name = entry.unwrap().file_name().into_string().unwrap();
        let path = format!("{dir}/{name}");
        if root.join(&path).is_dir() {
            collect(root, &path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// The text of one source.
fn source(path: &str) -> &'static str {
    let s = sources().iter().find(|s| s.path == path);
    &s.unwrap_or_else(|| panic!("no source {path}")).text
}

/// The lines of `text` that `matches`, as `path:line: text`.
fn grep(path: &str, text: &str, matches: impl Fn(&str) -> bool) -> Vec<String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| matches(l))
        .map(|(i, l)| format!("{path}:{}: {}", i + 1, l.trim()))
        .collect()
}

/// [`grep`] over every source whose path `in_path` accepts.
fn hits(in_path: impl Fn(&str) -> bool, matches: impl Fn(&str) -> bool) -> Vec<String> {
    sources()
        .iter()
        .filter(|s| in_path(&s.path))
        .flat_map(|s| grep(&s.path, &s.text, &matches))
        .collect()
}

/// The number of lines of one source that contain `needle`.
fn count(path: &str, needle: &str) -> usize {
    grep(path, source(path), |l| l.contains(needle)).len()
}

fn crate_src(path: &str) -> bool {
    path.starts_with("crates/") && path.contains("/src/")
}

fn under(dir: &str) -> impl Fn(&str) -> bool + '_ {
    move |path| path.starts_with(dir)
}

/// A line that contains one of the `|`-separated `alternatives`.
fn contains_any(alternatives: &str) -> impl Fn(&str) -> bool + '_ {
    move |l| alternatives.split('|').any(|n| l.contains(n))
}

/// The [`hits`] outside `places`: each a path and a text the line must
/// contain to be let through ("" for any line of that path).
fn stray(
    in_path: impl Fn(&str) -> bool,
    matches: impl Fn(&str) -> bool,
    places: &[(&str, &str)],
) -> Vec<String> {
    let allowed = |h: &String| {
        places
            .iter()
            .any(|(path, text)| h.starts_with(&format!("{path}:")) && h.contains(text))
    };
    hits(in_path, matches)
        .into_iter()
        .filter(|h| !allowed(h))
        .collect()
}

fn assert_none(what: &str, stray: &[String]) {
    assert!(stray.is_empty(), "{what}:\n{}", stray.join("\n"));
}

/// No source names any of the `|`-separated `names`.
fn stays_deleted(names: &str) {
    assert_none(
        "deleted names are back",
        &hits(|_| true, contains_any(names)),
    );
}

/// Split `text` into the lines of every item that opens on a line starting
/// with `header` and closes at the next line that is exactly `    }`, and
/// the rest. Both keep their line count: a line of the other part is blank.
fn split_items(text: &str, header: &str) -> (String, String) {
    let (mut inside, mut outside, mut open) = (String::new(), String::new(), false);
    for line in text.lines() {
        open |= line.starts_with(header);
        let (keep, blank) = if open {
            (&mut inside, &mut outside)
        } else {
            (&mut outside, &mut inside)
        };
        keep.push_str(line);
        keep.push('\n');
        blank.push('\n');
        open &= line != "    }";
    }
    (inside, outside)
}

#[test]
fn reader_blanks_test_only_items() {
    let file = "fn run() {\n    helper();\n}\n#[cfg(test)]\nthread_local! {\n    \
                static N: u8 = 0;\n}\nfn after() {}\n\n#[cfg(all(test, unix))]\n\
                mod tests {\n    fn helper() {\n    }\n}\n";
    assert_eq!(
        outside_cfg_test(file),
        "fn run() {\n    helper();\n}\n\n\n\n\nfn after() {}\n\n\n\n\n\n\n"
    );
    assert_eq!(
        outside_cfg_test("#[cfg(test)] use a::b;\nfn c() {}\n"),
        "\nfn c() {}\n"
    );
    // Indented, the attribute marks an item inside one that stays.
    let inner = "mod m {\n    #[cfg(test)]\n    fn t() {}\n}\n";
    assert_eq!(outside_cfg_test(inner), inner);
    let (inside, outside) = split_items("a\n    fn f(\n        x\n    }\nb\n", "    fn f(");
    assert_eq!(inside, "\n    fn f(\n        x\n    }\n\n");
    assert_eq!(outside, "a\n\n\n\nb\n");
}

const CAMPAIGN: &str = "crates/core/src/campaign.rs";
const RUN: &str = "crates/serve/src/run.rs";
const WORKLOAD: &str = "crates/serve/src/workload.rs";
const SIMMPI: &str = "crates/simmpi/src/";

/// A campaign has one description (DESIGN.md §13): the CLI flags, `resume`
/// and the experiments build a `CampaignSpec` and resolve it through
/// `fastfit_serve::workload`, and every ML campaign runs the one feedback
/// loop in `crates/core/src/campaign.rs`. The CLI's flags reach a spec only
/// as the JSON its one flag table lowers them to, so it keeps no parser of
/// a campaign and reads no switch by its mere presence in a map.
#[test]
fn one_description_of_a_campaign() {
    stays_deleted(
        "fn build_workload|fn build_config|npb_workload|lammps_workload|FASTFIT_BENCH_|ml-order|\
         fn spec_from_flags|fn parse_colls|SPEC_FLAGS",
    );
    let cli = "crates/bench/src/bin/fastfit-cli.rs";
    let switches = grep(cli, source(cli), |l| l.contains("contains_key("));
    assert_none("a flag map read with contains_key", &switches);
    let loops = hits(
        |p| p.starts_with("crates/") && !p.contains("/prune/"),
        |l| l.contains("ml_driven_active("),
    );
    assert_eq!(loops.len(), 1, "one ML loop:\n{}", loops.join("\n"));
}

/// The environment is read in one place: `EnvDefaults` in
/// `crates/serve/src/workload.rs`. The binaries take their output
/// directories as flags.
#[test]
fn one_place_reads_the_environment() {
    stays_deleted(
        "from_env|ranks_from_env|FASTFIT_FAULT_CHANNEL|FASTFIT_RESILIENT|FASTFIT_TIMELINE|\
         FASTFIT_FIG3_INV|FASTFIT_STORE_DIR|FASTFIT_CSV_DIR",
    );
    let reads = stray(crate_src, |l| l.contains("env::var"), &[(WORKLOAD, "")]);
    assert_none("env::var outside its places", &reads);
}

/// One trial policy (DESIGN.md §10): the op budget, the wall backstop and
/// the retry count are constants of `crates/core`, so no variable, flag or
/// config field can change a journal its campaign ID does not name. The
/// one place a retired flag is named is the CLI test that proves it is
/// refused.
#[test]
fn one_trial_policy() {
    let places = [("crates/bench/tests/cli.rs", "\"--max-retries\"")];
    let back = stray(
        |_| true,
        contains_any(
            "FASTFIT_TIMEOUT_MULT|FASTFIT_MAX_RETRIES|max-retries|op-budget-mult|\
             TrialSupervisor|timeout_mult|min_timeout|op_budget_mult|min_op_budget|\
             max_retries|retry_backoff",
        ),
        &places,
    );
    assert_none("deleted names are back", &back);
}

/// One way to run a job and one supervisor: the stall sweep and the
/// Stalled verdict each exist once in simmpi.
#[test]
fn one_execution_path_one_supervisor() {
    stays_deleted("reuse_workers|FASTFIT_REUSE_WORKERS|FASTFIT_SCHED|DRAIN_GRACE|done_epoch");
    for pat in ["fabric.stuck(", "record_hang(HangKind::Stalled)"] {
        let found = hits(under(SIMMPI), |l| l.contains(pat));
        assert_eq!(
            found.len(),
            1,
            "{pat} once in simmpi:\n{}",
            found.join("\n")
        );
    }
}

/// One measurement loop (DESIGN.md §19): no rayon fork, and trials run
/// from one `execute` step.
#[test]
fn one_measurement_loop() {
    stays_deleted("rayon|par_iter|parallel:");
    assert_eq!(count(CAMPAIGN, "self.run_trial("), 1);
}

/// One seam between a collective's entry and its result (DESIGN.md §20),
/// and one place that runs a trial's job. The rendezvous (DESIGN.md §12)
/// is entered from that seam alone, beside the algorithm it stands in
/// for, and the job's hook and engine alone choose it: no `JobSpec`
/// field, config, flag or variable outside simmpi names it.
#[test]
fn one_exchange_seam() {
    let ctx = "crates/simmpi/src/ctx.rs";
    assert_eq!(count(ctx, "self.env("), 1);
    assert_eq!(count(CAMPAIGN, "self.arena.run("), 1);
    let entries = hits(under(SIMMPI), |l| l.contains("rendezvous::exchange("));
    assert_eq!(entries.len(), 1, "one way in:\n{}", entries.join("\n"));
    let (seam, _) = split_items(source(ctx), "    fn exchange(");
    let line = |needle: &str| {
        let found = seam.lines().position(|l| l.contains(needle));
        found.unwrap_or_else(|| panic!("RankCtx::exchange has no {needle}"))
    };
    let (env, enter, alg) = (
        line("let env = self.env(d);"),
        line("rendezvous::exchange(&env, alg)"),
        line("alg.run(&env)"),
    );
    assert!(
        env < enter && enter < alg && alg - env <= 4,
        "the rendezvous sits beside the algorithm"
    );
    let chosen = hits(under(SIMMPI), |l| {
        l.contains("rendezvous: ") && !l.trim_end().ends_with("bool,")
    });
    let choices = [
        "rendezvous: spec.hook.is_none() && engine == Engine::Coop,",
        "rendezvous: job.rendezvous,",
    ];
    assert_eq!(chosen.len(), choices.len(), "{}", chosen.join("\n"));
    assert!(
        chosen.iter().zip(choices).all(|(l, c)| l.ends_with(c)),
        "{}",
        chosen.join("\n")
    );
    let spec = source("crates/simmpi/src/runtime.rs")
        .split("pub struct JobSpec {")
        .nth(1)
        .and_then(|rest| rest.split("\n}\n").next())
        .expect("JobSpec");
    assert!(
        !spec.to_lowercase().contains("rendezvous"),
        "a JobSpec field names it"
    );
    let named = stray(
        |p| !p.starts_with("crates/simmpi/"),
        |l| l.to_lowercase().contains("rendezvous"),
        &[],
    );
    assert_none("the rendezvous named outside simmpi", &named);
}

/// A trial ends early in one way (DESIGN.md §21): simmpi stores the
/// absorbed flag once, and the golden outputs stand in for a job's in
/// `run_trial_job`, where that flag is read.
#[test]
fn one_place_a_trial_ends_absorbed() {
    let stores = hits(under(SIMMPI), |l| l.contains("absorbed.store("));
    assert_eq!(stores.len(), 1, "{}", stores.join("\n"));
    let golden = "outputs: self.golden.clone()";
    assert_eq!(count(CAMPAIGN, golden), 1);
    let (job, _) = split_items(source(CAMPAIGN), "    fn run_trial_job(");
    assert!(job.contains(golden), "that place must be run_trial_job");
}

/// Everything a crash can leave in a file is decided in one module
/// (DESIGN.md §9): no other source truncates, syncs, renames or opens for
/// append, and the service and the store write whole files through
/// `replace_file`, except the derived `status.json`.
#[test]
fn one_durable_file_layer() {
    let telemetry = "crates/store/src/telemetry.rs";
    let durable = contains_any("set_len(|sync_data(|sync_all(|fs::rename(|.append(true)");
    let places = [
        ("crates/store/src/durable.rs", ""),
        (telemetry, "std::fs::rename(&tmp, &target)"),
    ];
    let found = stray(crate_src, durable, &places);
    assert_none("durable-file code outside durable.rs", &found);
    let service =
        |p: &str| p.starts_with("crates/serve/src/") || p.starts_with("crates/store/src/");
    let places = [(telemetry, "std::fs::write(&tmp, self.to_json()")];
    let found = stray(service, |l| l.contains("fs::write("), &places);
    assert_none("a whole-file write outside replace_file", &found);
}

/// A long-lived process prepares a campaign in one place (DESIGN.md §20):
/// the golden store.
#[test]
fn one_golden_store() {
    let prepares = contains_any("Campaign::prepare|from_pruned(|GoldenRun::record(");
    let places = [("crates/serve/src/golden.rs", "")];
    let found = stray(under("crates/serve/src/"), prepares, &places);
    assert_none("campaign preparation outside the golden store", &found);
}

/// A prepared campaign is run in one place (DESIGN.md §13 "One campaign
/// runner"): `serve::run`. `experiments` keeps no runner of its own.
#[test]
fn one_campaign_runner() {
    stays_deleted("fn store_for|fn run_points_stored|ExpContext|QuarantineLog");
    let rules: [(&str, &[&str]); 5] = [
        ("CampaignStore::open(", &[RUN]),
        ("open_store(", &[RUN]),
        ("run_ml_loop(", &[CAMPAIGN, RUN]),
        ("resolve_warm_start(", &[WORKLOAD, RUN]),
        ("campaign_identity(", &[WORKLOAD, RUN]),
    ];
    for (call, paths) in rules {
        let places: Vec<(&str, &str)> = paths.iter().map(|p| (*p, "")).collect();
        let found = stray(crate_src, |l| l.contains(call), &places);
        assert_none(&format!("{call} outside serve::run"), &found);
    }
}

/// `next_seq`, `next_scenario_seq`, `next_wseq` or `next_lseq` assigned:
/// `=`, `+=`, `-=` or `*=` followed by anything but `=`.
fn moves_a_seqno(line: &str) -> bool {
    ["next_seq", "next_scenario_seq", "next_wseq", "next_lseq"]
        .iter()
        .any(|name| {
            line.match_indices(name).any(|(at, _)| {
                let word = |c: char| c.is_alphanumeric() || c == '_';
                if line[..at].ends_with(word) {
                    return false;
                }
                let rest = line[at + name.len()..].trim_start();
                let rest = rest.strip_prefix(['-', '+', '*']).unwrap_or(rest);
                rest.strip_prefix('=')
                    .is_some_and(|r| !r.is_empty() && !r.starts_with('='))
            })
        })
}

/// The queue log is folded by one rule per event (DESIGN.md §13 "Durable
/// submission queue"): no source in the service moves a sequence number
/// except `SchedState::apply` and `FleetState::apply`.
#[test]
fn one_queue_fold() {
    stays_deleted(
        "pending_submissions|fleet_records|scenario_records|RestoredLease|FleetState::recovered",
    );
    let stray: Vec<String> = sources()
        .iter()
        .filter(|s| s.path.starts_with("crates/serve/src/"))
        .flat_map(|s| {
            let (_, rest) = split_items(&s.text, "    pub(crate) fn apply(");
            grep(&s.path, &rest, moves_a_seqno)
        })
        .collect();
    assert_none("a sequence number moved outside apply", &stray);
}

/// Each campaign operation has one public way in (DESIGN.md §19 "One way
/// in per operation"), and a trial is classified only inside the
/// supervised attempt.
#[test]
fn one_way_in_per_operation() {
    stays_deleted(
        "prepare_on_engine|prepare_with_pool|from_golden|run_trial_detailed|run_trial_supervised|\
         measure_point_observed|measure_point_slice_observed|run_with_ml|ml_driven_observed|\
         .run_points(",
    );
    let attempt = "    fn run_trial_attempt(";
    let calls = |l: &str| l.contains("classify_trial(") && !l.contains("fn classify_trial(");
    let stray: Vec<String> = sources()
        .iter()
        .filter(|s| crate_src(&s.path))
        .flat_map(|s| grep(&s.path, &split_items(&s.text, attempt).1, calls))
        .collect();
    assert_none("classify_trial called outside run_trial_attempt", &stray);
    let (inside, _) = split_items(source(CAMPAIGN), attempt);
    assert_eq!(
        grep("", &inside, |l| l.contains("classify_trial(")).len(),
        1
    );
}

/// The coop path waits on no wall-clock timer. Two sleeps exist in
/// sched.rs: `rank_sleep`'s branch for a rank thread, and the nap of a
/// job that can only end at its deadline.
#[test]
fn no_wall_clock_sleep_on_the_coop_path() {
    let sched = "crates/simmpi/src/sched.rs";
    // A `sleep` named by its path, as `std::thread`'s is; not
    // `coro::sleep_until`.
    let sleeps = |l: &str| {
        l.match_indices("::sleep").any(|(at, m)| {
            !l[at + m.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
        })
    };
    let known = contains_any("sleep(dur);|sleep(DEADLINE_NAP);");
    let extra = grep(sched, source(sched), |l| sleeps(l) && !known(l));
    assert_none("unexpected sleep in the coop scheduler", &extra);
    assert_eq!(grep(sched, source(sched), sleeps).len(), 2);
    let nap = hits(under(SIMMPI), |l| l.contains("IDLE_NAP"));
    assert_none("IDLE_NAP is back", &nap);
}

/// A coop rank parks by yielding, so nothing notifies a condvar nobody
/// sleeps on. Three notifies exist in simmpi: the mailbox wake in enqueue
/// and in drop_on_wire, each behind the owner's sleeper flag, and
/// rank_done's, behind wait_done_for's sleeper count.
#[test]
fn no_futex_wake_on_the_coop_path() {
    let simmpi = sources().iter().filter(|s| s.path.starts_with(SIMMPI));
    let (mut notifies, mut unguarded) = (0, Vec::new());
    for s in simmpi {
        let lines: Vec<&str> = s.text.lines().collect();
        for (i, line) in lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.contains("notify_"))
        {
            notifies += 1;
            let guard = i.checked_sub(1).map_or("", |j| lines[j]);
            if !contains_any("notify_|if st.asleep|if done.sleepers > 0 {")(guard) {
                unguarded.push(format!("{}:{}: {}", s.path, i + 1, line.trim()));
            }
        }
    }
    assert_eq!(notifies, 3, "the three known notifies in simmpi");
    assert_none("a notify outside the sleeper or waiter check", &unguarded);
}

/// A campaign's progress is counted once (DESIGN.md §9 "Telemetry"): the
/// store keeps its counts in the `StatusSnapshot` it writes, under the
/// journal lock, and uses no atomic.
#[test]
fn one_progress_tally() {
    stays_deleted("struct Telemetry|Telemetry::");
    let atomic = |l: &str| {
        l.contains("sync::atomic")
            || l.match_indices("Atomic")
                .any(|(at, _)| l[at + 6..].starts_with(|c: char| c.is_ascii_uppercase()))
    };
    assert_none(
        "an atomic in the store",
        &hits(under("crates/store/src/"), atomic),
    );
}

/// One differential oracle (DESIGN.md §22): every byte-identity claim is
/// a planned run of the oracle in `tests/oracle/`. The suites that hold
/// the plan, `determinism` among them, store and compare no journal of
/// their own; the service suites, whose lifecycle tests may open a store
/// or a runner, compare what they leave through the oracle and run no
/// campaign of their own to compare with; and under `tests/` the reference
/// path is pinned only by the oracle, its guard tests in
/// `tests/equivalence.rs` and the arena rig, which runs every trial to its
/// end.
#[test]
fn one_differential_oracle() {
    let suites = |p: &str| p.ends_with("_equivalence.rs") || p == "tests/determinism.rs";
    let journals = contains_any("CampaignStore|durable_journal_lines|journal_content_sha|pin_");
    let service = |p: &str| {
        [
            "tests/serve.rs",
            "tests/fleet.rs",
            "tests/scenario_sweep.rs",
        ]
        .contains(&p)
    };
    let compared = contains_any("durable_journal_lines|journal_content_sha|fn run_local");
    let outside = [hits(suites, journals), hits(service, compared)].concat();
    assert_none("a journal compared outside the oracle", &outside);
    let places = [
        ("tests/oracle/mod.rs", ""),
        ("tests/equivalence.rs", ""),
        ("tests/arena.rs", ""),
    ];
    let pins = stray(under("tests/"), |l| l.contains("pin_replay("), &places);
    assert_none("pin_replay( outside the oracle", &pins);
}

/// A line that compares or builds the lifecycle token `token` as a string:
/// `== "done"`, `"done" =>`, `| "done"`, `contains_key("done")`,
/// `Json::Str("done".into())`, or a bare `"done"` as a branch's value. A
/// JSON key, `("done", Json::U64(n))`, is none of these.
fn handles_token(line: &str, token: &str) -> bool {
    let q = format!("\"{token}\"");
    let l = line.trim();
    let shapes = [
        format!("== {q}"),
        format!("!= {q}"),
        format!("{q} =="),
        format!("{q} !="),
        format!("{q} =>"),
        format!("{q} |"),
        format!("| {q}"),
        format!("{q})"),
        format!("Str({q}"),
        format!("{q}."),
    ];
    l == q || shapes.iter().any(|shape| l.contains(shape.as_str()))
}

/// A campaign has one lifecycle (DESIGN.md §13 "One lifecycle"):
/// `CampaignState`, whose tokens only `telemetry.rs` spells. Every other
/// source decides on the enum; `queue.rs` keeps its durable event tags.
#[test]
fn one_lifecycle() {
    stays_deleted("EntryState");
    assert!(handles_token("if s == \"done\" {", "done"));
    assert!(handles_token(
        "\"cancelled\" | \"failed\" => exit(1),",
        "failed"
    ));
    assert!(!handles_token(
        "(\"done\", Json::U64(done as u64)),",
        "done"
    ));
    let tokens = [
        "queued",
        "running",
        "done",
        "cancelled",
        "failed",
        "interrupted",
    ];
    let places = [
        ("crates/store/src/telemetry.rs", ""),
        ("crates/serve/src/queue.rs", ""),
    ];
    let found = stray(
        crate_src,
        |l| tokens.iter().any(|t| handles_token(l, t)),
        &places,
    );
    assert_none("a lifecycle token handled as a string", &found);
}
