//! `fitbench` — the repository's benchmark.
//!
//! Time from a campaign request to its `results.csv`, on four workloads
//! that stress different layers, with per-layer numbers taken from
//! outside the crates: every value is the wall time of a call into a
//! public function of `simmpi`, `mpiprof`, `fastfit`, `npb`/`minimd`,
//! `fastfit-store`, `fastfit-mlstore`, `randomforest`,
//! `fastfit-scenario` or `fastfit-serve`, made with the default engine
//! and default knobs. `benchmark/README.md` is the manual.
//!
//! ```text
//! fitbench run --workload W --seed N --seconds S --trace 0|1
//!              [--out DIR] [--report FILE] [--deps real|offline-stubs]
//! fitbench compare A.json B.json
//! fitbench check-manifest [BENCHMARK.json]
//! ```

mod checks;
mod compare;
mod local;
mod manifest;
mod plan;
mod probes;
mod run;
mod service;
mod stats;
mod sys;
mod trace;
mod units;

use fastfit_store::json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  fitbench run --workload compute-local|wide-resilient|serve-sweep|fleet-shard
               [--seed N] [--seconds S] [--trace 0|1]
               [--out DIR] [--report FILE] [--deps real|offline-stubs]
  fitbench compare A.json B.json
  fitbench check-manifest [BENCHMARK.json]";

/// Value of `--name` in `args` (`--name value`).
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_run(args: &[String]) -> Result<run::RunArgs, String> {
    let name = flag(args, "--workload").ok_or("run needs --workload")?;
    let workload =
        plan::Workload::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let num = |name: &str, default: u64| -> Result<u64, String> {
        match flag(args, name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name} wants a non-negative integer, got {v:?}")),
        }
    };
    let trace = match flag(args, "--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace wants 0 or 1, got {v:?}")),
    };
    let out = PathBuf::from(flag(args, "--out").unwrap_or("benchmark/out"));
    Ok(run::RunArgs {
        workload,
        seed: num("--seed", 1)?,
        seconds: num("--seconds", 20)?,
        trace,
        report: flag(args, "--report")
            .map(PathBuf::from)
            .unwrap_or_else(|| out.join("result.json")),
        out,
        deps: flag(args, "--deps").unwrap_or("unknown").to_string(),
    })
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let args = parse_run(args)?;
    let result = run::run(&args)?;
    println!(
        "{} seed {} ({} run)",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    for (def, value) in &result.metrics {
        println!("  {:<38} {:>16.6} {}", def.name, value, def.unit);
    }
    println!(
        "  {:<38} {:>16.6} ratio  ({} failed of {} attempted)",
        "failed_frac",
        result.tally.failed as f64 / result.tally.attempted.max(1) as f64,
        result.tally.failed,
        result.tally.attempted
    );
    for note in result.notes.iter().chain(&result.tally.notes) {
        eprintln!("fitbench: {note}");
    }
    run::append_report(&args.report, &args, run::report_entry(&args, &result))?;
    println!("{}", run::result_line(&result));
    Ok(result.correct)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare wants two report files".into());
    };
    let (text, pass) = compare::compare(&read_json(a)?, &read_json(b)?)?;
    print!("{text}");
    Ok(pass)
}

fn cmd_check_manifest(args: &[String]) -> Result<bool, String> {
    let path = args.first().map(String::as_str).unwrap_or("BENCHMARK.json");
    let problems = manifest::check_manifest(&read_json(path)?);
    for p in &problems {
        println!("{p}");
    }
    if problems.is_empty() {
        println!(
            "{path}: {} end-to-end and {} per-layer metrics, declared and emitted alike",
            manifest::END_TO_END.len(),
            manifest::PER_LAYER.len()
        );
    }
    Ok(problems.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        Some((cmd, rest)) if cmd == "check-manifest" => cmd_check_manifest(rest),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("fitbench: {e}");
            ExitCode::from(2)
        }
    }
}
