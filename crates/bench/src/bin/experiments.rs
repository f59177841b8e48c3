//! Regenerate every table and figure of the FastFIT paper's evaluation.
//!
//! Usage:
//!   experiments `<id> [<id> ...]`     run specific experiments
//!   experiments all                 run everything (EXPERIMENTS.md order)
//!
//! Ids: fig1 fig2 fig3 fig4 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13
//!      tab3 tab4 profile
//! Extensions beyond the paper: ext-cg ext-trials ext-algos
//!      ext-propagation ext-transport ext-timeline
//! Perf trajectory: bench (writes schema-stable BENCH.json; see
//!      FASTFIT_BENCH_TRIALS / FASTFIT_BENCH_OUT)
//! Set FASTFIT_CSV_DIR to also write machine-readable CSVs.
//!
//! Scale knobs: FASTFIT_RANKS, FASTFIT_TRIALS, FASTFIT_CLASS (see README).
//! Set FASTFIT_STORE_DIR to journal the shared campaigns to durable store
//! directories (one per campaign under that root) — an interrupted
//! `experiments` run then resumes its campaigns instead of remeasuring.

use fastfit::prelude::*;
use fastfit_bench::{experiment_campaign_config, lammps_workload, npb_workload};
use fastfit_store::{campaign_meta, CampaignStore};
use randomforest::{gaussian_fit, histogram, ForestParams, RandomForest};
use simmpi::hook::{CollKind, ParamId};
use std::collections::BTreeMap;
use std::time::Instant;

/// Restrict All-mode campaign results to the paper's §V-C default fault
/// set: the data buffer where one exists, the communicator for Barrier.
fn data_buffer_subset(results: &[PointResult]) -> Vec<PointResult> {
    results
        .iter()
        .filter(|p| {
            p.point.param == ParamId::SendBuf
                || (p.point.kind == CollKind::Barrier && p.point.param == ParamId::Comm)
        })
        .cloned()
        .collect()
}

fn trials() -> usize {
    CampaignConfig::from_env().trials_per_point
}

fn csv_dir() -> Option<String> {
    std::env::var("FASTFIT_CSV_DIR").ok()
}

/// Open a campaign store under `$FASTFIT_STORE_DIR/<tag>` for one of the
/// shared campaigns, if the variable is set. Store failures (a directory
/// holding a different campaign, say) disable persistence for that
/// campaign rather than aborting the whole experiments run.
fn store_for(c: &Campaign, points: &[InjectionPoint], tag: &str) -> Option<CampaignStore> {
    let base = std::env::var("FASTFIT_STORE_DIR")
        .ok()
        .filter(|s| !s.is_empty())?;
    let dir = std::path::Path::new(&base).join(tag);
    match CampaignStore::open(&dir, campaign_meta(c, points, None)) {
        Ok(s) => {
            if s.replayable_trials() > 0 {
                eprintln!(
                    "[{}] resuming from {}: {} journaled trials",
                    tag,
                    dir.display(),
                    s.replayable_trials()
                );
            }
            Some(s)
        }
        Err(e) => {
            eprintln!("[{}] store disabled: {}", tag, e);
            None
        }
    }
}

/// Run a point set through the campaign, journaled when a store opened.
fn run_points_stored(c: &Campaign, points: &[InjectionPoint], tag: &str) -> CampaignResult {
    match store_for(c, points, tag) {
        Some(s) => {
            let r = c.run_points_observed(points, &s);
            if let Err(e) = s.finish() {
                eprintln!("[{}] final store flush failed: {}", tag, e);
            }
            r
        }
        None => c.run_points(points),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: experiments <fig1|fig2|fig3|fig4|fig6|fig7|fig8|fig9|fig10|fig11|fig12|fig13|tab3|tab4|profile|bench|all> ...");
        std::process::exit(2);
    }
    let mut ctx = ExpContext::default();
    let t0 = Instant::now();
    for a in &args {
        match a.as_str() {
            "profile" => profile_report(),
            "fig1" => fig1(),
            "fig2" => fig2(),
            "fig3" => fig3(),
            "fig4" => fig4(&mut ctx),
            "fig6" => fig6(&mut ctx),
            "fig7" => fig7(&mut ctx),
            "fig8" => fig8(&mut ctx),
            "fig9" => fig9(&mut ctx),
            "fig10" => fig10(&mut ctx),
            "fig11" => fig11(&mut ctx),
            "fig12" => fig12(&mut ctx),
            "fig13" => fig13(&mut ctx),
            "tab3" => tab3(&mut ctx),
            "tab4" => tab4(&mut ctx),
            "ext-cg" => ext_cg(),
            "ext-trials" => ext_trials(),
            "ext-algos" => ext_algos(),
            "ext-propagation" => ext_propagation(),
            "ext-transport" => ext_transport(),
            "ext-timeline" => ext_timeline(),
            "bench" => bench_verb(),
            "all" => {
                profile_report();
                fig1();
                fig2();
                fig3();
                fig7(&mut ctx);
                fig8(&mut ctx);
                fig9(&mut ctx);
                fig10(&mut ctx);
                fig11(&mut ctx);
                fig4(&mut ctx);
                fig6(&mut ctx);
                fig12(&mut ctx);
                fig13(&mut ctx);
                tab3(&mut ctx);
                tab4(&mut ctx);
                ext_cg();
                ext_trials();
                ext_algos();
                ext_propagation();
                ext_transport();
                ext_timeline();
            }
            other => {
                eprintln!("unknown experiment {other:?}");
                std::process::exit(2);
            }
        }
    }
    println!("\n[experiments done in {:?}]", t0.elapsed());
}

/// Campaign results shared between experiments in one invocation.
#[derive(Default)]
struct ExpContext {
    /// NPB campaigns in ParamsMode::All, keyed by kernel name.
    npb_all: Option<Vec<(String, Campaign, CampaignResult)>>,
    /// LAMMPS campaign in ParamsMode::All.
    lammps_all: Option<(Campaign, CampaignResult)>,
    /// LAMMPS ML-study campaign: data-buffer faults on every invocation of
    /// the representative rank (the post-semantic population the ML stage
    /// works through at paper scale).
    lammps_ml: Option<(Campaign, CampaignResult)>,
}

impl ExpContext {
    fn npb(&mut self) -> &Vec<(String, Campaign, CampaignResult)> {
        if self.npb_all.is_none() {
            let mut v = Vec::new();
            for k in npb::KERNELS {
                let t = Instant::now();
                let c =
                    Campaign::prepare(npb_workload(k), experiment_campaign_config(ParamsMode::All));
                let r = run_points_stored(&c, c.points(), &format!("npb-{}", k));
                eprintln!(
                    "[{}] {} points, {} trials, {:?}",
                    k,
                    c.points().len(),
                    r.total_trials,
                    t.elapsed()
                );
                v.push((k.to_string(), c, r));
            }
            self.npb_all = Some(v);
        }
        self.npb_all.as_ref().unwrap()
    }

    fn lammps(&mut self) -> &(Campaign, CampaignResult) {
        if self.lammps_all.is_none() {
            let t = Instant::now();
            let c = Campaign::prepare(
                lammps_workload(10),
                experiment_campaign_config(ParamsMode::All),
            );
            let r = run_points_stored(&c, c.points(), "lammps-all");
            eprintln!(
                "[LAMMPS] {} points, {} trials, {:?}",
                c.points().len(),
                r.total_trials,
                t.elapsed()
            );
            self.lammps_all = Some((c, r));
        }
        self.lammps_all.as_ref().unwrap()
    }

    fn lammps_ml(&mut self) -> &(Campaign, CampaignResult) {
        if self.lammps_ml.is_none() {
            let t = Instant::now();
            let c = Campaign::prepare(
                lammps_workload(20),
                experiment_campaign_config(ParamsMode::DataBuffer),
            );
            let points = c.invocation_points();
            let r = run_points_stored(&c, &points, "lammps-ml");
            eprintln!(
                "[LAMMPS-ML] {} invocation points, {} trials, {:?}",
                points.len(),
                r.total_trials,
                t.elapsed()
            );
            self.lammps_ml = Some((c, r));
        }
        self.lammps_ml.as_ref().unwrap()
    }
}

/// The `bench` verb: sweep the throughput-critical paths and write the
/// schema-stable `BENCH.json` perf trajectory (see `fastfit_bench::bench`).
fn bench_verb() {
    use fastfit_bench::bench::{run_bench, BenchConfig};
    banner(
        "bench",
        "trial-throughput benchmark",
        "n/a — reproduction perf trajectory, diffed across PRs",
    );
    let cfg = BenchConfig::from_env();
    let report = run_bench(&cfg);
    println!(
        "\n{:<8} {:>6} {:>12} {:>14}",
        "workload", "points", "golden ms", "trials/s"
    );
    for w in &report.workloads {
        println!(
            "{:<8} {:>6} {:>12.2} {:>14.1}",
            w.name,
            w.points,
            w.golden_secs * 1e3,
            w.arena_trials_per_sec
        );
    }
    println!(
        "journal: {:.0} appends/s over {} records",
        report.journal_appends_per_sec, report.journal_records
    );
    for w in &report.sched.workloads {
        println!(
            "sched {:<8} coop {:>10.1} tr/s vs threads {:>10.1} tr/s ({:.2}x, {} ranks)",
            w.name, w.coop_trials_per_sec, w.threads_trials_per_sec, w.speedup, w.nranks
        );
    }
    println!(
        "sched dispatch: coop {:.3} ms/job vs threads {:.3} ms/job ({:.2}x, {} ranks)",
        report.sched.dispatch_coop_secs_per_job * 1e3,
        report.sched.dispatch_threads_secs_per_job * 1e3,
        report.sched.dispatch_speedup,
        report.sched.dispatch_ranks
    );
    for w in &report.ml.workloads {
        println!(
            "ml {:<8} cold {:>4} measured in {:>6.1}s vs warm {:>4} in {:>6.1}s ({:.0}% fewer, threshold {:.0}%)",
            w.name,
            w.cold.measured,
            w.cold.secs,
            w.warm.measured,
            w.warm.secs,
            100.0 * w.saved_fraction,
            100.0 * report.ml.threshold
        );
    }
    report.write_to(&cfg.out).expect("writing BENCH.json");
    println!("wrote {}", cfg.out);
}

fn banner(id: &str, what: &str, paper: &str) {
    println!("\n================================================================");
    println!("{} — {}", id, what);
    println!("paper reports: {}", paper);
    println!("================================================================");
}

/// Communication profiles + pruning inventory for every workload (the
/// profiling-phase sanity view; supports Table III).
fn profile_report() {
    banner(
        "profile",
        "communication profiles and pruning inventory",
        "§V-A setup: 32 ranks, NPB class B, LAMMPS rhodopsin",
    );
    println!(
        "[setup] ranks={} trials/point={} class={:?}",
        default_ranks(),
        trials(),
        npb::Class::from_env()
    );
    for name in npb::KERNELS.iter().copied().chain(["LAMMPS"]) {
        let w = if name == "LAMMPS" {
            lammps_workload(10)
        } else {
            npb_workload(name)
        };
        let c = Campaign::prepare(w, experiment_campaign_config(ParamsMode::DataBuffer));
        println!(
            "{:<8} full={:<6} after semantic+context={:<4} classes={} golden={:?}",
            name,
            c.full_points,
            c.points().len(),
            c.semantic.classes.len(),
            c.golden_wall
        );
        print!("{}", mpiprof::communication_report(&c.profile));
    }
}

/// Measure one manually-addressed point (outside the pruned set).
fn measure_at(
    c: &Campaign,
    site: simmpi::hook::CallSite,
    kind: CollKind,
    rank: usize,
    param: ParamId,
    trials: usize,
    seed: u64,
) -> ResponseHistogram {
    let invocation = c
        .profile
        .stack_groups(rank, site)
        .first()
        .map(|g| g.representative())
        .unwrap_or(0);
    let point = InjectionPoint {
        site,
        kind,
        rank,
        invocation,
        param,
    };
    c.measure_point(&point, trials, seed).hist
}

/// Total-variation distance between two response distributions.
fn tv_distance(a: &ResponseHistogram, b: &ResponseHistogram) -> f64 {
    0.5 * ALL_RESPONSES
        .iter()
        .map(|r| (a.fraction(*r) - b.fraction(*r)).abs())
        .sum::<f64>()
}

/// Figure 1: two "equivalent" ranks of an LU MPI_Allreduce respond alike.
fn fig1() {
    banner(
        "fig1",
        "LU MPI_Allreduce: two equivalent ranks, per-parameter responses",
        "the two randomly-chosen ranks display very similar sensitivity",
    );
    let c = Campaign::prepare(
        npb_workload("LU"),
        experiment_campaign_config(ParamsMode::All),
    );
    // The hot solver allreduce (the residual-norm reduction), not the
    // error-handling one in the verification code.
    let site = c
        .profile
        .site_stats(c.semantic.representatives[0])
        .into_iter()
        .filter(|st| st.kind == CollKind::Allreduce && !st.errhdl)
        .max_by_key(|st| st.n_inv)
        .map(|st| st.site)
        .expect("LU has an allreduce site");
    // Two equivalent non-representative ranks from the largest class.
    let class = c
        .semantic
        .classes
        .iter()
        .max_by_key(|cl| cl.len())
        .expect("classes exist");
    let (r1, r2) = (class[class.len() / 3], class[2 * class.len() / 3]);
    println!("site {} | rand1 = rank {}, rand2 = rank {}", site, r1, r2);
    let params = [ParamId::SendBuf, ParamId::Count, ParamId::Op, ParamId::Comm];
    let mut rows: Vec<(String, ResponseHistogram)> = Vec::new();
    for p in params {
        let h1 = measure_at(&c, site, CollKind::Allreduce, r1, p, trials(), 101);
        let h2 = measure_at(&c, site, CollKind::Allreduce, r2, p, trials(), 202);
        let tv = tv_distance(&h1, &h2);
        rows.push((format!("{}@rand1", p.name()), h1));
        rows.push((format!("{}@rand2", p.name()), h2));
        println!(
            "param {:<9} total-variation distance between ranks: {:.3}",
            p.name(),
            tv
        );
    }
    let view: Vec<(&String, &ResponseHistogram)> = rows.iter().map(|(k, h)| (k, h)).collect();
    println!("{}", render_histogram_table("Figure 1", &view));
}

/// Figure 2: root vs non-root of an FT MPI_Reduce respond differently.
fn fig2() {
    banner(
        "fig2",
        "FT MPI_Reduce: root vs non-root responses",
        "root and non-root display *different* sensitivity",
    );
    let c = Campaign::prepare(
        npb_workload("FT"),
        experiment_campaign_config(ParamsMode::All),
    );
    let (site, root) = c
        .profile
        .site_stats(0)
        .iter()
        .find(|st| st.kind == CollKind::Reduce)
        .map(|st| (st.site, 0usize))
        .expect("FT has a reduce site rooted at 0");
    let nonroot = (root + c.workload.nranks / 2).max(1) % c.workload.nranks;
    println!(
        "site {} | root = rank {}, non-root = rank {}",
        site, root, nonroot
    );
    let params = [
        ParamId::SendBuf,
        ParamId::RecvBuf,
        ParamId::Count,
        ParamId::Root,
    ];
    let mut rows: Vec<(String, ResponseHistogram)> = Vec::new();
    for p in params {
        let hr = measure_at(&c, site, CollKind::Reduce, root, p, trials(), 303);
        let hn = measure_at(&c, site, CollKind::Reduce, nonroot, p, trials(), 404);
        let tv = tv_distance(&hr, &hn);
        rows.push((format!("{}@root", p.name()), hr));
        rows.push((format!("{}@nonroot", p.name()), hn));
        println!(
            "param {:<9} total-variation distance root vs non-root: {:.3}",
            p.name(),
            tv
        );
    }
    let view: Vec<(&String, &ResponseHistogram)> = rows.iter().map(|(k, h)| (k, h)).collect();
    println!("{}", render_histogram_table("Figure 2", &view));
}

/// Figure 3: error-rate distribution across same-stack invocations of one
/// LAMMPS MPI_Allreduce, with a Gaussian fit.
fn fig3() {
    banner(
        "fig3",
        "LAMMPS MPI_Allreduce: error rates across same-stack invocations",
        "Gaussian-like distribution, mean 29.58%, sigma 7.69 (100 invocations)",
    );
    let n_inv: usize = std::env::var("FASTFIT_FIG3_INV")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24);
    // Longer run so one call site accumulates many same-stack invocations.
    let c = Campaign::prepare(
        lammps_workload(n_inv + 2),
        experiment_campaign_config(ParamsMode::DataBuffer),
    );
    let rep = c.semantic.representatives[0];
    // The busiest single-stack allreduce site.
    let st = c
        .profile
        .site_stats(rep)
        .into_iter()
        .filter(|s| s.kind == CollKind::Allreduce && s.n_diff_stacks == 1 && !s.errhdl)
        .max_by_key(|s| s.n_inv)
        .expect("minimd has a hot allreduce site");
    let take = (st.n_inv as usize).min(n_inv);
    println!(
        "site {} with {} same-stack invocations; measuring {} with {} trials each",
        st.site,
        st.n_inv,
        take,
        trials()
    );
    let mut rates = Vec::new();
    for inv in 0..take {
        let point = InjectionPoint {
            site: st.site,
            kind: st.kind,
            rank: rep,
            invocation: inv as u64,
            param: ParamId::SendBuf,
        };
        let pr = c.measure_point(&point, trials(), 500 + inv as u64);
        rates.push(100.0 * pr.error_rate());
    }
    let fit = gaussian_fit(&rates);
    let bins = histogram(&rates, 0.0, 100.0, 20);
    println!("error-rate histogram (5% bins):");
    for (i, count) in bins.iter().enumerate() {
        if *count > 0 || (i as f64) * 5.0 <= fit.mu + 2.0 * fit.sigma {
            println!(
                "{:>3}-{:<3}% {:<30} {}",
                i * 5,
                (i + 1) * 5,
                fastfit::report::bar(*count as f64 / take as f64, 30),
                count
            );
        }
    }
    println!(
        "Gaussian fit: mean = {:.2}%, sigma = {:.2}",
        fit.mu, fit.sigma
    );
}

/// Figure 4: print an example decision tree from the LAMMPS campaign.
fn fig4(ctx: &mut ExpContext) {
    banner(
        "fig4",
        "an example decision tree over the application features",
        "a tree splitting on nDiffStack/Type/Phase/... into 4 sensitivity levels",
    );
    let (c, r) = ctx.lammps_ml();
    let levels = Levels::even(4);
    let x: Vec<Vec<f64>> = r
        .results
        .iter()
        .map(|p| c.extractor.features(&p.point))
        .collect();
    let y: Vec<usize> = r
        .results
        .iter()
        .map(|p| levels.of(p.error_rate()))
        .collect();
    let forest = RandomForest::fit(
        &x,
        &y,
        4,
        &ForestParams {
            n_trees: 15,
            ..Default::default()
        },
    );
    let level_names = levels.names();
    let names: Vec<&str> = level_names.iter().map(|s| s.as_str()).collect();
    // Print the deepest tree of the forest (most interesting to look at).
    let tree = forest
        .trees()
        .iter()
        .max_by_key(|t| t.depth())
        .expect("forest has trees");
    println!("{}", tree.render(&FEATURE_NAMES, &names));
    println!(
        "forest feature importances (mean impurity decrease): {:?}",
        FEATURE_NAMES
            .iter()
            .zip(forest.feature_importances())
            .map(|(n, v)| format!("{}={:.3}", n, v))
            .collect::<Vec<_>>()
    );
}

/// Figure 6: accuracy threshold vs reduction of fault injection points.
fn fig6(ctx: &mut ExpContext) {
    banner(
        "fig6",
        "prediction-accuracy threshold vs reduction in injection points (LAMMPS)",
        "reduction falls from >80% at threshold 45% to small at 75%; 65% is the chosen balance",
    );
    let (c, r) = ctx.lammps_ml();
    // Labels were measured once; the feedback loop replays against the
    // cache so the sweep costs no extra fault-injection tests.
    let levels = Levels::even(4);
    let labels: Vec<usize> = r
        .results
        .iter()
        .map(|p| levels.of(p.error_rate()))
        .collect();
    let features: Vec<Vec<f64>> = r
        .results
        .iter()
        .map(|p| c.extractor.features(&p.point))
        .collect();
    println!(
        "{:>10} {:>12} {:>10} {:>9}",
        "threshold", "reduction", "accuracy", "rounds"
    );
    for thr in [0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75] {
        let out = ml_driven(
            &features,
            MlTarget::RateLevels(4),
            |i| labels[i],
            &MlConfig {
                accuracy_threshold: thr,
                initial_batch: 8,
                batch: 4,
                ..Default::default()
            },
        );
        println!(
            "{:>9.0}% {:>11.1}% {:>9.1}% {:>9}",
            100.0 * thr,
            100.0 * out.tests_saved,
            100.0 * out.final_accuracy,
            out.rounds
        );
    }
}

/// Figure 7: NPB error-type breakdown per kernel.
fn fig7(ctx: &mut ExpContext) {
    banner(
        "fig7",
        "NPB response in error types (faults in all collective parameters)",
        "IS crashes most (44% SEG_FAULT); FT dominated by MPI_ERR (46%); INF_LOOP rarest",
    );
    let rows: Vec<(String, ResponseHistogram)> = ctx
        .npb()
        .iter()
        .map(|(name, _, r)| (name.clone(), r.aggregate()))
        .collect();
    let view: Vec<(&String, &ResponseHistogram)> = rows.iter().map(|(k, h)| (k, h)).collect();
    println!("{}", render_histogram_table("Figure 7", &view));
    maybe_write(&csv_dir(), "fig7.csv", &histograms_csv(&rows));
}

/// Figure 8: NPB per-collective error-rate levels.
fn fig8(ctx: &mut ExpContext) {
    banner(
        "fig8",
        "NPB per-collective error-rate levels (15%/85% thresholds)",
        "Reduce and Barrier most damaging; Alltoallv least",
    );
    let mut merged: Vec<PointResult> = Vec::new();
    for (_, _, r) in ctx.npb() {
        merged.extend(data_buffer_subset(&r.results));
    }
    let levels = per_kind_levels(&merged);
    println!("{}", render_level_table("Figure 8", &levels));
}

/// Figure 9: per-parameter responses for MPI_Allreduce across NPB.
fn fig9(ctx: &mut ExpContext) {
    banner(
        "fig9",
        "NPB MPI_Allreduce: response per injected parameter",
        "recvbuf mostly harmless (overwritten); count/datatype/op/comm skew to SEG_FAULT/MPI_ERR",
    );
    let mut merged: Vec<PointResult> = Vec::new();
    for (_, _, r) in ctx.npb() {
        merged.extend(
            r.results
                .iter()
                .filter(|p| p.point.kind == CollKind::Allreduce)
                .cloned(),
        );
    }
    let by_param = per_param_histograms(&merged);
    let rows: Vec<(&str, &ResponseHistogram)> =
        by_param.iter().map(|(p, h)| (p.name(), h)).collect();
    println!("{}", render_histogram_table("Figure 9", &rows));
    let owned: Vec<(String, ResponseHistogram)> = by_param
        .iter()
        .map(|(p, h)| (p.name().to_string(), h.clone()))
        .collect();
    maybe_write(&csv_dir(), "fig9.csv", &histograms_csv(&owned));
    maybe_write(
        &csv_dir(),
        "fig9_points.csv",
        &points_csv(&merged, FaultChannel::Param),
    );
}

/// Figure 10: LAMMPS error-type breakdown per collective.
fn fig10(ctx: &mut ExpContext) {
    banner(
        "fig10",
        "LAMMPS response in error types per collective",
        "~65% SUCCESS; APP_DETECTED second (mature error handling); INF_LOOP rarest; WRONG_ANS rare",
    );
    let (_, r) = ctx.lammps();
    let subset = data_buffer_subset(&r.results);
    let by_kind = per_kind_histograms(&subset);
    let mut rows: Vec<(&str, &ResponseHistogram)> =
        by_kind.iter().map(|(k, h)| (k.name(), h)).collect();
    let mut overall = ResponseHistogram::new();
    for p in &subset {
        overall.merge(&p.hist);
    }
    rows.push(("ALL", &overall));
    println!("{}", render_histogram_table("Figure 10", &rows));
    maybe_write(
        &csv_dir(),
        "fig10_points.csv",
        &points_csv(&subset, FaultChannel::Param),
    );
}

/// Figure 11: LAMMPS per-collective error-rate levels.
fn fig11(ctx: &mut ExpContext) {
    banner(
        "fig11",
        "LAMMPS per-collective error-rate levels",
        "Barrier lethal (high levels); Allreduce low despite being 84% of calls",
    );
    let (_, r) = ctx.lammps();
    let levels = per_kind_levels(&data_buffer_subset(&r.results));
    println!("{}", render_level_table("Figure 11", &levels));
}

/// Shared: per-class accuracy over 5 random half splits (the paper's
/// verification protocol for Figures 12/13).
fn split_accuracy(x: &[Vec<f64>], y: &[usize], n_classes: usize) -> (Vec<Option<f64>>, f64) {
    use rand::seq::SliceRandom;
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xF1_65);
    let mut per_class_sum = vec![0.0f64; n_classes];
    let mut per_class_n = vec![0usize; n_classes];
    let mut overall = 0.0;
    for s in 0..5u64 {
        let mut idx: Vec<usize> = (0..x.len()).collect();
        idx.shuffle(&mut rng);
        let half = x.len() / 2;
        let (tr, te) = idx.split_at(half.max(1));
        let tx: Vec<Vec<f64>> = tr.iter().map(|&i| x[i].clone()).collect();
        let ty: Vec<usize> = tr.iter().map(|&i| y[i]).collect();
        let model = RandomForest::fit(
            &tx,
            &ty,
            n_classes,
            &ForestParams {
                n_trees: 40,
                seed: 77 + s,
                ..Default::default()
            },
        );
        let vx: Vec<Vec<f64>> = te.iter().map(|&i| x[i].clone()).collect();
        let vy: Vec<usize> = te.iter().map(|&i| y[i]).collect();
        overall += model.accuracy(&vx, &vy) / 5.0;
        for (c, acc) in model.per_class_accuracy(&vx, &vy).into_iter().enumerate() {
            if let Some(a) = acc {
                per_class_sum[c] += a;
                per_class_n[c] += 1;
            }
        }
    }
    let per_class = per_class_sum
        .iter()
        .zip(&per_class_n)
        .map(|(&s, &n)| if n == 0 { None } else { Some(s / n as f64) })
        .collect();
    (per_class, overall)
}

/// Grouped split: hold out whole call sites (predicting points of sites
/// the model never saw — the harder generalization).
fn site_split_accuracy(
    points: &[InjectionPoint],
    x: &[Vec<f64>],
    y: &[usize],
    n_classes: usize,
) -> (Vec<Option<f64>>, f64) {
    use rand::seq::SliceRandom;
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0x517E);
    let mut sites: Vec<simmpi::hook::CallSite> = {
        let mut v: Vec<_> = points.iter().map(|p| p.site).collect();
        v.sort();
        v.dedup();
        v
    };
    let mut per_class_sum = vec![0.0f64; n_classes];
    let mut per_class_n = vec![0usize; n_classes];
    let mut overall = 0.0;
    let mut overall_n = 0usize;
    for s in 0..5u64 {
        sites.shuffle(&mut rng);
        let held: std::collections::HashSet<_> =
            sites.iter().take((sites.len() / 3).max(1)).collect();
        let (mut tx, mut ty, mut vx, mut vy) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for i in 0..x.len() {
            if held.contains(&points[i].site) {
                vx.push(x[i].clone());
                vy.push(y[i]);
            } else {
                tx.push(x[i].clone());
                ty.push(y[i]);
            }
        }
        if tx.is_empty() || vx.is_empty() {
            continue;
        }
        let model = RandomForest::fit(
            &tx,
            &ty,
            n_classes,
            &ForestParams {
                n_trees: 40,
                seed: 99 + s,
                ..Default::default()
            },
        );
        overall += model.accuracy(&vx, &vy);
        overall_n += 1;
        for (c, acc) in model.per_class_accuracy(&vx, &vy).into_iter().enumerate() {
            if let Some(a) = acc {
                per_class_sum[c] += a;
                per_class_n[c] += 1;
            }
        }
    }
    let per_class = per_class_sum
        .iter()
        .zip(&per_class_n)
        .map(|(&s, &n)| if n == 0 { None } else { Some(s / n as f64) })
        .collect();
    (per_class, overall / overall_n.max(1) as f64)
}

/// Figure 12: error-type prediction accuracy.
fn fig12(ctx: &mut ExpContext) {
    banner(
        "fig12",
        "error-type prediction accuracy (5 random train/test splits)",
        "SUCCESS 86%, APP_DETECTED 80%, SEG_FAULT 47%, WRONG_ANS 75%",
    );
    let (c, r) = ctx.lammps_ml();
    let points: Vec<InjectionPoint> = r.results.iter().map(|p| p.point).collect();
    let x: Vec<Vec<f64>> = r
        .results
        .iter()
        .map(|p| c.extractor.features(&p.point))
        .collect();
    let y: Vec<usize> = r
        .results
        .iter()
        .map(|p| p.hist.dominant().index())
        .collect();
    let (per_class, overall) = split_accuracy(&x, &y, 6);
    let (pc_site, ov_site) = site_split_accuracy(&points, &x, &y, 6);
    println!("{:<14} {:>14} {:>17}", "", "random split", "held-out sites");
    for ((resp, acc), site_acc) in ALL_RESPONSES.iter().zip(&per_class).zip(&pc_site) {
        let fmt = |a: &Option<f64>| match a {
            Some(a) => format!("{:>5.1}%", 100.0 * a),
            None => "   n/a".to_string(),
        };
        println!("{:<14} {:>14} {:>17}", resp.name(), fmt(acc), fmt(site_acc));
    }
    println!(
        "overall: random-split {:.1}%, held-out-site {:.1}%",
        100.0 * overall,
        100.0 * ov_site
    );
}

/// Figure 13: error-rate-level prediction accuracy for 2 and 3 levels.
fn fig13(ctx: &mut ExpContext) {
    banner(
        "fig13",
        "error-rate-level prediction accuracy, 2 and 3 even levels",
        ">80% for 2 levels; 76% low / 66% high for 3 levels",
    );
    let (c, r) = ctx.lammps_ml();
    let points: Vec<InjectionPoint> = r.results.iter().map(|p| p.point).collect();
    let x: Vec<Vec<f64>> = r
        .results
        .iter()
        .map(|p| c.extractor.features(&p.point))
        .collect();
    for k in [2usize, 3] {
        let levels = Levels::even(k);
        let y: Vec<usize> = r
            .results
            .iter()
            .map(|p| levels.of(p.error_rate()))
            .collect();
        let (per_class, overall) = split_accuracy(&x, &y, k);
        let (pc_site, ov_site) = site_split_accuracy(&points, &x, &y, k);
        println!(
            "--- {} levels (overall: random-split {:.1}%, held-out-site {:.1}%) ---",
            k,
            100.0 * overall,
            100.0 * ov_site
        );
        println!("{:<8} {:>14} {:>17}", "", "random split", "held-out sites");
        for ((name, acc), site_acc) in levels.names().iter().zip(&per_class).zip(&pc_site) {
            let fmt = |a: &Option<f64>| match a {
                Some(a) => format!("{:>5.1}%", 100.0 * a),
                None => "   n/a".to_string(),
            };
            println!("{:<8} {:>14} {:>17}", name, fmt(acc), fmt(site_acc));
        }
    }
}

/// Table III: reduction ratios per technique and workload.
fn tab3(ctx: &mut ExpContext) {
    banner(
        "tab3",
        "reduction of injection points after the three techniques",
        "IS 96.88/90.00/NA/99.69; FT 96.31/95.24/NA/99.78; MG 96.09/90.70/NA/99.64; LU 96.35/40.00/NA/97.81; LAMMPS 97.24/87.58/53.33/99.84",
    );
    let mut rows = Vec::new();
    for (name, c, _) in ctx.npb() {
        rows.push(Table3Row::from_campaign(c, None));
        let _ = name;
    }
    // LAMMPS row: semantic/context reductions from the campaign, ML saving
    // measured on the post-semantic invocation population at the paper's
    // 65% threshold.
    let (cm, rm) = ctx.lammps_ml();
    let levels = Levels::even(3);
    let labels: Vec<usize> = rm
        .results
        .iter()
        .map(|p| levels.of(p.error_rate()))
        .collect();
    let features: Vec<Vec<f64>> = rm
        .results
        .iter()
        .map(|p| cm.extractor.features(&p.point))
        .collect();
    let ml = ml_driven(
        &features,
        MlTarget::RateLevels(3),
        |i| labels[i],
        &MlConfig::default(),
    );
    let (c, _) = ctx.lammps();
    rows.push(Table3Row::from_campaign(
        c,
        if ml.reached_threshold {
            Some(ml.tests_saved)
        } else {
            None
        },
    ));
    println!("{}", render_table3(&rows));
    println!(
        "(LAMMPS ML: threshold 65% reached={} after {} rounds, accuracy {:.1}%)",
        ml.reached_threshold,
        ml.rounds,
        100.0 * ml.final_accuracy
    );
}

/// Table IV: correlation between features and error-rate level (LAMMPS).
fn tab4(ctx: &mut ExpContext) {
    banner(
        "tab4",
        "feature vs error-rate-level correlation, Eq. 1 (LAMMPS)",
        "Input 0.69, ErrHdl 0.64, Init 0.56, End 0.49, nDiffGraph 0.47, nInv 0.41, StackDepth 0.37, Non-ErrHdl 0.36, Compute 0.3",
    );
    let (c, r) = ctx.lammps_ml();
    let table = correlation_table(c, &r.results);
    println!("{}", render_table4(&table));
}

/// Per-kind level map type used by figs 8/11.
type LevelMap = BTreeMap<CollKind, [u64; 3]>;
#[allow(dead_code)]
fn _assert_types(m: LevelMap) -> LevelMap {
    m
}

/// Extension: the CG kernel (not in the paper's evaluation set) under the
/// same campaign — the "other program elements" direction of §VIII.
fn ext_cg() {
    banner(
        "ext-cg",
        "EXTENSION: CG kernel sensitivity (Allgather + dot-product Allreduces)",
        "n/a — beyond the paper; §VIII names this as future work",
    );
    let (app, tol) = npb::kernel_by_name("CG", npb::Class::from_env());
    let w = Workload::new("CG", app, tol, default_ranks());
    let c = Campaign::prepare(w, experiment_campaign_config(ParamsMode::All));
    let r = c.run_all();
    println!(
        "points {} of {} (reduction {:.2}%)",
        c.points().len(),
        c.full_points,
        100.0 * c.total_reduction()
    );
    let by_kind = per_kind_histograms(&r.results);
    let rows: Vec<(&str, &ResponseHistogram)> =
        by_kind.iter().map(|(k, h)| (k.name(), h)).collect();
    println!(
        "{}",
        render_histogram_table("CG error types per collective", &rows)
    );
    let levels = per_kind_levels(&data_buffer_subset(&r.results));
    println!(
        "{}",
        render_level_table("CG error-rate levels (data-buffer faults)", &levels)
    );
    maybe_write(
        &csv_dir(),
        "ext_cg_points.csv",
        &points_csv(&r.results, FaultChannel::Param),
    );
}

/// Extension: how many trials per point are enough? Error-rate estimates
/// with Wilson 95% bands as the trial budget grows, for one noisy point.
fn ext_trials() {
    banner(
        "ext-trials",
        "EXTENSION: error-rate precision vs trials per point (Wilson 95%)",
        "§II states >=100 trials/point for statistical significance",
    );
    let c = Campaign::prepare(
        lammps_workload(10),
        experiment_campaign_config(ParamsMode::DataBuffer),
    );
    // A mid-sensitivity point: a thermo allreduce data buffer.
    let rep = c.semantic.representatives[0];
    let st = c
        .profile
        .site_stats(rep)
        .into_iter()
        .filter(|s| s.kind == CollKind::Allreduce && !s.errhdl)
        .max_by_key(|s| s.n_inv)
        .expect("thermo allreduce exists");
    // A late invocation: its value feeds the second-half statistics
    // directly, so the point has a mid-range error rate.
    let point = InjectionPoint {
        site: st.site,
        kind: st.kind,
        rank: rep,
        invocation: st.n_inv.saturating_sub(2),
        param: ParamId::SendBuf,
    };
    println!(
        "point: {} {} (sendbuf, invocation {})",
        st.kind.name(),
        st.site,
        point.invocation
    );
    println!(
        "{:>8} {:>11} {:>19}",
        "trials", "error rate", "wilson 95% interval"
    );
    let mut series = Vec::new();
    for t in [10usize, 25, 50, 100, 200] {
        let pr = c.measure_point(&point, t, 0xE771);
        let errors = pr.hist.total() - pr.hist.count(Response::Success);
        let (lo, hi) = wilson_95(errors, pr.hist.total());
        println!(
            "{:>8} {:>10.1}%    [{:>5.1}%, {:>5.1}%] (±{:.1}%)",
            t,
            100.0 * pr.error_rate(),
            100.0 * lo,
            100.0 * hi,
            100.0 * (hi - lo) / 2.0
        );
        series.push((t as f64, pr.error_rate()));
    }
    println!(
        "worst-case trials needed for ±10%: {}, for ±5%: {}",
        trials_for_half_width(0.10),
        trials_for_half_width(0.05)
    );
    maybe_write(
        &csv_dir(),
        "ext_trials.csv",
        &series_csv("trials", "error_rate", &series),
    );
}

/// Extension: error propagation between processes — the open question the
/// paper's introduction raises. For each workload, inject parameter faults
/// at one rank and record on which rank the first fatal event fires.
fn ext_propagation() {
    banner(
        "ext-propagation",
        "EXTENSION: where do injected faults surface? (first fatal event's rank)",
        "n/a — the paper's intro calls inter-process error propagation 'largely unexplored'",
    );
    println!(
        "{:<10} {:>10} {:>12} {:>14} {:>16}",
        "workload", "inj.rank", "fatal trials", "detected local", "detected remote"
    );
    for name in ["FT", "LU", "LAMMPS"] {
        let w = if name == "LAMMPS" {
            lammps_workload(10)
        } else {
            npb_workload(name)
        };
        let c = Campaign::prepare(w, experiment_campaign_config(ParamsMode::All));
        // Inject at a non-root representative so propagation is visible.
        let rank = *c.semantic.representatives.last().unwrap();
        let mut local = 0usize;
        let mut remote = 0usize;
        let mut fatal = 0usize;
        for p in c.points().iter().filter(|p| p.rank == rank) {
            let pr = c.measure_point(p, trials().min(12), 0xBEEF ^ p.invocation);
            for &fr in &pr.fatal_ranks {
                fatal += 1;
                if fr == rank {
                    local += 1;
                } else {
                    remote += 1;
                }
            }
        }
        println!(
            "{:<10} {:>10} {:>12} {:>13.1}% {:>15.1}%",
            name,
            rank,
            fatal,
            100.0 * local as f64 / fatal.max(1) as f64,
            100.0 * remote as f64 / fatal.max(1) as f64
        );
    }
    println!("local = the corrupted rank itself raised the first fatal event (validation");
    println!("caught the bad handle before any communication); remote = the fault first");
    println!("surfaced on a peer (size mismatches, truncation, aborts after an errhdl");
    println!("consensus) — corruption that crossed a process boundary before detection.");
}

/// Extension: does the collective *algorithm* change fault sensitivity?
/// The same workload at payload sizes below/above the tuned-algorithm
/// thresholds (binomial vs scatter+allgather bcast; recursive doubling vs
/// Rabenseifner allreduce).
fn ext_algos() {
    banner(
        "ext-algos",
        "EXTENSION: fault sensitivity of basic vs size-tuned collective algorithms",
        "n/a — ablation of the algorithm-selection design choice (DESIGN.md)",
    );
    use simmpi::ctx::{RankCtx, RankOutput, ALLREDUCE_LARGE_THRESHOLD, BCAST_LARGE_THRESHOLD};
    use simmpi::op::ReduceOp;
    use simmpi::runtime::AppFn;
    use std::sync::Arc;

    let build = |elems: usize| -> Workload {
        let app: AppFn = Arc::new(move |ctx: &mut RankCtx| {
            let world = ctx.world();
            let mut buf = vec![0.0f64; elems];
            if ctx.rank() == 0 {
                for (i, v) in buf.iter_mut().enumerate() {
                    *v = (i % 97) as f64 + 0.5;
                }
            }
            ctx.bcast(&mut buf, 0, world);
            let m = (elems / ctx.size()).max(1) * ctx.size();
            let send = vec![1.25f64; m];
            let mut recv = vec![0.0f64; m];
            ctx.allreduce(&send, &mut recv, ReduceOp::Sum, world);
            let mut out = RankOutput::new();
            out.push("spot", buf[elems - 1] + recv[m - 1]);
            out
        });
        Workload::new(format!("algos-{}", elems), app, 1e-12, default_ranks())
    };
    let small_elems = 64;
    let large_elems = (BCAST_LARGE_THRESHOLD.max(ALLREDUCE_LARGE_THRESHOLD) / 8) * 2;
    for (label, elems) in [
        ("basic (small payload)", small_elems),
        ("tuned (large payload)", large_elems),
    ] {
        let c = Campaign::prepare(build(elems), experiment_campaign_config(ParamsMode::All));
        let r = c.run_all();
        let agg = r.aggregate();
        println!(
            "{:<24} {} points, {} trials | {}",
            label,
            c.points().len(),
            r.total_trials,
            fastfit::report::histogram_row(&agg)
        );
    }
    println!("(sensitivity shape should be algorithm-independent: the fault model targets the interface, not the wire protocol; differences indicate protocol-level exposure)");
}

/// Extension: message-level faults in plain vs resilient transport mode.
/// The same seeded campaign runs twice over wire-message faults (flips,
/// drops, duplication, delay, truncation); the resilient run adds
/// checksum/ack/retransmit recovery, so responses that were INF_LOOP or
/// WRONG_ANS under the plain transport should shift toward SUCCESS, with
/// the residual being sticky faults surfacing as MPI_ERR.
fn ext_transport() {
    banner(
        "ext-transport",
        "EXTENSION: message-fault sensitivity, plain vs resilient transport",
        "n/a — beyond the paper; transport-level fault model (DESIGN.md §11)",
    );
    let mut results = Vec::new();
    for (label, resilient) in [("plain", false), ("resilient", true)] {
        let mut cfg = experiment_campaign_config(ParamsMode::DataBuffer);
        cfg.fault_channel = FaultChannel::Message;
        cfg.resilient = resilient;
        let c = Campaign::prepare(npb_workload("IS"), cfg);
        let r = c.run_all();
        let retransmits: u64 = r.results.iter().map(|p| p.retransmits).sum();
        let agg = r.aggregate();
        println!(
            "{:<10} {} points, {} trials, {} retransmit(s) | {}",
            label,
            c.points().len(),
            r.total_trials,
            retransmits,
            fastfit::report::histogram_row(&agg)
        );
        maybe_write(
            &csv_dir(),
            &format!("ext_transport_{}.csv", label),
            &points_csv(&r.results, FaultChannel::Message),
        );
        results.push((label, agg));
    }
    let success = |h: &ResponseHistogram| h.fraction(Response::Success);
    println!(
        "recovery effect: SUCCESS {:.1}% (plain) -> {:.1}% (resilient)",
        100.0 * success(&results[0].1),
        100.0 * success(&results[1].1),
    );
}

/// EXTENSION: correlated fault bursts on the message channel. A
/// `burst:W` timeline arms W message-fault plans on consecutive anchor
/// ops — the correlated regime a single independent draw cannot model —
/// and the SUCCESS gap between the plain and resilient transports shows
/// how recovery degrades as the burst widens.
fn ext_timeline() {
    banner(
        "ext-timeline",
        "EXTENSION: burst schedules of width 1/4/16, plain vs resilient transport",
        "n/a — beyond the paper; fault-timeline engine (DESIGN.md §16)",
    );
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>12}  SUCCESS plain -> resilient",
        "timeline", "points", "trials", "events", "retransmits"
    );
    for width in [1u64, 4, 16] {
        let token = format!("burst:{width}");
        let mut success = Vec::new();
        for (label, resilient) in [("plain", false), ("resilient", true)] {
            let mut cfg = experiment_campaign_config(ParamsMode::DataBuffer);
            cfg.resilient = resilient;
            cfg.set_timeline(FaultTimeline::parse(&token).expect("committed token"));
            let c = Campaign::prepare(npb_workload("IS"), cfg);
            let r = c.run_all();
            let events: u64 = r.results.iter().map(|p| p.events_fired).sum();
            let retransmits: u64 = r.results.iter().map(|p| p.retransmits).sum();
            let agg = r.aggregate();
            if resilient {
                println!(
                    "{:<10} {:>8} {:>8} {:>8} {:>12}  {:.1}% -> {:.1}%",
                    token,
                    c.points().len(),
                    r.total_trials,
                    events,
                    retransmits,
                    100.0 * success[0],
                    100.0 * agg.fraction(Response::Success),
                );
            }
            success.push(agg.fraction(Response::Success));
            maybe_write(
                &csv_dir(),
                &format!("ext_timeline_burst{}_{}.csv", width, label),
                &points_csv(&r.results, FaultChannel::Message),
            );
        }
    }
}
