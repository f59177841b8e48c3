//! The four workloads: what one unit of each submits, and why.
//!
//! A *unit* is one fixed amount of work — a fixed list of campaign specs
//! with fixed point and trial counts — whose seeds come from the
//! benchmark seed and the unit's index. A run has a few distinct units
//! ([`Workload::distinct_units`]) and repeats them round-robin until its
//! time is up, so the reported `makespan_s` is always "time to the last
//! `results.csv` of one unit". Unit 0 of a seed is always the same work:
//! the exact counts come from it.
//!
//! Sizes were chosen on the 2-core reference host so a unit takes 0.5 to
//! 2.5 s and a 25 s run repeats each distinct unit four to fifteen times
//! (README, "How the sizes were chosen").

use fastfit::prelude::FaultChannel;
use fastfit_serve::CampaignSpec;
use fastfit_store::json::Json;
use simmpi::hook::{CollKind, ALL_COLL_KINDS};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process LAMMPS + FT, 16 ranks, param faults: application compute.
    ComputeLocal,
    /// In-process HALO + IS, 128 ranks, message faults, resilient fabric.
    WideResilient,
    /// Daemon: a 16-member scenario sweep plus one ML campaign.
    ServeSweep,
    /// Coordinator + two workers sharding two campaigns into leases.
    FleetShard,
}

/// Every workload, in reporting order.
pub const ALL_WORKLOADS: [Workload; 4] = [
    Workload::ComputeLocal,
    Workload::WideResilient,
    Workload::ServeSweep,
    Workload::FleetShard,
];

/// Accuracy the ML member must reach (its `ml_threshold`, and the output
/// check on its final round).
pub const ML_THRESHOLD: f64 = 0.65;

/// Trials per lease in `fleet-shard`.
pub const LEASE_TRIALS: u64 = 16;

/// Client poll step against the daemon, milliseconds.
pub const POLL_MS: u64 = 25;

impl Workload {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ComputeLocal => "compute-local",
            Workload::WideResilient => "wide-resilient",
            Workload::ServeSweep => "serve-sweep",
            Workload::FleetShard => "fleet-shard",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        ALL_WORKLOADS.iter().copied().find(|w| w.name() == name)
    }

    /// Problem class (`FASTFIT_CLASS`) the process runs at. `small` where
    /// the application must dominate; `mini` where it must not.
    pub fn class(self) -> &'static str {
        match self {
            Workload::ComputeLocal => "small",
            _ => "mini",
        }
    }

    /// Distinct units of a run. More of them average a seed's work over
    /// more trials; fewer leave more repetitions of each to find a quiet
    /// moment of the host in. Service units are reduced by their median,
    /// which needs fewer repetitions than a minimum does (README, "How
    /// one run becomes one number").
    pub fn distinct_units(self) -> usize {
        match self {
            Workload::ComputeLocal => 3,
            Workload::WideResilient => 2,
            Workload::ServeSweep => 3,
            Workload::FleetShard => 3,
        }
    }

    /// Whether the unit goes through a daemon (HTTP) rather than calling
    /// `Campaign` in-process.
    pub fn is_service(self) -> bool {
        matches!(self, Workload::ServeSweep | Workload::FleetShard)
    }
}

/// SplitMix64: the benchmark's only randomness. Maps (seed, index) to a
/// well-mixed 64-bit value so neighbouring seeds share nothing.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of unit `unit` of a run started with `--seed seed`.
pub fn unit_seed(seed: u64, unit: u64) -> u64 {
    mix(seed, unit)
}

/// Every collective kind but `MPI_Bcast`: the `colls` of every campaign
/// the benchmark runs.
///
/// Each kernel opens with a `read_input` broadcast of its problem sizes.
/// A flipped bit there (param channel, or message channel on the plain
/// fabric) can hand a rank a valid but enormous size — FT's `n` up to
/// 4096, LAMMPS' `cells_x_per_rank` up to 10^4 — and the rank then
/// computes, without a single MPI call, for longer than any budget: the
/// op budget never ticks and the wall-clock backstop cannot interrupt a
/// coroutine on the coop carrier. Three attempts and a `wall_clock`
/// quarantine later the campaign has spent a minute on one trial. That
/// is a correctness finding (README, "The input-broadcast hang"), not a
/// cost this benchmark can carry on seeds it does not choose, so the
/// broadcast's points are left out by the `colls` knob users have.
pub fn safe_colls() -> Vec<CollKind> {
    ALL_COLL_KINDS
        .iter()
        .copied()
        .filter(|k| *k != CollKind::Bcast)
        .collect()
}

fn spec(
    workload: &str,
    ranks: usize,
    trials: usize,
    unit_seed: u64,
    index: u64,
) -> CampaignSpec {
    CampaignSpec {
        ranks: Some(ranks),
        trials: Some(trials),
        seed: Some(mix(unit_seed, 2 * index)),
        app_seed: Some(mix(unit_seed, 2 * index + 1)),
        colls: Some(safe_colls()),
        ..CampaignSpec::new(workload)
    }
}

/// The campaigns one in-process unit runs, or a fleet unit submits, in
/// order.
pub fn campaign_specs(w: Workload, unit_seed: u64) -> Vec<CampaignSpec> {
    match w {
        Workload::ComputeLocal => vec![
            CampaignSpec {
                steps: Some(10),
                ..spec("LAMMPS", 16, 2, unit_seed, 0)
            },
            spec("FT", 16, 1, unit_seed, 1),
        ],
        Workload::WideResilient => vec![
            CampaignSpec {
                resilient: Some(true),
                timeline: Some("burst:4".into()),
                ..spec("HALO", 128, 2, unit_seed, 0)
            },
            CampaignSpec {
                fault_channel: Some(FaultChannel::Message),
                resilient: Some(true),
                ..spec("IS", 128, 1, unit_seed, 1)
            },
        ],
        Workload::FleetShard => vec![
            spec("LU", 16, 32, unit_seed, 0),
            CampaignSpec {
                fault_channel: Some(FaultChannel::Message),
                resilient: Some(true),
                ..spec("HALO", 64, 4, unit_seed, 1)
            },
        ],
        // The sweep's members are expanded by the daemon from the
        // grammar; only the ML member is a spec of its own.
        Workload::ServeSweep => vec![ml_member(unit_seed)],
    }
}

/// Workloads and channels of the `serve-sweep` grammar: 2 × 4 × 2
/// transports = 16 members.
pub const SWEEP_WORKLOADS: [&str; 2] = ["IS", "LU"];
/// Fault channels of the sweep.
pub const SWEEP_CHANNELS: [&str; 4] = ["param", "message", "crash-stop", "partition"];
/// Trials per point of every sweep member.
pub const SWEEP_TRIALS: u64 = 1;
/// Price ceiling of the sweep: far above any member's predicted cost, so
/// nothing is dropped, but present, so `GoldenCostModel` prices all 16.
pub const SWEEP_MAX_COST: u64 = 1_000_000_000_000;

/// The `POST /scenarios` body of one `serve-sweep` unit.
pub fn sweep_grammar(unit_seed: u64) -> Json {
    let strs = |xs: &[&str]| Json::Arr(xs.iter().map(|s| Json::Str((*s).into())).collect());
    Json::obj([
        ("name", Json::Str("fitbench-sweep".into())),
        (
            "base",
            Json::obj([
                ("trials", Json::U64(SWEEP_TRIALS)),
                ("seed", Json::U64(mix(unit_seed, 100))),
                ("app_seed", Json::U64(mix(unit_seed, 101))),
                ("params", Json::Str("data".into())),
            ]),
        ),
        (
            "axes",
            Json::obj([
                ("workload", strs(&SWEEP_WORKLOADS)),
                ("fault_channel", strs(&SWEEP_CHANNELS)),
                (
                    "resilient",
                    Json::Arr(vec![Json::Bool(false), Json::Bool(true)]),
                ),
                ("ranks", Json::Arr(vec![Json::U64(16)])),
                (
                    "colls",
                    Json::Arr(vec![Json::Arr(
                        safe_colls()
                            .iter()
                            .map(|k| Json::Str(k.name().into()))
                            .collect(),
                    )]),
                ),
            ]),
        ),
        ("max_cost", Json::U64(SWEEP_MAX_COST)),
    ])
}

/// The ML-driven member `serve-sweep` submits beside the sweep.
pub fn ml_member(unit_seed: u64) -> CampaignSpec {
    CampaignSpec {
        ml_threshold: Some(ML_THRESHOLD),
        ..spec("FT", 16, 2, unit_seed, 50)
    }
}

/// Distinct `(kernel, ranks)` pairs a unit runs: one warm-up clean job
/// each belongs to set-up.
pub fn warmup_pairs(w: Workload) -> Vec<(&'static str, usize)> {
    match w {
        Workload::ComputeLocal => vec![("LAMMPS", 16), ("FT", 16)],
        Workload::WideResilient => vec![("HALO", 128), ("IS", 128)],
        Workload::ServeSweep => vec![("IS", 16), ("LU", 16), ("FT", 16)],
        Workload::FleetShard => vec![("LU", 16), ("HALO", 64)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastfit_scenario::Grammar;

    #[test]
    fn names_roundtrip() {
        for w in ALL_WORKLOADS {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn same_seed_same_inputs_and_units_differ() {
        for w in ALL_WORKLOADS {
            assert_eq!(campaign_specs(w, 7), campaign_specs(w, 7));
            assert_ne!(campaign_specs(w, 7), campaign_specs(w, 8));
        }
        assert_ne!(unit_seed(1, 0), unit_seed(1, 1));
        assert_ne!(unit_seed(1, 0), unit_seed(2, 0));
        assert_eq!(sweep_grammar(3), sweep_grammar(3));
    }

    #[test]
    fn sweep_grammar_expands_to_sixteen_valid_members() {
        let g = Grammar::from_json(&sweep_grammar(42)).expect("grammar parses");
        assert_eq!(g.max_cost, Some(SWEEP_MAX_COST));
        let members = g.expand().expect("expands");
        assert_eq!(members.len(), 16);
        for m in &members {
            let spec = CampaignSpec::from_json(&m.to_spec_json()).expect("lowers");
            fastfit_serve::validate_spec(&spec).expect("valid");
        }
    }

    #[test]
    fn every_spec_validates() {
        for w in ALL_WORKLOADS {
            for s in campaign_specs(w, 9) {
                fastfit_serve::validate_spec(&s).expect("valid spec");
                // Through JSON and back: what the daemon will see.
                assert_eq!(CampaignSpec::from_json(&s.to_json()).unwrap(), s);
            }
        }
    }
}
