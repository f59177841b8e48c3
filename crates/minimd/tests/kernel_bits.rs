//! minimd's whole output keeps its bits.
//!
//! The force loop evaluates only the pairs that add anything; skipping a
//! pair beyond the cutoff is exact, so every rank's output scalars must be
//! the bits the loop over every pair gave. They are pinned here as hex,
//! recorded from that loop. (`sim.rs`'s own tests hold the loop to the
//! every-pair loop on crafted force sets.)

use minimd::{md_app, MdConfig};
use simmpi::runtime::{run_job, JobOutcome, JobSpec};
use std::time::Duration;

/// Every rank's output scalars, as `key=<hex bits>` per rank.
fn output_bits(nranks: usize, steps: usize) -> Vec<String> {
    let spec = JobSpec {
        nranks,
        timeout: Duration::from_secs(120),
        ..Default::default()
    };
    let app = md_app(MdConfig {
        steps,
        ..Default::default()
    });
    match run_job(&spec, app).outcome {
        JobOutcome::Completed { outputs } => outputs
            .iter()
            .map(|o| {
                let kv: Vec<String> = o
                    .scalars
                    .iter()
                    .map(|(k, v)| format!("{k}={:016x}", v.to_bits()))
                    .collect();
                kv.join(" ")
            })
            .collect(),
        other => panic!("minimd on {nranks} ranks failed: {other:?}"),
    }
}

// Recorded from the loop that evaluated every pair. The statistics are
// reduced with allreduce, so every rank outputs the same bits.
const MD_1_10: &str =
    "md.mean_temp=3fe45bd582d74c02 md.mean_pe=c072bfcbf7d91a9b md.final_atoms=4050000000000000";
const MD_4_10: &str =
    "md.mean_temp=3fe7ded5763c5ee4 md.mean_pe=c092cce04f7fa3d4 md.final_atoms=4070000000000000";
const MD_16_10: &str =
    "md.mean_temp=3fe744d2905a5e11 md.mean_pe=c0b2d431ef3da5f6 md.final_atoms=4090000000000000";
const MD_16_20: &str =
    "md.mean_temp=3fed9ff54bc5e3c0 md.mean_pe=c0b144c3bf054f76 md.final_atoms=4090000000000000";

#[test]
fn lammps_outputs_keep_their_bits() {
    for (nranks, steps, each_rank) in [
        (1, 10, MD_1_10),
        (4, 10, MD_4_10),
        (16, 10, MD_16_10),
        (16, 20, MD_16_20),
    ] {
        assert_eq!(
            output_bits(nranks, steps),
            vec![each_rank.to_string(); nranks],
            "LAMMPS on {nranks} ranks, {steps} steps"
        );
    }
}
