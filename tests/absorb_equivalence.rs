//! The kernel rows of the differential oracle (`tests/oracle/`), where
//! absorption has real programs to work on: a trial ends as soon as its
//! fault is gone, and must journal what running it to its end does. Each
//! planned run of a kernel row journals what the row's reference does,
//! and which trials end absorbed depends on the channel. The guard
//! programs each rule of absorption exists for are checked in
//! `tests/equivalence.rs`.

mod oracle;

use oracle::hold_slice;

/// IS, FT, MG, LU, CG, HALO and LAMMPS on the parameter (data buffers,
/// and every parameter), message, crash-stop, fail-slow and partition
/// channels, on both transports.
#[test]
fn seven_kernels_journal_byte_identical_on_every_channel_and_transport() {
    let totals = hold_slice(
        module_path!(),
        "seven_kernels_journal_byte_identical_on_every_channel_and_transport",
    );
    assert!(
        totals.absorbed_param_data > 0,
        "a flipped buffer the result overwrites, or that no result depends on, is gone"
    );
}

/// HALO at 64 ranks under five schedules: only a burst is an event that
/// can be spent; a heal or a cascade never absorbs.
#[test]
fn timelines_journal_byte_identical_and_only_bursts_absorb() {
    let totals = hold_slice(
        module_path!(),
        "timelines_journal_byte_identical_and_only_bursts_absorb",
    );
    assert!(
        totals.absorbed_bursts > 0,
        "a burst that fits the run is spent"
    );
}

/// IS's ML loop, cold and warm-started.
#[test]
fn ml_campaigns_journal_byte_identical_cold_and_warm() {
    hold_slice(
        module_path!(),
        "ml_campaigns_journal_byte_identical_cold_and_warm",
    );
}

/// IS's resilient message campaign, split into two trial ranges one trial
/// into a point.
#[test]
fn trial_ranges_split_inside_a_point_merge_to_the_unabsorbed_journal() {
    hold_slice(
        module_path!(),
        "trial_ranges_split_inside_a_point_merge_to_the_unabsorbed_journal",
    );
}

/// Killed and resumed from its journal, a kernel campaign (MG's are in
/// `tests/determinism.rs`) journals what the uninterrupted run does.
#[test]
fn crash_and_resume_matches_the_uninterrupted_unabsorbed_run() {
    hold_slice(
        module_path!(),
        "crash_and_resume_matches_the_uninterrupted_unabsorbed_run",
    );
}
