//! The engine axis of the differential oracle (`tests/oracle/`): the
//! cooperative rank scheduler must be an invisible optimisation. Each
//! planned run of a synthetic row on the coop engine journals what the
//! row's thread-per-rank reference does — same outcomes, retransmit
//! counts, fatal attribution and op ordinals — which is what makes it
//! honest to leave the scheduler out of campaign identity. The fleet
//! range shard on coop workers is in `tests/fleet.rs`.

mod oracle;

use oracle::hold_slice;

/// Every fault channel (the parameter channel over every parameter) on
/// both transports.
#[test]
fn all_channels_journal_byte_identical_across_engines() {
    hold_slice(
        module_path!(),
        "all_channels_journal_byte_identical_across_engines",
    );
}

/// Burst, burst-and-heal and cascade schedules.
#[test]
fn timeline_journals_byte_identical_across_engines() {
    hold_slice(
        module_path!(),
        "timeline_journals_byte_identical_across_engines",
    );
}

/// What a timer ends — held wire messages, fail-slow delays, a burst —
/// runs on virtual time on the coop engine and on the wall clock on
/// threads.
#[test]
fn timer_faults_journal_byte_identical_across_engines() {
    hold_slice(
        module_path!(),
        "timer_faults_journal_byte_identical_across_engines",
    );
}

/// Killed on coop and resumed from its journal, a campaign journals what
/// the uninterrupted threaded run does.
#[test]
fn coop_kill_resume_matches_uninterrupted_threaded_run() {
    hold_slice(
        module_path!(),
        "coop_kill_resume_matches_uninterrupted_threaded_run",
    );
}
