//! The replay axis of the differential oracle (`tests/oracle/`): prefix
//! replay and absorption must be invisible. Each planned run of a
//! synthetic row that replays the collectives ahead of its fault, and
//! ends a trial once its fault is gone, journals what the row's
//! reference, which exchanges every call and runs every trial to its end,
//! does. Where replay cannot prove a trial its own it falls back; that
//! guard is checked in `tests/equivalence.rs`.

mod oracle;

use oracle::hold_slice;

/// Every fault channel (the parameter channel over every parameter) on
/// both transports, trials that never fire among them.
#[test]
fn all_channels_journal_byte_identical_with_and_without_replay() {
    let totals = hold_slice(
        module_path!(),
        "all_channels_journal_byte_identical_with_and_without_replay",
    );
    // Trials whose fault never lands (a message plan aimed past the call's
    // last send, a partition no scoped message crosses) are compared too.
    assert!(
        totals.unfired > 0,
        "the matrix holds trials that never fired"
    );
}

/// Burst, burst-and-heal and cascade schedules.
#[test]
fn timelines_journal_byte_identical_with_and_without_replay() {
    hold_slice(
        module_path!(),
        "timelines_journal_byte_identical_with_and_without_replay",
    );
}

/// The ML loop, cold and warm-started.
#[test]
fn ml_campaigns_journal_byte_identical_with_and_without_replay() {
    hold_slice(
        module_path!(),
        "ml_campaigns_journal_byte_identical_with_and_without_replay",
    );
}

/// Two replaying trial ranges split one trial into a point merge to the
/// unsplit, unreplayed journal.
#[test]
fn trial_ranges_split_inside_a_point_merge_to_the_unreplayed_journal() {
    hold_slice(
        module_path!(),
        "trial_ranges_split_inside_a_point_merge_to_the_unreplayed_journal",
    );
}

/// Killed and resumed from its journal, a campaign journals what the
/// uninterrupted, unreplayed run does.
#[test]
fn kill_resume_with_replay_matches_the_uninterrupted_unreplayed_run() {
    hold_slice(
        module_path!(),
        "kill_resume_with_replay_matches_the_uninterrupted_unreplayed_run",
    );
}
