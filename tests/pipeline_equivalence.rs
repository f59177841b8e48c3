//! The width axis of the differential oracle (`tests/oracle/`): running
//! trials ahead of the commit point must be invisible. Each planned run
//! of a synthetic row at width 2 or 4, or split into two trial ranges
//! inside a point, journals what the row's one-trial-at-a-time reference
//! does. The pipeline's commit point itself (a crash inside `on_event`,
//! `hold_after`, retries on any thread) is checked in
//! `tests/equivalence.rs`.

mod oracle;

use oracle::hold_slice;

/// Every fault channel on both transports.
#[test]
fn all_channels_journal_byte_identical_across_widths() {
    hold_slice(
        module_path!(),
        "all_channels_journal_byte_identical_across_widths",
    );
}

/// Burst, burst-and-heal and cascade schedules.
#[test]
fn timeline_journals_byte_identical_across_widths() {
    hold_slice(
        module_path!(),
        "timeline_journals_byte_identical_across_widths",
    );
}

/// The ML loop, cold and warm-started, measures its batches in the order
/// it picks them whatever the width.
#[test]
fn ml_campaign_journals_byte_identical_across_widths() {
    hold_slice(
        module_path!(),
        "ml_campaign_journals_byte_identical_across_widths",
    );
}

/// Two trial ranges split one trial into a point merge to the unsplit
/// journal.
#[test]
fn trial_ranges_split_inside_a_point_merge_to_the_serial_journal() {
    hold_slice(
        module_path!(),
        "trial_ranges_split_inside_a_point_merge_to_the_serial_journal",
    );
}
