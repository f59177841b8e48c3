//! Fault timelines: deterministic schedules of correlated fault events.
//!
//! A single-draw campaign arms exactly one fault per trial. Real HPC
//! failures arrive as *correlated sequences* — bursts of corrupt
//! messages, a slow node that later dies, a partition that heals — so a
//! [`FaultTimeline`] upgrades the per-trial fault from one draw to an
//! ordered schedule of [`TimelineEvent`]s.
//!
//! # Trigger determinism
//!
//! Every trigger is keyed to **logical op progress**: the anchor event
//! fires when the addressed `(rank, site, invocation)` of the campaign's
//! injection point executes, and every later event fires when the anchor
//! rank has entered `offset` further collective operations — counted by
//! the injector hook itself, never by wall clock. A timeline therefore
//! replays bit-identically under resume, arena reuse, and fleet
//! range-sharding, exactly like the single-draw channels.
//!
//! # Families
//!
//! Timelines are written as a `+`-joined list of family segments; the
//! canonical token string is part of campaign/journal identity:
//!
//! | token | events |
//! |-------|--------|
//! | `single` | the default: one draw, no schedule (never journaled) |
//! | `burst:W[:G]` | `W` message faults, `G` collectives apart (default 1) |
//! | `cascade:D` | fail-slow at the anchor, crash-stop `D` collectives later |
//! | `heal:D` | a transient partition that heals after `D` collectives |
//!
//! `burst:4+heal:6` is a valid compound: four message faults ride on a
//! six-op transient partition. The campaign's fault channel is always the
//! first segment's channel (`burst` → message, `cascade` → fail-slow,
//! `heal` → partition); spec resolution enforces the pairing.
//!
//! All events of a trial decode from the trial's single `u64` bit draw
//! (message event `i` uses `bit + i`), so the campaign RNG stream is
//! identical to a single-draw campaign's — one draw per trial.

use crate::space::FaultChannel;

/// Upper bound for burst widths, gaps, cascade deltas, and heal delays.
/// Keeps schedules well inside the 20-bit collective-sequence tag space
/// and the op budgets of real campaigns.
pub const MAX_TIMELINE_SPAN: u64 = 4096;

/// The canonical token of the default (single-draw) timeline.
pub const SINGLE_TOKEN: &str = "single";

/// One scheduled fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimelineEvent {
    /// Collective entries of the anchor rank after the anchor entry
    /// (0 = at the anchor itself). Partition events always anchor at 0:
    /// every rank arms its cut at the addressed `(site, invocation)`.
    pub offset: u64,
    /// Which layer receives this event.
    pub channel: FaultChannel,
    /// For events that *lift* (currently partitions): the event heals
    /// after this many collective operations past its trigger.
    pub duration: Option<u64>,
}

/// An ordered, deterministic schedule of fault events for one trial.
///
/// The canonical token string is the timeline's identity: it is what
/// campaign metas journal, specs carry over the wire, and scenario
/// grammars sweep. [`FaultTimeline::default`] is the single-draw
/// timeline, which encodes to nothing (full back-compat).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FaultTimeline {
    token: String,
    events: Vec<TimelineEvent>,
}

impl Default for FaultTimeline {
    fn default() -> Self {
        FaultTimeline {
            token: SINGLE_TOKEN.to_string(),
            events: Vec::new(),
        }
    }
}

fn parse_span(what: &str, seg: &str, s: &str) -> Result<u64, String> {
    let v: u64 = s
        .parse()
        .map_err(|_| format!("timeline segment {seg:?}: {what} {s:?} is not a number"))?;
    if v == 0 || v > MAX_TIMELINE_SPAN {
        return Err(format!(
            "timeline segment {seg:?}: {what} must be in 1..={MAX_TIMELINE_SPAN}"
        ));
    }
    Ok(v)
}

impl FaultTimeline {
    /// Parse a timeline token (`single`, or `+`-joined family segments).
    /// Returns the timeline with its *canonical* token — `burst:4:1`
    /// normalises to `burst:4`, and `burst:1:G` to `burst:1` (one event
    /// has no gap) — so identity never depends on spelling.
    pub fn parse(token: &str) -> Result<FaultTimeline, String> {
        if token == SINGLE_TOKEN {
            return Ok(FaultTimeline::default());
        }
        let mut events = Vec::new();
        let mut canon = Vec::new();
        let mut heals = 0u32;
        for seg in token.split('+') {
            let parts: Vec<&str> = seg.split(':').collect();
            match parts.as_slice() {
                ["burst", w] | ["burst", w, _] => {
                    let width = parse_span("width", seg, w)?;
                    let gap = match parts.as_slice() {
                        ["burst", _, g] => parse_span("gap", seg, g)?,
                        _ => 1,
                    };
                    // One event has no gap: `burst:1:G` is `burst:1`.
                    let gap = if width == 1 { 1 } else { gap };
                    if width.saturating_mul(gap) > MAX_TIMELINE_SPAN {
                        return Err(format!(
                            "timeline segment {seg:?}: burst spans more than \
                             {MAX_TIMELINE_SPAN} collectives"
                        ));
                    }
                    for i in 0..width {
                        events.push(TimelineEvent {
                            offset: i * gap,
                            channel: FaultChannel::Message,
                            duration: None,
                        });
                    }
                    canon.push(if gap == 1 {
                        format!("burst:{width}")
                    } else {
                        format!("burst:{width}:{gap}")
                    });
                }
                ["cascade", d] => {
                    let delta = parse_span("delta", seg, d)?;
                    events.push(TimelineEvent {
                        offset: 0,
                        channel: FaultChannel::FailSlow,
                        duration: None,
                    });
                    events.push(TimelineEvent {
                        offset: delta,
                        channel: FaultChannel::CrashStop,
                        duration: None,
                    });
                    canon.push(format!("cascade:{delta}"));
                }
                ["heal", d] => {
                    let delay = parse_span("delay", seg, d)?;
                    heals += 1;
                    events.push(TimelineEvent {
                        offset: 0,
                        channel: FaultChannel::Partition,
                        duration: Some(delay),
                    });
                    canon.push(format!("heal:{delay}"));
                }
                _ => {
                    return Err(format!(
                        "unknown timeline segment {seg:?} \
                         (expected single, burst:W[:G], cascade:D, or heal:D)"
                    ));
                }
            }
        }
        if heals > 1 {
            return Err("a timeline may carry at most one heal segment".to_string());
        }
        Ok(FaultTimeline {
            token: canon.join("+"),
            events,
        })
    }

    /// The canonical token (journal/spec identity).
    pub fn token(&self) -> &str {
        &self.token
    }

    /// Whether this is the default single-draw timeline (no schedule).
    pub fn is_single(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events, in segment order.
    pub fn events(&self) -> &[TimelineEvent] {
        &self.events
    }

    /// The campaign fault channel this timeline belongs to: the first
    /// event's channel. `None` for the single-draw timeline (the campaign
    /// channel is free).
    pub fn primary_channel(&self) -> Option<FaultChannel> {
        self.events.first().map(|e| e.channel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_is_the_default_and_has_no_events() {
        let t = FaultTimeline::default();
        assert!(t.is_single());
        assert_eq!(t.token(), "single");
        assert_eq!(t.primary_channel(), None);
        assert_eq!(FaultTimeline::parse("single").unwrap(), t);
    }

    #[test]
    fn burst_expands_to_offset_spaced_message_events() {
        let t = FaultTimeline::parse("burst:3").unwrap();
        assert_eq!(t.token(), "burst:3");
        assert_eq!(t.primary_channel(), Some(FaultChannel::Message));
        let offs: Vec<u64> = t.events().iter().map(|e| e.offset).collect();
        assert_eq!(offs, vec![0, 1, 2]);
        assert!(t
            .events()
            .iter()
            .all(|e| e.channel == FaultChannel::Message && e.duration.is_none()));

        let t = FaultTimeline::parse("burst:2:5").unwrap();
        assert_eq!(t.token(), "burst:2:5");
        let offs: Vec<u64> = t.events().iter().map(|e| e.offset).collect();
        assert_eq!(offs, vec![0, 5]);
    }

    #[test]
    fn burst_gap_of_one_normalises_to_the_short_spelling() {
        let t = FaultTimeline::parse("burst:4:1").unwrap();
        assert_eq!(t.token(), "burst:4");
        assert_eq!(t, FaultTimeline::parse("burst:4").unwrap());
    }

    #[test]
    fn cascade_is_fail_slow_then_crash_stop() {
        let t = FaultTimeline::parse("cascade:7").unwrap();
        assert_eq!(t.token(), "cascade:7");
        assert_eq!(t.primary_channel(), Some(FaultChannel::FailSlow));
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.events()[0].channel, FaultChannel::FailSlow);
        assert_eq!(t.events()[0].offset, 0);
        assert_eq!(t.events()[1].channel, FaultChannel::CrashStop);
        assert_eq!(t.events()[1].offset, 7);
    }

    #[test]
    fn heal_is_a_transient_partition() {
        let t = FaultTimeline::parse("heal:6").unwrap();
        assert_eq!(t.primary_channel(), Some(FaultChannel::Partition));
        assert_eq!(t.events().len(), 1);
        assert_eq!(t.events()[0].offset, 0);
        assert_eq!(t.events()[0].duration, Some(6));
    }

    #[test]
    fn compound_segments_concatenate_and_first_segment_rules() {
        let t = FaultTimeline::parse("burst:4+heal:6").unwrap();
        assert_eq!(t.token(), "burst:4+heal:6");
        assert_eq!(t.primary_channel(), Some(FaultChannel::Message));
        assert_eq!(t.events().len(), 5);
        assert_eq!(t.events()[4].channel, FaultChannel::Partition);
        assert_eq!(t.events()[4].duration, Some(6));
    }

    #[test]
    fn canonical_tokens_roundtrip() {
        for tok in [
            "single",
            "burst:16",
            "burst:2:3",
            "cascade:4",
            "heal:2",
            "burst:4+heal:6",
        ] {
            let t = FaultTimeline::parse(tok).unwrap();
            assert_eq!(t.token(), tok);
            assert_eq!(FaultTimeline::parse(t.token()).unwrap(), t);
        }
        // A one-event burst has no gap: every spelling is one timeline.
        for (spelling, tok) in [
            ("burst:1:7", "burst:1"),
            ("burst:1:3+heal:2", "burst:1+heal:2"),
        ] {
            let t = FaultTimeline::parse(spelling).unwrap();
            assert_eq!(t.token(), tok);
            assert_eq!(t, FaultTimeline::parse(tok).unwrap());
        }
    }

    #[test]
    fn malformed_tokens_are_rejected() {
        for tok in [
            "",
            "bogus",
            "burst",
            "burst:0",
            "burst:x",
            "burst:4:0",
            "burst:4097",
            "burst:100:100",
            "cascade:0",
            "cascade:",
            "heal:0",
            "heal:4097",
            "single+heal:2",
            "heal:2+heal:3",
        ] {
            assert!(
                FaultTimeline::parse(tok).is_err(),
                "{tok:?} must be rejected"
            );
        }
    }
}
