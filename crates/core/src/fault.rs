//! The fault model: one single-bit flip in one input parameter of one
//! collective invocation on one rank (§II of the paper) — or, under a
//! [`FaultTimeline`], an ordered schedule of correlated fault events
//! anchored at that point.
//!
//! The injector is a [`CollHook`] — the PMPI-interposition seam of the
//! simulated runtime. When the targeted `(rank, site, invocation)` executes,
//! the hook flips the requested bit in the requested parameter and records
//! that it fired. Timeline events past the anchor are triggered by the
//! anchor rank's *logical collective-entry ordinal* (counted by the hook
//! itself, never wall clock), so schedules replay bit-identically under
//! resume, arena reuse, and fleet range-sharding.

use crate::space::{FaultChannel, InjectionPoint};
use crate::timeline::{FaultTimeline, TimelineEvent};
use simmpi::hook::{CollCall, CollHook, ParamId};
use simmpi::transport::{MsgFaultPlan, RankFaultPlan};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// One concrete fault: a bit position within the target parameter
/// (`Param` channel), a message-fault plan draw (`Message` channel), or a
/// rank-fault plan draw (`CrashStop`/`FailSlow`/`Partition` channels).
///
/// `bit` is reduced modulo the parameter's width at injection time (for
/// buffers: modulo the buffer's bit length), so callers can draw it
/// uniformly from a wide range without knowing buffer sizes up front. On
/// the `Message` channel the same draw decodes via
/// [`MsgFaultPlan::from_bit`]; on the rank channels via the
/// [`RankFaultPlan`] constructors.
///
/// Under a non-single `timeline` the same single draw seeds *every*
/// scheduled event (message event `i` decodes from `bit + i`), keeping
/// the campaign RNG stream identical to a single-draw campaign's.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// Where to inject (the timeline anchor).
    pub point: InjectionPoint,
    /// Which bit to flip (or the plan draw for the other channels).
    pub bit: u64,
    /// Which layer receives the fault (the timeline's primary channel).
    pub channel: FaultChannel,
    /// The event schedule; [`FaultTimeline::default`] is the single-draw
    /// model above.
    pub timeline: FaultTimeline,
}

impl FaultSpec {
    /// A single-draw spec (the paper's model; no schedule).
    pub fn single(point: InjectionPoint, bit: u64, channel: FaultChannel) -> FaultSpec {
        FaultSpec {
            point,
            bit,
            channel,
            timeline: FaultTimeline::default(),
        }
    }
}

/// The interposition hook that performs the injection.
pub struct InjectorHook {
    spec: FaultSpec,
    fired: AtomicBool,
    /// The anchor rank has made its anchor entry (single-draw mode).
    anchor_entered: AtomicBool,
    /// Collective entries of the anchor rank seen so far (timeline mode).
    ordinal: AtomicU64,
    /// Anchor rank's ordinal at the anchor entry; `u64::MAX` until the
    /// anchor is reached.
    armed_at: AtomicU64,
    /// Per-event hook-side ground truth: the event's plan was armed at its
    /// trigger entry. Wire-level events (message, partition) get their
    /// fired truth from the transport instead.
    event_fired: Vec<AtomicBool>,
    /// Per-event lift truth: the event's duration elapsed on the anchor
    /// rank (a healed partition).
    event_lifted: Vec<AtomicBool>,
}

impl InjectorHook {
    /// Create a hook for one fault (or one fault schedule).
    pub fn new(spec: FaultSpec) -> Self {
        let n = spec.timeline.events().len();
        InjectorHook {
            spec,
            fired: AtomicBool::new(false),
            anchor_entered: AtomicBool::new(false),
            ordinal: AtomicU64::new(0),
            armed_at: AtomicU64::new(u64::MAX),
            event_fired: (0..n).map(|_| AtomicBool::new(false)).collect(),
            event_lifted: (0..n).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Whether the fault was actually injected during the run (the target
    /// invocation was reached and had a non-empty target parameter). For
    /// the `Message` channel this only means the plan was *armed* — whether
    /// a message was actually hit is reported by the transport
    /// (`JobResult::transport.fault_fired`).
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }

    /// Timeline events whose injection the *hook* can vouch for: param
    /// flips and rank plans armed at their trigger entry. Message and
    /// partition events fire at the wire; combine with
    /// `TransportStats::msg_faults_fired` / `partition_drops` for the full
    /// per-trial count.
    pub fn events_fired(&self) -> u64 {
        self.event_fired
            .iter()
            .filter(|f| f.load(Ordering::Acquire))
            .count() as u64
    }

    /// Timeline events whose lift point (trigger + duration) was reached
    /// on the anchor rank — healed partitions.
    pub fn events_lifted(&self) -> u64 {
        self.event_lifted
            .iter()
            .filter(|f| f.load(Ordering::Acquire))
            .count() as u64
    }

    /// Timeline dispatch: called for every collective entry once the spec
    /// carries a schedule.
    fn before_timeline(&self, call: &mut CollCall<'_>, events: &[TimelineEvent]) {
        let p = &self.spec.point;
        let bit = self.spec.bit;
        let at_anchor = call.site == p.site && call.invocation == p.invocation;
        // Partition events arm on *every* rank at the anchor coordinates
        // (same all-ranks rule as the single-draw partition channel); the
        // transport enforces the heal via the scoped sequence window.
        if at_anchor {
            for ev in events {
                if ev.channel != FaultChannel::Partition {
                    continue;
                }
                let RankFaultPlan::Partition {
                    cut_draw, sticky, ..
                } = RankFaultPlan::partition_from_bit(bit)
                else {
                    unreachable!("partition_from_bit decodes a partition")
                };
                call.rank_fault = Some(RankFaultPlan::Partition {
                    cut_draw,
                    // A healing partition is never sticky: the heal *is*
                    // the recovery semantics under test.
                    sticky: ev.duration.is_none() && sticky,
                    heal_after: ev.duration,
                });
                self.fired.store(true, Ordering::Release);
            }
        }
        // Offset-triggered events live on the anchor rank's logical
        // collective-entry clock.
        if call.rank != p.rank {
            return;
        }
        let ord = self.ordinal.fetch_add(1, Ordering::SeqCst);
        if at_anchor {
            let _ =
                self.armed_at
                    .compare_exchange(u64::MAX, ord, Ordering::SeqCst, Ordering::SeqCst);
        }
        let armed_at = self.armed_at.load(Ordering::SeqCst);
        if armed_at == u64::MAX {
            return;
        }
        let elapsed = ord - armed_at;
        for (i, ev) in events.iter().enumerate() {
            if let Some(d) = ev.duration {
                if elapsed >= d {
                    self.event_lifted[i].store(true, Ordering::Release);
                }
            }
            if elapsed != ev.offset {
                continue;
            }
            match ev.channel {
                FaultChannel::Message => {
                    call.msg_fault = Some(MsgFaultPlan::from_bit(bit.wrapping_add(i as u64)));
                    self.fired.store(true, Ordering::Release);
                }
                FaultChannel::FailSlow => {
                    call.rank_fault = Some(RankFaultPlan::fail_slow_from_bit(bit));
                    self.event_fired[i].store(true, Ordering::Release);
                    self.fired.store(true, Ordering::Release);
                }
                FaultChannel::CrashStop => {
                    call.rank_fault = Some(RankFaultPlan::CrashStop);
                    self.event_fired[i].store(true, Ordering::Release);
                    self.fired.store(true, Ordering::Release);
                }
                // Partitions were armed above (all ranks); parameter
                // events are not part of any timeline family.
                FaultChannel::Partition | FaultChannel::Param => {}
            }
        }
    }
}

fn flip_buf(buf: &mut [u8], bit: u64) -> bool {
    if buf.is_empty() {
        return false;
    }
    let b = (bit % (buf.len() as u64 * 8)) as usize;
    buf[b / 8] ^= 1 << (b % 8);
    true
}

fn flip_u32(v: &mut u32, bit: u64) -> bool {
    *v ^= 1 << (bit % 32);
    true
}

fn flip_i32(v: &mut i32, bit: u64) -> bool {
    *v ^= 1 << (bit % 32);
    true
}

impl CollHook for InjectorHook {
    fn before(&self, call: &mut CollCall<'_>) {
        if !self.spec.timeline.is_single() {
            self.before_timeline(call, self.spec.timeline.events());
            return;
        }
        let p = &self.spec.point;
        let bit = self.spec.bit;
        // A partition is not a single-rank fault: *every* rank must learn
        // the cut at the addressed `(site, invocation)` and police its own
        // sends, so the rank component of the address is ignored here (it
        // still contributes to the point identity and the bit draw).
        if self.spec.channel == FaultChannel::Partition {
            if call.site != p.site || call.invocation != p.invocation {
                return;
            }
            call.rank_fault = Some(RankFaultPlan::partition_from_bit(bit));
            self.fired.store(true, Ordering::Release);
            return;
        }
        if call.rank != p.rank || call.site != p.site || call.invocation != p.invocation {
            return;
        }
        self.anchor_entered.store(true, Ordering::Release);
        match self.spec.channel {
            FaultChannel::Message => {
                // Arm a transport fault on this rank's sends within this
                // invocation; the parameters themselves stay healthy.
                call.msg_fault = Some(MsgFaultPlan::from_bit(bit));
                self.fired.store(true, Ordering::Release);
                return;
            }
            FaultChannel::CrashStop => {
                call.rank_fault = Some(RankFaultPlan::CrashStop);
                self.fired.store(true, Ordering::Release);
                return;
            }
            FaultChannel::FailSlow => {
                call.rank_fault = Some(RankFaultPlan::fail_slow_from_bit(bit));
                self.fired.store(true, Ordering::Release);
                return;
            }
            FaultChannel::Param => {}
            FaultChannel::Partition => unreachable!("handled above"),
        }
        let fired = match p.param {
            ParamId::SendBuf => call
                .sendbuf
                .as_deref_mut()
                .map(|b| flip_buf(b, bit))
                .unwrap_or(false),
            ParamId::RecvBuf => call
                .recvbuf
                .as_deref_mut()
                .map(|b| flip_buf(b, bit))
                .unwrap_or(false),
            ParamId::Count => {
                // For v-collectives, flip a bit in one entry of the send
                // counts vector; otherwise the scalar count.
                if let Some(counts) = call.params.send_counts.as_mut() {
                    if counts.is_empty() {
                        false
                    } else {
                        let idx = ((bit / 32) as usize) % counts.len();
                        flip_i32(&mut counts[idx], bit)
                    }
                } else {
                    flip_i32(&mut call.params.count, bit)
                }
            }
            ParamId::Datatype => flip_u32(&mut call.params.dtype, bit),
            ParamId::Op => flip_u32(&mut call.params.op, bit),
            ParamId::Root => flip_i32(&mut call.params.root, bit),
            ParamId::Comm => flip_u32(&mut call.params.comm, bit),
        };
        if fired {
            call.corrupted = true;
            self.fired.store(true, Ordering::Release);
        }
    }

    /// A single parameter or message draw is spent once the anchor rank
    /// has made its anchor entry — fired or not — and an all-message
    /// timeline once every event has had its entry on that rank's clock.
    /// A faulty rank and a partition are conditions, not events: those
    /// schedules (crash-stop, fail-slow, partition, `cascade`, `heal`)
    /// are never spent, and their trials run to their end.
    fn spent(&self, rank: usize) -> bool {
        if rank != self.spec.point.rank {
            return false;
        }
        if self.spec.timeline.is_single() {
            return matches!(
                self.spec.channel,
                FaultChannel::Param | FaultChannel::Message
            ) && self.anchor_entered.load(Ordering::Acquire);
        }
        let events = self.spec.timeline.events();
        let last = events.iter().map(|ev| ev.offset).max().unwrap_or(0);
        let armed_at = self.armed_at.load(Ordering::SeqCst);
        events.iter().all(|ev| ev.channel == FaultChannel::Message)
            && armed_at != u64::MAX
            && self.ordinal.load(Ordering::SeqCst) > armed_at + last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::datatype::Datatype;
    use simmpi::hook::{CallSite, CollKind, CollParams};
    use simmpi::op::ReduceOp;

    fn point(param: ParamId) -> InjectionPoint {
        InjectionPoint {
            site: CallSite {
                file: "k.rs",
                line: 5,
            },
            kind: CollKind::Allreduce,
            rank: 2,
            invocation: 1,
            param,
        }
    }

    fn call_at<'a>(
        rank: usize,
        invocation: u64,
        params: &'a mut CollParams,
        sendbuf: Option<&'a mut Vec<u8>>,
    ) -> CollCall<'a> {
        CollCall {
            kind: CollKind::Allreduce,
            site: CallSite {
                file: "k.rs",
                line: 5,
            },
            invocation,
            rank,
            params,
            sendbuf,
            recvbuf: None,
            corrupted: false,
            msg_fault: None,
            rank_fault: None,
        }
    }

    fn spec(param: ParamId, bit: u64) -> FaultSpec {
        FaultSpec::single(point(param), bit, FaultChannel::Param)
    }

    #[test]
    fn fires_only_on_exact_target() {
        let hook = InjectorHook::new(spec(ParamId::Count, 3));
        let mut params =
            CollParams::simple(8, Datatype::Float64, ReduceOp::Sum, 0, simmpi::comm::WORLD);
        // Wrong rank.
        hook.before(&mut call_at(0, 1, &mut params, None));
        assert!(!hook.fired());
        assert_eq!(params.count, 8);
        // Wrong invocation.
        hook.before(&mut call_at(2, 0, &mut params, None));
        assert!(!hook.fired());
        // Exact target.
        hook.before(&mut call_at(2, 1, &mut params, None));
        assert!(hook.fired());
        assert_eq!(params.count, 8 ^ (1 << 3));
    }

    #[test]
    fn buffer_flip_changes_exactly_one_bit() {
        let hook = InjectorHook::new(spec(ParamId::SendBuf, 8 * 5 + 2)); // byte 5, bit 2
        let mut params =
            CollParams::simple(8, Datatype::Float64, ReduceOp::Sum, 0, simmpi::comm::WORLD);
        let mut buf = vec![0u8; 16];
        hook.before(&mut call_at(2, 1, &mut params, Some(&mut buf)));
        assert!(hook.fired());
        let ones: u32 = buf.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1);
        assert_eq!(buf[5], 1 << 2);
    }

    #[test]
    fn buffer_bit_wraps_modulo_length() {
        let hook = InjectorHook::new(spec(ParamId::SendBuf, 16 * 8 + 1)); // wraps to bit 1 of byte 0
        let mut params =
            CollParams::simple(1, Datatype::Byte, ReduceOp::Sum, 0, simmpi::comm::WORLD);
        let mut buf = vec![0u8; 16];
        hook.before(&mut call_at(2, 1, &mut params, Some(&mut buf)));
        assert_eq!(buf[0], 1 << 1);
    }

    #[test]
    fn empty_buffer_does_not_fire() {
        let hook = InjectorHook::new(spec(ParamId::SendBuf, 0));
        let mut params =
            CollParams::simple(0, Datatype::Byte, ReduceOp::Sum, 0, simmpi::comm::WORLD);
        let mut buf = Vec::new();
        hook.before(&mut call_at(2, 1, &mut params, Some(&mut buf)));
        assert!(!hook.fired());
    }

    #[test]
    fn comm_flip_corrupts_handle() {
        let hook = InjectorHook::new(spec(ParamId::Comm, 40)); // 40 % 32 = bit 8
        let mut params =
            CollParams::simple(1, Datatype::Byte, ReduceOp::Sum, 0, simmpi::comm::WORLD);
        let before = params.comm;
        hook.before(&mut call_at(2, 1, &mut params, None));
        assert_eq!(params.comm, before ^ (1 << 8));
    }

    #[test]
    fn message_channel_arms_plan_and_leaves_params_healthy() {
        let hook = InjectorHook::new(FaultSpec::single(
            point(ParamId::SendBuf),
            1, // decodes to a non-sticky Drop on send 0
            FaultChannel::Message,
        ));
        let mut params =
            CollParams::simple(8, Datatype::Float64, ReduceOp::Sum, 0, simmpi::comm::WORLD);
        let before = params.clone();
        let mut buf = vec![0u8; 16];
        // Off-target: nothing armed.
        let mut call = call_at(0, 1, &mut params, Some(&mut buf));
        hook.before(&mut call);
        assert!(call.msg_fault.is_none());
        assert!(!hook.fired());
        // On-target: plan armed, parameters and buffers untouched.
        let mut call = call_at(2, 1, &mut params, Some(&mut buf));
        hook.before(&mut call);
        assert_eq!(call.msg_fault, Some(MsgFaultPlan::from_bit(1)));
        assert!(hook.fired());
        assert_eq!(params, before);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn crash_stop_and_fail_slow_arm_rank_plans_on_the_target_rank_only() {
        for (channel, expect) in [
            (FaultChannel::CrashStop, RankFaultPlan::CrashStop),
            (FaultChannel::FailSlow, RankFaultPlan::fail_slow_from_bit(9)),
        ] {
            let hook = InjectorHook::new(FaultSpec::single(point(ParamId::SendBuf), 9, channel));
            let mut params =
                CollParams::simple(8, Datatype::Float64, ReduceOp::Sum, 0, simmpi::comm::WORLD);
            let before = params.clone();
            // Off-target rank: nothing armed.
            let mut call = call_at(0, 1, &mut params, None);
            hook.before(&mut call);
            assert!(call.rank_fault.is_none(), "{:?}", channel);
            assert!(!hook.fired());
            // Target rank: plan armed, parameters untouched.
            let mut call = call_at(2, 1, &mut params, None);
            hook.before(&mut call);
            assert_eq!(call.rank_fault, Some(expect), "{:?}", channel);
            assert!(hook.fired());
            assert_eq!(params, before);
        }
    }

    #[test]
    fn partition_arms_on_every_rank_at_the_addressed_invocation() {
        let hook = InjectorHook::new(FaultSpec::single(
            point(ParamId::SendBuf), // addresses rank 2
            3,                       // decodes sticky
            FaultChannel::Partition,
        ));
        let mut params =
            CollParams::simple(8, Datatype::Float64, ReduceOp::Sum, 0, simmpi::comm::WORLD);
        // Wrong invocation: nothing armed, on any rank.
        let mut call = call_at(2, 0, &mut params, None);
        hook.before(&mut call);
        assert!(call.rank_fault.is_none());
        // Right invocation: every rank arms the same plan, not just rank 2.
        for rank in [0, 1, 2, 3] {
            let mut call = call_at(rank, 1, &mut params, None);
            hook.before(&mut call);
            assert_eq!(
                call.rank_fault,
                Some(RankFaultPlan::partition_from_bit(3)),
                "rank {rank}"
            );
        }
        assert!(hook.fired());
    }

    fn timeline_spec(token: &str, bit: u64) -> FaultSpec {
        let timeline = FaultTimeline::parse(token).unwrap();
        FaultSpec {
            point: point(ParamId::SendBuf),
            bit,
            channel: timeline.primary_channel().unwrap(),
            timeline,
        }
    }

    #[test]
    fn burst_timeline_arms_message_plans_at_offset_spaced_entries() {
        let hook = InjectorHook::new(timeline_spec("burst:2:2", 1));
        let mut params =
            CollParams::simple(8, Datatype::Float64, ReduceOp::Sum, 0, simmpi::comm::WORLD);
        // Entries before the anchor tick the ordinal but arm nothing.
        let mut call = call_at(2, 0, &mut params, None);
        hook.before(&mut call);
        assert!(call.msg_fault.is_none());
        // The anchor entry (invocation 1) fires event 0.
        let mut call = call_at(2, 1, &mut params, None);
        hook.before(&mut call);
        assert_eq!(call.msg_fault, Some(MsgFaultPlan::from_bit(1)));
        // One entry later: the gap — nothing armed.
        let mut call = call_at(2, 2, &mut params, None);
        hook.before(&mut call);
        assert!(call.msg_fault.is_none());
        // Two entries after the anchor: event 1, decoded from bit + 1.
        let mut call = call_at(2, 3, &mut params, None);
        hook.before(&mut call);
        assert_eq!(call.msg_fault, Some(MsgFaultPlan::from_bit(2)));
        // Message events get their fired truth from the transport, not
        // the hook.
        assert_eq!(hook.events_fired(), 0);
        assert_eq!(hook.events_lifted(), 0);
    }

    #[test]
    fn burst_timeline_ignores_other_ranks_entries() {
        let hook = InjectorHook::new(timeline_spec("burst:2", 1));
        let mut params =
            CollParams::simple(8, Datatype::Float64, ReduceOp::Sum, 0, simmpi::comm::WORLD);
        // Anchor on rank 2.
        hook.before(&mut call_at(2, 1, &mut params, None));
        // Another rank's entries must not advance the anchor clock.
        let mut call = call_at(0, 2, &mut params, None);
        hook.before(&mut call);
        assert!(call.msg_fault.is_none());
        // The anchor rank's next entry is event 1.
        let mut call = call_at(2, 2, &mut params, None);
        hook.before(&mut call);
        assert_eq!(call.msg_fault, Some(MsgFaultPlan::from_bit(2)));
    }

    #[test]
    fn cascade_timeline_slows_then_kills_the_anchor_rank() {
        let hook = InjectorHook::new(timeline_spec("cascade:2", 9));
        let mut params =
            CollParams::simple(8, Datatype::Float64, ReduceOp::Sum, 0, simmpi::comm::WORLD);
        let mut call = call_at(2, 1, &mut params, None);
        hook.before(&mut call);
        assert_eq!(
            call.rank_fault,
            Some(RankFaultPlan::fail_slow_from_bit(9)),
            "anchor entry fails slow"
        );
        assert_eq!(hook.events_fired(), 1);
        let mut call = call_at(2, 2, &mut params, None);
        hook.before(&mut call);
        assert!(call.rank_fault.is_none(), "the gap entry is healthy");
        let mut call = call_at(2, 3, &mut params, None);
        hook.before(&mut call);
        assert_eq!(
            call.rank_fault,
            Some(RankFaultPlan::CrashStop),
            "delta entries later the rank crash-stops"
        );
        assert_eq!(hook.events_fired(), 2);
    }

    #[test]
    fn heal_timeline_arms_a_transient_never_sticky_partition_on_every_rank() {
        let hook = InjectorHook::new(timeline_spec("heal:3", 3)); // draw decodes sticky
        let mut params =
            CollParams::simple(8, Datatype::Float64, ReduceOp::Sum, 0, simmpi::comm::WORLD);
        for rank in [0, 1, 2, 3] {
            let mut call = call_at(rank, 1, &mut params, None);
            hook.before(&mut call);
            assert_eq!(
                call.rank_fault,
                Some(RankFaultPlan::Partition {
                    cut_draw: 0,
                    sticky: false,
                    heal_after: Some(3),
                }),
                "rank {rank}: stickiness is overridden for healing cuts"
            );
        }
        assert_eq!(hook.events_lifted(), 0);
        // The anchor rank walking past trigger + duration lifts the event.
        for inv in [2, 3, 4] {
            hook.before(&mut call_at(2, inv, &mut params, None));
        }
        assert_eq!(hook.events_lifted(), 1);
    }

    #[test]
    fn compound_timeline_arms_burst_and_heal_together() {
        let hook = InjectorHook::new(timeline_spec("burst:1+heal:2", 4));
        let mut params =
            CollParams::simple(8, Datatype::Float64, ReduceOp::Sum, 0, simmpi::comm::WORLD);
        let mut call = call_at(2, 1, &mut params, None);
        hook.before(&mut call);
        assert_eq!(call.msg_fault, Some(MsgFaultPlan::from_bit(4)));
        assert!(matches!(
            call.rank_fault,
            Some(RankFaultPlan::Partition {
                heal_after: Some(2),
                ..
            })
        ));
    }

    #[test]
    fn a_single_draw_is_spent_by_the_anchor_entry_on_the_anchor_rank_only() {
        for (channel, param, spends) in [
            (FaultChannel::Param, ParamId::Count, true),
            // Never fires — there is no receive image — and is spent all
            // the same: nothing will ever come of it.
            (FaultChannel::Param, ParamId::RecvBuf, true),
            (FaultChannel::Message, ParamId::SendBuf, true),
            (FaultChannel::CrashStop, ParamId::SendBuf, false),
            (FaultChannel::FailSlow, ParamId::SendBuf, false),
            (FaultChannel::Partition, ParamId::SendBuf, false),
        ] {
            let hook = InjectorHook::new(FaultSpec::single(point(param), 3, channel));
            let mut params =
                CollParams::simple(8, Datatype::Float64, ReduceOp::Sum, 0, simmpi::comm::WORLD);
            hook.before(&mut call_at(2, 0, &mut params, None));
            hook.before(&mut call_at(0, 1, &mut params, None));
            assert!(!hook.spent(2), "{channel:?}: the anchor entry is to come");
            hook.before(&mut call_at(2, 1, &mut params, None));
            assert_eq!(hook.spent(2), spends, "{channel:?} {param:?}");
            assert!(
                !hook.spent(0),
                "only the rank whose entry spent it hears so"
            );
        }
    }

    #[test]
    fn a_burst_is_spent_by_its_last_event_and_a_condition_never() {
        for (token, spent_after) in [
            ("burst:3", Some(3)),
            ("burst:2:2", Some(3)),
            ("cascade:1", None),
            ("heal:1", None),
            ("burst:1+heal:1", None),
        ] {
            let hook = InjectorHook::new(timeline_spec(token, 1));
            let mut params =
                CollParams::simple(8, Datatype::Float64, ReduceOp::Sum, 0, simmpi::comm::WORLD);
            // An entry ahead of the anchor, then the anchor and five more.
            hook.before(&mut call_at(2, 0, &mut params, None));
            for entries in 1..=6 {
                hook.before(&mut call_at(2, entries, &mut params, None));
                assert_eq!(
                    hook.spent(2),
                    spent_after.is_some_and(|n| entries >= n),
                    "{token} after {entries} entries from the anchor"
                );
                assert!(!hook.spent(0), "{token}");
            }
        }
    }

    #[test]
    fn alltoallv_count_flip_hits_vector_entry() {
        let hook = InjectorHook::new(spec(ParamId::Count, 32 * 3 + 1)); // entry 3, bit 1
        let mut params =
            CollParams::simple(4, Datatype::Int32, ReduceOp::Sum, 0, simmpi::comm::WORLD);
        params.send_counts = Some(vec![4, 4, 4, 4, 4]);
        hook.before(&mut call_at(2, 1, &mut params, None));
        assert_eq!(params.send_counts.as_ref().unwrap()[3], 4 ^ 2);
        assert_eq!(params.count, 4, "scalar count untouched for v-collectives");
    }
}
