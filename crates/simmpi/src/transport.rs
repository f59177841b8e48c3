//! Point-to-point transport between simulated ranks.
//!
//! Each rank owns a mailbox (a condvar-protected queue). `send` is
//! non-blocking (eager protocol); `recv` blocks with a short poll interval
//! so that the job-control kill flag is honoured promptly — this is what
//! turns a communication deadlock into a clean `INF_LOOP` classification
//! instead of a leaked thread.
//!
//! Message matching is by `(src, tag)`. Collectives reserve a tag namespace
//! keyed by communicator id and per-communicator sequence number, so stray
//! traffic from a rank operating on a bit-flipped communicator never matches
//! a healthy rank's receives (it deadlocks, as in real MPI).
//!
//! The fabric also exposes the state the deterministic stall detector needs:
//! a global progress [`epoch`](Fabric::epoch) bumped under the mailbox lock
//! on every send and every message consumption, and a per-rank
//! [`stuck`](Fabric::stuck) predicate ("blocked in `recv` with no deliverable
//! message"). Two watchdog sweeps that observe every live rank stuck with an
//! unchanged epoch in between have *proved* a deadlock: any progress,
//! however the OS schedules the threads, would have bumped the epoch.
//!
//! # Message faults
//!
//! Beyond the parameter-level faults injected at the PMPI seam, the fabric
//! can corrupt *individual messages in flight*: a [`MsgFaultPlan`] armed for
//! one rank and scoped to one collective invocation (communicator code +
//! sequence number) hits the `nth_send`-th scoped message with one of five
//! [`MsgFaultKind`]s — payload bit flip, silent drop, duplication, bounded
//! delay, or truncation. Every fault is a pure function of the plan and the
//! rank's deterministic send order, so the same plan always corrupts the
//! same bytes of the same message.
//!
//! A *dropped* message is injected livelock, not deadlock: the victim
//! receive is never reported [`stuck`](Fabric::stuck) (the stall sweep must
//! not misread it as a deadlock), and when the job has a logical op budget
//! the receiver deterministically burns it and dies via the op-budget path
//! — the same `INF_LOOP` classification on every run, independent of
//! machine load. Without a budget the receive blocks until the wall-clock
//! backstop (campaigns always set a budget).
//!
//! # Rank faults and partitions
//!
//! A third fault family lives at rank granularity ([`RankFaultPlan`]):
//! crash-stop (the rank dies at a collective entry), fail-slow (the rank
//! stalls for a bounded delay, then proceeds), and network partitions. A
//! partition is armed *per source rank* via
//! [`arm_partition`](Fabric::arm_partition): each rank learns the cut when
//! its own collective entry reaches the partition instant (the
//! per-communicator sequence number is deterministic and equal across
//! ranks there) and from then on drops its own cross-cut collective sends
//! through the same dropped-message machinery as a `Drop` message fault —
//! so plain-mode victims burn their op budget deterministically and the
//! resilient transport heals (or, for sticky partitions, exhausts into
//! `MPI_ERR_TRANSPORT`).
//!
//! # Resilient mode
//!
//! [`Fabric::with_mode`] enables a self-healing delivery protocol: every
//! message carries a per-`(src, dst)` sequence number and an FNV-1a
//! checksum of its payload. The receiver verifies the checksum, suppresses
//! duplicate sequence numbers, and recovers corrupt or dropped deliveries
//! by simulated retransmission from the sender's pristine copy (bounded by
//! [`MAX_RETRANSMITS`] attempts). A fault that persists through every
//! attempt (a *sticky* plan) surfaces as `MPI_ERR_TRANSPORT`, attributed to
//! [`DetectedBy::Transport`](crate::control::DetectedBy).
//!
//! # Taint
//!
//! The fabric also keeps the guard that makes replaying a trial's golden
//! prefix ([`crate::replay`]) sound. A rank is *tainted* while the fault
//! may have reached what its application sees: once its hook changes one
//! of its calls or makes it a faulty rank, or once it consumes (or probes)
//! a message a tainted rank sent — every [`Msg`] carries its sender's flag
//! as of the send, on the retransmit and dropped-entry paths too — or a
//! wire copy an armed plan hit ([`Wire`]) that the protocol did not hand
//! over as exactly the bytes sent. A message plan taints the copy it hits,
//! not the rank that armed it: that rank's own memory is untouched. An
//! untainted rank is in a state, and holds inputs, the recorded run had. A
//! rank is *in its prefix* while it still has a call to replay. The moment
//! a rank in its prefix becomes tainted, what it is about to replay may no
//! longer be what it would exchange: the job is killed as *diverged*
//! ([`Fabric::diverged`]) and its caller runs it again without replay.
//!
//! # The open set
//!
//! Read forwards, the same flags say when a fault is *gone*. The fabric
//! counts everything that can still make the run differ from the recorded
//! one: the hook's unspent schedule (one item from the start, closed by
//! the rank context once [`CollHook::spent`](crate::hook::CollHook::spent)
//! says so — never, in a job that does not watch), message plans armed and
//! not yet [disarmed](Fabric::disarm), faulted wire copies no receiver has
//! resolved, tainted ranks, tainted messages not yet consumed. When every
//! rank is untainted, nothing tainted or faulted is in flight and no event
//! remains, every rank is in a state the recorded run passed through and
//! every future input is the recorded one: the rest of the run *is* the
//! recorded run. The close that takes the count to zero ends the job as
//! *absorbed* ([`Fabric::absorbed`]); its caller substitutes the recorded
//! outputs. Every transition opens what it creates before it closes what
//! it consumed, so the count cannot touch zero in between, whatever the
//! interleaving of rank threads.

use crate::coll::rendezvous::Slots;
use crate::comm::TagKind;
use crate::control::{count_notify, JobControl, RankPanic};
use crate::error::MpiError;
use crate::lock;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Retransmission attempts the resilient transport grants one message
/// before declaring it unrecoverable.
pub const MAX_RETRANSMITS: u32 = 3;

/// Hold time of a delay-faulted message on the job clock
/// ([`Fabric::now`]). Bounded and far below every watchdog window, so a
/// delayed message is always *deliverable* — the outcome of the run cannot
/// depend on it.
pub const MSG_DELAY: Duration = Duration::from_millis(30);

/// The transport-level fault taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgFaultKind {
    /// Flip one payload bit on the wire.
    Flip,
    /// Silently discard the message (injected livelock).
    Drop,
    /// Deliver the message twice.
    Duplicate,
    /// Hold the message for [`MSG_DELAY`] before delivery.
    Delay,
    /// Deliver a truncated payload.
    Truncate,
}

/// All message-fault kinds.
pub const ALL_MSG_FAULT_KINDS: [MsgFaultKind; 5] = [
    MsgFaultKind::Flip,
    MsgFaultKind::Drop,
    MsgFaultKind::Duplicate,
    MsgFaultKind::Delay,
    MsgFaultKind::Truncate,
];

impl MsgFaultKind {
    /// Short name used in reports and journals.
    pub fn name(self) -> &'static str {
        match self {
            MsgFaultKind::Flip => "flip",
            MsgFaultKind::Drop => "drop",
            MsgFaultKind::Duplicate => "duplicate",
            MsgFaultKind::Delay => "delay",
            MsgFaultKind::Truncate => "truncate",
        }
    }
}

/// One concrete message fault, scoped (by the arming call) to one
/// collective invocation of one rank.
///
/// Like the parameter-fault `bit`, a plan is decoded from a single `u64`
/// draw so campaigns can sample the message-fault space uniformly without
/// knowing message counts or sizes up front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgFaultPlan {
    /// What to do to the message.
    pub kind: MsgFaultKind,
    /// Which of the rank's sends *within the armed collective* to hit
    /// (0-based; a collective that sends fewer messages never fires).
    pub nth_send: u64,
    /// Bit position for `Flip` / length selector for `Truncate`, reduced
    /// modulo the payload size at injection time.
    pub payload_bit: u64,
    /// A sticky fault also corrupts every retransmission, so the resilient
    /// transport cannot recover it — the bounded-attempt exhaustion path.
    pub sticky: bool,
}

impl MsgFaultPlan {
    /// Decode a plan from one uniform `u64` draw. The layout mirrors the
    /// parameter-fault convention (wide draw, reduced at injection time):
    /// kind = `bit % 5`, nth send = `(bit / 5) % 4`, sticky on one eighth
    /// of the space, and the rest selects the payload bit.
    pub fn from_bit(bit: u64) -> MsgFaultPlan {
        MsgFaultPlan {
            kind: ALL_MSG_FAULT_KINDS[(bit % 5) as usize],
            nth_send: (bit / 5) % 4,
            sticky: (bit / 20) % 8 == 7,
            payload_bit: bit / 160,
        }
    }
}

/// Upper bound of a fail-slow injected delay. Far below the campaign
/// minimum wall-clock timeout (400ms), so a slowed rank always finishes —
/// fail-slow perturbs timing, never the outcome.
pub const FAIL_SLOW_MAX_MILLIS: u64 = 45;

/// A rank-level fault: the whole rank misbehaves at one collective entry,
/// instead of one parameter or one message being corrupted.
///
/// Like the other channels, each plan is decoded from a single `u64` draw
/// (see the per-variant constructors) so campaigns sample these spaces with
/// the same one-draw-per-trial convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankFaultPlan {
    /// The rank dies (simulated process crash) at the collective entry,
    /// before sending anything. Survivors drain deterministically via the
    /// fail-stop sweep.
    CrashStop,
    /// The rank stalls for a bounded wall-clock delay at the collective
    /// entry, then proceeds normally. Must never be misfiled as a hang.
    FailSlow {
        /// Injected delay, bounded by [`FAIL_SLOW_MAX_MILLIS`].
        millis: u64,
    },
    /// A network partition: from this collective on, every message crossing
    /// the rank cut `{0..cut} | {cut..n}` is dropped on the wire. Armed on
    /// *every* rank (each polices its own sends), which keeps the set of
    /// dropped messages a pure function of the program, not the schedule.
    Partition {
        /// Uniform draw selecting the cut position, reduced modulo the
        /// rank count at arm time.
        cut_draw: u64,
        /// Sticky partitions also drop every retransmission, so the
        /// resilient transport cannot heal across the cut.
        sticky: bool,
        /// Transient partitions heal after this many collective operations
        /// on the partitioned communicator: sends scoped to sequence
        /// numbers `>= from_seq + heal_after` are delivered untouched.
        /// `None` is the sticky-scope default (the partition never heals
        /// on its own; only the resilient transport can recover it).
        heal_after: Option<u64>,
    },
}

impl RankFaultPlan {
    /// Decode a fail-slow plan from one uniform draw: a delay in
    /// `5..=5+FAIL_SLOW_MAX_MILLIS-5` milliseconds.
    pub fn fail_slow_from_bit(bit: u64) -> RankFaultPlan {
        RankFaultPlan::FailSlow {
            millis: 5 + bit % (FAIL_SLOW_MAX_MILLIS - 4),
        }
    }

    /// Decode a partition plan from one uniform draw: sticky on one
    /// quarter of the space, the rest selects the cut.
    pub fn partition_from_bit(bit: u64) -> RankFaultPlan {
        RankFaultPlan::Partition {
            cut_draw: bit / 4,
            sticky: bit % 4 == 3,
            heal_after: None,
        }
    }
}

/// Counters the fabric accumulates over one job, snapshotted into
/// `JobResult::transport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Whether the armed message fault was actually applied to a message.
    pub fault_fired: bool,
    /// Number of armed message-fault plans that actually fired (each plan
    /// fires at most once). Under a fault timeline several plans are armed
    /// per trial, so the boolean alone is lossy.
    pub msg_faults_fired: u64,
    /// Messages dropped on the wire by an armed partition (any source).
    pub partition_drops: u64,
    /// Retransmissions the resilient transport performed (or charged, for
    /// exhausted recoveries).
    pub retransmits: u64,
    /// Duplicate deliveries suppressed by sequence-number tracking.
    pub dup_suppressed: u64,
    /// Unrecoverable deliveries surfaced as `MPI_ERR_TRANSPORT`.
    pub transport_errors: u64,
    /// Payload moved between ranks ([`Fabric::bytes_sent`]).
    pub bytes_sent: u64,
}

/// What an armed message plan did to one copy of a message on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Wire {
    /// Nothing: delivered as sent.
    #[default]
    Clean,
    /// Held for [`MSG_DELAY`]: exactly the bytes sent, later.
    Late,
    /// A copy of a duplicated message: exactly the bytes sent, twice.
    Twin,
    /// A flipped or truncated payload.
    Bad,
}

/// A message in flight.
#[derive(Debug, Clone)]
pub struct Msg {
    /// Global rank of the sender.
    pub src: usize,
    /// Full 64-bit match tag (see [`coll_tag`](crate::comm::coll_tag)).
    pub tag: u64,
    /// Payload bytes as they travel the wire (possibly corrupted).
    pub data: Vec<u8>,
    /// Per-`(src, dst)` sequence number, for duplicate suppression.
    pub seqno: u64,
    /// FNV-1a checksum of the payload *as sent* (before wire corruption).
    pub checksum: u64,
    /// Pristine payload kept for retransmission when the wire copy was
    /// faulted in resilient mode.
    pub pristine: Option<Vec<u8>>,
    /// Whether the fault that hit this message also corrupts every
    /// retransmission.
    pub sticky: bool,
    /// Whether the sender was tainted when it sent this (module docs,
    /// "Taint").
    pub tainted: bool,
    /// What an armed plan did to this copy.
    pub wire: Wire,
}

impl Msg {
    /// Whether this copy is in the open set: it carries its sender's
    /// taint, or a plan hit it and no receiver has resolved that yet.
    fn open(&self) -> bool {
        self.tainted || self.wire != Wire::Clean
    }
}

/// A message that was silently dropped on the wire — always an item of the
/// open set: nothing resolves it but a resilient receiver's recovery. The
/// pristine payload is kept so the resilient transport can simulate
/// retransmission; the plain transport only uses the entry to recognise
/// the injected livelock.
#[derive(Debug)]
struct DroppedEntry {
    src: usize,
    tag: u64,
    data: Vec<u8>,
    sticky: bool,
    tainted: bool,
}

/// Queue plus the blocked-receive descriptor of the owning rank, guarded by
/// a single lock so the stall detector sees a consistent pair.
#[derive(Debug, Default)]
struct MailboxState {
    queue: VecDeque<Msg>,
    /// `(src, tag)` the owning rank is currently blocked on, if any.
    waiting: Option<(usize, u64)>,
    /// The owning rank is asleep on the mailbox's condvar. Only a rank
    /// thread ever is (a coop rank parks by yielding), and it sets and
    /// clears this under the lock around its nap, so a sender that sees
    /// it clear has no wakeup to lose — and skips the condvar, whose
    /// notify is a system call even with no one asleep on it.
    asleep: bool,
    /// Delay-faulted messages and the job-clock time each is due: timers
    /// on [`Fabric::now`], released by the owning rank's next poll.
    held: Vec<(Duration, Msg)>,
    /// Drop-faulted messages addressed to this mailbox.
    dropped: Vec<DroppedEntry>,
    /// Next sequence number per source rank (sized to the job's ranks
    /// when the fabric is built).
    next_seq: Vec<u64>,
    /// Sequence numbers already consumed, per source rank (resilient mode
    /// only, sized like `next_seq`; empty otherwise).
    consumed: Vec<SeqSet>,
}

/// The set of sequence numbers consumed from one source: one bit per
/// seqno. Seqnos are dense from zero per `(src, dst)` pair, but a dropped
/// message recovered by retransmission never enters the set, so the set
/// has gaps and a low-water mark could not stand in for it. The first 64
/// seqnos live inline, so a pair that exchanges fewer messages than that
/// (every pair of a short job) never allocates.
#[derive(Debug, Default)]
struct SeqSet {
    /// Seqnos `0..64`.
    low: u64,
    /// Seqnos from 64 on, 64 a word.
    high: Vec<u64>,
}

impl SeqSet {
    fn contains(&self, seqno: u64) -> bool {
        let word = match seqno / 64 {
            0 => Some(self.low),
            w => self.high.get(w as usize - 1).copied(),
        };
        word.is_some_and(|w| (w >> (seqno % 64)) & 1 == 1)
    }

    fn insert(&mut self, seqno: u64) {
        let word = match (seqno / 64) as usize {
            0 => &mut self.low,
            w => {
                if w > self.high.len() {
                    self.high.resize(w, 0);
                }
                &mut self.high[w - 1]
            }
        };
        *word |= 1 << (seqno % 64);
    }
}

impl MailboxState {
    /// The state of a mailbox `n` source ranks can send to.
    fn new(n: usize, resilient: bool) -> MailboxState {
        MailboxState {
            next_seq: vec![0; n],
            consumed: if resilient {
                (0..n).map(|_| SeqSet::default()).collect()
            } else {
                Vec::new()
            },
            ..MailboxState::default()
        }
    }
}

/// The job's clock. The threaded engine lives on the wall clock; under
/// the coop scheduler time is purely logical — it stands still while any
/// rank can run and is advanced only by the scheduler's jump to the
/// earliest pending timer, so the order timers fire in is a function of
/// the program, not of the host.
#[derive(Debug)]
enum Clock {
    /// Wall time since the fabric was created.
    Wall(Instant),
    /// Nanoseconds of logical time, set by [`Fabric::advance_to`].
    Logical(AtomicU64),
}

#[derive(Debug)]
struct Mailbox {
    state: Mutex<MailboxState>,
    cv: Condvar,
}

/// An armed message fault: the plan plus its collective scope and the
/// number of scoped sends already observed.
#[derive(Debug)]
struct ArmedFault {
    plan: MsgFaultPlan,
    comm_code: u32,
    seq: u64,
    sends_seen: u64,
}

impl ArmedFault {
    /// Whether `tag` belongs to the armed collective invocation.
    fn in_scope(&self, tag: u64) -> bool {
        (tag >> 32) == u64::from(self.comm_code)
            && ((tag >> 28) & 0xF) == TagKind::Collective as u64
            && (tag & 0xF_FFFF) == (self.seq & 0xF_FFFF)
    }
}

/// An armed network partition, held per source rank: every rank learns the
/// cut when its own `pre_coll` reaches the armed `(site, invocation)` —
/// the per-communicator collective sequence number is deterministic and
/// equal across ranks there — and from then on drops its *own* cross-cut
/// collective sends. Because each sender arms before any of its scoped
/// sends, the set of dropped messages cannot depend on thread scheduling.
#[derive(Debug)]
struct ArmedPartition {
    comm_code: u32,
    /// First collective sequence number the partition applies to.
    from_seq: u64,
    /// First collective sequence number the partition no longer applies
    /// to: a *transient* partition heals here and later traffic is
    /// delivered untouched. `None` means the cut never heals on its own.
    until_seq: Option<u64>,
    /// Ranks `< cut` are on one side, ranks `>= cut` on the other.
    cut: usize,
    sticky: bool,
}

impl ArmedPartition {
    /// Whether `tag` is collective traffic on the partitioned communicator
    /// at or after the partition instant — and, for a transient partition,
    /// before the heal instant. The 20-bit truncated comparison matches
    /// the tag encoding; campaigns never approach 2^20 collectives on one
    /// communicator.
    fn in_scope(&self, tag: u64) -> bool {
        (tag >> 32) == u64::from(self.comm_code)
            && ((tag >> 28) & 0xF) == TagKind::Collective as u64
            && (tag & 0xF_FFFF) >= (self.from_seq & 0xF_FFFF)
            && self
                .until_seq
                .is_none_or(|until| (tag & 0xF_FFFF) < (until & 0xF_FFFF))
    }

    /// Whether a `src -> dst` message crosses the cut.
    fn crosses(&self, src: usize, dst: usize) -> bool {
        (src < self.cut) != (dst < self.cut)
    }
}

/// What one source rank has armed against its own sends.
#[derive(Debug, Default)]
struct Armed {
    /// The armed message fault, if any.
    msg: Option<ArmedFault>,
    /// The armed network partition, if any.
    partition: Option<ArmedPartition>,
}

/// 64-bit FNV-1a over the payload — the per-message checksum of the
/// resilient transport.
fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The all-to-all wiring between the ranks of one job.
#[derive(Debug)]
pub struct Fabric {
    boxes: Vec<Mailbox>,
    /// Per source rank: its armed message fault and partition (at most
    /// one of each).
    armed: Vec<Mutex<Armed>>,
    /// Per source rank: whether its `armed` slot holds anything. Only the
    /// rank itself arms, disarms and sends as itself, so it reads what it
    /// wrote and `Relaxed` suffices; a send with the flag clear takes no
    /// lock but the destination mailbox's.
    arming: Vec<AtomicBool>,
    /// Resilient (checksum/ack/retransmit) delivery protocol enabled.
    resilient: bool,
    clock: Clock,
    /// Messages currently held across all mailboxes, so the scheduler's
    /// timer scan costs nothing while no delay fault is in flight. Read
    /// only by the coop scheduler, on the one thread that also wrote it.
    held_count: AtomicUsize,
    /// Payload moved between ranks, by message or by rendezvous, for
    /// diagnostics/benchmarks.
    bytes_sent: AtomicU64,
    /// Progress epoch: bumped (under the destination mailbox lock) on every
    /// enqueue and every consume. An unchanged epoch across a watchdog
    /// sweep window proves no message moved anywhere in the fabric.
    epoch: AtomicU64,
    fault_fired: AtomicBool,
    msg_faults_fired: AtomicU64,
    partition_drops: AtomicU64,
    retransmits: AtomicU64,
    dup_suppressed: AtomicU64,
    transport_errors: AtomicU64,
    /// Per rank: tainted (module docs, "Taint"). A rank's flag — like its
    /// `in_prefix` one — is read and written by that rank alone, so
    /// `Relaxed` suffices; it reaches other ranks only inside a [`Msg`],
    /// under the mailbox lock.
    tainted: Vec<AtomicBool>,
    /// Per rank: still has a call to replay. Never set in a job without
    /// [`JobSpec::replay`](crate::runtime::JobSpec), which therefore
    /// cannot diverge.
    in_prefix: Vec<AtomicBool>,
    /// A rank in its prefix became tainted; the job has been killed.
    diverged: AtomicBool,
    /// Size of the open set (module docs): starts at one, the hook's
    /// schedule.
    open: AtomicUsize,
    /// The open set emptied; the job has been killed.
    absorbed: AtomicBool,
    /// The data-movement collectives in progress by rendezvous
    /// ([`crate::coll::rendezvous`]; jobs no fault can reach).
    slots: Slots,
}

impl Fabric {
    /// Create a plain (non-resilient) fabric connecting `n` ranks.
    pub fn new(n: usize) -> Arc<Fabric> {
        Fabric::with_mode(n, false)
    }

    /// Create a fabric connecting `n` ranks, optionally with the resilient
    /// delivery protocol (per-message checksum, duplicate suppression,
    /// bounded retransmission).
    pub fn with_mode(n: usize, resilient: bool) -> Arc<Fabric> {
        Fabric::with_clock(n, resilient, false)
    }

    /// As [`Fabric::with_mode`], on a logical clock when `logical` (the
    /// coop scheduler's fabric) and on the wall clock otherwise.
    pub(crate) fn with_clock(n: usize, resilient: bool, logical: bool) -> Arc<Fabric> {
        Arc::new(Fabric {
            boxes: (0..n)
                .map(|_| Mailbox {
                    state: Mutex::new(MailboxState::new(n, resilient)),
                    cv: Condvar::new(),
                })
                .collect(),
            armed: (0..n).map(|_| Mutex::new(Armed::default())).collect(),
            arming: (0..n).map(|_| AtomicBool::new(false)).collect(),
            resilient,
            clock: if logical {
                Clock::Logical(AtomicU64::new(0))
            } else {
                Clock::Wall(Instant::now())
            },
            held_count: AtomicUsize::new(0),
            bytes_sent: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            fault_fired: AtomicBool::new(false),
            msg_faults_fired: AtomicU64::new(0),
            partition_drops: AtomicU64::new(0),
            retransmits: AtomicU64::new(0),
            dup_suppressed: AtomicU64::new(0),
            transport_errors: AtomicU64::new(0),
            tainted: (0..n).map(|_| AtomicBool::new(false)).collect(),
            in_prefix: (0..n).map(|_| AtomicBool::new(false)).collect(),
            diverged: AtomicBool::new(false),
            open: AtomicUsize::new(1),
            absorbed: AtomicBool::new(false),
            slots: Slots::default(),
        })
    }

    /// Number of ranks wired up.
    pub fn nranks(&self) -> usize {
        self.boxes.len()
    }

    /// Whether the resilient delivery protocol is active.
    pub fn is_resilient(&self) -> bool {
        self.resilient
    }

    /// Payload moved between ranks so far: every message's, and what
    /// each rendezvous moved in their stead.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Current progress epoch (see the struct docs for the guarantee).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Time on the job's clock since the job started. Held messages and
    /// [`rank_sleep`](crate::sched::rank_sleep) are timers against it.
    pub fn now(&self) -> Duration {
        match &self.clock {
            Clock::Wall(origin) => origin.elapsed(),
            Clock::Logical(nanos) => Duration::from_nanos(nanos.load(Ordering::Relaxed)),
        }
    }

    /// Jump a logical clock forward to `t` (the coop scheduler, when no
    /// rank can run until a timer fires). A wall clock advances itself.
    pub(crate) fn advance_to(&self, t: Duration) {
        if let Clock::Logical(nanos) = &self.clock {
            nanos.fetch_max(t.as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// The earliest time after [`now`](Fabric::now) at which a held
    /// message falls due, if any. Messages already due are no timer: the
    /// owning rank's next poll releases them.
    pub(crate) fn next_held_due(&self) -> Option<Duration> {
        if self.held_count.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let now = self.now();
        self.boxes
            .iter()
            .filter_map(|m| {
                let st = lock(&m.state);
                st.held
                    .iter()
                    .map(|(due, _)| *due)
                    .filter(|&d| d > now)
                    .min()
            })
            .min()
    }

    /// The job's rendezvous slots.
    pub(crate) fn slots(&self) -> &Slots {
        &self.slots
    }

    /// A rendezvous slot completed, having moved `bytes` of payload
    /// between ranks (none if it sent its members to the algorithm):
    /// progress, as a delivery is.
    pub(crate) fn rendezvous_progress(&self, bytes: u64) {
        self.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Send every open rendezvous slot to its algorithm (the coop
    /// scheduler, once a round has left every rank parked and nothing
    /// moved). Whether there was one: then that is progress.
    pub(crate) fn release_rendezvous(&self) -> bool {
        let released = self.slots.release();
        if released {
            self.epoch.fetch_add(1, Ordering::Release);
        }
        released
    }

    /// Snapshot of the message-fault / recovery counters.
    pub fn stats(&self) -> TransportStats {
        TransportStats {
            fault_fired: self.fault_fired.load(Ordering::Acquire),
            msg_faults_fired: self.msg_faults_fired.load(Ordering::Relaxed),
            partition_drops: self.partition_drops.load(Ordering::Relaxed),
            retransmits: self.retransmits.load(Ordering::Relaxed),
            dup_suppressed: self.dup_suppressed.load(Ordering::Relaxed),
            transport_errors: self.transport_errors.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent(),
        }
    }

    /// Say whether `rank` still has a call to replay (its `RankCtx` does,
    /// at start-up and on entering its last replayed call).
    pub(crate) fn set_in_prefix(&self, rank: usize, on: bool) {
        self.in_prefix[rank].store(on, Ordering::Relaxed);
    }

    /// Whether the job was killed because a rank in its replayed prefix
    /// became tainted.
    pub fn diverged(&self) -> bool {
        self.diverged.load(Ordering::Acquire)
    }

    /// Whether the open set emptied and the job was ended there: no rank,
    /// message or plan carried the fault any more.
    pub fn absorbed(&self) -> bool {
        self.absorbed.load(Ordering::Acquire)
    }

    /// One more thing can make the run differ from the recorded one.
    fn opened(&self) {
        self.open.fetch_add(1, Ordering::AcqRel);
    }

    /// One such thing is gone. If it was the last, the rest of the run is
    /// the recorded run's: end the job as absorbed (every rank stops at
    /// its next poll point). The only place the open set reaches zero, and
    /// the only writer of the flag. (A job that does not watch never
    /// closes the item it starts with.)
    pub(crate) fn closed(&self, ctl: &JobControl) {
        if self.open.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.absorbed.store(true, Ordering::Release);
            ctl.kill();
        }
    }

    /// Whether `rank` is tainted right now.
    pub(crate) fn is_tainted(&self, rank: usize) -> bool {
        self.tainted[rank].load(Ordering::Relaxed)
    }

    /// `rank`'s hook acted on a call, or the fault reached it: a rank
    /// still in its prefix ends the job as diverged — kill it and unwind
    /// this rank.
    pub(crate) fn guard_prefix(&self, rank: usize, ctl: &JobControl) {
        if self.in_prefix[rank].load(Ordering::Relaxed) {
            self.diverged.store(true, Ordering::Release);
            ctl.kill();
            std::panic::panic_any(RankPanic::Killed);
        }
    }

    /// Mark `rank` tainted (see [`Fabric::guard_prefix`] for a rank still
    /// in its prefix).
    pub(crate) fn taint(&self, rank: usize, ctl: &JobControl) {
        if !self.tainted[rank].swap(true, Ordering::Relaxed) {
            self.opened();
        }
        self.guard_prefix(rank, ctl);
    }

    /// `rank`'s application turned out to see exactly what the recorded
    /// run's did: it is clean again. (What it sent meanwhile stays marked.)
    pub(crate) fn untaint(&self, rank: usize, ctl: &JobControl) {
        if self.tainted[rank].swap(false, Ordering::Relaxed) {
            self.closed(ctl);
        }
    }

    /// `me` consumed something that, says `tainted`, is not what the
    /// recorded run delivered: taint it, leaving the mailbox consistent
    /// should that unwind.
    fn consume_tainted(&self, me: usize, tainted: bool, st: &mut MailboxState, ctl: &JobControl) {
        if tainted {
            if self.in_prefix[me].load(Ordering::Relaxed) {
                st.waiting = None;
            }
            self.taint(me, ctl);
        }
    }

    /// Arm `plan` for `src`'s sends within the collective invocation
    /// identified by `(comm_code, seq)`, replacing any plan still armed.
    /// The rank [disarms](Fabric::disarm) it on leaving that call: the
    /// scope alone would keep a spent or stale plan from firing on a later
    /// collective (its sequence number has moved on), but every later send
    /// of the rank would still consult it, and the open set would never
    /// empty.
    pub fn arm(&self, src: usize, comm_code: u32, seq: u64, plan: MsgFaultPlan) {
        if let Some(slot) = self.armed.get(src) {
            let armed = ArmedFault {
                plan,
                comm_code,
                seq,
                sends_seen: 0,
            };
            if lock(slot).msg.replace(armed).is_none() {
                self.opened();
            }
            self.arming[src].store(true, Ordering::Relaxed);
        }
    }

    /// `src` left the call its plan was scoped to: whatever the plan was
    /// going to hit, it has hit.
    pub fn disarm(&self, src: usize, ctl: &JobControl) {
        let Some(slot) = self.armed.get(src) else {
            return;
        };
        let mut armed = lock(slot);
        let was_armed = armed.msg.take().is_some();
        self.arming[src].store(armed.partition.is_some(), Ordering::Relaxed);
        drop(armed);
        if was_armed {
            self.closed(ctl);
        }
    }

    /// Arm a network partition for `src`'s collective sends from sequence
    /// number `from_seq` on: every message `src` sends across the rank cut
    /// is dropped on the wire. Called by every rank when its own collective
    /// entry reaches the partition instant, so each rank polices its own
    /// sends and no cross-cut message can slip through before arming.
    ///
    /// The cut is decoded from `cut_draw` here (the fabric knows the rank
    /// count): `1 + cut_draw % (n - 1)`, always a proper two-sided split.
    /// Single-rank fabrics have no cut and never arm.
    pub fn arm_partition(
        &self,
        src: usize,
        comm_code: u32,
        from_seq: u64,
        cut_draw: u64,
        sticky: bool,
        heal_after: Option<u64>,
    ) {
        let n = self.boxes.len();
        if n < 2 {
            return;
        }
        let cut = 1 + (cut_draw % (n as u64 - 1)) as usize;
        if let Some(slot) = self.armed.get(src) {
            lock(slot).partition = Some(ArmedPartition {
                comm_code,
                from_seq,
                until_seq: heal_after.map(|d| from_seq + d),
                cut,
                sticky,
            });
            self.arming[src].store(true, Ordering::Relaxed);
        }
    }

    /// Whether `rank` is blocked in [`recv`](Fabric::recv) with no
    /// deliverable message. Checked under the mailbox lock, so a `true`
    /// cannot race with an in-flight matching send: a send that landed
    /// first would be visible in the queue, one that lands later bumps the
    /// epoch and invalidates the sweep. A rank awaiting a *held* (delayed)
    /// or *dropped* message is not stuck: the delayed message is
    /// deliverable, and the drop victim handles its own fate (retransmit
    /// recovery or a deterministic op-budget burn) — the stall sweep must
    /// not misread either as a deadlock.
    pub fn stuck(&self, rank: usize) -> bool {
        self.boxes
            .get(rank)
            .map(|m| {
                let st = lock(&m.state);
                match st.waiting {
                    Some((src, tag)) => {
                        !st.queue.iter().any(|x| x.src == src && x.tag == tag)
                            && !st.held.iter().any(|(_, x)| x.src == src && x.tag == tag)
                            && !st.dropped.iter().any(|d| d.src == src && d.tag == tag)
                    }
                    None => false,
                }
            })
            .unwrap_or(false)
    }

    /// Consult what `src` has armed for its `src -> dst` message with
    /// `tag`. The message fault: if `tag` is in scope, advance the scoped
    /// send counter and return the plan when this is the targeted send.
    /// The partition: if the message crosses the cut in scope, return the
    /// partition's stickiness. Nothing armed costs one flag load.
    fn plans_for(&self, src: usize, dst: usize, tag: u64) -> (Option<MsgFaultPlan>, Option<bool>) {
        if !self
            .arming
            .get(src)
            .is_some_and(|a| a.load(Ordering::Relaxed))
        {
            return (None, None);
        }
        let mut armed = lock(&self.armed[src]);
        let fault = armed.msg.as_mut().and_then(|msg| {
            if !msg.in_scope(tag) {
                return None;
            }
            let idx = msg.sends_seen;
            msg.sends_seen += 1;
            (idx == msg.plan.nth_send).then_some(msg.plan)
        });
        let partition = armed
            .partition
            .as_ref()
            .and_then(|p| (p.in_scope(tag) && p.crosses(src, dst)).then_some(p.sticky));
        (fault, partition)
    }

    /// Deliver `data` to `dst`'s mailbox. Fails with `MPI_ERR_RANK` if
    /// `dst` does not exist (e.g. a corrupted root produced an out-of-range
    /// partner). An armed message fault for `src` whose scope matches `tag`
    /// is applied here, at the wire.
    pub fn send(&self, src: usize, dst: usize, tag: u64, data: Vec<u8>) -> Result<(), MpiError> {
        let mbox = self.boxes.get(dst).ok_or(MpiError::Rank)?;
        self.bytes_sent
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        // Decide the fault before taking the mailbox lock (the two locks
        // are never held together).
        let (fault, partition) = self.plans_for(src, dst, tag);
        let mut st = lock(&mbox.state);
        let seqno = st.next_seq[src];
        st.next_seq[src] += 1;
        // Only the resilient receiver verifies it.
        let checksum = if self.resilient { fnv1a(&data) } else { 0 };
        let mut msg = Msg {
            src,
            tag,
            data,
            seqno,
            checksum,
            pristine: None,
            sticky: false,
            tainted: self
                .tainted
                .get(src)
                .is_some_and(|t| t.load(Ordering::Relaxed)),
            wire: Wire::Clean,
        };
        if let Some(sticky) = partition {
            // Cross-cut message under an armed partition: dropped on the
            // wire, exactly like a `Drop` message fault (the receiver
            // resolves its own fate — retransmit recovery or a
            // deterministic op-budget burn).
            self.fault_fired.store(true, Ordering::Release);
            self.partition_drops.fetch_add(1, Ordering::Relaxed);
            self.drop_on_wire(mbox, &mut st, msg, sticky);
            return Ok(());
        }
        match fault {
            Some(plan) => match plan.kind {
                MsgFaultKind::Flip if !msg.data.is_empty() => {
                    self.note_msg_fault();
                    if self.resilient {
                        msg.pristine = Some(msg.data.clone());
                    }
                    let b = (plan.payload_bit % (msg.data.len() as u64 * 8)) as usize;
                    msg.data[b / 8] ^= 1 << (b % 8);
                    msg.sticky = plan.sticky;
                    msg.wire = Wire::Bad;
                    self.enqueue(mbox, &mut st, msg);
                }
                MsgFaultKind::Truncate if !msg.data.is_empty() => {
                    self.note_msg_fault();
                    if self.resilient {
                        msg.pristine = Some(msg.data.clone());
                    }
                    let keep = (plan.payload_bit % msg.data.len() as u64) as usize;
                    msg.data.truncate(keep);
                    msg.sticky = plan.sticky;
                    msg.wire = Wire::Bad;
                    self.enqueue(mbox, &mut st, msg);
                }
                MsgFaultKind::Drop => {
                    self.note_msg_fault();
                    self.drop_on_wire(mbox, &mut st, msg, plan.sticky);
                }
                MsgFaultKind::Duplicate => {
                    self.note_msg_fault();
                    let mut twin = msg.clone();
                    msg.wire = Wire::Twin;
                    if !self.resilient {
                        twin.wire = Wire::Twin;
                    } else {
                        // Queued behind the first copy with the same
                        // sequence number, this one can only ever be
                        // suppressed: no receiver will resolve it, and it
                        // is no part of the open set.
                        twin.tainted = false;
                    }
                    self.enqueue(mbox, &mut st, msg);
                    self.enqueue(mbox, &mut st, twin);
                }
                MsgFaultKind::Delay => {
                    self.note_msg_fault();
                    msg.wire = Wire::Late;
                    self.opened();
                    st.held.push((self.now() + MSG_DELAY, msg));
                    self.held_count.fetch_add(1, Ordering::Relaxed);
                    // Held, not delivered: no epoch bump. The receiver's
                    // poll loop releases it once due.
                }
                // Flip/Truncate of an empty payload cannot fire (mirrors
                // the empty-buffer rule of parameter faults).
                MsgFaultKind::Flip | MsgFaultKind::Truncate => {
                    self.enqueue(mbox, &mut st, msg);
                }
            },
            None => self.enqueue(mbox, &mut st, msg),
        }
        Ok(())
    }

    /// Record the firing of one armed message-fault plan (each plan fires
    /// at most once, so the counter is a per-event ground truth).
    fn note_msg_fault(&self) {
        self.fault_fired.store(true, Ordering::Release);
        self.msg_faults_fired.fetch_add(1, Ordering::Relaxed);
    }

    /// File `msg` as dropped on the wire, under the (held) mailbox lock.
    /// No progress epoch — nothing was delivered — but wake a receiver
    /// asleep on the mailbox so it observes the drop promptly.
    fn drop_on_wire(&self, mbox: &Mailbox, st: &mut MailboxState, msg: Msg, sticky: bool) {
        self.opened();
        st.dropped.push(DroppedEntry {
            src: msg.src,
            tag: msg.tag,
            data: msg.data,
            sticky,
            tainted: msg.tainted,
        });
        if st.asleep {
            mbox.cv.notify_all();
            count_notify();
        }
    }

    /// Enqueue under the (held) mailbox lock: progress epoch + wakeup.
    ///
    /// The wakeup is *targeted*: the owning rank is notified only when it
    /// is asleep on the mailbox's condvar waiting for exactly this
    /// `(src, tag)`. A receiver that is not asleep scans the queue before
    /// it ever sleeps (under this same lock, so no wakeup can be lost) —
    /// a coop rank never sleeps on the condvar at all, it yields — and a
    /// receiver asleep on a *different* match could not use this message
    /// anyway: waking it would cost a context switch just to re-park.
    fn enqueue(&self, mbox: &Mailbox, st: &mut MailboxState, msg: Msg) {
        if msg.open() {
            self.opened();
        }
        let key = (msg.src, msg.tag);
        st.queue.push_back(msg);
        self.epoch.fetch_add(1, Ordering::Release);
        if st.asleep && st.waiting == Some(key) {
            mbox.cv.notify_all();
            count_notify();
        }
    }

    /// Move due held (delay-faulted) messages into the queue.
    fn release_due(&self, st: &mut MailboxState) {
        if st.held.is_empty() {
            return;
        }
        let now = self.now();
        let mut i = 0;
        while i < st.held.len() {
            if st.held[i].0 <= now {
                let (_, msg) = st.held.remove(i);
                self.held_count.fetch_sub(1, Ordering::Relaxed);
                st.queue.push_back(msg);
                self.epoch.fetch_add(1, Ordering::Release);
            } else {
                i += 1;
            }
        }
    }

    /// Blocking receive of the first message matching `(src, tag)`.
    ///
    /// Honours the job kill flag: if the job is torn down while waiting,
    /// unwinds with [`RankPanic::Killed`] so the thread exits promptly.
    ///
    /// This is also where the resilient delivery protocol runs: checksum
    /// verification, duplicate suppression, and simulated retransmission of
    /// corrupt or dropped messages. In plain mode a receive blocked on a
    /// dropped message burns the logical op budget instead (injected
    /// livelock → deterministic `INF_LOOP` via the op-budget path).
    pub fn recv(&self, me: usize, src: usize, tag: u64, ctl: &JobControl) -> Vec<u8> {
        let mbox = match self.boxes.get(me) {
            Some(m) => m,
            None => std::panic::panic_any(RankPanic::Mpi(MpiError::Rank)),
        };
        let mut st = lock(&mbox.state);
        st.waiting = Some((src, tag));
        let mut past_deadline = false;
        loop {
            self.release_due(&mut st);
            while let Some(pos) = st.queue.iter().position(|m| m.src == src && m.tag == tag) {
                let msg = st.queue.remove(pos).expect("position just found");
                let seen = st.consumed.get(msg.src);
                if self.resilient && seen.is_some_and(|s| s.contains(msg.seqno)) {
                    // A duplicate of something already delivered:
                    // suppress and keep scanning.
                    self.dup_suppressed.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                // Only the resilient receiver verifies the checksum.
                let corrupt = self.resilient && fnv1a(&msg.data) != msg.checksum;
                // What the wire did to this copy reaches the application
                // unless the protocol hands it exactly the bytes sent, once:
                // a late copy always does, the first twin does where the
                // second will be suppressed, a bad one where the checksum
                // caught it (repaired below, or this rank fails).
                let wire_taints = match msg.wire {
                    Wire::Clean | Wire::Late => false,
                    Wire::Twin => !self.resilient,
                    Wire::Bad => !corrupt,
                };
                self.consume_tainted(me, msg.tainted || wire_taints, &mut st, ctl);
                let open = msg.open();
                let data = if corrupt {
                    // Corrupt delivery. Recover from the sender's pristine
                    // copy unless the fault is sticky (every
                    // retransmission corrupted too).
                    match (msg.sticky, msg.pristine) {
                        (false, Some(pristine)) => {
                            self.retransmits.fetch_add(1, Ordering::Relaxed);
                            pristine
                        }
                        _ => self.transport_failure(me, &mut st, ctl),
                    }
                } else {
                    msg.data
                };
                if self.resilient {
                    st.consumed[msg.src].insert(msg.seqno);
                }
                st.waiting = None;
                self.epoch.fetch_add(1, Ordering::Release);
                if open {
                    self.closed(ctl);
                }
                return data;
            }
            if let Some(i) = st.dropped.iter().position(|d| d.src == src && d.tag == tag) {
                // Recovered or starved, the drop decides this rank's fate:
                // only a recovery hands it the bytes sent.
                let tainted = st.dropped[i].tainted || !self.resilient;
                self.consume_tainted(me, tainted, &mut st, ctl);
                if self.resilient {
                    // Simulated ack timeout + retransmission of the
                    // sender's pristine copy.
                    let entry = st.dropped.remove(i);
                    if entry.sticky {
                        self.transport_failure(me, &mut st, ctl);
                    }
                    self.retransmits.fetch_add(1, Ordering::Relaxed);
                    st.waiting = None;
                    self.epoch.fetch_add(1, Ordering::Release);
                    self.closed(ctl);
                    return entry.data;
                }
                if ctl.has_budget() {
                    // Injected livelock: the message will never arrive, so
                    // burn the logical op budget deterministically — the
                    // kill point depends only on this rank's op count and
                    // the budget, never on wall time.
                    st.waiting = None;
                    drop(st);
                    loop {
                        ctl.note_op(me);
                        ctl.check();
                    }
                }
                // Plain mode without a budget: keep blocking; only the
                // wall-clock backstop can end this (campaigns always set a
                // budget).
            }
            if ctl.killed() || past_deadline {
                st.waiting = None;
                drop(st);
                std::panic::panic_any(RankPanic::Killed);
            }
            // THE blocking point. On the coop engine, park the rank
            // coroutine (lock released across the switch — the scheduler
            // and the other ranks run on this same thread) and rescan on
            // the next round; the scheduler owns the wall-clock backstop
            // there. On a rank thread, the condvar nap — and only a nap
            // that timed out reads the deadline, so a receive outside any
            // supervisor still ends.
            if crate::sched::in_coroutine() {
                drop(st);
                crate::sched::yield_blocked();
                st = lock(&mbox.state);
            } else {
                st.asleep = true;
                let (guard, napped) = mbox
                    .cv
                    .wait_timeout(st, Duration::from_millis(2))
                    .unwrap_or_else(PoisonError::into_inner);
                st = guard;
                st.asleep = false;
                past_deadline = napped.timed_out() && ctl.should_die();
            }
        }
    }

    /// Unrecoverable delivery: charge the full retransmission budget,
    /// count the error, and unwind with `MPI_ERR_TRANSPORT` (the
    /// `DetectedBy::Transport` path). The fault has reached `me`, which
    /// dies of it: tainted, for good.
    fn transport_failure(&self, me: usize, st: &mut MailboxState, ctl: &JobControl) -> ! {
        self.consume_tainted(me, true, st, ctl);
        self.retransmits
            .fetch_add(u64::from(MAX_RETRANSMITS), Ordering::Relaxed);
        self.transport_errors.fetch_add(1, Ordering::Relaxed);
        st.waiting = None;
        self.epoch.fetch_add(1, Ordering::Release);
        std::panic::panic_any(RankPanic::Mpi(MpiError::Transport));
    }

    /// Non-blocking probe: is a matching message queued? Releases due
    /// delayed messages first, so pollers (`irecv`/`test`) see them.
    pub fn probe(&self, me: usize, src: usize, tag: u64) -> bool {
        self.peek(me, src, tag).is_some()
    }

    /// As [`probe`](Fabric::probe), saying of the first matching message
    /// whether a tainted rank sent it or a plan hit it: seeing that it is
    /// there is already information from its sender, or about the wire.
    pub(crate) fn peek(&self, me: usize, src: usize, tag: u64) -> Option<bool> {
        let mut st = lock(&self.boxes.get(me)?.state);
        self.release_due(&mut st);
        st.queue
            .iter()
            .find(|x| x.src == src && x.tag == tag)
            .map(Msg::open)
    }

    /// Number of messages currently queued at `me` (diagnostics).
    pub fn queued(&self, me: usize) -> usize {
        self.boxes
            .get(me)
            .map(|m| lock(&m.state).queue.len())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::coll_tag;
    use std::time::Duration;

    fn ctl() -> JobControl {
        JobControl::new(1, Duration::from_secs(5))
    }

    #[test]
    fn send_recv_roundtrip() {
        let f = Fabric::new(2);
        f.send(0, 1, 42, vec![1, 2, 3]).unwrap();
        let c = ctl();
        assert_eq!(f.recv(1, 0, 42, &c), vec![1, 2, 3]);
    }

    #[test]
    fn matching_is_by_src_and_tag() {
        let f = Fabric::new(3);
        f.send(0, 2, 7, vec![0xA]).unwrap();
        f.send(1, 2, 7, vec![0xB]).unwrap();
        f.send(0, 2, 8, vec![0xC]).unwrap();
        let c = ctl();
        assert_eq!(f.recv(2, 1, 7, &c), vec![0xB]);
        assert_eq!(f.recv(2, 0, 8, &c), vec![0xC]);
        assert_eq!(f.recv(2, 0, 7, &c), vec![0xA]);
    }

    #[test]
    fn out_of_range_dst_is_rank_error() {
        let f = Fabric::new(2);
        assert_eq!(f.send(0, 9, 0, vec![]), Err(MpiError::Rank));
    }

    #[test]
    fn recv_unwinds_on_kill() {
        let f = Fabric::new(1);
        let c = JobControl::new(1, Duration::from_secs(60));
        c.kill();
        let f2 = f.clone();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            f2.recv(0, 0, 1, &c);
        }))
        .unwrap_err();
        assert_eq!(*err.downcast_ref::<RankPanic>().unwrap(), RankPanic::Killed);
    }

    #[test]
    fn recv_unwinds_on_deadline() {
        let f = Fabric::new(1);
        let c = JobControl::new(1, Duration::from_millis(15));
        let f2 = f.clone();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            f2.recv(0, 0, 1, &c);
        }))
        .unwrap_err();
        assert!(err.downcast_ref::<RankPanic>().is_some());
    }

    #[test]
    fn cross_thread_delivery() {
        let f = Fabric::new(2);
        let f2 = f.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            f2.send(0, 1, 5, vec![9; 100]).unwrap();
        });
        let c = ctl();
        let data = f.recv(1, 0, 5, &c);
        assert_eq!(data.len(), 100);
        h.join().unwrap();
        assert!(f.bytes_sent() >= 100);
    }

    #[test]
    fn probe_and_queued() {
        let f = Fabric::new(2);
        assert!(!f.probe(1, 0, 3));
        f.send(0, 1, 3, vec![1]).unwrap();
        assert!(f.probe(1, 0, 3));
        assert_eq!(f.queued(1), 1);
    }

    #[test]
    fn epoch_advances_on_send_and_consume() {
        let f = Fabric::new(2);
        let e0 = f.epoch();
        f.send(0, 1, 3, vec![1]).unwrap();
        let e1 = f.epoch();
        assert!(e1 > e0, "send bumps the epoch");
        let c = ctl();
        let _ = f.recv(1, 0, 3, &c);
        assert!(f.epoch() > e1, "consume bumps the epoch");
    }

    #[test]
    fn stuck_tracks_blocked_receives() {
        let f = Fabric::new(2);
        assert!(!f.stuck(0), "idle rank is not stuck");
        let f2 = f.clone();
        let h = std::thread::spawn(move || {
            let c = JobControl::new(2, Duration::from_secs(60));
            f2.recv(0, 1, 7, &c)
        });
        // Wait for the receiver to block.
        let t0 = std::time::Instant::now();
        while !f.stuck(0) && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(f.stuck(0), "rank blocked on an unsatisfiable recv is stuck");
        // A non-matching message does not unstick it.
        f.send(1, 0, 99, vec![0]).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        assert!(f.stuck(0), "non-matching traffic leaves the rank stuck");
        // The matching message does.
        f.send(1, 0, 7, vec![42]).unwrap();
        assert_eq!(h.join().unwrap(), vec![42]);
        assert!(!f.stuck(0), "satisfied receiver is no longer stuck");
    }

    // ----- consumed-seqno bitset -----

    /// `SeqSet` is exactly a set of `u64`: against a `HashSet` model,
    /// any interleaving of inserts and lookups agrees — out of order,
    /// with duplicates, with gaps never filled, several words deep. Case
    /// `seed` draws 1..400 operations from `Prng::seed_from_u64(seed)`.
    #[test]
    fn seqset_matches_a_hashset_model() {
        for seed in 0..256 {
            let mut rng = prng::Prng::seed_from_u64(seed);
            let mut set = SeqSet::default();
            let mut model = std::collections::HashSet::new();
            for _ in 0..rng.gen_range(1..400) {
                let seqno = rng.gen_range(0..200) as u64;
                if rng.gen_range(0..3) == 0 {
                    assert_eq!(set.contains(seqno), model.contains(&seqno), "seed {seed}");
                } else {
                    set.insert(seqno);
                    model.insert(seqno);
                }
            }
            for seqno in 0..768 {
                assert_eq!(
                    set.contains(seqno),
                    model.contains(&seqno),
                    "seed {seed}: seqno {seqno}"
                );
            }
        }
    }

    #[test]
    fn seqset_keeps_gaps_and_reaches_past_several_words() {
        let mut set = SeqSet::default();
        // Consume out of order, skipping 3 (a dropped message recovered by
        // retransmission never enters the set) and jumping words ahead.
        for s in [5, 0, 1, 2, 4, 200, 64, 63] {
            set.insert(s);
        }
        for s in [0, 1, 2, 4, 5, 63, 64, 200] {
            assert!(set.contains(s), "{s}");
        }
        for s in [3, 6, 62, 65, 199, 201, 1 << 40] {
            assert!(!set.contains(s), "{s}");
        }
        set.insert(5);
        assert!(set.contains(5), "a duplicate insert changes nothing");
        assert!(!set.contains(3), "and fills no gap");
    }

    #[test]
    fn resilient_duplicate_suppression_is_per_source_and_gap_exact() {
        let f = Fabric::with_mode(3, true);
        // Source 0's seqno 0 is dropped (recovered by retransmission, so
        // never marked consumed); its seqno 1 is duplicated on the wire.
        f.arm(0, COMM, 0, plan(MsgFaultKind::Drop));
        f.send(0, 2, coll_tag(COMM, 0, 0), vec![10]).unwrap();
        f.arm(0, COMM, 1, plan(MsgFaultKind::Duplicate));
        f.send(0, 2, coll_tag(COMM, 1, 0), vec![11]).unwrap();
        // Source 1 reuses the same seqnos into the same mailbox.
        f.send(1, 2, coll_tag(COMM, 0, 0), vec![20]).unwrap();
        f.send(1, 2, coll_tag(COMM, 1, 0), vec![21]).unwrap();
        let c = ctl();
        assert_eq!(f.recv(2, 0, coll_tag(COMM, 1, 0), &c), vec![11]);
        assert_eq!(f.recv(2, 1, coll_tag(COMM, 1, 0), &c), vec![21]);
        assert_eq!(f.recv(2, 1, coll_tag(COMM, 0, 0), &c), vec![20]);
        assert_eq!(f.recv(2, 0, coll_tag(COMM, 0, 0), &c), vec![10]);
        let s = f.stats();
        assert_eq!(s.retransmits, 1);
        assert_eq!(s.dup_suppressed, 0, "the copy is still queued");
        assert_eq!(f.queued(2), 1);
    }

    // ----- taint -----

    fn killed_by(f: impl FnOnce()) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .err()
            .is_some_and(|e| e.downcast_ref::<RankPanic>() == Some(&RankPanic::Killed))
    }

    #[test]
    fn taint_travels_with_messages_and_diverges_only_a_rank_in_its_prefix() {
        let f = Fabric::new(3);
        let c = JobControl::new(3, Duration::from_secs(5));
        // Sent before the sender was tainted: carries nothing.
        f.send(0, 1, 1, vec![1]).unwrap();
        f.taint(0, &c);
        f.send(0, 1, 2, vec![2]).unwrap();
        assert_eq!(f.peek(1, 0, 1), Some(false));
        assert_eq!(f.peek(1, 0, 2), Some(true));
        f.recv(1, 0, 1, &c);
        f.send(1, 2, 3, vec![3]).unwrap();
        // Consuming the tainted one taints the consumer, and so its sends.
        f.recv(1, 0, 2, &c);
        f.send(1, 2, 4, vec![4]).unwrap();
        assert!(!f.diverged() && !c.killed(), "nobody was in a prefix");
        // A rank in its prefix takes the clean message, not the tainted.
        f.set_in_prefix(2, true);
        assert_eq!(f.recv(2, 1, 3, &c), vec![3]);
        assert!(killed_by(|| drop(f.recv(2, 1, 4, &c))));
        assert!(f.diverged() && c.killed());
        assert!(!f.stuck(2), "the unwound receive left no waiter behind");
    }

    #[test]
    fn a_dropped_message_carries_its_senders_taint_on_both_transports() {
        for resilient in [false, true] {
            let f = Fabric::with_mode(2, resilient);
            let c = JobControl::with_budget(2, Duration::from_secs(5), Some(100));
            f.taint(0, &c);
            f.arm(0, COMM, 0, plan(MsgFaultKind::Drop));
            f.send(0, 1, scoped_tag(), vec![7]).unwrap();
            f.set_in_prefix(1, true);
            // Retransmitted (resilient) or starved (plain): either way the
            // drop decides the receiver's fate.
            assert!(killed_by(|| drop(f.recv(1, 0, scoped_tag(), &c))));
            assert!(f.diverged(), "resilient {resilient}");
            assert_eq!(c.hang(), None, "diverged, not an op-budget burn");
        }
    }

    // ----- the open set -----

    /// A fabric on a logical clock with `first` armed for rank 0's first
    /// scoped send and the hook's item closed: what is left of the open
    /// set is what the plan does.
    fn armed(n: usize, resilient: bool, first: MsgFaultPlan) -> (Arc<Fabric>, JobControl) {
        let f = Fabric::with_clock(n, resilient, true);
        let c = JobControl::new(n, Duration::from_secs(5));
        f.arm(0, COMM, 0, first);
        f.closed(&c);
        assert!(!f.absorbed(), "an armed plan is open");
        (f, c)
    }

    #[test]
    fn a_job_that_never_closes_its_hook_item_is_never_absorbed() {
        let f = Fabric::new(2);
        let c = ctl();
        f.taint(0, &c);
        f.send(0, 1, 1, vec![1]).unwrap();
        f.recv(1, 0, 1, &c);
        f.untaint(0, &c);
        f.untaint(1, &c);
        assert!(!f.absorbed() && !c.killed());
    }

    #[test]
    fn the_last_close_ends_the_job_absorbed() {
        let (f, c) = armed(2, false, plan(MsgFaultKind::Drop));
        f.disarm(0, &c);
        assert!(f.absorbed() && c.killed(), "a plan that never fired");
    }

    #[test]
    fn a_plan_taints_the_copy_it_hits_and_a_resilient_receiver_takes_nothing() {
        for kind in ALL_MSG_FAULT_KINDS {
            let (f, c) = armed(2, true, plan(kind));
            f.send(0, 1, scoped_tag(), vec![1, 2, 3]).unwrap();
            assert!(!f.is_tainted(0), "arming leaves the rank's memory alone");
            f.disarm(0, &c);
            assert!(!f.absorbed(), "{kind:?}: the copy it hit is open");
            f.advance_to(MSG_DELAY);
            assert_eq!(f.recv(1, 0, scoped_tag(), &c), vec![1, 2, 3]);
            assert!(!f.is_tainted(1), "{kind:?}: exactly the bytes sent");
            assert!(f.absorbed(), "{kind:?}: resolved");
        }
    }

    #[test]
    fn a_plain_receiver_takes_what_the_wire_did_unless_it_was_only_late() {
        for kind in [
            MsgFaultKind::Flip,
            MsgFaultKind::Duplicate,
            MsgFaultKind::Delay,
        ] {
            let (f, c) = armed(2, false, plan(kind));
            f.send(0, 1, scoped_tag(), vec![1, 2, 3]).unwrap();
            f.disarm(0, &c);
            f.advance_to(MSG_DELAY);
            f.recv(1, 0, scoped_tag(), &c);
            let late = kind == MsgFaultKind::Delay;
            assert_eq!(f.is_tainted(1), !late, "{kind:?}");
            assert_eq!(f.absorbed(), late, "{kind:?}");
            // Clean again (its call returned the recorded result, say):
            // only a second twin is left then, and stays.
            f.untaint(1, &c);
            let twin = kind == MsgFaultKind::Duplicate;
            assert_eq!(f.absorbed(), !twin, "{kind:?}");
            assert_eq!(f.peek(1, 0, scoped_tag()), twin.then_some(true));
        }
    }

    #[test]
    fn a_tainted_message_is_open_until_consumed_and_taints_before_it_closes() {
        let f = Fabric::new(2);
        let c = ctl();
        f.taint(0, &c);
        f.closed(&c);
        f.send(0, 1, 1, vec![1]).unwrap();
        f.untaint(0, &c);
        assert!(!f.absorbed(), "what it sent meanwhile stays marked");
        f.recv(1, 0, 1, &c);
        assert!(f.is_tainted(1) && !f.absorbed());
        f.untaint(1, &c);
        assert!(f.absorbed());
    }

    #[test]
    fn a_receiver_that_dies_of_a_sticky_fault_stays_in_the_open_set() {
        for kind in [MsgFaultKind::Flip, MsgFaultKind::Drop] {
            let sticky = MsgFaultPlan {
                sticky: true,
                ..plan(kind)
            };
            let (f, c) = armed(2, true, sticky);
            f.send(0, 1, scoped_tag(), vec![1, 2, 3]).unwrap();
            f.disarm(0, &c);
            let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                f.recv(1, 0, scoped_tag(), &c)
            }));
            assert!(died.is_err());
            assert!(f.is_tainted(1) && !f.absorbed(), "{kind:?}");
        }
    }

    #[test]
    fn logical_clock_moves_only_when_advanced() {
        let f = Fabric::with_clock(2, false, true);
        assert_eq!(f.now(), Duration::ZERO);
        f.arm(0, COMM, 0, plan(MsgFaultKind::Delay));
        f.send(0, 1, scoped_tag(), vec![42]).unwrap();
        std::thread::sleep(MSG_DELAY + Duration::from_millis(5));
        assert_eq!(f.now(), Duration::ZERO, "host time is not job time");
        assert!(!f.probe(1, 0, scoped_tag()), "still held");
        assert_eq!(f.next_held_due(), Some(MSG_DELAY));
        f.advance_to(MSG_DELAY);
        assert_eq!(f.next_held_due(), None, "a due message is no timer");
        assert!(f.probe(1, 0, scoped_tag()), "released by the next poll");
        f.advance_to(Duration::from_millis(1));
        assert_eq!(f.now(), MSG_DELAY, "the clock never runs backwards");
    }

    // ----- message faults -----

    const COMM: u32 = 0x7A30_1150;

    fn plan(kind: MsgFaultKind) -> MsgFaultPlan {
        MsgFaultPlan {
            kind,
            nth_send: 0,
            payload_bit: 0,
            sticky: false,
        }
    }

    fn scoped_tag() -> u64 {
        coll_tag(COMM, 0, 0)
    }

    #[test]
    fn from_bit_is_deterministic_and_bounded() {
        for bit in [0u64, 1, 2, 3, 4, 19, 20, 140, 159, 160, u64::MAX] {
            let a = MsgFaultPlan::from_bit(bit);
            let b = MsgFaultPlan::from_bit(bit);
            assert_eq!(a, b);
            assert!(a.nth_send < 4);
        }
        // Every kind is reachable.
        let kinds: std::collections::HashSet<_> =
            (0..5u64).map(|b| MsgFaultPlan::from_bit(b).kind).collect();
        assert_eq!(kinds.len(), 5);
        // Small draws are never sticky; the sticky slice exists.
        assert!(!MsgFaultPlan::from_bit(1).sticky);
        assert!((0..2000u64).any(|b| MsgFaultPlan::from_bit(b).sticky));
    }

    #[test]
    fn flip_corrupts_exactly_one_bit_in_plain_mode() {
        let f = Fabric::new(2);
        f.arm(
            0,
            COMM,
            0,
            MsgFaultPlan {
                payload_bit: 8 * 2 + 5,
                ..plan(MsgFaultKind::Flip)
            },
        );
        f.send(0, 1, scoped_tag(), vec![0u8; 4]).unwrap();
        let got = f.recv(1, 0, scoped_tag(), &ctl());
        assert_eq!(got[2], 1 << 5);
        assert_eq!(got.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
        assert!(f.stats().fault_fired);
        assert_eq!(f.stats().retransmits, 0);
    }

    #[test]
    fn flip_is_recovered_by_checksum_retransmit_in_resilient_mode() {
        let f = Fabric::with_mode(2, true);
        f.arm(0, COMM, 0, plan(MsgFaultKind::Flip));
        f.send(0, 1, scoped_tag(), vec![7, 8, 9]).unwrap();
        assert_eq!(f.recv(1, 0, scoped_tag(), &ctl()), vec![7, 8, 9]);
        let s = f.stats();
        assert!(s.fault_fired);
        assert_eq!(s.retransmits, 1);
        assert_eq!(s.transport_errors, 0);
    }

    #[test]
    fn truncate_shortens_in_plain_and_recovers_in_resilient() {
        let tr = MsgFaultPlan {
            payload_bit: 2,
            ..plan(MsgFaultKind::Truncate)
        };
        let f = Fabric::new(2);
        f.arm(0, COMM, 0, tr);
        f.send(0, 1, scoped_tag(), vec![1, 2, 3, 4, 5]).unwrap();
        assert_eq!(f.recv(1, 0, scoped_tag(), &ctl()), vec![1, 2]);

        let f = Fabric::with_mode(2, true);
        f.arm(0, COMM, 0, tr);
        f.send(0, 1, scoped_tag(), vec![1, 2, 3, 4, 5]).unwrap();
        assert_eq!(f.recv(1, 0, scoped_tag(), &ctl()), vec![1, 2, 3, 4, 5]);
        assert_eq!(f.stats().retransmits, 1);
    }

    #[test]
    fn duplicate_lingers_in_plain_and_is_suppressed_in_resilient() {
        let f = Fabric::new(2);
        f.arm(0, COMM, 0, plan(MsgFaultKind::Duplicate));
        f.send(0, 1, scoped_tag(), vec![1]).unwrap();
        assert_eq!(f.queued(1), 2, "plain mode delivers both copies");
        assert_eq!(f.recv(1, 0, scoped_tag(), &ctl()), vec![1]);
        assert_eq!(f.queued(1), 1, "the duplicate lingers unmatched");

        let f = Fabric::with_mode(2, true);
        f.arm(0, COMM, 0, plan(MsgFaultKind::Duplicate));
        f.send(0, 1, scoped_tag(), vec![1]).unwrap();
        // Send a follow-up so the second recv has something real to find
        // after suppressing the duplicate.
        f.send(0, 1, scoped_tag() | (1 << 20), vec![2]).unwrap();
        assert_eq!(f.recv(1, 0, scoped_tag(), &ctl()), vec![1]);
        assert_eq!(f.recv(1, 0, scoped_tag() | (1 << 20), &ctl()), vec![2]);
        // Asking for the duplicated tag again consumes (and suppresses) the
        // copy, leaving an unsatisfiable wait — verify via probe + queue.
        assert_eq!(f.queued(1), 1, "duplicate still queued");
        let c = JobControl::new(2, Duration::from_millis(30));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            f.recv(1, 0, scoped_tag(), &c)
        }))
        .unwrap_err();
        assert!(err.downcast_ref::<RankPanic>().is_some());
        assert_eq!(f.stats().dup_suppressed, 1);
    }

    #[test]
    fn delay_holds_then_delivers_and_never_reports_stuck() {
        let f = Fabric::new(2);
        f.arm(0, COMM, 0, plan(MsgFaultKind::Delay));
        f.send(0, 1, scoped_tag(), vec![42]).unwrap();
        assert_eq!(f.queued(1), 0, "message is held, not queued");
        assert!(
            !f.stuck(1),
            "a rank awaiting a held message must not look stuck"
        );
        let t0 = Instant::now();
        let got = f.recv(1, 0, scoped_tag(), &ctl());
        assert_eq!(got, vec![42]);
        assert!(
            t0.elapsed() >= MSG_DELAY.checked_sub(Duration::from_millis(2)).unwrap(),
            "delivery waited out the hold"
        );
        assert!(f.stats().fault_fired);
    }

    #[test]
    fn drop_burns_op_budget_deterministically_in_plain_mode() {
        let run = || {
            let f = Fabric::new(2);
            f.arm(0, COMM, 0, plan(MsgFaultKind::Drop));
            f.send(0, 1, scoped_tag(), vec![5]).unwrap();
            assert!(!f.stuck(1), "drop victim is not (yet) stuck");
            let c = JobControl::with_budget(2, Duration::from_secs(60), Some(500));
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                f.recv(1, 0, scoped_tag(), &c)
            }))
            .unwrap_err();
            assert_eq!(*err.downcast_ref::<RankPanic>().unwrap(), RankPanic::Killed);
            assert_eq!(c.hang(), Some(crate::control::HangKind::OpBudget));
            c.ops(1)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "the op-budget kill point is logical, not timed");
    }

    #[test]
    fn drop_is_recovered_by_retransmit_in_resilient_mode() {
        let f = Fabric::with_mode(2, true);
        f.arm(0, COMM, 0, plan(MsgFaultKind::Drop));
        f.send(0, 1, scoped_tag(), vec![5, 6]).unwrap();
        assert_eq!(f.recv(1, 0, scoped_tag(), &ctl()), vec![5, 6]);
        let s = f.stats();
        assert_eq!(s.retransmits, 1);
        assert_eq!(s.transport_errors, 0);
    }

    #[test]
    fn sticky_faults_exhaust_retransmits_into_transport_error() {
        for kind in [MsgFaultKind::Flip, MsgFaultKind::Drop] {
            let f = Fabric::with_mode(2, true);
            f.arm(
                0,
                COMM,
                0,
                MsgFaultPlan {
                    sticky: true,
                    ..plan(kind)
                },
            );
            f.send(0, 1, scoped_tag(), vec![1, 2, 3]).unwrap();
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                f.recv(1, 0, scoped_tag(), &ctl())
            }))
            .unwrap_err();
            assert_eq!(
                *err.downcast_ref::<RankPanic>().unwrap(),
                RankPanic::Mpi(MpiError::Transport),
                "{:?}",
                kind
            );
            let s = f.stats();
            assert_eq!(s.transport_errors, 1, "{:?}", kind);
            assert_eq!(s.retransmits, u64::from(MAX_RETRANSMITS), "{:?}", kind);
        }
    }

    #[test]
    fn fault_scope_is_the_armed_collective_only() {
        let f = Fabric::new(2);
        f.arm(0, COMM, 3, plan(MsgFaultKind::Drop));
        // Different seq: out of scope, delivered untouched.
        f.send(0, 1, coll_tag(COMM, 2, 0), vec![1]).unwrap();
        assert_eq!(f.recv(1, 0, coll_tag(COMM, 2, 0), &ctl()), vec![1]);
        // P2p traffic: out of scope even with matching low bits.
        f.send(0, 1, crate::comm::p2p_tag(COMM, 3), vec![2])
            .unwrap();
        assert_eq!(f.recv(1, 0, crate::comm::p2p_tag(COMM, 3), &ctl()), vec![2]);
        assert!(!f.stats().fault_fired);
        // The scoped message is dropped.
        f.send(0, 1, coll_tag(COMM, 3, 0), vec![3]).unwrap();
        assert!(f.stats().fault_fired);
        assert_eq!(f.queued(1), 0);
    }

    // ----- rank faults / partitions -----

    #[test]
    fn rank_fault_plans_decode_deterministically_and_bounded() {
        for bit in [0u64, 1, 3, 4, 7, 40, 41, 1000, u64::MAX] {
            assert_eq!(
                RankFaultPlan::fail_slow_from_bit(bit),
                RankFaultPlan::fail_slow_from_bit(bit)
            );
            assert_eq!(
                RankFaultPlan::partition_from_bit(bit),
                RankFaultPlan::partition_from_bit(bit)
            );
            match RankFaultPlan::fail_slow_from_bit(bit) {
                RankFaultPlan::FailSlow { millis } => {
                    assert!((5..=FAIL_SLOW_MAX_MILLIS).contains(&millis))
                }
                other => panic!("unexpected plan {:?}", other),
            }
        }
        // The sticky quarter exists and small draws reach both flavours.
        assert!(matches!(
            RankFaultPlan::partition_from_bit(3),
            RankFaultPlan::Partition { sticky: true, .. }
        ));
        assert!(matches!(
            RankFaultPlan::partition_from_bit(0),
            RankFaultPlan::Partition { sticky: false, .. }
        ));
    }

    #[test]
    fn partition_drops_cross_cut_sends_only() {
        let f = Fabric::new(4);
        // cut_draw 0 on a 4-rank fabric → cut = 1: {0} | {1,2,3}.
        for src in 0..4 {
            f.arm_partition(src, COMM, 0, 0, false, None);
        }
        // Within-side traffic is untouched.
        f.send(1, 2, coll_tag(COMM, 0, 0), vec![12]).unwrap();
        assert_eq!(f.recv(2, 1, coll_tag(COMM, 0, 0), &ctl()), vec![12]);
        assert!(!f.stats().fault_fired, "within-side send must not fire");
        // Cross-cut traffic is dropped, both directions.
        f.send(0, 3, coll_tag(COMM, 0, 1), vec![3]).unwrap();
        f.send(3, 0, coll_tag(COMM, 0, 2), vec![30]).unwrap();
        assert_eq!(f.queued(3), 0);
        assert_eq!(f.queued(0), 0);
        assert!(f.stats().fault_fired);
    }

    #[test]
    fn partition_scope_starts_at_from_seq_and_spares_p2p() {
        let f = Fabric::new(2);
        f.arm_partition(0, COMM, 5, 0, false, None);
        // Earlier collective: delivered.
        f.send(0, 1, coll_tag(COMM, 4, 0), vec![4]).unwrap();
        assert_eq!(f.recv(1, 0, coll_tag(COMM, 4, 0), &ctl()), vec![4]);
        // P2p traffic with matching low bits: out of scope.
        f.send(0, 1, crate::comm::p2p_tag(COMM, 9), vec![9])
            .unwrap();
        assert_eq!(f.recv(1, 0, crate::comm::p2p_tag(COMM, 9), &ctl()), vec![9]);
        assert!(!f.stats().fault_fired);
        // The partition instant and everything after: dropped.
        f.send(0, 1, coll_tag(COMM, 5, 0), vec![5]).unwrap();
        f.send(0, 1, coll_tag(COMM, 7, 0), vec![7]).unwrap();
        assert_eq!(f.queued(1), 0);
        assert!(f.stats().fault_fired);
    }

    #[test]
    fn partition_burns_op_budget_deterministically_in_plain_mode() {
        let run = || {
            let f = Fabric::new(2);
            f.arm_partition(0, COMM, 0, 0, false, None);
            f.send(0, 1, coll_tag(COMM, 0, 0), vec![5]).unwrap();
            assert!(!f.stuck(1), "partition victim is not (yet) stuck");
            let c = JobControl::with_budget(2, Duration::from_secs(60), Some(400));
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                f.recv(1, 0, coll_tag(COMM, 0, 0), &c)
            }))
            .unwrap_err();
            assert_eq!(*err.downcast_ref::<RankPanic>().unwrap(), RankPanic::Killed);
            assert_eq!(c.hang(), Some(crate::control::HangKind::OpBudget));
            c.ops(1)
        };
        assert_eq!(run(), run(), "op-budget kill point is logical, not timed");
    }

    #[test]
    fn resilient_transport_heals_a_partition_unless_sticky() {
        let f = Fabric::with_mode(2, true);
        f.arm_partition(0, COMM, 0, 0, false, None);
        f.send(0, 1, coll_tag(COMM, 0, 0), vec![1, 2]).unwrap();
        assert_eq!(f.recv(1, 0, coll_tag(COMM, 0, 0), &ctl()), vec![1, 2]);
        let s = f.stats();
        assert!(s.fault_fired);
        assert_eq!(s.retransmits, 1);
        assert_eq!(s.transport_errors, 0);

        let f = Fabric::with_mode(2, true);
        f.arm_partition(0, COMM, 0, 0, true, None);
        f.send(0, 1, coll_tag(COMM, 0, 0), vec![1, 2]).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            f.recv(1, 0, coll_tag(COMM, 0, 0), &ctl())
        }))
        .unwrap_err();
        assert_eq!(
            *err.downcast_ref::<RankPanic>().unwrap(),
            RankPanic::Mpi(MpiError::Transport)
        );
        assert_eq!(f.stats().transport_errors, 1);
    }

    #[test]
    fn single_rank_fabric_never_arms_a_partition() {
        let f = Fabric::new(1);
        f.arm_partition(0, COMM, 0, 7, true, None);
        f.send(0, 0, coll_tag(COMM, 0, 0), vec![1]).unwrap();
        assert_eq!(f.recv(0, 0, coll_tag(COMM, 0, 0), &ctl()), vec![1]);
        assert!(!f.stats().fault_fired);
    }

    #[test]
    fn transient_partition_heals_at_until_seq_in_plain_mode() {
        let f = Fabric::new(2);
        // Heal after 2 collectives: seq 0 and 1 are cut, seq 2 onward is
        // delivered untouched.
        f.arm_partition(0, COMM, 0, 0, false, Some(2));
        f.send(0, 1, coll_tag(COMM, 1, 0), vec![1]).unwrap();
        f.send(0, 1, coll_tag(COMM, 2, 0), vec![2]).unwrap();
        assert_eq!(f.recv(1, 0, coll_tag(COMM, 2, 0), &ctl()), vec![2]);
        assert_eq!(f.queued(1), 0, "the in-window message stays dropped");
        let s = f.stats();
        assert!(s.fault_fired);
        assert_eq!(s.partition_drops, 1);
        assert_eq!(s.msg_faults_fired, 0, "no message-fault plan involved");
    }

    #[test]
    fn resilient_transport_recovers_the_transient_partition_window() {
        let f = Fabric::with_mode(2, true);
        f.arm_partition(0, COMM, 0, 0, false, Some(1));
        // In-window send is dropped, then recovered by retransmission.
        f.send(0, 1, coll_tag(COMM, 0, 0), vec![1, 2]).unwrap();
        assert_eq!(f.recv(1, 0, coll_tag(COMM, 0, 0), &ctl()), vec![1, 2]);
        // Post-heal send is delivered without any recovery work.
        f.send(0, 1, coll_tag(COMM, 1, 0), vec![3, 4]).unwrap();
        assert_eq!(f.recv(1, 0, coll_tag(COMM, 1, 0), &ctl()), vec![3, 4]);
        let s = f.stats();
        assert_eq!(s.partition_drops, 1);
        assert_eq!(s.retransmits, 1);
        assert_eq!(s.transport_errors, 0);
    }

    #[test]
    fn stats_count_each_msg_fault_plan_once() {
        let f = Fabric::new(2);
        f.arm(0, COMM, 0, plan(MsgFaultKind::Drop));
        f.send(0, 1, scoped_tag(), vec![5]).unwrap();
        let s = f.stats();
        assert!(s.fault_fired);
        assert_eq!(s.msg_faults_fired, 1);
        assert_eq!(s.partition_drops, 0);
        // A second armed plan on a later collective counts separately.
        f.arm(0, COMM, 1, plan(MsgFaultKind::Duplicate));
        f.send(0, 1, coll_tag(COMM, 1, 0), vec![6]).unwrap();
        assert_eq!(f.stats().msg_faults_fired, 2);
    }

    #[test]
    fn nth_send_counts_only_scoped_sends() {
        let f = Fabric::new(2);
        f.arm(
            0,
            COMM,
            0,
            MsgFaultPlan {
                nth_send: 1,
                ..plan(MsgFaultKind::Drop)
            },
        );
        // Unscoped traffic does not advance the counter.
        f.send(0, 1, coll_tag(COMM, 9, 0), vec![9]).unwrap();
        // Scoped send 0: untouched. Scoped send 1: dropped.
        f.send(0, 1, coll_tag(COMM, 0, 0), vec![0]).unwrap();
        f.send(0, 1, coll_tag(COMM, 0, 1), vec![1]).unwrap();
        assert_eq!(f.recv(1, 0, coll_tag(COMM, 0, 0), &ctl()), vec![0]);
        assert_eq!(f.queued(1), 1, "only the unscoped message remains");
        assert!(f.stats().fault_fired);
    }
}
