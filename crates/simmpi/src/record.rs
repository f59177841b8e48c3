//! Per-rank call recording — the data source for the profiling phase.
//!
//! When a job runs with recording enabled, every collective call appends a
//! [`CallRecord`] carrying the information the paper's profiling phase
//! gathers with mpiP, Callgrind/gprof and `backtrace()`: call site,
//! collective type, invocation index, call stack, execution phase, and
//! whether the call sits in error-handling code.

use crate::hook::{CallSite, CollKind};

/// Coarse execution phases of an application (§III-C, feature `Phase`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Start-up: allocating structures, wiring communicators.
    Init,
    /// Reading/broadcasting the input problem.
    Input,
    /// The main computation loop.
    Compute,
    /// Verification, output and teardown.
    End,
}

/// All phases in order.
pub const ALL_PHASES: [Phase; 4] = [Phase::Init, Phase::Input, Phase::Compute, Phase::End];

impl Phase {
    /// Stable numeric encoding used as an ML feature.
    pub fn index(self) -> usize {
        match self {
            Phase::Init => 0,
            Phase::Input => 1,
            Phase::Compute => 2,
            Phase::End => 3,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Init => "init",
            Phase::Input => "input",
            Phase::Compute => "compute",
            Phase::End => "end",
        }
    }
}

/// One recorded collective call on one rank.
#[derive(Debug, Clone)]
pub struct CallRecord {
    /// Call site in the application source.
    pub site: CallSite,
    /// Collective type.
    pub kind: CollKind,
    /// Invocation index of this site on this rank (0-based).
    pub invocation: u64,
    /// Communicator handle code the call used.
    pub comm_code: u32,
    /// The call's sequence number on that communicator (0 when the handle
    /// names none): with `comm_code`, its key in the job's
    /// [`ReplayLog`](crate::replay::ReplayLog).
    pub seq: u64,
    /// Size of that communicator.
    pub comm_size: usize,
    /// Element count (average per peer for v-collectives).
    pub count: i32,
    /// Root parameter (0 for non-rooted kinds).
    pub root: i32,
    /// Whether this rank was the root of a rooted collective.
    pub is_root: bool,
    /// Application phase at the call.
    pub phase: Phase,
    /// Whether the call was made from error-handling code.
    pub errhdl: bool,
    /// The annotated application call stack (outermost first).
    pub stack: Vec<&'static str>,
    /// Payload bytes this rank contributed.
    pub bytes: usize,
}

impl CallRecord {
    /// A stable hash of the call stack, used to group invocations that share
    /// a stack (§III-B). FNV-1a over the frame names.
    pub fn stack_hash(&self) -> u64 {
        stack_hash(&self.stack)
    }
}

/// FNV-1a hash of a frame stack.
pub fn stack_hash(stack: &[&'static str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for frame in stack {
        for b in frame.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h ^= 0xFF; // frame separator
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indices_are_stable_and_ordered() {
        for (i, p) in ALL_PHASES.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn stack_hash_distinguishes_order_and_content() {
        let a = stack_hash(&["main", "solve", "norm"]);
        let b = stack_hash(&["main", "norm", "solve"]);
        let c = stack_hash(&["main", "solve"]);
        let d = stack_hash(&["main", "solve", "norm"]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, d);
    }

    #[test]
    fn stack_hash_separator_prevents_concat_collisions() {
        assert_ne!(stack_hash(&["ab", "c"]), stack_hash(&["a", "bc"]));
    }
}
