//! PMPI-style interposition.
//!
//! Every collective call builds a [`CollCall`] descriptor — the raw,
//! *corruptible* view of its arguments (opaque handles, counts, and the
//! serialized byte images of the user buffers) — and passes it to the
//! job's [`CollHook`] before the library validates and executes the call.
//! This is the exact seam where FastFIT's fault injector sits in the paper
//! (a PMPI wrapper intercepting the collective before the real
//! implementation runs).

use crate::comm::CommHandle;
use crate::datatype::Datatype;
use crate::op::ReduceOp;
use crate::transport::{MsgFaultPlan, RankFaultPlan};

/// The collective operations the runtime implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CollKind {
    /// `MPI_Barrier`
    Barrier,
    /// `MPI_Bcast`
    Bcast,
    /// `MPI_Reduce`
    Reduce,
    /// `MPI_Allreduce`
    Allreduce,
    /// `MPI_Scatter`
    Scatter,
    /// `MPI_Gather`
    Gather,
    /// `MPI_Allgather`
    Allgather,
    /// `MPI_Alltoall`
    Alltoall,
    /// `MPI_Alltoallv`
    Alltoallv,
    /// `MPI_Scan`
    Scan,
    /// `MPI_Exscan`
    Exscan,
    /// `MPI_Reduce_scatter_block`
    ReduceScatter,
    /// `MPI_Scatterv`
    Scatterv,
    /// `MPI_Gatherv`
    Gatherv,
    /// `MPI_Allgatherv`
    Allgatherv,
}

/// All collective kinds.
pub const ALL_COLL_KINDS: [CollKind; 15] = [
    CollKind::Barrier,
    CollKind::Bcast,
    CollKind::Reduce,
    CollKind::Allreduce,
    CollKind::Scatter,
    CollKind::Gather,
    CollKind::Allgather,
    CollKind::Alltoall,
    CollKind::Alltoallv,
    CollKind::Scan,
    CollKind::Exscan,
    CollKind::ReduceScatter,
    CollKind::Scatterv,
    CollKind::Gatherv,
    CollKind::Allgatherv,
];

impl CollKind {
    /// `MPI_*` style name.
    pub fn name(self) -> &'static str {
        match self {
            CollKind::Barrier => "MPI_Barrier",
            CollKind::Bcast => "MPI_Bcast",
            CollKind::Reduce => "MPI_Reduce",
            CollKind::Allreduce => "MPI_Allreduce",
            CollKind::Scatter => "MPI_Scatter",
            CollKind::Gather => "MPI_Gather",
            CollKind::Allgather => "MPI_Allgather",
            CollKind::Alltoall => "MPI_Alltoall",
            CollKind::Alltoallv => "MPI_Alltoallv",
            CollKind::Scan => "MPI_Scan",
            CollKind::Exscan => "MPI_Exscan",
            CollKind::ReduceScatter => "MPI_Reduce_scatter_block",
            CollKind::Scatterv => "MPI_Scatterv",
            CollKind::Gatherv => "MPI_Gatherv",
            CollKind::Allgatherv => "MPI_Allgatherv",
        }
    }

    /// Inverse of [`CollKind::name`] (`MPI_*` display names, exact match).
    pub fn from_name(name: &str) -> Option<CollKind> {
        ALL_COLL_KINDS.into_iter().find(|k| k.name() == name)
    }

    /// Whether the collective has a root parameter (the paper's "rooted"
    /// collectives, §III-A).
    pub fn is_rooted(self) -> bool {
        matches!(
            self,
            CollKind::Bcast
                | CollKind::Reduce
                | CollKind::Scatter
                | CollKind::Gather
                | CollKind::Scatterv
                | CollKind::Gatherv
        )
    }

    /// The injectable input parameters of this collective (the paper's
    /// Figure 9 parameter set, per kind).
    pub fn params(self) -> &'static [ParamId] {
        use ParamId::*;
        match self {
            CollKind::Barrier => &[Comm],
            CollKind::Bcast => &[SendBuf, Count, Datatype, Root, Comm],
            CollKind::Reduce => &[SendBuf, RecvBuf, Count, Datatype, Op, Root, Comm],
            CollKind::Allreduce => &[SendBuf, RecvBuf, Count, Datatype, Op, Comm],
            CollKind::Scatter => &[SendBuf, RecvBuf, Count, Datatype, Root, Comm],
            CollKind::Gather => &[SendBuf, RecvBuf, Count, Datatype, Root, Comm],
            CollKind::Allgather => &[SendBuf, RecvBuf, Count, Datatype, Comm],
            CollKind::Alltoall => &[SendBuf, RecvBuf, Count, Datatype, Comm],
            CollKind::Alltoallv => &[SendBuf, RecvBuf, Count, Datatype, Comm],
            CollKind::Scan => &[SendBuf, RecvBuf, Count, Datatype, Op, Comm],
            CollKind::Exscan => &[SendBuf, RecvBuf, Count, Datatype, Op, Comm],
            CollKind::ReduceScatter => &[SendBuf, RecvBuf, Count, Datatype, Op, Comm],
            CollKind::Scatterv => &[SendBuf, RecvBuf, Count, Datatype, Root, Comm],
            CollKind::Gatherv => &[SendBuf, RecvBuf, Count, Datatype, Root, Comm],
            CollKind::Allgatherv => &[SendBuf, RecvBuf, Count, Datatype, Comm],
        }
    }
}

/// An injectable input parameter of a collective call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ParamId {
    /// The serialized send-buffer contents.
    SendBuf,
    /// The serialized receive-buffer contents (pre-call image).
    RecvBuf,
    /// The element count (for `Alltoallv`: a random entry of the counts
    /// vector).
    Count,
    /// The datatype handle.
    Datatype,
    /// The reduction-op handle.
    Op,
    /// The root rank.
    Root,
    /// The communicator handle.
    Comm,
}

/// All parameter ids.
pub const ALL_PARAMS: [ParamId; 7] = [
    ParamId::SendBuf,
    ParamId::RecvBuf,
    ParamId::Count,
    ParamId::Datatype,
    ParamId::Op,
    ParamId::Root,
    ParamId::Comm,
];

impl ParamId {
    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ParamId::SendBuf => "sendbuf",
            ParamId::RecvBuf => "recvbuf",
            ParamId::Count => "count",
            ParamId::Datatype => "datatype",
            ParamId::Op => "op",
            ParamId::Root => "root",
            ParamId::Comm => "comm",
        }
    }
}

/// A static call site: the source location of the collective call in the
/// application, captured via `#[track_caller]`. Identical across ranks and
/// runs, which is what makes injection points addressable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CallSite {
    /// Source file.
    pub file: &'static str,
    /// Line number.
    pub line: u32,
}

impl std::fmt::Display for CallSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Print only the trailing path component; full paths are noisy.
        let short = self.file.rsplit('/').next().unwrap_or(self.file);
        write!(f, "{}:{}", short, self.line)
    }
}

/// The raw (pre-validation) parameters of a collective call, exactly as a
/// PMPI wrapper would see them. All handles are opaque codes so that bit
/// flips can make them invalid.
#[derive(Debug, Clone, PartialEq)]
pub struct CollParams {
    /// Element count (`MPI_Alltoallv` uses `send_counts`/`recv_counts`
    /// instead; `count` then holds the per-peer average for reporting).
    pub count: i32,
    /// Datatype handle code.
    pub dtype: u32,
    /// Reduction-op handle code (unused kinds carry a valid `Sum` handle).
    pub op: u32,
    /// Root rank (unused kinds carry 0).
    pub root: i32,
    /// Communicator handle code.
    pub comm: u32,
    /// Per-peer send counts (elements), `Alltoallv` only.
    pub send_counts: Option<Vec<i32>>,
    /// Per-peer send displacements (elements), `Alltoallv` only.
    pub send_displs: Option<Vec<i32>>,
    /// Per-peer receive counts (elements), `Alltoallv` only.
    pub recv_counts: Option<Vec<i32>>,
    /// Per-peer receive displacements (elements), `Alltoallv` only.
    pub recv_displs: Option<Vec<i32>>,
}

impl CollParams {
    /// Healthy parameters for a non-v collective.
    pub fn simple(
        count: usize,
        dtype: Datatype,
        op: ReduceOp,
        root: usize,
        comm: CommHandle,
    ) -> Self {
        CollParams {
            count: count as i32,
            dtype: dtype.handle(),
            op: op.handle(),
            root: root as i32,
            comm: comm.0,
            send_counts: None,
            send_displs: None,
            recv_counts: None,
            recv_displs: None,
        }
    }
}

/// A collective call descriptor handed to the interposition hook before
/// validation and execution. Mutating any field injects a fault exactly as
/// the paper's injector does (one bit flip in one input parameter).
pub struct CollCall<'a> {
    /// Which collective.
    pub kind: CollKind,
    /// Application call site.
    pub site: CallSite,
    /// Zero-based invocation index of this site *on this rank*.
    pub invocation: u64,
    /// Global rank executing the call.
    pub rank: usize,
    /// Raw parameters (mutable: flip bits here).
    pub params: &'a mut CollParams,
    /// Serialized send-buffer image, if the kind has one.
    pub sendbuf: Option<&'a mut Vec<u8>>,
    /// Serialized receive-buffer image, if the kind has one.
    pub recvbuf: Option<&'a mut Vec<u8>>,
    /// Set by a hook that changed `params`, `sendbuf` or `recvbuf`. With
    /// `msg_fault` and `rank_fault` this is how the runtime learns that the
    /// hook *acted* on the call; a change or a rank fault taints the rank
    /// (the guard of [`crate::replay`]), a message plan only what it hits.
    pub corrupted: bool,
    /// Message-fault plan to arm for this rank's sends within this
    /// collective invocation. Set by a hook to inject a transport-level
    /// fault instead of (or in addition to) a parameter flip.
    pub msg_fault: Option<MsgFaultPlan>,
    /// Rank-fault plan for this collective entry: crash-stop, fail-slow,
    /// or a network partition. Set by a hook; the runtime acts on it right
    /// after the hook returns (crash/stall) or arms it with the collective
    /// scope (partition).
    pub rank_fault: Option<RankFaultPlan>,
}

/// Interposition hook (the PMPI layer). Implemented by the FastFIT
/// injector; the default implementation observes without interfering.
pub trait CollHook: Send + Sync {
    /// Called after the descriptor is built and before validation runs.
    fn before(&self, _call: &mut CollCall<'_>) {}

    /// Whether the hook's schedule is spent: it will act on no further
    /// call of any rank. Asked on `rank`'s behalf after each of that
    /// rank's [`before`](CollHook::before) calls, once the runtime has
    /// accounted for what the call did, in a job that ends when nothing
    /// can make it differ from its recorded run any more (the open set of
    /// [`crate::transport`]). Answer `true` only to the rank whose entry
    /// spent the schedule — another rank may be asking while that entry is
    /// still being accounted for — and to no other. `false`, the default,
    /// is always safe: such a job runs to its end.
    fn spent(&self, _rank: usize) -> bool {
        false
    }
}

/// A hook that does nothing (profiling-only runs).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullHook;

impl CollHook for NullHook {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rooted_classification_matches_paper() {
        assert!(CollKind::Bcast.is_rooted());
        assert!(CollKind::Reduce.is_rooted());
        assert!(CollKind::Scatter.is_rooted());
        assert!(!CollKind::Allreduce.is_rooted());
        assert!(!CollKind::Alltoall.is_rooted());
        assert!(!CollKind::Barrier.is_rooted());
    }

    #[test]
    fn param_sets_are_consistent() {
        for k in ALL_COLL_KINDS {
            let ps = k.params();
            assert!(ps.contains(&ParamId::Comm), "{:?} must take a comm", k);
            assert_eq!(ps.contains(&ParamId::Root), k.is_rooted());
            assert_eq!(
                ps.contains(&ParamId::Op),
                matches!(
                    k,
                    CollKind::Reduce
                        | CollKind::Allreduce
                        | CollKind::Scan
                        | CollKind::Exscan
                        | CollKind::ReduceScatter
                )
            );
        }
        assert_eq!(CollKind::Barrier.params().len(), 1);
        assert_eq!(
            CollKind::Allreduce.params().len(),
            6,
            "Figure 9's six params"
        );
    }

    #[test]
    fn site_display_is_short() {
        let s = CallSite {
            file: "/long/path/to/kernel.rs",
            line: 42,
        };
        assert_eq!(format!("{}", s), "kernel.rs:42");
    }
}
