//! Collective algorithms.
//!
//! Each algorithm works on raw byte buffers with an element size, exchanges
//! data through the fabric with communicator-scoped tags, and reports size
//! mismatches as MPI errors — so a rank whose parameters were corrupted by
//! the injector produces exactly the failure modes a real implementation
//! does: `MPI_ERR_TRUNCATE`-style fatal errors, deadlocks, or silently
//! wrong data.
//!
//! Algorithms used (classic choices, all deterministic):
//! - Barrier: dissemination
//! - Bcast / Reduce: binomial tree
//! - Allreduce: recursive doubling (power-of-two), reduce+bcast otherwise
//! - Scatter / Gather: linear (rooted star)
//! - Allgather: ring
//! - Alltoall / Alltoallv: pairwise exchange
//! - Scan / Exscan: linear chain
//! - Reduce_scatter(_block): pairwise exchange
//!
//! Size-tuned variants (selected automatically by the context layer):
//! - Allreduce (large): Rabenseifner reduce-scatter + allgather
//! - Bcast (large): scatter + ring allgather

pub mod allgather;
pub mod allreduce;
pub mod alltoall;
pub mod barrier;
pub mod bcast;
pub mod gather_scatter;
pub mod reduce;
pub mod reduce_scatter;
pub(crate) mod rendezvous;
pub mod scan;

use crate::comm::{coll_tag, Comm};
use crate::control::{JobControl, RankPanic};
use crate::datatype::Datatype;
use crate::error::MpiError;
use crate::op::ReduceOp;
use crate::replay::CallResult;
use crate::transport::Fabric;

/// One rank's side of one collective call, decoded: what it contributes
/// and the byte counts it expects. [`Call::run`] hands it to its
/// algorithm — the message path; a job no fault can reach completes the
/// data-movement kinds by [`rendezvous`] instead.
pub(crate) enum Call {
    Barrier,
    /// `data` is the payload on the root, empty elsewhere; `large` picks
    /// scatter + allgather over the binomial tree.
    Bcast {
        root: usize,
        data: Vec<u8>,
        large: bool,
    },
    Reduce {
        op: ReduceOp,
        root: usize,
        contrib: Vec<u8>,
    },
    /// `large` tries Rabenseifner's algorithm.
    Allreduce {
        op: ReduceOp,
        contrib: Vec<u8>,
        large: bool,
    },
    /// `data` is the root's send image; every rank expects `chunk` bytes.
    Scatter {
        root: usize,
        data: Option<Vec<u8>>,
        chunk: usize,
    },
    /// `counts`/`displs` are this rank's (in bytes); it expects `mine`.
    Scatterv {
        root: usize,
        data: Option<Vec<u8>>,
        counts: Vec<usize>,
        displs: Vec<usize>,
        mine: usize,
    },
    Gather {
        root: usize,
        contrib: Vec<u8>,
    },
    Gatherv {
        root: usize,
        contrib: Vec<u8>,
        counts: Vec<usize>,
        displs: Vec<usize>,
    },
    Allgather {
        contrib: Vec<u8>,
    },
    Allgatherv {
        contrib: Vec<u8>,
        counts: Vec<usize>,
        displs: Vec<usize>,
    },
    /// `data` holds one `chunk`-byte block per member.
    Alltoall {
        data: Vec<u8>,
        chunk: usize,
    },
    Alltoallv {
        data: Vec<u8>,
        send_counts: Vec<usize>,
        send_displs: Vec<usize>,
        recv_counts: Vec<usize>,
        recv_displs: Vec<usize>,
    },
    Scan {
        op: ReduceOp,
        contrib: Vec<u8>,
    },
    Exscan {
        op: ReduceOp,
        contrib: Vec<u8>,
    },
    ReduceScatter {
        op: ReduceOp,
        data: Vec<u8>,
        block: usize,
    },
}

impl Call {
    /// Run the call's algorithm over the fabric. A rank the algorithm
    /// hands nothing (a non-root of a gather, any rank of a barrier) gets
    /// `None`.
    pub(crate) fn run(self, env: &CollEnv<'_>) -> CallResult {
        match self {
            Call::Barrier => {
                barrier::barrier(env);
                None
            }
            Call::Bcast { root, data, large } => Some(if large {
                bcast::bcast_large(env, root, data)
            } else {
                bcast::bcast(env, root, data)
            }),
            Call::Reduce { op, root, contrib } => reduce::reduce(env, op, root, contrib),
            Call::Allreduce { op, contrib, large } => Some(if large {
                allreduce::allreduce_large(env, op, contrib)
            } else {
                allreduce::allreduce(env, op, contrib)
            }),
            Call::Scatter { root, data, chunk } => {
                Some(gather_scatter::scatter(env, root, data, chunk))
            }
            Call::Scatterv {
                root,
                data,
                counts,
                displs,
                mine,
            } => Some(gather_scatter::scatterv(
                env, root, data, &counts, &displs, mine,
            )),
            Call::Gather { root, contrib } => gather_scatter::gather(env, root, contrib),
            Call::Gatherv {
                root,
                contrib,
                counts,
                displs,
            } => gather_scatter::gatherv(env, root, contrib, &counts, &displs),
            Call::Allgather { contrib } => Some(allgather::allgather(env, contrib)),
            Call::Allgatherv {
                contrib,
                counts,
                displs,
            } => Some(gather_scatter::allgatherv(env, contrib, &counts, &displs)),
            Call::Alltoall { data, chunk } => Some(alltoall::alltoall(env, data, chunk)),
            Call::Alltoallv {
                data,
                send_counts,
                send_displs,
                recv_counts,
                recv_displs,
            } => Some(alltoall::alltoallv(
                env,
                data,
                &send_counts,
                &send_displs,
                &recv_counts,
                &recv_displs,
            )),
            Call::Scan { op, contrib } => Some(scan::scan(env, op, contrib)),
            Call::Exscan { op, contrib } => Some(scan::exscan(env, op, contrib)),
            Call::ReduceScatter { op, data, block } => {
                Some(reduce_scatter::reduce_scatter_block(env, op, data, block))
            }
        }
    }
}

/// Execution environment for one collective call on one rank.
pub struct CollEnv<'a> {
    /// The fabric connecting global ranks.
    pub fabric: &'a Fabric,
    /// Job control (kill/deadline polling).
    pub ctl: &'a JobControl,
    /// The (validated) communicator this call runs on.
    pub comm: &'a Comm,
    /// The per-communicator collective sequence number of this call.
    pub seq: u64,
    /// Offset added to every round number; used by composite collectives
    /// (e.g. the non-power-of-two allreduce fallback) to keep their stages
    /// in disjoint tag ranges.
    pub round_off: u32,
    /// Element datatype of the payload.
    pub dtype: Datatype,
}

impl<'a> CollEnv<'a> {
    /// This rank's index within the communicator.
    pub fn me(&self) -> usize {
        self.comm.my_index
    }

    /// Communicator size.
    pub fn n(&self) -> usize {
        self.comm.size()
    }

    /// Send `data` to communicator rank `dst` for round `round` of this
    /// collective. Fatal `MPI_ERR_RANK` if `dst` is out of range (a
    /// corrupted root can produce that).
    pub fn send_to(&self, dst: usize, round: u32, data: Vec<u8>) {
        let g = match self.comm.global(dst) {
            Ok(g) => g,
            Err(e) => std::panic::panic_any(RankPanic::Mpi(e)),
        };
        let me_global = self
            .comm
            .global(self.me())
            .expect("own rank is always in range");
        let tag = coll_tag(self.comm.handle.0, self.seq, round + self.round_off);
        if let Err(e) = self.fabric.send(me_global, g, tag, data) {
            std::panic::panic_any(RankPanic::Mpi(e));
        }
    }

    /// Blocking receive from communicator rank `src` for `round`, with no
    /// length expectation (used by `Bcast`, where the payload length is
    /// defined by the incoming message).
    pub fn recv_from(&self, src: usize, round: u32) -> Vec<u8> {
        let g = match self.comm.global(src) {
            Ok(g) => g,
            Err(e) => std::panic::panic_any(RankPanic::Mpi(e)),
        };
        let me_global = self.comm.global(self.me()).expect("own rank in range");
        let tag = coll_tag(self.comm.handle.0, self.seq, round + self.round_off);
        self.fabric.recv(me_global, g, tag, self.ctl)
    }

    /// Receive from `src` expecting exactly `expect` bytes. A longer
    /// message is `MPI_ERR_TRUNCATE`; a shorter one a protocol error — both
    /// fatal, matching mismatched-count behaviour of real MPI.
    pub fn recv_exact(&self, src: usize, round: u32, expect: usize) -> Vec<u8> {
        let data = self.recv_from(src, round);
        if data.len() > expect {
            std::panic::panic_any(RankPanic::Mpi(MpiError::Truncate));
        }
        if data.len() < expect {
            std::panic::panic_any(RankPanic::Mpi(MpiError::Protocol));
        }
        data
    }

    /// Poll the job-control block (deadlock/kill check between rounds).
    pub fn poll(&self) {
        self.ctl.check();
    }
}

/// Raise a fatal MPI error on this rank.
pub fn fatal(e: MpiError) -> ! {
    std::panic::panic_any(RankPanic::Mpi(e))
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Spin up `n` raw rank threads over one fabric/communicator so each
    //! algorithm can be unit-tested without the full job runner.

    use super::*;
    use crate::comm::{CommRegistry, WORLD};
    use std::sync::Arc;
    use std::time::Duration;

    /// Run `f(rank_env, me)` on `n` threads sharing a world communicator
    /// with `seq` = 0. Returns each thread's output, propagating panics.
    pub fn run_ranks<T: Send + 'static>(
        n: usize,
        f: impl Fn(&CollEnv<'_>, usize) -> T + Send + Sync + 'static,
    ) -> Vec<T> {
        run_ranks_dtype(n, Datatype::Byte, f)
    }

    /// As [`run_ranks`] with an explicit datatype.
    pub fn run_ranks_dtype<T: Send + 'static>(
        n: usize,
        dtype: Datatype,
        f: impl Fn(&CollEnv<'_>, usize) -> T + Send + Sync + 'static,
    ) -> Vec<T> {
        let fabric = Fabric::new(n);
        let ctl = Arc::new(JobControl::new(n, Duration::from_secs(10)));
        let f = Arc::new(f);
        let mut handles = Vec::new();
        for me in 0..n {
            let fabric = fabric.clone();
            let ctl = ctl.clone();
            let f = f.clone();
            handles.push(std::thread::spawn(move || {
                let reg = CommRegistry::new_world(n, me);
                let comm = reg.get(WORLD).unwrap();
                let env = CollEnv {
                    fabric: &fabric,
                    ctl: &ctl,
                    comm,
                    seq: 0,
                    round_off: 0,
                    dtype,
                };
                f(&env, me)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::run_ranks;

    #[test]
    fn env_send_recv_neighbours() {
        let outs = run_ranks(4, |env, me| {
            let right = (me + 1) % 4;
            let left = (me + 3) % 4;
            env.send_to(right, 0, vec![me as u8]);
            env.recv_exact(left, 0, 1)[0]
        });
        assert_eq!(outs, vec![3, 0, 1, 2]);
    }

    #[test]
    fn recv_exact_flags_truncation() {
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_ranks(2, |env, me| {
                if me == 0 {
                    env.send_to(1, 0, vec![0; 10]);
                } else {
                    env.recv_exact(0, 0, 4);
                }
            })
        }));
        assert!(res.is_err());
    }
}
