//! Fault-free collectives by rendezvous (DESIGN.md §12, "Fault-free
//! collectives by rendezvous").
//!
//! A job that no fault can reach — no hook, on the coop engine — needs
//! the messages of a data-movement collective for nothing but their bytes.
//! Each member deposits its [`Call`] in a slot keyed by the call's
//! `(communicator, seq)` and parks once; the member that arrives last
//! checks that every receive the algorithm would make would get exactly
//! the bytes it expects, and then each member copies its result straight
//! out of the deposits. Where one would not, every member takes its call
//! back and runs the algorithm: no byte has moved yet, so that run is the
//! message path's, failure modes and all.
//!
//! A slot some member never reaches would park the others for good,
//! where the message path may have let them finish (a broadcast root
//! sends and returns) or block on a receive the stall sweep can prove.
//! So when a coop round ends with every rank parked and nothing moved,
//! the scheduler [releases](Slots::release) every open slot to its
//! algorithm before it reads the round as parked.
//!
//! Reductions (Reduce, Allreduce, Scan, Exscan, Reduce_scatter) never
//! come here: their float combine order belongs to the algorithm, and a
//! golden result must equal what a trial's real exchange computes.

use super::{Call, CollEnv};
use crate::ctx::SIM_ALLOC_LIMIT_BYTES;
use crate::lock;
use crate::replay::CallResult;
use std::collections::HashMap;
use std::iter::once;
use std::mem::discriminant;
use std::sync::Mutex;

/// Whether `call` only moves data, and so may complete by rendezvous.
pub(crate) fn admits(call: &Call) -> bool {
    !matches!(
        call,
        Call::Reduce { .. }
            | Call::Allreduce { .. }
            | Call::Scan { .. }
            | Call::Exscan { .. }
            | Call::ReduceScatter { .. }
    )
}

/// Complete `call`, a kind [`admits`] lets in, with the other members of
/// `env`'s communicator: by rendezvous, or by its algorithm.
pub(crate) fn exchange(env: &CollEnv<'_>, call: Call) -> CallResult {
    let slots = env.fabric.slots();
    // Two disjoint communicators of one split share a code, never a rank 0.
    let first = env.comm.global(0).expect("a communicator has a rank 0");
    let key = (env.comm.handle.0, env.seq, first);
    let (mut turn, progress) = slots.arrive(key, env.n(), env.me(), call);
    if let Some(bytes) = progress {
        env.fabric.rendezvous_progress(bytes);
    }
    loop {
        match turn {
            Turn::Take(result) => return result,
            Turn::Run(call) => return call.run(env),
            Turn::Wait => {
                crate::sched::yield_blocked();
                env.ctl.check();
                turn = slots.poll(key, env.me());
            }
        }
    }
}

/// A slot's key: communicator code, sequence number, and the global rank
/// of the communicator's rank 0.
type Key = (u32, u64, usize);

/// The job's open rendezvous, one per collective call in progress.
#[derive(Default)]
pub(crate) struct Slots(Mutex<HashMap<Key, Slot>>);

impl std::fmt::Debug for Slots {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slots")
            .field("in_progress", &lock(&self.0).len())
            .finish()
    }
}

struct Slot {
    /// Each member's call, by communicator rank.
    calls: Vec<Option<Call>>,
    arrived: usize,
    /// Members that have gone, with their result or to the algorithm.
    left: usize,
    state: State,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Members are still arriving.
    Open,
    /// Every member arrived and the call is congruent: take the result.
    Done,
    /// Run the algorithm: the call is not congruent, or the job gave up
    /// waiting for a member.
    Algorithm,
}

/// What a member does next.
enum Turn {
    Wait,
    Take(CallResult),
    Run(Call),
}

impl Slots {
    /// Member `me` of `n` arrives with `call`. Also says whether the slot
    /// completed here (the payload bytes it moved between ranks, none if
    /// it went to the algorithm).
    fn arrive(&self, key: Key, n: usize, me: usize, call: Call) -> (Turn, Option<u64>) {
        let mut table = lock(&self.0);
        let slot = table.entry(key).or_insert_with(|| Slot {
            calls: (0..n).map(|_| None).collect(),
            arrived: 0,
            left: 0,
            state: State::Open,
        });
        // Each member reaches a `(communicator, seq)` once, and the
        // groups that share a code have distinct rank 0s.
        assert!(
            slot.calls.len() == n && slot.calls[me].is_none(),
            "one rendezvous slot per call of one communicator"
        );
        if slot.state != State::Open {
            // Given up on before this member came.
            if slot.leave() {
                table.remove(&key);
            }
            return (Turn::Run(call), None);
        }
        slot.calls[me] = Some(call);
        slot.arrived += 1;
        if slot.arrived < n {
            return (Turn::Wait, None);
        }
        let moved = moved(&slot.calls);
        slot.state = if moved.is_some() {
            State::Done
        } else {
            State::Algorithm
        };
        let turn = slot.turn(me);
        if slot.leave() {
            table.remove(&key);
        }
        (turn, Some(moved.unwrap_or(0)))
    }

    /// What parked member `me` does now.
    fn poll(&self, key: Key, me: usize) -> Turn {
        let mut table = lock(&self.0);
        let slot = table
            .get_mut(&key)
            .expect("a slot stays until its last member leaves");
        if slot.state == State::Open {
            return Turn::Wait;
        }
        let turn = slot.turn(me);
        if slot.leave() {
            table.remove(&key);
        }
        turn
    }

    /// Send every open slot to its algorithm; whether there was one.
    pub(crate) fn release(&self) -> bool {
        let mut released = false;
        for slot in lock(&self.0).values_mut() {
            if slot.state == State::Open {
                slot.state = State::Algorithm;
                released = true;
            }
        }
        released
    }
}

impl Slot {
    /// Member `me`'s way out of a slot that is no longer open.
    fn turn(&mut self, me: usize) -> Turn {
        match self.state {
            State::Done => Turn::Take(result(&self.calls, me)),
            _ => Turn::Run(self.calls[me].take().expect("a member leaves once")),
        }
    }

    /// Count one member out; whether it was the last.
    fn leave(&mut self) -> bool {
        self.left += 1;
        self.left == self.calls.len()
    }
}

// ----- what the algorithms would do -----

/// Member `i`'s call in a slot every member has reached.
fn at(calls: &[Option<Call>], i: usize) -> &Call {
    calls[i].as_ref().expect("every member has arrived")
}

/// `Some(())` iff `f` holds for every member index below `n`.
fn all(n: usize, f: impl Fn(usize) -> bool) -> Option<()> {
    (0..n).all(f).then_some(())
}

/// The bytes `data[lo..lo + len]` an algorithm reads, cut at its end.
fn cut(data: &[u8], lo: usize, len: usize) -> &[u8] {
    &data[lo.min(data.len())..lo.saturating_add(len).min(data.len())]
}

/// Fill `out` from `data` at `lo`, `0xAA` past `data`'s end (what the
/// v-collectives send from a short image).
fn put(out: &mut [u8], data: &[u8], lo: usize) {
    let src = cut(data, lo, out.len());
    out[..src.len()].copy_from_slice(src);
    out[src.len()..].fill(0xAA);
}

impl Call {
    fn root(&self) -> Option<usize> {
        match self {
            Call::Bcast { root, .. }
            | Call::Scatter { root, .. }
            | Call::Scatterv { root, .. }
            | Call::Gather { root, .. }
            | Call::Gatherv { root, .. } => Some(*root),
            _ => None,
        }
    }

    /// What this member hands the algorithm to send: its payload,
    /// contribution or send image (empty where it sends nothing).
    fn image(&self) -> &[u8] {
        match self {
            Call::Bcast { data, .. }
            | Call::Alltoall { data, .. }
            | Call::Alltoallv { data, .. } => data,
            Call::Scatter { data, .. } | Call::Scatterv { data, .. } => {
                data.as_deref().unwrap_or_default()
            }
            Call::Gather { contrib, .. }
            | Call::Gatherv { contrib, .. }
            | Call::Allgather { contrib }
            | Call::Allgatherv { contrib, .. } => contrib,
            _ => &[],
        }
    }

    /// Its per-member byte counts and displacements (the send side of an
    /// alltoallv).
    fn counts(&self) -> (&[usize], &[usize]) {
        match self {
            Call::Scatterv { counts, displs, .. }
            | Call::Gatherv { counts, displs, .. }
            | Call::Allgatherv { counts, displs, .. } => (counts, displs),
            Call::Alltoallv {
                send_counts,
                send_displs,
                ..
            } => (send_counts, send_displs),
            _ => (&[], &[]),
        }
    }

    /// The bytes it expects from each sender (scatters, alltoall).
    fn expects(&self) -> usize {
        match self {
            Call::Scatter { chunk, .. } | Call::Alltoall { chunk, .. } => *chunk,
            Call::Scatterv { mine, .. } => *mine,
            _ => 0,
        }
    }

    /// An alltoallv's receive counts and displacements.
    fn receives(&self) -> (&[usize], &[usize]) {
        match self {
            Call::Alltoallv {
                recv_counts,
                recv_displs,
                ..
            } => (recv_counts, recv_displs),
            _ => (&[], &[]),
        }
    }
}

/// The payload bytes the algorithm would move between ranks, if every
/// receive it would make gets exactly the bytes it expects; `None` if one
/// would not, or if the members did not all make one call.
fn moved(calls: &[Option<Call>]) -> Option<u64> {
    let n = calls.len();
    let peers = n - 1;
    let first = at(calls, 0);
    all(n, |i| {
        let c = at(calls, i);
        discriminant(c) == discriminant(first) && c.root() == first.root()
    })?;
    let sum_but = |counts: &[usize], skip: usize| -> usize {
        counts
            .iter()
            .enumerate()
            .filter(|&(p, _)| p != skip)
            .map(|(_, c)| c)
            .sum()
    };
    let bytes = match first {
        Call::Barrier => 0,
        // Each member picks its algorithm from its own count.
        Call::Bcast { root, large, .. } => {
            all(
                n,
                |i| matches!(at(calls, i), Call::Bcast { large: l, .. } if l == large),
            )?;
            let len = at(calls, *root).image().len();
            if *large && n > 1 {
                // An 8-byte header down the tree (a non-root refuses one
                // past the memory budget), a scatter, a ring allgather.
                (len <= SIM_ALLOC_LIMIT_BYTES).then_some(())?;
                let chunk = len.div_ceil(n).max(1);
                peers * (8 + chunk) + n * peers * chunk
            } else {
                // The binomial tree hands every non-root the payload once.
                peers * len
            }
        }
        Call::Scatter { root, .. } => {
            let (data, chunk) = (at(calls, *root).image(), at(calls, *root).expects());
            all(n, |p| {
                cut(data, p * chunk, chunk).len() == at(calls, p).expects()
            })?;
            peers * chunk
        }
        Call::Scatterv { root, .. } => {
            let (counts, _) = at(calls, *root).counts();
            all(n, |p| p == *root || counts[p] == at(calls, p).expects())?;
            sum_but(counts, *root)
        }
        Call::Gather { root, .. } => {
            let chunk = at(calls, *root).image().len();
            all(n, |p| at(calls, p).image().len() == chunk)?;
            peers * chunk
        }
        Call::Gatherv { root, .. } => gathered(calls, *root)?,
        Call::Allgather { .. } => {
            let chunk = at(calls, 0).image().len();
            all(n, |p| at(calls, p).image().len() == chunk)?;
            n * peers * chunk
        }
        // A gatherv to rank 0, then a binomial broadcast of what it got.
        Call::Allgatherv { .. } => gathered(calls, 0)? + peers * gatherv_len(calls, 0),
        Call::Alltoall { chunk, .. } => {
            all(n, |i| {
                let c = at(calls, i);
                c.expects() == *chunk && c.image().len() >= n * chunk
            })?;
            n * peers * chunk
        }
        Call::Alltoallv { .. } => {
            // Four vectors of `n` each (else `MPI_ERR_ARG`), and member
            // `j` expects from `i` what `i` sends it, `i` itself included.
            all(n, |i| {
                let ((sc, sd), (rc, rd)) = (at(calls, i).counts(), at(calls, i).receives());
                [sc.len(), sd.len(), rc.len(), rd.len()] == [n; 4]
            })?;
            all(n, |i| {
                (0..n).all(|j| at(calls, i).counts().0[j] == at(calls, j).receives().0[i])
            })?;
            (0..n).map(|i| sum_but(at(calls, i).counts().0, i)).sum()
        }
        Call::Reduce { .. }
        | Call::Allreduce { .. }
        | Call::Scan { .. }
        | Call::Exscan { .. }
        | Call::ReduceScatter { .. } => return None,
    };
    Some(bytes as u64)
}

/// A gatherv to `root` is congruent iff every member contributes what
/// the root's counts say: the bytes it moves, if so.
fn gathered(calls: &[Option<Call>], root: usize) -> Option<usize> {
    let (counts, _) = at(calls, root).counts();
    all(calls.len(), |p| at(calls, p).image().len() == counts[p])?;
    Some(counts.iter().sum::<usize>() - counts[root])
}

/// The length of what a gatherv to `root` assembles there.
fn gatherv_len(calls: &[Option<Call>], root: usize) -> usize {
    let (counts, displs) = at(calls, root).counts();
    displs
        .iter()
        .zip(counts)
        .map(|(d, c)| d + c)
        .max()
        .unwrap_or(0)
}

/// What a gatherv to `root` assembles there: the root's own block first,
/// then every other member's in rank order, as the algorithm places them.
fn gatherv_at(calls: &[Option<Call>], root: usize) -> Vec<u8> {
    let n = calls.len();
    let (_, displs) = at(calls, root).counts();
    let mut all = vec![0u8; gatherv_len(calls, root)];
    for p in once(root).chain((0..n).filter(|&p| p != root)) {
        let block = at(calls, p).image();
        all[displs[p]..displs[p] + block.len()].copy_from_slice(block);
    }
    all
}

/// Member `me`'s result in a congruent slot: what its algorithm would
/// have returned.
fn result(calls: &[Option<Call>], me: usize) -> CallResult {
    let n = calls.len();
    match at(calls, me) {
        Call::Barrier => None,
        Call::Bcast { root, .. } => Some(at(calls, *root).image().to_vec()),
        Call::Scatter { root, .. } => {
            let chunk = at(calls, *root).expects();
            Some(cut(at(calls, *root).image(), me * chunk, chunk).to_vec())
        }
        Call::Scatterv { root, .. } => {
            let (counts, displs) = at(calls, *root).counts();
            let mut mine = vec![0u8; counts[me]];
            put(&mut mine, at(calls, *root).image(), displs[me]);
            Some(mine)
        }
        Call::Gather { root, .. } | Call::Gatherv { root, .. } if me != *root => None,
        Call::Gather { .. } | Call::Allgather { .. } => {
            let mut all = Vec::with_capacity(n * at(calls, me).image().len());
            for p in 0..n {
                all.extend_from_slice(at(calls, p).image());
            }
            Some(all)
        }
        Call::Gatherv { .. } => Some(gatherv_at(calls, me)),
        Call::Allgatherv { .. } => Some(gatherv_at(calls, 0)),
        Call::Alltoall { chunk, .. } => {
            let mut out = vec![0u8; n * chunk];
            for (src, block) in out.chunks_exact_mut((*chunk).max(1)).enumerate() {
                put(block, at(calls, src).image(), me * chunk);
            }
            Some(out)
        }
        Call::Alltoallv { .. } => {
            let (rc, rd) = at(calls, me).receives();
            let total = rd.iter().zip(rc).map(|(d, c)| d + c).max().unwrap_or(0);
            let mut out = vec![0u8; total];
            // The algorithm's order: its own block, then one step back
            // round the ring at a time (windows may overlap).
            for src in once(me).chain((1..n).map(|step| (me + n - step) % n)) {
                let (_, sd) = at(calls, src).counts();
                put(
                    &mut out[rd[src]..rd[src] + rc[src]],
                    at(calls, src).image(),
                    sd[me],
                );
            }
            Some(out)
        }
        Call::Reduce { .. }
        | Call::Allreduce { .. }
        | Call::Scan { .. }
        | Call::Exscan { .. }
        | Call::ReduceScatter { .. } => unreachable!("a reduction is never admitted"),
    }
}
