//! Per-rank execution context — the API surface application code programs
//! against (the `MPI_*` analog).
//!
//! Every collective goes through the same pipeline:
//!
//! 1. serialize the user buffers to byte images,
//! 2. build the raw [`CollParams`] descriptor and record the call (profiling),
//! 3. hand the descriptor to the interposition hook (fault injection seam),
//! 4. validate and decode the — possibly corrupted — raw parameters exactly
//!    as an error-checking MPI build would (`MPI_ERRORS_ARE_FATAL`),
//! 5. execute the collective algorithm on the byte images — through
//!    `RankCtx::exchange`, the one seam where a recorded run stores the
//!    result, a trial's golden prefix returns the stored one instead of
//!    exchanging it again ([`crate::replay`]), a job no fault can reach
//!    moves data by rendezvous ([`crate::coll::rendezvous`]), and a rank
//!    the fault touched inside the call learns whether its application
//!    will see it (the open set of [`crate::transport`]) — and
//! 6. write the result image back into the user buffer.
//!
//! Out-of-bounds effects of corrupted counts follow a page-granularity
//! model: reads that stay within [`PAGE_SLACK`] bytes past the buffer
//! succeed and return garbage (`0xAA`), reads beyond it — and any write
//! overflow — raise a simulated segmentation fault.

use crate::arena::JobState;
use crate::coll::{allgather::allgather as alg_allgather, rendezvous, Call, CollEnv};
use crate::comm::{p2p_tag, Comm, CommHandle, CommRegistry, WORLD};
use crate::control::{JobControl, RankPanic};
use crate::datatype::{Datatype, MpiType};
use crate::error::MpiError;
use crate::hook::{CallSite, CollCall, CollHook, CollKind, CollParams};
use crate::op::ReduceOp;
use crate::record::{CallRecord, Phase};
use crate::replay::{RecordedCall, ReplayPrefix};
use crate::transport::{Fabric, RankFaultPlan};
use prng::Prng;
use std::collections::HashMap;
use std::panic::Location;
use std::sync::Arc;

/// Bytes past the end of a buffer that a read may stray into before the
/// simulated MMU declares a segmentation fault (one page).
pub const PAGE_SLACK: usize = 4096;

/// Payload size (bytes) above which `bcast` switches from the binomial
/// tree to the scatter+allgather algorithm.
pub const BCAST_LARGE_THRESHOLD: usize = 1 << 15;

/// Payload size (bytes) above which `allreduce` tries Rabenseifner's
/// reduce-scatter + allgather algorithm.
pub const ALLREDUCE_LARGE_THRESHOLD: usize = 1 << 14;

/// Simulated per-rank memory budget. An application allocation sized from
/// (possibly corrupted) communicated data that exceeds this budget behaves
/// like a failed `malloc`/OOM kill: a simulated segmentation fault. This
/// keeps a bit-flipped count from turning into a real multi-gigabyte
/// allocation on the host.
pub const SIM_ALLOC_LIMIT_BYTES: usize = 1 << 26;

/// Allocate a zeroed vector of `n` elements inside the simulated memory
/// budget; raises a simulated segmentation fault if the request exceeds
/// [`SIM_ALLOC_LIMIT_BYTES`]. Applications should use this for any buffer
/// whose size derives from received data.
pub fn guarded_vec<T: Default + Clone>(n: usize) -> Vec<T> {
    let bytes = n.saturating_mul(std::mem::size_of::<T>());
    if bytes > SIM_ALLOC_LIMIT_BYTES {
        RankCtx::segfault(format!(
            "allocation of {} bytes exceeds the simulated memory budget",
            bytes
        ));
    }
    vec![T::default(); n]
}

/// Final per-rank scientific output, compared between golden and injected
/// runs to detect `WRONG_ANS`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankOutput {
    /// Named scalar results (energies, checksums, residuals ...).
    pub scalars: Vec<(String, f64)>,
}

impl RankOutput {
    /// Empty output.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a named scalar.
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.scalars.push((name.into(), value));
    }

    /// Convenience: build from a list.
    pub fn from_scalars(scalars: &[(&str, f64)]) -> Self {
        RankOutput {
            scalars: scalars.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
        }
    }
}

/// The per-rank context handed to application code.
pub struct RankCtx {
    rank: usize,
    nranks: usize,
    fabric: Arc<Fabric>,
    ctl: Arc<JobControl>,
    comms: CommRegistry,
    hook: Option<Arc<dyn CollHook>>,
    recording: bool,
    records: Vec<CallRecord>,
    /// What each call's algorithm returned (recorded runs).
    results: Vec<RecordedCall>,
    /// The recorded run this job replays the prefix of, if any.
    replay: Option<ReplayPrefix>,
    /// Sequence number of this rank's last call to replay; `None` once it
    /// has entered that call (or never had one). Mirrored in the fabric's
    /// `in_prefix` flag for the taint guard.
    prefix_last: Option<u64>,
    /// Calls that returned a recorded result.
    replayed: u64,
    /// The job watches its open set — it has both a hook and a recorded
    /// run to be compared with — and this rank has not yet heard the hook
    /// say it is spent.
    hook_open: bool,
    /// Where the call in progress stands on healing its own hook's flip.
    heal: Heal,
    /// No fault can reach the job (no hook, coop engine): data-movement
    /// calls complete by rendezvous.
    rendezvous: bool,
    frames: Vec<&'static str>,
    phase: Phase,
    errhdl_depth: u32,
    site_counts: HashMap<CallSite, u64>,
    rng: Prng,
}

impl RankCtx {
    /// Construct `rank`'s context for one job (used by the job runner).
    pub(crate) fn new(rank: usize, job: &JobState) -> Self {
        let (fabric, replay) = (job.fabric.clone(), job.replay.clone());
        let prefix_last = replay
            .as_ref()
            .and_then(|r| r.log.last_before(rank, r.comm, r.seq));
        fabric.set_in_prefix(rank, prefix_last.is_some());
        RankCtx {
            rank,
            nranks: job.nranks,
            fabric,
            ctl: job.ctl.clone(),
            comms: CommRegistry::new_world(job.nranks, rank),
            hook_open: job.hook.is_some() && replay.is_some(),
            heal: Heal::No,
            rendezvous: job.rendezvous,
            hook: job.hook.clone(),
            recording: job.record,
            records: Vec::new(),
            results: Vec::new(),
            replay,
            prefix_last,
            replayed: 0,
            frames: vec!["main"],
            phase: Phase::Init,
            errhdl_depth: 0,
            site_counts: HashMap::new(),
            rng: Prng::seed_from_u64(job.seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }

    /// This process's rank in the world communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.nranks
    }

    /// The world communicator handle.
    pub fn world(&self) -> CommHandle {
        WORLD
    }

    /// Deterministic per-rank random number generator for application use.
    pub fn rng(&mut self) -> &mut Prng {
        &mut self.rng
    }

    /// Take the recorded calls (job runner use).
    pub(crate) fn take_records(&mut self) -> Vec<CallRecord> {
        std::mem::take(&mut self.records)
    }

    /// Take the recorded call results (job runner use).
    pub(crate) fn take_results(&mut self) -> Vec<RecordedCall> {
        std::mem::take(&mut self.results)
    }

    /// Calls that returned a recorded result instead of exchanging one.
    pub(crate) fn replayed(&self) -> u64 {
        self.replayed
    }

    // ----- annotations (profiling substrate) -----

    /// Enter a named application function (call-stack annotation).
    pub fn enter_frame(&mut self, name: &'static str) {
        self.frames.push(name);
    }

    /// Leave the innermost annotated function.
    pub fn exit_frame(&mut self) {
        if self.frames.len() > 1 {
            self.frames.pop();
        }
    }

    /// Run `f` inside an annotated frame.
    pub fn frame<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.enter_frame(name);
        let r = f(self);
        self.exit_frame();
        r
    }

    /// Current annotated call-stack depth (including `main`).
    pub fn stack_depth(&self) -> usize {
        self.frames.len()
    }

    /// Set the current execution phase.
    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    /// Current execution phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Run `f` with the error-handling-code flag set (the paper's `ErrHal`
    /// feature: collectives used to agree on error conditions).
    pub fn errhdl<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        self.errhdl_depth += 1;
        let r = f(self);
        self.errhdl_depth -= 1;
        r
    }

    /// Whether we are currently inside error-handling code.
    pub fn in_errhdl(&self) -> bool {
        self.errhdl_depth > 0
    }

    /// Cooperative yield point for long compute stretches: bumps this
    /// rank's logical progress counter and honours job teardown. Call it
    /// inside compute loops that run between communication calls so the
    /// watchdog can tell "slow but progressing" from "hung" (and so the
    /// op budget bounds pure-compute livelocks too).
    pub fn yield_point(&self) {
        self.ctl.check();
        self.ctl.note_op(self.rank);
        // On the coop engine this is also a scheduling point, so long
        // compute stretches hand the carrier to the other ranks. Op
        // accounting above is engine-independent; the yield is a no-op on
        // rank threads.
        crate::sched::yield_now();
    }

    /// Abort the job from application code (`MPI_Abort` analog). The whole
    /// job is classified `APP_DETECTED`.
    pub fn abort(&mut self, code: i32, msg: impl Into<String>) -> ! {
        std::panic::panic_any(RankPanic::AppAbort {
            code,
            msg: msg.into(),
        })
    }

    /// Raise a simulated segmentation fault (used by the library's memory
    /// model; applications normally never call this).
    pub fn segfault(detail: impl Into<String>) -> ! {
        std::panic::panic_any(RankPanic::SegFault(detail.into()))
    }

    fn fatal(&self, e: MpiError) -> ! {
        std::panic::panic_any(RankPanic::Mpi(e))
    }

    // ----- communicator management -----

    /// Size of a communicator.
    pub fn comm_size(&self, comm: CommHandle) -> usize {
        match self.comms.get(comm) {
            Ok(c) => c.size(),
            Err(e) => self.fatal(e),
        }
    }

    /// This process's rank within a communicator.
    pub fn comm_rank(&self, comm: CommHandle) -> usize {
        match self.comms.get(comm) {
            Ok(c) => c.my_index,
            Err(e) => self.fatal(e),
        }
    }

    /// Split `parent` by `color` (negative color = not a member of any new
    /// communicator); members are ordered by `(key, rank)`. Collective over
    /// `parent`. Returns the new handle, or `None` for negative color.
    #[track_caller]
    pub fn comm_split(&mut self, parent: CommHandle, color: i32, key: i32) -> Option<CommHandle> {
        // Exchange (color, key) with everyone via an internal allgather.
        let me_global = self.rank;
        let mut contrib = Vec::new();
        i32::write_bytes(&[color, key, me_global as i32], &mut contrib);
        let (comm_clone, seq) = self.bump_seq(parent);
        let env = CollEnv {
            fabric: &self.fabric,
            ctl: &self.ctl,
            comm: &comm_clone,
            seq,
            round_off: 0,
            dtype: Datatype::Int32,
        };
        let all = alg_allgather(&env, contrib);
        let mut triples = vec![0i32; all.len() / 4];
        i32::read_bytes(&all, &mut triples);
        if color < 0 {
            self.comms.skip_generation();
            return None;
        }
        let mut members: Vec<(i32, i32)> = triples
            .chunks(3)
            .filter(|t| t[0] == color)
            .map(|t| (t[1], t[2]))
            .collect();
        members.sort_unstable();
        let globals: Vec<usize> = members.into_iter().map(|(_, g)| g as usize).collect();
        Some(self.comms.register(globals, me_global))
    }

    /// Duplicate a communicator (same members, fresh handle & sequence).
    pub fn comm_dup(&mut self, parent: CommHandle) -> CommHandle {
        match self.comms.dup(parent) {
            Ok(h) => h,
            Err(e) => self.fatal(e),
        }
    }

    /// Validate a handle and clone the communicator, bumping its collective
    /// sequence number.
    fn bump_seq(&mut self, comm: CommHandle) -> (Comm, u64) {
        let (c, seq) = match self.comms.get_mut(comm) {
            Ok(c) => {
                let seq = c.seq;
                c.seq += 1;
                (c.clone(), seq)
            }
            Err(e) => self.fatal(e),
        };
        // Entering the last call this rank replays ends its prefix: from
        // here on the fault may reach it.
        if let (Some(last), Some(replay)) = (self.prefix_last, &self.replay) {
            if replay.comm == comm.0 && seq >= last {
                self.prefix_last = None;
                self.fabric.set_in_prefix(self.rank, false);
            }
        }
        (c, seq)
    }

    // ----- point-to-point -----

    /// Send `buf` to communicator rank `dst` with `tag`.
    pub fn send<T: MpiType>(&mut self, buf: &[T], dst: usize, tag: i32, comm: CommHandle) {
        self.ctl.check();
        self.ctl.note_op(self.rank);
        if tag < 0 {
            self.fatal(MpiError::Tag);
        }
        let c = match self.comms.get(comm) {
            Ok(c) => c,
            Err(e) => self.fatal(e),
        };
        let g = match c.global(dst) {
            Ok(g) => g,
            Err(e) => self.fatal(e),
        };
        let mut data = Vec::new();
        T::write_bytes(buf, &mut data);
        if let Err(e) = self
            .fabric
            .send(self.rank, g, p2p_tag(c.handle.0, tag), data)
        {
            self.fatal(e);
        }
    }

    /// Receive into `buf` from communicator rank `src` with `tag`. Returns
    /// the number of elements received. A message longer than `buf` is a
    /// fatal truncation error, as in MPI.
    pub fn recv_into<T: MpiType>(
        &mut self,
        buf: &mut [T],
        src: usize,
        tag: i32,
        comm: CommHandle,
    ) -> usize {
        self.ctl.check();
        self.ctl.note_op(self.rank);
        if tag < 0 {
            self.fatal(MpiError::Tag);
        }
        let c = match self.comms.get(comm) {
            Ok(c) => c,
            Err(e) => self.fatal(e),
        };
        let g = match c.global(src) {
            Ok(g) => g,
            Err(e) => self.fatal(e),
        };
        let tag = p2p_tag(c.handle.0, tag);
        let data = self.fabric.recv(self.rank, g, tag, &self.ctl);
        let w = T::DTYPE.size();
        if data.len() > buf.len() * w {
            self.fatal(MpiError::Truncate);
        }
        let n = data.len() / w;
        T::read_bytes(&data, &mut buf[..n]);
        n
    }

    /// Post a non-blocking receive. Matching is deferred until
    /// [`RankCtx::wait_into`]; [`RankCtx::test`] probes without blocking.
    /// (Sends are eager, so `isend` is just [`RankCtx::send`].)
    pub fn irecv<T: MpiType>(&mut self, src: usize, tag: i32, comm: CommHandle) -> RecvRequest<T> {
        if tag < 0 {
            self.fatal(MpiError::Tag);
        }
        let c = match self.comms.get(comm) {
            Ok(c) => c,
            Err(e) => self.fatal(e),
        };
        let g = match c.global(src) {
            Ok(g) => g,
            Err(e) => self.fatal(e),
        };
        RecvRequest {
            src_global: g,
            tag: p2p_tag(c.handle.0, tag),
            _elem: std::marker::PhantomData,
        }
    }

    /// Non-blocking completion probe for a posted receive.
    pub fn test<T: MpiType>(&self, req: &RecvRequest<T>) -> bool {
        self.ctl.check();
        let hit = self.fabric.peek(self.rank, req.src_global, req.tag);
        if hit == Some(true) {
            self.fabric.taint(self.rank, &self.ctl);
        }
        if hit.is_none() {
            // A poll miss is a scheduling point on the coop engine: a
            // test/yield spin loop must hand the carrier to the sender or
            // it would never complete. It parks *blocked*: only another
            // rank or a timer can turn the miss into a hit, and logical
            // time moves only once no rank can run. Probes never touch op
            // accounting, so this stays invisible to the journal on both
            // engines.
            crate::sched::yield_blocked();
        }
        hit.is_some()
    }

    /// Complete a posted receive into `buf`; returns the element count.
    /// Fatal truncation error if the message exceeds `buf`.
    pub fn wait_into<T: MpiType>(&mut self, req: RecvRequest<T>, buf: &mut [T]) -> usize {
        self.ctl.check();
        self.ctl.note_op(self.rank);
        let data = self
            .fabric
            .recv(self.rank, req.src_global, req.tag, &self.ctl);
        let w = T::DTYPE.size();
        if data.len() > buf.len() * w {
            self.fatal(MpiError::Truncate);
        }
        let n = data.len() / w;
        T::read_bytes(&data, &mut buf[..n]);
        n
    }

    /// Combined send+receive (halo-exchange helper; deadlock-free because
    /// sends are eager).
    pub fn sendrecv<T: MpiType>(
        &mut self,
        sbuf: &[T],
        dst: usize,
        rbuf: &mut [T],
        src: usize,
        tag: i32,
        comm: CommHandle,
    ) -> usize {
        self.send(sbuf, dst, tag, comm);
        self.recv_into(rbuf, src, tag, comm)
    }

    // ----- collectives (the interposed surface) -----

    /// `MPI_Barrier`.
    #[track_caller]
    pub fn barrier(&mut self, comm: CommHandle) {
        let site = caller_site();
        let mut params = CollParams::simple(0, Datatype::Byte, ReduceOp::Sum, 0, comm);
        let d = self.pre_coll(CollKind::Barrier, site, &mut params, None, None);
        self.exchange(&d, Call::Barrier);
    }

    /// `MPI_Bcast`: broadcast `buf` from `root` (in place).
    #[track_caller]
    pub fn bcast<T: MpiType>(&mut self, buf: &mut [T], root: usize, comm: CommHandle) {
        let site = caller_site();
        let mut image = Vec::new();
        T::write_bytes(buf, &mut image);
        let mut params = CollParams::simple(buf.len(), T::DTYPE, ReduceOp::Sum, root, comm);
        let d = self.pre_coll(CollKind::Bcast, site, &mut params, Some(&mut image), None);
        let nbytes = self.nbytes(&d, 1);
        let is_root = d.comm.my_index == d.root;
        let data = if is_root {
            self.effective_read(image.clone(), nbytes)
        } else {
            Vec::new()
        };
        let large = nbytes >= BCAST_LARGE_THRESHOLD;
        let payload = self.exchange(
            &d,
            Call::Bcast {
                root: d.root,
                data,
                large,
            },
        );
        if !is_root {
            if payload.len() > nbytes {
                self.fatal(MpiError::Truncate);
            }
            if payload.len() < nbytes {
                self.fatal(MpiError::Protocol);
            }
        }
        let image = RecvImage {
            user_len: image.len(),
            bytes: Some(image),
        };
        self.writeback(buf, image, payload);
    }

    /// `MPI_Reduce`: element-wise reduce `send` onto `recv` at `root`.
    /// `recv` is only meaningful at the root (as in MPI) but must be the
    /// same length everywhere.
    #[track_caller]
    pub fn reduce<T: MpiType>(
        &mut self,
        send: &[T],
        recv: &mut [T],
        op: ReduceOp,
        root: usize,
        comm: CommHandle,
    ) {
        let site = caller_site();
        let (mut simg, mut rimg) = self.images(send, recv);
        let mut params = CollParams::simple(send.len(), T::DTYPE, op, root, comm);
        let d = self.pre_coll(
            CollKind::Reduce,
            site,
            &mut params,
            Some(&mut simg),
            rimg.bytes.as_mut(),
        );
        let nbytes = self.nbytes(&d, 1);
        let contrib = self.effective_read(simg, nbytes);
        let (op, root) = (d.op, d.root);
        let res = self.exchange(&d, Call::Reduce { op, root, contrib });
        self.writeback(recv, rimg, res);
    }

    /// `MPI_Allreduce`.
    #[track_caller]
    pub fn allreduce<T: MpiType>(
        &mut self,
        send: &[T],
        recv: &mut [T],
        op: ReduceOp,
        comm: CommHandle,
    ) {
        let site = caller_site();
        let (mut simg, mut rimg) = self.images(send, recv);
        let mut params = CollParams::simple(send.len(), T::DTYPE, op, 0, comm);
        let d = self.pre_coll(
            CollKind::Allreduce,
            site,
            &mut params,
            Some(&mut simg),
            rimg.bytes.as_mut(),
        );
        let nbytes = self.nbytes(&d, 1);
        let contrib = self.effective_read(simg, nbytes);
        let large = nbytes >= ALLREDUCE_LARGE_THRESHOLD;
        let res = self.exchange(
            &d,
            Call::Allreduce {
                op: d.op,
                contrib,
                large,
            },
        );
        self.writeback(recv, rimg, res);
    }

    /// Scalar-convenience allreduce.
    #[track_caller]
    pub fn allreduce_one<T: MpiType>(&mut self, value: T, op: ReduceOp, comm: CommHandle) -> T {
        let send = [value];
        let mut recv = [T::default()];
        // Forward the *caller's* site so convenience wrappers don't collapse
        // all call sites into this line.
        self.allreduce(&send, &mut recv, op, comm);
        recv[0]
    }

    /// `MPI_Scatter`: root distributes equal chunks of `send` (length
    /// `count * comm_size` at the root); every rank receives `recv.len()`
    /// elements.
    #[track_caller]
    pub fn scatter<T: MpiType>(
        &mut self,
        send: &[T],
        recv: &mut [T],
        root: usize,
        comm: CommHandle,
    ) {
        let site = caller_site();
        let (mut simg, mut rimg) = self.images(send, recv);
        let mut params = CollParams::simple(recv.len(), T::DTYPE, ReduceOp::Sum, root, comm);
        let d = self.pre_coll(
            CollKind::Scatter,
            site,
            &mut params,
            Some(&mut simg),
            rimg.bytes.as_mut(),
        );
        let chunk = self.nbytes(&d, 1);
        let data = if d.comm.my_index == d.root {
            Some(self.effective_read(simg, chunk * d.comm.size()))
        } else {
            None
        };
        let mine = self.exchange(
            &d,
            Call::Scatter {
                root: d.root,
                data,
                chunk,
            },
        );
        self.writeback(recv, rimg, mine);
    }

    /// `MPI_Gather`: every rank contributes `send`; the root's `recv` must
    /// hold `send.len() * comm_size` elements.
    #[track_caller]
    pub fn gather<T: MpiType>(
        &mut self,
        send: &[T],
        recv: &mut [T],
        root: usize,
        comm: CommHandle,
    ) {
        let site = caller_site();
        let (mut simg, mut rimg) = self.images(send, recv);
        let mut params = CollParams::simple(send.len(), T::DTYPE, ReduceOp::Sum, root, comm);
        let d = self.pre_coll(
            CollKind::Gather,
            site,
            &mut params,
            Some(&mut simg),
            rimg.bytes.as_mut(),
        );
        let chunk = self.nbytes(&d, 1);
        let contrib = self.effective_read(simg, chunk);
        let all = self.exchange(
            &d,
            Call::Gather {
                root: d.root,
                contrib,
            },
        );
        self.writeback(recv, rimg, all);
    }

    /// `MPI_Allgather`: all ranks receive every rank's `send`, concatenated.
    #[track_caller]
    pub fn allgather<T: MpiType>(&mut self, send: &[T], recv: &mut [T], comm: CommHandle) {
        let site = caller_site();
        let (mut simg, mut rimg) = self.images(send, recv);
        let mut params = CollParams::simple(send.len(), T::DTYPE, ReduceOp::Sum, 0, comm);
        let d = self.pre_coll(
            CollKind::Allgather,
            site,
            &mut params,
            Some(&mut simg),
            rimg.bytes.as_mut(),
        );
        let chunk = self.nbytes(&d, 1);
        let contrib = self.effective_read(simg, chunk);
        let all = self.exchange(&d, Call::Allgather { contrib });
        self.writeback(recv, rimg, all);
    }

    /// `MPI_Alltoall`: `send` holds one `count`-element block per rank;
    /// block `i` is delivered to rank `i`.
    #[track_caller]
    pub fn alltoall<T: MpiType>(&mut self, send: &[T], recv: &mut [T], comm: CommHandle) {
        let site = caller_site();
        let (mut simg, mut rimg) = self.images(send, recv);
        let n0 = self.comm_size(comm).max(1);
        let count = send.len() / n0;
        let mut params = CollParams::simple(count, T::DTYPE, ReduceOp::Sum, 0, comm);
        let d = self.pre_coll(
            CollKind::Alltoall,
            site,
            &mut params,
            Some(&mut simg),
            rimg.bytes.as_mut(),
        );
        let chunk = self.nbytes(&d, 1);
        let data = self.effective_read(simg, chunk * d.comm.size());
        let out = self.exchange(&d, Call::Alltoall { data, chunk });
        self.writeback(recv, rimg, out);
    }

    /// `MPI_Alltoallv` with per-peer counts/displacements in elements.
    #[allow(clippy::too_many_arguments)]
    #[track_caller]
    pub fn alltoallv<T: MpiType>(
        &mut self,
        send: &[T],
        send_counts: &[i32],
        send_displs: &[i32],
        recv: &mut [T],
        recv_counts: &[i32],
        recv_displs: &[i32],
        comm: CommHandle,
    ) {
        let site = caller_site();
        let (mut simg, mut rimg) = self.images(send, recv);
        let avg = if send_counts.is_empty() {
            0
        } else {
            send_counts.iter().map(|&c| c as i64).sum::<i64>() / send_counts.len() as i64
        };
        let mut params = CollParams {
            count: avg as i32,
            dtype: T::DTYPE.handle(),
            op: ReduceOp::Sum.handle(),
            root: 0,
            comm: comm.0,
            send_counts: Some(send_counts.to_vec()),
            send_displs: Some(send_displs.to_vec()),
            recv_counts: Some(recv_counts.to_vec()),
            recv_displs: Some(recv_displs.to_vec()),
        };
        let d = self.pre_coll(
            CollKind::Alltoallv,
            site,
            &mut params,
            Some(&mut simg),
            rimg.bytes.as_mut(),
        );
        let w = d.dtype.size();
        let to_bytes = |v: &Option<Vec<i32>>| -> Vec<usize> {
            v.as_ref()
                .map(|v| {
                    v.iter()
                        .map(|&c| {
                            if c < 0 {
                                self.fatal(MpiError::Count)
                            } else {
                                c as usize * w
                            }
                        })
                        .collect()
                })
                .unwrap_or_default()
        };
        let sc = to_bytes(&params.send_counts);
        let sd = to_bytes(&params.send_displs);
        let rc = to_bytes(&params.recv_counts);
        let rd = to_bytes(&params.recv_displs);
        // Page-slack check on the furthest read the counts imply.
        let max_read = sc
            .iter()
            .zip(&sd)
            .map(|(c, disp)| c + disp)
            .max()
            .unwrap_or(0);
        if max_read > simg.len() + PAGE_SLACK {
            Self::segfault(format!(
                "alltoallv read of {} bytes past a {}-byte buffer",
                max_read - simg.len(),
                simg.len()
            ));
        }
        // And on the furthest write: a receive window beyond the user's
        // buffer is a write overflow (checked up front so the intermediate
        // buffer can never be absurdly large either).
        let max_write = rc
            .iter()
            .zip(&rd)
            .map(|(c, disp)| c + disp)
            .max()
            .unwrap_or(0);
        if max_write > rimg.len() + PAGE_SLACK {
            Self::segfault(format!(
                "alltoallv write of {} bytes past a {}-byte buffer",
                max_write - rimg.len(),
                rimg.len()
            ));
        }
        let out = self.exchange(
            &d,
            Call::Alltoallv {
                data: simg,
                send_counts: sc,
                send_displs: sd,
                recv_counts: rc,
                recv_displs: rd,
            },
        );
        self.writeback(recv, rimg, out);
    }

    /// `MPI_Scan`: inclusive prefix reduction; rank `i` receives
    /// `op(send_0, ..., send_i)`.
    #[track_caller]
    pub fn scan<T: MpiType>(&mut self, send: &[T], recv: &mut [T], op: ReduceOp, comm: CommHandle) {
        let site = caller_site();
        let (mut simg, mut rimg) = self.images(send, recv);
        let mut params = CollParams::simple(send.len(), T::DTYPE, op, 0, comm);
        let d = self.pre_coll(
            CollKind::Scan,
            site,
            &mut params,
            Some(&mut simg),
            rimg.bytes.as_mut(),
        );
        let nbytes = self.nbytes(&d, 1);
        let contrib = self.effective_read(simg, nbytes);
        let res = self.exchange(&d, Call::Scan { op: d.op, contrib });
        self.writeback(recv, rimg, res);
    }

    /// `MPI_Exscan`: exclusive prefix reduction; rank 0's receive buffer
    /// keeps its input.
    #[track_caller]
    pub fn exscan<T: MpiType>(
        &mut self,
        send: &[T],
        recv: &mut [T],
        op: ReduceOp,
        comm: CommHandle,
    ) {
        let site = caller_site();
        let (mut simg, mut rimg) = self.images(send, recv);
        let mut params = CollParams::simple(send.len(), T::DTYPE, op, 0, comm);
        let d = self.pre_coll(
            CollKind::Exscan,
            site,
            &mut params,
            Some(&mut simg),
            rimg.bytes.as_mut(),
        );
        let nbytes = self.nbytes(&d, 1);
        let contrib = self.effective_read(simg, nbytes);
        let res = self.exchange(&d, Call::Exscan { op: d.op, contrib });
        self.writeback(recv, rimg, res);
    }

    /// `MPI_Reduce_scatter_block`: reduce an `n·count`-element vector and
    /// scatter `count`-element blocks; `recv.len()` is the block size.
    #[track_caller]
    pub fn reduce_scatter_block<T: MpiType>(
        &mut self,
        send: &[T],
        recv: &mut [T],
        op: ReduceOp,
        comm: CommHandle,
    ) {
        let site = caller_site();
        let (mut simg, mut rimg) = self.images(send, recv);
        let mut params = CollParams::simple(recv.len(), T::DTYPE, op, 0, comm);
        let d = self.pre_coll(
            CollKind::ReduceScatter,
            site,
            &mut params,
            Some(&mut simg),
            rimg.bytes.as_mut(),
        );
        let block = self.nbytes(&d, 1);
        let data = self.effective_read(simg, block * d.comm.size());
        let res = self.exchange(
            &d,
            Call::ReduceScatter {
                op: d.op,
                data,
                block,
            },
        );
        self.writeback(recv, rimg, res);
    }

    /// `MPI_Scatterv`: the root distributes `counts[i]` elements starting
    /// at `displs[i]` to rank `i`; `recv.len()` must equal `counts[me]`.
    #[track_caller]
    pub fn scatterv<T: MpiType>(
        &mut self,
        send: &[T],
        counts: &[i32],
        displs: &[i32],
        recv: &mut [T],
        root: usize,
        comm: CommHandle,
    ) {
        let site = caller_site();
        let (mut simg, mut rimg) = self.images(send, recv);
        let mut params = CollParams::simple(recv.len(), T::DTYPE, ReduceOp::Sum, root, comm);
        params.send_counts = Some(counts.to_vec());
        params.send_displs = Some(displs.to_vec());
        let d = self.pre_coll(
            CollKind::Scatterv,
            site,
            &mut params,
            Some(&mut simg),
            rimg.bytes.as_mut(),
        );
        let (vc, vd) = self.decode_vbytes(&d, &params, simg.len());
        let me = d.comm.my_index;
        let my_count = vc.get(me).copied().unwrap_or(0);
        if my_count > rimg.len() + PAGE_SLACK {
            Self::segfault("scatterv receive window past the buffer");
        }
        let data = (me == d.root).then_some(simg);
        let call = Call::Scatterv {
            root: d.root,
            data,
            counts: vc,
            displs: vd,
            mine: my_count,
        };
        let mine = self.exchange(&d, call);
        self.writeback(recv, rimg, mine);
    }

    /// `MPI_Gatherv`: the root places rank `i`'s `counts[i]` elements at
    /// `displs[i]` in `recv`.
    #[track_caller]
    pub fn gatherv<T: MpiType>(
        &mut self,
        send: &[T],
        recv: &mut [T],
        counts: &[i32],
        displs: &[i32],
        root: usize,
        comm: CommHandle,
    ) {
        let site = caller_site();
        let (mut simg, mut rimg) = self.images(send, recv);
        let mut params = CollParams::simple(send.len(), T::DTYPE, ReduceOp::Sum, root, comm);
        params.send_counts = Some(counts.to_vec());
        params.send_displs = Some(displs.to_vec());
        let d = self.pre_coll(
            CollKind::Gatherv,
            site,
            &mut params,
            Some(&mut simg),
            rimg.bytes.as_mut(),
        );
        let (vc, vd) = self.decode_vbytes(&d, &params, simg.len());
        let me = d.comm.my_index;
        if me == d.root {
            let max_write = vc.iter().zip(&vd).map(|(c, dd)| c + dd).max().unwrap_or(0);
            if max_write > rimg.len() + PAGE_SLACK {
                Self::segfault("gatherv write window past the buffer");
            }
        }
        let contrib = self.effective_read(simg, vc.get(me).copied().unwrap_or(0));
        let call = Call::Gatherv {
            root: d.root,
            contrib,
            counts: vc,
            displs: vd,
        };
        let all = self.exchange(&d, call);
        self.writeback(recv, rimg, all);
    }

    /// `MPI_Allgatherv`: every rank receives every rank's `counts[i]`
    /// elements at `displs[i]`.
    #[track_caller]
    pub fn allgatherv<T: MpiType>(
        &mut self,
        send: &[T],
        recv: &mut [T],
        counts: &[i32],
        displs: &[i32],
        comm: CommHandle,
    ) {
        let site = caller_site();
        let (mut simg, mut rimg) = self.images(send, recv);
        let mut params = CollParams::simple(send.len(), T::DTYPE, ReduceOp::Sum, 0, comm);
        params.send_counts = Some(counts.to_vec());
        params.send_displs = Some(displs.to_vec());
        let d = self.pre_coll(
            CollKind::Allgatherv,
            site,
            &mut params,
            Some(&mut simg),
            rimg.bytes.as_mut(),
        );
        let (vc, vd) = self.decode_vbytes(&d, &params, simg.len());
        let max_write = vc.iter().zip(&vd).map(|(c, dd)| c + dd).max().unwrap_or(0);
        if max_write > rimg.len() + PAGE_SLACK {
            Self::segfault("allgatherv write window past the buffer");
        }
        let mine = vc.get(d.comm.my_index).copied().unwrap_or(0);
        let contrib = self.effective_read(simg, mine);
        let call = Call::Allgatherv {
            contrib,
            counts: vc,
            displs: vd,
        };
        let all = self.exchange(&d, call);
        self.writeback(recv, rimg, all);
    }

    /// Decode the (possibly corrupted) per-peer count/displacement vectors
    /// of a v-collective into byte units, with MPI-style validation and a
    /// page-slack read check against the send image.
    fn decode_vbytes(
        &self,
        d: &Decoded,
        params: &CollParams,
        simg_len: usize,
    ) -> (Vec<usize>, Vec<usize>) {
        let w = d.dtype.size();
        let to_bytes = |v: &Option<Vec<i32>>| -> Vec<usize> {
            v.as_ref()
                .map(|v| {
                    v.iter()
                        .map(|&c| {
                            if c < 0 {
                                self.fatal(MpiError::Count)
                            } else {
                                c as usize * w
                            }
                        })
                        .collect()
                })
                .unwrap_or_default()
        };
        let vc = to_bytes(&params.send_counts);
        let vd = to_bytes(&params.send_displs);
        if vc.len() != d.comm.size() || vd.len() != d.comm.size() {
            self.fatal(MpiError::Arg);
        }
        let max_read = vc.iter().zip(&vd).map(|(c, dd)| c + dd).max().unwrap_or(0);
        if max_read > simg_len + PAGE_SLACK && d.comm.my_index == d.root {
            Self::segfault("v-collective read window past the buffer");
        }
        (vc, vd)
    }

    // ----- internals -----

    /// Steps 2–4 of the pipeline: record, hook, validate, decode.
    fn pre_coll(
        &mut self,
        kind: CollKind,
        site: CallSite,
        params: &mut CollParams,
        sendbuf: Option<&mut Vec<u8>>,
        recvbuf: Option<&mut Vec<u8>>,
    ) -> Decoded {
        self.ctl.check();
        self.ctl.note_op(self.rank);
        let bytes = sendbuf.as_ref().map(|b| b.len()).unwrap_or(0);
        let invocation = {
            let e = self.site_counts.entry(site).or_insert(0);
            let v = *e;
            *e += 1;
            v
        };
        if self.recording {
            let (comm_size, is_root, seq) = match self.comms.get(CommHandle(params.comm)) {
                Ok(c) => (
                    c.size(),
                    kind.is_rooted() && c.my_index as i32 == params.root,
                    c.seq,
                ),
                Err(_) => (0, false, 0),
            };
            self.records.push(CallRecord {
                site,
                kind,
                invocation,
                comm_code: params.comm,
                seq,
                comm_size,
                count: params.count,
                root: params.root,
                is_root,
                phase: self.phase,
                errhdl: self.in_errhdl(),
                stack: self.frames.clone(),
                bytes,
            });
        }
        let mut msg_fault = None;
        let mut rank_fault = None;
        self.heal = Heal::No;
        let hook = self.hook.clone();
        if let Some(hook) = &hook {
            // The recorded anchor call, entered clean, is the one call whose
            // flip this rank can heal from: keep what a by-value flip
            // would change.
            let by_value = self.at_anchor_clean(params).then(|| params.clone());
            let mut call = CollCall {
                kind,
                site,
                invocation,
                rank: self.rank,
                params,
                sendbuf,
                recvbuf,
                corrupted: false,
                msg_fault: None,
                rank_fault: None,
            };
            hook.before(&mut call);
            msg_fault = call.msg_fault;
            rank_fault = call.rank_fault;
            // The hook acted. (Still ahead of `bump_seq`, so an action on a
            // call this rank would replay finds it in its prefix and ends
            // the job as diverged.) A message plan leaves this rank's own
            // memory alone and taints only the wire copy it hits; anything
            // else ends the rank's fault-free past here — for good, unless
            // all the hook changed is a buffer image of that anchor call:
            // a count, datatype, op, root or communicator flip changes
            // which messages exist, an image flip only what they carry.
            if call.corrupted || rank_fault.is_some() {
                self.fabric.taint(self.rank, &self.ctl);
                if rank_fault.is_none() && by_value.is_some_and(|p| p == *params) {
                    self.heal = Heal::Pending;
                }
            } else if msg_fault.is_some() {
                self.fabric.guard_prefix(self.rank, &self.ctl);
            }
        }
        // Rank faults act at the collective entry, before any validation or
        // traffic: a crash-stop rank dies without sending a byte (survivors
        // drain via the fail-stop sweep), a fail-slow rank stalls for a
        // bounded delay and then proceeds normally.
        match rank_fault {
            Some(RankFaultPlan::CrashStop) => {
                Self::segfault("injected crash-stop rank fault");
            }
            Some(RankFaultPlan::FailSlow { millis }) => {
                // Delays only this rank: a plain sleep on a rank thread, a
                // timer on the job clock on the coop engine (the other
                // ranks keep the carrier busy while this one slumbers).
                crate::sched::rank_sleep(&self.fabric, std::time::Duration::from_millis(millis));
            }
            _ => {}
        }
        self.ctl.check();

        // Validation, in the order an error-checking MPI build performs it.
        let comm_handle = CommHandle(params.comm);
        let (comm, seq) = self.bump_seq(comm_handle); // MPI_ERR_COMM
        if params.count < 0 {
            self.fatal(MpiError::Count);
        }
        let dtype = match Datatype::from_handle(params.dtype) {
            Ok(d) => d,
            Err(e) => self.fatal(e),
        };
        let op = match ReduceOp::from_handle(params.op) {
            Ok(o) => o,
            Err(e) => self.fatal(e),
        };
        if params.root < 0 || params.root as usize >= comm.size() {
            self.fatal(MpiError::Root);
        }
        // Arm the message fault only after validation: its scope is this
        // invocation's `(comm, seq)` tag namespace. `exchange` disarms it
        // on the way out of the call.
        if let Some(plan) = msg_fault {
            self.fabric.arm(self.rank, comm.handle.0, seq, plan);
        }
        // A partition is armed with the same post-validation `(comm, seq)`
        // scope. Every rank reaches this point with the *same* seq for the
        // same collective (per-communicator sequence numbers are SPMD-
        // deterministic), so each rank arms before any of its own scoped
        // sends — the dropped set is schedule-independent.
        if let Some(RankFaultPlan::Partition {
            cut_draw,
            sticky,
            heal_after,
        }) = rank_fault
        {
            self.fabric
                .arm_partition(self.rank, comm.handle.0, seq, cut_draw, sticky, heal_after);
        }
        // Whatever this entry opened — a taint, a plan — is open by now:
        // the hook's own item may close.
        if self.hook_open && hook.is_some_and(|h| h.spent(self.rank)) {
            self.hook_open = false;
            self.fabric.closed(&self.ctl);
        }
        Decoded {
            comm,
            seq,
            dtype,
            op,
            root: params.root as usize,
            count: params.count as usize,
            armed: msg_fault.is_some(),
        }
    }

    /// Whether the call `params` describes is the recorded run's anchor
    /// call — the `(communicator, seq)` this job's prefix ends at — and
    /// this rank enters it untainted.
    fn at_anchor_clean(&self, params: &CollParams) -> bool {
        self.replay.as_ref().is_some_and(|r| {
            params.comm == r.comm
                && self
                    .comms
                    .get(CommHandle(r.comm))
                    .is_ok_and(|c| c.seq == r.seq)
        }) && !self.fabric.is_tainted(self.rank)
    }

    /// Step 5 of the pipeline, and the only caller of the collective
    /// algorithms from the public collectives: run `alg` — or, for a call
    /// ahead of the trial's anchor that the recorded run has an entry for,
    /// return that entry and touch the fabric not at all. A recorded run
    /// stores what `alg` returned under the call's `(communicator, seq)`.
    ///
    /// In a job no fault can reach, a data-movement call completes by
    /// rendezvous instead of messages ([`rendezvous`]): the same result,
    /// or, where some receive would not get exactly the bytes it expects,
    /// the algorithm after all.
    ///
    /// Whether a call is replayed depends on the shared log and the anchor
    /// alone, so every participant decides alike; a rank the fault has
    /// touched never gets here with a call to replay (the fabric's taint
    /// guard has ended the job as diverged).
    ///
    /// The log serves a second time on the way out. No application code
    /// runs inside `alg`, so taint this rank takes in there came through
    /// this call's own messages and reaches the application only as the
    /// call's result: a rank that entered clean and leaves with the
    /// recorded result is clean again (what it sent meanwhile went out
    /// marked). Its own hook's image flip ([`Heal::Pending`]) is held to
    /// the same comparison, and then to `writeback`'s.
    fn exchange(&mut self, d: &Decoded, alg: Call) -> Vec<u8> {
        let (comm, seq) = (d.comm.handle.0, d.seq);
        if let Some(replay) = &self.replay {
            if comm == replay.comm && seq < replay.seq {
                if let Some(recorded) = replay.log.result(self.rank, comm, seq) {
                    self.replayed += 1;
                    return recorded.map(<[u8]>::to_vec).unwrap_or_default();
                }
            }
        }
        let provisional = self.replay.is_some()
            && (self.heal == Heal::Pending || !self.fabric.is_tainted(self.rank));
        let env = self.env(d);
        let result = if self.rendezvous && rendezvous::admits(&alg) {
            rendezvous::exchange(&env, alg)
        } else {
            alg.run(&env)
        };
        if d.armed {
            self.fabric.disarm(self.rank, &self.ctl);
        }
        if provisional && self.fabric.is_tainted(self.rank) {
            let recorded = self
                .replay
                .as_ref()
                .and_then(|r| r.log.result(self.rank, comm, seq));
            if recorded == Some(result.as_deref()) {
                if self.heal == Heal::Pending {
                    self.heal = Heal::AtWriteback;
                } else {
                    self.fabric.untaint(self.rank, &self.ctl);
                }
            }
        }
        if self.recording {
            self.results.push((comm, seq, result.clone()));
        }
        // A rank the algorithm hands nothing writes nothing back.
        result.unwrap_or_default()
    }

    fn env<'a>(&'a self, d: &'a Decoded) -> CollEnv<'a> {
        CollEnv {
            fabric: &self.fabric,
            ctl: &self.ctl,
            comm: &d.comm,
            seq: d.seq,
            round_off: 0,
            dtype: d.dtype,
        }
    }

    /// Bytes implied by the decoded count/datatype (`mult` = extra factor,
    /// e.g. the communicator size for scatter's root image).
    fn nbytes(&self, d: &Decoded, mult: usize) -> usize {
        d.count
            .checked_mul(d.dtype.size())
            .and_then(|b| b.checked_mul(mult))
            .unwrap_or_else(|| Self::segfault("count overflow"))
    }

    /// Read `nbytes` from a user-buffer image under the page-slack model,
    /// reusing the image's allocation.
    fn effective_read(&self, mut image: Vec<u8>, nbytes: usize) -> Vec<u8> {
        if nbytes <= image.len() {
            image.truncate(nbytes);
            image
        } else if nbytes <= image.len() + PAGE_SLACK {
            image.resize(nbytes, 0xAA);
            image
        } else {
            Self::segfault(format!(
                "read of {} bytes from a {}-byte buffer",
                nbytes,
                image.len()
            ))
        }
    }

    /// The byte images of a collective's send and receive buffers (the
    /// receive image serialized only for a hook to see, see
    /// [`RecvImage`]).
    fn images<T: MpiType>(&self, send: &[T], recv: &[T]) -> (Vec<u8>, RecvImage) {
        let mut simg = Vec::new();
        T::write_bytes(send, &mut simg);
        let bytes = self.hook.as_ref().map(|_| {
            let mut rimg = Vec::new();
            T::write_bytes(recv, &mut rimg);
            rimg
        });
        let user_len = recv.len() * T::DTYPE.size();
        (simg, RecvImage { user_len, bytes })
    }

    /// Overlay `result` onto the (possibly hook-corrupted) receive image
    /// and deserialize back into the user buffer. A result longer than the
    /// buffer is a write overflow — a segmentation fault.
    ///
    /// This is also where a rank whose hook flipped a buffer image of the
    /// anchor call, and whose call then returned the recorded result
    /// ([`Heal::AtWriteback`]), learns whether the flip is gone: a send
    /// image is a copy the call consumed and never comes back here; of
    /// the image that does, the overlay rewrites the result's length and
    /// the rest lands in the user's buffer as it is. The rank is clean
    /// again iff that rest is what the user's buffer already holds.
    fn writeback<T: MpiType>(&mut self, user: &mut [T], image: RecvImage, result: Vec<u8>) {
        if result.len() > image.len() {
            Self::segfault(format!(
                "write of {} bytes into a {}-byte buffer",
                result.len(),
                image.len()
            ));
        }
        let Some(mut image) = image.bytes else {
            // No hook, so no image: it would be the user's buffer as it
            // stands, and the overlay can go straight there.
            overlay(user, &result);
            return;
        };
        if self.heal == Heal::AtWriteback {
            let mut unflipped = Vec::with_capacity(image.len());
            T::write_bytes(user, &mut unflipped);
            if unflipped.get(result.len()..) == image.get(result.len()..) {
                self.fabric.untaint(self.rank, &self.ctl);
            }
        }
        image[..result.len()].copy_from_slice(&result);
        T::read_bytes(&image, user);
    }
}

/// Overwrite the first `bytes.len()` bytes of `user`'s byte image with
/// `bytes`; an element they end inside keeps the rest of its bytes.
fn overlay<T: MpiType>(user: &mut [T], bytes: &[u8]) {
    let w = T::DTYPE.size();
    let whole = bytes.len() / w;
    T::read_bytes(bytes, &mut user[..whole]);
    let tail = &bytes[whole * w..];
    if !tail.is_empty() {
        let elem = &mut user[whole..=whole];
        let mut buf = [0u8; 16]; // the widest datatype
        T::write_into(elem, &mut buf[..w]);
        buf[..tail.len()].copy_from_slice(tail);
        T::read_bytes(&buf[..w], elem);
    }
}

/// A collective's receive-buffer image. Nothing but a hook looks at it
/// before the result overlays it, so a job without a hook never
/// serializes one.
struct RecvImage {
    /// Bytes in the user's receive buffer.
    user_len: usize,
    /// The serialized buffer, as the hook left it.
    bytes: Option<Vec<u8>>,
}

impl RecvImage {
    /// Length of the image the result overlays.
    fn len(&self) -> usize {
        self.bytes.as_ref().map_or(self.user_len, Vec::len)
    }
}

/// A posted non-blocking receive (see [`RankCtx::irecv`]).
#[derive(Debug)]
pub struct RecvRequest<T> {
    src_global: usize,
    tag: u64,
    _elem: std::marker::PhantomData<T>,
}

/// Decoded, validated collective parameters.
struct Decoded {
    comm: Comm,
    seq: u64,
    dtype: Datatype,
    op: ReduceOp,
    root: usize,
    count: usize,
    /// `pre_coll` armed a message plan scoped to this call.
    armed: bool,
}

/// Whether the rank may turn out clean again after its own hook changed
/// the call in progress (reset at every collective entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Heal {
    /// No: the hook did not act, or changed more than a buffer image, or
    /// the call is not the recorded anchor call entered clean.
    No,
    /// The hook changed only buffer images of the anchor call; `exchange`
    /// has yet to compare the call's result with the recorded one.
    Pending,
    /// ... and the result is the recorded one; `writeback` has yet to
    /// check that nothing of the flip outlives its overlay.
    AtWriteback,
}

/// Capture the application call site.
#[track_caller]
fn caller_site() -> CallSite {
    let loc = Location::caller();
    CallSite {
        file: loc.file(),
        line: loc.line(),
    }
}
