//! The Lennard-Jones MD simulation.
//!
//! Geometry: an elongated periodic box, lattice `4·nranks × 4 × 4`, slab
//! decomposed along x so each slab is wider than the force cutoff and only
//! adjacent ranks exchange atoms and ghosts — the standard spatial
//! decomposition LAMMPS uses, at miniature scale. The force loop runs over
//! all pairs but evaluates only those that add anything (`Pairs::term`).
// Injection keys are `file:line`: adding or removing a line here moves every key below.
use simmpi::ctx::{RankCtx, RankOutput};
use simmpi::op::ReduceOp;
use simmpi::record::Phase;
use simmpi::runtime::AppFn;
use std::sync::Arc;

/// MD configuration.
#[derive(Debug, Clone)]
pub struct MdConfig {
    /// Lattice cells along y and z (atoms per rank = `cells_x_per_rank *
    /// cells_yz^2`).
    pub cells_yz: usize,
    /// Lattice cells along x per rank.
    pub cells_x_per_rank: usize,
    /// Lattice spacing.
    pub spacing: f64,
    /// Force cutoff.
    pub cutoff: f64,
    /// Time step.
    pub dt: f64,
    /// Number of steps.
    pub steps: usize,
    /// Target temperature for the stochastic thermostat.
    pub target_temp: f64,
}

impl Default for MdConfig {
    fn default() -> Self {
        MdConfig {
            cells_yz: 4,
            cells_x_per_rank: 4,
            spacing: 1.1,
            cutoff: 2.0,
            dt: 0.004,
            steps: 10,
            target_temp: 1.0,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Atom {
    pos: [f64; 3],
    vel: [f64; 3],
}

impl Atom {
    fn to_f64s(self, out: &mut Vec<f64>) {
        out.extend_from_slice(&self.pos);
        out.extend_from_slice(&self.vel);
    }

    fn from_f64s(v: &[f64]) -> Atom {
        Atom {
            pos: [v[0], v[1], v[2]],
            vel: [v[3], v[4], v[5]],
        }
    }
}

/// Build the minimd application closure.
pub fn md_app(cfg: MdConfig) -> AppFn {
    Arc::new(move |ctx: &mut RankCtx| run_md(ctx, &cfg))
}

struct Box3 {
    lx: f64,
    lyz: f64,
    /// My slab is `[x0, x1)`.
    x0: f64,
    x1: f64,
}

impl Box3 {
    /// Minimum image of a separation: x is handled by slab adjacency (ghosts
    /// carry shifted coords), y/z are periodic. Every axis wraps alike, so the
    /// force loop's x-first reject min-images x with [`Box3::wrap`] alone.
    fn min_image(&self, d: [f64; 3]) -> [f64; 3] {
        let period = [self.lx, self.lyz, self.lyz];
        std::array::from_fn(|k| Self::wrap(d[k], period[k]))
    }

    /// `d` moved by one period `l` toward zero when it lies beyond `l/2`.
    fn wrap(d: f64, l: f64) -> f64 {
        if d > l / 2.0 {
            d - l
        } else if d < -l / 2.0 {
            d + l
        } else {
            d
        }
    }
}

/// Lennard-Jones force magnitude / potential with a soft inner core and
/// cutoff. Returns `(f_over_r, potential)`.
fn lj(r2: f64, rc2: f64) -> (f64, f64) {
    if r2 >= rc2 {
        return (0.0, 0.0);
    }
    let r2 = r2.max(0.64); // soft core: clamp below r = 0.8
    let inv2 = 1.0 / r2;
    let inv6 = inv2 * inv2 * inv2;
    let f = 24.0 * inv2 * inv6 * (2.0 * inv6 - 1.0);
    let pe = 4.0 * inv6 * (inv6 - 1.0);
    (f, pe)
}

fn run_md(ctx: &mut RankCtx, cfg: &MdConfig) -> RankOutput {
    let nranks = ctx.size();
    let me = ctx.rank();
    let world = ctx.world();

    // --- Input: rank 0 broadcasts the run parameters ---
    ctx.set_phase(Phase::Input);
    let mut params = [0.0f64; 6];
    if me == 0 {
        params = [
            cfg.spacing,
            cfg.cutoff,
            cfg.dt,
            cfg.steps as f64,
            cfg.target_temp,
            cfg.cells_x_per_rank as f64,
        ];
    }
    ctx.frame("read_input", |ctx| ctx.bcast(&mut params, 0, world));
    // LAMMPS-style input validation: error->all on nonsense parameters.
    if !params.iter().all(|v| v.is_finite())
        || params[0] <= 0.0
        || params[0] > 1e3
        || params[1] <= 0.0
        || params[1] > 1e3
        || params[2] <= 0.0
        || params[2] > 1.0
        || params[3] < 0.0
        || params[3] > 1e6
        || params[4] < 0.0
        || params[4] > 1e6
        || params[5] < 1.0
        || params[5] > 1e4
    {
        ctx.errhdl(|_| ());
        ctx.abort(12, "minimd: invalid input parameters");
    }
    let (spacing, cutoff, dt, steps, target_temp, cx) = (
        params[0],
        params[1],
        params[2],
        params[3] as usize,
        params[4],
        params[5] as usize,
    );
    let cyz = cfg.cells_yz;
    let b = {
        let lx = spacing * (cx * nranks) as f64;
        let lyz = spacing * cyz as f64;
        let x0 = me as f64 * spacing * cx as f64;
        Box3 {
            lx,
            lyz,
            x0,
            x1: x0 + spacing * cx as f64,
        }
    };

    // --- Init: lattice + Maxwell-ish velocities ---
    ctx.set_phase(Phase::Init);
    let mut atoms: Vec<Atom> = Vec::new();
    ctx.frame("create_atoms", |ctx| {
        for i in 0..cx {
            for j in 0..cyz {
                for k in 0..cyz {
                    let jitter = 0.05 * spacing;
                    let mut a = Atom {
                        pos: [
                            b.x0 + (i as f64 + 0.5) * spacing,
                            (j as f64 + 0.5) * spacing,
                            (k as f64 + 0.5) * spacing,
                        ],
                        vel: [0.0; 3],
                    };
                    for d in 0..3 {
                        a.pos[d] += jitter * (ctx.rng().next_f64() - 0.5);
                        a.vel[d] = (target_temp).sqrt() * (ctx.rng().next_f64() - 0.5) * 2.0;
                    }
                    atoms.push(a);
                }
            }
        }
    });
    let natoms_expected = (cx * cyz * cyz * nranks) as i64;
    // Initial census of atoms per rank (MPI_Allgather, as in domain setup).
    let mut census = vec![0i64; nranks];
    ctx.frame("initial_census", |ctx| {
        ctx.allgather(&[atoms.len() as i64], &mut census, world)
    });
    // Pre-size the exchange buffers from the census (LAMMPS-style).
    let cap: i64 = census.iter().map(|&c| c.max(0)).sum();
    drop(simmpi::ctx::guarded_vec::<f64>(cap as usize * 6));
    ctx.barrier(world);

    // --- Compute: the MD loop ---
    ctx.set_phase(Phase::Compute);
    let rc2 = cutoff * cutoff;
    let right = (me + 1) % nranks;
    let left = (me + nranks - 1) % nranks;
    let mut temp_series = Vec::new();
    let mut pe_series = Vec::new();

    for step in 0..steps {
        // Migrate atoms that crossed slab borders (adjacent ranks only).
        ctx.frame("comm_atoms", |ctx| {
            let mut stay = Vec::with_capacity(atoms.len());
            let (mut go_left, mut go_right) = (Vec::new(), Vec::new());
            for a in atoms.drain(..) {
                let mut a = a;
                // Global periodic wrap in x.
                if a.pos[0] < 0.0 {
                    a.pos[0] += b.lx;
                } else if a.pos[0] >= b.lx {
                    a.pos[0] -= b.lx;
                }
                for d in 1..3 {
                    if a.pos[d] < 0.0 {
                        a.pos[d] += b.lyz;
                    } else if a.pos[d] >= b.lyz {
                        a.pos[d] -= b.lyz;
                    }
                }
                let wrapped_left = me == 0 && a.pos[0] >= b.lx - (b.x1 - b.x0);
                let wrapped_right = me == nranks - 1 && a.pos[0] < (b.x1 - b.x0);
                if (a.pos[0] < b.x0 && !wrapped_right) || wrapped_left {
                    go_left.push(a);
                } else if (a.pos[0] >= b.x1 && !wrapped_left) || wrapped_right {
                    go_right.push(a);
                } else {
                    stay.push(a);
                }
            }
            atoms = stay;
            if nranks > 1 {
                for (dir_peer_send, dir_peer_recv, outgoing, tag) in
                    [(right, left, &go_right, 41), (left, right, &go_left, 42)]
                {
                    let mut payload = Vec::with_capacity(outgoing.len() * 6);
                    for a in outgoing {
                        a.to_f64s(&mut payload);
                    }
                    let mut count_in = [0i64; 1];
                    ctx.sendrecv(
                        &[outgoing.len() as i64],
                        dir_peer_send,
                        &mut count_in,
                        dir_peer_recv,
                        tag,
                        world,
                    );
                    let mut incoming =
                        simmpi::ctx::guarded_vec::<f64>((count_in[0].max(0) as usize) * 6);
                    ctx.sendrecv(
                        &payload,
                        dir_peer_send,
                        &mut incoming,
                        dir_peer_recv,
                        tag + 2,
                        world,
                    );
                    for c in incoming.chunks_exact(6) {
                        atoms.push(Atom::from_f64s(c));
                    }
                }
            } else {
                atoms.extend(go_left);
                atoms.extend(go_right);
            }
        });

        // Ghost exchange: copies of atoms within the cutoff of a border.
        let ghosts: Vec<Atom> = ctx.frame("comm_ghosts", |ctx| {
            let mut ghosts = Vec::new();
            if nranks > 1 {
                let near_right: Vec<&Atom> =
                    atoms.iter().filter(|a| a.pos[0] >= b.x1 - cutoff).collect();
                let near_left: Vec<&Atom> =
                    atoms.iter().filter(|a| a.pos[0] < b.x0 + cutoff).collect();
                for (peer_send, peer_recv, set, tag) in
                    [(right, left, near_right, 45), (left, right, near_left, 46)]
                {
                    let mut payload = Vec::with_capacity(set.len() * 6);
                    for a in &set {
                        a.to_f64s(&mut payload);
                    }
                    let mut count_in = [0i64; 1];
                    ctx.sendrecv(
                        &[set.len() as i64],
                        peer_send,
                        &mut count_in,
                        peer_recv,
                        tag,
                        world,
                    );
                    let mut incoming =
                        simmpi::ctx::guarded_vec::<f64>((count_in[0].max(0) as usize) * 6);
                    ctx.sendrecv(
                        &payload,
                        peer_send,
                        &mut incoming,
                        peer_recv,
                        tag + 2,
                        world,
                    );
                    for c in incoming.chunks_exact(6) {
                        ghosts.push(Atom::from_f64s(c));
                    }
                }
            }
            ghosts
        });

        // Forces and potential energy.
        let mut forces = vec![[0.0f64; 3]; atoms.len()];
        let mut pe_local = 0.0;
        #[allow(clippy::needless_range_loop)]
        ctx.frame("compute_forces", |ctx| {
            let _ = ctx;
            // Only pairs that add anything are evaluated (`Pairs::term`): a
            // pair beyond the cutoff adds exact zeros, which leave every
            // accumulator as it is. The loop keeps the all-pairs order (pairs
            // `(i, j > i)` with `j` ascending, then the ghosts of `i`), so each
            // sum is bit-identical to evaluating `lj` on every pair.
            let pairs = Pairs::new(&b, rc2, &atoms, &ghosts);
            for i in 0..atoms.len() {
                for j in (i + 1)..atoms.len() {
                    if let Some((f, pe, d)) = pairs.term(&atoms[i].pos, &atoms[j].pos) {
                        for k in 0..3 {
                            forces[i][k] += f * d[k];
                            forces[j][k] -= f * d[k];
                        }
                        pe_local += pe;
                    }
                }
                for g in &ghosts {
                    if let Some((f, pe, d)) = pairs.term(&atoms[i].pos, &g.pos) {
                        for k in 0..3 {
                            forces[i][k] += f * d[k];
                        }
                        pe_local += 0.5 * pe;
                    }
                }
            }
            // Injection keys are `file:line`: this block keeps the 30 lines
            // of the loop that evaluated every pair, so no call site below it
            // moves. This file's tests hold `Pairs::term`, in this loop, to that
            // loop bit for bit; `tests/kernel_bits.rs` pins the kernel's output.
        });

        // Integration.
        #[allow(clippy::needless_range_loop)]
        ctx.frame("integrate", |ctx| {
            let _ = ctx;
            for (a, f) in atoms.iter_mut().zip(&forces) {
                for k in 0..3 {
                    a.vel[k] += dt * f[k];
                    a.pos[k] += dt * a.vel[k];
                }
            }
        });

        // Thermodynamics: kinetic + potential energy reductions.
        let (temp, pe_total) = ctx.frame("thermo", |ctx| {
            let ke_local: f64 = atoms
                .iter()
                .map(|a| 0.5 * (a.vel[0].powi(2) + a.vel[1].powi(2) + a.vel[2].powi(2)))
                .sum();
            let ke = ctx.allreduce_one(ke_local, ReduceOp::Sum, world);
            let pe = ctx.allreduce_one(pe_local, ReduceOp::Sum, world);
            let temp = 2.0 * ke / (3.0 * natoms_expected as f64);
            (temp, pe)
        });
        temp_series.push(temp);
        pe_series.push(pe_total);

        // Error handling (the paper's ErrHal collectives, LAMMPS
        // error->all analog): anomaly flag every step, count conservation
        // every other step.
        ctx.frame("check_errors", |ctx| {
            let anomaly = atoms.iter().any(|a| {
                a.pos.iter().chain(a.vel.iter()).any(|v| !v.is_finite())
                    || a.vel.iter().any(|v| v.abs() > 1e3)
            });
            let bad =
                ctx.errhdl(|ctx| ctx.allreduce_one(i32::from(anomaly), ReduceOp::Max, ctx.world()));
            if bad != 0 {
                ctx.abort(10, "minimd: atom state anomaly detected");
            }
            if step % 2 == 0 {
                let total = ctx.errhdl(|ctx| {
                    ctx.allreduce_one(atoms.len() as i64, ReduceOp::Sum, ctx.world())
                });
                if total != natoms_expected {
                    ctx.abort(11, "minimd: atom count not conserved");
                }
            }
        });

        // Stochastic (Monte-Carlo-style) velocity rescale thermostat.
        if step % 3 == 2 {
            ctx.frame("thermostat", |ctx| {
                let noise = 1.0 + 0.05 * (ctx.rng().next_f64() - 0.5);
                let lambda = if temp > 1e-12 {
                    (target_temp / temp).sqrt() * noise
                } else {
                    1.0
                };
                let lambda = lambda.clamp(0.8, 1.25);
                for a in atoms.iter_mut() {
                    for v in a.vel.iter_mut() {
                        *v *= lambda;
                    }
                }
            });
        }

        // Periodic load-balance census + step fence. As in LAMMPS, the
        // neighbour counts size the communication buffers — so a corrupted
        // census drives an oversized allocation (a crash in real life).
        if step % 5 == 4 {
            ctx.frame("census", |ctx| {
                ctx.allgather(&[atoms.len() as i64], &mut census, world)
            });
            let cap = census[right].max(0) as usize + census[left].max(0) as usize;
            let ghost_buf = simmpi::ctx::guarded_vec::<f64>(cap * 6);
            drop(ghost_buf);
            ctx.barrier(world);
        }
    }

    // --- End: final statistics ---
    ctx.set_phase(Phase::End);
    let half = temp_series.len() / 2;
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let mut out = RankOutput::new();
    out.push("md.mean_temp", mean(&temp_series[half..]));
    out.push("md.mean_pe", mean(&pe_series[half..]));
    out.push("md.final_atoms", natoms_expected as f64);
    out
}

/// The pair terms of one step's force loop, evaluated only where they add
/// anything.
///
/// A pair with `r2 >= rc2` and `r2` finite gets `lj = (0, 0)`, and every
/// separation component is finite, so each accumulation it makes adds ±0.
/// The `forces` and `pe_local` accumulators start at +0 and only ever add,
/// so they never hold −0, and adding ±0 leaves them unchanged: skipping the
/// pair is exact. An infinite `r2` is never skipped this way (its force term
/// may be `0 · inf = NaN`), nor is a NaN `r2` (it passes the soft core).
///
/// When every position of the step, atom or ghost, is finite and below
/// `f64::MAX / 4` in magnitude, no separation overflows, and a pair whose
/// min-imaged `dx` alone has `dx * dx >= rc2` is skipped before `dy` and `dz`
/// are formed: rounding is monotone, so then `r2 >= dx²`, and `r2` may be
/// infinite but not NaN, with every component finite.
struct Pairs<'a> {
    b: &'a Box3,
    rc2: f64,
    /// Whether the x-first reject is exact for this step.
    x_first: bool,
}

impl<'a> Pairs<'a> {
    fn new(b: &'a Box3, rc2: f64, atoms: &[Atom], ghosts: &[Atom]) -> Self {
        let x_first = atoms
            .iter()
            .chain(ghosts)
            .all(|a| a.pos.iter().all(|p| p.abs() < f64::MAX / 4.0));
        Pairs { b, rc2, x_first }
    }

    /// `(f_over_r, potential, separation)` of the pair at positions `p` and
    /// `q`, or `None` when every term it adds is an exact zero.
    fn term(&self, p: &[f64; 3], q: &[f64; 3]) -> Option<(f64, f64, [f64; 3])> {
        if self.x_first {
            let dx = Box3::wrap(p[0] - q[0], self.b.lx);
            if dx * dx >= self.rc2 {
                return None;
            }
        }
        let d = self.b.min_image([p[0] - q[0], p[1] - q[1], p[2] - q[2]]);
        let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
        if r2 >= self.rc2 && r2.is_finite() {
            return None;
        }
        let (f, pe) = lj(r2, self.rc2);
        Some((f, pe, d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::runtime::{run_job, JobOutcome, JobSpec};

    fn spec(n: usize) -> JobSpec {
        JobSpec {
            nranks: n,
            timeout: std::time::Duration::from_secs(30),
            ..Default::default()
        }
    }

    #[test]
    fn md_completes_with_sane_thermo() {
        let res = run_job(&spec(8), md_app(MdConfig::default()));
        match res.outcome {
            JobOutcome::Completed { outputs } => {
                let t = outputs[0].scalars[0].1;
                assert!(t.is_finite() && t > 0.0 && t < 50.0, "temp {}", t);
                assert_eq!(outputs[0].scalars[2].1, (4 * 4 * 4 * 8) as f64);
                // Reductions agree across ranks.
                assert_eq!(outputs[0].scalars[0].1, outputs[7].scalars[0].1);
            }
            other => panic!("minimd failed: {:?}", other),
        }
    }

    #[test]
    fn md_deterministic() {
        let a = run_job(&spec(4), md_app(MdConfig::default()));
        let b = run_job(&spec(4), md_app(MdConfig::default()));
        match (a.outcome, b.outcome) {
            (JobOutcome::Completed { outputs: oa }, JobOutcome::Completed { outputs: ob }) => {
                assert_eq!(oa[0].scalars, ob[0].scalars);
            }
            _ => panic!("minimd must complete"),
        }
    }

    #[test]
    fn md_single_rank() {
        let res = run_job(
            &spec(1),
            md_app(MdConfig {
                steps: 6,
                ..Default::default()
            }),
        );
        assert!(matches!(res.outcome, JobOutcome::Completed { .. }));
    }

    #[test]
    fn md_errhdl_fraction_is_large() {
        // The paper reports 40.32% of LAMMPS allreduces are error handling.
        let mut s = spec(4);
        s.record = true;
        let res = run_job(&s, md_app(MdConfig::default()));
        assert!(matches!(res.outcome, JobOutcome::Completed { .. }));
        let recs = &res.records[0];
        let allreduces: Vec<_> = recs
            .iter()
            .filter(|r| r.kind == simmpi::hook::CollKind::Allreduce)
            .collect();
        let errhdl = allreduces.iter().filter(|r| r.errhdl).count();
        let frac = errhdl as f64 / allreduces.len() as f64;
        assert!(
            (0.25..=0.6).contains(&frac),
            "errhdl fraction {} of {} allreduces",
            frac,
            allreduces.len()
        );
    }

    #[test]
    fn md_uses_the_lammps_collective_mix() {
        let mut s = spec(4);
        s.record = true;
        let res = run_job(&s, md_app(MdConfig::default()));
        assert!(matches!(res.outcome, JobOutcome::Completed { .. }));
        use simmpi::hook::CollKind::*;
        let kinds: std::collections::HashSet<_> = res.records[0].iter().map(|r| r.kind).collect();
        for k in [Allreduce, Bcast, Barrier, Allgather] {
            assert!(kinds.contains(&k), "missing {:?}", k);
        }
        // Allreduce dominates, as in LAMMPS (>84% there; here a majority).
        let n_all = res.records[0]
            .iter()
            .filter(|r| r.kind == Allreduce)
            .count();
        assert!(n_all * 2 > res.records[0].len());
    }

    /// `Box3::min_image` as it was before `Box3::wrap`, verbatim.
    #[allow(clippy::needless_range_loop)]
    fn reference_min_image(b: &Box3, mut d: [f64; 3]) -> [f64; 3] {
        for k in 1..3 {
            if d[k] > b.lyz / 2.0 {
                d[k] -= b.lyz;
            } else if d[k] < -b.lyz / 2.0 {
                d[k] += b.lyz;
            }
        }
        if d[0] > b.lx / 2.0 {
            d[0] -= b.lx;
        } else if d[0] < -b.lx / 2.0 {
            d[0] += b.lx;
        }
        d
    }

    /// The force loop that evaluated every pair, verbatim.
    #[allow(clippy::needless_range_loop)]
    fn reference_forces(
        b: &Box3,
        rc2: f64,
        atoms: &[Atom],
        ghosts: &[Atom],
    ) -> (Vec<[f64; 3]>, f64) {
        let mut forces = vec![[0.0f64; 3]; atoms.len()];
        let mut pe_local = 0.0;
        for i in 0..atoms.len() {
            for j in (i + 1)..atoms.len() {
                let mut d = [0.0; 3];
                for k in 0..3 {
                    d[k] = atoms[i].pos[k] - atoms[j].pos[k];
                }
                let d = reference_min_image(b, d);
                let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                let (f, pe) = lj(r2, rc2);
                for k in 0..3 {
                    forces[i][k] += f * d[k];
                    forces[j][k] -= f * d[k];
                }
                pe_local += pe;
            }
            for g in ghosts {
                let mut d = [0.0; 3];
                for k in 0..3 {
                    d[k] = atoms[i].pos[k] - g.pos[k];
                }
                let d = reference_min_image(b, d);
                let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                let (f, pe) = lj(r2, rc2);
                for k in 0..3 {
                    forces[i][k] += f * d[k];
                }
                pe_local += 0.5 * pe;
            }
        }
        (forces, pe_local)
    }

    /// `run_md`'s `compute_forces` loop as written there, over `Pairs::term`.
    #[allow(clippy::needless_range_loop)]
    fn pair_forces(b: &Box3, rc2: f64, atoms: &[Atom], ghosts: &[Atom]) -> (Vec<[f64; 3]>, f64) {
        let mut forces = vec![[0.0f64; 3]; atoms.len()];
        let mut pe_local = 0.0;
        let pairs = Pairs::new(b, rc2, atoms, ghosts);
        for i in 0..atoms.len() {
            for j in (i + 1)..atoms.len() {
                if let Some((f, pe, d)) = pairs.term(&atoms[i].pos, &atoms[j].pos) {
                    for k in 0..3 {
                        forces[i][k] += f * d[k];
                        forces[j][k] -= f * d[k];
                    }
                    pe_local += pe;
                }
            }
            for g in ghosts {
                if let Some((f, pe, d)) = pairs.term(&atoms[i].pos, &g.pos) {
                    for k in 0..3 {
                        forces[i][k] += f * d[k];
                    }
                    pe_local += 0.5 * pe;
                }
            }
        }
        (forces, pe_local)
    }

    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// The default configuration's slab of rank 0 on 4 ranks.
    fn slab() -> (Box3, f64) {
        let b = Box3 {
            lx: 1.1 * 16.0,
            lyz: 1.1 * 4.0,
            x0: 0.0,
            x1: 1.1 * 4.0,
        };
        (b, 2.0 * 2.0)
    }

    fn atom(pos: [f64; 3]) -> Atom {
        Atom { pos, vel: [0.0; 3] }
    }

    /// A jittered 4 × 4 × 4 lattice starting at `x0`, as `create_atoms` lays it.
    fn lattice(x0: f64, rng: &mut prng::Prng) -> Vec<Atom> {
        let mut atoms = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                for k in 0..4 {
                    let cell = [x0 + i as f64 + 0.5, j as f64 + 0.5, k as f64 + 0.5];
                    atoms.push(atom(cell.map(|c| c * 1.1 + 0.055 * (rng.next_f64() - 0.5))));
                }
            }
        }
        atoms
    }

    /// Holds `pair_forces` to `reference_forces` bit for bit; returns
    /// whether the x-first reject was on.
    fn assert_pairs_exact(atoms: &[Atom], ghosts: &[Atom], what: &str) -> bool {
        let (b, rc2) = slab();
        let (old_f, old_pe) = reference_forces(&b, rc2, atoms, ghosts);
        let (new_f, new_pe) = pair_forces(&b, rc2, atoms, ghosts);
        for (i, (n, o)) in new_f.iter().zip(&old_f).enumerate() {
            for k in 0..3 {
                assert!(
                    same_bits(n[k], o[k]),
                    "{what}: force[{i}][{k}] is {}, the every-pair loop gives {}",
                    n[k],
                    o[k]
                );
            }
        }
        assert!(
            same_bits(new_pe, old_pe),
            "{what}: pe {new_pe}, the every-pair loop gives {old_pe}"
        );
        Pairs::new(&b, rc2, atoms, ghosts).x_first
    }

    #[test]
    fn skipping_pairs_beyond_the_cutoff_is_exact() {
        let mut rng = prng::Prng::seed_from_u64(52);
        let atoms = lattice(0.0, &mut rng);
        let mut ghosts = lattice(-4.0, &mut rng);
        ghosts.extend(lattice(4.0, &mut rng));
        assert!(assert_pairs_exact(&atoms, &ghosts, "lattice"));

        // Pairs exactly at the cutoff, along each axis, a ghost there, and
        // a pair just inside it.
        let at_cutoff = [
            atom([0.5, 0.5, 0.5]),
            atom([-1.495, 0.5, 0.5]),
            atom([2.5, 0.5, 0.5]),
            atom([0.5, 2.5, 0.5]),
            atom([0.5, 0.5, 2.5]),
            atom([2.5, 2.5, 0.5]),
        ];
        assert!(assert_pairs_exact(
            &at_cutoff,
            &[atom([-1.5, 0.5, 0.5])],
            "at the cutoff"
        ));

        // dx² overflows: the x-first reject stays on and skips the pair.
        for far in [
            [1e200, 1.0, 1.0],
            [1.0, 1e200, 1.0],
            [-1e200, -1e200, 1e200],
        ] {
            let mut set = atoms.clone();
            set[5].pos = far;
            assert!(assert_pairs_exact(&set, &ghosts, &format!("{far:?}")));
        }
    }

    #[test]
    fn non_finite_and_overflowing_positions_switch_the_x_first_reject_off() {
        let mut rng = prng::Prng::seed_from_u64(53);
        let atoms = lattice(0.0, &mut rng);
        let ghosts = lattice(4.0, &mut rng);
        for (k, v) in [
            (0, f64::NAN),
            (1, f64::NAN),
            (0, f64::INFINITY),
            (2, f64::NEG_INFINITY),
            (0, 1.5e308),
            (1, -1.5e308),
        ] {
            for in_ghost in [false, true] {
                let (mut a, mut g) = (atoms.clone(), ghosts.clone());
                let target = if in_ghost { &mut g[3] } else { &mut a[7] };
                target.pos[k] = v;
                let what = format!("pos[{k}] = {v}, ghost {in_ghost}");
                assert!(!assert_pairs_exact(&a, &g, &what), "{what}");
            }
        }
        // A separation that overflows to inf: `0 · inf` makes the force NaN.
        let (mut a, mut g) = (atoms.clone(), ghosts.clone());
        a[0].pos[0] = 1.5e308;
        g[0].pos[0] = -1.5e308;
        assert!(!assert_pairs_exact(&a, &g, "overflowing separation"));
    }

    #[test]
    fn random_special_positions_keep_their_bits() {
        const SPECIAL: [f64; 12] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            5e-324,
            1e200,
            -1e200,
            1.5e308,
            -1.5e308,
            2.5,
            0.5,
        ];
        let mut rng = prng::Prng::seed_from_u64(54);
        for round in 0..40 {
            let mut atoms = lattice(0.0, &mut rng);
            let mut ghosts = lattice(4.0, &mut rng);
            for _ in 0..rng.gen_range(1..4) {
                let v = SPECIAL[rng.gen_range(0..SPECIAL.len())];
                let k = rng.gen_range(0..3);
                if rng.gen_range(0..2) == 0 {
                    atoms[rng.gen_range(0..64)].pos[k] = v;
                } else {
                    ghosts[rng.gen_range(0..64)].pos[k] = v;
                }
            }
            assert_pairs_exact(&atoms, &ghosts, &format!("round {round}"));
        }
    }
}
