//! FT — 3-D FFT with spectral evolution, slab-decomposed, as in NPB FT:
//! broadcast parameters, a forward 3-D FFT (local x/y transforms, an
//! `MPI_Alltoall` transpose, local z transforms), per-iteration spectral
//! evolution, an inverse transform and a complex checksum reduced to rank 0
//! with `MPI_Reduce` (the call the paper's Figure 2 injects), then an
//! error-handling `MPI_Allreduce` verification. Each value is computed once
//! (planned FFTs, tabled decay factors and field terms), with the bits of the
//! per-point formulas: `crates/npb/tests/kernel_bits.rs` holds them.
// Injection keys are `file:line`: adding or removing a line here moves every key below.
use crate::common::{global_ok, Class};
use simmpi::ctx::{RankCtx, RankOutput};
use simmpi::datatype::Complex64;
use simmpi::op::ReduceOp;
use simmpi::record::Phase;
use simmpi::runtime::AppFn;
use std::sync::Arc;

/// FT configuration. `nx = ny = nz = n`, which must be a power of two and
/// divisible by the rank count.
#[derive(Debug, Clone)]
pub struct FtConfig {
    /// Grid edge (power of two).
    pub n: usize,
    /// Evolution iterations.
    pub iters: usize,
    /// Spectral diffusion coefficient.
    pub alpha: f64,
}

impl FtConfig {
    /// Configuration for a problem class.
    pub fn for_class(class: Class) -> Self {
        match class {
            Class::Mini => FtConfig {
                n: 16,
                iters: 3,
                alpha: 1e-4,
            },
            Class::Small => FtConfig {
                n: 32,
                iters: 5,
                alpha: 1e-4,
            },
            Class::Standard => FtConfig {
                n: 64,
                iters: 10,
                alpha: 1e-4,
            },
        }
    }
}

impl Default for FtConfig {
    fn default() -> Self {
        FtConfig::for_class(Class::Mini)
    }
}

/// In-place radix-2 FFT; `inverse` applies the conjugate transform and 1/n scaling.
pub fn fft1d(buf: &mut [Complex64], inverse: bool) {
    Fft::new(buf.len(), inverse).apply(buf);
}

/// A planned radix-2 FFT of one length and direction: the bit-reversal swaps
/// and every stage's twiddles, computed once for all transforms of the length.
/// A stage's twiddles come from the recurrence the butterflies ran per block
/// (`w = 1`, then `w = w * wlen` per `j`), which restarts at 1 in every block:
/// one table holds the same bits. Not `cis(j · ang)`, which rounds otherwise.
pub struct Fft {
    n: usize,
    /// `(i, j)`, `i < j`: the index pairs the bit-reversal permutation swaps.
    swaps: Vec<(usize, usize)>,
    /// Per stage (`len` = 2, 4, …, n), the `len / 2` twiddles of a block.
    twiddles: Vec<Vec<Complex64>>,
    /// The inverse transform's 1/n scaling (none for `n = 1`).
    scale: Option<f64>,
}

impl Fft {
    /// Plan the transform of length `n`, a power of two.
    pub fn new(n: usize, inverse: bool) -> Fft {
        assert!(n.is_power_of_two(), "fft length must be a power of two");
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut twiddles = Vec::new();
        let mut len = 2;
        while len <= n {
            let wlen = Complex64::cis(sign * 2.0 * std::f64::consts::PI / len as f64);
            let tw = std::iter::successors(Some(Complex64::new(1.0, 0.0)), |&w| Some(w * wlen));
            twiddles.push(tw.take(len / 2).collect());
            len <<= 1;
        }
        Fft {
            n,
            swaps: (1..n)
                .map(|i| (i, i.reverse_bits() >> (usize::BITS - n.trailing_zeros())))
                .filter(|&(i, j)| i < j)
                .collect(),
            twiddles,
            scale: (inverse && n > 1).then(|| 1.0 / n as f64),
        }
    }
}

/// Frequency index of grid coordinate `i` on an `n`-point axis.
fn freq(i: usize, n: usize) -> f64 {
    if i <= n / 2 {
        i as f64
    } else {
        i as f64 - n as f64
    }
}

struct Slab {
    n: usize,
    /// Planes per rank.
    lp: usize,
}

impl Slab {
    fn idx(&self, p: usize, y: usize, x: usize) -> usize {
        (p * self.n + y) * self.n + x
    }
}

/// Build the FT application closure.
pub fn ft_app(cfg: FtConfig) -> AppFn {
    Arc::new(move |ctx: &mut RankCtx| run_ft(ctx, &cfg))
}

fn run_ft(ctx: &mut RankCtx, cfg: &FtConfig) -> RankOutput {
    let nranks = ctx.size();
    let me = ctx.rank();
    let world = ctx.world();
    assert!(
        cfg.n.is_multiple_of(nranks),
        "FT: rank count {} must divide n {}",
        nranks,
        cfg.n
    );

    // --- Input: broadcast parameters ---
    ctx.set_phase(Phase::Input);
    let mut params = [0i64; 2];
    if me == 0 {
        params = [cfg.n as i64, cfg.iters as i64];
    }
    ctx.frame("read_input", |ctx| ctx.bcast(&mut params, 0, world));
    if params[0] <= 0
        || params[0] > 4096
        || !(params[0] as usize).is_power_of_two()
        || !(params[0] as usize).is_multiple_of(nranks)
        || params[1] < 0
        || params[1] > 10_000
    {
        ctx.abort(2, "FT: invalid input parameters");
    }
    let n = params[0] as usize;
    let iters = params[1] as usize;
    let lp = n / nranks;
    let slab = Slab { n, lp };

    // --- Init: pseudo-random initial field, decomposition-independent ---
    ctx.set_phase(Phase::Init);
    let mut u: Vec<Complex64> = Vec::with_capacity(lp * n * n);
    ctx.frame("init_field", |ctx| {
        // A smooth multi-mode field: cheap, deterministic, and identical for
        // any rank layout,
        //     u(x, y, z) = sin(2π(fx + 2fy)) + 0.5·cos(2π·3fz)
        //                  + i·0.25·cos(2π(fy + fz)),   fx = x/n, ….
        // Each term is computed once where it is constant: the sine once per
        // (x, y) for the whole slab, the cosine once per plane, the imaginary
        // part once per row. `FieldTerms::push_plane` adds the real part in
        // the per-point order, so every value keeps its bits. A rank makes
        // n² + lp·(n + 1) trig calls instead of 3·lp·n².
        let _ = ctx; // deterministic closed form, no RNG needed
        let terms = FieldTerms::new(n);
        for p in 0..lp {
            terms.push_plane(me * lp + p, &mut u);
        }
        // Injection keys are `file:line`: this block keeps the 19 lines of
        // the per-point loop it replaced, so no call site below it moves.
        // `crates/npb/tests/kernel_bits.rs` holds `push_plane` to the
        // per-point formula bit for bit, and the whole-kernel checksum pins
        // there hold the assembled field.
    });
    ctx.barrier(world);

    // --- Compute ---
    ctx.set_phase(Phase::Compute);
    // Forward transform: x and y locally, transpose, z locally.
    let mut v = u.clone();
    ctx.frame("fft_forward", |ctx| {
        fft_xy(&slab, &mut v, false);
        v = transpose(ctx, &slab, &v, nranks);
        fft_last_dim(&slab, &mut v, false);
    });

    let mut checksums: Vec<Complex64> = Vec::new();
    let mut w_spec: Vec<Complex64> = Vec::new();
    let mut last_real: Vec<Complex64> = Vec::new();
    for it in 1..=iters {
        ctx.frame("evolve", |ctx| {
            // Spectral decay: w = v * exp(-alpha * k^2 * t), one exp per distinct k^2.
            w_spec = v.clone();
            let mut decay = Decay::new(n, cfg.alpha, it);
            for xl in 0..lp {
                let xg = me * lp + xl;
                for y in 0..n {
                    for z in 0..n {
                        let k2 = freq(xg, n).powi(2) + freq(y, n).powi(2) + freq(z, n).powi(2);
                        let f = decay.factor(k2);
                        let i = slab.idx(xl, y, z);
                        w_spec[i] = Complex64::new(w_spec[i].re * f, w_spec[i].im * f);
                    }
                }
            }
            // Inverse transform back to real space (z-slab layout).
            let mut w = w_spec.clone();
            fft_last_dim(&slab, &mut w, true);
            w = transpose(ctx, &slab, &w, nranks);
            fft_xy(&slab, &mut w, true);
            last_real = w;
        });
        // Complex checksum reduced onto rank 0 (MPI_Reduce — Figure 2).
        ctx.frame("checksum", |ctx| {
            let mut local = Complex64::default();
            for (i, val) in last_real.iter().enumerate() {
                // Strided sample, NPB-style, to make the checksum sensitive
                // to individual elements.
                if i % 7 == 0 {
                    local = local + *val;
                }
            }
            let send = [local];
            let mut recv = [Complex64::default()];
            ctx.reduce(&send, &mut recv, ReduceOp::Sum, 0, world);
            if me == 0 {
                checksums.push(recv[0]);
            }
        });
    }

    // --- End: verification (roundtrip consistency) ---
    ctx.set_phase(Phase::End);
    let ok = ctx.frame("verify", |ctx| {
        // Forward-transform the last real-space field; it must match the
        // evolved spectrum we built it from.
        let mut check = last_real.clone();
        fft_xy(&slab, &mut check, false);
        check = transpose(ctx, &slab, &check, nranks);
        fft_last_dim(&slab, &mut check, false);
        let mut max_err = 0.0f64;
        for (a, b) in check.iter().zip(&w_spec) {
            max_err = max_err.max((*a - *b).abs());
        }
        let finite = last_real
            .iter()
            .all(|c| c.re.is_finite() && c.im.is_finite());
        let gmax = ctx.errhdl(|ctx| ctx.allreduce_one(max_err, ReduceOp::Max, ctx.world()));
        finite && gmax < 1e-6 * n as f64
    });
    if !global_ok(ctx, ok) {
        ctx.abort(2, "FT: verification failed (spectral roundtrip)");
    }

    let mut out = RankOutput::new();
    for (i, c) in checksums.iter().enumerate() {
        out.push(format!("ft.checksum{}.re", i + 1), c.re);
        out.push(format!("ft.checksum{}.im", i + 1), c.im);
    }
    out
}

/// FFT along x (contiguous) and y (strided) for every local plane, with one
/// plan: the rows one by one, then all y-columns of a plane at once.
fn fft_xy(slab: &Slab, data: &mut [Complex64], inverse: bool) {
    let n = slab.n;
    let fft = Fft::new(n, inverse);
    for plane in data.chunks_exact_mut(n * n) {
        for row in plane.chunks_exact_mut(n) {
            fft.apply(row);
        }
        fft.apply_columns(plane);
    }
}

/// FFT along the last (contiguous) dimension of the transposed layout.
fn fft_last_dim(slab: &Slab, data: &mut [Complex64], inverse: bool) {
    let fft = Fft::new(slab.n, inverse);
    for row in data.chunks_exact_mut(slab.n) {
        fft.apply(row);
    }
}

/// Global transpose between z-slab layout `[lz][y][x]` and x-slab layout
/// `[lx][y][z]` via `MPI_Alltoall`. The operation is an involution: calling
/// it twice restores the original layout.
#[track_caller]
fn transpose(ctx: &mut RankCtx, slab: &Slab, data: &[Complex64], nranks: usize) -> Vec<Complex64> {
    let n = slab.n;
    let lp = slab.lp;
    // Pack: block for destination rank d = my planes, all y, x in d's slab.
    let mut send = Vec::with_capacity(data.len());
    for d in 0..nranks {
        for p in 0..lp {
            for y in 0..n {
                for xl in 0..lp {
                    send.push(data[slab.idx(p, y, d * lp + xl)]);
                }
            }
        }
    }
    let mut recv = vec![Complex64::default(); data.len()];
    ctx.alltoall(&send, &mut recv, ctx.world());
    // Unpack: the block from source s holds s's planes (global z) for my
    // x-slab.
    let mut out = vec![Complex64::default(); data.len()];
    let block = lp * n * lp;
    for s in 0..nranks {
        let mut k = s * block;
        for zp in 0..lp {
            let zg = s * lp + zp;
            for y in 0..n {
                for xl in 0..lp {
                    out[slab.idx(xl, y, zg)] = recv[k];
                    k += 1;
                }
            }
        }
    }
    out
}

impl Fft {
    /// Transform `buf`, of the planned length, in place.
    pub fn apply(&self, buf: &mut [Complex64]) {
        assert_eq!(buf.len(), self.n, "fft plan length");
        for &(i, j) in &self.swaps {
            buf.swap(i, j);
        }
        for tw in &self.twiddles {
            for block in buf.chunks_exact_mut(2 * tw.len()) {
                let (lo, hi) = block.split_at_mut(tw.len());
                for ((u, v), &w) in lo.iter_mut().zip(hi).zip(tw) {
                    butterfly(u, v, w);
                }
            }
        }
        self.rescale(buf);
    }

    /// Transform every column of the row-major `n × n` `plane` in place, all
    /// at once: the bit reversal swaps whole rows, and each butterfly (stage,
    /// `j`) combines two whole rows with one twiddle. Each element goes
    /// through exactly the operations of its own column's [`Fft::apply`].
    pub fn apply_columns(&self, plane: &mut [Complex64]) {
        let n = self.n;
        assert_eq!(plane.len(), n * n, "fft plane of the planned length");
        for &(i, j) in &self.swaps {
            let (head, tail) = plane.split_at_mut(j * n);
            head[i * n..(i + 1) * n].swap_with_slice(&mut tail[..n]);
        }
        for tw in &self.twiddles {
            for block in plane.chunks_exact_mut(2 * tw.len() * n) {
                let (lo, hi) = block.split_at_mut(tw.len() * n);
                let rows = lo.chunks_exact_mut(n).zip(hi.chunks_exact_mut(n));
                for ((lo, hi), &w) in rows.zip(tw) {
                    for (u, v) in lo.iter_mut().zip(hi) {
                        butterfly(u, v, w);
                    }
                }
            }
        }
        self.rescale(plane);
    }

    fn rescale(&self, data: &mut [Complex64]) {
        if let Some(inv) = self.scale {
            for v in data {
                v.re *= inv;
                v.im *= inv;
            }
        }
    }
}

/// One radix-2 butterfly, in the per-block loop's operand order. The `(1, 0)`
/// twiddle is multiplied too: for an `inf` or `-0` input that is no no-op.
#[inline]
fn butterfly(u: &mut Complex64, v: &mut Complex64, w: Complex64) {
    let t = *v * w;
    (*u, *v) = (*u + t, *u - t);
}

/// `exp(-alpha · k² · it)` for one evolution step, computed once per integer
/// k². A wavenumber is at most n/2 per axis, so k² takes at most
/// 3·(n/2)² + 1 values, fewer than a rank's field has points. `k2` is an
/// exact integer in f64, so each memoised factor is the per-point value.
pub struct Decay {
    alpha: f64,
    it: usize,
    memo: Vec<Option<f64>>,
}

impl Decay {
    /// The factors of step `it` on an `n`-point grid.
    pub fn new(n: usize, alpha: f64, it: usize) -> Decay {
        Decay {
            alpha,
            it,
            memo: vec![None; 3 * (n / 2) * (n / 2) + 1],
        }
    }

    /// The factor of the squared wavenumber `k2`.
    pub fn factor(&mut self, k2: f64) -> f64 {
        let (alpha, it) = (self.alpha, self.it);
        *self.memo[k2 as usize].get_or_insert_with(|| (-alpha * k2 * it as f64).exp())
    }
}

/// The terms of FT's initial field on an `n`-point grid, each computed once
/// where it is constant; `sin(2π(fx + 2fy))` once per (x, y).
pub struct FieldTerms {
    n: usize,
    /// The sine term, row-major by `y`.
    sin_xy: Vec<f64>,
}

impl FieldTerms {
    /// The terms of an `n`-point grid.
    pub fn new(n: usize) -> FieldTerms {
        let mut sin_xy = Vec::with_capacity(n * n);
        for y in 0..n {
            let fy = y as f64 / n as f64;
            for x in 0..n {
                let fx = x as f64 / n as f64;
                sin_xy.push((2.0 * std::f64::consts::PI * (fx + 2.0 * fy)).sin());
            }
        }
        FieldTerms { n, sin_xy }
    }

    /// Append plane `z` of the field to `out`, row-major by `y`: the cosine
    /// term once for the plane, the imaginary part once per row, and
    /// `re = s + c` in the per-point formula's order.
    pub fn push_plane(&self, z: usize, out: &mut Vec<Complex64>) {
        let n = self.n;
        let fz = z as f64 / n as f64;
        let c = 0.5 * (2.0 * std::f64::consts::PI * (3.0 * fz)).cos();
        for (y, sin_row) in self.sin_xy.chunks_exact(n).enumerate() {
            let fy = y as f64 / n as f64;
            let im = (2.0 * std::f64::consts::PI * (fy + fz)).cos() * 0.25;
            out.extend(sin_row.iter().map(|&s| Complex64::new(s + c, im)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::runtime::{run_job, JobOutcome, JobSpec};

    #[test]
    fn fft1d_roundtrip() {
        let mut data: Vec<Complex64> = (0..32)
            .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let orig = data.clone();
        fft1d(&mut data, false);
        fft1d(&mut data, true);
        for (a, b) in data.iter().zip(&orig) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn fft1d_delta_is_flat() {
        let mut data = vec![Complex64::default(); 8];
        data[0] = Complex64::new(1.0, 0.0);
        fft1d(&mut data, false);
        for c in &data {
            assert!((c.re - 1.0).abs() < 1e-12 && c.im.abs() < 1e-12);
        }
    }

    #[test]
    fn fft1d_parseval() {
        let mut data: Vec<Complex64> = (0..16)
            .map(|i| Complex64::new(i as f64, -(i as f64) * 0.5))
            .collect();
        let e_time: f64 = data.iter().map(|c| c.abs() * c.abs()).sum();
        fft1d(&mut data, false);
        let e_freq: f64 = data.iter().map(|c| c.abs() * c.abs()).sum();
        assert!((e_freq - e_time * 16.0).abs() < 1e-6 * e_freq.max(1.0));
    }

    fn spec(n: usize) -> JobSpec {
        JobSpec {
            nranks: n,
            timeout: std::time::Duration::from_secs(30),
            ..Default::default()
        }
    }

    #[test]
    fn ft_completes_and_checksums_nonzero() {
        let res = run_job(&spec(8), ft_app(FtConfig::default()));
        match res.outcome {
            JobOutcome::Completed { outputs } => {
                let cs: Vec<f64> = outputs[0].scalars.iter().map(|s| s.1).collect();
                assert_eq!(cs.len(), 6, "3 iterations x (re, im)");
                assert!(cs.iter().any(|v| v.abs() > 1e-9), "checksums: {:?}", cs);
            }
            other => panic!("FT failed: {:?}", other),
        }
    }

    #[test]
    fn ft_deterministic() {
        let a = run_job(&spec(4), ft_app(FtConfig::default()));
        let b = run_job(&spec(4), ft_app(FtConfig::default()));
        match (a.outcome, b.outcome) {
            (JobOutcome::Completed { outputs: oa }, JobOutcome::Completed { outputs: ob }) => {
                assert_eq!(oa[0].scalars, ob[0].scalars);
            }
            _ => panic!("FT must complete"),
        }
    }

    #[test]
    fn ft_checksums_decay_with_evolution() {
        let res = run_job(
            &spec(4),
            ft_app(FtConfig {
                n: 16,
                iters: 3,
                alpha: 1e-2,
            }),
        );
        match res.outcome {
            JobOutcome::Completed { outputs } => {
                let s = &outputs[0].scalars;
                let mag = |i: usize| (s[2 * i].1.powi(2) + s[2 * i + 1].1.powi(2)).sqrt();
                assert!(mag(2) <= mag(0) + 1e-9, "diffusion shrinks the field");
            }
            other => panic!("FT failed: {:?}", other),
        }
    }
}
