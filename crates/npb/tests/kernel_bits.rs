//! FT's arithmetic holds the bits of the per-point formulas it replaced.
//!
//! The planned FFT, the tabled decay factors and the tabled field terms
//! each compute a value once where the kernel used to recompute it. The
//! references below are the old loops and formulas, copied verbatim; the
//! new code is held to them by `to_bits` (any NaN matches any NaN), on
//! inputs with NaN, ±inf, ±0, subnormals and values near `f64::MAX`, since
//! message faults put all of these into the field. The last tests pin the
//! kernel's whole output, per rank, to the bits the per-point kernel gave.

use npb::ft::{fft1d, Decay, Fft, FieldTerms};
use npb::{ft_app, Class, FtConfig};
use prng::Prng;
use simmpi::datatype::Complex64;
use simmpi::runtime::{run_job, AppFn, JobOutcome, JobSpec};
use std::time::Duration;

/// The per-block FFT the kernel ran before plans, verbatim.
fn reference_fft1d(buf: &mut [Complex64], inverse: bool) {
    let n = buf.len();
    assert!(n.is_power_of_two(), "fft length must be a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
        if i < j {
            buf.swap(i, j);
        }
    }
    // Butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex64::cis(ang);
        let mut i = 0;
        while i < n {
            let mut w = Complex64::new(1.0, 0.0);
            for j in 0..len / 2 {
                let u = buf[i + j];
                let v = buf[i + j + len / 2] * w;
                buf[i + j] = u + v;
                buf[i + j + len / 2] = u - v;
                w = w * wlen;
            }
            i += len;
        }
        len <<= 1;
    }
    if inverse {
        let inv = 1.0 / n as f64;
        for v in buf.iter_mut() {
            v.re *= inv;
            v.im *= inv;
        }
    }
}

/// The per-column gather, transform and scatter `fft_xy` ran, verbatim but
/// for the plane indexing.
fn reference_columns(plane: &mut [Complex64], n: usize, inverse: bool) {
    let mut col = vec![Complex64::default(); n];
    for x in 0..n {
        for y in 0..n {
            col[y] = plane[y * n + x];
        }
        reference_fft1d(&mut col, inverse);
        for y in 0..n {
            plane[y * n + x] = col[y];
        }
    }
}

/// The old `evolve` factor of one point.
fn reference_decay(alpha: f64, k2: f64, it: usize) -> f64 {
    (-alpha * k2 * it as f64).exp()
}

/// The old `init_field` value of one point.
fn reference_field(x: usize, y: usize, z: usize, n: usize) -> Complex64 {
    let (fx, fy, fz) = (
        x as f64 / n as f64,
        y as f64 / n as f64,
        z as f64 / n as f64,
    );
    let re = (2.0 * std::f64::consts::PI * (fx + 2.0 * fy)).sin()
        + 0.5 * (2.0 * std::f64::consts::PI * (3.0 * fz)).cos();
    let im = (2.0 * std::f64::consts::PI * (fy + fz)).cos() * 0.25;
    Complex64::new(re, im)
}

/// Frequency index of grid coordinate `i` on an `n`-point axis, as FT has it.
fn freq(i: usize, n: usize) -> f64 {
    if i <= n / 2 {
        i as f64
    } else {
        i as f64 - n as f64
    }
}

fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn assert_same(new: &[Complex64], old: &[Complex64], what: &str) {
    assert_eq!(new.len(), old.len(), "{what}: length");
    for (i, (a, b)) in new.iter().zip(old).enumerate() {
        assert!(
            same_bits(a.re, b.re) && same_bits(a.im, b.im),
            "{what}: element {i} is {a:?}, the reference gives {b:?}"
        );
    }
}

/// Values a fault can put into the field, and their neighbours.
const SPECIAL: [f64; 14] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    f64::MIN_POSITIVE / 3.0,
    f64::MIN_POSITIVE,
    f64::MAX,
    -f64::MAX,
    f64::MAX / 3.0,
    1.0,
    -1.0,
];

/// A vector of `len` values: smooth ones, and with `special_share` in 16
/// of the parts drawn from [`SPECIAL`].
fn inputs(rng: &mut Prng, len: usize, special_share: usize) -> Vec<Complex64> {
    let part = |rng: &mut Prng| {
        if rng.gen_range(0..16) < special_share {
            SPECIAL[rng.gen_range(0..SPECIAL.len())]
        } else {
            (rng.next_f64() - 0.5) * 4.0
        }
    };
    (0..len)
        .map(|_| Complex64::new(part(rng), part(rng)))
        .collect()
}

const LENGTHS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

#[test]
fn planned_fft_matches_the_per_block_loop() {
    let mut rng = Prng::seed_from_u64(52);
    for n in LENGTHS {
        for inverse in [false, true] {
            let plan = Fft::new(n, inverse);
            for share in [0, 1, 4, 16] {
                for _ in 0..4 {
                    let input = inputs(&mut rng, n, share);
                    let mut old = input.clone();
                    reference_fft1d(&mut old, inverse);
                    let mut new = input.clone();
                    plan.apply(&mut new);
                    assert_same(&new, &old, &format!("apply n={n} inverse={inverse}"));
                    let mut wrapped = input;
                    fft1d(&mut wrapped, inverse);
                    assert_same(&wrapped, &old, &format!("fft1d n={n} inverse={inverse}"));
                }
            }
        }
    }
}

#[test]
fn batched_columns_match_one_column_at_a_time() {
    let mut rng = Prng::seed_from_u64(53);
    for n in LENGTHS {
        for inverse in [false, true] {
            let plan = Fft::new(n, inverse);
            for share in [0, 1, 4, 16] {
                let input = inputs(&mut rng, n * n, share);
                let mut old = input.clone();
                reference_columns(&mut old, n, inverse);
                let mut new = input;
                plan.apply_columns(&mut new);
                assert_same(
                    &new,
                    &old,
                    &format!("apply_columns n={n} inverse={inverse}"),
                );
            }
        }
    }
}

#[test]
fn tabled_decay_matches_the_per_point_exp() {
    for n in [1, 2, 16, 32, 64] {
        for alpha in [1e-4, 1e-2, 0.0] {
            for it in 1..=10 {
                let mut decay = Decay::new(n, alpha, it);
                // Every k² the kernel forms, twice: computed, then memoised.
                for _ in 0..2 {
                    for x in 0..n {
                        for y in 0..n {
                            for z in 0..n {
                                let k2 =
                                    freq(x, n).powi(2) + freq(y, n).powi(2) + freq(z, n).powi(2);
                                assert!(
                                    same_bits(decay.factor(k2), reference_decay(alpha, k2, it)),
                                    "n={n} alpha={alpha} it={it} k2={k2}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn tabled_field_terms_match_the_per_point_formula() {
    for n in [1, 2, 4, 16, 32, 64] {
        let terms = FieldTerms::new(n);
        for z in 0..n {
            let mut new = Vec::new();
            terms.push_plane(z, &mut new);
            let mut old = Vec::new();
            for y in 0..n {
                for x in 0..n {
                    old.push(reference_field(x, y, z, n));
                }
            }
            assert_same(&new, &old, &format!("field plane z={z} n={n}"));
        }
    }
}

/// Every rank's output scalars, as `key=<hex bits>` per rank.
fn output_bits(nranks: usize, app: AppFn) -> Vec<String> {
    let spec = JobSpec {
        nranks,
        timeout: Duration::from_secs(120),
        ..Default::default()
    };
    match run_job(&spec, app).outcome {
        JobOutcome::Completed { outputs } => outputs
            .iter()
            .map(|o| {
                let kv: Vec<String> = o
                    .scalars
                    .iter()
                    .map(|(k, v)| format!("{k}={:016x}", v.to_bits()))
                    .collect();
                kv.join(" ")
            })
            .collect(),
        other => panic!("FT on {nranks} ranks failed: {other:?}"),
    }
}

/// Rank 0 holds the checksums; every other rank outputs nothing.
fn rank0_only(rank0: &str, nranks: usize) -> Vec<String> {
    std::iter::once(rank0.to_string())
        .chain(vec![String::new(); nranks - 1])
        .collect()
}

// Recorded from the per-point kernel (no plans, no tables).
const FT_MINI_16: &str = "ft.checksum1.re=c023620a12148302 ft.checksum1.im=bd22300000000000 \
     ft.checksum2.re=c0235f8f169e09c4 ft.checksum2.im=bd22f80000000000 \
     ft.checksum3.re=c0235d146c69767a ft.checksum3.im=bd20180000000000";
const FT_SMALL_2: &str = "ft.checksum1.re=bfd6c6de1221be00 ft.checksum1.im=3d1b880000000000 \
     ft.checksum2.re=bfd6c3f3e8065200 ft.checksum2.im=3d24e40000000000 \
     ft.checksum3.re=bfd6c10a1d674600 ft.checksum3.im=bcd1800000000000 \
     ft.checksum4.re=bfd6be20b2385800 ft.checksum4.im=3d07100000000000 \
     ft.checksum5.re=bfd6bb37a66d1c00 ft.checksum5.im=3d02c00000000000";
const FT_SMALL_16: &str = "ft.checksum1.re=c006c6de1221a640 ft.checksum1.im=3d1cf00000000000 \
     ft.checksum2.re=c006c3f3e8065e80 ft.checksum2.im=bcebc00000000000 \
     ft.checksum3.re=c006c10a1d674d80 ft.checksum3.im=bd20d80000000000 \
     ft.checksum4.re=c006be20b23835c0 ft.checksum4.im=bd1d580000000000 \
     ft.checksum5.re=c006bb37a66ce5c0 ft.checksum5.im=bd12000000000000";

#[test]
fn ft_outputs_keep_their_bits() {
    for (class, nranks, rank0) in [
        (Class::Mini, 16, FT_MINI_16),
        (Class::Small, 2, FT_SMALL_2),
        (Class::Small, 16, FT_SMALL_16),
    ] {
        let got = output_bits(nranks, ft_app(FtConfig::for_class(class)));
        assert_eq!(
            got,
            rank0_only(rank0, nranks),
            "FT {class:?} on {nranks} ranks"
        );
    }
}
