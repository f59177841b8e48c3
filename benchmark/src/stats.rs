//! Order statistics for timing samples.
//!
//! A timing is reported as a median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it: a p99 over 300
//! samples is three observations, and three observations are an
//! anecdote, not a tail.

/// Samples that must lie strictly beyond a percentile before it is
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles a tail may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated percentile `p` (0–100) of an ascending slice.
fn percentile_sorted(v: &[f64], p: f64) -> f64 {
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// Percentile `p` (0–100) of `values`; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(values), p)
}

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Largest value; 0 for an empty slice.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// The highest candidate percentile not above `cap` that has at least
/// [`MIN_BEYOND`] samples beyond it, with its value: `(percentile,
/// value)`. `None` when even the lowest candidate has too few — the
/// caller then reports the median alone.
pub fn tail(values: &[f64], cap: f64) -> Option<(f64, f64)> {
    let n = values.len();
    let v = sorted(values);
    TAIL_CANDIDATES
        .iter()
        .copied()
        .filter(|&p| p <= cap)
        .find(|&p| {
            // In whole per-mille, so 10 000 samples have exactly 10
            // beyond p99.9 (in floating point they have 9.999...).
            let beyond = n * (1000 - (p * 10.0).round() as usize) / 1000;
            beyond >= MIN_BEYOND
        })
        .map(|p| (p, percentile_sorted(&v, p)))
}

/// The value a metric named after percentile `p` reports: the
/// percentile itself when enough samples lie beyond it, otherwise the
/// highest percentile that qualifies (the median when none does).
/// Returns `(percentile actually used, value)` so the caller can print
/// the substitution next to the sample count.
pub fn capped_percentile(values: &[f64], p: f64) -> (f64, f64) {
    tail(values, p).unwrap_or((50.0, median(values)))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method) — the rule the driver applies to
/// ten runs, so `compare` applies the same one. `None` under two
/// values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let v = sorted(values);
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median (0 when the median
/// is 0 or there are fewer than two values).
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: exactly 10 lie beyond p99, 1 beyond p99.9.
        assert_eq!(tail(&ramp(1000), 100.0).map(|t| t.0), Some(99.0));
        // 999 samples: floor(9.99) = 9 beyond p99 -> fall back to p95.
        assert_eq!(tail(&ramp(999), 100.0).map(|t| t.0), Some(95.0));
        assert_eq!(tail(&ramp(10_000), 100.0).map(|t| t.0), Some(99.9));
        assert_eq!(tail(&ramp(200), 100.0).map(|t| t.0), Some(95.0));
        assert_eq!(tail(&ramp(199), 100.0).map(|t| t.0), Some(90.0));
        assert_eq!(tail(&ramp(40), 100.0).map(|t| t.0), Some(75.0));
        assert_eq!(tail(&ramp(39), 100.0), None);
        // A metric named after p95 never reports a higher percentile.
        assert_eq!(tail(&ramp(10_000), 95.0).map(|t| t.0), Some(95.0));
    }

    #[test]
    fn capped_percentile_substitutes_downwards_only() {
        // Plenty of samples: a p95 metric reports p95, never p99.
        let (p, v) = capped_percentile(&ramp(10_000), 95.0);
        assert_eq!(p, 95.0);
        assert!((v - 9500.05).abs() < 1e-6, "{v}");
        // Too few for p99: the metric falls back and says so.
        assert_eq!(capped_percentile(&ramp(300), 99.0).0, 95.0);
        // Too few for anything: the median.
        assert_eq!(capped_percentile(&ramp(5), 99.0), (50.0, 3.0));
    }

    #[test]
    fn percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile(&[10.0, 20.0], 25.0), 12.5);
        assert_eq!(max(&[1.0, 7.0, 3.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let (q1, q3) = quartiles(&ramp(10)).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&ramp(10)) - 1.0).abs() < 1e-12);
    }
}
