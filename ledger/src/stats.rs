//! Sample statistics the ledger reports: medians, nearest-rank percentiles
//! with the "at least ten samples beyond" rule, geometric means and the
//! quartile spread the comparator uses to call a pair unresolved.

/// Samples a percentile must leave beyond it to be reported.
pub const BEYOND: usize = 10;

/// Percentile levels tried by [`tail`], lowest first.
const TAIL_LEVELS: [f64; 5] = [0.75, 0.90, 0.95, 0.99, 0.999];

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count); NaN when empty.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in `(0, 1]` of `samples`; NaN when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Whether percentile `p` of `n` samples leaves at least [`BEYOND`] beyond it.
pub fn resolves(n: usize, p: f64) -> bool {
    // Samples strictly above the nearest-rank position.
    let rank = (p * n as f64).ceil() as usize;
    n.saturating_sub(rank) >= BEYOND
}

/// The highest percentile with at least ten samples beyond it, as
/// `(level, value)`; `None` when even p75 is not resolved.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let level = TAIL_LEVELS.iter().rev().copied().find(|&p| resolves(samples.len(), p))?;
    Some((level, percentile(samples, level)))
}

/// Geometric mean of positive samples; NaN when empty.
pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    (samples.iter().map(|s| s.max(1e-12).ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the "exclusive" method), so the ledger's spread is the
/// number the acceptance rule uses. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Distance between the quartiles as a share of the median; `None` below two
/// samples or when the median is zero.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let m = median(samples);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_needs_ten_beyond() {
        let n = |k: usize| (0..k).map(|i| i as f64).collect::<Vec<_>>();
        // 39 samples: p75 has rank 30, 9 beyond -> nothing resolves.
        assert!(tail(&n(39)).is_none());
        // 40 samples: p75 rank 30, 10 beyond.
        assert_eq!(tail(&n(40)).unwrap().0, 0.75);
        // 200 samples: p95 rank 190 leaves 10; p99 leaves 2.
        assert_eq!(tail(&n(200)).unwrap(), (0.95, 189.0));
        // 1000 samples: p99 leaves 10.
        assert_eq!(tail(&n(1000)).unwrap().0, 0.99);
        assert_eq!(tail(&n(10_000)).unwrap().0, 0.999);
        assert!(resolves(200, 0.95) && !resolves(199, 0.95));
    }

    #[test]
    fn geomean_known() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-9);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 4.0, 8.0]).unwrap();
        assert!((q1 - 1.25).abs() < 1e-12 && (q3 - 7.0).abs() < 1e-12);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        assert!(spread(&[1.0]).is_none());
    }
}
