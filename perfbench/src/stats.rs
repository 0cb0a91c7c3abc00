//! Order statistics for timings: median, quartiles, and the tail
//! percentile a sample can support.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks; `None` for an empty sample.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`; `None` for an empty sample.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// First and third quartiles, the way Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method), so spreads computed here match the ones an
/// outside script computes from the same values. `None` below two
/// values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        // Python: j = i*(n+1) // 4 clamped to [1, n-1]; delta = i*(n+1) - 4j
        // (negative or above 4 where the clamp bites, extrapolating).
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (4 * j) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The percentiles a tail figure is read from, in per-mille, highest
/// first (p99.9, p99, p90).
pub const TAIL_LADDER: [usize; 3] = [999, 990, 900];

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, as (percentile, value); `None`
/// when the sample is too small for any of them.
#[must_use]
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    TAIL_LADDER
        .iter()
        .find(|&&per_mille| n * (1000 - per_mille) / 1000 >= TAIL_MIN_BEYOND)
        .and_then(|&per_mille| {
            let q = per_mille as f64 / 1000.0;
            quantile(values, q).map(|v| (per_mille as f64 / 10.0, v))
        })
}

/// How many of `n` samples lie beyond the `per_mille` percentile.
#[must_use]
pub fn beyond(n: usize, per_mille: usize) -> usize {
    n * 1000usize.saturating_sub(per_mille) / 1000
}

/// `p90`, `p99`, `p99.9`, or `max` for the 1000-per-mille percentile.
#[must_use]
pub fn label(per_mille: usize) -> String {
    if per_mille >= 1000 {
        "max".to_owned()
    } else {
        format!("p{}", per_mille as f64 / 10.0)
    }
}

/// The tail figure reported for a timing: the [`tail`] percentile, or
/// the maximum when the sample is too small for one. The label names
/// which (`p99`, `p90`, `max`).
#[must_use]
pub fn tail_or_max(values: &[f64]) -> Option<(String, f64)> {
    match tail(values) {
        Some((pct, v)) => Some((format!("p{pct}"), v)),
        None => values
            .iter()
            .copied()
            .max_by(f64::total_cmp)
            .map(|v| ("max".to_owned(), v)),
    }
}

/// One timing rendered with its sample count, e.g.
/// `p50 1.234 ms, p99 56.7 ms (n=4012)`.
#[must_use]
pub fn describe_ms(values: &[f64]) -> String {
    match (median(values), tail_or_max(values)) {
        (Some(p50), Some((label, t))) => {
            format!("p50 {p50:.3} ms, {label} {t:.3} ms (n={})", values.len())
        }
        _ => "no samples (n=0)".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), Some((2.0, 8.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_percentile() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p99 would have 1 sample beyond it, p90 has 10.
        let (pct, v) = tail(&hundred).expect("100 samples support p90");
        assert_eq!(pct, 90.0);
        assert!((v - 90.1).abs() < 1e-9);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand).map(|t| t.0), Some(99.0));
        let many: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&many).map(|t| t.0), Some(99.9));
        assert_eq!(tail(&hundred[..99]), None);
    }

    #[test]
    fn percentile_labels_and_support() {
        assert_eq!(label(900), "p90");
        assert_eq!(label(999), "p99.9");
        assert_eq!(label(1000), "max");
        assert_eq!(beyond(1000, 990), 10);
        assert_eq!(beyond(999, 990), 9);
        assert_eq!(beyond(7, 1000), 0);
    }

    #[test]
    fn small_samples_fall_back_to_the_maximum() {
        assert_eq!(tail_or_max(&[2.0, 5.0, 3.0]), Some(("max".to_owned(), 5.0)));
        assert_eq!(tail_or_max(&[]), None);
    }

    #[test]
    fn described_timings_carry_their_sample_count() {
        assert!(describe_ms(&[1.0, 2.0, 3.0]).ends_with("(n=3)"));
        assert_eq!(describe_ms(&[]), "no samples (n=0)");
    }
}
