//! Order statistics for the benchmark's reports.
//!
//! Three rules keep the numbers honest:
//!
//! - the median is the usual one (mean of the middle pair for even `n`);
//! - quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//!   default *exclusive* method), so `--runs K` reports the same spread a
//!   script computing it from the printed values would;
//! - a high percentile is reported only when at least [`MIN_TAIL`]
//!   samples lie beyond it. A p99 from 200 samples is the second-largest
//!   value dressed up as a tail; it is omitted, never faked.

/// Samples that must lie strictly beyond a percentile before it counts.
pub const MIN_TAIL: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; `None` for no samples.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile by Python's exclusive
/// method; `None` for no samples, all three equal to the value for one.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        1 => Some([v[0]; 3]),
        _ => {
            let m = n as i64 + 1;
            let mut out = [0.0; 3];
            for (i, q) in (1..4i64).zip(out.iter_mut()) {
                // Clamping can push the interpolation weight outside
                // [0, 4]; Python extrapolates the same way.
                let j = (i * m / 4).clamp(1, n as i64 - 1);
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
            }
            Some(out)
        }
    }
}

/// Nearest-rank `p`-th percentile (`0 < p < 100`), or `None` unless at
/// least [`MIN_TAIL`] samples lie beyond it.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of (0, 100)");
    let v = sorted(values);
    let n = v.len();
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    (rank >= 1 && n - rank >= MIN_TAIL).then(|| v[rank - 1])
}

/// Arithmetic mean; `None` for no samples.
#[must_use]
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so every statistic has to sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn empty_input_yields_nothing() {
        assert_eq!(median(&[]), None);
        assert_eq!(quartiles(&[]), None);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn single_sample() {
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(quartiles(&[7.5]), Some([7.5; 3]));
        assert_eq!(mean(&[7.5]), Some(7.5));
        // Nothing lies beyond the only sample.
        assert_eq!(percentile(&[7.5], 50.0), None);
    }

    #[test]
    fn all_ties() {
        let v = vec![3.0; 1000];
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(quartiles(&v), Some([3.0; 3]));
        assert_eq!(percentile(&v, 99.0), Some(3.0));
    }

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.median / statistics.quantiles(range(1, 11), n=4)
        assert_eq!(median(&ramp(10)), Some(5.5));
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(median(&ramp(9)), Some(5.0));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(99), 90.0), None);
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
    }

    #[test]
    fn p99_boundaries_at_999_and_1000_samples() {
        assert_eq!(percentile(&ramp(99), 99.0), None);
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
    }
}
