//! Order statistics over `f64` samples.

/// Sorts finite samples ascending.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
}

/// Median (sorts `values` in place). Zero for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    sort(values);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => 0.5 * (values[n / 2 - 1] + values[n / 2]),
    }
}

/// Median of a copy.
pub fn median_of(values: &[f64]) -> f64 {
    median(&mut values.to_vec())
}

/// Nearest-rank percentile `q` in `[0, 1]` of already sorted samples.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Quartiles `(q1, q2, q3)` as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method),
/// which is what the driver computes spreads from. Needs two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Interquartile distance as a share of the median — the driver's
/// spread. Zero when fewer than two samples or a zero median.
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The highest percentile that still has at least ten samples beyond
/// it, with its value: `(q, value)` over already sorted samples.
pub fn tail_percentile(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n <= 10 {
        return (0.5, percentile_sorted(sorted, 0.5));
    }
    let idx = n - 11; // ten samples lie strictly beyond it
    (idx as f64 / (n - 1) as f64, sorted[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 2.0, 3.5));
    }

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<f64> = (0..1000).map(f64::from).collect();
        let (q, v) = tail_percentile(&sorted);
        assert_eq!(v, 989.0);
        assert!((q - 0.99).abs() < 1e-3);
    }
}
