//! Order statistics over measured samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between the closest ranks; NaN for an empty slice. Infinite samples
/// (missed targets) sort last; a quantile that reaches past the last
/// finite rank is infinite.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else if v[hi].is_infinite() {
        f64::INFINITY
    } else {
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median per key: one value for each repeated item, ordered by key.
pub fn median_per<K: Ord>(items: impl IntoIterator<Item = (K, f64)>) -> Vec<f64> {
    let mut per = std::collections::BTreeMap::<K, Vec<f64>>::new();
    for (k, v) in items {
        per.entry(k).or_default().push(v);
    }
    per.values().map(|v| median(v)).collect()
}

/// Sum of `values` divided by their count (NaN when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn one_median_per_key() {
        let v = [
            (2, 5.0),
            (1, 3.0),
            (2, 4.0),
            (1, 1.0),
            (1, 9.0),
            (3, f64::INFINITY),
        ];
        assert_eq!(median_per(v), vec![3.0, 4.5, f64::INFINITY]);
    }

    #[test]
    fn infinite_samples_sort_last() {
        let v = [1.0, f64::INFINITY, 2.0];
        assert_eq!(median(&v), 2.0);
        assert!(quantile(&v, 1.0).is_infinite());
        assert!(quantile(&v, 0.9).is_infinite());
    }
}
