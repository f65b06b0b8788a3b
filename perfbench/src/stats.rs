//! Order statistics for reported timings.
//!
//! Percentiles are nearest-rank: the value at rank `ceil(q·n)` of the sorted
//! sample. A percentile is only *supported* when at least
//! [`MIN_BEYOND`] samples lie beyond its rank; with fewer, the value is the
//! maximum of a handful of draws and says little about the tail.

/// Samples that must lie beyond a percentile's rank for it to be supported.
pub const MIN_BEYOND: usize = 10;

/// One percentile of a sample, with the sample size behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// Nearest-rank value.
    pub value: f64,
    /// Sample size.
    pub samples: usize,
    /// Samples ranked strictly beyond the percentile's rank.
    pub beyond: usize,
}

impl Percentile {
    /// Whether the sample is large enough to report this percentile.
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// 1-based nearest rank of quantile `q` (0 < q ≤ 1) in a sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `q` (0 < q ≤ 1) of an ascending-sorted sample;
/// `None` on an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> Option<Percentile> {
    if sorted.is_empty() {
        return None;
    }
    let r = rank(sorted.len(), q);
    Some(Percentile {
        value: sorted[r - 1],
        samples: sorted.len(),
        beyond: sorted.len() - r,
    })
}

/// Sort a sample ascending (NaN-free input assumed; NaNs sort last).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median (nearest-rank p50) of an unsorted sample; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5).map_or(0.0, |p| p.value)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
    }
}

/// Boundaries of the whole slices of `slice_s` seconds in a window of
/// `window_s` seconds; a last, partial slice is left out.
pub fn time_bounds(slice_s: f64, window_s: f64) -> Vec<f64> {
    let whole = (window_s / slice_s).floor() as usize;
    (0..=whole).map(|i| i as f64 * slice_s).collect()
}

/// The values whose times fall in each slice `[bounds[i], bounds[i + 1])`.
pub fn slices(times: &[f64], values: &[f64], bounds: &[f64]) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); bounds.len().saturating_sub(1)];
    for (&t, &v) in times.iter().zip(values) {
        let i = bounds.partition_point(|&b| b <= t);
        if i >= 1 && i < bounds.len() {
            out[i - 1].push(v);
        }
    }
    out
}

/// Nearest-rank percentile `q` of each slice, summarized by the median over
/// slices; `beyond` is the smallest over slices, so the result is supported
/// only when every slice supports it.
pub fn sliced_percentile(slices: &[Vec<f64>], q: f64) -> Option<Percentile> {
    let per_slice: Vec<Percentile> = slices
        .iter()
        .map(|s| percentile(&sorted(s.clone()), q))
        .collect::<Option<Vec<_>>>()?;
    let values: Vec<f64> = per_slice.iter().map(|p| p.value).collect();
    Some(Percentile {
        value: median(&values),
        samples: per_slice.iter().map(|p| p.samples).min()?,
        beyond: per_slice.iter().map(|p| p.beyond).min()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_keep_only_full_slices_and_take_the_median() {
        // Three whole one-second slices (the fourth is cut off by the window).
        let bounds = time_bounds(1.0, 3.5);
        assert_eq!(bounds, vec![0.0, 1.0, 2.0, 3.0]);
        let done = [0.1, 0.2, 1.1, 1.5, 1.9, 2.5, 3.2];
        let vals = [1.0, 2.0, 10.0, 20.0, 30.0, 5.0, 99.0];
        let s = slices(&done, &vals, &bounds);
        assert_eq!(s, vec![vec![1.0, 2.0], vec![10.0, 20.0, 30.0], vec![5.0]]);
        let p = sliced_percentile(&s, 1.0).unwrap();
        // Slice maxima 2, 30, 5: median 5; the smallest slice has 1 sample.
        assert_eq!((p.value, p.samples, p.beyond), (5.0, 1, 0));
        assert!(sliced_percentile(&[vec![1.0], vec![]], 0.5).is_none());
        // Uneven slices, e.g. one per pass of a job mix.
        let s = slices(
            &[0.0, 4.0, 4.5, 9.0],
            &[1.0, 2.0, 3.0, 4.0],
            &[0.0, 4.0, 9.0, 14.0],
        );
        assert_eq!(s, vec![vec![1.0], vec![2.0, 3.0], vec![4.0]]);
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5).unwrap().value, 5.0);
        assert_eq!(percentile(&s, 0.9).unwrap().value, 9.0);
        assert_eq!(percentile(&s, 0.91).unwrap().value, 10.0);
        assert_eq!(percentile(&s, 0.99).unwrap().value, 10.0);
        assert_eq!(percentile(&s, 1.0).unwrap().value, 10.0);
        // The smallest quantile still maps to rank 1.
        assert_eq!(percentile(&s, 0.001).unwrap().value, 1.0);
        assert_eq!(percentile(&[7.0], 0.99).unwrap().value, 7.0);
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let sample = |n: usize| sorted((0..n).map(|i| i as f64).collect());
        // p99 of 1000: rank 990, ten beyond.
        let p = percentile(&sample(1000), 0.99).unwrap();
        assert_eq!((p.beyond, p.supported()), (10, true));
        // p99 of 999: rank 990, nine beyond.
        let p = percentile(&sample(999), 0.99).unwrap();
        assert_eq!((p.beyond, p.supported()), (9, false));
        // p90 needs 100 samples, p50 needs 20.
        assert!(percentile(&sample(100), 0.9).unwrap().supported());
        assert!(!percentile(&sample(99), 0.9).unwrap().supported());
        assert!(percentile(&sample(20), 0.5).unwrap().supported());
        assert!(!percentile(&sample(19), 0.5).unwrap().supported());
    }

    #[test]
    fn summaries() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }
}
