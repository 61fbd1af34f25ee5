//! Order statistics over measured samples.

/// The `p`-quantile (`p` in `[0, 1]`) of `sorted`, interpolating
/// linearly between the two closest ranks (the "type 7" estimator of
/// R and NumPy's default). `sorted` must be ascending; an empty slice
/// gives NaN.
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "percentile: p must be in [0, 1]");
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = p * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = rank - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// The `p`-quantile of unsorted `values` (see [`percentile_sorted`]).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The `p`-quantile of each of `chunks` equal consecutive slices of
/// `values`, in arrival order (a remainder shorter than a chunk is
/// dropped; no chunks when there are fewer values than chunks).
pub fn chunk_percentiles(values: &[f64], chunks: usize, p: f64) -> Vec<f64> {
    assert!(chunks > 0, "chunk_percentiles: need at least one chunk");
    let size = values.len() / chunks;
    if size == 0 {
        return Vec::new();
    }
    values
        .chunks_exact(size)
        .take(chunks)
        .map(|c| percentile(c, p))
        .collect()
}

/// Events per second in each full `window_ns` window of
/// `[0, span_ns)`, given event times in nanoseconds.
pub fn window_rates(times_ns: &[u64], window_ns: u64, span_ns: u64) -> Vec<f64> {
    let mut counts = vec![0u64; (span_ns / window_ns) as usize];
    for &t in times_ns {
        if let Some(c) = counts.get_mut((t / window_ns) as usize) {
            *c += 1;
        }
    }
    counts
        .iter()
        .map(|&c| c as f64 * 1e9 / window_ns as f64)
        .collect()
}

/// The second-lowest of `values` — best-of-N for figures where lower
/// is better, without trusting the single luckiest one. The lowest of
/// a single value; NaN for none.
pub fn second_lowest(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
        .get(1)
        .or(sorted.first())
        .copied()
        .unwrap_or(f64::NAN)
}

/// The second-highest of `values` (see [`second_lowest`]).
pub fn second_highest(values: &[f64]) -> f64 {
    let negated: Vec<f64> = values.iter().map(|v| -v).collect();
    -second_lowest(&negated)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        // rank 0.9 * 3 = 2.7 → 3 + 0.7 * (4 - 3)
        assert!((percentile(&v, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let v = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(median(&v), 5.0);
        assert_eq!(percentile(&v, 0.25), 3.0);
        assert_eq!(percentile(&v, 0.75), 7.0);
    }

    #[test]
    fn chunk_percentiles_take_each_chunks_quantile() {
        // Three chunks of four; the middle one holds an outlier burst,
        // and the trailing value is a remainder.
        let v = [
            1.0, 1.0, 1.0, 2.0, 50.0, 60.0, 70.0, 80.0, 1.0, 2.0, 2.0, 2.0, 99.0,
        ];
        let p50 = chunk_percentiles(&v, 3, 0.5);
        assert_eq!(p50, vec![1.0, 65.0, 2.0]);
        assert_eq!(second_lowest(&p50), 2.0);
        assert!(chunk_percentiles(&v[..2], 3, 0.5).is_empty());
    }

    #[test]
    fn window_rates_count_full_windows_only() {
        // 10 ms windows over 30 ms: 3, 1 and 2 events; the event at
        // 35 ms lies past the span.
        let t = [
            1_000_000, 2_000_000, 9_000_000, 15_000_000, 21_000_000, 29_000_000, 35_000_000,
        ];
        let rates = window_rates(&t, 10_000_000, 30_000_000);
        assert_eq!(rates, vec![300.0, 100.0, 200.0]);
        assert_eq!(second_highest(&rates), 200.0);
        assert!(window_rates(&t, 10_000_000, 5_000_000).is_empty());
    }

    #[test]
    fn second_best_skips_the_single_luckiest_value() {
        assert_eq!(second_lowest(&[5.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(second_highest(&[5.0, 1.0, 3.0, 2.0]), 3.0);
        assert_eq!(second_lowest(&[4.0]), 4.0);
        assert_eq!(second_highest(&[4.0]), 4.0);
        assert!(second_lowest(&[]).is_nan());
    }

    #[test]
    fn percentile_edge_cases() {
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(percentile(&[42.0], 0.9), 42.0);
        // p90 of 1..=100 is 90.1 under linear interpolation.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&v, 0.9) - 90.1).abs() < 1e-9);
        assert!((percentile(&v, 0.99) - 99.01).abs() < 1e-9);
    }
}
