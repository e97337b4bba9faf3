//! The few statistics every reported number goes through.

/// Median of `values` (mean of the two middle ones for an even count).
///
/// # Panics
///
/// Panics on an empty slice: a phase that produced no sample is a bug in
/// the benchmark, not a value to report.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice.
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of an unsorted slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_of_sorted(&sorted, p)
}

// Interference on this machine comes in bursts of one to two seconds during
// which the same code runs about 1.7 times slower, a quarter of the time on
// a bad day.  It only ever adds time, so every reported number is taken at
// the quiet end of its repetitions, by one of the two rules below.  A median
// over rounds or slices instead slides with the share of them a burst hit.

/// Work that can be repeated unchanged (queries against a static index):
/// every query's fastest execution over the rounds, then the median over
/// queries.  `rounds[r][q]` is query `q`'s latency in round `r`.
pub fn median_of_fastest(rounds: &[Vec<f64>]) -> f64 {
    let queries = rounds.iter().map(Vec::len).min().unwrap_or(0);
    let fastest: Vec<f64> = (0..queries)
        .map(|q| rounds.iter().map(|r| r[q]).fold(f64::INFINITY, f64::min))
        .collect();
    median(&fastest)
}

/// Work that cannot be repeated (ops against a tenant that grows): the
/// median of every slice, then the lower quartile over slices.  Stays on an
/// undisturbed slice as long as bursts hit fewer than three slices in four.
pub fn quiet_latency(slices: &[Vec<f64>]) -> f64 {
    // A slice of a very short run may hold no op of the kind: skipped.
    let medians: Vec<f64> = slices
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| median(s))
        .collect();
    percentile(&medians, 25.0)
}

/// The same rule for a throughput: `per_op` is what one op carries
/// (points), every slice's rate is its ops over its summed time, and the
/// upper quartile over slices is reported.  One stalled fsync (170 ms was
/// seen) costs one slice; over total time it would cost a third of the rate.
pub fn quiet_rate(slices_s: &[Vec<f64>], per_op: f64) -> f64 {
    let rates: Vec<f64> = slices_s
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| s.len() as f64 * per_op / s.iter().sum::<f64>())
        .collect();
    percentile(&rates, 75.0)
}

/// The highest percentile that still has at least ten samples beyond it,
/// or `None` when even p90 has fewer (1 200 samples → p99, 48 → none).
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| samples as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
}

/// Value of [`highest_supported_percentile`] over `values`, or the maximum
/// when no percentile is supported (so the tail metric is never absent).
pub fn tail(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match highest_supported_percentile(sorted.len()) {
        Some(p) => percentile_of_sorted(&sorted, p),
        None => *sorted.last().expect("tail of no samples"),
    }
}

pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn a_burst_over_most_of_two_rounds_does_not_move_the_median_of_fastest() {
        let quiet = [1.0, 3.0, 2.0, 5.0, 4.0];
        let burst = |hit: &[usize]| -> Vec<f64> {
            quiet
                .iter()
                .enumerate()
                .map(|(q, v)| if hit.contains(&q) { v * 1.7 } else { *v })
                .collect()
        };
        // Every query is hit in two of its three executions.
        let rounds = vec![burst(&[0, 1, 2]), burst(&[0, 3, 4]), burst(&[1, 2, 3, 4])];
        assert_eq!(median_of_fastest(&rounds), 3.0);
        // The median of the round medians has moved.
        let round_medians: Vec<f64> = rounds.iter().map(|r| median(r)).collect();
        assert!(median(&round_medians) > 3.0);
        // Rounds of unequal length: only the queries every round ran count.
        assert_eq!(
            median_of_fastest(&[vec![4.0, 2.0, 9.0], vec![3.0, 5.0]]),
            2.5
        );
    }

    #[test]
    fn bursts_over_half_the_slices_leave_the_quiet_quartile_on_a_quiet_slice() {
        let quiet: Vec<Vec<f64>> = (0..8).map(|s| vec![1.0 + 0.01 * s as f64; 5]).collect();
        let mut hit = quiet.clone();
        for slice in hit.iter_mut().step_by(2) {
            slice.iter_mut().for_each(|v| *v *= 1.7);
        }
        assert_eq!(quiet_latency(&quiet), 1.0 + 0.01 * 1.0);
        assert_eq!(
            quiet_latency(&hit),
            1.0 + 0.01 * 3.0,
            "still the latency of an undisturbed slice"
        );
        // Rates: 10 points per op, 0.5 s per op when quiet.
        let seconds: Vec<Vec<f64>> = (0..8)
            .map(|s| vec![if s % 2 == 0 { 0.85 } else { 0.5 }; 4])
            .collect();
        assert_eq!(quiet_rate(&seconds, 10.0), 20.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(1_200), Some(99.0));
        assert_eq!(highest_supported_percentile(48), None);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 25.0), 1.0);
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 75.0), 3.0);
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_of_sorted(&sorted, 50.0), 50.0);
        assert_eq!(percentile_of_sorted(&sorted, 99.0), 99.0);
        assert_eq!(percentile_of_sorted(&sorted, 100.0), 100.0);
        assert_eq!(percentile_of_sorted(&sorted, 0.0), 1.0);
        assert_eq!(tail(&sorted), 90.0);
        assert_eq!(tail(&[3.0, 9.0, 1.0]), 9.0);
    }
}
