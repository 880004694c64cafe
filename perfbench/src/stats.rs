//! Order statistics over latency samples.

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p`% of the sample at or below it. 0 on an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Samples strictly beyond the nearest-rank `p`th percentile of `n`.
fn beyond(n: usize, p: u32) -> usize {
    n - (n * p as usize).div_ceil(100)
}

/// The tail percentile a sample of `n` supports: the highest of 99, 95
/// and 90 with at least ten samples beyond it, or 100 (the maximum)
/// when even p90 has fewer.
pub fn tail_percentile(n: usize) -> u32 {
    [99, 95, 90]
        .into_iter()
        .find(|&p| beyond(n, p) >= 10)
        .unwrap_or(100)
}

/// `(percentile, value)` of an ascending sample's tail.
pub fn tail(sorted: &[f64]) -> (u32, f64) {
    let p = tail_percentile(sorted.len());
    (p, percentile(sorted, f64::from(p)))
}

/// The fewest samples a segment of [`segmented_tail`] holds: enough for
/// a p99 with ten samples beyond it.
const SEGMENT: usize = 1000;

/// `(percentile, value)` of a run's tail from its samples in arrival
/// order: cut into as many consecutive segments of at least [`SEGMENT`]
/// as fit, up to four (one when there are fewer), the [`tail`] of each,
/// and the median of those. A host stall long enough to move a p99
/// falls into one segment and moves that segment's value only.
pub fn segmented_tail(in_order: &[f64]) -> (u32, f64) {
    let n = in_order.len();
    let k = (n / SEGMENT).clamp(1, 4);
    let values: Vec<f64> = (0..k)
        .map(|i| {
            let mut seg = in_order[i * n / k..(i + 1) * n / k].to_vec();
            seg.sort_by(f64::total_cmp);
            tail(&seg).1
        })
        .collect();
    (tail_percentile(n / k), median(&values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(2000), 99);
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(999), 95);
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(199), 90);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(99), 100);
        assert_eq!(tail_percentile(0), 100);
        for n in 100..3000 {
            let p = tail_percentile(n);
            assert!(beyond(n, p) >= 10, "n={n} p={p}");
            if p < 99 {
                assert!(beyond(n, p + if p == 95 { 4 } else { 5 }) < 10, "n={n}");
            }
        }
    }

    #[test]
    fn a_stall_in_one_segment_leaves_the_segmented_tail() {
        let calm: Vec<f64> = (0..4000).map(|i| f64::from(i % 1000)).collect();
        assert_eq!(segmented_tail(&calm), (99, 989.0));
        let mut stalled = calm.clone();
        stalled[1000..1100].fill(1e6);
        assert_eq!(segmented_tail(&stalled), (99, 989.0));
        let mut sorted = stalled;
        sorted.sort_by(f64::total_cmp);
        assert_eq!(tail(&sorted), (99, 1e6));
        // Fewer than two segments' worth: the whole sample's tail.
        let small: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(segmented_tail(&small), tail(&small));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(tail(&v), (95, 190.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
