//! The benchmark's own statistics: medians, the tail-percentile rule and span
//! self time.

/// Percentiles the tail rule may report, highest first.
const TAIL_CANDIDATES: [f64; 4] = [99.0, 95.0, 90.0, 50.0];

/// A tail percentile and the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (99 when the sample supports it).
    pub pct: f64,
    /// The value at that percentile.
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
    /// Number of samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Returns `values` sorted ascending (NaN-free input assumed; NaNs sort last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// 1-based nearest rank of percentile `pct` over `n` samples.
fn rank(pct: f64, n: usize) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice; 0 for an empty slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(pct, sorted.len()) - 1]
}

/// Median of an ascending slice (nearest rank).
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 50.0)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest of p99/p95/p90/p50 that still has at least `min_beyond` samples
/// beyond its rank, so a tail is never read off a handful of samples. With
/// 1000 or more samples and `min_beyond = 10` this is p99. `None` when even
/// the median has fewer than `min_beyond` samples beyond it.
pub fn tail(sorted: &[f64], min_beyond: usize) -> Option<Tail> {
    let n = sorted.len();
    TAIL_CANDIDATES.iter().find_map(|&pct| {
        if n == 0 {
            return None;
        }
        let r = rank(pct, n);
        let beyond = n - r;
        (beyond >= min_beyond).then(|| Tail {
            pct,
            value: sorted[r - 1],
            samples: n,
            beyond,
        })
    })
}

/// Self time of a span `[start, end)`: its duration minus the part of it that
/// its children cover. Children may nest, overlap each other or stick out of
/// the parent; each instant of the parent is subtracted at most once.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    if end <= start {
        return 0;
    }
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_p99_from_one_thousand_samples() {
        let t = tail(&ramp(1000), 10).unwrap();
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 1000);
    }

    #[test]
    fn tail_falls_back_one_sample_below_the_p99_boundary() {
        // 999 samples: rank(p99) = 990, leaving only 9 beyond it.
        let t = tail(&ramp(999), 10).unwrap();
        assert_eq!(t.pct, 95.0);
        assert_eq!(t.value, 950.0);
        assert_eq!(t.beyond, 49);
    }

    #[test]
    fn tail_exact_boundaries_of_each_candidate() {
        // p95 needs n - ceil(0.95 n) >= 10: 200 samples is the smallest.
        assert_eq!(tail(&ramp(200), 10).unwrap().pct, 95.0);
        assert_eq!(tail(&ramp(199), 10).unwrap().pct, 90.0);
        // p90: 100 samples.
        assert_eq!(tail(&ramp(100), 10).unwrap().pct, 90.0);
        assert_eq!(tail(&ramp(99), 10).unwrap().pct, 50.0);
        // p50: 20 samples; below that no percentile qualifies.
        let t = tail(&ramp(20), 10).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 10.0, 10));
        assert_eq!(tail(&ramp(19), 10), None);
        assert_eq!(tail(&[], 10), None);
    }

    #[test]
    fn tail_ignores_input_order_once_sorted() {
        let mut v = ramp(1000);
        v.reverse();
        assert_eq!(tail(&sorted(&v), 10).unwrap().value, 990.0);
    }

    #[test]
    fn median_and_percentile_use_nearest_rank() {
        assert_eq!(median(&ramp(4)), 2.0);
        assert_eq!(median(&ramp(5)), 3.0);
        assert_eq!(percentile(&ramp(10), 100.0), 10.0);
        assert_eq!(percentile(&ramp(10), 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time((10, 50), &[]), 40);
        assert_eq!(self_time((10, 10), &[]), 0);
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 80)]), 60);
    }

    #[test]
    fn self_time_counts_nested_children_once() {
        // (20, 30) lies inside (10, 40): only the outer interval is covered.
        assert_eq!(self_time((0, 100), &[(10, 40), (20, 30)]), 70);
    }

    #[test]
    fn self_time_merges_overlapping_children() {
        // (10, 40) and (30, 60) overlap on (30, 40): covered = 50.
        assert_eq!(self_time((0, 100), &[(30, 60), (10, 40)]), 50);
        // A chain of overlaps collapses into one interval.
        assert_eq!(self_time((0, 100), &[(0, 30), (20, 50), (45, 70)]), 30);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time((10, 50), &[(0, 20), (40, 90)]), 20);
        assert_eq!(self_time((10, 50), &[(0, 100)]), 0);
        assert_eq!(self_time((10, 50), &[(60, 70)]), 40);
    }
}
