//! Order statistics over measured samples.

/// Median of `samples` (mean of the middle pair for even counts); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Indices of the faster half (rounded up) of equal-work parts of a
/// run, given each part's cost in time. Neighbours on a shared host
/// only ever add time to a part, so the faster half measures the
/// program rather than the host: a slow stretch of the host changes
/// which parts are kept, not what they report.
pub fn faster_half(costs: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..costs.len()).collect();
    idx.sort_by(|&a, &b| costs[a].total_cmp(&costs[b]));
    idx.truncate(costs.len().div_ceil(2));
    idx
}

/// Median of `values` over the parts [`faster_half`] keeps.
pub fn median_of_faster_half(costs: &[f64], values: &[f64]) -> f64 {
    median(&faster_half(costs).iter().map(|&i| values[i]).collect::<Vec<_>>())
}

/// Median of the faster half of repeated timings of the same work.
pub fn faster_half_median(secs: &[f64]) -> f64 {
    median_of_faster_half(secs, secs)
}

/// Nearest-rank `p`-th percentile of an ascending slice.
fn rank(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let idx = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[idx.clamp(1, n) - 1]
}

/// A latency distribution: median, and the highest percentile up to
/// p99 that still has at least ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub count: usize,
    pub p50: f64,
    /// The percentile `tail` was taken at (99 when the sample allows).
    pub tail_pct: f64,
    pub tail: f64,
}

/// Summarize `samples`; `None` when there are fewer than 11 (no
/// percentile then has ten samples beyond it).
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= 10 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Samples beyond the nearest-rank p-th percentile: n - ceil(p·n/100).
    let beyond = |p: f64| n - ((p / 100.0) * n as f64).ceil() as usize;
    let mut tail_pct = 99.0;
    while beyond(tail_pct) < 10 {
        tail_pct -= 0.5;
    }
    Some(Tail { count: n, p50: rank(&sorted, 50.0), tail_pct, tail: rank(&sorted, tail_pct) })
}

/// [`tail`] of each of `chunks` consecutive slices of `samples`, then
/// the median across slices: a noise burst on the host moves one
/// slice's percentile, not the result.
pub fn chunked_tail(samples: &[f64], chunks: usize) -> Option<Tail> {
    let len = samples.len() / chunks;
    let parts: Vec<Tail> = samples.chunks_exact(len.max(1)).take(chunks).filter_map(tail).collect();
    if parts.len() < chunks {
        return None;
    }
    let pick = |f: fn(&Tail) -> f64| median(&parts.iter().map(f).collect::<Vec<_>>());
    Some(Tail {
        count: len,
        p50: pick(|t| t.p50),
        tail_pct: parts.iter().map(|t| t.tail_pct).fold(f64::INFINITY, f64::min),
        tail: pick(|t| t.tail),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_tail_takes_the_median_slice() {
        let mut samples: Vec<f64> = (0..5000).map(|i| f64::from(i % 1000)).collect();
        samples[1500..1600].iter_mut().for_each(|v| *v = 1e6);
        let t = chunked_tail(&samples, 5).expect("enough samples");
        assert_eq!(t.count, 1000);
        assert_eq!(t.tail, 989.0);
    }

    #[test]
    fn tail_falls_back_below_p99_on_small_samples() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&samples).expect("enough samples");
        assert_eq!(t.tail_pct, 90.0);
        assert_eq!(t.tail, 90.0);
        let big: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(tail(&big).expect("enough").tail_pct, 99.0);
        assert!(tail(&samples[..10]).is_none());
    }

    #[test]
    fn faster_half_keeps_the_cheapest_parts() {
        let costs = [5.0, 1.0, 9.0, 2.0, 3.0];
        assert_eq!(faster_half(&costs), vec![1, 3, 4]);
        let values = [50.0, 10.0, 90.0, 20.0, 30.0];
        assert_eq!(median_of_faster_half(&costs, &values), 20.0);
        assert!(faster_half(&[]).is_empty());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
