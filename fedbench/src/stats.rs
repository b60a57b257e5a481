//! Summary statistics of the benchmark: percentiles, geometric means and
//! the open-loop capacity rule.

use std::time::Duration;

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// element whose rank `ceil(q * n)` covers quantile `q`. `None` when empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest of the candidate quantiles (p99, p95, p90, p75, p50) that
/// leaves at least [`TAIL_BEYOND`] of `n` samples above its nearest rank,
/// or `None` when even the median does not.
pub fn tail_quantile(n: usize) -> Option<f64> {
    [0.99, 0.95, 0.90, 0.75, 0.50]
        .into_iter()
        .find(|&q| n.saturating_sub((q * n as f64).ceil() as usize) >= TAIL_BEYOND)
}

/// Median of unsorted samples (nearest rank). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 0.5)
}

/// Geometric mean of positive values. `None` when empty or when a value
/// is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty()
        || values
            .iter()
            .any(|v| v.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater))
    {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Each non-empty cell's fastest sample (min-of-N).
pub fn cell_mins<'a>(cells: impl IntoIterator<Item = &'a Vec<f64>>) -> Vec<f64> {
    cells
        .into_iter()
        .filter_map(|c| c.iter().copied().reduce(f64::min))
        .collect()
}

/// Mean of samples. `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Each non-empty cell's mean sample.
pub fn cell_means<'a>(cells: impl IntoIterator<Item = &'a Vec<f64>>) -> Vec<f64> {
    cells.into_iter().filter_map(|c| mean(c)).collect()
}

/// How much slower `other` is than `base`, as a fraction: the ratio of
/// their sums minus one. Both hold the same cells' minima, in the same
/// order. `None` when they differ in length or `base` sums to zero.
pub fn slowdown(base: &[f64], other: &[f64]) -> Option<f64> {
    let total = base.iter().sum::<f64>();
    (base.len() == other.len() && total > 0.0).then(|| other.iter().sum::<f64>() / total - 1.0)
}

/// One served job, as the capacity rule sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Served {
    /// Simulated arrival.
    pub arrival: Duration,
    /// Simulated admission (`>= arrival`).
    pub admitted: Duration,
    /// Arrival to finish.
    pub latency: Duration,
}

/// The latency tail of one rate: the [`tail_quantile`] of its job
/// latencies, in ms. `None` when there are too few jobs.
pub fn latency_tail_ms(jobs: &[Served]) -> Option<f64> {
    let mut ms: Vec<f64> = jobs.iter().map(|j| j.latency.as_secs_f64() * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    nearest_rank(&ms, tail_quantile(ms.len())?)
}

/// True when the admission queue did not grow over the run: the median
/// wait of the last quarter of arrivals is no larger than that of the
/// first quarter.
pub fn backlog_stable(jobs: &[Served]) -> bool {
    let mut by_arrival = jobs.to_vec();
    by_arrival.sort_by_key(|j| j.arrival);
    let quarter = by_arrival.len() / 4;
    if quarter == 0 {
        return true;
    }
    let wait = |js: &[Served]| {
        let w: Vec<f64> = js
            .iter()
            .map(|j| (j.admitted - j.arrival).as_secs_f64())
            .collect();
        median(&w).unwrap_or(0.0)
    };
    wait(&by_arrival[by_arrival.len() - quarter..]) <= wait(&by_arrival[..quarter])
}

/// The highest offered rate whose latency tail is at most `limit_ms` and
/// whose backlog does not grow; 0 when no rate qualifies.
pub fn capacity(rates: &[(f64, Vec<Served>)], limit_ms: f64) -> f64 {
    rates
        .iter()
        .filter(|(_, jobs)| {
            latency_tail_ms(jobs).is_some_and(|t| t <= limit_ms) && backlog_stable(jobs)
        })
        .map(|(rate, _)| *rate)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_covering_element() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&v, 0.51), Some(6.0));
        assert_eq!(nearest_rank(&v, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        // 128 jobs: p95 leaves 6 beyond, p90 leaves 12.
        assert_eq!(tail_quantile(128), Some(0.90));
        // 200 samples: p95 is rank 190, exactly 10 beyond.
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(199), Some(0.90));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(20), Some(0.50));
        assert_eq!(tail_quantile(19), None);
    }

    #[test]
    fn geomean_of_cell_minima() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        // Minima 2 and 8, whatever the slow samples around them.
        let cells = [vec![3.0, 2.0, 100.0], vec![8.0, 9.0, 80.0], vec![]];
        assert_eq!(cell_mins(&cells), vec![2.0, 8.0]);
        assert!((geomean(&cell_mins(&cells)).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), Some(2.0));
    }

    #[test]
    fn slowdown_compares_summed_minima() {
        let base = cell_mins(&[vec![2.0, 1.0], vec![3.0]]);
        let traced = cell_mins(&[vec![1.5, 1.2], vec![3.3, 3.6]]);
        let s = slowdown(&base, &traced).unwrap();
        assert!((s - 0.125).abs() < 1e-12, "{s}");
        assert_eq!(slowdown(&base, &traced[..1]), None);
        assert_eq!(slowdown(&[], &[]), None);
    }

    #[test]
    fn cell_means_skip_empty_cells() {
        assert_eq!(cell_means(&[vec![1.0, 2.0], vec![], vec![4.0]]), [1.5, 4.0]);
        assert_eq!(mean(&[]), None);
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    /// `n` jobs one second apart, each waiting `wait(i)` and then
    /// running `run` ms.
    fn jobs(n: u64, run: u64, wait: impl Fn(u64) -> u64) -> Vec<Served> {
        (0..n)
            .map(|i| Served {
                arrival: ms(1000 * i),
                admitted: ms(1000 * i + wait(i)),
                latency: ms(wait(i) + run),
            })
            .collect()
    }

    #[test]
    fn capacity_needs_both_the_tail_and_a_stable_backlog() {
        let ok = jobs(40, 500, |_| 0);
        let slow = jobs(40, 5000, |_| 0);
        let growing = jobs(40, 100, |i| 50 * i);
        assert!(backlog_stable(&ok));
        assert!(!backlog_stable(&growing));
        assert_eq!(latency_tail_ms(&ok), Some(500.0));
        assert_eq!(latency_tail_ms(&jobs(5, 1, |_| 0)), None);
        let rates = vec![(1.0, ok.clone()), (2.0, ok.clone()), (4.0, slow)];
        assert_eq!(capacity(&rates, 4000.0), 2.0);
        // The growing queue's tail (p75: 100 + 50*29 ms) is within the limit,
        // but its backlog rules rate 4 out.
        let rates = vec![(1.0, ok.clone()), (4.0, growing)];
        assert_eq!(capacity(&rates, 4000.0), 1.0);
        assert_eq!(capacity(&[(1.0, jobs(40, 9000, |_| 0))], 4000.0), 0.0);
    }
}
