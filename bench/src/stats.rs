//! The benchmark's own arithmetic: nearest-rank percentiles, the
//! completion-gap series, and the share partition.

use std::time::Instant;

/// Nearest-rank percentile of an ascending-sorted sample set: the smallest
/// sample with at least `p` of the samples at or below it.  Zero when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len() as u64, p) as usize - 1]
}

/// The 1-based nearest rank of quantile `p` among `n` samples.
fn rank(n: u64, p: f64) -> u64 {
    ((p * n as f64).ceil() as u64).clamp(1, n)
}

/// Median of a small float sample (mean of the middle pair when even).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Gaps below this many nanoseconds are counted exactly in a table; slower
/// ones, far fewer per second by definition, are kept one by one.
const FINE_NS: usize = 1 << 16;

/// An exact multiset of gaps in bounded memory.
struct Gaps {
    fine: Vec<u32>,
    coarse: Vec<u64>,
    count: u64,
    /// The range of `fine` in use, so that passes over it stay short.
    used: std::ops::Range<usize>,
}

impl Gaps {
    fn new() -> Self {
        Self {
            fine: vec![0; FINE_NS],
            coarse: Vec::with_capacity(1 << 12),
            count: 0,
            used: 0..0,
        }
    }

    fn push(&mut self, gap_ns: u64) {
        self.count += 1;
        let i = gap_ns as usize;
        match self.fine.get_mut(i) {
            Some(slot) => {
                *slot += 1;
                self.used = if self.used.is_empty() {
                    i..i + 1
                } else {
                    self.used.start.min(i)..self.used.end.max(i + 1)
                };
            }
            None => self.coarse.push(gap_ns),
        }
    }

    /// Nearest-rank percentile, in nanoseconds; zero when empty.
    fn percentile(&mut self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = rank(self.count, p);
        let mut seen = 0u64;
        for ns in self.used.clone() {
            seen += self.fine[ns] as u64;
            if seen >= target {
                return ns as u64;
            }
        }
        self.coarse.sort_unstable();
        self.coarse[(target - seen) as usize - 1]
    }

    /// Moves everything into `into`, leaving this empty.
    fn drain_into(&mut self, into: &mut Gaps) {
        for ns in self.used.clone() {
            into.fine[ns] += std::mem::take(&mut self.fine[ns]);
        }
        if !self.used.is_empty() {
            into.used = if into.used.is_empty() {
                self.used.clone()
            } else {
                into.used.start.min(self.used.start)..into.used.end.max(self.used.end)
            };
        }
        into.coarse.append(&mut self.coarse);
        into.count += std::mem::take(&mut self.count);
        self.used = 0..0;
    }
}

/// The host-time gaps between successive op completions, slice by slice.
///
/// At depth 1 a gap is the op's wall latency; in general the mean gap is host
/// time per op.  Percentiles are exact (nearest rank over every gap), yet the
/// memory is bounded — a 2-million-op window must not show up in the
/// workload's own `peak_rss_mb`.
pub struct GapSeries {
    slice: Gaps,
    window: Gaps,
    last: Instant,
}

impl GapSeries {
    /// An empty series whose first gap is measured from `start`.
    pub fn new(start: Instant) -> Self {
        Self {
            slice: Gaps::new(),
            window: Gaps::new(),
            last: start,
        }
    }

    /// Records an op completing at `at`.
    pub fn complete(&mut self, at: Instant) {
        let gap = at.saturating_duration_since(self.last).as_nanos() as u64;
        self.last = at;
        self.slice.push(gap);
    }

    /// Closes the current slice: returns its median gap and folds its gaps
    /// into the window's.
    pub fn end_slice(&mut self) -> u64 {
        let median = self.slice.percentile(0.50);
        self.slice.drain_into(&mut self.window);
        median
    }

    /// Completions recorded in closed slices.
    pub fn len(&self) -> u64 {
        self.window.count
    }

    /// Nearest-rank percentile over every gap of the closed slices, in
    /// nanoseconds.
    pub fn percentile(&mut self, p: f64) -> u64 {
        self.window.percentile(p)
    }
}

/// Nearest-rank percentile of an unsorted float sample.
pub fn percentile_of(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    values[rank(values.len() as u64, p) as usize - 1]
}

/// Each part's share of the parts' sum.  The first share is computed as
/// what the others leave, so the shares add up to exactly 1; all zeros when
/// there is nothing to share.
pub fn shares<const N: usize>(parts: [f64; N]) -> [f64; N] {
    let total: f64 = parts.iter().sum();
    let mut out = [0.0; N];
    if total <= 0.0 {
        return out;
    }
    let mut rest = 1.0;
    for i in 1..N {
        out[i] = parts[i] / total;
        rest -= out[i];
    }
    out[0] = rest;
    out
}

/// `a / b`, or zero when `b` is zero: per-op normalisation of counters.
pub fn per(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nearest_rank_percentile() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.50), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        // Five samples: p50 is the third, p90 the fifth.
        assert_eq!(percentile(&[10, 20, 30, 40, 50], 0.5), 30);
        assert_eq!(percentile(&[10, 20, 30, 40, 50], 0.9), 50);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn gap_series_matches_a_sorted_vector() {
        let start = Instant::now();
        let mut series = GapSeries::new(start);
        // Gaps on both sides of the fine/coarse boundary.
        let gaps: Vec<u64> = vec![5, 70_000, 12, 12, 1_000_000, 65_535, 65_536, 9];
        let mut at = start;
        for &g in &gaps {
            at += Duration::from_nanos(g);
            series.complete(at);
        }
        assert_eq!(series.len(), 0, "gaps count once their slice is closed");
        series.end_slice();
        assert_eq!(series.len(), gaps.len() as u64);
        let mut sorted = gaps.clone();
        sorted.sort_unstable();
        for p in [0.0, 0.1, 0.5, 0.75, 0.9, 0.99, 1.0] {
            assert_eq!(series.percentile(p), percentile(&sorted, p), "p={p}");
        }
    }

    #[test]
    fn gaps_are_differences_of_successive_completions() {
        let start = Instant::now();
        let mut series = GapSeries::new(start);
        series.complete(start + Duration::from_nanos(100));
        series.complete(start + Duration::from_nanos(350));
        series.complete(start + Duration::from_nanos(360));
        assert_eq!(series.end_slice(), 100);
        assert_eq!(series.percentile(0.0), 10);
        assert_eq!(series.percentile(0.5), 100);
        assert_eq!(series.percentile(1.0), 250);
    }

    #[test]
    fn slices_have_their_own_median_and_fold_into_the_window() {
        let start = Instant::now();
        let mut series = GapSeries::new(start);
        let mut at = start;
        let mut medians = Vec::new();
        for slice in [[10u64, 20, 30], [1_000, 2_000, 70_000], [5, 5, 5]] {
            for g in slice {
                at += Duration::from_nanos(g);
                series.complete(at);
            }
            medians.push(series.end_slice());
        }
        assert_eq!(medians, [20, 2_000, 5]);
        assert_eq!(series.len(), 9);
        assert_eq!(series.percentile(0.5), 20);
        assert_eq!(series.percentile(1.0), 70_000);
        assert_eq!(series.end_slice(), 0, "an empty slice has no median");
    }

    #[test]
    fn float_percentile_is_nearest_rank() {
        assert_eq!(percentile_of(&mut [3.0, 1.0, 4.0, 2.0], 0.75), 3.0);
        assert_eq!(percentile_of(&mut [3.0, 1.0, 2.0], 0.75), 3.0);
        assert_eq!(percentile_of(&mut [3.0, 1.0, 2.0], 0.25), 1.0);
        assert_eq!(percentile_of(&mut [], 0.5), 0.0);
    }

    #[test]
    fn shares_sum_to_one() {
        let s = shares([3.5, 3.0, 1.0, 2.5]);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((s[0] - 0.35).abs() < 1e-12 && (s[3] - 0.25).abs() < 1e-12);
        assert_eq!(shares([0.0, 0.0]), [0.0, 0.0]);
    }
}
