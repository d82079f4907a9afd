//! The benchmark's own metric math: percentiles, the tail rule, span self
//! time and coverage, and the error rate. Pure functions over plain
//! numbers, so the unit tests below pin every rule exactly.

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples, in
/// integer arithmetic so whole percentiles never round the wrong way.
fn rank(n: usize, p: u32) -> usize {
    (p as usize * n).div_ceil(100).clamp(1, n)
}

/// How many samples lie strictly beyond the `p`-th percentile's rank.
pub fn samples_beyond(n: usize, p: u32) -> usize {
    n - rank(n, p)
}

/// The highest whole percentile (50 to 99) that still has at least
/// `min_beyond` samples beyond it among `n` samples, or `None` when not
/// even the median does. Workloads fix their tail percentile from this
/// rule at their expected sample count.
pub fn tail_percentile(n: usize, min_beyond: usize) -> Option<u32> {
    (50..=99)
        .rev()
        .find(|&p| n > 0 && samples_beyond(n, p) >= min_beyond)
}

/// The smallest sample count at which percentile `p` has at least
/// `min_beyond` samples beyond it. Samples beyond a fixed percentile
/// never fall as the count grows, so the rule holds from here on.
pub fn min_samples(p: u32, min_beyond: usize) -> usize {
    assert!(p < 100, "no sample lies beyond the maximum");
    (1..)
        .find(|&n| samples_beyond(n, p) >= min_beyond)
        .expect("some count keeps the samples beyond")
}

/// Median of an unsorted sample (the mean of the two middle values for an
/// even count). `0.0` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median over passes of each pass's median, for a sample made of whole
/// passes of `pass_len` values in order (a trailing partial pass is
/// ignored). Every pass holds the same mix, so one slow value moves only
/// its own pass's median, never the result.
pub fn median_of_pass_medians(values: &[f64], pass_len: usize) -> f64 {
    let medians: Vec<f64> = values.chunks_exact(pass_len).map(median).collect();
    median(&medians)
}

/// Failed operations over attempted ones; `0.0` when nothing was tried.
pub fn error_rate(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Total length of the union of half-open intervals `[start, end)`,
/// each clipped to `[lo, hi)`. Overlapping and nested intervals count once.
pub fn covered(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    (end - start) - covered(children, start, end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 5.0);
        assert_eq!(percentile(&v, 90), 9.0);
        assert_eq!(percentile(&v, 91), 10.0);
        assert_eq!(percentile(&v, 0), 1.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 100 samples: p90 has exactly 10 beyond it, p91 only 9.
        assert_eq!(tail_percentile(100, 10), Some(90));
        assert_eq!(samples_beyond(100, 90), 10);
        assert_eq!(samples_beyond(100, 91), 9);
        // 1000 samples: p99 has 10 beyond it.
        assert_eq!(tail_percentile(1000, 10), Some(99));
        // 77 samples: p87 ranks 67 (10 beyond), p88 ranks 68 (9 beyond).
        assert_eq!(tail_percentile(77, 10), Some(87));
        // 20 samples: the median has exactly 10 beyond it.
        assert_eq!(tail_percentile(20, 10), Some(50));
        // Too few samples for any tail.
        assert_eq!(tail_percentile(19, 10), None);
        assert_eq!(tail_percentile(0, 10), None);
        // Whatever is picked really has the samples beyond it.
        for n in 20..500 {
            let p = tail_percentile(n, 10).unwrap();
            assert!(samples_beyond(n, p) >= 10);
            if p < 99 {
                assert!(samples_beyond(n, p + 1) < 10);
            }
        }
    }

    #[test]
    fn min_samples_is_the_first_count_meeting_the_rule() {
        // p80: 50 samples rank 40, 10 beyond; 49 rank 40, 9 beyond.
        assert_eq!(min_samples(80, 10), 50);
        assert_eq!(samples_beyond(49, 80), 9);
        assert_eq!(min_samples(95, 10), 200);
        assert_eq!(min_samples(50, 10), 20);
        for p in 50..=99 {
            let n = min_samples(p, 10);
            assert!(samples_beyond(n, p) >= 10);
            assert!(samples_beyond(n - 1, p) < 10);
            assert!((n..n + 1000).all(|m| samples_beyond(m, p) >= 10));
        }
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn self_time_with_nested_and_overlapping_children() {
        // Parent [0, 100): children [10, 30) and [20, 50) overlap, so
        // together they cover [10, 50) = 40; self time 60.
        assert_eq!(self_time(0, 100, &[(10, 30), (20, 50)]), 60);
        // A child nested inside another child counts once.
        assert_eq!(self_time(0, 100, &[(10, 60), (20, 30)]), 50);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time(10, 50, &[(0, 20), (40, 90)]), 20);
        // Touching children merge; disjoint ones add.
        assert_eq!(self_time(0, 100, &[(0, 10), (10, 20), (50, 60)]), 70);
        // No children: the whole span is self time.
        assert_eq!(self_time(5, 9, &[]), 4);
        // Children covering everything leave nothing.
        assert_eq!(self_time(0, 10, &[(0, 10), (2, 3)]), 0);
    }

    #[test]
    fn coverage_is_union_of_children_inside_the_root() {
        assert_eq!(covered(&[(0, 10), (5, 15), (30, 40)], 0, 100), 25);
        assert_eq!(covered(&[(0, 10)], 20, 30), 0);
        assert_eq!(covered(&[], 0, 10), 0);
        assert_eq!(covered(&[(3, 3)], 0, 10), 0);
    }

    #[test]
    fn pass_medians_shrug_off_one_slow_verdict() {
        // Four rows, five passes: each pass's median is (2 + 10) / 2.
        let pass = [1.0, 2.0, 10.0, 20.0];
        let mut v: Vec<f64> = pass.repeat(5);
        assert_eq!(median_of_pass_medians(&v, 4), 6.0);
        // The second row runs slow once: the pooled median (the mean of
        // the two middle values, both row edges) moves, the pass median
        // of the other passes holds.
        let pooled = median(&v);
        v[5] = 9.0;
        assert_eq!(median_of_pass_medians(&v, 4), 6.0);
        assert!(median(&v) > pooled);
        // A partial last pass is left out.
        v.push(100.0);
        assert_eq!(median_of_pass_medians(&v, 4), 6.0);
        assert_eq!(median_of_pass_medians(&[], 4), 0.0);
    }

    #[test]
    fn error_rate_counts_failures_against_attempts() {
        assert_eq!(error_rate(0, 0), 0.0);
        assert_eq!(error_rate(10, 0), 0.0);
        assert_eq!(error_rate(8, 2), 0.25);
        assert_eq!(error_rate(3, 3), 1.0);
    }
}
