//! The benchmark's arithmetic: latency histograms, the percentile rule,
//! medians over time slices, and the recovery timeline measures.

/// Sub-buckets per power of two: 128 gives a resolution of 0.8 %.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Octaves above the linear range: values up to 2^(7+33) ns ≈ 18 min.
const OCTAVES: usize = 33;

/// Log-linear histogram of nanosecond samples. Fixed size, so memory (and
/// with it `rss_mb`) does not depend on how many samples a run produces.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; SUB * (OCTAVES + 1)],
            total: 0,
        }
    }
}

impl Histogram {
    fn index(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let octave = 63 - ns.leading_zeros() - SUB_BITS + 1;
        let sub = (ns >> (octave - 1)) as usize & (SUB - 1);
        ((octave as usize).min(OCTAVES) << SUB_BITS) + sub
    }

    /// Lowest value and width of bucket `i`, in nanoseconds.
    fn bounds(i: usize) -> (u64, u64) {
        let octave = i >> SUB_BITS;
        let sub = (i & (SUB - 1)) as u64;
        if octave == 0 {
            return (sub, 1);
        }
        let width = 1u64 << (octave - 1);
        ((SUB as u64 + sub) * width, width)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `rank`-th smallest sample (1-based, clamped to the sample);
    /// `None` when empty. Within its bucket the sample is placed by its rank
    /// among the bucket's samples, as if they were spread evenly: the result
    /// is within the bucket's width of the truth and does not snap to a
    /// grid (two runs of a steady workload must not read identically).
    pub fn rank_ns(&self, rank: u64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = rank.clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if seen + c as u64 >= rank {
                let (low, width) = Self::bounds(i);
                let within = (rank - seen) as f64 - 0.5;
                return Some(low as f64 + (width - 1) as f64 * within / c as f64);
            }
            seen += c as u64;
        }
        unreachable!("total equals the sum of the buckets")
    }
}

/// Rank of the median of `n` samples (nearest rank).
pub fn median_rank(n: u64) -> u64 {
    n.div_ceil(2)
}

/// The end-to-end tail, `op_tail_us`, is p90. On two shared CPUs with the
/// cluster's control and GC threads beside the clients, what lies far out
/// is pre-emption more than code, and on `ycsb_a_dc` p95 sits on the edge
/// between the puts that had to retry and those that did not. Spread over
/// the same eight runs (interquartile range / median), p90 / p95 / p99:
/// `ycsb_c` 5 / 6 / 14 %, `ycsb_a_dc` 6 / 15 / 17 %, `kv_pipeline_dc`
/// 8 / 7 / 20 %, `tpcc` 14 / 12 / 7 %, `ycsb_scan_mv` 24 / 20 / 16 % (a slow
/// spell of the host fell into those).
pub const HEADLINE_TAIL: u64 = 90;

/// Rank of the tail sample a sample of `n` supports: the highest percentile
/// with at least ten samples beyond it, and no higher than `cap` percent
/// (p99 it is from 1000 samples on, p90 from 100). Below 20 samples nothing
/// beyond the median is supported.
pub fn tail_rank(n: u64, cap: u64) -> u64 {
    if n < 20 {
        return median_rank(n);
    }
    (n * cap).div_ceil(100).min(n - 10)
}

/// The `rank`-th smallest value (1-based, clamped) of a small exact sample.
pub fn nth(values: &[f64], rank: u64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    Some(sorted[(rank as usize).clamp(1, sorted.len()) - 1])
}

/// Median, averaging the middle pair of an even-sized sample.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// First and third quartile, exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them, which
/// is what the acceptance driver uses for run-to-run spread.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

// ---- Recovery timeline ------------------------------------------------------

/// Width of the window whose commit rate is compared with the pre-kill rate.
pub const RECOVER_WINDOW_US: u64 = 5_000;

/// Kill → start of the first `RECOVER_WINDOW_US` window in which the client
/// commits at ≥ 90 % of its pre-kill rate. `commits_us` are the client's
/// commit times (µs since trial start, ascending); the pre-kill rate is
/// taken over `[rate_from_us, kill_us)`. `None` if the rate never returns
/// before `end_us`.
///
/// A window's count only rises when its right edge reaches a commit, so the
/// earliest window that qualifies ends exactly at one: the result has the
/// resolution of the commit times, not of a sliding step.
pub fn recover90_us(
    commits_us: &[u64],
    rate_from_us: u64,
    kill_us: u64,
    end_us: u64,
) -> Option<u64> {
    let index_of = |t: u64| commits_us.partition_point(|&c| c < t);
    let pre = index_of(kill_us) - index_of(rate_from_us);
    if pre == 0 {
        return None;
    }
    // need = ⌈0.9 × pre-kill rate × window⌉, in integers: a float product
    // can land a hair above a whole number and ask for one commit too many.
    let span = (kill_us - rate_from_us) as u128;
    let need = (9 * pre as u128 * RECOVER_WINDOW_US as u128)
        .div_ceil(10 * span)
        .max(1) as usize;
    let after = &commits_us[index_of(kill_us)..index_of(end_us)];
    for (j, &right) in after.iter().enumerate() {
        // The window ending at this commit: [start, right].
        let start = (right + 1).saturating_sub(RECOVER_WINDOW_US).max(kill_us);
        let inside = j + 1 - after.partition_point(|&c| c < start);
        if inside >= need {
            return Some(start - kill_us);
        }
    }
    None
}

/// Longest interval without a commit inside `[from_us, end_us]`, counting
/// the stretches from `from_us` to the first commit and from the last
/// commit to `end_us`.
pub fn blackout_us(commits_us: &[u64], from_us: u64, end_us: u64) -> u64 {
    let mut last = from_us;
    let mut longest = 0;
    for &t in &commits_us[commits_us.partition_point(|&t| t < from_us)..] {
        if t > end_us {
            break;
        }
        longest = longest.max(t - last);
        last = t;
    }
    longest.max(end_us.saturating_sub(last))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_within_resolution() {
        let mut h = Histogram::default();
        for v in 1..=100_000u64 {
            h.record(v * 10);
        }
        for rank in [50_000u64, 90_000, 99_000, 99_900] {
            let exact = rank as f64 * 10.0;
            let got = h.rank_ns(rank).unwrap();
            assert!(
                (got - exact).abs() / exact < 0.008,
                "{rank}: {got} vs {exact}"
            );
        }
        assert_eq!(Histogram::default().rank_ns(1), None);
    }

    #[test]
    fn histogram_small_and_huge_values_land_in_range() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(5);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.rank_ns(1), Some(0.0));
        assert_eq!(h.rank_ns(2), Some(5.0));
        assert!(h.rank_ns(3).unwrap() > 1e12);
        assert_eq!(h.rank_ns(99), h.rank_ns(3));
        // Samples sharing a bucket are told apart by rank.
        let mut h = Histogram::default();
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let (a, b) = (h.rank_ns(1).unwrap(), h.rank_ns(10).unwrap());
        assert!(
            a < b && (a - 1e6).abs() < 8_192.0 && (b - 1e6).abs() < 8_192.0,
            "{a} {b}"
        );
    }

    #[test]
    fn histogram_bucket_edges_are_monotone() {
        let mut values: Vec<u64> = (0..38)
            .flat_map(|shift| [(1u64 << shift) - 1, 1u64 << shift, (1u64 << shift) + 1])
            .collect();
        values.sort_unstable();
        let indices: Vec<usize> = values.iter().map(|&v| Histogram::index(v)).collect();
        assert!(
            indices.windows(2).all(|w| w[0] <= w[1]),
            "index went backwards"
        );
        // A bucket's bounds contain the values that map to it.
        for &v in &values {
            let (low, width) = Histogram::bounds(Histogram::index(v));
            assert!(
                (low..low + width).contains(&v),
                "{v} outside [{low}, +{width})"
            );
        }
        let mut merged = Histogram::default();
        let mut one = Histogram::default();
        one.record(1_000);
        merged.merge(&one);
        merged.merge(&one);
        assert_eq!(merged.count(), 2);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_rank(5, 99), 3);
        assert_eq!(tail_rank(19, 99), 10);
        assert_eq!(tail_rank(20, 99), 10); // exactly ten beyond the median
        assert_eq!(tail_rank(40, 99), 30);
        assert_eq!(tail_rank(100, 99), 90);
        assert_eq!(tail_rank(999, 99), 989);
        assert_eq!(tail_rank(1_000, 99), 990); // p99 from here on
        assert_eq!(tail_rank(1_000_000, 99), 990_000);
        assert_eq!(tail_rank(45, HEADLINE_TAIL), 35);
        assert_eq!(tail_rank(99, HEADLINE_TAIL), 89);
        assert_eq!(tail_rank(100, HEADLINE_TAIL), 90); // p90 from here on
        assert_eq!(tail_rank(1_000_000, HEADLINE_TAIL), 900_000);
        for cap in [HEADLINE_TAIL, 99] {
            for n in 20..3_000u64 {
                let rank = tail_rank(n, cap);
                assert!(n - rank >= 10, "n={n} rank={rank}");
                assert!(rank >= median_rank(n) && rank <= (n * cap).div_ceil(100));
            }
        }
    }

    #[test]
    fn medians_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(nth(&[5.0, 1.0, 3.0, 2.0, 4.0], 4), Some(4.0));
        assert_eq!(nth(&[5.0], 9), Some(5.0));
        assert_eq!(nth(&[], 1), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]).unwrap();
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }

    /// One commit every `period_us` over `[from, to)`.
    fn steady(from: u64, to: u64, period_us: u64) -> Vec<u64> {
        (from..to).step_by(period_us as usize).collect()
    }

    #[test]
    fn recover90_on_synthetic_timelines() {
        // 10 commits/ms until the kill at 100 ms, silence for 13 ms, then
        // full rate again: recovered 13 ms after the kill.
        let mut t = steady(0, 100_000, 100);
        t.extend(steady(113_000, 300_000, 100));
        // 10/ms before the kill: a 5 ms window needs 45 commits, and the
        // first window holding 45 is the one ending at the 45th commit after
        // the outage, which starts 12.4 ms after the kill: like any
        // start-of-window measure it runs ahead of the outage's end by up to
        // the 10 % of a window that may stay empty.
        assert_eq!(recover90_us(&t, 20_000, 100_000, 300_000), Some(12_401));
        assert_eq!(blackout_us(&t, 100_000, 300_000), 13_000);

        // Comes back at half rate only: never recovers.
        let mut t = steady(0, 100_000, 100);
        t.extend(steady(113_000, 300_000, 200));
        assert_eq!(recover90_us(&t, 20_000, 100_000, 300_000), None);

        // No outage at all: recovered at once, blackout is one period.
        let t = steady(0, 300_000, 100);
        assert_eq!(recover90_us(&t, 20_000, 100_000, 300_000), Some(0));
        assert_eq!(blackout_us(&t, 100_000, 299_900), 100);

        // A trickle during the outage does not count as recovery, and the
        // blackout is the longest gap, not the whole outage.
        let mut t = steady(0, 100_000, 100);
        t.push(104_000);
        t.extend(steady(120_000, 300_000, 100));
        assert_eq!(recover90_us(&t, 20_000, 100_000, 300_000), Some(19_401));
        assert_eq!(blackout_us(&t, 100_000, 300_000), 16_000);

        // Nothing committed before the kill: no rate to recover to.
        assert_eq!(recover90_us(&[150_000], 20_000, 100_000, 300_000), None);
        // Never commits again: the blackout runs to the end.
        assert_eq!(
            blackout_us(&steady(0, 100_000, 100), 100_000, 250_000),
            150_000
        );
    }
}
