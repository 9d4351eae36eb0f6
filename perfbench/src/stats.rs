//! Order statistics for the harness: medians, nearest-rank percentiles,
//! and the tail rule (the highest percentile that still has at least ten
//! samples beyond it).

/// Percentiles the tail rule may pick, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a tail percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `v` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Zero-based index of the nearest-rank `pct` percentile among `n`
/// sorted samples (`n > 0`).
pub fn rank_index(n: usize, pct: f64) -> usize {
    // Integer per-mille arithmetic: `0.999 * n` in floating point can
    // land a hair above the exact rank and push the ceiling one too high.
    let per_mille = (pct * 10.0).round().clamp(0.0, 1000.0) as usize;
    let rank = (per_mille * n).div_ceil(1000);
    rank.clamp(1, n) - 1
}

/// Nearest-rank percentile of `v`; `0.0` for an empty slice.
pub fn percentile(v: &[f64], pct: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    s[rank_index(s.len(), pct)]
}

/// The percentile the tail rule picks for `n` samples: the highest rung
/// of the ladder whose nearest-rank index leaves at least
/// [`TAIL_MIN_BEYOND`] samples above it. Falls back to the median when
/// even that leaves fewer (fewer than 20 samples).
pub fn tail_pct(n: usize) -> f64 {
    for &p in &TAIL_LADDER {
        if n > 0 && n - 1 - rank_index(n, p) >= TAIL_MIN_BEYOND {
            return p;
        }
    }
    50.0
}

/// A latency sample summarized by the tail rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: f64,
    pub samples: usize,
}

/// Median, tail (by [`tail_pct`]) and sample count of `v`.
pub fn summarize(v: &[f64]) -> Summary {
    let pct = tail_pct(v.len());
    Summary {
        p50: median(v),
        tail: percentile(v, pct),
        tail_pct: pct,
        samples: v.len(),
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
        // Order of the input does not matter.
        let rev: Vec<f64> = v.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 95.0), 95.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // 100 samples: p90 is index 89, leaving 10 above; p95 leaves 5.
        assert_eq!(tail_pct(100), 90.0);
        assert_eq!(tail_pct(99), 75.0);
        assert_eq!(tail_pct(200), 95.0);
        assert_eq!(tail_pct(1000), 99.0);
        assert_eq!(tail_pct(1009), 99.0);
        assert_eq!(tail_pct(10_000), 99.9);
        assert_eq!(tail_pct(40), 75.0);
        assert_eq!(tail_pct(21), 50.0);
        // Too few samples for any rung: fall back to the median.
        assert_eq!(tail_pct(5), 50.0);
        assert_eq!(tail_pct(0), 50.0);
        for n in 20..5000 {
            let p = tail_pct(n);
            if p > 50.0 {
                assert!(n - 1 - rank_index(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn summary_reports_count_and_tail() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.samples, 200);
        assert_eq!(s.tail_pct, 95.0);
        assert_eq!(s.tail, 190.0);
        assert_eq!(s.p50, 100.5);
    }
}
