//! Order statistics and server-histogram deltas.

use hyperline_util::telemetry::{HistogramSnapshot, SUB_BUCKETS, SUB_BUCKET_BITS};

/// Sorts a copy of `values` (NaN-safe).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default "exclusive" method), so the spreads printed here
/// match those computed in Python.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            let m = n + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// The highest of p90/p99/p99.9 that has at least ten samples beyond
/// it, as `(label, value)`; the median when there are too few samples.
pub fn tail(values: &[f64]) -> (&'static str, f64) {
    let n = values.len() as f64;
    for (label, q) in [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)] {
        if n * (1.0 - q) >= 10.0 {
            return (label, quantile(values, q));
        }
    }
    ("p50", median(values))
}

/// Inclusive `[low, high]` range of the telemetry histogram bucket whose
/// inclusive upper bound is `upper` (the bucket layout documented in
/// `hyperline_util::telemetry`).
fn bucket_range(upper: u64) -> (u64, u64) {
    if upper < SUB_BUCKETS as u64 {
        return (upper, upper);
    }
    let exp = 63 - upper.leading_zeros();
    let shift = exp - SUB_BUCKET_BITS;
    let low = (upper >> shift) << shift;
    (low, upper)
}

/// The samples recorded between two snapshots of one histogram, as
/// `(bucket upper bound, count)` in ascending order.
pub fn delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> Vec<(u64, u64)> {
    let per_bucket = |s: &HistogramSnapshot| {
        let mut prev = 0;
        s.cumulative_buckets()
            .into_iter()
            .map(|(upper, cum)| {
                let count = cum - prev;
                prev = cum;
                (upper, count)
            })
            .collect::<Vec<_>>()
    };
    let old = per_bucket(before);
    per_bucket(after)
        .into_iter()
        .map(|(upper, count)| {
            let was = old
                .iter()
                .find(|&&(u, _)| u == upper)
                .map_or(0, |&(_, c)| c);
            (upper, count - was)
        })
        .filter(|&(_, c)| c > 0)
        .collect()
}

/// Merges bucket lists (for histograms spanning several routes/tiers).
pub fn merge(lists: &[Vec<(u64, u64)>]) -> Vec<(u64, u64)> {
    let mut all: Vec<(u64, u64)> = lists.iter().flatten().copied().collect();
    all.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (upper, count) in all {
        match out.last_mut() {
            Some(last) if last.0 == upper => last.1 += count,
            _ => out.push((upper, count)),
        }
    }
    out
}

pub fn bucket_count(buckets: &[(u64, u64)]) -> u64 {
    buckets.iter().map(|&(_, c)| c).sum()
}

/// Quantile of bucketed integer-microsecond samples, interpolated
/// linearly inside the bucket. Recorded values are truncated to whole
/// microseconds, so a bucket `[low, high]` holds true values in
/// `[low, high + 1)`.
pub fn bucket_quantile(buckets: &[(u64, u64)], q: f64) -> f64 {
    let total = bucket_count(buckets);
    if total == 0 {
        return 0.0;
    }
    let rank = q * total as f64;
    let mut seen = 0u64;
    for &(upper, count) in buckets {
        if (seen + count) as f64 >= rank {
            let (low, high) = bucket_range(upper);
            let within = ((rank - seen as f64) / count as f64).clamp(0.0, 1.0);
            return low as f64 + (high + 1 - low) as f64 * within;
        }
        seen += count;
    }
    let (_, high) = bucket_range(buckets[buckets.len() - 1].0);
    (high + 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperline_util::telemetry::Histogram;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    }

    #[test]
    fn histogram_delta_and_quantile() {
        let h = Histogram::new();
        h.record(5);
        let before = h.snapshot();
        for v in [100, 100, 100, 3000] {
            h.record(v);
        }
        let d = delta(&before, &h.snapshot());
        assert_eq!(bucket_count(&d), 4);
        let p50 = bucket_quantile(&d, 0.5);
        assert!((96.0..=104.0).contains(&p50), "{p50}");
        let (low, high) = bucket_range(d[d.len() - 1].0);
        assert!(low <= 3000 && 3000 <= high);
    }
}
