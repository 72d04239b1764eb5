//! The arithmetic every reported number goes through: medians,
//! nearest-rank percentiles, Python-compatible quartiles, span self
//! time, and the compare rule.

/// Median of `values` (mean of the middle pair for an even count);
/// 0 for an empty slice.
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

/// Nearest-rank percentile (`p` in 0..=1): the smallest sample with at
/// least `p` of the samples at or below it. With `n` samples,
/// `n - ceil(p·n)` samples lie beyond it — 100 samples give the p90
/// ten.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so the
/// spreads `--compare` prints match the ones the driver computes.
/// Fewer than two samples have no spread: all three are the sample.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => return [0.0; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median (0 when the
/// median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Self time of each span: its duration minus the part of that
/// interval its direct children cover. `spans[i]` is
/// `(start_ns, end_ns, parent index)`; children run one after another
/// on the single load thread, so their durations add.
pub fn self_times(spans: &[(u64, u64, Option<usize>)]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|&(s, e, _)| e.saturating_sub(s)).collect();
    for &(start, end, parent) in spans {
        if let Some(p) = parent {
            let (ps, pe, _) = spans[p];
            let covered = end.min(pe).saturating_sub(start.max(ps));
            own[p] = own[p].saturating_sub(covered);
        }
    }
    own
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// Outcome of comparing one workload × end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound, and
    /// both sides' run-to-run spread is within the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// No regression by the medians, but a side's own spread exceeds
    /// the bound, so "unchanged" cannot be claimed either.
    Unresolved,
}

/// The compare rule: by how much of A's median B got worse (negative
/// when it got better), and the verdict against `bound`.
pub fn compare(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse = if ma == 0.0 {
        0.0
    } else {
        match better {
            Better::Higher => (ma - mb) / ma.abs(),
            Better::Lower => (mb - ma) / ma.abs(),
        }
    };
    let verdict = if worse > bound {
        Verdict::Regression
    } else if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse, verdict)
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
    fn p90_of_100_leaves_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(spread(&v), 1.0);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100, child 10..40 with grandchild 15..25, child 50..90.
        let spans = [
            (0, 100, None),
            (10, 40, Some(0)),
            (15, 25, Some(1)),
            (50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn compare_rule() {
        let a = [100.0, 101.0, 99.0, 100.0];
        // 5 % slower throughput inside an 8 % bound.
        assert_eq!(
            compare(&a, &[95.0, 95.0, 95.0, 95.0], Better::Higher, 0.08).1,
            Verdict::Ok
        );
        // 10 % slower is a regression; 10 % faster is not.
        assert_eq!(
            compare(&a, &[90.0; 4], Better::Higher, 0.08).1,
            Verdict::Regression
        );
        assert_eq!(
            compare(&a, &[110.0; 4], Better::Higher, 0.08).1,
            Verdict::Ok
        );
        // For a latency the directions swap.
        assert_eq!(
            compare(&a, &[110.0; 4], Better::Lower, 0.08).1,
            Verdict::Regression
        );
        // Medians agree but B's own spread is wider than the bound.
        let noisy = [80.0, 120.0, 90.0, 110.0];
        assert_eq!(
            compare(&a, &noisy, Better::Higher, 0.08).1,
            Verdict::Unresolved
        );
        // An exact count with bound 0: any rise is a regression.
        assert_eq!(
            compare(&[5.0; 3], &[5.0; 3], Better::Lower, 0.0).1,
            Verdict::Ok
        );
        assert_eq!(
            compare(&[5.0; 3], &[6.0; 3], Better::Lower, 0.0).1,
            Verdict::Regression
        );
    }
}
