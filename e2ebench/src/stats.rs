//! Order statistics for the end-to-end metrics, and span self time for
//! the per-layer ones.

/// The median of `values` (mean of the two middle values for an even
/// count); `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The three quartile cut points of `values`, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spreads printed here match the ones an external checker
/// derives from the same numbers.
///
/// # Panics
///
/// Panics with fewer than two values (the Python function raises too).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let s = sorted(values);
    let m = s.len() as i64 + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1i64..).zip(out.iter_mut()) {
        // The same integer arithmetic as CPython, so results agree to
        // the last bit.
        let j = (i * m / 4).clamp(1, s.len() as i64 - 1);
        let delta = i * m - j * 4;
        let j = j as usize;
        *q = (s[j - 1] * (4 - delta) as f64 + s[j] * delta as f64) / 4.0;
    }
    out
}

/// The tail latency that still has at least `beyond` samples above it:
/// the `beyond + 1`-th largest value, reported with its percentile
/// `100 * (n - beyond) / n`. `None` when fewer than `beyond + 1`
/// samples exist, since then no percentile has `beyond` samples beyond
/// it.
pub fn tail(values: &[f64], beyond: usize) -> Option<Tail> {
    let n = values.len();
    if n <= beyond {
        return None;
    }
    let s = sorted(values);
    Some(Tail {
        value: s[n - 1 - beyond],
        percentile: 100.0 * (n - beyond) as f64 / n as f64,
        samples: n,
    })
}

/// A tail percentile and the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The self time of a span `[start, end)` whose children cover the
/// given intervals: its duration minus the length of the union of the
/// children, each clipped to the parent. Children may overlap each other
/// (threads, or a child recorded late); overlapping parts count once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]:
        // positions outside the sample extrapolate linearly.
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 3, 7, 15, 31], n=4) == [2.0, 7.0, 23.0]
        assert_eq!(quartiles(&[31.0, 1.0, 15.0, 3.0, 7.0]), [2.0, 7.0, 23.0]);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v, 10).expect("100 samples");
        // Ten samples (91..=100) lie above the 90th value.
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);

        let v: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let t = tail(&v, 10).expect("40 samples");
        assert_eq!(t.value, 30.0);
        assert_eq!(t.percentile, 75.0);

        assert_eq!(tail(&[1.0; 10], 10), None);
        assert_eq!(tail(&[5.0; 11], 10).map(|t| t.value), Some(5.0));
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // No children: the whole span.
        assert_eq!(self_time(0, 100, &[]), 100);
        // Disjoint children.
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 50)]), 70);
        // Overlapping children cover 10..60 once.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 60), (35, 45)]), 50);
        // Children reaching outside the parent are clipped.
        assert_eq!(self_time(50, 100, &[(0, 60), (90, 200)]), 30);
        // A child covering everything leaves nothing.
        assert_eq!(self_time(10, 20, &[(0, 30)]), 0);
        // Order does not matter.
        assert_eq!(self_time(0, 100, &[(30, 60), (10, 40)]), 50);
    }
}
