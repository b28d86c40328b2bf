//! Order statistics over timing samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// Nearest-rank `q`-quantile of `xs`, reported only when at least
/// `min_beyond` samples lie above it — a tail percentile drawn from fewer
/// samples than that says more about the sample than about the system.
pub fn percentile(xs: &[f64], q: f64, min_beyond: usize) -> Option<f64> {
    let n = xs.len();
    if n == 0 {
        return None;
    }
    let rank = ((n as f64) * q).ceil() as usize;
    let rank = rank.clamp(1, n);
    if n - rank < min_beyond {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Geometric mean of positive values; `None` when empty.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_needs_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99, 10), Some(990.0));
        assert_eq!(percentile(&xs[..999], 0.99, 10), None);
        assert_eq!(percentile(&xs, 0.5, 10), Some(500.0));
    }
}
