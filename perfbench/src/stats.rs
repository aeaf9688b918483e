//! Order statistics over timing samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `xs` by the nearest-rank method:
/// the smallest sample with at least `q·n` samples at or below it. Sorts
/// `xs` in place. `0.0` for an empty slice.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// The median of `xs` (nearest rank; see [`quantile`]).
pub fn median(xs: &[f64]) -> f64 {
    quantile(&mut xs.to_vec(), 0.5)
}

/// `(p50, p99)` of `xs`.
pub fn p50_p99(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    (quantile(&mut v, 0.5), quantile(&mut v, 0.99))
}

/// `num / den`, or `0.0` when nothing was attempted.
pub fn share(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p50_p99(&xs), (50.0, 99.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(share(1, 4), 0.25);
        assert_eq!(share(1, 0), 0.0);
    }
}
