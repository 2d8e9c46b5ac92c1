//! Order statistics over measured samples.

/// The `q`-quantile (nearest rank) of an ascending slice; `NaN` when empty.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Sorts `values` and returns its `q`-quantile.
pub fn quantile(values: &mut [u64], q: f64) -> f64 {
    values.sort_unstable();
    quantile_sorted(values, q)
}

/// Median of floats (mean of the middle pair for even counts).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// SplitMix64: a stateless mix so request `i` of seed `s` draws the same
/// key no matter how the run was timed.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v = vec![5, 1, 4, 2, 3];
        assert_eq!(quantile(&mut v, 0.5), 3.0);
        assert_eq!(quantile_sorted(&v, 0.99), 5.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert!(quantile_sorted(&[], 0.5).is_nan());
        assert_eq!(median_f64(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
