//! Order statistics over latency samples.

/// A percentile must have at least this many samples beyond it to be
/// reported; with fewer, it is the sample maximum in disguise.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The `p`-th percentile (`0 < p < 1`, nearest rank) of `sorted`, which
/// must be in ascending order. Refuses a percentile with fewer than
/// [`MIN_SAMPLES_BEYOND`] samples above it.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    let beyond = n - rank.min(n);
    if beyond < MIN_SAMPLES_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {beyond} samples beyond it (need {MIN_SAMPLES_BEYOND})",
            p * 100.0
        ));
    }
    Ok(sorted[rank - 1])
}

/// The median of `values` (mean of the middle two for an even count);
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

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
