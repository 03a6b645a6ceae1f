//! Percentiles with an honest sample count.

/// A tail percentile is reported only with at least this many samples
/// beyond it.
pub const TAIL_MIN: usize = 10;

/// A percentile and the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value, linearly interpolated between the closest ranks.
    pub value: f64,
    /// Samples it was computed from.
    pub samples: usize,
}

/// The `q`-quantile of `samples`, `q` in `[0, 1]`.
///
/// # Errors
///
/// Refuses an empty sample, and a tail percentile (`q > 0.5`) with fewer
/// than [`TAIL_MIN`] samples beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Result<Percentile, String> {
    let n = samples.len();
    if n == 0 {
        return Err("no samples".to_string());
    }
    let beyond = n - (q * n as f64).ceil() as usize;
    if q > 0.5 && beyond < TAIL_MIN {
        return Err(format!(
            "p{} needs {TAIL_MIN} samples beyond it, but {n} samples leave {beyond}",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (n - 1) as f64;
    let (low, high) = (rank.floor() as usize, rank.ceil() as usize);
    let value = sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64);
    Ok(Percentile { value, samples: n })
}

/// The median, or 0 for an empty sample (a layer the workload never
/// entered).
pub fn median_or_zero(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).map_or(0.0, |p| p.value)
}

/// `numerator / denominator`, or 0 when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let ninety_nine: Vec<f64> = (0..99).map(f64::from).collect();
        let err = percentile(&ninety_nine, 0.9).expect_err("99 samples leave 9 beyond p90");
        assert!(err.contains("99 samples"), "{err}");
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        let p90 = percentile(&hundred, 0.9).expect("100 samples leave 10 beyond p90");
        assert_eq!(p90.samples, 100);
        assert!((p90.value - 89.1).abs() < 1e-9);
    }

    #[test]
    fn median_is_allowed_on_small_samples_and_reports_its_count() {
        let p50 = percentile(&[3.0, 1.0, 2.0], 0.5).expect("median of three");
        assert_eq!(
            p50,
            Percentile {
                value: 2.0,
                samples: 3
            }
        );
        assert_eq!(percentile(&[1.0, 2.0], 0.5).unwrap().value, 1.5);
        assert!(percentile(&[], 0.5).is_err());
        assert_eq!(median_or_zero(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
