//! Order statistics used by every report: the tail-percentile rule,
//! medians, and quartiles computed exactly as Python's
//! `statistics.quantiles(values, n=4)` does.

use std::fmt;

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Why a statistic could not be computed.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// No samples at all.
    Empty,
    /// Too few samples for the requested tail: fewer than [`MIN_BEYOND`]
    /// would lie beyond it.
    TooFewForTail {
        /// The percentile asked for, in (0, 1).
        q: f64,
        /// Samples available.
        have: usize,
        /// Samples needed.
        need: usize,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::Empty => write!(f, "no samples"),
            StatsError::TooFewForTail { q, have, need } => write!(
                f,
                "p{} needs {need} samples ({MIN_BEYOND} beyond it), have {have}",
                q * 100.0
            ),
        }
    }
}

impl std::error::Error for StatsError {}

/// Samples needed so that [`MIN_BEYOND`] lie beyond percentile `q`
/// (1000 for p99, 200 for p95).
pub fn min_samples_for(q: f64) -> usize {
    // The slack absorbs rounding: 10 / (1 - 0.95) is 200.00000000000003.
    (MIN_BEYOND as f64 / (1.0 - q) - 1e-9).ceil() as usize
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `q` of `samples`, refused with a typed error
/// unless at least [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(samples: &[f64], q: f64) -> Result<f64, StatsError> {
    let need = min_samples_for(q);
    if samples.len() < need {
        return Err(StatsError::TooFewForTail {
            q,
            have: samples.len(),
            need,
        });
    }
    let v = sorted(samples);
    let rank = (q * v.len() as f64).ceil() as usize;
    Ok(v[rank.clamp(1, v.len()) - 1])
}

/// The median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> Result<f64, StatsError> {
    if samples.is_empty() {
        return Err(StatsError::Empty);
    }
    let v = sorted(samples);
    let n = v.len();
    Ok(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// First quartile, median and third quartile, by the "exclusive" method
/// of Python's `statistics.quantiles(values, n=4)`. One sample gives that
/// sample three times.
pub fn quartiles(samples: &[f64]) -> Result<(f64, f64, f64), StatsError> {
    let v = sorted(samples);
    let ld = v.len();
    match ld {
        0 => return Err(StatsError::Empty),
        1 => return Ok((v[0], v[0], v[0])),
        _ => {}
    }
    let n = 4usize;
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Ok((q(1), q(2), q(3)))
}

/// Arithmetic mean and sample standard deviation.
pub fn mean_stddev(samples: &[f64]) -> Result<(f64, f64), StatsError> {
    if samples.is_empty() {
        return Err(StatsError::Empty);
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    if samples.len() < 2 {
        return Ok((mean, 0.0));
    }
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    Ok((mean, var.sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(min_samples_for(0.99), 1000);
        assert_eq!(min_samples_for(0.95), 200);
        assert_eq!(min_samples_for(0.5), 20);
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(
            tail(&few, 0.99),
            Err(StatsError::TooFewForTail {
                q: 0.99,
                have: 999,
                need: 1000
            })
        );
        let enough: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Nearest rank 990: exactly ten samples (991..=1000) lie beyond.
        assert_eq!(tail(&enough, 0.99), Ok(990.0));
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Ok(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Ok(2.5));
        assert_eq!(median(&[]), Err(StatsError::Empty));
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Ok((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Ok((0.75, 1.5, 2.25)));
        // statistics.quantiles([1, 5, 2, 8, 7], n=4) == [1.5, 5.0, 7.5]
        assert_eq!(quartiles(&[1.0, 5.0, 2.0, 8.0, 7.0]), Ok((1.5, 5.0, 7.5)));
        assert_eq!(quartiles(&[4.0]), Ok((4.0, 4.0, 4.0)));
    }

    #[test]
    fn stddev_is_the_sample_deviation() {
        let (m, s) = mean_stddev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(m, 5.0);
        assert!((s - 2.138_089_935).abs() < 1e-6);
    }
}
