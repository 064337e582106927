//! Order statistics over latency samples.

/// Nearest-rank percentile `p` (0 < p < 100) of `samples`.
///
/// Refuses (returns `Err`) when fewer than ten samples lie above the
/// percentile's rank: a tail figure resting on a handful of samples
/// would be noise, so the run must be made longer instead.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if samples.is_empty() || !(0.0..100.0).contains(&p) || p == 0.0 {
        return Err(format!("p{p} of {} samples", samples.len()));
    }
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n);
    if p > 50.0 && n - rank < 10 {
        return Err(format!(
            "p{p} of {n} samples leaves {} above it; at least 10 are needed",
            n - rank
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The median (nearest rank) of a non-empty sample; `0.0` when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    percentile(samples, 50.0).expect("p50 never needs a tail")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let samples: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0).unwrap(), 500.0);
        assert_eq!(percentile(&samples, 99.0).unwrap(), 990.0);
        assert_eq!(percentile(&samples, 90.0).unwrap(), 900.0);
        // Order of the input does not matter.
        let mut reversed = samples.clone();
        reversed.reverse();
        assert_eq!(percentile(&reversed, 99.0).unwrap(), 990.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn refuses_thin_tails() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        // 999 samples: p99's rank is 990, leaving only 9 above it.
        assert!(percentile(&samples, 99.0).is_err());
        assert!(percentile(&samples[..99], 90.0).is_err());
        assert!(percentile(&samples[..100], 90.0).is_ok());
        assert!(percentile(&[], 50.0).is_err());
        // The median needs no tail.
        assert_eq!(percentile(&[5.0], 50.0).unwrap(), 5.0);
    }
}
