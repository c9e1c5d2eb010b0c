//! Percentiles and quartiles of measured samples.

/// The smallest sample count whose p90 has at least [`MIN_TAIL`]
/// samples beyond it.
pub const MIN_SAMPLES: usize = 100;

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile (`p` in `0..=100`) of unsorted samples: the
/// smallest sample with at least `p`% of the samples at or below it.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let sorted = sorted(samples);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank percentile's
/// rank.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

/// The p90 of `samples`, or an error when fewer than [`MIN_TAIL`]
/// samples lie beyond it, since such a p90 would be no tail.
pub fn p90(samples: &[f64]) -> Result<f64, String> {
    let tail = beyond(samples.len(), 90.0);
    if tail < MIN_TAIL {
        return Err(format!(
            "{} samples leave {tail} beyond p90; at least {MIN_TAIL} are needed",
            samples.len()
        ));
    }
    Ok(percentile(samples, 90.0))
}

/// The three quartiles as Python's `statistics.quantiles(data, n=4)`
/// computes them (the default "exclusive" method), so the figures match
/// what a reader recomputes from the printed values.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let data = sorted(samples);
    let ld = data.len();
    if ld == 1 {
        return [data[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// The median (middle quartile).
pub fn median(samples: &[f64]) -> f64 {
    let data = sorted(samples);
    let n = data.len();
    if n % 2 == 1 {
        data[n / 2]
    } else {
        (data[n / 2 - 1] + data[n / 2]) / 2.0
    }
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A text histogram of latencies in ms: one line per bucket of `width`
/// ms, with a bar of `#` per sample.
pub fn histogram(samples: &[f64], width: f64) -> String {
    let sorted = sorted(samples);
    let lo = (sorted[0] / width).floor() as i64;
    let hi = (sorted[sorted.len() - 1] / width).floor() as i64;
    let mut out = String::new();
    for b in lo..=hi {
        let count = sorted
            .iter()
            .filter(|&&x| (x / width).floor() as i64 == b)
            .count();
        out.push_str(&format!(
            "{:>6.0}-{:<6.0} {:>4} {}\n",
            b as f64 * width,
            (b + 1) as f64 * width,
            count,
            "#".repeat(count)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 90.0), 90.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(beyond(250, 90.0), 25);
        let xs: Vec<f64> = (1..=MIN_SAMPLES).map(|i| i as f64).collect();
        assert_eq!(p90(&xs), Ok(90.0));
        assert!(p90(&xs[..MIN_SAMPLES - 1]).is_err());
        // Exactly ten samples lie strictly above the reported p90.
        let v = p90(&xs).unwrap();
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), MIN_TAIL);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&xs), 5.5);
        assert_eq!(median(&[4.0, 1.0, 9.0]), 4.0);
    }

    #[test]
    fn histogram_counts_every_sample() {
        let h = histogram(&[1.0, 2.0, 11.0, 12.0, 13.0], 10.0);
        let total: usize = h
            .lines()
            .map(|l| {
                l.split_whitespace()
                    .nth(1)
                    .unwrap()
                    .parse::<usize>()
                    .unwrap()
            })
            .sum();
        assert_eq!(total, 5);
    }
}
