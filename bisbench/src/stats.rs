//! Order statistics for latency samples, plus the process's peak
//! resident set size.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 < q < 1`) of `samples` by the nearest-rank
/// rule, or `None` when fewer than [`MIN_BEYOND`] samples lie beyond
/// it — a tail figure resting on a handful of points is noise.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile must lie in (0, 1)");
    let n = samples.len();
    // Nearest rank: the smallest value with at least q·n samples at or
    // below it (1-based rank).
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median of a non-empty sample (mean of the middle pair for an
/// even count). Unlike [`percentile`] it needs no tail beyond it.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples has exactly 10 beyond it: reported.
        assert_eq!(percentile(&hundred, 0.90), Some(90.0));
        // p99 of 100 samples has one beyond it: refused.
        assert_eq!(percentile(&hundred, 0.99), None);
        // 99 samples leave only 9 beyond p90: refused.
        assert_eq!(percentile(&hundred[..99], 0.90), None);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99), Some(990.0));
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
