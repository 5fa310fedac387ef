//! Noise-robust estimators: nearest-rank percentiles, best-pass selection
//! and the mode-boundary check for multi-modal latency distributions.

/// Nearest-rank percentile of `sorted` (ascending); `q` in `(0, 100]`.
///
/// Nearest-rank always returns a measured sample, never an interpolation
/// between two latency modes.
///
/// # Panics
///
/// Panics on an empty slice: a percentile of nothing is a harness bug.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` ascending (total order, so a NaN cannot panic the sort).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of `values` (nearest-rank p50).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// Which end of a per-pass statistic is the good one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Throughput-like: the best pass has the largest value.
    Higher,
    /// Latency-like: the best pass has the smallest value.
    Lower,
}

/// A statistic computed once per pass, reduced to its best pass.
///
/// Host noise on a shared machine is one-sided (a pass can only be slowed
/// down), so the best pass is the least-disturbed estimate of the program's
/// own cost; `spread` says how far the typical pass sat from it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestPass {
    /// The best per-pass value.
    pub best: f64,
    /// The median per-pass value.
    pub median: f64,
    /// `|best − median| / best`: ungated diagnostic of in-run noise.
    pub spread: f64,
}

/// Reduces per-pass values to their best pass.
///
/// # Panics
///
/// Panics when `per_pass` is empty.
pub fn best_pass(per_pass: &[f64], better: Better) -> BestPass {
    let s = sorted(per_pass.to_vec());
    let best = match better {
        Better::Higher => s[s.len() - 1],
        Better::Lower => s[0],
    };
    let median = percentile(&s, 50.0);
    let spread = if best != 0.0 { ((best - median) / best).abs() } else { 0.0 };
    BestPass { best, median, spread }
}

/// Checks that every percentile rank in `ranks` lies at least `margin`
/// percentile points away from every cumulative-share boundary of the exit
/// histogram (`histogram[t-1]` = samples that exited at timestep `t`).
///
/// Per-request latency has one mode per exit timestep; a percentile whose
/// rank sits near a boundary flips between two modes from run to run, which
/// no amount of repetition steadies. Returns the offending `(rank,
/// boundary)` pair on failure.
pub fn mode_boundaries_clear(
    histogram: &[usize],
    ranks: &[f64],
    margin: f64,
) -> Result<(), (f64, f64)> {
    let total: usize = histogram.iter().sum();
    if total == 0 {
        return Err((0.0, 0.0));
    }
    let mut cumulative = 0usize;
    for &count in histogram {
        cumulative += count;
        let boundary = 100.0 * cumulative as f64 / total as f64;
        for &rank in ranks {
            if (rank - boundary).abs() < margin {
                return Err((rank, boundary));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 91.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.001), 1.0);
        // nine samples: p90 is the slowest one (rank ceil(8.1) = 9)
        assert_eq!(percentile(&s[..9], 90.0), 9.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn percentile_returns_a_measured_sample_of_a_bimodal_set() {
        // two latency modes: nearest-rank never reports a value in between
        let s = sorted(vec![1.2, 1.2, 1.2, 5.2, 5.2, 5.2]);
        assert_eq!(percentile(&s, 50.0), 1.2);
        assert_eq!(percentile(&s, 51.0), 5.2);
    }

    #[test]
    fn best_pass_picks_the_right_end() {
        let passes = [100.0, 96.0, 104.0, 90.0, 101.0];
        let hi = best_pass(&passes, Better::Higher);
        assert_eq!(hi.best, 104.0);
        assert_eq!(hi.median, 100.0);
        assert!((hi.spread - 4.0 / 104.0).abs() < 1e-12);
        let lo = best_pass(&passes, Better::Lower);
        assert_eq!(lo.best, 90.0);
        assert!((lo.spread - 10.0 / 90.0).abs() < 1e-12);
        let one = best_pass(&[3.0], Better::Lower);
        assert_eq!((one.best, one.median, one.spread), (3.0, 3.0, 0.0));
    }

    #[test]
    fn mode_boundary_check_accepts_and_rejects_the_issue_histograms() {
        // 62.7 / 10 / 1.7 / 25.7 % of 300 samples: p50 sits 12.7 points
        // inside the T=1 mode, p90 15.7 points inside the T=4 mode
        assert_eq!(mode_boundaries_clear(&[188, 30, 5, 77], &[50.0, 90.0], 8.0), Ok(()));
        // 54 / 10 / 3 / 33 %: rank 50 is 4 points from the 54 % boundary
        let err = mode_boundaries_clear(&[162, 30, 9, 99], &[50.0, 90.0], 8.0).unwrap_err();
        assert_eq!(err.0, 50.0);
        assert!((err.1 - 54.0).abs() < 1e-9);
        assert!(mode_boundaries_clear(&[], &[50.0], 8.0).is_err());
    }
}
