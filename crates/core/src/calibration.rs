//! Confidence calibration analysis — the premise behind Eq. 8.
//!
//! DT-SNN's exit rule is sound only if low entropy really implies a correct
//! prediction (Guo et al. \[5\], cited in Sec. III-A). This module bins
//! predictions by their confidence score and reports per-bin accuracy (a
//! reliability diagram over entropy), plus the rank correlation between
//! confidence and correctness.

use crate::harness::{check_inputs, fan_out};
use crate::inference::DynamicInference;
use crate::{CoreError, Result};
use dtsnn_snn::Snn;
use dtsnn_tensor::{parallel, Tensor};

/// Runs the network over a dataset split and collects, per sample, the
/// first-timestep exit score and whether the final prediction was correct —
/// the `(score, correct)` pairs that [`reliability_bins`] and
/// [`score_correctness_correlation`] consume.
///
/// Samples fan out across the `DTSNN_THREADS` workers and come back in
/// sample-index order, so the output is bitwise identical for any worker
/// count.
///
/// # Errors
///
/// Returns [`CoreError::BadInput`] for empty or mismatched inputs or a
/// sample that breaks the frame contract.
pub fn collect_exit_scores(
    network: &mut Snn,
    runner: &DynamicInference,
    frames: &[Vec<Tensor>],
    labels: &[usize],
) -> Result<(Vec<f32>, Vec<bool>)> {
    check_inputs(frames, labels, None, runner.max_timesteps())?;
    let per_sample = fan_out(network, parallel::num_threads(), frames, |net, i, sample| {
        let out = runner.run(net, sample)?;
        Ok((out.scores[0], out.prediction == labels[i]))
    })?;
    Ok(per_sample.into_iter().unzip())
}

/// Accuracy within one confidence bin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityBin {
    /// Inclusive lower edge of the score interval.
    pub lo: f32,
    /// Exclusive upper edge (inclusive for the last bin).
    pub hi: f32,
    /// Samples that fell in the bin.
    pub count: usize,
    /// Fraction of those that were correctly classified.
    pub accuracy: f32,
}

/// Bins `(score, correct)` pairs into `bins` equal-width intervals over
/// `[0, 1]` and reports per-bin accuracy.
///
/// For entropy scores, a *decreasing* accuracy over bins confirms the
/// paper's premise: confident (low-entropy) predictions are more accurate.
///
/// # Errors
///
/// Returns [`CoreError::BadInput`] for empty inputs, mismatched lengths or
/// zero bins.
pub fn reliability_bins(
    scores: &[f32],
    corrects: &[bool],
    bins: usize,
) -> Result<Vec<ReliabilityBin>> {
    if scores.is_empty() || scores.len() != corrects.len() {
        return Err(CoreError::BadInput("scores/corrects mismatch or empty".into()));
    }
    if bins == 0 {
        return Err(CoreError::BadInput("need at least one bin".into()));
    }
    let mut counts = vec![0usize; bins];
    let mut hits = vec![0usize; bins];
    for (&s, &c) in scores.iter().zip(corrects) {
        let idx = ((s.clamp(0.0, 1.0) * bins as f32) as usize).min(bins - 1);
        counts[idx] += 1;
        hits[idx] += c as usize;
    }
    Ok((0..bins)
        .map(|i| ReliabilityBin {
            lo: i as f32 / bins as f32,
            hi: (i + 1) as f32 / bins as f32,
            count: counts[i],
            accuracy: if counts[i] == 0 { f32::NAN } else { hits[i] as f32 / counts[i] as f32 },
        })
        .collect())
}

/// Point-biserial correlation between a score and correctness (a value in
/// `[-1, 1]`; strongly negative for entropy scores means low entropy ⇒
/// correct, which is what Eq. 8 relies on).
///
/// # Errors
///
/// Returns [`CoreError::BadInput`] for empty inputs or mismatched lengths.
pub fn score_correctness_correlation(scores: &[f32], corrects: &[bool]) -> Result<f32> {
    if scores.is_empty() || scores.len() != corrects.len() {
        return Err(CoreError::BadInput("scores/corrects mismatch or empty".into()));
    }
    let n = scores.len() as f32;
    let mean_s = scores.iter().sum::<f32>() / n;
    let mean_c = corrects.iter().filter(|&&c| c).count() as f32 / n;
    let mut cov = 0.0;
    let mut var_s = 0.0;
    let mut var_c = 0.0;
    for (&s, &c) in scores.iter().zip(corrects) {
        let ds = s - mean_s;
        let dc = (c as u8 as f32) - mean_c;
        cov += ds * dc;
        var_s += ds * ds;
        var_c += dc * dc;
    }
    let denom = (var_s * var_c).sqrt();
    if denom == 0.0 {
        return Ok(0.0);
    }
    Ok(cov / denom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(reliability_bins(&[], &[], 4).is_err());
        assert!(reliability_bins(&[0.5], &[true, false], 4).is_err());
        assert!(reliability_bins(&[0.5], &[true], 0).is_err());
        assert!(score_correctness_correlation(&[], &[]).is_err());
    }

    #[test]
    fn bins_partition_all_samples() {
        let scores = [0.05f32, 0.15, 0.55, 0.95, 1.0];
        let corrects = [true, true, false, false, false];
        let bins = reliability_bins(&scores, &corrects, 4).unwrap();
        assert_eq!(bins.len(), 4);
        assert_eq!(bins.iter().map(|b| b.count).sum::<usize>(), 5);
        // bin 0 holds the two low-entropy correct predictions
        assert_eq!(bins[0].count, 2);
        assert_eq!(bins[0].accuracy, 1.0);
        // score 1.0 clamps into the last bin
        assert_eq!(bins[3].count, 2);
        assert_eq!(bins[3].accuracy, 0.0);
    }

    #[test]
    fn empty_bin_reports_nan() {
        let bins = reliability_bins(&[0.1, 0.9], &[true, false], 4).unwrap();
        assert!(bins[1].accuracy.is_nan());
        assert!(bins[2].accuracy.is_nan());
    }

    #[test]
    fn perfect_anticorrelation_detected() {
        // low score ⇔ correct
        let scores: Vec<f32> = (0..100).map(|i| i as f32 / 100.0).collect();
        let corrects: Vec<bool> = (0..100).map(|i| i < 50).collect();
        let r = score_correctness_correlation(&scores, &corrects).unwrap();
        assert!(r < -0.8, "r = {r}");
    }

    #[test]
    fn uncorrelated_scores_near_zero() {
        let scores: Vec<f32> = (0..200).map(|i| (i % 2) as f32).collect();
        let corrects: Vec<bool> = (0..200).map(|i| (i / 2) % 2 == 0).collect();
        let r = score_correctness_correlation(&scores, &corrects).unwrap();
        assert!(r.abs() < 0.1, "r = {r}");
    }

    #[test]
    fn constant_scores_give_zero() {
        let r = score_correctness_correlation(&[0.5; 10], &[true; 10]).unwrap();
        assert_eq!(r, 0.0);
    }
}
