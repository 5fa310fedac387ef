//! Wall-clock throughput measurement on a general processor (Table III).
//!
//! The paper measures images/s on a GPU at batch size 1; here the same
//! protocol runs on the CPU with our engine. The claim shape is preserved:
//! throughput falls roughly linearly with timesteps, and DT-SNN recovers
//! near-1-timestep throughput at full-window accuracy.
//!
//! Measurement protocol: all input validation and per-worker network clones
//! happen **before** the clock starts, so the timed span covers inference
//! work only. Reported accuracy and mean timesteps are bitwise identical to
//! the corresponding evaluation harness.
//!
//! Each pooled clone owns a private [`dtsnn_tensor::Workspace`] (a cloned
//! `Snn` starts with a fresh arena), so the timed loop is allocation-free
//! after each worker's first sample warms its size classes — no locking, no
//! sharing between workers.

use crate::harness::{check_frame_counts, check_inputs, DynamicEvaluation};
use crate::inference::{static_inference, DynamicInference};
use crate::{CoreError, Result};
use dtsnn_snn::Snn;
use dtsnn_tensor::{parallel, Tensor};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Throughput and accuracy of one inference configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputReport {
    /// Configuration label (`"static T=2"` / `"DT-SNN θ=0.3"`).
    pub label: String,
    /// Images per second at batch size 1.
    pub images_per_second: f64,
    /// Top-1 accuracy over the measured set.
    pub accuracy: f32,
    /// Mean timesteps per image.
    pub avg_timesteps: f32,
}

fn validate_inputs(
    frames: &[Vec<Tensor>],
    labels: &[usize],
    max_timesteps: usize,
) -> Result<()> {
    check_inputs(frames, labels, None)?;
    if max_timesteps == 0 {
        return Err(CoreError::BadInput("timesteps must be nonzero".into()));
    }
    check_frame_counts(frames, max_timesteps)
}

/// A pool of pre-built network clones, built outside any timed span so the
/// clock measures inference rather than `Snn::clone`. Workers check a clone
/// out on chunk entry and return it on exit; all clones are identical, so
/// pool order does not affect results.
///
/// The pool is *not* fixed to the worker count it was built for: a checkout
/// from an exhausted pool clones the prototype on demand (counted by
/// [`ClonePool::extra_clones`]) and the new clone joins the pool when
/// returned. A long-lived pool therefore converges on the peak observed
/// concurrency and stops cloning — the serving path can reuse one pool
/// across windows of different widths without silently re-cloning per
/// window, and a `DTSNN_THREADS` change mid-lifetime degrades to a one-time
/// warm-up cost instead of a panic.
pub struct ClonePool {
    proto: Snn,
    free: Mutex<Vec<Snn>>,
    extra_clones: AtomicUsize,
}

impl ClonePool {
    /// A pool pre-seeded with exactly `capacity.max(1)` clones.
    pub fn with_capacity(proto: &Snn, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        ClonePool {
            proto: proto.clone(),
            free: Mutex::new((0..capacity).map(|_| proto.clone()).collect()),
            extra_clones: AtomicUsize::new(0),
        }
    }

    /// A pool sized to the current `DTSNN_THREADS` worker count, capped by
    /// the number of work items (building clones no worker will hold is
    /// wasted memory).
    pub fn for_current_threads(proto: &Snn, samples: usize) -> Self {
        ClonePool::with_capacity(proto, parallel::num_threads().min(samples).max(1))
    }

    /// Checks a clone out, runs `f` on it, and returns it to the pool.
    ///
    /// Exhaustion is not an error: an empty pool clones the prototype on
    /// demand and the fresh clone is pooled afterwards, growing the pool to
    /// the observed concurrency.
    pub fn with<R>(&self, f: impl FnOnce(&mut Snn) -> R) -> R {
        let checked_out = self.free.lock().expect("clone pool poisoned").pop();
        let mut net = checked_out.unwrap_or_else(|| {
            self.extra_clones.fetch_add(1, Ordering::Relaxed);
            self.proto.clone()
        });
        let out = f(&mut net);
        self.free.lock().expect("clone pool poisoned").push(net);
        out
    }

    /// Clones built on demand because a checkout found the pool empty —
    /// zero whenever the pre-built capacity covered the actual concurrency.
    pub fn extra_clones(&self) -> usize {
        self.extra_clones.load(Ordering::Relaxed)
    }

    /// Clones currently parked in the pool (pre-built plus any on-demand
    /// clones that have been returned).
    pub fn pooled(&self) -> usize {
        self.free.lock().expect("clone pool poisoned").len()
    }
}

/// Measures batch-1 throughput of a static SNN at a fixed `timesteps`.
///
/// # Errors
///
/// Returns [`CoreError::BadInput`] for empty or mismatched data, zero
/// `timesteps`, or per-sample frame counts other than 1 or `timesteps`.
pub fn measure_throughput(
    network: &mut Snn,
    frames: &[Vec<Tensor>],
    labels: &[usize],
    timesteps: usize,
) -> Result<ThroughputReport> {
    validate_inputs(frames, labels, timesteps)?;
    let pool = ClonePool::for_current_threads(network, frames.len());
    let indices: Vec<usize> = (0..frames.len()).collect();
    let start = Instant::now();
    // Per-sample fan-out over pooled clones; predictions fold back in
    // sample-index order, so accuracy is thread-count invariant while the
    // wall clock shrinks with DTSNN_THREADS.
    let preds = parallel::map_chunks(&indices, |_, chunk| {
        pool.with(|net| {
            chunk.iter().map(|&i| static_inference(net, &frames[i], timesteps)).collect()
        })
    });
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    let mut correct = 0usize;
    for (pred, &label) in preds.into_iter().zip(labels) {
        correct += (pred? == label) as usize;
    }
    Ok(ThroughputReport {
        label: format!("static T={timesteps}"),
        images_per_second: frames.len() as f64 / secs,
        accuracy: correct as f32 / frames.len() as f32,
        avg_timesteps: timesteps as f32,
    })
}

/// Measures batch-1 throughput of DT-SNN under `runner`'s policy.
///
/// # Errors
///
/// Returns [`CoreError::BadInput`] for empty or mismatched data or invalid
/// per-sample frame counts — raised before the clock starts.
pub fn measure_dynamic_throughput(
    network: &mut Snn,
    runner: &DynamicInference,
    frames: &[Vec<Tensor>],
    labels: &[usize],
) -> Result<ThroughputReport> {
    validate_inputs(frames, labels, runner.max_timesteps())?;
    let pool = ClonePool::for_current_threads(network, frames.len());
    let indices: Vec<usize> = (0..frames.len()).collect();
    let start = Instant::now();
    let per_sample = parallel::map_chunks(&indices, |_, chunk| {
        pool.with(|net| {
            chunk
                .iter()
                .map(|&i| -> Result<(usize, bool)> {
                    let outcome = runner.run(net, &frames[i])?;
                    Ok((outcome.timesteps_used, outcome.prediction == labels[i]))
                })
                .collect()
        })
    });
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    let mut correct = 0usize;
    let mut timestep_total = 0usize;
    for res in per_sample {
        let (used, ok) = res?;
        correct += ok as usize;
        timestep_total += used;
    }
    let n = frames.len() as f32;
    Ok(ThroughputReport {
        label: format!("DT-SNN {}", runner.policy().name()),
        images_per_second: frames.len() as f64 / secs,
        accuracy: correct as f32 / n,
        avg_timesteps: timestep_total as f32 / n,
    })
}

/// Measures throughput of the compacted batched DT-SNN evaluator
/// ([`DynamicEvaluation::run_batched`]) at the given `batch_size`.
///
/// Accuracy and mean timesteps are bitwise identical to the batch-1 dynamic
/// path; the wall clock reflects the active-set compaction engine, whose
/// per-timestep work decays as samples exit early.
///
/// # Errors
///
/// Returns [`CoreError::BadInput`] for empty or mismatched data, invalid
/// per-sample frame counts, or zero `batch_size` — raised before the clock
/// starts.
pub fn measure_batched_dynamic_throughput(
    network: &mut Snn,
    runner: &DynamicInference,
    frames: &[Vec<Tensor>],
    labels: &[usize],
    batch_size: usize,
) -> Result<ThroughputReport> {
    validate_inputs(frames, labels, runner.max_timesteps())?;
    if batch_size == 0 {
        return Err(CoreError::BadInput("batch_size must be nonzero".into()));
    }
    let start = Instant::now();
    let eval = DynamicEvaluation::run_batched(network, runner, frames, labels, None, batch_size)?;
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    Ok(ThroughputReport {
        label: format!("DT-SNN {} (batched b={batch_size})", runner.policy().name()),
        images_per_second: frames.len() as f64 / secs,
        accuracy: eval.accuracy,
        avg_timesteps: eval.avg_timesteps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExitPolicy;
    use dtsnn_snn::{Flatten, Layer, LifConfig, LifNeuron, Linear};
    use dtsnn_tensor::TensorRng;

    fn tiny_net(seed: u64) -> Snn {
        let mut rng = TensorRng::seed_from(seed);
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Flatten::new()),
            Box::new(Linear::new(16, 32, &mut rng)),
            Box::new(LifNeuron::new(LifConfig::default())),
            Box::new(Linear::new(32, 3, &mut rng)),
        ];
        Snn::from_layers(layers)
    }

    fn data(n: usize) -> (Vec<Vec<Tensor>>, Vec<usize>) {
        let mut rng = TensorRng::seed_from(1);
        let frames = (0..n).map(|_| vec![Tensor::randn(&[1, 4, 4], 0.5, 0.5, &mut rng)]).collect();
        (frames, (0..n).map(|i| i % 3).collect())
    }

    #[test]
    fn throughput_positive_and_monotone_in_t() {
        let mut net = tiny_net(2);
        let (frames, labels) = data(64);
        let t1 = measure_throughput(&mut net, &frames, &labels, 1).unwrap();
        let t8 = measure_throughput(&mut net, &frames, &labels, 8).unwrap();
        // more timesteps → strictly more work: asserted on the counted work,
        // not on the wall-clock order of two sub-millisecond runs
        assert_eq!((t1.avg_timesteps, t8.avg_timesteps), (1.0, 8.0));
        assert!(t1.images_per_second > 0.0 && t8.images_per_second > 0.0);
    }

    #[test]
    fn dynamic_throughput_between_t1_and_tmax() {
        let mut net = tiny_net(3);
        let (frames, labels) = data(64);
        let runner = DynamicInference::new(ExitPolicy::entropy(0.9).unwrap(), 8).unwrap();
        let dt = measure_dynamic_throughput(&mut net, &runner, &frames, &labels).unwrap();
        assert!(dt.avg_timesteps >= 1.0 && dt.avg_timesteps <= 8.0);
        assert!(dt.images_per_second > 0.0);
    }

    #[test]
    fn dynamic_throughput_accuracy_matches_evaluation_harness() {
        let (frames, labels) = data(24);
        let runner = DynamicInference::new(ExitPolicy::entropy(0.9).unwrap(), 4).unwrap();
        let mut net = tiny_net(5);
        let eval = DynamicEvaluation::run(&mut net, &runner, &frames, &labels, None).unwrap();
        let mut net = tiny_net(5);
        let dt = measure_dynamic_throughput(&mut net, &runner, &frames, &labels).unwrap();
        assert_eq!(dt.accuracy, eval.accuracy);
        assert_eq!(dt.avg_timesteps, eval.avg_timesteps);
        let mut net = tiny_net(5);
        let bt =
            measure_batched_dynamic_throughput(&mut net, &runner, &frames, &labels, 8).unwrap();
        assert_eq!(bt.accuracy, eval.accuracy);
        assert_eq!(bt.avg_timesteps, eval.avg_timesteps);
        assert!(bt.label.contains("batched b=8"));
    }

    #[test]
    fn validation_happens_before_the_clock() {
        // invalid inputs error out rather than being timed mid-measurement
        let mut net = tiny_net(4);
        let (mut frames, labels) = data(4);
        let runner = DynamicInference::new(ExitPolicy::entropy(0.9).unwrap(), 4).unwrap();
        assert!(measure_throughput(&mut net, &frames, &labels, 0).is_err());
        assert!(
            measure_batched_dynamic_throughput(&mut net, &runner, &frames, &labels, 0).is_err()
        );
        frames[1] = vec![frames[1][0].clone(); 2]; // 2 frames under a T=4 window
        assert!(measure_throughput(&mut net, &frames, &labels, 4).is_err());
        assert!(measure_dynamic_throughput(&mut net, &runner, &frames, &labels).is_err());
        assert!(
            measure_batched_dynamic_throughput(&mut net, &runner, &frames, &labels, 2).is_err()
        );
    }

    #[test]
    fn rejects_empty_data() {
        let mut net = tiny_net(4);
        assert!(measure_throughput(&mut net, &[], &[], 1).is_err());
    }

    #[test]
    fn clone_pool_sized_to_concurrency_never_reclones() {
        // the serving-path reuse contract: once the pool covers the worker
        // count, repeated windows check clones out and in without ever
        // touching Snn::clone again
        let proto = tiny_net(6);
        parallel::with_threads(2, || {
            let pool = ClonePool::for_current_threads(&proto, 64);
            assert_eq!(pool.pooled(), 2);
            let indices: Vec<usize> = (0..64).collect();
            for _window in 0..3 {
                let out = parallel::map_chunks(&indices, |_, chunk| {
                    pool.with(|net| {
                        net.reset_state();
                        vec![1usize; chunk.len()]
                    })
                });
                assert_eq!(out.into_iter().sum::<usize>(), 64);
            }
            assert_eq!(pool.extra_clones(), 0, "a matched pool must never re-clone");
            assert_eq!(pool.pooled(), 2);
        });
    }

    #[test]
    fn clone_pool_oversubscription_grows_once_then_reuses() {
        let proto = tiny_net(7);
        let pool = ClonePool::with_capacity(&proto, 1);
        // nested checkout exhausts the single pre-built clone; the inner
        // one falls back to cloning the prototype instead of panicking
        pool.with(|_outer| pool.with(|_inner| ()));
        assert_eq!(pool.extra_clones(), 1);
        assert_eq!(pool.pooled(), 2, "the on-demand clone joins the pool");
        // the pool has grown to the observed concurrency: the same shape
        // of work re-clones nothing
        pool.with(|_outer| pool.with(|_inner| ()));
        assert_eq!(pool.extra_clones(), 1, "the second window must reuse, not re-clone");
    }

    #[test]
    fn clone_pool_capacity_floor_is_one() {
        let proto = tiny_net(8);
        let pool = ClonePool::with_capacity(&proto, 0);
        assert_eq!(pool.pooled(), 1);
        assert_eq!(pool.with(|_net| 41) + 1, 42);
    }
}
