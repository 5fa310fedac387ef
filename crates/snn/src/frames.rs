//! The frame contract: a sample is one static frame, repeated at every
//! timestep (direct encoding, Sec. II), or exactly one event frame per
//! timestep; no frame is empty, a rank-4 frame has a batch axis of one (any
//! other frame gets one prepended), and all frames of a sample share one
//! shape. [`crate::Snn::forward_sequence`], `dtsnn-core`'s runners and
//! harnesses and `dtsnn-serve`'s request intake all check and shape samples
//! here, so every boundary accepts and refuses the same samples.

use dtsnn_tensor::Tensor;
use std::fmt;

/// How a sample's frames break the frame contract; `frame` is an index into
/// the sample.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameError {
    /// `(t_max, got)`: neither one static frame nor one frame per timestep.
    Count(usize, usize),
    /// `(frame)`: a frame with no elements.
    Empty(usize),
    /// `(frame, dims)`: a rank-4 frame whose batch axis is not one.
    Batch(usize, Vec<usize>),
    /// `(frame, dims, first)`: a frame whose dims, batch axis aside, differ
    /// from the first frame's.
    Ragged(usize, Vec<usize>, Vec<usize>),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Count(t_max, got) => write!(f, "expected 1 or {t_max} frames, got {got}"),
            FrameError::Empty(frame) => write!(f, "frame {frame} has no elements"),
            FrameError::Batch(frame, dims) => {
                write!(f, "frame {frame} has dims {dims:?}: a rank-4 frame must be batch-1")
            }
            FrameError::Ragged(frame, dims, first) => {
                write!(f, "frame {frame} has dims {dims:?} but frame 0 has {first:?}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// The count rule: one static frame, or exactly `t_max` event frames.
///
/// # Errors
///
/// Returns [`FrameError::Count`] for any other count (zero included).
pub(crate) fn check_frame_count(count: usize, t_max: usize) -> Result<(), FrameError> {
    if count == 1 || (count != 0 && count == t_max) {
        Ok(())
    } else {
        Err(FrameError::Count(t_max, count))
    }
}

/// The frame a sample feeds at timestep `t` (0-based): a static sample's one
/// frame repeats; `None` past an event sample's last frame.
pub fn frame_at<T>(frames: &[T], t: usize) -> Option<&T> {
    if frames.len() == 1 {
        frames.first()
    } else {
        frames.get(t)
    }
}

/// Frame `index`'s dims without its batch axis (the batch-axis rule).
fn unbatched(frame: &Tensor, index: usize) -> Result<&[usize], FrameError> {
    match frame.dims() {
        _ if frame.is_empty() => Err(FrameError::Empty(index)),
        [1, rest @ ..] if rest.len() == 3 => Ok(rest),
        dims if dims.len() == 4 => Err(FrameError::Batch(index, dims.to_vec())),
        dims => Ok(dims),
    }
}

/// Checks a sample against the whole contract without copying anything, and
/// returns its frames' common dims without the batch axis.
///
/// # Errors
///
/// Returns the first [`FrameError`] the sample commits.
pub fn check_frames(frames: &[Tensor], t_max: usize) -> Result<&[usize], FrameError> {
    check_frame_count(frames.len(), t_max)?;
    let first = unbatched(&frames[0], 0)?;
    for (index, frame) in frames.iter().enumerate().skip(1) {
        let dims = unbatched(frame, index)?;
        if dims != first {
            return Err(FrameError::Ragged(index, dims.to_vec(), first.to_vec()));
        }
    }
    Ok(first)
}

/// A sample's frames, checked ([`check_frames`]) and copied with a batch
/// axis of one — the form a batch-1 forward or a batch row takes.
///
/// # Errors
///
/// Returns the first [`FrameError`] the sample commits.
pub fn batch1_frames(frames: &[Tensor], t_max: usize) -> Result<Vec<Tensor>, FrameError> {
    let dims = check_frames(frames, t_max)?;
    let batched: Vec<usize> = std::iter::once(1).chain(dims.iter().copied()).collect();
    Ok(frames
        .iter()
        .map(|frame| frame.reshape(&batched).expect("a batch axis of one keeps the element count"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_contract_accepts_static_and_event_samples_in_either_batch_form() {
        let static_frame = Tensor::full(&[1, 2, 2], 0.5);
        let batched = batch1_frames(std::slice::from_ref(&static_frame), 4).unwrap();
        assert_eq!(batched.len(), 1);
        assert_eq!(batched[0].dims(), &[1, 1, 2, 2]);
        assert_eq!(batched[0].data(), static_frame.data());
        // a batch axis of one may be supplied or prepended, frame by frame
        let event = [static_frame.clone(), Tensor::zeros(&[1, 1, 2, 2]), static_frame];
        assert_eq!(check_frames(&event, 3), Ok(&[1, 2, 2][..]));
        assert!(batch1_frames(&event, 3).unwrap().iter().all(|f| f.dims() == [1, 1, 2, 2]));
        // frames of any other rank get the axis too
        assert_eq!(batch1_frames(&[Tensor::zeros(&[4])], 2).unwrap()[0].dims(), &[1, 4]);
    }

    #[test]
    fn each_rule_has_its_own_error() {
        let f = Tensor::zeros(&[1, 2, 2]);
        assert_eq!(check_frames(&[], 4), Err(FrameError::Count(4, 0)));
        assert_eq!(check_frame_count(0, 0), Err(FrameError::Count(0, 0)));
        assert_eq!(check_frames(&[f.clone(), f.clone()], 4), Err(FrameError::Count(4, 2)));
        assert_eq!(check_frames(&[Tensor::zeros(&[1, 0, 2])], 4), Err(FrameError::Empty(0)));
        // the first rule a sample breaks is the one reported
        let bad = [f.clone(), Tensor::zeros(&[2, 1, 2, 2]), Tensor::zeros(&[0])];
        assert_eq!(check_frames(&bad, 3), Err(FrameError::Batch(1, vec![2, 1, 2, 2])));
        assert_eq!(
            check_frames(&[f, Tensor::zeros(&[4, 1, 1])], 2),
            Err(FrameError::Ragged(1, vec![4, 1, 1], vec![1, 2, 2]))
        );
    }

    #[test]
    fn a_static_frame_repeats_and_event_frames_run_out() {
        assert_eq!(frame_at(&[7], 0), Some(&7));
        assert_eq!(frame_at(&[7], 5), Some(&7));
        assert_eq!(frame_at(&[7, 8, 9], 2), Some(&9));
        assert_eq!(frame_at(&[7, 8, 9], 3), None);
        assert_eq!(frame_at::<u8>(&[], 0), None);
    }
}
