use crate::checkpoint::CheckpointError;
use crate::frames::FrameError;
use dtsnn_tensor::TensorError;
use std::fmt;

/// Errors produced by SNN construction, training and inference.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SnnError {
    /// An underlying tensor operation failed (shape/geometry mismatch).
    Tensor(TensorError),
    /// A configuration value was outside its documented domain.
    InvalidConfig(String),
    /// Backward was called without a matching forward (empty cache).
    MissingForwardCache(&'static str),
    /// A label index exceeded the class count.
    LabelOutOfRange {
        /// Offending label.
        label: usize,
        /// Number of classes the model predicts.
        classes: usize,
    },
    /// The network received an input whose shape disagrees with its layers.
    BadInput(String),
    /// Saving or loading a checkpoint failed; the payload says exactly how.
    Checkpoint(CheckpointError),
}

impl fmt::Display for SnnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnnError::Tensor(e) => write!(f, "tensor operation failed: {e}"),
            SnnError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SnnError::MissingForwardCache(layer) => {
                write!(f, "backward called on `{layer}` without a cached forward pass")
            }
            SnnError::LabelOutOfRange { label, classes } => {
                write!(f, "label {label} out of range for {classes} classes")
            }
            SnnError::BadInput(msg) => write!(f, "bad network input: {msg}"),
            SnnError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
        }
    }
}

impl std::error::Error for SnnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnnError::Tensor(e) => Some(e),
            SnnError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for SnnError {
    fn from(e: TensorError) -> Self {
        SnnError::Tensor(e)
    }
}

impl From<FrameError> for SnnError {
    fn from(e: FrameError) -> Self {
        SnnError::BadInput(e.to_string())
    }
}

impl From<CheckpointError> for SnnError {
    fn from(e: CheckpointError) -> Self {
        SnnError::Checkpoint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = SnnError::from(TensorError::InvalidArgument("x".into()));
        assert!(e.to_string().contains("tensor operation failed"));
        assert!(std::error::Error::source(&e).is_some());
        let e2 = SnnError::LabelOutOfRange { label: 10, classes: 10 };
        assert!(e2.to_string().contains("label 10"));
        assert!(std::error::Error::source(&e2).is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SnnError>();
    }
}
