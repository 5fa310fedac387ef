use std::fmt;

/// Errors produced by the dynamic-timestep inference layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A configuration value was outside its documented domain.
    InvalidConfig(String),
    /// The underlying spiking network failed.
    Snn(dtsnn_snn::SnnError),
    /// The hardware model failed.
    Imc(dtsnn_imc::ImcError),
    /// Inputs to an evaluation harness disagree.
    BadInput(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::Snn(e) => write!(f, "network failure: {e}"),
            CoreError::Imc(e) => write!(f, "hardware-model failure: {e}"),
            CoreError::BadInput(msg) => write!(f, "bad input: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Snn(e) => Some(e),
            CoreError::Imc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dtsnn_snn::SnnError> for CoreError {
    fn from(e: dtsnn_snn::SnnError) -> Self {
        CoreError::Snn(e)
    }
}

impl From<dtsnn_snn::FrameError> for CoreError {
    fn from(e: dtsnn_snn::FrameError) -> Self {
        CoreError::BadInput(e.to_string())
    }
}

impl From<dtsnn_imc::ImcError> for CoreError {
    fn from(e: dtsnn_imc::ImcError) -> Self {
        CoreError::Imc(e)
    }
}

impl From<dtsnn_tensor::TensorError> for CoreError {
    fn from(e: dtsnn_tensor::TensorError) -> Self {
        CoreError::Snn(dtsnn_snn::SnnError::from(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::from(dtsnn_snn::SnnError::InvalidConfig("x".into()));
        assert!(e.to_string().contains("network failure"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&CoreError::BadInput("y".into())).is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
