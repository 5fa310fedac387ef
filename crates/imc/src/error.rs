use std::fmt;

/// Errors produced by the IMC simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ImcError {
    /// A hardware configuration value was outside its documented domain.
    InvalidConfig(String),
    /// A layer geometry cannot be mapped (zero extent).
    UnmappableLayer(String),
    /// Activity statistics disagree with the mapping.
    ActivityMismatch {
        /// Layers in the mapping.
        layers: usize,
        /// Density entries supplied.
        densities: usize,
    },
    /// A network's crossbar-mapped parameters disagree with the chip mapping
    /// they are being injected through.
    NetworkMismatch(String),
}

impl fmt::Display for ImcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImcError::InvalidConfig(msg) => write!(f, "invalid hardware configuration: {msg}"),
            ImcError::UnmappableLayer(msg) => write!(f, "unmappable layer: {msg}"),
            ImcError::ActivityMismatch { layers, densities } => {
                write!(f, "mapping has {layers} layers but {densities} density entries supplied")
            }
            ImcError::NetworkMismatch(msg) => {
                write!(f, "network does not match chip mapping: {msg}")
            }
        }
    }
}

impl std::error::Error for ImcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        for e in [
            ImcError::InvalidConfig("x".into()),
            ImcError::UnmappableLayer("y".into()),
            ImcError::ActivityMismatch { layers: 3, densities: 2 },
            ImcError::NetworkMismatch("z".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ImcError>();
    }
}
