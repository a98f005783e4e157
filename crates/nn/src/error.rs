use adv_tensor::TensorError;
use std::fmt;

/// Errors produced by network construction, execution and serialization.
#[derive(Debug)]
pub enum NnError {
    /// An underlying tensor operation failed (shape or geometry mismatch).
    Tensor(TensorError),
    /// `backward` was called before `forward`, so the layer has no cache.
    NoForwardCache {
        /// Layer type that was asked to run backward.
        layer: &'static str,
    },
    /// A label index was outside `0..num_classes`.
    InvalidLabel {
        /// The offending label.
        label: usize,
        /// Number of classes in the output layer.
        classes: usize,
    },
    /// Model (de)serialization failed.
    Serialization(String),
    /// An I/O error while reading or writing a model file.
    Io(std::io::Error),
    /// The artifact store rejected a model or checkpoint file (corruption,
    /// injected fault) or failed to persist one.
    Store(adv_store::StoreError),
    /// An invalid hyperparameter or architecture argument.
    InvalidArgument(String),
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
            NnError::NoForwardCache { layer } => {
                write!(f, "backward called before forward on {layer} layer")
            }
            NnError::InvalidLabel { label, classes } => {
                write!(f, "label {label} out of range for {classes} classes")
            }
            NnError::Serialization(msg) => write!(f, "serialization error: {msg}"),
            NnError::Io(e) => write!(f, "i/o error: {e}"),
            NnError::Store(e) => write!(f, "artifact store error: {e}"),
            NnError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for NnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            NnError::Io(e) => Some(e),
            NnError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}

impl From<std::io::Error> for NnError {
    fn from(e: std::io::Error) -> Self {
        NnError::Io(e)
    }
}

impl From<adv_store::codec::DecodeError> for NnError {
    fn from(e: adv_store::codec::DecodeError) -> Self {
        NnError::Serialization(e.to_string())
    }
}

impl From<adv_store::StoreError> for NnError {
    fn from(e: adv_store::StoreError) -> Self {
        NnError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NnError>();
    }

    #[test]
    fn tensor_error_converts() {
        let te = TensorError::RankMismatch {
            expected: 2,
            actual: 4,
        };
        let ne: NnError = te.into();
        assert!(ne.to_string().contains("rank mismatch"));
        assert!(std::error::Error::source(&ne).is_some());
    }

    #[test]
    fn display_no_cache() {
        let e = NnError::NoForwardCache { layer: "dense" };
        assert_eq!(
            e.to_string(),
            "backward called before forward on dense layer"
        );
    }
}
