use adv_nn::NnError;
use adv_tensor::TensorError;
use std::fmt;

/// Errors produced by the MagNet defense components.
#[derive(Debug)]
pub enum MagnetError {
    /// An underlying network operation failed.
    Nn(NnError),
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// A detector was used before threshold calibration.
    Uncalibrated {
        /// Name of the uncalibrated detector.
        detector: String,
    },
    /// An invalid configuration (e.g. FPR outside `(0, 1)`).
    InvalidArgument(String),
    /// A named pipeline stage failed while executing a batch (used by
    /// pipeline wrappers, e.g. deterministic fault injection in `adv-serve`).
    Stage {
        /// The stage (injection site) that failed, e.g. `magnet/reform`.
        stage: String,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for MagnetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MagnetError::Nn(e) => write!(f, "network error: {e}"),
            MagnetError::Tensor(e) => write!(f, "tensor error: {e}"),
            MagnetError::Uncalibrated { detector } => {
                write!(f, "detector {detector} used before calibration")
            }
            MagnetError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            MagnetError::Stage { stage, message } => {
                write!(f, "pipeline stage {stage} failed: {message}")
            }
        }
    }
}

impl std::error::Error for MagnetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MagnetError::Nn(e) => Some(e),
            MagnetError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for MagnetError {
    fn from(e: NnError) -> Self {
        MagnetError::Nn(e)
    }
}

impl From<TensorError> for MagnetError {
    fn from(e: TensorError) -> Self {
        MagnetError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MagnetError>();
    }

    #[test]
    fn display_uncalibrated() {
        let e = MagnetError::Uncalibrated {
            detector: "recon-l2".into(),
        };
        assert!(e.to_string().contains("recon-l2"));
    }
}
