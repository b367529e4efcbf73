//! Error type for the serving layer.

use least_linalg::LinalgError;
use std::fmt;

/// Errors produced by artifact handling, query evaluation, and the server.
#[derive(Debug)]
pub enum ServeError {
    /// The byte stream is not a LEAST model artifact (wrong magic).
    BadMagic,
    /// The artifact declares a format version this build cannot read.
    UnsupportedVersion(u32),
    /// The artifact checksum did not match its contents.
    ChecksumMismatch { stored: u64, computed: u64 },
    /// The artifact payload is structurally inconsistent (lengths, shapes).
    Malformed(String),
    /// The model's weight matrix contains a directed cycle, so it is not a
    /// Bayesian network and cannot be queried.
    CyclicModel,
    /// A query referenced a node outside `0..d`.
    NodeOutOfRange { node: usize, d: usize },
    /// A query's evidence/intervention sets are contradictory (duplicate
    /// or overlapping nodes).
    InvalidQuery(String),
    /// A query carries more evidence plus `do(·)` pairs than the server
    /// answers in one request.
    QueryTooLarge { pairs: usize, limit: usize },
    /// The evidence covariance is singular, so exact conditioning is
    /// undefined (e.g. deterministic or duplicated evidence nodes).
    DegenerateEvidence,
    /// Underlying linear-algebra failure.
    Linalg(LinalgError),
    /// Underlying I/O failure (artifact files, sockets).
    Io(std::io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadMagic => write!(f, "not a LEAST model artifact (bad magic)"),
            ServeError::UnsupportedVersion(v) => {
                write!(f, "unsupported artifact format version {v}")
            }
            ServeError::ChecksumMismatch { stored, computed } => write!(
                f,
                "artifact checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            ServeError::Malformed(msg) => write!(f, "malformed artifact: {msg}"),
            ServeError::CyclicModel => write!(f, "model weights contain a directed cycle"),
            ServeError::NodeOutOfRange { node, d } => {
                write!(f, "node {node} out of range for a {d}-variable model")
            }
            ServeError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            ServeError::QueryTooLarge { pairs, limit } => write!(
                f,
                "query has {pairs} evidence/do pairs; the limit is {limit}"
            ),
            ServeError::DegenerateEvidence => {
                write!(f, "evidence covariance is singular; cannot condition")
            }
            ServeError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            ServeError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Linalg(e) => Some(e),
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for ServeError {
    fn from(e: LinalgError) -> Self {
        ServeError::Linalg(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ServeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ServeError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        };
        let s = e.to_string();
        assert!(s.contains("checksum") && s.contains("0x"), "{s}");
        assert!(ServeError::CyclicModel.to_string().contains("cycle"));
    }

    #[test]
    fn wraps_sources() {
        use std::error::Error;
        let e = ServeError::from(LinalgError::NotSquare { shape: (1, 2) });
        assert!(e.source().is_some());
    }
}
