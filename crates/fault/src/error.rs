//! The workspace-wide error taxonomy.
//!
//! Hand-rolled (no `thiserror`/`anyhow` — the build environment has no
//! crate registry) and deliberately small: seven categories cover every
//! recoverable failure the pipeline produces. Fatal programming errors
//! (index bugs, violated invariants) stay as panics; `DlnError` is for
//! conditions a caller can meaningfully react to — quarantine an input,
//! fall back to a previous checkpoint, reject a configuration.

/// Convenience alias used across the workspace.
pub type DlnResult<T> = Result<T, DlnError>;

/// Every recoverable error the data-lake navigation pipeline can raise.
#[derive(Debug)]
pub enum DlnError {
    /// An IO operation failed (file read/write, directory listing).
    Io {
        /// What was being done, usually including the path.
        context: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// An input file or stream is structurally malformed (unbalanced CSV
    /// quotes, a `.vec` file with no parseable rows, a truncated record).
    Malformed {
        /// Which input, usually a path or stream description.
        context: String,
        /// What exactly is wrong with it.
        detail: String,
    },
    /// A user-supplied configuration value is out of its legal domain
    /// (negative Zipf exponent, empty support, bad failpoint spec).
    InvalidConfig(String),
    /// Vector dimensionalities disagree (a `.vec` row against the file's
    /// header, an embedding model against a lake).
    DimMismatch {
        /// Where the mismatch was detected.
        context: String,
        /// The dimensionality required there.
        expected: usize,
        /// The dimensionality actually seen.
        got: usize,
    },
    /// A numeric input that must be finite is NaN or infinite.
    NonFinite {
        /// Where the non-finite value was detected.
        context: String,
    },
    /// A persisted artifact failed its integrity check (bad magic, version,
    /// or checksum on a checkpoint; torn write detected).
    Corrupt {
        /// Which artifact, usually a path.
        context: String,
        /// What the integrity check found.
        detail: String,
    },
    /// A navigation request is not legal from the requester's current
    /// position (descending into a state that is not a child of the
    /// current one, referencing a tombstoned state, …). Recoverable: the
    /// serving session stays where it was and the caller can pick another
    /// move.
    InvalidNavigation {
        /// What was attempted and why it is illegal.
        context: String,
    },
}

impl DlnError {
    /// Wrap an [`std::io::Error`] with context.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> DlnError {
        DlnError::Io {
            context: context.into(),
            source,
        }
    }

    /// A malformed-input error with context and detail.
    pub fn malformed(context: impl Into<String>, detail: impl Into<String>) -> DlnError {
        DlnError::Malformed {
            context: context.into(),
            detail: detail.into(),
        }
    }

    /// A corrupt-artifact error with context and detail.
    pub fn corrupt(context: impl Into<String>, detail: impl Into<String>) -> DlnError {
        DlnError::Corrupt {
            context: context.into(),
            detail: detail.into(),
        }
    }

    /// An invalid-navigation error with context.
    pub fn invalid_navigation(context: impl Into<String>) -> DlnError {
        DlnError::InvalidNavigation {
            context: context.into(),
        }
    }
}

impl std::fmt::Display for DlnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DlnError::Io { context, source } => write!(f, "io error: {context}: {source}"),
            DlnError::Malformed { context, detail } => {
                write!(f, "malformed input: {context}: {detail}")
            }
            DlnError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            DlnError::DimMismatch {
                context,
                expected,
                got,
            } => write!(
                f,
                "dimension mismatch: {context}: expected {expected}, got {got}"
            ),
            DlnError::NonFinite { context } => write!(f, "non-finite value: {context}"),
            DlnError::Corrupt { context, detail } => {
                write!(f, "corrupt artifact: {context}: {detail}")
            }
            DlnError::InvalidNavigation { context } => {
                write!(f, "invalid navigation: {context}")
            }
        }
    }
}

impl std::error::Error for DlnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DlnError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<DlnError> for std::io::Error {
    /// Lossy downgrade for callers that still speak `io::Result` (kept for
    /// pre-robustness-layer API compatibility).
    fn from(e: DlnError) -> std::io::Error {
        match e {
            DlnError::Io { source, .. } => source,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        let cases: Vec<(DlnError, &str)> = vec![
            (
                DlnError::io("reading x.csv", std::io::Error::other("boom")),
                "io error",
            ),
            (
                DlnError::malformed("x.csv", "unbalanced quote"),
                "malformed input",
            ),
            (
                DlnError::InvalidConfig("zipf exponent -1".into()),
                "invalid configuration",
            ),
            (
                DlnError::DimMismatch {
                    context: "row 7".into(),
                    expected: 4,
                    got: 3,
                },
                "expected 4, got 3",
            ),
            (
                DlnError::NonFinite {
                    context: "vector for 'foo'".into(),
                },
                "non-finite",
            ),
            (
                DlnError::corrupt("ckpt", "checksum mismatch"),
                "corrupt artifact",
            ),
            (
                DlnError::invalid_navigation("state 7 is not a child of state 3"),
                "invalid navigation",
            ),
        ];
        for (e, needle) in cases {
            let s = e.to_string();
            assert!(s.contains(needle), "{s:?} should contain {needle:?}");
        }
    }

    #[test]
    fn io_variant_exposes_source() {
        use std::error::Error as _;
        let e = DlnError::io("ctx", std::io::Error::other("inner"));
        assert!(e.source().is_some());
        assert!(DlnError::InvalidConfig("x".into()).source().is_none());
    }

    #[test]
    fn downgrade_to_io_error_preserves_message() {
        let io: std::io::Error = DlnError::malformed("f", "bad").into();
        assert!(io.to_string().contains("bad"));
        let io2: std::io::Error = DlnError::io("ctx", std::io::Error::other("orig")).into();
        assert!(io2.to_string().contains("orig"));
    }
}
