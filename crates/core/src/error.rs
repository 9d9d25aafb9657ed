//! The workspace error taxonomy.
//!
//! Every fallible path of the characterization library, the
//! microarchitecture flow and the `aix` CLI converges on [`AixError`], so
//! callers match on one structured enum instead of downcasting
//! `Box<dyn Error>` — and user-facing failures name the flag, file or line
//! at fault instead of panicking.

use crate::{FlowError, ParseComponentKindError, ParseLibraryError};
use aix_aging::InvalidLifetimeError;
use aix_arith::InvalidSpecError;
use aix_netlist::{ImportError, NetlistError};
use std::error::Error;
use std::fmt;

/// The unified error type of the `aix` workspace.
#[derive(Debug)]
pub enum AixError {
    /// A netlist-, STA- or simulation-level failure (these layers share
    /// [`NetlistError`]).
    Netlist(NetlistError),
    /// A microarchitecture-flow failure.
    Flow(FlowError),
    /// An inconsistent width/precision component specification.
    Spec(InvalidSpecError),
    /// A negative or non-finite lifetime.
    Lifetime(InvalidLifetimeError),
    /// An unknown component-kind label.
    ComponentKind(ParseComponentKindError),
    /// A malformed approximation-library file. `path` is the file the text
    /// came from, when known; the source names the offending line.
    LibraryFormat {
        /// File the library text was read from, if any.
        path: Option<String>,
        /// The parse failure, which names the line at fault.
        source: ParseLibraryError,
    },
    /// A netlist file failed to import. `path` is the file; the source
    /// carries the structured reason and, when known, the line/column.
    Import {
        /// File the netlist text was read from.
        path: String,
        /// The import failure, which names the offending location.
        source: ImportError,
    },
    /// A filesystem failure, annotated with the path involved.
    Io {
        /// Path of the file or directory being accessed.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A required CLI option was not supplied.
    MissingOption {
        /// The flag, including leading dashes (e.g. `--width`).
        flag: &'static str,
    },
    /// A CLI option carried a value that does not parse or is out of range.
    InvalidOption {
        /// The flag, including leading dashes (e.g. `--width`).
        flag: &'static str,
        /// The value as supplied by the user.
        value: String,
        /// What the flag accepts, phrased for the error message.
        expected: &'static str,
    },
    /// One guarded job of a campaign was quarantined: it panicked.
    JobFailed {
        /// The job, named as `kind wW pP [@scenario]`.
        job: String,
        /// Human-readable cause (error display or panic message).
        reason: String,
    },
    /// A characterization campaign finished with quarantined jobs, in a
    /// context that requires every job to succeed.
    CampaignIncomplete {
        /// Number of quarantined jobs.
        failed: usize,
        /// Number of jobs the campaign planned.
        planned: usize,
        /// The first failure, rendered like [`AixError::JobFailed`].
        first: String,
    },
}

impl fmt::Display for AixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AixError::Netlist(e) => write!(f, "{e}"),
            AixError::Flow(e) => write!(f, "{e}"),
            AixError::Spec(e) => write!(f, "{e}"),
            AixError::Lifetime(e) => write!(f, "{e}"),
            AixError::ComponentKind(e) => write!(f, "{e}"),
            AixError::LibraryFormat { path, source } => match path {
                Some(path) => write!(f, "{path}: {source}"),
                None => write!(f, "library text: {source}"),
            },
            // `ImportError` prefixes `line:col: ` itself when a location
            // is known, so this renders as `file.v:3:17: message`.
            AixError::Import { path, source } => write!(f, "{path}:{source}"),
            AixError::Io { path, source } => write!(f, "{path}: {source}"),
            AixError::MissingOption { flag } => write!(f, "{flag} is required"),
            AixError::InvalidOption {
                flag,
                value,
                expected,
            } => write!(f, "bad {flag} `{value}`: expected {expected}"),
            AixError::JobFailed { job, reason } => write!(f, "job {job} failed: {reason}"),
            AixError::CampaignIncomplete {
                failed,
                planned,
                first,
            } => write!(
                f,
                "campaign incomplete: {failed} of {planned} job(s) failed; first: {first}"
            ),
        }
    }
}

impl Error for AixError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AixError::Netlist(e) => Some(e),
            AixError::Flow(e) => Some(e),
            AixError::Spec(e) => Some(e),
            AixError::Lifetime(e) => Some(e),
            AixError::ComponentKind(e) => Some(e),
            AixError::LibraryFormat { source, .. } => Some(source),
            AixError::Import { source, .. } => Some(source),
            AixError::Io { source, .. } => Some(source),
            AixError::MissingOption { .. }
            | AixError::InvalidOption { .. }
            | AixError::JobFailed { .. }
            | AixError::CampaignIncomplete { .. } => None,
        }
    }
}

impl AixError {
    /// Wraps an I/O error with the path being accessed.
    pub fn io(path: impl Into<String>, source: std::io::Error) -> Self {
        AixError::Io {
            path: path.into(),
            source,
        }
    }

    /// Wraps a netlist import failure with the file it came from.
    pub fn import(path: impl Into<String>, source: ImportError) -> Self {
        AixError::Import {
            path: path.into(),
            source,
        }
    }

    /// Wraps a library parse error with the file it came from.
    pub fn library_file(path: impl Into<String>, source: ParseLibraryError) -> Self {
        AixError::LibraryFormat {
            path: Some(path.into()),
            source,
        }
    }
}

impl From<NetlistError> for AixError {
    fn from(value: NetlistError) -> Self {
        AixError::Netlist(value)
    }
}

impl From<FlowError> for AixError {
    fn from(value: FlowError) -> Self {
        AixError::Flow(value)
    }
}

impl From<InvalidSpecError> for AixError {
    fn from(value: InvalidSpecError) -> Self {
        AixError::Spec(value)
    }
}

impl From<InvalidLifetimeError> for AixError {
    fn from(value: InvalidLifetimeError) -> Self {
        AixError::Lifetime(value)
    }
}

impl From<ParseComponentKindError> for AixError {
    fn from(value: ParseComponentKindError) -> Self {
        AixError::ComponentKind(value)
    }
}

impl From<ParseLibraryError> for AixError {
    fn from(value: ParseLibraryError) -> Self {
        AixError::LibraryFormat {
            path: None,
            source: value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ApproxLibrary;

    #[test]
    fn display_names_the_fault() {
        let missing = AixError::MissingOption { flag: "--width" };
        assert!(missing.to_string().contains("--width"));
        let invalid = AixError::InvalidOption {
            flag: "--samples",
            value: "many".into(),
            expected: "a positive integer",
        };
        let text = invalid.to_string();
        assert!(text.contains("--samples") && text.contains("many"));
    }

    #[test]
    fn library_parse_errors_carry_path_and_line() {
        let parse = ApproxLibrary::from_text("not a library").unwrap_err();
        let err = AixError::library_file("lib.txt", parse);
        let text = err.to_string();
        assert!(text.contains("lib.txt") && text.contains("line 1"), "{text}");
    }

    #[test]
    fn from_impls_preserve_sources() {
        let netlist = NetlistError::NoOutputs;
        let err: AixError = netlist.into();
        assert!(std::error::Error::source(&err).is_some());
        let parse: AixError = ApproxLibrary::from_text("junk").unwrap_err().into();
        assert!(std::error::Error::source(&parse).is_some());
    }
}
