//! Minimal `--key=value` command-line option parsing for the experiment
//! binaries (no external dependency needed), and the engine settings they
//! read from the environment.

use aix_core::{AixError, EngineOptions};
use std::collections::HashMap;

/// The engine settings of the figure binaries. They take no engine flags,
/// so each setting is its `AIX_*` variable, else its default (see
/// [`EngineOptions::resolve`]). This is the one place outside the `aix`
/// CLI that reads the process environment.
///
/// # Errors
///
/// A malformed variable is an [`AixError::InvalidOption`] naming it.
pub fn engine_options() -> Result<EngineOptions, AixError> {
    EngineOptions::resolve(|_| None, |var| std::env::var(var).ok())
}

/// Parsed command-line options of an experiment binary.
///
/// Recognized syntax: `--key=value` and the bare flag `--full` (which the
/// experiments interpret as "paper-scale workload sizes").
#[derive(Debug, Clone, Default)]
pub struct Options {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Options {
    /// Parses the process arguments.
    pub fn from_env() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (used by tests and `exp-all`).
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        let mut options = Options::default();
        for arg in args {
            let Some(stripped) = arg.strip_prefix("--") else {
                continue;
            };
            match stripped.split_once('=') {
                Some((key, value)) => {
                    options.values.insert(key.to_owned(), value.to_owned());
                }
                None => options.flags.push(stripped.to_owned()),
            }
        }
        options
    }

    /// A numeric option, falling back to `default`.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.values
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Whether a bare flag was passed.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Paper-scale workloads requested (`--full`).
    pub fn full_scale(&self) -> bool {
        self.has_flag("full")
    }

    /// Chooses between a quick default and a paper-scale value.
    pub fn scaled(&self, key: &str, quick: usize, full: usize) -> usize {
        self.get_usize(key, if self.full_scale() { full } else { quick })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Options {
        Options::from_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_key_values_and_flags() {
        let o = opts(&["--vectors=500", "--full", "ignored"]);
        assert_eq!(o.get_usize("vectors", 100), 500);
        assert_eq!(o.get_usize("missing", 7), 7);
        assert!(o.full_scale());
        assert!(!o.has_flag("quick"));
    }

    #[test]
    fn scaled_picks_by_flag() {
        let quick = opts(&[]);
        assert_eq!(quick.scaled("vectors", 10, 1000), 10);
        let full = opts(&["--full"]);
        assert_eq!(full.scaled("vectors", 10, 1000), 1000);
        let explicit = opts(&["--full", "--vectors=55"]);
        assert_eq!(explicit.scaled("vectors", 10, 1000), 55);
    }
}
