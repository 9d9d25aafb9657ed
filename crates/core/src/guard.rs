//! Per-job panic isolation.
//!
//! Every synthesis and STA job of a campaign runs through [`run_guarded`]
//! so that one misbehaving job — a panic or an error — is converted into a
//! per-job failure reason instead of taking the whole process (or, through
//! mutex poisoning, every sibling worker) down.

use crate::AixError;
use aix_faults::{FaultPlan, FaultStage};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Renders a caught panic payload (`&str` or `String`, the payloads
/// `panic!` produces) as a message for failure reports.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs one job once, after evaluating `faults` at `(stage, site)`. The
/// job's error, an injected fault or a panic becomes the failure's
/// reason: the error's display, or `panicked: <message>`.
pub(crate) fn run_guarded<T>(
    faults: Option<&FaultPlan>,
    stage: FaultStage,
    site: &str,
    work: impl FnOnce() -> Result<T, AixError>,
) -> Result<T, String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if let Some(plan) = faults {
            plan.check(stage, site)
                .map_err(|e| AixError::io(format!("{stage} site `{site}`"), e))?;
        }
        work()
    }));
    match outcome {
        Ok(result) => result.map_err(|error| error.to_string()),
        Err(payload) => Err(format!("panicked: {}", panic_message(payload))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn success_passes_through_with_one_attempt() {
        let calls = AtomicUsize::new(0);
        let value = run_guarded(None, FaultStage::Synth, "ok", || {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok(41 + 1)
        })
        .unwrap();
        assert_eq!(value, 42);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn panic_is_contained_and_never_retried() {
        let calls = AtomicUsize::new(0);
        let reason = run_guarded(
            None,
            FaultStage::Synth,
            "boom",
            || -> Result<(), AixError> {
                calls.fetch_add(1, Ordering::SeqCst);
                panic!("kaput")
            },
        )
        .unwrap_err();
        assert_eq!(reason, "panicked: kaput");
        assert_eq!(calls.load(Ordering::SeqCst), 1, "a panicking job runs once");
    }

    #[test]
    fn structural_errors_never_retry() {
        let calls = AtomicUsize::new(0);
        let reason = run_guarded(
            None,
            FaultStage::Synth,
            "bad-spec",
            || -> Result<(), AixError> {
                calls.fetch_add(1, Ordering::SeqCst);
                Err(AixError::MissingOption { flag: "--width" })
            },
        )
        .unwrap_err();
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(reason, "--width is required");

        // An injected fault fails the job before its work runs.
        let plan: FaultPlan = "io:p=1,stage=sta".parse().unwrap();
        let reason = run_guarded(
            Some(&plan),
            FaultStage::Sta,
            "site",
            || -> Result<(), AixError> {
                calls.fetch_add(1, Ordering::SeqCst);
                Ok(())
            },
        )
        .unwrap_err();
        assert!(reason.contains("injected fault"), "{reason}");
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }
}
