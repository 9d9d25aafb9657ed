//! Per-job panic isolation.
//!
//! Every synthesis and STA pass of a campaign, every cache probe and
//! writeback, and every explored candidate runs through [`run_guarded`]
//! so that one misbehaving job — a panic or an error — is converted into a
//! per-job failure reason instead of taking the whole process (or, through
//! mutex poisoning, every sibling worker) down. Callers that report a
//! panic apart from their job's errors (each file of `aix import`, each
//! entry of a verification campaign) use the primitive beneath it,
//! [`contain_panic`]. A contained panic is reported once, by its caller:
//! it never reaches the panic hook, so it prints no `panicked at` message
//! of its own.

use crate::AixError;
use aix_faults::{FaultPlan, FaultStage};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

thread_local! {
    /// Whether this thread is running guarded work, whose panics
    /// [`contain_panic`] hands back to its caller.
    static GUARDED: Cell<bool> = const { Cell::new(false) };
}

/// Installs, once per process, a panic hook that stays silent for panics
/// raised inside [`contain_panic`] and hands every other panic to the hook
/// it replaced, so uncontained panics still print.
fn silence_contained_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !GUARDED.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Renders a caught panic payload (`&str` or `String`, the payloads
/// `panic!` produces) as a message for failure reports.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `work` with this thread marked guarded, so a panic it raises
/// prints nothing, and catches that panic: it comes back as its message.
///
/// # Errors
///
/// Returns the panic's message if `work` panics.
pub fn contain_panic<T>(work: impl FnOnce() -> T) -> Result<T, String> {
    silence_contained_panics();
    let outer = GUARDED.with(|guarded| guarded.replace(true));
    let outcome = catch_unwind(AssertUnwindSafe(work));
    GUARDED.with(|guarded| guarded.set(outer));
    outcome.map_err(panic_message)
}

/// Runs one job once, after evaluating `faults` at `(stage, site)`. The
/// job's error, an injected fault or a panic becomes the failure's
/// reason: the error's display, or `panicked: <message>`.
pub fn run_guarded<T>(
    faults: Option<&FaultPlan>,
    stage: FaultStage,
    site: &str,
    work: impl FnOnce() -> Result<T, AixError>,
) -> Result<T, String> {
    let outcome = contain_panic(|| {
        if let Some(plan) = faults {
            plan.check(stage, site)
                .map_err(|e| AixError::io(format!("{stage} site `{site}`"), e))?;
        }
        work()
    });
    match outcome {
        Ok(result) => result.map_err(|error| error.to_string()),
        Err(message) => Err(format!("panicked: {message}")),
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
    fn only_guarded_work_is_marked_guarded() {
        assert!(!GUARDED.with(Cell::get));
        let (nested, still_guarded) = run_guarded(None, FaultStage::Synth, "outer", || {
            let nested = run_guarded(
                None,
                FaultStage::Sta,
                "inner",
                || -> Result<(), AixError> { panic!("inner") },
            );
            Ok((nested, GUARDED.with(Cell::get)))
        })
        .unwrap();
        assert_eq!(nested, Err("panicked: inner".to_owned()));
        assert!(still_guarded, "a nested guard restores its caller's mark");
        assert!(!GUARDED.with(Cell::get), "the mark ends with the guard");
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
