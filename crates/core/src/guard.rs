//! Per-job fault containment: panic isolation, a wall-clock watchdog and
//! seeded retry with decorrelated-jitter backoff.
//!
//! Every synthesis and STA job of a campaign runs through [`JobGuard::run`]
//! so that one misbehaving job — a panic, a hang, a transient I/O failure —
//! is converted into a structured per-job outcome instead of taking the
//! whole process (or, through mutex poisoning, every sibling worker) down.

use crate::AixError;
use aix_faults::{FaultPlan, FaultStage};
use aix_obs::names::core as names;
use aix_obs::{fnv1a, FNV_OFFSET};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

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

/// How one job is allowed to fail.
#[derive(Debug, Clone, Default)]
pub(crate) struct JobGuard {
    /// Wall-clock bound per attempt; `None` disables the watchdog (the job
    /// runs inline on the worker thread).
    pub timeout: Option<Duration>,
    /// Extra attempts granted to *transient* failures (I/O errors and
    /// timeouts). Panics and structural errors never retry.
    pub retries: usize,
    /// Base of the decorrelated-jitter backoff between attempts, in
    /// milliseconds; `0` retries immediately.
    pub backoff_ms: u64,
    /// Upper bound on any single backoff sleep, in milliseconds; `0`
    /// leaves the backoff uncapped.
    pub backoff_cap_ms: u64,
    /// Fault plan injected at this guard's sites, for testing the guard
    /// itself.
    pub faults: Option<Arc<FaultPlan>>,
}

/// Why a guarded job ultimately failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct JobError {
    /// Human-readable cause: the error display, panic message, or timeout.
    pub reason: String,
    /// Attempts spent, including the failing one.
    pub attempts: usize,
    /// Whether the last attempt was killed by the watchdog.
    pub timed_out: bool,
    /// Whether the last attempt panicked.
    pub panicked: bool,
}

enum Attempt<T> {
    Finished(Result<T, AixError>),
    Panicked(String),
    TimedOut,
}

impl JobGuard {
    /// Runs one job to completion under this guard. `make` is called once
    /// per attempt and must return a fresh closure performing the work;
    /// attempts are numbered from 1 and fed to the fault plan, so injected
    /// transient faults can deterministically clear on retry.
    ///
    /// Returns the job's value and the attempts spent, or a [`JobError`]
    /// describing the exhausted failure.
    pub fn run<T, W, F>(
        &self,
        stage: FaultStage,
        site: &str,
        mut make: F,
    ) -> Result<(T, usize), JobError>
    where
        T: Send + 'static,
        W: FnOnce() -> Result<T, AixError> + Send + 'static,
        F: FnMut() -> W,
    {
        let mut attempt = 0usize;
        let mut prev_backoff = self.backoff_ms;
        loop {
            attempt += 1;
            let work = make();
            let faults = self.faults.clone();
            let site_owned = site.to_owned();
            let guarded = move || -> Result<T, AixError> {
                if let Some(plan) = &faults {
                    plan.check(stage, &site_owned, attempt).map_err(|e| {
                        AixError::io(format!("{stage} site `{site_owned}`"), e)
                    })?;
                }
                work()
            };
            let outcome = match self.timeout {
                None => match catch_unwind(AssertUnwindSafe(guarded)) {
                    Ok(result) => Attempt::Finished(result),
                    Err(payload) => Attempt::Panicked(panic_message(payload)),
                },
                Some(limit) => {
                    // The attempt runs on its own (unscoped) thread so the
                    // watchdog can abandon it: a hung attempt is left
                    // detached and its eventual result discarded.
                    let (tx, rx) = mpsc::channel();
                    let handle = std::thread::Builder::new()
                        .name(format!("aix-job {site}"))
                        .spawn(move || {
                            let _ = tx.send(catch_unwind(AssertUnwindSafe(guarded)));
                        })
                        .expect("spawn job watchdog thread");
                    match rx.recv_timeout(limit) {
                        Ok(Ok(result)) => {
                            let _ = handle.join();
                            Attempt::Finished(result)
                        }
                        Ok(Err(payload)) => {
                            let _ = handle.join();
                            Attempt::Panicked(panic_message(payload))
                        }
                        Err(_) => Attempt::TimedOut,
                    }
                }
            };
            match outcome {
                Attempt::Finished(Ok(value)) => return Ok((value, attempt)),
                Attempt::Finished(Err(error)) => {
                    // I/O failures (real or injected) are transient; any
                    // other error is structural and retrying cannot help.
                    let transient = matches!(error, AixError::Io { .. });
                    if transient && attempt <= self.retries {
                        aix_obs::count!(
                            names::JOB_RETRY,
                            site = site,
                            attempt = attempt,
                            cause = "io"
                        );
                        self.backoff(site, attempt, &mut prev_backoff);
                        continue;
                    }
                    return Err(JobError {
                        reason: error.to_string(),
                        attempts: attempt,
                        timed_out: false,
                        panicked: false,
                    });
                }
                Attempt::TimedOut => {
                    if attempt <= self.retries {
                        aix_obs::count!(
                            names::JOB_RETRY,
                            site = site,
                            attempt = attempt,
                            cause = "timeout"
                        );
                        self.backoff(site, attempt, &mut prev_backoff);
                        continue;
                    }
                    aix_obs::count!(names::JOB_TIMEOUT, site = site, attempts = attempt);
                    return Err(JobError {
                        reason: format!(
                            "timed out after {:.3} s",
                            self.timeout.unwrap_or_default().as_secs_f64()
                        ),
                        attempts: attempt,
                        timed_out: true,
                        panicked: false,
                    });
                }
                Attempt::Panicked(message) => {
                    return Err(JobError {
                        reason: format!("panicked: {message}"),
                        attempts: attempt,
                        timed_out: false,
                        panicked: true,
                    });
                }
            }
        }
    }

    /// Sleeps before retry `attempt + 1` using decorrelated jitter (see
    /// [`decorrelated_backoff_ms`]), threading the previous delay through
    /// `prev`.
    fn backoff(&self, site: &str, attempt: usize, prev: &mut u64) {
        if self.backoff_ms == 0 {
            return;
        }
        let sleep_ms =
            decorrelated_backoff_ms(self.backoff_ms, self.backoff_cap_ms, *prev, site, attempt);
        *prev = sleep_ms;
        std::thread::sleep(Duration::from_millis(sleep_ms));
    }
}

/// The delay before the next retry, in milliseconds: *decorrelated jitter*
/// (`sleep = min(cap, base + unit · (3·prev − base))`, unit ∈ [0, 1)
/// drawn deterministically from the site hash), so the expected delay
/// still doubles per attempt but the engine's retries of jobs that failed
/// together (say, on one shared cache directory) spread over the whole
/// `[base, 3·prev)` band instead of stampeding in lockstep at the same
/// exponential instants. A `cap` of `0` leaves the growth uncapped. Pure:
/// the same `(base, cap, prev, site, attempt)` always yields the same
/// delay.
pub fn decorrelated_backoff_ms(
    base: u64,
    cap: u64,
    prev: u64,
    site: &str,
    attempt: usize,
) -> u64 {
    if base == 0 {
        return 0;
    }
    let cap = if cap == 0 { u64::MAX } else { cap };
    let span = prev.saturating_mul(3).saturating_sub(base);
    // 53 high bits of the FNV hash map to [0, 1) at f64 resolution.
    let hash = fnv1a(
        fnv1a(FNV_OFFSET, site.as_bytes()),
        &(attempt as u64).to_le_bytes(),
    );
    let unit = (hash >> 11) as f64 / (1u64 << 53) as f64;
    let jittered = base.saturating_add((span as f64 * unit) as u64);
    jittered.min(cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn guard(retries: usize) -> JobGuard {
        JobGuard {
            retries,
            ..JobGuard::default()
        }
    }

    #[test]
    fn success_passes_through_with_one_attempt() {
        let (value, attempts) = guard(3)
            .run(FaultStage::Synth, "ok", || || Ok(41 + 1))
            .unwrap();
        assert_eq!(value, 42);
        assert_eq!(attempts, 1);
    }

    #[test]
    fn panic_is_contained_and_never_retried() {
        let calls = AtomicUsize::new(0);
        let err = guard(5)
            .run(FaultStage::Synth, "boom", || {
                calls.fetch_add(1, Ordering::SeqCst);
                || -> Result<(), AixError> { panic!("kaput") }
            })
            .unwrap_err();
        assert!(err.panicked);
        assert!(err.reason.contains("kaput"));
        assert_eq!(err.attempts, 1);
        assert_eq!(calls.load(Ordering::SeqCst), 1, "panics must not retry");
    }

    #[test]
    fn transient_io_retries_until_budget_then_fails() {
        let calls = AtomicUsize::new(0);
        let (value, attempts) = guard(2)
            .run(FaultStage::Cache, "flaky", || {
                let n = calls.fetch_add(1, Ordering::SeqCst);
                move || -> Result<&'static str, AixError> {
                    if n < 2 {
                        Err(AixError::io(
                            "flaky",
                            std::io::Error::other("transient"),
                        ))
                    } else {
                        Ok("recovered")
                    }
                }
            })
            .unwrap();
        assert_eq!(value, "recovered");
        assert_eq!(attempts, 3);

        let err = guard(1)
            .run(FaultStage::Cache, "hopeless", || {
                || -> Result<(), AixError> {
                    Err(AixError::io("always", std::io::Error::other("down")))
                }
            })
            .unwrap_err();
        assert_eq!(err.attempts, 2, "1 retry = 2 attempts");
        assert!(!err.panicked && !err.timed_out);
    }

    #[test]
    fn structural_errors_never_retry() {
        let calls = AtomicUsize::new(0);
        let err = guard(5)
            .run(FaultStage::Synth, "bad-spec", || {
                calls.fetch_add(1, Ordering::SeqCst);
                || -> Result<(), AixError> {
                    Err(AixError::MissingOption { flag: "--width" })
                }
            })
            .unwrap_err();
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(err.attempts, 1);
    }

    #[test]
    fn watchdog_quarantines_hung_jobs() {
        let slow = JobGuard {
            timeout: Some(Duration::from_millis(25)),
            ..JobGuard::default()
        };
        let err = slow
            .run(FaultStage::Sta, "hang", || {
                || -> Result<(), AixError> {
                    std::thread::sleep(Duration::from_millis(400));
                    Ok(())
                }
            })
            .unwrap_err();
        assert!(err.timed_out);
        assert!(err.reason.contains("timed out"));

        // A fast job under the same watchdog succeeds normally.
        let (value, _) = slow
            .run(FaultStage::Sta, "fast", || || Ok(7))
            .unwrap();
        assert_eq!(value, 7);
    }

    /// The delay sequence a guard would sleep through for a site, with the
    /// previous delay threaded exactly as `run` does.
    fn backoff_sequence(base: u64, cap: u64, site: &str, attempts: usize) -> Vec<u64> {
        let mut prev = base;
        (1..=attempts)
            .map(|attempt| {
                let delay = decorrelated_backoff_ms(base, cap, prev, site, attempt);
                prev = delay;
                delay
            })
            .collect()
    }

    #[test]
    fn backoff_is_decorrelated_jittered_and_capped() {
        // Deterministic: the same (site, attempt) history replays the same
        // delay sequence, so retry timing is pinned by the seedable hash.
        let first = backoff_sequence(25, 1_000, "synth adder-w16-p7", 8);
        let second = backoff_sequence(25, 1_000, "synth adder-w16-p7", 8);
        assert_eq!(first, second);

        // Every delay stays inside [base, cap].
        assert!(first.iter().all(|&ms| (25..=1_000).contains(&ms)), "{first:?}");

        // The cap actually binds: with unbounded growth the 8th delay of a
        // tripling-span sequence would exceed 1000 ms for some site.
        let uncapped = backoff_sequence(25, 0, "synth adder-w16-p7", 8);
        assert!(uncapped.last().copied().unwrap() >= first.last().copied().unwrap());
        assert!(
            (0..50)
                .any(|i| *backoff_sequence(25, 0, &format!("site-{i}"), 8).last().unwrap() > 1_000),
            "uncapped sequences must be able to outgrow the cap"
        );

        // Decorrelation: different sites draw different delay sequences —
        // jobs retrying side by side do not stampede.
        let other = backoff_sequence(25, 1_000, "synth mult-w8-p3", 8);
        assert_ne!(first, other);

        // A zero base disables backoff entirely.
        assert_eq!(decorrelated_backoff_ms(0, 1_000, 0, "x", 1), 0);
    }

    #[test]
    fn injected_io_fault_clears_on_retry() {
        // p=1 on attempt 1 only is impossible; instead pick a seeded
        // probability and find a site where attempt 1 fires but a later
        // attempt does not — then assert the guard recovers exactly there.
        let plan: Arc<FaultPlan> = Arc::new("io:p=0.5,seed=9".parse().unwrap());
        let site = (0..200)
            .map(|i| format!("synth probe-{i}"))
            .find(|s| {
                plan.specs()[0].fires(FaultStage::Synth, s, 1)
                    && !plan.specs()[0].fires(FaultStage::Synth, s, 2)
            })
            .expect("some site recovers on attempt 2");
        let flaky = JobGuard {
            retries: 1,
            faults: Some(plan),
            ..JobGuard::default()
        };
        let (value, attempts) = flaky
            .run(FaultStage::Synth, &site, || || Ok("made it"))
            .unwrap();
        assert_eq!(value, "made it");
        assert_eq!(attempts, 2);
    }
}
