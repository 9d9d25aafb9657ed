//! Cooperative cancellation with optional deadlines.
//!
//! A [`CancelToken`] is a cheap, cloneable handle shared between the
//! owner of a design-space search (`aix explore --deadline`) and the
//! search's workers. The owner cancels it — explicitly or by attaching a
//! deadline — and the search observes the token between candidates:
//! candidates not yet started are skipped, and the search returns a
//! *partial* front through the normal
//! [`CampaignStatus`](crate::CampaignStatus) machinery instead of running
//! on.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A cloneable cancellation handle; see the module docs.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token with no deadline; cancels only via [`cancel`](Self::cancel).
    #[must_use]
    pub fn new() -> Self {
        Self::with_deadline(None)
    }

    /// A token that reports cancelled once `deadline` passes.
    fn with_deadline(deadline: Option<Instant>) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline,
            }),
        }
    }

    /// A token whose deadline is `budget` from now.
    #[must_use]
    pub fn deadline_in(budget: Duration) -> Self {
        Self::with_deadline(Some(Instant::now() + budget))
    }

    /// Cancels every clone of this token, immediately and permanently.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether the token was cancelled or its deadline has passed.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::SeqCst) {
            return true;
        }
        match self.inner.deadline {
            Some(deadline) => Instant::now() >= deadline,
            None => false,
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_cancel_reaches_every_clone() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn deadline_expires() {
        let token = CancelToken::deadline_in(Duration::from_millis(30));
        assert!(!token.is_cancelled());
        std::thread::sleep(Duration::from_millis(40));
        assert!(token.is_cancelled());
    }
}
