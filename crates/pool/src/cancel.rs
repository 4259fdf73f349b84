//! Cooperative cancellation and deadline tokens.
//!
//! A [`CancelToken`] is the single signal threaded through the whole
//! execution stack — scheduler chunk loops, symbolic execution,
//! adaptive-refinement rounds — so a deadline or an
//! explicit cancel turns a long-running query into an **anytime sound
//! result** instead of a torn bound or a kill. Cancellation is purely
//! cooperative: work already claimed always runs to completion (the
//! scheduler's monotone-cursor soundness argument depends on it), and
//! checkpoints only decide whether to claim *more*.
//!
//! Tokens are cheap to clone (one `Arc`) and safe to poll from any
//! thread. Two polling tiers keep the hot paths hot:
//!
//! * [`CancelToken::is_cancelled`] — full check: the latched flag
//!   *or* an expired deadline (which latches the flag, so every later
//!   fast poll observes it). Costs one `Instant::now()`; intended for
//!   chunk/round/request checkpoints.
//! * [`CancelToken::is_cancelled_fast`] — flag-only relaxed load for
//!   per-node hot loops; deadline expiry becomes visible as soon as any
//!   checkpoint (on any thread sharing the token) runs the full check.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct TokenInner {
    /// Latched once true — by `cancel()` or by an observed deadline.
    cancelled: AtomicBool,
    /// Absolute expiry; `None` means "manual cancel only".
    deadline: Option<Instant>,
}

/// A shareable cooperative cancellation/deadline signal.
///
/// `Clone` shares the signal: cancelling any clone cancels them all.
/// A token with no deadline never cancels on its own — it is the
/// "never" token that keeps uncancelled runs on the exact historical
/// code path.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl Default for CancelToken {
    fn default() -> CancelToken {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A token that only cancels when [`CancelToken::cancel`] is called.
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that expires at the absolute instant `deadline`.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// A token that expires `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> CancelToken {
        CancelToken::with_deadline(Instant::now() + timeout)
    }

    /// Cancels the token (and every clone) immediately and permanently.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Full cancellation check: latched flag or expired deadline.
    /// Observing an expired deadline latches the flag, so subsequent
    /// [`CancelToken::is_cancelled_fast`] polls — on any thread — see it.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => {
                self.inner.cancelled.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Flag-only relaxed check for hot loops (no clock read). Pair with
    /// a periodic [`CancelToken::is_cancelled`] so deadline expiry is
    /// eventually observed.
    pub fn is_cancelled_fast(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// The deadline, if this token has one.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Time left before the deadline (`None` when there is no deadline;
    /// `Some(ZERO)` once expired or cancelled).
    pub fn remaining(&self) -> Option<Duration> {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return self.inner.deadline.map(|_| Duration::ZERO);
        }
        self.inner
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_cancel_is_shared_and_latched() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!t.is_cancelled());
        assert!(!u.is_cancelled_fast());
        u.cancel();
        assert!(t.is_cancelled());
        assert!(t.is_cancelled_fast());
        assert!(u.is_cancelled());
    }

    #[test]
    fn deadline_expiry_latches_the_fast_flag() {
        let t = CancelToken::with_timeout(Duration::ZERO);
        // The fast poll cannot see the (never-observed) deadline ...
        assert!(!t.is_cancelled_fast());
        // ... but the full check latches it for every later fast poll.
        assert!(t.is_cancelled());
        assert!(t.is_cancelled_fast());
        assert_eq!(t.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn future_deadline_does_not_cancel_yet() {
        let t = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        assert!(t.remaining().expect("has a deadline") > Duration::from_secs(3000));
        assert!(t.deadline().is_some());
    }

    #[test]
    fn never_token_has_no_deadline() {
        let t = CancelToken::new();
        assert_eq!(t.deadline(), None);
        assert_eq!(t.remaining(), None);
    }
}
