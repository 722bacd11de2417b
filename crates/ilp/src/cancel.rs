//! Cooperative cancellation for long-running solves.
//!
//! A [`Cancellation`] is a cheap, cloneable handle shared between a solve
//! running on one thread and whoever supervises it on another (a
//! supervisor giving each back end a slice of a deadline, a batch
//! scheduler enforcing a global deadline, a CLI reacting to Ctrl-C). Solvers poll [`Cancellation::is_expired`] in
//! their inner loops and wind down gracefully — returning their best
//! incumbent where they have one, exactly like hitting a time limit.
//!
//! Two independent trip conditions, whichever fires first:
//!
//! - an explicit [`Cancellation::cancel`] call from any holder of a clone
//!   (a caller giving up, or a spurious cancellation injected by chaos);
//! - an absolute wall-clock [deadline](Cancellation::with_deadline)
//!   (shared budget across a whole batch, not per-solve).
//!
//! Tokens form a hierarchy via [`Cancellation::child`]: cancelling a
//! parent cancels every descendant, while cancelling a child leaves its
//! parent (and siblings) running. The supervisor hands each attempt its
//! own deadline-bounded child, so one rung running out of time leaves the
//! rest of the run its budget.
//!
//! The default token never expires, so single-solver callers pay one
//! relaxed atomic load per poll and nothing else.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared cancellation token polled by solver inner loops.
///
/// Clones share the same flag: cancelling any clone cancels them all.
///
/// # Examples
///
/// ```
/// use troy_ilp::Cancellation;
///
/// let token = Cancellation::new();
/// let observer = token.clone();
/// assert!(!observer.is_expired());
/// token.cancel();
/// assert!(observer.is_expired());
/// ```
#[derive(Debug, Clone)]
pub struct Cancellation {
    /// `flags[0]` is this token's own flag ([`Cancellation::cancel`] sets
    /// it); the rest belong to ancestors. Any raised flag expires the
    /// token, so parent cancellation propagates down but not up.
    flags: Vec<Arc<AtomicBool>>,
    deadline: Option<Instant>,
}

impl Default for Cancellation {
    fn default() -> Self {
        Cancellation {
            flags: vec![Arc::new(AtomicBool::new(false))],
            deadline: None,
        }
    }
}

impl Cancellation {
    /// A token that never expires until [`Cancellation::cancel`] is called.
    #[must_use]
    pub fn new() -> Self {
        Cancellation::default()
    }

    /// A token that additionally expires `budget` from now.
    #[must_use]
    pub fn with_deadline(budget: Duration) -> Self {
        Cancellation {
            deadline: Instant::now().checked_add(budget),
            ..Cancellation::default()
        }
    }

    /// A child token: expires when this token does (cancel or deadline),
    /// but cancelling the child does not touch this token or its other
    /// children.
    ///
    /// ```
    /// use troy_ilp::Cancellation;
    ///
    /// let race = Cancellation::new();
    /// let loser = race.child();
    /// let rival = race.child();
    /// loser.cancel();
    /// assert!(loser.is_expired());
    /// assert!(!rival.is_expired(), "siblings are independent");
    /// race.cancel();
    /// assert!(rival.is_expired(), "parent cancel reaches every child");
    /// ```
    #[must_use]
    pub fn child(&self) -> Cancellation {
        let mut flags = Vec::with_capacity(self.flags.len() + 1);
        flags.push(Arc::new(AtomicBool::new(false)));
        flags.extend(self.flags.iter().cloned());
        Cancellation {
            flags,
            deadline: self.deadline,
        }
    }

    /// A child token that additionally expires `budget` from now.
    ///
    /// The effective deadline is the *earlier* of the parent's deadline
    /// and `now + budget`, so a supervisor can hand each attempt a slice
    /// of its own budget without ever extending it — the per-backend
    /// deadline hook the resilience supervisor builds on.
    ///
    /// A deadline that is already in the past when the child is created
    /// (a zero budget, or a parent whose deadline has expired) trips the
    /// child's own cancel flag immediately: the child and every token
    /// later derived from it observe expiry on their first poll through
    /// the flag chain, without depending on a clock comparison.
    ///
    /// ```
    /// use std::time::Duration;
    /// use troy_ilp::Cancellation;
    ///
    /// let run = Cancellation::with_deadline(Duration::from_secs(60));
    /// let attempt = run.child_with_deadline(Duration::from_millis(0));
    /// assert!(attempt.is_expired(), "attempt budget binds first");
    /// assert!(!run.is_expired(), "the run keeps its own deadline");
    /// ```
    #[must_use]
    pub fn child_with_deadline(&self, budget: Duration) -> Cancellation {
        let mut child = self.child();
        let now = Instant::now();
        // A budget so large that `now + budget` overflows the clock is an
        // unreachable bound: treat it as "no extra deadline" rather than
        // silently dropping the parent's.
        let attempt = now.checked_add(budget);
        child.deadline = match (child.deadline, attempt) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        if child.deadline.is_some_and(|d| d <= now) {
            child.cancel();
        }
        child
    }

    /// The absolute deadline, when one was set.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Trips this token's own flag; every clone and descendant observes it
    /// on its next poll.
    pub fn cancel(&self) {
        self.flags[0].store(true, Ordering::Relaxed);
    }

    /// `true` once [`Cancellation::cancel`] was called on any clone of
    /// this token or of an ancestor.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flags.iter().any(|f| f.load(Ordering::Relaxed))
    }

    /// `true` once cancelled *or* past the deadline — the condition solver
    /// inner loops poll.
    #[must_use]
    pub fn is_expired(&self) -> bool {
        self.is_cancelled() || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Time left until the deadline; `None` when no deadline was set,
    /// `Some(ZERO)` once it has passed.
    #[must_use]
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_token_never_expires() {
        let t = Cancellation::new();
        assert!(!t.is_cancelled());
        assert!(!t.is_expired());
        assert!(t.deadline().is_none());
        assert!(t.remaining().is_none());
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let t = Cancellation::new();
        let c = t.clone();
        c.cancel();
        assert!(t.is_cancelled());
        assert!(t.is_expired());
    }

    #[test]
    fn deadline_expires_without_explicit_cancel() {
        let t = Cancellation::with_deadline(Duration::from_millis(0));
        assert!(t.is_expired());
        assert!(!t.is_cancelled(), "deadline expiry is not a cancel call");
        assert_eq!(t.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn future_deadline_reports_remaining_budget() {
        let t = Cancellation::with_deadline(Duration::from_secs(3600));
        assert!(!t.is_expired());
        assert!(t.remaining().expect("deadline set") > Duration::from_secs(3000));
    }

    #[test]
    fn child_cancel_does_not_reach_parent_or_sibling() {
        let parent = Cancellation::new();
        let a = parent.child();
        let b = parent.child();
        a.cancel();
        assert!(a.is_expired());
        assert!(!parent.is_expired());
        assert!(!b.is_expired());
    }

    #[test]
    fn parent_cancel_reaches_grandchildren() {
        let parent = Cancellation::new();
        let child = parent.child();
        let grandchild = child.child();
        parent.cancel();
        assert!(child.is_expired());
        assert!(grandchild.is_expired());
    }

    #[test]
    fn child_with_deadline_takes_the_earlier_bound() {
        // Tighter child budget binds while the parent stays live; a
        // zero budget is a deadline already in the past, so the child is
        // cancelled at construction (not merely clock-expired).
        let parent = Cancellation::with_deadline(Duration::from_secs(3600));
        let attempt = parent.child_with_deadline(Duration::from_millis(0));
        assert!(attempt.is_expired());
        assert!(attempt.is_cancelled());
        assert!(!parent.is_expired());

        // A looser child budget cannot extend past the parent's deadline.
        let tight = Cancellation::with_deadline(Duration::from_millis(0));
        let loose = tight.child_with_deadline(Duration::from_secs(3600));
        assert!(loose.is_expired());

        // Without any parent deadline, the child budget alone applies.
        let free = Cancellation::new();
        let sliced = free.child_with_deadline(Duration::from_secs(3600));
        assert!(!sliced.is_expired());
        assert!(sliced.deadline().is_some());
        assert!(free.deadline().is_none());

        // Parent cancellation still reaches the deadline child.
        free.cancel();
        assert!(sliced.is_expired());
    }

    #[test]
    fn child_inherits_deadline() {
        let parent = Cancellation::with_deadline(Duration::from_millis(0));
        let child = parent.child();
        assert!(child.is_expired());
        assert!(!child.is_cancelled());
    }
}
