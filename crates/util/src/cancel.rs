//! Request-lifecycle cancellation: deadline tokens, an ambient
//! per-thread token, and the request deadlines that trip them.
//!
//! The server gives every request a bounded lifecycle:
//!
//! * [`CancelToken`] — a shared advisory flag polled by pipeline stages
//!   and kernel chunk loops. The poll is a single `Relaxed` atomic load,
//!   so kernels stay clock-free (lint rule HL004): the clock that fires
//!   a deadline belongs to the server's event loop, never to kernel
//!   crates. The token is *single-flight aware*: it counts **interest**
//!   — the flight leader plus every waiter holds one registration, and
//!   the token only trips when every registrant has given up or
//!   expired. A leader with live waiters keeps computing even after its
//!   own deadline passes.
//! * [`Deadline`] — RAII handle for one request's deadline. The request
//!   creates it and hands its [`DeadlineTimer`] to the timer owner (the
//!   event loop's timer heap). At expiry the timer marks the request
//!   expired and releases the interest the request attached; dropping
//!   the handle first (request finished) makes the later fire a no-op.
//! * [`checkpoint`] — the coordinator-side cancellation point: when the
//!   ambient token has tripped it panics with the [`Cancelled`] payload,
//!   which the single-flight cache's `catch_unwind` converts into the
//!   [`CANCELLED`] sentinel error (mapped to a 504 by the server, never
//!   negative-cached). Worker loops never panic — they only poll the
//!   flag and exit early; the coordinator owns the unwind.
//!
//! The ambient token is a thread-local set by [`with_token`];
//! [`crate::parallel::scope_workers`] re-propagates it into spawned
//! workers the same way it propagates the telemetry span context.
//!
//! Atomics and locks come from [`crate::sync`], so the sched model
//! checker can explore a deadline firing while its request runs
//! (`tests/sched_cancel.rs`).

use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use crate::sync::{Arc, Mutex};
use std::cell::RefCell;
use std::time::Instant;

/// Sentinel error string a cancelled flight resolves to. The server
/// maps exactly this string to `504 Gateway Timeout` and the cache
/// never negative-caches it (the *next* request should recompute).
pub const CANCELLED: &str = "request deadline exceeded";

/// Panic payload thrown by [`checkpoint`]. The single-flight cache's
/// `catch_unwind` downcasts this before the generic panic arms so a
/// cancellation is reported as [`CANCELLED`], not as a crash.
pub struct Cancelled;

struct TokenInner {
    /// Tripped when interest drains to zero (or `cancel()` forces it).
    /// Advisory flag: all accesses are `Relaxed` — pollers act on it
    /// eventually, nothing synchronizes through it.
    cancelled: AtomicBool,
    /// Number of registered participants still wanting the result.
    interest: AtomicUsize,
}

/// A shared cancellation flag with interest counting.
///
/// Cloning shares the flag. Created with zero interest; each
/// participant calls [`register_interest`](CancelToken::register_interest)
/// and something (normally a [`Deadline`] at expiry) later calls
/// [`release_interest`](CancelToken::release_interest). The drop from
/// one registration to zero trips the flag — so a token with a
/// no-deadline participant never trips, and a flight leader is only
/// cancelled when *all* its waiters have given up.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl CancelToken {
    /// A fresh, untripped token with zero registered interest.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                interest: AtomicUsize::new(0),
            }),
        }
    }

    /// True once the token has tripped. A single `Relaxed` load — safe
    /// to call from kernel inner loops.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// Adds one participant keeping the computation alive.
    pub fn register_interest(&self) {
        self.inner.interest.fetch_add(1, Ordering::Relaxed);
    }

    /// Removes one participant; the release that drains interest to
    /// zero trips the token.
    pub fn release_interest(&self) {
        if self.inner.interest.fetch_sub(1, Ordering::Relaxed) == 1 {
            self.inner.cancelled.store(true, Ordering::Relaxed);
        }
    }

    /// Participants currently registered (diagnostics/tests).
    pub fn interest(&self) -> usize {
        self.inner.interest.load(Ordering::Relaxed)
    }

    /// Trips the token unconditionally, regardless of interest.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .field("interest", &self.interest())
            .finish()
    }
}

thread_local! {
    static CURRENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// Runs `f` with `token` as the thread's ambient cancellation token,
/// restoring the previous ambient token afterwards (panic-safe).
pub fn with_token<T>(token: Option<CancelToken>, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<CancelToken>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let prev = CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), token));
    let _restore = Restore(prev);
    f()
}

/// The calling thread's ambient cancellation token, if any.
pub fn current() -> Option<CancelToken> {
    CURRENT.with(|c| c.borrow().clone())
}

/// True when the ambient token exists and has tripped.
#[inline]
pub fn cancelled() -> bool {
    CURRENT.with(|c| c.borrow().as_ref().is_some_and(|t| t.is_cancelled()))
}

/// A hoisted handle for hot loops: resolves the thread-local once, then
/// each poll is a plain atomic load (or a constant `false` when no
/// token is ambient).
pub struct Poll(Option<CancelToken>);

impl Poll {
    /// Captures the calling thread's ambient token.
    pub fn capture() -> Self {
        Poll(current())
    }

    /// True when the captured token has tripped.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.0.as_ref().is_some_and(|t| t.is_cancelled())
    }
}

/// Coordinator-side cancellation point: panics with [`Cancelled`] when
/// the ambient token has tripped. Call this only on a flight-owner
/// thread running under the single-flight cache's `catch_unwind` (or a
/// test harness that catches it) — worker threads poll the flag and
/// exit early instead of unwinding.
pub fn checkpoint() {
    if cancelled() {
        std::panic::panic_any(Cancelled);
    }
}

// ---------------------------------------------------------------------
// Deadlines: created by the request, fired by whoever keeps time.
// ---------------------------------------------------------------------

/// One registered interest, releasable exactly once — by the deadline
/// firing, by a timed-out waiter giving up, or on `Deadline` drop.
struct InterestCell {
    token: CancelToken,
    released: AtomicBool,
}

impl InterestCell {
    fn release(&self) {
        if !self.released.swap(true, Ordering::Relaxed) {
            self.token.release_interest();
        }
    }
}

struct DeadlineState {
    /// Wall-clock expiry instant.
    at: Instant,
    /// Set when the deadline fires.
    expired: AtomicBool,
    /// Set by `Deadline::drop`, so a finished request's timer fires as a
    /// no-op.
    disarmed: AtomicBool,
    /// The flight interests this request holds (one per flight it
    /// joined — e.g. metric tier and artifact tier), released at expiry.
    attached: Mutex<Vec<Arc<InterestCell>>>,
}

impl DeadlineState {
    fn release_attached(&self) {
        let cells = std::mem::take(&mut *self.attached.lock().unwrap_or_else(|p| p.into_inner()));
        for cell in cells {
            cell.release();
        }
    }
}

/// RAII handle for one request's deadline. It expires when its
/// [`DeadlineTimer`] fires; dropping the handle first (request finished)
/// turns that fire into a no-op and releases any still-attached flight
/// interest (idempotent — harmless after the flight completed).
pub struct Deadline {
    state: Arc<DeadlineState>,
}

impl Deadline {
    /// A deadline expiring at `at`. Nothing keeps time for it: hand
    /// [`Deadline::timer`] to a timer owner (the server's event loop),
    /// which fires it at `at`.
    pub fn new(at: Instant) -> Self {
        install_quiet_cancel_hook();
        Self {
            state: Arc::new(DeadlineState {
                at,
                expired: AtomicBool::new(false),
                disarmed: AtomicBool::new(false),
                attached: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The firing side of this deadline, for the timer owner.
    pub fn timer(&self) -> DeadlineTimer {
        DeadlineTimer {
            state: Arc::clone(&self.state),
        }
    }

    /// True once the deadline fired.
    pub fn expired(&self) -> bool {
        self.state.expired.load(Ordering::Relaxed)
    }

    /// The absolute expiry instant.
    pub fn at(&self) -> Instant {
        self.state.at
    }

    /// Registers this request's interest in `token` and arranges for the
    /// deadline to release it at expiry. The returned guard releases the
    /// same interest when dropped (whichever happens first wins; the
    /// release is idempotent), so a request that completes — or a
    /// waiter that gives up — frees its hold on the flight without
    /// waiting for the deadline.
    pub fn attach(&self, token: &CancelToken) -> InterestGuard {
        token.register_interest();
        let cell = Arc::new(InterestCell {
            token: token.clone(),
            released: AtomicBool::new(false),
        });
        self.state
            .attached
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(Arc::clone(&cell));
        // A deadline that already fired will not revisit its attachments:
        // release immediately.
        if self.expired() {
            cell.release();
        }
        InterestGuard { cell }
    }
}

impl Drop for Deadline {
    fn drop(&mut self) {
        self.state.disarmed.store(true, Ordering::Relaxed);
        self.state.release_attached();
    }
}

/// The firing side of a [`Deadline`], held by whoever keeps time.
pub struct DeadlineTimer {
    state: Arc<DeadlineState>,
}

impl DeadlineTimer {
    /// When to fire.
    pub fn at(&self) -> Instant {
        self.state.at
    }

    /// Expires the deadline: marks its request expired and releases the
    /// interests it attached. Returns whether that expired a running
    /// request — `false` once the [`Deadline`] was dropped, and on any
    /// fire after the first.
    pub fn fire(&self) -> bool {
        let state = &self.state;
        if state.disarmed.load(Ordering::Relaxed) || state.expired.swap(true, Ordering::Relaxed) {
            return false;
        }
        state.release_attached();
        true
    }
}

/// RAII handle for one [`Deadline::attach`] registration: dropping it
/// releases the interest if the deadline has not already done so.
pub struct InterestGuard {
    cell: Arc<InterestCell>,
}

impl Drop for InterestGuard {
    fn drop(&mut self) {
        self.cell.release();
    }
}

/// Silences the default panic hook for [`Cancelled`] unwinds: deadline
/// cancellation is control flow caught by the single-flight engine, not
/// a crash, and must not print a thread-panic backtrace on every
/// expiry. Every other panic payload still reaches the previously
/// installed hook. Installed once per process, the first time a
/// [`Deadline`] is created (i.e. before any deadline can fire).
fn install_quiet_cancel_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<Cancelled>().is_none() {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_trips_when_interest_drains() {
        let t = CancelToken::new();
        t.register_interest();
        t.register_interest();
        assert!(!t.is_cancelled());
        t.release_interest();
        assert!(!t.is_cancelled(), "one registrant still live");
        t.release_interest();
        assert!(t.is_cancelled(), "last release trips the token");
    }

    #[test]
    fn ambient_token_scoping() {
        assert!(current().is_none());
        assert!(!cancelled());
        let t = CancelToken::new();
        with_token(Some(t.clone()), || {
            assert!(current().is_some());
            assert!(!cancelled());
            t.cancel();
            assert!(cancelled());
            with_token(None, || assert!(!cancelled()));
            assert!(cancelled(), "inner scope restored");
        });
        assert!(current().is_none(), "outer scope restored");
    }

    #[test]
    fn checkpoint_panics_with_cancelled_payload() {
        let t = CancelToken::new();
        t.cancel();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_token(Some(t), checkpoint)
        }));
        let payload = r.expect_err("checkpoint must unwind");
        assert!(payload.downcast_ref::<Cancelled>().is_some());
    }

    #[test]
    fn timer_fire_expires_and_releases_interest() {
        let token = CancelToken::new();
        let dl = Deadline::new(Instant::now());
        let _keep = dl.attach(&token);
        assert!(!dl.expired());
        assert!(!token.is_cancelled());
        assert!(dl.timer().fire(), "fired while the request runs: an expiry");
        assert!(dl.expired());
        assert!(token.is_cancelled(), "sole registrant expired -> tripped");
        assert!(!dl.timer().fire(), "a second fire is not another expiry");
        assert_eq!(token.interest(), 0, "released exactly once");
    }

    #[test]
    fn dropped_deadline_fires_as_a_no_op() {
        let token = CancelToken::new();
        let dl = Deadline::new(Instant::now());
        let timer = dl.timer();
        let keep = dl.attach(&token);
        drop(dl); // request finished: releases its interest
        assert!(token.is_cancelled(), "drop released the only registration");
        assert!(!timer.fire(), "a dropped deadline must not count");
        drop(keep);
        assert_eq!(token.interest(), 0, "released exactly once");
    }

    #[test]
    fn leader_survives_while_other_interest_lives() {
        let token = CancelToken::new();
        token.register_interest(); // a waiter with no deadline
        let dl = Deadline::new(Instant::now());
        let _keep = dl.attach(&token);
        assert!(dl.timer().fire());
        assert!(dl.expired());
        assert!(
            !token.is_cancelled(),
            "live waiter keeps the flight running"
        );
        token.release_interest();
        assert!(token.is_cancelled());
    }

    #[test]
    fn attach_after_expiry_releases_at_once() {
        let token = CancelToken::new();
        token.register_interest(); // second registrant
        let dl = Deadline::new(Instant::now());
        assert!(dl.timer().fire());
        let keep = dl.attach(&token);
        assert_eq!(token.interest(), 1, "an expired deadline holds nothing");
        drop(keep);
        assert_eq!(
            token.interest(),
            1,
            "guard drop after expiry releases nothing"
        );
    }
}
