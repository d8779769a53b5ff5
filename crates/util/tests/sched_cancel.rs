//! Model-checked request deadline (exhaustive interleavings): the event
//! loop fires a deadline while its request runs.
//!
//! Runs only under `RUSTFLAGS="--cfg hyperline_sched"` (the sched step
//! of `scripts/check.sh`), where `hyperline_util::sync` resolves to the
//! model-checker shims — the `cancel` code explored here is the exact
//! production source.
#![cfg(hyperline_sched)]

use hyperline_sched::explore;
use hyperline_util::cancel::{CancelToken, Deadline};
use hyperline_util::sync::atomic::{AtomicBool, Ordering};
use hyperline_util::sync::{thread, Arc};
use std::time::Instant;

/// Three threads share one flight token: the loop fires the deadline, a
/// worker attaches its request's interest then drops its guard and its
/// `Deadline` (the request finished), and a coalesced waiter without a
/// deadline holds an interest, then releases it. On every schedule each
/// interest is released exactly once, the token trips only at the last
/// release, and a fire after the `Deadline` drop is not an expiry.
#[test]
fn deadline_fired_while_its_request_runs() {
    explore(|| {
        let token = CancelToken::new();
        // The waiter joined the flight before the worker's deadline
        // could fire.
        token.register_interest();
        let deadline = Deadline::new(Instant::now());
        let timer = deadline.timer();
        let dropped = Arc::new(AtomicBool::new(false));

        let (worker_token, worker_dropped) = (token.clone(), Arc::clone(&dropped));
        let worker = thread::spawn(move || {
            let guard = deadline.attach(&worker_token);
            drop(guard);
            drop(deadline);
            // ordering: publishes the drop to the loop's Acquire load.
            worker_dropped.store(true, Ordering::Release);
        });
        let waiter_token = token.clone();
        let waiter = thread::spawn(move || {
            assert!(
                !waiter_token.is_cancelled(),
                "the token tripped while the waiter still held interest"
            );
            waiter_token.release_interest();
        });

        // The event loop.
        // ordering: pairs with the worker's Release store: a drop seen
        // here happened before the fire below.
        let after_drop = dropped.load(Ordering::Acquire);
        let expired = timer.fire();
        assert!(
            !(after_drop && expired),
            "a fire after the Deadline drop counted as an expiry"
        );

        worker.join().unwrap();
        waiter.join().unwrap();
        assert_eq!(
            token.interest(),
            0,
            "an interest was released twice or never"
        );
        assert!(token.is_cancelled(), "the last release did not trip it");
    });
}
