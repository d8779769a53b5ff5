//! Model-checked server concurrency units (exhaustive interleavings).
//!
//! Runs only under `RUSTFLAGS="--cfg hyperline_sched"` (the sched step
//! of `scripts/check.sh`), where `hyperline_server::sync` resolves to
//! the model-checker shims. The code explored here — single-flight
//! cache, gauge guards, bounded queue + worker pool — is the exact
//! production source, compiled against the shims through the seam.
//!
//! The units explored:
//! * (a) single-flight cache generation fencing of a flight racing a
//!   dataset replacement, and miss deduplication,
//! * (c) `GaugeGuard` never-negative accounting,
//! * (e) worker-pool shutdown and panic recovery,
//! * the evented core's [`OutBuf`] worker→loop hand-off buffer:
//!   lossless bounded delivery and close-wakes-producer.
//!
//! [`OutBuf`]: hyperline_server::event::OutBuf
#![cfg(hyperline_sched)]

use hyperline_sched::explore;
use hyperline_server::cache::{AlgoKind, CacheKey, SingleFlightCache};
use hyperline_server::metrics::GaugeGuard;
use hyperline_server::pool::{BoundedQueue, WorkerPool};
use hyperline_server::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use hyperline_server::sync::{thread, Arc};

fn key(dataset: &str) -> CacheKey {
    CacheKey {
        dataset: dataset.to_string(),
        s: 1,
        algorithm: AlgoKind::Algo2,
        weighted: false,
    }
}

// -- (a) generation fencing -------------------------------------------

#[test]
fn flight_fences_concurrent_invalidation() {
    explore(|| {
        let cache = Arc::new(SingleFlightCache::<CacheKey, u64>::new(1 << 20));
        // The dataset's version: what a flight's compute reads, and what
        // a replacement swaps before it invalidates the dataset. Relaxed
        // is enough: a flight registered after the invalidation acquired
        // the cache lock the invalidation released after the store.
        let version = Arc::new(AtomicU64::new(0));
        let k = key("d");
        let (c2, v2, k2) = (cache.clone(), version.clone(), k.clone());
        let flight = thread::spawn(move || {
            c2.get_or_compute(&k2, || Ok((v2.load(Ordering::Relaxed), 8)))
                .expect("compute never fails here");
        });
        let (c3, v3) = (cache.clone(), version.clone());
        let replacer = thread::spawn(move || {
            v3.store(1, Ordering::Relaxed);
            c3.invalidate_dataset("d");
        });
        flight.join().unwrap();
        replacer.join().unwrap();
        // Whichever order the lock arbitration picked: a flight that
        // landed before the invalidation was evicted by it, and one that
        // started before it and landed after was refused by the stale
        // generation. Only a flight started after it may stay resident,
        // and that one read the new version.
        if let Some(value) = cache.lookup(&k) {
            assert_eq!(*value, 1, "stale value survived a dataset replacement");
        }
    });
}

#[test]
fn single_flight_dedups_concurrent_misses() {
    explore(|| {
        let cache = Arc::new(SingleFlightCache::<CacheKey, u64>::new(1 << 20));
        let computes = Arc::new(AtomicU64::new(0));
        let hs: Vec<_> = (0..2)
            .map(|_| {
                let (c, n) = (cache.clone(), computes.clone());
                let k = key("d");
                thread::spawn(move || {
                    let (value, _outcome) = c
                        .get_or_compute(&k, || {
                            n.fetch_add(1, Ordering::Relaxed);
                            Ok((7u64, 8))
                        })
                        .expect("compute never fails here");
                    *value
                })
            })
            .collect();
        for h in hs {
            assert_eq!(
                h.join().unwrap(),
                7,
                "caller saw a value other than the computed one"
            );
        }
        // Second caller either coalesced onto the flight or hit the
        // cached entry — the computation itself ran exactly once.
        assert_eq!(
            computes.load(Ordering::Relaxed),
            1,
            "single-flight ran the computation more than once"
        );
    });
}

// -- (c) gauge accounting ---------------------------------------------

#[test]
fn gauge_guard_in_flight_count_never_negative() {
    explore(|| {
        let gauge = Arc::new(AtomicI64::new(0));
        let hs: Vec<_> = (0..2)
            .map(|_| {
                let g = gauge.clone();
                thread::spawn(move || {
                    let _guard = GaugeGuard::enter(&g);
                    let seen = g.load(Ordering::Relaxed);
                    // Our own increment is in flight, so any observation
                    // from inside the guard is at least 1 — and never
                    // negative anywhere.
                    assert!(seen >= 1, "gauge observed {seen} inside a live guard");
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(
            gauge.load(Ordering::Relaxed),
            0,
            "gauge did not return to zero after all guards dropped"
        );
    });
}

// -- (e) worker pool ---------------------------------------------------

#[test]
fn worker_pool_recovers_from_panicking_job_and_shuts_down() {
    explore(|| {
        let done = Arc::new(AtomicU64::new(0));
        let d2 = done.clone();
        let pool = WorkerPool::start(1, 4, move |job: u32| {
            if job == 13 {
                panic!("poisoned job");
            }
            d2.fetch_add(1, Ordering::Relaxed);
        });
        // The panicking job lands first; the worker must survive it and
        // still process the next one. A hang here (worker died, queue
        // never drains) is caught as a model deadlock.
        pool.queue().try_push(13).expect("queue accepts job 1");
        pool.queue().try_push(1).expect("queue accepts job 2");
        pool.shutdown();
        assert_eq!(
            done.load(Ordering::Relaxed),
            1,
            "worker lost a job after recovering from a panic"
        );
    });
}

// -- evented hand-off buffer ------------------------------------------

#[test]
fn out_buf_delivers_everything_across_interleavings() {
    use hyperline_server::event::{DrainOutcome, OutBuf};
    use std::time::Duration;
    explore(|| {
        // Capacity 2: the main thread fills the buffer, so the producer
        // thread's extra byte must take the full-buffer wait path (or
        // race in after the drain freed space — the model explores
        // both). Under the shims `wait_timeout` never reports expiry
        // (documented behavior), so delivery must be total, in order.
        let buf = Arc::new(OutBuf::with_capacity(2));
        let (n, was_empty) = buf.write_bounded(&[1, 2], Duration::from_secs(60)).unwrap();
        assert_eq!((n, was_empty), (2, true));
        let producer = {
            let buf = buf.clone();
            thread::spawn(move || {
                buf.write_bounded(&[3], Duration::from_secs(60))
                    .expect("buffer never closes in this model")
            })
        };
        // First drain: exactly the two pre-filled bytes — the producer
        // cannot append before space frees. Its progress notification
        // is what un-parks a waiting producer; a missed wake-up shows
        // up as a model deadlock at the join below.
        let mut received = Vec::new();
        let (progress, outcome) = buf.drain_with(|bytes| {
            received.push(bytes[0]);
            Ok(1)
        });
        assert!(progress);
        assert_eq!(outcome, DrainOutcome::Empty);
        assert_eq!(received, vec![1, 2]);
        let (n, was_empty) = producer.join().unwrap();
        assert_eq!((n, was_empty), (1, true));
        let (progress, outcome) = buf.drain_with(|bytes| {
            received.push(bytes[0]);
            Ok(1)
        });
        assert!(progress);
        assert_eq!(outcome, DrainOutcome::Empty);
        assert_eq!(received, vec![1, 2, 3], "bytes lost or reordered");
        assert!(buf.is_empty(), "buffer retained bytes after full drain");
    });
}

#[test]
fn out_buf_close_wakes_blocked_producer() {
    use hyperline_server::event::OutBuf;
    use std::io::ErrorKind;
    use std::time::Duration;
    explore(|| {
        let buf = Arc::new(OutBuf::with_capacity(1));
        // Fill the buffer so the producer thread must park.
        let (n, _) = buf.write_bounded(&[9], Duration::from_secs(60)).unwrap();
        assert_eq!(n, 1);
        let producer = {
            let buf = buf.clone();
            thread::spawn(move || buf.write_bounded(&[10], Duration::from_secs(60)))
        };
        // The close races the blocked write: the producer either saw
        // the closed flag before parking or must be woken by close's
        // notify. A missed wake-up is caught as a model deadlock.
        buf.close(ErrorKind::ConnectionReset);
        let err = producer
            .join()
            .unwrap()
            .expect_err("write into a closed buffer must fail");
        assert_eq!(err.kind(), ErrorKind::ConnectionReset);
    });
}

#[test]
fn bounded_queue_close_wakes_blocked_worker() {
    explore(|| {
        let q = Arc::new(BoundedQueue::<u32>::new(2));
        let q2 = q.clone();
        let popper = thread::spawn(move || q2.pop());
        // Close races the pop: the worker either drains nothing and
        // sees the close, or was parked and must be woken by it.
        q.close();
        assert_eq!(
            popper.join().unwrap(),
            None,
            "pop returned an item from a closed empty queue"
        );
        assert!(q.try_push(9).is_err(), "push succeeded on a closed queue");
    });
}
