//! Seeded-random stress variants of the model-checked server units
//! (`tests/sched_models.rs`), runnable under plain `cargo test` with
//! real threads: single-flight cache fencing and dedup, gauge-guard
//! accounting, worker-pool panic recovery and shutdown.

use hyperline_server::cache::{AlgoKind, CacheKey, SingleFlightCache};
use hyperline_server::metrics::GaugeGuard;
use hyperline_server::pool::WorkerPool;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn jitter(rng: &mut u64) {
    for _ in 0..(splitmix(rng) % 4) {
        std::thread::yield_now();
    }
}

fn key(dataset: &str, s: u32) -> CacheKey {
    CacheKey {
        dataset: dataset.to_string(),
        s,
        algorithm: AlgoKind::Algo2,
        weighted: false,
    }
}

#[test]
fn stress_flight_never_leaks_stale_values() {
    let mut seed = 0x5afe_u64;
    for round in 0..80 {
        let cache = SingleFlightCache::<CacheKey, u64>::new(1 << 20);
        // The dataset's version: what the flight's compute reads, and
        // what the replacement swaps before it invalidates the dataset
        // (ordered by the cache lock, as in the sched model).
        let version = AtomicU64::new(0);
        let k = key("d", 1);
        let (s1, s2) = (splitmix(&mut seed), splitmix(&mut seed));
        std::thread::scope(|scope| {
            let (cache, version, k) = (&cache, &version, &k);
            let mut r = s1;
            scope.spawn(move || {
                jitter(&mut r);
                cache
                    .get_or_compute(k, || {
                        let read = version.load(Ordering::Relaxed);
                        jitter(&mut r);
                        Ok((read, 8))
                    })
                    .unwrap();
            });
            let mut r = s2;
            scope.spawn(move || {
                jitter(&mut r);
                version.store(1, Ordering::Relaxed);
                cache.invalidate_dataset("d");
            });
        });
        if let Some(value) = cache.lookup(&k) {
            assert_eq!(
                *value, 1,
                "round {round}: stale value survived a dataset replacement"
            );
        }
    }
}

#[test]
fn stress_single_flight_runs_each_computation_once() {
    let mut seed = 0xf117_u64;
    for round in 0..40 {
        let cache = Arc::new(SingleFlightCache::<CacheKey, u64>::new(1 << 20));
        let computes = Arc::new(AtomicU64::new(0));
        let callers = 2 + (round % 3);
        std::thread::scope(|scope| {
            for _ in 0..callers {
                let (c, n) = (cache.clone(), computes.clone());
                let mut r = splitmix(&mut seed);
                scope.spawn(move || {
                    jitter(&mut r);
                    let (value, _outcome) = c
                        .get_or_compute(&key("d", round as u32), || {
                            n.fetch_add(1, Ordering::Relaxed);
                            Ok((7u64, 8))
                        })
                        .expect("compute never fails here");
                    assert_eq!(*value, 7, "caller saw a value other than the computed one");
                });
            }
        });
        assert_eq!(
            computes.load(Ordering::Relaxed),
            1,
            "round {round}: single-flight ran the computation more than once"
        );
    }
}

#[test]
fn stress_gauge_guard_balances_under_contention() {
    let mut seed = 0x6a06_u64;
    for round in 0..60 {
        let gauge = Arc::new(AtomicI64::new(0));
        let threads = 2 + (round % 3);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let g = gauge.clone();
                let mut r = splitmix(&mut seed);
                scope.spawn(move || {
                    for _ in 0..8 {
                        let _guard = GaugeGuard::enter(&g);
                        let seen = g.load(Ordering::Relaxed);
                        assert!(seen >= 1, "gauge observed {seen} inside a live guard");
                        jitter(&mut r);
                    }
                });
            }
        });
        assert_eq!(
            gauge.load(Ordering::Relaxed),
            0,
            "round {round}: gauge did not return to zero after all guards dropped"
        );
    }
}

#[test]
fn stress_worker_pool_survives_panicking_jobs() {
    let mut seed = 0x900d_u64;
    for round in 0..25 {
        let done = Arc::new(AtomicU64::new(0));
        let d2 = done.clone();
        let pool = WorkerPool::start(2, 8, move |job: u32| {
            if job.is_multiple_of(5) {
                panic!("poisoned job");
            }
            d2.fetch_add(1, Ordering::Relaxed);
        });
        let mut pushed_ok = 0u64;
        for i in 0..24u32 {
            jitter(&mut seed);
            // The queue may be momentarily full; retry until accepted.
            let mut job = i;
            loop {
                match pool.queue().try_push(job) {
                    Ok(()) => break,
                    Err(j) => {
                        job = j;
                        std::thread::yield_now();
                    }
                }
            }
            if i % 5 != 0 {
                pushed_ok += 1;
            }
        }
        pool.shutdown();
        assert_eq!(
            done.load(Ordering::Relaxed),
            pushed_ok,
            "round {round}: worker lost jobs after recovering from panics"
        );
    }
}
