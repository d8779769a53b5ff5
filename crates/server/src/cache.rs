//! The two cache tiers: LRU-evicted, memory-budgeted, single-flight.
//!
//! One generic engine, [`SingleFlightCache`], backs both tiers of the
//! server's cache hierarchy (the multi-level cache that makes IIPImage's
//! repeated tile queries cheap plays the same role):
//!
//! * the **artifact tier** ([`ArtifactCache`], keyed by [`CacheKey`]) —
//!   computed s-line graphs, keyed by everything that determines their
//!   content: `(dataset, s, algorithm)`. Its
//!   [`lookup_floor`](ArtifactCache::lookup_floor) finds the resident
//!   entry with the highest `s0 ≤ s`, which the server filters a missing
//!   Algorithm-2 `L_s` from instead of recounting;
//! * the **metric tier** (keyed by [`MetricKey`]) — Stage-5 results
//!   (components, betweenness rankings, spectra, sweep counts) layered
//!   over the artifact tier, so warm metric queries skip the parallel
//!   kernels entirely.
//!
//! Values are held behind `Arc` so eviction never invalidates an
//! in-flight response — and so responses can **stream** straight from a
//! cached value: a streamed edge-list body holds the `Arc<Artifact>`
//! and renders it into the socket at write time, never materializing a
//! body-sized buffer (see `server::EdgeRows` and [`crate::json`]'s
//! `StreamFragment`). Three guarantees matter under concurrency:
//!
//! * **LRU under a byte budget** — inserting past the budget evicts the
//!   least-recently-used entries first (the newest entry is kept even if
//!   it alone exceeds the budget, so oversized artifacts still serve).
//! * **Single-flight** — concurrent requests for the same missing key
//!   trigger exactly one computation; the rest block on a condvar and
//!   share the result.
//! * **Generation-fenced invalidation** — replacing a dataset bumps its
//!   generation; computations started against the old data may still be
//!   served to the callers that asked for them but are never cached.
//! * **Deadline-aware flights** — every flight carries an
//!   interest-counted [`CancelToken`]; requests attach their deadline to
//!   it, waiters give up (504) when their deadline passes, and the
//!   leader's compute is cancelled only when *all* participants are
//!   gone. Cancelled flights resolve to [`cancel::CANCELLED`], which is
//!   never negative-cached.
//! * **Negative-result backoff** — genuine compute errors (not panics,
//!   not cancellations) are remembered for a short TTL so a
//!   deterministically failing key cannot thundering-herd the compute
//!   budget (off by default; the server arms it).

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Arc, Condvar, Mutex, MutexGuard};
use hyperline_util::cancel::{self, CancelToken, Deadline};
use hyperline_util::telemetry::Histogram;
use hyperline_util::{failpoint, FxHashMap};
use std::time::{Duration, Instant};

/// A cache key scoped to one dataset: generation bookkeeping and
/// invalidation group entries by [`TierKey::dataset`]. Both tiers' keys
/// implement this, which is what lets them share the engine (and its
/// invalidation semantics).
pub trait TierKey: Clone + Eq + std::hash::Hash {
    /// The registry name of the dataset this entry was derived from.
    fn dataset(&self) -> &str;
}

/// Identity of one cached artifact.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Registry name of the source dataset.
    pub dataset: String,
    /// The overlap threshold `s`.
    pub s: u32,
    /// Construction algorithm (distinct algorithms are distinct artifacts
    /// so comparative benchmarking never aliases).
    pub algorithm: AlgoKind,
    /// Whether overlap weights were materialized. Keys built by the
    /// server always carry `false`: every Algorithm-2 artifact carries
    /// its overlaps, and `weighted=1` only picks the row shape at render
    /// time. The field stays for callers that model the older policy of
    /// one entry per row shape.
    pub weighted: bool,
}

impl TierKey for CacheKey {
    fn dataset(&self) -> &str {
        &self.dataset
    }
}

/// Identity of one cached Stage-5 metric result: the artifact it was
/// computed from plus the metric and its compute-time parameters.
/// Render-time parameters (`top`, `limit`) are *not* part of the key —
/// every truncation of one ranking shares one cached compute.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MetricKey {
    /// The artifact this metric was computed from. For [`MetricKind::Sweep`]
    /// (which spans every `s`), this is the dataset's sweep pseudo-key:
    /// `s = 0` with the default algorithm.
    pub artifact: CacheKey,
    /// The metric and its compute-time parameters.
    pub metric: MetricKind,
}

impl TierKey for MetricKey {
    fn dataset(&self) -> &str {
        &self.artifact.dataset
    }
}

/// The Stage-5 metrics the metric tier caches, with the parameters that
/// change the computed value (and therefore belong in the key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// s-connected components (full list; `limit` applies at render).
    Components,
    /// s-betweenness ranking (full ranking; `top` applies at render).
    Betweenness {
        /// Number of sampled BFS sources (0 = exact Brandes).
        samples: u32,
        /// Sampling seed. The server pins this to 0 when `samples == 0`
        /// (the exact variant never reads it), so every exact request
        /// shares one entry regardless of any `?seed=` it carried.
        seed: u64,
    },
    /// Diameter + algebraic connectivity.
    Spectrum,
    /// `|E(L_s)|` for `s = 1..=max_s`.
    Sweep {
        /// Upper end of the sweep.
        max_s: u32,
    },
}

/// The s-line-graph construction algorithms the server exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgoKind {
    /// The paper's overlap-counting Algorithm 2 (default).
    Algo2,
    /// The HiPC'21 set-intersection Algorithm 1.
    Algo1,
    /// SpGEMM + filtration baseline (upper triangle).
    Spgemm,
    /// All-pairs naive baseline.
    Naive,
}

impl AlgoKind {
    /// Parses the `algo=` query value.
    pub fn from_name(name: &str) -> Option<AlgoKind> {
        match name {
            "algo2" | "2" => Some(AlgoKind::Algo2),
            "algo1" | "1" => Some(AlgoKind::Algo1),
            "spgemm" => Some(AlgoKind::Spgemm),
            "naive" => Some(AlgoKind::Naive),
            _ => None,
        }
    }

    /// Canonical wire name.
    pub fn name(self) -> &'static str {
        match self {
            AlgoKind::Algo2 => "algo2",
            AlgoKind::Algo1 => "algo1",
            AlgoKind::Spgemm => "spgemm",
            AlgoKind::Naive => "naive",
        }
    }
}

/// How a [`SingleFlightCache::get_or_compute`] call was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the cache.
    Hit,
    /// Computed by this call.
    Miss,
    /// Another in-flight call computed it; this call waited and shared.
    Coalesced,
}

struct Entry<V> {
    value: Arc<V>,
    bytes: usize,
    last_used: u64,
}

struct Inflight<V> {
    slot: Mutex<Option<Result<Arc<V>, String>>>,
    ready: Condvar,
    /// Interest-counted cancellation flag for this flight: the leader
    /// and every waiter hold one registration (via their request
    /// deadline); the flag trips only when all of them have expired or
    /// given up, at which point the leader's kernel loops exit early.
    cancel: CancelToken,
}

struct Inner<K, V> {
    map: FxHashMap<K, Entry<V>>,
    inflight: FxHashMap<K, Arc<Inflight<V>>>,
    /// Per-dataset invalidation generation: a computation started under
    /// an older generation must not enter the map (its input was
    /// replaced mid-flight).
    generations: FxHashMap<String, u64>,
    /// Negative cache: recent compute *errors* (never panics or
    /// cancellations) with their record time, so a deterministically
    /// failing compute is answered from here for a short backoff window
    /// instead of thundering-herding the compute budget.
    negative: FxHashMap<K, (String, Instant)>,
    used_bytes: usize,
    clock: u64,
}

impl<K, V> Inner<K, V> {
    fn generation(&self, dataset: &str) -> u64 {
        self.generations.get(dataset).copied().unwrap_or(0)
    }
}

/// Point-in-time cache statistics for `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that computed their artifact.
    pub misses: u64,
    /// Requests that piggybacked on another request's computation.
    pub coalesced: u64,
    /// Entries evicted to stay within budget.
    pub evictions: u64,
    /// Errors answered from the negative cache inside its TTL.
    pub negative_hits: u64,
    /// Waiters that abandoned a flight at their deadline.
    pub gave_up: u64,
    /// Flights cancelled after every participant expired or gave up.
    pub cancelled: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Estimated resident bytes.
    pub used_bytes: usize,
    /// Configured byte budget.
    pub budget_bytes: usize,
}

/// The LRU + single-flight cache engine, generic over key and value so
/// both tiers (and cheap unit tests) share one implementation.
pub struct SingleFlightCache<K, V> {
    inner: Mutex<Inner<K, V>>,
    budget_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
    negative_hits: AtomicU64,
    gave_up: AtomicU64,
    cancelled: AtomicU64,
    /// Negative-cache TTL in milliseconds (0 = disabled). Plain config
    /// written once at startup; Relaxed is deliberate.
    negative_ttl_ms: AtomicU64,
    /// How long the cache's central mutex stays held per acquisition,
    /// microseconds. Eviction scans and big map mutations show up here
    /// as tail latency — the histogram is what tells contention apart
    /// from slow critical sections.
    lock_hold: Histogram,
}

/// A guard over [`Inner`] that records how long the lock was held into
/// the cache's `lock_hold` histogram when released.
struct TimedGuard<'a, K, V> {
    guard: MutexGuard<'a, Inner<K, V>>,
    hold: &'a Histogram,
    acquired: Instant,
}

impl<K, V> std::ops::Deref for TimedGuard<'_, K, V> {
    type Target = Inner<K, V>;
    fn deref(&self) -> &Inner<K, V> {
        &self.guard
    }
}

impl<K, V> std::ops::DerefMut for TimedGuard<'_, K, V> {
    fn deref_mut(&mut self) -> &mut Inner<K, V> {
        &mut self.guard
    }
}

impl<K, V> Drop for TimedGuard<'_, K, V> {
    fn drop(&mut self) {
        self.hold.record_micros(self.acquired.elapsed());
    }
}

/// The artifact tier: s-line graphs keyed by [`CacheKey`].
pub type ArtifactCache<V> = SingleFlightCache<CacheKey, V>;

impl<K: TierKey, V> SingleFlightCache<K, V> {
    /// An empty cache with the given byte budget.
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                map: FxHashMap::default(),
                inflight: FxHashMap::default(),
                generations: FxHashMap::default(),
                negative: FxHashMap::default(),
                used_bytes: 0,
                clock: 0,
            }),
            budget_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            negative_hits: AtomicU64::new(0),
            gave_up: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            negative_ttl_ms: AtomicU64::new(0),
            lock_hold: Histogram::new(),
        }
    }

    /// Acquires the central lock, timing the hold.
    fn lock(&self) -> TimedGuard<'_, K, V> {
        let guard = self.inner.lock().unwrap();
        TimedGuard {
            guard,
            hold: &self.lock_hold,
            acquired: Instant::now(),
        }
    }

    /// Hold-time distribution of the cache's central mutex.
    pub fn lock_hold_histogram(&self) -> &Histogram {
        &self.lock_hold
    }

    /// Arms the negative cache: compute errors are re-served for `ttl`
    /// before a recompute is allowed. `Duration::ZERO` (the default)
    /// disables it.
    pub fn set_negative_ttl(&self, ttl: Duration) {
        self.negative_ttl_ms
            .store(ttl.as_millis() as u64, Ordering::Relaxed);
    }

    fn negative_ttl(&self) -> Duration {
        Duration::from_millis(self.negative_ttl_ms.load(Ordering::Relaxed))
    }

    /// Looks `key` up; on a miss, runs `compute` (outside the cache lock)
    /// and caches its value with the reported byte size. Concurrent calls
    /// for the same key run `compute` once. Errors are propagated to all
    /// waiters and never cached; a panicking `compute` is converted to an
    /// error so waiters never deadlock on an abandoned flight. If the
    /// dataset is invalidated while the computation is in flight, the
    /// result is still returned to callers already waiting on it but is
    /// not cached (it was built from replaced input).
    pub fn get_or_compute(
        &self,
        key: &K,
        compute: impl FnOnce() -> Result<(V, usize), String>,
    ) -> Result<(Arc<V>, CacheOutcome), String> {
        self.get_or_compute_cancellable(key, None, compute)
    }

    /// [`get_or_compute`](Self::get_or_compute) with request-lifecycle
    /// awareness. When `deadline` is given:
    ///
    /// * the request registers interest in the flight's [`CancelToken`]
    ///   for as long as it participates — the deadline releases that
    ///   interest when it fires, and the compute is only cancelled
    ///   (kernel loops exit, coordinator unwinds to this function's
    ///   `catch_unwind`, flight resolves to [`cancel::CANCELLED`]) when
    ///   *every* participant's interest is gone;
    /// * a **waiter** whose deadline passes stops waiting and returns
    ///   [`cancel::CANCELLED`] (the server maps it to 504) while the
    ///   flight keeps running for the remaining participants;
    /// * a **leader** whose own deadline expires while other
    ///   participants are live finishes the compute for them — the
    ///   result is cached and shared; the leader's own response is the
    ///   caller's business (it sees its deadline expired).
    ///
    /// Genuine compute errors enter the negative cache (when a TTL is
    /// armed via [`set_negative_ttl`](Self::set_negative_ttl));
    /// cancellations and panics never do.
    pub fn get_or_compute_cancellable(
        &self,
        key: &K,
        deadline: Option<&Deadline>,
        compute: impl FnOnce() -> Result<(V, usize), String>,
    ) -> Result<(Arc<V>, CacheOutcome), String> {
        // Fast path + single-flight registration under one lock.
        enum Role<V> {
            Owner(Arc<Inflight<V>>),
            Waiter(Arc<Inflight<V>>),
        }
        fn flight_token<V>(role: &Role<V>) -> &CancelToken {
            match role {
                Role::Owner(flight) | Role::Waiter(flight) => &flight.cancel,
            }
        }
        let (role, generation_at_start) = {
            let mut inner = self.lock();
            inner.clock += 1;
            let now = inner.clock;
            if let Some(entry) = inner.map.get_mut(key) {
                entry.last_used = now;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((Arc::clone(&entry.value), CacheOutcome::Hit));
            }
            let ttl = self.negative_ttl();
            if !ttl.is_zero() {
                if let Some((err, at)) = inner.negative.get(key) {
                    if at.elapsed() < ttl {
                        let err = err.clone();
                        self.negative_hits.fetch_add(1, Ordering::Relaxed);
                        return Err(err);
                    }
                    inner.negative.remove(key);
                }
            }
            let generation = inner.generation(key.dataset());
            match inner.inflight.get(key) {
                Some(flight) => (Role::Waiter(Arc::clone(flight)), generation),
                None => {
                    let flight = Arc::new(Inflight {
                        slot: Mutex::new(None),
                        ready: Condvar::new(),
                        cancel: CancelToken::new(),
                    });
                    inner.inflight.insert(key.clone(), Arc::clone(&flight));
                    (Role::Owner(flight), generation)
                }
            }
        };

        // Hold this participant's interest in the flight for the span of
        // the call: attached to the deadline (released when it fires,
        // or by the guard at return), or permanently when the
        // request has no deadline — a flight with an undeadlined
        // participant is never cancelled.
        let _interest = match deadline {
            Some(d) => Some(d.attach(flight_token(&role))),
            None => {
                flight_token(&role).register_interest();
                None
            }
        };

        if let Role::Waiter(flight) = role {
            // Someone else is computing: wait for their result, up to
            // this request's own deadline.
            let give_up_at = deadline.map(|d| d.at());
            let mut slot = flight.slot.lock().unwrap();
            loop {
                if let Some(result) = slot.as_ref() {
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    return match result {
                        Ok(value) => Ok((Arc::clone(value), CacheOutcome::Coalesced)),
                        Err(e) => Err(e.clone()),
                    };
                }
                match give_up_at {
                    None => slot = flight.ready.wait(slot).unwrap(),
                    Some(at) => {
                        let now = Instant::now();
                        if now >= at {
                            // Give up: drop out of the flight (the
                            // interest guard releases on return, letting
                            // the leader cancel once everyone is gone).
                            self.gave_up.fetch_add(1, Ordering::Relaxed);
                            return Err(cancel::CANCELLED.to_string());
                        }
                        let (guard, _) = flight.ready.wait_timeout(slot, at - now).unwrap();
                        slot = guard;
                    }
                }
            }
        }

        let Role::Owner(flight) = role else {
            unreachable!("waiters returned above")
        };
        // This call owns the computation (lock NOT held). A panic inside
        // `compute` must still resolve the flight, or every waiter (and
        // all future requests for this key) would hang. The compute runs
        // under the flight's cancel token so pipeline stages and kernel
        // chunk loops can poll it; a cancellation unwind is converted to
        // the CANCELLED sentinel here, a real panic to an error.
        let token = flight.cancel.clone();
        let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cancel::with_token(Some(token), compute)
        }));
        // `negative_cacheable`: only genuine compute errors back off —
        // a cancellation must be retried by the next request (also one
        // a nested flight returned as its error, as a metric or sweep
        // flight's artifact flight does), and a panic's recompute
        // behavior is pinned by tests.
        let (result, negative_cacheable) = match computed {
            Ok(Ok(value_bytes)) => (Ok(value_bytes), false),
            Ok(Err(e)) => {
                let cacheable = e != cancel::CANCELLED;
                (Err(e), cacheable)
            }
            Err(payload) => {
                if payload.downcast_ref::<cancel::Cancelled>().is_some() {
                    self.cancelled.fetch_add(1, Ordering::Relaxed);
                    (Err(cancel::CANCELLED.to_string()), false)
                } else {
                    let what = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "unknown panic".to_string());
                    (Err(format!("computation panicked: {what}")), false)
                }
            }
        };
        let mut inner = self.lock();
        // Detach only this call's own marker: invalidate_dataset may have
        // removed it already (and a post-invalidation request may have
        // registered a fresh flight under the same key — leave theirs).
        if inner
            .inflight
            .get(key)
            .is_some_and(|current| Arc::ptr_eq(current, &flight))
        {
            inner.inflight.remove(key);
        }
        let outcome = match result {
            Ok((value, bytes)) => {
                let value = Arc::new(value);
                // Only cache results whose input dataset was not replaced
                // mid-computation; the value is still valid for callers
                // that requested it against the old dataset. A
                // `cache.insert` failpoint models a failed insert: the
                // value is still served, just not retained.
                if inner.generation(key.dataset()) == generation_at_start
                    && failpoint::check("cache.insert").is_none()
                {
                    inner.clock += 1;
                    let now = inner.clock;
                    // The key can already be resident: a sweep's
                    // `insert_if_current` may land the same artifact
                    // while this flight computes (flights are invisible
                    // to `lookup`). Account the replaced entry's bytes
                    // or `used_bytes` inflates permanently.
                    if let Some(previous) = inner.map.insert(
                        key.clone(),
                        Entry {
                            value: Arc::clone(&value),
                            bytes,
                            last_used: now,
                        },
                    ) {
                        inner.used_bytes -= previous.bytes;
                    }
                    inner.used_bytes += bytes;
                    self.evict_lru(&mut inner, key);
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                Ok((value, CacheOutcome::Miss))
            }
            Err(e) => {
                let ttl = self.negative_ttl();
                if negative_cacheable && !ttl.is_zero() {
                    inner
                        .negative
                        .insert(key.clone(), (e.clone(), Instant::now()));
                }
                Err(e)
            }
        };
        let shared = match &outcome {
            Ok((value, _)) => Ok(Arc::clone(value)),
            Err(e) => Err(e.clone()),
        };
        drop(inner);
        *flight.slot.lock().unwrap() = Some(shared);
        flight.ready.notify_all();
        outcome
    }

    /// Looks `key` up without computing anything. Touches the LRU clock
    /// and counts a hit when found; an absent key counts nothing (the
    /// `misses` stat means "computed", and a probe computes nothing).
    /// The sweep fast path probes per-s artifacts this way.
    pub fn lookup(&self, key: &K) -> Option<Arc<V>> {
        let mut inner = self.lock();
        inner.clock += 1;
        let now = inner.clock;
        let entry = inner.map.get_mut(key)?;
        entry.last_used = now;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(&entry.value))
    }

    /// The current invalidation generation of `dataset`. Record it
    /// *before* reading the dataset, then pass it to
    /// [`SingleFlightCache::insert_if_current`]: the pair fences direct
    /// inserts against a concurrent dataset replacement the same way
    /// `get_or_compute` fences its flights.
    pub fn generation(&self, dataset: &str) -> u64 {
        self.lock().generation(dataset)
    }

    /// Inserts a value computed outside a flight (the sweep path derives
    /// many artifacts from one), but only when the dataset's
    /// generation still equals `generation` — a replacement racing the
    /// computation must not pin stale entries. Counts as a miss when
    /// inserted (a computation happened); returns whether it entered the
    /// map.
    pub fn insert_if_current(&self, key: K, generation: u64, value: V, bytes: usize) -> bool {
        let mut inner = self.lock();
        if inner.generation(key.dataset()) != generation {
            return false;
        }
        inner.clock += 1;
        let now = inner.clock;
        if let Some(previous) = inner.map.insert(
            key.clone(),
            Entry {
                value: Arc::new(value),
                bytes,
                last_used: now,
            },
        ) {
            inner.used_bytes -= previous.bytes;
        }
        inner.used_bytes += bytes;
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.evict_lru(&mut inner, &key);
        true
    }

    /// Evicts least-recently-used entries (never `keep`) until within
    /// budget or only `keep` remains.
    fn evict_lru(&self, inner: &mut Inner<K, V>, keep: &K) {
        while inner.used_bytes > self.budget_bytes && inner.map.len() > 1 {
            let victim = inner
                .map
                .iter()
                .filter(|(k, _)| *k != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else { break };
            if let Some(entry) = inner.map.remove(&victim) {
                inner.used_bytes -= entry.bytes;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Drops every entry for `dataset` (used when a dataset is replaced)
    /// and bumps the dataset's generation so in-flight computations
    /// started against the old data are not cached when they land.
    /// In-flight markers for the dataset are detached too: callers
    /// already waiting still get the old-data result they asked for, but
    /// requests arriving after the invalidation start a fresh flight
    /// against the new data instead of coalescing onto the stale one.
    pub fn invalidate_dataset(&self, dataset: &str) {
        let mut inner = self.lock();
        *inner.generations.entry(dataset.to_string()).or_insert(0) += 1;
        let victims: Vec<K> = inner
            .map
            .keys()
            .filter(|k| k.dataset() == dataset)
            .cloned()
            .collect();
        for key in victims {
            if let Some(entry) = inner.map.remove(&key) {
                inner.used_bytes -= entry.bytes;
            }
        }
        inner.inflight.retain(|k, _| k.dataset() != dataset);
        inner.negative.retain(|k, _| k.dataset() != dataset);
    }

    /// Current statistics snapshot. Read under the plain mutex, not the
    /// timed guard: a `/metrics` scrape is not a hold worth recording.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            negative_hits: self.negative_hits.load(Ordering::Relaxed),
            gave_up: self.gave_up.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            entries: inner.map.len(),
            used_bytes: inner.used_bytes,
            budget_bytes: self.budget_bytes,
        }
    }
}

impl<V> ArtifactCache<V> {
    /// The resident entry built at the highest threshold `s0 ≤ key.s`
    /// among those that differ from `key` only in `s`: the source a
    /// missing `L_s` can be filtered from instead of recounted. One scan
    /// under the lock, however large `key.s` is. Touches the found
    /// entry's LRU clock but counts neither a hit nor a miss — `key`
    /// itself is still missing and about to be computed.
    pub fn lookup_floor(&self, key: &CacheKey) -> Option<Arc<V>> {
        let mut inner = self.lock();
        inner.clock += 1;
        let now = inner.clock;
        let (_, entry) = inner
            .map
            .iter_mut()
            .filter(|(k, _)| {
                k.s <= key.s
                    && k.dataset == key.dataset
                    && k.algorithm == key.algorithm
                    && k.weighted == key.weighted
            })
            .max_by_key(|(k, _)| k.s)?;
        entry.last_used = now;
        Some(Arc::clone(&entry.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn key(dataset: &str, s: u32) -> CacheKey {
        CacheKey {
            dataset: dataset.to_string(),
            s,
            algorithm: AlgoKind::Algo2,
            weighted: false,
        }
    }

    #[test]
    fn cache_key_equality_covers_every_field() {
        let base = key("a", 2);
        assert_eq!(base, base.clone());
        assert_ne!(base, key("b", 2));
        assert_ne!(base, key("a", 3));
        assert_ne!(
            base,
            CacheKey {
                algorithm: AlgoKind::Algo1,
                ..base.clone()
            }
        );
        assert_ne!(
            base,
            CacheKey {
                weighted: true,
                ..base.clone()
            }
        );
    }

    #[test]
    fn algo_names_roundtrip() {
        for algo in [
            AlgoKind::Algo2,
            AlgoKind::Algo1,
            AlgoKind::Spgemm,
            AlgoKind::Naive,
        ] {
            assert_eq!(AlgoKind::from_name(algo.name()), Some(algo));
        }
        assert_eq!(AlgoKind::from_name("2"), Some(AlgoKind::Algo2));
        assert_eq!(AlgoKind::from_name("bogus"), None);
    }

    #[test]
    fn hit_after_miss() {
        let cache: ArtifactCache<u64> = ArtifactCache::new(1024);
        let (v, outcome) = cache.get_or_compute(&key("a", 2), || Ok((7, 8))).unwrap();
        assert_eq!((*v, outcome), (7, CacheOutcome::Miss));
        let (v, outcome) = cache
            .get_or_compute(&key("a", 2), || panic!("must not recompute"))
            .unwrap();
        assert_eq!((*v, outcome), (7, CacheOutcome::Hit));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let cache: ArtifactCache<u32> = ArtifactCache::new(100);
        cache.get_or_compute(&key("a", 1), || Ok((1, 40))).unwrap();
        cache.get_or_compute(&key("a", 2), || Ok((2, 40))).unwrap();
        // Touch s=1 so s=2 is now the LRU entry.
        cache
            .get_or_compute(&key("a", 1), || unreachable!())
            .unwrap();
        // Inserting 40 more bytes (120 > 100) must evict s=2, not s=1.
        cache.get_or_compute(&key("a", 3), || Ok((3, 40))).unwrap();
        let (_, outcome) = cache.get_or_compute(&key("a", 1), || Ok((1, 40))).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit, "recently used entry survived");
        let (_, outcome) = cache.get_or_compute(&key("a", 2), || Ok((2, 40))).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss, "LRU entry was evicted");
        assert!(cache.stats().evictions >= 1);
    }

    #[test]
    fn oversized_entry_is_kept_alone() {
        let cache: ArtifactCache<u32> = ArtifactCache::new(100);
        cache.get_or_compute(&key("a", 1), || Ok((1, 30))).unwrap();
        cache.get_or_compute(&key("a", 2), || Ok((2, 500))).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.entries, 1, "all other entries evicted");
        let (_, outcome) = cache.get_or_compute(&key("a", 2), || Ok((2, 500))).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit, "oversized entry still serves");
    }

    #[test]
    fn errors_propagate_and_are_not_cached() {
        let cache: ArtifactCache<u32> = ArtifactCache::new(100);
        let err = cache
            .get_or_compute(&key("a", 1), || Err("nope".to_string()))
            .unwrap_err();
        assert_eq!(err, "nope");
        // The key is retried, not poisoned.
        let (v, outcome) = cache.get_or_compute(&key("a", 1), || Ok((9, 8))).unwrap();
        assert_eq!((*v, outcome), (9, CacheOutcome::Miss));
    }

    #[test]
    fn invalidate_dataset_clears_only_that_dataset() {
        let cache: ArtifactCache<u32> = ArtifactCache::new(1000);
        cache.get_or_compute(&key("a", 1), || Ok((1, 10))).unwrap();
        cache.get_or_compute(&key("b", 1), || Ok((2, 10))).unwrap();
        cache.invalidate_dataset("a");
        let (_, oa) = cache.get_or_compute(&key("a", 1), || Ok((1, 10))).unwrap();
        let (_, ob) = cache
            .get_or_compute(&key("b", 1), || unreachable!())
            .unwrap();
        assert_eq!((oa, ob), (CacheOutcome::Miss, CacheOutcome::Hit));
    }

    #[test]
    fn nested_cancellation_is_never_negative_cached() {
        // A flight whose compute resolved a nested flight that was
        // cancelled returns the sentinel as a plain error; the next
        // request must recompute, not be answered from the error cache.
        let cache: ArtifactCache<u32> = ArtifactCache::new(100);
        cache.set_negative_ttl(Duration::from_secs(60));
        let err = cache
            .get_or_compute(&key("a", 1), || Err(cancel::CANCELLED.to_string()))
            .unwrap_err();
        assert_eq!(err, cancel::CANCELLED);
        let (v, outcome) = cache.get_or_compute(&key("a", 1), || Ok((3, 8))).unwrap();
        assert_eq!((*v, outcome), (3, CacheOutcome::Miss));
        assert_eq!(cache.stats().negative_hits, 0);
        // A genuine error still backs off.
        cache
            .get_or_compute(&key("a", 2), || Err("nope".to_string()))
            .unwrap_err();
        let err = cache
            .get_or_compute(&key("a", 2), || Ok((4, 8)))
            .unwrap_err();
        assert_eq!(err, "nope");
    }

    #[test]
    fn panicking_compute_resolves_waiters_and_retries() {
        let cache: ArtifactCache<u32> = ArtifactCache::new(100);
        let err = cache
            .get_or_compute(&key("a", 1), || panic!("kernel assert"))
            .unwrap_err();
        assert!(err.contains("panicked"), "{err}");
        assert!(err.contains("kernel assert"), "{err}");
        // The key is usable again afterwards.
        let (v, outcome) = cache.get_or_compute(&key("a", 1), || Ok((3, 8))).unwrap();
        assert_eq!((*v, outcome), (3, CacheOutcome::Miss));
    }

    #[test]
    fn invalidation_mid_flight_prevents_stale_caching() {
        let cache: ArtifactCache<u32> = ArtifactCache::new(1000);
        // The compute simulates "dataset replaced while building".
        let (v, outcome) = cache
            .get_or_compute(&key("a", 1), || {
                cache.invalidate_dataset("a");
                Ok((1, 10))
            })
            .unwrap();
        assert_eq!(
            (*v, outcome),
            (1, CacheOutcome::Miss),
            "caller still served"
        );
        // But the stale artifact was NOT cached.
        let (v, outcome) = cache.get_or_compute(&key("a", 1), || Ok((2, 10))).unwrap();
        assert_eq!((*v, outcome), (2, CacheOutcome::Miss));
        // Subsequent entries cache normally under the new generation.
        let (_, outcome) = cache
            .get_or_compute(&key("a", 1), || unreachable!())
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
    }

    #[test]
    fn post_invalidation_requests_do_not_coalesce_onto_stale_flight() {
        use std::sync::atomic::AtomicBool;
        let cache: ArtifactCache<u32> = ArtifactCache::new(1000);
        let started = AtomicBool::new(false);
        let release = AtomicBool::new(false);
        let (cache, started, release) = (&cache, &started, &release);
        std::thread::scope(|scope| {
            let owner = scope.spawn(move || {
                cache
                    .get_or_compute(&key("a", 1), || {
                        started.store(true, Ordering::Relaxed);
                        while !release.load(Ordering::Relaxed) {
                            std::thread::sleep(std::time::Duration::from_millis(1));
                        }
                        Ok((1, 10))
                    })
                    .unwrap()
            });
            while !started.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            // Dataset replaced while the owner is mid-compute.
            cache.invalidate_dataset("a");
            // A post-invalidation request must start a fresh flight, not
            // wait on (and share) the stale one.
            let (v, outcome) = cache.get_or_compute(&key("a", 1), || Ok((2, 10))).unwrap();
            assert_eq!((*v, outcome), (2, CacheOutcome::Miss));
            release.store(true, Ordering::Relaxed);
            let (v, outcome) = owner.join().unwrap();
            assert_eq!((*v, outcome), (1, CacheOutcome::Miss), "owner still served");
        });
        // The fresh artifact is what stays cached.
        let (v, outcome) = cache
            .get_or_compute(&key("a", 1), || unreachable!())
            .unwrap();
        assert_eq!((*v, outcome), (2, CacheOutcome::Hit));
    }

    #[test]
    fn lookup_probes_without_computing() {
        let cache: ArtifactCache<u32> = ArtifactCache::new(1000);
        assert!(cache.lookup(&key("a", 1)).is_none());
        // A failed probe is not a miss (nothing was computed).
        assert_eq!(cache.stats().misses, 0);
        cache.get_or_compute(&key("a", 1), || Ok((9, 10))).unwrap();
        assert_eq!(*cache.lookup(&key("a", 1)).unwrap(), 9);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn lookup_refreshes_lru_position() {
        let cache: ArtifactCache<u32> = ArtifactCache::new(100);
        cache.get_or_compute(&key("a", 1), || Ok((1, 40))).unwrap();
        cache.get_or_compute(&key("a", 2), || Ok((2, 40))).unwrap();
        // Probe s=1 so s=2 becomes the eviction victim.
        assert!(cache.lookup(&key("a", 1)).is_some());
        cache.get_or_compute(&key("a", 3), || Ok((3, 40))).unwrap();
        assert!(cache.lookup(&key("a", 1)).is_some(), "probed entry kept");
        assert!(cache.lookup(&key("a", 2)).is_none(), "LRU entry evicted");
    }

    #[test]
    fn lookup_floor_finds_the_highest_threshold_at_or_below_s() {
        let cache: ArtifactCache<u32> = ArtifactCache::new(1 << 20);
        for s in [2, 5, 9] {
            cache.get_or_compute(&key("a", s), || Ok((s, 8))).unwrap();
        }
        // Other datasets and algorithms never stand in, whatever their s.
        cache.get_or_compute(&key("b", 4), || Ok((104, 8))).unwrap();
        let algo1 = |s| CacheKey {
            algorithm: AlgoKind::Algo1,
            ..key("a", s)
        };
        cache.get_or_compute(&algo1(3), || Ok((203, 8))).unwrap();
        cache.get_or_compute(&algo1(8), || Ok((208, 8))).unwrap();
        let before = cache.stats();
        let floor = |s| cache.lookup_floor(&key("a", s)).map(|v| *v);
        assert_eq!(floor(1), None, "every resident s0 is above s");
        assert_eq!(floor(2), Some(2), "s0 = s qualifies");
        assert_eq!(floor(4), Some(2));
        assert_eq!(floor(5), Some(5));
        assert_eq!(floor(8), Some(5));
        assert_eq!(floor(u32::MAX), Some(9));
        assert_eq!(cache.lookup_floor(&algo1(7)).map(|v| *v), Some(203));
        assert_eq!(cache.lookup_floor(&key("c", 9)), None);
        let after = cache.stats();
        assert_eq!(
            (after.hits, after.misses),
            (before.hits, before.misses),
            "a floor probe is neither a hit nor a miss"
        );
        cache.invalidate_dataset("a");
        assert_eq!(floor(9), None, "invalidated sources are gone");
        assert_eq!(cache.lookup_floor(&key("b", 4)).map(|v| *v), Some(104));
    }

    #[test]
    fn lookup_floor_refreshes_the_source_lru_position() {
        let cache: ArtifactCache<u32> = ArtifactCache::new(100);
        cache.get_or_compute(&key("a", 2), || Ok((2, 40))).unwrap();
        cache.get_or_compute(&key("a", 5), || Ok((5, 40))).unwrap();
        // Floor-probe s=2 (via s=3) so s=5 becomes the eviction victim.
        assert_eq!(cache.lookup_floor(&key("a", 3)).map(|v| *v), Some(2));
        cache.get_or_compute(&key("a", 7), || Ok((7, 40))).unwrap();
        assert!(cache.lookup(&key("a", 2)).is_some(), "probed source kept");
        assert!(cache.lookup(&key("a", 5)).is_none(), "LRU entry evicted");
    }

    #[test]
    fn insert_if_current_respects_generation_fence() {
        let cache: ArtifactCache<u32> = ArtifactCache::new(1000);
        let generation = cache.generation("a");
        // Replacement lands between the generation read and the insert:
        // the insert must be dropped.
        cache.invalidate_dataset("a");
        assert!(!cache.insert_if_current(key("a", 1), generation, 7, 10));
        assert!(cache.lookup(&key("a", 1)).is_none(), "stale insert pinned");
        // Under the current generation the insert lands and serves.
        let generation = cache.generation("a");
        assert!(cache.insert_if_current(key("a", 1), generation, 8, 10));
        assert_eq!(*cache.lookup(&key("a", 1)).unwrap(), 8);
        // Re-inserting the same key replaces the entry without leaking
        // accounted bytes.
        assert!(cache.insert_if_current(key("a", 1), generation, 9, 30));
        assert_eq!(cache.stats().used_bytes, 30);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn flight_insert_over_resident_entry_accounts_bytes_once() {
        // A sweep's insert_if_current can land an entry while a flight
        // for the same key is still computing; when the flight lands its
        // own copy, the replaced entry's bytes must be released.
        let cache: ArtifactCache<u32> = ArtifactCache::new(1000);
        let generation = cache.generation("a");
        cache
            .get_or_compute(&key("a", 1), || {
                // Simulates the concurrent direct insert mid-flight.
                assert!(cache.insert_if_current(key("a", 1), generation, 7, 40));
                Ok((8, 40))
            })
            .unwrap();
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.used_bytes, 40, "replaced entry's bytes leaked");
        assert_eq!(*cache.lookup(&key("a", 1)).unwrap(), 8, "flight value wins");
    }

    #[test]
    fn metric_tier_shares_invalidation_semantics() {
        fn mkey(dataset: &str, metric: MetricKind) -> MetricKey {
            MetricKey {
                artifact: key(dataset, 2),
                metric,
            }
        }
        let cache: SingleFlightCache<MetricKey, u32> = SingleFlightCache::new(1000);
        let bc = MetricKind::Betweenness {
            samples: 0,
            seed: 42,
        };
        cache
            .get_or_compute(&mkey("a", bc), || Ok((1, 10)))
            .unwrap();
        cache
            .get_or_compute(&mkey("b", bc), || Ok((2, 10)))
            .unwrap();
        // Distinct metric params are distinct entries.
        let sampled = MetricKind::Betweenness {
            samples: 8,
            seed: 42,
        };
        cache
            .get_or_compute(&mkey("a", sampled), || Ok((3, 10)))
            .unwrap();
        assert_eq!(cache.stats().entries, 3);
        // Invalidating one dataset clears exactly its metric entries.
        cache.invalidate_dataset("a");
        assert!(cache.lookup(&mkey("a", bc)).is_none());
        assert!(cache.lookup(&mkey("a", sampled)).is_none());
        assert_eq!(*cache.lookup(&mkey("b", bc)).unwrap(), 2);
    }

    #[test]
    fn single_flight_deduplicates_concurrent_computes() {
        let cache: Arc<ArtifactCache<u64>> = Arc::new(ArtifactCache::new(1 << 20));
        let computes = AtomicUsize::new(0);
        let computes = &computes;
        let cache_ref = &cache;
        let outcomes: Vec<CacheOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..16)
                .map(|_| {
                    scope.spawn(move || {
                        let (v, outcome) = cache_ref
                            .get_or_compute(&key("a", 5), || {
                                computes.fetch_add(1, Ordering::Relaxed);
                                // Widen the race window.
                                std::thread::sleep(std::time::Duration::from_millis(30));
                                Ok((11, 8))
                            })
                            .unwrap();
                        assert_eq!(*v, 11);
                        outcome
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            computes.load(Ordering::Relaxed),
            1,
            "exactly one computation"
        );
        let misses = outcomes
            .iter()
            .filter(|&&o| o == CacheOutcome::Miss)
            .count();
        assert_eq!(misses, 1);
        assert_eq!(cache.stats().coalesced + cache.stats().hits, 15);
    }
}
