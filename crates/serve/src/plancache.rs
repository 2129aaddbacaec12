//! The single-flight plan cache.
//!
//! At serving scale an inspection costs milliseconds to seconds, so
//! concurrent first requests for one matrix must not each build their
//! own plan: the cache is single-flight. The first request for a
//! fingerprint builds while later arrivals block on a condvar and share
//! the result. A build that fails (or panics) is *negatively*
//! cached: repeats of the same doomed request are refused instantly for
//! a TTL that doubles with each consecutive failure, so a crashing
//! tenant cannot wedge the cache — or the builder threads — by
//! retrying in a loop.
//!
//! The cache is **bounded**: at most `cap` resident entries (ready or
//! poisoned; in-flight builds are never evicted). A plan for a
//! `MAX_N`-sized matrix costs on the order of 100 MB, so an unbounded
//! map would let a slow trickle of distinct valid specs grow memory
//! without ever tripping the occupancy-based shedding ladder. Eviction
//! prefers, in order: expired negative entries (already worthless),
//! then the least-recently-used ready entry, then the oldest negative
//! entry. Evicting a ready entry only drops the cache's `Arc`; requests
//! already holding the plan keep it alive until they finish.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How a successful lookup was satisfied (feeds distinct counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The entry was already resident.
    Hit,
    /// This caller ran the build.
    Built,
    /// Another caller was building; this one waited and shared.
    Waited,
}

/// Why a lookup failed.
#[derive(Debug, Clone)]
pub enum CacheError {
    /// The fingerprint is negatively cached from an earlier failure.
    NegativelyCached {
        /// The original failure message.
        detail: String,
        /// Time until the negative entry decays and a rebuild is allowed.
        retry_in: Duration,
    },
    /// This caller's own build failed (now negatively cached).
    BuildFailed {
        /// The failure (or stringified panic payload).
        detail: String,
    },
}

impl CacheError {
    /// The client-facing failure message.
    pub fn detail(&self) -> &str {
        match self {
            CacheError::NegativelyCached { detail, .. } | CacheError::BuildFailed { detail } => {
                detail
            }
        }
    }
}

enum Slot<T> {
    /// A build is in flight; waiters sleep on the condvar.
    Building,
    Ready {
        value: Arc<T>,
        /// Logical access clock value at the last hit (LRU eviction key).
        last_used: u64,
    },
    /// A failed build; refused until `until`, then retried. `failures`
    /// survives the decay so repeat offenders back off exponentially.
    Poisoned { until: Instant, failures: u32, detail: String },
}

struct Slots<T> {
    map: HashMap<u64, Slot<T>>,
    /// Monotonic access counter backing the LRU order.
    clock: u64,
}

/// A keyed single-flight cache with negative caching and a bounded
/// resident count. `T` is the plan bundle; the cache never clones it,
/// only the `Arc`.
pub struct PlanCache<T> {
    slots: Mutex<Slots<T>>,
    cv: Condvar,
    neg_ttl_base: Duration,
    cap: usize,
}

/// Cap the exponential negative-TTL backoff at `base × 2⁶`.
const MAX_BACKOFF_DOUBLINGS: u32 = 6;

impl<T> PlanCache<T> {
    /// An empty cache holding at most `cap` resident entries, whose
    /// negative entries start at `neg_ttl_base` and double per
    /// consecutive failure (capped at 64×).
    pub fn new(neg_ttl_base: Duration, cap: usize) -> Self {
        PlanCache {
            slots: Mutex::new(Slots { map: HashMap::new(), clock: 0 }),
            cv: Condvar::new(),
            neg_ttl_base,
            cap: cap.max(1),
        }
    }

    fn backoff(&self, failures: u32) -> Duration {
        self.neg_ttl_base * (1u32 << failures.saturating_sub(1).min(MAX_BACKOFF_DOUBLINGS))
    }

    /// Resident entry count (ready + poisoned + building; tests assert
    /// the bound).
    pub fn len(&self) -> usize {
        self.slots.lock().expect("plan cache lock").map.len()
    }

    /// True when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The resident entry for `key`, if ready — never builds, never
    /// waits (the admission ladder uses this to ask "is this cached?").
    /// Counts as a use for LRU purposes.
    pub fn peek(&self, key: u64) -> Option<Arc<T>> {
        let mut slots = self.slots.lock().expect("plan cache lock");
        slots.clock += 1;
        let now = slots.clock;
        match slots.map.get_mut(&key) {
            Some(Slot::Ready { value, last_used }) => {
                *last_used = now;
                Some(Arc::clone(value))
            }
            _ => None,
        }
    }

    /// Drops a *ready* entry (e.g. to upgrade a degraded plan once
    /// pressure subsides). In-flight builds and negative entries are
    /// left alone; existing `Arc` holders keep their entry.
    pub fn invalidate(&self, key: u64) {
        let mut slots = self.slots.lock().expect("plan cache lock");
        if let Some(Slot::Ready { .. }) = slots.map.get(&key) {
            slots.map.remove(&key);
        }
    }

    /// Evicts until at most `cap` entries remain, preferring expired
    /// negative entries, then LRU ready entries, then oldest negative
    /// entries. `Building` slots are never evicted (a waiter is parked
    /// on them), so the map can transiently exceed `cap` only by the
    /// number of concurrent in-flight builds.
    fn evict_excess(&self, slots: &mut Slots<T>) {
        while slots.map.len() > self.cap {
            let now = Instant::now();
            let mut expired_neg: Option<u64> = None;
            let mut lru_ready: Option<(u64, u64)> = None;
            let mut oldest_neg: Option<(u64, Instant)> = None;
            for (&key, slot) in &slots.map {
                match slot {
                    Slot::Building => {}
                    Slot::Ready { last_used, .. } => {
                        if lru_ready.is_none_or(|(_, lu)| *last_used < lu) {
                            lru_ready = Some((key, *last_used));
                        }
                    }
                    Slot::Poisoned { until, .. } => {
                        if *until <= now {
                            expired_neg = Some(key);
                        } else if oldest_neg.is_none_or(|(_, u)| *until < u) {
                            oldest_neg = Some((key, *until));
                        }
                    }
                }
            }
            let victim = expired_neg.or(lru_ready.map(|(k, _)| k)).or(oldest_neg.map(|(k, _)| k));
            match victim {
                Some(key) => {
                    slots.map.remove(&key);
                }
                // Everything is Building: nothing evictable right now.
                None => break,
            }
        }
    }

    /// Looks up `key`, building via `build` on a miss. Exactly one
    /// caller builds per fingerprint at a time; the rest wait and share
    /// its outcome. A `build` error (or panic) poisons the key for the
    /// decaying TTL.
    pub fn get_or_build(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<T, String>,
    ) -> Result<(Arc<T>, CacheOutcome), CacheError> {
        let mut waited = false;
        let mut slots = self.slots.lock().expect("plan cache lock");
        loop {
            slots.clock += 1;
            let now_tick = slots.clock;
            match slots.map.get_mut(&key) {
                Some(Slot::Ready { value, last_used }) => {
                    *last_used = now_tick;
                    let out = if waited { CacheOutcome::Waited } else { CacheOutcome::Hit };
                    return Ok((Arc::clone(value), out));
                }
                Some(Slot::Poisoned { until, failures, detail }) => {
                    let now = Instant::now();
                    if now < *until {
                        return Err(CacheError::NegativelyCached {
                            detail: detail.clone(),
                            retry_in: *until - now,
                        });
                    }
                    // Decayed: this caller retries the build, keeping the
                    // failure streak for the next backoff step.
                    let failures = *failures;
                    slots.map.insert(key, Slot::Building);
                    return self.run_build(slots, key, failures, build);
                }
                Some(Slot::Building) => {
                    waited = true;
                    slots = self.cv.wait(slots).expect("plan cache lock");
                }
                None => {
                    slots.map.insert(key, Slot::Building);
                    return self.run_build(slots, key, 0, build);
                }
            }
        }
    }

    fn run_build(
        &self,
        slots: std::sync::MutexGuard<'_, Slots<T>>,
        key: u64,
        prior_failures: u32,
        build: impl FnOnce() -> Result<T, String>,
    ) -> Result<(Arc<T>, CacheOutcome), CacheError> {
        // Build outside the lock: an inspection can take seconds and must
        // not serialize lookups of other fingerprints.
        drop(slots);
        let built = catch_unwind(AssertUnwindSafe(build)).unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(format!("plan build panicked: {msg}"))
        });
        let mut slots = self.slots.lock().expect("plan cache lock");
        let result = match built {
            Ok(v) => {
                let v = Arc::new(v);
                slots.clock += 1;
                let now_tick = slots.clock;
                slots.map.insert(key, Slot::Ready { value: Arc::clone(&v), last_used: now_tick });
                Ok((v, CacheOutcome::Built))
            }
            Err(detail) => {
                let failures = prior_failures + 1;
                slots.map.insert(
                    key,
                    Slot::Poisoned {
                        until: Instant::now() + self.backoff(failures),
                        failures,
                        detail: detail.clone(),
                    },
                );
                Err(CacheError::BuildFailed { detail })
            }
        };
        self.evict_excess(&mut slots);
        drop(slots);
        self.cv.notify_all();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn hit_after_build_and_peek() {
        let cache = PlanCache::new(Duration::from_millis(50), 16);
        assert!(cache.peek(1).is_none());
        let (v, out) = cache.get_or_build(1, || Ok(7usize)).unwrap();
        assert_eq!((*v, out), (7, CacheOutcome::Built));
        let (v, out) = cache.get_or_build(1, || panic!("must not rebuild")).unwrap();
        assert_eq!((*v, out), (7, CacheOutcome::Hit));
        assert_eq!(*cache.peek(1).unwrap(), 7);
    }

    #[test]
    fn single_flight_builds_once_for_concurrent_callers() {
        let cache = Arc::new(PlanCache::new(Duration::from_millis(50), 16));
        let builds = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (cache, builds) = (Arc::clone(&cache), Arc::clone(&builds));
                std::thread::spawn(move || {
                    cache
                        .get_or_build(9, || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(Duration::from_millis(30));
                            Ok(42usize)
                        })
                        .unwrap()
                })
            })
            .collect();
        let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(builds.load(Ordering::Relaxed), 1, "exactly one build");
        assert!(outcomes.iter().all(|(v, _)| **v == 42));
        assert_eq!(outcomes.iter().filter(|(_, o)| *o == CacheOutcome::Built).count(), 1);
    }

    #[test]
    fn failed_build_is_negatively_cached_with_decay() {
        let cache: PlanCache<usize> = PlanCache::new(Duration::from_millis(40), 16);
        let err = cache.get_or_build(3, || Err("boom".into())).unwrap_err();
        assert!(matches!(err, CacheError::BuildFailed { .. }));
        assert_eq!(err.detail(), "boom");
        // Within the TTL: refused without calling the builder.
        let err = cache.get_or_build(3, || panic!("must not run")).unwrap_err();
        assert!(matches!(err, CacheError::NegativelyCached { .. }));
        // After decay: the builder runs again; a second failure doubles
        // the backoff.
        std::thread::sleep(Duration::from_millis(50));
        let err = cache.get_or_build(3, || Err("boom2".into())).unwrap_err();
        assert!(matches!(err, CacheError::BuildFailed { .. }));
        match cache.get_or_build(3, || Ok(1usize)) {
            Err(CacheError::NegativelyCached { retry_in, .. }) => {
                assert!(retry_in > Duration::from_millis(40), "backoff must have doubled");
            }
            other => panic!("expected negative entry, got {:?}", other.map(|(v, o)| (*v, o))),
        }
        // Eventually a successful rebuild clears the poison.
        std::thread::sleep(Duration::from_millis(100));
        let (v, out) = cache.get_or_build(3, || Ok(5usize)).unwrap();
        assert_eq!((*v, out), (5, CacheOutcome::Built));
    }

    #[test]
    fn panicking_build_poisons_instead_of_wedging() {
        let cache: PlanCache<usize> = PlanCache::new(Duration::from_millis(30), 16);
        let err = cache.get_or_build(4, || panic!("inspector crash")).unwrap_err();
        assert!(err.detail().contains("inspector crash"), "{}", err.detail());
        // Waiters are released, the key is poisoned, the cache still works.
        assert!(cache.get_or_build(4, || Ok(1usize)).is_err());
        let (v, _) = cache.get_or_build(5, || Ok(2usize)).unwrap();
        assert_eq!(*v, 2);
    }

    #[test]
    fn invalidate_drops_only_ready_entries() {
        let cache: PlanCache<usize> = PlanCache::new(Duration::from_millis(30), 16);
        cache.get_or_build(6, || Ok(1usize)).unwrap();
        cache.invalidate(6);
        assert!(cache.peek(6).is_none());
        let _ = cache.get_or_build(7, || Err("bad".into()));
        cache.invalidate(7); // poisoned entries stay
        assert!(matches!(
            cache.get_or_build(7, || Ok(1usize)),
            Err(CacheError::NegativelyCached { .. })
        ));
    }

    /// Distinct keys never grow the cache past its bound, and the evicted
    /// entry is the least recently used.
    #[test]
    fn resident_count_is_bounded_and_eviction_is_lru() {
        let cache: PlanCache<u64> = PlanCache::new(Duration::from_millis(30), 3);
        for key in 0..3 {
            cache.get_or_build(key, || Ok(key)).unwrap();
        }
        // Touch 0 and 2 so 1 is the LRU entry.
        assert!(cache.peek(0).is_some());
        assert!(cache.peek(2).is_some());
        cache.get_or_build(3, || Ok(3)).unwrap();
        assert_eq!(cache.len(), 3, "cap must hold after inserting a 4th key");
        assert!(cache.peek(1).is_none(), "LRU entry must be the one evicted");
        for key in [0u64, 2, 3] {
            assert!(cache.peek(key).is_some(), "recently used key {key} must survive");
        }
        // A long trickle of distinct keys stays bounded.
        for key in 100..200 {
            cache.get_or_build(key, || Ok(key)).unwrap();
        }
        assert_eq!(cache.len(), 3);
    }

    /// Expired negative entries are evicted before any ready entry.
    #[test]
    fn expired_negative_entries_are_evicted_first() {
        let cache: PlanCache<u64> = PlanCache::new(Duration::from_millis(5), 2);
        cache.get_or_build(1, || Ok(1)).unwrap();
        let _ = cache.get_or_build(2, || Err("bad".into()));
        std::thread::sleep(Duration::from_millis(10));
        // The negative entry for 2 has expired; inserting 3 must evict it,
        // not the ready plan for 1.
        cache.get_or_build(3, || Ok(3)).unwrap();
        assert_eq!(cache.len(), 2);
        assert!(cache.peek(1).is_some(), "live ready entry outranks an expired negative one");
        assert!(cache.peek(3).is_some());
    }
}
