//! Cross-request compiled-tape cache for the serve layer.
//!
//! A [`ReplayOrRecord`](crate::ReplayOrRecord) driver amortizes
//! recording within one instance's lifetime; [`TapeCache`] extends that
//! across instances and threads: traces extracted with
//! [`ReplayOrRecord::share`](crate::ReplayOrRecord::share) are stored
//! under a `(kernel, shape_key)` key and re-injected into any worker's
//! driver with [`ReplayOrRecord::install`](crate::ReplayOrRecord::install),
//! so repeat traffic from an already-seen kernel shape skips recording
//! entirely, whichever worker serves it.
//!
//! The cache is sharded — the key hash picks one of a small fixed
//! number of independently locked shards, so concurrent workers rarely
//! contend — and bounded: each shard holds at most
//! `ceil(capacity / shards)` entries and evicts its least-recently-used
//! entry when full (recency is a global atomic tick stamped on every
//! hit). Hits, misses, insertions and evictions are counted on the
//! cache itself ([`TapeCache::stats`]) and mirrored into the
//! `scorpio_obs` counter registry (`tape_cache.hit` / `.miss` /
//! `.insert` / `.evict`).
//!
//! Correctness does not depend on the cache: an installed trace still
//! sits behind the driver's shape-key / arity / branch guards, so a
//! stale or mismatched entry degrades to a re-record, never to a wrong
//! replay.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::replay::CompiledTrace;

/// Number of independently locked shards. A small power of two:
/// enough to keep a handful of worker threads from contending on one
/// lock, few enough that the per-shard LRU bound stays close to the
/// requested total capacity.
const SHARDS: usize = 8;

/// One cached trace plus its key and recency stamp.
struct Entry {
    kernel: &'static str,
    shape: u64,
    trace: CompiledTrace,
    /// Global tick at last hit (or insertion); smallest = evict first.
    last_used: u64,
}

/// A shard: a short vec scanned linearly — shape diversity per kernel
/// is small (a handful of image sizes, series lengths, …), so a scan
/// over ≤ a few dozen entries beats hashing overhead.
type Shard = Mutex<Vec<Entry>>;

/// Monotonic counters describing a [`TapeCache`]'s traffic so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TapeCacheStats {
    /// Lookups that found a trace for the requested `(kernel, shape)`.
    pub hits: u64,
    /// Lookups that found nothing (the caller records and inserts).
    pub misses: u64,
    /// Traces stored (replacements of an existing key count too).
    pub insertions: u64,
    /// Entries dropped to enforce the capacity bound.
    pub evictions: u64,
}

impl TapeCacheStats {
    /// Fraction of lookups served from the cache (0.0 before any
    /// lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The per-field difference `self − before` — traffic accumulated
    /// since the `before` snapshot (mirrors
    /// [`ReplayStats::since`](crate::ReplayStats::since)).
    pub fn since(&self, before: TapeCacheStats) -> TapeCacheStats {
        TapeCacheStats {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            insertions: self.insertions - before.insertions,
            evictions: self.evictions - before.evictions,
        }
    }
}

/// Shape-keyed, sharded, LRU-bounded store of shareable compiled
/// traces. All methods take `&self`;
/// the cache is meant to sit in an `Arc` shared by worker threads.
pub struct TapeCache {
    shards: Vec<Shard>,
    /// Per-shard entry bound (`ceil(capacity / shards)`).
    shard_capacity: usize,
    /// Global recency clock; bumped on every hit and insertion.
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl TapeCache {
    /// A cache holding roughly `capacity` traces across `SHARDS` (8)
    /// internal shards (each shard is bounded to
    /// `ceil(capacity / shards)`, so the true ceiling can exceed
    /// `capacity` by up to `shards − 1` when keys hash unevenly).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> TapeCache {
        TapeCache::with_shards(capacity, SHARDS)
    }

    /// As [`TapeCache::new`] with an explicit shard count (1 gives an
    /// exact capacity bound and deterministic LRU order — useful in
    /// tests; more shards trade bound slack for less lock contention).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `shards == 0`.
    pub fn with_shards(capacity: usize, shards: usize) -> TapeCache {
        assert!(capacity > 0, "TapeCache capacity must be at least 1");
        assert!(shards > 0, "TapeCache needs at least one shard");
        let shards = shards.min(capacity);
        TapeCache {
            shards: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            shard_capacity: capacity.div_ceil(shards),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Maximum number of entries the cache can hold
    /// (`shards × per-shard bound`).
    pub fn capacity(&self) -> usize {
        self.shards.len() * self.shard_capacity
    }

    /// Number of traces currently cached.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("tape-cache shard poisoned").len())
            .sum()
    }

    /// `true` when no trace is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up the trace recorded for `(kernel, shape)`, refreshing
    /// its recency on a hit. Counts a hit or a miss either way.
    pub fn get(&self, kernel: &str, shape: u64) -> Option<CompiledTrace> {
        let mut shard = self.shard(kernel, shape);
        let found = shard
            .iter_mut()
            .find(|e| e.shape == shape && e.kernel == kernel);
        match found {
            Some(entry) => {
                entry.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                let trace = entry.trace.clone();
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                scorpio_obs::count("tape_cache.hit", 1);
                Some(trace)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                scorpio_obs::count("tape_cache.miss", 1);
                None
            }
        }
    }

    /// Stores `trace` under `(kernel, shape)`, replacing any existing
    /// entry for that key and evicting the shard's least-recently-used
    /// entry if the shard is at capacity.
    ///
    /// `kernel` is `&'static str` by design: keys are kernel names
    /// known at compile time, which keeps entries allocation-free and
    /// lookups comparison-cheap.
    pub fn insert(&self, kernel: &'static str, shape: u64, trace: CompiledTrace) {
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut evicted = false;
        {
            let mut shard = self.shard(kernel, shape);
            if let Some(entry) = shard
                .iter_mut()
                .find(|e| e.shape == shape && e.kernel == kernel)
            {
                entry.trace = trace;
                entry.last_used = now;
            } else {
                if shard.len() >= self.shard_capacity {
                    let lru = shard
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.last_used)
                        .map(|(i, _)| i)
                        .expect("full shard has an LRU entry");
                    shard.swap_remove(lru);
                    evicted = true;
                }
                shard.push(Entry {
                    kernel,
                    shape,
                    trace,
                    last_used: now,
                });
            }
        }
        self.insertions.fetch_add(1, Ordering::Relaxed);
        scorpio_obs::count("tape_cache.insert", 1);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            scorpio_obs::count("tape_cache.evict", 1);
        }
    }

    /// Drops every cached trace (counters are kept — a clear is part
    /// of the traffic history, not a reset of it).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("tape-cache shard poisoned").clear();
        }
    }

    /// Snapshot of the hit/miss/insert/evict counters.
    pub fn stats(&self) -> TapeCacheStats {
        TapeCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Locks and returns the shard responsible for `(kernel, shape)`.
    fn shard(&self, kernel: &str, shape: u64) -> std::sync::MutexGuard<'_, Vec<Entry>> {
        let mut h = shape ^ 0x9E37_79B9_7F4A_7C15;
        for &b in kernel.as_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
        }
        // splitmix64 finalizer: spreads the low-entropy kernel/shape
        // mix across the shard index bits.
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        self.shards[(h % self.shards.len() as u64) as usize]
            .lock()
            .expect("tape-cache shard poisoned")
    }
}

impl std::fmt::Debug for TapeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TapeCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::AnalysisError;
    use crate::replay::ReplayOrRecord;
    use crate::report::{Report, VarSignificances};
    use crate::session::{Analysis, AnalysisArena};
    use scorpio_interval::Interval;

    fn trace_of_len(n: usize) -> CompiledTrace {
        let mut driver = ReplayOrRecord::new(Analysis::new());
        let mut arena = AnalysisArena::new();
        driver
            .run::<VarSignificances, _>(
                Some(n as u64),
                &mut arena,
                &[Interval::new(0.1, 0.9)],
                |ctx| {
                    let x = ctx.input("x", 0.0, 1.0);
                    let mut acc = ctx.constant(0.0);
                    for i in 0..n {
                        acc = acc + x.powi(i as i32 + 1);
                    }
                    ctx.output(&acc, "y");
                    Ok::<(), AnalysisError>(())
                },
            )
            .unwrap();
        driver.share().unwrap()
    }

    #[test]
    fn hit_and_miss_are_counted() {
        let cache = TapeCache::new(4);
        assert!(cache.get("poly", 3).is_none());
        cache.insert("poly", 3, trace_of_len(3));
        let hit = cache.get("poly", 3).expect("inserted key must hit");
        assert_eq!(hit.shape_key(), Some(3));
        assert!(cache.get("poly", 5).is_none(), "other shape must miss");
        assert!(cache.get("other", 3).is_none(), "other kernel must miss");
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.evictions, 0);
        assert!((stats.hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn lru_entry_is_evicted_at_capacity() {
        // One shard: exact bound, deterministic recency order.
        let cache = TapeCache::with_shards(2, 1);
        cache.insert("poly", 1, trace_of_len(1));
        cache.insert("poly", 2, trace_of_len(2));
        // Touch key 1 so key 2 becomes the LRU entry.
        assert!(cache.get("poly", 1).is_some());
        cache.insert("poly", 3, trace_of_len(3));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get("poly", 2).is_none(), "LRU entry must be gone");
        assert!(cache.get("poly", 1).is_some());
        assert!(cache.get("poly", 3).is_some());
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let cache = TapeCache::with_shards(2, 1);
        cache.insert("poly", 1, trace_of_len(1));
        let replacement = trace_of_len(1);
        cache.insert("poly", 1, replacement.clone());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 0);
        assert!(cache.get("poly", 1).unwrap().ptr_eq(&replacement));
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = TapeCache::new(4);
        cache.insert("poly", 1, trace_of_len(1));
        assert!(cache.get("poly", 1).is_some());
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.get("poly", 1).is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 1);
    }

    #[test]
    fn concurrent_access_is_safe_and_accounted() {
        use std::sync::Arc;
        let cache = Arc::new(TapeCache::new(8));
        let seed = trace_of_len(2);
        cache.insert("poly", 0, seed);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..50 {
                        if cache.get("poly", i % 4).is_none() {
                            cache.insert("poly", i % 4, trace_of_len((t + 1) as usize));
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 200);
        assert!(stats.hits > 0);
        assert!(cache.len() <= cache.capacity());
    }

    #[test]
    fn cached_trace_round_trips_through_a_driver() {
        let cache = TapeCache::new(4);
        cache.insert("poly", 4, trace_of_len(4));
        let trace = cache.get("poly", 4).unwrap();
        let mut driver = ReplayOrRecord::new(Analysis::new());
        driver.install(&trace);
        let mut arena = AnalysisArena::new();
        let report = driver
            .run::<Report, _>(Some(4), &mut arena, &[Interval::new(0.2, 0.8)], |ctx| {
                let x = ctx.input("x", 0.0, 1.0);
                let mut acc = ctx.constant(0.0);
                for i in 0..4 {
                    acc = acc + x.powi(i + 1);
                }
                ctx.output(&acc, "y");
                Ok::<(), AnalysisError>(())
            })
            .unwrap();
        assert_eq!(driver.stats().replays, 1);
        assert_eq!(driver.stats().records, 0, "cache hit must skip recording");
        assert!(report.significance_of("y").is_some());
    }
}
