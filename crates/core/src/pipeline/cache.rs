//! The content-keyed artifact cache shared across compiles.
//!
//! A [`CellCache`] maps `(kind, ContentKey)` pairs to `Arc`-shared
//! immutable artifacts (leaf cells, tiled macrocells, whole stage
//! outputs). Parameter sweeps hand one cache to every `compile_with`
//! call so that points sharing a process reuse leaf cells and tiles
//! instead of regenerating them; the parallel macrocell executor shares
//! the same cache across its worker threads, so the map is sharded
//! behind [`Mutex`]es to keep contention off the hot path.
//!
//! The cache is *transparent* by construction: a key covers every input
//! its builder reads, so a hit returns an artifact byte-identical to
//! what a fresh build would produce (pinned by `tests/determinism.rs`).

use super::key::{content_key, ContentKey, FxBuildHasher};
use crate::compiler::CompileError;
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of independent shards; a small power of two — enough to keep
/// the handful of compile worker threads from convoying on one lock.
const SHARDS: usize = 16;

/// One shard: the artifact map plus the per-kind hit/miss tallies for
/// the keys that hash into this shard. Keeping the tallies inside the
/// shard lock the lookup already holds makes per-kind accounting free
/// of any extra synchronization on the hot path.
#[derive(Debug, Default)]
struct ShardInner {
    map: HashMap<(&'static str, ContentKey), Arc<dyn Any + Send + Sync>, FxBuildHasher>,
    kind_hits: HashMap<&'static str, u64>,
    kind_misses: HashMap<&'static str, u64>,
}

type Shard = Mutex<ShardInner>;

/// Aggregated traffic for one cache kind (`leaf`, `macro`, a stage
/// name, `verify`, `verify-cert`, …) — the per-kind slice of
/// [`CellCache::hits`]/[`CellCache::misses`], surfaced by the compile
/// service's status response so cache behavior under traffic is
/// observable per artifact class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindStats {
    /// The cache kind string.
    pub kind: &'static str,
    /// Lookups of this kind that found a live artifact.
    pub hits: u64,
    /// Lookups of this kind that had to build.
    pub misses: u64,
}

/// A sharded, content-keyed map of compile artifacts.
#[derive(Debug, Default)]
pub struct CellCache {
    shards: [Shard; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CellCache {
    /// An empty cache.
    pub fn new() -> Self {
        CellCache::default()
    }

    /// The process-wide cache that plain [`compile`](crate::compile)
    /// uses, so that back-to-back compiles in one process (a sweep, a
    /// server loop) share artifacts without any plumbing.
    pub fn global() -> &'static Arc<CellCache> {
        static GLOBAL: OnceLock<Arc<CellCache>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(CellCache::new()))
    }

    fn shard(&self, key: ContentKey) -> &Shard {
        // The low bits of an Fx digest are well mixed (final op is a
        // multiply); any fixed bit slice spreads keys evenly.
        &self.shards[(key.0 as usize) % SHARDS]
    }

    /// Looks `(kind, key)` up, running `build` and inserting on a miss.
    ///
    /// The builder runs *outside* the shard lock so concurrent workers
    /// never serialize on each other's generation work; if two threads
    /// race on the same key both build and the second insert wins, which
    /// is harmless because equal keys imply byte-identical artifacts.
    ///
    /// # Errors
    ///
    /// Propagates the builder's error; nothing is inserted on failure.
    pub fn get_or_build<T, F>(
        &self,
        kind: &'static str,
        key: ContentKey,
        build: F,
    ) -> Result<Arc<T>, CompileError>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> Result<T, CompileError>,
    {
        if let Some(found) = self.lookup::<T>(kind, key) {
            return Ok(found);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        {
            let mut shard = self.shard(key).lock().unwrap_or_else(|e| e.into_inner());
            *shard.kind_misses.entry(kind).or_insert(0) += 1;
        }
        let built: Arc<T> = Arc::new(build()?);
        let mut shard = self.shard(key).lock().unwrap_or_else(|e| e.into_inner());
        shard.map.insert(
            (kind, key),
            Arc::clone(&built) as Arc<dyn Any + Send + Sync>,
        );
        Ok(built)
    }

    /// A bare lookup (counts a hit when found, nothing when absent).
    /// A stored artifact of the wrong type — only possible if two
    /// different artifact types share a `kind` string, which the
    /// pipeline never does — is treated as absent rather than a panic.
    pub fn lookup<T: Send + Sync + 'static>(
        &self,
        kind: &'static str,
        key: ContentKey,
    ) -> Option<Arc<T>> {
        let mut shard = self.shard(key).lock().unwrap_or_else(|e| e.into_inner());
        let found = shard.map.get(&(kind, key)).cloned()?;
        match found.downcast::<T>() {
            Ok(t) => {
                *shard.kind_hits.entry(kind).or_insert(0) += 1;
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(t)
            }
            Err(_) => None,
        }
    }

    /// Convenience over [`CellCache::get_or_build`] deriving the key by
    /// hashing `key_struct` (the typed description of the artifact's
    /// inputs).
    ///
    /// # Errors
    ///
    /// Propagates the builder's error.
    pub fn get_or_build_keyed<K, T, F>(
        &self,
        kind: &'static str,
        key_struct: &K,
        build: F,
    ) -> Result<Arc<T>, CompileError>
    where
        K: std::hash::Hash,
        T: Send + Sync + 'static,
        F: FnOnce() -> Result<T, CompileError>,
    {
        self.get_or_build(kind, content_key(key_struct), build)
    }

    /// Total lookups that found a live artifact since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total lookups that had to build since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Per-kind hit/miss totals since construction, aggregated across
    /// shards and sorted by kind name — a deterministic snapshot for
    /// status reporting (the per-kind rows sum to
    /// [`CellCache::hits`]/[`CellCache::misses`]).
    pub fn kind_stats(&self) -> Vec<KindStats> {
        let mut agg: HashMap<&'static str, (u64, u64)> = HashMap::new();
        for s in &self.shards {
            let shard = s.lock().unwrap_or_else(|e| e.into_inner());
            for (&kind, &h) in &shard.kind_hits {
                agg.entry(kind).or_insert((0, 0)).0 += h;
            }
            for (&kind, &m) in &shard.kind_misses {
                agg.entry(kind).or_insert((0, 0)).1 += m;
            }
        }
        let mut out: Vec<KindStats> = agg
            .into_iter()
            .map(|(kind, (hits, misses))| KindStats { kind, hits, misses })
            .collect();
        out.sort_by_key(|s| s.kind);
        out
    }

    /// Number of cached artifacts.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).map.len())
            .sum()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached artifact (counters are kept — they describe
    /// the cache's lifetime, not its contents).
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().unwrap_or_else(|e| e.into_inner()).map.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_builds_then_hit_reuses() {
        let cache = CellCache::new();
        let key = content_key(&"k1");
        let mut builds = 0;
        let a: Arc<String> = cache
            .get_or_build("test", key, || {
                builds += 1;
                Ok("artifact".to_owned())
            })
            .unwrap();
        let b: Arc<String> = cache
            .get_or_build("test", key, || {
                builds += 1;
                Ok("never run".to_owned())
            })
            .unwrap();
        assert_eq!(builds, 1);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn kinds_partition_the_key_space() {
        let cache = CellCache::new();
        let key = content_key(&7u64);
        let a: Arc<u32> = cache.get_or_build("kind-a", key, || Ok(1)).unwrap();
        let b: Arc<u32> = cache.get_or_build("kind-b", key, || Ok(2)).unwrap();
        assert_eq!((*a, *b), (1, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn build_errors_insert_nothing() {
        let cache = CellCache::new();
        let key = content_key(&"failing");
        let r: Result<Arc<u32>, _> = cache.get_or_build("test", key, || {
            Err(CompileError::Params(
                crate::params::ParamError::GateSizeTooSmall { factor: 0 },
            ))
        });
        assert!(r.is_err());
        assert!(cache.is_empty());
        // A later successful build works.
        let ok: Arc<u32> = cache.get_or_build("test", key, || Ok(9)).unwrap();
        assert_eq!(*ok, 9);
    }

    #[test]
    fn kind_stats_partition_the_totals() {
        let cache = CellCache::new();
        let k1 = content_key(&1u64);
        let k2 = content_key(&2u64);
        let _: Arc<u32> = cache.get_or_build("alpha", k1, || Ok(1)).unwrap();
        let _: Arc<u32> = cache.get_or_build("alpha", k1, || Ok(1)).unwrap();
        let _: Arc<u32> = cache.get_or_build("alpha", k2, || Ok(2)).unwrap();
        let _: Arc<u32> = cache.get_or_build("beta", k1, || Ok(3)).unwrap();
        let stats = cache.kind_stats();
        // Sorted by kind, and the rows sum to the global counters.
        assert_eq!(
            stats,
            vec![
                KindStats {
                    kind: "alpha",
                    hits: 1,
                    misses: 2
                },
                KindStats {
                    kind: "beta",
                    hits: 0,
                    misses: 1
                },
            ]
        );
        let (h, m): (u64, u64) = stats
            .iter()
            .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
        assert_eq!((h, m), (cache.hits(), cache.misses()));
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = CellCache::new();
        let key = content_key(&1u8);
        let _: Arc<u8> = cache.get_or_build("t", key, || Ok(1)).unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn concurrent_same_key_builds_converge() {
        let cache = Arc::new(CellCache::new());
        let key = content_key(&"contended");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    let v: Arc<u64> = cache.get_or_build("t", key, || Ok(0xABCD)).unwrap();
                    assert_eq!(*v, 0xABCD);
                });
            }
        });
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits() + cache.misses(), 8);
    }
}
