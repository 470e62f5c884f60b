//! A generic process-wide single-flight object cache.
//!
//! This is the storage-layer core of the shared LOD cut cache: a sharded
//! map from a key (one non-overlapping residency unit — a DMTM lattice
//! tile at a resolution step, or one MSDN crossing line — in the callers)
//! to an immutable, `Arc`-shared value, with the same concurrency
//! discipline as the buffer pool in [`pager`](crate::pager):
//!
//! * **Entry state machine** — every key is *Absent* (not in the map),
//!   *Loading* (one thread is materializing it), *Warm* (resident,
//!   recently used) or *Cooling* (resident, reference bit cleared by the
//!   CLOCK hand; next sweep evicts it). A hit on a Cooling entry warms it
//!   back up.
//! * **Batched single-flight loading** — [`SingleFlightCache::get_many`]
//!   is the one load path. A request names every key it needs; one lock
//!   pass classifies each as resident, *Loading* elsewhere, or *claimed*
//!   (Absent: this thread latches it); **one** loader call materializes
//!   all claimed keys, so the caller can fetch them in a single storage
//!   batch; the values are published and waiters woken; only then does
//!   the thread wait on the keys other threads lead. A leader therefore
//!   never blocks while holding unpublished latches, which is what makes
//!   overlapping, unequal key sets deadlock-free. A failing or panicking
//!   leader removes *all* its latches through a drop guard and publishes
//!   nothing; its waiters wake, find the keys Absent and claim them.
//! * **Bounded weight with CLOCK eviction** — each shard carries a weight
//!   budget (the callers pass approximate byte sizes). Inserting over
//!   budget sweeps the shard's clock ring: Warm entries cool, Cooling
//!   entries are evicted. *Loading* entries are never on the ring and
//!   never evicted.
//!
//! Values are immutable once published: a load must be deterministic for
//! a given key, which is what lets the query layer keep results
//! bit-identical whether it hits the cache or re-extracts.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Number of cache shards — fixed (like
/// [`POOL_SHARDS`](crate::pager::POOL_SHARDS)) so behaviour does not depend on the host.
pub const CACHE_SHARDS: usize = 8;

/// See `pager::lock_recover`: every critical section here leaves the data
/// consistent, so a panicking holder must not poison the whole cache.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Resident-entry payload plus its CLOCK reference bit: `warm == true` is
/// the *Warm* state, `warm == false` is *Cooling*.
enum Entry<V> {
    /// A leader is materializing the value; wait on the shard condvar.
    Loading,
    /// Materialized and served from memory.
    Resident { value: Arc<V>, weight: usize, warm: bool },
}

struct ShardState<K, V> {
    map: HashMap<K, Entry<V>>,
    /// Resident keys in insertion order — the CLOCK ring (Loading entries
    /// are never on it).
    ring: Vec<K>,
    hand: usize,
    /// Sum of resident weights.
    weight: usize,
}

struct CacheShard<K, V> {
    state: Mutex<ShardState<K, V>>,
    /// Wakes waiters when a load completes (or fails).
    done: Condvar,
}

/// Counter snapshot of a [`SingleFlightCache`]; cumulative since
/// construction. All counters are per *key*, not per request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Keys served from a resident entry (including single-flight waiters
    /// served by their leader's load).
    pub hits: u64,
    /// Keys actually loaded (cold keys).
    pub misses: u64,
    /// Keys a thread found *Loading* under another thread and waited for
    /// instead of loading itself.
    pub singleflight_waits: u64,
    /// Cooled entries pushed out by the CLOCK sweep.
    pub evictions: u64,
    /// Loader calls that returned an error (every key they had claimed
    /// was unlatched — none published).
    pub failed_loads: u64,
}

/// Occupancy snapshot of a [`SingleFlightCache`], read by locking every
/// shard (gauge-scrape cost, not hot-path cost).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheGauges {
    /// Resident entries in the Warm state.
    pub warm: u64,
    /// Resident entries in the Cooling state (next sweep evicts them).
    pub cooling: u64,
    /// Keys currently being materialized.
    pub loading: u64,
    /// Total weight of resident entries (approximate bytes).
    pub resident_weight: u64,
}

/// What a [`SingleFlightCache::get_or_load`] returned and how.
pub struct CacheOutcome<V> {
    /// The shared value.
    pub value: Arc<V>,
    /// `true` when served without running a load (resident entry or a
    /// single-flight wait on another thread's load).
    pub hit: bool,
}

/// What a [`SingleFlightCache::get_many`] returned and how.
pub struct ManyOutcome<V> {
    /// The shared values, one per requested key, in request order.
    pub values: Vec<Arc<V>>,
    /// `true` when this request ran no load: every key was resident or
    /// arrived through another thread's load.
    pub hit: bool,
}

/// Removes the *Loading* entries of every claimed key (waking waiters)
/// unless disarmed, so a failing — or panicking — leader can never leave a
/// latched entry behind: waiters wake, find the keys Absent, and claim
/// them themselves.
struct LoadGuard<'c, K: Hash + Eq + Clone, V> {
    cache: &'c SingleFlightCache<K, V>,
    keys: Vec<K>,
    armed: bool,
}

impl<K: Hash + Eq + Clone, V> Drop for LoadGuard<'_, K, V> {
    fn drop(&mut self) {
        // Here rather than after the loader call, so a panicking loader
        // cannot leave the gauge raised.
        self.cache.in_flight.fetch_sub(1, Relaxed);
        if !self.armed {
            return;
        }
        for key in &self.keys {
            let shard = self.cache.shard(key);
            let mut st = lock_recover(&shard.state);
            // Remove only a Loading latch — never a Resident entry another
            // (post-clear) leader may have published meanwhile.
            if matches!(st.map.get(key), Some(Entry::Loading)) {
                st.map.remove(key);
            }
            drop(st);
            shard.done.notify_all();
        }
    }
}

/// The cache. `K` is the canonical identity of a materialized object
/// (loads must be deterministic per key); `V` is immutable once published.
pub struct SingleFlightCache<K, V> {
    shards: Vec<CacheShard<K, V>>,
    /// Weight budget per shard (total capacity split evenly).
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    waits: AtomicU64,
    evictions: AtomicU64,
    failed_loads: AtomicU64,
    in_flight: AtomicU64,
}

impl<K: Hash + Eq + Clone, V> SingleFlightCache<K, V> {
    /// A cache bounded by `capacity_weight` (split over [`CACHE_SHARDS`]).
    pub fn new(capacity_weight: usize) -> Self {
        let shard_capacity = (capacity_weight / CACHE_SHARDS).max(1);
        let shards = (0..CACHE_SHARDS)
            .map(|_| CacheShard {
                state: Mutex::new(ShardState {
                    map: HashMap::new(),
                    ring: Vec::new(),
                    hand: 0,
                    weight: 0,
                }),
                done: Condvar::new(),
            })
            .collect();
        Self {
            shards,
            shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            failed_loads: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
        }
    }

    fn shard_index(&self, key: &K) -> usize {
        // A fixed-key hasher (not the per-map randomized one) so shard
        // placement is stable across runs and machines.
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() % self.shards.len() as u64) as usize
    }

    fn shard(&self, key: &K) -> &CacheShard<K, V> {
        &self.shards[self.shard_index(key)]
    }

    /// Fetch `key`, running `load` under single-flight if it is Absent: a
    /// [`get_many`](Self::get_many) of one key. `load` returns the value
    /// and its weight; it runs with no cache locks held. On `Err` the
    /// latch is released and nothing is published.
    pub fn get_or_load<E>(
        &self,
        key: K,
        load: impl FnOnce() -> Result<(V, usize), E>,
    ) -> Result<CacheOutcome<V>, E> {
        // One key is claimed at most once per request, so the loader runs
        // at most once.
        let mut load = Some(load);
        let out = self.get_many(std::slice::from_ref(&key), |_| {
            (load.take().expect("a single key is claimed at most once"))().map(|v| vec![v])
        })?;
        let value = out.values.into_iter().next().expect("one value per key");
        Ok(CacheOutcome { value, hit: out.hit })
    }

    /// Fetch every key of `keys` (distinct), loading the Absent ones under
    /// single-flight — see the module docs for the protocol. `load` is
    /// handed the indices (into `keys`) of the keys this thread claimed
    /// and returns their `(value, weight)` in the same order; it runs with
    /// no cache locks held. It is called once per request, and again only
    /// for keys whose leader on another thread failed. On `Err` every
    /// claimed key is unlatched and nothing of that load is published.
    pub fn get_many<E>(
        &self,
        keys: &[K],
        mut load: impl FnMut(&[usize]) -> Result<Vec<(V, usize)>, E>,
    ) -> Result<ManyOutcome<V>, E> {
        let shard_of: Vec<usize> = keys.iter().map(|k| self.shard_index(k)).collect();
        let mut values: Vec<Option<Arc<V>>> = keys.iter().map(|_| None).collect();
        // Keys still to resolve; after the first round, the keys that were
        // Loading under another thread.
        let mut todo: Vec<usize> = (0..keys.len()).collect();
        let mut first_round = true;
        let mut loaded = false;
        loop {
            // One lock pass per shard: classify resident / loading
            // elsewhere / claimed.
            let mut claimed: Vec<usize> = Vec::new();
            let mut pending: Vec<usize> = Vec::new();
            for (s, shard) in self.shards.iter().enumerate() {
                let mut st: Option<MutexGuard<'_, ShardState<K, V>>> = None;
                for &i in todo.iter().filter(|&&i| shard_of[i] == s) {
                    let st = st.get_or_insert_with(|| lock_recover(&shard.state));
                    match st.map.get_mut(&keys[i]) {
                        Some(Entry::Resident { value, warm, .. }) => {
                            *warm = true; // Cooling -> Warm (and Warm stays Warm)
                            values[i] = Some(value.clone());
                        }
                        Some(Entry::Loading) => pending.push(i),
                        None => {
                            st.map.insert(keys[i].clone(), Entry::Loading);
                            claimed.push(i);
                        }
                    }
                }
            }
            self.hits.fetch_add((todo.len() - claimed.len() - pending.len()) as u64, Relaxed);
            if first_round {
                self.waits.fetch_add(pending.len() as u64, Relaxed);
                first_round = false;
            }
            if !claimed.is_empty() {
                loaded = true;
                self.lead(keys, &shard_of, &claimed, &mut load, &mut values)?;
            }
            let Some(&first) = pending.first() else { break };
            // Everything this thread leads is published; now wait for one
            // key led elsewhere to leave the Loading state, then re-classify
            // the rest (most will have landed meanwhile).
            let shard = &self.shards[shard_of[first]];
            let mut st = lock_recover(&shard.state);
            while matches!(st.map.get(&keys[first]), Some(Entry::Loading)) {
                // Bounded wait so a lost notification degrades to a
                // re-check instead of a hang.
                let (guard, _) = shard
                    .done
                    .wait_timeout(st, Duration::from_millis(50))
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
            }
            drop(st);
            todo = pending;
        }
        let values = values.into_iter().map(|v| v.expect("every key resolved")).collect();
        Ok(ManyOutcome { values, hit: !loaded })
    }

    /// Run one loader call for the `claimed` keys (already latched by this
    /// thread) and publish its values. The guard unlatches every claimed
    /// key on the exit paths that do not publish (error or panic).
    fn lead<E>(
        &self,
        keys: &[K],
        shard_of: &[usize],
        claimed: &[usize],
        load: &mut impl FnMut(&[usize]) -> Result<Vec<(V, usize)>, E>,
        values: &mut [Option<Arc<V>>],
    ) -> Result<(), E> {
        self.in_flight.fetch_add(1, Relaxed);
        let mut guard = LoadGuard {
            cache: self,
            keys: claimed.iter().map(|&i| keys[i].clone()).collect(),
            armed: true,
        };
        let loaded = match load(claimed) {
            Ok(loaded) => loaded,
            Err(e) => {
                self.failed_loads.fetch_add(1, Relaxed);
                return Err(e); // guard drop: unlatch + notify, waiters re-claim
            }
        };
        assert_eq!(loaded.len(), claimed.len(), "loader must return one value per claimed key");
        for (&i, (value, weight)) in claimed.iter().zip(loaded) {
            let value = Arc::new(value);
            let shard = &self.shards[shard_of[i]];
            let mut st = lock_recover(&shard.state);
            self.evict_for(&mut st, weight);
            st.map.insert(
                keys[i].clone(),
                Entry::Resident { value: value.clone(), weight, warm: true },
            );
            st.ring.push(keys[i].clone());
            st.weight += weight;
            drop(st);
            shard.done.notify_all();
            values[i] = Some(value);
        }
        guard.armed = false;
        self.misses.fetch_add(claimed.len() as u64, Relaxed);
        Ok(())
    }

    /// CLOCK sweep making room for `incoming` weight: Warm entries cool,
    /// Cooling entries leave. Terminates because every full revolution
    /// either evicts an entry or cools at least one Warm entry, and the
    /// ring holds only resident entries.
    fn evict_for(&self, st: &mut ShardState<K, V>, incoming: usize) {
        while st.weight + incoming > self.shard_capacity && !st.ring.is_empty() {
            if st.hand >= st.ring.len() {
                st.hand = 0;
            }
            let key = st.ring[st.hand].clone();
            match st.map.get_mut(&key) {
                Some(Entry::Resident { warm: warm @ true, .. }) => {
                    *warm = false; // Warm -> Cooling
                    st.hand += 1;
                }
                Some(Entry::Resident { weight, .. }) => {
                    let w = *weight;
                    st.map.remove(&key);
                    st.ring.remove(st.hand);
                    st.weight -= w;
                    self.evictions.fetch_add(1, Relaxed);
                }
                // Ring slots always reference resident entries; a stale
                // slot would be a bookkeeping bug — drop it defensively.
                _ => {
                    st.ring.remove(st.hand);
                }
            }
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            singleflight_waits: self.waits.load(Relaxed),
            evictions: self.evictions.load(Relaxed),
            failed_loads: self.failed_loads.load(Relaxed),
        }
    }

    /// Loads currently running (a gauge; moves fast under load).
    pub fn loads_in_flight(&self) -> u64 {
        self.in_flight.load(Relaxed)
    }

    /// Occupancy snapshot across all shards.
    pub fn gauges(&self) -> CacheGauges {
        let mut g = CacheGauges::default();
        for shard in &self.shards {
            let st = lock_recover(&shard.state);
            for entry in st.map.values() {
                match entry {
                    Entry::Loading => g.loading += 1,
                    Entry::Resident { warm: true, weight, .. } => {
                        g.warm += 1;
                        g.resident_weight += *weight as u64;
                    }
                    Entry::Resident { weight, .. } => {
                        g.cooling += 1;
                        g.resident_weight += *weight as u64;
                    }
                }
            }
        }
        g
    }

    /// Resident entries (Warm + Cooling).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let st = lock_recover(&s.state);
                st.ring.len()
            })
            .sum()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every resident entry. In-flight loads are left latched — their
    /// leaders publish into the emptied shard as usual — so clearing
    /// during traffic cannot strand a waiter or double-lead a key.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut st = lock_recover(&shard.state);
            st.map.retain(|_, e| matches!(e, Entry::Loading));
            st.ring.clear();
            st.hand = 0;
            st.weight = 0;
        }
    }

    /// Total weight capacity.
    pub fn capacity(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: usize) -> SingleFlightCache<u64, u64> {
        SingleFlightCache::new(capacity)
    }

    #[test]
    fn miss_then_hit() {
        let c = cache(1024);
        let out = c.get_or_load::<()>(7, || Ok((70, 8))).unwrap();
        assert!(!out.hit);
        assert_eq!(*out.value, 70);
        let out = c.get_or_load::<()>(7, || panic!("must not reload")).unwrap();
        assert!(out.hit);
        assert_eq!(*out.value, 70);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn failed_load_leaves_no_entry() {
        let c = cache(1024);
        let r = c.get_or_load(3, || Err::<(u64, usize), &str>("boom"));
        assert_eq!(r.err(), Some("boom"));
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats().failed_loads, 1);
        // The key is loadable again — no poisoned latch.
        let out = c.get_or_load::<()>(3, || Ok((30, 8))).unwrap();
        assert!(!out.hit);
        assert_eq!(c.gauges().loading, 0);
    }

    #[test]
    fn eviction_keeps_weight_bounded() {
        // One shard's worth of budget: capacity 8 * CACHE_SHARDS with
        // weight-8 entries means each shard holds at most one entry.
        let c = cache(8 * CACHE_SHARDS);
        for k in 0..64u64 {
            let _ = c.get_or_load::<()>(k, || Ok((k, 8))).unwrap();
        }
        let g = c.gauges();
        assert!(g.resident_weight <= c.capacity() as u64, "{g:?}");
        assert!(c.stats().evictions > 0);
    }

    #[test]
    fn clock_prefers_cooling_victims() {
        // Capacity for exactly two weight-1 entries per shard; keys chosen
        // on one shard via probing.
        let c = cache(2 * CACHE_SHARDS);
        // Find three keys on the same shard.
        let mut same = Vec::new();
        let mut h0 = None;
        for k in 0..1024u64 {
            let mut h = DefaultHasher::new();
            k.hash(&mut h);
            let s = h.finish() % CACHE_SHARDS as u64;
            match h0 {
                None => {
                    h0 = Some(s);
                    same.push(k);
                }
                Some(s0) if s == s0 => same.push(k),
                _ => {}
            }
            if same.len() == 4 {
                break;
            }
        }
        let (a, b, x, y) = (same[0], same[1], same[2], same[3]);
        let _ = c.get_or_load::<()>(a, || Ok((a, 1))).unwrap();
        let _ = c.get_or_load::<()>(b, || Ok((b, 1))).unwrap();
        // Inserting `x` over budget sweeps: both Warm entries cool, the
        // hand wraps and evicts `a`; `b` is left *Cooling*, `x` Warm.
        let _ = c.get_or_load::<()>(x, || Ok((x, 1))).unwrap();
        // Inserting `y` must now take the Cooling `b`, not the Warm `x`.
        let _ = c.get_or_load::<()>(y, || Ok((y, 1))).unwrap();
        let out = c.get_or_load::<()>(x, || Ok((999, 1))).unwrap();
        assert_eq!(*out.value, x, "warm entry must survive the sweep");
        let out = c.get_or_load::<()>(b, || Ok((999, 1))).unwrap();
        assert_eq!(*out.value, 999, "cooling entry must have been evicted");
    }

    #[test]
    fn single_flight_under_threads() {
        let c = Arc::new(cache(4096));
        let loads = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                let loads = Arc::clone(&loads);
                s.spawn(move || {
                    let out = c
                        .get_or_load::<()>(42, || {
                            loads.fetch_add(1, Relaxed);
                            // Stretch the flight window so peers really wait.
                            std::thread::sleep(Duration::from_millis(30));
                            Ok((420, 8))
                        })
                        .unwrap();
                    assert_eq!(*out.value, 420);
                });
            }
        });
        assert_eq!(loads.load(Relaxed), 1, "exactly one load across 4 threads");
        let s = c.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 3);
    }

    #[test]
    fn get_many_loads_the_absent_keys_in_one_call() {
        let c = cache(4096);
        let _ = c.get_or_load::<()>(2, || Ok((20, 8))).unwrap();
        let mut calls = 0;
        let out = c
            .get_many::<()>(&[1, 2, 3], |claimed| {
                calls += 1;
                // Key 2 is resident: only 1 and 3 are claimed.
                let mut idx = claimed.to_vec();
                idx.sort_unstable();
                assert_eq!(idx, [0, 2]);
                Ok(claimed.iter().map(|&i| ([1u64, 2, 3][i] * 10, 8)).collect())
            })
            .unwrap();
        assert_eq!(calls, 1);
        assert!(!out.hit);
        assert_eq!(out.values.iter().map(|v| **v).collect::<Vec<_>>(), [10, 20, 30]);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 3));
        // Everything resident now: a pure hit, no loader call.
        let out = c.get_many::<()>(&[3, 1], |_| panic!("must not reload")).unwrap();
        assert!(out.hit);
        assert_eq!(out.values.iter().map(|v| **v).collect::<Vec<_>>(), [30, 10]);
    }

    #[test]
    fn failed_get_many_unlatches_every_claimed_key() {
        let c = cache(4096);
        let r = c.get_many(&[1, 2, 3], |_| Err::<Vec<(u64, usize)>, &str>("boom"));
        assert_eq!(r.err(), Some("boom"));
        assert_eq!(c.len(), 0);
        assert_eq!(c.gauges().loading, 0, "a failed load must leave no latch");
        assert_eq!(c.stats().failed_loads, 1);
        let out = c.get_many::<()>(&[3, 2, 1], |cl| Ok(cl.iter().map(|_| (7, 8)).collect()));
        assert!(!out.unwrap().hit);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn overlapping_key_sets_load_each_key_once() {
        // Four threads ask for sliding windows over 0..12; every key must
        // be loaded by exactly one of them and nobody may deadlock waiting
        // on a key whose leader in turn waits on one of theirs.
        let c = Arc::new(cache(1 << 20));
        let loads = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = Arc::clone(&c);
                let loads = Arc::clone(&loads);
                s.spawn(move || {
                    let keys: Vec<u64> = (t * 2..t * 2 + 6).collect();
                    let out = c
                        .get_many::<()>(&keys, |claimed| {
                            loads.fetch_add(claimed.len() as u64, Relaxed);
                            std::thread::sleep(Duration::from_millis(20));
                            Ok(claimed.iter().map(|&i| (keys[i] * 10, 8)).collect())
                        })
                        .unwrap();
                    for (k, v) in keys.iter().zip(&out.values) {
                        assert_eq!(**v, k * 10);
                    }
                });
            }
        });
        assert_eq!(loads.load(Relaxed), 12, "each of the 12 distinct keys loads once");
        let s = c.stats();
        assert_eq!(s.misses, 12);
        assert_eq!(s.hits + s.misses, 24);
    }

    #[test]
    fn clear_empties_residents() {
        let c = cache(4096);
        for k in 0..5u64 {
            let _ = c.get_or_load::<()>(k, || Ok((k, 8))).unwrap();
        }
        assert_eq!(c.len(), 5);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.gauges().resident_weight, 0);
        // Reload works.
        let out = c.get_or_load::<()>(1, || Ok((11, 8))).unwrap();
        assert!(!out.hit);
        assert_eq!(*out.value, 11);
    }
}
