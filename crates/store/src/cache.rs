//! A generic process-wide single-flight object cache.
//!
//! This is the storage-layer core of the shared LOD cut cache: a sharded
//! map from a key (one non-overlapping residency unit — a DMTM lattice
//! tile at a resolution step, or one MSDN crossing line — in the callers)
//! to an immutable, `Arc`-shared value:
//!
//! * **Entry state machine** — every key is *Absent* (not in the map),
//!   *Loading* (one thread is materializing it), *Warm* (resident,
//!   recently used) or *Cooling* (resident, reference bit cleared by the
//!   CLOCK hand; next sweep evicts it). A hit on a Cooling entry warms it
//!   back up.
//! * **Batched single-flight loading, split in two** —
//!   [`SingleFlightCache::claim`] is one lock pass that classifies every
//!   key a request needs as resident, *Loading* elsewhere, or *claimed*
//!   (Absent: this thread latches it), and returns a [`Claim`]. The caller
//!   materializes all claimed keys — so it can fetch them in a single
//!   storage batch, even together with another cache's claims — and
//!   publishes them through the claim, which wakes their waiters; only
//!   then does it wait on the keys other threads lead
//!   ([`Claim::hand_out`]). A thread therefore never blocks while holding
//!   unpublished latches — in any cache — which is what makes
//!   overlapping, unequal key sets deadlock-free. A failing or panicking
//!   leader's claim drops, removing *all* its latches and publishing
//!   nothing; its waiters wake, find the keys Absent and claim them.
//! * **Asks and the first-ask rule** — a request is a list of *asks*
//!   (a ranking iteration's spans or bands), each a list of keys. The
//!   claim owns them: the union of their keys in the order the asks first
//!   name them (so overlapping asks load a shared key once), each key's
//!   first ask, and each ask's keys. [`Claim::hand_out`] gives each ask
//!   its values in its own order, and credits an ask as a hit iff none of
//!   the keys it was first to name was loaded by this thread — what an
//!   ask-by-ask load in the same order would report. This module is the
//!   one place that rule lives.
//! * **Bounded weight with CLOCK eviction** — each shard carries a weight
//!   budget; the cache weighs each value with the function it was built
//!   with (approximate bytes in the callers). Inserting over budget
//!   sweeps the shard's clock ring: Warm entries cool, Cooling entries
//!   are evicted. *Loading* entries are never on the ring and never
//!   evicted.
//!
//! Values are immutable once published: a load must be deterministic for
//! a given key, which is what lets the query layer keep results
//! bit-identical whether it hits the cache or re-extracts.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Number of cache shards — fixed so behaviour does not depend on the host.
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

/// One lock pass of [`SingleFlightCache::claim`] over the union of a
/// request's asks: each distinct key is resident (its value is here),
/// *Loading* under another thread or latched by this claim. The claim
/// owns the asks: their keys deduplicated in the order the asks first
/// name them, each key's first ask, and each ask's keys. It publishes
/// the latched keys' values with [`publish`](Self::publish); dropped
/// before that — a failed or panicking load — it removes every latch it
/// holds (waking waiters, who find the keys Absent and claim them) and
/// publishes nothing.
pub struct Claim<'c, K: Hash + Eq + Clone, V> {
    cache: &'c SingleFlightCache<K, V>,
    /// The asks' distinct keys, in the order the asks first name them.
    keys: Vec<K>,
    /// Per key, the first ask naming it.
    first_ask: Vec<usize>,
    /// Per ask, its keys as positions in `keys`, in ask order.
    picks: Vec<Vec<usize>>,
    /// Per key, its value: the resident ones from the claim, the claimed
    /// ones once published.
    values: Vec<Option<Arc<V>>>,
    /// Indices (into `keys`) this claim latched, ascending.
    claimed: Vec<usize>,
    /// Indices of the keys another thread was loading, ascending.
    elsewhere: Vec<usize>,
    /// The shards of the latched keys, in `claimed` order; emptied by the
    /// publish.
    latched: Vec<usize>,
}

impl<'c, K: Hash + Eq + Clone, V> Claim<'c, K, V> {
    /// The distinct keys, in the order the asks first name them, each
    /// with whether this claim latched it (its caller loads it) rather
    /// than finding it resident or loading elsewhere.
    pub fn keys(&self) -> impl Iterator<Item = (&K, bool)> + '_ {
        let mut claimed = self.claimed.iter().peekable();
        self.keys.iter().enumerate().map(move |(i, k)| (k, claimed.next_if_eq(&&i).is_some()))
    }

    /// Classify the keys at `todo` as resident, *Loading* elsewhere, or
    /// Absent — which this claim then latches — in one lock pass per
    /// shard. Only a request's first pass counts its *Loading* keys as
    /// waits.
    fn classify(&mut self, todo: &[usize], count_waits: bool) {
        let cache = self.cache;
        let shard_of: Vec<usize> = todo.iter().map(|&i| cache.shard_index(&self.keys[i])).collect();
        // Claimed keys as `(index, shard)`.
        let (mut claimed, mut elsewhere) = (Vec::new(), Vec::new());
        for (s, shard) in cache.shards.iter().enumerate() {
            let mut st: Option<MutexGuard<'_, ShardState<K, V>>> = None;
            for (&i, _) in todo.iter().zip(&shard_of).filter(|&(_, &at)| at == s) {
                let st = st.get_or_insert_with(|| lock_recover(&shard.state));
                match st.map.get_mut(&self.keys[i]) {
                    Some(Entry::Resident { value, warm, .. }) => {
                        *warm = true; // Cooling -> Warm (and Warm stays Warm)
                        self.values[i] = Some(value.clone());
                    }
                    Some(Entry::Loading) => elsewhere.push(i),
                    None => {
                        st.map.insert(self.keys[i].clone(), Entry::Loading);
                        claimed.push((i, s));
                    }
                }
            }
        }
        cache.hits.fetch_add((todo.len() - claimed.len() - elsewhere.len()) as u64, Relaxed);
        if count_waits {
            cache.waits.fetch_add(elsewhere.len() as u64, Relaxed);
        }
        claimed.sort_unstable();
        elsewhere.sort_unstable();
        if !claimed.is_empty() {
            cache.in_flight.fetch_add(1, Relaxed);
        }
        (self.claimed, self.latched) = claimed.into_iter().unzip();
        self.elsewhere = elsewhere;
    }

    /// Publish the claimed keys' values, in the order
    /// [`keys`](Self::keys) yields them, and wake their waiters: one lock and one wake per touched
    /// shard, each shard's keys inserted in claimed order — the CLOCK ring
    /// and eviction sequence a key-by-key publish would leave.
    pub fn publish(&mut self, loaded: Vec<V>) {
        let n = self.latched.len();
        assert_eq!(loaded.len(), n, "one value per claimed key");
        let cache = self.cache;
        let mut entries = Vec::with_capacity(n);
        for (s, (&i, value)) in self.latched.drain(..).zip(self.claimed.iter().zip(loaded)) {
            let weight = (cache.weigh)(&value);
            let value = Arc::new(value);
            self.values[i] = Some(value.clone());
            entries.push((s, i, value, weight));
        }
        // Stable, so each shard's keys keep their claimed order.
        entries.sort_by_key(|e| e.0);
        let mut entries = entries.into_iter().peekable();
        while let Some(&(s, ..)) = entries.peek() {
            let shard = &cache.shards[s];
            let mut st = lock_recover(&shard.state);
            while let Some((_, i, value, weight)) = entries.next_if(|e| e.0 == s) {
                cache.evict_for(&mut st, weight);
                let key = &self.keys[i];
                st.map.insert(key.clone(), Entry::Resident { value, weight, warm: true });
                st.ring.push(key.clone());
                st.weight += weight;
            }
            drop(st);
            shard.done.notify_all();
        }
        if n > 0 {
            cache.misses.fetch_add(n as u64, Relaxed);
            cache.in_flight.fetch_sub(1, Relaxed);
        }
    }

    /// Resolve the claim and hand its values out to its asks. Keys
    /// loading elsewhere are waited for, and if their leader failed,
    /// claimed again and loaded with `load`, which is handed those keys
    /// and returns their values in that order. Returns per ask its values
    /// in ask order, and whether none of the keys it was first to name
    /// was loaded by this thread — the count an ask-by-ask load in the
    /// same order would report. Call only once everything this thread
    /// latched, in any cache, is published or unlatched; panics if this
    /// claim still holds latches.
    #[allow(clippy::type_complexity)]
    pub fn hand_out<E>(
        mut self,
        mut load: impl FnMut(&[K]) -> Result<Vec<V>, E>,
    ) -> Result<Vec<(Vec<Arc<V>>, bool)>, E> {
        assert!(self.latched.is_empty(), "publish a claim before handing it out");
        let mut loaded = vec![false; self.picks.len()];
        loop {
            for &i in &self.claimed {
                loaded[self.first_ask[i]] = true;
            }
            let Some(&first) = self.elsewhere.first() else { break };
            // Wait for one key led elsewhere to leave the Loading state,
            // then re-classify the rest (most will have landed meanwhile).
            self.cache.wait_loaded(&self.keys[first]);
            let todo = std::mem::take(&mut self.elsewhere);
            self.classify(&todo, false);
            if !self.claimed.is_empty() {
                let keys: Vec<K> = self.claimed.iter().map(|&i| self.keys[i].clone()).collect();
                let values = load(&keys)?;
                self.publish(values);
            }
        }
        let values = std::mem::take(&mut self.values);
        let values = values.into_iter().map(|v| v.expect("every key resolved")).collect();
        let shared = share(values, &self.picks);
        Ok(shared.into_iter().zip(loaded).map(|(v, loaded)| (v, !loaded)).collect())
    }
}

impl<K: Hash + Eq + Clone, V> Drop for Claim<'_, K, V> {
    fn drop(&mut self) {
        if self.latched.is_empty() {
            return;
        }
        self.cache.failed_loads.fetch_add(1, Relaxed);
        self.cache.in_flight.fetch_sub(1, Relaxed);
        for (&i, &s) in self.claimed.iter().zip(&self.latched) {
            let (key, shard) = (&self.keys[i], &self.cache.shards[s]);
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

/// Share the resolved `values` — one per distinct key of a claim — out
/// to its asks: `picks[a]` lists ask `a`'s keys (each once) as positions
/// in `values`, and ask `a` gets their values in that order. Each value
/// moves to the last ask naming it and is cloned for the earlier ones, so
/// a key only one ask names costs no reference count. The keys are the
/// asks' own, deduplicated in the order the asks name them, so a lone
/// ask that names each key once picks `0..values.len()`; one naming a key
/// twice panics like any other.
fn share<V>(values: Vec<Arc<V>>, picks: &[Vec<usize>]) -> Vec<Vec<Arc<V>>> {
    if picks.len() == 1 && picks[0].len() == values.len() {
        return vec![values];
    }
    let mut last = vec![0; values.len()];
    for (a, pick) in picks.iter().enumerate() {
        for &i in pick {
            last[i] = a;
        }
    }
    let mut values: Vec<Option<Arc<V>>> = values.into_iter().map(Some).collect();
    picks
        .iter()
        .enumerate()
        .map(|(a, pick)| {
            pick.iter()
                .map(|&i| {
                    let value = if last[i] == a { values[i].take() } else { values[i].clone() };
                    value.expect("an ask names a key once, and its last ask takes it")
                })
                .collect()
        })
        .collect()
}

/// The hasher of a claim's dedupe map: FxHash's multiply-rotate fold,
/// far cheaper than the default SipHash on the callers' small integer
/// keys. Shard placement keeps the fixed `DefaultHasher`.
#[derive(Default)]
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The cache. `K` is the canonical identity of a materialized object
/// (loads must be deterministic per key); `V` is immutable once published.
pub struct SingleFlightCache<K, V> {
    shards: Vec<CacheShard<K, V>>,
    /// Weight budget per shard (total capacity split evenly).
    shard_capacity: usize,
    /// A value's weight against the budget (approximate bytes).
    weigh: fn(&V) -> usize,
    hits: AtomicU64,
    misses: AtomicU64,
    waits: AtomicU64,
    evictions: AtomicU64,
    failed_loads: AtomicU64,
    in_flight: AtomicU64,
}

impl<K: Hash + Eq + Clone, V> SingleFlightCache<K, V> {
    /// A cache bounded by `capacity_weight` (split over [`CACHE_SHARDS`]),
    /// each value weighing `weigh` of it.
    pub fn new(capacity_weight: usize, weigh: fn(&V) -> usize) -> Self {
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
            weigh,
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

    /// Claim the keys of `asks` — each ask a list of distinct keys: a
    /// ranking iteration's groups, spans or bands — for a load the caller
    /// batches. The asks' keys are deduplicated in the order the asks
    /// first name them, each credited to the first ask naming it, and
    /// classified in one lock pass per shard as resident, *Loading*
    /// elsewhere, or Absent — which this thread then latches. See
    /// [`Claim`] for what the caller owes the latches.
    pub fn claim<A: IntoIterator<Item = K>>(
        &self,
        asks: impl IntoIterator<Item = A>,
    ) -> Claim<'_, K, V> {
        let asks: Vec<Vec<K>> = asks.into_iter().map(|ask| ask.into_iter().collect()).collect();
        let n: usize = asks.iter().map(Vec::len).sum();
        let mut at: HashMap<K, usize, BuildHasherDefault<FoldHasher>> =
            HashMap::with_capacity_and_hasher(n, Default::default());
        let (mut keys, mut first_ask) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let picks = (asks.into_iter().enumerate())
            .map(|(a, ask)| {
                (ask.into_iter())
                    .map(|key| {
                        *at.entry(key).or_insert_with_key(|key| {
                            keys.push(key.clone());
                            first_ask.push(a);
                            keys.len() - 1
                        })
                    })
                    .collect()
            })
            .collect();
        let mut claim = Claim {
            cache: self,
            values: vec![None; keys.len()],
            keys,
            first_ask,
            picks,
            claimed: Vec::new(),
            elsewhere: Vec::new(),
            latched: Vec::new(),
        };
        let all: Vec<usize> = (0..claim.keys.len()).collect();
        claim.classify(&all, true);
        claim
    }

    /// Block while `key` is *Loading* under another thread.
    fn wait_loaded(&self, key: &K) {
        let shard = self.shard(key);
        let mut st = lock_recover(&shard.state);
        while matches!(st.map.get(key), Some(Entry::Loading)) {
            // Bounded wait so a lost notification degrades to a re-check
            // instead of a hang.
            let (guard, _) = shard
                .done
                .wait_timeout(st, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
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
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// A cache whose every value weighs 8.
    fn cache(capacity: usize) -> SingleFlightCache<u64, u64> {
        SingleFlightCache::new(capacity, |_| 8)
    }

    /// The claimed keys of `claim`, in claimed order.
    fn claimed_keys(claim: &Claim<'_, u64, u64>) -> Vec<u64> {
        claim.keys().filter_map(|(&k, claimed)| claimed.then_some(k)).collect()
    }

    /// The path both cut caches take, for one cache, one loader and one
    /// ask: a [`claim`](SingleFlightCache::claim), one `load` of the
    /// claimed keys, their publish, then [`Claim::hand_out`], which waits
    /// on the keys other threads lead and loads those whose leader
    /// failed. The values in request order, and whether no load ran.
    fn fetch<E>(
        c: &SingleFlightCache<u64, u64>,
        keys: &[u64],
        mut load: impl FnMut(&[u64]) -> Result<Vec<u64>, E>,
    ) -> Result<(Vec<Arc<u64>>, bool), E> {
        let mut claim = c.claim([keys.to_vec()]);
        if !claim.claimed.is_empty() {
            // On `Err` the claim drops: unlatch + notify, waiters re-claim.
            claim.publish(load(&claimed_keys(&claim))?);
        }
        let mut asks = claim.hand_out(load)?;
        Ok(asks.pop().expect("one ask"))
    }

    /// A one-key [`fetch`]: the value and whether no load ran.
    fn get_one<E>(
        c: &SingleFlightCache<u64, u64>,
        key: u64,
        load: impl FnOnce() -> Result<u64, E>,
    ) -> Result<(Arc<u64>, bool), E> {
        let mut load = Some(load);
        let (values, hit) =
            fetch(c, &[key], |_| (load.take().expect("one key loads once"))().map(|v| vec![v]))?;
        Ok((values[0].clone(), hit))
    }

    #[test]
    fn miss_then_hit() {
        let c = cache(1024);
        let (value, hit) = get_one::<()>(&c, 7, || Ok(70)).unwrap();
        assert!(!hit);
        assert_eq!(*value, 70);
        let (value, hit) = get_one::<()>(&c, 7, || panic!("must not reload")).unwrap();
        assert!(hit);
        assert_eq!(*value, 70);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn failed_load_leaves_no_entry() {
        let c = cache(1024);
        let r = get_one(&c, 3, || Err::<u64, &str>("boom"));
        assert_eq!(r.err(), Some("boom"));
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats().failed_loads, 1);
        // The key is loadable again — no poisoned latch.
        let (_, hit) = get_one::<()>(&c, 3, || Ok(30)).unwrap();
        assert!(!hit);
        assert_eq!(c.gauges().loading, 0);
    }

    #[test]
    fn eviction_keeps_weight_bounded() {
        // One shard's worth of budget: capacity 8 * CACHE_SHARDS with
        // weight-8 entries means each shard holds at most one entry.
        let c = cache(8 * CACHE_SHARDS);
        for k in 0..64u64 {
            let _ = get_one::<()>(&c, k, || Ok(k)).unwrap();
        }
        let g = c.gauges();
        assert!(g.resident_weight <= c.capacity() as u64, "{g:?}");
        assert!(c.stats().evictions > 0);
    }

    #[test]
    fn clock_prefers_cooling_victims() {
        // Capacity for exactly two weight-1 entries per shard; keys chosen
        // on one shard via probing.
        let c: SingleFlightCache<u64, u64> = SingleFlightCache::new(2 * CACHE_SHARDS, |_| 1);
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
        let _ = get_one::<()>(&c, a, || Ok(a)).unwrap();
        let _ = get_one::<()>(&c, b, || Ok(b)).unwrap();
        // Inserting `x` over budget sweeps: both Warm entries cool, the
        // hand wraps and evicts `a`; `b` is left *Cooling*, `x` Warm.
        let _ = get_one::<()>(&c, x, || Ok(x)).unwrap();
        // Inserting `y` must now take the Cooling `b`, not the Warm `x`.
        let _ = get_one::<()>(&c, y, || Ok(y)).unwrap();
        let (value, _) = get_one::<()>(&c, x, || Ok(999)).unwrap();
        assert_eq!(*value, x, "warm entry must survive the sweep");
        let (value, _) = get_one::<()>(&c, b, || Ok(999)).unwrap();
        assert_eq!(*value, 999, "cooling entry must have been evicted");
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
                    let (value, _) = get_one::<()>(&c, 42, || {
                        loads.fetch_add(1, Relaxed);
                        // Stretch the flight window so peers really wait.
                        std::thread::sleep(Duration::from_millis(30));
                        Ok(420)
                    })
                    .unwrap();
                    assert_eq!(*value, 420);
                });
            }
        });
        assert_eq!(loads.load(Relaxed), 1, "exactly one load across 4 threads");
        let s = c.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 3);
    }

    #[test]
    fn a_claim_loads_the_absent_keys_in_one_call() {
        let c = cache(4096);
        let _ = get_one::<()>(&c, 2, || Ok(20)).unwrap();
        let mut calls = 0;
        let (values, hit) = fetch::<()>(&c, &[1, 2, 3], |claimed| {
            calls += 1;
            // Key 2 is resident: only 1 and 3 are claimed.
            let mut keys = claimed.to_vec();
            keys.sort_unstable();
            assert_eq!(keys, [1, 3]);
            Ok(claimed.iter().map(|&k| k * 10).collect())
        })
        .unwrap();
        assert_eq!(calls, 1);
        assert!(!hit);
        assert_eq!(values.iter().map(|v| **v).collect::<Vec<_>>(), [10, 20, 30]);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 3));
        // Everything resident now: a pure hit, no loader call.
        let (values, hit) = fetch::<()>(&c, &[3, 1], |_| panic!("must not reload")).unwrap();
        assert!(hit);
        assert_eq!(values.iter().map(|v| **v).collect::<Vec<_>>(), [30, 10]);
    }

    #[test]
    fn a_failed_load_unlatches_every_claimed_key() {
        let c = cache(4096);
        let r = fetch(&c, &[1, 2, 3], |_| Err::<Vec<u64>, &str>("boom"));
        assert_eq!(r.err(), Some("boom"));
        assert_eq!(c.len(), 0);
        assert_eq!(c.gauges().loading, 0, "a failed load must leave no latch");
        assert_eq!(c.stats().failed_loads, 1);
        let out = fetch::<()>(&c, &[3, 2, 1], |cl| Ok(cl.iter().map(|_| 7).collect()));
        assert!(!out.unwrap().1);
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
                    let (values, _) = fetch::<()>(&c, &keys, |claimed| {
                        loads.fetch_add(claimed.len() as u64, Relaxed);
                        std::thread::sleep(Duration::from_millis(20));
                        Ok(claimed.iter().map(|&k| k * 10).collect())
                    })
                    .unwrap();
                    for (k, v) in keys.iter().zip(&values) {
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
    fn a_published_claim_makes_its_keys_resident() {
        let c = cache(4096);
        let _ = get_one::<()>(&c, 2, || Ok(20)).unwrap();
        let mut claim = c.claim([[1, 2, 3]]);
        assert_eq!((&claim.claimed[..], &claim.elsewhere[..]), (&[0, 2][..], &[][..]));
        assert_eq!(claim.values[1].as_deref(), Some(&20), "the resident key's value is handed out");
        assert_eq!(c.gauges().loading, 2);
        claim.publish(vec![10, 30]);
        let values: Vec<u64> = claim.values.iter().map(|v| **v.as_ref().unwrap()).collect();
        assert_eq!(values, [10, 20, 30]);
        drop(claim);
        let again = c.claim([[3, 1, 2]]);
        assert!(again.claimed.is_empty() && again.elsewhere.is_empty());
        let s = c.stats();
        assert_eq!((s.misses, s.failed_loads), (3, 0), "{s:?}");
        assert_eq!(c.gauges().loading, 0);
    }

    /// Three asks over keys 1..=4: each ask gets its own values in pick
    /// order, and an ask is a hit iff none of the keys it was first to
    /// name was loaded.
    #[test]
    fn hand_out_shares_values_and_credits_the_first_ask() {
        let c = cache(4096);
        let _ = get_one::<()>(&c, 3, || Ok(30)).unwrap();
        // Asks [1, 2], [2, 3] and [3, 4]: keys 1, 2, 3, 4 first named by
        // asks 0, 0, 1, 2.
        let mut claim = c.claim([[1, 2], [2, 3], [3, 4]]);
        assert_eq!(claim.claimed, [0, 1, 3]);
        claim.publish(vec![10, 20, 40]);
        let out = claim.hand_out::<()>(|_| unreachable!()).unwrap();
        let got: Vec<(Vec<u64>, bool)> =
            out.into_iter().map(|(v, hit)| (v.iter().map(|v| **v).collect(), hit)).collect();
        assert_eq!(got, [(vec![10, 20], false), (vec![20, 30], true), (vec![30, 40], false)]);
    }

    #[test]
    #[should_panic(expected = "an ask names a key once")]
    fn an_ask_naming_a_key_twice_is_refused() {
        let c = cache(4096);
        let mut claim = c.claim([[1, 1]]);
        assert_eq!(c.stats().singleflight_waits, 0, "its own latch is no wait");
        claim.publish(vec![10]);
        let _ = claim.hand_out::<()>(|_| unreachable!());
    }

    #[test]
    fn keys_loading_elsewhere_are_reported_not_waited_on() {
        let c = cache(4096);
        let mut first = c.claim([[1, 2]]);
        // The same thread asks again while holding the latches: a wait
        // would never return, a report does.
        let mut second = c.claim([[2, 3]]);
        assert_eq!((&second.claimed[..], &second.elsewhere[..]), (&[1][..], &[0][..]));
        assert!(second.values[0].is_none());
        first.publish(vec![10, 20]);
        second.publish(vec![30]);
        assert_eq!(c.stats().singleflight_waits, 1);
        assert_eq!((c.len(), c.gauges().loading), (3, 0));
    }

    #[test]
    fn a_dropped_claim_unlatches_and_a_waiter_reclaims() {
        let c = cache(4096);
        let claim = c.claim([[5, 6]]);
        assert_eq!(claim.claimed, [0, 1]);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                // Finds key 5 Loading, waits, then claims and loads it.
                fetch::<()>(&c, &[5], |claimed| Ok(claimed.iter().map(|_| 50).collect())).unwrap()
            });
            std::thread::sleep(Duration::from_millis(20));
            drop(claim);
            let (values, hit) = waiter.join().unwrap();
            assert!(!hit, "the waiter loaded the key itself");
            assert_eq!(*values[0], 50);
        });
        let s = c.stats();
        assert_eq!((s.failed_loads, s.misses), (1, 1), "{s:?}");
        assert_eq!((c.len(), c.gauges().loading, c.loads_in_flight()), (1, 0, 0));
    }

    /// One claim latches a key on every shard, a waiter blocks on each,
    /// and a single publish — one wake per shard — hands every waiter the
    /// published value.
    #[test]
    fn one_publish_wakes_waiters_on_every_shard() {
        let c = cache(4096);
        let mut keys: Vec<u64> = Vec::new();
        for k in 0..1024u64 {
            if keys.iter().all(|&o| c.shard_index(&o) != c.shard_index(&k)) {
                keys.push(k);
            }
        }
        assert_eq!(keys.len(), CACHE_SHARDS, "a key on every shard");
        let mut claim = c.claim([keys.clone()]);
        assert_eq!(claim.claimed.len(), CACHE_SHARDS);
        std::thread::scope(|s| {
            let waiters: Vec<_> = keys
                .iter()
                .map(|&k| {
                    let c = &c;
                    s.spawn(move || {
                        fetch(c, &[k], |_| Err::<Vec<u64>, _>("a waiter loaded")).unwrap()
                    })
                })
                .collect();
            // Every waiter has found its key Loading.
            while c.stats().singleflight_waits < CACHE_SHARDS as u64 {
                std::thread::sleep(Duration::from_millis(1));
            }
            claim.publish(keys.iter().map(|&k| k * 10).collect());
            for (&k, waiter) in keys.iter().zip(waiters) {
                let (values, hit) = waiter.join().unwrap();
                assert!(hit, "key {k} arrived through the publish");
                assert_eq!(*values[0], k * 10);
            }
        });
        let s = c.stats();
        assert_eq!((s.misses, s.failed_loads), (CACHE_SHARDS as u64, 0), "{s:?}");
        assert_eq!((c.len(), c.gauges().loading, c.loads_in_flight()), (CACHE_SHARDS, 0, 0));
    }

    #[test]
    fn clear_empties_residents() {
        let c = cache(4096);
        for k in 0..5u64 {
            let _ = get_one::<()>(&c, k, || Ok(k)).unwrap();
        }
        assert_eq!(c.len(), 5);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.gauges().resident_weight, 0);
        // Reload works.
        let (value, hit) = get_one::<()>(&c, 1, || Ok(11)).unwrap();
        assert!(!hit);
        assert_eq!(*value, 11);
    }

    /// Keys in drawn order, each kept at its first draw.
    fn distinct(keys: Vec<u64>) -> Vec<u64> {
        let mut seen = std::collections::HashSet::new();
        keys.into_iter().filter(|&k| seen.insert(k)).collect()
    }

    /// The loader of the proptest below: key `k`'s value is `10 k`.
    fn tenfold(keys: &[u64]) -> Result<Vec<u64>, ()> {
        Ok(keys.iter().map(|k| k * 10).collect())
    }

    /// The world an ask meets: `resident`'s keys loaded, and `latched`'s
    /// claimed by another, still open, claim.
    fn open_world<'c>(
        c: &'c SingleFlightCache<u64, u64>,
        resident: &[u64],
        latched: &[u64],
    ) -> Claim<'c, u64, u64> {
        fetch(c, &distinct(resident.to_vec()), tenfold).unwrap();
        c.claim([distinct(latched.to_vec())])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One claim over 1-4 asks of up to 12 keys from a 16-key space,
        /// some keys resident and some latched by another open claim that
        /// then publishes or fails: `hand_out` gives each ask its keys'
        /// values in ask order, and each ask's hit flag is the one an
        /// ask-by-ask `claim`/`hand_out` loop in the same order reports
        /// (after the other claim settles: the loop's first wait would
        /// otherwise never return).
        #[test]
        fn hand_out_matches_an_ask_by_ask_loop(
            asks in vec(vec(0..16u64, 0..13).prop_map(distinct), 1..5),
            resident in vec(0..16u64, 0..8),
            latched in vec(0..16u64, 0..8),
            publishes in 0..2u8,
        ) {
            // The other claim publishes its keys, or drops and unlatches them.
            let settle = |mut other: Claim<'_, u64, u64>| {
                if publishes == 1 {
                    other.publish(tenfold(&claimed_keys(&other)).unwrap());
                }
            };
            let batch_cache = cache(1 << 20);
            let other = open_world(&batch_cache, &resident, &latched);
            let mut claim = batch_cache.claim(asks.iter().cloned());
            claim.publish(tenfold(&claimed_keys(&claim)).unwrap());
            settle(other);
            let batch = claim.hand_out(tenfold).unwrap();

            let loop_cache = cache(1 << 20);
            settle(open_world(&loop_cache, &resident, &latched));
            prop_assert_eq!(batch.len(), asks.len());
            for ((values, hit), ask) in batch.iter().zip(&asks) {
                let got: Vec<u64> = values.iter().map(|v| **v).collect();
                prop_assert_eq!(got, tenfold(ask).unwrap());
                prop_assert_eq!(*hit, fetch(&loop_cache, ask, tenfold).unwrap().1);
            }
            prop_assert_eq!(batch_cache.gauges().loading, 0);
        }
    }
}
