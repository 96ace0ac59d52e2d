//! Sharded, capacity-bounded plan cache with clock (second-chance)
//! eviction.
//!
//! Keys are the *canonical* instance encodings from
//! [`aqo_core::fingerprint`] (plus the request knobs that change the
//! answer, e.g. `allow_cartesian`); the 64-bit FNV-1a fingerprint of the
//! key routes to a shard and serves as a cheap first-level compare. A
//! lookup only hits when the **full key string** matches, so a fingerprint
//! collision can cost a miss but can never return a plan for a different
//! instance — the invariant the interleaving model test
//! (`tests/model_cache.rs`) checks against every 2-thread schedule of the
//! lookup/insert protocol.
//!
//! Both `lookup` and `insert` hold the owning shard's mutex for their
//! whole critical section: the compare *and* the value copy happen under
//! the same lock acquisition. The model test also demonstrates why — a
//! split protocol that matches under the lock but copies the value after
//! releasing it serves the wrong plan once a concurrent insert evicts the
//! matched slot.
//!
//! Only **exact** plans are inserted (the engine enforces this): an exact
//! plan is canonical for its key regardless of which request produced it,
//! so a hit can answer any later request for the same key, whatever that
//! request's budget or chain was.

use aqo_obs::json::JsonValue;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// A cached, fully materialized plan.
#[derive(Clone, Debug, PartialEq)]
pub struct CachedPlan {
    /// The tier/algorithm that produced the plan.
    pub tier: String,
    /// Whether the plan is exact. The engine only inserts exact plans;
    /// the field is kept so a reply can echo it without re-deriving.
    pub exact: bool,
    /// The join sequence (or clique members).
    pub order: Vec<usize>,
    /// Exact cost rendered as a string.
    pub cost: String,
    /// `log2` of the cost.
    pub cost_log2: f64,
    /// QO_H pipeline fragments, if the problem has a decomposition.
    pub decomposition: Option<Vec<(usize, usize)>>,
}

impl CachedPlan {
    /// Reads the plan fields of a JSON object: a snapshot entry, a reply
    /// document, a workload baseline or a journal `serve_response` event.
    /// Index lists are JSON arrays, or in journal events (whose values
    /// carry no arrays) comma-joined strings: `"2,0,1"`, `"1-1,2-3"`.
    pub fn from_fields(doc: &JsonValue) -> Result<CachedPlan, String> {
        let field = |key: &str| doc.get(key).ok_or_else(|| format!("no `{key}`"));
        let text = |key: &str| {
            field(key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("`{key}` must be a string"))
        };
        let order = match field("order")? {
            JsonValue::Str(s) => split_list(s, |t| t.parse().ok()),
            v => v.as_arr().and_then(|items| items.iter().map(index).collect()),
        }
        .ok_or("bad `order` element")?;
        let fragments = |v: &JsonValue| match v {
            JsonValue::Str(s) => split_list(s, |t| {
                let (lo, hi) = t.split_once('-')?;
                Some((lo.parse().ok()?, hi.parse().ok()?))
            }),
            v => v.as_arr().and_then(|pairs| {
                pairs
                    .iter()
                    .map(|pair| match pair.as_arr()? {
                        [lo, hi] => Some((index(lo)?, index(hi)?)),
                        _ => None,
                    })
                    .collect()
            }),
        };
        let decomposition = match doc.get("decomposition") {
            None | Some(JsonValue::Null) => None,
            Some(v) => Some(fragments(v).ok_or("bad `decomposition` element")?),
        };
        Ok(CachedPlan {
            tier: text("tier")?,
            exact: matches!(doc.get("exact"), Some(JsonValue::Bool(true))),
            order,
            cost: text("cost")?,
            cost_log2: field("cost_log2")?.as_num().ok_or("`cost_log2` must be a number")?,
            decomposition,
        })
    }
}

fn index(v: &JsonValue) -> Option<usize> {
    v.as_u64().and_then(|n| usize::try_from(n).ok())
}

fn split_list<T>(s: &str, item: impl Fn(&str) -> Option<T>) -> Option<Vec<T>> {
    s.split(',').filter(|t| !t.is_empty()).map(item).collect()
}

/// Appends a join order as a JSON array: `[2, 0, 1]`.
pub fn write_order(out: &mut String, order: &[usize]) {
    out.push('[');
    for (i, v) in order.iter().enumerate() {
        let _ = write!(out, "{}{v}", if i > 0 { ", " } else { "" });
    }
    out.push(']');
}

/// Appends QO_H pipeline fragments as a JSON array of pairs:
/// `[[1, 1], [2, 3]]`.
pub fn write_fragments(out: &mut String, frags: &[(usize, usize)]) {
    out.push('[');
    for (i, (lo, hi)) in frags.iter().enumerate() {
        let _ = write!(out, "{}[{lo}, {hi}]", if i > 0 { ", " } else { "" });
    }
    out.push(']');
}

/// One occupied cache slot.
struct Slot {
    hash: u64,
    key: String,
    value: CachedPlan,
    /// Second-chance bit: set on hit, cleared as the clock hand sweeps by.
    referenced: bool,
}

struct Shard {
    slots: Vec<Slot>,
    /// Clock hand for eviction; always `< slots.len()` when non-empty.
    hand: usize,
    capacity: usize,
}

impl Shard {
    fn lookup(&mut self, hash: u64, key: &str) -> Option<CachedPlan> {
        // Fingerprint first (cheap), full key second (correctness): a
        // colliding fingerprint with a different key falls through to a
        // miss instead of returning a foreign plan.
        let slot = self.slots.iter_mut().find(|s| s.hash == hash && s.key == key)?;
        slot.referenced = true;
        Some(slot.value.clone())
    }

    fn insert(&mut self, hash: u64, key: String, value: CachedPlan) -> bool {
        if let Some(slot) = self.slots.iter_mut().find(|s| s.hash == hash && s.key == key) {
            slot.value = value;
            slot.referenced = true;
            return false;
        }
        let slot = Slot { hash, key, value, referenced: true };
        if self.slots.len() < self.capacity {
            self.slots.push(slot);
            return false;
        }
        // Clock eviction: sweep, clearing second-chance bits, until an
        // unreferenced victim is found. Terminates within two sweeps.
        loop {
            if self.slots[self.hand].referenced {
                self.slots[self.hand].referenced = false;
                self.hand = (self.hand + 1) % self.slots.len();
            } else {
                self.slots[self.hand] = slot;
                self.hand = (self.hand + 1) % self.slots.len();
                return true;
            }
        }
    }
}

/// Live counters of a [`PlanCache`] (also mirrored to `aqo-obs` when
/// collection is enabled).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a plan.
    pub hits: u64,
    /// Lookups that found nothing (or the cache is disabled).
    pub misses: u64,
    /// Plans inserted (including replacements of an existing key).
    pub inserts: u64,
    /// Slots evicted by the clock hand.
    pub evictions: u64,
    /// Plans currently cached, summed over shards.
    pub len: usize,
    /// Total capacity (0 = disabled).
    pub capacity: usize,
}

/// The sharded plan cache. See the module docs for the protocol invariant.
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

/// Shards are a contention knob, not a correctness one; more than 8 buys
/// nothing at CLI-scale concurrency.
const MAX_SHARDS: usize = 8;

impl PlanCache {
    /// A cache holding at most `capacity` plans (0 disables caching:
    /// every lookup misses and inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        let shard_count = capacity.clamp(1, MAX_SHARDS);
        let per_shard = capacity.div_ceil(shard_count);
        PlanCache {
            shards: (0..shard_count)
                .map(|_| Mutex::new(Shard { slots: Vec::new(), hand: 0, capacity: per_shard }))
                .collect(),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, hash: u64) -> std::sync::MutexGuard<'_, Shard> {
        // A panic cannot occur inside the critical sections below (no
        // user code runs under the lock), but a poisoned lock must not
        // take the whole service down with it.
        self.shards[(hash % self.shards.len() as u64) as usize]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `key` (pre-hashed as `hash`). The compare-and-copy is one
    /// critical section under the shard lock.
    pub fn lookup(&self, hash: u64, key: &str) -> Option<CachedPlan> {
        let found = if self.capacity == 0 { None } else { self.shard(hash).lookup(hash, key) };
        // ordering: Relaxed — independent statistics counters; no other
        // memory is published through them.
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed), // ordering: stats only
            None => self.misses.fetch_add(1, Ordering::Relaxed), // ordering: stats only
        };
        if aqo_obs::enabled() {
            match &found {
                Some(_) => aqo_obs::counter_handle!("serve.cache.hits").inc(),
                None => aqo_obs::counter_handle!("serve.cache.misses").inc(),
            }
        }
        found
    }

    /// Inserts (or replaces) `key → value`, evicting via the clock hand
    /// when the owning shard is full.
    pub fn insert(&self, hash: u64, key: String, value: CachedPlan) {
        if self.capacity == 0 {
            return;
        }
        let evicted = self.shard(hash).insert(hash, key, value);
        // ordering: Relaxed — independent statistics counters; no other
        // memory is published through them.
        self.inserts.fetch_add(1, Ordering::Relaxed);
        if aqo_obs::enabled() {
            aqo_obs::counter_handle!("serve.cache.inserts").inc();
        }
        if evicted {
            // ordering: Relaxed — statistics counter, as above.
            self.evictions.fetch_add(1, Ordering::Relaxed);
            if aqo_obs::enabled() {
                aqo_obs::counter_handle!("serve.cache.evictions").inc();
            }
        }
    }

    /// Plans currently cached.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).slots.len())
            .sum()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies every cached `(key, plan)` pair out, shard by shard (each
    /// shard's lock is held only for its own copy). Used by the snapshot
    /// writer; concurrent inserts during the walk may or may not appear,
    /// which is fine for a best-effort warm-start file.
    pub fn export(&self) -> Vec<(String, CachedPlan)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            out.extend(shard.slots.iter().map(|s| (s.key.clone(), s.value.clone())));
        }
        out
    }

    /// Snapshot of the live counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            // ordering: Relaxed — statistics snapshot; tearing between
            // counters is acceptable and no memory is synchronized here.
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed), // ordering: stats snapshot
            inserts: self.inserts.load(Ordering::Relaxed), // ordering: stats snapshot
            evictions: self.evictions.load(Ordering::Relaxed), // ordering: stats snapshot
            len: self.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqo_core::fingerprint::fnv1a;

    fn plan(tag: &str) -> CachedPlan {
        CachedPlan {
            tier: "dp".into(),
            exact: true,
            order: vec![0, 1],
            cost: tag.into(),
            cost_log2: 1.0,
            decomposition: None,
        }
    }

    fn key(i: usize) -> (u64, String) {
        let k = format!("qon key-{i}");
        (fnv1a(k.as_bytes()), k)
    }

    #[test]
    fn lookup_returns_only_exact_key_matches() {
        let cache = PlanCache::new(8);
        let (h, k) = key(1);
        cache.insert(h, k.clone(), plan("a"));
        assert_eq!(cache.lookup(h, &k).unwrap().cost, "a");
        // Same hash, different key: must miss, never return `a`.
        assert!(cache.lookup(h, "qon other-key").is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.len), (1, 1, 1, 1));
    }

    #[test]
    fn replacement_updates_in_place() {
        let cache = PlanCache::new(4);
        let (h, k) = key(1);
        cache.insert(h, k.clone(), plan("old"));
        cache.insert(h, k.clone(), plan("new"));
        assert_eq!(cache.lookup(h, &k).unwrap().cost, "new");
        assert_eq!(cache.stats().len, 1);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn clock_eviction_bounds_capacity_and_favors_referenced_slots() {
        // Single shard of capacity 2 so the clock behavior is forced.
        let cache = PlanCache::new(1);
        assert_eq!(cache.shards.len(), 1);
        // Per-shard capacity is ceil(1/1) = 1: the second insert evicts.
        let (h1, k1) = key(1);
        let (h2, k2) = key(2);
        cache.insert(h1, k1.clone(), plan("a"));
        cache.insert(h2, k2.clone(), plan("b"));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().len, 1);
        assert!(cache.lookup(h1, &k1).is_none());
        assert_eq!(cache.lookup(h2, &k2).unwrap().cost, "b");
    }

    #[test]
    fn second_chance_bit_protects_referenced_plans() {
        // Capacity 16 → 8 shards × 2 slots; steer four keys into one
        // shard so the clock behavior inside a 2-slot shard is forced.
        let cache = PlanCache::new(16);
        let shard_count = cache.shards.len() as u64;
        let mut same_shard = Vec::new();
        for i in 0.. {
            let (h, k) = key(i);
            if h % shard_count == 0 {
                same_shard.push((h, k));
                if same_shard.len() == 4 {
                    break;
                }
            }
        }
        let [(h1, k1), (h2, k2), (h3, k3), (h4, k4)] =
            <[(u64, String); 4]>::try_from(same_shard).unwrap();
        cache.insert(h1, k1.clone(), plan("a"));
        cache.insert(h2, k2.clone(), plan("b"));
        // Overflow: the sweep clears both second-chance bits and evicts
        // the slot the hand settles on (k1); k3 lands referenced.
        cache.insert(h3, k3.clone(), plan("c"));
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup(h3, &k3).is_some());
        // Shard now holds k3 (referenced) and k2 (bit cleared by the
        // sweep). The next overflow must evict unreferenced k2 and spare
        // referenced k3.
        cache.insert(h4, k4.clone(), plan("d"));
        assert_eq!(cache.stats().evictions, 2);
        assert!(cache.lookup(h3, &k3).is_some(), "referenced plan was evicted");
        assert!(cache.lookup(h2, &k2).is_none(), "unreferenced plan was spared");
        assert!(cache.lookup(h4, &k4).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = PlanCache::new(0);
        let (h, k) = key(1);
        cache.insert(h, k.clone(), plan("a"));
        assert!(cache.lookup(h, &k).is_none());
        assert_eq!(cache.stats().len, 0);
        assert_eq!(cache.stats().inserts, 0);
        assert_eq!(cache.stats().misses, 1);
    }
}
