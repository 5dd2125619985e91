//! The result cache.
//!
//! Every query is a plan, so there is one cache: keys are the canonical
//! plan text plus the exact catalog version of every relation the plan
//! reads, so a cached result can never be served for data it was not
//! computed from: an update installs a new version number and the new key
//! simply misses. Entries referencing a replaced or dropped relation are
//! additionally purged eagerly so dead results do not occupy capacity
//! until eviction reaches them.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::proto::PlanReply;

/// Cache key: the canonical plan text (so formatting variants of the same
/// plan — and a `Divide` request and the plan it spells — share an entry)
/// plus the exact catalog version of every relation the plan reads.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanCacheKey {
    /// Canonical plan text (the parser's round-trip print).
    pub text: String,
    /// `(name, version)` of every relation read, sorted by name.
    pub pins: Vec<(String, u64)>,
}

struct Entry {
    /// The reply a hit serves: `cached`, zero ops, no profile.
    reply: Arc<PlanReply>,
    last_used: u64,
}

struct Inner {
    map: HashMap<PlanCacheKey, Entry>,
    clock: u64,
}

/// A bounded LRU cache of plan results.
pub struct PlanCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl PlanCache {
    /// A cache holding at most `capacity` results (0 disables caching).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                clock: 0,
            }),
            capacity,
        }
    }

    /// Looks up a plan result, refreshing its recency.
    pub fn get(&self, key: &PlanCacheKey) -> Option<Arc<PlanReply>> {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        inner.map.get_mut(key).map(|e| {
            e.last_used = clock;
            e.reply.clone()
        })
    }

    /// Inserts a plan result, evicting the least-recently-used entry
    /// when at capacity.
    pub fn insert(&self, key: PlanCacheKey, reply: Arc<PlanReply>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            if let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&oldest);
            }
        }
        inner.map.insert(
            key,
            Entry {
                reply,
                last_used: clock,
            },
        );
    }

    /// Drops every entry whose plan reads `relation`, whatever version.
    /// Called on catalog updates and drops.
    pub fn invalidate_relation(&self, relation: &str) {
        self.inner
            .lock()
            .map
            .retain(|k, _| k.pins.iter().all(|(name, _)| name != relation));
    }

    /// Current number of cached results.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the cache holds no results.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reldiv_rel::counters::OpSnapshot;
    use reldiv_rel::schema::Field;
    use reldiv_rel::tuple::ints;
    use reldiv_rel::Schema;

    fn key(text: &str, pins: &[(&str, u64)]) -> PlanCacheKey {
        PlanCacheKey {
            text: text.to_owned(),
            pins: pins.iter().map(|(n, v)| ((*n).to_owned(), *v)).collect(),
        }
    }

    fn result(v: i64) -> Arc<PlanReply> {
        Arc::new(PlanReply {
            algorithms: vec![reldiv_core::Algorithm::Naive],
            cached: true,
            micros: 0,
            ops: OpSnapshot::default(),
            relations: Vec::new(),
            schema: Schema::new(vec![Field::int("q")]),
            tuples: Arc::new(vec![ints(&[v])]),
            profile: None,
        })
    }

    #[test]
    fn keys_on_text_and_pins() {
        let c = PlanCache::new(4);
        let k = key("(scan r)", &[("r", 3)]);
        c.insert(k.clone(), result(7));
        assert_eq!(c.get(&k).unwrap().tuples[0], ints(&[7]));
        assert!(
            c.get(&key("(scan r)", &[("r", 4)])).is_none(),
            "a new relation version must miss"
        );
        assert!(
            c.get(&key("(distinct (scan r))", &[("r", 3)])).is_none(),
            "a different plan must miss"
        );
    }

    #[test]
    fn lru_evicts_the_coldest() {
        let c = PlanCache::new(2);
        let k = |v| key("(scan r)", &[("r", v)]);
        c.insert(k(1), result(1));
        c.insert(k(2), result(2));
        c.get(&k(1)); // refresh the first
        c.insert(k(3), result(3)); // evicts version 2
        assert!(c.get(&k(1)).is_some());
        assert!(c.get(&k(2)).is_none());
        assert!(c.get(&k(3)).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn invalidates_any_pinned_relation() {
        let c = PlanCache::new(8);
        c.insert(
            key("(join (on (a a)) (scan r) (scan s))", &[("r", 1), ("s", 1)]),
            result(1),
        );
        c.insert(
            key("(divide (on #0) (scan s) (scan t))", &[("s", 1), ("t", 1)]),
            result(2),
        );
        c.insert(key("(scan t)", &[("t", 1)]), result(3));
        c.invalidate_relation("s");
        assert_eq!(c.len(), 1);
        assert!(c.get(&key("(scan t)", &[("t", 1)])).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = PlanCache::new(0);
        c.insert(key("(scan r)", &[("r", 1)]), result(1));
        assert!(c.get(&key("(scan r)", &[("r", 1)])).is_none());
        assert!(c.is_empty());
    }
}
