//! A sharded, concurrent verdict cache — the `&self` evolution of the old
//! `&mut self` decision memos, built to sit under a multi-worker service.
//!
//! [`VerdictStore`] keys entries by [`StoreKey`]: a system fingerprint
//! paired with the isomorphism class of a [`Family`] graph at a label
//! count, so isomorphic graphs share one entry (exact decisions are
//! invariant under graph isomorphism — see [`crate::crossval`]). From 4
//! nodes up the class is the family and counts themselves, read with no
//! graph built. On 3 nodes the families alias (the star is a line, the
//! clique is the cycle), so there the class is the shape of the tiny
//! graph: a triangle by its sorted labels, a path by its centre label and
//! its sorted end labels. The map is lock-striped into shards, each a
//! mutex-protected hash map, so concurrent lookups for different keys
//! rarely contend.
//!
//! The store holds finished decisions only; it tracks nothing in flight.
//! [`VerdictStore::get_or_insert_with`] is a sequential memo (peek, else
//! decide and [`insert`](VerdictStore::insert)), counting hits and
//! misses. A caller that needs at-most-once decisions under concurrency
//! coalesces on its own side and publishes with `insert`, as `wam-serve`
//! does. With [`VerdictStore::with_capacity`], each shard evicts its
//! least-recently-touched entry once it exceeds `capacity / shards`
//! entries (LRU by access stamp; every `peek`, hit and insert touches).

use crate::crossval::CertifiedDecision;
use rustc_hash::{FxHashMap, FxHasher};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use wam_certify::CertifiedVerdict;
use wam_graph::generators::Family;
use wam_graph::{Graph, LabelCount};

/// The isomorphism class of a key's graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Class {
    /// A family graph on at least 4 nodes. There the counts fix the graph
    /// up to isomorphism and no two families share a graph.
    Family(Family, Box<[u64]>),
    /// A 3-node triangle, by its sorted labels.
    Triangle([u16; 3]),
    /// A 3-node path, by its centre label and its sorted end labels.
    Path(u16, [u16; 2]),
}

impl Class {
    /// The class of a 3-node graph: the triangle or the path its labels
    /// sit on.
    fn of_three(graph: &Graph) -> Class {
        let label = |v| graph.label(v).0;
        if graph.edge_count() == 3 {
            let mut labels = [label(0), label(1), label(2)];
            labels.sort_unstable();
            return Class::Triangle(labels);
        }
        let centre = (0..3)
            .find(|&v| graph.degree(v) == 2)
            .expect("a connected 3-node graph is a path or a triangle");
        let mut ends = [label((centre + 1) % 3), label((centre + 2) % 3)];
        ends.sort_unstable();
        Class::Path(label(centre), ends)
    }
}

/// A precomputed store key: `(system fingerprint, isomorphism class)`.
///
/// Services that route, coalesce and reply by key compute it once and
/// reuse it for every store call.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StoreKey {
    fingerprint: u64,
    class: Class,
}

impl StoreKey {
    /// The key of `family`'s graph over `counts` under the system
    /// identified by `fingerprint` (see [`crate::system_fingerprint`]),
    /// built without the graph from 4 nodes up. Only on 3 nodes do
    /// families alias, so there the key is read from the 3-node graph.
    ///
    /// # Panics
    ///
    /// Panics if `counts` total fewer than 3 nodes.
    pub fn of_family(fingerprint: u64, family: Family, counts: &[u64]) -> StoreKey {
        let total = counts.iter().fold(0u64, |n, &c| n.saturating_add(c));
        let class = if total > 3 {
            Class::Family(family, counts.into())
        } else {
            Class::of_three(&family.labelled(&LabelCount::from_vec(counts.to_vec())))
        };
        StoreKey { fingerprint, class }
    }

    /// The system fingerprint this key was built with.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The same graph class under a different fingerprint — addresses a
    /// sibling namespace (e.g. the plain entry next to a certified one).
    pub fn with_fingerprint(&self, fingerprint: u64) -> StoreKey {
        StoreKey {
            fingerprint,
            class: self.class.clone(),
        }
    }

    fn shard_index(&self, shards: usize) -> usize {
        let mut h = FxHasher::default();
        self.hash(&mut h);
        // High bits: FxHasher mixes them best.
        (h.finish() >> 32) as usize % shards
    }
}

/// One stripe: entries with their last-access stamps (shard-local LRU
/// clock).
#[derive(Debug)]
struct Shard<V> {
    map: FxHashMap<StoreKey, (V, u64)>,
    tick: u64,
}

/// A sharded concurrent cache from [`StoreKey`] to decisions, with
/// optional LRU eviction. See the module docs.
#[derive(Debug)]
pub struct VerdictStore<V> {
    shards: Box<[Mutex<Shard<V>>]>,
    capacity_per_shard: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Shard count: enough stripes that a handful of worker threads rarely
/// collide, small enough to stay cache-friendly.
const DEFAULT_SHARDS: usize = 16;

impl<V> Default for VerdictStore<V> {
    fn default() -> Self {
        VerdictStore::new()
    }
}

impl<V> VerdictStore<V> {
    /// An unbounded store.
    pub fn new() -> VerdictStore<V> {
        VerdictStore {
            shards: (0..DEFAULT_SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        map: FxHashMap::default(),
                        tick: 0,
                    })
                })
                .collect(),
            capacity_per_shard: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A store bounded to roughly `capacity` entries; each shard evicts
    /// its least-recently-touched entry past `ceil(capacity / shards)`.
    pub fn with_capacity(capacity: usize) -> VerdictStore<V> {
        let mut store = VerdictStore::new();
        store.capacity_per_shard = Some(capacity.div_ceil(DEFAULT_SHARDS).max(1));
        store
    }

    fn shard(&self, key: &StoreKey) -> &Mutex<Shard<V>> {
        &self.shards[key.shard_index(self.shards.len())]
    }

    /// Lookups answered from a stored entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that ran the decision closure.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted to hold the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("store shard poisoned").map.len())
            .sum()
    }

    /// Whether no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<V: Clone> VerdictStore<V> {
    /// Returns the value under `key` and refreshes its LRU stamp, without
    /// counting a hit or miss; `None` when absent.
    pub fn peek(&self, key: &StoreKey) -> Option<V> {
        let mut shard = self.shard(key).lock().expect("store shard poisoned");
        shard.tick += 1;
        let now = shard.tick;
        let (value, stamp) = shard.map.get_mut(key)?;
        *stamp = now;
        Some(value.clone())
    }

    /// Publishes `value` under `key` and returns the value now stored: an
    /// entry that is already present is kept and `value` dropped. Past
    /// the capacity bound the shard evicts its least-recently-touched
    /// other entry.
    pub fn insert(&self, key: &StoreKey, value: V) -> V {
        let mut shard = self.shard(key).lock().expect("store shard poisoned");
        shard.tick += 1;
        let now = shard.tick;
        if let Some((kept, stamp)) = shard.map.get_mut(key) {
            *stamp = now;
            return kept.clone();
        }
        shard.map.insert(key.clone(), (value.clone(), now));
        if self
            .capacity_per_shard
            .is_some_and(|cap| shard.map.len() > cap)
        {
            let victim = shard
                .map
                .iter()
                .filter(|(k, _)| *k != key)
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                shard.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        value
    }

    /// The value under `key`, deciding it with `decide` on a miss — a
    /// sequential memo. `decide` runs outside the shard lock and nothing
    /// coalesces: concurrent callers that miss the same key each decide,
    /// and the first to [`insert`](Self::insert) wins.
    pub fn get_or_insert_with(&self, key: &StoreKey, decide: impl FnOnce() -> V) -> V {
        if let Some(value) = self.peek(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return value;
        }
        let value = decide();
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.insert(key, value)
    }
}

impl<C> VerdictStore<CertifiedDecision<C>> {
    /// The memoised certified decision of `decide` on `family`'s graph
    /// over `count`; on a miss the graph is built and handed to `decide`.
    /// The certificate is stored together with that emission graph and
    /// shared (via `Arc`) across all lookups of the isomorphism class.
    pub fn decide_certified(
        &self,
        fingerprint: u64,
        family: Family,
        count: &LabelCount,
        decide: impl FnOnce(&Graph) -> CertifiedVerdict<C>,
    ) -> CertifiedDecision<C> {
        let key = StoreKey::of_family(fingerprint, family, count.as_slice());
        self.get_or_insert_with(&key, || {
            let graph = family.labelled(count);
            let out = decide(&graph);
            CertifiedDecision {
                verdict: out.verdict,
                certificate: Arc::new(out.certificate),
                graph,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossval::system_fingerprint;
    use wam_graph::{Alphabet, GraphBuilder, Label};

    fn key(name: &str, counts: &[u64]) -> StoreKey {
        StoreKey::of_family(system_fingerprint(name), Family::Cycle, counts)
    }

    #[test]
    fn hit_after_miss() {
        let store: VerdictStore<u32> = VerdictStore::new();
        let k = key("a", &[2, 1]);
        assert_eq!(store.get_or_insert_with(&k, || 7), 7);
        assert_eq!(store.get_or_insert_with(&k, || panic!("must hit")), 7);
        assert_eq!(store.hits(), 1);
        assert_eq!(store.misses(), 1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn isomorphic_graphs_share_an_entry() {
        let store: VerdictStore<bool> = VerdictStore::new();
        let fp = system_fingerprint("flood");
        let star = StoreKey::of_family(fp, Family::Star, &[2, 1]);
        let line = StoreKey::of_family(fp, Family::Line, &[2, 1]);
        let a = store.get_or_insert_with(&star, || true);
        let b = store.get_or_insert_with(&line, || panic!("isomorphic graph must hit"));
        assert_eq!(a, b);
        assert_eq!((store.hits(), store.misses()), (1, 1));
    }

    /// Every labelled 3-node graph over 3 labels: the triangle and the
    /// path centred on each node, under all 27 labellings.
    fn three_node_graphs() -> Vec<Graph> {
        let shapes: [&[(usize, usize)]; 4] = [
            &[(0, 1), (1, 2), (0, 2)],
            &[(0, 1), (0, 2)],
            &[(1, 0), (1, 2)],
            &[(2, 0), (2, 1)],
        ];
        let mut out = Vec::new();
        for edges in shapes {
            for code in 0..27u16 {
                let mut b = GraphBuilder::new(Alphabet::anonymous(3));
                for digit in [code % 3, code / 3 % 3, code / 9] {
                    b.node(Label(digit));
                }
                for &(u, v) in edges {
                    b.add_edge(u, v);
                }
                out.push(b.build().unwrap());
            }
        }
        out
    }

    #[test]
    fn three_node_classes_are_isomorphism_classes() {
        let graphs = three_node_graphs();
        let classes: Vec<Class> = graphs.iter().map(Class::of_three).collect();
        let perms = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let isomorphic = |g: &Graph, h: &Graph| {
            perms.iter().any(|p| {
                (0..3).all(|v| g.label(v) == h.label(p[v]))
                    && g.edges().iter().all(|&(u, v)| h.has_edge(p[u], p[v]))
                    && g.edge_count() == h.edge_count()
            })
        };
        for i in 0..graphs.len() {
            for j in 0..i {
                assert_eq!(
                    classes[i] == classes[j],
                    isomorphic(&graphs[i], &graphs[j]),
                    "{:?} {:?} and {:?} {:?}",
                    graphs[i].labels(),
                    graphs[i].edges(),
                    graphs[j].labels(),
                    graphs[j].edges()
                );
            }
        }
        // 10 label multisets on the triangle, 3 × 6 (centre, ends) paths.
        let distinct: std::collections::HashSet<&Class> = classes.iter().collect();
        assert_eq!(distinct.len(), 28);
    }

    #[test]
    fn fingerprints_separate_systems() {
        let store: VerdictStore<bool> = VerdictStore::new();
        let a = store.get_or_insert_with(&key("accept", &[2, 1]), || true);
        let b = store.get_or_insert_with(&key("reject", &[2, 1]), || false);
        assert!(a);
        assert!(!b);
        assert_eq!(store.misses(), 2);
    }

    #[test]
    fn capacity_evicts_least_recently_touched() {
        // Two entries per shard; three keys that land in one shard.
        let store: VerdictStore<u32> = VerdictStore::with_capacity(2 * DEFAULT_SHARDS);
        let shard = key("a", &[2, 1]).shard_index(DEFAULT_SHARDS);
        let mut same_shard = (2..)
            .map(|n| key("a", &[n, 1]))
            .filter(|k| k.shard_index(DEFAULT_SHARDS) == shard);
        let mut next = || same_shard.next().unwrap();
        let (k1, k2, k3) = (next(), next(), next());
        store.get_or_insert_with(&k1, || 1);
        store.get_or_insert_with(&k2, || 2);
        // A peek (the service's cache gate) touches k1, so k2 becomes
        // the LRU victim.
        assert_eq!(store.peek(&k1), Some(1));
        store.get_or_insert_with(&k3, || 3);
        assert_eq!(store.evictions(), 1);
        assert_eq!(store.len(), 2);
        assert_eq!(store.peek(&k1), Some(1));
        assert_eq!(store.peek(&k2), None, "k2 was the LRU entry");
        assert_eq!(store.peek(&k3), Some(3));
    }

    #[test]
    fn insert_keeps_the_entry_already_present() {
        let store: VerdictStore<u32> = VerdictStore::new();
        let k = key("a", &[2, 2]);
        assert_eq!(store.insert(&k, 4), 4);
        assert_eq!(store.insert(&k, 5), 4, "the first published value stays");
        assert_eq!(store.get_or_insert_with(&k, || panic!("must hit")), 4);
        assert_eq!((store.hits(), store.misses(), store.len()), (1, 0, 1));
    }
}
