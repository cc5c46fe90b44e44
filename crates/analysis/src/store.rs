//! A sharded, concurrent verdict store — the `&self` evolution of the old
//! `&mut self` decision memos, built to sit under a multi-worker service.
//!
//! [`VerdictStore`] keys entries by [`StoreKey`]: a system fingerprint
//! paired with the *canonical form* of the communication graph, so
//! isomorphic graphs share one entry (exact decisions are invariant under
//! graph isomorphism — see [`crate::crossval`]). The map is lock-striped
//! into `N` shards, each a mutex-protected hash map, so concurrent
//! lookups for different keys rarely contend.
//!
//! Two properties matter beyond plain caching:
//!
//! * **At-most-once decision per key.** A miss installs a *pending* slot
//!   before running the decision closure outside the shard lock.
//!   Concurrent callers for the same key find the pending slot and wait
//!   on the shard's condvar instead of re-deciding — they *coalesce* onto
//!   the in-flight decision. If the deciding caller panics, a drop guard
//!   removes the pending slot and wakes the waiters, the first of which
//!   becomes the new decider; a decision is therefore never lost and
//!   never duplicated.
//! * **Bounded memory.** With [`VerdictStore::with_capacity`], each shard
//!   evicts its least-recently-touched ready entry once it exceeds
//!   `capacity / shards` entries (LRU by access stamp; pending slots are
//!   never evicted).
//!
//! Hit / miss / coalesced / eviction counts are kept in atomics and
//! partition the lookups: `hits + misses + coalesced` equals the number
//! of [`VerdictStore::get_or_insert_with`] calls that returned. The
//! fallible [`VerdictStore::try_get_or_insert_with`] lets the decision
//! closure abort with an error — nothing is cached, no miss is counted,
//! and the key stays decidable by the next caller.

use crate::crossval::CertifiedDecision;
use rustc_hash::{FxHashMap, FxHasher};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use wam_certify::CertifiedVerdict;
use wam_core::Verdict;
use wam_graph::Graph;

/// The canonical-graph part of a key: colour sequence + canonical edges,
/// as produced by [`wam_graph::canonical_form`].
type GraphKey = (Vec<u16>, Vec<(u32, u32)>);

/// A precomputed store key: `(system fingerprint, canonical graph)`.
///
/// Canonicalisation is the expensive part of a lookup; services that
/// route, coalesce and reply by key compute it once via [`StoreKey::new`]
/// and reuse it for every store call.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StoreKey {
    fingerprint: u64,
    graph: GraphKey,
}

impl StoreKey {
    /// Builds the key for `graph` under the system identified by
    /// `fingerprint` (see [`crate::system_fingerprint`]).
    pub fn new(fingerprint: u64, graph: &Graph) -> StoreKey {
        StoreKey {
            fingerprint,
            graph: wam_graph::canonical_form(graph).key(),
        }
    }

    /// The system fingerprint this key was built with.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The same canonical graph under a different fingerprint — addresses
    /// a sibling namespace (e.g. the plain entry next to a certified one)
    /// without paying for canonicalisation again.
    pub fn with_fingerprint(&self, fingerprint: u64) -> StoreKey {
        StoreKey {
            fingerprint,
            graph: self.graph.clone(),
        }
    }

    fn shard_index(&self, shards: usize) -> usize {
        let mut h = FxHasher::default();
        self.hash(&mut h);
        // High bits: FxHasher mixes them best.
        (h.finish() >> 32) as usize % shards
    }
}

enum Slot<V> {
    /// A finished decision plus its last-access stamp (shard-local LRU).
    Ready { value: V, stamp: u64 },
    /// A decision is in flight; waiters park on the shard condvar.
    Pending,
}

struct ShardState<V> {
    map: FxHashMap<StoreKey, Slot<V>>,
    tick: u64,
}

struct Shard<V> {
    state: Mutex<ShardState<V>>,
    ready: Condvar,
}

impl<V> Shard<V> {
    fn new() -> Shard<V> {
        Shard {
            state: Mutex::new(ShardState {
                map: FxHashMap::default(),
                tick: 0,
            }),
            ready: Condvar::new(),
        }
    }
}

/// Removes the pending slot if the deciding closure unwinds, waking the
/// coalesced waiters so one of them can take over the decision.
struct PendingGuard<'a, V> {
    shard: &'a Shard<V>,
    key: &'a StoreKey,
    armed: bool,
}

impl<V> Drop for PendingGuard<'_, V> {
    fn drop(&mut self) {
        if self.armed {
            let mut state = self.shard.state.lock().unwrap();
            state.map.remove(self.key);
            drop(state);
            self.shard.ready.notify_all();
        }
    }
}

/// A sharded concurrent map from [`StoreKey`] to decisions, with in-flight
/// coalescing and optional LRU-ish eviction. See the module docs.
#[derive(Debug)]
pub struct VerdictStore<V> {
    shards: Box<[Shard<V>]>,
    capacity_per_shard: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
}

impl<V> std::fmt::Debug for Shard<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Shard { .. }")
    }
}

/// Default shard count: enough stripes that a handful of worker threads
/// rarely collide, small enough to stay cache-friendly.
const DEFAULT_SHARDS: usize = 16;

impl<V> Default for VerdictStore<V> {
    fn default() -> Self {
        VerdictStore::new()
    }
}

impl<V> VerdictStore<V> {
    /// An unbounded store with the default shard count.
    pub fn new() -> VerdictStore<V> {
        VerdictStore::with_shards(DEFAULT_SHARDS)
    }

    /// An unbounded store with `shards` stripes (at least one).
    pub fn with_shards(shards: usize) -> VerdictStore<V> {
        VerdictStore {
            shards: (0..shards.max(1)).map(|_| Shard::new()).collect(),
            capacity_per_shard: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A store bounded to roughly `capacity` ready entries across
    /// `shards` stripes; each shard evicts its least-recently-touched
    /// entry past `ceil(capacity / shards)`.
    pub fn with_capacity(shards: usize, capacity: usize) -> VerdictStore<V> {
        let shards = shards.max(1);
        let mut store = VerdictStore::with_shards(shards);
        store.capacity_per_shard = Some(capacity.div_ceil(shards).max(1));
        store
    }

    fn shard(&self, key: &StoreKey) -> &Shard<V> {
        &self.shards[key.shard_index(self.shards.len())]
    }

    /// Lookups answered from a ready entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that ran the decision closure.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lookups that joined an in-flight decision instead of re-deciding.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Ready entries evicted to hold the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Ready entries currently stored (pending slots excluded).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let state = s.state.lock().unwrap();
                state
                    .map
                    .values()
                    .filter(|slot| matches!(slot, Slot::Ready { .. }))
                    .count()
            })
            .sum()
    }

    /// Whether no ready entry is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<V: Clone> VerdictStore<V> {
    /// Returns the ready value under `key` without counting a hit or
    /// miss, or `None` when absent or still in flight.
    pub fn peek(&self, key: &StoreKey) -> Option<V> {
        let shard = self.shard(key);
        let state = shard.state.lock().unwrap();
        match state.map.get(key) {
            Some(Slot::Ready { value, .. }) => Some(value.clone()),
            _ => None,
        }
    }

    /// The value under `key`, deciding it with `decide` on a miss.
    ///
    /// Guarantees at-most-once execution of `decide` per key while the
    /// entry lives: concurrent callers either hit the ready entry or wait
    /// for the in-flight decision (counted as *coalesced*). `decide` runs
    /// outside the shard lock, so decisions for different keys proceed in
    /// parallel even within one shard.
    pub fn get_or_insert_with(&self, key: &StoreKey, decide: impl FnOnce() -> V) -> V {
        match self.try_get_or_insert_with(key, || Ok::<V, std::convert::Infallible>(decide())) {
            Ok(v) => v,
            Err(infallible) => match infallible {},
        }
    }

    /// Fallible [`get_or_insert_with`](Self::get_or_insert_with): on
    /// `Err` nothing is stored, the pending slot is removed, and waiters
    /// are woken so one of them can retry the decision. A caller that
    /// needs at-most-once *successful* decisions can therefore run the
    /// decision itself inside the closure instead of peeking first and
    /// racing the publish.
    pub fn try_get_or_insert_with<E>(
        &self,
        key: &StoreKey,
        decide: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        let shard = self.shard(key);
        let mut state = shard.state.lock().unwrap();
        let mut waited = false;
        loop {
            state.tick += 1;
            let now = state.tick;
            match state.map.get_mut(key) {
                Some(Slot::Ready { value, stamp }) => {
                    *stamp = now;
                    let value = value.clone();
                    if waited {
                        self.coalesced.fetch_add(1, Ordering::Relaxed);
                    } else {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(value);
                }
                Some(Slot::Pending) => {
                    waited = true;
                    state = shard.ready.wait(state).unwrap();
                }
                None => break,
            }
        }
        state.map.insert(key.clone(), Slot::Pending);
        drop(state);

        let mut guard = PendingGuard {
            shard,
            key,
            armed: true,
        };
        // Both an `Err` return and a panic leave the guard armed: the
        // pending slot is removed and the waiters woken, so the key stays
        // decidable and the error never poisons the cache.
        let value = decide()?;
        guard.armed = false;

        let mut state = shard.state.lock().unwrap();
        state.tick += 1;
        let stamp = state.tick;
        state.map.insert(
            key.clone(),
            Slot::Ready {
                value: value.clone(),
                stamp,
            },
        );
        if let Some(cap) = self.capacity_per_shard {
            let ready = state
                .map
                .values()
                .filter(|s| matches!(s, Slot::Ready { .. }))
                .count();
            if ready > cap {
                // Evict the least-recently-touched ready entry that is not
                // the one just inserted.
                let victim = state
                    .map
                    .iter()
                    .filter_map(|(k, s)| match s {
                        Slot::Ready { stamp: st, .. } if k != key => Some((*st, k.clone())),
                        _ => None,
                    })
                    .min_by_key(|(st, _)| *st)
                    .map(|(_, k)| k);
                if let Some(victim) = victim {
                    state.map.remove(&victim);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        drop(state);
        shard.ready.notify_all();
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok(value)
    }
}

impl VerdictStore<Verdict> {
    /// The memoised verdict of `decide` on `graph` for the system
    /// identified by `fingerprint`; `decide` runs only on a miss, at most
    /// once per isomorphism class concurrently.
    pub fn decide(
        &self,
        fingerprint: u64,
        graph: &Graph,
        decide: impl FnOnce(&Graph) -> Verdict,
    ) -> Verdict {
        let key = StoreKey::new(fingerprint, graph);
        self.get_or_insert_with(&key, || decide(graph))
    }
}

impl<C> VerdictStore<CertifiedDecision<C>> {
    /// The memoised certified decision of `decide` on `graph`; the
    /// certificate is stored together with its emission graph and shared
    /// (via `Arc`) across all lookups of the isomorphism class.
    pub fn decide_certified(
        &self,
        fingerprint: u64,
        graph: &Graph,
        decide: impl FnOnce(&Graph) -> CertifiedVerdict<C>,
    ) -> CertifiedDecision<C> {
        let key = StoreKey::new(fingerprint, graph);
        self.get_or_insert_with(&key, || {
            let out = decide(graph);
            CertifiedDecision {
                verdict: out.verdict,
                certificate: Arc::new(out.certificate),
                graph: graph.clone(),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossval::system_fingerprint;
    use std::sync::atomic::AtomicUsize;
    use wam_graph::{generators, LabelCount};

    fn key(name: &str, counts: &[u64]) -> StoreKey {
        let g = generators::labelled_cycle(&LabelCount::from_vec(counts.to_vec()));
        StoreKey::new(system_fingerprint(name), &g)
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
        let store: VerdictStore<Verdict> = VerdictStore::new();
        let c = LabelCount::from_vec(vec![2, 1]);
        let star = generators::labelled_star(&c);
        let line = generators::labelled_line(&c);
        assert_ne!(star.edges(), line.edges());
        let fp = system_fingerprint("flood");
        let a = store.decide(fp, &star, |_| Verdict::Accepts);
        let b = store.decide(fp, &line, |_| panic!("isomorphic graph must hit"));
        assert_eq!(a, b);
        assert_eq!((store.hits(), store.misses()), (1, 1));
    }

    #[test]
    fn large_star_and_its_relabelling_share_a_key() {
        // |Aut| = 60! · 39!, far past any enumeration cap: the key must
        // come from the twin quotient, not the identity fallback.
        let star = generators::labelled_star(&LabelCount::from_vec(vec![60, 40]));
        let n = star.node_count();
        assert_eq!(n, 100);
        let mut b = wam_graph::GraphBuilder::new(star.alphabet().clone());
        for v in (0..n).rev() {
            b.node(star.label(v));
        }
        for &(u, v) in star.edges() {
            b.add_edge(n - 1 - u, n - 1 - v);
        }
        let reversed = b.build().unwrap();
        assert_ne!(star.labels(), reversed.labels());
        let fp = system_fingerprint("flood");
        assert_eq!(StoreKey::new(fp, &star), StoreKey::new(fp, &reversed));
        let other = generators::labelled_star(&LabelCount::from_vec(vec![59, 41]));
        assert_ne!(StoreKey::new(fp, &star), StoreKey::new(fp, &other));
    }

    #[test]
    fn fingerprints_separate_systems() {
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![2, 1]));
        let store: VerdictStore<Verdict> = VerdictStore::new();
        let a = store.decide(system_fingerprint("accept"), &g, |_| Verdict::Accepts);
        let b = store.decide(system_fingerprint("reject"), &g, |_| Verdict::Rejects);
        assert_eq!(a, Verdict::Accepts);
        assert_eq!(b, Verdict::Rejects);
        assert_eq!(store.misses(), 2);
    }

    #[test]
    fn capacity_evicts_least_recently_touched() {
        let store: VerdictStore<u32> = VerdictStore::with_capacity(1, 2);
        let k1 = key("a", &[2, 1]);
        let k2 = key("a", &[3, 1]);
        let k3 = key("a", &[4, 1]);
        store.get_or_insert_with(&k1, || 1);
        store.get_or_insert_with(&k2, || 2);
        // Touch k1 so k2 becomes the LRU victim.
        store.get_or_insert_with(&k1, || panic!("hit"));
        store.get_or_insert_with(&k3, || 3);
        assert_eq!(store.evictions(), 1);
        assert_eq!(store.len(), 2);
        assert_eq!(store.peek(&k1), Some(1));
        assert_eq!(store.peek(&k2), None, "k2 was the LRU entry");
        assert_eq!(store.peek(&k3), Some(3));
    }

    #[test]
    fn concurrent_same_key_decides_once() {
        let store: Arc<VerdictStore<u32>> = Arc::new(VerdictStore::new());
        let decided = Arc::new(AtomicUsize::new(0));
        let k = key("a", &[2, 2]);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let store = Arc::clone(&store);
                let decided = Arc::clone(&decided);
                let k = k.clone();
                std::thread::spawn(move || {
                    store.get_or_insert_with(&k, || {
                        decided.fetch_add(1, Ordering::SeqCst);
                        // Widen the in-flight window so others coalesce.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        11
                    })
                })
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().unwrap(), 11);
        }
        assert_eq!(decided.load(Ordering::SeqCst), 1, "decided more than once");
        assert_eq!(store.misses(), 1);
        assert_eq!(store.hits() + store.coalesced(), 7);
    }

    #[test]
    fn failed_decision_leaves_the_key_decidable() {
        let store: VerdictStore<u32> = VerdictStore::new();
        let k = key("a", &[4, 2]);
        let err = store.try_get_or_insert_with(&k, || Err::<u32, &str>("engine exploded"));
        assert_eq!(err, Err("engine exploded"));
        assert_eq!(store.peek(&k), None, "errors must not populate the cache");
        assert_eq!(store.misses(), 0, "a failed decision is not a miss");
        // The pending slot is gone: a later call decides fresh.
        assert_eq!(
            store.try_get_or_insert_with(&k, || Ok::<u32, &str>(9)),
            Ok(9)
        );
        assert_eq!(store.peek(&k), Some(9));
        assert_eq!(store.misses(), 1);
    }

    #[test]
    fn failed_decision_wakes_coalesced_waiters() {
        let store: Arc<VerdictStore<u32>> = Arc::new(VerdictStore::new());
        let k = key("a", &[5, 2]);
        let (claimed, on_claim) = std::sync::mpsc::channel();
        let failer = {
            let store = Arc::clone(&store);
            let k = k.clone();
            std::thread::spawn(move || {
                store.try_get_or_insert_with(&k, || {
                    // The key is claimed once the closure runs: release the
                    // waiter, then hold the claim so it parks. Should it
                    // arrive after the failure, it decides fresh and the
                    // assertions hold all the same.
                    claimed.send(()).unwrap();
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    Err::<u32, &str>("nope")
                })
            })
        };
        on_claim.recv().unwrap();
        let v = store.get_or_insert_with(&k, || 6);
        assert_eq!(failer.join().unwrap(), Err("nope"));
        assert_eq!(v, 6, "a waiter must take over after the error");
    }

    #[test]
    fn panicking_decision_hands_over_to_a_waiter() {
        let store: Arc<VerdictStore<u32>> = Arc::new(VerdictStore::new());
        let k = key("a", &[3, 2]);
        let (claimed, on_claim) = std::sync::mpsc::channel();
        let poisoner = {
            let store = Arc::clone(&store);
            let k = k.clone();
            std::thread::spawn(move || {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    store.get_or_insert_with(&k, || {
                        claimed.send(()).unwrap();
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        panic!("decision failed")
                    })
                }));
            })
        };
        on_claim.recv().unwrap();
        let v = store.get_or_insert_with(&k, || 5);
        poisoner.join().unwrap();
        assert_eq!(v, 5, "a waiter must take over after the panic");
    }
}
