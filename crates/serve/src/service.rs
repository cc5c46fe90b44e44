//! The service core: admission control, request coalescing, deadlines,
//! and the shared verdict store, all on the vendored async runtime.
//!
//! A request travels through three gates:
//!
//! 1. **Cache** — a stored entry answers immediately (`cache: hit`).
//! 2. **Coalescing** — if the same canonical key is already being
//!    decided, the request joins that in-flight decision instead of
//!    starting its own (`cache: coalesced`).
//! 3. **Admission** — a new decision only starts while fewer than
//!    `admission` decisions are in flight; past the bound the service
//!    *rejects* with `overloaded` rather than queueing unboundedly.
//!
//! The service's in-flight map is the only record of running decisions;
//! the [`VerdictStore`] is a cache of finished ones. At most one decision
//! runs per canonical key, and `cache: miss` / `decided` count exactly
//! the decisions that ran, because a decision publishes to the store
//! before it leaves the in-flight map and Gate 2 re-peeks the store with
//! the map locked. Locks nest in one order only: `inflight`, then a
//! store shard.
//!
//! Deadlines degrade before they reject: when a *certified* request runs
//! out of time, the service first tries to answer with a cached *plain*
//! verdict for the same key (`degraded: true`); only if none exists does
//! it reject with `deadline`. The in-flight decision keeps running and
//! populates the cache for later requests either way.

use crate::error::ServeError;
use crate::proto::{
    build_graph_bounded, catalog_of, CacheOutcome, ChaosRequest, DecideRequest, OkReply, Reply,
};
use crate::registry::{CachedVerdict, MachineRegistry};
use executor::{block_on, oneshot, timeout, Runtime};
use rustc_hash::FxHashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wam_analysis::{StoreKey, VerdictStore};

/// Tunables for a [`VerdictService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Executor worker threads (decisions run here).
    pub workers: usize,
    /// Admission bound: maximum decisions in flight before rejection.
    pub admission: usize,
    /// Optional store capacity (entries); evicts LRU-ish past it.
    pub store_capacity: Option<usize>,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Largest total node count a request may ask for (cliques are
    /// further bounded by [`crate::proto::MAX_CLIQUE_NODES`]).
    pub max_nodes: u64,
    /// Enable the `--net` chaos backend: the `chaos` op runs registry
    /// machines as real communicating nodes over a simulated faulty
    /// network and cross-validates the emergent verdict. Off by default —
    /// chaos runs are uncached diagnostics that block the transport's
    /// read loop while they run.
    pub net: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            admission: 64,
            store_capacity: None,
            default_deadline: None,
            max_nodes: crate::proto::DEFAULT_MAX_NODES,
            net: false,
        }
    }
}

/// A snapshot of the service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Decide requests accepted into [`ServiceHandle::process`].
    pub received: u64,
    /// Requests answered with a verdict (including degraded ones).
    pub completed: u64,
    /// Requests served straight from a ready cache entry.
    pub cache_hits: u64,
    /// Requests that joined an in-flight decision.
    pub coalesced: u64,
    /// Decisions that ran to completion.
    pub decided: u64,
    /// Decisions that failed (engine or certificate errors).
    pub decide_errors: u64,
    /// Requests rejected by admission control.
    pub rejected_overload: u64,
    /// Requests rejected because their deadline elapsed.
    pub rejected_deadline: u64,
    /// Certified requests degraded to a cached plain verdict to meet
    /// their deadline.
    pub degraded: u64,
    /// Chaos runs completed by the `--net` backend.
    pub chaos_runs: u64,
}

#[derive(Default)]
struct Counters {
    received: AtomicU64,
    completed: AtomicU64,
    cache_hits: AtomicU64,
    coalesced: AtomicU64,
    decided: AtomicU64,
    decide_errors: AtomicU64,
    rejected_overload: AtomicU64,
    rejected_deadline: AtomicU64,
    degraded: AtomicU64,
    chaos_runs: AtomicU64,
}

type Waiters = Vec<oneshot::Sender<Result<CachedVerdict, ServeError>>>;

struct Inner {
    registry: MachineRegistry,
    store: VerdictStore<CachedVerdict>,
    inflight: Mutex<FxHashMap<StoreKey, Waiters>>,
    in_flight_decisions: AtomicUsize,
    config: ServiceConfig,
    stats: Counters,
}

impl Inner {
    fn snapshot(&self) -> ServiceStats {
        let s = &self.stats;
        ServiceStats {
            received: s.received.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            cache_hits: s.cache_hits.load(Ordering::Relaxed),
            coalesced: s.coalesced.load(Ordering::Relaxed),
            decided: s.decided.load(Ordering::Relaxed),
            decide_errors: s.decide_errors.load(Ordering::Relaxed),
            rejected_overload: s.rejected_overload.load(Ordering::Relaxed),
            rejected_deadline: s.rejected_deadline.load(Ordering::Relaxed),
            degraded: s.degraded.load(Ordering::Relaxed),
            chaos_runs: s.chaos_runs.load(Ordering::Relaxed),
        }
    }

    /// Claims an admission permit, or rejects. The count is claimed
    /// optimistically and rolled back on refusal so concurrent claims
    /// never double-admit past the bound.
    fn try_admit(&self) -> Result<(), ServeError> {
        let prev = self.in_flight_decisions.fetch_add(1, Ordering::AcqRel);
        if prev >= self.config.admission {
            self.in_flight_decisions.fetch_sub(1, Ordering::AcqRel);
            self.stats.rejected_overload.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded {
                in_flight: prev,
                capacity: self.config.admission,
            });
        }
        Ok(())
    }

    fn release_permit(&self) {
        self.in_flight_decisions.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The certified-verdict service: a [`MachineRegistry`] behind a shared
/// [`VerdictStore`] on a vendored async [`Runtime`].
///
/// The service owns the runtime; [`handle`](Self::handle) yields a
/// cloneable, `'static` handle for submitting work from transports and
/// clients.
pub struct VerdictService {
    inner: Arc<Inner>,
    runtime: Runtime,
}

impl VerdictService {
    /// Builds a service over `registry` with the given tunables.
    pub fn new(registry: MachineRegistry, config: ServiceConfig) -> Self {
        let store = match config.store_capacity {
            Some(cap) => VerdictStore::with_capacity(cap),
            None => VerdictStore::new(),
        };
        let runtime = Runtime::new(config.workers);
        VerdictService {
            inner: Arc::new(Inner {
                registry,
                store,
                inflight: Mutex::new(FxHashMap::default()),
                in_flight_decisions: AtomicUsize::new(0),
                config,
                stats: Counters::default(),
            }),
            runtime,
        }
    }

    /// The paper catalog behind default tunables.
    pub fn with_paper_catalog(config: ServiceConfig) -> Self {
        VerdictService::new(MachineRegistry::paper_catalog(), config)
    }

    /// A cloneable handle for submitting requests.
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            inner: Arc::clone(&self.inner),
            spawner: self.runtime.handle(),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        self.inner.snapshot()
    }

    /// The shared verdict store (for tests and benchmarks).
    pub fn store(&self) -> &VerdictStore<CachedVerdict> {
        &self.inner.store
    }

    /// The registry this service decides from.
    pub fn registry(&self) -> &MachineRegistry {
        &self.inner.registry
    }

    /// Decides one request synchronously (drives the async path on the
    /// calling thread).
    pub fn process_blocking(&self, req: DecideRequest) -> Reply {
        let handle = self.handle();
        block_on(async move { handle.process(req).await })
    }
}

/// A cloneable, `'static` submission handle for a [`VerdictService`].
#[derive(Clone)]
pub struct ServiceHandle {
    inner: Arc<Inner>,
    spawner: executor::Handle,
}

impl ServiceHandle {
    /// Counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        self.inner.snapshot()
    }

    /// The `stats` reply for a request id.
    pub fn stats_reply(&self, id: Option<u64>) -> Reply {
        Reply::Stats {
            id,
            stats: self.inner.snapshot(),
        }
    }

    /// The `catalog` reply for a request id.
    pub fn catalog_reply(&self, id: Option<u64>) -> Reply {
        Reply::Catalog {
            id,
            machines: catalog_of(&self.inner.registry),
        }
    }

    /// Runs one chaos request against the service's own registry to
    /// completion on the calling thread and packages the cross-validation
    /// as a reply. Chaos runs are uncached diagnostics — deliberately
    /// synchronous (a `(request, seed)` pair replays bit-identically, so
    /// there is nothing to coalesce) and rejected unless the service was
    /// built with [`ServiceConfig::net`].
    pub fn chaos_reply(&self, req: &ChaosRequest) -> Reply {
        let start = Instant::now();
        let result = if self.inner.config.net {
            self.inner
                .registry
                .run_chaos(req, self.inner.config.max_nodes)
        } else {
            Err(ServeError::BadRequest {
                reason: "the chaos op requires the service to run with --net".to_string(),
            })
        };
        match result {
            Ok(mut reply) => {
                reply.micros = start.elapsed().as_micros() as u64;
                self.inner.stats.chaos_runs.fetch_add(1, Ordering::Relaxed);
                Reply::Chaos(reply)
            }
            Err(error) => Reply::Error { id: req.id, error },
        }
    }

    /// Submits a request as a task on the service runtime; the returned
    /// join handle resolves to its reply.
    pub fn submit(&self, req: DecideRequest) -> executor::JoinHandle<Reply> {
        let h = self.clone();
        self.spawner.spawn(async move { h.process(req).await })
    }

    /// Spawns an arbitrary future on the service runtime — transports
    /// use this to pair [`process`](Self::process) with their own reply
    /// routing.
    pub fn submit_raw<F>(&self, future: F) -> executor::JoinHandle<F::Output>
    where
        F: std::future::Future + Send + 'static,
        F::Output: Send + 'static,
    {
        self.spawner.spawn(future)
    }

    /// Decides one request through cache, coalescing, admission, and
    /// deadline handling.
    pub async fn process(&self, req: DecideRequest) -> Reply {
        let start = Instant::now();
        self.inner.stats.received.fetch_add(1, Ordering::Relaxed);
        match self.decide_request(&req, start).await {
            Ok(ok) => {
                self.inner.stats.completed.fetch_add(1, Ordering::Relaxed);
                Reply::Ok(ok)
            }
            Err(error) => Reply::Error { id: req.id, error },
        }
    }

    async fn decide_request(
        &self,
        req: &DecideRequest,
        start: Instant,
    ) -> Result<OkReply, ServeError> {
        let inner = &self.inner;
        let entry = inner
            .registry
            .get(&req.machine)
            .ok_or_else(|| ServeError::UnknownMachine {
                name: req.machine.clone(),
            })?;
        if req.counts.len() != entry.arity() {
            return Err(ServeError::BadRequest {
                reason: format!(
                    "machine {:?} has arity {}, got {} counts",
                    req.machine,
                    entry.arity(),
                    req.counts.len()
                ),
            });
        }
        let graph = build_graph_bounded(&req.family, &req.counts, inner.config.max_nodes)?;
        let deadline = req
            .deadline_ms
            .map(Duration::from_millis)
            .or(inner.config.default_deadline);
        let certified = req.certified;
        let key = StoreKey::new(entry.fingerprint(certified), &graph);
        let plain_key = key.with_fingerprint(entry.fingerprint(false));

        let ok = |result: CachedVerdict, cache: CacheOutcome, degraded: bool| OkReply {
            id: req.id,
            machine: req.machine.clone(),
            result,
            cache,
            degraded,
            micros: start.elapsed().as_micros() as u64,
        };

        let hit = |v: CachedVerdict| {
            inner.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            Ok(ok(v, CacheOutcome::Hit, false))
        };

        // Gate 1: a ready cache entry answers without touching the
        // in-flight map.
        if let Some(v) = inner.store.peek(&key) {
            return hit(v);
        }

        // A deadline that elapsed before any decision work degrades
        // (certified → cached plain verdict) or rejects.
        if deadline.is_some_and(|d| start.elapsed() >= d) {
            return self
                .degrade_or_reject(req, &plain_key, certified, start)
                .map(|v| ok(v.0, v.1, true));
        }

        // Gate 2 and 3: join the in-flight decision for this key, or
        // claim an admission permit and become the decider. The re-peek
        // under the lock turns a decision that published and left the
        // map since Gate 1 into a hit, not a second miss (module docs).
        let (rx, role) = {
            let mut inflight = inner.inflight.lock().unwrap();
            let (tx, rx) = oneshot::channel();
            if let Some(waiters) = inflight.get_mut(&key) {
                waiters.push(tx);
                (rx, CacheOutcome::Coalesced)
            } else if let Some(v) = inner.store.peek(&key) {
                drop(inflight);
                return hit(v);
            } else {
                inner.try_admit()?;
                inflight.insert(key.clone(), vec![tx]);
                (rx, CacheOutcome::Miss)
            }
        };

        if role == CacheOutcome::Coalesced {
            inner.stats.coalesced.fetch_add(1, Ordering::Relaxed);
        } else {
            self.spawn_decision(req.machine.clone(), graph, key.clone(), certified);
        }

        let received = match deadline {
            None => rx.await,
            Some(d) => {
                let remaining = d.saturating_sub(start.elapsed());
                match timeout(remaining, rx).await {
                    Ok(r) => r,
                    Err(_) => {
                        // Out of time while the decision runs; it keeps
                        // running and will fill the cache for others.
                        return self
                            .degrade_or_reject(req, &plain_key, certified, start)
                            .map(|v| ok(v.0, v.1, true));
                    }
                }
            }
        };
        let value = received.map_err(|_| ServeError::Internal {
            reason: "decision task dropped before completing".to_string(),
        })??;
        Ok(ok(value, role, false))
    }

    /// The deadline fallback: certified requests degrade to a cached
    /// plain verdict when one exists; everything else rejects.
    fn degrade_or_reject(
        &self,
        _req: &DecideRequest,
        plain_key: &StoreKey,
        certified: bool,
        start: Instant,
    ) -> Result<(CachedVerdict, CacheOutcome), ServeError> {
        if certified {
            if let Some(v) = self.inner.store.peek(plain_key) {
                self.inner.stats.degraded.fetch_add(1, Ordering::Relaxed);
                return Ok((v, CacheOutcome::Hit));
            }
        }
        self.inner
            .stats
            .rejected_deadline
            .fetch_add(1, Ordering::Relaxed);
        Err(ServeError::DeadlineExceeded {
            elapsed_ms: start.elapsed().as_millis() as u64,
        })
    }

    /// Runs one decision as a task on the runtime, publishes the result
    /// to the store, and fans it out to every coalesced waiter.
    fn spawn_decision(
        &self,
        machine: String,
        graph: wam_graph::Graph,
        key: StoreKey,
        certified: bool,
    ) {
        let inner = Arc::clone(&self.inner);
        // The join handle is dropped deliberately: the task's lifecycle
        // is tracked through the in-flight map and the waiter channels.
        let task = self.spawner.spawn(async move {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                inner
                    .registry
                    .get(&machine)
                    .expect("entry existed when the decision was admitted")
                    .decide(&graph, certified)
            }))
            .unwrap_or_else(|panic| {
                let reason = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "decision panicked".to_string());
                Err(ServeError::Internal { reason })
            });
            // Publish before the waiter list leaves the in-flight map
            // (see Gate 2): late arrivals either see the stored entry or
            // start a fresh decision — never neither. An error caches
            // nothing and leaves the key decidable.
            let outcome = outcome.map(|v| inner.store.insert(&key, v));
            let waiters = inner
                .inflight
                .lock()
                .unwrap()
                .remove(&key)
                .unwrap_or_default();
            inner.release_permit();
            match &outcome {
                Ok(_) => inner.stats.decided.fetch_add(1, Ordering::Relaxed),
                Err(_) => inner.stats.decide_errors.fetch_add(1, Ordering::Relaxed),
            };
            for tx in waiters {
                let _ = tx.send(outcome.clone());
            }
        });
        drop(task);
    }
}
