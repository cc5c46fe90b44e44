//! The service core: admission control, request coalescing, deadlines,
//! and the shared verdict store, on a fixed pool of `std` worker threads.
//!
//! A request passes three gates on the thread that submits it (the
//! transport's read loop, or the caller of [`ServiceHandle::submit`]),
//! which never blocks to wait for a decision:
//!
//! 1. **Cache** — a stored entry answers immediately (`cache: hit`).
//! 2. **Coalescing** — if the same key is already being decided, the
//!    request parks its reply sink on that in-flight decision's waiter
//!    list (`cache: coalesced`).
//! 3. **Admission** — a new decision only starts while fewer than
//!    `admission` decisions are in flight; past the bound the service
//!    *rejects* with `overloaded` on arrival rather than queueing
//!    unboundedly. An admitted decision queues for the workers, so the
//!    bound counts queued and running decisions alike.
//!
//! The gates build no graph from 4 nodes up: the key is the request's
//! family and counts ([`StoreKey::of_family`]; a 3-node request is keyed
//! by the shape of its graph), and the bounds are checked on the counts.
//! Workers run decisions only, each building its own graph. `received`
//! counts the requests that reached the gates.
//!
//! The service's in-flight map is the only record of running decisions;
//! the [`VerdictStore`] is a cache of finished ones. At most one decision
//! runs per key, and `cache: miss` / `decided` count exactly
//! the decisions that ran, because a decision publishes to the store
//! before it takes its waiter list out of the in-flight map and Gate 2
//! re-peeks the store with the map locked. Locks nest in one order only:
//! `inflight`, then a store shard.
//!
//! Deadlines run from arrival and degrade before they reject: when a
//! *certified* request runs out of time, the service first tries to
//! answer with a cached *plain* verdict for the same key (`degraded:
//! true`); only if none exists does it reject with `deadline`. One timer thread, started by the first
//! request that carries a deadline, takes an expired waiter out of its
//! list under the `inflight` lock, so a waiter is answered exactly once:
//! by the timer or by the decision's fan-out. The decision keeps running
//! and populates the cache for later requests either way.

use crate::error::ServeError;
use crate::proto::{catalog_of, CacheOutcome, ChaosRequest, DecideRequest, OkReply, Reply};
use crate::registry::{CachedVerdict, MachineRegistry};
use crate::transport::Output;
use rustc_hash::FxHashMap;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::thread;
use std::time::{Duration, Instant};
use wam_analysis::{StoreKey, VerdictStore};
use wam_graph::generators::Family;
use wam_graph::LabelCount;

/// Tunables for a [`VerdictService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Decision worker threads: each runs one admitted decision at a time.
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
    /// Decide requests that reached the gates.
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

/// Where the reply to a parked request goes.
pub(crate) enum Sink {
    /// [`ServiceHandle::submit`]'s receiver.
    Caller(Sender<Reply>),
    /// The transport's shared output, which the answering thread writes.
    Output(Arc<Output>),
}

/// An admitted decision; its waiters are on `inflight[key]`.
struct Job {
    machine: String,
    family: Family,
    counts: Vec<u64>,
    key: StoreKey,
    certified: bool,
}

/// The job queue the workers share. A mutex-guarded deque with a condvar
/// wakes one worker per job; `open` turns false, under the lock, once the
/// service is dropped.
struct Queue {
    jobs: Mutex<VecDeque<Job>>,
    open: AtomicBool,
    ready: Condvar,
}

impl Queue {
    /// Queues a job, or hands it back once the queue is
    /// [closed](Self::close).
    fn push(&self, job: Job) -> Option<Job> {
        {
            let mut jobs = self.jobs.lock().unwrap();
            if !self.is_open() {
                return Some(job);
            }
            jobs.push_back(job);
        }
        // Notified after the unlock, so the woken worker does not block
        // on the lock it is about to take.
        self.ready.notify_one();
        None
    }

    /// The next job, waiting for one; `None` once the queue is closed.
    fn pop(&self) -> Option<Job> {
        let mut jobs = self.jobs.lock().unwrap();
        while self.is_open() {
            if let Some(job) = jobs.pop_front() {
                return Some(job);
            }
            jobs = self.ready.wait(jobs).unwrap();
        }
        None
    }

    fn is_open(&self) -> bool {
        self.open.load(Ordering::Acquire)
    }

    /// Stops the workers and returns the jobs nobody has taken up.
    fn close(&self) -> VecDeque<Job> {
        let mut jobs = self.jobs.lock().unwrap();
        self.open.store(false, Ordering::Release);
        self.ready.notify_all();
        std::mem::take(&mut *jobs)
    }
}

/// A reply's destination and the fields it echoes.
struct ReplyTo {
    id: Option<u64>,
    machine: String,
    start: Instant,
    sink: Sink,
}

/// A verdict, how the cache answered and whether it was degraded.
type Answer = (CachedVerdict, CacheOutcome, bool);

/// An answer, or why there is none.
type Outcome = Result<Answer, ServeError>;

impl ReplyTo {
    fn reply(self, stats: &Counters, outcome: Outcome) -> (Reply, Sink) {
        let reply = match outcome {
            Ok((result, cache, degraded)) => {
                stats.completed.fetch_add(1, Ordering::Relaxed);
                Reply::Ok(OkReply {
                    id: self.id,
                    machine: self.machine,
                    result,
                    cache,
                    degraded,
                    micros: self.start.elapsed().as_micros() as u64,
                })
            }
            Err(error) => Reply::Error { id: self.id, error },
        };
        (reply, self.sink)
    }

    fn send(self, stats: &Counters, outcome: Outcome) {
        match self.reply(stats, outcome) {
            // A caller that went away needs no reply.
            (reply, Sink::Caller(tx)) => drop(tx.send(reply)),
            (reply, Sink::Output(out)) => out.send(&reply),
        }
    }
}

/// A request parked on an in-flight decision.
struct Waiter {
    /// Names this waiter to the timer thread.
    token: u64,
    /// `Miss` for the request that runs the decision, else `Coalesced`.
    cache: CacheOutcome,
    to: ReplyTo,
}

/// A waiter's deadline, as the timer thread holds it.
struct Timed {
    at: Instant,
    token: u64,
    key: StoreKey,
    /// The plain entry a certified waiter degrades to.
    plain_key: Option<StoreKey>,
}

struct Inner {
    registry: MachineRegistry,
    store: VerdictStore<CachedVerdict>,
    inflight: Mutex<FxHashMap<StoreKey, Vec<Waiter>>>,
    in_flight_decisions: AtomicUsize,
    next_token: AtomicU64,
    queue: Queue,
    /// The timer thread's inbox, made by the first request with a deadline.
    timer: OnceLock<Sender<Timed>>,
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

    /// Drops a decision that will never run: its waiter list leaves the
    /// in-flight map, each waiting caller sees its sink disconnect, and
    /// the permit is given back.
    fn drop_job(&self, job: Job) {
        let waiters = self.inflight.lock().unwrap().remove(&job.key);
        self.release_permit();
        drop(waiters);
    }

    /// Builds a decision's graph, decides it and publishes the outcome. A
    /// panic in either step becomes an `internal` error; the worker lives
    /// on.
    fn decide(&self, job: Job) {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let graph = job.family.labelled(&LabelCount::from_vec(job.counts));
            self.registry
                .get(&job.machine)
                .expect("entry existed when the decision was admitted")
                .decide(&graph, job.certified)
        }))
        .unwrap_or_else(|panic| Err(internal(panic)));
        self.publish(&job.key, outcome);
    }

    /// Runs one request through the gates on the calling thread and
    /// returns its reply, unless they parked it on an in-flight decision.
    /// A stopped service refuses every request, hits included, by dropping
    /// its sink. A panic in the gates becomes an `internal` reply.
    fn arrive(self: &Arc<Self>, req: DecideRequest, sink: Sink) -> Option<Reply> {
        let start = Instant::now();
        if !self.queue.is_open() {
            return None;
        }
        self.stats.received.fetch_add(1, Ordering::Relaxed);
        let mut to = Some(ReplyTo {
            id: req.id,
            machine: req.machine.clone(),
            start,
            sink,
        });
        let outcome = catch_unwind(AssertUnwindSafe(|| self.gates(&req, start, &mut to)))
            .unwrap_or_else(|panic| Err(internal(panic)));
        let (to, outcome) = (to?, outcome.transpose()?);
        Some(to.reply(&self.stats, outcome).0)
    }

    /// The three gates. Returns the outcome to send to `to`, or `Ok(None)`
    /// once `to` has been parked on an in-flight decision, which answers
    /// it. A miss queues its decision behind the decisions already waiting.
    fn gates(
        self: &Arc<Self>,
        req: &DecideRequest,
        start: Instant,
        to: &mut Option<ReplyTo>,
    ) -> Result<Option<Answer>, ServeError> {
        let bound = self.config.max_nodes;
        let (entry, family) =
            self.registry
                .resolve(&req.machine, &req.family, &req.counts, bound)?;
        let deadline = req
            .deadline_ms
            .map(Duration::from_millis)
            .or(self.config.default_deadline);
        let certified = req.certified;
        let key = StoreKey::of_family(entry.fingerprint(certified), family, &req.counts);
        let plain_key = || certified.then(|| key.with_fingerprint(entry.fingerprint(false)));

        let hit = |v: CachedVerdict| {
            self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            Ok(Some((v, CacheOutcome::Hit, false)))
        };

        // Gate 1: a ready cache entry answers without touching the
        // in-flight map.
        if let Some(v) = self.store.peek(&key) {
            return hit(v);
        }

        // A deadline that elapsed before any decision work degrades
        // (certified → cached plain verdict) or rejects.
        if deadline.is_some_and(|d| start.elapsed() >= d) {
            return self
                .degrade_or_reject(plain_key().as_ref(), start)
                .map(Some);
        }

        // Gate 2 and 3: join the in-flight decision for this key, or
        // claim an admission permit and become the decider. The re-peek
        // under the lock turns a decision that published and left the
        // map since Gate 1 into a hit, not a second miss (module docs).
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let role = {
            let mut inflight = self.inflight.lock().unwrap();
            let waiter = |cache, to: &mut Option<ReplyTo>| Waiter {
                token,
                cache,
                to: to.take().expect("a request parks its reply once"),
            };
            if let Some(waiters) = inflight.get_mut(&key) {
                waiters.push(waiter(CacheOutcome::Coalesced, to));
                CacheOutcome::Coalesced
            } else if let Some(v) = self.store.peek(&key) {
                drop(inflight);
                return hit(v);
            } else {
                self.try_admit()?;
                inflight.insert(key.clone(), vec![waiter(CacheOutcome::Miss, to)]);
                CacheOutcome::Miss
            }
        };

        if let Some(d) = deadline {
            self.arm(Timed {
                at: start + d,
                token,
                key: key.clone(),
                plain_key: plain_key(),
            });
        }
        if role == CacheOutcome::Coalesced {
            self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
        } else {
            let job = Job {
                machine: req.machine.clone(),
                family,
                counts: req.counts.clone(),
                key,
                certified,
            };
            // A job the closed queue hands back never runs.
            if let Some(job) = self.queue.push(job) {
                self.drop_job(job);
            }
        }
        Ok(None)
    }

    /// Publishes a finished decision and answers every waiter still on
    /// its list.
    fn publish(&self, key: &StoreKey, outcome: Result<CachedVerdict, ServeError>) {
        // Publish before the waiter list leaves the in-flight map (see
        // Gate 2): late arrivals either see the stored entry or start a
        // fresh decision — never neither. An error caches nothing and
        // leaves the key decidable.
        let outcome = outcome.map(|v| self.store.insert(key, v));
        let waiters = self
            .inflight
            .lock()
            .unwrap()
            .remove(key)
            .unwrap_or_default();
        self.release_permit();
        match &outcome {
            Ok(_) => self.stats.decided.fetch_add(1, Ordering::Relaxed),
            Err(_) => self.stats.decide_errors.fetch_add(1, Ordering::Relaxed),
        };
        for w in waiters {
            let outcome = outcome.clone().map(|v| (v, w.cache, false));
            w.to.send(&self.stats, outcome);
        }
    }

    /// Hands a deadline to the timer thread, starting it on first use.
    fn arm(self: &Arc<Self>, timed: Timed) {
        let inbox = self.timer.get_or_init(|| {
            let (tx, rx) = mpsc::channel();
            let inner = Arc::downgrade(self);
            thread::Builder::new()
                .name("serve-timer".to_string())
                .spawn(move || run_timer(&inner, &rx))
                .expect("spawn serve timer thread");
            tx
        });
        // The timer only stops once this service is gone.
        let _ = inbox.send(timed);
    }

    /// Answers a waiter whose deadline passed, if the decision's fan-out
    /// has not answered it already.
    fn expire(&self, timed: &Timed) {
        let waiter = {
            let mut inflight = self.inflight.lock().unwrap();
            let Some(waiters) = inflight.get_mut(&timed.key) else {
                return;
            };
            let Some(i) = waiters.iter().position(|w| w.token == timed.token) else {
                return;
            };
            // The entry stays, even empty: the decision is still running.
            waiters.swap_remove(i)
        };
        let outcome = self.degrade_or_reject(timed.plain_key.as_ref(), waiter.to.start);
        waiter.to.send(&self.stats, outcome);
    }

    /// The deadline fallback: a certified request, which names its
    /// `plain_key`, degrades to a cached plain verdict when one exists;
    /// everything else rejects.
    fn degrade_or_reject(&self, plain_key: Option<&StoreKey>, start: Instant) -> Outcome {
        if let Some(v) = plain_key.and_then(|k| self.store.peek(k)) {
            self.stats.degraded.fetch_add(1, Ordering::Relaxed);
            return Ok((v, CacheOutcome::Hit, true));
        }
        self.stats.rejected_deadline.fetch_add(1, Ordering::Relaxed);
        Err(ServeError::DeadlineExceeded {
            elapsed_ms: start.elapsed().as_millis() as u64,
        })
    }
}

/// An `internal` error carrying a caught panic's message.
fn internal(panic: Box<dyn std::any::Any + Send>) -> ServeError {
    let reason = panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "decision panicked".to_string());
    ServeError::Internal { reason }
}

/// The timer thread: expires deadlines in order, earliest first, until
/// the service is gone.
fn run_timer(inner: &Weak<Inner>, inbox: &Receiver<Timed>) {
    let mut pending: BTreeMap<(Instant, u64), Timed> = BTreeMap::new();
    loop {
        let now = Instant::now();
        while let Some(entry) = pending.first_entry().filter(|e| e.key().0 <= now) {
            let timed = entry.remove();
            match inner.upgrade() {
                Some(inner) => inner.expire(&timed),
                None => return,
            }
        }
        let next = match pending.keys().next() {
            Some(&(at, _)) => inbox.recv_timeout(at.saturating_duration_since(now)),
            None => inbox.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match next {
            Ok(timed) => {
                pending.insert((timed.at, timed.token), timed);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// The certified-verdict service: a [`MachineRegistry`] behind a shared
/// [`VerdictStore`], decided on a pool of [`ServiceConfig::workers`]
/// threads.
///
/// [`handle`](Self::handle) yields a cloneable, `'static` handle for
/// submitting work from transports and clients. Dropping the service
/// stops the workers once they finish their current decisions. A request
/// waiting on a decision left on the queue then, or submitted later
/// through a handle, is dropped: [`ServiceHandle::process`] reports it as
/// an `internal` error, and a [`ServiceHandle::submit`] receiver
/// disconnects.
pub struct VerdictService {
    handle: ServiceHandle,
}

impl VerdictService {
    /// Builds a service over `registry` with the given tunables and
    /// starts its workers.
    pub fn new(registry: MachineRegistry, config: ServiceConfig) -> Self {
        let store = match config.store_capacity {
            Some(cap) => VerdictStore::with_capacity(cap),
            None => VerdictStore::new(),
        };
        let workers = config.workers.max(1);
        let inner = Arc::new(Inner {
            registry,
            store,
            inflight: Mutex::new(FxHashMap::default()),
            in_flight_decisions: AtomicUsize::new(0),
            next_token: AtomicU64::new(0),
            queue: Queue {
                jobs: Mutex::new(VecDeque::new()),
                open: AtomicBool::new(true),
                ready: Condvar::new(),
            },
            timer: OnceLock::new(),
            config,
            stats: Counters::default(),
        });
        for i in 0..workers {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || {
                    while let Some(job) = inner.queue.pop() {
                        inner.decide(job);
                    }
                })
                .expect("spawn serve worker thread");
        }
        VerdictService {
            handle: ServiceHandle { inner },
        }
    }

    /// The paper catalog behind default tunables.
    pub fn with_paper_catalog(config: ServiceConfig) -> Self {
        VerdictService::new(MachineRegistry::paper_catalog(), config)
    }

    /// A cloneable handle for submitting requests.
    pub fn handle(&self) -> ServiceHandle {
        self.handle.clone()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        self.handle.inner.snapshot()
    }

    /// The shared verdict store (for tests and benchmarks).
    pub fn store(&self) -> &VerdictStore<CachedVerdict> {
        &self.handle.inner.store
    }

    /// The registry this service decides from.
    pub fn registry(&self) -> &MachineRegistry {
        &self.handle.inner.registry
    }

    /// Decides one request and waits for its reply.
    pub fn process_blocking(&self, req: DecideRequest) -> Reply {
        self.handle.process(req)
    }
}

impl Drop for VerdictService {
    fn drop(&mut self) {
        let inner = &self.handle.inner;
        for job in inner.queue.close() {
            inner.drop_job(job);
        }
    }
}

/// A cloneable, `'static` submission handle for a [`VerdictService`].
#[derive(Clone)]
pub struct ServiceHandle {
    inner: Arc<Inner>,
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

    /// Runs a request through the gates on the calling thread; the
    /// receiver yields its reply, at once unless a decision must run.
    pub fn submit(&self, req: DecideRequest) -> Receiver<Reply> {
        let (tx, rx) = mpsc::channel();
        if let Some(reply) = self.enqueue(req, Sink::Caller(tx.clone())) {
            let _ = tx.send(reply);
        }
        rx
    }

    /// Decides one request through cache, coalescing, admission, and
    /// deadline handling, and waits for its reply.
    pub fn process(&self, req: DecideRequest) -> Reply {
        let id = req.id;
        self.submit(req).recv().unwrap_or_else(|_| Reply::Error {
            id,
            error: ServeError::Internal {
                reason: "decision dropped before completing".to_string(),
            },
        })
    }

    /// Runs a request through the gates: its reply now, or later to `sink`.
    pub(crate) fn enqueue(&self, req: DecideRequest, sink: Sink) -> Option<Reply> {
        self.inner.arrive(req, sink)
    }
}
