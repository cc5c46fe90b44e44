//! Exact decision procedures on configuration graphs.
//!
//! On small graphs the configuration space of a machine (plain or extended)
//! is finite and explorable, which lets us decide acceptance *exactly*
//! instead of sampling:
//!
//! * **Pseudo-stochastic fairness**: the paper's own characterisation (used
//!   in Prop. D.2) — the automaton accepts from `C₀` iff a *stably
//!   accepting* configuration is reachable, i.e. a `C` all of whose reachable
//!   configurations are accepting. [`Exploration`] computes reachability plus
//!   the reverse closure, for any [`TransitionSystem`].
//! * **Adversarial fairness**: a consistent automaton gives the same verdict
//!   on every fair run, so it suffices to evaluate one concrete fair run.
//!   Round-robin and synchronous runs are deterministic and therefore
//!   ultimately periodic; [`lasso_verdict`] closes the lasso by Brent's
//!   cycle finding, in memory linear in the node count, and reads the
//!   verdict off the loop. A `NoConsensus` result on these runs witnesses
//!   that the machine is *not* a distributed automaton of the
//!   corresponding class for this input (no stable consensus forms).
//!
//! Extended models (weak broadcasts, absence detection, rendez-vous, strong
//! broadcasts) implement [`TransitionSystem`] in `wam-extensions` and reuse
//! the same machinery.
//!
//! # Engine architecture
//!
//! The explorer is a sequential, level-by-level BFS over hash-consed
//! configurations:
//!
//! * every configuration is interned exactly once into a dense `u32` id by
//!   an FxHash [`Interner`](crate::Interner) — BFS and all `Pre*`
//!   machinery pass ids, never configuration values. Successors are
//!   generated into one reusable buffer and interned item by item, so ids
//!   arrive in first-occurrence order and the whole exploration is a pure
//!   function of the transition system and its start;
//! * the step relation is stored as a CSR (offsets + `u32` targets); past
//!   8 Mi edges the target lists switch to a delta/varint encoding behind
//!   [`Exploration::successors`], and an [`ExploreOptions::memory_budget`]
//!   spills encoded segments to a temp file so footprint-refused spaces
//!   become *slower* instead of `TooLarge`;
//! * [`Exploration::pre_star`] and the stable-consensus queries run bitset
//!   fixpoints over a lazily built, cached reverse CSR (a counting sort),
//!   so [`Exploration::verdict`] transposes the edge list once, not twice;
//!   spilled explorations replace the reverse CSR with repeated streaming
//!   forward passes over the on-disk relation;
//! * successor id lists are deduplicated by sort + dedup instead of the
//!   quadratic membership scans of the original implementation.

use crate::bitset::BitSet;
pub use crate::edges::SuccRow;
use crate::edges::{EdgeBuilder, EdgeStore};
use crate::{Config, Interner, Machine, Schedule, Selection, State};
use std::error::Error;
use std::fmt;
use std::hash::Hash;
use std::sync::OnceLock;
use wam_graph::Graph;

/// Outcome of an exact decision procedure.
///
/// The type is `#[must_use]` (rather than each decider function, which
/// would trip `clippy::double_must_use` on the `Result`-returning ones):
/// computing a verdict is always expensive, so dropping one is a bug.
#[must_use]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Every fair run stabilises to an accepting consensus.
    Accepts,
    /// Every fair run stabilises to a rejecting consensus.
    Rejects,
    /// The evaluated run(s) do not stabilise to a consensus: the machine does
    /// not decide this input (consistency fails or consensus never forms).
    NoConsensus,
    /// Both a stably accepting and a stably rejecting configuration are
    /// reachable: the machine violates the consistency condition outright.
    Inconsistent,
}

impl Verdict {
    /// Whether the verdict is `Accepts`.
    pub fn is_accepting(self) -> bool {
        self == Verdict::Accepts
    }

    /// Whether the verdict is `Rejects`.
    pub fn is_rejecting(self) -> bool {
        self == Verdict::Rejects
    }

    /// `Some(true)` / `Some(false)` for accept / reject, `None` otherwise.
    pub fn decided(self) -> Option<bool> {
        match self {
            Verdict::Accepts => Some(true),
            Verdict::Rejects => Some(false),
            _ => None,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Verdict::Accepts => "accepts",
            Verdict::Rejects => "rejects",
            Verdict::NoConsensus => "no consensus",
            Verdict::Inconsistent => "inconsistent",
        };
        f.write_str(s)
    }
}

/// Error from an exact decision procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExploreError {
    /// The reachable configuration space exceeded the caller's limit.
    TooLarge {
        /// The limit that was exceeded.
        limit: usize,
        /// How many configurations had been interned when the limit
        /// tripped (always `> limit`; tells callers how far over budget
        /// the level that tripped it went).
        interned: usize,
        /// The number of completed BFS levels — the depth at which the
        /// exploration was abandoned (level 0 is the start configuration
        /// alone, so after the first expansion `depth` is 1).
        depth: usize,
    },
    /// A deterministic run did not close its lasso within the step limit.
    NoLasso {
        /// The step limit that was exhausted.
        limit: usize,
    },
    /// An explicitly requested backend does not apply to the input (e.g.
    /// [`Backend::Counter`](crate::Backend::Counter) on a graph whose twin
    /// partition is all singletons and which is not a cycle). `Auto` never
    /// produces this: it falls back instead.
    Unsupported {
        /// Human-readable reason for the refusal.
        reason: String,
    },
    /// The out-of-core spill path (enabled by
    /// [`ExploreOptions::memory_budget`]) failed on an I/O error while
    /// writing or reading its temp file.
    Spill {
        /// The rendered I/O error.
        message: String,
    },
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::TooLarge {
                limit,
                interned,
                depth,
            } => {
                write!(
                    f,
                    "configuration space exceeds limit of {limit} \
                     ({interned} configurations interned, BFS depth {depth})"
                )
            }
            ExploreError::NoLasso { limit } => write!(f, "no lasso within {limit} steps"),
            ExploreError::Unsupported { reason } => {
                write!(f, "requested backend is unsupported here: {reason}")
            }
            ExploreError::Spill { message } => {
                write!(f, "edge spill file I/O failed: {message}")
            }
        }
    }
}

impl Error for ExploreError {}

/// A finite-branching transition system over hashable configurations — the
/// abstraction all exact deciders run on.
///
/// Plain machines (exclusive selection) implement this via
/// [`ExclusiveSystem`]; the extended models of `wam-extensions` provide their
/// own implementations whose `successors` enumerate the scheduler's
/// nondeterministic choices (broadcast initiator sets, absence-detection
/// covers, rendez-vous pairs, …).
pub trait TransitionSystem {
    /// The configuration type.
    type C: Clone + Eq + Hash + fmt::Debug;

    /// The initial configuration.
    fn initial_config(&self) -> Self::C;

    /// All configurations reachable in one **non-silent** step. The list
    /// may contain duplicates; the exploration engine deduplicates after
    /// interning (sort + dedup on dense ids), which is cheaper than
    /// scanning for duplicates configuration-by-configuration here.
    fn successors(&self, c: &Self::C) -> Vec<Self::C>;

    /// Writes the successors of `c` into a reusable buffer instead of
    /// returning a fresh `Vec` — the engine's allocation-free frontier
    /// path. Must emit exactly the configurations [`successors`] returns,
    /// **in the same order** (the interner assigns dense ids in arrival
    /// order, so ordering is part of the observable contract).
    ///
    /// The default forwards to [`successors`]; the model families in this
    /// workspace override it natively (and implement `successors` on top),
    /// so steady-state exploration reuses one buffer and performs no
    /// per-configuration `Vec` allocation.
    ///
    /// Implementations must only push — the engine clears or drains the
    /// buffer between calls and relies on its retained capacity.
    ///
    /// [`successors`]: Self::successors
    fn successors_into(&self, c: &Self::C, out: &mut SuccBuf<Self::C>) {
        out.items.extend(self.successors(c));
    }

    /// Whether every node is in an accepting state.
    fn is_accepting(&self, c: &Self::C) -> bool;

    /// Whether every node is in a rejecting state.
    fn is_rejecting(&self, c: &Self::C) -> bool;
}

/// A reusable successor buffer for [`TransitionSystem::successors_into`]:
/// a growable list whose capacity survives across frontier rows, so the
/// BFS allocates successor storage once per exploration instead of once
/// per configuration.
#[derive(Debug, Clone)]
pub struct SuccBuf<C> {
    items: Vec<C>,
}

impl<C> Default for SuccBuf<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C> SuccBuf<C> {
    /// An empty buffer.
    pub fn new() -> Self {
        SuccBuf { items: Vec::new() }
    }

    /// Appends one successor.
    #[inline]
    pub fn push(&mut self, c: C) {
        self.items.push(c);
    }

    /// Number of buffered successors.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Clears the buffer, retaining capacity.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// The buffered successors, in push order.
    pub fn as_slice(&self) -> &[C] {
        &self.items
    }

    /// Moves the successors out, leaving the buffer empty with its
    /// capacity retained — how the engine hands configurations to the
    /// interner without copying them.
    pub fn drain(&mut self) -> std::vec::Drain<'_, C> {
        self.items.drain(..)
    }

    /// Consumes the buffer into a plain `Vec` (the `successors` adapter
    /// used by systems whose native implementation is `successors_into`).
    pub fn into_vec(self) -> Vec<C> {
        self.items
    }
}

impl<C: PartialEq> SuccBuf<C> {
    /// Whether `c` is already buffered (families that deduplicate
    /// configuration-by-configuration keep their semantics through this).
    pub fn contains(&self, c: &C) -> bool {
        self.items.contains(c)
    }
}

/// The exclusive-selection transition system of a plain machine on a graph:
/// one node steps at a time.
#[derive(Debug)]
pub struct ExclusiveSystem<'a, S: State> {
    machine: &'a Machine<S>,
    graph: &'a Graph,
}

impl<'a, S: State> ExclusiveSystem<'a, S> {
    /// Wraps a machine and a graph.
    pub fn new(machine: &'a Machine<S>, graph: &'a Graph) -> Self {
        ExclusiveSystem { machine, graph }
    }

    /// The wrapped machine.
    pub fn machine(&self) -> &'a Machine<S> {
        self.machine
    }

    /// The communication graph.
    pub fn graph(&self) -> &'a Graph {
        self.graph
    }
}

impl<S: State> TransitionSystem for ExclusiveSystem<'_, S> {
    type C = Config<S>;

    fn initial_config(&self) -> Config<S> {
        Config::initial(self.machine, self.graph)
    }

    fn successors(&self, c: &Config<S>) -> Vec<Config<S>> {
        let mut out = SuccBuf::new();
        self.successors_into(c, &mut out);
        out.into_vec()
    }

    fn successors_into(&self, c: &Config<S>, out: &mut SuccBuf<Config<S>>) {
        for v in self.graph.nodes() {
            let stepped = c.stepped_state(self.machine, self.graph, v);
            if stepped == *c.state(v) {
                continue; // silent
            }
            let mut next = c.states().to_vec();
            next[v] = stepped;
            out.push(Config::from_states(next));
        }
    }

    fn is_accepting(&self, c: &Config<S>) -> bool {
        c.is_accepting(self.machine)
    }

    fn is_rejecting(&self, c: &Config<S>) -> bool {
        c.is_rejecting(self.machine)
    }
}

/// The liberal-selection transition system of a plain machine: one step may
/// activate **any** nonempty node subset simultaneously. The successor set
/// is exponential in `|V|`, so this is reserved for the smallest graphs —
/// its purpose is to check the \[16\] selection-collapse exactly:
/// verdicts under liberal selection match those under exclusive selection.
#[derive(Debug)]
pub struct LiberalSystem<'a, S: State> {
    machine: &'a Machine<S>,
    graph: &'a Graph,
}

impl<'a, S: State> LiberalSystem<'a, S> {
    /// Wraps a machine and a graph.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than 16 nodes (2¹⁶ selections per step
    /// is the sanity bound).
    pub fn new(machine: &'a Machine<S>, graph: &'a Graph) -> Self {
        assert!(
            graph.node_count() <= 16,
            "liberal exploration is limited to 16 nodes"
        );
        LiberalSystem { machine, graph }
    }

    /// The wrapped machine.
    pub fn machine(&self) -> &'a Machine<S> {
        self.machine
    }

    /// The communication graph.
    pub fn graph(&self) -> &'a Graph {
        self.graph
    }
}

impl<S: State> TransitionSystem for LiberalSystem<'_, S> {
    type C = Config<S>;

    fn initial_config(&self) -> Config<S> {
        Config::initial(self.machine, self.graph)
    }

    fn successors(&self, c: &Config<S>) -> Vec<Config<S>> {
        let mut out = SuccBuf::new();
        self.successors_into(c, &mut out);
        out.into_vec()
    }

    fn successors_into(&self, c: &Config<S>, out: &mut SuccBuf<Config<S>>) {
        let n = self.graph.node_count();
        // Precompute each node's stepped state once; a simultaneous step of
        // set S applies exactly these (all against the same pre-step view).
        let stepped: Vec<S> = self
            .graph
            .nodes()
            .map(|v| c.stepped_state(self.machine, self.graph, v))
            .collect();
        let moving: Vec<usize> = (0..n).filter(|&v| stepped[v] != *c.state(v)).collect();
        // Selections that differ only on silent nodes yield the same config,
        // so it suffices to enumerate subsets of the moving nodes. Distinct
        // masks yield distinct configurations, so no dedup is needed.
        for mask in 1usize..(1 << moving.len()) {
            let mut states = c.states().to_vec();
            for (i, &v) in moving.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    states[v] = stepped[v].clone();
                }
            }
            out.push(Config::from_states(states));
        }
    }

    fn is_accepting(&self, c: &Config<S>) -> bool {
        c.is_accepting(self.machine)
    }

    fn is_rejecting(&self, c: &Config<S>) -> bool {
        c.is_rejecting(self.machine)
    }
}

/// Tuning knobs for [`Exploration::explore_with`] and the deciders: a
/// size limit and an optional memory budget. Which representation a
/// decision explores is the [`Backend`](crate::Backend) argument's job,
/// and the successor storage picks its own encoding.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`ExploreOptions::default`] / [`ExploreOptions::with_limit`] and refine
/// through the builder methods ([`limit`](ExploreOptions::limit),
/// [`memory_budget`](ExploreOptions::memory_budget)).
#[non_exhaustive]
#[derive(Debug, Clone, Copy)]
pub struct ExploreOptions {
    /// Maximum number of reachable configurations before
    /// [`ExploreError::TooLarge`]. Under a reduction this bounds what is
    /// interned: orbit representatives, count vectors or necklaces.
    pub limit: usize,
    /// Approximate byte budget for in-memory successor storage. When set,
    /// edges are varint-encoded and flushed segment-by-segment to a temp
    /// file once the resident encoding exceeds the budget; fixpoints then
    /// stream the file instead of building an in-memory reverse CSR. This
    /// turns [`ExploreError::TooLarge`]-scale edge sets into "slower"
    /// rather than "refused" — configurations themselves stay in memory
    /// (BFS dedup needs them), so [`ExploreOptions::limit`] still bounds
    /// the configuration count.
    pub memory_budget: Option<usize>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            limit: 1_000_000,
            memory_budget: None,
        }
    }
}

impl ExploreOptions {
    /// Default options with the given configuration-count limit.
    pub fn with_limit(limit: usize) -> Self {
        ExploreOptions {
            limit,
            ..ExploreOptions::default()
        }
    }

    /// Sets the configuration-count limit.
    pub fn limit(mut self, limit: usize) -> Self {
        self.limit = limit;
        self
    }

    /// Sets the in-memory byte budget for successor storage (enables the
    /// out-of-core spill path).
    pub fn memory_budget(mut self, memory_budget: usize) -> Self {
        self.memory_budget = Some(memory_budget);
        self
    }
}

/// The explored configuration graph of a [`TransitionSystem`]: every
/// configuration reachable from the initial one (hash-consed to dense
/// `u32` ids), the non-silent step relation behind a CSR-row API (plain,
/// compact or spilled), acceptance flags as bitsets, and `Pre*` machinery
/// over a cached reverse CSR (or streaming forward passes when the edges
/// live on disk).
#[derive(Debug)]
pub struct Exploration<C> {
    interner: Interner<C>,
    /// Successor rows of every configuration, sorted and deduplicated.
    edges: EdgeStore,
    accepting: BitSet,
    rejecting: BitSet,
    /// Reverse CSR (predecessors), built on first `Pre*` query and shared
    /// by every subsequent one. Never built for spilled edge stores.
    rev: OnceLock<(Vec<u32>, Vec<u32>)>,
}

impl<C: Clone + Eq + Hash + fmt::Debug> Exploration<C> {
    /// Explores `system` from its initial configuration.
    ///
    /// # Errors
    ///
    /// [`ExploreError::TooLarge`] if more than `limit` configurations are
    /// reachable.
    pub fn explore<T: TransitionSystem<C = C>>(
        system: &T,
        limit: usize,
    ) -> Result<Self, ExploreError> {
        Self::explore_with(
            system,
            system.initial_config(),
            ExploreOptions::with_limit(limit),
        )
    }

    /// Explores `system` from `start` under explicit [`ExploreOptions`].
    ///
    /// The result — ids, edges, flags, verdicts — is a pure function of
    /// the transition system and `start`; the memory budget only changes
    /// how the edges are stored.
    ///
    /// # Errors
    ///
    /// [`ExploreError::TooLarge`] if more than `options.limit`
    /// configurations are reachable; [`ExploreError::Spill`] if the spill
    /// file fails.
    pub fn explore_with<T: TransitionSystem<C = C>>(
        system: &T,
        start: C,
        options: ExploreOptions,
    ) -> Result<Self, ExploreError> {
        let spill_err = |e: std::io::Error| ExploreError::Spill {
            message: e.to_string(),
        };
        let mut interner = Interner::new();
        let (start_id, _) = interner.intern(start);
        debug_assert_eq!(start_id, 0);
        let mut builder = EdgeBuilder::new(options.memory_budget);
        let mut acc_flags: Vec<bool> = Vec::new();
        let mut rej_flags: Vec<bool> = Vec::new();
        let mut lo = 0usize;
        let mut depth = 0usize;
        let mut row_scratch: Vec<u32> = Vec::new();
        let mut succ_scratch: SuccBuf<C> = SuccBuf::new();
        while lo < interner.len() {
            let hi = interner.len();
            // Generate into the reusable buffer (the borrow of the interner
            // ends with the `successors_into` call), then intern each
            // successor: one scratch row, one successor buffer.
            for i in lo..hi {
                succ_scratch.clear();
                system.successors_into(interner.get(i), &mut succ_scratch);
                row_scratch.clear();
                for s in succ_scratch.drain() {
                    row_scratch.push(interner.intern(s).0);
                }
                row_scratch.sort_unstable();
                row_scratch.dedup();
                builder.push_row(&row_scratch).map_err(spill_err)?;
            }
            depth += 1;
            if interner.len() > options.limit {
                return Err(ExploreError::TooLarge {
                    limit: options.limit,
                    interned: interner.len(),
                    depth,
                });
            }

            // Acceptance flags for the configurations discovered this level
            // (and, on the first level, the start configuration).
            for c in &interner.configs()[acc_flags.len()..] {
                acc_flags.push(system.is_accepting(c));
                rej_flags.push(system.is_rejecting(c));
            }
            lo = hi;
        }
        Ok(Exploration {
            interner,
            edges: builder.finish(),
            accepting: BitSet::from_bools(&acc_flags),
            rejecting: BitSet::from_bools(&rej_flags),
            rev: OnceLock::new(),
        })
    }

    /// All reachable configurations (index 0 is the start).
    pub fn configs(&self) -> &[C] {
        self.interner.configs()
    }

    /// Number of reachable configurations.
    pub fn len(&self) -> usize {
        self.interner.len()
    }

    /// Whether the exploration is empty (never: the start is always present).
    pub fn is_empty(&self) -> bool {
        self.interner.is_empty()
    }

    /// The dense id of configuration `c`, if it is reachable.
    pub fn index_of(&self, c: &C) -> Option<usize> {
        self.interner.index_of(c)
    }

    /// Successor ids of configuration `i` (non-silent steps only), sorted
    /// ascending and duplicate-free. Dereferences to `&[u32]`; compact and
    /// spilled edge stores decode the row on the fly.
    pub fn successors(&self, i: usize) -> SuccRow<'_> {
        self.edges.row(i)
    }

    /// Whether configuration `i` is accepting.
    pub fn is_accepting(&self, i: usize) -> bool {
        self.accepting.contains(i)
    }

    /// Whether configuration `i` is rejecting.
    pub fn is_rejecting(&self, i: usize) -> bool {
        self.rejecting.contains(i)
    }

    /// Total number of successor edges.
    pub fn edge_count(&self) -> u64 {
        self.edges.edge_count()
    }

    /// Whether any successor data was spilled to disk (see
    /// [`ExploreOptions::memory_budget`]).
    pub fn was_spilled(&self) -> bool {
        self.edges.is_spilled()
    }

    /// Bytes of successor data resident on disk (0 unless spilled).
    pub fn spilled_bytes(&self) -> u64 {
        self.edges.spilled_bytes()
    }

    /// Forces construction of the cached reverse CSR now (a no-op for
    /// spilled edge stores, whose fixpoints stream the forward relation
    /// instead). Lets benchmarks time the transpose separately from the
    /// fixpoints that would otherwise trigger it lazily.
    pub fn build_reverse(&self) {
        if !self.edges.is_spilled() {
            let _ = self.reverse_csr();
        }
    }

    /// The reverse step relation in CSR form (a counting sort over the
    /// forward rows), built once and cached.
    fn reverse_csr(&self) -> &(Vec<u32>, Vec<u32>) {
        self.rev.get_or_init(|| {
            let n = self.len();
            let mut off = vec![0u32; n + 1];
            self.edges.for_each_row(|_, row| {
                for &t in row {
                    off[t as usize + 1] += 1;
                }
            });
            for i in 0..n {
                off[i + 1] += off[i];
            }
            let mut cursor: Vec<u32> = off[..n].to_vec();
            let mut tgt = vec![0u32; self.edges.edge_count() as usize];
            self.edges.for_each_row(|i, row| {
                for &t in row {
                    let c = &mut cursor[t as usize];
                    tgt[*c as usize] = i;
                    *c += 1;
                }
            });
            (off, tgt)
        })
    }

    /// `Pre*` as a bitset fixpoint: a level-by-level backward BFS over the
    /// cached reverse CSR. Spilled edge stores take
    /// [`Self::pre_star_streaming`] instead.
    fn pre_star_bits(&self, targets: &BitSet) -> BitSet {
        if self.edges.is_spilled() {
            return self.pre_star_streaming(targets);
        }
        let (off, tgt) = self.reverse_csr();
        let preds = |j: u32| &tgt[off[j as usize] as usize..off[j as usize + 1] as usize];
        let mut in_set = targets.clone();
        let mut frontier: Vec<u32> = targets.iter_ones().map(|i| i as u32).collect();
        let mut next: Vec<u32> = Vec::new();
        while !frontier.is_empty() {
            for &j in &frontier {
                for &i in preds(j) {
                    if in_set.insert(i as usize) {
                        next.push(i);
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
        }
        in_set
    }

    /// `Pre*` for spilled edge stores: repeated **descending-order
    /// streaming passes** over the forward relation (`i` joins the set
    /// when some successor is in it), chunk by chunk from the last row
    /// backwards, until a full pass changes nothing. BFS ids mostly point
    /// forward (level order), so a descending sweep collapses whole
    /// chains per pass and the pass count stays small; each pass re-reads
    /// the spill file sequentially — no reverse CSR is ever materialised,
    /// keeping the memory budget honest.
    fn pre_star_streaming(&self, targets: &BitSet) -> BitSet {
        let mut in_set = targets.clone();
        let chunks = self.edges.chunks();
        loop {
            let mut changed = false;
            for chunk in chunks.iter().rev() {
                self.edges.for_rows_desc(chunk, |i, row| {
                    if !in_set.contains(i) && row.iter().any(|&j| in_set.contains(j as usize)) {
                        in_set.insert(i);
                        changed = true;
                    }
                });
            }
            if !changed {
                return in_set;
            }
        }
    }

    /// Configurations from which only `good`-flagged configurations are
    /// reachable: the complement of `Pre*(¬good)`.
    fn stably_bits(&self, good: &BitSet) -> BitSet {
        let mut bad = good.clone();
        bad.negate();
        let mut out = self.pre_star_bits(&bad);
        out.negate();
        out
    }

    /// Membership flags of `Pre*(targets)`: configurations that can reach a
    /// configuration flagged in `targets` (targets included).
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the number of configurations.
    pub fn pre_star(&self, targets: &[bool]) -> Vec<bool> {
        assert_eq!(targets.len(), self.len());
        self.pre_star_bits(&BitSet::from_bools(targets)).to_bools()
    }

    /// Configurations that are *stably accepting*: every configuration
    /// reachable from them (themselves included) is accepting.
    pub fn stably_accepting(&self) -> Vec<bool> {
        self.stably_bits(&self.accepting).to_bools()
    }

    /// Configurations that are *stably rejecting*.
    pub fn stably_rejecting(&self) -> Vec<bool> {
        self.stably_bits(&self.rejecting).to_bools()
    }

    /// The verdict under pseudo-stochastic fairness.
    pub fn verdict(&self) -> Verdict {
        let acc = self.stably_bits(&self.accepting).any();
        let rej = self.stably_bits(&self.rejecting).any();
        match (acc, rej) {
            (true, true) => Verdict::Inconsistent,
            (true, false) => Verdict::Accepts,
            (false, true) => Verdict::Rejects,
            (false, false) => Verdict::NoConsensus,
        }
    }
}

/// A deterministic run walked until it closes a lasso: the first
/// repeated (configuration, step mod period) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lasso<S: State> {
    /// The verdict read off the loop: `Accepts` / `Rejects` if every loop
    /// configuration is accepting / rejecting, `NoConsensus` otherwise.
    pub verdict: Verdict,
    /// Steps taken before the loop starts.
    pub stem_len: usize,
    /// The configuration at step `stem_len`, where the loop starts.
    pub entry: Config<S>,
    /// Steps in one loop, a multiple of the schedule period.
    pub cycle_len: usize,
}

impl<S: State> Lasso<S> {
    /// Steps walked before the lasso closed (stem plus one loop).
    pub fn steps(&self) -> usize {
        self.stem_len + self.cycle_len
    }
}

/// Walks the deterministic run of `machine` on `graph` under a fair
/// adversarial schedule until it closes a lasso, and reads the verdict off
/// the loop. For a consistent automaton of an adversarial class this is
/// the class verdict; `NoConsensus` witnesses failure to decide.
///
/// * [`Schedule::RoundRobin`] — the exclusive run selecting node
///   `t mod |V|` at step `t` (period `|V|`);
/// * [`Schedule::Synchronous`] — every node steps each round (period 1),
///   the unique fair schedule of synchronous selection.
///
/// Brent's cycle finding over (configuration, step mod period) closes the
/// shortest lasso holding three configurations; a run with none within
/// `limit` steps is abandoned before the walk passes step `3 × limit`.
///
/// # Errors
///
/// * [`ExploreError::NoLasso`] if stem plus loop is `limit` steps or more;
/// * [`ExploreError::Unsupported`] for [`Schedule::PseudoStochastic`],
///   which has no single run to walk.
pub fn lasso_verdict<S: State>(
    machine: &Machine<S>,
    graph: &Graph,
    schedule: Schedule,
    limit: usize,
) -> Result<Lasso<S>, ExploreError> {
    let n = graph.node_count();
    let period = match schedule {
        Schedule::RoundRobin => n,
        Schedule::Synchronous => 1,
        Schedule::PseudoStochastic => {
            return Err(ExploreError::Unsupported {
                reason: "pseudo-stochastic fairness has no single run to walk to a lasso"
                    .to_string(),
            })
        }
    };
    let all = Selection::all(graph);
    let step = |c: &Config<S>, t: usize| match schedule {
        Schedule::RoundRobin => c.successor(machine, graph, &Selection::exclusive(t % n)),
        _ => c.successor(machine, graph, &all),
    };
    let no_lasso = Err(ExploreError::NoLasso { limit });
    // λ: the tortoise waits at step t0 = 2^k − 1 while the hare walks up to
    // 2^k steps past it; once t0 is on the loop they meet after exactly λ.
    // The hare is `limit` steps out only when t0 ≥ limit − 1, so no meeting
    // then means stem plus loop reach `limit`. `acc` and `rej` cover steps
    // t0 .. t0 + lam − 1: on a meeting, the loop.
    let start = Config::initial(machine, graph);
    let (mut tortoise, mut t0, mut power, mut lam) = (start.clone(), 0, 1, 1);
    let mut hare = step(&start, 0);
    let (mut acc, mut rej) = (start.is_accepting(machine), start.is_rejecting(machine));
    while lam % period != 0 || tortoise != hare {
        if lam >= limit {
            return no_lasso;
        }
        if power == lam {
            (tortoise, t0, power, lam) = (hare.clone(), t0 + lam, power * 2, 0);
            (acc, rej) = (true, true);
        }
        acc = acc && hare.is_accepting(machine);
        rej = rej && hare.is_rejecting(machine);
        hare = step(&hare, t0 + lam);
        lam += 1;
    }
    // μ: the first step equal to the one λ (a period multiple) steps later.
    let (mut entry, mut ahead) = (start.clone(), (0..lam).fold(start, |c, t| step(&c, t)));
    let mut mu = 0;
    while mu + lam < limit && entry != ahead {
        entry = step(&entry, mu);
        ahead = step(&ahead, mu + lam);
        mu += 1;
    }
    if mu + lam >= limit {
        return no_lasso;
    }
    let verdict = match (acc, rej) {
        (true, _) => Verdict::Accepts,
        (_, true) => Verdict::Rejects,
        _ => Verdict::NoConsensus,
    };
    Ok(Lasso {
        verdict,
        stem_len: mu,
        entry,
        cycle_len: lam,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, Output};
    use wam_graph::{generators, LabelCount};

    /// "Some node carries label x1", by flag flooding (a dAf machine).
    fn flood() -> Machine<bool> {
        Machine::new(
            1,
            |l| l.0 == 1,
            |&s, n| s || n.exists(|&t| t),
            |&s| if s { Output::Accept } else { Output::Reject },
        )
    }

    // Schedule-specific shorthands over the unified dispatch.
    fn ps<S: State>(m: &Machine<S>, g: &Graph, limit: usize) -> Result<Verdict, ExploreError> {
        crate::decide(
            m,
            g,
            Schedule::PseudoStochastic,
            crate::Backend::Auto,
            ExploreOptions::with_limit(limit),
        )
        .map(|(v, _)| v)
    }

    fn rr<S: State>(m: &Machine<S>, g: &Graph, limit: usize) -> Result<Verdict, ExploreError> {
        crate::decide(
            m,
            g,
            Schedule::RoundRobin,
            crate::Backend::Auto,
            ExploreOptions::with_limit(limit),
        )
        .map(|(v, _)| v)
    }

    fn sy<S: State>(m: &Machine<S>, g: &Graph, limit: usize) -> Result<Verdict, ExploreError> {
        crate::decide(
            m,
            g,
            Schedule::Synchronous,
            crate::Backend::Auto,
            ExploreOptions::with_limit(limit),
        )
        .map(|(v, _)| v)
    }

    fn dsys<T: TransitionSystem>(system: &T, limit: usize) -> Result<Verdict, ExploreError> {
        Ok(Exploration::explore(system, limit)?.verdict())
    }

    #[test]
    fn flood_accepts_when_label_present() {
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![3, 1]));
        assert_eq!(ps(&flood(), &g, 10_000).unwrap(), Verdict::Accepts);
        assert_eq!(rr(&flood(), &g, 10_000).unwrap(), Verdict::Accepts);
        assert_eq!(sy(&flood(), &g, 10_000).unwrap(), Verdict::Accepts);
    }

    #[test]
    fn flood_rejects_when_label_absent() {
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![4, 0]));
        assert_eq!(ps(&flood(), &g, 10_000).unwrap(), Verdict::Rejects);
        assert_eq!(rr(&flood(), &g, 10_000).unwrap(), Verdict::Rejects);
    }

    #[test]
    fn exploration_counts_configs() {
        let g = generators::labelled_line(&LabelCount::from_vec(vec![2, 1]));
        let m = flood();
        let sys = ExclusiveSystem::new(&m, &g);
        let e = Exploration::explore(&sys, 1000).unwrap();
        assert!(e.len() >= 3);
        assert_eq!(e.verdict(), Verdict::Accepts);
        assert!(e.stably_accepting().iter().any(|&b| b));
    }

    #[test]
    fn limit_is_respected() {
        let g = generators::labelled_line(&LabelCount::from_vec(vec![5, 1]));
        let m = flood();
        let sys = ExclusiveSystem::new(&m, &g);
        let err = Exploration::explore(&sys, 2).unwrap_err();
        // The diagnostic fields surface in the Display rendering that
        // `decide_*` callers propagate.
        let msg = err.to_string();
        assert!(msg.contains("limit of 2"), "{msg}");
        assert!(msg.contains("interned"), "{msg}");
        assert!(msg.contains("depth"), "{msg}");
        match err {
            ExploreError::TooLarge {
                limit,
                interned,
                depth,
            } => {
                assert_eq!(limit, 2);
                assert!(interned > limit, "interned count must exceed the limit");
                assert!(depth >= 1, "at least one BFS level completed");
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn toggling_machine_has_no_consensus() {
        let m = Machine::new(
            1,
            |_| false,
            |&s, _| !s,
            |&s| if s { Output::Accept } else { Output::Reject },
        );
        let g = generators::cycle(3);
        assert_eq!(sy(&m, &g, 10_000).unwrap(), Verdict::NoConsensus);
        assert_eq!(ps(&m, &g, 10_000).unwrap(), Verdict::NoConsensus);
    }

    #[test]
    fn first_mover_locks_consensus() {
        // A node moving with all-undecided neighbours locks Accept, and the
        // lock floods: every fair run accepts.
        let m = Machine::new(
            1,
            |_| 0u8,
            |&s, _| if s == 0 { 1 } else { s },
            |&s| match s {
                1 => Output::Accept,
                _ => Output::Neutral,
            },
        );
        let g = generators::cycle(3);
        assert_eq!(ps(&m, &g, 10_000).unwrap(), Verdict::Accepts);
    }

    #[test]
    fn seeded_disagreement_never_reaches_consensus() {
        // Locked accept-seed and reject-seed coexist: no consensus possible.
        let m = Machine::new(
            1,
            |l| if l.0 == 0 { 1u8 } else { 2u8 },
            |&s, _| s,
            |&s| match s {
                1 => Output::Accept,
                _ => Output::Reject,
            },
        );
        let g = generators::labelled_line(&LabelCount::from_vec(vec![1, 2]));
        assert_eq!(ps(&m, &g, 10_000).unwrap(), Verdict::NoConsensus);
    }

    #[test]
    fn liberal_and_exclusive_verdicts_agree() {
        // The [16] selection collapse, checked exactly on small inputs.
        let m = flood();
        for counts in [vec![3u64, 1], vec![4, 0], vec![2, 2]] {
            let g = generators::labelled_cycle(&LabelCount::from_vec(counts.clone()));
            let excl = dsys(&ExclusiveSystem::new(&m, &g), 1_000_000).unwrap();
            let lib = dsys(&LiberalSystem::new(&m, &g), 1_000_000).unwrap();
            assert_eq!(excl, lib, "{counts:?}");
        }
    }

    #[test]
    fn liberal_successors_include_simultaneous_moves() {
        // On a t-f-f-t line, one liberal step can flood both inner nodes.
        let m = flood();
        let g = generators::labelled_line(&LabelCount::from_vec(vec![2, 2]));
        let sys = LiberalSystem::new(&m, &g);
        // Initial: labels x0 x0 x1 x1 → false false true true.
        let c0 = sys.initial_config();
        let both = Config::from_states(vec![false, true, true, true]);
        let succ = sys.successors(&c0);
        assert!(succ.contains(&both), "{succ:?}");
    }

    #[test]
    fn lasso_limit_error() {
        let m = Machine::new(1, |_| 0u64, |&s, _| s + 1, |_| Output::Neutral);
        let g = generators::cycle(3);
        let err = sy(&m, &g, 50).unwrap_err();
        assert_eq!(err, ExploreError::NoLasso { limit: 50 });
    }

    #[test]
    fn inconsistent_machine_detected() {
        // First mover's identity decides the consensus: node ids are not
        // visible, but labels are; make label-0 nodes lock Accept and label-1
        // nodes lock Reject when moving first, with locks flooding.
        let m = Machine::new(
            1,
            |l| if l.0 == 0 { 10u8 } else { 20u8 },
            |&s, n| {
                if s >= 10 {
                    // undecided (10 = would lock accept, 20 = would lock reject)
                    if n.exists(|&t| t == 1) {
                        1
                    } else if n.exists(|&t| t == 2) {
                        2
                    } else if s == 10 {
                        1
                    } else {
                        2
                    }
                } else {
                    s
                }
            },
            |&s| match s {
                1 => Output::Accept,
                2 => Output::Reject,
                _ => Output::Neutral,
            },
        );
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![2, 2]));
        assert_eq!(ps(&m, &g, 100_000).unwrap(), Verdict::Inconsistent);
    }

    #[test]
    fn index_of_finds_every_reachable_config() {
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![3, 1]));
        let m = flood();
        let sys = ExclusiveSystem::new(&m, &g);
        let e = Exploration::explore(&sys, 10_000).unwrap();
        for (i, c) in e.configs().iter().enumerate() {
            assert_eq!(e.index_of(c), Some(i));
        }
        let unreachable = Config::from_states(vec![true, false, true, false]);
        assert_eq!(e.index_of(&unreachable), None);
    }

    #[test]
    fn successor_ids_are_sorted_and_unique() {
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![2, 2]));
        let m = flood();
        let sys = ExclusiveSystem::new(&m, &g);
        let e = Exploration::explore(&sys, 10_000).unwrap();
        for i in 0..e.len() {
            let row = e.successors(i);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row {i}: {row:?}");
            for &j in row.iter() {
                assert!((j as usize) < e.len());
            }
        }
    }
}
