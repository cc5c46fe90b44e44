//! The dense successor kernel: packed node rows, the one transition system
//! every dense row kind explores through, and the row explorations they
//! return.
//!
//! The machines of the paper only ever observe the β-clipped neighbourhood
//! multiset, and their reachable state sets are tiny — which makes δ fully
//! memoizable and configurations densely packable. The memo half lives in
//! `delta`: one `DeltaSession` per exploration interns states to `u16`
//! ids, records their outputs, and memoizes δ per raw low-degree view and
//! per `(state, clipped signature)` pair in one flat table. Three row
//! kinds run on it, each an `Expand` implementation mapping one-to-one
//! onto a generic system:
//!
//! * **Packed node rows** (this module, `Resolution::Explicit`):
//!   configurations are [`PackedConfig`] rows — power-of-two bits per node
//!   in `u64` words, inline (no heap) for rows of at most two words.
//!   Exclusive successors copy the parent row and patch one bit-field;
//!   nodes of degree at most three step through the raw memo, the rest
//!   through signatures.
//! * **Counter rows** (`dense`, `Resolution::Counter`): sorted count
//!   words over the twin partition, stepping through signatures.
//! * **Ring rows** (`dense`, `Resolution::Ring`): canonical run lists on a
//!   cycle, stepping through the raw memo.
//!
//! Counter and ring rows keep their words inline up to a fixed length, and
//! their successors are built in a reused scratch buffer, so neither a
//! step nor a new row allocates in steady state.
//!
//! One session-bound transition system explores all three: it expands a
//! row through the session, scans the session's outputs for consensus, and
//! drains once the `u16` id space runs out, so the exploration is refused.
//! All three return a [`KernelExploration`] over their row type, which
//! unpacks rows back into the generic configurations through
//! [`KernelRow`]. Plain and certified decisions both explore these rows;
//! certificate emission unpacks only the rows a witness holds
//! ([`KernelExploration::configs_of`]) and indexes its `Choice` steps by
//! the generic successors of the unpacked configurations.
//!
//! The per-node bit width must cover every state id, but states are
//! *discovered during* exploration — so the session starts at the smallest
//! power-of-two width covering the initial states and **restarts** when a
//! fresh state overflows it: the node rows' overflow flag flips, their
//! expansion drains (returns no successors, finishing the doomed exploration
//! quickly), and the session re-explores at double width. The state and
//! δ tables persist across restarts, so the re-run replays memoized
//! lookups instead of recomputing δ; widths are capped at 16 bits, which
//! covers every possible id, so at most four restarts can ever happen.
//!
//! The kernel is **observationally bit-identical** to exploring
//! [`ExclusiveSystem`](crate::ExclusiveSystem) directly: successors are
//! enumerated in the same node order with the same silent-step skipping,
//! and packing is injective, so interned ids arrive in the same order and
//! verdicts, id order and explored counts all coincide — pinned by the
//! `kernel_differential` suite.

use crate::delta::{
    exhausted, push_sig, raw_key, DeltaSession, Expand, Scratch, Steps, Tables, RAW_DEG,
};
use crate::explore::{
    Exploration, ExploreError, ExploreOptions, SuccBuf, TransitionSystem, Verdict,
};
use crate::{Config, Machine, Output, PackedConfig, State};
use std::cell::Cell;
use std::fmt;
use std::hash::Hash;
use wam_graph::Graph;

/// The packed node rows of one width attempt: the exclusive-selection
/// semantics replayed over [`PackedConfig`]s. The session outlives the
/// attempt across restarts.
#[derive(Debug)]
struct NodeRows<'a> {
    graph: &'a Graph,
    beta: u32,
    nodes: usize,
    /// Per-node field width of this attempt (power of two, ≤ 16).
    bits: u32,
    /// Flips when a fresh state id no longer fits `bits`; expansion then
    /// drains so the doomed exploration finishes fast.
    overflow: Cell<bool>,
}

impl<S: State> Expand<S> for NodeRows<'_> {
    type C = PackedConfig;

    /// Nodes of degree at most [`RAW_DEG`] go through the raw memo keyed
    /// by their exact local view; the rest through sorted clipped
    /// signatures. On a state-width overflow the overflow flag is set and
    /// this and every later expansion ends with an empty buffer — the
    /// drain behaviour.
    fn expand(
        &self,
        steps: &mut Steps<'_, S>,
        c: &PackedConfig,
        out: &mut SuccBuf<PackedConfig>,
        scratch: &mut Scratch,
    ) -> Option<()> {
        if self.overflow.get() {
            return Some(()); // drain: the attempt's result will be discarded
        }
        let Scratch { ids, nbr, key, .. } = scratch;
        let bits = self.bits;
        ids.clear();
        c.unpack_into(self.nodes, bits, ids);
        for v in 0..self.nodes {
            let sid = ids[v];
            let nbrs = self.graph.neighbours(v);
            let nid = if nbrs.len() <= RAW_DEG {
                steps.raw(raw_key(sid, nbrs.iter().map(|&u| ids[u])))?
            } else {
                nbr.clear();
                nbr.extend(nbrs.iter().map(|&u| ids[u]));
                nbr.sort_unstable();
                key.clear();
                for &n in nbr.iter() {
                    push_sig(key, n, 1, self.beta);
                }
                steps.canonical(sid, key)?
            };
            if nid == sid {
                continue; // silent
            }
            if u32::from(nid) >> bits != 0 {
                self.overflow.set(true);
                out.clear();
                return Some(());
            }
            out.push(c.with_patched(v, nid, bits));
        }
        Some(())
    }

    fn sids<'c>(&'c self, c: &'c PackedConfig) -> impl Iterator<Item = u16> + 'c {
        (0..self.nodes).map(move |v| c.get(v, self.bits))
    }
}

/// The one [`TransitionSystem`] over dense rows: `rows` expands through
/// the session's memo tables, and consensus reads the session's per-id
/// outputs. Once the `u16` id space runs out, successor generation
/// drains and the exploration is refused.
struct SessionSystem<'a, S: State, E: Expand<S>> {
    machine: &'a Machine<S>,
    session: &'a DeltaSession<S>,
    rows: &'a E,
    start: E::C,
    exhausted: Cell<bool>,
}

impl<S: State, E: Expand<S>> TransitionSystem for SessionSystem<'_, S, E> {
    type C = E::C;

    fn initial_config(&self) -> E::C {
        self.start.clone()
    }

    fn successors(&self, c: &E::C) -> Vec<E::C> {
        let mut out = SuccBuf::new();
        self.successors_into(c, &mut out);
        out.into_vec()
    }

    fn successors_into(&self, c: &E::C, out: &mut SuccBuf<E::C>) {
        if self.exhausted.get() {
            return; // drain: the exploration will be refused
        }
        if !self
            .session
            .successors_into(self.machine, self.rows, c, out)
        {
            self.exhausted.set(true);
        }
    }

    fn is_accepting(&self, c: &E::C) -> bool {
        self.session.all(self.rows.sids(c), Output::Accept)
    }

    fn is_rejecting(&self, c: &E::C) -> bool {
        self.session.all(self.rows.sids(c), Output::Reject)
    }
}

/// Explores `rows` from `start` over `session`.
///
/// # Errors
///
/// [`ExploreError::TooLarge`] when `options.limit` is exhausted, and
/// [`ExploreError::Unsupported`] when the session's `u16` id space ran
/// out on the way.
fn explore_rows<S: State, E: Expand<S>>(
    machine: &Machine<S>,
    session: &DeltaSession<S>,
    rows: &E,
    start: E::C,
    options: ExploreOptions,
) -> Result<Exploration<E::C>, ExploreError> {
    let system = SessionSystem {
        machine,
        session,
        rows,
        start,
        exhausted: Cell::new(false),
    };
    let exploration = Exploration::explore_with(&system, system.initial_config(), options)?;
    if system.exhausted.get() {
        return Err(exhausted());
    }
    Ok(exploration)
}

/// Explores `rows` over a fresh session, from the row `start` builds —
/// the counter and ring rows, whose words hold state ids in 16-bit lanes.
pub(crate) fn explore_dense<S, E>(
    machine: &Machine<S>,
    nodes: usize,
    rows: E,
    start: impl FnOnce(&DeltaSession<S>) -> Option<E::C>,
    options: ExploreOptions,
) -> Result<KernelExploration<S, E::C>, ExploreError>
where
    S: State,
    E: Expand<S>,
    E::C: KernelRow<S>,
{
    let session = DeltaSession::new();
    let start = start(&session).ok_or_else(exhausted)?;
    Ok(KernelExploration {
        exploration: explore_rows(machine, &session, &rows, start, options)?,
        tables: session.into_tables(),
        nodes,
        bits: 16,
        restarts: 0,
    })
}

/// Table sizes and counters of a finished kernel session — the numbers
/// behind BENCH_explore.json's `kernel` section.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelStats {
    /// Distinct machine states interned over the session.
    pub states: usize,
    /// Distinct neighbourhood signatures in the signature memo.
    pub sigs: usize,
    /// Filled δ-memo entries (raw keys plus `(state, signature)` entries)
    /// — each one real `Machine::step` call, ever.
    pub delta_entries: u64,
    /// Node steps resolved by a memoized δ entry.
    pub delta_hits: u64,
    /// Node steps that computed (and memoized) a fresh δ entry.
    pub delta_misses: u64,
    /// Final per-node field width in bits (power of two) of packed node
    /// rows; counter and ring rows store state ids in 16-bit lanes.
    pub bits: u32,
    /// Width-overflow restarts the session performed (0 almost always;
    /// always 0 for counter and ring rows).
    pub restarts: u32,
    /// Bytes held by the row arena (inline words plus heap spill-over of
    /// every interned row).
    pub arena_bytes: u64,
}

impl KernelStats {
    /// δ hits as a fraction of all node-step lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.delta_hits + self.delta_misses;
        if total == 0 {
            return 0.0;
        }
        self.delta_hits as f64 / total as f64
    }
}

/// A row type of a dense exploration: it unpacks, through the session's
/// state table, into the configuration of the generic system it mirrors
/// one-to-one. Implemented by [`PackedConfig`] (explicit node space),
/// [`CounterRow`](crate::CounterRow) and [`RingRow`](crate::RingRow).
pub trait KernelRow<S: State>: Clone + Eq + Hash + fmt::Debug {
    /// The generic configuration this row stands for.
    type Config;

    /// Unpacks the row; `states` is the session's state table by id, and
    /// `nodes`/`bits` the packed layout (read by node rows only).
    fn unpack(&self, states: &[S], nodes: usize, bits: u32) -> Self::Config;

    /// Heap bytes owned by the row (0 for inline rows).
    fn heap_bytes(&self) -> usize;
}

impl<S: State> KernelRow<S> for PackedConfig {
    type Config = Config<S>;

    fn unpack(&self, states: &[S], nodes: usize, bits: u32) -> Config<S> {
        Config::from_states(
            (0..nodes)
                .map(|v| states[self.get(v, bits) as usize].clone())
                .collect(),
        )
    }

    fn heap_bytes(&self) -> usize {
        PackedConfig::heap_bytes(self)
    }
}

/// A finished dense exploration: the row graph plus the session tables
/// needed to unpack rows back into the generic configurations.
#[derive(Debug)]
pub struct KernelExploration<S: State, R = PackedConfig> {
    exploration: Exploration<R>,
    tables: Tables<S>,
    nodes: usize,
    bits: u32,
    restarts: u32,
}

impl<S: State, R: KernelRow<S>> KernelExploration<S, R> {
    /// The verdict under pseudo-stochastic fairness.
    pub fn verdict(&self) -> Verdict {
        self.exploration.verdict()
    }

    /// Number of reachable rows (identical to the generic engine's count:
    /// rows map one-to-one onto its configurations).
    pub fn len(&self) -> usize {
        self.exploration.len()
    }

    /// Whether the exploration is empty (never: the start is present).
    pub fn is_empty(&self) -> bool {
        self.exploration.is_empty()
    }

    /// Whether successor storage spilled to disk.
    pub fn was_spilled(&self) -> bool {
        self.exploration.was_spilled()
    }

    /// The underlying row exploration (edges, fixpoints, level stats).
    pub fn exploration(&self) -> &Exploration<R> {
        &self.exploration
    }

    /// Unpacks row `i` into the generic system's configuration.
    pub fn config(&self, i: usize) -> R::Config {
        self.exploration.configs()[i].unpack(self.tables.states(), self.nodes, self.bits)
    }

    /// Unpacks every row, dense by id — the differential suites compare
    /// this against the generic engine's `configs()`.
    pub fn configs_unpacked(&self) -> Vec<R::Config> {
        self.configs_of(0..self.len() as u32)
    }

    /// Unpacks the rows `ids`, in order — how certificate emission reads
    /// only the rows a witness holds.
    pub fn configs_of(&self, ids: impl IntoIterator<Item = u32>) -> Vec<R::Config> {
        ids.into_iter().map(|i| self.config(i as usize)).collect()
    }

    /// Session statistics: table sizes, δ hit counters, arena footprint.
    pub fn stats(&self) -> KernelStats {
        let arena_bytes = self
            .exploration
            .configs()
            .iter()
            .map(|c| (std::mem::size_of::<R>() + c.heap_bytes()) as u64)
            .sum();
        KernelStats {
            bits: self.bits,
            restarts: self.restarts,
            arena_bytes,
            ..self.tables.stats()
        }
    }
}

/// The smallest supported width covering state ids `0..states`.
fn width_for(states: usize) -> u32 {
    *PackedConfig::WIDTHS
        .iter()
        .find(|&&bits| states <= 1usize << bits)
        .unwrap_or(&16)
}

/// The starting width of a session: wide enough for the states seen so
/// far, but never narrower than free width. A doomed attempt costs a
/// partial re-exploration, so width is only worth rationing when it
/// costs memory: any width whose row still fits the two inline words is
/// free (no heap, same hash cost), so small graphs start at the widest
/// such width and never restart. Rows that need the heap anyway start at
/// no less than 4 bits — 16 states covers every machine in this
/// workspace's test fleet, and a restart doubles from there if not.
fn start_width(states: usize, nodes: usize) -> u32 {
    let inline_max = PackedConfig::WIDTHS
        .iter()
        .rev()
        .find(|&&bits| PackedConfig::words_for(nodes, bits) <= 2)
        .copied()
        .unwrap_or(1);
    let floor = if inline_max > 1 { inline_max } else { 4 };
    width_for(states.max(2)).max(floor)
}

/// Explores the exclusive-selection configuration space of `machine` on
/// `graph` through the dense successor kernel. Observationally identical
/// to `Exploration::explore_with(&ExclusiveSystem::new(machine, graph),
/// …)` — same interned-id order (after unpacking), same edges, same
/// verdict, same explored count — but with memoized δ steps and packed,
/// mostly allocation-free successor construction.
///
/// # Errors
///
/// [`ExploreError::TooLarge`] when `options.limit` is exhausted (the
/// kernel interns exactly as many configurations as the generic engine
/// would), and [`ExploreError::Unsupported`] in the pathological case of
/// more than 65 534 distinct reachable states (the `u16` id space; the
/// decider falls back to the generic engine on this error).
pub fn explore_kernel<S: State>(
    machine: &Machine<S>,
    graph: &Graph,
    options: ExploreOptions,
) -> Result<KernelExploration<S>, ExploreError> {
    let session = DeltaSession::new();
    let nodes = graph.node_count();
    let mut restarts = 0u32;
    loop {
        let rows = NodeRows {
            graph,
            beta: machine.beta(),
            nodes,
            bits: start_width(session.state_count(), nodes),
            overflow: Cell::new(false),
        };
        let ids = session
            .intern_all(
                machine,
                graph.nodes().map(|v| machine.initial(graph.label(v))),
            )
            .ok_or_else(exhausted)?;
        if ids.iter().all(|&id| u32::from(id) >> rows.bits == 0) {
            let start = PackedConfig::pack(ids, nodes, rows.bits);
            let exploration = explore_rows(machine, &session, &rows, start, options)?;
            if !rows.overflow.get() {
                return Ok(KernelExploration {
                    exploration,
                    tables: session.into_tables(),
                    nodes,
                    bits: rows.bits,
                    restarts,
                });
            }
        }
        // A state overflowed the field width: discard the attempt and
        // re-explore wider. The session persists, so the re-run replays
        // memoized δ lookups.
        restarts += 1;
        debug_assert!(restarts <= PackedConfig::WIDTHS.len() as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExclusiveSystem, Machine, Output};
    use wam_graph::{generators, LabelCount};

    fn flood() -> Machine<bool> {
        Machine::new(
            1,
            |l| l.0 == 1,
            |&s, n| s || n.exists(|&t| t),
            |&s| {
                if s {
                    Output::Accept
                } else {
                    Output::Reject
                }
            },
        )
    }

    /// A counter machine with a deliberately wide state space: label-1
    /// nodes walk `1..=cap` in steps of 1 while label-0 nodes stay frozen
    /// at 0 — `cap + 1` reachable states over a narrow configuration
    /// space, forcing the kernel through width restarts on large caps.
    fn ladder(cap: u32) -> Machine<u32> {
        Machine::new(
            2,
            |l| u32::from(l.0),
            move |&s, _| if s == 0 { 0 } else { (s + 1).min(cap) },
            move |&s| {
                if s >= cap {
                    Output::Accept
                } else {
                    Output::Neutral
                }
            },
        )
    }

    #[test]
    fn kernel_matches_generic_engine_on_flood() {
        let m = flood();
        for counts in [vec![3u64, 1], vec![4, 0], vec![2, 2]] {
            let g = generators::labelled_cycle(&LabelCount::from_vec(counts.clone()));
            let sys = ExclusiveSystem::new(&m, &g);
            let generic = Exploration::explore(&sys, 100_000).unwrap();
            let kernel = explore_kernel(&m, &g, ExploreOptions::with_limit(100_000)).unwrap();
            assert_eq!(kernel.len(), generic.len(), "{counts:?}");
            assert_eq!(kernel.verdict(), generic.verdict(), "{counts:?}");
            assert_eq!(kernel.configs_unpacked(), generic.configs(), "{counts:?}");
            for i in 0..generic.len() {
                assert_eq!(
                    &*kernel.exploration().successors(i),
                    &*generic.successors(i),
                    "row {i} of {counts:?}"
                );
            }
        }
    }

    #[test]
    fn kernel_restarts_on_width_overflow() {
        // 41 reachable states on a 140-node line: the row needs the heap,
        // so the session starts at the 4-bit floor and must widen to
        // 8 bits when state id 16 appears mid-exploration.
        let m = ladder(40);
        let g = generators::labelled_line(&LabelCount::from_vec(vec![139, 1]));
        let sys = ExclusiveSystem::new(&m, &g);
        let generic = Exploration::explore(&sys, 1_000_000).unwrap();
        let kernel = explore_kernel(&m, &g, ExploreOptions::with_limit(1_000_000)).unwrap();
        let stats = kernel.stats();
        assert!(stats.restarts >= 1, "expected a width restart: {stats:?}");
        assert_eq!(stats.bits, 8);
        assert_eq!(stats.states, 41);
        assert_eq!(kernel.len(), generic.len());
        assert_eq!(kernel.configs_unpacked(), generic.configs());
        assert_eq!(kernel.verdict(), generic.verdict());
    }

    #[test]
    fn kernel_stats_account_for_memoization() {
        let m = flood();
        // A star exercises both memo levels: the hub (degree 7) goes
        // through canonical signatures, the leaves (degree 1) through the
        // raw low-degree memo.
        let g = generators::labelled_star(&LabelCount::from_vec(vec![6, 2]));
        let kernel = explore_kernel(&m, &g, ExploreOptions::with_limit(100_000)).unwrap();
        let stats = kernel.stats();
        assert_eq!(stats.states, 2);
        assert!(stats.sigs >= 1 && stats.sigs <= 8, "{stats:?}");
        // Every filled entry was exactly one real δ call.
        assert_eq!(stats.delta_entries, stats.delta_misses);
        // The memo pays for itself many times over even on this tiny space.
        assert!(stats.delta_hits > stats.delta_misses * 4, "{stats:?}");
        assert!(stats.hit_rate() > 0.8, "{stats:?}");
        assert!(stats.arena_bytes > 0);
        // Inline storage makes width free: 8 nodes at 16 bits still fit
        // two inline words, so the session starts (and stays) at 16 and
        // the arena never touches the heap.
        assert_eq!(stats.bits, 16);
        assert_eq!(
            stats.arena_bytes,
            (kernel.len() * std::mem::size_of::<PackedConfig>()) as u64
        );
    }

    #[test]
    fn kernel_respects_limit_like_the_generic_engine() {
        let m = flood();
        let g = generators::labelled_line(&LabelCount::from_vec(vec![5, 1]));
        let err = explore_kernel(&m, &g, ExploreOptions::with_limit(2)).unwrap_err();
        assert!(
            matches!(err, ExploreError::TooLarge { limit: 2, .. }),
            "{err:?}"
        );
    }
}
