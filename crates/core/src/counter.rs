//! Counter-abstracted configuration spaces: dense count vectors over
//! (twin-cell, state) pairs, plus the run-length ring abstraction for
//! cycles.
//!
//! # The abstraction
//!
//! On a graph whose [`TwinPartition`] has non-singleton cells, a
//! configuration `C : V → Q` can be replaced by its **count vector**
//! `#C : (cell, state) → ℕ`. Under a *saturated* partition (which the twin
//! partition is by construction — see `wam_graph::partition`) the clipped
//! view of a node depends only on its own cell, its own state and `#C`:
//! every other cell is seen either fully or not at all. Two configurations
//! with equal count vectors are therefore related by a cell-preserving
//! node permutation, and every cell-preserving permutation is an
//! automorphism of the graph. The counter space is exactly the orbit
//! quotient of the configuration space under that Young subgroup of
//! `Aut(G)`. Steps are node-anonymous (a node reads its own state and the
//! clipped multiset of its neighbours' states), so the successor relation
//! commutes with every automorphism and consensus is constant on orbits:
//! exploring the quotient preserves `Pre*`, the stable-consensus sets, and
//! the verdict — while collapsing `|Q|^n` configurations to
//! `O(n^{|Q|·cells})` count vectors.
//!
//! Successors apply **single-node** count moves: one node of cell `o`
//! steps from `p` to `q = δ(p, view)`, i.e. `#C' = #C - (o,p) + (o,q)`.
//! Batched Presburger moves (`k ≥ 1` nodes at once) reach the same final
//! counts but *skip the intermediate vectors*, which the stable-consensus
//! fixpoints must see — so exactness demands `k = 1`; the batched variant
//! is sound only for plain reachability, not for verdicts.
//!
//! The precondition is rejected, not assumed: [`CounterSystem::new`]
//! returns [`CounterError::NoTwins`] on twin-free graphs (e.g. cycles of
//! length ≥ 5), where counting is genuinely unsound — on a 6-cycle,
//! `AAABBB` and `ABABAB` have equal counts but disjoint view sets.
//!
//! # Rings
//!
//! Cycles get their own exact abstraction instead: a [`RingConfig`] is the
//! run-length encoding of the state word around the cycle, canonicalised
//! under rotation and reflection of the run list. That is *structurally*
//! the orbit quotient under the full dihedral group `Aut(C_n) = D_n`, but
//! costs `O(m²)` on `m` runs per canonicalisation instead of enumerating
//! the `2n` group elements against `n`-vectors — which is what lets the
//! flood-family predicates run on 10³–10⁴-node cycles.

use crate::explore::TransitionSystem;
use crate::{Machine, Neighbourhood, Output, State};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use wam_graph::{Graph, NodeId, TwinPartition};

/// Why a counter-abstracted backend refused a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CounterError {
    /// The twin partition of the graph is all singletons, so the count
    /// abstraction neither compresses nor (on e.g. long cycles) stays
    /// sound. Contains the node count of the offending graph.
    NoTwins {
        /// Number of nodes of the rejected graph.
        nodes: usize,
    },
    /// The graph is not a single cycle (some node has degree ≠ 2), so the
    /// ring abstraction does not apply.
    NotACycle,
}

impl fmt::Display for CounterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CounterError::NoTwins { nodes } => write!(
                f,
                "twin partition of the {nodes}-node graph is all singletons: \
                 the counter abstraction would be unsound"
            ),
            CounterError::NotACycle => f.write_str("graph is not a single cycle"),
        }
    }
}

impl Error for CounterError {}

/// A count vector `(cell, state) → ℕ`: the counter abstraction of a
/// configuration. Entries are sorted by `(cell, state)` and strictly
/// positive, so equal multisets are structurally equal.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CounterConfig<S> {
    entries: Vec<(u16, S, u64)>,
}

impl<S: State> CounterConfig<S> {
    /// Builds a count vector from `(cell, state, count)` triples,
    /// aggregating duplicates and dropping zero counts.
    pub fn from_entries<I: IntoIterator<Item = (u16, S, u64)>>(entries: I) -> Self {
        let mut agg: BTreeMap<(u16, S), u64> = BTreeMap::new();
        for (cell, state, count) in entries {
            if count > 0 {
                *agg.entry((cell, state)).or_default() += count;
            }
        }
        CounterConfig {
            entries: agg.into_iter().map(|((o, s), c)| (o, s, c)).collect(),
        }
    }

    /// The sorted `(cell, state, count)` entries, counts ≥ 1.
    pub fn entries(&self) -> &[(u16, S, u64)] {
        &self.entries
    }

    /// Total node count `Σ counts`.
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|(_, _, c)| c).sum()
    }

    /// The count of nodes of `cell` in `state`.
    pub fn count(&self, cell: u16, state: &S) -> u64 {
        self.entries
            .iter()
            .find(|(o, s, _)| *o == cell && s == state)
            .map(|(_, _, c)| *c)
            .unwrap_or(0)
    }

    /// The vector with `delta` applied: each `((cell, state), d)` adds `d`
    /// to that entry. Used by the rendezvous counter backend in
    /// `wam-extensions` as well as [`CounterSystem`] itself.
    ///
    /// The delta is aggregated per key first (so a key may repeat, and
    /// only its net change must keep the entry non-negative), then patched
    /// into a copy of the sorted entries by binary search: a count changes
    /// in place, an entry reaching zero is removed, a fresh key is
    /// inserted at its sorted position.
    ///
    /// # Panics
    ///
    /// Panics if any entry would go negative.
    pub fn adjust<I: IntoIterator<Item = ((u16, S), i64)>>(&self, delta: I) -> Self {
        let mut moves: Vec<((u16, S), i64)> = delta.into_iter().collect();
        moves.sort_by(|a, b| a.0.cmp(&b.0));
        let mut entries = self.entries.clone();
        let mut i = 0;
        while i < moves.len() {
            let mut d = moves[i].1;
            let mut j = i + 1;
            while j < moves.len() && moves[j].0 == moves[i].0 {
                d += moves[j].1;
                j += 1;
            }
            let (cell, state) = &moves[i].0;
            let found = entries.binary_search_by(|(o, s, _)| (o, s).cmp(&(cell, state)));
            let current = found.map_or(0, |k| entries[k].2 as i64);
            let next = current + d;
            assert!(next >= 0, "count vector entry went negative");
            match found {
                Ok(k) if next == 0 => {
                    entries.remove(k);
                }
                Ok(k) => entries[k].2 = next as u64,
                Err(k) if next > 0 => entries.insert(k, (*cell, state.clone(), next as u64)),
                Err(_) => {}
            }
            i = j;
        }
        CounterConfig { entries }
    }
}

/// The counter-abstracted transition system of a plain machine under
/// exclusive selection: configurations are [`CounterConfig`] vectors over
/// the graph's [`TwinPartition`], successors move one node at a time.
/// Exact — orbit-equivalent to [`ExclusiveSystem`](crate::ExclusiveSystem)
/// — by the saturation argument in the module docs.
#[derive(Debug)]
pub struct CounterSystem<'a, S: State> {
    machine: &'a Machine<S>,
    graph: &'a Graph,
    partition: TwinPartition,
}

impl<'a, S: State> CounterSystem<'a, S> {
    /// Wraps a machine and a graph, computing the twin partition.
    ///
    /// # Errors
    ///
    /// [`CounterError::NoTwins`] if the partition is all singletons
    /// (abstraction would be useless and, in general, unsound to coarsen).
    pub fn new(machine: &'a Machine<S>, graph: &'a Graph) -> Result<Self, CounterError> {
        let partition = TwinPartition::of(graph);
        if !partition.is_compressing() {
            return Err(CounterError::NoTwins {
                nodes: graph.node_count(),
            });
        }
        Ok(CounterSystem {
            machine,
            graph,
            partition,
        })
    }

    /// The wrapped machine.
    pub fn machine(&self) -> &'a Machine<S> {
        self.machine
    }

    /// The communication graph.
    pub fn graph(&self) -> &'a Graph {
        self.graph
    }

    /// The saturated partition the counts run over.
    pub fn partition(&self) -> &TwinPartition {
        &self.partition
    }

    /// The abstraction map α: the count vector of an explicit
    /// configuration (used by the differential suite).
    pub fn abstract_config(&self, states: &[S]) -> CounterConfig<S> {
        assert_eq!(states.len(), self.graph.node_count());
        CounterConfig::from_entries(
            states
                .iter()
                .enumerate()
                .map(|(v, s)| (self.partition.cell_of(v), s.clone(), 1)),
        )
    }

    /// The β-clipped view of a node of `cell` in state `state` under `c` —
    /// well defined by saturation.
    fn view(&self, c: &CounterConfig<S>, cell: u16, state: &S) -> Neighbourhood<S> {
        let counts = c.entries().iter().filter_map(|(o, q, k)| {
            let k = if *o == cell {
                if !self.partition.cell(cell).closed {
                    return None; // own independent cell: members not adjacent
                }
                k - u64::from(q == state) // clique cell: all members minus self
            } else if self.partition.cells_adjacent(cell, *o) {
                *k
            } else {
                return None;
            };
            Some((q.clone(), k))
        });
        Neighbourhood::from_counts(counts, self.machine.beta())
    }

    fn consensus(&self, c: &CounterConfig<S>, want: Output) -> bool {
        c.entries()
            .iter()
            .all(|(_, s, _)| self.machine.output(s) == want)
    }
}

impl<S: State> TransitionSystem for CounterSystem<'_, S> {
    type C = CounterConfig<S>;

    fn initial_config(&self) -> CounterConfig<S> {
        CounterConfig::from_entries(self.graph.nodes().map(|v| {
            (
                self.partition.cell_of(v),
                self.machine.initial(self.graph.label(v)),
                1,
            )
        }))
    }

    fn successors(&self, c: &CounterConfig<S>) -> Vec<CounterConfig<S>> {
        let mut out = Vec::new();
        for (cell, p, _) in c.entries() {
            let view = self.view(c, *cell, p);
            let q = self.machine.step(p, &view);
            if q != *p {
                out.push(c.adjust([((*cell, p.clone()), -1), ((*cell, q), 1)]));
            }
        }
        out
    }

    fn is_accepting(&self, c: &CounterConfig<S>) -> bool {
        self.consensus(c, Output::Accept)
    }

    fn is_rejecting(&self, c: &CounterConfig<S>) -> bool {
        self.consensus(c, Output::Reject)
    }
}

/// A necklace: the run-length encoding of the state word around a cycle,
/// canonical under rotation and reflection of the run list. Two explicit
/// cycle configurations map to the same `RingConfig` iff they are related
/// by an element of the dihedral group `D_n = Aut(C_n)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RingConfig<S> {
    runs: Vec<(S, u32)>,
}

impl<S: State> RingConfig<S> {
    /// Builds the canonical necklace of a state word (in cycle order).
    ///
    /// # Panics
    ///
    /// Panics if `word` is empty.
    pub fn from_word(word: &[S]) -> Self {
        assert!(!word.is_empty(), "empty ring");
        let mut runs: Vec<(S, u32)> = Vec::new();
        for s in word {
            match runs.last_mut() {
                Some((t, c)) if t == s => *c += 1,
                _ => runs.push((s.clone(), 1)),
            }
        }
        Self::normalise(runs)
    }

    /// Builds the canonical necklace from a run list (states with positive
    /// lengths, in cycle order). Zero-length runs are dropped, adjacent
    /// equal-state runs merged; the input need not be canonical.
    pub fn from_runs<I: IntoIterator<Item = (S, u32)>>(runs: I) -> Self {
        Self::normalise(runs.into_iter().collect())
    }

    /// Merges adjacent equal-state runs (including across the wraparound)
    /// and canonicalises under rotation + reflection.
    fn normalise(mut runs: Vec<(S, u32)>) -> Self {
        runs.retain(|&(_, c)| c > 0);
        // Merge adjacent duplicates left over from surgery.
        let mut merged: Vec<(S, u32)> = Vec::with_capacity(runs.len());
        for (s, c) in runs {
            match merged.last_mut() {
                Some((t, acc)) if *t == s => *acc += c,
                _ => merged.push((s, c)),
            }
        }
        // Wraparound merge.
        while merged.len() >= 2 && merged.first().map(|(s, _)| s) == merged.last().map(|(s, _)| s) {
            let (_, c) = merged.pop().unwrap();
            merged[0].1 += c;
        }
        // Canonical form: lexicographic minimum over all rotations of the
        // run list and of its reversal. O(m²) on m runs.
        if merged.len() <= 1 {
            return RingConfig { runs: merged };
        }
        let mut best = merged.clone();
        let mut reversed = merged.clone();
        reversed.reverse();
        for candidate in [&merged, &reversed] {
            for shift in 0..candidate.len() {
                let mut rotated: Vec<(S, u32)> = Vec::with_capacity(candidate.len());
                rotated.extend_from_slice(&candidate[shift..]);
                rotated.extend_from_slice(&candidate[..shift]);
                if rotated < best {
                    best = rotated;
                }
            }
        }
        RingConfig { runs: best }
    }

    /// The canonical run list.
    pub fn runs(&self) -> &[(S, u32)] {
        &self.runs
    }

    /// Total node count `Σ run lengths`.
    pub fn total(&self) -> u64 {
        self.runs.iter().map(|&(_, c)| c as u64).sum()
    }
}

/// The ring transition system: exclusive-selection machine semantics on a
/// cycle, explored over canonical necklaces — structurally the orbit
/// quotient under the full dihedral group, exact for every machine.
#[derive(Debug)]
pub struct RingSystem<'a, S: State> {
    machine: &'a Machine<S>,
    graph: &'a Graph,
    /// Node ids in cycle order (node order in the `Graph` need not be).
    order: Vec<NodeId>,
}

impl<'a, S: State> RingSystem<'a, S> {
    /// Wraps a machine and a cycle graph.
    ///
    /// # Errors
    ///
    /// [`CounterError::NotACycle`] if some node has degree ≠ 2. (Connected
    /// 2-regular graphs are single cycles, and `Graph` is connected by
    /// construction.)
    pub fn new(machine: &'a Machine<S>, graph: &'a Graph) -> Result<Self, CounterError> {
        if graph.nodes().any(|v| graph.degree(v) != 2) {
            return Err(CounterError::NotACycle);
        }
        // Walk the cycle from node 0.
        let mut order = Vec::with_capacity(graph.node_count());
        let (mut prev, mut cur) = (0, 0);
        loop {
            order.push(cur);
            let ns = graph.neighbours(cur);
            let next = if ns[0] != prev { ns[0] } else { ns[1] };
            prev = cur;
            cur = next;
            if cur == 0 {
                break;
            }
        }
        debug_assert_eq!(order.len(), graph.node_count());
        Ok(RingSystem {
            machine,
            graph,
            order,
        })
    }

    /// The wrapped machine.
    pub fn machine(&self) -> &'a Machine<S> {
        self.machine
    }

    /// The communication graph.
    pub fn graph(&self) -> &'a Graph {
        self.graph
    }

    /// The abstraction map α: the canonical necklace of an explicit
    /// configuration (`states` indexed by node id).
    pub fn abstract_config(&self, states: &[S]) -> RingConfig<S> {
        assert_eq!(states.len(), self.graph.node_count());
        let word: Vec<S> = self.order.iter().map(|&v| states[v].clone()).collect();
        RingConfig::from_word(&word)
    }

    fn view(&self, a: &S, b: &S) -> Neighbourhood<S> {
        Neighbourhood::from_states([a.clone(), b.clone()], self.machine.beta())
    }

    /// The run list with run `i` replaced by `patch`, re-normalised.
    fn surgery(&self, runs: &[(S, u32)], i: usize, patch: &[(S, u32)]) -> RingConfig<S> {
        let mut next: Vec<(S, u32)> = Vec::with_capacity(runs.len() + patch.len());
        next.extend_from_slice(&runs[..i]);
        next.extend_from_slice(patch);
        next.extend_from_slice(&runs[i + 1..]);
        RingConfig::normalise(next)
    }

    fn consensus(&self, c: &RingConfig<S>, want: Output) -> bool {
        c.runs().iter().all(|(s, _)| self.machine.output(s) == want)
    }
}

impl<S: State> TransitionSystem for RingSystem<'_, S> {
    type C = RingConfig<S>;

    fn initial_config(&self) -> RingConfig<S> {
        let word: Vec<S> = self
            .order
            .iter()
            .map(|&v| self.machine.initial(self.graph.label(v)))
            .collect();
        RingConfig::from_word(&word)
    }

    fn successors(&self, c: &RingConfig<S>) -> Vec<RingConfig<S>> {
        let runs = c.runs();
        let m = runs.len();
        let mut out = Vec::new();
        for i in 0..m {
            let (p, len) = &runs[i];
            let (len, p) = (*len, p);
            // Neighbouring states of this run's boundary nodes; for a
            // single run the whole cycle is in state p.
            let a = &runs[(i + m - 1) % m].0;
            let b = &runs[(i + 1) % m].0;
            let (a, b) = if m == 1 { (p, p) } else { (a, b) };
            if len == 1 {
                let q = self.machine.step(p, &self.view(a, b));
                if q != *p {
                    out.push(self.surgery(runs, i, &[(q, 1)]));
                }
            } else {
                // Left boundary node: sees a and p.
                let q = self.machine.step(p, &self.view(a, p));
                if q != *p {
                    out.push(self.surgery(runs, i, &[(q.clone(), 1), (p.clone(), len - 1)]));
                }
                // Right boundary node: sees p and b.
                let q = self.machine.step(p, &self.view(p, b));
                if q != *p {
                    out.push(self.surgery(runs, i, &[(p.clone(), len - 1), (q, 1)]));
                }
                // Interior nodes: see {p, p}; each split position is a
                // distinct successor necklace.
                if len >= 3 {
                    let q = self.machine.step(p, &self.view(p, p));
                    if q != *p {
                        for k in 1..=len - 2 {
                            out.push(self.surgery(
                                runs,
                                i,
                                &[(p.clone(), k), (q.clone(), 1), (p.clone(), len - 1 - k)],
                            ));
                        }
                    }
                }
            }
        }
        out
    }

    fn is_accepting(&self, c: &RingConfig<S>) -> bool {
        self.consensus(c, Output::Accept)
    }

    fn is_rejecting(&self, c: &RingConfig<S>) -> bool {
        self.consensus(c, Output::Reject)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Exploration, Verdict};
    use wam_graph::{generators, LabelCount};

    fn flood() -> Machine<bool> {
        Machine::new(
            1,
            |l| l.0 == 1,
            |&s, n| s || n.exists(|&t| t),
            |&s| if s { Output::Accept } else { Output::Reject },
        )
    }

    #[test]
    fn counter_rejects_twin_free_graphs() {
        let m = flood();
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![5, 1]));
        assert_eq!(
            CounterSystem::new(&m, &g).err(),
            Some(CounterError::NoTwins { nodes: 6 })
        );
    }

    #[test]
    fn counter_flood_on_clique_matches_explicit_verdict() {
        let m = flood();
        for counts in [vec![3u64, 1], vec![4, 0], vec![2, 2]] {
            let g = generators::labelled_clique(&LabelCount::from_vec(counts.clone()));
            let sys = CounterSystem::new(&m, &g).unwrap();
            let e = Exploration::explore(&sys, 100_000).unwrap();
            let expect = Exploration::explore(&crate::ExclusiveSystem::new(&m, &g), 100_000)
                .unwrap()
                .verdict();
            assert_eq!(e.verdict(), expect, "{counts:?}");
        }
    }

    #[test]
    fn counter_space_is_small_on_large_cliques() {
        // Flood on an n-clique: counts of (true, false) with true ≥ 1 once
        // seeded — the reachable counter space is O(n), not O(2ⁿ).
        let m = flood();
        let g = generators::labelled_clique(&LabelCount::from_vec(vec![40, 1]));
        let sys = CounterSystem::new(&m, &g).unwrap();
        let e = Exploration::explore(&sys, 10_000).unwrap();
        assert_eq!(e.verdict(), Verdict::Accepts);
        assert!(e.len() <= 42, "len = {}", e.len());
    }

    #[test]
    fn abstraction_map_respects_initial() {
        let m = flood();
        let g = generators::labelled_star(&LabelCount::from_vec(vec![4, 2]));
        let sys = CounterSystem::new(&m, &g).unwrap();
        let explicit = crate::Config::initial(&m, &g);
        assert_eq!(sys.abstract_config(explicit.states()), sys.initial_config());
    }

    #[test]
    fn ring_rejects_non_cycles() {
        let m = flood();
        let g = generators::labelled_star(&LabelCount::from_vec(vec![4]));
        assert_eq!(RingSystem::new(&m, &g).err(), Some(CounterError::NotACycle));
    }

    #[test]
    fn ring_flood_matches_explicit_on_small_cycles() {
        let m = flood();
        for counts in [vec![5u64, 1], vec![6, 0], vec![3, 3], vec![2, 2]] {
            let g = generators::labelled_cycle(&LabelCount::from_vec(counts.clone()));
            let sys = RingSystem::new(&m, &g).unwrap();
            let e = Exploration::explore(&sys, 100_000).unwrap();
            let expect = Exploration::explore(&crate::ExclusiveSystem::new(&m, &g), 1_000_000)
                .unwrap()
                .verdict();
            assert_eq!(e.verdict(), expect, "{counts:?}");
        }
    }

    #[test]
    fn ring_flood_scales_to_large_cycles() {
        // Reachable necklaces of flooding on C_n: O(n) runs-of-true arcs.
        let m = flood();
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![200, 1]));
        let sys = RingSystem::new(&m, &g).unwrap();
        let e = Exploration::explore(&sys, 100_000).unwrap();
        assert_eq!(e.verdict(), Verdict::Accepts);
        assert!(e.len() <= 2 * 201, "len = {}", e.len());
    }

    #[test]
    fn necklace_canonical_under_rotation_and_reflection() {
        let w1 = [0u8, 0, 1, 2];
        let w2 = [1u8, 2, 0, 0]; // rotation
        let w3 = [2u8, 1, 0, 0]; // reflection
        let c1 = RingConfig::from_word(&w1);
        assert_eq!(c1, RingConfig::from_word(&w2));
        assert_eq!(c1, RingConfig::from_word(&w3));
        assert_eq!(c1.total(), 4);
        // But a genuinely different necklace stays different.
        let w4 = [0u8, 1, 0, 2];
        assert_ne!(c1, RingConfig::from_word(&w4));
    }

    #[test]
    fn counter_config_adjust_aggregates_duplicate_keys() {
        let c = CounterConfig::from_entries([(0u16, 'a', 3), (1, 'b', 1)]);
        // Two moves out of (0, a) and one back in: net -1.
        let moved = c.adjust([((0, 'a'), -1), ((0, 'a'), -1), ((0, 'a'), 1), ((1, 'c'), 1)]);
        assert_eq!(moved.entries(), &[(0, 'a', 2), (1, 'b', 1), (1, 'c', 1)]);
        // A key that dips below zero mid-delta is fine if its net is not.
        let absent = c.adjust([((0, 'z'), -1), ((0, 'z'), 2)]);
        assert_eq!(absent.count(0, &'z'), 1);
        // Cancelling moves on an absent key leave no zero entry behind.
        assert_eq!(c.adjust([((2, 'q'), 1), ((2, 'q'), -1)]), c);
    }

    #[test]
    fn counter_config_adjust_removes_entries_that_drop_to_zero() {
        let c = CounterConfig::from_entries([(0u16, 'a', 1), (0, 'b', 2), (1, 'a', 1)]);
        let moved = c.adjust([((0, 'a'), -1), ((1, 'a'), -1), ((0, 'b'), 2)]);
        assert_eq!(moved.entries(), &[(0, 'b', 4)]);
        assert_eq!(moved.count(0, &'a'), 0);
        assert_eq!(moved.total(), c.total());
    }

    #[test]
    #[should_panic(expected = "count vector entry went negative")]
    fn counter_config_adjust_panics_on_negative_counts() {
        let c = CounterConfig::from_entries([(0u16, 'a', 1)]);
        let _ = c.adjust([((0, 'a'), -2), ((0, 'b'), 2)]);
    }

    #[test]
    fn counter_config_adjust_roundtrips() {
        let c = CounterConfig::from_entries([(0u16, 'a', 3), (1, 'b', 1)]);
        let moved = c.adjust([((0, 'a'), -1), ((0, 'c'), 1)]);
        assert_eq!(moved.count(0, &'a'), 2);
        assert_eq!(moved.count(0, &'c'), 1);
        assert_eq!(moved.total(), 4);
        let back = moved.adjust([((0, 'c'), -1), ((0, 'a'), 1)]);
        assert_eq!(back, c);
    }
}
