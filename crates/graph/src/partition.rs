//! Saturated node partitions — the combinatorial precondition that makes
//! counter abstractions of configuration spaces *exact*.
//!
//! # Saturation
//!
//! A partition `P = {C₁, …, C_k}` of the nodes of a graph `G` is
//! **saturated** when for every node `v` and every cell `C`,
//!
//! ```text
//! N(v) ∩ C ∈ { ∅, C \ {v} }
//! ```
//!
//! i.e. each node sees a cell either not at all or *entirely* (minus
//! itself). Under a saturated partition the β-clipped view of a node is a
//! function of (its own cell, its own state, the per-(cell, state) counts
//! alone): two configurations with the same count vector are related by a
//! permutation of `V` that preserves cells — and every such permutation is
//! an automorphism of `G`, because adjacency is determined cell-wise. The
//! cell-preserving permutations form a Young subgroup `Π S_{C_i} ∩ Aut(G)`
//! (here equal to the full product `Π S_{C_i}` by saturation), so the count
//! vectors are exactly the orbits of the configuration space under a
//! subgroup of `Aut(G)` — and quotienting by *any* subgroup of `Aut(G)`
//! preserves verdicts, because node-anonymous steps commute with every
//! automorphism (see `wam-core::counter`). No such structure exists on,
//! say, a long cycle: there the only saturated partition is the
//! all-singleton one and counting is genuinely unsound (`AAABBB` and `ABABAB` have equal counts but disjoint
//! reachable views).
//!
//! # The twin partition
//!
//! The canonical saturated partition computed here groups **twins**:
//!
//! * *false twins*: `N(u) = N(v)` — necessarily non-adjacent (else
//!   `u ∈ N(u)`), forming **independent** cells;
//! * *true twins*: `N[u] = N[v]` — necessarily adjacent, forming
//!   **clique** cells.
//!
//! A node cannot have both a false and a true twin (if `N(u) = N(v)` and
//! `N[u] = N[w]` with `v, w ≠ u`, then `w ∈ N(u) = N(v)` gives
//! `u ∈ N[w] ∖ {u} ⇒ u ∈ N(w) = N(u) ∖ {w} ∪ {…}` — contradiction via
//! `u ∉ N(u)`), so the two groupings merge into one well-defined
//! partition; all remaining nodes become singletons. Both twin relations
//! are equivalences, and the resulting partition is saturated by
//! construction (each cell's members have identical neighbourhoods outside
//! the cell). Labels are refined in as well: members of one cell must share
//! their node label, since the counter abstraction identifies them at time
//! zero.
//!
//! Examples: a clique is one clique cell; a star is {centre} + one
//! independent cell of leaves; complete bipartite graphs give two
//! independent cells; `C₄` gives two independent cells; cycles of length
//! ≥ 5 are all singletons.

use crate::{Graph, NodeId};
use rustc_hash::FxHashMap;

/// One cell of a [`TwinPartition`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwinCell {
    /// Sorted member node ids.
    pub members: Vec<NodeId>,
    /// `true` for a clique (true-twin) cell whose members are pairwise
    /// adjacent; `false` for an independent (false-twin) cell. Singleton
    /// cells are marked independent.
    pub closed: bool,
    /// Sorted ids of the *other* cells fully adjacent to this one.
    pub adjacent: Vec<u16>,
}

/// The twin partition of a graph: the canonical saturated partition whose
/// cells justify exact (state, cell)-count abstractions. See the module
/// documentation for the soundness argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwinPartition {
    cell_of: Vec<u16>,
    cells: Vec<TwinCell>,
}

impl TwinPartition {
    /// Computes the twin partition of `graph`.
    ///
    /// Runs in `O(Σ deg(v))` hashing plus per-bucket exact verification;
    /// no neighbour lists are copied for the false-twin grouping.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than `u16::MAX` twin cells (graphs that
    /// large have no business being partitioned for exact exploration).
    pub fn of(graph: &Graph) -> Self {
        let n = graph.node_count();
        let mut assigned: Vec<Option<u16>> = vec![None; n];
        let mut groups: Vec<(Vec<NodeId>, bool)> = Vec::new();

        // False twins: group by the borrowed sorted neighbour slice — exact,
        // zero-copy. Refine by label so cells are label-homogeneous.
        let mut open: FxHashMap<(&[NodeId], u32), Vec<NodeId>> = FxHashMap::default();
        for v in graph.nodes() {
            open.entry((graph.neighbours(v), graph.label(v).index() as u32))
                .or_default()
                .push(v);
        }
        for (_, members) in open {
            if members.len() >= 2 {
                groups.push((members, false));
            }
        }

        // True twins: bucket by (label, degree, commutative fingerprint of
        // N[v]), then split buckets exactly with `true_twins`. Collisions
        // only cost time, never correctness.
        let mut closed: FxHashMap<(u32, usize, u64), Vec<NodeId>> = FxHashMap::default();
        for v in graph.nodes() {
            let fp = fingerprint(v)
                ^ graph
                    .neighbours(v)
                    .iter()
                    .fold(0, |a, &w| a ^ fingerprint(w));
            closed
                .entry((graph.label(v).index() as u32, graph.degree(v), fp))
                .or_default()
                .push(v);
        }
        for (_, bucket) in closed {
            let mut classes: Vec<Vec<NodeId>> = Vec::new();
            for v in bucket {
                match classes.iter_mut().find(|c| true_twins(graph, c[0], v)) {
                    Some(c) => c.push(v),
                    None => classes.push(vec![v]),
                }
            }
            for class in classes {
                if class.len() >= 2 {
                    groups.push((class, true));
                }
            }
        }

        // Deterministic cell order: by smallest member. The two groupings
        // are disjoint (a node has no false and true twin simultaneously),
        // which the assignment below asserts.
        groups.sort_by_key(|(members, _)| members[0]);
        let mut cells = Vec::new();
        for (mut members, is_closed) in groups {
            members.sort_unstable();
            let id = u16::try_from(cells.len()).expect("too many twin cells");
            for &v in &members {
                assert!(
                    assigned[v].is_none(),
                    "node {v} is in two nontrivial twin classes"
                );
                assigned[v] = Some(id);
            }
            cells.push(TwinCell {
                members,
                closed: is_closed,
                adjacent: Vec::new(),
            });
        }
        for (v, slot) in assigned.iter_mut().enumerate() {
            if slot.is_none() {
                let id = u16::try_from(cells.len()).expect("too many twin cells");
                *slot = Some(id);
                cells.push(TwinCell {
                    members: vec![v],
                    closed: false,
                    adjacent: Vec::new(),
                });
            }
        }
        let cell_of: Vec<u16> = assigned.into_iter().map(|c| c.unwrap()).collect();

        // Cell adjacency from any representative: saturation makes the
        // choice irrelevant, which `check_saturated` re-verifies in debug.
        for (c, cell) in cells.iter_mut().enumerate() {
            let rep = cell.members[0];
            let mut adj: Vec<u16> = graph
                .neighbours(rep)
                .iter()
                .map(|&w| cell_of[w])
                .filter(|&d| d as usize != c)
                .collect();
            adj.sort_unstable();
            adj.dedup();
            cell.adjacent = adj;
        }

        let partition = TwinPartition { cell_of, cells };
        debug_assert!(partition.check_saturated(graph));
        partition
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// The cell id of node `v`.
    pub fn cell_of(&self, v: NodeId) -> u16 {
        self.cell_of[v]
    }

    /// All cells, indexed by cell id.
    pub fn cells(&self) -> &[TwinCell] {
        &self.cells
    }

    /// The cell with id `c`.
    pub fn cell(&self, c: u16) -> &TwinCell {
        &self.cells[c as usize]
    }

    /// Whether cells `c` and `d` are fully adjacent (`c ≠ d`), or — for
    /// `c == d` — whether the cell is a clique cell.
    pub fn cells_adjacent(&self, c: u16, d: u16) -> bool {
        if c == d {
            self.cells[c as usize].closed
        } else {
            self.cells[c as usize].adjacent.binary_search(&d).is_ok()
        }
    }

    /// Whether the partition actually compresses: some cell has ≥ 2
    /// members. On twin-free graphs (e.g. cycles of length ≥ 5) the
    /// partition is all singletons and the counter abstraction degenerates
    /// to the explicit space — constructors reject that case.
    pub fn is_compressing(&self) -> bool {
        self.cells.iter().any(|c| c.members.len() >= 2)
    }

    /// The size of the largest cell.
    pub fn max_cell_size(&self) -> usize {
        self.cells
            .iter()
            .map(|c| c.members.len())
            .max()
            .unwrap_or(0)
    }

    /// Exhaustively verifies the saturation property against `graph`:
    /// every node sees every cell either fully (minus itself) or not at
    /// all, clique cells are cliques, independent cells are independent,
    /// and cells are label-homogeneous. `O(Σ deg(v))`. Used as a
    /// constructor debug-assertion and by the differential test suite.
    pub fn check_saturated(&self, graph: &Graph) -> bool {
        if self.cell_of.len() != graph.node_count() {
            return false;
        }
        let mut seen = vec![0u64; self.cells.len()];
        for v in graph.nodes() {
            seen.fill(0);
            for &w in graph.neighbours(v) {
                seen[self.cell_of[w] as usize] += 1;
            }
            for (c, cell) in self.cells.iter().enumerate() {
                let own = c == self.cell_of[v] as usize;
                let full = cell.members.len() as u64 - u64::from(own);
                let expected_full = if own {
                    cell.closed
                } else {
                    self.cells_adjacent(self.cell_of[v], c as u16)
                };
                let expected = if expected_full { full } else { 0 };
                if seen[c] != expected {
                    return false;
                }
            }
        }
        self.cells.iter().all(|cell| {
            cell.members
                .iter()
                .all(|&v| graph.label(v) == graph.label(cell.members[0]))
        })
    }
}

/// Exact true-twin test: `N[u] = N[v]`, i.e. `u ~ v` and
/// `N(u) ∖ {v} = N(v) ∖ {u}` (one synchronised walk over two sorted
/// slices).
fn true_twins(graph: &Graph, u: NodeId, v: NodeId) -> bool {
    if u == v {
        return true;
    }
    if !graph.has_edge(u, v) {
        return false;
    }
    let mut a = graph.neighbours(u).iter().filter(|&&w| w != v);
    let mut b = graph.neighbours(v).iter().filter(|&&w| w != u);
    loop {
        match (a.next(), b.next()) {
            (None, None) => return true,
            (Some(x), Some(y)) if x == y => continue,
            _ => return false,
        }
    }
}

/// Commutative per-node hash for closed-neighbourhood fingerprints.
fn fingerprint(v: NodeId) -> u64 {
    let mut x = v as u64 ^ 0x9e37_79b9_7f4a_7c15;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, GraphBuilder, LabelCount};

    #[test]
    fn clique_is_one_closed_cell() {
        let g = generators::labelled_clique(&LabelCount::from_vec(vec![5]));
        let p = TwinPartition::of(&g);
        assert_eq!(p.cell_count(), 1);
        assert!(p.cell(0).closed);
        assert_eq!(p.cell(0).members.len(), 5);
        assert!(p.is_compressing());
        assert!(p.check_saturated(&g));
    }

    #[test]
    fn two_label_clique_splits_by_label() {
        let g = generators::labelled_clique(&LabelCount::from_vec(vec![3, 2]));
        let p = TwinPartition::of(&g);
        assert_eq!(p.cell_count(), 2);
        assert!(p.cells().iter().all(|c| c.closed));
        assert!(p.cells_adjacent(0, 1));
        assert!(p.check_saturated(&g));
    }

    #[test]
    fn star_is_centre_plus_leaves() {
        let g = generators::labelled_star(&LabelCount::from_vec(vec![6]));
        let p = TwinPartition::of(&g);
        assert_eq!(p.cell_count(), 2);
        let leaves = p.cells().iter().find(|c| c.members.len() == 5).unwrap();
        assert!(!leaves.closed);
        assert!(p.is_compressing());
        assert!(p.check_saturated(&g));
    }

    #[test]
    fn long_cycles_have_no_twins() {
        for n in [5u64, 6, 9] {
            let g = generators::labelled_cycle(&LabelCount::from_vec(vec![n]));
            let p = TwinPartition::of(&g);
            assert_eq!(p.cell_count(), n as usize);
            assert!(!p.is_compressing());
            assert!(p.check_saturated(&g));
        }
    }

    #[test]
    fn c4_splits_into_two_independent_cells() {
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![4]));
        let p = TwinPartition::of(&g);
        assert_eq!(p.cell_count(), 2);
        assert!(p.cells().iter().all(|c| !c.closed && c.members.len() == 2));
        assert!(p.cells_adjacent(0, 1));
        assert!(!p.cells_adjacent(0, 0));
        assert!(p.check_saturated(&g));
    }

    #[test]
    fn triangle_with_pendant_mixes_cell_kinds() {
        // Nodes 0,1 are true twins (adjacent, same closed neighbourhood);
        // 2 (attachment) and 3 (pendant) are singletons.
        let ab = crate::Alphabet::new(["a"]);
        let a = ab.label("a").unwrap();
        let g = GraphBuilder::new(ab)
            .nodes([a, a, a, a])
            .edge(0, 1)
            .edge(0, 2)
            .edge(1, 2)
            .edge(2, 3)
            .build()
            .unwrap();
        let p = TwinPartition::of(&g);
        assert_eq!(p.cell_count(), 3);
        let pair = p.cells().iter().find(|c| c.members == vec![0, 1]).unwrap();
        assert!(pair.closed);
        assert!(p.check_saturated(&g));
    }

    #[test]
    fn complete_bipartite_is_two_open_cells() {
        let ab = crate::Alphabet::new(["a"]);
        let a = ab.label("a").unwrap();
        let mut b = GraphBuilder::new(ab).nodes([a; 5]);
        for u in 0..2 {
            for v in 2..5 {
                b = b.edge(u, v);
            }
        }
        let g = b.build().unwrap();
        let p = TwinPartition::of(&g);
        assert_eq!(p.cell_count(), 2);
        assert!(p.cells().iter().all(|c| !c.closed));
        assert!(p.check_saturated(&g));
    }

    #[test]
    fn saturation_check_rejects_wrong_partition() {
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![6]));
        // Deliberately wrong: pretend opposite nodes are one cell.
        let bogus = TwinPartition {
            cell_of: vec![0, 1, 2, 0, 1, 2],
            cells: (0u16..3)
                .map(|c| TwinCell {
                    members: vec![c as usize, c as usize + 3],
                    closed: false,
                    adjacent: (0..3).filter(|&d| d != c).collect(),
                })
                .collect(),
        };
        assert!(!bogus.check_saturated(&g));
    }
}
