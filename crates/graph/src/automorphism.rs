//! Canonical forms of labelled graphs: the key under which the
//! `wam-analysis` verdict store reuses verdicts across isomorphic witness
//! graphs.
//!
//! [`canonical_form`] relabels a graph canonically (equal forms for
//! isomorphic graphs), working on the graph's **twin quotient**: one vertex
//! per cell of the [`TwinPartition`] (nodes with the same label and the
//! same neighbours apart from each other), coloured by
//! `(label, cell size, clique cell?)` and adjacent where the cells are.
//! Isomorphisms map twin cells onto twin cells, so two graphs are
//! isomorphic exactly when their coloured quotients are. The quotient is
//! canonicalised by a lex-least certificate search, pruned by colour
//! refinement (1-WL) and by the orbits of the quotient's labelled
//! automorphism group, which a backtracking search over the refined colour
//! classes enumerates. The canonical cell order is then expanded back to
//! node positions, each cell's members placed consecutively.
//!
//! A clique or star of up to `u16::MAX` nodes collapses to one or two
//! quotient vertices, so its factorial `Aut(G)` is never enumerated;
//! twin-free graphs (cycles of length ≥ 5, lines of length ≥ 4) are their
//! own quotient. The form falls back to the identity relabelling (flagged
//! inexact) when the graph has more than `u16::MAX` nodes, the quotient has
//! more than 64 vertices, its labelled group exceeds `GROUP_CAP`, or the
//! search exhausts its budget. Either form is sound as a memoisation key,
//! because keys coincide only on isomorphic graphs. Past 64 nodes, a graph
//! whose first 65 nodes have no twin falls back before any partition is
//! built.

use crate::{Graph, TwinPartition};
use rustc_hash::FxHashSet;
use std::cmp::Ordering;

/// Cap on the order of the automorphism group the canonical-form search
/// enumerates for orbit pruning. A larger group makes the search fall back
/// to the identity relabelling — a weaker memoisation key, never an
/// unsound one.
const GROUP_CAP: usize = 10_000;

/// Budget on backtracking search nodes for both the group enumeration and
/// the canonical-form search. Exceeding it triggers the same sound
/// fallback as exceeding the group cap.
const SEARCH_BUDGET: usize = 1_000_000;

/// The adjacency the searches below run on, borrowed in CSR form: the
/// sorted neighbours of `v` are `adj[offsets[v]..offsets[v + 1]]`. The
/// searches run on twin quotients, which may have fewer than the three
/// nodes a [`Graph`] requires, so each quotient builds a pair of its own;
/// the unit tests borrow a `Graph`'s.
#[derive(Clone, Copy)]
struct Adjacency<'a> {
    offsets: &'a [usize],
    adj: &'a [usize],
}

impl<'a> Adjacency<'a> {
    #[cfg(test)]
    fn of(g: &'a Graph) -> Self {
        let (offsets, adj) = g.csr();
        Adjacency { offsets, adj }
    }

    fn node_count(self) -> usize {
        self.offsets.len() - 1
    }

    fn neighbours(self, v: usize) -> &'a [usize] {
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    fn has_edge(self, u: usize, v: usize) -> bool {
        self.neighbours(u).binary_search(&v).is_ok()
    }
}

/// Colour refinement (1-WL): repeatedly re-colour every node by its
/// `(colour, sorted neighbour-colour multiset)` signature until the
/// partition stops splitting. Colour ids are ranks of the sorted signature
/// list, so they are invariant under isomorphism — two isomorphic graphs
/// refine to identical colour vectors up to the isomorphism.
fn refine(g: Adjacency<'_>, mut colours: Vec<u32>) -> Vec<u32> {
    let n = g.node_count();
    loop {
        let classes = colours.iter().collect::<FxHashSet<_>>().len();
        let sigs: Vec<(u32, Vec<u32>)> = (0..n)
            .map(|v| {
                let mut nb: Vec<u32> = g.neighbours(v).iter().map(|&u| colours[u]).collect();
                nb.sort_unstable();
                (colours[v], nb)
            })
            .collect();
        let mut sorted: Vec<&(u32, Vec<u32>)> = sigs.iter().collect();
        sorted.sort();
        sorted.dedup();
        let next: Vec<u32> = sigs
            .iter()
            .map(|s| sorted.binary_search(&s).expect("own signature") as u32)
            .collect();
        if sorted.len() == classes {
            return next;
        }
        colours = next;
    }
}

/// Each key's rank among the distinct keys, as a colour: invariant across
/// isomorphic graphs, whose key multisets coincide.
fn ranks<K: Ord + Copy>(keys: &[K]) -> Vec<u32> {
    let mut values = keys.to_vec();
    values.sort_unstable();
    values.dedup();
    keys.iter()
        .map(|k| values.binary_search(k).expect("own key") as u32)
        .collect()
}

/// Backtracking enumeration of all colour-preserving automorphisms,
/// overflowing past [`GROUP_CAP`] of them or past the search budget.
struct Enumerate<'a> {
    g: Adjacency<'a>,
    colours: &'a [u32],
    /// BFS order from node 0: every vertex after the first is adjacent to
    /// an earlier one, so the adjacency constraint bites immediately.
    order: &'a [usize],
    img: Vec<u32>,
    used: Vec<bool>,
    out: Vec<Vec<u32>>,
    nodes: usize,
    overflow: bool,
}

impl Enumerate<'_> {
    fn compatible(&self, d: usize, v: usize, u: usize) -> bool {
        self.order[..d]
            .iter()
            .all(|&w| self.g.has_edge(v, w) == self.g.has_edge(u, self.img[w] as usize))
    }

    fn dfs(&mut self, d: usize) {
        self.nodes += 1;
        if self.nodes > SEARCH_BUDGET {
            self.overflow = true;
            return;
        }
        if d == self.order.len() {
            if self.out.len() >= GROUP_CAP {
                self.overflow = true;
            } else {
                self.out.push(self.img.clone());
            }
            return;
        }
        let v = self.order[d];
        for u in 0..self.g.node_count() {
            if self.used[u] || self.colours[u] != self.colours[v] || !self.compatible(d, v, u) {
                continue;
            }
            self.img[v] = u as u32;
            self.used[u] = true;
            self.dfs(d + 1);
            self.used[u] = false;
            if self.overflow {
                return;
            }
        }
    }
}

/// BFS visit order from node 0 (graphs are connected by construction, and
/// so are their twin quotients).
fn bfs_order(g: Adjacency<'_>) -> Vec<usize> {
    let mut order = Vec::with_capacity(g.node_count());
    let mut seen = vec![false; g.node_count()];
    let mut queue = std::collections::VecDeque::from([0usize]);
    seen[0] = true;
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &u in g.neighbours(v) {
            if !seen[u] {
                seen[u] = true;
                queue.push_back(u);
            }
        }
    }
    order
}

/// The group of automorphisms preserving the (already refined) `colours`,
/// as its sorted element list (the identity first, `perm[v]` the image of
/// node `v`), or `None` past [`GROUP_CAP`] elements or the search budget:
/// a truncated list is not closed under composition, so its orbits would
/// not be orbits.
fn refined_group(g: Adjacency<'_>, colours: &[u32]) -> Option<Vec<Vec<u32>>> {
    let order = bfs_order(g);
    let n = g.node_count();
    let mut search = Enumerate {
        g,
        colours,
        order: &order,
        img: vec![0; n],
        used: vec![false; n],
        out: Vec::new(),
        nodes: 0,
        overflow: false,
    };
    search.dfs(0);
    if search.overflow {
        return None;
    }
    let mut perms = search.out;
    perms.sort_unstable();
    Some(perms)
}

/// A canonical relabelling of a labelled graph: isomorphic graphs have
/// equal forms when `exact` is set.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalForm {
    /// Node labels in canonical position order.
    pub labels: Vec<u16>,
    /// Edges as `(position, position)` pairs with the smaller endpoint
    /// first, sorted.
    pub edges: Vec<(u32, u32)>,
    /// `true` for a true canonical form (equal across isomorphic graphs);
    /// `false` for the identity-relabelling fallback taken when the graph
    /// has more than `u16::MAX` nodes, the twin quotient has more than 64
    /// vertices, its labelled automorphism group exceeds the cap, or the
    /// certificate search exhausts its budget. Mixing the two in one memo is sound: an exact form is
    /// itself a graph (a relabelled copy of the input), so any key
    /// collision — exact/exact, exact/fallback or fallback/fallback —
    /// exhibits an isomorphism.
    pub exact: bool,
}

impl CanonicalForm {
    /// The form as a hashable map key, moved out of the form.
    pub fn key(self) -> (Vec<u16>, Vec<(u32, u32)>) {
        (self.labels, self.edges)
    }
}

fn identity_form(g: &Graph) -> CanonicalForm {
    CanonicalForm {
        labels: g.labels().iter().map(|l| l.0).collect(),
        edges: g
            .edges()
            .iter()
            .map(|&(u, v)| (u as u32, v as u32))
            .collect(),
        exact: false,
    }
}

/// Lex-least certificate search. A node ordering induces the certificate
/// sequence `(refined colour, adjacency bitmask to earlier positions)`;
/// the search extends orderings position by position, branching only on
/// candidates attaining the position-minimal certificate entry and
/// skipping candidates equivalent under the stabiliser (in the labelled
/// automorphism group) of the already-placed vertices.
struct Canonical<'a> {
    g: Adjacency<'a>,
    colours: &'a [u32],
    group: &'a [Vec<u32>],
    n: usize,
    used: Vec<bool>,
    placed: Vec<usize>,
    cur: Vec<u128>,
    best: Option<Vec<u128>>,
    best_order: Vec<usize>,
    nodes: usize,
}

impl Canonical<'_> {
    fn key_of(&self, u: usize) -> u128 {
        let mut mask = 0u64;
        for (j, &w) in self.placed.iter().enumerate() {
            if self.g.has_edge(u, w) {
                mask |= 1 << j;
            }
        }
        ((self.colours[u] as u128) << 64) | mask as u128
    }

    /// Returns `true` when the node budget is exhausted (abort the search).
    fn dfs(&mut self, stab: &[u32]) -> bool {
        self.nodes += 1;
        if self.nodes > SEARCH_BUDGET {
            return true;
        }
        let d = self.placed.len();
        if d == self.n {
            if self.best.as_ref().is_none_or(|b| self.cur < *b) {
                self.best = Some(self.cur.clone());
                self.best_order.clone_from(&self.placed);
            }
            return false;
        }
        let mut min_key = u128::MAX;
        let mut tied: Vec<usize> = Vec::new();
        for u in 0..self.n {
            if self.used[u] {
                continue;
            }
            let key = self.key_of(u);
            match key.cmp(&min_key) {
                Ordering::Less => {
                    min_key = key;
                    tied.clear();
                    tied.push(u);
                }
                Ordering::Equal => tied.push(u),
                Ordering::Greater => {}
            }
        }
        if let Some(best) = &self.best {
            let prefix = self.cur.iter().chain(std::iter::once(&min_key));
            if prefix.cmp(best[..=d].iter()) == Ordering::Greater {
                return false; // no completion can beat the incumbent
            }
        }
        let mut covered = 0u64;
        for &u in &tied {
            if covered >> u & 1 == 1 {
                continue; // same stabiliser orbit as an explored sibling
            }
            let mut child_stab = Vec::new();
            for &ei in stab {
                let image = self.group[ei as usize][u] as usize;
                covered |= 1 << image;
                if image == u {
                    child_stab.push(ei);
                }
            }
            self.used[u] = true;
            self.placed.push(u);
            self.cur.push(min_key);
            let abort = self.dfs(&child_stab);
            self.cur.pop();
            self.placed.pop();
            self.used[u] = false;
            if abort {
                return true;
            }
        }
        false
    }
}

/// The lex-least certificate order of the vertices of `g` under the
/// initial `colours`, or `None` when the search is infeasible: more than
/// 64 vertices (the certificate masks are `u64`), a colour-preserving
/// group above [`GROUP_CAP`] (no orbit pruning — exactly the graphs where
/// the search would blow up), or an exhausted budget.
fn canonical_order(g: Adjacency<'_>, colours: Vec<u32>) -> Option<Vec<usize>> {
    let n = g.node_count();
    if n > 64 {
        return None;
    }
    let colours = refine(g, colours);
    let group = refined_group(g, &colours)?;
    let mut search = Canonical {
        g,
        colours: &colours,
        group: &group,
        n,
        used: vec![false; n],
        placed: Vec::with_capacity(n),
        cur: Vec::with_capacity(n),
        best: None,
        best_order: Vec::new(),
        nodes: 0,
    };
    let all: Vec<u32> = (0..group.len() as u32).collect();
    if search.dfs(&all) || search.best.is_none() {
        return None;
    }
    Some(search.best_order)
}

/// Whether `v` has a twin: another node with its label and, apart from
/// the two of them, its neighbours. A true twin is a neighbour of `v`; a
/// false twin shares every neighbour of `v`, so it is adjacent to `v`'s
/// first one. Graphs are connected, so that neighbour exists.
fn has_twin(g: &Graph, v: usize) -> bool {
    let own = g.neighbours(v);
    let is_twin = |u: usize| {
        u != v
            && g.label(u) == g.label(v)
            && g.degree(u) == g.degree(v)
            && g.neighbours(u)
                .iter()
                .filter(|&&w| w != v)
                .eq(own.iter().filter(|&&w| w != u))
    };
    own.iter().chain(g.neighbours(own[0])).any(|&u| is_twin(u))
}

/// The canonical form of a labelled graph: isomorphic graphs map to equal
/// forms (when `exact`), so the form is the memoisation key that lets the
/// `wam-analysis` verdict store reuse verdicts across isomorphic witness
/// graphs.
///
/// # Example
///
/// ```
/// use wam_graph::{canonical_form, generators, LabelCount};
///
/// // A 3-node star and a 3-node line are the same labelled path.
/// let c = LabelCount::from_vec(vec![2, 1]);
/// let star = generators::labelled_star(&c);
/// let line = generators::labelled_line(&c);
/// assert_eq!(canonical_form(&star), canonical_form(&line));
/// ```
pub fn canonical_form(g: &Graph) -> CanonicalForm {
    let n = g.node_count();
    if n > usize::from(u16::MAX) {
        return identity_form(g); // beyond the twin partition's cell ids
    }
    // Sixty-five twin-less nodes are sixty-five singleton cells, past the
    // search's 64: the fallback is certain, and checking a few nodes is
    // far cheaper than partitioning a long cycle or line.
    if n > 64 && (0..65).all(|v| !has_twin(g, v)) {
        return identity_form(g);
    }
    // The twin quotient: one vertex per cell, coloured by what an
    // isomorphism must preserve of it, adjacent where the cells are.
    let twins = TwinPartition::of(g);
    let cells = twins.cells();
    let kinds: Vec<(u16, usize, bool)> = cells
        .iter()
        .map(|c| (g.label(c.members[0]).0, c.members.len(), c.closed))
        .collect();
    let mut offsets = Vec::with_capacity(cells.len() + 1);
    let mut adj = Vec::new();
    offsets.push(0);
    for cell in cells {
        adj.extend(cell.adjacent.iter().map(|&d| usize::from(d)));
        offsets.push(adj.len());
    }
    let quotient = Adjacency {
        offsets: &offsets,
        adj: &adj,
    };
    let Some(cell_order) = canonical_order(quotient, ranks(&kinds)) else {
        return identity_form(g);
    };
    // Expand: each cell's members take consecutive positions. Twins are
    // interchangeable, so their order within the cell is immaterial.
    let mut pos = vec![0u32; n];
    let mut labels = Vec::with_capacity(n);
    for &c in &cell_order {
        for &v in &cells[c].members {
            pos[v] = labels.len() as u32;
            labels.push(g.label(v).0);
        }
    }
    let mut edges: Vec<(u32, u32)> = g
        .edges()
        .iter()
        .map(|&(u, v)| {
            let (a, b) = (pos[u], pos[v]);
            (a.min(b), a.max(b))
        })
        .collect();
    edges.sort_unstable();
    CanonicalForm {
        labels,
        edges,
        exact: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, Alphabet, GraphBuilder, Label, LabelCount};

    /// The identity permutation on `n` nodes.
    fn identity(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    /// Composition `(a ∘ b)[v] = a[b[v]]`.
    fn compose(a: &[u32], b: &[u32]) -> Vec<u32> {
        b.iter().map(|&v| a[v as usize]).collect()
    }

    fn is_automorphism(g: &Graph, p: &[u32]) -> bool {
        let mut seen = vec![false; g.node_count()];
        for &img in p {
            seen[img as usize] = true;
        }
        seen.iter().all(|&s| s)
            && g.edges()
                .iter()
                .all(|&(u, v)| g.has_edge(p[u] as usize, p[v] as usize))
    }

    /// The group the canonical-form search prunes with, on `g` itself:
    /// structural (labels ignored) or label-preserving.
    fn group(g: &Graph, labelled: bool) -> Option<Vec<Vec<u32>>> {
        let adj = Adjacency::of(g);
        let colours = if labelled {
            ranks(&g.labels().iter().map(|l| l.0).collect::<Vec<_>>())
        } else {
            vec![0; g.node_count()]
        };
        refined_group(adj, &refine(adj, colours))
    }

    #[test]
    fn cycle_group_is_dihedral() {
        for n in [3usize, 6, 14] {
            let g = generators::cycle(n);
            let aut = group(&g, false).unwrap();
            assert_eq!(aut.len(), 2 * n, "dihedral group of the {n}-cycle");
            for p in &aut {
                assert!(is_automorphism(&g, p));
            }
        }
    }

    #[test]
    fn line_group_is_reversal() {
        let aut = group(&generators::line(5), false).unwrap();
        assert_eq!(aut.len(), 2);
    }

    #[test]
    fn clique_and_star_groups_are_symmetric_groups() {
        let clique = generators::clique(4);
        assert_eq!(group(&clique, false).unwrap().len(), 24);
        let star = generators::star(5); // centre + 4 leaves
        assert_eq!(group(&star, false).unwrap().len(), 24);
    }

    #[test]
    fn labels_shrink_the_group() {
        // AAAABB around a 6-cycle: only one reflection survives.
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![4, 2]));
        assert_eq!(group(&g, true).unwrap().len(), 2);
        // The structural group ignores the labels entirely.
        assert_eq!(group(&g, false).unwrap().len(), 12);
        // AAAAB on a line: reversal moves the B, so only the identity.
        let line = generators::labelled_line(&LabelCount::from_vec(vec![4, 1]));
        assert_eq!(group(&line, true).unwrap(), vec![identity(5)]);
    }

    #[test]
    fn group_is_closed_and_contains_identity() {
        let aut = group(&generators::cycle(5), false).unwrap();
        let set: FxHashSet<&Vec<u32>> = aut.iter().collect();
        assert_eq!(aut[0], identity(5), "identity sorts first");
        for a in &aut {
            for b in &aut {
                assert!(set.contains(&compose(a, b)), "closure violated");
            }
        }
    }

    #[test]
    fn cap_yields_no_group() {
        let g = generators::clique(8); // |Aut| = 8! = 40320 > GROUP_CAP
        assert_eq!(group(&g, false), None);
    }

    #[test]
    fn canonical_form_is_isomorphism_invariant() {
        // The same labelled 5-cycle built with nodes in rotated order.
        let c = LabelCount::from_vec(vec![3, 2]);
        let g = generators::labelled_cycle(&c);
        let h = relabelled(&g, &[2, 4, 1, 0, 3]);
        let (fg, fh) = (canonical_form(&g), canonical_form(&h));
        assert!(fg.exact && fh.exact);
        assert_eq!(fg, fh);
    }

    #[test]
    fn canonical_form_separates_non_isomorphic() {
        let c = LabelCount::from_vec(vec![3, 1]);
        let line = generators::labelled_line(&c);
        let star = generators::labelled_star(&c);
        assert_ne!(canonical_form(&line), canonical_form(&star));
    }

    /// `g` with node `v` moved to position `perm[v]`.
    fn relabelled(g: &Graph, perm: &[usize]) -> Graph {
        let mut slots = vec![g.label(0); g.node_count()];
        for v in g.nodes() {
            slots[perm[v]] = g.label(v);
        }
        let mut builder = GraphBuilder::new(g.alphabet().clone());
        for l in slots {
            builder.node(l);
        }
        for &(u, v) in g.edges() {
            builder.add_edge(perm[u], perm[v]);
        }
        builder.build().unwrap()
    }

    #[test]
    fn canonical_form_is_exact_on_large_twin_classes() {
        // Factorial groups (8! = 40 320, 39!, 100!) collapse to one or two
        // quotient vertices; node count no longer bounds exactness.
        let star = generators::labelled_star(&LabelCount::from_vec(vec![25, 15]));
        let clique = generators::labelled_clique(&LabelCount::from_vec(vec![60, 40]));
        for g in [generators::clique(8), generators::star(40), star, clique] {
            let n = g.node_count();
            let f = canonical_form(&g);
            assert!(f.exact, "{n}-node graph");
            let reversed: Vec<usize> = (0..n).rev().collect();
            let rotated: Vec<usize> = (0..n).map(|v| (v + 7) % n).collect();
            for perm in [reversed, rotated] {
                assert_eq!(canonical_form(&relabelled(&g, &perm)), f, "{n}-node graph");
            }
        }
    }

    #[test]
    fn canonical_form_falls_back_on_huge_twin_free_groups() {
        // An 8-leg spider with legs of length 2 is twin-free (every node's
        // neighbourhood names its own leg), yet |Aut| = 8! = 40 320.
        let mut builder = GraphBuilder::new(Alphabet::new(["a"]));
        let centre = builder.node(Label(0));
        for _ in 0..8 {
            let middle = builder.node(Label(0));
            let foot = builder.node(Label(0));
            builder.add_edge(centre, middle);
            builder.add_edge(middle, foot);
        }
        let g = builder.build().unwrap();
        assert!(!TwinPartition::of(&g).is_compressing());
        let f = canonical_form(&g);
        assert!(!f.exact);
        assert_eq!(f, identity_form(&g));
    }

    #[test]
    fn canonical_form_falls_back_past_twin_cell_ids() {
        // More nodes than a twin partition can number cells for: the
        // fallback, not a panic, even for a two-cell star.
        let g = generators::star(usize::from(u16::MAX) + 2);
        assert_eq!(canonical_form(&g), identity_form(&g));
    }

    #[test]
    fn has_twin_matches_the_twin_partition() {
        let mut graphs = vec![
            generators::star(6),
            generators::clique(5),
            generators::cycle(4),
            generators::cycle(7),
            generators::line(3),
            generators::line(6),
            generators::labelled_star(&LabelCount::from_vec(vec![3, 2])),
            generators::labelled_clique(&LabelCount::from_vec(vec![1, 3])),
        ];
        for seed in 0..20 {
            let c = LabelCount::from_vec(vec![4, 3]);
            graphs.push(generators::random_connected(&c, 0.4, seed));
        }
        for g in &graphs {
            let twins = TwinPartition::of(g);
            for v in g.nodes() {
                let cell = &twins.cells()[usize::from(twins.cell_of(v))];
                assert_eq!(has_twin(g, v), cell.members.len() > 1, "{g:?} node {v}");
            }
        }
    }

    #[test]
    fn long_graphs_with_large_quotients_fall_back() {
        // Twin-free: decided by the first 65 nodes alone.
        for g in [generators::cycle(1_000), generators::line(1_000)] {
            assert_eq!(canonical_form(&g), identity_form(&g));
        }
        // Node 0 has a twin, so the quotient is built; its 99 cells are
        // still past the search's 64.
        let mut builder = GraphBuilder::new(Alphabet::new(["a"]));
        for _ in 0..100 {
            builder.node(Label(0));
        }
        for v in 1..98 {
            builder.add_edge(v, v + 1); // the line 1 – … – 98
        }
        builder.add_edge(0, 1); // 0 and 99: pendant twins at node 1
        builder.add_edge(99, 1);
        let g = builder.build().unwrap();
        assert!(has_twin(&g, 0));
        assert_eq!(TwinPartition::of(&g).cell_count(), 99);
        assert_eq!(canonical_form(&g), identity_form(&g));
    }

    #[test]
    fn refinement_separates_degrees() {
        let g = generators::star(4);
        let colours = refine(Adjacency::of(&g), vec![0; 4]);
        assert_ne!(colours[0], colours[1], "centre vs leaf");
        assert_eq!(colours[1], colours[2]);
    }
}
