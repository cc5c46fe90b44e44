//! Generators for every graph family the paper's proofs use.
//!
//! All generators return graphs satisfying the standing convention
//! (simple, connected, ≥ 3 nodes) and panic on parameters that cannot.
//! Randomised generators take an explicit seed for reproducibility.

use crate::{Alphabet, Graph, GraphBuilder, Label, LabelCount};
use rand::rngs::StdRng;
use rand::seq::{IndexedRandom, SliceRandom};
use rand::{RngExt, SeedableRng};

fn expand_labels(count: &LabelCount) -> Vec<Label> {
    let mut labels = Vec::with_capacity(count.total() as usize);
    for (i, &c) in count.as_slice().iter().enumerate() {
        for _ in 0..c {
            labels.push(Label(i as u16));
        }
    }
    labels
}

fn build_on_labels(
    ab: &Alphabet,
    labels: Vec<Label>,
    edges: impl IntoIterator<Item = (usize, usize)>,
) -> Graph {
    let mut b = GraphBuilder::new(ab.clone()).nodes(labels);
    for (u, v) in edges {
        b.add_edge(u, v);
    }
    b.build().expect("generator produced invalid graph")
}

/// The clique `K_n` over the given label multiset (nodes in label order).
///
/// # Panics
///
/// Panics if `count.total() < 3`.
pub fn labelled_clique(count: &LabelCount) -> Graph {
    labelled_clique_over(&Alphabet::anonymous(count.arity()), count)
}

/// Clique over an explicit alphabet.
pub fn labelled_clique_over(ab: &Alphabet, count: &LabelCount) -> Graph {
    let labels = expand_labels(count);
    let n = labels.len();
    let edges = (0..n).flat_map(|u| ((u + 1)..n).map(move |v| (u, v)));
    build_on_labels(ab, labels, edges)
}

/// The cycle `C_n` over the given label multiset, labels in enumeration order
/// (the construction used by Corollary 3.3).
pub fn labelled_cycle(count: &LabelCount) -> Graph {
    labelled_cycle_over(&Alphabet::anonymous(count.arity()), count)
}

/// Cycle over an explicit alphabet.
pub fn labelled_cycle_over(ab: &Alphabet, count: &LabelCount) -> Graph {
    let labels = expand_labels(count);
    let n = labels.len();
    let edges = (0..n).map(|u| (u, (u + 1) % n));
    build_on_labels(ab, labels, edges)
}

/// The line (path) over the given label multiset, labels in enumeration order
/// (used by Proposition D.1).
pub fn labelled_line(count: &LabelCount) -> Graph {
    labelled_line_over(&Alphabet::anonymous(count.arity()), count)
}

/// Line over an explicit alphabet.
pub fn labelled_line_over(ab: &Alphabet, count: &LabelCount) -> Graph {
    let labels = expand_labels(count);
    let n = labels.len();
    let edges = (0..n - 1).map(|u| (u, u + 1));
    build_on_labels(ab, labels, edges)
}

/// A star: node 0 is the centre, all other nodes are leaves (Lemma 3.5).
/// The centre takes the *first* label of the expanded multiset.
pub fn labelled_star(count: &LabelCount) -> Graph {
    labelled_star_over(&Alphabet::anonymous(count.arity()), count)
}

/// Star over an explicit alphabet.
pub fn labelled_star_over(ab: &Alphabet, count: &LabelCount) -> Graph {
    let labels = expand_labels(count);
    let n = labels.len();
    let edges = (1..n).map(|v| (0, v));
    build_on_labels(ab, labels, edges)
}

/// The four families a label count alone determines: each builds one
/// labelled graph per count, labels in enumeration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// [`labelled_cycle`].
    Cycle,
    /// [`labelled_line`].
    Line,
    /// [`labelled_star`].
    Star,
    /// [`labelled_clique`].
    Clique,
}

impl Family {
    /// The family called `name` (`cycle`, `line`, `star` or `clique`).
    pub fn from_name(name: &str) -> Option<Family> {
        match name {
            "cycle" => Some(Family::Cycle),
            "line" => Some(Family::Line),
            "star" => Some(Family::Star),
            "clique" => Some(Family::Clique),
            _ => None,
        }
    }

    /// The family's graph over `count`.
    ///
    /// # Panics
    ///
    /// Panics if `count.total() < 3`.
    pub fn labelled(self, count: &LabelCount) -> Graph {
        match self {
            Family::Cycle => labelled_cycle(count),
            Family::Line => labelled_line(count),
            Family::Star => labelled_star(count),
            Family::Clique => labelled_clique(count),
        }
    }
}

/// An `rows × cols` grid (degree ≤ 4), labels in row-major enumeration order.
///
/// # Panics
///
/// Panics if `rows * cols != count.total()` or the grid has < 3 nodes.
pub fn labelled_grid(count: &LabelCount, rows: usize, cols: usize) -> Graph {
    let ab = Alphabet::anonymous(count.arity());
    let labels = expand_labels(count);
    assert_eq!(
        labels.len(),
        rows * cols,
        "grid dimensions must match count"
    );
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                edges.push((v, v + 1));
            }
            if r + 1 < rows {
                edges.push((v, v + cols));
            }
        }
    }
    build_on_labels(&ab, labels, edges)
}

/// An `rows × cols` torus (4-regular for rows, cols ≥ 3).
pub fn labelled_torus(count: &LabelCount, rows: usize, cols: usize) -> Graph {
    let ab = Alphabet::anonymous(count.arity());
    let labels = expand_labels(count);
    assert_eq!(
        labels.len(),
        rows * cols,
        "torus dimensions must match count"
    );
    assert!(rows >= 3 && cols >= 3, "torus needs rows, cols ≥ 3");
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            edges.push((v, r * cols + (c + 1) % cols));
            edges.push((v, ((r + 1) % rows) * cols + c));
        }
    }
    build_on_labels(&ab, labels, edges)
}

/// Uniform single-label convenience wrappers. All take `n ≥ 3`.
pub fn clique(n: usize) -> Graph {
    labelled_clique(&LabelCount::from_vec(vec![n as u64]))
}

/// Unlabelled (single-label) cycle `C_n`.
pub fn cycle(n: usize) -> Graph {
    labelled_cycle(&LabelCount::from_vec(vec![n as u64]))
}

/// Unlabelled (single-label) line `P_n`.
pub fn line(n: usize) -> Graph {
    labelled_line(&LabelCount::from_vec(vec![n as u64]))
}

/// Unlabelled (single-label) star with `n - 1` leaves.
pub fn star(n: usize) -> Graph {
    labelled_star(&LabelCount::from_vec(vec![n as u64]))
}

/// A random connected graph over a shuffled labelling of `count`:
/// a random spanning tree plus each remaining pair independently with
/// probability `extra_edge_prob`.
pub fn random_connected(count: &LabelCount, extra_edge_prob: f64, seed: u64) -> Graph {
    let ab = Alphabet::anonymous(count.arity());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut labels = expand_labels(count);
    labels.shuffle(&mut rng);
    let n = labels.len();
    let mut b = GraphBuilder::new(ab).nodes(labels);
    // Random spanning tree: attach each node to a random earlier node.
    for v in 1..n {
        let u = rng.random_range(0..v);
        b.add_edge(u, v);
    }
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.random_bool(extra_edge_prob) {
                b.add_edge(u, v);
            }
        }
    }
    b.build().expect("random_connected produced invalid graph")
}

/// A random connected graph with maximum degree ≤ `k` (the §6 setting):
/// a degree-constrained random spanning tree plus random extra edges that
/// respect the bound.
///
/// # Panics
///
/// Panics if `k < 2` (a connected graph on ≥ 3 nodes needs degree ≥ 2
/// somewhere) or `count.total() < 3`.
pub fn random_degree_bounded(count: &LabelCount, k: usize, extra_edges: usize, seed: u64) -> Graph {
    assert!(k >= 2, "degree bound must be at least 2");
    let ab = Alphabet::anonymous(count.arity());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut labels = expand_labels(count);
    labels.shuffle(&mut rng);
    let n = labels.len();
    let mut degree = vec![0usize; n];
    let mut b = GraphBuilder::new(ab).nodes(labels);
    for v in 1..n {
        // Pick a random earlier node with spare degree; one always exists
        // because a path is a valid fallback.
        let candidates: Vec<usize> = (0..v).filter(|&u| degree[u] < k).collect();
        let u = *candidates
            .choose(&mut rng)
            .expect("spanning tree construction ran out of degree budget");
        b.add_edge(u, v);
        degree[u] += 1;
        degree[v] += 1;
    }
    let mut placed = 0;
    let mut attempts = 0;
    while placed < extra_edges && attempts < extra_edges * 20 + 100 {
        attempts += 1;
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u != v && degree[u] < k && degree[v] < k {
            b.add_edge(u, v);
            degree[u] += 1;
            degree[v] += 1;
            placed += 1;
        }
    }
    let g = b
        .build()
        .expect("random_degree_bounded produced invalid graph");
    debug_assert!(g.is_degree_bounded(k));
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(v: Vec<u64>) -> LabelCount {
        LabelCount::from_vec(v)
    }

    #[test]
    fn clique_shape() {
        let g = clique(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 10);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.diameter(), 1);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(6);
        assert_eq!(g.edge_count(), 6);
        assert!(g.nodes().all(|v| g.degree(v) == 2));
        assert!(g.has_cycle());
    }

    #[test]
    fn line_shape() {
        let g = line(5);
        assert_eq!(g.edge_count(), 4);
        assert!(!g.has_cycle());
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
    }

    #[test]
    fn star_shape() {
        let g = star(7);
        assert_eq!(g.degree(0), 6);
        assert!((1..7).all(|v| g.degree(v) == 1));
        assert_eq!(g.diameter(), 2);
    }

    #[test]
    fn grid_and_torus_shape() {
        let g = labelled_grid(&count(vec![12]), 3, 4);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4);
        assert!(g.is_degree_bounded(4));
        let t = labelled_torus(&count(vec![12]), 3, 4);
        assert!(t.nodes().all(|v| t.degree(v) == 4));
    }

    #[test]
    fn labelled_counts_preserved() {
        let c = count(vec![3, 2]);
        for g in [
            labelled_clique(&c),
            labelled_cycle(&c),
            labelled_line(&c),
            labelled_star(&c),
        ] {
            assert_eq!(g.label_count(), c);
        }
    }

    #[test]
    fn random_connected_is_connected_and_reproducible() {
        let c = count(vec![6, 4]);
        let g1 = random_connected(&c, 0.2, 42);
        let g2 = random_connected(&c, 0.2, 42);
        assert_eq!(g1, g2);
        assert_eq!(g1.label_count(), c);
    }

    #[test]
    fn random_degree_bounded_respects_bound() {
        for seed in 0..10 {
            let g = random_degree_bounded(&count(vec![10, 10]), 3, 8, seed);
            assert!(g.is_degree_bounded(3), "seed {seed} violated bound");
            assert_eq!(g.label_count(), count(vec![10, 10]));
        }
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn degree_bound_one_rejected() {
        random_degree_bounded(&count(vec![5]), 1, 0, 0);
    }
}
