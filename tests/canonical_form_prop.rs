//! Property tests for `canonical_form`, the key of the verdict store.
//!
//! On seeded random labelled graphs — cliques, stars, complete bipartite
//! graphs, cycles, lines, cycles with pendant twin pairs and random
//! connected graphs, from 3 nodes up to well past the 64-vertex search
//! bound — the form must be
//!
//! * **invariant**: a random renumbering of the nodes leaves it unchanged;
//! * **faithful**: it rebuilds into a graph isomorphic to the input (same
//!   label multiset, and an explicit node bijection maps edges onto edges);
//! * **separating** on the E1 grid: two grid graphs share a key exactly
//!   when a brute-force search finds an isomorphism between them.
//!
//! The verdict store keys a family graph by its family and label counts
//! from 4 nodes up; those keys must agree exactly when the canonical
//! forms do, over every family and count on 2 and 3 labels up to 10 nodes.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use weak_async_models::analysis::StoreKey;
use weak_async_models::graph::generators::Family;
use weak_async_models::graph::{
    canonical_form, generators, Alphabet, Graph, GraphBuilder, Label, LabelCount,
};

const CASES: u64 = 120;

fn build(labels: &[Label], edges: &[(usize, usize)]) -> Graph {
    let mut b = GraphBuilder::new(Alphabet::new(["a", "b", "c"]));
    for &l in labels {
        b.node(l);
    }
    for &(u, v) in edges {
        b.add_edge(u, v);
    }
    b.build()
        .expect("generated graphs are connected with ≥ 3 nodes")
}

/// `n` labels over the first `arity` letters.
fn random_labels(rng: &mut StdRng, n: usize, arity: u16) -> Vec<Label> {
    (0..n).map(|_| Label(rng.random_range(0..arity))).collect()
}

/// One seeded graph of family `case % 7`; `large` picks sizes past the
/// 64-vertex bound for the families whose twin quotient stays small.
fn random_graph(case: u64, large: bool) -> Graph {
    let mut rng = StdRng::seed_from_u64(case);
    let arity = rng.random_range(1u16..=3);
    let mut edges = Vec::new();
    let n = match case % 7 {
        0 => {
            let n = if large {
                rng.random_range(65usize..=120)
            } else {
                rng.random_range(3usize..=10)
            };
            for u in 0..n {
                edges.extend((u + 1..n).map(|v| (u, v)));
            }
            n
        }
        1 => {
            let n = if large {
                rng.random_range(65usize..=150)
            } else {
                rng.random_range(3usize..=14)
            };
            edges.extend((1..n).map(|v| (0, v)));
            n
        }
        2 => {
            // Unequal large sides keep the isomorphism search below from
            // trying the side swap.
            let (a, b) = if large {
                (
                    rng.random_range(30usize..=45),
                    rng.random_range(50usize..=60),
                )
            } else {
                (rng.random_range(1usize..=5), rng.random_range(2usize..=5))
            };
            for u in 0..a {
                edges.extend((a..a + b).map(|v| (u, v)));
            }
            a + b
        }
        3 => {
            let n = rng.random_range(3usize..=10);
            edges.extend((0..n).map(|v| (v, (v + 1) % n)));
            n
        }
        4 => {
            let n = rng.random_range(3usize..=10);
            edges.extend((1..n).map(|v| (v - 1, v)));
            n
        }
        5 => {
            // A cycle whose nodes carry up to two pendant pairs each:
            // same-label pendants on one node are false twins.
            let ring = rng.random_range(3usize..=7);
            edges.extend((0..ring).map(|v| (v, (v + 1) % ring)));
            let mut n = ring;
            for v in 0..ring {
                for _ in 0..rng.random_range(0usize..=2) {
                    edges.extend([(v, n), (v, n + 1)]);
                    n += 2;
                }
            }
            n
        }
        _ => {
            let n = rng.random_range(3usize..=9);
            let c = LabelCount::from_vec(vec![n as u64]);
            let g = generators::random_connected(&c, 0.35, case);
            edges.extend_from_slice(g.edges());
            n
        }
    };
    build(&random_labels(&mut rng, n, arity), &edges)
}

/// `g` with node `v` renumbered to `perm[v]`.
fn relabelled(g: &Graph, perm: &[usize]) -> Graph {
    let mut labels = vec![Label(0); g.node_count()];
    for v in g.nodes() {
        labels[perm[v]] = g.label(v);
    }
    let edges: Vec<_> = g.edges().iter().map(|&(u, v)| (perm[u], perm[v])).collect();
    build(&labels, &edges)
}

/// The graph a form describes: node `p` carries `labels[p]`.
fn rebuilt(g: &Graph) -> Graph {
    let form = canonical_form(g);
    let edges: Vec<_> = form
        .edges
        .iter()
        .map(|&(u, v)| (u as usize, v as usize))
        .collect();
    let labels: Vec<_> = form.labels.iter().map(|&l| Label(l)).collect();
    build(&labels, &edges)
}

/// A label- and adjacency-preserving bijection `g → h`, by backtracking
/// over the nodes of `g` in id order.
fn isomorphism(g: &Graph, h: &Graph) -> Option<Vec<usize>> {
    fn extend(g: &Graph, h: &Graph, img: &mut Vec<usize>, used: &mut [bool]) -> bool {
        let v = img.len();
        if v == g.node_count() {
            return true;
        }
        for u in h.nodes() {
            let fits = !used[u]
                && g.label(v) == h.label(u)
                && g.degree(v) == h.degree(u)
                && (0..v).all(|w| g.has_edge(v, w) == h.has_edge(u, img[w]));
            if fits {
                img.push(u);
                used[u] = true;
                if extend(g, h, img, used) {
                    return true;
                }
                used[u] = false;
                img.pop();
            }
        }
        false
    }
    if g.node_count() != h.node_count() || g.edge_count() != h.edge_count() {
        return None;
    }
    let mut img = Vec::with_capacity(g.node_count());
    let mut used = vec![false; h.node_count()];
    extend(g, h, &mut img, &mut used).then_some(img)
}

fn sorted_labels(g: &Graph) -> Vec<Label> {
    let mut labels = g.labels().to_vec();
    labels.sort_unstable();
    labels
}

#[test]
fn form_is_invariant_under_node_renumbering() {
    for case in 0..CASES {
        let large = case % 3 == 0;
        let g = random_graph(case, large);
        let form = canonical_form(&g);
        assert!(form.exact, "case {case}: {} nodes", g.node_count());
        let mut rng = StdRng::seed_from_u64(case ^ 0x5eed);
        for _ in 0..3 {
            let mut perm: Vec<usize> = g.nodes().collect();
            perm.shuffle(&mut rng);
            assert_eq!(canonical_form(&relabelled(&g, &perm)), form, "case {case}");
        }
    }
}

#[test]
fn form_rebuilds_into_an_isomorphic_graph() {
    for case in 0..CASES {
        let large = case % 3 == 0;
        let g = random_graph(case, large);
        let h = rebuilt(&g);
        assert_eq!(sorted_labels(&g), sorted_labels(&h), "case {case}");
        let img = isomorphism(&g, &h).unwrap_or_else(|| panic!("case {case}: no isomorphism"));
        for &(u, v) in g.edges() {
            assert!(h.has_edge(img[u], img[v]), "case {case}: edge {u}-{v} lost");
        }
        // The canonical graph is its own canonical form.
        assert_eq!(canonical_form(&h), canonical_form(&g), "case {case}");
    }
}

#[test]
fn e1_grid_keys_are_equal_exactly_on_isomorphic_graphs() {
    let mut grid = Vec::new();
    for (a, b) in [(3u64, 0u64), (2, 1), (1, 2), (2, 2), (3, 1)] {
        let c = LabelCount::from_vec(vec![a, b]);
        grid.push(generators::labelled_cycle(&c));
        grid.push(generators::labelled_line(&c));
        grid.push(generators::labelled_star(&c));
        grid.push(generators::labelled_clique(&c));
    }
    let keys: Vec<_> = grid.iter().map(|g| canonical_form(g).key()).collect();
    let mut classes = 0;
    for i in 0..grid.len() {
        if (0..i).all(|j| keys[j] != keys[i]) {
            classes += 1;
        }
        for j in 0..i {
            let iso = isomorphism(&grid[i], &grid[j]).is_some();
            assert_eq!(keys[i] == keys[j], iso, "grid graphs {j} and {i}");
        }
    }
    assert!(classes < grid.len(), "the grid repeats some classes");
}

const FAMILIES: [Family; 4] = [Family::Cycle, Family::Line, Family::Star, Family::Clique];

/// Every family × label counts on `arity` labels with 3 ≤ n ≤ 10, as
/// `(family, counts, graph)`.
fn family_requests(arity: usize) -> Vec<(Family, Vec<u64>, Graph)> {
    fn counts_of(n: u64, arity: usize) -> Vec<Vec<u64>> {
        if arity == 1 {
            return vec![vec![n]];
        }
        (0..=n)
            .flat_map(|first| {
                counts_of(n - first, arity - 1)
                    .into_iter()
                    .map(move |mut rest| {
                        rest.insert(0, first);
                        rest
                    })
            })
            .collect()
    }
    let mut out = Vec::new();
    for n in 3..=10 {
        for counts in counts_of(n, arity) {
            for family in FAMILIES {
                let graph = family.labelled(&LabelCount::from_vec(counts.clone()));
                out.push((family, counts.clone(), graph));
            }
        }
    }
    out
}

#[test]
fn family_keys_are_isomorphism_class_keys() {
    for arity in [2, 3] {
        let requests = family_requests(arity);
        let store_keys: Vec<_> = requests
            .iter()
            .map(|(family, counts, _)| StoreKey::of_family(7, *family, counts))
            .collect();
        let forms: Vec<_> = requests
            .iter()
            .map(|(_, _, g)| canonical_form(g).key())
            .collect();
        for i in 0..requests.len() {
            for j in 0..i {
                assert_eq!(
                    store_keys[i] == store_keys[j],
                    forms[i] == forms[j],
                    "{:?} {:?} and {:?} {:?}",
                    requests[i].0,
                    requests[i].1,
                    requests[j].0,
                    requests[j].1
                );
            }
        }
    }
}

#[test]
fn families_alias_on_three_nodes_only() {
    let key = |family, counts: &[u64]| StoreKey::of_family(7, family, counts);
    // The 3-star on [2, 1] has a 0-labelled centre: the line 0-0-1.
    assert_eq!(key(Family::Star, &[2, 1]), key(Family::Line, &[2, 1]));
    // On [1, 2] the star's centre is the lone 0, the line's is a 1.
    assert_ne!(key(Family::Star, &[1, 2]), key(Family::Line, &[1, 2]));
    for counts in [[3, 0], [2, 1], [1, 2], [0, 3]] {
        assert_eq!(key(Family::Cycle, &counts), key(Family::Clique, &counts));
    }
    for counts in [[4, 0], [2, 2], [3, 1], [1, 4]] {
        for (i, a) in FAMILIES.into_iter().enumerate() {
            for b in FAMILIES.into_iter().skip(i + 1) {
                assert_ne!(key(a, &counts), key(b, &counts), "{a:?} {b:?} {counts:?}");
            }
        }
    }
    // Fingerprints separate systems on every class.
    assert_ne!(
        StoreKey::of_family(1, Family::Star, &[2, 2]),
        StoreKey::of_family(2, Family::Star, &[2, 2])
    );
}
