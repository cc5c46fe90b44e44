//! The brute-force isomorphism oracle the store-key tests share.

use weak_async_models::graph::{Graph, Label};

fn sorted_labels(g: &Graph) -> Vec<Label> {
    let mut labels = g.labels().to_vec();
    labels.sort_unstable();
    labels
}

/// Whether a label- and adjacency-preserving bijection `g → h` exists:
/// node counts, edge counts and sorted labels first, then backtracking
/// over the nodes of `g` in id order.
pub fn isomorphic(g: &Graph, h: &Graph) -> bool {
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
    if g.node_count() != h.node_count()
        || g.edge_count() != h.edge_count()
        || sorted_labels(g) != sorted_labels(h)
    {
        return false;
    }
    let mut img = Vec::with_capacity(g.node_count());
    let mut used = vec![false; h.node_count()];
    extend(g, h, &mut img, &mut used)
}
