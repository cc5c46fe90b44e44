//! Finite, simple, connected, undirected labelled graphs.

use crate::{Alphabet, GraphError, Label, LabelCount};
use std::fmt;

/// Identifier of a node in a [`Graph`] (a dense index).
pub type NodeId = usize;

/// A labelled communication graph `G = (V, E, λ)`.
///
/// The paper's standing convention is enforced at construction time: graphs
/// are simple, undirected, connected, and have at least three nodes.
/// Adjacency is stored in CSR form; neighbour lists are sorted.
///
/// # Example
///
/// ```
/// use wam_graph::{Alphabet, GraphBuilder};
/// let ab = Alphabet::new(["a"]);
/// let a = ab.label("a").unwrap();
/// let g = GraphBuilder::new(ab)
///     .nodes([a, a, a])
///     .edge(0, 1)
///     .edge(1, 2)
///     .build()?;
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.neighbours(1), &[0, 2]);
/// # Ok::<(), wam_graph::GraphError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    alphabet: Alphabet,
    labels: Vec<Label>,
    /// CSR offsets: neighbours of `v` are `adj[offsets[v]..offsets[v+1]]`.
    offsets: Vec<usize>,
    adj: Vec<NodeId>,
    edges: Vec<(NodeId, NodeId)>,
}

impl Graph {
    /// Number of nodes |V|.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of undirected edges |E|.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.labels.len()
    }

    /// The undirected edge list, with `u < v` in each pair.
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// The sorted neighbour list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbours(&self, v: NodeId) -> &[NodeId] {
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Maximum degree over all nodes.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Whether every node has degree ≤ `k` (the §6 bounded-degree setting).
    pub fn is_degree_bounded(&self, k: usize) -> bool {
        self.max_degree() <= k
    }

    /// The label of node `v`.
    pub fn label(&self, v: NodeId) -> Label {
        self.labels[v]
    }

    /// All node labels, indexed by node id.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// The alphabet this graph is labelled over.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The label count `L_G` (Definition A.1).
    pub fn label_count(&self) -> LabelCount {
        let mut c = LabelCount::zero(&self.alphabet);
        for &l in &self.labels {
            c.increment(l);
        }
        c
    }

    /// Whether `{u, v} ∈ E`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbours(u).binary_search(&v).is_ok()
    }

    /// Breadth-first distances from `source` (`usize::MAX` if unreachable,
    /// which cannot happen for constructed graphs).
    pub fn bfs_distances(&self, source: NodeId) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.node_count()];
        let mut queue = std::collections::VecDeque::new();
        dist[source] = 0;
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            for &w in self.neighbours(u) {
                if dist[w] == usize::MAX {
                    dist[w] = dist[u] + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// Whether the graph contains a cycle (i.e. is not a tree).
    pub fn has_cycle(&self) -> bool {
        // A connected graph has a cycle iff |E| ≥ |V|.
        self.edge_count() >= self.node_count()
    }

    /// Renders the graph in Graphviz DOT format, labelling each node with
    /// its id and label name.
    ///
    /// # Example
    ///
    /// ```
    /// use wam_graph::{generators, LabelCount};
    /// let g = generators::labelled_cycle(&LabelCount::from_vec(vec![2, 1]));
    /// let dot = g.to_dot();
    /// assert!(dot.starts_with("graph {"));
    /// assert!(dot.contains("0 -- 1"));
    /// ```
    pub fn to_dot(&self) -> String {
        let mut out = String::from("graph {\n");
        for v in self.nodes() {
            out.push_str(&format!(
                "  {v} [label=\"{v}:{}\"];\n",
                self.alphabet.name(self.labels[v])
            ));
        }
        for &(u, v) in &self.edges {
            out.push_str(&format!("  {u} -- {v};\n"));
        }
        out.push('}');
        out
    }

    /// Graph diameter (longest shortest path).
    pub fn diameter(&self) -> usize {
        self.nodes()
            .map(|v| {
                self.bfs_distances(v)
                    .into_iter()
                    .filter(|&d| d != usize::MAX)
                    .max()
                    .unwrap_or(0)
            })
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count())
            .field("labels", &self.labels)
            .finish()
    }
}

/// Incremental builder for [`Graph`].
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    alphabet: Alphabet,
    labels: Vec<Label>,
    /// Normalised `(min, max)` pairs in insertion order, duplicates
    /// included; [`GraphBuilder::build`] sorts and dedups them once.
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Starts a builder over `alphabet`.
    pub fn new(alphabet: Alphabet) -> Self {
        GraphBuilder {
            alphabet,
            labels: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Adds one node with the given label; returns its id.
    pub fn node(&mut self, label: Label) -> NodeId {
        assert!(
            self.alphabet.contains(label),
            "label out of range for alphabet"
        );
        self.labels.push(label);
        self.labels.len() - 1
    }

    /// Adds several nodes; consumes and returns the builder for chaining.
    pub fn nodes<I: IntoIterator<Item = Label>>(mut self, labels: I) -> Self {
        for l in labels {
            self.node(l);
        }
        self
    }

    /// Adds an undirected edge `{u, v}`; duplicate insertions are ignored.
    pub fn edge(mut self, u: NodeId, v: NodeId) -> Self {
        self.add_edge(u, v);
        self
    }

    /// Adds an undirected edge in place (for loop-heavy construction).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        self.edges.push((u.min(v), u.max(v)));
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Finalises the graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if the graph has fewer than 3 nodes, contains a
    /// self-loop or out-of-range edge, or is disconnected.
    pub fn build(mut self) -> Result<Graph, GraphError> {
        let n = self.labels.len();
        if n < 3 {
            return Err(GraphError::TooSmall { nodes: n });
        }
        self.edges.sort_unstable();
        self.edges.dedup();
        // The graph keeps this `Vec`: drop the growth and duplicate slack.
        self.edges.shrink_to_fit();
        let mut degree = vec![0usize; n];
        for &(u, v) in &self.edges {
            if u == v {
                return Err(GraphError::SelfLoop { node: u });
            }
            if u >= n || v >= n {
                return Err(GraphError::InvalidEdge {
                    node: u.max(v),
                    nodes: n,
                });
            }
            degree[u] += 1;
            degree[v] += 1;
        }
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let mut adj = vec![0usize; offsets[n]];
        let mut cursor = offsets.clone();
        for &(u, v) in &self.edges {
            adj[cursor[u]] = v;
            cursor[u] += 1;
            adj[cursor[v]] = u;
            cursor[v] += 1;
        }
        for v in 0..n {
            adj[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        let graph = Graph {
            alphabet: self.alphabet,
            labels: self.labels,
            offsets,
            adj,
            edges: self.edges,
        };
        if graph.bfs_distances(0).contains(&usize::MAX) {
            return Err(GraphError::Disconnected);
        }
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab() -> Alphabet {
        Alphabet::new(["a", "b"])
    }

    fn l(ab: &Alphabet, s: &str) -> Label {
        ab.label(s).unwrap()
    }

    #[test]
    fn triangle_builds() {
        let ab = ab();
        let a = l(&ab, "a");
        let g = GraphBuilder::new(ab)
            .nodes([a, a, a])
            .edge(0, 1)
            .edge(1, 2)
            .edge(0, 2)
            .build()
            .unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_cycle());
        assert_eq!(g.diameter(), 1);
    }

    #[test]
    fn too_small_rejected() {
        let ab = ab();
        let a = l(&ab, "a");
        let err = GraphBuilder::new(ab).nodes([a, a]).edge(0, 1).build();
        assert_eq!(err.unwrap_err(), GraphError::TooSmall { nodes: 2 });
    }

    #[test]
    fn disconnected_rejected() {
        let ab = ab();
        let a = l(&ab, "a");
        let err = GraphBuilder::new(ab)
            .nodes([a, a, a, a])
            .edge(0, 1)
            .edge(2, 3)
            .build();
        assert_eq!(err.unwrap_err(), GraphError::Disconnected);
    }

    #[test]
    fn self_loop_rejected() {
        let ab = ab();
        let a = l(&ab, "a");
        let err = GraphBuilder::new(ab)
            .nodes([a, a, a])
            .edge(0, 0)
            .edge(0, 1)
            .edge(1, 2)
            .build();
        assert_eq!(err.unwrap_err(), GraphError::SelfLoop { node: 0 });
    }

    #[test]
    fn invalid_edge_rejected() {
        let ab = ab();
        let a = l(&ab, "a");
        let err = GraphBuilder::new(ab)
            .nodes([a, a, a])
            .edge(0, 7)
            .edge(0, 1)
            .edge(1, 2)
            .build();
        assert!(matches!(err.unwrap_err(), GraphError::InvalidEdge { .. }));
    }

    #[test]
    fn duplicate_edges_ignored() {
        let ab = ab();
        let a = l(&ab, "a");
        let g = GraphBuilder::new(ab)
            .nodes([a, a, a])
            .edge(0, 1)
            .edge(1, 0)
            .edge(1, 2)
            .build()
            .unwrap();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn label_count_matches_labels() {
        let ab = ab();
        let a = l(&ab, "a");
        let b = l(&ab, "b");
        let g = GraphBuilder::new(ab.clone())
            .nodes([a, b, a])
            .edge(0, 1)
            .edge(1, 2)
            .build()
            .unwrap();
        assert_eq!(
            g.label_count(),
            LabelCount::from_pairs(&ab, [("a", 2), ("b", 1)])
        );
    }

    #[test]
    fn line_is_acyclic() {
        let ab = ab();
        let a = l(&ab, "a");
        let g = GraphBuilder::new(ab)
            .nodes([a, a, a, a])
            .edge(0, 1)
            .edge(1, 2)
            .edge(2, 3)
            .build()
            .unwrap();
        assert!(!g.has_cycle());
        assert_eq!(g.diameter(), 3);
    }

    #[test]
    fn neighbours_sorted_and_degree() {
        let ab = ab();
        let a = l(&ab, "a");
        let g = GraphBuilder::new(ab)
            .nodes([a, a, a, a])
            .edge(2, 0)
            .edge(2, 3)
            .edge(2, 1)
            .build()
            .unwrap();
        assert_eq!(g.neighbours(2), &[0, 1, 3]);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.max_degree(), 3);
        assert!(g.is_degree_bounded(3));
        assert!(!g.is_degree_bounded(2));
    }
}
