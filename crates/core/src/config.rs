//! Configurations `C : V → Q` and the step semantics.

use crate::{Machine, Neighbourhood, Output, Selection, State};
use rustc_hash::FxHashMap;
use std::fmt;
use wam_graph::{Graph, NodeId};

/// A configuration of a machine on a graph: one state per node.
///
/// # Example
///
/// ```
/// use wam_core::{Config, Machine, Output, Selection};
/// use wam_graph::generators;
///
/// let g = generators::cycle(3);
/// let m = Machine::new(
///     1,
///     |_| 0u32,
///     |&s, n| s.max(n.count_where(|&t| t > s)),
///     |_| Output::Neutral,
/// );
/// let c0 = Config::initial(&m, &g);
/// assert_eq!(c0.states(), &[0, 0, 0]);
/// let c1 = c0.successor(&m, &g, &Selection::exclusive(1));
/// assert_eq!(c1.states(), &[0, 0, 0]); // silent step
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Config<S> {
    states: Vec<S>,
}

impl<S: fmt::Debug> fmt::Debug for Config<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Config{:?}", self.states)
    }
}

impl<S: State> Config<S> {
    /// The initial configuration `C₀(v) = δ₀(λ(v))`.
    pub fn initial(machine: &Machine<S>, graph: &Graph) -> Self {
        Config {
            states: graph
                .nodes()
                .map(|v| machine.initial(graph.label(v)))
                .collect(),
        }
    }

    /// Builds a configuration from explicit per-node states.
    pub fn from_states(states: Vec<S>) -> Self {
        Config { states }
    }

    /// The per-node states, indexed by node id.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// The state of node `v`.
    pub fn state(&self, v: NodeId) -> &S {
        &self.states[v]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the configuration is empty (never for valid graphs).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The β-clipped neighbourhood of node `v` in this configuration.
    pub fn neighbourhood(
        &self,
        machine: &Machine<S>,
        graph: &Graph,
        v: NodeId,
    ) -> Neighbourhood<S> {
        Neighbourhood::from_states(
            graph.neighbours(v).iter().map(|&u| self.states[u].clone()),
            machine.beta(),
        )
    }

    /// The successor configuration `succ_δ(C, S)`: all nodes in the selection
    /// evaluate δ simultaneously against this configuration; others idle.
    pub fn successor(&self, machine: &Machine<S>, graph: &Graph, sel: &Selection) -> Self {
        let mut next = self.states.clone();
        for &v in sel.nodes() {
            let n = self.neighbourhood(machine, graph, v);
            next[v] = machine.step(&self.states[v], &n);
        }
        Config { states: next }
    }

    /// Steps a single node, returning the new state (does not modify `self`).
    pub fn stepped_state(&self, machine: &Machine<S>, graph: &Graph, v: NodeId) -> S {
        let n = self.neighbourhood(machine, graph, v);
        machine.step(&self.states[v], &n)
    }

    /// Whether the configuration is accepting (every node's state in `Y`).
    pub fn is_accepting(&self, machine: &Machine<S>) -> bool {
        self.states
            .iter()
            .all(|s| machine.output(s) == Output::Accept)
    }

    /// Whether the configuration is rejecting (every node's state in `N`).
    pub fn is_rejecting(&self, machine: &Machine<S>) -> bool {
        self.states
            .iter()
            .all(|s| machine.output(s) == Output::Reject)
    }

    /// The consensus output, if all nodes agree.
    pub fn consensus(&self, machine: &Machine<S>) -> Option<Output> {
        let first = machine.output(&self.states[0]);
        self.states[1..]
            .iter()
            .all(|s| machine.output(s) == first)
            .then_some(first)
    }

    /// The multiset of states (state ↦ number of nodes occupying it).
    pub fn state_count(&self) -> FxHashMap<S, usize> {
        let mut m = FxHashMap::default();
        for s in &self.states {
            *m.entry(s.clone()).or_insert(0) += 1;
        }
        m
    }

    /// Maps every node's state through `f`.
    pub fn map<T: State>(&self, f: impl Fn(&S) -> T) -> Config<T> {
        Config {
            states: self.states.iter().map(f).collect(),
        }
    }
}

/// A configuration bit-packed into `u64` words: each node's interned state
/// id occupies a fixed power-of-two bit-field, so fields never straddle a
/// word boundary and get/patch are shift-and-mask operations.
///
/// This is the dense successor kernel's configuration representation (see
/// `wam_core::kernel`): equality and hashing run word-wise over the packed
/// row — no per-node comparison, and [`Interner`](crate::Interner)
/// collision checks touch one or two words for typical graphs. Rows of at
/// most two words (e.g. 16 nodes at 8 bits per node) are stored **inline**,
/// so cloning a configuration and patching one node's field — the exclusive
/// successor construction — allocates nothing.
///
/// The bit width is session-wide: every `PackedConfig` in one kernel
/// exploration uses the same `(bits, nodes)` layout, with unused high bits
/// zero, so word-wise `Eq`/`Hash` coincide with per-node equality. The
/// width lives with the kernel session, not here — all accessors take it
/// explicitly.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PackedConfig(PackedRepr);

#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum PackedRepr {
    /// Up to two words, stored without heap allocation; unused words zero.
    Inline([u64; 2]),
    /// Longer rows spill to the heap.
    Heap(Box<[u64]>),
}

impl fmt::Debug for PackedConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PackedConfig{:x?}", self.words())
    }
}

impl PackedConfig {
    /// Valid per-node bit widths: powers of two, so a field never straddles
    /// a `u64` word and every access is one shift-and-mask.
    pub const WIDTHS: [u32; 5] = [1, 2, 4, 8, 16];

    /// Number of `u64` words a row of `nodes` fields of `bits` bits needs.
    #[inline]
    pub fn words_for(nodes: usize, bits: u32) -> usize {
        let per_word = (64 / bits) as usize;
        nodes.div_ceil(per_word).max(1)
    }

    /// Packs per-node state ids into a row. Every id must fit in `bits`
    /// bits (the kernel widens and restarts before this can fail).
    pub fn pack(ids: impl IntoIterator<Item = u16>, nodes: usize, bits: u32) -> Self {
        debug_assert!(Self::WIDTHS.contains(&bits), "unsupported width {bits}");
        let nwords = Self::words_for(nodes, bits);
        let mut pc = if nwords <= 2 {
            PackedConfig(PackedRepr::Inline([0; 2]))
        } else {
            PackedConfig(PackedRepr::Heap(vec![0u64; nwords].into_boxed_slice()))
        };
        let mut n = 0usize;
        for (v, id) in ids.into_iter().enumerate() {
            debug_assert!(u32::from(id) < (1u32 << bits).min(1 << 16), "id overflow");
            pc.set(v, id, bits);
            n += 1;
        }
        debug_assert_eq!(n, nodes, "packed row length mismatch");
        pc
    }

    /// The packed words (unused high bits are zero).
    #[inline]
    pub fn words(&self) -> &[u64] {
        match &self.0 {
            PackedRepr::Inline(w) => w,
            PackedRepr::Heap(w) => w,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.0 {
            PackedRepr::Inline(w) => w,
            PackedRepr::Heap(w) => w,
        }
    }

    /// The state id of node `v` under the session width `bits`.
    ///
    /// `bits` is a power of two, so the word index and in-word offset are
    /// shifts and masks — no hardware division on the kernel's hot path.
    #[inline]
    pub fn get(&self, v: usize, bits: u32) -> u16 {
        let lb = bits.trailing_zeros(); // log₂ bits
        let word = self.words()[v >> (6 - lb)];
        let shift = (((v as u64) << lb) & 63) as u32;
        let mask = (1u64 << bits) - 1;
        ((word >> shift) & mask) as u16
    }

    /// Overwrites node `v`'s field with `id` — the single-position patch
    /// behind exclusive successor construction.
    #[inline]
    pub fn set(&mut self, v: usize, id: u16, bits: u32) {
        let lb = bits.trailing_zeros();
        let shift = (((v as u64) << lb) & 63) as u32;
        let mask = ((1u64 << bits) - 1) << shift;
        let w = &mut self.words_mut()[v >> (6 - lb)];
        *w = (*w & !mask) | (u64::from(id) << shift);
    }

    /// Clones the row and patches one node's field: the allocation-free
    /// (for inline rows) exclusive-successor step.
    #[inline]
    pub fn with_patched(&self, v: usize, id: u16, bits: u32) -> Self {
        let mut next = self.clone();
        next.set(v, id, bits);
        next
    }

    /// Unpacks the row back into per-node state ids.
    pub fn unpack(&self, nodes: usize, bits: u32) -> Vec<u16> {
        let mut out = Vec::with_capacity(nodes);
        self.unpack_into(nodes, bits, &mut out);
        out
    }

    /// Appends the per-node state ids to `out`, word-wise: one word load
    /// per `64 / bits` nodes instead of one indexed field extraction per
    /// node — the kernel unpacks every configuration it expands.
    #[inline]
    pub fn unpack_into(&self, nodes: usize, bits: u32, out: &mut Vec<u16>) {
        let lb = bits.trailing_zeros();
        let per_word = 64usize >> lb;
        let mask = (1u64 << bits) - 1;
        let mut left = nodes;
        for &word in self.words() {
            if left == 0 {
                break;
            }
            let n = per_word.min(left);
            out.extend((0..n).map(|j| ((word >> (j << lb)) & mask) as u16));
            left -= n;
        }
    }

    /// Heap bytes owned by this row (0 for inline rows); the arena
    /// accounting behind the kernel bench's `memory_bytes` column.
    pub fn heap_bytes(&self) -> usize {
        match &self.0 {
            PackedRepr::Inline(_) => 0,
            PackedRepr::Heap(w) => std::mem::size_of_val(&**w),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Output;
    use wam_graph::generators;

    fn flood() -> Machine<bool> {
        Machine::new(
            1,
            |l| l.0 == 1,
            |&s, n| s || n.exists(|&t| t),
            |&s| if s { Output::Accept } else { Output::Reject },
        )
    }

    #[test]
    fn initial_uses_labels() {
        let g = generators::labelled_line(&wam_graph::LabelCount::from_vec(vec![2, 1]));
        let c = Config::initial(&flood(), &g);
        assert_eq!(c.states(), &[false, false, true]);
    }

    #[test]
    fn exclusive_step_flood() {
        let g = generators::labelled_line(&wam_graph::LabelCount::from_vec(vec![2, 1]));
        let m = flood();
        let c0 = Config::initial(&m, &g);
        let c1 = c0.successor(&m, &g, &Selection::exclusive(1));
        assert_eq!(c1.states(), &[false, true, true]);
        let c2 = c1.successor(&m, &g, &Selection::exclusive(0));
        assert_eq!(c2.states(), &[true, true, true]);
        assert!(c2.is_accepting(&m));
        assert_eq!(c2.consensus(&m), Some(Output::Accept));
    }

    #[test]
    fn synchronous_step_is_simultaneous() {
        // On a line t-f-f-t, one synchronous step floods inward from both ends.
        let g = generators::line(4);
        let m = flood();
        let c = Config::from_states(vec![true, false, false, true]);
        let all = Selection::all(&g);
        let c1 = c.successor(&m, &g, &all);
        assert_eq!(c1.states(), &[true, true, true, true]);
    }

    #[test]
    fn unselected_nodes_idle() {
        let g = generators::line(3);
        let m = flood();
        let c = Config::from_states(vec![true, false, false]);
        let c1 = c.successor(&m, &g, &Selection::exclusive(2));
        // Node 2 sees only node 1 (false), so nothing changes.
        assert_eq!(c1.states(), &[true, false, false]);
    }

    #[test]
    fn state_count_aggregates() {
        let c = Config::from_states(vec![1, 1, 2]);
        let sc = c.state_count();
        assert_eq!(sc[&1], 2);
        assert_eq!(sc[&2], 1);
    }

    #[test]
    fn no_consensus_when_mixed() {
        let m = flood();
        let c = Config::from_states(vec![true, false, false]);
        assert_eq!(c.consensus(&m), None);
        assert!(!c.is_accepting(&m));
        assert!(!c.is_rejecting(&m));
    }

    #[test]
    fn packed_roundtrip_all_widths() {
        for &bits in &PackedConfig::WIDTHS {
            for nodes in [1usize, 3, 7, 16, 40, 200] {
                let max = 1u32 << bits.min(15);
                let ids: Vec<u16> = (0..nodes)
                    .map(|v| ((v as u32 * 7 + 3) % max) as u16)
                    .collect();
                let pc = PackedConfig::pack(ids.iter().copied(), nodes, bits);
                assert_eq!(pc.unpack(nodes, bits), ids, "bits={bits} nodes={nodes}");
                // Inline rows always carry two words; any words beyond the
                // logical row are zero, so Eq/Hash stay consistent.
                let nwords = PackedConfig::words_for(nodes, bits);
                assert!(pc.words().len() >= nwords);
                assert!(pc.words()[nwords..].iter().all(|&w| w == 0));
            }
        }
    }

    #[test]
    fn packed_patch_changes_one_field() {
        let ids: Vec<u16> = (0..20).map(|v| (v % 13) as u16).collect();
        let pc = PackedConfig::pack(ids.iter().copied(), 20, 4);
        for v in 0..20 {
            let patched = pc.with_patched(v, 9, 4);
            let mut expect = ids.clone();
            expect[v] = 9;
            assert_eq!(patched.unpack(20, 4), expect);
            // The original row is untouched.
            assert_eq!(pc.unpack(20, 4), ids);
        }
    }

    #[test]
    fn packed_eq_hash_are_wordwise_consistent() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = PackedConfig::pack([1u16, 2, 3], 3, 8);
        let b = PackedConfig::pack([1u16, 2, 3], 3, 8);
        let c = PackedConfig::pack([1u16, 2, 4], 3, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let h = |p: &PackedConfig| {
            let mut s = DefaultHasher::new();
            p.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn packed_storage_tiers() {
        // ≤ 2 words inline, beyond that heap.
        let small = PackedConfig::pack((0..16).map(|v| v as u16), 16, 8);
        assert_eq!(small.heap_bytes(), 0);
        let big = PackedConfig::pack((0..40).map(|v| (v % 250) as u16), 40, 8);
        assert!(big.heap_bytes() >= 5 * 8);
    }
}
