//! The β-clipped neighbourhood view `N_v^C : Q → [β]`.

use std::fmt;

/// What a node sees of its neighbours: for each state, the number of
/// neighbours in that state **clipped at the counting bound β**.
///
/// This is the only view of the world a [`Machine`](crate::Machine) transition
/// ever receives, so the detection restriction of the model is enforced by
/// construction. For non-counting machines (β = 1) every query degenerates to
/// existence.
///
/// # Example
///
/// ```
/// use wam_core::Neighbourhood;
/// let n = Neighbourhood::from_states([1, 1, 1, 2], 2);
/// assert_eq!(n.count(&1), 2);            // 3 neighbours, clipped at β = 2
/// assert_eq!(n.count(&2), 1);
/// assert_eq!(n.count(&9), 0);
/// assert!(n.exists(|&s| s == 2));
/// assert!(n.all(|&s| s >= 1));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Neighbourhood<S> {
    /// Distinct states with their clipped counts; nonzero counts only.
    entries: Vec<(S, u32)>,
    beta: u32,
}

impl<S: fmt::Debug> fmt::Debug for Neighbourhood<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Neighbourhood")
            .field("beta", &self.beta)
            .field("entries", &self.entries)
            .finish()
    }
}

impl<S: Clone + Ord> Neighbourhood<S> {
    /// Builds the clipped view from the raw neighbour states.
    ///
    /// Entries are kept sorted, so two views built from the same multiset
    /// compare equal regardless of iteration order — a transition function
    /// receiving a `Neighbourhood` is automatically a function of the
    /// clipped multiset, as the model requires.
    pub fn from_states<I: IntoIterator<Item = S>>(states: I, beta: u32) -> Self {
        assert!(beta >= 1, "counting bound must be at least 1");
        // Sort + run-length encode: O(d log d) over the degree instead of
        // the linear `find` per neighbour (O(d·k)) this used to do — this
        // constructor runs once per node per step on the hottest paths.
        let mut raw: Vec<S> = states.into_iter().collect();
        raw.sort_unstable();
        let mut entries: Vec<(S, u32)> = Vec::new();
        for s in raw {
            match entries.last_mut() {
                Some((t, c)) if *t == s => *c = (*c + 1).min(beta),
                _ => entries.push((s, 1)),
            }
        }
        Neighbourhood { entries, beta }
    }

    /// The least observed state satisfying `pred`, if any. This is the
    /// canonical choice function used by the simulation compilers.
    pub fn min_where(&self, mut pred: impl FnMut(&S) -> bool) -> Option<&S> {
        self.entries.iter().map(|(s, _)| s).find(|s| pred(s))
    }

    /// Builds the clipped view from aggregated per-state counts (clipping
    /// each count at β). Used by symmetry-reduced configuration
    /// representations where raw neighbour lists are never materialised.
    pub fn from_counts<I: IntoIterator<Item = (S, u64)>>(counts: I, beta: u32) -> Self {
        assert!(beta >= 1, "counting bound must be at least 1");
        let mut entries: Vec<(S, u32)> = Vec::new();
        for (s, c) in counts {
            if c == 0 {
                continue;
            }
            let clipped = (c.min(beta as u64)) as u32;
            match entries.iter_mut().find(|(t, _)| *t == s) {
                Some((_, acc)) => *acc = (*acc + clipped).min(beta),
                None => entries.push((s, clipped)),
            }
        }
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        Neighbourhood { entries, beta }
    }

    /// Wraps entries that are already a view: sorted by state, distinct,
    /// with counts in `1..=β`. The δ session builds views this way in a
    /// buffer it keeps, and takes the buffer back with
    /// [`into_entries`](Self::into_entries).
    pub(crate) fn from_sorted(entries: Vec<(S, u32)>, beta: u32) -> Self {
        debug_assert!(beta >= 1, "counting bound must be at least 1");
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(entries.iter().all(|&(_, c)| (1..=beta).contains(&c)));
        Neighbourhood { entries, beta }
    }

    /// The entries buffer, for reuse by the next
    /// [`from_sorted`](Self::from_sorted).
    pub(crate) fn into_entries(self) -> Vec<(S, u32)> {
        self.entries
    }

    /// The counting bound β of this view.
    pub fn beta(&self) -> u32 {
        self.beta
    }

    /// The clipped count of neighbours in state `s`, in `[0, β]`.
    pub fn count(&self, s: &S) -> u32 {
        self.entries
            .iter()
            .find(|(t, _)| t == s)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }

    /// The paper's `N[a, b]`-style aggregate: sum of clipped counts over all
    /// states satisfying `pred`, itself clipped at β.
    ///
    /// Note that per the model this is an *under*-approximation of the true
    /// number of such neighbours when individual counts saturate, exactly as
    /// in the paper's definition `N[i] := Σ_q N(q)`.
    pub fn count_where(&self, mut pred: impl FnMut(&S) -> bool) -> u32 {
        let sum: u32 = self
            .entries
            .iter()
            .filter(|(s, _)| pred(s))
            .map(|(_, c)| *c)
            .sum();
        sum.min(self.beta)
    }

    /// Whether some neighbour is in a state satisfying `pred`.
    pub fn exists(&self, mut pred: impl FnMut(&S) -> bool) -> bool {
        self.entries.iter().any(|(s, _)| pred(s))
    }

    /// Whether every neighbour is in a state satisfying `pred`.
    /// (Vacuously true with no neighbours, which cannot happen on connected
    /// graphs with ≥ 3 nodes.)
    pub fn all(&self, mut pred: impl FnMut(&S) -> bool) -> bool {
        self.entries.iter().all(|(s, _)| pred(s))
    }

    /// Whether no neighbour satisfies `pred`.
    pub fn none(&self, pred: impl FnMut(&S) -> bool) -> bool {
        !self.exists(pred)
    }

    /// Iterates over the distinct observed states with their clipped counts.
    pub fn states(&self) -> impl Iterator<Item = (&S, u32)> {
        self.entries.iter().map(|(s, c)| (s, *c))
    }

    /// Number of distinct states observed.
    pub fn distinct(&self) -> usize {
        self.entries.len()
    }

    /// Projects the view through a state map, re-aggregating and re-clipping.
    ///
    /// This is **clip-exact**: for any total function `f`, the projected view
    /// equals the view that would have been computed from the raw neighbour
    /// multiset mapped through `f`. (Proof: for each target state `t`,
    /// `min(Σ_{s∈f⁻¹(t)} min(c_s, β), β) = min(Σ c_s, β)`, because if every
    /// `c_s < β` the inner clips are identities, and otherwise both sides
    /// are β.) Product machines rely on this to hand their components an
    /// honest view.
    pub fn project<T: Clone + Ord>(&self, f: impl Fn(&S) -> T) -> Neighbourhood<T> {
        let mut entries: Vec<(T, u32)> = Vec::new();
        for (s, c) in &self.entries {
            let t = f(s);
            match entries.iter_mut().find(|(u, _)| *u == t) {
                Some((_, acc)) => *acc = (*acc + c).min(self.beta),
                None => entries.push((t, (*c).min(self.beta))),
            }
        }
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        Neighbourhood {
            entries,
            beta: self.beta,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clipping_at_beta() {
        let n = Neighbourhood::from_states([5, 5, 5, 5], 3);
        assert_eq!(n.count(&5), 3);
        let n1 = Neighbourhood::from_states([5, 5], 1);
        assert_eq!(n1.count(&5), 1);
    }

    #[test]
    fn count_where_aggregates_and_clips() {
        let n = Neighbourhood::from_states([1, 1, 2, 3], 2);
        // counts: 1↦2, 2↦1, 3↦1; states ≥ 2 sum to 2 ≤ β.
        assert_eq!(n.count_where(|&s| s >= 2), 2);
        // all states sum to 4, clipped at β = 2.
        assert_eq!(n.count_where(|_| true), 2);
    }

    #[test]
    fn exists_all_none() {
        let n = Neighbourhood::from_states([1, 2], 1);
        assert!(n.exists(|&s| s == 2));
        assert!(!n.exists(|&s| s == 3));
        assert!(n.all(|&s| s <= 2));
        assert!(!n.all(|&s| s == 1));
        assert!(n.none(|&s| s == 0));
    }

    #[test]
    fn projection_is_clip_exact() {
        // Raw neighbours: (a,0) ×2, (a,1) ×2, (b,0) ×1 with β = 3.
        let raw = [("a", 0), ("a", 0), ("a", 1), ("a", 1), ("b", 0)];
        let n = Neighbourhood::from_states(raw.iter().copied(), 3);
        let p = n.project(|&(x, _)| x);
        let direct = Neighbourhood::from_states(raw.iter().map(|&(x, _)| x), 3);
        assert_eq!(p.count(&"a"), direct.count(&"a"));
        assert_eq!(p.count(&"b"), direct.count(&"b"));
    }

    #[test]
    fn projection_clip_exact_under_saturation() {
        // 4 + 4 neighbours project onto one state; β = 3 saturates both ways.
        let raw: Vec<(u8, u8)> = (0..4)
            .map(|_| (1, 0))
            .chain((0..4).map(|_| (1, 1)))
            .collect();
        let n = Neighbourhood::from_states(raw.iter().copied(), 3);
        let p = n.project(|&(x, _)| x);
        assert_eq!(p.count(&1), 3);
    }

    /// The pre-RLE construction: linear `find` per neighbour, final sort.
    /// Kept verbatim as the reference for the equality pin below.
    fn from_states_linear<S: Clone + Ord>(states: &[S], beta: u32) -> Neighbourhood<S> {
        let mut entries: Vec<(S, u32)> = Vec::new();
        for s in states {
            match entries.iter_mut().find(|(t, _)| t == s) {
                Some((_, c)) => *c = (*c + 1).min(beta),
                None => entries.push((s.clone(), 1)),
            }
        }
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        Neighbourhood { entries, beta }
    }

    #[test]
    fn rle_construction_matches_linear_on_permuted_inputs() {
        // The sort+RLE rewrite must be observationally identical to the old
        // construction — same entries, same clipping — on every input
        // order. Walk a deterministic family of multisets and rotations.
        for beta in [1u32, 2, 3, 7] {
            for n in 0..9usize {
                let base: Vec<u8> = (0..n).map(|i| ((i * 5 + 3) % 4) as u8).collect();
                for rot in 0..=n {
                    let mut perm = base.clone();
                    perm.rotate_left(rot % n.max(1));
                    if rot % 2 == 1 {
                        perm.reverse();
                    }
                    let fast = Neighbourhood::from_states(perm.iter().copied(), beta);
                    let slow = from_states_linear(&perm, beta);
                    assert_eq!(fast.entries, slow.entries, "beta={beta} perm={perm:?}");
                    assert_eq!(fast.beta, slow.beta);
                }
            }
        }
    }

    #[test]
    fn distinct_counts_states() {
        let n = Neighbourhood::from_states([1, 1, 2], 4);
        assert_eq!(n.distinct(), 2);
        let mut seen: Vec<(i32, u32)> = n.states().map(|(s, c)| (*s, c)).collect();
        seen.sort();
        assert_eq!(seen, vec![(1, 2), (2, 1)]);
    }
}
