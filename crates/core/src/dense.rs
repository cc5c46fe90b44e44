//! Dense counter and ring rows: the counter and ring abstractions of
//! `counter`, explored over `u64` words. Both row kinds are `Expand`
//! implementations on a fresh δ session per exploration, explored by the
//! same session-bound transition system as the packed node rows of
//! `kernel`; consensus reads the state id in bits 32..48 of every word.
//!
//! [`CounterSystem`] and [`RingSystem`] step over generic configurations:
//! every successor clones states, builds a sorted [`Neighbourhood`] and
//! calls the boxed δ. The rows here carry interned state ids instead, so
//! a step is a memo lookup and a successor is a word copy:
//!
//! * a [`CounterRow`] is the sorted word list `(cell << 48) | (sid << 32)
//!   | count` of a [`CounterConfig`]. A node of cell `o` in state `p` sees
//!   the counts of every cell visible from `o` — the adjacent cells, and
//!   `o` itself minus the node if `o` is a clique cell — so its β-clipped
//!   signature depends on the row alone, not on the graph, and the step
//!   is a `(sid, signature)` lookup;
//! * a [`RingRow`] is the canonical run list `(sid << 32) | length` of a
//!   [`RingConfig`], canonicalised exactly like `RingConfig::normalise`
//!   (lexicographic minimum over rotations and reflections), and every
//!   step is a raw-memo lookup on `(own, left, right)`.
//!
//! Both row kinds keep their words inline up to a fixed length and spill
//! only longer rows to the heap. A successor is written into a reused
//! scratch buffer — `moved` patches one count, a ring surgery splices runs
//! and re-normalises in place — and then copied into inline storage, so a
//! steady-state step allocates nothing.
//!
//! Rows map one-to-one onto the generic configurations: both are
//! canonical forms of the same classes, ordered by interned id instead of
//! by state. Reachable sets, explored counts and verdicts therefore
//! coincide — pinned by the `counter_differential` suite — while dense
//! ids may arrive in a different order. More than
//! 65 534 reachable states exhausts the `u16` ids; the explorations then
//! refuse with [`ExploreError::Unsupported`] and `decide` falls back to
//! the generic systems.

use crate::delta::{push_sig, raw_key, Expand, Scratch, Steps};
use crate::explore::{ExploreError, ExploreOptions, SuccBuf, TransitionSystem};
use crate::kernel::{explore_dense, KernelExploration, KernelRow};
use crate::{CounterConfig, CounterSystem, RingConfig, RingSystem, State};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// Low 32 bits of a row word: a count or a run length.
const LOW: u64 = 0xFFFF_FFFF;

/// The interned state id of a counter or ring word.
#[inline]
fn sid(w: u64) -> u16 {
    (w >> 32) as u16
}

/// The twin cell of a counter word.
#[inline]
fn cell(w: u64) -> u16 {
    (w >> 48) as u16
}

/// Rows of at most this many words are stored inline. Counter and ring
/// rows of the paper catalog's pool keys average four to five words.
const INLINE_WORDS: usize = 6;

/// The words of a counter or ring row: inline up to [`INLINE_WORDS`], so
/// copying a successor into the row arena allocates nothing, and spilled to
/// the heap beyond. The representation is canonical (a row is inline
/// exactly when it fits), and equality, hashing and `Debug` go through the
/// word slice.
#[derive(Clone)]
enum Words {
    Inline(u8, [u64; INLINE_WORDS]),
    Heap(Box<[u64]>),
}

impl Words {
    fn from_slice(words: &[u64]) -> Self {
        if words.len() <= INLINE_WORDS {
            let mut inline = [0; INLINE_WORDS];
            inline[..words.len()].copy_from_slice(words);
            Words::Inline(words.len() as u8, inline)
        } else {
            Words::Heap(words.into())
        }
    }

    /// Heap bytes owned by the row (0 for inline rows).
    fn heap_bytes(&self) -> usize {
        match self {
            Words::Inline(..) => 0,
            Words::Heap(w) => std::mem::size_of_val(&**w),
        }
    }
}

impl Deref for Words {
    type Target = [u64];

    #[inline]
    fn deref(&self) -> &[u64] {
        match self {
            Words::Inline(len, w) => &w[..*len as usize],
            Words::Heap(w) => w,
        }
    }
}

impl PartialEq for Words {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Words {}

impl Hash for Words {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for Words {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// A counter-abstracted configuration over interned states: sorted words
/// `(cell << 48) | (sid << 32) | count`, counts ≥ 1. The dense twin of
/// [`CounterConfig`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CounterRow(Words);

impl<S: State> KernelRow<S> for CounterRow {
    type Config = CounterConfig<S>;

    fn unpack(&self, states: &[S], _nodes: usize, _bits: u32) -> CounterConfig<S> {
        CounterConfig::from_entries(
            self.0
                .iter()
                .map(|&w| (cell(w), states[sid(w) as usize].clone(), w & LOW)),
        )
    }

    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }
}

/// A necklace over interned states: the canonical run list `(sid << 32) |
/// length`. The dense twin of [`RingConfig`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RingRow(Words);

impl<S: State> KernelRow<S> for RingRow {
    type Config = RingConfig<S>;

    fn unpack(&self, states: &[S], _nodes: usize, _bits: u32) -> RingConfig<S> {
        RingConfig::from_runs(
            self.0
                .iter()
                .map(|&w| (states[sid(w) as usize].clone(), (w & LOW) as u32)),
        )
    }

    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }
}

/// The counter rows' expansion: per-cell visibility precomputed from the
/// twin partition.
#[derive(Debug)]
struct CounterRows {
    beta: u32,
    /// `closed[o]`: cell `o` is a clique cell (its members see each other).
    closed: Vec<bool>,
    /// `visible[o]`: the sorted cells a node of cell `o` sees — the cells
    /// adjacent to `o`, plus `o` itself if it is a clique cell.
    visible: Vec<Vec<u16>>,
}

impl<S: State> Expand<S> for CounterRows {
    type C = CounterRow;

    /// One successor per entry whose state steps, in row order: the node
    /// moves from `(o, p)` to `(o, δ(p, view))`. The entries of one cell
    /// share their visible counts, merged once per cell; a clique cell's
    /// own entry then loses the stepping node itself.
    fn expand(
        &self,
        steps: &mut Steps<'_, S>,
        c: &CounterRow,
        out: &mut SuccBuf<CounterRow>,
        scratch: &mut Scratch,
    ) -> Option<()> {
        let Scratch {
            words: seen,
            key,
            row: next,
            ..
        } = scratch;
        let row = &*c.0;
        let mut i = 0;
        while i < row.len() {
            let o = cell(row[i]);
            let end = i + row[i..].iter().take_while(|&&w| cell(w) == o).count();
            let vis = &self.visible[o as usize];
            // The visible (sid << 32 | count) pairs, merged per sid.
            seen.clear();
            seen.extend(
                row.iter()
                    .filter(|&&w| vis.binary_search(&cell(w)).is_ok())
                    .map(|&w| w & !(0xFFFF_u64 << 48)),
            );
            seen.sort_unstable();
            merge_by_sid(seen);
            let closed = self.closed[o as usize];
            for (idx, &w) in row.iter().enumerate().take(end).skip(i) {
                let p = sid(w);
                if idx == i || closed {
                    key.clear();
                    for &e in seen.iter() {
                        let own = u64::from(closed && sid(e) == p);
                        push_sig(key, sid(e), (e & LOW) - own, self.beta);
                    }
                }
                let q = steps.canonical(p, key)?;
                if q != p {
                    out.push(moved(row, idx, o, q, next));
                }
            }
            i = end;
        }
        Some(())
    }

    fn sids<'c>(&'c self, c: &'c CounterRow) -> impl Iterator<Item = u16> + 'c {
        c.0.iter().map(|&w| sid(w))
    }
}

/// Merges adjacent words of equal state id, summing their low 32 bits
/// (counts of one state seen in several cells, or adjacent runs of one
/// state).
fn merge_by_sid(words: &mut Vec<u64>) {
    let mut merged = 0;
    for r in 0..words.len() {
        if merged > 0 && sid(words[merged - 1]) == sid(words[r]) {
            words[merged - 1] += words[r] & LOW;
        } else {
            words[merged] = words[r];
            merged += 1;
        }
    }
    words.truncate(merged);
}

/// The row with one node of entry `idx` moved to state `q` of the same
/// cell: the entry's count drops (vanishing at zero) and `(cell, q)`
/// gains one, inserted in sorted position if absent. Built in `next`,
/// then copied into the row's own storage.
fn moved(row: &[u64], idx: usize, cell: u16, q: u16, next: &mut Vec<u64>) -> CounterRow {
    let target = (u64::from(cell) << 48) | (u64::from(q) << 32);
    let pos = row.binary_search_by(|&w| (w & !LOW).cmp(&target));
    let vanishes = row[idx] & LOW == 1;
    let len = row.len() - usize::from(vanishes) + usize::from(pos.is_err());
    next.clear();
    for (k, &w) in row.iter().enumerate() {
        if pos == Err(k) {
            next.push(target | 1);
        }
        if k == idx {
            if !vanishes {
                next.push(w - 1);
            }
        } else if pos == Ok(k) {
            next.push(w + 1);
        } else {
            next.push(w);
        }
    }
    if pos == Err(row.len()) {
        next.push(target | 1);
    }
    debug_assert_eq!(next.len(), len);
    CounterRow(Words::from_slice(next))
}

/// The ring rows' expansion.
#[derive(Debug)]
struct RingRows;

impl<S: State> Expand<S> for RingRows {
    type C = RingRow;

    /// The successors [`RingSystem`] enumerates, run by run: the left
    /// boundary node, the right boundary node, then every interior split
    /// position (a single-node run steps once against both neighbours).
    fn expand(
        &self,
        steps: &mut Steps<'_, S>,
        c: &RingRow,
        out: &mut SuccBuf<RingRow>,
        scratch: &mut Scratch,
    ) -> Option<()> {
        let buf = &mut scratch.words;
        let runs = &*c.0;
        let m = runs.len();
        let run = |s: u16, len: u64| (u64::from(s) << 32) | len;
        for i in 0..m {
            let (p, len) = (sid(runs[i]), runs[i] & LOW);
            let (a, b) = if m == 1 {
                (p, p)
            } else {
                (sid(runs[(i + m - 1) % m]), sid(runs[(i + 1) % m]))
            };
            if len == 1 {
                let q = steps.raw(raw_key(p, [a, b]))?;
                if q != p {
                    out.push(surgery(runs, i, &[run(q, 1)], buf));
                }
                continue;
            }
            let q = steps.raw(raw_key(p, [a, p]))?;
            if q != p {
                out.push(surgery(runs, i, &[run(q, 1), run(p, len - 1)], buf));
            }
            let q = steps.raw(raw_key(p, [p, b]))?;
            if q != p {
                out.push(surgery(runs, i, &[run(p, len - 1), run(q, 1)], buf));
            }
            if len >= 3 {
                let q = steps.raw(raw_key(p, [p, p]))?;
                if q != p {
                    for k in 1..=len - 2 {
                        let patch = [run(p, k), run(q, 1), run(p, len - 1 - k)];
                        out.push(surgery(runs, i, &patch, buf));
                    }
                }
            }
        }
        Some(())
    }

    fn sids<'c>(&'c self, c: &'c RingRow) -> impl Iterator<Item = u16> + 'c {
        c.0.iter().map(|&w| sid(w))
    }
}

/// The run list with run `i` replaced by `patch`, re-normalised.
fn surgery(runs: &[u64], i: usize, patch: &[u64], buf: &mut Vec<u64>) -> RingRow {
    buf.clear();
    buf.extend_from_slice(&runs[..i]);
    buf.extend_from_slice(patch);
    buf.extend_from_slice(&runs[i + 1..]);
    normalise(buf)
}

/// Merges adjacent equal-state runs (including across the wraparound) and
/// picks the lexicographically least rotation of the run list or of its
/// reversal — `RingConfig::normalise` over words, comparing rotations in
/// place instead of materialising each one, then turning `buf` into the
/// winner in place. O(m²) on m runs.
fn normalise(buf: &mut Vec<u64>) -> RingRow {
    merge_by_sid(buf);
    while buf.len() >= 2 && sid(buf[0]) == sid(buf[buf.len() - 1]) {
        let last = buf.pop().expect("two runs");
        buf[0] += last & LOW;
    }
    let m = buf.len();
    let at = |(rev, shift): (bool, usize), j: usize| {
        let x = (shift + j) % m;
        if rev {
            buf[m - 1 - x]
        } else {
            buf[x]
        }
    };
    let mut best = (false, 0);
    for candidate in (1..m).map(|s| (false, s)).chain((0..m).map(|s| (true, s))) {
        let first_diff = (0..m)
            .map(|j| (at(candidate, j), at(best, j)))
            .find(|(a, b)| a != b);
        if matches!(first_diff, Some((a, b)) if a < b) {
            best = candidate;
        }
    }
    let (rev, shift) = best;
    if rev {
        buf.reverse();
    }
    buf.rotate_left(shift);
    RingRow(Words::from_slice(buf))
}

/// Explores the counter abstraction of `counter` over [`CounterRow`]s.
/// Row for row the same space as `Exploration::explore_with(counter, …)`:
/// the same reachable count vectors (after unpacking), explored count and
/// verdict.
///
/// # Errors
///
/// [`ExploreError::TooLarge`] when `options.limit` is exhausted, and
/// [`ExploreError::Unsupported`] when more than 65 534 distinct states are
/// reachable or the counting bound exceeds the 16-bit signature counts
/// (`decide` then explores `counter` itself).
pub fn explore_counter_kernel<S: State>(
    counter: &CounterSystem<'_, S>,
    options: ExploreOptions,
) -> Result<KernelExploration<S, CounterRow>, ExploreError> {
    let machine = counter.machine();
    let beta = machine.beta();
    if beta > u32::from(u16::MAX) {
        return Err(ExploreError::Unsupported {
            reason: format!("dense counter rows clip counts to 16 bits; β = {beta}"),
        });
    }
    let partition = counter.partition();
    let cells = partition.cells();
    let rows = CounterRows {
        beta,
        closed: cells.iter().map(|c| c.closed).collect(),
        visible: cells
            .iter()
            .enumerate()
            .map(|(o, c)| {
                let mut vis = c.adjacent.clone();
                if c.closed {
                    vis.push(o as u16);
                    vis.sort_unstable();
                }
                vis
            })
            .collect(),
    };
    let nodes = counter.graph().node_count();
    explore_dense(
        machine,
        nodes,
        rows,
        |session| {
            let initial = counter.initial_config();
            let entries = initial.entries();
            let sids = session.intern_all(machine, entries.iter().map(|(_, s, _)| s.clone()))?;
            let mut words: Vec<u64> = entries
                .iter()
                .zip(sids)
                .map(|(&(o, _, n), s)| (u64::from(o) << 48) | (u64::from(s) << 32) | n)
                .collect();
            words.sort_unstable();
            Some(CounterRow(Words::from_slice(&words)))
        },
        options,
    )
}

/// Explores the ring abstraction of `ring` over [`RingRow`]s. Row for row
/// the same space as `Exploration::explore_with(ring, …)`: the same
/// reachable necklaces (after unpacking), explored count and verdict.
///
/// # Errors
///
/// [`ExploreError::TooLarge`] when `options.limit` is exhausted, and
/// [`ExploreError::Unsupported`] when more than 65 534 distinct states are
/// reachable (`decide` then explores `ring` itself).
pub fn explore_ring_kernel<S: State>(
    ring: &RingSystem<'_, S>,
    options: ExploreOptions,
) -> Result<KernelExploration<S, RingRow>, ExploreError> {
    let machine = ring.machine();
    let nodes = ring.graph().node_count();
    explore_dense(
        machine,
        nodes,
        RingRows,
        |session| {
            let initial = ring.initial_config();
            let runs = initial.runs();
            let sids = session.intern_all(machine, runs.iter().map(|(s, _)| s.clone()))?;
            let mut words: Vec<u64> = runs
                .iter()
                .zip(sids)
                .map(|(&(_, len), s)| (u64::from(s) << 32) | u64::from(len))
                .collect();
            Some(normalise(&mut words))
        },
        options,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Exploration, Machine, Output};
    use std::collections::HashSet;
    use wam_graph::{generators, LabelCount};

    /// Counts up to 2 (β = 2): steps depend on clipped counts, not just
    /// presence.
    fn pairs() -> Machine<u8> {
        Machine::new(
            2,
            |l| l.0 as u8,
            |&s, n| match s {
                0 if n.count(&1) >= 2 => 2,
                1 if n.count(&0) >= 1 => 0,
                2 => 1,
                _ => s,
            },
            |&s| match s {
                0 => Output::Reject,
                1 => Output::Accept,
                _ => Output::Neutral,
            },
        )
    }

    #[test]
    fn counter_rows_reach_the_generic_counter_space() {
        let m = pairs();
        for counts in [vec![3u64, 2], vec![1, 4], vec![2, 2]] {
            let c = LabelCount::from_vec(counts.clone());
            for g in [
                generators::labelled_clique(&c),
                generators::labelled_star(&c),
            ] {
                let sys = CounterSystem::new(&m, &g).unwrap();
                let generic = Exploration::explore(&sys, 100_000).unwrap();
                let dense =
                    explore_counter_kernel(&sys, ExploreOptions::with_limit(100_000)).unwrap();
                assert_eq!(dense.len(), generic.len(), "{counts:?}");
                assert_eq!(dense.verdict(), generic.verdict(), "{counts:?}");
                let got: HashSet<_> = dense.configs_unpacked().into_iter().collect();
                let want: HashSet<_> = generic.configs().iter().cloned().collect();
                assert_eq!(got, want, "{counts:?}");
                assert_eq!(dense.config(0), sys.initial_config());
            }
        }
    }

    #[test]
    fn ring_rows_reach_the_generic_ring_space() {
        let m = pairs();
        for counts in [vec![3u64, 2], vec![1, 4], vec![4, 3]] {
            let g = generators::labelled_cycle(&LabelCount::from_vec(counts.clone()));
            let sys = RingSystem::new(&m, &g).unwrap();
            let generic = Exploration::explore(&sys, 100_000).unwrap();
            let dense = explore_ring_kernel(&sys, ExploreOptions::with_limit(100_000)).unwrap();
            assert_eq!(dense.len(), generic.len(), "{counts:?}");
            assert_eq!(dense.verdict(), generic.verdict(), "{counts:?}");
            let got: HashSet<_> = dense.configs_unpacked().into_iter().collect();
            let want: HashSet<_> = generic.configs().iter().cloned().collect();
            assert_eq!(got, want, "{counts:?}");
            let stats = dense.stats();
            assert_eq!(stats.delta_entries, stats.delta_misses);
            assert!(stats.states <= 3, "{stats:?}");
        }
    }

    #[test]
    fn ring_normalise_is_canonical_under_rotation_and_reflection() {
        let word = |w: &[u16]| {
            let mut runs: Vec<u64> = w.iter().map(|&s| (u64::from(s) << 32) | 1).collect();
            normalise(&mut runs)
        };
        let c = word(&[0, 0, 1, 2]);
        assert_eq!(c, word(&[1, 2, 0, 0]));
        assert_eq!(c, word(&[2, 1, 0, 0]));
        let run = |s: u64, len: u64| (s << 32) | len;
        assert_eq!(&*c.0, &[run(0, 2), run(1, 1), run(2, 1)]);
        assert_ne!(c, word(&[0, 1, 0, 2]));
    }

    #[test]
    fn rows_spill_past_the_inline_length() {
        for len in [0, 1, INLINE_WORDS, INLINE_WORDS + 1, 3 * INLINE_WORDS] {
            let words: Vec<u64> = (0..len as u64).map(|w| (w << 32) | 1).collect();
            let row = Words::from_slice(&words);
            assert_eq!(&*row, &words[..]);
            assert_eq!(row.heap_bytes() > 0, len > INLINE_WORDS, "{len} words");
            assert_eq!(row, row.clone());
            assert_eq!(format!("{row:?}"), format!("{words:?}"));
        }
    }

    #[test]
    fn counter_rows_respect_the_limit() {
        let m = pairs();
        let g = generators::labelled_clique(&LabelCount::from_vec(vec![4, 4]));
        let sys = CounterSystem::new(&m, &g).unwrap();
        let err = explore_counter_kernel(&sys, ExploreOptions::with_limit(2)).unwrap_err();
        assert!(
            matches!(err, ExploreError::TooLarge { limit: 2, .. }),
            "{err:?}"
        );
        let full = explore_counter_kernel(&sys, ExploreOptions::with_limit(1_000)).unwrap();
        let generic = Exploration::explore(&sys, 1_000).unwrap();
        assert_eq!(full.verdict(), generic.verdict());
    }
}
