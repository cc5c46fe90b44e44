//! The δ session: interned states, their outputs and memoized δ-tables
//! for one decision, behind every dense row system.
//!
//! The machines of the paper only ever observe the β-clipped neighbourhood
//! multiset, and their reachable state sets are tiny — which makes δ fully
//! memoizable. A [`DeltaSession`] holds the tables that exploit this for
//! one (machine, graph) decision:
//!
//! * **State interning**: reachable states get dense `u16` ids in
//!   first-sighting order, and each id's output (`Accept`/`Reject`/
//!   `Neutral`) is recorded when it is interned, so accept/reject scans
//!   are table walks over ids instead of boxed-closure calls over cloned
//!   states.
//! * **Raw δ memo**: a local view of at most `1 + RAW_DEG` state ids —
//!   own id plus neighbour ids in any fixed order — packs into one `u64`
//!   key (see [`raw_key`]) of a flat `u64 → u16` table, so the
//!   steady-state cost of a low-degree step is a single probe with no
//!   sorting or clipping.
//! * **Signature δ memo**: any other step is keyed by `(state id,
//!   signature)`, where a *signature* is the β-clipped count vector of
//!   neighbour state ids, sorted — canonical for the clipped multiset, so
//!   high-degree nodes and count-abstracted views stay compact. One flat
//!   open-addressing table maps the pair to the stepped id: each lookup
//!   hashes the pair once, and each entry keeps its signature words in one
//!   shared `u32` arena, so a fresh entry costs no allocation of its own.
//!   Counter rows on cliques rarely see a signature twice, so the memo is
//!   keyed per pair rather than interning signatures first.
//!
//! Either way the first sighting of a key pays one real `Machine::step` —
//! rebuilding the states and the [`Neighbourhood`] from the key — and
//! every later sighting is a table lookup. Three row kinds run on the
//! session, each an [`Expand`] implementation: the packed node rows of
//! `kernel`, and the counter and ring rows of `dense`. A session has one
//! owner — the exploration that created it — and an expansion borrows its
//! tables and scratch mutably for the length of one configuration.

use crate::explore::{ExploreError, SuccBuf};
use crate::intern::{fx_hash, RawTable};
use crate::{KernelStats, Machine, Neighbourhood, Output, State};
use rustc_hash::{FxHashSet, FxHasher};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The filler of unused raw-key lanes, and so the one `u16` that is never
/// a state id.
pub(crate) const UNKNOWN: u16 = u16::MAX;

/// Hard cap on interned states: ids must stay below the [`UNKNOWN`]
/// sentinel. Machines in this workspace have dozens of reachable states;
/// the cap exists so a dense system degrades into a clean refusal (and
/// the decider falls back to the generic engine) instead of a wrong
/// answer.
pub(crate) const MAX_STATES: usize = UNKNOWN as usize;

/// Degree bound of the raw memo: a local view of at most `1 + RAW_DEG`
/// state ids packs into one `u64` key (four 16-bit lanes).
pub(crate) const RAW_DEG: usize = 3;

/// The refusal every dense system reports when the `u16` id space runs
/// out.
pub(crate) fn exhausted() -> ExploreError {
    ExploreError::Unsupported {
        reason: format!(
            "the dense kernel interns states to u16 ids; this machine \
             exceeded {MAX_STATES} distinct reachable states"
        ),
    }
}

/// Open-addressing `u64 → u16` table behind the raw δ memo: linear
/// probing over `(key, value)` pairs, one multiplicative spread and
/// typically one cache line per steady-state lookup — measurably cheaper
/// than a general hash map on the kernel's hottest path. The all-ones
/// key is free to serve as the vacant marker: a real raw key always
/// carries a state id below `0xFFFF` in its low lane.
#[derive(Debug)]
struct RawMap {
    entries: Vec<(u64, u16)>,
    live: usize,
    bits: u32,
}

/// Vacant-slot marker in [`RawMap`]; never a valid raw key.
const RAW_EMPTY: u64 = u64::MAX;

impl RawMap {
    fn new() -> Self {
        const INITIAL_BITS: u32 = 6;
        RawMap {
            entries: vec![(RAW_EMPTY, 0); 1 << INITIAL_BITS],
            live: 0,
            bits: INITIAL_BITS,
        }
    }

    #[inline]
    fn slot(key: u64, bits: u32) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    #[inline]
    fn get(&self, key: u64) -> Option<u16> {
        let mask = self.entries.len() - 1;
        let mut idx = Self::slot(key, self.bits) & mask;
        loop {
            let (k, v) = self.entries[idx];
            if k == key {
                return Some(v);
            }
            if k == RAW_EMPTY {
                return None;
            }
            idx = (idx + 1) & mask;
        }
    }

    fn insert(&mut self, key: u64, value: u16) {
        if (self.live + 1) * 8 > self.entries.len() * 7 {
            let bits = self.bits + 1;
            let mut next = vec![(RAW_EMPTY, 0u16); 1 << bits];
            let mask = next.len() - 1;
            for &(k, v) in &self.entries {
                if k == RAW_EMPTY {
                    continue;
                }
                let mut idx = Self::slot(k, bits) & mask;
                while next[idx].0 != RAW_EMPTY {
                    idx = (idx + 1) & mask;
                }
                next[idx] = (k, v);
            }
            self.entries = next;
            self.bits = bits;
        }
        let mask = self.entries.len() - 1;
        let mut idx = Self::slot(key, self.bits) & mask;
        while self.entries[idx].0 != RAW_EMPTY {
            if self.entries[idx].0 == key {
                self.entries[idx].1 = value;
                return;
            }
            idx = (idx + 1) & mask;
        }
        self.entries[idx] = (key, value);
        self.live += 1;
    }

    fn len(&self) -> usize {
        self.live
    }
}

/// FxHash with a final avalanche (the murmur3 finaliser). FxHash ends in
/// a multiply, so its low bits depend only on the input's low bits — and
/// `HashMap` picks buckets by the low bits. States that differ only in
/// high bits (a payload in the top lane) would otherwise share one probe
/// chain and make every insert linear.
#[derive(Debug, Default)]
struct MixHasher(FxHasher);

impl Hasher for MixHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0.write_u64(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.0.write_usize(i);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0.finish();
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^ (h >> 33)
    }
}

/// A hash map over [`MixHasher`].
type MixMap<K, V> = HashMap<K, V, BuildHasherDefault<MixHasher>>;

/// One entry of the signature δ memo: state `sid` under the signature
/// `words[start..start + len]` of the memo's arena steps to `next`.
#[derive(Debug, Clone, Copy)]
struct SigEntry {
    start: u32,
    len: u32,
    sid: u16,
    next: u16,
}

/// The signature δ memo: `(state id, signature) → stepped id` in one
/// open-addressing table over [`SigEntry`]s, whose signature words live
/// back to back in one arena.
#[derive(Debug)]
struct SigMemo {
    table: RawTable,
    entries: Vec<SigEntry>,
    words: Vec<u32>,
}

impl SigMemo {
    fn new() -> Self {
        SigMemo {
            table: RawTable::new(),
            entries: Vec::new(),
            words: Vec::new(),
        }
    }

    /// The signature of entry `e`.
    #[inline]
    fn sig(&self, e: &SigEntry) -> &[u32] {
        &self.words[e.start as usize..(e.start + e.len) as usize]
    }

    /// The stepped id memoized for `(sid, sig)`, whose hash is `hash`.
    #[inline]
    fn get(&self, hash: u64, sid: u16, sig: &[u32]) -> Option<u16> {
        self.table
            .find(hash, |id| {
                let e = &self.entries[id as usize];
                e.sid == sid && self.sig(e) == sig
            })
            .map(|id| self.entries[id as usize].next)
    }

    /// Memoizes `(sid, sig) → next` for a pair [`get`](Self::get) just
    /// missed.
    fn insert(&mut self, hash: u64, sid: u16, sig: &[u32], next: u16) {
        let id = self.entries.len() as u32;
        let start = u32::try_from(self.words.len()).expect("signature arena exceeds 2^32 words");
        // The pair is absent, so the probe only looks for a vacant slot.
        self.table.find_or_insert(hash, id, |_| false);
        self.words.extend_from_slice(sig);
        self.entries.push(SigEntry {
            start,
            len: sig.len() as u32,
            sid,
            next,
        });
    }

    /// Number of memoized entries.
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Number of distinct signatures across the entries.
    fn distinct_sigs(&self) -> usize {
        let sigs: FxHashSet<&[u32]> = self.entries.iter().map(|e| self.sig(e)).collect();
        sigs.len()
    }
}

/// The tables of one session: state interner and outputs, the raw
/// low-degree δ memo, the signature δ memo, and the hit/miss counters.
#[derive(Debug)]
pub(crate) struct Tables<S> {
    /// States by dense id, in first-sighting order.
    states: Vec<S>,
    /// `outputs[sid]`: the output of state `sid`, recorded at intern time.
    outputs: Vec<Output>,
    ids: MixMap<S, u16>,
    /// Raw δ memo: the key packs a node's own state id with its neighbour
    /// ids (unused lanes filled with `0xFFFF`, which is never a real id);
    /// the value is the stepped state id. Finer-grained than the
    /// signature — order and unclipped repeats distinguish keys — so it
    /// stays trivially sound while skipping sorting and clipping entirely.
    raw: RawMap,
    /// Signature δ memo: the canonical key of a β-clipped neighbour
    /// multiset is its sorted `(sid << 16) | clipped_count` vector, so a
    /// state space that keeps growing costs memory per memoized step, not
    /// per (signature × state).
    sigs: SigMemo,
    /// The entries buffer of the [`Neighbourhood`] a δ miss hands to
    /// `Machine::step`; empty between misses.
    view: Vec<(S, u32)>,
    /// Node steps resolved by a memoized entry.
    hits: u64,
    /// Node steps that computed (and memoized) a fresh entry.
    misses: u64,
}

impl<S: State> Tables<S> {
    fn new() -> Self {
        Tables {
            states: Vec::new(),
            outputs: Vec::new(),
            ids: MixMap::default(),
            raw: RawMap::new(),
            sigs: SigMemo::new(),
            view: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Interned states, dense by id.
    pub(crate) fn states(&self) -> &[S] {
        &self.states
    }

    /// Interns a state, recording its output; `None` when the `u16` id
    /// space is exhausted.
    fn intern_state(&mut self, machine: &Machine<S>, s: S) -> Option<u16> {
        if let Some(&id) = self.ids.get(&s) {
            return Some(id);
        }
        if self.states.len() >= MAX_STATES {
            return None;
        }
        let id = self.states.len() as u16;
        self.outputs.push(machine.output(&s));
        self.ids.insert(s.clone(), id);
        self.states.push(s);
        Some(id)
    }

    /// The δ columns of [`KernelStats`]: table sizes and hit/miss
    /// counters so far (the row layout and arena columns stay zero).
    /// Filled entries are raw keys plus signature entries.
    pub(crate) fn stats(&self) -> KernelStats {
        KernelStats {
            states: self.states.len(),
            sigs: self.sigs.distinct_sigs(),
            delta_entries: (self.raw.len() + self.sigs.len()) as u64,
            delta_hits: self.hits,
            delta_misses: self.misses,
            bits: 0,
            restarts: 0,
            arena_bytes: 0,
        }
    }
}

/// Scratch shared by every row kind's expansion: reused across calls, so
/// steady-state successor generation allocates nothing beyond rows too
/// long to be stored inline.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Per-node state ids of the configuration being expanded.
    pub(crate) ids: Vec<u16>,
    /// Sorted neighbour ids of one node.
    pub(crate) nbr: Vec<u16>,
    /// The signature key under construction.
    pub(crate) key: Vec<u32>,
    /// Row-shaped word scratch (visible counts, surgery run lists).
    pub(crate) words: Vec<u64>,
    /// The counter successor under construction.
    pub(crate) row: Vec<u64>,
}

/// One expansion's access to the session's δ memo: a lookup that misses
/// computes, interns and memoizes the step on the spot.
pub(crate) struct Steps<'t, S: State> {
    tables: &'t mut Tables<S>,
    machine: &'t Machine<S>,
}

impl<S: State> Steps<'_, S> {
    /// δ of the raw view packed in `key` (see [`raw_key`]); `None` when
    /// the `u16` id space is exhausted.
    #[inline]
    pub(crate) fn raw(&mut self, key: u64) -> Option<u16> {
        if let Some(nid) = self.tables.raw.get(key) {
            self.tables.hits += 1;
            return Some(nid);
        }
        self.fill_raw(key)
    }

    /// δ of state `sid` under the sorted, clipped signature `sig` (entries
    /// `(sid << 16) | count`, counts in `1..=β`); `None` when the `u16` id
    /// space is exhausted.
    #[inline]
    pub(crate) fn canonical(&mut self, sid: u16, sig: &[u32]) -> Option<u16> {
        let hash = fx_hash(&(sid, sig));
        if let Some(nid) = self.tables.sigs.get(hash, sid, sig) {
            self.tables.hits += 1;
            return Some(nid);
        }
        self.fill_sig(sid, sig, hash)
    }

    /// Computes and memoizes the δ of the raw view packed in `key`.
    #[cold]
    fn fill_raw(&mut self, key: u64) -> Option<u16> {
        let t = &mut *self.tables;
        let beta = self.machine.beta();
        let lane = |i: u32| (key >> (16 * i)) as u16;
        let states = &t.states;
        let mut entries = std::mem::take(&mut t.view);
        entries.extend(
            (1..=RAW_DEG as u32)
                .map(lane)
                .take_while(|&id| id != UNKNOWN)
                .map(|id| (states[id as usize].clone(), 1)),
        );
        entries.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        entries.dedup_by(|(s, _), (kept, c)| {
            let repeat = s == kept;
            if repeat {
                *c = (*c + 1).min(beta);
            }
            repeat
        });
        let next = self.step(lane(0), entries)?;
        self.tables.raw.insert(key, next);
        Some(next)
    }

    /// Computes and memoizes the δ of `sid` under signature `sig`; `hash`
    /// is the pair's memo hash.
    #[cold]
    fn fill_sig(&mut self, sid: u16, sig: &[u32], hash: u64) -> Option<u16> {
        let t = &mut *self.tables;
        // Reconstruct the clip-exact neighbourhood from the signature:
        // its entries are distinct and clipped, so they need only a sort
        // by state.
        let states = &t.states;
        let mut entries = std::mem::take(&mut t.view);
        entries.extend(
            sig.iter()
                .map(|&e| (states[(e >> 16) as usize].clone(), e & 0xFFFF)),
        );
        entries.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        let next = self.step(sid, entries)?;
        self.tables.sigs.insert(hash, sid, sig, next);
        Some(next)
    }

    /// Pays the one real δ call of a miss: steps state `sid` under the
    /// view `entries` (sorted by state, distinct, clipped), keeps the
    /// emptied buffer for the next miss and interns the result.
    fn step(&mut self, sid: u16, entries: Vec<(S, u32)>) -> Option<u16> {
        let t = &mut *self.tables;
        let view = Neighbourhood::from_sorted(entries, self.machine.beta());
        let next = self.machine.step(&t.states[sid as usize], &view);
        t.view = view.into_entries();
        t.view.clear();
        let nid = t.intern_state(self.machine, next)?;
        t.misses += 1;
        Some(nid)
    }
}

/// One dense row kind: successor generation against a session's memo
/// tables, and the state ids a consensus scan reads off a row.
pub(crate) trait Expand<S: State> {
    /// The row type.
    type C: Clone + Eq + std::hash::Hash + std::fmt::Debug;

    /// Pushes the successors of `c` into `out`, resolving node steps
    /// through `steps`. Returns `None` as soon as a step does (the `u16`
    /// id space is exhausted); the session then discards `out`.
    fn expand(
        &self,
        steps: &mut Steps<'_, S>,
        c: &Self::C,
        out: &mut SuccBuf<Self::C>,
        scratch: &mut Scratch,
    ) -> Option<()>;

    /// The state id of every node, count entry or run of `c`.
    fn sids<'c>(&'c self, c: &'c Self::C) -> impl Iterator<Item = u16> + 'c;
}

/// The session's tables and the expansion scratch, borrowed together.
#[derive(Debug)]
struct Session<S> {
    tables: Tables<S>,
    scratch: Scratch,
}

/// The δ session of one exploration. The cell exists only because
/// [`TransitionSystem`](crate::TransitionSystem) expands through `&self`;
/// the session is never shared, so every borrow is uncontended.
#[derive(Debug)]
pub(crate) struct DeltaSession<S>(RefCell<Session<S>>);

impl<S: State> DeltaSession<S> {
    /// An empty session.
    pub(crate) fn new() -> Self {
        DeltaSession(RefCell::new(Session {
            tables: Tables::new(),
            scratch: Scratch::default(),
        }))
    }

    /// Number of states interned so far.
    pub(crate) fn state_count(&self) -> usize {
        self.0.borrow().tables.states.len()
    }

    /// Interns `states` in order; `None` when the `u16` id space is
    /// exhausted.
    pub(crate) fn intern_all(
        &self,
        machine: &Machine<S>,
        states: impl IntoIterator<Item = S>,
    ) -> Option<Vec<u16>> {
        let tables = &mut self.0.borrow_mut().tables;
        states
            .into_iter()
            .map(|s| tables.intern_state(machine, s))
            .collect()
    }

    /// Whether every id in `sids` has output `want`.
    #[inline]
    pub(crate) fn all(&self, sids: impl IntoIterator<Item = u16>, want: Output) -> bool {
        let session = self.0.borrow();
        let outputs = &session.tables.outputs;
        sids.into_iter().all(|sid| outputs[sid as usize] == want)
    }

    /// Expands `c` through `rows`. Returns `false` — with `out` cleared —
    /// when the `u16` id space was exhausted; the caller must then refuse
    /// the exploration.
    pub(crate) fn successors_into<E: Expand<S>>(
        &self,
        machine: &Machine<S>,
        rows: &E,
        c: &E::C,
        out: &mut SuccBuf<E::C>,
    ) -> bool {
        let Session { tables, scratch } = &mut *self.0.borrow_mut();
        let mut steps = Steps { tables, machine };
        let done = rows.expand(&mut steps, c, out, scratch).is_some();
        if !done {
            out.clear();
        }
        done
    }

    /// The finished tables, for unpacking rows and reading statistics.
    pub(crate) fn into_tables(self) -> Tables<S> {
        self.0.into_inner().tables
    }
}

/// Packs a raw local view — own state id plus up to [`RAW_DEG`] neighbour
/// ids — into the `u64` key of the raw δ memo. Unused lanes are filled
/// with `0xFFFF` ([`UNKNOWN`], never a real id), so views of different
/// degrees can never collide.
#[inline]
pub(crate) fn raw_key(own: u16, nbrs: impl IntoIterator<Item = u16>) -> u64 {
    let mut k = u64::from(own);
    let mut shift = 16;
    for id in nbrs {
        k |= u64::from(id) << shift;
        shift += 16;
    }
    debug_assert!(shift <= 64, "raw view wider than RAW_DEG");
    while shift < 64 {
        k |= u64::from(UNKNOWN) << shift;
        shift += 16;
    }
    k
}

/// Appends one `(sid, count)` contribution to a signature key under
/// construction, merging with the last entry when `sid` repeats and
/// clipping counts at β. Contributions must arrive sorted by `sid`.
#[inline]
pub(crate) fn push_sig(key: &mut Vec<u32>, sid: u16, count: u64, beta: u32) {
    if count == 0 {
        return;
    }
    let clip = |c: u64| c.min(u64::from(beta)) as u32;
    match key.last_mut() {
        Some(e) if (*e >> 16) as u16 == sid => {
            let merged = clip(u64::from(*e & 0xFFFF) + count);
            *e = (u32::from(sid) << 16) | merged;
        }
        _ => key.push((u32::from(sid) << 16) | clip(count)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    #[test]
    fn state_hashes_spread_keys_that_differ_in_high_bits() {
        // States whose payload sits in a field's high bits, while
        // `HashMap` picks buckets by the hash's low bits.
        let build = BuildHasherDefault::<MixHasher>::default();
        let buckets: HashSet<u64> = (0..1024u32)
            .map(|k| build.hash_one((2u32, (k << 16) | 1)) & 1023)
            .collect();
        assert!(buckets.len() > 512, "{} of 1024 buckets", buckets.len());
    }

    #[test]
    fn signature_memo_keys_on_the_state_and_signature_pair() {
        // A star hub watching one climbing leaf: signatures that differ
        // only in the last entry's state id, each stepped from two states.
        let keys = (0..1024u32).flat_map(|k| [0u16, 1].map(|sid| (sid, [2u32, (k << 16) | 1])));
        let mut memo = SigMemo::new();
        for (n, (sid, sig)) in keys.clone().enumerate() {
            let hash = fx_hash(&(sid, &sig[..]));
            assert_eq!(memo.get(hash, sid, &sig), None);
            memo.insert(hash, sid, &sig, n as u16);
        }
        for (n, (sid, sig)) in keys.enumerate() {
            let hash = fx_hash(&(sid, &sig[..]));
            assert_eq!(memo.get(hash, sid, &sig), Some(n as u16));
        }
        assert_eq!(memo.len(), 2048);
        assert_eq!(memo.distinct_sigs(), 1024);
    }
}
