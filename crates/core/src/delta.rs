//! The shared δ session: interned states, lock-free outputs and memoized
//! δ-tables for one decision, behind every dense system.
//!
//! The machines of the paper only ever observe the β-clipped neighbourhood
//! multiset, and their reachable state sets are tiny — which makes δ fully
//! memoizable. A [`DeltaSession`] holds the tables that exploit this for
//! one (machine, graph) decision:
//!
//! * **State interning**: reachable states get dense `u16` ids in
//!   first-sighting order; outputs (`Accept`/`Reject`/`Neutral`) are
//!   memoized per id in a lock-free table, so accept/reject scans are
//!   table walks over ids instead of boxed-closure calls over cloned
//!   states.
//! * **Raw δ memo**: a local view of at most `1 + RAW_DEG` state ids —
//!   own id plus neighbour ids in any fixed order — packs into one `u64`
//!   key (see [`raw_key`]) of a flat `u64 → u16` table, so the
//!   steady-state cost of a low-degree step is a single probe with no
//!   sorting or clipping.
//! * **Signature δ memo**: any other step is keyed by `(state id,
//!   signature)`, where a *signature* is the β-clipped count vector of
//!   neighbour state ids, sorted — canonical for the clipped multiset, so
//!   high-degree nodes and count-abstracted views stay compact.
//!
//! Either way the first sighting of a key pays one real `Machine::step` —
//! rebuilding the states and the [`Neighbourhood`] from the key — and
//! every later sighting is a table lookup. Three systems share the
//! session type: the packed node rows of `kernel`, and the counter and
//! ring rows of `dense`. Each expands a configuration through [`Steps`],
//! which looks steps up under the read lock and trades it for the write
//! lock only to compute a miss, so one memo can be shared across threads.

use crate::explore::SuccBuf;
use crate::{Machine, Neighbourhood, Output, State};
use rustc_hash::FxHasher;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{RwLock, RwLockReadGuard};

/// Sentinel for a δ-table entry that has not been computed yet, and the
/// filler of unused raw-key lanes.
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
pub(crate) fn exhausted_reason() -> String {
    format!(
        "the dense kernel interns states to u16 ids; this machine \
         exceeded {MAX_STATES} distinct reachable states"
    )
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
/// `HashMap` picks buckets by the low bits. Keys that differ only in high
/// bits (a signature whose later entry is a hub's climbing neighbour, a
/// state with its payload in the top lane) would otherwise share one probe
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

/// The memo tables of one session: state interner, the raw low-degree δ
/// memo, signature interner, and the signature δ table.
#[derive(Debug)]
pub(crate) struct Tables<S> {
    /// States by dense id, in first-sighting order.
    states: Vec<S>,
    ids: MixMap<S, u16>,
    /// Raw δ memo: the key packs a node's own state id with its neighbour
    /// ids (unused lanes filled with `0xFFFF`, which is never a real id);
    /// the value is the stepped state id. Finer-grained than the
    /// signature — order and unclipped repeats distinguish keys — so it
    /// stays trivially sound while skipping sorting and clipping entirely.
    raw: RawMap,
    /// Signature interner: the canonical key of a β-clipped neighbour
    /// multiset is its sorted `(sid << 16) | clipped_count` vector.
    sigs: MixMap<Box<[u32]>, u32>,
    /// `delta[sig][sid]` memoizes the stepped state id ([`UNKNOWN`] =
    /// never computed). Each row grows only to the largest id stepped
    /// under its signature, so a state space that keeps growing costs
    /// memory per memoized step, not per (signature × state).
    delta: Vec<Vec<u16>>,
}

impl<S: State> Tables<S> {
    fn new() -> Self {
        Tables {
            states: Vec::new(),
            ids: MixMap::default(),
            raw: RawMap::new(),
            sigs: MixMap::default(),
            delta: Vec::new(),
        }
    }

    /// Interned states, dense by id.
    pub(crate) fn states(&self) -> &[S] {
        &self.states
    }

    /// Interns a state, memoizing its output into the session's lock-free
    /// output table; `None` when the `u16` id space is exhausted.
    fn intern_state(&mut self, machine: &Machine<S>, s: S, outputs: &Outputs) -> Option<u16> {
        if let Some(&id) = self.ids.get(&s) {
            return Some(id);
        }
        if self.states.len() >= MAX_STATES {
            return None;
        }
        let id = self.states.len() as u16;
        outputs.0[id as usize].store(encode_output(machine.output(&s)), Ordering::Release);
        self.ids.insert(s.clone(), id);
        self.states.push(s);
        Some(id)
    }

    /// The memoized δ of `sid` under signature `sig`, if any.
    #[inline]
    fn lookup_sig(&self, sid: u16, sig: &[u32]) -> Option<u16> {
        let &s = self.sigs.get(sig)?;
        let nid = *self.delta[s as usize].get(sid as usize)?;
        (nid != UNKNOWN).then_some(nid)
    }

    /// δ of the raw view packed in `key`, computed and memoized unless
    /// present (a concurrent expansion may have filled it since the read
    /// lookup missed). The flag is `true` when δ was computed here; `None`
    /// when the id space is exhausted.
    fn fill_raw(
        &mut self,
        machine: &Machine<S>,
        outputs: &Outputs,
        key: u64,
    ) -> Option<(u16, bool)> {
        if let Some(nid) = self.raw.get(key) {
            return Some((nid, false));
        }
        let lane = |i: u32| (key >> (16 * i)) as u16;
        let states = &self.states;
        let view = Neighbourhood::from_states(
            (1..=RAW_DEG as u32)
                .map(lane)
                .take_while(|&id| id != UNKNOWN)
                .map(|id| states[id as usize].clone()),
            machine.beta(),
        );
        let next = machine.step(&states[lane(0) as usize], &view);
        let nid = self.intern_state(machine, next, outputs)?;
        self.raw.insert(key, nid);
        Some((nid, true))
    }

    /// δ of `sid` under signature `sig`, computed and memoized unless
    /// present; flag and `None` as for [`fill_raw`](Self::fill_raw).
    fn fill_sig(
        &mut self,
        machine: &Machine<S>,
        outputs: &Outputs,
        sid: u16,
        sig: &[u32],
    ) -> Option<(u16, bool)> {
        let s = match self.sigs.get(sig) {
            Some(&s) => s as usize,
            None => {
                let s = self.delta.len();
                self.sigs.insert(sig.into(), s as u32);
                self.delta.push(Vec::new());
                s
            }
        };
        if self.delta[s].len() <= sid as usize {
            self.delta[s].resize(sid as usize + 1, UNKNOWN);
        }
        let nid = self.delta[s][sid as usize];
        if nid != UNKNOWN {
            return Some((nid, false));
        }
        // Reconstruct the clip-exact neighbourhood from the signature and
        // pay the one real δ call for this key.
        let states = &self.states;
        let view = Neighbourhood::from_counts(
            sig.iter()
                .map(|&e| (states[(e >> 16) as usize].clone(), u64::from(e & 0xFFFF))),
            machine.beta(),
        );
        let next = machine.step(&states[sid as usize], &view);
        let nid = self.intern_state(machine, next, outputs)?;
        self.delta[s][sid as usize] = nid;
        Some((nid, true))
    }

    /// Number of filled δ-memo entries across both levels (raw keys plus
    /// non-sentinel signature entries).
    fn delta_entries(&self) -> u64 {
        self.raw.len() as u64
            + self
                .delta
                .iter()
                .map(|row| row.iter().filter(|&&e| e != UNKNOWN).count() as u64)
                .sum::<u64>()
    }
}

/// Per-thread scratch shared by every dense system's expansion: reused
/// across calls, so steady-state successor generation allocates nothing
/// beyond the successor rows themselves.
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
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// One expansion's access to the session's δ memo: lookups run under the
/// read lock, and each miss briefly trades it for the write lock to
/// compute, intern and memoize the step. Steady-state expansions never
/// leave the read lock.
pub(crate) struct Steps<'s, S: State> {
    session: &'s DeltaSession<S>,
    machine: &'s Machine<S>,
    tables: Option<RwLockReadGuard<'s, Tables<S>>>,
    hits: u64,
    misses: u64,
}

impl<'s, S: State> Steps<'s, S> {
    #[inline]
    fn tables(&self) -> &Tables<S> {
        self.tables.as_ref().expect("read lock held between steps")
    }

    /// δ of the raw view packed in `key` (see [`raw_key`]); `None` when
    /// the `u16` id space is exhausted.
    #[inline]
    pub(crate) fn raw(&mut self, key: u64) -> Option<u16> {
        if let Some(nid) = self.tables().raw.get(key) {
            self.hits += 1;
            return Some(nid);
        }
        self.fill(|t, machine, outputs| t.fill_raw(machine, outputs, key))
    }

    /// δ of state `sid` under the sorted, clipped signature `sig` (entries
    /// `(sid << 16) | count`, counts in `1..=β`); `None` when the `u16` id
    /// space is exhausted.
    #[inline]
    pub(crate) fn canonical(&mut self, sid: u16, sig: &[u32]) -> Option<u16> {
        if let Some(nid) = self.tables().lookup_sig(sid, sig) {
            self.hits += 1;
            return Some(nid);
        }
        self.fill(|t, machine, outputs| t.fill_sig(machine, outputs, sid, sig))
    }

    /// Runs `fill` under the write lock, then re-takes the read lock.
    #[cold]
    fn fill(
        &mut self,
        fill: impl FnOnce(&mut Tables<S>, &Machine<S>, &Outputs) -> Option<(u16, bool)>,
    ) -> Option<u16> {
        self.tables = None;
        let filled = {
            let mut t = self
                .session
                .tables
                .write()
                .expect("δ session tables poisoned");
            fill(&mut t, self.machine, &self.session.outputs)
        };
        self.tables = Some(self.session.read());
        let (nid, computed) = filled?;
        if computed {
            self.misses += 1;
        } else {
            self.hits += 1;
        }
        Some(nid)
    }
}

/// A dense transition system whose successor generation runs against a
/// session's memo tables.
pub(crate) trait Expand<S: State> {
    /// The row type.
    type C;

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
}

/// Shared, thread-safe session state: the memo tables behind a read/write
/// lock (reads are the steady state; a write is one δ or signature miss),
/// the lock-free per-id output table, and lock-free hit/miss counters.
#[derive(Debug)]
pub(crate) struct DeltaSession<S> {
    tables: RwLock<Tables<S>>,
    outputs: Outputs,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The session's output table: `0[sid]` is the encoded output of state
/// `sid`, written once under the write lock at intern time and read
/// lock-free by the accept/reject scans (the engine calls them once per
/// interned configuration — taking the read lock there would double the
/// per-configuration lock traffic). Pre-sized to the whole `u16` id space
/// (64 KiB), so a slot exists before any id can reach a reader. It does
/// not depend on the state type, so dense systems can scan it without
/// being generic over `S`.
#[derive(Debug)]
pub(crate) struct Outputs(Box<[AtomicU8]>);

impl Outputs {
    /// Whether every id in `sids` is an accepting state.
    #[inline]
    pub(crate) fn all_accept(&self, sids: impl IntoIterator<Item = u16>) -> bool {
        self.all(sids, OUT_ACCEPT)
    }

    /// Whether every id in `sids` is a rejecting state.
    #[inline]
    pub(crate) fn all_reject(&self, sids: impl IntoIterator<Item = u16>) -> bool {
        self.all(sids, OUT_REJECT)
    }

    #[inline]
    fn all(&self, sids: impl IntoIterator<Item = u16>, want: u8) -> bool {
        sids.into_iter()
            .all(|sid| self.0[sid as usize].load(Ordering::Acquire) == want)
    }
}

/// Lock-free encoding of [`Output`] for the session output table.
const OUT_NEUTRAL: u8 = 0;
const OUT_ACCEPT: u8 = 1;
const OUT_REJECT: u8 = 2;

#[inline]
fn encode_output(o: Output) -> u8 {
    match o {
        Output::Neutral => OUT_NEUTRAL,
        Output::Accept => OUT_ACCEPT,
        Output::Reject => OUT_REJECT,
    }
}

/// Session table sizes and counters: the δ columns of
/// [`KernelStats`](crate::KernelStats).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SessionStats {
    pub(crate) states: usize,
    pub(crate) sigs: usize,
    pub(crate) delta_entries: u64,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

impl<S: State> DeltaSession<S> {
    /// An empty session.
    pub(crate) fn new() -> Self {
        DeltaSession {
            tables: RwLock::new(Tables::new()),
            outputs: Outputs(
                std::iter::repeat_with(|| AtomicU8::new(OUT_NEUTRAL))
                    .take(1 << 16)
                    .collect(),
            ),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The tables under the read lock (unpacking, statistics).
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, Tables<S>> {
        self.tables.read().expect("δ session tables poisoned")
    }

    /// Interns `states` in order; `None` when the `u16` id space is
    /// exhausted.
    pub(crate) fn intern_all(
        &self,
        machine: &Machine<S>,
        states: impl IntoIterator<Item = S>,
    ) -> Option<Vec<u16>> {
        let mut t = self.tables.write().expect("δ session tables poisoned");
        states
            .into_iter()
            .map(|s| t.intern_state(machine, s, &self.outputs))
            .collect()
    }

    /// The lock-free output table.
    pub(crate) fn outputs(&self) -> &Outputs {
        &self.outputs
    }

    /// Expands `c` through `system`. Returns `false` — with `out`
    /// cleared — when the `u16` id space was exhausted; the caller must
    /// then refuse the exploration.
    pub(crate) fn successors_into<E: Expand<S>>(
        &self,
        machine: &Machine<S>,
        system: &E,
        c: &E::C,
        out: &mut SuccBuf<E::C>,
    ) -> bool {
        SCRATCH.with(|scratch| {
            let mut steps = Steps {
                session: self,
                machine,
                tables: Some(self.read()),
                hits: 0,
                misses: 0,
            };
            let done = system
                .expand(&mut steps, c, out, &mut scratch.borrow_mut())
                .is_some();
            self.hits.fetch_add(steps.hits, Ordering::Relaxed);
            if steps.misses > 0 {
                self.misses.fetch_add(steps.misses, Ordering::Relaxed);
            }
            if !done {
                out.clear();
            }
            done
        })
    }

    /// Table sizes and hit/miss counters so far.
    pub(crate) fn stats(&self) -> SessionStats {
        let t = self.read();
        SessionStats {
            states: t.states.len(),
            sigs: t.sigs.len(),
            delta_entries: t.delta_entries(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
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
    fn signature_hashes_spread_keys_that_differ_in_a_late_entry() {
        // A star hub watching one climbing leaf: its signatures differ only
        // in the last entry's state id, i.e. in the key's high bits, while
        // `HashMap` picks buckets by the hash's low bits.
        let build = BuildHasherDefault::<MixHasher>::default();
        let buckets: HashSet<u64> = (0..1024u32)
            .map(|k| build.hash_one(&[2u32, (k << 16) | 1][..]) & 1023)
            .collect();
        assert!(buckets.len() > 512, "{} of 1024 buckets", buckets.len());
    }
}
