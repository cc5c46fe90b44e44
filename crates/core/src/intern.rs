//! Hash-consing of configurations into dense `u32` ids.
//!
//! The exploration engine never passes configurations around by value:
//! every configuration is interned exactly once into a dense id, and BFS,
//! lasso detection and the `Pre*` machinery work on ids. Ids are assigned
//! in first-occurrence order, so an exploration's ids are a pure function
//! of the order its successors arrive in.
//!
//! Memory layout: each configuration is owned once, in the dense
//! `configs` vector; one open-addressing table stores only `(hash, id)`
//! pairs and resolves collisions by comparing against `configs[id]`. This
//! is roughly half the footprint of the classic `HashMap<Config, usize>` +
//! `Vec<Config>` pair (which clones every configuration into the map key),
//! and the table stays cache-friendly.
//!
//! The same `(hash, id)` table backs the δ session's signature memo, whose
//! keys live in an arena of its own.

use std::hash::{Hash, Hasher};

/// Vacant-slot marker in the table.
const EMPTY: u32 = u32::MAX;

/// The FxHash of a value (the workspace's standard fast hash).
#[inline]
pub(crate) fn fx_hash<C: Hash>(c: &C) -> u64 {
    let mut hasher = rustc_hash::FxHasher::default();
    c.hash(&mut hasher);
    hasher.finish()
}

/// Maps a hash to a table slot: a multiplicative remix, so the probe
/// position draws on every bit of the hash.
#[inline]
fn spread(hash: u64, bits: u32) -> usize {
    (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
}

pub(crate) enum Probe {
    Found(u32),
    Inserted,
}

/// An open-addressing `(hash, id)` table with linear probing. Keys
/// themselves live in the owner's dense storage; `eq` closures resolve ids
/// back to keys for collision checks.
#[derive(Debug, Clone)]
pub(crate) struct RawTable {
    entries: Vec<(u64, u32)>,
    live: usize,
    bits: u32,
}

impl RawTable {
    pub(crate) fn new() -> Self {
        const INITIAL_BITS: u32 = 6;
        RawTable {
            entries: vec![(0, EMPTY); 1 << INITIAL_BITS],
            live: 0,
            bits: INITIAL_BITS,
        }
    }

    /// Finds the id whose entry matches `hash` and `eq`, or inserts
    /// `new_id` into the first vacant probe slot.
    pub(crate) fn find_or_insert(
        &mut self,
        hash: u64,
        new_id: u32,
        eq: impl Fn(u32) -> bool,
    ) -> Probe {
        self.maybe_grow();
        let mask = self.entries.len() - 1;
        let mut idx = spread(hash, self.bits) & mask;
        loop {
            let (h, id) = self.entries[idx];
            if id == EMPTY {
                self.entries[idx] = (hash, new_id);
                self.live += 1;
                return Probe::Inserted;
            }
            if h == hash && eq(id) {
                return Probe::Found(id);
            }
            idx = (idx + 1) & mask;
        }
    }

    /// Finds the id matching `hash` and `eq` without inserting.
    pub(crate) fn find(&self, hash: u64, eq: impl Fn(u32) -> bool) -> Option<u32> {
        let mask = self.entries.len() - 1;
        let mut idx = spread(hash, self.bits) & mask;
        loop {
            let (h, id) = self.entries[idx];
            if id == EMPTY {
                return None;
            }
            if h == hash && eq(id) {
                return Some(id);
            }
            idx = (idx + 1) & mask;
        }
    }

    /// Doubles the table when the load factor would exceed 7/8.
    fn maybe_grow(&mut self) {
        if (self.live + 1) * 8 <= self.entries.len() * 7 {
            return;
        }
        let bits = self.bits + 1;
        let mut next = vec![(0u64, EMPTY); 1 << bits];
        let mask = next.len() - 1;
        for &(h, id) in &self.entries {
            if id == EMPTY {
                continue;
            }
            let mut idx = spread(h, bits) & mask;
            while next[idx].1 != EMPTY {
                idx = (idx + 1) & mask;
            }
            next[idx] = (h, id);
        }
        self.entries = next;
        self.bits = bits;
    }
}

/// A hash-consing interner: configurations in, dense `u32` ids out.
#[derive(Debug)]
pub struct Interner<C> {
    table: RawTable,
    configs: Vec<C>,
}

impl<C: Eq + Hash> Default for Interner<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C: Eq + Hash> Interner<C> {
    /// An empty interner.
    pub fn new() -> Self {
        Interner {
            table: RawTable::new(),
            configs: Vec::new(),
        }
    }

    /// Number of interned configurations.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// The configuration with dense id `id`.
    pub fn get(&self, id: usize) -> &C {
        &self.configs[id]
    }

    /// All interned configurations, dense by id.
    pub fn configs(&self) -> &[C] {
        &self.configs
    }

    /// The dense id of `c`, if it has been interned.
    pub fn index_of(&self, c: &C) -> Option<usize> {
        self.table
            .find(fx_hash(c), |id| &self.configs[id as usize] == c)
            .map(|id| id as usize)
    }

    /// Interns `c`, returning its dense id and whether it was new.
    pub fn intern(&mut self, c: C) -> (u32, bool) {
        let new_id = self.configs.len() as u32;
        assert!(
            new_id < EMPTY,
            "interner overflow: > 2^32 - 1 configurations"
        );
        let configs = &self.configs;
        match self
            .table
            .find_or_insert(fx_hash(&c), new_id, |id| configs[id as usize] == c)
        {
            Probe::Found(id) => (id, false),
            Probe::Inserted => {
                self.configs.push(c);
                (new_id, true)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedups_and_is_dense() {
        let mut interner: Interner<Vec<u8>> = Interner::new();
        let (a, new_a) = interner.intern(vec![1, 2]);
        let (b, new_b) = interner.intern(vec![3]);
        let (a2, new_a2) = interner.intern(vec![1, 2]);
        assert_eq!((a, new_a), (0, true));
        assert_eq!((b, new_b), (1, true));
        assert_eq!((a2, new_a2), (0, false));
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.get(1), &vec![3]);
        assert_eq!(interner.index_of(&vec![1, 2]), Some(0));
        assert_eq!(interner.index_of(&vec![9]), None);
    }

    #[test]
    fn many_inserts_force_growth() {
        let mut interner: Interner<u64> = Interner::new();
        for i in 0..10_000u64 {
            let (id, fresh) = interner.intern(i);
            assert_eq!(id as u64, i);
            assert!(fresh);
        }
        for i in 0..10_000u64 {
            assert_eq!(interner.index_of(&i), Some(i as usize));
            let (_, fresh) = interner.intern(i);
            assert!(!fresh);
        }
    }
}
