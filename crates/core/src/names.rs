//! Name lookup that hashes each name once.
//!
//! Set-up resolves many names: every identifier of an LSS text, every
//! dotted instance name a netlist is built from. [`NameIndex`] maps such
//! names to the dense ids their owner gives them (`0, 1, 2, …` in
//! insertion order) without storing a copy of any name: the owner keeps
//! the text, and a lookup asks it for an id's name to confirm a match.
//!
//! Names may come from untrusted text, so each is hashed with a keyed
//! [`RandomState`]. The table is keyed by that 64-bit hash and uses it as
//! is; names whose hashes collide chain through a per-id link.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

/// End of a chain of equal hashes.
const NONE: u32 = u32::MAX;

/// The hasher of a table whose keys already are keyed hashes: the key is
/// its own hash.
#[derive(Default)]
struct KeyedHash(u64);

impl Hasher for KeyedHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// Names to dense ids, hashing each name once (see the module docs).
#[derive(Default)]
pub struct NameIndex {
    /// A name hash to the newest id whose name has it.
    by_hash: HashMap<u64, u32, BuildHasherDefault<KeyedHash>>,
    /// Per id: the previous id whose name has the same hash, or [`NONE`].
    same_hash: Vec<u32>,
    hasher: RandomState,
}

impl NameIndex {
    /// An empty index with room for `n` names.
    pub fn with_capacity(n: usize) -> Self {
        NameIndex {
            by_hash: HashMap::with_capacity_and_hasher(n, Default::default()),
            same_hash: Vec::with_capacity(n),
            hasher: RandomState::new(),
        }
    }

    /// The id of `name`, where `text(id)` is the name of `id`.
    pub fn get<'t>(&self, name: &str, text: impl Fn(u32) -> &'t str) -> Option<u32> {
        let head = *self.by_hash.get(&self.hasher.hash_one(name))?;
        find(&self.same_hash, head, name, text)
    }

    /// The id of `name`: `Err` with its id if it is indexed already,
    /// otherwise `Ok` with the next id (the number of names indexed so
    /// far), which it now has. `text(id)` is the name of `id`.
    pub fn insert<'t>(&mut self, name: &str, text: impl Fn(u32) -> &'t str) -> Result<u32, u32> {
        let id = self.same_hash.len() as u32;
        let prev = match self.by_hash.entry(self.hasher.hash_one(name)) {
            Entry::Vacant(e) => {
                e.insert(id);
                NONE
            }
            Entry::Occupied(mut e) => {
                if let Some(old) = find(&self.same_hash, *e.get(), name, text) {
                    return Err(old);
                }
                e.insert(id)
            }
        };
        self.same_hash.push(prev);
        Ok(id)
    }
}

/// The id named `name` on the chain of equal hashes that starts at `at`.
fn find<'t>(
    same_hash: &[u32],
    mut at: u32,
    name: &str,
    text: impl Fn(u32) -> &'t str,
) -> Option<u32> {
    while at != NONE {
        if text(at) == name {
            return Some(at);
        }
        at = same_hash[at as usize];
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_follow_insertion_order() {
        let names = ["q", "r", "st[0].q", "r2"];
        let text = |i: u32| names[i as usize];
        let mut ix = NameIndex::default();
        for (i, n) in names.iter().enumerate() {
            assert_eq!(ix.insert(n, text), Ok(i as u32));
        }
        assert_eq!(ix.insert("r", text), Err(1));
        assert_eq!(ix.get("st[0].q", text), Some(2));
        assert_eq!(ix.get("s", text), None);
    }

    #[test]
    fn colliding_hashes_chain() {
        // Force every name onto one chain by indexing them under one hash.
        let names = ["a", "b", "c"];
        let text = |i: u32| names[i as usize];
        let mut ix = NameIndex::default();
        for (i, _) in names.iter().enumerate() {
            let prev = ix.by_hash.insert(7, i as u32).unwrap_or(NONE);
            ix.same_hash.push(prev);
        }
        for (i, n) in names.iter().enumerate() {
            assert_eq!(find(&ix.same_hash, ix.by_hash[&7], n, text), Some(i as u32));
        }
        assert_eq!(find(&ix.same_hash, ix.by_hash[&7], "d", text), None);
    }
}
