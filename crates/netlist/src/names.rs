//! The netlist's name store: every net name is stored once, back to back
//! in one string arena, and found through one open-addressed table whose
//! slots keep each name's hash beside its id.
//!
//! What a name costs: one seeded hash per lookup or insert, eight bytes
//! per step ([`name_hash`]); a probe that compares stored hashes and reads
//! a stored name only when they match; and [`Names::intern`], which finds
//! a name or inserts it in that one probe. Growth re-places every slot by
//! its stored hash, without reading or hashing a name again.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// An unused slot of the table. Ids stay below `u32::MAX`, so no used
/// slot equals it.
const EMPTY: u64 = u64::MAX;

/// Net names in net-id order, with a name → id table.
#[derive(Debug, Clone)]
pub(crate) struct Names {
    /// Every name, back to back, in id order.
    text: String,
    /// `ends[i]` is where name `i` ends in `text`; it starts where name
    /// `i - 1` ends.
    ends: Vec<u32>,
    /// Linear-probing table. A used slot holds the low 32 bits of its
    /// name's [`name_hash`] in its high half and the name's id in its low
    /// half; a name's probe starts at those hash bits masked to the table.
    /// Its length is zero or a power of two, and it is never more than
    /// half full.
    slots: Vec<u64>,
    /// Starting state of the table's hashes. Names come from outside the
    /// program, so it is drawn from the standard library's per-process
    /// random keys: names crafted to share one probe run cannot be
    /// prepared in advance. Only slot positions depend on it.
    seed: u64,
}

impl Default for Names {
    fn default() -> Self {
        Names {
            text: String::new(),
            ends: Vec::new(),
            slots: Vec::new(),
            seed: RandomState::new().hash_one(0u8),
        }
    }
}

impl Names {
    /// Number of names.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// The name with id `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn get(&self, i: usize) -> &str {
        let start = match i {
            0 => 0,
            _ => self.ends[i - 1] as usize,
        };
        &self.text[start..self.ends[i] as usize]
    }

    /// The id of `name`, if stored.
    pub(crate) fn find(&self, name: &str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(name, self.hash(name)).ok()
    }

    /// The id of `name`, and whether this call stored it: a name not yet
    /// stored takes the next id. One hash and one probe either way.
    pub(crate) fn intern(&mut self, name: &str) -> (u32, bool) {
        if 2 * (self.len() + 1) > self.slots.len() {
            self.resize((2 * self.slots.len()).max(16));
        }
        let hash = self.hash(name);
        match self.probe(name, hash) {
            Ok(id) => (id, false),
            Err(slot) => {
                let id = u32::try_from(self.len())
                    .ok()
                    .filter(|&id| id < u32::MAX)
                    .expect("net count fits in u32");
                self.text.push_str(name);
                self.ends
                    .push(u32::try_from(self.text.len()).expect("net names fit in 4 GiB"));
                self.slots[slot] = u64::from(hash) << 32 | u64::from(id);
                (id, true)
            }
        }
    }

    /// Walks `name`'s probe sequence: `Ok` with its id if stored, else
    /// `Err` with the free slot that ends the sequence. The table must be
    /// non-empty.
    fn probe(&self, name: &str, hash: u32) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut s = hash as usize & mask;
        loop {
            match self.slots[s] {
                EMPTY => return Err(s),
                slot if (slot >> 32) as u32 == hash && self.get(slot as u32 as usize) == name => {
                    return Ok(slot as u32)
                }
                _ => s = (s + 1) & mask,
            }
        }
    }

    /// Moves every slot into a table of `len` slots (a power of two), at
    /// the position its stored hash gives.
    fn resize(&mut self, len: usize) {
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; len]);
        let mask = len - 1;
        for slot in old.into_iter().filter(|&s| s != EMPTY) {
            let mut s = (slot >> 32) as usize & mask;
            while self.slots[s] != EMPTY {
                s = (s + 1) & mask;
            }
            self.slots[s] = slot;
        }
    }

    /// The low 32 bits of `name`'s seeded hash: what a slot stores.
    fn hash(&self, name: &str) -> u32 {
        name_hash(self.seed, name.as_bytes()) as u32
    }
}

/// Seeded hash of a name, eight bytes per step: each little-endian word
/// is xored into the state, which then goes through one 64 × 64 → 128-bit
/// multiply whose halves are xored together, so every input bit reaches
/// the low bits a table mask keeps. The length seeds the state and the
/// reads below cover every byte, so two names of one length differ in
/// some word.
fn name_hash(seed: u64, bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let fold = |x: u64| {
        let p = u128::from(x) * u128::from(K);
        p as u64 ^ (p >> 64) as u64
    };
    let word = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().expect("eight bytes"));
    let half = |i: usize| {
        u64::from(u32::from_le_bytes(
            bytes[i..i + 4].try_into().expect("four bytes"),
        ))
    };
    let n = bytes.len();
    let mut h = seed ^ n as u64;
    if n > 8 {
        // Whole words, then the last eight bytes, which may overlap the
        // last whole word.
        let mut i = 0;
        while i + 8 < n {
            h = fold(h ^ word(i));
            i += 8;
        }
        h = fold(h ^ word(n - 8));
    } else if n >= 4 {
        h = fold(h ^ (half(0) | half(n - 4) << 32));
    } else if n > 0 {
        let b = |i: usize| u64::from(bytes[i]);
        h = fold(h ^ (b(0) | b(n / 2) << 8 | b(n - 1) << 16));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_across_growth() {
        let mut names = Names::default();
        let all: Vec<String> = (0..1000).map(|i| format!("n{i}")).collect();
        for (i, n) in all.iter().enumerate() {
            assert_eq!(names.intern(n), (i as u32, true));
        }
        assert_eq!(names.len(), all.len());
        for (i, n) in all.iter().enumerate() {
            assert_eq!(names.get(i), n);
            assert_eq!(names.find(n), Some(i as u32));
            assert_eq!(names.intern(n), (i as u32, false));
        }
        assert_eq!(names.len(), all.len());
        assert_eq!(names.find("n1000"), None);
        assert_eq!(names.find(""), None);
    }

    #[test]
    fn empty_name_is_a_name() {
        let mut names = Names::default();
        assert_eq!(names.find(""), None);
        assert_eq!(names.intern(""), (0, true));
        assert_eq!(names.intern("a"), (1, true));
        assert_eq!(names.find(""), Some(0));
        assert_eq!(names.get(0), "");
        assert_eq!(names.get(1), "a");
    }

    #[test]
    fn every_byte_of_a_name_reaches_its_hash() {
        // Names of 1-40 bytes over one long shared prefix: changing any
        // one byte changes the hash, and the reads cover every position.
        let base: Vec<u8> = (0..40u8).map(|i| b'a' + i % 26).collect();
        for n in 1..=base.len() {
            let h = name_hash(7, &base[..n]);
            for i in 0..n {
                let mut other = base[..n].to_vec();
                other[i] ^= 1;
                assert_ne!(name_hash(7, &other), h, "byte {i} of a {n}-byte name");
            }
            assert_ne!(name_hash(7, &base[..n - 1]), h, "length {n}");
        }
    }
}
