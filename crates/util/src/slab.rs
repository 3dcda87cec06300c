//! A slab with stable `usize` keys whose entries never move.
//!
//! The simulator's page tables, file table and LRU lists, the server's
//! connection table and the store's per-shard entries all need
//! containers whose elements keep a stable identity while other elements
//! come and go. `Vec` indices move under removal and `HashMap` costs
//! hashing on every lookup, so they use the classic slab: slots plus an
//! intrusive free list threaded through the vacated ones. The slots live
//! in chunks of [`CHUNK`] that are allocated once and never grow, so
//! growth copies no entry and leaves no old copy behind in the heap, and
//! a live entry keeps its address until it is removed.

/// Slots a chunk holds. Each chunk is one allocation of exactly this
/// many slots, filled in key order and never reallocated.
pub const CHUNK: usize = 1024;

/// The end of the free list.
const NIL: u32 = u32::MAX;

/// A slot-stable arena. Keys returned by [`Slab::insert`] remain valid until
/// the entry is removed; removed keys are recycled, the last removed first.
/// (A clone's last chunk is only as long as it was, so a clone that grows
/// may move that chunk's entries; its keys stay valid.)
///
/// # Examples
///
/// ```
/// use cc_util::Slab;
///
/// let mut slab = Slab::new();
/// let a = slab.insert("alpha");
/// let b = slab.insert("beta");
/// assert_eq!(slab[a], "alpha");
/// assert_eq!(slab.remove(b), "beta");
/// let c = slab.insert("gamma"); // reuses b's slot
/// assert_eq!(c, b);
/// assert_eq!(slab.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Slab<T> {
    /// Every chunk but the last is full; the last is filled by `push`.
    chunks: Vec<Vec<Slot<T>>>,
    /// The last vacated slot, or `NIL`.
    free: u32,
    len: usize,
}

/// A slab's slot: a live value, or a vacated slot that links the next
/// vacated one (`u32::MAX` ends the list). Public only so that a user
/// can pin its size: a 4-byte link costs no more than the value's own
/// spare bits, so the store's 48-byte entries take 48-byte slots.
#[derive(Debug, Clone)]
pub enum Slot<T> {
    /// A live value.
    Live(T),
    /// A vacated slot and the key of the one vacated before it.
    Free(u32),
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// Create an empty slab. It allocates nothing until the first insert.
    pub const fn new() -> Self {
        Slab {
            chunks: Vec::new(),
            free: NIL,
            len: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slab holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots used so far, live or vacated: the next unused key.
    fn used(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |c| (self.chunks.len() - 1) * CHUNK + c.len())
    }

    fn slot(&self, key: usize) -> Option<&Slot<T>> {
        self.chunks.get(key / CHUNK)?.get(key % CHUNK)
    }

    fn slot_mut(&mut self, key: usize) -> Option<&mut Slot<T>> {
        self.chunks.get_mut(key / CHUNK)?.get_mut(key % CHUNK)
    }

    /// Insert a value, returning its stable key: the last vacated key,
    /// or else the next unused one (the first of a new chunk when every
    /// chunk is full).
    pub fn insert(&mut self, value: T) -> usize {
        self.len += 1;
        if self.free == NIL {
            let key = self.used();
            assert!(key < NIL as usize, "slab: more than {NIL} slots");
            if key.is_multiple_of(CHUNK) {
                self.chunks.push(Vec::with_capacity(CHUNK));
            }
            self.chunks[key / CHUNK].push(Slot::Live(value));
            return key;
        }
        let key = self.free as usize;
        let slot = &mut self.chunks[key / CHUNK][key % CHUNK];
        let Slot::Free(next) = std::mem::replace(slot, Slot::Live(value)) else {
            unreachable!("slab: the free list links live slot {key}")
        };
        self.free = next;
        key
    }

    /// Remove and return the entry at `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not occupied.
    pub fn remove(&mut self, key: usize) -> T {
        let next = self.free;
        let slot = match self.slot_mut(key) {
            Some(slot @ Slot::Live(_)) => slot,
            _ => panic!("slab: remove of vacant key {key}"),
        };
        let Slot::Live(value) = std::mem::replace(slot, Slot::Free(next)) else {
            unreachable!("matched live")
        };
        self.free = key as u32;
        self.len -= 1;
        value
    }

    /// Shared access to the entry at `key`, if occupied.
    pub fn get(&self, key: usize) -> Option<&T> {
        match self.slot(key) {
            Some(Slot::Live(v)) => Some(v),
            _ => None,
        }
    }

    /// Exclusive access to the entry at `key`, if occupied.
    pub fn get_mut(&mut self, key: usize) -> Option<&mut T> {
        match self.slot_mut(key) {
            Some(Slot::Live(v)) => Some(v),
            _ => None,
        }
    }

    /// Whether `key` refers to a live entry.
    pub fn contains(&self, key: usize) -> bool {
        matches!(self.slot(key), Some(Slot::Live(_)))
    }

    /// Iterate over `(key, &value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.chunks
            .iter()
            .flatten()
            .enumerate()
            .filter_map(|(i, s)| match s {
                Slot::Live(v) => Some((i, v)),
                Slot::Free(_) => None,
            })
    }

    /// Iterate over `(key, &mut value)` pairs in key order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (usize, &mut T)> {
        self.chunks
            .iter_mut()
            .flatten()
            .enumerate()
            .filter_map(|(i, s)| match s {
                Slot::Live(v) => Some((i, v)),
                Slot::Free(_) => None,
            })
    }

    /// The slab's own identities: every chunk but the last is full, the
    /// free list links every vacated slot once and nothing else, and the
    /// length counts the live slots. Walks every slot.
    pub fn check(&self) -> Result<(), String> {
        let full = self.chunks.split_last().map_or(&[][..], |(_, rest)| rest);
        if let Some(i) = full.iter().position(|c| c.len() != CHUNK) {
            return Err(format!("chunk {i} is not full but is not the last"));
        }
        let slots = self.chunks.iter().flatten();
        let vacant = slots.filter(|s| matches!(s, Slot::Free(_))).count();
        let (mut linked, mut next) = (0, self.free);
        while next != NIL && linked <= vacant {
            let Some(Slot::Free(after)) = self.slot(next as usize) else {
                return Err(format!(
                    "the free list links slot {next}, which is not vacant"
                ));
            };
            (linked, next) = (linked + 1, *after);
        }
        if linked != vacant {
            return Err(format!(
                "{vacant} vacant slots but {linked} or more on the free list"
            ));
        }
        let live = self.used() - vacant;
        if live != self.len {
            return Err(format!("{live} live slots but a length of {}", self.len));
        }
        Ok(())
    }
}

impl<T> std::ops::Index<usize> for Slab<T> {
    type Output = T;
    fn index(&self, key: usize) -> &T {
        self.get(key)
            .unwrap_or_else(|| panic!("slab: index of vacant key {key}"))
    }
}

impl<T> std::ops::IndexMut<usize> for Slab<T> {
    fn index_mut(&mut self, key: usize) -> &mut T {
        self.get_mut(key)
            .unwrap_or_else(|| panic!("slab: index of vacant key {key}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut s = Slab::new();
        assert!(s.is_empty());
        let a = s.insert(10);
        let b = s.insert(20);
        assert_eq!(s.len(), 2);
        assert_eq!(s[a], 10);
        assert_eq!(*s.get(b).unwrap(), 20);
        assert_eq!(s.remove(a), 10);
        assert!(!s.contains(a));
        assert!(s.contains(b));
        assert_eq!(s.len(), 1);
        s.check().unwrap();
    }

    #[test]
    fn keys_recycle_lifo() {
        let mut s = Slab::new();
        let a = s.insert(1);
        let b = s.insert(2);
        s.remove(a);
        s.remove(b);
        // LIFO recycling: most recently freed slot first.
        assert_eq!(s.insert(3), b);
        assert_eq!(s.insert(4), a);
        s.check().unwrap();
    }

    #[test]
    fn iteration_skips_vacant() {
        let mut s = Slab::new();
        let _a = s.insert("a");
        let b = s.insert("b");
        let _c = s.insert("c");
        s.remove(b);
        let items: Vec<_> = s.iter().map(|(_, v)| *v).collect();
        assert_eq!(items, vec!["a", "c"]);
        for (_, v) in s.iter_mut() {
            *v = "x";
        }
        assert!(s.iter().all(|(_, v)| *v == "x"));
    }

    #[test]
    #[should_panic(expected = "remove of vacant key")]
    fn double_remove_panics() {
        let mut s = Slab::new();
        let a = s.insert(1);
        s.remove(a);
        s.remove(a);
    }

    #[test]
    fn the_checker_catches_a_broken_free_list() {
        let mut s = Slab::new();
        let keys: Vec<usize> = (0..4).map(|v| s.insert(v)).collect();
        s.remove(keys[1]);
        s.remove(keys[2]);
        s.check().unwrap();
        s.free = keys[0] as u32;
        let err = s.check().unwrap_err();
        assert!(err.contains("links slot 0, which is not vacant"), "{err}");
        s.free = keys[2] as u32;
        s.chunks[0][keys[2]] = Slot::Free(NIL);
        let err = s.check().unwrap_err();
        assert!(err.contains("2 vacant slots but 1 or more"), "{err}");
    }

    #[test]
    fn stress_interleaved() {
        let mut s = Slab::new();
        let mut keys = Vec::new();
        for round in 0..100 {
            for i in 0..10 {
                keys.push((s.insert(round * 10 + i), round * 10 + i));
            }
            // Remove every other key inserted this round.
            let start = keys.len() - 10;
            let mut i = start;
            while i < keys.len() {
                let (k, v) = keys[i];
                assert_eq!(s.remove(k), v);
                keys.remove(i);
                i += 1;
            }
        }
        for &(k, v) in &keys {
            assert_eq!(s[k], v);
        }
        assert_eq!(s.len(), keys.len());
        s.check().unwrap();
    }
}
