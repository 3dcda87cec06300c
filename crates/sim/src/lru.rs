//! Intrusive LRU list with O(1) touch, insert, and eviction.
//!
//! Two consumers in the simulator keep LRU order over their pages: the
//! VM resident set ([`crate::vm`]) and the file buffer cache
//! ([`crate::blockfs`]). Sprite approximated LRU with clock hands; we keep
//! exact LRU (the paper's analysis assumes LRU replacement, §5.1) using a
//! doubly-linked list threaded through a slab so that *every* operation on
//! the fault fast path is constant time.

use cc_util::Slab;

/// Opaque handle to an entry in an [`LruList`].
///
/// Handles are invalidated by `remove`/`pop_lru`; using a stale handle is a
/// logic error that the list detects when it can (panicking) rather than
/// corrupting order silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LruHandle(u32);

impl LruHandle {
    fn new(idx: usize) -> LruHandle {
        LruHandle(u32::try_from(idx).expect("LRU list past u32::MAX entries"))
    }

    fn idx(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone)]
struct Node<T> {
    value: T,
    prev: Option<usize>,
    next: Option<usize>,
}

/// A doubly-linked least-recently-used list.
///
/// The *head* is the most recently used entry, the *tail* the least recently
/// used. [`LruList::touch`] moves an entry to the head in O(1).
///
/// # Examples
///
/// ```
/// use cc_sim::lru::LruList;
///
/// let mut lru = LruList::new();
/// let a = lru.push_mru("a");
/// let _b = lru.push_mru("b");
/// assert_eq!(*lru.peek_lru().unwrap().1, "a");
/// lru.touch(a); // "a" becomes most recent
/// assert_eq!(*lru.peek_lru().unwrap().1, "b");
/// ```
#[derive(Debug, Clone)]
pub struct LruList<T> {
    nodes: Slab<Node<T>>,
    head: Option<usize>, // most recently used
    tail: Option<usize>, // least recently used
}

impl<T> Default for LruList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> LruList<T> {
    /// Create an empty list.
    pub fn new() -> Self {
        LruList {
            nodes: Slab::new(),
            head: None,
            tail: None,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Insert `value` as the most recently used entry.
    pub fn push_mru(&mut self, value: T) -> LruHandle {
        let idx = self.nodes.insert(Node {
            value,
            prev: None,
            next: self.head,
        });
        if let Some(old_head) = self.head {
            self.nodes[old_head].prev = Some(idx);
        }
        self.head = Some(idx);
        if self.tail.is_none() {
            self.tail = Some(idx);
        }
        LruHandle::new(idx)
    }

    /// Move an entry to the most-recently-used position.
    pub fn touch(&mut self, handle: LruHandle) {
        if self.head == Some(handle.idx()) {
            return;
        }
        self.unlink(handle.idx());
        let node = &mut self.nodes[handle.idx()];
        node.prev = None;
        node.next = self.head;
        if let Some(old_head) = self.head {
            self.nodes[old_head].prev = Some(handle.idx());
        }
        self.head = Some(handle.idx());
        if self.tail.is_none() {
            self.tail = Some(handle.idx());
        }
    }

    /// Remove and return the least recently used entry.
    pub fn pop_lru(&mut self) -> Option<T> {
        let tail = self.tail?;
        self.unlink(tail);
        Some(self.nodes.remove(tail).value)
    }

    /// The least recently used entry, without removing it.
    pub fn peek_lru(&self) -> Option<(LruHandle, &T)> {
        self.tail.map(|t| (LruHandle::new(t), &self.nodes[t].value))
    }

    /// Remove the entry behind `handle` and return its value.
    pub fn remove(&mut self, handle: LruHandle) -> T {
        self.unlink(handle.idx());
        self.nodes.remove(handle.idx()).value
    }

    /// Iterate from most to least recently used.
    pub fn iter_mru(&self) -> IterMru<'_, T> {
        IterMru {
            list: self,
            next: self.head,
        }
    }

    /// Iterate from least to most recently used.
    pub fn iter_lru(&self) -> IterLru<'_, T> {
        IterLru {
            list: self,
            next: self.tail,
        }
    }

    /// Detach `idx` from its neighbors without freeing the node.
    fn unlink(&mut self, idx: usize) {
        let (prev, next) = {
            let node = &self.nodes[idx];
            (node.prev, node.next)
        };
        match prev {
            Some(p) => self.nodes[p].next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.nodes[n].prev = prev,
            None => self.tail = prev,
        }
        let node = &mut self.nodes[idx];
        node.prev = None;
        node.next = None;
    }

    /// Verify the internal doubly-linked structure; used by property tests.
    ///
    /// Returns the number of entries reachable from the head. Panics if the
    /// forward and backward traversals disagree with each other or with
    /// `len()`.
    pub fn check_invariants(&self) -> usize {
        let mut forward = Vec::new();
        let mut cur = self.head;
        let mut prev: Option<usize> = None;
        while let Some(i) = cur {
            let node = &self.nodes[i];
            assert_eq!(node.prev, prev, "prev link broken at {i}");
            forward.push(i);
            prev = Some(i);
            cur = node.next;
            assert!(forward.len() <= self.nodes.len(), "cycle detected");
        }
        assert_eq!(self.tail, prev, "tail does not match last node");
        let mut backward = Vec::new();
        let mut cur = self.tail;
        while let Some(i) = cur {
            backward.push(i);
            cur = self.nodes[i].prev;
        }
        backward.reverse();
        assert_eq!(forward, backward, "forward/backward traversal mismatch");
        assert_eq!(forward.len(), self.nodes.len(), "unreachable nodes exist");
        forward.len()
    }
}

/// Iterator from most to least recently used. See [`LruList::iter_mru`].
pub struct IterMru<'a, T> {
    list: &'a LruList<T>,
    next: Option<usize>,
}

impl<'a, T> Iterator for IterMru<'a, T> {
    type Item = (LruHandle, &'a T);
    fn next(&mut self) -> Option<Self::Item> {
        let idx = self.next?;
        let node = &self.list.nodes[idx];
        self.next = node.next;
        Some((LruHandle::new(idx), &node.value))
    }
}

/// Iterator from least to most recently used. See [`LruList::iter_lru`].
pub struct IterLru<'a, T> {
    list: &'a LruList<T>,
    next: Option<usize>,
}

impl<'a, T> Iterator for IterLru<'a, T> {
    type Item = (LruHandle, &'a T);
    fn next(&mut self) -> Option<Self::Item> {
        let idx = self.next?;
        let node = &self.list.nodes[idx];
        self.next = node.prev;
        Some((LruHandle::new(idx), &node.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_order_is_fifo_without_touch() {
        let mut lru = LruList::new();
        for i in 0..5 {
            lru.push_mru(i);
        }
        for expected in 0..5 {
            assert_eq!(lru.pop_lru(), Some(expected));
        }
        assert_eq!(lru.pop_lru(), None);
    }

    #[test]
    fn touch_promotes() {
        let mut lru = LruList::new();
        let a = lru.push_mru('a');
        let _b = lru.push_mru('b');
        let _c = lru.push_mru('c');
        lru.touch(a);
        assert_eq!(lru.pop_lru(), Some('b'));
        assert_eq!(lru.pop_lru(), Some('c'));
        assert_eq!(lru.pop_lru(), Some('a'));
    }

    #[test]
    fn touch_head_is_noop() {
        let mut lru = LruList::new();
        let _a = lru.push_mru('a');
        let b = lru.push_mru('b');
        lru.touch(b);
        lru.check_invariants();
        assert_eq!(lru.pop_lru(), Some('a'));
    }

    #[test]
    fn remove_middle() {
        let mut lru = LruList::new();
        let _a = lru.push_mru(1);
        let b = lru.push_mru(2);
        let _c = lru.push_mru(3);
        assert_eq!(lru.remove(b), 2);
        lru.check_invariants();
        assert_eq!(lru.pop_lru(), Some(1));
        assert_eq!(lru.pop_lru(), Some(3));
    }

    #[test]
    fn iterators_agree() {
        let mut lru = LruList::new();
        for i in 0..4 {
            lru.push_mru(i);
        }
        let mru: Vec<_> = lru.iter_mru().map(|(_, v)| *v).collect();
        let mut lru_order: Vec<_> = lru.iter_lru().map(|(_, v)| *v).collect();
        lru_order.reverse();
        assert_eq!(mru, vec![3, 2, 1, 0]);
        assert_eq!(mru, lru_order);
    }

    #[test]
    fn single_element_edge_cases() {
        let mut lru = LruList::new();
        let a = lru.push_mru(42);
        lru.touch(a);
        lru.check_invariants();
        assert_eq!(lru.remove(a), 42);
        assert!(lru.is_empty());
        lru.check_invariants();
    }

    #[test]
    fn handles_stable_across_other_removals() {
        let mut lru = LruList::new();
        let a = lru.push_mru(1);
        let b = lru.push_mru(2);
        let c = lru.push_mru(3);
        lru.remove(b);
        lru.touch(a);
        assert_eq!(lru.remove(c), 3);
        assert_eq!(lru.remove(a), 1);
        assert!(lru.is_empty());
    }
}
