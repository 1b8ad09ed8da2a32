//! An idealized fully-associative LRU cache over 64-bit line addresses.
//!
//! O(1) touch/evict via a hash map into an intrusive doubly-linked list of
//! slab nodes.

use std::collections::HashMap;

const NIL: usize = usize::MAX;

/// A fully-associative LRU set of line addresses with a fixed capacity.
///
/// ```
/// use apc_sim::lru::Lru;
///
/// let mut c = Lru::new(2);
/// assert!(!c.touch(1)); // miss
/// assert!(!c.touch(2)); // miss
/// assert!(c.touch(1));  // hit
/// assert!(!c.touch(3)); // miss, evicts 2 (LRU)
/// assert!(!c.touch(2)); // miss again
/// ```
#[derive(Debug, Clone)]
pub struct Lru {
    capacity: usize,
    map: HashMap<u64, usize>,
    nodes: Vec<Node>,
    head: usize, // most recently used
    tail: usize, // least recently used
    free: Vec<usize>,
}

#[derive(Debug, Clone)]
struct Node {
    key: u64,
    prev: usize,
    next: usize,
}

impl Lru {
    /// A cache holding up to `capacity` lines.
    ///
    /// The map and the node slab are reserved for the full `capacity` up
    /// front: a warm cache holds exactly `capacity` resident lines, so a
    /// smaller reservation only deferred the same allocation into the
    /// middle of the simulated run (and re-hashed/re-copied on the way).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Lru {
        assert!(capacity > 0, "cache must hold at least one line");
        Lru {
            capacity,
            map: HashMap::with_capacity(capacity),
            nodes: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
        }
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The line capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Accesses `key`: returns `true` on hit. On miss the key is inserted,
    /// evicting the least recently used line if full. Either way `key`
    /// becomes most recently used.
    pub fn touch(&mut self, key: u64) -> bool {
        if let Some(&idx) = self.map.get(&key) {
            self.unlink(idx);
            self.push_front(idx);
            return true;
        }
        // Miss: evict if needed.
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            let victim_key = self.nodes[victim].key;
            self.unlink(victim);
            self.map.remove(&victim_key);
            self.free.push(victim);
        }
        let idx = if let Some(idx) = self.free.pop() {
            self.nodes[idx] = Node {
                key,
                prev: NIL,
                next: NIL,
            };
            idx
        } else {
            self.nodes.push(Node {
                key,
                prev: NIL,
                next: NIL,
            });
            self.nodes.len() - 1
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        false
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_order_is_lru_not_fifo() {
        let mut c = Lru::new(3);
        c.touch(1);
        c.touch(2);
        c.touch(3);
        c.touch(1); // 1 becomes MRU; LRU order now 2,3,1
        c.touch(4); // evicts 2
        assert!(c.touch(1));
        assert!(c.touch(3));
        assert!(c.touch(4));
        assert!(!c.touch(2));
    }

    #[test]
    fn capacity_one() {
        let mut c = Lru::new(1);
        assert!(!c.touch(7));
        assert!(c.touch(7));
        assert!(!c.touch(8));
        assert!(!c.touch(7));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn len_never_exceeds_capacity() {
        let mut c = Lru::new(10);
        for i in 0..1000u64 {
            c.touch(i % 37);
            assert!(c.len() <= 10);
        }
    }

    #[test]
    fn working_set_within_capacity_always_hits_after_warmup() {
        let mut c = Lru::new(16);
        for i in 0..16u64 {
            c.touch(i);
        }
        for round in 0..5 {
            for i in 0..16u64 {
                assert!(c.touch(i), "round {round} line {i}");
            }
        }
    }

    #[test]
    fn node_reuse_after_eviction() {
        let mut c = Lru::new(2);
        for i in 0..100u64 {
            c.touch(i);
        }
        // Slab should not grow unboundedly: 2 live + free list reuse.
        assert!(c.nodes.len() <= 3);
    }

    #[test]
    fn full_capacity_is_reserved_up_front() {
        // Regression: capacities above 2^20 used to be clamped at reserve
        // time, so the slab and map reallocated mid-run once the cache
        // warmed past the clamp.
        let capacity = (1 << 20) + 1;
        let c = Lru::new(capacity);
        assert!(c.nodes.capacity() >= capacity);
        assert!(c.map.capacity() >= capacity);
    }

    #[test]
    fn warmup_to_capacity_never_regrows_the_slab() {
        let capacity = (1 << 20) + 1;
        let mut c = Lru::new(capacity);
        let reserved = c.nodes.capacity();
        // Fill to capacity, then force evictions past it.
        for i in 0..(capacity as u64 + 1000) {
            c.touch(i);
        }
        assert_eq!(c.len(), capacity);
        assert_eq!(c.nodes.capacity(), reserved, "slab reallocated mid-run");
    }
}
