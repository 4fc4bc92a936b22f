//! O(1) fully-associative LRU cache over block ids.
//!
//! Blocks live in a slab `Vec` threaded by an intrusive doubly-linked
//! recency list, so `access`/`insert`/`evict` are all constant-time and the
//! structure is reusable for every cache level.
//!
//! A block is found through a private open-addressing index that maps it
//! to its slab slot. The index stores no keys of its own: the key of an
//! entry is the block of the slot it names. It is a power-of-two table of
//! slot numbers, at most half full, probed linearly from a multiplicative
//! hash of the block id, and it deletes by backward shift, so it needs no
//! tombstones. Hashing is one multiply and a probe reads adjacent entries:
//! the simulator probes every block of every task footprint through here,
//! so this is its hottest path.

use crate::BlockId;

const NIL: u32 = u32::MAX;

/// Fibonacci hashing multiplier (2^64 / φ): sequential block ids, which
/// is what footprints are made of, spread evenly over the table.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Capacities up to this many blocks get their whole index up front; a
/// larger cache grows its index as it fills.
const MAX_PREALLOC: usize = 1 << 20;

#[derive(Clone, Copy, Debug)]
struct Node {
    block: BlockId,
    prev: u32,
    next: u32,
}

/// A fixed-capacity LRU set of blocks.
#[derive(Debug)]
pub struct LruCache {
    /// Open-addressing index: slab slot per table entry, `NIL` if empty.
    index: Vec<u32>,
    /// `64 - log2(index.len())`: the hash keeps the top bits.
    shift: u32,
    nodes: Vec<Node>,
    free: Vec<u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
    len: usize,
    capacity: usize,
}

impl LruCache {
    /// Create a cache holding at most `capacity` blocks.
    ///
    /// A zero capacity is allowed and behaves as "always miss".
    pub fn new(capacity: usize) -> Self {
        let table = (2 * capacity.min(MAX_PREALLOC)).next_power_of_two().max(2);
        LruCache {
            index: vec![NIL; table],
            shift: 64 - table.trailing_zeros(),
            nodes: Vec::with_capacity(capacity.min(MAX_PREALLOC)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
            capacity,
        }
    }

    /// Capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `block` is resident (does not touch recency).
    pub fn contains(&self, block: BlockId) -> bool {
        self.find(block).is_ok()
    }

    fn mask(&self) -> usize {
        self.index.len() - 1
    }

    fn home(&self, block: BlockId) -> usize {
        (block.wrapping_mul(HASH_MUL) >> self.shift) as usize
    }

    /// The table position holding `block`, or the empty position where
    /// the probe for it stopped.
    fn find(&self, block: BlockId) -> Result<usize, usize> {
        let mask = self.mask();
        let mut pos = self.home(block);
        loop {
            let slot = self.index[pos];
            if slot == NIL {
                return Err(pos);
            }
            if self.nodes[slot as usize].block == block {
                return Ok(pos);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Empty table position `hole`, moving later entries of its probe run
    /// back so every entry stays reachable from its home position. Returns
    /// the position left empty: the only one that changed from occupied
    /// to empty.
    fn remove_at(&mut self, mut hole: usize) -> usize {
        let mask = self.mask();
        let mut pos = hole;
        loop {
            pos = (pos + 1) & mask;
            let slot = self.index[pos];
            if slot == NIL {
                break;
            }
            let home = self.home(self.nodes[slot as usize].block);
            // The entry may fill the hole unless its home lies cyclically
            // after the hole, in (hole, pos].
            if pos.wrapping_sub(home) & mask >= pos.wrapping_sub(hole) & mask {
                self.index[hole] = slot;
                hole = pos;
            }
        }
        self.index[hole] = NIL;
        hole
    }

    /// Double the index; only a cache larger than [`MAX_PREALLOC`] needs to.
    fn grow(&mut self) {
        let table = self.index.len() * 2;
        self.index = vec![NIL; table];
        self.shift = 64 - table.trailing_zeros();
        let mut idx = self.head;
        while idx != NIL {
            let node = self.nodes[idx as usize];
            let pos = self
                .find(node.block)
                .expect_err("resident blocks are distinct");
            self.index[pos] = idx;
            idx = node.next;
        }
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Touch `block`: returns `true` on hit (and refreshes recency); on a
    /// miss the block is installed, evicting the LRU block if full.
    pub fn access(&mut self, block: BlockId) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let mut pos = match self.find(block) {
            Ok(pos) => {
                let idx = self.index[pos];
                if self.head != idx {
                    self.unlink(idx);
                    self.push_front(idx);
                }
                return true;
            }
            Err(pos) => pos,
        };
        // Miss: evict if needed, then install.
        let idx = if self.len >= self.capacity {
            let victim = self.tail;
            debug_assert!(victim != NIL);
            self.unlink(victim);
            let old = self.nodes[victim as usize].block;
            let at = self.find(old).expect("a resident block is indexed");
            let hole = self.remove_at(at);
            // Every other position keeps its occupancy, so the probe for
            // `block` now stops at the new hole if it lies on the way.
            let home = self.home(block);
            let mask = self.mask();
            if hole.wrapping_sub(home) & mask < pos.wrapping_sub(home) & mask {
                pos = hole;
            }
            self.nodes[victim as usize].block = block;
            victim
        } else {
            if 2 * (self.len + 1) > self.index.len() {
                self.grow();
                pos = self.find(block).expect_err("a missed block is not indexed");
            }
            self.len += 1;
            if let Some(idx) = self.free.pop() {
                self.nodes[idx as usize].block = block;
                idx
            } else {
                let idx = self.nodes.len() as u32;
                self.nodes.push(Node {
                    block,
                    prev: NIL,
                    next: NIL,
                });
                idx
            }
        };
        self.push_front(idx);
        self.index[pos] = idx;
        false
    }

    /// Remove `block` if resident (models invalidation); returns whether it
    /// was present.
    pub fn invalidate(&mut self, block: BlockId) -> bool {
        match self.find(block) {
            Ok(pos) => {
                let idx = self.index[pos];
                self.remove_at(pos);
                self.unlink(idx);
                self.free.push(idx);
                self.len -= 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Drop all contents (e.g. between independent simulation phases).
    pub fn clear(&mut self) {
        self.index.fill(NIL);
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut c = LruCache::new(4);
        assert!(!c.access(1));
        assert!(c.access(1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.access(1);
        c.access(2);
        c.access(1); // refresh 1; now 2 is LRU
        c.access(3); // evicts 2
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_always_misses() {
        let mut c = LruCache::new(0);
        assert!(!c.access(7));
        assert!(!c.access(7));
        assert!(c.is_empty());
    }

    #[test]
    fn invalidate_removes() {
        let mut c = LruCache::new(4);
        c.access(5);
        assert!(c.invalidate(5));
        assert!(!c.invalidate(5));
        assert!(!c.contains(5));
        // freed slot is reused
        assert!(!c.access(6));
        assert!(c.contains(6));
    }

    #[test]
    fn stays_within_capacity_under_stream() {
        let mut c = LruCache::new(16);
        for i in 0..10_000u64 {
            c.access(i % 37);
            assert!(c.len() <= 16);
        }
    }

    #[test]
    fn working_set_within_capacity_hits_forever() {
        let mut c = LruCache::new(8);
        for i in 0..8 {
            c.access(i);
        }
        for round in 0..100 {
            for i in 0..8 {
                assert!(c.access(i), "round {round} block {i} should hit");
            }
        }
    }

    #[test]
    fn working_set_exceeding_capacity_thrashes() {
        // Cyclic sweep over capacity+1 blocks with LRU = 100% miss.
        let mut c = LruCache::new(8);
        let mut misses = 0;
        for round in 0..10 {
            for i in 0..9u64 {
                if !c.access(i) {
                    misses += 1;
                }
            }
            let _ = round;
        }
        assert_eq!(misses, 90);
    }

    #[test]
    fn clear_resets() {
        let mut c = LruCache::new(4);
        c.access(1);
        c.access(2);
        c.clear();
        assert!(c.is_empty());
        assert!(!c.access(1));
    }

    /// Whether the index holds exactly the resident blocks, each
    /// reachable from its home position.
    fn index_is_consistent(c: &LruCache) -> bool {
        let live = c.index.iter().filter(|&&slot| slot != NIL).count();
        let mut idx = c.head;
        let mut listed = 0;
        while idx != NIL {
            let block = c.nodes[idx as usize].block;
            if c.find(block).map(|pos| c.index[pos]) != Ok(idx) {
                return false;
            }
            listed += 1;
            idx = c.nodes[idx as usize].next;
        }
        live == c.len() && listed == c.len()
    }

    /// Differential test against a straightforward Vec-based LRU (front =
    /// most recent), interleaving `invalidate` and `clear` with `access`.
    fn check_against_naive(capacity: usize, universe: u64, seed: u64) {
        let mut fast = LruCache::new(capacity);
        let mut slow: Vec<BlockId> = Vec::new();
        let mut x = seed;
        for step in 0..50_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = (x >> 33) % universe;
            match (x >> 20) % 1000 {
                0 => {
                    fast.clear();
                    slow.clear();
                }
                1..=99 => {
                    let pos = slow.iter().position(|&v| v == b);
                    if let Some(pos) = pos {
                        slow.remove(pos);
                    }
                    assert_eq!(fast.invalidate(b), pos.is_some(), "step {step}");
                }
                _ => {
                    let hit_slow = if let Some(pos) = slow.iter().position(|&v| v == b) {
                        slow.remove(pos);
                        slow.insert(0, b);
                        true
                    } else {
                        slow.insert(0, b);
                        if slow.len() > capacity {
                            slow.pop();
                        }
                        false
                    };
                    assert_eq!(fast.access(b), hit_slow, "step {step}");
                }
            }
            assert_eq!(fast.len(), slow.len(), "step {step}");
            if step % 97 == 0 {
                assert!(index_is_consistent(&fast), "step {step}");
                for v in 0..universe {
                    assert_eq!(fast.contains(v), slow.contains(&v), "step {step}");
                }
            }
        }
    }

    #[test]
    fn matches_naive_model() {
        check_against_naive(6, 23, 12345);
        check_against_naive(1, 3, 7);
        // near full: capacity 3 in an 8-entry index, mostly resident
        check_against_naive(3, 5, 99);
        check_against_naive(64, 200, 4242);
    }

    #[test]
    fn backward_shift_wraps_around_table_end() {
        // Capacity 4 gives an 8-entry index. Four blocks whose home is the
        // last entry fill it from position 7 round to position 2.
        let mut c = LruCache::new(4);
        let last = c.mask();
        let homed_last: Vec<BlockId> = (0..).filter(|&b| c.home(b) == last).take(5).collect();
        for &b in &homed_last[..4] {
            assert!(!c.access(b));
        }
        assert_eq!(c.index[last], 0, "the first block sits at its home");
        assert!(
            c.index[..3].iter().all(|&slot| slot != NIL),
            "the run wraps"
        );
        // Deleting the entry at the table end shifts the wrapped run back
        // across the boundary.
        assert!(c.invalidate(homed_last[0]));
        assert!(index_is_consistent(&c));
        assert_eq!(c.index[2], NIL);
        for &b in &homed_last[1..4] {
            assert!(c.contains(b));
        }
        // Refill to capacity, then evict the LRU block through the wrap.
        assert!(!c.access(homed_last[4]));
        assert!(!c.access(homed_last[0]));
        assert!(!c.contains(homed_last[1]), "the LRU block is evicted");
        assert!(index_is_consistent(&c));
        for &b in homed_last.iter().filter(|&&b| b != homed_last[1]) {
            assert!(c.access(b), "block {b} stays resident");
        }
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn index_grows_past_preallocation() {
        let mut c = LruCache::new(MAX_PREALLOC + 8);
        let table = c.index.len();
        for b in 0..(MAX_PREALLOC as u64 + 8) {
            assert!(!c.access(b));
        }
        assert!(c.index.len() > table);
        assert!(index_is_consistent(&c));
        assert!(c.access(0), "nothing evicted below capacity");
        assert!(!c.access(u64::MAX));
        assert!(!c.contains(1), "the LRU block is evicted at capacity");
    }
}
