//! # ptdg-memsim — memory-hierarchy model
//!
//! A deliberately simple but *mechanistic* model of a multi-core cache
//! hierarchy, standing in for the PAPI hardware counters used by the paper
//! (substitution documented in `DESIGN.md`).
//!
//! The model is:
//!
//! * per-core private **L1** and **L2** caches and one shared **L3**, each a
//!   fully-associative LRU over fixed-size *blocks* (coarse cache lines);
//! * tasks declare a **footprint**: the set of blocks they touch; executing
//!   a task probes each block top-down (L1 → L2 → L3 → DRAM) and installs it
//!   in every level (inclusive hierarchy). [`MemoryHierarchy::touch_footprint`]
//!   runs the probes level by level (L1 over the footprint, then L2 and L3
//!   over the L1 misses in order), which leaves every cache and counter
//!   exactly as block-by-block probing would;
//! * every miss level contributes **stall cycles**, and DRAM traffic draws
//!   on a shared demand-rate pool — memory time is scaled by
//!   `max(1, total demand / peak bandwidth)` over the concurrently running
//!   tasks ([`DramContention`]).
//!
//! This is exactly enough machinery to reproduce the cache-driven effects in
//! the paper: task refinement shrinks per-task footprints until they fit in
//! L2/L3; depth-first scheduling re-touches a predecessor's blocks while they
//! are still resident; discovery-bound executions run fewer cores in
//! parallel, which *reduces* DRAM contention and deflates work time even as
//! total time gets worse (paper §2.3.3).

mod config;
mod contention;
mod hierarchy;
mod lru;

pub use config::MemConfig;
pub use contention::{DemandId, DramContention};
pub use hierarchy::{AccessStats, MemoryHierarchy, StallCycles};
pub use lru::LruCache;

/// Identifier of one footprint block (a coarse cache line).
///
/// Applications map their arrays onto disjoint block-id ranges; see
/// [`BlockRange`].
pub type BlockId = u64;

/// A contiguous range of footprint blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockRange {
    /// First block in the range.
    pub first: BlockId,
    /// Number of blocks.
    pub count: u32,
}

impl BlockRange {
    /// A new range; `count` may be zero (empty footprint contribution).
    pub fn new(first: BlockId, count: u32) -> Self {
        BlockRange { first, count }
    }

    /// Iterate over the block ids of this range.
    pub fn iter(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.count as u64).map(move |i| self.first + i)
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_range_iterates() {
        let r = BlockRange::new(10, 3);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![10, 11, 12]);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert!(BlockRange::new(0, 0).is_empty());
    }
}
