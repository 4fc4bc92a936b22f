//! The multi-core cache hierarchy.

use crate::{BlockId, BlockRange, LruCache, MemConfig};

/// Counters produced by probing one task footprint.
///
/// Counter semantics follow PAPI naming used by the paper:
/// `l1_misses` = accesses that missed L1 (PAPI `L1_DCM`),
/// `l2_misses` = accesses that missed L2 (PAPI `L2_DCM`),
/// `l3_misses` = accesses that missed L3 and went to DRAM (PAPI `L3_TCM`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Blocks probed.
    pub accesses: u64,
    /// Probes missing the private L1.
    pub l1_misses: u64,
    /// Probes missing the private L2.
    pub l2_misses: u64,
    /// Probes missing the shared L3 (served by DRAM).
    pub l3_misses: u64,
}

impl AccessStats {
    /// Accumulate another stats record into this one.
    pub fn merge(&mut self, other: AccessStats) {
        self.accesses += other.accesses;
        self.l1_misses += other.l1_misses;
        self.l2_misses += other.l2_misses;
        self.l3_misses += other.l3_misses;
    }

    /// Stall cycles implied by these counters under `cfg`'s latencies.
    ///
    /// A probe served by L2 stalls `l1_miss_cycles`; served by L3 stalls
    /// additionally `l2_miss_cycles`; served by DRAM additionally
    /// `l3_miss_cycles` — i.e. miss costs accumulate down the hierarchy.
    pub fn stall_cycles(&self, cfg: &MemConfig) -> StallCycles {
        StallCycles {
            l1: self.l1_misses * cfg.l1_miss_cycles,
            l2: self.l2_misses * cfg.l2_miss_cycles,
            l3: self.l3_misses * cfg.l3_miss_cycles,
        }
    }

    /// Bytes fetched from DRAM.
    pub fn dram_bytes(&self, cfg: &MemConfig) -> u64 {
        self.l3_misses * cfg.block_bytes
    }
}

/// Stall-cycle breakdown per miss level (paper Fig. 2(f)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StallCycles {
    /// Cycles stalled on L1 misses (data served by L2).
    pub l1: u64,
    /// Cycles stalled on L2 misses (data served by L3).
    pub l2: u64,
    /// Cycles stalled on L3 misses (data served by DRAM).
    pub l3: u64,
}

impl StallCycles {
    /// Total stalled cycles.
    pub fn total(&self) -> u64 {
        self.l1 + self.l2 + self.l3
    }
}

/// Private L1/L2 per core plus one shared L3, all LRU.
#[derive(Debug)]
pub struct MemoryHierarchy {
    cfg: MemConfig,
    l1: Vec<LruCache>,
    l2: Vec<LruCache>,
    l3: LruCache,
    totals: AccessStats,
    /// `touch_footprint`'s L1 misses in probe order, each with whether it
    /// also missed L2; kept so footprints allocate nothing.
    l1_miss_buf: Vec<(BlockId, bool)>,
}

impl MemoryHierarchy {
    /// Build a hierarchy for `n_cores` cores.
    pub fn new(cfg: MemConfig, n_cores: usize) -> Self {
        let l1 = (0..n_cores)
            .map(|_| LruCache::new(cfg.l1_blocks()))
            .collect();
        let l2 = (0..n_cores)
            .map(|_| LruCache::new(cfg.l2_blocks()))
            .collect();
        let l3 = LruCache::new(cfg.l3_blocks());
        MemoryHierarchy {
            cfg,
            l1,
            l2,
            l3,
            totals: AccessStats::default(),
            l1_miss_buf: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Number of modelled cores.
    pub fn n_cores(&self) -> usize {
        self.l1.len()
    }

    /// Probe a single block from `core`, updating all levels (inclusive).
    pub fn touch(&mut self, core: usize, block: BlockId) -> AccessStats {
        let mut s = AccessStats {
            accesses: 1,
            ..Default::default()
        };
        let l1_hit = self.l1[core].access(block);
        if !l1_hit {
            s.l1_misses = 1;
            let l2_hit = self.l2[core].access(block);
            if !l2_hit {
                s.l2_misses = 1;
                let l3_hit = self.l3.access(block);
                if !l3_hit {
                    s.l3_misses = 1;
                }
            } else {
                // Keep L3 inclusive and recency-correct on L2 hits.
                self.l3.access(block);
            }
        }
        self.totals.merge(s);
        s
    }

    /// Probe a whole task footprint from `core`.
    ///
    /// Equivalent to [`MemoryHierarchy::touch`] on every block in order,
    /// but probed one level at a time: L1 over the footprint, then L2 over
    /// the L1 misses, then L3 over the same misses. Each cache sees exactly
    /// the sequence it would see block by block, because L2 and L3 are
    /// reached only through an L1 miss and then both are touched. An L3
    /// miss counts only when L2 missed too: on an L2 hit, L3 is touched
    /// for recency alone.
    pub fn touch_footprint(&mut self, core: usize, footprint: &[BlockRange]) -> AccessStats {
        let mut misses = std::mem::take(&mut self.l1_miss_buf);
        misses.clear();
        let mut s = AccessStats::default();
        let l1 = &mut self.l1[core];
        for range in footprint {
            s.accesses += range.count as u64;
            for block in range.iter() {
                if !l1.access(block) {
                    misses.push((block, false));
                }
            }
        }
        let l2 = &mut self.l2[core];
        for (block, l2_missed) in misses.iter_mut() {
            *l2_missed = !l2.access(*block);
            s.l2_misses += *l2_missed as u64;
        }
        for &(block, l2_missed) in &misses {
            if !self.l3.access(block) && l2_missed {
                s.l3_misses += 1;
            }
        }
        s.l1_misses = misses.len() as u64;
        self.l1_miss_buf = misses;
        self.totals.merge(s);
        s
    }

    /// Cumulative counters since construction (paper Fig. 2(e) series).
    pub fn totals(&self) -> AccessStats {
        self.totals
    }

    /// Drop all cache contents and counters.
    pub fn reset(&mut self) {
        for c in &mut self.l1 {
            c.clear();
        }
        for c in &mut self.l2 {
            c.clear();
        }
        self.l3.clear();
        self.totals = AccessStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tiny() -> MemoryHierarchy {
        // 2 cores; L1 = 2 blocks, L2 = 8 blocks, L3 = 32 blocks.
        let cfg = MemConfig {
            block_bytes: 512,
            l1_bytes: 1024,
            l2_bytes: 4096,
            l3_bytes: 16384,
            ..MemConfig::default()
        };
        MemoryHierarchy::new(cfg, 2)
    }

    #[test]
    fn cold_access_misses_everywhere() {
        let mut h = tiny();
        let s = h.touch(0, 42);
        assert_eq!(
            s,
            AccessStats {
                accesses: 1,
                l1_misses: 1,
                l2_misses: 1,
                l3_misses: 1
            }
        );
    }

    #[test]
    fn warm_access_hits_l1() {
        let mut h = tiny();
        h.touch(0, 42);
        let s = h.touch(0, 42);
        assert_eq!(s.l1_misses, 0);
        assert_eq!(s.accesses, 1);
    }

    #[test]
    fn other_core_hits_shared_l3_only() {
        let mut h = tiny();
        h.touch(0, 42);
        let s = h.touch(1, 42);
        assert_eq!(s.l1_misses, 1);
        assert_eq!(s.l2_misses, 1);
        assert_eq!(s.l3_misses, 0, "block must be resident in shared L3");
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut h = tiny();
        h.touch(0, 1);
        h.touch(0, 2);
        h.touch(0, 3); // L1 holds {2,3}; 1 evicted from L1 but resident in L2
        let s = h.touch(0, 1);
        assert_eq!(s.l1_misses, 1);
        assert_eq!(s.l2_misses, 0);
    }

    #[test]
    fn footprint_fitting_l2_reuses_across_sweeps() {
        let mut h = tiny();
        let fp = [BlockRange::new(0, 8)]; // exactly L2-sized
        h.touch_footprint(0, &fp);
        let s = h.touch_footprint(0, &fp);
        assert_eq!(s.l2_misses, 0, "L2-resident working set must not miss L2");
        assert_eq!(s.l3_misses, 0);
    }

    #[test]
    fn footprint_exceeding_l3_thrashes_dram() {
        let mut h = tiny();
        let fp = [BlockRange::new(0, 33)]; // L3 is 32 blocks; cyclic sweep thrashes
        h.touch_footprint(0, &fp);
        let s = h.touch_footprint(0, &fp);
        assert_eq!(
            s.l3_misses, 33,
            "cyclic LRU sweep over capacity+1 misses all"
        );
    }

    #[test]
    fn stall_cycles_accumulate_per_level() {
        let cfg = MemConfig::default();
        let s = AccessStats {
            accesses: 10,
            l1_misses: 10,
            l2_misses: 4,
            l3_misses: 1,
        };
        let st = s.stall_cycles(&cfg);
        assert_eq!(st.l1, 10 * cfg.l1_miss_cycles);
        assert_eq!(st.l2, 4 * cfg.l2_miss_cycles);
        assert_eq!(st.l3, cfg.l3_miss_cycles);
        assert_eq!(st.total(), st.l1 + st.l2 + st.l3);
    }

    #[test]
    fn totals_track_all_traffic() {
        let mut h = tiny();
        h.touch_footprint(0, &[BlockRange::new(0, 4)]);
        h.touch_footprint(1, &[BlockRange::new(0, 4)]);
        let t = h.totals();
        assert_eq!(t.accesses, 8);
        assert_eq!(t.l3_misses, 4, "second core reuses L3");
    }

    #[test]
    fn reset_clears_state() {
        let mut h = tiny();
        h.touch(0, 7);
        h.reset();
        assert_eq!(h.totals(), AccessStats::default());
        let s = h.touch(0, 7);
        assert_eq!(s.l3_misses, 1);
    }

    /// Per-block [`MemoryHierarchy::touch`] over a footprint: the reference
    /// `touch_footprint` must match.
    fn touch_each(h: &mut MemoryHierarchy, core: usize, footprint: &[BlockRange]) -> AccessStats {
        let mut s = AccessStats::default();
        for range in footprint {
            for block in range.iter() {
                s.merge(h.touch(core, block));
            }
        }
        s
    }

    /// L1 = 4, L2 = 16 and L3 = 24 blocks: the shared L3 is smaller than
    /// two cores' L2s together, so a block can hit L2 and miss L3.
    fn l3_smaller_than_l2s() -> MemConfig {
        MemConfig {
            block_bytes: 512,
            l1_bytes: 4 * 512,
            l2_bytes: 16 * 512,
            l3_bytes: 24 * 512,
            ..MemConfig::default()
        }
    }

    #[test]
    fn l2_hit_after_l3_eviction_is_no_dram_miss() {
        let cfg = MemConfig {
            block_bytes: 512,
            l1_bytes: 512,
            l2_bytes: 4 * 512,
            l3_bytes: 4 * 512,
            ..MemConfig::default()
        };
        let mut fast = MemoryHierarchy::new(cfg.clone(), 2);
        let mut slow = MemoryHierarchy::new(cfg, 2);
        // Core 0's L2 and the L3 take blocks 0..4; core 1 then evicts
        // them from the L3 only.
        for (core, range) in [(0, BlockRange::new(0, 4)), (1, BlockRange::new(100, 4))] {
            assert_eq!(
                fast.touch_footprint(core, &[range]),
                touch_each(&mut slow, core, &[range])
            );
        }
        assert!(fast.l2[0].contains(0) && !fast.l3.contains(0));
        let fp = [BlockRange::new(0, 1)];
        let s = fast.touch_footprint(0, &fp);
        assert_eq!(s, touch_each(&mut slow, 0, &fp));
        assert_eq!((s.l1_misses, s.l2_misses, s.l3_misses), (1, 0, 0));
        assert!(fast.l3.contains(0), "an L2 hit still refreshes the L3");
        assert_eq!(fast.totals(), slow.totals());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `touch_footprint`'s level-by-level probe equals a block-by-block
        /// `touch`, per call and in total, over overlapping multi-range
        /// footprints with repeated blocks on several cores.
        #[test]
        fn footprint_matches_per_block_touch(
            n_cores in 2usize..=4,
            calls in prop::collection::vec(
                (0usize..4, prop::collection::vec((0u64..96, 0u32..12), 1..=6)),
                1..=40,
            ),
        ) {
            let mut fast = MemoryHierarchy::new(l3_smaller_than_l2s(), n_cores);
            let mut slow = MemoryHierarchy::new(l3_smaller_than_l2s(), n_cores);
            for (core, ranges) in &calls {
                let core = core % n_cores;
                let fp: Vec<BlockRange> =
                    ranges.iter().map(|&(first, n)| BlockRange::new(first, n)).collect();
                prop_assert_eq!(fast.touch_footprint(core, &fp), touch_each(&mut slow, core, &fp));
            }
            prop_assert_eq!(fast.totals(), slow.totals());
        }
    }
}
