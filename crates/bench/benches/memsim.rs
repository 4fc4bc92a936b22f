//! Memory-model micro-benchmarks: LRU probe cost and whole-footprint
//! touches (the per-task cost paid by the virtual executor).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ptdg_memsim::{BlockRange, LruCache, MemConfig, MemoryHierarchy};
use std::hint::black_box;

fn bench_lru(c: &mut Criterion) {
    let mut group = c.benchmark_group("lru_access");
    group.throughput(Throughput::Elements(10_000));
    group.sample_size(20);
    for (label, working_set) in [("hits", 1_000u64), ("thrash", 100_000u64)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(label),
            &working_set,
            |b, &ws| {
                let mut cache = LruCache::new(2048);
                let mut x = 1u64;
                b.iter(|| {
                    let mut hits = 0u32;
                    for _ in 0..10_000 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        if cache.access((x >> 33) % ws) {
                            hits += 1;
                        }
                    }
                    black_box(hits)
                })
            },
        );
    }
    group.finish();
}

fn bench_hierarchy(c: &mut Criterion) {
    let mut group = c.benchmark_group("hierarchy_footprint_touch");
    // a typical task footprint: ~64 blocks across 4 ranges
    let footprint = [
        BlockRange::new(0, 16),
        BlockRange::new(1000, 16),
        BlockRange::new(2000, 16),
        BlockRange::new(3000, 16),
    ];
    group.throughput(Throughput::Elements(64));
    group.sample_size(20);
    group.bench_function("touch_64_blocks", |b| {
        let mut h = MemoryHierarchy::new(MemConfig::default(), 4);
        let mut core = 0usize;
        b.iter(|| {
            core = (core + 1) % 4;
            black_box(h.touch_footprint(core, &footprint))
        })
    });
    // The distributed-LULESH shape: one 16-core EPYC NUMA domain, tasks
    // of 75 blocks over 5 arrays dealt round-robin to the cores. A core
    // never repeats its last task's blocks, so every probe misses L1, and
    // it cycles through 1,875 blocks, more than its L2 holds; the
    // 30,000-block working set stays L3-resident.
    const ARRAY_BLOCKS: u64 = 6_000;
    const SLICE: u32 = 15;
    let tasks: Vec<[BlockRange; 5]> = (0..ARRAY_BLOCKS / SLICE as u64)
        .map(|k| {
            std::array::from_fn(|a| {
                BlockRange::new(a as u64 * ARRAY_BLOCKS + k * SLICE as u64, SLICE)
            })
        })
        .collect();
    group.throughput(Throughput::Elements(5 * SLICE as u64));
    group.bench_function("epyc16_l3_resident_75_blocks", |b| {
        let mut h = MemoryHierarchy::new(MemConfig::epyc_numa_domain(), 16);
        let mut k = 0usize;
        b.iter(|| {
            k = (k + 1) % tasks.len();
            black_box(h.touch_footprint(k % 16, &tasks[k]))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_lru, bench_hierarchy);
criterion_main!(benches);
