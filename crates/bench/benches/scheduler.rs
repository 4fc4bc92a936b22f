//! Thread-executor micro-benchmarks: end-to-end graph execution under
//! both scheduling policies, persistent re-instancing, and the per-edge
//! cost of the runtime kernel's node links.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ptdg_core::access::AccessMode;
use ptdg_core::exec::{ExecConfig, Executor, QueueBackend, SchedPolicy};
use ptdg_core::handle::HandleSpace;
use ptdg_core::opts::OptConfig;
use ptdg_core::rt::{Completion, NodeArena, NodeRef, RtNode};
use ptdg_core::task::{TaskId, TaskSpec};
use ptdg_core::throttle::ThrottleConfig;
use std::hint::black_box;
use std::time::{Duration, Instant};

const N_TASKS: usize = 1_000;

fn bench_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("executor_e2e");
    group.throughput(Throughput::Elements(N_TASKS as u64));
    group.sample_size(10);
    for policy in [SchedPolicy::DepthFirst, SchedPolicy::BreadthFirst] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{policy:?}")),
            &policy,
            |b, &policy| {
                let mut space = HandleSpace::new();
                let handles: Vec<_> = (0..32).map(|_| space.region("h", 64)).collect();
                let exec = Executor::new(ExecConfig {
                    n_workers: 2,
                    policy,
                    throttle: ThrottleConfig::unbounded(),
                    profile: false,
                    record_events: false,
                });
                b.iter(|| {
                    let mut session = exec.session(OptConfig::all());
                    for i in 0..N_TASKS {
                        session.submit(
                            TaskSpec::new("t")
                                .depend(handles[i % 32], AccessMode::InOut)
                                .body(|ctx| {
                                    black_box(ctx.task);
                                }),
                        );
                    }
                    session.wait_all();
                })
            },
        );
    }
    group.finish();
}

/// Lock-free vs mutex `ReadyQueues` backends on the same empty-body
/// fan-out: one root releasing `N_TASKS` successors, so the steal path
/// (workers draining the completing worker's deque) dominates.
fn bench_queue_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_backend");
    group.throughput(Throughput::Elements(N_TASKS as u64));
    group.sample_size(10);
    for backend in [QueueBackend::Locked, QueueBackend::LockFree] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{backend:?}")),
            &backend,
            |b, &backend| {
                let mut space = HandleSpace::new();
                let root = space.region("root", 64);
                let leaves: Vec<_> = (0..N_TASKS).map(|_| space.region("l", 64)).collect();
                let exec = Executor::with_queue_backend(
                    ExecConfig {
                        n_workers: 4,
                        policy: SchedPolicy::DepthFirst,
                        throttle: ThrottleConfig::unbounded(),
                        profile: false,
                        record_events: false,
                    },
                    backend,
                );
                b.iter(|| {
                    let mut session = exec.session(OptConfig::all());
                    session.submit(
                        TaskSpec::new("root")
                            .depend(root, AccessMode::Out)
                            .body(|_| {}),
                    );
                    for &leaf in &leaves {
                        session.submit(
                            TaskSpec::new("leaf")
                                .depend(root, AccessMode::In)
                                .depend(leaf, AccessMode::Out)
                                .body(|ctx| {
                                    black_box(ctx.task);
                                }),
                        );
                    }
                    session.wait_all();
                })
            },
        );
    }
    group.finish();
}

fn bench_persistent_region(c: &mut Criterion) {
    let mut group = c.benchmark_group("persistent_region");
    group.throughput(Throughput::Elements(N_TASKS as u64));
    group.sample_size(10);
    group.bench_function("reinstance_iteration", |b| {
        let mut space = HandleSpace::new();
        let handles: Vec<_> = (0..32).map(|_| space.region("h", 64)).collect();
        let exec = Executor::new(ExecConfig {
            n_workers: 2,
            policy: SchedPolicy::DepthFirst,
            throttle: ThrottleConfig::unbounded(),
            profile: false,
            record_events: false,
        });
        let mut region = exec.persistent_region(OptConfig::all());
        let mut iter = 0u64;
        // capture on the first iteration (outside the timed loop)
        region.run(0, |sub| {
            for i in 0..N_TASKS {
                sub.submit(
                    TaskSpec::new("t")
                        .depend(handles[i % 32], AccessMode::InOut)
                        .body(|ctx| {
                            black_box(ctx.iter);
                        }),
                );
            }
        });
        b.iter(|| {
            iter += 1;
            region.run(iter, |_| unreachable!("template already captured"));
        })
    });
    group.finish();
}

/// Successors per predecessor in `node_edges` (the ~23 edges per task of
/// streaming LULESH, rounded up).
const FANOUT: usize = 24;
/// Predecessors built per timed batch, so setup stays off the clock and
/// memory stays small.
const BATCH: u64 = 256;

/// `BATCH` predecessors with `FANOUT` fresh successors each.
fn fanouts(arena: &mut NodeArena) -> Vec<(NodeRef, Vec<NodeRef>)> {
    (0..BATCH)
        .map(|_| {
            let pred = arena.alloc(RtNode::redirect(TaskId(0), 0));
            let succs = (1..=FANOUT as u32)
                .map(|i| arena.alloc(RtNode::redirect(TaskId(i), 0)))
                .collect();
            (pred, succs)
        })
        .collect()
}

fn attach_and_seal(pred: &NodeRef, succs: &[NodeRef]) {
    for s in succs {
        black_box(pred.attach_succ(s));
    }
    for s in succs {
        black_box(s.seal());
    }
}

/// The runtime kernel per edge: one case times attaching `FANOUT`
/// successors to a live predecessor and sealing them (the producer's
/// side), the other completing the predecessor, which releases them all
/// and hands back the ready list (the worker's side). Divide ns/iter by
/// `FANOUT` for ns per edge.
fn bench_node_edges(c: &mut Criterion) {
    let mut group = c.benchmark_group("node_edges");
    group.throughput(Throughput::Elements(FANOUT as u64));
    group.sample_size(20);
    group.bench_function(BenchmarkId::new("attach_seal", FANOUT), |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for start in (0..iters).step_by(BATCH as usize) {
                let mut arena = NodeArena::new();
                let batch = fanouts(&mut arena);
                let t = Instant::now();
                for (pred, succs) in &batch[..(iters - start).min(BATCH) as usize] {
                    attach_and_seal(pred, succs);
                }
                total += t.elapsed();
            }
            total
        })
    });
    group.bench_function(BenchmarkId::new("complete_release", FANOUT), |b| {
        let mut done: Vec<Completion> = Vec::with_capacity(BATCH as usize);
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for start in (0..iters).step_by(BATCH as usize) {
                let mut arena = NodeArena::new();
                let batch = fanouts(&mut arena);
                let batch = &batch[..(iters - start).min(BATCH) as usize];
                for (pred, succs) in batch {
                    attach_and_seal(pred, succs);
                }
                let t = Instant::now();
                for (pred, _) in batch {
                    done.push(pred.complete());
                }
                total += t.elapsed();
                assert!(done.iter().all(|d| d.ready.len() == FANOUT));
                done.clear();
            }
            total
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_policies,
    bench_queue_backends,
    bench_persistent_region,
    bench_node_edges
);
criterion_main!(benches);
