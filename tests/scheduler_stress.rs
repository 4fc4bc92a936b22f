//! Stress tests for the lock-free scheduler fast path: shutdown/drain
//! races, parking wakeups, and a property pinning the lock-free pop
//! order to the sequential locked model.
//!
//! The executor rounds are intentionally repeated (`STRESS_ROUNDS`, or
//! the `PTDG_STRESS_ROUNDS` env var — CI's release stress job raises
//! it) so scheduling races get many chances to fire.

use proptest::prelude::*;
use ptdg::core::exec::{ExecConfig, Executor, QueueBackend, SchedPolicy};
use ptdg::core::graph::{DiscoveryEngine, TemplateRecorder};
use ptdg::core::handle::HandleSpace;
use ptdg::core::opts::OptConfig;
use ptdg::core::rt::{NodeArena, NodeRef, PersistentInstance, ReadyQueues, ReadyTracker, RtNode};
use ptdg::core::task::{TaskId, TaskSpec};
use ptdg::core::throttle::ThrottleConfig;
use ptdg::core::AccessMode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const STRESS_ROUNDS: usize = 20;

fn rounds() -> usize {
    std::env::var("PTDG_STRESS_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(STRESS_ROUNDS)
}

fn cfg(workers: usize) -> ExecConfig {
    ExecConfig {
        n_workers: workers,
        policy: SchedPolicy::DepthFirst,
        throttle: ThrottleConfig::unbounded(),
        profile: false,
        record_events: false,
    }
}

/// Dropping the executor right after submission (no `wait_all`) must
/// still run every task exactly once: shutdown drains, never discards.
#[test]
fn drop_shutdown_loses_no_tasks() {
    for round in 0..rounds() {
        const TASKS: usize = 400;
        let runs: Arc<Vec<AtomicUsize>> =
            Arc::new((0..TASKS).map(|_| AtomicUsize::new(0)).collect());
        {
            let e = Executor::new(cfg(4));
            let mut space = HandleSpace::new();
            // A few shared handles so chains, fan-outs and independent
            // tasks all occur.
            let handles: Vec<_> = (0..8).map(|_| space.region("h", 64)).collect();
            let mut s = e.session(OptConfig::all());
            for i in 0..TASKS {
                let runs = Arc::clone(&runs);
                let h = handles[i % handles.len()];
                let mode = match i % 3 {
                    0 => AccessMode::InOut,
                    1 => AccessMode::In,
                    _ => AccessMode::Out,
                };
                s.submit(TaskSpec::new("t").depend(h, mode).body(move |_| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                }));
            }
            // Session and Executor dropped here, racing the workers.
        }
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(
                r.load(Ordering::Relaxed),
                1,
                "round {round}: task {i} must run exactly once across shutdown"
            );
        }
    }
}

/// Workers that have gone idle (parked) must wake for work submitted
/// much later — the eventcount may not miss a push.
#[test]
fn parked_workers_wake_for_late_submissions() {
    let e = Executor::new(cfg(4));
    let mut space = HandleSpace::new();
    let h = space.region("h", 64);
    for burst in 0..10 {
        let ran = Arc::new(AtomicUsize::new(0));
        // Let the pool go fully idle so workers are parked, not spinning.
        std::thread::sleep(std::time::Duration::from_millis(2));
        let mut s = e.session(OptConfig::all());
        for _ in 0..64 {
            let ran = Arc::clone(&ran);
            s.submit(
                TaskSpec::new("late")
                    .depend(h, AccessMode::In)
                    .body(move |_| {
                        ran.fetch_add(1, Ordering::Relaxed);
                    }),
            );
        }
        s.wait_all();
        assert_eq!(ran.load(Ordering::Relaxed), 64, "burst {burst}");
    }
}

/// Persistent-region iteration barriers under parking: every iteration
/// runs the full graph, no iteration deadlocks.
#[test]
fn persistent_region_barriers_survive_parking() {
    let e = Executor::new(cfg(3));
    let mut space = HandleSpace::new();
    let x = space.region("x", 64);
    let slices: Vec<_> = (0..16).map(|_| space.region("s", 64)).collect();
    let count = Arc::new(AtomicUsize::new(0));
    let mut region = e.persistent_region(OptConfig::all());
    for iter in 0..20u64 {
        region.run(iter, |s| {
            s.submit(TaskSpec::new("w").depend(x, AccessMode::Out).body({
                let c = Arc::clone(&count);
                move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                }
            }));
            for &sl in &slices {
                s.submit(
                    TaskSpec::new("r")
                        .depend(x, AccessMode::In)
                        .depend(sl, AccessMode::Out)
                        .body({
                            let c = Arc::clone(&count);
                            move |_| {
                                c.fetch_add(1, Ordering::Relaxed);
                            }
                        }),
                );
            }
        });
    }
    assert_eq!(count.load(Ordering::Relaxed), 20 * 17);
    assert_eq!(region.reuses(), 19);
}

/// Steal/park observability: a threaded run fills the new counters
/// consistently (successes never exceed attempts; parks match unparks
/// once quiescent... workers still parked at `take_obs` keep the two
/// apart, so only the ordering inequality is asserted).
#[test]
fn steal_and_park_counters_are_consistent() {
    let e = Executor::new(cfg(4));
    let mut space = HandleSpace::new();
    let x = space.region("x", 64);
    let slices: Vec<_> = (0..64).map(|_| space.region("s", 64)).collect();
    let mut s = e.session(OptConfig::all());
    s.submit(TaskSpec::new("w").depend(x, AccessMode::Out).body(|_| {}));
    for &sl in &slices {
        s.submit(
            TaskSpec::new("r")
                .depend(x, AccessMode::In)
                .depend(sl, AccessMode::Out)
                .body(|_| {}),
        );
    }
    s.wait_all();
    drop(s);
    let obs = e.take_obs();
    assert!(obs.counters.steal_successes <= obs.counters.steal_attempts);
    assert!(obs.counters.unparks <= obs.counters.parks);
}

/// Spin until `done()` holds, yielding once the wait gets long (the
/// race tests run two spinning threads, possibly on fewer cores).
fn spin_until(done: impl Fn() -> bool) {
    let mut spins = 0u32;
    while !done() {
        if spins < 1_000 {
            spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// A second thread that completes each node it is handed after a random
/// spin, so the completion lands at a random point of whatever the test
/// thread does meanwhile. `sealed[i]` is set by the test thread right
/// before it seals (or publishes) the node with id `i`.
struct Completer {
    started: AtomicUsize,
    finished: AtomicUsize,
    job: Mutex<Option<(NodeRef, u32)>>,
    /// (releases performed, ids of the successors made ready).
    result: Mutex<Option<(usize, Vec<u32>)>>,
    sealed: Vec<AtomicBool>,
    /// Successors the completion made ready before they were sealed.
    early: AtomicUsize,
    quit: AtomicBool,
}

impl Completer {
    fn new(max_id: usize) -> Completer {
        Completer {
            started: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            job: Mutex::new(None),
            result: Mutex::new(None),
            sealed: (0..=max_id).map(|_| AtomicBool::new(false)).collect(),
            early: AtomicUsize::new(0),
            quit: AtomicBool::new(false),
        }
    }

    fn serve(&self) {
        let mut seen = 0;
        loop {
            spin_until(|| {
                self.started.load(Ordering::Acquire) > seen || self.quit.load(Ordering::Acquire)
            });
            if self.started.load(Ordering::Acquire) == seen {
                return;
            }
            seen += 1;
            let (node, delay) = self.job.lock().unwrap().take().expect("a job per trial");
            for _ in 0..delay {
                std::hint::spin_loop();
            }
            let done = node.complete();
            for r in &done.ready {
                if !self.sealed[r.id.index()].load(Ordering::SeqCst) {
                    self.early.fetch_add(1, Ordering::Relaxed);
                }
            }
            let ids = done.ready.iter().map(|r| r.id.0).collect();
            *self.result.lock().unwrap() = Some((done.released, ids));
            self.finished.store(seen, Ordering::Release);
        }
    }

    /// Hand `node` over; it completes after `delay` spins.
    fn start(&self, node: NodeRef, delay: u32) {
        for f in &self.sealed {
            f.store(false, Ordering::SeqCst);
        }
        *self.job.lock().unwrap() = Some((node, delay));
        self.started.fetch_add(1, Ordering::Release);
    }

    /// Run `body` with `self` serving on a second thread; the server
    /// stops when `body` returns or panics, so a failed assertion fails
    /// the test instead of hanging it.
    fn run(&self, body: impl FnOnce()) {
        struct OnDrop<F: FnMut()>(F);
        impl<F: FnMut()> Drop for OnDrop<F> {
            fn drop(&mut self) {
                (self.0)();
            }
        }
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // A dead server reports every trial finished, so a panic
                // on its side fails `join` instead of hanging it.
                let _dead = OnDrop(|| self.finished.store(usize::MAX, Ordering::Release));
                self.serve();
            });
            let _quit = OnDrop(|| self.quit.store(true, Ordering::Release));
            body();
        });
    }

    /// Wait for the completion of the current job.
    fn join(&self) -> (usize, Vec<u32>) {
        let trial = self.started.load(Ordering::Relaxed);
        spin_until(|| self.finished.load(Ordering::Acquire) >= trial);
        self.result
            .lock()
            .unwrap()
            .take()
            .expect("completer reported")
    }
}

/// splitmix64: a seeded, dependency-free source of trial shapes.
fn next_rand(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const MAX_FANOUT: usize = 40;

/// The streaming link word under its one real race: the producer
/// attaches k successors to a predecessor (and seals each) while a
/// second thread completes the predecessor at a random point. Every
/// attached edge is released exactly once, no pruned edge is released,
/// and each successor becomes ready exactly once — never before its seal.
/// Fan-outs up to `MAX_FANOUT` cover the spilled successor list too.
#[test]
fn link_word_attach_races_completion() {
    const TRIALS: usize = 200;
    let completer = Completer::new(MAX_FANOUT);
    completer.run(|| {
        for round in 0..rounds() {
            let mut rng = round as u64;
            for trial in 0..TRIALS {
                let k = 1 + next_rand(&mut rng) as usize % MAX_FANOUT;
                let delay = (next_rand(&mut rng) % (2 * k as u64)) as u32;
                let mut arena = NodeArena::new();
                let pred = arena.alloc(RtNode::redirect(TaskId(0), 0));
                let succs: Vec<NodeRef> = (1..=k as u32)
                    .map(|i| arena.alloc(RtNode::redirect(TaskId(i), 0)))
                    .collect();
                assert!(pred.seal(), "the predecessor is a root");
                completer.start(pred.clone(), delay);
                let mut edge = vec![false; k + 1];
                let mut ready = vec![0usize; k + 1];
                let mut pruned = 0;
                for s in &succs {
                    let i = s.id.index();
                    edge[i] = pred.attach_succ(s);
                    pruned += usize::from(!edge[i]);
                    completer.sealed[i].store(true, Ordering::SeqCst);
                    if s.seal() {
                        ready[i] += 1;
                    }
                }
                let (released, released_ready) = completer.join();
                let at = format!("round {round} trial {trial} (k = {k}, delay = {delay})");
                assert_eq!(released + pruned, k, "{at}: attached + pruned == k");
                assert_eq!(
                    released,
                    edge.iter().filter(|&&e| e).count(),
                    "{at}: every attached edge released once"
                );
                for id in released_ready {
                    let i = id as usize;
                    assert!(edge[i], "{at}: pruned edge to {i} was released");
                    ready[i] += 1;
                }
                for s in &succs {
                    let i = s.id.index();
                    assert_eq!(ready[i], 1, "{at}: successor {i} ready exactly once");
                    assert_eq!(s.pending(), 0, "{at}: successor {i} fully released");
                }
                assert_eq!(
                    completer.early.load(Ordering::Relaxed),
                    0,
                    "{at}: ready before seal"
                );
            }
        }
    });
}

/// The biased count across re-arms: a persistent predecessor with k
/// persistent successors completes on a second thread, at a random
/// point, while the test thread publishes (drops the visibility token
/// of) the successors one by one — over several iterations of the same
/// instance. Each successor becomes ready exactly once per iteration,
/// never before its publish.
#[test]
fn persistent_release_races_publish_across_rearms() {
    const K: usize = 24;
    const REARMS: u64 = 8;
    let mut space = HandleSpace::new();
    let x = space.region("x", 64);
    let mut engine = DiscoveryEngine::new(OptConfig::none());
    let mut rec = TemplateRecorder::new(false);
    engine.submit(&mut rec, &TaskSpec::new("p").depend(x, AccessMode::Out));
    for _ in 0..K {
        let y = space.region("y", 64);
        engine.submit(
            &mut rec,
            &TaskSpec::new("s")
                .depend(x, AccessMode::In)
                .depend(y, AccessMode::Out),
        );
    }
    let template = Arc::new(rec.finish());
    let completer = Completer::new(K);
    completer.run(|| {
        for round in 0..rounds() {
            let mut rng = round as u64;
            let pinst = PersistentInstance::new(Arc::clone(&template), false);
            let tracker = ReadyTracker::new();
            for iter in 1..=REARMS {
                pinst.begin_iteration(iter, &tracker);
                let roots = pinst.publish(0..1);
                assert_eq!(roots.len(), 1, "p is the only root");
                let delay = (next_rand(&mut rng) % (2 * K as u64)) as u32;
                completer.start(roots[0].clone(), delay);
                let mut ready = [0usize; K + 1];
                for (i, r) in ready.iter_mut().enumerate().skip(1) {
                    completer.sealed[i].store(true, Ordering::SeqCst);
                    *r += pinst.publish(i..i + 1).len();
                }
                let (released, released_ready) = completer.join();
                let at = format!("round {round} iteration {iter} (delay = {delay})");
                assert_eq!(released, K, "{at}: every persistent edge released");
                for id in released_ready {
                    ready[id as usize] += 1;
                }
                assert!(
                    ready[1..].iter().all(|&r| r == 1),
                    "{at}: each successor ready exactly once: {ready:?}"
                );
                assert_eq!(
                    completer.early.load(Ordering::Relaxed),
                    0,
                    "{at}: ready before publish"
                );
            }
        }
    });
}

/// One op sequence applied to both `ReadyQueues` backends on a single
/// thread: identical pop results (value and stolen flag), identical
/// lengths throughout. Pin the lock-free structures to the sequential
/// model the simulator trusts.
#[derive(Clone, Debug)]
enum Op {
    Push { local: Option<usize> },
    Pop { worker: Option<usize> },
}

fn op_strategy(cores: usize) -> impl Strategy<Value = Op> {
    (0usize..2, 0..=cores).prop_map(move |(kind, c)| {
        let lane = (c < cores).then_some(c);
        if kind == 0 {
            Op::Push { local: lane }
        } else {
            Op::Pop { worker: lane }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lock_free_pop_order_matches_locked_model(
        cores in 1usize..5,
        ops in prop::collection::vec(op_strategy(4), 1..120),
        breadth in 0u8..2,
    ) {
        let policy = if breadth == 1 { SchedPolicy::BreadthFirst } else { SchedPolicy::DepthFirst };
        let locked = ReadyQueues::with_backend(policy, cores, QueueBackend::Locked);
        let lockfree = ReadyQueues::with_backend(policy, cores, QueueBackend::LockFree);
        let mut next = 0u32;
        for op in &ops {
            match *op {
                Op::Push { local } => {
                    let local = local.filter(|&c| c < cores);
                    locked.push(next, local);
                    lockfree.push(next, local);
                    next += 1;
                }
                Op::Pop { worker } => {
                    let worker = worker.filter(|&c| c < cores);
                    let a = locked.pop(worker);
                    let b = lockfree.pop(worker);
                    prop_assert_eq!(a, b);
                }
            }
            prop_assert_eq!(locked.len(), lockfree.len());
        }
        // Drain: both must hand back the remaining tasks in the same order.
        loop {
            let a = locked.pop(Some(0));
            let b = lockfree.pop(Some(0));
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
