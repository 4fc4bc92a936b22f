//! Allocation accounting for the discovery hot path (DESIGN.md §4.4).
//!
//! A counting global allocator wraps the system allocator; each test warms
//! the producer-side buffers up to their high-water mark, snapshots the
//! allocation counter, drives the steady-state path, and asserts the
//! counter did not move. This pins the tentpole claim — *zero* heap
//! allocations per task — rather than "few": any regression that
//! reintroduces a per-task `Vec`, `Arc`, or boxed node shows up as a
//! nonzero delta, not as a slow drift in a benchmark.
//!
//! Every window runs with profiling off and no task bodies, on the
//! unbounded throttle, so the only code measured is submission itself:
//! depend resolution, node arming, edge wiring, and readiness routing.
//!
//! The counter is process-wide and counts every thread, the test
//! harness's included. Under the parallel harness, spawning, running or
//! reporting another test allocates inside a window, so each test runs
//! alone on a single-threaded harness (see [`measured_elsewhere`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use ptdg_core::access::AccessMode;
use ptdg_core::builder::SpecBuf;
use ptdg_core::exec::{ExecConfig, Executor, Session};
use ptdg_core::handle::HandleSpace;
use ptdg_core::opts::OptConfig;
use ptdg_core::rt::ThrottleConfig;
use ptdg_core::task::TaskSpec;

/// Counts every allocation-side call; frees are uncounted (recycling is
/// allowed to release memory late, it just must not *acquire* any).
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Whether test `name` must be measured in a child process instead of
/// here. On a single-threaded harness the tests run one at a time and
/// measure in process. Otherwise the test reruns itself alone in a child
/// process of this binary on a single-threaded harness, asserts that it
/// ran and passed there, and returns `true`.
fn measured_elsewhere(name: &str) -> bool {
    let args: Vec<String> = std::env::args().collect();
    let single = args.iter().any(|a| a == "--test-threads=1")
        || args
            .windows(2)
            .any(|w| w[0] == "--test-threads" && w[1] == "1");
    if single {
        return false;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args([name, "--exact", "--test-threads=1", "--nocapture"])
        .output()
        .expect("spawn the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "{name} failed when run alone:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    true
}

fn alloc_calls() -> u64 {
    // SeqCst snapshot: the windows measure across our own thread only —
    // workers are parked (streaming) or quiesced at a barrier (persistent)
    // at both fence points.
    ALLOC_CALLS.load(Ordering::SeqCst)
}

/// An executor whose workers have all started. A worker thread's first
/// steps (thread start-up, thread-local set-up) allocate, and on a loaded
/// host they can run late enough to land inside a measurement window, so
/// every worker first runs one task that waits for all the others.
fn quiet_executor(n_workers: usize) -> Executor {
    let exec = Executor::new(ExecConfig {
        n_workers,
        throttle: ThrottleConfig::unbounded(),
        profile: false,
        ..Default::default()
    });
    // The producer joins the barrier too, so it cannot help run a start
    // task in place of a worker that has not started yet.
    let started = Arc::new(Barrier::new(n_workers + 1));
    let mut s = exec.session(OptConfig::all());
    for _ in 0..n_workers {
        let started = Arc::clone(&started);
        s.submit(TaskSpec::new("start").body(move |_| {
            started.wait();
        }));
    }
    started.wait();
    s.wait_all();
    drop(s);
    exec
}

/// Streaming discovery: after [`ptdg_core::exec::Session::reserve`] and a
/// warmup burst, every further `SpecBuf` submission must perform zero heap
/// allocations end to end. Non-overlapped session: all ready tasks land in
/// the (reserved) hold gate and the workers stay parked, so the measured
/// window is single-threaded by construction.
#[test]
fn streaming_submission_is_allocation_free_in_steady_state() {
    const N_HANDLES: usize = 8;
    const WARM: usize = 512;
    const MEASURED: usize = 512;

    if measured_elsewhere("streaming_submission_is_allocation_free_in_steady_state") {
        return;
    }
    let exec = quiet_executor(2);
    let mut space = HandleSpace::new();
    let handles: Vec<_> = (0..N_HANDLES).map(|_| space.region("h", 256)).collect();

    let mut s = exec.session_non_overlapped(OptConfig::all());
    // Generous node headroom: redirect nodes ride on top of the task count.
    s.reserve(2 * (WARM + MEASURED), N_HANDLES);
    let mut buf = SpecBuf::new();

    // Rotating writer/reader stencil: every handle keeps a short, bounded
    // reader window between writers, so per-handle discovery state stays
    // within its inline capacity the way real iterative codes do.
    for k in 0..WARM {
        buf.begin("warm")
            .dep(handles[k % N_HANDLES], AccessMode::InOut)
            .dep(handles[(k + 1) % N_HANDLES], AccessMode::In)
            .flops(1.0)
            .submit(&mut s);
    }

    let before = alloc_calls();
    for k in WARM..WARM + MEASURED {
        buf.begin("steady")
            .dep(handles[k % N_HANDLES], AccessMode::InOut)
            .dep(handles[(k + 1) % N_HANDLES], AccessMode::In)
            .flops(1.0)
            .submit(&mut s);
    }
    let after = alloc_calls();

    s.wait_all();
    assert_eq!(
        after - before,
        0,
        "steady-state streaming submission must not allocate \
         ({MEASURED} tasks cost {} allocations)",
        after - before
    );
}

/// Streaming discovery through both directions of optimization (c):
/// rounds of readers followed by an `inoutset` group on one region. Every
/// round funnels its readers into a redirect when the group's second
/// member joins (readers -> R -> members), and the next round's first
/// reader funnels the group into another (members -> R' -> readers).
/// Once the per-handle lists have spilled to their high-water mark in
/// warm-up, both redirect paths allocate nothing.
#[test]
fn inoutset_redirect_submission_is_allocation_free_in_steady_state() {
    const READERS: usize = 6;
    const MEMBERS: usize = 6;
    const WARM_ROUNDS: usize = 32;
    const MEASURED_ROUNDS: usize = 32;

    if measured_elsewhere("inoutset_redirect_submission_is_allocation_free_in_steady_state") {
        return;
    }
    let exec = quiet_executor(2);
    let mut space = HandleSpace::new();
    let x = space.region("x", 256);

    let mut s = exec.session_non_overlapped(OptConfig::all());
    // Each round adds its tasks plus two redirect nodes.
    s.reserve((READERS + MEMBERS + 2) * (WARM_ROUNDS + MEASURED_ROUNDS), 1);
    let mut buf = SpecBuf::new();
    let mut round = |s: &mut Session<'_>| {
        for _ in 0..READERS {
            buf.begin("read")
                .dep(x, AccessMode::In)
                .flops(1.0)
                .submit(s);
        }
        for _ in 0..MEMBERS {
            buf.begin("accumulate")
                .dep(x, AccessMode::InOutSet)
                .flops(1.0)
                .submit(s);
        }
    };

    for _ in 0..WARM_ROUNDS {
        round(&mut s);
    }
    let before = alloc_calls();
    for _ in 0..MEASURED_ROUNDS {
        round(&mut s);
    }
    let after = alloc_calls();

    let redirects = s.stats().redirect_nodes;
    s.wait_all();
    assert_eq!(
        after - before,
        0,
        "steady-state inoutset submission must not allocate \
         ({MEASURED_ROUNDS} rounds cost {} allocations)",
        after - before
    );
    // The first round has no group before its readers; every other round
    // creates one redirect on each side of a group.
    assert_eq!(
        redirects as usize,
        2 * (WARM_ROUNDS + MEASURED_ROUNDS) - 1,
        "both redirect directions ran in every round"
    );
}

/// Persistent re-instancing: once the template is captured and the replay
/// machinery (publish buffer, injector segment pool, worker deques) has
/// reached its high-water mark, whole re-instanced iterations — bulk
/// re-arm, root publication, execution, barrier — allocate nothing.
#[test]
fn persistent_replay_is_allocation_free_in_steady_state() {
    const CHAIN: usize = 64;
    const WARM_ITERS: u64 = 8;
    const MEASURED_ITERS: u64 = 16;

    if measured_elsewhere("persistent_replay_is_allocation_free_in_steady_state") {
        return;
    }
    let exec = quiet_executor(1);
    let mut space = HandleSpace::new();
    let h = space.region("chain", 64);

    let mut region = exec.persistent_region(OptConfig::all());
    // Capturing first iteration, then warm replays.
    for iter in 0..WARM_ITERS {
        region.run(iter, |sub| {
            let mut buf = SpecBuf::new();
            for _ in 0..CHAIN {
                buf.begin("link")
                    .dep(h, AccessMode::InOut)
                    .flops(1.0)
                    .submit(sub);
            }
        });
    }

    let before = alloc_calls();
    for iter in WARM_ITERS..WARM_ITERS + MEASURED_ITERS {
        region.run(iter, |_: &mut dyn ptdg_core::builder::TaskSubmitter| {
            unreachable!("replayed iterations never rebuild")
        });
    }
    let after = alloc_calls();

    assert_eq!(
        after - before,
        0,
        "re-instanced iterations must not allocate \
         ({MEASURED_ITERS} iterations cost {} allocations)",
        after - before
    );
    assert_eq!(
        region.reuses(),
        WARM_ITERS + MEASURED_ITERS - 1,
        "all but the capturing iteration replayed the template"
    );
}
