//! The solve loop shared by every workload: warm-up, a timed budget of
//! verified solves, and the reduction of their samples to metrics.

use crate::host;
use crate::metrics::{Samples, Values};
use crate::stats;
use ptdg_core::builder::TaskSubmitter;
use ptdg_core::exec::{ExecConfig, SchedPolicy};
use ptdg_core::graph::{DiscoveryStats, GraphTemplate};
use ptdg_core::obs::RtCounters;
use ptdg_core::rt::{NullProbe, PersistentInstance, ReadyTracker};
use ptdg_core::task::{SpecView, TaskId};
use ptdg_core::throttle::ThrottleConfig;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Re-arm repetitions timed on a captured template.
const REARM_REPS: u64 = 50;

/// How a solve is observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Nothing but the solve's own clock: the end-to-end numbers.
    Plain,
    /// The benchmark times calls into each layer and reads its counters.
    Traced,
    /// The runtime's own span profiling is on (`ExecConfig::profile`, or
    /// the simulator's trace rank).
    Profiled,
}

/// One verified solve.
pub struct Solve {
    /// Set-up this solve paid before its clock started (input
    /// construction, executor spawn).
    pub setup_s: f64,
    /// Submission, execution and the final wait.
    pub solve_s: f64,
    /// Iteration latencies of this solve (see the workload for which).
    pub iter_ms: Vec<f64>,
    /// The output matched its reference.
    pub ok: bool,
    /// Layer values (traced solves only).
    pub layers: Values,
}

/// A workload the benchmark can run.
pub trait Workload {
    /// OS threads a solve runs on at once.
    fn threads(&self) -> usize;
    /// Worker threads of the executor (0 for the simulator).
    fn workers(&self) -> usize;
    /// Set-up paid once per process before any solve, in seconds (a
    /// median over repetitions where the workload repeats it).
    fn shared_setup_s(&self) -> f64;
    /// Build inputs, solve once in `mode`, verify.
    fn solve(&mut self, mode: Mode) -> Solve;
    /// Layer values measured outside the solves: the sequential
    /// reference, the re-arm cost of a captured template.
    fn extra_layers(&mut self) -> Values;
}

/// The thread executor configuration every real-thread workload uses.
pub fn exec_config(workers: usize, profile: bool) -> ExecConfig {
    ExecConfig {
        n_workers: workers,
        policy: SchedPolicy::DepthFirst,
        throttle: ThrottleConfig::mpc_default(),
        profile,
        record_events: false,
    }
}

/// Solves of one phase of a run.
#[derive(Default)]
pub struct Phase {
    pub solves: Vec<Solve>,
    /// Peak resident set while each solve was set up, run and verified.
    pub peak_rss_mb: Vec<f64>,
}

impl Phase {
    pub fn solve_s(&self) -> Vec<f64> {
        self.solves.iter().map(|s| s.solve_s).collect()
    }

    pub fn failed(&self) -> u64 {
        self.solves.iter().filter(|s| !s.ok).count() as u64
    }

    /// Medians of the per-solve layer values.
    pub fn layer_medians(&self) -> Values {
        let mut samples = Samples::default();
        for solve in &self.solves {
            for (name, value) in solve.layers.iter() {
                samples.push(name, value);
            }
        }
        samples.medians()
    }
}

/// Solves in each of `modes` in turn, one phase per mode, until `budget`
/// has passed and at least `min_rounds` turns were made. Taking turns
/// keeps slow drift in the host's speed out of the ratios between phases.
pub fn measure(
    w: &mut dyn Workload,
    modes: &[Mode],
    budget: Duration,
    min_rounds: usize,
) -> Vec<Phase> {
    let mut phases: Vec<Phase> = modes.iter().map(|_| Phase::default()).collect();
    let t0 = Instant::now();
    let mut rounds = 0;
    while t0.elapsed() < budget || rounds < min_rounds {
        for (&mode, phase) in modes.iter().zip(&mut phases) {
            host::reset_peak_rss();
            phase.solves.push(w.solve(mode));
            phase.peak_rss_mb.push(host::peak_rss_mb().unwrap_or(0.0));
        }
        rounds += 1;
    }
    phases
}

/// The end-to-end metrics of a phase, plus its solve count and tail.
pub fn end_to_end(w: &dyn Workload, phase: &Phase) -> Values {
    let mut v = Values::default();
    // A solve's own percentile, then the median over solves: a burst of
    // host noise moves the few solves it hits, not the reported tail.
    let per_solve = |p: f64| -> Vec<f64> {
        phase
            .solves
            .iter()
            .filter_map(|s| stats::percentile(&s.iter_ms, p))
            .collect()
    };
    let setups: Vec<f64> = phase.solves.iter().map(|s| s.setup_s).collect();
    let solve_s = phase.solve_s();
    v.set("solve_s", stats::median(&solve_s).unwrap_or(0.0));
    v.set(
        "iter_ms.p50",
        stats::median(&per_solve(50.0)).unwrap_or(0.0),
    );
    v.set(
        "iter_ms.p90",
        stats::median(&per_solve(90.0)).unwrap_or(0.0),
    );
    v.set(
        "setup_s",
        w.shared_setup_s() + stats::median(&setups).unwrap_or(0.0),
    );
    v.set(
        "peak_rss_mb",
        stats::median(&phase.peak_rss_mb).unwrap_or(0.0),
    );
    v.set("bench.solves", solve_s.len() as f64);
    if let Some((pct, value)) = stats::tail(&solve_s) {
        v.set("bench.tail_pct", pct);
        v.set("bench.tail_solve_s", value);
    }
    v
}

/// Accumulates the time spent inside `submit_view` of the wrapped
/// submitter — the producer's discovery self time plus any throttle
/// help, which the caller subtracts.
#[derive(Default)]
pub struct SubmitClock {
    pub ns: u64,
    pub tasks: u64,
}

impl SubmitClock {
    pub fn wrap<'a>(&'a mut self, inner: &'a mut dyn TaskSubmitter) -> TimedSubmitter<'a> {
        TimedSubmitter { clock: self, inner }
    }
}

/// A [`TaskSubmitter`] that times every submission into `inner`.
pub struct TimedSubmitter<'a> {
    clock: &'a mut SubmitClock,
    inner: &'a mut dyn TaskSubmitter,
}

impl TaskSubmitter for TimedSubmitter<'_> {
    fn submit_view(&mut self, view: &SpecView<'_>) -> TaskId {
        let t0 = Instant::now();
        let id = self.inner.submit_view(view);
        self.clock.ns += t0.elapsed().as_nanos() as u64;
        self.clock.tasks += 1;
        id
    }

    fn wants_bodies(&self) -> bool {
        self.inner.wants_bodies()
    }
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// The structural discovery counts of one solve.
pub fn graph_layers(v: &mut Values, stats: &DiscoveryStats) {
    let tasks = stats.tasks as f64;
    v.set("graph.tasks", tasks);
    v.set(
        "graph.edges_per_task",
        stats::ratio((stats.edges_created + stats.edges_pruned) as f64, tasks),
    );
    v.set(
        "graph.depend_items_per_task",
        stats::ratio(stats.depend_items as f64, tasks),
    );
    v.set("graph.redirects", stats.redirect_nodes as f64);
    v.set("graph.dup_skipped", stats.dup_skipped as f64);
}

/// Scheduler counters of one solve (fresh executor, so exact per solve).
pub fn rt_layers(v: &mut Values, c: &RtCounters) {
    v.set(
        "rt.parks_per_ktask",
        stats::ratio(c.parks as f64, c.tasks_completed as f64 / 1000.0),
    );
    v.set(
        "rt.steal_success_ratio",
        stats::ratio(c.steal_successes as f64, c.steal_attempts as f64),
    );
    v.set("rt.ready_hwm", c.ready_hwm as f64);
    v.set("rt.live_hwm", c.live_hwm as f64);
}

/// Producer submission self time of one solve: time inside
/// `submit_view` minus the throttle help it contained.
pub fn submit_layers(v: &mut Values, clock: &SubmitClock, c: &RtCounters, solve_s: f64) {
    let self_ns = clock.ns.saturating_sub(c.throttle_stall_ns) as f64;
    v.set(
        "exec.submit_ns_per_task",
        stats::ratio(self_ns, clock.tasks as f64),
    );
    v.set("exec.submit_share", stats::ratio(self_ns * 1e-9, solve_s));
    v.set("exec.throttle_help_s", c.throttle_stall_ns as f64 * 1e-9);
}

/// Median cost per node of re-arming and publishing a captured template,
/// against a tracker no worker reads.
pub fn rearm_ns_per_task(template: &Arc<GraphTemplate>) -> f64 {
    let inst = PersistentInstance::new(Arc::clone(template), false);
    let tracker = ReadyTracker::new();
    let mut ready = Vec::new();
    let per_node: Vec<f64> = (0..REARM_REPS)
        .map(|iter| {
            let t0 = Instant::now();
            inst.begin_iteration(iter, &tracker);
            inst.publish_into(0..inst.len(), &NullProbe, 0, &mut ready);
            let ns = t0.elapsed().as_nanos() as f64;
            ready.clear();
            ns / inst.len() as f64
        })
        .collect();
    stats::median(&per_node).unwrap_or(0.0)
}
